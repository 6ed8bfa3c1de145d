//! End-to-end coverage for the chain subsystem: generated workloads on a
//! real topology, driven through the chain primal-dual in every backup
//! mode, validated by the Monte-Carlo chain referee, and torn down again
//! to prove the ledger and the shared backup pool neither leak nor
//! double-charge capacity. A mixed run without chains is held to the
//! batch engine's Algorithm 1 run of the same stream.

use mec_obs::NoopSink;
use mec_sim::{inject_chain_failures, MixedSimulation, Simulation};
use mec_topology::generators::CloudletPlacement;
use mec_topology::zoo;
use mec_topology::{CloudletId, NodeId, Reliability};
use mec_workload::{ChainGenerator, ChainRequest, ChainRequestId, Horizon, VnfCatalog, VnfTypeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::chain::{
    run_chain_online, BackupMode, ChainGreedy, ChainPrimalDual, ChainRejectReason, ChainScheduler,
};
use vnfrel::onsite::{CapacityPolicy, OnsitePrimalDual};
use vnfrel::{OnlineScheduler, Placement, ProblemInstance};
use vnfrel_bench::{MixedScenario, Scenario};

fn instance(seed: u64) -> ProblemInstance {
    instance_with(seed, VnfCatalog::standard(), 16)
}

fn instance_with(seed: u64, catalog: VnfCatalog, slots: usize) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let placement = CloudletPlacement {
        fraction: 0.5,
        capacity: (14, 20),
        reliability: (0.99, 0.9999),
    };
    let net = zoo::garr().into_network(&placement, &mut rng).unwrap();
    ProblemInstance::new(net, catalog, Horizon::new(slots)).unwrap()
}

fn chains(inst: &ProblemInstance, n: usize, seed: u64) -> Vec<ChainRequest> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    ChainGenerator::new(inst.horizon(), inst.network().ap_count())
        .length_band(1, 3)
        .unwrap()
        .reliability_band(0.9, 0.96)
        .unwrap()
        .latency_budget_band(3.0, 12.0)
        .unwrap()
        .payment_rate_band(1.0, 10.0)
        .unwrap()
        .generate(n, inst.catalog(), &mut rng)
        .unwrap()
}

/// Admitted chains deliver their required availability in every backup
/// mode — the referee's statistical-violation list stays empty at z = 3
/// and capacity never overflows.
#[test]
fn referee_validates_every_backup_mode() {
    let inst = instance(41);
    let reqs = chains(&inst, 80, 42);
    for mode in [BackupMode::None, BackupMode::Dedicated, BackupMode::Shared] {
        let mut alg = ChainPrimalDual::new(&inst, mode);
        let schedule = run_chain_online(&mut alg, &reqs).unwrap();
        assert!(
            schedule.admitted_count() > 0,
            "{}: nothing admitted",
            mode.as_str()
        );
        assert_eq!(
            alg.ledger().max_overflow(),
            0.0,
            "{}: capacity overflow",
            mode.as_str()
        );
        let mut rng = ChaCha8Rng::seed_from_u64(7 ^ 0xc4a1_0000);
        let report = inject_chain_failures(&inst, &reqs, &schedule, 12_000, &mut rng).unwrap();
        let violations = report.availability.statistical_violations(3.0);
        assert!(
            violations.is_empty(),
            "{}: delivered availability violations: {violations:?}",
            mode.as_str()
        );
    }
}

/// Runs `reqs` through a shared-mode `alg`, releases every admitted
/// chain (oldest first, or newest first), and checks that the ledger is
/// back at its baseline, the standby pool is drained, and a second
/// release errors without touching the ledger.
fn release_all_and_check(
    label: &str,
    mut alg: ChainPrimalDual<'_>,
    reqs: &[ChainRequest],
    newest_first: bool,
) {
    let baseline = alg.ledger().used_grid().to_vec();
    let schedule = run_chain_online(&mut alg, reqs).unwrap();
    let mut admitted: Vec<usize> = (0..reqs.len())
        .filter(|&i| schedule.is_admitted(ChainRequestId(i)))
        .collect();
    assert!(!admitted.is_empty(), "{label}: nothing admitted");
    assert_ne!(alg.ledger().used_grid(), &baseline[..]);
    if newest_first {
        admitted.reverse();
    }

    for &i in &admitted {
        alg.release_chain(ChainRequestId(i)).unwrap();
    }
    assert_eq!(
        alg.ledger().used_grid(),
        &baseline[..],
        "{label}: ledger did not return to baseline after releasing every chain"
    );
    assert!(
        alg.pool().is_empty(),
        "{label}: standby pool leaked instances"
    );

    // Double release is an error and must not disturb the ledger.
    let grid_after = alg.ledger().used_grid().to_vec();
    assert!(alg.release_chain(ChainRequestId(admitted[0])).is_err());
    assert_eq!(alg.ledger().used_grid(), &grid_after[..]);
}

/// Releasing every admitted chain returns the ledger to its baseline and
/// drains the standby pool: no leaked slots, no double-charged standbys,
/// and releases are idempotent-checked (second release errors without
/// touching the ledger).
#[test]
fn pool_and_ledger_release_without_leak_or_double_charge() {
    let inst = instance(43);
    let reqs = chains(&inst, 60, 44);
    for newest_first in [false, true] {
        let alg = ChainPrimalDual::new(&inst, BackupMode::Shared);
        release_all_and_check("standard catalog", alg, &reqs, newest_first);
    }

    // Streams on which chains actually share standbys, and share them
    // across gaps: failure-prone VNF types at ε = 0.10 (the `chain_bench`
    // setting) so joins happen, and windows of at most 4 slots spread
    // over 96 so a joiner's window seldom touches the standby's hull.
    // The chains stay where the generator put them. Before the gap was
    // charged, seven of these twelve streams underflowed the ledger on
    // release.
    for stream in 0..12u64 {
        let catalog = VnfCatalog::from_specs([
            ("IDS", 3u64, 0.90),
            ("DPI", 3, 0.92),
            ("TranscoderV", 2, 0.93),
            ("WanOptimizer", 3, 0.95),
            ("SessionBorder", 2, 0.96),
            ("VPNGateway", 2, 0.97),
        ])
        .unwrap();
        let inst = instance_with(43 + 2 * stream, catalog, 96);
        let reqs = chains(&inst, 60, 44 + 2 * stream);
        for newest_first in [false, true] {
            let alg = ChainPrimalDual::with_mass_cap(&inst, BackupMode::Shared, 0.10, NoopSink);
            let label = format!("failure-prone stream {stream}");
            release_all_and_check(&label, alg, &reqs, newest_first);
        }
    }
}

/// A chain whose ingress cannot reach any cloudlet within its budget is
/// rejected as latency-infeasible by both the primal-dual and the greedy
/// baseline — end to end, on a real topology.
#[test]
fn latency_infeasible_chains_are_rejected_as_such() {
    let inst = instance(45);
    // Find an AP that does not host a cloudlet: every segment from there
    // crosses at least one positive-latency link.
    let hosts: Vec<usize> = inst
        .network()
        .cloudlets()
        .map(|c| c.node().index())
        .collect();
    let ingress = (0..inst.network().ap_count())
        .find(|i| !hosts.contains(i))
        .expect("fraction 0.5 leaves cloudlet-free APs");
    let req = ChainRequest::new(
        ChainRequestId(0),
        vec![VnfTypeId(0)],
        Reliability::new(0.9).unwrap(),
        1e-6,
        NodeId(ingress),
        0,
        2,
        50.0,
        inst.horizon(),
    )
    .unwrap();
    let mut pd = ChainPrimalDual::new(&inst, BackupMode::Shared);
    let mut greedy = ChainGreedy::new(&inst);
    assert_eq!(
        pd.decide_chain(&req),
        Err(ChainRejectReason::LatencyInfeasible)
    );
    assert_eq!(
        greedy.decide_chain(&req),
        Err(ChainRejectReason::LatencyInfeasible)
    );
}

/// The whole pipeline — generation, mixed replay, referee — is
/// deterministic for a seed.
#[test]
fn chain_pipeline_is_deterministic_for_a_seed() {
    let run = || {
        let inst = instance(46);
        let mut rng = ChaCha8Rng::seed_from_u64(47);
        let singles = mec_workload::RequestGenerator::new(inst.horizon())
            .reliability_band(0.9, 0.95)
            .unwrap()
            .generate(40, inst.catalog(), &mut rng)
            .unwrap();
        let reqs = chains(&inst, 50, 48);
        let sim = MixedSimulation::new(&inst, &singles, &reqs).unwrap();
        let mut alg = ChainPrimalDual::new(&inst, BackupMode::Shared);
        let report = sim.run(&mut alg);
        let mut mc = ChaCha8Rng::seed_from_u64(49);
        let referee = inject_chain_failures(&inst, &reqs, &report.chains, 4_000, &mut mc).unwrap();
        let margins: Vec<String> = referee
            .availability
            .requests
            .iter()
            .map(|c| format!("{}:{:.6}", c.request.index(), c.measured))
            .collect();
        (
            report.singles,
            format!("{}", report.chains),
            report.single_revenue.to_bits(),
            margins,
        )
    };
    assert_eq!(run(), run());
}

/// `MixedSimulation::run` over singles alone decides what
/// `Simulation::run` with Algorithm 1 (capacity enforced) decides, on the
/// chain benchmark's single-VNF stream and on a week-shaped one: the same
/// placements, the same revenue and the same ledger, bit for bit.
#[test]
fn singles_only_mixed_run_matches_the_batch_engine() {
    let mixed = MixedScenario::build(672, 2_048, 17);
    let week = Scenario::week(131_072, 1);
    let bits = |grid: &[f64]| grid.iter().map(|u| u.to_bits()).collect::<Vec<u64>>();
    for (name, instance, singles) in [
        ("MixedScenario", &mixed.instance, &mixed.singles[..]),
        ("week prefix", &week.instance, &week.requests[..12_288]),
    ] {
        let mut chain_alg = ChainPrimalDual::new(instance, BackupMode::None);
        let mixed_run = MixedSimulation::new(instance, singles, &[])
            .unwrap()
            .run(&mut chain_alg);
        let mut alg1 = OnsitePrimalDual::new(instance, CapacityPolicy::Enforce).unwrap();
        let batch = Simulation::new(instance, singles)
            .unwrap()
            .run(&mut alg1)
            .unwrap();

        let placements: Vec<Option<(CloudletId, u32)>> = singles
            .iter()
            .map(|r| match batch.schedule.placement(r.id()) {
                Some(&Placement::OnSite {
                    cloudlet,
                    instances,
                }) => Some((cloudlet, instances)),
                Some(other) => panic!("{name}: Algorithm 1 placed off-site: {other:?}"),
                None => None,
            })
            .collect();
        let admitted = mixed_run.admitted_singles();
        assert!(
            admitted > 0 && admitted < singles.len(),
            "{name}: {admitted} of {} admitted — the stream must contend",
            singles.len()
        );
        assert!(mixed_run.singles == placements, "{name}: placements differ");
        assert_eq!(
            mixed_run.single_revenue.to_bits(),
            batch.schedule.revenue().to_bits(),
            "{name}: revenue"
        );
        assert!(
            bits(chain_alg.ledger().used_grid()) == bits(alg1.ledger().used_grid()),
            "{name}: ledgers differ"
        );
    }
}
