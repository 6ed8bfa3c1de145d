//! Integration coverage for the extension modules, exercised end-to-end
//! across crates: SFC chains on a real topology, CSV export, the
//! comparison harness, windowed failure injection, the Watts–Strogatz
//! generator, and offline shadow prices.

use mec_sim::{compare, export, failure, IntraSlotOrder, Simulation};
use mec_topology::generators::{self, CloudletPlacement};
use mec_topology::stats::NetworkStats;
use mec_topology::zoo;
use mec_workload::stats::WorkloadStats;
use mec_workload::{Horizon, RequestGenerator, VnfCatalog, VnfTypeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::baselines::{DensityGreedy, RandomPlacement};
use vnfrel::chain::{
    run_chain_online, BackupMode, ChainGreedy, ChainPrimalDual, ChainRequest, ChainRequestId,
    ChainScheduler,
};
use vnfrel::onsite::offline::capacity_shadow_prices;
use vnfrel::onsite::{CapacityPolicy, OnsiteGreedy, OnsitePrimalDual};
use vnfrel::{OnlineScheduler, ProblemInstance, Scheme};

fn instance(seed: u64) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let placement = CloudletPlacement {
        fraction: 0.5,
        capacity: (8, 12),
        reliability: (0.99, 0.9999),
    };
    let net = zoo::garr().into_network(&placement, &mut rng).unwrap();
    ProblemInstance::new(net, VnfCatalog::standard(), Horizon::new(16)).unwrap()
}

fn workload(inst: &ProblemInstance, n: usize, seed: u64) -> Vec<mec_workload::Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    RequestGenerator::new(inst.horizon())
        .reliability_band(0.9, 0.95)
        .unwrap()
        .payment_rate_band(1.0, 10.0)
        .unwrap()
        .generate(n, inst.catalog(), &mut rng)
        .unwrap()
}

#[test]
fn chains_schedule_on_garr_and_stay_feasible() {
    let inst = instance(11);
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let horizon = inst.horizon();
    let reqs: Vec<ChainRequest> = (0..120)
        .map(|i| {
            let len = rng.gen_range(1..=3);
            let stages: Vec<VnfTypeId> =
                (0..len).map(|_| VnfTypeId(rng.gen_range(0..10))).collect();
            let arrival = rng.gen_range(0..horizon.len() - 1);
            ChainRequest::new(
                ChainRequestId(i),
                stages,
                mec_topology::Reliability::new(rng.gen_range(0.9..0.95)).unwrap(),
                rng.gen_range(3.0..12.0),
                mec_topology::NodeId(rng.gen_range(0..inst.network().ap_count())),
                arrival,
                rng.gen_range(1..=(horizon.len() - arrival).min(4)),
                rng.gen_range(1.0..30.0),
                horizon,
            )
            .unwrap()
        })
        .collect();
    let mut pd = ChainPrimalDual::new(&inst, BackupMode::Shared);
    let spd = run_chain_online(&mut pd, &reqs).unwrap();
    let mut gr = ChainGreedy::new(&inst);
    let sgr = run_chain_online(&mut gr, &reqs).unwrap();
    assert_eq!(pd.ledger().max_overflow(), 0.0);
    assert_eq!(gr.ledger().max_overflow(), 0.0);
    assert!(spd.admitted_count() + sgr.admitted_count() > 0);
}

#[test]
fn comparison_harness_agrees_with_individual_runs() {
    let inst = instance(21);
    let reqs = workload(&inst, 200, 22);
    let sim = Simulation::new(&inst, &reqs).unwrap();

    let mut solo = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
    let solo_revenue = sim.run(&mut solo).unwrap().metrics.revenue;

    let mut a = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
    let mut b = OnsiteGreedy::new(&inst);
    let mut c = DensityGreedy::new(&inst, 0.0).unwrap();
    let mut d = RandomPlacement::new(&inst, Scheme::OnSite, 5);
    let schedulers: &mut [&mut dyn OnlineScheduler] = &mut [&mut a, &mut b, &mut c, &mut d];
    let cmp = compare(&inst, &reqs, schedulers).unwrap();
    assert_eq!(cmp.rows.len(), 4);
    let row = cmp
        .rows
        .iter()
        .find(|r| r.algorithm == "alg1-primal-dual")
        .unwrap();
    assert!((row.revenue - solo_revenue).abs() < 1e-9);
    assert!(cmp.best().unwrap().revenue <= cmp.total_payment);
    assert!(cmp.to_string().contains("rev/best"));
}

#[test]
fn csv_exports_are_consistent_with_reports() {
    let inst = instance(31);
    let reqs = workload(&inst, 150, 32);
    let sim = Simulation::new(&inst, &reqs).unwrap();
    let mut alg = OnsiteGreedy::new(&inst);
    let report = sim.run(&mut alg).unwrap();
    let csv = export::timeline_csv(&report);
    assert_eq!(csv.lines().count(), inst.horizon().len() + 1);
    // Sum the admitted column; must equal the metrics count.
    let admitted: usize = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').nth(2).unwrap().parse::<usize>().unwrap())
        .sum();
    assert_eq!(admitted, report.metrics.admitted);

    // Workload stats agree with the generator's bands.
    let stats = WorkloadStats::compute(&reqs, inst.catalog(), inst.horizon());
    assert_eq!(stats.count, 150);
    assert!(stats.rate_spread() <= 10.0 + 1e-6);
    assert!((stats.total_payment - cmp_total(&reqs)).abs() < 1e-9);
}

fn cmp_total(reqs: &[mec_workload::Request]) -> f64 {
    reqs.iter().map(|r| r.payment()).sum()
}

#[test]
fn windowed_failures_never_violate_compounded_targets() {
    let inst = instance(41);
    let reqs = workload(&inst, 100, 42);
    let sim = Simulation::new(&inst, &reqs).unwrap();
    let mut alg = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
    let schedule = sim.run(&mut alg).unwrap().schedule;
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let report =
        failure::inject_failures_windowed(&inst, &reqs, &schedule, 10_000, &mut rng).unwrap();
    assert!(report.statistical_violations(4.0).is_empty());
}

#[test]
fn watts_strogatz_supports_full_pipeline() {
    let mut rng = ChaCha8Rng::seed_from_u64(51);
    let placement = CloudletPlacement {
        fraction: 0.5,
        capacity: (8, 12),
        reliability: (0.99, 0.9999),
    };
    let net = generators::watts_strogatz(24, 4, 0.15, &placement, &mut rng).unwrap();
    let stats = NetworkStats::compute(&net);
    assert!(stats.diameter.is_some());
    let inst = ProblemInstance::new(net, VnfCatalog::standard(), Horizon::new(16)).unwrap();
    let reqs = workload(&inst, 120, 52);
    let sim = Simulation::new(&inst, &reqs).unwrap();
    let mut alg = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
    let report = sim
        .run_ordered(&mut alg, IntraSlotOrder::DensityDescending, None)
        .unwrap();
    assert!(report.validation.is_feasible());
}

#[test]
fn shadow_prices_concentrate_where_lambda_does() {
    // Not a strict theorem — but on a congested instance, the slots the
    // offline LP prices must be a subset of "slots with load", and the
    // online prices must be zero wherever no request ever lands.
    let inst = instance(61);
    let reqs = workload(&inst, 140, 62);
    let mut alg = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
    vnfrel::run_online(&mut alg, &reqs).unwrap();
    let offline = capacity_shadow_prices(&inst, &reqs).unwrap();

    let mut any_positive = false;
    for cloudlet in inst.network().cloudlets() {
        let j = cloudlet.id();
        for t in inst.horizon().slots() {
            let covered = reqs.iter().any(|r| r.active_at(t));
            if !covered {
                assert_eq!(alg.lambda(j, t), 0.0);
                assert!(offline[j.index()][t].abs() < 1e-9);
            }
            if offline[j.index()][t] > 1e-9 {
                any_positive = true;
            }
        }
    }
    assert!(
        any_positive,
        "140 requests on small cloudlets must bind capacity"
    );
}
