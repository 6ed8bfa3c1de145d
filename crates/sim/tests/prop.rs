//! Property-based tests for the correlated-failure machinery.
//!
//! * Overlapping and back-to-back domain outages must never
//!   double-release capacity: the runtime auditor's ledger-balance and
//!   non-negativity invariants stay clean for every sampled trace.
//! * The fault loop's active set holds exactly the admitted requests
//!   whose window covers the slot.
//! * SchemeMatching recovery replays are deterministic regardless of the
//!   thread count used to fan the experiment out.

use mec_obs::NoopSink;
use mec_sim::{
    parallel, CascadeConfig, DegradationConfig, FailureConfig, FailureProcess, RecoveryPolicy,
    Simulation,
};
use mec_topology::{CloudletId, FailureDomainSet, NetworkBuilder, Reliability};
use mec_workload::{Horizon, Request, RequestGenerator, VnfCatalog};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::onsite::OnsiteGreedy;
use vnfrel::{OnlineScheduler, ProblemInstance};

const HORIZON: usize = 16;

/// A 4-cloudlet chain with two overlapping failure domains sharing
/// cloudlets 1 and 2 (an SRLG-style layout), plus a sampled workload.
fn scenario(seed: u64, mttf: f64, mttr: f64) -> (ProblemInstance, Vec<Request>, FailureProcess) {
    let mut b = NetworkBuilder::new();
    let mut prev = None;
    for i in 0..4 {
        let ap = b.add_ap(format!("ap{i}"));
        if let Some(p) = prev {
            b.add_link(p, ap, 1.0).unwrap();
        }
        prev = Some(ap);
        b.add_cloudlet(ap, 12, Reliability::new(0.999 - 1e-4 * i as f64).unwrap())
            .unwrap();
    }
    let inst = ProblemInstance::new(
        b.build().unwrap(),
        VnfCatalog::standard(),
        Horizon::new(HORIZON),
    )
    .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let requests = RequestGenerator::new(inst.horizon())
        .generate(40, inst.catalog(), &mut rng)
        .unwrap();
    let groups = vec![
        vec![CloudletId(0), CloudletId(1), CloudletId(2)],
        vec![CloudletId(1), CloudletId(2), CloudletId(3)],
    ];
    let domains = FailureDomainSet::from_groups(inst.network(), &groups, mttf, mttr).unwrap();
    let cascade = CascadeConfig {
        utilization_threshold: 0.5,
        hazard: 0.5,
        outage_slots: 2,
    };
    let mut frng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(0x5eed));
    let trace = FailureProcess::generate_with_domains(
        inst.network(),
        &FailureConfig {
            cloudlet_mttf: 8.0,
            cloudlet_mttr: 2.0,
            instance_kill_rate: 0.05,
        },
        &domains,
        Some(cascade),
        inst.horizon(),
        &mut frng,
    )
    .unwrap();
    (inst, requests, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Overlapping domains crash and repair in arbitrary interleavings
    /// (including back-to-back outages of domains sharing members);
    /// capacity must never be released twice: the run succeeds and the
    /// auditor reports zero ledger violations.
    #[test]
    fn overlapping_domain_outages_never_double_release(
        seed in 0u64..300,
        mttf in 2.0f64..6.0,
        mttr in 1.0f64..3.0,
    ) {
        let (inst, requests, trace) = scenario(seed, mttf, mttr);
        let sim = Simulation::new(&inst, &requests).unwrap();
        let mut g = OnsiteGreedy::new(&inst);
        let report = sim
            .run_faulted(
                &mut g,
                &trace,
                RecoveryPolicy::SchemeMatching,
                Some(&DegradationConfig::default()),
                &mut NoopSink,
            )
            .unwrap();
        let audit = report.audit.as_ref().expect("auditing on by default");
        prop_assert!(audit.is_clean(), "audit violations: {audit}");
        prop_assert_eq!(audit.slots_checked, HORIZON);
        // The scheduler's own books come back non-negative everywhere.
        for j in 0..4 {
            for t in 0..HORIZON {
                prop_assert!(g.ledger().used(CloudletId(j), t) >= -1e-9);
            }
        }
        // SLA accounting stays coherent under arbitrary overlap.
        for rec in &report.sla.records {
            prop_assert!(rec.recoveries <= rec.recovery_attempts);
            prop_assert!(rec.refund() <= rec.payment + 1e-9);
        }
    }

    /// The active set retires a request exactly one slot past its window:
    /// in every slot the engine counts as active precisely the admitted
    /// requests whose window covers it — outages, evictions and
    /// recoveries change a request's health, never its membership.
    #[test]
    fn active_count_is_the_admitted_windows_covering_the_slot(
        seed in 0u64..300,
        mttf in 2.0f64..6.0,
        degrade in 0u8..2,
    ) {
        let (inst, requests, trace) = scenario(seed, mttf, 2.0);
        let sim = Simulation::new(&inst, &requests).unwrap();
        let mut g = OnsiteGreedy::new(&inst);
        let config = DegradationConfig::default();
        let report = sim
            .run_faulted(
                &mut g,
                &trace,
                RecoveryPolicy::SchemeMatching,
                (degrade == 1).then_some(&config),
                &mut NoopSink,
            )
            .unwrap();
        for (t, stats) in report.timeline.iter().enumerate() {
            let covering = requests
                .iter()
                .filter(|r| report.schedule.is_admitted(r.id()))
                .filter(|r| r.arrival() <= t && t <= r.end_slot())
                .count();
            prop_assert_eq!(stats.active, covering, "slot {}", t);
        }
    }

    /// The same seeded replay fanned out with `parallel_map` returns
    /// bit-identical reports for every thread count, and matches the
    /// inline run: SchemeMatching recovery is schedule- and
    /// thread-independent.
    #[test]
    fn scheme_matching_recovery_is_thread_count_independent(seed in 0u64..150) {
        let (inst, requests, trace) = scenario(seed, 4.0, 2.0);
        let sim = Simulation::new(&inst, &requests).unwrap();
        let run = || {
            let mut g = OnsiteGreedy::new(&inst);
            sim.run_faulted(
                &mut g,
                &trace,
                RecoveryPolicy::SchemeMatching,
                Some(&DegradationConfig::default()),
                &mut NoopSink,
            )
            .unwrap()
        };
        let baseline = run();
        let replicas: Vec<usize> = (0..6).collect();
        for threads in [1usize, 2, 4, 7] {
            let reports = parallel::parallel_map(&replicas, threads, |_| run());
            for r in &reports {
                prop_assert_eq!(r, &baseline, "divergence at threads={}", threads);
            }
        }
    }
}
