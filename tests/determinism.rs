//! Reproducibility: identical seeds must give bit-identical topologies,
//! workloads, schedules, and sweep tables — the property every
//! experiment in EXPERIMENTS.md relies on.

use mec_obs::NoopSink;
use mec_sim::Simulation;
use mec_topology::generators::{self, CloudletPlacement};
use mec_workload::{Horizon, RequestGenerator, VnfCatalog};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::offsite::OffsitePrimalDual;
use vnfrel::onsite::{CapacityPolicy, OnsitePrimalDual};
use vnfrel::ProblemInstance;
use vnfrel_bench::{Scenario, ScenarioParams};

#[test]
fn identical_seeds_identical_schedules() {
    let run = |seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let placement = CloudletPlacement {
            fraction: 0.6,
            capacity: (20, 40),
            reliability: (0.99, 0.9999),
        };
        let net = generators::waxman(15, 0.5, 0.3, &placement, &mut rng).unwrap();
        let instance = ProblemInstance::new(net, VnfCatalog::standard(), Horizon::new(12)).unwrap();
        let reqs = RequestGenerator::new(instance.horizon())
            .generate(80, instance.catalog(), &mut rng)
            .unwrap();
        let sim = Simulation::new(&instance, &reqs).unwrap();
        let mut alg1 = OnsitePrimalDual::new(&instance, CapacityPolicy::Enforce).unwrap();
        let r1 = sim.run(&mut alg1).unwrap();
        let mut alg2 = OffsitePrimalDual::new(&instance);
        let r2 = sim.run(&mut alg2).unwrap();
        (
            r1.schedule,
            r2.schedule,
            r1.metrics.revenue,
            r2.metrics.revenue,
        )
    };
    let a = run(5150);
    let b = run(5150);
    assert_eq!(a.0, b.0, "on-site schedules differ across identical runs");
    assert_eq!(a.1, b.1, "off-site schedules differ across identical runs");
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);

    let c = run(5151);
    // Different seeds should (overwhelmingly) give different outcomes.
    assert!(
        a.2 != c.2 || a.3 != c.3,
        "different seeds gave identical revenue"
    );
}

#[test]
fn scenario_harness_is_deterministic() {
    let params = ScenarioParams {
        requests: 120,
        h_ratio: 3.0,
        k_ratio: 1.05,
        seed: 42,
    };
    let s1 = Scenario::build(&params);
    let s2 = Scenario::build(&params);
    assert_eq!(s1.requests, s2.requests);
    assert_eq!(s1.alg1_revenue(), s2.alg1_revenue());
    assert_eq!(s1.alg2_revenue(), s2.alg2_revenue());
    assert_eq!(s1.greedy_onsite_revenue(), s2.greedy_onsite_revenue());
    assert_eq!(s1.greedy_offsite_revenue(), s2.greedy_offsite_revenue());
}

#[test]
fn identical_seeds_identical_failure_streams_and_recovery() {
    use mec_sim::{FailureConfig, FailureProcess, RecoveryPolicy};

    let config = FailureConfig {
        cloudlet_mttf: 5.0,
        cloudlet_mttr: 2.0,
        instance_kill_rate: 0.1,
    };
    let run = |trace_seed: u64| {
        let scenario = Scenario::build(&ScenarioParams {
            requests: 100,
            seed: 21,
            ..ScenarioParams::default()
        });
        let trace = FailureProcess::generate(
            scenario.instance.network(),
            &config,
            scenario.instance.horizon(),
            &mut ChaCha8Rng::seed_from_u64(trace_seed),
        )
        .unwrap();
        // The event stream is schedule-independent: collect it before
        // any scheduler sees it.
        let events: Vec<_> = trace.iter().cloned().collect();
        let sim = Simulation::new(&scenario.instance, &scenario.requests).unwrap();
        let mut on = OnsitePrimalDual::new(&scenario.instance, CapacityPolicy::Enforce).unwrap();
        let r_on = sim
            .run_faulted(
                &mut on,
                &trace,
                RecoveryPolicy::SchemeMatching,
                None,
                &mut NoopSink,
            )
            .unwrap();
        let mut off = OffsitePrimalDual::new(&scenario.instance);
        let r_off = sim
            .run_faulted(
                &mut off,
                &trace,
                RecoveryPolicy::SchemeMatching,
                None,
                &mut NoopSink,
            )
            .unwrap();
        (events, r_on, r_off)
    };
    let a = run(77);
    let b = run(77);
    assert_eq!(
        a.0, b.0,
        "failure event streams differ across identical seeds"
    );
    assert_eq!(
        a.1, b.1,
        "on-site recovery outcomes differ across identical seeds"
    );
    assert_eq!(
        a.2, b.2,
        "off-site recovery outcomes differ across identical seeds"
    );

    let c = run(78);
    assert!(
        a.0 != c.0 || a.0.is_empty(),
        "different trace seeds gave identical event streams"
    );
}

#[test]
fn sweep_tables_are_reproducible() {
    let t1 = vnfrel_bench::fig2b_sweep(&[1.0, 1.08], 60, &[7, 8], 1);
    let t2 = vnfrel_bench::fig2b_sweep(&[1.0, 1.08], 60, &[7, 8], 1);
    assert_eq!(t1, t2);
}

#[test]
fn sweep_tables_are_thread_count_invariant() {
    // The parallel fan-out must not change any figure table: the serial
    // path is the reference, and 4 workers with the ordered merge must
    // reproduce it bit for bit.
    let serial = vnfrel_bench::fig1_sweep(vnfrel::Scheme::OnSite, &[20, 40], &[3, 4], false, 1, 1);
    let threaded =
        vnfrel_bench::fig1_sweep(vnfrel::Scheme::OnSite, &[20, 40], &[3, 4], false, 1, 4);
    assert_eq!(serial, threaded, "fig1 table depends on thread count");

    let serial = vnfrel_bench::fig2a_sweep(&[1.0, 6.0], 40, &[3, 4], 1);
    let threaded = vnfrel_bench::fig2a_sweep(&[1.0, 6.0], 40, &[3, 4], 4);
    assert_eq!(serial, threaded, "fig2a table depends on thread count");

    let serial = vnfrel_bench::fig2b_sweep(&[1.0, 1.08], 40, &[3, 4], 1);
    let threaded = vnfrel_bench::fig2b_sweep(&[1.0, 1.08], 40, &[3, 4], 4);
    assert_eq!(serial, threaded, "fig2b table depends on thread count");

    let (on1, off1) = vnfrel_bench::fig1_both_sweep(&[20, 40], &[3, 4], 1);
    let (on4, off4) = vnfrel_bench::fig1_both_sweep(&[20, 40], &[3, 4], 4);
    assert_eq!(on1, on4);
    assert_eq!(off1, off4);
}

#[test]
fn monte_carlo_injection_is_thread_count_invariant() {
    use mec_sim::failure::{inject_failures_parallel, FailureReport};
    use vnfrel::run_online;

    let scenario = Scenario::build(&ScenarioParams {
        requests: 80,
        seed: 9,
        ..ScenarioParams::default()
    });
    let mut alg1 = OnsitePrimalDual::new(&scenario.instance, CapacityPolicy::Enforce).unwrap();
    let schedule = run_online(&mut alg1, &scenario.requests).unwrap();
    let run = |threads: usize| -> FailureReport {
        inject_failures_parallel(
            &scenario.instance,
            &scenario.requests,
            &schedule,
            2_000,
            123,
            threads,
            None,
        )
        .unwrap()
    };
    let serial = run(1);
    for threads in [2, 4] {
        assert_eq!(
            serial,
            run(threads),
            "MC failure report depends on thread count ({threads})"
        );
    }
}
