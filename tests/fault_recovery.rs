//! Acceptance test of the dynamic failure-and-recovery subsystem: with
//! a fixed seed and a nonzero cloudlet outage rate, a fault-aware run
//! with recovery strictly reduces SLA-violated request-slots versus
//! [`RecoveryPolicy::None`] on the same event stream, for both backup
//! schemes — the claim checked into `results/failure_recovery.txt`.

use mec_obs::NoopSink;
use mec_sim::{FailureConfig, FailureProcess, RecoveryPolicy, Simulation};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::offsite::OffsitePrimalDual;
use vnfrel::onsite::{CapacityPolicy, OnsitePrimalDual};
use vnfrel::{OnlineScheduler, Scheme};
use vnfrel_bench::{Scenario, ScenarioParams};

/// Same outage parameters as the `failure_recovery` bin.
fn config() -> FailureConfig {
    FailureConfig {
        cloudlet_mttf: 6.0,
        cloudlet_mttr: 2.0,
        instance_kill_rate: 0.05,
    }
}

fn fault_run(
    scenario: &Scenario,
    trace: &FailureProcess,
    scheme: Scheme,
    policy: RecoveryPolicy,
) -> mec_sim::FaultRunReport {
    let sim = Simulation::new(&scenario.instance, &scenario.requests).unwrap();
    let mut scheduler: Box<dyn OnlineScheduler> = match scheme {
        Scheme::OnSite => {
            Box::new(OnsitePrimalDual::new(&scenario.instance, CapacityPolicy::Enforce).unwrap())
        }
        Scheme::OffSite => Box::new(OffsitePrimalDual::new(&scenario.instance)),
    };
    sim.run_faulted(scheduler.as_mut(), trace, policy, None, &mut NoopSink)
        .unwrap()
}

#[test]
fn recovery_strictly_reduces_violated_slots_for_both_schemes() {
    let scenario = Scenario::build(&ScenarioParams {
        requests: 200,
        seed: 1,
        ..ScenarioParams::default()
    });
    let trace = FailureProcess::generate(
        scenario.instance.network(),
        &config(),
        scenario.instance.horizon(),
        &mut ChaCha8Rng::seed_from_u64(7001),
    )
    .unwrap();
    assert!(trace.total_events() > 0, "outage trace is empty");

    for scheme in [Scheme::OnSite, Scheme::OffSite] {
        let none = fault_run(&scenario, &trace, scheme, RecoveryPolicy::None);
        assert!(
            none.sla.total_failures() > 0,
            "{scheme:?}: no placement ever failed — the comparison is vacuous"
        );
        assert!(none.sla.violated_request_slots() > 0);
        assert_eq!(none.sla.total_recoveries(), 0);

        let recovered = fault_run(&scenario, &trace, scheme, RecoveryPolicy::SchemeMatching);
        assert!(
            recovered.sla.violated_request_slots() < none.sla.violated_request_slots(),
            "{scheme:?}: recovery did not strictly reduce violated slots ({} vs {})",
            recovered.sla.violated_request_slots(),
            none.sla.violated_request_slots()
        );
        assert!(recovered.sla.total_recoveries() > 0);
        assert!(
            recovered.sla.revenue_retained() > none.sla.revenue_retained(),
            "{scheme:?}: recovery should retain more revenue"
        );
    }
}

#[test]
fn fault_runs_never_oversubscribe_capacity() {
    // Releases and recovery charges must keep the ledger within the
    // static caps throughout — max_overflow is recomputed from the
    // ledger's own high-water marks.
    let scenario = Scenario::build(&ScenarioParams {
        requests: 250,
        seed: 2,
        ..ScenarioParams::default()
    });
    let trace = FailureProcess::generate(
        scenario.instance.network(),
        &config(),
        scenario.instance.horizon(),
        &mut ChaCha8Rng::seed_from_u64(7002),
    )
    .unwrap();
    let sim = Simulation::new(&scenario.instance, &scenario.requests).unwrap();
    for policy in [
        RecoveryPolicy::None,
        RecoveryPolicy::OnSite,
        RecoveryPolicy::OffSite,
        RecoveryPolicy::SchemeMatching,
    ] {
        let mut alg = OnsitePrimalDual::new(&scenario.instance, CapacityPolicy::Enforce).unwrap();
        let _ = sim
            .run_faulted(&mut alg, &trace, policy, None, &mut NoopSink)
            .unwrap();
        assert_eq!(
            alg.ledger().max_overflow(),
            0.0,
            "{policy}: fault run oversubscribed a cloudlet"
        );
    }
}

#[test]
fn sla_accounting_conserves_revenue() {
    // retained + refunded must equal the gross revenue of admitted
    // requests, record by record and in aggregate.
    let scenario = Scenario::build(&ScenarioParams {
        requests: 150,
        seed: 3,
        ..ScenarioParams::default()
    });
    let trace = FailureProcess::generate(
        scenario.instance.network(),
        &config(),
        scenario.instance.horizon(),
        &mut ChaCha8Rng::seed_from_u64(7003),
    )
    .unwrap();
    for scheme in [Scheme::OnSite, Scheme::OffSite] {
        let report = fault_run(&scenario, &trace, scheme, RecoveryPolicy::SchemeMatching);
        for rec in &report.sla.records {
            assert!((rec.retained() + rec.refund() - rec.payment).abs() < 1e-9);
            assert!(rec.refund() >= 0.0 && rec.refund() <= rec.payment + 1e-9);
            assert!(rec.downtime_slots <= rec.duration);
            assert!(rec.recoveries <= rec.recovery_attempts);
            assert!(rec.recoveries <= rec.failures);
        }
        let gross = report.metrics.revenue;
        assert!(
            (report.sla.revenue_retained() + report.sla.revenue_refunded() - gross).abs() < 1e-6,
            "{scheme:?}: retained + refunded != gross revenue"
        );
        assert_eq!(report.sla.records.len(), report.metrics.admitted);
    }
}
