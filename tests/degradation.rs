//! Acceptance test of the correlated-failure and graceful-degradation
//! subsystem: under a seeded correlated-outage scenario (zone-partition
//! failure domains plus a cascade overlay, the parameters of the
//! `correlated_failures` bin), graceful degradation yields strictly
//! fewer SLA-violated request-slots and strictly more retained revenue
//! than [`RecoveryPolicy::None`] on the same event stream, for both
//! backup schemes, and the runtime invariant auditor reports zero
//! violations — the claims checked into `results/correlated_failures.txt`.

use mec_obs::{NoopSink, TripwireSink};
use mec_sim::{
    CascadeConfig, DegradationConfig, FailureConfig, FailureProcess, RecoveryPolicy, Simulation,
};
use mec_topology::FailureDomainSet;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::offsite::OffsitePrimalDual;
use vnfrel::onsite::{CapacityPolicy, OnsitePrimalDual};
use vnfrel::{OnlineScheduler, Scheme};
use vnfrel_bench::{Scenario, ScenarioParams};

/// Same parameters as the `correlated_failures` bin.
fn config() -> FailureConfig {
    FailureConfig {
        cloudlet_mttf: 12.0,
        cloudlet_mttr: 2.0,
        instance_kill_rate: 0.05,
    }
}

fn cascade() -> CascadeConfig {
    CascadeConfig {
        utilization_threshold: 0.5,
        hazard: 0.5,
        outage_slots: 2,
    }
}

fn correlated_trace(scenario: &Scenario, fseed: u64) -> FailureProcess {
    let domains = FailureDomainSet::zones(scenario.instance.network(), 3, 6.0, 2.0).unwrap();
    FailureProcess::generate_with_domains(
        scenario.instance.network(),
        &config(),
        &domains,
        Some(cascade()),
        scenario.instance.horizon(),
        &mut ChaCha8Rng::seed_from_u64(fseed),
    )
    .unwrap()
}

fn scheduler_for<'a>(scheme: Scheme, scenario: &'a Scenario) -> Box<dyn OnlineScheduler + 'a> {
    match scheme {
        Scheme::OnSite => {
            Box::new(OnsitePrimalDual::new(&scenario.instance, CapacityPolicy::Enforce).unwrap())
        }
        Scheme::OffSite => Box::new(OffsitePrimalDual::new(&scenario.instance)),
    }
}

#[test]
fn degradation_beats_no_recovery_on_correlated_traces_for_both_schemes() {
    let scenario = Scenario::build(&ScenarioParams {
        requests: 150,
        seed: 1,
        ..ScenarioParams::default()
    });
    let trace = correlated_trace(&scenario, 9001);
    assert!(
        trace.total_domain_events() > 0,
        "no domain-level outage in the sampled trace"
    );
    let sim = Simulation::new(&scenario.instance, &scenario.requests).unwrap();

    for scheme in [Scheme::OnSite, Scheme::OffSite] {
        let mut s = scheduler_for(scheme, &scenario);
        let none = sim
            .run_faulted(
                s.as_mut(),
                &trace,
                RecoveryPolicy::None,
                None,
                &mut NoopSink,
            )
            .unwrap();
        assert!(
            none.sla.total_failures() > 0,
            "{scheme:?}: correlated outages broke nothing — vacuous comparison"
        );

        let mut s = scheduler_for(scheme, &scenario);
        let degraded = sim
            .run_faulted(
                s.as_mut(),
                &trace,
                RecoveryPolicy::SchemeMatching,
                Some(&DegradationConfig::default()),
                &mut NoopSink,
            )
            .unwrap();
        assert!(
            degraded.sla.violated_request_slots() < none.sla.violated_request_slots(),
            "{scheme:?}: degradation did not strictly reduce violated slots ({} vs {})",
            degraded.sla.violated_request_slots(),
            none.sla.violated_request_slots()
        );
        assert!(
            degraded.sla.revenue_retained() > none.sla.revenue_retained(),
            "{scheme:?}: degradation did not strictly increase retained revenue \
             ({:.2} vs {:.2})",
            degraded.sla.revenue_retained(),
            none.sla.revenue_retained()
        );
        let audit = degraded.audit.as_ref().expect("auditing on by default");
        assert!(
            audit.is_clean(),
            "{scheme:?}: invariant auditor reported violations: {audit}"
        );
        assert_eq!(audit.slots_checked, scenario.instance.horizon().len());
        assert!(degraded.degradation.unwrap().degraded_slots > 0);

        // The same faulted, degraded run with a sink that is disabled
        // like `NoopSink` but panics when reached: every lifecycle hook
        // of the fault loop (outage, breach, recovery, eviction, cascade,
        // degraded-mode, audit) must sit behind `K::ENABLED`.
        let mut s = scheduler_for(scheme, &scenario);
        let tripwired = sim
            .run_faulted(
                s.as_mut(),
                &trace,
                RecoveryPolicy::SchemeMatching,
                Some(&DegradationConfig::default()),
                &mut TripwireSink,
            )
            .unwrap();
        assert_eq!(tripwired, degraded);
    }
}

#[test]
fn domain_outages_take_members_down_atomically() {
    // Every domain-down marker in the sampled stream is mirrored by net
    // CloudletDown transitions covering each member that was still up —
    // replaying cloudlet events alone reconstructs the same fleet state.
    let scenario = Scenario::build(&ScenarioParams {
        requests: 50,
        seed: 2,
        ..ScenarioParams::default()
    });
    let trace = correlated_trace(&scenario, 9002);
    let m = scenario.instance.network().cloudlets().count();
    let mut up = vec![true; m];
    for t in 0..trace.horizon_len() {
        let mut down_this_slot: Vec<usize> = Vec::new();
        for e in trace.events_at(t) {
            match e {
                mec_sim::FailureEvent::CloudletDown { cloudlet, .. } => {
                    up[*cloudlet] = false;
                    down_this_slot.push(*cloudlet);
                }
                mec_sim::FailureEvent::CloudletUp { cloudlet, .. } => up[*cloudlet] = true,
                mec_sim::FailureEvent::InstanceKill { .. } => {}
            }
        }
        for d in trace.domain_events_at(t) {
            if let mec_sim::DomainEvent::Down { domain, .. } = d {
                for &j in trace.domain_members(*domain) {
                    assert!(
                        !up[j] || down_this_slot.contains(&j),
                        "slot {t}: domain {domain} crashed but member {j} stayed up"
                    );
                }
            }
        }
    }
}

#[test]
fn degraded_replay_is_deterministic() {
    let scenario = Scenario::build(&ScenarioParams {
        requests: 100,
        seed: 3,
        ..ScenarioParams::default()
    });
    let trace = correlated_trace(&scenario, 9003);
    let sim = Simulation::new(&scenario.instance, &scenario.requests).unwrap();
    let run = || {
        let mut s = scheduler_for(Scheme::OnSite, &scenario);
        sim.run_faulted(
            s.as_mut(),
            &trace,
            RecoveryPolicy::SchemeMatching,
            Some(&DegradationConfig::default()),
            &mut NoopSink,
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}
