//! **Table C (robustness)**: SLA outcomes under dynamic cloudlet outages
//! and instance deaths — no-recovery vs online recovery, both schemes.
//!
//! Run with: `cargo run --release -p vnfrel-bench --bin failure_recovery [--quick]`
//!
//! For each seed, ONE outage trace is generated from the topology alone
//! and replayed against every (scheme, policy) combination, so every row
//! of a scheme block faces the identical failures. Recovery must
//! strictly reduce SLA-violated request-slots versus `none` — that
//! assertion is enforced here and in `tests/fault_recovery.rs`.
//!
//! Output is printed and written to `results/failure_recovery.txt`.

use std::fmt::Write as _;

use mec_obs::NoopSink;
use mec_sim::{FailureConfig, FailureProcess, RecoveryPolicy, Simulation};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::offsite::OffsitePrimalDual;
use vnfrel::onsite::{CapacityPolicy, OnsitePrimalDual};
use vnfrel::{OnlineScheduler, Scheme};
use vnfrel_bench::{note, quiet_from_args, Scenario, ScenarioParams};

/// Aggregated SLA outcome of one (scheme, policy) cell across seeds.
#[derive(Debug, Default, Clone, Copy)]
struct Agg {
    admitted: usize,
    violated: usize,
    failures: usize,
    recoveries: usize,
    latency: usize,
    unrecovered: usize,
    retained: f64,
    refunded: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let quiet = quiet_from_args();
    let (requests, seeds): (usize, Vec<u64>) = if quick {
        (150, vec![1])
    } else {
        (300, vec![1, 2, 3])
    };
    // The bench horizon is 16 slots; an MTTF of 6 makes each cloudlet
    // crash ~2–3 times per run so recovery has real work to do.
    let config = FailureConfig {
        cloudlet_mttf: 6.0,
        cloudlet_mttr: 2.0,
        instance_kill_rate: 0.05,
    };
    let policies = [
        RecoveryPolicy::None,
        RecoveryPolicy::OnSite,
        RecoveryPolicy::OffSite,
        RecoveryPolicy::SchemeMatching,
    ];

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table C — SLA under dynamic outages ({requests} requests, seeds {seeds:?}, \
         mttf {} mttr {} kill-rate {})\n",
        config.cloudlet_mttf, config.cloudlet_mttr, config.instance_kill_rate
    );
    let _ = writeln!(
        out,
        "{:>9} {:>18} {:>9} {:>9} {:>9} {:>10} {:>8} {:>8} {:>11} {:>11}",
        "scheme",
        "policy",
        "admitted",
        "violated",
        "failures",
        "recovered",
        "rate%",
        "latency",
        "retained",
        "refunded"
    );

    for scheme in [Scheme::OnSite, Scheme::OffSite] {
        let mut cells = [Agg::default(); 4];
        for &seed in &seeds {
            let scenario = Scenario::build(&ScenarioParams {
                requests,
                seed,
                ..ScenarioParams::default()
            });
            let sim = Simulation::new(&scenario.instance, &scenario.requests).expect("valid");
            // One trace per seed, shared by every policy and both schemes.
            let trace = FailureProcess::generate(
                scenario.instance.network(),
                &config,
                scenario.instance.horizon(),
                &mut ChaCha8Rng::seed_from_u64(seed.wrapping_add(7000)),
            )
            .expect("valid config");
            for (cell, &policy) in cells.iter_mut().zip(&policies) {
                let mut scheduler: Box<dyn OnlineScheduler> = match scheme {
                    Scheme::OnSite => Box::new(
                        OnsitePrimalDual::new(&scenario.instance, CapacityPolicy::Enforce).unwrap(),
                    ),
                    Scheme::OffSite => Box::new(OffsitePrimalDual::new(&scenario.instance)),
                };
                let report = sim
                    .run_faulted(scheduler.as_mut(), &trace, policy, None, &mut NoopSink)
                    .expect("fault run");
                cell.admitted += report.metrics.admitted;
                cell.violated += report.sla.violated_request_slots();
                cell.failures += report.sla.total_failures();
                cell.recoveries += report.sla.total_recoveries();
                cell.latency += report
                    .sla
                    .records
                    .iter()
                    .map(|r| r.repair_latency_slots)
                    .sum::<usize>();
                cell.unrecovered += report.sla.unrecovered_requests();
                cell.retained += report.sla.revenue_retained();
                cell.refunded += report.sla.revenue_refunded();
            }
        }
        for (cell, policy) in cells.iter().zip(&policies) {
            let rate = if cell.failures == 0 {
                100.0
            } else {
                100.0 * cell.recoveries as f64 / cell.failures as f64
            };
            let latency = if cell.recoveries == 0 {
                f64::NAN
            } else {
                cell.latency as f64 / cell.recoveries as f64
            };
            let _ = writeln!(
                out,
                "{:>9} {:>18} {:>9} {:>9} {:>9} {:>10} {:>8.1} {:>8.2} {:>11.2} {:>11.2}",
                match scheme {
                    Scheme::OnSite => "on-site",
                    Scheme::OffSite => "off-site",
                },
                policy.to_string(),
                cell.admitted,
                cell.violated,
                cell.failures,
                cell.recoveries,
                rate,
                latency,
                cell.retained,
                cell.refunded
            );
        }
        let none = cells[0];
        assert!(
            none.failures > 0,
            "outage rate produced no failures; the comparison is vacuous"
        );
        for (cell, policy) in cells.iter().zip(&policies).skip(1) {
            assert!(
                cell.violated < none.violated,
                "{scheme:?}/{policy}: recovery must strictly reduce violated request-slots \
                 ({} vs {} with none)",
                cell.violated,
                none.violated
            );
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "every recovery policy strictly reduces SLA-violated request-slots vs none, \
         on the same outage trace, for both schemes."
    );

    print!("{out}");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/failure_recovery.txt"
    );
    std::fs::write(path, &out).expect("write results/failure_recovery.txt");
    note(quiet, format!("wrote {path}"));
}
