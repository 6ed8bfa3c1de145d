//! Failure injection, two ways.
//!
//! Part 1 — **static Monte-Carlo**: verify that the reliability the
//! schedulers *promise* is the reliability users actually *receive* when
//! cloudlets and VNF instances fail at their modeled rates.
//!
//! Part 2 — **dynamic fault-and-recovery walkthrough**: replay one
//! seeded outage trace (cloudlet crashes/repairs plus instance deaths)
//! through `Simulation::run_faulted`, first with no recovery and
//! then with scheme-matching re-placement, and compare the SLA ledgers.
//!
//! Run with: `cargo run --example failure_injection`

use mec_obs::NoopSink;
use mec_sim::{failure, FailureConfig, FailureProcess, RecoveryPolicy, Simulation};
use mec_topology::generators::{self, CloudletPlacement};
use mec_workload::{Horizon, RequestGenerator, VnfCatalog};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::offsite::OffsitePrimalDual;
use vnfrel::onsite::{CapacityPolicy, OnsitePrimalDual};
use vnfrel::ProblemInstance;

const TRIALS: usize = 50_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let placement = CloudletPlacement {
        fraction: 0.8,
        capacity: (30, 50),
        reliability: (0.98, 0.9999),
    };
    let network = generators::barabasi_albert(12, 2, &placement, &mut rng)?;
    let instance = ProblemInstance::new(network, VnfCatalog::standard(), Horizon::new(24))?;
    let requests = RequestGenerator::new(instance.horizon())
        .reliability_band(0.9, 0.97)?
        .generate(150, instance.catalog(), &mut rng)?;
    let sim = Simulation::new(&instance, &requests)?;

    for scheme in ["on-site", "off-site"] {
        let (schedule, name) = match scheme {
            "on-site" => {
                let mut alg = OnsitePrimalDual::new(&instance, CapacityPolicy::Enforce)?;
                (sim.run(&mut alg)?.schedule, "algorithm 1")
            }
            _ => {
                let mut alg = OffsitePrimalDual::new(&instance);
                (sim.run(&mut alg)?.schedule, "algorithm 2")
            }
        };
        let report = failure::inject_failures(&instance, &requests, &schedule, TRIALS, &mut rng)?;
        let worst = report.worst_margin().unwrap_or(f64::NAN);
        let violations = report.statistical_violations(3.0);
        println!(
            "{scheme} ({name}): {} admitted, {} trials, worst margin {:+.4}, statistical violations: {}",
            report.requests.len(),
            report.trials,
            worst,
            violations.len()
        );
        // Show the three tightest requests.
        let mut sorted = report.requests.clone();
        sorted.sort_by(|a, b| a.margin().partial_cmp(&b.margin()).expect("finite"));
        for r in sorted.iter().take(3) {
            println!(
                "  {}: required {:.4}, measured {:.4} (±{:.4})",
                r.request,
                r.required,
                r.measured,
                r.standard_error()
            );
        }
        assert!(
            violations.is_empty(),
            "{scheme}: delivered availability below requirement"
        );
    }
    println!("\nall admitted requests meet their reliability requirements empirically");

    // ── Part 2: dynamic outages with online recovery ────────────────────
    //
    // The static check above assumes placements persist for a request's
    // whole lifetime. Now cloudlets actually go down mid-run: generate a
    // schedule-independent outage trace from the topology alone, then
    // replay the *same* trace with and without recovery.
    let config = FailureConfig {
        cloudlet_mttf: 8.0,
        cloudlet_mttr: 2.0,
        instance_kill_rate: 0.05,
    };
    let trace = FailureProcess::generate(
        instance.network(),
        &config,
        instance.horizon(),
        &mut ChaCha8Rng::seed_from_u64(7),
    )?;
    println!(
        "\ndynamic outage trace: {} events over {} slots (mttf {}, mttr {}, kill rate {})",
        trace.total_events(),
        instance.horizon().len(),
        config.cloudlet_mttf,
        config.cloudlet_mttr,
        config.instance_kill_rate
    );

    let mut reports = Vec::new();
    for policy in [RecoveryPolicy::None, RecoveryPolicy::SchemeMatching] {
        let mut alg = OnsitePrimalDual::new(&instance, CapacityPolicy::Enforce)?;
        let report = sim.run_faulted(&mut alg, &trace, policy, None, &mut NoopSink)?;
        println!(
            "policy {policy}: {} | recovered {}/{} failures, mean repair latency {}",
            report.sla,
            report.sla.total_recoveries(),
            report.sla.total_failures(),
            report
                .sla
                .mean_repair_latency()
                .map_or("n/a".into(), |l| format!("{l:.2} slots")),
        );
        reports.push(report);
    }
    let (none, matching) = (&reports[0].sla, &reports[1].sla);
    assert!(
        matching.violated_request_slots() <= none.violated_request_slots(),
        "recovery made the SLA ledger worse"
    );
    println!(
        "recovery cut violated request-slots {} -> {} and refunds {:.2} -> {:.2}",
        none.violated_request_slots(),
        matching.violated_request_slots(),
        none.revenue_refunded(),
        matching.revenue_refunded()
    );
    Ok(())
}
