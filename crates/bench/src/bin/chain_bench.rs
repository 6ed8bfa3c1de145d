//! **Chain benchmark**: shared vs dedicated vs no-backup provisioning
//! for service function chains at equal capacity.
//!
//! Run with: `cargo run --release -p vnfrel-bench --bin chain_bench [--quick]`
//!
//! Every load point builds one Abilene scenario (same topology, same
//! capacities, same chain stream for every mode — "equal capacity" is
//! literal) and runs the chain primal-dual under the three backup modes,
//! plus the most-reliable-first greedy as a context baseline. Admitted
//! chains from every mode then face the Monte-Carlo chain referee:
//! delivered availability must meet each chain's requirement within
//! binomial noise (z = 3).
//!
//! The run **asserts** the headline claim of the sharing design — at
//! equal capacity, shared backups Pareto-beat dedicated backups in
//! aggregate (no worse on admissions and revenue, strictly better on at
//! least one), with zero referee violations in every mode — so
//! regressions fail the binary, not just the table.
//!
//! Last, it times what the repository benchmark's `chain_mixed` workload
//! times — `MixedSimulation::run` over a merged singles + chains stream,
//! once per backup mode — so this artifact carries a decisions-per-second
//! figure next to the admissions it was bought with.
//!
//! Output goes to stdout, `results/chain_sharing.txt` (human table, no
//! timings: it is byte-stable) and `results/BENCH_chain.json` (schema
//! `bench_chain/v2`: v1 plus the `throughput` block).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use mec_obs::NoopSink;
use mec_sim::{inject_chain_failures, MixedSimulation};
use mec_topology::generators::CloudletPlacement;
use mec_topology::zoo;
use mec_workload::{ChainGenerator, ChainRequest, Horizon};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::chain::{run_chain_online, BackupMode, ChainGreedy, ChainPrimalDual, ChainScheduler};
use vnfrel::ProblemInstance;
use vnfrel_bench::{note, protection_hungry_catalog, quiet_from_args, MixedScenario};

/// z-score for the referee's statistical-violation test (≈ 3σ).
const Z: f64 = 3.0;
/// Per-standby subscriber failure-mass cap ε. Looser than the library
/// default (0.05) so mid-reliability VNFs (masses 0.03–0.08 at one
/// replica) can actually co-subscribe; the certificate's contention
/// discount `1 − ε` and the Monte-Carlo referee keep the admissions
/// honest.
const MASS_CAP: f64 = 0.10;

/// One experiment instance: Abilene with cloudlets on 3/4 of the APs,
/// capacities tight enough that provisioning compute converts into
/// admissions, and a protection-hungry catalog — mid-reliability,
/// high-compute VNFs whose stages cannot meet chain targets with one
/// replica, so every mode has to spend compute on protection (replicas
/// or standbys) and the standby footprint is what separates the modes.
fn build_instance(seed: u64) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let placement = CloudletPlacement {
        fraction: 0.75,
        capacity: (12, 18),
        reliability: (0.99, 0.9999),
    };
    let network = zoo::abilene()
        .into_network(&placement, &mut rng)
        .expect("abilene materializes");
    ProblemInstance::new(network, protection_hungry_catalog(), Horizon::new(16))
        .expect("valid instance")
}

struct ModeOutcome {
    admitted: usize,
    revenue: f64,
    standbys: usize,
    standby_compute: f64,
    worst_margin: f64,
    violations: usize,
}

fn run_mode(
    instance: &ProblemInstance,
    chains: &[ChainRequest],
    mode: BackupMode,
    trials: usize,
    seed: u64,
) -> ModeOutcome {
    let mut alg = ChainPrimalDual::with_mass_cap(instance, mode, MASS_CAP, NoopSink);
    let schedule = run_chain_online(&mut alg, chains).expect("valid chain stream");
    assert_eq!(
        alg.ledger().max_overflow(),
        0.0,
        "{} overflowed capacity",
        mode.as_str()
    );
    let standbys = alg.pool().standby_count();
    let standby_compute = alg.pool().charged_compute_slots();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc4a1_0000);
    let report = inject_chain_failures(instance, chains, &schedule, trials, &mut rng)
        .expect("referee accepts the schedule")
        .availability;
    ModeOutcome {
        admitted: schedule.admitted_count(),
        revenue: schedule.revenue(),
        standbys,
        standby_compute,
        worst_margin: report.worst_margin().unwrap_or(f64::INFINITY),
        violations: report.statistical_violations(Z).len(),
    }
}

fn greedy_outcome(instance: &ProblemInstance, chains: &[ChainRequest]) -> (usize, f64) {
    let mut alg = ChainGreedy::new(instance);
    let schedule = run_chain_online(&mut alg, chains).expect("valid chain stream");
    (schedule.admitted_count(), schedule.revenue())
}

/// Slots and chains of the throughput scenario: the benchmark's density
/// (about three chains and six singles per slot) on half its horizon.
const THROUGHPUT_SLOTS: usize = 1_008;
const THROUGHPUT_CHAINS: usize = 3_072;

/// Median decisions per second of `MixedSimulation::run` over `reps`
/// fresh schedulers in `mode` (library-default ε, as the benchmark).
fn mixed_throughput(scenario: &MixedScenario, mode: BackupMode, reps: usize) -> f64 {
    let sim = MixedSimulation::new(&scenario.instance, &scenario.singles, &scenario.chains)
        .expect("valid mixed streams");
    let decisions = (scenario.singles.len() + scenario.chains.len()) as f64;
    let mut rates: Vec<f64> = (0..reps)
        .map(|_| {
            let mut alg = ChainPrimalDual::new(&scenario.instance, mode);
            let start = Instant::now();
            let report = black_box(sim.run(&mut alg));
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(report.max_overflow, 0.0, "{} overflowed", mode.as_str());
            decisions / elapsed
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let quiet = quiet_from_args();
    let (loads, seeds, trials) = if quick {
        (vec![150, 300], vec![1u64], 4_000)
    } else {
        (vec![150, 300, 450, 600], vec![1u64, 2, 3], 20_000)
    };

    note(
        quiet,
        "Chain provisioning — shared vs dedicated vs no-backup at equal capacity\n",
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chain sharing benchmark (Abilene, {} seed(s)/point, {trials} MC trials, z = {Z})",
        seeds.len()
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>7} {:>8} | {:>9} {:>10} | {:>9} {:>10} {:>9} | {:>9} {:>10} {:>9} {:>9} | {:>10}",
        "chains",
        "seed",
        "none adm",
        "none rev",
        "ded adm",
        "ded rev",
        "ded stby",
        "shr adm",
        "shr rev",
        "shr stby",
        "shr slot",
        "greedy adm"
    );

    let mut json_rows = String::new();
    let mut total = [(0usize, 0.0f64); 3]; // none, dedicated, shared
    let mut shared_ge_dedicated_everywhere = true;
    let mut worst_margin = f64::INFINITY;
    let mut total_violations = 0usize;

    for &n in &loads {
        for &seed in &seeds {
            let instance = build_instance(seed);
            // Chains come from a dedicated RNG stream so the workload is
            // identical across modes.
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (n as u64) << 8);
            let chains = ChainGenerator::new(instance.horizon(), instance.network().ap_count())
                .length_band(1, 3)
                .expect("band")
                .reliability_band(0.93, 0.97)
                .expect("band")
                .latency_budget_band(3.0, 12.0)
                .expect("band")
                .payment_rate_band(1.0, 10.0)
                .expect("band")
                .generate(n, instance.catalog(), &mut rng)
                .expect("workload");

            let modes = [BackupMode::None, BackupMode::Dedicated, BackupMode::Shared];
            let outcomes: Vec<ModeOutcome> = modes
                .iter()
                .map(|&m| run_mode(&instance, &chains, m, trials, seed))
                .collect();
            let (greedy_adm, greedy_rev) = greedy_outcome(&instance, &chains);

            for (o, slot) in outcomes.iter().zip(&mut total) {
                slot.0 += o.admitted;
                slot.1 += o.revenue;
                worst_margin = worst_margin.min(o.worst_margin);
            }
            // The referee must be clean in *every* mode, not just the two
            // backed ones.
            total_violations += outcomes.iter().map(|o| o.violations).sum::<usize>();
            let (none, ded, shr) = (&outcomes[0], &outcomes[1], &outcomes[2]);
            if shr.admitted < ded.admitted {
                shared_ge_dedicated_everywhere = false;
            }

            let _ = writeln!(
                out,
                "{n:>7} {seed:>8} | {:>9} {:>10.1} | {:>9} {:>10.1} {:>9} | {:>9} {:>10.1} {:>9} {:>9.1} | {:>10}",
                none.admitted,
                none.revenue,
                ded.admitted,
                ded.revenue,
                ded.standbys,
                shr.admitted,
                shr.revenue,
                shr.standbys,
                shr.standby_compute,
                greedy_adm
            );
            let _ = writeln!(
                json_rows,
                "    {{\"chains\": {n}, \"seed\": {seed}, \
                 \"none\": {{\"admitted\": {}, \"revenue\": {:.3}, \"violations\": {}}}, \
                 \"dedicated\": {{\"admitted\": {}, \"revenue\": {:.3}, \"standbys\": {}, \"violations\": {}}}, \
                 \"shared\": {{\"admitted\": {}, \"revenue\": {:.3}, \"standbys\": {}, \"standby_compute_slots\": {:.3}, \"violations\": {}}}, \
                 \"greedy\": {{\"admitted\": {greedy_adm}, \"revenue\": {greedy_rev:.3}}}}},",
                none.admitted,
                none.revenue,
                none.violations,
                ded.admitted,
                ded.revenue,
                ded.standbys,
                ded.violations,
                shr.admitted,
                shr.revenue,
                shr.standbys,
                shr.standby_compute,
                shr.violations
            );
        }
    }

    let [none_t, ded_t, shr_t] = total;
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "totals: none {}/{:.1}, dedicated {}/{:.1}, shared {}/{:.1} (admitted/revenue)",
        none_t.0, none_t.1, ded_t.0, ded_t.1, shr_t.0, shr_t.1
    );
    let _ = writeln!(
        out,
        "referee: worst margin {worst_margin:+.4}, statistical violations {total_violations} \
         ({trials} trials per point, z = {Z})"
    );

    print!("{out}");
    // The claims this benchmark exists to defend. Equal capacity is by
    // construction (one scenario per point, reused across modes).
    assert_eq!(
        total_violations, 0,
        "Monte-Carlo referee found delivered-availability violations"
    );
    if !shared_ge_dedicated_everywhere {
        // Not asserted: online price trajectories differ between modes,
        // so pointwise dominance is not guaranteed — only the aggregate
        // is. Note it so a table reader is not surprised.
        let _ = writeln!(
            out,
            "note: shared trailed dedicated on admissions at some point (aggregate still decides)"
        );
    }
    let shared_strictly_wins = (shr_t.0 >= ded_t.0 && shr_t.1 > ded_t.1 + 1e-9)
        || (shr_t.0 > ded_t.0 && shr_t.1 >= ded_t.1 - 1e-9);
    assert!(
        shared_strictly_wins,
        "shared backups did not strictly beat dedicated in aggregate \
         (admitted {} vs {}, revenue {:.1} vs {:.1})",
        shr_t.0, ded_t.0, shr_t.1, ded_t.1
    );
    let win = format!(
        "sharing win: shared admits {:+} chains and {:+.1} revenue vs dedicated at equal capacity",
        shr_t.0 as i64 - ded_t.0 as i64,
        shr_t.1 - ded_t.1
    );
    println!("{win}");
    let _ = writeln!(out, "{win}");

    let reps = if quick { 5 } else { 21 };
    let scenario = MixedScenario::build(THROUGHPUT_SLOTS, THROUGHPUT_CHAINS, 1);
    let throughput = [BackupMode::None, BackupMode::Dedicated, BackupMode::Shared].map(|mode| {
        let rate = mixed_throughput(&scenario, mode, reps);
        println!(
            "throughput: {:>9} {:>10.0} decisions/s ({:.0} ns per decision)",
            mode.as_str(),
            rate,
            1e9 / rate
        );
        (mode, rate)
    });

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"bench_chain/v2\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"trials\": {trials},");
    let _ = writeln!(json, "  \"z\": {Z},");
    let _ = writeln!(json, "  \"rows\": [");
    let json_rows = json_rows.trim_end().trim_end_matches(',');
    let _ = writeln!(json, "{json_rows}");
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"totals\": {{");
    let _ = writeln!(
        json,
        "    \"none\": {{\"admitted\": {}, \"revenue\": {:.3}}},",
        none_t.0, none_t.1
    );
    let _ = writeln!(
        json,
        "    \"dedicated\": {{\"admitted\": {}, \"revenue\": {:.3}}},",
        ded_t.0, ded_t.1
    );
    let _ = writeln!(
        json,
        "    \"shared\": {{\"admitted\": {}, \"revenue\": {:.3}}}",
        shr_t.0, shr_t.1
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"throughput\": {{");
    let _ = writeln!(
        json,
        "    \"what\": \"MixedSimulation::run, {} singles + {THROUGHPUT_CHAINS} chains over \
         {THROUGHPUT_SLOTS} slots, median of {reps} fresh schedulers\",",
        2 * THROUGHPUT_CHAINS
    );
    let _ = writeln!(
        json,
        "    \"host_cpus\": {},",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    for (mode, rate) in throughput {
        let _ = writeln!(
            json,
            "    \"{}\": {{\"decisions_per_s\": {rate:.0}, \"ns_per_decision\": {:.1}}}{}",
            mode.as_str(),
            1e9 / rate,
            if matches!(mode, BackupMode::Shared) {
                ""
            } else {
                ","
            }
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"worst_margin\": {worst_margin:.6},");
    let _ = writeln!(json, "  \"violations\": {total_violations}");
    let _ = writeln!(json, "}}");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/chain_sharing.txt"
    );
    std::fs::write(path, &out).expect("write results/chain_sharing.txt");
    let json_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_chain.json"
    );
    std::fs::write(json_path, &json).expect("write results/BENCH_chain.json");
    note(quiet, format_args!("\nwritten to {path} and {json_path}"));
}
