//! Argument parsing and the top-level flow of every subcommand.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::compare;
use crate::host::{self, HostClock, HostStamp};
use crate::layers;
use crate::report;
use crate::run::RunCtx;
use crate::stats;
use crate::workloads::{out_dir, Workload};

const USAGE: &str = "usage:
  --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; the last stdout line is the result
  suite [--seeds <k>] [--first-seed <n>] [--seconds <s>] [--trace <0|1>] [--out <file>]
                                                             every workload, k seeds, a process per run
  compare <A.json> <B.json>                                  judge two suite files against the bounds
  describe                                                   what is measured
  calibrate [--seconds <s>]                                  measure the reference lap (REF_NOMINAL_US)";

/// Share of a traced run's seconds spent on repetitions; the per-layer
/// suite gets the rest.
const TRACED_REP_SHARE: f64 = 0.4;
/// Seconds kept back from an untraced run for final checks and output.
const CLOSING_RESERVE_S: f64 = 0.3;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} takes a number, got '{v}'")),
        None => Ok(default),
    }
}

/// Runs the benchmark's command line; the process exits with the result.
pub fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("suite") => suite(&args),
        Some("compare") => compare_sets(&args),
        Some("describe") => {
            print!("{}", compare::describe());
            Ok(true)
        }
        Some("calibrate") => calibrate(&args),
        Some(_) if flag(&args, "--workload").is_some() => one_run(&args, started),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn one_run(args: &[String], started: Instant) -> Result<bool, String> {
    let name = flag(args, "--workload").unwrap_or_default();
    let workload = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload '{name}'; known: {}", known.join(", "))
    })?;
    let seed: u64 = number(args, "--seed", 1)?;
    let seconds: f64 = number(args, "--seconds", 20.0)?;
    let traced = match number::<u8>(args, "--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds must be within 1..=60, got {seconds}"));
    }
    if traced && !crate::alloc::installed() {
        return Err(
            "--trace 1 needs the traced binary (vnfrel-benchmark-traced), which carries the \
             counting allocator; benchmark/run.sh picks it"
                .to_string(),
        );
    }

    let rep_seconds = if traced {
        seconds * TRACED_REP_SHARE
    } else {
        seconds - CLOSING_RESERVE_S
    };
    // Read before pinning, which would make the host look single-CPU.
    let stamp = HostStamp::read();
    // Every thread of the run — generator, daemon, reference laps —
    // shares one CPU; see README.md, "One CPU".
    let mut pinned = host::pin_to_last_cpu();
    let ctx = RunCtx::new(started, rep_seconds, traced, workload.rate_imposed());
    let mut summary = workload.run(seed, ctx);

    let (metrics, correct) = if traced {
        let left = (seconds - started.elapsed().as_secs_f64()).max(1.0);
        let (mut values, layers_ok) = layers::suite(
            seed,
            Duration::from_secs_f64(left),
            &mut summary.tracer,
            &mut pinned,
        );
        values.extend(summary.layer.iter().map(|&(n, v)| (n.to_string(), v)));
        let path = out_dir().join(format!("trace-{}-{seed}.jsonl", workload.name()));
        summary
            .tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "{} spans written to {}",
            summary.tracer.len(),
            path.display()
        );
        (report::per_layer(&values)?, summary.correct && layers_ok)
    } else {
        (
            report::end_to_end(&summary, host::peak_rss_mib()),
            summary.correct,
        )
    };

    print!(
        "{}",
        report::text(workload, seed, &summary, &metrics, &stamp)
    );
    println!("{}", report::raw_line(&summary));
    println!(
        "{}",
        report::result_line(correct, summary.attempted, summary.failed, &metrics)
    );
    Ok(true)
}

fn suite(args: &[String]) -> Result<bool, String> {
    let seeds: u64 = number(args, "--seeds", 10)?;
    let first: u64 = number(args, "--first-seed", 1)?;
    let seconds: u64 = number(args, "--seconds", 20)?;
    let trace: u8 = number(args, "--trace", 0)?;
    let (text, table, all_correct) = compare::suite(seeds, first, seconds, trace);
    if let Some(path) = flag(args, "--out") {
        std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("set written to {path}");
    }
    print!("{table}");
    if !all_correct {
        eprintln!("suite: a run failed a correctness check");
    }
    Ok(all_correct)
}

fn compare_sets(args: &[String]) -> Result<bool, String> {
    let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
        return Err(USAGE.to_string());
    };
    let (table, all_agree) = compare::compare(&compare::read_set(a)?, &compare::read_set(b)?);
    print!("{table}");
    println!(
        "{}",
        if all_agree {
            "every pairing agrees within its bound"
        } else {
            "NOT every pairing agrees within its bound"
        }
    );
    Ok(all_agree)
}

fn calibrate(args: &[String]) -> Result<bool, String> {
    let seconds: f64 = number(args, "--seconds", 300.0)?;
    let mut clock = HostClock::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        clock.laps();
        // Leave gaps, as repetitions do between lap sets.
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut us: Vec<f64> = clock.readings.iter().map(|s| s * 1e6).collect();
    stats::sort(&mut us);
    println!(
        "{} lap sets over {seconds} s: p10 {:.1} us (the favourable decile: REF_NOMINAL_US), \
         p50 {:.1} us, p90 {:.1} us, spread {:.3}",
        us.len(),
        stats::percentile_sorted(&us, 0.10),
        stats::percentile_sorted(&us, 0.50),
        stats::percentile_sorted(&us, 0.90),
        stats::iqr_share(&us),
    );
    Ok(true)
}
