//! `suite`, `compare` and `describe`: taking a whole set of runs,
//! judging two sets against the benchmark's own bounds, and printing
//! what the benchmark measures.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::contract::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::host::HostStamp;
use crate::json::{self, Json};
use crate::report::stamp_json;
use crate::stats;
use crate::workloads::Workload;

/// One run of a set: workload, seed, the parsed result line and the raw
/// readings printed before it.
#[derive(Debug, Clone)]
pub struct SetRun {
    /// Workload name.
    pub workload: String,
    /// Seed the run was given.
    pub seed: u64,
    /// The run's result line.
    pub result: Json,
    /// The run's raw line (`Json::Null` when absent).
    pub raw: Json,
}

fn raw_values(runs: &[SetRun], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.raw.get("raw")?.get(metric)?.as_f64())
        .collect()
}

fn metric_values(runs: &[SetRun], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| {
            r.result
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        })
        .collect()
}

fn metric_names(runs: &[SetRun]) -> Vec<(String, String)> {
    // End-to-end sets list the contract's metrics in contract order;
    // traced sets list whatever the runs carry.
    let first = runs
        .first()
        .and_then(|r| r.result.get("metrics"))
        .and_then(Json::as_object);
    let Some(first) = first else {
        return Vec::new();
    };
    let unit = |name: &str| {
        first
            .get(name)
            .and_then(|m| m.get("unit"))
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let mut names: Vec<(String, String)> = END_TO_END
        .iter()
        .filter(|(n, ..)| first.contains_key(*n))
        .map(|(n, ..)| (n.to_string(), unit(n)))
        .collect();
    if names.is_empty() {
        names = PER_LAYER
            .iter()
            .filter(|(n, ..)| first.contains_key(*n))
            .map(|(n, ..)| (n.to_string(), unit(n)))
            .collect();
    }
    names
}

fn bound_of(metric: &str) -> Option<(f64, bool)> {
    END_TO_END
        .iter()
        .find(|(n, ..)| *n == metric)
        .map(|&(_, _, better, bound)| (bound, better == "higher"))
}

/// The per-workload table of a set: median, quartiles and spread of
/// every metric, the spread set against the metric's bound.
pub fn set_table(runs: &[SetRun]) -> String {
    let mut out = String::new();
    for (workload, _) in WORKLOADS {
        if !runs.iter().any(|r| r.workload == workload) {
            continue;
        }
        let _ = writeln!(out, "{workload}");
        let _ = writeln!(
            out,
            "  {:<44} {:>14} {:>14} {:>14} {:>8} {:>7} {:>10}  unit",
            "metric", "median", "q1", "q3", "spread", "bound", "raw spread"
        );
        for (name, unit) in metric_names(runs) {
            let values = metric_values(runs, workload, &name);
            if values.is_empty() {
                continue;
            }
            let (q1, q2, q3) = if values.len() >= 2 {
                stats::quartiles(&values)
            } else {
                (values[0], values[0], values[0])
            };
            let bound = bound_of(&name).map_or_else(|| "-".to_string(), |(b, _)| format!("{b:.2}"));
            // The spread the same runs show before host normalisation.
            let raw = raw_values(runs, workload, &name);
            let raw_spread = if raw.len() >= 2 {
                format!("{:.4}", stats::iqr_share(&raw))
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "  {:<44} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>7} {:>10}  {}",
                name,
                q2,
                q1,
                q3,
                stats::iqr_share(&values),
                bound,
                raw_spread,
                unit
            );
        }
    }
    out
}

/// Runs every workload once per seed, each run in a process of its own
/// (so `peak_rss_mb` is the run's), and returns the set as JSON text, a
/// table of it, and whether every run was correct.
///
/// Seeds are the outer loop, workloads the inner one: each workload's
/// runs are spread over the whole set, so a host phase lands on every
/// workload alike.
pub fn suite(seeds: u64, first_seed: u64, seconds: u64, trace: u8) -> (String, String, bool) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut runs = Vec::new();
    let mut lines = Vec::new();
    let mut all_correct = true;
    for seed in first_seed..first_seed + seeds {
        for workload in Workload::ALL {
            eprintln!("suite: {} seed {seed}", workload.name());
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", &trace.to_string()])
                .stderr(Stdio::inherit())
                .output()
                .expect("benchmark process starts");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut tail = stdout.lines().rev();
            let last = tail.next().unwrap_or("").to_string();
            // The raw readings ride on the line before the result.
            let raw_text = tail
                .next()
                .filter(|l| l.starts_with("{\"raw\""))
                .unwrap_or("null");
            match json::parse(&last) {
                Ok(result) if output.status.success() => {
                    if result.get("correct").and_then(Json::as_bool) != Some(true) {
                        all_correct = false;
                    }
                    lines.push(format!(
                        "{{\"workload\": \"{}\", \"seed\": {seed}, \"raw\": {raw_text}, \"result\": {last}}}",
                        workload.name()
                    ));
                    runs.push(SetRun {
                        workload: workload.name().to_string(),
                        seed,
                        result,
                        raw: json::parse(raw_text).unwrap_or(Json::Null),
                    });
                }
                _ => {
                    eprintln!("suite: run failed ({}): {last}", output.status);
                    all_correct = false;
                }
            }
        }
    }
    let text = format!(
        "{{\"stamp\": {}, \"seconds\": {seconds}, \"trace\": {trace}, \"runs\": [\n{}\n]}}\n",
        stamp_json(&HostStamp::read()),
        lines.join(",\n")
    );
    (text, set_table(&runs), all_correct)
}

/// Reads a set file written by [`suite`].
///
/// # Errors
///
/// A message naming the file when it cannot be read or is not a set.
pub fn read_set(path: &str) -> Result<Vec<SetRun>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    runs.iter()
        .map(|r| {
            Some(SetRun {
                workload: r.get("workload")?.as_str()?.to_string(),
                seed: r.get("seed")?.as_f64()? as u64,
                result: r.get("result")?.clone(),
                raw: r.get("raw").cloned().unwrap_or(Json::Null),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: malformed run entry"))
}

/// The verdict on one workload × metric pairing of two sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound and both spreads within the bound.
    Agree,
    /// Medians differ by more than the bound.
    Disagree,
    /// A spread wider than the bound, and the sets overlap: the runs
    /// cannot tell.
    Unresolved,
}

/// Judges `b` against `a` for one metric.
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (stats::median_of(a), stats::median_of(b));
    let diff = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let spread = stats::iqr_share(a).max(stats::iqr_share(b));
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let disjoint = max(a) < min(b) || max(b) < min(a);
    let verdict = if spread > bound && !disjoint {
        Verdict::Unresolved
    } else if diff.abs() > bound {
        Verdict::Disagree
    } else {
        Verdict::Agree
    };
    (diff, verdict)
}

/// Compares two sets: per workload × end-to-end metric, medians,
/// quartiles, the relative difference against the bound, and a verdict.
/// Returns the table and whether every pairing agreed.
pub fn compare(a: &[SetRun], b: &[SetRun]) -> (String, bool) {
    let mut out = String::new();
    let mut all_agree = true;
    for (workload, _) in WORKLOADS {
        let _ = writeln!(out, "{workload}");
        let _ = writeln!(
            out,
            "  {:<22} {:>14} {:>20} {:>14} {:>20} {:>8} {:>6}  verdict",
            "metric", "A median", "A q1..q3", "B median", "B q1..q3", "diff", "bound"
        );
        for (name, _, better, bound) in END_TO_END {
            let (va, vb) = (
                metric_values(a, workload, name),
                metric_values(b, workload, name),
            );
            if va.len() < 2 || vb.len() < 2 {
                let _ = writeln!(out, "  {name:<22} too few runs");
                all_agree = false;
                continue;
            }
            let (a1, a2, a3) = stats::quartiles(&va);
            let (b1, b2, b3) = stats::quartiles(&vb);
            let (diff, v) = verdict(&va, &vb, bound);
            // Positive = B worse than A.
            let worse = if better == "higher" { -diff } else { diff };
            if v != Verdict::Agree {
                all_agree = false;
            }
            let _ = writeln!(
                out,
                "  {:<22} {:>14.6} {:>20} {:>14.6} {:>20} {:>+8.4} {:>6.2}  {}",
                name,
                a2,
                format!("{a1:.5}..{a3:.5}"),
                b2,
                format!("{b1:.5}..{b3:.5}"),
                worse,
                bound,
                match v {
                    Verdict::Agree => "agree",
                    Verdict::Disagree => "disagree",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    (out, all_agree)
}

/// What the benchmark measures, for a person.
pub fn describe() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "workloads:");
    for (name, why) in WORKLOADS {
        let _ = writeln!(out, "  {name:<16} {why}");
    }
    let _ = writeln!(out, "\nend-to-end metrics (same set on every workload):");
    for (name, unit, better, bound) in END_TO_END {
        let _ = writeln!(
            out,
            "  {name:<22} {unit:<6} better: {better:<7} bound: {bound}"
        );
    }
    let _ = writeln!(out, "\nper-layer metrics (traced pass, ungated):");
    for (name, unit, better) in PER_LAYER {
        let _ = writeln!(out, "  {name:<48} {unit:<8} better: {better}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let tight_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let tight_b = [101.0, 102.0, 100.0, 101.5, 100.5];
        assert_eq!(verdict(&tight_a, &tight_b, 0.08).1, Verdict::Agree);
        let far_b = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&tight_a, &far_b, 0.08).1, Verdict::Disagree);
        let wide_a = [80.0, 120.0, 100.0, 90.0, 110.0];
        let wide_b = [85.0, 125.0, 105.0, 95.0, 115.0];
        assert_eq!(verdict(&wide_a, &wide_b, 0.08).1, Verdict::Unresolved);
    }
}
