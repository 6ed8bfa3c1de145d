//! Turning a finished run into the contract's one-line JSON object and
//! a text report a person can read.

use std::fmt::Write as _;

use crate::contract::{END_TO_END, PER_LAYER};
use crate::host::{HostStamp, REF_NOMINAL_US};
use crate::run::{RunSummary, SETUP_SAMPLES};
use crate::workloads::Workload;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Contract name.
    pub name: &'static str,
    /// Measured value, all digits.
    pub value: f64,
    /// Contract unit.
    pub unit: &'static str,
}

/// The six end-to-end metrics of `summary`, in contract order.
pub fn end_to_end(summary: &RunSummary, peak_rss_mib: f64) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|&(name, unit, _, _)| Metric {
            name,
            unit,
            value: match name {
                "setup_s" => summary.setup_s,
                "decisions_per_s" => summary.decisions_per_s,
                "cpu_us_per_decision" => summary.cpu_us_per_decision,
                "latency_p50_us" => summary.latency_p50_us,
                "revenue_ratio" => summary.revenue_ratio,
                "peak_rss_mb" => peak_rss_mib,
                other => unreachable!("end-to-end metric {other} has no source"),
            },
        })
        .collect()
}

/// Every per-layer metric of the contract, in contract order, from the
/// measured `values`.
///
/// # Errors
///
/// Names a contract metric that no layer reported: the traced pass must
/// print every one of them.
pub fn per_layer(values: &[(String, f64)]) -> Result<Vec<Metric>, String> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            values
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, value)| Metric { name, value, unit })
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))
        })
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest digits that round-trip.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The contract's result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The run's raw (un-normalised) readings and host speed as one JSON
/// line, printed just before the result line so that `suite` can keep
/// them beside the normalised values.
pub fn raw_line(summary: &RunSummary) -> String {
    format!(
        "{{\"raw\": {{\"setup_s\": {}, \"decisions_per_s\": {}, \"cpu_us_per_decision\": {}, \"latency_p50_us\": {}}}, \"host_speed\": {}, \"repetitions\": {}, \"disturbed\": {}}}",
        json_number(summary.setup_raw_s),
        json_number(summary.raw_decisions_per_s),
        json_number(summary.raw_cpu_us_per_decision),
        json_number(summary.raw_latency_p50_us),
        json_number(summary.host_speed),
        summary.repetitions,
        summary.disturbed,
    )
}

/// The host stamp as a JSON object.
pub fn stamp_json(stamp: &HostStamp) -> String {
    format!(
        "{{\"host_cpus\": {}, \"cpu_model\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"ref_nominal_us\": {}}}",
        stamp.host_cpus,
        stamp.cpu_model.replace('"', "'"),
        stamp.kernel.replace('"', "'"),
        stamp.rustc.replace('"', "'"),
        stamp.commit,
        json_number(REF_NOMINAL_US),
    )
}

/// The text report: stamp, raw and normalised values side by side with
/// the window's host speed, then every metric with its unit.
pub fn text(
    workload: Workload,
    seed: u64,
    summary: &RunSummary,
    metrics: &[Metric],
    stamp: &HostStamp,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} seed {} — {} set-up samples and {} repetitions ({} of them off the CPU for more than 2 %; all count), {} operations, {} failed, correct: {}",
        workload.name(),
        seed,
        SETUP_SAMPLES,
        summary.repetitions,
        summary.disturbed,
        summary.attempted,
        summary.failed,
        summary.correct
    );
    let _ = writeln!(
        out,
        "host: {} cpus, {}, kernel {}, {}, commit {}",
        stamp.host_cpus, stamp.cpu_model, stamp.kernel, stamp.rustc, stamp.commit
    );
    let _ = writeln!(
        out,
        "run.host_speed {:.3} (reference lap nominal {REF_NOMINAL_US} us){}",
        summary.host_speed,
        if workload.rate_imposed() {
            "; this workload imposes its rate: decisions_per_s is raw"
        } else {
            ""
        }
    );
    let _ = writeln!(out, "{:<22} {:>16} {:>16}", "", "raw", "normalised");
    let _ = writeln!(
        out,
        "{:<22} {:>16.6} {:>16.6}",
        "setup_s", summary.setup_raw_s, summary.setup_s
    );
    let _ = writeln!(
        out,
        "{:<22} {:>16.1} {:>16.1}",
        "decisions_per_s", summary.raw_decisions_per_s, summary.decisions_per_s
    );
    let _ = writeln!(
        out,
        "{:<22} {:>16.4} {:>16.4}",
        "cpu_us_per_decision", summary.raw_cpu_us_per_decision, summary.cpu_us_per_decision
    );
    let _ = writeln!(
        out,
        "{:<22} {:>16.3} {:>16.3}",
        "latency_p50_us", summary.raw_latency_p50_us, summary.latency_p50_us
    );
    for m in metrics {
        let _ = writeln!(out, "{:<48} {:>18.6} {}", m.name, m.value, m.unit);
    }
    out
}
