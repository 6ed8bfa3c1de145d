//! Plain-text/CSV export of simulation artifacts, for plotting outside
//! Rust (gnuplot, matplotlib, spreadsheets).
//!
//! Each table is a streaming `write_*` function that renders straight
//! into any [`io::Write`] and propagates the first IO error (no silently
//! truncated tables on a full disk), so a failed CLI export surfaces as
//! an error naming the target path instead of a half-written file.
//! [`timeline_csv`] renders the plain timeline into a `String`.

use std::io::{self, Write};

use crate::engine::{FaultRunReport, RunReport};

/// Streams the per-slot timeline as CSV (`slot,arrivals,admitted,active`).
///
/// # Errors
///
/// Returns the first IO error from `out`; the table may be partially
/// written at that point, so callers should treat the target as invalid.
pub fn write_timeline_csv<W: Write>(out: &mut W, report: &RunReport) -> io::Result<()> {
    writeln!(out, "slot,arrivals,admitted,active")?;
    for (t, s) in report.timeline.iter().enumerate() {
        writeln!(out, "{t},{},{},{}", s.arrivals, s.admitted, s.active)?;
    }
    Ok(())
}

/// Renders the per-slot timeline as CSV (`slot,arrivals,admitted,active`).
pub fn timeline_csv(report: &RunReport) -> String {
    into_string(|buf| write_timeline_csv(buf, report))
}

/// Streams a fault-aware run's per-slot timeline as CSV
/// (`slot,arrivals,admitted,active,events,newly_failed,recovered,violated,evicted`).
///
/// # Errors
///
/// Returns the first IO error from `out`.
pub fn write_fault_timeline_csv<W: Write>(out: &mut W, report: &FaultRunReport) -> io::Result<()> {
    writeln!(
        out,
        "slot,arrivals,admitted,active,events,newly_failed,recovered,violated,evicted"
    )?;
    for (t, s) in report.timeline.iter().enumerate() {
        writeln!(
            out,
            "{t},{},{},{},{},{},{},{},{}",
            s.arrivals,
            s.admitted,
            s.active,
            s.events,
            s.newly_failed,
            s.recovered,
            s.violated,
            s.evicted
        )?;
    }
    Ok(())
}

/// Streams the SLA ledger as CSV, one row per admitted request
/// (`request,payment,duration,downtime_slots,failures,recovery_attempts,recoveries,repair_latency_slots,unrecovered,evicted,refund,retained`).
///
/// # Errors
///
/// Returns the first IO error from `out`.
pub fn write_sla_csv<W: Write>(out: &mut W, report: &FaultRunReport) -> io::Result<()> {
    writeln!(
        out,
        "request,payment,duration,downtime_slots,failures,recovery_attempts,recoveries,\
         repair_latency_slots,unrecovered,evicted,refund,retained"
    )?;
    for r in &report.sla.records {
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            r.request.index(),
            r.payment,
            r.duration,
            r.downtime_slots,
            r.failures,
            r.recovery_attempts,
            r.recoveries,
            r.repair_latency_slots,
            r.unrecovered,
            r.evicted,
            r.refund(),
            r.retained()
        )?;
    }
    Ok(())
}

/// Runs a streaming renderer into an in-memory buffer. Writes to a
/// `Vec<u8>` cannot fail and everything written is UTF-8.
fn into_string(render: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut buf = Vec::new();
    render(&mut buf).expect("in-memory CSV rendering cannot fail");
    String::from_utf8(buf).expect("CSV output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use mec_topology::{NetworkBuilder, Reliability};
    use mec_workload::{Horizon, RequestGenerator, VnfCatalog};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vnfrel::onsite::OnsiteGreedy;
    use vnfrel::ProblemInstance;

    /// A greedy run of 10 generated requests over 6 slots.
    fn six_slot_report() -> RunReport {
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        b.add_cloudlet(a, 20, Reliability::new(0.99).unwrap())
            .unwrap();
        let inst =
            ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(6))
                .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let reqs = RequestGenerator::new(inst.horizon())
            .generate(10, inst.catalog(), &mut rng)
            .unwrap();
        let sim = Simulation::new(&inst, &reqs).unwrap();
        sim.run(&mut OnsiteGreedy::new(&inst)).unwrap()
    }

    #[test]
    fn timeline_csv_has_one_row_per_slot() {
        let csv = timeline_csv(&six_slot_report());
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 7); // header + 6 slots
        assert_eq!(lines[0], "slot,arrivals,admitted,active");
        // Arrivals across rows sum to the request count.
        let total: usize = lines[1..]
            .iter()
            .map(|l| l.split(',').nth(1).unwrap().parse::<usize>().unwrap())
            .sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn fault_csvs_cover_every_slot_and_admitted_request() {
        use crate::fault::{FailureConfig, FailureEvent, FailureProcess};
        use crate::recovery::RecoveryPolicy;
        use mec_obs::NoopSink;

        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        let a2 = b.add_ap("a2");
        b.add_link(a, a2, 1.0).unwrap();
        b.add_cloudlet(a, 20, Reliability::new(0.99).unwrap())
            .unwrap();
        b.add_cloudlet(a2, 20, Reliability::new(0.99).unwrap())
            .unwrap();
        let inst =
            ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(6))
                .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let reqs = RequestGenerator::new(inst.horizon())
            .generate(12, inst.catalog(), &mut rng)
            .unwrap();
        let sim = Simulation::new(&inst, &reqs).unwrap();
        let mut g = OnsiteGreedy::new(&inst);
        let trace = FailureProcess::from_events(
            inst.horizon(),
            [FailureEvent::CloudletDown {
                slot: 2,
                cloudlet: 0,
            }],
            FailureConfig::default(),
        )
        .unwrap();
        let report = sim
            .run_faulted(
                &mut g,
                &trace,
                RecoveryPolicy::SchemeMatching,
                None,
                &mut NoopSink,
            )
            .unwrap();

        let timeline = into_string(|buf| write_fault_timeline_csv(buf, &report));
        let lines: Vec<&str> = timeline.trim_end().lines().collect();
        assert_eq!(lines.len(), 7); // header + 6 slots
        assert_eq!(
            lines[0],
            "slot,arrivals,admitted,active,events,newly_failed,recovered,violated,evicted"
        );
        // The injected event shows up in slot 2's events column.
        assert_eq!(lines[3].split(',').nth(4).unwrap(), "1");

        let sla = into_string(|buf| write_sla_csv(buf, &report));
        let rows: Vec<&str> = sla.trim_end().lines().collect();
        assert_eq!(rows.len() - 1, report.metrics.admitted);
        assert!(rows[0].starts_with("request,payment,duration,downtime_slots"));
        for row in &rows[1..] {
            assert_eq!(row.split(',').count(), 12);
        }
    }

    #[test]
    fn streaming_writers_propagate_io_errors() {
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    Err(io::Error::other("disk full"))
                } else {
                    self.0 -= 1;
                    Ok(buf.len())
                }
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let report = six_slot_report();
        // The header write succeeds, a later row write fails: the error
        // must reach the caller rather than vanish.
        assert!(write_timeline_csv(&mut FailAfter(1), &report).is_err());
        assert!(write_timeline_csv(&mut FailAfter(1000), &report).is_ok());
    }
}
