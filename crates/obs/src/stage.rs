//! Pipeline stages of the serving tier and the monotonic clock used to
//! time them.
//!
//! A request travelling through the admission daemon crosses a fixed
//! set of stages — parse, queue, dispatch, decide, replication-ack
//! wait, reply write. Each stage is identified by a [`PipelineStage`]
//! with a stable wire name, timed with a [`StageClock`], and recorded
//! both as a per-shard latency histogram
//! (always on; lock-free atomics) and, when a real [`crate::TraceSink`]
//! is attached, as a [`crate::TraceEvent::StageSample`] on the trace
//! stream. The `vnfrel serve-report` subcommand aggregates those
//! samples into a per-stage, per-shard percentile breakdown.

use std::time::Instant;

use crate::event::TraceEvent;
use crate::sink::TraceSink;

/// Records one [`TraceEvent::StageSample`] on `sink`, guarded by the
/// sink's compile-time `ENABLED` flag: over a [`crate::NoopSink`] the
/// whole call — event construction included — compiles away, which is
/// what keeps the instrumented-but-disabled serving path zero-alloc
/// (proved by the counting-allocator test in `mec-serve`).
#[inline]
pub fn record_stage<S: TraceSink>(sink: &mut S, shard: usize, stage: PipelineStage, nanos: u64) {
    if S::ENABLED {
        sink.record(TraceEvent::StageSample {
            shard,
            stage,
            nanos,
        });
    }
}

/// One stage of the serving pipeline.
///
/// Wire names (see [`PipelineStage::as_str`]) are stable: they appear in
/// Prometheus label values, JSONL stage samples, and `serve-report`
/// tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStage {
    /// Reading and parsing one ingress line (submit or batch frame)
    /// into typed requests.
    IngressParse,
    /// Time spent queued between the connection worker and the decide
    /// thread (enqueue → dequeue).
    QueueWait,
    /// Scatter/routing work between parse and decide: picking the home
    /// shard and handing the part to its queue.
    Dispatch,
    /// The scheduler's `decide()` call itself.
    Decide,
    /// Never observed: lanes share nothing, so no request reserves
    /// capacity on another lane's ledger. The variant and its wire name
    /// stay because the benchmark adapter names them.
    ReserveCommit,
    /// Waiting for the standby to ack the replicated decision frame
    /// before releasing the client reply.
    ReplAckWait,
    /// Encoding and writing the reply line back to the client socket.
    ReplyWrite,
}

impl PipelineStage {
    /// All stages, in pipeline order.
    pub const ALL: [PipelineStage; 7] = [
        PipelineStage::IngressParse,
        PipelineStage::QueueWait,
        PipelineStage::Dispatch,
        PipelineStage::Decide,
        PipelineStage::ReserveCommit,
        PipelineStage::ReplAckWait,
        PipelineStage::ReplyWrite,
    ];

    /// Number of stages.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable wire name used in JSONL samples and Prometheus labels.
    pub fn as_str(self) -> &'static str {
        match self {
            PipelineStage::IngressParse => "ingress-parse",
            PipelineStage::QueueWait => "queue-wait",
            PipelineStage::Dispatch => "dispatch",
            PipelineStage::Decide => "decide",
            PipelineStage::ReserveCommit => "reserve-commit",
            PipelineStage::ReplAckWait => "repl-ack-wait",
            PipelineStage::ReplyWrite => "reply-write",
        }
    }

    /// Inverse of [`PipelineStage::as_str`].
    pub fn from_wire(s: &str) -> Option<Self> {
        Some(match s {
            "ingress-parse" => PipelineStage::IngressParse,
            "queue-wait" => PipelineStage::QueueWait,
            "dispatch" => PipelineStage::Dispatch,
            "decide" => PipelineStage::Decide,
            "reserve-commit" => PipelineStage::ReserveCommit,
            "repl-ack-wait" => PipelineStage::ReplAckWait,
            "reply-write" => PipelineStage::ReplyWrite,
            _ => return None,
        })
    }

    /// Dense index into [`PipelineStage::ALL`] (pipeline order).
    pub fn index(self) -> usize {
        match self {
            PipelineStage::IngressParse => 0,
            PipelineStage::QueueWait => 1,
            PipelineStage::Dispatch => 2,
            PipelineStage::Decide => 3,
            PipelineStage::ReserveCommit => 4,
            PipelineStage::ReplAckWait => 5,
            PipelineStage::ReplyWrite => 6,
        }
    }
}

/// A monotonic stopwatch for timing pipeline stages.
///
/// Thin wrapper over [`Instant`] so stage timing reads as intent at the
/// call site and stays trivially copyable (no allocation; safe to stamp
/// into queue items).
#[derive(Debug, Clone, Copy)]
pub struct StageClock {
    started: Instant,
}

impl StageClock {
    /// Starts the clock now.
    pub fn start() -> Self {
        StageClock {
            started: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since start (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds elapsed since start.
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Restarts the clock, returning the nanoseconds of the lap that
    /// just ended — the natural shape for timing consecutive stages.
    pub fn lap_ns(&mut self) -> u64 {
        let now = Instant::now();
        let ns = u64::try_from(now.duration_since(self.started).as_nanos()).unwrap_or(u64::MAX);
        self.started = now;
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_round_trip() {
        for stage in PipelineStage::ALL {
            assert_eq!(PipelineStage::from_wire(stage.as_str()), Some(stage));
        }
        assert_eq!(PipelineStage::from_wire("warp-drive"), None);
    }

    #[test]
    fn indices_match_all_order() {
        for (i, stage) in PipelineStage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        assert_eq!(PipelineStage::COUNT, 7);
    }

    #[test]
    fn record_stage_respects_the_enabled_flag() {
        let mut noop = crate::NoopSink;
        record_stage(&mut noop, 0, PipelineStage::Decide, 10);

        let mut ring = crate::RingSink::new(4);
        record_stage(&mut ring, 3, PipelineStage::QueueWait, 250);
        assert_eq!(ring.len(), 1);
        assert_eq!(
            ring.events().next(),
            Some(&TraceEvent::StageSample {
                shard: 3,
                stage: PipelineStage::QueueWait,
                nanos: 250
            })
        );
    }

    #[test]
    fn clock_laps_are_monotonic() {
        let mut clock = StageClock::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let first = clock.lap_ns();
        assert!(first >= 1_000_000, "lap shorter than the sleep: {first}ns");
        // After the lap the clock restarts: the next reading starts over.
        assert!(clock.elapsed_ns() < first || first == u64::MAX);
        assert!(clock.elapsed_secs() >= 0.0);
    }
}
