//! Trace sinks: where decision/fault events go.
//!
//! Schedulers and the simulation engine are generic over `S: TraceSink`.
//! The default [`NoopSink`] advertises `ENABLED = false`, so every
//! instrumentation hook sits behind `if S::ENABLED { ... }` and the
//! monomorphized no-op variant never builds an event. Two checks hold
//! every hook to that, neither needing a sink-free copy of the code:
//! [`TripwireSink`] (also disabled, but its `record` panics) is run
//! through the golden decision streams and a faulted, degraded engine
//! run, so an unguarded hook fails a test by name; and
//! `tests/sched_alloc.rs` counts heap allocations per `decide()` under
//! `NoopSink` (0 for a reject or an on-site admit, 1 for an off-site
//! admit), which an event built and then dropped would exceed.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::rc::Rc;

use crate::event::{DecisionCode, DecisionEvent, Outcome, TraceEvent};
use crate::json::to_json;

/// A consumer of trace events.
pub trait TraceSink {
    /// Whether this sink actually wants events. Instrumentation sites
    /// must guard event *construction* with `if S::ENABLED` so disabled
    /// builds never allocate or format anything.
    const ENABLED: bool = true;

    /// Consumes one event.
    fn record(&mut self, event: TraceEvent);

    /// Consumes one scheduler decision, given by its parts: the names
    /// are static, so only a sink that keeps the event has to own them.
    /// The default builds the [`DecisionEvent`] and records it.
    fn record_decision(
        &mut self,
        request: usize,
        algorithm: &'static str,
        scheme: &'static str,
        slot: usize,
        payment: f64,
        outcome: Outcome,
    ) {
        self.record(TraceEvent::Decision(DecisionEvent {
            request,
            algorithm: algorithm.to_string(),
            scheme: scheme.to_string(),
            slot,
            payment,
            outcome,
        }));
    }
}

/// The default sink: drops everything, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}
}

/// A disabled sink that must never be reached: `ENABLED = false` like
/// [`NoopSink`], but `record` panics, naming the event. Running code
/// under it turns "every hook is behind `if S::ENABLED`" from a
/// convention into a test failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TripwireSink;

impl TraceSink for TripwireSink {
    const ENABLED: bool = false;

    fn record(&mut self, event: TraceEvent) {
        panic!(
            "unguarded trace hook: a `{}` event reached a disabled sink",
            event.kind()
        );
    }
}

/// Keeps only the most recent event. Unlike the `Rc`-based decision tap
/// in `mec-serve`, this sink is `Send`, so a scheduler built over it can
/// live inside a per-shard decide thread; the thread drains the event
/// after each `decide()` call via the scheduler's `sink_mut()`.
///
/// A decision is kept by its parts, so a reader that only needs its
/// code ([`LastEventSink::take_code`]) has nothing built for it; the
/// [`DecisionEvent`] exists only once [`LastEventSink::take`] asks.
#[derive(Debug, Clone, Default)]
pub struct LastEventSink {
    last: Option<Last>,
}

#[derive(Debug, Clone)]
enum Last {
    Decision {
        request: usize,
        algorithm: &'static str,
        scheme: &'static str,
        slot: usize,
        payment: f64,
        outcome: Outcome,
    },
    Other(TraceEvent),
}

impl LastEventSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        LastEventSink::default()
    }

    /// Takes the most recent event, leaving the sink empty.
    pub fn take(&mut self) -> Option<TraceEvent> {
        Some(match self.last.take()? {
            Last::Decision {
                request,
                algorithm,
                scheme,
                slot,
                payment,
                outcome,
            } => TraceEvent::Decision(DecisionEvent {
                request,
                algorithm: algorithm.to_string(),
                scheme: scheme.to_string(),
                slot,
                payment,
                outcome,
            }),
            Last::Other(event) => event,
        })
    }

    /// Takes the most recent event's [`DecisionCode`], leaving the sink
    /// empty; `None` unless that event is a decision.
    pub fn take_code(&mut self) -> Option<DecisionCode> {
        match self.last.take()? {
            Last::Decision { outcome, .. } => Some(outcome.code()),
            Last::Other(_) => None,
        }
    }
}

impl TraceSink for LastEventSink {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.last = Some(Last::Other(event));
    }

    #[inline]
    fn record_decision(
        &mut self,
        request: usize,
        algorithm: &'static str,
        scheme: &'static str,
        slot: usize,
        payment: f64,
        outcome: Outcome,
    ) {
        self.last = Some(Last::Decision {
            request,
            algorithm,
            scheme,
            slot,
            payment,
            outcome,
        });
    }
}

/// Forwarding impl so callers can lend a sink without giving it up.
/// Inherits `ENABLED`, so `&mut NoopSink` still compiles away.
impl<S: TraceSink> TraceSink for &mut S {
    const ENABLED: bool = S::ENABLED;

    #[inline]
    fn record(&mut self, event: TraceEvent) {
        (**self).record(event);
    }
}

/// Shared-ownership sink: lets a scheduler and the simulation engine
/// append to one stream within a single thread.
impl<S: TraceSink> TraceSink for Rc<RefCell<S>> {
    const ENABLED: bool = S::ENABLED;

    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.borrow_mut().record(event);
    }
}

/// In-memory ring buffer keeping the most recent `capacity` events.
///
/// Useful in tests and for "flight recorder" style always-on tracing
/// where only the tail matters.
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    /// Total number of events ever recorded, including evicted ones.
    recorded: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            recorded: 0,
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events recorded over the sink's lifetime (evictions included).
    pub fn total_recorded(&self) -> u64 {
        self.recorded
    }

    /// Consumes the ring, returning retained events oldest-first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.into()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
        self.recorded += 1;
    }
}

/// Streams events as JSON lines to any [`io::Write`].
///
/// IO errors are sticky: the first failure is stored and later writes are
/// skipped, so a full disk does not abort a multi-hour run mid-flight.
/// Call [`JsonlSink::finish`] to flush and surface the error.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    error: Option<io::Error>,
    written: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer. Consider `io::BufWriter` for file targets.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            error: None,
            written: 0,
        }
    }

    /// Number of events successfully serialized so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// True once a write has failed; subsequent events are dropped.
    pub fn has_error(&self) -> bool {
        self.error.is_some()
    }

    /// Flushes and returns the inner writer, or the first IO error
    /// encountered during recording/flushing.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let mut line = to_json(&event);
        line.push('\n');
        match self.writer.write_all(line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_trace;

    fn breach(slot: usize) -> TraceEvent {
        TraceEvent::SlaBreach { slot, request: 0 }
    }

    #[test]
    fn noop_is_disabled() {
        const { assert!(!NoopSink::ENABLED) };
        assert!(RingSink::new(4).capacity >= 1);
    }

    #[test]
    #[should_panic(expected = "unguarded trace hook: a `sla-breach` event")]
    fn tripwire_panics_on_an_unguarded_record() {
        const { assert!(!TripwireSink::ENABLED) };
        // Deliberately not behind `if TripwireSink::ENABLED`.
        TripwireSink.record(breach(0));
    }

    #[test]
    fn last_event_sink_builds_the_event_only_when_taken() {
        let admit = || Outcome::Admit {
            dual_cost: 0.25,
            margin: 1.25,
            sites: vec![crate::event::SitePlacement {
                cloudlet: 2,
                instances: 1,
                dual_cost: 0.25,
            }],
        };
        let mut by_parts = LastEventSink::new();
        by_parts.record_decision(7, "alg2-primal-dual", "offsite", 3, 1.5, admit());
        // Same event as the default (allocating) route builds.
        let mut ring = RingSink::new(1);
        ring.record_decision(7, "alg2-primal-dual", "offsite", 3, 1.5, admit());
        assert_eq!(by_parts.take(), ring.into_events().pop());
        assert_eq!(by_parts.take(), None, "take empties the sink");

        // The code of the same decision, and of a reject.
        by_parts.record_decision(7, "alg2-primal-dual", "offsite", 3, 1.5, admit());
        assert_eq!(
            by_parts.take_code(),
            Some(DecisionCode::Admit { dual_cost: 0.25 })
        );
        assert_eq!(by_parts.take_code(), None, "take_code empties the sink");
        for reason in crate::event::RejectReason::ALL {
            let reject = Outcome::Reject {
                reason,
                dual_cost: Some(9.0),
                margin: None,
            };
            assert_eq!(reject.code(), DecisionCode::Reject(reason));
            by_parts.record_decision(8, "alg1", "onsite", 4, 2.5, reject);
            assert_eq!(by_parts.take_code(), Some(DecisionCode::Reject(reason)));
            assert_eq!(crate::event::RejectReason::ALL[reason.index()], reason);
        }

        // Any other event comes back whole, and has no code.
        by_parts.record(breach(1));
        assert_eq!(by_parts.take(), Some(breach(1)));
        by_parts.record(breach(2));
        assert_eq!(by_parts.take_code(), None);
        assert_eq!(by_parts.take(), None);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut ring = RingSink::new(2);
        for slot in 0..5 {
            ring.record(breach(slot));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.total_recorded(), 5);
        let slots: Vec<usize> = ring
            .events()
            .map(|e| match e {
                TraceEvent::SlaBreach { slot, .. } => *slot,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(slots, vec![3, 4]);
    }

    #[test]
    fn jsonl_sink_round_trips_through_bytes() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(breach(1));
        sink.record(TraceEvent::OutageStart {
            slot: 2,
            cloudlet: 0,
        });
        assert_eq!(sink.written(), 2);
        let bytes = sink.finish().unwrap();
        let parsed = parse_trace(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(
            parsed,
            vec![
                breach(1),
                TraceEvent::OutageStart {
                    slot: 2,
                    cloudlet: 0
                }
            ]
        );
    }

    #[test]
    fn jsonl_sink_error_is_sticky() {
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
        let mut sink = JsonlSink::new(FailAfter(1));
        sink.record(breach(0));
        sink.record(breach(1));
        sink.record(breach(2));
        assert_eq!(sink.written(), 1);
        assert!(sink.has_error());
        assert!(sink.finish().is_err());
    }

    #[test]
    fn shared_rc_sink_accumulates_from_two_handles() {
        let shared = Rc::new(RefCell::new(RingSink::new(8)));
        let mut a = Rc::clone(&shared);
        let mut b = Rc::clone(&shared);
        a.record(breach(0));
        b.record(breach(1));
        assert_eq!(shared.borrow().len(), 2);
    }
}
