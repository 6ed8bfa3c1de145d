//! Observability layer for the vnfrel scheduling pipeline.
//!
//! Pure-std (zero dependencies) so every crate in the workspace can use
//! it. Three pieces:
//!
//! - [`event`] / [`json`]: typed trace events with a stable JSONL wire
//!   format — one [`TraceEvent::Decision`] per scheduler `decide()` call
//!   plus fault-injection events (outages, kills, SLA breaches,
//!   recoveries).
//! - [`sink`]: the [`TraceSink`] abstraction schedulers are generic
//!   over. [`NoopSink`] (the default) advertises `ENABLED = false` so
//!   instrumentation compiles away entirely; [`JsonlSink`] streams to a
//!   writer; [`RingSink`] keeps an in-memory tail.
//! - [`metrics`]: a named registry of counters/gauges/histograms with
//!   relaxed-atomic hot-path recording, thread-private
//!   [`MetricsShard`]s merged via [`MetricsRegistry::absorb`], and
//!   Prometheus / JSONL exporters.
//!
//! See DESIGN.md §9 for the architecture and the overhead budget.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod stage;

pub use event::{
    ChainDecisionEvent, ChainOutcome, ChainRejectReason, ChainStageTrace, DecisionCode,
    DecisionEvent, Outcome, RejectReason, SitePlacement, TraceEvent,
};
pub use json::{
    event_from_value, parse_line, parse_trace, parse_value, read_digits, read_number, to_json,
    visit_fields, write_decision, write_number, Field, JsonValue, JsonWriter, ParseError, Scalar,
};
pub use metrics::{
    DecisionMetricIds, MetricId, MetricsRegistry, MetricsShard, MetricsSink, DUAL_COST_BUCKETS,
};
pub use sink::{JsonlSink, LastEventSink, NoopSink, RingSink, TraceSink, TripwireSink};
pub use stage::{record_stage, PipelineStage, StageClock};
