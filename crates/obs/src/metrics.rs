//! Named metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Two usage modes share one namespace:
//!
//! - **Direct recording** through `&MetricsRegistry` uses relaxed atomics
//!   (plain `fetch_add` for counters, a CAS loop over f64 bit patterns for
//!   sums/gauges) — lock-free on the hot path, safe to share across the
//!   scoped threads spawned by `mec_sim::parallel_map`.
//! - **Shard-and-merge**: each worker records into a private, allocation-
//!   free [`MetricsShard`] of plain integers and merges once at the end
//!   via [`MetricsRegistry::absorb`], so tight Monte-Carlo loops never
//!   touch shared cache lines.
//!
//! Exporters: [`MetricsRegistry::to_prometheus`] (text exposition format)
//! and [`MetricsRegistry::to_jsonl`] (one series per line).
//!
//! Series names may embed Prometheus-style labels, e.g.
//! `vnfrel_rejections_total{reason="payment-test"}`; the metric *family*
//! is the part before `{` and `# HELP`/`# TYPE` headers are emitted once
//! per family.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::event::{Outcome, RejectReason, TraceEvent};
use crate::json::JsonWriter;
use crate::sink::{NoopSink, TraceSink};

/// Handle to a registered series. Cheap to copy; only valid for the
/// registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
enum State {
    Counter(AtomicU64),
    /// f64 stored as its bit pattern.
    Gauge(AtomicU64),
    Histogram {
        /// One count per finite upper bound, plus a trailing +Inf bucket.
        buckets: Vec<AtomicU64>,
        /// f64 bit pattern of the running sum.
        sum_bits: AtomicU64,
        count: AtomicU64,
    },
}

#[derive(Debug)]
struct Metric {
    name: String,
    help: String,
    kind: Kind,
    /// Finite upper bounds, ascending. Empty unless histogram.
    bounds: Vec<f64>,
    state: State,
}

fn atomic_f64_add(cell: &AtomicU64, delta: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(current) + delta).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

/// Registry of named series. Registration needs `&mut self`; recording
/// only needs `&self` and is lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register(&mut self, name: &str, help: &str, kind: Kind, bounds: Vec<f64>) -> MetricId {
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "duplicate metric name {name:?}"
        );
        let state = match kind {
            Kind::Counter => State::Counter(AtomicU64::new(0)),
            Kind::Gauge => State::Gauge(AtomicU64::new(0f64.to_bits())),
            Kind::Histogram => State::Histogram {
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum_bits: AtomicU64::new(0f64.to_bits()),
                count: AtomicU64::new(0),
            },
        };
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            bounds,
            state,
        });
        MetricId(self.metrics.len() - 1)
    }

    /// Registers a monotone counter.
    pub fn register_counter(&mut self, name: &str, help: &str) -> MetricId {
        self.register(name, help, Kind::Counter, Vec::new())
    }

    /// Registers a gauge (last-set f64 value).
    pub fn register_gauge(&mut self, name: &str, help: &str) -> MetricId {
        self.register(name, help, Kind::Gauge, Vec::new())
    }

    /// Registers a histogram with the given ascending finite upper
    /// bounds; a `+Inf` bucket is always appended.
    ///
    /// # Panics
    ///
    /// When a bound is not finite or the bounds are not strictly
    /// ascending: both exporters spell the last bucket's bound
    /// themselves, so an infinite one would render twice.
    pub fn register_histogram(&mut self, name: &str, help: &str, bounds: &[f64]) -> MetricId {
        assert!(
            bounds.iter().all(|b| b.is_finite()) && bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be finite and strictly ascending"
        );
        self.register(name, help, Kind::Histogram, bounds.to_vec())
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&self, id: MetricId, delta: u64) {
        match &self.metrics[id.0].state {
            State::Counter(v) => {
                v.fetch_add(delta, Ordering::Relaxed);
            }
            _ => panic!("metric {:?} is not a counter", self.metrics[id.0].name),
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&self, id: MetricId) {
        self.add(id, 1);
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&self, id: MetricId, value: f64) {
        match &self.metrics[id.0].state {
            State::Gauge(bits) => bits.store(value.to_bits(), Ordering::Relaxed),
            _ => panic!("metric {:?} is not a gauge", self.metrics[id.0].name),
        }
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&self, id: MetricId, value: f64) {
        let metric = &self.metrics[id.0];
        match &metric.state {
            State::Histogram {
                buckets,
                sum_bits,
                count,
            } => {
                let idx = bucket_index(&metric.bounds, value);
                buckets[idx].fetch_add(1, Ordering::Relaxed);
                atomic_f64_add(sum_bits, value);
                count.fetch_add(1, Ordering::Relaxed);
            }
            _ => panic!("metric {:?} is not a histogram", metric.name),
        }
    }

    /// Current counter value.
    pub fn counter_value(&self, id: MetricId) -> u64 {
        match &self.metrics[id.0].state {
            State::Counter(v) => v.load(Ordering::Relaxed),
            _ => panic!("metric {:?} is not a counter", self.metrics[id.0].name),
        }
    }

    /// Current gauge value.
    pub fn gauge_value(&self, id: MetricId) -> f64 {
        match &self.metrics[id.0].state {
            State::Gauge(bits) => f64::from_bits(bits.load(Ordering::Relaxed)),
            _ => panic!("metric {:?} is not a gauge", self.metrics[id.0].name),
        }
    }

    /// Histogram totals: (per-bucket counts incl. +Inf, sum, count).
    pub fn histogram_value(&self, id: MetricId) -> (Vec<u64>, f64, u64) {
        match &self.metrics[id.0].state {
            State::Histogram {
                buckets,
                sum_bits,
                count,
            } => (
                buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                f64::from_bits(sum_bits.load(Ordering::Relaxed)),
                count.load(Ordering::Relaxed),
            ),
            _ => panic!("metric {:?} is not a histogram", self.metrics[id.0].name),
        }
    }

    /// Creates a private shard mirroring the currently registered series.
    ///
    /// Gauge slots start *unset* (`None`), not at `0.0`: a shard that
    /// never touches a gauge must not clobber the registry's value when
    /// absorbed. See [`MetricsRegistry::absorb`] for the full gauge
    /// merge semantics.
    pub fn shard(&self) -> MetricsShard {
        MetricsShard {
            slots: self
                .metrics
                .iter()
                .map(|m| match m.kind {
                    Kind::Counter => ShardSlot::Counter(0),
                    Kind::Gauge => ShardSlot::Gauge(None),
                    Kind::Histogram => ShardSlot::Histogram {
                        buckets: vec![0; m.bounds.len() + 1],
                        sum: 0.0,
                        count: 0,
                    },
                })
                .collect(),
        }
    }

    /// Merges a shard's accumulated values into the registry. The shard
    /// is left untouched and may be reused (counts would then be double
    /// absorbed — reset or drop it instead).
    ///
    /// Merge semantics per kind:
    ///
    /// - **Counters / histograms** are additive: deltas sum into the
    ///   registry, so absorb order never matters.
    /// - **Gauges** are *last-writer-wins*: a gauge the shard never set
    ///   stays `None` and leaves the registry value untouched, while a
    ///   set gauge overwrites the registry unconditionally. When several
    ///   shards set the same gauge, the value after all absorbs is the
    ///   one from the shard absorbed **last** — not the largest, not the
    ///   latest `set_gauge` call across threads. Callers that need a
    ///   deterministic winner must absorb shards in a deterministic
    ///   order (as `parallel_map`'s index-ordered merge does); gauges
    ///   that should reflect a global property (e.g. final utilization)
    ///   are better set directly on the registry after the merge.
    ///
    /// The regression tests `gauge_unset_in_shard_does_not_clobber` and
    /// `gauge_absorb_is_last_writer_wins` pin this behaviour.
    pub fn absorb(&self, shard: &MetricsShard) {
        assert_eq!(
            shard.slots.len(),
            self.metrics.len(),
            "shard was created from a different registry snapshot"
        );
        for (metric, slot) in self.metrics.iter().zip(&shard.slots) {
            match (&metric.state, slot) {
                (State::Counter(v), ShardSlot::Counter(delta)) => {
                    if *delta != 0 {
                        v.fetch_add(*delta, Ordering::Relaxed);
                    }
                }
                (State::Gauge(bits), ShardSlot::Gauge(value)) => {
                    if let Some(v) = value {
                        bits.store(v.to_bits(), Ordering::Relaxed);
                    }
                }
                (
                    State::Histogram {
                        buckets,
                        sum_bits,
                        count,
                    },
                    ShardSlot::Histogram {
                        buckets: shard_buckets,
                        sum,
                        count: shard_count,
                    },
                ) => {
                    if *shard_count == 0 {
                        continue;
                    }
                    for (cell, delta) in buckets.iter().zip(shard_buckets) {
                        if *delta != 0 {
                            cell.fetch_add(*delta, Ordering::Relaxed);
                        }
                    }
                    atomic_f64_add(sum_bits, *sum);
                    count.fetch_add(*shard_count, Ordering::Relaxed);
                }
                _ => unreachable!("shard slot kind mismatch"),
            }
        }
    }

    /// Renders every series in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut seen_families: Vec<&str> = Vec::new();
        for metric in &self.metrics {
            let family = family_of(&metric.name);
            if !seen_families.contains(&family) {
                seen_families.push(family);
                let _ = writeln!(out, "# HELP {family} {}", metric.help);
                let _ = writeln!(out, "# TYPE {family} {}", metric.kind.as_str());
            }
            match &metric.state {
                State::Counter(v) => {
                    let _ = writeln!(out, "{} {}", metric.name, v.load(Ordering::Relaxed));
                }
                State::Gauge(bits) => {
                    let _ = writeln!(
                        out,
                        "{} {}",
                        metric.name,
                        prom_f64(f64::from_bits(bits.load(Ordering::Relaxed)))
                    );
                }
                State::Histogram {
                    buckets,
                    sum_bits,
                    count,
                } => {
                    let mut cumulative = 0u64;
                    for (i, cell) in buckets.iter().enumerate() {
                        cumulative += cell.load(Ordering::Relaxed);
                        let le = metric
                            .bounds
                            .get(i)
                            .map(|b| format!("{b}"))
                            .unwrap_or_else(|| "+Inf".to_string());
                        let _ = writeln!(
                            out,
                            "{} {cumulative}",
                            with_label(&metric.name, "_bucket", &format!("le=\"{le}\""))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{} {}",
                        suffixed(&metric.name, "_sum"),
                        prom_f64(f64::from_bits(sum_bits.load(Ordering::Relaxed)))
                    );
                    let _ = writeln!(
                        out,
                        "{} {}",
                        suffixed(&metric.name, "_count"),
                        count.load(Ordering::Relaxed)
                    );
                }
            }
        }
        out
    }

    /// Renders every series as one JSON object per line: `value` for
    /// counters and gauges; `le` (ending in `null` for the `+Inf`
    /// bucket), `counts`, `sum` and `count` for histograms.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for metric in &self.metrics {
            let mut w = JsonWriter::new(&mut out);
            w.begin_obj();
            w.key("name").str(&metric.name);
            w.key("kind").str(metric.kind.as_str());
            match &metric.state {
                State::Counter(v) => {
                    w.key("value").uint(v.load(Ordering::Relaxed));
                }
                State::Gauge(bits) => {
                    w.key("value")
                        .float(f64::from_bits(bits.load(Ordering::Relaxed)));
                }
                State::Histogram {
                    buckets,
                    sum_bits,
                    count,
                } => {
                    w.key("le").begin_arr();
                    for &b in &metric.bounds {
                        w.float(b);
                    }
                    w.null().end_arr();
                    let counts = buckets.iter().map(|cell| cell.load(Ordering::Relaxed));
                    w.key("counts").uints(counts);
                    w.key("sum")
                        .float(f64::from_bits(sum_bits.load(Ordering::Relaxed)));
                    w.key("count").uint(count.load(Ordering::Relaxed));
                }
            }
            w.end_obj();
            out.push('\n');
        }
        out
    }
}

/// Renders an f64 sample value per the Prometheus text exposition
/// format: non-finite values must spell `+Inf` / `-Inf` / `NaN` — Rust's
/// `{}` prints `inf` / `NaN`, which scrapers reject.
fn prom_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

fn bucket_index(bounds: &[f64], value: f64) -> usize {
    bounds
        .iter()
        .position(|&b| value <= b)
        .unwrap_or(bounds.len())
}

fn family_of(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// `name{a="b"}` + suffix → `name_suffix{a="b"}`.
fn suffixed(name: &str, suffix: &str) -> String {
    match name.find('{') {
        Some(i) => format!("{}{suffix}{}", &name[..i], &name[i..]),
        None => format!("{name}{suffix}"),
    }
}

/// Like [`suffixed`] but also splices an extra label into the label set.
fn with_label(name: &str, suffix: &str, label: &str) -> String {
    match name.find('{') {
        Some(i) => {
            let base = &name[..i];
            let labels = &name[i + 1..name.len() - 1];
            format!("{base}{suffix}{{{labels},{label}}}")
        }
        None => format!("{name}{suffix}{{{label}}}"),
    }
}

#[derive(Debug, Clone)]
enum ShardSlot {
    Counter(u64),
    Gauge(Option<f64>),
    Histogram {
        buckets: Vec<u64>,
        sum: f64,
        count: u64,
    },
}

/// Thread-private mirror of a registry: plain integers, no atomics, no
/// allocation after construction. Create with [`MetricsRegistry::shard`],
/// record freely inside a worker, then merge once with
/// [`MetricsRegistry::absorb`].
#[derive(Debug, Clone)]
pub struct MetricsShard {
    slots: Vec<ShardSlot>,
}

impl MetricsShard {
    /// Adds `delta` to a counter slot.
    #[inline]
    pub fn add(&mut self, id: MetricId, delta: u64) {
        match &mut self.slots[id.0] {
            ShardSlot::Counter(v) => *v += delta,
            _ => panic!("shard slot is not a counter"),
        }
    }

    /// Increments a counter slot by one.
    #[inline]
    pub fn inc(&mut self, id: MetricId) {
        self.add(id, 1);
    }

    /// Sets a gauge slot, marking it *set* — from now on absorbing this
    /// shard overwrites the registry's gauge (last absorb wins across
    /// shards; see [`MetricsRegistry::absorb`]). Repeated sets on the
    /// same shard keep only the latest value.
    #[inline]
    pub fn set_gauge(&mut self, id: MetricId, value: f64) {
        match &mut self.slots[id.0] {
            ShardSlot::Gauge(v) => *v = Some(value),
            _ => panic!("shard slot is not a gauge"),
        }
    }

    /// Records one histogram observation. `bounds` must be the same
    /// slice the histogram was registered with.
    #[inline]
    pub fn observe(&mut self, id: MetricId, bounds: &[f64], value: f64) {
        match &mut self.slots[id.0] {
            ShardSlot::Histogram {
                buckets,
                sum,
                count,
            } => {
                debug_assert_eq!(buckets.len(), bounds.len() + 1);
                buckets[bucket_index(bounds, value)] += 1;
                *sum += value;
                *count += 1;
            }
            _ => panic!("shard slot is not a histogram"),
        }
    }
}

// ---------------------------------------------------------------------------
// Decision-event adapter
// ---------------------------------------------------------------------------

/// Default bucket bounds for dual-cost style distributions (payments in
/// the evaluation run up to ~10).
pub const DUAL_COST_BUCKETS: [f64; 9] = [0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// Pre-registered series for decision telemetry, shared by the CLI and
/// the simulation engine.
#[derive(Debug, Clone, Copy)]
pub struct DecisionMetricIds {
    /// `vnfrel_admissions_total`
    pub admitted: MetricId,
    /// `vnfrel_rejections_total`
    pub rejected: MetricId,
    /// One labelled counter per [`RejectReason`], in `RejectReason::ALL`
    /// order.
    pub reject_by_reason: [MetricId; RejectReason::ALL.len()],
    /// `vnfrel_dual_cost` histogram over admitted requests.
    pub dual_cost: MetricId,
}

impl DecisionMetricIds {
    /// Registers the standard decision series.
    pub fn register(reg: &mut MetricsRegistry) -> Self {
        let admitted = reg.register_counter(
            "vnfrel_admissions_total",
            "Requests admitted by the scheduler",
        );
        let rejected = reg.register_counter(
            "vnfrel_rejections_total",
            "Requests rejected by the scheduler",
        );
        let reject_by_reason = RejectReason::ALL.map(|reason| {
            reg.register_counter(
                &format!(
                    "vnfrel_rejections_by_reason_total{{reason=\"{}\"}}",
                    reason.as_str()
                ),
                "Requests rejected, by classified reason",
            )
        });
        let dual_cost = reg.register_histogram(
            "vnfrel_dual_cost",
            "Dual (resource) cost of admitted requests",
            &DUAL_COST_BUCKETS,
        );
        DecisionMetricIds {
            admitted,
            rejected,
            reject_by_reason,
            dual_cost,
        }
    }

    fn reason_id(&self, reason: RejectReason) -> MetricId {
        let idx = RejectReason::ALL
            .iter()
            .position(|&r| r == reason)
            .expect("reason in ALL");
        self.reject_by_reason[idx]
    }
}

/// A [`TraceSink`] that folds decision events into a registry and then
/// forwards every event to an inner sink (default: drop).
#[derive(Debug)]
pub struct MetricsSink<'r, S: TraceSink = NoopSink> {
    registry: &'r MetricsRegistry,
    ids: DecisionMetricIds,
    inner: S,
}

impl<'r> MetricsSink<'r, NoopSink> {
    /// Metrics only, no forwarding.
    pub fn new(registry: &'r MetricsRegistry, ids: DecisionMetricIds) -> Self {
        MetricsSink {
            registry,
            ids,
            inner: NoopSink,
        }
    }
}

impl<'r, S: TraceSink> MetricsSink<'r, S> {
    /// Metrics plus forwarding to `inner` (e.g. a [`crate::JsonlSink`]).
    pub fn with_inner(registry: &'r MetricsRegistry, ids: DecisionMetricIds, inner: S) -> Self {
        MetricsSink {
            registry,
            ids,
            inner,
        }
    }

    /// Returns the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSink> TraceSink for MetricsSink<'_, S> {
    fn record(&mut self, event: TraceEvent) {
        if let TraceEvent::Decision(d) = &event {
            match &d.outcome {
                Outcome::Admit { dual_cost, .. } => {
                    self.registry.inc(self.ids.admitted);
                    self.registry.observe(self.ids.dual_cost, *dual_cost);
                }
                Outcome::Reject { reason, .. } => {
                    self.registry.inc(self.ids.rejected);
                    self.registry.inc(self.ids.reason_id(*reason));
                }
            }
        }
        if S::ENABLED {
            self.inner.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let mut reg = MetricsRegistry::new();
        let c = reg.register_counter("c_total", "a counter");
        let g = reg.register_gauge("g", "a gauge");
        reg.inc(c);
        reg.add(c, 4);
        reg.set_gauge(g, 2.5);
        assert_eq!(reg.counter_value(c), 5);
        assert_eq!(reg.gauge_value(g), 2.5);
    }

    #[test]
    fn histogram_buckets_and_prometheus_output() {
        let mut reg = MetricsRegistry::new();
        let h = reg.register_histogram("lat", "latency", &[1.0, 2.0]);
        reg.observe(h, 0.5);
        reg.observe(h, 1.5);
        reg.observe(h, 99.0);
        let (buckets, sum, count) = reg.histogram_value(h);
        assert_eq!(buckets, vec![1, 1, 1]);
        assert_eq!(count, 3);
        assert!((sum - 101.0).abs() < 1e-12);
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE lat histogram"), "{text}");
        assert!(text.contains("lat_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("lat_bucket{le=\"2\"} 2"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("lat_count 3"), "{text}");
    }

    #[test]
    fn prometheus_renders_non_finite_exposition_names() {
        // Golden conformance check for the exposition format: Rust's
        // `{}` prints `inf`/`NaN`, but Prometheus requires `+Inf`,
        // `-Inf` and `NaN` — for gauges and histogram `_sum` alike.
        let mut reg = MetricsRegistry::new();
        let pos = reg.register_gauge("g_pos", "gauge at +inf");
        let neg = reg.register_gauge("g_neg", "gauge at -inf");
        let nan = reg.register_gauge("g_nan", "gauge at nan");
        let fin = reg.register_gauge("g_fin", "finite gauge");
        let h = reg.register_histogram("h", "sum driven to +inf", &[1.0]);
        reg.set_gauge(pos, f64::INFINITY);
        reg.set_gauge(neg, f64::NEG_INFINITY);
        reg.set_gauge(nan, f64::NAN);
        reg.set_gauge(fin, 1.5);
        reg.observe(h, f64::INFINITY);
        let text = reg.to_prometheus();
        let golden = [
            "g_pos +Inf",
            "g_neg -Inf",
            "g_nan NaN",
            "g_fin 1.5",
            "h_sum +Inf",
            "h_bucket{le=\"+Inf\"} 1",
            "h_count 1",
        ];
        for line in golden {
            assert!(
                text.lines().any(|l| l == line),
                "missing golden line `{line}` in:\n{text}"
            );
        }
        // The Rust default renderings must not leak into sample lines.
        for sample in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                !sample.ends_with(" inf") && !sample.ends_with(" -inf"),
                "Rust float rendering leaked: `{sample}`"
            );
        }
    }

    #[test]
    fn labelled_family_emits_one_header() {
        let mut reg = MetricsRegistry::new();
        reg.register_counter("r_total{reason=\"a\"}", "rejections");
        reg.register_counter("r_total{reason=\"b\"}", "rejections");
        let text = reg.to_prometheus();
        assert_eq!(text.matches("# TYPE r_total counter").count(), 1, "{text}");
        assert!(text.contains("r_total{reason=\"a\"} 0"), "{text}");
    }

    #[test]
    fn jsonl_escapes_every_name_character_json_requires() {
        let mut reg = MetricsRegistry::new();
        let name = "odd\tname{k=\"v\\w\"}\u{1}";
        reg.register_counter(name, "control characters in a name");
        let line = reg.to_jsonl();
        let line = line.trim_end_matches('\n');
        assert!(
            !line.chars().any(char::is_control),
            "raw control byte: {line:?}"
        );
        let v = crate::json::parse_value(line).unwrap();
        assert_eq!(v.get("name").and_then(|n| n.as_str()), Some(name));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_histogram_bound_is_refused() {
        // Both exporters add the +Inf bucket themselves; JSONL would
        // otherwise write this bound as `inf`, which is not JSON.
        MetricsRegistry::new().register_histogram("h", "h", &[1.0, f64::INFINITY]);
    }

    #[test]
    fn shard_absorb_matches_direct_recording() {
        let mut reg = MetricsRegistry::new();
        let c = reg.register_counter("c_total", "c");
        let g = reg.register_gauge("g", "g");
        let h = reg.register_histogram("h", "h", &[1.0]);
        let mut shard = reg.shard();
        shard.inc(c);
        shard.add(c, 2);
        shard.set_gauge(g, 7.0);
        shard.observe(h, &[1.0], 0.5);
        shard.observe(h, &[1.0], 5.0);
        reg.absorb(&shard);
        assert_eq!(reg.counter_value(c), 3);
        assert_eq!(reg.gauge_value(g), 7.0);
        let (buckets, sum, count) = reg.histogram_value(h);
        assert_eq!(buckets, vec![1, 1]);
        assert_eq!(count, 2);
        assert!((sum - 5.5).abs() < 1e-12);
    }

    #[test]
    fn gauge_unset_in_shard_does_not_clobber() {
        // Regression: shards start gauges at `None`, so absorbing a
        // shard that recorded only counters must keep the registry's
        // directly-set gauge value instead of resetting it to 0.
        let mut reg = MetricsRegistry::new();
        let c = reg.register_counter("c_total", "c");
        let g = reg.register_gauge("g", "g");
        reg.set_gauge(g, 42.0);
        let mut shard = reg.shard();
        shard.inc(c);
        reg.absorb(&shard);
        assert_eq!(reg.gauge_value(g), 42.0, "unset shard gauge clobbered");
        assert_eq!(reg.counter_value(c), 1);
    }

    #[test]
    fn gauge_absorb_is_last_writer_wins() {
        // Regression: when several shards set the same gauge, the value
        // after all absorbs is the one from the shard absorbed last —
        // absorb order, not set_gauge call order, decides.
        let mut reg = MetricsRegistry::new();
        let g = reg.register_gauge("g", "g");
        let mut a = reg.shard();
        let mut b = reg.shard();
        a.set_gauge(g, 1.0);
        b.set_gauge(g, 2.0);
        // `b` set later, but `a` absorbed later → `a` wins.
        reg.absorb(&b);
        reg.absorb(&a);
        assert_eq!(reg.gauge_value(g), 1.0);
        // Repeated sets on one shard keep only the latest value.
        let mut c = reg.shard();
        c.set_gauge(g, 5.0);
        c.set_gauge(g, 9.0);
        reg.absorb(&c);
        assert_eq!(reg.gauge_value(g), 9.0);
        // And a later absorb of an unset shard leaves the winner alone.
        let d = reg.shard();
        reg.absorb(&d);
        assert_eq!(reg.gauge_value(g), 9.0);
    }

    #[test]
    fn shards_merge_from_threads() {
        let mut reg = MetricsRegistry::new();
        let c = reg.register_counter("c_total", "c");
        let reg = &reg;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    let mut shard = reg.shard();
                    for _ in 0..1000 {
                        shard.inc(c);
                    }
                    reg.absorb(&shard);
                });
            }
        });
        assert_eq!(reg.counter_value(c), 4000);
    }

    #[test]
    fn metrics_sink_classifies_decisions() {
        use crate::event::{DecisionEvent, SitePlacement};
        let mut reg = MetricsRegistry::new();
        let ids = DecisionMetricIds::register(&mut reg);
        let mut sink = MetricsSink::new(&reg, ids);
        sink.record(TraceEvent::Decision(DecisionEvent {
            request: 0,
            algorithm: "alg1-onsite".into(),
            scheme: "onsite".into(),
            slot: 0,
            payment: 5.0,
            outcome: Outcome::Admit {
                dual_cost: 1.0,
                margin: 4.0,
                sites: vec![SitePlacement {
                    cloudlet: 0,
                    instances: 2,
                    dual_cost: 1.0,
                }],
            },
        }));
        sink.record(TraceEvent::Decision(DecisionEvent {
            request: 1,
            algorithm: "alg1-onsite".into(),
            scheme: "onsite".into(),
            slot: 0,
            payment: 0.1,
            outcome: Outcome::Reject {
                reason: RejectReason::PaymentTest,
                dual_cost: Some(0.5),
                margin: Some(-0.4),
            },
        }));
        assert_eq!(reg.counter_value(ids.admitted), 1);
        assert_eq!(reg.counter_value(ids.rejected), 1);
        assert_eq!(
            reg.counter_value(ids.reason_id(RejectReason::PaymentTest)),
            1
        );
        let (_, _, count) = reg.histogram_value(ids.dual_cost);
        assert_eq!(count, 1);
    }
}
