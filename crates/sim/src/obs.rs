//! Engine-side observability: metric handles recorded during simulation
//! runs.
//!
//! Decision *events* come from the schedulers themselves (see
//! `mec_obs::TraceSink`); what the engine adds is timing and state no
//! single decision can see — decide() latency and end-of-run per-cloudlet
//! utilization. Registration is a two-phase handshake so the hot path
//! only ever touches `&MetricsRegistry` atomics:
//!
//! ```
//! # use mec_obs::MetricsRegistry;
//! # use mec_sim::obs::{EngineMetricIds, EngineMetrics};
//! let mut registry = MetricsRegistry::new();
//! let ids = EngineMetricIds::register(&mut registry, 3); // 3 cloudlets
//! let metrics = EngineMetrics::new(&registry, ids);
//! // pass `Some(&metrics)` to `Simulation::run_ordered`
//! ```

use mec_obs::{MetricId, MetricsRegistry};

/// Latency buckets for `decide()` in seconds: 250 ns .. 100 µs. The
/// optimized schedulers sit near the bottom; anything in the top bucket
/// deserves a look.
pub const DECIDE_LATENCY_BUCKETS: [f64; 9] = [
    250e-9, 500e-9, 1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6, 50e-6, 100e-6,
];

/// Pre-registered engine series.
#[derive(Debug, Clone)]
pub struct EngineMetricIds {
    /// `vnfrel_decide_latency_seconds` histogram.
    pub decide_latency: MetricId,
    /// `vnfrel_cloudlet_utilization{cloudlet="j"}` gauge per cloudlet —
    /// mean fraction of capacity used across the horizon, set once at
    /// the end of a run.
    pub utilization: Vec<MetricId>,
}

impl EngineMetricIds {
    /// Registers the engine series for a topology with `cloudlet_count`
    /// cloudlets.
    pub fn register(reg: &mut MetricsRegistry, cloudlet_count: usize) -> Self {
        let decide_latency = reg.register_histogram(
            "vnfrel_decide_latency_seconds",
            "Wall-clock latency of one scheduler decide() call",
            &DECIDE_LATENCY_BUCKETS,
        );
        let utilization = (0..cloudlet_count)
            .map(|j| {
                reg.register_gauge(
                    &format!("vnfrel_cloudlet_utilization{{cloudlet=\"{j}\"}}"),
                    "Mean utilization of the cloudlet over the horizon",
                )
            })
            .collect();
        EngineMetricIds {
            decide_latency,
            utilization,
        }
    }
}

/// A registry handle the engine records into during a metered run.
#[derive(Debug)]
pub struct EngineMetrics<'r> {
    registry: &'r MetricsRegistry,
    ids: EngineMetricIds,
}

impl<'r> EngineMetrics<'r> {
    /// Binds pre-registered ids to their registry.
    pub fn new(registry: &'r MetricsRegistry, ids: EngineMetricIds) -> Self {
        EngineMetrics { registry, ids }
    }

    /// Records one decide() latency observation. Public so drivers
    /// other than the batch engine (the `mec-serve` daemon) can feed
    /// the same `vnfrel_decide_latency_seconds` series.
    pub fn observe_decide(&self, seconds: f64) {
        self.registry.observe(self.ids.decide_latency, seconds);
    }

    /// Sets the utilization gauge of one cloudlet (out-of-range ids are
    /// ignored). Public for the same reason as
    /// [`EngineMetrics::observe_decide`].
    pub fn set_utilization(&self, cloudlet: usize, value: f64) {
        if let Some(&id) = self.ids.utilization.get(cloudlet) {
            self.registry.set_gauge(id, value);
        }
    }

    /// Number of cloudlet utilization gauges registered.
    pub fn cloudlet_count(&self) -> usize {
        self.ids.utilization.len()
    }
}

/// Series recorded by the metered Monte-Carlo injector
/// ([`crate::failure::inject_failures_parallel`]).
#[derive(Debug, Clone, Copy)]
pub struct InjectionMetricIds {
    /// `vnfrel_injection_trials_total`: trials sampled.
    pub trials: MetricId,
    /// `vnfrel_injection_survivals_total`: request-trials in which the
    /// placement survived.
    pub survivals: MetricId,
}

impl InjectionMetricIds {
    /// Registers the injection series.
    pub fn register(reg: &mut MetricsRegistry) -> Self {
        InjectionMetricIds {
            trials: reg.register_counter(
                "vnfrel_injection_trials_total",
                "Monte-Carlo failure-injection trials sampled",
            ),
            survivals: reg.register_counter(
                "vnfrel_injection_survivals_total",
                "Request-trials in which the placement survived",
            ),
        }
    }
}
