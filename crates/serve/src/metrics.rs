//! Metric series exported by the daemon at `GET /metrics`.
//!
//! The daemon reuses the decision series ([`DecisionMetricIds`]) and the
//! engine series ([`EngineMetricIds`], decide-latency + per-cloudlet
//! utilization) so the same dashboards work for batch runs and the
//! daemon, and adds serving-specific counters and gauges.

use mec_obs::{DecisionMetricIds, MetricId, MetricsRegistry, PipelineStage};
use mec_sim::obs::EngineMetricIds;

/// Buckets for end-to-end admission latency (socket read → decision
/// written) in seconds: 5 µs .. 100 ms.
pub const ADMISSION_LATENCY_BUCKETS: [f64; 9] = [
    5e-6, 10e-6, 25e-6, 50e-6, 100e-6, 1e-3, 10e-3, 50e-3, 100e-3,
];

/// Log-spaced buckets for per-stage pipeline latency in seconds:
/// powers of four from 1 µs to 64 ms, so each bucket covers a constant
/// ratio and the fast stages (parse, dispatch) resolve as finely as the
/// slow ones (queue wait, repl-ack wait).
pub const STAGE_LATENCY_BUCKETS: [f64; 9] =
    [1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3];

/// Per-shard, per-stage pipeline latency histograms:
/// `vnfrel_serve_stage_seconds{shard="s",stage="name"}`.
///
/// Recording goes through the registry's lock-free atomics, so stage
/// histograms are always on; only the per-event trace samples sit
/// behind the `TraceSink::ENABLED` compile-time guard.
#[derive(Debug, Clone)]
pub struct StageIds {
    shards: Vec<[MetricId; PipelineStage::COUNT]>,
}

impl StageIds {
    /// Registers one histogram per (shard, stage) pair.
    pub fn register(reg: &mut MetricsRegistry, shards: usize) -> Self {
        let shards = (0..shards.max(1))
            .map(|s| {
                std::array::from_fn(|i| {
                    let stage = PipelineStage::ALL[i];
                    reg.register_histogram(
                        &format!(
                            "vnfrel_serve_stage_seconds{{shard=\"{s}\",stage=\"{}\"}}",
                            stage.as_str()
                        ),
                        "Latency of one serving pipeline stage",
                        &STAGE_LATENCY_BUCKETS,
                    )
                })
            })
            .collect();
        StageIds { shards }
    }

    /// Number of shards registered.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The histogram id for one (shard, stage) pair.
    pub fn id(&self, shard: usize, stage: PipelineStage) -> MetricId {
        self.shards[shard][stage.index()]
    }

    /// Records one stage latency observation in seconds.
    #[inline]
    pub fn observe(&self, reg: &MetricsRegistry, shard: usize, stage: PipelineStage, secs: f64) {
        reg.observe(self.shards[shard][stage.index()], secs);
    }

    /// [`StageIds::observe`] taking nanoseconds, the unit
    /// [`mec_obs::StageClock`] laps in.
    #[inline]
    pub fn observe_ns(&self, reg: &MetricsRegistry, shard: usize, stage: PipelineStage, ns: u64) {
        self.observe(reg, shard, stage, ns as f64 * 1e-9);
    }
}

/// Per-shard ingress-lane series:
/// `vnfrel_serve_shard_queue_depth{shard="s"}` (gauge),
/// `vnfrel_serve_shard_shed_total{shard="s"}` (counter: frames dropped
/// by backpressure), and `vnfrel_serve_shard_backpressure{shard="s"}`
/// (gauge: queue fill fraction in `[0, 1]`).
#[derive(Debug, Clone)]
pub struct ShardLaneIds {
    /// Current queue depth gauge, one per shard.
    pub queue_depth: Vec<MetricId>,
    /// Backpressure-drop counter, one per shard.
    pub shed: Vec<MetricId>,
    /// Queue fill fraction gauge (depth / capacity), one per shard.
    pub backpressure: Vec<MetricId>,
}

impl ShardLaneIds {
    /// Registers the three per-shard series.
    pub fn register(reg: &mut MetricsRegistry, shards: usize) -> Self {
        let shards = shards.max(1);
        ShardLaneIds {
            queue_depth: (0..shards)
                .map(|s| {
                    reg.register_gauge(
                        &format!("vnfrel_serve_shard_queue_depth{{shard=\"{s}\"}}"),
                        "Current depth of one shard's ingress queue",
                    )
                })
                .collect(),
            shed: (0..shards)
                .map(|s| {
                    reg.register_counter(
                        &format!("vnfrel_serve_shard_shed_total{{shard=\"{s}\"}}"),
                        "Frames dropped by one shard's backpressure",
                    )
                })
                .collect(),
            backpressure: (0..shards)
                .map(|s| {
                    reg.register_gauge(
                        &format!("vnfrel_serve_shard_backpressure{{shard=\"{s}\"}}"),
                        "Fill fraction of one shard's ingress queue (depth / capacity)",
                    )
                })
                .collect(),
        }
    }

    /// Number of shards registered.
    pub fn shard_count(&self) -> usize {
        self.queue_depth.len()
    }

    /// Sets the depth and fill-fraction gauges for one shard.
    #[inline]
    pub fn set_depth(&self, reg: &MetricsRegistry, shard: usize, depth: usize, capacity: usize) {
        reg.set_gauge(self.queue_depth[shard], depth as f64);
        reg.set_gauge(
            self.backpressure[shard],
            depth as f64 / capacity.max(1) as f64,
        );
    }
}

/// Pre-registered daemon series.
#[derive(Debug, Clone)]
pub struct ServeMetricIds {
    /// Shared decision series (admissions, rejections by reason, dual
    /// cost).
    pub decisions: DecisionMetricIds,
    /// Shared engine series (decide latency, per-cloudlet utilization).
    pub engine: EngineMetricIds,
    /// `vnfrel_serve_submitted_total`: submit lines accepted off sockets.
    pub submitted: MetricId,
    /// `vnfrel_serve_overload_total`: submissions dropped by backpressure.
    pub overloads: MetricId,
    /// `vnfrel_serve_protocol_errors_total`: unparseable/invalid lines.
    pub protocol_errors: MetricId,
    /// `vnfrel_serve_connections_total`: connections served.
    pub connections: MetricId,
    /// `vnfrel_serve_slot`: the virtual slot clock (gauge).
    pub slot: MetricId,
    /// `vnfrel_serve_queue_depth`: ingress queue depth (gauge).
    pub queue_depth: MetricId,
    /// `vnfrel_serve_admission_latency_seconds`: enqueue → reply written.
    pub admission_latency: MetricId,
    /// `vnfrel_serve_epoch`: current fencing epoch (gauge).
    pub epoch: MetricId,
    /// `vnfrel_serve_is_primary`: 1 when primary, 0 when standby (gauge).
    pub is_primary: MetricId,
    /// `vnfrel_serve_repl_sent_seq`: highest log position written to the
    /// standby socket (gauge, primary side).
    pub repl_sent_seq: MetricId,
    /// `vnfrel_serve_repl_acked_seq`: highest log position the standby
    /// acknowledged (gauge, primary side).
    pub repl_acked_seq: MetricId,
    /// `vnfrel_serve_repl_lag`: `sent_seq − acked_seq` (gauge).
    pub repl_lag: MetricId,
    /// `vnfrel_serve_repl_applied_total`: replication frames applied
    /// (standby side).
    pub repl_applied: MetricId,
    /// `vnfrel_serve_repl_snapshots_total`: full-state catch-up
    /// snapshots sent or imported.
    pub repl_snapshots: MetricId,
    /// `vnfrel_serve_repl_refusals_total`: frames refused for a
    /// sequence gap.
    pub repl_refusals: MetricId,
    /// `vnfrel_serve_repl_reconnects`: successful re-handshakes after
    /// the first connect (gauge, mirrored from the sender).
    pub repl_reconnects: MetricId,
    /// `vnfrel_serve_fenced_total`: stale-epoch peers refused.
    pub fenced_peers: MetricId,
    /// `vnfrel_serve_dedupe_hits_total`: resubmits answered from the
    /// recent-decision ring instead of re-deciding.
    pub dedupe_hits: MetricId,
    /// `vnfrel_serve_not_primary_total`: submits refused because this
    /// node is a standby.
    pub not_primary: MetricId,
    /// `vnfrel_serve_snapshot_age_seconds`: seconds since the last
    /// snapshot write (gauge; `-1` until the first snapshot).
    pub snapshot_age: MetricId,
    /// `vnfrel_serve_repl_lag_seconds`: age of the oldest
    /// sent-but-unacked replication frame (gauge; 0 when fully acked).
    pub repl_lag_seconds: MetricId,
    /// `vnfrel_serve_repl_ack_wait_seconds`: time a reply waited for
    /// the standby's ack before release (histogram).
    pub repl_ack_wait: MetricId,
    /// Per-shard, per-stage pipeline latency histograms.
    pub stage: StageIds,
    /// Per-shard ingress-lane depth/shed/backpressure series.
    pub lanes: ShardLaneIds,
}

impl ServeMetricIds {
    /// Registers every daemon series for a topology with
    /// `cloudlet_count` cloudlets (single-shard serving tier).
    pub fn register(reg: &mut MetricsRegistry, cloudlet_count: usize) -> Self {
        Self::register_sharded(reg, cloudlet_count, 1)
    }

    /// [`ServeMetricIds::register`] for a sharded serving tier: the
    /// stage histograms and ingress-lane series get one instance per
    /// shard, labelled `shard="0"` .. `shard="S-1"`.
    pub fn register_sharded(
        reg: &mut MetricsRegistry,
        cloudlet_count: usize,
        shards: usize,
    ) -> Self {
        ServeMetricIds {
            decisions: DecisionMetricIds::register(reg),
            engine: EngineMetricIds::register(reg, cloudlet_count),
            submitted: reg.register_counter(
                "vnfrel_serve_submitted_total",
                "Submit lines accepted off client sockets",
            ),
            overloads: reg.register_counter(
                "vnfrel_serve_overload_total",
                "Submissions dropped because the ingress queue was full",
            ),
            protocol_errors: reg.register_counter(
                "vnfrel_serve_protocol_errors_total",
                "Client lines that failed to parse or validate",
            ),
            connections: reg.register_counter(
                "vnfrel_serve_connections_total",
                "Client connections served",
            ),
            slot: reg.register_gauge("vnfrel_serve_slot", "Virtual slot clock of the daemon"),
            queue_depth: reg.register_gauge(
                "vnfrel_serve_queue_depth",
                "Current depth of the ingress queue",
            ),
            admission_latency: reg.register_histogram(
                "vnfrel_serve_admission_latency_seconds",
                "End-to-end latency from socket read to decision written",
                &ADMISSION_LATENCY_BUCKETS,
            ),
            epoch: reg.register_gauge("vnfrel_serve_epoch", "Current fencing epoch"),
            is_primary: reg.register_gauge(
                "vnfrel_serve_is_primary",
                "1 when this node is primary, 0 when standby",
            ),
            repl_sent_seq: reg.register_gauge(
                "vnfrel_serve_repl_sent_seq",
                "Highest replication log position written to the standby socket",
            ),
            repl_acked_seq: reg.register_gauge(
                "vnfrel_serve_repl_acked_seq",
                "Highest replication log position acknowledged by the standby",
            ),
            repl_lag: reg.register_gauge(
                "vnfrel_serve_repl_lag",
                "Replication lag in log entries (sent minus acked)",
            ),
            repl_applied: reg.register_counter(
                "vnfrel_serve_repl_applied_total",
                "Replication frames applied against local state",
            ),
            repl_snapshots: reg.register_counter(
                "vnfrel_serve_repl_snapshots_total",
                "Full-state catch-up snapshots sent or imported",
            ),
            repl_refusals: reg.register_counter(
                "vnfrel_serve_repl_refusals_total",
                "Replication frames refused for a sequence gap",
            ),
            repl_reconnects: reg.register_gauge(
                "vnfrel_serve_repl_reconnects",
                "Successful replication re-handshakes after the first connect",
            ),
            fenced_peers: reg.register_counter(
                "vnfrel_serve_fenced_total",
                "Stale-epoch replication peers refused",
            ),
            dedupe_hits: reg.register_counter(
                "vnfrel_serve_dedupe_hits_total",
                "Resubmits answered from the recent-decision ring",
            ),
            not_primary: reg.register_counter(
                "vnfrel_serve_not_primary_total",
                "Submits refused because this node is a standby",
            ),
            snapshot_age: reg.register_gauge(
                "vnfrel_serve_snapshot_age_seconds",
                "Seconds since the last snapshot write (-1 until the first)",
            ),
            repl_lag_seconds: reg.register_gauge(
                "vnfrel_serve_repl_lag_seconds",
                "Age of the oldest sent-but-unacked replication frame",
            ),
            repl_ack_wait: reg.register_histogram(
                "vnfrel_serve_repl_ack_wait_seconds",
                "Time a reply waited for the standby's ack before release",
                &ADMISSION_LATENCY_BUCKETS,
            ),
            stage: StageIds::register(reg, shards),
            lanes: ShardLaneIds::register(reg, shards),
        }
    }

    /// Records one pipeline-stage latency in nanoseconds (the unit
    /// [`mec_obs::StageClock`] laps in) against the shard's histogram.
    #[inline]
    pub fn observe_stage_ns(
        &self,
        reg: &MetricsRegistry,
        shard: usize,
        stage: PipelineStage,
        ns: u64,
    ) {
        self.stage.observe_ns(reg, shard, stage, ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_exports_all_series() {
        let mut reg = MetricsRegistry::new();
        let ids = ServeMetricIds::register(&mut reg, 2);
        reg.inc(ids.submitted);
        reg.set_gauge(ids.slot, 3.0);
        reg.observe(ids.admission_latency, 20e-6);
        let text = reg.to_prometheus();
        for name in SERIES {
            assert!(text.contains(name), "missing series {name} in:\n{text}");
        }
    }

    #[test]
    fn serve_exports_no_series_beyond_these() {
        // With the test above, exact: a series whose code is gone (the
        // replies-released-without-replication gauge, say) fails here.
        let mut reg = MetricsRegistry::new();
        ServeMetricIds::register(&mut reg, 1);
        let text = reg.to_prometheus();
        let exported = text
            .lines()
            .filter(|l| l.starts_with("# TYPE vnfrel_serve_"));
        let listed = SERIES.iter().filter(|n| n.starts_with("vnfrel_serve_"));
        assert_eq!(
            exported.count(),
            listed.count(),
            "unlisted series in:\n{text}"
        );
    }

    // One series of every family the daemon exports.
    const SERIES: [&str; 29] = [
        "vnfrel_admissions_total",
        "vnfrel_decide_latency_seconds",
        "vnfrel_cloudlet_utilization",
        "vnfrel_serve_submitted_total",
        "vnfrel_serve_overload_total",
        "vnfrel_serve_protocol_errors_total",
        "vnfrel_serve_connections_total",
        "vnfrel_serve_slot",
        "vnfrel_serve_queue_depth",
        "vnfrel_serve_admission_latency_seconds",
        "vnfrel_serve_epoch",
        "vnfrel_serve_is_primary",
        "vnfrel_serve_repl_sent_seq",
        "vnfrel_serve_repl_acked_seq",
        "vnfrel_serve_repl_lag",
        "vnfrel_serve_repl_applied_total",
        "vnfrel_serve_repl_snapshots_total",
        "vnfrel_serve_repl_refusals_total",
        "vnfrel_serve_repl_reconnects",
        "vnfrel_serve_fenced_total",
        "vnfrel_serve_dedupe_hits_total",
        "vnfrel_serve_not_primary_total",
        "vnfrel_serve_snapshot_age_seconds",
        "vnfrel_serve_repl_lag_seconds",
        "vnfrel_serve_repl_ack_wait_seconds",
        "vnfrel_serve_stage_seconds_sum{shard=\"0\",stage=\"decide\"}",
        "vnfrel_serve_shard_queue_depth{shard=\"0\"}",
        "vnfrel_serve_shard_shed_total{shard=\"0\"}",
        "vnfrel_serve_shard_backpressure{shard=\"0\"}",
    ];

    #[test]
    fn sharded_registration_covers_every_shard_and_stage() {
        let mut reg = MetricsRegistry::new();
        let ids = ServeMetricIds::register_sharded(&mut reg, 2, 3);
        assert_eq!(ids.stage.shard_count(), 3);
        assert_eq!(ids.lanes.shard_count(), 3);
        for shard in 0..3 {
            for stage in PipelineStage::ALL {
                ids.observe_stage_ns(&reg, shard, stage, 2_000);
            }
            ids.lanes.set_depth(&reg, shard, 5, 10);
        }
        let (buckets, _, count) = reg.histogram_value(ids.stage.id(2, PipelineStage::ReplyWrite));
        assert_eq!(count, 1);
        assert_eq!(buckets.iter().sum::<u64>(), 1);
        assert_eq!(reg.gauge_value(ids.lanes.backpressure[1]), 0.5);
        let text = reg.to_prometheus();
        for shard in 0..3 {
            for stage in PipelineStage::ALL {
                // Histograms render with the suffix spliced before the
                // label set: `…_sum{shard="0",stage="decide"}`.
                let name = format!(
                    "vnfrel_serve_stage_seconds_sum{{shard=\"{shard}\",stage=\"{}\"}}",
                    stage.as_str()
                );
                assert!(text.contains(&name), "missing {name}");
            }
        }
    }
}
