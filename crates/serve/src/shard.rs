//! Region-sharded serving: the daemon of [`crate::daemon`] with `S`
//! lanes, each owning a disjoint slice of the cloudlet fleet.
//!
//! One decide thread's `decide()` rate is a lane's throughput ceiling.
//! [`serve_sharded`] partitions the scenario instead: cloudlet `j`
//! belongs to lane `j mod S`, and each lane runs its *own* primal-dual
//! scheduler (own `DualPrices`, own `CapacityLedger`) over a
//! sub-instance of only its cloudlets. Everything else is the daemon's;
//! this module only builds the schedulers.
//!
//! Lanes share nothing: lane `s` is Algorithm 1 or 2 over the cloudlets
//! `j ≡ s (mod S)`, fed the ids `≡ s (mod S)`, so its final state and
//! revenue are a batch `Simulation::run` over [`build_shard_instances`]`[s]`
//! and that sub-stream, to the bit, however the lanes' threads interleave.
//! What `S > 1` relaxes (DESIGN.md §14): arrival-order bit-parity with the
//! batch engine becomes *per-lane*, a request is placed on its home lane's
//! cloudlets or not at all, and snapshots and replication — which cover
//! one scheduler — are refused at start-up. `shards = 1` relaxes nothing
//! and is bit-identical to [`crate::serve`] over the same scheduler.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::thread::{Scope, ScopedJoinHandle};

use mec_obs::{DecisionCode, LastEventSink, MetricsRegistry, TraceEvent};
use mec_topology::NetworkBuilder;
use vnfrel::offsite::OffsitePrimalDual;
use vnfrel::onsite::{CapacityPolicy, OnsitePrimalDual};
use vnfrel::{OnlineScheduler, ProblemInstance, SchedulerState, Scheme};

use crate::daemon::{run, supervise, LaneCore, LaneSched, Pipeline};
use crate::error::ServeError;
use crate::metrics::ServeMetricIds;
use crate::protocol::ServeStats;

/// [`crate::ServeConfig`] under the name sharded callers know it by;
/// `shards` picks `S`.
pub type ShardedConfig = crate::daemon::ServeConfig;

/// What a completed (cleanly shut down) sharded daemon reports.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// The address actually bound.
    pub local_addr: SocketAddr,
    /// Aggregate counters over all shards.
    pub stats: ServeStats,
    /// Requests decided per shard, dense by shard index.
    pub per_shard_decided: Vec<u64>,
    /// Always 0: lanes share nothing, so no admission crosses one. Kept
    /// because the benchmark adapter reads the field.
    pub cross_shard_admits: u64,
    /// Decide threads restarted by the panic supervisor (one per
    /// `chaos-panic` frame honoured, or per genuine decide-thread bug).
    pub shard_restarts: u64,
    /// Each shard's final scheduler state, dense by shard index (local
    /// cloudlet `l` of shard `s` is global cloudlet `l·S + s`): the
    /// shard's recovery base after one last compaction.
    pub shard_states: Vec<SchedulerState>,
}

// A lane's scheduler as `serve_sharded` builds it: `Send`, and its last
// decision readable without a shared tap, as a code or as an event.
enum BuiltSched<'i> {
    Onsite(OnsitePrimalDual<'i, LastEventSink>),
    Offsite(OffsitePrimalDual<'i, LastEventSink>),
}

impl LaneSched for BuiltSched<'_> {
    fn sched(&mut self) -> &mut dyn OnlineScheduler {
        match self {
            BuiltSched::Onsite(s) => s,
            BuiltSched::Offsite(s) => s,
        }
    }

    fn take_event(&mut self) -> Option<TraceEvent> {
        match self {
            BuiltSched::Onsite(s) => s.sink_mut().take(),
            BuiltSched::Offsite(s) => s.sink_mut().take(),
        }
    }

    fn take_code(&mut self) -> Option<DecisionCode> {
        match self {
            BuiltSched::Onsite(s) => s.sink_mut().take_code(),
            BuiltSched::Offsite(s) => s.sink_mut().take_code(),
        }
    }

    fn spawn_peers<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        p: &'env Pipeline<'_, Self>,
    ) -> Vec<ScopedJoinHandle<'scope, ()>> {
        let lane =
            |s| supervise(s, p, None).expect("a built lane always records its decision event");
        (1..p.lanes.len())
            .map(|s| scope.spawn(move || lane(s)))
            .collect()
    }
}

/// The per-shard sub-instances: shard `s` holds every cloudlet `j` with
/// `j mod shards == s`, keeping its capacity and reliability; local id `l`
/// on shard `s` is global cloudlet `l·S + s`.
///
/// # Errors
///
/// [`ServeError::Config`] unless `1 <= shards <= cloudlet_count`: a shard
/// with no cloudlets cannot schedule anything.
pub fn build_shard_instances(
    instance: &ProblemInstance,
    shards: usize,
) -> Result<Vec<ProblemInstance>, ServeError> {
    let m = instance.cloudlet_count();
    if shards == 0 || shards > m {
        return Err(ServeError::Config(format!(
            "--shards must be in 1..={m} for this scenario (got {shards})"
        )));
    }
    let mut subs = Vec::with_capacity(shards);
    for s in 0..shards {
        let mut b = NetworkBuilder::new();
        for c in instance.network().cloudlets() {
            let g = c.id().index();
            if g % shards != s {
                continue;
            }
            let ap = b.add_ap(format!("shard{s}-c{g}"));
            b.add_cloudlet(ap, c.capacity(), c.reliability())
                .map_err(|e| ServeError::Config(format!("shard {s} network: {e}")))?;
        }
        let net = b
            .build()
            .map_err(|e| ServeError::Config(format!("shard {s} network: {e}")))?;
        let sub = ProblemInstance::new(net, instance.catalog().clone(), instance.horizon())
            .map_err(|e| ServeError::Config(format!("shard {s} instance: {e}")))?;
        subs.push(sub);
    }
    Ok(subs)
}

/// Runs the daemon with `config.shards` lanes over schedulers built
/// here, until a `shutdown` control message, then drains every lane
/// and returns aggregate counters.
///
/// Only the primal-dual schedulers are offered; `scheme` picks
/// Algorithm 1 (on-site) or Algorithm 2 (off-site). `on_bound` receives
/// the bound address once the listener is up.
///
/// # Errors
///
/// [`ServeError::Net`] on bind failure, [`ServeError::Config`] for an
/// invalid shard count, scheduler construction failure, or a
/// single-scheduler option (`standby`, `replicate_to`, `snapshot_path`,
/// `resume`, `trace_path`) with more than one shard.
pub fn serve_sharded(
    instance: &ProblemInstance,
    scheme: Scheme,
    registry: &MetricsRegistry,
    ids: &ServeMetricIds,
    config: &ShardedConfig,
    on_bound: Option<mpsc::Sender<SocketAddr>>,
) -> Result<ShardedReport, ServeError> {
    let subs = build_shard_instances(instance, config.shards)?;
    let mut lanes = Vec::with_capacity(subs.len());
    for (s, sub) in subs.iter().enumerate() {
        let sched = match scheme {
            Scheme::OnSite => BuiltSched::Onsite(
                OnsitePrimalDual::with_sink(sub, CapacityPolicy::Enforce, LastEventSink::new())
                    .map_err(|e| ServeError::Config(e.to_string()))?,
            ),
            Scheme::OffSite => {
                BuiltSched::Offsite(OffsitePrimalDual::with_sink(sub, LastEventSink::new()))
            }
        };
        lanes.push(LaneCore::new(sched, s));
    }
    let (report, lanes) = run(lanes, registry, ids, config, on_bound)?;
    Ok(ShardedReport {
        local_addr: report.local_addr,
        stats: report.stats,
        per_shard_decided: lanes.iter().map(|l| l.stats.decided).collect(),
        cross_shard_admits: 0,
        shard_restarts: lanes.iter().map(|l| l.restarts).sum(),
        shard_states: lanes.into_iter().map(LaneCore::into_state).collect(),
    })
}
