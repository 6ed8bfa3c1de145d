//! Region-sharded serving: the daemon of [`crate::daemon`] with `S`
//! lanes, each owning a disjoint slice of the cloudlet fleet.
//!
//! One decide thread's `decide()` rate is a lane's throughput ceiling.
//! [`serve_sharded`] partitions the scenario instead: cloudlet `j`
//! belongs to lane `j mod S`, and each lane runs its *own* primal-dual
//! scheduler (own `DualPrices`, own `CapacityLedger`) over a
//! sub-instance of only its cloudlets. Everything else is the daemon's;
//! this module adds what exists because there is more than one
//! scheduler: building them, and the cross-lane rescue — when a lane's
//! own cloudlets cannot accumulate the required log-reliability, its
//! decide thread quotes the sites of every lane whose stream has reached
//! the request's arrival slot, then two-phase reserves and commits
//! capacity on the foreign ledgers (see `rescue_offsite`).
//!
//! What `S > 1` relaxes (DESIGN.md §14): arrival-order bit-parity with
//! the batch engine becomes *per-lane* arrival order, a rescue prices
//! foreign sites against `λ` that may be stale by the time it commits,
//! and snapshots and replication — which cover one scheduler — are
//! refused at start-up. `shards = 1` relaxes nothing and is bit-identical
//! to [`crate::serve`] over the same scheduler.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::thread::{Scope, ScopedJoinHandle};

use mec_obs::{DecisionEvent, LastEventSink, MetricsRegistry, Outcome, SitePlacement, TraceEvent};
use mec_topology::{CloudletId, NetworkBuilder};
use mec_workload::{Request, VnfCatalog};
use vnfrel::offsite::OffsitePrimalDual;
use vnfrel::onsite::{CapacityPolicy, OnsitePrimalDual};
use vnfrel::{OnlineScheduler, ProblemInstance, SchedulerState, Scheme};

use crate::daemon::{run, supervise, ExternalSite, LaneCore, LaneSched, Pipeline, RecoveryEntry};
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
    /// Off-site admissions completed by the cross-shard
    /// reserve/commit rescue path.
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
// decision event readable without a shared tap.
enum BuiltSched<'i> {
    Onsite(OnsitePrimalDual<'i, LastEventSink>),
    Offsite(OffsitePrimalDual<'i, LastEventSink>, &'i VnfCatalog),
}

impl LaneSched for BuiltSched<'_> {
    fn sched(&mut self) -> &mut dyn OnlineScheduler {
        match self {
            BuiltSched::Onsite(s) => s,
            BuiltSched::Offsite(s, _) => s,
        }
    }

    fn take_event(&mut self) -> Option<TraceEvent> {
        match self {
            BuiltSched::Onsite(s) => s.sink_mut().take(),
            BuiltSched::Offsite(s, _) => s.sink_mut().take(),
        }
    }

    fn recycle(&mut self, event: DecisionEvent) {
        match self {
            BuiltSched::Onsite(s) => s.sink_mut().recycle(event),
            BuiltSched::Offsite(s, _) => s.sink_mut().recycle(event),
        }
    }

    fn rescues(&self) -> bool {
        matches!(self, BuiltSched::Offsite(..))
    }

    fn rescue(home: usize, request: &Request, p: &Pipeline<'_, Self>) -> Option<DecisionEvent> {
        rescue_offsite(home, request, p)
    }

    fn apply_external(&mut self, site: &ExternalSite) {
        let BuiltSched::Offsite(s, _) = self else {
            unreachable!("external sites only exist in off-site mode");
        };
        s.ledger_mut()
            .charge(site.local, site.first..site.last + 1, site.compute);
        price_external(s, site);
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

// The per-shard sub-instances: shard `s` holds every cloudlet `j` with
// `j mod shards == s`, keeping its capacity and reliability; local id `l`
// on shard `s` is global cloudlet `l·S + s`. A shard with no cloudlets
// cannot schedule anything, hence the bound on `shards`.
fn build_shard_instances(
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
            Scheme::OffSite => BuiltSched::Offsite(
                OffsitePrimalDual::with_sink(sub, LastEventSink::new()),
                sub.catalog(),
            ),
        };
        lanes.push(LaneCore::new(sched, s));
    }
    let (report, lanes) = run(lanes, registry, ids, config, on_bound)?;
    Ok(ShardedReport {
        local_addr: report.local_addr,
        stats: report.stats,
        per_shard_decided: lanes.iter().map(|l| l.stats.decided).collect(),
        cross_shard_admits: lanes.iter().map(|l| l.rescued).sum(),
        shard_restarts: lanes.iter().map(|l| l.restarts).sum(),
        shard_states: lanes.into_iter().map(LaneCore::into_state).collect(),
    })
}

// The owner's Eq. 67 price update for a site a foreign rescue charged.
fn price_external(sched: &mut OffsitePrimalDual<'_, LastEventSink>, site: &ExternalSite) {
    sched.record_external_site(
        site.local,
        (site.first, site.last),
        site.compute,
        site.ln_coef,
        site.ln_target,
        site.payment,
    );
}

// A quoted off-site candidate during a cross-shard rescue.
struct RescueSite {
    shard: usize,
    local: CloudletId,
    global: usize,
    ratio: f64,
    ln_coef: f64,
}

// The cross-shard rescue: Algorithm 2's selection re-run over the whole
// fleet with two-phase capacity holds, one lane lock at a time.
//
// 1. *Quote* (read-only): every cloudlet's price ratio and
//    ln-coefficient, filtered by `pay + ln_target·compute·ratio > 0`.
// 2. *Reserve*: scan survivors in (ratio, global id) order;
//    `try_reserve_window` re-checks capacity under the owner's lock and
//    places a hold, until `Σ ln_coef` reaches `ln_target = ln(1 − R_i)`.
// 3. *Commit or cancel*: every hold becomes a charge and the owner's
//    prices take the Eq. 67 update, or every hold is cancelled.
//
// Prices quoted in step 1 may be stale by step 3 (the documented
// relaxation); capacity is never oversubscribed, the reserve re-checks it.
fn rescue_offsite(
    home: usize,
    request: &Request,
    p: &Pipeline<'_, BuiltSched<'_>>,
) -> Option<DecisionEvent> {
    let shards = p.lanes.len();
    let vnf = request.vnf();
    let first = request.arrival();
    let last = first + request.duration() - 1;
    let payment = request.payment();
    let ln_target = request.reliability_requirement().ln_failure();
    let compute = match &p.lanes[home].lock().unwrap().sched {
        BuiltSched::Offsite(_, catalog) => catalog.get(vnf)?.compute() as f64,
        BuiltSched::Onsite(_) => return None,
    };

    // Phase 1. A shard whose frontier is behind this request's arrival
    // has not been offered the window yet — its prices there are still
    // zero, whatever its own stream is about to ask of them — so its
    // quote would sell the slower shard's future at no price. Skip it.
    let mut sites: Vec<RescueSite> = Vec::new();
    for (s, lane) in p.lanes.iter().enumerate() {
        let core = lane.lock().unwrap();
        if core.frontier < first {
            continue;
        }
        let BuiltSched::Offsite(sched, _) = &core.sched else {
            return None;
        };
        for l in 0..sched.ledger().cloudlet_count() {
            let local = CloudletId(l);
            let (ratio, ln_coef) = sched.site_quote(vnf, local, first, last);
            if payment + ln_target * compute * ratio > 0.0 {
                sites.push(RescueSite {
                    shard: s,
                    local,
                    global: l * shards + s,
                    ratio,
                    ln_coef,
                });
            }
        }
    }
    // The home shard just failed on its own sites under a looser target:
    // without a foreign quote there is nothing to add.
    if sites.iter().all(|site| site.shard == home) {
        return None;
    }
    sites.sort_by(|a, b| {
        a.ratio
            .partial_cmp(&b.ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.global.cmp(&b.global))
    });

    // Phase 2: reserve until the log-reliability target is met.
    let mut ln_sum = 0.0f64;
    let mut held: Vec<(vnfrel::ReservationId, RescueSite)> = Vec::new();
    for site in sites {
        if ln_sum <= ln_target {
            break;
        }
        let mut core = p.lanes[site.shard].lock().unwrap();
        let ledger = core.sched.sched().ledger_mut();
        if let Some(rid) = ledger.try_reserve_window(site.local, first, last, compute) {
            ln_sum += site.ln_coef;
            drop(core);
            held.push((rid, site));
        }
    }

    if ln_sum > ln_target {
        // Unreachable target: cancel every hold, reject.
        for (rid, site) in held {
            let mut core = p.lanes[site.shard].lock().unwrap();
            core.sched
                .sched()
                .ledger_mut()
                .cancel_reservation(rid)
                .expect("rescue holds are cancelled exactly once");
        }
        return None;
    }

    // Phase 3: commit every hold and bring the owners' prices in line.
    let mut placements: Vec<SitePlacement> = Vec::with_capacity(held.len());
    let mut total_cost = 0.0f64;
    let mut worst_ratio = 0.0f64;
    for (rid, site) in held {
        let mut core = p.lanes[site.shard].lock().unwrap();
        let BuiltSched::Offsite(sched, _) = &mut core.sched else {
            unreachable!("rescue only runs in off-site mode");
        };
        sched
            .ledger_mut()
            .commit_reservation(rid)
            .expect("rescue holds are committed exactly once");
        let charged = ExternalSite {
            local: site.local,
            first,
            last,
            compute,
            ln_coef: site.ln_coef,
            ln_target,
            payment,
        };
        price_external(sched, &charged);
        // Logged under the owner's lock, so a panicked owner replays it.
        core.suffix.push(RecoveryEntry::External(charged));
        let dual_cost = site.ratio * (-site.ln_coef);
        total_cost += dual_cost;
        worst_ratio = worst_ratio.max(site.ratio);
        placements.push(SitePlacement {
            cloudlet: site.global,
            instances: 1,
            dual_cost,
        });
    }
    Some(DecisionEvent {
        request: request.id().index(),
        algorithm: "alg2-primal-dual".to_string(),
        scheme: "offsite".to_string(),
        slot: request.arrival(),
        payment,
        outcome: Outcome::Admit {
            dual_cost: total_cost,
            // Algorithm 2's margin is its δ_i bookkeeping value (Eq. 66,
            // computed from the worst accepted ratio), not pay − cost.
            margin: payment + ln_target * compute * worst_ratio,
            sites: placements,
        },
    })
}
