//! Region-sharded serving: S decide threads, each owning a disjoint
//! slice of the cloudlet fleet, behind one listener.
//!
//! The single-shard daemon ([`crate::daemon::serve`]) funnels every
//! request through one decide thread — that thread's `decide()` rate is
//! the throughput ceiling. This module removes the funnel by
//! partitioning the scenario: cloudlet `j` belongs to shard `j mod S`,
//! and each shard runs its *own* primal-dual scheduler (own
//! `DualPrices`, own `CapacityLedger`) over a sub-instance containing
//! only its cloudlets. Requests route to shard `id mod S`; a worker
//! splits v3 batch frames into per-shard parts that scatter to the
//! shard queues and gather into one reply.
//!
//! ```text
//! accept ─► conns ─► workers ──► BoundedQueue[0] ─► shard thread 0
//!                       │  split  BoundedQueue[1] ─► shard thread 1
//!                       └───────► BoundedQueue[S-1] ─► shard thread S-1
//! ```
//!
//! Off-site placements may span shards: when a shard's local cloudlets
//! cannot accumulate the required log-reliability, the shard thread runs
//! a *cross-shard rescue* — quote the sites of every shard whose stream
//! has reached the request's arrival slot (one lock at a time), sort by
//! price ratio, then two-phase reserve/commit capacity on
//! the foreign ledgers ([`CapacityLedger::try_reserve_window`] /
//! [`CapacityLedger::commit_reservation`]). Reservations re-check
//! capacity under the owner's lock, so concurrent rescues can never
//! double-charge a cell; an abandoned rescue cancels every hold.
//!
//! What sharding deliberately relaxes (DESIGN.md §14): global
//! arrival-order bit-parity with the batch engine becomes *per-shard*
//! arrival order; single-shard closed-loop mode (`--shards 1`, the plain
//! daemon) remains the bit-parity reference. Snapshots, replication and
//! the dedupe ring are not offered here — sharded serving is the
//! saturation-throughput tier, not the durability tier.

use std::io::{self, BufRead as _, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use mec_obs::{
    DecisionEvent, LastEventSink, MetricsRegistry, Outcome, PipelineStage, RejectReason,
    SitePlacement, StageClock, TraceEvent,
};
use mec_topology::{CloudletId, NetworkBuilder};
use mec_workload::{Horizon, Request, RequestId, VnfTypeId};
use vnfrel::offsite::OffsitePrimalDual;
use vnfrel::onsite::{CapacityPolicy, OnsitePrimalDual};
use vnfrel::{OnlineScheduler, ProblemInstance, SchedulerState, Scheme};

use crate::daemon::{
    accept_loop, is_timeout, oversized, serve_http, write_line, write_line_buf, Role, WRITE_TIMEOUT,
};
use crate::error::ServeError;
use crate::flight::{SharedFlight, FLIGHT_CAPACITY};
use crate::metrics::ServeMetricIds;
use crate::pool::BoundedQueue;
use crate::protocol::{
    encode_batch_reply_into, encode_server, is_batch_frame, parse_batch_into, parse_client,
    ClientMsg, ControlAck, ControlAction, OverloadReject, ServeStats, ServerMsg, SubmitRequest,
    BATCH_ADMIT, BATCH_ERROR, BATCH_OVERLOAD, BATCH_REJECT, MAX_LINE_BYTES,
};
use crate::status::StatusShared;

/// How the sharded tier listens and partitions.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Listen address; port 0 picks a free port (reported via
    /// `on_bound` and [`ShardedReport::local_addr`]).
    pub addr: String,
    /// Number of shards `S` (decide threads). Must be in
    /// `1..=cloudlet_count`.
    pub shards: usize,
    /// Per-shard ingress queue bound; batch parts beyond it answer
    /// overload codes.
    pub queue_capacity: usize,
    /// Connection-handling worker threads.
    pub workers: usize,
    /// Directory the per-shard flight-recorder rings dump into on a
    /// `dump-flight` control frame (`flight-<epoch>-<shard>.jsonl`).
    /// `None` disables the recorders entirely.
    pub flight_dir: Option<PathBuf>,
}

impl ShardedConfig {
    /// Conservative defaults on `addr`.
    pub fn new(addr: impl Into<String>) -> Self {
        ShardedConfig {
            addr: addr.into(),
            shards: 2,
            queue_capacity: 1024,
            workers: 4,
            flight_dir: None,
        }
    }
}

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

// Aggregate counters shared by every shard thread and the workers.
// Plain atomics; revenue is f64 so it sits behind a Mutex (uncontended:
// touched once per admission).
struct Aggregate {
    decided: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    overloaded: AtomicU64,
    cross_shard_admits: AtomicU64,
    restarts: AtomicU64,
    revenue: Mutex<f64>,
    per_shard_decided: Vec<AtomicU64>,
}

impl Aggregate {
    fn new(shards: usize) -> Self {
        Aggregate {
            decided: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            cross_shard_admits: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            revenue: Mutex::new(0.0),
            per_shard_decided: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn stats(&self) -> ServeStats {
        ServeStats {
            decided: self.decided.load(Ordering::Acquire),
            admitted: self.admitted.load(Ordering::Acquire),
            rejected: self.rejected.load(Ordering::Acquire),
            overloaded: self.overloaded.load(Ordering::Acquire),
            revenue: *self.revenue.lock().unwrap(),
        }
    }
}

// One v3 batch frame in flight across shards: each per-shard part fills
// its positions in `codes`; the part that drops `remaining` to zero
// encodes and writes the single reply.
struct BatchGather {
    conn: Arc<Mutex<TcpStream>>,
    seq: u64,
    // Pre-filled with BATCH_OVERLOAD so parts bounced off a full shard
    // queue answer overload without any extra bookkeeping.
    codes: Vec<AtomicU8>,
    remaining: AtomicUsize,
}

impl BatchGather {
    fn finish_part(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let codes: Vec<u8> = self
                .codes
                .iter()
                .map(|c| c.load(Ordering::Acquire))
                .collect();
            let mut buf = String::with_capacity(48 + 2 * codes.len());
            encode_batch_reply_into(&mut buf, self.seq, &codes);
            let _ = write_line_buf(&self.conn, &mut buf);
        }
    }
}

enum ShardItem {
    // A single v2 frame routed to its home shard; answered with a full
    // decision line (sites remapped to global cloudlet ids).
    Submit {
        msg: SubmitRequest,
        conn: Arc<Mutex<TcpStream>>,
        enqueued: Instant,
    },
    // This shard's slice of a batch frame: (position in the frame,
    // request) pairs.
    BatchPart {
        gather: Arc<BatchGather>,
        reqs: Vec<(usize, SubmitRequest)>,
        enqueued: Instant,
    },
    // Injected by the `chaos-panic` control frame: the decide thread
    // panics when it dequeues this, at a message boundary (no shard lock
    // held, so nothing is poisoned), and the supervisor heals it.
    Panic,
}

// One shard's schedulers are the only `!Sync` state; everything routes
// through this mutex. The owner thread takes it uncontended — foreign
// threads touch it only on the (rare) cross-shard rescue path.
struct ShardCore<'a> {
    scheduler: ShardSched<'a>,
    // Lowest global id this shard still accepts. Ids in shard `s`'s
    // residue class (id mod S == s) must arrive monotonically, but gaps
    // are legal — an overloaded frame's ids are simply skipped, which is
    // what lets the open-loop driver keep going at saturation.
    next_id: usize,
    // Arrival slot of the last request this shard decided: how far into
    // the stream's time its prices and ledger have been driven. A
    // cross-shard rescue only quotes shards whose frontier has reached
    // the request's arrival (see `rescue_offsite`).
    frontier: usize,
    recovery: ShardRecovery,
}

// Decisions between recovery-base compactions; bounds the replay a
// panicked shard performs to at most this many re-decides.
const RECOVERY_COMPACT: usize = 64;

// The shard's in-memory crash-consistency log: a periodically compacted
// base state plus the operations applied since, kept under the shard
// lock so it is always exactly in step with the scheduler. After a
// decide-thread panic the supervisor rebuilds the scheduler from `base`
// and replays the suffix — the schedulers are deterministic, so the
// rebuilt state (and every future decision) is bit-identical to a run
// that never panicked.
struct ShardRecovery {
    base: SchedulerState,
    base_next_id: usize,
    base_frontier: usize,
    suffix: Vec<RecoveryEntry>,
}

enum RecoveryEntry {
    // A request decided locally under the home lock; replay re-decides
    // it (same state + same input ⇒ same mutation and outcome).
    Local(SubmitRequest),
    // A cross-shard rescue committed capacity on this shard's ledger and
    // updated its prices via `record_external_site`; replay re-applies
    // both directly (the rescuing request lives on another shard).
    External {
        local: CloudletId,
        first: usize,
        last: usize,
        compute: f64,
        ln_coef: f64,
        ln_target: f64,
        payment: f64,
    },
}

impl<'i> ShardCore<'i> {
    // Logs one locally-decided request and compacts the recovery base
    // once the suffix is long enough. Called under the shard lock right
    // after the decide, so a compaction here captures exactly
    // base + suffix.
    fn note_local(&mut self, msg: &SubmitRequest) {
        self.recovery.suffix.push(RecoveryEntry::Local(*msg));
        if self.recovery.suffix.len() >= RECOVERY_COMPACT {
            self.compact();
        }
    }

    // Folds the suffix into the recovery base. The suffix *is* the dirty
    // log: every grid cell that moved since the last compaction lies in
    // the window of one of its entries, so the base is refreshed in
    // place over the slot span those windows cover rather than
    // re-exported over the whole horizon.
    fn compact(&mut self) {
        let span = self
            .recovery
            .suffix
            .iter()
            .map(|entry| match entry {
                RecoveryEntry::Local(msg) => (msg.arrival, msg.arrival + msg.duration - 1),
                RecoveryEntry::External { first, last, .. } => (*first, *last),
            })
            .reduce(|(a, b), (first, last)| (a.min(first), b.max(last)));
        if let Some((first, last)) = span {
            self.scheduler
                .export_state_span(&mut self.recovery.base, first, last);
        }
        debug_assert_eq!(self.recovery.base, self.scheduler.export_state());
        self.recovery.base_next_id = self.next_id;
        self.recovery.base_frontier = self.frontier;
        self.recovery.suffix.clear();
    }

    // Rebuilds the scheduler after a panic: fresh construction over the
    // same sub-instance, import the recovery base, replay the suffix.
    // Returns how many suffix entries were replayed.
    fn restore(
        &mut self,
        sub: &'i ProblemInstance,
        scheme: Scheme,
        horizon: Horizon,
        shards: usize,
    ) -> usize {
        let mut sched = build_sched(sub, scheme)
            .expect("this shard's scheduler was already built once from this sub-instance");
        sched
            .import_state(&self.recovery.base)
            .expect("the recovery base came from an identically-built scheduler");
        self.next_id = self.recovery.base_next_id;
        self.frontier = self.recovery.base_frontier;
        let replayed = self.recovery.suffix.len();
        for entry in &self.recovery.suffix {
            match entry {
                RecoveryEntry::Local(msg) => {
                    self.next_id = msg.id + shards;
                    self.frontier = msg.arrival;
                    let request = build_request(msg, horizon)
                        .expect("suffix requests were validated before their first decide");
                    let _ = sched.decide_take(&request);
                }
                RecoveryEntry::External {
                    local,
                    first,
                    last,
                    compute,
                    ln_coef,
                    ln_target,
                    payment,
                } => {
                    let ShardSched::Offsite(s) = &mut sched else {
                        unreachable!("external sites only exist in off-site mode");
                    };
                    s.ledger_mut().charge(*local, *first..*last + 1, *compute);
                    s.record_external_site(
                        *local,
                        (*first, *last),
                        *compute,
                        *ln_coef,
                        *ln_target,
                        *payment,
                    );
                }
            }
        }
        self.scheduler = sched;
        replayed
    }
}

enum ShardSched<'a> {
    Onsite(OnsitePrimalDual<'a, LastEventSink>),
    Offsite(OffsitePrimalDual<'a, LastEventSink>),
}

impl ShardSched<'_> {
    fn decide_take(&mut self, request: &Request) -> Option<TraceEvent> {
        match self {
            ShardSched::Onsite(s) => {
                s.decide(request);
                s.sink_mut().take()
            }
            ShardSched::Offsite(s) => {
                s.decide(request);
                s.sink_mut().take()
            }
        }
    }

    fn export_state(&self) -> SchedulerState {
        match self {
            ShardSched::Onsite(s) => s.export_state(),
            ShardSched::Offsite(s) => s.export_state(),
        }
    }

    fn export_state_span(&self, into: &mut SchedulerState, first: usize, last: usize) {
        match self {
            ShardSched::Onsite(s) => s.export_state_span(into, first, last),
            ShardSched::Offsite(s) => s.export_state_span(into, first, last),
        }
    }

    fn import_state(&mut self, state: &SchedulerState) -> Result<(), vnfrel::VnfrelError> {
        match self {
            ShardSched::Onsite(s) => s.import_state(state),
            ShardSched::Offsite(s) => s.import_state(state),
        }
    }
}

// Builds one shard's scheduler over its sub-instance; also the rebuild
// path after a supervised panic.
fn build_sched<'i>(sub: &'i ProblemInstance, scheme: Scheme) -> Result<ShardSched<'i>, ServeError> {
    Ok(match scheme {
        Scheme::OnSite => ShardSched::Onsite(
            OnsitePrimalDual::with_sink(sub, CapacityPolicy::Enforce, LastEventSink::new())
                .map_err(|e| ServeError::Config(e.to_string()))?,
        ),
        Scheme::OffSite => {
            ShardSched::Offsite(OffsitePrimalDual::with_sink(sub, LastEventSink::new()))
        }
    })
}

/// Builds the per-shard sub-instances: shard `s` holds every cloudlet
/// `j` with `j mod shards == s`, keeping its capacity and reliability.
/// Local id `l` on shard `s` is global cloudlet `l·S + s`.
///
/// # Errors
///
/// [`ServeError::Config`] when `shards` is zero or exceeds the cloudlet
/// count (a shard with no cloudlets cannot schedule anything).
pub(crate) fn build_shard_instances(
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

/// Runs the sharded daemon until a `shutdown` control message, then
/// drains every shard queue and returns aggregate counters.
///
/// Only the primal-dual schedulers are offered here (they are the
/// serving tier's production algorithms); `scheme` picks Algorithm 1
/// (on-site) or Algorithm 2 (off-site). `on_bound` receives the bound
/// address once the listener is up.
///
/// # Errors
///
/// [`ServeError::Net`] on bind failure, [`ServeError::Config`] for an
/// invalid shard count or scheduler construction failure.
pub fn serve_sharded(
    instance: &ProblemInstance,
    scheme: Scheme,
    registry: &MetricsRegistry,
    ids: &ServeMetricIds,
    config: &ShardedConfig,
    on_bound: Option<mpsc::Sender<SocketAddr>>,
) -> Result<ShardedReport, ServeError> {
    let listener = TcpListener::bind(&config.addr).map_err(|source| ServeError::Net {
        action: "bind",
        addr: config.addr.clone(),
        source,
    })?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let subs = build_shard_instances(instance, config.shards)?;
    let mut cores: Vec<Mutex<ShardCore<'_>>> = Vec::with_capacity(config.shards);
    for sub in &subs {
        let scheduler = build_sched(sub, scheme)?;
        let base = scheduler.export_state();
        cores.push(Mutex::new(ShardCore {
            scheduler,
            next_id: cores.len(),
            frontier: 0,
            recovery: ShardRecovery {
                base,
                base_next_id: cores.len(),
                base_frontier: 0,
                suffix: Vec::new(),
            },
        }));
    }
    // `cores.len()` inside the loop ran before the push, so shard s got
    // next_id == s — the first global id it is home to.
    let shard_lens: Vec<usize> = subs.iter().map(ProblemInstance::cloudlet_count).collect();

    if let Some(tx) = on_bound {
        let _ = tx.send(local_addr);
    }

    let stop = AtomicBool::new(false);
    let slot = AtomicUsize::new(0);
    let agg = Aggregate::new(config.shards);
    let shutdown_conn: Mutex<Option<Arc<Mutex<TcpStream>>>> = Mutex::new(None);
    let conns: BoundedQueue<TcpStream> = BoundedQueue::new(config.workers.max(1) * 2);
    let queues: Vec<BoundedQueue<ShardItem>> = (0..config.shards)
        .map(|_| BoundedQueue::new(config.queue_capacity))
        .collect();
    let status = StatusShared::new(Role::Primary, 1, config.shards, "");
    let flights: Option<Vec<SharedFlight>> = config.flight_dir.as_ref().map(|_| {
        (0..config.shards)
            .map(|_| SharedFlight::new(FLIGHT_CAPACITY))
            .collect()
    });

    let shared = Shared {
        instance,
        subs: &subs,
        cores: &cores,
        shard_lens: &shard_lens,
        shards: config.shards,
        scheme,
        horizon: instance.horizon(),
        agg: &agg,
        registry,
        ids,
        slot: &slot,
        stop: &stop,
        shutdown_conn: &shutdown_conn,
        status: &status,
        flights: flights.as_deref(),
        flight_dir: config.flight_dir.as_deref(),
    };

    std::thread::scope(|scope| {
        let accept = scope.spawn(|| accept_loop(&listener, &conns, &stop));
        let workers: Vec<_> = (0..config.workers.max(1))
            .map(|_| {
                let (conns, queues, shared) = (&conns, &queues, &shared);
                scope.spawn(move || worker_loop(conns, queues, shared))
            })
            .collect();
        let deciders: Vec<_> = (0..config.shards)
            .map(|s| {
                let (queues, shared) = (&queues, &shared);
                scope.spawn(move || supervise_shard(s, &queues[s], shared))
            })
            .collect();

        while !stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(10));
        }
        // Shutdown sequence: stop feeding connections, let the workers
        // finish their current frames, then close the shard queues so
        // the decide threads drain and exit.
        conns.close();
        accept.join().expect("accept thread panicked");
        for w in workers {
            w.join().expect("worker thread panicked");
        }
        for q in &queues {
            q.close();
        }
        for d in deciders {
            d.join().expect("shard thread panicked");
        }
    });

    let stats = agg.stats();
    if let Some(conn) = shutdown_conn.lock().unwrap().take() {
        let ack = ServerMsg::Ack(ControlAck {
            action: ControlAction::Shutdown,
            slot: slot.load(Ordering::Acquire),
            stats,
            epoch: 1,
            role: "primary".to_string(),
            // Sharded mode never snapshots (DESIGN.md §14).
            last_snapshot_unix_ms: None,
        });
        let _ = write_line(&conn, encode_server(&ack));
    }
    Ok(ShardedReport {
        local_addr,
        stats,
        per_shard_decided: agg
            .per_shard_decided
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .collect(),
        cross_shard_admits: agg.cross_shard_admits.load(Ordering::Acquire),
        shard_restarts: agg.restarts.load(Ordering::Acquire),
        shard_states: cores
            .into_iter()
            .map(|core| {
                let mut core = core
                    .into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                core.compact();
                core.recovery.base
            })
            .collect(),
    })
}

// Everything the worker and shard threads share, bundled so the spawn
// closures stay readable.
struct Shared<'a, 'i> {
    instance: &'a ProblemInstance,
    // The per-shard sub-instances; the supervisor rebuilds a panicked
    // shard's scheduler over `subs[s]`.
    subs: &'i [ProblemInstance],
    cores: &'a [Mutex<ShardCore<'i>>],
    shard_lens: &'a [usize],
    shards: usize,
    scheme: Scheme,
    horizon: Horizon,
    agg: &'a Aggregate,
    registry: &'a MetricsRegistry,
    ids: &'a ServeMetricIds,
    slot: &'a AtomicUsize,
    stop: &'a AtomicBool,
    shutdown_conn: &'a Mutex<Option<Arc<Mutex<TcpStream>>>>,
    status: &'a StatusShared,
    // One flight recorder per shard when a flight directory is
    // configured; the disabled path is the absence of the recorders.
    flights: Option<&'a [SharedFlight]>,
    flight_dir: Option<&'a std::path::Path>,
}

impl Shared<'_, '_> {
    // Records one stage latency against shard `s`'s histogram and, when
    // the flight recorders are on, onto shard `s`'s ring. The registry
    // may have been registered for fewer shards than the daemon runs
    // (a caller using `ServeMetricIds::register`); lanes then fold onto
    // the last registered shard instead of panicking.
    #[inline]
    fn stage_obs(&self, s: usize, stage: PipelineStage, ns: u64) {
        let lane = s.min(self.ids.stage.shard_count() - 1);
        self.ids.observe_stage_ns(self.registry, lane, stage, ns);
        if let Some(flights) = self.flights {
            flights[s].record(TraceEvent::StageSample {
                shard: s,
                stage,
                nanos: ns,
            });
        }
    }

    // Mirrors one shard queue's depth into its lane gauges.
    #[inline]
    fn lane_depth(&self, s: usize, queue: &BoundedQueue<ShardItem>) {
        let lane = s.min(self.ids.lanes.shard_count() - 1);
        self.ids
            .lanes
            .set_depth(self.registry, lane, queue.len(), queue.capacity());
    }

    // Counts one backpressure drop on shard `s`'s shed counter.
    #[inline]
    fn lane_shed(&self, s: usize) {
        let lane = s.min(self.ids.lanes.shard_count() - 1);
        self.registry.inc(self.ids.lanes.shed[lane]);
    }
}

fn worker_loop(
    conns: &BoundedQueue<TcpStream>,
    queues: &[BoundedQueue<ShardItem>],
    shared: &Shared<'_, '_>,
) {
    while let Some(stream) = conns.pop() {
        shared.registry.inc(shared.ids.connections);
        let _ = handle_conn(stream, queues, shared);
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
    }
}

fn handle_conn(
    stream: TcpStream,
    queues: &[BoundedQueue<ShardItem>],
    shared: &Shared<'_, '_>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    // Bounded reply writes: a client that stops draining (slow-loris)
    // errors the write instead of parking a worker or decide thread on a
    // full socket buffer forever. Set before the clone so both handles
    // share the option.
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let _ = stream.set_nodelay(true);
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut reqs: Vec<SubmitRequest> = Vec::new();
    let mut first = true;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return Ok(());
        }
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {
                if !line.ends_with('\n') {
                    shared.registry.inc(shared.ids.protocol_errors);
                    let reply = ServerMsg::Error(format!(
                        "torn frame: connection closed mid-line after {} bytes",
                        line.len()
                    ));
                    let _ = write_line(&writer, encode_server(&reply));
                    return Ok(());
                }
            }
            Err(e) if is_timeout(&e) => {
                if line.len() > MAX_LINE_BYTES {
                    return oversized(&writer, line.len(), shared.registry, shared.ids);
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        if line.len() > MAX_LINE_BYTES {
            return oversized(&writer, line.len(), shared.registry, shared.ids);
        }
        if first && line.starts_with("GET ") {
            return serve_http(
                &line,
                reader,
                &writer,
                shared.registry,
                shared.ids,
                shared.status,
            );
        }
        first = false;
        route_line(line.trim(), &mut reqs, queues, &writer, shared);
        line.clear();
    }
}

// Parses one frame and scatters it to the shard queues.
fn route_line(
    line: &str,
    reqs: &mut Vec<SubmitRequest>,
    queues: &[BoundedQueue<ShardItem>],
    writer: &Arc<Mutex<TcpStream>>,
    shared: &Shared<'_, '_>,
) {
    if line.is_empty() {
        return;
    }
    if is_batch_frame(line) {
        let mut clock = StageClock::start();
        match parse_batch_into(line, reqs) {
            Ok(seq) => {
                // Parse/dispatch work happens once per frame; attribute
                // it to the home shard of the frame's first request.
                let home = reqs.first().map_or(0, |r| r.id % shared.shards);
                shared.stage_obs(home, PipelineStage::IngressParse, clock.lap_ns());
                shared.registry.add(shared.ids.submitted, reqs.len() as u64);
                route_batch(seq, reqs, queues, writer, shared);
                shared.stage_obs(home, PipelineStage::Dispatch, clock.lap_ns());
            }
            Err(e) => {
                shared.registry.inc(shared.ids.protocol_errors);
                let _ = write_line(writer, encode_server(&ServerMsg::Error(e.to_string())));
            }
        }
        return;
    }
    let mut clock = StageClock::start();
    match parse_client(line) {
        Ok(ClientMsg::Submit(msg)) => {
            shared.registry.inc(shared.ids.submitted);
            let id = msg.id;
            let home = id % shared.shards;
            shared.stage_obs(home, PipelineStage::IngressParse, clock.lap_ns());
            let item = ShardItem::Submit {
                msg,
                conn: Arc::clone(writer),
                enqueued: Instant::now(),
            };
            if queues[home].try_push(item).is_err() {
                shared.registry.inc(shared.ids.overloads);
                shared.agg.overloaded.fetch_add(1, Ordering::AcqRel);
                shared.lane_shed(home);
                let reply = ServerMsg::Overload(OverloadReject {
                    id,
                    queue_depth: queues[home].len(),
                    limit: queues[home].capacity(),
                });
                let _ = write_line(writer, encode_server(&reply));
            }
            shared.stage_obs(home, PipelineStage::Dispatch, clock.lap_ns());
            shared
                .registry
                .set_gauge(shared.ids.queue_depth, queues[home].len() as f64);
            shared.lane_depth(home, &queues[home]);
        }
        Ok(ClientMsg::Control(action)) => handle_control(action, queues, writer, shared),
        Err(e) => {
            shared.registry.inc(shared.ids.protocol_errors);
            let _ = write_line(writer, encode_server(&ServerMsg::Error(e.to_string())));
        }
    }
}

// Splits a parsed batch into per-shard parts sharing one gather. Parts
// that bounce off a full shard queue finish immediately with their
// positions still at the pre-filled overload code.
fn route_batch(
    seq: u64,
    reqs: &[SubmitRequest],
    queues: &[BoundedQueue<ShardItem>],
    writer: &Arc<Mutex<TcpStream>>,
    shared: &Shared<'_, '_>,
) {
    let mut parts: Vec<Vec<(usize, SubmitRequest)>> = vec![Vec::new(); shared.shards];
    for (pos, msg) in reqs.iter().enumerate() {
        parts[msg.id % shared.shards].push((pos, *msg));
    }
    let part_count = parts.iter().filter(|p| !p.is_empty()).count();
    let gather = Arc::new(BatchGather {
        conn: Arc::clone(writer),
        seq,
        codes: reqs.iter().map(|_| AtomicU8::new(BATCH_OVERLOAD)).collect(),
        remaining: AtomicUsize::new(part_count),
    });
    for (s, part) in parts.into_iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        let n = part.len() as u64;
        let item = ShardItem::BatchPart {
            gather: Arc::clone(&gather),
            reqs: part,
            enqueued: Instant::now(),
        };
        if queues[s].try_push(item).is_err() {
            shared.registry.add(shared.ids.overloads, n);
            shared.agg.overloaded.fetch_add(n, Ordering::AcqRel);
            shared.lane_shed(s);
            gather.finish_part();
        }
        shared.lane_depth(s, &queues[s]);
    }
}

fn handle_control(
    action: ControlAction,
    queues: &[BoundedQueue<ShardItem>],
    writer: &Arc<Mutex<TcpStream>>,
    shared: &Shared<'_, '_>,
) {
    let ack = |action| {
        ServerMsg::Ack(ControlAck {
            action,
            slot: shared.slot.load(Ordering::Acquire),
            stats: shared.agg.stats(),
            epoch: 1,
            role: "primary".to_string(),
            // Sharded mode never snapshots (DESIGN.md §14).
            last_snapshot_unix_ms: None,
        })
    };
    match action {
        ControlAction::AdvanceSlot => {
            let s = shared.slot.fetch_add(1, Ordering::AcqRel) + 1;
            shared.registry.set_gauge(shared.ids.slot, s as f64);
            let _ = write_line(writer, encode_server(&ack(action)));
        }
        ControlAction::Stats => {
            let _ = write_line(writer, encode_server(&ack(action)));
        }
        ControlAction::DumpFlight => {
            // Dump every shard's ring (one file per shard), then ack.
            // Without a flight directory the recorders are off and the
            // ack simply confirms there was nothing to dump.
            if let (Some(flights), Some(dir)) = (shared.flights, shared.flight_dir) {
                for (s, flight) in flights.iter().enumerate() {
                    let _ = flight.dump(dir, 1, s);
                }
            }
            let _ = write_line(writer, encode_server(&ack(action)));
        }
        ControlAction::Shutdown => {
            // Acked by `serve_sharded` after every shard drains, so the
            // client's ack carries the final aggregate counters.
            *shared.shutdown_conn.lock().unwrap() = Some(Arc::clone(writer));
            shared.stop.store(true, Ordering::Release);
        }
        ControlAction::Snapshot => {
            shared.registry.inc(shared.ids.protocol_errors);
            let reply = ServerMsg::Error(
                "snapshots are not supported in sharded mode; use --shards 1".to_string(),
            );
            let _ = write_line(writer, encode_server(&reply));
        }
        ControlAction::Promote => {
            shared.registry.inc(shared.ids.protocol_errors);
            let reply = ServerMsg::Error(
                "replication/promotion is not supported in sharded mode; use --shards 1"
                    .to_string(),
            );
            let _ = write_line(writer, encode_server(&reply));
        }
        ControlAction::ChaosPanic(target) => {
            if target >= shared.shards {
                shared.registry.inc(shared.ids.protocol_errors);
                let reply = ServerMsg::Error(format!(
                    "chaos-panic: shard {target} does not exist (shards: {})",
                    shared.shards
                ));
                let _ = write_line(writer, encode_server(&reply));
                return;
            }
            // Ack before injecting: the marker kills the decide thread,
            // so nothing downstream of it can carry the ack. The marker
            // then waits its turn in the queue like any frame — the
            // panic lands mid-stream, after whatever was already queued.
            let _ = write_line(writer, encode_server(&ack(action)));
            let _ = queues[target].push(ShardItem::Panic);
        }
    }
}

// One shard's supervisor: runs the decide loop, and on a panic (the
// `chaos-panic` control frame, or a genuine decide-thread bug) dumps the
// shard's flight ring, rebuilds the shard from its recovery log, and
// resumes draining the same queue. The panic marker fires at a message
// boundary with no locks held, so nothing is ever poisoned; requests
// still queued behind the marker are decided by the healed shard in
// their original order.
fn supervise_shard(s: usize, queue: &BoundedQueue<ShardItem>, shared: &Shared<'_, '_>) {
    loop {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shard_loop(s, queue, shared);
        }));
        match run {
            Ok(()) => return, // queue closed and drained
            Err(_) => heal_shard(s, shared),
        }
    }
}

// Restores a panicked shard: flight dump first (the ring holds the
// lead-up to the panic), then rebuild-and-replay under the shard lock.
fn heal_shard(s: usize, shared: &Shared<'_, '_>) {
    if let (Some(flights), Some(dir)) = (shared.flights, shared.flight_dir) {
        let _ = flights[s].dump(dir, 1, s);
    }
    let replayed = {
        let mut core = shared.cores[s]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        core.restore(
            &shared.subs[s],
            shared.scheme,
            shared.horizon,
            shared.shards,
        )
    };
    shared.agg.restarts.fetch_add(1, Ordering::AcqRel);
    if let Some(flights) = shared.flights {
        flights[s].record(TraceEvent::ShardRestart { shard: s, replayed });
    }
}

// One shard's decide thread: drains its queue (including after close —
// `pop` hands out queued items until empty), deciding each request
// under the shard's own lock.
fn shard_loop(s: usize, queue: &BoundedQueue<ShardItem>, shared: &Shared<'_, '_>) {
    while let Some(item) = queue.pop() {
        match item {
            ShardItem::Submit {
                msg,
                conn,
                enqueued,
            } => {
                let queue_ns = u64::try_from(enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
                shared.stage_obs(s, PipelineStage::QueueWait, queue_ns);
                let mut clock = StageClock::start();
                let reply = match decide_one(s, &msg, shared) {
                    DecideOutcome::Decision(event) => ServerMsg::Decision(event),
                    DecideOutcome::BadId { expected } => ServerMsg::Error(format!(
                        "out-of-order id {} (shard {s} accepts monotonically increasing ids \
                         with residue {s} mod {}; lowest acceptable is {expected})",
                        msg.id, shared.shards
                    )),
                    DecideOutcome::BadRequest(text) => ServerMsg::Error(text),
                };
                shared.stage_obs(s, PipelineStage::Decide, clock.lap_ns());
                let _ = write_line(&conn, encode_server(&reply));
                shared.stage_obs(s, PipelineStage::ReplyWrite, clock.lap_ns());
            }
            ShardItem::BatchPart {
                gather,
                reqs,
                enqueued,
            } => {
                let queue_ns = u64::try_from(enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
                shared.stage_obs(s, PipelineStage::QueueWait, queue_ns);
                // One decide span per part, not per request: at a
                // million decisions per second, per-request clock reads
                // and histogram observes are a measurable tax on the
                // path they measure.
                let mut clock = StageClock::start();
                for (pos, msg) in &reqs {
                    let code = match decide_one(s, msg, shared) {
                        DecideOutcome::Decision(event) => {
                            if matches!(event.outcome, Outcome::Admit { .. }) {
                                BATCH_ADMIT
                            } else {
                                BATCH_REJECT
                            }
                        }
                        DecideOutcome::BadId { .. } | DecideOutcome::BadRequest(_) => BATCH_ERROR,
                    };
                    gather.codes[*pos].store(code, Ordering::Release);
                }
                shared.stage_obs(s, PipelineStage::Decide, clock.lap_ns());
                // The part that drops `remaining` to zero writes the
                // gathered reply, so this lap is a real socket write on
                // exactly one shard and near-zero on the others.
                gather.finish_part();
                shared.stage_obs(s, PipelineStage::ReplyWrite, clock.lap_ns());
            }
            ShardItem::Panic => {
                panic!("chaos-panic control frame killed shard {s}'s decide thread");
            }
        }
        shared.lane_depth(s, queue);
    }
}

enum DecideOutcome {
    Decision(DecisionEvent),
    BadId { expected: usize },
    BadRequest(String),
}

// Decides one request on its home shard. The home lock is held for the
// local decide only; a cross-shard rescue runs afterwards, locking one
// shard at a time.
fn decide_one(s: usize, msg: &SubmitRequest, shared: &Shared<'_, '_>) -> DecideOutcome {
    let request = {
        let mut core = shared.cores[s].lock().unwrap();
        if msg.id < core.next_id || msg.id % shared.shards != s {
            shared.registry.inc(shared.ids.protocol_errors);
            return DecideOutcome::BadId {
                expected: core.next_id,
            };
        }
        let request = match build_request(msg, shared.horizon) {
            Ok(r) => r,
            Err(text) => {
                shared.registry.inc(shared.ids.protocol_errors);
                return DecideOutcome::BadRequest(text);
            }
        };
        core.next_id = msg.id + shared.shards;
        core.frontier = msg.arrival;
        let event = match core.scheduler.decide_take(&request) {
            Some(TraceEvent::Decision(ev)) => ev,
            _ => unreachable!("shard schedulers always record one decision event"),
        };
        // Log the decide (admit or reject — both mutate the scheduler)
        // for the supervisor's replay; a rescue that follows logs its
        // foreign charges on the owning shards itself.
        core.note_local(msg);
        let rescue_worthy = shared.scheme == Scheme::OffSite
            && shared.shards > 1
            && matches!(
                event.outcome,
                Outcome::Reject {
                    reason: RejectReason::ReliabilityInfeasible,
                    ..
                }
            );
        if !rescue_worthy {
            let event = finish_decision(s, event, &request, shared);
            return DecideOutcome::Decision(event);
        }
        request
        // Home lock drops here; the rescue below re-locks shard by
        // shard (never more than one at a time — no lock ordering, no
        // deadlock).
    };
    let mut clock = StageClock::start();
    let rescued = rescue_offsite(s, &request, shared);
    shared.stage_obs(s, PipelineStage::ReserveCommit, clock.lap_ns());
    let event = match rescued {
        Some(event) => {
            shared.agg.cross_shard_admits.fetch_add(1, Ordering::AcqRel);
            event
        }
        None => DecisionEvent {
            request: request.id().index(),
            algorithm: "alg2-primal-dual".to_string(),
            scheme: "offsite".to_string(),
            slot: request.arrival(),
            payment: request.payment(),
            outcome: Outcome::Reject {
                reason: RejectReason::ReliabilityInfeasible,
                dual_cost: None,
                margin: None,
            },
        },
    };
    DecideOutcome::Decision(count_decision(&event, &request, s, shared))
}

// Books a locally-decided event into the aggregate counters and remaps
// its site ids from shard-local to global (`global = local·S + s`).
fn finish_decision(
    s: usize,
    mut event: DecisionEvent,
    request: &Request,
    shared: &Shared<'_, '_>,
) -> DecisionEvent {
    if let Outcome::Admit { sites, .. } = &mut event.outcome {
        for site in sites {
            site.cloudlet = site.cloudlet * shared.shards + s;
        }
    }
    count_decision(&event, request, s, shared)
}

fn count_decision(
    event: &DecisionEvent,
    request: &Request,
    s: usize,
    shared: &Shared<'_, '_>,
) -> DecisionEvent {
    shared.agg.decided.fetch_add(1, Ordering::AcqRel);
    shared.agg.per_shard_decided[s].fetch_add(1, Ordering::AcqRel);
    if event.outcome.is_admit() {
        shared.agg.admitted.fetch_add(1, Ordering::AcqRel);
        *shared.agg.revenue.lock().unwrap() += request.payment();
    } else {
        shared.agg.rejected.fetch_add(1, Ordering::AcqRel);
    }
    event.clone()
}

fn build_request(msg: &SubmitRequest, horizon: Horizon) -> Result<Request, String> {
    let reliability = mec_topology::Reliability::new(msg.reliability)
        .map_err(|e| format!("invalid reliability: {e}"))?;
    Request::new(
        RequestId(msg.id),
        VnfTypeId(msg.vnf),
        reliability,
        msg.arrival,
        msg.duration,
        msg.payment,
        horizon,
    )
    .map_err(|e| format!("invalid request: {e}"))
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
// fleet with two-phase capacity holds.
//
// 1. *Quote* (read-only, one shard lock at a time): every cloudlet's
//    price ratio and ln-coefficient via `site_quote`, filtered by the
//    payment test `pay + ln_target·compute·ratio > 0`. Only shards whose
//    frontier has reached the request's arrival are quoted.
// 2. *Reserve*: scan survivors in (ratio, global id) order;
//    `try_reserve_window` re-checks capacity under the owner's lock and
//    places a hold, until the accumulated `Σ ln_coef` reaches
//    `ln_target = ln(1 − R_i)`.
// 3. *Commit or cancel*: on success every hold becomes a charge and the
//    owner's dual prices take the Eq. 67 update
//    (`record_external_site`); otherwise every hold is cancelled and
//    nothing changed anywhere.
//
// Prices quoted in step 1 may be stale by step 3 (another shard may
// have admitted in between) — that is the documented sharding
// relaxation; capacity, by contrast, is never oversubscribed because
// the reserve re-checks it.
fn rescue_offsite(
    home: usize,
    request: &Request,
    shared: &Shared<'_, '_>,
) -> Option<DecisionEvent> {
    let vnf = request.vnf();
    let first = request.arrival();
    let last = first + request.duration() - 1;
    let payment = request.payment();
    let ln_target = request.reliability_requirement().ln_failure();

    let compute = shared.instance.catalog().get(vnf)?.compute() as f64;

    // Phase 1: quotes, one shard lock at a time. A shard whose frontier
    // is behind this request's arrival has not been offered the window
    // yet — its prices there are still zero and its capacity untouched,
    // whatever its own stream is about to ask of them — so its quote
    // would sell the slower shard's future at no price. Skip it.
    let mut sites: Vec<RescueSite> = Vec::new();
    for (s, &len) in shared.shard_lens.iter().enumerate() {
        let core = shared.cores[s].lock().unwrap();
        if core.frontier < first {
            continue;
        }
        let ShardSched::Offsite(sched) = &core.scheduler else {
            return None;
        };
        for l in 0..len {
            let local = CloudletId(l);
            let (ratio, ln_coef) = sched.site_quote(vnf, local, first, last);
            if payment + ln_target * compute * ratio > 0.0 {
                sites.push(RescueSite {
                    shard: s,
                    local,
                    global: l * shared.shards + s,
                    ratio,
                    ln_coef,
                });
            }
        }
    }
    // The home shard just failed this request on its own sites, under
    // the same payment test and a looser target than phase 2 applies:
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
    let mut held: Vec<(usize, vnfrel::ReservationId, RescueSite)> = Vec::new();
    for site in sites {
        if ln_sum <= ln_target {
            break;
        }
        let mut core = shared.cores[site.shard].lock().unwrap();
        let ShardSched::Offsite(sched) = &mut core.scheduler else {
            unreachable!("rescue only runs in off-site mode");
        };
        if let Some(rid) = sched
            .ledger_mut()
            .try_reserve_window(site.local, first, last, compute)
        {
            ln_sum += site.ln_coef;
            drop(core);
            held.push((site.shard, rid, site));
        }
    }

    if ln_sum > ln_target {
        // Unreachable target: cancel every hold, reject.
        for (s, rid, _) in held {
            let mut core = shared.cores[s].lock().unwrap();
            let ShardSched::Offsite(sched) = &mut core.scheduler else {
                unreachable!("rescue only runs in off-site mode");
            };
            sched
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
    for (s, rid, site) in held {
        let mut core = shared.cores[s].lock().unwrap();
        let ShardSched::Offsite(sched) = &mut core.scheduler else {
            unreachable!("rescue only runs in off-site mode");
        };
        sched
            .ledger_mut()
            .commit_reservation(rid)
            .expect("rescue holds are committed exactly once");
        sched.record_external_site(
            site.local,
            (first, last),
            compute,
            site.ln_coef,
            ln_target,
            payment,
        );
        // Log the foreign charge into the owner's recovery suffix (still
        // under its lock) so a panicked owner replays it too.
        core.recovery.suffix.push(RecoveryEntry::External {
            local: site.local,
            first,
            last,
            compute,
            ln_coef: site.ln_coef,
            ln_target,
            payment,
        });
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
