//! The admission daemon: one pipeline for every lane count.
//!
//! Threading model (see DESIGN.md §12 / §14):
//!
//! ```text
//! accept ─► conns ─► workers (parse, route by id mod S) ─► lane[s] ─► decide thread s
//!                       │  controls + replication lines ─► lane[0]      │
//!                       └─ try_push (overload on a full lane)           └─ node (lane 0 only)
//! ```
//!
//! A decide thread works in bursts: it takes everything queued (up to
//! [`LANE_CHUNK`] items) in one lock take, decides it, buffers each
//! reply per connection, and writes each connection once — always
//! before it parks, blocks on another queue or hands a reply to anyone
//! else (the flush-before-block rule, DESIGN.md §12).
//!
//! Lane `s` owns one scheduler behind its own lock and decides the ids
//! with residue `s` mod `S`. [`serve`] is one lane over a caller-owned
//! scheduler; [`crate::shard::serve_sharded`] is `S` lanes over
//! schedulers it builds — two constructors over one front end, one
//! supervised lane loop and one `decide_one`. Lane 0 runs on the
//! thread that called the constructor, which is what lets it hold a
//! `!Send` scheduler; only `LaneSched::spawn_peers` asks for `Send`.
//! What a node is besides its lanes — role, epoch, replication,
//! snapshots, slot clock, trace tee — is the `Node` riding lane 0.

use std::collections::VecDeque;
use std::io::{self, BufRead as _, BufReader, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use mec_obs::{
    write_decision, DecisionCode, DecisionEvent, JsonWriter, MetricsRegistry, Outcome,
    PipelineStage, RejectReason, StageClock, TraceEvent,
};
use mec_sim::obs::EngineMetrics;
use mec_topology::Reliability;
use mec_workload::{Horizon, Request, RequestId, VnfTypeId};
use vnfrel::{OnlineScheduler, SchedulerState};

use crate::epoch::Epoch;
use crate::error::ServeError;
use crate::flight::{SharedFlight, FLIGHT_CAPACITY};
use crate::metrics::ServeMetricIds;
use crate::node::{Node, NodeItem};
use crate::pool::{BoundedQueue, Drained};
use crate::protocol::{
    encode_batch_reply_into, encode_server, is_batch_frame, parse_batch_into, parse_client,
    ClientMsg, ControlAck, OverloadReject, ServeStats, ServerMsg, SubmitRequest, BATCH_ADMIT,
    BATCH_ERROR, BATCH_OVERLOAD, BATCH_REJECT, MAX_LINE_BYTES,
};
use crate::replica::{is_repl_line, parse_repl};
use crate::status::StatusShared;
use crate::tap::DecisionTap;

/// How the daemon listens, queues, shards, ticks and persists.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `"127.0.0.1:7070"` (port 0 picks a free
    /// port; the bound address is in the report).
    pub addr: String,
    /// Number of lanes `S` (decide threads) [`crate::serve_sharded`]
    /// partitions the cloudlets across; must be in `1..=cloudlet_count`.
    /// [`serve`] drives the one scheduler it is given, whatever this says.
    pub shards: usize,
    /// Per-lane ingress queue bound; submits beyond it get typed
    /// overload rejections.
    pub queue_capacity: usize,
    /// Connection-handling worker threads.
    pub workers: usize,
    /// Snapshot file; `None` disables persistence.
    pub snapshot_path: Option<PathBuf>,
    /// Load the snapshot (if the file exists) before serving.
    pub resume: bool,
    /// Advance the virtual slot clock every `tick` of wall time; `None`
    /// advances only on explicit `advance-slot` control messages.
    pub tick: Option<Duration>,
    /// Opaque scenario fingerprint stored in snapshots, validated on
    /// resume and shown by `/status`.
    pub fingerprint: String,
    /// Tee every decision event to this JSONL trace file.
    pub trace_path: Option<PathBuf>,
    /// Install SIGINT/SIGTERM handlers that trigger drain-then-snapshot
    /// (process-global; leave off in tests).
    pub install_signal_handlers: bool,
    /// Run as a passive standby: refuse submits with `not-primary`,
    /// apply replication frames from a primary, and wait for promotion.
    pub standby: bool,
    /// Stream the decision log to a standby at this address (primary
    /// role); each decision reply waits for the standby's ack. Mutually
    /// exclusive with `standby`.
    pub replicate_to: Option<String>,
    /// Auto-promote a standby that has seen a primary but heard nothing
    /// from it for this long; `None` promotes only on an explicit
    /// `promote` control message.
    pub auto_promote_after: Option<Duration>,
    /// Directory the per-lane flight recorders dump into (as
    /// `flight-<epoch>-<lane>.jsonl`) on fencing, divergence, panic or a
    /// `dump-flight` control frame; `None` disables flight recording.
    pub flight_dir: Option<PathBuf>,
    /// Seam over the snapshot write-temp/fsync/rename sequence: the
    /// default [`crate::chaos::RealSnapshotIo`] never faults, chaos
    /// drills swap in a [`crate::chaos::ChaosSnapshotIo`].
    pub snapshot_io: Arc<dyn crate::chaos::SnapshotIo>,
}

impl ServeConfig {
    /// A config with conservative defaults on `addr`: one lane, no
    /// persistence, no replication.
    pub fn new(addr: impl Into<String>) -> Self {
        ServeConfig {
            addr: addr.into(),
            shards: 1,
            queue_capacity: 256,
            workers: 4,
            snapshot_path: None,
            resume: false,
            tick: None,
            fingerprint: String::new(),
            trace_path: None,
            install_signal_handlers: false,
            standby: false,
            replicate_to: None,
            auto_promote_after: None,
            flight_dir: None,
            snapshot_io: Arc::new(crate::chaos::RealSnapshotIo),
        }
    }

    // Start-up refusals, before the listener binds. Snapshots, the
    // replication log and the trace tee cover lane 0's scheduler only;
    // per-shard formats are parked (DESIGN.md §14).
    fn check(&self, lanes: usize) -> Result<(), ServeError> {
        if self.standby && self.replicate_to.is_some() {
            return Err(ServeError::Config(
                "a standby cannot also replicate onward (chained replication is not supported)"
                    .to_string(),
            ));
        }
        let one_lane = [
            ("standby", self.standby),
            ("replicate_to", self.replicate_to.is_some()),
            ("snapshot_path", self.snapshot_path.is_some()),
            ("resume", self.resume),
            ("trace_path", self.trace_path.is_some()),
        ];
        let set: Vec<_> = (one_lane.iter().filter_map(|&(name, on)| on.then_some(name))).collect();
        if lanes > 1 && !set.is_empty() {
            return Err(ServeError::Config(format!(
                "{} cover(s) one scheduler, and this daemon runs {lanes} lanes \
                 (per-shard snapshots and replication logs are not implemented)",
                set.join(", ")
            )));
        }
        if self.resume && self.snapshot_path.is_none() {
            return Err(ServeError::Config(
                "resume requires a snapshot path".to_string(),
            ));
        }
        Ok(())
    }
}

/// Whether a node currently accepts submits or follows a primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Decides submits and (optionally) streams its log to a standby.
    Primary,
    /// Applies the primary's log and refuses submits until promoted.
    Standby,
}

impl Role {
    /// Stable wire name, as carried in control acks.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Standby => "standby",
        }
    }
}

/// What a completed (cleanly shut down) daemon reports.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The address actually bound.
    pub local_addr: SocketAddr,
    /// Final counters.
    pub stats: ServeStats,
    /// Final virtual slot.
    pub slot: usize,
    /// Lowest id the next submission may carry.
    pub next_id: usize,
    /// Whether a final snapshot was written.
    pub snapshot_written: bool,
    /// Fencing epoch at exit.
    pub epoch: u64,
    /// Role at exit (a standby that was promoted reports `Primary`).
    pub role: Role,
}

/// A client socket's write half. [`ClientConn::send`] is the only way
/// the daemon puts bytes on a client socket, so per-connection order and
/// what a failed write means are the same for every thread that answers:
/// workers, decide threads, the node and the replication sender.
#[derive(Debug)]
pub struct ClientConn {
    stream: Mutex<TcpStream>,
    // A write failed and the socket is shut down. Publishes nothing but
    // itself (a late reader merely pays one failing syscall), hence
    // `Relaxed`.
    condemned: AtomicBool,
}

pub(crate) type Conn = Arc<ClientConn>;

impl ClientConn {
    fn stream(&self) -> std::sync::MutexGuard<'_, TcpStream> {
        // A `TcpStream` has no state a panicking holder could tear.
        self.stream.lock().unwrap_or_else(|e| e.into_inner())
    }

    // One write per flush, of whole lines only: two small writes would
    // trip Nagle + delayed-ACK (~40 ms per round trip) on peers without
    // TCP_NODELAY, and a reader never sees a line torn by another
    // thread's.
    pub(crate) fn send(&self, bytes: &[u8]) -> io::Result<()> {
        if self.condemned.load(Ordering::Relaxed) {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let mut stream = self.stream();
        let result = write_within(&mut stream, bytes, WRITE_TIMEOUT);
        if result.is_err() {
            // Condemn the whole connection: replies behind this one are
            // then dropped without a syscall instead of each burning the
            // timeout on a decide thread, and the worker's blocked read
            // sees EOF.
            self.condemned.store(true, Ordering::Relaxed);
            let _ = stream.shutdown(Shutdown::Both);
        }
        result
    }

    pub(crate) fn shutdown(&self, how: Shutdown) {
        let _ = self.stream().shutdown(how);
    }
}

/// Write timeout on client sockets: replies are small, so a write that
/// cannot complete in this long means the peer stopped draining
/// (slow-loris); the connection is dropped so it cannot pin a thread.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Most items a decide thread takes from its queue in one lock take. A
/// chunk's replies wait for its last decision (or [`FLUSH_BYTES`]), and
/// a control queued behind a chunk waits for all of it, so the bound is
/// a latency bound: 64 frames of 64 requests are ≈ 1 ms of decide. The
/// queues of the measured workloads never hold more than a client's
/// window (8), so nothing is gained beyond it either.
const LANE_CHUNK: usize = 64;

/// Buffered reply bytes for one connection that trigger a flush before
/// the chunk ends. 16 KiB is ≈ 8 000 batch decisions or ≈ 50 decision
/// lines: the `write` it saves is by then under a percent of the work
/// behind it, while the client could already be reading.
const FLUSH_BYTES: usize = 16 << 10;

/// `handle_conn`'s read buffer: a client's whole window in one `read`
/// (8 frames of 64 requests are ≈ 27 KiB; the default 8 KiB held 2.4).
const READ_BUF_BYTES: usize = 64 << 10;

// `write_all` under one deadline. When the send timeout runs out with
// part of the buffer already copied, the kernel ends the `write` short
// but *successfully*, and `write_all` would go back in for another full
// timeout — a peer that stopped draining could hold the thread for as
// long as each flush gets a few bytes through. A short write past the
// deadline is the stall it is; one cut short by a signal carries on.
fn write_within(stream: &mut TcpStream, mut bytes: &[u8], limit: Duration) -> io::Result<()> {
    let started = Instant::now();
    loop {
        match stream.write(bytes) {
            Ok(n) if n == bytes.len() => return Ok(()),
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if started.elapsed() >= limit {
            return Err(io::ErrorKind::TimedOut.into());
        }
    }
}

pub(crate) fn write_line(conn: &Conn, mut line: String) -> io::Result<()> {
    line.push('\n');
    conn.send(line.as_bytes())
}

fn error_line(text: String) -> String {
    encode_server(&ServerMsg::Error(text))
}

pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs the daemon over a caller-owned scheduler — one lane — until a
/// `shutdown` control message or a termination signal, then drains the
/// ingress queue, writes a final snapshot and returns.
///
/// The scheduler must have been constructed with `tap.clone()` as its
/// trace sink: the daemon reads the full decision event back out of the
/// tap after every `decide()`. `on_bound` (if given) receives the bound
/// address once the listener is up (how callers learn a port-0 bind).
///
/// # Errors
///
/// [`ServeError`] on bind failure, snapshot problems during
/// resume/persist, or a scheduler without the daemon's tap.
pub fn serve(
    scheduler: &mut dyn OnlineScheduler,
    tap: &DecisionTap,
    registry: &MetricsRegistry,
    ids: &ServeMetricIds,
    config: &ServeConfig,
    on_bound: Option<mpsc::Sender<SocketAddr>>,
) -> Result<ServeReport, ServeError> {
    let lane = LaneCore::new(CallerSched { scheduler, tap }, 0);
    Ok(run(vec![lane], registry, ids, config, on_bound)?.0)
}

/// What a lane's decide thread needs of its scheduler. Implemented by
/// the caller-owned lane here and the built lanes in [`crate::shard`].
pub(crate) trait LaneSched: Sized {
    fn sched(&mut self) -> &mut dyn OnlineScheduler;
    // The decision event the last `decide()` recorded.
    fn take_event(&mut self) -> Option<TraceEvent>;
    // The same decision's code, for a caller that reads nothing else; a
    // lane whose sink keeps the decision by its parts builds no event.
    fn take_code(&mut self) -> Option<DecisionCode> {
        match self.take_event()? {
            TraceEvent::Decision(event) => Some(event.outcome.code()),
            _ => None,
        }
    }
    // Starts the decide threads of lanes 1..S: the one place that needs
    // `Send` lanes, which a caller-owned (`!Send`) lane never reaches.
    fn spawn_peers<'scope, 'env>(
        _: &'scope Scope<'scope, 'env>,
        _: &'env Pipeline<'_, Self>,
    ) -> Vec<ScopedJoinHandle<'scope, ()>> {
        Vec::new()
    }
}

struct CallerSched<'a> {
    scheduler: &'a mut dyn OnlineScheduler,
    tap: &'a DecisionTap,
}

impl LaneSched for CallerSched<'_> {
    fn sched(&mut self) -> &mut dyn OnlineScheduler {
        self.scheduler
    }
    fn take_event(&mut self) -> Option<TraceEvent> {
        self.tap.pop()
    }
}

// The one `decide()` call site, for live decisions and recovery replay:
// the decision's code, and its event unless `keep` reads only the code.
fn decide_take<L: LaneSched>(
    sched: &mut L,
    request: &Request,
    keep: Keep,
) -> Result<(DecisionCode, Option<DecisionEvent>), ServeError> {
    sched.sched().decide(request);
    let taken = match keep {
        Keep::Code => sched.take_code().map(|code| (code, None)),
        Keep::Event | Keep::Line => match sched.take_event() {
            Some(TraceEvent::Decision(event)) => Some((event.outcome.code(), Some(event))),
            _ => None,
        },
    };
    taken.ok_or_else(|| {
        ServeError::Config(
            "scheduler was not constructed with the daemon's DecisionTap sink".to_string(),
        )
    })
}

// Decisions between recovery-base compactions; bounds the replay a
// panicked lane performs to at most this many re-decides.
const RECOVERY_COMPACT: usize = 64;

// Recent decisions each lane remembers for idempotent resubmits (a
// reconnecting client resends what it never saw answered).
const DEDUPE_WINDOW: usize = 1024;

// One remembered decision: the code always, the line only where the
// reply was a line (v2 singles) — keeping every batch decision's event
// alive costs the codec-bound path more than the decide itself.
pub(crate) struct Recent {
    pub id: usize,
    pub admitted: bool,
    pub line: Option<String>,
}

/// One lane's state, all behind the lane lock. Only the owner thread
/// decides on it; other threads take the lock to read its counters
/// ([`Pipeline::stats`]).
pub(crate) struct LaneCore<L> {
    pub sched: L,
    // Lowest id still accepted. Ids must increase, but gaps are legal:
    // an overloaded frame's ids are simply skipped, which is what lets
    // an open-loop driver keep going at saturation.
    pub next_id: usize,
    // This lane's counters. Payments add up in decision order, so with
    // one lane revenue is the batch engine's to the bit.
    pub stats: ServeStats,
    // Times the supervisor healed this lane after a panic.
    pub restarts: u64,
    // The crash-consistency log: a periodically compacted base state
    // plus the requests decided since, always in step with the
    // scheduler. After a panic the supervisor re-imports `base` and
    // re-decides the suffix; the schedulers are deterministic, so the
    // healed state is bit-identical to one that never panicked.
    base: SchedulerState,
    base_next_id: usize,
    suffix: Vec<SubmitRequest>,
    // Recent decisions, oldest first, for idempotent resubmits.
    pub recent: VecDeque<Recent>,
}

impl<L: LaneSched> LaneCore<L> {
    pub fn new(mut sched: L, lane: usize) -> Self {
        LaneCore {
            base: sched.sched().export_state(),
            sched,
            next_id: lane,
            stats: ServeStats::default(),
            restarts: 0,
            base_next_id: lane,
            suffix: Vec::new(),
            recent: VecDeque::new(),
        }
    }

    // Adopts a snapshot's scheduler state and id rule; the recovery log
    // restarts from it.
    pub fn adopt(&mut self, state: &SchedulerState, next_id: usize) -> Result<(), ServeError> {
        self.sched.sched().import_state(state)?;
        self.base = state.clone();
        self.suffix.clear();
        (self.next_id, self.base_next_id) = (next_id, next_id);
        Ok(())
    }

    // Folds the suffix into the base. The suffix *is* the dirty log: every cell that moved since the last compaction
    // lies in one of its windows, so the base is refreshed over their
    // slot span rather than re-exported over the horizon.
    fn compact(&mut self) {
        let span = self
            .suffix
            .iter()
            .map(|msg| (msg.arrival, msg.arrival + msg.duration - 1))
            .reduce(|(a, b), (first, last)| (a.min(first), b.max(last)));
        if let Some((first, last)) = span {
            let sched = self.sched.sched();
            sched.export_state_span(&mut self.base, first, last);
        }
        debug_assert_eq!(self.base, self.sched.sched().export_state());
        self.base_next_id = self.next_id;
        self.suffix.clear();
    }

    // The lane's final state: its recovery base after one last compaction.
    pub fn into_state(mut self) -> SchedulerState {
        self.compact();
        self.base
    }

    // Heals the scheduler after a panic: re-import the recovery base,
    // replay the suffix. Returns how many entries were replayed.
    fn restore(&mut self, horizon: Horizon, lanes: usize) -> usize {
        self.restarts += 1;
        let sched = self.sched.sched();
        sched
            .import_state(&self.base)
            .expect("the recovery base came from this scheduler");
        self.next_id = self.base_next_id;
        for msg in &self.suffix {
            // `decide_one` refused every id this sum would overflow.
            self.next_id = msg.id + lanes;
            let request = build_request(msg, horizon)
                .expect("suffix requests were validated before their first decide");
            let _ = decide_take(&mut self.sched, &request, Keep::Code);
        }
        self.suffix.len()
    }
}

// One v3 batch frame in flight across lanes: each part fills its
// positions in `codes`; the last one to finish sends the single reply.
pub(crate) struct BatchGather {
    seq: u64,
    // Pre-filled with BATCH_OVERLOAD, which is what a bounced part leaves.
    codes: Vec<AtomicU8>,
    remaining: AtomicUsize,
}

impl BatchGather {
    // Marks one part done. The last one gets `true` and the frame's
    // codes in `out`: the reply is its to send.
    fn finish_part(&self, out: &mut Vec<u8>) -> bool {
        let last = self.remaining.fetch_sub(1, Ordering::AcqRel) == 1;
        if last {
            out.clear();
            out.extend(self.codes.iter().map(|c| c.load(Ordering::Acquire)));
        }
        last
    }
}

// Replies a decide thread has produced and not yet written, one buffer
// per connection. Appending costs no syscall; `flush` issues one
// `write` per connection. Lives in `supervise`, so a panic between two
// items loses no reply.
#[derive(Default)]
struct Outbox {
    // Connections with unwritten replies, in order of first append.
    pending: Vec<Unsent>,
    // Flushed buffers, kept for their capacity.
    spare: Vec<(Vec<u8>, Vec<Instant>)>,
    // Scratch for one batch reply: its codes, then its encoded line.
    codes: Vec<u8>,
    line: String,
    // Time spent encoding and appending since the last flush; reported
    // with the flush, so `reply-write` is everything a reply costs.
    append_ns: u64,
    // Some connection's buffer has passed `FLUSH_BYTES`.
    full: bool,
}

struct Unsent {
    conn: Conn,
    bytes: Vec<u8>,
    // When each buffered reply's item was queued: admission latency ends
    // when the bytes reach the socket, not when they are buffered.
    queued: Vec<Instant>,
}

impl Outbox {
    // Buffers one reply line for `conn`, answering an item queued at
    // `queued`.
    fn append(&mut self, conn: &Conn, line: &str, queued: Instant) {
        let held = self.pending.iter().position(|u| Arc::ptr_eq(&u.conn, conn));
        let i = held.unwrap_or_else(|| {
            let (bytes, queued) = self.spare.pop().unwrap_or_default();
            self.pending.push(Unsent {
                conn: Arc::clone(conn),
                bytes,
                queued,
            });
            self.pending.len() - 1
        });
        let unsent = &mut self.pending[i];
        unsent.bytes.extend_from_slice(line.as_bytes());
        unsent.bytes.push(b'\n');
        unsent.queued.push(queued);
        self.full |= unsent.bytes.len() >= FLUSH_BYTES;
    }

    // Buffers the batch reply for `seq` over the codes in `self.codes`.
    fn append_codes(&mut self, conn: &Conn, seq: u64, queued: Instant) {
        let mut line = std::mem::take(&mut self.line);
        encode_batch_reply_into(&mut line, seq, &self.codes);
        self.append(conn, &line, queued);
        self.line = line;
    }

    // Writes every buffered reply, one `write` per connection, and
    // accounts for it on lane `s`: the bytes' cost as `reply-write`, each
    // reply's age as admission latency. A connection whose write fails is
    // condemned by `ClientConn::send`; its later replies cost nothing.
    fn flush(&mut self, front: &Front<'_>, s: usize) {
        if self.pending.is_empty() {
            return;
        }
        self.full = false;
        let clock = StageClock::start();
        for mut unsent in self.pending.drain(..) {
            let _ = unsent.conn.send(&unsent.bytes);
            let now = Instant::now();
            for queued in unsent.queued.drain(..) {
                let latency = now.duration_since(queued).as_secs_f64();
                front.registry.observe(front.ids.admission_latency, latency);
            }
            unsent.bytes.clear();
            self.spare.push((unsent.bytes, unsent.queued));
        }
        let ns = clock.elapsed_ns() + std::mem::take(&mut self.append_ns);
        front.stage_obs(s, PipelineStage::ReplyWrite, ns);
    }
}

// What a decide thread holds between two queue items: the rest of the
// chunk it drained and the replies it has not written yet. Owned by
// `supervise`, not by the loop's frame, so that a `LaneItem::Panic` or a
// genuine decide panic in mid-chunk loses neither the items behind it
// nor the replies before it.
#[derive(Default)]
struct LaneRun {
    chunk: VecDeque<LaneItem>,
    out: Outbox,
}

pub(crate) enum LaneItem {
    // Requests for this lane, the connection they came in on, and when
    // they were queued.
    Work(Work, Conn, Instant),
    // Lane 0 only: a control or replication input, FIFO with the submits
    // around it.
    Node(NodeItem),
    // A control ack on its way through the lanes (see [`relay_ack`]).
    Ack(ControlAck, Conn),
    // Injected by `chaos-panic`: the decide thread panics on dequeuing
    // it — a message boundary, no lock held, nothing poisoned.
    Panic,
}

/// Sends a control ack on from lane `s`. The node issues it on lane 0;
/// each lane passes it to the next one's queue, and the last lane — or
/// the first to find the next queue closed — fills in the counters and
/// writes it. So what an ack reports covers everything queued before it
/// on every lane, and a control wakes every decide thread alike rather
/// than lane 0's alone. The push blocks on a full queue, so the caller
/// must have flushed its outbox.
pub(crate) fn relay_ack<L>(p: &Pipeline<'_, L>, s: usize, ack: ControlAck, conn: Conn) {
    let passed_on = match p.front.queues.get(s + 1) {
        Some(next) => next.push(LaneItem::Ack(ack, conn)),
        None => Err(LaneItem::Ack(ack, conn)),
    };
    if let Err(LaneItem::Ack(mut ack, conn)) = passed_on {
        ack.stats = p.stats();
        let _ = write_line(&conn, encode_server(&ServerMsg::Ack(ack)));
    }
}

pub(crate) enum Work {
    // A single v2 frame; answered with a full decision line.
    Single(SubmitRequest),
    // A whole v3 batch frame (sequence number, requests) whose ids all
    // live on this lane — every frame at S = 1, and what sticky
    // connection→lane clients send: the parsed vector as it is, answered
    // by this lane alone.
    Frame(u64, Vec<SubmitRequest>),
    // This lane's slice of a v3 batch frame mixed across lanes:
    // (position, request) pairs, one code each into the shared gather.
    Part(Arc<BatchGather>, Vec<(usize, SubmitRequest)>),
}

// What one queue item adds to the registry's decision series:
// accumulated locally, published once.
#[derive(Default)]
pub(crate) struct Tally {
    admitted: u64,
    rejected: [u64; RejectReason::ALL.len()],
}

impl Tally {
    pub fn publish(self, front: &Front<'_>) {
        let (reg, ids) = (front.registry, &front.ids.decisions);
        reg.add(ids.admitted, self.admitted);
        reg.add(ids.rejected, self.rejected.iter().sum());
        for (id, &n) in ids.reject_by_reason.iter().zip(&self.rejected) {
            if n > 0 {
                reg.add(*id, n);
            }
        }
    }
}

/// Everything the workers and every lane share (all `Sync`).
pub(crate) struct Front<'a> {
    pub config: &'a ServeConfig,
    pub registry: &'a MetricsRegistry,
    pub ids: &'a ServeMetricIds,
    pub engine: EngineMetrics<'a>,
    pub horizon: Horizon,
    // The bound address: where `begin_shutdown` finds the accept loop.
    local_addr: SocketAddr,
    conns: BoundedQueue<TcpStream>,
    pub queues: Vec<BoundedQueue<LaneItem>>,
    // Requests bounced off a full lane.
    pub overloaded: AtomicU64,
    pub stop: AtomicBool,
    // Role, epoch and snapshot stamp, mirrored from the node.
    pub status: Arc<StatusShared>,
    // One flight recorder per lane; `None` without a flight directory.
    pub flights: Option<Vec<SharedFlight>>,
}

impl Front<'_> {
    // Stop reading sockets, and close every lane so the decide threads
    // drain what is queued, in order, and exit. Idempotent.
    pub fn begin_shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.conns.close();
        self.queues.iter().for_each(BoundedQueue::close);
        // The accept loop blocks in `accept`; a connection to ourselves
        // is the wake-up `std` offers. Should it fail, the listener is
        // already beyond accepting and the loop is not in `accept`.
        let mut addr = self.local_addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    // One stage latency, into lane `s`'s histogram and flight ring.
    #[inline]
    pub fn stage_obs(&self, s: usize, stage: PipelineStage, ns: u64) {
        self.ids.observe_stage_ns(self.registry, s, stage, ns);
        self.flight(s, || TraceEvent::StageSample {
            shard: s,
            stage,
            nanos: ns,
        });
    }

    // One item's decide span, also the engine's decide-latency series.
    fn decide_obs(&self, s: usize, ns: u64) {
        self.stage_obs(s, PipelineStage::Decide, ns);
        self.engine.observe_decide(ns as f64 * 1e-9);
    }

    #[inline]
    pub fn flight(&self, s: usize, event: impl FnOnce() -> TraceEvent) {
        if let Some(flights) = &self.flights {
            flights[s].record(event());
        }
    }

    // Dumps lane `s`'s flight ring into the configured directory.
    pub fn dump_flight(&self, s: usize) {
        if let (Some(flights), Some(dir)) = (&self.flights, &self.config.flight_dir) {
            let _ = flights[s].dump(dir, self.status.epoch(), s);
        }
    }

    // Mirrors lane `s`'s queue depth into its gauges (no lock: the queue
    // keeps its depth in an atomic).
    fn lane_depth(&self, s: usize) {
        let (q, lanes) = (&self.queues[s], &self.ids.lanes);
        lanes.set_depth(self.registry, s, q.len(), q.capacity());
    }

    // Counts `n` requests bounced off lane `s`'s full queue.
    fn shed(&self, s: usize, n: u64) {
        self.registry.add(self.ids.overloads, n);
        self.overloaded.fetch_add(n, Ordering::AcqRel);
        self.registry.inc(self.ids.lanes.shed[s]);
    }

    // Hands lane 0 a node item. Never dropped by backpressure: the push
    // blocks, and fails only when the daemon is already going down.
    fn to_node(&self, item: NodeItem, writer: &Conn) {
        if self.queues[0].push(LaneItem::Node(item)).is_err() {
            let _ = write_line(writer, error_line("daemon is shutting down".to_string()));
        }
    }

    fn protocol_error(&self, conn: &Conn, text: String) -> io::Result<()> {
        self.registry.inc(self.ids.protocol_errors);
        write_line(conn, error_line(text))
    }
}

/// The front end plus the lanes it feeds.
pub(crate) struct Pipeline<'a, L> {
    pub front: Front<'a>,
    pub lanes: Vec<Mutex<LaneCore<L>>>,
}

impl<L> Pipeline<'_, L> {
    /// Aggregate counters over all lanes (one lane lock at a time).
    pub fn stats(&self) -> ServeStats {
        let mut total = ServeStats {
            overloaded: self.front.overloaded.load(Ordering::Acquire),
            ..ServeStats::default()
        };
        for lane in &self.lanes {
            let stats = lane.lock().unwrap_or_else(|e| e.into_inner()).stats;
            total.decided += stats.decided;
            total.admitted += stats.admitted;
            total.rejected += stats.rejected;
            total.revenue += stats.revenue;
        }
        total
    }
}

/// The whole daemon over ready-made lanes: validate, bind, serve until
/// shutdown, drain, persist. Hands the lanes back beside the report.
pub(crate) fn run<L: LaneSched>(
    mut lanes: Vec<LaneCore<L>>,
    registry: &MetricsRegistry,
    ids: &ServeMetricIds,
    config: &ServeConfig,
    on_bound: Option<mpsc::Sender<SocketAddr>>,
) -> Result<(ServeReport, Vec<LaneCore<L>>), ServeError> {
    let shards = lanes.len();
    config.check(shards)?;
    let metric_lanes = (ids.stage.shard_count(), ids.lanes.shard_count());
    if metric_lanes != (shards, shards) {
        return Err(ServeError::Config(format!(
            "the metric ids cover {} stage lane(s) and {} queue lane(s), and this daemon runs \
             {shards} lanes (register them with ServeMetricIds::register_sharded)",
            metric_lanes.0, metric_lanes.1
        )));
    }
    let listener = TcpListener::bind(&config.addr).map_err(|source| ServeError::Net {
        action: "bind",
        addr: config.addr.clone(),
        source,
    })?;
    let local_addr = listener.local_addr()?;

    let role = match config.standby {
        true => Role::Standby,
        false => Role::Primary,
    };
    let status = StatusShared::new(role, Epoch::INITIAL.0, shards, &config.fingerprint);
    let p = Pipeline {
        front: Front {
            config,
            registry,
            ids,
            engine: EngineMetrics::new(registry, ids.engine.clone()),
            horizon: lanes[0].sched.sched().ledger().horizon(),
            local_addr,
            conns: BoundedQueue::new(config.workers.max(1) * 2),
            queues: (0..shards)
                .map(|_| BoundedQueue::new(config.queue_capacity))
                .collect(),
            overloaded: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            status: Arc::new(status),
            flights: config.flight_dir.as_ref().map(|_| {
                (0..shards)
                    .map(|_| SharedFlight::new(FLIGHT_CAPACITY))
                    .collect()
            }),
        },
        lanes: lanes.into_iter().map(Mutex::new).collect(),
    };
    let mut node = Node::new(&p, role)?;
    if let Some(tx) = on_bound {
        let _ = tx.send(local_addr);
    }

    let front = &p.front;
    std::thread::scope(|scope| {
        let mut threads = node.spawn_helpers(scope);
        threads.extend(L::spawn_peers(scope, &p));
        threads.push(scope.spawn(|| accept_loop(&listener, front)));
        for _ in 0..config.workers.max(1) {
            threads.push(scope.spawn(|| worker_loop(front)));
        }
        // Lane 0 is this thread. An error (fencing, divergence) skips the
        // drain; a clean exit means the lane was closed and drained.
        let result = supervise(0, &p, Some(&mut node));
        front.begin_shutdown();
        let result = node.hang_up(result);
        // Joined, not merely finished: a caller that runs daemon after
        // daemon sees every thread of the last one gone.
        for thread in threads {
            thread.join().expect("daemon thread panicked");
        }
        result
    })?;

    let snapshot_written = node.finish()?;
    let report = ServeReport {
        local_addr,
        stats: p.stats(),
        slot: node.slot,
        next_id: p.lanes[0].lock().unwrap().next_id,
        snapshot_written,
        epoch: node.epoch.0,
        role: node.role,
    };
    drop(node);
    let lanes = p.lanes.into_iter();
    let unlock = |lane: Mutex<LaneCore<L>>| lane.into_inner().unwrap_or_else(|e| e.into_inner());
    Ok((report, lanes.map(unlock).collect()))
}

// Blocks in `accept`, so a new connection waits for no poll;
// `begin_shutdown` wakes it with a connection of its own.
fn accept_loop(listener: &TcpListener, front: &Front<'_>) {
    while !front.stopping() {
        match listener.accept() {
            // push blocks while all workers are busy; Err means the
            // daemon is shutting down and the connection is dropped.
            Ok((stream, _)) => {
                if front.stopping() || front.conns.push(stream).is_err() {
                    return;
                }
            }
            // Out of descriptors, or a peer that reset before the accept:
            // back off rather than spin on a persistent error.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn worker_loop(front: &Front<'_>) {
    while let Some(stream) = front.conns.pop() {
        front.registry.inc(front.ids.connections);
        let _ = handle_conn(stream, front);
        if front.stopping() {
            return;
        }
    }
}

fn handle_conn(stream: TcpStream, front: &Front<'_>) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    // Set before the clone so both handles share the option.
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let _ = stream.set_nodelay(true);
    let writer: Conn = Arc::new(ClientConn {
        stream: Mutex::new(stream.try_clone()?),
        condemned: AtomicBool::new(false),
    });
    let mut reader = BufReader::with_capacity(READ_BUF_BYTES, stream);
    let mut line = String::new();
    let mut reqs: Vec<SubmitRequest> = Vec::new();
    let mut first = true;
    let mut carried_repl = false;
    let result = loop {
        if front.stopping() {
            break Ok(());
        }
        // On a read timeout any partial line stays in `line` and the next
        // read_line call appends the rest — slow peers never tear lines.
        // The take stops a line one byte past the limit, whether or not
        // its sender ever pauses.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        let torn = match reader.by_ref().take(room).read_line(&mut line) {
            Ok(0) => break Ok(()),
            Ok(_) => !line.ends_with('\n'),
            Err(e) if !is_timeout(&e) => break Err(e),
            Err(_) => continue,
        };
        let oversized = line.len() > MAX_LINE_BYTES;
        if oversized || torn {
            // Neither can be resynchronized (the frame boundary is lost):
            // typed error (best effort), drop the connection. A line the
            // take cut short lacks its newline too, so size goes first;
            // any other line without one is the peer closing mid-line.
            // The fragment never goes near the parser.
            let text = match oversized {
                true => format!(
                    "oversized frame: {} bytes exceeds the {MAX_LINE_BYTES} byte line limit",
                    line.len()
                ),
                false => format!(
                    "torn frame: connection closed mid-line after {} bytes",
                    line.len()
                ),
            };
            let _ = front.protocol_error(&writer, text);
            if oversized {
                drain(&mut reader);
            }
            break Ok(());
        }
        if first && line.starts_with("GET ") {
            return serve_http(&line, reader, &writer, front);
        }
        first = false;
        match route_line(line.trim(), &mut reqs, &writer, front) {
            Ok(repl) => carried_repl |= repl,
            // A direct reply write failed (typically a write timeout
            // against a non-draining peer): free this worker.
            Err(_) => break Ok(()),
        }
        line.clear();
    };
    if carried_repl {
        // FIFO puts this marker behind every frame the connection
        // delivered, so a pending promotion drains before flipping.
        let _ = front.queues[0].push(LaneItem::Node(NodeItem::ReplEof(writer)));
    }
    result
}

/// Reads and drops what an oversized line's sender still has in flight,
/// up to one more line's worth or until it pauses. Closing a socket with
/// unread bytes sends a reset, which can discard the error line before
/// the peer reads it; a drained one closes behind that line.
fn drain(reader: &mut impl io::Read) {
    let _ = io::copy(&mut reader.take(MAX_LINE_BYTES as u64), &mut io::sink());
}

// Parses one frame and routes it: submits to lane `id mod S` (bounced
// with a typed overload when full), controls and replication lines to
// lane 0. `Ok(true)` for a replication line; `Err` when a direct reply
// write failed.
fn route_line(
    line: &str,
    reqs: &mut Vec<SubmitRequest>,
    writer: &Conn,
    front: &Front<'_>,
) -> io::Result<bool> {
    if line.is_empty() {
        return Ok(false);
    }
    let shards = front.queues.len();
    let mut clock = StageClock::start();
    if is_batch_frame(line) {
        let seq = match parse_batch_into(line, reqs) {
            Ok(seq) => seq,
            Err(e) => return front.protocol_error(writer, e.to_string()).map(|()| false),
        };
        // Parse/dispatch work happens once per frame; attribute it to
        // the home lane of the frame's first request.
        let home = reqs[0].id % shards;
        front.stage_obs(home, PipelineStage::IngressParse, clock.lap_ns());
        front.registry.add(front.ids.submitted, reqs.len() as u64);
        route_batch(seq, reqs, home, writer, front);
        front.stage_obs(home, PipelineStage::Dispatch, clock.lap_ns());
        return Ok(false);
    }
    if is_repl_line(line) {
        return match parse_repl(line) {
            Ok(msg) => {
                front.to_node(NodeItem::Repl(msg, Arc::clone(writer)), writer);
                Ok(true)
            }
            Err(e) => front.protocol_error(writer, e.to_string()).map(|()| false),
        };
    }
    let wrote = match parse_client(line) {
        Ok(ClientMsg::Submit(msg)) => {
            let home = msg.id % shards;
            front.stage_obs(home, PipelineStage::IngressParse, clock.lap_ns());
            front.registry.inc(front.ids.submitted);
            let queue = &front.queues[home];
            let item = LaneItem::Work(Work::Single(msg), Arc::clone(writer), Instant::now());
            let mut wrote = Ok(());
            if queue.try_push(item).is_err() {
                front.shed(home, 1);
                let reply = ServerMsg::Overload(OverloadReject {
                    id: msg.id,
                    queue_depth: queue.len(),
                    limit: queue.capacity(),
                });
                wrote = write_line(writer, encode_server(&reply));
            }
            front.stage_obs(home, PipelineStage::Dispatch, clock.lap_ns());
            let depth = queue.len() as f64;
            front.registry.set_gauge(front.ids.queue_depth, depth);
            front.lane_depth(home);
            wrote
        }
        Ok(ClientMsg::Control(action)) => {
            front.to_node(NodeItem::Control(action, Some(Arc::clone(writer))), writer);
            Ok(())
        }
        Err(e) => front.protocol_error(writer, e.to_string()),
    };
    wrote.map(|()| false)
}

// Queues a parsed batch: whole, on the lane of its first request
// (`home`), when every id lives there; otherwise split into per-lane
// parts sharing one gather. What bounces off a full lane is answered
// with overload codes at once.
fn route_batch(
    seq: u64,
    reqs: &mut Vec<SubmitRequest>,
    home: usize,
    writer: &Conn,
    front: &Front<'_>,
) {
    let shards = front.queues.len();
    let send_codes = |codes: &[u8]| {
        let mut line = String::new();
        encode_batch_reply_into(&mut line, seq, codes);
        let _ = write_line(writer, line);
    };
    if shards == 1 || reqs.iter().all(|r| r.id % shards == home) {
        // The lane gets the parsed vector itself; the next frame parses
        // into one allocated at this frame's size.
        let n = reqs.len();
        let frame = std::mem::replace(reqs, Vec::with_capacity(n));
        let item = LaneItem::Work(Work::Frame(seq, frame), Arc::clone(writer), Instant::now());
        if front.queues[home].try_push(item).is_err() {
            front.shed(home, n as u64);
            send_codes(&vec![BATCH_OVERLOAD; n]);
        }
        front.lane_depth(home);
        return;
    }
    let mut parts: Vec<Vec<(usize, SubmitRequest)>> = vec![Vec::new(); shards];
    for (pos, msg) in reqs.iter().enumerate() {
        parts[msg.id % shards].push((pos, *msg));
    }
    let gather = Arc::new(BatchGather {
        seq,
        codes: reqs.iter().map(|_| AtomicU8::new(BATCH_OVERLOAD)).collect(),
        remaining: AtomicUsize::new(parts.iter().filter(|p| !p.is_empty()).count()),
    });
    for (s, part) in parts.into_iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        let n = part.len() as u64;
        let work = Work::Part(Arc::clone(&gather), part);
        let item = LaneItem::Work(work, Arc::clone(writer), Instant::now());
        if front.queues[s].try_push(item).is_err() {
            front.shed(s, n);
            let mut codes = Vec::new();
            if gather.finish_part(&mut codes) {
                send_codes(&codes);
            }
        }
        front.lane_depth(s);
    }
}

fn serve_http(
    request_line: &str,
    mut reader: BufReader<TcpStream>,
    writer: &Conn,
    front: &Front<'_>,
) -> io::Result<()> {
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    // Skip the headers: up to the blank line, EOF or a read timeout.
    let mut header = String::new();
    while reader.read_line(&mut header).is_ok_and(|n| n > 2) {
        header.clear();
    }
    let (registry, ids, node) = (front.registry, front.ids, &front.status);
    let text = "text/plain; version=0.0.4";
    let (status, content_type, body) = match path {
        "/metrics" => {
            // Derived at scrape time: the node only stamps the snapshot
            // instant, the age is computed when someone looks.
            let age = node.snapshot_age_seconds().unwrap_or(-1.0);
            registry.set_gauge(ids.snapshot_age, age);
            ("200 OK", text, registry.to_prometheus())
        }
        "/status" => (
            "200 OK",
            "application/json",
            node.render_json(registry, ids),
        ),
        _ => ("404 Not Found", text, "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    writer.send(response.as_bytes())
}

/// One lane's supervisor: runs the lane loop, and on a panic (the
/// `chaos-panic` control frame, or a genuine decide-thread bug) dumps
/// the lane's flight ring, heals the lane from its recovery log, and
/// resumes where the loop stopped: the rest of the drained chunk, then
/// the queue, in order, with the replies buffered so far still to send.
pub(crate) fn supervise<L: LaneSched>(
    s: usize,
    p: &Pipeline<'_, L>,
    mut node: Option<&mut Node<'_, L>>,
) -> Result<(), ServeError> {
    let mut run = LaneRun::default();
    loop {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lane_loop(s, p, node.as_deref_mut(), &mut run)
        }));
        if let Ok(result) = attempt {
            // Drained or failed, the lane leaves nothing buffered behind.
            run.out.flush(&p.front, s);
            return result;
        }
        p.front.dump_flight(s);
        let replayed = (p.lanes[s].lock())
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .restore(p.front.horizon, p.lanes.len());
        p.front
            .flight(s, || TraceEvent::ShardRestart { shard: s, replayed });
    }
}

// One lane's decide thread: drains its queue a chunk at a time until
// closed and empty, waking at least every 50 ms for lane 0's node
// (signals, replication link, promotion timers). Replies are buffered in
// `run.out`; the flush-before-block rule puts them on their sockets
// before the thread parks on its queue, blocks on the next lane's
// (`relay_ack`), lets the node answer or hands a reply to the
// replication sender, and when a buffer fills. `supervise` covers the
// returns.
fn lane_loop<L: LaneSched>(
    s: usize,
    p: &Pipeline<'_, L>,
    mut node: Option<&mut Node<'_, L>>,
    run: &mut LaneRun,
) -> Result<(), ServeError> {
    let front = &p.front;
    loop {
        if let Some(node) = node.as_deref_mut() {
            node.tick()?;
        }
        if run.chunk.is_empty() {
            run.out.flush(front, s);
            let wait = Duration::from_millis(50);
            match front.queues[s].drain_timeout(&mut run.chunk, LANE_CHUNK, wait) {
                Drained::Items => front.lane_depth(s),
                Drained::TimedOut => continue,
                Drained::Closed => return Ok(()),
            }
        }
        // Off the chunk before it is touched: a panic below loses this
        // item at most, as it would have off the queue.
        match run.chunk.pop_front().expect("the drain reported items") {
            LaneItem::Work(work, conn, enqueued) => {
                answer(
                    s,
                    p,
                    node.as_deref_mut(),
                    &mut run.out,
                    work,
                    &conn,
                    enqueued,
                )?;
                if run.out.full {
                    run.out.flush(front, s);
                }
            }
            LaneItem::Node(item) => {
                run.out.flush(front, s);
                let node = node.as_deref_mut().expect("node items route to lane 0");
                node.handle(item)?;
            }
            LaneItem::Ack(ack, conn) => {
                run.out.flush(front, s);
                relay_ack(p, s, ack, conn);
            }
            LaneItem::Panic => panic!("chaos-panic control frame killed lane {s}'s decide thread"),
        }
    }
}

// Decides one work item on lane `s` and buffers its reply in `out`.
fn answer<L: LaneSched>(
    s: usize,
    p: &Pipeline<'_, L>,
    mut node: Option<&mut Node<'_, L>>,
    out: &mut Outbox,
    work: Work,
    conn: &Conn,
    enqueued: Instant,
) -> Result<(), ServeError> {
    let front = &p.front;
    let waited = u64::try_from(enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
    front.stage_obs(s, PipelineStage::QueueWait, waited);
    if front.status.role() == Role::Standby {
        front.registry.inc(front.ids.not_primary);
        let epoch = front.status.epoch();
        let id = match &work {
            Work::Single(msg) => msg.id,
            Work::Frame(_, reqs) => reqs[0].id,
            Work::Part(_, reqs) => reqs[0].1.id,
        };
        let refusal = ServerMsg::NotPrimary { epoch, id };
        out.append(conn, &encode_server(&refusal), enqueued);
        return Ok(());
    }
    let replicating = front.config.replicate_to.is_some();
    if !matches!(work, Work::Single(_)) && replicating {
        // The replication log is framed per decision line, which a
        // code array cannot carry; rather than weaken the semi-sync
        // guarantee, a replicating primary refuses v3 batches.
        let text = "batch frames are not supported on a replicating primary; \
                    use single-request frames";
        front.registry.inc(front.ids.protocol_errors);
        out.append(conn, &error_line(text.to_string()), enqueued);
        return Ok(());
    }
    // One decide span and one publication per queue item, not per
    // request: at a million decisions per second those are a measurable
    // tax on the path they measure.
    let mut clock = StageClock::start();
    let mut tally = Tally::default();
    // Whether this lane's reply is in `out`, its latency still running.
    let mut buffered = true;
    match work {
        Work::Single(msg) => {
            let reply = match decide_one(s, &msg, p, &mut tally, Keep::Line)? {
                Decided::Fresh { line, event, .. } => {
                    let (line, event) = line.zip(event).expect("asked for both");
                    front.flight(s, || TraceEvent::Decision(event.clone()));
                    match node {
                        Some(node) => {
                            node.trace(TraceEvent::Decision(event));
                            if replicating {
                                // The sender writes this reply; nothing
                                // older may still sit in a buffer here.
                                out.flush(front, s);
                            }
                            node.replicate(&msg, line, conn)
                        }
                        None => Some(line),
                    }
                }
                Decided::Replayed { line: None, .. } => Some(error_line(format!(
                    "request {} was already decided in a batch frame; only its code was kept",
                    msg.id
                ))),
                Decided::Replayed { line, .. } => line,
                Decided::Refused(text) => Some(error_line(text)),
            };
            front.decide_obs(s, clock.lap_ns());
            match reply {
                Some(line) => out.append(conn, &line, enqueued),
                // The reply travels with its replication frame.
                None => buffered = false,
            }
        }
        Work::Frame(seq, reqs) => {
            out.codes.clear();
            for msg in &reqs {
                let code = decide_code(s, msg, p, &mut tally, node.as_deref_mut())?;
                out.codes.push(code);
            }
            front.decide_obs(s, clock.lap_ns());
            out.append_codes(conn, seq, enqueued);
        }
        Work::Part(gather, reqs) => {
            for (pos, msg) in &reqs {
                let code = decide_code(s, msg, p, &mut tally, node.as_deref_mut())?;
                gather.codes[*pos].store(code, Ordering::Release);
            }
            front.decide_obs(s, clock.lap_ns());
            // The last lane to finish answers the frame.
            buffered = gather.finish_part(&mut out.codes);
            if buffered {
                out.append_codes(conn, gather.seq, enqueued);
            }
        }
    }
    out.append_ns += clock.lap_ns();
    tally.publish(front);
    if !buffered {
        let latency = enqueued.elapsed().as_secs_f64();
        front.registry.observe(front.ids.admission_latency, latency);
    }
    Ok(())
}

// Decides one request of a batch frame: its reply code. The event is
// kept only for the trace tee.
fn decide_code<L: LaneSched>(
    s: usize,
    msg: &SubmitRequest,
    p: &Pipeline<'_, L>,
    tally: &mut Tally,
    node: Option<&mut Node<'_, L>>,
) -> Result<u8, ServeError> {
    // A trace file implies one lane (`ServeConfig::check`): lane 0, the
    // node's.
    let keep = match p.front.config.trace_path {
        Some(_) => Keep::Event,
        None => Keep::Code,
    };
    Ok(match decide_one(s, msg, p, tally, keep)? {
        Decided::Fresh {
            admitted, event, ..
        } => {
            if let Some((node, event)) = node.zip(event) {
                node.trace(TraceEvent::Decision(event));
            }
            BATCH_CODES[usize::from(admitted)]
        }
        Decided::Replayed { admitted, .. } => BATCH_CODES[usize::from(admitted)],
        Decided::Refused(_) => BATCH_ERROR,
    })
}

// The batch-reply code of a decision, indexed by "admitted".
const BATCH_CODES: [u8; 2] = [BATCH_REJECT, BATCH_ADMIT];

// What the caller of `decide_one` will read of a fresh decision; the
// rest is not built.
#[derive(Clone, Copy)]
pub(crate) enum Keep {
    // The admit/reject code only (a batch frame's reply).
    Code,
    // The decision event too (a batch frame under a trace tee).
    Event,
    // The event and its encoded line (v2 replies, replication); the
    // dedupe ring then keeps the line as well.
    Line,
}

pub(crate) enum Decided {
    // Decided just now; `line` and `event` as far as `Keep` asked.
    Fresh {
        admitted: bool,
        line: Option<String>,
        event: Option<DecisionEvent>,
    },
    // Already decided inside the lane's dedupe window: the first answer.
    Replayed {
        admitted: bool,
        line: Option<String>,
    },
    // Not decided (stale id outside the window, invalid request); counted.
    Refused(String),
}

/// Decides one request on its home lane `s`: id rule → `build_request`
/// → decide → recovery log → counters → dedupe ring, all under one take
/// of the home lock.
pub(crate) fn decide_one<L: LaneSched>(
    s: usize,
    msg: &SubmitRequest,
    p: &Pipeline<'_, L>,
    tally: &mut Tally,
    keep: Keep,
) -> Result<Decided, ServeError> {
    let (front, lanes) = (&p.front, p.lanes.len());
    let refuse = |text: String| {
        front.registry.inc(front.ids.protocol_errors);
        Ok(Decided::Refused(text))
    };
    let mut core = p.lanes[s].lock().unwrap();
    if msg.id < core.next_id {
        // A reconnecting client resubmits what it never saw answered:
        // answer from the ring, never re-decide.
        if let Some(hit) = core.recent.iter().rev().find(|r| r.id == msg.id) {
            front.registry.inc(front.ids.dedupe_hits);
            return Ok(Decided::Replayed {
                admitted: hit.admitted,
                line: hit.line.clone(),
            });
        }
        return refuse(format!(
            "out-of-order id {} (lane {s} accepts increasing ids with residue {s} mod {lanes}; \
             lowest acceptable is {})",
            msg.id, core.next_id
        ));
    }
    // The lane's next id must exist: an id that wrapped it would let
    // every id below it be decided again.
    let Some(next_id) = msg.id.checked_add(lanes) else {
        return refuse(format!(
            "request id {} is too large (the largest accepted on {lanes} lane(s) is {})",
            msg.id,
            usize::MAX - lanes
        ));
    };
    let request = match build_request(msg, front.horizon) {
        Ok(request) => request,
        Err(text) => return refuse(text),
    };
    core.next_id = next_id;
    let (code, mut event) = decide_take(&mut core.sched, &request, keep)?;
    // Admit or reject, both mutate the scheduler: log it for replay.
    core.suffix.push(*msg);
    if core.suffix.len() >= RECOVERY_COMPACT {
        core.compact();
    }
    core.stats.decided += 1;
    match code {
        DecisionCode::Admit { dual_cost } => {
            core.stats.admitted += 1;
            core.stats.revenue += request.payment();
            tally.admitted += 1;
            let dual_cost_series = front.ids.decisions.dual_cost;
            front.registry.observe(dual_cost_series, dual_cost);
        }
        DecisionCode::Reject(reason) => {
            core.stats.rejected += 1;
            tally.rejected[reason.index()] += 1;
        }
    }
    if let Some(Outcome::Admit { sites, .. }) = event.as_mut().map(|e| &mut e.outcome) {
        // Lane-local site ids to global ones: `global = local·S + s`.
        for site in sites {
            site.cloudlet = site.cloudlet * lanes + s;
        }
    }
    let line = match (keep, &event) {
        (Keep::Line, Some(event)) => {
            let mut line = String::with_capacity(192);
            write_decision(&mut JsonWriter::new(&mut line), event);
            Some(line)
        }
        _ => None,
    };
    let admitted = code.is_admit();
    while core.recent.len() >= DEDUPE_WINDOW {
        core.recent.pop_front();
    }
    core.recent.push_back(Recent {
        id: msg.id,
        admitted,
        line: line.clone(),
    });
    Ok(Decided::Fresh {
        admitted,
        line,
        event,
    })
}

fn build_request(msg: &SubmitRequest, horizon: Horizon) -> Result<Request, String> {
    let reliability =
        Reliability::new(msg.reliability).map_err(|e| format!("invalid reliability: {e}"))?;
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
