//! The node component riding lane 0: everything a daemon is besides its
//! lanes — role and fencing epoch, the replication log (primary send,
//! standby apply, promotion), snapshots and resume, the slot clock and
//! its ticker, signal handlers, the trace tee, and every control verb.
//!
//! Controls and replication lines reach the node through lane 0's
//! queue, FIFO with the submits around them, so with one lane every
//! ordering guarantee of DESIGN.md §12/§13 holds as stated there.
//! Snapshots and the replication log cover one scheduler; with more
//! lanes the start-up check refuses them and the node is a slot clock
//! and a control desk.

use std::collections::VecDeque;
use std::io::BufWriter;
use std::net::Shutdown;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use mec_obs::{JsonlSink, PipelineStage, TraceEvent, TraceSink};
use mec_topology::CloudletId;

use crate::daemon::{
    decide_one, relay_ack, write_line, Conn, Decided, Front, Keep, LaneItem, LaneSched, Pipeline,
    Recent, Role, Tally,
};
use crate::epoch::{Epoch, FenceCheck};
use crate::error::ServeError;
use crate::protocol::ServeStats;
use crate::protocol::{
    encode_client, encode_server, parse_client, parse_server, ClientMsg, ControlAck, ControlAction,
    ServerMsg, SubmitRequest,
};
use crate::replica::{encode_repl, run_repl_sender, PendingReply, ReplHandle, ReplItem, ReplMsg};
use crate::snapshot::Snapshot;

/// How long a promoting standby waits for the replication connection to
/// drain naturally (EOF from a dead primary) before force-closing it —
/// the split-brain guard for promotions against a still-live primary.
const PROMOTE_DRAIN_GRACE: Duration = Duration::from_millis(500);

#[cfg(unix)]
mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::Release);
    }

    extern "C" {
        // Raw libc `signal(2)`; the handler only touches an atomic, which
        // is async-signal-safe.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub(super) fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub(super) fn requested() -> bool {
        REQUESTED.load(Ordering::Acquire)
    }
}

#[cfg(not(unix))]
mod signal {
    pub(super) fn install() {}
    pub(super) fn requested() -> bool {
        false
    }
}

/// What the front end routes to lane 0 for the node.
pub(crate) enum NodeItem {
    // A control frame (`None`: from the slot ticker, nobody to ack).
    Control(ControlAction, Option<Conn>),
    // One replication line, and the connection that carried it.
    Repl(ReplMsg, Conn),
    // The connection that carried replication frames closed; FIFO
    // ordering guarantees every frame it delivered is already ahead of
    // this marker, which is what lets promotion drain before flipping.
    ReplEof(Conn),
}

// The decide thread's half of the replication sender: the item channel
// and the shared flags.
struct ReplLink {
    tx: mpsc::Sender<ReplItem>,
    handle: Arc<ReplHandle>,
    // Send instants of replicated-but-unacked frames, oldest first:
    // drained against `acked_seq` to feed the ack-wait histogram and the
    // lag-in-seconds gauge.
    sent_times: VecDeque<(u64, Instant)>,
}

/// Lane 0's node state, touched only by the thread that called the
/// constructor; what other threads need of it (role, epoch, snapshot
/// stamp) is mirrored into `Front::status`.
pub(crate) struct Node<'a, L> {
    p: &'a Pipeline<'a, L>,
    trace: Option<JsonlSink<BufWriter<std::fs::File>>>,
    pub slot: usize,
    pending_shutdown: Option<Conn>,
    pub epoch: Epoch,
    pub role: Role,
    // Replication log position: one entry per decision or slot advance.
    seq: u64,
    // Primary side: the sender thread link (None when not replicating).
    repl: Option<ReplLink>,
    // A promotion in progress: Some(ack connection) until the
    // replication channel drains (ReplEof) or the drain grace expires.
    promoting: Option<Option<Conn>>,
    promote_deadline: Option<Instant>,
    // Standby side: the connection currently carrying frames.
    repl_conn: Option<Conn>,
    last_heard: Option<Instant>,
    seen_hello: bool,
}

impl<'a, L: LaneSched> Node<'a, L> {
    /// Builds the node, resumes from the snapshot when asked to, and
    /// publishes the initial gauges.
    pub fn new(p: &'a Pipeline<'a, L>, role: Role) -> Result<Self, ServeError> {
        let front = &p.front;
        let (config, registry, ids) = (front.config, front.registry, front.ids);
        let mut node = Node {
            p,
            trace: match &config.trace_path {
                Some(path) => Some(JsonlSink::new(BufWriter::new(std::fs::File::create(path)?))),
                None => None,
            },
            slot: 0,
            pending_shutdown: None,
            epoch: Epoch::INITIAL,
            role,
            seq: 0,
            repl: None,
            promoting: None,
            promote_deadline: None,
            repl_conn: None,
            last_heard: None,
            seen_hello: false,
        };
        if let Some(path) = config
            .snapshot_path
            .as_ref()
            .filter(|p| config.resume && p.exists())
        {
            let snap = Snapshot::load(path)?;
            node.adopt(&snap)?;
            node.epoch = Epoch(snap.epoch);
            node.seq = snap.seq;
        }
        node.set_epoch(node.epoch);
        registry.set_gauge(ids.slot, node.slot as f64);
        registry.set_gauge(ids.is_primary, f64::from(u8::from(role == Role::Primary)));
        registry.set_gauge(ids.snapshot_age, -1.0);
        if config.install_signal_handlers {
            signal::install();
        }
        Ok(node)
    }

    // The front end, borrowed for the pipeline's lifetime, not `self`'s.
    fn front(&self) -> &'a Front<'a> {
        &self.p.front
    }

    /// Starts the slot ticker and the replication sender, where
    /// configured.
    pub fn spawn_helpers<'scope>(
        &mut self,
        scope: &'scope Scope<'scope, 'a>,
    ) -> Vec<ScopedJoinHandle<'scope, ()>> {
        let front = self.front();
        let mut threads = Vec::new();
        if let Some(tick) = front.config.tick {
            threads.push(scope.spawn(move || loop {
                let due = Instant::now() + tick;
                while Instant::now() < due {
                    if front.stop.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(25).min(tick));
                }
                let item = NodeItem::Control(ControlAction::AdvanceSlot, None);
                if front.queues[0].push(LaneItem::Node(item)).is_err() {
                    return;
                }
            }));
        }
        if let Some(peer) = &front.config.replicate_to {
            let (tx, rx) = mpsc::channel();
            let handle = Arc::new(ReplHandle::default());
            // `/status` renders the link state from the sender's atomics.
            front.status.set_repl(Arc::clone(&handle));
            self.repl = Some(ReplLink {
                tx,
                handle: Arc::clone(&handle),
                sent_times: VecDeque::new(),
            });
            let sender = move || run_repl_sender(peer, &handle, &rx, &front.stop);
            threads.push(scope.spawn(sender));
        }
        threads
    }

    /// Lane 0 has stopped: leave an abnormal exit's recent history on
    /// disk, and drop the sender thread's channel so it drains its outbox
    /// and exits (it is joined by the caller's thread scope).
    pub fn hang_up(&mut self, lane: Result<(), ServeError>) -> Result<(), ServeError> {
        // One last look at the sender's flags so a snapshot request
        // raised during the drain is answered before the channel drops.
        let result = lane.and_then(|()| self.tick());
        if let Err(e) = &result {
            if let ServeError::Fenced { epoch, by } = e {
                self.note(TraceEvent::Fenced {
                    epoch: *by,
                    stale_epoch: *epoch,
                });
            }
            self.p.front.dump_flight(0);
        }
        self.repl = None;
        result
    }

    /// Tees one decision to the trace file.
    pub fn trace(&mut self, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.record(event);
        }
    }

    // Node events (promotion, fencing, catch-up): trace file and lane
    // 0's flight ring.
    fn note(&mut self, event: TraceEvent) {
        self.p.front.flight(0, || event.clone());
        self.trace(event);
    }

    /// One node input, in queue order.
    pub fn handle(&mut self, item: NodeItem) -> Result<(), ServeError> {
        match item {
            NodeItem::Control(action, conn) => self.handle_control(action, conn),
            NodeItem::Repl(msg, conn) => self.handle_repl(&msg, &conn),
            NodeItem::ReplEof(conn) => {
                let current = self.repl_conn.as_ref();
                if current.is_some_and(|rc| Arc::ptr_eq(rc, &conn)) {
                    self.repl_conn = None;
                    // Keep the loss-detection clock running: a dead
                    // primary's EOF is when auto-promotion starts
                    // counting, not when it stops.
                    self.last_heard = Some(Instant::now());
                    if self.promoting.is_some() {
                        self.complete_promotion();
                    }
                }
                Ok(())
            }
        }
    }

    /// Per-iteration housekeeping: signals, fencing, snapshot requests,
    /// lag gauges, auto-promotion, and the promote drain deadline.
    pub fn tick(&mut self) -> Result<(), ServeError> {
        let front = self.front();
        let (registry, ids) = (front.registry, front.ids);
        if signal::requested() {
            front.begin_shutdown();
        }
        let mut snapshot_wanted = false;
        if let Some(link) = &mut self.repl {
            link.handle.epoch.store(self.epoch.0, Ordering::Release);
            if link.handle.fenced.load(Ordering::Acquire) {
                // A standby at a newer epoch exists: never ack again. The
                // error skips the final snapshot and maps to exit code 7.
                return Err(ServeError::Fenced {
                    epoch: self.epoch.0,
                    by: link.handle.fenced_by.load(Ordering::Acquire),
                });
            }
            snapshot_wanted = link.handle.need_snapshot.swap(false, Ordering::AcqRel);
            let sent = link.handle.sent_seq.load(Ordering::Acquire);
            let acked = link.handle.acked_seq.load(Ordering::Acquire);
            registry.set_gauge(ids.repl_sent_seq, sent as f64);
            registry.set_gauge(ids.repl_acked_seq, acked as f64);
            registry.set_gauge(ids.repl_lag, sent.saturating_sub(acked) as f64);
            // Ack-wait: every send instant the standby's ack now covers
            // is one histogram observation; the oldest still waiting is
            // the lag in seconds. The tick runs per queue item, so the
            // resolution under load is one pop.
            while let Some(&(seq, at)) = link.sent_times.front() {
                if seq > acked {
                    break;
                }
                let wait = at.elapsed();
                registry.observe(ids.repl_ack_wait, wait.as_secs_f64());
                let ns = u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX);
                front.stage_obs(0, PipelineStage::ReplAckWait, ns);
                link.sent_times.pop_front();
            }
            let lag = link.sent_times.front().map(|&(_, at)| at.elapsed());
            registry.set_gauge(ids.repl_lag_seconds, lag.map_or(0.0, |d| d.as_secs_f64()));
            registry.set_gauge(
                ids.repl_reconnects,
                link.handle.reconnects.load(Ordering::Relaxed) as f64,
            );
        }
        if snapshot_wanted {
            // The sender (re)connected or was refused: catch-up is
            // always a full-state frame at the current log position.
            let frame = ReplMsg::Snapshot {
                epoch: self.epoch.0,
                seq: self.seq,
                data: self.snapshot_value().encode(),
            };
            self.send_repl(frame, true, None);
            registry.inc(ids.repl_snapshots);
        }
        if self.role == Role::Standby {
            let silent = self.last_heard.zip(front.config.auto_promote_after);
            if self.promoting.is_none()
                && self.seen_hello
                && silent.is_some_and(|(heard, after)| heard.elapsed() >= after)
            {
                self.begin_promotion(None);
            }
            if self.promote_deadline.is_some_and(|d| Instant::now() >= d) {
                // No EOF within the grace window: the primary is probably
                // still alive (split brain). Force the connection closed;
                // its worker delivers the ReplEof that completes this.
                self.promote_deadline = None;
                if let Some(conn) = &self.repl_conn {
                    conn.shutdown(Shutdown::Both);
                }
            }
        }
        Ok(())
    }

    // Queues one frame at the current log position. A closed channel
    // means the sender exited (fenced or shutting down): a withheld
    // reply is then dropped, so no decision the standby lacks is acked.
    fn send_repl(&mut self, frame: ReplMsg, is_snapshot: bool, reply: Option<PendingReply>) {
        let item = ReplItem {
            line: encode_repl(&frame),
            seq: self.seq,
            is_snapshot,
            reply,
        };
        if let Some(link) = &self.repl {
            let _ = link.tx.send(item);
        }
    }

    /// On a replicating primary, hands a fresh decision's reply to the
    /// sender thread with its log frame and returns `None`; otherwise
    /// gives the line back to be written now. The sender releases the
    /// reply only once the standby's ack covers the frame, and then
    /// writes `conn` itself, so the caller must have flushed what it
    /// buffered for it.
    pub fn replicate(&mut self, msg: &SubmitRequest, line: String, conn: &Conn) -> Option<String> {
        let Some(link) = self.repl.as_mut() else {
            return Some(line);
        };
        self.seq += 1;
        link.sent_times.push_back((self.seq, Instant::now()));
        let frame = ReplMsg::Frame {
            epoch: self.epoch.0,
            seq: self.seq,
            submit: encode_client(&ClientMsg::Submit(*msg)),
            decision: line.clone(),
        };
        let conn = Arc::clone(conn);
        self.send_repl(frame, false, Some(PendingReply { conn, line }));
        None
    }

    fn handle_control(
        &mut self,
        action: ControlAction,
        conn: Option<Conn>,
    ) -> Result<(), ServeError> {
        let front = self.front();
        let lanes = self.p.lanes.len();
        let refusal = match action {
            ControlAction::AdvanceSlot if self.role == Role::Standby => {
                // The slot clock is replicated state: only the primary
                // advances it, via `repl-advance` frames.
                Some("standby: the slot clock advances via replication".to_string())
            }
            ControlAction::Promote if self.promoting.is_some() => {
                Some("promotion already in progress".to_string())
            }
            ControlAction::Snapshot | ControlAction::Promote if lanes > 1 => Some(format!(
                "{} covers one scheduler and this daemon runs {lanes} lanes; \
                 snapshots and replication need shards = 1",
                action.as_str()
            )),
            ControlAction::ChaosPanic(target) if target >= lanes => Some(format!(
                "chaos-panic: shard {target} does not exist (shards: {lanes})"
            )),
            _ => None,
        };
        if let Some(text) = refusal {
            self.refuse(conn.as_ref(), text);
            return Ok(());
        }
        match action {
            ControlAction::AdvanceSlot => {
                self.slot += 1;
                front.registry.set_gauge(front.ids.slot, self.slot as f64);
                if self.repl.is_some() {
                    self.seq += 1;
                    let frame = ReplMsg::Advance {
                        epoch: self.epoch.0,
                        seq: self.seq,
                        slot: self.slot,
                    };
                    self.send_repl(frame, false, None);
                }
            }
            // On a primary: a no-op ack (its epoch + role say so).
            ControlAction::Promote if self.role == Role::Standby => {
                self.begin_promotion(conn);
                return Ok(());
            }
            ControlAction::Snapshot => {
                if let Err(e) = self.write_snapshot() {
                    self.refuse(conn.as_ref(), format!("snapshot failed: {e}"));
                    return Ok(());
                }
            }
            ControlAction::Shutdown => {
                // Acked by finish(), after every lane drained and the
                // final snapshot: the ack means durable, final counters.
                // The worker still reading this connection would otherwise
                // sit out its read timeout before everything is joined.
                if let Some(conn) = &conn {
                    conn.shutdown(Shutdown::Read);
                }
                self.pending_shutdown = conn;
                front.begin_shutdown();
                return Ok(());
            }
            // Acked even without a flight directory: probing is harmless
            // and the ack's role/epoch are useful on their own.
            ControlAction::DumpFlight => (0..lanes).for_each(|s| front.dump_flight(s)),
            ControlAction::ChaosPanic(target) => {
                // Ack first: nothing downstream of a killed decide thread
                // can. A foreign lane's marker waits its turn in that
                // lane's queue like any frame; lane 0's turn is now.
                self.ack(conn.as_ref(), action);
                if target == 0 {
                    panic!("chaos-panic control frame killed lane 0's decide thread");
                }
                let _ = front.queues[target].push(LaneItem::Panic);
                return Ok(());
            }
            ControlAction::Promote | ControlAction::Stats => {}
        }
        self.ack(conn.as_ref(), action);
        Ok(())
    }

    // A typed error line, counted as a protocol error.
    fn refuse(&self, conn: Option<&Conn>, text: String) {
        self.p.front.registry.inc(self.p.front.ids.protocol_errors);
        if let Some(c) = conn {
            let _ = write_line(c, encode_server(&ServerMsg::Error(text)));
        }
    }

    // The one control-ack builder: slot, epoch and role come from the
    // node; the counters are filled in once the ack has passed every lane.
    fn ack(&self, conn: Option<&Conn>, action: ControlAction) {
        if let Some(c) = conn {
            let ack = ControlAck {
                action,
                slot: self.slot,
                stats: ServeStats::default(),
                epoch: self.epoch.0,
                role: self.role.as_str().to_string(),
                last_snapshot_unix_ms: self.p.front.status.last_snapshot_unix_ms(),
            };
            relay_ack(self.p, 0, ack, Arc::clone(c));
        }
    }

    // The full durable/replicable state of a one-lane node: written to
    // disk by `write_snapshot`, shipped to a follower for catch-up.
    fn snapshot_value(&self) -> Snapshot {
        let stats = self.p.stats();
        let mut core = self.p.lanes[0].lock().unwrap();
        Snapshot {
            algorithm: core.sched.sched().name().to_string(),
            config: self.p.front.config.fingerprint.clone(),
            next_id: core.next_id,
            slot: self.slot,
            stats,
            state: core.sched.sched().export_state(),
            epoch: self.epoch.0,
            seq: self.seq,
            recent: core.recent.iter().filter_map(|r| r.line.clone()).collect(),
        }
    }

    fn write_snapshot(&self) -> Result<bool, ServeError> {
        let front = self.front();
        let Some(path) = &front.config.snapshot_path else {
            return Ok(false);
        };
        self.snapshot_value()
            .save_with(path, &*front.config.snapshot_io)?;
        front.status.mark_snapshot();
        front.registry.set_gauge(front.ids.snapshot_age, 0.0);
        Ok(true)
    }

    // Adopts a snapshot (resume, or catch-up from the primary): lane 0's
    // scheduler, id rule and ring, the counters and the slot clock.
    fn adopt(&mut self, snap: &Snapshot) -> Result<(), ServeError> {
        let front = self.front();
        let mut core = self.p.lanes[0].lock().unwrap();
        snap.validate(core.sched.sched().name(), &front.config.fingerprint)?;
        let recent = snap
            .recent
            .iter()
            .map(|line| match parse_server(line)? {
                ServerMsg::Decision(event) => Ok(Recent {
                    id: event.request,
                    admitted: event.outcome.is_admit(),
                    line: Some(line.clone()),
                }),
                other => Err(ServeError::Snapshot(format!(
                    "snapshot 'recent' entry is not a decision line: {other:?}"
                ))),
            })
            .collect::<Result<_, ServeError>>()?;
        core.adopt(&snap.state, snap.next_id)?;
        core.recent = recent;
        core.stats = ServeStats {
            overloaded: 0,
            ..snap.stats
        };
        let shed = snap.stats.overloaded;
        front.overloaded.store(shed, Ordering::Release);
        self.slot = snap.slot;
        front.registry.set_gauge(front.ids.slot, self.slot as f64);
        Ok(())
    }

    // ---- Standby / replication receive path -------------------------

    fn handle_repl(&mut self, msg: &ReplMsg, conn: &Conn) -> Result<(), ServeError> {
        let front = self.front();
        let (registry, ids) = (front.registry, front.ids);
        let epoch = msg.epoch();
        if self.epoch.check(Epoch(epoch)) == FenceCheck::Stale {
            // A deposed primary still streaming: tell it, so it exits.
            registry.inc(ids.fenced_peers);
            self.note(TraceEvent::Fenced {
                epoch: self.epoch.0,
                stale_epoch: epoch,
            });
            let fenced = ReplMsg::Fenced {
                epoch: self.epoch.0,
                stale_epoch: epoch,
            };
            let _ = write_line(conn, encode_repl(&fenced));
            return Ok(());
        }
        if self.role == Role::Primary {
            // An equal-or-newer-epoch peer streaming at a primary (two
            // primaries configured at each other): never apply.
            let text = "not a standby: replication frames refused";
            self.refuse(Some(conn), text.to_string());
            return Ok(());
        }
        self.set_epoch(self.epoch.merge(Epoch(epoch)));
        self.last_heard = Some(Instant::now());
        let reply = |msg: ReplMsg| {
            let _ = write_line(conn, encode_repl(&msg));
        };
        let expected = self.seq + 1;
        let ack = match msg {
            ReplMsg::Hello { .. } => {
                self.repl_conn = Some(Arc::clone(conn));
                self.seen_hello = true;
                reply(ReplMsg::State {
                    epoch: self.epoch.0,
                    seq: self.seq,
                });
                false
            }
            ReplMsg::Snapshot { epoch, seq, data } => {
                self.adopt(&Snapshot::decode(data)?)?;
                self.seq = *seq;
                registry.inc(ids.repl_snapshots);
                self.note(TraceEvent::ReplCatchup {
                    epoch: *epoch,
                    seq: *seq,
                });
                true
            }
            // A duplicate (e.g. covered by the snapshot that just caught
            // us up) is acknowledged, not re-applied; a gap is refused
            // back into the snapshot path.
            ReplMsg::Frame { seq, .. } | ReplMsg::Advance { seq, .. } if *seq != expected => {
                if *seq > expected {
                    registry.inc(ids.repl_refusals);
                    reply(ReplMsg::Refused {
                        epoch: self.epoch.0,
                        expected,
                        got: *seq,
                    });
                }
                *seq < expected
            }
            ReplMsg::Frame {
                submit, decision, ..
            } => {
                self.apply_frame(submit, decision)?;
                true
            }
            ReplMsg::Advance { slot, .. } => {
                self.slot = *slot;
                registry.set_gauge(ids.slot, self.slot as f64);
                true
            }
            ReplMsg::Heartbeat { .. } => true,
            // Standby→primary messages have no business arriving on the
            // daemon's ingress; count and ignore.
            ReplMsg::State { .. }
            | ReplMsg::Ack { .. }
            | ReplMsg::Refused { .. }
            | ReplMsg::Fenced { .. } => {
                registry.inc(ids.protocol_errors);
                false
            }
        };
        if let ReplMsg::Frame { seq, .. } | ReplMsg::Advance { seq, .. } = msg {
            if *seq == expected {
                self.seq = expected;
                registry.inc(ids.repl_applied);
            }
        }
        if ack {
            reply(ReplMsg::Ack {
                epoch: self.epoch.0,
                seq: self.seq,
            });
        }
        Ok(())
    }

    // Re-decides a replicated submit through the same `decide_one` and
    // insists the line is byte-identical to the primary's. Divergence is
    // fatal: a follower with different state must not be promoted.
    fn apply_frame(&mut self, submit: &str, decision: &str) -> Result<(), ServeError> {
        let ClientMsg::Submit(msg) = parse_client(submit)? else {
            return Err(ServeError::Protocol(
                "replication frame payload is not a submit line".to_string(),
            ));
        };
        let diverged = |what: String| {
            let id = msg.id;
            ServeError::Protocol(format!("replication divergence on request {id}: {what}"))
        };
        let mut tally = Tally::default();
        let (local, event) = match decide_one(0, &msg, self.p, &mut tally, Keep::Line)? {
            Decided::Fresh {
                line: Some(line),
                event: Some(event),
                ..
            } => (line, event),
            Decided::Refused(text) => {
                return Err(diverged(format!("this follower refuses it: {text}")))
            }
            _ => return Err(diverged("this follower already decided it".to_string())),
        };
        if local != decision {
            return Err(diverged(format!(
                "the follower's decision differs from the primary's\n  \
                 primary:  {decision}\n  follower: {local}"
            )));
        }
        tally.publish(&self.p.front);
        self.note(TraceEvent::Decision(event));
        Ok(())
    }

    // The epoch, its gauge and its mirror for other threads.
    fn set_epoch(&mut self, epoch: Epoch) {
        let front = self.front();
        self.epoch = epoch;
        front.registry.set_gauge(front.ids.epoch, epoch.0 as f64);
        front.status.set_epoch(epoch.0);
    }

    // Starts a promotion: the role flips only after the replication
    // connection drained (ReplEof), so no received decision is lost.
    fn begin_promotion(&mut self, conn: Option<Conn>) {
        self.promoting = Some(conn);
        if self.repl_conn.is_some() {
            self.promote_deadline = Some(Instant::now() + PROMOTE_DRAIN_GRACE);
        } else {
            self.complete_promotion();
        }
    }

    fn complete_promotion(&mut self) {
        let front = self.front();
        let conn = self.promoting.take().flatten();
        self.promote_deadline = None;
        self.set_epoch(self.epoch.next());
        self.role = Role::Primary;
        front.registry.set_gauge(front.ids.is_primary, 1.0);
        front.status.set_role(Role::Primary);
        self.note(TraceEvent::Promotion {
            epoch: self.epoch.0,
            seq: self.seq,
        });
        self.ack(conn.as_ref(), ControlAction::Promote);
    }

    /// After every lane drained: final snapshot, utilization gauges,
    /// trace flush and (if a client asked for the shutdown) its ack.
    pub fn finish(&mut self) -> Result<bool, ServeError> {
        let written = self.write_snapshot()?;
        let lanes = self.p.lanes.len();
        for (s, lane) in self.p.lanes.iter().enumerate() {
            let mut core = lane.lock().unwrap_or_else(|e| e.into_inner());
            let ledger = core.sched.sched().ledger();
            let slots = ledger.horizon().len();
            for (l, row) in ledger.used_grid().chunks_exact(slots).enumerate() {
                let capacity = ledger.capacity(CloudletId(l));
                let mean = if capacity > 0.0 {
                    row.iter().sum::<f64>() / (capacity * slots as f64)
                } else {
                    0.0
                };
                self.p.front.engine.set_utilization(l * lanes + s, mean);
            }
        }
        if let Some(trace) = self.trace.take() {
            trace.finish()?;
        }
        let asked = self.pending_shutdown.take();
        self.ack(asked.as_ref(), ControlAction::Shutdown);
        Ok(written)
    }
}
