//! Active-standby replication: frame codec and the primary-side sender.
//!
//! The primary streams its decision log to one standby over a second
//! TCP connection (it *dials* the standby's normal listen address and
//! announces itself with a `repl-hello` line). Frames reuse the
//! line-delimited JSON layer of [`crate::protocol`]:
//!
//! ```text
//! primary → standby
//!   {"type":"repl-hello","v":2,"epoch":1,"seq":42}
//!   {"type":"repl-snapshot","v":2,"epoch":1,"seq":42,"data":"{\"type\":\"snapshot\",…}"}
//!   {"type":"repl-frame","v":2,"epoch":1,"seq":43,"submit":"{…}","decision":"{…}"}
//!   {"type":"repl-advance","v":2,"epoch":1,"seq":44,"slot":3}
//!   {"type":"repl-heartbeat","v":2,"epoch":1,"seq":44}
//!
//! standby → primary
//!   {"type":"repl-state","v":2,"epoch":1,"seq":40}
//!   {"type":"repl-ack","v":2,"epoch":1,"seq":43}
//!   {"type":"repl-refused","v":2,"epoch":1,"expected":44,"got":46}
//!   {"type":"repl-fenced","v":2,"epoch":2,"stale_epoch":1}
//! ```
//!
//! A `repl-frame` embeds the canonical submit line and the decision
//! line the primary produced, both as JSON string payloads: the standby
//! re-runs `decide()` on the submit against its own dual prices and
//! ledger and asserts its encoded decision is byte-identical — state
//! machine replication with a built-in divergence check.
//!
//! **Catch-up is always snapshot-first.** On every (re)connect the
//! sender raises [`ReplHandle::need_snapshot`]; the decide thread
//! answers with a full-state `repl-snapshot` at its current log
//! position, and already-queued frames at or below that position are
//! skipped by the standby's sequence check. This makes a freshly
//! started follower, a lagging follower and a follower that refused a
//! gap all the same code path.
//!
//! **Ack ordering is the safety invariant.** For a replicated submit
//! the client's decision reply is *withheld* by the sender and released
//! only once the standby's `repl-ack` covers the frame's sequence number
//! — a write alone is not enough, because a freshly promoted standby
//! force-closes the replication connection and the kernel happily
//! accepts writes into a dead socket until the RST arrives. An ack
//! therefore means the decision is *applied* on the standby, and a
//! deposed primary can never ack a decision the survivor does not
//! carry. While no standby is reachable the replies wait: reconnect is
//! snapshot-first, and that snapshot's ack releases them. On shutdown
//! or fencing, replies still held are dropped, never released.

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{TcpStream, ToSocketAddrs as _};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use mec_obs::{parse_value, JsonWriter};

use crate::daemon::{is_timeout, write_line, ClientConn};
use crate::error::ServeError;
use crate::protocol::MAX_LINE_BYTES;

/// One typed frame on the replication channel.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplMsg {
    /// Primary announces itself: its epoch and next sequence number.
    Hello {
        /// Sender's fencing epoch.
        epoch: u64,
        /// Sender's replication log position (last assigned seq).
        seq: u64,
    },
    /// Standby's handshake reply: its epoch and applied position.
    State {
        /// Receiver's highest-seen epoch.
        epoch: u64,
        /// Receiver's applied replication log position.
        seq: u64,
    },
    /// Full state transfer: an encoded [`crate::snapshot::Snapshot`]
    /// line as a string payload, stamped with the log position it
    /// covers.
    Snapshot {
        /// Sender's fencing epoch.
        epoch: u64,
        /// Log position the snapshot covers (frames ≤ `seq` are in it).
        seq: u64,
        /// The snapshot line, JSON-escaped.
        data: String,
    },
    /// One replicated decision: the submit line and the decision line.
    Frame {
        /// Sender's fencing epoch.
        epoch: u64,
        /// This frame's log position.
        seq: u64,
        /// Canonical client submit line, JSON-escaped.
        submit: String,
        /// The primary's decision line, JSON-escaped (the standby must
        /// reproduce it byte-for-byte).
        decision: String,
    },
    /// A replicated slot-clock advance.
    Advance {
        /// Sender's fencing epoch.
        epoch: u64,
        /// This frame's log position.
        seq: u64,
        /// The slot value after the advance.
        slot: usize,
    },
    /// Idle keepalive; also drives primary-loss detection on the
    /// standby.
    Heartbeat {
        /// Sender's fencing epoch.
        epoch: u64,
        /// Sender's last assigned log position.
        seq: u64,
    },
    /// Cumulative acknowledgement of the standby's applied position.
    Ack {
        /// Receiver's epoch.
        epoch: u64,
        /// Highest contiguously applied log position.
        seq: u64,
    },
    /// The standby saw a sequence gap and wants a fresh snapshot.
    Refused {
        /// Receiver's epoch.
        epoch: u64,
        /// The position the receiver expected next.
        expected: u64,
        /// The position that actually arrived.
        got: u64,
    },
    /// Fencing refusal: the sender's epoch is stale and it must stop
    /// acking decisions (exit code 7 at the CLI).
    Fenced {
        /// The refusing node's (newer) epoch.
        epoch: u64,
        /// The stale epoch that was refused.
        stale_epoch: u64,
    },
}

impl ReplMsg {
    /// The sender's epoch (every variant carries one).
    pub fn epoch(&self) -> u64 {
        match self {
            ReplMsg::Hello { epoch, .. }
            | ReplMsg::State { epoch, .. }
            | ReplMsg::Snapshot { epoch, .. }
            | ReplMsg::Frame { epoch, .. }
            | ReplMsg::Advance { epoch, .. }
            | ReplMsg::Heartbeat { epoch, .. }
            | ReplMsg::Ack { epoch, .. }
            | ReplMsg::Refused { epoch, .. }
            | ReplMsg::Fenced { epoch, .. } => *epoch,
        }
    }
}

/// Encodes one replication frame as a line (no trailing newline).
pub fn encode_repl(msg: &ReplMsg) -> String {
    let mut out = String::with_capacity(96);
    let mut w = JsonWriter::new(&mut out);
    let kind = match msg {
        ReplMsg::Hello { .. } => "repl-hello",
        ReplMsg::State { .. } => "repl-state",
        ReplMsg::Snapshot { .. } => "repl-snapshot",
        ReplMsg::Frame { .. } => "repl-frame",
        ReplMsg::Advance { .. } => "repl-advance",
        ReplMsg::Heartbeat { .. } => "repl-heartbeat",
        ReplMsg::Ack { .. } => "repl-ack",
        ReplMsg::Refused { .. } => "repl-refused",
        ReplMsg::Fenced { .. } => "repl-fenced",
    };
    w.begin_obj().key("type").str(kind).key("v").uint(2);
    w.key("epoch").uint(msg.epoch());
    match msg {
        ReplMsg::Hello { seq, .. }
        | ReplMsg::State { seq, .. }
        | ReplMsg::Heartbeat { seq, .. }
        | ReplMsg::Ack { seq, .. } => {
            w.key("seq").uint(*seq);
        }
        ReplMsg::Snapshot { seq, data, .. } => {
            w.key("seq").uint(*seq).key("data").str(data);
        }
        ReplMsg::Frame {
            seq,
            submit,
            decision,
            ..
        } => {
            w.key("seq").uint(*seq);
            w.key("submit").str(submit).key("decision").str(decision);
        }
        ReplMsg::Advance { seq, slot, .. } => {
            w.key("seq").uint(*seq).key("slot").usize(*slot);
        }
        ReplMsg::Refused { expected, got, .. } => {
            w.key("expected").uint(*expected).key("got").uint(*got);
        }
        ReplMsg::Fenced { stale_epoch, .. } => {
            w.key("stale_epoch").uint(*stale_epoch);
        }
    }
    w.end_obj();
    out
}

fn perr(msg: impl Into<String>) -> ServeError {
    ServeError::Protocol(msg.into())
}

/// True when a line looks like a replication frame (used by the daemon
/// to route connections into replication mode).
pub fn is_repl_line(line: &str) -> bool {
    line.starts_with("{\"type\":\"repl-")
}

/// Parses one replication frame line.
///
/// # Errors
///
/// [`ServeError::Protocol`] on malformed JSON, unknown type, version
/// mismatch, or missing/mistyped fields.
pub fn parse_repl(line: &str) -> Result<ReplMsg, ServeError> {
    let v = parse_value(line)?;
    let kind = v.field("type")?.str()?;
    let version = v.field("v")?.u64()?;
    if version != 2 {
        return Err(perr(format!(
            "unsupported replication protocol version {version} (expected 2)"
        )));
    }
    let epoch = v.field("epoch")?.u64()?;
    let seq = || v.field("seq")?.u64();
    Ok(match kind {
        "repl-hello" => ReplMsg::Hello { epoch, seq: seq()? },
        "repl-state" => ReplMsg::State { epoch, seq: seq()? },
        "repl-snapshot" => ReplMsg::Snapshot {
            epoch,
            seq: seq()?,
            data: v.field("data")?.str()?.to_string(),
        },
        "repl-frame" => ReplMsg::Frame {
            epoch,
            seq: seq()?,
            submit: v.field("submit")?.str()?.to_string(),
            decision: v.field("decision")?.str()?.to_string(),
        },
        "repl-advance" => ReplMsg::Advance {
            epoch,
            seq: seq()?,
            slot: v.field("slot")?.usize()?,
        },
        "repl-heartbeat" => ReplMsg::Heartbeat { epoch, seq: seq()? },
        "repl-ack" => ReplMsg::Ack { epoch, seq: seq()? },
        "repl-refused" => ReplMsg::Refused {
            epoch,
            expected: v.field("expected")?.u64()?,
            got: v.field("got")?.u64()?,
        },
        "repl-fenced" => ReplMsg::Fenced {
            epoch,
            stale_epoch: v.field("stale_epoch")?.u64()?,
        },
        other => return Err(perr(format!("unknown replication frame type '{other}'"))),
    })
}

/// A client reply withheld until the standby acknowledges its frame.
#[derive(Debug)]
pub struct PendingReply {
    /// The client connection the reply belongs to.
    pub conn: Arc<ClientConn>,
    /// The encoded reply line (no trailing newline).
    pub line: String,
}

impl PendingReply {
    /// Writes the reply to the client through the daemon's one writer
    /// (best effort — a vanished client is its own problem, and a
    /// non-draining one is condemned as anywhere else).
    pub fn flush(self) {
        let _ = write_line(&self.conn, self.line);
    }
}

/// One unit of work the decide thread hands to the replication sender.
#[derive(Debug)]
pub struct ReplItem {
    /// Fully encoded replication frame line (no trailing newline).
    pub line: String,
    /// The frame's log position (matched against the standby's acks).
    pub seq: u64,
    /// True for `repl-snapshot` frames — they end catch-up mode.
    pub is_snapshot: bool,
    /// Client reply to release once the standby's ack covers `seq`.
    pub reply: Option<PendingReply>,
}

/// Shared state between the decide thread and the replication sender.
#[derive(Debug)]
pub struct ReplHandle {
    /// Sender's current epoch (the decide thread keeps it updated; read
    /// for hellos and heartbeats).
    pub epoch: AtomicU64,
    /// Raised by the sender on every (re)connect or `repl-refused`; the
    /// decide thread answers with a `ReplItem` snapshot and clears it.
    pub need_snapshot: AtomicBool,
    /// Set when a peer at a newer epoch refused us: the daemon must
    /// stop acking and exit.
    pub fenced: AtomicBool,
    /// The epoch that fenced us (valid once `fenced` is set).
    pub fenced_by: AtomicU64,
    /// Whether a replication connection is currently established.
    pub connected: AtomicBool,
    /// Highest log position written to the peer socket.
    pub sent_seq: AtomicU64,
    /// Highest log position the standby has acknowledged.
    pub acked_seq: AtomicU64,
    /// Successful re-handshakes after the first connect.
    pub reconnects: AtomicU64,
    /// Total failed connect/handshake attempts since start (the link's
    /// retry count; never reset).
    pub connect_failures: AtomicU64,
    /// Failed attempts since the last successful handshake; 0 while
    /// connected. Drives the full-jitter backoff and the
    /// `partitioned` link state.
    pub consecutive_failures: AtomicU64,
    /// Kind of the most recent link error (see
    /// [`ReplHandle::last_error_str`]); retained across reconnects so
    /// `/status` can show what last went wrong.
    pub last_error_kind: AtomicU8,
}

/// Consecutive failures after which the link is reported as
/// `partitioned` rather than merely `backoff` in `/status`.
pub const LINK_PARTITIONED_AFTER: u64 = 4;

/// `last_error_kind` codes.
const LINK_ERR_NONE: u8 = 0;
const LINK_ERR_RESOLVE: u8 = 1;
const LINK_ERR_CONNECT: u8 = 2;
const LINK_ERR_HANDSHAKE: u8 = 3;
const LINK_ERR_IO: u8 = 4;

impl ReplHandle {
    /// Stable name of the most recent link error (`"none"` before any).
    pub fn last_error_str(&self) -> &'static str {
        match self.last_error_kind.load(Ordering::Acquire) {
            LINK_ERR_RESOLVE => "resolve",
            LINK_ERR_CONNECT => "connect",
            LINK_ERR_HANDSHAKE => "handshake",
            LINK_ERR_IO => "io",
            _ => "none",
        }
    }

    /// The link state rendered in `/status`: `"connected"` while a
    /// replication connection is up, `"backoff"` between retries, and
    /// `"partitioned"` once [`LINK_PARTITIONED_AFTER`] consecutive
    /// attempts have failed.
    pub fn link_state(&self) -> &'static str {
        if self.connected.load(Ordering::Acquire) {
            "connected"
        } else if self.consecutive_failures.load(Ordering::Acquire) >= LINK_PARTITIONED_AFTER {
            "partitioned"
        } else {
            "backoff"
        }
    }
}

fn classify_link_error(e: &ServeError) -> u8 {
    match e {
        ServeError::Net {
            action: "resolve", ..
        } => LINK_ERR_RESOLVE,
        ServeError::Net {
            action: "connect", ..
        } => LINK_ERR_CONNECT,
        _ => LINK_ERR_HANDSHAKE,
    }
}

impl Default for ReplHandle {
    fn default() -> Self {
        ReplHandle {
            epoch: AtomicU64::new(1),
            need_snapshot: AtomicBool::new(false),
            fenced: AtomicBool::new(false),
            fenced_by: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            sent_seq: AtomicU64::new(0),
            acked_seq: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            connect_failures: AtomicU64::new(0),
            consecutive_failures: AtomicU64::new(0),
            last_error_kind: AtomicU8::new(LINK_ERR_NONE),
        }
    }
}

fn store_max(cell: &AtomicU64, v: u64) {
    cell.fetch_max(v, Ordering::AcqRel);
}

const BACKOFF_MIN: Duration = Duration::from_millis(50);
const BACKOFF_MAX: Duration = Duration::from_secs(2);
const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);
const CLOSE_GRACE: Duration = Duration::from_secs(2);

struct Peer {
    stream: TcpStream,
    inbox: Vec<u8>,
}

enum Shake {
    Connected(Peer),
    Fenced { by: u64 },
}

fn handshake(peer: &str, handle: &ReplHandle) -> Result<Shake, ServeError> {
    let addr = peer
        .to_socket_addrs()
        .map_err(|source| ServeError::Net {
            action: "resolve",
            addr: peer.to_string(),
            source,
        })?
        .next()
        .ok_or_else(|| ServeError::Config(format!("peer '{peer}' resolves to nothing")))?;
    let mut stream =
        TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).map_err(|source| ServeError::Net {
            action: "connect",
            addr: peer.to_string(),
            source,
        })?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    stream.set_write_timeout(Some(Duration::from_secs(1)))?;
    let hello = ReplMsg::Hello {
        epoch: handle.epoch.load(Ordering::Acquire),
        seq: handle.sent_seq.load(Ordering::Acquire),
    };
    let mut line = encode_repl(&hello);
    line.push('\n');
    stream.write_all(line.as_bytes())?;

    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let mut inbox: Vec<u8> = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        if let Some(pos) = inbox.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = inbox.drain(..=pos).collect();
            let text = std::str::from_utf8(&line)
                .map_err(|_| perr("replication handshake reply is not UTF-8"))?;
            return match parse_repl(text.trim())? {
                ReplMsg::State { .. } => Ok(Shake::Connected(Peer { stream, inbox })),
                ReplMsg::Fenced { epoch, .. } => Ok(Shake::Fenced { by: epoch }),
                other => Err(perr(format!(
                    "unexpected replication handshake reply {other:?}"
                ))),
            };
        }
        if Instant::now() > deadline {
            return Err(perr("replication handshake timed out"));
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err(perr("peer closed during replication handshake")),
            Ok(n) => inbox.extend_from_slice(&buf[..n]),
            Err(e) if is_timeout(&e) => {}
            Err(e) => return Err(ServeError::Io(e)),
        }
        if inbox.len() > MAX_LINE_BYTES {
            return Err(perr("oversized replication handshake reply"));
        }
    }
}

/// Drains whatever the standby has sent; returns true on a connection
/// error (EOF, I/O failure, garbage).
fn pump_incoming(peer: &mut Peer, handle: &ReplHandle, awaiting_snapshot: &mut bool) -> bool {
    let _ = peer.stream.set_read_timeout(Some(Duration::from_millis(1)));
    let mut buf = [0u8; 4096];
    loop {
        match peer.stream.read(&mut buf) {
            Ok(0) => return true,
            Ok(n) => {
                peer.inbox.extend_from_slice(&buf[..n]);
                if n < buf.len() {
                    break;
                }
            }
            Err(e) if is_timeout(&e) => break,
            Err(_) => return true,
        }
        if peer.inbox.len() > MAX_LINE_BYTES {
            return true;
        }
    }
    while let Some(pos) = peer.inbox.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = peer.inbox.drain(..=pos).collect();
        let Ok(text) = std::str::from_utf8(&line) else {
            return true;
        };
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        match parse_repl(text) {
            Ok(ReplMsg::Ack { seq, .. }) => store_max(&handle.acked_seq, seq),
            Ok(ReplMsg::Refused { .. }) => {
                // The standby saw a gap: start over from a snapshot.
                handle.need_snapshot.store(true, Ordering::Release);
                *awaiting_snapshot = true;
            }
            Ok(ReplMsg::Fenced { epoch, .. }) => {
                handle.fenced_by.store(epoch, Ordering::Release);
                handle.fenced.store(true, Ordering::Release);
            }
            Ok(_) => {}
            Err(_) => return true,
        }
    }
    false
}

/// Runs the primary-side replication sender until the decide thread
/// drops its `ReplItem` channel (normal shutdown) or the node is
/// fenced.
///
/// Owns the connection to `peer` (the standby's listen address): dial +
/// handshake with exponential backoff, snapshot-first catch-up, frame
/// streaming with withheld client replies (released on the standby's
/// covering ack), heartbeats when idle, and ack/refusal/fence
/// processing. On channel close it makes a bounded best effort to
/// finish replicating, then drops any still-held replies.
pub fn run_repl_sender(
    peer: &str,
    handle: &ReplHandle,
    rx: &mpsc::Receiver<ReplItem>,
    stop: &AtomicBool,
) {
    let mut outbox: VecDeque<ReplItem> = VecDeque::new();
    // Replies for frames already written, waiting for the standby's ack
    // to cover their sequence number. Kept in write order, so sequence
    // numbers are non-decreasing front to back.
    let mut held: VecDeque<(u64, PendingReply)> = VecDeque::new();
    let mut link: Option<Peer> = None;
    let mut awaiting_snapshot = false;
    let mut next_attempt = Instant::now();
    // Capped full-jitter backoff between connect attempts: the delay
    // for the n-th consecutive failure is uniform in
    // [0, min(BACKOFF_MAX, BACKOFF_MIN·2^n)). Salted per process so two
    // senders recovering from the same partition don't thunder in
    // lockstep.
    let backoff_salt = u64::from(std::process::id()) ^ 0x7265_706c; // "repl"
    let fail = |handle: &ReplHandle, kind: u8| -> Duration {
        let attempt = handle.consecutive_failures.fetch_add(1, Ordering::AcqRel);
        handle.connect_failures.fetch_add(1, Ordering::Relaxed);
        handle.last_error_kind.store(kind, Ordering::Release);
        crate::chaos::full_jitter_backoff(
            BACKOFF_MIN,
            BACKOFF_MAX,
            attempt.min(u64::from(u32::MAX)) as u32,
            backoff_salt,
        )
    };
    let mut last_sent = Instant::now();
    let mut rx_open = true;
    let mut ever_connected = false;
    let mut close_deadline: Option<Instant> = None;

    loop {
        if handle.fenced.load(Ordering::Acquire) {
            // A newer epoch exists. Never ack again: held replies are
            // dropped, clients see the connection close and retry
            // against the promoted primary.
            return;
        }

        if rx_open {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(item) => {
                    outbox.push_back(item);
                    outbox.extend(rx.try_iter());
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    rx_open = false;
                    close_deadline = Some(Instant::now() + CLOSE_GRACE);
                }
            }
        }

        if link.is_none() && Instant::now() >= next_attempt {
            match handshake(peer, handle) {
                Ok(Shake::Connected(p)) => {
                    if ever_connected {
                        handle.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    ever_connected = true;
                    link = Some(p);
                    handle.connected.store(true, Ordering::Release);
                    // Catch-up is always snapshot-first: ask the decide
                    // thread for a fresh full-state frame.
                    handle.need_snapshot.store(true, Ordering::Release);
                    awaiting_snapshot = true;
                    handle.consecutive_failures.store(0, Ordering::Release);
                }
                Ok(Shake::Fenced { by }) => {
                    handle.fenced_by.store(by, Ordering::Release);
                    handle.fenced.store(true, Ordering::Release);
                    continue;
                }
                Err(e) => {
                    next_attempt = Instant::now() + fail(handle, classify_link_error(&e));
                }
            }
        }

        let mut io_err = false;
        if let Some(p) = link.as_mut() {
            while let Some(front) = outbox.front() {
                if awaiting_snapshot && !front.is_snapshot {
                    // The snapshot answering this catch-up may have been
                    // queued *behind* frames decided while the handshake
                    // raced — pull it forward or the queue deadlocks.
                    // The frames it covers still go out afterwards (the
                    // standby dup-skips them by seq) so their withheld
                    // replies are released as usual.
                    if let Some(pos) = outbox.iter().position(|item| item.is_snapshot) {
                        let snap = outbox.remove(pos).expect("position just found");
                        outbox.push_front(snap);
                        continue;
                    }
                    // No snapshot queued yet: hold until the decide
                    // thread produces one.
                    break;
                }
                let mut line = front.line.clone();
                line.push('\n');
                if p.stream.write_all(line.as_bytes()).is_err() {
                    io_err = true;
                    break;
                }
                let item = outbox.pop_front().expect("front() just succeeded");
                if item.is_snapshot {
                    awaiting_snapshot = false;
                }
                store_max(&handle.sent_seq, item.seq);
                if let Some(reply) = item.reply {
                    // The write is necessary but not sufficient: the
                    // reply waits for the standby's ack to cover this
                    // sequence.
                    held.push_back((item.seq, reply));
                }
                last_sent = Instant::now();
            }
            if !io_err && !awaiting_snapshot && last_sent.elapsed() >= HEARTBEAT_EVERY {
                let hb = ReplMsg::Heartbeat {
                    epoch: handle.epoch.load(Ordering::Acquire),
                    seq: handle.sent_seq.load(Ordering::Acquire),
                };
                let mut line = encode_repl(&hb);
                line.push('\n');
                if p.stream.write_all(line.as_bytes()).is_err() {
                    io_err = true;
                } else {
                    last_sent = Instant::now();
                }
            }
            if !io_err {
                io_err = pump_incoming(p, handle, &mut awaiting_snapshot);
            }
        }
        if !held.is_empty() && !handle.fenced.load(Ordering::Acquire) {
            // Release every reply the standby has acknowledged (a
            // snapshot ack covers all frames it subsumes). After a
            // disconnect the held replies simply wait: reconnect is
            // snapshot-first, and that snapshot's ack covers them.
            let acked = handle.acked_seq.load(Ordering::Acquire);
            while held.front().is_some_and(|(seq, _)| *seq <= acked) {
                let (_, reply) = held.pop_front().expect("front() just matched");
                reply.flush();
            }
        }
        if io_err {
            link = None;
            handle.connected.store(false, Ordering::Release);
            next_attempt = Instant::now() + fail(handle, LINK_ERR_IO);
        }

        // `stop` is only raised after the decide thread has exited, so
        // either way no more items are coming: finish up within grace.
        if stop.load(Ordering::Acquire) && close_deadline.is_none() {
            close_deadline = Some(Instant::now() + CLOSE_GRACE);
        }
        if !rx_open || stop.load(Ordering::Acquire) {
            let grace_over = close_deadline.is_some_and(|d| Instant::now() >= d);
            if (outbox.is_empty() && held.is_empty()) || grace_over {
                // Whatever is still queued or held is dropped: the client
                // sees the connection close and retries (idempotent
                // resubmit) against whoever is primary.
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repl_frames_round_trip() {
        let frames = [
            ReplMsg::Hello { epoch: 1, seq: 42 },
            ReplMsg::State { epoch: 2, seq: 40 },
            ReplMsg::Snapshot {
                epoch: 1,
                seq: 42,
                data: "{\"type\":\"snapshot\",\"v\":2}".to_string(),
            },
            ReplMsg::Frame {
                epoch: 1,
                seq: 43,
                submit: "{\"type\":\"submit\",\"v\":2,\"id\":7}".to_string(),
                decision: "{\"type\":\"decision\",\"request\":7}".to_string(),
            },
            ReplMsg::Advance {
                epoch: 1,
                seq: 44,
                slot: 3,
            },
            ReplMsg::Heartbeat { epoch: 1, seq: 44 },
            ReplMsg::Ack { epoch: 1, seq: 43 },
            ReplMsg::Refused {
                epoch: 1,
                expected: 44,
                got: 46,
            },
            ReplMsg::Fenced {
                epoch: 2,
                stale_epoch: 1,
            },
        ];
        for frame in frames {
            let line = encode_repl(&frame);
            assert!(is_repl_line(&line), "{line}");
            assert_eq!(parse_repl(&line).unwrap(), frame, "{line}");
        }
    }

    #[test]
    fn embedded_payloads_survive_escaping() {
        let frame = ReplMsg::Frame {
            epoch: 1,
            seq: 9,
            submit: "{\"quotes\":\"\\\"nested\\\"\",\"newline\":\"a\\nb\"}".to_string(),
            decision: "{\"backslash\":\"c:\\\\path\"}".to_string(),
        };
        let line = encode_repl(&frame);
        assert!(!line.contains('\n'), "escaped payloads must stay one line");
        assert_eq!(parse_repl(&line).unwrap(), frame);
    }

    #[test]
    fn parse_rejects_bad_frames() {
        assert!(parse_repl("{\"type\":\"repl-nope\",\"v\":2,\"epoch\":1}").is_err());
        assert!(parse_repl("{\"type\":\"repl-hello\",\"v\":1,\"epoch\":1,\"seq\":0}").is_err());
        assert!(parse_repl("{\"type\":\"repl-hello\",\"v\":2,\"seq\":0}").is_err());
        assert!(parse_repl("{\"type\":\"repl-frame\",\"v\":2,\"epoch\":1,\"seq\":1}").is_err());
        assert!(parse_repl("not json").is_err());
        assert!(!is_repl_line("{\"type\":\"submit\",\"v\":2}"));
    }
}
