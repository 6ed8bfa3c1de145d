//! Line-delimited JSON wire protocol of the admission daemon.
//!
//! Every message is one compact JSON object per line with a `"type"`
//! discriminator. Serve-specific messages carry a `"v"` schema version
//! (currently [`PROTOCOL_VERSION`]); decision lines reuse the
//! `mec-obs` trace schema (`"type":"decision"`, see
//! [`mec_obs::to_json`]) unchanged, so a daemon response stream is also
//! a valid trace file.
//!
//! Client → server:
//!
//! ```text
//! {"type":"submit","v":2,"id":0,"vnf":2,"reliability":0.95,"arrival":3,"duration":4,"payment":6.5}
//! {"type":"control","v":2,"action":"advance-slot"}   // also: snapshot | stats | shutdown | promote | dump-flight
//! ```
//!
//! Server → client (one line per submit, in submission order):
//!
//! ```text
//! {"type":"decision", ...}                            // full DecisionEvent
//! {"type":"overload","v":2,"id":7,"queue_depth":128,"limit":128}
//! {"type":"ack","v":2,"action":"stats","slot":3,"epoch":1,"role":"primary","stats":{...}}
//! {"type":"not-primary","v":2,"epoch":1,"id":7}
//! {"type":"error","v":2,"message":"..."}
//! ```
//!
//! Version 2 adds the `promote` control verb, the `not-primary`
//! rejection a standby sends for submits, and the `epoch`/`role`
//! fields on acks (see [`crate::epoch`]). Parsers accept v1 lines and
//! fill the v2 fields with their pre-replication defaults
//! (`epoch = 1`, `role = "primary"`), so v1 clients and recorded
//! streams keep working.
//!
//! Version 3 adds *batched* submission: one frame carries up to
//! [`MAX_BATCH`] requests, one reply carries their decisions as a
//! compact code array, amortizing parse and syscall cost per batch
//! (single-request frames stay valid for compatibility):
//!
//! ```text
//! {"type":"batch","v":3,"b":9,"n":2,"reqs":[[0,2,0.95,3,4,6.5],[1,0,0.9,3,2,2.0]]}
//! {"type":"batch-reply","v":3,"b":9,"n":2,"codes":[1,0]}
//! ```
//!
//! `b` is an opaque client sequence number echoed verbatim (a sharded
//! daemon may reply to a connection's batches out of order); `n` is the
//! length prefix and must match the array lengths. Each code is
//! [`BATCH_REJECT`], [`BATCH_ADMIT`], [`BATCH_OVERLOAD`] or
//! [`BATCH_ERROR`]. Batch frames are parsed by a hand-rolled scanner
//! into caller-owned buffers — zero heap allocations per frame on the
//! steady-state path — and in exchange are *order-strict*: fields must
//! appear exactly as produced by [`encode_batch_into`] /
//! [`encode_batch_reply_into`].

use mec_obs::{
    event_from_value, parse_value, read_digits, visit_fields, write_decision, DecisionEvent, Field,
    JsonValue, JsonWriter, ParseError, Scalar, TraceEvent,
};

use crate::error::ServeError;

/// Wire schema version of the serve-specific message types.
pub const PROTOCOL_VERSION: usize = 3;

/// Oldest wire schema version parsers still accept.
pub const MIN_PROTOCOL_VERSION: usize = 1;

/// Hard cap on one protocol line, in bytes, including the newline.
///
/// Anything longer is a torn or hostile frame: the largest legitimate
/// line (a full-state replication snapshot for a big topology) stays
/// far below this, so readers can reject oversized input with a typed
/// error instead of buffering without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Most requests one batch frame may carry. Keeps the largest
/// legitimate batch line (~64 bytes/request) well under
/// [`MAX_LINE_BYTES`] and bounds the per-connection reply buffers.
pub const MAX_BATCH: usize = 1024;

/// Batch decision code: the scheduler rejected the request.
pub const BATCH_REJECT: u8 = 0;
/// Batch decision code: the request was admitted.
pub const BATCH_ADMIT: u8 = 1;
/// Batch decision code: backpressure dropped the request before the
/// scheduler saw it.
pub const BATCH_OVERLOAD: u8 = 2;
/// Batch decision code: the request was invalid (bad fields,
/// out-of-order id) and consumed no scheduler state.
pub const BATCH_ERROR: u8 = 3;

/// A request submission: the client-side view of one
/// [`mec_workload::Request`], before validation against the daemon's
/// horizon and catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubmitRequest {
    /// Dense request id; the daemon enforces arrival order (`id` must
    /// equal the number of requests decided so far).
    pub id: usize,
    /// VNF type index into the daemon's catalog.
    pub vnf: usize,
    /// Required reliability in `(0, 1)`.
    pub reliability: f64,
    /// Arrival slot.
    pub arrival: usize,
    /// Duration in slots (≥ 1).
    pub duration: usize,
    /// Offered payment.
    pub payment: f64,
}

impl From<&mec_workload::Request> for SubmitRequest {
    fn from(request: &mec_workload::Request) -> Self {
        SubmitRequest {
            id: request.id().index(),
            vnf: request.vnf().index(),
            reliability: request.reliability_requirement().value(),
            arrival: request.arrival(),
            duration: request.duration(),
            payment: request.payment(),
        }
    }
}

/// Daemon control verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlAction {
    /// Advance the virtual slot clock by one slot.
    AdvanceSlot,
    /// Write a snapshot now (no-op without a configured snapshot path).
    Snapshot,
    /// Report live counters without changing anything.
    Stats,
    /// Drain the ingress queue, snapshot, and exit.
    Shutdown,
    /// Promote a standby to primary: drain the replication channel,
    /// open a new fencing epoch, and start accepting submits. A no-op
    /// acknowledgement on a node that is already primary.
    Promote,
    /// Dump the in-memory flight recorder (the ring of recent trace
    /// events and stage timelines) to the configured flight directory.
    /// Acked even when no flight directory is configured (the dump is
    /// then skipped), so operators can probe safely.
    DumpFlight,
    /// Chaos injection: panic the decide thread of the given shard at
    /// its next message boundary; the lane's supervisor heals it from
    /// its recovery log (at any shard count, a caller-owned scheduler
    /// included). On the wire the shard rides in an extra `"shard"`
    /// field next to `"action":"chaos-panic"`.
    ChaosPanic(usize),
}

impl ControlAction {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ControlAction::AdvanceSlot => "advance-slot",
            ControlAction::Snapshot => "snapshot",
            ControlAction::Stats => "stats",
            ControlAction::Shutdown => "shutdown",
            ControlAction::Promote => "promote",
            ControlAction::DumpFlight => "dump-flight",
            ControlAction::ChaosPanic(_) => "chaos-panic",
        }
    }

    /// Parses a wire name back into an action. `"chaos-panic"` parses
    /// with shard 0; the frame parsers override it from the optional
    /// `"shard"` field.
    pub fn from_wire(s: &str) -> Option<Self> {
        match s {
            "advance-slot" => Some(ControlAction::AdvanceSlot),
            "snapshot" => Some(ControlAction::Snapshot),
            "stats" => Some(ControlAction::Stats),
            "shutdown" => Some(ControlAction::Shutdown),
            "promote" => Some(ControlAction::Promote),
            "dump-flight" => Some(ControlAction::DumpFlight),
            "chaos-panic" => Some(ControlAction::ChaosPanic(0)),
            _ => None,
        }
    }
}

/// Anything a client can send.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Submit one request for an admission decision.
    Submit(SubmitRequest),
    /// Control the daemon.
    Control(ControlAction),
}

/// Live daemon counters, embedded in every control acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServeStats {
    /// Requests decided (admitted + rejected).
    pub decided: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected by the scheduler.
    pub rejected: u64,
    /// Submissions dropped by backpressure (never reached the scheduler).
    pub overloaded: u64,
    /// Σ payment over admitted requests.
    pub revenue: f64,
}

/// Typed backpressure rejection: the ingress queue was full, the request
/// never reached the scheduler and consumed no state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadReject {
    /// Id of the dropped submission.
    pub id: usize,
    /// Queue depth observed when the push failed.
    pub queue_depth: usize,
    /// Configured queue capacity.
    pub limit: usize,
}

/// Acknowledgement of a control message.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlAck {
    /// The action being acknowledged.
    pub action: ControlAction,
    /// Current virtual slot.
    pub slot: usize,
    /// Current fencing epoch (1 on a never-failed-over primary; v1
    /// lines parse as 1).
    pub epoch: u64,
    /// `"primary"` or `"standby"` (v1 lines parse as `"primary"`).
    pub role: String,
    /// Wall-clock time of the last snapshot written, as milliseconds
    /// since the Unix epoch. `None` when no snapshot has been written
    /// (or the peer predates the field — it is optional on the wire, so
    /// older acks parse unchanged).
    pub last_snapshot_unix_ms: Option<u64>,
    /// Live counters at acknowledgement time.
    pub stats: ServeStats,
}

/// Anything the daemon can send back.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Full admission decision for one submitted request.
    Decision(DecisionEvent),
    /// Backpressure drop.
    Overload(OverloadReject),
    /// Control acknowledgement.
    Ack(ControlAck),
    /// The node is a standby (or a fenced ex-primary) and refuses the
    /// submit; the client should retry against the current primary.
    NotPrimary {
        /// The refusing node's fencing epoch.
        epoch: u64,
        /// Id of the refused submission.
        id: usize,
    },
    /// The line could not be honored (parse failure, invalid request
    /// fields, out-of-order id); the daemon keeps serving.
    Error(String),
}

/// Encodes a client message as one line (no trailing newline).
pub fn encode_client(msg: &ClientMsg) -> String {
    let mut out = String::with_capacity(128);
    let mut w = JsonWriter::new(&mut out);
    w.begin_obj();
    match msg {
        ClientMsg::Submit(s) => {
            w.key("type").str("submit").key("v").uint(2);
            w.key("id").usize(s.id).key("vnf").usize(s.vnf);
            w.key("reliability").num(s.reliability);
            w.key("arrival").usize(s.arrival);
            w.key("duration").usize(s.duration);
            w.key("payment").num(s.payment);
        }
        ClientMsg::Control(a) => {
            w.key("type").str("control").key("v").uint(2);
            w.key("action").str(a.as_str());
            if let ControlAction::ChaosPanic(shard) = a {
                w.key("shard").usize(*shard);
            }
        }
    }
    w.end_obj();
    out
}

/// Encodes a server message as one line (no trailing newline).
pub fn encode_server(msg: &ServerMsg) -> String {
    let mut out = String::with_capacity(128);
    encode_server_into(&mut out, msg);
    out
}

/// [`encode_server`] into a caller-owned buffer (cleared first), so a
/// connection can reuse one `String` across frames instead of
/// allocating per reply.
pub fn encode_server_into(out: &mut String, msg: &ServerMsg) {
    out.clear();
    let mut w = JsonWriter::new(out);
    let head = |w: &mut JsonWriter<'_>, kind: &str| {
        w.begin_obj().key("type").str(kind).key("v").uint(2);
    };
    match msg {
        ServerMsg::Decision(d) => {
            write_decision(&mut w, d);
            return;
        }
        ServerMsg::Overload(o) => {
            head(&mut w, "overload");
            w.key("id").usize(o.id);
            w.key("queue_depth").usize(o.queue_depth);
            w.key("limit").usize(o.limit);
        }
        ServerMsg::Ack(a) => {
            head(&mut w, "ack");
            w.key("action").str(a.action.as_str());
            w.key("slot").usize(a.slot);
            w.key("epoch").uint(a.epoch);
            w.key("role").str(&a.role);
            if let ControlAction::ChaosPanic(shard) = a.action {
                w.key("shard").usize(shard);
            }
            if let Some(ms) = a.last_snapshot_unix_ms {
                w.key("last_snapshot_unix_ms").uint(ms);
            }
            let s = &a.stats;
            w.key("stats").begin_obj();
            w.key("decided").num(s.decided as f64);
            w.key("admitted").num(s.admitted as f64);
            w.key("rejected").num(s.rejected as f64);
            w.key("overloaded").num(s.overloaded as f64);
            w.key("revenue").num(s.revenue);
            w.end_obj();
        }
        ServerMsg::NotPrimary { epoch, id } => {
            head(&mut w, "not-primary");
            w.key("epoch").uint(*epoch).key("id").usize(*id);
        }
        ServerMsg::Error(m) => {
            head(&mut w, "error");
            w.key("message").str(m);
        }
    }
    w.end_obj();
}

/// Encodes a batch submit frame into a caller-owned buffer (cleared
/// first, no trailing newline). `seq` is echoed back in the reply so
/// out-of-order replies can be matched.
///
/// # Panics
///
/// Panics if `reqs` is empty or longer than [`MAX_BATCH`] — producing
/// an invalid frame is a caller bug, not a wire condition.
pub fn encode_batch_into(out: &mut String, seq: u64, reqs: &[SubmitRequest]) {
    assert!(
        !reqs.is_empty() && reqs.len() <= MAX_BATCH,
        "batch size {} outside 1..={MAX_BATCH}",
        reqs.len()
    );
    out.clear();
    let mut w = JsonWriter::new(out);
    w.begin_obj().key("type").str("batch").key("v").uint(3);
    w.key("b").uint(seq).key("n").usize(reqs.len());
    w.key("reqs").begin_arr();
    for r in reqs {
        w.begin_arr().usize(r.id).usize(r.vnf).num(r.reliability);
        w.usize(r.arrival)
            .usize(r.duration)
            .num(r.payment)
            .end_arr();
    }
    w.end_arr().end_obj();
}

/// Encodes a batch reply into a caller-owned buffer (cleared first, no
/// trailing newline). One code per request, in batch order.
///
/// # Panics
///
/// Panics if `codes` is empty or longer than [`MAX_BATCH`].
pub fn encode_batch_reply_into(out: &mut String, seq: u64, codes: &[u8]) {
    assert!(
        !codes.is_empty() && codes.len() <= MAX_BATCH,
        "batch size {} outside 1..={MAX_BATCH}",
        codes.len()
    );
    out.clear();
    let mut w = JsonWriter::new(out);
    w.begin_obj()
        .key("type")
        .str("batch-reply")
        .key("v")
        .uint(3);
    w.key("b").uint(seq).key("n").usize(codes.len());
    w.key("codes").uints(codes.iter().map(|&c| u64::from(c)));
    w.end_obj();
}

fn perr(msg: impl Into<String>) -> ServeError {
    ServeError::Protocol(msg.into())
}

fn check_version(version: usize) -> Result<usize, ServeError> {
    if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
        return Err(perr(format!(
            "unsupported protocol version {version} \
             (expected {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})"
        )));
    }
    Ok(version)
}

/// Reads `action` and, for `chaos-panic`, its optional `shard` (0 when
/// absent).
fn parse_action(v: &JsonValue) -> Result<ControlAction, ServeError> {
    let name = v.field("action")?.str()?;
    let mut action = ControlAction::from_wire(name)
        .ok_or_else(|| perr(format!("unknown control action '{name}'")))?;
    if let ControlAction::ChaosPanic(ref mut shard) = action {
        *shard = v
            .opt_field("shard")
            .map(Field::usize)
            .transpose()?
            .unwrap_or(0);
    }
    Ok(action)
}

/// The first occurrence of each field a submit line is read for, as
/// [`visit_fields`] met them (the tree's `get` keeps the first match too).
#[derive(Default)]
struct SubmitFields<'a> {
    ty: Option<Scalar<'a>>,
    v: Option<Scalar<'a>>,
    id: Option<Scalar<'a>>,
    vnf: Option<Scalar<'a>>,
    reliability: Option<Scalar<'a>>,
    arrival: Option<Scalar<'a>>,
    duration: Option<Scalar<'a>>,
    payment: Option<Scalar<'a>>,
}

impl<'a> SubmitFields<'a> {
    fn keep(&mut self, key: &str, value: Scalar<'a>) {
        let slot = match key {
            "type" => &mut self.ty,
            "v" => &mut self.v,
            "id" => &mut self.id,
            "vnf" => &mut self.vnf,
            "reliability" => &mut self.reliability,
            "arrival" => &mut self.arrival,
            "duration" => &mut self.duration,
            "payment" => &mut self.payment,
            _ => return,
        };
        slot.get_or_insert(value);
    }
}

/// Parses one client line.
///
/// A submit is read in one pass that builds no tree: the whole line is
/// checked first, so a syntax error anywhere wins, and then the fields
/// are read in a fixed order. An integer field written with digits only
/// is read exactly, as the v3 batch scanner reads it; any other number
/// token is read as `f64` and must be integral. A control line is read
/// again into a tree.
///
/// # Errors
///
/// [`ServeError::Protocol`] on malformed JSON, unknown type/action,
/// version mismatch, or missing/mistyped fields.
pub fn parse_client(line: &str) -> Result<ClientMsg, ServeError> {
    let mut f = SubmitFields::default();
    visit_fields(line, |key, value| f.keep(key, value))?;
    const INTEGER: &str = "a non-negative integer";
    match submit_field("type", &f.ty, Scalar::as_str, "a string")? {
        "submit" => {
            check_version(submit_field("v", &f.v, Scalar::as_usize, INTEGER)?)?;
            Ok(ClientMsg::Submit(SubmitRequest {
                id: submit_field("id", &f.id, Scalar::as_usize, INTEGER)?,
                vnf: submit_field("vnf", &f.vnf, Scalar::as_usize, INTEGER)?,
                reliability: submit_field(
                    "reliability",
                    &f.reliability,
                    Scalar::as_f64,
                    "a number",
                )?,
                arrival: submit_field("arrival", &f.arrival, Scalar::as_usize, INTEGER)?,
                duration: submit_field("duration", &f.duration, Scalar::as_usize, INTEGER)?,
                payment: submit_field("payment", &f.payment, Scalar::as_f64, "a number")?,
            }))
        }
        "control" => {
            let v = parse_value(line)?;
            check_version(v.field("v")?.usize()?)?;
            Ok(ClientMsg::Control(parse_action(&v)?))
        }
        other => Err(perr(format!("unknown client message type '{other}'"))),
    }
}

/// Reads the field `key` a submit line kept, with `read`; fails with the
/// texts every field reader uses, `what` naming the type it must be.
fn submit_field<'s, 'a, T>(
    key: &str,
    found: &'s Option<Scalar<'a>>,
    read: impl FnOnce(&'s Scalar<'a>) -> Option<T>,
    what: &str,
) -> Result<T, ParseError> {
    let value = found
        .as_ref()
        .ok_or_else(|| ParseError::missing_field(key))?;
    read(value).ok_or_else(|| ParseError::wrong_type(key, what))
}

/// Parses one server line.
///
/// # Errors
///
/// [`ServeError::Protocol`] on malformed JSON, unknown type, version
/// mismatch, or missing/mistyped fields.
pub fn parse_server(line: &str) -> Result<ServerMsg, ServeError> {
    let v = parse_value(line)?;
    match v.field("type")?.str()? {
        "decision" => match event_from_value(&v)? {
            TraceEvent::Decision(d) => Ok(ServerMsg::Decision(d)),
            other => unreachable!("a decision line read as '{}'", other.kind()),
        },
        "overload" => {
            check_version(v.field("v")?.usize()?)?;
            Ok(ServerMsg::Overload(OverloadReject {
                id: v.field("id")?.usize()?,
                queue_depth: v.field("queue_depth")?.usize()?,
                limit: v.field("limit")?.usize()?,
            }))
        }
        "ack" => {
            let version = check_version(v.field("v")?.usize()?)?;
            let (epoch, role) = if version >= 2 {
                (
                    v.field("epoch")?.u64()?,
                    v.field("role")?.str()?.to_string(),
                )
            } else {
                (1, "primary".to_string())
            };
            // Optional on the wire: acks from daemons predating the
            // flight-recorder work simply omit it.
            let last_snapshot_unix_ms = v
                .opt_field("last_snapshot_unix_ms")
                .map(Field::u64)
                .transpose()?;
            let stats = v.field("stats")?.value();
            Ok(ServerMsg::Ack(ControlAck {
                action: parse_action(&v)?,
                slot: v.field("slot")?.usize()?,
                epoch,
                role,
                last_snapshot_unix_ms,
                stats: ServeStats {
                    decided: stats.field("decided")?.u64()?,
                    admitted: stats.field("admitted")?.u64()?,
                    rejected: stats.field("rejected")?.u64()?,
                    overloaded: stats.field("overloaded")?.u64()?,
                    revenue: stats.field("revenue")?.f64()?,
                },
            }))
        }
        "not-primary" => {
            check_version(v.field("v")?.usize()?)?;
            Ok(ServerMsg::NotPrimary {
                epoch: v.field("epoch")?.u64()?,
                id: v.field("id")?.usize()?,
            })
        }
        "error" => {
            check_version(v.field("v")?.usize()?)?;
            Ok(ServerMsg::Error(v.field("message")?.str()?.to_string()))
        }
        other => Err(perr(format!("unknown server message type '{other}'"))),
    }
}

/// Whether a line is a v3 batch frame (cheap prefix test; the daemon
/// routes these to [`parse_batch_into`] instead of [`parse_client`]).
#[inline]
pub fn is_batch_frame(line: &str) -> bool {
    line.starts_with("{\"type\":\"batch\",")
}

/// Whether a line is a v3 batch reply (client-side routing test).
#[inline]
pub fn is_batch_reply(line: &str) -> bool {
    line.starts_with("{\"type\":\"batch-reply\",")
}

/// Byte scanner for the order-strict batch frames. Every method fails
/// with a typed [`ServeError::Protocol`] instead of panicking, so torn
/// or hostile frames cost an error line, never the process.
struct Scan<'a> {
    line: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scan<'a> {
    fn new(line: &'a str) -> Self {
        Scan {
            line,
            bytes: line.as_bytes(),
            pos: 0,
        }
    }

    /// Consumes the exact literal `lit` (batch frames are order-strict).
    fn lit(&mut self, lit: &str) -> Result<(), ServeError> {
        let end = self.pos + lit.len();
        if self.bytes.len() >= end && &self.bytes[self.pos..end] == lit.as_bytes() {
            self.pos = end;
            Ok(())
        } else {
            Err(perr(format!(
                "malformed batch frame: expected '{lit}' at byte {}",
                self.pos
            )))
        }
    }

    /// Consumes an unsigned decimal integer.
    // Left to itself, LLVM keeps this out of line around the shared
    // digit read, and a call per integer cost `serve_codec_sat` 7 %.
    #[inline]
    fn uint(&mut self) -> Result<usize, ServeError> {
        let start = self.pos;
        let value = read_digits(self.bytes, &mut self.pos);
        if self.pos == start {
            return Err(perr(format!(
                "malformed batch frame: expected an integer at byte {start}"
            )));
        }
        value
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| perr("batch frame integer overflows".to_string()))
    }

    /// Consumes a JSON number token and parses it as `f64` (exact for
    /// everything [`encode_batch_into`] emits, including the integer
    /// form of integral floats).
    fn f64(&mut self) -> Result<f64, ServeError> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        // Only ASCII was skipped, so both ends are char boundaries of
        // the frame's own `&str`.
        self.line[start..self.pos].parse::<f64>().map_err(|_| {
            perr(format!(
                "malformed batch frame: expected a number at byte {start}"
            ))
        })
    }

    fn done(&self) -> Result<(), ServeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(perr(format!(
                "malformed batch frame: trailing bytes after byte {}",
                self.pos
            )))
        }
    }
}

fn check_batch_len(n: usize) -> Result<(), ServeError> {
    if n == 0 {
        return Err(perr("empty batch (n must be >= 1)".to_string()));
    }
    if n > MAX_BATCH {
        return Err(perr(format!("batch of {n} exceeds MAX_BATCH={MAX_BATCH}")));
    }
    Ok(())
}

/// Parses a batch submit frame into `out` (cleared first), returning
/// the client's batch sequence number. Zero heap allocations when
/// `out` has capacity from a previous batch.
///
/// # Errors
///
/// [`ServeError::Protocol`] on anything that is not a well-formed
/// frame in [`encode_batch_into`]'s exact field order, on an empty
/// batch, on `n > MAX_BATCH`, or on `n` not matching the array length.
pub fn parse_batch_into(line: &str, out: &mut Vec<SubmitRequest>) -> Result<u64, ServeError> {
    out.clear();
    let mut s = Scan::new(line.trim_end());
    s.lit("{\"type\":\"batch\",\"v\":3,\"b\":")?;
    let seq = s.uint()? as u64;
    s.lit(",\"n\":")?;
    let n = s.uint()?;
    check_batch_len(n)?;
    s.lit(",\"reqs\":[")?;
    for i in 0..n {
        if i > 0 {
            s.lit(",")?;
        }
        s.lit("[")?;
        let id = s.uint()?;
        s.lit(",")?;
        let vnf = s.uint()?;
        s.lit(",")?;
        let reliability = s.f64()?;
        s.lit(",")?;
        let arrival = s.uint()?;
        s.lit(",")?;
        let duration = s.uint()?;
        s.lit(",")?;
        let payment = s.f64()?;
        s.lit("]")?;
        out.push(SubmitRequest {
            id,
            vnf,
            reliability,
            arrival,
            duration,
            payment,
        });
    }
    s.lit("]}")?;
    s.done()?;
    Ok(seq)
}

/// Parses a batch reply into `out` (cleared first), returning the
/// echoed batch sequence number.
///
/// # Errors
///
/// [`ServeError::Protocol`] under the same conditions as
/// [`parse_batch_into`], plus any code outside
/// `BATCH_REJECT..=BATCH_ERROR`.
pub fn parse_batch_reply_into(line: &str, out: &mut Vec<u8>) -> Result<u64, ServeError> {
    out.clear();
    let mut s = Scan::new(line.trim_end());
    s.lit("{\"type\":\"batch-reply\",\"v\":3,\"b\":")?;
    let seq = s.uint()? as u64;
    s.lit(",\"n\":")?;
    let n = s.uint()?;
    check_batch_len(n)?;
    s.lit(",\"codes\":[")?;
    for i in 0..n {
        if i > 0 {
            s.lit(",")?;
        }
        let code = s.uint()?;
        if code > BATCH_ERROR as usize {
            return Err(perr(format!("unknown batch decision code {code}")));
        }
        out.push(code as u8);
    }
    s.lit("]}")?;
    s.done()?;
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_obs::{Outcome, RejectReason, SitePlacement};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The reader a submit line had before it skipped the tree: the
    /// whole line into a [`JsonValue`], then each field read from it.
    /// The two differ by design only on digits-only integers past 2^53,
    /// which the tree rounds; the lines below stay under 10^15.
    fn parse_client_tree(line: &str) -> Result<ClientMsg, ServeError> {
        let v = parse_value(line)?;
        match v.field("type")?.str()? {
            "submit" => {
                check_version(v.field("v")?.usize()?)?;
                Ok(ClientMsg::Submit(SubmitRequest {
                    id: v.field("id")?.usize()?,
                    vnf: v.field("vnf")?.usize()?,
                    reliability: v.field("reliability")?.f64()?,
                    arrival: v.field("arrival")?.usize()?,
                    duration: v.field("duration")?.usize()?,
                    payment: v.field("payment")?.f64()?,
                }))
            }
            "control" => {
                check_version(v.field("v")?.usize()?)?;
                Ok(ClientMsg::Control(parse_action(&v)?))
            }
            other => Err(perr(format!("unknown client message type '{other}'"))),
        }
    }

    /// A result as text: `NaN` fields compare equal this way.
    fn show(read: Result<ClientMsg, ServeError>) -> String {
        match read {
            Ok(msg) => format!("ok {msg:?}"),
            Err(e) => format!("err {e}"),
        }
    }

    const KEYS: [&str; 8] = [
        "type",
        "v",
        "id",
        "vnf",
        "reliability",
        "arrival",
        "duration",
        "payment",
    ];

    /// One value for `key`: well-typed, or with odds `wild` anything.
    fn value_for(key: &str, wild_odds: f64, rng: &mut ChaCha8Rng) -> String {
        let wild = [
            "null",
            "true",
            "\"x\"",
            "[1,[2]]",
            "{\"a\":{}}",
            "-1",
            "1.5",
            "12.0",
            "1e3",
            "-0",
            "007",
            "\"s\\u0075bmit\"",
            "\"é✓\"",
        ];
        if rng.gen_bool(wild_odds) {
            return wild[rng.gen_range(0..wild.len())].to_string();
        }
        match key {
            "type" if wild_odds > 0.0 => {
                ["\"submit\"", "\"control\"", "\"nope\""][rng.gen_range(0..3usize)].to_string()
            }
            "type" => "\"submit\"".to_string(),
            "v" if wild_odds > 0.0 => rng.gen_range(0..5u32).to_string(),
            "v" => rng.gen_range(1..4u32).to_string(),
            "reliability" | "payment" => format!("{:?}", rng.gen_range(0.0..100.0f64)),
            _ => rng.gen_range(0..1_000_000_000_000u64).to_string(),
        }
    }

    fn spaces(rng: &mut ChaCha8Rng) -> &'static str {
        [" ", "", "", "", "\t", "\r\n"][rng.gen_range(0..6usize)]
    }

    /// A submit-shaped line with its fields shuffled and whitespace
    /// anywhere. Half the lines are valid submits; in the other half
    /// fields go missing, come twice or take any type, and unknown ones
    /// are mixed in.
    fn random_line(rng: &mut ChaCha8Rng) -> String {
        let faulty = rng.gen_bool(0.5);
        let wild_odds = if faulty { 0.15 } else { 0.0 };
        let mut members = Vec::new();
        for key in KEYS {
            let copies = if faulty {
                [1, 1, 1, 1, 1, 1, 0, 2][rng.gen_range(0..8usize)]
            } else {
                1
            };
            for _ in 0..copies {
                members.push((key.to_string(), value_for(key, wild_odds, rng)));
            }
        }
        if faulty && rng.gen_bool(0.3) {
            members.push(("action".into(), "\"stats\"".into()));
        }
        if rng.gen_bool(0.3) {
            members.push(("extra".into(), value_for("", 1.0, rng)));
        }
        for i in (1..members.len()).rev() {
            members.swap(i, rng.gen_range(0..=i));
        }
        let mut line = format!("{}{{", spaces(rng));
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let (a, b, c) = (spaces(rng), spaces(rng), spaces(rng));
            line.push_str(&format!("{a}\"{key}\"{b}:{c}{value}"));
        }
        line.push_str(&format!("{}}}{}", spaces(rng), spaces(rng)));
        line
    }

    /// Up to three characters deleted, inserted or replaced, drawn from
    /// the bytes JSON syntax turns on.
    fn mutate(line: &str, rng: &mut ChaCha8Rng) -> String {
        let alphabet: Vec<char> = "{}[]\",:\\ 0123456789-+.eEtrufalsnu/é".chars().collect();
        let mut chars: Vec<char> = line.chars().collect();
        for _ in 0..rng.gen_range(1..4usize) {
            let at = rng.gen_range(0..=chars.len());
            let c = alphabet[rng.gen_range(0..alphabet.len())];
            match rng.gen_range(0..3u32) {
                0 if at < chars.len() => {
                    chars.remove(at);
                }
                1 if at < chars.len() => chars[at] = c,
                _ => chars.insert(at, c),
            }
        }
        chars.into_iter().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_tree_free_read_answers_as_the_tree(seed in 0u64..u64::MAX) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let line = random_line(&mut rng);
            let mut lines = vec![line.clone()];
            lines.extend((0..8).map(|_| mutate(&line, &mut rng)));
            for line in lines {
                let (fast, tree) = (show(parse_client(&line)), show(parse_client_tree(&line)));
                prop_assert_eq!(&fast, &tree, "{line:?}\n  read: {fast}\n  tree: {tree}");
            }
        }
    }

    #[test]
    fn submit_round_trips() {
        let msg = ClientMsg::Submit(SubmitRequest {
            id: 42,
            vnf: 3,
            reliability: 0.97,
            arrival: 5,
            duration: 2,
            payment: 12.25,
        });
        let line = encode_client(&msg);
        assert!(line.starts_with("{\"type\":\"submit\",\"v\":2,"));
        assert_eq!(parse_client(&line).unwrap(), msg);
    }

    #[test]
    fn control_round_trips_all_actions() {
        for action in [
            ControlAction::AdvanceSlot,
            ControlAction::Snapshot,
            ControlAction::Stats,
            ControlAction::Shutdown,
            ControlAction::Promote,
            ControlAction::DumpFlight,
            ControlAction::ChaosPanic(0),
            ControlAction::ChaosPanic(3),
        ] {
            let msg = ClientMsg::Control(action);
            assert_eq!(parse_client(&encode_client(&msg)).unwrap(), msg);
        }
    }

    #[test]
    fn server_messages_round_trip() {
        let decision = ServerMsg::Decision(DecisionEvent {
            request: 7,
            algorithm: "alg1-primal-dual".into(),
            scheme: "on-site".into(),
            slot: 2,
            payment: 4.5,
            outcome: Outcome::Admit {
                dual_cost: 1.25,
                margin: 3.25,
                sites: vec![SitePlacement {
                    cloudlet: 1,
                    instances: 2,
                    dual_cost: 1.25,
                }],
            },
        });
        let overload = ServerMsg::Overload(OverloadReject {
            id: 9,
            queue_depth: 128,
            limit: 128,
        });
        let ack = ServerMsg::Ack(ControlAck {
            action: ControlAction::Stats,
            slot: 3,
            epoch: 2,
            role: "standby".into(),
            last_snapshot_unix_ms: Some(1_754_000_000_000),
            stats: ServeStats {
                decided: 10,
                admitted: 6,
                rejected: 4,
                overloaded: 1,
                revenue: 33.5,
            },
        });
        let not_primary = ServerMsg::NotPrimary { epoch: 3, id: 12 };
        let error = ServerMsg::Error("bad line: \"quoted\"".into());
        for msg in [decision, overload, ack, not_primary, error] {
            assert_eq!(parse_server(&encode_server(&msg)).unwrap(), msg);
        }
    }

    #[test]
    fn v1_lines_still_parse_with_defaults() {
        let submit = "{\"type\":\"submit\",\"v\":1,\"id\":0,\"vnf\":1,\"reliability\":0.9,\
                      \"arrival\":0,\"duration\":1,\"payment\":2.5}";
        assert!(matches!(
            parse_client(submit).unwrap(),
            ClientMsg::Submit(SubmitRequest { id: 0, .. })
        ));
        // A v1 ack has no epoch/role; they default to the
        // pre-replication values.
        let ack = "{\"type\":\"ack\",\"v\":1,\"action\":\"stats\",\"slot\":3,\"stats\":\
                   {\"decided\":1,\"admitted\":1,\"rejected\":0,\"overloaded\":0,\"revenue\":2.5}}";
        match parse_server(ack).unwrap() {
            ServerMsg::Ack(a) => {
                assert_eq!(a.epoch, 1);
                assert_eq!(a.role, "primary");
                assert_eq!(a.last_snapshot_unix_ms, None);
            }
            other => panic!("expected ack, got {other:?}"),
        }
    }

    #[test]
    fn ack_without_snapshot_timestamp_round_trips_as_none() {
        let ack = ServerMsg::Ack(ControlAck {
            action: ControlAction::Snapshot,
            slot: 1,
            epoch: 1,
            role: "primary".into(),
            last_snapshot_unix_ms: None,
            stats: ServeStats::default(),
        });
        let line = encode_server(&ack);
        assert!(!line.contains("last_snapshot_unix_ms"));
        assert_eq!(parse_server(&line).unwrap(), ack);
    }

    #[test]
    fn reject_decision_round_trips() {
        let msg = ServerMsg::Decision(DecisionEvent {
            request: 11,
            algorithm: "alg2-primal-dual".into(),
            scheme: "off-site".into(),
            slot: 0,
            payment: 2.0,
            outcome: Outcome::Reject {
                reason: RejectReason::PaymentTest,
                dual_cost: Some(5.5),
                margin: Some(-3.5),
            },
        });
        assert_eq!(parse_server(&encode_server(&msg)).unwrap(), msg);
    }

    #[test]
    fn version_and_type_are_enforced() {
        assert!(parse_client("{\"type\":\"submit\",\"v\":4,\"id\":0}").is_err());
        assert!(parse_client("{\"type\":\"submit\",\"v\":0,\"id\":0}").is_err());
        assert!(parse_client("{\"type\":\"nope\",\"v\":2}").is_err());
        assert!(parse_client("{\"type\":\"control\",\"v\":2,\"action\":\"dance\"}").is_err());
        assert!(parse_client("not json").is_err());
        assert!(parse_server("{\"type\":\"ack\",\"v\":2,\"action\":\"stats\"}").is_err());
    }

    fn req(id: usize) -> SubmitRequest {
        SubmitRequest {
            id,
            vnf: id % 7,
            reliability: 0.9 + (id % 9) as f64 * 0.01,
            arrival: id % 5,
            duration: 1 + id % 3,
            payment: 2.5 + id as f64 * 0.125,
        }
    }

    #[test]
    fn batch_frames_round_trip() {
        let reqs: Vec<SubmitRequest> = (0..5).map(req).collect();
        let mut line = String::new();
        encode_batch_into(&mut line, 42, &reqs);
        assert!(is_batch_frame(&line) && !is_batch_reply(&line));
        let mut back = Vec::new();
        assert_eq!(parse_batch_into(&line, &mut back).unwrap(), 42);
        assert_eq!(back, reqs);

        let codes = [BATCH_ADMIT, BATCH_REJECT, BATCH_OVERLOAD, BATCH_ERROR];
        encode_batch_reply_into(&mut line, 42, &codes);
        assert!(is_batch_reply(&line) && !is_batch_frame(&line));
        let mut decoded = Vec::new();
        assert_eq!(parse_batch_reply_into(&line, &mut decoded).unwrap(), 42);
        assert_eq!(decoded, codes);
    }

    #[test]
    fn batch_reply_codes_are_written_in_decimal() {
        let codes: Vec<u8> = (0..=u8::MAX).collect();
        let mut line = String::new();
        encode_batch_reply_into(&mut line, 3, &codes);
        let decimal: Vec<String> = codes.iter().map(u8::to_string).collect();
        assert_eq!(
            line,
            format!(
                "{{\"type\":\"batch-reply\",\"v\":3,\"b\":3,\"n\":256,\"codes\":[{}]}}",
                decimal.join(",")
            )
        );
    }

    #[test]
    fn batch_parsers_reject_malformed_frames() {
        let mut out = Vec::new();
        // Empty and oversized batches are typed errors, not panics.
        assert!(parse_batch_into(
            "{\"type\":\"batch\",\"v\":3,\"b\":0,\"n\":0,\"reqs\":[]}",
            &mut out
        )
        .is_err());
        let n = MAX_BATCH + 1;
        assert!(parse_batch_into(
            &format!("{{\"type\":\"batch\",\"v\":3,\"b\":0,\"n\":{n},"),
            &mut out
        )
        .is_err());
        // Torn mid-frame, n mismatch, trailing junk, wrong version.
        let reqs: Vec<SubmitRequest> = (0..3).map(req).collect();
        let mut line = String::new();
        encode_batch_into(&mut line, 7, &reqs);
        assert!(parse_batch_into(&line[..line.len() / 2], &mut out).is_err());
        assert!(parse_batch_into(&line.replace("\"n\":3", "\"n\":2"), &mut out).is_err());
        assert!(parse_batch_into(&format!("{line}x"), &mut out).is_err());
        assert!(parse_batch_into(&line.replace("\"v\":3", "\"v\":4"), &mut out).is_err());

        let mut codes = Vec::new();
        let mut reply = String::new();
        encode_batch_reply_into(&mut reply, 7, &[BATCH_ADMIT, BATCH_REJECT]);
        assert!(parse_batch_reply_into(&reply[..reply.len() - 2], &mut codes).is_err());
        assert!(parse_batch_reply_into(&reply.replace("[1,", "[9,"), &mut codes).is_err());
    }
}
