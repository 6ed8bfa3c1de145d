//! The workspace's one JSON layer: a streaming [`JsonWriter`], a
//! [`JsonValue`] tree with a strict parser, a named-[`Field`] reader
//! over that tree, a tree-free reader of one object's fields
//! ([`visit_fields`]) over the same tokenizer, and the [`TraceEvent`]
//! JSONL codec built on them.
//!
//! The workspace deliberately carries no serde dependency. Every JSON
//! line it writes — trace events, metrics JSONL, the `mec-serve` wire
//! and replication frames, `/status` and snapshots — goes through
//! [`JsonWriter`], and every object it reads goes through
//! [`JsonValue::field`], except the serve wire's single submit line,
//! which [`visit_fields`] reads without building a tree. The schema is
//! versioned by field names only; `tests/json_wire.rs` pins the bytes
//! of every message for downstream tooling.
//!
//! Conventions:
//! - one value per line, no pretty printing;
//! - every trace object carries a `"type"` discriminator (see
//!   [`TraceEvent::kind`]);
//! - non-finite floats write as `null` (JSON has no NaN/Inf), and
//!   `null` reads back as NaN from a required float field;
//! - finite floats are written by [`write_number`], byte for byte as
//!   `{:?}` writes them: the shortest digits that round-trip, so
//!   encode→parse restores the exact bit pattern (this is what makes
//!   snapshot/restore byte-identical downstream). Plain-decimal values
//!   (±0 and `1e-4 ≤ |v| < 1e16`) are spelled by Schubfach without
//!   `core::fmt`; exponent forms are left to `{:?}` itself.
//!   [`JsonWriter::num`] additionally writes integral values inside
//!   `i64` without a decimal point; it is the spelling of the serve
//!   wire, `/status` and snapshots, while traces and metrics use
//!   [`JsonWriter::float`].

use std::borrow::Cow;
use std::fmt::Write as _;

mod number;
pub use number::{read_digits, read_number, write_number};

use crate::event::{
    ChainDecisionEvent, ChainOutcome, ChainRejectReason, ChainStageTrace, DecisionEvent, Outcome,
    RejectReason, SitePlacement, TraceEvent,
};

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Streaming writer of compact JSON into a caller-owned `String`.
///
/// The caller states the structure — [`begin_obj`](Self::begin_obj),
/// [`key`](Self::key), a value, [`end_obj`](Self::end_obj) — and the
/// writer places the separators, escapes every string and spells every
/// number. Nothing is buffered: each call appends to the string, so a
/// connection can reuse one buffer across frames. Balance is the
/// caller's responsibility.
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut String,
    // Whether the next value or key needs a leading comma.
    comma: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out` (existing contents are kept).
    pub fn new(out: &'a mut String) -> Self {
        JsonWriter { out, comma: false }
    }

    /// Everything in the buffer so far, including what it held before
    /// this writer was made (what a trailing checksum field covers).
    pub fn written(&self) -> &str {
        self.out
    }

    #[inline]
    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Opens an object.
    #[inline]
    pub fn begin_obj(&mut self) -> &mut Self {
        self.sep();
        self.out.push('{');
        self.comma = false;
        self
    }

    /// Closes the innermost object.
    #[inline]
    pub fn end_obj(&mut self) -> &mut Self {
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Opens an array.
    #[inline]
    pub fn begin_arr(&mut self) -> &mut Self {
        self.sep();
        self.out.push('[');
        self.comma = false;
        self
    }

    /// Closes the innermost array.
    #[inline]
    pub fn end_arr(&mut self) -> &mut Self {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// Writes an object key; the next call writes its value.
    #[inline]
    pub fn key(&mut self, key: &str) -> &mut Self {
        if self.comma {
            self.out.push(',');
        }
        self.comma = false;
        push_escaped(self.out, key);
        self.out.push(':');
        self
    }

    /// Writes a string, escaped.
    #[inline]
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.sep();
        push_escaped(self.out, v);
        self
    }

    /// Writes an unsigned integer.
    #[inline]
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.sep();
        push_u64(self.out, v);
        self
    }

    /// Writes a `usize` as an unsigned integer.
    #[inline]
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.uint(v as u64)
    }

    /// Writes a float in its shortest round-tripping form (`4.0` stays
    /// `4.0`); non-finite values write `null`.
    #[inline]
    pub fn float(&mut self, v: f64) -> &mut Self {
        self.sep();
        if v.is_finite() {
            write_number(self.out, v);
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Writes a number the way [`JsonValue::Num`] encodes: an integral
    /// value inside `i64` (`-2^63 ≤ v < 2^63`) as an integer (`4.0`
    /// writes `4`), anything else as [`float`](Self::float) does. The
    /// bit-pattern test keeps `-0.0` on the float path, so every value
    /// round-trips exactly.
    #[inline]
    pub fn num(&mut self, v: f64) -> &mut Self {
        // 2^63: `v as i64` saturates there, and `i64::MAX as f64` rounds
        // back up to it, so the bit test alone would pass it.
        const I64_END: f64 = 9_223_372_036_854_775_808.0;
        let as_int = v as i64;
        if v >= I64_END || v.to_bits() != (as_int as f64).to_bits() {
            return self.float(v);
        }
        self.sep();
        if as_int < 0 {
            self.out.push('-');
        }
        push_u64(self.out, as_int.unsigned_abs());
        self
    }

    /// Writes `true` or `false`.
    #[inline]
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    #[inline]
    pub fn null(&mut self) -> &mut Self {
        self.sep();
        self.out.push_str("null");
        self
    }

    /// [`float`](Self::float), or `null` for `None`.
    pub fn opt_float(&mut self, v: Option<f64>) -> &mut Self {
        match v {
            Some(v) => self.float(v),
            None => self.null(),
        }
    }

    /// [`usize`](Self::usize), or `null` for `None`.
    pub fn opt_usize(&mut self, v: Option<usize>) -> &mut Self {
        match v {
            Some(v) => self.usize(v),
            None => self.null(),
        }
    }

    /// Writes an array of unsigned integers (a tight loop: the batch
    /// reply's code array goes through here).
    #[inline]
    pub fn uints(&mut self, items: impl IntoIterator<Item = u64>) -> &mut Self {
        self.begin_arr();
        let out = &mut *self.out;
        for (i, v) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_u64(out, v);
        }
        self.end_arr()
    }

    /// Writes an array of [`num`](Self::num)s.
    pub fn nums(&mut self, items: &[f64]) -> &mut Self {
        self.begin_arr();
        for &v in items {
            self.num(v);
        }
        self.end_arr()
    }

    /// Writes a value tree.
    pub fn value(&mut self, v: &JsonValue) -> &mut Self {
        match v {
            JsonValue::Null => self.null(),
            JsonValue::Bool(b) => self.bool(*b),
            JsonValue::Num(n) => self.num(*n),
            JsonValue::Str(s) => self.str(s),
            JsonValue::Arr(items) => {
                self.begin_arr();
                for item in items {
                    self.value(item);
                }
                self.end_arr()
            }
            JsonValue::Obj(fields) => {
                self.begin_obj();
                for (k, v) in fields {
                    self.key(k).value(v);
                }
                self.end_obj()
            }
        }
    }
}

/// Appends `s` as a JSON string literal, copying unescaped runs whole.
#[inline]
fn push_escaped(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        // Room for both quotes and the `:` or `,` that usually follows.
        out.reserve(s.len() + 3);
        out.push('"');
        out.push_str(s);
        out.push('"');
        return;
    }
    out.push('"');
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte matched above is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Appends the decimal digits of `v` without going through `core::fmt`.
/// A single digit (every batch reply code) is one inlined byte push.
#[inline]
fn push_u64(out: &mut String, v: u64) {
    if v < 10 {
        out.push(char::from(b'0' + v as u8));
    } else {
        push_digits(out, v);
    }
}

fn push_digits(out: &mut String, v: u64) {
    let mut digits = [0u8; 20];
    let start = number::write_digits(&mut digits, 20, v);
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

/// Serializes one event as a single JSON line (no trailing newline).
pub fn to_json(event: &TraceEvent) -> String {
    let mut out = String::with_capacity(128);
    write_event(&mut JsonWriter::new(&mut out), event);
    out
}

/// Writes one decision as the object [`to_json`] gives its
/// [`TraceEvent::Decision`], without wrapping (or cloning) it.
pub fn write_decision(w: &mut JsonWriter<'_>, d: &DecisionEvent) {
    w.begin_obj().key("type").str("decision");
    decision_fields(w, d);
    w.end_obj();
}

fn write_event(w: &mut JsonWriter<'_>, event: &TraceEvent) {
    w.begin_obj().key("type").str(event.kind());
    match event {
        TraceEvent::Decision(d) => decision_fields(w, d),
        TraceEvent::OutageStart { slot, cloudlet } | TraceEvent::OutageEnd { slot, cloudlet } => {
            w.key("slot").usize(*slot).key("cloudlet").usize(*cloudlet);
        }
        TraceEvent::InstanceKill {
            slot,
            cloudlet,
            request,
        } => {
            w.key("slot").usize(*slot).key("cloudlet").usize(*cloudlet);
            w.key("request").usize(*request);
        }
        TraceEvent::SlaBreach { slot, request } => {
            w.key("slot").usize(*slot).key("request").usize(*request);
        }
        TraceEvent::Recovery {
            slot,
            request,
            success,
            cloudlets,
        } => {
            w.key("slot").usize(*slot).key("request").usize(*request);
            w.key("success").bool(*success);
            w.key("cloudlets")
                .uints(cloudlets.iter().map(|&c| c as u64));
        }
        TraceEvent::DomainOutageStart {
            slot,
            domain,
            cloudlets,
        } => {
            w.key("slot").usize(*slot).key("domain").usize(*domain);
            w.key("cloudlets")
                .uints(cloudlets.iter().map(|&c| c as u64));
        }
        TraceEvent::DomainOutageEnd { slot, domain } => {
            w.key("slot").usize(*slot).key("domain").usize(*domain);
        }
        TraceEvent::Cascade {
            slot,
            cloudlet,
            utilization,
        } => {
            w.key("slot").usize(*slot).key("cloudlet").usize(*cloudlet);
            w.key("utilization").float(*utilization);
        }
        TraceEvent::Eviction {
            slot,
            request,
            density,
        } => {
            w.key("slot").usize(*slot).key("request").usize(*request);
            w.key("density").float(*density);
        }
        TraceEvent::DegradedEnter { slot } | TraceEvent::DegradedExit { slot } => {
            w.key("slot").usize(*slot);
        }
        TraceEvent::AuditViolation {
            slot,
            invariant,
            detail,
        } => {
            w.key("slot").usize(*slot).key("invariant").str(invariant);
            w.key("detail").str(detail);
        }
        TraceEvent::Promotion { epoch, seq } | TraceEvent::ReplCatchup { epoch, seq } => {
            w.key("epoch").uint(*epoch).key("seq").uint(*seq);
        }
        TraceEvent::Fenced { epoch, stale_epoch } => {
            w.key("epoch")
                .uint(*epoch)
                .key("stale_epoch")
                .uint(*stale_epoch);
        }
        TraceEvent::ChaosFault { family, detail } => {
            w.key("family").str(family).key("detail").str(detail);
        }
        TraceEvent::ShardRestart { shard, replayed } => {
            w.key("shard")
                .usize(*shard)
                .key("replayed")
                .usize(*replayed);
        }
        TraceEvent::StageSample {
            shard,
            stage,
            nanos,
        } => {
            w.key("shard")
                .usize(*shard)
                .key("stage")
                .str(stage.as_str());
            w.key("nanos").uint(*nanos);
        }
        TraceEvent::ChainDecision(d) => chain_decision_fields(w, d),
        TraceEvent::ChainPath {
            chain,
            segment,
            nodes,
            latency,
        } => {
            w.key("chain").usize(*chain).key("segment").usize(*segment);
            w.key("nodes").uints(nodes.iter().map(|&n| n as u64));
            w.key("latency").float(*latency);
        }
    }
    w.end_obj();
}

fn decision_fields(w: &mut JsonWriter<'_>, d: &DecisionEvent) {
    w.key("request").usize(d.request);
    w.key("algorithm").str(&d.algorithm);
    w.key("scheme").str(&d.scheme);
    w.key("slot").usize(d.slot).key("payment").float(d.payment);
    match &d.outcome {
        Outcome::Admit {
            dual_cost,
            margin,
            sites,
        } => {
            w.key("outcome").str("admit");
            w.key("dual_cost")
                .float(*dual_cost)
                .key("margin")
                .float(*margin);
            w.key("sites").begin_arr();
            for s in sites {
                w.begin_obj();
                w.key("cloudlet").usize(s.cloudlet);
                w.key("instances").uint(u64::from(s.instances));
                w.key("dual_cost").float(s.dual_cost);
                w.end_obj();
            }
            w.end_arr();
        }
        Outcome::Reject {
            reason,
            dual_cost,
            margin,
        } => {
            w.key("outcome")
                .str("reject")
                .key("reason")
                .str(reason.as_str());
            w.key("dual_cost").opt_float(*dual_cost);
            w.key("margin").opt_float(*margin);
        }
    }
}

fn chain_decision_fields(w: &mut JsonWriter<'_>, d: &ChainDecisionEvent) {
    w.key("chain").usize(d.chain);
    w.key("algorithm").str(&d.algorithm);
    w.key("slot").usize(d.slot).key("payment").float(d.payment);
    match &d.outcome {
        ChainOutcome::Admit {
            dual_cost,
            margin,
            latency,
            budget,
            availability,
            stages,
        } => {
            w.key("outcome").str("admit");
            w.key("dual_cost")
                .float(*dual_cost)
                .key("margin")
                .float(*margin);
            w.key("latency").float(*latency);
            // `budget` may legitimately be +inf (unconstrained); it
            // writes as null and reads back as +inf — the one field where
            // null does not mean NaN. Sound because NaN budgets are
            // rejected at construction.
            w.key("budget").float(*budget);
            w.key("availability").float(*availability);
            w.key("stages").begin_arr();
            for s in stages {
                w.begin_obj();
                w.key("vnf").usize(s.vnf).key("cloudlet").usize(s.cloudlet);
                w.key("replicas").uint(u64::from(s.replicas));
                w.key("dual_cost").float(s.dual_cost);
                w.key("standby").opt_usize(s.standby);
                w.key("backup_cloudlet").opt_usize(s.backup_cloudlet);
                w.key("backup_shared");
                match s.backup_shared {
                    Some(b) => w.bool(b),
                    None => w.null(),
                };
                w.end_obj();
            }
            w.end_arr();
        }
        ChainOutcome::Reject {
            reason,
            dual_cost,
            margin,
        } => {
            w.key("outcome")
                .str("reject")
                .key("reason")
                .str(reason.as_str());
            w.key("dual_cost").opt_float(*dual_cost);
            w.key("margin").opt_float(*margin);
        }
    }
}

// ---------------------------------------------------------------------------
// Value tree and parser
// ---------------------------------------------------------------------------

/// Error produced while reading JSON: malformed text, or a well-formed
/// value missing a field or holding one of the wrong type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the text where a syntax error stopped parsing;
    /// `None` for field errors, which are not tied to a position.
    pub offset: Option<usize>,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "{} at byte {offset}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for ParseError {}

/// A generic JSON value tree: what [`parse_value`] returns, read
/// through [`JsonValue::field`]. Object fields keep insertion order;
/// duplicate keys are not rejected ([`JsonValue::get`] returns the first
/// match).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always an `f64`, like the wire format).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object as an ordered list of `(key, value)` fields.
    Obj(Vec<(String, JsonValue)>),
}

/// Internal shorthand for the parser below.
type Json = JsonValue;

impl JsonValue {
    /// Looks up a field of an object (first match); `None` for non-objects.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a JsonValue> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The required field `key` of this object, for typed reading.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] naming `key` when it is absent (or `self` is not
    /// an object).
    pub fn field<'a>(&'a self, key: &'a str) -> Result<Field<'a>, ParseError> {
        self.opt_field(key)
            .ok_or_else(|| ParseError::missing_field(key))
    }

    /// The field `key` of this object when present, for optional fields.
    pub fn opt_field<'a>(&'a self, key: &'a str) -> Option<Field<'a>> {
        self.get(key).map(|value| Field { key, value })
    }

    /// The value as a finite-or-NaN float: numbers parse as themselves,
    /// `null` as NaN (matching the non-finite-floats-as-`null` encode
    /// convention); anything else is `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a non-negative integer, rejecting fractional numbers
    /// and anything from `2^usize::BITS` up.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) => float_usize(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Appends the compact (single-line) encoding of this value to `out`
    /// (numbers as [`JsonWriter::num`] writes them).
    pub fn encode_into(&self, out: &mut String) {
        JsonWriter::new(out).value(self);
    }

    /// The compact (single-line) encoding of this value.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64);
        self.encode_into(&mut out);
        out
    }
}

fn field_error(message: String) -> ParseError {
    ParseError {
        message,
        offset: None,
    }
}

impl ParseError {
    /// The error of a required field `key` that is absent, as every
    /// field reader words it.
    pub fn missing_field(key: &str) -> Self {
        field_error(format!("missing field '{key}'"))
    }

    /// The error of a field `key` that is not `what`, as every field
    /// reader words it.
    pub fn wrong_type(key: &str, what: &str) -> Self {
        field_error(format!("field '{key}' must be {what}"))
    }
}

/// `2^usize::BITS`, exactly: `usize::MAX as f64` rounds up to it, so the
/// bound on an integral float is strict.
const USIZE_END: f64 = 2.0 * (1usize << (usize::BITS - 1)) as f64;

fn float_usize(n: f64) -> Option<usize> {
    (n >= 0.0 && n.fract() == 0.0 && n < USIZE_END).then_some(n as usize)
}

/// One named value read out of a JSON object, or one element of a named
/// array. Every typed read fails with a [`ParseError`] that names the
/// field, so decoders state only which fields they need.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a> {
    key: &'a str,
    value: &'a JsonValue,
}

impl<'a> Field<'a> {
    fn wrong(self, what: &str) -> ParseError {
        ParseError::wrong_type(self.key, what)
    }

    /// The raw value.
    pub fn value(self) -> &'a JsonValue {
        self.value
    }

    /// A non-negative integer.
    ///
    /// # Errors
    ///
    /// When the value is anything else.
    pub fn usize(self) -> Result<usize, ParseError> {
        self.value
            .as_usize()
            .ok_or_else(|| self.wrong("a non-negative integer"))
    }

    /// A non-negative integer that fits a `u64`.
    ///
    /// # Errors
    ///
    /// When the value is anything else.
    pub fn u64(self) -> Result<u64, ParseError> {
        self.usize().map(|n| n as u64)
    }

    /// A non-negative integer that fits a `u32`.
    ///
    /// # Errors
    ///
    /// When the value is anything else.
    pub fn u32(self) -> Result<u32, ParseError> {
        u32::try_from(self.usize()?).map_err(|_| self.wrong("an integer below 2^32"))
    }

    /// A float; `null` reads as NaN (non-finite values write as `null`).
    ///
    /// # Errors
    ///
    /// When the value is neither a number nor `null`.
    pub fn f64(self) -> Result<f64, ParseError> {
        self.value.as_f64().ok_or_else(|| self.wrong("a number"))
    }

    /// A float, or `None` for `null`.
    ///
    /// # Errors
    ///
    /// When the value is neither a number nor `null`.
    pub fn opt_f64(self) -> Result<Option<f64>, ParseError> {
        match self.value {
            Json::Null => Ok(None),
            Json::Num(n) => Ok(Some(*n)),
            _ => Err(self.wrong("a number or null")),
        }
    }

    /// A non-negative integer, or `None` for `null`.
    ///
    /// # Errors
    ///
    /// When the value is neither a non-negative integer nor `null`.
    pub fn opt_usize(self) -> Result<Option<usize>, ParseError> {
        match self.value {
            Json::Null => Ok(None),
            _ => self.usize().map(Some),
        }
    }

    /// A string.
    ///
    /// # Errors
    ///
    /// When the value is not a string.
    pub fn str(self) -> Result<&'a str, ParseError> {
        self.value.as_str().ok_or_else(|| self.wrong("a string"))
    }

    /// A bool.
    ///
    /// # Errors
    ///
    /// When the value is not a bool.
    pub fn bool(self) -> Result<bool, ParseError> {
        self.value.as_bool().ok_or_else(|| self.wrong("a bool"))
    }

    /// A bool, or `None` for `null`.
    ///
    /// # Errors
    ///
    /// When the value is neither a bool nor `null`.
    pub fn opt_bool(self) -> Result<Option<bool>, ParseError> {
        match self.value {
            Json::Null => Ok(None),
            _ => self.bool().map(Some),
        }
    }

    /// An array's elements, each read under this field's name.
    ///
    /// # Errors
    ///
    /// When the value is not an array.
    pub fn items(self) -> Result<impl Iterator<Item = Field<'a>>, ParseError> {
        let key = self.key;
        let items = self
            .value
            .as_array()
            .ok_or_else(|| self.wrong("an array"))?;
        Ok(items.iter().map(move |value| Field { key, value }))
    }

    /// An array of non-negative integers.
    ///
    /// # Errors
    ///
    /// When the value is not an array, or an element is not one.
    pub fn usizes(self) -> Result<Vec<usize>, ParseError> {
        self.items()?.map(Field::usize).collect()
    }

    /// An array of floats (`null` elements read as NaN).
    ///
    /// # Errors
    ///
    /// When the value is not an array, or an element is not a number.
    pub fn f64s(self) -> Result<Vec<f64>, ParseError> {
        self.items()?.map(Field::f64).collect()
    }
}

/// Parses one complete JSON value, rejecting trailing garbage.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first malformed byte.
pub fn parse_value(text: &str) -> Result<JsonValue, ParseError> {
    let mut parser = Parser::new(text);
    let value = parser.value()?;
    parser.finish()?;
    Ok(value)
}

/// Reads one complete JSON value as [`parse_value`] does — the same
/// grammar, the same syntax errors at the same offsets — but builds no
/// tree: when the value is an object, `visit` gets each member's key
/// and value in order, and nested containers are checked and skipped.
/// A value that is not an object visits nothing. A well-formed line
/// allocates nothing unless a key or string holds an escape.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first malformed byte; the
/// members before it have been visited.
pub fn visit_fields<'a>(
    text: &'a str,
    mut visit: impl FnMut(&str, Scalar<'a>),
) -> Result<(), ParseError> {
    let mut parser = Parser::new(text);
    parser.skip_ws();
    if parser.peek() == Some(b'{') {
        parser.members(|p, key| {
            visit(&key, p.skip()?);
            Ok(())
        })?;
    } else {
        parser.skip()?;
    }
    parser.finish()
}

/// A value as [`visit_fields`] hands it over: a scalar, decoded, or the
/// kind of a container that was read and checked but not built.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number token of digits only that fits a `u64`, read exactly.
    Uint(u64),
    /// Any other number token.
    Num(f64),
    /// A string, borrowed from the input unless it held an escape.
    Str(Cow<'a, str>),
    /// An array.
    Arr,
    /// An object.
    Obj,
}

impl Scalar<'_> {
    /// The value as a non-negative integer: a digits-only token exactly,
    /// any other number under [`JsonValue::as_usize`]'s rule.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Scalar::Uint(n) => usize::try_from(*n).ok(),
            Scalar::Num(n) => float_usize(*n),
            _ => None,
        }
    }

    /// The value as a float, `null` as NaN, as [`JsonValue::as_f64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            // Correctly rounded, as parsing the token as `f64` is.
            Scalar::Uint(n) => Some(*n as f64),
            Scalar::Num(n) => Some(*n),
            Scalar::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest. Every message this workspace
/// writes nests at most three levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            text: s,
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err<T>(&self, message: &str) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.to_string(),
            offset: Some(self.pos),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    /// Only whitespace may follow the value.
    fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return self.err("trailing garbage after JSON value");
        }
        Ok(())
    }

    /// The next value's first token: a scalar, read whole, or the kind
    /// of a container, whose opening bracket is left for
    /// [`elements`](Self::elements) or [`members`](Self::members).
    fn token(&mut self) -> Result<Scalar<'a>, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => Ok(Scalar::Obj),
            Some(b'[') => Ok(Scalar::Arr),
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b't') => self.literal("true", Scalar::Bool(true)),
            Some(b'f') => self.literal("false", Scalar::Bool(false)),
            Some(b'n') => self.literal("null", Scalar::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    /// Reads one value into a tree.
    fn value(&mut self) -> Result<Json, ParseError> {
        Ok(match self.token()? {
            Scalar::Null => Json::Null,
            Scalar::Bool(b) => Json::Bool(b),
            // Rounds as parsing the token as `f64` does.
            Scalar::Uint(n) => Json::Num(n as f64),
            Scalar::Num(n) => Json::Num(n),
            Scalar::Str(s) => Json::Str(s.into_owned()),
            Scalar::Arr => {
                let mut items = Vec::new();
                self.elements(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Scalar::Obj => {
                let mut fields = Vec::new();
                self.members(|p, key| {
                    fields.push((key.into_owned(), p.value()?));
                    Ok(())
                })?;
                Json::Obj(fields)
            }
        })
    }

    /// Reads one value and builds nothing: a container is checked to its
    /// end and comes back as its kind.
    fn skip(&mut self) -> Result<Scalar<'a>, ParseError> {
        let token = self.token()?;
        match token {
            Scalar::Arr => self.elements(|p| p.skip().map(drop))?,
            Scalar::Obj => self.members(|p, _| p.skip().map(drop))?,
            _ => {}
        }
        Ok(token)
    }

    fn literal(&mut self, lit: &str, value: Scalar<'a>) -> Result<Scalar<'a>, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    /// A digits-only token that fits a `u64` reads exactly as
    /// [`Scalar::Uint`]; any other token as [`read_number`] reads it.
    fn number(&mut self) -> Result<Scalar<'a>, ParseError> {
        let start = self.pos;
        if let Some(n) = read_digits(self.bytes, &mut self.pos) {
            if self.pos > start && !self.peek().is_some_and(number::is_number_byte) {
                return Ok(Scalar::Uint(n));
            }
        }
        self.pos = start;
        match read_number(self.text, &mut self.pos) {
            Some(v) => Ok(Scalar::Num(v)),
            None => self.err("malformed number"),
        }
    }

    /// A string, borrowed from the input when it holds no escape.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        // Every escape pushes a char, so `out` is empty until the first.
        let mut out = String::new();
        loop {
            let run = self.run_end();
            let plain = &self.text[self.pos..run];
            self.pos = run;
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    if out.is_empty() {
                        return Ok(Cow::Borrowed(plain));
                    }
                    out.push_str(plain);
                    return Ok(Cow::Owned(out));
                }
                Some(_) => {
                    out.push_str(plain);
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid \\u escape"),
                            }
                            self.pos += 4;
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Where the unescaped run of a string starting here ends: at the
    /// next quote or backslash, both ASCII and so on a char boundary, or
    /// at the end of the input.
    fn run_end(&self) -> usize {
        self.bytes[self.pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map_or(self.bytes.len(), |i| self.pos + i)
    }

    /// Enters one more container. Reading recurses once per level, so
    /// the depth is bounded: a line of a million `[` would otherwise
    /// overflow the reading thread's stack and abort the process.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return self.err(&format!("nested deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    /// Reads an array, handing each element to `element` to read.
    fn elements(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.descend()?;
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    /// Reads an object, handing each key to `member` to read its value.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.descend()?;
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

fn decision_from(obj: &Json) -> Result<DecisionEvent, ParseError> {
    let outcome = match obj.field("outcome")?.str()? {
        "admit" => {
            let mut sites = Vec::new();
            for s in obj.field("sites")?.items()? {
                let s = s.value();
                sites.push(SitePlacement {
                    cloudlet: s.field("cloudlet")?.usize()?,
                    instances: s.field("instances")?.u32()?,
                    dual_cost: s.field("dual_cost")?.f64()?,
                });
            }
            Outcome::Admit {
                dual_cost: obj.field("dual_cost")?.f64()?,
                margin: obj.field("margin")?.f64()?,
                sites,
            }
        }
        "reject" => {
            let reason = obj.field("reason")?.str()?;
            Outcome::Reject {
                reason: RejectReason::from_wire(reason)
                    .ok_or_else(|| field_error(format!("unknown rejection reason '{reason}'")))?,
                dual_cost: obj.field("dual_cost")?.opt_f64()?,
                margin: obj.field("margin")?.opt_f64()?,
            }
        }
        other => return Err(field_error(format!("unknown outcome '{other}'"))),
    };
    Ok(DecisionEvent {
        request: obj.field("request")?.usize()?,
        algorithm: obj.field("algorithm")?.str()?.to_string(),
        scheme: obj.field("scheme")?.str()?.to_string(),
        slot: obj.field("slot")?.usize()?,
        payment: obj.field("payment")?.f64()?,
        outcome,
    })
}

fn chain_decision_from(obj: &Json) -> Result<ChainDecisionEvent, ParseError> {
    let outcome = match obj.field("outcome")?.str()? {
        "admit" => {
            let mut stages = Vec::new();
            for s in obj.field("stages")?.items()? {
                let s = s.value();
                stages.push(ChainStageTrace {
                    vnf: s.field("vnf")?.usize()?,
                    cloudlet: s.field("cloudlet")?.usize()?,
                    replicas: s.field("replicas")?.u32()?,
                    dual_cost: s.field("dual_cost")?.f64()?,
                    standby: s.field("standby")?.opt_usize()?,
                    backup_cloudlet: s.field("backup_cloudlet")?.opt_usize()?,
                    backup_shared: s.field("backup_shared")?.opt_bool()?,
                });
            }
            // Unlike every other float field, a null budget means +inf
            // (unconstrained), not NaN — see the encoder comment.
            let budget = obj.field("budget")?.opt_f64()?.unwrap_or(f64::INFINITY);
            ChainOutcome::Admit {
                dual_cost: obj.field("dual_cost")?.f64()?,
                margin: obj.field("margin")?.f64()?,
                latency: obj.field("latency")?.f64()?,
                budget,
                availability: obj.field("availability")?.f64()?,
                stages,
            }
        }
        "reject" => {
            let reason = obj.field("reason")?.str()?;
            ChainOutcome::Reject {
                reason: ChainRejectReason::from_wire(reason).ok_or_else(|| {
                    field_error(format!("unknown chain rejection reason '{reason}'"))
                })?,
                dual_cost: obj.field("dual_cost")?.opt_f64()?,
                margin: obj.field("margin")?.opt_f64()?,
            }
        }
        other => return Err(field_error(format!("unknown outcome '{other}'"))),
    };
    Ok(ChainDecisionEvent {
        chain: obj.field("chain")?.usize()?,
        algorithm: obj.field("algorithm")?.str()?.to_string(),
        slot: obj.field("slot")?.usize()?,
        payment: obj.field("payment")?.f64()?,
        outcome,
    })
}

/// Reads a parsed trace object back into a [`TraceEvent`] — for callers
/// that already hold the [`JsonValue`] (a wire reader dispatching on
/// `"type"`), so the line is not parsed twice.
///
/// # Errors
///
/// A [`ParseError`] on an unknown `"type"` or a missing or mistyped
/// field.
pub fn event_from_value(v: &JsonValue) -> Result<TraceEvent, ParseError> {
    let slot = || v.field("slot")?.usize();
    let request = || v.field("request")?.usize();
    let cloudlet = || v.field("cloudlet")?.usize();
    let epoch = || v.field("epoch")?.u64();
    Ok(match v.field("type")?.str()? {
        "decision" => TraceEvent::Decision(decision_from(v)?),
        "outage-start" => TraceEvent::OutageStart {
            slot: slot()?,
            cloudlet: cloudlet()?,
        },
        "outage-end" => TraceEvent::OutageEnd {
            slot: slot()?,
            cloudlet: cloudlet()?,
        },
        "instance-kill" => TraceEvent::InstanceKill {
            slot: slot()?,
            cloudlet: cloudlet()?,
            request: request()?,
        },
        "sla-breach" => TraceEvent::SlaBreach {
            slot: slot()?,
            request: request()?,
        },
        "recovery" => TraceEvent::Recovery {
            slot: slot()?,
            request: request()?,
            success: v.field("success")?.bool()?,
            cloudlets: v.field("cloudlets")?.usizes()?,
        },
        "domain-outage-start" => TraceEvent::DomainOutageStart {
            slot: slot()?,
            domain: v.field("domain")?.usize()?,
            cloudlets: v.field("cloudlets")?.usizes()?,
        },
        "domain-outage-end" => TraceEvent::DomainOutageEnd {
            slot: slot()?,
            domain: v.field("domain")?.usize()?,
        },
        "cascade" => TraceEvent::Cascade {
            slot: slot()?,
            cloudlet: cloudlet()?,
            utilization: v.field("utilization")?.f64()?,
        },
        "eviction" => TraceEvent::Eviction {
            slot: slot()?,
            request: request()?,
            density: v.field("density")?.f64()?,
        },
        "degraded-enter" => TraceEvent::DegradedEnter { slot: slot()? },
        "degraded-exit" => TraceEvent::DegradedExit { slot: slot()? },
        "audit-violation" => TraceEvent::AuditViolation {
            slot: slot()?,
            invariant: v.field("invariant")?.str()?.to_string(),
            detail: v.field("detail")?.str()?.to_string(),
        },
        "promotion" => TraceEvent::Promotion {
            epoch: epoch()?,
            seq: v.field("seq")?.u64()?,
        },
        "fenced" => TraceEvent::Fenced {
            epoch: epoch()?,
            stale_epoch: v.field("stale_epoch")?.u64()?,
        },
        "repl-catchup" => TraceEvent::ReplCatchup {
            epoch: epoch()?,
            seq: v.field("seq")?.u64()?,
        },
        "chaos-fault" => TraceEvent::ChaosFault {
            family: v.field("family")?.str()?.to_string(),
            detail: v.field("detail")?.str()?.to_string(),
        },
        "shard-restart" => TraceEvent::ShardRestart {
            shard: v.field("shard")?.usize()?,
            replayed: v.field("replayed")?.usize()?,
        },
        "stage" => {
            let stage = v.field("stage")?.str()?;
            TraceEvent::StageSample {
                shard: v.field("shard")?.usize()?,
                stage: crate::PipelineStage::from_wire(stage)
                    .ok_or_else(|| field_error(format!("unknown pipeline stage '{stage}'")))?,
                nanos: v.field("nanos")?.u64()?,
            }
        }
        "chain-decision" => TraceEvent::ChainDecision(chain_decision_from(v)?),
        "chain-path" => TraceEvent::ChainPath {
            chain: v.field("chain")?.usize()?,
            segment: v.field("segment")?.usize()?,
            nodes: v.field("nodes")?.usizes()?,
            latency: v.field("latency")?.f64()?,
        },
        other => return Err(field_error(format!("unknown event type '{other}'"))),
    })
}

/// Parses one JSONL trace line back into a [`TraceEvent`].
///
/// # Errors
///
/// A [`ParseError`] on malformed JSON or anything
/// [`event_from_value`] refuses.
pub fn parse_line(line: &str) -> Result<TraceEvent, ParseError> {
    event_from_value(&parse_value(line)?)
}

/// Parses a whole JSONL document, skipping blank lines.
///
/// # Errors
///
/// The first line's [`ParseError`], its message prefixed with the
/// 1-based line number.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, ParseError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_line(line).map_err(|e| ParseError {
            message: format!("line {}: {}", i + 1, e.message),
            offset: e.offset,
        })?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_admit_round_trips() {
        let ev = TraceEvent::Decision(DecisionEvent {
            request: 7,
            algorithm: "alg1-onsite".to_string(),
            scheme: "onsite".to_string(),
            slot: 3,
            payment: 4.25,
            outcome: Outcome::Admit {
                dual_cost: 1.5,
                margin: 2.75,
                sites: vec![SitePlacement {
                    cloudlet: 2,
                    instances: 3,
                    dual_cost: 1.5,
                }],
            },
        });
        assert_eq!(parse_line(&to_json(&ev)).unwrap(), ev);
    }

    #[test]
    fn reject_with_null_fields_round_trips() {
        let ev = TraceEvent::Decision(DecisionEvent {
            request: 0,
            algorithm: "alg2-offsite".to_string(),
            scheme: "offsite".to_string(),
            slot: 0,
            payment: 0.5,
            outcome: Outcome::Reject {
                reason: RejectReason::ReliabilityInfeasible,
                dual_cost: None,
                margin: Some(-0.25),
            },
        });
        assert_eq!(parse_line(&to_json(&ev)).unwrap(), ev);
    }

    #[test]
    fn string_escapes_round_trip() {
        let ev = TraceEvent::Decision(DecisionEvent {
            request: 1,
            algorithm: "weird\"name\\with\ncontrol\u{1}".to_string(),
            scheme: "onsite".to_string(),
            slot: 1,
            payment: 1.0,
            outcome: Outcome::Reject {
                reason: RejectReason::UnknownVnf,
                dual_cost: None,
                margin: None,
            },
        });
        assert_eq!(parse_line(&to_json(&ev)).unwrap(), ev);
    }

    #[test]
    fn non_finite_serializes_as_null() {
        let ev = TraceEvent::Decision(DecisionEvent {
            request: 1,
            algorithm: "a".to_string(),
            scheme: "onsite".to_string(),
            slot: 1,
            payment: f64::INFINITY,
            outcome: Outcome::Reject {
                reason: RejectReason::PaymentTest,
                dual_cost: None,
                margin: None,
            },
        });
        let line = to_json(&ev);
        assert!(line.contains("\"payment\":null"));
        match parse_line(&line).unwrap() {
            TraceEvent::Decision(d) => assert!(d.payment.is_nan()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fault_lifecycle_events_round_trip() {
        let events = vec![
            TraceEvent::DomainOutageStart {
                slot: 4,
                domain: 1,
                cloudlets: vec![0, 2, 5],
            },
            TraceEvent::DomainOutageEnd { slot: 9, domain: 1 },
            TraceEvent::Cascade {
                slot: 5,
                cloudlet: 3,
                utilization: 0.9375,
            },
            TraceEvent::Eviction {
                slot: 6,
                request: 12,
                density: 0.125,
            },
            TraceEvent::DegradedEnter { slot: 4 },
            TraceEvent::DegradedExit { slot: 10 },
            TraceEvent::AuditViolation {
                slot: 7,
                invariant: "ledger-balance".to_string(),
                detail: "cloudlet 2 slot 7: used 5 expected 4".to_string(),
            },
        ];
        for ev in events {
            let line = to_json(&ev);
            assert_eq!(parse_line(&line).unwrap(), ev, "line: {line}");
        }
        assert_eq!(
            TraceEvent::Eviction {
                slot: 0,
                request: 0,
                density: 0.0
            }
            .request(),
            Some(0)
        );
        assert_eq!(
            TraceEvent::DegradedEnter { slot: 0 }.kind(),
            "degraded-enter"
        );
    }

    #[test]
    fn replication_events_round_trip() {
        let events = vec![
            TraceEvent::Promotion { epoch: 2, seq: 417 },
            TraceEvent::Fenced {
                epoch: 3,
                stale_epoch: 1,
            },
            TraceEvent::ReplCatchup { epoch: 1, seq: 96 },
            TraceEvent::ChaosFault {
                family: "network".to_string(),
                detail: "drop conn=2 frame=7 \"torn\"".to_string(),
            },
            TraceEvent::ShardRestart {
                shard: 1,
                replayed: 42,
            },
        ];
        for ev in events {
            let line = to_json(&ev);
            assert_eq!(parse_line(&line).unwrap(), ev, "line: {line}");
            assert_eq!(parse_line(&line).unwrap().request(), None);
        }
        assert_eq!(
            TraceEvent::Promotion { epoch: 2, seq: 0 }.kind(),
            "promotion"
        );
        assert_eq!(
            TraceEvent::Fenced {
                epoch: 2,
                stale_epoch: 1
            }
            .kind(),
            "fenced"
        );
        assert_eq!(
            TraceEvent::ReplCatchup { epoch: 1, seq: 0 }.kind(),
            "repl-catchup"
        );
    }

    #[test]
    fn stage_samples_round_trip() {
        for stage in crate::PipelineStage::ALL {
            let ev = TraceEvent::StageSample {
                shard: 3,
                stage,
                nanos: 12_345,
            };
            let line = to_json(&ev);
            assert_eq!(parse_line(&line).unwrap(), ev, "line: {line}");
            assert_eq!(parse_line(&line).unwrap().request(), None);
        }
        assert_eq!(
            TraceEvent::StageSample {
                shard: 0,
                stage: crate::PipelineStage::Decide,
                nanos: 0,
            }
            .kind(),
            "stage"
        );
        // Unknown stage names are a parse error, not a silent skip.
        assert!(
            parse_line("{\"type\":\"stage\",\"shard\":0,\"stage\":\"warp\",\"nanos\":1}").is_err()
        );
    }

    #[test]
    fn json_value_encode_parse_round_trips() {
        let v = JsonValue::Obj(vec![
            ("type".to_string(), JsonValue::Str("snapshot".to_string())),
            ("v".to_string(), JsonValue::Num(1.0)),
            ("ok".to_string(), JsonValue::Bool(true)),
            ("none".to_string(), JsonValue::Null),
            (
                "grid".to_string(),
                JsonValue::Arr(vec![
                    JsonValue::Num(0.1 + 0.2), // not exactly 0.3 — bit pattern must survive
                    JsonValue::Num(-1.5e-300),
                    JsonValue::Num(7.0),
                ]),
            ),
            (
                "name".to_string(),
                JsonValue::Str("quo\"te\\and\ncontrol\u{1}".to_string()),
            ),
        ]);
        let text = v.encode();
        let back = parse_value(&text).unwrap();
        assert_eq!(back, v);
        // Byte-exact floats through the round trip.
        let grid = back.get("grid").unwrap().as_array().unwrap();
        assert_eq!(
            grid[0].as_f64().unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        assert_eq!(
            grid[1].as_f64().unwrap().to_bits(),
            (-1.5e-300f64).to_bits()
        );
        // Accessors.
        assert_eq!(back.get("v").unwrap().as_usize(), Some(1));
        assert_eq!(back.get("ok").unwrap().as_bool(), Some(true));
        assert!(back.get("none").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(back.get("type").unwrap().as_str(), Some("snapshot"));
        assert_eq!(back.get("missing"), None);
        assert_eq!(JsonValue::Num(1.5).as_usize(), None);
        // `usize::MAX as f64` is 2^64 itself, so the bound is strict.
        assert_eq!(JsonValue::Num(usize::MAX as f64).as_usize(), None);
        assert_eq!(JsonValue::Num(2f64.powi(63)).as_usize(), Some(1 << 63));
        assert_eq!(JsonValue::Num(f64::NAN).encode(), "null");
        assert!(parse_value("{} extra").is_err());
        assert!(parse_value("[1,").is_err());
    }

    #[test]
    fn chain_decision_admit_round_trips() {
        let ev = TraceEvent::ChainDecision(ChainDecisionEvent {
            chain: 4,
            algorithm: "chain-primal-dual".to_string(),
            slot: 2,
            payment: 18.5,
            outcome: ChainOutcome::Admit {
                dual_cost: 3.25,
                margin: 15.25,
                latency: 6.5,
                budget: 12.0,
                availability: 0.9951,
                stages: vec![
                    ChainStageTrace {
                        vnf: 0,
                        cloudlet: 1,
                        replicas: 2,
                        dual_cost: 1.25,
                        standby: Some(0),
                        backup_cloudlet: Some(3),
                        backup_shared: Some(true),
                    },
                    ChainStageTrace {
                        vnf: 5,
                        cloudlet: 2,
                        replicas: 3,
                        dual_cost: 2.0,
                        standby: None,
                        backup_cloudlet: None,
                        backup_shared: None,
                    },
                ],
            },
        });
        assert_eq!(parse_line(&to_json(&ev)).unwrap(), ev);
        assert_eq!(ev.kind(), "chain-decision");
        assert_eq!(ev.request(), None);
        assert_eq!(ev.chain(), Some(4));
    }

    #[test]
    fn chain_infinite_budget_round_trips() {
        // budget is the one float field where null means +inf, not NaN.
        let ev = TraceEvent::ChainDecision(ChainDecisionEvent {
            chain: 0,
            algorithm: "chain-greedy".to_string(),
            slot: 0,
            payment: 2.0,
            outcome: ChainOutcome::Admit {
                dual_cost: 0.5,
                margin: 1.5,
                latency: 0.0,
                budget: f64::INFINITY,
                availability: 0.99,
                stages: vec![],
            },
        });
        let line = to_json(&ev);
        assert!(line.contains("\"budget\":null"), "line: {line}");
        assert_eq!(parse_line(&line).unwrap(), ev);
    }

    #[test]
    fn chain_reject_round_trips_every_reason() {
        for reason in ChainRejectReason::ALL {
            let ev = TraceEvent::ChainDecision(ChainDecisionEvent {
                chain: 9,
                algorithm: "chain-primal-dual".to_string(),
                slot: 1,
                payment: 3.0,
                outcome: ChainOutcome::Reject {
                    reason,
                    dual_cost: Some(4.5),
                    margin: Some(-1.5),
                },
            });
            let line = to_json(&ev);
            assert_eq!(parse_line(&line).unwrap(), ev, "line: {line}");
            assert_eq!(ChainRejectReason::from_wire(reason.as_str()), Some(reason));
        }
        assert_eq!(ChainRejectReason::from_wire("mystery"), None);
    }

    #[test]
    fn chain_path_round_trips() {
        let ev = TraceEvent::ChainPath {
            chain: 4,
            segment: 1,
            nodes: vec![3, 7, 2],
            latency: 2.75,
        };
        let line = to_json(&ev);
        assert_eq!(parse_line(&line).unwrap(), ev, "line: {line}");
        assert_eq!(ev.kind(), "chain-path");
        assert_eq!(ev.chain(), Some(4));
        assert_eq!(ev.request(), None);
        // Non-chain events answer chain() with None.
        assert_eq!(TraceEvent::DegradedEnter { slot: 0 }.chain(), None);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("{\"type\":\"decision\"").is_err());
        assert!(parse_line("{\"type\":\"mystery\"}").is_err());
        assert!(parse_line("{} trailing").is_err());
        assert!(parse_line("{\"no_type\":1}").is_err());
    }

    #[test]
    fn parse_trace_skips_blank_lines_and_reports_line_numbers() {
        let doc = "\n{\"type\":\"sla-breach\",\"slot\":1,\"request\":2}\n\nnot json\n";
        let err = parse_trace(doc).unwrap_err();
        assert!(err.message.starts_with("line 4:"), "{err}");
        let ok = parse_trace("{\"type\":\"outage-start\",\"slot\":0,\"cloudlet\":1}\n").unwrap();
        assert_eq!(
            ok,
            vec![TraceEvent::OutageStart {
                slot: 0,
                cloudlet: 1
            }]
        );
    }

    #[test]
    fn writer_places_separators_and_spells_numbers() {
        let mut out = String::from("prefix:");
        let mut w = JsonWriter::new(&mut out);
        w.begin_obj();
        w.key("a").begin_arr().end_arr();
        w.key("b").begin_obj().end_obj();
        w.key("c")
            .begin_arr()
            .begin_arr()
            .uint(0)
            .end_arr()
            .null()
            .end_arr();
        w.key("u").uints([9, 10, 1_000]).key("max").uint(u64::MAX);
        w.key("num")
            .nums(&[4.0, -3.0, -0.0, 0.5, f64::NAN, i64::MIN as f64, 1e21]);
        w.key("float")
            .begin_arr()
            .float(4.0)
            .float(-0.0)
            .float(f64::INFINITY);
        w.end_arr()
            .key("opt")
            .begin_arr()
            .opt_float(None)
            .opt_usize(Some(2));
        w.end_arr().key("t").bool(true).key("k\"ey").str("v");
        w.end_obj();
        assert!(w.written().starts_with("prefix:{"));
        assert_eq!(
            out,
            "prefix:{\"a\":[],\"b\":{},\"c\":[[0],null],\"u\":[9,10,1000],\
             \"max\":18446744073709551615,\
             \"num\":[4,-3,-0.0,0.5,null,-9223372036854775808,1e21],\
             \"float\":[4.0,-0.0,null],\"opt\":[null,2],\"t\":true,\"k\\\"ey\":\"v\"}"
        );
        // `value` writes a tree exactly as its own encoder does.
        let tree = parse_value(&out["prefix:".len()..]).unwrap();
        let mut again = String::new();
        JsonWriter::new(&mut again).value(&tree);
        assert_eq!(again, tree.encode());
    }

    #[test]
    fn every_control_character_is_escaped_and_read_back() {
        let text: String = (0u8..0x20)
            .map(char::from)
            .chain("\"\\é✓".chars())
            .collect();
        let mut out = String::new();
        JsonWriter::new(&mut out).str(&text);
        assert!(!out.chars().any(char::is_control), "{out:?}");
        assert_eq!(parse_value(&out).unwrap().as_str(), Some(text.as_str()));
    }

    #[test]
    fn visit_fields_reads_what_parse_value_reads() {
        let texts = [
            "{\"a\":1,\"b\":\"x\\ny\",\"c\":[1,{\"d\":null}],\"e\":{},\"a\":-2.5e3}",
            " { \"k\" : true , \"\\u0069d\" : 12.0 , \"n\" : null } ",
            "[1,2]",
            "\"top\"",
            "{\"a\":1,}",
            "{\"a\":[1,}",
            "{\"a\":\"unterminated}",
            "{\"a\":1} x",
            "",
        ];
        for text in texts {
            let mut seen = Vec::new();
            let visited = visit_fields(text, |key, value| seen.push((key.to_string(), value)));
            let tree = match parse_value(text) {
                Ok(tree) => tree,
                Err(e) => {
                    assert_eq!(visited.unwrap_err(), e, "{text}");
                    continue;
                }
            };
            visited.unwrap();
            let fields = match tree {
                Json::Obj(fields) => fields,
                _ => Vec::new(),
            };
            assert_eq!(seen.len(), fields.len(), "{text}");
            for ((key, value), (tree_key, tree_value)) in seen.iter().zip(&fields) {
                assert_eq!(key, tree_key);
                match (value, tree_value) {
                    (Scalar::Arr, Json::Arr(_)) | (Scalar::Obj, Json::Obj(_)) => {}
                    (Scalar::Str(s), Json::Str(t)) => assert_eq!(s, t),
                    (Scalar::Bool(b), Json::Bool(c)) => assert_eq!(b, c),
                    (Scalar::Null, Json::Null) => {}
                    (value, Json::Num(n)) => assert_eq!(value.as_f64(), Some(*n)),
                    other => panic!("{text}: {other:?}"),
                }
            }
        }
        // Escape-free strings are borrowed; digits-only tokens are exact.
        let mut seen = Vec::new();
        let text = "{\"s\":\"plain\",\"e\":\"a\\tb\",\"big\":9007199254740993,\
                    \"past\":18446744073709551616,\"f\":12.0}";
        visit_fields(text, |_, value| seen.push(value)).unwrap();
        assert!(matches!(&seen[0], Scalar::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&seen[1], Scalar::Str(Cow::Owned(s)) if s == "a\tb"));
        assert_eq!(seen[2], Scalar::Uint(9_007_199_254_740_993));
        assert_eq!(seen[2].as_usize(), Some(9_007_199_254_740_993));
        assert_eq!(seen[3], Scalar::Num(18_446_744_073_709_551_616.0));
        assert_eq!(seen[3].as_usize(), None);
        assert_eq!(seen[4], Scalar::Num(12.0));
        assert_eq!(seen[4].as_usize(), Some(12));
    }

    #[test]
    fn read_digits_stops_at_the_first_non_digit_and_flags_overflow() {
        let read = |bytes: &[u8], mut pos: usize| (read_digits(bytes, &mut pos), pos);
        assert_eq!(read(b"x123,", 1), (Some(123), 4));
        assert_eq!(read(b"", 0), (Some(0), 0));
        assert_eq!(read(b"18446744073709551615]", 0), (Some(u64::MAX), 20));
        assert_eq!(read(b"18446744073709551616]", 0), (None, 19));
    }

    #[test]
    fn field_errors_name_the_field_and_carry_no_offset() {
        let v = parse_value(
            "{\"s\":\"x\",\"n\":[1,\"two\"],\"z\":null,\"big\":4294967296,\"b\":false}",
        )
        .unwrap();
        let missing = v.field("absent").unwrap_err();
        assert_eq!(missing.to_string(), "missing field 'absent'");
        assert_eq!(missing.offset, None);
        let wrong = v.field("s").unwrap().usize().unwrap_err();
        assert_eq!(
            wrong.to_string(),
            "field 's' must be a non-negative integer"
        );
        let element = v.field("n").unwrap().usizes().unwrap_err();
        assert_eq!(
            element.to_string(),
            "field 'n' must be a non-negative integer"
        );
        assert!(v.field("z").unwrap().f64().unwrap().is_nan());
        assert_eq!(v.field("z").unwrap().opt_f64().unwrap(), None);
        assert_eq!(v.field("z").unwrap().opt_usize().unwrap(), None);
        assert_eq!(v.field("z").unwrap().opt_bool().unwrap(), None);
        assert_eq!(v.field("b").unwrap().opt_bool().unwrap(), Some(false));
        assert_eq!(v.field("big").unwrap().u64().unwrap(), 1 << 32);
        assert!(v.field("big").unwrap().u32().is_err());
        assert!(v.field("s").unwrap().items().is_err());
        assert!(v.opt_field("absent").is_none());
        // Syntax errors keep their position.
        let syntax = parse_value("[1,").unwrap_err();
        assert_eq!(syntax.offset, Some(3));
        assert!(syntax.to_string().ends_with("at byte 3"), "{syntax}");
    }
}
