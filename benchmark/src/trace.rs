//! In-memory spans around the benchmark's own calls, written as JSONL
//! when the run ends.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the span that caused it (`parent`, 0 for none) and a
//! `group`: spans of one repetition — the repetition itself, its frames,
//! its decide blocks — share the repetition's id as their group.
//! Timestamps are the ones the measurement takes anyway; a traced
//! repetition differs from an untraced one only in keeping them.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (from 1).
    pub id: u64,
    /// Id of the causing span, 0 for none.
    pub parent: u64,
    /// Id shared by every span of one repetition, 0 outside one.
    pub group: u64,
    /// Layer-boundary name, e.g. `setup.instance` or `frame`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Collects spans when enabled; a disabled tracer only runs closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`--trace 1`) or does not.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 18 } else { 0 }),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        group: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            group,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Runs `f` inside a span named `name`; returns its result and its
    /// wall seconds.
    pub fn span<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, 0, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Spans kept so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was kept.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
