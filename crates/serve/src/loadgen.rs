//! Load generators: a closed-loop replayer (one outstanding request,
//! decision stream comparable to the batch engine) and an open-loop
//! batched driver ([`run_open_loop`]) that measures saturation
//! throughput and tail latency over parallel connections.
//!
//! Closed-loop means the generator waits for each decision before
//! sending the next request, so submission order equals decision order —
//! exactly the batch engine's arrival order. That is what makes the
//! daemon's decision stream comparable (and byte-identical) to a batch
//! `Simulation` run of the same trace. `rate` paces *send* times but
//! never reorders.
//!
//! With [`LoadgenConfig::reconnect`] the generator survives daemon
//! failover: `addr` may list several daemons (comma-separated), a
//! dropped connection or `not-primary` refusal rotates to the next
//! address with exponential backoff plus deterministic jitter, and the
//! in-flight request is resubmitted under the same id. The daemon's
//! recent-decision ring makes the resubmit idempotent — if the original
//! submit was decided but its reply lost, the stored decision comes
//! back — so no request is ever lost or decided twice.

use std::io::{self, Write as _};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mec_workload::Request;

use crate::chaos::full_jitter_backoff;
use crate::client::{self, LineClient};
use crate::daemon::is_timeout;
use crate::error::ServeError;
use crate::protocol::{
    encode_batch_into, is_batch_reply, parse_batch_reply_into, parse_server, ClientMsg,
    ControlAction, ServeStats, ServerMsg, SubmitRequest, BATCH_ADMIT, BATCH_OVERLOAD, BATCH_REJECT,
    MAX_BATCH,
};
use crate::referee::AckRecord;

/// Base delay of the reconnect backoff schedule.
const BACKOFF_MIN: Duration = Duration::from_millis(25);
/// Ceiling of the reconnect backoff schedule.
const BACKOFF_MAX: Duration = Duration::from_secs(1);
/// Salt decorrelating the loadgen's backoff draws from the replication
/// sender's (both use the shared full-jitter helper).
const BACKOFF_SALT: u64 = 0x6c6f_6164; // "load"

/// How the load generator drives the daemon.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address, e.g. `"127.0.0.1:7070"`. With
    /// [`LoadgenConfig::reconnect`], a comma-separated list of addresses
    /// to rotate through (primary first, then standbys).
    pub addr: String,
    /// Target arrival rate in requests/second; `f64::INFINITY` (the
    /// default) sends as fast as the closed loop allows.
    pub rate: f64,
    /// Skip requests with id below this (resume after a daemon restart).
    pub start_at: usize,
    /// Send a `shutdown` control after the last request and wait for the
    /// drain-then-snapshot ack.
    pub shutdown_when_done: bool,
    /// Survive connection loss and `not-primary` refusals: rotate
    /// through the addresses with backoff and resubmit the in-flight
    /// request under the same id.
    pub reconnect: bool,
    /// Give up on a single request after this many delivery attempts
    /// (reconnect mode only; the backoff schedule makes the default
    /// roughly two minutes of unavailability).
    pub max_attempts: u32,
    /// Overall wall-clock budget for the whole run. Checked between
    /// delivery attempts and bounding every blocked read; when it
    /// elapses the run fails with [`ServeError::Deadline`] instead of
    /// spinning against a dead cluster, or waiting on a primary that
    /// holds its replies for a standby that is not there, forever.
    pub deadline: Option<Duration>,
    /// Record one [`AckRecord`] per decided request into
    /// [`LoadgenReport::acks`] — the chaos referee's evidence log.
    pub collect_acks: bool,
}

impl LoadgenConfig {
    /// Full-speed config against `addr`.
    pub fn new(addr: impl Into<String>) -> Self {
        LoadgenConfig {
            addr: addr.into(),
            rate: f64::INFINITY,
            start_at: 0,
            shutdown_when_done: false,
            reconnect: false,
            max_attempts: 200,
            deadline: None,
            collect_acks: false,
        }
    }
}

/// Latency summary over all decided requests, in seconds.
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Worst observed.
    pub max: f64,
    /// Histogram counts over [`LatencySummary::BUCKET_BOUNDS`] plus a
    /// final overflow bucket.
    pub buckets: Vec<u64>,
}

impl LatencySummary {
    /// Upper bounds (seconds) of the latency histogram buckets.
    pub const BUCKET_BOUNDS: [f64; 8] = [25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 5e-3, 25e-3];

    /// Summarizes a set of samples (sorted internally).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return LatencySummary {
                buckets: vec![0; Self::BUCKET_BOUNDS.len() + 1],
                ..LatencySummary::default()
            };
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let count = samples.len();
        let pct = |q: f64| -> f64 {
            let idx = ((count - 1) as f64 * q).round() as usize;
            samples[idx]
        };
        let mut buckets = vec![0u64; Self::BUCKET_BOUNDS.len() + 1];
        for &s in &samples {
            let idx = Self::BUCKET_BOUNDS
                .iter()
                .position(|&b| s <= b)
                .unwrap_or(Self::BUCKET_BOUNDS.len());
            buckets[idx] += 1;
        }
        LatencySummary {
            count,
            mean: samples.iter().sum::<f64>() / count as f64,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            max: samples[count - 1],
            buckets,
        }
    }

    /// Renders the summary plus bucket table as plain text (the CI
    /// latency-histogram artifact).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "samples {}", self.count);
        let _ = writeln!(out, "mean_us {:.2}", self.mean * 1e6);
        let _ = writeln!(out, "p50_us {:.2}", self.p50 * 1e6);
        let _ = writeln!(out, "p90_us {:.2}", self.p90 * 1e6);
        let _ = writeln!(out, "p99_us {:.2}", self.p99 * 1e6);
        let _ = writeln!(out, "max_us {:.2}", self.max * 1e6);
        for (i, count) in self.buckets.iter().enumerate() {
            match Self::BUCKET_BOUNDS.get(i) {
                Some(bound) => {
                    let _ = writeln!(out, "le_{}us {}", (bound * 1e6) as u64, count);
                }
                None => {
                    let _ = writeln!(out, "le_inf {count}");
                }
            }
        }
        out
    }
}

/// What a completed load-generation run observed.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests submitted.
    pub sent: usize,
    /// Decisions received.
    pub decided: usize,
    /// Admissions among them.
    pub admitted: usize,
    /// Rejections among them.
    pub rejected: usize,
    /// Typed overload rejections (request dropped before the scheduler).
    pub overloaded: usize,
    /// Error replies.
    pub errors: usize,
    /// Σ payment over admitted requests (client-side bookkeeping).
    pub revenue: f64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// End-to-end latency (send → decision parsed) summary.
    pub latency: LatencySummary,
    /// The daemon's own counters from the final ack, when
    /// `shutdown_when_done` was set.
    pub final_stats: Option<ServeStats>,
    /// Connections (re-)established after the first (reconnect mode).
    pub reconnects: usize,
    /// Requests resubmitted after a connection loss or `not-primary`
    /// refusal (each deduplicated server-side by id).
    pub resubmits: usize,
    /// `not-primary` refusals absorbed while waiting for a promotion.
    pub not_primary: usize,
    /// One record per decided request (final acked decision), when
    /// [`LoadgenConfig::collect_acks`] was set; empty otherwise.
    pub acks: Vec<AckRecord>,
}

impl LoadgenReport {
    /// Decisions per second of wall time.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.decided as f64 / secs
        } else {
            0.0
        }
    }
}

// Capped full-jitter backoff (shared helper, deterministic per attempt
// counter): reruns of the drill take identical schedules, while the salt
// keeps the loadgen's draws decorrelated from the replication sender's.
fn backoff_delay(attempt: u32) -> Duration {
    full_jitter_backoff(BACKOFF_MIN, BACKOFF_MAX, attempt, BACKOFF_SALT)
}

// Checks the run's wall-clock budget between delivery attempts.
fn check_deadline(started: Instant, deadline: Option<Duration>) -> Result<(), ServeError> {
    match deadline {
        Some(budget) if started.elapsed() >= budget => Err(ServeError::Deadline {
            what: "loadgen",
            budget_ms: budget.as_millis() as u64,
        }),
        _ => Ok(()),
    }
}

// Bounds the next blocked read by what is left of the budget; a read
// that times out then fails `check_deadline`.
fn bound_read(
    c: &LineClient,
    started: Instant,
    deadline: Option<Duration>,
) -> Result<(), ServeError> {
    if let Some(budget) = deadline {
        let left = budget.saturating_sub(started.elapsed());
        c.stream()
            .set_read_timeout(Some(left.max(Duration::from_millis(1))))?;
    }
    Ok(())
}

/// Replays `requests` (dense-id arrival order) against the daemon.
///
/// # Errors
///
/// [`ServeError::Net`] if the daemon is unreachable, [`ServeError::Io`] /
/// [`ServeError::Protocol`] if the connection drops or replies are
/// malformed. In reconnect mode connection loss and `not-primary` are
/// absorbed (up to [`LoadgenConfig::max_attempts`] per request) instead.
pub fn run_loadgen(
    requests: &[Request],
    config: &LoadgenConfig,
) -> Result<LoadgenReport, ServeError> {
    let addrs: Vec<&str> = config
        .addr
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .collect();
    if addrs.is_empty() {
        return Err(ServeError::Config("no daemon address given".to_string()));
    }
    let mut addr_idx = 0usize;
    let mut conn: Option<LineClient> = None;
    let mut ever_connected = false;

    let mut report = LoadgenReport {
        sent: 0,
        decided: 0,
        admitted: 0,
        rejected: 0,
        overloaded: 0,
        errors: 0,
        revenue: 0.0,
        elapsed: Duration::ZERO,
        latency: LatencySummary::default(),
        final_stats: None,
        reconnects: 0,
        resubmits: 0,
        not_primary: 0,
        acks: Vec::new(),
    };
    let mut samples = Vec::with_capacity(requests.len());
    let started = Instant::now();
    let pace = config.rate.is_finite() && config.rate > 0.0;

    for request in requests
        .iter()
        .filter(|r| r.id().index() >= config.start_at)
    {
        if pace {
            let target = started + Duration::from_secs_f64(report.sent as f64 / config.rate);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
        }
        let msg = ClientMsg::Submit(SubmitRequest::from(request));

        let mut attempt = 0u32;
        report.sent += 1;
        loop {
            check_deadline(started, config.deadline)?;
            if attempt > 0 {
                if !config.reconnect {
                    unreachable!("retries only happen in reconnect mode");
                }
                if attempt >= config.max_attempts {
                    return Err(ServeError::Protocol(format!(
                        "gave up on request {} after {} delivery attempts",
                        request.id().index(),
                        attempt
                    )));
                }
                std::thread::sleep(backoff_delay(attempt - 1));
                report.resubmits += 1;
            }
            let c = match ensure_conn(
                &mut conn,
                &addrs,
                &mut addr_idx,
                &mut ever_connected,
                &mut report,
                config,
            )? {
                Some(c) => c,
                None => {
                    attempt += 1;
                    continue;
                }
            };
            bound_read(c, started, config.deadline)?;
            let sent_at = Instant::now();
            match c.round_trip(&msg) {
                Ok(ServerMsg::Decision(event)) => {
                    if event.request != request.id().index() {
                        return Err(ServeError::Protocol(format!(
                            "decision for request {} while awaiting {}",
                            event.request,
                            request.id().index()
                        )));
                    }
                    samples.push(sent_at.elapsed().as_secs_f64());
                    report.decided += 1;
                    let admitted = event.outcome.is_admit();
                    if admitted {
                        report.admitted += 1;
                        report.revenue += request.payment();
                    } else {
                        report.rejected += 1;
                    }
                    if config.collect_acks {
                        report.acks.push(AckRecord {
                            id: request.id().index(),
                            admitted,
                            payment: if admitted { request.payment() } else { 0.0 },
                        });
                    }
                    break;
                }
                Ok(ServerMsg::Overload(_)) => {
                    report.overloaded += 1;
                    break;
                }
                Ok(ServerMsg::Error(_)) => {
                    report.errors += 1;
                    break;
                }
                Ok(ServerMsg::NotPrimary { .. }) => {
                    // A standby: rotate to the next address and wait for
                    // the promotion with backoff.
                    if !config.reconnect {
                        return Err(ServeError::Protocol(
                            "daemon is a standby (not-primary); it does not accept submits"
                                .to_string(),
                        ));
                    }
                    report.not_primary += 1;
                    conn = None;
                    addr_idx = (addr_idx + 1) % addrs.len();
                    attempt += 1;
                }
                Ok(ServerMsg::Ack(_)) => {
                    return Err(ServeError::Protocol(
                        "unexpected ack while awaiting a decision".to_string(),
                    ))
                }
                Err(e) => {
                    check_deadline(started, config.deadline)?;
                    // Connection lost mid-request. The submit may or may
                    // not have been decided; resubmitting under the same
                    // id is safe because the daemon's recent-decision
                    // ring answers duplicates with the stored decision.
                    if !config.reconnect {
                        return Err(e);
                    }
                    conn = None;
                    attempt += 1;
                }
            }
        }
    }

    if config.shutdown_when_done {
        let shutdown = ClientMsg::Control(ControlAction::Shutdown);
        let mut attempt = 0u32;
        loop {
            check_deadline(started, config.deadline)?;
            if attempt > 0 {
                if !config.reconnect || attempt >= config.max_attempts {
                    return Err(ServeError::Protocol(
                        "could not deliver the shutdown control".to_string(),
                    ));
                }
                std::thread::sleep(backoff_delay(attempt - 1));
            }
            let c = match ensure_conn(
                &mut conn,
                &addrs,
                &mut addr_idx,
                &mut ever_connected,
                &mut report,
                config,
            )? {
                Some(c) => c,
                None => {
                    attempt += 1;
                    continue;
                }
            };
            bound_read(c, started, config.deadline)?;
            match c.round_trip(&shutdown) {
                Ok(ServerMsg::Ack(ack)) => {
                    report.final_stats = Some(ack.stats);
                    break;
                }
                Ok(other) => {
                    return Err(ServeError::Protocol(format!(
                        "expected a shutdown ack, got {other:?}"
                    )))
                }
                Err(e) => {
                    check_deadline(started, config.deadline)?;
                    if !config.reconnect {
                        return Err(e);
                    }
                    conn = None;
                    attempt += 1;
                }
            }
        }
    }

    report.elapsed = started.elapsed();
    report.latency = LatencySummary::from_samples(samples);
    Ok(report)
}

// Returns the live connection, dialing the current address if there is
// none. `Ok(None)` means the dial failed in reconnect mode: the caller
// backs off and retries (the address cursor has already rotated).
fn ensure_conn<'a>(
    conn: &'a mut Option<LineClient>,
    addrs: &[&str],
    addr_idx: &mut usize,
    ever_connected: &mut bool,
    report: &mut LoadgenReport,
    config: &LoadgenConfig,
) -> Result<Option<&'a mut LineClient>, ServeError> {
    if conn.is_none() {
        match LineClient::connect(addrs[*addr_idx]) {
            Ok(c) => {
                if *ever_connected {
                    report.reconnects += 1;
                }
                *ever_connected = true;
                *conn = Some(c);
            }
            Err(e) if !config.reconnect => return Err(e),
            Err(_) => {
                *addr_idx = (*addr_idx + 1) % addrs.len();
                return Ok(None);
            }
        }
    }
    Ok(conn.as_mut())
}

// ---------------------------------------------------------------------
// Open-loop mode
// ---------------------------------------------------------------------

/// How the open-loop driver saturates the daemon.
///
/// Open-loop means send times are set by the clock (or by the window
/// limit), not by reply arrival: the driver keeps up to
/// [`OpenLoopConfig::window`] batch frames in flight per connection and
/// measures what the daemon actually sustains under that pressure —
/// saturation throughput and tail latency, the numbers a closed loop
/// structurally cannot observe.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Daemon address, e.g. `"127.0.0.1:7070"`.
    pub addr: String,
    /// Parallel connections. Shard `s` is driven by connection
    /// `s mod conns`, so each shard's stream stays on one socket and
    /// per-shard submission order is preserved.
    pub conns: usize,
    /// Shard count of the daemon being driven (1 for the plain daemon);
    /// used only to route requests to connections.
    pub shards: usize,
    /// Requests per batch frame (1..=[`MAX_BATCH`]).
    pub batch: usize,
    /// Target aggregate send rate in requests/second across all
    /// connections; `f64::INFINITY` sends as fast as the window allows.
    pub rate: f64,
    /// Batch frames in flight per connection before the sender stalls.
    pub window: usize,
    /// Send a `shutdown` control (on a fresh connection) after every
    /// driver connection drains, and collect the daemon's final
    /// counters.
    pub shutdown_when_done: bool,
}

impl OpenLoopConfig {
    /// Full-speed config against `addr`: 2 connections, 64-request
    /// frames, 4 frames in flight each.
    pub fn new(addr: impl Into<String>) -> Self {
        OpenLoopConfig {
            addr: addr.into(),
            conns: 2,
            shards: 1,
            batch: 64,
            rate: f64::INFINITY,
            window: 4,
            shutdown_when_done: false,
        }
    }
}

/// What a completed open-loop run observed.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Requests submitted (in batch frames).
    pub sent: usize,
    /// Requests decided (admit or reject codes).
    pub decided: usize,
    /// Admit codes among them.
    pub admitted: usize,
    /// Reject codes among them.
    pub rejected: usize,
    /// Overload codes (dropped by backpressure before the scheduler).
    pub overloaded: usize,
    /// Error codes plus error replies.
    pub errors: usize,
    /// Wall-clock duration from first send to last connection drained.
    pub elapsed: Duration,
    /// Per-frame round-trip latency (send → batch reply parsed). Under
    /// overload this is queueing delay, not decide cost.
    pub latency: LatencySummary,
    /// Per-request latency: each frame's round trip divided by the
    /// number of requests it carried (one sample per frame). This is
    /// the number comparable to the closed-loop generator's per-request
    /// latency — the frame RTT amortized over the batch.
    pub per_request: LatencySummary,
    /// Requests decided per driver connection.
    pub per_conn_decided: Vec<usize>,
    /// The daemon's own counters from the shutdown ack, when
    /// `shutdown_when_done` was set.
    pub final_stats: Option<ServeStats>,
}

impl OpenLoopReport {
    /// Decided requests per second of wall time.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.decided as f64 / secs
        } else {
            0.0
        }
    }
}

// Everything one connection's sender and receiver threads tally.
#[derive(Default)]
struct ConnOutcome {
    sent: usize,
    decided: usize,
    admitted: usize,
    rejected: usize,
    overloaded: usize,
    errors: usize,
    samples: Vec<f64>,
    request_samples: Vec<f64>,
}

/// Drives `requests` at the daemon open-loop: batched frames over
/// `conns` parallel connections with a bounded in-flight window each.
///
/// Requests are routed so each shard's stream stays on one connection
/// (in global-id order), preserving the per-shard submission order the
/// sharded daemon enforces. Overload codes are counted, never retried —
/// under saturation, shed load is the measurement.
///
/// # Errors
///
/// [`ServeError::Net`] if a connection cannot be established,
/// [`ServeError::Config`] for invalid knobs. Mid-run connection failures
/// end that connection's run and surface as `errors` in the report.
pub fn run_open_loop(
    requests: &[Request],
    config: &OpenLoopConfig,
) -> Result<OpenLoopReport, ServeError> {
    if config.conns == 0 || config.shards == 0 || config.window == 0 {
        return Err(ServeError::Config(
            "--conns, --shards and the window must all be at least 1".to_string(),
        ));
    }
    if config.batch == 0 || config.batch > MAX_BATCH {
        return Err(ServeError::Config(format!(
            "--batch must be in 1..={MAX_BATCH} (got {})",
            config.batch
        )));
    }

    // Chunk each connection's request stream into frames up front so the
    // send loop is pure I/O.
    let mut frames: Vec<Vec<Vec<SubmitRequest>>> = vec![Vec::new(); config.conns];
    let mut open: Vec<Vec<SubmitRequest>> = vec![Vec::new(); config.conns];
    for request in requests {
        let c = (request.id().index() % config.shards) % config.conns;
        open[c].push(SubmitRequest::from(request));
        if open[c].len() == config.batch {
            frames[c].push(std::mem::take(&mut open[c]));
        }
    }
    for (c, rest) in open.into_iter().enumerate() {
        if !rest.is_empty() {
            frames[c].push(rest);
        }
    }

    let started = Instant::now();
    let conn_rate = if config.rate.is_finite() && config.rate > 0.0 {
        Some(config.rate / config.conns as f64)
    } else {
        None
    };
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = frames
            .iter()
            .map(|conn_frames| {
                let config = &config;
                scope.spawn(move || drive_conn(conn_frames, config, conn_rate, started))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop connection thread panicked"))
            .collect::<Result<Vec<_>, ServeError>>()
    })?;
    let elapsed = started.elapsed();

    let mut report = OpenLoopReport {
        sent: 0,
        decided: 0,
        admitted: 0,
        rejected: 0,
        overloaded: 0,
        errors: 0,
        elapsed,
        latency: LatencySummary::default(),
        per_request: LatencySummary::default(),
        per_conn_decided: Vec::with_capacity(outcomes.len()),
        final_stats: None,
    };
    let mut samples = Vec::new();
    let mut request_samples = Vec::new();
    for o in outcomes {
        report.sent += o.sent;
        report.decided += o.decided;
        report.admitted += o.admitted;
        report.rejected += o.rejected;
        report.overloaded += o.overloaded;
        report.errors += o.errors;
        report.per_conn_decided.push(o.decided);
        samples.extend(o.samples);
        request_samples.extend(o.request_samples);
    }
    report.latency = LatencySummary::from_samples(samples);
    report.per_request = LatencySummary::from_samples(request_samples);

    if config.shutdown_when_done {
        let ack = client::control(&config.addr, ControlAction::Shutdown)?;
        report.final_stats = Some(ack.stats);
    }
    Ok(report)
}

// One connection's open-loop run: the sender paces frames into the
// socket (stalling at the window limit), a receiver thread drains batch
// replies — which may arrive out of frame order across shards, hence the
// echoed sequence number.
fn drive_conn(
    frames: &[Vec<SubmitRequest>],
    config: &OpenLoopConfig,
    conn_rate: Option<f64>,
    started: Instant,
) -> Result<ConnOutcome, ServeError> {
    if frames.is_empty() {
        return Ok(ConnOutcome::default());
    }
    let reader = LineClient::connect(&config.addr)?;
    // The sender's own handle: frames go out while replies come in.
    let mut writer = reader.stream().try_clone()?;

    let in_flight = AtomicUsize::new(0);
    let frames_sent = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let failed = AtomicBool::new(false);
    // Send instants indexed by the frame's sequence number; the sender
    // pushes in seq order, the receiver indexes by the echoed seq.
    let send_times: Mutex<Vec<Instant>> = Mutex::new(Vec::with_capacity(frames.len()));

    let mut outcome = ConnOutcome::default();
    let recv_result = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            receive_replies(
                reader,
                &send_times,
                &in_flight,
                &frames_sent,
                &sender_done,
                &failed,
            )
        });

        let mut buf = String::new();
        let mut requests_sent = 0usize;
        for (seq, frame) in frames.iter().enumerate() {
            if let Some(rate) = conn_rate {
                let target = started + Duration::from_secs_f64(requests_sent as f64 / rate);
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
            }
            while in_flight.load(Ordering::Acquire) >= config.window
                && !failed.load(Ordering::Acquire)
            {
                std::thread::sleep(Duration::from_micros(50));
            }
            if failed.load(Ordering::Acquire) {
                break;
            }
            encode_batch_into(&mut buf, seq as u64, frame);
            buf.push('\n');
            send_times.lock().unwrap().push(Instant::now());
            in_flight.fetch_add(1, Ordering::AcqRel);
            frames_sent.fetch_add(1, Ordering::AcqRel);
            if writer.write_all(buf.as_bytes()).is_err() {
                failed.store(true, Ordering::Release);
                break;
            }
            requests_sent += frame.len();
            outcome.sent += frame.len();
        }
        sender_done.store(true, Ordering::Release);
        receiver.join().expect("open-loop receiver thread panicked")
    });

    let recv = recv_result?;
    outcome.decided = recv.decided;
    outcome.admitted = recv.admitted;
    outcome.rejected = recv.rejected;
    outcome.overloaded = recv.overloaded;
    outcome.errors = recv.errors;
    outcome.samples = recv.samples;
    outcome.request_samples = recv.request_samples;
    Ok(outcome)
}

// Drains one connection's batch replies until every sent frame is
// answered (or the run fails). The socket read times out every 100 ms so
// the loop can notice sender completion without a sentinel frame.
fn receive_replies(
    mut reader: LineClient,
    send_times: &Mutex<Vec<Instant>>,
    in_flight: &AtomicUsize,
    frames_sent: &AtomicUsize,
    sender_done: &AtomicBool,
    failed: &AtomicBool,
) -> Result<ConnOutcome, ServeError> {
    reader
        .stream()
        .set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut outcome = ConnOutcome::default();
    let mut codes: Vec<u8> = Vec::new();
    let mut frames_done = 0usize;
    loop {
        // A timed-out read keeps its partial line for the next call.
        let trimmed = match reader.read_line() {
            Ok(line) => line,
            Err(ServeError::Io(e)) if is_timeout(&e) => {
                if sender_done.load(Ordering::Acquire)
                    && (frames_done >= frames_sent.load(Ordering::Acquire)
                        || failed.load(Ordering::Acquire))
                {
                    break;
                }
                continue;
            }
            // The daemon hung up, before or in mid-line.
            Err(ServeError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(_) => {
                failed.store(true, Ordering::Release);
                outcome.errors += 1;
                break;
            }
        };
        if is_batch_reply(trimmed) {
            match parse_batch_reply_into(trimmed, &mut codes) {
                Ok(seq) => {
                    let sent_at = send_times.lock().unwrap()[seq as usize];
                    let rtt = sent_at.elapsed().as_secs_f64();
                    outcome.samples.push(rtt);
                    if !codes.is_empty() {
                        // The frame's round trip amortized over the
                        // requests it carried: the per-request number
                        // comparable to closed-loop latency.
                        outcome.request_samples.push(rtt / codes.len() as f64);
                    }
                    for &code in &codes {
                        match code {
                            BATCH_ADMIT => {
                                outcome.decided += 1;
                                outcome.admitted += 1;
                            }
                            BATCH_REJECT => {
                                outcome.decided += 1;
                                outcome.rejected += 1;
                            }
                            BATCH_OVERLOAD => outcome.overloaded += 1,
                            _ => outcome.errors += 1,
                        }
                    }
                    frames_done += 1;
                    in_flight.fetch_sub(1, Ordering::AcqRel);
                    if sender_done.load(Ordering::Acquire)
                        && frames_done >= frames_sent.load(Ordering::Acquire)
                    {
                        break;
                    }
                }
                Err(e) => {
                    failed.store(true, Ordering::Release);
                    return Err(ServeError::Protocol(format!("bad batch reply: {e}")));
                }
            }
        } else {
            // A non-batch reply mid-run (typed error, overload line for
            // a malformed frame) cannot be matched to a sequence number;
            // fail the connection rather than hang on the lost frame.
            outcome.errors += 1;
            failed.store(true, Ordering::Release);
            match parse_server(trimmed) {
                Ok(msg) => {
                    return Err(ServeError::Protocol(format!(
                        "unexpected non-batch reply in open-loop mode: {msg:?}"
                    )))
                }
                Err(e) => return Err(ServeError::Protocol(format!("unparseable reply: {e}"))),
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_percentiles_and_buckets() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-5).collect();
        let s = LatencySummary::from_samples(samples);
        assert_eq!(s.count, 100);
        assert!((s.p50 - 51e-5).abs() < 1e-9);
        assert!((s.p99 - 99e-5).abs() < 1e-9);
        assert!((s.max - 1e-3).abs() < 1e-12);
        assert_eq!(s.buckets.iter().sum::<u64>(), 100);
        let text = s.to_text();
        assert!(text.contains("samples 100"));
        assert!(text.contains("le_inf"));
    }

    #[test]
    fn empty_summary_is_well_formed() {
        let s = LatencySummary::from_samples(Vec::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.buckets.len(), LatencySummary::BUCKET_BOUNDS.len() + 1);
    }
}
