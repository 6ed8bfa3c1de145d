//! The benchmark's own load generator, built on the public wire codec.
//!
//! Two drivers, both blocking `std::net`:
//!
//! * [`drive_saturating`] — one thread per connection keeps `window` v3
//!   batch frames in flight: it writes until the window is full, then
//!   blocks on the next reply. No sleep-polling; each frame is stamped
//!   when its write begins and when its reply line has been read.
//! * [`drive_paced`] — an open loop at a fixed rate on one connection:
//!   request `i` is *due* at `start + i/rate`; one idle-class generator
//!   thread polls, writing each request when it falls due and timing
//!   every reply **from its due time**, so a stall is charged to every
//!   request it delays. How late the generator ran is reported beside
//!   the latencies.
//!
//! Frames are encoded before the timed region; tallies are taken after.

use std::io::{BufRead as _, BufReader, ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::adapter::serve::{
    encode_batch_line, encode_control_line, encode_submit_line, parse_batch_reply, parse_reply,
    submit_of, Control, Counters, Reply, Submit, BATCH_ADMIT, BATCH_REJECT,
};
use crate::adapter::Request;
use crate::host;

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Connects with `TCP_NODELAY` (frames are single writes).
///
/// # Panics
///
/// Panics if the daemon cannot be reached: it was bound by this process
/// a moment ago.
pub fn connect(addr: SocketAddr) -> Conn {
    let stream = TcpStream::connect(addr).expect("daemon accepts connections");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    // A lost reply must fail the run, not hang it.
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let writer = stream.try_clone().expect("socket clone");
    Conn {
        writer,
        reader: BufReader::new(stream),
    }
}

impl Conn {
    fn control(&mut self, control: Control) -> Option<Counters> {
        self.writer
            .write_all(encode_control_line(control).as_bytes())
            .ok()?;
        let mut line = String::new();
        self.reader.read_line(&mut line).ok()?;
        match parse_reply(line.trim_end()) {
            Reply::Ack(counters) => Some(counters),
            _ => None,
        }
    }

    /// Round-trips a `stats` control. The daemons accept connections on
    /// a 10 ms poll; once this returns, a worker is reading this socket
    /// and the timed region will not wait for the accept loop.
    pub fn ping(&mut self) -> Option<Counters> {
        self.control(Control::Stats)
    }

    /// Sends `shutdown` and waits for the daemon's final counters.
    pub fn shutdown(mut self) -> Option<Counters> {
        self.control(Control::Shutdown)
    }
}

/// The pre-encoded frames of one connection and what is needed to
/// tally their replies.
#[derive(Debug, Clone)]
pub struct FramePlan {
    lines: Vec<String>,
    // Frame `k` carries requests `starts[k]..starts[k + 1]` of `payments`.
    starts: Vec<usize>,
    payments: Vec<f64>,
}

impl FramePlan {
    /// Frames in the plan.
    pub fn frames(&self) -> usize {
        self.lines.len()
    }

    /// Requests in the plan.
    pub fn requests(&self) -> usize {
        self.payments.len()
    }

    /// The plan's first `frames` frames.
    pub fn head(&self, frames: usize) -> FramePlan {
        FramePlan {
            lines: self.lines[..frames].to_vec(),
            starts: self.starts[..=frames].to_vec(),
            payments: self.payments[..self.starts[frames]].to_vec(),
        }
    }
}

/// Splits `requests` over `conns` connections — shard `s = id mod
/// shards` rides connection `s mod conns`, so each shard's ids stay
/// monotone on one socket — and encodes each connection's stream into
/// frames of `batch`.
pub fn plan_frames(
    requests: &[Request],
    shards: usize,
    conns: usize,
    batch: usize,
) -> Vec<FramePlan> {
    let mut per_conn: Vec<Vec<Submit>> = vec![Vec::new(); conns];
    for r in requests {
        per_conn[(r.id().index() % shards) % conns].push(submit_of(r));
    }
    per_conn
        .into_iter()
        .map(|submits| {
            let mut plan = FramePlan {
                lines: Vec::with_capacity(submits.len() / batch + 1),
                starts: vec![0],
                payments: submits.iter().map(|s| s.payment).collect(),
            };
            for (seq, chunk) in submits.chunks(batch).enumerate() {
                let mut line = String::new();
                encode_batch_line(&mut line, seq as u64, chunk);
                plan.lines.push(line);
                plan.starts.push(plan.starts[seq] + chunk.len());
            }
            plan
        })
        .collect()
}

/// What one connection observed.
#[derive(Debug, Clone, Copy)]
pub struct Tally {
    /// Requests sent.
    pub sent: usize,
    /// Requests answered with an admit or reject code / decision line.
    pub decided: usize,
    /// Admissions among them.
    pub admitted: usize,
    /// Requests that failed: shed by backpressure, answered with an
    /// error, or never answered.
    pub failed: usize,
    /// Σ payment over admitted requests, summed in request order.
    pub revenue: f64,
    /// When the first write began.
    pub started: Instant,
    /// When the last reply had been read.
    pub finished: Instant,
    /// CPU seconds the generator's own thread(s) spent.
    pub gen_cpu_s: f64,
}

/// Reusable per-connection buffers, sized once so that the run's peak
/// memory does not depend on how many repetitions it makes.
#[derive(Debug, Default)]
pub struct SatBuffers {
    /// `(write began, reply read)` per frame, indexed by sequence number.
    pub stamps: Vec<(Instant, Instant)>,
    codes: Vec<u8>,
    answered: Vec<bool>,
    line: String,
    frame_codes: Vec<u8>,
}

/// Drives `plan` at the daemon with `window` frames in flight.
pub fn drive_saturating(
    conn: &mut Conn,
    plan: &FramePlan,
    window: usize,
    buf: &mut SatBuffers,
) -> Tally {
    let frames = plan.frames();
    let filler = Instant::now();
    buf.stamps.clear();
    buf.stamps.resize(frames, (filler, filler));
    buf.codes.clear();
    buf.codes.resize(plan.requests(), u8::MAX);
    buf.answered.clear();
    buf.answered.resize(frames, false);
    let cpu0 = host::thread_cpu_s();
    let started = Instant::now();

    let (mut next, mut done) = (0usize, 0usize);
    let mut broken = false;
    while done < frames && !broken {
        while next < frames && next - done < window {
            buf.stamps[next].0 = Instant::now();
            if conn.writer.write_all(plan.lines[next].as_bytes()).is_err() {
                broken = true;
                break;
            }
            next += 1;
        }
        if broken || next == done {
            break;
        }
        buf.line.clear();
        match conn.reader.read_line(&mut buf.line) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
        let now = Instant::now();
        let Some(seq) = parse_batch_reply(buf.line.trim_end(), &mut buf.frame_codes) else {
            break;
        };
        let seq = seq as usize;
        let span = plan
            .starts
            .get(seq)
            .copied()
            .zip(plan.starts.get(seq + 1).copied());
        match span {
            Some((lo, hi)) if hi - lo == buf.frame_codes.len() && !buf.answered[seq] => {
                buf.codes[lo..hi].copy_from_slice(&buf.frame_codes);
                buf.answered[seq] = true;
                buf.stamps[seq].1 = now;
                done += 1;
            }
            _ => break,
        }
    }
    let finished = Instant::now();
    let gen_cpu_s = host::thread_cpu_s() - cpu0;

    let mut tally = Tally {
        sent: plan.requests(),
        decided: 0,
        admitted: 0,
        failed: 0,
        revenue: 0.0,
        started,
        finished,
        gen_cpu_s,
    };
    for (&code, &pay) in buf.codes.iter().zip(&plan.payments) {
        match code {
            BATCH_ADMIT => {
                tally.decided += 1;
                tally.admitted += 1;
                tally.revenue += pay;
            }
            BATCH_REJECT => tally.decided += 1,
            _ => tally.failed += 1,
        }
    }
    tally
}

/// The pre-encoded single-frame stream of the paced driver.
#[derive(Debug, Clone)]
pub struct PacedPlan {
    lines: Vec<String>,
    payments: Vec<f64>,
    snapshot_line: String,
    snapshot_every: usize,
}

impl PacedPlan {
    /// Encodes `requests` as v2 submit lines, with a `snapshot` control
    /// after every `snapshot_every` submits (0 = never).
    pub fn new(requests: &[Request], snapshot_every: usize) -> Self {
        PacedPlan {
            lines: requests
                .iter()
                .map(|r| encode_submit_line(&submit_of(r)))
                .collect(),
            payments: requests.iter().map(Request::payment).collect(),
            snapshot_line: encode_control_line(Control::Snapshot),
            snapshot_every,
        }
    }

    /// Requests in the plan.
    pub fn requests(&self) -> usize {
        self.lines.len()
    }

    /// The plan's first `requests` requests, without snapshots.
    pub fn head(&self, requests: usize) -> PacedPlan {
        PacedPlan {
            lines: self.lines[..requests].to_vec(),
            payments: self.payments[..requests].to_vec(),
            snapshot_line: self.snapshot_line.clone(),
            snapshot_every: 0,
        }
    }

    // Snapshot controls sent mid-stream (none follows the last submit).
    fn snapshots(&self) -> usize {
        // `snapshot_every == 0` means never.
        (self.lines.len().saturating_sub(1))
            .checked_div(self.snapshot_every)
            .unwrap_or(0)
    }
}

/// Reusable buffers of the paced driver.
#[derive(Debug, Default)]
pub struct PacedBuffers {
    /// Seconds from due time to reply read, per request, in reply order.
    pub latency: Vec<f64>,
    /// Seconds the generator ran behind the due time, per request.
    pub lag: Vec<f64>,
    /// `(due, reply read)` per request, in reply order.
    pub stamps: Vec<(Instant, Instant)>,
    admitted: Vec<bool>,
    inbox: Vec<u8>,
}

/// How long after the last request fell due the paced driver still waits
/// for replies before it counts the rest as unanswered.
const PACED_GRACE: Duration = Duration::from_secs(2);

// `write_all` for a non-blocking socket: a full send buffer is waited
// out until `give_up` (it never fills here: lines are ~100 bytes, replies
// are drained).
fn write_all_polling(stream: &mut TcpStream, mut bytes: &[u8], give_up: Instant) -> bool {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return false,
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= give_up {
                    return false;
                }
                std::hint::spin_loop();
            }
            Err(_) => return false,
        }
    }
    true
}

/// Drives `plan` open-loop at `rate` requests per second.
///
/// One generator thread, in the **idle scheduling class**, polls: when a
/// request is due it writes it, otherwise it reads whatever replies have
/// arrived. It never sleeps, so — with the daemon pinned to the same CPU
/// (see `host::pin_to_last_cpu`) — that CPU never halts and no wake-up
/// crosses the hypervisor; being idle-class, it is preempted the moment a
/// daemon thread becomes runnable and gets the CPU back exactly when the
/// daemon has nothing left to do. Latency is therefore the daemon's
/// service time from the request's *due* time, not the host's wake-up
/// cost, which on a shared VM switches between ~4 µs and ~30 µs per
/// wake-up for minutes at a time.
///
/// The socket is non-blocking, so its read timeout does not apply: the
/// loop gives up [`PACED_GRACE`] after the last due time, and whatever is
/// still unanswered then — decisions or snapshot acks — counts as failed.
pub fn drive_paced(conn: &mut Conn, plan: &PacedPlan, rate: f64, buf: &mut PacedBuffers) -> Tally {
    let n = plan.requests();
    let interval = 1.0 / rate;
    buf.latency.clear();
    buf.lag.clear();
    buf.stamps.clear();
    buf.admitted.clear();
    buf.admitted.resize(n, false);
    buf.inbox.clear();
    let snapshots = plan.snapshots();
    let expected = n + snapshots;
    conn.writer
        .set_nonblocking(true)
        .expect("non-blocking socket");

    let stream = &mut conn.writer;
    let (decided, acked, started, finished, gen_cpu_s) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let idle = host::become_idle_priority();
                debug_assert!(idle, "the idle scheduling class needs no privilege");
                let cpu0 = host::thread_cpu_s();
                let started = Instant::now() + Duration::from_micros(200);
                let due = |i: usize| started + Duration::from_secs_f64(i as f64 * interval);
                let give_up = due(n) + PACED_GRACE;
                let (mut next, mut seen, mut decided, mut acked) = (0usize, 0usize, 0usize, 0usize);
                let mut finished = started;
                let mut chunk = [0u8; 16 * 1024];
                'run: while seen < expected {
                    let now = Instant::now();
                    if now >= give_up {
                        break 'run;
                    }
                    if next < n && now >= due(next) {
                        buf.lag.push((now - due(next)).as_secs_f64());
                        let mut ok =
                            write_all_polling(stream, plan.lines[next].as_bytes(), give_up);
                        next += 1;
                        // Not after the last submit: shutdown snapshots anyway.
                        if plan.snapshot_every > 0 && next % plan.snapshot_every == 0 && next < n {
                            ok &= write_all_polling(stream, plan.snapshot_line.as_bytes(), give_up);
                        }
                        if !ok {
                            break 'run;
                        }
                        continue;
                    }
                    match stream.read(&mut chunk) {
                        Ok(0) => break 'run,
                        Ok(k) => buf.inbox.extend_from_slice(&chunk[..k]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::hint::spin_loop();
                            continue;
                        }
                        Err(_) => break 'run,
                    }
                    let now = Instant::now();
                    let mut consumed = 0;
                    while let Some(len) = buf.inbox[consumed..].iter().position(|&b| b == b'\n') {
                        let line = std::str::from_utf8(&buf.inbox[consumed..consumed + len]);
                        consumed += len + 1;
                        seen += 1;
                        match line.map(parse_reply) {
                            Ok(Reply::Decision { id, admitted }) if id < n => {
                                let at = due(id);
                                buf.latency
                                    .push(now.saturating_duration_since(at).as_secs_f64());
                                buf.stamps.push((at, now));
                                buf.admitted[id] = admitted;
                                decided += 1;
                                finished = now;
                            }
                            Ok(Reply::Ack(_)) => acked += 1,
                            // An error reply answers nothing: its request
                            // or snapshot stays undecided or unacked.
                            _ => {}
                        }
                    }
                    buf.inbox.drain(..consumed);
                }
                (
                    decided,
                    acked,
                    started,
                    finished,
                    host::thread_cpu_s() - cpu0,
                )
            })
            .join()
            .expect("paced generator thread panicked")
    });
    conn.writer.set_nonblocking(false).expect("blocking socket");

    let mut tally = Tally {
        sent: n,
        decided,
        admitted: 0,
        // Anything not decided was shed, refused or never answered; so
        // was a snapshot without its ack.
        failed: (n.saturating_sub(decided) + snapshots.saturating_sub(acked)).min(n),
        revenue: 0.0,
        started,
        finished,
        gen_cpu_s,
    };
    for (&adm, &pay) in buf.admitted.iter().zip(&plan.payments) {
        if adm {
            tally.admitted += 1;
            tally.revenue += pay;
        }
    }
    tally
}

/// Drives `plan` closed-loop — one request outstanding — pushing each
/// round trip's seconds onto `rtts`; returns how many requests failed.
pub fn drive_closed(conn: &mut Conn, plan: &PacedPlan, rtts: &mut Vec<f64>) -> usize {
    let mut line = String::new();
    let mut failed = 0;
    for submit in &plan.lines {
        let start = Instant::now();
        if conn.writer.write_all(submit.as_bytes()).is_err() {
            return plan.requests() - rtts.len();
        }
        line.clear();
        match conn.reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => return plan.requests() - rtts.len(),
        }
        rtts.push(start.elapsed().as_secs_f64());
        if !matches!(parse_reply(line.trim_end()), Reply::Decision { .. }) {
            failed += 1;
        }
    }
    failed
}
