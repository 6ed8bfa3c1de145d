//! Deterministic, seeded chaos injection for the serving tier.
//!
//! Mirrors the replay-safe design of `mec-sim`'s `FailureProcess`: a
//! [`ChaosPlan`] is a **fully materialized fault schedule** drawn from a
//! seed with a fixed draw order, so a given `(seed, config)` always
//! yields the byte-identical schedule — independent of timing, thread
//! interleaving, or how much of the schedule a run actually consumes.
//!
//! Three injection families share one plan:
//!
//! - **network** — [`ChaosProxy`], an in-process TCP proxy interposed on
//!   the loadgen↔primary or primary↔standby link. Per forwarded frame it
//!   consults the plan and either forwards, delays, drops (swallows the
//!   frame and closes, forcing the idempotent client to resubmit),
//!   truncates (a torn frame followed by a close), stalls (slow-loris
//!   trickle of the frame bytes), or partitions (refuses all connections
//!   for a window).
//! - **disk** — [`SnapshotIo`], a seam over the write-temp/fsync/rename
//!   sequence in [`crate::snapshot::Snapshot::save`]. The production
//!   implementation [`RealSnapshotIo`] is a no-op; [`ChaosSnapshotIo`]
//!   fails a scheduled save attempt at a scheduled [`SnapshotStep`]
//!   boundary and counts coverage per boundary.
//! - **process** — the `chaos-panic <shard>` control frame (see
//!   [`crate::protocol::ControlAction::ChaosPanic`]) kills a lane's
//!   decide thread mid-stream; the lane's supervisor in
//!   [`crate::daemon`] is expected to heal it.
//!
//! The module also hosts the shared full-jitter backoff helper used by
//! the replication sender and the loadgen.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::flight::SharedFlight;
use mec_obs::TraceEvent;

// ---------------------------------------------------------------------------
// Seeded draws
// ---------------------------------------------------------------------------

/// One step of the splitmix64 sequence: a high-quality 64-bit mix.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a seed to a uniform fraction in `[0, 1)` (splitmix64-mixed).
///
/// Deterministic — the same seed always yields the same fraction — so
/// backoff sequences built from it are replayable.
pub fn jitter_frac(seed: u64) -> f64 {
    let mut s = seed;
    let z = splitmix64(&mut s);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Capped exponential backoff with **full jitter**: the delay for
/// `attempt` (0-based) is uniform in `[0, min(max, min·2^attempt))`.
///
/// `salt` decorrelates independent backoff sequences (e.g. two senders)
/// while keeping each sequence deterministic.
pub fn full_jitter_backoff(min: Duration, max: Duration, attempt: u32, salt: u64) -> Duration {
    let cap = min
        .saturating_mul(1u32 << attempt.min(16))
        .min(max)
        .max(min);
    cap.mul_f64(jitter_frac(
        salt.wrapping_mul(0x9e37_79b9)
            .wrapping_add(u64::from(attempt)),
    ))
}

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

/// Per-frame network fault drawn by a [`ChaosPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Forward the frame unchanged.
    Forward,
    /// Swallow the frame and close the connection (the client must
    /// reconnect and resubmit; idempotence is what keeps this safe).
    Drop,
    /// Forward the frame after a fixed delay.
    Delay(u64),
    /// Forward a torn prefix of the frame, then close.
    Truncate,
    /// Slow-loris: trickle the frame bytes over roughly this many
    /// milliseconds, then complete it.
    Stall(u64),
    /// Partition the link: close this connection and refuse all new
    /// ones for this many milliseconds.
    Partition(u64),
}

impl NetFault {
    /// Stable name used in schedules and trace details.
    pub fn as_str(self) -> &'static str {
        match self {
            NetFault::Forward => "forward",
            NetFault::Drop => "drop",
            NetFault::Delay(_) => "delay",
            NetFault::Truncate => "truncate",
            NetFault::Stall(_) => "stall",
            NetFault::Partition(_) => "partition",
        }
    }
}

/// A boundary in the snapshot write-temp/fsync/rename sequence where
/// the disk seam can inject a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotStep {
    /// Before creating the temp file.
    Create,
    /// Before writing the encoded snapshot bytes.
    WriteAll,
    /// After the temp write completed, before fsync.
    PostTempWrite,
    /// Before fsync.
    Fsync,
    /// After fsync succeeded, before the atomic rename.
    PostFsyncPreRename,
    /// Before the atomic rename itself.
    Rename,
}

impl SnapshotStep {
    /// Every boundary, in sequence order.
    pub const ALL: [SnapshotStep; 6] = [
        SnapshotStep::Create,
        SnapshotStep::WriteAll,
        SnapshotStep::PostTempWrite,
        SnapshotStep::Fsync,
        SnapshotStep::PostFsyncPreRename,
        SnapshotStep::Rename,
    ];

    /// Stable name used in schedules, errors, and coverage reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SnapshotStep::Create => "create",
            SnapshotStep::WriteAll => "write-all",
            SnapshotStep::PostTempWrite => "post-temp-write",
            SnapshotStep::Fsync => "fsync",
            SnapshotStep::PostFsyncPreRename => "post-fsync-pre-rename",
            SnapshotStep::Rename => "rename",
        }
    }

    fn index(self) -> usize {
        match self {
            SnapshotStep::Create => 0,
            SnapshotStep::WriteAll => 1,
            SnapshotStep::PostTempWrite => 2,
            SnapshotStep::Fsync => 3,
            SnapshotStep::PostFsyncPreRename => 4,
            SnapshotStep::Rename => 5,
        }
    }
}

/// Fault-rate knobs for a [`ChaosPlan`], in parts-per-1024 so the
/// schedule is drawn with pure integer arithmetic (byte-stable across
/// platforms). The per-fault durations are fixed (not drawn).
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// P(drop) per frame, in 1/1024 units.
    pub drop_ppk: u32,
    /// P(delay) per frame, in 1/1024 units.
    pub delay_ppk: u32,
    /// P(truncate) per frame, in 1/1024 units.
    pub truncate_ppk: u32,
    /// P(stall) per frame, in 1/1024 units.
    pub stall_ppk: u32,
    /// P(partition) per frame, in 1/1024 units.
    pub partition_ppk: u32,
    /// Delay duration, milliseconds.
    pub delay_ms: u64,
    /// Stall (slow-loris) duration, milliseconds.
    pub stall_ms: u64,
    /// Partition window, milliseconds.
    pub partition_ms: u64,
    /// P(a snapshot save attempt fails) in 1/1024 units; the failing
    /// boundary is drawn uniformly from [`SnapshotStep::ALL`].
    pub disk_fail_ppk: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            drop_ppk: 40,
            delay_ppk: 64,
            truncate_ppk: 24,
            stall_ppk: 16,
            partition_ppk: 6,
            delay_ms: 5,
            stall_ms: 40,
            partition_ms: 250,
            disk_fail_ppk: 512,
        }
    }
}

/// Connections covered by the materialized network schedule; later
/// connections are forwarded unfaulted.
const NET_CONNS: usize = 96;
/// Frames per connection covered by the materialized schedule.
const NET_FRAMES: usize = 512;
/// Snapshot save attempts covered by the materialized disk schedule.
const DISK_ATTEMPTS: usize = 64;

/// A fully materialized, deterministic chaos schedule.
///
/// Draw order is fixed — all network cells in `(conn, frame)` order,
/// then all disk attempts — so `(seed, config)` fully determines the
/// schedule ([`ChaosPlan::schedule_text`] is byte-identical for equal
/// seeds; see the property tests).
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    seed: u64,
    config: ChaosConfig,
    net: Vec<NetFault>,
    disk: Vec<Option<SnapshotStep>>,
}

impl ChaosPlan {
    /// Materializes the schedule for `seed` under `config`.
    pub fn new(seed: u64, config: ChaosConfig) -> Self {
        let mut state = seed ^ 0x6368_616f_735f_7631; // "chaos_v1"
        let mut net = Vec::with_capacity(NET_CONNS * NET_FRAMES);
        let c = &config;
        let t_drop = c.drop_ppk;
        let t_delay = t_drop + c.delay_ppk;
        let t_trunc = t_delay + c.truncate_ppk;
        let t_stall = t_trunc + c.stall_ppk;
        let t_part = t_stall + c.partition_ppk;
        for _conn in 0..NET_CONNS {
            for _frame in 0..NET_FRAMES {
                let r = (splitmix64(&mut state) % 1024) as u32;
                let fault = if r < t_drop {
                    NetFault::Drop
                } else if r < t_delay {
                    NetFault::Delay(c.delay_ms)
                } else if r < t_trunc {
                    NetFault::Truncate
                } else if r < t_stall {
                    NetFault::Stall(c.stall_ms)
                } else if r < t_part {
                    NetFault::Partition(c.partition_ms)
                } else {
                    NetFault::Forward
                };
                net.push(fault);
            }
        }
        let mut disk = Vec::with_capacity(DISK_ATTEMPTS);
        for _attempt in 0..DISK_ATTEMPTS {
            let fail = ((splitmix64(&mut state) % 1024) as u32) < c.disk_fail_ppk;
            let step = (splitmix64(&mut state) % 6) as usize;
            disk.push(if fail {
                Some(SnapshotStep::ALL[step])
            } else {
                None
            });
        }
        ChaosPlan {
            seed,
            config,
            net,
            disk,
        }
    }

    /// The seed the schedule was drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The config the schedule was drawn under.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Derives an independent plan for another link from the same seed
    /// (e.g. the primary↔standby link next to the loadgen↔primary one).
    pub fn derive(&self, salt: u64) -> ChaosPlan {
        let mut s = self.seed ^ salt;
        ChaosPlan::new(splitmix64(&mut s), self.config)
    }

    /// The fault for frame `frame` of connection `conn`; out-of-schedule
    /// cells forward unfaulted.
    pub fn net_fault(&self, conn: usize, frame: usize) -> NetFault {
        if conn < NET_CONNS && frame < NET_FRAMES {
            self.net[conn * NET_FRAMES + frame]
        } else {
            NetFault::Forward
        }
    }

    /// The boundary at which snapshot save attempt `attempt` (0-based)
    /// should fail, or `None` for a clean save. Out-of-schedule attempts
    /// are clean.
    pub fn disk_fault(&self, attempt: usize) -> Option<SnapshotStep> {
        self.disk.get(attempt).copied().flatten()
    }

    /// Renders the full materialized schedule as text. Two plans built
    /// from the same `(seed, config)` render byte-identically; this is
    /// the replay-safety contract the property tests pin.
    pub fn schedule_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("chaos-plan seed={}\n", self.seed));
        for conn in 0..NET_CONNS {
            for frame in 0..NET_FRAMES {
                let f = self.net[conn * NET_FRAMES + frame];
                if f != NetFault::Forward {
                    out.push_str(&format!("net conn={conn} frame={frame} {}\n", f.as_str()));
                }
            }
        }
        for (attempt, step) in self.disk.iter().enumerate() {
            if let Some(step) = step {
                out.push_str(&format!("disk attempt={attempt} {}\n", step.as_str()));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Disk seam
// ---------------------------------------------------------------------------

/// Injection seam over the snapshot write-temp/fsync/rename sequence.
///
/// [`crate::snapshot::Snapshot::save_with`] calls [`SnapshotIo::fault`]
/// at every [`SnapshotStep`] boundary; returning an error aborts the
/// save at exactly that boundary, leaving whatever the real sequence
/// had produced so far on disk (which is what makes the crash-
/// consistency claim testable).
pub trait SnapshotIo: Send + Sync + std::fmt::Debug {
    /// Consulted at each boundary; `Err` aborts the save there.
    fn fault(&self, step: SnapshotStep) -> io::Result<()>;
}

/// The production seam: never faults.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealSnapshotIo;

impl SnapshotIo for RealSnapshotIo {
    fn fault(&self, _step: SnapshotStep) -> io::Result<()> {
        Ok(())
    }
}

/// A seam that fails save attempts per a [`ChaosPlan`]'s disk schedule,
/// counting coverage per boundary.
#[derive(Debug)]
pub struct ChaosSnapshotIo {
    disk: Vec<Option<SnapshotStep>>,
    attempt: AtomicU64,
    armed: AtomicBool,
    injected: AtomicU64,
    coverage: [AtomicU64; 6],
}

impl ChaosSnapshotIo {
    /// Builds the seam from `plan`'s disk schedule, armed.
    pub fn new(plan: &ChaosPlan) -> Arc<Self> {
        Arc::new(ChaosSnapshotIo {
            disk: plan.disk.clone(),
            attempt: AtomicU64::new(0),
            armed: AtomicBool::new(true),
            injected: AtomicU64::new(0),
            coverage: Default::default(),
        })
    }

    /// Stops injecting (e.g. so a final shutdown snapshot succeeds).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Faults injected per boundary, indexed like [`SnapshotStep::ALL`].
    pub fn coverage(&self) -> [u64; 6] {
        let mut out = [0; 6];
        for (o, c) in out.iter_mut().zip(self.coverage.iter()) {
            *o = c.load(Ordering::SeqCst);
        }
        out
    }
}

impl SnapshotIo for ChaosSnapshotIo {
    fn fault(&self, step: SnapshotStep) -> io::Result<()> {
        // A save attempt starts at its first boundary.
        let attempt = if step == SnapshotStep::Create {
            self.attempt.fetch_add(1, Ordering::SeqCst)
        } else {
            self.attempt.load(Ordering::SeqCst).saturating_sub(1)
        };
        if !self.armed.load(Ordering::SeqCst) {
            return Ok(());
        }
        match self.disk.get(attempt as usize).copied().flatten() {
            Some(planned) if planned == step => {
                self.coverage[step.index()].fetch_add(1, Ordering::SeqCst);
                self.injected.fetch_add(1, Ordering::SeqCst);
                Err(io::Error::other(format!(
                    "chaos: injected snapshot fault at {} (attempt {attempt})",
                    step.as_str()
                )))
            }
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Network proxy
// ---------------------------------------------------------------------------

/// How long connection pumps wait on a read before re-checking stop.
const PROXY_POLL: Duration = Duration::from_millis(25);

struct ProxyShared {
    plan: ChaosPlan,
    stop: AtomicBool,
    partition_until: Mutex<Option<Instant>>,
    injected: AtomicU64,
    flight: Option<SharedFlight>,
}

impl ProxyShared {
    fn record(&self, detail: String) {
        self.injected.fetch_add(1, Ordering::SeqCst);
        if let Some(f) = &self.flight {
            f.record(TraceEvent::ChaosFault {
                family: "network".to_string(),
                detail,
            });
        }
    }

    fn partitioned(&self) -> bool {
        let guard = self
            .partition_until
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        matches!(*guard, Some(t) if Instant::now() < t)
    }
}

/// An in-process chaos proxy: listens on an ephemeral loopback port and
/// forwards line-delimited frames to `upstream`, injecting the plan's
/// network faults on the client→upstream direction. Replies stream back
/// unfaulted; closing is the proxy's loss model (TCP has no silent
/// drops above the socket API, so a "dropped" frame surfaces to the
/// client as a closed connection, exercising reconnect + idempotent
/// resubmit).
pub struct ChaosProxy {
    local: SocketAddr,
    shared: Arc<ProxyShared>,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("local", &self.local)
            .field("injected", &self.injected())
            .finish_non_exhaustive()
    }
}

impl ChaosProxy {
    /// Spawns the proxy. Frames injected with faults are recorded to
    /// `flight` (as `chaos-fault` trace events) when provided.
    pub fn spawn(
        upstream: SocketAddr,
        plan: ChaosPlan,
        flight: Option<SharedFlight>,
    ) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(ProxyShared {
            plan,
            stop: AtomicBool::new(false),
            partition_until: Mutex::new(None),
            injected: AtomicU64::new(0),
            flight,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::spawn(move || {
            let mut conn_idx = 0usize;
            while !accept_shared.stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((down, _)) => {
                        if accept_shared.partitioned() {
                            // Refuse service for the partition window.
                            drop(down);
                            continue;
                        }
                        let conn = conn_idx;
                        conn_idx += 1;
                        let shared = Arc::clone(&accept_shared);
                        thread::spawn(move || pump_conn(conn, down, upstream, &shared));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(ChaosProxy {
            local,
            shared,
            accept: Some(accept),
        })
    }

    /// The proxy's listen address (point clients here).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.shared.injected.load(Ordering::SeqCst)
    }

    /// Stops accepting and joins the accept thread. Established
    /// connection pumps notice the stop flag within their poll interval.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Forwards one downstream connection, injecting per-frame faults.
fn pump_conn(conn: usize, down: TcpStream, upstream: SocketAddr, shared: &Arc<ProxyShared>) {
    let Ok(up) = TcpStream::connect_timeout(&upstream, Duration::from_millis(500)) else {
        return;
    };
    let _ = down.set_read_timeout(Some(PROXY_POLL));
    let _ = up.set_read_timeout(Some(PROXY_POLL));
    let _ = down.set_nodelay(true);
    let _ = up.set_nodelay(true);

    // Upstream → downstream: a plain byte pump so replies stream back
    // unfaulted. Exits on either side closing or the stop flag.
    let up_read = match up.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let down_write = match down.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let reply_shared = Arc::clone(shared);
    let reply_pump = thread::spawn(move || {
        let mut up_read = up_read;
        let mut down_write = down_write;
        let mut buf = [0u8; 4096];
        loop {
            if reply_shared.stop.load(Ordering::SeqCst) {
                return;
            }
            match up_read.read(&mut buf) {
                Ok(0) => return,
                Ok(n) => {
                    if down_write.write_all(&buf[..n]).is_err() {
                        return;
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => return,
            }
        }
    });

    let down_ctl = down.try_clone();
    forward_frames(conn, down, &up, shared);
    // Shut both sockets down explicitly: the reply pump still holds
    // clones, and a clone keeps the underlying socket open — without
    // this the peer of a "dropped" connection would block forever
    // instead of observing the close.
    let _ = up.shutdown(std::net::Shutdown::Both);
    if let Ok(d) = down_ctl {
        let _ = d.shutdown(std::net::Shutdown::Both);
    }
    let _ = reply_pump.join();
}

/// Reads line frames from `down` and forwards them to `up` per plan.
fn forward_frames(conn: usize, mut down: TcpStream, up: &TcpStream, shared: &Arc<ProxyShared>) {
    let mut up = up;
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let mut frame_idx = 0usize;
    loop {
        // Forward any complete frames already buffered.
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let frame: Vec<u8> = buf.drain(..=pos).collect();
            let fault = shared.plan.net_fault(conn, frame_idx);
            frame_idx += 1;
            match fault {
                NetFault::Forward => {
                    if up.write_all(&frame).is_err() {
                        return;
                    }
                }
                NetFault::Delay(ms) => {
                    shared.record(format!("delay conn={conn} frame={} ms={ms}", frame_idx - 1));
                    thread::sleep(Duration::from_millis(ms));
                    if up.write_all(&frame).is_err() {
                        return;
                    }
                }
                NetFault::Drop => {
                    shared.record(format!("drop conn={conn} frame={}", frame_idx - 1));
                    return;
                }
                NetFault::Truncate => {
                    shared.record(format!("truncate conn={conn} frame={}", frame_idx - 1));
                    let torn = &frame[..frame.len().saturating_sub(1) / 2];
                    let _ = up.write_all(torn);
                    return;
                }
                NetFault::Stall(ms) => {
                    shared.record(format!("stall conn={conn} frame={} ms={ms}", frame_idx - 1));
                    let steps = 8u64;
                    let chunk_len = frame.len().div_ceil(steps as usize);
                    for piece in frame.chunks(chunk_len.max(1)) {
                        if up.write_all(piece).is_err() {
                            return;
                        }
                        let _ = up.flush();
                        thread::sleep(Duration::from_millis(ms / steps));
                    }
                }
                NetFault::Partition(ms) => {
                    shared.record(format!(
                        "partition conn={conn} frame={} ms={ms}",
                        frame_idx - 1
                    ));
                    let until = Instant::now() + Duration::from_millis(ms);
                    let mut guard = shared
                        .partition_until
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    *guard = Some(until);
                    return;
                }
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match down.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_schedules() {
        let a = ChaosPlan::new(42, ChaosConfig::default());
        let b = ChaosPlan::new(42, ChaosConfig::default());
        assert_eq!(a.schedule_text(), b.schedule_text());
        assert_ne!(
            a.schedule_text(),
            ChaosPlan::new(43, ChaosConfig::default()).schedule_text()
        );
    }

    #[test]
    fn derived_plans_differ_but_are_deterministic() {
        let base = ChaosPlan::new(7, ChaosConfig::default());
        let a = base.derive(1);
        let b = base.derive(1);
        assert_eq!(a.schedule_text(), b.schedule_text());
        assert_ne!(a.schedule_text(), base.schedule_text());
    }

    #[test]
    fn out_of_schedule_cells_forward() {
        let plan = ChaosPlan::new(1, ChaosConfig::default());
        assert_eq!(plan.net_fault(NET_CONNS, 0), NetFault::Forward);
        assert_eq!(plan.net_fault(0, NET_FRAMES), NetFault::Forward);
        assert_eq!(plan.disk_fault(DISK_ATTEMPTS + 3), None);
    }

    #[test]
    fn every_snapshot_step_reachable_across_seeds() {
        let mut hit = [false; 6];
        for seed in 0..64u64 {
            let plan = ChaosPlan::new(seed, ChaosConfig::default());
            for attempt in 0..DISK_ATTEMPTS {
                if let Some(step) = plan.disk_fault(attempt) {
                    hit[step.index()] = true;
                }
            }
        }
        assert_eq!(hit, [true; 6], "some snapshot boundary unreachable");
    }

    #[test]
    fn full_jitter_is_capped_and_deterministic() {
        let min = Duration::from_millis(50);
        let max = Duration::from_secs(2);
        for attempt in 0..20 {
            let d = full_jitter_backoff(min, max, attempt, 9);
            assert!(d <= max);
            assert_eq!(d, full_jitter_backoff(min, max, attempt, 9));
        }
        // Different salts decorrelate.
        let spread: Vec<Duration> = (0..8)
            .map(|salt| full_jitter_backoff(min, max, 6, salt))
            .collect();
        assert!(spread.iter().any(|d| *d != spread[0]));
    }

    #[test]
    fn chaos_snapshot_io_injects_per_plan() {
        let config = ChaosConfig {
            disk_fail_ppk: 1024, // every attempt fails
            ..ChaosConfig::default()
        };
        let plan = ChaosPlan::new(5, config);
        let seam = ChaosSnapshotIo::new(&plan);
        for attempt in 0..DISK_ATTEMPTS {
            let planned = plan.disk_fault(attempt).expect("all attempts fail");
            let mut failed_at = None;
            for step in SnapshotStep::ALL {
                if let Err(e) = seam.fault(step) {
                    assert!(e.to_string().contains(planned.as_str()));
                    failed_at = Some(step);
                    break;
                }
            }
            assert_eq!(failed_at, Some(planned));
        }
        assert_eq!(seam.injected(), DISK_ATTEMPTS as u64);
        assert_eq!(seam.coverage().iter().sum::<u64>(), DISK_ATTEMPTS as u64);
        seam.disarm();
        for step in SnapshotStep::ALL {
            assert!(seam.fault(step).is_ok());
        }
    }
}
