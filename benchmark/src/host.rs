//! Host normalisation and the few facts about the host a result needs.
//!
//! [`HostClock::around`] runs one lap set (eight laps) immediately before
//! and after a timed region, on the calling (generator) thread, and
//! returns a [`Bracket`] whose [`Bracket::speed`] converts the region's
//! raw seconds into *host-normalised seconds*:
//! `t × REF_NOMINAL ÷ mean(ref_before, ref_after)`.

use std::time::Instant;

use crate::reflap::{LapInput, COPIES, LAP_COPIES, LAP_DIGEST};
use crate::stats;

/// The reference lap's favourable-decile time, in microseconds, over a
/// five-minute capture on the defining host (2 vCPU Intel Xeon
/// @ 2.10GHz, Linux 6.18, rustc 1.95.0; `calibrate` subcommand). Fixed:
/// it only sets the unit in which normalised times are expressed.
pub const REF_NOMINAL_US: f64 = 635.4;

/// The reference-lap reading around one timed region.
#[derive(Debug, Clone, Copy)]
pub struct Bracket {
    /// Mean of the before and after lap medians, seconds per lap.
    pub ref_s: f64,
}

impl Bracket {
    /// Host speed relative to nominal (1 = nominal, below 1 = slower):
    /// multiply raw seconds by it to get normalised seconds.
    pub fn speed(&self) -> f64 {
        REF_NOMINAL_US * 1e-6 / self.ref_s
    }
}

/// Runs reference laps and keeps every reading for the `run.*` metrics.
#[derive(Debug)]
pub struct HostClock {
    input: LapInput,
    /// Every lap-set median taken so far, seconds.
    pub readings: Vec<f64>,
}

impl Default for HostClock {
    fn default() -> Self {
        Self::new()
    }
}

impl HostClock {
    /// Builds the frozen input and checks one lap against the pinned
    /// digest, so a miscompiled or edited yardstick cannot go unnoticed.
    ///
    /// # Panics
    ///
    /// Panics if the lap's output digest differs from [`LAP_DIGEST`].
    pub fn new() -> Self {
        let input = LapInput::frozen();
        for lap in LAP_COPIES {
            assert_eq!(
                lap(&input).digest(),
                LAP_DIGEST,
                "reference lap output changed: the yardstick is frozen"
            );
        }
        HostClock {
            input,
            readings: Vec::with_capacity(4096),
        }
    }

    /// Median seconds of one lap set: each copy of the lap once.
    pub fn laps(&mut self) -> f64 {
        let mut times = [0.0f64; COPIES];
        for (t, lap) in times.iter_mut().zip(LAP_COPIES) {
            let start = Instant::now();
            std::hint::black_box(lap(std::hint::black_box(&self.input)));
            *t = start.elapsed().as_secs_f64();
        }
        let m = stats::median(&mut times);
        self.readings.push(m);
        m
    }

    /// Runs `f` between two lap sets.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, Bracket) {
        let before = self.laps();
        let out = f();
        let after = self.laps();
        (
            out,
            Bracket {
                ref_s: 0.5 * (before + after),
            },
        )
    }
}

// ---------------------------------------------------------------------
// Process facts std has no safe call for.
// ---------------------------------------------------------------------

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SCHED_IDLE: i32 = 5;

/// What glibc's allocator does with freed memory. Left alone it adapts
/// both thresholds to the largest block freed so far, which makes
/// `peak_rss_mb` jump by 5–10 % with byte-level details of the seed's
/// stream (exactly repeatable per seed: 19.0 or 20.5 MiB). Setting
/// either threshold switches the adaptation off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreedMemory {
    /// Blocks of 128 KiB and more are mapped on their own and unmapped
    /// when freed (glibc's start-up values). For the cold set-up
    /// samples: each pays for fresh pages, as a fresh process does, and
    /// leaves nothing behind, so the peak is the peak of live memory.
    Returned,
    /// Nothing is mapped on its own and the heap is not trimmed (what
    /// the adaptation converges to in a long-running process). For the
    /// repetitions: none pays `mmap`/`munmap` and page faults for the
    /// result vectors it allocates, as the hundredth run of a sweep
    /// does not.
    Kept,
}

/// Fixes the allocator's thresholds from here on.
pub fn set_freed_memory(policy: FreedMemory) {
    let (mmap, trim) = match policy {
        FreedMemory::Returned => (128 << 10, 128 << 10),
        FreedMemory::Kept => (32 << 20, 64 << 20),
    };
    // SAFETY: `mallopt` only stores the two tunables; it may be called
    // at any time and from any thread. A refusal (return 0) leaves the
    // allocator as it was, which costs steadiness, not correctness.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, mmap);
        mallopt(M_TRIM_THRESHOLD, trim);
    }
}

fn cpu_clock(id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two C longs on
    // 64-bit Linux, the only target this benchmark builds for) and both
    // clock ids are constants the kernel defines for every process.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds (user + system) consumed so far by every thread of this
/// process, exited ones included.
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds consumed so far by the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Moves the calling thread to the idle scheduling class: it runs only
/// while nothing else is runnable on its CPU and is preempted the moment
/// anything is. Lowering one's own priority needs no privilege.
pub fn become_idle_priority() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid `sched_param`; pid 0 names the calling
    // thread, whose own policy it may always lower.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// The calling thread pinned to one CPU; dropping it restores the mask
/// the thread had before.
#[derive(Debug)]
pub struct Pinned {
    /// The CPU the thread is pinned to.
    pub cpu: usize,
    previous: CpuSet,
}

/// Pins the calling thread — and every thread it spawns while pinned,
/// which inherit the mask — to the highest-numbered CPU it is allowed
/// on. `None` if the kernel refused.
pub fn pin_to_last_cpu() -> Option<Pinned> {
    let mut previous: CpuSet = [0; 16];
    // SAFETY: `previous` is a writable 128-byte buffer, the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut previous) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| previous[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid 128-byte CPU set naming a CPU the thread
    // is already allowed on.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0)
        .then_some(Pinned { cpu, previous })
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: `previous` is the mask the kernel reported for this
        // thread, so it is a valid set to return to. Failure is ignored:
        // the thread merely stays pinned.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.previous) };
    }
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| {
            v.split_whitespace()
                .next()
                .and_then(|n| n.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What produced a result: stamped on every run.
#[derive(Debug, Clone)]
pub struct HostStamp {
    /// `std::thread::available_parallelism`.
    pub host_cpus: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: String,
    /// Git commit of the checkout, or `unknown` outside a repository.
    pub commit: String,
}

impl HostStamp {
    /// Reads the stamp; missing facts read `unknown`.
    pub fn read() -> Self {
        let unknown = || "unknown".to_string();
        HostStamp {
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_string()),
            rustc: env!("VNFREL_BENCH_RUSTC").to_string(),
            commit: git_commit().unwrap_or_else(unknown),
        }
    }
}

// Resolves HEAD by reading `.git` directly (no `git` process): the
// driver's checkout is not a repository, and then this is `None`.
fn git_commit() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git/HEAD");
        if let Ok(text) = std::fs::read_to_string(&head) {
            let text = text.trim();
            return match text.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(dir.join(".git").join(r))
                    .ok()
                    .map(|s| s.trim().to_string()),
                None => Some(text.to_string()),
            };
        }
        if !dir.pop() {
            return None;
        }
    }
}
