//! Steady-state allocation audit for the batched serving hot path.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after
//! one warm-up pass sizes the reusable buffers, a thousand
//! encode → parse → reply-encode → reply-parse cycles over max-size
//! batches — each cycle also timing its stages into the disabled
//! `NoopSink` tracing path — must perform **zero** heap allocations.
//! This pins the protocol-v3 contract the open-loop throughput numbers
//! depend on (per-request serving cost is CPU, not allocator traffic)
//! and the zero-overhead claim of the stage-span instrumentation.
//!
//! The second test carries the audit through a live daemon: the same
//! frames through socket, worker, lane queue, `decide()` and reply
//! buffer of an in-process one-lane daemon must allocate per *frame*,
//! never per decision. The third pins what one v2 single-request line
//! costs through the same daemon.
//!
//! The tests share one lock so none allocates inside another's
//! measured window.

#[path = "serve_common.rs"]
mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mec_obs::{record_stage, NoopSink, PipelineStage, StageClock};
use mec_serve::{
    encode_batch_into, encode_batch_reply_into, encode_client, parse_batch_into,
    parse_batch_reply_into, ClientMsg, ControlAction, LineClient, SubmitRequest, BATCH_ADMIT,
    BATCH_OVERLOAD, BATCH_REJECT, MAX_BATCH,
};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` for every operation; the counter is a
// relaxed atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

// One measured window at a time.
static MEASURING: Mutex<()> = Mutex::new(());

#[test]
fn steady_state_batch_codec_is_allocation_free() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    // Max-size batch with floats that take the non-integral (`{:?}`)
    // encoding path, the longer of the two.
    let reqs: Vec<SubmitRequest> = (0..MAX_BATCH)
        .map(|i| SubmitRequest {
            id: i,
            vnf: i % 16,
            reliability: 0.99 + (i % 7) as f64 * 1e-4,
            arrival: i % 256,
            duration: 1 + i % 32,
            payment: 0.1 + i as f64 * 0.37,
        })
        .collect();
    let codes: Vec<u8> = (0..MAX_BATCH)
        .map(|i| [BATCH_REJECT, BATCH_ADMIT, BATCH_OVERLOAD][i % 3])
        .collect();

    let mut frame = String::new();
    let mut reply = String::new();
    let mut parsed_reqs: Vec<SubmitRequest> = Vec::new();
    let mut parsed_codes: Vec<u8> = Vec::new();

    // Warm-up: grows every buffer to its steady-state capacity, exactly
    // like the first frame on a long-lived connection.
    encode_batch_into(&mut frame, 0, &reqs);
    parse_batch_into(&frame, &mut parsed_reqs).expect("warm-up parse");
    encode_batch_reply_into(&mut reply, 0, &codes);
    parse_batch_reply_into(&reply, &mut parsed_codes).expect("warm-up reply parse");

    // Min over a few trials filters out the libtest harness thread,
    // which may allocate concurrently a handful of times; a genuine
    // per-request allocation would show up ≥ROUNDS in *every* trial.
    const ROUNDS: u64 = 1_000;
    const TRIALS: usize = 5;
    let mut min_allocs = u64::MAX;
    // The disabled tracing path rides along: every cycle times its
    // stages with `StageClock` and records them through the `NoopSink`
    // (`ENABLED = false`), exactly as the uninstrumented daemon does.
    // Zero allocations proves the compile-time guard keeps stage spans
    // free when no sink is attached.
    let mut sink = NoopSink;
    for trial in 0..TRIALS {
        let before = allocations();
        for i in 1..=ROUNDS {
            let seq = trial as u64 * ROUNDS + i;
            let mut clock = StageClock::start();
            encode_batch_into(&mut frame, seq, &reqs);
            let got = parse_batch_into(&frame, &mut parsed_reqs).expect("parse");
            assert_eq!(got, seq);
            record_stage(&mut sink, 0, PipelineStage::IngressParse, clock.lap_ns());
            encode_batch_reply_into(&mut reply, seq, &codes);
            let got = parse_batch_reply_into(&reply, &mut parsed_codes).expect("reply parse");
            assert_eq!(got, seq);
            record_stage(&mut sink, 0, PipelineStage::ReplyWrite, clock.lap_ns());
        }
        min_allocs = min_allocs.min(allocations() - before);
    }

    assert_eq!(parsed_reqs.len(), MAX_BATCH);
    assert_eq!(parsed_codes.len(), MAX_BATCH);
    assert_eq!(
        min_allocs, 0,
        "steady-state batch serving allocated {min_allocs} times over {ROUNDS} rounds \
         of {MAX_BATCH}-request frames (expected zero after warm-up)"
    );
}

/// A one-lane daemon whose fleet the same thousand requests, sent in
/// max-size frames over and over, have filled: from here on it rejects
/// every request. The warm-up is over once two whole frames were
/// rejected, which also sizes every reusable buffer on both sides of
/// the socket.
struct FullDaemon {
    conn: LineClient,
    daemon: std::thread::JoinHandle<Result<mec_serve::ShardedReport, mec_serve::ServeError>>,
    reqs: Vec<SubmitRequest>,
    frame: String,
    codes: Vec<u8>,
    /// Sequence number of the next frame.
    seq: u64,
}

impl FullDaemon {
    fn start() -> Self {
        let (instance, template) = common::scenario(MAX_BATCH, 90);
        let (addr, daemon) =
            common::spawn_sharded(instance, vnfrel::Scheme::OffSite, common::sharded_config(1));
        let mut full = FullDaemon {
            conn: LineClient::connect(addr).unwrap(),
            daemon,
            reqs: template.iter().map(SubmitRequest::from).collect(),
            frame: String::new(),
            codes: Vec::new(),
            seq: 0,
        };
        let mut quiet = 0;
        while quiet < 2 {
            assert!(full.seq < 64, "the fleet never filled up");
            quiet = if full.round_trip() == 0 { quiet + 1 } else { 0 };
        }
        full
    }

    /// One lock-step frame of the template's requests under the next
    /// ids; returns how many were admitted.
    fn round_trip(&mut self) -> usize {
        let seq = self.seq;
        self.seq += 1;
        for (i, r) in self.reqs.iter_mut().enumerate() {
            r.id = seq as usize * MAX_BATCH + i;
        }
        encode_batch_into(&mut self.frame, seq, &self.reqs);
        self.conn.send_line(&self.frame).unwrap();
        let reply = self.conn.read_line().expect("daemon hung up");
        assert_eq!(parse_batch_reply_into(reply, &mut self.codes).unwrap(), seq);
        assert!(self
            .codes
            .iter()
            .all(|&c| c == BATCH_ADMIT || c == BATCH_REJECT));
        self.codes.iter().filter(|&&c| c == BATCH_ADMIT).count()
    }

    /// Shuts the daemon down and checks it decided `decided` requests.
    fn stop(mut self, decided: u64) {
        self.conn.control(ControlAction::Shutdown).unwrap();
        let report = self.daemon.join().unwrap().unwrap();
        assert_eq!(report.stats.decided, decided);
    }
}

/// A thousand max-size frames through an in-process S = 1 daemon, every
/// request rejected (the fleet is full after the warm-up): the daemon
/// may allocate per frame — the parsed request vector it hands its lane
/// — but not per decision. At the parent of the burst-shaped lane loop
/// every decision cost two `String`s (2.17 allocations per decision
/// end to end).
#[test]
fn a_one_lane_daemon_allocates_per_frame_not_per_decision() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let mut full = FullDaemon::start();

    const FRAMES: u64 = 1_000;
    let before = allocations();
    let admitted: usize = (0..FRAMES).map(|_| full.round_trip()).sum();
    let allocated = allocations() - before;
    assert_eq!(admitted, 0, "the measured window was not all-reject");
    let decided = full.seq * MAX_BATCH as u64;
    full.stop(decided);

    // O(frames): 0.2 per decision would be 205 per frame here; the front
    // end needs one (measured: exactly 1.00 in a release build). A debug
    // build adds the recovery log's `debug_assert` — a whole-state export
    // (3 allocations) at each compaction, every 64 decisions.
    let budget = if cfg!(debug_assertions) {
        4.0 + 3.0 * 16.0
    } else {
        4.0
    };
    let per_frame = allocated as f64 / FRAMES as f64;
    assert!(
        per_frame <= budget,
        "{allocated} allocations over {FRAMES} frames of {MAX_BATCH} requests: \
         {per_frame:.1} per frame (budget {budget}), {:.4} per decision",
        per_frame / MAX_BATCH as f64
    );
}

/// The v2 single-request path through the same full one-lane daemon:
/// two thousand `submit` lines in lock-step, each answered with its
/// reject decision line. The lines are encoded before the measured
/// window, so what is counted is the daemon's: reading the line, the
/// decision event and its reply.
#[test]
fn a_v2_submit_through_a_one_lane_daemon_has_a_pinned_allocation_count() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let mut full = FullDaemon::start();

    const SUBMITS: usize = 2_000;
    let first = full.seq as usize * MAX_BATCH;
    let lines: Vec<String> = (first..first + SUBMITS)
        .map(|id| {
            let mut msg = full.reqs[id % MAX_BATCH];
            msg.id = id;
            encode_client(&ClientMsg::Submit(msg))
        })
        .collect();
    let mut rejected = 0;
    let before = allocations();
    for line in &lines {
        full.conn.send_line(line).unwrap();
        let reply = full.conn.read_line().expect("daemon hung up");
        rejected += usize::from(reply.contains("\"outcome\":\"reject\""));
    }
    let allocated = allocations() - before;
    assert_eq!(rejected, SUBMITS, "the measured window was not all-reject");
    full.stop(first as u64 + SUBMITS as u64);

    let per_decision = allocated as f64 / SUBMITS as f64;
    println!("v2 single path: {per_decision:.2} allocations per decision");
    // Measured in a release build: 17.00 while the submit line was read
    // into a tree (an object vector and a `String` per key and string
    // value), 5.00 since it is read without one. A debug build adds the
    // recovery log's whole-state export (3 allocations) every 64
    // decisions.
    const PINNED: f64 = 5.0;
    let budget = if cfg!(debug_assertions) {
        PINNED + 3.0 / 64.0 + 0.1
    } else {
        PINNED + 0.1
    };
    assert!(
        per_decision <= budget,
        "{allocated} allocations over {SUBMITS} v2 submits: {per_decision:.2} per decision \
         (budget {budget})"
    );
}
