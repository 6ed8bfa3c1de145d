//! Peak live heap bytes of generating one week-long stream.
//!
//! `RequestGenerator::generate(131_072)` over the 10 080-slot week may
//! hold, at its peak, the stream it returns plus O(count + T) words —
//! the drawn arrivals and one counter per slot — and nothing else.
//! A stable sort of the stream needs scratch as large as the stream
//! itself (the sorting generator this replaced peaked at 12.6 MB here,
//! against an 8.5 MB budget), so a sort that comes back fails. The
//! returned `Vec` must also hold no spare capacity.
//!
//! The counter is process-wide, so this file keeps a single `#[test]`:
//! the harness thread only waits while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mec_workload::{
    ArrivalProcess, ChainGenerator, DurationModel, Horizon, Request, RequestGenerator, VnfCatalog,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: defers to `System` for every operation; the counters are
// atomics with no allocation of their own.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Live bytes above the level at the call, at the call's peak.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

const WEEK: usize = 10_080;
const COUNT: usize = 131_072;
/// Words of working memory allowed per request and per slot.
const WORDS_PER_ITEM: usize = 2;

#[test]
fn a_week_stream_peaks_at_one_stream_plus_linear_words() {
    let catalog = VnfCatalog::standard();
    let stream = COUNT * std::mem::size_of::<Request>();
    let budget = stream + WORDS_PER_ITEM * std::mem::size_of::<usize>() * (COUNT + WEEK);
    for arrivals in [
        ArrivalProcess::Uniform,
        ArrivalProcess::Poisson { burstiness: 1.0 },
    ] {
        let gen = RequestGenerator::new(Horizon::new(WEEK))
            .arrivals(arrivals)
            .durations(DurationModel::Uniform { lo: 5, hi: 120 })
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (reqs, peak) = peak_during(|| gen.generate(COUNT, &catalog, &mut rng).unwrap());
        assert_eq!(reqs.len(), COUNT);
        assert_eq!(reqs.capacity(), reqs.len(), "{arrivals:?}: spare capacity");
        assert!(
            peak <= budget,
            "{arrivals:?}: generate peaked at {peak} live bytes; the budget is {budget} \
             (a {stream}-byte stream plus {WORDS_PER_ITEM} words per request and per slot)"
        );
    }

    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let chains = ChainGenerator::new(Horizon::new(2_016), 11)
        .generate(COUNT / 16, &catalog, &mut rng)
        .unwrap();
    assert_eq!(chains.capacity(), chains.len(), "chains: spare capacity");
}
