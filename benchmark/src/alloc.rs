//! A counting global allocator for the traced binary.
//!
//! Only `src/bin/traced.rs` installs it, so the untraced measurement
//! runs on the untouched system allocator; the library merely reads the
//! counters when they exist.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by those calls.
pub static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes returned by `dealloc` and by the old side of `realloc`.
pub static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Defers to [`System`]; only counts.
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// relaxed statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy)]
pub struct AllocReading {
    /// Allocation calls.
    pub count: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Bytes still live (requested minus freed).
    pub live: i64,
}

/// Reads the counters; all zero when the allocator is not installed.
pub fn reading() -> AllocReading {
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed);
    AllocReading {
        count: ALLOCATIONS.load(Ordering::Relaxed),
        bytes,
        live: bytes as i64 - FREED_BYTES.load(Ordering::Relaxed) as i64,
    }
}

/// Whether the counting allocator is the process's global allocator.
pub fn installed() -> bool {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    drop(std::hint::black_box(Box::new(0u8)));
    ALLOCATIONS.load(Ordering::Relaxed) > before
}
