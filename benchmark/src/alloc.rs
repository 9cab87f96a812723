//! Counting global allocator: the source of `host_allocs_per_op`,
//! `host_peak_heap_mb` and the per-layer `*.allocs_per_event` counts.
//!
//! Counts are process-wide. A simulated node reserves its DRAM as one
//! zero-filled 1 GiB block that the OS maps lazily; counting the
//! reservation would bury every real change under a constant N GiB, so
//! such blocks (zeroed, ≥ [`ARENA_MIN`]) are left out of the live-byte
//! count. What a run places inside them is reported apart, as
//! `host.sim_dram_mb` (`Simulator::mem(node).allocated()`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Zero-filled requests at least this large are simulated-DRAM
/// reservations, not heap use.
pub const ARENA_MIN: usize = 64 << 20;

pub struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Addresses of the live reservations, so `dealloc` knows which blocks
/// were never added to `LIVE`. A full table only means a reservation is
/// counted as ordinary heap.
static ARENAS: [AtomicUsize; 32] = [const { AtomicUsize::new(0) }; 32];

fn arena_swap(from: usize, to: usize) -> bool {
    ARENAS
        .iter()
        .any(|s| s.compare_exchange(from, to, Relaxed, Relaxed).is_ok())
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// layout and pointer; the bookkeeping touches only atomics and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        grow(layout.size());
        // SAFETY: same layout the caller passed.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: same layout the caller passed. Forwarded (not
        // alloc + memset) so large zeroed blocks stay lazily mapped.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !(layout.size() >= ARENA_MIN && !p.is_null() && arena_swap(0, p as usize)) {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if !(layout.size() >= ARENA_MIN && arena_swap(ptr as usize, 0)) {
            shrink(layout.size());
        }
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // A reservation that is resized becomes ordinary heap.
        if !(layout.size() >= ARENA_MIN && arena_swap(ptr as usize, 0)) {
            shrink(layout.size());
        }
        grow(new_size);
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls (alloc + alloc_zeroed + realloc) so far.
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// High-water of live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Restart the high-water mark at the current live size, and return
/// that size.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}
