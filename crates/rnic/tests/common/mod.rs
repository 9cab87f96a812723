//! A counting `#[global_allocator]` for the allocator-behaviour tests.
//!
//! The allocator is process-wide, but the counters only run on the thread
//! that switches them on — so a test file using it holds one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting the calling thread's allocator calls
/// and live bytes while [`counting`] is on.
pub struct CountingAlloc;

/// Switch this thread's counters on or off.
pub fn counting(on: bool) {
    COUNTING.with(|c| c.set(on));
}

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) counted so far.
pub fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Bytes allocated minus bytes freed while counting.
#[allow(dead_code)] // not every test file reads it
pub fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

fn note(calls: u64, bytes: i64) {
    if COUNTING.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + calls));
        LIVE_BYTES.with(|b| b.set(b.get() + bytes));
    }
}

// SAFETY: every method forwards to `System` with its arguments unchanged;
// the bookkeeping touches only const-initialised thread-locals, which
// neither allocate nor run destructors.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
}
