//! The timing wheel's allocator behaviour: steady-state `schedule`/`pop`
//! never calls the allocator, and what the wheel retains is bounded by the
//! events pending at once — not by how many buckets the cursor has swept.
//!
//! One `#[test]` only: the counting allocator is process-wide, and the
//! counters only run on the thread that switches them on.

use rnic_sim::engine::{EventKind, EventQueue};
use rnic_sim::ids::WqId;
use rnic_sim::time::Time;

mod common;

#[global_allocator]
static ALLOCATOR: common::CountingAlloc = common::CountingAlloc;

/// Bucket width (2^12 ps) and count of the wheel under test.
const BUCKET_PS: u64 = 1 << 12;
const BUCKETS: u64 = 2048;

/// Pop one event and schedule its successor four to five buckets later,
/// `n` times, over four interleaved chains: a busy simulation's cadence,
/// ≈ 1 event per bucket, a handful pending. Every 1,000th event also arms
/// a timer 10 µs out, which rides the overflow level and cascades back in.
fn stream(q: &mut EventQueue, n: u64) {
    for i in 0..n {
        let ev = q.pop().expect("the stream keeps itself alive");
        let jitter = (i * 2_654_435_761) % BUCKET_PS;
        let kind = || EventKind::WqAdvance { wq: WqId(0) };
        if q.len() < 3 {
            q.schedule(ev.at + Time::from_ps(BUCKET_PS + jitter), kind());
        }
        q.schedule(ev.at + Time::from_ps(4 * BUCKET_PS + jitter), kind());
        if i % 1_000 == 0 {
            q.schedule(ev.at + Time::from_us(10), kind());
            // A timer is an extra event: pop one more to stay in balance.
            q.pop().expect("non-empty");
        }
    }
}

#[test]
fn steady_state_wheel_never_allocates_and_retains_a_constant() {
    common::counting(true);
    let mut q = EventQueue::new();
    q.schedule(Time::ZERO, EventKind::WqAdvance { wq: WqId(0) });
    // Warm-up: the slab, the current run and the overflow heap reach
    // their working size while the cursor is still inside its first
    // rotation, so most buckets have never been touched.
    stream(&mut q, 1_200);
    let swept = q.peek_time().expect("pending").as_ps() / BUCKET_PS;
    assert!(swept < BUCKETS, "warm-up must stay inside one rotation");
    let (calls, live) = (common::calls(), common::live_bytes());

    stream(&mut q, 1_000_000);
    let rotations = (q.peek_time().expect("pending").as_ps() / BUCKET_PS - swept) / BUCKETS;
    assert!(rotations >= 100, "the cursor must sweep every bucket often");
    assert_eq!(
        common::calls() - calls,
        0,
        "a 1 M-event steady-state stream must not call the allocator"
    );
    assert_eq!(
        common::live_bytes() - live,
        0,
        "retained bytes must not depend on how many buckets were swept"
    );
    // And the constant is small: the queue as a whole (8 KB of bucket
    // heads, the slab, the run, the overflow heap) stays under 32 KB.
    assert!(live < 32 << 10, "queue retains {live} bytes");
    common::counting(false);
    while q.pop().is_some() {}
    assert!(q.is_empty());
}
