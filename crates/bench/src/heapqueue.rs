//! The pre-wheel global `BinaryHeap` event queue, kept (API-compatible
//! with [`EventQueue`](rnic_sim::engine::EventQueue)'s hot methods) as
//! the committed baseline the `sim_events` wheel-vs-heap bench and its
//! CI gate compare against — and as the reference implementation whose
//! pop order the timing wheel must replay exactly.

use std::collections::BinaryHeap;

use rnic_sim::engine::{Event, EventKind};
use rnic_sim::time::Time;

/// A single global heap ordered by `(time, scheduling sequence)`.
#[derive(Default)]
pub struct BaselineHeapQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl BaselineHeapQueue {
    /// Create an empty queue.
    pub fn new() -> BaselineHeapQueue {
        BaselineHeapQueue::default()
    }

    /// Schedule `kind` at absolute time `at`.
    pub fn schedule(&mut self, at: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, kind });
    }

    /// Pop the next event (earliest time, then earliest scheduled).
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::engine::EventQueue;
    use rnic_sim::ids::WqId;

    /// Drive a queue through a deterministic pseudo-random schedule/pop
    /// mix and return the observed `(time, seq)` order.
    fn churn(
        mut schedule: impl FnMut(Time),
        mut pop: impl FnMut() -> Option<(Time, u64)>,
    ) -> Vec<(Time, u64)> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut order = Vec::new();
        let mut now = Time::ZERO;
        for round in 0..200 {
            for _ in 0..(rng() % 50) {
                // Mix of near (same-bucket), mid-horizon and far-future
                // times, always >= now (the simulator's invariant).
                let delta = match rng() % 4 {
                    0 => rng() % 1_000,      // same/adjacent bucket
                    1 => rng() % 100_000,    // near window
                    2 => rng() % 10_000_000, // past the wheel horizon
                    _ => rng() % 200,        // dense ties
                };
                schedule(now + Time::from_ps(delta));
            }
            for _ in 0..(rng() % 40 + if round > 150 { 60 } else { 0 }) {
                match pop() {
                    Some((at, seq)) => {
                        now = at;
                        order.push((at, seq));
                    }
                    None => break,
                }
            }
        }
        while let Some((at, seq)) = pop() {
            order.push((at, seq));
        }
        order
    }

    #[test]
    fn wheel_matches_baseline_heap_order_exactly() {
        use std::cell::RefCell;
        let kind = || EventKind::WqAdvance { wq: WqId(0) };
        let wheel = RefCell::new(EventQueue::new());
        let wheel_order = churn(
            |at| wheel.borrow_mut().schedule(at, kind()),
            || wheel.borrow_mut().pop().map(|e| (e.at, e.seq)),
        );
        let heap = RefCell::new(BaselineHeapQueue::new());
        let heap_order = churn(
            |at| heap.borrow_mut().schedule(at, kind()),
            || heap.borrow_mut().pop().map(|e| (e.at, e.seq)),
        );
        assert_eq!(wheel_order.len(), heap_order.len());
        assert_eq!(
            wheel_order, heap_order,
            "wheel must replay the heap's exact order"
        );
        // And the order is the (time, seq) total order.
        for w in wheel_order.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
