//! Completion queues.
//!
//! Besides their classical role (reporting work completions to the host),
//! CQs are RedN's synchronization variables: the WAIT verb parks a work
//! queue until a CQ's *monotonic completion count* reaches a threshold.
//! That count never resets — the wqe_count fix-ups of §3.4 exist precisely
//! because of this monotonicity.
//!
//! A CQ comes in two kinds. A *pollable* CQ keeps up to `depth` entries
//! for a host to poll and flags an overrun when one is dropped. A
//! *counting* CQ (`CompletionQueue::counting`) is for CQs whose only
//! reader is a WAIT: it keeps the count, the completion time and the
//! waiters, stores no entries and never overruns — what a CORE-Direct CQ
//! created with `IBV_CREATE_CQ_ATTR_IGNORE_OVERRUN` is on hardware.

use crate::ids::{NodeId, QpId, WqId};
use crate::time::Time;
use crate::verbs::Opcode;
use std::collections::VecDeque;

/// Completion status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqeStatus {
    /// Operation completed successfully.
    Success,
    /// A key violation or bad address at either end.
    ProtectionError,
    /// Receiver had no RECV posted (after retries).
    RnrError,
    /// The WQE bytes did not decode to a valid verb.
    BadWqe,
}

/// One completion entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cqe {
    /// Queue whose WQE completed.
    pub wq: WqId,
    /// Owning QP.
    pub qp: QpId,
    /// Monotonic index of the completed WQE within its queue.
    pub wqe_index: u64,
    /// The verb that completed (post-modification opcode — what actually
    /// executed, which for self-modifying programs may differ from what
    /// was posted; §3.5 notes offloads are auditable through completions).
    pub opcode: Opcode,
    /// Completion status.
    pub status: CqeStatus,
    /// Bytes moved (receives and reads).
    pub byte_len: u32,
    /// Immediate data, if the peer sent any.
    pub imm: Option<u32>,
    /// Simulated completion time.
    pub time: Time,
}

/// A completion queue.
#[derive(Debug)]
pub(crate) struct CompletionQueue {
    /// Node that owns (and polls) this CQ.
    pub node: NodeId,
    /// Capacity before overrun; 0 for a counting CQ, which keeps no
    /// entries and never overruns.
    pub depth: u32,
    /// Pollable entries (bounded by `depth`).
    pub entries: VecDeque<Cqe>,
    /// Monotonic count of CQEs ever generated — the WAIT target value.
    pub total: u64,
    /// Simulated time of the most recent completion ([`Time::ZERO`] if
    /// none yet) — the heartbeat a failure detector compares against
    /// `now` to decide a peer has gone silent (§5.6 failover).
    pub last_completion: Time,
    /// Work queues parked by WAIT verbs: `(wq, threshold)` pairs released
    /// when `total >= threshold`.
    pub waiters: Vec<(WqId, u64)>,
    /// Set when a CQE had to be dropped because the queue was full.
    pub overrun: bool,
    /// Optional host listener registered via the simulator (polling or
    /// event-driven thread). Stored as a slab index into the simulator's
    /// callback table.
    pub listener: Option<u64>,
    /// Whether a host watches this CQ (see `Simulator::watch_cq`); an
    /// unwatched CQ — the default — records nothing.
    pub watched: bool,
    /// Whether the CQ already sits in the simulator's ready list: a
    /// watched CQ is listed once per drain, however many CQEs arrive.
    pub ready: bool,
}

impl CompletionQueue {
    /// Create an empty CQ.
    pub(crate) fn new(node: NodeId, depth: u32) -> CompletionQueue {
        CompletionQueue {
            node,
            depth,
            entries: VecDeque::new(),
            total: 0,
            last_completion: Time::ZERO,
            waiters: Vec::new(),
            overrun: false,
            listener: None,
            watched: false,
            ready: false,
        }
    }

    /// Create a counting CQ: the count, completion time, waiters and
    /// host hooks of any CQ, but no pollable entries and no overrun.
    pub(crate) fn counting(node: NodeId) -> CompletionQueue {
        CompletionQueue::new(node, 0)
    }

    /// Append a completion. Always bumps the monotonic counter; drops the
    /// pollable entry (and flags overrun) if the queue is full. A
    /// counting CQ is always full and never flags overrun. The work
    /// queues whose WAIT threshold is now satisfied are appended to `woken`
    /// (not cleared first) — the event loop reuses one buffer across
    /// every CQE.
    pub(crate) fn push_into(&mut self, cqe: Cqe, woken: &mut Vec<WqId>) {
        self.total += 1;
        self.last_completion = cqe.time;
        if self.entries.len() as u32 >= self.depth {
            self.overrun = self.depth != 0;
        } else {
            self.entries.push_back(cqe);
        }
        let total = self.total;
        self.waiters.retain(|(wq, threshold)| {
            if total >= *threshold {
                woken.push(*wq);
                false
            } else {
                true
            }
        });
    }

    /// Park `wq` until `total >= threshold`. Returns true if the threshold
    /// is already satisfied (caller should not park).
    pub(crate) fn park(&mut self, wq: WqId, threshold: u64) -> bool {
        if self.total >= threshold {
            return true;
        }
        self.waiters.push((wq, threshold));
        false
    }

    /// Poll up to `max` completions, consuming them.
    pub(crate) fn poll(&mut self, max: usize) -> Vec<Cqe> {
        let n = max.min(self.entries.len());
        self.entries.drain(..n).collect()
    }

    /// Allocation-free [`CompletionQueue::poll`]: drains up to `max`
    /// entries into `out` (appending) and returns how many were reaped.
    /// Clients reuse one buffer per reap loop instead of allocating a
    /// fresh `Vec` per call. An idle poll — most polls of a busy-polling
    /// host find nothing — is one compare.
    pub(crate) fn poll_into(&mut self, max: usize, out: &mut Vec<Cqe>) -> usize {
        if self.entries.is_empty() {
            return 0;
        }
        let n = max.min(self.entries.len());
        // Two slice copies, not an element-at-a-time extend.
        let (front, back) = self.entries.as_slices();
        let k = n.min(front.len());
        out.extend_from_slice(&front[..k]);
        out.extend_from_slice(&back[..n - k]);
        self.entries.drain(..n);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `push_into` returning the woken queues.
    fn push(cq: &mut CompletionQueue, cqe: Cqe) -> Vec<WqId> {
        let mut woken = Vec::new();
        cq.push_into(cqe, &mut woken);
        woken
    }

    fn cqe(idx: u64) -> Cqe {
        Cqe {
            wq: WqId(0),
            qp: QpId(0),
            wqe_index: idx,
            opcode: Opcode::Noop,
            status: CqeStatus::Success,
            byte_len: 0,
            imm: None,
            time: Time::ZERO,
        }
    }

    #[test]
    fn push_and_poll() {
        let mut cq = CompletionQueue::new(NodeId(0), 4);
        push(&mut cq, cqe(0));
        push(&mut cq, cqe(1));
        assert_eq!(cq.total, 2);
        let polled = cq.poll(10);
        assert_eq!(polled.len(), 2);
        assert_eq!(polled[1].wqe_index, 1);
        assert!(cq.poll(1).is_empty());
        // Total is monotonic; polling does not decrement it.
        assert_eq!(cq.total, 2);
    }

    #[test]
    fn poll_into_keeps_order_across_the_ring_wrap() {
        let mut cq = CompletionQueue::new(NodeId(0), 4);
        let mut out = Vec::new();
        let mut next = 0;
        for (pushes, max) in [(3, 2), (3, 3), (2, 9)] {
            for _ in 0..pushes {
                push(&mut cq, cqe(next));
                next += 1;
            }
            cq.poll_into(max, &mut out);
        }
        let polled: Vec<u64> = out.iter().map(|c| c.wqe_index).collect();
        assert_eq!(polled, (0..8).collect::<Vec<_>>());
        assert!(cq.entries.is_empty());
    }

    #[test]
    fn overrun_drops_entries_but_keeps_count() {
        let mut cq = CompletionQueue::new(NodeId(0), 2);
        for i in 0..5 {
            push(&mut cq, cqe(i));
        }
        assert!(cq.overrun);
        assert_eq!(cq.total, 5);
        assert_eq!(cq.entries.len(), 2);
    }

    #[test]
    fn counting_cq_keeps_the_count_and_no_entries() {
        let mut cq = CompletionQueue::counting(NodeId(0));
        assert!(!cq.park(WqId(1), 3));
        assert!(!cq.park(WqId(2), 100));
        for i in 0..100u64 {
            let mut e = cqe(i);
            e.time = Time::from_ps(i + 1);
            let woken = push(&mut cq, e);
            assert_eq!(cq.total, i + 1);
            assert_eq!(cq.last_completion, Time::from_ps(i + 1));
            match i + 1 {
                3 => assert_eq!(woken, [WqId(1)]),
                100 => assert_eq!(woken, [WqId(2)]),
                _ => assert!(woken.is_empty()),
            }
            assert!(cq.entries.is_empty());
            assert!(!cq.overrun);
        }
        assert!(cq.waiters.is_empty());
        assert!(cq.poll(usize::MAX).is_empty());
        assert_eq!(cq.poll_into(usize::MAX, &mut Vec::new()), 0);
        assert!(!cq.overrun);
    }

    #[test]
    fn waiters_release_at_threshold() {
        let mut cq = CompletionQueue::new(NodeId(0), 16);
        // Already satisfied: park returns true and does not enqueue.
        push(&mut cq, cqe(0));
        assert!(cq.park(WqId(1), 1));
        assert!(cq.waiters.is_empty());

        assert!(!cq.park(WqId(1), 3));
        assert!(!cq.park(WqId(2), 2));
        assert!(push(&mut cq, cqe(1)).contains(&WqId(2))); // total = 2
        let woken = push(&mut cq, cqe(2)); // total = 3
        assert!(woken.contains(&WqId(1)));
        assert!(cq.waiters.is_empty());
    }

    #[test]
    fn multiple_waiters_same_threshold() {
        let mut cq = CompletionQueue::new(NodeId(0), 16);
        assert!(!cq.park(WqId(1), 1));
        assert!(!cq.park(WqId(2), 1));
        let woken = push(&mut cq, cqe(0));
        assert_eq!(woken.len(), 2);
    }
}
