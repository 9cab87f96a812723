//! Completion queues.
//!
//! Besides their classical role (reporting work completions to the host),
//! CQs are RedN's synchronization variables: the WAIT verb parks a work
//! queue until a CQ's *monotonic completion count* reaches a threshold.
//! That count never resets — the wqe_count fix-ups of §3.4 exist precisely
//! because of this monotonicity.

use crate::ids::{CqId, NodeId, QpId, WqId};
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
pub struct CompletionQueue {
    /// This queue's id.
    pub id: CqId,
    /// Node that owns (and polls) this CQ.
    pub node: NodeId,
    /// Capacity before overrun.
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
    pub fn new(id: CqId, node: NodeId, depth: u32) -> CompletionQueue {
        CompletionQueue {
            id,
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

    /// Append a completion. Always bumps the monotonic counter; drops the
    /// pollable entry (and flags overrun) if the queue is full. The work
    /// queues whose WAIT threshold is now satisfied are appended to `woken`
    /// (not cleared first) — the event loop reuses one buffer across
    /// every CQE.
    pub fn push_into(&mut self, cqe: Cqe, woken: &mut Vec<WqId>) {
        self.total += 1;
        self.last_completion = cqe.time;
        if self.entries.len() as u32 >= self.depth {
            self.overrun = true;
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
    pub fn park(&mut self, wq: WqId, threshold: u64) -> bool {
        if self.total >= threshold {
            return true;
        }
        self.waiters.push((wq, threshold));
        false
    }

    /// Poll up to `max` completions, consuming them.
    pub fn poll(&mut self, max: usize) -> Vec<Cqe> {
        let n = max.min(self.entries.len());
        self.entries.drain(..n).collect()
    }

    /// Allocation-free [`CompletionQueue::poll`]: drains up to `max`
    /// entries into `out` (appending) and returns how many were reaped.
    /// Clients reuse one buffer per reap loop instead of allocating a
    /// fresh `Vec` per call. An idle poll — most polls of a busy-polling
    /// host find nothing — is one compare.
    pub fn poll_into(&mut self, max: usize, out: &mut Vec<Cqe>) -> usize {
        if self.entries.is_empty() {
            return 0;
        }
        let n = max.min(self.entries.len());
        out.extend(self.entries.drain(..n));
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
        let mut cq = CompletionQueue::new(CqId(0), NodeId(0), 4);
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
    fn overrun_drops_entries_but_keeps_count() {
        let mut cq = CompletionQueue::new(CqId(0), NodeId(0), 2);
        for i in 0..5 {
            push(&mut cq, cqe(i));
        }
        assert!(cq.overrun);
        assert_eq!(cq.total, 5);
        assert_eq!(cq.entries.len(), 2);
    }

    #[test]
    fn waiters_release_at_threshold() {
        let mut cq = CompletionQueue::new(CqId(0), NodeId(0), 16);
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
        let mut cq = CompletionQueue::new(CqId(0), NodeId(0), 16);
        assert!(!cq.park(WqId(1), 1));
        assert!(!cq.park(WqId(2), 1));
        let woken = push(&mut cq, cqe(0));
        assert_eq!(woken.len(), 2);
    }
}
