//! Work queues: circular WQE buffers living in host memory.
//!
//! A [`WorkQueue`] here is only *metadata* — the WQEs themselves are bytes
//! in the owning node's [`crate::mem::HostMemory`], at
//! `base_addr + (index % depth) * WQE_SIZE`. The NIC must DMA-fetch those
//! bytes before executing them, and anything (including the program itself)
//! may overwrite them in the meantime. That separation is the load-bearing
//! design decision of this simulator; see DESIGN.md §5.1.
//!
//! Indices (`posted`, `fetched`, `executed`, `enabled_until`) are monotonic
//! 64-bit counters, never wrapped — mirroring ConnectX semantics the paper
//! leans on in §3.4: "these indices are maintained internally by the RNIC
//! and their values are monotonically increasing (instead of resetting
//! after the WQ wraps around)". WQ recycling works *because* an ENABLE can
//! raise `enabled_until` past `posted`, making the NIC wrap the ring and
//! re-fetch (possibly self-modified) slots.

use crate::ids::{CqId, NodeId, QpId, WqId};
use crate::rate::RateLimiter;
use crate::time::Time;
use crate::wqe::{Wqe, WQE_SIZE};
use std::collections::VecDeque;

/// Which half of a QP a queue implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WqKind {
    /// Send queue: WQEs are fetched and executed by a PU.
    Send,
    /// Receive queue: WQEs are consumed by incoming SEND/WRITE_IMM.
    Recv,
}

/// Why a send queue is currently not making progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WqBlock {
    /// Ready to run (or nothing to do).
    None,
    /// Parked on a WAIT verb until `cq` reaches `count` completions.
    WaitCq {
        /// The CQ being waited on.
        cq: CqId,
        /// Completion count that unparks the queue.
        count: u64,
    },
    /// Waiting for the previous WQE's completion (FLAG_WAIT_PREV).
    WaitPrev,
    /// The owning process died and the OS reclaimed the ring (§5.6).
    Dead,
}

/// Raw bytes of one fetched WQE — the NIC's cache holds *bytes*, and they
/// are decoded at execution time. A WQE modified in host memory after its
/// fetch executes stale: the prefetch-incoherence hazard of §3.1.
pub type WqeBytes = [u8; WQE_SIZE as usize];

/// Work-queue metadata. See the module docs for the memory-resident part.
#[derive(Debug)]
pub struct WorkQueue {
    /// This queue's id.
    pub id: WqId,
    /// Owning queue pair.
    pub qp: QpId,
    /// Node whose memory holds the ring.
    pub node: NodeId,
    /// Send or receive half.
    pub kind: WqKind,
    /// Ring buffer base address in host memory.
    pub base_addr: u64,
    /// Ring capacity in WQE slots.
    pub depth: u32,
    /// Managed mode: prefetch disabled; WQEs only fetched below
    /// `enabled_until` (the paper's "managed" flag, §5 "NIC setup").
    pub managed: bool,
    /// Monotonic count of WQEs posted by the host.
    pub posted: u64,
    /// Monotonic NIC fetch pointer: WQEs `< fetched` have been snapshotted.
    pub fetched: u64,
    /// Monotonic execution pointer: WQEs `< executed` have been issued.
    pub executed: u64,
    /// Fetch limit for managed queues (raised by ENABLE verbs). Ignored
    /// when unmanaged.
    pub enabled_until: u64,
    /// Snapshots of the fetched-but-not-yet-executed WQEs — exactly
    /// indices `[executed, fetched)`, oldest first: fetches append in
    /// index order and issue consumes from the front. This models the
    /// NIC's WQE cache: execution uses these bytes, not host memory ("the
    /// execution outcome reflects the WRs at the time they were
    /// fetched", §3.1).
    pub fetch_cache: VecDeque<WqeBytes>,
    /// Whether a fetch DMA is currently in flight.
    pub fetch_inflight: bool,
    /// The WQE currently being issued: `(index, decoded wqe, issue start)`.
    pub executing: Option<(u64, Wqe, Time)>,
    /// Port this queue's QP is bound to.
    pub port: usize,
    /// Processing unit (port-local index) executing this queue.
    pub pu: usize,
    /// Current blocking state.
    pub block: WqBlock,
    /// Completion bookkeeping: monotonic count of this queue's WQEs that
    /// have fully completed (for FLAG_WAIT_PREV gating).
    pub completed: u64,
    /// Earliest time the next WQE may issue (chain-gap pacing and rate
    /// limiting).
    pub next_issue_at: Time,
    /// Optional rate limit in operations per second
    /// (`ibv_modify_qp_rate_limit`, used by §3.5 "Isolation").
    pub rate_ops_per_sec: Option<f64>,
    /// Token bucket enforcing `rate_ops_per_sec`, consulted at issue. Lives
    /// on the queue (not in a simulator-side map) so the per-event path
    /// never hashes a queue id to find it.
    pub rate_limiter: Option<RateLimiter>,
    /// Statistics: WQEs executed (including recycled re-executions).
    pub stat_executed: u64,
    /// Statistics: doorbells observed.
    pub stat_doorbells: u64,
    /// Cyclic receive ring (receive queues only): once fully posted, the
    /// NIC re-arms consumed RECVs as the ring wraps — no further host
    /// posts needed. This is how a recycled offload's trigger RECVs
    /// persist without CPU (the RQ analogue of §3.4's WQ recycling; real
    /// NICs offer it as cyclic/striding receive buffers).
    pub cyclic: bool,
}

impl WorkQueue {
    /// Create queue metadata for a ring at `base_addr` with `depth` slots.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: WqId,
        qp: QpId,
        node: NodeId,
        kind: WqKind,
        base_addr: u64,
        depth: u32,
        managed: bool,
        port: usize,
        pu: usize,
    ) -> WorkQueue {
        WorkQueue {
            id,
            qp,
            node,
            kind,
            base_addr,
            depth,
            managed,
            posted: 0,
            fetched: 0,
            executed: 0,
            enabled_until: 0,
            fetch_cache: VecDeque::new(),
            fetch_inflight: false,
            executing: None,
            port,
            pu,
            block: WqBlock::None,
            completed: 0,
            next_issue_at: Time::ZERO,
            rate_ops_per_sec: None,
            rate_limiter: None,
            stat_executed: 0,
            stat_doorbells: 0,
            cyclic: false,
        }
    }

    /// Address of the slot that WQE index `idx` occupies (the ring wraps).
    pub fn slot_addr(&self, idx: u64) -> u64 {
        self.base_addr + (idx % self.depth as u64) * WQE_SIZE
    }

    /// Total ring size in bytes.
    pub fn ring_bytes(&self) -> u64 {
        self.depth as u64 * WQE_SIZE
    }

    /// How many WQEs the host can post without overwriting one the NIC
    /// has not executed yet. (A cyclic RQ's `executed` outruns `posted`,
    /// hence the saturating differences — such rings are full by
    /// construction and never posted to again.)
    pub fn room(&self) -> u64 {
        if self.cyclic {
            return 0;
        }
        (self.depth as u64).saturating_sub(self.posted.saturating_sub(self.executed))
    }

    /// Whether the host can post another WQE.
    pub fn has_room(&self) -> bool {
        self.room() > 0
    }

    /// Highest WQE index (exclusive) the NIC may currently fetch.
    ///
    /// Unmanaged queues fetch up to what the host posted. Managed queues
    /// fetch up to their enable limit — which may *exceed* `posted`: that
    /// is WQ recycling (§3.4), the ring wraps and the NIC re-reads old
    /// slots.
    pub fn fetch_limit(&self) -> u64 {
        if self.managed {
            self.enabled_until
        } else {
            self.posted
        }
    }

    /// Whether a fetch of WQE `fetched` may start now.
    pub fn can_fetch(&self) -> bool {
        self.fetched < self.fetch_limit()
    }

    /// The snapshot the queue issues next — WQE `executed` — if it has
    /// been fetched.
    pub fn next_snapshot(&self) -> Option<&WqeBytes> {
        self.fetch_cache.front()
    }

    /// Consume the snapshot of the next WQE to issue, if it has been
    /// fetched, and move `executed` past it.
    pub fn take_snapshot(&mut self) -> Option<WqeBytes> {
        debug_assert_eq!(
            self.fetch_cache.len() as u64,
            self.fetched - self.executed,
            "the cache holds exactly [executed, fetched)"
        );
        let bytes = self.fetch_cache.pop_front()?;
        self.executed += 1;
        Some(bytes)
    }

    /// Record the snapshot of WQE `idx`, which must be the next in fetch
    /// order, and move `fetched` past it.
    pub fn cache_snapshot(&mut self, idx: u64, bytes: WqeBytes) {
        debug_assert_eq!(idx, self.fetched, "fetch is in index order");
        self.fetch_cache.push_back(bytes);
        self.fetched = idx + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wq(depth: u32, managed: bool) -> WorkQueue {
        WorkQueue::new(
            WqId(0),
            QpId(0),
            NodeId(0),
            WqKind::Send,
            0x1000,
            depth,
            managed,
            0,
            0,
        )
    }

    #[test]
    fn slot_addresses_wrap() {
        let q = wq(4, false);
        assert_eq!(q.slot_addr(0), 0x1000);
        assert_eq!(q.slot_addr(3), 0x1000 + 3 * WQE_SIZE);
        assert_eq!(q.slot_addr(4), 0x1000); // wrapped
        assert_eq!(q.slot_addr(7), 0x1000 + 3 * WQE_SIZE);
        assert_eq!(q.ring_bytes(), 4 * WQE_SIZE);
    }

    #[test]
    fn unmanaged_fetch_limit_is_posted() {
        let mut q = wq(8, false);
        assert!(!q.can_fetch());
        q.posted = 3;
        assert_eq!(q.fetch_limit(), 3);
        assert!(q.can_fetch());
        q.fetched = 3;
        assert!(!q.can_fetch());
    }

    #[test]
    fn managed_fetch_limit_is_enable_and_may_pass_posted() {
        let mut q = wq(8, true);
        q.posted = 3;
        // Nothing enabled: nothing fetchable even though WQEs are posted.
        assert!(!q.can_fetch());
        q.enabled_until = 2;
        assert_eq!(q.fetch_limit(), 2);
        // Recycling: enable far beyond posted is legal.
        q.enabled_until = 100;
        q.fetched = 50;
        assert!(q.can_fetch());
    }

    #[test]
    fn room_accounting() {
        let mut q = wq(2, false);
        assert_eq!(q.room(), 2);
        q.posted = 2;
        assert!(!q.has_room());
        q.executed = 1;
        assert_eq!(q.room(), 1);
        q.cyclic = true;
        assert!(!q.has_room());
    }

    #[test]
    fn snapshot_cache_round_trip() {
        // The cache is a FIFO over [executed, fetched): fetches append in
        // index order, issue consumes from the front.
        let mut q = wq(4, true);
        (q.executed, q.fetched) = (5, 5);
        assert_eq!(q.next_snapshot(), None);
        assert_eq!(q.take_snapshot(), None);
        for id in 5..8 {
            let w = Wqe {
                id,
                ..Wqe::default()
            };
            q.cache_snapshot(id, w.encode());
        }
        assert_eq!((q.executed, q.fetched, q.fetch_cache.len()), (5, 8, 3));
        for id in 5..8 {
            let peeked = *q.next_snapshot().unwrap();
            let bytes = q.take_snapshot().unwrap();
            assert_eq!(bytes, peeked);
            assert_eq!(Wqe::decode(&bytes).unwrap().id, id);
            assert_eq!(q.executed, id + 1);
        }
        assert_eq!(q.take_snapshot(), None);
        assert_eq!(q.executed, 8, "an empty cache consumes nothing");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "fetch is in index order")]
    fn snapshot_out_of_fetch_order_is_a_bug() {
        let mut q = wq(4, true);
        q.cache_snapshot(1, Wqe::default().encode());
    }
}
