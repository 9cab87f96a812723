//! Queue pairs: the RC (reliable connection) endpoints.
//!
//! A QP bundles a send queue, a receive queue and two CQs. RedN programs
//! span several QPs on the server: client-facing QPs receive triggers and
//! carry responses, while *loopback* QPs (connected to a peer on the same
//! node) let the NIC read, write and CAS the server's own memory — including
//! the WQ buffers themselves, which is how chains self-modify.

use crate::ids::{CqId, NodeId, QpId, WqId};
use std::collections::VecDeque;

/// Configuration for creating a QP.
#[derive(Clone, Copy, Debug)]
pub struct QpConfig {
    /// CQ receiving send-side completions.
    pub send_cq: CqId,
    /// CQ receiving receive-side completions (defaults to `send_cq`).
    pub recv_cq: CqId,
    /// Send-queue depth in WQE slots.
    pub sq_depth: u32,
    /// Receive-queue depth in WQE slots.
    pub rq_depth: u32,
    /// Managed send queue: prefetch disabled, fetch gated by ENABLE —
    /// required for any queue whose WQEs get modified in place
    /// ("initialized with a special 'managed' flag", §5 "NIC setup").
    pub sq_managed: bool,
    /// Port to bind to (0-based; must be < NIC's port count).
    pub port: usize,
    /// Pin the SQ to a specific processing unit on that port. RedN uses
    /// explicit placement to parallelize independent chains (§3.5
    /// "Parallelism", Fig 11's RedN-Parallel). `None` = round-robin.
    pub pu: Option<usize>,
}

impl QpConfig {
    /// Reasonable defaults: both CQs the same, 128-deep queues, unmanaged,
    /// port 0, round-robin PU.
    pub fn new(cq: CqId) -> QpConfig {
        QpConfig {
            send_cq: cq,
            recv_cq: cq,
            sq_depth: 128,
            rq_depth: 128,
            sq_managed: false,
            port: 0,
            pu: None,
        }
    }

    /// Use a distinct receive CQ.
    pub fn recv_cq(mut self, cq: CqId) -> QpConfig {
        self.recv_cq = cq;
        self
    }

    /// Set send-queue depth.
    pub fn sq_depth(mut self, depth: u32) -> QpConfig {
        self.sq_depth = depth;
        self
    }

    /// Set receive-queue depth.
    pub fn rq_depth(mut self, depth: u32) -> QpConfig {
        self.rq_depth = depth;
        self
    }

    /// Put the send queue in managed (no-prefetch) mode.
    pub fn managed(mut self) -> QpConfig {
        self.sq_managed = true;
        self
    }

    /// Bind to a port.
    pub fn on_port(mut self, port: usize) -> QpConfig {
        self.port = port;
        self
    }

    /// Pin the send queue to a processing unit.
    pub fn on_pu(mut self, pu: usize) -> QpConfig {
        self.pu = Some(pu);
        self
    }
}

/// A queue pair.
#[derive(Debug)]
pub(crate) struct QueuePair {
    /// Owning node.
    pub node: NodeId,
    /// Send queue id.
    pub sq: WqId,
    /// Receive queue id.
    pub rq: WqId,
    /// Send-side CQ.
    pub send_cq: CqId,
    /// Receive-side CQ.
    pub recv_cq: CqId,
    /// Connected peer QP (None until `connect_qps`).
    pub peer: Option<QpId>,
    /// Bound port.
    pub port: usize,
    /// Monotonic count of RECVs consumed (the RQ's execution pointer).
    pub recv_consumed: u64,
    /// In-flight message keys waiting for a RECV (receiver-not-ready
    /// queue; RC retries delivery when a RECV is posted).
    pub rnr_queue: VecDeque<u64>,
    /// Set when the owning process died and the OS reclaimed this QP's
    /// resources. Arrivals fail, the queues freeze (§5.6).
    pub dead: bool,
}

impl QueuePair {
    /// Create an unconnected QP.
    pub(crate) fn new(
        node: NodeId,
        sq: WqId,
        rq: WqId,
        send_cq: CqId,
        recv_cq: CqId,
        port: usize,
    ) -> QueuePair {
        QueuePair {
            node,
            sq,
            rq,
            send_cq,
            recv_cq,
            peer: None,
            port,
            recv_consumed: 0,
            rnr_queue: VecDeque::new(),
            dead: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_chains() {
        let cfg = QpConfig::new(CqId(1))
            .recv_cq(CqId(2))
            .sq_depth(64)
            .rq_depth(32)
            .managed()
            .on_port(1)
            .on_pu(3);
        assert_eq!(cfg.send_cq, CqId(1));
        assert_eq!(cfg.recv_cq, CqId(2));
        assert_eq!(cfg.sq_depth, 64);
        assert_eq!(cfg.rq_depth, 32);
        assert!(cfg.sq_managed);
        assert_eq!(cfg.port, 1);
        assert_eq!(cfg.pu, Some(3));
    }

    #[test]
    fn default_config_shares_cq() {
        let cfg = QpConfig::new(CqId(9));
        assert_eq!(cfg.send_cq, cfg.recv_cq);
        assert!(!cfg.sq_managed);
        assert_eq!(cfg.pu, None);
    }
}
