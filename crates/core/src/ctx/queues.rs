//! Fluent builders for the server-side offload resources: chain queues
//! and trigger points (a constant pool comes with every
//! [`OffloadCtx`](crate::ctx::OffloadCtx), or from
//! [`ConstPool::create`](crate::program::ConstPool::create)).
//!
//! These builders are the **only** place in the crate that performs the
//! underlying QP/CQ/MR plumbing.

use rnic_sim::error::Result;
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::Simulator;

use crate::offloads::rpc::TriggerPoint;
use crate::program::ChainQueue;

/// Fluent builder for a loopback [`ChainQueue`]. Obtain one from
/// [`OffloadCtx::chain_queue`](crate::ctx::OffloadCtx::chain_queue) (which
/// fills in node/owner) or standalone via [`ChainQueueBuilder::new`].
#[derive(Clone, Copy, Debug)]
pub struct ChainQueueBuilder {
    node: NodeId,
    owner: ProcessId,
    managed: bool,
    depth: u32,
    pu: Option<usize>,
    port: usize,
}

impl ChainQueueBuilder {
    /// Start building a chain queue on `node` owned by `owner`.
    /// Defaults: unmanaged, depth 64, NIC port 0, no PU pinning.
    pub fn new(node: NodeId, owner: ProcessId) -> ChainQueueBuilder {
        ChainQueueBuilder {
            node,
            owner,
            managed: false,
            depth: 64,
            pu: None,
            port: 0,
        }
    }

    /// Managed mode: fetch gated by ENABLE, required for any queue whose
    /// WQEs are modified in place (§3.1's consistency hazard).
    pub fn managed(mut self) -> ChainQueueBuilder {
        self.managed = true;
        self
    }

    /// Ring depth in WQE slots.
    pub fn depth(mut self, depth: u32) -> ChainQueueBuilder {
        self.depth = depth;
        self
    }

    /// Pin the queue to a processing unit — RedN places independent
    /// chains on different PUs to parallelize (§3.5, Fig 11).
    pub fn on_pu(mut self, pu: usize) -> ChainQueueBuilder {
        self.pu = Some(pu);
        self
    }

    /// Bind to a specific NIC port (Table 4's dual-port configuration).
    pub(crate) fn on_port(mut self, port: usize) -> ChainQueueBuilder {
        self.port = port;
        self
    }

    /// Create the queue: a QP pair connected in loopback, with the
    /// send-queue ring registered for RDMA access (the "code region").
    /// Its CQ is a counting CQ: WAITs read its count, no host polls it.
    pub fn build(self, sim: &mut Simulator) -> Result<ChainQueue> {
        let cq = sim.create_counting_cq(self.node);
        let mut cfg = QpConfig::new(cq)
            .sq_depth(self.depth)
            .rq_depth(8)
            .on_port(self.port);
        if self.managed {
            cfg = cfg.managed();
        }
        if let Some(pu) = self.pu {
            cfg = cfg.on_pu(pu);
        }
        let qp = sim.create_qp_owned(self.node, cfg, self.owner)?;
        // The loopback peer only terminates the connection; it needs no
        // meaningful queues of its own.
        let peer = sim.create_qp_owned(
            self.node,
            QpConfig::new(cq).sq_depth(8).rq_depth(8).on_port(self.port),
            self.owner,
        )?;
        sim.connect_qps(qp, peer)?;
        let ring = sim.register_sq_ring(qp, self.owner)?;
        Ok(ChainQueue {
            qp,
            peer,
            sq: sim.sq_of(qp),
            cq,
            ring,
            managed: self.managed,
            depth: self.depth,
            node: self.node,
        })
    }
}

/// Fluent builder for a client-facing [`TriggerPoint`]. Obtain one from
/// [`OffloadCtx::trigger_point`](crate::ctx::OffloadCtx::trigger_point).
#[derive(Clone, Copy, Debug)]
pub struct TriggerPointBuilder {
    node: NodeId,
    owner: ProcessId,
    pu: Option<usize>,
    port: usize,
    sq_depth: u32,
    rq_depth: u32,
}

impl TriggerPointBuilder {
    /// Start building a trigger endpoint on `node` owned by `owner`.
    /// Defaults: NIC port 0, no PU pinning, 1024-deep queues.
    pub(crate) fn new(node: NodeId, owner: ProcessId) -> TriggerPointBuilder {
        TriggerPointBuilder {
            node,
            owner,
            pu: None,
            port: 0,
            sq_depth: 1024,
            rq_depth: 1024,
        }
    }

    /// Response (send) ring depth. Self-recycling offloads size this to
    /// exactly one round of response WQEs so the ring wraps per round.
    pub(crate) fn sq_depth(mut self, depth: u32) -> TriggerPointBuilder {
        self.sq_depth = depth;
        self
    }

    /// Trigger (receive) ring depth. Self-recycling offloads size this to
    /// one round of trigger RECVs and mark the ring cyclic.
    pub(crate) fn rq_depth(mut self, depth: u32) -> TriggerPointBuilder {
        self.rq_depth = depth;
        self
    }

    /// Pin the response queue to a processing unit.
    pub(crate) fn on_pu(mut self, pu: usize) -> TriggerPointBuilder {
        self.pu = Some(pu);
        self
    }

    /// Bind to a specific NIC port.
    pub(crate) fn on_port(mut self, port: usize) -> TriggerPointBuilder {
        self.port = port;
        self
    }

    /// Create the endpoint. The send queue is managed: response WQEs are
    /// NOOPs transmuted by the offload program, so they must not be
    /// prefetched. Both CQs are counting CQs: the server does no host
    /// work, so only WAIT thresholds read them.
    pub fn build(self, sim: &mut Simulator) -> Result<TriggerPoint> {
        let recv_cq = sim.create_counting_cq(self.node);
        let send_cq = sim.create_counting_cq(self.node);
        let mut cfg = QpConfig::new(send_cq)
            .recv_cq(recv_cq)
            .sq_depth(self.sq_depth)
            .rq_depth(self.rq_depth)
            .on_port(self.port)
            .managed();
        if let Some(pu) = self.pu {
            cfg = cfg.on_pu(pu);
        }
        let qp = sim.create_qp_owned(self.node, cfg, self.owner)?;
        let ring = sim.register_sq_ring(qp, self.owner)?;
        Ok(TriggerPoint {
            qp,
            recv_cq,
            send_cq,
            ring,
            node: self.node,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
    use rnic_sim::wqe::WQE_SIZE;

    fn sim_one() -> (Simulator, NodeId) {
        let mut sim = Simulator::new(SimConfig::default());
        let n = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        (sim, n)
    }

    #[test]
    fn chain_queue_builder_defaults_and_knobs() {
        let (mut sim, n) = sim_one();
        let q = ChainQueueBuilder::new(n, ProcessId(0))
            .build(&mut sim)
            .unwrap();
        assert!(!q.managed);
        assert_eq!(q.depth, 64);
        assert_eq!(q.ring.len, 64 * WQE_SIZE);

        let q2 = ChainQueueBuilder::new(n, ProcessId(0))
            .managed()
            .depth(32)
            .on_pu(3)
            .build(&mut sim)
            .unwrap();
        assert!(q2.managed);
        assert_eq!(q2.depth, 32);
        assert_ne!(q.sq, q2.sq);
    }

    #[test]
    fn trigger_point_builder_is_managed_endpoint() {
        let (mut sim, n) = sim_one();
        let tp = TriggerPointBuilder::new(n, ProcessId(0))
            .on_pu(0)
            .build(&mut sim)
            .unwrap();
        assert_eq!(tp.node, n);
        assert_ne!(tp.recv_cq, tp.send_cq);
    }
}
