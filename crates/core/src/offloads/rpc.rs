//! SEND-triggered RPC offload plumbing (paper Fig 3).
//!
//! The server pre-posts a chain that starts with a WAIT on its receive
//! CQ. A client SEND consumes a pre-posted RECV whose scatter list aims
//! *into the posted WQEs* — injecting the RPC arguments directly into the
//! offload program — and its receive completion releases the WAIT: the
//! NIC executes the handler with zero CPU involvement.
//!
//! Note the security property the paper highlights (§3.5 "Security"):
//! the client only ever issues two-sided SENDs — it needs *no* rkeys to
//! the server's memory, unlike one-sided designs such as FaRM.

use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{CqId, NodeId, QpId};
use rnic_sim::mem::MemoryRegion;
use rnic_sim::sim::Simulator;
use rnic_sim::wqe::{Sge, WorkRequest, SGE_SIZE};

use crate::program::{ChainQueue, ConstPool};

/// Most entries a RECV scatters into — the ConnectX limit the paper
/// leans on (§5.3).
const RECV_SCATTER_LIMIT: usize = 16;

/// A server-side trigger endpoint: the client-facing QP whose receive CQ
/// fires offloaded chains, and whose *managed* send queue carries the
/// patched response WQEs.
#[derive(Clone, Copy, Debug)]
pub struct TriggerPoint {
    /// Client-facing QP (connect the client's QP to this).
    pub qp: QpId,
    /// Receive CQ — the WAIT target that fires chains.
    pub recv_cq: CqId,
    /// Send CQ of the response queue.
    pub send_cq: CqId,
    /// The response ring region (response WQEs get transmuted in place).
    pub ring: MemoryRegion,
    /// Node the endpoint lives on.
    pub node: NodeId,
}

impl TriggerPoint {
    /// The endpoint's managed send queue as a chain queue, so programs
    /// can stage the response WQEs they patch and release onto it.
    pub(crate) fn response_queue(&self, sim: &Simulator) -> ChainQueue {
        let sq = sim.sq_of(self.qp);
        ChainQueue {
            qp: self.qp,
            peer: self.qp, // unused: responses go to the connected client
            sq,
            cq: self.send_cq,
            ring: self.ring,
            managed: true,
            depth: sim.wq_depth(sq),
            node: self.node,
        }
    }

    /// Post a trigger RECV whose scatter list injects the incoming
    /// payload into the given `(addr, lkey, len)` targets, in order.
    /// Builds the SGE table in the constant pool. Returns the RECV
    /// index; more than 16 targets is refused as by
    /// [`TriggerPoint::post_trigger_recv_prebuilt`].
    pub(crate) fn post_trigger_recv(
        &self,
        sim: &mut Simulator,
        pool: &mut ConstPool,
        scatter: &[(u64, u32, u32)],
    ) -> Result<u64> {
        let mut table = [0u8; RECV_SCATTER_LIMIT * SGE_SIZE as usize];
        for (entry, &(addr, lkey, len)) in table.chunks_exact_mut(SGE_SIZE as usize).zip(scatter) {
            entry.copy_from_slice(&Sge { addr, lkey, len }.encode());
        }
        let used = scatter.len().min(RECV_SCATTER_LIMIT) * SGE_SIZE as usize;
        let table_addr = pool.push_bytes(sim, &table[..used])?;
        let entries = u32::try_from(scatter.len()).unwrap_or(u32::MAX);
        self.post_trigger_recv_prebuilt(sim, table_addr, entries)
    }

    /// Post a trigger RECV over an SGE table of `entries` entries at
    /// `table_addr` — the one place a trigger RECV is written. Returns
    /// the RECV index. More than 16 entries (the ConnectX scatter limit,
    /// §5.3) is an `InvalidWr`, and nothing is posted.
    pub(crate) fn post_trigger_recv_prebuilt(
        &self,
        sim: &mut Simulator,
        table_addr: u64,
        entries: u32,
    ) -> Result<u64> {
        if entries as usize > RECV_SCATTER_LIMIT {
            return Err(Error::InvalidWr("RECVs can only perform 16 scatters"));
        }
        sim.post_recv(self.qp, WorkRequest::recv_sgl(table_addr, entries))
    }
}

/// Client-side helper: build the trigger SEND for a payload staged at
/// `(addr, lkey)`.
pub fn trigger_send(addr: u64, lkey: u32, len: u32) -> WorkRequest {
    WorkRequest::send(addr, lkey, len).signaled()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::TriggerPointBuilder;
    use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
    use rnic_sim::ids::ProcessId;
    use rnic_sim::mem::Access;
    use rnic_sim::qp::QpConfig;

    #[test]
    fn trigger_scatter_injects_arguments() {
        let mut sim = Simulator::new(SimConfig::default());
        let c = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
        let s = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        sim.connect_nodes(c, s, LinkConfig::back_to_back());

        let tp = TriggerPointBuilder::new(s, ProcessId(0))
            .build(&mut sim)
            .unwrap();
        let ccq = sim.create_cq(c, 16).unwrap();
        let cqp = sim.create_qp(c, QpConfig::new(ccq)).unwrap();
        sim.connect_qps(cqp, tp.qp).unwrap();

        let mut pool = ConstPool::create(&mut sim, s, 4096, ProcessId(0)).unwrap();
        // Two argument cells on the server.
        let a1 = pool.reserve(&mut sim, 8).unwrap();
        let a2 = pool.reserve(&mut sim, 8).unwrap();
        let mr = pool.mr();
        tp.post_trigger_recv(&mut sim, &mut pool, &[(a1, mr.lkey, 8), (a2, mr.lkey, 6)])
            .unwrap();

        // Client sends 14 bytes: [u64][48-bit].
        let src = sim.alloc(c, 16, 8).unwrap();
        let smr = sim.register_mr(c, src, 16, Access::all()).unwrap();
        sim.mem_write(c, src, &0xAABB_CCDDu64.to_le_bytes())
            .unwrap();
        sim.mem_write(c, src + 8, &0x1122_3344_5566u64.to_le_bytes()[..6])
            .unwrap();
        sim.post_send(cqp, trigger_send(src, smr.lkey, 14)).unwrap();
        sim.run().unwrap();

        assert_eq!(sim.mem_read_u64(s, a1).unwrap(), 0xAABB_CCDD);
        assert_eq!(sim.mem_read_u64(s, a2).unwrap(), 0x1122_3344_5566);
        assert_eq!(sim.cq_total(tp.recv_cq), 1);
    }

    #[test]
    fn scatter_limit_enforced() {
        let mut sim = Simulator::new(SimConfig::default());
        let s = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        let tp = TriggerPointBuilder::new(s, ProcessId(0))
            .build(&mut sim)
            .unwrap();
        let mut pool = ConstPool::create(&mut sim, s, 4096, ProcessId(0)).unwrap();
        // Both entry points refuse a 17-way scatter with a typed error
        // and post nothing; 16 is fine.
        let entries = vec![(0x1_0000u64, 0u32, 1u32); 17];
        let err = tp.post_trigger_recv(&mut sim, &mut pool, &entries);
        assert!(matches!(err, Err(Error::InvalidWr(m)) if m.contains("16 scatters")));
        let table = pool.reserve(&mut sim, 17 * SGE_SIZE).unwrap();
        assert!(tp.post_trigger_recv_prebuilt(&mut sim, table, 17).is_err());
        assert_eq!(sim.rq_posted(tp.qp), 0);
        assert_eq!(
            tp.post_trigger_recv_prebuilt(&mut sim, table, 16).unwrap(),
            0
        );
        assert_eq!(
            tp.post_trigger_recv(&mut sim, &mut pool, &entries[..16])
                .unwrap(),
            1
        );
    }
}
