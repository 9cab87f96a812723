//! Host API, part 1 — resources: memory, memory regions, completion
//! queues and queue pairs. Everything here is an instantaneous
//! control-plane action; nothing schedules an event.

use super::Simulator;
use crate::cq::CompletionQueue;
use crate::error::{Error, Result};
use crate::ids::{CqId, NodeId, ProcessId, QpId, WqId};
use crate::mem::{Access, HostMemory, MemoryRegion};
use crate::qp::{QpConfig, QueuePair};
use crate::rate::RateLimiter;
use crate::time::Time;
use crate::wq::{WorkQueue, WqBlock, WqKind};
use crate::wqe::WQE_SIZE;

impl Simulator {
    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// Allocate `len` bytes (aligned) in a node's DRAM.
    pub fn alloc(&mut self, node: NodeId, len: u64, align: u64) -> Result<u64> {
        self.mems[node.index()].alloc(len, align)
    }

    /// Register a memory region owned by the node's init process.
    pub fn register_mr(
        &mut self,
        node: NodeId,
        addr: u64,
        len: u64,
        access: Access,
    ) -> Result<MemoryRegion> {
        self.register_mr_owned(node, addr, len, access, ProcessId(0))
    }

    /// Register a memory region with an explicit owning process.
    pub fn register_mr_owned(
        &mut self,
        node: NodeId,
        addr: u64,
        len: u64,
        access: Access,
        owner: ProcessId,
    ) -> Result<MemoryRegion> {
        self.mems[node.index()].register(addr, len, access, owner)
    }

    /// Host CPU write (no key checks).
    pub fn mem_write(&mut self, node: NodeId, addr: u64, bytes: &[u8]) -> Result<()> {
        self.mems[node.index()].write(addr, bytes)
    }

    /// Host CPU read (no key checks).
    pub fn mem_read(&self, node: NodeId, addr: u64, len: u64) -> Result<Vec<u8>> {
        Ok(self.mems[node.index()].read(addr, len)?.to_vec())
    }

    /// Host CPU u64 write.
    pub fn mem_write_u64(&mut self, node: NodeId, addr: u64, v: u64) -> Result<()> {
        self.mems[node.index()].write_u64(addr, v)
    }

    /// Host CPU u64 read.
    pub fn mem_read_u64(&self, node: NodeId, addr: u64) -> Result<u64> {
        self.mems[node.index()].read_u64(addr)
    }

    /// Direct access to a node's memory (advanced use: substrates that
    /// build in-memory structures, e.g. hash tables).
    pub fn mem(&mut self, node: NodeId) -> &mut HostMemory {
        &mut self.mems[node.index()]
    }

    /// The registered region `key` resolves to on `node` (rkey when
    /// `remote`, lkey otherwise), or `None` when unregistered there — the
    /// read-only lookup deploy-time bounds analysis runs against.
    pub fn mr_by_key(&self, node: NodeId, key: u32, remote: bool) -> Option<&MemoryRegion> {
        self.mems[node.index()].region_by_key(key, remote)
    }

    // ------------------------------------------------------------------
    // Queues
    // ------------------------------------------------------------------

    /// Create a completion queue.
    pub fn create_cq(&mut self, node: NodeId, depth: u32) -> Result<CqId> {
        let max = self.nics[node.index()].config.max_cq_depth as u32;
        if depth == 0 || depth > max {
            return Err(Error::InvalidWr("bad CQ depth"));
        }
        let id = CqId(self.cqs.len() as u32);
        self.cqs.push(CompletionQueue::new(node, depth));
        Ok(id)
    }

    /// Create a counting completion queue, for CQs whose only reader is
    /// a WAIT threshold: its monotonic count, WAIT waiters, heartbeat and
    /// trace record work as on any CQ, and a listener or the ready set
    /// still hears of each CQE, but it keeps no pollable entries and
    /// never overruns (`IBV_CREATE_CQ_ATTR_IGNORE_OVERRUN`).
    pub fn create_counting_cq(&mut self, node: NodeId) -> CqId {
        let id = CqId(self.cqs.len() as u32);
        self.cqs.push(CompletionQueue::counting(node));
        id
    }

    /// Create a queue pair owned by the node's init process.
    pub fn create_qp(&mut self, node: NodeId, cfg: QpConfig) -> Result<QpId> {
        self.create_qp_owned(node, cfg, ProcessId(0))
    }

    /// Create a queue pair owned by `owner`; its rings die with the owner
    /// (unless the owner is a long-lived hull process — §5.6).
    pub fn create_qp_owned(
        &mut self,
        node: NodeId,
        cfg: QpConfig,
        owner: ProcessId,
    ) -> Result<QpId> {
        let nic_cfg = &self.nics[node.index()].config;
        if cfg.port >= nic_cfg.ports {
            return Err(Error::InvalidWr("port out of range"));
        }
        if cfg.pu.is_some_and(|pu| pu >= nic_cfg.pus_per_port) {
            return Err(Error::InvalidWr("PU index out of range"));
        }
        if cfg.sq_depth == 0
            || cfg.rq_depth == 0
            || cfg.sq_depth as usize > nic_cfg.max_wq_depth
            || cfg.rq_depth as usize > nic_cfg.max_wq_depth
        {
            return Err(Error::InvalidWr("bad WQ depth"));
        }
        for cq in [cfg.send_cq, cfg.recv_cq] {
            let cq = self
                .cqs
                .get(cq.index())
                .ok_or(Error::UnknownEntity("cq", cq.0))?;
            if cq.node != node {
                return Err(Error::InvalidWr("CQ on a different node"));
            }
        }
        let sq_ring = self.alloc(node, cfg.sq_depth as u64 * WQE_SIZE, 64)?;
        let rq_ring = self.alloc(node, cfg.rq_depth as u64 * WQE_SIZE, 64)?;
        let qp_id = QpId(self.qps.len() as u32);
        let sq_id = WqId(self.wqs.len() as u32);
        let rq_id = WqId(self.wqs.len() as u32 + 1);
        let pu = self.nics[node.index()].assign_pu(cfg.port, cfg.pu);
        self.wqs.push(WorkQueue::new(
            qp_id,
            node,
            WqKind::Send,
            sq_ring,
            cfg.sq_depth,
            cfg.sq_managed,
            cfg.port,
            pu,
        ));
        self.wqs.push(WorkQueue::new(
            qp_id,
            node,
            WqKind::Recv,
            rq_ring,
            cfg.rq_depth,
            false,
            cfg.port,
            pu,
        ));
        self.qps.push(QueuePair::new(
            node,
            sq_id,
            rq_id,
            cfg.send_cq,
            cfg.recv_cq,
            cfg.port,
        ));
        self.qp_owner.push(owner);
        Ok(qp_id)
    }

    /// Connect two QPs as an RC pair. Both directions are wired; the QPs
    /// may live on the same node (loopback).
    pub fn connect_qps(&mut self, a: QpId, b: QpId) -> Result<()> {
        if a == b {
            return Err(Error::BadQpState(a, "cannot self-connect"));
        }
        let (na, nb) = (self.qps[a.index()].node, self.qps[b.index()].node);
        if self.one_way(na, nb).is_none() {
            return Err(Error::BadQpState(a, "no link between nodes"));
        }
        if self.qps[a.index()].peer.is_some() || self.qps[b.index()].peer.is_some() {
            return Err(Error::BadQpState(a, "already connected"));
        }
        self.qps[a.index()].peer = Some(b);
        self.qps[b.index()].peer = Some(a);
        Ok(())
    }

    /// The send queue of a QP.
    pub fn sq_of(&self, qp: QpId) -> WqId {
        self.qps[qp.index()].sq
    }

    /// The receive queue of a QP.
    pub fn rq_of(&self, qp: QpId) -> WqId {
        self.qps[qp.index()].rq
    }

    /// Receive-side CQ of a QP.
    pub fn recv_cq_of(&self, qp: QpId) -> CqId {
        self.qps[qp.index()].recv_cq
    }

    /// Node that owns a QP.
    pub fn node_of_qp(&self, qp: QpId) -> NodeId {
        self.qps[qp.index()].node
    }

    /// Host-memory address of the slot WQE `idx` occupies in the SQ ring.
    /// RedN constructs aim verbs at `addr + field offset` to patch WQEs.
    pub fn sq_wqe_addr(&self, qp: QpId, idx: u64) -> u64 {
        self.wqs[self.sq_of(qp).index()].slot_addr(idx)
    }

    /// Number of WQEs posted to the SQ so far (the next post gets this
    /// index).
    pub fn sq_posted(&self, qp: QpId) -> u64 {
        self.wqs[self.sq_of(qp).index()].posted
    }

    /// How many WQEs the SQ can take right now before a post fails with
    /// [`Error::WqFull`]. A dead QP — the other reason a post is refused
    /// — is an error here too, so a caller posting several queues can
    /// vet all of them before writing to any.
    pub fn sq_room(&self, qp: QpId) -> Result<u64> {
        let wq = &self.wqs[self.sq_of(qp).index()];
        if wq.block == WqBlock::Dead {
            return Err(Error::BadQpState(qp, "QP is dead"));
        }
        Ok(wq.room())
    }

    /// Number of WQEs posted to the RQ so far.
    pub fn rq_posted(&self, qp: QpId) -> u64 {
        self.wqs[self.rq_of(qp).index()].posted
    }

    /// Ring depth (in WQE slots) of a work queue.
    pub fn wq_depth(&self, wq: WqId) -> u32 {
        self.wqs[wq.index()].depth
    }

    /// Make the RQ of `qp` a cyclic receive ring: the NIC re-arms consumed
    /// RECVs as the ring wraps, so the pre-posted scatter programs serve
    /// forever with no further host posts (the receive-side analogue of
    /// §3.4's WQ recycling; real NICs expose this as cyclic receive
    /// buffers). Requires the ring to be fully posted first — every slot
    /// must already hold its RECV program.
    pub fn set_rq_cyclic(&mut self, qp: QpId) -> Result<()> {
        let rq = self.rq_of(qp);
        let wq = &mut self.wqs[rq.index()];
        if wq.posted < wq.depth as u64 {
            return Err(Error::InvalidWr(
                "cyclic RQ requires a fully posted ring (post every slot first)",
            ));
        }
        wq.cyclic = true;
        Ok(())
    }

    /// Register the SQ ring of `qp` as an RDMA-accessible memory region —
    /// the paper's "code region" (§3.5 "Offload setup"): self-modifying
    /// chains need verbs that can write into the ring.
    pub fn register_sq_ring(&mut self, qp: QpId, owner: ProcessId) -> Result<MemoryRegion> {
        let wq = &self.wqs[self.sq_of(qp).index()];
        let (node, base, len) = (wq.node, wq.base_addr, wq.ring_bytes());
        self.register_mr_owned(node, base, len, Access::all(), owner)
    }

    /// Rate-limit a QP's send queue (`ibv_modify_qp_rate_limit`).
    pub fn set_rate_limit(&mut self, qp: QpId, ops_per_sec: f64, burst: u64) {
        let sq = self.sq_of(qp);
        let wq = &mut self.wqs[sq.index()];
        wq.rate_limiter = Some(RateLimiter::new(ops_per_sec, burst));
        wq.rate_ops_per_sec = Some(ops_per_sec);
    }

    /// Monotonic completion count of a CQ (the WAIT target value).
    pub fn cq_total(&self, cq: CqId) -> u64 {
        self.cqs[cq.index()].total
    }

    /// Simulated time of the CQ's most recent completion
    /// ([`Time::ZERO`] if it never completed anything). Failure
    /// detectors use this as a heartbeat: a client whose ack CQ has been
    /// silent for longer than its timeout while requests are in flight
    /// declares the primary suspect (§5.6 failover detection).
    pub fn cq_last_completion(&self, cq: CqId) -> Time {
        self.cqs[cq.index()].last_completion
    }

    /// Whether the CQ has ever dropped a pollable entry because it was
    /// full. The monotonic [`cq_total`](Simulator::cq_total) count (and
    /// with it every WAIT threshold) keeps advancing through an overrun —
    /// only host-pollable entries are lost — so a pipelined fleet stalls
    /// visibly on missing completions rather than wedging the NIC; hosts
    /// check this flag to learn that polling undercounted.
    pub fn cq_overrun(&self, cq: CqId) -> bool {
        self.cqs[cq.index()].overrun
    }
}
