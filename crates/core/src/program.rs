//! Offload program resources: chain queues and constant pools.
//!
//! A RedN offload on a server consists of (§3.5 "Offload setup"):
//!
//! * one or more **chain queues** — loopback-connected QPs on the server
//!   whose send queues hold the offloaded WR chains. Queues whose WQEs get
//!   modified in place run in *managed* mode (no prefetch). The rings are
//!   registered for RDMA access (the "code region") so chains can patch
//!   each other;
//! * a **constant pool** — a registered scratch region holding immediates,
//!   pristine WQE images for self-restoring loops, and response
//!   templates (the "data region" is application memory, e.g. the
//!   key-value store's tables);
//! * a client-facing **trigger** QP (see [`crate::offloads::rpc`]).

use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{CqId, NodeId, ProcessId, QpId, WqId};
use rnic_sim::mem::{Access, MemoryRegion};
use rnic_sim::sim::Simulator;
use rnic_sim::wqe::WQE_SIZE;

use crate::encode::WqeField;

/// A loopback chain queue: the home of an offloaded WR chain.
#[derive(Clone, Copy, Debug)]
pub struct ChainQueue {
    /// QP whose send queue holds the chain.
    pub qp: QpId,
    /// The loopback peer QP (its node's memory is the chain's "remote").
    pub(crate) peer: QpId,
    /// The send queue id (ENABLE verbs target this).
    pub sq: WqId,
    /// Completion queue receiving the chain's signaled completions.
    pub cq: CqId,
    /// The ring registered as a code region (for self-modification).
    pub ring: MemoryRegion,
    /// Whether the queue is managed (fetch gated by ENABLE).
    pub managed: bool,
    /// Ring depth in WQE slots.
    pub(crate) depth: u32,
    /// Node the queue lives on.
    pub node: NodeId,
}

impl ChainQueue {
    /// Address of the slot WQE index `idx` occupies.
    pub fn slot_addr(&self, idx: u64) -> u64 {
        self.ring.addr + (idx % self.depth as u64) * WQE_SIZE
    }

    /// Address of `field` of the WQE at index `idx` — the patch points
    /// self-modifying verbs aim at.
    pub fn field_addr(&self, idx: u64, field: WqeField) -> u64 {
        self.slot_addr(idx) + field.offset()
    }
}

/// An active per-tenant allocation budget (see
/// [`ConstPool::begin_budget`]).
struct Budget {
    label: String,
    byte_cap: u64,
    bytes: u64,
    leases: u64,
}

/// A registered scratch region for constants, with bump allocation.
pub struct ConstPool {
    /// Node the pool lives on.
    pub node: NodeId,
    base: u64,
    cap: u64,
    used: u64,
    leases: u64,
    mr: MemoryRegion,
    budget: Option<Budget>,
    /// Host-side working memory of the deploys onto this pool: absent
    /// until the first one, and again after a release.
    pub(crate) scratch: Option<Box<crate::ir::Scratch>>,
}

impl ConstPool {
    /// Allocate and register a pool of `cap` bytes.
    pub fn create(
        sim: &mut Simulator,
        node: NodeId,
        cap: u64,
        owner: ProcessId,
    ) -> Result<ConstPool> {
        let base = sim.alloc(node, cap, 64)?;
        let mr = sim.register_mr_owned(node, base, cap, Access::all(), owner)?;
        Ok(ConstPool {
            node,
            base,
            cap,
            used: 0,
            leases: 0,
            mr,
            budget: None,
            scratch: None,
        })
    }

    /// The pool's memory region (keys for chain verbs).
    pub fn mr(&self) -> MemoryRegion {
        self.mr
    }

    /// Stash raw bytes; returns their address. Errors (rather than
    /// panicking) when the pool is exhausted, matching the crate's
    /// `Result` idiom.
    pub(crate) fn push_bytes(&mut self, sim: &mut Simulator, bytes: &[u8]) -> Result<u64> {
        // Keep everything 8-byte aligned: atomics and header words require
        // it, and alignment costs almost nothing here.
        let aligned = (self.used + 7) & !7;
        let addr = self.base + aligned;
        if aligned + bytes.len() as u64 > self.cap {
            return Err(Error::InvalidWr("constant pool exhausted"));
        }
        let consumed = aligned + bytes.len() as u64 - self.used;
        if let Some(b) = &mut self.budget {
            if b.bytes + consumed > b.byte_cap {
                return Err(Error::Quota(format!(
                    "tenant '{}' const-pool quota exceeded: {} + {} > {} bytes",
                    b.label, b.bytes, consumed, b.byte_cap
                )));
            }
            b.bytes += consumed;
            b.leases += 1;
        }
        sim.mem_write(self.node, addr, bytes)?;
        self.used = aligned + bytes.len() as u64;
        self.leases += 1;
        Ok(addr)
    }

    /// Start charging every subsequent allocation against `label`'s
    /// byte budget. An allocation that would push the charged total past
    /// `byte_cap` fails with [`Error::Quota`] naming the tenant — the
    /// quota-at-lowering half of admission control (deduplicated
    /// constants that intern to earlier cells cost nothing, so a tenant
    /// is charged only for the bytes it actually forces the pool to
    /// grow by).
    pub fn begin_budget(&mut self, label: impl Into<String>, byte_cap: u64) {
        self.budget = Some(Budget {
            label: label.into(),
            byte_cap,
            bytes: 0,
            leases: 0,
        });
    }

    /// Stop budgeted accounting; returns `(bytes_charged, leases_taken)`
    /// since the matching [`ConstPool::begin_budget`].
    pub fn end_budget(&mut self) -> (u64, u64) {
        match self.budget.take() {
            Some(b) => (b.bytes, b.leases),
            None => (0, 0),
        }
    }

    /// Free the working memory that deploys onto this pool have grown
    /// (see `ir::Scratch`; the next deploy grows it again). Whoever
    /// deploys many programs in a row — a fleet, a cluster session —
    /// calls this once they are up, so the memory that made their
    /// deploys cheap is not held while they serve.
    pub fn release_scratch(&mut self) {
        self.scratch = None;
    }

    /// Stash a u64 constant; returns its address.
    pub fn push_u64(&mut self, sim: &mut Simulator, v: u64) -> Result<u64> {
        self.push_bytes(sim, &v.to_le_bytes())
    }

    /// Reserve zeroed space (e.g. a register or a scratch word).
    pub(crate) fn reserve(&mut self, sim: &mut Simulator, len: u64) -> Result<u64> {
        // Registers and staging cells are small: no buffer per cell.
        const ZEROS: [u8; 256] = [0; 256];
        match ZEROS.get(..len as usize) {
            Some(zeros) => self.push_bytes(sim, zeros),
            None => self.push_bytes(sim, &vec![0u8; len as usize]),
        }
    }

    /// Bytes used so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Peak bytes ever allocated — the bump cursor is monotonic, so this
    /// equals [`ConstPool::used`]; named for the accounting reports that
    /// track it over time (a serving loop whose high-water mark moves is
    /// leaking pool capacity per request).
    pub fn high_water(&self) -> u64 {
        self.used
    }

    /// Number of successful allocations (pushes and reserves) served.
    /// With the IR's const-pool deduplication, a steady-state serving
    /// loop holds this flat: identical constants intern to earlier cells
    /// instead of taking new leases.
    pub fn leases(&self) -> u64 {
        self.leases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ChainQueueBuilder;
    use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
    use rnic_sim::wqe::WorkRequest;

    fn sim_one() -> (Simulator, NodeId) {
        let mut sim = Simulator::new(SimConfig::default());
        let n = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        (sim, n)
    }

    #[test]
    fn chain_queue_is_loopback_and_registered() {
        let (mut sim, n) = sim_one();
        let q = ChainQueueBuilder::new(n, ProcessId(0))
            .managed()
            .depth(32)
            .build(&mut sim)
            .unwrap();
        assert_eq!(q.node, n);
        assert!(q.managed);
        // The ring region covers all slots.
        assert_eq!(q.ring.len, 32 * WQE_SIZE);
        assert_eq!(q.slot_addr(0), q.ring.addr);
        assert_eq!(q.slot_addr(32), q.ring.addr); // wraps
        assert_eq!(q.field_addr(1, WqeField::Header), q.ring.addr + WQE_SIZE);
        // A verb posted through the chain QP can write the server's own
        // memory (loopback).
        let buf = sim.alloc(n, 16, 8).unwrap();
        let mr = sim.register_mr(n, buf, 16, Access::all()).unwrap();
        sim.mem_write_u64(n, buf, 0x42).unwrap();
        // Unmanaged queue for a direct test.
        let q2 = ChainQueueBuilder::new(n, ProcessId(0))
            .depth(8)
            .build(&mut sim)
            .unwrap();
        sim.post_send(q2.qp, WorkRequest::write(buf, mr.lkey, 8, buf + 8, mr.rkey))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(n, buf + 8).unwrap(), 0x42);
    }

    #[test]
    fn chain_queue_pu_pinning() {
        let (mut sim, n) = sim_one();
        let q1 = ChainQueueBuilder::new(n, ProcessId(0))
            .depth(8)
            .on_pu(3)
            .build(&mut sim)
            .unwrap();
        let q2 = ChainQueueBuilder::new(n, ProcessId(0))
            .depth(8)
            .on_pu(5)
            .build(&mut sim)
            .unwrap();
        assert_ne!(q1.sq, q2.sq);
    }

    #[test]
    fn ctx_builder_is_the_construction_path() {
        // Successor of the removed `ChainQueue::create*` shim test: the
        // same configuration, expressed through the ctx builder.
        let (mut sim, n) = sim_one();
        let q = ChainQueueBuilder::new(n, ProcessId(0))
            .managed()
            .depth(16)
            .on_pu(1)
            .build(&mut sim)
            .unwrap();
        assert!(q.managed);
        assert_eq!(q.depth, 16);
    }

    #[test]
    fn const_pool_alignment_and_round_trip() {
        let (mut sim, n) = sim_one();
        let mut pool = ConstPool::create(&mut sim, n, 256, ProcessId(0)).unwrap();
        let a = pool.push_bytes(&mut sim, &[1, 2, 3]).unwrap();
        let b = pool.push_u64(&mut sim, 0xDEAD).unwrap();
        assert_eq!(b % 8, 0);
        assert!(b >= a + 3);
        assert_eq!(sim.mem_read_u64(n, b).unwrap(), 0xDEAD);
        let c = pool.reserve(&mut sim, 16).unwrap();
        assert_eq!(sim.mem_read_u64(n, c).unwrap(), 0);
        assert!(pool.used() >= 24);
    }

    #[test]
    fn const_pool_overflow_is_an_error_not_a_panic() {
        let (mut sim, n) = sim_one();
        let mut pool = ConstPool::create(&mut sim, n, 16, ProcessId(0)).unwrap();
        let err = pool.push_bytes(&mut sim, &[0; 24]).unwrap_err();
        assert!(format!("{err}").contains("constant pool exhausted"));
        // The failed push leaves the pool usable and its cursor untouched.
        assert_eq!(pool.used(), 0);
        assert!(pool.push_bytes(&mut sim, &[0; 16]).is_ok());
    }
}
