//! # `ctx` — the fluent offload-deployment API
//!
//! One [`OffloadCtx`] owns a server's offload resources — chain queues, a
//! constant pool, trigger points — and hands out everything else through
//! fluent builders and typed combinators:
//!
//! ```
//! use redn_core::ctx::OffloadCtx;
//! use rnic_sim::prelude::*;
//!
//! let mut sim = Simulator::new(SimConfig::default());
//! let server = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
//!
//! let mut ctx = OffloadCtx::new(&mut sim, server).unwrap();
//! // Resources come from fluent builders, not 7-argument constructors:
//! let queue = ctx.chain_queue().managed().depth(64).on_pu(3).build(&mut sim).unwrap();
//! assert!(queue.managed);
//!
//! // Constructs come from the ChainProgram combinator layer, which does
//! // all WAIT-threshold and patch-point arithmetic internally:
//! let flag = sim.alloc(server, 8, 8).unwrap();
//! let mr = sim.register_mr(server, flag, 8, Access::all()).unwrap();
//! let one = ctx.pool_mut().push_u64(&mut sim, 1).unwrap();
//! let pool_lkey = ctx.pool().mr().lkey;
//! let mut prog = ctx.chain_program(&mut sim).unwrap();
//! let branch = prog.if_eq(7, WorkRequest::write(one, pool_lkey, 8, flag, mr.rkey));
//! let armed = prog.deploy(&mut sim).unwrap();
//! branch.inject_x(&mut sim, 7).unwrap();
//! armed.launch(&mut sim).unwrap();
//! sim.run().unwrap();
//! assert_eq!(sim.mem_read_u64(server, flag).unwrap(), 1);
//! ```
//!
//! Offload deployment collects **typed capabilities** instead of loose
//! keys (see `caps`): `ctx.hash_get().table(t).values(v).respond_to(d)
//! .variant(Parallel).build(&mut sim)`.
//!
//! This module is the *only* construction path: the raw constructors it
//! replaced (`ChainQueue::create*`, `TriggerPoint::create*`,
//! `HashGetConfig`, `ListWalkConfig`) lived on as deprecated shims for
//! one release and have since been removed.

mod caps;
mod offloads;
mod program;
mod queues;

pub use caps::{ClientDest, TableRegion, ValueSource};
pub use offloads::{HashGetBuilder, ListWalkBuilder};
pub(crate) use offloads::{HashGetSpec, ListWalkSpec};
pub use program::{ArmedProgram, ChainProgram};
pub use queues::{ChainQueueBuilder, ConstPoolBuilder, TriggerPointBuilder};

use rnic_sim::error::Result;
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;

use crate::program::{ChainQueue, ConstPool};
use crate::turing::compile::CompiledTm;
use crate::turing::machine::TuringMachine;

/// Default capacity of the context-owned constant pool.
const DEFAULT_POOL_CAPACITY: u64 = 1 << 20;
/// Ring depths of the cached [`ChainProgram`] queue pair.
const PROGRAM_CTRL_DEPTH: u32 = 4096;
const PROGRAM_ACTION_DEPTH: u32 = 2048;

/// Owner of one server's offload resources; entry point of the fluent
/// deployment API.
pub struct OffloadCtx {
    node: NodeId,
    owner: ProcessId,
    port: usize,
    pool: ConstPool,
    /// Cached (ctrl, actions) queue pair backing [`OffloadCtx::chain_program`].
    program_queues: Option<(ChainQueue, ChainQueue)>,
}

/// Fluent builder for [`OffloadCtx`].
#[derive(Clone, Copy, Debug)]
pub struct OffloadCtxBuilder {
    node: NodeId,
    owner: ProcessId,
    port: usize,
    pool_capacity: u64,
}

impl OffloadCtxBuilder {
    /// Owning process for every resource the context creates (crash
    /// experiments re-parent offloads by picking a hull process here).
    pub fn owner(mut self, owner: ProcessId) -> OffloadCtxBuilder {
        self.owner = owner;
        self
    }

    /// Default NIC port for queues and offloads built from this context.
    pub fn on_port(mut self, port: usize) -> OffloadCtxBuilder {
        self.port = port;
        self
    }

    /// Capacity of the context-owned constant pool (default 1 MiB).
    pub fn pool_capacity(mut self, bytes: u64) -> OffloadCtxBuilder {
        self.pool_capacity = bytes;
        self
    }

    /// Allocate the context (registers its constant pool).
    pub fn build(self, sim: &mut Simulator) -> Result<OffloadCtx> {
        let pool = ConstPool::create(sim, self.node, self.pool_capacity, self.owner)?;
        Ok(OffloadCtx {
            node: self.node,
            owner: self.owner,
            port: self.port,
            pool,
            program_queues: None,
        })
    }
}

impl OffloadCtx {
    /// Start building a context for offloads living on `node`.
    /// Defaults: owner process 0, NIC port 0, 1 MiB constant pool.
    pub fn builder(node: NodeId) -> OffloadCtxBuilder {
        OffloadCtxBuilder {
            node,
            owner: ProcessId(0),
            port: 0,
            pool_capacity: DEFAULT_POOL_CAPACITY,
        }
    }

    /// A context with all defaults.
    pub fn new(sim: &mut Simulator, node: NodeId) -> Result<OffloadCtx> {
        OffloadCtx::builder(node).build(sim)
    }

    /// Node the context's resources live on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Owning process of the context's resources.
    pub fn owner(&self) -> ProcessId {
        self.owner
    }

    /// Default NIC port.
    pub fn port(&self) -> usize {
        self.port
    }

    /// The context-owned constant pool.
    pub fn pool(&self) -> &ConstPool {
        &self.pool
    }

    /// Mutable access to the context-owned constant pool.
    pub fn pool_mut(&mut self) -> &mut ConstPool {
        &mut self.pool
    }

    /// Fluent chain-queue builder, prefilled with this context's
    /// node/owner/port.
    pub fn chain_queue(&self) -> ChainQueueBuilder {
        ChainQueueBuilder::new(self.node, self.owner).on_port(self.port)
    }

    /// Fluent trigger-point builder, prefilled with this context's
    /// node/owner/port.
    pub fn trigger_point(&self) -> TriggerPointBuilder {
        TriggerPointBuilder::new(self.node, self.owner).on_port(self.port)
    }

    /// Start a [`ChainProgram`] over the context's cached control/action
    /// queue pair (created on first use; reused across programs, with
    /// WAIT thresholds tracking the live queue state).
    pub fn chain_program(&mut self, sim: &mut Simulator) -> Result<ChainProgram<'_>> {
        if self.program_queues.is_none() {
            let ctrl = self.chain_queue().depth(PROGRAM_CTRL_DEPTH).build(sim)?;
            let actions = self
                .chain_queue()
                .managed()
                .depth(PROGRAM_ACTION_DEPTH)
                .build(sim)?;
            self.program_queues = Some((ctrl, actions));
        }
        let (ctrl_q, act_q) = self.program_queues.expect("just filled");
        Ok(ChainProgram::new(self, ctrl_q, act_q))
    }

    /// Start a [`ChainProgram`] over a fresh queue pair with explicit
    /// depths (for programs outgrowing the cached rings).
    pub fn chain_program_sized(
        &mut self,
        sim: &mut Simulator,
        ctrl_depth: u32,
        action_depth: u32,
    ) -> Result<ChainProgram<'_>> {
        let ctrl_q = self.chain_queue().depth(ctrl_depth).build(sim)?;
        let act_q = self
            .chain_queue()
            .managed()
            .depth(action_depth)
            .build(sim)?;
        Ok(ChainProgram::new(self, ctrl_q, act_q))
    }

    /// Fluent hash-get offload deployment (Fig 9/11).
    pub fn hash_get(&self) -> HashGetBuilder {
        HashGetBuilder::new(self.node, self.owner, self.port)
    }

    /// Fluent list-walk offload deployment (Fig 12/13).
    pub fn list_walk(&self) -> ListWalkBuilder {
        ListWalkBuilder::new(self.node, self.owner)
    }

    /// Compile a Turing machine to a self-modifying RDMA ring on this
    /// context's node (Appendix A), arming it immediately. The machine's
    /// memory (tape, registers, action images) lives in this context's
    /// constant pool; budget roughly `tape + 64 * rules + 2 KiB` of pool
    /// capacity per machine.
    pub fn compile_tm(
        &mut self,
        sim: &mut Simulator,
        tm: &TuringMachine,
        tape: &[u32],
        head: usize,
    ) -> Result<CompiledTm> {
        CompiledTm::compile_in_pool(sim, self.node, self.owner, &mut self.pool, tm, tape, head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::config::{HostConfig, NicConfig, SimConfig};

    fn rig() -> (Simulator, NodeId) {
        let mut sim = Simulator::new(SimConfig::default());
        let node = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        (sim, node)
    }

    #[test]
    fn ctx_carries_defaults_into_builders() {
        let (mut sim, node) = rig();
        let mut ctx = OffloadCtx::builder(node)
            .owner(ProcessId(0))
            .on_port(0)
            .pool_capacity(4096)
            .build(&mut sim)
            .unwrap();
        assert_eq!(ctx.node(), node);
        assert_eq!(ctx.owner(), ProcessId(0));
        assert_eq!(ctx.port(), 0);
        let q = ctx.chain_queue().depth(8).build(&mut sim).unwrap();
        assert_eq!(q.node, node);
        let a = ctx.pool_mut().push_u64(&mut sim, 3).unwrap();
        assert_eq!(sim.mem_read_u64(node, a).unwrap(), 3);
        assert!(ctx.pool().used() >= 8);
    }

    #[test]
    fn chain_program_queues_are_cached_and_reused() {
        let (mut sim, node) = rig();
        let mut ctx = OffloadCtx::new(&mut sim, node).unwrap();
        {
            let _p1 = ctx.chain_program(&mut sim).unwrap();
        }
        let (ctrl1, act1) = ctx.program_queues.expect("cached");
        {
            let _p2 = ctx.chain_program(&mut sim).unwrap();
        }
        let (ctrl2, act2) = ctx.program_queues.expect("still cached");
        assert_eq!(ctrl1.qp, ctrl2.qp);
        assert_eq!(act1.qp, act2.qp);
        // Sized programs get fresh queues.
        let prog = ctx.chain_program_sized(&mut sim, 16, 16).unwrap();
        assert_eq!(prog.ctrl_queue().depth, 16);
        assert!(prog.action_queue().managed);
    }

    #[test]
    fn recycled_loop_via_ctx_runs() {
        use crate::ir::{IrProgram, Kind, Loc, OpBuild, RingSpec, WaitCond};
        use rnic_sim::mem::Access;
        use rnic_sim::time::Time;
        let (mut sim, node) = rig();
        let mut ctx = OffloadCtx::new(&mut sim, node).unwrap();
        let ctr = sim.alloc(node, 8, 8).unwrap();
        let cmr = sim.register_mr(node, ctr, 8, Access::all()).unwrap();
        // A §3.4 ring is a recycled IR program deployed against the
        // context's pool; lowering creates its queue.
        let (mut p, ring) = IrProgram::recycled(RingSpec {
            node: ctx.node(),
            owner: ctx.owner(),
            pu: None,
            port: ctx.port(),
        });
        let add = Kind::FetchAdd {
            target: Loc::raw(ctr, cmr.rkey),
            delta: 1,
        };
        p.push(ring, OpBuild::new(add).signaled());
        p.push(ring, OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)));
        let lowered = p.deploy(&mut sim, ctx.pool_mut()).unwrap();
        sim.run_until(Time::from_us(100)).unwrap();
        assert!(sim.mem_read_u64(node, ctr).unwrap() >= 5);
        lowered.ring().unwrap().halt(&mut sim).unwrap();
        sim.run().unwrap();
    }
}
