//! [`ChainProgram`]: the typed combinator layer over the §3 constructs —
//! now a thin front-end over [`crate::ir`].
//!
//! A chain program owns an [`IrProgram`] spanning a pair of queues — an
//! *unmanaged control queue* (ordering verbs, CASes, patch WRITEs) and a
//! *managed action queue* (the self-modified branch bodies) — and exposes
//! the paper's constructs as combinators. WAIT thresholds, ENABLE targets
//! and patch-point addresses stay symbolic until deployment; callers
//! never do `next_wait_count()` arithmetic, and deployment runs the IR
//! optimizer (WAIT elision, const deduplication) and the §3.1 static
//! verifier before anything is posted ([`ChainProgram::deploy_with`]
//! takes the IR's [`DeployOpts`] switches for programs the checker
//! cannot see through).
//!
//! Deployment is two-phase, mirroring the hardware reality that injection
//! must land *after* the action WQEs are in the ring but *before* the
//! control chain starts consuming them:
//!
//! 1. [`ChainProgram::deploy`] verifies + optimizes + lowers, posts the
//!    managed action queue (quiet — no doorbell) and returns an
//!    [`ArmedProgram`];
//! 2. the caller injects runtime operands (via the construct handles'
//!    `inject_x`, or a RECV scatter);
//! 3. [`ArmedProgram::launch`] posts the control queue, which rings its
//!    doorbell and sets the NIC off.
//!
//! [`ChainProgram::run`] collapses the three steps when nothing needs
//! host-side injection.

use rnic_sim::error::Result;
use rnic_sim::ids::CqId;
use rnic_sim::sim::Simulator;
use rnic_sim::wqe::WorkRequest;

use crate::constructs::cond::{IfEq, IfEqWide, IfLe};
use crate::constructs::mov::{MovUnit, RegisterFile};
use crate::ctx::OffloadCtx;
use crate::ir::{
    DeployOpts, IrProgram, Kind, Lowered, OpBuild, OpId, PassReport, QId, VerbCounts, WaitCond,
};
use crate::offloads::rpc::TriggerPoint;
use crate::program::ChainQueue;

/// A chain program under construction. Created by
/// [`OffloadCtx::chain_program`].
pub struct ChainProgram<'c> {
    ctx: &'c mut OffloadCtx,
    p: IrProgram,
    ctrl: QId,
    actions: QId,
    ctrl_q: ChainQueue,
    act_q: ChainQueue,
    counts: VerbCounts,
}

impl<'c> ChainProgram<'c> {
    pub(crate) fn new(
        ctx: &'c mut OffloadCtx,
        ctrl_q: ChainQueue,
        act_q: ChainQueue,
    ) -> ChainProgram<'c> {
        let mut p = IrProgram::linear();
        let ctrl = p.chain(ctrl_q);
        let actions = p.chain(act_q);
        ChainProgram {
            ctx,
            p,
            ctrl,
            actions,
            ctrl_q,
            act_q,
            counts: VerbCounts::default(),
        }
    }

    /// Gate everything staged after this on the `n`-th future SEND
    /// arriving at `tp` (1 = the next one) — the client-invocation edge of
    /// Fig 1. The WAIT threshold is computed from the trigger CQ's live
    /// completion count. When arming several program instances ahead of
    /// any client SEND, instance `k` (0-based) of a batch armed
    /// back-to-back passes `n = k + 1` — otherwise every instance waits
    /// for the same (first) SEND.
    pub fn on_nth_trigger(&mut self, sim: &Simulator, tp: &TriggerPoint, n: u64) -> &mut Self {
        let count = tp.wait_count_after(sim, n);
        self.wait_on(tp.recv_cq, count)
    }

    /// Gate everything staged after this on `cq` reaching `count`
    /// completions (absolute, monotonic — §3.4 semantics).
    pub fn wait_on(&mut self, cq: CqId, count: u64) -> &mut Self {
        self.p.push(
            self.ctrl,
            OpBuild::new(Kind::Wait(WaitCond::Absolute { cq, count })).label("program wait"),
        );
        self.counts.ordering += 1;
        self
    }

    /// `if (x == y) action` (Fig 4). Returns the construct handle; inject
    /// the runtime operand through it after [`ChainProgram::deploy`].
    pub fn if_eq(&mut self, y: u64, action: WorkRequest) -> IfEq {
        let parts = IfEq::build(&mut self.p, self.ctrl, self.actions, y, action, None);
        self.counts = self.counts.merge(&parts.counts);
        parts
    }

    /// Wide-operand `if (x == y) action` via CAS chaining (§3.5),
    /// comparing `bits` bits.
    pub fn if_eq_wide(&mut self, y: u128, bits: u32, action: WorkRequest) -> IfEqWide {
        let parts = IfEqWide::build(&mut self.p, self.ctrl, self.actions, y, bits, action, None);
        self.counts = self.counts.merge(&parts.counts);
        parts
    }

    /// `if (x <= y) action` via MAX + equality (§3.5). Scratch space is a
    /// program constant, placed at deploy.
    pub fn if_le(&mut self, y: u64, action: WorkRequest) -> IfLe {
        let parts = IfLe::build(&mut self.p, self.ctrl, self.actions, y, action);
        self.counts = self.counts.merge(&parts.counts);
        parts
    }

    /// Allocate a register file + mov unit against `data` (Appendix A,
    /// Table 7). Registers live in the context's constant pool.
    pub fn mov_unit(
        &mut self,
        sim: &mut Simulator,
        registers: usize,
        data: rnic_sim::mem::MemoryRegion,
    ) -> Result<MovUnit> {
        let regs = RegisterFile::create(sim, self.ctx.pool_mut(), registers)?;
        Ok(MovUnit::new(regs, data))
    }

    /// `mov Rdst, C` — immediate.
    pub fn mov_imm(&mut self, unit: &MovUnit, dst: usize, c: u64) -> &mut Self {
        unit.mov_imm(&mut self.p, self.ctrl, dst, c);
        self
    }

    /// `mov Rdst, Rsrc` — register to register.
    pub fn mov_reg(&mut self, unit: &MovUnit, dst: usize, src: usize) -> &mut Self {
        unit.mov_reg(&mut self.p, self.ctrl, dst, src);
        self
    }

    /// `mov Rdst, [Rsrc + off]` — indirect/indexed load.
    pub fn mov_load(&mut self, unit: &MovUnit, dst: usize, src: usize, off: u64) -> &mut Self {
        unit.mov_load(&mut self.p, self.ctrl, self.actions, dst, src, off);
        self
    }

    /// `mov [Rdst + off], Rsrc` — indirect/indexed store.
    pub fn mov_store(&mut self, unit: &MovUnit, dst: usize, src: usize, off: u64) -> &mut Self {
        unit.mov_store(&mut self.p, self.ctrl, self.actions, dst, src, off);
        self
    }

    /// Stage a raw verb on the control queue, alongside the combinators.
    pub fn stage_ctrl(&mut self, wr: WorkRequest) -> OpId {
        self.p
            .push(self.ctrl, OpBuild::new(Kind::Raw(wr)).label("raw ctrl"))
    }

    /// The control queue (CQ ids for audit trails, ring keys for
    /// scatter targets).
    pub fn ctrl_queue(&self) -> ChainQueue {
        self.ctrl_q
    }

    /// The managed action queue.
    pub fn action_queue(&self) -> ChainQueue {
        self.act_q
    }

    /// Table 2 verb accounting of everything staged through the
    /// combinators — the *paper's* cost model; the deployed program's
    /// [`PassReport`] shows what the optimizer actually staged.
    pub fn counts(&self) -> VerbCounts {
        self.counts
    }

    /// Verify, optimize, and lower the program, then post the managed
    /// action queue (quiet). Inject runtime operands, then
    /// [`ArmedProgram::launch`].
    pub fn deploy(self, sim: &mut Simulator) -> Result<ArmedProgram> {
        self.deploy_with(sim, DeployOpts::default())
    }

    /// Deploy with explicit IR switches. `verify: false` is the escape
    /// hatch for programs whose ordering is established outside the IR:
    /// it waives the three `redn_core::ir::verify` rule families *and*
    /// the `redn_core::ir::analysis` suite (see
    /// [`IrProgram::deploy_unchecked`]); the optimizer still runs.
    pub fn deploy_with(self, sim: &mut Simulator, opts: DeployOpts) -> Result<ArmedProgram> {
        let mut lowered = self.p.deploy_with(sim, self.ctx.pool_mut(), opts, None)?;
        lowered.post(sim, self.actions)?;
        Ok(ArmedProgram {
            lowered,
            ctrl: self.ctrl,
        })
    }

    /// Deploy and immediately launch — for programs whose operands are
    /// injected by RECV scatter (or that take none).
    pub fn run(self, sim: &mut Simulator) -> Result<()> {
        self.deploy(sim)?.launch(sim)
    }
}

/// A program whose action WQEs are posted; awaiting operand injection and
/// [`ArmedProgram::launch`].
pub struct ArmedProgram {
    lowered: Lowered,
    ctrl: QId,
}

impl ArmedProgram {
    /// What the IR optimizer did to the program.
    pub fn report(&self) -> PassReport {
        self.lowered.report()
    }

    /// Post the control queue (ringing its doorbell): the NIC takes over.
    pub fn launch(mut self, sim: &mut Simulator) -> Result<()> {
        self.lowered.post(sim, self.ctrl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::OffloadCtx;
    use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
    use rnic_sim::ids::NodeId;
    use rnic_sim::mem::Access;

    fn rig() -> (Simulator, NodeId) {
        let mut sim = Simulator::new(SimConfig::default());
        let node = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        (sim, node)
    }

    #[test]
    fn if_eq_through_program_matches_table2_and_branches() {
        let (mut sim, node) = rig();
        let mut ctx = OffloadCtx::new(&mut sim, node).unwrap();
        let flag = sim.alloc(node, 8, 8).unwrap();
        let fmr = sim.register_mr(node, flag, 8, Access::all()).unwrap();
        let one = sim.alloc(node, 8, 8).unwrap();
        let omr = sim.register_mr(node, one, 8, Access::all()).unwrap();
        sim.mem_write_u64(node, one, 1).unwrap();

        for (x, y, expect) in [(5u64, 5u64, 1u64), (5, 6, 0)] {
            sim.mem_write_u64(node, flag, 0).unwrap();
            let mut prog = ctx.chain_program(&mut sim).unwrap();
            let action = WorkRequest::write(one, omr.lkey, 8, flag, fmr.rkey);
            let branch = prog.if_eq(y, action);
            assert_eq!(prog.counts().atomics, 1);
            let armed = prog.deploy(&mut sim).unwrap();
            // The optimizer stages one ordering verb fewer than the
            // paper model per conditional.
            assert_eq!(armed.report().waits_elided, 1);
            branch.inject_x(&mut sim, x).unwrap();
            armed.launch(&mut sim).unwrap();
            sim.run().unwrap();
            assert_eq!(sim.mem_read_u64(node, flag).unwrap(), expect, "x={x} y={y}");
        }
    }

    #[test]
    fn wide_and_le_conditionals_compose_on_one_program() {
        let (mut sim, node) = rig();
        let mut ctx = OffloadCtx::new(&mut sim, node).unwrap();
        let flags = sim.alloc(node, 16, 8).unwrap();
        let fmr = sim.register_mr(node, flags, 16, Access::all()).unwrap();
        let one = sim.alloc(node, 8, 8).unwrap();
        let omr = sim.register_mr(node, one, 8, Access::all()).unwrap();
        sim.mem_write_u64(node, one, 1).unwrap();

        let wide_val: u128 = 0x1234_5678_9ABC_DEF0_1122;
        let mut prog = ctx.chain_program(&mut sim).unwrap();
        let wide = prog.if_eq_wide(
            wide_val,
            80,
            WorkRequest::write(one, omr.lkey, 8, flags, fmr.rkey),
        );
        let le = prog.if_le(
            50,
            WorkRequest::write(one, omr.lkey, 8, flags + 8, fmr.rkey),
        );
        let armed = prog.deploy(&mut sim).unwrap();
        wide.inject_x(&mut sim, wide_val).unwrap();
        le.inject_x(&mut sim, 49).unwrap();
        armed.launch(&mut sim).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(node, flags).unwrap(), 1, "wide taken");
        assert_eq!(sim.mem_read_u64(node, flags + 8).unwrap(), 1, "49 <= 50");
    }

    #[test]
    fn mov_combinators_pointer_chase() {
        let (mut sim, node) = rig();
        let mut ctx = OffloadCtx::new(&mut sim, node).unwrap();
        let data = sim.alloc(node, 256, 8).unwrap();
        let dmr = sim.register_mr(node, data, 256, Access::all()).unwrap();
        sim.mem_write_u64(node, data, data + 64).unwrap();
        sim.mem_write_u64(node, data + 64, 0x5EED).unwrap();

        let mut prog = ctx.chain_program(&mut sim).unwrap();
        let unit = prog.mov_unit(&mut sim, 4, dmr).unwrap();
        unit.regs.write(&mut sim, node, 1, data).unwrap();
        prog.mov_load(&unit, 2, 1, 0);
        prog.mov_load(&unit, 3, 2, 0);
        prog.run(&mut sim).unwrap();
        sim.run().unwrap();
        assert_eq!(unit.regs.read(&sim, node, 3).unwrap(), 0x5EED);
    }

    #[test]
    fn triggered_programs_arm_pipelined_instances_in_order() {
        use crate::encode::operand48;
        use rnic_sim::config::LinkConfig;
        use rnic_sim::qp::QpConfig;

        let mut sim = Simulator::new(SimConfig::default());
        let c = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
        let s = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        sim.connect_nodes(c, s, LinkConfig::back_to_back());
        let mut ctx = OffloadCtx::new(&mut sim, s).unwrap();
        let tp = ctx.trigger_point().build(&mut sim).unwrap();
        let ccq = sim.create_cq(c, 16).unwrap();
        let cqp = sim.create_qp(c, QpConfig::new(ccq)).unwrap();
        sim.connect_qps(cqp, tp.qp).unwrap();

        let flags = sim.alloc(s, 16, 8).unwrap();
        let fmr = sim.register_mr(s, flags, 16, Access::all()).unwrap();
        let one = ctx.pool_mut().push_u64(&mut sim, 1).unwrap();
        let pool_lkey = ctx.pool().mr().lkey;

        // Two instances armed back-to-back, before any client SEND.
        // Instance k gates on the (k+1)-th trigger; its operand arrives
        // via the RECV scatter (no host injection).
        for k in 0..2u64 {
            let mut prog = ctx.chain_program(&mut sim).unwrap();
            prog.on_nth_trigger(&sim, &tp, k + 1);
            let action_ring_lkey = prog.action_queue().ring.lkey;
            let branch = prog.if_eq(
                7 + k,
                WorkRequest::write(one, pool_lkey, 8, flags + 8 * k, fmr.rkey),
            );
            prog.run(&mut sim).unwrap();
            let scatter = [(branch.x_inject.addr(), action_ring_lkey, 6u32)];
            tp.post_trigger_recv(&mut sim, ctx.pool_mut(), &scatter)
                .unwrap();
        }
        // No SEND yet: both instances parked.
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(s, flags).unwrap(), 0);

        let src = sim.alloc(c, 8, 8).unwrap();
        let smr = sim.register_mr(c, src, 8, Access::all()).unwrap();
        // First SEND (operand 7): only instance 0 fires.
        sim.mem_write(c, src, &operand48(7).to_le_bytes()[..6])
            .unwrap();
        sim.post_send(cqp, WorkRequest::send(src, smr.lkey, 6))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(s, flags).unwrap(), 1, "instance 0 fired");
        assert_eq!(
            sim.mem_read_u64(s, flags + 8).unwrap(),
            0,
            "instance 1 parked"
        );
        // Second SEND (operand 8): instance 1 fires.
        sim.mem_write(c, src, &operand48(8).to_le_bytes()[..6])
            .unwrap();
        sim.post_send(cqp, WorkRequest::send(src, smr.lkey, 6))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(
            sim.mem_read_u64(s, flags + 8).unwrap(),
            1,
            "instance 1 fired"
        );
    }

    /// The trigger point's and the chain queues' CQs are counting CQs:
    /// their counts advance and every WAIT on them releases at its
    /// threshold, but a host poll finds nothing and nothing overruns.
    #[test]
    fn wait_only_cqs_count_without_keeping_entries() {
        use rnic_sim::config::LinkConfig;
        use rnic_sim::qp::QpConfig;

        let mut sim = Simulator::new(SimConfig::default());
        let c = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
        let s = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        sim.connect_nodes(c, s, LinkConfig::back_to_back());
        let mut ctx = OffloadCtx::new(&mut sim, s).unwrap();
        let tp = ctx.trigger_point().build(&mut sim).unwrap();
        let ccq = sim.create_cq(c, 16).unwrap();
        let cqp = sim.create_qp(c, QpConfig::new(ccq)).unwrap();
        sim.connect_qps(cqp, tp.qp).unwrap();
        let flags = sim.alloc(s, 16, 8).unwrap();
        let fmr = sim.register_mr(s, flags, 16, Access::all()).unwrap();
        let one = ctx.pool_mut().push_u64(&mut sim, 1).unwrap();
        let set = |i: u64| {
            let lkey = ctx.pool().mr().lkey;
            WorkRequest::write(one, lkey, 8, flags + 8 * i, fmr.rkey).signaled()
        };
        let (first, second) = (set(0), set(1));

        // Program A sets flag 0 on the first trigger; program B, on its
        // own queues, sets flag 1 once A's control queue completes it.
        let mut a = ctx.chain_program_sized(&mut sim, 8, 8).unwrap();
        a.on_nth_trigger(&sim, &tp, 1);
        a.stage_ctrl(first);
        let a_cq = a.ctrl_queue().cq;
        a.run(&mut sim).unwrap();
        let mut b = ctx.chain_program_sized(&mut sim, 8, 8).unwrap();
        b.wait_on(a_cq, 1);
        b.stage_ctrl(second);
        let b_cq = b.ctrl_queue().cq;
        b.run(&mut sim).unwrap();
        tp.post_trigger_recv(&mut sim, ctx.pool_mut(), &[]).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(s, flags + 8).unwrap(), 0, "B parked");

        let src = sim.alloc(c, 8, 8).unwrap();
        let smr = sim.register_mr(c, src, 8, Access::all()).unwrap();
        sim.post_send(cqp, WorkRequest::send(src, smr.lkey, 8))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(s, flags).unwrap(), 1, "A released");
        assert_eq!(sim.mem_read_u64(s, flags + 8).unwrap(), 1, "B released");
        assert_eq!(sim.cq_total(tp.recv_cq), 1);
        assert_eq!(sim.cq_total(a_cq), 1);
        assert_eq!(sim.cq_total(b_cq), 1);
        for cq in [tp.recv_cq, tp.send_cq, a_cq, b_cq] {
            assert!(
                sim.poll_cq(cq, usize::MAX).is_empty(),
                "{cq:?} keeps no entries"
            );
            assert!(!sim.cq_overrun(cq));
        }
    }

    #[test]
    fn oversize_program_posts_nothing_and_leaves_its_queues_usable() {
        use rnic_sim::error::Error;
        let (mut sim, node) = rig();
        let mut ctx = OffloadCtx::new(&mut sim, node).unwrap();
        let buf = sim.alloc(node, 16, 8).unwrap();
        let mr = sim.register_mr(node, buf, 16, Access::all()).unwrap();
        sim.mem_write_u64(node, buf, 0x77).unwrap();
        let ctrl_q = ctx.chain_queue().depth(2).build(&mut sim).unwrap();
        let act_q = ctx
            .chain_queue()
            .managed()
            .depth(4)
            .build(&mut sim)
            .unwrap();
        let copy = WorkRequest::write(buf, mr.lkey, 8, buf + 8, mr.rkey).signaled();

        // Two WQEs too many for the control ring; the action ring's one
        // WQE would fit.
        let mut prog = ChainProgram::new(&mut ctx, ctrl_q, act_q);
        prog.if_eq(7, copy);
        for _ in 0..4 {
            prog.stage_ctrl(copy);
        }
        let full = prog.run(&mut sim);
        assert!(matches!(full, Err(Error::WqFull(wq)) if wq == ctrl_q.sq));
        for q in [ctrl_q, act_q] {
            assert_eq!(sim.sq_posted(q.qp), 0, "no orphaned WQE on {}", q.sq);
        }
        assert_eq!(sim.node_doorbells(node), 0);

        // A program that fits, on the same queues, runs — and is all
        // that runs.
        let mut prog = ChainProgram::new(&mut ctx, ctrl_q, act_q);
        prog.stage_ctrl(copy);
        prog.run(&mut sim).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(node, buf + 8).unwrap(), 0x77);
        assert_eq!(sim.wq_executed(ctrl_q.sq), 1);
        assert_eq!(sim.wq_executed(act_q.sq), 0);
    }

    #[test]
    fn run_collapses_deploy_and_launch() {
        let (mut sim, node) = rig();
        let mut ctx = OffloadCtx::new(&mut sim, node).unwrap();
        let buf = sim.alloc(node, 16, 8).unwrap();
        let mr = sim.register_mr(node, buf, 16, Access::all()).unwrap();
        sim.mem_write_u64(node, buf, 0x77).unwrap();
        let mut prog = ctx.chain_program(&mut sim).unwrap();
        prog.stage_ctrl(WorkRequest::write(buf, mr.lkey, 8, buf + 8, mr.rkey).signaled());
        prog.run(&mut sim).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(node, buf + 8).unwrap(), 0x77);
    }
}
