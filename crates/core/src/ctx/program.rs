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
//! verifier before anything is posted.
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

use rnic_sim::error::Result;
use rnic_sim::ids::CqId;
use rnic_sim::sim::Simulator;
use rnic_sim::wqe::WorkRequest;

use crate::constructs::cond::IfEq;
use crate::ctx::OffloadCtx;
use crate::ir::{DeployOpts, IrProgram, Kind, Lowered, OpBuild, QId, VerbCounts, WaitCond};
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
    /// [`PassReport`](crate::ir::PassReport) shows what the optimizer
    /// actually staged.
    pub fn counts(&self) -> VerbCounts {
        self.counts
    }

    /// Verify, optimize, and lower the program, then post the managed
    /// action queue (quiet). Inject runtime operands, then
    /// [`ArmedProgram::launch`].
    pub fn deploy(self, sim: &mut Simulator) -> Result<ArmedProgram> {
        let opts = DeployOpts::default();
        let mut lowered = self.p.deploy_with(sim, self.ctx.pool_mut(), opts, None)?;
        lowered.post(sim, self.actions)?;
        Ok(ArmedProgram {
            lowered,
            ctrl: self.ctrl,
        })
    }
}

/// A program whose action WQEs are posted; awaiting operand injection and
/// [`ArmedProgram::launch`].
pub struct ArmedProgram {
    lowered: Lowered,
    ctrl: QId,
}

impl ArmedProgram {
    /// Post the control queue (ringing its doorbell): the NIC takes over.
    pub fn launch(mut self, sim: &mut Simulator) -> Result<()> {
        self.lowered.post(sim, self.ctrl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constructs::cond::{IfEqWide, IfLe};
    use crate::constructs::mov::{MovUnit, RegisterFile};
    use crate::ctx::OffloadCtx;
    use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
    use rnic_sim::ids::NodeId;
    use rnic_sim::mem::Access;

    /// Deploy and launch at once, for programs whose operands arrive by
    /// RECV scatter or that take none.
    fn run(prog: ChainProgram<'_>, sim: &mut Simulator) -> Result<()> {
        prog.deploy(sim)?.launch(sim)
    }

    /// Stage a raw verb on the control queue.
    fn stage_ctrl(prog: &mut ChainProgram<'_>, wr: WorkRequest) {
        let op = OpBuild::new(Kind::Raw(wr)).label("raw ctrl");
        prog.p.push(prog.ctrl, op);
    }

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
            assert_eq!(armed.lowered.report().waits_elided, 1);
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
        let (p, ctrl, actions) = (&mut prog.p, prog.ctrl, prog.actions);
        let set_wide = WorkRequest::write(one, omr.lkey, 8, flags, fmr.rkey);
        let wide = IfEqWide::build(p, ctrl, actions, wide_val, 80, set_wide, None);
        let set_le = WorkRequest::write(one, omr.lkey, 8, flags + 8, fmr.rkey);
        let le = IfLe::build(p, ctrl, actions, 50, set_le);
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

        let regs = RegisterFile::create(&mut sim, ctx.pool_mut(), 4).unwrap();
        let unit = MovUnit::new(regs, dmr);
        let mut prog = ctx.chain_program(&mut sim).unwrap();
        unit.regs.write(&mut sim, node, 1, data).unwrap();
        unit.mov_load(&mut prog.p, prog.ctrl, prog.actions, 2, 1, 0);
        unit.mov_load(&mut prog.p, prog.ctrl, prog.actions, 3, 2, 0);
        run(prog, &mut sim).unwrap();
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
            prog.wait_on(tp.recv_cq, sim.cq_total(tp.recv_cq) + k + 1);
            let action_ring_lkey = prog.action_queue().ring.lkey;
            let branch = prog.if_eq(
                7 + k,
                WorkRequest::write(one, pool_lkey, 8, flags + 8 * k, fmr.rkey),
            );
            run(prog, &mut sim).unwrap();
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
        a.wait_on(tp.recv_cq, sim.cq_total(tp.recv_cq) + 1);
        stage_ctrl(&mut a, first);
        let a_cq = a.ctrl_queue().cq;
        run(a, &mut sim).unwrap();
        let mut b = ctx.chain_program_sized(&mut sim, 8, 8).unwrap();
        b.wait_on(a_cq, 1);
        stage_ctrl(&mut b, second);
        let b_cq = b.ctrl_queue().cq;
        run(b, &mut sim).unwrap();
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
            stage_ctrl(&mut prog, copy);
        }
        let full = run(prog, &mut sim);
        assert!(matches!(full, Err(Error::WqFull(wq)) if wq == ctrl_q.sq));
        for q in [ctrl_q, act_q] {
            assert_eq!(sim.sq_posted(q.qp), 0, "no orphaned WQE on {}", q.sq);
        }
        assert_eq!(sim.node_doorbells(node), 0);

        // A program that fits, on the same queues, runs — and is all
        // that runs.
        let mut prog = ChainProgram::new(&mut ctx, ctrl_q, act_q);
        stage_ctrl(&mut prog, copy);
        run(prog, &mut sim).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(node, buf + 8).unwrap(), 0x77);
        assert_eq!(sim.wq_executed(ctrl_q.sq), 1);
        assert_eq!(sim.wq_executed(act_q.sq), 0);
    }
}
