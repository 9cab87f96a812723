//! Conditional branching via self-modifying CAS verbs (paper §3.3, Fig 4).
//!
//! The trick: a WQE's opcode and its free-form 48-bit `id` share one
//! 64-bit header word. Stage the branch body as a `NOOP` whose *other*
//! fields already describe the action (a NOOP ignores them), inject the
//! runtime operand `x` into its `id` bits, and aim a CAS at the header:
//!
//! ```text
//! CAS(target = action.header,
//!     compare = header(NOOP,  y),      // matches iff x == y
//!     swap    = header(ACTION, y))     // transmutes NOOP -> ACTION
//! ```
//!
//! If `x == y` the header matches and the swap installs the action opcode
//! — the branch is taken. Otherwise the WQE stays a NOOP — not taken.
//! Doorbell ordering (WAIT on the CAS completion, then ENABLE the managed
//! queue holding the action) guarantees the NIC fetches the action *after*
//! the CAS modified it.
//!
//! Since PR 5 the constructs emit [`crate::ir`] ops instead of staging
//! WQEs directly: the CAS is a typed [`Kind::Transmute`], the injection
//! point a symbolic [`FieldRef`] resolved at deploy, and the WAIT/ENABLE
//! ordering is subject to the optimizer (the WAIT between the CAS and the
//! ENABLE elides into a `wait_prev` fence) and the §3.1 verifier (an
//! action staged on an unmanaged queue is rejected before anything is
//! posted). The `counts` each construct reports remain the *paper's*
//! Table 2 cost model — the pass report of the deployed program shows
//! what actually hit the ring.

use rnic_sim::error::Result;
use rnic_sim::ids::CqId;
use rnic_sim::sim::Simulator;
use rnic_sim::verbs::Opcode;
use rnic_sim::wqe::WorkRequest;

use crate::encode::{operand48, wide_segments, WqeField, OPERAND_BITS};
use crate::ir::VerbCounts;
use crate::ir::{
    ConstRef, EnableTarget, FieldRef, IrProgram, Kind, Loc, OpBuild, OpId, QId, WaitCond,
};

/// A built `if (x == y) action` construct.
#[derive(Clone, Debug)]
pub struct IfEq {
    /// The action op (staged as a NOOP placeholder in the managed queue).
    pub action: OpId,
    /// The CAS op that implements the branch.
    pub cas: OpId,
    /// Where to inject the 48-bit runtime operand `x` (6 bytes,
    /// little-endian): the action WQE's id field. RECV scatter entries or
    /// chain WRITEs aim here; resolves after the program deploys.
    pub x_inject: FieldRef,
    /// Verb accounting for Table 2 (the paper's cost model, before the
    /// optimizer).
    pub counts: VerbCounts,
}

impl IfEq {
    /// Build the construct into `p`.
    ///
    /// * `ctrl` — an *unmanaged* control queue carrying the CAS and the
    ///   ordering verbs. Nothing in it is data-dependent.
    /// * `actions` — a *managed* queue holding the branch body; its fetch
    ///   is released by this construct's ENABLE (the deploy-time verifier
    ///   rejects an unmanaged action queue — the §3.1 hazard).
    /// * `y` — the 48-bit comparison constant.
    /// * `action` — what executes when `x == y` (its opcode is recorded as
    ///   the transmutation target; the WQE is staged as a NOOP).
    /// * `trigger` — optional `(cq, count)` the construct should WAIT on
    ///   before branching (the client-invocation edge of Fig 1).
    ///
    /// With a trigger, the verb cost is exactly the paper's Table 2 `if`
    /// row: 1 copy + 1 atomic + 3 ordering verbs.
    pub(crate) fn build(
        p: &mut IrProgram,
        ctrl: QId,
        actions: QId,
        y: u64,
        action: WorkRequest,
        trigger: Option<(CqId, u64)>,
    ) -> IfEq {
        let action_op_id = p.alloc(actions);
        IfEq::build_on(p, ctrl, y, action, trigger, action_op_id)
    }

    /// As [`IfEq::build`] with a pre-allocated action op (so outer
    /// constructs — [`IfLe`] — can aim verbs at the action before it is
    /// staged).
    fn build_on(
        p: &mut IrProgram,
        ctrl: QId,
        y: u64,
        action: WorkRequest,
        trigger: Option<(CqId, u64)>,
        action_op_id: OpId,
    ) -> IfEq {
        let y = operand48(y);
        let action_op = action.wqe.opcode;
        assert!(
            action_op != Opcode::Noop,
            "the action must be a real verb (it is staged as a NOOP placeholder)"
        );

        let mut counts = VerbCounts::default();
        // Branch body: staged as a NOOP carrying the action's operands.
        let staged_action = p.place(
            action_op_id,
            OpBuild::new(Kind::Raw(action))
                .placeholder()
                .label("if action"),
        );
        counts.copies += 1;

        // Optional trigger edge.
        if let Some((cq, count)) = trigger {
            p.push(
                ctrl,
                OpBuild::new(Kind::Wait(WaitCond::Absolute { cq, count })).label("if trigger"),
            );
            counts.ordering += 1;
        }

        // The branch: CAS on the action's header word.
        let cas = p.push(
            ctrl,
            OpBuild::new(Kind::Transmute {
                target: staged_action,
                y,
                into: action_op,
            })
            .signaled()
            .label("if CAS"),
        );
        counts.atomics += 1;

        // Doorbell ordering: the action may only be fetched after the CAS
        // completed. (The optimizer elides this WAIT into a `wait_prev`
        // fence on the ENABLE.)
        p.push(
            ctrl,
            OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)).label("if CAS wait"),
        );
        p.push(
            ctrl,
            OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(staged_action)))
                .label("if action release"),
        );
        counts.ordering += 2;

        let x_inject = p.field_ref(staged_action, WqeField::Id);
        IfEq {
            action: staged_action,
            cas,
            x_inject,
            counts,
        }
    }

    /// Host-side injection of the runtime operand (tests and host-driven
    /// setups; RPC offloads use RECV scatter instead). Call after the
    /// owning program deployed.
    pub fn inject_x(&self, sim: &mut Simulator, x: u64) -> Result<()> {
        let x = operand48(x);
        self.x_inject.write(sim, &x.to_le_bytes()[..6])
    }
}

/// A built wide-operand conditional: `if (x == y) action` for operands
/// wider than 48 bits, via CAS chaining (§3.5: "we can chain together
/// multiple CAS operations to handle different segments of a larger
/// operand — we do not rely on the atomicity property of CAS").
///
/// Stage `i` tests segment `i`; on a match its CAS transmutes the *next
/// stage's placeholder from NOOP into a real CAS*, so the conjunction
/// short-circuits: any mismatching segment leaves the rest of the chain
/// as NOOPs and the action never fires.
#[derive(Clone, Debug)]
pub struct IfEqWide {
    /// The action op.
    pub action: OpId,
    /// Injection points for the operand segments, least-significant
    /// first (6 bytes each); resolve after deploy.
    pub x_injects: Vec<FieldRef>,
    /// Verb accounting (paper cost model).
    pub counts: VerbCounts,
}

impl IfEqWide {
    /// Build a wide conditional comparing `bits` bits of `x` against `y`.
    pub fn build(
        p: &mut IrProgram,
        ctrl: QId,
        stages_q: QId,
        y: u128,
        bits: u32,
        action: WorkRequest,
        trigger: Option<(CqId, u64)>,
    ) -> IfEqWide {
        let y_segs = wide_segments(y, bits);
        let k = y_segs.len();
        assert!(k >= 1);
        let action_op = action.wqe.opcode;
        assert!(action_op != Opcode::Noop);

        let mut counts = VerbCounts::default();
        if let Some((cq, count)) = trigger {
            p.push(
                ctrl,
                OpBuild::new(Kind::Wait(WaitCond::Absolute { cq, count })).label("wide trigger"),
            );
            counts.ordering += 1;
        }

        // Stage the carriers T_1..T_{k-1} (NOOP -> CAS) and the action
        // T_k (NOOP -> action) in the managed queue, in order. Each
        // carrier's CAS targets the *next* op — forward references, so
        // allocate all k ops first.
        let staged: Vec<OpId> = (0..k).map(|_| p.alloc(stages_q)).collect();
        for i in 0..k {
            let is_last = i == k - 1;
            if is_last {
                p.place(
                    staged[i],
                    OpBuild::new(Kind::Raw(action))
                        .placeholder()
                        .label("wide action"),
                );
                counts.copies += 1;
            } else {
                // Carrier: preset CAS fields testing segment i+1 on the
                // next op; staged as a NOOP (id holds x_i, injected).
                let target_op = if i + 1 == k - 1 {
                    action_op
                } else {
                    Opcode::Cas
                };
                p.place(
                    staged[i],
                    OpBuild::new(Kind::Transmute {
                        target: staged[i + 1],
                        y: y_segs[i + 1],
                        into: target_op,
                    })
                    .signaled()
                    .placeholder()
                    .label("wide carrier"),
                );
                counts.atomics += 1;
            }
        }

        // First CAS, from the control queue, tests segment 0 on T_1.
        let first_target = if k == 1 { action_op } else { Opcode::Cas };
        p.push(
            ctrl,
            OpBuild::new(Kind::Transmute {
                target: staged[0],
                y: y_segs[0],
                into: first_target,
            })
            .signaled()
            .label("wide first CAS"),
        );
        counts.atomics += 1;

        // Release the stages one at a time under doorbell ordering: each
        // stage may only be fetched once its predecessor CAS completed.
        p.push(
            ctrl,
            OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)).label("wide CAS wait"),
        );
        p.push(
            ctrl,
            OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(staged[0])))
                .label("wide stage release"),
        );
        counts.ordering += 2;
        for i in 1..k {
            // Carrier T_i completes (as NOOP or CAS) on the stage queue's
            // CQ; every carrier is signaled, the action placeholder not.
            p.push(
                ctrl,
                OpBuild::new(Kind::Wait(WaitCond::OpDoneSignaled(staged[i - 1])))
                    .label("wide carrier wait"),
            );
            p.push(
                ctrl,
                OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(staged[i])))
                    .label("wide stage release"),
            );
            counts.ordering += 2;
        }

        IfEqWide {
            action: staged[k - 1],
            x_injects: staged
                .iter()
                .map(|s| p.field_ref(*s, WqeField::Id))
                .collect(),
            counts,
        }
    }

    /// Host-side injection of a wide operand (after deploy).
    pub fn inject_x(&self, sim: &mut Simulator, x: u128) -> Result<()> {
        let segs = wide_segments(x, self.x_injects.len() as u32 * OPERAND_BITS);
        for (fr, seg) in self.x_injects.iter().zip(segs) {
            fr.write(sim, &seg.to_le_bytes()[..6])?;
        }
        Ok(())
    }
}

/// A built `if (x <= y) action` construct (§3.5: "inequality predicates,
/// such as < or >, can also be supported by combining equality checks with
/// MAX or MIN").
///
/// The chain computes `scratch = max(x, y)` with the vendor MAX verb, then
/// copies the result into the conditional's operand position and tests
/// `scratch == y` — true iff `x <= y`. Everything runs on the NIC; the
/// host (or a RECV scatter) only places `x` into the scratch word.
#[derive(Clone, Debug)]
pub struct IfLe {
    /// Where the runtime operand `x` must be written (8-byte pool cell;
    /// resolves after deploy).
    pub x_inject: ConstRef,
    /// The underlying equality conditional.
    pub inner: IfEq,
    /// Verb accounting (includes the MAX and the operand-move READ).
    pub counts: VerbCounts,
}

impl IfLe {
    /// Build the construct. Requires calc-verb support on the NIC.
    pub fn build(p: &mut IrProgram, ctrl: QId, actions: QId, y: u64, action: WorkRequest) -> IfLe {
        let y = operand48(y);
        let scratch = p.const_zeroed(8);
        let mut counts = VerbCounts::default();

        // The action placeholder is allocated up front so the operand-move
        // READ can target its id field before IfEq stages it.
        let action_op = p.alloc(actions);

        // scratch = max(x, y).
        p.push(
            ctrl,
            OpBuild::new(Kind::MaxOf {
                target: Loc::cst(scratch),
                operand: y,
            })
            .signaled()
            .label("le MAX"),
        );
        p.push(
            ctrl,
            OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)).label("le MAX wait"),
        );
        counts.atomics += 1;
        counts.ordering += 1;

        // Move the low 6 bytes of scratch into the action's id field.
        p.push(
            ctrl,
            OpBuild::new(Kind::Read {
                dst: Loc::field(action_op, WqeField::Id),
                len: 6,
                src: Loc::cst(scratch),
            })
            .signaled()
            .label("le operand move"),
        );
        p.push(
            ctrl,
            OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)).label("le move wait"),
        );
        counts.copies += 1;
        counts.ordering += 1;

        // Equality test: max(x, y) == y  <=>  x <= y.
        let inner = IfEq::build_on(p, ctrl, y, action, None, action_op);
        let counts = counts.merge(&inner.counts);
        IfLe {
            x_inject: p.const_ref(scratch),
            inner,
            counts,
        }
    }

    /// Place the runtime operand (after deploy).
    pub fn inject_x(&self, sim: &mut Simulator, x: u64) -> Result<()> {
        self.x_inject.write(sim, &operand48(x).to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ChainQueueBuilder;
    use crate::program::{ChainQueue, ConstPool};
    use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
    use rnic_sim::ids::{NodeId, ProcessId};
    use rnic_sim::mem::Access;

    struct Rig {
        sim: Simulator,
        node: NodeId,
        ctrl: ChainQueue,
        act: ChainQueue,
        pool: ConstPool,
        flag: u64,
        flag_rkey: u32,
        one: u64,
        one_lkey: u32,
    }

    fn rig() -> Rig {
        let mut sim = Simulator::new(SimConfig::default());
        let node = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
        let ctrl = ChainQueueBuilder::new(node, ProcessId(0))
            .depth(64)
            .build(&mut sim)
            .unwrap();
        let act = ChainQueueBuilder::new(node, ProcessId(0))
            .managed()
            .depth(64)
            .build(&mut sim)
            .unwrap();
        let pool = ConstPool::create(&mut sim, node, 4096, ProcessId(0)).unwrap();
        let flag = sim.alloc(node, 8, 8).unwrap();
        let fmr = sim.register_mr(node, flag, 8, Access::all()).unwrap();
        let one = sim.alloc(node, 8, 8).unwrap();
        let omr = sim.register_mr(node, one, 8, Access::all()).unwrap();
        sim.mem_write_u64(node, one, 1).unwrap();
        Rig {
            sim,
            node,
            ctrl,
            act,
            pool,
            flag,
            flag_rkey: fmr.rkey,
            one,
            one_lkey: omr.lkey,
        }
    }

    /// Deploy a one-construct program: post actions, inject via `f`, post
    /// ctrl, run.
    fn run_program(
        r: &mut Rig,
        p: IrProgram,
        ctrl: QId,
        act: QId,
        inject: impl FnOnce(&mut Simulator),
    ) {
        let mut lowered = p.deploy(&mut r.sim, &mut r.pool).unwrap();
        lowered.post(&mut r.sim, act).unwrap();
        inject(&mut r.sim);
        lowered.post(&mut r.sim, ctrl).unwrap();
        r.sim.run().unwrap();
    }

    fn run_if(x: u64, y: u64) -> (u64, VerbCounts) {
        let mut r = rig();
        let mut p = IrProgram::linear();
        let ctrl = p.chain(r.ctrl);
        let act = p.chain(r.act);
        let action = WorkRequest::write(r.one, r.one_lkey, 8, r.flag, r.flag_rkey);
        let parts = IfEq::build(&mut p, ctrl, act, y, action, None);
        let counts = parts.counts;
        let branch = parts.clone();
        run_program(&mut r, p, ctrl, act, |sim| {
            branch.inject_x(sim, x).unwrap();
        });
        (r.sim.mem_read_u64(r.node, r.flag).unwrap(), counts)
    }

    #[test]
    fn if_taken_when_equal() {
        let (flag, counts) = run_if(5, 5);
        assert_eq!(flag, 1, "x == y must take the branch");
        // Without a trigger: 1C + 1A + 2E (paper cost model; the
        // optimizer stages one ordering verb fewer).
        assert_eq!(counts.copies, 1);
        assert_eq!(counts.atomics, 1);
        assert_eq!(counts.ordering, 2);
    }

    #[test]
    fn if_not_taken_when_different() {
        let (flag, _) = run_if(5, 6);
        assert_eq!(flag, 0, "x != y must not take the branch");
    }

    #[test]
    fn if_with_trigger_matches_table2() {
        // With the trigger WAIT the cost is the paper's 1C + 1A + 3E.
        let r = rig();
        let mut p = IrProgram::linear();
        let ctrl = p.chain(r.ctrl);
        let act = p.chain(r.act);
        let action = WorkRequest::write(r.one, r.one_lkey, 8, r.flag, r.flag_rkey);
        let trigger_cq = r.act.cq; // any CQ works for accounting
        let parts = IfEq::build(&mut p, ctrl, act, 9, action, Some((trigger_cq, 0)));
        assert_eq!(parts.counts.copies, 1);
        assert_eq!(parts.counts.atomics, 1);
        assert_eq!(parts.counts.ordering, 3);
    }

    #[test]
    fn optimizer_elides_the_cas_wait() {
        // The deployed chain carries one ordering verb fewer than the
        // paper model: the WAIT between CAS and ENABLE becomes a
        // wait_prev fence on the ENABLE.
        let mut r = rig();
        let mut p = IrProgram::linear();
        let ctrl = p.chain(r.ctrl);
        let act = p.chain(r.act);
        let action = WorkRequest::write(r.one, r.one_lkey, 8, r.flag, r.flag_rkey);
        let parts = IfEq::build(&mut p, ctrl, act, 5, action, None);
        let mut lowered = p.deploy(&mut r.sim, &mut r.pool).unwrap();
        let report = lowered.report();
        assert_eq!(report.waits_elided, 1);
        assert_eq!(report.before.ordering, 2);
        assert_eq!(report.after.ordering, 1);
        lowered.post(&mut r.sim, act).unwrap();
        parts.inject_x(&mut r.sim, 5).unwrap();
        lowered.post(&mut r.sim, ctrl).unwrap();
        r.sim.run().unwrap();
        assert_eq!(r.sim.mem_read_u64(r.node, r.flag).unwrap(), 1);
    }

    #[test]
    fn unmanaged_action_queue_is_rejected_by_the_verifier() {
        // The §3.1 hazard as a deploy-time hard error (the old API
        // asserted; the IR names the offending WQE instead).
        let mut r = rig();
        let unmanaged = ChainQueueBuilder::new(r.node, ProcessId(0))
            .depth(32)
            .build(&mut r.sim)
            .unwrap();
        let mut p = IrProgram::linear();
        let ctrl = p.chain(r.ctrl);
        let act = p.chain(unmanaged);
        let action = WorkRequest::write(r.one, r.one_lkey, 8, r.flag, r.flag_rkey);
        let _ = IfEq::build(&mut p, ctrl, act, 5, action, None);
        let err = match p.deploy(&mut r.sim, &mut r.pool) {
            Err(e) => e,
            Ok(_) => panic!("the verifier must reject the unmanaged action queue"),
        };
        let msg = format!("{err}");
        assert!(msg.contains("UNMANAGED"), "{msg}");
        assert!(msg.contains("if action"), "{msg}");
    }

    #[test]
    fn if_operand_is_48_bits() {
        // Operands wider than 48 bits are truncated by a single if — the
        // Table 2 limit.
        let x = (1u64 << 48) | 7;
        let (flag, _) = run_if(x, 7);
        assert_eq!(flag, 1, "bit 48 must be ignored by a 48-bit conditional");
    }

    #[test]
    fn chained_ifs_on_same_queues() {
        // Two conditionals sharing ctrl and action queues: both fire.
        let mut r = rig();
        let flag2 = r.sim.alloc(r.node, 8, 8).unwrap();
        let fmr2 = r.sim.register_mr(r.node, flag2, 8, Access::all()).unwrap();
        let mut p = IrProgram::linear();
        let ctrl = p.chain(r.ctrl);
        let act = p.chain(r.act);
        let a1 = WorkRequest::write(r.one, r.one_lkey, 8, r.flag, r.flag_rkey);
        let a2 = WorkRequest::write(r.one, r.one_lkey, 8, flag2, fmr2.rkey);
        let p1 = IfEq::build(&mut p, ctrl, act, 1, a1, None);
        let p2 = IfEq::build(&mut p, ctrl, act, 2, a2, None);
        run_program(&mut r, p, ctrl, act, |sim| {
            p1.inject_x(sim, 1).unwrap(); // taken
            p2.inject_x(sim, 3).unwrap(); // not taken
        });
        assert_eq!(r.sim.mem_read_u64(r.node, r.flag).unwrap(), 1);
        assert_eq!(r.sim.mem_read_u64(r.node, flag2).unwrap(), 0);
    }

    fn run_wide(x: u128, y: u128, bits: u32) -> u64 {
        let mut r = rig();
        let mut p = IrProgram::linear();
        let ctrl = p.chain(r.ctrl);
        let act = p.chain(r.act);
        let action = WorkRequest::write(r.one, r.one_lkey, 8, r.flag, r.flag_rkey);
        let parts = IfEqWide::build(&mut p, ctrl, act, y, bits, action, None);
        run_program(&mut r, p, ctrl, act, |sim| {
            parts.inject_x(sim, x).unwrap();
        });
        r.sim.mem_read_u64(r.node, r.flag).unwrap()
    }

    #[test]
    fn wide_if_96_bits_taken() {
        let v: u128 = 0x1234_5678_9ABC_DEF0_1122_3344;
        assert_eq!(run_wide(v, v, 96), 1);
    }

    #[test]
    fn wide_if_mismatch_in_high_segment() {
        let v: u128 = 0x1234_5678_9ABC_DEF0_1122_3344;
        // Flip a bit above the 48-bit boundary: a single-CAS conditional
        // would miss it; the chained one must not.
        let w = v ^ (1u128 << 60);
        assert_eq!(run_wide(v, w, 96), 0);
    }

    #[test]
    fn wide_if_mismatch_in_low_segment() {
        let v: u128 = 0xAAAA_BBBB_CCCC_DDDD_EEEE;
        assert_eq!(run_wide(v, v ^ 1, 80), 0);
    }

    #[test]
    fn wide_if_single_segment_degenerates_to_if() {
        assert_eq!(run_wide(42, 42, 48), 1);
        assert_eq!(run_wide(42, 43, 48), 0);
    }

    #[test]
    fn if_le_predicate_runs_entirely_on_nic() {
        // x <= y via MAX + equality (§3.5), end to end on the NIC.
        for (x, y, expect) in [(3u64, 5u64, 1u64), (5, 5, 1), (7, 5, 0), (0, 5, 1)] {
            let mut r = rig();
            let mut p = IrProgram::linear();
            let ctrl = p.chain(r.ctrl);
            let act = p.chain(r.act);
            let action = WorkRequest::write(r.one, r.one_lkey, 8, r.flag, r.flag_rkey);
            let parts = IfLe::build(&mut p, ctrl, act, y, action);
            run_program(&mut r, p, ctrl, act, |sim| {
                parts.inject_x(sim, x).unwrap();
            });
            let flag = r.sim.mem_read_u64(r.node, r.flag).unwrap();
            assert_eq!(flag, expect, "x={x} y={y}");
        }
    }
}
