//! The local rules: each judges one op, one patch edge or one queue,
//! where the happens-before and bounds passes judge the whole program.
//! They are the conditions the paper's self-modifying chains are safe
//! under (cf. *"On the Verification Problem of RDMA programs"*):
//!
//! * **`malformed`** — an op allocated but never placed, or a per-round
//!   bump or restore mark the program's mode cannot honour. A program
//!   with an unplaced op is judged by nothing else.
//! * **`fetch-horizon`** (§3.1) — patching a WQE that lives on an
//!   *unmanaged* queue. Unmanaged queues prefetch in batches the moment
//!   a doorbell rings, so a runtime patch races the DMA snapshot and
//!   the execution outcome reflects whichever bytes the NIC read first.
//!   Every patch target (CAS transmutation, restore WRITE, scatter
//!   landing inside a WQE, image write-through) must live on a managed
//!   queue, whose fetches are serialized behind ENABLE horizons.
//! * **`unreachable-enable`** — an op on a managed program queue that no
//!   ENABLE horizon ever covers would park the queue forever (declare
//!   [`IrProgram::external_enable`] when the horizon is raised outside
//!   the program); ENABLEs aimed at unmanaged queues are meaningless.
//! * **`recycled-induction`** (§3.4) — in a recycled ring every absolute
//!   WAIT and every ENABLE must advance by a positive per-round bump
//!   that equals the count one round produces, or the second round's
//!   threshold is stale and the chain either deadlocks or fires early.
//!   [`recycled`] owns both halves: that a bump exists, and its value.

use super::patch::PatchMap;
use super::{Diagnostic, Rule};
use crate::ir::{EnableTarget, IrProgram, Kind, OpId, QId, WaitCond};

fn push(out: &mut Vec<Diagnostic>, rule: Rule, message: String) {
    out.push(Diagnostic { rule, message });
}

/// `malformed`: every allocated op was placed. Returns whether all were.
pub(crate) fn placed(p: &IrProgram, out: &mut Vec<Diagnostic>) -> bool {
    let before = out.len();
    for (i, rec) in p.ops.iter().enumerate().filter(|(_, rec)| rec.op.is_none()) {
        let q = rec.queue.0;
        let message = format!("op {i} was allocated on queue q{q} but never placed");
        push(out, Rule::Malformed, message);
    }
    out.len() == before
}

/// `fetch-horizon`: no runtime patch edge targets an unmanaged queue.
pub(crate) fn fetch_horizon(p: &IrProgram, pm: &PatchMap, out: &mut Vec<Diagnostic>) {
    for e in &pm.edges {
        let (target, tq) = (p.name_of(e.target()), p.ops[e.target().0].queue.0);
        if p.queues[tq].managed() {
            continue;
        }
        let who = match e.patcher() {
            Some(patcher) => p.name_of(patcher).to_string(),
            None => "an external scatter/restore".to_string(),
        };
        let message = format!(
            "\u{a7}3.1 hazard: {who} patches {target} on UNMANAGED queue q{tq} — the NIC may \
             prefetch the target past its fetch horizon before the patch lands; stage the \
             target on a managed queue"
        );
        push(out, Rule::FetchHorizon, message);
    }
}

/// `unreachable-enable`. Fills `horizons` with every ENABLE's
/// `(queue, horizon, ENABLE)`, ascending — the list the happens-before
/// graph draws its release edges from — and checks each managed program
/// queue against the highest horizon raised on it.
pub(crate) fn enables(
    p: &IrProgram,
    horizons: &mut Vec<(usize, usize, OpId)>,
    out: &mut Vec<Diagnostic>,
) {
    horizons.clear();
    for (i, rec) in p.ops.iter().enumerate() {
        let Some(Kind::Enable(EnableTarget::OpsThrough(t))) = rec.op.as_ref().map(|o| &o.kind)
        else {
            continue;
        };
        let (target, tq) = (p.name_of(*t), p.ops[t.0].queue.0);
        if !p.queues[tq].managed() {
            let message = format!(
                "ENABLE targets {target} on UNMANAGED queue q{tq} — unmanaged queues fetch \
                 from their doorbell, not from ENABLE horizons"
            );
            push(out, Rule::UnreachableEnable, message);
        }
        if let Some(pos) = p.pos_of(*t) {
            horizons.push((tq, pos + 1, OpId(i)));
        }
    }
    horizons.sort_unstable();

    let mut next = 0;
    for (qi, ops) in p.queue_ops.iter().enumerate() {
        // The queue's run of the sorted list ends at its highest horizon.
        let mut reach = 0;
        while let Some(&(_, h, _)) = horizons.get(next).filter(|h| h.0 == qi) {
            (reach, next) = (h, next + 1);
        }
        let q = QId(qi);
        if Some(q) == p.ring() || !p.queues[qi].managed() || p.external_enable.contains(&q) {
            continue; // the ring self-enables; unmanaged queues ring doorbells
        }
        if ops.len() > reach {
            let (first, len) = (p.name_of(ops[reach]), ops.len());
            let message = format!(
                "unreachable ENABLE target: {first} on managed queue q{qi} is never covered \
                 by any ENABLE horizon (got {reach} of {len} ops) — the queue would park \
                 forever; declare external_enable(q{qi}) if the host releases it"
            );
            push(out, Rule::UnreachableEnable, message);
        }
    }
}

/// Every per-round bump and restore mark, in one walk over the ops:
/// `malformed` where the program's mode cannot honour the mark, and
/// `recycled-induction` where a ring threshold does not advance by one
/// round's count. Round `n+1`'s thresholds are round `n`'s plus the
/// bump, so each bump must exist and equal what one round produces —
///
/// * an `ENABLE(OpsThrough(t)).bump(d)` re-releases `t`'s queue every
///   round, so `d` must equal that queue's per-round op count;
/// * a `WAIT(Absolute { cq }).bump(d)` on a CQ fed by this program's
///   own bound queues must bump by exactly the signaled ops one round
///   completes on that CQ (foreign CQs — trigger RECVs — are advanced
///   by the outside and are not checkable here).
pub(crate) fn recycled(p: &IrProgram, out: &mut Vec<Diagnostic>) {
    let ring = p.ring();
    for (i, rec) in p.ops.iter().enumerate() {
        let Some(op) = rec.op.as_ref() else { continue };
        let name = p.name_of(OpId(i));
        let on_ring = Some(rec.queue) == ring;
        let mut malformed = |what: &str| push(out, Rule::Malformed, format!("{name}{what}"));
        if !on_ring && op.bump.is_some() {
            malformed(" carries a per-round bump but is not on the recycled ring");
        }
        if op.restore && ring.is_none() {
            malformed(" is restore-marked but the program has no recycled ring");
        }
        if op.restore && op.bump.is_some() {
            malformed(
                " is both restore-marked and bumped — restoring would clobber the advanced \
                 threshold",
            );
        }
        if on_ring && op.bump.is_some() && matches!(op.kind, Kind::Wait(WaitCond::LocalAllSignaled))
        {
            malformed(
                ": LocalAllSignaled thresholds are auto-bumped by the ring; remove the custom bump",
            );
        }
        let Some(ring) = ring.filter(|_| on_ring) else {
            continue;
        };
        let message = match (&op.kind, op.bump) {
            (Kind::Wait(WaitCond::Absolute { .. }), None | Some(0)) => format!(
                "non-monotonic WAIT threshold across ring cycles: {name} waits on an \
                 absolute count with no positive per-round bump — round 2 would reuse round \
                 1's threshold"
            ),
            (Kind::Wait(WaitCond::Absolute { cq, .. }), Some(d)) => {
                let per_round: u64 = (p.queues.iter().enumerate())
                    .filter(|(qi, slot)| {
                        QId(*qi) != ring && slot.bound().is_some_and(|q| q.cq == *cq)
                    })
                    .map(|(qi, _)| {
                        p.queue_ops[qi]
                            .iter()
                            .filter(|o| p.op(**o).signaled)
                            .count() as u64
                    })
                    .sum();
                if per_round == 0 || d == per_round {
                    continue;
                }
                let ring_will = if d > per_round {
                    "can never"
                } else {
                    "has already passed; it would fire early and"
                };
                format!(
                    "recycled induction failure: {name} bumps its absolute CQ threshold by \
                     {d} per round, but one round completes {per_round} signaled ops on that \
                     CQ — round 2 waits on a count the ring {ring_will} reach"
                )
            }
            (Kind::Wait(WaitCond::OpDonePosted(_) | WaitCond::OpDoneSignaled(_)), _) => format!(
                "{name}: per-op thresholds are not supported inside a recycled ring (use \
                 LocalAllSignaled or an absolute count with a bump)"
            ),
            (Kind::Enable(_), None | Some(0)) => format!(
                "non-monotonic ENABLE horizon across ring cycles: {name} re-executes every \
                 round but its horizon never advances (add a per-round bump)"
            ),
            (Kind::Enable(EnableTarget::OpsThrough(t)), Some(d)) => {
                let tq = p.ops[t.0].queue;
                let per_round = p.queue_ops[tq.0].len() as u64;
                if tq == ring || !p.queues[tq.0].managed() || d == per_round {
                    continue;
                }
                let side = if d < per_round { "behind" } else { "ahead of" };
                format!(
                    "recycled induction failure: {name} advances queue q{}'s horizon by {d} \
                     per round, but the queue re-executes {per_round} ops per round — after \
                     one cycle the horizon is {side} the ops it must release",
                    tq.0
                )
            }
            _ => continue,
        };
        push(out, Rule::RecycledInduction, message);
    }
}
