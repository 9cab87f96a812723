//! The static chain verifier — deploy-time rejection of the hazard
//! classes self-modifying WR chains are prone to.
//!
//! Three rule families, each an analyzable consequence of the execution
//! model (cf. *"On the Verification Problem of RDMA programs"*):
//!
//! 1. **§3.1 fetch-horizon hazard** — patching a WQE that lives on an
//!    *unmanaged* queue. Unmanaged queues prefetch in batches the moment
//!    a doorbell rings, so a runtime patch races the DMA snapshot and
//!    the execution outcome reflects whichever bytes the NIC read first.
//!    Every patch target (CAS transmutation, restore WRITE, scatter
//!    landing inside a WQE, image write-through) must live on a managed
//!    queue, whose fetches are serialized behind ENABLE horizons.
//! 2. **Unreachable ENABLE targets** — an op on a managed program queue
//!    that no ENABLE horizon ever covers would park the queue forever
//!    (declare [`IrProgram::external_enable`] when the horizon is raised
//!    outside the program); ENABLEs aimed at unmanaged queues are
//!    meaningless.
//! 3. **Non-monotonic recycled WAIT thresholds** — in a recycled ring
//!    every absolute WAIT (and every ENABLE of a foreign ring) must
//!    advance by a positive per-round delta, or the second round's
//!    threshold is stale and the chain either deadlocks or fires early
//!    (§3.4's monotonic `wqe_count` fix-up, made a checkable rule).

use rnic_sim::error::{Error, Result};

use super::{ConstSpec, EnableTarget, IrProgram, Kind, Loc, Mode, OpId, WaitCond};
use crate::encode::WqeField;

/// A runtime patch edge: `patcher` writes into `target`'s WQE slot.
/// Packed: a program has a few edges per op and the map is kept between
/// deploys.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PatchEdge {
    /// `u32::MAX`: patched from outside the op list (a trigger scatter,
    /// the restore chain, a fix-up).
    patcher: u32,
    target: u32,
}

impl PatchEdge {
    /// The op doing the patching, if it is an op of the program.
    pub(crate) fn patcher(&self) -> Option<OpId> {
        (self.patcher != u32::MAX).then_some(OpId(self.patcher as usize))
    }

    /// The op whose WQE slot is written.
    pub(crate) fn target(&self) -> OpId {
        OpId(self.target as usize)
    }
}

/// Every patch edge in the program, plus whether the recycled tail
/// ENABLE is itself a runtime patch target (a compiled halt). Rebuilt in
/// place per deploy, so a scratch-owned map allocates once.
#[derive(Default)]
pub(crate) struct PatchMap {
    pub(crate) edges: Vec<PatchEdge>,
    pub(crate) tail_patched: bool,
    /// One bit per op: some edge targets it.
    targets: Vec<u64>,
}

impl PatchMap {
    pub(crate) fn is_target(&self, op: OpId) -> bool {
        self.targets[op.0 / 64] >> (op.0 % 64) & 1 == 1
    }

    fn add(&mut self, patcher: Option<OpId>, target: OpId) {
        self.edges.push(PatchEdge {
            patcher: patcher.map_or(u32::MAX, |op| op.0 as u32),
            target: target.0 as u32,
        });
        self.targets[target.0 / 64] |= 1 << (target.0 % 64);
    }

    fn add_loc(&mut self, patcher: Option<OpId>, loc: &Loc) {
        match loc {
            Loc::Field { op, .. } => self.add(patcher, *op),
            Loc::TailEnable { .. } => self.tail_patched = true,
            _ => {}
        }
    }

    /// Collect the runtime patch edges of `p` (shared by the verifier,
    /// the analyses and the WAIT-elision pass), replacing what the map
    /// held.
    pub(crate) fn rebuild(&mut self, p: &IrProgram) {
        self.edges.clear();
        self.tail_patched = false;
        self.targets.clear();
        self.targets.resize(p.ops.len().div_ceil(64), 0);
        for (i, rec) in p.ops.iter().enumerate() {
            let Some(op) = rec.op.as_ref() else { continue };
            let id = OpId(i);
            match &op.kind {
                Kind::Write { dst, .. } | Kind::Read { dst, .. } => self.add_loc(Some(id), dst),
                Kind::Transmute { target, .. } => self.add(Some(id), *target),
                Kind::FetchAdd { target, .. } | Kind::MaxOf { target, .. } => {
                    self.add_loc(Some(id), target)
                }
                _ => {}
            }
            // A restore-marked op is re-patched every round by the restore
            // chain the lowering synthesizes.
            if op.restore {
                self.add(None, id);
            }
            // A bumped op's operand word is advanced by a FETCH_ADD fix-up.
            if op.bump.is_some() {
                self.add(None, id);
            }
        }
        // External scatter lists (trigger RECVs) inject into WQE fields.
        for &run in &p.scatters {
            for e in p.sges(run) {
                self.add_loc(None, &e.target);
            }
        }
        // Every SGE-table constant scatters into its targets at run time —
        // whether a READ in this program consumes it or a trigger RECV
        // posted outside does.
        for c in &p.consts {
            if let ConstSpec::Sges(run) = c {
                for e in p.sges(*run) {
                    self.add_loc(None, &e.target);
                }
            }
        }
        // Image constants: a RemoteAddr patch makes the image WQE write
        // *through* the named location at run time.
        for c in &p.consts {
            if let ConstSpec::Images(wqes) = c {
                for (field, loc) in wqes.iter().flat_map(|w| &w.patches) {
                    if *field == WqeField::RemoteAddr {
                        self.add_loc(None, loc);
                    }
                }
            }
        }
    }
}

/// A fresh patch map of `p`.
pub(crate) fn patch_map(p: &IrProgram) -> PatchMap {
    let mut pm = PatchMap::default();
    pm.rebuild(p);
    pm
}

fn err(msg: String) -> Error {
    Error::Verifier(msg)
}

/// Run the full rule set; the first diagnostic is returned as a hard
/// error naming the offending WQE.
pub fn verify(p: &IrProgram) -> Result<()> {
    verify_with(p, &patch_map(p))
}

/// As [`verify`], over a precomputed patch map (deploy shares one map
/// between the verifier and the optimizer).
pub(crate) fn verify_with(p: &IrProgram, pm: &PatchMap) -> Result<()> {
    // Structural sanity: every allocated op was placed.
    for (i, rec) in p.ops.iter().enumerate() {
        if rec.op.is_none() {
            return Err(err(format!(
                "op {} was allocated on queue q{} but never placed",
                i, rec.queue.0
            )));
        }
    }

    // Rule 1: §3.1 fetch-horizon hazard.
    for e in &pm.edges {
        let tq = p.ops[e.target().0].queue;
        if !p.queues[tq.0].managed() {
            let who = match e.patcher() {
                Some(patcher) => p.name_of(patcher).to_string(),
                None => "an external scatter/restore".to_string(),
            };
            return Err(err(format!(
                "\u{a7}3.1 hazard: {} patches {} on UNMANAGED queue q{} — the NIC may \
                 prefetch the target past its fetch horizon before the patch lands; \
                 stage the target on a managed queue",
                who,
                p.name_of(e.target()),
                tq.0
            )));
        }
    }

    // Rule 2: ENABLE reachability.
    let ring = match p.mode {
        Mode::Recycled { ring } => Some(ring),
        Mode::Linear => None,
    };
    // Horizon (exclusive op position) each queue is enabled through.
    let mut horizon = vec![0usize; p.queues.len()];
    for rec in p.ops.iter() {
        let Some(op) = rec.op.as_ref() else { continue };
        if let Kind::Enable(EnableTarget::OpsThrough(t)) = &op.kind {
            let tq = p.ops[t.0].queue;
            if !p.queues[tq.0].managed() {
                return Err(err(format!(
                    "ENABLE targets {} on UNMANAGED queue q{} — unmanaged queues fetch \
                     from their doorbell, not from ENABLE horizons",
                    p.name_of(*t),
                    tq.0
                )));
            }
            match p.pos_of(*t) {
                Some(pos) => horizon[tq.0] = horizon[tq.0].max(pos + 1),
                None => {
                    return Err(err(format!(
                        "ENABLE targets {} which is not placed on any queue",
                        p.name_of(*t)
                    )))
                }
            }
        }
    }
    for (qi, ops) in p.queue_ops.iter().enumerate() {
        let q = super::QId(qi);
        if Some(q) == ring || !p.queues[qi].managed() || p.external_enable.contains(&q) {
            continue; // the ring self-enables; unmanaged queues ring doorbells
        }
        if ops.len() > horizon[qi] {
            return Err(err(format!(
                "unreachable ENABLE target: {} on managed queue q{} is never covered by \
                 any ENABLE horizon (got {} of {} ops) — the queue would park forever; \
                 declare external_enable(q{}) if the host releases it",
                p.name_of(ops[horizon[qi]]),
                qi,
                horizon[qi],
                ops.len(),
                qi
            )));
        }
    }

    // Rule 3: recycled-ring monotonicity + annotation placement.
    for (i, rec) in p.ops.iter().enumerate() {
        let Some(op) = rec.op.as_ref() else { continue };
        let on_ring = Some(rec.queue) == ring;
        let id = OpId(i);
        if !on_ring && op.bump.is_some() {
            return Err(err(format!(
                "{} carries a per-round bump but is not on the recycled ring",
                p.name_of(id)
            )));
        }
        if op.restore && ring.is_none() {
            return Err(err(format!(
                "{} is restore-marked but the program has no recycled ring",
                p.name_of(id)
            )));
        }
        if op.restore && op.bump.is_some() {
            return Err(err(format!(
                "{} is both restore-marked and bumped — restoring would clobber the \
                 advanced threshold",
                p.name_of(id)
            )));
        }
        if on_ring {
            match &op.kind {
                Kind::Wait(WaitCond::Absolute { .. }) if op.bump.unwrap_or(0) == 0 => {
                    return Err(err(format!(
                        "non-monotonic WAIT threshold across ring cycles: {} waits on \
                         an absolute count with no positive per-round bump — round 2 \
                         would reuse round 1's threshold",
                        p.name_of(id)
                    )));
                }
                Kind::Wait(WaitCond::LocalAllSignaled) if op.bump.is_some() => {
                    return Err(err(format!(
                        "{}: LocalAllSignaled thresholds are auto-bumped by the ring; \
                         remove the custom bump",
                        p.name_of(id)
                    )));
                }
                Kind::Wait(WaitCond::OpDonePosted(_)) | Kind::Wait(WaitCond::OpDoneSignaled(_)) => {
                    return Err(err(format!(
                        "{}: per-op thresholds are not supported inside a recycled \
                         ring (use LocalAllSignaled or an absolute count with a bump)",
                        p.name_of(id)
                    )));
                }
                Kind::Enable(_) if op.bump.unwrap_or(0) == 0 => {
                    return Err(err(format!(
                        "non-monotonic ENABLE horizon across ring cycles: {} re-executes \
                         every round but its horizon never advances (add a per-round \
                         bump)",
                        p.name_of(id)
                    )));
                }
                _ => {}
            }
        }
    }

    Ok(())
}
