//! The runtime patch edges of a program: which op writes into which
//! op's WQE slot at run time. The `fetch-horizon` rule, the
//! happens-before graph, the bounds pass and the WAIT-elision pass all
//! read one map, built once per deploy.

use crate::encode::WqeField;
use crate::ir::{ConstSpec, IrProgram, Kind, Loc, OpId};

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

    /// Collect the runtime patch edges of `p` (shared by the analysis
    /// rules and the WAIT-elision pass), replacing what the map held.
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
