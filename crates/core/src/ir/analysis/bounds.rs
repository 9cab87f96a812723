//! Symbolic bounds analysis: prove every READ / WRITE / atomic /
//! scatter target in-bounds before a WQE exists.
//!
//! Operands are checked against the extent their [`Loc`] resolves to:
//!
//! * `Loc::Const` — the constant's pool cell (bytes length, zeroed-cell
//!   length, SGE-table or WQE-image size);
//! * `Loc::Field` — the target op's WQE slot *plus its contiguous
//!   trailing slots on the same queue* (a multi-WQE image write over
//!   `Field(first_action, Header)` is the Turing compiler's trigger
//!   idiom — legal exactly while it stays inside ops staged behind the
//!   target);
//! * `Loc::Raw` — the registered region its key resolves to on the live
//!   simulator. Local keys resolve on the queue's node; remote keys on
//!   the queue's peer node when the peer is known (cross-node chains,
//!   loopback pairs). Trigger-point queues whose true remote is a
//!   client QP connected *after* deploy (`peer == qp`) are skipped — as
//!   are ops that are runtime patch targets, whose staged operands are
//!   placeholders the NIC never dereferences as-is.
//!
//! On top of the direct checks, patch writes of the form
//! `WRITE(const bytes) → Field(target, RemoteAddr)` are constant-folded:
//! the post-patch address is extracted and the *target's* access is
//! re-proven against its region — the "out-of-bounds post-patch WRITE"
//! class that no runtime check catches before the NIC has already
//! dereferenced it.

use rnic_sim::ids::NodeId;
use rnic_sim::sim::Simulator;
use rnic_sim::wqe::{SGE_SIZE, WQE_SIZE};

use super::{Diagnostic, Rule};
use crate::encode::WqeField;
use crate::ir::verify::PatchMap;
use crate::ir::{CId, ConstSpec, IrProgram, Kind, Loc, OpId, OpName, QueueSlot, SgeSpec};

/// Byte extent of a constant's pool cell.
fn const_extent(p: &IrProgram, c: CId) -> u64 {
    match &p.consts[c.0] {
        ConstSpec::Bytes(b) => b.len() as u64,
        ConstSpec::Zeroed(len) => *len,
        ConstSpec::Sges(entries) => entries.len() as u64 * SGE_SIZE,
        ConstSpec::Images(wqes) => wqes.len() as u64 * WQE_SIZE,
    }
}

/// `(local node, remote node if knowable)` for ops staged on queue `qi`.
fn queue_nodes(p: &IrProgram, sim: &Simulator, qi: usize) -> (NodeId, Option<NodeId>) {
    match &p.queues[qi] {
        QueueSlot::Bound(q) | QueueSlot::Ring(_, Some(q)) => {
            let remote = if q.peer != q.qp {
                Some(sim.node_of_qp(q.peer))
            } else {
                None // client-facing trigger point; the far end connects later
            };
            (q.node, remote)
        }
        // The ring queue is a loopback pair created at lowering, on the
        // spec's node.
        QueueSlot::Ring(spec, None) => (spec.node, Some(spec.node)),
    }
}

/// Who performs an access, as a diagnostic names it. `Copy` data until a
/// diagnostic is actually emitted: proving a clean program formats
/// nothing.
#[derive(Clone, Copy)]
enum Who {
    Op(OpName),
    SgeTable(usize),
    Scatter(usize),
}

impl std::fmt::Display for Who {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Who::Op(op) => op.fmt(f),
            Who::SgeTable(c) => write!(f, "SGE table c{c}"),
            Who::Scatter(s) => write!(f, "external scatter s{s}"),
        }
    }
}

/// One symbolic access an op performs.
#[derive(Clone, Copy)]
struct Access<'a> {
    loc: &'a Loc,
    len: u64,
    /// Local (lkey, gather/scatter side) vs remote (rkey) semantics.
    local: bool,
    what: &'static str,
}

/// The (at most two) accesses of `op`, local side first.
fn accesses_of(p: &IrProgram, op: OpId) -> [Option<Access<'_>>; 2] {
    let access = |loc, len, local, what| {
        Some(Access {
            loc,
            len,
            local,
            what,
        })
    };
    match &p.op(op).kind {
        Kind::Write { src, len, dst, .. } => [
            access(src, *len as u64, true, "gather source"),
            access(dst, *len as u64, false, "scatter destination"),
        ],
        Kind::Read { dst, len, src } => [
            access(dst, *len as u64, true, "READ sink"),
            access(src, *len as u64, false, "READ source"),
        ],
        Kind::CasRaw { target, .. }
        | Kind::FetchAdd { target, .. }
        | Kind::MaxOf { target, .. } => [access(target, 8, false, "atomic target"), None],
        // ReadSgl's source length is the sum of its table's entries —
        // resolved separately in `analyze`.
        _ => [None, None],
    }
}

/// Check one symbolic access; returns whether a check was performed.
/// Offsets, lengths and addresses are program constants: an end that
/// does not fit `u64` is out of bounds (and is printed saturated).
#[allow(clippy::too_many_arguments)]
fn check_access(
    p: &IrProgram,
    sim: &Simulator,
    who: Who,
    a: Access<'_>,
    local_node: NodeId,
    remote_node: Option<NodeId>,
    skip_raw: bool,
    out: &mut Vec<Diagnostic>,
) -> bool {
    match a.loc {
        Loc::Const { c, off } => {
            let extent = const_extent(p, *c);
            if off.checked_add(a.len).is_none_or(|end| end > extent) {
                out.push(Diagnostic {
                    rule: Rule::OutOfBounds,
                    message: format!(
                        "out-of-bounds: {}'s {} runs {} bytes into a {}-byte constant \
                         cell (offset {} + length {})",
                        who,
                        a.what,
                        off.saturating_add(a.len),
                        extent,
                        off,
                        a.len
                    ),
                });
            }
            true
        }
        Loc::Field { op, field, off } => {
            let tq = p.ops[op.0].queue;
            let Some(pos) = p.pos_of(*op) else {
                return false; // unplaced; the verifier's structural check owns this
            };
            // The slot plus every contiguous trailing slot staged behind
            // the target on the same queue.
            let avail = ((p.queue_ops[tq.0].len() - pos) as u64 * WQE_SIZE)
                .saturating_sub(field.offset().saturating_add(*off));
            if a.len > avail {
                out.push(Diagnostic {
                    rule: Rule::OutOfBounds,
                    message: format!(
                        "out-of-bounds: {}'s {} writes {} bytes at {} but only {} bytes \
                         of contiguous WQE slots trail it on queue q{}",
                        who,
                        a.what,
                        a.len,
                        p.name_of(*op),
                        avail,
                        tq.0
                    ),
                });
            }
            true
        }
        Loc::Raw { addr, key } => {
            if skip_raw {
                return false; // placeholder operands are patched at run time
            }
            let node = if a.local {
                Some(local_node)
            } else {
                remote_node
            };
            let Some(node) = node else { return false };
            let Some(r) = sim.mr_by_key(node, *key, !a.local) else {
                return false; // key not registered there (a later-connected peer)
            };
            let end = addr.checked_add(a.len);
            if *addr < r.addr || end.is_none_or(|end| end > r.addr + r.len) {
                out.push(Diagnostic {
                    rule: Rule::OutOfBounds,
                    message: format!(
                        "out-of-bounds: {}'s {} [0x{:x}..0x{:x}) falls outside region \
                         [0x{:x}..0x{:x}) (key {}) on node {}",
                        who,
                        a.what,
                        addr,
                        end.unwrap_or(u64::MAX),
                        r.addr,
                        r.addr + r.len,
                        key,
                        node.index()
                    ),
                });
            }
            true
        }
        Loc::TailEnable { .. } => false, // the ring's own tail slot
    }
}

/// Constant-fold `WRITE(const bytes) → Field(target, RemoteAddr)` patch
/// edges and re-prove the target's post-patch access.
fn check_post_patch(
    p: &IrProgram,
    sim: &Simulator,
    pm: &PatchMap,
    out: &mut Vec<Diagnostic>,
) -> usize {
    let mut checked = 0;
    for e in &pm.edges {
        let Some(pw) = e.patcher() else { continue };
        if p.ops[pw.0].op.is_none() || p.ops[e.target().0].op.is_none() {
            continue;
        }
        let Kind::Write { src, len, dst, .. } = &p.op(pw).kind else {
            continue;
        };
        let Loc::Field {
            op: t,
            field: WqeField::RemoteAddr,
            off: 0,
        } = dst
        else {
            continue;
        };
        let Loc::Const { c, off } = src else { continue };
        if *len < 8 {
            continue;
        }
        let ConstSpec::Bytes(bytes) = &p.consts[c.0] else {
            continue; // only literal constants fold
        };
        let window = usize::try_from(*off)
            .ok()
            .and_then(|at| bytes.get(at..at.checked_add(8)?));
        let Some(window) = window else {
            continue; // extent diagnostic already emitted by the direct check
        };
        let new_addr = u64::from_le_bytes(window.try_into().expect("8 bytes"));
        // The target's remote access after the patch: same key and
        // length, new address.
        let (key, tlen) = match &p.op(*t).kind {
            Kind::Write {
                dst: Loc::Raw { key, .. },
                len,
                ..
            } => (*key, *len as u64),
            Kind::Read {
                src: Loc::Raw { key, .. },
                len,
                ..
            } => (*key, *len as u64),
            Kind::CasRaw {
                target: Loc::Raw { key, .. },
                ..
            }
            | Kind::FetchAdd {
                target: Loc::Raw { key, .. },
                ..
            }
            | Kind::MaxOf {
                target: Loc::Raw { key, .. },
                ..
            } => (*key, 8),
            _ => continue,
        };
        let (_, remote_node) = queue_nodes(p, sim, p.ops[t.0].queue.0);
        let Some(node) = remote_node else { continue };
        let Some(r) = sim.mr_by_key(node, key, true) else {
            continue;
        };
        checked += 1;
        let end = new_addr.checked_add(tlen);
        if new_addr < r.addr || end.is_none_or(|end| end > r.addr + r.len) {
            out.push(Diagnostic {
                rule: Rule::OutOfBounds,
                message: format!(
                    "out-of-bounds post-patch WRITE: {} patches {}'s RemoteAddr to \
                     0x{:x}, but the target's {}-byte access then overruns region \
                     [0x{:x}..0x{:x}) (key {}) on node {}",
                    p.name_of(pw),
                    p.name_of(*t),
                    new_addr,
                    tlen,
                    r.addr,
                    r.addr + r.len,
                    key,
                    node.index()
                ),
            });
        }
    }
    checked
}

/// Run the full bounds pass; returns the number of accesses proven.
pub(crate) fn analyze(
    p: &IrProgram,
    pm: &PatchMap,
    sim: &Simulator,
    out: &mut Vec<Diagnostic>,
) -> usize {
    let mut checked = 0;
    for (qi, ops) in p.queue_ops.iter().enumerate() {
        let (local_node, remote_node) = queue_nodes(p, sim, qi);
        for id in ops {
            let who = Who::Op(p.name_of(*id));
            let skip_raw = pm.is_target(*id);
            for a in accesses_of(p, *id).into_iter().flatten() {
                if check_access(p, sim, who, a, local_node, remote_node, skip_raw, out) {
                    checked += 1;
                }
            }
            // An SGE-list READ must fit its table, every entry must fit
            // its own target, and the remote source must cover the sum
            // of the entry lengths.
            if let Kind::ReadSgl {
                table,
                entries,
                src,
            } = &p.op(*id).kind
            {
                checked += 1;
                let extent = const_extent(p, *table);
                if *entries as u64 * SGE_SIZE > extent {
                    out.push(Diagnostic {
                        rule: Rule::OutOfBounds,
                        message: format!(
                            "out-of-bounds: {} names {} SGE entries but its table \
                             constant holds only {} bytes",
                            who, entries, extent
                        ),
                    });
                }
                if let ConstSpec::Sges(table_entries) = &p.consts[table.0] {
                    let total: u64 = table_entries.iter().map(|e| e.len as u64).sum();
                    let a = Access {
                        loc: src,
                        len: total,
                        local: false,
                        what: "READ source",
                    };
                    if check_access(p, sim, who, a, local_node, remote_node, skip_raw, out) {
                        checked += 1;
                    }
                }
            }
        }
    }
    // SGE tables and external scatter lists land bytes at run time:
    // every entry target must be in-bounds too. (Raw entry targets are
    // client/trigger-side; only symbolic ones are provable here.)
    let mut check_entries = |entries: &[SgeSpec], who: Who, out: &mut Vec<Diagnostic>| {
        for e in entries {
            let a = Access {
                loc: &e.target,
                len: e.len as u64,
                local: true,
                what: "scatter entry",
            };
            if matches!(e.target, Loc::Const { .. } | Loc::Field { .. })
                && check_access(p, sim, who, a, NodeId(0), None, true, out)
            {
                checked += 1;
            }
        }
    };
    for (ci, c) in p.consts.iter().enumerate() {
        if let ConstSpec::Sges(entries) = c {
            check_entries(entries, Who::SgeTable(ci), out);
        }
    }
    for (si, entries) in p.scatters.iter().enumerate() {
        check_entries(entries, Who::Scatter(si), out);
    }
    checked += check_post_patch(p, sim, pm, out);
    checked
}
