//! Lowering: from typed IR to posted WQEs, with the optimizer in the
//! middle. This is the only code that turns ops into work requests, and
//! `round_layout` the only place that knows what a recycled round
//! looks like.
//!
//! Lowering happens at `deploy` time, against the live simulator:
//!
//! 1. **Passes** (when enabled): WAIT elision — an own-queue
//!    `WAIT(all signaled so far)` whose successor is not a patch target
//!    collapses into a `wait_prev` fence on that successor (one slot
//!    saved; in a recycled ring the WAIT's FETCH_ADD fix-up disappears
//!    with it); restore merging — contiguous restore-marked slots share
//!    one pristine-image WRITE; const-pool deduplication — identical
//!    resolved constants intern to one cell.
//! 2. **Layout** — every queue becomes a list of slots: a bound
//!    queue's ops in order, the ring's whole §3.4 round. Ring depth,
//!    monotonic WQE indices, slot addresses, the tail-ENABLE address and
//!    both [`PassReport`] verb counts are read off those lists (`before`
//!    is the same function applied to the pre-pass op list).
//! 3. **Const placement** — SGE tables and WQE images are resolved
//!    against the allocated slots and pushed (interned) into the pool.
//! 4. **Staging** — one loop turns every slot into its work request,
//!    WAIT counts and ENABLE horizons resolved to absolute monotonic
//!    counts against live CQ/queue state.
//! 5. **Posting** — room is checked on every queue before any WQE is
//!    written, so a program is posted whole or not at all. A recycled
//!    program is posted and armed here; a linear one hands its queues
//!    to the caller ([`Lowered::post`]) to post in the order its
//!    protocol requires.

use std::cell::{Ref, RefCell};
use std::rc::Rc;

use rnic_sim::error::{Error, Result};
use rnic_sim::ids::CqId;
use rnic_sim::sim::Simulator;
use rnic_sim::verbs::{Opcode, VerbClass};
use rnic_sim::wqe::{WorkRequest, FLAG_SIGNALED, FLAG_WAIT_PREV, ID_MASK};

use super::analysis::patch::PatchMap;
use super::analysis::Footprint;
use super::{
    ConstInterner, ConstSpec, DeployOpts, EnableTarget, ImageWqe, IrProgram, Kind, Loc, OpId,
    PassReport, QId, QueueSlot, Resolution, ScatterId, SgeRun, SgeSpec, VerbCounts, WaitCond,
};
use crate::constructs::loops::RecycledLoop;
use crate::ctx::ChainQueueBuilder;
use crate::encode::{cond_compare, cond_swap, WqeField};
use crate::program::{ChainQueue, ConstPool};

/// Result of [`IrProgram::deploy`]: the program's resolved addresses,
/// its report and footprint, and its WQEs — already posted and running
/// for a recycled program, awaiting [`Lowered::post`] for a linear one.
pub struct Lowered {
    /// Per [`QId`]: the queue's work requests until they are posted.
    staged: Vec<Option<(ChainQueue, Vec<WorkRequest>)>>,
    ring: Option<RecycledLoop>,
    report: PassReport,
    res: Rc<RefCell<Resolution>>,
    footprint: Footprint,
}

impl Lowered {
    /// Post one queue's WQEs, all or none (doorbell for unmanaged
    /// queues). A linear program's caller posts its queues in whatever
    /// order its protocol requires (actions before control, responses
    /// before triggers, ...). A queue that is already posted — every
    /// queue of a recycled program is, by deploy — is left alone.
    pub fn post(&mut self, sim: &mut Simulator, q: QId) -> Result<()> {
        if let Some((queue, wrs)) = &self.staged[q.0] {
            if !wrs.is_empty() {
                check_room(sim, queue, wrs.len())?;
                sim.post_send_batch(queue.qp, wrs)?;
            }
            self.staged[q.0] = None;
        }
        Ok(())
    }

    /// What the optimizer did (per round, for a recycled program).
    pub fn report(&self) -> PassReport {
        self.report
    }

    /// Resolved absolute address of `field` of `op`'s WQE slot.
    pub fn addr_of(&self, op: OpId, field: WqeField) -> u64 {
        self.res.borrow().op_slot[op.0].expect("lowered") + field.offset()
    }

    /// A resolved external scatter list (trigger-RECV injection targets),
    /// borrowed.
    pub(crate) fn scatter_entries(&self, s: ScatterId) -> Ref<'_, [(u64, u32, u32)]> {
        Ref::map(self.res.borrow(), |res| {
            SgeRun::of(&res.scatter_entries, res.scatters[s.0])
        })
    }

    /// The footprint by value, for a caller done with everything else
    /// the lowering produced (a serving frame keeps only this, the
    /// report and the ring).
    pub(crate) fn into_footprint(self) -> Footprint {
        self.footprint
    }

    /// The running ring of a recycled program; `None` for a linear one.
    pub fn ring(&self) -> Option<&RecycledLoop> {
        self.ring.as_ref()
    }
}

/// `Err(WqFull)` unless `q` can take `n` more WQEs right now (none
/// always fit).
fn check_room(sim: &Simulator, q: &ChainQueue, n: usize) -> Result<()> {
    if n > 0 && n as u64 > sim.sq_room(q.qp)? {
        return Err(Error::WqFull(q.sq));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------

/// WAIT elision: `WAIT(own CQ, all signaled so far)` immediately
/// followed (in queue order) by an op that is **not** a runtime patch
/// target collapses into a `wait_prev` fence on that op. `wait_prev`
/// gates issue on *every* previous WQE of the queue having completed —
/// a strict superset of the WAIT's threshold — so semantics are
/// preserved; patch targets are excluded because their bytes are
/// snapshotted at fetch time, which `wait_prev` (unlike a parked WAIT on
/// a managed queue) does not delay.
fn elide_waits(p: &mut IrProgram, pm: &PatchMap, referenced: &mut Vec<bool>) -> usize {
    // Ops another op's threshold or horizon names (OpDone*, OpsThrough)
    // must survive the pass: eliding one would detach a referenced op
    // and resolution would have no slot for it.
    referenced.clear();
    referenced.resize(p.ops.len(), false);
    for rec in &p.ops {
        if let Some(op) = &rec.op {
            match &op.kind {
                Kind::Wait(WaitCond::OpDonePosted(x))
                | Kind::Wait(WaitCond::OpDoneSignaled(x))
                | Kind::Enable(EnableTarget::OpsThrough(x)) => referenced[x.0] = true,
                _ => {}
            }
        }
    }
    let mut elided = 0;
    for qi in 0..p.queue_ops.len() {
        loop {
            let ops = &p.queue_ops[qi];
            let mut victim: Option<usize> = None;
            for (pos, id) in ops.iter().enumerate() {
                let op = p.op(*id);
                // The WAIT itself must not be a patch target or a named
                // reference either: eliding it would detach an op other
                // ops still name.
                let is_las_wait = matches!(op.kind, Kind::Wait(WaitCond::LocalAllSignaled))
                    && op.bump.is_none()
                    && !op.signaled
                    && !op.restore
                    && !pm.is_target(*id)
                    && !referenced[id.0];
                if !is_las_wait {
                    continue;
                }
                let Some(next) = ops.get(pos + 1) else {
                    continue;
                };
                let next_op = p.op(*next);
                if pm.is_target(*next) || next_op.placeholder.is_some() || next_op.restore {
                    continue;
                }
                victim = Some(pos);
                break;
            }
            match victim {
                Some(pos) => {
                    let next = p.queue_ops[qi][pos + 1];
                    p.ops[next.0].op.as_mut().expect("placed").wait_prev = true;
                    p.detach(QId(qi), pos);
                    elided += 1;
                }
                None => break,
            }
        }
    }
    elided
}

/// Runs of restore-marked ops as `(first op, length)`, per queue in
/// queue order: one run per marked op, or — with `merge` — one per
/// stretch of contiguous marked ops.
fn restore_runs(p: &IrProgram, merge: bool, runs: &mut Vec<(OpId, usize)>) {
    runs.clear();
    for ops in &p.queue_ops {
        let mut prev_marked = false;
        for id in ops {
            let marked = p.op(*id).restore;
            if marked && prev_marked && merge {
                runs.last_mut().expect("run open").1 += 1;
            } else if marked {
                runs.push((*id, 1));
            }
            prev_marked = marked;
        }
    }
}

// ---------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------

/// What one WQE slot of a lowered queue holds. A bound queue is its ops
/// in order (`Body` only); the ring's round adds the §3.4 maintenance
/// slots around them.
#[derive(Clone, Copy)]
enum Slot {
    /// An op of the program.
    Body(OpId),
    /// A signaled NOOP.
    Noop,
    /// The WRITE re-arming restore run `n` from its pristine images.
    Restore(usize),
    /// A FETCH_ADD advancing the operand word (WAIT threshold, ENABLE
    /// horizon) of the ring slot at this index for the next round.
    Fixup(usize, Step),
    /// WAIT for every completion of this round.
    TailWait,
    /// ENABLE of the ring itself, one more round.
    TailEnable { fenced: bool },
}

/// How far a [`Slot::Fixup`] advances its target per round.
#[derive(Clone, Copy)]
enum Step {
    /// `S`, the round's signaled completions.
    Signaled,
    /// `L`, the ring depth.
    Depth,
    /// The op's own [`OpBuild::bump`](super::OpBuild::bump).
    By(u64),
}

impl Slot {
    /// Whether the slot completes with a CQE.
    fn signaled(self, p: &IrProgram) -> bool {
        match self {
            Slot::Body(id) => p.op(id).signaled,
            Slot::TailWait | Slot::TailEnable { .. } => false,
            Slot::Noop | Slot::Restore(_) | Slot::Fixup(..) => true,
        }
    }

    /// Table 2 class of the WQE staged in the slot (a placeholder is
    /// staged as a NOOP, whatever verb it carries).
    fn class(self, p: &IrProgram) -> VerbClass {
        match self {
            Slot::Body(id) if p.op(id).placeholder.is_none() => p.op(id).kind.class(),
            Slot::Body(_) | Slot::Noop | Slot::Restore(_) => VerbClass::Copy,
            Slot::Fixup(..) => VerbClass::Atomic,
            Slot::TailWait | Slot::TailEnable { .. } => VerbClass::Ordering,
        }
    }
}

/// One round of the recycled ring. The ring queue is created with
/// exactly `slots.len()` WQE slots, so slot `i` is WQE index `i` of
/// round 0 and `slots.len()` is the ring depth `L`.
struct Round<'a> {
    ring: QId,
    slots: &'a [Slot],
    /// Index of the tail ENABLE (what [`Loc::TailEnable`] names).
    tail_enable: usize,
}

/// The §3.4 round layout:
///
/// ```text
/// [0]    FETCH_ADD  tail WAIT threshold += S   } the head runs a full
/// [1]    FETCH_ADD  tail ENABLE horizon += L   } ring ahead of the tail
/// [2..]  the program's ring ops
///        one restore WRITE per (merged) run of restore-marked slots
///        one FETCH_ADD (+S) per LocalAllSignaled WAIT
///        one FETCH_ADD (+ its delta) per bumped op
/// [L-2]  tail WAIT: all S completions of this round
/// [L-1]  tail ENABLE: this ring, L more
/// ```
///
/// Everything but the tail pair is signaled, and `S` counts exactly
/// those. Fix-ups sit after the body so each runs later in the same
/// round, one full wrap before its target is fetched again; the two
/// tail slots are instead patched from the head, so they are staged one
/// step low and the first round's head brings them up to date.
///
/// With `elide_tail` the tail WAIT and its fix-up go: the ENABLE is
/// fenced by `wait_prev` (every WQE of the round complete — a superset
/// of the WAIT) and slot 0 holds a signaled NOOP, so body indices and
/// `S` do not depend on it. That is only sound while nothing patches
/// the tail ENABLE at run time (a compiled halt): the fence does not
/// delay the ENABLE's own fetch snapshot.
///
/// The round is laid out in `slots` (cleared first) and borrows it.
fn round_layout<'a>(
    p: &IrProgram,
    ring: QId,
    restore_runs: usize,
    elide_tail: bool,
    slots: &'a mut Vec<Slot>,
) -> Round<'a> {
    let body = &p.queue_ops[ring.0];
    slots.clear();
    slots.reserve(2 * body.len() + restore_runs + 4);
    slots.extend([Slot::Noop; 2]); // the head; aimed below, once the tail has indices
    let body_at = slots.len();
    slots.extend(body.iter().map(|id| Slot::Body(*id)));
    slots.extend((0..restore_runs).map(Slot::Restore));
    let fixups_at = slots.len();
    for (i, id) in body.iter().enumerate() {
        let by = match p.op(*id) {
            op if matches!(op.kind, Kind::Wait(WaitCond::LocalAllSignaled)) => Step::Signaled,
            op => match op.bump {
                Some(delta) => Step::By(delta),
                None => continue,
            },
        };
        slots.push(Slot::Fixup(body_at + i, by));
    }
    // The LocalAllSignaled WAITs' fix-ups go first (a stable sort: body
    // order within each kind). No fix-up depends on another.
    slots[fixups_at..].sort_by_key(|f| matches!(f, Slot::Fixup(_, Step::By(_))));
    if !elide_tail {
        slots[0] = Slot::Fixup(slots.len(), Step::Signaled);
        slots.push(Slot::TailWait);
    }
    let tail_enable = slots.len();
    slots[1] = Slot::Fixup(tail_enable, Step::Depth);
    slots.push(Slot::TailEnable { fenced: elide_tail });
    Round {
        ring,
        slots,
        tail_enable,
    }
}

/// Queue `qi`'s slots in WQE order: the round for the ring, the ops
/// themselves for a bound queue.
fn queue_slots<'a>(
    p: &'a IrProgram,
    qi: usize,
    round: Option<&'a Round<'a>>,
) -> impl Iterator<Item = Slot> + 'a {
    let (ring_slots, ops): (&[Slot], &[OpId]) = match round {
        Some(r) if r.ring.0 == qi => (r.slots, &[]),
        _ => (&[], &p.queue_ops[qi]),
    };
    ring_slots
        .iter()
        .copied()
        .chain(ops.iter().map(|id| Slot::Body(*id)))
}

/// Table 2 classes of everything the program stages (per round, for a
/// recycled program).
fn verb_counts(p: &IrProgram, round: Option<&Round<'_>>) -> VerbCounts {
    let mut counts = VerbCounts::default();
    for qi in 0..p.queues.len() {
        for slot in queue_slots(p, qi, round) {
            counts.add(slot.class(p));
        }
    }
    counts
}

// ---------------------------------------------------------------------
// Resolution helpers
// ---------------------------------------------------------------------

struct ResolveCtx<'p> {
    p: &'p IrProgram,
    pool_lkey: u32,
    pool_rkey: u32,
    /// Tail-ENABLE slot address + ring keys (recycled only).
    tail: Option<(u64, u32, u32)>,
    /// Per queue: the WQE index of its first staged slot and its CQ's
    /// completion count, both as lowering began.
    bases: &'p [(u64, u64)],
    /// Per op: the signaled ops on its queue up to and including it.
    signaled_through: &'p [u64],
}

impl<'p> ResolveCtx<'p> {
    fn queue(&self, q: QId) -> &ChainQueue {
        self.p.queues[q.0].bound().expect("queue bound")
    }

    fn loc(&self, res: &Resolution, loc: &Loc, local: bool) -> (u64, u32) {
        match loc {
            Loc::Raw { addr, key } => (*addr, *key),
            Loc::Const { c, off } => (
                res.const_addr[c.0].expect("const placed") + off,
                if local {
                    self.pool_lkey
                } else {
                    self.pool_rkey
                },
            ),
            Loc::Field { op, field, off } => {
                let q = self.queue(self.p.ops[op.0].queue);
                (
                    res.op_slot[op.0].expect("op placed") + field.offset() + off,
                    if local { q.ring.lkey } else { q.ring.rkey },
                )
            }
            Loc::TailEnable { field } => {
                let (slot, lkey, rkey) = self.tail.expect("tail only exists on recycled rings");
                (slot + field.offset(), if local { lkey } else { rkey })
            }
        }
    }

    fn resolve_sges<'a>(
        &'a self,
        res: &'a Resolution,
        entries: &'a [SgeSpec],
    ) -> impl Iterator<Item = (u64, u32, u32)> + 'a {
        entries.iter().map(move |e| {
            let (addr, key) = self.loc(res, &e.target, true);
            (addr, key, e.len)
        })
    }

    /// Append an SGE-table constant's pool bytes, resolved against the
    /// allocated slots, to `bytes`.
    fn encode_sges(&self, res: &Resolution, entries: &[SgeSpec], bytes: &mut Vec<u8>) {
        for (addr, key, len) in self.resolve_sges(res, entries) {
            let sge = rnic_sim::wqe::Sge {
                addr,
                lkey: key,
                len,
            };
            bytes.extend_from_slice(&sge.encode());
        }
    }

    /// Append a WQE-image constant's pool bytes, its symbolic field
    /// patches applied, to `bytes`.
    fn encode_images(&self, res: &Resolution, wqes: &[ImageWqe], bytes: &mut Vec<u8>) {
        for w in wqes {
            let mut enc = w.wr.wqe.encode();
            for (field, loc) in &w.patches {
                let local = matches!(field, WqeField::LocalAddr);
                let (addr, key) = self.loc(res, loc, local);
                enc[field.offset() as usize..(field.offset() + 8) as usize]
                    .copy_from_slice(&addr.to_le_bytes());
                // An address patch carries its key: the emitter cannot
                // know ring keys that only exist after lowering.
                let key_off = match field {
                    WqeField::LocalAddr => Some(WqeField::Lkey.offset()),
                    WqeField::RemoteAddr => Some(WqeField::Rkey.offset()),
                    _ => None,
                };
                if let Some(off) = key_off {
                    enc[off as usize..off as usize + 4].copy_from_slice(&key.to_le_bytes());
                }
            }
            bytes.extend_from_slice(&enc);
        }
    }

    /// The absolute `(CQ, completion count)` a WAIT parks on (§3.4's
    /// monotonic `wqe_count` semantics). `all_signaled` is what
    /// [`WaitCond::LocalAllSignaled`] resolves to: the count `id`'s CQ
    /// reaches once every signaled WQE before `id` on its queue is done.
    fn threshold(
        &self,
        res: &Resolution,
        id: OpId,
        cond: &WaitCond,
        all_signaled: u64,
    ) -> (CqId, u64) {
        let queue_of = |op: OpId| self.p.ops[op.0].queue;
        match cond {
            WaitCond::Absolute { cq, count } => (*cq, *count),
            WaitCond::LocalAllSignaled => (self.queue(queue_of(id)).cq, all_signaled),
            WaitCond::OpDonePosted(x) => (
                self.queue(queue_of(*x)).cq,
                res.op_index[x.0].expect("op placed") + 1,
            ),
            WaitCond::OpDoneSignaled(x) => {
                let xq = queue_of(*x);
                // No count exists for an op that is on no queue.
                self.p.pos_of(*x).expect("op placed");
                let cq_base = self.bases[xq.0].1;
                (self.queue(xq).cq, cq_base + self.signaled_through[x.0])
            }
        }
    }

    /// The work request staged for op `id`: operands, thresholds and
    /// horizons resolved, flags and the placeholder transform applied.
    fn wr_of(&self, res: &Resolution, id: OpId, all_signaled: u64) -> WorkRequest {
        let op = self.p.op(id);
        let mut wr = match &op.kind {
            Kind::Noop => WorkRequest::noop(),
            Kind::Write { src, len, dst, imm } => {
                let (la, lk) = self.loc(res, src, true);
                let (ra, rk) = self.loc(res, dst, false);
                match imm {
                    Some(i) => WorkRequest::write_imm(la, lk, *len, ra, rk, *i),
                    None => WorkRequest::write(la, lk, *len, ra, rk),
                }
            }
            Kind::Read { dst, len, src } => {
                let (la, lk) = self.loc(res, dst, true);
                let (ra, rk) = self.loc(res, src, false);
                WorkRequest::read(la, lk, *len, ra, rk)
            }
            Kind::ReadSgl {
                table,
                entries,
                src,
            } => {
                let table_addr = res.const_addr[table.0].expect("const placed");
                let (ra, rk) = self.loc(res, src, false);
                WorkRequest::read_sgl(table_addr, *entries, ra, rk)
            }
            Kind::Transmute { target, y, into } => {
                let header = res.op_slot[target.0].expect("op placed") + WqeField::Header.offset();
                let rkey = self.queue(self.p.ops[target.0].queue).ring.rkey;
                WorkRequest::cas(header, rkey, cond_compare(*y), cond_swap(*into, *y), 0, 0)
            }
            Kind::FetchAdd { target, delta } => {
                let (ra, rk) = self.loc(res, target, false);
                WorkRequest::fetch_add(ra, rk, *delta, 0, 0)
            }
            Kind::MaxOf { target, operand } => {
                let (ra, rk) = self.loc(res, target, false);
                WorkRequest::max(ra, rk, *operand)
            }
            Kind::Wait(cond) => {
                let (cq, count) = self.threshold(res, id, cond, all_signaled);
                WorkRequest::wait(cq, count)
            }
            Kind::Enable(EnableTarget::Foreign { sq, count }) => WorkRequest::enable(*sq, *count),
            Kind::Enable(EnableTarget::OpsThrough(x)) => WorkRequest::enable(
                self.queue(self.p.ops[x.0].queue).sq,
                res.op_index[x.0].expect("op placed") + 1,
            ),
            Kind::Raw(wr) => *wr,
        };
        if op.signaled {
            wr.wqe.flags |= FLAG_SIGNALED;
        }
        if op.wait_prev {
            wr.wqe.flags |= FLAG_WAIT_PREV;
        }
        if let Some(pid) = op.placeholder {
            wr.wqe.opcode = Opcode::Noop;
            wr.wqe.id = pid & ID_MASK;
        }
        wr
    }
}

// ---------------------------------------------------------------------
// The lowering driver
// ---------------------------------------------------------------------

/// Lowering's working lists, reused from one program to the next (see
/// [`Scratch`](super::Scratch)): nothing here outlives a `lower` call
/// except as capacity.
#[derive(Default)]
pub(crate) struct Workspace {
    /// WAIT elision: the ops some threshold or horizon names.
    referenced: Vec<bool>,
    /// Restore runs, `(first op, length)`.
    runs: Vec<(OpId, usize)>,
    /// The recycled round.
    slots: Vec<Slot>,
    /// See [`ResolveCtx::bases`] and [`ResolveCtx::signaled_through`].
    bases: Vec<(u64, u64)>,
    signaled_through: Vec<u64>,
    /// The constant (SGE table, WQE images, restore image) being placed.
    bytes: Vec<u8>,
    /// Deduplicates one program's constants when the caller brought no
    /// interner of its own; cleared per program, so what a program
    /// places never depends on what was deployed before it.
    interner: ConstInterner,
}

pub(crate) fn lower(
    p: &mut IrProgram,
    sim: &mut Simulator,
    pool: &mut ConstPool,
    opts: DeployOpts,
    pm: &PatchMap,
    ws: &mut Workspace,
    interner: Option<&mut ConstInterner>,
) -> Result<Lowered> {
    let Workspace {
        referenced,
        runs,
        slots,
        bases,
        signaled_through,
        bytes,
        interner: local_interner,
    } = ws;
    let ring = p.ring();
    let mut report = PassReport {
        // The naive lowering: no pass run, a restore WRITE per marked slot.
        before: {
            restore_runs(p, false, runs);
            let naive = ring.map(|r| round_layout(p, r, runs.len(), false, slots));
            verb_counts(p, naive.as_ref())
        },
        ..PassReport::default()
    };
    let pool_used_base = pool.used();
    let pool_leases_base = pool.leases();

    // ---- passes ------------------------------------------------------
    if opts.optimize {
        report.waits_elided = elide_waits(p, pm, referenced);
    }
    restore_runs(p, opts.optimize, runs);
    report.restores_merged = runs.iter().map(|(_, len)| len).sum::<usize>() - runs.len();

    // ---- layout: the round, on a ring of exactly its depth ------------
    let round = match ring {
        Some(ring) => {
            let elide_tail = opts.optimize && !pm.tail_patched;
            let round = round_layout(p, ring, runs.len(), elide_tail, slots);
            let QueueSlot::Ring(spec, _) = p.queues[ring.0] else {
                unreachable!("mode says ring");
            };
            let mut qb = ChainQueueBuilder::new(spec.node, spec.owner)
                .managed()
                .depth(round.slots.len() as u32)
                .on_port(spec.port);
            if let Some(pu) = spec.pu {
                qb = qb.on_pu(pu);
            }
            p.queues[ring.0] = QueueSlot::Ring(spec, Some(qb.build(sim)?));
            Some(round)
        }
        None => None,
    };
    let round = round.as_ref();
    report.after = verb_counts(p, round);
    report.ring_slots = round.map_or(0, |r| r.slots.len() as u32);

    // ---- slot allocation ---------------------------------------------
    let nops = p.ops.len();
    {
        let mut res = p.resolution.borrow_mut();
        res.op_slot = vec![None; nops];
        res.op_index = vec![None; nops];
        res.const_addr = vec![None; p.consts.len()];
    }
    bases.clear();
    signaled_through.clear();
    signaled_through.resize(nops, 0);
    for (qi, slot) in p.queues.iter().enumerate() {
        let Some(q) = slot.bound() else {
            return Err(Error::InvalidWr("IR queue not bound"));
        };
        // The ring is fresh; a bound queue continues where it stands.
        let base_index = sim.sq_posted(q.qp);
        bases.push((base_index, sim.cq_total(q.cq)));
        let mut res = p.resolution.borrow_mut();
        res.node = Some(q.node);
        for (pos, slot) in queue_slots(p, qi, round).enumerate() {
            if let Slot::Body(id) = slot {
                let index = base_index + pos as u64;
                res.op_index[id.0] = Some(index);
                res.op_slot[id.0] = Some(q.slot_addr(index));
            }
        }
        let mut signaled = 0;
        for id in &p.queue_ops[qi] {
            signaled += u64::from(p.op(*id).signaled);
            signaled_through[id.0] = signaled;
        }
    }

    // ---- const placement (deduplicated when optimizing) --------------
    let ctx = ResolveCtx {
        p,
        pool_lkey: pool.mr().lkey,
        pool_rkey: pool.mr().rkey,
        tail: round.map(|r| {
            let q = p.queues[r.ring.0].bound().expect("ring bound above");
            (q.slot_addr(r.tail_enable as u64), q.ring.lkey, q.ring.rkey)
        }),
        bases,
        signaled_through,
    };
    let interner = match interner {
        Some(i) => i,
        None => {
            local_interner.clear();
            local_interner
        }
    };
    let interner_base_saved = interner.saved_bytes;
    let mut place = |sim: &mut Simulator, pool: &mut ConstPool, bytes: &[u8]| {
        if opts.optimize {
            interner.intern(sim, pool, bytes)
        } else {
            pool.push_bytes(sim, bytes)
        }
    };
    for (ci, spec) in p.consts.iter().enumerate() {
        bytes.clear();
        let addr = match spec {
            ConstSpec::Bytes(b) => place(sim, pool, b)?,
            ConstSpec::Zeroed(len) => pool.reserve(sim, *len)?,
            ConstSpec::Sges(run) => {
                ctx.encode_sges(&p.resolution.borrow(), p.sges(*run), bytes);
                place(sim, pool, bytes)?
            }
            ConstSpec::Images(wqes) => {
                ctx.encode_images(&p.resolution.borrow(), wqes, bytes);
                place(sim, pool, bytes)?
            }
        };
        p.resolution.borrow_mut().const_addr[ci] = Some(addr);
    }

    // ---- scatter resolution ------------------------------------------
    // One list for all of them, each a run of it.
    let total = p.scatters.iter().map(|run| run.len).sum();
    let mut entries = Vec::with_capacity(total);
    let mut lists = Vec::with_capacity(p.scatters.len());
    for &run in &p.scatters {
        let start = entries.len();
        entries.extend(ctx.resolve_sges(&p.resolution.borrow(), p.sges(run)));
        lists.push(SgeRun { start, ..run });
    }
    {
        let mut res = p.resolution.borrow_mut();
        (res.scatter_entries, res.scatters) = (entries, lists);
    }

    // ---- non-interference footprint -----------------------------------
    // Collected unconditionally (cheap: a few spans per op) so fleet and
    // cluster deployment can prove pairwise isolation without replaying
    // the lowering.
    let footprint = {
        let res = p.resolution.borrow();
        super::analysis::interference::collect(p, sim, &res)
    };

    // ---- staging: one work request per slot --------------------------
    // Bound queues before the ring, for building and for posting: a
    // restore image is the staged bytes of the slots it re-arms, and the
    // response rings must hold their WQEs before the ring's ENABLEs
    // release them.
    let bound_then_ring = || {
        let bound = (0..p.queues.len()).filter(move |qi| Some(QId(*qi)) != ring);
        bound.chain(ring.map(|r| r.0))
    };
    // Per round: the ring's depth `L` and its signaled completions `S`.
    let (depth, s) = round.map_or((0, 0), |r| {
        let s = r.slots.iter().filter(|slot| slot.signaled(p)).count();
        (r.slots.len() as u64, s as u64)
    });
    let mut staged: Vec<Option<(ChainQueue, Vec<WorkRequest>)>> = vec![None; p.queues.len()];
    for qi in bound_then_ring() {
        let q = *ctx.queue(QId(qi));
        let (_, cq_base) = bases[qi];
        let res = p.resolution.borrow();
        let slots = queue_slots(p, qi, round);
        let mut wrs: Vec<WorkRequest> = Vec::with_capacity(slots.size_hint().0);
        // What the queue's CQ reaches once everything staged so far is done.
        let mut all_signaled = cq_base;
        for slot in slots {
            let wr = match slot {
                Slot::Body(id) => ctx.wr_of(&res, id, all_signaled),
                Slot::Noop => WorkRequest::noop().signaled(),
                Slot::Restore(n) => {
                    let (first, len) = runs[n];
                    let tq = p.ops[first.0].queue;
                    let at = res.op_index[first.0].expect("op placed") - bases[tq.0].0;
                    // The run's own queue is either staged already or
                    // the ring being staged right now.
                    let pristine = match &staged[tq.0] {
                        Some((_, wrs)) => wrs,
                        None => &wrs,
                    };
                    bytes.clear();
                    for wr in &pristine[at as usize..][..len] {
                        bytes.extend_from_slice(&wr.wqe.encode());
                    }
                    WorkRequest::write(
                        place(sim, pool, bytes)?,
                        ctx.pool_lkey,
                        bytes.len() as u32,
                        res.op_slot[first.0].expect("op placed"),
                        ctx.queue(tq).ring.rkey,
                    )
                    .signaled()
                }
                Slot::Fixup(target, by) => {
                    let delta = match by {
                        Step::Signaled => s,
                        Step::Depth => depth,
                        Step::By(delta) => delta,
                    };
                    let operand = q.field_addr(target as u64, WqeField::Operand);
                    WorkRequest::fetch_add(operand, q.ring.rkey, delta, 0, 0).signaled()
                }
                // The tail pair is staged one step low (`W0 - S`,
                // `2L - L`): the head fix-ups run first, in round 0 too.
                Slot::TailWait => WorkRequest::wait(q.cq, cq_base),
                Slot::TailEnable { fenced } => {
                    let enable = WorkRequest::enable(q.sq, depth);
                    if fenced {
                        enable.wait_prev()
                    } else {
                        enable
                    }
                }
            };
            all_signaled += u64::from(slot.signaled(p));
            wrs.push(wr);
        }
        drop(res);
        staged[qi] = Some((q, wrs));
    }
    report.const_bytes_saved = interner.saved_bytes - interner_base_saved;
    report.pool_high_water = pool.high_water();
    report.pool_bytes_placed = pool.used() - pool_used_base;
    report.pool_leases_taken = pool.leases() - pool_leases_base;

    // ---- posting: the whole program or nothing ------------------------
    for (q, wrs) in staged.iter().flatten() {
        check_room(sim, q, wrs.len())?;
    }
    let mut lowered = Lowered {
        staged,
        ring: None,
        report,
        res: Rc::clone(&p.resolution),
        footprint,
    };
    if let Some(round) = round {
        for qi in bound_then_ring() {
            lowered.post(sim, QId(qi))?;
        }
        let queue = *ctx.queue(round.ring);
        sim.host_enable(queue.qp, depth)?;
        lowered.ring = Some(RecycledLoop {
            queue,
            round_len: depth,
        });
    }
    Ok(lowered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{analysis, OpBuild, RingSpec};
    use proptest::prelude::*;
    use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
    use rnic_sim::ids::{NodeId, ProcessId};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The op → queue-position index against the linear scan it
        /// replaced, after every step of a random build — forward
        /// allocations placed late or never, ops interleaved over three
        /// queues — and after WAIT elision has detached ops.
        #[test]
        fn position_index_agrees_with_the_scan(
            script in prop::collection::vec((0usize..3, 0u8..6), 0..48),
        ) {
            let mut sim = Simulator::new(SimConfig::default());
            let node = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
            let mut p = IrProgram::linear();
            let mut queues = Vec::new();
            for _ in 0..3 {
                let q = ChainQueueBuilder::new(node, ProcessId(0)).managed().depth(64);
                queues.push(p.chain(q.build(&mut sim).unwrap()));
            }
            let agrees = |p: &IrProgram| {
                (0..p.ops.len()).all(|i| p.pos_of(OpId(i)) == p.scan_pos(OpId(i)))
            };
            let mut forward = Vec::new();
            for (q, action) in script {
                let wait = OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled));
                match action {
                    0 => forward.push(p.alloc(queues[q])),
                    1 => {
                        if let Some(id) = forward.pop() {
                            p.place(id, OpBuild::new(Kind::Noop).signaled());
                        }
                    }
                    2 | 3 => {
                        p.push(queues[q], wait);
                    }
                    _ => {
                        p.push(queues[q], OpBuild::new(Kind::Noop).signaled());
                    }
                }
                prop_assert!(agrees(&p), "after {action} on queue {q}");
            }
            let placed = p.queue_ops.iter().map(Vec::len).sum::<usize>();
            let pm = analysis::patch::patch_map(&p);
            let elided = elide_waits(&mut p, &pm, &mut Vec::new());
            prop_assert!(agrees(&p), "after eliding {elided} WAITs");
            let unplaced = (0..p.ops.len()).filter(|i| p.pos_of(OpId(*i)).is_none()).count();
            prop_assert_eq!(unplaced, p.ops.len() - placed + elided);
        }
    }

    /// One letter per slot, and where each fix-up aims.
    fn sketch(round: &Round<'_>) -> (String, Vec<usize>) {
        let letters = round.slots.iter().map(|slot| match slot {
            Slot::Body(_) => 'b',
            Slot::Noop => 'n',
            Slot::Restore(_) => 'r',
            Slot::Fixup(_, by) => match by {
                Step::Signaled => 'S',
                Step::Depth => 'L',
                Step::By(_) => '+',
            },
            Slot::TailWait => 'W',
            Slot::TailEnable { fenced: false } => 'E',
            Slot::TailEnable { fenced: true } => 'F',
        });
        let targets = round.slots.iter().filter_map(|slot| match slot {
            Slot::Fixup(target, _) => Some(*target),
            _ => None,
        });
        (letters.collect(), targets.collect())
    }

    #[test]
    fn round_layout_is_head_body_restores_fixups_tail() {
        let (mut p, ring) = IrProgram::recycled(RingSpec {
            node: NodeId(0),
            owner: ProcessId(0),
            pu: None,
            port: 0,
        });
        let trigger = Kind::Wait(WaitCond::Absolute {
            cq: CqId(0),
            count: 1,
        });
        p.push(ring, OpBuild::new(trigger).bump(4));
        p.push(ring, OpBuild::new(Kind::Noop).signaled().restore());
        p.push(ring, OpBuild::new(Kind::Noop).signaled().restore());
        p.push(ring, OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)));

        // Naive: a restore WRITE per marked slot, tail WAIT kept. The
        // head aims at the tail pair; the LocalAllSignaled fix-up comes
        // before the bumped op's, though its WAIT comes after.
        let mut slots = Vec::new();
        let round = round_layout(&p, ring, 2, false, &mut slots);
        assert_eq!(sketch(&round), ("SLbbbbrrS+WE".into(), vec![10, 11, 5, 2]));
        assert_eq!(round.tail_enable, 11);
        let signaled = |r: &Round<'_>| r.slots.iter().filter(|s| s.signaled(&p)).count();
        assert_eq!(signaled(&round), 8, "all but two WAITs and the tail pair");

        // Optimized: one merged restore, the tail WAIT elided — slot 0
        // is a NOOP, so the body stays where it was.
        let round = round_layout(&p, ring, 1, true, &mut slots);
        assert_eq!(sketch(&round), ("nLbbbbrS+F".into(), vec![9, 5, 2]));
        assert_eq!(round.tail_enable, 9);
        assert_eq!(signaled(&round), 7);
    }
}
