//! Pairwise non-interference across co-resident programs.
//!
//! Lowering collects a [`Footprint`] for every deployed program — the
//! spans it *writes* at run time (response slots, journal windows,
//! staging cells, atomic words), the WQE ring slots it owns (its patch
//! points live inside them), and the CQ/SQ identities its thresholds
//! and horizons are counted against. [`DeploymentVerifier`] then proves,
//! for every pair of programs sharing a node, that none of these alias:
//! a WRITE landing in another program's ring slot rewrites foreign
//! WQEs; two programs bumping one response slot corrupt each other's
//! replies; an absolute WAIT counted against a foreign program's CQ
//! moves when *that* program completes work.
//!
//! Spans live in an address *space*: a known simulated node, or — for
//! client-facing trigger points whose peer QP only connects after
//! deploy — the remote key itself ([`Space::Key`]): two co-resident
//! programs targeting one client region share its rkey, which is
//! exactly the aliasing the serving path must exclude.

//!
//! The proof is pairwise in meaning but not in cost: one sort-and-sweep
//! per address space finds every overlapping pair of spans of different
//! programs, and a map from each owned CQ/SQ to its owners finds every
//! shared identity, so a clean deployment of `n` programs is checked in
//! O(spans · log spans), not O(n² · spans²).

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use rnic_sim::ids::{CqId, NodeId, WqId};
use rnic_sim::sim::Simulator;

use super::{AnalysisReport, Diagnostic, Rule};
use crate::ir::{ConstSpec, IrProgram, Kind, Loc, Mode, Resolution, WaitCond};
use crate::ir::{EnableTarget, OpName, QId};

/// The address space a [`Span`] lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Space {
    /// A simulated node's physical address space.
    Node(NodeId),
    /// A remote region named only by its rkey (the peer connects after
    /// deploy — client response windows).
    Key(u32),
}

impl std::fmt::Display for Space {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Space::Node(n) => write!(f, "node {}", n.index()),
            Space::Key(k) => write!(f, "remote key {}", k),
        }
    }
}

/// What a [`Span`] is: a few indices, rendered into words only when a
/// diagnostic names the span (a clean deployment renders none).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A recycled program's whole registered ring.
    RecycledRing,
    /// The WQE slot an op occupies on a bound queue.
    Slot(OpName),
    /// A WRITE's destination.
    WriteDst(OpName),
    /// A READ's local sink.
    ReadSink(OpName),
    /// The word an atomic verb updates.
    AtomicWord(OpName),
    /// Entry `.1` of the SGE-table constant with index `.0`.
    SgeEntry(u32, u32),
    /// Entry `.1` of the external scatter list with index `.0`.
    ScatterEntry(u32, u32),
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanKind::RecycledRing => write!(f, "recycled ring"),
            SpanKind::Slot(op) => write!(f, "slot of {op}"),
            SpanKind::WriteDst(op) => write!(f, "WRITE dst of {op}"),
            SpanKind::ReadSink(op) => write!(f, "READ sink of {op}"),
            SpanKind::AtomicWord(op) => write!(f, "atomic word of {op}"),
            SpanKind::SgeEntry(table, entry) => write!(f, "SGE entry {entry} of table c{table}"),
            SpanKind::ScatterEntry(list, entry) => {
                write!(f, "entry {entry} of external scatter s{list}")
            }
        }
    }
}

/// One byte range a program touches or owns.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which address space `addr` is meaningful in.
    pub space: Space,
    /// Start address.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
    /// What the range is (diagnostics name it).
    pub what: SpanKind,
}

impl Span {
    fn end(&self) -> u64 {
        self.addr + self.len
    }
}

/// Everything one deployed program writes, owns, and counts against —
/// the non-interference unit.
#[derive(Clone, Debug, Default)]
pub struct Footprint {
    /// Subject name ("hash-get@node1"); set via [`Footprint::named`].
    pub name: String,
    /// Byte ranges the program writes at run time (response slots,
    /// journal windows, staging cells, atomic words).
    pub writes: Vec<Span>,
    /// WQE ring slots the program owns — its patch points live here.
    pub rings: Vec<Span>,
    /// CQs owned by the program's queues (plus any trigger CQ claimed
    /// via [`Footprint::claim_cq`]).
    pub owned_cqs: Vec<CqId>,
    /// Foreign CQs the program's absolute WAIT thresholds count.
    pub wait_cqs: Vec<CqId>,
    /// SQs owned by the program's queues.
    pub owned_sqs: Vec<WqId>,
    /// Foreign SQs the program raises ENABLE horizons on.
    pub enable_sqs: Vec<WqId>,
}

impl Footprint {
    /// Attach the subject name diagnostics use.
    pub fn named(mut self, name: impl Into<String>) -> Footprint {
        self.name = name.into();
        self
    }

    /// Claim a CQ created outside the IR (a trigger point's RECV CQ) as
    /// owned by this program.
    pub fn claim_cq(&mut self, cq: CqId) {
        if !self.owned_cqs.contains(&cq) {
            self.owned_cqs.push(cq);
        }
    }

    fn display_name(&self) -> &str {
        if self.name.is_empty() {
            "unnamed program"
        } else {
            &self.name
        }
    }
}

/// Collect a deployed program's footprint (called by lowering once
/// slots, constants, and scatters are resolved).
pub(crate) fn collect(p: &IrProgram, sim: &Simulator, res: &Resolution) -> Footprint {
    let mut fp = Footprint::default();
    let ring = match p.mode {
        Mode::Recycled { ring } => Some(ring),
        Mode::Linear => None,
    };

    // Per-queue space resolution for remote raw operands.
    let remote_space = |qi: usize, key: u32| -> Space {
        let q = p.queues[qi].bound().expect("lowered");
        if q.peer != q.qp {
            Space::Node(sim.node_of_qp(q.peer))
        } else {
            Space::Key(key)
        }
    };
    let local_node = |qi: usize| p.queues[qi].bound().expect("lowered").node;

    let span_of = |qi: usize, loc: &Loc, len: u64, local: bool, what: SpanKind| -> Option<Span> {
        match loc {
            Loc::Raw { addr, key } => {
                let space = if local {
                    Space::Node(local_node(qi))
                } else {
                    remote_space(qi, *key)
                };
                Some(Span {
                    space,
                    addr: *addr,
                    len,
                    what,
                })
            }
            Loc::Const { c, off } => Some(Span {
                space: Space::Node(local_node(qi)),
                addr: res.const_addr[c.0].expect("lowered") + off,
                len,
                what,
            }),
            // Patch points into the program's own slots: the ring spans
            // below own them.
            Loc::Field { .. } | Loc::TailEnable { .. } => None,
        }
    };

    for (qi, ops) in p.queue_ops.iter().enumerate() {
        let q = *p.queues[qi].bound().expect("lowered");
        // Ring slots: the recycled ring owns its whole registered ring
        // (tail fix-ups included); bound queues own the slots this
        // program's ops occupy.
        if Some(QId(qi)) == ring {
            fp.rings.push(Span {
                space: Space::Node(q.node),
                addr: q.ring.addr,
                len: q.ring.len,
                what: SpanKind::RecycledRing,
            });
        } else {
            for id in ops {
                fp.rings.push(Span {
                    space: Space::Node(q.node),
                    addr: res.op_slot[id.0].expect("lowered"),
                    len: rnic_sim::wqe::WQE_SIZE,
                    what: SpanKind::Slot(p.name_of(*id)),
                });
            }
        }
        if !fp.owned_cqs.contains(&q.cq) {
            fp.owned_cqs.push(q.cq);
        }
        if !fp.owned_sqs.contains(&q.sq) {
            fp.owned_sqs.push(q.sq);
        }
        for id in ops {
            let who = p.name_of(*id);
            match &p.op(*id).kind {
                Kind::Write { len, dst, .. } => {
                    fp.writes.extend(span_of(
                        qi,
                        dst,
                        *len as u64,
                        false,
                        SpanKind::WriteDst(who),
                    ));
                }
                Kind::Read { dst, len, .. } => {
                    fp.writes
                        .extend(span_of(qi, dst, *len as u64, true, SpanKind::ReadSink(who)));
                }
                Kind::CasRaw { target, .. }
                | Kind::FetchAdd { target, .. }
                | Kind::MaxOf { target, .. } => {
                    fp.writes
                        .extend(span_of(qi, target, 8, false, SpanKind::AtomicWord(who)));
                }
                Kind::Wait(WaitCond::Absolute { cq, .. }) if !fp.wait_cqs.contains(cq) => {
                    fp.wait_cqs.push(*cq);
                }
                Kind::Enable(EnableTarget::Foreign { sq, .. }) if !fp.enable_sqs.contains(sq) => {
                    fp.enable_sqs.push(*sq);
                }
                _ => {}
            }
        }
    }
    // SGE tables and external scatter lists land bytes at run time.
    if p.queues.is_empty() {
        return fp;
    }
    let home_qi = 0usize;
    for (ci, c) in p.consts.iter().enumerate() {
        if let ConstSpec::Sges(entries) = c {
            for (ei, e) in entries.iter().enumerate() {
                let what = SpanKind::SgeEntry(ci as u32, ei as u32);
                fp.writes
                    .extend(span_of(home_qi, &e.target, e.len as u64, true, what));
            }
        }
    }
    for (si, entries) in p.scatters.iter().enumerate() {
        for (ei, e) in entries.iter().enumerate() {
            let what = SpanKind::ScatterEntry(si as u32, ei as u32);
            fp.writes
                .extend(span_of(home_qi, &e.target, e.len as u64, true, what));
        }
    }
    // Waits on own CQs are self-pacing, not cross-program thresholds.
    fp.wait_cqs.retain(|cq| !fp.owned_cqs.contains(cq));
    fp.enable_sqs.retain(|sq| !fp.owned_sqs.contains(sq));
    // A serving frame keeps its footprint for as long as it serves:
    // hand it over without the lists' growth slack.
    fp.writes.shrink_to_fit();
    fp.rings.shrink_to_fit();
    fp.owned_cqs.shrink_to_fit();
    fp.wait_cqs.shrink_to_fit();
    fp.owned_sqs.shrink_to_fit();
    fp.enable_sqs.shrink_to_fit();
    fp
}

/// Proves pairwise non-interference across all programs co-resident on
/// a node, emitting a machine-readable [`AnalysisReport`].
pub struct DeploymentVerifier {
    subject: String,
    footprints: Vec<Footprint>,
}

impl DeploymentVerifier {
    /// A verifier for one co-residency domain (usually one node).
    pub fn new(subject: impl Into<String>) -> DeploymentVerifier {
        DeploymentVerifier {
            subject: subject.into(),
            footprints: Vec::new(),
        }
    }

    /// Add one program's footprint.
    pub fn add(&mut self, fp: Footprint) {
        self.footprints.push(fp);
    }

    /// Footprints added so far.
    pub fn len(&self) -> usize {
        self.footprints.len()
    }

    /// No footprints added.
    pub fn is_empty(&self) -> bool {
        self.footprints.is_empty()
    }

    /// Check every pair; the report is clean iff no pair interferes.
    /// Diagnostics come out pair by pair — `(i, j)` ascending, then rule
    /// by rule and span by span within the pair — whatever order the
    /// sweep found them in.
    pub fn verify(&self) -> AnalysisReport {
        let mut hits = Vec::new();
        self.sweep_spans(&mut hits);
        let cqs: fn(&Footprint) -> (&[CqId], &[CqId]) = |fp| (&fp.owned_cqs, &fp.wait_cqs);
        let sqs: fn(&Footprint) -> (&[WqId], &[WqId]) = |fp| (&fp.owned_sqs, &fp.enable_sqs);
        match_ids(&self.footprints, false, cqs, &mut hits);
        match_ids(&self.footprints, true, sqs, &mut hits);
        hits.sort_unstable();
        let n = self.footprints.len();
        AnalysisReport {
            subject: self.subject.clone(),
            programs: n,
            labels: self
                .footprints
                .iter()
                .map(|fp| fp.display_name().to_string())
                .collect(),
            hb_nodes: 0,
            hb_edges: 0,
            checked: n * n.saturating_sub(1) / 2,
            diagnostics: hits.iter().map(|h| self.render(h)).collect(),
        }
    }

    /// Find every overlapping pair of spans owned by different programs:
    /// sort all spans by `(space, start)` and sweep, keeping the spans
    /// that still reach past the current start.
    fn sweep_spans(&self, hits: &mut Vec<Hit>) {
        struct Iv<'a> {
            span: &'a Span,
            prog: usize,
            ring: bool,
            idx: usize,
        }
        let fps = self.footprints.iter();
        let total = fps.map(|fp| fp.writes.len() + fp.rings.len()).sum();
        let mut ivs = Vec::with_capacity(total);
        for (prog, fp) in self.footprints.iter().enumerate() {
            for (ring, spans) in [(false, &fp.writes), (true, &fp.rings)] {
                let iv = |(idx, span)| Iv {
                    span,
                    prog,
                    ring,
                    idx,
                };
                ivs.extend(spans.iter().enumerate().map(iv));
            }
        }
        ivs.sort_unstable_by_key(|iv| (iv.span.space, iv.span.addr));
        let mut active: Vec<&Iv<'_>> = Vec::new();
        for x in &ivs {
            // `y` overlaps `x` iff `x.addr < y.end && y.addr < x.end`; a
            // span failing the first test fails it for every later start.
            active.retain(|y| y.span.space == x.span.space && x.span.addr < y.span.end());
            for y in &active {
                if y.prog != x.prog && y.span.addr < x.span.end() {
                    let (a, b) = if x.prog < y.prog { (x, *y) } else { (*y, x) };
                    let (clash, k, l) = match (a.ring, b.ring) {
                        (false, false) => (Clash::Writes, a.idx, b.idx),
                        (false, true) => (Clash::WriteInRing { flipped: false }, a.idx, b.idx),
                        (true, false) => (Clash::WriteInRing { flipped: true }, b.idx, a.idx),
                        (true, true) => (Clash::Rings, a.idx, b.idx),
                    };
                    hits.push((a.prog, b.prog, clash, k, l));
                }
            }
            active.push(x);
        }
    }

    fn render(&self, &(i, j, clash, k, l): &Hit) -> Diagnostic {
        let (a, b) = (&self.footprints[i], &self.footprints[j]);
        let (an, bn) = (a.display_name(), b.display_name());
        // The program the rule's subject clause names first, then the other.
        let flip = |flipped: bool| [(a, an, b, bn), (b, bn, a, an)][flipped as usize];
        let range = |s: &Span| format!("[0x{:x}..0x{:x})", s.addr, s.end());
        let message = match clash {
            Clash::Writes => {
                let (wa, wb) = (&a.writes[k], &b.writes[l]);
                format!(
                    "interference: {an}'s {} {} overlaps {bn}'s {} on {} — concurrent writes race",
                    wa.what,
                    range(wa),
                    wb.what,
                    wa.space
                )
            }
            Clash::WriteInRing { flipped } => {
                let (x, xn, y, yn) = flip(flipped);
                let (w, r) = (&x.writes[k], &y.rings[l]);
                format!(
                    "interference: {xn}'s {} {} lands inside {yn}'s {} on {} \
                     — a foreign WQE would be rewritten",
                    w.what,
                    range(w),
                    r.what,
                    w.space
                )
            }
            Clash::Rings => {
                let (ra, rb) = (&a.rings[k], &b.rings[l]);
                format!(
                    "interference: {}'s {} overlaps {}'s {} on {} — two programs \
                     own the same WQE slots",
                    an, ra.what, bn, rb.what, ra.space
                )
            }
            Clash::Foreign { flipped, sq: false } => {
                let (x, xn, _, yn) = flip(flipped);
                format!(
                    "interference: {}'s absolute WAIT threshold counts {:?}, which \
                     {} owns — the other program's completions shift the threshold",
                    xn, x.wait_cqs[k], yn
                )
            }
            Clash::Foreign { flipped, sq: true } => {
                let (x, xn, _, yn) = flip(flipped);
                format!(
                    "interference: {} raises ENABLE horizons on {:?}, which {} owns \
                     — a foreign horizon bump releases unvetted WQEs",
                    xn, x.enable_sqs[k], yn
                )
            }
            Clash::Shared { sq: false } => format!(
                "interference: {} and {} both own {:?} — their completions \
                 interleave on one counter",
                an, bn, a.owned_cqs[k]
            ),
            Clash::Shared { sq: true } => format!(
                "interference: {} and {} both stage onto {:?} — slot allocation \
                 and horizons collide",
                an, bn, a.owned_sqs[k]
            ),
        };
        Diagnostic {
            rule: Rule::Interference,
            message,
        }
    }
}

/// Find, for one id family (CQs, or SQs when `sq`), every id one program
/// owns and another program owns or counts against, through a map from
/// each owned id to its owners. `ids` yields a program's `(owned,
/// counted-against)` lists.
fn match_ids<K: Copy + Eq + Hash>(
    fps: &[Footprint],
    sq: bool,
    ids: impl Fn(&Footprint) -> (&[K], &[K]),
    hits: &mut Vec<Hit>,
) {
    let mut owners: HashMap<K, Vec<usize>> = HashMap::new();
    for (prog, fp) in fps.iter().enumerate() {
        for id in ids(fp).0 {
            let progs = owners.entry(*id).or_default();
            if progs.last() != Some(&prog) {
                progs.push(prog);
            }
        }
    }
    for (x, fp) in fps.iter().enumerate() {
        let (owned, foreign) = ids(fp);
        for (k, id) in foreign.iter().enumerate() {
            for &y in owners.get(id).into_iter().flatten().filter(|&&y| y != x) {
                let flipped = y < x;
                hits.push((x.min(y), x.max(y), Clash::Foreign { flipped, sq }, k, 0));
            }
        }
        for (k, id) in owned.iter().enumerate() {
            let later = owners[id].iter().filter(|&&y| y > x);
            hits.extend(later.map(|&y| (x, y, Clash::Shared { sq }, k, 0)));
        }
    }
}

/// How programs `a` and `b` (`a` added first) interfere, in the order a
/// pair's diagnostics are reported. `flipped`: the rule's subject is `b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Clash {
    /// A write span of each overlap.
    Writes,
    /// A write of one lands in a ring of the other.
    WriteInRing { flipped: bool },
    /// A ring span of each overlap.
    Rings,
    /// One WAITs on a CQ (or, `sq`, ENABLEs an SQ) the other owns.
    Foreign { flipped: bool, sq: bool },
    /// Both own one CQ (or, `sq`, one SQ).
    Shared { sq: bool },
}

/// One interference: programs `i < j`, how they clash, and the indices of
/// the two spans (or of the id, then 0) in the order the rule's loops
/// would meet them. Sorting hits sorts the diagnostics.
type Hit = (usize, usize, Clash, usize, usize);

/// The diagnostics golden's reader/writer, shared with the integration
/// tests.
#[cfg(test)]
#[path = "../../../../../tests/common/mod.rs"]
mod golden;

#[cfg(test)]
mod tests {
    use super::*;

    fn overlaps(a: &Span, b: &Span) -> bool {
        a.space == b.space && a.addr < b.addr + b.len && b.addr < a.addr + a.len
    }

    /// The pairwise rule set the sweep replaced, kept verbatim: the oracle
    /// for what is reported and in which order.
    fn pair(a: &Footprint, b: &Footprint, out: &mut Vec<Diagnostic>) {
        let (an, bn) = (a.display_name(), b.display_name());
        for wa in &a.writes {
            for wb in &b.writes {
                if overlaps(wa, wb) {
                    out.push(Diagnostic {
                        rule: Rule::Interference,
                        message: format!(
                            "interference: {}'s {} [0x{:x}..0x{:x}) overlaps {}'s {} on {} \
                             — concurrent writes race",
                            an,
                            wa.what,
                            wa.addr,
                            wa.addr + wa.len,
                            bn,
                            wb.what,
                            wa.space
                        ),
                    });
                }
            }
        }
        let ring_clash =
            |x: &Footprint, xn: &str, y: &Footprint, yn: &str, out: &mut Vec<Diagnostic>| {
                for w in &x.writes {
                    for r in &y.rings {
                        if overlaps(w, r) {
                            out.push(Diagnostic {
                                rule: Rule::Interference,
                                message: format!(
                                    "interference: {}'s {} [0x{:x}..0x{:x}) lands inside {}'s \
                                 {} on {} — a foreign WQE would be rewritten",
                                    xn,
                                    w.what,
                                    w.addr,
                                    w.addr + w.len,
                                    yn,
                                    r.what,
                                    w.space
                                ),
                            });
                        }
                    }
                }
            };
        ring_clash(a, an, b, bn, out);
        ring_clash(b, bn, a, an, out);
        for ra in &a.rings {
            for rb in &b.rings {
                if overlaps(ra, rb) {
                    out.push(Diagnostic {
                        rule: Rule::Interference,
                        message: format!(
                            "interference: {}'s {} overlaps {}'s {} on {} — two programs \
                             own the same WQE slots",
                            an, ra.what, bn, rb.what, ra.space
                        ),
                    });
                }
            }
        }
        let cq_clash =
            |x: &Footprint, xn: &str, y: &Footprint, yn: &str, out: &mut Vec<Diagnostic>| {
                for cq in &x.wait_cqs {
                    if y.owned_cqs.contains(cq) {
                        out.push(Diagnostic {
                            rule: Rule::Interference,
                            message: format!(
                                "interference: {}'s absolute WAIT threshold counts {:?}, which \
                             {} owns — the other program's completions shift the threshold",
                                xn, cq, yn
                            ),
                        });
                    }
                }
                for sq in &x.enable_sqs {
                    if y.owned_sqs.contains(sq) {
                        out.push(Diagnostic {
                            rule: Rule::Interference,
                            message: format!(
                                "interference: {} raises ENABLE horizons on {:?}, which {} owns \
                             — a foreign horizon bump releases unvetted WQEs",
                                xn, sq, yn
                            ),
                        });
                    }
                }
            };
        cq_clash(a, an, b, bn, out);
        cq_clash(b, bn, a, an, out);
        for cq in &a.owned_cqs {
            if b.owned_cqs.contains(cq) {
                out.push(Diagnostic {
                    rule: Rule::Interference,
                    message: format!(
                        "interference: {} and {} both own {:?} — their completions \
                         interleave on one counter",
                        an, bn, cq
                    ),
                });
            }
        }
        for sq in &a.owned_sqs {
            if b.owned_sqs.contains(sq) {
                out.push(Diagnostic {
                    rule: Rule::Interference,
                    message: format!(
                        "interference: {} and {} both stage onto {:?} — slot allocation \
                         and horizons collide",
                        an, bn, sq
                    ),
                });
            }
        }
    }

    fn pairwise(v: &DeploymentVerifier) -> Vec<String> {
        let mut out = Vec::new();
        for i in 0..v.footprints.len() {
            for j in (i + 1)..v.footprints.len() {
                pair(&v.footprints[i], &v.footprints[j], &mut out);
            }
        }
        out.into_iter().map(|d| d.message).collect()
    }

    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// Spans on a coarse 16-byte grid over a small range of two node
    /// spaces and two key spaces, so overlapping, abutting, nested,
    /// identical and zero-length spans are all common; ids from a pool
    /// small enough to be shared, with duplicates inside one list.
    fn random_footprint(rng: &mut Rng, prog: usize) -> Footprint {
        let mut span = |rng: &mut Rng, i: usize| Span {
            space: match rng.below(4) {
                0 => Space::Node(NodeId(0)),
                1 => Space::Node(NodeId(1)),
                k => Space::Key(k as u32),
            },
            addr: 0x1000 + 16 * rng.below(40),
            len: [0, 8, 16, 16, 48, 256][rng.below(6) as usize],
            what: match rng.below(3) {
                0 => SpanKind::RecycledRing,
                1 => SpanKind::SgeEntry(prog as u32, i as u32),
                _ => SpanKind::ScatterEntry(prog as u32, i as u32),
            },
        };
        let spans = |rng: &mut Rng, max: u64, span: &mut dyn FnMut(&mut Rng, usize) -> Span| {
            (0..rng.below(max) as usize)
                .map(|i| span(rng, i))
                .collect::<Vec<_>>()
        };
        let ids = |rng: &mut Rng, max: u64| -> Vec<u32> {
            (0..rng.below(max)).map(|_| rng.below(12) as u32).collect()
        };
        Footprint {
            name: if prog % 5 == 4 {
                String::new()
            } else {
                format!("p{prog}")
            },
            writes: spans(rng, 5, &mut span),
            rings: spans(rng, 3, &mut span),
            owned_cqs: ids(rng, 3).into_iter().map(CqId).collect(),
            wait_cqs: ids(rng, 3).into_iter().map(CqId).collect(),
            owned_sqs: ids(rng, 3).into_iter().map(WqId).collect(),
            enable_sqs: ids(rng, 3).into_iter().map(WqId).collect(),
        }
    }

    /// Two to eight random co-resident footprints.
    fn random_deployment(seed: u64) -> DeploymentVerifier {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut v = DeploymentVerifier::new("random");
        for prog in 0..2 + rng.below(7) as usize {
            v.add(random_footprint(&mut rng, prog));
        }
        v
    }

    #[test]
    fn sweep_reports_exactly_what_the_pairwise_rules_report() {
        let mut dirty = 0;
        for seed in 1..=1000u64 {
            let v = random_deployment(seed);
            let report = v.verify();
            let got: Vec<String> = report.diagnostics.into_iter().map(|d| d.message).collect();
            let want = pairwise(&v);
            assert_eq!(got, want, "seed {seed}: sweep and pairwise rules disagree");
            let n = v.len();
            assert_eq!(report.checked, n * (n - 1) / 2, "seed {seed}");
            dirty += usize::from(!want.is_empty());
        }
        assert!(dirty > 500, "the generator must produce clashes: {dirty}");
    }

    /// The full text of the first seeds' clashes, pinned in the shared
    /// diagnostics golden (generated at the parent commit).
    #[test]
    fn seeded_clashes_read_as_they_did_at_the_parent() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/analysis_diagnostics.txt"
        );
        for seed in 1..=6u64 {
            let report = random_deployment(seed).verify();
            let lines: Vec<String> = report.diagnostics.into_iter().map(|d| d.message).collect();
            let key = format!("interference::seed_{seed}");
            golden::check_diagnostic(path, &key, &lines.join("\n"));
        }
    }

    #[test]
    fn abutting_and_empty_spans_do_not_clash_but_nested_empty_ones_do() {
        let span = |addr, len| Span {
            space: Space::Key(7),
            addr,
            len,
            what: SpanKind::RecycledRing,
        };
        let verify = |a: Span, b: Span| {
            let mut v = DeploymentVerifier::new("edges");
            for (name, s) in [("a", a), ("b", b)] {
                v.add(Footprint {
                    writes: vec![s],
                    ..Footprint::default().named(name)
                });
            }
            v.verify().diagnostics.len()
        };
        assert_eq!(verify(span(0x100, 16), span(0x110, 16)), 0, "abutting");
        assert_eq!(
            verify(span(0x100, 0), span(0x100, 16)),
            0,
            "empty at the start"
        );
        assert_eq!(verify(span(0x100, 0), span(0x100, 0)), 0, "two empty spans");
        assert_eq!(
            verify(span(0x108, 0), span(0x100, 16)),
            1,
            "empty, strictly inside"
        );
        assert_eq!(verify(span(0x10f, 1), span(0x100, 16)), 1, "last byte");
    }
}
