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

use std::borrow::Cow;
use std::fmt;

use rnic_sim::ids::{CqId, NodeId, WqId};
use rnic_sim::sim::Simulator;

use super::{AnalysisReport, Diagnostic, Rule};
use crate::ir::{ConstSpec, IrProgram, Kind, Loc, Resolution, WaitCond};
use crate::ir::{EnableTarget, OpId, OpName, QId, SgeSpec};

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
pub(crate) enum SpanKind {
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
    pub(crate) space: Space,
    /// Start address.
    pub(crate) addr: u64,
    /// Length in bytes.
    pub(crate) len: u64,
    /// What the range is (diagnostics name it).
    pub(crate) what: SpanKind,
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
    pub(crate) writes: Vec<Span>,
    /// WQE ring slots the program owns — its patch points live here.
    pub(crate) rings: Vec<Span>,
    /// CQs owned by the program's queues (plus any trigger CQ claimed
    /// via `Footprint::claim_cq`).
    pub(crate) owned_cqs: Vec<CqId>,
    /// Foreign CQs the program's absolute WAIT thresholds count.
    pub(crate) wait_cqs: Vec<CqId>,
    /// SQs owned by the program's queues.
    pub(crate) owned_sqs: Vec<WqId>,
    /// Foreign SQs the program raises ENABLE horizons on.
    pub(crate) enable_sqs: Vec<WqId>,
}

impl Footprint {
    /// Attach the subject name diagnostics use.
    pub fn named(mut self, name: impl Into<String>) -> Footprint {
        self.name = name.into();
        self
    }
}

/// Whether an operand at `loc` lands in a span of the footprint: patch
/// points into the program's own slots do not (its ring spans own them).
fn lands(loc: &Loc) -> bool {
    matches!(loc, Loc::Raw { .. } | Loc::Const { .. })
}

/// What an op writes at run time: the operand, its length, whether it
/// is local (a READ's sink) and what the span is — `None` for ops that
/// write nothing.
type Written<'k> = (&'k Loc, u64, bool, fn(OpName) -> SpanKind);

fn written(kind: &Kind) -> Option<Written<'_>> {
    match kind {
        Kind::Write { len, dst, .. } => Some((dst, u64::from(*len), false, SpanKind::WriteDst)),
        Kind::Read { dst, len, .. } => Some((dst, u64::from(*len), true, SpanKind::ReadSink)),
        Kind::FetchAdd { target, .. } | Kind::MaxOf { target, .. } => {
            Some((target, 8, false, SpanKind::AtomicWord))
        }
        _ => None,
    }
}

/// The program's SGE-table and external-scatter entries, as
/// `(span kind, entry)` in footprint order.
fn sge_entries(p: &IrProgram) -> impl Iterator<Item = (SpanKind, &SgeSpec)> {
    let tables = p.consts.iter().enumerate().filter_map(|(ci, c)| match c {
        ConstSpec::Sges(run) => Some((ci, *run)),
        _ => None,
    });
    let tables = tables.flat_map(move |(ci, run)| {
        let entries = p.sges(run).iter().enumerate();
        entries.map(move |(ei, e)| (SpanKind::SgeEntry(ci as u32, ei as u32), e))
    });
    let scatters = p.scatters.iter().enumerate().flat_map(move |(si, run)| {
        let entries = p.sges(*run).iter().enumerate();
        entries.map(move |(ei, e)| (SpanKind::ScatterEntry(si as u32, ei as u32), e))
    });
    tables.chain(scatters)
}

/// How many ring spans and write spans [`collect`] finds in `p`.
fn span_counts(p: &IrProgram) -> (usize, usize) {
    let (mut rings, mut writes) = (0, 0);
    for (qi, ops) in p.queue_ops.iter().enumerate() {
        rings += if Some(QId(qi)) == p.ring() {
            1
        } else {
            ops.len()
        };
        let lands_op = |id: &OpId| written(&p.op(*id).kind).is_some_and(|(loc, ..)| lands(loc));
        writes += ops.iter().filter(|id| lands_op(id)).count();
    }
    if !p.queues.is_empty() {
        writes += sge_entries(p).filter(|(_, e)| lands(&e.target)).count();
    }
    (rings, writes)
}

/// The distinct items of `items` in first-seen order, in a list of
/// exactly that length (counted first; the id lists are short).
fn distinct<T: Copy + PartialEq>(items: impl Iterator<Item = T> + Clone) -> Vec<T> {
    let firsts = items
        .clone()
        .enumerate()
        .filter(|&(i, x)| !items.clone().take(i).any(|y| y == x))
        .map(|(_, x)| x);
    let mut out = Vec::with_capacity(firsts.clone().count());
    out.extend(firsts);
    out
}

/// Collect a deployed program's footprint (called by lowering once
/// slots, constants, and scatters are resolved). A serving frame keeps
/// its footprint for as long as it serves, so every list is allocated
/// once, at its exact length.
pub(crate) fn collect(p: &IrProgram, sim: &Simulator, res: &Resolution) -> Footprint {
    let queues = || p.queues.iter().map(|q| *q.bound().expect("lowered"));
    let kinds = || p.queue_ops.iter().flatten().map(|id| &p.op(*id).kind);
    // Waits on own CQs are self-pacing, not cross-program thresholds,
    // and CQs created outside the IR that the program claims (a trigger
    // point's) are owned too — though a WAIT on one still counts as a
    // WAIT on a foreign CQ.
    let waits = kinds().filter_map(|k| match k {
        Kind::Wait(WaitCond::Absolute { cq, .. }) => Some(*cq),
        _ => None,
    });
    let enables = kinds().filter_map(|k| match k {
        Kind::Enable(EnableTarget::Foreign { sq, .. }) => Some(*sq),
        _ => None,
    });
    let (nrings, nwrites) = span_counts(p);
    let mut fp = Footprint {
        name: String::new(),
        writes: Vec::with_capacity(nwrites),
        rings: Vec::with_capacity(nrings),
        owned_cqs: distinct(queues().map(|q| q.cq).chain(p.claimed_cqs.iter().copied())),
        wait_cqs: distinct(waits.filter(|cq| !queues().any(|q| q.cq == *cq))),
        owned_sqs: distinct(queues().map(|q| q.sq)),
        enable_sqs: distinct(enables.filter(|sq| !queues().any(|q| q.sq == *sq))),
    };
    let ring = p.ring();

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
            // Not `lands`: the ring spans own the program's patch points.
            Loc::Field { .. } | Loc::TailEnable { .. } => None,
        }
    };

    for (qi, (ops, q)) in p.queue_ops.iter().zip(queues()).enumerate() {
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
                    addr: res.slot(*id),
                    len: rnic_sim::wqe::WQE_SIZE,
                    what: SpanKind::Slot(p.name_of(*id)),
                });
            }
        }
        for id in ops {
            if let Some((loc, len, local, what)) = written(&p.op(*id).kind) {
                let what = what(p.name_of(*id));
                fp.writes.extend(span_of(qi, loc, len, local, what));
            }
        }
    }
    // SGE tables and external scatter lists land bytes at run time (on
    // the first queue's node).
    if !p.queues.is_empty() {
        for (what, e) in sge_entries(p) {
            fp.writes
                .extend(span_of(0, &e.target, u64::from(e.len), true, what));
        }
    }
    fp
}

/// Whose a co-resident program is, as a deployment names it: data until
/// a diagnostic or a report renders it around the footprint's own name
/// (as [`OpName`] is), so a clean deploy formats nothing per program.
#[derive(Clone, Copy, Debug)]
pub enum Owner<'a> {
    /// A fleet's client `index`, of `tenant` in a packed fleet:
    /// `tenant/name (client index)`, or `client index: name`.
    Client {
        /// The tenant's name.
        tenant: Option<&'a str>,
        /// The client's index in the fleet.
        index: usize,
    },
    /// The lane of shard `index`, of `tenant` when tenants share the
    /// cluster: `tenant/shard{index}: name`, or `shard index: name`.
    Shard {
        /// The tenant's name.
        tenant: Option<&'a str>,
        /// The shard id.
        index: usize,
    },
}

/// A program's name in a diagnostic or a report: its footprint's name,
/// qualified by its [`Owner`] if it has one.
#[derive(Clone, Copy)]
struct ProgramName<'v> {
    name: &'v str,
    owner: Option<Owner<'v>>,
}

impl fmt::Display for ProgramName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.name;
        match self.owner {
            Some(Owner::Client {
                tenant: Some(t),
                index,
            }) => write!(f, "{t}/{name} (client {index})"),
            Some(Owner::Client {
                tenant: None,
                index,
            }) => write!(f, "client {index}: {name}"),
            Some(Owner::Shard {
                tenant: Some(t),
                index,
            }) => write!(f, "{t}/shard{index}: {name}"),
            Some(Owner::Shard {
                tenant: None,
                index,
            }) => write!(f, "shard {index}: {name}"),
            None if name.is_empty() => f.write_str("unnamed program"),
            None => f.write_str(name),
        }
    }
}

/// `d` rendered into a string allocated once, at its exact length.
fn render(d: impl fmt::Display) -> String {
    /// Counts what would be written.
    struct Len(usize);
    impl fmt::Write for Len {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut len = Len(0);
    let _ = fmt::write(&mut len, format_args!("{d}"));
    let mut out = String::with_capacity(len.0);
    let _ = fmt::write(&mut out, format_args!("{d}"));
    out
}

/// Proves pairwise non-interference across all programs co-resident on
/// a node, emitting a machine-readable [`AnalysisReport`]. It reads the
/// footprints where they live — a fleet's services keep theirs — and
/// owns only the ones handed to it by value.
pub struct DeploymentVerifier<'a> {
    subject: String,
    /// Each program's footprint, and whose it is when diagnostics name
    /// it by more than the footprint's own name.
    programs: Vec<(Cow<'a, Footprint>, Option<Owner<'a>>)>,
}

impl<'a> DeploymentVerifier<'a> {
    /// A verifier for one co-residency domain (usually one node).
    pub fn new(subject: impl Into<String>) -> DeploymentVerifier<'a> {
        DeploymentVerifier {
            subject: subject.into(),
            programs: Vec::new(),
        }
    }

    /// Add one program's footprint, named by its own `name`.
    pub fn add(&mut self, fp: Footprint) {
        self.programs.push((Cow::Owned(fp), None));
    }

    /// Add one program's footprint where it lives, named as `owner`'s
    /// (a fleet's `tenant/offload` names): nothing of it is copied, and
    /// the name is only rendered into a diagnostic or the report.
    pub fn add_labelled(&mut self, fp: &'a Footprint, owner: Owner<'a>) {
        self.programs.push((Cow::Borrowed(fp), Some(owner)));
    }

    /// Footprints added so far.
    fn len(&self) -> usize {
        self.programs.len()
    }

    fn fp(&self, prog: usize) -> &Footprint {
        &self.programs[prog].0
    }

    /// The name diagnostics and the report give program `prog`.
    fn name(&self, prog: usize) -> ProgramName<'_> {
        let (fp, owner) = &self.programs[prog];
        ProgramName {
            name: &fp.name,
            owner: *owner,
        }
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
        self.match_ids(false, cqs, &mut hits);
        self.match_ids(true, sqs, &mut hits);
        hits.sort_unstable();
        let n = self.programs.len();
        AnalysisReport {
            subject: self.subject.clone(),
            programs: n,
            labels: (0..n).map(|prog| render(self.name(prog))).collect(),
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
        // A span's sort word: its address space ranked as `Space` orders
        // (33 bits), its start (64) and its index in `spans` (31), so no
        // two words tie and sorting them sorts by `(space, start)`. (Not
        // even 2^31 spans fit in memory, nor 2^32 programs.)
        const AT: u32 = 31;
        let rank = |space: Space| match space {
            Space::Node(n) => u128::from(n.0),
            Space::Key(k) => 1 << 32 | u128::from(k),
        };
        // Whose a span is: `(end, program, index)`, the index into the
        // program's writes, or into its rings when the top bit is set
        // (16 bytes, as the word is).
        const RING: u32 = 1 << 31;
        let fps = (0..self.len()).map(|prog| self.fp(prog));
        let total = fps.map(|fp| fp.writes.len() + fp.rings.len()).sum();
        let (mut words, mut spans) = (Vec::with_capacity(total), Vec::with_capacity(total));
        for prog in 0..self.len() {
            let fp = self.fp(prog);
            let writes = fp.writes.iter().zip(0..);
            for (span, who) in writes.chain(fp.rings.iter().zip(RING..)) {
                let at = spans.len() as u128;
                words.push(rank(span.space) << 95 | u128::from(span.addr) << AT | at);
                spans.push((span.end(), prog as u32, who));
            }
        }
        words.sort_unstable();
        // The spans that still reach past the current start:
        // `(space, start, end, program, index)`.
        let mut active: Vec<(u64, u64, u64, u32, u32)> = Vec::new();
        for &word in &words {
            let (space, x_start) = ((word >> 95) as u64, (word >> AT) as u64);
            let (x_end, x_prog, x_who) = spans[word as usize & ((1 << AT) - 1)];
            // `y` overlaps `x` iff `x.addr < y.end && y.addr < x.end`; a
            // span failing the first test fails it for every later start.
            active.retain(|y| y.0 == space && x_start < y.2);
            for &(_, y_start, _, y_prog, y_who) in &active {
                if y_prog != x_prog && y_start < x_end {
                    let (a, b) = if x_prog < y_prog {
                        ((x_prog, x_who), (y_prog, y_who))
                    } else {
                        ((y_prog, y_who), (x_prog, x_who))
                    };
                    let (ka, kb) = ((a.1 & !RING) as usize, (b.1 & !RING) as usize);
                    let (clash, k, l) = match (a.1 & RING != 0, b.1 & RING != 0) {
                        (false, false) => (Clash::Writes, ka, kb),
                        (false, true) => (Clash::WriteInRing { flipped: false }, ka, kb),
                        (true, false) => (Clash::WriteInRing { flipped: true }, kb, ka),
                        (true, true) => (Clash::Rings, ka, kb),
                    };
                    hits.push((a.0 as usize, b.0 as usize, clash, k, l));
                }
            }
            active.push((space, x_start, x_end, x_prog, x_who));
        }
    }

    /// Find, for one id family (CQs, or SQs when `sq`), every id one
    /// program owns and another program owns or counts against, through
    /// the sorted list of `(id, owner)` pairs — an id's owners are one
    /// run of it, in program order. `ids` yields a program's `(owned,
    /// counted-against)` lists.
    fn match_ids<K: Copy + Ord>(
        &self,
        sq: bool,
        ids: impl Fn(&Footprint) -> (&[K], &[K]),
        hits: &mut Vec<Hit>,
    ) {
        let n = self.len();
        let mut owners = Vec::with_capacity((0..n).map(|x| ids(self.fp(x)).0.len()).sum());
        for x in 0..n {
            owners.extend(ids(self.fp(x)).0.iter().map(|&id| (id, x)));
        }
        owners.sort_unstable();
        owners.dedup();
        let owners_of = |id: K| {
            let from = owners.partition_point(|&(k, _)| k < id);
            let run = owners[from..].iter().take_while(move |&&(k, _)| k == id);
            run.map(|&(_, y)| y)
        };
        for x in 0..n {
            let (owned, foreign) = ids(self.fp(x));
            for (k, &id) in foreign.iter().enumerate() {
                for y in owners_of(id).filter(|&y| y != x) {
                    let flipped = y < x;
                    hits.push((x.min(y), x.max(y), Clash::Foreign { flipped, sq }, k, 0));
                }
            }
            for (k, &id) in owned.iter().enumerate() {
                let later = owners_of(id).filter(|&y| y > x);
                hits.extend(later.map(|y| (x, y, Clash::Shared { sq }, k, 0)));
            }
        }
    }

    fn render(&self, &(i, j, clash, k, l): &Hit) -> Diagnostic {
        let (a, b) = (self.fp(i), self.fp(j));
        let (an, bn) = (self.name(i), self.name(j));
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

    fn display_name(fp: &Footprint) -> &str {
        if fp.name.is_empty() {
            "unnamed program"
        } else {
            &fp.name
        }
    }

    /// The pairwise rule set the sweep replaced, kept verbatim: the oracle
    /// for what is reported and in which order.
    fn pair(a: &Footprint, b: &Footprint, out: &mut Vec<Diagnostic>) {
        let (an, bn) = (display_name(a), display_name(b));
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

    fn pairwise(v: &DeploymentVerifier<'_>) -> Vec<String> {
        let mut out = Vec::new();
        for i in 0..v.len() {
            for j in (i + 1)..v.len() {
                pair(v.fp(i), v.fp(j), &mut out);
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
    fn random_deployment(seed: u64) -> DeploymentVerifier<'static> {
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

    #[test]
    fn a_borrowed_footprint_under_a_label_reports_as_a_renamed_copy() {
        for seed in 1..=200u64 {
            let owned = random_deployment(seed);
            let mut borrowed = DeploymentVerifier::new("random");
            let mut renamed = DeploymentVerifier::new("random");
            for i in 0..owned.len() {
                // The renamed copy spells out what the fleet and the
                // cluster formatted before owners were data.
                let (fp, tenant) = (owned.fp(i), ["alpha", "beta"][i % 2]);
                let (owner, label) = match i % 4 {
                    0 => (
                        Owner::Client {
                            tenant: Some(tenant),
                            index: i,
                        },
                        format!("{}/{} (client {})", tenant, fp.name, i),
                    ),
                    1 => (
                        Owner::Client {
                            tenant: None,
                            index: i,
                        },
                        format!("client {}: {}", i, fp.name),
                    ),
                    2 => (
                        Owner::Shard {
                            tenant: Some(tenant),
                            index: i,
                        },
                        format!("{}/shard{}: {}", tenant, i, fp.name),
                    ),
                    _ => (
                        Owner::Shard {
                            tenant: None,
                            index: i,
                        },
                        format!("shard {}: {}", i, fp.name),
                    ),
                };
                borrowed.add_labelled(fp, owner);
                renamed.add(fp.clone().named(label));
            }
            let (b, r) = (borrowed.verify(), renamed.verify());
            assert_eq!(b.labels, r.labels, "seed {seed}");
            let text = |rep: AnalysisReport| -> Vec<String> {
                rep.diagnostics.into_iter().map(|d| d.message).collect()
            };
            assert_eq!(text(b), text(r), "seed {seed}");
        }
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
