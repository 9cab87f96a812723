//! # `ir` — the typed chain intermediate representation
//!
//! Every RedN emitter in this crate — the §3 constructs, both §5 offload
//! families, the Turing compiler, and the [`ChainProgram`] fluent surface
//! — builds an [`IrProgram`]: a typed description of a chain program
//! whose verbs carry **symbolic operands** instead of precomputed ring
//! addresses:
//!
//! * [`Loc`] — an operand location: an immediate raw address, a constant
//!   pool cell ([`CId`]), a **patch point** (a field of another op,
//!   [`Loc::Field`]), or the recycled ring's tail ENABLE;
//! * [`WaitCond`] / [`EnableTarget`] — WAIT thresholds and ENABLE
//!   horizons expressed against *ops*, not absolute counts (absolute
//!   escapes exist for foreign CQs the program cannot see);
//! * per-op annotations: signal bit, `wait_prev` completion fence,
//!   placeholder staging (the NOOP-transmutation idiom of Fig 4),
//!   per-round restore and threshold-bump marks (§3.4 WQ recycling).
//!
//! Because nothing is an address until [`IrProgram::deploy`], the IR can
//! be **optimized** (WAIT elision, constant-pool deduplication, restore
//! merging — see [`lower`]) and **verified** (the §3.1 fetch-horizon
//! hazard, unreachable ENABLEs, non-monotonic recycled WAIT thresholds —
//! see [`verify`]) before a single WQE exists. [`lower`] is then the
//! one place ops become WQEs: it lays every queue out slot by slot (the
//! recycled ring's §3.4 round included), allocates const-pool offsets
//! and absolute CQ thresholds against the live simulator, and posts —
//! so what bytes and counts an [`IrProgram`] becomes has exactly one
//! definition. The result is a [`Lowered`].
//!
//! [`ChainProgram`]: crate::ctx::ChainProgram

pub mod analysis;
pub mod lower;
pub mod verify;

use std::cell::RefCell;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{CqId, NodeId, ProcessId, WqId};
use rnic_sim::sim::Simulator;
use rnic_sim::verbs::{Opcode, VerbClass};
use rnic_sim::wqe::WorkRequest;

use crate::encode::WqeField;
use crate::program::{ChainQueue, ConstPool};

pub use lower::Lowered;

/// Handle to a queue declared in an [`IrProgram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QId(pub(crate) usize);

/// Handle to an op in an [`IrProgram`]. Stable across optimizer passes —
/// symbolic references survive slot reallocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct OpId(pub(crate) usize);

/// Handle to a program constant (bytes, scratch cell, SGE table, or WQE
/// image) placed in the const pool at lowering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CId(pub(crate) usize);

/// Handle to an external scatter list (a trigger RECV's injection
/// targets), resolved at lowering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScatterId(pub(crate) usize);

/// An operand location, resolved to `(address, key)` at lowering.
#[derive(Clone, Copy, Debug)]
pub enum Loc {
    /// A concrete address with an explicit key (application memory:
    /// tables, value heaps, client destinations).
    Raw {
        /// Absolute address.
        addr: u64,
        /// The key authorizing the access (lkey or rkey by position).
        key: u32,
    },
    /// `off` bytes into program constant `c` (keys come from the pool's
    /// memory region).
    Const {
        /// The constant.
        c: CId,
        /// Byte offset into it.
        off: u64,
    },
    /// A **patch point**: `off` bytes into `field` of op `op`'s WQE slot
    /// (keys come from the op's queue ring registration).
    Field {
        /// The op whose slot is targeted.
        op: OpId,
        /// The field within its WQE.
        field: WqeField,
        /// Extra byte offset into the field (e.g. `Operand + 2` to hit
        /// the id bits of a CAS compare word).
        off: u64,
    },
    /// A field of the recycled ring's tail ENABLE (synthesized by
    /// lowering) — how a compiled halt kills its own loop.
    TailEnable {
        /// The field within the tail ENABLE's WQE.
        field: WqeField,
    },
}

impl Loc {
    /// Patch-point shorthand.
    pub fn field(op: OpId, field: WqeField) -> Loc {
        Loc::Field { op, field, off: 0 }
    }

    /// Patch-point shorthand with an extra byte offset.
    pub fn field_off(op: OpId, field: WqeField, off: u64) -> Loc {
        Loc::Field { op, field, off }
    }

    /// Constant shorthand.
    pub fn cst(c: CId) -> Loc {
        Loc::Const { c, off: 0 }
    }

    /// Constant shorthand with a byte offset.
    pub fn cst_off(c: CId, off: u64) -> Loc {
        Loc::Const { c, off }
    }

    /// Raw-address shorthand.
    pub fn raw(addr: u64, key: u32) -> Loc {
        Loc::Raw { addr, key }
    }
}

/// A WAIT threshold, resolved to an absolute monotonic count at lowering
/// (§3.4's `wqe_count` semantics).
#[derive(Clone, Copy, Debug)]
pub enum WaitCond {
    /// An absolute count on a (usually foreign) CQ the program cannot
    /// reason about — trigger-arrival counts, cross-offload CQs. In a
    /// recycled ring an absolute WAIT **must** carry a per-round bump
    /// ([`OpBuild::bump`]) or the verifier rejects it.
    Absolute {
        /// The CQ waited on.
        cq: CqId,
        /// Completion count that releases the queue.
        count: u64,
    },
    /// Wait until every *signaled* op staged before this one **on this
    /// op's own queue** has completed. Lowered to
    /// `cq_base + signaled_so_far`; in a recycled ring the threshold is
    /// auto-bumped by the round's signaled count. This is the condition
    /// the WAIT-elision pass understands.
    LocalAllSignaled,
    /// Wait until `op` (and everything before it on its queue) has
    /// completed, counted via the queue's *posted* index. Only valid for
    /// queues where **every WQE ever posted is signaled** (the offload
    /// probe-chain invariant), which makes the absolute CQE count equal
    /// the posted count even with many instances armed ahead.
    OpDonePosted(OpId),
    /// Wait until `op` has completed, counted via its queue's live CQ
    /// total at lowering plus the signaled ops this program stages up to
    /// and including `op`. Valid when the queue's earlier signaled work
    /// has drained by deploy time (the construct-layer invariant).
    OpDoneSignaled(OpId),
}

/// An ENABLE horizon, resolved to an absolute fetch limit at lowering.
#[derive(Clone, Copy, Debug)]
pub enum EnableTarget {
    /// Release the target op's queue up through that op (inclusive).
    OpsThrough(OpId),
    /// An absolute horizon on a queue outside the program.
    Foreign {
        /// The send queue released.
        sq: WqId,
        /// Absolute fetch limit.
        count: u64,
    },
}

/// One scatter/gather entry with a symbolic target.
#[derive(Clone, Copy, Debug)]
pub struct SgeSpec {
    /// Where the bytes land (or come from).
    pub target: Loc,
    /// Entry length in bytes.
    pub len: u32,
}

/// One WQE inside an image constant (the prebuilt action blocks a
/// trigger WRITE deposits over a generic region), with symbolic field
/// patches applied after resolution.
#[derive(Clone, Debug)]
pub struct ImageWqe {
    /// The verb, with concrete fields where known.
    pub wr: WorkRequest,
    /// `(field, loc)` pairs: the resolved address of `loc` is written
    /// over `field` in the encoded image. A `RemoteAddr` patch makes the
    /// image a runtime *patcher* of whatever `loc` names.
    pub patches: Vec<(WqeField, Loc)>,
}

/// The typed verb of one IR op.
#[derive(Clone, Debug)]
pub enum Kind {
    /// A no-op (padding, or a pure placeholder — see
    /// [`OpBuild::placeholder`] for the transmutation idiom).
    Noop,
    /// WRITE `len` bytes from `src` to `dst` (optionally with immediate
    /// data, which consumes a RECV at the responder).
    Write {
        /// Gather source.
        src: Loc,
        /// Bytes to move.
        len: u32,
        /// Scatter destination.
        dst: Loc,
        /// Immediate data (WRITE_IMM when present).
        imm: Option<u32>,
    },
    /// READ `len` bytes from remote `src` into local `dst`.
    Read {
        /// Local sink — a patch point when the READ lands inside a WQE.
        dst: Loc,
        /// Bytes to fetch.
        len: u32,
        /// Remote source.
        src: Loc,
    },
    /// READ scattering across the SGE table `table` (`entries` entries).
    ReadSgl {
        /// The SGE-table constant.
        table: CId,
        /// Entry count.
        entries: u32,
        /// Remote source.
        src: Loc,
    },
    /// The Fig 4 conditional: CAS on `target`'s header word comparing
    /// `header(NOOP, y)` and swapping in `header(into, y)` — transmutes
    /// the target placeholder iff its injected operand equals `y`.
    Transmute {
        /// The placeholder op tested and (on match) transmuted.
        target: OpId,
        /// The 48-bit comparison constant (0 when the id bits are
        /// patched at run time by a scatter).
        y: u64,
        /// Opcode installed on a match.
        into: Opcode,
    },
    /// A raw CAS on an arbitrary location.
    CasRaw {
        /// The 8-byte word targeted.
        target: Loc,
        /// Compare value.
        compare: u64,
        /// Swap value.
        swap: u64,
    },
    /// FETCH_ADD on `target` (threshold fix-ups, counters, head moves).
    FetchAdd {
        /// The 8-byte word targeted.
        target: Loc,
        /// Addend.
        delta: u64,
    },
    /// Vendor calc `mem = max(mem, operand)` (the §3.5 inequality trick).
    MaxOf {
        /// The 8-byte word targeted.
        target: Loc,
        /// Operand.
        operand: u64,
    },
    /// WAIT until the condition's threshold is reached.
    Wait(WaitCond),
    /// ENABLE (raise a managed queue's fetch horizon).
    Enable(EnableTarget),
    /// A fully concrete work request (escape hatch; cannot reference
    /// other ops symbolically).
    Raw(WorkRequest),
}

impl Kind {
    /// The Table 2 verb class this op lowers to.
    pub fn class(&self) -> VerbClass {
        match self {
            Kind::Noop | Kind::Write { .. } | Kind::Read { .. } | Kind::ReadSgl { .. } => {
                VerbClass::Copy
            }
            Kind::Transmute { .. }
            | Kind::CasRaw { .. }
            | Kind::FetchAdd { .. }
            | Kind::MaxOf { .. } => VerbClass::Atomic,
            Kind::Wait(_) | Kind::Enable(_) => VerbClass::Ordering,
            Kind::Raw(wr) => wr.wqe.opcode.class(),
        }
    }
}

/// One op under construction (fluent annotations over a [`Kind`]).
#[derive(Clone, Debug)]
pub struct OpBuild {
    pub(crate) kind: Kind,
    pub(crate) signaled: bool,
    pub(crate) wait_prev: bool,
    /// `Some(id)` stages the op as a NOOP carrying the verb's operands
    /// with the given 48-bit id preset — the transmutation placeholder.
    pub(crate) placeholder: Option<u64>,
    pub(crate) restore: bool,
    pub(crate) bump: Option<u64>,
    pub(crate) label: &'static str,
}

impl OpBuild {
    /// Wrap a verb.
    pub fn new(kind: Kind) -> OpBuild {
        OpBuild {
            kind,
            signaled: false,
            wait_prev: false,
            placeholder: None,
            restore: false,
            bump: None,
            label: "",
        }
    }

    /// Request a CQE on completion.
    pub fn signaled(mut self) -> OpBuild {
        self.signaled = true;
        self
    }

    /// Gate issue on every previous WQE of this queue having completed.
    pub fn wait_prev(mut self) -> OpBuild {
        self.wait_prev = true;
        self
    }

    /// Stage as a NOOP placeholder (id 0) carrying the verb's operands —
    /// a [`Kind::Transmute`] (or an image WRITE) installs the real
    /// opcode at run time.
    pub fn placeholder(self) -> OpBuild {
        self.placeholder_id(0)
    }

    /// Stage as a NOOP placeholder with a preset 48-bit id.
    pub fn placeholder_id(mut self, id: u64) -> OpBuild {
        self.placeholder = Some(id);
        self
    }

    /// Restore this slot from its pristine image every recycled round.
    pub fn restore(mut self) -> OpBuild {
        self.restore = true;
        self
    }

    /// Advance this op's operand word by `delta` every recycled round
    /// (the §3.4 FETCH_ADD fix-up, generalized across queues).
    pub fn bump(mut self, delta: u64) -> OpBuild {
        self.bump = Some(delta);
        self
    }

    /// Attach a diagnostic label (verifier messages name it).
    pub fn label(mut self, label: &'static str) -> OpBuild {
        self.label = label;
        self
    }
}

/// Program shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Staged once; the caller posts each queue ([`Lowered::post`]).
    Linear,
    /// One self-re-arming ring round (§3.4), posted and armed by deploy.
    Recycled {
        /// The ring queue (created by lowering, exact depth).
        ring: QId,
    },
}

/// Geometry of a recycled ring created at lowering time (its depth is
/// only known after the optimizer runs).
#[derive(Clone, Copy, Debug)]
pub struct RingSpec {
    /// Node the ring lives on.
    pub node: NodeId,
    /// Owning process.
    pub owner: ProcessId,
    /// Processing-unit pin.
    pub pu: Option<usize>,
    /// NIC port.
    pub port: usize,
}

pub(crate) enum QueueSlot {
    /// A deployed queue the program stages onto.
    Bound(ChainQueue),
    /// The recycled ring, bound by lowering.
    Ring(RingSpec, Option<ChainQueue>),
}

impl QueueSlot {
    pub(crate) fn bound(&self) -> Option<&ChainQueue> {
        match self {
            QueueSlot::Bound(q) => Some(q),
            QueueSlot::Ring(_, q) => q.as_ref(),
        }
    }

    pub(crate) fn managed(&self) -> bool {
        match self {
            QueueSlot::Bound(q) => q.managed,
            QueueSlot::Ring(..) => true,
        }
    }
}

/// A program constant, placed (and possibly deduplicated) at lowering.
#[derive(Clone, Debug)]
pub(crate) enum ConstSpec {
    /// Immutable bytes — dedupable.
    Bytes(Vec<u8>),
    /// A mutable zeroed cell (registers, staging buffers) — never
    /// deduplicated.
    Zeroed(u64),
    /// An SGE table with symbolic targets — resolved, then dedupable.
    Sges(Vec<SgeSpec>),
    /// A block of encoded WQEs with symbolic field patches — resolved,
    /// then dedupable (the Turing compiler's action images).
    Images(Vec<ImageWqe>),
}

/// An op as diagnostics name it: its label (if any), its position on its
/// queue and its ids. `Copy`, so an analysis carries it for free and
/// renders it only into a diagnostic it actually emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpName {
    label: &'static str,
    pos: Option<u32>,
    op: u32,
    queue: u32,
}

impl std::fmt::Display for OpName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        /// A queue position, `?` for an op that is on no queue.
        struct Pos(Option<u32>);
        impl std::fmt::Display for Pos {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                match self.0 {
                    Some(pos) => write!(f, "{pos}"),
                    None => f.write_str("?"),
                }
            }
        }
        let pos = Pos(self.pos);
        if self.label.is_empty() {
            write!(f, "WQE #{} (op {}, queue q{})", pos, self.op, self.queue)
        } else {
            write!(
                f,
                "WQE '{}' (#{} on queue q{})",
                self.label, pos, self.queue
            )
        }
    }
}

/// [`OpRec::pos`] of an op that is on no queue: allocated but not placed
/// yet, or detached by the WAIT-elision pass.
const NO_POS: u32 = u32::MAX;

pub(crate) struct OpRec {
    pub(crate) queue: QId,
    pub(crate) op: Option<OpBuild>,
    /// The op's position on its queue — the op → queue-position index
    /// the verifier, both analyses and lowering share. `place` writes it
    /// and `detach` (the one way an op leaves a queue) keeps it current,
    /// so nobody scans `queue_ops` for an op.
    pos: u32,
}

/// Addresses assigned by lowering, shared with [`FieldRef`] handles so
/// construct handles resolve after deploy without threading a context.
#[derive(Default)]
pub struct Resolution {
    pub(crate) node: Option<NodeId>,
    pub(crate) op_slot: Vec<Option<u64>>,
    pub(crate) op_index: Vec<Option<u64>>,
    pub(crate) const_addr: Vec<Option<u64>>,
    pub(crate) scatters: Vec<Option<Vec<(u64, u32, u32)>>>,
}

/// A resolvable reference to a field of an op's (future) WQE slot — what
/// construct handles store as injection points. Panics if read before
/// the owning program was deployed.
#[derive(Clone)]
pub struct FieldRef {
    pub(crate) res: Rc<RefCell<Resolution>>,
    pub(crate) op: OpId,
    pub(crate) field: WqeField,
    pub(crate) off: u64,
}

impl std::fmt::Debug for FieldRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FieldRef({:?}.{:?}+{})", self.op, self.field, self.off)
    }
}

impl FieldRef {
    /// The resolved absolute address. Panics before deploy.
    pub fn addr(&self) -> u64 {
        self.res.borrow().op_slot[self.op.0].expect("program not deployed yet")
            + self.field.offset()
            + self.off
    }

    /// The node the slot lives on. Panics before deploy.
    pub fn node(&self) -> NodeId {
        self.res.borrow().node.expect("program not deployed yet")
    }

    /// Host-side write into the resolved field (operand injection).
    pub fn write(&self, sim: &mut Simulator, bytes: &[u8]) -> Result<()> {
        sim.mem_write(self.node(), self.addr(), bytes)
    }
}

/// A resolvable reference to a program constant's pool cell — the
/// [`FieldRef`] analogue for scratch cells (e.g. an `IfLe` operand).
/// Panics if read before the owning program was deployed.
#[derive(Clone)]
pub struct ConstRef {
    pub(crate) res: Rc<RefCell<Resolution>>,
    pub(crate) c: CId,
    pub(crate) off: u64,
}

impl std::fmt::Debug for ConstRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ConstRef({:?}+{})", self.c, self.off)
    }
}

impl ConstRef {
    /// The resolved absolute address. Panics before deploy.
    pub fn addr(&self) -> u64 {
        self.res.borrow().const_addr[self.c.0].expect("program not deployed yet") + self.off
    }

    /// The node the cell lives on. Panics before deploy.
    pub fn node(&self) -> NodeId {
        self.res.borrow().node.expect("program not deployed yet")
    }

    /// Host-side write into the resolved cell (operand injection).
    pub fn write(&self, sim: &mut Simulator, bytes: &[u8]) -> Result<()> {
        sim.mem_write(self.node(), self.addr(), bytes)
    }
}

/// A content-addressed cache over [`ConstPool::push_bytes`]: identical
/// immutable constants (pristine images, SGE tables) resolve to one pool
/// cell. Persist one across host-armed `arm` calls and steady-state
/// re-arms stop consuming pool capacity — the dedup pass, applied over
/// time as well as space.
///
/// It remembers where each constant went, not what it was: a candidate
/// is found through a word-at-a-time content hash and confirmed against
/// the pool cell itself, so a lookup copies nothing and a hit can never
/// name a cell whose bytes have since changed.
#[derive(Default)]
pub struct ConstInterner {
    /// Content hash → `(address, length)` of the cell placed under it.
    cells: HashMap<u64, (u64, u32), BuildHasherDefault<ContentHash>>,
    /// Bytes avoided via hits (monotonic).
    pub saved_bytes: u64,
}

/// Hasher state for keys that already are [`content_hash`]es.
#[derive(Default)]
struct ContentHash(u64);

impl Hasher for ContentHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("keyed by u64 content hashes only");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Multiply-rotate over 8-byte words (FxHash's mixer), the halves folded
/// together at the end so both the map's bucket bits (low) and its tag
/// bits (high) see every input bit. Constants are the program's own
/// bytes, never attacker-chosen keys.
fn content_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut h = mix(0, bytes.len() as u64);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    for b in words.remainder() {
        h = mix(h, u64::from(*b));
    }
    h ^ h.rotate_left(32)
}

impl ConstInterner {
    /// An empty interner.
    pub fn new() -> ConstInterner {
        ConstInterner::default()
    }

    /// Forget every placement (keeping the map's capacity and
    /// `saved_bytes`).
    pub(crate) fn clear(&mut self) {
        self.cells.clear();
    }

    /// Place `bytes` in the pool, reusing an identical earlier placement.
    /// (Two different constants with one 64-bit hash: the later one is
    /// placed but not remembered — it only loses its own dedup.)
    pub fn intern(
        &mut self,
        sim: &mut Simulator,
        pool: &mut ConstPool,
        bytes: &[u8],
    ) -> Result<u64> {
        match self.cells.entry(content_hash(bytes)) {
            Entry::Occupied(hit) => {
                let (addr, len) = *hit.get();
                if len as usize == bytes.len()
                    && sim.mem(pool.node).read(addr, len.into())? == bytes
                {
                    self.saved_bytes += bytes.len() as u64;
                    return Ok(addr);
                }
                pool.push_bytes(sim, bytes)
            }
            Entry::Vacant(vacant) => {
                let len = u32::try_from(bytes.len())
                    .map_err(|_| Error::InvalidWr("constant larger than any const pool"))?;
                let addr = pool.push_bytes(sim, bytes)?;
                vacant.insert((addr, len));
                Ok(addr)
            }
        }
    }
}

/// The working memory of a deploy: the patch map, the happens-before
/// graph and search stacks, and lowering's lists. It lives in the
/// [`ConstPool`] a program deploys onto — the one object every deploy of
/// a fleet or a cluster shard already threads through — so the programs
/// of a deployment grow it once and reuse it, and no caller sizes,
/// passes or even sees it. Nothing in it carries meaning from one
/// deploy to the next: every user clears what it reads.
#[derive(Default)]
pub(crate) struct Scratch {
    pm: verify::PatchMap,
    hb: analysis::hb::Graph,
    lower: lower::Workspace,
}

/// Verb-class accounting, as in the paper's Table 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerbCounts {
    /// Copy verbs (READ/WRITE/SEND/RECV/NOOP).
    pub copies: usize,
    /// Atomic verbs (CAS/ADD/MAX/MIN).
    pub atomics: usize,
    /// Ordering verbs (WAIT/ENABLE).
    pub ordering: usize,
}

impl VerbCounts {
    /// Count one verb of `class`.
    pub(crate) fn add(&mut self, class: VerbClass) {
        match class {
            VerbClass::Copy => self.copies += 1,
            VerbClass::Atomic => self.atomics += 1,
            VerbClass::Ordering => self.ordering += 1,
        }
    }

    /// Total verbs counted.
    pub fn total(&self) -> usize {
        self.copies + self.atomics + self.ordering
    }

    /// Merge two counts.
    pub fn merge(&self, other: &VerbCounts) -> VerbCounts {
        VerbCounts {
            copies: self.copies + other.copies,
            atomics: self.atomics + other.atomics,
            ordering: self.ordering + other.ordering,
        }
    }
}

/// What the optimizer did to a program, with the Table 2 verb accounting
/// before and after (per round, for recycled programs).
#[derive(Clone, Copy, Debug, Default)]
pub struct PassReport {
    /// Verb classes of the naive lowering.
    pub before: VerbCounts,
    /// Verb classes actually staged.
    pub after: VerbCounts,
    /// Own-queue WAITs collapsed into `wait_prev` fences (each also
    /// removes its FETCH_ADD fix-up in a recycled ring).
    pub waits_elided: usize,
    /// Restore WRITEs saved by merging contiguous pristine slots.
    pub restores_merged: usize,
    /// Const-pool bytes saved by deduplication.
    pub const_bytes_saved: u64,
    /// The const pool's high-water mark after this program's constants
    /// were placed — the extent the bounds analyzer proved against, and
    /// the number `FleetStats::pool_high_water` aggregates.
    pub pool_high_water: u64,
    /// WQE slots of the recycled ring this lowering created (0 for
    /// linear programs) — the unit per-tenant ring-slot quotas are
    /// charged in.
    pub ring_slots: u32,
    /// Const-pool bytes this lowering grew the pool by (net of interner
    /// hits and alignment) — the unit per-tenant pool budgets are
    /// charged in.
    pub pool_bytes_placed: u64,
    /// Pool leases this lowering took (allocations that did not intern
    /// to an earlier cell).
    pub pool_leases_taken: u64,
}

/// Deploy-time switches (the default is optimize + verify).
#[derive(Clone, Copy, Debug)]
pub struct DeployOpts {
    /// Run the optimizer passes (WAIT elision, const dedup, restore
    /// merging).
    pub optimize: bool,
    /// Run the static verifier (hard error on any diagnostic).
    pub verify: bool,
}

impl Default for DeployOpts {
    fn default() -> DeployOpts {
        DeployOpts {
            optimize: true,
            verify: true,
        }
    }
}

/// A typed chain program under construction. See the module docs.
pub struct IrProgram {
    pub(crate) mode: Mode,
    pub(crate) queues: Vec<QueueSlot>,
    pub(crate) queue_ops: Vec<Vec<OpId>>,
    pub(crate) ops: Vec<OpRec>,
    pub(crate) consts: Vec<ConstSpec>,
    pub(crate) scatters: Vec<Vec<SgeSpec>>,
    /// Queues whose fetch horizon is raised outside the program
    /// (host_enable or a pre-existing chain) — exempt from the
    /// unreachable-ENABLE check.
    pub(crate) external_enable: Vec<QId>,
    pub(crate) resolution: Rc<RefCell<Resolution>>,
}

impl IrProgram {
    /// A linear (stage-and-post) program.
    pub fn linear() -> IrProgram {
        IrProgram {
            mode: Mode::Linear,
            queues: Vec::new(),
            queue_ops: Vec::new(),
            ops: Vec::new(),
            consts: Vec::new(),
            scatters: Vec::new(),
            external_enable: Vec::new(),
            resolution: Rc::new(RefCell::new(Resolution::default())),
        }
    }

    /// A recycled-ring program (§3.4): the ops staged onto the returned
    /// [`QId`] form one round of a self-re-arming ring whose queue is
    /// created at lowering with exactly the post-optimization depth.
    pub fn recycled(spec: RingSpec) -> (IrProgram, QId) {
        let mut p = IrProgram::linear();
        p.queues.push(QueueSlot::Ring(spec, None));
        p.queue_ops.push(Vec::new());
        let ring = QId(0);
        p.mode = Mode::Recycled { ring };
        (p, ring)
    }

    /// Declare a deployed queue the program stages onto.
    pub fn chain(&mut self, q: ChainQueue) -> QId {
        self.queues.push(QueueSlot::Bound(q));
        self.queue_ops.push(Vec::new());
        QId(self.queues.len() - 1)
    }

    /// Exempt `q` from the unreachable-ENABLE check: its fetch horizon is
    /// raised by something outside this program.
    pub fn external_enable(&mut self, q: QId) {
        if !self.external_enable.contains(&q) {
            self.external_enable.push(q);
        }
    }

    /// Allocate an op slot on `q` without placing it yet — for forward
    /// references (an op that patches a later op).
    pub fn alloc(&mut self, q: QId) -> OpId {
        self.ops.push(OpRec {
            queue: q,
            op: None,
            pos: NO_POS,
        });
        OpId(self.ops.len() - 1)
    }

    /// Place a previously allocated op at the current end of its queue.
    pub fn place(&mut self, id: OpId, mut op: OpBuild) -> OpId {
        assert!(self.ops[id.0].op.is_none(), "op placed twice");
        // Normalize raw work requests: their WQE flag bits are the
        // source of truth, and the IR's signal accounting (queue order
        // thresholds, `OpDoneSignaled`) must see them.
        if let Kind::Raw(wr) = &op.kind {
            if wr.wqe.signaled() {
                op.signaled = true;
            }
            if wr.wqe.wait_prev() {
                op.wait_prev = true;
            }
        }
        let rec = &mut self.ops[id.0];
        rec.op = Some(op);
        rec.pos = self.queue_ops[rec.queue.0].len() as u32;
        self.queue_ops[rec.queue.0].push(id);
        id
    }

    /// Allocate and place in one step.
    pub fn push(&mut self, q: QId, op: OpBuild) -> OpId {
        let id = self.alloc(q);
        self.place(id, op)
    }

    /// Immutable bytes constant (dedupable).
    pub fn const_bytes(&mut self, bytes: Vec<u8>) -> CId {
        self.consts.push(ConstSpec::Bytes(bytes));
        CId(self.consts.len() - 1)
    }

    /// A mutable zeroed cell of `len` bytes (never deduplicated).
    pub fn const_zeroed(&mut self, len: u64) -> CId {
        self.consts.push(ConstSpec::Zeroed(len));
        CId(self.consts.len() - 1)
    }

    /// An SGE table with symbolic targets (dedupable after resolution).
    pub fn const_sges(&mut self, entries: Vec<SgeSpec>) -> CId {
        self.consts.push(ConstSpec::Sges(entries));
        CId(self.consts.len() - 1)
    }

    /// A block of encoded WQEs with symbolic patches (dedupable after
    /// resolution).
    pub fn const_images(&mut self, wqes: Vec<ImageWqe>) -> CId {
        self.consts.push(ConstSpec::Images(wqes));
        CId(self.consts.len() - 1)
    }

    /// Register an external scatter list (a trigger RECV's injection
    /// targets); resolve it after deploy via
    /// [`Lowered::scatter`].
    pub fn scatter(&mut self, entries: Vec<SgeSpec>) -> ScatterId {
        self.scatters.push(entries);
        ScatterId(self.scatters.len() - 1)
    }

    /// A resolvable reference to `field` of `op`'s future slot.
    pub fn field_ref(&self, op: OpId, field: WqeField) -> FieldRef {
        self.field_ref_off(op, field, 0)
    }

    /// As [`IrProgram::field_ref`], with an extra byte offset.
    pub fn field_ref_off(&self, op: OpId, field: WqeField, off: u64) -> FieldRef {
        FieldRef {
            res: Rc::clone(&self.resolution),
            op,
            field,
            off,
        }
    }

    /// A resolvable reference to a program constant's pool cell.
    pub fn const_ref(&self, c: CId) -> ConstRef {
        ConstRef {
            res: Rc::clone(&self.resolution),
            c,
            off: 0,
        }
    }

    /// Ops staged on `q` so far.
    pub fn queue_len(&self, q: QId) -> usize {
        self.queue_ops[q.0].len()
    }

    pub(crate) fn op(&self, id: OpId) -> &OpBuild {
        self.ops[id.0].op.as_ref().expect("op not placed")
    }

    /// `id`'s position on its queue; `None` while it is on no queue.
    pub(crate) fn pos_of(&self, id: OpId) -> Option<usize> {
        let pos = self.ops[id.0].pos;
        (pos != NO_POS).then_some(pos as usize)
    }

    /// Take the op at `pos` of queue `q` out of the program (the
    /// WAIT-elision pass): the ops behind it move up one position.
    pub(crate) fn detach(&mut self, q: QId, pos: usize) {
        let id = self.queue_ops[q.0].remove(pos);
        let rec = &mut self.ops[id.0];
        (rec.op, rec.pos) = (None, NO_POS);
        for later in &self.queue_ops[q.0][pos..] {
            self.ops[later.0].pos -= 1;
        }
    }

    /// The linear scan [`IrProgram::pos_of`] replaced, kept as its oracle.
    #[cfg(test)]
    fn scan_pos(&self, id: OpId) -> Option<usize> {
        self.queue_ops[self.ops[id.0].queue.0]
            .iter()
            .position(|x| *x == id)
    }

    /// `id` as diagnostics name it. `Copy` data: an analysis carries it
    /// and formats it only into a diagnostic it actually emits.
    pub(crate) fn name_of(&self, id: OpId) -> OpName {
        let rec = &self.ops[id.0];
        OpName {
            label: rec.op.as_ref().map(|o| o.label).unwrap_or(""),
            pos: self.pos_of(id).map(|p| p as u32),
            op: id.0 as u32,
            queue: rec.queue.0 as u32,
        }
    }

    /// Verify, optimize, and lower against the live simulator (the
    /// default deploy path: any verifier diagnostic is a hard error).
    pub fn deploy(self, sim: &mut Simulator, pool: &mut ConstPool) -> Result<Lowered> {
        self.deploy_with(sim, pool, DeployOpts::default(), None)
    }

    /// Deploy without the static checks — the escape hatch for programs
    /// the checker cannot (yet) see through. The optimizer still runs.
    ///
    /// **Waived rules**: all three [`verify`] families (§3.1
    /// fetch-horizon hazard, unreachable ENABLE targets, non-monotonic
    /// recycled thresholds) *and* the [`analysis`] suite (happens-before
    /// deadlock/horizon cycles, recycled induction, symbolic bounds).
    /// Nothing in the shipped tree deploys through this path; it exists
    /// for tests seeding hazards and for user programs whose ordering is
    /// established outside the IR.
    pub fn deploy_unchecked(self, sim: &mut Simulator, pool: &mut ConstPool) -> Result<Lowered> {
        self.deploy_with(
            sim,
            pool,
            DeployOpts {
                optimize: true,
                verify: false,
            },
            None,
        )
    }

    /// Deploy with explicit switches and an optional persistent
    /// const-pool interner (see [`ConstInterner`]).
    pub fn deploy_with(
        mut self,
        sim: &mut Simulator,
        pool: &mut ConstPool,
        opts: DeployOpts,
        interner: Option<&mut ConstInterner>,
    ) -> Result<Lowered> {
        // The pool lends its scratch for the duration (see [`Scratch`]).
        let mut scratch = pool.scratch.take().unwrap_or_default();
        let lowered = self.deploy_in(sim, pool, opts, interner, &mut scratch);
        pool.scratch = Some(scratch);
        lowered
    }

    fn deploy_in(
        &mut self,
        sim: &mut Simulator,
        pool: &mut ConstPool,
        opts: DeployOpts,
        interner: Option<&mut ConstInterner>,
        scratch: &mut Scratch,
    ) -> Result<Lowered> {
        // The patch-edge map feeds the verifier, the analyzer, and the
        // WAIT-elision pass; compute it once (host-armed offloads deploy
        // a program per armed instance, so this is on the serving path).
        let Scratch { pm, hb, lower } = scratch;
        pm.rebuild(self);
        if opts.verify {
            verify::verify_with(self, pm)?;
            analysis::check(self, pm, hb, sim)?;
        }
        lower::lower(self, sim, pool, opts, pm, lower, interner)
    }
}
