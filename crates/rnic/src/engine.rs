//! The discrete-event core: a deterministic event queue and FIFO resource
//! models.
//!
//! Determinism is a hard requirement — benchmarks must be reproducible run
//! to run — so events are ordered by `(time, sequence_number)` with the
//! sequence number assigned at scheduling time. No wall-clock, no hashing
//! order, no thread interleaving.
//!
//! The queue is a **hierarchical timing wheel**, not a binary heap: events
//! within the near horizon are chained, unsorted, from their tick's bucket
//! head into one event slab (sorted only when their bucket drains — O(1)
//! schedule, no allocation per bucket) and far-future events sit in a
//! sorted overflow level that cascades into the wheel as the cursor
//! approaches. In front of the wheel, a one-event register holds an event
//! known to be next, which then never enters the wheel. There is one
//! wheel per simulator: a `Simulator` is single-threaded, and parallelism
//! comes from running independent simulators side by side (one per shard,
//! as the large `sim_events` sweep does). See DESIGN.md "Event engine".

use crate::cq::CqeStatus;
use crate::ids::{QpId, WqId};
use crate::time::Time;
use crate::verbs::Opcode;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Core simulator events. Host-side application logic is expressed through
/// `Callback` events whose closures live in the simulator's callback slab.
///
/// An event carries only the *key* of the state it refers to — a queue
/// id, an in-flight table key — never the state itself, so it stays 16
/// bytes and [`Event`] 32 (an engine test pins both): every event is
/// written once at `schedule` and read once at `pop`, and a wider payload
/// cost a store-forwarding stall on each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Try to make progress on a send queue (fetch/issue the next WQE).
    WqAdvance {
        /// Queue to advance.
        wq: WqId,
    },
    /// A WQE fetch DMA finished; the snapshot is taken when this fires.
    /// It covers WQEs from the queue's `fetched` index on, which nothing
    /// but the snapshot itself moves while the fetch is in flight.
    FetchDone {
        /// Queue that fetched.
        wq: WqId,
        /// How many WQEs this DMA covered (prefetch batch).
        batch: u64,
    },
    /// A PU finished issuing the queue's executing WQE; data-path effects
    /// get scheduled.
    IssueDone {
        /// Queue that issued.
        wq: WqId,
    },
    /// A request message arrives at the responder QP.
    Arrive {
        /// Responder QP.
        qp: QpId,
        /// Message payload/metadata index in the in-flight table.
        msg: u64,
    },
    /// The initiator observes the completion of a message; its queue,
    /// WQE index, status and result are in the in-flight record.
    Complete {
        /// In-flight table key.
        msg: u64,
    },
    /// The initiator observes the completion of a WQE that never left the
    /// NIC (NOOP, WAIT, ENABLE, a faulted WQE): no in-flight record.
    CompleteLocal {
        /// Initiating queue.
        wq: WqId,
        /// Monotonic WQE index.
        idx: u64,
        /// The verb that executed.
        opcode: Opcode,
        /// The CQE's status, or `None` for an unsignaled success, which
        /// pushes no CQE.
        cqe: Option<CqeStatus>,
    },
    /// A delayed receive-side CQE push: it pays `t_cqe` before it becomes
    /// observable. The entry is built from the in-flight record of the
    /// message that consumed the RECV, which outlives this event (its
    /// `Complete` fires no earlier and was scheduled later).
    PushCqe {
        /// In-flight table key.
        msg: u64,
    },
    /// A host-side callback (application logic, timers, workload
    /// generators, crash injection).
    Callback {
        /// Slab key of the boxed closure.
        key: u64,
    },
    /// Deliver queued CQ-listener notifications for a node's CQ.
    Notify {
        /// CQ listener slab key.
        key: u64,
    },
}

impl EventKind {
    /// Variant names, in `EventKind::index` order.
    pub const NAMES: [&'static str; 9] = [
        "WqAdvance",
        "FetchDone",
        "IssueDone",
        "Arrive",
        "Complete",
        "CompleteLocal",
        "PushCqe",
        "Callback",
        "Notify",
    ];

    /// Dense index of the variant (per-kind counters).
    #[inline]
    pub(crate) fn index(&self) -> usize {
        match self {
            EventKind::WqAdvance { .. } => 0,
            EventKind::FetchDone { .. } => 1,
            EventKind::IssueDone { .. } => 2,
            EventKind::Arrive { .. } => 3,
            EventKind::Complete { .. } => 4,
            EventKind::CompleteLocal { .. } => 5,
            EventKind::PushCqe { .. } => 6,
            EventKind::Callback { .. } => 7,
            EventKind::Notify { .. } => 8,
        }
    }
}

/// An event with its firing time and tie-breaking sequence number.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// When the event fires.
    pub at: Time,
    /// Scheduling order tie-breaker (earlier-scheduled fires first).
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Event) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Event) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Near-horizon bucket width: 2^12 ps = 4.096 ns. Finer than every NIC
/// timing constant, so same-bucket collisions stay small and the per-bucket
/// sort is cheap.
const BUCKET_SHIFT: u32 = 12;
/// Buckets per wheel rotation (power of two for mask indexing). With the
/// shift above the near horizon spans ~8.4 µs — wide enough that the
/// doorbell/issue/DMA/CQE cadence of a busy simulation almost never
/// touches the overflow level.
const NUM_BUCKETS: usize = 2048;

#[inline]
fn bucket_of(at: Time) -> u64 {
    at.as_ps() >> BUCKET_SHIFT
}

/// "No node": the empty bucket head, free-list tail and chain terminator.
const NIL: u32 = u32::MAX;

/// One slot of the wheel's event slab: a pending event, chained to the
/// next event of its bucket while it waits in the near window, or a
/// vacant slot (holding the event it last held, never read again) chained
/// into the free list.
#[derive(Debug)]
struct Node {
    ev: Event,
    next: u32,
}

/// A pending event's sort key and slab index: what `current` and
/// `overflow` hold.
type Run = (Time, u64, u32);

/// The hierarchical wheel: every pending event lives in one slab from
/// `store` to `pop`; near-future ones are chained per bucket from a `u32`
/// head, far-future ones are indexed by a sorted overflow level. Nothing
/// is allocated per bucket: the slab, `current` and `overflow` grow to
/// the peak number of pending events and are reused from then on, so
/// steady-state `schedule`/`pop` never calls the allocator and the wheel
/// retains O(peak pending events) memory however many buckets the cursor
/// has swept. Invariants:
///
/// * events chained from `heads` have absolute bucket index in
///   `[cursor, cursor + NUM_BUCKETS)`;
/// * events in `current` (the bucket being drained, sorted descending so
///   `Vec::pop` yields the earliest) order before everything chained from
///   `heads`;
/// * events in `overflow` had bucket index `>= cursor + NUM_BUCKETS` when
///   inserted and are chained into their bucket as the cursor approaches —
///   always at least `NUM_BUCKETS` ticks before they could fire, so no
///   ordering is ever lost to the overflow level.
#[derive(Debug, Default)]
struct Wheel {
    /// Slab index of each bucket's most recently scheduled event.
    heads: Vec<u32>,
    /// One bit per bucket, set while its chain is non-empty: the cursor
    /// finds the next bucket to drain a word at a time, not a head at a
    /// time (a busy simulation has one event per ~35 buckets).
    occupied: [u64; NUM_BUCKETS / 64],
    nodes: Vec<Node>,
    /// Head of the LIFO chain of vacant `nodes` slots.
    free: u32,
    /// Absolute bucket index of the next bucket to drain.
    cursor: u64,
    /// Sorted (descending) run of the bucket currently draining.
    current: Vec<Run>,
    overflow: BinaryHeap<std::cmp::Reverse<Run>>,
    /// Events chained from `heads` (excludes `current` and `overflow`).
    near_len: usize,
    len: usize,
}

impl Wheel {
    fn new() -> Wheel {
        Wheel {
            heads: vec![NIL; NUM_BUCKETS],
            free: NIL,
            ..Wheel::default()
        }
    }

    /// Write `ev` into a vacant slab slot and return its index; the event
    /// is not filed yet. Inline, so the event is written once, straight
    /// into its slot, not staged in a temporary the callee reloads.
    #[inline(always)]
    fn store(&mut self, ev: Event) -> u32 {
        if self.free == NIL {
            self.grow();
        }
        let idx = self.free;
        let node = &mut self.nodes[idx as usize];
        self.free = node.next;
        node.ev = ev;
        idx
    }

    /// Add one vacant slot to the slab. Out of line, so that `store`
    /// never builds a whole `Node` to push.
    #[inline(never)]
    fn grow(&mut self) {
        let vacant = Event {
            at: Time::ZERO,
            seq: 0,
            kind: EventKind::WqAdvance { wq: WqId(0) },
        };
        self.free = self.nodes.len() as u32;
        self.nodes.push(Node {
            ev: vacant,
            next: NIL,
        });
    }

    /// Return slot `idx` to the free list. Its event stays readable until
    /// the next `store`.
    #[inline(always)]
    fn release(&mut self, idx: u32) {
        self.nodes[idx as usize].next = std::mem::replace(&mut self.free, idx);
    }

    /// Chain slot `idx` onto the near-window bucket `slot`.
    #[inline(always)]
    fn link(&mut self, slot: usize, idx: u32) {
        self.nodes[idx as usize].next = self.heads[slot];
        self.heads[slot] = idx;
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.near_len += 1;
    }

    /// The first occupied bucket slot at or after `from` in wheel order
    /// (wrapping once). At least one bucket must be occupied.
    fn next_occupied(&self, from: usize) -> usize {
        let (first, bit) = (from / 64, from % 64);
        // The usual case: a bucket at or just past the cursor.
        let here = self.occupied[first] >> bit;
        if here != 0 {
            return from + here.trailing_zeros() as usize;
        }
        // Every other word whole, then the cursor's word again for the
        // bits below the cursor.
        let words = self.occupied.len();
        (1..=words)
            .map(|i| (first + i) % words)
            .find(|w| self.occupied[*w] != 0)
            .map(|w| w * 64 + self.occupied[w].trailing_zeros() as usize)
            .expect("an occupied bucket within the window")
    }

    /// File the stored event in slot `idx`, due at `at`. Inline: the usual
    /// case — a bucket inside the near window — is a chain link.
    #[inline(always)]
    fn file(&mut self, idx: u32, at: Time) {
        self.len += 1;
        let bucket = bucket_of(at);
        if bucket.wrapping_sub(self.cursor) < NUM_BUCKETS as u64 {
            self.link((bucket as usize) & (NUM_BUCKETS - 1), idx);
        } else {
            self.file_outside_window(idx);
        }
    }

    /// File slot `idx`, whose event is outside the near window.
    #[inline(never)]
    fn file_outside_window(&mut self, idx: u32) {
        let ev = &self.nodes[idx as usize].ev;
        let run = (ev.at, ev.seq, idx);
        if bucket_of(ev.at) < self.cursor {
            // Fires inside (or before) the bucket being drained — the
            // simulator only schedules at `>= now`, so this slots into the
            // current run. Keep it sorted descending.
            let pos = self.current.partition_point(|e| *e > run);
            self.current.insert(pos, run);
        } else {
            self.overflow.push(std::cmp::Reverse(run));
        }
    }

    /// Chain overflow events that now fall inside the near window into
    /// their buckets.
    fn migrate(&mut self) {
        let limit = self.cursor + NUM_BUCKETS as u64;
        while let Some(&std::cmp::Reverse((at, _, idx))) = self.overflow.peek() {
            if bucket_of(at) >= limit {
                break;
            }
            self.overflow.pop();
            self.link((bucket_of(at) as usize) & (NUM_BUCKETS - 1), idx);
        }
    }

    /// Make `current` hold the next run of events (no-op if non-empty or
    /// the wheel is drained).
    #[inline(always)]
    fn ensure_current(&mut self) {
        if self.current.is_empty() {
            self.drain_next_bucket();
        }
    }

    /// Fill the empty `current` run from the next occupied bucket.
    fn drain_next_bucket(&mut self) {
        if self.near_len == 0 {
            if self.overflow.is_empty() {
                return;
            }
            // Idle jump: everything pending is past the horizon. Re-anchor
            // the (empty) wheel at the earliest overflow bucket.
            self.cursor = bucket_of(self.overflow.peek().expect("non-empty").0 .0);
        }
        self.migrate();
        // A non-empty bucket exists within the window now: move the
        // cursor one past it and take its chain.
        let from = (self.cursor as usize) & (NUM_BUCKETS - 1);
        let slot = self.next_occupied(from);
        self.cursor += ((slot + NUM_BUCKETS - from) % NUM_BUCKETS) as u64 + 1;
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        let mut idx = std::mem::replace(&mut self.heads[slot], NIL);
        while idx != NIL {
            let node = &self.nodes[idx as usize];
            self.current.push((node.ev.at, node.ev.seq, idx));
            idx = node.next;
        }
        self.near_len -= self.current.len();
        self.current.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Unfile the earliest event and release its slot; returns the slot.
    #[inline]
    fn pop(&mut self) -> Option<u32> {
        self.ensure_current();
        let (_, _, idx) = self.current.pop()?;
        self.len -= 1;
        self.release(idx);
        Some(idx)
    }

    /// The next event's time without popping.
    fn peek_time(&mut self) -> Option<Time> {
        self.ensure_current();
        self.current.last().map(|e| e.0)
    }
}

/// The event queue: a timing wheel popping in `(time, seq)` order, `seq`
/// being the order events were scheduled in, in front of a one-event
/// register.
///
/// Every event is written once, into a slot of the wheel's slab, and read
/// once, from there; the wheel and the register move only slot indices.
/// The register, when full, names an event that orders before everything
/// filed in the wheel, so `pop` takes it without touching the wheel.
/// `schedule` fills it only when that is known without looking into the
/// wheel: the wheel is empty, or the new event is strictly earlier than
/// the register's (which is then filed in the wheel). An event as early
/// as the register's — same time, later `seq` — and every event while the
/// register is empty but the wheel is not are filed in the wheel. Both
/// rely on the simulator never scheduling before the last event popped.
pub struct EventQueue {
    wheel: Wheel,
    /// Slab slot of the register's event, or `NIL`.
    next: u32,
    next_seq: u64,
    /// Events popped, `[out of the wheel, out of the register without
    /// ever entering the wheel]`.
    popped: [u64; 2],
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> EventQueue {
        EventQueue {
            wheel: Wheel::new(),
            next: NIL,
            next_seq: 0,
            popped: [0; 2],
        }
    }

    /// Schedule `kind` at absolute time `at`.
    #[inline(always)]
    pub fn schedule(&mut self, at: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.wheel.store(Event { at, seq, kind });
        if self.next == NIL {
            if self.wheel.len == 0 {
                self.next = idx;
            } else {
                self.wheel.file(idx, at);
            }
            return;
        }
        let next_at = self.wheel.nodes[self.next as usize].ev.at;
        if at < next_at {
            let displaced = std::mem::replace(&mut self.next, idx);
            self.wheel.file(displaced, next_at);
        } else {
            self.wheel.file(idx, at);
        }
    }

    /// Pop the next event (earliest time, then earliest scheduled) and
    /// return it where it waited: the slot stays untouched until the next
    /// `schedule`. A caller that reads only the fields it needs reads
    /// each as it was written, where copying the whole event out right
    /// after the stores that built it would stall on them.
    #[inline]
    pub(crate) fn pop_in_place(&mut self) -> Option<&Event> {
        let bypassed = self.next != NIL;
        let idx = if bypassed {
            let idx = std::mem::replace(&mut self.next, NIL);
            self.wheel.release(idx);
            idx
        } else {
            self.wheel.pop()?
        };
        self.popped[bypassed as usize] += 1;
        Some(&self.wheel.nodes[idx as usize].ev)
    }

    /// Pop the next event (earliest time, then earliest scheduled).
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_in_place().copied()
    }

    /// Peek at the next event time without popping.
    pub fn peek_time(&mut self) -> Option<Time> {
        match self.next {
            NIL => self.wheel.peek_time(),
            idx => Some(self.wheel.nodes[idx as usize].ev.at),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len + usize::from(self.next != NIL)
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events processed so far (for the runaway-program budget).
    #[inline]
    pub(crate) fn processed(&self) -> u64 {
        self.popped[0] + self.popped[1]
    }

    /// Of [`EventQueue::processed`], the events that went from `schedule`
    /// to `pop` through the register alone, never filed in the wheel.
    pub(crate) fn bypassed(&self) -> u64 {
        self.popped[1]
    }
}

/// A single FIFO server: jobs occupy it back to back.
///
/// Used for the serialized per-port resources: the managed-WQE fetch
/// engine (Table 4's "NIC PU" bottleneck) and the atomic engine (Table 3's
/// 8.4 M CAS/s ceiling).
#[derive(Clone, Debug, Default)]
pub(crate) struct FifoResource {
    free_at: Time,
    busy_total: Time,
}

impl FifoResource {
    /// Create an idle resource.
    pub(crate) fn new() -> FifoResource {
        FifoResource::default()
    }

    /// Acquire the resource at `now` for `dur`. Returns the time the work
    /// *finishes* (queueing behind earlier acquisitions if necessary).
    pub(crate) fn acquire(&mut self, now: Time, dur: Time) -> Time {
        let start = now.max(self.free_at);
        self.free_at = start + dur;
        self.busy_total += dur;
        self.free_at
    }

    /// Total busy time accumulated (utilization accounting).
    pub(crate) fn busy_total(&self) -> Time {
        self.busy_total
    }
}

/// A pool of identical FIFO servers (CPU cores, processing units).
/// Jobs go to the earliest-free server, or to a named one (PU pinning).
///
/// Earliest-free selection runs off a min-heap holding one
/// `(free_at, server)` entry per server rather than an O(n) scan. Pinned
/// acquires — the per-WQE path: a queue's PU is fixed — touch only the
/// `free_at` table and mark the heap stale; the next pooled acquire
/// refills it in place, so neither kind allocates. Tie-breaking is that
/// of a first-minimum scan: the heap orders by `(free_at, server index)`,
/// so equal times pick the lowest index.
#[derive(Clone, Debug)]
pub struct PoolResource {
    free_at: Vec<Time>,
    ready: BinaryHeap<std::cmp::Reverse<(Time, usize)>>,
    /// A pinned acquire has moved a `free_at` since `ready` was filled.
    stale: bool,
    busy_total: Time,
}

impl PoolResource {
    /// A pool of `n` servers.
    pub fn new(n: usize) -> PoolResource {
        assert!(n > 0);
        PoolResource {
            free_at: vec![Time::ZERO; n],
            ready: (0..n).map(|i| std::cmp::Reverse((Time::ZERO, i))).collect(),
            stale: false,
            busy_total: Time::ZERO,
        }
    }

    /// Acquire any server at `now` for `dur`; returns (server, finish).
    pub fn acquire(&mut self, now: Time, dur: Time) -> (usize, Time) {
        if std::mem::take(&mut self.stale) {
            self.ready.clear();
            let entries = self.free_at.iter().enumerate();
            self.ready
                .extend(entries.map(|(i, t)| std::cmp::Reverse((*t, i))));
        }
        // Re-key the earliest entry where it sits; the heap re-orders
        // itself when `top` goes out of scope.
        let mut top = self.ready.peek_mut().expect("non-empty pool");
        let (free_at, i) = top.0;
        let finish = now.max(free_at) + dur;
        *top = std::cmp::Reverse((finish, i));
        self.free_at[i] = finish;
        self.busy_total += dur;
        (i, finish)
    }

    /// Acquire a *specific* server (PU pinning). Returns `(start, finish)`
    /// — callers that pace chains need the actual start time.
    pub fn acquire_at(&mut self, server: usize, now: Time, dur: Time) -> (Time, Time) {
        let start = now.max(self.free_at[server]);
        self.free_at[server] = start + dur;
        self.busy_total += dur;
        self.stale = true;
        (start, self.free_at[server])
    }

    /// Number of servers.
    pub(crate) fn len(&self) -> usize {
        self.free_at.len()
    }

    /// Total busy time accumulated.
    pub(crate) fn busy_total(&self) -> Time {
        self.busy_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_us(5), EventKind::WqAdvance { wq: WqId(0) });
        q.schedule(Time::from_us(1), EventKind::WqAdvance { wq: WqId(1) });
        q.schedule(Time::from_us(1), EventKind::WqAdvance { wq: WqId(2) });
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        let c = q.pop().unwrap();
        assert_eq!(a.at, Time::from_us(1));
        // Same-time events keep scheduling order.
        match (a.kind, b.kind) {
            (EventKind::WqAdvance { wq: w1 }, EventKind::WqAdvance { wq: w2 }) => {
                assert_eq!(w1, WqId(1));
                assert_eq!(w2, WqId(2));
            }
            _ => panic!("wrong kinds"),
        }
        assert_eq!(c.at, Time::from_us(5));
        assert!(q.pop().is_none());
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn far_future_events_cascade_through_overflow() {
        let mut q = EventQueue::new();
        // Far beyond the near horizon (seconds vs the ~8 µs window).
        q.schedule(Time::from_secs(2), EventKind::WqAdvance { wq: WqId(2) });
        q.schedule(Time::from_ms(1), EventKind::WqAdvance { wq: WqId(1) });
        q.schedule(Time::from_ns(10), EventKind::WqAdvance { wq: WqId(0) });
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Time::from_ns(10)));
        let order: Vec<Time> = std::iter::from_fn(|| q.pop().map(|e| e.at)).collect();
        assert_eq!(
            order,
            vec![Time::from_ns(10), Time::from_ms(1), Time::from_secs(2)]
        );
        assert!(q.is_empty());
    }

    /// xorshift64*, seeded per run so a failure names a replayable seed.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }
    }

    type Reference = BinaryHeap<std::cmp::Reverse<(u64, u64)>>;

    /// Pop one event from the queue and one from the reference, check
    /// they agree, and return the time popped.
    fn pop_both(
        q: &mut EventQueue,
        reference: &mut Reference,
        ctx: impl Fn() -> String,
    ) -> Option<u64> {
        let want = reference.pop().map(|r| r.0);
        let got = q.pop().map(|e| match e.kind {
            EventKind::Callback { key } => (e.at.as_ps(), e.seq, key),
            _ => unreachable!(),
        });
        assert_eq!(got, want.map(|(at, s)| (at, s, s)), "{}: pop", ctx());
        want.map(|(at, _)| at)
    }

    /// Random interleavings of `schedule`, `pop` and `peek_time` against
    /// a `BinaryHeap` popping in `(at, seq)` order: times at, inside and
    /// far beyond the 8.4 µs horizon and *earlier* than the bucket being
    /// drained, with idle jumps and overflow cascades; and, for the
    /// register, schedules into an empty queue, strictly before the
    /// register's event, at exactly its time and after it.
    #[test]
    fn wheel_matches_a_binary_heap_on_random_interleavings() {
        const HORIZON_PS: u64 = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        for seed in 1..=200u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut q = EventQueue::new();
            let mut reference = Reference::new();
            let (mut seq, mut popped) = (0u64, 0u64);
            // Time of the last pop: the simulator never schedules before it.
            let mut now = 0u64;
            for step in 0..4_000 {
                let ctx = || format!("seed {seed}, step {step}");
                let register =
                    (q.next != NIL).then(|| q.wheel.nodes[q.next as usize].ev.at.as_ps());
                let at = match rng.below(13) {
                    0..=5 => Some(
                        now + match rng.below(8) {
                            0 => 0,
                            1 => rng.below(1 << BUCKET_SHIFT),
                            2..=4 => rng.below(HORIZON_PS),
                            5 => HORIZON_PS - 1 + rng.below(3),
                            6 => HORIZON_PS * (1 + rng.below(4)) + rng.below(HORIZON_PS),
                            _ => rng.below(1_000 * HORIZON_PS),
                        },
                    ),
                    6 => register
                        .filter(|r| *r > now)
                        .map(|r| now + rng.below(r - now)),
                    7 => register,
                    8 => register.map(|r| r + rng.below(HORIZON_PS)),
                    9 => {
                        let want = reference.peek().map(|r| Time::from_ps(r.0 .0));
                        assert_eq!(q.peek_time(), want, "{}: peek_time", ctx());
                        None
                    }
                    10 | 11 => {
                        if let Some(at) = pop_both(&mut q, &mut reference, ctx) {
                            now = at;
                            popped += 1;
                        }
                        None
                    }
                    _ => {
                        while let Some(at) = pop_both(&mut q, &mut reference, ctx) {
                            now = at;
                            popped += 1;
                        }
                        assert!(q.is_empty(), "{}: drained", ctx());
                        Some(now + rng.below(HORIZON_PS))
                    }
                };
                if let Some(at) = at {
                    q.schedule(Time::from_ps(at), EventKind::Callback { key: seq });
                    reference.push(std::cmp::Reverse((at, seq)));
                    seq += 1;
                }
                assert_eq!(q.len(), reference.len(), "{}: len", ctx());
                assert_eq!(q.is_empty(), reference.is_empty(), "{}: is_empty", ctx());
                assert_eq!(q.processed(), popped, "{}: processed", ctx());
            }
            let drain = || format!("seed {seed}: final drain");
            while pop_both(&mut q, &mut reference, drain).is_some() {}
            assert!(q.pop().is_none(), "seed {seed}: wheel holds extra events");
        }
    }

    /// Every event is written at `schedule` and read at `pop`: it must
    /// not grow back past 32 bytes unnoticed.
    #[test]
    fn events_stay_32_bytes() {
        assert!(std::mem::size_of::<EventKind>() <= 16);
        assert!(std::mem::size_of::<Event>() <= 32);
    }

    #[test]
    fn fifo_resource_queues_back_to_back() {
        let mut r = FifoResource::new();
        let t1 = r.acquire(Time::from_us(0), Time::from_us(2));
        assert_eq!(t1, Time::from_us(2));
        // Second job at t=1 queues behind the first.
        let t2 = r.acquire(Time::from_us(1), Time::from_us(2));
        assert_eq!(t2, Time::from_us(4));
        // A job after the queue drains starts immediately.
        let t3 = r.acquire(Time::from_us(10), Time::from_us(1));
        assert_eq!(t3, Time::from_us(11));
        assert_eq!(r.busy_total(), Time::from_us(5));
    }

    #[test]
    fn pool_picks_earliest_free_server() {
        let mut p = PoolResource::new(2);
        let (s0, f0) = p.acquire(Time::ZERO, Time::from_us(4));
        let (s1, f1) = p.acquire(Time::ZERO, Time::from_us(1));
        assert_ne!(s0, s1);
        assert_eq!(f0, Time::from_us(4));
        assert_eq!(f1, Time::from_us(1));
        // Next job lands on the server that freed first.
        let (s2, f2) = p.acquire(Time::from_us(2), Time::from_us(1));
        assert_eq!(s2, s1);
        assert_eq!(f2, Time::from_us(3));
    }

    #[test]
    fn pinned_acquire_serializes_on_one_server() {
        let mut p = PoolResource::new(4);
        let (s1, f1) = p.acquire_at(2, Time::ZERO, Time::from_us(1));
        let (s2, f2) = p.acquire_at(2, Time::ZERO, Time::from_us(1));
        assert_eq!((s1, f1), (Time::ZERO, Time::from_us(1)));
        assert_eq!((s2, f2), (Time::from_us(1), Time::from_us(2)));
        // Other servers unaffected.
        let (_, f3) = p.acquire(Time::ZERO, Time::from_us(1));
        assert_eq!(f3, Time::from_us(1));
    }

    /// Reference implementation of the old O(n) first-minimum scan, used
    /// to prove the heap-backed pool makes identical choices.
    #[derive(Clone)]
    struct ScanPool {
        free_at: Vec<Time>,
    }
    impl ScanPool {
        fn acquire(&mut self, now: Time, dur: Time) -> (usize, Time) {
            let (i, _) = self
                .free_at
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| **t)
                .expect("non-empty pool");
            let start = now.max(self.free_at[i]);
            self.free_at[i] = start + dur;
            (i, self.free_at[i])
        }
        fn acquire_at(&mut self, server: usize, now: Time, dur: Time) -> (Time, Time) {
            let start = now.max(self.free_at[server]);
            self.free_at[server] = start + dur;
            (start, self.free_at[server])
        }
    }

    #[test]
    fn pool_heap_matches_linear_scan_choice_and_tiebreak() {
        // Satellite regression for the O(n) min-scan fix: under a long
        // deterministic mix of pooled and pinned acquisitions — including
        // many exact ties — the heap-backed pool must pick the same
        // server and finish time as the first-minimum linear scan did.
        let n = 16;
        let mut heap_pool = PoolResource::new(n);
        let mut scan_pool = ScanPool {
            free_at: vec![Time::ZERO; n],
        };
        let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = Time::ZERO;
        for step in 0..5_000 {
            now += Time::from_ps(rng() % 3_000);
            // Coarse durations force frequent free_at ties across servers.
            let dur = Time::from_ns((rng() % 4) * 100);
            if step % 5 == 0 {
                let server = (rng() % n as u64) as usize;
                let a = heap_pool.acquire_at(server, now, dur);
                let b = scan_pool.acquire_at(server, now, dur);
                assert_eq!(a, b, "pinned acquire diverged at step {step}");
            } else {
                let a = heap_pool.acquire(now, dur);
                let b = scan_pool.acquire(now, dur);
                assert_eq!(a, b, "pooled acquire diverged at step {step}");
            }
        }
        // The lazy heap stays bounded.
        assert!(heap_pool.ready.len() <= 4 * n.max(8));
    }

    #[test]
    fn pool_tie_break_picks_lowest_index() {
        let mut p = PoolResource::new(4);
        // All servers free at ZERO: ties must resolve to server 0, then 1…
        let (s0, _) = p.acquire(Time::ZERO, Time::from_us(2));
        let (s1, _) = p.acquire(Time::ZERO, Time::from_us(2));
        assert_eq!((s0, s1), (0, 1));
        // Servers 0/1 busy until 2 µs; 2 and 3 tie free at 1 µs — the
        // lower index wins the tie, as the linear scan always did.
        let _ = p.acquire_at(2, Time::ZERO, Time::from_us(1));
        let _ = p.acquire_at(3, Time::ZERO, Time::from_us(1));
        let (s, _) = p.acquire(Time::from_us(1), Time::from_us(1));
        assert_eq!(s, 2);
    }
}
