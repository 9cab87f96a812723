//! The simulator facade: owns all state and drives the event loop.
//!
//! One [`Simulator`] holds every node (host memory + CPU model + NIC),
//! the fabric between them, and the discrete-event queue. All public
//! operations (allocating memory, creating queues, posting work requests)
//! are instantaneous control-plane actions; simulated time only advances
//! inside [`Simulator::run`] and friends.
//!
//! The WQE life-cycle, one private child module per stage (each a plain
//! `impl Simulator` block), with the [`EventKind`]s the stage handles:
//!
//! ```text
//! verbs       post_send ──► WQE bytes in host memory ──► doorbell
//!                                 │ t_doorbell              WqAdvance
//! fetch       batch DMA or serialized managed fetch         FetchDone
//!                                 │ snapshot bytes
//! issue       decode, gate, run on the queue's PU           IssueDone
//!                                 │ t_issue(class)
//! delivery    PCIe stages / wire / atomic engine / RECV     Arrive
//!                                 │ bytes *placed*
//! completion  writebacks, CQE *observable*, WAIT wake-ups,  Complete,
//!             host listeners; a WQE that never left the     CompleteLocal,
//!             NIC completes without an in-flight record     PushCqe, Notify
//! ```
//!
//! `resources` (memory, MRs, CQs, QPs) and `verbs` (post, doorbell, poll,
//! timers — the `Callback` event —, listeners, process faults) are the
//! host API. This file holds the state, the topology, the event loop
//! (`WqAdvance` drives both the issue and the fetch stage of one queue)
//! and the counters.
//!
//! Self-modification falls out of the byte-level fetch: any verb that
//! writes into a WQ ring changes what a later fetch decodes — but *only*
//! fetches that happen after the write, which is why managed queues
//! (fetch gated by ENABLE) are required for correctness, exactly as in the
//! paper (§3.1–§3.2). Delivery and completion are separate stages because
//! they are separate instants: a responder's bytes are placed at `Arrive`,
//! but the initiator may only rely on them once `Complete` has pushed the
//! CQE.

mod completion;
mod delivery;
mod fetch;
mod issue;
mod resources;
mod verbs;

use crate::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use crate::cq::{CompletionQueue, Cqe};
use crate::engine::{EventKind, EventQueue};
use crate::error::{Error, Result};
use crate::host::Host;
use crate::ids::{CqId, NodeId, ProcessId, WqId};
use crate::mem::HostMemory;
use crate::net::InFlight;
use crate::nic::Nic;
use crate::qp::QueuePair;
use crate::slab::{BufPool, Slab};
use crate::time::Time;
use crate::trace::{Trace, TraceEvent};
use crate::wq::WorkQueue;
use std::fmt::Display;

/// How a host thread observes completions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListenMode {
    /// Busy-polling thread: pickup within
    /// [`HostConfig::t_poll_pickup`](crate::config::HostConfig).
    Polling,
    /// Blocking thread woken by a completion event: pays
    /// [`HostConfig::t_event_wake`](crate::config::HostConfig).
    Event,
}

/// Callback invoked per completion by a CQ listener.
type CqCallback = Box<dyn FnMut(&mut Simulator, Cqe)>;
/// One-shot scheduled host action.
type TimerCallback = Box<dyn FnOnce(&mut Simulator)>;

struct CqListener {
    cq: CqId,
    node: NodeId,
    mode: ListenMode,
    cb: Option<CqCallback>,
    scheduled: bool,
}

/// Utilization snapshot of one NIC's resources — used by the Table 4
/// harness to name the bottleneck.
#[derive(Clone, Debug, Default)]
pub struct NicUtilization {
    /// Busy time summed over all PUs.
    pub pu_busy: Time,
    /// Managed-fetch engine busy time (summed over ports).
    pub fetch_busy: Time,
    /// Atomic engine busy time (summed over ports).
    pub atomic_busy: Time,
    /// Link egress busy time (summed over ports).
    pub link_busy: Time,
    /// PCIe bus busy time.
    pub pcie_busy: Time,
}

/// The top-level simulator. See the module docs.
pub struct Simulator {
    cfg: SimConfig,
    now: Time,
    events: EventQueue,
    mems: Vec<HostMemory>,
    nics: Vec<Nic>,
    hosts: Vec<Host>,
    node_names: Vec<String>,
    /// Dense one-way link latency table, `links[a][b]` — the per-arrival
    /// lookup must not hash.
    links: Vec<Vec<Option<Time>>>,
    qps: Vec<QueuePair>,
    qp_owner: Vec<ProcessId>,
    wqs: Vec<WorkQueue>,
    cqs: Vec<CompletionQueue>,
    inflight: Slab<InFlight>,
    callbacks: Slab<TimerCallback>,
    listeners: Slab<CqListener>,
    /// Recycled message data buffers (see [`BufPool`]).
    buf_pool: BufPool,
    /// Reusable scratch for WAIT wake-ups inside `push_cqe`.
    woken_buf: Vec<WqId>,
    /// Reusable scratch for listener poll batches inside `on_notify`.
    notify_buf: Vec<Cqe>,
    /// Watched CQs that received a CQE since the last
    /// [`Simulator::drain_ready_cqs`] — each at most once.
    ready_cqs: Vec<CqId>,
    /// Events popped, by [`EventKind::index`].
    dispatched: [u64; EventKind::NAMES.len()],
    trace: Trace,
}

impl Simulator {
    /// Create an empty simulator.
    pub fn new(cfg: SimConfig) -> Simulator {
        let trace = Trace::new(cfg.trace);
        Simulator {
            cfg,
            now: Time::ZERO,
            events: EventQueue::new(),
            mems: Vec::new(),
            nics: Vec::new(),
            hosts: Vec::new(),
            node_names: Vec::new(),
            links: Vec::new(),
            qps: Vec::new(),
            qp_owner: Vec::new(),
            wqs: Vec::new(),
            cqs: Vec::new(),
            inflight: Slab::new(),
            callbacks: Slab::new(),
            listeners: Slab::new(),
            buf_pool: BufPool::new(),
            woken_buf: Vec::new(),
            notify_buf: Vec::new(),
            ready_cqs: Vec::new(),
            dispatched: [0; EventKind::NAMES.len()],
            trace,
        }
    }

    // ------------------------------------------------------------------
    // Topology
    // ------------------------------------------------------------------

    /// Add a host (memory + CPU + NIC). Returns its id.
    pub fn add_node(&mut self, name: &str, host: HostConfig, nic: NicConfig) -> NodeId {
        let id = NodeId(self.mems.len() as u32);
        self.mems.push(HostMemory::new(id, host.dram_bytes));
        self.hosts.push(Host::new(host));
        self.nics.push(Nic::new(nic));
        self.node_names.push(name.to_string());
        for row in &mut self.links {
            row.push(None);
        }
        self.links.push(vec![None; self.mems.len()]);
        id
    }

    /// Connect two nodes with a bidirectional link.
    pub fn connect_nodes(&mut self, a: NodeId, b: NodeId, link: LinkConfig) {
        assert_ne!(a, b, "loopback needs no link");
        self.links[a.index()][b.index()] = Some(link.one_way);
        self.links[b.index()][a.index()] = Some(link.one_way);
    }

    /// Connect every pair of `nodes` with identical bidirectional links —
    /// the full-mesh wiring a multi-node serving cluster assumes (each
    /// shard primary forwards to backups on any other node). Existing
    /// links between listed pairs are overwritten.
    pub fn connect_mesh(&mut self, nodes: &[NodeId], link: LinkConfig) {
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                self.connect_nodes(a, b, link.clone());
            }
        }
    }

    fn one_way(&self, a: NodeId, b: NodeId) -> Option<Time> {
        if a == b {
            return Some(Time::ZERO);
        }
        self.links[a.index()][b.index()]
    }

    /// When `nbytes` that are ready to leave `from`'s `port` at `ready`
    /// reach node `to`. Loopback skips the wire entirely; otherwise the
    /// port's egress serializer, the wire's store-and-forward stage and
    /// the link's one-way latency apply (a bare request header — zero
    /// payload bytes — pays only the latency).
    fn wire_arrival(
        &mut self,
        from: NodeId,
        port: usize,
        to: NodeId,
        ready: Time,
        nbytes: u64,
    ) -> Time {
        if to == from {
            return ready;
        }
        let nic = &mut self.nics[from.index()];
        let link_done = nic.link_occupy(port, ready, nbytes);
        let wire = nic.wire_stage(nbytes);
        (ready + wire).max(link_done) + self.one_way(from, to).expect("connected")
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// NIC configuration of a node.
    pub fn nic_config(&self, node: NodeId) -> &NicConfig {
        &self.nics[node.index()].config
    }

    /// Host configuration of a node.
    pub fn host_config(&self, node: NodeId) -> &HostConfig {
        &self.hosts[node.index()].config
    }

    // ------------------------------------------------------------------
    // Running
    // ------------------------------------------------------------------

    /// Run until no events remain.
    pub fn run(&mut self) -> Result<()> {
        while let Some(handled) = self.dispatch_next() {
            handled?;
        }
        Ok(())
    }

    /// Run until simulated time `t` (events at exactly `t` included).
    pub fn run_until(&mut self, t: Time) -> Result<()> {
        while self.events.peek_time().is_some_and(|next| next <= t) {
            self.dispatch_next().expect("peeked")?;
        }
        self.now = self.now.max(t);
        Ok(())
    }

    /// Run for `d` more simulated time.
    pub fn run_for(&mut self, d: Time) -> Result<()> {
        let t = self.now + d;
        self.run_until(t)
    }

    /// Process exactly one event. Returns false when none remain.
    /// Synchronous experiment drivers use this to run until a condition
    /// (e.g. a completion) without draining the whole queue.
    pub fn step(&mut self) -> Result<bool> {
        self.dispatch_next()
            .map_or(Ok(false), |handled| handled.map(|()| true))
    }

    /// Process events until one leaves a watched CQ ready (see
    /// [`Simulator::watch_cq`]) or brings the clock to `until` or past
    /// it. Returns whether it stopped that way — `false` means no events
    /// remain — and how many events it processed. Every event but the
    /// one that stopped it readied no watched CQ and left the clock
    /// before `until`, so a host loop that acts only on completions or
    /// at a known time calls this where it would call
    /// [`Simulator::step`] after every event, and treats those events
    /// as turns with nothing to do. A ready list left undrained stops it
    /// after one event, as [`Simulator::step`] would.
    pub fn step_until_news(&mut self, until: Time) -> Result<(bool, u64)> {
        let mut ran = 0;
        while let Some(handled) = self.dispatch_next() {
            handled?;
            ran += 1;
            if !self.ready_cqs.is_empty() || self.now >= until {
                return Ok((true, ran));
            }
        }
        Ok((false, ran))
    }

    /// Pop the next event and dispatch it to the stage that owns its
    /// kind; `None` when none remain. The event is matched where it
    /// waited in the queue, so only the fields its kind uses are read.
    fn dispatch_next(&mut self) -> Option<Result<()>> {
        let over_budget = self.events.processed() >= self.cfg.max_events;
        let ev = self.events.pop_in_place()?;
        self.dispatched[ev.kind.index()] += 1;
        if over_budget {
            return Some(Err(Error::EventBudgetExhausted(self.cfg.max_events)));
        }
        self.now = ev.at;
        Some(match ev.kind {
            EventKind::WqAdvance { wq } => self.advance_wq(wq),
            EventKind::FetchDone { wq, batch } => self.on_fetch_done(wq, batch),
            EventKind::IssueDone { wq } => self.on_issue_done(wq),
            EventKind::Arrive { qp, msg } => self.on_arrive(qp, msg),
            EventKind::Complete { msg } => self.on_complete(msg),
            EventKind::CompleteLocal {
                wq,
                idx,
                opcode,
                cqe,
            } => self.finish_wqe(wq, idx, opcode, cqe, 0),
            EventKind::Callback { key } => {
                if let Some(cb) = self.callbacks.remove(key) {
                    cb(self);
                }
                Ok(())
            }
            EventKind::Notify { key } => self.on_notify(key),
            EventKind::PushCqe { msg } => {
                self.push_recv_cqe(msg);
                Ok(())
            }
        })
    }

    /// Drive a send queue: start a fetch and/or issue the next WQE.
    fn advance_wq(&mut self, wq_id: WqId) -> Result<()> {
        self.try_issue(wq_id)?;
        self.try_fetch(wq_id)
    }

    /// Record a queue fault. The reason text is only rendered when
    /// tracing is on, so a faulting verb on an untraced simulator
    /// allocates nothing here.
    fn trace_fault(&mut self, wq: WqId, idx: u64, reason: impl Display) {
        if self.trace.enabled() {
            let reason = reason.to_string();
            self.trace
                .record(self.now, TraceEvent::Fault { wq, idx, reason });
        }
    }

    // ------------------------------------------------------------------
    // Counters
    // ------------------------------------------------------------------

    /// Number of pending events (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Total events dispatched since construction — the engine's hot-path
    /// op count, and the denominator of events/s and allocs-per-event
    /// metrics in the `sim_events` bench.
    pub fn events_processed(&self) -> u64 {
        self.events.processed()
    }

    /// Of [`Simulator::events_processed`], how many of each kind, in
    /// [`EventKind::NAMES`] order — the events each stage handled.
    pub fn events_by_kind(&self) -> [u64; EventKind::NAMES.len()] {
        self.dispatched
    }

    /// Of [`Simulator::events_processed`], the events that never entered
    /// the timing wheel (see `EventQueue::bypassed`).
    pub fn events_bypassing_wheel(&self) -> u64 {
        self.events.bypassed()
    }

    /// The execution trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Resource-utilization snapshot for a node's NIC.
    pub fn utilization(&self, node: NodeId) -> NicUtilization {
        let nic = &self.nics[node.index()];
        NicUtilization {
            pu_busy: nic.pus.iter().map(|p| p.busy_total()).sum(),
            fetch_busy: nic.fetch_engine.iter().map(|f| f.busy_total()).sum(),
            atomic_busy: nic.atomic_engine.iter().map(|f| f.busy_total()).sum(),
            link_busy: nic.link_tx.iter().map(|f| f.busy_total()).sum(),
            pcie_busy: nic.pcie_bus.busy_total(),
        }
    }

    /// Total verbs executed by a node's NIC.
    pub fn verbs_executed(&self, node: NodeId) -> u64 {
        self.nics[node.index()].stat_verbs
    }

    /// WQEs executed by one queue (includes recycled re-executions).
    pub fn wq_executed(&self, wq: WqId) -> u64 {
        self.wqs[wq.index()].stat_executed
    }

    /// Total doorbells the host has rung across all of a node's queues.
    /// Steady-state zero growth on a server node is the §3.4 claim made
    /// measurable: the NIC re-arms itself, no CPU on the critical path.
    pub fn node_doorbells(&self, node: NodeId) -> u64 {
        self.wqs
            .iter()
            .filter(|wq| wq.node == node)
            .map(|wq| wq.stat_doorbells)
            .sum()
    }

    /// Total WQEs the host has posted across all of a node's queues (send
    /// and receive). Recycled rings re-execute without re-posting, so this
    /// counter going flat while ops complete proves CPU-free serving.
    pub fn node_posts(&self, node: NodeId) -> u64 {
        self.wqs
            .iter()
            .filter(|wq| wq.node == node)
            .map(|wq| wq.posted)
            .sum()
    }
}

/// Rigs shared by the stage modules' unit tests.
#[cfg(test)]
mod testkit {
    use super::*;
    use crate::ids::QpId;
    use crate::qp::QpConfig;

    /// Two connected nodes with default CX5 NICs.
    pub(crate) fn two_nodes() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(SimConfig::default());
        let a = sim.add_node("a", HostConfig::default(), NicConfig::connectx5());
        let b = sim.add_node("b", HostConfig::default(), NicConfig::connectx5());
        sim.connect_nodes(a, b, LinkConfig::back_to_back());
        (sim, a, b)
    }

    /// One node with a default CX5 NIC (loopback rigs).
    pub(crate) fn solo() -> (Simulator, NodeId) {
        let mut sim = Simulator::new(SimConfig::default());
        let n = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
        (sim, n)
    }

    /// A connected QP pair a→b with per-node CQs:
    /// `(qp_a, qp_b, cq_a, cq_b)`.
    pub(crate) fn qp_pair(sim: &mut Simulator, a: NodeId, b: NodeId) -> (QpId, QpId, CqId, CqId) {
        let cq_a = sim.create_cq(a, 64).unwrap();
        let cq_b = sim.create_cq(b, 64).unwrap();
        let qp_a = sim.create_qp(a, QpConfig::new(cq_a)).unwrap();
        let qp_b = sim.create_qp(b, QpConfig::new(cq_b)).unwrap();
        sim.connect_qps(qp_a, qp_b).unwrap();
        (qp_a, qp_b, cq_a, cq_b)
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;
    use crate::mem::Access;
    use crate::qp::QpConfig;
    use crate::wqe::WorkRequest;

    #[test]
    fn event_budget_stops_runaway_programs() {
        let cfg = SimConfig {
            max_events: 500,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(cfg);
        let n = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
        let cq = sim.create_cq(n, 64).unwrap();
        let mqp = sim
            .create_qp(n, QpConfig::new(cq).managed().sq_depth(1))
            .unwrap();
        let peer = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(mqp, peer).unwrap();
        let ctr = sim.alloc(n, 8, 8).unwrap();
        let cmr = sim.register_mr(n, ctr, 8, Access::all()).unwrap();
        sim.post_send_quiet(mqp, WorkRequest::fetch_add(ctr, cmr.rkey, 1, 0, 0))
            .unwrap();
        let ctrl1 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        let ctrl2 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(ctrl1, ctrl2).unwrap();
        let msq = sim.sq_of(mqp);
        // "Infinite" loop: enable far more iterations than the budget
        // allows.
        sim.post_send(ctrl1, WorkRequest::enable(msq, u64::MAX / 2))
            .unwrap();
        let err = sim.run().unwrap_err();
        assert!(matches!(err, Error::EventBudgetExhausted(_)));
    }

    /// A timer at `us` that pushes one CQE to `cq`, or does nothing.
    fn timer_at(sim: &mut Simulator, us: u64, cq: Option<CqId>) {
        let cqe = Cqe {
            wq: WqId(0),
            qp: crate::ids::QpId(0),
            wqe_index: 0,
            opcode: crate::verbs::Opcode::Noop,
            status: crate::cq::CqeStatus::Success,
            byte_len: 0,
            imm: None,
            time: Time::ZERO,
        };
        let push = move |sim: &mut Simulator| {
            if let Some(cq) = cq {
                sim.push_cqe(cq, cqe);
            }
        };
        sim.at(Time::from_us(us), Box::new(push));
    }

    #[test]
    fn step_until_news_stops_at_a_watched_cqe_or_the_deadline() {
        let (mut sim, n) = solo();
        let watched = sim.create_cq(n, 8).unwrap();
        let plain = sim.create_cq(n, 8).unwrap();
        sim.watch_cq(watched);
        timer_at(&mut sim, 1, None);
        timer_at(&mut sim, 2, Some(plain));
        timer_at(&mut sim, 3, None);
        timer_at(&mut sim, 4, Some(watched));
        timer_at(&mut sim, 5, None);
        // Right after the event that readies the watched CQ; the plain
        // CQ's CQE at 2 us does not stop it.
        assert_eq!(sim.step_until_news(Time::MAX).unwrap(), (true, 4));
        assert_eq!(sim.now(), Time::from_us(4));
        // An undrained ready list stops it after one event, as `step`
        // would have returned.
        assert_eq!(sim.step_until_news(Time::MAX).unwrap(), (true, 1));
        assert_eq!(sim.now(), Time::from_us(5));
        let mut ready = Vec::new();
        sim.drain_ready_cqs(&mut ready);
        assert_eq!(ready, [watched]);

        // At the first event at or after `until`: exactly at it ...
        for us in [6, 8, 10, 12, 12] {
            timer_at(&mut sim, us, None);
        }
        assert_eq!(sim.step_until_news(Time::from_us(6)).unwrap(), (true, 1));
        assert_eq!(sim.now(), Time::from_us(6));
        // ... or past it, when no event falls on it.
        assert_eq!(sim.step_until_news(Time::from_us(9)).unwrap(), (true, 2));
        assert_eq!(sim.now(), Time::from_us(10));
        // An `until` already passed stops after one event.
        assert_eq!(sim.step_until_news(Time::ZERO).unwrap(), (true, 1));
        // Drained: false, with the events it did process.
        assert_eq!(sim.step_until_news(Time::MAX).unwrap(), (false, 1));
        assert_eq!(sim.now(), Time::from_us(12));
        assert_eq!(sim.step_until_news(Time::MAX).unwrap(), (false, 0));
        assert!(!sim.step().unwrap());
    }

    #[test]
    fn step_until_news_surfaces_the_event_budget() {
        let mut sim = Simulator::new(SimConfig {
            max_events: 3,
            ..SimConfig::default()
        });
        for us in 1..=5 {
            timer_at(&mut sim, us, None);
        }
        let err = sim.step_until_news(Time::MAX).unwrap_err();
        assert!(matches!(err, Error::EventBudgetExhausted(3)));
        assert_eq!(sim.now(), Time::from_us(3), "three events ran");
    }

    #[test]
    fn pu_pin_out_of_range_is_an_error() {
        let (mut sim, n) = solo();
        let cq = sim.create_cq(n, 16).unwrap();
        let allocated = sim.mem(n).allocated();
        let pus = sim.nic_config(n).pus_per_port;
        let err = sim.create_qp(n, QpConfig::new(cq).on_pu(pus)).unwrap_err();
        assert!(matches!(err, Error::InvalidWr("PU index out of range")));
        assert_eq!(sim.mem(n).allocated(), allocated, "no ring was allocated");
        assert!(sim.create_qp(n, QpConfig::new(cq).on_pu(pus - 1)).is_ok());
    }

    #[test]
    fn events_by_kind_and_wheel_bypasses_add_up() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, qp_b, _, cq_b) = qp_pair(&mut sim, a, b);
        let buf = sim.alloc(b, 64, 8).unwrap();
        let mr = sim.register_mr(b, buf, 64, Access::all()).unwrap();
        sim.set_cq_listener(cq_b, ListenMode::Polling, Box::new(|_, _| {}));
        sim.post_recv(qp_b, WorkRequest::recv(buf, mr.lkey, 64))
            .unwrap();
        sim.post_send_batch(
            qp_a,
            &[
                WorkRequest::noop().signaled(),
                WorkRequest::write(0, 0, 0, buf, mr.rkey).signaled(),
                WorkRequest::send(0, 0, 0),
            ],
        )
        .unwrap();
        sim.after(Time::from_us(50), Box::new(|_| {}));
        sim.run().unwrap();
        let by_kind = sim.events_by_kind();
        assert!(
            by_kind.iter().all(|n| *n > 0),
            "every kind ran: {by_kind:?}"
        );
        assert_eq!(by_kind.iter().sum::<u64>(), sim.events_processed());
        assert!((1..sim.events_processed()).contains(&sim.events_bypassing_wheel()));
    }

    #[test]
    fn loopback_qps_work_on_one_node() {
        let (mut sim, n) = solo();
        let cq = sim.create_cq(n, 16).unwrap();
        let qp1 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        let qp2 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(qp1, qp2).unwrap();
        let buf = sim.alloc(n, 16, 8).unwrap();
        let mr = sim.register_mr(n, buf, 16, Access::all()).unwrap();
        sim.mem_write_u64(n, buf, 0x77).unwrap();

        sim.post_send(
            qp1,
            WorkRequest::write(buf, mr.lkey, 8, buf + 8, mr.rkey).signaled(),
        )
        .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(n, buf + 8).unwrap(), 0x77);
        // Loopback is faster than remote (no wire RTT).
        let cqes = sim.poll_cq(cq, 4);
        assert!(cqes[0].time.as_us_f64() < 1.6);
    }
}
