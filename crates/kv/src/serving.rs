//! Pipelined, multi-client serving layer (§5.4–§5.5 traffic shape) over
//! a **heterogeneous service mix**.
//!
//! The paper's headline Memcached numbers come from 1M-operation,
//! multi-client runs over *pipelined* offload instances — and its §3–§4
//! point is that the NIC can self-execute *arbitrary* offloads, not just
//! one. This module supplies that serving shape on top of the substrate:
//!
//! * a [`ServingFleet`] deploys one offload **service** per client
//!   through an [`OffloadCtx`], sharded across the NIC's ports and
//!   processing units. The mix is a [`FleetSpec`]: a list of
//!   [`ServiceSpec`] blocks — §3.4 hash-gets against the
//!   [`MemcachedServer`], §3.3 list-walks against a
//!   [`ListStore`] — deployed side by side on one NIC, each either
//!   **self-recycling** (§3.4 WQ recycling: primed once, the NIC re-arms
//!   between rounds, zero steady-state host arm calls / doorbells /
//!   posts / pool pushes) or host-armed;
//! * every client drives its service through a typed
//!   [`Session`]: requests are posted with
//!   `get_burst`/`walk_burst` (one doorbell per generator tick) and
//!   reaped as [`Completion`]s; reaping retires the instance slot;
//! * two load generators: **closed-loop** (each client keeps K requests
//!   outstanding, the Memtier-style generator of §5.4) and **open-loop**
//!   (each client fires at a fixed offered rate; latency is charged from
//!   the *scheduled* time, so queueing delay under overload is not
//!   hidden by coordinated omission — [`FleetStats`] reports both the
//!   scheduled-time and the service-time distributions).
//!
//! Fleet workloads are expected to hit (the population step covers both
//! key spaces): a missed key yields no response, which a pipelined
//! client only notices as a drained-simulator timeout. This contract
//! matters doubly for self-recycling services: responses carry only the
//! slot-stable tag (`instance % depth`), and slot reuse within the
//! window means completions are attributed oldest-first per tag — exact
//! for hit-only workloads (a slot's responses release in ring-round
//! order), but a *missed* request lingering in the window would absorb
//! the next same-slot completion's attribution (stats only; values
//! always land in the right client slot).

use std::collections::{HashMap, VecDeque};

use redn_core::ctx::OffloadCtx;
use redn_core::ir::analysis::{self, AnalysisReport, DeploymentVerifier};
use redn_core::offloads::hash_lookup::HashGetVariant;
use redn_core::program::ConstPool;
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{CqId, NodeId};
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;

use crate::liststore::ListStore;
use crate::memcached::MemcachedServer;
use crate::session::{Completion, Session, SessionOpts};
use crate::tenancy::{
    pu_stride, CreditPacer, NicGeometry, Placement, TenantPacker, TenantRuntime, TenantSpec,
};
use crate::workload::{sorted_latency_stats, LatencyStats, Workload};

/// One service class in a fleet's mix (what kind of offload a block of
/// clients drives).
#[derive(Clone, Copy, Debug)]
pub enum ServiceKind {
    /// §3.4 hash-table lookups against the fleet's [`MemcachedServer`].
    HashGet {
        /// Probe scheduling. Self-recycling services run probes
        /// back-to-back on one ring, so `Parallel` requires
        /// `self_recycling: false`.
        variant: HashGetVariant,
    },
    /// §3.3 linked-list traversals against the fleet's [`ListStore`].
    ListWalk {
        /// Unroll factor (≤ 15 when self-recycling).
        max_nodes: usize,
    },
}

/// One homogeneous block of fleet clients: `clients` sessions, each with
/// its own offload service of `kind`.
#[derive(Clone, Copy, Debug)]
pub struct ServiceSpec {
    /// The offload family this block deploys.
    pub kind: ServiceKind,
    /// Client sessions in the block (one service / trigger point each).
    pub clients: usize,
    /// Armed instances kept in flight per client.
    pub pipeline_depth: u32,
    /// Deploy §3.4 self-recycling offloads: each client's instance ring
    /// is primed once and the NIC re-arms it between rounds. `false`
    /// restores the host-re-armed mode.
    pub self_recycling: bool,
    /// Index into the owning [`FleetSpec::tenants`] when this block
    /// belongs to a packed multi-tenant fleet (`None` for the classic
    /// single-operator fleet). Set by [`TenantPacker`]; drives
    /// tenant-qualified isolation labels, per-tenant quotas at lowering,
    /// credit pacing, and the [`FleetStats::per_tenant`] split.
    pub tenant: Option<usize>,
}

impl ServiceSpec {
    /// A hash-get block.
    pub fn gets(
        clients: usize,
        pipeline_depth: u32,
        variant: HashGetVariant,
        self_recycling: bool,
    ) -> ServiceSpec {
        ServiceSpec {
            kind: ServiceKind::HashGet { variant },
            clients,
            pipeline_depth,
            self_recycling,
            tenant: None,
        }
    }

    /// A list-walk block.
    pub fn walks(
        clients: usize,
        pipeline_depth: u32,
        max_nodes: usize,
        self_recycling: bool,
    ) -> ServiceSpec {
        ServiceSpec {
            kind: ServiceKind::ListWalk { max_nodes },
            clients,
            pipeline_depth,
            self_recycling,
            tenant: None,
        }
    }
}

/// Fleet geometry: the (possibly heterogeneous) service mix, sharded
/// round-robin across the server NIC's ports with strided PU bases —
/// or, for a packed multi-tenant fleet, placed exactly where the
/// [`TenantPacker`] put it.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// The service blocks, deployed in order.
    pub services: Vec<ServiceSpec>,
    /// The tenants the blocks' [`ServiceSpec::tenant`] tags index into
    /// (empty for a single-operator fleet).
    pub tenants: Vec<TenantRuntime>,
    /// One pre-computed placement per client, in deploy order (packed
    /// fleets); `None` falls back to the classic round-robin sharding.
    pub placements: Option<Vec<Placement>>,
}

impl FleetSpec {
    /// A single-operator fleet over `services` (classic round-robin
    /// sharding, no tenants).
    pub fn new(services: Vec<ServiceSpec>) -> FleetSpec {
        FleetSpec {
            services,
            tenants: Vec::new(),
            placements: None,
        }
    }

    /// The pre-heterogeneity shape: one block of hash-get clients.
    pub fn gets(
        clients: usize,
        pipeline_depth: u32,
        variant: HashGetVariant,
        self_recycling: bool,
    ) -> FleetSpec {
        FleetSpec::new(vec![ServiceSpec::gets(
            clients,
            pipeline_depth,
            variant,
            self_recycling,
        )])
    }

    /// A packed multi-tenant fleet: admit `tenants` through a
    /// [`TenantPacker`] over `geometry` (typed [`PackError`] on an
    /// over-subscribed spec) and return the placed spec. The packed
    /// spec's deployment enforces each tenant's const-pool and ring-slot
    /// quotas at lowering and proves pairwise isolation with
    /// tenant-qualified labels.
    ///
    /// [`PackError`]: crate::tenancy::PackError
    pub fn tenants(geometry: NicGeometry, tenants: &[TenantSpec]) -> Result<FleetSpec> {
        let packing = TenantPacker::new(geometry).pack(tenants)?;
        Ok(packing.into_fleet_spec())
    }

    /// Total client sessions across every block.
    pub fn total_clients(&self) -> usize {
        self.services.iter().map(|s| s.clients).sum()
    }

    /// Hash-get client sessions across every block.
    pub fn get_clients(&self) -> usize {
        self.services
            .iter()
            .filter(|s| matches!(s.kind, ServiceKind::HashGet { .. }))
            .map(|s| s.clients)
            .sum()
    }

    /// List-walk client sessions across every block.
    pub fn walk_clients(&self) -> usize {
        self.total_clients() - self.get_clients()
    }
}

/// One tenant's slice of a fleet run — every aggregate stat a
/// [`FleetStats`] carries, split by owner. A tenant's `elapsed` spans
/// run start to *its own* last completion, so a paced neighbor's long
/// tail does not dilute the others' throughput.
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// Tenant name (from [`TenantSpec::name`]).
    pub tenant: String,
    /// Requests the tenant's clients completed.
    pub ops: u64,
    /// Completed hash-gets (subset of `ops`).
    pub get_ops: u64,
    /// Completed list-walks (subset of `ops`).
    pub walk_ops: u64,
    /// Run start to the tenant's last completion.
    pub elapsed: Time,
    /// The tenant's completed throughput over its own span.
    pub ops_per_sec: f64,
    /// Scheduled-time latency distribution (see [`FleetStats::latency`]).
    pub latency: Option<LatencyStats>,
    /// Post-time latency distribution (see
    /// [`FleetStats::service_latency`]).
    pub service_latency: Option<LatencyStats>,
    /// Host `arm` calls by the tenant's clients — 0 steady-state for a
    /// self-recycling tenant, per tenant, not just in aggregate.
    pub host_arm_calls: u64,
    /// The tenant's requests abandoned at run end.
    pub timeouts: u64,
    /// Trigger posts the tenant's [`CreditPacer`] deferred — pacing
    /// pressure on an overdriven tenant (0 when unpaced or under cap).
    pub shed_posts: u64,
}

impl TenantStats {
    /// Merge the same tenant's slice from two runs/fleets (counts sum,
    /// spans take the max, latency merges count-weighted — the
    /// per-tenant analogue of [`FleetStats::merge`]).
    fn merge(&self, other: &TenantStats) -> TenantStats {
        debug_assert_eq!(self.tenant, other.tenant);
        let lat = |x: Option<LatencyStats>, y: Option<LatencyStats>| match (x, y) {
            (Some(a), Some(b)) => Some(a.merge(&b)),
            (a, b) => a.or(b),
        };
        TenantStats {
            tenant: self.tenant.clone(),
            ops: self.ops + other.ops,
            get_ops: self.get_ops + other.get_ops,
            walk_ops: self.walk_ops + other.walk_ops,
            elapsed: self.elapsed.max(other.elapsed),
            ops_per_sec: self.ops_per_sec + other.ops_per_sec,
            latency: lat(self.latency, other.latency),
            service_latency: lat(self.service_latency, other.service_latency),
            host_arm_calls: self.host_arm_calls + other.host_arm_calls,
            timeouts: self.timeouts + other.timeouts,
            shed_posts: self.shed_posts + other.shed_posts,
        }
    }
}

/// Aggregate result of one fleet run.
#[derive(Clone, Debug)]
pub struct FleetStats {
    /// Requests completed (reaped responses across all clients).
    pub ops: u64,
    /// Completed hash-gets (subset of `ops`).
    pub get_ops: u64,
    /// Completed list-walks (subset of `ops`).
    pub walk_ops: u64,
    /// Wall-clock (simulated) span of the run.
    pub elapsed: Time,
    /// Completed throughput.
    pub ops_per_sec: f64,
    /// Per-request latency statistics, charged from the **scheduled**
    /// time (`None` when no op completed). For a closed-loop run the
    /// scheduled time is the post time, so this equals
    /// [`FleetStats::service_latency`]; for an open-loop run it includes
    /// client-side queueing delay (the anti-coordinated-omission view).
    pub latency: Option<LatencyStats>,
    /// Per-request latency statistics charged from the actual **post**
    /// time — the service-time view, excluding client-side queueing.
    pub service_latency: Option<LatencyStats>,
    /// Requests abandoned because the simulator drained or the run
    /// deadline passed before their response arrived.
    pub timeouts: u64,
    /// Offered load of an open-loop run (`None` for closed loop).
    pub offered_ops_per_sec: Option<f64>,
    /// Host `arm` calls during the run — the §3.4 proof metric: a
    /// self-recycling fleet reports 0 in steady state.
    pub host_arm_calls: u64,
    /// Host `arm` calls by hash-get clients (subset of `host_arm_calls`).
    pub get_arm_calls: u64,
    /// Host `arm` calls by list-walk clients (subset of `host_arm_calls`).
    pub walk_arm_calls: u64,
    /// Doorbells (MMIO writes, including host enables) the *server* CPU
    /// rang during the run. 0 for a self-recycling fleet.
    pub server_doorbells: u64,
    /// WQEs the *server* CPU posted during the run. 0 for a
    /// self-recycling fleet (the NIC re-executes without re-posting).
    pub server_posts: u64,
    /// Doorbells the client CPUs rang — batched trigger SENDs make this
    /// ~1 per generator tick rather than 1 per request.
    pub client_doorbells: u64,
    /// The serving pool's high-water mark at the end of the run (peak
    /// bytes ever allocated). Flat across runs once the IR's const-pool
    /// deduplication interns every steady-state constant.
    pub pool_high_water: u64,
    /// Allocations the serving pool has served in total (leases). Flat
    /// across steady-state runs for the same reason.
    pub pool_leases: u64,
    /// Times the generator polled a client's recv CQ. The generator only
    /// visits clients with something to reap or post, so this grows with
    /// completions, not with clients × events.
    pub reap_calls: u64,
    /// The polls among `reap_calls` that reaped at least one completion.
    pub reap_useful: u64,
    /// Generator turns: each one drains the ready list, visits whoever
    /// has news or a credit, and advances the simulator. A closed loop
    /// turns at news, credit and deadline, not after every event.
    pub turns: u64,
    /// Per-tenant split of the run (one entry per [`FleetSpec::tenants`]
    /// entry, in spec order; empty for a single-operator fleet). Every
    /// aggregate above is the sum/merge of these slices plus any
    /// untenanted clients.
    pub per_tenant: Vec<TenantStats>,
}

impl FleetStats {
    /// Merge per-node fleet stats into one cluster-level view.
    ///
    /// Cluster nodes serve their shards concurrently, so op counts,
    /// throughputs, arm-call/doorbell/post counters and pool accounting
    /// **sum**, while `elapsed` takes the slowest node (the cluster run
    /// spans the longest per-node run). Latency summaries merge
    /// count-weighted via `LatencyStats::merge` — approximate
    /// percentiles, exact `max_us`. Per-tenant slices union **by tenant
    /// name**: the same tenant packed on two fleets merges into one
    /// slice (via `TenantStats::merge`, keeping its distributions);
    /// tenants unique to one side pass through untouched.
    pub fn merge(&self, other: &FleetStats) -> FleetStats {
        let lat = |x: Option<LatencyStats>, y: Option<LatencyStats>| match (x, y) {
            (Some(a), Some(b)) => Some(a.merge(&b)),
            (a, b) => a.or(b),
        };
        let load = |x: Option<f64>, y: Option<f64>| match (x, y) {
            (Some(a), Some(b)) => Some(a + b),
            (a, b) => a.or(b),
        };
        let mut per_tenant: Vec<TenantStats> = self.per_tenant.clone();
        for t in &other.per_tenant {
            match per_tenant.iter_mut().find(|m| m.tenant == t.tenant) {
                Some(mine) => *mine = mine.merge(t),
                None => per_tenant.push(t.clone()),
            }
        }
        FleetStats {
            ops: self.ops + other.ops,
            get_ops: self.get_ops + other.get_ops,
            walk_ops: self.walk_ops + other.walk_ops,
            elapsed: self.elapsed.max(other.elapsed),
            ops_per_sec: self.ops_per_sec + other.ops_per_sec,
            latency: lat(self.latency, other.latency),
            service_latency: lat(self.service_latency, other.service_latency),
            timeouts: self.timeouts + other.timeouts,
            offered_ops_per_sec: load(self.offered_ops_per_sec, other.offered_ops_per_sec),
            host_arm_calls: self.host_arm_calls + other.host_arm_calls,
            get_arm_calls: self.get_arm_calls + other.get_arm_calls,
            walk_arm_calls: self.walk_arm_calls + other.walk_arm_calls,
            server_doorbells: self.server_doorbells + other.server_doorbells,
            server_posts: self.server_posts + other.server_posts,
            client_doorbells: self.client_doorbells + other.client_doorbells,
            pool_high_water: self.pool_high_water + other.pool_high_water,
            pool_leases: self.pool_leases + other.pool_leases,
            reap_calls: self.reap_calls + other.reap_calls,
            reap_useful: self.reap_useful + other.reap_useful,
            turns: self.turns + other.turns,
            per_tenant,
        }
    }
}

/// A fleet client's request stream.
enum Stream {
    /// Keys for a hash-get session.
    Keys(Workload),
    /// `(head, key)` pairs for a list-walk session, cycled.
    Walks {
        reqs: Vec<(u64, u64)>,
        cursor: usize,
    },
}

/// One in-flight request (either family — the instance is all the
/// generators need; values land in the session's response slots).
struct Pending {
    instance: u64,
    /// When the request was (conceptually) issued — the open-loop
    /// scheduled time; equals `posted_at` for closed loop.
    scheduled_at: Time,
    /// When the request actually reached the NIC.
    posted_at: Time,
}

/// One serving client: its typed session, its request stream and its
/// in-flight window.
struct FleetClient {
    session: Session,
    stream: Stream,
    inflight: VecDeque<Pending>,
    posted: u64,
    reaped: u64,
    depth: u32,
    /// Owning tenant index (see [`ServiceSpec::tenant`]).
    tenant: Option<usize>,
}

/// One owner's (the fleet's, or one tenant's) accounting of a run: every
/// completion's scheduled-time and post-time latency in reap order, host
/// arm calls, and the last completion seen (a tenant's run span).
#[derive(Default)]
struct Log {
    sched: Vec<Time>,
    svc: Vec<Time>,
    arms: u64,
    last_done: Option<Time>,
}

/// One run's accounting: the whole fleet's, the hash-get share of its
/// arm calls, the generator's CQ polls, and the same split per tenant
/// (indexed like `FleetSpec::tenants`).
#[derive(Default)]
struct RunLog {
    all: Log,
    get_arms: u64,
    reap_calls: u64,
    reap_useful: u64,
    tenants: Vec<Log>,
}

impl RunLog {
    /// The fleet's log plus, for a tenanted client, its owner's.
    fn of(&mut self, tenant: Option<usize>) -> impl Iterator<Item = &mut Log> {
        let tenant = tenant.map(|t| &mut self.tenants[t]);
        [Some(&mut self.all), tenant].into_iter().flatten()
    }
}

/// Completion and request buffers reused by every client's
/// [`FleetClient::reap`] and [`FleetClient::post_burst`], so a
/// steady-state tick allocates nothing (the handles a burst returns live
/// in its session).
#[derive(Default)]
struct PostScratch {
    done: Vec<Completion>,
    keys: Vec<u64>,
    pairs: Vec<(u64, u64)>,
}

impl FleetClient {
    /// Reap every pending completion: record it in `log`, retire its
    /// instance slot, and (host-armed, while requests remain) re-arm one
    /// instance per completion.
    fn reap(
        &mut self,
        sim: &mut Simulator,
        pool: &mut ConstPool,
        ops_per_client: u64,
        log: &mut RunLog,
        buf: &mut PostScratch,
    ) -> Result<()> {
        buf.done.clear();
        if !self.session.reap_into(sim, 1024, &mut buf.done) {
            return Ok(());
        }
        let mut arms = 0u64;
        let host_armed = !self.session.service().is_recycled();
        log.reap_calls += 1;
        log.reap_useful += u64::from(!buf.done.is_empty());
        for done in buf.done.drain(..) {
            let tag = done.tag();
            if let Some(pos) = self
                .inflight
                .iter()
                .position(|p| self.session.response_tag(p.instance) == tag)
            {
                let pending = self.inflight.remove(pos).expect("position just found");
                for log in log.of(self.tenant) {
                    log.sched.push(done.at() - pending.scheduled_at);
                    log.svc.push(done.at() - pending.posted_at);
                    log.last_done = log.last_done.max(Some(done.at()));
                }
                self.reaped += 1;
                self.session.complete();
            }
            // Replace the consumed instance from the host in host-armed
            // mode (the §3.4 comparison row) — one arm per completion.
            if self.posted < ops_per_client && host_armed {
                self.session.service_mut().arm(sim, pool)?;
                arms += 1;
            }
        }
        log.of(self.tenant).for_each(|log| log.arms += arms);
        log.get_arms += if self.session.is_get() { arms } else { 0 };
        Ok(())
    }

    /// Post `n` requests from the stream as one burst (one doorbell).
    fn post_burst(&mut self, sim: &mut Simulator, n: u64, buf: &mut PostScratch) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        let now = sim.now();
        let pending = |instance, posted_at| Pending {
            instance,
            scheduled_at: now,
            posted_at,
        };
        match &mut self.stream {
            Stream::Keys(w) => {
                buf.keys.clear();
                buf.keys.extend((0..n).map(|_| w.next_key()));
                let posted = self.session.get_burst(sim, &buf.keys)?;
                let posted = posted.iter().map(|p| pending(p.instance, p.posted_at));
                self.inflight.extend(posted);
            }
            Stream::Walks { reqs, cursor } => {
                buf.pairs.clear();
                buf.pairs
                    .extend((0..n as usize).map(|i| reqs[(*cursor + i) % reqs.len()]));
                *cursor = (*cursor + n as usize) % reqs.len();
                let posted = self.session.walk_burst(sim, &buf.pairs)?;
                let posted = posted.iter().map(|p| pending(p.instance, p.posted_at));
                self.inflight.extend(posted);
            }
        }
        self.posted += n;
        Ok(())
    }
}

/// A deployed fleet of pipelined serving clients (see the module docs).
pub struct ServingFleet {
    spec: FleetSpec,
    clients: Vec<FleetClient>,
    /// Each client's (watched) recv CQ → its index: how the generator
    /// reads the simulator's ready list.
    recv_cqs: HashMap<CqId, usize>,
    server_node: NodeId,
    client_node: NodeId,
    log: RunLog,
    scratch: PostScratch,
    /// One trigger-path pacer per rate-capped tenant, rebuilt at each
    /// run's start.
    pacers: Vec<Option<CreditPacer>>,
    /// Deploy-time non-interference proof (clean by construction — a
    /// dirty report aborts [`ServingFleet::deploy`]).
    isolation: AnalysisReport,
}

/// An open loop's timetable: client `i`'s `j`-th request is scheduled at
/// `start + j * interval + i * stagger`.
#[derive(Clone, Copy)]
struct Schedule {
    start: Time,
    interval_ps: u64,
    stagger_ps: u64,
}

impl Schedule {
    fn at(self, i: usize, j: u64) -> Time {
        self.start + Time::from_ps(j * self.interval_ps + i as u64 * self.stagger_ps)
    }
}

/// How a run's requests arrive at the generator.
#[derive(Clone, Copy)]
enum Arrival {
    /// Closed loop: each client keeps `k` requests outstanding (capped
    /// at its pipeline depth).
    Closed { k: u32 },
    /// Open loop: requests arrive on a fixed timetable.
    Open(Schedule),
}

impl Arrival {
    /// Requests client `c` (index `i`) should post at `now`: the closed
    /// loop's window refill, or every due open-loop request the
    /// pipeline has room for.
    fn due(self, c: &FleetClient, i: usize, ops_per_client: u64, now: Time) -> u64 {
        let inflight = c.inflight.len() as u64;
        match self {
            Arrival::Closed { k } => {
                let room = u64::from(k.clamp(1, c.depth)).saturating_sub(inflight);
                room.min(ops_per_client - c.posted)
            }
            Arrival::Open(sched) => {
                let mut due = 0u64;
                while c.posted + due < ops_per_client
                    && sched.at(i, c.posted + due) <= now
                    && inflight + due < u64::from(c.depth)
                {
                    due += 1;
                }
                due
            }
        }
    }
}

/// Safety net for runs wedged by a lost completion: simulated time spent
/// past this bound aborts the run and reports the remainder as timeouts.
const RUN_DEADLINE: Time = Time::from_secs(5);

/// How far before [`CreditPacer::next_credit_at`] a closed loop's run to
/// the next news stops. That answer is rounded up to a whole picosecond
/// from an `f64` quotient, while a grant sums the anchor's credit in
/// `f64` — they may disagree by rounding, never by a nanosecond's worth
/// of credit, so no credit can be held before `next_credit_at − 1 ns`.
const CREDIT_MARGIN: Time = Time::from_ns(1);

impl ServingFleet {
    /// Deploy the spec's service mix through `ctx` (which must live on
    /// the server's node), one service + session per client, and prime
    /// every pipeline. `workloads` supplies one key stream per *hash-get*
    /// client (§5.5 gives each client a disjoint sequential range; §5.4
    /// shares a random set); list-walk clients draw their `(head, key)`
    /// streams from `lists`, which is required iff the mix contains a
    /// walk block.
    pub fn deploy(
        sim: &mut Simulator,
        ctx: &mut OffloadCtx,
        server: &MemcachedServer,
        lists: Option<&ListStore>,
        client_node: NodeId,
        spec: FleetSpec,
        workloads: Vec<Workload>,
    ) -> Result<ServingFleet> {
        if spec.total_clients() == 0 {
            return Err(Error::InvalidWr("fleet needs >= 1 client"));
        }
        if spec.services.iter().any(|s| s.pipeline_depth == 0) {
            return Err(Error::InvalidWr("fleet needs pipeline depth >= 1"));
        }
        if workloads.len() != spec.get_clients() {
            return Err(Error::InvalidWr("one workload per hash-get fleet client"));
        }
        let nwalkers = spec.walk_clients();
        if nwalkers > 0 {
            let Some(store) = lists else {
                return Err(Error::InvalidWr(
                    "a fleet with list-walk services needs a ListStore",
                ));
            };
            if (nwalkers as u64) > store.nlists {
                return Err(Error::InvalidWr(
                    "fleet has more walk clients than the ListStore has lists",
                ));
            }
        }
        let ports = sim.nic_config(server.node).ports;
        let npus = sim.nic_config(server.node).pus_per_port;
        if let Some(pl) = &spec.placements {
            if pl.len() != spec.total_clients() {
                return Err(Error::InvalidWr("one placement per packed fleet client"));
            }
            if pl.iter().any(|p| p.port >= ports) {
                return Err(Error::InvalidWr("packed placement names a missing port"));
            }
        }
        if spec
            .services
            .iter()
            .any(|s| s.tenant.is_some_and(|t| t >= spec.tenants.len()))
        {
            return Err(Error::InvalidWr("service block names a missing tenant"));
        }
        let ntenants = spec.tenants.len();
        // Running per-tenant lowering budgets: const-pool bytes actually
        // placed (interner hits are free) and recycled-ring WQE slots.
        let mut pool_spent = vec![0u64; ntenants];
        let mut ring_spent = vec![0u64; ntenants];
        let mut clients = Vec::with_capacity(spec.total_clients());
        let mut recv_cqs = HashMap::new();
        let mut workloads = workloads.into_iter();
        let mut walk_idx = 0usize;
        let mut i = 0usize; // global client index, for port sharding
        let mut pu_next = vec![0usize; ports]; // next free PU base per port
        for svc in &spec.services {
            for _ in 0..svc.clients {
                // Shard clients round-robin over the NIC's ports first
                // (each port has its own WQE-fetch engine and PU pool —
                // the Table 4 dual-port scaling), then hand each client
                // the next free PU range on its port so clients spread
                // over the PUs instead of stacking on PU 0. The range is
                // sized by the client's own service (`pu_stride`) — a
                // running cursor per port keeps mixed strides from
                // overlapping.
                // A packed multi-tenant spec carries its own placements
                // (the TenantPacker already did this arithmetic across
                // tenants) and bypasses the cursor.
                let (port, pu_base) = match &spec.placements {
                    Some(pl) => (pl[i].port, pl[i].pu_base % npus),
                    None => {
                        let port = i % ports;
                        let base = pu_next[port] % npus;
                        pu_next[port] += pu_stride(svc);
                        (port, base)
                    }
                };
                let opts = SessionOpts {
                    pipeline_depth: svc.pipeline_depth,
                    self_recycling: svc.self_recycling,
                    port,
                    pu_base,
                };
                // A tenant's const-pool quota is enforced *during* this
                // client's lowering: the pool meters every byte the
                // connect actually places (dedup hits are free) against
                // what the tenant has left, and over-budget placement
                // fails with Error::Quota naming the tenant.
                let budget = svc.tenant.and_then(|t| {
                    spec.tenants[t]
                        .const_pool_quota
                        .map(|cap| (t, cap.saturating_sub(pool_spent[t])))
                });
                if let Some((t, remaining)) = budget {
                    ctx.pool_mut()
                        .begin_budget(spec.tenants[t].name.clone(), remaining);
                }
                let connected = match svc.kind {
                    ServiceKind::HashGet { variant } => {
                        let w = workloads.next().expect("counted above");
                        Session::connect_get(sim, ctx, server, client_node, variant, opts)
                            .map(|s| (s, Stream::Keys(w)))
                    }
                    ServiceKind::ListWalk { max_nodes } => {
                        let store = lists.expect("checked above");
                        let reqs = store.walk_requests(walk_idx, nwalkers);
                        walk_idx += 1;
                        Session::connect_walk(sim, ctx, store, client_node, max_nodes, opts)
                            .map(|s| (s, Stream::Walks { reqs, cursor: 0 }))
                    }
                };
                if let Some((t, _)) = budget {
                    let (bytes, _leases) = ctx.pool_mut().end_budget();
                    pool_spent[t] += bytes;
                }
                let (session, stream) = connected?;
                // The ring-slot quota is re-checked against the *exact*
                // lowered ring depth (the packer only saw the
                // pipeline-depth floor).
                if let Some(t) = svc.tenant.filter(|_| svc.self_recycling) {
                    if let Some(cap) = spec.tenants[t].ring_slot_quota {
                        let slots = session
                            .ir_report()
                            .map(|r| u64::from(r.ring_slots))
                            .unwrap_or(u64::from(svc.pipeline_depth));
                        ring_spent[t] += slots;
                        if ring_spent[t] > cap {
                            return Err(Error::Quota(format!(
                                "tenant '{}' ring-slot quota exceeded after lowering: \
                                 {} > {} WQE slots",
                                spec.tenants[t].name, ring_spent[t], cap
                            )));
                        }
                    }
                }
                sim.watch_cq(session.endpoint().recv_cq);
                recv_cqs.insert(session.endpoint().recv_cq, clients.len());
                clients.push(FleetClient {
                    session,
                    stream,
                    inflight: VecDeque::new(),
                    posted: 0,
                    reaped: 0,
                    depth: svc.pipeline_depth,
                    tenant: svc.tenant,
                });
                i += 1;
            }
        }
        // Every program is up: the deploys' shared working memory has
        // done its job.
        ctx.pool_mut().release_scratch();
        // Tenant isolation: prove pairwise non-interference across the
        // co-deployed services before any request flows. Self-recycling
        // services publish their round's footprint (response slots, ring
        // WQEs, owned CQs/SQs); an overlap between any two would surface
        // at run time as a corrupted response or a shifted threshold, so
        // it is a hard deploy error here. Host-armed services stage
        // per-arm programs on private queues (vetted per-deploy by the IR
        // analyzer) and have no static round footprint to compare.
        let mut verifier = DeploymentVerifier::new(format!("fleet@node{}", server.node.0));
        for (ci, c) in clients.iter().enumerate() {
            if let Some(fp) = c.session.service().footprint() {
                // Tenant-qualified labels: in a packed fleet every
                // program (and so every interference diagnostic) names
                // its owner as `tenant/offload`, so a cross-tenant
                // overlap reads as "who hit whom", not "client 3 vs 7".
                let label = match c.tenant {
                    Some(t) => {
                        format!("{}/{} (client {})", spec.tenants[t].name, fp.name, ci)
                    }
                    None => format!("client {}: {}", ci, fp.name),
                };
                verifier.add_labelled(fp, label);
            }
        }
        let isolation = verifier.verify();
        analysis::first_error(&isolation.diagnostics, "fleet isolation")?;
        Ok(ServingFleet {
            spec,
            clients,
            recv_cqs,
            server_node: server.node,
            client_node,
            log: RunLog::default(),
            scratch: PostScratch::default(),
            pacers: vec![None; ntenants],
            isolation,
        })
    }

    /// The deploy-time non-interference proof over the fleet's
    /// self-recycling services (see [`DeploymentVerifier`]): `programs`
    /// footprints compared pairwise, zero diagnostics (a dirty report is
    /// a deploy error, so a live fleet's report is always clean).
    pub fn isolation_report(&self) -> &AnalysisReport {
        &self.isolation
    }

    /// The fleet's geometry.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Closed-loop run: every client keeps `k_outstanding` requests in
    /// flight (capped at its pipeline depth) until it has completed
    /// `ops_per_client` requests. A rate-capped tenant's refills pass
    /// through its [`CreditPacer`] first, so its clients shed (defer)
    /// their own posts under overload while its neighbors' windows stay
    /// full. Returns aggregate throughput and latency.
    pub fn run_closed_loop(
        &mut self,
        sim: &mut Simulator,
        pool: &mut ConstPool,
        ops_per_client: u64,
        k_outstanding: u32,
    ) -> Result<FleetStats> {
        let arrival = Arrival::Closed { k: k_outstanding };
        self.run(sim, pool, ops_per_client, arrival, None)
    }

    /// Open-loop run: every client *schedules* a request every
    /// `1/offered_per_client` seconds (staggered across clients) and
    /// posts it as soon as a pipeline slot is free. Under overload the
    /// window stays full and requests queue; their [`FleetStats::latency`]
    /// is charged from the scheduled time, so the achieved-vs-offered gap
    /// and the latency blow-up are both visible
    /// ([`FleetStats::service_latency`] keeps the queueing-free view).
    pub fn run_open_loop(
        &mut self,
        sim: &mut Simulator,
        pool: &mut ConstPool,
        ops_per_client: u64,
        offered_per_client: f64,
    ) -> Result<FleetStats> {
        if !offered_per_client.is_finite() || offered_per_client <= 0.0 {
            return Err(Error::InvalidWr("open-loop offered rate must be positive"));
        }
        let interval_ps = (1e12 / offered_per_client).round() as u64;
        let arrival = Arrival::Open(Schedule {
            start: sim.now(),
            interval_ps,
            stagger_ps: interval_ps / (self.clients.len() as u64).max(1),
        });
        let offered = offered_per_client * self.clients.len() as f64;
        self.run(sim, pool, ops_per_client, arrival, Some(offered))
    }

    /// The generator behind both run modes. A client's *visit* reaps its
    /// recv CQ, works out how many posts its [`Arrival`] wants now, passes
    /// the ask through its tenant's pacer and fires the grant as one
    /// burst; then simulated time advances the way the mode needs. Each
    /// turn visits — in ascending client index — only the clients for
    /// which a visit can do anything, and a closed loop turns only when
    /// something can have changed (DESIGN.md "`redn_kv::serving`" has the
    /// argument that every skipped visit and turn would have been a
    /// no-op).
    fn run(
        &mut self,
        sim: &mut Simulator,
        pool: &mut ConstPool,
        ops_per_client: u64,
        arrival: Arrival,
        offered: Option<f64>,
    ) -> Result<FleetStats> {
        let start = sim.now();
        let deadline = start + RUN_DEADLINE;
        self.begin_run(sim, pool, ops_per_client)?;
        // The host-involvement counters at run start.
        let base = (
            sim.node_doorbells(self.server_node),
            sim.node_posts(self.server_node),
            sim.node_doorbells(self.client_node),
        );
        let n = self.clients.len();
        // This turn's visit set — every client on the first turn — and
        // who is in it.
        let mut todo: Vec<usize> = (0..n).collect();
        let mut queued = vec![true; n];
        // Throttled clients: the pacer cut their last ask short, and
        // `CreditPacer::shed` counts the ask again every turn — and every
        // event a closed loop runs past without a turn — until it is met.
        let mut unmet: Vec<usize> = Vec::new();
        let mut ready: Vec<CqId> = Vec::new();
        // Open loop (empty otherwise): when each unthrottled client with
        // window room and posts left is next scheduled to post. A scan of
        // this array per turn is what finds due posts and the next idle
        // jump; at the client counts run here it is cheaper than a heap
        // of due times.
        let open = matches!(arrival, Arrival::Open(_));
        let mut next_due = vec![None::<Time>; if open { n } else { 0 }];
        let mut unfinished = if ops_per_client > 0 { n } else { 0 };
        // The first instant past the deadline: a turn there is the last.
        let past_deadline = deadline + Time::from_ps(1);
        let mut turns = 0u64;
        loop {
            let now = sim.now();
            turns += 1;
            sim.drain_ready_cqs(&mut ready);
            let news = ready.drain(..);
            let news = news.filter_map(|cq| self.recv_cqs.get(&cq).copied());
            let due = next_due.iter().enumerate();
            let due = due.filter_map(|(ci, t)| t.is_some_and(|t| t <= now).then_some(ci));
            for ci in news.chain(due) {
                if !std::mem::replace(&mut queued[ci], true) {
                    todo.push(ci);
                }
            }
            // A throttled client with no news, whose tenant still holds
            // less than one credit, is not visited: the visit would reap
            // nothing, be granted nothing and post nothing. Its ask is
            // shed all the same.
            unmet.retain(|&ci| {
                let c = &self.clients[ci];
                let pacer = c.tenant.and_then(|t| self.pacers[t].as_mut());
                let pacer = pacer.expect("only a pacer cuts an ask short");
                if !queued[ci] && !pacer.has_credit(now) {
                    pacer.defer(arrival.due(c, ci, ops_per_client, now));
                    return true;
                }
                if !std::mem::replace(&mut queued[ci], true) {
                    todo.push(ci);
                }
                false
            });
            todo.sort_unstable();
            for ci in todo.drain(..) {
                queued[ci] = false;
                let c = &mut self.clients[ci];
                let was_done = c.reaped >= ops_per_client;
                c.reap(sim, pool, ops_per_client, &mut self.log, &mut self.scratch)?;
                let want = arrival.due(c, ci, ops_per_client, now);
                // A rate-capped tenant's posts are additionally gated by
                // its pacer. In an open loop the shortfall stays
                // scheduled, so its latency keeps accruing from the
                // scheduled time — pacing delay is charged to the
                // overdriven tenant, not hidden.
                let pacer = c.tenant.and_then(|t| self.pacers[t].as_mut());
                let granted = pacer.map_or(want, |p| p.grant(now, want));
                let throttled = granted < want;
                let first = c.posted;
                c.post_burst(sim, granted, &mut self.scratch)?;
                unfinished -= usize::from(!was_done && c.reaped >= ops_per_client);
                if throttled {
                    unmet.push(ci);
                }
                if let Arrival::Open(sched) = arrival {
                    // Backdate each new pending handle to its scheduled time.
                    let len = c.inflight.len();
                    let new = c.inflight.iter_mut().skip(len - granted as usize);
                    for (j, pending) in new.enumerate() {
                        pending.scheduled_at = sched.at(ci, first + j as u64);
                    }
                    // A credit-gated client's next post happens when its
                    // tenant's credit accrues, not at the (already-passed)
                    // scheduled time.
                    let room = c.posted < ops_per_client && (len as u64) < u64::from(c.depth);
                    next_due[ci] = (!throttled && room).then(|| sched.at(ci, c.posted));
                }
            }
            if unfinished == 0 || now > deadline {
                break;
            }
            match arrival {
                // Closed loop: run to the next news — a client's CQE, the
                // first instant a throttled client's tenant may hold a
                // credit, or the deadline — so every completion is reaped
                // and refilled at once. Each event before it would have
                // been a turn that visits nobody and sheds every
                // throttled ask once. When the simulator drains only
                // paced posts remain — jump to the credit.
                Arrival::Closed { .. } => {
                    let credit = self.credit_wake(&unmet, now);
                    let until = credit.map_or(past_deadline, |t| {
                        t.saturating_sub(CREDIT_MARGIN).min(past_deadline)
                    });
                    let (stopped, ran) = sim.step_until_news(until)?;
                    let idle = ran - u64::from(stopped);
                    for &ci in &unmet {
                        let c = &self.clients[ci];
                        if let Some(p) = c.tenant.and_then(|t| self.pacers[t].as_mut()) {
                            p.defer(idle * arrival.due(c, ci, ops_per_client, now));
                        }
                    }
                    if !stopped {
                        let now = sim.now();
                        let wake = self.credit_wake(&unmet, now);
                        match wake.filter(|&t| t > now && t <= deadline) {
                            Some(t) => sim.run_until(t)?,
                            None => break,
                        }
                    }
                }
                // Open loop: nothing to do until the next scheduled post
                // or credit — jump there; otherwise a post is due now
                // (window full) or only reaps remain.
                Arrival::Open(_) => {
                    let wake = self.credit_wake(&unmet, now);
                    let wake = next_due.iter().flatten().copied().chain(wake).min();
                    match wake.filter(|&t| t > now) {
                        Some(t) => sim.run_until(t)?,
                        None => {
                            if !sim.step()? {
                                break;
                            }
                        }
                    }
                }
            }
        }
        Ok(self.finish(sim, pool, start, offered, base, turns))
    }

    /// The earliest time a throttled client's tenant holds a whole credit
    /// — where a run with nothing else to do jumps to instead of
    /// spinning, and (less [`CREDIT_MARGIN`]) where a closed loop's run
    /// to the next news stops at the latest.
    fn credit_wake(&self, unmet: &[usize], now: Time) -> Option<Time> {
        let tenants = unmet.iter().filter_map(|&ci| self.clients[ci].tenant);
        let pacers = tenants.filter_map(|t| self.pacers[t].as_ref());
        pacers.map(|p| p.next_credit_at(now).max(now)).min()
    }

    /// Reset per-run accounting — latency logs reserved for every op the
    /// run may reap, so they never grow — and top every host-armed client's
    /// pipeline back up to `pipeline_depth` armed, unclaimed instances.
    /// A host-armed run consumes its window's worth of armed instances
    /// (the final K posts re-arm nothing), so back-to-back runs on one
    /// fleet would otherwise drain the pipeline dry. Self-recycling
    /// services re-arm on the NIC — nothing to do.
    fn begin_run(
        &mut self,
        sim: &mut Simulator,
        pool: &mut ConstPool,
        ops_per_client: u64,
    ) -> Result<()> {
        let ntenants = self.spec.tenants.len();
        let log = |clients: usize| {
            let ops = clients * ops_per_client as usize;
            Log {
                sched: Vec::with_capacity(ops),
                svc: Vec::with_capacity(ops),
                ..Log::default()
            }
        };
        let clients_of = |t| self.clients.iter().filter(|c| c.tenant == Some(t)).count();
        self.log = RunLog {
            all: log(self.clients.len()),
            tenants: (0..ntenants).map(|t| log(clients_of(t))).collect(),
            ..RunLog::default()
        };
        for t in 0..ntenants {
            // Rebuild each rate-capped tenant's pacer at the run's
            // clock: a burst allowance of the tenant's total pipeline
            // depth lets it fill its windows once, after which refills
            // accrue strictly at the cap.
            self.pacers[t] = self.spec.tenants[t].rate_cap_ops_per_sec.map(|cap| {
                let burst: u64 = self
                    .clients
                    .iter()
                    .filter(|c| c.tenant == Some(t))
                    .map(|c| u64::from(c.depth))
                    .sum();
                CreditPacer::new(cap, burst.max(1) as f64, sim.now())
            });
        }
        for c in &mut self.clients {
            c.posted = 0;
            c.reaped = 0;
            c.session.service_mut().prime(sim, pool)?;
        }
        Ok(())
    }

    /// Collect stats and abandon whatever is still in flight.
    fn finish(
        &mut self,
        sim: &Simulator,
        pool: &ConstPool,
        start: Time,
        offered: Option<f64>,
        base: (u64, u64, u64),
        turns: u64,
    ) -> FleetStats {
        let ntenants = self.spec.tenants.len();
        let mut timeouts = 0u64;
        let mut tenant_timeouts = vec![0u64; ntenants];
        for c in &mut self.clients {
            timeouts += c.inflight.len() as u64;
            if let Some(t) = c.tenant {
                tenant_timeouts[t] += c.inflight.len() as u64;
            }
            for _ in c.inflight.drain(..) {
                c.session.abandon();
            }
        }
        let ops: u64 = self.clients.iter().map(|c| c.reaped).sum();
        let get_ops: u64 = self
            .clients
            .iter()
            .filter(|c| c.session.is_get())
            .map(|c| c.reaped)
            .sum();
        let elapsed = sim.now() - start;
        let secs = elapsed.as_us_f64() / 1e6;
        // The run's own logs, sorted in place: no copy.
        let stats_of = |v: &mut [Time]| {
            v.sort_unstable();
            (!v.is_empty()).then(|| sorted_latency_stats(v))
        };
        let per_tenant = (0..ntenants)
            .map(|t| {
                let ops: u64 = self
                    .clients
                    .iter()
                    .filter(|c| c.tenant == Some(t))
                    .map(|c| c.reaped)
                    .sum();
                let get_ops: u64 = self
                    .clients
                    .iter()
                    .filter(|c| c.tenant == Some(t) && c.session.is_get())
                    .map(|c| c.reaped)
                    .sum();
                // The tenant's own span: run start to its last
                // completion. A rate-capped tenant finishing long after
                // its neighbors must not dilute their throughput (nor
                // have its own inflated by the fleet-wide clock).
                let t_elapsed = self.log.tenants[t]
                    .last_done
                    .map_or(elapsed, |at| at - start);
                let t_secs = t_elapsed.as_secs_f64();
                TenantStats {
                    tenant: self.spec.tenants[t].name.clone(),
                    ops,
                    get_ops,
                    walk_ops: ops - get_ops,
                    elapsed: t_elapsed,
                    ops_per_sec: if t_secs > 0.0 {
                        ops as f64 / t_secs
                    } else {
                        0.0
                    },
                    latency: stats_of(&mut self.log.tenants[t].sched),
                    service_latency: stats_of(&mut self.log.tenants[t].svc),
                    host_arm_calls: self.log.tenants[t].arms,
                    timeouts: tenant_timeouts[t],
                    shed_posts: self.pacers[t].as_ref().map_or(0, |p| p.shed()),
                }
            })
            .collect();
        FleetStats {
            ops,
            get_ops,
            walk_ops: ops - get_ops,
            elapsed,
            ops_per_sec: if secs > 0.0 { ops as f64 / secs } else { 0.0 },
            latency: stats_of(&mut self.log.all.sched),
            service_latency: stats_of(&mut self.log.all.svc),
            timeouts,
            offered_ops_per_sec: offered,
            host_arm_calls: self.log.all.arms,
            get_arm_calls: self.log.get_arms,
            walk_arm_calls: self.log.all.arms - self.log.get_arms,
            server_doorbells: sim.node_doorbells(self.server_node) - base.0,
            server_posts: sim.node_posts(self.server_node) - base.1,
            client_doorbells: sim.node_doorbells(self.client_node) - base.2,
            pool_high_water: pool.high_water(),
            pool_leases: pool.leases(),
            reap_calls: self.log.reap_calls,
            reap_useful: self.log.reap_useful,
            turns,
            per_tenant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
    use rnic_sim::ids::ProcessId;

    fn rig(nkeys: u64) -> (Simulator, NodeId, MemcachedServer, OffloadCtx) {
        let mut sim = Simulator::new(SimConfig::default());
        let c = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
        let s = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        sim.connect_nodes(c, s, LinkConfig::back_to_back());
        let server = MemcachedServer::create(&mut sim, s, 4096, 64, ProcessId(0)).unwrap();
        server.populate(&mut sim, nkeys).unwrap();
        let ctx = OffloadCtx::builder(s)
            .pool_capacity(1 << 23)
            .build(&mut sim)
            .unwrap();
        (sim, c, server, ctx)
    }

    fn per_client_workloads(clients: usize, nkeys: u64) -> Vec<Workload> {
        Workload::split_sequential(nkeys, clients)
    }

    #[test]
    fn closed_loop_completes_every_op() {
        let (mut sim, c, server, mut ctx) = rig(512);
        let spec = FleetSpec::gets(4, 4, HashGetVariant::Sequential, true);
        let mut fleet = ServingFleet::deploy(
            &mut sim,
            &mut ctx,
            &server,
            None,
            c,
            spec,
            per_client_workloads(4, 512),
        )
        .unwrap();
        let stats = fleet
            .run_closed_loop(&mut sim, ctx.pool_mut(), 50, 4)
            .unwrap();
        assert_eq!(stats.ops, 4 * 50);
        assert_eq!(stats.get_ops, stats.ops);
        assert_eq!(stats.walk_ops, 0);
        assert_eq!(stats.timeouts, 0);
        assert!(stats.ops_per_sec > 0.0);
        let lat = stats.latency.expect("latency recorded");
        assert_eq!(lat.count, 200);
        assert!(lat.avg_us > 1.0, "latency {lat:?}");
        // Closed loop: scheduled time == post time.
        let svc = stats.service_latency.expect("service latency recorded");
        assert_eq!(svc, lat, "closed loop has no queueing split");
    }

    #[test]
    fn open_loop_tracks_offered_load_when_underloaded() {
        let (mut sim, c, server, mut ctx) = rig(512);
        let spec = FleetSpec::gets(2, 4, HashGetVariant::Sequential, true);
        let mut fleet = ServingFleet::deploy(
            &mut sim,
            &mut ctx,
            &server,
            None,
            c,
            spec,
            per_client_workloads(2, 512),
        )
        .unwrap();
        // 20K ops/s/client is far below capacity: achieved ≈ offered.
        let stats = fleet
            .run_open_loop(&mut sim, ctx.pool_mut(), 40, 20_000.0)
            .unwrap();
        assert_eq!(stats.ops, 80);
        assert_eq!(stats.timeouts, 0);
        let offered = stats.offered_ops_per_sec.unwrap();
        assert!(
            (stats.ops_per_sec - offered).abs() / offered < 0.25,
            "achieved {} vs offered {offered}",
            stats.ops_per_sec
        );
        // Underloaded: the scheduled-time and service-time percentiles
        // coincide (no queueing delay to charge).
        let sched = stats.latency.unwrap();
        let svc = stats.service_latency.unwrap();
        assert!(
            (sched.p99_us - svc.p99_us).abs() < 1.0,
            "sched p99 {} vs service p99 {}",
            sched.p99_us,
            svc.p99_us
        );
    }

    #[test]
    fn open_loop_overload_splits_scheduled_from_service_latency() {
        let (mut sim, c, server, mut ctx) = rig(512);
        let spec = FleetSpec::gets(2, 4, HashGetVariant::Sequential, true);
        let mut fleet = ServingFleet::deploy(
            &mut sim,
            &mut ctx,
            &server,
            None,
            c,
            spec,
            per_client_workloads(2, 512),
        )
        .unwrap();
        // Far past capacity: requests queue client-side, so the
        // scheduled-time p99 dwarfs the service-time p99.
        let stats = fleet
            .run_open_loop(&mut sim, ctx.pool_mut(), 60, 2_000_000.0)
            .unwrap();
        assert_eq!(stats.ops, 120);
        let sched = stats.latency.unwrap();
        let svc = stats.service_latency.unwrap();
        assert!(
            sched.p99_us > 2.0 * svc.p99_us,
            "overload must show queueing: sched p99 {} vs service p99 {}",
            sched.p99_us,
            svc.p99_us
        );
    }

    #[test]
    fn burst_posting_rings_one_doorbell_per_tick() {
        // K requests posted in one generator tick must ring one client
        // doorbell, not K (asserted via the sim's doorbell counter).
        let (mut sim, c, server, mut ctx) = rig(512);
        let mut session = Session::connect_get(
            &mut sim,
            &mut ctx,
            &server,
            c,
            HashGetVariant::Sequential,
            SessionOpts {
                pipeline_depth: 8,
                ..SessionOpts::default()
            },
        )
        .unwrap();
        let before = sim.node_doorbells(c);
        let keys: Vec<u64> = (1..=8).collect();
        let pending = session.get_burst(&mut sim, &keys).unwrap();
        assert_eq!(pending.len(), 8);
        assert_eq!(
            sim.node_doorbells(c) - before,
            1,
            "a burst of 8 requests is one doorbell"
        );
        sim.run().unwrap();
        assert_eq!(session.reap(&mut sim, 16).len(), 8, "all 8 respond");
    }

    /// The ISSUE-3 soak: >= 100K ops through one self-recycling fleet,
    /// with pool usage, server doorbells, and server posts all flat after
    /// warm-up — the serving loop runs with zero CPU on the server.
    #[test]
    fn soak_100k_ops_keeps_pool_and_host_counters_flat() {
        let (mut sim, c, server, mut ctx) = rig(1024);
        let spec = FleetSpec::gets(2, 8, HashGetVariant::Sequential, true);
        let mut fleet = ServingFleet::deploy(
            &mut sim,
            &mut ctx,
            &server,
            None,
            c,
            spec,
            per_client_workloads(2, 1024),
        )
        .unwrap();
        // Warm-up run.
        fleet
            .run_closed_loop(&mut sim, ctx.pool_mut(), 100, 8)
            .unwrap();
        let pool_used = ctx.pool().used();
        let pool_high_water = ctx.pool().high_water();
        let pool_leases = ctx.pool().leases();
        let server_node = server.node;
        let doorbells = sim.node_doorbells(server_node);
        let posts = sim.node_posts(server_node);
        // The soak: 50K ops per client = 100K total.
        let stats = fleet
            .run_closed_loop(&mut sim, ctx.pool_mut(), 50_000, 8)
            .unwrap();
        assert_eq!(stats.ops, 100_000);
        assert_eq!(stats.timeouts, 0);
        assert_eq!(stats.host_arm_calls, 0);
        assert_eq!(ctx.pool().used(), pool_used, "pool usage stays flat");
        assert_eq!(
            stats.pool_high_water, pool_high_water,
            "pool high-water mark stays flat across 100K ops"
        );
        assert_eq!(
            stats.pool_leases, pool_leases,
            "no new pool leases across 100K ops (the dedup invariant)"
        );
        assert_eq!(
            sim.node_doorbells(server_node),
            doorbells,
            "server doorbells stay flat across 100K ops"
        );
        assert_eq!(
            sim.node_posts(server_node),
            posts,
            "server posts stay flat across 100K ops"
        );
    }

    #[test]
    fn host_armed_mode_still_serves_and_reports_its_cost() {
        let (mut sim, c, server, mut ctx) = rig(512);
        let spec = FleetSpec::gets(2, 4, HashGetVariant::Parallel, false);
        let mut fleet = ServingFleet::deploy(
            &mut sim,
            &mut ctx,
            &server,
            None,
            c,
            spec,
            per_client_workloads(2, 512),
        )
        .unwrap();
        let stats = fleet
            .run_closed_loop(&mut sim, ctx.pool_mut(), 50, 4)
            .unwrap();
        assert_eq!(stats.ops, 100);
        assert!(stats.host_arm_calls > 0, "host mode re-arms from the CPU");
        assert_eq!(stats.get_arm_calls, stats.host_arm_calls);
        assert!(stats.server_posts > 0, "host mode posts per re-arm");
    }

    #[test]
    fn heterogeneous_fleet_serves_gets_and_walks_side_by_side() {
        let (mut sim, c, server, mut ctx) = rig(512);
        let store = ListStore::create(&mut sim, server.node, 8, 4, 64, ProcessId(0)).unwrap();
        let spec = FleetSpec::new(vec![
            ServiceSpec::gets(2, 4, HashGetVariant::Sequential, true),
            ServiceSpec::walks(2, 4, 4, true),
        ]);
        let mut fleet = ServingFleet::deploy(
            &mut sim,
            &mut ctx,
            &server,
            Some(&store),
            c,
            spec,
            per_client_workloads(2, 512),
        )
        .unwrap();
        let stats = fleet
            .run_closed_loop(&mut sim, ctx.pool_mut(), 40, 4)
            .unwrap();
        assert_eq!(stats.ops, 4 * 40);
        assert_eq!(stats.get_ops, 80, "both get clients complete every op");
        assert_eq!(stats.walk_ops, 80, "both walk clients complete every op");
        assert_eq!(stats.timeouts, 0);
        assert_eq!(stats.host_arm_calls, 0, "both families self-recycle");
        assert_eq!(stats.server_doorbells, 0);
        assert_eq!(stats.server_posts, 0);
    }

    #[test]
    fn fleet_stats_merge_sums_counts_and_weights_latency() {
        let lat = |count, avg, p50, p99, max| LatencyStats {
            count,
            avg_us: avg,
            p50_us: p50,
            p99_us: p99,
            max_us: max,
        };
        let a = FleetStats {
            ops: 100,
            get_ops: 60,
            walk_ops: 40,
            elapsed: Time::from_us(50),
            ops_per_sec: 2.0e6,
            latency: Some(lat(100, 10.0, 9.0, 20.0, 25.0)),
            service_latency: Some(lat(100, 8.0, 7.0, 15.0, 18.0)),
            timeouts: 1,
            offered_ops_per_sec: Some(3.0e6),
            host_arm_calls: 0,
            get_arm_calls: 0,
            walk_arm_calls: 0,
            server_doorbells: 0,
            server_posts: 0,
            client_doorbells: 10,
            pool_high_water: 4096,
            pool_leases: 7,
            reap_calls: 50,
            reap_useful: 40,
            turns: 60,
            per_tenant: vec![],
        };
        let mut b = a.clone();
        b.ops = 300;
        b.elapsed = Time::from_us(80);
        b.ops_per_sec = 4.0e6;
        b.latency = Some(lat(300, 30.0, 29.0, 40.0, 90.0));
        b.offered_ops_per_sec = None;
        b.host_arm_calls = 2;

        let m = a.merge(&b);
        assert_eq!(m.ops, 400);
        assert_eq!(m.get_ops, 120);
        assert_eq!(m.elapsed, Time::from_us(80), "slowest node spans the run");
        assert!((m.ops_per_sec - 6.0e6).abs() < 1.0, "throughputs sum");
        let ml = m.latency.unwrap();
        assert_eq!(ml.count, 400);
        // Count-weighted: (10*100 + 30*300) / 400 = 25.
        assert!((ml.avg_us - 25.0).abs() < 1e-9);
        assert!((ml.p99_us - 35.0).abs() < 1e-9);
        assert_eq!(ml.max_us, 90.0, "max is exact");
        assert_eq!(m.offered_ops_per_sec, Some(3.0e6), "one-sided load kept");
        assert_eq!(m.host_arm_calls, 2);
        assert_eq!(m.turns, 120);
        assert_eq!(m.pool_high_water, 8192);
        // Merging with an empty-latency side keeps the populated side.
        let mut c = a.clone();
        c.latency = None;
        assert_eq!(a.merge(&c).latency.unwrap().count, 100);
    }

    #[test]
    fn packed_tenant_fleet_splits_stats_and_labels_by_owner() {
        use crate::tenancy::{NicGeometry, TenantSpec};
        let (mut sim, c, server, mut ctx) = rig(512);
        let tenants = vec![
            TenantSpec::new("alpha").with_gets(2, 4, HashGetVariant::Sequential, true),
            TenantSpec::new("beta").with_gets(2, 4, HashGetVariant::Sequential, true),
        ];
        let spec = FleetSpec::tenants(NicGeometry::of(&sim, server.node), &tenants).unwrap();
        let mut fleet = ServingFleet::deploy(
            &mut sim,
            &mut ctx,
            &server,
            None,
            c,
            spec,
            per_client_workloads(4, 512),
        )
        .unwrap();
        // Tenant-qualified isolation labels, proven clean pairwise.
        let report = fleet.isolation_report();
        assert!(report.clean());
        assert_eq!(report.programs, 4);
        assert_eq!(report.checked, 6, "C(4,2) pairs");
        assert_eq!(
            report
                .labels
                .iter()
                .filter(|l| l.starts_with("alpha/"))
                .count(),
            2
        );
        assert_eq!(
            report
                .labels
                .iter()
                .filter(|l| l.starts_with("beta/"))
                .count(),
            2
        );
        let stats = fleet
            .run_closed_loop(&mut sim, ctx.pool_mut(), 50, 4)
            .unwrap();
        assert_eq!(stats.ops, 4 * 50);
        assert_eq!(stats.per_tenant.len(), 2);
        for ts in &stats.per_tenant {
            assert_eq!(ts.ops, 100, "tenant '{}' completes every op", ts.tenant);
            assert_eq!(ts.host_arm_calls, 0, "self-recycling per tenant");
            assert_eq!(ts.timeouts, 0);
            assert_eq!(ts.shed_posts, 0, "unpaced tenants shed nothing");
            assert!(ts.ops_per_sec > 0.0);
            assert!(ts.latency.is_some());
        }
        assert_eq!(
            stats.per_tenant.iter().map(|t| t.ops).sum::<u64>(),
            stats.ops,
            "tenant slices partition the aggregate"
        );
    }

    #[test]
    fn rate_caps_that_never_pay_are_refused_or_never_wake_the_run() {
        use crate::tenancy::{NicGeometry, PackError, TenantPacker, TenantSpec};
        let (mut sim, c, server, mut ctx) = rig(512);
        let geometry = NicGeometry::of(&sim, server.node);
        let tenants = |cap: f64| {
            vec![
                TenantSpec::new("capped")
                    .with_gets(1, 4, HashGetVariant::Sequential, true)
                    .rate_cap(cap),
                TenantSpec::new("free").with_gets(1, 4, HashGetVariant::Sequential, true),
            ]
        };
        for cap in [0.0, -5.0, f64::NAN] {
            let err = TenantPacker::new(geometry).pack(&tenants(cap)).unwrap_err();
            assert!(
                matches!(&err, PackError::InvalidRateCap { tenant, .. } if tenant == "capped"),
                "{err}"
            );
            assert!(FleetSpec::tenants(geometry, &tenants(cap)).is_err());
        }
        // Finite and positive, but one credit is centuries away: the
        // tenant spends its burst and the run ends when the rest is done.
        let spec = FleetSpec::tenants(geometry, &tenants(1e-9)).unwrap();
        let mut fleet = ServingFleet::deploy(
            &mut sim,
            &mut ctx,
            &server,
            None,
            c,
            spec,
            per_client_workloads(2, 512),
        )
        .unwrap();
        let stats = fleet
            .run_closed_loop(&mut sim, ctx.pool_mut(), 10, 4)
            .unwrap();
        assert_eq!(stats.per_tenant[0].ops, 4, "the burst, then nothing");
        assert!(stats.per_tenant[0].shed_posts > 0);
        assert_eq!(stats.per_tenant[1].ops, 10);
        assert_eq!(stats.timeouts, 0);
        assert!(stats.elapsed < RUN_DEADLINE, "no wake at the end of time");
    }

    #[test]
    fn rate_capped_tenant_sheds_its_own_load_only() {
        use crate::tenancy::{NicGeometry, TenantSpec};
        let (mut sim, c, server, mut ctx) = rig(512);
        // Tenant "capped" is limited to 50K ops/s; "free" is unpaced.
        let tenants = vec![
            TenantSpec::new("capped")
                .with_gets(1, 4, HashGetVariant::Sequential, true)
                .rate_cap(50_000.0),
            TenantSpec::new("free").with_gets(1, 4, HashGetVariant::Sequential, true),
        ];
        let spec = FleetSpec::tenants(NicGeometry::of(&sim, server.node), &tenants).unwrap();
        let mut fleet = ServingFleet::deploy(
            &mut sim,
            &mut ctx,
            &server,
            None,
            c,
            spec,
            per_client_workloads(2, 512),
        )
        .unwrap();
        let stats = fleet
            .run_closed_loop(&mut sim, ctx.pool_mut(), 100, 4)
            .unwrap();
        assert_eq!(stats.ops, 200, "pacing defers posts, it never drops them");
        let capped = &stats.per_tenant[0];
        let free = &stats.per_tenant[1];
        assert!(
            capped.ops_per_sec < 60_000.0,
            "capped tenant holds ~its cap, got {}",
            capped.ops_per_sec
        );
        assert!(capped.shed_posts > 0, "the cap actually engaged");
        assert_eq!(free.shed_posts, 0, "the neighbor shed nothing");
        assert!(
            free.ops_per_sec > 3.0 * capped.ops_per_sec,
            "the unpaced neighbor runs at full speed: {} vs {}",
            free.ops_per_sec,
            capped.ops_per_sec
        );
    }
}
