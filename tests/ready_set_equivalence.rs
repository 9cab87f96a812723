//! The fleet's ready-set generators against exhaustive visiting.
//!
//! `ServingFleet::run_closed_loop` / `run_open_loop` visit, each turn,
//! only the clients for which a visit can do something (DESIGN.md
//! "`redn_kv::serving`"). The claim is that every visit they skip would
//! have been a no-op. [`Exhaustive`] is the loop they replaced — every
//! client reaped, asked and refilled after every event, written over the
//! public [`Session`] API only — and on identical testbeds the two must
//! produce the same [`FleetStats`] field for field and the same full
//! simulator trace.

use std::collections::VecDeque;

use redn::core::ctx::OffloadCtx;
use redn::core::offloads::hash_lookup::HashGetVariant;
use redn::core::program::ConstPool;
use redn::kv::liststore::ListStore;
use redn::kv::memcached::MemcachedServer;
use redn::kv::serving::{
    FleetSpec, FleetStats, ServiceKind, ServiceSpec, ServingFleet, TenantStats,
};
use redn::kv::session::{Session, SessionOpts};
use redn::kv::tenancy::{pu_stride, CreditPacer, NicGeometry, TenantSpec};
use redn::kv::workload::{latency_stats, LatencyStats, Workload};
use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::error::Result;
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;

const NKEYS: u64 = 2048;
const RUN_DEADLINE: Time = Time::from_secs(5);

struct Rig {
    sim: Simulator,
    client: NodeId,
    server: MemcachedServer,
    lists: ListStore,
    ctx: OffloadCtx,
}

/// A traced dual-port testbed with a populated table and list store.
fn rig() -> Rig {
    let mut sim = Simulator::new(SimConfig {
        trace: true,
        ..SimConfig::default()
    });
    let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let s = sim.add_node(
        "server",
        HostConfig::default(),
        NicConfig::connectx5().dual_port(),
    );
    sim.connect_nodes(client, s, LinkConfig::back_to_back());
    let server = MemcachedServer::create(&mut sim, s, 8192, 64, ProcessId(0)).unwrap();
    server.populate(&mut sim, NKEYS).unwrap();
    let lists = ListStore::create(&mut sim, s, 16, 4, 64, ProcessId(0)).unwrap();
    let ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 24)
        .build(&mut sim)
        .unwrap();
    Rig {
        sim,
        client,
        server,
        lists,
        ctx,
    }
}

/// One seeded key list per hash-get client: a permutation of the key
/// space, dealt round-robin.
fn workloads(seed: u64, clients: usize) -> Vec<Workload> {
    let mut keys: Vec<u64> = (1..=NKEYS).collect();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in (1..keys.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        keys.swap(i, (state % (i as u64 + 1)) as usize);
    }
    (0..clients)
        .map(|c| Workload::from_keys(keys.iter().copied().skip(c).step_by(clients).collect()))
        .collect()
}

#[derive(Clone, Copy)]
enum Arrival {
    Closed { k: u32 },
    Open { offered_per_client: f64 },
}

enum Stream {
    Keys(Workload),
    Walks {
        reqs: Vec<(u64, u64)>,
        cursor: usize,
    },
}

struct Pending {
    instance: u64,
    scheduled_at: Time,
    posted_at: Time,
}

struct Client {
    session: Session,
    stream: Stream,
    inflight: VecDeque<Pending>,
    posted: u64,
    reaped: u64,
    depth: u32,
    self_recycling: bool,
    tenant: Option<usize>,
}

/// One run's accounting for one owner (the whole fleet, or a tenant).
#[derive(Clone, Default)]
struct Log {
    /// `(scheduled, posted)` latency of every completion, in reap order.
    lats: Vec<(Time, Time)>,
    arms: u64,
    last_done: Option<Time>,
}

impl Log {
    fn stats(&self, pick: fn(&(Time, Time)) -> Time) -> Option<LatencyStats> {
        let samples: Vec<Time> = self.lats.iter().map(pick).collect();
        (!samples.is_empty()).then(|| latency_stats(&samples))
    }
}

/// The exhaustive-visit generator (see the module docs).
struct Exhaustive {
    spec: FleetSpec,
    clients: Vec<Client>,
    server_node: NodeId,
    client_node: NodeId,
    all: Log,
    get_arms: u64,
    tenants: Vec<Log>,
    reap_calls: u64,
}

impl Exhaustive {
    /// Connect one session per client exactly where and in the order
    /// `ServingFleet::deploy` does.
    fn deploy(r: &mut Rig, spec: FleetSpec, workloads: Vec<Workload>) -> Result<Exhaustive> {
        let (sim, ctx) = (&mut r.sim, &mut r.ctx);
        let ports = sim.nic_config(r.server.node).ports;
        let npus = sim.nic_config(r.server.node).pus_per_port;
        let nwalkers = spec.walk_clients();
        let mut workloads = workloads.into_iter();
        let mut pu_next = vec![0usize; ports];
        let (mut i, mut walk_idx) = (0usize, 0usize);
        let mut clients = Vec::new();
        for svc in &spec.services {
            for _ in 0..svc.clients {
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
                let (session, stream) = match svc.kind {
                    ServiceKind::HashGet { variant } => (
                        Session::connect_get(sim, ctx, &r.server, r.client, variant, opts)?,
                        Stream::Keys(workloads.next().expect("one workload per get client")),
                    ),
                    ServiceKind::ListWalk { max_nodes } => {
                        let reqs = r.lists.walk_requests(walk_idx, nwalkers);
                        walk_idx += 1;
                        (
                            Session::connect_walk(sim, ctx, &r.lists, r.client, max_nodes, opts)?,
                            Stream::Walks { reqs, cursor: 0 },
                        )
                    }
                };
                clients.push(Client {
                    session,
                    stream,
                    inflight: VecDeque::new(),
                    posted: 0,
                    reaped: 0,
                    depth: svc.pipeline_depth,
                    self_recycling: svc.self_recycling,
                    tenant: svc.tenant,
                });
                i += 1;
            }
        }
        Ok(Exhaustive {
            tenants: vec![Log::default(); spec.tenants.len()],
            spec,
            clients,
            server_node: r.server.node,
            client_node: r.client,
            all: Log::default(),
            get_arms: 0,
            reap_calls: 0,
        })
    }

    fn reap(&mut self, ci: usize, sim: &mut Simulator, pool: &mut ConstPool, ops: u64) {
        let c = &mut self.clients[ci];
        self.reap_calls += 1;
        for done in c.session.reap(sim, 1024) {
            let tag = done.tag();
            let mut logs = [Some(&mut self.all), c.tenant.map(|t| &mut self.tenants[t])];
            if let Some(pos) = c
                .inflight
                .iter()
                .position(|p| c.session.response_tag(p.instance) == tag)
            {
                let p = c.inflight.remove(pos).unwrap();
                for log in logs.iter_mut().flatten() {
                    log.lats
                        .push((done.at() - p.scheduled_at, done.at() - p.posted_at));
                    log.last_done = log.last_done.max(Some(done.at()));
                }
                c.reaped += 1;
                c.session.complete();
            }
            if c.posted < ops && !c.self_recycling {
                c.session.service_mut().arm(sim, pool).unwrap();
                for log in logs.iter_mut().flatten() {
                    log.arms += 1;
                }
                self.get_arms += u64::from(c.session.is_get());
            }
        }
    }

    fn post(&mut self, ci: usize, sim: &mut Simulator, n: u64) {
        if n == 0 {
            return;
        }
        let c = &mut self.clients[ci];
        let now = sim.now();
        let posted: Vec<(u64, Time)> = match &mut c.stream {
            Stream::Keys(w) => {
                let keys: Vec<u64> = (0..n).map(|_| w.next_key()).collect();
                let burst = c.session.get_burst(sim, &keys).unwrap();
                burst.iter().map(|p| (p.instance, p.posted_at)).collect()
            }
            Stream::Walks { reqs, cursor } => {
                let pairs: Vec<(u64, u64)> = (0..n as usize)
                    .map(|i| reqs[(*cursor + i) % reqs.len()])
                    .collect();
                *cursor = (*cursor + n as usize) % reqs.len();
                let burst = c.session.walk_burst(sim, &pairs).unwrap();
                burst.iter().map(|p| (p.instance, p.posted_at)).collect()
            }
        };
        for (instance, posted_at) in posted {
            c.inflight.push_back(Pending {
                instance,
                scheduled_at: now,
                posted_at,
            });
        }
        c.posted += n;
    }

    fn run(
        &mut self,
        sim: &mut Simulator,
        pool: &mut ConstPool,
        ops: u64,
        arrival: Arrival,
    ) -> FleetStats {
        let start = sim.now();
        let deadline = start + RUN_DEADLINE;
        let n = self.clients.len();
        let interval_ps = match arrival {
            Arrival::Open { offered_per_client } => (1e12 / offered_per_client).round() as u64,
            Arrival::Closed { .. } => 0,
        };
        let sched_at = |i: usize, j: u64| {
            start + Time::from_ps(j * interval_ps + i as u64 * (interval_ps / n as u64))
        };
        // begin_run: fresh accounting, fresh pacers, host-armed pipelines
        // topped back up.
        self.all = Log::default();
        self.tenants.fill(Log::default());
        (self.get_arms, self.reap_calls) = (0, 0);
        let mut pacers: Vec<Option<CreditPacer>> = (0..self.spec.tenants.len())
            .map(|t| {
                self.spec.tenants[t].rate_cap_ops_per_sec.map(|cap| {
                    let of_t = self.clients.iter().filter(|c| c.tenant == Some(t));
                    let burst: u64 = of_t.map(|c| u64::from(c.depth)).sum();
                    CreditPacer::new(cap, burst.max(1) as f64, sim.now())
                })
            })
            .collect();
        for c in &mut self.clients {
            (c.posted, c.reaped) = (0, 0);
            c.session.service_mut().prime(sim, pool).unwrap();
        }
        let doorbells = |sim: &Simulator, node| sim.node_doorbells(node);
        let base = (
            doorbells(sim, self.server_node),
            sim.node_posts(self.server_node),
            doorbells(sim, self.client_node),
        );
        loop {
            let mut all_done = true;
            let mut next_wake: Option<Time> = None;
            for ci in 0..n {
                self.reap(ci, sim, pool, ops);
                let c = &self.clients[ci];
                let inflight = c.inflight.len() as u64;
                let want = match arrival {
                    Arrival::Closed { k } => u64::from(k.clamp(1, c.depth))
                        .saturating_sub(inflight)
                        .min(ops - c.posted),
                    Arrival::Open { .. } => {
                        let mut due = 0u64;
                        while c.posted + due < ops
                            && sched_at(ci, c.posted + due) <= sim.now()
                            && inflight + due < u64::from(c.depth)
                        {
                            due += 1;
                        }
                        due
                    }
                };
                let (granted, credit_wake) = match c.tenant.and_then(|t| pacers[t].as_mut()) {
                    Some(p) => {
                        let granted = p.grant(sim.now(), want);
                        (
                            granted,
                            (granted < want).then(|| p.next_credit_at(sim.now())),
                        )
                    }
                    None => (want, None),
                };
                let first = c.posted;
                self.post(ci, sim, granted);
                let c = &mut self.clients[ci];
                if let Arrival::Open { .. } = arrival {
                    let len = c.inflight.len();
                    for (j, p) in c
                        .inflight
                        .iter_mut()
                        .skip(len - granted as usize)
                        .enumerate()
                    {
                        p.scheduled_at = sched_at(ci, first + j as u64);
                    }
                }
                all_done &= c.reaped >= ops;
                let room = c.posted < ops && (c.inflight.len() as u64) < u64::from(c.depth);
                let wake = match (credit_wake, arrival) {
                    (Some(t), _) => Some(t.max(sim.now())),
                    (None, Arrival::Open { .. }) if room => Some(sched_at(ci, c.posted)),
                    _ => None,
                };
                if let Some(t) = wake {
                    next_wake = Some(next_wake.map_or(t, |w| w.min(t)));
                }
            }
            if all_done || sim.now() > deadline {
                break;
            }
            let jump = next_wake.filter(|&t| t > sim.now());
            match arrival {
                Arrival::Closed { .. } => {
                    if !sim.step().unwrap() {
                        match jump.filter(|&t| t <= deadline) {
                            Some(t) => sim.run_until(t).unwrap(),
                            None => break,
                        }
                    }
                }
                Arrival::Open { .. } => match jump {
                    Some(t) => sim.run_until(t).unwrap(),
                    None => {
                        if !sim.step().unwrap() {
                            break;
                        }
                    }
                },
            }
        }
        // finish: abandon what is left, then the stats the fleet reports.
        let mut timeouts = vec![0u64; n];
        for (ci, c) in self.clients.iter_mut().enumerate() {
            timeouts[ci] = c.inflight.len() as u64;
            for _ in c.inflight.drain(..) {
                c.session.abandon();
            }
        }
        let elapsed = sim.now() - start;
        let rate = |ops: u64, secs: f64| if secs > 0.0 { ops as f64 / secs } else { 0.0 };
        let sum = |pick: &dyn Fn(&Client) -> bool, what: &dyn Fn(usize, &Client) -> u64| -> u64 {
            let clients = self.clients.iter().enumerate();
            clients
                .filter(|(_, c)| pick(c))
                .map(|(ci, c)| what(ci, c))
                .sum()
        };
        let per_tenant = (0..self.spec.tenants.len())
            .map(|t| {
                let mine = |c: &Client| c.tenant == Some(t);
                let log = &self.tenants[t];
                let ops = sum(&mine, &|_, c| c.reaped);
                let get_ops = sum(&|c| mine(c) && c.session.is_get(), &|_, c| c.reaped);
                let t_elapsed = log.last_done.map_or(elapsed, |at| at - start);
                TenantStats {
                    tenant: self.spec.tenants[t].name.clone(),
                    ops,
                    get_ops,
                    walk_ops: ops - get_ops,
                    elapsed: t_elapsed,
                    ops_per_sec: rate(ops, t_elapsed.as_secs_f64()),
                    latency: log.stats(|l| l.0),
                    service_latency: log.stats(|l| l.1),
                    host_arm_calls: log.arms,
                    timeouts: sum(&mine, &|ci, _| timeouts[ci]),
                    shed_posts: pacers[t].as_ref().map_or(0, |p| p.shed()),
                }
            })
            .collect();
        let ops = sum(&|_| true, &|_, c| c.reaped);
        let get_ops = sum(&|c| c.session.is_get(), &|_, c| c.reaped);
        FleetStats {
            ops,
            get_ops,
            walk_ops: ops - get_ops,
            elapsed,
            ops_per_sec: rate(ops, elapsed.as_us_f64() / 1e6),
            latency: self.all.stats(|l| l.0),
            service_latency: self.all.stats(|l| l.1),
            timeouts: timeouts.iter().sum(),
            offered_ops_per_sec: match arrival {
                Arrival::Open { offered_per_client } => Some(offered_per_client * n as f64),
                Arrival::Closed { .. } => None,
            },
            host_arm_calls: self.all.arms,
            get_arm_calls: self.get_arms,
            walk_arm_calls: self.all.arms - self.get_arms,
            server_doorbells: doorbells(sim, self.server_node) - base.0,
            server_posts: sim.node_posts(self.server_node) - base.1,
            client_doorbells: doorbells(sim, self.client_node) - base.2,
            pool_high_water: pool.high_water(),
            pool_leases: pool.leases(),
            reap_calls: self.reap_calls,
            reap_useful: 0,
            per_tenant,
        }
    }
}

/// One compared configuration.
struct Shape {
    name: &'static str,
    spec: fn(&Rig) -> FleetSpec,
    arrival: Arrival,
    ops_per_client: u64,
}

fn closed_gets(clients: usize) -> FleetSpec {
    FleetSpec::gets(clients, 16, HashGetVariant::Sequential, true)
}

/// Four tenants × two clients on shared PUs: gets beside walks, tenant 0
/// capped well below what its windows ask for.
fn tenant_mix(r: &Rig) -> FleetSpec {
    let gets =
        |name: &str| TenantSpec::new(name).with_gets(2, 16, HashGetVariant::Sequential, true);
    let walks = |name: &str| TenantSpec::new(name).with_walks(2, 16, 4, true);
    let tenants = [
        gets("capped").rate_cap(150_000.0),
        walks("walk-a"),
        gets("free"),
        walks("walk-b"),
    ];
    FleetSpec::tenants(NicGeometry::of(&r.sim, r.server.node), &tenants).unwrap()
}

/// Every tenant capped below what its windows ask for: between credits
/// the simulator drains, so the run only moves on by jumping to the next
/// credit — the one place a closed loop works that time out.
fn all_capped(r: &Rig) -> FleetSpec {
    let tenants = [
        TenantSpec::new("slow")
            .with_gets(2, 16, HashGetVariant::Sequential, true)
            .rate_cap(60_000.0),
        TenantSpec::new("slower")
            .with_walks(2, 16, 4, true)
            .rate_cap(35_000.0),
    ];
    FleetSpec::tenants(NicGeometry::of(&r.sim, r.server.node), &tenants).unwrap()
}

/// Two capped tenants with unequal caps, depths and client counts beside
/// an uncapped one, run with K below every depth: several throttled
/// clients per pacer, whose windows ask for different amounts.
fn two_capped(r: &Rig) -> FleetSpec {
    let tenants = [
        TenantSpec::new("capped-a")
            .with_gets(3, 16, HashGetVariant::Sequential, true)
            .rate_cap(120_000.0),
        TenantSpec::new("free").with_walks(2, 16, 4, true),
        TenantSpec::new("capped-b")
            .with_gets(2, 8, HashGetVariant::Sequential, true)
            .rate_cap(70_000.0),
    ];
    FleetSpec::tenants(NicGeometry::of(&r.sim, r.server.node), &tenants).unwrap()
}

const SHAPES: &[Shape] = &[
    Shape {
        name: "closed K=16, 8 clients",
        spec: |_| closed_gets(8),
        arrival: Arrival::Closed { k: 16 },
        ops_per_client: 120,
    },
    Shape {
        name: "closed K=16, 64 clients",
        spec: |_| closed_gets(64),
        arrival: Arrival::Closed { k: 16 },
        ops_per_client: 24,
    },
    // 8 × 100 K = 800 K ops/s offered: half the 1.6 M ops/s knee.
    Shape {
        name: "open loop at half the knee",
        spec: |_| closed_gets(8),
        arrival: Arrival::Open {
            offered_per_client: 100_000.0,
        },
        ops_per_client: 150,
    },
    Shape {
        name: "four tenants, one capped, closed K=16",
        spec: tenant_mix,
        arrival: Arrival::Closed { k: 16 },
        ops_per_client: 80,
    },
    // The capped tenant is offered twice its cap, so open-loop posts
    // wait on credits as well as on the timetable.
    Shape {
        name: "four tenants, one capped, open loop",
        spec: tenant_mix,
        arrival: Arrival::Open {
            offered_per_client: 150_000.0,
        },
        ops_per_client: 60,
    },
    Shape {
        name: "every tenant capped, closed K=16",
        spec: all_capped,
        arrival: Arrival::Closed { k: 16 },
        ops_per_client: 60,
    },
    Shape {
        name: "every tenant capped, open loop",
        spec: all_capped,
        arrival: Arrival::Open {
            offered_per_client: 90_000.0,
        },
        ops_per_client: 60,
    },
    Shape {
        name: "two capped tenants, unequal caps and depths, closed K=6",
        spec: two_capped,
        arrival: Arrival::Closed { k: 6 },
        ops_per_client: 70,
    },
    Shape {
        name: "host-armed",
        spec: |_| {
            FleetSpec::new(vec![
                ServiceSpec::gets(3, 4, HashGetVariant::Parallel, false),
                ServiceSpec::walks(2, 4, 4, false),
            ])
        },
        arrival: Arrival::Closed { k: 4 },
        ops_per_client: 40,
    },
];

/// Everything but the poll counters, which are the point of the change.
fn comparable(stats: &FleetStats) -> String {
    let mut s = stats.clone();
    (s.reap_calls, s.reap_useful) = (0, 0);
    format!("{s:#?}")
}

#[test]
fn ready_set_generators_equal_exhaustive_visiting() {
    for shape in SHAPES {
        for seed in 1..=3u64 {
            let ctx = format!("{}, seed {seed}", shape.name);
            let mut a = rig();
            let spec = (shape.spec)(&a);
            let gets = spec.get_clients();
            let mut fleet = ServingFleet::deploy(
                &mut a.sim,
                &mut a.ctx,
                &a.server,
                Some(&a.lists),
                a.client,
                spec,
                workloads(seed, gets),
            )
            .unwrap();
            let mut b = rig();
            let spec = (shape.spec)(&b);
            let mut reference = Exhaustive::deploy(&mut b, spec, workloads(seed, gets)).unwrap();

            // Two runs back to back: the second starts from whatever the
            // first left in the CQs, the windows and the ready list.
            for run in 0..2 {
                let ops = shape.ops_per_client;
                let pool = a.ctx.pool_mut();
                let got = match shape.arrival {
                    Arrival::Closed { k } => fleet.run_closed_loop(&mut a.sim, pool, ops, k),
                    Arrival::Open { offered_per_client } => {
                        fleet.run_open_loop(&mut a.sim, pool, ops, offered_per_client)
                    }
                }
                .unwrap();
                let want = reference.run(&mut b.sim, b.ctx.pool_mut(), ops, shape.arrival);

                assert_eq!(got.ops, ops * fleet.spec().total_clients() as u64, "{ctx}");
                assert_eq!(comparable(&got), comparable(&want), "{ctx}, run {run}");
                let (ta, tb) = (a.sim.trace().events(), b.sim.trace().events());
                let diverge = ta.iter().zip(tb).position(|(x, y)| x != y);
                assert_eq!(diverge, None, "{ctx}, run {run}: traces diverge");
                assert_eq!(ta.len(), tb.len(), "{ctx}, run {run}: trace lengths");
                assert_eq!(a.sim.events_processed(), b.sim.events_processed(), "{ctx}");

                // What the ready set buys: polls proportional to
                // completions, nearly all of them useful.
                assert!(got.reap_calls <= want.reap_calls, "{ctx}");
                assert!(
                    2 * got.reap_useful >= got.reap_calls,
                    "{ctx}: {} of {} polls useful",
                    got.reap_useful,
                    got.reap_calls
                );
            }
        }
    }
}
