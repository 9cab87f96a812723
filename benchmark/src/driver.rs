//! The benchmark's own `Session`-level load generator.
//!
//! It makes the same library calls in the same order as
//! `ServingFleet::run_closed_loop` / `run_open_loop` (reap every client,
//! refill, step), so on identical input its simulated results equal the
//! fleet's — the trace run asserts that — while the benchmark can see
//! what the fleet keeps private: every reaped value (the output check),
//! every `(scheduled, posted, done)` triple, and a span around each call
//! into a layer. `cluster_rw` has its own loop in `workloads::cluster`.

use std::collections::VecDeque;
use std::time::Instant;

use redn_core::ctx::OffloadCtx;
use redn_core::ir::analysis::{AnalysisReport, DeploymentVerifier};
use redn_kv::liststore::ListStore;
use redn_kv::memcached::MemcachedServer;
use redn_kv::serving::{FleetSpec, ServiceKind};
use redn_kv::session::{Completion, Session, SessionOpts};
use redn_kv::tenancy::CreditPacer;
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::NodeId;
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;

use crate::gen::value_of;
use crate::metrics::Ledger;
use crate::trace::{Call, Tracer};

/// Same wedge guard as the fleet's: simulated time past this aborts the
/// pass and counts what is left as time-outs.
const RUN_DEADLINE: Time = Time::from_secs(5);

enum Stream {
    Keys {
        keys: Vec<u64>,
        cursor: usize,
    },
    Walks {
        reqs: Vec<(u64, u64)>,
        cursor: usize,
    },
}

struct Pending {
    instance: u64,
    key: u64,
    scheduled_at: Time,
    posted_at: Time,
    /// Host clock at post, for sampled ops (0 otherwise).
    host_post_ns: u64,
}

impl Pending {
    /// A request scheduled and posted now (the open loop backdates
    /// `scheduled_at` afterwards).
    fn new(instance: u64, key: u64, now: Time, posted_at: Time, tr: &Tracer) -> Pending {
        Pending {
            instance,
            key,
            scheduled_at: now,
            posted_at,
            host_post_ns: tr.sample_ns(instance),
        }
    }
}

struct Client {
    session: Session,
    stream: Stream,
    inflight: VecDeque<Pending>,
    posted: u64,
    reaped: u64,
    depth: u32,
    tenant: Option<usize>,
    comp_buf: Vec<Completion>,
    key_buf: Vec<u64>,
    req_buf: Vec<(u64, u64)>,
}

/// What one pass of the driver saw.
#[derive(Default)]
pub struct PassOut {
    pub ops: u64,
    pub elapsed: Time,
    /// done − scheduled, per op.
    pub sched: Vec<Time>,
    /// posted − scheduled, per op: how late the generator ran.
    pub lag: Vec<Time>,
    pub timeouts: u64,
    /// Reaped values that differ from what was stored (checked passes).
    pub wrong: u64,
    pub reap_calls: u64,
    /// Reap calls that returned at least one completion.
    pub reap_useful: u64,
}

pub struct Driver {
    clients: Vec<Client>,
    rate_caps: Vec<Option<f64>>,
    pacers: Vec<Option<CreditPacer>>,
    value_len: u64,
    /// Wall µs of each `Session::connect_*` made at deploy, by family.
    pub connect_get_us: Vec<f64>,
    pub connect_walk_us: Vec<f64>,
}

impl Driver {
    /// Connect one session per client of `spec`, placed exactly where
    /// `ServingFleet::deploy` would place it, with one key list per
    /// hash-get client. Walk clients cycle `ListStore::walk_requests`
    /// as the fleet's do (the fleet takes no walk list from outside).
    pub fn deploy(
        sim: &mut Simulator,
        ctx: &mut OffloadCtx,
        server: &MemcachedServer,
        lists: Option<&ListStore>,
        client_node: NodeId,
        spec: &FleetSpec,
        key_lists: Vec<Vec<u64>>,
    ) -> Result<Driver> {
        let ports = sim.nic_config(server.node).ports;
        let npus = sim.nic_config(server.node).pus_per_port;
        let nwalkers = spec.walk_clients();
        let mut key_lists = key_lists.into_iter();
        let mut pu_next = vec![0usize; ports];
        let (mut i, mut walk_idx) = (0usize, 0usize);
        let mut driver = Driver {
            clients: Vec::with_capacity(spec.total_clients()),
            rate_caps: spec
                .tenants
                .iter()
                .map(|t| t.rate_cap_ops_per_sec)
                .collect(),
            pacers: vec![None; spec.tenants.len()],
            value_len: u64::from(server.table.borrow().heap.slot_len),
            connect_get_us: Vec::new(),
            connect_walk_us: Vec::new(),
        };
        for svc in &spec.services {
            for _ in 0..svc.clients {
                let (port, pu_base) = match &spec.placements {
                    Some(pl) => (pl[i].port, pl[i].pu_base % npus),
                    None => {
                        let port = i % ports;
                        let base = pu_next[port] % npus;
                        pu_next[port] += if svc.self_recycling { 2 } else { 3 };
                        (port, base)
                    }
                };
                let opts = SessionOpts {
                    pipeline_depth: svc.pipeline_depth,
                    self_recycling: svc.self_recycling,
                    port,
                    pu_base,
                };
                let t0 = Instant::now();
                let (session, stream) = match svc.kind {
                    ServiceKind::HashGet { variant } => {
                        let keys = key_lists
                            .next()
                            .ok_or(Error::InvalidWr("one key list per hash-get client"))?;
                        let s = Session::connect_get(sim, ctx, server, client_node, variant, opts)?;
                        driver.connect_get_us.push(t0.elapsed().as_secs_f64() * 1e6);
                        (s, Stream::Keys { keys, cursor: 0 })
                    }
                    ServiceKind::ListWalk { max_nodes } => {
                        let store =
                            lists.ok_or(Error::InvalidWr("walk clients need a ListStore"))?;
                        let reqs = store.walk_requests(walk_idx, nwalkers);
                        walk_idx += 1;
                        let s =
                            Session::connect_walk(sim, ctx, store, client_node, max_nodes, opts)?;
                        driver
                            .connect_walk_us
                            .push(t0.elapsed().as_secs_f64() * 1e6);
                        (s, Stream::Walks { reqs, cursor: 0 })
                    }
                };
                driver.clients.push(Client {
                    session,
                    stream,
                    inflight: VecDeque::new(),
                    posted: 0,
                    reaped: 0,
                    depth: svc.pipeline_depth,
                    tenant: svc.tenant,
                    comp_buf: Vec::new(),
                    key_buf: Vec::new(),
                    req_buf: Vec::new(),
                });
                i += 1;
            }
        }
        Ok(driver)
    }

    /// What lowering produced: WQEs per request before and after the
    /// optimizer and the ring depth of the first recycled program, and
    /// the const-pool bytes the whole deployment placed.
    pub fn ir_rows(&self, pipeline_depth: u32, out: &mut Ledger) {
        let reports = || self.clients.iter().filter_map(|c| c.session.ir_report());
        if let Some(rep) = reports().next() {
            let depth = f64::from(pipeline_depth);
            out.set("ir.verbs_per_op_before", rep.before.total() as f64 / depth);
            out.set("ir.verbs_per_op_after", rep.after.total() as f64 / depth);
            out.set("ir.ring_slots", f64::from(rep.ring_slots));
        }
        let placed: u64 = reports().map(|r| r.pool_bytes_placed).sum();
        out.set("ir.pool_bytes_placed", placed as f64);
    }

    /// Re-run the pairwise isolation proof `ServingFleet::deploy` runs,
    /// over this deployment's footprints.
    pub fn verify(&self) -> AnalysisReport {
        let mut verifier = DeploymentVerifier::new("benchmark");
        for (ci, c) in self.clients.iter().enumerate() {
            if let Some(fp) = c.session.service().footprint() {
                verifier.add(fp.clone().named(format!("client {ci}: {}", fp.name)));
            }
        }
        verifier.verify()
    }

    fn begin_run(&mut self, sim: &Simulator) {
        for (t, cap) in self.rate_caps.iter().enumerate() {
            self.pacers[t] = cap.map(|cap| {
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
        }
    }

    /// How many of `want` posts the client's tenant pacer allows now.
    fn grant(&mut self, ci: usize, now: Time, want: u64, credit_wake: &mut Option<Time>) -> u64 {
        let Some(pacer) = self.clients[ci]
            .tenant
            .and_then(|t| self.pacers[t].as_mut())
        else {
            return want;
        };
        let granted = pacer.grant(now, want);
        if granted < want {
            let at = pacer.next_credit_at(now);
            *credit_wake = Some(credit_wake.map_or(at, |w| w.min(at)));
        }
        granted
    }

    /// Reap client `ci`: match each completion to its oldest pending
    /// request with that tag, record it, and (checked passes) compare
    /// the value in the response slot with what was stored.
    fn reap(
        &mut self,
        ci: usize,
        sim: &mut Simulator,
        check: bool,
        tr: &mut Tracer,
        out: &mut PassOut,
    ) {
        let value_len = self.value_len;
        let c = &mut self.clients[ci];
        let mut reaped = std::mem::take(&mut c.comp_buf);
        reaped.clear();
        tr.enter(Call::ReapInto);
        c.session.reap_into(sim, 1024, &mut reaped);
        tr.enter(Call::Driver);
        out.reap_calls += 1;
        out.reap_useful += u64::from(!reaped.is_empty());
        for done in reaped.drain(..) {
            let tag = done.tag();
            let Some(pos) = c
                .inflight
                .iter()
                .position(|p| c.session.response_tag(p.instance) == tag)
            else {
                continue;
            };
            let p = c.inflight.remove(pos).expect("position just found");
            out.sched.push(done.at() - p.scheduled_at);
            out.lag.push(p.posted_at - p.scheduled_at);
            if check {
                let got = c.session.read_value(sim, p.instance, value_len);
                if got.ok() != Some(value_of(p.key, 0, value_len as usize)) {
                    out.wrong += 1;
                }
            }
            if p.host_post_ns != 0 {
                let name = if c.session.is_get() { "get" } else { "walk" };
                tr.op(
                    name,
                    "redn_kv::session",
                    p.host_post_ns,
                    p.instance,
                    1 + ci as u32,
                );
            }
            c.reaped += 1;
            c.session.complete();
        }
        c.comp_buf = reaped;
    }

    /// Post the next `n` requests of client `ci`'s stream as one burst.
    fn post(&mut self, ci: usize, sim: &mut Simulator, n: u64, tr: &mut Tracer) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        let c = &mut self.clients[ci];
        let now = sim.now();
        match &mut c.stream {
            Stream::Keys { keys, cursor } => {
                c.key_buf.clear();
                for _ in 0..n {
                    c.key_buf.push(keys[*cursor % keys.len()]);
                    *cursor += 1;
                }
                tr.enter(Call::GetBurst);
                let posted = c.session.get_burst(sim, &c.key_buf)?;
                tr.enter(Call::Driver);
                let pending = posted
                    .iter()
                    .map(|p| Pending::new(p.instance, p.key, now, p.posted_at, tr));
                c.inflight.extend(pending);
            }
            Stream::Walks { reqs, cursor } => {
                c.req_buf.clear();
                for _ in 0..n {
                    c.req_buf.push(reqs[*cursor % reqs.len()]);
                    *cursor += 1;
                }
                tr.enter(Call::WalkBurst);
                let posted = c.session.walk_burst(sim, &c.req_buf)?;
                tr.enter(Call::Driver);
                let pending = posted
                    .iter()
                    .map(|p| Pending::new(p.instance, p.key, now, p.posted_at, tr));
                c.inflight.extend(pending);
            }
        }
        c.posted += n;
        Ok(())
    }

    fn finish(&mut self, sim: &Simulator, start: Time, mut out: PassOut) -> PassOut {
        for c in &mut self.clients {
            out.timeouts += c.inflight.len() as u64;
            for _ in c.inflight.drain(..) {
                c.session.abandon();
            }
        }
        out.ops = self.clients.iter().map(|c| c.reaped).sum();
        out.elapsed = sim.now() - start;
        out
    }

    /// Closed loop: every client keeps `k` requests outstanding until it
    /// has reaped `ops_per_client`.
    pub fn closed(
        &mut self,
        sim: &mut Simulator,
        ops_per_client: u64,
        k: u32,
        check: bool,
        tr: &mut Tracer,
    ) -> Result<PassOut> {
        let start = sim.now();
        let deadline = start + RUN_DEADLINE;
        self.begin_run(sim);
        let mut out = PassOut::default();
        tr.begin_pass();
        loop {
            let mut all_done = true;
            let mut credit_wake: Option<Time> = None;
            for ci in 0..self.clients.len() {
                self.reap(ci, sim, check, tr, &mut out);
                let c = &self.clients[ci];
                let window = u64::from(k.clamp(1, c.depth));
                let room = window.saturating_sub(c.inflight.len() as u64);
                let want = room.min(ops_per_client - c.posted);
                let refill = self.grant(ci, sim.now(), want, &mut credit_wake);
                self.post(ci, sim, refill, tr)?;
                if self.clients[ci].reaped < ops_per_client {
                    all_done = false;
                }
            }
            if all_done || sim.now() > deadline {
                break;
            }
            tr.enter(Call::Step);
            let more = sim.step()?;
            tr.enter(Call::Driver);
            if !more {
                // Drained: only paced posts remain. Jump to the credit.
                match credit_wake {
                    Some(t) if t > sim.now() && t <= deadline => {
                        tr.enter(Call::RunUntil);
                        sim.run_until(t)?;
                        tr.enter(Call::Driver);
                    }
                    _ => break,
                }
            }
        }
        Ok(self.finish(sim, start, out))
    }

    /// Open loop: client `i`'s `j`-th request is due at
    /// `start + j·interval + i·interval/clients` and is posted as soon
    /// as a pipeline slot is free; latency runs from the due time.
    pub fn open(
        &mut self,
        sim: &mut Simulator,
        ops_per_client: u64,
        offered_per_client: f64,
        check: bool,
        tr: &mut Tracer,
    ) -> Result<PassOut> {
        let interval_ps = (1e12 / offered_per_client).round() as u64;
        let nclients = self.clients.len() as u64;
        let start = sim.now();
        let deadline = start + RUN_DEADLINE;
        self.begin_run(sim);
        let sched =
            |i: u64, j: u64| start + Time::from_ps(j * interval_ps + i * (interval_ps / nclients));
        let mut out = PassOut::default();
        tr.begin_pass();
        loop {
            let mut all_done = true;
            let mut next_due: Option<Time> = None;
            for i in 0..self.clients.len() {
                self.reap(i, sim, check, tr, &mut out);
                let c = &self.clients[i];
                let depth = u64::from(c.depth);
                let mut due = 0u64;
                while c.posted + due < ops_per_client
                    && sched(i as u64, c.posted + due) <= sim.now()
                    && (c.inflight.len() as u64) + due < depth
                {
                    due += 1;
                }
                let mut credit_wake: Option<Time> = None;
                let granted = self.grant(i, sim.now(), due, &mut credit_wake);
                if granted > 0 {
                    let first = self.clients[i].posted;
                    self.post(i, sim, granted, tr)?;
                    let c = &mut self.clients[i];
                    let len = c.inflight.len();
                    for (j, p) in c
                        .inflight
                        .iter_mut()
                        .skip(len - granted as usize)
                        .enumerate()
                    {
                        p.scheduled_at = sched(i as u64, first + j as u64);
                    }
                }
                let c = &self.clients[i];
                if c.reaped < ops_per_client {
                    all_done = false;
                }
                if let Some(t) = credit_wake {
                    let t = t.max(sim.now());
                    next_due = Some(next_due.map_or(t, |d: Time| d.min(t)));
                } else if c.posted < ops_per_client && (c.inflight.len() as u64) < depth {
                    let due = sched(i as u64, c.posted);
                    next_due = Some(next_due.map_or(due, |t: Time| t.min(due)));
                }
            }
            if all_done || sim.now() > deadline {
                break;
            }
            match next_due {
                // Nothing to do until the next due post: jump there.
                Some(t) if t > sim.now() => {
                    tr.enter(Call::RunUntil);
                    sim.run_until(t)?;
                    tr.enter(Call::Driver);
                }
                _ => {
                    tr.enter(Call::Step);
                    let more = sim.step()?;
                    tr.enter(Call::Driver);
                    if !more {
                        break;
                    }
                }
            }
        }
        Ok(self.finish(sim, start, out))
    }
}
