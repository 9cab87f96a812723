//! `cluster_rw`: four shard nodes, 80 % gets / 20 % replicated puts of
//! 1 KiB values over seeded uniform keys, routed with
//! `Cluster::shard_for` and driven closed-loop by the benchmark over the
//! `ClusterSession`'s per-shard get and put sessions.
//!
//! The library has no cluster-wide generator, so the benchmark's loop is
//! both the measured path and the traced one: it routes the op stream a
//! bounded distance ahead, refills every session's window from its
//! shard's queue (per-session order kept), reaps every session, and
//! steps the simulator.

use std::collections::VecDeque;
use std::time::Instant;

use redn_cluster::cluster::{Cluster, ClusterSpec};
use redn_cluster::router::ShardRouter;
use redn_cluster::session::{ClusterSession, PutSession};
use redn_core::offloads::replicate::ReplicationLog;
use redn_kv::session::{Completion, SessionOpts};
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;

use super::{counters, layer_rows, sim_config, Bench, Check, Pass, Size, Traced};
use crate::gen::{rw_ops, value_of, Rng, RwOp};
use crate::metrics::Ledger;
use crate::stats::{self, Latency};
use crate::trace::{Call, Tracer};

const NODES: usize = 4;
const NKEYS: u64 = 4096;
const VALUE_LEN: u32 = 1024;
const DEPTH: u32 = 16;
/// Passes the journals are sized for (measured and checked; the
/// warm-up is extra). A run that would make more stops measuring early.
const MAX_PASSES: u64 = 64;
/// How far ahead of the issue point the stream is routed: ops whose
/// session window is full wait in their shard's queue while later ops
/// for other shards go out.
const LOOKAHEAD: usize = 64;
/// Acked puts read back through `get_blocking` by the checked pass.
const READ_BACK: usize = 64;

struct PendingGet {
    instance: u64,
    key: u64,
    posted_at: Time,
    /// Version of the key's value when the get was posted.
    version_at_post: u64,
    host_post_ns: u64,
}

struct PendingPut {
    instance: u64,
    key: u64,
    version: u64,
    posted_at: Time,
    host_post_ns: u64,
}

#[derive(Default)]
struct RwOut {
    gets: u64,
    puts: u64,
    failed: u64,
    wrong: u64,
    elapsed: Time,
    get_lat: Vec<Time>,
    put_lat: Vec<Time>,
    reap_calls: u64,
    reap_useful: u64,
}

pub struct ClusterRw {
    seed: u64,
    sim: Simulator,
    cluster: Cluster,
    session: ClusterSession,
    nodes: Vec<NodeId>,
    ops: Vec<RwOp>,
    /// Per key: versions handed out to puts, and the latest one acked.
    next_version: Vec<u64>,
    acked_version: Vec<u64>,
    /// Per shard: keys routed and waiting for a window slot.
    get_queue: Vec<VecDeque<u64>>,
    put_queue: Vec<VecDeque<u64>>,
    get_inflight: Vec<VecDeque<PendingGet>>,
    put_inflight: Vec<VecDeque<PendingPut>>,
    comp_buf: Vec<Completion>,
    key_buf: Vec<u64>,
    passes_run: u64,
}

impl ClusterRw {
    pub fn setup(seed: u64, size: Size, tr: &mut Tracer) -> Result<ClusterRw> {
        let nops = size.ops(12_000, 400) as usize;
        tr.begin("setup", "benchmark");
        // The router's key partition, so the generator can spread the
        // stream evenly over the shards (the driver still routes every
        // op with `Cluster::shard_for`).
        let router = ShardRouter::new(0..NODES);
        let mut partition = vec![Vec::new(); NODES];
        for key in 1..=NKEYS {
            partition[router.route(key)].push(key);
        }
        let ops = rw_ops(&mut Rng::new(seed, 1), nops, &partition);
        // The journals never wrap, so each is sized for every record a
        // full run can append to the busiest one.
        let mut shard_puts = [0u64; NODES];
        for op in &ops {
            if let RwOp::Put(key) = op {
                shard_puts[router.route(*key)] += 1;
            }
        }
        let puts = shard_puts.into_iter().max().unwrap_or(0);
        let spec = ClusterSpec {
            nodes: NODES,
            nkeys: NKEYS,
            value_len: VALUE_LEN,
            nbuckets: (NKEYS * 4).next_power_of_two(),
            put_depth: DEPTH,
            journal_capacity: puts * (MAX_PASSES + 1) + u64::from(DEPTH),
        };
        let mut sim = Simulator::new(sim_config());
        tr.begin("Cluster::deploy", "redn_cluster");
        let mut cluster = Cluster::deploy_into(&mut sim, spec)?;
        tr.end();
        tr.begin("ClusterSession::connect", "redn_cluster");
        let session = ClusterSession::connect(
            &mut sim,
            &mut cluster,
            SessionOpts {
                pipeline_depth: DEPTH,
                self_recycling: true,
                port: 0,
                pu_base: 0,
            },
        )?;
        tr.end();
        let nodes = cluster.shards.iter().map(|s| s.node).collect();
        let mut s = ClusterRw {
            seed,
            sim,
            cluster,
            session,
            nodes,
            ops,
            next_version: vec![0; NKEYS as usize + 1],
            acked_version: vec![0; NKEYS as usize + 1],
            get_queue: vec![VecDeque::new(); NODES],
            put_queue: vec![VecDeque::new(); NODES],
            get_inflight: (0..NODES).map(|_| VecDeque::new()).collect(),
            put_inflight: (0..NODES).map(|_| VecDeque::new()).collect(),
            comp_buf: Vec::new(),
            key_buf: Vec::new(),
            passes_run: 0,
        };
        tr.begin("warm-up", "benchmark");
        s.run(nops / 20, false, &mut Tracer::new(false))?;
        tr.end();
        tr.end();
        Ok(s)
    }

    /// Wall µs of one `PutSession::connect` (build + lower + analyse a
    /// replication chain), median of five on a scratch two-node cluster.
    fn connect_put_us() -> Result<f64> {
        let mut sim = Simulator::new(sim_config());
        let spec = ClusterSpec {
            nodes: 2,
            nkeys: 64,
            value_len: VALUE_LEN,
            nbuckets: 256,
            put_depth: DEPTH,
            journal_capacity: 64,
        };
        let mut cluster = Cluster::deploy_into(&mut sim, spec)?;
        let backup = cluster.shards[1].node;
        let mut us = Vec::new();
        for _ in 0..5 {
            let journal = ReplicationLog::create(&mut sim, backup, ProcessId(0), 64, VALUE_LEN)?;
            let t0 = Instant::now();
            PutSession::connect(&mut sim, &mut cluster, 0, &[journal], 0)?;
            us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        Ok(stats::median(&us))
    }

    /// Drive the first `nops` ops of the stream to completion.
    fn run(&mut self, nops: usize, check: bool, tr: &mut Tracer) -> Result<RwOut> {
        let start = self.sim.now();
        let before = counters(&self.sim, &self.nodes);
        let mut out = RwOut::default();
        let mut next = 0usize;
        // Ops routed to a shard's queue and not yet issued.
        let mut queued = 0usize;
        tr.begin_pass();
        loop {
            self.reap(check, tr, &mut out);
            // Route the stream a bounded distance ahead of the issue
            // point, so that one full window does not idle the others.
            while next < nops && queued < LOOKAHEAD {
                let op = self.ops[next];
                let (RwOp::Get(key) | RwOp::Put(key)) = op;
                tr.enter(Call::ShardFor);
                let s = self.cluster.shard_for(key);
                tr.enter(Call::Driver);
                match op {
                    RwOp::Get(_) => self.get_queue[s].push_back(key),
                    RwOp::Put(_) => self.put_queue[s].push_back(key),
                }
                next += 1;
                queued += 1;
            }
            for s in 0..NODES {
                // Gets: refill the window with one burst, one doorbell.
                let room = DEPTH as usize - self.get_inflight[s].len();
                let n = room.min(self.get_queue[s].len());
                if n > 0 {
                    self.key_buf.clear();
                    self.key_buf.extend(self.get_queue[s].drain(..n));
                    tr.enter(Call::GetBurst);
                    let posted = self
                        .session
                        .get_session_mut(s)
                        .get_burst(&mut self.sim, &self.key_buf)?;
                    tr.enter(Call::Driver);
                    for p in posted {
                        self.get_inflight[s].push_back(PendingGet {
                            instance: p.instance,
                            key: p.key,
                            posted_at: p.posted_at,
                            version_at_post: self.acked_version[p.key as usize],
                            host_post_ns: tr.sample_ns(p.instance),
                        });
                    }
                    queued -= n;
                }
                while self.put_inflight[s].len() < DEPTH as usize {
                    let Some(key) = self.put_queue[s].pop_front() else {
                        break;
                    };
                    self.next_version[key as usize] += 1;
                    let version = self.next_version[key as usize];
                    let value = value_of(key, version, VALUE_LEN as usize);
                    let posted_at = self.sim.now();
                    tr.enter(Call::Put);
                    let instance =
                        self.session
                            .put_session_mut(s)
                            .put(&mut self.sim, key, &value)?;
                    tr.enter(Call::Driver);
                    self.put_inflight[s].push_back(PendingPut {
                        instance,
                        key,
                        version,
                        posted_at,
                        host_post_ns: tr.sample_ns(instance),
                    });
                    queued -= 1;
                }
            }
            let idle = self.get_inflight.iter().all(VecDeque::is_empty)
                && self.put_inflight.iter().all(VecDeque::is_empty);
            if next == nops && queued == 0 && idle {
                break;
            }
            tr.enter(Call::Step);
            let more = self.sim.step()?;
            tr.enter(Call::Driver);
            if !more {
                break;
            }
        }
        // Whatever is still in flight on a drained simulator timed out.
        for s in 0..NODES {
            out.failed += (self.get_inflight[s].len() + self.put_inflight[s].len()) as u64;
            for _ in self.get_inflight[s].drain(..) {
                self.session.get_session_mut(s).abandon();
            }
            self.put_inflight[s].clear();
            self.get_queue[s].clear();
            self.put_queue[s].clear();
        }
        out.failed += (queued + nops - next) as u64;
        out.elapsed = self.sim.now() - start;
        let after = counters(&self.sim, &self.nodes);
        if (after.doorbells, after.posts) != (before.doorbells, before.posts) {
            return Err(Error::Verifier(
                "cluster_rw: a shard's CPU rang doorbells or posted WQEs in steady state".into(),
            ));
        }
        self.passes_run += 1;
        Ok(out)
    }

    fn reap(&mut self, check: bool, tr: &mut Tracer, out: &mut RwOut) {
        for s in 0..NODES {
            let mut reaped = std::mem::take(&mut self.comp_buf);
            reaped.clear();
            let session = self.session.get_session_mut(s);
            tr.enter(Call::ReapInto);
            session.reap_into(&mut self.sim, 64, &mut reaped);
            tr.enter(Call::Driver);
            out.reap_calls += 1;
            out.reap_useful += u64::from(!reaped.is_empty());
            for done in reaped.drain(..) {
                let inflight = &mut self.get_inflight[s];
                let Some(pos) = inflight
                    .iter()
                    .position(|p| session.response_tag(p.instance) == done.tag())
                else {
                    continue;
                };
                let p = inflight.remove(pos).expect("position just found");
                out.get_lat.push(done.at() - p.posted_at);
                if check {
                    // Acks are applied at reap, so the get read one of
                    // the versions current between its post and now.
                    let got = session.read_value(&self.sim, p.instance, u64::from(VALUE_LEN));
                    let latest = self.acked_version[p.key as usize];
                    let ok = got.is_ok_and(|got| {
                        (p.version_at_post..=latest)
                            .any(|v| got == value_of(p.key, v, VALUE_LEN as usize))
                    });
                    out.wrong += u64::from(!ok);
                }
                if p.host_post_ns != 0 {
                    tr.op(
                        "get",
                        "redn_cluster",
                        p.host_post_ns,
                        p.instance,
                        1 + s as u32,
                    );
                }
                out.gets += 1;
                session.complete();
            }
            self.comp_buf = reaped;

            tr.enter(Call::PutReap);
            let puts = self.session.put_session_mut(s).reap(&mut self.sim);
            tr.enter(Call::Driver);
            out.reap_calls += 1;
            out.reap_useful += u64::from(!(puts.acks.is_empty() && puts.failures.is_empty()));
            for ack in &puts.acks {
                let inflight = &mut self.put_inflight[s];
                let Some(pos) = inflight.iter().position(|p| p.instance == ack.instance) else {
                    continue;
                };
                let p = inflight.remove(pos).expect("position just found");
                self.acked_version[p.key as usize] = p.version;
                out.put_lat.push(ack.at - p.posted_at);
                if p.host_post_ns != 0 {
                    tr.op(
                        "put",
                        "redn_cluster",
                        p.host_post_ns,
                        p.instance,
                        1 + (NODES + s) as u32,
                    );
                }
                out.puts += 1;
            }
            for f in &puts.failures {
                self.put_inflight[s].retain(|p| p.instance != f.instance);
                out.failed += 1;
            }
        }
    }

    /// The pass's headline latency: the gets. Puts ride an unloaded
    /// replication chain (5 µs) beside saturated get windows (70 µs); a
    /// percentile of the mixture sits in the gap between the two and
    /// moves with the order of the stream. Put latency is
    /// `cluster.put_p99_us` in the ledger.
    fn latency(out: &RwOut) -> Option<Latency> {
        stats::latency(&out.get_lat).ok()
    }
}

impl Bench for ClusterRw {
    fn pass(&mut self) -> Result<Pass> {
        let out = self.run(self.ops.len(), false, &mut Tracer::new(false))?;
        Ok(Pass {
            ops: out.gets + out.puts,
            failed: out.failed,
            sim_elapsed: out.elapsed,
            latency: ClusterRw::latency(&out),
        })
    }

    fn check(&mut self) -> Result<Check> {
        let mut tr = Tracer::new(false);
        let out = self.run(self.ops.len(), true, &mut tr)?;
        // Read a seeded sample of the acked puts back, one at a time.
        let mut written: Vec<u64> = (1..=NKEYS)
            .filter(|&k| self.acked_version[k as usize] > 0)
            .collect();
        Rng::new(self.seed, 2).shuffle(&mut written);
        written.truncate(READ_BACK);
        let mut lost = 0u64;
        for &key in &written {
            let want = value_of(key, self.acked_version[key as usize], VALUE_LEN as usize);
            match self.session.get_blocking(&mut self.sim, &self.cluster, key) {
                Ok(got) if got == want => {}
                _ => lost += 1,
            }
        }
        Ok(Check {
            attempted: self.ops.len() as u64 + written.len() as u64,
            failed: out.failed + out.wrong + lost,
            latency: None,
        })
    }

    fn passes_left(&self) -> u64 {
        // The warm-up pass is not one of the sized-for passes.
        (MAX_PASSES + 1).saturating_sub(self.passes_run)
    }

    fn sim_dram_bytes(&mut self) -> u64 {
        let client = self.cluster.client;
        let nodes = self.nodes.iter().copied().chain([client]);
        nodes.map(|n| self.sim.mem(n).allocated()).sum()
    }

    fn ledger(&mut self, seconds: f64, tr: &mut Tracer, out: &mut Ledger) -> Result<()> {
        for (row, span) in [
            ("cluster.deploy_ms", "Cluster::deploy"),
            ("cluster.connect_ms", "ClusterSession::connect"),
            ("setup.warmup_ms", "warm-up"),
        ] {
            out.set(row, tr.span_ns(span).unwrap_or(0) as f64 / 1e6);
        }
        out.set("offloads.connect_put_us", ClusterRw::connect_put_us()?);
        let put0 = self.session.put_session(0).offload();
        out.set("cluster.repl_verbs_per_put", put0.verbs_per_op());
        out.set(
            "analysis.pairs_checked",
            self.session.isolation_report().checked as f64,
        );
        if let Some(rep) = self.session.get_session_mut(0).ir_report() {
            let depth = f64::from(DEPTH);
            out.set("ir.verbs_per_op_before", rep.before.total() as f64 / depth);
            out.set("ir.verbs_per_op_after", rep.after.total() as f64 / depth);
            out.set("ir.ring_slots", f64::from(rep.ring_slots));
            out.set("ir.pool_bytes_placed", rep.pool_bytes_placed as f64);
        }

        // Alternate untraced and traced passes of the one loop.
        let mut quiet = Tracer::new(false);
        let mut traced_passes = Traced::default();
        let mut traced_puts = 0u64;
        let mut first: Option<RwOut> = None;
        tr.begin("passes", "benchmark");
        let t_all = Instant::now();
        let mut round = 0;
        while (round < 2 || t_all.elapsed().as_secs_f64() < seconds) && self.passes_left() > 1 {
            let traced = round % 2 == 1;
            let before = counters(&self.sim, &self.nodes);
            let t0 = Instant::now();
            let nops = self.ops.len();
            let pass = self.run(nops, false, if traced { &mut *tr } else { &mut quiet })?;
            let ops = pass.gets + pass.puts;
            let wall_ns = t0.elapsed().as_nanos() as f64;
            let after = counters(&self.sim, &self.nodes);
            traced_passes.add(
                traced.then_some(&*tr),
                wall_ns,
                ops,
                after.events - before.events,
                (pass.reap_calls, pass.reap_useful),
            );
            if traced {
                traced_puts += pass.puts;
            }
            if first.is_none() {
                layer_rows(&self.sim, &self.nodes, &before, &after, ops, out);
                out.set(
                    "cluster.primary_doorbells_per_put",
                    (after.doorbells - before.doorbells) as f64 / pass.puts.max(1) as f64,
                );
                out.set(
                    "host.server_doorbells_per_op",
                    (after.doorbells - before.doorbells) as f64 / ops.max(1) as f64,
                );
                out.set(
                    "host.server_posts_per_op",
                    (after.posts - before.posts) as f64 / ops.max(1) as f64,
                );
                first = Some(pass);
            }
            round += 1;
        }
        tr.end();
        let first = first.expect("at least one round ran");
        if let Ok(l) = stats::latency(&first.get_lat) {
            out.set("cluster.get_p99_us", l.p99_us);
        }
        if let Ok(l) = stats::latency(&first.put_lat) {
            out.set("cluster.put_p99_us", l.p99_us);
        }

        traced_passes.rows(tr, out);
        let (ops, puts) = (traced_passes.ops.max(1) as f64, traced_puts.max(1) as f64);
        out.set(
            "cluster.route_ns_per_op",
            tr.lap(Call::ShardFor).total_ns as f64 / ops,
        );
        out.set(
            "cluster.put_post_ns_per_op",
            tr.lap(Call::Put).total_ns as f64 / puts,
        );
        out.set(
            "cluster.put_reap_ns_per_op",
            tr.lap(Call::PutReap).total_ns as f64 / puts,
        );
        Ok(())
    }
}
