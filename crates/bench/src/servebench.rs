//! Serving-layer throughput: ops/sec vs offered load over the pipelined
//! [`ServingFleet`].
//!
//! The paper's Memcached evaluation (§5.4) drives 1M pipelined gets from
//! many clients; this module measures that traffic shape in the
//! simulator and emits `BENCH_throughput.json` — the repo's throughput
//! baseline artifact, regenerated by CI so every future perf PR has a
//! number to move:
//!
//! * a **sync baseline**: back-to-back [`Session::get_blocking`] calls
//!   on one depth-1 host-armed client (the only request path before the
//!   serving layer existed);
//! * a **closed-loop sweep**: fleet throughput as the per-client window
//!   K grows (1, 2, 4, ... up to the pipeline depth);
//! * an **open-loop sweep**: achieved throughput and latency as the
//!   offered rate sweeps past the measured capacity, exposing the
//!   saturation knee. Each point reports both the scheduled-time
//!   percentiles (queueing included — the anti-coordinated-omission
//!   view) and the service-time percentiles;
//! * a **mixed sweep**: a heterogeneous fleet — self-recycling hash-get
//!   *and* list-walk services side by side on one NIC — at the deepest
//!   closed-loop window, proving the `OffloadService` mix sustains the
//!   speedup with zero steady-state host arm calls.

use redn_core::ctx::OffloadCtx;
use redn_core::offloads::hash_lookup::HashGetVariant;
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;

use redn_kv::liststore::ListStore;
use redn_kv::memcached::MemcachedServer;
use redn_kv::serving::{FleetSpec, FleetStats, ServiceSpec, ServingFleet};
use redn_kv::session::{Session, SessionOpts};
use redn_kv::workload::Workload;

use crate::clusterbench::{ClusterPoint, FailoverPoint};
use crate::tenantbench::{NoisyNeighborPoint, TenantsPoint};
use crate::testbed_with;
use rnic_sim::config::NicConfig;

/// Sweep geometry.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Fleet clients (homogeneous hash-get sweeps).
    pub clients: usize,
    /// Armed instances per client.
    pub pipeline_depth: u32,
    /// Requests completed per client per sweep point.
    pub ops_per_client: u64,
    /// Populated keys (shared by all sweep points).
    pub nkeys: u64,
    /// Value bytes per request.
    pub value_len: u32,
    /// Server NIC ports (2 = the paper's Table 4 dual-port config; the
    /// fleet shards offloads across ports round-robin).
    pub server_ports: usize,
    /// Closed-loop windows to sweep (values above `pipeline_depth` are
    /// clamped by the fleet).
    pub closed_windows: Vec<u32>,
    /// Open-loop offered loads, as fractions of the measured closed-loop
    /// per-client capacity.
    pub open_load_fractions: Vec<f64>,
    /// Deploy self-recycling offloads (§3.4): the NIC re-arms instances
    /// between rounds, so steady state involves zero host arm calls,
    /// doorbells, posts, or pool pushes on the server.
    pub self_recycling: bool,
    /// Hash-get clients of the mixed (heterogeneous) point.
    pub mixed_get_clients: usize,
    /// List-walk clients of the mixed point (0 skips the mixed sweep).
    pub mixed_walk_clients: usize,
    /// Unroll factor of the mixed point's walk services (≤ 15 — the
    /// recycled walk folds its key scatter into the 16-SGE RECV).
    pub walk_max_nodes: usize,
}

impl SweepConfig {
    /// CI-sized configuration: finishes in seconds, still crosses the
    /// saturation knee.
    pub fn small() -> SweepConfig {
        SweepConfig {
            clients: 4,
            pipeline_depth: 8,
            ops_per_client: 150,
            nkeys: 1024,
            value_len: 64,
            server_ports: 2,
            closed_windows: vec![1, 2, 4, 8],
            open_load_fractions: vec![0.25, 0.5, 1.0, 1.5],
            self_recycling: true,
            mixed_get_clients: 4,
            mixed_walk_clients: 1,
            walk_max_nodes: 4,
        }
    }

    /// Full configuration (the committed `BENCH_throughput.json`).
    pub fn full() -> SweepConfig {
        SweepConfig {
            clients: 8,
            pipeline_depth: 16,
            ops_per_client: 1000,
            nkeys: 4096,
            value_len: 64,
            server_ports: 2,
            closed_windows: vec![1, 2, 4, 8, 16],
            open_load_fractions: vec![0.25, 0.5, 0.75, 1.0, 1.25, 1.5],
            self_recycling: true,
            mixed_get_clients: 6,
            mixed_walk_clients: 2,
            walk_max_nodes: 8,
        }
    }
}

/// One closed-loop sweep point.
#[derive(Clone, Debug)]
pub struct ClosedPoint {
    /// Per-client window.
    pub k: u32,
    /// The run's aggregate stats.
    pub stats: FleetStats,
}

/// One open-loop sweep point.
#[derive(Clone, Debug)]
pub struct OpenPoint {
    /// Aggregate offered load (ops/sec across the fleet).
    pub offered: f64,
    /// The run's aggregate stats.
    pub stats: FleetStats,
}

/// The heterogeneous (gets + walks) sweep point.
#[derive(Clone, Debug)]
pub struct MixedPoint {
    /// Per-client window.
    pub k: u32,
    /// Hash-get client sessions.
    pub get_clients: usize,
    /// List-walk client sessions.
    pub walk_clients: usize,
    /// The run's aggregate stats (`get_ops`/`walk_ops` split inside).
    pub stats: FleetStats,
}

/// Per-offload WQE cost, before and after the IR optimizer (the CI
/// gate holds the optimized count to the committed baseline).
#[derive(Clone, Copy, Debug)]
pub struct VerbsPerOp {
    /// Offload family name (JSON key).
    pub name: &'static str,
    /// Naive-lowering WQEs per request.
    pub before: f64,
    /// Optimized WQEs per request.
    pub after: f64,
}

/// The full sweep result.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// The geometry that produced it.
    pub config: SweepConfig,
    /// Back-to-back synchronous gets, ops/sec.
    pub sync_baseline_ops_per_sec: f64,
    /// Closed-loop sweep, ascending K.
    pub closed: Vec<ClosedPoint>,
    /// Open-loop sweep, ascending offered load.
    pub open: Vec<OpenPoint>,
    /// The deepest closed-loop window re-run with host-armed offloads —
    /// the host-involvement comparison row (the pre-§3.4 serving mode).
    pub host_armed: Option<ClosedPoint>,
    /// The heterogeneous fleet point (gets + walks on one NIC).
    pub mixed: Option<MixedPoint>,
    /// Per-offload WQEs per request, pre/post IR optimization.
    pub verbs_per_op: Vec<VerbsPerOp>,
    /// The sharded cluster read-path row (filled by the `throughput`
    /// bin from [`crate::clusterbench`]).
    pub cluster: Option<ClusterPoint>,
    /// The kill-a-node failover soak row.
    pub failover: Option<FailoverPoint>,
    /// The packed multi-tenant row (filled by the `throughput` bin from
    /// [`crate::tenantbench`]).
    pub tenants: Option<TenantsPoint>,
    /// The noisy-neighbor QoS enforcement row.
    pub noisy_neighbor: Option<NoisyNeighborPoint>,
}

impl ThroughputReport {
    /// Best closed-loop throughput (the measured capacity).
    pub fn best_closed_ops_per_sec(&self) -> f64 {
        self.closed
            .iter()
            .map(|p| p.stats.ops_per_sec)
            .fold(0.0, f64::max)
    }

    /// Pipelining speedup over the synchronous baseline.
    pub fn speedup_vs_sync(&self) -> f64 {
        self.best_closed_ops_per_sec() / self.sync_baseline_ops_per_sec
    }

    /// Mixed-fleet speedup over the synchronous baseline (the ISSUE-4
    /// acceptance metric: ≥ 3× with zero get arm calls).
    pub fn mixed_speedup_vs_sync(&self) -> Option<f64> {
        self.mixed
            .as_ref()
            .map(|m| m.stats.ops_per_sec / self.sync_baseline_ops_per_sec)
    }

    /// Per-op host-involvement rates of the best closed-loop point —
    /// the artifact's proof that the CPU left the serving loop (§3.4).
    pub fn steady_state(&self) -> Option<(f64, f64, f64, f64)> {
        self.closed
            .iter()
            .max_by(|a, b| {
                a.stats
                    .ops_per_sec
                    .partial_cmp(&b.stats.ops_per_sec)
                    .expect("finite")
            })
            .map(|p| {
                let ops = p.stats.ops.max(1) as f64;
                (
                    p.stats.host_arm_calls as f64 / ops,
                    p.stats.server_doorbells as f64 / ops,
                    p.stats.server_posts as f64 / ops,
                    p.stats.client_doorbells as f64 / ops,
                )
            })
    }

    /// Serialize as the `BENCH_throughput.json` artifact (hand-rolled —
    /// the workspace is offline and carries no serde). Open-loop rows
    /// carry two latency distributions: `avg/p50/p99` are charged from
    /// the *scheduled* time (client-side queueing included), the
    /// `service_*` keys from the actual post time.
    pub fn to_json(&self) -> String {
        let lat = |s: &FleetStats| -> String {
            match s.latency {
                Some(l) => format!(
                    "\"avg_us\":{:.3},\"p50_us\":{:.3},\"p99_us\":{:.3}",
                    l.avg_us, l.p50_us, l.p99_us
                ),
                None => "\"avg_us\":null,\"p50_us\":null,\"p99_us\":null".to_string(),
            }
        };
        let service_lat = |s: &FleetStats| -> String {
            match s.service_latency {
                Some(l) => format!(
                    "\"service_avg_us\":{:.3},\"service_p50_us\":{:.3},\"service_p99_us\":{:.3}",
                    l.avg_us, l.p50_us, l.p99_us
                ),
                None => "\"service_avg_us\":null,\"service_p50_us\":null,\"service_p99_us\":null"
                    .to_string(),
            }
        };
        let host = |s: &FleetStats| -> String {
            format!(
                "\"host_arm_calls\":{},\"server_doorbells\":{},\"server_posts\":{},\"client_doorbells\":{}",
                s.host_arm_calls, s.server_doorbells, s.server_posts, s.client_doorbells
            )
        };
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"config\": {{\"clients\":{},\"pipeline_depth\":{},\"ops_per_client\":{},\"nkeys\":{},\"value_len\":{},\"self_recycling\":{}}},\n",
            self.config.clients,
            self.config.pipeline_depth,
            self.config.ops_per_client,
            self.config.nkeys,
            self.config.value_len,
            self.config.self_recycling
        ));
        out.push_str(&format!(
            "  \"sync_baseline_ops_per_sec\": {:.1},\n",
            self.sync_baseline_ops_per_sec
        ));
        out.push_str(&format!(
            "  \"best_closed_loop_ops_per_sec\": {:.1},\n",
            self.best_closed_ops_per_sec()
        ));
        out.push_str(&format!(
            "  \"speedup_vs_sync\": {:.2},\n",
            self.speedup_vs_sync()
        ));
        if let Some((arms, sdb, sposts, cdb)) = self.steady_state() {
            out.push_str(&format!(
                "  \"steady_state\": {{\"host_arm_calls_per_op\":{arms:.4},\"server_doorbells_per_op\":{sdb:.4},\"server_posts_per_op\":{sposts:.4},\"client_doorbells_per_op\":{cdb:.4}}},\n",
            ));
        }
        if !self.verbs_per_op.is_empty() {
            let rows: Vec<String> = self
                .verbs_per_op
                .iter()
                .map(|v| {
                    format!(
                        "\"{}\":{{\"before\":{:.3},\"after\":{:.3}}}",
                        v.name, v.before, v.after
                    )
                })
                .collect();
            out.push_str(&format!("  \"verbs_per_op\": {{{}}},\n", rows.join(",")));
        }
        if let Some(p) = &self.host_armed {
            out.push_str(&format!(
                "  \"host_armed_comparison\": {{\"k\":{},\"ops_per_sec\":{:.1},{}}},\n",
                p.k,
                p.stats.ops_per_sec,
                host(&p.stats)
            ));
        }
        if let Some(m) = &self.mixed {
            let ops = m.stats.ops.max(1) as f64;
            out.push_str(&format!(
                "  \"mixed\": {{\"k\":{},\"get_clients\":{},\"walk_clients\":{},\"walk_max_nodes\":{},\"ops\":{},\"get_ops\":{},\"walk_ops\":{},\"ops_per_sec\":{:.1},\"speedup_vs_sync\":{:.2},\"get_arm_calls_per_op\":{:.4},\"walk_arm_calls_per_op\":{:.4},{},{},\"timeouts\":{}}},\n",
                m.k,
                m.get_clients,
                m.walk_clients,
                self.config.walk_max_nodes,
                m.stats.ops,
                m.stats.get_ops,
                m.stats.walk_ops,
                m.stats.ops_per_sec,
                self.mixed_speedup_vs_sync().expect("mixed point present"),
                m.stats.get_arm_calls as f64 / ops,
                m.stats.walk_arm_calls as f64 / ops,
                lat(&m.stats),
                host(&m.stats),
                m.stats.timeouts
            ));
        }
        out.push_str("  \"closed_loop\": [\n");
        for (i, p) in self.closed.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"k\":{},\"ops\":{},\"ops_per_sec\":{:.1},{},{},\"timeouts\":{}}}{}\n",
                p.k,
                p.stats.ops,
                p.stats.ops_per_sec,
                lat(&p.stats),
                host(&p.stats),
                p.stats.timeouts,
                if i + 1 < self.closed.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"open_loop\": [\n");
        for (i, p) in self.open.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"offered_ops_per_sec\":{:.1},\"achieved_ops_per_sec\":{:.1},\"ops\":{},{},{},\"timeouts\":{}}}{}\n",
                p.offered,
                p.stats.ops_per_sec,
                p.stats.ops,
                lat(&p.stats),
                service_lat(&p.stats),
                p.stats.timeouts,
                if i + 1 < self.open.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]");
        if let Some(t) = &self.tenants {
            let rows: Vec<String> = t
                .stats
                .per_tenant
                .iter()
                .map(|ts| {
                    format!(
                        "{{\"name\":\"{}\",\"ops\":{},\"ops_per_sec\":{:.1},\"host_arm_calls\":{},\"p99_us\":{},\"shed_posts\":{},\"timeouts\":{}}}",
                        ts.tenant,
                        ts.ops,
                        ts.ops_per_sec,
                        ts.host_arm_calls,
                        ts.latency
                            .map_or_else(|| "null".to_string(), |l| format!("{:.3}", l.p99_us)),
                        ts.shed_posts,
                        ts.timeouts
                    )
                })
                .collect();
            out.push_str(&format!(
                ",\n  \"tenants\": {{\"ntenants\":{},\"k\":{},\"ops\":{},\"ops_per_sec\":{:.1},{},\"per_tenant\":[{}]}}",
                t.ntenants,
                t.k,
                t.stats.ops,
                t.stats.ops_per_sec,
                host(&t.stats),
                rows.join(",")
            ));
        }
        if let Some(n) = &self.noisy_neighbor {
            out.push_str(&format!(
                ",\n  \"noisy_neighbor\": {{\"cap_ops_per_sec\":{:.1},\"demand_x_cap\":{:.2},\"a_ops_per_sec\":{:.1},\"a_shed_posts\":{},\"b_solo_p99_us\":{:.3},\"b_packed_p99_us\":{:.3},\"b_solo_ops_per_sec\":{:.1},\"b_packed_ops_per_sec\":{:.1},\"p99_ratio\":{:.3},\"tput_ratio\":{:.3}}}",
                n.cap_ops_per_sec,
                n.demand_x_cap,
                n.a_ops_per_sec,
                n.a_shed_posts,
                n.b_solo_p99_us,
                n.b_packed_p99_us,
                n.b_solo_ops_per_sec,
                n.b_packed_ops_per_sec,
                n.p99_ratio,
                n.tput_ratio
            ));
        }
        if let Some(c) = &self.cluster {
            let ops = c.stats.ops.max(1) as f64;
            out.push_str(&format!(
                ",\n  \"cluster\": {{\"nodes\":{},\"clients\":{},\"k\":{},\"ops\":{},\"ops_per_sec\":{:.1},\"host_arm_calls_per_op\":{:.4},{},{},\"timeouts\":{}}}",
                c.nodes,
                c.clients,
                c.k,
                c.stats.ops,
                c.stats.ops_per_sec,
                c.stats.host_arm_calls as f64 / ops,
                lat(&c.stats),
                host(&c.stats),
                c.stats.timeouts
            ));
        }
        if let Some(f) = &self.failover {
            out.push_str(&format!(
                ",\n  \"failover\": {{\"steady_p99_us\":{:.3},\"blip_us\":{:.3},\"detection_us\":{:.3},\"promote_us\":{:.3},\"rereplicate_us\":{:.3},\"records_recovered\":{},\"acked_lost\":{},\"repl_verbs_per_op\":{:.3},\"repl_primary_arm_calls_per_put\":{:.4},\"repl_primary_doorbells_per_put\":{:.4},\"repl_primary_posts_per_put\":{:.4}}}",
                f.steady_p99_us,
                f.blip_us,
                f.detection_us,
                f.promote_us,
                f.rereplicate_us,
                f.records_recovered,
                f.acked_lost,
                f.repl_verbs_per_op,
                f.repl_primary_arm_calls_per_put,
                f.repl_primary_doorbells_per_put,
                f.repl_primary_posts_per_put
            ));
        }
        out.push_str("\n}\n");
        out
    }
}

/// Stand up one fresh testbed + fleet and hand it to `run`. Every sweep
/// point gets its own simulator so points are independent and the
/// constant pool never carries over.
fn server_nic(cfg: &SweepConfig) -> NicConfig {
    if cfg.server_ports == 2 {
        NicConfig::connectx5().dual_port()
    } else {
        NicConfig::connectx5()
    }
}

fn with_fleet<T>(
    cfg: &SweepConfig,
    spec: FleetSpec,
    run: impl FnOnce(&mut rnic_sim::sim::Simulator, &mut OffloadCtx, &mut ServingFleet) -> Result<T>,
) -> Result<T> {
    let (mut sim, client, server_node) = testbed_with(server_nic(cfg));
    let nbuckets = (cfg.nkeys * 4).next_power_of_two();
    let server =
        MemcachedServer::create(&mut sim, server_node, nbuckets, cfg.value_len, ProcessId(0))?;
    server.populate(&mut sim, cfg.nkeys)?;
    let mut ctx = OffloadCtx::builder(server_node)
        .pool_capacity(1 << 24)
        .build(&mut sim)?;
    let nwalkers = spec.walk_clients();
    let store = if nwalkers > 0 {
        Some(ListStore::create(
            &mut sim,
            server_node,
            (nwalkers as u64) * 8,
            cfg.walk_max_nodes,
            cfg.value_len,
            ProcessId(0),
        )?)
    } else {
        None
    };
    let workloads = Workload::split_sequential(cfg.nkeys, spec.get_clients());
    let mut fleet = ServingFleet::deploy(
        &mut sim,
        &mut ctx,
        &server,
        store.as_ref(),
        client,
        spec,
        workloads,
    )?;
    run(&mut sim, &mut ctx, &mut fleet)
}

/// The homogeneous hash-get fleet spec a sweep point uses.
/// Self-recycling rings run both probes back-to-back (Sequential);
/// host-armed fleets keep the PU-parallel probes of Fig 11.
fn gets_spec(cfg: &SweepConfig, self_recycling: bool) -> FleetSpec {
    FleetSpec::gets(
        cfg.clients,
        cfg.pipeline_depth,
        if self_recycling {
            HashGetVariant::Sequential
        } else {
            HashGetVariant::Parallel
        },
        self_recycling,
    )
}

/// The heterogeneous fleet spec of the mixed point (both families
/// self-recycling: steady-state host arm calls stay 0 across the mix).
fn mixed_spec(cfg: &SweepConfig) -> FleetSpec {
    FleetSpec::new(vec![
        ServiceSpec::gets(
            cfg.mixed_get_clients,
            cfg.pipeline_depth,
            HashGetVariant::Sequential,
            true,
        ),
        ServiceSpec::walks(
            cfg.mixed_walk_clients,
            cfg.pipeline_depth,
            cfg.walk_max_nodes,
            true,
        ),
    ])
}

/// Run one closed-loop point on its own testbed: `cfg.clients` clients at
/// window `k`, `cfg.ops_per_client` ops each. This is the unit the
/// `sim_events --large` sweep shards across worker threads — each shard
/// builds its own simulator, so shards are independent and their stats
/// merge deterministically in shard order.
pub fn closed_point(cfg: &SweepConfig, k: u32) -> Result<FleetStats> {
    with_fleet(
        cfg,
        gets_spec(cfg, cfg.self_recycling),
        |sim, ctx, fleet| fleet.run_closed_loop(sim, ctx.pool_mut(), cfg.ops_per_client, k),
    )
}

/// Back-to-back [`Session::get_blocking`] calls on a single depth-1,
/// host-armed client — the pre-serving-layer request path, measured the
/// same way fleet runs are so the two are directly comparable. Returns
/// ops/sec.
pub fn sync_baseline_ops_per_sec(
    sim: &mut Simulator,
    ctx: &mut OffloadCtx,
    server: &MemcachedServer,
    client_node: NodeId,
    variant: HashGetVariant,
    ops: u64,
    workload: &mut Workload,
) -> Result<f64> {
    let opts = SessionOpts::blocking();
    let mut session = Session::connect_get(sim, ctx, server, client_node, variant, opts)?;
    let start = sim.now();
    for _ in 0..ops {
        let key = workload.next_key();
        let (_, found) = session.get_blocking(sim, ctx.pool_mut(), key)?;
        if !found {
            return Err(Error::InvalidWr("sync baseline key missed"));
        }
    }
    let secs = (sim.now() - start).as_us_f64() / 1e6;
    Ok(ops as f64 / secs)
}

/// Run the full sweep.
pub fn throughput_sweep(cfg: &SweepConfig) -> Result<ThroughputReport> {
    // Sync baseline on its own testbed (same NIC config for fairness —
    // a synchronous client cannot exploit the second port anyway).
    let sync_ops_per_sec = {
        let (mut sim, client, server_node) = testbed_with(server_nic(cfg));
        let nbuckets = (cfg.nkeys * 4).next_power_of_two();
        let server =
            MemcachedServer::create(&mut sim, server_node, nbuckets, cfg.value_len, ProcessId(0))?;
        server.populate(&mut sim, cfg.nkeys)?;
        let mut ctx = OffloadCtx::builder(server_node)
            .pool_capacity(1 << 24)
            .build(&mut sim)?;
        let mut workload = Workload::sequential(1, cfg.nkeys as usize);
        sync_baseline_ops_per_sec(
            &mut sim,
            &mut ctx,
            &server,
            client,
            HashGetVariant::Parallel,
            cfg.ops_per_client,
            &mut workload,
        )?
    };

    let mut closed = Vec::new();
    for &k in &cfg.closed_windows {
        let stats = with_fleet(
            cfg,
            gets_spec(cfg, cfg.self_recycling),
            |sim, ctx, fleet| fleet.run_closed_loop(sim, ctx.pool_mut(), cfg.ops_per_client, k),
        )?;
        closed.push(ClosedPoint { k, stats });
    }

    // Host-involvement comparison: deepest window, host-armed offloads.
    let host_armed = if cfg.self_recycling {
        let k = cfg.closed_windows.iter().copied().max().unwrap_or(1);
        let stats = with_fleet(cfg, gets_spec(cfg, false), |sim, ctx, fleet| {
            fleet.run_closed_loop(sim, ctx.pool_mut(), cfg.ops_per_client, k)
        })?;
        Some(ClosedPoint { k, stats })
    } else {
        None
    };

    // Offered loads pivot on the measured capacity.
    let best = closed
        .iter()
        .map(|p| p.stats.ops_per_sec)
        .fold(0.0, f64::max);
    let capacity_per_client = best / cfg.clients as f64;
    let mut open = Vec::new();
    for &f in &cfg.open_load_fractions {
        let rate = capacity_per_client * f;
        let stats = with_fleet(
            cfg,
            gets_spec(cfg, cfg.self_recycling),
            |sim, ctx, fleet| fleet.run_open_loop(sim, ctx.pool_mut(), cfg.ops_per_client, rate),
        )?;
        open.push(OpenPoint {
            offered: rate * cfg.clients as f64,
            stats,
        });
    }

    // The heterogeneous point: gets + walks side by side, deepest window.
    let mixed = if cfg.mixed_walk_clients > 0 && cfg.mixed_get_clients > 0 {
        let k = cfg.closed_windows.iter().copied().max().unwrap_or(1);
        let stats = with_fleet(cfg, mixed_spec(cfg), |sim, ctx, fleet| {
            fleet.run_closed_loop(sim, ctx.pool_mut(), cfg.ops_per_client, k)
        })?;
        Some(MixedPoint {
            k,
            get_clients: cfg.mixed_get_clients,
            walk_clients: cfg.mixed_walk_clients,
            stats,
        })
    } else {
        None
    };

    let verbs_per_op = verbs_per_op_rows(cfg)?;

    Ok(ThroughputReport {
        config: cfg.clone(),
        sync_baseline_ops_per_sec: sync_ops_per_sec,
        closed,
        open,
        host_armed,
        mixed,
        verbs_per_op,
        cluster: None,
        failover: None,
        tenants: None,
        noisy_neighbor: None,
    })
}

/// Deploy one self-recycling service per family on a fresh testbed and
/// read the IR optimizer's per-round verb accounting — the
/// `verbs_per_op` rows of the artifact, which CI gates against the
/// committed baseline (optimized WQEs per request must never grow).
fn verbs_per_op_rows(cfg: &SweepConfig) -> Result<Vec<VerbsPerOp>> {
    let (mut sim, client, server_node) = testbed_with(server_nic(cfg));
    let server = MemcachedServer::create(&mut sim, server_node, 1024, cfg.value_len, ProcessId(0))?;
    server.populate(&mut sim, 64)?;
    let store = ListStore::create(
        &mut sim,
        server_node,
        8,
        cfg.walk_max_nodes.max(1),
        cfg.value_len,
        ProcessId(0),
    )?;
    let mut ctx = OffloadCtx::builder(server_node)
        .pool_capacity(1 << 22)
        .build(&mut sim)?;
    let opts = SessionOpts {
        pipeline_depth: cfg.pipeline_depth,
        self_recycling: true,
        port: 0,
        pu_base: 0,
    };
    let depth = cfg.pipeline_depth as f64;
    let get = Session::connect_get(
        &mut sim,
        &mut ctx,
        &server,
        client,
        HashGetVariant::Sequential,
        opts,
    )?;
    let walk = Session::connect_walk(&mut sim, &mut ctx, &store, client, cfg.walk_max_nodes, opts)?;
    let mut rows = Vec::new();
    if let Some(rep) = get.ir_report() {
        rows.push(VerbsPerOp {
            name: "hash_get",
            before: rep.before.total() as f64 / depth,
            after: rep.after.total() as f64 / depth,
        });
    }
    if let Some(rep) = walk.ir_report() {
        rows.push(VerbsPerOp {
            name: "list_walk",
            before: rep.before.total() as f64 / depth,
            after: rep.after.total() as f64 / depth,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_produces_consistent_artifact() {
        let mut cfg = SweepConfig::small();
        cfg.ops_per_client = 60; // keep the unit test quick
        let report = throughput_sweep(&cfg).unwrap();
        assert!(report.sync_baseline_ops_per_sec > 0.0);
        assert_eq!(report.closed.len(), cfg.closed_windows.len());
        assert_eq!(report.open.len(), cfg.open_load_fractions.len());
        for p in &report.closed {
            assert_eq!(p.stats.ops, cfg.clients as u64 * cfg.ops_per_client);
            assert_eq!(p.stats.timeouts, 0, "closed loop must not time out");
        }
        // Deeper windows must not lose throughput.
        let k1 = report.closed.first().unwrap().stats.ops_per_sec;
        let best = report.best_closed_ops_per_sec();
        assert!(best >= k1, "pipelining cannot be slower than K=1");
        // Open loop can never beat the offered rate by more than jitter,
        // and every point carries both latency views.
        for p in &report.open {
            assert!(
                p.stats.ops_per_sec <= p.offered * 1.2,
                "achieved {} offered {}",
                p.stats.ops_per_sec,
                p.offered
            );
            let sched = p.stats.latency.expect("scheduled-time stats");
            let svc = p.stats.service_latency.expect("service-time stats");
            assert!(
                sched.p99_us >= svc.p99_us - 0.001,
                "queueing can only add latency: sched {} vs service {}",
                sched.p99_us,
                svc.p99_us
            );
        }
        // The self-recycling fleet must prove the CPU left the loop.
        let (arms, sdb, sposts, _cdb) = report.steady_state().expect("closed points exist");
        assert_eq!(arms, 0.0, "steady-state host arm calls per op");
        assert_eq!(sdb, 0.0, "steady-state server doorbells per op");
        assert_eq!(sposts, 0.0, "steady-state server posts per op");
        let host_armed = report.host_armed.as_ref().expect("comparison row");
        assert!(
            host_armed.stats.host_arm_calls > 0,
            "the comparison row shows what the host used to pay"
        );
        // The mixed point: gets and walks both complete, the get services
        // stay NIC-armed, and the mix clears the ISSUE-4 acceptance bar.
        let mixed = report.mixed.as_ref().expect("mixed point");
        assert_eq!(
            mixed.stats.ops,
            (cfg.mixed_get_clients + cfg.mixed_walk_clients) as u64 * cfg.ops_per_client
        );
        assert_eq!(
            mixed.stats.get_ops,
            cfg.mixed_get_clients as u64 * cfg.ops_per_client
        );
        assert_eq!(
            mixed.stats.walk_ops,
            cfg.mixed_walk_clients as u64 * cfg.ops_per_client
        );
        assert_eq!(mixed.stats.timeouts, 0);
        assert_eq!(mixed.stats.get_arm_calls, 0, "recycled gets stay NIC-armed");
        let mixed_speedup = report.mixed_speedup_vs_sync().unwrap();
        assert!(
            mixed_speedup >= 3.0,
            "mixed fleet must sustain >= 3x sync, got {mixed_speedup:.2}x"
        );
        // The optimizer must report a strict per-op WQE reduction for
        // both recycled offload families.
        assert_eq!(report.verbs_per_op.len(), 2);
        for v in &report.verbs_per_op {
            assert!(
                v.after < v.before,
                "{}: optimized {} !< naive {}",
                v.name,
                v.after,
                v.before
            );
        }
        // The artifact is syntactically sane JSON-by-construction.
        let json = report.to_json();
        assert!(json.contains("\"verbs_per_op\""));
        assert!(json.contains("\"sync_baseline_ops_per_sec\""));
        assert!(json.contains("\"steady_state\""));
        assert!(json.contains("\"host_armed_comparison\""));
        assert!(json.contains("\"mixed\""));
        assert!(json.contains("\"service_p99_us\""));
        assert!(json.contains("\"closed_loop\""));
        assert!(json.contains("\"open_loop\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }
}
