//! `get_closed`, `get_fanin`, `get_open`, `tenants_mixed`: one server,
//! a `ServingFleet` of recycled offloads, driven by the fleet's own
//! generators. The measured passes call `run_closed_loop` /
//! `run_open_loop`; the checked and traced passes drive an identical
//! deployment through [`crate::driver::Driver`].

use std::time::Instant;

use redn_core::ctx::OffloadCtx;
use redn_core::offloads::hash_lookup::HashGetVariant;
use redn_kv::liststore::ListStore;
use redn_kv::memcached::MemcachedServer;
use redn_kv::serving::{FleetSpec, FleetStats, ServingFleet};
use redn_kv::tenancy::{NicGeometry, TenantPacker, TenantSpec};
use redn_kv::workload::{latency_stats, Workload};
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;

use super::{counters, layer_rows, testbed, Bench, Check, Pass, Size, Traced};
use crate::driver::{Driver, PassOut};
use crate::gen::{key_lists, Rng};
use crate::metrics::Ledger;
use crate::stats::{self, Latency};
use crate::trace::Tracer;

pub(super) const NKEYS: u64 = 4096;
const VALUE_LEN: u32 = 64;
pub(super) const DEPTH: u32 = 16;
const WINDOW: u32 = 16;
pub(super) const WALK_MAX_NODES: usize = 4;
/// Tenant 0's cap in `tenants_mixed`, ops/s.
const RATE_CAP: f64 = 150_000.0;
/// `get_open`'s fixed offered load (about half the closed-loop knee)
/// and the grid its SLO rate is searched on, aggregate ops/s.
const OPEN_RATE: f64 = 800_000.0;
const SLO_GRID: [f64; 7] = [0.4e6, 0.8e6, 1.2e6, 1.4e6, 1.5e6, 1.6e6, 1.7e6];
const SLO_P99_US: f64 = 25.0;
/// Paper Table 5: 64 B hash-get median latency, µs; Table 4: 64 B
/// dual-port hash-get throughput, ops/s.
const PAPER_GET64_P50_US: f64 = 5.7;
const PAPER_TPUT64_2PORT: f64 = 1_000_000.0;

#[derive(Clone, Copy, PartialEq)]
enum Shape {
    /// `clients` hash-get clients, closed loop.
    Closed { clients: usize },
    /// 8 hash-get clients, open loop at [`OPEN_RATE`].
    Open { clients: usize },
    /// 4 tenants × 2 clients packed on shared PUs, closed loop.
    Tenants,
}

/// Who is served: one operator's hash-get clients, or tenants packed by
/// the `TenantPacker`.
pub(super) enum Mix {
    Gets(usize),
    Tenants(Vec<TenantSpec>),
}

/// One testbed with its populated stores and the placed fleet spec;
/// the fleet or the driver is deployed on top.
pub(super) struct Rig {
    pub sim: Simulator,
    pub client: NodeId,
    pub server_node: NodeId,
    pub server: MemcachedServer,
    pub store: Option<ListStore>,
    pub ctx: OffloadCtx,
    pub spec: FleetSpec,
}

pub struct Serving {
    name: &'static str,
    shape: Shape,
    ops_per_client: u64,
    grid_ops_per_client: u64,
    keys: Vec<Vec<u64>>,
    gen_keys_per_s: f64,
    rig: Rig,
    fleet: ServingFleet,
}

fn tenant_specs() -> Vec<TenantSpec> {
    (0..4)
        .map(|t| {
            let spec = TenantSpec::new(format!("tenant-{t}"));
            let spec = if t % 2 == 0 {
                spec.with_gets(2, DEPTH, HashGetVariant::Sequential, true)
            } else {
                spec.with_walks(2, DEPTH, WALK_MAX_NODES, true)
            };
            if t == 0 {
                spec.rate_cap(RATE_CAP)
            } else {
                spec
            }
        })
        .collect()
}

impl Shape {
    fn mix(self) -> Mix {
        match self {
            Shape::Closed { clients } | Shape::Open { clients } => Mix::Gets(clients),
            Shape::Tenants => Mix::Tenants(tenant_specs()),
        }
    }
}

impl Rig {
    pub fn build(mix: &Mix, tr: &mut Tracer) -> Result<Rig> {
        tr.begin("testbed", "rnic_sim::sim");
        let (mut sim, client, server_node) = testbed();
        tr.end();
        tr.begin("populate", "redn_kv::memcached");
        let server = MemcachedServer::create(
            &mut sim,
            server_node,
            (NKEYS * 4).next_power_of_two(),
            VALUE_LEN,
            ProcessId(0),
        )?;
        server.populate(&mut sim, NKEYS)?;
        tr.end();
        let ctx = OffloadCtx::builder(server_node)
            .pool_capacity(1 << 24)
            .build(&mut sim)?;
        let spec = match mix {
            Mix::Gets(clients) => {
                FleetSpec::gets(*clients, DEPTH, HashGetVariant::Sequential, true)
            }
            Mix::Tenants(tenants) => {
                tr.begin("TenantPacker::pack", "redn_kv::tenancy");
                let packing =
                    TenantPacker::new(NicGeometry::of(&sim, server_node)).pack(tenants)?;
                tr.end();
                packing.into_fleet_spec()
            }
        };
        let nwalkers = spec.walk_clients();
        let store = if nwalkers > 0 {
            Some(ListStore::create(
                &mut sim,
                server_node,
                nwalkers as u64 * 8,
                WALK_MAX_NODES,
                VALUE_LEN,
                ProcessId(0),
            )?)
        } else {
            None
        };
        Ok(Rig {
            sim,
            client,
            server_node,
            server,
            store,
            ctx,
            spec,
        })
    }

    /// Deploy the fleet the measured passes run, one key list per
    /// hash-get client.
    pub fn fleet(&mut self, keys: &[Vec<u64>], tr: &mut Tracer) -> Result<ServingFleet> {
        tr.begin("ServingFleet::deploy", "redn_kv::serving");
        let fleet = ServingFleet::deploy(
            &mut self.sim,
            &mut self.ctx,
            &self.server,
            self.store.as_ref(),
            self.client,
            self.spec.clone(),
            keys.iter().cloned().map(Workload::from_keys).collect(),
        )?;
        tr.end();
        Ok(fleet)
    }

    /// The same deployment again, for the benchmark's own driver.
    pub fn driver(&mut self, keys: &[Vec<u64>]) -> Result<Driver> {
        Driver::deploy(
            &mut self.sim,
            &mut self.ctx,
            &self.server,
            self.store.as_ref(),
            self.client,
            &self.spec,
            keys.to_vec(),
        )
    }
}

/// Simulated results of a fleet pass and a driver pass on identical
/// input must be the same numbers.
fn assert_same(fleet: &FleetStats, own: &PassOut) -> Result<()> {
    let lat = (!own.sched.is_empty()).then(|| latency_stats(&own.sched));
    let same = fleet.ops == own.ops
        && fleet.elapsed == own.elapsed
        && fleet.timeouts == own.timeouts
        && fleet.latency.map(|l| (l.p50_us, l.p99_us)) == lat.map(|l| (l.p50_us, l.p99_us));
    if same {
        Ok(())
    } else {
        Err(Error::Verifier(format!(
            "the benchmark's driver diverged from the fleet generator: \
             fleet {} ops in {:?} ({:?}), driver {} ops in {:?} ({:?})",
            fleet.ops, fleet.elapsed, fleet.latency, own.ops, own.elapsed, lat
        )))
    }
}

/// The paper's claim, enforced on every fleet pass: the server CPU
/// stays out of the serving loop.
pub(super) fn server_cpu_idle(name: &str, stats: &FleetStats) -> Result<()> {
    if stats.host_arm_calls + stats.server_doorbells + stats.server_posts == 0 {
        return Ok(());
    }
    Err(Error::Verifier(format!(
        "{name}: server CPU touched the serving loop: {} arm calls, {} doorbells, {} posts",
        stats.host_arm_calls, stats.server_doorbells, stats.server_posts
    )))
}

/// Per-op host involvement of a fleet pass, and its const-pool mark.
pub(super) fn host_rows(stats: &FleetStats, out: &mut Ledger) {
    let ops = stats.ops.max(1) as f64;
    out.set("host.arm_calls_per_op", stats.host_arm_calls as f64 / ops);
    out.set(
        "host.server_doorbells_per_op",
        stats.server_doorbells as f64 / ops,
    );
    out.set("host.server_posts_per_op", stats.server_posts as f64 / ops);
    out.set(
        "host.client_doorbells_per_op",
        stats.client_doorbells as f64 / ops,
    );
    out.set("serving.pool_high_water", stats.pool_high_water as f64);
}

impl Serving {
    pub fn setup(name: &str, seed: u64, size: Size, tr: &mut Tracer) -> Result<Serving> {
        let (name, shape, full_ops) = match name {
            "get_closed" => ("get_closed", Shape::Closed { clients: 8 }, 1_500),
            "get_fanin" => ("get_fanin", Shape::Closed { clients: 64 }, 60),
            "get_open" => ("get_open", Shape::Open { clients: 8 }, 4_000),
            _ => ("tenants_mixed", Shape::Tenants, 1_250),
        };
        let ops_per_client = size.ops(full_ops, 20);
        tr.begin("setup", "benchmark");
        let mut rig = Rig::build(&shape.mix(), tr)?;
        let t0 = Instant::now();
        let keys = key_lists(
            &mut Rng::new(seed, 1),
            rig.spec.get_clients(),
            ops_per_client as usize,
            NKEYS,
        );
        let gen_keys_per_s =
            (keys.len() as u64 * ops_per_client) as f64 / t0.elapsed().as_secs_f64();
        let mut s = Serving {
            name,
            shape,
            ops_per_client,
            grid_ops_per_client: size.ops(1_000, 40),
            gen_keys_per_s,
            fleet: rig.fleet(&keys, tr)?,
            keys,
            rig,
        };
        tr.begin("warm-up", "benchmark");
        s.run_fleet(ops_per_client / 20)?;
        tr.end();
        tr.end();
        Ok(s)
    }

    fn run_fleet(&mut self, ops_per_client: u64) -> Result<FleetStats> {
        let Rig { sim, ctx, .. } = &mut self.rig;
        let stats = match self.shape {
            Shape::Closed { .. } | Shape::Tenants => {
                self.fleet
                    .run_closed_loop(sim, ctx.pool_mut(), ops_per_client, WINDOW)?
            }
            Shape::Open { clients } => self.fleet.run_open_loop(
                sim,
                ctx.pool_mut(),
                ops_per_client,
                OPEN_RATE / clients as f64,
            )?,
        };
        server_cpu_idle(self.name, &stats)?;
        Ok(stats)
    }

    fn run_driver(
        &self,
        rig: &mut Rig,
        driver: &mut Driver,
        ops_per_client: u64,
        check: bool,
        tr: &mut Tracer,
    ) -> Result<PassOut> {
        match self.shape {
            Shape::Closed { .. } | Shape::Tenants => {
                driver.closed(&mut rig.sim, ops_per_client, WINDOW, check, tr)
            }
            Shape::Open { clients } => driver.open(
                &mut rig.sim,
                ops_per_client,
                OPEN_RATE / clients as f64,
                check,
                tr,
            ),
        }
    }

    /// Highest grid rate with scheduled-time p99 within the limit, the
    /// offered rate achieved, and no time-outs; and the median at the
    /// lowest rate (the unloaded get latency).
    fn slo_grid(&mut self, clients: usize) -> Result<(f64, f64)> {
        let (mut best, mut unloaded_p50) = (0.0, 0.0);
        for (i, &rate) in SLO_GRID.iter().enumerate() {
            let Rig { sim, ctx, .. } = &mut self.rig;
            let stats = self.fleet.run_open_loop(
                sim,
                ctx.pool_mut(),
                self.grid_ops_per_client,
                rate / clients as f64,
            )?;
            let lat = stats
                .latency
                .ok_or(Error::InvalidWr("grid point reaped nothing"))?;
            if i == 0 {
                unloaded_p50 = lat.p50_us;
            }
            if lat.p99_us <= SLO_P99_US && stats.ops_per_sec >= 0.99 * rate && stats.timeouts == 0 {
                best = rate;
            }
        }
        Ok((best, unloaded_p50))
    }
}

fn fleet_latency(stats: &FleetStats) -> Option<Latency> {
    stats
        .latency
        .filter(|l| l.count / 100 >= stats::MIN_BEYOND)
        .map(|l| Latency {
            count: l.count,
            p50_us: l.p50_us,
            p99_us: l.p99_us,
        })
}

impl Bench for Serving {
    fn pass(&mut self) -> Result<Pass> {
        let stats = self.run_fleet(self.ops_per_client)?;
        Ok(Pass {
            ops: stats.ops,
            failed: stats.timeouts,
            sim_elapsed: stats.elapsed,
            latency: fleet_latency(&stats),
        })
    }

    fn check(&mut self) -> Result<Check> {
        let mut tr = Tracer::new(false);
        let mut rig = Rig::build(&self.shape.mix(), &mut tr)?;
        let mut driver = rig.driver(&self.keys)?;
        let before = counters(&rig.sim, &[rig.server_node]);
        let out = self.run_driver(&mut rig, &mut driver, self.ops_per_client, true, &mut tr)?;
        let after = counters(&rig.sim, &[rig.server_node]);
        if (after.doorbells, after.posts) != (before.doorbells, before.posts) {
            return Err(Error::Verifier(format!(
                "{}: server CPU rang doorbells or posted WQEs during the checked pass",
                self.name
            )));
        }
        Ok(Check {
            attempted: out.ops + out.timeouts,
            failed: out.wrong + out.timeouts,
            latency: None,
        })
    }

    fn sim_dram_bytes(&mut self) -> u64 {
        let Rig {
            sim,
            client,
            server_node,
            ..
        } = &mut self.rig;
        sim.mem(*client).allocated() + sim.mem(*server_node).allocated()
    }

    fn ledger(&mut self, seconds: f64, tr: &mut Tracer, out: &mut Ledger) -> Result<()> {
        // A second deployment for the driver, through the same history
        // (deploy, warm-up) as the fleet's, so pass i of one equals pass
        // i of the other in simulated terms.
        let mut quiet = Tracer::new(false);
        let mut rig = Rig::build(&self.shape.mix(), &mut quiet)?;
        tr.begin("Driver::deploy", "redn_kv::session");
        let mut driver = rig.driver(&self.keys)?;
        tr.end();
        self.run_driver(
            &mut rig,
            &mut driver,
            self.ops_per_client / 20,
            false,
            &mut quiet,
        )?;

        // Static rows: what lowering produced, what the verifier costs.
        driver.ir_rows(DEPTH, out);
        let verify_us: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(driver.verify());
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        let pairs = self.fleet.isolation_report().checked as f64;
        out.set("analysis.pairs_checked", pairs);
        out.set("analysis.verify_us", stats::median(&verify_us));
        out.set(
            "analysis.verify_us_per_pair",
            stats::median(&verify_us) / pairs.max(1.0),
        );
        out.set(
            "offloads.connect_get_us",
            stats::median(&driver.connect_get_us),
        );
        if !driver.connect_walk_us.is_empty() {
            out.set(
                "offloads.connect_walk_us",
                stats::median(&driver.connect_walk_us),
            );
        }
        out.set("gen.keys_per_s", self.gen_keys_per_s);
        for (row, span) in [
            ("setup.testbed_ms", "testbed"),
            ("setup.populate_ms", "populate"),
            ("setup.warmup_ms", "warm-up"),
            ("serving.deploy_ms", "ServingFleet::deploy"),
        ] {
            out.set(row, tr.span_ns(span).unwrap_or(0) as f64 / 1e6);
        }
        if let Some(ns) = tr.span_ns("TenantPacker::pack") {
            out.set("tenancy.pack_us", ns as f64 / 1e3);
        }

        // Alternate fleet / untraced driver / fleet / traced driver.
        let server = [self.rig.server_node];
        let mut fleet_ns = Vec::new();
        let mut traced_passes = Traced::default();
        let mut first: Option<(FleetStats, PassOut)> = None;
        tr.begin("passes", "benchmark");
        let t_all = Instant::now();
        let mut round = 0;
        while round < 2 || t_all.elapsed().as_secs_f64() < seconds {
            let traced = round % 2 == 1;
            let before = counters(&self.rig.sim, &server);
            let t0 = Instant::now();
            let stats = self.run_fleet(self.ops_per_client)?;
            fleet_ns.push(t0.elapsed().as_nanos() as f64 / stats.ops.max(1) as f64);
            if first.is_none() {
                let after = counters(&self.rig.sim, &server);
                layer_rows(&self.rig.sim, &server, &before, &after, stats.ops, out);
            }

            let events0 = rig.sim.events_processed();
            let t0 = Instant::now();
            let own = self.run_driver(
                &mut rig,
                &mut driver,
                self.ops_per_client,
                false,
                if traced { &mut *tr } else { &mut quiet },
            )?;
            let wall_ns = t0.elapsed().as_nanos() as f64;
            assert_same(&stats, &own)?;
            traced_passes.add(
                traced.then_some(&*tr),
                wall_ns,
                own.ops,
                rig.sim.events_processed() - events0,
                (own.reap_calls, own.reap_useful),
            );
            first.get_or_insert((stats, own));
            round += 1;
        }
        tr.end();
        let (stats, own) = first.expect("at least two rounds ran");
        host_rows(&stats, out);
        out.set("serving.run_ns_per_op", stats::median(&fleet_ns));
        out.set(
            "serving.generator_overhead",
            stats::median(&fleet_ns) / stats::median(&traced_passes.plain_ns_per_op),
        );
        traced_passes.rows(tr, out);

        match self.shape {
            Shape::Closed { clients: 8 } => out.set(
                "model.tput64_2port_err_pct",
                100.0 * (stats.ops_per_sec - PAPER_TPUT64_2PORT).abs() / PAPER_TPUT64_2PORT,
            ),
            Shape::Closed { .. } => {}
            Shape::Open { clients } => {
                if let Ok(lag) = stats::latency(&own.lag) {
                    out.set("serving.open_post_lag_p99_us", lag.p99_us);
                }
                let (slo_rate, p50) = self.slo_grid(clients)?;
                out.set("sim_slo_rate_ops_per_s", slo_rate);
                out.set(
                    "model.get64_p50_err_pct",
                    100.0 * (p50 - PAPER_GET64_P50_US).abs() / PAPER_GET64_P50_US,
                );
            }
            Shape::Tenants => {
                let t = &stats.per_tenant;
                let p99 = |i: usize| t[i].latency.map_or(0.0, |l| l.p99_us);
                out.set(
                    "tenancy.shed_posts_per_op",
                    t[0].shed_posts as f64 / t[0].ops.max(1) as f64,
                );
                out.set("tenancy.capped_ops_per_s", t[0].ops_per_sec);
                out.set("tenancy.uncapped_p99_us", p99(2));
                out.set("tenancy.walk_p99_us", p99(1).max(p99(3)));
            }
        }
        Ok(())
    }
}
