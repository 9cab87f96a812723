//! `deploy_churn`: short-lived sessions. Every iteration builds a fresh
//! testbed, populates 4,096 keys, packs and deploys 8 tenants × 4
//! clients (32 programs, 496 verifier pairs), serves one request per
//! client, and drops everything. Lowering, `ir::analysis`, the
//! `DeploymentVerifier` and the offload builders do nearly all the work
//! and the event engine almost none — the mirror image of `get_closed`.

use std::time::Instant;

use redn_core::offloads::hash_lookup::HashGetVariant;
use redn_kv::serving::FleetStats;
use redn_kv::tenancy::TenantSpec;
use rnic_sim::error::Result;
use rnic_sim::time::Time;

use super::serving::{host_rows, server_cpu_idle, Mix, Rig, DEPTH, NKEYS, WALK_MAX_NODES};
use super::{counters, layer_rows, Bench, Check, Pass, Size, Traced};
use crate::driver::PassOut;
use crate::gen::{key_lists, Rng};
use crate::metrics::Ledger;
use crate::stats;
use crate::trace::Tracer;

const TENANTS: usize = 8;
const CLIENTS_PER_TENANT: usize = 4;

pub struct Churn {
    seed: u64,
    rng: Rng,
    iters_per_pass: u64,
    check_iters: u64,
    dram_bytes: u64,
}

/// One iteration's inputs: which tenants run gets and which walks (half
/// each, order from the seed), and one key per hash-get client.
struct Inputs {
    mix: Mix,
    keys: Vec<Vec<u64>>,
}

fn inputs(rng: &mut Rng) -> Inputs {
    let mut walks: Vec<bool> = (0..TENANTS).map(|t| t % 2 == 1).collect();
    rng.shuffle(&mut walks);
    let tenants = walks
        .iter()
        .enumerate()
        .map(|(t, &walk)| {
            let spec = TenantSpec::new(format!("tenant-{t}"));
            if walk {
                spec.with_walks(CLIENTS_PER_TENANT, DEPTH, WALK_MAX_NODES, true)
            } else {
                spec.with_gets(CLIENTS_PER_TENANT, DEPTH, HashGetVariant::Sequential, true)
            }
        })
        .collect();
    let get_clients = walks.iter().filter(|w| !**w).count() * CLIENTS_PER_TENANT;
    Inputs {
        mix: Mix::Tenants(tenants),
        keys: key_lists(rng, get_clients, 1, NKEYS),
    }
}

/// Testbed → populate → pack → deploy the fleet → one request per
/// client. The rig is dropped on return.
fn fleet_iteration(inp: &Inputs, tr: &mut Tracer) -> Result<(FleetStats, u64)> {
    let mut rig = Rig::build(&inp.mix, tr)?;
    let mut fleet = rig.fleet(&inp.keys, tr)?;
    tr.begin("run_closed_loop", "redn_kv::serving");
    let stats = fleet.run_closed_loop(&mut rig.sim, rig.ctx.pool_mut(), 1, 1)?;
    tr.end();
    server_cpu_idle("deploy_churn", &stats)?;
    let dram = rig.sim.mem(rig.client).allocated() + rig.sim.mem(rig.server_node).allocated();
    Ok((stats, dram))
}

impl Churn {
    pub fn setup(seed: u64, size: Size, tr: &mut Tracer) -> Result<Churn> {
        tr.begin("setup", "benchmark");
        let mut rng = Rng::new(seed, 1);
        tr.begin("warm-up", "benchmark");
        let (_, dram_bytes) = fleet_iteration(&inputs(&mut rng), tr)?;
        tr.end();
        tr.end();
        Ok(Churn {
            seed,
            rng,
            iters_per_pass: size.ops(10, 1),
            // 32 requests an iteration: 32 iterations give the checked
            // pass the 1,024 latencies a p99 needs.
            check_iters: size.ops(32, 1),
            dram_bytes,
        })
    }
}

impl Bench for Churn {
    fn pass(&mut self) -> Result<Pass> {
        let mut quiet = Tracer::new(false);
        let mut pass = Pass {
            ops: 0,
            failed: 0,
            sim_elapsed: Time::ZERO,
            latency: None,
        };
        for _ in 0..self.iters_per_pass {
            let (stats, _) = fleet_iteration(&inputs(&mut self.rng), &mut quiet)?;
            pass.ops += stats.ops;
            pass.failed += stats.timeouts;
            pass.sim_elapsed += stats.elapsed;
        }
        Ok(pass)
    }

    fn check(&mut self) -> Result<Check> {
        let mut quiet = Tracer::new(false);
        let mut rng = Rng::new(self.seed, 2);
        let (mut attempted, mut failed) = (0, 0);
        let mut latencies = Vec::new();
        for _ in 0..self.check_iters {
            let inp = inputs(&mut rng);
            let mut rig = Rig::build(&inp.mix, &mut quiet)?;
            let mut driver = rig.driver(&inp.keys)?;
            let out: PassOut = driver.closed(&mut rig.sim, 1, 1, true, &mut quiet)?;
            attempted += out.ops + out.timeouts;
            failed += out.wrong + out.timeouts;
            latencies.extend(out.sched);
        }
        Ok(Check {
            attempted,
            failed,
            latency: stats::latency(&latencies).ok(),
        })
    }

    fn sim_dram_bytes(&mut self) -> u64 {
        self.dram_bytes
    }

    fn ledger(&mut self, seconds: f64, tr: &mut Tracer, out: &mut Ledger) -> Result<()> {
        // Alternate a fleet iteration (timed call by call) with an
        // iteration through the benchmark's driver (connect times, the
        // verifier re-run, laps around the one request per client).
        let mut quiet = Tracer::new(false);
        let mut ms: [Vec<f64>; 5] = Default::default();
        let spans = [
            "testbed",
            "populate",
            "TenantPacker::pack",
            "ServingFleet::deploy",
            "run_closed_loop",
        ];
        let (mut connect_get, mut connect_walk, mut verify_us) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut traced_passes = Traced::default();
        let mut pairs = 0.0;
        let t_all = Instant::now();
        let mut round = 0;
        while round < 2 || t_all.elapsed().as_secs_f64() < seconds {
            let inp = inputs(&mut self.rng);
            // Timed call by call on a scratch tracer: the trace already
            // holds one iteration's spans (the warm-up) and stays small.
            let t = &mut Tracer::new(true);
            let mut rig = Rig::build(&inp.mix, t)?;
            let mut fleet = rig.fleet(&inp.keys, t)?;
            let server = [rig.server_node];
            let before = counters(&rig.sim, &server);
            t.begin("run_closed_loop", "redn_kv::serving");
            let stats = fleet.run_closed_loop(&mut rig.sim, rig.ctx.pool_mut(), 1, 1)?;
            t.end();
            for (v, span) in ms.iter_mut().zip(spans) {
                v.push(t.span_ns(span).unwrap_or(0) as f64 / 1e6);
            }
            if round == 0 {
                let after = counters(&rig.sim, &server);
                layer_rows(&rig.sim, &server, &before, &after, stats.ops, out);
                host_rows(&stats, out);
                pairs = fleet.isolation_report().checked as f64;
            }
            drop((fleet, rig));

            let mut rig = Rig::build(&inp.mix, &mut quiet)?;
            let mut driver = rig.driver(&inp.keys)?;
            connect_get.extend_from_slice(&driver.connect_get_us);
            connect_walk.extend_from_slice(&driver.connect_walk_us);
            let t0 = Instant::now();
            std::hint::black_box(driver.verify());
            verify_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if round == 0 {
                driver.ir_rows(DEPTH, out);
            }
            let events0 = rig.sim.events_processed();
            let t0 = Instant::now();
            let own = driver.closed(&mut rig.sim, 1, 1, false, tr)?;
            traced_passes.add(
                Some(tr),
                t0.elapsed().as_nanos() as f64,
                own.ops,
                rig.sim.events_processed() - events0,
                (own.reap_calls, own.reap_useful),
            );
            round += 1;
        }
        for (row, v) in ["setup.testbed_ms", "setup.populate_ms"].iter().zip(&ms) {
            out.set(row, stats::median(v));
        }
        out.set("tenancy.pack_us", stats::median(&ms[2]) * 1e3);
        out.set("serving.deploy_ms", stats::median(&ms[3]));
        out.set(
            "serving.run_ns_per_op",
            stats::median(&ms[4]) * 1e6 / (TENANTS * CLIENTS_PER_TENANT) as f64,
        );
        out.set(
            "setup.warmup_ms",
            tr.span_ns("warm-up").unwrap_or(0) as f64 / 1e6,
        );
        out.set("offloads.connect_get_us", stats::median(&connect_get));
        out.set("offloads.connect_walk_us", stats::median(&connect_walk));
        out.set("analysis.pairs_checked", pairs);
        out.set("analysis.verify_us", stats::median(&verify_us));
        out.set(
            "analysis.verify_us_per_pair",
            stats::median(&verify_us) / pairs.max(1.0),
        );
        traced_passes.rows(tr, out);
        Ok(())
    }
}
