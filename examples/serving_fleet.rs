//! Serve a heterogeneous fleet — pipelined Memcached gets *and* linked
//! list walks on one NIC (§5.4's traffic shape over the §3.3/§3.4
//! offload mix) — and compare against the synchronous request path.
//!
//! ```text
//! cargo run --example serving_fleet
//! ```

use redn::core::ctx::OffloadCtx;
use redn::core::offloads::hash_lookup::HashGetVariant;
use redn::kv::liststore::ListStore;
use redn::kv::memcached::MemcachedServer;
use redn::kv::serving::{FleetSpec, ServiceSpec, ServingFleet};
use redn::kv::workload::Workload;
use redn_bench::servebench::sync_baseline_ops_per_sec;
use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::ids::ProcessId;
use rnic_sim::sim::Simulator;

const NKEYS: u64 = 1024;
const OPS_PER_CLIENT: u64 = 200;

fn testbed() -> (Simulator, rnic_sim::ids::NodeId, rnic_sim::ids::NodeId) {
    let mut sim = Simulator::new(SimConfig::default());
    let c = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    // Dual-port server: the fleet shards trigger points across both
    // ports' fetch engines (the paper's Table 4 configuration).
    let s = sim.add_node(
        "server",
        HostConfig::default(),
        NicConfig::connectx5().dual_port(),
    );
    sim.connect_nodes(c, s, LinkConfig::back_to_back());
    (sim, c, s)
}

fn main() {
    // Baseline: one client, one get at a time.
    let sync = {
        let (mut sim, c, s) = testbed();
        let server = MemcachedServer::create(&mut sim, s, 4096, 64, ProcessId(0)).unwrap();
        server.populate(&mut sim, NKEYS).unwrap();
        let mut ctx = OffloadCtx::builder(s)
            .pool_capacity(1 << 24)
            .build(&mut sim)
            .unwrap();
        let mut workload = Workload::sequential(1, NKEYS as usize);
        sync_baseline_ops_per_sec(
            &mut sim,
            &mut ctx,
            &server,
            c,
            HashGetVariant::Parallel,
            OPS_PER_CLIENT,
            &mut workload,
        )
        .unwrap()
    };
    println!("sync baseline (1 client, 1 in flight): {:>8.0} ops/s", sync);

    // The homogeneous fleet: 4 get clients x pipeline depth 8.
    let (mut sim, c, s) = testbed();
    let server = MemcachedServer::create(&mut sim, s, 4096, 64, ProcessId(0)).unwrap();
    server.populate(&mut sim, NKEYS).unwrap();
    let mut ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 24)
        .build(&mut sim)
        .unwrap();
    // §3.4 self-recycling: instances primed once, the NIC re-arms them
    // between rounds — zero host work per request.
    let spec = FleetSpec::gets(4, 8, HashGetVariant::Sequential, true);
    // Disjoint per-client key ranges, as in the isolation experiment.
    let workloads = Workload::split_sequential(NKEYS, 4);
    let mut fleet =
        ServingFleet::deploy(&mut sim, &mut ctx, &server, None, c, spec, workloads).unwrap();

    for k in [1u32, 2, 4, 8] {
        let stats = fleet
            .run_closed_loop(&mut sim, ctx.pool_mut(), OPS_PER_CLIENT, k)
            .unwrap();
        let lat = stats.latency.expect("ops completed");
        println!(
            "fleet closed loop K={k}: {:>8.0} ops/s  (avg {:.1} us, p99 {:.1} us, {:.2}x sync, \
             {} host arms, {} server doorbells)",
            stats.ops_per_sec,
            lat.avg_us,
            lat.p99_us,
            stats.ops_per_sec / sync,
            stats.host_arm_calls,
            stats.server_doorbells
        );
    }

    // Open loop at half the measured capacity: latency stays flat.
    let stats = fleet
        .run_open_loop(&mut sim, ctx.pool_mut(), OPS_PER_CLIENT, 100_000.0)
        .unwrap();
    let lat = stats.latency.expect("ops completed");
    println!(
        "fleet open loop @400K offered: {:>8.0} ops/s (sched p99 {:.1} us)",
        stats.ops_per_sec, lat.p99_us
    );

    // The heterogeneous fleet: 3 get services + 1 list-walk service,
    // both families self-recycling, side by side on one NIC.
    let (mut sim, c, s) = testbed();
    let server = MemcachedServer::create(&mut sim, s, 4096, 64, ProcessId(0)).unwrap();
    server.populate(&mut sim, NKEYS).unwrap();
    let store = ListStore::create(&mut sim, s, 8, 4, 64, ProcessId(0)).unwrap();
    let mut ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 24)
        .build(&mut sim)
        .unwrap();
    let spec = FleetSpec::new(vec![
        ServiceSpec::gets(3, 8, HashGetVariant::Sequential, true),
        ServiceSpec::walks(1, 8, store.nodes_per_list, true),
    ]);
    let workloads = Workload::split_sequential(NKEYS, 3);
    let mut fleet = ServingFleet::deploy(
        &mut sim,
        &mut ctx,
        &server,
        Some(&store),
        c,
        spec,
        workloads,
    )
    .unwrap();
    let stats = fleet
        .run_closed_loop(&mut sim, ctx.pool_mut(), OPS_PER_CLIENT, 8)
        .unwrap();
    println!(
        "mixed fleet (3 gets + 1 walk) K=8: {:>8.0} ops/s ({} gets, {} walks, {:.2}x sync, \
         {} host arms)",
        stats.ops_per_sec,
        stats.get_ops,
        stats.walk_ops,
        stats.ops_per_sec / sync,
        stats.host_arm_calls
    );
}
