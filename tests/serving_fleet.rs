//! End-to-end coverage of the pipelined serving layer: the ISSUE-2
//! acceptance bar (a fleet of >= 4 clients at pipeline depth >= 4
//! sustains >= 3x the throughput of back-to-back synchronous gets on
//! the same sim config) plus the typed Session post/reap API and the
//! deprecated free-function shims.

use redn::core::ctx::OffloadCtx;
use redn::core::offloads::hash_lookup::HashGetVariant;
use redn::kv::memcached::MemcachedServer;
use redn::kv::serving::{FleetSpec, ServingFleet};
use redn::kv::session::{Completion, Session, SessionOpts};
use redn::kv::workload::Workload;
use redn_bench::servebench::sync_baseline_ops_per_sec;
use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;

/// The serving testbed: dual-port server CX5 (Table 4's configuration —
/// the fleet shards trigger points across both ports' fetch engines).
fn testbed() -> (Simulator, NodeId, NodeId) {
    let mut sim = Simulator::new(SimConfig::default());
    let c = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let s = sim.add_node(
        "server",
        HostConfig::default(),
        NicConfig::connectx5().dual_port(),
    );
    sim.connect_nodes(c, s, LinkConfig::back_to_back());
    (sim, c, s)
}

fn stand_up(nkeys: u64) -> (Simulator, NodeId, MemcachedServer, OffloadCtx) {
    let (mut sim, c, s) = testbed();
    let server = MemcachedServer::create(&mut sim, s, 4096, 64, ProcessId(0)).unwrap();
    server.populate(&mut sim, nkeys).unwrap();
    let ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 24)
        .build(&mut sim)
        .unwrap();
    (sim, c, server, ctx)
}

#[test]
fn fleet_sustains_3x_the_synchronous_throughput() {
    const NKEYS: u64 = 1024;
    const OPS_PER_CLIENT: u64 = 150;

    // Baseline: back-to-back synchronous gets, same sim config.
    let sync_ops_per_sec = {
        let (mut sim, c, server, mut ctx) = stand_up(NKEYS);
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

    // Fleet: 4 clients, pipeline depth 4, closed loop with K=4, served
    // by self-recycling offloads (the NIC re-arms between rounds).
    let (mut sim, c, server, mut ctx) = stand_up(NKEYS);
    let spec = FleetSpec::gets(4, 4, HashGetVariant::Sequential, true);
    let workloads = Workload::split_sequential(NKEYS, 4);
    let mut fleet =
        ServingFleet::deploy(&mut sim, &mut ctx, &server, None, c, spec, workloads).unwrap();
    let stats = fleet
        .run_closed_loop(&mut sim, ctx.pool_mut(), OPS_PER_CLIENT, 4)
        .unwrap();

    assert_eq!(stats.ops, 4 * OPS_PER_CLIENT);
    assert_eq!(stats.timeouts, 0, "hit-only workload must not time out");
    assert_eq!(stats.host_arm_calls, 0, "the NIC re-arms, not the host");
    assert_eq!(stats.server_doorbells, 0, "no server MMIO in steady state");
    assert_eq!(stats.server_posts, 0, "no server posts in steady state");
    let speedup = stats.ops_per_sec / sync_ops_per_sec;
    assert!(
        speedup >= 3.0,
        "fleet {:.0} ops/s must be >= 3x sync {:.0} ops/s (got {:.2}x)",
        stats.ops_per_sec,
        sync_ops_per_sec,
        speedup
    );
}

#[test]
fn session_post_reap_round_trips_values_through_instance_slots() {
    let (mut sim, c, server, mut ctx) = stand_up(64);
    let mut session = Session::connect_get(
        &mut sim,
        &mut ctx,
        &server,
        c,
        HashGetVariant::Parallel,
        SessionOpts {
            pipeline_depth: 4,
            self_recycling: false,
            ..SessionOpts::default()
        },
    )
    .unwrap();

    // Post four gets back-to-back, then run and reap.
    let keys = [3u64, 17, 42, 60];
    let mut pending = Vec::new();
    for &k in &keys {
        pending.push(session.get(&mut sim, k).unwrap());
    }
    assert_eq!(session.endpoint().live_requests(), 4);
    sim.run().unwrap();
    let reaped = session.reap(&mut sim, 16);
    assert_eq!(reaped.len(), 4);
    assert_eq!(session.endpoint().live_requests(), 0);
    assert_eq!(session.endpoint().outstanding_recvs(), 0);
    for done in reaped {
        assert!(matches!(done, Completion::Get(_)), "typed get completion");
        let p = pending
            .iter()
            .find(|p| session.response_tag(p.instance) == done.tag())
            .expect("completion matches a posted request");
        // Each instance's value landed in its own slot, tagged by key.
        assert_eq!(
            session.read_value(&sim, p.instance, 1).unwrap()[0],
            (p.key & 0xFF) as u8,
            "key {} in slot {}",
            p.key,
            p.slot
        );
        session.complete();
    }
}

/// Successor of the removed free-function shim test (`redn_get_nb` /
/// `redn_get_burst` / `redn_reap` are gone): the same single + burst +
/// reap flow, expressed through the typed Session API that replaced
/// them.
#[test]
fn session_api_covers_the_old_free_function_flow() {
    use redn::kv::session::{Session, SessionOpts};

    let (mut sim, c, server, mut ctx) = stand_up(64);
    let mut session = Session::connect_get(
        &mut sim,
        &mut ctx,
        &server,
        c,
        HashGetVariant::Sequential,
        SessionOpts {
            pipeline_depth: 4,
            self_recycling: true,
            ..SessionOpts::default()
        },
    )
    .unwrap();

    let single = session.get(&mut sim, 7).unwrap();
    let burst = session.get_burst(&mut sim, &[11, 23]).unwrap();
    assert_eq!(burst.len(), 2);
    sim.run().unwrap();
    let reaped = session.reap(&mut sim, 8);
    assert_eq!(reaped.len(), 3, "session-posted gets all complete");
    for _ in 0..3 {
        session.complete();
    }
    assert_eq!(
        session.read_value(&sim, single.instance, 1).unwrap()[0],
        7,
        "single get lands in its slot"
    );
}

#[test]
fn open_loop_saturates_at_capacity_instead_of_wedging() {
    let (mut sim, c, server, mut ctx) = stand_up(512);
    let spec = FleetSpec::gets(4, 4, HashGetVariant::Sequential, true);
    let workloads = Workload::split_sequential(512, 4);
    let mut fleet =
        ServingFleet::deploy(&mut sim, &mut ctx, &server, None, c, spec, workloads).unwrap();
    // Offer ~3x the plausible capacity: the fleet must finish every op
    // (queueing, not dropping) with achieved throughput below offered.
    let stats = fleet
        .run_open_loop(&mut sim, ctx.pool_mut(), 60, 600_000.0)
        .unwrap();
    assert_eq!(stats.ops, 4 * 60);
    assert_eq!(stats.timeouts, 0);
    let offered = stats.offered_ops_per_sec.unwrap();
    assert!(
        stats.ops_per_sec < offered,
        "overload must show achieved {} < offered {offered}",
        stats.ops_per_sec
    );
    // Queueing delay is charged from the scheduled time: the
    // scheduled-time tail must dominate the service-time tail.
    let lat = stats.latency.unwrap();
    let svc = stats.service_latency.unwrap();
    assert!(
        lat.p99_us > lat.p50_us,
        "overload latency distribution has a tail"
    );
    assert!(
        lat.p99_us >= svc.p99_us,
        "scheduled-time p99 {} must cover service-time p99 {}",
        lat.p99_us,
        svc.p99_us
    );
}
