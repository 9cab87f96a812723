//! Determinism regression suite for the event engine.
//!
//! The engine's contract is that simulated results are a pure function of
//! the program — not of allocator state, hash order or anything else
//! that differs between two runs in one process. This suite runs the
//! tier-1 calibration set (Fig 7/8 points, Tables 1/3/4), a
//! serving-fleet throughput row, and a cluster failover run twice and
//! asserts the rendered results are byte-identical. A separate test
//! drives a traced multi-verb scenario repeatedly — also under
//! different values of the ignored `SimConfig.lanes` field — and
//! compares the raw event traces. A third runs a traced serving pass on
//! fresh, recycled and scribbled-over simulated DRAM.

use std::fmt::Write;

use redn_bench::clusterbench::{failover_point, ClusterSweepConfig};
use redn_bench::micro::{fig7, fig8, table1, table3};
use redn_bench::servebench::{closed_point, SweepConfig};
use redn_core::ctx::OffloadCtx;
use redn_core::offloads::hash_lookup::HashGetVariant;
use redn_kv::memcached::MemcachedServer;
use redn_kv::serving::{FleetSpec, ServingFleet};
use redn_kv::workload::Workload;
use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::ids::ProcessId;
use rnic_sim::mem::{Access, ARENA_BASE};
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::Simulator;
use rnic_sim::wqe::WorkRequest;

/// Render one full calibration + serving + failover pass as text.
fn calibration_pass() -> String {
    let mut out = String::new();
    for row in fig7().expect("fig7") {
        out.push_str(&format!("{row:?}\n"));
    }
    for point in fig8().expect("fig8") {
        out.push_str(&format!("{point:?}\n"));
    }
    for row in table1().expect("table1") {
        out.push_str(&format!("{row:?}\n"));
    }
    for row in table3().expect("table3") {
        out.push_str(&format!("{row:?}\n"));
    }
    // Table 4's dual-port serving shape, via the fleet row the committed
    // BENCH_throughput.small.json gates on (closed loop, K=8).
    let cfg = SweepConfig {
        clients: 2,
        ops_per_client: 50,
        ..SweepConfig::small()
    };
    let stats = closed_point(&cfg, 8).expect("closed point");
    out.push_str(&format!(
        "closed k=8: ops={} ops_per_sec={:.1} timeouts={} lat={:?} svc={:?}\n",
        stats.ops, stats.ops_per_sec, stats.timeouts, stats.latency, stats.service_latency
    ));
    // Cluster failover: detection/promote/re-replicate timings and
    // recovered-record counts all ride the event engine.
    let fo = failover_point(&ClusterSweepConfig::small()).expect("failover");
    out.push_str(&format!("{fo:?}\n"));
    out
}

#[test]
fn calibration_results_identical_across_runs() {
    assert_eq!(
        calibration_pass(),
        calibration_pass(),
        "two runs of the calibration set rendered differently"
    );
}

/// A traced two-node scenario mixing every verb family: WRITE, READ,
/// SEND/RECV (with an RNR park + retry), FETCH_ADD, and a WAIT chain.
fn traced_scenario(lanes: usize) -> Vec<String> {
    let cfg = SimConfig {
        lanes,
        trace: true,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(cfg);
    let a = sim.add_node("a", HostConfig::default(), NicConfig::connectx5());
    let b = sim.add_node("b", HostConfig::default(), NicConfig::connectx5());
    sim.connect_nodes(a, b, LinkConfig::back_to_back());
    let cq_a = sim.create_cq(a, 64).unwrap();
    let cq_b = sim.create_cq(b, 64).unwrap();
    let qp_a = sim.create_qp(a, QpConfig::new(cq_a)).unwrap();
    let qp_b = sim.create_qp(b, QpConfig::new(cq_b)).unwrap();
    sim.connect_qps(qp_a, qp_b).unwrap();

    let src = sim.alloc(a, 256, 8).unwrap();
    let smr = sim.register_mr(a, src, 256, Access::all()).unwrap();
    let dst = sim.alloc(b, 256, 8).unwrap();
    let dmr = sim.register_mr(b, dst, 256, Access::all()).unwrap();
    sim.mem_write_u64(a, src, 0xdead_beef).unwrap();

    // WRITE then READ back then an atomic on the remote word.
    sim.post_send(
        qp_a,
        WorkRequest::write(src, smr.lkey, 8, dst, dmr.rkey).signaled(),
    )
    .unwrap();
    sim.post_send(
        qp_a,
        WorkRequest::read(src + 64, smr.lkey, 8, dst, dmr.rkey).signaled(),
    )
    .unwrap();
    sim.post_send(
        qp_a,
        WorkRequest::fetch_add(dst, dmr.rkey, 3, src + 128, smr.lkey).signaled(),
    )
    .unwrap();
    // SEND with no RECV posted: parks on the RNR queue, retries once the
    // RECV lands (exercises the payload park/restore path).
    sim.post_send(qp_a, WorkRequest::send(src, smr.lkey, 32).signaled())
        .unwrap();
    sim.run().unwrap();
    sim.post_recv(qp_b, WorkRequest::recv(dst + 128, dmr.lkey, 64))
        .unwrap();
    sim.run().unwrap();

    let mut lines: Vec<String> = sim
        .trace()
        .events()
        .iter()
        .map(|(t, ev)| format!("{t:?} {ev:?}"))
        .collect();
    lines.push(format!("events={}", sim.events_processed()));
    lines.push(format!("cqes_a={}", sim.poll_cq(cq_a, 64).len()));
    lines.push(format!("cqes_b={}", sim.poll_cq(cq_b, 64).len()));
    lines
}

#[test]
fn event_trace_identical_across_lane_counts() {
    // `lanes` is accepted and ignored: one wheel, whatever it says.
    let one = traced_scenario(1);
    for lanes in [1, 4] {
        let n = traced_scenario(lanes);
        assert_eq!(one, n, "trace diverged at lanes={lanes}");
    }
    assert!(
        one.iter().any(|l| l.contains("MemWrite")),
        "trace actually recorded memory traffic"
    );
}

/// A traced closed-loop serving pass — two recycled hash-get clients, a
/// quarter of their keys missing — rendered as its fleet stats, its full
/// event trace and every byte it allocated in either node's arena.
fn traced_serving_pass() -> String {
    let cfg = SimConfig {
        trace: true,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(cfg);
    let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let nic = NicConfig::connectx5().dual_port();
    let server_node = sim.add_node("server", HostConfig::default(), nic);
    sim.connect_nodes(client, server_node, LinkConfig::back_to_back());
    let server = MemcachedServer::create(&mut sim, server_node, 512, 64, ProcessId(0)).unwrap();
    server.populate(&mut sim, 96).unwrap();
    let mut ctx = OffloadCtx::builder(server_node)
        .pool_capacity(1 << 20)
        .build(&mut sim)
        .unwrap();
    let spec = FleetSpec::gets(2, 4, HashGetVariant::Sequential, true);
    let keys = (0..2u64)
        .map(|c| Workload::from_keys((0..32).map(|i| 1 + (i * 7 + c) % 128).collect()))
        .collect();
    let mut fleet =
        ServingFleet::deploy(&mut sim, &mut ctx, &server, None, client, spec, keys).unwrap();
    let stats = fleet
        .run_closed_loop(&mut sim, ctx.pool_mut(), 32, 4)
        .unwrap();
    let mut out = format!("{stats:?}\n");
    for (t, ev) in sim.trace().events() {
        writeln!(out, "{t:?} {ev:?}").unwrap();
    }
    for node in [client, server_node] {
        let len = sim.mem(node).allocated();
        for word in sim.mem_read(node, ARENA_BASE, len).unwrap().chunks(64) {
            writeln!(out, "{word:02x?}").unwrap();
        }
    }
    out
}

/// Build a testbed of the same geometry and fill 4 MiB of each node's
/// arena with 0xFF, so the arenas it hands back are dirty.
fn scribble() {
    let mut sim = Simulator::new(SimConfig::default());
    for name in ["client", "server"] {
        let node = sim.add_node(name, HostConfig::default(), NicConfig::connectx5());
        let addr = sim.alloc(node, 4 << 20, 64).unwrap();
        sim.mem_write(node, addr, &vec![0xFF; 4 << 20]).unwrap();
    }
}

#[test]
fn recycled_dram_serves_exactly_like_fresh_dram() {
    let fresh = traced_serving_pass();
    let recycled = traced_serving_pass();
    scribble();
    let scrubbed = traced_serving_pass();
    let other_thread = std::thread::spawn(traced_serving_pass).join().unwrap();
    assert!(fresh.lines().count() > 1000, "the pass was traced");
    assert!(
        fresh == recycled,
        "a second pass on recycled arenas differs"
    );
    assert!(fresh == scrubbed, "a pass on scrubbed arenas differs");
    assert!(fresh == other_thread, "a pass on a fresh thread differs");
}
