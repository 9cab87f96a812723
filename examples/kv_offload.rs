//! Key-value get offload (Fig 9 / §5.4): a Memcached-like store whose
//! `get`s are served by the NIC, next to the paper's two baselines.
//!
//! ```text
//! cargo run --example kv_offload
//! ```

use redn::core::ctx::OffloadCtx;
use redn::core::offloads::hash_lookup::HashGetVariant;
use redn::kv::endpoint::ClientEndpoint;
use redn::kv::memcached::{redn_get, MemcachedServer};
use redn::prelude::*;
use redn_bench::baselines::{two_sided_get, OneSidedClient, TwoSidedMode, TwoSidedServer};
use redn_bench::hopscotch::{HopscotchTable, NEIGHBORHOOD};
use rnic_sim::config::{LinkConfig, SimConfig};
use rnic_sim::ids::ProcessId;

fn main() {
    let mut sim = Simulator::new(SimConfig::default());
    let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let server = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
    sim.connect_nodes(client, server, LinkConfig::back_to_back());

    // A Memcached-like store with 100 keys of 64 B values.
    let mc = MemcachedServer::create(&mut sim, server, 1024, 64, ProcessId(0)).unwrap();
    mc.populate(&mut sim, 100).unwrap();
    sim.set_runnable_threads(server, 1);

    // RedN frontend: gets answered by the NIC. The offload context owns
    // the server-side resources; the client only hands over a typed
    // response capability (no raw keys).
    let ep = ClientEndpoint::create(&mut sim, client, 64).unwrap();
    let mut ctx = OffloadCtx::builder(server)
        .pool_capacity(1 << 20)
        .build(&mut sim)
        .unwrap();
    let mut off = mc
        .redn_frontend(&mut sim, &ctx, ep.dest(), HashGetVariant::Parallel)
        .unwrap();
    sim.connect_qps(ep.qp, off.tp.qp).unwrap();
    let (redn_lat, found) = redn_get(&mut sim, &mut off, ctx.pool_mut(), &ep, &mc, 42).unwrap();
    assert!(found);
    let v = sim.mem_read(client, ep.resp_buf, 1).unwrap()[0];
    println!(
        "RedN get(42)      -> value {v:#04x} in {:.2} us (zero server CPU)",
        redn_lat.as_us_f64()
    );

    // Two-sided VMA baseline.
    let vma = TwoSidedServer::install(
        &mut sim,
        server,
        mc.table.clone(),
        TwoSidedMode::Vma,
        mc.owner,
    )
    .unwrap();
    let ep2 = ClientEndpoint::create(&mut sim, client, 64).unwrap();
    sim.connect_qps(ep2.qp, vma.qp).unwrap();
    let (vma_lat, found) = two_sided_get(&mut sim, &ep2, 42).unwrap();
    assert!(found);
    println!(
        "two-sided get(42) -> {:.2} us over the VMA socket stack",
        vma_lat.as_us_f64()
    );

    // One-sided baseline on a hopscotch table with the same data.
    let mut hs = HopscotchTable::create(&mut sim, server, 1024, 64, ProcessId(0)).unwrap();
    hs.insert(&mut sim, 42, &[42u8; 64]).unwrap();
    let one = OneSidedClient::create(&mut sim, client, &hs).unwrap();
    let (one_lat, found) = one
        .get(&mut sim, 42, &hs.candidates(42), NEIGHBORHOOD)
        .unwrap();
    assert!(found);
    println!(
        "one-sided get(42) -> {:.2} us across two READ round trips",
        one_lat.as_us_f64()
    );

    println!(
        "\nRedN wins: {:.1}x vs one-sided, {:.1}x vs two-sided (paper Fig 14: up to 1.7x / 2.6x)",
        one_lat.as_us_f64() / redn_lat.as_us_f64(),
        vma_lat.as_us_f64() / redn_lat.as_us_f64()
    );
}
