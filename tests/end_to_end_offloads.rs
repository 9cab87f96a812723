//! Cross-crate integration: full client→NIC→client offload round trips
//! spanning rnic-sim, redn-core and redn-kv.

use redn::core::ctx::OffloadCtx;
use redn::core::offloads::hash_lookup::HashGetVariant;
use redn::kv::endpoint::ClientEndpoint;
use redn::kv::memcached::{redn_get, MemcachedServer};
use redn_bench::baselines::{two_sided_get, OneSidedClient, TwoSidedMode, TwoSidedServer};
use redn_bench::hopscotch::{HopscotchTable, NEIGHBORHOOD};
use redn_bench::testbed;
use rnic_sim::ids::ProcessId;

#[test]
fn memcached_get_three_frontends_agree() {
    // The same store, served three ways, must return the same value —
    // and in the paper's latency order.
    let (mut sim, c, s) = testbed();
    let mc = MemcachedServer::create(&mut sim, s, 1024, 64, ProcessId(0)).unwrap();
    mc.populate(&mut sim, 32).unwrap();
    sim.set_runnable_threads(s, 1);

    // RedN.
    let ep = ClientEndpoint::create(&mut sim, c, 64).unwrap();
    let mut ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 20)
        .build(&mut sim)
        .unwrap();
    let mut off = mc
        .redn_frontend(&mut sim, &ctx, ep.dest(), HashGetVariant::Parallel)
        .unwrap();
    sim.connect_qps(ep.qp, off.tp.qp).unwrap();
    let (redn_lat, found) = redn_get(&mut sim, &mut off, ctx.pool_mut(), &ep, &mc, 7).unwrap();
    assert!(found);
    let redn_value = sim.mem_read(c, ep.resp_buf, 1).unwrap()[0];

    // Two-sided through the VMA socket stack (the Fig 14 baseline; the
    // paper calls raw polling RPC "competitive", so the decisive gap is
    // against VMA).
    let rpc = TwoSidedServer::install(&mut sim, s, mc.table.clone(), TwoSidedMode::Vma, mc.owner)
        .unwrap();
    let ep2 = ClientEndpoint::create(&mut sim, c, 64).unwrap();
    sim.connect_qps(ep2.qp, rpc.qp).unwrap();
    let (two_lat, found) = two_sided_get(&mut sim, &ep2, 7).unwrap();
    assert!(found);
    let two_value = sim.mem_read(c, ep2.resp_buf, 1).unwrap()[0];

    assert_eq!(redn_value, two_value);
    assert_eq!(redn_value, 7);
    assert!(
        redn_lat < two_lat,
        "RedN {redn_lat:?} must beat two-sided {two_lat:?}"
    );
}

#[test]
fn one_sided_and_redn_read_identical_bytes() {
    let (mut sim, c, s) = testbed();
    let mut table = HopscotchTable::create(&mut sim, s, 512, 64, ProcessId(0)).unwrap();
    table
        .insert_at_candidate(&mut sim, 99, &[0xAB; 64], 0)
        .unwrap()
        .unwrap();

    let one = OneSidedClient::create(&mut sim, c, &table).unwrap();
    let (_, found) = one
        .get(&mut sim, 99, &table.candidates(99), NEIGHBORHOOD)
        .unwrap();
    assert!(found);
    assert_eq!(
        sim.mem_read(c, one.ep.resp_buf, 64).unwrap(),
        vec![0xAB; 64]
    );
}

#[test]
fn offload_serves_many_sequential_requests() {
    // Stress the arming/recycling path: 50 gets through one offload.
    let (mut sim, c, s) = testbed();
    let mc = MemcachedServer::create(&mut sim, s, 2048, 64, ProcessId(0)).unwrap();
    mc.populate(&mut sim, 64).unwrap();
    let ep = ClientEndpoint::create(&mut sim, c, 64).unwrap();
    let mut ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 22)
        .build(&mut sim)
        .unwrap();
    let mut off = mc
        .redn_frontend(&mut sim, &ctx, ep.dest(), HashGetVariant::Sequential)
        .unwrap();
    sim.connect_qps(ep.qp, off.tp.qp).unwrap();
    for i in 0..50u64 {
        let key = 1 + (i % 64);
        let (_, found) = redn_get(&mut sim, &mut off, ctx.pool_mut(), &ep, &mc, key).unwrap();
        assert!(found, "request {i} key {key}");
        assert_eq!(
            sim.mem_read(c, ep.resp_buf, 1).unwrap()[0],
            (key & 0xFF) as u8
        );
    }
    assert_eq!(off.armed(), 50);
}

#[test]
fn get_miss_never_responds_but_server_stays_healthy() {
    let (mut sim, c, s) = testbed();
    let mc = MemcachedServer::create(&mut sim, s, 1024, 64, ProcessId(0)).unwrap();
    mc.populate(&mut sim, 8).unwrap();
    let ep = ClientEndpoint::create(&mut sim, c, 64).unwrap();
    let mut ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 20)
        .build(&mut sim)
        .unwrap();
    let mut off = mc
        .redn_frontend(&mut sim, &ctx, ep.dest(), HashGetVariant::Parallel)
        .unwrap();
    sim.connect_qps(ep.qp, off.tp.qp).unwrap();
    // Miss, then hit: the failed CAS must not wedge the offload.
    let (_, found) = redn_get(&mut sim, &mut off, ctx.pool_mut(), &ep, &mc, 4040).unwrap();
    assert!(!found);
    let (_, found) = redn_get(&mut sim, &mut off, ctx.pool_mut(), &ep, &mc, 3).unwrap();
    assert!(found);
}
