//! Cross-crate integration: full client→NIC→client offload round trips
//! spanning rnic-sim, redn-core and redn-kv.

use redn::core::ctx::OffloadCtx;
use redn::core::offloads::hash_lookup::HashGetVariant;
use redn::kv::endpoint::ClientEndpoint;
use redn::kv::memcached::MemcachedServer;
use redn::kv::session::{Session, SessionOpts};
use redn_bench::baselines::{
    two_sided_get, OneSidedClient, TwoSidedMode, TwoSidedServer, NEIGHBORHOOD,
};
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
    let mut ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 20)
        .build(&mut sim)
        .unwrap();
    let (variant, opts) = (HashGetVariant::Parallel, SessionOpts::blocking());
    let mut redn = Session::connect_get(&mut sim, &mut ctx, &mc, c, variant, opts).unwrap();
    let (redn_lat, found) = redn.get_blocking(&mut sim, ctx.pool_mut(), 7).unwrap();
    assert!(found);
    let redn_value = sim.mem_read(c, redn.endpoint().resp_buf, 1).unwrap()[0];

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
    let mc = MemcachedServer::create(&mut sim, s, 512, 64, ProcessId(0)).unwrap();
    let placed = mc
        .table
        .borrow_mut()
        .insert_at_candidate(&mut sim, 99, &[0xAB; 64], 0)
        .unwrap();
    assert!(placed);

    let one = OneSidedClient::create(&mut sim, c, &mc).unwrap();
    let (_, found) = one.get(&mut sim, 99, NEIGHBORHOOD).unwrap();
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
    let mut ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 22)
        .build(&mut sim)
        .unwrap();
    let (variant, opts) = (HashGetVariant::Sequential, SessionOpts::blocking());
    let mut redn = Session::connect_get(&mut sim, &mut ctx, &mc, c, variant, opts).unwrap();
    for i in 0..50u64 {
        let key = 1 + (i % 64);
        let (_, found) = redn.get_blocking(&mut sim, ctx.pool_mut(), key).unwrap();
        assert!(found, "request {i} key {key}");
        assert_eq!(
            sim.mem_read(c, redn.endpoint().resp_buf, 1).unwrap()[0],
            (key & 0xFF) as u8
        );
    }
    assert_eq!(redn.service().armed(), 50);
}

#[test]
fn get_miss_never_responds_but_server_stays_healthy() {
    let (mut sim, c, s) = testbed();
    let mc = MemcachedServer::create(&mut sim, s, 1024, 64, ProcessId(0)).unwrap();
    mc.populate(&mut sim, 8).unwrap();
    let mut ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 20)
        .build(&mut sim)
        .unwrap();
    let (variant, opts) = (HashGetVariant::Parallel, SessionOpts::blocking());
    let mut redn = Session::connect_get(&mut sim, &mut ctx, &mc, c, variant, opts).unwrap();
    // Miss, then hit: the failed CAS must not wedge the offload.
    let (_, found) = redn.get_blocking(&mut sim, ctx.pool_mut(), 4040).unwrap();
    assert!(!found);
    let (_, found) = redn.get_blocking(&mut sim, ctx.pool_mut(), 3).unwrap();
    assert!(found);
}
