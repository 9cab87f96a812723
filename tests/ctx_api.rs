//! End-to-end coverage of the fluent `OffloadCtx` deployment API: the
//! hash-get offload deployed entirely through the context (typed
//! capabilities, no raw keys), exercised against both of the paper's
//! baselines — mirroring `examples/kv_offload.rs`.

use redn::core::ctx::{ClientDest, OffloadCtx, TableRegion, ValueSource};
use redn::core::offloads::hash_lookup::HashGetVariant;
use redn::kv::endpoint::ClientEndpoint;
use redn::kv::memcached::{redn_get, MemcachedServer};
use redn::prelude::*;
use redn_bench::baselines::{two_sided_get, OneSidedClient, TwoSidedMode, TwoSidedServer};
use redn_bench::hopscotch::{HopscotchTable, NEIGHBORHOOD};
use redn_bench::testbed;
use rnic_sim::ids::ProcessId;

#[test]
fn hash_get_deployed_via_ctx_round_trips_against_baselines() {
    let (mut sim, client, server) = testbed();

    // A Memcached-like store with 100 keys of 64 B values.
    let mc = MemcachedServer::create(&mut sim, server, 1024, 64, ProcessId(0)).unwrap();
    mc.populate(&mut sim, 100).unwrap();
    sim.set_runnable_threads(server, 1);

    // RedN frontend, deployed through the fluent context.
    let ep = ClientEndpoint::create(&mut sim, client, 64).unwrap();
    let mut ctx = OffloadCtx::builder(server)
        .owner(ProcessId(0))
        .pool_capacity(1 << 20)
        .build(&mut sim)
        .unwrap();
    let mut off = mc
        .redn_frontend(&mut sim, &ctx, ep.dest(), HashGetVariant::Parallel)
        .unwrap();
    assert_eq!(off.variant(), HashGetVariant::Parallel);
    sim.connect_qps(ep.qp, off.tp.qp).unwrap();
    let (redn_lat, found) = redn_get(&mut sim, &mut off, ctx.pool_mut(), &ep, &mc, 42).unwrap();
    assert!(found, "RedN get must hit");
    let redn_value = sim.mem_read(client, ep.resp_buf, 1).unwrap()[0];
    assert_eq!(redn_value, 42, "value round-trips through the NIC");

    // Two-sided VMA baseline on the same store.
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
    assert_eq!(
        sim.mem_read(client, ep2.resp_buf, 1).unwrap()[0],
        redn_value
    );

    // One-sided baseline on a hopscotch table holding the same key.
    let mut hs = HopscotchTable::create(&mut sim, server, 1024, 64, ProcessId(0)).unwrap();
    hs.insert(&mut sim, 42, &[42u8; 64]).unwrap();
    let one = OneSidedClient::create(&mut sim, client, &hs).unwrap();
    let (one_lat, found) = one
        .get(&mut sim, 42, &hs.candidates(42), NEIGHBORHOOD)
        .unwrap();
    assert!(found);
    assert_eq!(
        sim.mem_read(client, one.ep.resp_buf, 1).unwrap()[0],
        redn_value
    );

    // The paper's Fig 14 ordering: RedN beats both baselines.
    assert!(
        redn_lat < one_lat && redn_lat < vma_lat,
        "RedN {redn_lat:?} must beat one-sided {one_lat:?} and VMA {vma_lat:?}"
    );
}

#[test]
fn ctx_hash_get_with_explicit_capabilities() {
    // The low-level deployment path: capabilities built straight from
    // registered regions, no kv-crate helpers.
    let (mut sim, client, server) = testbed();
    use redn::core::offloads::hash_lookup::{encode_bucket, BUCKET_SIZE};

    let table = sim.alloc(server, 8 * BUCKET_SIZE, 64).unwrap();
    let tmr = sim
        .register_mr(server, table, 8 * BUCKET_SIZE, Access::all())
        .unwrap();
    let values = sim.alloc(server, 8 * 8, 64).unwrap();
    let vmr = sim
        .register_mr(server, values, 8 * 8, Access::all())
        .unwrap();
    sim.mem_write_u64(server, values, 0xABCD).unwrap();
    let bucket = encode_bucket(values, 7);
    sim.mem_write(server, table, &bucket).unwrap();

    let ep = ClientEndpoint::create(&mut sim, client, 8).unwrap();
    let mut ctx = OffloadCtx::new(&mut sim, server).unwrap();
    let mut off = ctx
        .hash_get()
        .table(TableRegion::of(&tmr))
        .values(ValueSource::of(&vmr, 8))
        .respond_to(ClientDest::new(ep.resp_buf, ep.dest().rkey()))
        .variant(HashGetVariant::Single)
        .build(&mut sim)
        .unwrap();
    sim.connect_qps(ep.qp, off.tp.qp).unwrap();

    off.arm(&mut sim, ctx.pool_mut()).unwrap();
    sim.post_recv(ep.qp, rnic_sim::wqe::WorkRequest::recv(0, 0, 0))
        .unwrap();
    let payload = off.client_payload(7, &[table]);
    sim.mem_write(client, ep.req_buf, &payload).unwrap();
    sim.post_send(
        ep.qp,
        redn::core::offloads::rpc::trigger_send(ep.req_buf, ep.req_lkey, payload.len() as u32),
    )
    .unwrap();
    sim.run().unwrap();
    assert_eq!(sim.poll_cq(ep.recv_cq, 4).len(), 1);
    assert_eq!(sim.mem_read_u64(client, ep.resp_buf).unwrap(), 0xABCD);
}

#[test]
fn ctx_builders_reject_missing_capabilities() {
    let (mut sim, _client, server) = testbed();
    let ctx = OffloadCtx::new(&mut sim, server).unwrap();
    // A deployment missing its table capability must fail loudly, not
    // deploy a broken offload.
    let err = match ctx.hash_get().build(&mut sim) {
        Err(e) => e,
        Ok(_) => panic!("hash-get deployment without a table must fail"),
    };
    assert!(format!("{err}").contains(".table("), "got: {err}");
    let err = match ctx.list_walk().build(&mut sim) {
        Err(e) => e,
        Ok(_) => panic!("list-walk deployment without a list must fail"),
    };
    assert!(format!("{err}").contains(".list("), "got: {err}");
}
