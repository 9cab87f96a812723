//! Heterogeneous-fleet coverage (ISSUE-4): hash-get and list-walk
//! services deployed side by side on one simulated NIC, driven through
//! typed sessions, completing correctly — plus a proptest round-trip
//! for the list-node payload encoding the walk offload consumes.

use proptest::prelude::*;
use redn::core::ctx::OffloadCtx;
use redn::core::offloads::hash_lookup::HashGetVariant;
use redn::core::offloads::list::{encode_node_into, NODE_HEADER};
use redn::kv::liststore::ListStore;
use redn::kv::memcached::MemcachedServer;
use redn::kv::serving::{FleetSpec, ServiceSpec, ServingFleet};
use redn::kv::session::{Session, SessionOpts};
use redn::kv::workload::Workload;
use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;

fn stand_up(nkeys: u64) -> (Simulator, NodeId, MemcachedServer, ListStore, OffloadCtx) {
    let mut sim = Simulator::new(SimConfig::default());
    let c = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let s = sim.add_node(
        "server",
        HostConfig::default(),
        NicConfig::connectx5().dual_port(),
    );
    sim.connect_nodes(c, s, LinkConfig::back_to_back());
    let server = MemcachedServer::create(&mut sim, s, 4096, 64, ProcessId(0)).unwrap();
    server.populate(&mut sim, nkeys).unwrap();
    let store = ListStore::create(&mut sim, s, 16, 4, 64, ProcessId(0)).unwrap();
    let ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 24)
        .build(&mut sim)
        .unwrap();
    (sim, c, server, store, ctx)
}

/// Gets and walks complete side by side on one simulator through a
/// heterogeneous fleet, with zero steady-state host involvement for
/// both self-recycling families.
#[test]
fn mixed_fleet_completes_gets_and_walks_side_by_side() {
    const NKEYS: u64 = 512;
    const OPS_PER_CLIENT: u64 = 60;
    let (mut sim, c, server, store, mut ctx) = stand_up(NKEYS);
    let spec = FleetSpec::new(vec![
        ServiceSpec::gets(2, 4, HashGetVariant::Sequential, true),
        ServiceSpec::walks(2, 4, store.nodes_per_list, true),
    ]);
    let workloads = Workload::split_sequential(NKEYS, 2);
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
        .run_closed_loop(&mut sim, ctx.pool_mut(), OPS_PER_CLIENT, 4)
        .unwrap();
    assert_eq!(stats.ops, 4 * OPS_PER_CLIENT);
    assert_eq!(stats.get_ops, 2 * OPS_PER_CLIENT, "every get completes");
    assert_eq!(stats.walk_ops, 2 * OPS_PER_CLIENT, "every walk completes");
    assert_eq!(stats.timeouts, 0, "hit-only mixed workload");
    assert_eq!(stats.host_arm_calls, 0, "both families self-recycle");
    assert_eq!(stats.get_arm_calls, 0);
    assert_eq!(stats.walk_arm_calls, 0);
    assert_eq!(stats.server_doorbells, 0, "no server MMIO in steady state");
    assert_eq!(stats.server_posts, 0, "no server posts in steady state");
    assert!(stats.latency.is_some(), "latencies recorded across the mix");
}

/// Value correctness across the mix: one get session and one walk
/// session interleave bursts on one simulator; every completion's value
/// lands in the right slot with the right tag byte.
#[test]
fn mixed_sessions_interleave_with_correct_values() {
    let (mut sim, c, server, store, mut ctx) = stand_up(64);
    let opts = SessionOpts {
        pipeline_depth: 4,
        self_recycling: true,
        ..SessionOpts::default()
    };
    let mut gets = Session::connect_get(
        &mut sim,
        &mut ctx,
        &server,
        c,
        HashGetVariant::Sequential,
        opts,
    )
    .unwrap();
    let mut walks = Session::connect_walk(
        &mut sim,
        &mut ctx,
        &store,
        c,
        store.nodes_per_list,
        SessionOpts { pu_base: 2, ..opts },
    )
    .unwrap();

    let get_keys = [5u64, 21, 48, 60];
    let walk_reqs: Vec<(u64, u64)> = (0..4u64)
        .map(|l| (store.head(l), store.key_of(l, (l % 4) as usize)))
        .collect();
    // Interleave: two gets, the walks, the remaining gets — one
    // simulator carries both families at once.
    let mut get_pending = gets.get_burst(&mut sim, &get_keys[..2]).unwrap().to_vec();
    let walk_pending = walks.walk_burst(&mut sim, &walk_reqs).unwrap().to_vec();
    get_pending.extend_from_slice(gets.get_burst(&mut sim, &get_keys[2..]).unwrap());
    sim.run().unwrap();

    let get_done = gets.reap(&mut sim, 16);
    assert_eq!(get_done.len(), 4, "all gets respond");
    for done in &get_done {
        let p = get_pending
            .iter()
            .find(|p| gets.response_tag(p.instance) == done.tag())
            .expect("get completion matches");
        assert_eq!(
            gets.read_value(&sim, p.instance, 1).unwrap()[0],
            (p.key & 0xFF) as u8
        );
        gets.complete();
    }
    let walk_done = walks.reap(&mut sim, 16);
    assert_eq!(walk_done.len(), 4, "all walks respond");
    for done in &walk_done {
        let p = walk_pending
            .iter()
            .find(|p| walks.response_tag(p.instance) == done.tag())
            .expect("walk completion matches");
        assert_eq!(
            walks.read_value(&sim, p.instance, 1).unwrap()[0],
            (p.key & 0xFF) as u8
        );
        walks.complete();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode_node_into is a faithful round-trip for every field the walk
    /// offload reads: the next pointer, the 48-bit key (the offload's
    /// operand width), and the value bytes.
    #[test]
    fn encode_node_round_trips(
        next in any::<u64>(),
        key in 1u64..(1 << 48),
        value in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut bytes = vec![0xEE; 200];
        encode_node_into(&mut bytes, next, key, &value);
        prop_assert_eq!(bytes.len(), NODE_HEADER as usize + value.len());
        let got_next = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        prop_assert_eq!(got_next, next);
        let mut k = [0u8; 8];
        k[..6].copy_from_slice(&bytes[8..14]);
        prop_assert_eq!(u64::from_le_bytes(k), key & 0xFFFF_FFFF_FFFF);
        prop_assert_eq!(&bytes[8..14], &key.to_le_bytes()[..6]);
        prop_assert_eq!(&bytes[14..16], &[0u8, 0u8]);
        prop_assert_eq!(&bytes[NODE_HEADER as usize..], &value[..]);
    }
}
