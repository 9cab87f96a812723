//! Golden lowering numbers for the three serving families that share
//! `redn_core::offloads::service`'s frame: verbs per round before/after
//! the optimizer, recycled-ring slots and const-pool bytes placed. The
//! values are the ones the per-family deploys produced before the frame
//! existed — a refactor of the frame must not move any of them.

use redn::core::ctx::{ClientDest, ConstPoolBuilder, OffloadCtx, TableRegion, ValueSource};
use redn::core::ir::{DeployOpts, PassReport};
use redn::core::offloads::hash_lookup::HashGetVariant;
use redn::core::offloads::replicate::{ReplicationBuilder, ReplicationLog};
use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::mem::{Access, MemoryRegion};
use rnic_sim::sim::Simulator;

fn rig() -> (Simulator, NodeId, NodeId) {
    let mut sim = Simulator::new(SimConfig::default());
    let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let server = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
    sim.connect_nodes(client, server, LinkConfig::back_to_back());
    (sim, client, server)
}

fn region(sim: &mut Simulator, node: NodeId, len: u64) -> MemoryRegion {
    let addr = sim.alloc(node, len, 64).unwrap();
    sim.register_mr(node, addr, len, Access::all()).unwrap()
}

/// `(verbs before, verbs after, ring slots, pool bytes placed)`.
fn golden(rep: PassReport) -> (usize, usize, u32, u64) {
    (
        rep.before.total(),
        rep.after.total(),
        rep.ring_slots,
        rep.pool_bytes_placed,
    )
}

#[test]
fn hash_get_round_matches_parent() {
    for (variant, want) in [
        (HashGetVariant::Single, (70, 62, 54, 768)),
        (HashGetVariant::Sequential, (102, 86, 70, 1536)),
    ] {
        let (mut sim, client, server) = rig();
        let tmr = region(&mut sim, server, 8 * 16);
        let vmr = region(&mut sim, server, 8 * 64);
        let rmr = region(&mut sim, client, 8 * 8);
        let mut ctx = OffloadCtx::builder(server).build(&mut sim).unwrap();
        let off = ctx
            .hash_get()
            .table(TableRegion::of(&tmr))
            .values(ValueSource::of(&vmr, 8))
            .respond_to(ClientDest::of(&rmr))
            .variant(variant)
            .pipeline_depth(8)
            .build_recycled(&mut sim, ctx.pool_mut())
            .unwrap();
        let rep = off.ir_report().expect("recycled offloads carry a report");
        assert_eq!(golden(rep), want, "{variant:?}");
        assert_eq!(off.verbs_per_op(), Some(want.1 as f64 / 8.0));
    }
}

#[test]
fn list_walk_round_matches_parent() {
    let (mut sim, client, server) = rig();
    let lmr = region(&mut sim, server, 4 * 80);
    let rmr = region(&mut sim, client, 4 * 64);
    let mut ctx = OffloadCtx::builder(server).build(&mut sim).unwrap();
    let off = ctx
        .list_walk()
        .list(TableRegion::of(&lmr))
        .value_len(64)
        .respond_to(ClientDest::of(&rmr))
        .max_nodes(4)
        .pipeline_depth(4)
        .build_recycled(&mut sim, ctx.pool_mut())
        .unwrap();
    let rep = off.ir_report().expect("recycled offloads carry a report");
    assert_eq!(golden(rep), (86, 70, 54, 3088));
    assert_eq!(off.verbs_per_op(), Some(70.0 / 4.0));
}

#[test]
fn replication_round_matches_parent() {
    for (nbackups, want) in [(1usize, (50, 49, 41, 0)), (2, (74, 73, 61, 0))] {
        let (mut sim, client, primary) = rig();
        let mut mesh = vec![primary];
        let mut builder = ReplicationBuilder::new(primary, ProcessId(0))
            .value_len(16)
            .pipeline_depth(4)
            .ack_to(ClientDest::of(&region(&mut sim, client, 4 * 8)));
        for _ in 0..nbackups {
            let b = sim.add_node("backup", HostConfig::default(), NicConfig::connectx5());
            mesh.push(b);
            let log = ReplicationLog::create(&mut sim, b, ProcessId(0), 64, 16).unwrap();
            builder = builder.forward_to(&log);
        }
        sim.connect_mesh(&mesh, LinkConfig::back_to_back());
        let mut pool = ConstPoolBuilder::new(primary, ProcessId(0))
            .build(&mut sim)
            .unwrap();
        let repl = builder
            .build_recycled(&mut sim, &mut pool, DeployOpts::default())
            .unwrap();
        let rep = repl.ir_report().expect("chains are self-recycling");
        assert_eq!(golden(rep), want, "f={nbackups}");
        assert_eq!(repl.verbs_per_op(), want.1 as f64 / 4.0);
    }
}
