//! Linked-list traversal benchmark: Fig 13 (paper §5.3).
//!
//! List of 8 nodes, 48-bit keys, 64 B values. "Range" is the highest list
//! position the requested key may occupy; keys are drawn uniformly from
//! `[0, range)`. Systems: RedN (no break), RedN+break, one-sided pointer
//! chase, two-sided RPC.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use redn_core::ctx::{OffloadCtx, TableRegion};
use redn_core::offloads::list::{encode_node_into, NODE_HEADER};
use redn_core::offloads::{rpc, OffloadService};
use rnic_sim::error::Result;
use rnic_sim::mem::Access;
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::{ListenMode, Simulator};
use rnic_sim::time::Time;
use rnic_sim::wqe::WorkRequest;

use redn_kv::endpoint::{run_until_cqe, ClientEndpoint};

use crate::testbed;

/// List length used throughout (the paper's constant).
pub const LIST_LEN: usize = 8;
/// Value bytes per node.
pub const VALUE_LEN: u32 = 64;

struct ListRig {
    sim: Simulator,
    nodes_base: u64,
    list_mr: rnic_sim::mem::MemoryRegion,
    server: rnic_sim::ids::NodeId,
    client: rnic_sim::ids::NodeId,
}

fn build_list() -> Result<ListRig> {
    let (mut sim, client, server) = testbed();
    let node_size = NODE_HEADER + VALUE_LEN as u64;
    let base = sim.alloc(server, LIST_LEN as u64 * node_size, 64)?;
    let mr = sim.register_mr(server, base, LIST_LEN as u64 * node_size, Access::all())?;
    let mut bytes = Vec::new();
    for i in 0..LIST_LEN as u64 {
        let addr = base + i * node_size;
        let next = if i + 1 < LIST_LEN as u64 {
            addr + node_size
        } else {
            0
        };
        // Key of node i is 100 + i.
        let value = [(i + 1) as u8; VALUE_LEN as usize];
        encode_node_into(&mut bytes, next, 100 + i, &value);
        sim.mem_write(server, addr, &bytes)?;
    }
    Ok(ListRig {
        sim,
        nodes_base: base,
        list_mr: mr,
        server,
        client,
    })
}

/// RedN list walk: average latency and *executed* WRs per walk for keys
/// in `[0, range)` (the paper's Fig 13 annotation counts WRs actually
/// used: ~50 without break vs ~30 with). Each walk uses a fresh offload
/// when breaking (break instances are single-shot).
pub fn redn_walk(range: usize, with_break: bool, reps: usize) -> Result<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(42);
    let mut total = Time::ZERO;
    let mut total_wrs = 0usize;
    let mut served = 0usize;
    let mut rig = build_list()?;
    for _ in 0..reps {
        let pos = rng.random_range(0..range) as u64;
        let key = 100 + pos;
        // Fresh offload (and context) per walk: break starves its control
        // chain by design (the loop exited), so each instance is one-shot.
        let ep = ClientEndpoint::create(&mut rig.sim, rig.client, VALUE_LEN)?;
        let mut ctx = OffloadCtx::builder(rig.server)
            .pool_capacity(1 << 20)
            .build(&mut rig.sim)?;
        let mut b = ctx
            .list_walk()
            .list(TableRegion::of(&rig.list_mr))
            .value_len(VALUE_LEN)
            .respond_to(ep.dest())
            .max_nodes(LIST_LEN);
        if with_break {
            b = b.break_on_match();
        }
        let mut off = b.build(&mut rig.sim)?;
        rig.sim.connect_qps(ep.qp, off.tp.qp)?;
        off.arm(&mut rig.sim, ctx.pool_mut())?;
        let verbs_before = rig.sim.verbs_executed(rig.server);
        rig.sim.post_recv(ep.qp, WorkRequest::recv(0, 0, 0))?;
        let payload = off.client_payload(rig.nodes_base, key);
        rig.sim.mem_write(rig.client, ep.req_buf, &payload)?;
        let start = rig.sim.now();
        rig.sim.post_send(
            ep.qp,
            rpc::trigger_send(ep.req_buf, ep.req_lkey, payload.len() as u32),
        )?;
        let cqe = run_until_cqe(&mut rig.sim, ep.recv_cq)?.expect("walk response");
        total += cqe.time - start;
        served += 1;
        // Drain leftover events from the abandoned portion of the chain.
        rig.sim.run()?;
        total_wrs += (rig.sim.verbs_executed(rig.server) - verbs_before) as usize;
    }
    Ok((
        total.as_us_f64() / served as f64,
        total_wrs as f64 / reps as f64,
    ))
}

/// One-sided pointer chase: READ node-by-node from the client.
pub fn one_sided_walk(range: usize, reps: usize) -> Result<f64> {
    let mut rng = StdRng::seed_from_u64(42);
    let mut rig = build_list()?;
    let node_size = NODE_HEADER + VALUE_LEN as u64;
    let ep = ClientEndpoint::create(&mut rig.sim, rig.client, VALUE_LEN)?;
    let scq = rig.sim.create_cq(rig.server, 16)?;
    let sqp = rig.sim.create_qp(rig.server, QpConfig::new(scq))?;
    rig.sim.connect_qps(ep.qp, sqp)?;
    let buf = rig.sim.alloc(rig.client, node_size, 8)?;
    let bmr = rig
        .sim
        .register_mr(rig.client, buf, node_size, Access::all())?;
    let t_client = rig.sim.host_config(rig.client).t_client_op;

    let mut total = Time::ZERO;
    for _ in 0..reps {
        let pos = rng.random_range(0..range) as u64;
        let key = 100 + pos;
        let start = rig.sim.now();
        let mut addr = rig.nodes_base;
        loop {
            // READ the whole node (header + value, as Pilaf-style chases
            // do to save a second read on a hit).
            rig.sim.post_send(
                ep.qp,
                WorkRequest::read(buf, bmr.lkey, node_size as u32, addr, rig.list_mr.rkey)
                    .signaled(),
            )?;
            run_until_cqe(&mut rig.sim, ep.cq)?.expect("read done");
            rig.sim.run_for(t_client)?;
            let hdr = rig.sim.mem_read(rig.client, buf, 16)?;
            let next = u64::from_le_bytes(hdr[0..8].try_into().unwrap());
            let mut kb = [0u8; 8];
            kb[..6].copy_from_slice(&hdr[8..14]);
            if u64::from_le_bytes(kb) == key {
                break;
            }
            assert_ne!(next, 0, "key must exist");
            addr = next;
        }
        total += rig.sim.now() - start;
    }
    Ok(total.as_us_f64() / reps as f64)
}

/// Two-sided list walk: SEND request; server thread walks the list on the
/// CPU (per-node walk cost) and WRITEs back.
pub fn two_sided_walk(range: usize, reps: usize) -> Result<f64> {
    let mut rng = StdRng::seed_from_u64(42);
    let mut rig = build_list()?;
    let server = rig.server;
    rig.sim.set_runnable_threads(server, 1);
    // RPC endpoint on the server.
    let send_cq = rig.sim.create_cq(server, 256)?;
    let recv_cq = rig.sim.create_cq(server, 256)?;
    let sqp = rig.sim.create_qp(
        server,
        QpConfig::new(send_cq).recv_cq(recv_cq).rq_depth(256),
    )?;
    let ep = ClientEndpoint::create(&mut rig.sim, rig.client, VALUE_LEN)?;
    rig.sim.connect_qps(ep.qp, sqp)?;
    let req_ring = rig.sim.alloc(server, 256 * 32, 64)?;
    let rmr = rig
        .sim
        .register_mr(server, req_ring, 256 * 32, Access::all())?;
    for i in 0..256u64 {
        rig.sim
            .post_recv(sqp, WorkRequest::recv(req_ring + i * 32, rmr.lkey, 32))?;
    }
    // Server listener: parse [key, resp_addr, rkey], walk, respond.
    let nodes_base = rig.nodes_base;
    let node_size = NODE_HEADER + VALUE_LEN as u64;
    let mut seq = 0u64;
    rig.sim.set_cq_listener(
        recv_cq,
        ListenMode::Polling,
        Box::new(move |sim, cqe| {
            let slot = req_ring + (cqe.wqe_index % 256) * 32;
            let req = sim.mem_read(server, slot, 24).expect("request");
            let key = u64::from_le_bytes(req[0..8].try_into().unwrap());
            let resp_addr = u64::from_le_bytes(req[8..16].try_into().unwrap());
            let rkey = u64::from_le_bytes(req[16..24].try_into().unwrap()) as u32;
            // Walk on the CPU: request deserialization + list traversal
            // with pointer-chasing cache misses (~0.3 us per node) +
            // response marshaling. List RPCs are heavier than hash-table
            // gets.
            let hops = (key - 100 + 1) as u64;
            let host = sim.host_config(server).clone();
            let cost = host.t_rpc_lookup * 2 + Time::from_us(3) + Time::from_ps(300_000 * hops);
            seq += 1;
            let finish = sim.host_execute(server, cost, seq);
            let value_addr = nodes_base + (key - 100) * node_size + NODE_HEADER;
            let imm = seq as u32;
            sim.at(
                finish,
                Box::new(move |sim| {
                    // The list region is registered with full access; the
                    // response reads the value straight from the node.
                    let lkey = 0; // resolved below via a direct write
                    let _ = lkey;
                    let _ = sim.post_send(
                        sqp,
                        WorkRequest::write_imm(
                            value_addr, 0, // length-0 payloads skip the lkey check
                            0, resp_addr, rkey, imm,
                        ),
                    );
                }),
            );
        }),
    );

    let mut total = Time::ZERO;
    for _ in 0..reps {
        let pos = rng.random_range(0..range) as u64;
        let key = 100 + pos;
        let mut req = Vec::new();
        req.extend_from_slice(&key.to_le_bytes());
        req.extend_from_slice(&ep.resp_buf.to_le_bytes());
        req.extend_from_slice(&(ep.resp_rkey as u64).to_le_bytes());
        rig.sim.mem_write(rig.client, ep.req_buf, &req)?;
        rig.sim.post_recv(ep.qp, WorkRequest::recv(0, 0, 0))?;
        let start = rig.sim.now();
        rig.sim
            .post_send(ep.qp, WorkRequest::send(ep.req_buf, ep.req_lkey, 24))?;
        run_until_cqe(&mut rig.sim, ep.recv_cq)?.expect("rpc response");
        total += rig.sim.now() - start;
    }
    Ok(total.as_us_f64() / reps as f64)
}

/// One row of Fig 13: `(range, redn, redn_break, one_sided, two_sided,
/// redn_wrs, break_wrs)`.
pub type Fig13Row = (usize, f64, f64, f64, f64, f64, f64);

/// Fig 13 rows (see [`Fig13Row`]).
pub fn fig13() -> Result<Vec<Fig13Row>> {
    let mut out = Vec::new();
    for range in [1usize, 2, 4, 8] {
        let (redn, redn_wrs) = redn_walk(range, false, 8)?;
        let (brk, brk_wrs) = redn_walk(range, true, 8)?;
        let one = one_sided_walk(range, 8)?;
        let two = two_sided_walk(range, 8)?;
        out.push((range, redn, brk, one, two, redn_wrs, brk_wrs));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redn_beats_one_sided_at_deep_ranges() {
        let (redn, _) = redn_walk(8, false, 4).unwrap();
        let one = one_sided_walk(8, 4).unwrap();
        assert!(
            redn < one,
            "RedN {redn} should beat one-sided {one} at range 8 (paper: up to 2x)"
        );
    }

    #[test]
    fn break_saves_executed_wrs() {
        // The paper: without break ~50 WRs execute, with break ~30 — the
        // break abandons the rest of the walk after a hit.
        let (no_brk, wrs_plain) = redn_walk(2, false, 4).unwrap();
        let (brk, wrs_brk) = redn_walk(2, true, 4).unwrap();
        assert!(
            wrs_brk < wrs_plain,
            "break must execute fewer WRs: plain {wrs_plain} vs break {wrs_brk}"
        );
        assert!(brk > no_brk * 0.3, "sanity: {brk} vs {no_brk}");
    }

    #[test]
    fn one_sided_scales_with_range() {
        let shallow = one_sided_walk(1, 4).unwrap();
        let deep = one_sided_walk(8, 4).unwrap();
        assert!(
            deep > shallow * 1.8,
            "deep walks need more RTTs: {shallow} -> {deep}"
        );
    }
}
