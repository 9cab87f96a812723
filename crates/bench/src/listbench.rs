//! Linked-list traversal benchmark: Fig 13 (paper §5.3).
//!
//! One `ListStore` list of 8 nodes, 48-bit keys, 64 B values. "Range"
//! is the highest list position the requested key may occupy; keys are
//! drawn uniformly from positions `[0, range)`. Systems: RedN (no break,
//! through a `Session`), RedN+break (a builder deployment), one-sided
//! pointer chase, two-sided RPC.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use redn_core::ctx::OffloadCtx;
use redn_core::offloads::list::NODE_HEADER;
use redn_core::offloads::{rpc, OffloadService};
use rnic_sim::error::Result;
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::mem::Access;
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::{ListenMode, Simulator};
use rnic_sim::time::Time;
use rnic_sim::wqe::WorkRequest;

use redn_kv::endpoint::ClientEndpoint;
use redn_kv::liststore::ListStore;
use redn_kv::session::{Session, SessionOpts};

use crate::{run_until_cqe, testbed};

/// List length used throughout (the paper's constant).
pub const LIST_LEN: usize = 8;
/// Value bytes per node.
pub const VALUE_LEN: u32 = 64;

/// The Fig 13 testbed: one list of [`LIST_LEN`] nodes on the server.
fn list_rig() -> Result<(Simulator, NodeId, NodeId, ListStore)> {
    let (mut sim, client, server) = testbed();
    let store = ListStore::create(&mut sim, server, 1, LIST_LEN, VALUE_LEN, ProcessId(0))?;
    Ok((sim, client, server, store))
}

/// RedN list walk: average latency and *executed* WRs per walk for keys
/// at list positions in `[0, range)` (the paper's Fig 13 annotation
/// counts WRs actually used: ~50 without break vs ~30 with). Plain walks
/// go through one blocking [`Session`]; each `+break` walk uses a fresh
/// builder deployment (break instances are single-shot).
pub fn redn_walk(range: usize, with_break: bool, reps: usize) -> Result<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(42);
    let mut total = Time::ZERO;
    let mut total_wrs = 0usize;
    let (mut sim, client, server, store) = list_rig()?;
    let head = store.head(0);
    let mut plain = if with_break {
        None
    } else {
        let mut ctx = OffloadCtx::builder(server)
            .pool_capacity(1 << 20)
            .build(&mut sim)?;
        let opts = SessionOpts::blocking();
        let session = Session::connect_walk(&mut sim, &mut ctx, &store, client, LIST_LEN, opts)?;
        Some((ctx, session))
    };
    for _ in 0..reps {
        let key = store.key_of(0, rng.random_range(0..range));
        let verbs_before = sim.verbs_executed(server);
        total += match &mut plain {
            Some((ctx, session)) => {
                let (lat, found) = session.walk_blocking(&mut sim, ctx.pool_mut(), head, key)?;
                assert!(found, "walk response");
                lat
            }
            None => break_walk(&mut sim, (client, server), &store, key)?,
        };
        // Drain leftover events from the abandoned portion of the chain.
        sim.run()?;
        total_wrs += (sim.verbs_executed(server) - verbs_before) as usize;
    }
    Ok((
        total.as_us_f64() / reps as f64,
        total_wrs as f64 / reps as f64,
    ))
}

/// One `+break` walk for `key` on a fresh offload (and context): break
/// starves its control chain by design (the loop exited), so each
/// instance is one-shot, and it suppresses the completions a session
/// counts on. Returns the walk's latency.
fn break_walk(
    sim: &mut Simulator,
    (client, server): (NodeId, NodeId),
    store: &ListStore,
    key: u64,
) -> Result<Time> {
    let ep = ClientEndpoint::create(sim, client, VALUE_LEN)?;
    let mut ctx = OffloadCtx::builder(server)
        .pool_capacity(1 << 20)
        .build(sim)?;
    let mut off = store
        .walk_builder(&ctx)?
        .respond_to(ep.dest())
        .max_nodes(LIST_LEN)
        .break_on_match()
        .build(sim)?;
    sim.connect_qps(ep.qp, off.tp.qp)?;
    off.arm(sim, ctx.pool_mut())?;
    sim.post_recv(ep.qp, WorkRequest::recv(0, 0, 0))?;
    let payload = off.client_payload(store.head(0), key);
    sim.mem_write(client, ep.req_buf, &payload)?;
    let start = sim.now();
    sim.post_send(
        ep.qp,
        rpc::trigger_send(ep.req_buf, ep.req_lkey, payload.len() as u32),
    )?;
    let cqe = run_until_cqe(sim, ep.recv_cq)?.expect("walk response");
    Ok(cqe.time - start)
}

/// One-sided pointer chase: READ node-by-node from the client.
pub fn one_sided_walk(range: usize, reps: usize) -> Result<f64> {
    let mut rng = StdRng::seed_from_u64(42);
    let (mut sim, client, server, store) = list_rig()?;
    let list = store.mr();
    let node_size = NODE_HEADER + VALUE_LEN as u64;
    let ep = ClientEndpoint::create(&mut sim, client, VALUE_LEN)?;
    let scq = sim.create_cq(server, 16)?;
    let sqp = sim.create_qp(server, QpConfig::new(scq))?;
    sim.connect_qps(ep.qp, sqp)?;
    let buf = sim.alloc(client, node_size, 8)?;
    let bmr = sim.register_mr(client, buf, node_size, Access::all())?;
    let t_client = sim.host_config(client).t_client_op;

    let mut total = Time::ZERO;
    for _ in 0..reps {
        let key = store.key_of(0, rng.random_range(0..range));
        let start = sim.now();
        let mut addr = store.head(0);
        loop {
            // READ the whole node (header + value, as Pilaf-style chases
            // do to save a second read on a hit).
            sim.post_send(
                ep.qp,
                WorkRequest::read(buf, bmr.lkey, node_size as u32, addr, list.rkey).signaled(),
            )?;
            run_until_cqe(&mut sim, ep.cq)?.expect("read done");
            sim.run_for(t_client)?;
            let hdr = sim.mem_read(client, buf, 16)?;
            let next = u64::from_le_bytes(hdr[0..8].try_into().unwrap());
            let mut kb = [0u8; 8];
            kb[..6].copy_from_slice(&hdr[8..14]);
            if u64::from_le_bytes(kb) == key {
                break;
            }
            assert_ne!(next, 0, "key must exist");
            addr = next;
        }
        total += sim.now() - start;
    }
    Ok(total.as_us_f64() / reps as f64)
}

/// Two-sided list walk: SEND request; server thread walks the list on the
/// CPU (per-node walk cost) and WRITEs back.
pub fn two_sided_walk(range: usize, reps: usize) -> Result<f64> {
    let mut rng = StdRng::seed_from_u64(42);
    let (mut sim, client, server, store) = list_rig()?;
    sim.set_runnable_threads(server, 1);
    // RPC endpoint on the server.
    let send_cq = sim.create_cq(server, 256)?;
    let recv_cq = sim.create_cq(server, 256)?;
    let sqp = sim.create_qp(
        server,
        QpConfig::new(send_cq).recv_cq(recv_cq).rq_depth(256),
    )?;
    let ep = ClientEndpoint::create(&mut sim, client, VALUE_LEN)?;
    sim.connect_qps(ep.qp, sqp)?;
    let req_ring = sim.alloc(server, 256 * 32, 64)?;
    let rmr = sim.register_mr(server, req_ring, 256 * 32, Access::all())?;
    for i in 0..256u64 {
        sim.post_recv(sqp, WorkRequest::recv(req_ring + i * 32, rmr.lkey, 32))?;
    }
    // Server listener: parse [key, resp_addr, rkey], walk, respond.
    let (head, first_key) = (store.head(0), store.key_of(0, 0));
    let node_size = NODE_HEADER + VALUE_LEN as u64;
    let mut seq = 0u64;
    sim.set_cq_listener(
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
            let pos = key - first_key;
            let host = sim.host_config(server).clone();
            let cost =
                host.t_rpc_lookup * 2 + Time::from_us(3) + Time::from_ps(300_000 * (pos + 1));
            seq += 1;
            let finish = sim.host_execute(server, cost, seq);
            let value_addr = head + pos * node_size + NODE_HEADER;
            let imm = seq as u32;
            sim.at(
                finish,
                Box::new(move |sim| {
                    // The response reads the value straight from the
                    // node.
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
        let key = store.key_of(0, rng.random_range(0..range));
        let mut req = Vec::new();
        req.extend_from_slice(&key.to_le_bytes());
        req.extend_from_slice(&ep.resp_buf.to_le_bytes());
        req.extend_from_slice(&(ep.resp_rkey as u64).to_le_bytes());
        sim.mem_write(client, ep.req_buf, &req)?;
        sim.post_recv(ep.qp, WorkRequest::recv(0, 0, 0))?;
        let start = sim.now();
        sim.post_send(ep.qp, WorkRequest::send(ep.req_buf, ep.req_lkey, 24))?;
        run_until_cqe(&mut sim, ep.recv_cq)?.expect("rpc response");
        total += sim.now() - start;
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
