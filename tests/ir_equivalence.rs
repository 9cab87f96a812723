//! Optimized ≡ unoptimized: for random Turing machines and random
//! hash-get / list-walk workloads, the IR's optimized lowering (WAIT
//! elision, restore merging, const deduplication) and the naive lowering
//! must produce **byte-identical final memory and responses** — the
//! semantic-preservation property every pass is held to.

use proptest::prelude::*;
use redn::core::ctx::{ClientDest, OffloadCtx, TableRegion, ValueSource};
use redn::core::ir::DeployOpts;
use redn::core::offloads::hash_lookup::{encode_bucket, HashGetVariant, BUCKET_SIZE};
use redn::core::offloads::list::encode_node_into;
use redn::core::program::ConstPool;
use redn::core::turing::compile::CompiledTm;
use redn::core::turing::machine::{Move, Rule, TuringMachine};
use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::Simulator;
use rnic_sim::wqe::WorkRequest;

const OPT: DeployOpts = DeployOpts {
    optimize: true,
    verify: true,
};
const NAIVE: DeployOpts = DeployOpts {
    optimize: false,
    verify: true,
};

// ---------------------------------------------------------------------
// Random Turing machines
// ---------------------------------------------------------------------

/// Build a total, deterministic machine from raw rule choices: state
/// count 2 + halt, alphabet 2, one rule per (state, symbol).
fn machine_from(choices: &[(u8, u8, u8)]) -> TuringMachine {
    let states = 3u32; // states 0, 1 non-halting; 2 = halt
    let symbols = 2u32;
    let mut rules = Vec::new();
    for (i, &(write, mv, next)) in choices.iter().enumerate() {
        let state = (i as u32) / symbols;
        let read = (i as u32) % symbols;
        rules.push(Rule {
            state,
            read,
            write: (write as u32) % symbols,
            mv: match mv % 3 {
                0 => Move::Left,
                1 => Move::Right,
                _ => Move::Stay,
            },
            next: (next as u32) % states,
        });
    }
    TuringMachine {
        states,
        symbols,
        start: 0,
        halt: 2,
        rules,
    }
}

fn run_tm(
    tm: &TuringMachine,
    tape: &[u32],
    head: usize,
    opts: DeployOpts,
) -> (Vec<u32>, bool, u64) {
    let mut sim = Simulator::new(SimConfig::default());
    let node = sim.add_node("tm", HostConfig::default(), NicConfig::connectx5());
    let mut pool = ConstPool::create(&mut sim, node, 1 << 17, ProcessId(0)).unwrap();
    let compiled = CompiledTm::compile_in_pool_with(
        &mut sim,
        node,
        ProcessId(0),
        &mut pool,
        tm,
        tape,
        head,
        opts,
    )
    .unwrap();
    sim.run().unwrap();
    (
        compiled.read_tape(&sim).unwrap(),
        compiled.halted(&sim).unwrap(),
        compiled.steps(&sim),
    )
}

// ---------------------------------------------------------------------
// Hash-get workloads
// ---------------------------------------------------------------------

struct GetRig {
    sim: Simulator,
    client: NodeId,
    table: u64,
    resp: u64,
    cqp: rnic_sim::ids::QpId,
    crecv_cq: rnic_sim::ids::CqId,
    csrc: u64,
    csrc_lkey: u32,
    off: redn::core::offloads::hash_lookup::HashGetOffload,
}

/// Stand up one server with `nkeys` populated buckets (key `100+i`,
/// value `0xA0+i`) and a recycled Single-probe offload deployed with
/// `opts`.
fn get_rig(nkeys: u64, depth: u32, opts: DeployOpts) -> GetRig {
    let mut sim = Simulator::new(SimConfig::default());
    let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let server = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
    sim.connect_nodes(client, server, LinkConfig::back_to_back());
    let table = sim.alloc(server, nkeys * BUCKET_SIZE, 64).unwrap();
    let tmr = sim
        .register_mr(server, table, nkeys * BUCKET_SIZE, Access::all())
        .unwrap();
    let values = sim.alloc(server, nkeys * 64, 64).unwrap();
    let vmr = sim
        .register_mr(server, values, nkeys * 64, Access::all())
        .unwrap();
    for i in 0..nkeys {
        let vaddr = values + i * 64;
        sim.mem_write_u64(server, vaddr, 0xA0 + i).unwrap();
        let b = encode_bucket(vaddr, 100 + i);
        sim.mem_write(server, table + i * BUCKET_SIZE, &b).unwrap();
    }
    let resp = sim.alloc(client, 8 * depth as u64, 8).unwrap();
    let rmr = sim
        .register_mr(client, resp, 8 * depth as u64, Access::all())
        .unwrap();
    let csrc = sim.alloc(client, 64, 8).unwrap();
    let smr = sim.register_mr(client, csrc, 64, Access::all()).unwrap();
    let ccq = sim.create_cq(client, 256).unwrap();
    let crecv_cq = sim.create_cq(client, 256).unwrap();
    let cqp = sim
        .create_qp(client, QpConfig::new(ccq).recv_cq(crecv_cq))
        .unwrap();
    let ctx = OffloadCtx::builder(server).build(&mut sim).unwrap();
    let mut pool = ConstPool::create(&mut sim, server, 1 << 20, ProcessId(0)).unwrap();
    let off = ctx
        .hash_get()
        .table(TableRegion::of(&tmr))
        .values(ValueSource::of(&vmr, 8))
        .respond_to(ClientDest::of(&rmr))
        .variant(HashGetVariant::Single)
        .pipeline_depth(depth)
        .build_recycled_with(&mut sim, &mut pool, opts)
        .unwrap();
    sim.connect_qps(cqp, off.tp.qp).unwrap();
    GetRig {
        sim,
        client,
        table,
        resp,
        cqp,
        crecv_cq,
        csrc,
        csrc_lkey: smr.lkey,
        off,
    }
}

/// Run a key sequence synchronously; returns per-request hit/miss and the
/// final bytes of the whole response buffer.
fn run_gets(r: &mut GetRig, nkeys: u64, depth: u32, keys: &[u64]) -> (Vec<bool>, Vec<u8>) {
    let mut hits = Vec::new();
    for &key in keys {
        // Key 100+i lives in bucket i; out-of-range keys probe the
        // congruent bucket and miss.
        let bucket = r.table + ((key - 100) % nkeys) * BUCKET_SIZE;
        let _ = r.off.take_instance().unwrap();
        r.sim.post_recv(r.cqp, WorkRequest::recv(0, 0, 0)).unwrap();
        let payload = r.off.client_payload(key, &[bucket]);
        r.sim.mem_write(r.client, r.csrc, &payload).unwrap();
        r.sim
            .post_send(
                r.cqp,
                WorkRequest::send(r.csrc, r.csrc_lkey, payload.len() as u32),
            )
            .unwrap();
        r.sim.run().unwrap();
        hits.push(!r.sim.poll_cq(r.crecv_cq, 8).is_empty());
        r.off.complete_instance();
    }
    let buf = r
        .sim
        .mem_read(r.client, r.resp, 8 * depth as u64)
        .unwrap()
        .to_vec();
    (hits, buf)
}

// ---------------------------------------------------------------------
// List-walk workloads
// ---------------------------------------------------------------------

struct WalkRig {
    sim: Simulator,
    client: NodeId,
    head: u64,
    resp: u64,
    cqp: rnic_sim::ids::QpId,
    crecv_cq: rnic_sim::ids::CqId,
    csrc: u64,
    csrc_lkey: u32,
    off: redn::core::offloads::list::ListWalkOffload,
}

const WALK_VAL: u32 = 16;

fn walk_rig(list_keys: &[u64], depth: u32, opts: DeployOpts) -> WalkRig {
    let mut sim = Simulator::new(SimConfig::default());
    let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let server = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
    sim.connect_nodes(client, server, LinkConfig::back_to_back());
    let node_size = 16 + WALK_VAL as u64;
    let n = list_keys.len() as u64;
    let nodes = sim.alloc(server, n * node_size, 64).unwrap();
    let lmr = sim
        .register_mr(server, nodes, n * node_size, Access::all())
        .unwrap();
    let mut bytes = Vec::new();
    for (i, &k) in list_keys.iter().enumerate() {
        let addr = nodes + i as u64 * node_size;
        let next = if (i as u64) + 1 < n {
            addr + node_size
        } else {
            0
        };
        let value = vec![(i + 1) as u8; WALK_VAL as usize];
        encode_node_into(&mut bytes, next, k, &value);
        sim.mem_write(server, addr, &bytes).unwrap();
    }
    let resp_len = WALK_VAL as u64 * depth as u64;
    let resp = sim.alloc(client, resp_len, 8).unwrap();
    let rmr = sim
        .register_mr(client, resp, resp_len, Access::all())
        .unwrap();
    let csrc = sim.alloc(client, 256, 8).unwrap();
    let smr = sim.register_mr(client, csrc, 256, Access::all()).unwrap();
    let ccq = sim.create_cq(client, 256).unwrap();
    let crecv_cq = sim.create_cq(client, 256).unwrap();
    let cqp = sim
        .create_qp(client, QpConfig::new(ccq).recv_cq(crecv_cq))
        .unwrap();
    let ctx = OffloadCtx::builder(server).build(&mut sim).unwrap();
    let mut pool = ConstPool::create(&mut sim, server, 1 << 20, ProcessId(0)).unwrap();
    let off = ctx
        .list_walk()
        .list(TableRegion::of(&lmr))
        .value_len(WALK_VAL)
        .respond_to(ClientDest::of(&rmr))
        .max_nodes(list_keys.len())
        .pipeline_depth(depth)
        .build_recycled_with(&mut sim, &mut pool, opts)
        .unwrap();
    sim.connect_qps(cqp, off.tp.qp).unwrap();
    WalkRig {
        sim,
        client,
        head: nodes,
        resp,
        cqp,
        crecv_cq,
        csrc,
        csrc_lkey: smr.lkey,
        off,
    }
}

fn run_walks(r: &mut WalkRig, depth: u32, keys: &[u64]) -> (Vec<bool>, Vec<u8>) {
    let mut hits = Vec::new();
    for &key in keys {
        let _ = r.off.take_instance().unwrap();
        r.sim.post_recv(r.cqp, WorkRequest::recv(0, 0, 0)).unwrap();
        let payload = r.off.client_payload(r.head, key);
        r.sim.mem_write(r.client, r.csrc, &payload).unwrap();
        r.sim
            .post_send(
                r.cqp,
                WorkRequest::send(r.csrc, r.csrc_lkey, payload.len() as u32),
            )
            .unwrap();
        r.sim.run().unwrap();
        hits.push(!r.sim.poll_cq(r.crecv_cq, 8).is_empty());
        r.off.complete_instance();
    }
    let buf = r
        .sim
        .mem_read(r.client, r.resp, WALK_VAL as u64 * depth as u64)
        .unwrap()
        .to_vec();
    (hits, buf)
}

use rnic_sim::mem::Access;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random (total, deterministic) Turing machines: the optimized and
    /// naive lowerings must agree with each other *and* with the
    /// reference interpreter on the final tape, halting, and step count.
    #[test]
    fn random_tms_agree_between_lowerings(
        choices in prop::collection::vec((0u8..2, 0u8..3, 0u8..3), 4..5),
        tape_bits in prop::collection::vec(0u32..2, 5..8),
        head_pick in 0usize..5,
    ) {
        prop_assume!(choices.len() == 4); // one rule per (state, symbol)
        let tm = machine_from(&choices);
        prop_assert!(tm.validate().is_ok());
        let head = head_pick % tape_bits.len();
        // Only compare machines the reference halts within budget —
        // non-halting ones never drain the simulator.
        let reference = tm.run(&tape_bits, head, 128);
        prop_assume!(reference.halted);

        let (tape_o, halted_o, steps_o) = run_tm(&tm, &tape_bits, head, OPT);
        let (tape_n, halted_n, steps_n) = run_tm(&tm, &tape_bits, head, NAIVE);
        prop_assert_eq!(&tape_o, &reference.tape, "optimized vs reference");
        prop_assert_eq!(&tape_n, &reference.tape, "naive vs reference");
        prop_assert!(halted_o && halted_n);
        prop_assert_eq!(steps_o, reference.steps);
        prop_assert_eq!(steps_n, reference.steps);
    }

    /// Random hash-get workloads (hits and misses interleaved): identical
    /// hit/miss patterns and byte-identical client response buffers under
    /// both lowerings.
    #[test]
    fn random_hash_workloads_agree_between_lowerings(
        keys in prop::collection::vec(100u64..116, 1..24),
    ) {
        let (nkeys, depth) = (8u64, 4u32);
        let mut opt = get_rig(nkeys, depth, OPT);
        let mut naive = get_rig(nkeys, depth, NAIVE);
        let (hits_o, buf_o) = run_gets(&mut opt, nkeys, depth, &keys);
        let (hits_n, buf_n) = run_gets(&mut naive, nkeys, depth, &keys);
        // Sanity: keys < 108 hit, the rest miss.
        for (k, h) in keys.iter().zip(&hits_o) {
            prop_assert_eq!(*h, *k < 100 + nkeys, "key {}", k);
        }
        prop_assert_eq!(hits_o, hits_n, "hit/miss patterns diverge");
        prop_assert_eq!(buf_o, buf_n, "response buffers diverge");
    }

    /// Random list-walk workloads: identical hit/miss patterns and
    /// byte-identical response buffers under both lowerings.
    #[test]
    fn random_list_workloads_agree_between_lowerings(
        keys in prop::collection::vec(40u64..52, 1..16),
    ) {
        let list_keys = [40u64, 41, 42, 43, 44];
        let depth = 2u32;
        let mut opt = walk_rig(&list_keys, depth, OPT);
        let mut naive = walk_rig(&list_keys, depth, NAIVE);
        let (hits_o, buf_o) = run_walks(&mut opt, depth, &keys);
        let (hits_n, buf_n) = run_walks(&mut naive, depth, &keys);
        for (k, h) in keys.iter().zip(&hits_o) {
            prop_assert_eq!(*h, list_keys.contains(k), "key {}", k);
        }
        prop_assert_eq!(hits_o, hits_n, "hit/miss patterns diverge");
        prop_assert_eq!(buf_o, buf_n, "response buffers diverge");
    }
}
