//! Byte-level golden of IR lowering.
//!
//! `tests/offload_frame_golden.rs` pins verb *counts*; a slot-order or
//! pool-order slip in `redn_core::ir::lower` would not move them. This
//! test deploys every shipped program shape on a traced simulator and,
//! before a single event runs, renders what lowering left behind: every
//! posted WQE slot of every send queue (ring and bound) as hex, each
//! queue's `sq_posted` / `rq_posted` / doorbell / host-ENABLE counts,
//! the const pool's bytes up to `used()` (pristine images, SGE tables
//! and resolved trigger scatter lists live there), and the `PassReport`.
//! The concatenation must equal `tests/golden/lowering.txt` byte for
//! byte.
//!
//! It reads queues through `rnic_sim`'s public accessors only (no
//! lowering handle), so it compiles unchanged on either side of a
//! lowering refactor — which is the point: generate the file at the
//! parent commit, apply the refactor, run this unmodified.
//!
//! Regenerate (only when a PR *says* it changes what programs lower to):
//! `UPDATE_GOLDEN=1 cargo test --test lowering_golden`.

use std::fmt::Write as _;

use redn::core::ctx::{ClientDest, OffloadCtx, TableRegion, ValueSource};
use redn::core::ir::{DeployOpts, IrProgram, Kind, OpBuild, PassReport, RingSpec, WaitCond};
use redn::core::offloads::hash_lookup::HashGetVariant;
use redn::core::offloads::replicate::ReplicationLog;
use redn::core::offloads::OffloadService;
use redn::core::program::ConstPool;
use redn::core::turing::compile::CompiledTm;
use redn::core::turing::machine::TuringMachine;
use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::ids::{NodeId, ProcessId, QpId};
use rnic_sim::mem::{Access, MemoryRegion};
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::Simulator;
use rnic_sim::trace::TraceEvent;
use rnic_sim::wqe::{WorkRequest, WQE_SIZE};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lowering.txt");

struct Rig {
    sim: Simulator,
    client: NodeId,
    server: NodeId,
    /// Holds nothing but the QPs `dump` creates to learn how many exist.
    probe: NodeId,
}

fn rig() -> Rig {
    let mut sim = Simulator::new(SimConfig {
        trace: true,
        ..SimConfig::default()
    });
    let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let server = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
    let probe = sim.add_node("probe", HostConfig::default(), NicConfig::connectx5());
    sim.connect_nodes(client, server, LinkConfig::back_to_back());
    Rig {
        sim,
        client,
        server,
        probe,
    }
}

fn region(sim: &mut Simulator, node: NodeId, len: u64) -> MemoryRegion {
    let addr = sim.alloc(node, len, 64).unwrap();
    sim.register_mr(node, addr, len, Access::all()).unwrap()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        write!(s, "{b:02x}").unwrap();
        s
    })
}

fn opts(optimize: bool) -> DeployOpts {
    DeployOpts {
        optimize,
        verify: true,
    }
}

/// Render everything lowering left on `r.sim`: one block per send queue
/// (QP ids are dense, so a QP created on the probe node bounds them),
/// then the pool.
fn dump(out: &mut String, label: &str, r: &mut Rig, pool: &ConstPool, rep: Option<PassReport>) {
    writeln!(out, "== {label}").unwrap();
    match rep {
        Some(rep) => writeln!(out, "report: {rep:?}").unwrap(),
        None => writeln!(out, "report: none (host-armed)").unwrap(),
    }
    let cq = r.sim.create_cq(r.probe, 1).unwrap();
    let end = r.sim.create_qp(r.probe, QpConfig::new(cq)).unwrap();
    for qp in (0..end.0).map(QpId) {
        let node = r.sim.node_of_qp(qp);
        if node == r.probe {
            continue;
        }
        let sq = r.sim.sq_of(qp);
        let (mut doorbells, mut host_enables) = (0, 0);
        for (_, ev) in r.sim.trace().events() {
            match ev {
                TraceEvent::Doorbell { wq } if *wq == sq => doorbells += 1,
                TraceEvent::Enable { wq, .. } if *wq == sq => host_enables += 1,
                _ => {}
            }
        }
        let depth = u64::from(r.sim.wq_depth(sq));
        let posted = r.sim.sq_posted(qp);
        writeln!(
            out,
            "{qp} {node} sq={sq} depth={depth} sq_posted={posted} rq_posted={} \
             doorbells={doorbells} host_enables={host_enables}",
            r.sim.rq_posted(qp)
        )
        .unwrap();
        for idx in 0..posted.min(depth) {
            let addr = r.sim.sq_wqe_addr(qp, idx);
            let bytes = r.sim.mem_read(node, addr, WQE_SIZE).unwrap();
            writeln!(out, "  {idx:3}: {}", hex(&bytes)).unwrap();
        }
    }
    writeln!(
        out,
        "server posts={} doorbells={}",
        r.sim.node_posts(r.server),
        r.sim.node_doorbells(r.server)
    )
    .unwrap();
    let used = pool.used();
    writeln!(out, "pool {} used={used}", pool.node).unwrap();
    let bytes = r.sim.mem_read(pool.node, pool.mr().addr, used).unwrap();
    for (i, line) in bytes.chunks(32).enumerate() {
        writeln!(out, "  {:05x}: {}", i * 32, hex(line)).unwrap();
    }
}

fn recycled_hash_get(out: &mut String) {
    for variant in [HashGetVariant::Single, HashGetVariant::Sequential] {
        for optimize in [true, false] {
            let mut r = rig();
            let tmr = region(&mut r.sim, r.server, 8 * 16);
            let vmr = region(&mut r.sim, r.server, 8 * 64);
            let rmr = region(&mut r.sim, r.client, 8 * 8);
            let mut ctx = OffloadCtx::builder(r.server).build(&mut r.sim).unwrap();
            let off = ctx
                .hash_get()
                .table(TableRegion::of(&tmr))
                .values(ValueSource::of(&vmr, 8))
                .respond_to(ClientDest::of(&rmr))
                .variant(variant)
                .pipeline_depth(8)
                .build_recycled_with(&mut r.sim, ctx.pool_mut(), opts(optimize))
                .unwrap();
            let label = format!("recycled hash-get {variant:?} depth 8 optimize={optimize}");
            dump(out, &label, &mut r, ctx.pool(), off.ir_report());
        }
    }
}

fn recycled_list_walk(out: &mut String) {
    for optimize in [true, false] {
        let mut r = rig();
        let lmr = region(&mut r.sim, r.server, 4 * 80);
        let rmr = region(&mut r.sim, r.client, 4 * 64);
        let mut ctx = OffloadCtx::builder(r.server).build(&mut r.sim).unwrap();
        let off = ctx
            .list_walk()
            .list(TableRegion::of(&lmr))
            .value_len(64)
            .respond_to(ClientDest::of(&rmr))
            .max_nodes(4)
            .pipeline_depth(4)
            .build_recycled_with(&mut r.sim, ctx.pool_mut(), opts(optimize))
            .unwrap();
        let label = format!("recycled list-walk 4 nodes depth 4 optimize={optimize}");
        dump(out, &label, &mut r, ctx.pool(), off.ir_report());
    }
}

fn replication(out: &mut String) {
    for nbackups in [1usize, 2] {
        for optimize in [true, false] {
            let mut r = rig();
            let mut mesh = vec![r.server];
            let ack = region(&mut r.sim, r.client, 4 * 8);
            let mut logs = Vec::new();
            for _ in 0..nbackups {
                let b = r
                    .sim
                    .add_node("backup", HostConfig::default(), NicConfig::connectx5());
                mesh.push(b);
                logs.push(ReplicationLog::create(&mut r.sim, b, ProcessId(0), 64, 16).unwrap());
            }
            r.sim.connect_mesh(&mesh, LinkConfig::back_to_back());
            // The context's pool is the chain's pool: a 1 MiB pool on
            // the primary, created after the journals.
            let mut ctx = OffloadCtx::builder(r.server).build(&mut r.sim).unwrap();
            let mut builder = ctx
                .replication()
                .value_len(16)
                .pipeline_depth(4)
                .respond_to(ClientDest::of(&ack));
            for log in &logs {
                builder = builder.forward_to(log);
            }
            let repl = builder
                .build_recycled_with(&mut r.sim, ctx.pool_mut(), opts(optimize))
                .unwrap();
            let label = format!("replication f={nbackups} depth 4 optimize={optimize}");
            dump(out, &label, &mut r, ctx.pool(), repl.ir_report());
        }
    }
}

fn turing_ring(out: &mut String) {
    for optimize in [true, false] {
        let mut r = rig();
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 17, ProcessId(0)).unwrap();
        let tm = TuringMachine::binary_increment();
        let tape: Vec<u32> = (0..8).map(|i| (5u32 >> i) & 1).collect();
        let compiled = CompiledTm::compile_in_pool_with(
            &mut r.sim,
            r.server,
            ProcessId(0),
            &mut pool,
            &tm,
            &tape,
            0,
            opts(optimize),
        )
        .unwrap();
        let label = format!("binary-counter TM ring optimize={optimize}");
        dump(out, &label, &mut r, &pool, Some(compiled.report));
    }
}

/// Two consecutive host-armed `arm`s per shape: the second shows the
/// interner reusing the first arm's pool cells (hash-get) and the arm
/// lowering against the queue state the first one left. Every hash-get
/// variant (Fig 10/11, Table 4/5) and both walks (Fig 13 plain and
/// `+break`) are pinned. `arm` is called through the trait so the test
/// compiles on either side of the host-armed refactor.
fn host_armed(out: &mut String) {
    for variant in [
        HashGetVariant::Parallel,
        HashGetVariant::Single,
        HashGetVariant::Sequential,
    ] {
        let mut r = rig();
        let tmr = region(&mut r.sim, r.server, 8 * 16);
        let vmr = region(&mut r.sim, r.server, 8 * 64);
        let rmr = region(&mut r.sim, r.client, 2 * 8);
        let mut ctx = OffloadCtx::builder(r.server).build(&mut r.sim).unwrap();
        let mut off = ctx
            .hash_get()
            .table(TableRegion::of(&tmr))
            .values(ValueSource::of(&vmr, 8))
            .respond_to(ClientDest::of(&rmr))
            .variant(variant)
            .pipeline_depth(2)
            .build(&mut r.sim)
            .unwrap();
        for arm in 1..=2 {
            OffloadService::arm(&mut off, &mut r.sim, ctx.pool_mut()).unwrap();
            let label = format!("host-armed hash-get {variant:?}, arm {arm}");
            dump(out, &label, &mut r, ctx.pool(), None);
        }
    }

    // Break walks are single-instance; the plain walk pipelines two.
    for (brk, depth) in [(true, 1u32), (false, 2)] {
        let mut r = rig();
        let lmr = region(&mut r.sim, r.server, 4 * 80);
        let rmr = region(&mut r.sim, r.client, u64::from(depth) * 64);
        let mut ctx = OffloadCtx::builder(r.server).build(&mut r.sim).unwrap();
        let mut builder = ctx
            .list_walk()
            .list(TableRegion::of(&lmr))
            .value_len(64)
            .respond_to(ClientDest::of(&rmr))
            .max_nodes(4)
            .pipeline_depth(depth);
        if brk {
            builder = builder.break_on_match();
        }
        let mut off = builder.build(&mut r.sim).unwrap();
        let shape = if brk {
            "+break".to_string()
        } else {
            format!("depth {depth}")
        };
        for arm in 1..=2 {
            OffloadService::arm(&mut off, &mut r.sim, ctx.pool_mut()).unwrap();
            let label = format!("host-armed list-walk {shape}, arm {arm}");
            dump(out, &label, &mut r, ctx.pool(), None);
        }
    }
}

/// The two minimal `while` rings of `redn_bench::micro` (Table 2's
/// per-round cost row and Table 3's rate row): CAS + ADD + WAIT-all on
/// a recycled ring, optimizer off.
fn micro_while_rings(out: &mut String) {
    for (label, delta) in [("Table 3", 1u64), ("Table 2", 0)] {
        let mut r = rig();
        let mut ctx = OffloadCtx::builder(r.server)
            .pool_capacity(1 << 12)
            .build(&mut r.sim)
            .unwrap();
        let ctr = region(&mut r.sim, r.server, 8);
        let (mut p, ring) = IrProgram::recycled(RingSpec {
            node: r.server,
            owner: ProcessId(0),
            pu: None,
            port: 0,
        });
        for wr in [
            WorkRequest::cas(ctr.addr, ctr.rkey, u64::MAX, 0, 0, 0),
            WorkRequest::fetch_add(ctr.addr, ctr.rkey, delta, 0, 0),
        ] {
            p.push(ring, OpBuild::new(Kind::Raw(wr.signaled())));
        }
        p.push(ring, OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)));
        let lowered = p
            .deploy_with(&mut r.sim, ctx.pool_mut(), opts(false), None)
            .unwrap();
        let label = format!("micro while ring ({label})");
        dump(out, &label, &mut r, ctx.pool(), Some(lowered.report()));
    }
}

#[test]
fn lowering_matches_golden() {
    let mut got = String::new();
    for scenario in [
        recycled_hash_get,
        recycled_list_walk,
        replication,
        turing_ring,
        host_armed,
        micro_while_rings,
    ] {
        scenario(&mut got);
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden file (see module docs)");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "lowering diverges from {GOLDEN} at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

/// A program built in the buffers an earlier deploy handed back to the
/// pool's scratch lowers exactly as one built from nothing: a list walk
/// and then a hash-get onto one pool, against the same two with the
/// scratch released in between (same simulator state and pool
/// addresses, cold scratch). Every posted WQE, the pool's bytes, the
/// hash-get's `PassReport` and its footprint must match.
#[test]
fn a_warm_scratch_leaks_nothing_into_the_next_program() {
    let deploy = |release: bool| {
        let mut r = rig();
        let lmr = region(&mut r.sim, r.server, 4 * 80);
        let tmr = region(&mut r.sim, r.server, 8 * 16);
        let vmr = region(&mut r.sim, r.server, 8 * 64);
        let walk_dest = region(&mut r.sim, r.client, 4 * 64);
        let get_dest = region(&mut r.sim, r.client, 8 * 8);
        let mut ctx = OffloadCtx::builder(r.server).build(&mut r.sim).unwrap();
        let walk = ctx
            .list_walk()
            .list(TableRegion::of(&lmr))
            .value_len(64)
            .respond_to(ClientDest::of(&walk_dest))
            .max_nodes(4)
            .pipeline_depth(4)
            .build_recycled(&mut r.sim, ctx.pool_mut())
            .unwrap();
        if release {
            ctx.pool_mut().release_scratch();
        }
        let get = ctx
            .hash_get()
            .table(TableRegion::of(&tmr))
            .values(ValueSource::of(&vmr, 8))
            .respond_to(ClientDest::of(&get_dest))
            .variant(HashGetVariant::Sequential)
            .pipeline_depth(8)
            .build_recycled(&mut r.sim, ctx.pool_mut())
            .unwrap();
        let mut out = String::new();
        dump(
            &mut out,
            "hash-get after a list walk",
            &mut r,
            ctx.pool(),
            get.ir_report(),
        );
        writeln!(out, "footprint: {:?}", get.footprint()).unwrap();
        drop(walk);
        out
    };
    let (warm, cold) = (deploy(false), deploy(true));
    assert!(warm == cold, "warm scratch:\n{warm}\ncold scratch:\n{cold}");
}
