//! The `redn_core::ir` layer, exercised end to end: the static verifier's
//! three rule families on hand-built programs (including the seeded §3.1
//! hazard), and the golden optimized WQE counts of the shipped offloads.

use redn::core::ctx::{ChainQueueBuilder, ClientDest, OffloadCtx, TableRegion, ValueSource};
use redn::core::encode::WqeField;
use redn::core::ir::{
    DeployOpts, EnableTarget, IrProgram, Kind, Loc, OpBuild, RingSpec, VerbCounts, WaitCond,
};
use redn::core::offloads::hash_lookup::HashGetVariant;
use redn::core::program::ConstPool;
use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
use rnic_sim::ids::{CqId, NodeId, ProcessId};
use rnic_sim::mem::Access;
use rnic_sim::sim::Simulator;

mod common;

/// Pin a negative's full diagnostic text (see `tests/common/mod.rs`).
fn golden(key: &str, message: &str) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/analysis_diagnostics.txt"
    );
    common::check_diagnostic(path, &format!("ir_programs::{key}"), message);
}

fn rig() -> (Simulator, NodeId, ConstPool) {
    let mut sim = Simulator::new(SimConfig::default());
    let node = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
    let pool = ConstPool::create(&mut sim, node, 1 << 16, ProcessId(0)).unwrap();
    (sim, node, pool)
}

/// The seeded §3.1 hazard: a CAS patches a WQE that lives on an
/// *unmanaged* queue — the NIC may prefetch the target past its fetch
/// horizon before the patch lands. The verifier must reject the program
/// with a diagnostic naming the offending WQE.
#[test]
fn seeded_section_3_1_hazard_is_rejected_naming_the_wqe() {
    let (mut sim, node, mut pool) = rig();
    let ctrl = ChainQueueBuilder::new(node, ProcessId(0))
        .depth(32)
        .build(&mut sim)
        .unwrap();
    // The victim queue is UNMANAGED: it prefetches from its doorbell.
    let victim_q = ChainQueueBuilder::new(node, ProcessId(0))
        .depth(32)
        .build(&mut sim)
        .unwrap();

    let mut p = IrProgram::linear();
    let ctrl_q = p.chain(ctrl);
    let victim = p.chain(victim_q);
    let target = p.push(
        victim,
        OpBuild::new(Kind::Noop)
            .signaled()
            .placeholder()
            .label("prefetched victim"),
    );
    p.push(
        ctrl_q,
        OpBuild::new(Kind::Transmute {
            target,
            y: 7,
            into: rnic_sim::verbs::Opcode::Write,
        })
        .signaled()
        .label("hazardous CAS"),
    );

    let err = match p.deploy(&mut sim, &mut pool) {
        Err(e) => e,
        Ok(_) => panic!("the verifier must reject the §3.1 hazard"),
    };
    let msg = format!("{err}");
    assert!(
        msg.contains("\u{a7}3.1"),
        "diagnostic names the rule: {msg}"
    );
    assert!(
        msg.contains("prefetched victim"),
        "diagnostic names the offending WQE: {msg}"
    );
    assert!(
        msg.contains("hazardous CAS"),
        "diagnostic names the patcher: {msg}"
    );
    assert!(msg.contains("UNMANAGED"), "{msg}");
    golden("seeded_section_3_1_hazard", &msg);
}

/// The same program on a *managed* victim queue (with the target covered
/// by an ENABLE) passes verification.
#[test]
fn managed_patch_target_passes_the_verifier() {
    let (mut sim, node, mut pool) = rig();
    let ctrl = ChainQueueBuilder::new(node, ProcessId(0))
        .depth(32)
        .build(&mut sim)
        .unwrap();
    let victim_q = ChainQueueBuilder::new(node, ProcessId(0))
        .managed()
        .depth(32)
        .build(&mut sim)
        .unwrap();

    let mut p = IrProgram::linear();
    let ctrl_q = p.chain(ctrl);
    let victim = p.chain(victim_q);
    let target = p.push(victim, OpBuild::new(Kind::Noop).signaled().placeholder());
    p.push(
        ctrl_q,
        OpBuild::new(Kind::Transmute {
            target,
            y: 7,
            into: rnic_sim::verbs::Opcode::Write,
        })
        .signaled(),
    );
    p.push(ctrl_q, OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)));
    p.push(
        ctrl_q,
        OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(target))),
    );
    assert!(p.deploy(&mut sim, &mut pool).is_ok());
}

/// An op on a managed queue never covered by any ENABLE horizon would
/// park the queue forever — rejected, naming the first unreachable WQE.
#[test]
fn unreachable_enable_target_is_rejected() {
    let (mut sim, node, mut pool) = rig();
    let ctrl = ChainQueueBuilder::new(node, ProcessId(0))
        .depth(32)
        .build(&mut sim)
        .unwrap();
    let managed = ChainQueueBuilder::new(node, ProcessId(0))
        .managed()
        .depth(32)
        .build(&mut sim)
        .unwrap();

    let mut p = IrProgram::linear();
    let ctrl_q = p.chain(ctrl);
    let act_q = p.chain(managed);
    let first = p.push(act_q, OpBuild::new(Kind::Noop).signaled().label("covered"));
    p.push(act_q, OpBuild::new(Kind::Noop).signaled().label("orphan"));
    // Only the first op is ever enabled.
    p.push(
        ctrl_q,
        OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(first))),
    );
    let err = match p.deploy(&mut sim, &mut pool) {
        Err(e) => e,
        Ok(_) => panic!("the verifier must reject the unreachable op"),
    };
    let msg = format!("{err}");
    assert!(msg.contains("unreachable ENABLE"), "{msg}");
    assert!(msg.contains("orphan"), "{msg}");
    golden("unreachable_enable_target", &msg);
}

/// A WAIT in a recycled ring with an absolute threshold and no per-round
/// bump is non-monotonic across ring cycles — round 2 would reuse round
/// 1's count. Rejected, naming the WQE.
#[test]
fn non_monotonic_recycled_wait_is_rejected() {
    let (mut sim, node, mut pool) = rig();
    let (mut p, ring) = IrProgram::recycled(RingSpec {
        node,
        owner: ProcessId(0),
        pu: None,
        port: 0,
    });
    p.push(
        ring,
        OpBuild::new(Kind::Wait(WaitCond::Absolute {
            cq: CqId(0),
            count: 1,
        }))
        .label("stale wait"), // no .bump(...)
    );
    p.push(ring, OpBuild::new(Kind::Noop).signaled());
    let err = match p.deploy(&mut sim, &mut pool) {
        Err(e) => e,
        Ok(_) => panic!("the verifier must reject the unbumped ring WAIT"),
    };
    let msg = format!("{err}");
    assert!(msg.contains("non-monotonic WAIT"), "{msg}");
    assert!(msg.contains("stale wait"), "{msg}");
    golden("non_monotonic_recycled_wait", &msg);
}

/// `deploy_unchecked` is the escape hatch: the same seeded hazard lowers
/// (the caller owns the consequences). Waived rule here: the §3.1
/// fetch-horizon family (a Transmute patch targeting an unmanaged
/// queue); the analysis suite is waived along with it.
#[test]
fn deploy_unchecked_skips_the_verifier() {
    let (mut sim, node, mut pool) = rig();
    let ctrl = ChainQueueBuilder::new(node, ProcessId(0))
        .depth(32)
        .build(&mut sim)
        .unwrap();
    let victim_q = ChainQueueBuilder::new(node, ProcessId(0))
        .depth(32)
        .build(&mut sim)
        .unwrap();
    let mut p = IrProgram::linear();
    let ctrl_q = p.chain(ctrl);
    let victim = p.chain(victim_q);
    let target = p.push(victim, OpBuild::new(Kind::Noop).signaled().placeholder());
    p.push(
        ctrl_q,
        OpBuild::new(Kind::Transmute {
            target,
            y: 7,
            into: rnic_sim::verbs::Opcode::Write,
        })
        .signaled(),
    );
    assert!(p.deploy_unchecked(&mut sim, &mut pool).is_ok());
}

/// Constant-pool deduplication: identical immutable constants intern to
/// one cell; mutable (zeroed) cells never do.
#[test]
fn const_dedup_interns_identical_bytes() {
    let (mut sim, node, mut pool) = rig();
    let ctrl = ChainQueueBuilder::new(node, ProcessId(0))
        .depth(32)
        .build(&mut sim)
        .unwrap();
    let mut p = IrProgram::linear();
    let ctrl_q = p.chain(ctrl);
    let a = p.const_bytes(vec![1, 2, 3, 4, 5, 6, 7, 8]);
    let b = p.const_bytes(vec![1, 2, 3, 4, 5, 6, 7, 8]); // identical
    let z1 = p.const_zeroed(8);
    let z2 = p.const_zeroed(8); // mutable: never deduped
                                // Reference them so the program is non-trivial.
    for c in [a, b] {
        p.push(
            ctrl_q,
            OpBuild::new(Kind::Write {
                src: Loc::cst(c),
                len: 8,
                dst: Loc::cst(z1),
                imm: None,
            })
            .signaled(),
        );
    }
    let ra = p.const_ref(a);
    let rb = p.const_ref(b);
    let r1 = p.const_ref(z1);
    let r2 = p.const_ref(z2);
    let lowered = p.deploy(&mut sim, &mut pool).unwrap();
    assert_eq!(ra.addr(), rb.addr(), "identical bytes intern to one cell");
    assert_ne!(r1.addr(), r2.addr(), "zeroed cells stay distinct");
    assert_eq!(lowered.report().const_bytes_saved, 8);
}

/// A queue that already carried a program: the next program's WQE
/// indices continue at its live `sq_posted`, slot addresses follow, and
/// a `LocalAllSignaled` threshold starts from its CQ's live total.
#[test]
fn indices_and_thresholds_track_a_reused_queue() {
    let (mut sim, node, mut pool) = rig();
    let q = ChainQueueBuilder::new(node, ProcessId(0))
        .depth(32)
        .build(&mut sim)
        .unwrap();
    let mut first = IrProgram::linear();
    let qid = first.chain(q);
    first.push(qid, OpBuild::new(Kind::Noop).signaled());
    first.push(qid, OpBuild::new(Kind::Noop).signaled());
    let mut lowered = first.deploy(&mut sim, &mut pool).unwrap();
    lowered.post(&mut sim, qid).unwrap();
    sim.run().unwrap();
    assert_eq!((sim.sq_posted(q.qp), sim.cq_total(q.cq)), (2, 2));

    let mut second = IrProgram::linear();
    let qid = second.chain(q);
    let noop = second.push(qid, OpBuild::new(Kind::Noop).signaled());
    let wait = second.push(qid, OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)));
    // Keep the WAIT: nothing follows it for the elision pass to fence.
    let mut lowered = second.deploy(&mut sim, &mut pool).unwrap();
    assert_eq!(
        lowered.addr_of(noop, WqeField::Header),
        q.field_addr(2, WqeField::Header),
        "the second program starts at WQE index 2"
    );
    let operand = lowered.addr_of(wait, WqeField::Operand);
    assert_eq!(operand, q.slot_addr(3) + 48, "one 64-byte slot further");
    lowered.post(&mut sim, qid).unwrap();
    assert_eq!(
        sim.mem_read_u64(node, operand).unwrap(),
        3,
        "two completions already on the CQ, plus this program's NOOP"
    );
    sim.run().unwrap();
    assert_eq!(sim.wq_executed(q.sq), 4, "the WAIT's threshold was reached");
}

/// Posting is per queue, in the caller's order: an unmanaged queue gets
/// one doorbell for its whole batch, a managed one none (it waits for
/// its ENABLE), a queue with nothing staged is not touched, and posting
/// a queue twice posts it once.
#[test]
fn post_rings_one_doorbell_per_unmanaged_queue() {
    let (mut sim, node, mut pool) = rig();
    let queue = |sim: &mut Simulator, managed: bool| {
        let b = ChainQueueBuilder::new(node, ProcessId(0)).depth(32);
        let b = if managed { b.managed() } else { b };
        b.build(sim).unwrap()
    };
    let (ctrl, act, idle) = (
        queue(&mut sim, false),
        queue(&mut sim, true),
        queue(&mut sim, false),
    );
    let buf = sim.alloc(node, 24, 8).unwrap();
    let mr = sim.register_mr(node, buf, 24, Access::all()).unwrap();
    sim.mem_write_u64(node, buf, 0x55).unwrap();
    let copy_to = |off: u64| Kind::Write {
        src: Loc::raw(buf, mr.lkey),
        len: 8,
        dst: Loc::raw(buf + off, mr.rkey),
        imm: None,
    };

    let mut p = IrProgram::linear();
    let (ctrl_q, act_q, idle_q) = (p.chain(ctrl), p.chain(act), p.chain(idle));
    let action = p.push(act_q, OpBuild::new(copy_to(16)));
    p.push(ctrl_q, OpBuild::new(copy_to(8)).signaled());
    p.push(ctrl_q, OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)));
    p.push(
        ctrl_q,
        OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(action))),
    );
    let mut lowered = p.deploy(&mut sim, &mut pool).unwrap();
    assert_eq!(
        sim.node_posts(node),
        0,
        "deploy of a linear program posts nothing"
    );

    lowered.post(&mut sim, act_q).unwrap();
    lowered.post(&mut sim, idle_q).unwrap();
    assert_eq!((sim.sq_posted(act.qp), sim.sq_posted(idle.qp)), (1, 0));
    assert_eq!(sim.node_doorbells(node), 0);
    lowered.post(&mut sim, ctrl_q).unwrap();
    lowered.post(&mut sim, ctrl_q).unwrap();
    assert_eq!(sim.node_doorbells(node), 1);
    let posted = sim.node_posts(node);

    sim.run().unwrap();
    assert_eq!(sim.mem_read_u64(node, buf + 8).unwrap(), 0x55);
    assert_eq!(sim.mem_read_u64(node, buf + 16).unwrap(), 0x55);
    assert_eq!(sim.verbs_executed(node), posted, "each WQE ran once");
}

/// All or nothing holds for a recycled program too: its bound queues
/// and its ring are posted by deploy, and a round that does not fit one
/// of them leaves every queue as it was.
#[test]
fn recycled_round_too_big_for_a_bound_queue_posts_nothing() {
    let (mut sim, node, mut pool) = rig();
    let resp = ChainQueueBuilder::new(node, ProcessId(0))
        .managed()
        .depth(2)
        .build(&mut sim)
        .unwrap();
    // `n` signaled NOOPs on the bound queue per round, released and
    // awaited by the ring.
    let round = |n: u64| {
        let (mut p, ring) = IrProgram::recycled(RingSpec {
            node,
            owner: ProcessId(0),
            pu: None,
            port: 0,
        });
        let resp_q = p.chain(resp);
        let mut last = None;
        for _ in 0..n {
            last = Some(p.push(resp_q, OpBuild::new(Kind::Noop).signaled()));
        }
        let release = Kind::Enable(EnableTarget::OpsThrough(last.unwrap()));
        p.push(ring, OpBuild::new(release).bump(n));
        let done = Kind::Wait(WaitCond::Absolute {
            cq: resp.cq,
            count: n,
        });
        p.push(ring, OpBuild::new(done).bump(n));
        p
    };

    let err = match round(3).deploy(&mut sim, &mut pool) {
        Err(e) => e,
        Ok(_) => panic!("three WQEs cannot fit a two-slot queue"),
    };
    assert!(matches!(err, rnic_sim::error::Error::WqFull(wq) if wq == resp.sq));
    assert_eq!(sim.node_posts(node), 0, "neither the queue nor the ring");
    assert_eq!(sim.node_doorbells(node), 0, "and nothing was armed");

    let lowered = round(2).deploy(&mut sim, &mut pool).unwrap();
    sim.run_until(rnic_sim::time::Time::from_us(100)).unwrap();
    let lp = lowered.ring().unwrap();
    assert!(lp.rounds(&sim) >= 2, "the fitting round recycles");
    assert!(sim.wq_executed(resp.sq) >= 2 * lp.rounds(&sim));
}

/// `PassReport` counts what is staged, by the paper's Table 2 classes: a
/// placeholder is staged as a NOOP — a copy — whatever verb it carries.
#[test]
fn pass_report_counts_follow_table2_classes() {
    let (mut sim, node, mut pool) = rig();
    let q = ChainQueueBuilder::new(node, ProcessId(0))
        .managed()
        .depth(32)
        .build(&mut sim)
        .unwrap();
    let word = sim.alloc(node, 8, 8).unwrap();
    let mr = sim.register_mr(node, word, 8, Access::all()).unwrap();
    let add = Kind::FetchAdd {
        target: Loc::raw(word, mr.rkey),
        delta: 1,
    };
    let mut p = IrProgram::linear();
    let qid = p.chain(q);
    p.external_enable(qid);
    p.push(qid, OpBuild::new(Kind::Noop));
    p.push(qid, OpBuild::new(add.clone()));
    p.push(qid, OpBuild::new(add).placeholder());
    p.push(
        qid,
        OpBuild::new(Kind::Wait(WaitCond::Absolute { cq: q.cq, count: 0 })),
    );
    p.push(
        qid,
        OpBuild::new(Kind::Enable(EnableTarget::Foreign { sq: q.sq, count: 5 })),
    );
    let rep = p.deploy(&mut sim, &mut pool).unwrap().report();
    let want = VerbCounts {
        copies: 2,
        atomics: 1,
        ordering: 2,
    };
    assert_eq!((rep.before, rep.after), (want, want));
    assert_eq!(want.total(), 5);
    assert_eq!(want.merge(&want).total(), 10);
}

fn serving_rig() -> (Simulator, NodeId, NodeId) {
    let mut sim = Simulator::new(SimConfig::default());
    let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let server = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
    sim.connect_nodes(client, server, rnic_sim::config::LinkConfig::back_to_back());
    (sim, client, server)
}

/// Golden WQE counts for the recycled hash-get round: a Single-probe
/// ring with `K` instances costs `8K + 6` WQEs per round naively
/// (including the K response placeholders and their per-slot restore
/// WRITEs) and `7K + 6` optimized (restores merged into one scatter
/// WRITE, tail WAIT elided).
#[test]
fn golden_verb_counts_recycled_hash_get() {
    let (mut sim, client, server) = serving_rig();
    let table = sim.alloc(server, 8 * 16, 64).unwrap();
    let tmr = sim
        .register_mr(server, table, 8 * 16, Access::all())
        .unwrap();
    let values = sim.alloc(server, 8 * 64, 64).unwrap();
    let vmr = sim
        .register_mr(server, values, 8 * 64, Access::all())
        .unwrap();
    let resp = sim.alloc(client, 8 * 8, 8).unwrap();
    let rmr = sim.register_mr(client, resp, 8 * 8, Access::all()).unwrap();
    let ctx = OffloadCtx::builder(server).build(&mut sim).unwrap();
    let mut pool = ConstPool::create(&mut sim, server, 1 << 18, ProcessId(0)).unwrap();
    let k = 8u64;
    let off = ctx
        .hash_get()
        .table(TableRegion::of(&tmr))
        .values(ValueSource::of(&vmr, 8))
        .respond_to(ClientDest::of(&rmr))
        .variant(HashGetVariant::Single)
        .pipeline_depth(k as u32)
        .build_recycled(&mut sim, &mut pool)
        .unwrap();
    let rep = off.ir_report().expect("recycled offloads carry a report");
    assert_eq!(rep.before.total() as u64, 8 * k + 6, "naive round");
    assert_eq!(rep.after.total() as u64, 7 * k + 6, "optimized round");
    assert_eq!(rep.restores_merged as u64, k - 1);
    assert_eq!(
        off.verbs_per_op().unwrap(),
        (7 * k + 6) as f64 / k as f64,
        "optimized WQEs per request"
    );
}

/// Golden WQE counts for the recycled list-walk round: `K` instances of
/// an `N`-node walk cost `K(4 + 4N) + 6` WQEs per round naively
/// (including the K*N response placeholders and their restores) and
/// `K(4 + 3N) + 6` optimized.
#[test]
fn golden_verb_counts_recycled_list_walk() {
    let (mut sim, client, server) = serving_rig();
    let nodes = sim.alloc(server, 4 * 80, 64).unwrap();
    let lmr = sim
        .register_mr(server, nodes, 4 * 80, Access::all())
        .unwrap();
    let resp = sim.alloc(client, 64 * 4, 8).unwrap();
    let rmr = sim
        .register_mr(client, resp, 64 * 4, Access::all())
        .unwrap();
    let ctx = OffloadCtx::builder(server).build(&mut sim).unwrap();
    let mut pool = ConstPool::create(&mut sim, server, 1 << 20, ProcessId(0)).unwrap();
    let (k, n) = (4u64, 4u64);
    let off = ctx
        .list_walk()
        .list(TableRegion::of(&lmr))
        .value_len(64)
        .respond_to(ClientDest::of(&rmr))
        .max_nodes(n as usize)
        .pipeline_depth(k as u32)
        .build_recycled(&mut sim, &mut pool)
        .unwrap();
    let rep = off.ir_report().expect("recycled offloads carry a report");
    assert_eq!(
        rep.before.total() as u64,
        k * (4 + 4 * n) + 6,
        "naive round"
    );
    assert_eq!(
        rep.after.total() as u64,
        k * (4 + 3 * n) + 6,
        "optimized round"
    );
    assert_eq!(rep.restores_merged as u64, k * n - 1);
    assert_eq!(
        off.verbs_per_op().unwrap(),
        (k * (4 + 3 * n) + 6) as f64 / k as f64
    );
}

/// Golden WQE counts for one Turing-machine step (the third committed
/// baseline): `R` rules lower to `4R + 29` naively and `3R + 20`
/// optimized — see `redn_core::turing::compile` for the breakdown.
#[test]
fn golden_verb_counts_tm_step() {
    let mut sim = Simulator::new(SimConfig::default());
    let node = sim.add_node("tm", HostConfig::default(), NicConfig::connectx5());
    let tm = redn::core::turing::machine::TuringMachine::busy_beaver_2();
    let compiled = redn::core::turing::compile::CompiledTm::compile(
        &mut sim,
        node,
        ProcessId(0),
        &tm,
        &[0; 9],
        4,
    )
    .unwrap();
    let r = tm.rules.len();
    assert_eq!(compiled.report.before.total(), 4 * r + 29);
    assert_eq!(compiled.report.after.total(), 3 * r + 20);
}

/// The unoptimized lowering must still serve correctly (spot check; the
/// equivalence property tests cover randomized workloads).
#[test]
fn unoptimized_recycled_hash_get_still_serves() {
    use redn::core::offloads::hash_lookup::{encode_bucket, BUCKET_SIZE};
    use rnic_sim::qp::QpConfig;
    use rnic_sim::wqe::WorkRequest;

    let (mut sim, client, server) = serving_rig();
    let table = sim.alloc(server, 8 * BUCKET_SIZE, 64).unwrap();
    let tmr = sim
        .register_mr(server, table, 8 * BUCKET_SIZE, Access::all())
        .unwrap();
    let values = sim.alloc(server, 8 * 64, 64).unwrap();
    let vmr = sim
        .register_mr(server, values, 8 * 64, Access::all())
        .unwrap();
    sim.mem_write_u64(server, values, 0xFEED).unwrap();
    let b = encode_bucket(values, 0xFACE);
    sim.mem_write(server, table + 3 * BUCKET_SIZE, &b).unwrap();

    let resp = sim.alloc(client, 64, 8).unwrap();
    let rmr = sim.register_mr(client, resp, 64, Access::all()).unwrap();
    let csrc = sim.alloc(client, 64, 8).unwrap();
    let smr = sim.register_mr(client, csrc, 64, Access::all()).unwrap();
    let ccq = sim.create_cq(client, 64).unwrap();
    let crecv = sim.create_cq(client, 64).unwrap();
    let cqp = sim
        .create_qp(client, QpConfig::new(ccq).recv_cq(crecv))
        .unwrap();

    let ctx = OffloadCtx::builder(server).build(&mut sim).unwrap();
    let mut pool = ConstPool::create(&mut sim, server, 1 << 18, ProcessId(0)).unwrap();
    let mut off = ctx
        .hash_get()
        .table(TableRegion::of(&tmr))
        .values(ValueSource::of(&vmr, 8))
        .respond_to(ClientDest::of(&rmr))
        .variant(HashGetVariant::Single)
        .pipeline_depth(2)
        .build_recycled_with(
            &mut sim,
            &mut pool,
            DeployOpts {
                optimize: false,
                verify: true,
            },
        )
        .unwrap();
    let rep = off.ir_report().unwrap();
    assert_eq!(rep.before.total(), rep.after.total(), "no passes ran");
    sim.connect_qps(cqp, off.tp.qp).unwrap();

    let _ = off.take_instance().unwrap();
    sim.post_recv(cqp, WorkRequest::recv(0, 0, 0)).unwrap();
    let payload = off.client_payload(0xFACE, &[table + 3 * BUCKET_SIZE]);
    sim.mem_write(client, csrc, &payload).unwrap();
    sim.post_send(cqp, WorkRequest::send(csrc, smr.lkey, payload.len() as u32))
        .unwrap();
    sim.run().unwrap();
    assert_eq!(sim.poll_cq(crecv, 4).len(), 1);
    assert_eq!(sim.mem_read_u64(client, resp).unwrap(), 0xFEED);
}
