//! Seeded-hazard corpus for `redn_core::ir::analysis`: one negative
//! test per analysis rule — each asserting the diagnostic names the
//! offending op(s) — plus positives proving every shipped offload
//! family deploys through the full pass suite with zero diagnostics.

use redn::core::ctx::{ChainQueueBuilder, ClientDest, OffloadCtx, TableRegion, ValueSource};
use redn::core::encode::WqeField;
use redn::core::ir::analysis::{self, DeploymentVerifier};
use redn::core::ir::{EnableTarget, IrProgram, Kind, Loc, OpBuild, RingSpec, WaitCond};
use redn::core::offloads::hash_lookup::HashGetVariant;
use redn::core::program::ConstPool;
use redn::kv::liststore::ListStore;
use redn::kv::memcached::MemcachedServer;
use redn::kv::serving::{FleetSpec, ServiceSpec, ServingFleet};
use redn::kv::workload::Workload;
use redn_cluster::cluster::{Cluster, ClusterSpec};
use redn_cluster::session::ClusterSession;
use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::mem::Access;
use rnic_sim::sim::Simulator;

mod common;

/// Pin a negative's full diagnostic text (see `tests/common/mod.rs`).
fn golden(key: &str, message: &str) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/analysis_diagnostics.txt"
    );
    common::check_diagnostic(path, &format!("ir_analysis::{key}"), message);
}

/// Every diagnostic of a report, one per line.
fn messages(report: &analysis::AnalysisReport) -> String {
    let lines: Vec<&str> = report
        .diagnostics
        .iter()
        .map(|d| d.message.as_str())
        .collect();
    lines.join("\n")
}

fn rig() -> (Simulator, NodeId, ConstPool) {
    let mut sim = Simulator::new(SimConfig::default());
    let node = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
    let pool = ConstPool::create(&mut sim, node, 1 << 16, ProcessId(0)).unwrap();
    (sim, node, pool)
}

fn serving_rig() -> (Simulator, NodeId, NodeId) {
    let mut sim = Simulator::new(SimConfig::default());
    let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let server = sim.add_node(
        "server",
        HostConfig::default(),
        NicConfig::connectx5().dual_port(),
    );
    sim.connect_nodes(client, server, LinkConfig::back_to_back());
    (sim, client, server)
}

// ---------------------------------------------------------------- //
// Negative: one seeded program per rule family.                    //
// ---------------------------------------------------------------- //

/// Two externally-enabled queues whose WAITs each gate on the *other*
/// queue's op — a circular wait no completion can ever break. The PR 5
/// verifier's local rules all pass; only the happens-before graph sees
/// the cycle.
#[test]
fn seeded_wait_cycle_is_rejected_naming_both_waits() {
    let (mut sim, node, mut pool) = rig();
    let qa = ChainQueueBuilder::new(node, ProcessId(0))
        .managed()
        .depth(32)
        .build(&mut sim)
        .unwrap();
    let qb = ChainQueueBuilder::new(node, ProcessId(0))
        .managed()
        .depth(32)
        .build(&mut sim)
        .unwrap();

    let mut p = IrProgram::linear();
    let a = p.chain(qa);
    let b = p.chain(qb);
    p.external_enable(a);
    p.external_enable(b);
    let wa = p.alloc(a); // forward ref: a's WAIT gates on b's, and vice versa
    let wb = p.push(
        b,
        OpBuild::new(Kind::Wait(WaitCond::OpDonePosted(wa))).label("wait-in-b"),
    );
    p.place(
        wa,
        OpBuild::new(Kind::Wait(WaitCond::OpDonePosted(wb))).label("wait-in-a"),
    );

    let err = match p.deploy(&mut sim, &mut pool) {
        Err(e) => e,
        Ok(_) => panic!("the analyzer must reject the circular wait"),
    };
    let msg = format!("{err}");
    assert!(msg.contains("wait-cycle"), "{msg}");
    assert!(msg.contains("circular wait"), "{msg}");
    assert!(msg.contains("wait-in-a"), "{msg}");
    assert!(msg.contains("wait-in-b"), "{msg}");
    golden("seeded_wait_cycle", &msg);
}

/// An ENABLE staged *behind* a WAIT that gates on the very op the
/// ENABLE must release: the horizon can never rise. Passes PR 5's
/// reachability rule (the ENABLE does cover the op) — the hazard is
/// ordering, visible only as a happens-before cycle through the
/// release edge.
#[test]
fn seeded_unraisable_horizon_is_rejected() {
    let (mut sim, node, mut pool) = rig();
    let ctrl = ChainQueueBuilder::new(node, ProcessId(0))
        .depth(32)
        .build(&mut sim)
        .unwrap();
    let gated = ChainQueueBuilder::new(node, ProcessId(0))
        .managed()
        .depth(32)
        .build(&mut sim)
        .unwrap();

    let mut p = IrProgram::linear();
    let ctrl_q = p.chain(ctrl);
    let gated_q = p.chain(gated);
    let op = p.push(
        gated_q,
        OpBuild::new(Kind::Noop).signaled().label("gated op"),
    );
    p.push(
        ctrl_q,
        OpBuild::new(Kind::Wait(WaitCond::OpDoneSignaled(op))).label("premature wait"),
    );
    p.push(
        ctrl_q,
        OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(op))).label("late enable"),
    );

    let err = match p.deploy(&mut sim, &mut pool) {
        Err(e) => e,
        Ok(_) => panic!("the analyzer must reject the un-raisable horizon"),
    };
    let msg = format!("{err}");
    assert!(msg.contains("unraisable-horizon"), "{msg}");
    assert!(msg.contains("late enable"), "{msg}");
    golden("seeded_unraisable_horizon", &msg);
}

/// A recycled ring whose per-round ENABLE bump is smaller than the ops
/// the target queue re-executes per round: the inductive threshold
/// invariant fails — after one cycle the horizon lags the ops it must
/// release. (PR 5's monotonicity rule only demands *a* bump; the
/// analyzer checks its value.)
#[test]
fn seeded_recycled_induction_failure_is_rejected() {
    let (mut sim, node, mut pool) = rig();
    let worker = ChainQueueBuilder::new(node, ProcessId(0))
        .managed()
        .depth(32)
        .build(&mut sim)
        .unwrap();
    let (mut p, ring) = IrProgram::recycled(RingSpec {
        node,
        owner: ProcessId(0),
        pu: None,
        port: 0,
    });
    let wq = p.chain(worker);
    p.push(wq, OpBuild::new(Kind::Noop).signaled().label("round op 1"));
    let last = p.push(wq, OpBuild::new(Kind::Noop).signaled().label("round op 2"));
    p.push(
        ring,
        OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(last)))
            .bump(1) // the queue runs 2 ops per round
            .label("short bump"),
    );

    let err = match p.deploy(&mut sim, &mut pool) {
        Err(e) => e,
        Ok(_) => panic!("the analyzer must reject the short bump"),
    };
    let msg = format!("{err}");
    assert!(msg.contains("recycled-induction"), "{msg}");
    assert!(msg.contains("short bump"), "{msg}");
    assert!(msg.contains("2 ops per round"), "{msg}");
    golden("seeded_recycled_induction_failure", &msg);
}

/// A runtime patch that rewrites a WRITE's remote address to one past
/// the end of its registered region. The staged operand is a legal
/// placeholder; only constant-folding the patch value exposes the
/// out-of-bounds dereference — before the NIC performs it.
#[test]
fn seeded_out_of_bounds_post_patch_write_is_rejected() {
    let (mut sim, node, mut pool) = rig();
    let ctrl = ChainQueueBuilder::new(node, ProcessId(0))
        .depth(32)
        .build(&mut sim)
        .unwrap();
    let victim = ChainQueueBuilder::new(node, ProcessId(0))
        .managed()
        .depth(32)
        .build(&mut sim)
        .unwrap();
    let data = sim.alloc(node, 64, 8).unwrap();
    let region = sim.register_mr(node, data, 64, Access::all()).unwrap();

    let mut p = IrProgram::linear();
    let ctrl_q = p.chain(ctrl);
    let victim_q = p.chain(victim);
    p.external_enable(victim_q);
    let payload = p.const_bytes(vec![0xAB; 8]);
    let target = p.push(
        victim_q,
        OpBuild::new(Kind::Write {
            src: Loc::cst(payload),
            len: 8,
            dst: Loc::raw(region.addr, region.rkey), // in-bounds as staged
            imm: None,
        })
        .signaled()
        .label("patched writer"),
    );
    // The patch lands one byte past the region's end.
    let bad_addr = p.const_bytes((region.addr + region.len).to_le_bytes().to_vec());
    p.push(
        ctrl_q,
        OpBuild::new(Kind::Write {
            src: Loc::cst(bad_addr),
            len: 8,
            dst: Loc::field(target, WqeField::RemoteAddr),
            imm: None,
        })
        .signaled()
        .label("oob patcher"),
    );

    let err = match p.deploy(&mut sim, &mut pool) {
        Err(e) => e,
        Ok(_) => panic!("the analyzer must reject the post-patch overrun"),
    };
    let msg = format!("{err}");
    assert!(msg.contains("out-of-bounds post-patch WRITE"), "{msg}");
    assert!(msg.contains("oob patcher"), "{msg}");
    assert!(msg.contains("patched writer"), "{msg}");
    golden("seeded_out_of_bounds_post_patch_write", &msg);
}

/// A managed, externally enabled queue on a one-node rig plus a 64-byte
/// registered region: the stage for the bounds negatives below.
fn bounds_rig() -> (
    Simulator,
    ConstPool,
    redn::core::program::ChainQueue,
    rnic_sim::mem::MemoryRegion,
) {
    let (mut sim, node, pool) = rig();
    let q = ChainQueueBuilder::new(node, ProcessId(0))
        .managed()
        .depth(32)
        .build(&mut sim)
        .unwrap();
    let data = sim.alloc(node, 64, 8).unwrap();
    let region = sim.register_mr(node, data, 64, Access::all()).unwrap();
    (sim, pool, q, region)
}

/// One of each direct (no patch involved) bounds violation, in one
/// program: a gather past its constant cell, a WRITE past its registered
/// region, a patch wider than the WQE slots trailing its target, an
/// SGE-list READ naming more entries than its table holds, and a table
/// entry and an external scatter entry past their cells.
#[test]
fn seeded_direct_out_of_bounds_accesses_are_all_reported() {
    use redn::core::ir::SgeSpec;
    let (sim, _pool, q, region) = bounds_rig();
    let mut p = IrProgram::linear();
    let qid = p.chain(q);
    p.external_enable(qid);
    let cell = p.const_bytes(vec![0xCD; 8]);
    let write = |src: Loc, len: u32, dst: Loc, label: &'static str| {
        let kind = Kind::Write {
            src,
            len,
            dst,
            imm: None,
        };
        OpBuild::new(kind).signaled().label(label)
    };
    let in_region = Loc::raw(region.addr, region.rkey);
    p.push(
        qid,
        write(Loc::cst_off(cell, 4), 8, in_region, "short gather"),
    );
    p.push(
        qid,
        write(
            Loc::cst(cell),
            8,
            Loc::raw(region.addr + 60, region.rkey),
            "region overrun",
        ),
    );
    let table = p.const_sges(vec![SgeSpec {
        target: Loc::cst_off(cell, 6),
        len: 4,
    }]);
    p.push(
        qid,
        OpBuild::new(Kind::ReadSgl {
            table,
            entries: 3,
            src: in_region,
        })
        .signaled()
        .label("wide READ"),
    );
    let last = p.alloc(qid);
    p.push(
        qid,
        write(
            Loc::cst(cell),
            8,
            Loc::field_off(last, WqeField::Header, 60),
            "slot overrun",
        ),
    );
    p.place(last, OpBuild::new(Kind::Noop)); // unlabelled: named by position and ids
    p.scatter(vec![SgeSpec {
        target: Loc::cst_off(cell, 1),
        len: 8,
    }]);

    let report = analysis::analyze(&p, &sim, "direct-bounds");
    assert_eq!(report.diagnostics.len(), 6, "{:?}", report.diagnostics);
    for d in &report.diagnostics {
        assert_eq!(d.rule.name(), "out-of-bounds");
    }
    let all = messages(&report);
    for who in [
        "short gather",
        "region overrun",
        "wide READ",
        "slot overrun",
        "SGE table c1",
        "external scatter s0",
    ] {
        assert!(all.contains(who), "{who}: {all}");
    }
    golden("seeded_direct_out_of_bounds_accesses", &all);
}

/// Offsets and addresses are program constants: sums that wrap `u64` are
/// out of bounds, not a panic (debug) or a small in-bounds number
/// (release). Run under both `cargo test` and `cargo test --release`.
#[test]
fn wrapping_direct_accesses_are_out_of_bounds_not_a_panic() {
    let (sim, _pool, q, region) = bounds_rig();
    let mut p = IrProgram::linear();
    let qid = p.chain(q);
    p.external_enable(qid);
    let cell = p.const_bytes(vec![0xCD; 8]);
    // 8 bytes at offset 2^64 - 4 "end" at offset 4 if the sum wraps.
    p.push(
        qid,
        OpBuild::new(Kind::Write {
            src: Loc::cst_off(cell, u64::MAX - 3),
            len: 8,
            dst: Loc::raw(u64::MAX - 3, region.rkey),
            imm: None,
        })
        .signaled()
        .label("wrapping write"),
    );
    let report = analysis::analyze(&p, &sim, "wrapping-direct");
    assert_eq!(report.diagnostics.len(), 2, "{:?}", report.diagnostics);
    for (d, what) in report
        .diagnostics
        .iter()
        .zip(["gather source", "scatter destination"])
    {
        assert_eq!(d.rule.name(), "out-of-bounds");
        assert!(d.message.starts_with("out-of-bounds: "), "{}", d.message);
        assert!(d.message.contains("wrapping write"), "{}", d.message);
        assert!(d.message.contains(what), "{}", d.message);
    }
}

/// The post-patch twin: a patch value of `2^64 - 4` makes the patched
/// WRITE's end wrap to 4, which a wrapping comparison accepts.
#[test]
fn wrapping_post_patch_address_is_rejected_not_accepted() {
    let (mut sim, mut pool, victim, region) = bounds_rig();
    let node = victim.node;
    let ctrl = ChainQueueBuilder::new(node, ProcessId(0))
        .depth(32)
        .build(&mut sim)
        .unwrap();
    let mut p = IrProgram::linear();
    let ctrl_q = p.chain(ctrl);
    let victim_q = p.chain(victim);
    p.external_enable(victim_q);
    let payload = p.const_bytes(vec![0xAB; 8]);
    let target = p.push(
        victim_q,
        OpBuild::new(Kind::Write {
            src: Loc::cst(payload),
            len: 8,
            dst: Loc::raw(region.addr, region.rkey),
            imm: None,
        })
        .signaled()
        .label("patched writer"),
    );
    let bad_addr = p.const_bytes((u64::MAX - 3).to_le_bytes().to_vec());
    p.push(
        ctrl_q,
        OpBuild::new(Kind::Write {
            src: Loc::cst(bad_addr),
            len: 8,
            dst: Loc::field(target, WqeField::RemoteAddr),
            imm: None,
        })
        .signaled()
        .label("wrapping patcher"),
    );
    let err = match p.deploy(&mut sim, &mut pool) {
        Err(e) => e,
        Ok(_) => panic!("a wrapped post-patch end must not pass the region check"),
    };
    let msg = format!("{err}");
    assert!(msg.contains("out-of-bounds post-patch WRITE"), "{msg}");
    assert!(msg.contains("wrapping patcher"), "{msg}");
    assert!(msg.contains("0xfffffffffffffffc"), "{msg}");
}

/// Two self-recycling hash-get rings answering into the *same* client
/// response buffer: each deploys clean in isolation, but their response
/// slots alias — the tenant-isolation violation the
/// [`DeploymentVerifier`] exists for.
#[test]
fn seeded_rings_aliasing_a_response_slot_are_flagged() {
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
    let mut pool = ConstPool::create(&mut sim, server, 1 << 20, ProcessId(0)).unwrap();
    let deploy = |sim: &mut Simulator, pool: &mut ConstPool, port: usize| {
        ctx.hash_get()
            .table(TableRegion::of(&tmr))
            .values(ValueSource::of(&vmr, 8))
            .respond_to(ClientDest::of(&rmr)) // the SAME client slots
            .variant(HashGetVariant::Single)
            .pipeline_depth(4)
            .on_port(port)
            .build_recycled(sim, pool)
            .unwrap()
    };
    let a = deploy(&mut sim, &mut pool, 0);
    let b = deploy(&mut sim, &mut pool, 1);

    let mut v = DeploymentVerifier::new("seeded");
    v.add(a.footprint().unwrap().clone().named("ring-a"));
    v.add(b.footprint().unwrap().clone().named("ring-b"));
    let report = v.verify();
    assert!(!report.clean(), "aliased response slots must be flagged");
    let d = &report.diagnostics[0];
    assert_eq!(d.rule.name(), "interference");
    assert!(d.message.contains("ring-a"), "{}", d.message);
    assert!(d.message.contains("ring-b"), "{}", d.message);
    assert!(d.message.contains("response slot"), "{}", d.message);
    // The report renders for the CI gate.
    let json = report.to_json();
    assert!(json.contains("\"clean\":false"), "{json}");
    assert!(json.contains("\"rule\":\"interference\""), "{json}");
    golden("seeded_rings_aliasing_a_response_slot", &messages(&report));
}

// ---------------------------------------------------------------- //
// Positive: every shipped family is proven clean.                  //
// ---------------------------------------------------------------- //

/// A correct ENABLE→WAIT chain analyzes clean, with a non-trivial
/// happens-before graph and bounds checks actually performed.
#[test]
fn clean_program_reports_hb_stats_and_zero_diagnostics() {
    let (mut sim, node, _pool) = rig();
    let ctrl = ChainQueueBuilder::new(node, ProcessId(0))
        .depth(32)
        .build(&mut sim)
        .unwrap();
    let worker = ChainQueueBuilder::new(node, ProcessId(0))
        .managed()
        .depth(32)
        .build(&mut sim)
        .unwrap();
    let data = sim.alloc(node, 64, 8).unwrap();
    let region = sim.register_mr(node, data, 64, Access::all()).unwrap();

    let mut p = IrProgram::linear();
    let ctrl_q = p.chain(ctrl);
    let worker_q = p.chain(worker);
    let c = p.const_bytes(7u64.to_le_bytes().to_vec());
    let w = p.push(
        worker_q,
        OpBuild::new(Kind::Write {
            src: Loc::cst(c),
            len: 8,
            dst: Loc::raw(region.addr, region.rkey),
            imm: None,
        })
        .signaled()
        .label("worker write"),
    );
    p.push(
        ctrl_q,
        OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(w))).label("enable"),
    );
    p.push(
        ctrl_q,
        OpBuild::new(Kind::Wait(WaitCond::OpDoneSignaled(w))).label("join"),
    );

    let report = analysis::analyze(&p, &sim, "clean-demo");
    assert!(report.clean(), "{:?}", report.diagnostics);
    assert_eq!(report.hb_nodes, 6);
    assert!(report.hb_edges >= 6, "edges: {}", report.hb_edges);
    assert!(report.checked >= 2, "checked: {}", report.checked);
    assert!(report.to_json().contains("\"clean\":true"));
}

/// Every serving family — both hash-get modes (self-recycling Single +
/// Sequential, host-armed Parallel) and both list-walk modes — deploys
/// through the analyzer with zero diagnostics, and the co-resident
/// fleet proves pairwise non-interference. The closed loop then drives
/// the host-armed services through `arm`, whose per-instance programs
/// pass the same suite.
#[test]
fn shipped_fleet_passes_analyzer_and_isolation() {
    let (mut sim, client, server_node) = serving_rig();
    let server = MemcachedServer::create(&mut sim, server_node, 4096, 64, ProcessId(0)).unwrap();
    server.populate(&mut sim, 512).unwrap();
    let store = ListStore::create(&mut sim, server_node, 4, 4, 32, ProcessId(0)).unwrap();
    let mut ctx = OffloadCtx::builder(server_node)
        .pool_capacity(1 << 24)
        .build(&mut sim)
        .unwrap();
    let spec = FleetSpec::new(vec![
        ServiceSpec::gets(1, 4, HashGetVariant::Single, true),
        ServiceSpec::gets(1, 4, HashGetVariant::Sequential, true),
        ServiceSpec::gets(1, 4, HashGetVariant::Parallel, false),
        ServiceSpec::walks(1, 4, 4, true),
        ServiceSpec::walks(1, 4, 4, false),
    ]);
    let workloads = Workload::split_sequential(512, spec.get_clients());
    let mut fleet = ServingFleet::deploy(
        &mut sim,
        &mut ctx,
        &server,
        Some(&store),
        client,
        spec,
        workloads,
    )
    .unwrap();
    let report = fleet.isolation_report();
    assert!(report.clean(), "{:?}", report.diagnostics);
    assert_eq!(report.programs, 3, "three self-recycling footprints");
    assert_eq!(report.checked, 3, "three pairs compared");
    // Host-armed services stage (and re-analyze) per-instance programs.
    fleet
        .run_closed_loop(&mut sim, ctx.pool_mut(), 8, 2)
        .unwrap();
}

/// The sharded cluster — per-shard self-recycling hash-get rings plus
/// NIC-resident replication chains journaling onto neighbor nodes —
/// passes the cluster-wide isolation proof at connect.
#[test]
fn cluster_connect_proves_isolation() {
    let (mut sim, mut cluster) = Cluster::deploy(ClusterSpec::small()).unwrap();
    let session = ClusterSession::connect(
        &mut sim,
        &mut cluster,
        redn::kv::session::SessionOpts::default(),
    )
    .unwrap();
    let report = session.isolation_report();
    assert!(report.clean(), "{:?}", report.diagnostics);
    assert_eq!(
        report.programs, 8,
        "one get ring + one replication chain per shard"
    );
    assert_eq!(report.checked, 8 * 7 / 2, "all pairs compared");
}

/// The Appendix A Turing ring — the analyzer's hardest customer
/// (multi-slot trigger WRITEs, post-patch operands, a self-enabling
/// ring) — compiles through `deploy` with the full suite on, and still
/// runs to the correct halt.
#[test]
fn turing_ring_passes_the_analyzer_and_halts() {
    let mut sim = Simulator::new(SimConfig::default());
    let node = sim.add_node("nic", HostConfig::default(), NicConfig::connectx5());
    let mut ctx = OffloadCtx::new(&mut sim, node).unwrap();
    let tm = redn::core::turing::machine::TuringMachine::busy_beaver_2();
    let compiled = ctx.compile_tm(&mut sim, &tm, &[0u32; 9], 4).unwrap();
    sim.run().unwrap();
    assert!(compiled.halted(&sim).unwrap());
}

/// The const-pool high-water mark surfaces through [`PassReport`], so
/// the analyzer's bounds proofs and `FleetStats` account the same pool
/// numbers.
///
/// [`PassReport`]: redn::core::ir::PassReport
#[test]
fn pass_report_carries_the_pool_high_water_mark() {
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
    let off = ctx
        .hash_get()
        .table(TableRegion::of(&tmr))
        .values(ValueSource::of(&vmr, 8))
        .respond_to(ClientDest::of(&rmr))
        .variant(HashGetVariant::Single)
        .pipeline_depth(4)
        .build_recycled(&mut sim, &mut pool)
        .unwrap();
    let rep = off.ir_report().unwrap();
    assert!(rep.pool_high_water > 0, "constants were placed");
    assert!(
        rep.pool_high_water <= pool.high_water(),
        "report ({}) cannot exceed the live pool ({})",
        rep.pool_high_water,
        pool.high_water()
    );
}

/// The deployment verifier at 32, 64 and 128 co-resident programs: the
/// report still counts every pair, a real deployment stays clean, one
/// duplicated program is caught against exactly its twin, and the cost
/// grows with the number of spans, not with the number of pairs (the
/// pairwise rules took 16× as long at 128 programs as at 32).
#[test]
fn deployment_verifier_scales_with_spans_not_pairs() {
    use redn::kv::session::{Session, SessionOpts};
    let (mut sim, client, server_node) = serving_rig();
    let server = MemcachedServer::create(&mut sim, server_node, 4096, 64, ProcessId(0)).unwrap();
    server.populate(&mut sim, 64).unwrap();
    let mut ctx = OffloadCtx::builder(server_node)
        .pool_capacity(1 << 24)
        .build(&mut sim)
        .unwrap();
    let npus = sim.nic_config(server_node).pus_per_port;
    let sessions: Vec<Session> = (0..128)
        .map(|i| {
            let opts = SessionOpts {
                pipeline_depth: 4,
                self_recycling: true,
                port: i % 2,
                pu_base: (i / 2 * 2) % npus,
            };
            let variant = HashGetVariant::Sequential;
            Session::connect_get(&mut sim, &mut ctx, &server, client, variant, opts).unwrap()
        })
        .collect();
    let verifier = |n: usize| {
        let mut v = DeploymentVerifier::new(format!("{n} programs"));
        for (i, s) in sessions[..n].iter().enumerate() {
            let fp = s.service().footprint().expect("self-recycling");
            v.add(fp.clone().named(format!("client {i}")));
        }
        v
    };
    let mut best_us = Vec::new();
    for n in [32usize, 64, 128] {
        let v = verifier(n);
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = std::time::Instant::now();
            let report = v.verify();
            best = best.min(t0.elapsed().as_secs_f64() * 1e6);
            assert!(report.clean(), "{:?}", report.diagnostics);
            assert_eq!((report.programs, report.checked), (n, n * (n - 1) / 2));
        }
        best_us.push(best);
    }
    assert!(
        best_us[2] < 8.0 * best_us[0],
        "verify grew quadratically: {best_us:?} us at 32/64/128 programs"
    );

    // A program deployed twice clashes with its twin and with nobody else.
    let mut v = verifier(128);
    let twin = sessions[17].service().footprint().unwrap();
    v.add(twin.clone().named("twin"));
    let report = v.verify();
    assert_eq!(report.checked, 129 * 128 / 2);
    assert!(!report.clean());
    for d in &report.diagnostics {
        assert!(
            d.message.contains("client 17") && d.message.contains("twin"),
            "{}",
            d.message
        );
    }
    golden("deployment_verifier_twin", &messages(&report));
}
