//! The public API DESIGN.md names beyond the deploy builders, driven from
//! outside the library crates: the §3.5 wide and inequality conditionals,
//! the Fig 5 unrolled `while`, Appendix A's four `mov` modes, the trigger
//! point a chain program waits on, a single list walk through a session,
//! and deregistration revoking a key.

use redn::core::constructs::cond::{IfEqWide, IfLe};
use redn::core::constructs::loops::UnrolledWhile;
use redn::core::constructs::mov::{MovUnit, RegisterFile};
use redn::core::ctx::OffloadCtx;
use redn::core::ir::{IrProgram, QId};
use redn::kv::liststore::ListStore;
use redn::kv::session::{Session, SessionOpts};
use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::cq::CqeStatus;
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::mem::Access;
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::Simulator;
use rnic_sim::wqe::WorkRequest;

/// A client and a server joined back to back.
fn two_nodes() -> (Simulator, NodeId, NodeId) {
    let mut sim = Simulator::new(SimConfig::default());
    let c = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let s = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
    sim.connect_nodes(c, s, LinkConfig::back_to_back());
    (sim, c, s)
}

/// A fresh IR program over a new unmanaged control queue and a new
/// managed queue for the WQEs the program patches.
fn program(sim: &mut Simulator, ctx: &OffloadCtx) -> (IrProgram, QId, QId) {
    let ctrl = ctx.chain_queue().depth(128).on_pu(0).build(sim).unwrap();
    let patched = ctx.chain_queue().managed().depth(128).build(sim).unwrap();
    let mut p = IrProgram::linear();
    let (ctrl, patched) = (p.chain(ctrl), p.chain(patched));
    (p, ctrl, patched)
}

#[test]
fn wide_and_inequality_conditionals_branch_on_the_nic() {
    let (mut sim, _, s) = two_nodes();
    let mut ctx = OffloadCtx::new(&mut sim, s).unwrap();
    let flags = sim.alloc(s, 32, 8).unwrap();
    let fmr = sim.register_mr(s, flags, 32, Access::all()).unwrap();
    let one = ctx.pool_mut().push_u64(&mut sim, 1).unwrap();
    let set = |i: u64, lkey: u32| WorkRequest::write(one, lkey, 8, flags + 8 * i, fmr.rkey);
    let lkey = ctx.pool().mr().lkey;

    // 80-bit equality (two chained CASes), then x <= 50 and x <= 40
    // with x = 49.
    let y: u128 = 0x1234_5678_9ABC_DEF0_1122;
    let (mut p, ctrl, patched) = program(&mut sim, &ctx);
    let wide = IfEqWide::build(&mut p, ctrl, patched, y, 80, set(0, lkey), None);
    let le = IfLe::build(&mut p, ctrl, patched, 50, set(1, lkey));
    let gt = IfLe::build(&mut p, ctrl, patched, 40, set(2, lkey));
    let mut lowered = p.deploy(&mut sim, ctx.pool_mut()).unwrap();
    lowered.post(&mut sim, patched).unwrap();
    wide.inject_x(&mut sim, y).unwrap();
    le.inject_x(&mut sim, 49).unwrap();
    gt.inject_x(&mut sim, 49).unwrap();
    lowered.post(&mut sim, ctrl).unwrap();
    sim.run().unwrap();
    let flag = |sim: &Simulator, i: u64| sim.mem_read_u64(s, flags + 8 * i).unwrap();
    assert_eq!(flag(&sim, 0), 1, "all 80 bits equal");
    assert_eq!(flag(&sim, 1), 1, "49 <= 50");
    assert_eq!(flag(&sim, 2), 0, "49 > 40");
}

#[test]
fn unrolled_while_fires_the_matching_iteration() {
    let (mut sim, _, s) = two_nodes();
    let mut ctx = OffloadCtx::new(&mut sim, s).unwrap();
    let out = sim.alloc(s, 8, 8).unwrap();
    let omr = sim.register_mr(s, out, 8, Access::all()).unwrap();
    let lkey = ctx.pool().mr().lkey;
    let responses: Vec<WorkRequest> = (0..6u64)
        .map(|i| {
            let marker = ctx.pool_mut().push_u64(&mut sim, 100 + i).unwrap();
            WorkRequest::write(marker, lkey, 8, out, omr.rkey)
        })
        .collect();
    let values: Vec<u64> = (10..16).collect();

    let (mut p, ctrl, patched) = program(&mut sim, &ctx);
    let lw = UnrolledWhile::build(&mut p, ctrl, patched, &values, &responses, true);
    let mut lowered = p.deploy(&mut sim, ctx.pool_mut()).unwrap();
    lowered.post(&mut sim, patched).unwrap();
    lw.inject_x(&mut sim, 13).unwrap();
    lowered.post(&mut sim, ctrl).unwrap();
    sim.run().unwrap();
    assert_eq!(
        sim.mem_read_u64(s, out).unwrap(),
        103,
        "iteration 3 matched"
    );
}

#[test]
fn the_four_mov_modes_move_through_registers_and_memory() {
    let (mut sim, _, s) = two_nodes();
    let mut ctx = OffloadCtx::new(&mut sim, s).unwrap();
    let data = sim.alloc(s, 64, 8).unwrap();
    let dmr = sim.register_mr(s, data, 64, Access::all()).unwrap();
    sim.mem_write_u64(s, data + 8, 0x5EED).unwrap();
    let regs = RegisterFile::create(&mut sim, ctx.pool_mut(), 4).unwrap();
    let unit = MovUnit::new(regs, dmr);

    // R0 = data; R1 = [R0 + 8]; R2 = R1; [R0 + 16] = R2; R3 = 7.
    let (mut p, ctrl, patched) = program(&mut sim, &ctx);
    unit.mov_imm(&mut p, ctrl, 0, data);
    unit.mov_load(&mut p, ctrl, patched, 1, 0, 8);
    unit.mov_reg(&mut p, ctrl, 2, 1);
    unit.mov_store(&mut p, ctrl, patched, 0, 2, 16);
    unit.mov_imm(&mut p, ctrl, 3, 7);
    let mut lowered = p.deploy(&mut sim, ctx.pool_mut()).unwrap();
    lowered.post(&mut sim, patched).unwrap();
    lowered.post(&mut sim, ctrl).unwrap();
    sim.run().unwrap();
    let reg = |sim: &Simulator, i: usize| unit.regs.read(sim, s, i).unwrap();
    assert_eq!(
        (reg(&sim, 1), reg(&sim, 2), reg(&sim, 3)),
        (0x5EED, 0x5EED, 7)
    );
    assert_eq!(sim.mem_read_u64(s, data + 16).unwrap(), 0x5EED, "stored");
}

#[test]
fn a_chain_program_waits_on_its_trigger_point() {
    let (mut sim, c, s) = two_nodes();
    let mut ctx = OffloadCtx::new(&mut sim, s).unwrap();
    let tp = ctx.trigger_point().build(&mut sim).unwrap();
    let ccq = sim.create_cq(c, 16).unwrap();
    let cqp = sim.create_qp(c, QpConfig::new(ccq)).unwrap();
    sim.connect_qps(cqp, tp.qp).unwrap();
    let flag = sim.alloc(s, 8, 8).unwrap();
    let fmr = sim.register_mr(s, flag, 8, Access::all()).unwrap();
    let one = ctx.pool_mut().push_u64(&mut sim, 1).unwrap();
    let lkey = ctx.pool().mr().lkey;
    let sink = sim.alloc(s, 8, 8).unwrap();
    let sink_mr = sim.register_mr(s, sink, 8, Access::all()).unwrap();
    sim.post_recv(tp.qp, WorkRequest::recv(sink, sink_mr.lkey, 8))
        .unwrap();

    // The next trigger SEND releases the branch; x = 7 is placed by the
    // host, so only the SEND gates it.
    let mut prog = ctx.chain_program(&mut sim).unwrap();
    prog.wait_on(tp.recv_cq, sim.cq_total(tp.recv_cq) + 1);
    let branch = prog.if_eq(7, WorkRequest::write(one, lkey, 8, flag, fmr.rkey));
    let armed = prog.deploy(&mut sim).unwrap();
    branch.inject_x(&mut sim, 7).unwrap();
    armed.launch(&mut sim).unwrap();
    sim.run().unwrap();
    assert_eq!(
        sim.mem_read_u64(s, flag).unwrap(),
        0,
        "parked on the trigger"
    );

    let src = sim.alloc(c, 8, 8).unwrap();
    let smr = sim.register_mr(c, src, 8, Access::all()).unwrap();
    sim.post_send(cqp, WorkRequest::send(src, smr.lkey, 8).signaled())
        .unwrap();
    sim.run().unwrap();
    assert_eq!(sim.cq_total(tp.recv_cq), 1);
    assert_eq!(sim.mem_read_u64(s, flag).unwrap(), 1, "released");
}

#[test]
fn a_single_walk_finds_its_key() {
    let (mut sim, c, s) = two_nodes();
    let store = ListStore::create(&mut sim, s, 4, 4, 64, ProcessId(0)).unwrap();
    let mut ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 20)
        .build(&mut sim)
        .unwrap();
    let opts = SessionOpts {
        pipeline_depth: 2,
        ..SessionOpts::default()
    };
    let nodes = store.nodes_per_list;
    let mut walks = Session::connect_walk(&mut sim, &mut ctx, &store, c, nodes, opts).unwrap();
    let key = store.key_of(2, 3);
    let pending = walks.walk(&mut sim, store.head(2), key).unwrap();
    sim.run().unwrap();
    let done = walks.reap(&mut sim, 4);
    assert_eq!(done.len(), 1, "one response");
    assert_eq!(done[0].tag(), walks.response_tag(pending.instance));
    // Every byte of a node's value is its key's low byte.
    let value = walks.read_value(&sim, pending.instance, 64).unwrap();
    assert_eq!(value, [key as u8; 64]);
}

#[test]
fn deregistering_a_region_revokes_its_rkey() {
    let (mut sim, c, s) = two_nodes();
    let ccq = sim.create_cq(c, 16).unwrap();
    let cqp = sim.create_qp(c, QpConfig::new(ccq)).unwrap();
    let scq = sim.create_cq(s, 16).unwrap();
    let sqp = sim.create_qp(s, QpConfig::new(scq)).unwrap();
    sim.connect_qps(cqp, sqp).unwrap();
    let src = sim.alloc(c, 8, 8).unwrap();
    let smr = sim.register_mr(c, src, 8, Access::all()).unwrap();
    let dst = sim.alloc(s, 8, 8).unwrap();
    let dmr = sim.register_mr(s, dst, 8, Access::all()).unwrap();
    let write = WorkRequest::write(src, smr.lkey, 8, dst, dmr.rkey).signaled();

    sim.post_send(cqp, write).unwrap();
    sim.run().unwrap();
    assert_eq!(sim.poll_cq(ccq, 4)[0].status, CqeStatus::Success);

    assert!(sim.mem(s).deregister(dmr.lkey));
    sim.post_send(cqp, write).unwrap();
    sim.run().unwrap();
    assert_eq!(sim.poll_cq(ccq, 4)[0].status, CqeStatus::ProtectionError);
}
