//! The ablation DESIGN.md §5.1 calls out: self-modifying programs are
//! only correct under doorbell ordering. Running the *same* modification
//! against an unmanaged (prefetching) queue silently executes stale code
//! — the §3.1 consistency hazard that motivates managed queues.
//!
//! Everything here is posted with raw verbs, below the IR on purpose:
//! `IrProgram::deploy` would refuse the unmanaged variant (the verifier
//! rejects patching a WQE on a prefetching queue), and this test exists
//! to show what that rule prevents.

use redn::core::ctx::ChainQueueBuilder;
use redn::core::encode::WqeField;
use redn::prelude::*;
use rnic_sim::config::SimConfig;
use rnic_sim::ids::ProcessId;
use rnic_sim::verbs::Opcode;
use rnic_sim::wqe::WorkRequest;

/// Conditional header helpers (Fig 4 compare/swap words).
mod helpers {
    pub use redn::core::encode::{cond_compare, cond_swap};
}

fn rig() -> (Simulator, rnic_sim::ids::NodeId) {
    let mut sim = Simulator::new(SimConfig::default());
    let node = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
    (sim, node)
}

/// Build the Fig 4 transmutation against a target queue that is either
/// managed (correct) or unmanaged (hazard): returns whether the action
/// fired.
fn run_conditional(managed_target: bool) -> bool {
    let (mut sim, node) = rig();
    let ctrl = ChainQueueBuilder::new(node, ProcessId(0))
        .build(&mut sim)
        .unwrap();
    let mut act_b = ChainQueueBuilder::new(node, ProcessId(0));
    if managed_target {
        act_b = act_b.managed();
    }
    let act = act_b.build(&mut sim).unwrap();
    let flag = sim.alloc(node, 8, 8).unwrap();
    let fmr = sim.register_mr(node, flag, 8, Access::all()).unwrap();
    let one = sim.alloc(node, 8, 8).unwrap();
    let omr = sim.register_mr(node, one, 8, Access::all()).unwrap();
    sim.mem_write_u64(node, one, 1).unwrap();

    // Action placeholder: NOOP formatted as WRITE(one -> flag), id = 7.
    let mut placeholder = WorkRequest::write(one, omr.lkey, 8, flag, fmr.rkey).with_id(7);
    placeholder.wqe.opcode = Opcode::Noop;
    // On an UNMANAGED queue the post rings the doorbell: the NIC
    // prefetches the NOOP before the CAS lands. On a managed queue
    // (`post_send` stays quiet there) the fetch waits for the ENABLE
    // below.
    let idx = sim.post_send(act.qp, placeholder).unwrap();

    for wr in [
        WorkRequest::cas(
            act.field_addr(idx, WqeField::Header),
            act.ring.rkey,
            helpers::cond_compare(7),
            helpers::cond_swap(Opcode::Write, 7),
            0,
            0,
        )
        .signaled(),
        WorkRequest::wait(ctrl.cq, 1),
        WorkRequest::enable(act.sq, idx + 1),
    ] {
        sim.post_send_quiet(ctrl.qp, wr).unwrap();
    }
    sim.ring_doorbell(ctrl.qp).unwrap();
    sim.run().unwrap();
    sim.mem_read_u64(node, flag).unwrap() == 1
}

#[test]
fn managed_queue_executes_the_modified_wqe() {
    assert!(
        run_conditional(true),
        "doorbell ordering must observe the CAS-transmuted WRITE"
    );
}

#[test]
fn unmanaged_queue_executes_stale_code() {
    // The identical program on a prefetching queue: the CAS still lands
    // in host memory, but the NIC already snapshotted the NOOP. The
    // branch silently does not fire — this is why every RedN action
    // queue is managed.
    assert!(
        !run_conditional(false),
        "prefetch hazard: the stale NOOP should have executed"
    );
}

#[test]
fn memory_shows_the_modification_either_way() {
    // The hazard is in the *fetch*, not the memory: after the run the
    // header word in host memory is transmuted in both cases.
    let (mut sim, node) = rig();
    let act = ChainQueueBuilder::new(node, ProcessId(0))
        .build(&mut sim)
        .unwrap();
    let mut placeholder = WorkRequest::noop().with_id(9);
    placeholder.wqe.opcode = Opcode::Noop;
    let idx = sim.post_send(act.qp, placeholder).unwrap();
    sim.run().unwrap();

    let ctrl = ChainQueueBuilder::new(node, ProcessId(0))
        .build(&mut sim)
        .unwrap();
    let header = act.field_addr(idx, WqeField::Header);
    sim.post_send(
        ctrl.qp,
        WorkRequest::cas(
            header,
            act.ring.rkey,
            helpers::cond_compare(9),
            helpers::cond_swap(Opcode::Write, 9),
            0,
            0,
        ),
    )
    .unwrap();
    sim.run().unwrap();
    let word = sim.mem_read_u64(node, header).unwrap();
    let (op, id) = rnic_sim::wqe::split_header(word);
    assert_eq!(op, Opcode::Write as u16);
    assert_eq!(id, 9);
}
