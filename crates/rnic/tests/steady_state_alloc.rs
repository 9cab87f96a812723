//! Steady state calls the allocator zero times: a recycled managed ring
//! cycling through fetch, issue, delivery and completion, and the pinned
//! PU acquires every issued WQE makes.
//!
//! One `#[test]` only: the counting allocator is process-wide, and the
//! counter only runs on the thread that switches it on.

use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
use rnic_sim::cq::Cqe;
use rnic_sim::engine::PoolResource;
use rnic_sim::ids::{CqId, NodeId, ProcessId, WqId};
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;
use rnic_sim::wqe::WorkRequest;

mod common;
use common::calls;

#[global_allocator]
static ALLOCATOR: common::CountingAlloc = common::CountingAlloc;

/// The 4-slot self-recycling ring of
/// `recycled_ring_wait_counting_survives_cq_overrun`: two head FADDs bump
/// the self-ENABLE (+4 slots per round) and the tail WAIT (+2 signaled
/// per round), both initialised one delta low. Returns the simulator,
/// its node, the ring's send queue, its CQ and the WAIT's threshold word.
fn recycled_ring() -> (Simulator, NodeId, WqId, CqId, u64) {
    let mut sim = Simulator::new(SimConfig::default());
    let n = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
    let cq = sim.create_cq(n, 64).unwrap();
    let mqp = sim
        .create_qp(n, QpConfig::new(cq).managed().sq_depth(4))
        .unwrap();
    let peer = sim.create_qp(n, QpConfig::new(cq)).unwrap();
    sim.connect_qps(mqp, peer).unwrap();
    let ring = sim.register_sq_ring(mqp, ProcessId(0)).unwrap();
    let msq = sim.sq_of(mqp);
    let wait_op = sim.sq_wqe_addr(mqp, 2) + 48; // operand offset
    let enable_op = sim.sq_wqe_addr(mqp, 3) + 48;
    for wr in [
        WorkRequest::fetch_add(enable_op, ring.rkey, 4, 0, 0).signaled(),
        WorkRequest::fetch_add(wait_op, ring.rkey, 2, 0, 0).signaled(),
        WorkRequest::wait(cq, 0),
        WorkRequest::enable(msq, 4),
    ] {
        sim.post_send_quiet(mqp, wr).unwrap();
    }
    sim.host_enable(mqp, 4).unwrap();
    (sim, n, msq, cq, wait_op)
}

/// Step until the ring has executed `rounds` more rounds, polling its CQ
/// into `cqes` (a reused buffer) so it never overruns.
fn run_rounds(sim: &mut Simulator, msq: WqId, cq: CqId, rounds: u64, cqes: &mut Vec<Cqe>) {
    let until = sim.wq_executed(msq) + 4 * rounds;
    while sim.wq_executed(msq) < until {
        assert!(sim.step().unwrap(), "a recycled ring never drains");
        cqes.clear();
        sim.poll_cq_into(cq, 64, cqes);
    }
}

#[test]
fn steady_state_ring_and_pinned_acquires_never_allocate() {
    common::counting(true);

    let (mut sim, n, msq, cq, wait_op) = recycled_ring();
    let mut cqes = Vec::with_capacity(64);
    run_rounds(&mut sim, msq, cq, 1_000, &mut cqes);
    let before = calls();
    run_rounds(&mut sim, msq, cq, 10_000, &mut cqes);
    assert_eq!(
        calls() - before,
        0,
        "10 K rounds of a warm recycled ring must not call the allocator"
    );
    assert!(!sim.cq_overrun(cq));
    let threshold = sim.mem_read_u64(n, wait_op).unwrap();
    assert!(
        threshold >= 2 * 11_000,
        "the ring re-armed itself: {threshold}"
    );

    // What every issued WQE does to its port's PU pool.
    let mut pus = PoolResource::new(8);
    let before = calls();
    let mut now = Time::ZERO;
    for i in 0..10_000 {
        now += Time::from_ns(100);
        // Six servers fall ever further behind; 0 and 5 stay idle.
        pus.acquire_at([1, 2, 3, 4, 6, 7][i % 6], now, Time::from_us(1));
    }
    let idle = now + Time::from_us(10);
    pus.acquire_at(5, idle, Time::from_us(1));
    pus.acquire_at(0, idle, Time::from_us(1));
    let (server, finish) = pus.acquire(idle, Time::from_us(1));
    assert_eq!(
        calls() - before,
        0,
        "pinned acquires, and the pooled one after them, must not call the allocator"
    );
    assert_eq!(server, 0, "earliest-free, lowest index");
    assert_eq!(finish, idle + Time::from_us(2));
    let (server, _) = pus.acquire(idle, Time::from_us(1));
    assert_eq!(server, 5, "then the other server that freed at that time");
    common::counting(false);
}
