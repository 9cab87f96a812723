//! Golden traces: the behaviour oracle for refactors of `rnic_sim::sim`.
//!
//! Each scenario drives a traced [`Simulator`] through one family of
//! handler branches and renders everything an observer can see — the full
//! [`Trace`](rnic_sim::trace::Trace) (`"{t:?} {ev:?}"` per record), the
//! event count, every CQ's pollable entries and each NIC's utilization.
//! The concatenation must equal `tests/golden/trace.txt` byte for byte.
//! Event sequence numbers break same-instant ties, so a refactor that
//! merely reorders two `schedule` calls shows up here as a diff.
//!
//! Regenerate (only when a PR *says* it changes the model):
//! `UPDATE_GOLDEN=1 cargo test -p rnic_sim --test trace_golden`.

use rnic_sim::config::{Generation, HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::ids::{CqId, NodeId, ProcessId, QpId, WqId};
use rnic_sim::mem::{Access, MemoryRegion};
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::{ListenMode, Simulator};
use rnic_sim::time::Time;
use rnic_sim::verbs::Opcode;
use rnic_sim::wqe::{header_word, split_header, Sge, WorkRequest, OFF_OPERAND, SGE_SIZE, WQE_SIZE};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace.txt");

/// A traced two-node simulator (`a` initiates, `b` responds).
fn rig() -> (Simulator, NodeId, NodeId) {
    let mut sim = Simulator::new(SimConfig {
        trace: true,
        ..SimConfig::default()
    });
    let a = sim.add_node("a", HostConfig::default(), NicConfig::connectx5());
    let b = sim.add_node("b", HostConfig::default(), NicConfig::connectx5());
    sim.connect_nodes(a, b, LinkConfig::back_to_back());
    (sim, a, b)
}

fn region(sim: &mut Simulator, node: NodeId, len: u64) -> MemoryRegion {
    let addr = sim.alloc(node, len, 64).unwrap();
    sim.register_mr(node, addr, len, Access::all()).unwrap()
}

/// A connected QP pair with one CQ per side: `(qp_x, qp_y, cq_x, cq_y)`.
fn qp_pair(sim: &mut Simulator, x: NodeId, y: NodeId) -> (QpId, QpId, CqId, CqId) {
    let cq_x = sim.create_cq(x, 64).unwrap();
    let cq_y = sim.create_cq(y, 64).unwrap();
    let qp_x = sim.create_qp(x, QpConfig::new(cq_x)).unwrap();
    let qp_y = sim.create_qp(y, QpConfig::new(cq_y)).unwrap();
    sim.connect_qps(qp_x, qp_y).unwrap();
    (qp_x, qp_y, cq_x, cq_y)
}

/// Write a table of scatter entries at a fresh address; returns it.
fn sge_table(sim: &mut Simulator, node: NodeId, entries: &[Sge]) -> u64 {
    let table = sim.alloc(node, entries.len() as u64 * SGE_SIZE, 8).unwrap();
    for (i, e) in entries.iter().enumerate() {
        sim.mem_write(node, table + i as u64 * SGE_SIZE, &e.encode())
            .unwrap();
    }
    table
}

/// Render everything observable about a finished scenario.
fn render(out: &mut String, name: &str, sim: &mut Simulator, nodes: &[NodeId], cqs: &[CqId]) {
    writeln!(out, "== {name}").unwrap();
    writeln!(out, "now {:?}", sim.now()).unwrap();
    writeln!(out, "events_processed {}", sim.events_processed()).unwrap();
    writeln!(out, "pending_events {}", sim.pending_events()).unwrap();
    for (t, ev) in sim.trace().events() {
        writeln!(out, "{t:?} {ev:?}").unwrap();
    }
    for &cq in cqs {
        writeln!(
            out,
            "cq {cq:?} total {} overrun {}",
            sim.cq_total(cq),
            sim.cq_overrun(cq)
        )
        .unwrap();
        for cqe in sim.poll_cq(cq, usize::MAX) {
            writeln!(out, "  {cqe:?}").unwrap();
        }
    }
    for &n in nodes {
        writeln!(
            out,
            "node {n:?} verbs {} doorbells {} posts {} {:?}",
            sim.verbs_executed(n),
            sim.node_doorbells(n),
            sim.node_posts(n),
            sim.utilization(n)
        )
        .unwrap();
    }
}

/// WRITE / READ / SGL-READ / CAS / FETCH_ADD / MAX / MIN, remote and
/// loopback, signaled and not, with and without a result sink.
fn one_sided(out: &mut String) {
    let mut sim = Simulator::new(SimConfig {
        trace: true,
        ..SimConfig::default()
    });
    let a = sim.add_node("a", HostConfig::default(), NicConfig::connectx5());
    let b = sim.add_node(
        "b",
        HostConfig::default(),
        NicConfig::connectx5().dual_port(),
    );
    sim.connect_nodes(a, b, LinkConfig::back_to_back());
    let (qp_a, _qp_b, cq_a, cq_b) = qp_pair(&mut sim, a, b);
    let local = region(&mut sim, a, 256);
    let remote = region(&mut sim, b, 256);
    for i in 0..8 {
        sim.mem_write_u64(a, local.addr + 8 * i, 0x1000 + i)
            .unwrap();
        sim.mem_write_u64(b, remote.addr + 8 * i, 0x2000 + i)
            .unwrap();
    }
    // Remote, one doorbell per verb.
    let (l, r) = (local.addr, remote.addr);
    sim.post_send(
        qp_a,
        WorkRequest::write(l, local.lkey, 64, r + 64, remote.rkey).signaled(),
    )
    .unwrap();
    sim.post_send(qp_a, WorkRequest::write(l, local.lkey, 0, r, remote.rkey))
        .unwrap();
    sim.post_send(
        qp_a,
        WorkRequest::read(l + 64, local.lkey, 32, r, remote.rkey).signaled(),
    )
    .unwrap();
    sim.run().unwrap();
    // SGL READ landing one 24-byte response in two places (one entry of
    // zero length in the middle is skipped).
    let table = sge_table(
        &mut sim,
        a,
        &[
            Sge {
                addr: l + 128,
                lkey: local.lkey,
                len: 8,
            },
            Sge {
                addr: l + 200,
                lkey: local.lkey,
                len: 0,
            },
            Sge {
                addr: l + 160,
                lkey: local.lkey,
                len: 16,
            },
        ],
    );
    sim.post_send(
        qp_a,
        WorkRequest::read_sgl(table, 3, r, remote.rkey).signaled(),
    )
    .unwrap();
    // Atomics as one batch: CAS hit, CAS miss with writeback, FADD with
    // writeback, MAX, MIN.
    sim.post_send_batch(
        qp_a,
        &[
            WorkRequest::cas(r, remote.rkey, 0x2000, 7, 0, 0).signaled(),
            WorkRequest::cas(r, remote.rkey, 0x2000, 9, l + 192, local.lkey).signaled(),
            WorkRequest::fetch_add(r + 8, remote.rkey, 5, l + 200, local.lkey),
            WorkRequest::max(r + 16, remote.rkey, 0x9999).signaled(),
            WorkRequest::min(r + 24, remote.rkey, 3),
        ],
    )
    .unwrap();
    sim.run().unwrap();

    // A second pair landing on b's port 1: its link and atomic engine
    // are separate resources from port 0's.
    let cq_p = sim.create_cq(b, 16).unwrap();
    let qp_p = sim.create_qp(b, QpConfig::new(cq_p).on_port(1)).unwrap();
    let qp_a2 = sim.create_qp(a, QpConfig::new(cq_a)).unwrap();
    sim.connect_qps(qp_a2, qp_p).unwrap();
    sim.post_send_batch(
        qp_a2,
        &[
            WorkRequest::read(l + 64, local.lkey, 64, r, remote.rkey).signaled(),
            WorkRequest::cas(r + 40, remote.rkey, 0x2005, 1, 0, 0).signaled(),
        ],
    )
    .unwrap();
    sim.post_send(
        qp_p,
        WorkRequest::write(r, remote.lkey, 64, l + 64, local.rkey).signaled(),
    )
    .unwrap();
    sim.run().unwrap();

    // Loopback pair on b: the wire is skipped but PCIe is not.
    let (lb1, _lb2, cq_l, _) = qp_pair(&mut sim, b, b);
    sim.post_send_batch(
        lb1,
        &[
            WorkRequest::write(r, remote.lkey, 16, r + 128, remote.rkey).signaled(),
            WorkRequest::read(r + 144, remote.lkey, 16, r, remote.rkey).signaled(),
            WorkRequest::fetch_add(r + 32, remote.rkey, 1, r + 160, remote.lkey).signaled(),
            WorkRequest::noop().signaled(),
            WorkRequest::noop(),
        ],
    )
    .unwrap();
    sim.run().unwrap();
    for i in 0..32 {
        writeln!(
            out,
            "mem a+{:<3} {:#x}  b+{:<3} {:#x}",
            8 * i,
            sim.mem_read_u64(a, l + 8 * i).unwrap(),
            8 * i,
            sim.mem_read_u64(b, r + 8 * i).unwrap()
        )
        .unwrap();
    }
    render(
        out,
        "one_sided",
        &mut sim,
        &[a, b],
        &[cq_a, cq_b, cq_p, cq_l],
    );
}

/// SEND / WRITE_IMM against the receive side: RNR park + retry, plain
/// and SGL scatter, and every receive-side error.
fn two_sided(out: &mut String) {
    let (mut sim, a, b) = rig();
    let (qp_a, qp_b, cq_a, cq_b) = qp_pair(&mut sim, a, b);
    let local = region(&mut sim, a, 128);
    let remote = region(&mut sim, b, 256);
    for i in 0..8 {
        sim.mem_write_u64(a, local.addr + 8 * i, 0xA0 + i).unwrap();
    }
    let (l, r) = (local.addr, remote.addr);

    // SEND and WRITE_IMM with no RECV posted: both park on the RNR queue.
    sim.post_send(qp_a, WorkRequest::send(l, local.lkey, 16).signaled())
        .unwrap();
    sim.post_send(
        qp_a,
        WorkRequest::write_imm(l, local.lkey, 8, r + 64, remote.rkey, 0xFEED).signaled(),
    )
    .unwrap();
    sim.run().unwrap();
    // Each post_recv retries one parked arrival after RNR_DELAY.
    sim.post_recv(qp_b, WorkRequest::recv(r, remote.lkey, 32))
        .unwrap();
    sim.run().unwrap();
    sim.post_recv(qp_b, WorkRequest::recv(0, 0, 0)).unwrap();
    sim.run().unwrap();

    // SGL RECV scattering 24 bytes across two targets.
    let table = sge_table(
        &mut sim,
        b,
        &[
            Sge {
                addr: r + 96,
                lkey: remote.lkey,
                len: 8,
            },
            Sge {
                addr: r + 128,
                lkey: remote.lkey,
                len: 16,
            },
        ],
    );
    sim.post_recv(qp_b, WorkRequest::recv_sgl(table, 2))
        .unwrap();
    sim.post_send(qp_a, WorkRequest::send(l, local.lkey, 24))
        .unwrap();
    sim.run().unwrap();

    // Message longer than the scatter list; longer than a plain RECV;
    // RECV with an unregistered lkey; SGE table with a bad entry key; a
    // zero-length SEND; a WRITE_IMM whose write faults (no RECV consumed).
    sim.post_recv(qp_b, WorkRequest::recv_sgl(table, 2))
        .unwrap();
    sim.post_recv(qp_b, WorkRequest::recv(r, remote.lkey, 8))
        .unwrap();
    sim.post_recv(qp_b, WorkRequest::recv(r, 0xBAD, 64))
        .unwrap();
    let bad_table = sge_table(
        &mut sim,
        b,
        &[Sge {
            addr: r,
            lkey: 0xBAD,
            len: 64,
        }],
    );
    sim.post_recv(qp_b, WorkRequest::recv_sgl(bad_table, 1))
        .unwrap();
    sim.post_recv(qp_b, WorkRequest::recv(r, remote.lkey, 8))
        .unwrap();
    sim.post_send_batch(
        qp_a,
        &[
            WorkRequest::send(l, local.lkey, 32).signaled(),
            WorkRequest::send(l, local.lkey, 16).signaled(),
            WorkRequest::send(l, local.lkey, 8).signaled(),
            WorkRequest::send(l, local.lkey, 8).signaled(),
            WorkRequest::send(l, local.lkey, 0).signaled(),
            WorkRequest::write_imm(l, local.lkey, 8, r, 0xBAD, 1).signaled(),
        ],
    )
    .unwrap();
    sim.run().unwrap();

    // A RECV slot corrupted in host memory after posting: BadWqe at
    // consume time (the RECV is decoded when consumed, not when posted).
    let idx = sim
        .post_recv(qp_b, WorkRequest::recv(r, remote.lkey, 8))
        .unwrap();
    let (sq, rq) = (sim.sq_of(qp_b), sim.rq_of(qp_b));
    // `create_qp` allocates the RQ ring right behind the SQ ring.
    let rq_base = sim.sq_wqe_addr(qp_b, 0) + u64::from(sim.wq_depth(sq)) * WQE_SIZE;
    let rq_slot = rq_base + idx % u64::from(sim.wq_depth(rq)) * WQE_SIZE;
    sim.mem_write_u64(b, rq_slot, header_word(Opcode::Noop, 0))
        .unwrap();
    sim.post_send(qp_a, WorkRequest::send(l, local.lkey, 8).signaled())
        .unwrap();
    sim.run().unwrap();
    writeln!(out, "rq {rq:?} executed {}", sim.wq_executed(rq)).unwrap();
    for i in 0..24 {
        writeln!(
            out,
            "mem b+{:<3} {:#x}",
            8 * i,
            sim.mem_read_u64(b, r + 8 * i).unwrap()
        )
        .unwrap();
    }
    render(out, "two_sided", &mut sim, &[a, b], &[cq_a, cq_b]);
}

/// A fully posted cyclic RQ serves more SENDs than it has slots.
fn cyclic_rq(out: &mut String) {
    let (mut sim, a, b) = rig();
    let cq_a = sim.create_cq(a, 64).unwrap();
    let cq_b = sim.create_cq(b, 64).unwrap();
    let qp_a = sim.create_qp(a, QpConfig::new(cq_a)).unwrap();
    let qp_b = sim.create_qp(b, QpConfig::new(cq_b).rq_depth(2)).unwrap();
    sim.connect_qps(qp_a, qp_b).unwrap();
    let local = region(&mut sim, a, 64);
    let remote = region(&mut sim, b, 64);
    writeln!(out, "cyclic early: {:?}", sim.set_rq_cyclic(qp_b)).unwrap();
    for i in 0..2 {
        sim.post_recv(qp_b, WorkRequest::recv(remote.addr + 8 * i, remote.lkey, 8))
            .unwrap();
    }
    sim.set_rq_cyclic(qp_b).unwrap();
    writeln!(
        out,
        "post to cyclic: {:?}",
        sim.post_recv(qp_b, WorkRequest::recv(remote.addr, remote.lkey, 8))
    )
    .unwrap();
    for i in 0..5u64 {
        sim.mem_write_u64(a, local.addr + 8 * i, 0xC0 + i).unwrap();
        sim.post_send(qp_a, WorkRequest::send(local.addr + 8 * i, local.lkey, 8))
            .unwrap();
    }
    sim.run().unwrap();
    writeln!(
        out,
        "slots {:#x} {:#x}",
        sim.mem_read_u64(b, remote.addr).unwrap(),
        sim.mem_read_u64(b, remote.addr + 8).unwrap()
    )
    .unwrap();
    render(out, "cyclic_rq", &mut sim, &[a, b], &[cq_a, cq_b]);
}

/// WAIT park / wake, ENABLE of a managed queue (verb and host), a WAIT
/// whose threshold already holds, `wait_prev` fencing and a rate limit.
fn cross_channel(out: &mut String) {
    let (mut sim, a, b) = rig();
    let client_cq = sim.create_cq(a, 16).unwrap();
    let qp_client = sim.create_qp(a, QpConfig::new(client_cq)).unwrap();
    let recv_cq = sim.create_cq(b, 16).unwrap();
    let chain_cq = sim.create_cq(b, 16).unwrap();
    let qp_server = sim
        .create_qp(b, QpConfig::new(chain_cq).recv_cq(recv_cq))
        .unwrap();
    sim.connect_qps(qp_client, qp_server).unwrap();
    // Control queue (unmanaged) and a managed worker, both loopback on b.
    let ctrl = sim.create_qp(b, QpConfig::new(chain_cq).on_pu(3)).unwrap();
    let ctrl_peer = sim.create_qp(b, QpConfig::new(chain_cq)).unwrap();
    sim.connect_qps(ctrl, ctrl_peer).unwrap();
    let worker = sim
        .create_qp(b, QpConfig::new(chain_cq).managed().sq_depth(8))
        .unwrap();
    let worker_peer = sim.create_qp(b, QpConfig::new(chain_cq)).unwrap();
    sim.connect_qps(worker, worker_peer).unwrap();
    let mem = region(&mut sim, b, 128);
    sim.mem_write_u64(b, mem.addr, 0x11).unwrap();
    let src = region(&mut sim, a, 8);

    // Worker: two writes behind ENABLE; only the first is released by the
    // verb, the second by the host.
    for i in 1..=2u64 {
        sim.post_send_quiet(
            worker,
            WorkRequest::write(mem.addr, mem.lkey, 8, mem.addr + 8 * i, mem.rkey).signaled(),
        )
        .unwrap();
    }
    // Control chain: WAIT for the trigger RECV, ENABLE one worker WQE,
    // then a WAIT that is already satisfied, then a fenced NOOP pair.
    sim.post_recv(qp_server, WorkRequest::recv(0, 0, 0))
        .unwrap();
    sim.post_send_batch(
        ctrl,
        &[
            WorkRequest::wait(recv_cq, 1),
            WorkRequest::enable(sim.sq_of(worker), 1).signaled(),
            WorkRequest::wait(recv_cq, 1).signaled(),
            WorkRequest::noop().signaled(),
            WorkRequest::noop().signaled().wait_prev(),
            WorkRequest::write(mem.addr, mem.lkey, 8, mem.addr + 64, mem.rkey)
                .signaled()
                .wait_prev(),
        ],
    )
    .unwrap();
    sim.run().unwrap();
    writeln!(out, "parked: events {}", sim.events_processed()).unwrap();
    sim.post_send(qp_client, WorkRequest::send(src.addr, src.lkey, 8))
        .unwrap();
    sim.run().unwrap();
    sim.host_enable(worker, 2).unwrap();
    sim.run().unwrap();
    // The managed worker itself parks on a WAIT two completions ahead of
    // its CQ; two signaled control NOOPs wake it.
    let thresh = sim.cq_total(chain_cq) + 2;
    sim.post_send_quiet(worker, WorkRequest::wait(chain_cq, thresh))
        .unwrap();
    sim.post_send_quiet(
        worker,
        WorkRequest::write(mem.addr, mem.lkey, 8, mem.addr + 24, mem.rkey).signaled(),
    )
    .unwrap();
    sim.host_enable(worker, 4).unwrap();
    sim.run().unwrap();
    writeln!(
        out,
        "worker parked: executed {}",
        sim.wq_executed(sim.sq_of(worker))
    )
    .unwrap();
    for _ in 0..2 {
        sim.post_send(ctrl, WorkRequest::noop().signaled()).unwrap();
    }
    sim.run().unwrap();

    // Rate-limited queue: four NOOPs paced 10 us apart.
    sim.set_rate_limit(qp_client, 1e5, 1);
    for _ in 0..4 {
        sim.post_send(qp_client, WorkRequest::noop().signaled())
            .unwrap();
    }
    sim.run().unwrap();
    render(
        out,
        "cross_channel",
        &mut sim,
        &[a, b],
        &[client_cq, recv_cq, chain_cq],
    );
}

/// A 4-slot self-recycling managed ring (§3.4): FADDs bump its own WAIT
/// and ENABLE thresholds each round; the tiny CQ overruns on the way.
fn recycled_ring(out: &mut String) {
    let mut sim = Simulator::new(SimConfig {
        trace: true,
        ..SimConfig::default()
    });
    let n = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
    let cq = sim.create_cq(n, 2).unwrap();
    let mqp = sim
        .create_qp(n, QpConfig::new(cq).managed().sq_depth(4))
        .unwrap();
    let peer = sim.create_qp(n, QpConfig::new(cq)).unwrap();
    sim.connect_qps(mqp, peer).unwrap();
    let ring = sim.register_sq_ring(mqp, ProcessId(0)).unwrap();
    let msq = sim.sq_of(mqp);
    let wait_op = sim.sq_wqe_addr(mqp, 2) + OFF_OPERAND;
    let enable_op = sim.sq_wqe_addr(mqp, 3) + OFF_OPERAND;
    sim.post_send_quiet(
        mqp,
        WorkRequest::fetch_add(enable_op, ring.rkey, 4, 0, 0).signaled(),
    )
    .unwrap();
    sim.post_send_quiet(
        mqp,
        WorkRequest::fetch_add(wait_op, ring.rkey, 2, 0, 0).signaled(),
    )
    .unwrap();
    sim.post_send_quiet(mqp, WorkRequest::wait(cq, 0)).unwrap();
    sim.post_send_quiet(mqp, WorkRequest::enable(msq, 4))
        .unwrap();
    sim.host_enable(mqp, 4).unwrap();
    sim.run_until(Time::from_us(12)).unwrap();
    writeln!(
        out,
        "rounds {} wait_thresh {} enable_thresh {}",
        sim.wq_executed(msq) / 4,
        sim.mem_read_u64(n, wait_op).unwrap(),
        sim.mem_read_u64(n, enable_op).unwrap()
    )
    .unwrap();
    // Step a little further one event at a time, then for a duration.
    for _ in 0..5 {
        assert!(sim.step().unwrap());
    }
    sim.run_for(Time::from_us(1)).unwrap();
    render(out, "recycled_ring", &mut sim, &[n], &[cq]);
}

/// CQ listeners in both modes, timers, a listener removing itself, a
/// listener silenced by an OS panic, and host CPU accounting.
fn host_side(out: &mut String) {
    let (mut sim, a, b) = rig();
    let (qp_a, qp_b, cq_a, cq_b) = qp_pair(&mut sim, a, b);
    let local = region(&mut sim, a, 64);
    let remote = region(&mut sim, b, 64);
    let log = Rc::new(RefCell::new(String::new()));

    // Polling listener on the receive CQ: reposts a RECV per completion.
    let (l1, rmr) = (log.clone(), remote);
    sim.set_cq_listener(
        cq_b,
        ListenMode::Polling,
        Box::new(move |sim, cqe| {
            writeln!(l1.borrow_mut(), "poll-listener {:?} {cqe:?}", sim.now()).unwrap();
            sim.post_recv(cqe.qp, WorkRequest::recv(rmr.addr, rmr.lkey, 8))
                .unwrap();
        }),
    );
    // Event listener on the send CQ: removes itself after two CQEs.
    let l2 = log.clone();
    let key = Rc::new(RefCell::new(0u64));
    let (k2, seen) = (key.clone(), Rc::new(RefCell::new(0u32)));
    *key.borrow_mut() = sim.set_cq_listener(
        cq_a,
        ListenMode::Event,
        Box::new(move |sim, cqe| {
            writeln!(l2.borrow_mut(), "event-listener {:?} {cqe:?}", sim.now()).unwrap();
            *seen.borrow_mut() += 1;
            if *seen.borrow() == 2 {
                sim.remove_cq_listener(*k2.borrow());
            }
        }),
    );
    sim.post_recv(qp_b, WorkRequest::recv(remote.addr, remote.lkey, 8))
        .unwrap();
    // Timers post the sends: one absolute, one relative, one in the past.
    for (i, at) in [Time::from_us(3), Time::from_us(1), Time::ZERO]
        .into_iter()
        .enumerate()
    {
        let (l3, lmr) = (log.clone(), local);
        sim.at(
            at,
            Box::new(move |sim| {
                writeln!(l3.borrow_mut(), "timer {i} at {:?}", sim.now()).unwrap();
                sim.post_send(qp_a, WorkRequest::send(lmr.addr, lmr.lkey, 8).signaled())
                    .unwrap();
            }),
        );
    }
    let l4 = log.clone();
    sim.after(
        Time::from_us(40),
        Box::new(move |sim| {
            let done = sim.host_execute(NodeId(1), Time::from_us(2), 0);
            writeln!(
                l4.borrow_mut(),
                "after at {:?} cpu done {done:?}",
                sim.now()
            )
            .unwrap();
        }),
    );
    sim.run().unwrap();

    // A listener removed, and a host that panics, between a CQE and its
    // pickup: both pending notifications fire into nothing.
    for _ in 0..2 {
        sim.post_recv(qp_b, WorkRequest::recv(remote.addr, remote.lkey, 8))
            .unwrap();
    }
    let l5 = log.clone();
    let late = sim.set_cq_listener(
        cq_a,
        ListenMode::Polling,
        Box::new(move |sim, cqe| {
            writeln!(l5.borrow_mut(), "late-listener {:?} {cqe:?}", sim.now()).unwrap();
        }),
    );
    let send = WorkRequest::send(local.addr, local.lkey, 8).signaled();
    sim.post_send(qp_a, send).unwrap();
    sim.run_for(Time::from_ps(1_610_000)).unwrap();
    writeln!(out, "mid-pickup: pending {}", sim.pending_events()).unwrap();
    sim.remove_cq_listener(late);
    sim.os_panic(b);
    sim.run().unwrap();
    // With b's OS down its listener is never scheduled again; the NIC
    // keeps serving.
    sim.post_send(qp_a, send).unwrap();
    sim.run().unwrap();
    writeln!(out, "os_alive a {} b {}", sim.os_alive(a), sim.os_alive(b)).unwrap();
    out.push_str(&log.borrow());
    render(out, "host_side", &mut sim, &[a, b], &[cq_a, cq_b]);
}

/// Every fault path reachable through the public API.
fn faults(out: &mut String) {
    let (mut sim, a, b) = rig();
    let (qp_a, qp_b, cq_a, cq_b) = qp_pair(&mut sim, a, b);
    let local = region(&mut sim, a, 64);
    let remote = region(&mut sim, b, 64);
    let (l, r) = (local.addr, remote.addr);

    // Undecodable WQE: smash slot 1's opcode after posting (before fetch).
    sim.post_send_batch(
        qp_a,
        &[
            WorkRequest::noop().signaled(),
            WorkRequest::noop(),
            WorkRequest::noop().signaled(),
        ],
    )
    .unwrap();
    let slot = sim.sq_wqe_addr(qp_a, 1);
    let (_, id) = split_header(sim.mem_read_u64(a, slot).unwrap());
    sim.mem_write_u64(a, slot, 0xFFFF | (id << 16)).unwrap();
    sim.run().unwrap();

    // WAIT on an unknown CQ; ENABLE of an unknown WQ; a RECV written into
    // a send-queue slot; bad rkey on WRITE / READ / atomic; bad lkey at
    // the initiator (fails locally before anything leaves).
    sim.post_send(qp_a, WorkRequest::wait(CqId(999), 1))
        .unwrap();
    sim.post_send(qp_a, WorkRequest::enable(WqId(999), 1))
        .unwrap();
    sim.run().unwrap();
    let idx = sim.post_send_quiet(qp_a, WorkRequest::noop()).unwrap();
    sim.rewrite_sq_wqe(qp_a, idx, WorkRequest::recv(l, local.lkey, 8))
        .unwrap();
    sim.ring_doorbell(qp_a).unwrap();
    sim.run().unwrap();
    sim.post_send_batch(
        qp_a,
        &[
            WorkRequest::write(l, local.lkey, 8, r, 0xBAD),
            WorkRequest::read(l, local.lkey, 8, r, 0xBAD),
            WorkRequest::cas(r, 0xBAD, 0, 1, 0, 0),
            WorkRequest::cas(r + 4, remote.rkey, 0, 1, 0, 0),
            WorkRequest::write(l, 0xBAD, 8, r, remote.rkey),
            WorkRequest::send(l + 60, local.lkey, 8),
            WorkRequest::read(l, 0xBAD, 8, r, remote.rkey).signaled(),
        ],
    )
    .unwrap();
    sim.run().unwrap();

    // Unconnected QP: SEND / READ / atomic all fail locally.
    let lonely = sim.create_qp(a, QpConfig::new(cq_a)).unwrap();
    sim.post_send_batch(
        lonely,
        &[
            WorkRequest::send(l, local.lkey, 8),
            WorkRequest::read(l, local.lkey, 8, r, remote.rkey),
            WorkRequest::fetch_add(r, remote.rkey, 1, 0, 0),
        ],
    )
    .unwrap();
    sim.run().unwrap();

    // Capability gates: a NIC without WAIT/ENABLE or calc verbs.
    let mut plain = NicConfig::with_generation(Generation::ConnectX3);
    plain.supports_wait_enable = false;
    plain.supports_calc = false;
    let c = sim.add_node("c", HostConfig::default(), plain);
    sim.connect_nodes(c, b, LinkConfig::back_to_back());
    let cq_c = sim.create_cq(c, 16).unwrap();
    let qp_c = sim.create_qp(c, QpConfig::new(cq_c)).unwrap();
    let qp_bc = sim.create_qp(b, QpConfig::new(cq_b)).unwrap();
    sim.connect_qps(qp_c, qp_bc).unwrap();
    sim.post_send_batch(
        qp_c,
        &[
            WorkRequest::wait(cq_c, 0),
            WorkRequest::max(r, remote.rkey, 1),
            WorkRequest::noop().signaled(),
        ],
    )
    .unwrap();
    sim.run().unwrap();

    // Dead responder QP: the initiator errors out after the timeout, a
    // post to the dead QP is refused, its in-flight fetch is dropped, and
    // a revive lets traffic through again.
    let pid = sim.spawn_process(b, "victim", None);
    let cq_v = sim.create_cq(b, 16).unwrap();
    let qp_v = sim.create_qp_owned(b, QpConfig::new(cq_v), pid).unwrap();
    let qp_i = sim.create_qp(a, QpConfig::new(cq_a)).unwrap();
    sim.connect_qps(qp_i, qp_v).unwrap();
    let vmr = {
        let addr = sim.alloc(b, 64, 64).unwrap();
        sim.register_mr_owned(b, addr, 64, Access::all(), pid)
            .unwrap()
    };
    // The victim parks on a WAIT, then dies while a later fetch is in
    // flight (the DMA's result is dropped); the CQE that would have woken
    // it finds the queue dead.
    let thresh = sim.cq_total(cq_b) + 1;
    sim.post_send_batch(
        qp_v,
        &[
            WorkRequest::wait(cq_b, thresh),
            WorkRequest::noop().signaled(),
        ],
    )
    .unwrap();
    sim.run().unwrap();
    sim.post_send(qp_v, WorkRequest::noop().signaled()).unwrap();
    sim.after(
        Time::from_ps(800_000),
        Box::new(move |sim| assert!(sim.kill_process(b, pid))),
    );
    sim.run().unwrap();
    writeln!(out, "kill again {}", sim.kill_process(b, pid)).unwrap();
    sim.post_send(qp_b, WorkRequest::noop().signaled()).unwrap();
    sim.run().unwrap();
    sim.post_send(qp_i, WorkRequest::send(l, local.lkey, 8).signaled())
        .unwrap();
    writeln!(
        out,
        "post to dead: {:?} / {:?}",
        sim.post_send(qp_v, WorkRequest::noop()),
        sim.post_recv(qp_v, WorkRequest::recv(0, 0, 0))
    )
    .unwrap();
    sim.run().unwrap();
    writeln!(out, "restart {}", sim.restart_process(b, pid)).unwrap();
    sim.revive_qp(qp_v);
    // The victim's registration was reclaimed with it: this write faults
    // at the responder even though the QP is back.
    sim.post_send(
        qp_i,
        WorkRequest::write(l, local.lkey, 8, vmr.addr, vmr.rkey).signaled(),
    )
    .unwrap();
    sim.post_send(
        qp_i,
        WorkRequest::write(l, local.lkey, 8, r, remote.rkey).signaled(),
    )
    .unwrap();
    sim.run().unwrap();
    render(
        out,
        "faults",
        &mut sim,
        &[a, b, c],
        &[cq_a, cq_b, cq_c, cq_v],
    );
}

/// The event budget turns a runaway ring into a clean error, from each
/// of the three run entry points.
fn event_budget(out: &mut String) {
    let mut sim = Simulator::new(SimConfig {
        trace: true,
        max_events: 60,
        ..SimConfig::default()
    });
    let n = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
    let cq = sim.create_cq(n, 4).unwrap();
    let mqp = sim
        .create_qp(n, QpConfig::new(cq).managed().sq_depth(1))
        .unwrap();
    let peer = sim.create_qp(n, QpConfig::new(cq)).unwrap();
    sim.connect_qps(mqp, peer).unwrap();
    let ctr = region(&mut sim, n, 8);
    sim.post_send_quiet(mqp, WorkRequest::fetch_add(ctr.addr, ctr.rkey, 1, 0, 0))
        .unwrap();
    sim.host_enable(mqp, u64::MAX / 2).unwrap();
    writeln!(out, "run: {:?}", sim.run()).unwrap();
    writeln!(out, "run_until: {:?}", sim.run_until(Time::from_ms(1))).unwrap();
    writeln!(out, "step: {:?}", sim.step()).unwrap();
    render(out, "event_budget", &mut sim, &[n], &[cq]);
}

#[test]
fn trace_matches_golden() {
    let mut got = String::new();
    for scenario in [
        one_sided,
        two_sided,
        cyclic_rq,
        cross_channel,
        recycled_ring,
        host_side,
        faults,
        event_budget,
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
            "trace diverges from {GOLDEN} at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}
