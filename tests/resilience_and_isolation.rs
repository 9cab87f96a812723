//! Integration tests for the §5.5/§5.6 properties: isolation under
//! contention, crash survival, and the security/isolation mechanisms the
//! paper discusses in §3.5.

use redn::prelude::*;
use redn_bench::contention::{run_contention, ReaderPath};
use redn_bench::crash::{run_crash_timeline, CrashPath};
use rnic_sim::config::{LinkConfig, SimConfig};
use rnic_sim::qp::QpConfig;
use rnic_sim::time::Time;
use rnic_sim::wqe::WorkRequest;

#[test]
fn redn_isolated_from_writer_storm() {
    let storm = run_contention(16, 20, ReaderPath::RedN).unwrap();
    assert!(storm.p99_us < 8.0, "RedN p99 under storm: {}", storm.p99_us);
}

#[test]
fn vanilla_outage_matches_restart_plus_rebuild() {
    let timeline = run_crash_timeline(
        CrashPath::Vanilla,
        Time::from_secs(4),
        Time::from_secs(1),
        Time::from_ms(250),
        Time::from_us(100),
    )
    .unwrap();
    let dead = timeline.iter().filter(|p| p.normalized < 0.05).count() as f64 * 0.25;
    // Restart (1 s) + rebuild (1.25 s) = 2.25 s of darkness.
    assert!((dead - 2.25).abs() <= 0.5, "outage {dead}s");
    // Back to full throughput by the end.
    assert!(timeline.last().unwrap().normalized > 0.5);
}

#[test]
fn rate_limiter_caps_a_malicious_loop() {
    // §3.5 "Isolation": even a non-terminating offload is bounded by the
    // per-QP rate limiter. A paced queue executing NOOPs must not exceed
    // its configured rate.
    let mut sim = Simulator::new(SimConfig::default());
    let n = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
    let cq = sim.create_cq(n, 4096).unwrap();
    let qp = sim.create_qp(n, QpConfig::new(cq).sq_depth(2048)).unwrap();
    let peer = sim.create_qp(n, QpConfig::new(cq)).unwrap();
    sim.connect_qps(qp, peer).unwrap();
    sim.set_rate_limit(qp, 100_000.0, 1); // 100K ops/s
    for _ in 0..500 {
        sim.post_send_quiet(qp, WorkRequest::noop()).unwrap();
    }
    sim.ring_doorbell(qp).unwrap();
    sim.run_until(Time::from_ms(2)).unwrap();
    let executed = sim.wq_executed(sim.sq_of(qp));
    // 2 ms at 100K ops/s = ~200 ops (+1 burst).
    assert!(
        executed <= 210,
        "rate limiter leaked: {executed} ops in 2 ms at 100K/s"
    );
    assert!(executed >= 150, "rate limiter over-throttled: {executed}");
}

#[test]
fn clients_need_no_rkeys_for_redn_triggers() {
    // §3.5 "Security": RedN clients interact via two-sided SENDs only.
    // A client that tries a one-sided WRITE into the server without a
    // valid rkey gets a protection error, while the SEND path works.
    let mut sim = Simulator::new(SimConfig::default());
    let c = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let s = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
    sim.connect_nodes(c, s, LinkConfig::back_to_back());
    let ccq = sim.create_cq(c, 16).unwrap();
    let cqp = sim.create_qp(c, QpConfig::new(ccq)).unwrap();
    let scq = sim.create_cq(s, 16).unwrap();
    let sqp = sim.create_qp(s, QpConfig::new(scq)).unwrap();
    sim.connect_qps(cqp, sqp).unwrap();

    let secret = sim.alloc(s, 8, 8).unwrap();
    sim.register_mr(s, secret, 8, Access::all()).unwrap();
    sim.mem_write_u64(s, secret, 0x5EC2E7).unwrap();
    let buf = sim.alloc(c, 8, 8).unwrap();
    let bmr = sim.register_mr(c, buf, 8, Access::all()).unwrap();

    // Guessed rkey: denied.
    sim.post_send(cqp, WorkRequest::write(buf, bmr.lkey, 8, secret, 0x1337))
        .unwrap();
    sim.run().unwrap();
    let cqe = sim.poll_cq(ccq, 1).pop().unwrap();
    assert_eq!(cqe.status, rnic_sim::cq::CqeStatus::ProtectionError);
    assert_eq!(sim.mem_read_u64(s, secret).unwrap(), 0x5EC2E7);

    // SEND needs no keys at all (the server posted a RECV).
    let dst = sim.alloc(s, 8, 8).unwrap();
    let dmr = sim.register_mr(s, dst, 8, Access::all()).unwrap();
    sim.post_recv(sqp, WorkRequest::recv(dst, dmr.lkey, 8))
        .unwrap();
    sim.post_send(cqp, WorkRequest::send(buf, bmr.lkey, 8).signaled())
        .unwrap();
    sim.run().unwrap();
    assert!(sim
        .poll_cq(ccq, 4)
        .iter()
        .all(|c| c.status == rnic_sim::cq::CqeStatus::Success));
}

#[test]
fn offloads_are_auditable_via_completions() {
    // §3.5: "offloaded code can be configured by the servers to be
    // auditable through completion events". Every executed WQE with the
    // signaled flag shows up on the chain's CQ — count them.
    use redn::core::ctx::OffloadCtx;
    let mut sim = Simulator::new(SimConfig::default());
    let n = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
    let mut ctx = OffloadCtx::new(&mut sim, n).unwrap();
    let buf = sim.alloc(n, 8, 8).unwrap();
    let mr = sim.register_mr(n, buf, 8, Access::all()).unwrap();
    let mut prog = ctx.chain_program(&mut sim).unwrap();
    let branch = prog.if_eq(9, WorkRequest::write(buf, mr.lkey, 8, buf, mr.rkey));
    let ctrl_cq = prog.ctrl_queue().cq;
    let armed = prog.deploy(&mut sim).unwrap();
    branch.inject_x(&mut sim, 9).unwrap();
    armed.launch(&mut sim).unwrap();
    sim.run().unwrap();
    // The CAS signaled on the control CQ: the audit trail exists.
    assert!(sim.cq_total(ctrl_cq) >= 1);
}
