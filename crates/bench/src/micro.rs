//! Microbenchmarks: Tables 1–3, Figures 7–8 (paper §2.2, §5.1).

use redn_core::ctx::OffloadCtx;
use redn_core::ir::{DeployOpts, IrProgram, Kind, Lowered, OpBuild, RingSpec, WaitCond};
use rnic_sim::config::{Generation, HostConfig, NicConfig, SimConfig};
use rnic_sim::error::Result;
use rnic_sim::mem::Access;
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;
use rnic_sim::verbs::Opcode;
use rnic_sim::wqe::WorkRequest;

use crate::report::Row;
use crate::{testbed, testbed_with};

/// Measure one remote verb's completion latency (64 B IO), averaged over
/// `reps` back-to-back single-verb posts.
pub fn verb_latency(op: Opcode, reps: usize) -> Result<f64> {
    let (mut sim, c, s) = testbed();
    let ccq = sim.create_cq(c, 64)?;
    let cqp = sim.create_qp(c, QpConfig::new(ccq))?;
    let scq = sim.create_cq(s, 64)?;
    let sqp = sim.create_qp(s, QpConfig::new(scq))?;
    sim.connect_qps(cqp, sqp)?;
    let lbuf = sim.alloc(c, 64, 8)?;
    let lmr = sim.register_mr(c, lbuf, 64, Access::all())?;
    let rbuf = sim.alloc(s, 64, 8)?;
    let rmr = sim.register_mr(s, rbuf, 64, Access::all())?;

    let mut total = Time::ZERO;
    for _ in 0..reps {
        let start = sim.now();
        let wr = match op {
            Opcode::Write => WorkRequest::write(lbuf, lmr.lkey, 64, rbuf, rmr.rkey),
            Opcode::Read => WorkRequest::read(lbuf, lmr.lkey, 64, rbuf, rmr.rkey),
            Opcode::Cas => WorkRequest::cas(rbuf, rmr.rkey, 0, 0, 0, 0),
            Opcode::FetchAdd => WorkRequest::fetch_add(rbuf, rmr.rkey, 1, 0, 0),
            Opcode::Max => WorkRequest::max(rbuf, rmr.rkey, 1),
            Opcode::Min => WorkRequest::min(rbuf, rmr.rkey, 1),
            _ => WorkRequest::noop(),
        };
        sim.post_send(cqp, wr.signaled())?;
        sim.run()?;
        let cqe = sim.poll_cq(ccq, 1).pop().expect("completion");
        total += cqe.time - start;
    }
    Ok(total.as_us_f64() / reps as f64)
}

/// Fig 7: verb latencies.
pub fn fig7() -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    for (op, paper) in [
        (Opcode::Write, 1.6),
        (Opcode::Read, 1.8),
        (Opcode::Cas, 1.8),
        (Opcode::FetchAdd, 1.8),
        (Opcode::Max, 1.8),
        (Opcode::Noop, 1.21),
    ] {
        let measured = verb_latency(op, 20)?;
        rows.push(Row::new(
            format!("{op:?} (remote, 64B)"),
            crate::report::us(measured),
            crate::report::us(paper),
            "",
        ));
    }
    // Network estimate: back-to-back RTT (the paper derives 0.25 us from
    // the remote/local NOOP delta).
    rows.push(Row::new("network RTT", "0.25 us", "0.25 us", "link config"));
    Ok(rows)
}

/// Total latency of an `n`-NOOP chain under the given ordering mode.
/// Modes: 0 = WQ order, 1 = completion order, 2 = doorbell order.
pub fn ordering_chain_latency(mode: u8, n: usize) -> Result<f64> {
    let mut sim = Simulator::new(SimConfig::default());
    let node = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
    let cq = sim.create_cq(node, (4 * n).max(64) as u32)?;
    let depth = (n as u32).next_power_of_two().max(64);
    let mut cfg = QpConfig::new(cq).sq_depth(depth);
    if mode == 2 {
        cfg = cfg.managed();
    }
    let qp = sim.create_qp(node, cfg)?;
    let peer = sim.create_qp(node, QpConfig::new(cq))?;
    sim.connect_qps(qp, peer)?;

    let start = sim.now();
    for i in 0..n {
        let mut wr = WorkRequest::noop().signaled();
        if mode == 1 && i > 0 {
            wr = wr.wait_prev();
        }
        sim.post_send_quiet(qp, wr)?;
    }
    match mode {
        2 => sim.host_enable(qp, n as u64)?,
        _ => sim.ring_doorbell(qp)?,
    }
    sim.run()?;
    let cqes = sim.poll_cq(cq, n + 1);
    assert_eq!(cqes.len(), n);
    Ok((cqes[n - 1].time - start).as_us_f64())
}

/// Fig 8: ordering-mode latency for n ∈ {1, 5, 10, 20, 30, 40, 50}.
/// Returns `(n, wq_order, completion_order, doorbell_order)` rows.
pub fn fig8() -> Result<Vec<(usize, f64, f64, f64)>> {
    let mut out = Vec::new();
    for n in [1usize, 5, 10, 20, 30, 40, 50] {
        out.push((
            n,
            ordering_chain_latency(0, n)?,
            ordering_chain_latency(1, n)?,
            ordering_chain_latency(2, n)?,
        ));
    }
    Ok(out)
}

/// Saturated verb-processing throughput (M ops/s) for `op` on one port of
/// the given generation, using `qps` parallel queues.
pub fn verb_throughput(
    generation: Generation,
    op: Opcode,
    qps: usize,
    per_qp: usize,
) -> Result<f64> {
    let (mut sim, _c, s) = testbed_with(NicConfig::with_generation(generation));
    let cq = sim.create_cq(s, 16384)?;
    let buf = sim.alloc(s, 4096, 64)?;
    let mr = sim.register_mr(s, buf, 4096, Access::all())?;
    let pus = NicConfig::with_generation(generation).pus_per_port;
    let mut pairs = Vec::new();
    for i in 0..qps {
        // Pin active queues across all PUs explicitly — the idle loopback
        // peers would otherwise eat round-robin slots.
        let qp = sim.create_qp(
            s,
            QpConfig::new(cq).sq_depth(per_qp as u32 + 8).on_pu(i % pus),
        )?;
        let peer = sim.create_qp(s, QpConfig::new(cq).on_pu(i % pus))?;
        sim.connect_qps(qp, peer)?;
        pairs.push(qp);
    }
    let start = sim.now();
    for qp in &pairs {
        for i in 0..per_qp {
            let wr = match op {
                Opcode::Write => WorkRequest::write(buf, mr.lkey, 64, buf + 64, mr.rkey),
                Opcode::Read => WorkRequest::read(buf, mr.lkey, 64, buf + 64, mr.rkey),
                Opcode::Cas => WorkRequest::cas(buf + 64, mr.rkey, 1, 1, 0, 0),
                Opcode::FetchAdd => WorkRequest::fetch_add(buf + 64, mr.rkey, 0, 0, 0),
                Opcode::Max => WorkRequest::max(buf + 64, mr.rkey, 0),
                _ => WorkRequest::noop(),
            };
            // Signal only the last WQE per queue: completions off the
            // critical path, like real throughput benchmarks.
            let wr = if i + 1 == per_qp { wr.signaled() } else { wr };
            sim.post_send_quiet(*qp, wr)?;
        }
    }
    for qp in &pairs {
        sim.ring_doorbell(*qp)?;
    }
    sim.run()?;
    let elapsed = (sim.now() - start).as_us_f64();
    Ok((qps * per_qp) as f64 / elapsed)
}

/// Table 1: write-verb processing bandwidth per ConnectX generation.
pub fn table1() -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    for (generation, paper) in [
        (Generation::ConnectX3, 15.0),
        (Generation::ConnectX5, 63.0),
        (Generation::ConnectX6, 112.0),
    ] {
        let m = verb_throughput(generation, Opcode::Write, 32, 800)?;
        rows.push(Row::new(
            format!("{} ({} PUs)", generation.name(), generation.pus_per_port()),
            crate::report::mops(m),
            crate::report::mops(paper),
            format!("year {}", generation.year()),
        ));
    }
    Ok(rows)
}

/// Throughput of RedN's `if` construct: serially chained conditionals on
/// one control/action queue pair (the paper's single-chain measurement).
pub fn if_throughput(count: usize) -> Result<f64> {
    let mut sim = Simulator::new(SimConfig::default());
    let node = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
    let mut ctx = OffloadCtx::builder(node)
        .pool_capacity(1 << 12)
        .build(&mut sim)?;
    let flag = sim.alloc(node, 8, 8)?;
    let fmr = sim.register_mr(node, flag, 8, Access::all())?;
    let one = sim.alloc(node, 8, 8)?;
    let omr = sim.register_mr(node, one, 8, Access::all())?;
    sim.mem_write_u64(node, one, 1)?;

    let mut prog =
        ctx.chain_program_sized(&mut sim, (count * 4 + 64) as u32, (count + 64) as u32)?;
    let mut ifs = Vec::new();
    for _ in 0..count {
        let action = WorkRequest::write(one, omr.lkey, 8, flag, fmr.rkey);
        ifs.push(prog.if_eq(7, action));
    }
    let armed = prog.deploy(&mut sim)?;
    for parts in &ifs {
        parts.inject_x(&mut sim, 7)?; // always taken
    }
    let start = sim.now();
    armed.launch(&mut sim)?;
    sim.run()?;
    let elapsed = (sim.now() - start).as_us_f64();
    Ok(count as f64 / elapsed)
}

/// The minimal recycled `while`: one conditional-style CAS + one ADD of
/// `delta` on `word`, then a WAIT for both — the paper's accounting; the
/// rest of the ring is the recycling machinery itself. Lowered with the
/// optimizer off, so the round keeps the paper's shape (in-body WAIT
/// fix-up, tail WAIT + self-ENABLE): 8 slots.
fn while_ring(
    sim: &mut Simulator,
    ctx: &mut OffloadCtx,
    word: u64,
    rkey: u32,
    delta: u64,
) -> Result<Lowered> {
    let (mut p, ring) = IrProgram::recycled(RingSpec {
        node: ctx.node(),
        owner: ctx.owner(),
        pu: None,
        port: ctx.port(),
    });
    for wr in [
        WorkRequest::cas(word, rkey, u64::MAX, 0, 0, 0),
        WorkRequest::fetch_add(word, rkey, delta, 0, 0),
    ] {
        p.push(ring, OpBuild::new(Kind::Raw(wr.signaled())));
    }
    p.push(ring, OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)));
    let opts = DeployOpts {
        optimize: false,
        verify: true,
    };
    p.deploy_with(sim, ctx.pool_mut(), opts, None)
}

/// Throughput of a recycled `while` loop: rounds per second of a minimal
/// conditional ring (Table 3's "while recycled" row).
pub fn recycled_while_throughput(run_us: u64) -> Result<f64> {
    let mut sim = Simulator::new(SimConfig::default());
    let node = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
    let mut ctx = OffloadCtx::builder(node)
        .pool_capacity(1 << 12)
        .build(&mut sim)?;
    let ctr = sim.alloc(node, 8, 8)?;
    let cmr = sim.register_mr(node, ctr, 8, Access::all())?;
    let lowered = while_ring(&mut sim, &mut ctx, ctr, cmr.rkey, 1)?;
    sim.run_until(Time::from_us(run_us))?;
    let lp = lowered.ring().expect("a recycled program lowers to a ring");
    let rounds = lp.rounds(&sim);
    Ok(rounds as f64 / run_us as f64)
}

/// Table 3: verb and construct throughput on one CX5 port.
pub fn table3() -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    for (op, label, paper) in [
        (Opcode::Cas, "CAS (atomic)", 8.4),
        (Opcode::FetchAdd, "ADD (atomic)", 8.4),
        (Opcode::Read, "READ (copy)", 65.0),
        (Opcode::Write, "WRITE (copy)", 63.0),
        (Opcode::Max, "MAX (calc)", 63.0),
    ] {
        let m = verb_throughput(Generation::ConnectX5, op, 32, 600)?;
        rows.push(Row::new(
            label,
            crate::report::mops(m),
            crate::report::mops(paper),
            "",
        ));
    }
    let if_rate = if_throughput(300)?;
    rows.push(Row::new(
        "if construct",
        crate::report::mops(if_rate),
        crate::report::mops(0.7),
        "single chain",
    ));
    rows.push(Row::new(
        "while (unrolled)",
        crate::report::mops(if_rate),
        crate::report::mops(0.7),
        "== if per iteration",
    ));
    let rec = recycled_while_throughput(3000)?;
    rows.push(Row::new(
        "while (recycled)",
        crate::report::mops(rec),
        crate::report::mops(0.3),
        "ring incl. fix-ups",
    ));
    Ok(rows)
}

/// Table 2: WR cost of the constructs (our builder accounting vs the
/// paper's).
pub fn table2() -> Result<Vec<Row>> {
    // if with trigger: counted directly off the combinator layer.
    let mut sim = Simulator::new(SimConfig::default());
    let node = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
    let mut ctx = OffloadCtx::builder(node)
        .pool_capacity(1 << 12)
        .build(&mut sim)?;
    let buf = sim.alloc(node, 8, 8)?;
    let mr = sim.register_mr(node, buf, 8, Access::all())?;
    let mut prog = ctx.chain_program(&mut sim)?;
    let trigger_cq = prog.action_queue().cq; // any CQ works for accounting
    prog.wait_on(trigger_cq, 0);
    prog.if_eq(1, WorkRequest::write(buf, mr.lkey, 8, buf, mr.rkey));
    let c = prog.counts();
    let mut rows = vec![Row::new(
        "if",
        format!("{}C + {}A + {}E", c.copies, c.atomics, c.ordering),
        "1C + 1A + 3E",
        "exact match",
    )];
    rows.push(Row::new(
        "while (unrolled, per iter)",
        format!("{}C + {}A + {}E", c.copies, c.atomics, c.ordering),
        "1C + 1A + 3E",
        "== if",
    ));

    // Recycled loop: one full ring round of the minimal loop.
    let rc = while_ring(&mut sim, &mut ctx, buf, mr.rkey, 0)?
        .report()
        .after;
    rows.push(Row::new(
        "while (recycled, per round)",
        format!("{}C + {}A + {}E", rc.copies, rc.atomics, rc.ordering),
        "3C + 2A + 4E",
        "ours counts fix-ups",
    ));
    rows.push(Row::new(
        "operand limit",
        "48 bits",
        "48 bits",
        "header id field",
    ));
    // Keep the sim alive until here so the ring teardown is clean.
    drop(sim);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_latencies_track_paper() {
        let w = verb_latency(Opcode::Write, 5).unwrap();
        let r = verb_latency(Opcode::Read, 5).unwrap();
        assert!((w - 1.6).abs() < 0.1, "WRITE {w}");
        assert!((r - 1.8).abs() < 0.1, "READ {r}");
    }

    #[test]
    fn fig8_marginals_track_paper() {
        let wq1 = ordering_chain_latency(0, 1).unwrap();
        let wq50 = ordering_chain_latency(0, 50).unwrap();
        let comp50 = ordering_chain_latency(1, 50).unwrap();
        let db50 = ordering_chain_latency(2, 50).unwrap();
        assert!((wq1 - 1.21).abs() < 0.05, "first {wq1}");
        let wq_marginal = (wq50 - wq1) / 49.0;
        let comp_marginal = (comp50 - wq1) / 49.0;
        let db_marginal = (db50 - wq1) / 49.0;
        assert!((wq_marginal - 0.17).abs() < 0.03, "wq {wq_marginal}");
        assert!((comp_marginal - 0.19).abs() < 0.03, "comp {comp_marginal}");
        assert!((db_marginal - 0.54).abs() < 0.06, "db {db_marginal}");
    }

    #[test]
    fn table1_rates_track_paper() {
        let cx5 = verb_throughput(Generation::ConnectX5, Opcode::Write, 32, 400).unwrap();
        assert!((cx5 - 63.0).abs() / 63.0 < 0.15, "CX5 {cx5}");
        let cx3 = verb_throughput(Generation::ConnectX3, Opcode::Write, 16, 400).unwrap();
        assert!((cx3 - 15.0).abs() / 15.0 < 0.15, "CX3 {cx3}");
    }

    #[test]
    fn table3_atomics_bottleneck_on_engine() {
        let cas = verb_throughput(Generation::ConnectX5, Opcode::Cas, 32, 300).unwrap();
        assert!((cas - 8.4).abs() / 8.4 < 0.15, "CAS {cas}");
        let read = verb_throughput(Generation::ConnectX5, Opcode::Read, 32, 300).unwrap();
        assert!(read > cas * 5.0, "READ {read} vs CAS {cas}");
    }

    #[test]
    fn construct_throughput_in_paper_ballpark() {
        // The IR's WAIT-elision pass stages one ordering verb fewer per
        // conditional than the paper's Table 2 chain, so the measured
        // rate sits above the unoptimized 0.7 M/s calibration point.
        let f = if_throughput(150).unwrap();
        assert!(
            f > 0.5 && f < 2.5,
            "if throughput {f} M/s (paper: 0.7 unoptimized)"
        );
        let r = recycled_while_throughput(1500).unwrap();
        assert!(r > 0.1 && r < 0.6, "recycled {r} M/s (paper: 0.3)");
    }
}
