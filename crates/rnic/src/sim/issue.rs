//! Stage 2 — issue: decode the snapshotted bytes, apply the gates (WAIT
//! threshold, `wait_prev` fence, capability bits, rate limit), occupy the
//! queue's PU, and at `IssueDone` either complete the WQE locally or
//! launch its request towards the peer QP.

use super::Simulator;
use crate::cq::CqeStatus;
use crate::engine::EventKind;
use crate::error::Result;
use crate::ids::{CqId, QpId, WqId};
use crate::net::{InFlight, Payload};
use crate::time::Time;
use crate::trace::TraceEvent;
use crate::verbs::Opcode;
use crate::wq::{WqBlock, WqKind};
use crate::wqe::{Sge, Wqe, SGE_SIZE};

impl Simulator {
    pub(super) fn try_issue(&mut self, wq_id: WqId) -> Result<()> {
        let wq = &self.wqs[wq_id.index()];
        if wq.kind != WqKind::Send || wq.executing.is_some() {
            return Ok(());
        }
        match wq.block {
            WqBlock::Dead | WqBlock::WaitCq { .. } | WqBlock::WaitPrev => return Ok(()),
            WqBlock::None => {}
        }
        let idx = wq.executed;
        let Some(bytes) = wq.next_snapshot() else {
            return Ok(());
        };
        let node = wq.node;
        let Ok(wqe) = Wqe::decode(bytes) else {
            // Corrupted WQE: fault the WQE, keep the queue moving.
            self.fault_wqe(wq_id, idx, "undecodable WQE", CqeStatus::BadWqe);
            return self.try_issue(wq_id);
        };
        // Completion-ordering fence within the queue.
        if wqe.wait_prev() && wq.completed < idx {
            self.wqs[wq_id.index()].block = WqBlock::WaitPrev;
            return Ok(());
        }
        let cfg = &self.nics[node.index()].config;
        // Cross-channel support gate (Intel RNICs lack WAIT — §6).
        let refused = if wqe.opcode.is_ctrl() && !cfg.supports_wait_enable {
            Some("WAIT/ENABLE unsupported")
        } else if wqe.opcode.is_calc() && !cfg.supports_calc {
            Some("calc verbs unsupported")
        } else if wqe.opcode == Opcode::Wait
            && self.cqs.get(CqId(wqe.imm_or_target).index()).is_none()
        {
            Some("WAIT on unknown CQ")
        } else {
            None
        };
        if let Some(reason) = refused {
            self.fault_wqe(wq_id, idx, reason, CqeStatus::ProtectionError);
            return Ok(());
        }
        let t_issue = if wqe.opcode.is_ctrl() {
            cfg.t_issue_ctrl
        } else {
            cfg.t_issue(wqe.opcode.is_read_class())
        };
        let t_chain_gap = cfg.t_chain_gap;
        // WAIT: park if the target CQ has not reached the count.
        if wqe.opcode == Opcode::Wait {
            let (cq, count) = (CqId(wqe.imm_or_target), wqe.operand);
            if self.cqs[cq.index()].total < count {
                self.wqs[wq_id.index()].block = WqBlock::WaitCq { cq, count };
                self.cqs[cq.index()].park(wq_id, count);
                self.trace.record(
                    self.now,
                    TraceEvent::Park {
                        wq: wq_id,
                        cq,
                        count,
                    },
                );
                return Ok(());
            }
        }
        // Issue on the queue's PU.
        let wq = &mut self.wqs[wq_id.index()];
        let mut earliest = self.now.max(wq.next_issue_at);
        if let Some(rl) = wq.rate_limiter.as_mut() {
            earliest = rl.admit(earliest);
        }
        let (start, finish) =
            self.nics[node.index()].pus[wq.port].acquire_at(wq.pu, earliest, t_issue);
        wq.take_snapshot();
        wq.executing = Some((idx, wqe, start));
        wq.next_issue_at = start + t_chain_gap;
        wq.stat_executed += 1;
        self.nics[node.index()].stat_verbs += 1;
        self.trace.record(
            self.now,
            TraceEvent::Issue {
                wq: wq_id,
                idx,
                opcode: wqe.opcode,
            },
        );
        self.events
            .schedule(finish, EventKind::IssueDone { wq: wq_id, idx });
        Ok(())
    }

    /// Fault WQE `idx` before it issues: consume its snapshot, trace the
    /// reason and complete it with `status` one CQE delay from now.
    fn fault_wqe(&mut self, wq_id: WqId, idx: u64, reason: &'static str, status: CqeStatus) {
        let wq = &mut self.wqs[wq_id.index()];
        debug_assert_eq!(idx, wq.executed);
        wq.take_snapshot();
        let t_cqe = self.nics[wq.node.index()].config.t_cqe;
        self.trace_fault(wq_id, idx, reason);
        self.complete_local(wq_id, idx, Opcode::Noop, true, status, self.now + t_cqe);
    }

    /// Complete WQE `idx` without anything leaving the NIC: stash an
    /// in-flight record carrying `status` and schedule its `Complete` at
    /// `at`.
    fn complete_local(
        &mut self,
        wq: WqId,
        idx: u64,
        opcode: Opcode,
        signaled: bool,
        status: CqeStatus,
        at: Time,
    ) {
        let qp = self.wqs[wq.index()].qp;
        let msg = self.inflight.insert(InFlight {
            src_wq: wq,
            src_idx: idx,
            src_qp: qp,
            dst_qp: qp,
            opcode,
            signaled,
            payload: Payload::Send { bytes: Vec::new() },
            status,
            result: Vec::new(),
            result_sink: (0, 0),
            result_sgl: false,
            byte_len: 0,
        });
        self.events
            .schedule(at, EventKind::Complete { wq, idx, msg });
    }

    /// A verb that failed at the initiator (no peer, unreadable source
    /// buffer): trace it and complete with a protection error at `at`.
    fn fail_locally(&mut self, wq: WqId, idx: u64, opcode: Opcode, at: Time) -> Result<()> {
        self.trace_fault(wq, idx, format_args!("{opcode:?} failed locally"));
        self.complete_local(wq, idx, opcode, true, CqeStatus::ProtectionError, at);
        self.advance_wq(wq)
    }

    /// Launch the request of WQE `idx` towards `peer`: stash its in-flight
    /// record and schedule the `Arrive`, `ready` being when the request
    /// may leave the initiator. A READ's / atomic's result sink comes from
    /// the WQE (`local_addr` 0 = discard).
    fn launch(
        &mut self,
        wq_id: WqId,
        idx: u64,
        wqe: &Wqe,
        peer: QpId,
        payload: Payload,
        ready: Time,
    ) {
        // Bytes moved (what the CQE reports) and bytes occupying the
        // egress link: a READ / atomic request is a bare header, modeled
        // as latency only.
        let (byte_len, wire_bytes) = match &payload {
            Payload::Send { bytes } | Payload::Write { bytes, .. } => {
                (bytes.len() as u32, bytes.len() as u64)
            }
            Payload::Read { len, .. } => (*len, 0),
            Payload::Atomic { .. } => (8, 0),
        };
        let wq = &self.wqs[wq_id.index()];
        let (from, port, src_qp) = (wq.node, wq.port, wq.qp);
        let result_sgl = wqe.opcode == Opcode::Read && wqe.is_sgl();
        let msg = self.inflight.insert(InFlight {
            src_wq: wq_id,
            src_idx: idx,
            src_qp,
            dst_qp: peer,
            opcode: wqe.opcode,
            signaled: wqe.signaled(),
            payload,
            status: CqeStatus::Success,
            result: Vec::new(),
            result_sink: (
                wqe.local_addr,
                if result_sgl { wqe.length } else { wqe.lkey },
            ),
            result_sgl,
            byte_len,
        });
        let to = self.qps[peer.index()].node;
        let arrive = self.wire_arrival(from, port, to, ready, wire_bytes);
        self.events
            .schedule(arrive, EventKind::Arrive { qp: peer, msg });
    }

    pub(super) fn on_issue_done(&mut self, wq_id: WqId, idx: u64) -> Result<()> {
        let wq = &mut self.wqs[wq_id.index()];
        let (node, qp_id) = (wq.node, wq.qp);
        let (exec_idx, wqe, start) = wq
            .executing
            .take()
            .expect("IssueDone without executing WQE");
        debug_assert_eq!(exec_idx, idx);
        let cfg = &self.nics[node.index()].config;
        let retire = start + cfg.t_chain_gap;
        let done_local = retire + cfg.t_cqe;
        let signaled = wqe.signaled();

        match (wqe.opcode, self.qps[qp_id.index()].peer) {
            // WAIT: its threshold was satisfied at issue time.
            (Opcode::Noop | Opcode::Wait, _) => {
                self.complete_local(
                    wq_id,
                    idx,
                    wqe.opcode,
                    signaled,
                    CqeStatus::Success,
                    done_local,
                );
            }
            (Opcode::Enable, _) => {
                let target = WqId(wqe.imm_or_target);
                let (signaled, status) = match self.wqs.get_mut(target.index()) {
                    Some(t) => {
                        let until = wqe.operand;
                        t.enabled_until = t.enabled_until.max(until);
                        self.trace
                            .record(self.now, TraceEvent::Enable { wq: target, until });
                        self.advance_wq(target)?;
                        (signaled, CqeStatus::Success)
                    }
                    None => (true, CqeStatus::ProtectionError),
                };
                self.complete_local(wq_id, idx, wqe.opcode, signaled, status, done_local);
            }
            // A RECV in a send queue decoded fine but is meaningless.
            (Opcode::Recv, _) => {
                self.complete_local(wq_id, idx, wqe.opcode, true, CqeStatus::BadWqe, done_local);
            }
            (_, None) => return self.fail_locally(wq_id, idx, wqe.opcode, done_local),
            (Opcode::Send | Opcode::Write | Opcode::WriteImm, Some(peer)) => {
                // Gather payload at the initiator, into a recycled buffer.
                let mut bytes = self.buf_pool.take();
                if wqe.length != 0 {
                    if let Err(_e) = self.mems[node.index()].nic_read_into(
                        wqe.lkey,
                        wqe.local_addr,
                        wqe.length as u64,
                        false,
                        &mut bytes,
                    ) {
                        self.buf_pool.put(bytes);
                        return self.fail_locally(wq_id, idx, wqe.opcode, done_local);
                    }
                }
                // Initiator PCIe: occupancy + store-and-forward stage.
                let nbytes = bytes.len() as u64;
                let nic = &mut self.nics[node.index()];
                let bus_done = nic.pcie_occupy(retire, nbytes);
                let src_stage = nic.pcie_stage(nbytes);
                let depart_ready = (retire + nic.config.t_posted_extra + src_stage).max(bus_done);
                let payload = match wqe.opcode {
                    Opcode::Send => Payload::Send { bytes },
                    op => Payload::Write {
                        raddr: wqe.remote_addr,
                        rkey: wqe.rkey,
                        bytes,
                        imm: (op == Opcode::WriteImm).then_some(wqe.imm_or_target),
                    },
                };
                self.launch(wq_id, idx, &wqe, peer, payload, depart_ready);
            }
            (Opcode::Read, Some(peer)) => {
                // A READ may scatter its response across a local SGE table
                // (FLAG_SGL): length then holds the entry count and the
                // request size is the sum of the entries' lengths.
                let read_len = if wqe.is_sgl() {
                    let limit = self.nics[node.index()].config.max_recv_sge;
                    let count = (wqe.length as usize).min(limit);
                    let mut total = 0u32;
                    for i in 0..count {
                        let entry_addr = wqe.local_addr + i as u64 * SGE_SIZE;
                        match self.mems[node.index()]
                            .read(entry_addr, SGE_SIZE)
                            .ok()
                            .and_then(|b| Sge::decode(b).ok())
                        {
                            Some(sge) => total += sge.len,
                            None => break,
                        }
                    }
                    total
                } else {
                    wqe.length
                };
                let payload = Payload::Read {
                    raddr: wqe.remote_addr,
                    rkey: wqe.rkey,
                    len: read_len,
                };
                self.launch(wq_id, idx, &wqe, peer, payload, retire);
            }
            (Opcode::Cas | Opcode::FetchAdd | Opcode::Max | Opcode::Min, Some(peer)) => {
                let payload = Payload::Atomic {
                    op: wqe.opcode,
                    raddr: wqe.remote_addr,
                    rkey: wqe.rkey,
                    operand: wqe.operand,
                    swap: wqe.swap,
                };
                self.launch(wq_id, idx, &wqe, peer, payload, retire);
            }
        }
        // The pipeline may proceed to the next WQE.
        self.advance_wq(wq_id)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use crate::mem::Access;
    use crate::wqe::WorkRequest;

    #[test]
    fn remote_write_moves_bytes_and_completes() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, _qp_b, cq_a, _) = qp_pair(&mut sim, a, b);
        let src = sim.alloc(a, 64, 8).unwrap();
        let smr = sim.register_mr(a, src, 64, Access::all()).unwrap();
        let dst = sim.alloc(b, 64, 8).unwrap();
        let dmr = sim.register_mr(b, dst, 64, Access::all()).unwrap();
        sim.mem_write_u64(a, src, 0x1122_3344_5566_7788).unwrap();

        sim.post_send(
            qp_a,
            WorkRequest::write(src, smr.lkey, 8, dst, dmr.rkey).signaled(),
        )
        .unwrap();
        sim.run().unwrap();

        assert_eq!(sim.mem_read_u64(b, dst).unwrap(), 0x1122_3344_5566_7788);
        let cqes = sim.poll_cq(cq_a, 8);
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].status, CqeStatus::Success);
        assert_eq!(cqes[0].opcode, Opcode::Write);
        // Fig 7 calibration: remote 64 B WRITE ≈ 1.6 us.
        let t = cqes[0].time.as_us_f64();
        assert!((t - 1.6).abs() < 0.05, "WRITE latency {t}");
    }

    #[test]
    fn rate_limiter_paces_a_queue() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, _qp_b, cq_a, _) = qp_pair(&mut sim, a, b);
        // 100K ops/s = 10 us interval.
        sim.set_rate_limit(qp_a, 1e5, 1);
        for _ in 0..4 {
            sim.post_send(qp_a, WorkRequest::noop().signaled()).unwrap();
        }
        sim.run().unwrap();
        let cqes = sim.poll_cq(cq_a, 8);
        assert_eq!(cqes.len(), 4);
        let dt = cqes[3].time - cqes[2].time;
        assert!((dt.as_us_f64() - 10.0).abs() < 0.5, "paced gap {dt:?}");
    }

    #[test]
    fn wq_order_vs_completion_order_marginals() {
        // Fig 8 shape check at the engine level.
        let run_chain = |wait_prev: bool| -> f64 {
            let (mut sim, a, b) = two_nodes();
            let (qp_a, _qp_b, cq_a, _) = qp_pair(&mut sim, a, b);
            let n = 20;
            let mut wrs = Vec::new();
            for i in 0..n {
                let mut wr = WorkRequest::noop().signaled();
                if wait_prev && i > 0 {
                    wr = wr.wait_prev();
                }
                wrs.push(wr);
            }
            sim.post_send_batch(qp_a, &wrs).unwrap();
            sim.run().unwrap();
            let cqes = sim.poll_cq(cq_a, 64);
            assert_eq!(cqes.len(), n);
            (cqes[n - 1].time - cqes[0].time).as_us_f64() / (n as f64 - 1.0)
        };
        let wq_marginal = run_chain(false);
        let comp_marginal = run_chain(true);
        assert!((wq_marginal - 0.17).abs() < 0.02, "wq {wq_marginal}");
        assert!((comp_marginal - 0.19).abs() < 0.02, "comp {comp_marginal}");
    }

    #[test]
    fn fetch_cache_is_a_fifo_over_executed_to_fetched() {
        // An unmanaged queue deep enough to hold two prefetched batches,
        // with a corrupted WQE and a WAIT on a missing CQ in the stream
        // (both consumed by `fault_wqe`, not by a normal issue): after
        // every event the cache is exactly [executed, fetched), oldest
        // first.
        let (mut sim, a, b) = two_nodes();
        let (qp_a, _qp_b, cq_a, _) = qp_pair(&mut sim, a, b);
        let posted = 40u64;
        let wrs: Vec<WorkRequest> = (0..posted)
            .map(|i| {
                let mut wr = match i {
                    9 => WorkRequest::wait(CqId(999), 1),
                    _ => WorkRequest::noop(),
                };
                wr.wqe.id = i;
                wr.signaled()
            })
            .collect();
        sim.post_send_batch(qp_a, &wrs).unwrap();
        let corrupt = sim.sq_wqe_addr(qp_a, 5);
        sim.mem_write_u64(a, corrupt, u64::MAX).unwrap();
        let sq = sim.sq_of(qp_a);
        let mut deepest = 0;
        while sim.step().unwrap() {
            let wq = &sim.wqs[sq.index()];
            assert_eq!(wq.fetch_cache.len() as u64, wq.fetched - wq.executed);
            for (k, bytes) in wq.fetch_cache.iter().enumerate() {
                let idx = wq.executed + k as u64;
                match Wqe::decode(bytes) {
                    Ok(wqe) => assert_eq!(wqe.id, idx, "cache slot {k}"),
                    Err(_) => assert_eq!(idx, 5, "only WQE 5 is corrupt"),
                }
            }
            deepest = deepest.max(wq.fetch_cache.len());
        }
        assert!(deepest > 16, "two batches were cached at once: {deepest}");
        let wq = &sim.wqs[sq.index()];
        assert_eq!((wq.executed, wq.fetched), (posted, posted));
        let cqes = sim.poll_cq(cq_a, 64);
        assert_eq!(cqes.len() as u64, posted);
        let faulted: Vec<u64> = cqes
            .iter()
            .filter(|c| c.status != CqeStatus::Success)
            .map(|c| c.wqe_index)
            .collect();
        assert_eq!(faulted, [5, 9]);
    }

    #[test]
    fn faulting_verb_untraced_records_nothing_and_still_completes() {
        // Tracing off is zero-cost: the fault reason is never rendered,
        // the trace stays empty, and the error CQE is delivered anyway.
        let (mut sim, a, b) = two_nodes();
        let (qp_a, _qp_b, cq_a, _) = qp_pair(&mut sim, a, b);
        let dst = sim.alloc(b, 8, 8).unwrap();
        // Unregistered lkey: fails locally, before anything leaves a.
        sim.post_send(qp_a, WorkRequest::write(0x1_0000, 0xBAD, 8, dst, 0xBAD))
            .unwrap();
        // WAIT on a CQ that does not exist: faulted at issue.
        sim.post_send(qp_a, WorkRequest::wait(CqId(999), 1))
            .unwrap();
        sim.run().unwrap();
        assert!(sim.trace().events().is_empty());
        let cqes = sim.poll_cq(cq_a, 8);
        assert_eq!(cqes.len(), 2);
        assert!(cqes.iter().all(|c| c.status == CqeStatus::ProtectionError));
    }
}
