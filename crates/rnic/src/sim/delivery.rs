//! Stage 3 — delivery: a request reaches the responder QP (`Arrive`) and
//! its bytes are *placed*: WRITE payloads land, READs gather, atomics
//! apply, SEND / WRITE_IMM consume a RECV (scattering through its SGE
//! table) or park on the RNR queue until one is posted. Placement is not
//! completion — the initiator's CQE is a later event, scheduled from here
//! and handled in `completion`.

use super::Simulator;
use crate::cq::CqeStatus;
use crate::engine::EventKind;
use crate::error::Result;
use crate::ids::{NodeId, QpId};
use crate::net::Payload;
use crate::time::Time;
use crate::trace::TraceEvent;
use crate::verbs::Opcode;
use crate::wqe::{Sge, Wqe, SGE_SIZE, WQE_SIZE};

/// Delay before an arrival at a dead QP fails back to the initiator.
const DEAD_QP_TIMEOUT: Time = Time::from_us(100);

impl Simulator {
    /// Schedule the initiator-side `Complete` of in-flight message `msg`
    /// at `at`.
    fn complete_at(&mut self, msg: u64, at: Time) {
        self.events.schedule(at, EventKind::Complete { msg });
    }

    /// Record bytes landing in host memory.
    fn trace_mem_write(&mut self, addr: u64, len: u64) {
        self.trace
            .record(self.now, TraceEvent::MemWrite { addr, len });
    }

    /// NIC-side write under `key`, traced when it lands; a refused access
    /// becomes the protection error the operation's CQE will carry.
    pub(super) fn nic_write_traced(
        &mut self,
        node: NodeId,
        key: u32,
        addr: u64,
        bytes: &[u8],
        remote: bool,
    ) -> CqeStatus {
        match self.mems[node.index()].nic_write(key, addr, bytes, remote) {
            Ok(()) => {
                self.trace_mem_write(addr, bytes.len() as u64);
                CqeStatus::Success
            }
            Err(_) => CqeStatus::ProtectionError,
        }
    }

    /// Receiver not ready: put the request bytes back verbatim, so the
    /// retry re-executes exactly as the first attempt did, and park `msg`
    /// until a RECV is posted.
    fn park_rnr(&mut self, qp_id: QpId, msg: u64, bytes: Vec<u8>) -> Result<()> {
        self.inflight.live_mut(msg).data = bytes;
        self.qps[qp_id.index()].rnr_queue.push_back(msg);
        Ok(())
    }

    /// Responder-side processing of an arrived request.
    pub(super) fn on_arrive(&mut self, qp_id: QpId, msg: u64) -> Result<()> {
        let qp = &self.qps[qp_id.index()];
        let (node, port, dead) = (qp.node, qp.port, qp.dead);
        let inf = self.inflight.live_mut(msg);
        let (src_qp, payload) = (inf.src_qp, inf.payload);
        let src_node = self.qps[src_qp.index()].node;
        let one_way = self.one_way(src_node, node).unwrap_or(Time::ZERO);
        let cfg = &self.nics[node.index()].config;
        let (t_cqe, t_nonposted_extra, t_atomic_engine) =
            (cfg.t_cqe, cfg.t_nonposted_extra, cfg.t_atomic_engine);

        if dead {
            // Resources are gone: the initiator eventually errors out.
            self.inflight.live_mut(msg).status = CqeStatus::RnrError;
            self.complete_at(msg, self.now + DEAD_QP_TIMEOUT);
            return Ok(());
        }

        match payload {
            Payload::Send => {
                // Move the bytes out of the in-flight record instead of
                // cloning them per delivery; a receiver-not-ready park puts
                // them back.
                let bytes = std::mem::take(&mut self.inflight.live_mut(msg).data);
                if !self.recv_available(qp_id) {
                    return self.park_rnr(qp_id, msg, bytes);
                }
                self.consume_recv(qp_id, msg, &bytes, None, one_way)?;
                self.buf_pool.put(bytes);
            }
            Payload::Write { raddr, rkey, imm } => {
                let bytes = std::mem::take(&mut self.inflight.live_mut(msg).data);
                // Responder PCIe for the payload.
                self.nics[node.index()].pcie_occupy(self.now, bytes.len() as u64);
                let status = self.nic_write_traced(node, rkey, raddr, &bytes, true);
                self.inflight.live_mut(msg).status = status;
                match imm {
                    // WRITE_IMM consumes a RECV (no scatter).
                    Some(imm) if status == CqeStatus::Success => {
                        if !self.recv_available(qp_id) {
                            // The retry rewrites memory with the same
                            // bytes, so they are restored, not just the
                            // immediate.
                            return self.park_rnr(qp_id, msg, bytes);
                        }
                        self.consume_recv(qp_id, msg, &[], Some(imm), one_way)?;
                    }
                    _ => self.complete_at(msg, self.now + one_way + t_cqe),
                }
                self.buf_pool.put(bytes);
            }
            Payload::Read { raddr, rkey, len } => {
                let mut result = self.buf_pool.take();
                let status = match self.mems[node.index()].nic_read_into(
                    rkey,
                    raddr,
                    len as u64,
                    true,
                    &mut result,
                ) {
                    Ok(()) => CqeStatus::Success,
                    Err(_) => CqeStatus::ProtectionError,
                };
                let nbytes = result.len() as u64;
                let inf = self.inflight.live_mut(msg);
                inf.status = status;
                inf.data = result;
                // Responder PCIe read (store-and-forward stage, gated by
                // bus occupancy under load) + wire back + the initiator's
                // PCIe write stage.
                let nic = &mut self.nics[node.index()];
                let bus_done = nic.pcie_occupy(self.now, nbytes);
                let stage = nic.pcie_stage(nbytes);
                let data_ready = (self.now + t_nonposted_extra + stage).max(bus_done);
                let back = self.wire_arrival(node, port, src_node, data_ready, nbytes);
                self.complete_at(msg, back + stage + t_cqe);
            }
            Payload::Atomic {
                op,
                raddr,
                rkey,
                operand,
                swap,
            } => {
                // CAS/ADD serialize through the per-port atomic engine
                // (PCIe atomic transactions — Table 3's 8.4 M/s ceiling);
                // the vendor calc verbs MAX/MIN run on the regular path.
                let apply_at = if matches!(op, Opcode::Cas | Opcode::FetchAdd) {
                    self.nics[node.index()].atomic_engine[port].acquire(self.now, t_atomic_engine)
                } else {
                    self.now + t_atomic_engine
                };
                // The memory operation conceptually happens at `apply_at`;
                // between now and then no other event can observe a
                // half-applied state because the engine is FIFO and events
                // at intervening times see the old value only if they fire
                // before this Arrive. We apply here and timestamp
                // completions at `apply_at` — the window is the engine
                // occupancy (119 ns) and nothing else can write this word
                // through the same engine in between.
                let applied = self.mems[node.index()].nic_atomic(rkey, raddr, |old| match op {
                    Opcode::Cas if old == operand => swap,
                    Opcode::FetchAdd => old.wrapping_add(operand),
                    Opcode::Max => old.max(operand),
                    Opcode::Min => old.min(operand),
                    _ => old,
                });
                let (status, old) = match applied {
                    Ok(old) => {
                        self.trace_mem_write(raddr, 8);
                        (CqeStatus::Success, old)
                    }
                    Err(_) => (CqeStatus::ProtectionError, 0),
                };
                let mut result = self.buf_pool.take();
                result.extend_from_slice(&old.to_le_bytes());
                let inf = self.inflight.live_mut(msg);
                inf.status = status;
                inf.data = result;
                let rest = t_nonposted_extra.saturating_sub(t_atomic_engine);
                self.complete_at(msg, apply_at + rest + one_way + t_cqe);
            }
        }
        Ok(())
    }

    /// Scatter `bytes` across an SGE table at `table_addr` with up to
    /// `max_entries` entries (bounded by the NIC's SGE limit). Returns
    /// `(bytes scattered, status)` — shared by RECV consumption and the
    /// SGL READ writeback path.
    pub(super) fn scatter_local(
        &mut self,
        node: NodeId,
        table_addr: u64,
        max_entries: usize,
        bytes: &[u8],
    ) -> (u32, CqeStatus) {
        let limit = self.nics[node.index()].config.max_recv_sge;
        let count = max_entries.min(limit);
        let mut off = 0usize;
        for i in 0..count {
            if off >= bytes.len() {
                break;
            }
            let entry_addr = table_addr + i as u64 * SGE_SIZE;
            let Some(sge) = self.mems[node.index()]
                .read(entry_addr, SGE_SIZE)
                .ok()
                .and_then(|entry| Sge::decode(entry).ok())
            else {
                return (off as u32, CqeStatus::ProtectionError);
            };
            let take = (sge.len as usize).min(bytes.len() - off);
            if take == 0 {
                continue;
            }
            let chunk = &bytes[off..off + take];
            if self.nic_write_traced(node, sge.lkey, sge.addr, chunk, false) != CqeStatus::Success {
                return (off as u32, CqeStatus::ProtectionError);
            }
            off += take;
        }
        if off < bytes.len() {
            // Message longer than the scatter list.
            return (off as u32, CqeStatus::ProtectionError);
        }
        (off as u32, CqeStatus::Success)
    }

    /// Whether the responder QP has a RECV ready to consume right now.
    /// Cyclic rings re-arm consumed slots as they wrap (§3.4's recycling
    /// applied to the RQ): a fully posted cyclic ring never runs dry.
    fn recv_available(&self, qp_id: QpId) -> bool {
        let rq = &self.wqs[self.qps[qp_id.index()].rq.index()];
        rq.cyclic || rq.posted > self.qps[qp_id.index()].recv_consumed
    }

    /// Consume one RECV for an arriving SEND/WRITE_IMM: scatter the
    /// payload (reading the RECV WQE bytes *now* — they may have been
    /// patched by earlier verbs) and generate the receive completion.
    /// Callers check [`Simulator::recv_available`] first and park on the
    /// RNR queue themselves when it fails.
    fn consume_recv(
        &mut self,
        qp_id: QpId,
        msg: u64,
        bytes: &[u8],
        imm: Option<u32>,
        one_way: Time,
    ) -> Result<()> {
        debug_assert!(self.recv_available(qp_id));
        let qp = &mut self.qps[qp_id.index()];
        let (node, rq_id, recv_idx) = (qp.node, qp.rq, qp.recv_consumed);
        qp.recv_consumed = recv_idx + 1;
        let rq = &mut self.wqs[rq_id.index()];
        rq.executed = recv_idx + 1;
        rq.stat_executed += 1;

        // Decode the RECV WQE from host memory at consume time.
        let slot = rq.slot_addr(recv_idx);
        let nbytes = bytes.len() as u64;
        let t_cqe = self.nics[node.index()].config.t_cqe;
        self.nics[node.index()].pcie_occupy(self.now, nbytes);
        let raw = self.mems[node.index()].read(slot, WQE_SIZE)?;
        let mut scattered = 0u32;
        let status = match Wqe::decode(raw) {
            Ok(recv) if recv.opcode == Opcode::Recv => {
                if recv.is_sgl() {
                    // Scatter across the SGE table.
                    let (n, status) =
                        self.scatter_local(node, recv.local_addr, recv.length as usize, bytes);
                    scattered = n;
                    status
                } else if nbytes > recv.length as u64 {
                    CqeStatus::ProtectionError
                } else if nbytes > 0 {
                    let status =
                        self.nic_write_traced(node, recv.lkey, recv.local_addr, bytes, false);
                    if status == CqeStatus::Success {
                        scattered = nbytes as u32;
                    }
                    status
                } else {
                    CqeStatus::Success
                }
            }
            _ => CqeStatus::BadWqe,
        };

        // Receive completion (this is what WAIT-triggered chains key on),
        // observable `t_cqe` from now. The message's status was a success
        // until now, so from here on it is the receive's as well.
        let inf = self.inflight.live_mut(msg);
        inf.status = status;
        let byte_len = if imm.is_some() {
            inf.byte_len
        } else {
            scattered
        };
        inf.recv = (recv_idx, byte_len);
        self.events
            .schedule(self.now + t_cqe, EventKind::PushCqe { msg });
        // Ack back to the initiator.
        self.complete_at(msg, self.now + one_way + t_cqe);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use crate::mem::Access;
    use crate::wqe::WorkRequest;

    #[test]
    fn remote_read_fetches_bytes() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, _qp_b, cq_a, _) = qp_pair(&mut sim, a, b);
        let dst = sim.alloc(a, 64, 8).unwrap();
        let dmr = sim.register_mr(a, dst, 64, Access::all()).unwrap();
        let src = sim.alloc(b, 64, 8).unwrap();
        let smr = sim.register_mr(b, src, 64, Access::all()).unwrap();
        sim.mem_write_u64(b, src, 0xABCD).unwrap();

        sim.post_send(
            qp_a,
            WorkRequest::read(dst, dmr.lkey, 8, src, smr.rkey).signaled(),
        )
        .unwrap();
        sim.run().unwrap();

        assert_eq!(sim.mem_read_u64(a, dst).unwrap(), 0xABCD);
        let cqes = sim.poll_cq(cq_a, 8);
        assert_eq!(cqes.len(), 1);
        // Fig 7: remote 64 B READ ≈ 1.8 us.
        let t = cqes[0].time.as_us_f64();
        assert!((t - 1.8).abs() < 0.05, "READ latency {t}");
    }

    #[test]
    fn cas_succeeds_only_on_match() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, _qp_b, cq_a, _) = qp_pair(&mut sim, a, b);
        let tgt = sim.alloc(b, 8, 8).unwrap();
        let tmr = sim.register_mr(b, tgt, 8, Access::all()).unwrap();
        sim.mem_write_u64(b, tgt, 5).unwrap();

        // Mismatch: no change.
        sim.post_send(
            qp_a,
            WorkRequest::cas(tgt, tmr.rkey, 4, 99, 0, 0).signaled(),
        )
        .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(b, tgt).unwrap(), 5);

        // Match: swapped.
        sim.post_send(
            qp_a,
            WorkRequest::cas(tgt, tmr.rkey, 5, 99, 0, 0).signaled(),
        )
        .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(b, tgt).unwrap(), 99);
        assert_eq!(sim.poll_cq(cq_a, 8).len(), 2);
    }

    #[test]
    fn fetch_add_and_calc_verbs() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, _qp_b, _cq_a, _) = qp_pair(&mut sim, a, b);
        let tgt = sim.alloc(b, 8, 8).unwrap();
        let tmr = sim.register_mr(b, tgt, 8, Access::all()).unwrap();
        sim.mem_write_u64(b, tgt, 10).unwrap();

        sim.post_send(qp_a, WorkRequest::fetch_add(tgt, tmr.rkey, 7, 0, 0))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(b, tgt).unwrap(), 17);

        sim.post_send(qp_a, WorkRequest::max(tgt, tmr.rkey, 100))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(b, tgt).unwrap(), 100);

        sim.post_send(qp_a, WorkRequest::min(tgt, tmr.rkey, 3))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(b, tgt).unwrap(), 3);
    }

    #[test]
    fn send_recv_delivers_payload_and_completions() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, qp_b, cq_a, cq_b) = qp_pair(&mut sim, a, b);
        let src = sim.alloc(a, 64, 8).unwrap();
        let smr = sim.register_mr(a, src, 64, Access::all()).unwrap();
        let dst = sim.alloc(b, 64, 8).unwrap();
        let dmr = sim.register_mr(b, dst, 64, Access::all()).unwrap();
        sim.mem_write(a, src, b"hello rdma!").unwrap();

        sim.post_recv(qp_b, WorkRequest::recv(dst, dmr.lkey, 64))
            .unwrap();
        sim.post_send(qp_a, WorkRequest::send(src, smr.lkey, 11).signaled())
            .unwrap();
        sim.run().unwrap();

        assert_eq!(&sim.mem_read(b, dst, 11).unwrap(), b"hello rdma!");
        let rx = sim.poll_cq(cq_b, 8);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].opcode, Opcode::Recv);
        assert_eq!(rx[0].byte_len, 11);
        assert_eq!(sim.poll_cq(cq_a, 8).len(), 1);
    }

    #[test]
    fn send_without_recv_parks_until_recv_posted() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, qp_b, _cq_a, cq_b) = qp_pair(&mut sim, a, b);
        let src = sim.alloc(a, 8, 8).unwrap();
        let smr = sim.register_mr(a, src, 8, Access::all()).unwrap();
        let dst = sim.alloc(b, 8, 8).unwrap();
        let dmr = sim.register_mr(b, dst, 8, Access::all()).unwrap();
        sim.mem_write_u64(a, src, 42).unwrap();

        sim.post_send(qp_a, WorkRequest::send(src, smr.lkey, 8))
            .unwrap();
        sim.run().unwrap();
        // Nothing delivered yet.
        assert_eq!(sim.mem_read_u64(b, dst).unwrap(), 0);

        sim.post_recv(qp_b, WorkRequest::recv(dst, dmr.lkey, 8))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(b, dst).unwrap(), 42);
        assert_eq!(sim.poll_cq(cq_b, 8).len(), 1);
    }

    #[test]
    fn write_imm_consumes_recv_and_delivers_imm() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, qp_b, _cq_a, cq_b) = qp_pair(&mut sim, a, b);
        let src = sim.alloc(a, 8, 8).unwrap();
        let smr = sim.register_mr(a, src, 8, Access::all()).unwrap();
        let dst = sim.alloc(b, 8, 8).unwrap();
        let dmr = sim.register_mr(b, dst, 8, Access::all()).unwrap();
        sim.mem_write_u64(a, src, 7).unwrap();

        sim.post_recv(qp_b, WorkRequest::recv(0, 0, 0)).unwrap();
        sim.post_send(
            qp_a,
            WorkRequest::write_imm(src, smr.lkey, 8, dst, dmr.rkey, 0xFEED),
        )
        .unwrap();
        sim.run().unwrap();

        assert_eq!(sim.mem_read_u64(b, dst).unwrap(), 7);
        let rx = sim.poll_cq(cq_b, 8);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].imm, Some(0xFEED));
    }

    #[test]
    fn key_violation_produces_error_cqe() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, _qp_b, cq_a, _) = qp_pair(&mut sim, a, b);
        let src = sim.alloc(a, 8, 8).unwrap();
        let smr = sim.register_mr(a, src, 8, Access::all()).unwrap();
        let dst = sim.alloc(b, 8, 8).unwrap();
        // Deliberately wrong rkey.
        sim.post_send(qp_a, WorkRequest::write(src, smr.lkey, 8, dst, 0xBAD))
            .unwrap();
        sim.run().unwrap();
        let cqes = sim.poll_cq(cq_a, 8);
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].status, CqeStatus::ProtectionError);
        assert_eq!(sim.mem_read_u64(b, dst).unwrap(), 0);
    }

    #[test]
    fn wild_remote_address_is_a_protection_error_not_a_panic() {
        // What a self-modifying chain's stray patch produces: a valid
        // rkey with an address whose end wraps past 2^64.
        let (mut sim, a, b) = two_nodes();
        let (qp_a, _qp_b, cq_a, _) = qp_pair(&mut sim, a, b);
        let src = sim.alloc(a, 8, 8).unwrap();
        let smr = sim.register_mr(a, src, 8, Access::all()).unwrap();
        let dst = sim.alloc(b, 64, 8).unwrap();
        let dmr = sim.register_mr(b, dst, 64, Access::all()).unwrap();
        let wild = u64::MAX - 3;
        sim.post_send(qp_a, WorkRequest::write(src, smr.lkey, 8, wild, dmr.rkey))
            .unwrap();
        sim.post_send(qp_a, WorkRequest::read(src, smr.lkey, 8, wild, dmr.rkey))
            .unwrap();
        sim.run().unwrap();
        let cqes = sim.poll_cq(cq_a, 8);
        assert_eq!(cqes.len(), 2);
        assert!(cqes.iter().all(|c| c.status == CqeStatus::ProtectionError));
        assert_eq!(sim.mem_read(b, dst, 64).unwrap(), [0; 64]);
    }

    #[test]
    fn recv_sgl_scatters_into_multiple_targets() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, qp_b, _cq_a, cq_b) = qp_pair(&mut sim, a, b);
        let src = sim.alloc(a, 16, 8).unwrap();
        let smr = sim.register_mr(a, src, 16, Access::all()).unwrap();
        sim.mem_write_u64(a, src, 0x1111).unwrap();
        sim.mem_write_u64(a, src + 8, 0x2222).unwrap();

        // Two scatter targets on b, plus the SGE table itself.
        let t1 = sim.alloc(b, 8, 8).unwrap();
        let t2 = sim.alloc(b, 8, 8).unwrap();
        let mrb = sim.register_mr(b, t1, 16, Access::all()).unwrap();
        let table = sim.alloc(b, 32, 8).unwrap();
        let e0 = Sge {
            addr: t1,
            lkey: mrb.lkey,
            len: 8,
        };
        let e1 = Sge {
            addr: t2,
            lkey: mrb.lkey,
            len: 8,
        };
        sim.mem_write(b, table, &e0.encode()).unwrap();
        sim.mem_write(b, table + 16, &e1.encode()).unwrap();

        sim.post_recv(qp_b, WorkRequest::recv_sgl(table, 2))
            .unwrap();
        sim.post_send(qp_a, WorkRequest::send(src, smr.lkey, 16))
            .unwrap();
        sim.run().unwrap();

        assert_eq!(sim.mem_read_u64(b, t1).unwrap(), 0x1111);
        assert_eq!(sim.mem_read_u64(b, t2).unwrap(), 0x2222);
        assert_eq!(sim.poll_cq(cq_b, 4)[0].byte_len, 16);
    }
}
