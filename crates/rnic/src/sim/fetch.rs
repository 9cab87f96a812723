//! Stage 1 — fetch: the NIC DMA-reads WQE bytes out of the ring in host
//! memory and snapshots them (`FetchDone`). Unmanaged queues prefetch in
//! batches; managed queues fetch one WQE at a time through the per-port
//! serialized engine, and only below their ENABLE limit. What executes
//! later is the snapshot, not host memory (§3.1).

use super::Simulator;
use crate::engine::EventKind;
use crate::error::Result;
use crate::ids::WqId;
use crate::trace::TraceEvent;
use crate::verbs::Opcode;
use crate::wq::{WqBlock, WqKind, WqeBytes};
use crate::wqe::{Wqe, WQE_SIZE};

impl Simulator {
    pub(super) fn try_fetch(&mut self, wq_id: WqId) -> Result<()> {
        let wq = &self.wqs[wq_id.index()];
        if wq.kind != WqKind::Send
            || wq.fetch_inflight
            || wq.block == WqBlock::Dead
            || !wq.can_fetch()
        {
            return Ok(());
        }
        let nic = &mut self.nics[wq.node.index()];
        let (done, batch) = if wq.managed {
            // Doorbell order: fetch only when this queue's pipeline is
            // empty, one WQE at a time. The per-port engine pipelines
            // fetches of *independent* queues: each fetch occupies the
            // engine for `t_managed_fetch_slot` and completes after the
            // full `t_managed_fetch` DMA latency, so a lone queue pays the
            // Fig 8 marginal while concurrent queues overlap their DMAs.
            if wq.executing.is_some() || wq.fetched != wq.executed {
                return Ok(());
            }
            let lat = nic.config.t_managed_fetch;
            let slot = nic.config.t_managed_fetch_slot();
            let slot_done = nic.fetch_engine[wq.port].acquire(self.now, slot);
            nic.stat_managed_fetches += 1;
            (slot_done + (lat - slot), 1)
        } else {
            // Prefetch a batch; keep at most two batches cached.
            if wq.fetch_cache.len() >= nic.config.prefetch_batch * 2 {
                return Ok(());
            }
            let batch = (wq.fetch_limit() - wq.fetched).min(nic.config.prefetch_batch as u64);
            if batch == 0 {
                return Ok(());
            }
            let lat = nic.config.t_fetch_batch;
            let bus_done = nic.pcie_occupy(self.now, batch * WQE_SIZE);
            ((self.now + lat).max(bus_done), batch)
        };
        self.wqs[wq_id.index()].fetch_inflight = true;
        self.events
            .schedule(done, EventKind::FetchDone { wq: wq_id, batch });
        Ok(())
    }

    pub(super) fn on_fetch_done(&mut self, wq_id: WqId, batch: u64) -> Result<()> {
        // Snapshot the bytes *now* — this is the moment the paper's
        // consistency rules revolve around.
        let wq = &mut self.wqs[wq_id.index()];
        wq.fetch_inflight = false;
        if wq.block == WqBlock::Dead {
            return Ok(());
        }
        // One fetch in flight per queue, so `fetched` is where it began.
        let (node, idx, managed) = (wq.node, wq.fetched, wq.managed);
        for i in idx..idx + batch {
            let addr = self.wqs[wq_id.index()].slot_addr(i);
            let Ok(bytes) = self.mems[node.index()].read(addr, WQE_SIZE) else {
                // Ring memory gone (crashed owner): the queue dies.
                self.wqs[wq_id.index()].block = WqBlock::Dead;
                self.trace_fault(wq_id, i, "WQ ring unreadable");
                return Ok(());
            };
            let bytes: WqeBytes = bytes.try_into().expect("read returned WQE_SIZE bytes");
            if self.trace.enabled() {
                let opcode = Wqe::decode(&bytes)
                    .map(|w| w.opcode)
                    .unwrap_or(Opcode::Noop);
                self.trace.record(
                    self.now,
                    TraceEvent::Fetch {
                        wq: wq_id,
                        idx: i,
                        opcode,
                        managed,
                    },
                );
            }
            self.wqs[wq_id.index()].cache_snapshot(i, bytes);
        }
        self.advance_wq(wq_id)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use crate::config::{HostConfig, NicConfig, SimConfig};
    use crate::mem::Access;
    use crate::qp::QpConfig;
    use crate::time::Time;
    use crate::wqe::WorkRequest;

    #[test]
    fn managed_queue_is_gated_by_enable() {
        let (mut sim, n) = solo();
        let cq = sim.create_cq(n, 16).unwrap();
        let mqp1 = sim.create_qp(n, QpConfig::new(cq).managed()).unwrap();
        let mqp2 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(mqp1, mqp2).unwrap();
        let buf = sim.alloc(n, 16, 8).unwrap();
        let mr = sim.register_mr(n, buf, 16, Access::all()).unwrap();
        sim.mem_write_u64(n, buf, 0xAA).unwrap();

        // Post to the managed queue: nothing runs (no doorbell, no enable).
        sim.post_send_quiet(mqp1, WorkRequest::write(buf, mr.lkey, 8, buf + 8, mr.rkey))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(n, buf + 8).unwrap(), 0);

        // ENABLE from another queue releases it.
        let ctrl1 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        let ctrl2 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(ctrl1, ctrl2).unwrap();
        let msq = sim.sq_of(mqp1);
        sim.post_send(ctrl1, WorkRequest::enable(msq, 1)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(n, buf + 8).unwrap(), 0xAA);
    }

    #[test]
    fn self_modification_changes_what_executes() {
        // Post a NOOP into a managed queue, patch its header in host
        // memory into a WRITE before enabling it — the NIC must execute
        // the WRITE (Fig 4's transmutation, done by the host for
        // simplicity here; redn-core does it with CAS verbs).
        let (mut sim, n) = solo();
        let cq = sim.create_cq(n, 16).unwrap();
        let mqp = sim.create_qp(n, QpConfig::new(cq).managed()).unwrap();
        let peer = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(mqp, peer).unwrap();
        let buf = sim.alloc(n, 16, 8).unwrap();
        let mr = sim.register_mr(n, buf, 16, Access::all()).unwrap();
        sim.mem_write_u64(n, buf, 0xBEEF).unwrap();

        // The NOOP carries the WRITE's operands already (paper's trick).
        let mut wr = WorkRequest::write(buf, mr.lkey, 8, buf + 8, mr.rkey);
        wr.wqe.opcode = Opcode::Noop;
        sim.post_send_quiet(mqp, wr).unwrap();

        // Patch opcode NOOP -> WRITE directly in the ring.
        let slot = sim.sq_wqe_addr(mqp, 0);
        let word = sim.mem_read_u64(n, slot).unwrap();
        let (_, id) = crate::wqe::split_header(word);
        sim.mem_write_u64(n, slot, crate::wqe::header_word(Opcode::Write, id))
            .unwrap();

        // Enable and run: the patched WRITE executes.
        let ctrl1 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        let ctrl2 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(ctrl1, ctrl2).unwrap();
        let msq = sim.sq_of(mqp);
        sim.post_send(ctrl1, WorkRequest::enable(msq, 1)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(n, buf + 8).unwrap(), 0xBEEF);
    }

    #[test]
    fn prefetch_hazard_unmanaged_queue_executes_stale_wqe() {
        // The §3.1 consistency hazard: on an UNMANAGED queue the NIC may
        // prefetch WQEs; a later in-memory patch is lost.
        let (mut sim, n) = solo();
        let cq = sim.create_cq(n, 16).unwrap();
        let qp1 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        let qp2 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(qp1, qp2).unwrap();
        let buf = sim.alloc(n, 16, 8).unwrap();
        let mr = sim.register_mr(n, buf, 16, Access::all()).unwrap();
        sim.mem_write_u64(n, buf, 0x1).unwrap();

        let mut wr = WorkRequest::write(buf, mr.lkey, 8, buf + 8, mr.rkey);
        wr.wqe.opcode = Opcode::Noop;
        // Post both WQEs with one doorbell: they are prefetched together.
        sim.post_send_batch(qp1, &[WorkRequest::noop(), wr])
            .unwrap();
        // Let the doorbell + prefetch happen.
        sim.run_until(Time::from_us_f64(1.1)).unwrap();
        // Patch WQE 1 after the prefetch: NOOP -> WRITE.
        let slot = sim.sq_wqe_addr(qp1, 1);
        let word = sim.mem_read_u64(n, slot).unwrap();
        let (_, id) = crate::wqe::split_header(word);
        sim.mem_write_u64(n, slot, crate::wqe::header_word(Opcode::Write, id))
            .unwrap();
        sim.run().unwrap();
        // The stale NOOP executed: memory unchanged.
        assert_eq!(sim.mem_read_u64(n, buf + 8).unwrap(), 0);
    }

    #[test]
    fn wq_recycling_re_executes_the_ring() {
        // ENABLE past the posted tail wraps the ring: the same WQE
        // re-executes (§3.4). Three enables -> three executions of the
        // single posted WRITE, incrementing via FETCH_ADD would be
        // clearer but WRITE shows the re-execution too.
        let (mut sim, n) = solo();
        let cq = sim.create_cq(n, 64).unwrap();
        let mqp = sim
            .create_qp(n, QpConfig::new(cq).managed().sq_depth(1))
            .unwrap();
        let peer = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(mqp, peer).unwrap();
        let ctr = sim.alloc(n, 8, 8).unwrap();
        let cmr = sim.register_mr(n, ctr, 8, Access::all()).unwrap();

        sim.post_send_quiet(mqp, WorkRequest::fetch_add(ctr, cmr.rkey, 1, 0, 0))
            .unwrap();
        let ctrl1 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        let ctrl2 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(ctrl1, ctrl2).unwrap();
        let msq = sim.sq_of(mqp);
        // Enable three executions of a 1-deep ring.
        sim.post_send(ctrl1, WorkRequest::enable(msq, 3)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(n, ctr).unwrap(), 3);
        assert_eq!(sim.wq_executed(msq), 3);
    }

    #[test]
    fn unreadable_ring_kills_the_queue_and_is_traced() {
        // The ring is bump-allocated and never freed, so no public call
        // can make it unreadable; point the queue's metadata outside the
        // arena to stand in for "the OS reclaimed the ring".
        let mut sim = Simulator::new(SimConfig {
            trace: true,
            ..SimConfig::default()
        });
        let n = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
        let (qp, _peer, cq, _) = qp_pair(&mut sim, n, n);
        sim.post_send(qp, WorkRequest::noop().signaled()).unwrap();
        let sq = sim.sq_of(qp);
        sim.wqs[sq.index()].base_addr = u64::MAX - 2 * WQE_SIZE;
        sim.run().unwrap();
        assert_eq!(sim.wqs[sq.index()].block, WqBlock::Dead);
        assert!(
            sim.poll_cq(cq, 4).is_empty(),
            "a dead queue completes nothing"
        );
        let events = sim.trace().events().iter();
        let faults: Vec<_> = events
            .filter(|(_, e)| matches!(e, TraceEvent::Fault { .. }))
            .collect();
        assert_eq!(
            faults[0].1,
            TraceEvent::Fault {
                wq: sq,
                idx: 0,
                reason: "WQ ring unreadable".to_string()
            }
        );
    }
}
