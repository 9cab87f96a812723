//! Host API, part 2 — verbs: posting work requests, doorbells, polling,
//! timers, CQ listeners and process faults. These are the host actions
//! that *schedule* events: a doorbell becomes a `WqAdvance` after the MMIO
//! latency, a timer a `Callback`, a late RECV an RNR-retry `Arrive`.

use super::{CqCallback, CqListener, ListenMode, Simulator, TimerCallback};
use crate::cq::Cqe;
use crate::engine::EventKind;
use crate::error::{Error, Result};
use crate::ids::{CqId, NodeId, ProcessId, QpId, WqId};
use crate::time::Time;
use crate::trace::TraceEvent;
use crate::verbs::Opcode;
use crate::wq::WqBlock;
use crate::wqe::WorkRequest;

/// Redelivery delay after receiver-not-ready (RC RNR NAK back-off).
const RNR_DELAY: Time = Time::from_us(1);

impl Simulator {
    // ------------------------------------------------------------------
    // Posting
    // ------------------------------------------------------------------

    /// Post one work request to a QP's send queue. Serializes the WQE into
    /// the ring in host memory and (for unmanaged queues) rings the
    /// doorbell. Returns the WQE's monotonic index.
    pub fn post_send(&mut self, qp: QpId, wr: WorkRequest) -> Result<u64> {
        self.post_send_batch(qp, std::slice::from_ref(&wr))
    }

    /// Post a batch with a single doorbell.
    pub fn post_send_batch(&mut self, qp: QpId, wrs: &[WorkRequest]) -> Result<u64> {
        let mut first = 0;
        for (i, wr) in wrs.iter().enumerate() {
            let idx = self.post_send_quiet(qp, *wr)?;
            if i == 0 {
                first = idx;
            }
        }
        let sq = self.sq_of(qp);
        if !self.wqs[sq.index()].managed {
            self.ring_doorbell(qp)?;
        }
        Ok(first)
    }

    /// Post without ringing any doorbell (managed queues, or pre-staging).
    pub fn post_send_quiet(&mut self, qp: QpId, wr: WorkRequest) -> Result<u64> {
        if wr.wqe.opcode == Opcode::Recv {
            return Err(Error::InvalidWr("RECV posted to a send queue"));
        }
        self.post_wqe(qp, self.sq_of(qp), wr)
    }

    /// Serialize `wr` into the next free slot of `wq` (one of `qp`'s two
    /// rings) in host memory. Returns the WQE's monotonic index.
    fn post_wqe(&mut self, qp: QpId, wq_id: WqId, wr: WorkRequest) -> Result<u64> {
        let wq = &self.wqs[wq_id.index()];
        if wq.block == WqBlock::Dead {
            return Err(Error::BadQpState(qp, "QP is dead"));
        }
        if !wq.has_room() {
            return Err(Error::WqFull(wq_id));
        }
        let (node, addr, idx) = (wq.node, wq.slot_addr(wq.posted), wq.posted);
        self.mems[node.index()].write(addr, &wr.wqe.encode())?;
        self.wqs[wq_id.index()].posted += 1;
        Ok(idx)
    }

    /// Overwrite the WQE at `idx` in the SQ ring (host-side re-arming,
    /// e.g. re-initializing a recycled chain between runs).
    pub fn rewrite_sq_wqe(&mut self, qp: QpId, idx: u64, wr: WorkRequest) -> Result<()> {
        let addr = self.sq_wqe_addr(qp, idx);
        let node = self.node_of_qp(qp);
        self.mems[node.index()].write(addr, &wr.wqe.encode())
    }

    /// Post a receive.
    pub fn post_recv(&mut self, qp: QpId, wr: WorkRequest) -> Result<u64> {
        if wr.wqe.opcode != Opcode::Recv {
            return Err(Error::InvalidWr(
                "only RECV may be posted to a receive queue",
            ));
        }
        let idx = self.post_wqe(qp, self.rq_of(qp), wr)?;
        // Receiver-not-ready retry: a parked arrival gets another chance.
        if let Some(msg) = self.qps[qp.index()].rnr_queue.pop_front() {
            self.events
                .schedule(self.now + RNR_DELAY, EventKind::Arrive { qp, msg });
        }
        Ok(idx)
    }

    /// Host-side ENABLE of a managed queue: raise its fetch limit to
    /// `count` (absolute) and kick it after the doorbell latency. This is
    /// what the driver does when the host itself releases a managed chain,
    /// as opposed to an ENABLE verb doing it from another queue.
    pub fn host_enable(&mut self, qp: QpId, count: u64) -> Result<()> {
        let sq = self.sq_of(qp);
        let wq = &mut self.wqs[sq.index()];
        wq.enabled_until = wq.enabled_until.max(count);
        // A host enable is an MMIO write, same as a doorbell — counted
        // so artifacts can prove the CPU left the steady-state loop.
        self.mmio_kick(
            sq,
            TraceEvent::Enable {
                wq: sq,
                until: count,
            },
        );
        Ok(())
    }

    /// Ring a QP's send doorbell: the NIC notices new WQEs after the MMIO
    /// latency.
    pub fn ring_doorbell(&mut self, qp: QpId) -> Result<()> {
        let sq = self.sq_of(qp);
        self.mmio_kick(sq, TraceEvent::Doorbell { wq: sq });
        Ok(())
    }

    /// One host MMIO write to send queue `sq`: counted, traced as `what`,
    /// and noticed by the NIC after the doorbell latency.
    fn mmio_kick(&mut self, sq: WqId, what: TraceEvent) {
        let node = self.wqs[sq.index()].node;
        let t = self.nics[node.index()].config.t_doorbell;
        self.wqs[sq.index()].stat_doorbells += 1;
        self.trace.record(self.now, what);
        self.events
            .schedule(self.now + t, EventKind::WqAdvance { wq: sq });
    }

    /// Poll up to `max` completions from a CQ.
    pub fn poll_cq(&mut self, cq: CqId, max: usize) -> Vec<Cqe> {
        self.cqs[cq.index()].poll(max)
    }

    /// Allocation-free [`Simulator::poll_cq`]: reap up to `max`
    /// completions into `out` (appending) and return how many arrived.
    /// Clients keep one buffer per reap loop instead of allocating a
    /// fresh `Vec<Cqe>` per poll.
    pub fn poll_cq_into(&mut self, cq: CqId, max: usize, out: &mut Vec<Cqe>) -> usize {
        self.cqs[cq.index()].poll_into(max, out)
    }

    /// Watch `cq`: the first CQE pushed to a watched CQ after each
    /// [`Simulator::drain_ready_cqs`] lists it once, so a host polling
    /// many CQs visits only those with news. Readiness means *a CQE was
    /// pushed* — the host still polls the CQ and reads the placed value
    /// as before. An unwatched CQ pays one branch per CQE and records
    /// nothing; the list (one per simulator) never outgrows the number
    /// of watched CQs.
    pub fn watch_cq(&mut self, cq: CqId) {
        self.cqs[cq.index()].watched = true;
    }

    /// Append the watched CQs that received a CQE since the previous
    /// call to `out`, in first-arrival order, and clear the list.
    pub fn drain_ready_cqs(&mut self, out: &mut Vec<CqId>) {
        for cq in &self.ready_cqs {
            self.cqs[cq.index()].ready = false;
        }
        out.append(&mut self.ready_cqs);
    }

    // ------------------------------------------------------------------
    // Host-side scheduling
    // ------------------------------------------------------------------

    /// Schedule `f` to run at absolute simulated time `at`.
    pub fn at(&mut self, at: Time, f: TimerCallback) {
        let key = self.callbacks.insert(f);
        self.events
            .schedule(at.max(self.now), EventKind::Callback { key });
    }

    /// Schedule `f` to run after `delay`.
    pub fn after(&mut self, delay: Time, f: TimerCallback) {
        let at = self.now + delay;
        self.at(at, f);
    }

    /// Register a host thread that observes a CQ. The callback runs once
    /// per completion, after the mode's pickup/wake delay. Returns a key
    /// for [`Simulator::remove_cq_listener`].
    pub fn set_cq_listener(&mut self, cq: CqId, mode: ListenMode, cb: CqCallback) -> u64 {
        let node = self.cqs[cq.index()].node;
        let key = self.listeners.insert(CqListener {
            cq,
            node,
            mode,
            cb: Some(cb),
            scheduled: false,
        });
        self.cqs[cq.index()].listener = Some(key);
        key
    }

    /// Remove a CQ listener.
    pub fn remove_cq_listener(&mut self, key: u64) {
        if let Some(l) = self.listeners.remove(key) {
            self.cqs[l.cq.index()].listener = None;
        }
    }

    // ------------------------------------------------------------------
    // Processes and faults
    // ------------------------------------------------------------------

    /// Spawn a process on a node.
    pub fn spawn_process(
        &mut self,
        node: NodeId,
        name: &str,
        parent: Option<ProcessId>,
    ) -> ProcessId {
        self.hosts[node.index()].spawn(name, parent)
    }

    /// Kill a process: the OS reclaims its memory registrations and frees
    /// its QP rings — any offload chain living in them dies (§5.6).
    pub fn kill_process(&mut self, node: NodeId, pid: ProcessId) -> bool {
        if !self.hosts[node.index()].kill(pid) {
            return false;
        }
        self.mems[node.index()].reclaim_owner(pid);
        for qp in 0..self.qps.len() {
            if self.qps[qp].node == node && self.qp_owner[qp] == pid {
                self.qps[qp].dead = true;
                let (sq, rq) = (self.qps[qp].sq, self.qps[qp].rq);
                self.wqs[sq.index()].block = WqBlock::Dead;
                self.wqs[rq.index()].block = WqBlock::Dead;
            }
        }
        true
    }

    /// Restart a dead process (its previous resources stay dead; the
    /// application must re-create them, which is what costs vanilla
    /// Memcached its 2.25 s in Fig 16).
    pub fn restart_process(&mut self, node: NodeId, pid: ProcessId) -> bool {
        self.hosts[node.index()].restart(pid)
    }

    /// Bring a dead QP back to life — shorthand for "the restarted
    /// application re-created its queue pairs and the client reconnected".
    /// The failure harness uses this after the restart + rebuild delay so
    /// it does not have to model the reconnection handshake.
    pub fn revive_qp(&mut self, qp: QpId) {
        self.qps[qp.index()].dead = false;
        let (sq, rq) = (self.qps[qp.index()].sq, self.qps[qp.index()].rq);
        for wq in [sq, rq] {
            if self.wqs[wq.index()].block == WqBlock::Dead {
                self.wqs[wq.index()].block = WqBlock::None;
            }
        }
        self.events
            .schedule(self.now, EventKind::WqAdvance { wq: sq });
    }

    /// Kernel panic: host-side execution stops; the NIC and memory keep
    /// going, so hull-owned offloads continue serving (§5.6 "OS failure").
    pub fn os_panic(&mut self, node: NodeId) {
        self.hosts[node.index()].os_panic();
    }

    /// Whether a node's OS is up.
    pub fn os_alive(&self, node: NodeId) -> bool {
        self.hosts[node.index()].os_alive
    }

    /// Account `demand` of CPU work on a node; returns the finish time.
    pub fn host_execute(&mut self, node: NodeId, demand: Time, seq: u64) -> Time {
        let now = self.now;
        self.hosts[node.index()].execute(now, demand, seq)
    }

    /// Declare how many host threads are runnable (drives the scheduler-
    /// pressure model behind Fig 15).
    pub fn set_runnable_threads(&mut self, node: NodeId, n: usize) {
        self.hosts[node.index()].runnable_threads = n;
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use crate::config::SimConfig;
    use crate::cq::CqeStatus;
    use crate::mem::Access;
    use crate::qp::QpConfig;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn dead_qp_freezes_and_errors() {
        let (mut sim, a, b) = two_nodes();
        let cq_a = sim.create_cq(a, 16).unwrap();
        let cq_b = sim.create_cq(b, 16).unwrap();
        let qp_a = sim.create_qp(a, QpConfig::new(cq_a)).unwrap();
        let pid = sim.spawn_process(b, "victim", None);
        let qp_b = sim.create_qp_owned(b, QpConfig::new(cq_b), pid).unwrap();
        sim.connect_qps(qp_a, qp_b).unwrap();
        let src = sim.alloc(a, 8, 8).unwrap();
        let smr = sim.register_mr(a, src, 8, Access::all()).unwrap();

        assert_eq!(
            sim.sq_room(qp_a).unwrap(),
            u64::from(sim.wq_depth(sim.sq_of(qp_a)))
        );
        sim.kill_process(b, pid);
        sim.post_send(qp_a, WorkRequest::send(src, smr.lkey, 8).signaled())
            .unwrap();
        assert_eq!(
            sim.sq_room(qp_a).unwrap() + 1,
            u64::from(sim.wq_depth(sim.sq_of(qp_a)))
        );
        sim.run().unwrap();
        let cqes = sim.poll_cq(cq_a, 4);
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].status, CqeStatus::RnrError);
        // Posting on the dead QP fails outright, and `sq_room` says so
        // beforehand.
        assert!(sim.post_send(qp_b, WorkRequest::noop()).is_err());
        assert!(sim.sq_room(qp_b).is_err());
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Simulator::new(SimConfig::default());
        let order = Rc::new(RefCell::new(Vec::new()));
        let (o1, o2) = (order.clone(), order.clone());
        sim.at(
            Time::from_us(10),
            Box::new(move |_| o1.borrow_mut().push(10)),
        );
        sim.at(Time::from_us(5), Box::new(move |_| o2.borrow_mut().push(5)));
        sim.run().unwrap();
        assert_eq!(order.borrow().as_slice(), &[5, 10]);
        assert_eq!(sim.now(), Time::from_us(10));
    }
}
