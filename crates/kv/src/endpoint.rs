//! Client endpoints: the QP, CQs and registered request/response slots a
//! client drives offloads through, and the blocking wait every
//! synchronous request path shares.

use std::cell::{Cell, RefCell};

use redn_core::ctx::ClientDest;
use rnic_sim::cq::Cqe;
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{CqId, NodeId, QpId};
use rnic_sim::mem::Access;
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::Simulator;
use rnic_sim::wqe::WorkRequest;

/// Run the simulator until `cq` produces a completion (or events run dry).
pub fn run_until_cqe(sim: &mut Simulator, cq: CqId) -> Result<Option<Cqe>> {
    loop {
        if let Some(c) = sim.poll_cq(cq, 1).pop() {
            return Ok(Some(c));
        }
        if !sim.step()? {
            return Ok(None);
        }
    }
}

/// A client endpoint: QP pair plus registered request/response buffers.
///
/// An endpoint created with `ClientEndpoint::create_pipelined` carves
/// its request and response buffers into `slots` independent slots so
/// that many requests can be in flight at once (one slot per in-flight
/// instance — the client-side mirror of the offload's `pipeline_depth`).
/// The response-slot stride matches the one the offload builders give
/// the serving frame (`redn_core::offloads::service`): `max_value.max(8)`
/// bytes.
pub struct ClientEndpoint {
    /// Client node.
    pub node: NodeId,
    /// Client QP (connect to the server's).
    pub qp: QpId,
    /// Send-side CQ.
    pub cq: CqId,
    /// Receive CQ (response completions).
    pub recv_cq: CqId,
    /// Request staging buffer (base of the slot array).
    pub req_buf: u64,
    /// lkey for the request buffer.
    pub req_lkey: u32,
    /// Response buffer (base of the slot array; what [`dest`] advertises).
    ///
    /// [`dest`]: ClientEndpoint::dest
    pub resp_buf: u64,
    /// rkey for the response buffer (given to the server).
    pub resp_rkey: u32,
    /// lkey for the response buffer (for local reads).
    pub resp_lkey: u32,
    /// Pipelined request/response slots (1 for synchronous endpoints).
    pub slots: u32,
    req_slot_len: u64,
    /// RedN-path RECV/response bookkeeping (see `reserve_response_recv`):
    /// RECVs posted, responses reaped, requests posted, requests
    /// abandoned (timed-out misses whose RECV is recycled).
    recvs_posted: Cell<u64>,
    responses_reaped: Cell<u64>,
    requests_posted: Cell<u64>,
    requests_abandoned: Cell<u64>,
    /// The trigger payload or put record being staged (reused, so
    /// staging allocates nothing in steady state).
    pub(crate) payload: RefCell<Vec<u8>>,
}

impl ClientEndpoint {
    /// The response-buffer capability this client advertises to servers
    /// (what a real client would ship in its connection handshake).
    pub fn dest(&self) -> ClientDest {
        ClientDest::new(self.resp_buf, self.resp_rkey)
    }

    /// Create an endpoint with buffers big enough for `max_value` bytes
    /// and a single request/response slot (the synchronous case).
    pub fn create(sim: &mut Simulator, node: NodeId, max_value: u32) -> Result<ClientEndpoint> {
        ClientEndpoint::create_pipelined(sim, node, max_value, 1)
    }

    /// Create an endpoint with `slots` independent request/response slots
    /// for pipelined use (pair with a hash-get offload deployed with the
    /// same `pipeline_depth` and `value_len == max_value`). Zero slots is
    /// an `InvalidWr` error, with nothing created.
    pub(crate) fn create_pipelined(
        sim: &mut Simulator,
        node: NodeId,
        max_value: u32,
        slots: u32,
    ) -> Result<ClientEndpoint> {
        let geometry = (slots, Self::pipelined_req_slot_len(max_value), 8, max_value);
        ClientEndpoint::build(sim, node, geometry, Some(1024), |_, _| Ok(())).map(|(ep, ())| ep)
    }

    /// Create the queues and the registered request and response slot
    /// arrays — `(slots, req_slot_len, req_align, max_value)`, response
    /// slots `max_value.max(8)` bytes — running `deploy` against the
    /// response buffer in between. `early` queues (CQs and SQ that deep,
    /// RQ too) come first; otherwise 256-deep ones with a `slots`-deep RQ
    /// come after `deploy`.
    pub(crate) fn build<T>(
        sim: &mut Simulator,
        node: NodeId,
        (slots, req_slot_len, req_align, max_value): (u32, u64, u64, u32),
        early: Option<u32>,
        deploy: impl FnOnce(&mut Simulator, ClientDest) -> Result<T>,
    ) -> Result<(ClientEndpoint, T)> {
        if slots == 0 {
            return Err(Error::InvalidWr("an endpoint needs at least one slot"));
        }
        let queues = |sim: &mut Simulator, depth: u32, rq: u32| -> Result<(CqId, CqId, QpId)> {
            let cq = sim.create_cq(node, depth)?;
            let recv_cq = sim.create_cq(node, depth)?;
            let cfg = QpConfig::new(cq)
                .recv_cq(recv_cq)
                .sq_depth(depth)
                .rq_depth(rq);
            Ok((cq, recv_cq, sim.create_qp(node, cfg)?))
        };
        let early = early.map(|d| queues(sim, d, d)).transpose()?;
        let mut mr = |len: u64, align: u64| {
            let addr = sim.alloc(node, len * u64::from(slots), align)?;
            sim.register_mr(node, addr, len * u64::from(slots), Access::all())
        };
        let (req, resp) = (
            mr(req_slot_len, req_align)?,
            mr(u64::from(max_value.max(8)), 8)?,
        );
        let service = deploy(sim, ClientDest::of(&resp))?;
        let (cq, recv_cq, qp) = match early {
            Some(q) => q,
            None => queues(sim, 256, slots)?,
        };
        let ep = ClientEndpoint {
            node,
            qp,
            cq,
            recv_cq,
            req_buf: req.addr,
            req_lkey: req.lkey,
            resp_buf: resp.addr,
            resp_rkey: resp.rkey,
            resp_lkey: resp.lkey,
            slots,
            req_slot_len,
            recvs_posted: Cell::default(),
            responses_reaped: Cell::default(),
            requests_posted: Cell::default(),
            requests_abandoned: Cell::default(),
            payload: RefCell::default(),
        };
        Ok((ep, service))
    }

    /// Request staging address of `slot` (wraps modulo the slot count).
    pub(crate) fn req_slot(&self, slot: u64) -> u64 {
        self.req_buf + (slot % self.slots as u64) * self.req_slot_len
    }

    /// Poll up to `max` send-side completions into `cqes` (appending) and
    /// return how many arrived: the put body reads them for typed
    /// failures, get and walk requests drop them
    /// ([`ClientEndpoint::drop_sends`]).
    pub(crate) fn poll_sends(&self, sim: &mut Simulator, max: usize, cqes: &mut Vec<Cqe>) -> usize {
        sim.poll_cq_into(self.cq, max, cqes)
    }

    /// Empty the send CQ before more trigger requests are posted, through
    /// the scratch buffer `cqes`. Every trigger SEND is signaled, but
    /// nothing reads its CQE — a failed trigger surfaces as a timeout or
    /// abandon — and a CQ nobody drains overruns. Drained before every
    /// burst, the CQ never holds more than one window of trigger SENDs.
    pub(crate) fn drop_sends(&self, sim: &mut Simulator, cqes: &mut Vec<Cqe>) {
        cqes.clear();
        self.poll_sends(sim, usize::MAX, cqes);
    }

    /// Capacity of one request slot of a pipelined endpoint for values
    /// of `max_value` bytes — the most a staged trigger payload may
    /// occupy.
    pub(crate) fn pipelined_req_slot_len(max_value: u32) -> u64 {
        64 + u64::from(max_value)
    }

    // -- Trigger-burst engine (Session::get_burst / walk_burst) -------

    /// Stage one trigger request into `instance`'s request slot: reserve
    /// its response RECV, write the payload `fill` produces, and queue the
    /// trigger SEND (no doorbell — bursts ring once). Returns the slot
    /// index.
    pub(crate) fn stage_trigger(
        &self,
        sim: &mut Simulator,
        instance: u64,
        depth: u32,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64> {
        let slot = instance % depth as u64;
        self.reserve_response_recv(sim)?;
        let req = self.req_slot(slot);
        let mut payload = self.payload.borrow_mut();
        fill(&mut payload);
        sim.mem_write(self.node, req, &payload)?;
        sim.post_send_quiet(
            self.qp,
            redn_core::offloads::rpc::trigger_send(req, self.req_lkey, payload.len() as u32),
        )?;
        Ok(slot)
    }

    /// Post `count` trigger requests as one burst under a single
    /// doorbell, appending their handles to `out`. The window is
    /// validated up front (`depth` vs this endpoint's slots, `available`
    /// instances vs `count`), so an over-sized burst errors cleanly with
    /// nothing posted; `post_one` claims an instance, builds the payload,
    /// and stages it via [`ClientEndpoint::stage_trigger`]. A mid-burst
    /// error still rings the doorbell for the already-staged requests —
    /// they are on the wire, and their handles are in `out` — but that
    /// path indicates a programming bug, not a capacity condition.
    pub(crate) fn post_trigger_burst<P>(
        &self,
        sim: &mut Simulator,
        depth: u32,
        available: u64,
        count: usize,
        out: &mut Vec<P>,
        mut post_one: impl FnMut(&mut Simulator, usize) -> Result<P>,
    ) -> Result<()> {
        if self.slots < depth {
            return Err(Error::InvalidWr(
                "client endpoint has fewer slots than the offload's pipeline depth",
            ));
        }
        if available < count as u64 {
            return Err(Error::InvalidWr(
                "burst exceeds the offload's available instances (re-arm or complete first)",
            ));
        }
        let staged = out.len();
        let mut result = Ok(());
        for i in 0..count {
            match post_one(sim, i) {
                Ok(p) => out.push(p),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if out.len() > staged {
            sim.ring_doorbell(self.qp)?;
        }
        result
    }

    // -- RedN-path RECV accounting ------------------------------------
    //
    // Every RedN response (a WRITE_IMM) consumes one posted RECV, but a
    // *missed* key produces no response at all, so one RECV per request
    // would leak a RECV per miss and eventually exhaust the RQ into RNR.
    // Instead the endpoint reserves a RECV per *live* request and
    // recycles the RECVs stranded by abandoned (timed-out) requests.

    /// Account one request about to be posted, topping up posted RECVs
    /// so every live (posted, not reaped, not abandoned) request has
    /// one. Reuses RECVs stranded by earlier abandoned requests instead
    /// of posting unconditionally.
    fn reserve_response_recv(&self, sim: &mut Simulator) -> Result<()> {
        let live_after = self.requests_posted.get() + 1
            - self.responses_reaped.get()
            - self.requests_abandoned.get();
        if self.outstanding_recvs() < live_after {
            sim.post_recv(self.qp, WorkRequest::recv(0, 0, 0))?;
            self.recvs_posted.set(self.recvs_posted.get() + 1);
        }
        self.requests_posted.set(self.requests_posted.get() + 1);
        Ok(())
    }

    /// Account one reaped response completion (consumed one RECV).
    pub(crate) fn note_response_reaped(&self) {
        self.responses_reaped.set(self.responses_reaped.get() + 1);
    }

    /// Account one request given up on (a missed key never responds);
    /// its RECV stays posted and is reused by the next request.
    pub(crate) fn note_request_abandoned(&self) {
        self.requests_abandoned
            .set(self.requests_abandoned.get() + 1);
    }

    /// RECVs posted but not yet consumed by a response.
    pub fn outstanding_recvs(&self) -> u64 {
        self.recvs_posted.get() - self.responses_reaped.get()
    }

    /// Requests posted and neither reaped nor abandoned.
    pub fn live_requests(&self) -> u64 {
        self.requests_posted.get() - self.responses_reaped.get() - self.requests_abandoned.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::config::{HostConfig, NicConfig, SimConfig};

    #[test]
    fn zero_slot_endpoint_is_an_error() {
        let mut sim = Simulator::new(SimConfig::default());
        let c = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
        assert!(matches!(
            ClientEndpoint::create_pipelined(&mut sim, c, 64, 0),
            Err(Error::InvalidWr(_))
        ));
        assert!(ClientEndpoint::create_pipelined(&mut sim, c, 64, 1).is_ok());
    }
}
