//! Typed client sessions over deployed [`OffloadService`]s.
//!
//! A [`Session`] is one client's connection to one serving offload: a
//! pipelined [`ClientEndpoint`] (slotted request/response buffers sized
//! to the service's pipeline depth) bound to the deployed service whose
//! responses land in it, with typed operations:
//!
//! * [`Session::get`] / [`Session::get_burst`] — hash-table lookups
//!   (§3.4), returning [`PendingGet`] handles;
//! * [`Session::walk`] / [`Session::walk_burst`] — linked-list
//!   traversals (§3.3), returning [`PendingWalk`] handles;
//! * [`Session::put`] — replicated writes into a shard primary's
//!   NIC-resident replication chain (this repo's §3.4 write path),
//!   reaped by [`Session::reap_puts`] as typed [`PutAck`]s and
//!   [`PutFailure`]s;
//! * [`Session::reap`] — drains get and walk response completions as a
//!   typed [`Completion`] enum, so heterogeneous callers (the mixed
//!   [`ServingFleet`](crate::serving::ServingFleet)) can tell service
//!   families apart without re-deriving them from context.
//!
//! All three bodies share one endpoint, one instance window and one
//! idle compare. Posting through the wrong session kind is an error,
//! not a silent misroute: `session.walk(...)` on a get session fails
//! before anything touches the wire.

use std::cell::RefCell;
use std::rc::Rc;

use redn_core::ctx::OffloadCtx;
use redn_core::offloads::hash_lookup::{HashGetOffload, HashGetVariant};
use redn_core::offloads::list::{self, ListWalkOffload};
use redn_core::offloads::replicate::{
    encode_record_into, record_len, ReplicationLog, ReplicationOffload, RECORD_HEADER,
};
use redn_core::offloads::service::OffloadService;
use rnic_sim::cq::{Cqe, CqeStatus};
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::NodeId;
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;
use rnic_sim::wqe::WorkRequest;

use crate::cuckoo::CuckooTable;
use crate::endpoint::ClientEndpoint;
use crate::liststore::ListStore;
use crate::memcached::{post_get_burst, reap_gets_into, MemcachedServer, PendingGet, ReapedGet};
use crate::store::check_key;

/// Deployment knobs shared by every session kind (what the fleet varies
/// per client when sharding services across the NIC).
#[derive(Clone, Copy, Debug)]
pub struct SessionOpts {
    /// Instances kept in flight concurrently (endpoint slots match).
    pub pipeline_depth: u32,
    /// Deploy the §3.4 self-recycling variant (the NIC re-arms instances
    /// between rounds; zero host work per request).
    pub self_recycling: bool,
    /// NIC port the service's queues bind to.
    pub port: usize,
    /// First processing unit the service occupies.
    pub pu_base: usize,
}

impl Default for SessionOpts {
    fn default() -> SessionOpts {
        SessionOpts {
            pipeline_depth: 4,
            self_recycling: true,
            port: 0,
            pu_base: 0,
        }
    }
}

/// A posted, not-yet-reaped list walk (the walk-side counterpart of
/// [`PendingGet`]).
#[derive(Clone, Copy, Debug)]
pub struct PendingWalk {
    /// Offload instance this request consumed; the response CQE carries
    /// its tag as immediate data.
    pub instance: u64,
    /// Head pointer the walk started from.
    pub head: u64,
    /// The wanted key.
    pub key: u64,
    /// Client-side request/response slot index.
    pub slot: u64,
    /// When the request was handed to the NIC (open-loop generators may
    /// backdate this to the scheduled time).
    pub posted_at: Time,
}

/// A reaped list-walk completion: the same response tag and time as a
/// get's.
type ReapedWalk = ReapedGet;

/// One reaped completion, typed by the service family that produced it.
#[derive(Clone, Copy, Debug)]
pub enum Completion {
    /// A hash-get response.
    Get(ReapedGet),
    /// A list-walk response.
    Walk(ReapedWalk),
}

impl Completion {
    /// The response tag (instance id when host-armed, ring slot when
    /// self-recycling) — match against
    /// [`Session::response_tag`] of the pending handle's instance.
    pub fn tag(&self) -> u64 {
        match self {
            Completion::Get(c) | Completion::Walk(c) => c.instance,
        }
    }

    /// Simulated completion time.
    pub fn at(&self) -> Time {
        match self {
            Completion::Get(c) | Completion::Walk(c) => c.at,
        }
    }
}

/// A successfully acked PUT.
#[derive(Clone, Copy, Debug)]
pub struct PutAck {
    /// Global instance (= journal slot) of the write.
    pub instance: u64,
    /// The acked sequence number (`instance + 1`).
    pub seq: u64,
    /// The written key.
    pub key: u64,
    /// Simulated ack time.
    pub at: Time,
}

/// A PUT that failed with a typed completion instead of an ack.
#[derive(Clone, Copy, Debug)]
pub struct PutFailure {
    /// Global instance of the failed write.
    pub instance: u64,
    /// The key that was being written.
    pub key: u64,
    /// The CQE status the client observed (a dead primary surfaces
    /// [`CqeStatus::RnrError`] after the dead-QP timeout).
    pub status: CqeStatus,
    /// Simulated failure time.
    pub at: Time,
}

/// Everything one [`Session::reap_puts`] pass drained.
#[derive(Clone, Debug, Default)]
pub struct PutReap {
    /// Acked writes.
    pub acks: Vec<PutAck>,
    /// Failed writes (typed errors — the §5.6 "no hangs" guarantee).
    pub failures: Vec<PutFailure>,
}

/// One unresolved PUT occupying a window slot.
#[derive(Clone, Copy, Debug)]
struct PendingPut {
    instance: u64,
    key: u64,
    /// Index of its SEND on the session's QP — what a send-side error
    /// CQE names.
    wqe_index: u64,
    posted_at: Time,
}

/// CQEs one [`Session::reap_puts`] takes from each of its CQs at most.
const PUT_POLL_BATCH: usize = 64;

/// The service a session is bound to.
enum Bound {
    Get {
        off: HashGetOffload,
        /// Cloned table handle, so `get(key)` can resolve candidate
        /// bucket addresses without dragging the server around.
        table: Rc<RefCell<CuckooTable>>,
    },
    Walk {
        off: ListWalkOffload,
    },
    Put {
        off: ReplicationOffload,
        /// Unresolved PUTs by window slot — `pipeline_depth` entries,
        /// however many puts the session has carried. An ack names its
        /// slot in the CQE immediate and must carry the sequence number
        /// this table holds for that slot; anything else (a corrupted
        /// ack word, a late ack for a superseded occupant) resolves
        /// nothing.
        pending: Vec<Option<PendingPut>>,
    },
}

const NOT_PUT: &str = "session is not bound to a replication chain";

/// Retire `put`'s window slot and record how it ended: acked when
/// `status` is a success, failed with `status` otherwise.
fn resolve(
    off: &mut ReplicationOffload,
    out: &mut PutReap,
    put: PendingPut,
    status: CqeStatus,
    at: Time,
) {
    off.complete_instance();
    let (instance, key) = (put.instance, put.key);
    if status == CqeStatus::Success {
        let seq = instance + 1;
        out.acks.push(PutAck {
            instance,
            seq,
            key,
            at,
        });
    } else {
        out.failures.push(PutFailure {
            instance,
            key,
            status,
            at,
        });
    }
}

/// One client's typed connection to one deployed offload service (see
/// the module docs).
pub struct Session {
    ep: ClientEndpoint,
    bound: Bound,
    /// Scratch CQE buffer reused across reaps (no per-poll allocation).
    cqe_buf: Vec<Cqe>,
    /// Scratch typed-reap buffer reused across reaps.
    reap_buf: Vec<ReapedGet>,
    /// The polled CQs' monotonic CQE count at the last poll that emptied
    /// them (the recv CQ; for puts, the send CQ too): while the count
    /// stands there, they hold nothing.
    cq_seen: u64,
}

impl Session {
    /// Deploy a hash-get service against `server` through `ctx` and
    /// connect a freshly created pipelined endpoint on `client_node` to
    /// it. Host-armed services are primed to a full pipeline. The
    /// builder's checks run before the endpoint is created, so a
    /// rejected connect allocates nothing.
    pub fn connect_get(
        sim: &mut Simulator,
        ctx: &mut OffloadCtx,
        server: &MemcachedServer,
        client_node: NodeId,
        variant: HashGetVariant,
        opts: SessionOpts,
    ) -> Result<Session> {
        let builder = server
            .redn_builder(ctx)?
            .variant(variant)
            .pipeline_depth(opts.pipeline_depth)
            .on_port(opts.port)
            .on_pu(opts.pu_base);
        builder.check(opts.self_recycling)?;
        let value_len = server.table.borrow().heap.slot_len;
        let ep =
            ClientEndpoint::create_pipelined(sim, client_node, value_len, opts.pipeline_depth)?;
        let builder = builder.respond_to(ep.dest());
        let off = if opts.self_recycling {
            builder.build_recycled(sim, ctx.pool_mut())?
        } else {
            builder.build(sim)?
        };
        let table = server.table.clone();
        Session::bind(sim, ctx, ep, Bound::Get { off, table })
    }

    /// Deploy a list-walk service against `store` through `ctx` and
    /// connect a freshly created pipelined endpoint on `client_node` to
    /// it. `max_nodes` is the unroll factor (≤ 15 when self-recycling).
    /// As with [`Session::connect_get`], a rejected connect allocates
    /// nothing.
    pub fn connect_walk(
        sim: &mut Simulator,
        ctx: &mut OffloadCtx,
        store: &ListStore,
        client_node: NodeId,
        max_nodes: usize,
        opts: SessionOpts,
    ) -> Result<Session> {
        let builder = store
            .walk_builder(ctx)?
            .max_nodes(max_nodes)
            .pipeline_depth(opts.pipeline_depth)
            .on_port(opts.port)
            .on_pu(opts.pu_base);
        builder.check(opts.self_recycling)?;
        // The recycled walk's payload repeats the key per iteration; it
        // must fit the endpoint's request slot. Checked before anything
        // is created, so the error path leaks nothing.
        let payload_len = list::client_payload_len(max_nodes, opts.self_recycling) as u64;
        if payload_len > ClientEndpoint::pipelined_req_slot_len(store.value_len) {
            return Err(Error::InvalidWr(
                "walk payload exceeds the endpoint's request slot",
            ));
        }
        let ep = ClientEndpoint::create_pipelined(
            sim,
            client_node,
            store.value_len,
            opts.pipeline_depth,
        )?;
        let builder = builder.respond_to(ep.dest());
        let off = if opts.self_recycling {
            builder.build_recycled(sim, ctx.pool_mut())?
        } else {
            builder.build(sim)?
        };
        Session::bind(sim, ctx, ep, Bound::Walk { off })
    }

    /// Deploy a replication chain through the shard primary's `ctx`
    /// (its node and owner) forwarding to `journals`, and connect a
    /// freshly created put endpoint on `client_node` to it: `pipeline_depth`
    /// request slots of one record each, 8-byte ack slots, and a cyclic
    /// ring of one ack RECV per slot. `start_slot` continues an existing
    /// journal (post-failover rebuilds). Chains are always
    /// self-recycling, whatever `opts.self_recycling` says.
    pub fn connect_put(
        sim: &mut Simulator,
        ctx: &mut OffloadCtx,
        client_node: NodeId,
        journals: &[ReplicationLog],
        start_slot: u64,
        opts: SessionOpts,
    ) -> Result<Session> {
        let depth = opts.pipeline_depth;
        let value_len = journals.first().map_or(0, |j| j.value_len);
        let mut chain = ctx
            .replication()
            .value_len(value_len)
            .pipeline_depth(depth)
            .on_port(opts.port)
            .on_pu(opts.pu_base)
            .start_slot(start_slot);
        for j in journals {
            chain = chain.forward_to(j);
        }
        // The chain deploys between the endpoint's buffers and its
        // queues, the order every resource id of a cluster follows.
        let geometry = (depth, u64::from(record_len(value_len)), 64, 8);
        let (ep, off) = ClientEndpoint::build(sim, client_node, geometry, None, |sim, ack| {
            chain.respond_to(ack).build_recycled(sim, ctx.pool_mut())
        })?;
        for _ in 0..depth {
            sim.post_recv(ep.qp, WorkRequest::recv(0, 0, 0))?;
        }
        sim.set_rq_cyclic(ep.qp)?;
        let pending = vec![None; depth as usize];
        Session::bind(sim, ctx, ep, Bound::Put { off, pending })
    }

    /// Connect `ep` to the freshly deployed service and prime a
    /// host-armed one to a full pipeline.
    fn bind(
        sim: &mut Simulator,
        ctx: &mut OffloadCtx,
        ep: ClientEndpoint,
        bound: Bound,
    ) -> Result<Session> {
        let mut session = Session {
            ep,
            bound,
            cqe_buf: Vec::new(),
            reap_buf: Vec::new(),
            cq_seen: 0,
        };
        sim.connect_qps(session.ep.qp, session.service().tp.qp)?;
        session.service_mut().prime(sim, ctx.pool_mut())?;
        Ok(session)
    }

    /// The session's client endpoint (response slots, RECV accounting).
    pub fn endpoint(&self) -> &ClientEndpoint {
        &self.ep
    }

    /// The bound service: its family's `arm` plus, by dereference, the
    /// shared [`ServiceFrame`](redn_core::offloads::service::ServiceFrame).
    pub fn service(&self) -> &dyn OffloadService {
        match &self.bound {
            Bound::Get { off, .. } => off,
            Bound::Walk { off } => off,
            Bound::Put { off, .. } => off,
        }
    }

    /// Mutable access to the bound service.
    pub fn service_mut(&mut self) -> &mut dyn OffloadService {
        match &mut self.bound {
            Bound::Get { off, .. } => off,
            Bound::Walk { off } => off,
            Bound::Put { off, .. } => off,
        }
    }

    /// The replication chain a put session drives (`None` for gets and
    /// walks).
    pub fn replication(&self) -> Option<&ReplicationOffload> {
        match &self.bound {
            Bound::Put { off, .. } => Some(off),
            _ => None,
        }
    }

    /// Whether this session drives a hash-get service.
    pub fn is_get(&self) -> bool {
        matches!(self.bound, Bound::Get { .. })
    }

    /// The IR optimizer's before/after verb accounting for the bound
    /// service's recycled round (`None` for host-armed services).
    pub fn ir_report(&self) -> Option<redn_core::ir::PassReport> {
        self.service().ir_report()
    }

    /// Post one lookup (a one-element [`Session::get_burst`]).
    pub fn get(&mut self, sim: &mut Simulator, key: u64) -> Result<PendingGet> {
        let mut burst = self.get_burst(sim, &[key])?;
        burst
            .pop()
            .ok_or(Error::InvalidWr("a one-key burst posted nothing"))
    }

    /// Post a burst of lookups under one doorbell. Errors on a walk
    /// session, or when the burst exceeds the available instances.
    pub fn get_burst(&mut self, sim: &mut Simulator, keys: &[u64]) -> Result<Vec<PendingGet>> {
        let mut out = Vec::with_capacity(keys.len());
        self.get_burst_into(sim, keys, &mut out).map(|()| out)
    }

    /// Allocation-free [`Session::get_burst`]: appends the handles to
    /// `out`, so a generator reuses one buffer across every tick.
    pub(crate) fn get_burst_into(
        &mut self,
        sim: &mut Simulator,
        keys: &[u64],
        out: &mut Vec<PendingGet>,
    ) -> Result<()> {
        let Bound::Get { off, table } = &mut self.bound else {
            return Err(Error::InvalidWr(
                "session is not bound to a hash-get service",
            ));
        };
        self.ep.drop_sends(sim, &mut self.cqe_buf);
        post_get_burst(sim, off, &self.ep, table, keys, out)
    }

    /// Post one traversal (a one-element [`Session::walk_burst`]).
    pub fn walk(&mut self, sim: &mut Simulator, head: u64, key: u64) -> Result<PendingWalk> {
        let mut burst = self.walk_burst(sim, &[(head, key)])?;
        burst
            .pop()
            .ok_or(Error::InvalidWr("a one-walk burst posted nothing"))
    }

    /// Post a burst of traversals — `(head, key)` pairs — under one
    /// doorbell. Errors on a get session, or when the burst exceeds the
    /// available instances.
    pub fn walk_burst(
        &mut self,
        sim: &mut Simulator,
        reqs: &[(u64, u64)],
    ) -> Result<Vec<PendingWalk>> {
        let mut out = Vec::with_capacity(reqs.len());
        self.walk_burst_into(sim, reqs, &mut out).map(|()| out)
    }

    /// Allocation-free [`Session::walk_burst`]: appends the handles to
    /// `out`.
    pub(crate) fn walk_burst_into(
        &mut self,
        sim: &mut Simulator,
        reqs: &[(u64, u64)],
        out: &mut Vec<PendingWalk>,
    ) -> Result<()> {
        let Bound::Walk { off } = &mut self.bound else {
            return Err(Error::InvalidWr(
                "session is not bound to a list-walk service",
            ));
        };
        reqs.iter().try_for_each(|&(_, key)| check_key(key))?;
        self.ep.drop_sends(sim, &mut self.cqe_buf);
        let depth = off.pipeline_depth();
        let ep = &self.ep;
        ep.post_trigger_burst(
            sim,
            depth,
            off.instances_available(),
            reqs.len(),
            out,
            |sim, i| {
                let (head, key) = reqs[i];
                let instance = off.take_instance()?;
                let slot = ep.stage_trigger(sim, instance, depth, |p| {
                    off.client_payload_into(head, key, p)
                })?;
                Ok(PendingWalk {
                    instance,
                    head,
                    key,
                    slot,
                    posted_at: sim.now(),
                })
            },
        )
    }

    /// Post one PUT: claim a window slot (errors when the window is
    /// full), stage `[seq = instance + 1][key][value]` into its request
    /// slot and SEND it, signaled so a send-side failure names it.
    /// Returns the claimed instance. Errors on a get or walk session and
    /// for a value longer than the chain's.
    pub fn put(&mut self, sim: &mut Simulator, key: u64, value: &[u8]) -> Result<u64> {
        let Bound::Put { off, pending } = &mut self.bound else {
            return Err(Error::InvalidWr(NOT_PUT));
        };
        check_key(key)?;
        let value_len = off.value_len();
        if value.len() > value_len as usize {
            return Err(Error::InvalidWr("value longer than the chain's value_len"));
        }
        let instance = off.take_instance()?;
        let slot = off.slot(instance)?;
        let addr = self.ep.req_slot(slot);
        let mut rec = self.ep.payload.borrow_mut();
        encode_record_into(&mut rec, instance + 1, key, value, value_len);
        sim.mem_write(self.ep.node, addr, &rec)?;
        let send = WorkRequest::send(addr, self.ep.req_lkey, rec.len() as u32).signaled();
        let wqe_index = sim.post_send(self.ep.qp, send)?;
        let posted_at = sim.now();
        pending[slot as usize] = Some(PendingPut {
            instance,
            key,
            wqe_index,
            posted_at,
        });
        Ok(instance)
    }

    /// The value of `instance`'s put as staged in its request slot —
    /// valid until the slot's next put (the host-side apply of an acked
    /// write reads it here).
    pub fn put_value<'a>(&self, sim: &'a mut Simulator, instance: u64) -> Result<&'a [u8]> {
        let off = self.replication().ok_or(Error::InvalidWr(NOT_PUT))?;
        let addr = self.ep.req_slot(off.slot(instance)?) + u64::from(RECORD_HEADER);
        sim.mem(self.ep.node).read(addr, u64::from(off.value_len()))
    }

    /// Drain a put session's CQs: acks from the recv side, typed
    /// failures from the send side. Does not step the simulator.
    /// Everything the NIC wrote (the immediate, the ack word) is checked
    /// against the session's pending table: a mismatch skips the CQE,
    /// never panics. An idle reap — no CQE pushed to either CQ since a
    /// reap emptied both — is one compare. Empty on a get or walk
    /// session.
    #[inline]
    pub fn reap_puts(&mut self, sim: &mut Simulator) -> PutReap {
        let total = sim.cq_total(self.ep.recv_cq) + sim.cq_total(self.ep.cq);
        if total == self.cq_seen {
            return PutReap::default();
        }
        self.drain_puts(sim, total)
    }

    /// The polls behind [`Session::reap_puts`], `total` being the two
    /// CQs' CQE counts now.
    fn drain_puts(&mut self, sim: &mut Simulator, total: u64) -> PutReap {
        let mut out = PutReap::default();
        let Bound::Put { off, pending } = &mut self.bound else {
            return out;
        };
        let (ep, cqes) = (&self.ep, &mut self.cqe_buf);
        cqes.clear();
        let acked = sim.poll_cq_into(ep.recv_cq, PUT_POLL_BATCH, cqes);
        let sent = ep.poll_sends(sim, PUT_POLL_BATCH, cqes);
        for (i, cqe) in cqes.drain(..).enumerate() {
            let ok = cqe.status == CqeStatus::Success;
            let put = match cqe.imm.map(u64::from) {
                // An ack resolves its slot only if the slot's 8-byte ack
                // word holds the occupant's seq = instance + 1.
                Some(slot) if i < acked && ok => {
                    let word = ep.resp_buf + slot * 8;
                    let seq = sim.mem_read_u64(ep.node, word).unwrap_or(0);
                    let slot = pending.get_mut(slot as usize);
                    slot.and_then(|p| p.take_if(|p| p.instance.checked_add(1) == Some(seq)))
                }
                // A send-side error names the put by its SEND's index.
                _ if i >= acked && !ok => pending
                    .iter_mut()
                    .find(|p| p.is_some_and(|p| p.wqe_index == cqe.wqe_index))
                    .and_then(Option::take),
                _ => None,
            };
            if let Some(put) = put {
                resolve(off, &mut out, put, cqe.status, cqe.time);
            }
        }
        // A poll that came back full may have left CQEs behind.
        if acked.max(sent) < PUT_POLL_BATCH {
            self.cq_seen = total;
        }
        out
    }

    /// Heartbeat failure suspicion for a put session (§5.6 detection):
    /// true when puts are in flight and nothing has been heard for
    /// longer than `timeout` — silence counted from the later of the
    /// last ack CQE and the post of the oldest unresolved put, so quiet
    /// from before that put was posted (an idle session, a freshly
    /// connected one) is not evidence. False on a get or walk session.
    pub fn suspect(&self, sim: &Simulator, timeout: Time) -> bool {
        let Bound::Put { pending, .. } = &self.bound else {
            return false;
        };
        let heard = sim.cq_last_completion(self.ep.recv_cq);
        let oldest = pending.iter().flatten().map(|p| p.posted_at).min();
        oldest.is_some_and(|t| sim.now() > heard.max(t) + timeout)
    }

    /// A put session's last word (failover's, before it drops the
    /// session): reap what the CQs hold, then resolve every put still
    /// pending against the `journaled` records its chain's journal
    /// holds — acked with `seq = instance + 1` below that count, failed
    /// with [`CqeStatus::RnrError`] at or above it — and empty the
    /// window. Every put resolves exactly once across this and earlier
    /// reaps.
    pub fn settle_puts(&mut self, sim: &mut Simulator, journaled: u64) -> PutReap {
        let mut out = self.reap_puts(sim);
        if let Bound::Put { off, pending } = &mut self.bound {
            for put in pending.iter_mut().filter_map(Option::take) {
                let status = if put.instance < journaled {
                    CqeStatus::Success
                } else {
                    CqeStatus::RnrError
                };
                resolve(off, &mut out, put, status, sim.now());
            }
        }
        out
    }

    /// Reap up to `max` completions, typed by the session's service
    /// family. Does not step the simulator.
    pub fn reap(&mut self, sim: &mut Simulator, max: usize) -> Vec<Completion> {
        let mut out = Vec::new();
        self.reap_into(sim, max, &mut out);
        out
    }

    /// Allocation-free [`Session::reap`]: appends typed completions to
    /// `out`, recycling the session's internal scratch buffers. Fleet
    /// generators call this with one buffer per client per run. Returns
    /// whether the CQ was polled: an idle reap — no CQE pushed since a
    /// poll emptied the CQ — is this one compare, inlined into the
    /// caller's loop. The count only says a CQE *may* be there; every
    /// reap that does happen polls the CQ and reads the completions as
    /// placed. A put session's acks are not completions: it reaps
    /// nothing here (see [`Session::reap_puts`]).
    #[inline]
    pub fn reap_into(
        &mut self,
        sim: &mut Simulator,
        max: usize,
        out: &mut Vec<Completion>,
    ) -> bool {
        let total = sim.cq_total(self.ep.recv_cq);
        if total == self.cq_seen {
            return false;
        }
        self.poll_into(sim, total, max, out);
        true
    }

    /// The poll behind [`Session::reap_into`], `total` being the CQ's
    /// CQE count now.
    fn poll_into(
        &mut self,
        sim: &mut Simulator,
        total: u64,
        max: usize,
        out: &mut Vec<Completion>,
    ) {
        let typed = match self.bound {
            Bound::Get { .. } => Completion::Get,
            Bound::Walk { .. } => Completion::Walk,
            // Acks are not completions: they reap through reap_puts.
            Bound::Put { .. } => return,
        };
        self.reap_buf.clear();
        let reaped = reap_gets_into(sim, &self.ep, max, &mut self.cqe_buf, &mut self.reap_buf);
        // A poll that came back full may have left CQEs behind.
        if reaped < max {
            self.cq_seen = total;
        }
        out.extend(self.reap_buf.drain(..).map(typed));
    }

    /// The response tag `instance`'s completion will carry (see
    /// [`InstanceWindow::response_tag`]); an instance the service never
    /// handed out gets a tag no completion carries.
    ///
    /// [`InstanceWindow::response_tag`]: redn_core::offloads::service::InstanceWindow::response_tag
    pub fn response_tag(&self, instance: u64) -> u64 {
        self.service()
            .response_tag(instance)
            .map_or(u64::MAX, u64::from)
    }

    /// Retire one reaped in-flight instance (slot accounting).
    pub fn complete(&mut self) {
        self.service_mut().complete_instance();
    }

    /// Give up on one in-flight request (drained simulator / deadline):
    /// recycles its RECV and retires its instance slot.
    pub fn abandon(&mut self) {
        self.ep.note_request_abandoned();
        self.service_mut().complete_instance();
    }

    /// Read the first `len` bytes of `instance`'s response slot.
    pub fn read_value(&self, sim: &Simulator, instance: u64, len: u64) -> Result<Vec<u8>> {
        sim.mem_read(self.ep.node, self.service().response_slot(instance)?, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
    use rnic_sim::ids::ProcessId;

    fn rig() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(SimConfig::default());
        let c = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
        let s = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        sim.connect_nodes(c, s, LinkConfig::back_to_back());
        (sim, c, s)
    }

    #[test]
    fn a_context_on_the_wrong_node_is_a_typed_error() {
        let (mut sim, c, s) = rig();
        let server = MemcachedServer::create(&mut sim, s, 1024, 64, ProcessId(0)).unwrap();
        let store = ListStore::create(&mut sim, s, 2, 4, 64, ProcessId(0)).unwrap();
        let mut ctx = OffloadCtx::new(&mut sim, c).unwrap();
        for err in [
            server.redn_builder(&ctx).err(),
            store.walk_builder(&ctx).err(),
        ] {
            assert!(matches!(err, Some(Error::InvalidWr(_))), "got {err:?}");
        }
        let opts = SessionOpts::default();
        let get =
            Session::connect_get(&mut sim, &mut ctx, &server, c, HashGetVariant::Single, opts);
        assert!(matches!(get.err(), Some(Error::InvalidWr(_))));
    }

    /// Every rejected connect is a typed error that leaves both nodes'
    /// allocations as they were: the checks run before the client
    /// endpoint is created.
    #[test]
    fn rejected_connects_allocate_nothing() {
        let (mut sim, c, s) = rig();
        let server = MemcachedServer::create(&mut sim, s, 1024, 64, ProcessId(0)).unwrap();
        let store = ListStore::create(&mut sim, s, 2, 4, 64, ProcessId(0)).unwrap();
        let narrow = ListStore::create(&mut sim, s, 2, 4, 16, ProcessId(0)).unwrap();
        let mut server_ctx = OffloadCtx::new(&mut sim, s).unwrap();
        let mut client_ctx = OffloadCtx::new(&mut sim, c).unwrap();
        let recycled = SessionOpts::default();
        let host_armed = SessionOpts {
            self_recycling: false,
            ..recycled
        };
        type Connect<'a> = Box<dyn Fn(&mut Simulator, &mut OffloadCtx) -> Result<Session> + 'a>;
        let server = &server;
        let get = |variant| -> Connect<'_> {
            Box::new(move |sim, ctx| Session::connect_get(sim, ctx, server, c, variant, recycled))
        };
        let walk = |store, max_nodes, opts| -> Connect<'_> {
            Box::new(move |sim, ctx| Session::connect_walk(sim, ctx, store, c, max_nodes, opts))
        };
        // (case, context on the client node, connect)
        let cases = [
            (
                "get through a client-node context",
                true,
                get(HashGetVariant::Single),
            ),
            (
                "recycled Parallel get",
                false,
                get(HashGetVariant::Parallel),
            ),
            ("zero-node walk", false, walk(&store, 0, host_armed)),
            ("recycled 16-node walk", false, walk(&store, 16, recycled)),
            (
                "recycled walk payload over the slot",
                false,
                walk(&narrow, 15, recycled),
            ),
        ];
        for (case, on_client, connect) in cases {
            let ctx = if on_client {
                &mut client_ctx
            } else {
                &mut server_ctx
            };
            let before = (sim.mem(c).allocated(), sim.mem(s).allocated());
            let err = connect(&mut sim, ctx).err();
            assert!(
                matches!(err, Some(Error::InvalidWr(_))),
                "{case}: got {err:?}"
            );
            let after = (sim.mem(c).allocated(), sim.mem(s).allocated());
            assert_eq!(after, before, "{case}: (client, server) bytes allocated");
        }
    }

    #[test]
    fn get_session_round_trips_values() {
        let (mut sim, c, s) = rig();
        let server = MemcachedServer::create(&mut sim, s, 1024, 64, ProcessId(0)).unwrap();
        server.populate(&mut sim, 64).unwrap();
        let mut ctx = OffloadCtx::builder(s)
            .pool_capacity(1 << 22)
            .build(&mut sim)
            .unwrap();
        let mut session = Session::connect_get(
            &mut sim,
            &mut ctx,
            &server,
            c,
            HashGetVariant::Sequential,
            SessionOpts::default(),
        )
        .unwrap();
        let keys = [3u64, 17, 42, 60];
        let pending = session.get_burst(&mut sim, &keys).unwrap();
        assert_eq!(pending.len(), 4);
        sim.run().unwrap();
        let done = session.reap(&mut sim, 16);
        assert_eq!(done.len(), 4);
        for c in &done {
            assert!(matches!(c, Completion::Get(_)), "typed as a get");
            let p = pending
                .iter()
                .find(|p| session.response_tag(p.instance) == c.tag())
                .expect("completion matches a posted request");
            let v = session.read_value(&sim, p.instance, 1).unwrap();
            assert_eq!(v[0], (p.key & 0xFF) as u8, "key {} value", p.key);
            session.complete();
        }
        // A walk or a put through a get session is a typed error.
        assert!(session.walk(&mut sim, 0x1000, 1).is_err());
        assert!(matches!(
            session.put(&mut sim, 1, &[0; 8]),
            Err(Error::InvalidWr(_))
        ));
        assert!(session.reap_puts(&mut sim).acks.is_empty());
    }

    /// A burst with one key outside [1, 2⁴⁸) is refused whole: nothing is
    /// staged, posted or taken from the window, for gets, walks and puts.
    #[test]
    fn keys_outside_the_domain_are_refused_before_anything_is_posted() {
        let (mut sim, c, s) = rig();
        let server = MemcachedServer::create(&mut sim, s, 1024, 64, ProcessId(0)).unwrap();
        server.populate(&mut sim, 8).unwrap();
        let store = ListStore::create(&mut sim, s, 2, 2, 64, ProcessId(0)).unwrap();
        let mut ctx = OffloadCtx::new(&mut sim, s).unwrap();
        let opts = SessionOpts::default();
        let variant = HashGetVariant::Sequential;
        let mut gets = Session::connect_get(&mut sim, &mut ctx, &server, c, variant, opts).unwrap();
        let nodes = store.nodes_per_list;
        let pu_base = opts.pu_base + 2;
        let opts = SessionOpts { pu_base, ..opts };
        let mut walks = Session::connect_walk(&mut sim, &mut ctx, &store, c, nodes, opts).unwrap();
        let (head, alias) = (store.head(0), 7 + (1 << 48));
        for bad in [0, alias, u64::MAX] {
            let posted = (
                sim.sq_posted(gets.endpoint().qp),
                sim.sq_posted(walks.endpoint().qp),
            );
            assert!(gets.get_burst(&mut sim, &[5, bad]).is_err(), "get {bad:#x}");
            assert!(
                walks.walk_burst(&mut sim, &[(head, bad)]).is_err(),
                "walk {bad:#x}"
            );
            let after = (
                sim.sq_posted(gets.endpoint().qp),
                sim.sq_posted(walks.endpoint().qp),
            );
            assert_eq!(after, posted, "nothing posted for {bad:#x}");
        }
        for session in [&gets, &walks] {
            let off = session.service();
            assert_eq!(off.instances_available(), u64::from(off.pipeline_depth()));
        }
        let (mut sim, mut puts) = put_rig();
        for bad in [0, alias] {
            assert!(puts.put(&mut sim, bad, &[1; 16]).is_err(), "put {bad:#x}");
        }
        assert_eq!(in_flight(&puts), 0, "a refused put claims no slot");
    }

    /// Run `n` requests one at a time through `post`, reaping each, and
    /// check the client's send CQ: every trigger SEND completed, the CQ
    /// never held more than one window of them, and it never overran.
    fn serve_one_at_a_time(
        sim: &mut Simulator,
        session: &mut Session,
        n: u64,
        mut post: impl FnMut(&mut Simulator, &mut Session, u64) -> Result<u64>,
    ) {
        let depth = session.service().pipeline_depth() as usize;
        for i in 0..n {
            let instance = post(sim, session, i).unwrap();
            sim.run().unwrap();
            let done = session.reap(sim, 4);
            assert_eq!(done.len(), 1, "request {i} answered");
            assert_eq!(done[0].tag(), session.response_tag(instance));
            session.complete();
        }
        let cq = session.endpoint().cq;
        assert_eq!(sim.cq_total(cq), n, "one CQE per trigger SEND");
        assert!(!sim.cq_overrun(cq), "the send CQ overran");
        assert!(sim.poll_cq(cq, usize::MAX).len() <= depth);
    }

    #[test]
    fn get_session_drains_its_send_cq() {
        let (mut sim, c, s) = rig();
        let server = MemcachedServer::create(&mut sim, s, 1024, 64, ProcessId(0)).unwrap();
        server.populate(&mut sim, 64).unwrap();
        let mut ctx = OffloadCtx::new(&mut sim, s).unwrap();
        let opts = SessionOpts::default();
        let variant = HashGetVariant::Sequential;
        let mut session =
            Session::connect_get(&mut sim, &mut ctx, &server, c, variant, opts).unwrap();
        serve_one_at_a_time(&mut sim, &mut session, 3_000, |sim, s, i| {
            s.get(sim, 1 + i % 64).map(|p| p.instance)
        });
    }

    #[test]
    fn walk_session_drains_its_send_cq() {
        let (mut sim, c, s) = rig();
        let store = ListStore::create(&mut sim, s, 4, 6, 64, ProcessId(0)).unwrap();
        let mut ctx = OffloadCtx::new(&mut sim, s).unwrap();
        let (nodes, opts) = (store.nodes_per_list, SessionOpts::default());
        let mut session =
            Session::connect_walk(&mut sim, &mut ctx, &store, c, nodes, opts).unwrap();
        serve_one_at_a_time(&mut sim, &mut session, 3_000, |sim, s, i| {
            let list = i % 4;
            let key = store.key_of(list, (i % 6) as usize);
            s.walk(sim, store.head(list), key).map(|p| p.instance)
        });
    }

    /// A client, a shard primary (serving pid) and a backup node holding
    /// the journal, and a put session of depth 4 into the primary's
    /// replication chain.
    fn put_rig() -> (Simulator, Session) {
        let mut sim = Simulator::new(SimConfig::default());
        let mut node = |name| sim.add_node(name, HostConfig::default(), NicConfig::connectx5());
        let nodes = [node("client"), node("primary"), node("backup")];
        sim.connect_mesh(&nodes, LinkConfig::back_to_back());
        let pid = sim.spawn_process(nodes[1]);
        let mut ctx = OffloadCtx::builder(nodes[1])
            .owner(pid)
            .build(&mut sim)
            .unwrap();
        let journal = ReplicationLog::create(&mut sim, nodes[2], ProcessId(0), 256, 16).unwrap();
        let opts = SessionOpts::default();
        let session =
            Session::connect_put(&mut sim, &mut ctx, nodes[0], &[journal], 0, opts).unwrap();
        (sim, session)
    }

    fn in_flight(session: &Session) -> u64 {
        let off = session.service();
        u64::from(off.pipeline_depth()) - off.instances_available()
    }

    #[test]
    fn in_flight_table_stays_at_pipeline_depth() {
        let (mut sim, mut session) = put_rig();
        let depth = session.service().pipeline_depth() as usize;
        for round in 0..10u8 {
            for key in 1..=depth as u64 {
                session.put(&mut sim, key, &[round; 16]).unwrap();
            }
            assert_eq!(in_flight(&session), depth as u64);
            sim.run().unwrap();
            assert_eq!(session.reap_puts(&mut sim).acks.len(), depth);
            let Bound::Put { pending, .. } = &session.bound else {
                unreachable!("a put session")
            };
            assert_eq!(pending.len(), depth, "one entry per window slot");
            assert!(pending.iter().all(Option::is_none));
        }
        assert_eq!(in_flight(&session), 0);
    }

    #[test]
    fn corrupted_ack_word_resolves_nothing_and_does_not_panic() {
        let (mut sim, mut session) = put_rig();
        for key in 1..=4 {
            session.put(&mut sim, key, &[7; 16]).unwrap();
        }
        sim.run().unwrap();
        // Slot 0's ack word names a sequence far outside the window,
        // slot 1's the (valid) sequence of slot 2's occupant.
        let (client, acks) = (session.endpoint().node, session.endpoint().resp_buf);
        sim.mem_write_u64(client, acks, u64::MAX).unwrap();
        sim.mem_write_u64(client, acks + 8, 3).unwrap();
        let reaped = session.reap_puts(&mut sim);
        let acked: Vec<u64> = reaped.acks.iter().map(|a| a.instance).collect();
        assert_eq!(acked, [2, 3], "only acks matching their slot's put count");
        assert!(reaped.failures.is_empty());
        assert_eq!(
            in_flight(&session),
            2,
            "the two unmatched puts stay in flight"
        );
    }

    #[test]
    fn put_session_serves_no_get_and_over_long_values_are_errors() {
        let (mut sim, mut session) = put_rig();
        assert!(matches!(session.get(&mut sim, 1), Err(Error::InvalidWr(_))));
        assert!(matches!(
            session.walk(&mut sim, 0x1000, 1),
            Err(Error::InvalidWr(_))
        ));
        assert!(matches!(
            session.put(&mut sim, 1, &[0; 17]),
            Err(Error::InvalidWr(_))
        ));
        assert_eq!(in_flight(&session), 0, "a rejected put claims no slot");
        let mut reaped = Vec::new();
        let inst = session.put(&mut sim, 9, &[5; 16]).unwrap();
        sim.run().unwrap();
        session.reap_into(&mut sim, 16, &mut reaped);
        assert!(reaped.is_empty(), "acks are not get/walk completions");
        let acks = session.reap_puts(&mut sim).acks;
        assert_eq!(
            (acks.len(), acks[0].instance, acks[0].seq),
            (1, inst, inst + 1)
        );
        assert_eq!(session.put_value(&mut sim, inst).unwrap(), [5; 16]);
    }

    #[test]
    fn completion_keeps_its_size() {
        // Put results have their own reap output: the get/walk reap's
        // element stays 24 bytes.
        assert_eq!(std::mem::size_of::<Completion>(), 24);
    }

    #[test]
    fn walk_session_round_trips_values_at_depth() {
        let (mut sim, c, s) = rig();
        let store = ListStore::create(&mut sim, s, 4, 6, 64, ProcessId(0)).unwrap();
        let mut ctx = OffloadCtx::builder(s)
            .pool_capacity(1 << 22)
            .build(&mut sim)
            .unwrap();
        let mut session = Session::connect_walk(
            &mut sim,
            &mut ctx,
            &store,
            c,
            store.nodes_per_list,
            SessionOpts::default(),
        )
        .unwrap();
        // One walk per list, at different depths.
        let reqs: Vec<(u64, u64)> = (0..4u64)
            .map(|l| (store.head(l), store.key_of(l, l as usize)))
            .collect();
        let pending = session.walk_burst(&mut sim, &reqs).unwrap();
        sim.run().unwrap();
        let done = session.reap(&mut sim, 16);
        assert_eq!(done.len(), 4, "every walk responds");
        for c in &done {
            assert!(matches!(c, Completion::Walk(_)), "typed as a walk");
            let p = pending
                .iter()
                .find(|p| session.response_tag(p.instance) == c.tag())
                .expect("completion matches a posted walk");
            let v = session.read_value(&sim, p.instance, 1).unwrap();
            assert_eq!(v[0], (p.key & 0xFF) as u8, "key {} value", p.key);
            session.complete();
        }
        // A get through a walk session is a typed error.
        assert!(session.get(&mut sim, 1).is_err());
    }

    #[test]
    fn zero_node_walk_is_a_typed_error_in_both_modes() {
        // `max_nodes(0)` used to pass the builder and die on an assert
        // inside the deploy; a public entry point must return an error.
        let (mut sim, c, s) = rig();
        let store = ListStore::create(&mut sim, s, 2, 4, 64, ProcessId(0)).unwrap();
        let mut ctx = OffloadCtx::builder(s).build(&mut sim).unwrap();
        for self_recycling in [true, false] {
            let opts = SessionOpts {
                self_recycling,
                ..SessionOpts::default()
            };
            let err = Session::connect_walk(&mut sim, &mut ctx, &store, c, 0, opts)
                .err()
                .expect("a zero-node walk must be rejected");
            assert!(format!("{err}").contains("max_nodes"), "got: {err}");
        }
    }

    #[test]
    fn host_armed_walk_session_serves_too() {
        let (mut sim, c, s) = rig();
        let store = ListStore::create(&mut sim, s, 2, 4, 64, ProcessId(0)).unwrap();
        let mut ctx = OffloadCtx::builder(s)
            .pool_capacity(1 << 22)
            .build(&mut sim)
            .unwrap();
        let mut session = Session::connect_walk(
            &mut sim,
            &mut ctx,
            &store,
            c,
            4,
            SessionOpts {
                pipeline_depth: 2,
                self_recycling: false,
                ..SessionOpts::default()
            },
        )
        .unwrap();
        assert!(!session.service().is_recycled());
        let p = session
            .walk(&mut sim, store.head(1), store.key_of(1, 3))
            .unwrap();
        sim.run().unwrap();
        let done = session.reap(&mut sim, 4);
        assert_eq!(done.len(), 1);
        assert_eq!(session.response_tag(p.instance), done[0].tag());
        session.complete();
    }
}
