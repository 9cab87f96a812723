//! Typed client sessions over deployed [`OffloadService`]s.
//!
//! A [`Session`] is one client's connection to one serving offload: a
//! pipelined [`ClientEndpoint`] (slotted request/response buffers sized
//! to the service's pipeline depth) bound to the deployed service whose
//! responses land in it. It replaced the loose free-function client API
//! (`redn_get_nb` / `redn_get_burst` / `redn_reap` — deprecated for one
//! release, since removed) with typed operations:
//!
//! * [`Session::get`] / [`Session::get_burst`] — hash-table lookups
//!   (§3.4), returning [`PendingGet`] handles;
//! * [`Session::walk`] / [`Session::walk_burst`] — linked-list
//!   traversals (§3.3), returning [`PendingWalk`] handles;
//! * [`Session::reap`] — drains response completions as a typed
//!   [`Completion`] enum, so heterogeneous callers (the mixed
//!   [`ServingFleet`](crate::serving::ServingFleet)) can tell service
//!   families apart without re-deriving them from context.
//!
//! Posting through the wrong session kind is an error, not a silent
//! misroute: `session.walk(...)` on a get session fails before anything
//! touches the wire.

use std::cell::RefCell;
use std::rc::Rc;

use redn_core::ctx::OffloadCtx;
use redn_core::offloads::hash_lookup::{HashGetOffload, HashGetVariant};
use redn_core::offloads::list::{self, ListWalkOffload};
use redn_core::offloads::service::OffloadService;
use rnic_sim::cq::Cqe;
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::NodeId;
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;

use crate::cuckoo::CuckooTable;
use crate::endpoint::ClientEndpoint;
use crate::liststore::ListStore;
use crate::memcached::{post_get_burst, reap_gets_into, MemcachedServer, PendingGet, ReapedGet};

/// Deployment knobs shared by both session kinds (what the fleet varies
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

/// A reaped list-walk completion.
#[derive(Clone, Copy, Debug)]
pub struct ReapedWalk {
    /// The completed instance's response tag (from the immediate).
    pub instance: u64,
    /// Simulated completion time.
    pub at: Time,
}

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
            Completion::Get(g) => g.instance,
            Completion::Walk(w) => w.instance,
        }
    }

    /// Simulated completion time.
    pub fn at(&self) -> Time {
        match self {
            Completion::Get(g) => g.at,
            Completion::Walk(w) => w.at,
        }
    }
}

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
    /// The recv CQ's monotonic CQE count at the last poll that emptied
    /// it: while the count stands there, the CQ holds nothing.
    cq_seen: u64,
}

impl Session {
    /// Deploy a hash-get service against `server` through `ctx` and
    /// connect a freshly created pipelined endpoint on `client_node` to
    /// it. Host-armed services are primed to a full pipeline.
    pub fn connect_get(
        sim: &mut Simulator,
        ctx: &mut OffloadCtx,
        server: &MemcachedServer,
        client_node: NodeId,
        variant: HashGetVariant,
        opts: SessionOpts,
    ) -> Result<Session> {
        let value_len = server.table.borrow().heap.slot_len;
        let ep =
            ClientEndpoint::create_pipelined(sim, client_node, value_len, opts.pipeline_depth)?;
        let builder = server
            .redn_builder(ctx)
            .respond_to(ep.dest())
            .variant(variant)
            .pipeline_depth(opts.pipeline_depth)
            .on_port(opts.port)
            .on_pu(opts.pu_base);
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
    pub fn connect_walk(
        sim: &mut Simulator,
        ctx: &mut OffloadCtx,
        store: &ListStore,
        client_node: NodeId,
        max_nodes: usize,
        opts: SessionOpts,
    ) -> Result<Session> {
        let ep = ClientEndpoint::create_pipelined(
            sim,
            client_node,
            store.value_len,
            opts.pipeline_depth,
        )?;
        // The recycled walk's payload repeats the key per iteration; it
        // must fit the endpoint's request slot. Checked before anything
        // deploys, so the error path leaks no queues or pool bytes.
        let payload_len = list::client_payload_len(max_nodes, opts.self_recycling) as u64;
        if payload_len > ep.req_slot_len() {
            return Err(Error::InvalidWr(
                "walk payload exceeds the endpoint's request slot",
            ));
        }
        let builder = store
            .walk_builder(ctx)
            .respond_to(ep.dest())
            .max_nodes(max_nodes)
            .pipeline_depth(opts.pipeline_depth)
            .on_port(opts.port)
            .on_pu(opts.pu_base);
        let off = if opts.self_recycling {
            builder.build_recycled(sim, ctx.pool_mut())?
        } else {
            builder.build(sim)?
        };
        Session::bind(sim, ctx, ep, Bound::Walk { off })
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
        }
    }

    /// Mutable access to the bound service.
    pub fn service_mut(&mut self) -> &mut dyn OffloadService {
        match &mut self.bound {
            Bound::Get { off, .. } => off,
            Bound::Walk { off } => off,
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

    /// Optimized WQEs per request of the bound recycled service.
    pub fn verbs_per_op(&self) -> Option<f64> {
        self.service().verbs_per_op()
    }

    /// Post one lookup (a one-element [`Session::get_burst`]).
    pub fn get(&mut self, sim: &mut Simulator, key: u64) -> Result<PendingGet> {
        let mut burst = self.get_burst(sim, &[key])?;
        Ok(burst.pop().expect("one request posted"))
    }

    /// Post a burst of lookups under one doorbell. Errors on a walk
    /// session, or when the burst exceeds the available instances.
    pub fn get_burst(&mut self, sim: &mut Simulator, keys: &[u64]) -> Result<Vec<PendingGet>> {
        let mut out = Vec::with_capacity(keys.len());
        self.get_burst_into(sim, keys, &mut out).map(|()| out)
    }

    /// Allocation-free [`Session::get_burst`]: appends the handles to
    /// `out`, so a generator reuses one buffer across every tick.
    pub fn get_burst_into(
        &mut self,
        sim: &mut Simulator,
        keys: &[u64],
        out: &mut Vec<PendingGet>,
    ) -> Result<()> {
        let Bound::Get { off, table } = &mut self.bound else {
            return Err(Error::InvalidWr(
                "session is bound to a list-walk service; use walk()/walk_burst()",
            ));
        };
        post_get_burst(sim, off, &self.ep, table, keys, out)
    }

    /// Post one traversal (a one-element [`Session::walk_burst`]).
    pub fn walk(&mut self, sim: &mut Simulator, head: u64, key: u64) -> Result<PendingWalk> {
        let mut burst = self.walk_burst(sim, &[(head, key)])?;
        Ok(burst.pop().expect("one request posted"))
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
    pub fn walk_burst_into(
        &mut self,
        sim: &mut Simulator,
        reqs: &[(u64, u64)],
        out: &mut Vec<PendingWalk>,
    ) -> Result<()> {
        let Bound::Walk { off } = &mut self.bound else {
            return Err(Error::InvalidWr(
                "session is bound to a hash-get service; use get()/get_burst()",
            ));
        };
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
    /// placed.
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
        self.reap_buf.clear();
        let reaped = reap_gets_into(sim, &self.ep, max, &mut self.cqe_buf, &mut self.reap_buf);
        // A poll that came back full may have left CQEs behind.
        if reaped < max {
            self.cq_seen = total;
        }
        match self.bound {
            Bound::Get { .. } => out.extend(self.reap_buf.drain(..).map(Completion::Get)),
            Bound::Walk { .. } => out.extend(self.reap_buf.drain(..).map(|g| {
                Completion::Walk(ReapedWalk {
                    instance: g.instance,
                    at: g.at,
                })
            })),
        }
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
        // A walk through a get session is a typed error.
        assert!(session.walk(&mut sim, 0x1000, 1).is_err());
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
