//! A Memcached-like server assembled from the substrate pieces (§5.4).
//!
//! The paper modifies Memcached (~700 LoC) to register its cuckoo hash
//! table and storage with the RNIC — "we also modify the buckets, so that
//! the addresses to the values are stored in big endian — to match the
//! format used by the WR attributes" (our simulated WQEs are little-endian
//! throughout, so the translation is the identity; the *registration* is
//! the part that matters). `get` requests are then served by the RedN
//! offload ([`redn_core::offloads::hash_lookup`]) with zero server CPU.
//!
//! The paper's baselines over the same store — one-sided READs and the
//! two-sided RPC server, optionally through the VMA socket-stack cost
//! model — are experiment rigs, not frontends a deployment needs; they
//! live in `redn_bench::baselines`.

use std::cell::RefCell;
use std::rc::Rc;

use redn_core::ctx::{HashGet, OffloadBuilder, OffloadCtx, TableRegion, ValueSource};
use redn_core::offloads::hash_lookup::HashGetOffload;
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;

use crate::cuckoo::{CuckooTable, TableGeometry};
use crate::endpoint::ClientEndpoint;
use crate::store::check_key;

/// The Memcached-like store: a cuckoo table plus its registration state.
pub struct MemcachedServer {
    /// Server node.
    pub node: NodeId,
    /// Owning process (crash-test subject; use the init process or a
    /// hull parent for crash-resilient offloads).
    pub owner: ProcessId,
    /// The table (shared with host-side listeners such as the two-sided
    /// baseline).
    pub table: Rc<RefCell<CuckooTable>>,
}

impl MemcachedServer {
    /// Create the store with `nbuckets` buckets of `value_len` values.
    pub fn create(
        sim: &mut Simulator,
        node: NodeId,
        nbuckets: u64,
        value_len: u32,
        owner: ProcessId,
    ) -> Result<MemcachedServer> {
        let table = CuckooTable::create(sim, node, nbuckets, value_len, owner)?;
        Ok(MemcachedServer {
            node,
            owner,
            table: Rc::new(RefCell::new(table)),
        })
    }

    /// Insert keys `1..=n` with values tagged by key (population step all
    /// experiments share).
    pub fn populate(&self, sim: &mut Simulator, n: u64) -> Result<()> {
        let mut table = self.table.borrow_mut();
        let mut v = vec![0; table.heap.slot_len as usize];
        for k in 1..=n {
            v.fill((k & 0xFF) as u8);
            if !table.insert(sim, k, &v)? {
                return Err(Error::InvalidWr("table full during populate"));
            }
        }
        Ok(())
    }

    /// A hash-get deployment builder pre-granting this server's table and
    /// value-heap capabilities through `ctx` (which must live on this
    /// server's node, with this server's owner: `Error::InvalidWr`
    /// otherwise). [`Session::connect_get`] adds the per-client pieces —
    /// `respond_to`, `variant`, `pipeline_depth`, `on_pu` — and builds.
    ///
    /// [`Session::connect_get`]: crate::session::Session::connect_get
    pub(crate) fn redn_builder(&self, ctx: &OffloadCtx) -> Result<OffloadBuilder<HashGet>> {
        if ctx.node() != self.node {
            return Err(Error::InvalidWr(
                "the offload context must live on the server node",
            ));
        }
        // The context's owner decides which process's death tears the
        // offload down (§5.6); deploying a non-hull server through a
        // hull-owned context would silently change the crash semantics.
        if ctx.owner() != self.owner {
            return Err(Error::InvalidWr(
                "the offload context's owner must match the server's",
            ));
        }
        let (table, values) = {
            let t = self.table.borrow();
            (
                TableRegion::of(&t.mr()),
                ValueSource::of(&t.heap.mr(), t.heap.slot_len),
            )
        };
        Ok(ctx.hash_get().table(table).values(values))
    }
}

/// A posted, not-yet-reaped pipelined get (returned by
/// [`Session::get`](crate::session::Session::get) and
/// [`Session::get_burst`](crate::session::Session::get_burst)).
#[derive(Clone, Copy, Debug)]
pub struct PendingGet {
    /// Offload instance this request consumed; the response CQE carries
    /// it as immediate data, and `instance % pipeline_depth` names the
    /// client slot the value lands in.
    pub instance: u64,
    /// The requested key.
    pub key: u64,
    /// Client-side request/response slot index.
    pub slot: u64,
    /// When the request was handed to the NIC (for latency accounting;
    /// open-loop generators may backdate this to the scheduled time).
    pub posted_at: Time,
}

/// Batched non-blocking RedN gets (the engine behind
/// [`Session::get_burst`](crate::session::Session::get_burst)): stage
/// every request's payload and trigger SEND through
/// [`ClientEndpoint::post_trigger_burst`], which rings **one** doorbell
/// for the whole burst — a closed-loop generator refilling a K-deep
/// window pays one MMIO per tick instead of K — and validates the burst
/// against the offload's available instances *before* anything is
/// staged. Handles are appended to `out`. `table` locates each key's
/// candidate buckets.
pub(crate) fn post_get_burst(
    sim: &mut Simulator,
    off: &mut HashGetOffload,
    ep: &ClientEndpoint,
    table: TableGeometry,
    keys: &[u64],
    out: &mut Vec<PendingGet>,
) -> Result<()> {
    keys.iter().try_for_each(|&key| check_key(key))?;
    let depth = off.pipeline_depth();
    ep.post_trigger_burst(
        sim,
        depth,
        off.instances_available(),
        keys.len(),
        out,
        |sim, i| {
            let key = keys[i];
            let instance = off.take_instance()?;
            let cands = table.candidate_addrs(key);
            let n = off.variant().buckets();
            let slot = ep.stage_trigger(sim, instance, depth, |p| {
                off.client_payload_into(key, &cands[..n], p)
            })?;
            Ok(PendingGet {
                instance,
                key,
                slot,
                posted_at: sim.now(),
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Session, SessionOpts};
    use redn_core::offloads::hash_lookup::{encode_bucket, HashGetVariant};
    use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};

    /// A blocking (depth-1, host-armed) Parallel get session on a server
    /// holding keys `1..=keys`.
    fn blocking_rig(keys: u64) -> (Simulator, OffloadCtx, MemcachedServer, Session) {
        let mut sim = Simulator::new(SimConfig::default());
        let c = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
        let s = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        sim.connect_nodes(c, s, LinkConfig::back_to_back());
        let server = MemcachedServer::create(&mut sim, s, 1024, 64, ProcessId(0)).unwrap();
        server.populate(&mut sim, keys).unwrap();
        let mut ctx = OffloadCtx::new(&mut sim, s).unwrap();
        let (variant, opts) = (HashGetVariant::Parallel, SessionOpts::blocking());
        let session = Session::connect_get(&mut sim, &mut ctx, &server, c, variant, opts).unwrap();
        (sim, ctx, server, session)
    }

    #[test]
    fn blocking_gets_through_memcached() {
        let (mut sim, mut ctx, _, mut session) = blocking_rig(100);
        let (c, resp) = (session.endpoint().node, session.endpoint().resp_buf);
        for key in [1u64, 50, 100] {
            let (lat, found) = session.get_blocking(&mut sim, ctx.pool_mut(), key).unwrap();
            assert!(found, "key {key}");
            assert_eq!(sim.mem_read(c, resp, 1).unwrap()[0], (key & 0xFF) as u8);
            let us = lat.as_us_f64();
            assert!(us > 2.0 && us < 15.0, "blocking get {us}");
        }
        // Miss: no response.
        let (_, found) = session
            .get_blocking(&mut sim, ctx.pool_mut(), 9999)
            .unwrap();
        assert!(!found);
    }

    #[test]
    fn a_get_outside_the_key_domain_is_an_error_not_a_hit() {
        let (mut sim, mut ctx, _, mut session) = blocking_rig(32);
        let qp = session.endpoint().qp;
        let posted = sim.sq_posted(qp);
        for key in [7 + (1 << 48), 7 | (1 << 63), 9 + 5 * (1 << 48)] {
            let got = session.get_blocking(&mut sim, ctx.pool_mut(), key);
            assert!(got.is_err(), "key {key:#x}: {got:?}");
        }
        assert_eq!(sim.sq_posted(qp), posted, "nothing was posted");
        let (_, found) = session.get_blocking(&mut sim, ctx.pool_mut(), 7).unwrap();
        assert!(found, "key 7 itself still hits");
    }

    #[test]
    fn sync_gets_drain_the_send_cq() {
        // More gets than the endpoint's send CQ has entries: each get
        // drains the trigger SEND CQEs before it posts.
        let (mut sim, mut ctx, _, mut session) = blocking_rig(100);
        for k in 0..1_100u64 {
            let key = 1 + k % 100;
            let (_, found) = session.get_blocking(&mut sim, ctx.pool_mut(), key).unwrap();
            assert!(found, "key {key}");
        }
        let cq = session.endpoint().cq;
        assert_eq!(sim.cq_total(cq), 1_100);
        assert!(!sim.cq_overrun(cq), "the send CQ overran");
    }

    #[test]
    fn missed_gets_reuse_the_outstanding_recv() {
        // A missed key never responds, so its RECV is stranded: misses
        // 2..5 reuse the one miss 1 stranded instead of each leaking one
        // until the RQ runs into RNR, and the next hit consumes it.
        let (mut sim, mut ctx, _, mut session) = blocking_rig(10);
        let qp = session.endpoint().qp;
        let before = sim.rq_posted(qp);
        for _ in 0..5 {
            let (_, found) = session
                .get_blocking(&mut sim, ctx.pool_mut(), 9999)
                .unwrap();
            assert!(!found);
        }
        assert_eq!(sim.rq_posted(qp) - before, 1, "one RECV for five misses");
        assert_eq!(session.endpoint().outstanding_recvs(), 1);
        assert_eq!(session.endpoint().live_requests(), 0);
        let (_, found) = session.get_blocking(&mut sim, ctx.pool_mut(), 5).unwrap();
        assert!(found, "a hit after the misses still completes");
        assert_eq!(sim.rq_posted(qp) - before, 1);
        assert_eq!(session.endpoint().outstanding_recvs(), 0);
    }

    /// A table holding two buckets for key 7 answers one get of 7 twice.
    /// The second response is a stray: it answers no later get — an
    /// absent key still misses — and the RECV it took is replaced, so a
    /// present key still hits.
    #[test]
    fn a_stray_response_answers_no_later_get() {
        let (mut sim, mut ctx, server, mut session) = blocking_rig(100);
        let (addrs, held, value) = {
            let t = server.table.borrow();
            let held = t.holding_candidate(&sim, 7).unwrap().unwrap();
            let value = t.lookup(&sim, 7).unwrap().unwrap();
            (t.geometry().candidate_addrs(7), held, value)
        };
        let twin = encode_bucket(value, 7);
        sim.mem_write(server.node, addrs[1 - held], &twin).unwrap();
        for (key, hit) in [(7, true), (9999, false), (5, true)] {
            let (_, found) = session.get_blocking(&mut sim, ctx.pool_mut(), key).unwrap();
            assert_eq!(found, hit, "key {key}");
        }
        let ep = session.endpoint();
        assert_eq!(sim.cq_total(ep.recv_cq), 3, "7 answered twice, 5 once");
        assert_eq!((ep.live_requests(), ep.outstanding_recvs()), (0, 0));
    }
}
