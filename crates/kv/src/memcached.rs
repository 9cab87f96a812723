//! A Memcached-like server assembled from the substrate pieces (§5.4).
//!
//! The paper modifies Memcached (~700 LoC) to register its cuckoo hash
//! table and storage with the RNIC — "we also modify the buckets, so that
//! the addresses to the values are stored in big endian — to match the
//! format used by the WR attributes" (our simulated WQEs are little-endian
//! throughout, so the translation is the identity; the *registration* is
//! the part that matters). `get` requests can then be served by three
//! interchangeable frontends:
//!
//! * the RedN offload ([`redn_core::offloads::hash_lookup`]) — zero CPU;
//! * the one-sided baseline ([`crate::baselines::OneSidedClient`]);
//! * the two-sided RPC server ([`crate::baselines::TwoSidedServer`]),
//!   optionally through the VMA socket-stack cost model.

use std::cell::RefCell;
use std::rc::Rc;

use redn_core::ctx::{ClientDest, HashGetBuilder, OffloadCtx, TableRegion, ValueSource};
use redn_core::offloads::hash_lookup::{HashGetOffload, HashGetVariant};
use redn_core::program::ConstPool;
use rnic_sim::cq::Cqe;
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;

use crate::baselines::{ClientEndpoint, TwoSidedMode, TwoSidedServer};
use crate::cuckoo::CuckooTable;

/// The Memcached-like store: a cuckoo table plus its registration state.
pub struct MemcachedServer {
    /// Server node.
    pub node: NodeId,
    /// Owning process (crash-test subject; use the init process or a
    /// hull parent for crash-resilient offloads).
    pub owner: ProcessId,
    /// The table (shared with two-sided listeners).
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
        let value_len = self.table.borrow().heap.slot_len as usize;
        for k in 1..=n {
            let v = vec![(k & 0xFF) as u8; value_len];
            if !self.table.borrow_mut().insert(sim, k, &v)? {
                return Err(Error::InvalidWr("table full during populate"));
            }
        }
        Ok(())
    }

    /// A hash-get deployment builder pre-granting this server's table and
    /// value-heap capabilities through `ctx` (which must live on this
    /// server's node). Callers add the per-client pieces — `respond_to`,
    /// `variant`, `pipeline_depth`, `on_pu` — and `build`; the serving
    /// layer uses this to deploy one offload per fleet client.
    pub fn redn_builder(&self, ctx: &OffloadCtx) -> HashGetBuilder {
        assert_eq!(
            ctx.node(),
            self.node,
            "the offload context must live on the server node"
        );
        // The context's owner decides which process's death tears the
        // offload down (§5.6); deploying a non-hull server through a
        // hull-owned context would silently change the crash semantics.
        assert_eq!(
            ctx.owner(),
            self.owner,
            "the offload context's owner must match the server's"
        );
        let (table, values) = {
            let t = self.table.borrow();
            (
                TableRegion::of(&t.mr()),
                ValueSource::of(&t.heap.mr(), t.heap.slot_len),
            )
        };
        ctx.hash_get().table(table).values(values)
    }

    /// Stand up the RedN get offload, deploying through `ctx`. `dest` is
    /// the client-advertised response capability — see
    /// [`ClientEndpoint::dest`].
    pub fn redn_frontend(
        &self,
        sim: &mut Simulator,
        ctx: &OffloadCtx,
        dest: ClientDest,
        variant: HashGetVariant,
    ) -> Result<HashGetOffload> {
        self.redn_builder(ctx)
            .respond_to(dest)
            .variant(variant)
            .build(sim)
    }

    /// Stand up the two-sided RPC frontend.
    pub fn two_sided_frontend(
        &self,
        sim: &mut Simulator,
        mode: TwoSidedMode,
    ) -> Result<TwoSidedServer> {
        TwoSidedServer::install(sim, self.node, self.table.clone(), mode, self.owner)
    }

    /// Candidate bucket addresses for `key` (clients hash locally).
    pub fn candidate_addrs(&self, key: u64) -> [u64; 2] {
        self.table.borrow().candidate_addrs(key)
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

/// A reaped pipelined-get completion (returned by
/// [`Session::reap`](crate::session::Session::reap)).
#[derive(Clone, Copy, Debug)]
pub struct ReapedGet {
    /// The completed instance (from the response's immediate data).
    pub instance: u64,
    /// Simulated completion time.
    pub at: Time,
}

/// Batched non-blocking RedN gets (the engine behind
/// [`Session::get_burst`](crate::session::Session::get_burst) and the
/// deprecated free-function shims): stage every request's payload and
/// trigger SEND through [`ClientEndpoint::post_trigger_burst`], which
/// rings **one** doorbell for the whole burst — a closed-loop generator
/// refilling a K-deep window pays one MMIO per tick instead of K — and
/// validates the burst against the offload's available instances
/// *before* anything is staged. Handles are appended to `out`.
pub(crate) fn post_get_burst(
    sim: &mut Simulator,
    off: &mut HashGetOffload,
    ep: &ClientEndpoint,
    table: &Rc<RefCell<CuckooTable>>,
    keys: &[u64],
    out: &mut Vec<PendingGet>,
) -> Result<()> {
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
            let cands = table.borrow().candidate_addrs(key);
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

/// Reap up to `max` response completions from `ep`'s receive CQ,
/// keeping the endpoint's RECV accounting in step: drains them through
/// the caller's scratch `cqes` buffer and appends typed reaps to `out`.
/// Does not step the simulator (the engine behind
/// [`Session::reap_into`](crate::session::Session::reap_into)).
/// Long-lived clients (sessions, fleet generators) reuse one pair of
/// buffers across every reap instead of allocating two `Vec`s per poll.
/// Returns how many completions were reaped.
pub(crate) fn reap_gets_into(
    sim: &mut Simulator,
    ep: &ClientEndpoint,
    max: usize,
    cqes: &mut Vec<Cqe>,
    out: &mut Vec<ReapedGet>,
) -> usize {
    cqes.clear();
    let reaped = sim.poll_cq_into(ep.recv_cq, max, cqes);
    for cqe in cqes.iter() {
        ep.note_response_reaped();
        out.push(ReapedGet {
            instance: cqe.imm.unwrap_or(0) as u64,
            at: cqe.time,
        });
    }
    reaped
}

/// Synchronous RedN get: arms one instance, triggers it, waits for the
/// response WRITE_IMM. Returns `(latency, found)`.
///
/// A missed key produces no response at all (the CAS fails and the
/// response WQE stays a NOOP), so the wait is bounded; the RECV posted
/// for the missing response is *kept* and reused by the next get rather
/// than leaked — repeated misses no longer accumulate stale RECVs until
/// the RQ runs into RNR.
pub fn redn_get(
    sim: &mut Simulator,
    off: &mut HashGetOffload,
    pool: &mut ConstPool,
    ep: &ClientEndpoint,
    server: &MemcachedServer,
    key: u64,
) -> Result<(Time, bool)> {
    off.arm(sim, pool)?;
    let start = sim.now();
    post_get_burst(sim, off, ep, &server.table, &[key], &mut Vec::new())?;
    let deadline = sim.now() + Time::from_us(200);
    let (mut cqes, mut reaped) = (Vec::new(), Vec::new());
    loop {
        // A single get is outstanding, so any completion is ours.
        reap_gets_into(sim, ep, 1, &mut cqes, &mut reaped);
        if !reaped.is_empty() {
            return Ok((sim.now() - start, true));
        }
        if sim.now() > deadline || !sim.step()? {
            ep.note_request_abandoned();
            return Ok((sim.now() - start, false));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};

    fn setup() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(SimConfig::default());
        let c = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
        let s = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        sim.connect_nodes(c, s, LinkConfig::back_to_back());
        (sim, c, s)
    }

    #[test]
    fn redn_get_through_memcached() {
        let (mut sim, c, s) = setup();
        let server = MemcachedServer::create(&mut sim, s, 1024, 64, ProcessId(0)).unwrap();
        server.populate(&mut sim, 100).unwrap();
        let ep = ClientEndpoint::create(&mut sim, c, 64).unwrap();
        let mut ctx = OffloadCtx::new(&mut sim, s).unwrap();
        let mut off = server
            .redn_frontend(&mut sim, &ctx, ep.dest(), HashGetVariant::Parallel)
            .unwrap();
        sim.connect_qps(ep.qp, off.tp.qp).unwrap();

        for key in [1u64, 50, 100] {
            let (lat, found) =
                redn_get(&mut sim, &mut off, ctx.pool_mut(), &ep, &server, key).unwrap();
            assert!(found, "key {key}");
            assert_eq!(
                sim.mem_read(c, ep.resp_buf, 1).unwrap()[0],
                (key & 0xFF) as u8
            );
            let us = lat.as_us_f64();
            assert!(us > 2.0 && us < 15.0, "redn get {us}");
        }
        // Miss: no response.
        let (_, found) = redn_get(&mut sim, &mut off, ctx.pool_mut(), &ep, &server, 9999).unwrap();
        assert!(!found);
    }

    #[test]
    fn missed_gets_reuse_the_outstanding_recv() {
        // Regression: the miss path used to return without consuming the
        // posted RECV, yet the next get posted another one — every miss
        // leaked a RECV until the RQ filled into RNR. Misses now strand
        // exactly one RECV, which the next get reuses.
        let (mut sim, c, s) = setup();
        let server = MemcachedServer::create(&mut sim, s, 1024, 64, ProcessId(0)).unwrap();
        server.populate(&mut sim, 10).unwrap();
        let ep = ClientEndpoint::create(&mut sim, c, 64).unwrap();
        let mut ctx = OffloadCtx::new(&mut sim, s).unwrap();
        let mut off = server
            .redn_frontend(&mut sim, &ctx, ep.dest(), HashGetVariant::Parallel)
            .unwrap();
        sim.connect_qps(ep.qp, off.tp.qp).unwrap();

        let before = sim.rq_posted(ep.qp);
        for _ in 0..5 {
            let (_, found) =
                redn_get(&mut sim, &mut off, ctx.pool_mut(), &ep, &server, 9999).unwrap();
            assert!(!found);
        }
        assert_eq!(
            sim.rq_posted(ep.qp) - before,
            1,
            "misses 2..5 must reuse the RECV stranded by miss 1"
        );
        assert_eq!(ep.outstanding_recvs(), 1);
        assert_eq!(ep.live_requests(), 0);

        // A hit consumes the recycled RECV and still completes.
        let (_, found) = redn_get(&mut sim, &mut off, ctx.pool_mut(), &ep, &server, 5).unwrap();
        assert!(found);
        assert_eq!(sim.rq_posted(ep.qp) - before, 1);
        assert_eq!(ep.outstanding_recvs(), 0);
    }

    #[test]
    fn redn_beats_two_sided_vma_on_latency() {
        // The Fig 14 headline: RedN < one/two-sided for Memcached gets.
        let (mut sim, c, s) = setup();
        let server = MemcachedServer::create(&mut sim, s, 1024, 64, ProcessId(0)).unwrap();
        server.populate(&mut sim, 64).unwrap();
        sim.set_runnable_threads(s, 1);

        let ep = ClientEndpoint::create(&mut sim, c, 64).unwrap();
        let mut ctx = OffloadCtx::new(&mut sim, s).unwrap();
        let mut off = server
            .redn_frontend(&mut sim, &ctx, ep.dest(), HashGetVariant::Parallel)
            .unwrap();
        sim.connect_qps(ep.qp, off.tp.qp).unwrap();
        let (redn_lat, found) =
            redn_get(&mut sim, &mut off, ctx.pool_mut(), &ep, &server, 7).unwrap();
        assert!(found);

        let vma = server
            .two_sided_frontend(&mut sim, TwoSidedMode::Vma)
            .unwrap();
        let ep2 = ClientEndpoint::create(&mut sim, c, 64).unwrap();
        sim.connect_qps(ep2.qp, vma.qp).unwrap();
        let (vma_lat, found) = crate::baselines::two_sided_get(&mut sim, &ep2, 7).unwrap();
        assert!(found);

        assert!(
            redn_lat < vma_lat,
            "RedN {redn_lat:?} must beat two-sided VMA {vma_lat:?}"
        );
    }
}
