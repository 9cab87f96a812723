//! Typed client sessions against a deployed [`Cluster`]: per-shard get
//! sessions reusing the [`redn_kv`] `Session` API, and a
//! [`PutSession`] per shard driving the NIC-resident replication chain.
//!
//! Routing is client-side ([`ShardRouter`]); failure surfaces as typed
//! values, never hangs — a dead primary yields
//! [`CqeStatus::RnrError`] completions (dead-QP timeout) on the put
//! path and drained-simulator timeouts on the get path.
//!
//! [`ShardRouter`]: crate::router::ShardRouter
//! [`CqeStatus::RnrError`]: rnic_sim::cq::CqeStatus::RnrError

use crate::cluster::Cluster;
use redn_core::ctx::ClientDest;
use redn_core::ir::analysis::{AnalysisReport, DeploymentVerifier};
use redn_core::ir::DeployOpts;
use redn_core::offloads::hash_lookup::HashGetVariant;
use redn_core::offloads::replicate::{
    encode_record, ReplicationBuilder, ReplicationLog, ReplicationOffload,
};
use redn_kv::cuckoo::CuckooTable;
use redn_kv::session::{Completion, Session, SessionOpts};
use rnic_sim::cq::{Cqe, CqeStatus};
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{CqId, NodeId, ProcessId, QpId};
use rnic_sim::mem::{Access, MemoryRegion};
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;
use rnic_sim::wqe::WorkRequest;
use std::cell::RefCell;
use std::rc::Rc;

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

/// Everything one reap pass drained from a put session's CQs.
#[derive(Clone, Debug, Default)]
pub struct PutReap {
    /// Acked writes.
    pub acks: Vec<PutAck>,
    /// Failed writes (typed errors — the §5.6 "no hangs" guarantee).
    pub failures: Vec<PutFailure>,
}

/// CQEs one [`PutSession::reap`] takes from each of its CQs at most.
const POLL_BATCH: usize = 64;

/// One unresolved PUT occupying a window slot.
#[derive(Clone, Copy, Debug)]
struct PendingPut {
    instance: u64,
    key: u64,
    /// Index of its SEND on the session's QP — what a send-side error
    /// CQE names.
    wqe_index: u64,
}

/// One client's write path to one shard: a window of in-flight PUTs
/// into that shard's NIC-resident replication chain.
///
/// Durability and the ack are NIC-only (the chain); **applying** an
/// acked record to the shard's read index (the cuckoo table) happens
/// host-side when the ack is reaped — the state-machine apply of chain
/// replication, analogous to Memcached's CPU-managed inserts. It costs
/// no doorbells, posts or arm calls, so the replication path's
/// zero-host-work property is untouched.
pub struct PutSession {
    repl: ReplicationOffload,
    table: Rc<RefCell<CuckooTable>>,
    qp: QpId,
    send_cq: CqId,
    recv_cq: CqId,
    req: MemoryRegion,
    ack: MemoryRegion,
    client: NodeId,
    /// Unresolved PUTs by window slot — `pipeline_depth` entries, however
    /// many puts the session has carried. An ack names its slot in the
    /// CQE immediate and must carry the sequence number this table holds
    /// for that slot; anything else (a corrupted ack word, a late ack for
    /// a superseded occupant) resolves nothing.
    pending: Vec<Option<PendingPut>>,
    /// Scratch reused across reaps: the polled CQEs and the acked value
    /// being applied, so an idle reap allocates nothing.
    cqe_buf: Vec<Cqe>,
    value_buf: Vec<u8>,
    /// Sum of the two CQs' monotonic CQE counts at the last reap that
    /// emptied both: while it stands, neither holds anything.
    cq_seen: u64,
}

impl PutSession {
    /// Deploy a replication chain on the shard stack at
    /// `cluster.shards[stack]` forwarding to `journals`, and connect a
    /// fresh client window from the cluster's client node. `start_slot`
    /// continues an existing journal (post-failover rebuilds).
    pub fn connect(
        sim: &mut Simulator,
        cluster: &mut Cluster,
        stack: usize,
        journals: &[ReplicationLog],
        start_slot: u64,
    ) -> Result<PutSession> {
        let depth = cluster.spec.put_depth;
        let value_len = cluster.spec.value_len;
        let client = cluster.client;
        let rec_len = redn_core::offloads::replicate::record_len(value_len) as u64;

        let req_addr = sim.alloc(client, depth as u64 * rec_len, 64)?;
        let req = sim.register_mr_owned(
            client,
            req_addr,
            depth as u64 * rec_len,
            Access::all(),
            ProcessId(0),
        )?;
        let ack_addr = sim.alloc(client, depth as u64 * 8, 8)?;
        let ack = sim.register_mr_owned(
            client,
            ack_addr,
            depth as u64 * 8,
            Access::all(),
            ProcessId(0),
        )?;

        let shard = &mut cluster.shards[stack];
        let table = shard.server.table.clone();
        let mut b = ReplicationBuilder::new(shard.node, shard.pid)
            .value_len(value_len)
            .pipeline_depth(depth)
            .start_slot(start_slot)
            .ack_to(ClientDest::of(&ack));
        for j in journals {
            b = b.forward_to(j);
        }
        let repl = b.build_recycled(sim, shard.ctx.pool_mut(), DeployOpts::default())?;

        let ccq = sim.create_cq(client, 256)?;
        let rcq = sim.create_cq(client, 256)?;
        let qp = sim.create_qp_owned(
            client,
            QpConfig::new(ccq)
                .recv_cq(rcq)
                .sq_depth(256)
                .rq_depth(depth),
            ProcessId(0),
        )?;
        sim.connect_qps(qp, repl.tp.qp)?;
        for _ in 0..depth {
            sim.post_recv(qp, WorkRequest::recv(0, 0, 0))?;
        }
        sim.set_rq_cyclic(qp)?;

        Ok(PutSession {
            repl,
            table,
            qp,
            send_cq: ccq,
            recv_cq: rcq,
            req,
            ack,
            client,
            pending: vec![None; depth as usize],
            cqe_buf: Vec::new(),
            value_buf: Vec::new(),
            cq_seen: 0,
        })
    }

    /// The chain this session drives.
    pub fn offload(&self) -> &ReplicationOffload {
        &self.repl
    }

    /// Post one PUT. Claims a window slot (errors when the window is
    /// full), stamps `seq = instance + 1`, and SENDs the record. Returns
    /// the claimed instance.
    pub fn put(&mut self, sim: &mut Simulator, key: u64, value: &[u8]) -> Result<u64> {
        let inst = self.repl.take_instance()?;
        let slot = u64::from(self.repl.response_tag(inst)?);
        let rec = encode_record(inst + 1, key, value, self.repl.value_len());
        let rec_len = self.repl.record_len();
        let addr = self.req.addr + slot * rec_len as u64;
        sim.mem_write(self.client, addr, &rec)?;
        let wqe_index = sim.post_send(
            self.qp,
            WorkRequest::send(addr, self.req.lkey, rec_len).signaled(),
        )?;
        self.pending[slot as usize] = Some(PendingPut {
            instance: inst,
            key,
            wqe_index,
        });
        Ok(inst)
    }

    /// Window slots currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.repl.pipeline_depth() as u64 - self.repl.instances_available()
    }

    /// Drain both CQs: acks from the recv side, typed failures from the
    /// send side. Does not step the simulator. Everything the NIC wrote
    /// (the immediate, the ack word, the request slot) is validated
    /// against the session's own table; a mismatch skips the CQE or
    /// fails the put, never panics. An idle reap — no CQE pushed to
    /// either CQ since a reap emptied both — is one compare, inlined
    /// into the caller's loop.
    #[inline]
    pub fn reap(&mut self, sim: &mut Simulator) -> PutReap {
        let total = sim.cq_total(self.recv_cq) + sim.cq_total(self.send_cq);
        if total == self.cq_seen {
            return PutReap::default();
        }
        self.drain(sim, total)
    }

    /// The polls behind [`PutSession::reap`], `total` being the two CQs'
    /// CQE counts now.
    fn drain(&mut self, sim: &mut Simulator, total: u64) -> PutReap {
        let mut out = PutReap::default();
        let mut cqes = std::mem::take(&mut self.cqe_buf);
        cqes.clear();
        let acked = sim.poll_cq_into(self.recv_cq, POLL_BATCH, &mut cqes);
        if acked > 0 {
            for cqe in cqes.drain(..) {
                if cqe.status != CqeStatus::Success {
                    continue;
                }
                let Some(slot) = cqe.imm.map(u64::from) else {
                    continue;
                };
                // The ack slot holds the acked seq; instance = seq - 1.
                let seq = sim
                    .mem_read_u64(self.client, self.ack.addr + slot * 8)
                    .unwrap_or(0);
                let Some(put) = self
                    .pending
                    .get_mut(slot as usize)
                    .and_then(|p| p.take_if(|p| p.instance.checked_add(1) == Some(seq)))
                else {
                    continue;
                };
                // State-machine apply: the acked record (still in its
                // request slot — the window frees it only below) goes
                // into the shard's read index.
                let rec_len = self.repl.record_len() as u64;
                let value = sim.mem(self.client).read(
                    self.req.addr + slot * rec_len + 16,
                    u64::from(self.repl.value_len()),
                );
                match value {
                    Ok(value) => {
                        self.value_buf.clear();
                        self.value_buf.extend_from_slice(value);
                        self.table
                            .borrow_mut()
                            .insert(sim, put.key, &self.value_buf)
                            .expect("apply readable record")
                            .then_some(())
                            .expect("shard table full applying acked put");
                        out.acks.push(PutAck {
                            instance: put.instance,
                            seq,
                            key: put.key,
                            at: cqe.time,
                        });
                    }
                    Err(_) => out.failures.push(PutFailure {
                        instance: put.instance,
                        key: put.key,
                        status: CqeStatus::ProtectionError,
                        at: cqe.time,
                    }),
                }
                self.repl.complete_instance();
            }
        }
        let sent = sim.poll_cq_into(self.send_cq, POLL_BATCH, &mut cqes);
        if sent > 0 {
            for cqe in cqes.drain(..) {
                if cqe.status == CqeStatus::Success {
                    continue;
                }
                let failed = self
                    .pending
                    .iter_mut()
                    .find(|p| p.is_some_and(|p| p.wqe_index == cqe.wqe_index))
                    .and_then(Option::take);
                if let Some(put) = failed {
                    out.failures.push(PutFailure {
                        instance: put.instance,
                        key: put.key,
                        status: cqe.status,
                        at: cqe.time,
                    });
                    self.repl.complete_instance();
                }
            }
        }
        // A poll that came back full may have left CQEs behind.
        if acked.max(sent) < POLL_BATCH {
            self.cq_seen = total;
        }
        self.cqe_buf = cqes;
        out
    }

    /// Heartbeat-based failure suspicion (§5.6 detection): true when
    /// writes are in flight but the ack CQ has been silent — no
    /// completion at all — for longer than `timeout`.
    pub fn suspect(&self, sim: &Simulator, timeout: Time) -> bool {
        self.in_flight() > 0 && sim.now() > sim.cq_last_completion(self.recv_cq) + timeout
    }
}

/// A cluster-wide typed client: one get [`Session`] per shard (per
/// tenant, when connected multi-tenant) and one [`PutSession`] per
/// shard, fanned out by the cluster's router.
pub struct ClusterSession {
    /// Get sessions, flattened `tenant * nshards + shard` (a single
    /// untenanted lane when connected via [`ClusterSession::connect`]).
    gets: Vec<Session>,
    puts: Vec<PutSession>,
    /// Tenant lanes sharing the shards (0 = untenanted).
    ntenants: usize,
    value_len: u32,
    /// Connect-time non-interference proof (clean by construction — a
    /// dirty report aborts [`ClusterSession::connect`]).
    isolation: AnalysisReport,
}

impl ClusterSession {
    /// Connect to every shard: a self-recycling hash-get session plus a
    /// replication-chain put session whose journal lives on the next
    /// node (shard `i` journals on node `i+1 mod N`, hull-owned so it
    /// survives a primary kill).
    pub fn connect(
        sim: &mut Simulator,
        cluster: &mut Cluster,
        opts: SessionOpts,
    ) -> Result<ClusterSession> {
        ClusterSession::connect_tenants(sim, cluster, opts, &[])
    }

    /// As [`ClusterSession::connect`], but with one get lane per named
    /// tenant packed onto every shard node: tenant `t`'s sessions take
    /// the PU range `opts.pu_base + 2t` onward (strided like the fleet
    /// packer, so tenants spread over each node's PUs instead of
    /// stacking), and every program footprint enters the cluster-wide
    /// [`DeploymentVerifier`] under a `tenant/shardN` label — an
    /// interference diagnostic names both owning tenants. The write
    /// path (one replication chain per shard) is shared infrastructure
    /// and stays tenant-neutral. An empty `tenants` slice degenerates
    /// to the single-operator connect.
    pub fn connect_tenants(
        sim: &mut Simulator,
        cluster: &mut Cluster,
        opts: SessionOpts,
        tenants: &[&str],
    ) -> Result<ClusterSession> {
        let n = cluster.shards.len();
        let lanes = tenants.len().max(1);
        let mut gets = Vec::with_capacity(lanes * n);
        let mut puts = Vec::with_capacity(n);
        for t in 0..lanes {
            for s in 0..n {
                let client = cluster.client;
                let shard = &mut cluster.shards[s];
                let npus = sim.nic_config(shard.node).pus_per_port.max(1);
                let lane_opts = SessionOpts {
                    pu_base: (opts.pu_base + 2 * t) % npus,
                    ..opts
                };
                gets.push(Session::connect_get(
                    sim,
                    &mut shard.ctx,
                    &shard.server,
                    client,
                    HashGetVariant::Sequential,
                    lane_opts,
                )?);
            }
        }
        for s in 0..n {
            let backup_node = cluster.shards[(s + 1) % n].node;
            let journal = ReplicationLog::create(
                sim,
                backup_node,
                ProcessId(0),
                cluster.spec.journal_capacity,
                cluster.spec.value_len,
            )?;
            puts.push(PutSession::connect(sim, cluster, s, &[journal], 0)?);
        }
        // Each shard's pool lent its programs one working set; they are
        // all up.
        for shard in &mut cluster.shards {
            shard.ctx.pool_mut().release_scratch();
        }
        // Tenant isolation across the whole deployment: every shard node
        // co-hosts its own get offload(s) and replication chain, and
        // chain `s` additionally writes into node `s+1`'s journal — so
        // the footprints are compared cluster-wide (spans are node- or
        // rkey-qualified, so cross-node spans cannot falsely collide).
        // Any overlap — aliased response slots, journal windows, ring
        // WQEs, shared CQ thresholds — is a hard connect error, and in
        // a multi-tenant connect the diagnostic names both tenants.
        let subject = if tenants.is_empty() {
            "cluster"
        } else {
            "cluster-tenants"
        };
        let mut verifier = DeploymentVerifier::new(subject);
        for (i, g) in gets.iter().enumerate() {
            let (t, s) = (i / n, i % n);
            if let Some(fp) = g.service().footprint() {
                let label = match tenants.get(t) {
                    Some(name) => format!("{}/shard{}: {}", name, s, fp.name),
                    None => format!("shard {}: {}", s, fp.name),
                };
                verifier.add(fp.clone().named(label));
            }
        }
        for (s, p) in puts.iter().enumerate() {
            let fp = p.offload().footprint().expect("chains are self-recycling");
            verifier.add(fp.clone().named(format!("shard {}: {}", s, fp.name)));
        }
        let isolation = verifier.verify();
        if let Some(d) = isolation.diagnostics.first() {
            return Err(Error::Verifier(format!(
                "cluster isolation[{}]: {}",
                d.rule.name(),
                d.message
            )));
        }
        Ok(ClusterSession {
            gets,
            puts,
            ntenants: tenants.len(),
            value_len: cluster.spec.value_len,
            isolation,
        })
    }

    /// Tenant lanes this session was connected with (0 when connected
    /// via the single-operator [`ClusterSession::connect`]).
    pub fn ntenants(&self) -> usize {
        self.ntenants
    }

    /// The connect-time non-interference proof over every shard's get
    /// offload and replication chain (clean by construction — a dirty
    /// report aborts [`ClusterSession::connect`]).
    pub fn isolation_report(&self) -> &AnalysisReport {
        &self.isolation
    }

    /// The get session serving shard id `s`.
    pub fn get_session_mut(&mut self, s: usize) -> &mut Session {
        &mut self.gets[s]
    }

    /// Shared view of shard `s`'s put session (heartbeat checks).
    pub fn put_session(&self, s: usize) -> &PutSession {
        &self.puts[s]
    }

    /// The put session serving shard id `s`.
    pub fn put_session_mut(&mut self, s: usize) -> &mut PutSession {
        &mut self.puts[s]
    }

    /// Replace shard `s`'s sessions (failover rebinds them to the
    /// promoted stack).
    pub fn rebind(&mut self, s: usize, get: Session, put: PutSession) {
        self.gets[s] = get;
        self.puts[s] = put;
    }

    /// Route, post, and drain one get. Returns the value bytes, or a
    /// typed error when the owning shard never responds (drained
    /// simulator — a dead or unreachable primary).
    pub fn get_blocking(
        &mut self,
        sim: &mut Simulator,
        cluster: &Cluster,
        key: u64,
    ) -> Result<Vec<u8>> {
        let s = cluster.shard_for(key);
        let value_len = u64::from(self.value_len);
        let session = &mut self.gets[s];
        let pending = session.get(sim, key)?;
        sim.run()?;
        let want = session.response_tag(pending.instance);
        let got = session.reap(sim, 16).into_iter().find(|c| c.tag() == want);
        match got {
            Some(Completion::Get(_)) | Some(Completion::Walk(_)) => {
                let v = session.read_value(sim, pending.instance, value_len)?;
                session.complete();
                Ok(v)
            }
            None => {
                session.abandon();
                Err(Error::InvalidWr("get timed out (shard unreachable)"))
            }
        }
    }

    /// Route, post, and drain one put. Returns the ack, or a typed
    /// error carrying the observed failure status.
    pub fn put_blocking(
        &mut self,
        sim: &mut Simulator,
        cluster: &Cluster,
        key: u64,
        value: &[u8],
    ) -> Result<PutAck> {
        let s = cluster.shard_for(key);
        let session = &mut self.puts[s];
        let inst = session.put(sim, key, value)?;
        sim.run()?;
        let reaped = session.reap(sim);
        if let Some(ack) = reaped.acks.into_iter().find(|a| a.instance == inst) {
            return Ok(ack);
        }
        if reaped.failures.iter().any(|f| f.instance == inst) {
            return Err(Error::InvalidWr(
                "put failed with a typed completion (primary dead?)",
            ));
        }
        Err(Error::InvalidWr("put never completed (shard unreachable)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;

    /// A deployed small cluster, a connected session, the shard under
    /// test and `put_depth` keys it owns.
    fn rig() -> (Simulator, ClusterSession, usize, Vec<u64>) {
        let (mut sim, mut cluster) = Cluster::deploy(ClusterSpec::small()).unwrap();
        let session =
            ClusterSession::connect(&mut sim, &mut cluster, SessionOpts::default()).unwrap();
        let s = cluster.shard_for(1);
        let keys = (1..)
            .filter(|&k| cluster.shard_for(k) == s)
            .take(cluster.spec.put_depth as usize)
            .collect();
        (sim, session, s, keys)
    }

    #[test]
    fn in_flight_table_stays_at_pipeline_depth() {
        let (mut sim, mut session, s, keys) = rig();
        let put = session.put_session_mut(s);
        let depth = keys.len();
        for round in 0..10u8 {
            for &key in &keys {
                put.put(&mut sim, key, &[round; 16]).unwrap();
            }
            assert_eq!(put.in_flight(), depth as u64);
            sim.run().unwrap();
            assert_eq!(put.reap(&mut sim).acks.len(), depth);
            assert_eq!(put.pending.len(), depth, "one entry per window slot");
            assert!(put.pending.iter().all(Option::is_none));
        }
        assert_eq!(put.in_flight(), 0);
    }

    #[test]
    fn corrupted_ack_word_resolves_nothing_and_does_not_panic() {
        let (mut sim, mut session, s, keys) = rig();
        let put = session.put_session_mut(s);
        for &key in &keys {
            put.put(&mut sim, key, &[7; 16]).unwrap();
        }
        sim.run().unwrap();
        // Slot 0's ack word names a sequence far outside the window,
        // slot 1's the (valid) sequence of slot 2's occupant.
        sim.mem_write_u64(put.client, put.ack.addr, u64::MAX)
            .unwrap();
        sim.mem_write_u64(put.client, put.ack.addr + 8, 3).unwrap();
        let reaped = put.reap(&mut sim);
        let acked: Vec<u64> = reaped.acks.iter().map(|a| a.instance).collect();
        assert_eq!(acked, [2, 3], "only acks matching their slot's put count");
        assert!(reaped.failures.is_empty());
        assert_eq!(put.in_flight(), 2, "the two unmatched puts stay in flight");
    }
}
