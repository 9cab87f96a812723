//! Typed client sessions against a deployed [`Cluster`]: one
//! [`redn_kv`] [`Session`] per shard for gets and one per shard for
//! puts, the put one driving that shard's NIC-resident replication
//! chain.
//!
//! Routing is client-side ([`ShardRouter`]); failure surfaces as typed
//! values, never hangs — a dead primary yields
//! [`CqeStatus::RnrError`] completions (dead-QP timeout) on the put
//! path and drained-simulator timeouts on the get path.
//!
//! [`ShardRouter`]: crate::router::ShardRouter
//! [`CqeStatus::RnrError`]: rnic_sim::cq::CqeStatus::RnrError

use crate::cluster::Cluster;
use redn_core::ir::analysis::{self, AnalysisReport, DeploymentVerifier, Owner};
use redn_core::offloads::hash_lookup::HashGetVariant;
use redn_core::offloads::replicate::{ReplicationLog, ReplicationOffload};
use redn_kv::cuckoo::CuckooTable;
pub use redn_kv::session::{PutAck, PutFailure, PutReap};
use redn_kv::session::{Session, SessionOpts};
use rnic_sim::cq::CqeStatus;
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::ProcessId;
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;
use std::cell::RefCell;
use std::rc::Rc;

/// One client's write path to one shard: a put [`Session`]
/// ([`Session::connect_put`]) plus the shard's table handle, for the
/// host-side apply.
///
/// Durability and the ack are NIC-only (the chain); **applying** an
/// acked record to the shard's read index (the cuckoo table) happens
/// host-side when the ack is reaped — the state-machine apply of chain
/// replication, analogous to Memcached's CPU-managed inserts. It costs
/// no doorbells, posts or arm calls, so the replication path's
/// zero-host-work property is untouched.
pub struct PutSession {
    session: Session,
    table: Rc<RefCell<CuckooTable>>,
    /// The acked value being applied, reused across reaps.
    value_buf: Vec<u8>,
    /// What the last reap drained and applied.
    reaped: PutReap,
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
        let opts = SessionOpts {
            pipeline_depth: depth,
            ..SessionOpts::default()
        };
        let client = cluster.client;
        let shard = &mut cluster.shards[stack];
        let session =
            Session::connect_put(sim, &mut shard.ctx, client, journals, start_slot, opts)?;
        Ok(PutSession {
            session,
            table: shard.server.table.clone(),
            value_buf: Vec::new(),
            // A reap drains at most a window of puts.
            reaped: PutReap {
                acks: Vec::with_capacity(depth as usize),
                failures: Vec::with_capacity(depth as usize),
            },
        })
    }

    /// The put session this shim forwards to.
    pub(crate) fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// The chain this session drives.
    pub fn offload(&self) -> &ReplicationOffload {
        self.session
            .replication()
            .expect("connected by Session::connect_put")
    }

    /// Post one PUT (see [`Session::put`]). Returns the claimed instance.
    pub fn put(&mut self, sim: &mut Simulator, key: u64, value: &[u8]) -> Result<u64> {
        self.session.put(sim, key, value)
    }

    /// [`Session::reap_puts`], then apply every acked record (still in
    /// its request slot) to the shard's table; an ack whose record
    /// cannot be read back becomes a failure. Returns what it drained
    /// out of a buffer the next reap clears. An idle reap stays a
    /// compare and two clears, inlined into the caller's loop.
    #[inline]
    pub fn reap(&mut self, sim: &mut Simulator) -> &PutReap {
        let drained = self.session.reap_puts(sim);
        let out = &mut self.reaped;
        out.acks.clone_from(&drained.acks);
        out.failures.clone_from(&drained.failures);
        if !out.acks.is_empty() {
            self.apply(sim);
        }
        &self.reaped
    }

    fn apply(&mut self, sim: &mut Simulator) {
        let (session, value, out) = (&self.session, &mut self.value_buf, &mut self.reaped);
        out.acks.retain(|ack| {
            let Ok(v) = session.put_value(sim, ack.instance) else {
                let (instance, key, at) = (ack.instance, ack.key, ack.at);
                let status = CqeStatus::ProtectionError;
                out.failures.push(PutFailure {
                    instance,
                    key,
                    status,
                    at,
                });
                return false;
            };
            value.clear();
            value.extend_from_slice(v);
            self.table
                .borrow_mut()
                .insert(sim, ack.key, value)
                .expect("apply readable record")
                .then_some(())
                .expect("shard table full applying acked put");
            true
        });
    }

    /// Heartbeat-based failure suspicion (§5.6 detection; see
    /// [`Session::suspect`]).
    pub fn suspect(&self, sim: &Simulator, timeout: Time) -> bool {
        self.session.suspect(sim, timeout)
    }
}

/// Connect tenant lane `t`'s get session to the shard stack at
/// `cluster.shards[stack]`: `opts` with the lane's PUs from
/// `opts.pu_base + 2t` onward.
fn connect_lane(
    sim: &mut Simulator,
    cluster: &mut Cluster,
    stack: usize,
    t: usize,
    opts: SessionOpts,
) -> Result<Session> {
    let client = cluster.client;
    let shard = &mut cluster.shards[stack];
    let npus = sim.nic_config(shard.node).pus_per_port.max(1);
    let lane_opts = SessionOpts {
        pu_base: (opts.pu_base + 2 * t) % npus,
        ..opts
    };
    Session::connect_get(
        sim,
        &mut shard.ctx,
        &shard.server,
        client,
        HashGetVariant::Sequential,
        lane_opts,
    )
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
    /// The options the get lanes were connected with (failover
    /// reconnects with them).
    opts: SessionOpts,
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
                gets.push(connect_lane(sim, cluster, s, t, opts)?);
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
        // The put lanes follow every tenant's get lanes, so they take
        // the tenant-neutral label.
        let lanes = gets.iter().chain(puts.iter().map(|p| &p.session));
        for (i, session) in lanes.enumerate() {
            let (t, s) = (i / n, i % n);
            if let Some(fp) = session.service().footprint() {
                let tenant = tenants.get(t).copied();
                verifier.add_labelled(fp, Owner::Shard { tenant, index: s });
            }
        }
        let isolation = verifier.verify();
        analysis::first_error(&isolation.diagnostics, "cluster isolation")?;
        Ok(ClusterSession {
            gets,
            puts,
            ntenants: tenants.len(),
            opts,
            value_len: cluster.spec.value_len,
            isolation,
        })
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

    /// Rebind shard `s` to the promoted stack `stack` (failover): every
    /// tenant lane's get session is reconnected with the connect
    /// options, then a put session on a chain forwarding to `journals`
    /// from `start_slot`.
    pub(crate) fn rebind(
        &mut self,
        sim: &mut Simulator,
        cluster: &mut Cluster,
        s: usize,
        stack: usize,
        journals: &[ReplicationLog],
        start_slot: u64,
    ) -> Result<()> {
        let n = self.puts.len();
        for t in 0..self.ntenants.max(1) {
            self.gets[t * n + s] = connect_lane(sim, cluster, stack, t, self.opts)?;
        }
        self.puts[s] = PutSession::connect(sim, cluster, stack, journals, start_slot)?;
        Ok(())
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
        if !session.reap(sim, 16).iter().any(|c| c.tag() == want) {
            session.abandon();
            return Err(Error::InvalidWr("get timed out (shard unreachable)"));
        }
        let v = session.read_value(sim, pending.instance, value_len)?;
        session.complete();
        Ok(v)
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
        if let Some(&ack) = reaped.acks.iter().find(|a| a.instance == inst) {
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
    use crate::failover::FailoverController;

    #[test]
    fn fail_over_rebinds_every_tenant_lane_of_the_shard() {
        let (mut sim, mut cluster) = Cluster::deploy(ClusterSpec::small()).unwrap();
        let opts = SessionOpts {
            pipeline_depth: 2,
            ..SessionOpts::default()
        };
        let mut session =
            ClusterSession::connect_tenants(&mut sim, &mut cluster, opts, &["a", "b"]).unwrap();
        let stack = &cluster.shards[cluster.serving_stack(1)];
        assert!(sim.kill_process(stack.node, stack.pid));
        FailoverController::default()
            .fail_over(&mut sim, &mut cluster, &mut session, 1)
            .unwrap();
        let promoted = cluster.shards[cluster.serving_stack(1)].node;
        let n = cluster.shards.len();
        for t in 0..2 {
            let lane = session.gets[t * n + 1].service();
            assert_eq!(lane.tp.node, promoted, "tenant {t} follows the promotion");
            assert_eq!(lane.pipeline_depth(), 2, "tenant {t} keeps its depth");
        }
    }
}
