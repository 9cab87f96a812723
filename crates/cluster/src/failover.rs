//! Primary failover: detect a dead shard primary, promote the backup
//! holding its journal, re-route the shard, and re-replicate to a new
//! backup.
//!
//! State machine (driven by the controller, observed by clients as
//! typed errors then recovery):
//!
//! ```text
//! SERVING --kill_process(primary)--> SUSPECT
//!   (clients see RnrError put completions / silent ack CQ heartbeat)
//! SUSPECT --fail_over()--> PROMOTING
//!   replay the surviving journal into the backup's table
//! PROMOTING --> REROUTED
//!   assignment[shard] = promoted stack (router untouched: no other
//!   shard's keys move)
//! REROUTED --> REREPLICATING
//!   one RDMA WRITE streams the journal to a fresh backup; a new chain
//!   (start_slot = recovered records) continues the sequence
//! REREPLICATING --> SERVING
//! ```

use crate::cluster::Cluster;
use crate::session::{ClusterSession, PutReap};
use redn_core::offloads::replicate::ReplicationLog;
use rnic_sim::cq::CqeStatus;
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::Simulator;
use rnic_sim::time::Time;
use rnic_sim::wqe::WorkRequest;

/// What one failover did, with simulated timestamps for the blip math.
#[derive(Clone, Debug)]
pub struct FailoverReport {
    /// The dead primary's node.
    pub old_node: NodeId,
    /// The promoted backup's node.
    pub new_node: NodeId,
    /// Acked records recovered from the surviving journal.
    pub records_recovered: u64,
    /// When the controller started (detection time — the caller
    /// typically observed an `RnrError` or heartbeat silence just
    /// before).
    pub(crate) started_at: Time,
    /// When the journal replay + re-route finished (reads and writes
    /// can be served again from here).
    pub(crate) promoted_at: Time,
    /// When the journal copy to the new backup completed (full
    /// redundancy restored).
    pub(crate) rereplicated_at: Time,
    /// Every put the old session still held, resolved exactly once: a
    /// last reap of its CQs, then each still-pending put against the
    /// recovered journal — acked with `seq = instance + 1` if its record
    /// is there (below `records_recovered`), failed with `RnrError` if
    /// not. Not handed to the new session, whose chain reuses instance
    /// numbers from `records_recovered` upward.
    pub puts: PutReap,
}

impl FailoverReport {
    /// Promotion latency in microseconds.
    pub fn promote_us(&self) -> f64 {
        (self.promoted_at - self.started_at).as_us_f64()
    }

    /// Re-replication latency in microseconds.
    pub fn rereplicate_us(&self) -> f64 {
        (self.rereplicated_at - self.promoted_at).as_us_f64()
    }
}

/// The failover driver. Holds only policy (the heartbeat timeout);
/// state lives in the cluster and session it operates on.
#[derive(Clone, Copy, Debug)]
pub struct FailoverController {
    /// Ack-CQ silence beyond this (with writes in flight) marks a
    /// primary suspect. The simulator's dead-QP timeout is 100 µs, so
    /// anything above that detects promptly without false positives on
    /// a healthy back-to-back fabric.
    pub(crate) heartbeat_timeout: Time,
}

impl Default for FailoverController {
    fn default() -> FailoverController {
        FailoverController {
            heartbeat_timeout: Time::from_us(200),
        }
    }
}

impl FailoverController {
    /// True when shard `s` looks dead from the client: a typed
    /// `RnrError` failure already reaped, or heartbeat silence past the
    /// timeout with writes in flight.
    pub fn suspect(
        &self,
        sim: &Simulator,
        session: &ClusterSession,
        s: usize,
        reaped_failure: Option<CqeStatus>,
    ) -> bool {
        matches!(reaped_failure, Some(CqeStatus::RnrError))
            || session.put_session(s).suspect(sim, self.heartbeat_timeout)
    }

    /// Fail shard `s` over to the backup holding its journal: resolve
    /// the old put session's puts (see [`FailoverReport::puts`]), replay
    /// the journal into the promoted table, re-route the shard, stream
    /// the journal to a fresh backup over RDMA, and rebind the
    /// session's get/put paths to the promoted stack (the new chain
    /// continues the sequence at `start_slot = records recovered`).
    ///
    /// Needs at least 3 nodes so a fresh backup exists after the loss.
    pub fn fail_over(
        &self,
        sim: &mut Simulator,
        cluster: &mut Cluster,
        session: &mut ClusterSession,
        s: usize,
    ) -> Result<FailoverReport> {
        let started_at = sim.now();
        let old_stack = cluster.serving_stack(s);
        let old_node = cluster.shards[old_stack].node;
        let journal = *session
            .put_session_mut(s)
            .offload()
            .journals()
            .first()
            .ok_or(Error::InvalidWr("shard has no replication journal"))?;

        let promoted = cluster
            .shards
            .iter()
            .position(|sh| sh.node == journal.node)
            .ok_or(Error::InvalidWr("journal node is not a cluster member"))?;
        if promoted == old_stack {
            return Err(Error::InvalidWr("journal lives on the dead primary"));
        }

        // PROMOTING: replay every acked record into the promoted table.
        let recovered = journal.appended(sim)?;
        for i in 0..recovered {
            let (_seq, key, value) = journal
                .read_record(sim, i)?
                .ok_or(Error::InvalidWr("journal record vanished during replay"))?;
            if !cluster.shards[promoted]
                .server
                .table
                .borrow_mut()
                .insert(sim, key, &value)?
            {
                return Err(Error::InvalidWr("promoted table full during replay"));
            }
        }

        // The old put session is dropped below: settle what it still
        // holds against the journal. Its acks need no apply — the replay
        // above covered every journaled record.
        let puts = session
            .put_session_mut(s)
            .session_mut()
            .settle_puts(sim, recovered);

        // REROUTED: the shard id keeps its key range; only its serving
        // stack changes, so no other shard's keys move.
        cluster.assignment[s] = promoted;
        let promoted_at = sim.now();

        // REREPLICATING: fresh journal on a surviving node that is
        // neither the promoted primary nor the corpse, filled by one
        // RDMA WRITE streaming the recovered prefix.
        let target = cluster
            .shards
            .iter()
            .position(|sh| sh.node != journal.node && sh.node != old_node)
            .ok_or(Error::InvalidWr(
                "re-replication needs a third surviving node",
            ))?;
        let new_journal = ReplicationLog::create(
            sim,
            cluster.shards[target].node,
            ProcessId(0),
            cluster.spec.journal_capacity,
            cluster.spec.value_len,
        )?;
        if recovered > 0 {
            copy_journal(sim, cluster, promoted, &journal, &new_journal, recovered)?;
        }
        let rereplicated_at = sim.now();

        // Rebind the client: new get sessions (every tenant lane, with
        // the options it was connected with) and a new put chain on the
        // promoted stack, sequence continuing past the recovery.
        session.rebind(sim, cluster, s, promoted, &[new_journal], recovered)?;

        Ok(FailoverReport {
            old_node,
            new_node: journal.node,
            records_recovered: recovered,
            started_at,
            promoted_at,
            rereplicated_at,
            puts,
        })
    }
}

/// Stream `records` journal records from the promoted node to the new
/// backup as one RDMA WRITE on a scratch QP pair, measured in simulated
/// time (this is the re-replication cost the report carries).
fn copy_journal(
    sim: &mut Simulator,
    cluster: &Cluster,
    promoted: usize,
    src: &ReplicationLog,
    dst: &ReplicationLog,
    records: u64,
) -> Result<()> {
    let node = cluster.shards[promoted].node;
    let len = records * src.record_len() as u64;
    // The promoted node does not hold the journal — the journal lives
    // in its own memory (it was this shard's backup), so the WRITE
    // sources locally and lands remotely.
    debug_assert_eq!(src.node, node);
    let cq = sim.create_cq(node, 16)?;
    let qp = sim.create_qp_owned(
        node,
        QpConfig::new(cq).sq_depth(16).rq_depth(8),
        ProcessId(0),
    )?;
    let pcq = sim.create_cq(dst.node, 16)?;
    let peer = sim.create_qp_owned(
        dst.node,
        QpConfig::new(pcq).sq_depth(8).rq_depth(8),
        ProcessId(0),
    )?;
    sim.connect_qps(qp, peer)?;
    sim.post_send(
        qp,
        WorkRequest::write(
            src.mr.addr,
            src.mr.lkey,
            len as u32,
            dst.mr.addr,
            dst.mr.rkey,
        )
        .signaled(),
    )?;
    sim.run()?;
    let done = sim
        .poll_cq(cq, 16)
        .into_iter()
        .any(|c| c.status == CqeStatus::Success);
    if !done {
        return Err(Error::InvalidWr("re-replication WRITE failed"));
    }
    Ok(())
}
