//! Chain-replicated PUT offload — the paper's §3.4 WQ recycling applied
//! to the *replication* path of a sharded store.
//!
//! A shard primary accepts PUTs from clients and must make each one
//! durable on every backup before acknowledging it. Classically that is
//! a server-CPU loop (receive, re-send to backups, wait, ack). Here the
//! whole chain is a NIC-resident RedN program: the primary's host CPU
//! stages it **once** and then never touches the replication path again
//! — no posts, no doorbells, no arm calls in steady state.
//!
//! The chain is one more body plugged into the shared serving frame
//! ([`service`](crate::offloads::service)): the frame supplies the
//! trigger point, the instance window (here with a `start_slot` base)
//! and the recycled round's trigger WAIT / ack release / tail; this
//! module supplies the forward-and-ack body. Per in-flight PUT slot `k`
//! (of `pipeline_depth` slots):
//!
//! 1. the client SENDs `[seq(8B)][key(8B)][value]`; the trigger RECV's
//!    scatter program lands it in staging slot `k` on the primary;
//! 2. the recycled control ring WAITs on that RECV completion, then
//!    ENABLEs one pre-staged **forward WRITE per backup** — a cross-node
//!    RDMA WRITE copying the record from the staging slot into the
//!    backup's journal;
//! 3. the ring WAITs on each forward's completion (the record is in
//!    backup memory — chain durability);
//! 4. a FETCH_ADD advances each forward WQE's `RemoteAddr` by one full
//!    round (`pipeline_depth × record_len`), so the journal is
//!    **append-only**: put `i` always lands in journal slot `i`, acked
//!    records are never overwritten by slot reuse (§3.4
//!    self-modification as a pointer bump);
//! 5. the ring ENABLEs the ack WRITE_IMM: the record's `seq` flies back
//!    into the client's ack slot, immediate = slot index.
//!
//! The journals live in **backup-owned** memory: when the primary's
//! serving process is killed ([`Simulator::kill_process`]), its staging
//! ring, queues and control ring die with it, but every acked record is
//! already in a journal that survives — the §5.6 failover story. Clients
//! with in-flight PUTs observe typed [`CqeStatus::RnrError`] completions
//! (dead-QP timeout), never hangs.
//!
//! [`Simulator::kill_process`]: rnic_sim::sim::Simulator::kill_process
//! [`CqeStatus::RnrError`]: rnic_sim::cq::CqeStatus::RnrError

use std::ops::{Deref, DerefMut};

use crate::ctx::Replication;
use crate::encode::WqeField;
use crate::ir::{DeployOpts, EnableTarget, Kind, Loc, OpBuild, WaitCond};
use crate::offloads::service::{
    FrameSpec, OffloadService, RecycledFrame, ServiceFrame, TriggerScatter,
};
use crate::program::{ChainQueue, ConstPool};
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::mem::{Access, MemoryRegion};
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::Simulator;

/// Bytes of record header preceding the value: `[seq: u64][key: u64]`.
pub const RECORD_HEADER: u32 = 16;

/// Length of one journal record for a given value size.
pub fn record_len(value_len: u32) -> u32 {
    RECORD_HEADER + value_len
}

/// Encode one record as the client wire/journal format into `rec`
/// (cleared first, so a caller reuses one buffer for every put). `seq`
/// must be non-zero (zero marks a never-written journal slot); the value
/// is zero-padded to `value_len`.
pub fn encode_record_into(rec: &mut Vec<u8>, seq: u64, key: u64, value: &[u8], value_len: u32) {
    assert!(seq != 0, "record seq 0 is reserved for empty slots");
    assert!(
        value.len() <= value_len as usize,
        "value longer than value_len"
    );
    rec.clear();
    rec.extend_from_slice(&seq.to_le_bytes());
    rec.extend_from_slice(&key.to_le_bytes());
    rec.extend_from_slice(value);
    rec.resize(record_len(value_len) as usize, 0);
}

/// An append-only replication journal on a backup node.
///
/// Owned by a backup-side process (typically the hull, pid 0) so it
/// survives a primary crash; the primary's forward WRITEs append acked
/// records here, one slot per global PUT sequence position.
#[derive(Clone, Copy, Debug)]
pub struct ReplicationLog {
    /// Node the journal lives on.
    pub node: NodeId,
    /// The registered journal region (the forward WRITEs' target).
    pub mr: MemoryRegion,
    /// Capacity in records.
    pub(crate) capacity: u64,
    /// Bytes per value.
    pub value_len: u32,
}

impl ReplicationLog {
    /// Allocate and register a journal of `capacity` records on `node`,
    /// owned by `owner` (use the hull pid for crash-survivable
    /// journals).
    pub fn create(
        sim: &mut Simulator,
        node: NodeId,
        owner: ProcessId,
        capacity: u64,
        value_len: u32,
    ) -> Result<ReplicationLog> {
        let len = capacity * record_len(value_len) as u64;
        let addr = sim.alloc(node, len, 64)?;
        let mr = sim.register_mr_owned(node, addr, len, Access::all(), owner)?;
        Ok(ReplicationLog {
            node,
            mr,
            capacity,
            value_len,
        })
    }

    /// Bytes per record.
    pub fn record_len(&self) -> u32 {
        record_len(self.value_len)
    }

    /// Address of journal slot `i`.
    fn slot_addr(&self, i: u64) -> u64 {
        self.mr.addr + i * self.record_len() as u64
    }

    /// Read journal slot `i`: `Some((seq, key, value))` if a record was
    /// ever appended there (`seq != 0`), `None` for an empty slot.
    pub fn read_record(&self, sim: &Simulator, i: u64) -> Result<Option<(u64, u64, Vec<u8>)>> {
        let b = sim.mem_read(self.node, self.slot_addr(i), self.record_len() as u64)?;
        let seq = u64::from_le_bytes(b[0..8].try_into().unwrap());
        if seq == 0 {
            return Ok(None);
        }
        let key = u64::from_le_bytes(b[8..16].try_into().unwrap());
        Ok(Some((seq, key, b[16..].to_vec())))
    }

    /// Number of leading slots holding records (the journal is
    /// append-only, so records are contiguous from slot 0).
    pub fn appended(&self, sim: &Simulator) -> Result<u64> {
        for i in 0..self.capacity {
            if self.read_record(sim, i)?.is_none() {
                return Ok(i);
            }
        }
        Ok(self.capacity)
    }
}

impl ReplicationOffload {
    /// Deploy the chain as one verifier-checked recycled IR program: the
    /// frame's round (see [`service`](crate::offloads::service); the
    /// trigger WAIT means "client PUT k landed in staging", the released
    /// response is the ack) with this body per instance `k` (thresholds
    /// `+K` per round, `K = pipeline_depth`):
    ///
    /// ```text
    /// ENABLE(fwd_b, k+1)   per b    -- release the forward WRITEs
    /// WAIT(fwd_cq_b, F_k)  per b    -- record durable on backup b
    /// FETCH_ADD(fwd_b[k].raddr, K*rec_len)  -- journal append pointer
    /// ```
    ///
    /// Called by [`OffloadBuilder`](crate::ctx::OffloadBuilder), whose
    /// frame check has already run; the journal checks below also run
    /// before anything is allocated.
    pub(crate) fn deploy(
        sim: &mut Simulator,
        spec: FrameSpec,
        chain: Replication,
        pool: &mut ConstPool,
        opts: DeployOpts,
    ) -> Result<ReplicationOffload> {
        let Replication {
            journals: backups,
            value_len,
            start_slot,
        } = chain;
        if backups.is_empty() {
            return Err(Error::InvalidWr(
                "replication chain needs at least one forward_to(journal)",
            ));
        }
        let k = u64::from(spec.depth);
        let rec_len = record_len(value_len);
        for j in &backups {
            if j.node == spec.node {
                return Err(Error::InvalidWr(
                    "backup journal must live on a different node than the primary",
                ));
            }
            if j.value_len != value_len {
                return Err(Error::InvalidWr("journal value_len mismatch"));
            }
            if j.capacity < start_slot + k {
                return Err(Error::InvalidWr(
                    "journal too small for start_slot plus one pipeline round",
                ));
            }
        }
        // One ack WRITE_IMM per instance; the control ring takes the PU
        // after the forward queues'.
        let mut f = RecycledFrame::begin(sim, spec, 1, 1 + backups.len())?;

        // Staging ring: K record slots the trigger RECVs scatter into and
        // the forward/ack WRITEs gather from. Dies with the primary.
        let stage_len = k * rec_len as u64;
        let stage_addr = sim.alloc(spec.node, stage_len, 64)?;
        let stage =
            sim.register_mr_owned(spec.node, stage_addr, stage_len, Access::all(), spec.owner)?;
        let staged = |inst: u64| stage.addr + inst * rec_len as u64;

        // One managed cross-node forward queue per backup. Unlike
        // ChainQueueBuilder's loopback pairs, the peer endpoint lives on
        // the backup node (journal-owned, so the connection's far end
        // survives the primary); the near end and its registered code
        // ring die with the primary's owner. Both CQs are counting CQs:
        // only WAITs read them.
        let mut fwd = Vec::with_capacity(backups.len());
        for (bi, j) in backups.iter().enumerate() {
            let cq = sim.create_counting_cq(spec.node);
            let cfg = QpConfig::new(cq)
                .sq_depth(k as u32)
                .rq_depth(8)
                .on_port(spec.port)
                .on_pu(spec.pu(sim, 1 + bi))
                .managed();
            let qp = sim.create_qp_owned(spec.node, cfg, spec.owner)?;
            let pcq = sim.create_counting_cq(j.node);
            let peer = sim.create_qp_owned(
                j.node,
                QpConfig::new(pcq).sq_depth(8).rq_depth(8),
                j.mr.owner,
            )?;
            sim.connect_qps(qp, peer)?;
            let ring = sim.register_sq_ring(qp, spec.owner)?;
            fwd.push(ChainQueue {
                qp,
                peer,
                sq: sim.sq_of(qp),
                cq,
                ring,
                managed: true,
                depth: k as u32,
                node: spec.node,
            });
        }
        let fwd_bases: Vec<u64> = fwd.iter().map(|q| sim.cq_total(q.cq)).collect();
        let fwd_qs: Vec<_> = fwd.iter().map(|q| f.p.chain(*q)).collect();

        // Bound-queue rounds: the ack WRITE_IMM per slot (seq goes back
        // to the client) and the forward WRITE per (backup, slot). Both
        // gather straight from the staging slot; the forwards' remote
        // addresses start at journal slot k and are bumped a full round
        // ahead by the FETCH_ADDs below.
        let ack_ops: Vec<_> = (0..k)
            .map(|inst| {
                f.p.push(
                    f.resp_q,
                    OpBuild::new(Kind::Write {
                        src: Loc::raw(staged(inst), stage.lkey),
                        len: 8,
                        dst: spec.slot_loc(inst),
                        imm: Some(inst as u32),
                    })
                    .signaled()
                    .label("put ack"),
                )
            })
            .collect();
        let fwd_ops: Vec<Vec<_>> = backups
            .iter()
            .zip(&fwd_qs)
            .map(|(j, q)| {
                (0..k)
                    .map(|inst| {
                        f.p.push(
                            *q,
                            OpBuild::new(Kind::Write {
                                src: Loc::raw(staged(inst), stage.lkey),
                                len: rec_len,
                                dst: Loc::raw(j.slot_addr(start_slot + inst), j.mr.rkey),
                                imm: None,
                            })
                            .signaled()
                            .label("chain forward"),
                        )
                    })
                    .collect()
            })
            .collect();

        for inst in 0..k {
            f.trigger_wait(inst);
            for ops in &fwd_ops {
                f.p.push(
                    f.ring,
                    OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(ops[inst as usize])))
                        .bump(k)
                        .label("forward release"),
                );
            }
            for (bi, q) in fwd.iter().enumerate() {
                f.p.push(
                    f.ring,
                    OpBuild::new(Kind::Wait(WaitCond::Absolute {
                        cq: q.cq,
                        count: fwd_bases[bi] + inst + 1,
                    }))
                    .bump(k)
                    .label("backup durable wait"),
                );
            }
            for ops in &fwd_ops {
                f.p.push(
                    f.ring,
                    OpBuild::new(Kind::FetchAdd {
                        target: Loc::field(ops[inst as usize], WqeField::RemoteAddr),
                        delta: k * rec_len as u64,
                    })
                    .label("journal append bump"),
                );
            }
            // The durable WAITs above already order the ack: no fence.
            f.release(ack_ops[inst as usize], false);
        }

        // Each trigger RECV scatters a whole incoming record into its
        // staging slot.
        let name = format!("replicate(f={})@node{}", fwd.len(), spec.node.0);
        let scatter = TriggerScatter::Staged {
            base: stage.addr,
            lkey: stage.lkey,
            len: rec_len,
        };
        let frame = f.finish(sim, pool, opts, name, start_slot, scatter)?;
        Ok(ReplicationOffload {
            frame,
            value_len,
            backups,
        })
    }
}

/// A deployed NIC-resident replication chain on a shard primary: a
/// [`ServiceFrame`] whose body forwards into the backups' journals.
///
/// Host-side it is pure accounting — the frame's window:
/// `take_instance` claims a slot before the client SENDs (the claimed
/// instance's PUT must carry `seq = instance + 1` and lands in journal
/// slot `instance` on every backup; the first instance of a rebuilt
/// chain is its `start_slot`), `complete_instance` retires it when the
/// ack is reaped, `response_tag` is the ack's immediate and
/// `response_slot` the client ack slot. The NIC does everything else.
pub struct ReplicationOffload {
    frame: ServiceFrame,
    value_len: u32,
    backups: Vec<ReplicationLog>,
}

impl Deref for ReplicationOffload {
    type Target = ServiceFrame;
    fn deref(&self) -> &ServiceFrame {
        &self.frame
    }
}

impl DerefMut for ReplicationOffload {
    fn deref_mut(&mut self) -> &mut ServiceFrame {
        &mut self.frame
    }
}

impl OffloadService for ReplicationOffload {
    /// A chain is always self-recycling: the NIC re-arms every slot, so
    /// host arming is a typed error (and [`OffloadService::prime`] a
    /// no-op).
    fn arm(&mut self, _sim: &mut Simulator, _pool: &mut ConstPool) -> Result<()> {
        Err(Error::InvalidWr(
            "replication chains are self-recycling; arm() is host-armed only",
        ))
    }
}

impl ReplicationOffload {
    /// Bytes per value.
    pub fn value_len(&self) -> u32 {
        self.value_len
    }

    /// The journals this chain replicates into.
    pub fn journals(&self) -> &[ReplicationLog] {
        &self.backups
    }

    /// Optimized control-ring WQEs per replicated PUT (a chain is always
    /// self-recycling, so unlike the frame's accessor this is total).
    pub fn verbs_per_op(&self) -> f64 {
        self.frame
            .verbs_per_op()
            .expect("chains are self-recycling")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{ClientDest, OffloadCtx};
    use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
    use rnic_sim::wqe::WorkRequest;

    struct Rig {
        sim: Simulator,
        client: NodeId,
        backups: Vec<ReplicationLog>,
        repl: ReplicationOffload,
        cqp: rnic_sim::ids::QpId,
        /// The client QP's send CQ.
        ccq: rnic_sim::ids::CqId,
        pid: ProcessId,
        req: MemoryRegion,
        ctx: OffloadCtx,
    }

    const VLEN: u32 = 16;
    const DEPTH: u32 = 4;

    fn rig(nbackups: usize) -> Rig {
        let mut sim = Simulator::new(SimConfig::default());
        let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
        let primary = sim.add_node("primary", HostConfig::default(), NicConfig::connectx5());
        let mut bnodes = vec![primary];
        let mut backups = Vec::new();
        for i in 0..nbackups {
            let b = sim.add_node(
                if i == 0 { "backup0" } else { "backup1" },
                HostConfig::default(),
                NicConfig::connectx5(),
            );
            bnodes.push(b);
            backups.push(ReplicationLog::create(&mut sim, b, ProcessId(0), 64, VLEN).unwrap());
        }
        sim.connect_nodes(client, primary, LinkConfig::back_to_back());
        sim.connect_mesh(&bnodes, LinkConfig::back_to_back());

        let pid = sim.spawn_process(primary);
        let mut ctx = OffloadCtx::builder(primary)
            .owner(pid)
            .build(&mut sim)
            .unwrap();

        // Client buffers: DEPTH request slots + DEPTH 8-byte ack slots.
        let rec = record_len(VLEN) as u64;
        let req_addr = sim.alloc(client, DEPTH as u64 * rec, 64).unwrap();
        let req = sim
            .register_mr_owned(
                client,
                req_addr,
                DEPTH as u64 * rec,
                Access::all(),
                ProcessId(0),
            )
            .unwrap();
        let ack_addr = sim.alloc(client, DEPTH as u64 * 8, 8).unwrap();
        let ack = sim
            .register_mr_owned(
                client,
                ack_addr,
                DEPTH as u64 * 8,
                Access::all(),
                ProcessId(0),
            )
            .unwrap();

        let mut b = ctx
            .replication()
            .value_len(VLEN)
            .pipeline_depth(DEPTH)
            .respond_to(ClientDest::of(&ack));
        for j in &backups {
            b = b.forward_to(j);
        }
        let repl = b.build_recycled(&mut sim, ctx.pool_mut()).unwrap();

        // Client endpoint: connect to the trigger point, pre-post the
        // cyclic ack RECV ring.
        let ccq = sim.create_cq(client, 64).unwrap();
        let cqp = sim
            .create_qp_owned(
                client,
                QpConfig::new(ccq).sq_depth(64).rq_depth(DEPTH),
                ProcessId(0),
            )
            .unwrap();
        sim.connect_qps(cqp, repl.tp.qp).unwrap();
        for _ in 0..DEPTH {
            sim.post_recv(cqp, WorkRequest::recv(0, 0, 0)).unwrap();
        }
        sim.set_rq_cyclic(cqp).unwrap();

        Rig {
            sim,
            client,
            backups,
            repl,
            cqp,
            ccq,
            pid,
            req,
            ctx,
        }
    }

    fn put(rig: &mut Rig, key: u64, value: &[u8]) -> u64 {
        let inst = rig.repl.take_instance().unwrap();
        let slot = inst % DEPTH as u64;
        let mut rec = Vec::new();
        encode_record_into(&mut rec, inst + 1, key, value, VLEN);
        let addr = rig.req.addr + slot * record_len(VLEN) as u64;
        rig.sim.mem_write(rig.client, addr, &rec).unwrap();
        rig.sim
            .post_send(
                rig.cqp,
                WorkRequest::send(addr, rig.req.lkey, record_len(VLEN)).signaled(),
            )
            .unwrap();
        inst
    }

    fn reap_ack(rig: &mut Rig, inst: u64) {
        rig.sim.run().unwrap();
        let recv_cq = rig.sim.recv_cq_of(rig.cqp);
        let acks = rig.sim.poll_cq(recv_cq, 16);
        let slot = rig.repl.response_tag(inst).unwrap();
        let cqe = acks
            .iter()
            .find(|c| c.imm == Some(slot))
            .expect("ack for instance");
        assert_eq!(cqe.status, rnic_sim::cq::CqeStatus::Success);
        let seq = rig
            .sim
            .mem_read_u64(rig.client, rig.repl.response_slot(inst).unwrap())
            .unwrap();
        assert_eq!(seq, inst + 1, "acked seq");
        rig.repl.complete_instance();
    }

    #[test]
    fn put_round_trips_and_lands_in_every_journal() {
        let mut rig = rig(2);
        let inst = put(&mut rig, 42, &[7; 16]);
        reap_ack(&mut rig, inst);
        for j in &rig.backups {
            let (seq, key, value) = j.read_record(&rig.sim, 0).unwrap().expect("slot 0 written");
            assert_eq!((seq, key), (1, 42));
            assert_eq!(value, vec![7; 16]);
        }
    }

    #[test]
    fn journal_is_append_only_across_rounds() {
        let mut rig = rig(1);
        // Three full rounds: every put gets its own journal slot, no
        // overwrite of acked records.
        for i in 0..(3 * DEPTH as u64) {
            let inst = put(&mut rig, 100 + i, &[i as u8; 16]);
            assert_eq!(inst, i);
            reap_ack(&mut rig, inst);
        }
        let j = rig.backups[0];
        assert_eq!(j.appended(&rig.sim).unwrap(), 3 * DEPTH as u64);
        for i in 0..(3 * DEPTH as u64) {
            let (seq, key, value) = j.read_record(&rig.sim, i).unwrap().expect("slot written");
            assert_eq!((seq, key), (i + 1, 100 + i));
            assert_eq!(value, vec![i as u8; 16]);
        }
    }

    #[test]
    fn steady_state_replication_needs_zero_host_work() {
        let mut rig = rig(2);
        // Warm-up round.
        for i in 0..DEPTH as u64 {
            let inst = put(&mut rig, i, &[1; 16]);
            reap_ack(&mut rig, inst);
        }
        let primary = rig.repl.tp.node;
        let doorbells = rig.sim.node_doorbells(primary);
        let posts = rig.sim.node_posts(primary);
        // Two more full rounds: the primary host does nothing.
        for i in DEPTH as u64..(3 * DEPTH as u64) {
            let inst = put(&mut rig, i, &[2; 16]);
            reap_ack(&mut rig, inst);
        }
        assert_eq!(rig.sim.node_doorbells(primary), doorbells, "doorbells");
        assert_eq!(rig.sim.node_posts(primary), posts, "posts");
        assert_eq!(rig.backups[0].appended(&rig.sim).unwrap(), 3 * DEPTH as u64);
    }

    #[test]
    fn killed_primary_fails_in_flight_puts_with_typed_errors() {
        let mut rig = rig(1);
        let inst = put(&mut rig, 7, &[3; 16]);
        reap_ack(&mut rig, inst);
        // Kill the primary's serving process: chain queues die, journal
        // (backup pid 0) survives.
        assert!(rig.sim.kill_process(rig.repl.tp.node, rig.pid));
        let inst = put(&mut rig, 8, &[4; 16]);
        rig.sim.run().unwrap();
        let cqes = rig.sim.poll_cq(rig.ccq, 16);
        assert!(
            cqes.iter()
                .any(|c| c.status == rnic_sim::cq::CqeStatus::RnrError),
            "in-flight put surfaces a typed error, got {cqes:?}"
        );
        let _ = inst;
        // The acked record is still in the surviving journal.
        let (seq, key, _) = rig.backups[0]
            .read_record(&rig.sim, 0)
            .unwrap()
            .expect("acked record survives");
        assert_eq!((seq, key), (1, 7));
        let _ = &rig.ctx;
    }
}
