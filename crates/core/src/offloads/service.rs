//! The serving-offload **frame**: the one machine the paper's §3.4/§5
//! offloads share, with the family-specific *body* plugged in.
//!
//! Every serving offload (a) triggers off a client SEND, (b) lands its
//! response in a per-instance client slot tagged by an immediate, and
//! (c) keeps `pipeline_depth` instances in flight. This module is the
//! only place that knows how that is framed and accounted:
//!
//! * [`InstanceWindow`] — the claim / retire / available / tag / slot
//!   arithmetic, for both deployment modes;
//! * [`ServiceFrame`] — a deployed frame: the [`TriggerPoint`], the
//!   window, the client slot layout and (self-recycling mode) the
//!   lowered round's report, footprint and ring;
//! * `RecycledFrame` — the deploy-time half: it builds the trigger
//!   point, exposes its managed SQ as the response queue, emits the
//!   per-instance trigger WAIT and response-release ENABLE and the
//!   round-tail WAIT with their per-round bumps, lowers the program,
//!   posts the cyclic trigger-RECV ring and claims the trigger CQs in
//!   the footprint;
//! * [`OffloadService`] — what a family adds on top: `arm`.
//!
//! One recycled round, `K = pipeline_depth` instances of `R` responses
//! each (the frame's ops are marked `*`; everything else is the body):
//!
//! ```text
//! response queue (trigger QP's managed SQ):  K*R body placeholders
//!
//! control ring, per instance k:
//!  * WAIT(recv_cq, T0+k+1)            -- trigger k arrived     (+K /round)
//!    ... body: probe / pointer-chase / forward-and-ack ...
//!  * ENABLE(resp queue, (k+1)*R)      -- release k's responses (+K*R /round)
//! round tail:
//!  * WAIT(send_cq, S0+K*R)            -- all responses executed (+K*R /round)
//!    restore WRITEs, FETCH_ADD fix-ups, self-ENABLE (lowering)
//!
//! trigger RQ: K RECVs, one scatter program per instance, cyclic
//! ```
//!
//! The host-armed mode (every instance staged by a family's `arm` call
//! — the Fig 11 PU-parallel probes, the synchronous latency path and the
//! `break` walk need it) shares the window, the trigger point and the
//! slot layout; its WAIT/ENABLE ladders stay in the family bodies.
//!
//! [`HashGetOffload`], [`ListWalkOffload`] and [`ReplicationOffload`]
//! each *are* a frame plus a body: they dereference to their
//! [`ServiceFrame`] (and through it to the [`InstanceWindow`]), so
//! `off.take_instance()`, `off.footprint()` or `off.tp` mean the same
//! thing on every family and are defined exactly once.
//!
//! [`HashGetOffload`]: crate::offloads::hash_lookup::HashGetOffload
//! [`ListWalkOffload`]: crate::offloads::list::ListWalkOffload
//! [`ReplicationOffload`]: crate::offloads::replicate::ReplicationOffload

use std::ops::{Deref, DerefMut};

use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;

use crate::constructs::loops::RecycledLoop;
use crate::ctx::{ClientDest, TriggerPointBuilder};
use crate::ir::analysis::Footprint;
use crate::ir::{
    DeployOpts, EnableTarget, IrProgram, Kind, Loc, Lowered, OpBuild, OpId, PassReport, QId,
    RingSpec, WaitCond,
};
use crate::offloads::rpc::TriggerPoint;
use crate::program::ConstPool;

/// Host-side accounting of a serving offload's instances.
///
/// Trigger RECVs are consumed in arming order, so the k-th client SEND
/// consumes instance k; the window is the host half of that contract.
/// A **self-recycling** window has `depth` ring slots the NIC re-arms
/// itself: an instance is available whenever fewer than `depth` are in
/// flight. A **host-armed** window hands out exactly the instances
/// `arm` calls staged.
#[derive(Clone, Copy, Debug)]
pub struct InstanceWindow {
    depth: u64,
    /// Id of the first instance (a chain rebuilt after failover resumes
    /// its journal sequence here; 0 otherwise).
    base: u64,
    posted: u64,
    completed: u64,
    /// Instances staged by the host so far; `None` when self-recycling.
    armed: Option<u64>,
}

impl InstanceWindow {
    /// A self-recycling window of `depth` slots whose first instance is
    /// `start_slot`.
    pub fn recycled(depth: u32, start_slot: u64) -> InstanceWindow {
        InstanceWindow {
            depth: u64::from(depth),
            base: start_slot,
            posted: 0,
            completed: 0,
            armed: None,
        }
    }

    /// A host-armed window over `depth` client slots, nothing armed yet.
    pub fn host_armed(depth: u32) -> InstanceWindow {
        InstanceWindow {
            armed: Some(0),
            ..InstanceWindow::recycled(depth, 0)
        }
    }

    /// Whether the NIC re-arms instances itself (§3.4 WQ recycling)
    /// rather than the host through [`OffloadService::arm`].
    pub fn is_recycled(&self) -> bool {
        self.armed.is_none()
    }

    /// Instances a client may keep in flight concurrently (the
    /// `.pipeline_depth(n)` deployment knob; 1 = the synchronous path).
    pub fn pipeline_depth(&self) -> u32 {
        self.depth as u32
    }

    /// Claim the next armed instance for a request about to be posted.
    /// Errors when every armed instance already has a request in flight
    /// (host-armed callers re-arm; recycled callers retire a completed
    /// instance first).
    pub fn take_instance(&mut self) -> Result<u64> {
        if self.instances_available() == 0 {
            return Err(Error::InvalidWr(
                "no armed offload instance available (re-arm or complete before posting)",
            ));
        }
        let instance = self.base + self.posted;
        self.posted += 1;
        Ok(instance)
    }

    /// Retire one in-flight instance — its response was reaped (or the
    /// request abandoned). Frees a recycled window's slot (the NIC has
    /// already re-armed it); host-armed slots are replenished by `arm`.
    pub fn complete_instance(&mut self) {
        self.completed = (self.completed + 1).min(self.posted);
    }

    /// Record that the host staged one more instance (host-armed only).
    pub(crate) fn note_armed(&mut self) {
        if let Some(armed) = &mut self.armed {
            *armed += 1;
        }
    }

    /// Armed instances not yet claimed by
    /// [`take_instance`](InstanceWindow::take_instance).
    pub fn instances_available(&self) -> u64 {
        match self.armed {
            Some(armed) => armed - self.posted,
            None => self.depth - (self.posted - self.completed),
        }
    }

    /// Instances armed so far (a self-recycling window's horizon is
    /// always the claimed instances plus the available ones).
    pub fn armed(&self) -> u64 {
        self.armed
            .unwrap_or(self.posted + self.instances_available())
    }

    /// The window slot `instance` occupies (`instance` modulo the depth,
    /// counted from the first instance). A typed error for an instance
    /// below the window's start.
    pub fn slot(&self, instance: u64) -> Result<u64> {
        instance
            .checked_sub(self.base)
            .map(|i| i % self.depth)
            .ok_or(Error::InvalidWr(
                "instance precedes the window's start_slot",
            ))
    }

    /// The immediate a response for `instance` carries: the global
    /// instance id when host-armed, the window slot when self-recycling
    /// (slot images are restored verbatim every round, so the tag is
    /// slot-stable).
    pub fn response_tag(&self, instance: u64) -> Result<u32> {
        let slot = self.slot(instance)?;
        Ok(if self.is_recycled() { slot } else { instance } as u32)
    }
}

/// The deployment parameters every family shares, resolved by its
/// builder: where the frame's queues live and how the client's response
/// buffer is carved into window slots.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FrameSpec {
    pub(crate) node: NodeId,
    pub(crate) owner: ProcessId,
    pub(crate) port: usize,
    /// First processing unit; a fleet deploys one offload per client and
    /// spreads them over the NIC's PUs (§3.5 "Parallelism").
    pub(crate) pu_base: usize,
    pub(crate) depth: u32,
    /// Client buffer the responses land in: `depth` slots of `stride`
    /// bytes.
    pub(crate) dest: ClientDest,
    pub(crate) stride: u64,
}

impl FrameSpec {
    /// The `off`-th PU of this offload's range (wraps at the NIC's PU
    /// count).
    pub(crate) fn pu(&self, sim: &Simulator, off: usize) -> usize {
        (self.pu_base + off) % sim.nic_config(self.node).pus_per_port
    }

    /// Where window slot `slot`'s response lands on the client.
    pub(crate) fn slot_loc(&self, slot: u64) -> Loc {
        Loc::raw(self.dest.addr + slot * self.stride, self.dest.rkey())
    }

    fn trigger_point(&self, sim: &Simulator) -> TriggerPointBuilder {
        TriggerPointBuilder::new(self.node, self.owner)
            .on_pu(self.pu(sim, 0))
            .on_port(self.port)
    }
}

/// The lowered round of a self-recycling frame.
struct Round {
    report: PassReport,
    footprint: Footprint,
    lp: RecycledLoop,
}

/// A deployed serving-offload frame (see the module docs).
pub struct ServiceFrame {
    /// Client-facing trigger endpoint (connect the client's QP to
    /// `tp.qp`; responses ride its managed SQ).
    pub tp: TriggerPoint,
    window: InstanceWindow,
    /// The client response buffer: window slot `s` lands at
    /// `dest + s * stride`.
    dest: u64,
    stride: u64,
    /// recv CQ completion count at creation: instance k's trigger WAIT
    /// uses `trigger_base + k + 1` (absolute, monotonic).
    trigger_base: u64,
    round: Option<Round>,
}

impl Deref for ServiceFrame {
    type Target = InstanceWindow;
    fn deref(&self) -> &InstanceWindow {
        &self.window
    }
}

impl DerefMut for ServiceFrame {
    fn deref_mut(&mut self) -> &mut InstanceWindow {
        &mut self.window
    }
}

impl ServiceFrame {
    /// Deploy a host-armed frame: just the trigger point (default 1024-deep
    /// queues) — every instance is staged later by the family's `arm`.
    pub(crate) fn host_armed(sim: &mut Simulator, spec: FrameSpec) -> Result<ServiceFrame> {
        let tp = spec.trigger_point(sim).build(sim)?;
        Ok(ServiceFrame {
            tp,
            window: InstanceWindow::host_armed(spec.depth),
            dest: spec.dest.addr,
            stride: spec.stride,
            trigger_base: sim.cq_total(tp.recv_cq),
            round: None,
        })
    }

    /// Host-armed only: the `(instance, trigger WAIT threshold)` the
    /// next `arm` call stages.
    pub(crate) fn next_arm(&self) -> Result<(u64, u64)> {
        let armed = self.window.armed.ok_or(Error::InvalidWr(
            "self-recycling offloads are primed once at deploy; arm() is host-armed only",
        ))?;
        Ok((armed, self.trigger_base + armed + 1))
    }

    /// The IR optimizer's before/after verb accounting for one recycled
    /// round (`None` for host-armed offloads, whose instances are staged
    /// per `arm` call).
    pub fn ir_report(&self) -> Option<PassReport> {
        self.round.as_ref().map(|r| r.report)
    }

    /// The deployed round's non-interference footprint, fed to the
    /// [`DeploymentVerifier`](crate::ir::analysis::DeploymentVerifier)
    /// when services are co-deployed on one NIC. `None` for host-armed
    /// offloads: their instances are staged per `arm` call onto
    /// long-lived shared queues, so no single static footprint
    /// describes them.
    pub fn footprint(&self) -> Option<&Footprint> {
        self.round.as_ref().map(|r| &r.footprint)
    }

    /// Optimized WQEs per request (one recycled round divided by its
    /// instances); `None` for host-armed offloads.
    pub fn verbs_per_op(&self) -> Option<f64> {
        self.ir_report()
            .map(|r| r.after.total() as f64 / f64::from(self.pipeline_depth()))
    }

    /// Recycle rounds completed (0 for host-armed offloads).
    pub fn rounds(&self, sim: &Simulator) -> u64 {
        self.round.as_ref().map_or(0, |r| r.lp.rounds(sim))
    }

    /// Client response-slot address for `instance`.
    pub fn response_slot(&self, instance: u64) -> Result<u64> {
        Ok(self.dest + self.slot(instance)? * self.stride)
    }
}

/// What a family adds to its [`ServiceFrame`] at run time. Everything
/// else — claim/retire, tags, slots, report, footprint — is the frame's,
/// reached through the `Deref` supertrait (also on `dyn OffloadService`).
pub trait OffloadService: DerefMut<Target = ServiceFrame> {
    /// Stage one more instance from the host (host-armed mode only; a
    /// self-recycling offload is primed once at deploy and errors here).
    fn arm(&mut self, sim: &mut Simulator, pool: &mut ConstPool) -> Result<()>;

    /// Top the offload up to a full pipeline of armed, unclaimed
    /// instances: host-armed offloads [`arm`](OffloadService::arm) the
    /// shortfall; self-recycling offloads re-arm on the NIC, so this is
    /// a no-op for them.
    fn prime(&mut self, sim: &mut Simulator, pool: &mut ConstPool) -> Result<()> {
        while !self.is_recycled() && self.instances_available() < u64::from(self.pipeline_depth()) {
            self.arm(sim, pool)?;
        }
        Ok(())
    }
}

/// A self-recycling frame under construction: the family pushes its
/// response placeholders onto `resp_q` and its per-instance body onto
/// `ring` between [`trigger_wait`](RecycledFrame::trigger_wait) and
/// [`release`](RecycledFrame::release), then
/// [`finish`](RecycledFrame::finish)es.
pub(crate) struct RecycledFrame {
    /// The whole round as one typed IR program.
    pub(crate) p: IrProgram,
    /// The recycled control ring.
    pub(crate) ring: QId,
    /// The trigger QP's managed SQ, holding the response WQEs.
    pub(crate) resp_q: QId,
    tp: TriggerPoint,
    spec: FrameSpec,
    resp_slots: u64,
    trigger_base: u64,
    send_base: u64,
}

impl RecycledFrame {
    /// Build the trigger point — RQ exactly one round of trigger RECVs,
    /// SQ exactly one round of `responses` WQEs per instance, so both
    /// wrap per round — and open the round's program with its control
    /// ring on the `ring_pu`-th PU of the offload's range.
    pub(crate) fn begin(
        sim: &mut Simulator,
        spec: FrameSpec,
        responses: u64,
        ring_pu: usize,
    ) -> Result<RecycledFrame> {
        let resp_slots = u64::from(spec.depth) * responses;
        let tp = spec
            .trigger_point(sim)
            .sq_depth(resp_slots as u32)
            .rq_depth(spec.depth)
            .build(sim)?;
        let (mut p, ring) = IrProgram::recycled(RingSpec {
            node: spec.node,
            owner: spec.owner,
            pu: Some(spec.pu(sim, ring_pu)),
            port: spec.port,
        });
        let resp_q = p.chain(tp.response_queue(sim));
        Ok(RecycledFrame {
            p,
            ring,
            resp_q,
            tp,
            spec,
            resp_slots,
            trigger_base: sim.cq_total(tp.recv_cq),
            send_base: sim.cq_total(tp.send_cq),
        })
    }

    /// Open instance `inst` on the ring: park until its trigger arrived.
    pub(crate) fn trigger_wait(&mut self, inst: u64) {
        self.p.push(
            self.ring,
            OpBuild::new(Kind::Wait(WaitCond::Absolute {
                cq: self.tp.recv_cq,
                count: self.trigger_base + inst + 1,
            }))
            .bump(u64::from(self.spec.depth))
            .label("trigger wait"),
        );
    }

    /// Close an instance on the ring: release its responses up through
    /// `last`. `fenced` gates the release on every earlier ring WQE
    /// having completed (bodies whose last op is not already awaited).
    pub(crate) fn release(&mut self, last: OpId, fenced: bool) {
        let mut op = OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(last)))
            .bump(self.resp_slots)
            .label("response release");
        if fenced {
            op = op.wait_prev();
        }
        self.p.push(self.ring, op);
    }

    /// Close the round (tail WAIT for every response of the round), lower
    /// it, post the cyclic trigger-RECV ring — `trigger_scatter(lowered,
    /// k)` is instance k's payload-injection program — and claim the
    /// trigger point's CQs in the footprint: they are created outside
    /// the IR, but this offload owns them, and two offloads sharing a
    /// trigger CQ is exactly the interference the deployment verifier
    /// must flag.
    pub(crate) fn finish(
        mut self,
        sim: &mut Simulator,
        pool: &mut ConstPool,
        opts: DeployOpts,
        name: String,
        start_slot: u64,
        trigger_scatter: impl Fn(&Lowered, u64) -> Vec<(u64, u32, u32)>,
    ) -> Result<ServiceFrame> {
        let tp = self.tp;
        self.p.push(
            self.ring,
            OpBuild::new(Kind::Wait(WaitCond::Absolute {
                cq: tp.send_cq,
                count: self.send_base + self.resp_slots,
            }))
            .bump(self.resp_slots)
            .label("responses-executed wait"),
        );
        let lowered = self.p.deploy_with(sim, pool, opts, None)?;
        for inst in 0..u64::from(self.spec.depth) {
            tp.post_trigger_recv(sim, pool, &trigger_scatter(&lowered, inst))?;
        }
        sim.set_rq_cyclic(tp.qp)?;
        let report = lowered.report();
        let lp = *lowered.ring().expect("a recycled program lowers to a ring");
        let mut footprint = lowered.into_footprint().named(name);
        for cq in [tp.recv_cq, tp.send_cq] {
            footprint.claim_cq(cq);
        }
        Ok(ServiceFrame {
            tp,
            window: InstanceWindow::recycled(self.spec.depth, start_slot),
            dest: self.spec.dest.addr,
            stride: self.spec.stride,
            trigger_base: self.trigger_base,
            round: Some(Round {
                report,
                footprint,
                lp,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::WqeField;
    use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
    use rnic_sim::ids::QpId;
    use rnic_sim::mem::Access;
    use rnic_sim::qp::QpConfig;
    use rnic_sim::wqe::WorkRequest;

    #[test]
    fn recycled_window_wraps_tags_and_frees_slots_on_completion() {
        let mut w = InstanceWindow::recycled(2, 0);
        assert!(w.is_recycled());
        assert_eq!((w.pipeline_depth(), w.instances_available()), (2, 2));
        for round in 0..3u64 {
            for slot in 0..2u64 {
                let inst = w.take_instance().unwrap();
                assert_eq!(inst, 2 * round + slot, "instances count up forever");
                assert_eq!(w.slot(inst).unwrap(), slot, "slots wrap at the depth");
                assert_eq!(w.response_tag(inst).unwrap(), slot as u32, "slot-stable");
            }
            assert_eq!(w.instances_available(), 0);
            assert_eq!(w.armed(), 2 * (round + 1), "horizon = claimed + available");
            w.complete_instance();
            assert_eq!(w.instances_available(), 1, "a reaped response frees a slot");
            w.complete_instance();
        }
        // Retiring more than was claimed never over-credits the window.
        w.complete_instance();
        assert_eq!(w.instances_available(), 2);
    }

    #[test]
    fn host_armed_window_hands_out_exactly_what_was_armed() {
        let mut w = InstanceWindow::host_armed(4);
        assert!(!w.is_recycled());
        assert_eq!(w.instances_available(), 0);
        assert!(w.take_instance().is_err(), "nothing armed yet");
        for _ in 0..6 {
            w.note_armed();
        }
        assert_eq!((w.armed(), w.instances_available()), (6, 6));
        for inst in 0..6u64 {
            assert_eq!(w.take_instance().unwrap(), inst);
            assert_eq!(w.response_tag(inst).unwrap(), inst as u32, "global id");
            assert_eq!(w.slot(inst).unwrap(), inst % 4, "client slots still wrap");
        }
        // Completions do not re-arm a host-armed window; `arm` does.
        w.complete_instance();
        assert_eq!(w.instances_available(), 0);
        w.note_armed();
        assert_eq!(w.take_instance().unwrap(), 6);
    }

    #[test]
    fn start_slot_offsets_instances_but_not_slots() {
        let mut w = InstanceWindow::recycled(4, 10);
        assert_eq!(
            w.take_instance().unwrap(),
            10,
            "the sequence resumes at the base"
        );
        assert_eq!(w.take_instance().unwrap(), 11);
        assert_eq!(w.response_tag(10).unwrap(), 0, "slots restart at 0");
        assert_eq!(w.slot(15).unwrap(), 1);
        // An instance from before the rebuild is not in this window: a
        // typed error, not an arithmetic underflow.
        assert!(matches!(w.slot(9), Err(Error::InvalidWr(_))));
        assert!(matches!(w.response_tag(0), Err(Error::InvalidWr(_))));
    }

    #[test]
    fn full_window_is_a_typed_error() {
        let mut w = InstanceWindow::recycled(3, 0);
        for _ in 0..3 {
            w.take_instance().unwrap();
        }
        assert!(matches!(w.take_instance(), Err(Error::InvalidWr(_))));
        w.complete_instance();
        assert_eq!(w.take_instance().unwrap(), 3, "retiring reopens the window");
    }

    /// Two nodes, a client QP with a response/request buffer pair, and a
    /// frame spec landing `depth` 8-byte responses in the client buffer.
    struct Rig {
        sim: Simulator,
        client: NodeId,
        server: NodeId,
        cqp: QpId,
        src: u64,
        src_lkey: u32,
        spec: FrameSpec,
    }

    fn rig(depth: u32) -> Rig {
        let mut sim = Simulator::new(SimConfig::default());
        let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
        let server = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        sim.connect_nodes(client, server, LinkConfig::back_to_back());
        let len = u64::from(depth) * 8;
        let resp = sim.alloc(client, len, 8).unwrap();
        let rmr = sim.register_mr(client, resp, len, Access::all()).unwrap();
        let src = sim.alloc(client, 8, 8).unwrap();
        let smr = sim.register_mr(client, src, 8, Access::all()).unwrap();
        let ccq = sim.create_cq(client, 64).unwrap();
        let crecv = sim.create_cq(client, 64).unwrap();
        let cqp = sim
            .create_qp(client, QpConfig::new(ccq).recv_cq(crecv))
            .unwrap();
        Rig {
            sim,
            client,
            server,
            cqp,
            src,
            src_lkey: smr.lkey,
            spec: FrameSpec {
                node: server,
                owner: ProcessId(0),
                port: 0,
                pu_base: 0,
                depth,
                dest: ClientDest::of(&rmr),
                stride: 8,
            },
        }
    }

    /// The smallest body the frame can carry: each trigger's 8-byte
    /// payload lands in a pool cell and the released response WRITE_IMMs
    /// it straight back into the instance's client slot.
    fn deploy_echo(r: &mut Rig, pool: &mut ConstPool, start_slot: u64) -> ServiceFrame {
        let spec = r.spec;
        let mut f = RecycledFrame::begin(&mut r.sim, spec, 1, 1).unwrap();
        let mut cells = Vec::new();
        for inst in 0..u64::from(spec.depth) {
            let cell = f.p.const_zeroed(8);
            let resp = f.p.push(
                f.resp_q,
                OpBuild::new(Kind::Write {
                    src: Loc::cst(cell),
                    len: 8,
                    dst: spec.slot_loc(inst),
                    imm: Some(inst as u32),
                })
                .signaled(),
            );
            f.trigger_wait(inst);
            f.release(resp, false);
            cells.push(f.p.const_ref(cell));
        }
        let lkey = pool.mr().lkey;
        let frame = f
            .finish(
                &mut r.sim,
                pool,
                DeployOpts::default(),
                "echo".into(),
                start_slot,
                |_, inst| vec![(cells[inst as usize].addr(), lkey, 8)],
            )
            .unwrap();
        r.sim.connect_qps(r.cqp, frame.tp.qp).unwrap();
        frame
    }

    /// One echo round trip: claim, trigger, run, reap, retire.
    fn echo(r: &mut Rig, frame: &mut ServiceFrame, value: u64) {
        let inst = frame.take_instance().unwrap();
        r.sim.post_recv(r.cqp, WorkRequest::recv(0, 0, 0)).unwrap();
        r.sim.mem_write_u64(r.client, r.src, value).unwrap();
        r.sim
            .post_send(r.cqp, WorkRequest::send(r.src, r.src_lkey, 8))
            .unwrap();
        r.sim.run().unwrap();
        let recv_cq = r.sim.recv_cq_of(r.cqp);
        let cqes = r.sim.poll_cq(recv_cq, 8);
        assert_eq!(cqes.len(), 1, "instance {inst} responds exactly once");
        assert_eq!(cqes[0].imm, Some(frame.response_tag(inst).unwrap()));
        let slot = frame.response_slot(inst).unwrap();
        assert_eq!(r.sim.mem_read_u64(r.client, slot).unwrap(), value);
        frame.complete_instance();
    }

    #[test]
    fn recycled_frame_rearms_itself_with_absolute_monotonic_thresholds() {
        let mut r = rig(2);
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 16, ProcessId(0)).unwrap();
        let mut frame = deploy_echo(&mut r, &mut pool, 0);
        assert!(frame.is_recycled());
        assert!(frame.next_arm().is_err(), "arming is host-armed only");
        assert_eq!(frame.footprint().unwrap().name, "echo");
        let rep = frame.ir_report().unwrap();
        assert_eq!(
            frame.verbs_per_op(),
            Some(rep.after.total() as f64 / 2.0),
            "one round serves `depth` requests"
        );
        // Ring slot 2 is instance 0's trigger WAIT (after the two head
        // FETCH_ADDs): the §3.4 fix-up invariant, observed in ring memory.
        let ring = frame.round.as_ref().unwrap().lp.queue;
        let wait_operand = ring.slot_addr(2) + WqeField::Operand.offset();
        let before = r.sim.mem_read_u64(r.server, wait_operand).unwrap();
        // Warm up one round, then 3 more with the host counters flat.
        for v in 0..2 {
            echo(&mut r, &mut frame, 0xA0 + v);
        }
        let (doorbells, posts) = (r.sim.node_doorbells(r.server), r.sim.node_posts(r.server));
        let pool_used = pool.used();
        for v in 0..6 {
            echo(&mut r, &mut frame, 0xB0 + v);
        }
        assert_eq!(
            r.sim.node_doorbells(r.server),
            doorbells,
            "no host doorbells"
        );
        assert_eq!(r.sim.node_posts(r.server), posts, "no host posts");
        assert_eq!(pool.used(), pool_used, "no pool churn");
        assert!(frame.rounds(&r.sim) >= 3, "rounds {}", frame.rounds(&r.sim));
        let after = r.sim.mem_read_u64(r.server, wait_operand).unwrap();
        assert_eq!(
            after,
            before + 2 * 4,
            "the trigger WAIT advances by K per round"
        );
    }

    #[test]
    fn recycled_frame_with_a_start_slot_resumes_the_sequence() {
        let mut r = rig(2);
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 16, ProcessId(0)).unwrap();
        let mut frame = deploy_echo(&mut r, &mut pool, 7);
        assert_eq!(frame.response_slot(7).unwrap(), r.spec.dest.addr);
        assert_eq!(frame.response_slot(8).unwrap(), r.spec.dest.addr + 8);
        assert!(frame.response_slot(6).is_err(), "typed, not an underflow");
        // Instances 7, 8, 9 ride slots 0, 1, 0 — `echo` checks tag and slot.
        for v in 0..3 {
            echo(&mut r, &mut frame, 0xC0 + v);
        }
        assert_eq!(frame.take_instance().unwrap(), 10);
    }

    #[test]
    fn host_armed_frame_numbers_arms_in_trigger_order() {
        let mut r = rig(2);
        let mut frame = ServiceFrame::host_armed(&mut r.sim, r.spec).unwrap();
        assert!(!frame.is_recycled());
        assert!(frame.footprint().is_none() && frame.ir_report().is_none());
        assert_eq!(frame.rounds(&r.sim), 0);
        let base = r.sim.cq_total(frame.tp.recv_cq);
        assert!(frame.take_instance().is_err(), "nothing armed yet");
        for k in 0..3u64 {
            // Instance k fires on the (k+1)-th trigger after deploy.
            assert_eq!(frame.next_arm().unwrap(), (k, base + k + 1));
            frame.note_armed();
        }
        assert_eq!(frame.instances_available(), 3);
        assert_eq!(frame.take_instance().unwrap(), 0);
        // Global ids as tags; client slots wrap at the depth.
        assert_eq!(frame.response_tag(2).unwrap(), 2);
        assert_eq!(frame.response_slot(2).unwrap(), r.spec.dest.addr);
    }
}
