//! Linked-list traversal offload (paper §5.3, Fig 12).
//!
//! List nodes are `[next: u64][key: 48 bits + pad][value: value_len]`.
//! The client sends `[N0(8B)][x(6B)]` — the head pointer and the wanted
//! key. Per unrolled iteration the chain:
//!
//! 1. READs the current node, scattering `next` into the *next*
//!    iteration's READ remote-address field, `key` into the response
//!    WQE's id bits, and the value into a per-iteration staging buffer;
//! 2. WRITEs the key operand into the iteration's CAS compare field (the
//!    paper's R3 — it notes this write can be folded into the RECV
//!    scatter for lists short enough to fit the 16-SGE limit);
//! 3. CASes the response header: on a key match the response NOOP
//!    becomes a WRITE_IMM carrying the staged value back to the client;
//! 4. optionally (Fig 13's `+break` variant) a second conditional
//!    transmutes a break NOOP whose WRITE suppresses the response's
//!    completion flag, starving the next iteration's WAIT — the loop
//!    exits early instead of walking the remaining nodes.
//!
//! This module is the pointer-chase **body** and the request payload
//! encoding; triggering, instance claim/tag/retire accounting and the
//! framing of a self-recycling round are the shared frame in
//! [`service`](crate::offloads::service). Two deployment modes:
//!
//! * **host-armed** ([`ListWalkBuilder::build`]): every walk instance is
//!   staged by a host [`ListWalkOffload::arm`] call (the only mode the
//!   `+break` variant runs in).
//! * **self-recycling** ([`ListWalkBuilder::build_recycled`]): one ring
//!   of `pipeline_depth` walk instances is staged at deploy and the NIC
//!   re-arms it forever. The R3 key-copy is folded into the trigger
//!   RECV's scatter (the client repeats `x` once per iteration), which
//!   caps `max_nodes` at 15 under the 16-SGE RECV limit — exactly the
//!   trade-off §5.3 describes.
//!
//! [`ListWalkBuilder::build`]: crate::ctx::ListWalkBuilder::build
//! [`ListWalkBuilder::build_recycled`]: crate::ctx::ListWalkBuilder::build_recycled

use std::ops::{Deref, DerefMut};

use rnic_sim::error::{Error, Result};
use rnic_sim::sim::Simulator;
use rnic_sim::verbs::Opcode;
use rnic_sim::wqe::header_word;

use crate::ctx::{ChainQueueBuilder, ListWalkSpec};
use crate::encode::{operand48, WqeField};
use crate::ir::{
    CId, DeployOpts, EnableTarget, IrProgram, Kind, Loc, OpBuild, OpId, SgeSpec, WaitCond,
};
use crate::offloads::service::{OffloadService, RecycledFrame, ServiceFrame};
use crate::program::{ChainQueue, ConstPool};

/// Offset of the next pointer in a node.
pub const NODE_OFF_NEXT: u64 = 0;
/// Offset of the key in a node.
pub const NODE_OFF_KEY: u64 = 8;
/// Offset of the value in a node.
pub const NODE_OFF_VALUE: u64 = 16;

/// Node header size (next + key), before the value.
pub const NODE_HEADER: u64 = 16;

/// Most nodes a *recycled* walk may visit: the folded R3 needs one
/// 6-byte scatter entry per iteration plus one for the head pointer,
/// and RECVs scatter at most 16 ways (§5.3).
pub const RECYCLED_MAX_NODES: usize = 15;

/// Bytes of a walk's client trigger payload for unroll factor
/// `max_nodes`: `[N0(8B)][x(6B)]` host-armed, `[N0][x(6B) × max_nodes]`
/// self-recycling (the folded R3 repeats the key per iteration) — what
/// [`ListWalkOffload::client_payload`] produces, computable before
/// deployment for endpoint sizing.
pub fn client_payload_len(max_nodes: usize, recycled: bool) -> usize {
    8 + 6 * if recycled { max_nodes } else { 1 }
}

/// Encode a list node.
pub fn encode_node(next: u64, key: u64, value: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(NODE_HEADER as usize + value.len());
    b.extend_from_slice(&next.to_le_bytes());
    b.extend_from_slice(&operand48(key).to_le_bytes()[..6]);
    b.extend_from_slice(&[0u8; 2]);
    b.extend_from_slice(value);
    b
}

/// The server-side list-walk offload: a [`ServiceFrame`] (trigger point,
/// instance window, client slot layout) plus the pointer-chase body.
pub struct ListWalkOffload {
    frame: ServiceFrame,
    spec: ListWalkSpec,
    /// The host-armed mode's long-lived queues (`None` when
    /// self-recycling: the whole round lives on the frame's ring).
    host: Option<HostQueues>,
}

/// Queues every host `arm` call stages one walk instance onto.
#[derive(Clone, Copy)]
struct HostQueues {
    chain: ChainQueue,
    ctrl: ChainQueue,
    /// Loopback queue holding break placeholders (their WRITEs target
    /// the *server's* response ring, so they cannot ride the
    /// client-facing QP, whose one-sided verbs address client memory).
    brk_q: Option<ChainQueue>,
    /// ctrl CQ completion count at deploy. Only the per-iteration R3
    /// WRITEs are signaled on the control queue, so instance `k`'s
    /// `i`-th R3 completes at exactly `ctrl_cqe_base + k*N + i + 1` —
    /// absolute and monotonic, robust when many instances are armed
    /// before any runs (pipelined arming).
    ctrl_cqe_base: u64,
}

impl Deref for ListWalkOffload {
    type Target = ServiceFrame;
    fn deref(&self) -> &ServiceFrame {
        &self.frame
    }
}

impl DerefMut for ListWalkOffload {
    fn deref_mut(&mut self) -> &mut ServiceFrame {
        &mut self.frame
    }
}

impl OffloadService for ListWalkOffload {
    fn arm(&mut self, sim: &mut Simulator, pool: &mut ConstPool) -> Result<()> {
        ListWalkOffload::arm(self, sim, pool).map(|_| ())
    }
}

/// One iteration's response placeholder: a NOOP carrying the WRITE_IMM
/// of the iteration's staged value. The local address is fixed; only
/// the id bits (stored key) are patched per request.
fn response_slot_op(spec: &ListWalkSpec, staging: CId, slot: u64, imm: u64) -> OpBuild {
    OpBuild::new(Kind::Write {
        src: Loc::cst(staging),
        len: spec.value_len,
        dst: spec.frame.slot_loc(slot),
        imm: Some(imm as u32),
    })
    .signaled()
    .placeholder()
    .label("response slot")
}

/// One iteration's node READ, scattering `next` -> `next_target` (the
/// next iteration's READ.remote_addr, or scratch for the last), key(6B)
/// -> `id_of`'s id bits (whatever WQE the CAS will test), pad(2B) ->
/// scratch, value -> `staging`.
fn node_read(
    p: &mut IrProgram,
    spec: &ListWalkSpec,
    next_target: Loc,
    id_of: OpId,
    scratch: CId,
    staging: CId,
) -> OpBuild {
    let table = p.const_sges(vec![
        SgeSpec {
            target: next_target,
            len: 8,
        },
        SgeSpec {
            target: Loc::field(id_of, WqeField::Id),
            len: 6,
        },
        SgeSpec {
            target: Loc::cst_off(scratch, 8),
            len: 2,
        },
        SgeSpec {
            target: Loc::cst(staging),
            len: spec.value_len,
        },
    ]);
    OpBuild::new(Kind::ReadSgl {
        table,
        entries: 4,
        src: Loc::raw(0, spec.list.rkey()), // patched: head / prev next
    })
    .signaled()
    .label("node READ")
}

/// The conditional CAS (compare id bits patched with `x`): on a key
/// match, transmutes `target` into `into`.
fn key_cas(target: OpId, into: Opcode) -> OpBuild {
    OpBuild::new(Kind::Transmute { target, y: 0, into })
        .signaled()
        .label("key CAS")
}

impl ListWalkOffload {
    /// Deploy the host-armed offload's queues (called by
    /// [`ListWalkBuilder`](crate::ctx::ListWalkBuilder)).
    pub(crate) fn deploy(sim: &mut Simulator, spec: ListWalkSpec) -> Result<ListWalkOffload> {
        let f = spec.frame;
        let frame = ServiceFrame::host_armed(sim, f)?;
        let chain = ChainQueueBuilder::new(f.node, f.owner)
            .managed()
            .depth(2048)
            .on_pu(f.pu(sim, 1))
            .on_port(f.port)
            .build(sim)?;
        // The control (and break) queues take the third PU of the
        // client's stride, matching the fleet's host-armed budget of 3
        // PUs per service — without the pin every client's control
        // chain would stack on PU 0 of its port.
        let ctrl = ChainQueueBuilder::new(f.node, f.owner)
            .depth(4096)
            .on_pu(f.pu(sim, 2))
            .on_port(f.port)
            .build(sim)?;
        let brk_q = if spec.break_on_match {
            Some(
                ChainQueueBuilder::new(f.node, f.owner)
                    .managed()
                    .depth(2048)
                    .on_pu(f.pu(sim, 2))
                    .on_port(f.port)
                    .build(sim)?,
            )
        } else {
            None
        };
        Ok(ListWalkOffload {
            frame,
            spec,
            host: Some(HostQueues {
                chain,
                ctrl,
                brk_q,
                ctrl_cqe_base: sim.cq_total(ctrl.cq),
            }),
        })
    }

    /// Deploy the self-recycling variant (§3.4 applied to list
    /// traversal): the frame's recycled round (see
    /// [`service`](crate::offloads::service)) with this body per
    /// instance (`N` = `max_nodes`, probes strictly serialized by
    /// `wait_prev` — a list walk is a pointer chase):
    ///
    /// ```text
    /// READ_0                        -- node -> next READ / resp id / staging
    /// CAS_0   (wait_prev)           -- key match? NOOP -> WRITE_IMM
    /// READ_1  (wait_prev)           -- remote addr patched by READ_0
    /// ...
    /// ```
    ///
    /// The response ring holds `N` restore-marked placeholders per
    /// instance. The R3 key-copy is folded into the trigger RECV
    /// scatter: the client payload is `[N0(8B)][x(6B) × N]` (see
    /// [`ListWalkOffload::client_payload`]), capping `N` at
    /// [`RECYCLED_MAX_NODES`].
    pub(crate) fn deploy_recycled(
        sim: &mut Simulator,
        spec: ListWalkSpec,
        pool: &mut ConstPool,
        opts: DeployOpts,
    ) -> Result<ListWalkOffload> {
        if spec.break_on_match {
            return Err(Error::InvalidWr(
                "break_on_match suppresses completions; recycled walks need absolute counts",
            ));
        }
        if spec.max_nodes > RECYCLED_MAX_NODES {
            return Err(Error::InvalidWr(
                "recycled list-walk folds the key into the 16-SGE trigger scatter: max_nodes <= 15",
            ));
        }
        let k = u64::from(spec.frame.depth);
        let n = spec.max_nodes;
        let mut f = RecycledFrame::begin(sim, spec.frame, n as u64, 1)?;

        // Per-(instance, iteration) value staging buffers plus a shared
        // scrap sink for final next pointers and key pads. Mutable cells:
        // the dedup pass never merges them.
        let staging: Vec<_> = (0..k as usize * n)
            .map(|_| f.p.const_zeroed(spec.value_len as u64))
            .collect();
        let scratch = f.p.const_zeroed(16);
        let mut resp_ops = Vec::with_capacity(staging.len());
        for inst in 0..k {
            for i in 0..n {
                let stage_buf = staging[inst as usize * n + i];
                let op = response_slot_op(&spec, stage_buf, inst, inst).restore();
                resp_ops.push(f.p.push(f.resp_q, op));
            }
        }

        let mut scatter_ids = Vec::with_capacity(k as usize);
        for inst in 0..k {
            f.trigger_wait(inst);
            let at = inst as usize * n;
            // Forward-allocate the READs: READ_i's scatter aims at
            // READ_{i+1}'s remote-address field (the pointer chase).
            let reads: Vec<_> = (0..n).map(|_| f.p.alloc(f.ring)).collect();
            // Trigger payload is [N0][x × N]: head entry first, then one
            // key entry per iteration's CAS (the folded R3).
            let mut entries = vec![SgeSpec {
                target: Loc::field(reads[0], WqeField::RemoteAddr),
                len: 8,
            }];
            for i in 0..n {
                let resp = resp_ops[at + i];
                let next_target = match reads.get(i + 1) {
                    Some(&next) => Loc::field(next, WqeField::RemoteAddr),
                    None => Loc::cst(scratch),
                };
                let mut read =
                    node_read(&mut f.p, &spec, next_target, resp, scratch, staging[at + i]);
                if i > 0 {
                    // The pointer chase: READ_i's remote address is
                    // patched by READ_{i-1}'s scatter.
                    read = read.wait_prev();
                }
                f.p.place(reads[i], read);
                let cas =
                    f.p.push(f.ring, key_cas(resp, Opcode::WriteImm).wait_prev());
                entries.push(SgeSpec {
                    target: Loc::field_off(cas, WqeField::Operand, 2),
                    len: 6,
                });
            }
            f.release(resp_ops[at + n - 1], true);
            scatter_ids.push(f.p.scatter(entries));
        }
        let name = format!("list-walk(n={})@node{}", n, spec.frame.node.0);
        let frame = f.finish(sim, pool, opts, name, 0, |lowered, inst| {
            lowered.scatter(scatter_ids[inst as usize])
        })?;
        Ok(ListWalkOffload {
            frame,
            spec,
            host: None,
        })
    }

    /// Stage one walk instance (host-armed mode only; self-recycling
    /// offloads are primed once at deploy). Returns the number of WRs
    /// staged (the paper reports ~50 WRs without break vs ~30 with,
    /// Fig 13). With `pipeline_depth > 1` the instance's response lands
    /// in its own client slot and carries the instance id as immediate
    /// data, so several walks can be armed (and in flight) at once.
    pub fn arm(&mut self, sim: &mut Simulator, pool: &mut ConstPool) -> Result<usize> {
        let (instance, trigger_count) = self.frame.next_arm()?;
        let slot = self.frame.slot(instance)?;
        let tp = self.frame.tp;
        let host = self.host.expect("host-armed frame has queues");
        let spec = self.spec;
        // With breaks, suppressed completions make posted != CQE count, so
        // break offloads are single-shot: gate on the live CQ totals.
        let resp_cqe_base = sim.cq_total(tp.send_cq);

        // One linear IR program per walk instance (see the hash-get arm
        // for the pattern): responses and break placeholders on managed
        // queues, the READ→CAS unroll on the managed chain queue, and the
        // WAIT/ENABLE doorbell ladder on the unmanaged control queue.
        let mut p = IrProgram::linear();
        let resp_qid = p.chain(tp.response_queue(sim));
        let chain_qid = p.chain(host.chain);
        let ctrl_qid = p.chain(host.ctrl);
        let brk_qid = host.brk_q.map(|q| p.chain(q));

        // The client's key is scattered once into a pool cell; each
        // iteration's R3 WRITE copies it into that iteration's CAS.
        let x_cell = p.const_zeroed(8);
        // Per-iteration value staging buffers, plus scratch sinks for the
        // last iteration's next pointer and the key pads.
        let staging: Vec<_> = (0..spec.max_nodes)
            .map(|_| p.const_zeroed(spec.value_len as u64))
            .collect();
        let scratch = p.const_zeroed(16);

        // Stage responses (and break placeholders) first so READ scatter
        // tables can reference their fields.
        let mut resp_ops = Vec::with_capacity(spec.max_nodes);
        let mut break_ops = Vec::new();
        for &stage_buf in staging.iter() {
            let resp = p.push(resp_qid, response_slot_op(&spec, stage_buf, slot, instance));
            resp_ops.push(resp);

            if let Some(brk_qid) = brk_qid {
                // Break placeholder: NOOP -> WRITE(12B) onto the response
                // slot, turning it into an *unsignaled* WRITE_IMM. Lives
                // on a server loopback queue so its WRITE addresses
                // server memory.
                let mut image = Vec::with_capacity(12);
                image.extend_from_slice(&header_word(Opcode::WriteImm, 0).to_le_bytes());
                image.extend_from_slice(&0u32.to_le_bytes());
                let image_c = p.const_bytes(image);
                break_ops.push(
                    p.push(
                        brk_qid,
                        OpBuild::new(Kind::Write {
                            src: Loc::cst(image_c),
                            len: 12,
                            dst: Loc::field(resp, WqeField::Header),
                            imm: None,
                        })
                        .signaled()
                        .placeholder()
                        .label("break placeholder"),
                    ),
                );
            }
        }

        // Forward-allocate the chain ops: READ_i's scatter aims at
        // READ_{i+1}'s remote-address field, and each R3 WRITE aims at
        // its iteration's CAS before the CAS is placed.
        let reads: Vec<_> = (0..spec.max_nodes).map(|_| p.alloc(chain_qid)).collect();
        let cases: Vec<_> = (0..spec.max_nodes).map(|_| p.alloc(chain_qid)).collect();

        for i in 0..spec.max_nodes {
            let next_target = match reads.get(i + 1) {
                Some(&next) => Loc::field(next, WqeField::RemoteAddr),
                None => Loc::cst(scratch),
            };
            // The conditional tests (and transmutes) either the break
            // NOOP (break variant) or the response NOOP directly.
            let (id_target, into) = match break_ops.get(i) {
                Some(&brk) => (brk, Opcode::Write),
                None => (resp_ops[i], Opcode::WriteImm),
            };
            let read = node_read(&mut p, &spec, next_target, id_target, scratch, staging[i]);
            p.place(reads[i], read);

            // The trigger gate must precede anything that consumes the
            // scattered arguments (x_cell is only valid after the RECV).
            if i == 0 {
                p.push(
                    ctrl_qid,
                    OpBuild::new(Kind::Wait(WaitCond::Absolute {
                        cq: tp.recv_cq,
                        count: trigger_count,
                    }))
                    .label("trigger wait"),
                );
            }

            // R3: copy the key operand into the CAS compare field (paper
            // Fig 12's WRITE; x lives in a pool cell filled by the RECV).
            p.push(
                ctrl_qid,
                OpBuild::new(Kind::Write {
                    src: Loc::cst(x_cell),
                    len: 6,
                    dst: Loc::field_off(cases[i], WqeField::Operand, 2),
                    imm: None,
                })
                .signaled()
                .label("R3 key copy"),
            );
            p.place(cases[i], key_cas(id_target, into));

            // Release the READ after (a) trigger/previous iteration and
            // (b) the R3 write completed. Only the R3 WRITEs are signaled
            // on the control queue, so instance k's i-th R3 completes at
            // the absolute, monotonic `ctrl_cqe_base + k*N + i + 1` —
            // correct even with many instances armed before any runs.
            let r3_done = host.ctrl_cqe_base + instance * spec.max_nodes as u64 + i as u64 + 1;
            let mut ctrl = |kind: Kind, label: &'static str| {
                p.push(ctrl_qid, OpBuild::new(kind).label(label));
            };
            ctrl(
                Kind::Wait(WaitCond::Absolute {
                    cq: host.ctrl.cq,
                    count: r3_done,
                }),
                "R3 wait",
            );
            ctrl(
                Kind::Enable(EnableTarget::OpsThrough(reads[i])),
                "READ release",
            );
            ctrl(Kind::Wait(WaitCond::OpDonePosted(reads[i])), "READ wait");
            ctrl(
                Kind::Enable(EnableTarget::OpsThrough(cases[i])),
                "CAS release",
            );
            ctrl(Kind::Wait(WaitCond::OpDonePosted(cases[i])), "CAS wait");
            let respond = Kind::Enable(EnableTarget::OpsThrough(resp_ops[i]));
            match break_ops.get(i) {
                // Release the break WQE; wait for it; release the
                // response; gate the next iteration on the response's
                // completion (suppressed by a taken break).
                Some(&brk) => {
                    ctrl(Kind::Enable(EnableTarget::OpsThrough(brk)), "break release");
                    ctrl(Kind::Wait(WaitCond::OpDonePosted(brk)), "break wait");
                    ctrl(respond, "response release");
                    ctrl(
                        Kind::Wait(WaitCond::Absolute {
                            cq: tp.send_cq,
                            count: resp_cqe_base + i as u64 + 1,
                        }),
                        "response wait",
                    );
                }
                // Plain variant: release the response; all iterations
                // always run (Fig 5 semantics).
                None => ctrl(respond, "response release"),
            }
        }

        // Trigger RECV: N0 -> first READ's remote address, x -> x_cell.
        let sid = p.scatter(vec![
            SgeSpec {
                target: Loc::field(reads[0], WqeField::RemoteAddr),
                len: 8,
            },
            SgeSpec {
                target: Loc::cst(x_cell),
                len: 6,
            },
        ]);

        let wr_count = p.queue_len(resp_qid)
            + p.queue_len(chain_qid)
            + p.queue_len(ctrl_qid)
            + brk_qid.map_or(0, |q| p.queue_len(q));

        let mut lowered = p.deploy(sim, pool)?;
        lowered.post(sim, chain_qid)?;
        lowered.post(sim, resp_qid)?;
        if let Some(q) = brk_qid {
            lowered.post(sim, q)?;
        }
        lowered.post(sim, ctrl_qid)?;

        tp.post_trigger_recv(sim, pool, &lowered.scatter(sid))?;
        self.frame.note_armed();
        Ok(wr_count)
    }

    /// Client payload: `[N0(8B)][x(6B)]` host-armed, `[N0(8B)][x(6B) × N]`
    /// self-recycling (the folded R3 scatters the key into every
    /// iteration's CAS, so the client repeats it once per iteration).
    pub fn client_payload(&self, head: u64, key: u64) -> Vec<u8> {
        let mut p = Vec::new();
        self.client_payload_into(head, key, &mut p);
        p
    }

    /// [`ListWalkOffload::client_payload`] into a caller-owned buffer
    /// (cleared first), so a session stages requests without allocating.
    pub fn client_payload_into(&self, head: u64, key: u64, p: &mut Vec<u8>) {
        let len = client_payload_len(self.spec.max_nodes, self.is_recycled());
        p.clear();
        p.reserve(len);
        p.extend_from_slice(&head.to_le_bytes());
        while p.len() < len {
            p.extend_from_slice(&operand48(key).to_le_bytes()[..6]);
        }
    }

    /// Maximum nodes walked per request — the unroll factor.
    pub fn max_nodes(&self) -> usize {
        self.spec.max_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
    use rnic_sim::ids::{NodeId, ProcessId};
    use rnic_sim::mem::Access;
    use rnic_sim::qp::QpConfig;
    use rnic_sim::wqe::WorkRequest;

    use crate::ctx::OffloadCtx;
    use rnic_sim::mem::MemoryRegion;

    struct Rig {
        sim: Simulator,
        client: NodeId,
        server: NodeId,
        nodes: u64,
        lmr: MemoryRegion,
        rmr: MemoryRegion,
        resp: u64,
        cqp: rnic_sim::ids::QpId,
        crecv_cq: rnic_sim::ids::CqId,
        csrc: u64,
        csrc_lkey: u32,
    }

    const VAL_LEN: u32 = 64;
    const NODE_SIZE: u64 = NODE_HEADER + VAL_LEN as u64;

    fn rig(list_keys: &[u64]) -> Rig {
        rig_slots(list_keys, 1)
    }

    /// Like [`rig`] but with a client response buffer of `slots` slots
    /// (for pipelined walks).
    fn rig_slots(list_keys: &[u64], slots: u64) -> Rig {
        let mut sim = Simulator::new(SimConfig::default());
        let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
        let server = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        sim.connect_nodes(client, server, LinkConfig::back_to_back());
        // Build the list: node i holds key list_keys[i], value filled
        // with byte (i + 1).
        let n = list_keys.len() as u64;
        let nodes = sim.alloc(server, n * NODE_SIZE, 64).unwrap();
        let lmr = sim
            .register_mr(server, nodes, n * NODE_SIZE, Access::all())
            .unwrap();
        for (i, &k) in list_keys.iter().enumerate() {
            let addr = nodes + i as u64 * NODE_SIZE;
            let next = if (i as u64) + 1 < n {
                addr + NODE_SIZE
            } else {
                0
            };
            let value = vec![(i + 1) as u8; VAL_LEN as usize];
            let bytes = encode_node(next, k, &value);
            sim.mem_write(server, addr, &bytes).unwrap();
        }
        let resp_len = VAL_LEN as u64 * slots;
        let resp = sim.alloc(client, resp_len, 8).unwrap();
        let rmr = sim
            .register_mr(client, resp, resp_len, Access::all())
            .unwrap();
        let csrc = sim.alloc(client, 256, 8).unwrap();
        let smr = sim.register_mr(client, csrc, 256, Access::all()).unwrap();
        let ccq = sim.create_cq(client, 64).unwrap();
        let crecv_cq = sim.create_cq(client, 64).unwrap();
        let cqp = sim
            .create_qp(client, QpConfig::new(ccq).recv_cq(crecv_cq))
            .unwrap();
        Rig {
            sim,
            client,
            server,
            nodes,
            lmr,
            rmr,
            resp,
            cqp,
            crecv_cq,
            csrc,
            csrc_lkey: smr.lkey,
        }
    }

    fn walk(r: &mut Rig, off: &mut ListWalkOffload, pool: &mut ConstPool, key: u64) -> Option<u8> {
        off.arm(&mut r.sim, pool).unwrap();
        r.sim.post_recv(r.cqp, WorkRequest::recv(0, 0, 0)).unwrap();
        let payload = off.client_payload(r.nodes, key);
        r.sim.mem_write(r.client, r.csrc, &payload).unwrap();
        r.sim
            .post_send(
                r.cqp,
                WorkRequest::send(r.csrc, r.csrc_lkey, payload.len() as u32),
            )
            .unwrap();
        r.sim.run().unwrap();
        let cqes = r.sim.poll_cq(r.crecv_cq, 8);
        if cqes.is_empty() {
            None
        } else {
            Some(r.sim.mem_read(r.client, r.resp, 1).unwrap()[0])
        }
    }

    /// One walk through a recycled offload (no arm call); returns the
    /// first value byte of the instance's slot on a hit.
    fn walk_recycled(r: &mut Rig, off: &mut ListWalkOffload, key: u64) -> Option<u8> {
        let instance = off.take_instance().unwrap();
        r.sim.post_recv(r.cqp, WorkRequest::recv(0, 0, 0)).unwrap();
        let payload = off.client_payload(r.nodes, key);
        r.sim.mem_write(r.client, r.csrc, &payload).unwrap();
        r.sim
            .post_send(
                r.cqp,
                WorkRequest::send(r.csrc, r.csrc_lkey, payload.len() as u32),
            )
            .unwrap();
        r.sim.run().unwrap();
        let cqes = r.sim.poll_cq(r.crecv_cq, 8);
        off.complete_instance();
        match cqes.first() {
            None => None,
            Some(cqe) => {
                assert_eq!(
                    cqe.imm,
                    Some(off.response_tag(instance).unwrap()),
                    "response immediate must be the slot-stable tag"
                );
                let slot = off.response_slot(instance).unwrap();
                Some(r.sim.mem_read(r.client, slot, 1).unwrap()[0])
            }
        }
    }

    /// Deploy through the fluent API — the construction path everything
    /// outside this module uses.
    fn deploy(r: &mut Rig, max_nodes: usize, brk: bool) -> ListWalkOffload {
        let ctx = OffloadCtx::builder(r.server).build(&mut r.sim).unwrap();
        let mut b = ctx
            .list_walk()
            .list(crate::ctx::TableRegion::of(&r.lmr))
            .value_len(VAL_LEN)
            .respond_to(crate::ctx::ClientDest::of(&r.rmr))
            .max_nodes(max_nodes);
        if brk {
            b = b.break_on_match();
        }
        b.build(&mut r.sim).unwrap()
    }

    fn deploy_recycled(
        r: &mut Rig,
        max_nodes: usize,
        depth: u32,
        pool: &mut ConstPool,
    ) -> ListWalkOffload {
        let ctx = OffloadCtx::builder(r.server).build(&mut r.sim).unwrap();
        ctx.list_walk()
            .list(crate::ctx::TableRegion::of(&r.lmr))
            .value_len(VAL_LEN)
            .respond_to(crate::ctx::ClientDest::of(&r.rmr))
            .max_nodes(max_nodes)
            .pipeline_depth(depth)
            .build_recycled(&mut r.sim, pool)
            .unwrap()
    }

    #[test]
    fn walk_finds_first_node() {
        let mut r = rig(&[10, 11, 12, 13]);
        let mut off = deploy(&mut r, 4, false);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 18, ProcessId(0)).unwrap();
        assert_eq!(walk(&mut r, &mut off, &mut pool, 10), Some(1));
    }

    #[test]
    fn walk_finds_deep_node() {
        let mut r = rig(&[10, 11, 12, 13]);
        let mut off = deploy(&mut r, 4, false);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 18, ProcessId(0)).unwrap();
        assert_eq!(walk(&mut r, &mut off, &mut pool, 13), Some(4));
    }

    #[test]
    fn walk_miss_returns_nothing() {
        let mut r = rig(&[10, 11, 12, 13]);
        let mut off = deploy(&mut r, 4, false);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 18, ProcessId(0)).unwrap();
        assert_eq!(walk(&mut r, &mut off, &mut pool, 99), None);
    }

    #[test]
    fn break_variant_finds_and_stops_early() {
        let mut r = rig(&[20, 21, 22, 23, 24, 25, 26, 27]);
        let mut off = deploy(&mut r, 8, true);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 19, ProcessId(0)).unwrap();
        assert_eq!(walk(&mut r, &mut off, &mut pool, 21), Some(2));
        // Early exit: only iterations 0 and 1 executed their responses;
        // iterations 2..8 never ran.
        assert_eq!(r.sim.wq_executed(r.sim.sq_of(off.tp.qp)), 2);
    }

    #[test]
    fn no_break_walks_everything() {
        let mut r = rig(&[20, 21, 22, 23]);
        let mut off = deploy(&mut r, 4, false);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 18, ProcessId(0)).unwrap();
        let wrs = off.arm(&mut r.sim, &mut pool).unwrap();
        assert!(
            wrs > 30,
            "the paper's no-break variant uses ~50 WRs, got {wrs}"
        );
        // All 8 chain WQEs (4 READs + 4 CASes) execute even though key
        // matches the first node.
        r.sim.post_recv(r.cqp, WorkRequest::recv(0, 0, 0)).unwrap();
        let payload = off.client_payload(r.nodes, 20);
        r.sim.mem_write(r.client, r.csrc, &payload).unwrap();
        r.sim
            .post_send(
                r.cqp,
                WorkRequest::send(r.csrc, r.csrc_lkey, payload.len() as u32),
            )
            .unwrap();
        r.sim.run().unwrap();
        assert_eq!(r.sim.wq_executed(r.sim.sq_of(off.tp.qp)), 4);
    }

    #[test]
    fn pipelined_walks_land_in_distinct_slots() {
        // Four host-armed walk instances posted back-to-back before the
        // simulator runs: per-instance response slots + instance-id
        // immediates, the client-side contract the fleet relies on.
        let keys = [30u64, 31, 32, 33];
        let mut r = rig_slots(&keys, 4);
        let ctx = OffloadCtx::builder(r.server).build(&mut r.sim).unwrap();
        let mut off = ctx
            .list_walk()
            .list(crate::ctx::TableRegion::of(&r.lmr))
            .value_len(VAL_LEN)
            .respond_to(crate::ctx::ClientDest::of(&r.rmr))
            .max_nodes(4)
            .pipeline_depth(4)
            .build(&mut r.sim)
            .unwrap();
        assert_eq!(off.pipeline_depth(), 4);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 20, ProcessId(0)).unwrap();
        for _ in 0..4 {
            off.arm(&mut r.sim, &mut pool).unwrap();
        }
        assert_eq!(off.instances_available(), 4);
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(off.take_instance().unwrap(), i as u64);
            r.sim.post_recv(r.cqp, WorkRequest::recv(0, 0, 0)).unwrap();
            let payload = off.client_payload(r.nodes, key);
            let src = r.csrc + i as u64 * 16;
            r.sim.mem_write(r.client, src, &payload).unwrap();
            r.sim
                .post_send(
                    r.cqp,
                    WorkRequest::send(src, r.csrc_lkey, payload.len() as u32),
                )
                .unwrap();
        }
        assert_eq!(off.instances_available(), 0);
        assert!(off.take_instance().is_err());
        r.sim.run().unwrap();
        let cqes = r.sim.poll_cq(r.crecv_cq, 8);
        assert_eq!(cqes.len(), 4, "all four pipelined walks respond");
        let imms: Vec<u32> = cqes.iter().map(|c| c.imm.expect("instance id")).collect();
        for i in 0..4u64 {
            assert!(imms.contains(&(i as u32)), "instance {i} reported");
            assert_eq!(
                r.sim
                    .mem_read(r.client, off.response_slot(i).unwrap(), 1)
                    .unwrap()[0],
                (i + 1) as u8,
                "instance {i} value in its own slot"
            );
        }
    }

    #[test]
    fn recycled_walk_serves_across_rounds() {
        let keys = [40u64, 41, 42, 43];
        let mut r = rig_slots(&keys, 2);
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 20, ProcessId(0)).unwrap();
        let mut off = deploy_recycled(&mut r, 4, 2, &mut pool);
        assert!(off.is_recycled());
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        // 8 walks through 2 slots = 4 recycle rounds; hits at every
        // depth, zero pool churn after the prime.
        let pool_used = pool.used();
        for g in 0..8u64 {
            let i = (g % 4) as usize;
            let got = walk_recycled(&mut r, &mut off, keys[i]);
            assert_eq!(got, Some((i + 1) as u8), "walk {g}");
        }
        assert_eq!(pool.used(), pool_used, "steady state pushes no pool bytes");
        assert!(off.rounds(&r.sim) >= 3, "rounds {}", off.rounds(&r.sim));
    }

    #[test]
    fn recycled_walk_miss_does_not_poison_next_round() {
        let keys = [50u64, 51, 52];
        let mut r = rig_slots(&keys, 1);
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 20, ProcessId(0)).unwrap();
        let mut off = deploy_recycled(&mut r, 3, 1, &mut pool);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        // Round 0: miss (every CAS fails, all responses stay NOOPs).
        assert_eq!(walk_recycled(&mut r, &mut off, 99), None);
        // Rounds 1..3: hits — the restore chain re-armed the responses.
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(walk_recycled(&mut r, &mut off, key), Some((i + 1) as u8));
        }
        // And a miss again, still clean.
        assert_eq!(walk_recycled(&mut r, &mut off, 1234), None);
    }

    #[test]
    fn recycled_walk_steady_state_needs_no_host_doorbells_or_posts() {
        let keys = [60u64, 61, 62, 63];
        let mut r = rig_slots(&keys, 2);
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 20, ProcessId(0)).unwrap();
        let mut off = deploy_recycled(&mut r, 4, 2, &mut pool);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        // Warm up one full round, then measure.
        for &key in &keys[..2] {
            walk_recycled(&mut r, &mut off, key).unwrap();
        }
        let doorbells = r.sim.node_doorbells(r.server);
        let posts = r.sim.node_posts(r.server);
        for g in 0..6u64 {
            let i = (g % 4) as usize;
            walk_recycled(&mut r, &mut off, keys[i]).unwrap();
        }
        assert_eq!(
            r.sim.node_doorbells(r.server),
            doorbells,
            "the server CPU rings no doorbells in steady state"
        );
        assert_eq!(
            r.sim.node_posts(r.server),
            posts,
            "the server CPU posts no WQEs in steady state"
        );
    }

    #[test]
    fn recycled_walk_rejects_break_long_unrolls_and_arm() {
        let mut r = rig(&[70, 71]);
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 20, ProcessId(0)).unwrap();
        let ctx = OffloadCtx::builder(r.server).build(&mut r.sim).unwrap();
        let base = ctx
            .list_walk()
            .list(crate::ctx::TableRegion::of(&r.lmr))
            .value_len(VAL_LEN)
            .respond_to(crate::ctx::ClientDest::of(&r.rmr));
        let err = match base.break_on_match().build_recycled(&mut r.sim, &mut pool) {
            Err(e) => e,
            Ok(_) => panic!("break must be rejected in recycling mode"),
        };
        assert!(format!("{err}").contains("break"));
        let err = match base.max_nodes(16).build_recycled(&mut r.sim, &mut pool) {
            Err(e) => e,
            Ok(_) => panic!("max_nodes > 15 must be rejected in recycling mode"),
        };
        assert!(format!("{err}").contains("15"));
        let err = match base.break_on_match().pipeline_depth(2).build(&mut r.sim) {
            Err(e) => e,
            Ok(_) => panic!("break walks are single-instance"),
        };
        assert!(format!("{err}").contains("single-instance"));
        let mut off = deploy_recycled(&mut r, 2, 1, &mut pool);
        assert!(off.arm(&mut r.sim, &mut pool).is_err(), "arm is host-only");
    }

    #[test]
    fn node_encoding_layout() {
        let n = encode_node(0x1000, 0xABCD, &[7; 4]);
        assert_eq!(u64::from_le_bytes(n[0..8].try_into().unwrap()), 0x1000);
        let mut k = [0u8; 8];
        k[..6].copy_from_slice(&n[8..14]);
        assert_eq!(u64::from_le_bytes(k), 0xABCD);
        assert_eq!(&n[16..20], &[7; 4]);
    }
}
