//! Loop constructs (paper §3.4, Figs 5 and 6).
//!
//! Three strategies, mirroring the paper:
//!
//! * **Unrolled** ([`UnrolledWhile`]) — the loop size is known a priori;
//!   every iteration's WRs are posted in advance. Each iteration is an
//!   `if` testing the iteration's value against the injected operand and
//!   transmuting a per-iteration response NOOP into a WRITE (Fig 5). All
//!   iterations always execute.
//! * **With break** ([`UnrolledWhile`] with `break_enabled`) — a second
//!   self-modification level: a matching CAS transmutes a *break* NOOP
//!   into a WRITE that overwrites the response WQE's header *and flags*,
//!   turning it into an **unsignaled** response WRITE. The next
//!   iteration's WAIT counts on that completion, so suppressing it exits
//!   the loop (Fig 6).
//! * **WQ recycling** ([`RecycledLoop`]) — unbounded loops with no CPU:
//!   the managed ring's tail carries a WAIT + self-ENABLE, and
//!   fetch-and-adds bump every WAIT/ENABLE count by the per-round delta
//!   (the monotonic `wqe_count` fix-ups of §3.4). Slots that get
//!   transmuted or patched during a round are restored from pristine
//!   images before the ring wraps, so every round starts from the same
//!   code. A ring is an [`IrProgram::recycled`](crate::ir::IrProgram::recycled)
//!   program; lowering lays the round out and this module keeps only
//!   the handle to the running ring.

use rnic_sim::error::Result;
use rnic_sim::sim::Simulator;
use rnic_sim::verbs::Opcode;
use rnic_sim::wqe::{header_word, WorkRequest};

use crate::encode::{operand48, WqeField};
use crate::program::ChainQueue;

/// A built unrolled `while` loop searching for a match among `n`
/// per-iteration constants.
///
/// Iteration `i` fires `responses[i]` when the injected operand `x`
/// equals `values[i]`.
pub struct UnrolledWhile {
    /// Injection points (6 bytes each) — one per iteration; the same `x`
    /// is scattered into every iteration's comparison target, which is
    /// why the paper notes RECV's 16-scatter limit caps the loop size
    /// (§5.3). Resolve after the owning program deploys.
    pub(crate) x_injects: Vec<crate::ir::FieldRef>,
}

impl UnrolledWhile {
    /// Build the loop into `p`.
    ///
    /// * `values[i]` — the constant iteration `i` compares against
    ///   (`A[i]` in Fig 5).
    /// * `responses[i]` — the verb to fire on a match (usually a WRITE
    ///   returning `i` or a value to the client).
    /// * `break_enabled` — compile the Fig 6 break: iterations after a
    ///   match never execute.
    pub fn build(
        p: &mut crate::ir::IrProgram,
        ctrl: crate::ir::QId,
        dyn_q: crate::ir::QId,
        values: &[u64],
        responses: &[WorkRequest],
        break_enabled: bool,
    ) -> UnrolledWhile {
        use crate::ir::{EnableTarget, Kind, Loc, OpBuild, WaitCond};
        assert_eq!(values.len(), responses.len());
        let mut inject = Vec::new();

        for (&value, response) in values.iter().zip(responses) {
            let y = operand48(value);
            let resp_op = response.wqe.opcode;
            assert!(resp_op != Opcode::Noop);

            if break_enabled {
                // Stage the break placeholder, then the response, in the
                // managed queue. The break's pristine 12-byte image
                // deposits header = (resp_op, 0), flags = 0 (unsignaled)
                // on the response slot: the response fires but the loop's
                // completion chain starves.
                let mut image = Vec::with_capacity(12);
                image.extend_from_slice(&header_word(resp_op, 0).to_le_bytes());
                image.extend_from_slice(&0u32.to_le_bytes());
                let image_c = p.const_bytes(image);

                let resp_id = p.alloc(dyn_q); // forward ref: brk targets it
                let brk = p.push(
                    dyn_q,
                    OpBuild::new(Kind::Write {
                        src: Loc::cst(image_c),
                        len: 12,
                        dst: Loc::field(resp_id, WqeField::Header),
                        imm: None,
                    })
                    .signaled()
                    .placeholder() // transmuted on match
                    .label("while break"),
                );

                // Response placeholder: NOOP, signaled — its completion
                // drives the next iteration.
                p.place(
                    resp_id,
                    OpBuild::new(Kind::Raw(*response))
                        .signaled()
                        .placeholder()
                        .label("while response"),
                );

                // x is injected into the *break* WQE's id; the CAS tests it
                // there and transmutes NOOP -> WRITE(break image).
                inject.push(p.field_ref(brk, WqeField::Id));
                p.push(
                    ctrl,
                    OpBuild::new(Kind::Transmute {
                        target: brk,
                        y,
                        into: Opcode::Write,
                    })
                    .signaled()
                    .label("while CAS"),
                );
                p.push(
                    ctrl,
                    OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)).label("while CAS wait"),
                );
                p.push(
                    ctrl,
                    OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(brk)))
                        .label("while break release"),
                );
                // Release the response only after the break (NOOP or
                // WRITE) completed — its overwrite must land first.
                p.push(
                    ctrl,
                    OpBuild::new(Kind::Wait(WaitCond::OpDoneSignaled(brk)))
                        .label("while break wait"),
                );
                p.push(
                    ctrl,
                    OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(resp_id)))
                        .label("while response release"),
                );
                // The loop gate: proceed to iteration i+1 only once the
                // response WQE *completed*. A break-overwritten response is
                // unsignaled, so this WAIT starves and the loop exits.
                p.push(
                    ctrl,
                    OpBuild::new(Kind::Wait(WaitCond::OpDoneSignaled(resp_id)))
                        .label("while loop gate"),
                );
            } else {
                // Plain unrolled iteration: CAS transmutes the response
                // NOOP directly (Fig 5) — every iteration executes.
                let resp = p.push(
                    dyn_q,
                    OpBuild::new(Kind::Raw(*response))
                        .signaled()
                        .placeholder()
                        .label("while response"),
                );
                inject.push(p.field_ref(resp, WqeField::Id));
                p.push(
                    ctrl,
                    OpBuild::new(Kind::Transmute {
                        target: resp,
                        y,
                        into: resp_op,
                    })
                    .signaled()
                    .label("while CAS"),
                );
                p.push(
                    ctrl,
                    OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)).label("while CAS wait"),
                );
                p.push(
                    ctrl,
                    OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(resp)))
                        .label("while response release"),
                );
            }
        }

        UnrolledWhile { x_injects: inject }
    }

    /// Host-side injection of the search operand into every iteration
    /// (after the owning program deployed).
    pub fn inject_x(&self, sim: &mut Simulator, x: u64) -> Result<()> {
        let x = operand48(x);
        for fr in &self.x_injects {
            fr.write(sim, &x.to_le_bytes()[..6])?;
        }
        Ok(())
    }
}

/// A running CPU-free loop (§3.4 WQ recycling): the handle
/// [`Lowered::ring`](crate::ir::Lowered::ring) gives to a deployed
/// [`IrProgram::recycled`](crate::ir::IrProgram::recycled) program.
///
/// The ring re-executes forever — surviving host crashes, since no CPU
/// ever touches it again — until something turns its tail ENABLE into a
/// NOOP (a compiled halt does so with a chain WRITE) or the simulation
/// stops it. What one round holds, and in what order, is
/// `redn_core::ir::lower`'s business alone.
#[derive(Clone, Copy, Debug)]
pub struct RecycledLoop {
    /// The ring.
    pub(crate) queue: ChainQueue,
    /// Slots per round (== ring depth).
    pub(crate) round_len: u64,
}

impl RecycledLoop {
    /// Rounds completed so far (from the ring's execution counter).
    pub fn rounds(&self, sim: &Simulator) -> u64 {
        sim.wq_executed(self.queue.sq) / self.round_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ChainQueueBuilder;
    use crate::ir::{IrProgram, Kind, Loc, OpBuild, QId, RingSpec, WaitCond};
    use crate::program::ConstPool;
    use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
    use rnic_sim::ids::{NodeId, ProcessId};
    use rnic_sim::mem::{Access, MemoryRegion};
    use rnic_sim::time::Time;

    /// Halt a loop host-side: patch its tail ENABLE into a NOOP.
    fn halt(sim: &mut Simulator, lp: &RecycledLoop) {
        let tail_enable = lp.queue.slot_addr(lp.round_len - 1);
        let addr = tail_enable + WqeField::Header.offset();
        let noop = header_word(Opcode::Noop, 0);
        sim.mem_write_u64(lp.queue.node, addr, noop).unwrap();
    }

    struct Rig {
        sim: Simulator,
        node: NodeId,
        ctrl: ChainQueue,
        dyn_q: ChainQueue,
        pool: ConstPool,
        out: u64,
        out_rkey: u32,
        vals: u64,
        vals_lkey: u32,
    }

    fn rig() -> Rig {
        let mut sim = Simulator::new(SimConfig::default());
        let node = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
        let ctrl = ChainQueueBuilder::new(node, ProcessId(0))
            .depth(256)
            .build(&mut sim)
            .unwrap();
        let dyn_q = ChainQueueBuilder::new(node, ProcessId(0))
            .managed()
            .depth(256)
            .build(&mut sim)
            .unwrap();
        let pool = ConstPool::create(&mut sim, node, 4096, ProcessId(0)).unwrap();
        let out = sim.alloc(node, 8, 8).unwrap();
        let omr = sim.register_mr(node, out, 8, Access::all()).unwrap();
        // A table of iteration markers 100+i to write as responses.
        let vals = sim.alloc(node, 16 * 8, 8).unwrap();
        let vmr = sim.register_mr(node, vals, 16 * 8, Access::all()).unwrap();
        for i in 0..16u64 {
            sim.mem_write_u64(node, vals + i * 8, 100 + i).unwrap();
        }
        Rig {
            sim,
            node,
            ctrl,
            dyn_q,
            pool,
            out,
            out_rkey: omr.rkey,
            vals,
            vals_lkey: vmr.lkey,
        }
    }

    fn build_search(r: &mut Rig, n: usize, brk: bool) -> UnrolledWhile {
        build_search_with(r, n, brk, 12) // matches values[2]
    }

    fn build_search_with(r: &mut Rig, n: usize, brk: bool, x: u64) -> UnrolledWhile {
        let values: Vec<u64> = (0..n as u64).map(|i| 10 + i).collect();
        let responses: Vec<WorkRequest> = (0..n as u64)
            .map(|i| WorkRequest::write(r.vals + i * 8, r.vals_lkey, 8, r.out, r.out_rkey))
            .collect();
        let mut p = crate::ir::IrProgram::linear();
        let ctrl = p.chain(r.ctrl);
        let dyn_q = p.chain(r.dyn_q);
        let lw = UnrolledWhile::build(&mut p, ctrl, dyn_q, &values, &responses, brk);
        let mut lowered = p.deploy(&mut r.sim, &mut r.pool).unwrap();
        lowered.post(&mut r.sim, dyn_q).unwrap();
        lw.inject_x(&mut r.sim, x).unwrap();
        lowered.post(&mut r.sim, ctrl).unwrap();
        lw
    }

    #[test]
    fn unrolled_search_finds_match() {
        let mut r = rig();
        build_search(&mut r, 8, false);
        r.sim.run().unwrap();
        // values[2] == 12 matched -> response 2 wrote 102.
        assert_eq!(r.sim.mem_read_u64(r.node, r.out).unwrap(), 102);
        // Without break, every iteration executes.
        assert_eq!(r.sim.wq_executed(r.dyn_q.sq), 8);
    }

    #[test]
    fn unrolled_search_no_match_writes_nothing() {
        let mut r = rig();
        let _lw = build_search_with(&mut r, 4, false, 999);
        r.sim.run().unwrap();
        assert_eq!(r.sim.mem_read_u64(r.node, r.out).unwrap(), 0);
    }

    #[test]
    fn break_stops_subsequent_iterations() {
        let mut r = rig();
        build_search(&mut r, 8, true);
        r.sim.run().unwrap();
        assert_eq!(r.sim.mem_read_u64(r.node, r.out).unwrap(), 102);
        // Iterations 3..8 never ran: the dynamic queue executed only
        // iterations 0,1,2 (2 WQEs each: break + response).
        assert_eq!(r.sim.wq_executed(r.dyn_q.sq), 6);
    }

    #[test]
    fn break_on_first_iteration_executes_minimum() {
        let mut r = rig();
        let values = vec![42u64, 43, 44, 45];
        let responses: Vec<WorkRequest> = (0..4u64)
            .map(|i| WorkRequest::write(r.vals + i * 8, r.vals_lkey, 8, r.out, r.out_rkey))
            .collect();
        let mut p = crate::ir::IrProgram::linear();
        let ctrl = p.chain(r.ctrl);
        let dyn_q = p.chain(r.dyn_q);
        let lw = UnrolledWhile::build(&mut p, ctrl, dyn_q, &values, &responses, true);
        let mut lowered = p.deploy(&mut r.sim, &mut r.pool).unwrap();
        lowered.post(&mut r.sim, dyn_q).unwrap();
        lw.inject_x(&mut r.sim, 42).unwrap();
        lowered.post(&mut r.sim, ctrl).unwrap();
        r.sim.run().unwrap();
        assert_eq!(r.sim.mem_read_u64(r.node, r.out).unwrap(), 100);
        assert_eq!(r.sim.wq_executed(r.dyn_q.sq), 2); // break + response only
    }

    /// A one-node rig for ring tests: simulator, pool, a counter word
    /// and a fresh recycled program.
    fn ring_rig() -> (Simulator, NodeId, ConstPool, MemoryRegion, IrProgram, QId) {
        let mut sim = Simulator::new(SimConfig::default());
        let node = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
        let pool = ConstPool::create(&mut sim, node, 4096, ProcessId(0)).unwrap();
        let ctr = sim.alloc(node, 8, 8).unwrap();
        let cmr = sim.register_mr(node, ctr, 8, Access::all()).unwrap();
        let (p, ring) = IrProgram::recycled(RingSpec {
            node,
            owner: ProcessId(0),
            pu: None,
            port: 0,
        });
        (sim, node, pool, cmr, p, ring)
    }

    #[test]
    fn recycled_loop_runs_without_cpu() {
        // A ring whose body increments a counter once per round. After
        // deploy armed it, the host never touches it again.
        let (mut sim, node, mut pool, ctr, mut p, ring) = ring_rig();
        p.push(
            ring,
            OpBuild::new(Kind::FetchAdd {
                target: Loc::raw(ctr.addr, ctr.rkey),
                delta: 1,
            })
            .signaled(),
        );
        p.push(ring, OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)));
        let lowered = p.deploy(&mut sim, &mut pool).unwrap();
        let lp = *lowered.ring().expect("a recycled program lowers to a ring");
        let host_work = (sim.node_doorbells(node), sim.node_posts(node));

        // Run for a bounded simulated time; the loop would run forever.
        sim.run_until(Time::from_us(200)).unwrap();
        let rounds = sim.mem_read_u64(node, ctr.addr).unwrap();
        assert!(rounds >= 10, "expected >= 10 rounds, got {rounds}");
        assert!(lp.rounds(&sim) >= rounds - 1);
        assert_eq!(
            (sim.node_doorbells(node), sim.node_posts(node)),
            host_work,
            "no doorbell, no post after arming"
        );

        // Halt and drain: the counter stops, no events remain.
        halt(&mut sim, &lp);
        sim.run().unwrap();
        assert_eq!(sim.pending_events(), 0);
        assert!(sim.mem_read_u64(node, ctr.addr).unwrap() >= rounds);
    }

    #[test]
    fn recycled_loop_with_restore_retransmutes_every_round() {
        // A CAS that always matches (id preset 7) transmutes the NOOP
        // after it into a FETCH_ADD; the restore mark re-arms the NOOP
        // before the ring wraps, so the CAS matches again next round.
        let (mut sim, node, mut pool, ctr, mut p, ring) = ring_rig();
        let carrier = p.alloc(ring);
        p.push(
            ring,
            OpBuild::new(Kind::Transmute {
                target: carrier,
                y: 7,
                into: Opcode::FetchAdd,
            })
            .signaled(),
        );
        p.place(
            carrier,
            OpBuild::new(Kind::FetchAdd {
                target: Loc::raw(ctr.addr, ctr.rkey),
                delta: 1,
            })
            .signaled()
            .placeholder_id(7)
            .restore(),
        );
        p.push(ring, OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)));
        let lowered = p.deploy(&mut sim, &mut pool).unwrap();
        let lp = *lowered.ring().expect("a recycled program lowers to a ring");
        let header = lowered.addr_of(carrier, WqeField::Header);
        let pristine = sim.mem_read_u64(node, header).unwrap();
        assert_eq!(pristine, header_word(Opcode::Noop, 7));

        sim.run_until(Time::from_us(400)).unwrap();
        let count = sim.mem_read_u64(node, ctr.addr).unwrap();
        assert!(count >= 5, "counter {count}");
        // Exactly one add per round means the CAS matched every round —
        // it only does while the slot is a NOOP again each time.
        assert!(lp.rounds(&sim).abs_diff(count) <= 1, "{count} adds");
        // Halted, the ring finishes its round, restore WRITE included:
        // the slot is back to its pristine image.
        halt(&mut sim, &lp);
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(node, header).unwrap(), pristine);
    }
}
