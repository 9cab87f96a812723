//! Compiling Turing machines to self-modifying RDMA rings.
//!
//! One WQ-recycling round executes one TM step. Since PR 5 the compiler
//! is an [`redn_core::ir`](crate::ir) front-end: it emits a typed
//! recycled [`IrProgram`] whose patch points, restore marks and WAIT
//! edges are symbolic, and lets `deploy` verify, optimize and lower it.
//! The optimizer elides the phase WAITs whose successors are not patch
//! targets (three per step), merges the per-slot restore WRITEs into two
//! scatter WRITEs (one over the trigger block, one over the action
//! region), and deduplicates identical rule constants — a machine with
//! `R` rules runs a `3R + 20`-slot round instead of the naive `4R + 29`
//! (plus the tail WAIT, kept only when a halting rule must be able to
//! kill the tail ENABLE).
//!
//! The dynamic machine configuration lives in registered host memory:
//!
//! * `head_reg` — the *absolute address* of the cell under the head
//!   (moves are fetch-and-adds of ±8);
//! * `sreg` — the combined configuration register: bytes 0..3 hold the
//!   state, bytes 3..6 the symbol just read. Its low 6 bytes are exactly
//!   a 48-bit conditional operand, so **one** CAS dispatches on
//!   `(state, symbol)` at once;
//! * the tape — one 8-byte cell per position, symbol in the low bytes;
//! * `halt_flag` — set to 1 by halting rules, for host observation.
//!
//! Per round the ring: patches the READ with `head_reg` and reads the
//! cell into `sreg`; injects `sreg` into every rule's trigger WQE;
//! CASes each trigger against its rule's `(state, symbol)` constant
//! (NOOP→WRITE on the unique match); the matched trigger copies its
//! rule's prebuilt *action image* over a generic 5-slot action region
//! (write symbol / set state / move head / halt / raise flag); the
//! action executes; the ring restores its code from pristine images and
//! re-enables itself. A halting image's fourth slot overwrites the tail
//! ENABLE's header with a NOOP — the ring never re-arms and the
//! simulation's event queue simply drains.
//!
//! Every overwritten WQE keeps the signaled-ness of its placeholder, so
//! the per-round completion count is rule-independent — the WAIT
//! thresholds stay exact.

use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;
use rnic_sim::verbs::Opcode;
use rnic_sim::wqe::{header_word, WorkRequest, WQE_SIZE};

use crate::constructs::loops::RecycledLoop;
use crate::ir::{
    DeployOpts, ImageWqe, IrProgram, Kind, Loc, OpBuild, PassReport, RingSpec, WaitCond,
};
use crate::program::ConstPool;
use crate::turing::machine::{Move, TuringMachine};

/// Bytes per tape cell.
const CELL_SIZE: u64 = 8;
/// Number of generic action slots per step.
const ACTION_SLOTS: usize = 5;

/// A Turing machine compiled to an RDMA ring, already armed.
pub struct CompiledTm {
    /// The recycled ring executing the machine.
    pub(crate) lp: RecycledLoop,
    /// What the IR optimizer did to the step program (per round).
    pub report: PassReport,
    /// Node it runs on.
    pub(crate) node: NodeId,
    /// Tape base address.
    pub(crate) tape_addr: u64,
    /// Tape length in cells.
    pub(crate) tape_len: usize,
    /// Head register (absolute cell address).
    pub(crate) head_reg: u64,
    /// Combined state/symbol register.
    pub(crate) sreg: u64,
    /// Halt flag cell.
    pub(crate) halt_flag: u64,
}

impl CompiledTm {
    /// Compile `tm` with the given initial `tape` and `head`, arming the
    /// ring. After this call, `sim.run()` executes the machine to
    /// halting (or until the event budget trips, for non-halting
    /// machines — use `run_until`).
    pub fn compile(
        sim: &mut Simulator,
        node: NodeId,
        owner: ProcessId,
        tm: &TuringMachine,
        tape: &[u32],
        head: usize,
    ) -> Result<CompiledTm> {
        // Refuse before the pool takes simulated DRAM.
        check_input(tm, tape, head)?;
        let mut pool = ConstPool::create(sim, node, 1 << 17, owner)?;
        let opts = DeployOpts::default();
        CompiledTm::build(sim, node, owner, &mut pool, tm, tape, head, opts)
    }

    /// As [`CompiledTm::compile`], placing the machine's memory (tape,
    /// registers, action images) in a caller-owned pool — what
    /// [`OffloadCtx::compile_tm`](crate::ctx::OffloadCtx::compile_tm)
    /// uses, so the context genuinely owns the machine's resources. A
    /// machine needs roughly `tape + 64 * rules + 2 KiB` bytes of pool.
    pub(crate) fn compile_in_pool(
        sim: &mut Simulator,
        node: NodeId,
        owner: ProcessId,
        pool: &mut ConstPool,
        tm: &TuringMachine,
        tape: &[u32],
        head: usize,
    ) -> Result<CompiledTm> {
        CompiledTm::compile_in_pool_with(
            sim,
            node,
            owner,
            pool,
            tm,
            tape,
            head,
            DeployOpts::default(),
        )
    }

    /// As `CompiledTm::compile_in_pool`, with explicit deploy switches
    /// (the equivalence property tests compare `optimize: false` against
    /// the default lowering).
    #[allow(clippy::too_many_arguments)]
    pub fn compile_in_pool_with(
        sim: &mut Simulator,
        node: NodeId,
        owner: ProcessId,
        pool: &mut ConstPool,
        tm: &TuringMachine,
        tape: &[u32],
        head: usize,
        opts: DeployOpts,
    ) -> Result<CompiledTm> {
        check_input(tm, tape, head)?;
        CompiledTm::build(sim, node, owner, pool, tm, tape, head, opts)
    }

    /// The compiler proper, over a checked machine and tape.
    #[allow(clippy::too_many_arguments)]
    fn build(
        sim: &mut Simulator,
        node: NodeId,
        owner: ProcessId,
        pool: &mut ConstPool,
        tm: &TuringMachine,
        tape: &[u32],
        head: usize,
        opts: DeployOpts,
    ) -> Result<CompiledTm> {
        let nrules = tm.rules.len();
        let pool_mr = pool.mr();

        // Machine memory: mutable state lives as direct pool cells (its
        // addresses are part of the machine's identity, not program
        // constants).
        let tape_addr = pool.reserve(sim, tape.len() as u64 * CELL_SIZE)?;
        for (i, &s) in tape.iter().enumerate() {
            sim.mem_write_u64(node, tape_addr + i as u64 * CELL_SIZE, s as u64)?;
        }
        let head_reg = pool.push_u64(sim, tape_addr + head as u64 * CELL_SIZE)?;
        let sreg = pool.push_u64(sim, tm.start as u64)?; // symbol filled per step
        let halt_flag = pool.reserve(sim, 8)?;

        let ring_spec = RingSpec {
            node,
            owner,
            pu: None,
            port: 0,
        };
        let (mut p, ring) = IrProgram::recycled_in(pool, ring_spec);

        // Rule constants are IR consts: identical written symbols / next
        // states across rules deduplicate into one pool cell each.
        let one_cell = p.const_bytes(1u64.to_le_bytes().to_vec());
        let noop_header = p.const_bytes(header_word(Opcode::Noop, 0).to_le_bytes().to_vec());
        let sym_cells: Vec<_> = tm
            .rules
            .iter()
            .map(|r| p.const_bytes((r.write as u64).to_le_bytes().to_vec()))
            .collect();
        let state_cells: Vec<_> = tm
            .rules
            .iter()
            .map(|r| p.const_bytes((r.next as u64).to_le_bytes().to_vec()))
            .collect();

        // Forward-allocated patch targets.
        let read_op = p.alloc(ring);
        let trig_ops: Vec<_> = (0..nrules).map(|_| p.alloc(ring)).collect();
        let action_ops: Vec<_> = (0..ACTION_SLOTS).map(|_| p.alloc(ring)).collect();

        let wait_all = || OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)).label("phase wait");

        // --- Step prologue: read the cell under the head ---------------
        p.push(
            ring,
            OpBuild::new(Kind::Write {
                src: Loc::raw(head_reg, pool_mr.lkey),
                len: 8,
                dst: Loc::field(read_op, crate::encode::WqeField::RemoteAddr),
                imm: None,
            })
            .signaled()
            .label("head->READ patch"),
        );
        p.push(ring, wait_all());
        p.place(
            read_op,
            OpBuild::new(Kind::Read {
                dst: Loc::raw(sreg + 3, pool_mr.lkey),
                len: 3,
                src: Loc::raw(0, pool_mr.rkey), // patched per round
            })
            .signaled()
            .label("cell READ"),
        );
        p.push(ring, wait_all());

        // --- Rule dispatch ---------------------------------------------
        // Inject sreg (state|symbol) into every trigger's id bits.
        for &trig in &trig_ops {
            p.push(
                ring,
                OpBuild::new(Kind::Write {
                    src: Loc::raw(sreg, pool_mr.lkey),
                    len: 6,
                    dst: Loc::field(trig, crate::encode::WqeField::Id),
                    imm: None,
                })
                .signaled()
                .label("sreg inject"),
            );
        }
        p.push(ring, wait_all());

        // One CAS per rule: (state, symbol) packed into 48 bits.
        for (r, rule) in tm.rules.iter().enumerate() {
            let cond = rule.state as u64 | ((rule.read as u64) << 24);
            p.push(
                ring,
                OpBuild::new(Kind::Transmute {
                    target: trig_ops[r],
                    y: cond,
                    into: Opcode::Write,
                })
                .signaled()
                .label("rule dispatch CAS"),
            );
        }
        p.push(ring, wait_all());

        // Build each rule's action image: 5 WQEs worth of bytes, with
        // symbolic source/target patches resolved at lowering.
        for (r, rule) in tm.rules.iter().enumerate() {
            let mut wqes = Vec::with_capacity(ACTION_SLOTS);
            // A0: write the new symbol to tape[head] (remote patched in
            // every round by the head patch below — the image leaves 0).
            wqes.push(ImageWqe {
                wr: WorkRequest::write(0, pool_mr.lkey, 3, 0, pool_mr.rkey).signaled(),
                patches: vec![(crate::encode::WqeField::LocalAddr, Loc::cst(sym_cells[r]))],
            });
            // A1: set the next state (low 3 bytes of sreg).
            wqes.push(ImageWqe {
                wr: WorkRequest::write(0, pool_mr.lkey, 3, sreg, pool_mr.rkey).signaled(),
                patches: vec![(crate::encode::WqeField::LocalAddr, Loc::cst(state_cells[r]))],
            });
            // A2: move the head.
            let delta: u64 = match rule.mv {
                Move::Left => (CELL_SIZE as i64).wrapping_neg() as u64,
                Move::Right => CELL_SIZE,
                Move::Stay => 0,
            };
            wqes.push(ImageWqe {
                wr: WorkRequest::fetch_add(head_reg, pool_mr.rkey, delta, 0, 0).signaled(),
                patches: vec![],
            });
            // A3/A4: halting rules kill the tail ENABLE and raise the
            // flag; others pad with signaled NOOPs.
            if rule.next == tm.halt {
                wqes.push(ImageWqe {
                    wr: WorkRequest::write(0, pool_mr.lkey, 8, 0, 0).signaled(),
                    patches: vec![
                        (crate::encode::WqeField::LocalAddr, Loc::cst(noop_header)),
                        (
                            crate::encode::WqeField::RemoteAddr,
                            Loc::TailEnable {
                                field: crate::encode::WqeField::Header,
                            },
                        ),
                    ],
                });
                wqes.push(ImageWqe {
                    wr: WorkRequest::write(0, pool_mr.lkey, 8, halt_flag, pool_mr.rkey).signaled(),
                    patches: vec![(crate::encode::WqeField::LocalAddr, Loc::cst(one_cell))],
                });
            } else {
                wqes.push(ImageWqe {
                    wr: WorkRequest::noop().signaled(),
                    patches: vec![],
                });
                wqes.push(ImageWqe {
                    wr: WorkRequest::noop().signaled(),
                    patches: vec![],
                });
            }
            let image = p.const_images(wqes);

            // Trigger placeholder r: NOOP -> WRITE(image -> action
            // region), restored from its pristine image every round.
            p.place(
                trig_ops[r],
                OpBuild::new(Kind::Write {
                    src: Loc::cst(image),
                    len: (ACTION_SLOTS as u64 * WQE_SIZE) as u32,
                    dst: Loc::field(action_ops[0], crate::encode::WqeField::Header),
                    imm: None,
                })
                .signaled()
                .placeholder()
                .restore()
                .label("rule trigger"),
            );
        }
        p.push(ring, wait_all());

        // Patch the symbol-write's destination with the current head.
        p.push(
            ring,
            OpBuild::new(Kind::Write {
                src: Loc::raw(head_reg, pool_mr.lkey),
                len: 8,
                dst: Loc::field(action_ops[0], crate::encode::WqeField::RemoteAddr),
                imm: None,
            })
            .signaled()
            .label("head->A0 patch"),
        );
        p.push(ring, wait_all());

        // The generic action region: signaled NOOP placeholders,
        // restored every round.
        for &a in &action_ops {
            p.place(
                a,
                OpBuild::new(Kind::Noop)
                    .signaled()
                    .restore()
                    .label("action slot"),
            );
        }

        let lowered = p.deploy_with(sim, pool, opts, None)?;
        Ok(CompiledTm {
            report: lowered.report(),
            lp: *lowered.ring().expect("a recycled program lowers to a ring"),
            node,
            tape_addr,
            tape_len: tape.len(),
            head_reg,
            sreg,
            halt_flag,
        })
    }

    /// Read the tape back.
    pub fn read_tape(&self, sim: &Simulator) -> Result<Vec<u32>> {
        (0..self.tape_len)
            .map(|i| {
                sim.mem_read_u64(self.node, self.tape_addr + i as u64 * CELL_SIZE)
                    .map(|v| v as u32)
            })
            .collect()
    }

    /// Whether a halting rule fired.
    pub fn halted(&self, sim: &Simulator) -> Result<bool> {
        Ok(sim.mem_read_u64(self.node, self.halt_flag)? == 1)
    }

    /// Current state (low 3 bytes of sreg).
    pub fn state(&self, sim: &Simulator) -> Result<u32> {
        Ok((sim.mem_read_u64(self.node, self.sreg)? & 0xFF_FFFF) as u32)
    }

    /// Current head index; `BadAddress` once the head has left the tape.
    pub fn head_index(&self, sim: &Simulator) -> Result<usize> {
        let addr = sim.mem_read_u64(self.node, self.head_reg)?;
        let cell = addr.checked_sub(self.tape_addr).map(|off| off / CELL_SIZE);
        match cell {
            Some(i) if i < self.tape_len as u64 => Ok(i as usize),
            _ => Err(Error::BadAddress {
                node: self.node,
                addr,
                len: CELL_SIZE,
            }),
        }
    }

    /// TM steps executed so far (ring rounds).
    pub fn steps(&self, sim: &Simulator) -> u64 {
        self.lp.rounds(sim)
    }
}

/// An invalid machine is a verifier error; an empty tape or a head past
/// its end is a malformed request.
fn check_input(tm: &TuringMachine, tape: &[u32], head: usize) -> Result<()> {
    tm.validate().map_err(Error::Verifier)?;
    if head >= tape.len() {
        return Err(Error::InvalidWr("TM head must lie on a non-empty tape"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
    use rnic_sim::time::Time;

    fn setup() -> (Simulator, NodeId) {
        let mut sim = Simulator::new(SimConfig::default());
        let node = sim.add_node("nic-tm", HostConfig::default(), NicConfig::connectx5());
        (sim, node)
    }

    #[test]
    fn busy_beaver_runs_on_the_nic() {
        let (mut sim, node) = setup();
        let tm = TuringMachine::busy_beaver_2();
        let tape = vec![0u32; 9];
        let compiled = CompiledTm::compile(&mut sim, node, ProcessId(0), &tm, &tape, 4).unwrap();
        sim.run().unwrap(); // runs until the machine halts and events drain
        assert!(compiled.halted(&sim).unwrap());
        let reference = tm.run(&tape, 4, 1000);
        assert_eq!(compiled.read_tape(&sim).unwrap(), reference.tape);
        assert_eq!(compiled.state(&sim).unwrap(), tm.halt);
        assert_eq!(compiled.head_index(&sim).unwrap(), reference.head);
        // The round that fires the halting rule is the final TM step.
        assert_eq!(compiled.steps(&sim), reference.steps);
    }

    #[test]
    fn binary_increment_matches_reference() {
        for value in [0u32, 1, 2, 3, 7, 12] {
            let (mut sim, node) = setup();
            let tm = TuringMachine::binary_increment();
            // LSB-first binary with headroom.
            let tape: Vec<u32> = (0..8).map(|i| (value >> i) & 1).collect();
            let compiled =
                CompiledTm::compile(&mut sim, node, ProcessId(0), &tm, &tape, 0).unwrap();
            sim.run().unwrap();
            assert!(compiled.halted(&sim).unwrap(), "value {value}");
            let reference = tm.run(&tape, 0, 1000);
            assert_eq!(
                compiled.read_tape(&sim).unwrap(),
                reference.tape,
                "value {value}"
            );
            // Decode: the tape now holds value + 1.
            let got: u32 = compiled
                .read_tape(&sim)
                .unwrap()
                .iter()
                .enumerate()
                .map(|(i, b)| b << i)
                .sum();
            assert_eq!(got, value + 1);
        }
    }

    /// Compile a request the compiler must refuse: the error, after
    /// checking that the refused compile took no simulated DRAM.
    fn refused(tm: &TuringMachine, tape: &[u32], head: usize) -> Error {
        let (mut sim, node) = setup();
        let before = sim.mem(node).allocated();
        let err = CompiledTm::compile(&mut sim, node, ProcessId(0), tm, tape, head).err();
        assert_eq!(sim.mem(node).allocated(), before, "no DRAM taken");
        err.expect("the compile is refused")
    }

    #[test]
    fn an_empty_tape_is_an_error() {
        let err = refused(&TuringMachine::busy_beaver_2(), &[], 0);
        assert!(matches!(err, Error::InvalidWr(_)), "{err:?}");
    }

    #[test]
    fn a_head_past_the_tape_is_an_error() {
        let tm = TuringMachine::busy_beaver_2();
        let err = refused(&tm, &[0; 4], 4);
        assert!(matches!(err, Error::InvalidWr(_)), "{err:?}");
        // The caller-owned pool path refuses it too.
        let (mut sim, node) = setup();
        let mut pool = ConstPool::create(&mut sim, node, 1 << 17, ProcessId(0)).unwrap();
        let opts = DeployOpts::default();
        let owner = ProcessId(0);
        let err = CompiledTm::compile_in_pool_with(
            &mut sim, node, owner, &mut pool, &tm, &[0; 2], 2, opts,
        );
        assert!(matches!(err, Err(Error::InvalidWr(_))));
    }

    #[test]
    fn a_rule_firing_from_the_halt_state_is_a_verifier_error() {
        let mut tm = TuringMachine::busy_beaver_2();
        tm.rules[0].state = tm.halt;
        let err = refused(&tm, &[0; 4], 0);
        assert!(
            matches!(&err, Error::Verifier(msg) if msg.contains("halt")),
            "{err:?}"
        );
    }

    /// The tape is finite: a head that moves off its left edge reads as
    /// an error, not an underflow.
    #[test]
    fn a_head_off_the_left_edge_is_an_error() {
        use crate::turing::machine::{Move, Rule};
        let (mut sim, node) = setup();
        let rule = Rule {
            state: 0,
            read: 0,
            write: 0,
            mv: Move::Left,
            next: 0,
        };
        let tm = TuringMachine {
            states: 2,
            symbols: 1,
            start: 0,
            halt: 1,
            rules: vec![rule],
        };
        let compiled = CompiledTm::compile(&mut sim, node, ProcessId(0), &tm, &[0; 4], 0).unwrap();
        // Past the edge the machine reads whatever lies before the tape;
        // how the run ends is not the point.
        let _ = sim.run_until(Time::from_us(50));
        assert!(compiled.head_index(&sim).is_err());
    }

    #[test]
    fn spinner_never_halts_t3_nontermination() {
        // Requirement T3 (§3.2): unbounded execution with no CPU. The
        // spinner flips one cell forever; we stop the simulation by time.
        let (mut sim, node) = setup();
        let tm = TuringMachine::spinner();
        let compiled = CompiledTm::compile(&mut sim, node, ProcessId(0), &tm, &[0, 0], 0).unwrap();
        sim.run_until(Time::from_ms(2)).unwrap();
        assert!(!compiled.halted(&sim).unwrap());
        let steps = compiled.steps(&sim);
        assert!(steps > 20, "expected many steps, got {steps}");
        // Still running: events remain pending.
        assert!(sim.pending_events() > 0);
    }

    #[test]
    fn optimizer_shrinks_the_step_ring_and_preserves_the_machine() {
        // The IR pass report: a machine with R rules drops from the
        // naive 4R + 29 round to 3R + 20 (three phase WAITs elided with
        // their FETCH_ADD fix-ups, R + 5 restore WRITEs merged into 2),
        // with the tail WAIT kept because halting rules patch the tail
        // ENABLE.
        let (mut sim, node) = setup();
        let tm = TuringMachine::busy_beaver_2();
        let tape = vec![0u32; 9];
        let compiled = CompiledTm::compile(&mut sim, node, ProcessId(0), &tm, &tape, 4).unwrap();
        let r = tm.rules.len();
        let rep = compiled.report;
        assert_eq!(rep.before.total(), 4 * r + 29, "naive round size");
        assert_eq!(rep.after.total(), 3 * r + 20, "optimized round size");
        assert_eq!(rep.waits_elided, 3);
        assert_eq!(rep.restores_merged, r + 5 - 2);
        assert_eq!(compiled.lp.round_len, (3 * r + 20) as u64);
        // And the optimized machine still computes the right thing.
        sim.run().unwrap();
        let reference = tm.run(&tape, 4, 1000);
        assert_eq!(compiled.read_tape(&sim).unwrap(), reference.tape);
        assert_eq!(compiled.steps(&sim), reference.steps);
    }

    #[test]
    fn unoptimized_lowering_still_runs_the_machine() {
        let (mut sim, node) = setup();
        let tm = TuringMachine::busy_beaver_2();
        let tape = vec![0u32; 9];
        let mut pool = ConstPool::create(&mut sim, node, 1 << 17, ProcessId(0)).unwrap();
        let compiled = CompiledTm::compile_in_pool_with(
            &mut sim,
            node,
            ProcessId(0),
            &mut pool,
            &tm,
            &tape,
            4,
            crate::ir::DeployOpts {
                optimize: false,
                verify: true,
            },
        )
        .unwrap();
        let r = tm.rules.len();
        assert_eq!(compiled.report.after.total(), 4 * r + 29);
        sim.run().unwrap();
        let reference = tm.run(&tape, 4, 1000);
        assert!(compiled.halted(&sim).unwrap());
        assert_eq!(compiled.read_tape(&sim).unwrap(), reference.tape);
        assert_eq!(compiled.steps(&sim), reference.steps);
    }
}
