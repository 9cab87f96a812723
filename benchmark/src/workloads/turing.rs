//! `turing`: a binary counter compiled to a self-recycling RDMA ring
//! (`CompiledTm::compile`) and run to overflow with `Simulator::run`.
//! Pure `rnic_sim` + `redn_core::turing`: no session, no generator.
//!
//! The machine (6 rules, 3 symbols) increments a little-endian counter
//! between two end markers: `INC` carries rightwards over 1s, `RET`
//! walks back to the left marker, and the carry running into the right
//! marker halts. The seed picks the counter's start value (in the low
//! eighth of its range, so a pass is always 7/8 or more of a full count).

use std::time::Instant;

use redn_core::turing::compile::CompiledTm;
use redn_core::turing::machine::{Move, Rule, TuringMachine};
use rnic_sim::config::{HostConfig, NicConfig};
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;

use super::{counters, layer_rows, sim_config, Bench, Check, Pass, Size, Traced};
use crate::gen::Rng;
use crate::metrics::Ledger;
use crate::stats::{self, Latency};
use crate::trace::{Call, Tracer};

const INC: u32 = 0;
const RET: u32 = 1;
const HALT: u32 = 2;
/// Tape symbol of the two end markers.
const MARK: u32 = 2;

pub fn counter_machine() -> TuringMachine {
    let rule = |state, read, write, mv, next| Rule {
        state,
        read,
        write,
        mv,
        next,
    };
    TuringMachine {
        states: 3,
        symbols: 3,
        start: INC,
        halt: HALT,
        rules: vec![
            rule(INC, 1, 0, Move::Right, INC),
            rule(INC, 0, 1, Move::Left, RET),
            rule(INC, MARK, MARK, Move::Stay, HALT),
            rule(RET, 0, 0, Move::Left, RET),
            rule(RET, 1, 1, Move::Left, RET),
            rule(RET, MARK, MARK, Move::Right, INC),
        ],
    }
}

/// `[MARK, bit 0 .. bit n-1, MARK]` holding `value`; the head starts on
/// bit 0.
fn tape(bits: u32, value: u64) -> Vec<u32> {
    let mut t = vec![MARK];
    t.extend((0..bits).map(|b| ((value >> b) & 1) as u32));
    t.push(MARK);
    t
}

struct Machine {
    sim: Simulator,
    node: NodeId,
    tm: CompiledTm,
    compile_us: f64,
}

pub struct Turing {
    bits: u32,
    rng: Rng,
    /// Start value of the first measured pass, which the checked pass
    /// replays against the reference interpreter.
    first_start: u64,
    passes_run: u64,
    setup_compile_us: f64,
    /// Bytes a machine bump-allocates in its node's DRAM arena.
    dram_bytes: u64,
}

fn machine(bits: u32, start: u64) -> Result<Machine> {
    let mut sim = Simulator::new(sim_config());
    let node = sim.add_node("nic-tm", HostConfig::default(), NicConfig::connectx5());
    let t0 = Instant::now();
    let tm = CompiledTm::compile(
        &mut sim,
        node,
        ProcessId(0),
        &counter_machine(),
        &tape(bits, start),
        1,
    )?;
    Ok(Machine {
        sim,
        node,
        tm,
        compile_us: t0.elapsed().as_secs_f64() * 1e6,
    })
}

impl Turing {
    pub fn setup(seed: u64, size: Size, tr: &mut Tracer) -> Result<Turing> {
        let bits = match size {
            Size::Full => 12,
            Size::Smoke => 6,
        };
        tr.begin("setup", "benchmark");
        tr.begin("CompiledTm::compile", "redn_core::turing");
        // The warm-up: the same machine counting its top sixteenth.
        let mut warm = machine(bits, (1 << bits) - (1 << (bits - 4)))?;
        tr.end();
        tr.begin("warm-up", "benchmark");
        warm.sim.run()?;
        tr.end();
        tr.end();
        let mut t = Turing {
            bits,
            rng: Rng::new(seed, 1),
            first_start: 0,
            passes_run: 0,
            setup_compile_us: warm.compile_us,
            dram_bytes: warm.sim.mem(warm.node).allocated(),
        };
        t.first_start = t.next_start();
        Ok(t)
    }

    fn next_start(&mut self) -> u64 {
        self.rng.below(1 << (self.bits - 3))
    }
}

impl Bench for Turing {
    fn pass(&mut self) -> Result<Pass> {
        let start = if self.passes_run == 0 {
            self.first_start
        } else {
            self.next_start()
        };
        self.passes_run += 1;
        let mut m = machine(self.bits, start)?;
        m.sim.run()?;
        if !m.tm.halted(&m.sim)? {
            return Err(Error::Verifier("the counter machine did not halt".into()));
        }
        // Every step is the same ring round and takes the same simulated
        // time, so median and p99 step time are both the pass's mean
        // (which carries the ring's start-up in its last digits).
        let steps = m.tm.steps(&m.sim);
        let step_us = m.sim.now().as_us_f64() / steps as f64;
        Ok(Pass {
            ops: steps,
            failed: 0,
            sim_elapsed: m.sim.now(),
            latency: Some(Latency {
                count: steps as usize,
                p50_us: step_us,
                p99_us: step_us,
            }),
        })
    }

    /// Replay the first pass and compare tape, head, state and step
    /// count with the reference interpreter.
    fn check(&mut self) -> Result<Check> {
        let start = self.first_start;
        let mut m = machine(self.bits, start)?;
        m.sim.run()?;
        let steps = m.tm.steps(&m.sim);
        let want = counter_machine().run(&tape(self.bits, start), 1, u64::MAX);
        let right = want.halted
            && m.tm.halted(&m.sim)?
            && m.tm.read_tape(&m.sim)? == want.tape
            && m.tm.head_index(&m.sim)? == want.head
            && m.tm.state(&m.sim)? == want.state
            && steps == want.steps;
        Ok(Check {
            attempted: want.steps,
            failed: if right { 0 } else { want.steps },
            latency: None,
        })
    }

    fn sim_dram_bytes(&mut self) -> u64 {
        self.dram_bytes
    }

    fn ledger(&mut self, seconds: f64, tr: &mut Tracer, out: &mut Ledger) -> Result<()> {
        out.set(
            "setup.warmup_ms",
            tr.span_ns("warm-up").unwrap_or(0) as f64 / 1e6,
        );
        let mut compile_us = vec![self.setup_compile_us];
        let mut traced_passes = Traced::default();
        tr.begin("passes", "benchmark");
        let t_all = Instant::now();
        let mut round = 0;
        while round < 2 || t_all.elapsed().as_secs_f64() < seconds {
            let traced = round % 2 == 1;
            let start = self.next_start();
            let mut m = machine(self.bits, start)?;
            compile_us.push(m.compile_us);
            let before = counters(&m.sim, &[m.node]);
            let t0 = Instant::now();
            if traced {
                // `Simulator::run`, one event at a time under a lap.
                tr.begin_pass();
                tr.enter(Call::Step);
                while m.sim.step()? {
                    tr.enter(Call::Step);
                }
                tr.enter(Call::Driver);
            } else {
                m.sim.run()?;
            }
            let wall_ns = t0.elapsed().as_nanos() as f64;
            let steps = m.tm.steps(&m.sim);
            let after = counters(&m.sim, &[m.node]);
            traced_passes.add(
                traced.then_some(&*tr),
                wall_ns,
                steps,
                after.events - before.events,
                (0, 0),
            );
            if round == 0 {
                layer_rows(&m.sim, &[m.node], &before, &after, steps, out);
                out.set(
                    "turing.events_per_step",
                    (after.events - before.events) as f64 / steps as f64,
                );
                out.set(
                    "turing.sim_us_per_step",
                    (after.now - before.now).as_us_f64() / steps as f64,
                );
                out.set("turing.slots_per_round", f64::from(m.tm.report.ring_slots));
                out.set("ir.ring_slots", f64::from(m.tm.report.ring_slots));
                out.set("ir.verbs_per_op_before", m.tm.report.before.total() as f64);
                out.set("ir.verbs_per_op_after", m.tm.report.after.total() as f64);
                out.set("ir.pool_bytes_placed", m.tm.report.pool_bytes_placed as f64);
            }
            round += 1;
        }
        tr.end();
        out.set("turing.compile_us", stats::median(&compile_us));
        traced_passes.rows(tr, out);
        Ok(())
    }
}
