//! Appendix A reproduction: mov emulation and Turing machines on the NIC.

use redn_core::constructs::mov::{MovUnit, RegisterFile};
use redn_core::ctx::OffloadCtx;
use redn_core::ir::IrProgram;
use redn_core::turing::compile::CompiledTm;
use redn_core::turing::machine::TuringMachine;
use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
use rnic_sim::error::Result;
use rnic_sim::ids::ProcessId;
use rnic_sim::mem::Access;
use rnic_sim::sim::Simulator;

use crate::report::Row;

/// Run the three Table 7 addressing modes end to end and a busy-beaver TM
/// on the simulated NIC; report pass/fail plus the TM's per-step cost.
pub fn appendix_a() -> Result<Vec<Row>> {
    let mut rows = Vec::new();

    // mov addressing modes.
    let mut sim = Simulator::new(SimConfig::default());
    let node = sim.add_node("nic", HostConfig::default(), NicConfig::connectx5());
    let mut ctx = OffloadCtx::builder(node)
        .pool_capacity(1 << 14)
        .build(&mut sim)?;
    let ctrl = ctx.chain_queue().depth(256).build(&mut sim)?;
    let patched = ctx.chain_queue().managed().depth(64).build(&mut sim)?;
    let regs = RegisterFile::create(&mut sim, ctx.pool_mut(), 8)?;
    let data = sim.alloc(node, 256, 8)?;
    let dmr = sim.register_mr(node, data, 256, Access::all())?;
    let unit = MovUnit::new(regs, dmr);

    sim.mem_write_u64(node, data + 16, 0xCAFE)?;
    unit.regs.write(&mut sim, node, 1, data + 16)?;
    let mut p = IrProgram::linear();
    let ctrl_q = p.chain(ctrl);
    let patched_q = p.chain(patched);
    unit.mov_imm(&mut p, ctrl_q, 0, 0x42); // immediate
    unit.mov_load(&mut p, ctrl_q, patched_q, 2, 1, 0); // indirect
    unit.mov_load(&mut p, ctrl_q, patched_q, 3, 1, 8); // indexed
    let mut lowered = p.deploy(&mut sim, ctx.pool_mut())?;
    lowered.post(&mut sim, patched_q)?;
    lowered.post(&mut sim, ctrl_q)?;
    sim.mem_write_u64(node, data + 24, 0xD00D)?;
    sim.run()?;
    let imm_ok = unit.regs.read(&sim, node, 0)? == 0x42;
    let ind_ok = unit.regs.read(&sim, node, 2)? == 0xCAFE;
    let idx_ok = unit.regs.read(&sim, node, 3)? == 0xD00D;
    rows.push(Row::new("mov immediate", ok(imm_ok), "WRITE w/ const", ""));
    rows.push(Row::new(
        "mov indirect",
        ok(ind_ok),
        "2 WRITEs, doorbell order",
        "",
    ));
    rows.push(Row::new("mov indexed", ok(idx_ok), "2 WRITEs + ADD", ""));

    // Busy beaver on the NIC.
    let mut sim = Simulator::new(SimConfig::default());
    let node = sim.add_node("nic-tm", HostConfig::default(), NicConfig::connectx5());
    let tm = TuringMachine::busy_beaver_2();
    let tape = vec![0u32; 9];
    let compiled = CompiledTm::compile(&mut sim, node, ProcessId(0), &tm, &tape, 4)?;
    let start = sim.now();
    sim.run()?;
    let reference = tm.run(&tape, 4, 100);
    let tm_ok = compiled.halted(&sim)?
        && compiled.read_tape(&sim)? == reference.tape
        && compiled.steps(&sim) == reference.steps;
    let per_step = (sim.now() - start).as_us_f64() / reference.steps as f64;
    rows.push(Row::new(
        "busy beaver (2-state) on NIC",
        ok(tm_ok),
        "halts, 4 ones",
        format!("{per_step:.1} us/step, {} steps", reference.steps),
    ));

    // Binary increment.
    let mut sim = Simulator::new(SimConfig::default());
    let node = sim.add_node("nic-tm2", HostConfig::default(), NicConfig::connectx5());
    let tm = TuringMachine::binary_increment();
    let tape: Vec<u32> = vec![1, 1, 1, 0, 0]; // 7, LSB first
    let compiled = CompiledTm::compile(&mut sim, node, ProcessId(0), &tm, &tape, 0)?;
    sim.run()?;
    let inc_ok = compiled.read_tape(&sim)? == vec![0, 0, 0, 1, 0]; // 8
    rows.push(Row::new(
        "binary increment (7 -> 8) on NIC",
        ok(inc_ok),
        "halts",
        "",
    ));

    Ok(rows)
}

fn ok(b: bool) -> String {
    if b {
        "PASS".to_string()
    } else {
        "FAIL".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appendix_artifacts_pass() {
        let rows = appendix_a().unwrap();
        for r in &rows {
            assert_ne!(r.measured, "FAIL", "{} failed", r.label);
        }
        assert!(rows.len() >= 5);
    }
}
