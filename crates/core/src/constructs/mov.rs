//! Emulating the x86 `mov` instruction with RDMA verbs (Appendix A,
//! Table 7 of the paper).
//!
//! Dolan showed `mov` alone is Turing complete; the paper's Appendix A
//! argues RDMA is Turing complete by emulating `mov`'s addressing modes:
//!
//! | mode | x86 | RedN realization |
//! |---|---|---|
//! | Immediate | `mov Rdst, C` | one WRITE from a constant cell |
//! | Indirect  | `mov Rdst, [Rsrc]` | WRITE patches the next WRITE's source address with `Rsrc`'s value (doorbell-ordered), which then moves `[Rsrc] → Rdst` |
//! | Indexed   | `mov Rdst, [Rsrc + off]` | as indirect, plus a fetch-and-add on the patched address field |
//!
//! Registers are 8-byte cells in host memory ("since RDMA operations can
//! only perform memory-to-memory transfers, we assume these registers are
//! stored in memory"). Stores (`mov [Rdst], Rsrc`) patch the *destination*
//! address instead of the source.
//!
//! The unit emits [`crate::ir`] ops: the patched second-stage WRITE is a
//! symbolic patch target (so the deploy-time verifier enforces its
//! managed-queue placement), and the inter-step WAITs elide into
//! `wait_prev` fences wherever the successor is not itself patched.

use rnic_sim::error::Result;
use rnic_sim::mem::MemoryRegion;
use rnic_sim::sim::Simulator;

use crate::encode::WqeField;
use crate::ir::{EnableTarget, IrProgram, Kind, Loc, OpBuild, QId, WaitCond};
use crate::program::ConstPool;

/// A file of 8-byte registers stored in (registered) host memory.
#[derive(Clone, Copy, Debug)]
pub struct RegisterFile {
    base: u64,
    count: usize,
    mr: MemoryRegion,
}

impl RegisterFile {
    /// Allocate `count` registers out of a constant pool.
    pub fn create(sim: &mut Simulator, pool: &mut ConstPool, count: usize) -> Result<RegisterFile> {
        let base = pool.reserve(sim, count as u64 * 8)?;
        Ok(RegisterFile {
            base,
            count,
            mr: pool.mr(),
        })
    }

    /// Address of register `i`.
    pub fn addr(&self, i: usize) -> u64 {
        assert!(i < self.count, "register index out of range");
        self.base + i as u64 * 8
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Register files are never empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The memory region covering the registers.
    pub fn mr(&self) -> MemoryRegion {
        self.mr
    }

    /// Host-side read of register `i` (observation only).
    pub fn read(&self, sim: &Simulator, node: rnic_sim::ids::NodeId, i: usize) -> Result<u64> {
        sim.mem_read_u64(node, self.addr(i))
    }

    /// Host-side write of register `i` (program inputs).
    pub fn write(
        &self,
        sim: &mut Simulator,
        node: rnic_sim::ids::NodeId,
        i: usize,
        v: u64,
    ) -> Result<()> {
        sim.mem_write_u64(node, self.addr(i), v)
    }
}

/// Emits `mov` operations onto a control queue + a managed patch queue of
/// an [`IrProgram`].
///
/// Every indirect/indexed mov stages its *second-stage* WRITE in the
/// managed queue (its address field is modified at run time) and the
/// patch verbs + doorbell ordering in the control queue.
pub struct MovUnit {
    /// The registers.
    pub regs: RegisterFile,
    /// Region holding the data the program may address indirectly.
    pub data_mr: MemoryRegion,
}

impl MovUnit {
    /// Create a unit over a register file and a data region (the memory
    /// `[R]` dereferences may touch).
    pub fn new(regs: RegisterFile, data_mr: MemoryRegion) -> MovUnit {
        MovUnit { regs, data_mr }
    }

    /// `mov Rdst, C` — immediate. One WRITE from a program constant.
    pub fn mov_imm(&self, p: &mut IrProgram, ctrl: QId, dst: usize, c: u64) {
        let cell = p.const_bytes(c.to_le_bytes().to_vec());
        p.push(
            ctrl,
            OpBuild::new(Kind::Write {
                src: Loc::cst(cell),
                len: 8,
                dst: Loc::raw(self.regs.addr(dst), self.regs.mr().rkey),
                imm: None,
            })
            .signaled()
            .label("mov imm"),
        );
        p.push(
            ctrl,
            OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)).label("mov order"),
        );
    }

    /// `mov Rdst, Rsrc` — register to register.
    pub fn mov_reg(&self, p: &mut IrProgram, ctrl: QId, dst: usize, src: usize) {
        p.push(
            ctrl,
            OpBuild::new(Kind::Write {
                src: Loc::raw(self.regs.addr(src), self.regs.mr().lkey),
                len: 8,
                dst: Loc::raw(self.regs.addr(dst), self.regs.mr().rkey),
                imm: None,
            })
            .signaled()
            .label("mov reg"),
        );
        p.push(
            ctrl,
            OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)).label("mov order"),
        );
    }

    /// `mov Rdst, [Rsrc + off]` — indirect/indexed load. `off = 0` is the
    /// pure indirect mode of Table 7.
    pub fn mov_load(
        &self,
        p: &mut IrProgram,
        ctrl: QId,
        patched: QId,
        dst: usize,
        src: usize,
        off: u64,
    ) {
        // Second stage: WRITE([Rsrc + off] -> Rdst); its local_addr is
        // patched at run time (the verifier enforces the managed queue).
        let mover = p.push(
            patched,
            OpBuild::new(Kind::Write {
                src: Loc::raw(0, self.data_mr.lkey), // patched
                len: 8,
                dst: Loc::raw(self.regs.addr(dst), self.regs.mr().rkey),
                imm: None,
            })
            .signaled()
            .label("mov load mover"),
        );
        // First stage: copy Rsrc's value into the mover's source-address
        // field.
        p.push(
            ctrl,
            OpBuild::new(Kind::Write {
                src: Loc::raw(self.regs.addr(src), self.regs.mr().lkey),
                len: 8,
                dst: Loc::field(mover, WqeField::LocalAddr),
                imm: None,
            })
            .signaled()
            .label("mov load patch"),
        );
        p.push(
            ctrl,
            OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)).label("mov order"),
        );
        // Indexed mode: add the offset to the patched address (Table 7's
        // extra ADD).
        if off != 0 {
            p.push(
                ctrl,
                OpBuild::new(Kind::FetchAdd {
                    target: Loc::field(mover, WqeField::LocalAddr),
                    delta: off,
                })
                .signaled()
                .label("mov index add"),
            );
            p.push(
                ctrl,
                OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)).label("mov order"),
            );
        }
        // Release the mover under doorbell ordering, then wait for it so
        // program order is preserved for the next mov.
        p.push(
            ctrl,
            OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(mover))).label("mov release"),
        );
        p.push(
            ctrl,
            OpBuild::new(Kind::Wait(WaitCond::OpDoneSignaled(mover))).label("mov mover wait"),
        );
    }

    /// `mov [Rdst + off], Rsrc` — indirect/indexed store.
    pub fn mov_store(
        &self,
        p: &mut IrProgram,
        ctrl: QId,
        patched: QId,
        dst: usize,
        src: usize,
        off: u64,
    ) {
        let mover = p.push(
            patched,
            OpBuild::new(Kind::Write {
                src: Loc::raw(self.regs.addr(src), self.regs.mr().lkey),
                len: 8,
                dst: Loc::raw(0, self.data_mr.rkey), // patched
                imm: None,
            })
            .signaled()
            .label("mov store mover"),
        );
        p.push(
            ctrl,
            OpBuild::new(Kind::Write {
                src: Loc::raw(self.regs.addr(dst), self.regs.mr().lkey),
                len: 8,
                dst: Loc::field(mover, WqeField::RemoteAddr),
                imm: None,
            })
            .signaled()
            .label("mov store patch"),
        );
        p.push(
            ctrl,
            OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)).label("mov order"),
        );
        if off != 0 {
            p.push(
                ctrl,
                OpBuild::new(Kind::FetchAdd {
                    target: Loc::field(mover, WqeField::RemoteAddr),
                    delta: off,
                })
                .signaled()
                .label("mov index add"),
            );
            p.push(
                ctrl,
                OpBuild::new(Kind::Wait(WaitCond::LocalAllSignaled)).label("mov order"),
            );
        }
        p.push(
            ctrl,
            OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(mover))).label("mov release"),
        );
        p.push(
            ctrl,
            OpBuild::new(Kind::Wait(WaitCond::OpDoneSignaled(mover))).label("mov mover wait"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ChainQueueBuilder;
    use crate::program::ChainQueue;
    use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
    use rnic_sim::ids::{NodeId, ProcessId};
    use rnic_sim::mem::Access;

    struct Rig {
        sim: Simulator,
        node: NodeId,
        ctrl: ChainQueue,
        patched: ChainQueue,
        pool: ConstPool,
        unit: MovUnit,
        data: u64,
    }

    fn rig() -> Rig {
        let mut sim = Simulator::new(SimConfig::default());
        let node = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
        let ctrl = ChainQueueBuilder::new(node, ProcessId(0))
            .depth(128)
            .build(&mut sim)
            .unwrap();
        let patched = ChainQueueBuilder::new(node, ProcessId(0))
            .managed()
            .depth(64)
            .build(&mut sim)
            .unwrap();
        let mut pool = ConstPool::create(&mut sim, node, 4096, ProcessId(0)).unwrap();
        let regs = RegisterFile::create(&mut sim, &mut pool, 8).unwrap();
        let data = sim.alloc(node, 256, 8).unwrap();
        let dmr = sim.register_mr(node, data, 256, Access::all()).unwrap();
        let unit = MovUnit::new(regs, dmr);
        Rig {
            sim,
            node,
            ctrl,
            patched,
            pool,
            unit,
            data,
        }
    }

    /// Build a program with `emit`, deploy it, and run it to completion.
    fn run_movs(r: &mut Rig, emit: impl FnOnce(&mut IrProgram, QId, QId, &MovUnit)) {
        let mut p = IrProgram::linear();
        let ctrl = p.chain(r.ctrl);
        let patched = p.chain(r.patched);
        emit(&mut p, ctrl, patched, &r.unit);
        let mut lowered = p.deploy(&mut r.sim, &mut r.pool).unwrap();
        lowered.post(&mut r.sim, patched).unwrap();
        lowered.post(&mut r.sim, ctrl).unwrap();
        r.sim.run().unwrap();
    }

    #[test]
    fn register_file_layout() {
        let mut r = rig();
        assert_eq!(r.unit.regs.len(), 8);
        assert!(!r.unit.regs.is_empty());
        assert_eq!(r.unit.regs.addr(1) - r.unit.regs.addr(0), 8);
        r.unit.regs.write(&mut r.sim, r.node, 3, 77).unwrap();
        assert_eq!(r.unit.regs.read(&r.sim, r.node, 3).unwrap(), 77);
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn register_oob_panics() {
        let r = rig();
        r.unit.regs.addr(8);
    }

    #[test]
    fn mov_imm_writes_constant() {
        let mut r = rig();
        run_movs(&mut r, |p, ctrl, _, unit| {
            unit.mov_imm(p, ctrl, 0, 0xFEED);
        });
        assert_eq!(r.unit.regs.read(&r.sim, r.node, 0).unwrap(), 0xFEED);
    }

    #[test]
    fn mov_reg_copies() {
        let mut r = rig();
        r.unit.regs.write(&mut r.sim, r.node, 1, 42).unwrap();
        run_movs(&mut r, |p, ctrl, _, unit| {
            unit.mov_reg(p, ctrl, 2, 1);
        });
        assert_eq!(r.unit.regs.read(&r.sim, r.node, 2).unwrap(), 42);
    }

    #[test]
    fn mov_indirect_load_dereferences_pointer() {
        let mut r = rig();
        // data[2] = 0xABCD; R1 = &data[2]; mov R0, [R1].
        r.sim.mem_write_u64(r.node, r.data + 16, 0xABCD).unwrap();
        r.unit
            .regs
            .write(&mut r.sim, r.node, 1, r.data + 16)
            .unwrap();
        run_movs(&mut r, |p, ctrl, patched, unit| {
            unit.mov_load(p, ctrl, patched, 0, 1, 0);
        });
        assert_eq!(r.unit.regs.read(&r.sim, r.node, 0).unwrap(), 0xABCD);
    }

    #[test]
    fn mov_indexed_load_applies_offset() {
        let mut r = rig();
        // data[3] = 7; R1 = &data[0]; mov R0, [R1 + 24].
        r.sim.mem_write_u64(r.node, r.data + 24, 7).unwrap();
        r.unit.regs.write(&mut r.sim, r.node, 1, r.data).unwrap();
        run_movs(&mut r, |p, ctrl, patched, unit| {
            unit.mov_load(p, ctrl, patched, 0, 1, 24);
        });
        assert_eq!(r.unit.regs.read(&r.sim, r.node, 0).unwrap(), 7);
    }

    #[test]
    fn mov_indirect_store_writes_through_pointer() {
        let mut r = rig();
        // R0 = 0x99; R1 = &data[5]; mov [R1], R0.
        r.unit.regs.write(&mut r.sim, r.node, 0, 0x99).unwrap();
        r.unit
            .regs
            .write(&mut r.sim, r.node, 1, r.data + 40)
            .unwrap();
        run_movs(&mut r, |p, ctrl, patched, unit| {
            unit.mov_store(p, ctrl, patched, 1, 0, 0);
        });
        assert_eq!(r.sim.mem_read_u64(r.node, r.data + 40).unwrap(), 0x99);
    }

    #[test]
    fn mov_sequence_pointer_chase() {
        // A two-hop pointer chase composed of movs, all on the NIC:
        // data[0] holds &data[8]; data[8] holds 0x1234.
        // R1 = &data[0]; mov R2, [R1]; mov R3, [R2].
        let mut r = rig();
        r.sim.mem_write_u64(r.node, r.data, r.data + 64).unwrap();
        r.sim.mem_write_u64(r.node, r.data + 64, 0x1234).unwrap();
        r.unit.regs.write(&mut r.sim, r.node, 1, r.data).unwrap();
        run_movs(&mut r, |p, ctrl, patched, unit| {
            unit.mov_load(p, ctrl, patched, 2, 1, 0);
            unit.mov_load(p, ctrl, patched, 3, 2, 0);
        });
        assert_eq!(r.unit.regs.read(&r.sim, r.node, 2).unwrap(), r.data + 64);
        assert_eq!(r.unit.regs.read(&r.sim, r.node, 3).unwrap(), 0x1234);
    }
}
