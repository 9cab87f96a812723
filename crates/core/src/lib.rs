//! # redn-core — the RedN computational framework
//!
//! Reproduction of *"RDMA is Turing complete, we just did not know it
//! yet!"* (NSDI '22). RedN lifts the plain RDMA verbs interface — READ,
//! WRITE, SEND/RECV, CAS, plus the ConnectX cross-channel WAIT/ENABLE — to
//! a Turing-complete set of programming abstractions, with **no hardware
//! modification**: programs are chains of work requests that *modify each
//! other* in host memory before the NIC fetches them.
//!
//! The crate provides:
//!
//! * [`ir`] — what every emitter targets: a typed chain program whose
//!   patch points, WAIT thresholds and ENABLE horizons stay symbolic
//!   until deploy, with optimizer passes, a static verifier, and the one
//!   lowering ([`ir::lower`]) that turns ops into posted WQEs.
//! * [`ctx`] — the one deployment front door: an [`ctx::OffloadCtx`]
//!   owns a server's queues, constant pool and trigger points, and hands
//!   out resource builders, the [`ctx::ChainProgram`] combinators and
//!   the offload builders.
//! * The emitters. [`constructs`] — the paper's §3 building blocks:
//!   [`constructs::cond`] (self-modifying-CAS conditionals, Fig 4, with
//!   48-bit operands and wide-operand CAS chaining),
//!   [`constructs::loops`] (unrolled `while`, `break` via
//!   completion-suppression, and the handle to a CPU-free WQ-recycling
//!   loop, Figs 5/6, §3.4), and [`constructs::mov`] (the x86 `mov`
//!   addressing modes of Appendix A, Table 7). [`offloads`] — the
//!   paper's §5 offload programs: SEND-triggered RPC handlers (Fig 3),
//!   hash-table lookup (Fig 9, sequential and parallel), linked-list
//!   traversal (Fig 12, with and without break) and chain replication.
//!   [`turing`] — a Turing-machine compiler: any TM is compiled to a
//!   recycled, self-modifying, self-restoring RDMA ring that runs
//!   entirely on the (simulated) NIC. This is the constructive form of
//!   the paper's Appendix A proof sketch.
//! * [`program`] — the resource types under all of it: chain queues
//!   (managed/unmanaged loopback QPs whose rings are the code region)
//!   and constant pools.
//!
//! The underlying "hardware" is the [`rnic_sim`] simulator; everything in
//! this crate talks to it through the same verbs interface a real
//! `libibverbs`+`libmlx5` stack would expose.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod constructs;
pub mod ctx;
pub mod encode;
pub mod ir;
pub mod offloads;
pub mod program;
pub mod turing;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::constructs::cond::{IfEq, IfEqWide};
    pub use crate::constructs::loops::RecycledLoop;
    pub use crate::constructs::mov::MovUnit;
    pub use crate::ctx::{ChainProgram, ClientDest, OffloadCtx, TableRegion, ValueSource};
    pub use crate::encode::WqeField;
    pub use crate::ir::{IrProgram, OpBuild, PassReport};
    pub use crate::offloads::hash_lookup::{HashGetOffload, HashGetVariant};
    pub use crate::offloads::list::ListWalkOffload;
    pub use crate::offloads::rpc::TriggerPoint;
    pub use crate::offloads::service::OffloadService;
    pub use crate::program::{ChainQueue, ConstPool};
    pub use crate::turing::{compile::CompiledTm, machine::TuringMachine};
}
