//! # redn — "RDMA is Turing complete, we just did not know it yet!" in Rust
//!
//! Facade crate re-exporting the workspace members:
//!
//! * [`sim`] ([`rnic_sim`]) — the simulated RDMA NIC substrate;
//! * [`core`] ([`redn_core`]) — the RedN computational framework
//!   (self-modifying chains, conditionals, loops, offloads, Turing
//!   machines);
//! * [`kv`] ([`redn_kv`]) — the Memcached-like key-value system RedN
//!   serves: store, client endpoints, sessions, serving fleets, tenancy;
//! * [`cluster`] ([`redn_cluster`]) — sharded multi-node serving with
//!   NIC-resident chain replication and failover.
//!
//! The paper's comparison points (one- and two-sided baselines, the
//! hopscotch table, the Fig 15/16 contention and crash rigs) are not
//! re-exported: they live with the figures in `redn_bench`, which the
//! examples and integration tests use directly.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture.

#![warn(missing_docs)]

pub use redn_cluster as cluster;
pub use redn_core as core;
pub use redn_kv as kv;
pub use rnic_sim as sim;

/// One-stop prelude for examples and downstream users.
pub mod prelude {
    pub use redn_cluster::prelude::*;
    pub use redn_core::prelude::*;
    pub use redn_kv::prelude::*;
    pub use rnic_sim::prelude::*;
}
