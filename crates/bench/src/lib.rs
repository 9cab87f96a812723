//! # redn-bench — the paper-reproduction harness
//!
//! One module per evaluation artifact of "RDMA is Turing complete, we
//! just did not know it yet!" (NSDI '22). Every function returns
//! structured rows carrying both the **measured** (simulated) value and
//! the **paper's** value, so `cargo run -p redn_bench --bin repro`
//! regenerates the full evaluation with a side-by-side comparison, and
//! `EXPERIMENTS.md` records the outcome.
//!
//! The comparison points those artifacts measure RedN against are
//! experiment rigs, not system code, so they live here too, next to the
//! figures they feed; `redn_kv` holds only what a deployment runs.
//!
//! | module | artifacts |
//! |---|---|
//! | [`micro`] | Table 1, Table 2, Table 3, Fig 7, Fig 8 |
//! | [`hashbench`] | Fig 10, Fig 11, Table 4, Table 5 |
//! | [`listbench`] | Fig 13 |
//! | [`mcbench`] | Fig 14 |
//! | [`contention`] | Fig 15: the §5.5 writer-storm rig and its sweep |
//! | [`crash`] | Fig 16, Table 6: the §5.6 crash and OS-panic rigs |
//! | [`turingbench`] | Appendix A (mov + TM on the NIC) |
//! | [`servebench`] | serving-layer throughput sweep (`BENCH_throughput.json`) and its sync baseline |
//! | [`clusterbench`] | sharded cluster row + kill-a-node failover soak |
//! | [`tenantbench`] | packed multi-tenant row + noisy-neighbor enforcement |
//! | [`heapqueue`] | the `BinaryHeap` event queue `sim_events` benchmarks the wheel against |
//!
//! | rig module | used by |
//! |---|---|
//! | [`baselines`] | one-sided (FaRM) and two-sided (RPC / VMA) gets: Fig 10, 11, 14, 15, 16 |
//! | [`hopscotch`] | the §5.2 hopscotch table the one-sided client and Fig 10/11, Table 4/5 read |

#![warn(missing_docs)]

pub mod baselines;
pub mod clusterbench;
pub mod contention;
pub mod crash;
pub mod hashbench;
pub mod heapqueue;
pub mod hopscotch;
pub mod listbench;
pub mod mcbench;
pub mod micro;
pub mod report;
pub mod servebench;
pub mod tenantbench;
pub mod turingbench;

use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::ids::NodeId;
use rnic_sim::sim::Simulator;

/// Standard two-node testbed (client + server, back-to-back CX5s) — the
/// paper's §5 setup.
pub fn testbed() -> (Simulator, NodeId, NodeId) {
    testbed_with(NicConfig::connectx5())
}

/// Testbed with a custom server NIC (generation / port sweeps).
pub fn testbed_with(server_nic: NicConfig) -> (Simulator, NodeId, NodeId) {
    let mut sim = Simulator::new(SimConfig::default());
    let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let server = sim.add_node("server", HostConfig::default(), server_nic);
    sim.connect_nodes(client, server, LinkConfig::back_to_back());
    (sim, client, server)
}

#[cfg(test)]
mod failure;
#[cfg(test)]
mod isolation;
