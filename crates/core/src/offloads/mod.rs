//! Offload programs built from the RedN constructs (paper §5).
//!
//! * [`rpc`] — the SEND-triggered pre-posted handler pattern of Fig 3:
//!   a RECV scatters client arguments straight into posted WQEs; a WAIT
//!   on the receive CQ fires the chain.
//! * [`hash_lookup`] — key-value `get` offload over a bucketed hash table
//!   (Fig 9), in sequential and PU-parallel variants (Fig 11).
//! * [`list`] — linked-list traversal (Fig 12), with and without `break`
//!   (Fig 13).
//! * [`replicate`] — chain-replicated PUTs: the primary's NIC forwards
//!   each acked record to backup journals and acks the client, with zero
//!   host involvement in steady state (§3.4 recycling on the write
//!   path).
//! * [`service`] — the one serving **frame** the three families above
//!   plug their bodies into: trigger point, instance window (claim /
//!   retire / tag / slot accounting), the recycled round's framing, and
//!   the [`OffloadService`] trait that lets
//!   heterogeneous fleets drive them side by side on one NIC.

pub mod hash_lookup;
pub mod list;
pub mod replicate;
pub mod rpc;
pub mod service;

pub use service::OffloadService;
