//! # redn_cluster — sharded multi-node serving over RedN offloads
//!
//! The paper's thesis (NIC-resident programs that need no server CPU,
//! §3.4) extended to a serving *cluster*:
//!
//! * [`router`] — rendezvous consistent hashing from keys to shards:
//!   balanced within a few percent, and a lost shard remaps only its
//!   own keys;
//! * [`cluster`] — [`Cluster`](cluster::Cluster): N server nodes in a
//!   full mesh, each with its own Memcached table (holding exactly its
//!   key partition) and offload context, behind a killable serving
//!   process;
//! * [`session`] — [`ClusterSession`](session::ClusterSession): the
//!   `redn_kv` `Session` API fanned out, one get session per shard and
//!   one put session per shard driving that shard's NIC-resident
//!   replication chain ([`redn_core::offloads::replicate`]), behind the
//!   [`PutSession`](session::PutSession) shim that applies acked writes
//!   to the shard's table;
//! * [`failover`] — detect a dead primary (typed `RnrError`
//!   completions or heartbeat silence), promote the backup holding its
//!   journal, re-route the shard, re-replicate to a fresh backup.
//!
//! Steady-state writes replicate primary→backup with **zero** host arm
//! calls, doorbells or posts on the primary: the chain is staged once
//! and the NIC recycles it (§3.4). A killed primary loses no acked
//! write — every ack implies the record already sat in a
//! backup-owned journal.

#![warn(missing_docs)]

pub mod cluster;
pub mod failover;
pub mod router;
pub mod session;

/// One-stop imports for cluster users.
pub mod prelude {
    pub use crate::cluster::{Cluster, ClusterSpec, Shard};
    pub use crate::failover::{FailoverController, FailoverReport};
    pub use crate::router::ShardRouter;
    pub use crate::session::{ClusterSession, PutAck, PutFailure, PutReap, PutSession};
}
