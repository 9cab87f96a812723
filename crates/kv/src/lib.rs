//! # redn-kv — the key-value system RedN serves
//!
//! The paper's evaluation (§5.2–§5.6) revolves around key-value `get`
//! offloads. This crate is the system side of it, on top of
//! [`rnic_sim`] and [`redn_core`]: the store, its Memcached-like server
//! (§5.4), and the clients and serving layers that drive it through the
//! NIC. The comparison points the paper measures it against (one-sided
//! and two-sided baselines, the hopscotch table, the §5.5 contention and
//! §5.6 crash rigs) live with the figures they feed, in `redn_bench`.
//!
//! * [`store`] — a registered value heap and deterministic hashing;
//! * [`cuckoo`] — the cuckoo table the paper's modified Memcached uses
//!   (MemC3-style, two candidate buckets with relocation);
//! * [`memcached`] — a Memcached-like server over the cuckoo table,
//!   served by the RedN get offload;
//! * [`endpoint`] — a client's QP, CQs and registered request/response
//!   slots ([`ClientEndpoint`](endpoint::ClientEndpoint));
//! * [`liststore`] — server-side linked-list region for the §3.3 / §5.3
//!   list-walk offload (the list-side counterpart of the hash table);
//! * [`session`] — typed client sessions ([`Session`](session::Session))
//!   over deployed [`OffloadService`](redn_core::offloads::OffloadService)s:
//!   `get`/`walk`/`put` posting, typed pending handles, typed completion
//!   and put-result reaping;
//! * [`serving`] — the pipelined multi-client serving layer: a
//!   [`ServingFleet`](serving::ServingFleet) of per-client sessions over a
//!   heterogeneous service mix (hash-gets + list-walks sharded across one
//!   NIC), with closed-loop and open-loop load generators (§5.4's traffic
//!   shape);
//! * [`tenancy`] — multi-tenant ring packing and QoS: named
//!   [`TenantSpec`](tenancy::TenantSpec)s with quotas and rate caps, a
//!   [`TenantPacker`](tenancy::TenantPacker) bin-packing their offloads
//!   onto shared NIC PUs (admission gated on the deployment verifier),
//!   and [`CreditPacer`](tenancy::CreditPacer) trigger-path pacing so an
//!   overloaded tenant sheds its own load, not its neighbors';
//! * [`workload`] — Memtier-like request generators.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(rust_2018_idioms)]

pub mod cuckoo;
pub mod endpoint;
pub mod liststore;
pub mod memcached;
pub mod serving;
pub mod session;
pub mod store;
pub mod tenancy;
pub mod workload;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::cuckoo::CuckooTable;
    pub use crate::liststore::ListStore;
    pub use crate::memcached::MemcachedServer;
    pub use crate::serving::{
        FleetSpec, FleetStats, ServiceKind, ServiceSpec, ServingFleet, TenantStats,
    };
    pub use crate::session::{Completion, Session, SessionOpts};
    pub use crate::store::{hash_key, ValueHeap};
    pub use crate::tenancy::{
        CreditPacer, NicGeometry, PackError, Packing, Placement, TenantPacker, TenantQuotas,
        TenantSpec,
    };
    pub use crate::workload::Workload;
}
