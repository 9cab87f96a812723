//! Error types for the simulator.

use crate::ids::{NodeId, QpId, WqId};
use std::fmt;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Everything that can go wrong when driving the simulated RNIC.
///
/// The variants mirror real `ibverbs` failure modes where one exists
/// (key violations, queue overflow, RNR) so code written against the
/// simulator carries over mentally to real hardware.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// Referenced an entity that does not exist.
    UnknownEntity(&'static str, u32),
    /// Out-of-bounds or unallocated memory access.
    BadAddress {
        /// Node whose memory was accessed.
        node: NodeId,
        /// Faulting address.
        addr: u64,
        /// Access length.
        len: u64,
    },
    /// A local or remote key did not authorize the access
    /// (wrong key, wrong range, insufficient permissions, or the owning
    /// process died and the region was reclaimed).
    KeyViolation {
        /// Node whose memory was accessed.
        node: NodeId,
        /// The key presented.
        key: u32,
        /// Faulting address.
        addr: u64,
        /// Access length.
        len: u64,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Work queue has no free WQE slots.
    WqFull(WqId),
    /// Host memory arena exhausted.
    OutOfMemory(NodeId),
    /// QP is not connected (or was connected twice).
    BadQpState(QpId, &'static str),
    /// Malformed work request (bad SGE count, misaligned atomic, ...).
    InvalidWr(&'static str),
    /// A key outside the key-value store's key domain, [1, 2⁴⁸).
    BadKey(u64),
    /// A chain program was rejected by a static checker before anything
    /// was posted (the deploy-time verifier of `redn_core::ir`). Carries
    /// a full diagnostic naming the offending WQE.
    Verifier(String),
    /// A tenant's resource budget (processing units, ring slots,
    /// const-pool bytes) would be exceeded. Carries a diagnostic naming
    /// the tenant and the quota — admission control rejects the spec
    /// instead of letting the overrun surface as a neighbor's stall.
    Quota(String),
    /// The event budget was exhausted — the program may not terminate.
    /// Turing completeness has a price (halting is undecidable), so the
    /// simulator turns runaway programs into this error.
    EventBudgetExhausted(u64),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownEntity(kind, id) => write!(f, "unknown {kind} id {id}"),
            Error::BadAddress { node, addr, len } => {
                write!(f, "bad address {addr:#x}+{len} on {node}")
            }
            Error::KeyViolation {
                node,
                key,
                addr,
                len,
                reason,
            } => write!(
                f,
                "key {key:#x} does not authorize {addr:#x}+{len} on {node}: {reason}"
            ),
            Error::WqFull(wq) => write!(f, "work queue {wq} full"),
            Error::OutOfMemory(node) => write!(f, "out of simulated DRAM on {node}"),
            Error::BadQpState(qp, what) => write!(f, "{qp}: {what}"),
            Error::BadKey(key) => write!(f, "key {key:#x} outside [1, 2^48)"),
            Error::InvalidWr(what) => write!(f, "invalid work request: {what}"),
            Error::Verifier(what) => write!(f, "chain program rejected by verifier: {what}"),
            Error::Quota(what) => write!(f, "tenant quota exceeded: {what}"),
            Error::EventBudgetExhausted(n) => write!(
                f,
                "simulation event budget ({n}) exhausted; offload program may not terminate"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = Error::KeyViolation {
            node: NodeId(0),
            key: 0x10,
            addr: 0x1000,
            len: 8,
            reason: "rkey not registered",
        };
        let s = format!("{e}");
        assert!(s.contains("0x10"));
        assert!(s.contains("rkey not registered"));
        assert!(format!("{}", Error::WqFull(WqId(3))).contains("wq3"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::OutOfMemory(NodeId(1)));
    }
}
