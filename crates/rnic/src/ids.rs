//! Strongly-typed identifiers for simulated entities.
//!
//! Every object in the simulator (nodes, NICs, queue pairs, queues,
//! completion queues, memory regions, processes) is referred to by a small
//! copyable ID instead of a reference. This keeps the discrete-event core
//! free of borrow-checker knots: all state lives in arenas owned by
//! [`crate::sim::Simulator`], and events carry IDs.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Raw index into the owning arena.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A host machine (one simulated server with DRAM, CPUs and one NIC).
    NodeId,
    "node"
);
id_type!(
    /// A queue pair (send queue + receive queue bound to two CQs).
    QpId,
    "qp"
);
id_type!(
    /// A work queue (either the SQ or RQ half of a QP).
    WqId,
    "wq"
);
id_type!(
    /// A completion queue.
    CqId,
    "cq"
);
id_type!(
    /// A process on a host. Memory regions are owned by processes so the
    /// failure-resiliency experiments (§5.6) can model what the OS frees on
    /// a crash.
    ProcessId,
    "pid"
);

/// A registered memory region key pair. `lkey` authorizes local access by
/// the NIC on behalf of the owning process; `rkey` authorizes remote access.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MrKey {
    /// Local key.
    pub(crate) lkey: u32,
    /// Remote key.
    pub(crate) rkey: u32,
}

impl fmt::Debug for MrKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mr(l={:#x},r={:#x})", self.lkey, self.rkey)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_with_prefix() {
        assert_eq!(format!("{:?}", NodeId(3)), "node3");
        assert_eq!(format!("{}", QpId(1)), "qp1");
        assert_eq!(format!("{:?}", WqId(7)), "wq7");
        assert_eq!(format!("{}", CqId(0)), "cq0");
        assert_eq!(format!("{:?}", ProcessId(9)), "pid9");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(WqId(1));
        set.insert(WqId(2));
        assert!(set.contains(&WqId(1)));
        assert!(WqId(1) < WqId(2));
        assert_eq!(WqId(4).index(), 4);
    }
}
