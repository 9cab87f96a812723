//! Typed memory-region capabilities.
//!
//! Offload configuration used to thread loose `u32` keys around
//! (`table_rkey`, `value_lkey`, `client_rkey`, ...), which made it easy to
//! pass the wrong key to the wrong slot and impossible to see *what
//! authority* an offload was granted. These wrappers name the three
//! capabilities a RedN offload actually needs and carry the key together
//! with what the offload needs of the region it came from:
//!
//! * [`TableRegion`] — remote-READ authority over a lookup structure
//!   (hash-table buckets, list nodes): what the offload's chain READs;
//! * [`ValueSource`] — local-gather authority over the value heap: what
//!   the response WQE reads on the server side;
//! * [`ClientDest`] — remote-WRITE authority over one client response
//!   buffer: where the response lands.
//!
//! The capability framing mirrors the paper's §3.5 security discussion
//! (clients hold *no* rkeys; all server-side authority is scoped to
//! registered regions) and the related-work observation that RDMA's power
//! is only safe under careful capability scoping.
//!
//! Enforcement note: the *keys* are what the NIC checks at execution
//! time. Offloads do not range-check client-supplied bucket/node
//! addresses before staging READs; the table's rkey bounds what a READ
//! can reach.

use rnic_sim::mem::MemoryRegion;

/// Remote-READ authority over a registered lookup structure (the
/// offload's "data region": bucket array, list nodes, ...).
#[derive(Clone, Copy, Debug)]
pub struct TableRegion {
    rkey: u32,
}

impl TableRegion {
    /// Capability over a registered region.
    pub fn of(mr: &MemoryRegion) -> TableRegion {
        TableRegion { rkey: mr.rkey }
    }

    /// The remote key chain READs present.
    pub(crate) fn rkey(&self) -> u32 {
        self.rkey
    }
}

/// Local-gather authority over the server-side value heap, plus the value
/// geometry responses carry.
#[derive(Clone, Copy, Debug)]
pub struct ValueSource {
    lkey: u32,
    /// Bytes per value returned to the client.
    pub(crate) value_len: u32,
}

impl ValueSource {
    /// Capability over a registered heap returning `value_len`-byte
    /// values.
    pub fn of(mr: &MemoryRegion, value_len: u32) -> ValueSource {
        ValueSource {
            lkey: mr.lkey,
            value_len,
        }
    }

    /// The local key response WQEs gather with.
    pub(crate) fn lkey(&self) -> u32 {
        self.lkey
    }
}

/// Remote-WRITE authority over one client's response buffer.
#[derive(Clone, Copy, Debug)]
pub struct ClientDest {
    /// Response buffer address on the client.
    pub(crate) addr: u64,
    rkey: u32,
}

impl ClientDest {
    /// Capability over the client-registered response region, landing
    /// responses at its base address.
    pub fn of(mr: &MemoryRegion) -> ClientDest {
        ClientDest {
            addr: mr.addr,
            rkey: mr.rkey,
        }
    }

    /// Capability from an explicit `(addr, rkey)` pair the client handed
    /// over (the common cross-node case: the server never sees the
    /// client's `MemoryRegion`, only the advertised address and key).
    pub fn new(addr: u64, rkey: u32) -> ClientDest {
        ClientDest { addr, rkey }
    }

    /// The remote key response WRITEs present.
    pub fn rkey(&self) -> u32 {
        self.rkey
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::ids::ProcessId;
    use rnic_sim::mem::Access;

    #[test]
    fn capabilities_carry_keys_and_geometry() {
        let mr = MemoryRegion {
            addr: 0x2000,
            len: 128,
            lkey: 7,
            rkey: 9,
            access: Access::all(),
            owner: ProcessId(0),
        };
        let t = TableRegion::of(&mr);
        assert_eq!(t.rkey(), 9);
        let v = ValueSource::of(&mr, 64);
        assert_eq!((v.lkey(), v.value_len), (7, 64));
        let d = ClientDest::of(&mr);
        assert_eq!((d.addr, d.rkey()), (0x2000, 9));
        let d2 = ClientDest::new(0x3000, 11);
        assert_eq!((d2.addr, d2.rkey()), (0x3000, 11));
    }
}
