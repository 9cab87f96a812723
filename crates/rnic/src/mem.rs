//! Simulated host memory: a byte-addressable arena with RDMA memory-region
//! registration.
//!
//! Everything the NIC touches — application buffers, hash tables, *and the
//! work queues themselves* — lives here as raw bytes. This is what makes
//! RedN's self-modifying chains honest in simulation: a CAS that lands
//! inside a WQ buffer really does change the bytes the NIC will decode when
//! it later fetches that WQE.
//!
//! Regions are owned by a [`ProcessId`] so the failure experiments (§5.6 of
//! the paper) can model the OS reclaiming a crashed process's memory: when
//! a process dies without a "hull parent", its registrations are torn down
//! and subsequent NIC accesses fault — exactly the failure mode the paper
//! works around with an empty parent process holding the RDMA resources.

use crate::error::{Error, Result};
use crate::ids::{NodeId, ProcessId};

/// Base virtual address of the simulated arena. Starting above zero keeps
/// null-ish addresses faulting, which catches builder bugs early.
pub const ARENA_BASE: u64 = 0x1_0000;

/// Minimal bitflags without a dependency: generates a transparent wrapper
/// with `contains`/`union` plus the constants declared in the macro body.
macro_rules! bitflags_lite {
    (
        $(#[$doc:meta])*
        pub struct $name:ident: $ty:ty {
            $($(#[$fdoc:meta])* const $flag:ident = $val:expr;)*
        }
    ) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
        pub struct $name(pub $ty);

        impl $name {
            $($(#[$fdoc])* pub const $flag: $name = $name($val);)*

            /// No permissions.
            pub const fn empty() -> $name { $name(0) }

            /// All permissions.
            pub const fn all() -> $name {
                $name($($val |)* 0)
            }

            /// Whether all bits in `other` are set in `self`.
            pub const fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }

            /// Union of two permission sets.
            pub const fn union(self, other: $name) -> $name {
                $name(self.0 | other.0)
            }
        }

        impl std::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name { self.union(rhs) }
        }
    };
}

bitflags_lite! {
    /// Access permissions for a memory region, mirroring
    /// `ibv_access_flags`.
    pub struct Access: u8 {
        /// NIC may read locally (lkey).
        const LOCAL_READ = 1;
        /// NIC may write locally (lkey).
        const LOCAL_WRITE = 2;
        /// Remote peers may READ (rkey).
        const REMOTE_READ = 4;
        /// Remote peers may WRITE (rkey).
        const REMOTE_WRITE = 8;
        /// Remote peers may execute atomics (rkey).
        const REMOTE_ATOMIC = 16;
    }
}

/// A registered memory region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryRegion {
    /// Start address.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
    /// Local key (used in WQE scatter/gather entries).
    pub lkey: u32,
    /// Remote key (used in one-sided verbs).
    pub rkey: u32,
    /// Permissions granted at registration.
    pub access: Access,
    /// Owning process: regions die with their owner unless re-parented.
    pub owner: ProcessId,
}

/// The byte-addressable memory of one simulated host.
pub struct HostMemory {
    node: NodeId,
    data: Vec<u8>,
    brk: u64,
    regions: Vec<MemoryRegion>,
    next_key: u32,
}

impl HostMemory {
    /// Create an arena of `capacity` bytes for `node`.
    pub fn new(node: NodeId, capacity: u64) -> HostMemory {
        HostMemory {
            node,
            data: vec![0; capacity as usize],
            brk: ARENA_BASE,
            regions: Vec::new(),
            next_key: 0x100,
        }
    }

    /// Bump-allocate `len` bytes aligned to `align` (power of two).
    /// There is no free: simulations are short-lived and deterministic.
    pub fn alloc(&mut self, len: u64, align: u64) -> Result<u64> {
        debug_assert!(align.is_power_of_two());
        let addr = (self.brk + align - 1) & !(align - 1);
        let end = addr.checked_add(len).ok_or(Error::OutOfMemory(self.node))?;
        if end - ARENA_BASE > self.data.len() as u64 {
            return Err(Error::OutOfMemory(self.node));
        }
        self.brk = end;
        Ok(addr)
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.brk - ARENA_BASE
    }

    fn offset(&self, addr: u64, len: u64) -> Result<usize> {
        let end = addr.checked_add(len).ok_or(Error::BadAddress {
            node: self.node,
            addr,
            len,
        })?;
        if addr < ARENA_BASE || end - ARENA_BASE > self.data.len() as u64 || end > self.brk {
            return Err(Error::BadAddress {
                node: self.node,
                addr,
                len,
            });
        }
        Ok((addr - ARENA_BASE) as usize)
    }

    /// Read `len` bytes at `addr` (no key check — host CPU access).
    pub fn read(&self, addr: u64, len: u64) -> Result<&[u8]> {
        let off = self.offset(addr, len)?;
        Ok(&self.data[off..off + len as usize])
    }

    /// Write bytes at `addr` (no key check — host CPU access).
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<()> {
        let off = self.offset(addr, bytes.len() as u64)?;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Read a little-endian u64.
    pub fn read_u64(&self, addr: u64) -> Result<u64> {
        let b = self.read(addr, 8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<()> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Read a little-endian u32.
    pub fn read_u32(&self, addr: u64) -> Result<u32> {
        let b = self.read(addr, 4)?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Write a little-endian u32.
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<()> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Register `[addr, addr+len)` for RDMA access on behalf of `owner`.
    pub fn register(
        &mut self,
        addr: u64,
        len: u64,
        access: Access,
        owner: ProcessId,
    ) -> Result<MemoryRegion> {
        // Validate the range exists.
        self.offset(addr, len)?;
        let lkey = self.next_key;
        let rkey = self.next_key + 1;
        self.next_key += 2;
        let mr = MemoryRegion {
            addr,
            len,
            lkey,
            rkey,
            access,
            owner,
        };
        self.regions.push(mr);
        Ok(mr)
    }

    /// Deregister by lkey. Returns whether a region was removed.
    pub fn deregister(&mut self, lkey: u32) -> bool {
        let before = self.regions.len();
        self.regions.retain(|r| r.lkey != lkey);
        self.regions.len() != before
    }

    /// Drop every region owned by `owner` — what the OS does when a process
    /// dies and nothing else holds the RDMA resources (§5.6).
    /// Returns how many regions were reclaimed.
    pub fn reclaim_owner(&mut self, owner: ProcessId) -> usize {
        let before = self.regions.len();
        self.regions.retain(|r| r.owner != owner);
        before - self.regions.len()
    }

    /// Re-parent all regions of `from` to `to` — the "empty hull parent"
    /// trick of §5.6 (\[38\]): resources registered by the hull survive the
    /// child's crash.
    pub fn reparent(&mut self, from: ProcessId, to: ProcessId) -> usize {
        let mut n = 0;
        for r in &mut self.regions {
            if r.owner == from {
                r.owner = to;
                n += 1;
            }
        }
        n
    }

    fn find_key(&self, key: u32, remote: bool) -> Option<&MemoryRegion> {
        self.regions
            .iter()
            .find(|r| if remote { r.rkey == key } else { r.lkey == key })
    }

    /// The registered region a key resolves to (rkey when `remote`, lkey
    /// otherwise) — the static analyzer's bounds oracle. `None` when the
    /// key is not registered on this node (e.g. a client-side key the
    /// program targets through a not-yet-connected QP).
    pub fn region_by_key(&self, key: u32, remote: bool) -> Option<&MemoryRegion> {
        self.find_key(key, remote)
    }

    /// Validate an NIC access under `key`. `remote` selects rkey vs lkey
    /// semantics; `write`/`atomic` select the permission bit.
    pub fn check_key(
        &self,
        key: u32,
        addr: u64,
        len: u64,
        remote: bool,
        write: bool,
        atomic: bool,
    ) -> Result<()> {
        let viol = |reason| Error::KeyViolation {
            node: self.node,
            key,
            addr,
            len,
            reason,
        };
        let r = self
            .find_key(key, remote)
            .ok_or_else(|| viol("key not registered"))?;
        if addr < r.addr || addr + len > r.addr + r.len {
            return Err(viol("outside registered range"));
        }
        let needed = match (remote, write, atomic) {
            (true, _, true) => Access::REMOTE_ATOMIC,
            (true, true, _) => Access::REMOTE_WRITE,
            (true, false, _) => Access::REMOTE_READ,
            (false, true, _) => Access::LOCAL_WRITE,
            (false, false, _) => Access::LOCAL_READ,
        };
        if !r.access.contains(needed) {
            return Err(viol("insufficient permissions"));
        }
        Ok(())
    }

    /// NIC-side read under a key.
    pub fn nic_read(&self, key: u32, addr: u64, len: u64, remote: bool) -> Result<Vec<u8>> {
        self.check_key(key, addr, len, remote, false, false)?;
        Ok(self.read(addr, len)?.to_vec())
    }

    /// Allocation-free [`HostMemory::nic_read`]: appends the bytes to
    /// `out` (a pooled buffer on the simulator's data path). On error,
    /// `out` is untouched.
    pub fn nic_read_into(
        &self,
        key: u32,
        addr: u64,
        len: u64,
        remote: bool,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.check_key(key, addr, len, remote, false, false)?;
        out.extend_from_slice(self.read(addr, len)?);
        Ok(())
    }

    /// NIC-side write under a key.
    pub fn nic_write(&mut self, key: u32, addr: u64, bytes: &[u8], remote: bool) -> Result<()> {
        self.check_key(key, addr, bytes.len() as u64, remote, true, false)?;
        self.write(addr, bytes)
    }

    /// NIC-side 8-byte atomic under an rkey. Returns the *old* value.
    /// `op` receives the old value and produces the new one.
    pub fn nic_atomic(&mut self, rkey: u32, addr: u64, op: impl FnOnce(u64) -> u64) -> Result<u64> {
        if !addr.is_multiple_of(8) {
            return Err(Error::InvalidWr("atomic target must be 8-byte aligned"));
        }
        self.check_key(rkey, addr, 8, true, true, true)?;
        let old = self.read_u64(addr)?;
        let new = op(old);
        self.write_u64(addr, new)?;
        Ok(old)
    }

    /// Number of live registrations (for tests and the failure harness).
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);

    fn mem() -> HostMemory {
        HostMemory::new(NodeId(0), 1 << 20)
    }

    #[test]
    fn alloc_is_aligned_and_bounded() {
        let mut m = mem();
        let a = m.alloc(10, 8).unwrap();
        assert_eq!(a % 8, 0);
        let b = m.alloc(64, 64).unwrap();
        assert_eq!(b % 64, 0);
        assert!(b >= a + 10);
        assert!(m.alloc(2 << 20, 8).is_err());
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = mem();
        let a = m.alloc(16, 8).unwrap();
        m.write_u64(a, 0x0123_4567_89ab_cdef).unwrap();
        assert_eq!(m.read_u64(a).unwrap(), 0x0123_4567_89ab_cdef);
        m.write_u32(a + 8, 42).unwrap();
        assert_eq!(m.read_u32(a + 8).unwrap(), 42);
    }

    #[test]
    fn oob_access_faults() {
        let mut m = mem();
        let a = m.alloc(8, 8).unwrap();
        assert!(m.read(a, 9).is_err());
        assert!(m.read(ARENA_BASE - 8, 8).is_err());
        assert!(m.write(a + 4, &[0; 8]).is_err());
        assert!(m.read_u64(u64::MAX - 3).is_err());
    }

    #[test]
    fn key_checks_enforce_permissions() {
        let mut m = mem();
        let a = m.alloc(64, 8).unwrap();
        let mr = m
            .register(a, 64, Access::LOCAL_READ | Access::REMOTE_READ, P0)
            .unwrap();
        // Remote read OK, remote write denied, atomic denied.
        assert!(m.nic_read(mr.rkey, a, 8, true).is_ok());
        assert!(m.nic_write(mr.rkey, a, &[1; 8], true).is_err());
        assert!(m.nic_atomic(mr.rkey, a, |v| v + 1).is_err());
        // Wrong key, wrong range.
        assert!(m.nic_read(0xdead, a, 8, true).is_err());
        assert!(m.nic_read(mr.rkey, a + 60, 8, true).is_err());
        // lkey is not an rkey.
        assert!(m.nic_read(mr.lkey, a, 8, true).is_err());
        assert!(m.nic_read(mr.lkey, a, 8, false).is_ok());
    }

    #[test]
    fn atomics_require_alignment_and_return_old() {
        let mut m = mem();
        let a = m.alloc(16, 8).unwrap();
        let mr = m.register(a, 16, Access::all(), P0).unwrap();
        m.write_u64(a, 7).unwrap();
        let old = m.nic_atomic(mr.rkey, a, |v| v + 5).unwrap();
        assert_eq!(old, 7);
        assert_eq!(m.read_u64(a).unwrap(), 12);
        assert!(m.nic_atomic(mr.rkey, a + 4, |v| v).is_err());
    }

    #[test]
    fn crash_reclaims_regions_reparent_saves_them() {
        let mut m = mem();
        let a = m.alloc(64, 8).unwrap();
        let mr0 = m.register(a, 32, Access::all(), P0).unwrap();
        let _mr1 = m.register(a + 32, 32, Access::all(), P1).unwrap();
        assert_eq!(m.region_count(), 2);

        // Hull-parent trick: re-parent P0's regions to P1, then P0 dies.
        assert_eq!(m.reparent(P0, P1), 1);
        assert_eq!(m.reclaim_owner(P0), 0);
        assert!(m.nic_read(mr0.rkey, a, 8, true).is_ok());

        // Without a hull, the crash kills access.
        assert_eq!(m.reclaim_owner(P1), 2);
        assert!(m.nic_read(mr0.rkey, a, 8, true).is_err());
    }

    #[test]
    fn deregister_removes_key() {
        let mut m = mem();
        let a = m.alloc(8, 8).unwrap();
        let mr = m.register(a, 8, Access::all(), P0).unwrap();
        assert!(m.deregister(mr.lkey));
        assert!(!m.deregister(mr.lkey));
        assert!(m.nic_read(mr.rkey, a, 8, true).is_err());
    }

    #[test]
    fn access_flag_algebra() {
        let rw = Access::REMOTE_READ | Access::REMOTE_WRITE;
        assert!(rw.contains(Access::REMOTE_READ));
        assert!(!rw.contains(Access::REMOTE_ATOMIC));
        assert!(Access::all().contains(rw));
        assert!(!Access::empty().contains(Access::LOCAL_READ));
    }
}
