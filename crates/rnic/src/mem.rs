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

/// The first key a host hands out. Keys are issued in pairs and never
/// reused: registration `i` owns lkey `FIRST_KEY + 2i` and rkey
/// `FIRST_KEY + 2i + 1`.
const FIRST_KEY: u32 = 0x100;

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
    /// Registrations by ordinal (see [`FIRST_KEY`]): a key resolves by
    /// index, whatever the number of regions. A deregistered or
    /// reclaimed region leaves a `None` tombstone behind.
    regions: Vec<Option<MemoryRegion>>,
}

impl HostMemory {
    /// Create an arena of `capacity` bytes for `node`.
    pub fn new(node: NodeId, capacity: u64) -> HostMemory {
        HostMemory {
            node,
            data: vec![0; capacity as usize],
            brk: ARENA_BASE,
            regions: Vec::new(),
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
        let lkey = FIRST_KEY + 2 * self.regions.len() as u32;
        let mr = MemoryRegion {
            addr,
            len,
            lkey,
            rkey: lkey + 1,
            access,
            owner,
        };
        self.regions.push(Some(mr));
        Ok(mr)
    }

    /// Deregister by lkey. Returns whether a region was removed.
    pub fn deregister(&mut self, lkey: u32) -> bool {
        let slot = Self::slot_of(lkey, false).and_then(|i| self.regions.get_mut(i));
        slot.is_some_and(|r| r.take().is_some())
    }

    /// Drop every region owned by `owner` — what the OS does when a process
    /// dies and nothing else holds the RDMA resources (§5.6).
    /// Returns how many regions were reclaimed.
    pub fn reclaim_owner(&mut self, owner: ProcessId) -> usize {
        let slots = self.regions.iter_mut();
        slots
            .filter_map(|slot| slot.take_if(|r| r.owner == owner))
            .count()
    }

    /// Re-parent all regions of `from` to `to` — the "empty hull parent"
    /// trick of §5.6 (\[38\]): resources registered by the hull survive the
    /// child's crash.
    pub fn reparent(&mut self, from: ProcessId, to: ProcessId) -> usize {
        let mut n = 0;
        for r in self.regions.iter_mut().flatten() {
            if r.owner == from {
                r.owner = to;
                n += 1;
            }
        }
        n
    }

    /// The ordinal of the registration that was issued `key` as its rkey
    /// (`remote`) or lkey: parity tells the two apart.
    fn slot_of(key: u32, remote: bool) -> Option<usize> {
        let ordinal = key.checked_sub(FIRST_KEY)?;
        (ordinal % 2 == u32::from(remote)).then_some((ordinal / 2) as usize)
    }

    fn find_key(&self, key: u32, remote: bool) -> Option<&MemoryRegion> {
        self.regions.get(Self::slot_of(key, remote)?)?.as_ref()
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
        // A self-modifying chain can patch any address into a WQE:
        // neither sum may wrap.
        let inside = match (addr.checked_add(len), r.addr.checked_add(r.len)) {
            (Some(end), Some(limit)) => addr >= r.addr && end <= limit,
            _ => false,
        };
        if !inside {
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
        self.regions.iter().flatten().count()
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

    /// The reason of the key violation `r` must be.
    fn violation<T: std::fmt::Debug>(r: Result<T>) -> &'static str {
        match r {
            Err(Error::KeyViolation { reason, .. }) => reason,
            other => panic!("expected a key violation, got {other:?}"),
        }
    }

    #[test]
    fn wild_nic_addresses_are_key_violations_not_overflows() {
        // A self-modifying chain can patch any address into a WQE.
        let mut m = mem();
        let a = m.alloc(64, 8).unwrap();
        let mr = m.register(a, 64, Access::all(), P0).unwrap();
        let outside = |r: Result<()>| assert_eq!(violation(r), "outside registered range");
        outside(m.nic_write(mr.rkey, u64::MAX - 3, &[0; 8], true));
        outside(m.nic_write(mr.lkey, u64::MAX - 3, &[0; 8], false));
        let mut out = vec![0xAB];
        outside(m.nic_read_into(mr.rkey, u64::MAX - 3, 8, true, &mut out));
        assert_eq!(out, [0xAB], "a refused read leaves the buffer alone");
        outside(m.nic_read_into(mr.rkey, a, u64::MAX, true, &mut out));
        outside(m.nic_atomic(mr.rkey, u64::MAX - 7, |v| v + 1).map(drop));
        assert_eq!(m.read(a, 64).unwrap(), [0; 64], "nothing was written");
    }

    /// The representation and linear scan the ordinal table replaced,
    /// kept as its oracle.
    #[derive(Default)]
    struct ScanTable(Vec<MemoryRegion>);

    impl ScanTable {
        fn find_key(&self, key: u32, remote: bool) -> Option<&MemoryRegion> {
            let mut live = self.0.iter();
            live.find(|r| if remote { r.rkey == key } else { r.lkey == key })
        }
    }

    /// Every key that was ever issued, the keys around them and the
    /// extremes resolve as the scan says, both as lkeys and as rkeys.
    fn assert_agrees(m: &HostMemory, scan: &ScanTable, issued: u32, ctx: &str) {
        assert_eq!(m.region_count(), scan.0.len(), "{ctx}: region_count");
        let around = (FIRST_KEY - 4)..(FIRST_KEY + 2 * issued + 4);
        for key in around.chain([0, 1, u32::MAX - 1, u32::MAX]) {
            for remote in [false, true] {
                let (got, want) = (m.find_key(key, remote), scan.find_key(key, remote));
                assert_eq!(got, want, "{ctx}: key {key:#x}, remote {remote}");
                assert_eq!(m.region_by_key(key, remote), want, "{ctx}: region_by_key");
            }
        }
    }

    #[test]
    fn key_table_resolves_exactly_the_live_keys() {
        let mut m = mem();
        let a = m.alloc(256, 8).unwrap();
        let mrs: Vec<MemoryRegion> = (0..4)
            .map(|i| {
                let owner = if i < 2 { P0 } else { P1 };
                m.register(a + 64 * i, 64, Access::all(), owner).unwrap()
            })
            .collect();
        assert_eq!((mrs[0].lkey, mrs[0].rkey), (FIRST_KEY, FIRST_KEY + 1));
        // An lkey presented as an rkey, and the reverse, is refused.
        assert!(m.nic_read(mrs[1].rkey, a + 64, 8, true).is_ok());
        assert!(m.nic_read(mrs[1].lkey, a + 64, 8, false).is_ok());
        let swapped = m.nic_read(mrs[1].lkey, a + 64, 8, true);
        assert_eq!(violation(swapped), "key not registered");
        let swapped = m.nic_read(mrs[1].rkey, a + 64, 8, false);
        assert_eq!(violation(swapped), "key not registered");
        // Below the first key, the extremes, one past the last issued.
        let past = mrs[3].rkey + 1;
        for key in [0, FIRST_KEY - 1, u32::MAX, past, past + 1] {
            assert_eq!(m.region_by_key(key, false), None, "lkey {key:#x}");
            assert_eq!(m.region_by_key(key, true), None, "rkey {key:#x}");
            assert!(!m.deregister(key));
        }
        // A deregistered pair resolves to "key not registered".
        assert!(m.deregister(mrs[1].lkey));
        assert!(!m.deregister(mrs[1].rkey), "deregister takes the lkey");
        assert_eq!(
            violation(m.nic_read(mrs[1].rkey, a + 64, 8, true)),
            "key not registered"
        );
        assert_eq!(
            violation(m.nic_read(mrs[1].lkey, a + 64, 8, false)),
            "key not registered"
        );
        assert_eq!(m.region_count(), 3);
        // Reparenting changes no lookup.
        assert_eq!(m.reparent(P0, P1), 1);
        assert_eq!(m.region_by_key(mrs[0].rkey, true).unwrap().owner, P1);
        assert_eq!(m.region_by_key(mrs[0].lkey, false).unwrap().addr, a);
        // A reclaim tombstones its owner's regions; registering afterwards
        // hands out fresh keys and the survivors still resolve.
        let keep = m.register(a, 32, Access::all(), P0).unwrap();
        assert_eq!(m.reclaim_owner(P1), 3);
        assert_eq!(m.region_count(), 1);
        let fresh = m.register(a + 32, 32, Access::all(), P1).unwrap();
        assert_eq!(fresh.lkey, keep.lkey + 2, "keys are never reused");
        assert_eq!(m.region_by_key(fresh.rkey, true), Some(&fresh));
        assert_eq!(m.region_by_key(keep.lkey, false), Some(&keep));
        assert_eq!(m.region_by_key(mrs[0].rkey, true), None);
        assert_eq!(m.region_count(), 2);
    }

    proptest::proptest! {
        #[test]
        fn key_table_agrees_with_the_linear_scan(seed in proptest::any::<u64>()) {
            // The ops come from `seed` alone, so the seed a failure
            // prints replays it.
            let mut state = seed | 1;
            let mut below = move |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let mut m = mem();
            let a = m.alloc(4096, 8).unwrap();
            let mut scan = ScanTable::default();
            let mut issued = 0u32;
            for step in 0..200 {
                let ctx = format!("seed {seed}, step {step}");
                let owner = ProcessId(below(3) as u32);
                match below(8) {
                    0..=3 => {
                        let (off, len) = (below(64) * 32, 1 + below(2048));
                        let access = Access(below(32) as u8);
                        let mr = m.register(a + off, len, access, owner).unwrap();
                        scan.0.push(mr);
                        issued += 1;
                    }
                    4..=5 => {
                        // Any key near the issued range: live, dead, an
                        // rkey, never issued.
                        let lkey = FIRST_KEY - 2 + below(2 * u64::from(issued) + 6) as u32;
                        let before = scan.0.len();
                        scan.0.retain(|r| r.lkey != lkey);
                        assert_eq!(m.deregister(lkey), scan.0.len() != before, "{ctx}");
                    }
                    6 => {
                        let before = scan.0.len();
                        scan.0.retain(|r| r.owner != owner);
                        assert_eq!(m.reclaim_owner(owner), before - scan.0.len(), "{ctx}");
                    }
                    _ => {
                        let to = ProcessId(below(3) as u32);
                        let mine = scan.0.iter_mut().filter(|r| r.owner == owner);
                        let moved = mine.map(|r| r.owner = to).count();
                        assert_eq!(m.reparent(owner, to), moved, "{ctx}");
                    }
                }
                assert_agrees(&m, &scan, issued, &ctx);
            }
        }
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
