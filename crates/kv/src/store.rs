//! Shared storage substrate: a registered value heap and key hashing.

use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::mem::{Access, MemoryRegion};
use rnic_sim::sim::Simulator;

/// Deterministic 64-bit mix (splitmix64 finalizer) — the stand-in for the
/// paper's hash functions. Keys are 48-bit (the conditional operand
/// width), so the hash input is masked accordingly.
pub fn hash_key(key: u64) -> u64 {
    let mut z = (key & 0xFFFF_FFFF_FFFF).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Check that `key` lies in the key domain, [1, 2⁴⁸). The NIC compares a
/// key as the 48-bit `id` field of a WQE header (§3.3), so a wider key
/// would alias the key its low 48 bits spell; key 0 is the empty-bucket
/// encoding.
pub(crate) fn check_key(key: u64) -> Result<()> {
    if key == 0 || key >> 48 != 0 {
        return Err(Error::BadKey(key));
    }
    Ok(())
}

/// First candidate bucket for a key.
pub fn h1(key: u64, nbuckets: u64) -> u64 {
    hash_key(key) % nbuckets
}

/// Second candidate bucket for a key (never equal to the first when the
/// table has more than one bucket).
pub fn h2(key: u64, nbuckets: u64) -> u64 {
    let a = h1(key, nbuckets);
    let b = hash_key(key.rotate_left(17) ^ 0xA5A5) % nbuckets;
    if a == b {
        (b + 1) % nbuckets
    } else {
        b
    }
}

/// A fixed-slot value heap registered for RDMA access. One slot per key;
/// slots are handed out sequentially by [`ValueHeap::alloc_slot`].
pub struct ValueHeap {
    /// Node the heap lives on.
    pub(crate) node: NodeId,
    /// Base address.
    pub base: u64,
    /// Slot size in bytes.
    pub slot_len: u32,
    /// Capacity in slots.
    pub(crate) slots: u64,
    /// Slots handed out.
    pub(crate) used: u64,
    mr: MemoryRegion,
}

impl ValueHeap {
    /// Allocate and register a heap of `slots` × `slot_len` bytes
    /// (`OutOfMemory` when that product does not even fit in a `u64`).
    pub fn create(
        sim: &mut Simulator,
        node: NodeId,
        slots: u64,
        slot_len: u32,
        owner: ProcessId,
    ) -> Result<ValueHeap> {
        let len = slots
            .checked_mul(u64::from(slot_len))
            .ok_or(Error::OutOfMemory(node))?;
        let base = sim.alloc(node, len, 64)?;
        let mr = sim.register_mr_owned(node, base, len, Access::all(), owner)?;
        Ok(ValueHeap {
            node,
            base,
            slot_len,
            slots,
            used: 0,
            mr,
        })
    }

    /// The heap's memory region.
    pub fn mr(&self) -> MemoryRegion {
        self.mr
    }

    /// Hand out the next free slot; returns its address.
    pub fn alloc_slot(&mut self) -> Option<u64> {
        if self.used >= self.slots {
            return None;
        }
        let addr = self.base + self.used * self.slot_len as u64;
        self.used += 1;
        Some(addr)
    }

    /// Refuse a value longer than a slot.
    pub(crate) fn check_fits(&self, value: &[u8]) -> Result<()> {
        if value.len() > self.slot_len as usize {
            return Err(Error::InvalidWr("value longer than its heap slot"));
        }
        Ok(())
    }

    /// Write a value into a slot (host-side store path); a value longer
    /// than a slot is an `InvalidWr` and writes nothing.
    pub fn write_value(&self, sim: &mut Simulator, slot_addr: u64, value: &[u8]) -> Result<()> {
        self.check_fits(value)?;
        sim.mem_write(self.node, slot_addr, value)
    }

    /// Read a value back (host-side).
    pub fn read_value(&self, sim: &Simulator, slot_addr: u64, len: u32) -> Result<Vec<u8>> {
        sim.mem_read(self.node, slot_addr, len as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::config::{HostConfig, NicConfig, SimConfig};

    #[test]
    fn hash_is_deterministic_and_spread() {
        assert_eq!(hash_key(42), hash_key(42));
        assert_ne!(hash_key(42), hash_key(43));
        // 48-bit masking: bits above 48 are ignored.
        assert_eq!(hash_key(7), hash_key(7 | (1 << 50)));
        // Rough spread check over a small table.
        let n = 64;
        let mut counts = vec![0usize; n as usize];
        for k in 0..1000u64 {
            counts[h1(k, n) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max < 50, "suspiciously clumped: {max}");
    }

    #[test]
    fn candidates_differ() {
        for k in 0..500u64 {
            assert_ne!(h1(k, 128), h2(k, 128), "key {k}");
        }
    }

    #[test]
    fn heap_allocates_and_stores() {
        let mut sim = Simulator::new(SimConfig::default());
        let n = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
        let mut heap = ValueHeap::create(&mut sim, n, 4, 64, ProcessId(0)).unwrap();
        let s0 = heap.alloc_slot().unwrap();
        let s1 = heap.alloc_slot().unwrap();
        assert_eq!(s1 - s0, 64);
        heap.write_value(&mut sim, s0, b"hello").unwrap();
        assert_eq!(&heap.read_value(&sim, s0, 5).unwrap(), b"hello");
        assert_eq!(heap.used, 2);
        heap.alloc_slot().unwrap();
        heap.alloc_slot().unwrap();
        assert!(heap.alloc_slot().is_none());
    }

    #[test]
    fn a_heap_too_large_to_address_is_an_error() {
        let mut sim = Simulator::new(SimConfig::default());
        let n = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
        // slots × slot_len does not fit in a u64: it used to overflow.
        let huge = ValueHeap::create(&mut sim, n, 1 << 60, 64, ProcessId(0));
        assert!(matches!(huge, Err(Error::OutOfMemory(node)) if node == n));
        assert_eq!(sim.mem(n).allocated(), 0, "nothing was allocated");
    }

    #[test]
    fn a_value_longer_than_its_slot_is_an_error() {
        let mut sim = Simulator::new(SimConfig::default());
        let n = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
        // An assert used to fire.
        let mut heap = ValueHeap::create(&mut sim, n, 2, 8, ProcessId(0)).unwrap();
        let s0 = heap.alloc_slot().unwrap();
        let s1 = heap.alloc_slot().unwrap();
        let long = heap.write_value(&mut sim, s0, &[7; 9]);
        assert!(matches!(long, Err(Error::InvalidWr(_))));
        assert_eq!(
            heap.read_value(&sim, s0, 16).unwrap(),
            [0; 16],
            "nothing written"
        );
        assert!(heap.write_value(&mut sim, s1, &[7; 8]).is_ok());
    }
}
