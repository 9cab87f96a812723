//! Hopscotch-style hash table (paper §5.2).
//!
//! "Hopscotch hashing is a popular hashing scheme that resolves collisions
//! by using H hashes for each entry and storing them in 1 out of H
//! buckets. Each bucket has a neighborhood that can probabilistically hold
//! a given key."
//!
//! This table uses H = 2 candidate buckets (the paper's offload setup) and
//! a 6-bucket neighborhood (FaRM's default, which the one-sided baseline
//! reads in one go: "the neighborhood size is set to 6 by default,
//! implying a 6× overhead for RDMA metadata operations").
//!
//! Buckets use the RedN offload layout
//! ([`redn_core::offloads::hash_lookup`]): `[value_ptr: u64][key: 48b]`.

use redn_core::offloads::hash_lookup::{encode_bucket, BUCKET_SIZE};
use rnic_sim::error::Result;
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::mem::{Access, MemoryRegion};
use rnic_sim::sim::Simulator;

use redn_kv::store::{h1, h2, ValueHeap};

/// FaRM's default neighborhood size.
pub const NEIGHBORHOOD: u64 = 6;

/// A hopscotch table in simulated server memory.
pub struct HopscotchTable {
    /// Node holding the table.
    pub node: NodeId,
    /// Bucket array base address.
    pub base: u64,
    /// Number of buckets (power of two).
    pub nbuckets: u64,
    /// Value storage.
    pub heap: ValueHeap,
    mr: MemoryRegion,
    /// Host-side shadow for inserts: bucket -> (key, value slot), key 0 =
    /// empty.
    shadow: Vec<(u64, u64)>,
}

impl HopscotchTable {
    /// Create a table with `nbuckets` buckets and a value heap of the same
    /// capacity.
    pub fn create(
        sim: &mut Simulator,
        node: NodeId,
        nbuckets: u64,
        value_len: u32,
        owner: ProcessId,
    ) -> Result<HopscotchTable> {
        assert!(nbuckets.is_power_of_two());
        let base = sim.alloc(node, nbuckets * BUCKET_SIZE, 64)?;
        let mr = sim.register_mr_owned(node, base, nbuckets * BUCKET_SIZE, Access::all(), owner)?;
        let heap = ValueHeap::create(sim, node, nbuckets, value_len, owner)?;
        Ok(HopscotchTable {
            node,
            base,
            nbuckets,
            heap,
            mr,
            shadow: vec![(0, 0); nbuckets as usize],
        })
    }

    /// The table's memory region.
    pub fn mr(&self) -> MemoryRegion {
        self.mr
    }

    /// Address of bucket `idx`.
    pub fn bucket_addr(&self, idx: u64) -> u64 {
        self.base + (idx % self.nbuckets) * BUCKET_SIZE
    }

    /// The two candidate buckets a client computes for `key`.
    pub fn candidates(&self, key: u64) -> [u64; 2] {
        [h1(key, self.nbuckets), h2(key, self.nbuckets)]
    }

    /// Candidate bucket *addresses* (what the RedN client sends).
    pub fn candidate_addrs(&self, key: u64) -> [u64; 2] {
        let [a, b] = self.candidates(key);
        [self.bucket_addr(a), self.bucket_addr(b)]
    }

    /// Insert `key -> value`. Tries candidate 1's neighborhood, then
    /// candidate 2's. Returns the bucket index used.
    pub fn insert(&mut self, sim: &mut Simulator, key: u64, value: &[u8]) -> Result<Option<u64>> {
        let slot = match self.heap.alloc_slot() {
            Some(s) => s,
            None => return Ok(None),
        };
        self.heap.write_value(sim, slot, value)?;
        for cand in self.candidates(key) {
            for off in 0..NEIGHBORHOOD {
                let idx = (cand + off) % self.nbuckets;
                if self.shadow[idx as usize].0 == 0 {
                    return self.fill(sim, idx, key, slot).map(Some);
                }
            }
        }
        Ok(None)
    }

    /// Insert forcing placement into candidate `which` (0 or 1) exactly —
    /// experiment control for Fig 10 ("all keys found in the first
    /// bucket") and Fig 11 ("always found in the second bucket").
    pub fn insert_at_candidate(
        &mut self,
        sim: &mut Simulator,
        key: u64,
        value: &[u8],
        which: usize,
    ) -> Result<Option<u64>> {
        let slot = match self.heap.alloc_slot() {
            Some(s) => s,
            None => return Ok(None),
        };
        self.heap.write_value(sim, slot, value)?;
        let idx = self.candidates(key)[which];
        if self.shadow[idx as usize].0 != 0 {
            return Ok(None); // occupied: experiment setup should avoid this
        }
        self.fill(sim, idx, key, slot).map(Some)
    }

    fn fill(&mut self, sim: &mut Simulator, idx: u64, key: u64, slot: u64) -> Result<u64> {
        sim.mem_write(self.node, self.bucket_addr(idx), &encode_bucket(slot, key))?;
        self.shadow[idx as usize] = (key, slot);
        Ok(idx)
    }

    /// Host-side lookup (the reference tests check against). Returns the
    /// value slot address.
    pub fn lookup(&self, key: u64) -> Option<u64> {
        for cand in self.candidates(key) {
            for off in 0..NEIGHBORHOOD {
                let idx = (cand + off) % self.nbuckets;
                let (k, slot) = self.shadow[idx as usize];
                if k == key {
                    return Some(slot);
                }
            }
        }
        None
    }

    /// Number of occupied buckets.
    pub fn len(&self) -> usize {
        self.shadow.iter().filter(|(k, _)| *k != 0).count()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::config::{HostConfig, NicConfig, SimConfig};

    fn table() -> (Simulator, HopscotchTable) {
        let mut sim = Simulator::new(SimConfig::default());
        let n = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
        let t = HopscotchTable::create(&mut sim, n, 256, 64, ProcessId(0)).unwrap();
        (sim, t)
    }

    #[test]
    fn insert_then_lookup() {
        let (mut sim, mut t) = table();
        assert!(t.is_empty());
        for k in 1..=50u64 {
            let v = vec![k as u8; 64];
            assert!(t.insert(&mut sim, k, &v).unwrap().is_some(), "key {k}");
        }
        assert_eq!(t.len(), 50);
        for k in 1..=50u64 {
            let slot = t.lookup(k).expect("inserted");
            let v = t.heap.read_value(&sim, slot, 64).unwrap();
            assert_eq!(v[0], k as u8);
        }
        assert!(t.lookup(99).is_none());
    }

    #[test]
    fn bucket_bytes_match_offload_layout() {
        let (mut sim, mut t) = table();
        let idx = t.insert(&mut sim, 0xABC, &[7u8; 64]).unwrap().unwrap();
        let bytes = sim
            .mem_read(t.node, t.bucket_addr(idx), BUCKET_SIZE)
            .unwrap();
        let ptr = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let mut kb = [0u8; 8];
        kb[..6].copy_from_slice(&bytes[8..14]);
        assert_eq!(u64::from_le_bytes(kb), 0xABC);
        assert_eq!(t.heap.read_value(&sim, ptr, 1).unwrap()[0], 7);
    }

    #[test]
    fn insert_at_candidate_controls_placement() {
        let (mut sim, mut t) = table();
        t.insert_at_candidate(&mut sim, 5, &[1; 64], 1)
            .unwrap()
            .unwrap();
        let [_, c2] = t.candidates(5);
        assert_eq!(t.shadow[c2 as usize].0, 5);
    }

    #[test]
    fn candidate_addrs_are_bucket_aligned() {
        let (_sim, t) = table();
        for addr in t.candidate_addrs(77) {
            assert_eq!((addr - t.base) % BUCKET_SIZE, 0);
        }
    }
}
