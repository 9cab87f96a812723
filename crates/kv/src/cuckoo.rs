//! Cuckoo hash table (paper §5.4).
//!
//! The paper's Memcached integration "employs cuckoo hashing \[24\]"
//! (MemC3). Each key has two candidate buckets; inserts into full
//! candidates relocate the incumbent to its alternate bucket, BFS-free
//! greedy style with a bounded kick chain.
//!
//! Buckets share the RedN offload layout (`[ptr][key48]`), so the same
//! [`redn_core::offloads::hash_lookup`] program serves both table types.

use redn_core::offloads::hash_lookup::{encode_bucket, BUCKET_SIZE};
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::mem::{Access, MemoryRegion};
use rnic_sim::sim::Simulator;

use crate::store::{h1, h2, ValueHeap};

/// Maximum relocation chain before declaring the table full.
const MAX_KICKS: usize = 64;

/// A cuckoo table in simulated server memory.
pub struct CuckooTable {
    /// Node holding the table.
    pub node: NodeId,
    /// Bucket array base.
    pub base: u64,
    /// Bucket count (power of two).
    pub nbuckets: u64,
    /// Value storage.
    pub heap: ValueHeap,
    mr: MemoryRegion,
    shadow: Vec<(u64, u64)>,
}

impl CuckooTable {
    /// Create a table of `nbuckets` buckets (a power of two), each with
    /// a `value_len`-byte value slot. A bucket count that is not a power
    /// of two is an `InvalidWr`; a table larger than the node's DRAM,
    /// however large, is `OutOfMemory`.
    pub fn create(
        sim: &mut Simulator,
        node: NodeId,
        nbuckets: u64,
        value_len: u32,
        owner: ProcessId,
    ) -> Result<CuckooTable> {
        if !nbuckets.is_power_of_two() {
            return Err(Error::InvalidWr(
                "cuckoo tables need a power-of-two bucket count",
            ));
        }
        let len = nbuckets
            .checked_mul(BUCKET_SIZE)
            .ok_or(Error::OutOfMemory(node))?;
        let base = sim.alloc(node, len, 64)?;
        let mr = sim.register_mr_owned(node, base, len, Access::all(), owner)?;
        let heap = ValueHeap::create(sim, node, nbuckets, value_len, owner)?;
        Ok(CuckooTable {
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

    /// The two candidate buckets for `key`.
    pub fn candidates(&self, key: u64) -> [u64; 2] {
        [h1(key, self.nbuckets), h2(key, self.nbuckets)]
    }

    /// Candidate bucket addresses (client-side metadata for RedN gets).
    pub fn candidate_addrs(&self, key: u64) -> [u64; 2] {
        let [a, b] = self.candidates(key);
        [self.bucket_addr(a), self.bucket_addr(b)]
    }

    fn write_bucket(&mut self, sim: &mut Simulator, idx: u64, key: u64, slot: u64) -> Result<()> {
        sim.mem_write(self.node, self.bucket_addr(idx), &encode_bucket(slot, key))?;
        self.shadow[idx as usize] = (key, slot);
        Ok(())
    }

    /// Insert (or update) `key -> value`. Returns false if the kick chain
    /// exceeded its budget (table effectively full). A value longer than
    /// a slot is an `InvalidWr`, refused before a slot is taken.
    pub fn insert(&mut self, sim: &mut Simulator, key: u64, value: &[u8]) -> Result<bool> {
        self.heap.check_fits(value)?;
        let mut cands = self.candidates(key);
        // Update in place if present.
        if let Some(slot) = self.lookup_in(cands, key) {
            self.heap.write_value(sim, slot, value)?;
            return Ok(true);
        }
        let slot = match self.heap.alloc_slot() {
            Some(s) => s,
            None => return Ok(false),
        };
        self.heap.write_value(sim, slot, value)?;

        let (mut key, mut slot) = (key, slot);
        // Classic cuckoo walk: place in an empty candidate if any; else
        // evict the occupant of one candidate and push the victim toward
        // its *alternate* bucket, repeating up to the kick budget. Failed
        // walks are unwound so no resident key is ever lost.
        let mut idx = cands[0];
        let mut undo: Vec<(u64, u64, u64)> = Vec::new(); // (idx, key, slot)
        for _ in 0..MAX_KICKS {
            let [a, b] = cands;
            if self.shadow[a as usize].0 == 0 {
                self.write_bucket(sim, a, key, slot)?;
                return Ok(true);
            }
            if self.shadow[b as usize].0 == 0 {
                self.write_bucket(sim, b, key, slot)?;
                return Ok(true);
            }
            // Both full: evict from `idx` and chase the victim's
            // alternate.
            let (vk, vs) = self.shadow[idx as usize];
            undo.push((idx, vk, vs));
            self.write_bucket(sim, idx, key, slot)?;
            key = vk;
            slot = vs;
            cands = self.candidates(key);
            let [va, vb] = cands;
            idx = if idx == va { vb } else { va };
        }
        // Budget exhausted: restore every displaced key; only the new key
        // fails to insert.
        for (idx, k, s) in undo.into_iter().rev() {
            self.write_bucket(sim, idx, k, s)?;
        }
        Ok(false)
    }

    /// Host-side lookup: value slot address.
    pub fn lookup(&self, key: u64) -> Option<u64> {
        self.lookup_in(self.candidates(key), key)
    }

    /// [`CuckooTable::lookup`] over `key`'s already computed candidates.
    fn lookup_in(&self, candidates: [u64; 2], key: u64) -> Option<u64> {
        let held = candidates.map(|idx| self.shadow[idx as usize]);
        held.into_iter()
            .find(|&(k, _)| k == key)
            .map(|(_, slot)| slot)
    }

    /// Which candidate (0 or 1) holds `key`, if any — used to check the
    /// paper's claim that the offload probes at most two buckets.
    pub fn holding_candidate(&self, key: u64) -> Option<usize> {
        let [c1, c2] = self.candidates(key);
        if self.shadow[c1 as usize].0 == key {
            Some(0)
        } else if self.shadow[c2 as usize].0 == key {
            Some(1)
        } else {
            None
        }
    }

    /// Occupied buckets.
    pub fn len(&self) -> usize {
        self.shadow.iter().filter(|(k, _)| *k != 0).count()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::config::{HostConfig, NicConfig, SimConfig};

    fn table(n: u64) -> (Simulator, CuckooTable) {
        let mut sim = Simulator::new(SimConfig::default());
        let node = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
        let t = CuckooTable::create(&mut sim, node, n, 64, ProcessId(0)).unwrap();
        (sim, t)
    }

    #[test]
    fn insert_lookup_update() {
        let (mut sim, mut t) = table(256);
        for k in 1..=100u64 {
            assert!(t.insert(&mut sim, k, &[k as u8; 64]).unwrap(), "key {k}");
        }
        assert_eq!(t.len(), 100);
        for k in 1..=100u64 {
            let slot = t.lookup(k).expect("inserted");
            assert_eq!(t.heap.read_value(&sim, slot, 1).unwrap()[0], k as u8);
            // Every key sits in one of its two candidates (cuckoo
            // invariant — what makes the 2-probe offload sufficient).
            assert!(t.holding_candidate(k).is_some());
        }
        // Update in place.
        assert!(t.insert(&mut sim, 7, &[0xEE; 64]).unwrap());
        let slot = t.lookup(7).unwrap();
        assert_eq!(t.heap.read_value(&sim, slot, 1).unwrap()[0], 0xEE);
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn kicks_relocate_but_preserve_reachability() {
        // Load to ~75%: kicks must happen yet every key stays findable.
        let (mut sim, mut t) = table(128);
        let mut inserted = Vec::new();
        for k in 1..=96u64 {
            if t.insert(&mut sim, k, &[1; 64]).unwrap() {
                inserted.push(k);
            }
        }
        assert!(inserted.len() >= 90, "only {} fit", inserted.len());
        for &k in &inserted {
            assert!(t.lookup(k).is_some(), "key {k} lost after kicks");
            assert!(
                t.holding_candidate(k).is_some(),
                "key {k} outside candidates"
            );
        }
    }

    #[test]
    fn memory_matches_shadow() {
        let (mut sim, mut t) = table(64);
        t.insert(&mut sim, 42, &[9; 64]).unwrap();
        let idx = t.candidates(42)[t.holding_candidate(42).unwrap()];
        let bytes = sim
            .mem_read(t.node, t.bucket_addr(idx), BUCKET_SIZE)
            .unwrap();
        let mut kb = [0u8; 8];
        kb[..6].copy_from_slice(&bytes[8..14]);
        assert_eq!(u64::from_le_bytes(kb), 42);
    }

    #[test]
    fn a_bucket_count_that_is_not_a_power_of_two_is_an_error() {
        let mut sim = Simulator::new(SimConfig::default());
        let node = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
        // An assert used to fire.
        let odd = CuckooTable::create(&mut sim, node, 100, 64, ProcessId(0));
        assert!(matches!(odd, Err(Error::InvalidWr(_))));
        assert_eq!(sim.mem(node).allocated(), 0, "nothing was allocated");
    }

    #[test]
    fn a_table_too_large_to_address_is_an_error() {
        let mut sim = Simulator::new(SimConfig::default());
        let node = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
        // A power of two whose byte size does not fit in a u64: the
        // product used to overflow.
        let huge = CuckooTable::create(&mut sim, node, 1 << 62, 64, ProcessId(0));
        assert!(matches!(huge, Err(Error::OutOfMemory(n)) if n == node));
        assert_eq!(sim.mem(node).allocated(), 0, "nothing was allocated");
    }

    #[test]
    fn an_oversize_value_is_refused_before_it_takes_a_slot() {
        let (mut sim, mut t) = table(64);
        // Used to take a slot, then trip write_value's assert.
        let err = t.insert(&mut sim, 5, &[1; 65]);
        assert!(matches!(err, Err(Error::InvalidWr(_))));
        assert_eq!((t.heap.used(), t.len()), (0, 0), "no slot, no bucket");
        assert!(t.insert(&mut sim, 5, &[2; 64]).unwrap());
        let slot = t.lookup(5).unwrap();
        // The update-in-place path refuses it too, leaving the value.
        assert!(t.insert(&mut sim, 5, &[3; 65]).is_err());
        assert_eq!(t.heap.read_value(&sim, slot, 64).unwrap(), [2; 64]);
        assert_eq!(t.heap.used(), 1);
    }

    #[test]
    fn full_table_reports_failure() {
        let (mut sim, mut t) = table(8);
        let mut ok = 0;
        for k in 1..=64u64 {
            if t.insert(&mut sim, k, &[1; 64]).unwrap() {
                ok += 1;
            }
        }
        assert!(ok < 64, "an 8-bucket table cannot hold 64 keys");
        assert!(ok >= 4);
    }
}
