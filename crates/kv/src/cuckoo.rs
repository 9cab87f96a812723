//! Cuckoo hash table (paper §5.4).
//!
//! The paper's Memcached integration "employs cuckoo hashing \[24\]"
//! (MemC3). Each key has two candidate buckets; inserts into full
//! candidates relocate the incumbent to its alternate bucket, BFS-free
//! greedy style with a bounded kick chain.
//!
//! Buckets share the RedN offload layout (`[ptr][key48]`), so the same
//! [`redn_core::offloads::hash_lookup`] program serves both table types.
//! The bucket array in simulated server memory is the table's only
//! copy: host-side inserts and lookups read the bytes the NIC compares,
//! so a bucket an RDMA WRITE changed reads back changed on the host too.

use redn_core::offloads::hash_lookup::{encode_bucket, BUCKET_SIZE};
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::mem::{Access, MemoryRegion};
use rnic_sim::sim::Simulator;

use crate::store::{check_key, h1, h2, ValueHeap};

/// Maximum relocation chain before declaring the table full.
const MAX_KICKS: usize = 64;

/// Where a table's buckets sit: all a client needs to address a key's
/// candidate buckets, without holding the table.
#[derive(Clone, Copy, Debug)]
pub struct TableGeometry {
    /// Bucket array base.
    base: u64,
    /// Bucket count (power of two).
    nbuckets: u64,
}

impl TableGeometry {
    /// Address of bucket `idx`.
    fn bucket_addr(self, idx: u64) -> u64 {
        self.base + (idx % self.nbuckets) * BUCKET_SIZE
    }

    /// The two candidate buckets for `key`.
    fn candidates(self, key: u64) -> [u64; 2] {
        [h1(key, self.nbuckets), h2(key, self.nbuckets)]
    }

    /// Candidate bucket addresses (client-side metadata for RedN gets
    /// and one-sided probes).
    pub fn candidate_addrs(self, key: u64) -> [u64; 2] {
        self.candidates(key).map(|idx| self.bucket_addr(idx))
    }
}

/// A cuckoo table in simulated server memory.
pub struct CuckooTable {
    /// Node holding the table.
    pub(crate) node: NodeId,
    /// Value storage.
    pub heap: ValueHeap,
    geometry: TableGeometry,
    mr: MemoryRegion,
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
            heap,
            geometry: TableGeometry { base, nbuckets },
            mr,
        })
    }

    /// The table's memory region.
    pub fn mr(&self) -> MemoryRegion {
        self.mr
    }

    /// Where the buckets sit (what a client session keeps).
    pub fn geometry(&self) -> TableGeometry {
        self.geometry
    }

    /// The key bucket `idx` holds, as the NIC compares it (0: empty).
    fn key_at(&self, sim: &Simulator, idx: u64) -> Result<u64> {
        let addr = self.geometry.bucket_addr(idx) + 8;
        Ok(sim.mem_read_u64(self.node, addr)? & 0xFFFF_FFFF_FFFF)
    }

    /// The value slot bucket `idx` points at.
    fn slot_at(&self, sim: &Simulator, idx: u64) -> Result<u64> {
        sim.mem_read_u64(self.node, self.geometry.bucket_addr(idx))
    }

    /// The keys `candidates` hold.
    fn keys_at(&self, sim: &Simulator, candidates: [u64; 2]) -> Result<[u64; 2]> {
        Ok([
            self.key_at(sim, candidates[0])?,
            self.key_at(sim, candidates[1])?,
        ])
    }

    fn write_bucket(&self, sim: &mut Simulator, idx: u64, key: u64, slot: u64) -> Result<()> {
        let addr = self.geometry.bucket_addr(idx);
        sim.mem_write(self.node, addr, &encode_bucket(slot, key))
    }

    /// Insert (or update) `key -> value`. Returns false if the kick chain
    /// exceeded its budget (table effectively full). A key outside
    /// [1, 2⁴⁸) is a `BadKey`, and a value longer than a slot an
    /// `InvalidWr`, both refused before a slot is taken.
    pub fn insert(&mut self, sim: &mut Simulator, key: u64, value: &[u8]) -> Result<bool> {
        check_key(key)?;
        self.heap.check_fits(value)?;
        let mut cands = self.geometry.candidates(key);
        let mut held = self.keys_at(sim, cands)?;
        // Update in place if present.
        if let Some(c) = held.iter().position(|&k| k == key) {
            let slot = self.slot_at(sim, cands[c])?;
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
            if let Some(c) = held.iter().position(|&k| k == 0) {
                self.write_bucket(sim, cands[c], key, slot)?;
                return Ok(true);
            }
            // Both full: evict from `idx` and chase the victim's
            // alternate.
            let (vk, vs) = (self.key_at(sim, idx)?, self.slot_at(sim, idx)?);
            undo.push((idx, vk, vs));
            self.write_bucket(sim, idx, key, slot)?;
            key = vk;
            slot = vs;
            cands = self.geometry.candidates(key);
            held = self.keys_at(sim, cands)?;
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

    /// Insert `key -> value` into candidate `which` (0 or 1) exactly,
    /// never kicking: the experiment control for Fig 10 ("all keys found
    /// in the first bucket") and Fig 11 ("always found in the second
    /// bucket"). Returns false, taking no slot, when that bucket is
    /// occupied; a `which` above 1 is an `InvalidWr`.
    pub fn insert_at_candidate(
        &mut self,
        sim: &mut Simulator,
        key: u64,
        value: &[u8],
        which: usize,
    ) -> Result<bool> {
        check_key(key)?;
        self.heap.check_fits(value)?;
        let cands = self.geometry.candidates(key);
        let idx = *cands
            .get(which)
            .ok_or(Error::InvalidWr("a key has two candidate buckets"))?;
        if self.key_at(sim, idx)? != 0 {
            return Ok(false);
        }
        let Some(slot) = self.heap.alloc_slot() else {
            return Ok(false);
        };
        self.heap.write_value(sim, slot, value)?;
        self.write_bucket(sim, idx, key, slot)?;
        Ok(true)
    }

    /// Where `key` resides, read from the bucket bytes the NIC compares:
    /// (which candidate, its value slot). `None` for a key outside
    /// [1, 2⁴⁸), which the table never holds.
    fn resident(&self, sim: &Simulator, key: u64) -> Result<Option<(usize, u64)>> {
        if check_key(key).is_err() {
            return Ok(None);
        }
        let cands = self.geometry.candidates(key);
        for (c, idx) in cands.into_iter().enumerate() {
            if self.key_at(sim, idx)? == key {
                return Ok(Some((c, self.slot_at(sim, idx)?)));
            }
        }
        Ok(None)
    }

    /// Host-side lookup: value slot address.
    pub fn lookup(&self, sim: &Simulator, key: u64) -> Result<Option<u64>> {
        Ok(self.resident(sim, key)?.map(|(_, slot)| slot))
    }

    /// Which candidate (0 or 1) holds `key`, if any — used to check the
    /// paper's claim that the offload probes at most two buckets.
    pub fn holding_candidate(&self, sim: &Simulator, key: u64) -> Result<Option<usize>> {
        Ok(self.resident(sim, key)?.map(|(c, _)| c))
    }

    /// Occupied buckets.
    pub fn len(&self, sim: &Simulator) -> Result<usize> {
        let mut n = 0;
        for idx in 0..self.geometry.nbuckets {
            n += usize::from(self.key_at(sim, idx)? != 0);
        }
        Ok(n)
    }

    /// Whether empty.
    pub fn is_empty(&self, sim: &Simulator) -> Result<bool> {
        Ok(self.len(sim)? == 0)
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

    /// The NIC compares 48-bit keys: `7 + 2⁴⁸` would sit in the table
    /// as a second bucket the NIC reads as key 7.
    #[test]
    fn an_alias_of_a_resident_key_is_refused() {
        let (mut sim, mut t) = table(64);
        assert!(t.insert(&mut sim, 7, &[7; 64]).unwrap());
        assert!(t.insert(&mut sim, 7 + (1 << 48), &[9; 64]).is_err());
        assert_eq!(t.len(&sim).unwrap(), 1);
        assert_eq!(t.lookup(&sim, 7 + (1 << 48)).unwrap(), None);
    }

    /// Key 0 is the empty-bucket encoding: no lookup finds it.
    #[test]
    fn key_zero_is_never_found() {
        let (mut sim, mut t) = table(64);
        assert_eq!(
            t.lookup(&sim, 0).unwrap(),
            None,
            "an empty bucket is not key 0"
        );
        assert_eq!(t.holding_candidate(&sim, 0).unwrap(), None);
        assert!(t.insert(&mut sim, 0, &[1; 64]).is_err());
        assert!(t.insert(&mut sim, 5, &[5; 64]).unwrap());
        assert_eq!(t.lookup(&sim, 0).unwrap(), None);
    }

    #[test]
    fn insert_lookup_update() {
        let (mut sim, mut t) = table(256);
        for k in 1..=100u64 {
            assert!(t.insert(&mut sim, k, &[k as u8; 64]).unwrap(), "key {k}");
        }
        assert_eq!(t.len(&sim).unwrap(), 100);
        for k in 1..=100u64 {
            let slot = t.lookup(&sim, k).unwrap().expect("inserted");
            assert_eq!(t.heap.read_value(&sim, slot, 1).unwrap()[0], k as u8);
            // Every key sits in one of its two candidates (cuckoo
            // invariant — what makes the 2-probe offload sufficient).
            assert!(t.holding_candidate(&sim, k).unwrap().is_some());
        }
        // Update in place.
        assert!(t.insert(&mut sim, 7, &[0xEE; 64]).unwrap());
        let slot = t.lookup(&sim, 7).unwrap().unwrap();
        assert_eq!(t.heap.read_value(&sim, slot, 1).unwrap()[0], 0xEE);
        assert_eq!(t.len(&sim).unwrap(), 100);
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
            assert!(
                t.lookup(&sim, k).unwrap().is_some(),
                "key {k} lost after kicks"
            );
            assert!(
                t.holding_candidate(&sim, k).unwrap().is_some(),
                "key {k} outside candidates"
            );
        }
    }

    #[test]
    fn inserted_bucket_holds_the_offload_layout() {
        let (mut sim, mut t) = table(64);
        t.insert(&mut sim, 42, &[9; 64]).unwrap();
        let held = t.holding_candidate(&sim, 42).unwrap().unwrap();
        let addr = t.geometry().candidate_addrs(42)[held];
        let bytes = sim.mem_read(t.node, addr, BUCKET_SIZE).unwrap();
        let slot = t.lookup(&sim, 42).unwrap().unwrap();
        assert_eq!(bytes, encode_bucket(slot, 42));
    }

    /// The Fig 10/11 placement control puts a key in the candidate it
    /// names, and refuses an occupied bucket without taking a slot.
    #[test]
    fn insert_at_candidate_controls_placement() {
        let (mut sim, mut t) = table(256);
        for (key, which) in [(5, 1), (6, 0)] {
            assert!(t
                .insert_at_candidate(&mut sim, key, &[1; 64], which)
                .unwrap());
            assert_eq!(t.holding_candidate(&sim, key).unwrap(), Some(which));
        }
        let [_, c2] = t.geometry().candidates(5);
        let rival = (1..).find(|&k| k != 5 && t.geometry().candidates(k)[0] == c2);
        let placed = t.insert_at_candidate(&mut sim, rival.unwrap(), &[2; 64], 0);
        assert!(!placed.unwrap(), "bucket {c2} holds key 5");
        assert!(t.insert_at_candidate(&mut sim, 7, &[1; 64], 2).is_err());
        assert_eq!((t.heap.used, t.len(&sim).unwrap()), (2, 2));
    }

    /// The host reads the bytes the NIC compares: a bucket rewritten
    /// behind the table's back (as an RDMA WRITE would) reads back
    /// rewritten, not as the host last wrote it.
    #[test]
    fn lookups_see_a_bucket_rewritten_in_simulated_memory() {
        let (mut sim, mut t) = table(64);
        assert!(t.insert(&mut sim, 42, &[9; 64]).unwrap());
        let held = t.holding_candidate(&sim, 42).unwrap().unwrap();
        let addrs = t.geometry().candidate_addrs(42);
        // Move key 42 to its other candidate, pointing at another slot.
        let moved = t.heap.base + 5 * u64::from(t.heap.slot_len);
        sim.mem_write(t.node, addrs[held], &[0; BUCKET_SIZE as usize])
            .unwrap();
        sim.mem_write(t.node, addrs[1 - held], &encode_bucket(moved, 42))
            .unwrap();
        assert_eq!(t.holding_candidate(&sim, 42).unwrap(), Some(1 - held));
        assert_eq!(t.lookup(&sim, 42).unwrap(), Some(moved));
        assert_eq!(t.len(&sim).unwrap(), 1);
        // A bucket now naming another key no longer answers for 42.
        sim.mem_write(t.node, addrs[1 - held], &encode_bucket(moved, 43))
            .unwrap();
        assert_eq!(t.lookup(&sim, 42).unwrap(), None);
        assert_eq!(t.holding_candidate(&sim, 42).unwrap(), None);
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
        assert_eq!(
            (t.heap.used, t.len(&sim).unwrap()),
            (0, 0),
            "no slot, no bucket"
        );
        assert!(t.insert(&mut sim, 5, &[2; 64]).unwrap());
        let slot = t.lookup(&sim, 5).unwrap().unwrap();
        // The update-in-place path refuses it too, leaving the value.
        assert!(t.insert(&mut sim, 5, &[3; 65]).is_err());
        assert_eq!(t.heap.read_value(&sim, slot, 64).unwrap(), [2; 64]);
        assert_eq!(t.heap.used, 1);
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
