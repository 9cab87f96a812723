//! Free-list slabs and buffer pools for the simulator's per-event hot
//! paths.
//!
//! The event loop used to key in-flight messages, timer callbacks, and CQ
//! listeners through `HashMap<u64, _>` — a hash, a probe, and an eventual
//! rehash on every single event. A [`Slab`] replaces that with a dense
//! `Vec` plus a LIFO free list: insert and remove are two array writes,
//! lookups are one bounds-checked index. Keys carry a **generation tag**
//! so a stale key (held across a remove + reuse of the same slot) misses
//! instead of aliasing the new occupant — the same safety the HashMap's
//! ever-growing `u64` keys provided, without the hashing.
//!
//! [`BufPool`] recycles `Vec<u8>` payload/result buffers: the data path
//! gathers every SEND/WRITE payload and every READ response into a byte
//! buffer, and freeing + reallocating those per message dominated the
//! allocator profile. Buffers return to the pool at completion and are
//! handed back (cleared, capacity intact) to the next message.

/// Number of low bits holding the slot index; the rest hold the
/// generation. 2^32 concurrent slots is far beyond any simulation.
const INDEX_BITS: u32 = 32;
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;

struct Entry<T> {
    /// Generation of the current (or next, when vacant) occupant. Bumped
    /// on remove, so old keys to this slot stop resolving.
    generation: u32,
    value: Option<T>,
}

/// A generation-checked free-list slab. Keys are `u64` (generation in the
/// high bits, slot index in the low bits) and remain unique across
/// insert/remove cycles of the same slot.
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    /// LIFO free list of vacant slot indices — deterministic reuse order.
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// Create an empty slab.
    pub fn new() -> Slab<T> {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Insert a value; returns its generation-tagged key.
    pub fn insert(&mut self, value: T) -> u64 {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            let e = &mut self.entries[idx as usize];
            debug_assert!(e.value.is_none());
            e.value = Some(value);
            ((e.generation as u64) << INDEX_BITS) | idx as u64
        } else {
            let idx = self.entries.len() as u32;
            self.entries.push(Entry {
                generation: 0,
                value: Some(value),
            });
            idx as u64
        }
    }

    /// The value for `key`, if it is still live.
    pub fn get(&self, key: u64) -> Option<&T> {
        let e = self.entries.get((key & INDEX_MASK) as usize)?;
        if e.generation as u64 != key >> INDEX_BITS {
            return None;
        }
        e.value.as_ref()
    }

    /// Mutable access to the value for `key`, if it is still live.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let e = self.entries.get_mut((key & INDEX_MASK) as usize)?;
        if e.generation as u64 != key >> INDEX_BITS {
            return None;
        }
        e.value.as_mut()
    }

    /// Mutable access to an entry the caller knows is live (e.g. the
    /// in-flight record an undelivered event still refers to); a miss is a
    /// bug in the caller's key bookkeeping.
    #[track_caller]
    pub(crate) fn live_mut(&mut self, key: u64) -> &mut T {
        self.get_mut(key).expect("stale slab key")
    }

    /// Remove and return the value for `key`. The slot's generation bumps,
    /// so the key (and any copy of it) stops resolving immediately.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let idx = (key & INDEX_MASK) as usize;
        let e = self.entries.get_mut(idx)?;
        if e.generation as u64 != key >> INDEX_BITS {
            return None;
        }
        let v = e.value.take()?;
        e.generation = e.generation.wrapping_add(1);
        self.free.push(idx as u32);
        self.len -= 1;
        Some(v)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// How many spare buffers a [`BufPool`] retains. Enough for every message
/// a deeply pipelined fleet keeps in flight; beyond that, freeing is
/// cheaper than hoarding.
const POOL_CAP: usize = 4096;

/// A recycling pool of byte buffers.
#[derive(Default)]
pub struct BufPool {
    spare: Vec<Vec<u8>>,
}

impl BufPool {
    /// Create an empty pool.
    pub fn new() -> BufPool {
        BufPool::default()
    }

    /// Take a cleared buffer (previous capacity retained when recycled).
    pub fn take(&mut self) -> Vec<u8> {
        self.spare.pop().unwrap_or_default()
    }

    /// Return a buffer to the pool. Zero-capacity buffers (the `Vec::new`
    /// holes left by moves) and overflow beyond the cap are dropped.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || self.spare.len() >= POOL_CAP {
            return;
        }
        buf.clear();
        self.spare.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut s: Slab<&str> = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_ne!(a, b);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get_mut(b).map(|v| *v), Some("b"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.remove(a), None, "double remove misses");
        assert_eq!(s.get(a), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn stale_keys_do_not_alias_reused_slots() {
        let mut s: Slab<u32> = Slab::new();
        let k1 = s.insert(1);
        s.remove(k1);
        // LIFO reuse: the same slot index comes back with a new generation.
        let k2 = s.insert(2);
        assert_eq!(k1 & 0xFFFF_FFFF, k2 & 0xFFFF_FFFF, "slot reused");
        assert_ne!(k1, k2, "keys differ by generation");
        assert_eq!(s.get(k1), None, "stale key misses");
        assert_eq!(s.get(k2), Some(&2));
    }

    #[test]
    fn reuse_order_is_lifo_and_deterministic() {
        let mut s: Slab<u32> = Slab::new();
        let keys: Vec<u64> = (0..4).map(|i| s.insert(i)).collect();
        s.remove(keys[1]);
        s.remove(keys[3]);
        // Last freed (slot 3) is reused first.
        let k = s.insert(10);
        assert_eq!(k & 0xFFFF_FFFF, keys[3] & 0xFFFF_FFFF);
        let k = s.insert(11);
        assert_eq!(k & 0xFFFF_FFFF, keys[1] & 0xFFFF_FFFF);
    }

    #[test]
    fn buf_pool_recycles_capacity() {
        let mut p = BufPool::new();
        let mut b = p.take();
        b.extend_from_slice(&[1, 2, 3, 4]);
        let cap = b.capacity();
        p.put(b);
        let b2 = p.take();
        assert!(b2.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b2.capacity(), cap, "capacity survives recycling");
        // Zero-capacity holes are not pooled.
        p.put(Vec::new());
        assert_eq!(p.take().capacity(), 0);
    }
}
