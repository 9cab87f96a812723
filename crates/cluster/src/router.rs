//! Consistent-hash shard routing.
//!
//! The cluster maps each key to exactly one shard (server node) with
//! **rendezvous (highest-random-weight) hashing**, the consistent-hash
//! family with provably minimal disruption: every `(key, shard)` pair
//! gets a pseudo-random weight and the key lives on the highest-weight
//! shard. Removing a shard remaps *only* the keys that lived on it
//! (~`1/N` of the key space), each to its runner-up shard — exactly the
//! property failover needs, since surviving shards keep their entire
//! working set and only the dead primary's keys move. Adding a shard
//! steals ~`1/(N+1)` of each survivor's keys, nothing else.
//!
//! Routing is deterministic and node-local (no coordination): every
//! client and every controller computes the same map from the same
//! member list.

/// splitmix64 finalizer — the weight function's mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic router from keys to shard indices.
#[derive(Clone, Debug)]
pub struct ShardRouter {
    shards: Vec<usize>,
}

impl ShardRouter {
    /// Router over the given shard indices (typically `0..n` positions
    /// into a cluster's node list). Order does not affect routing.
    pub fn new(shards: impl IntoIterator<Item = usize>) -> ShardRouter {
        let mut shards: Vec<usize> = shards.into_iter().collect();
        shards.sort_unstable();
        shards.dedup();
        ShardRouter { shards }
    }

    /// The `(key, shard)` rendezvous weight.
    fn weight(key: u64, shard: usize) -> u64 {
        mix(mix(key) ^ mix(shard as u64 + 1))
    }

    /// The shard owning `key`, or `None` when the member list is empty.
    fn try_route(&self, key: u64) -> Option<usize> {
        self.shards
            .iter()
            .copied()
            .max_by_key(|&s| Self::weight(key, s))
    }

    /// The shard owning `key`. Panics on an empty member list.
    pub fn route(&self, key: u64) -> usize {
        self.try_route(key).expect("routing with no live shards")
    }

    /// Remove a shard from the member list (its keys remap to their
    /// runner-up shards; everything else stays put). Returns whether the
    /// shard was a member.
    pub fn remove_shard(&mut self, shard: usize) -> bool {
        let before = self.shards.len();
        self.shards.retain(|&s| s != shard);
        self.shards.len() != before
    }

    /// Add a shard to the member list.
    pub fn add_shard(&mut self, shard: usize) {
        if !self.shards.contains(&shard) {
            self.shards.push(shard);
            self.shards.sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_member_only() {
        let r = ShardRouter::new(0..4);
        for key in 0..1000u64 {
            let s = r.route(key);
            assert!(s < 4);
            assert_eq!(s, r.route(key));
        }
    }

    #[test]
    fn removal_only_remaps_the_lost_shard() {
        let mut r = ShardRouter::new(0..5);
        let before: Vec<usize> = (0..2000u64).map(|k| r.route(k)).collect();
        assert!(r.remove_shard(2));
        assert!(!r.remove_shard(2), "already gone");
        for (k, &owner) in before.iter().enumerate() {
            let now = r.route(k as u64);
            if owner == 2 {
                assert_ne!(now, 2);
            } else {
                assert_eq!(now, owner, "surviving shard kept key {k}");
            }
        }
    }

    #[test]
    fn empty_router_routes_nowhere() {
        let r = ShardRouter::new(std::iter::empty());
        assert!(r.shards.is_empty());
        assert_eq!(r.try_route(7), None);
    }
}
