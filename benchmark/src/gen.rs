//! The seeded input generator. Everything a workload feeds the library —
//! key order, the get/put mix, the tenant family mix, the Turing
//! machine's start value — is drawn here from `--seed`; the library
//! receives only the generated lists.

/// SplitMix64: small, fast, and a pure function of the seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated per `stream` so two uses of one
    /// seed (say, keys and the op mix) do not draw the same numbers.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by widening multiply.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One key list per client: `ops` uniform draws from the populated keys
/// `1..=nkeys`.
pub fn key_lists(rng: &mut Rng, clients: usize, ops: usize, nkeys: u64) -> Vec<Vec<u64>> {
    (0..clients)
        .map(|_| (0..ops).map(|_| 1 + rng.below(nkeys)).collect())
        .collect()
}

/// One operation of the `cluster_rw` stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RwOp {
    Get(u64),
    Put(u64),
}

/// `n` operations, stratified so that every seed offers the same load
/// shape and only order and keys differ: each block of
/// `5 × shards` ops holds, for every shard, four gets and one put (an
/// exact 80/20 mix, an exactly even spread over the shards) in seeded
/// order, with keys drawn uniformly from that shard's `partition`.
/// Unstratified draws made the simulated throughput of `cluster_rw`
/// swing by 3 % from seed to seed — the busiest shard sets it.
pub fn rw_ops(rng: &mut Rng, n: usize, partition: &[Vec<u64>]) -> Vec<RwOp> {
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        let start = ops.len();
        for keys in partition {
            let mut key = || keys[rng.below(keys.len() as u64) as usize];
            ops.push(RwOp::Put(key()));
            ops.extend((0..4).map(|_| RwOp::Get(key())));
        }
        rng.shuffle(&mut ops[start..]);
    }
    ops.truncate(n);
    ops
}

/// The value version `version` of `key` carries: `len` bytes repeating
/// one mixed 8-byte word, so a reader can tell every version of every
/// key apart. Version 0 is what `populate` wrote (the key's low byte).
pub fn value_of(key: u64, version: u64, len: usize) -> Vec<u8> {
    if version == 0 {
        return vec![(key & 0xFF) as u8; len];
    }
    let word = Rng::new(key, version).next_u64().to_le_bytes();
    (0..len).map(|i| word[i % 8]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams_and_different_seeds_differ() {
        let stream = |seed| {
            let mut r = Rng::new(seed, 1);
            let partition: Vec<Vec<u64>> = (0..4)
                .map(|s| (s * 100 + 1..=s * 100 + 100).collect())
                .collect();
            (
                key_lists(&mut r, 3, 50, 4096),
                rw_ops(&mut r, 200, &partition),
            )
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        let (keys, ops) = stream(7);
        assert!(keys.iter().flatten().all(|k| (1..=4096).contains(k)));
        let puts = ops.iter().filter(|o| matches!(o, RwOp::Put(_))).count();
        assert_eq!(puts, 40, "exactly a fifth are puts");
        for shard in 0..4u64 {
            let hits = ops
                .iter()
                .filter(|o| matches!(o, RwOp::Get(k) | RwOp::Put(k) if (k - 1) / 100 == shard))
                .count();
            assert_eq!(hits, 50, "shard {shard} gets exactly a quarter");
        }
    }

    #[test]
    fn streams_of_one_seed_are_separate() {
        assert_ne!(Rng::new(1, 1).next_u64(), Rng::new(1, 2).next_u64());
    }

    #[test]
    fn shuffle_permutes() {
        let mut v: Vec<u32> = (0..32).collect();
        Rng::new(3, 0).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }

    #[test]
    fn values_tell_versions_apart() {
        assert_eq!(value_of(0x1234, 0, 4), vec![0x34; 4]);
        assert_ne!(value_of(5, 1, 16), value_of(5, 2, 16));
        assert_ne!(value_of(5, 1, 16), value_of(6, 1, 16));
        assert_eq!(value_of(5, 1, 16)[..8], value_of(5, 1, 16)[8..]);
    }
}
