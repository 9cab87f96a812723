//! Memtier-like workload generation and latency statistics.
//!
//! The paper benchmarks Memcached with Memtier (§5.4: "issue 1 million
//! get operations using different key-value sizes") and, for the
//! isolation experiment, gives each client "a distinct set of 10K keys
//! ... accessed by the clients sequentially" (§5.5). The sequential
//! pattern is reproduced here.

use rnic_sim::time::Time;

/// A deterministic request stream: a key set visited sequentially with
/// wrap-around.
pub struct Workload {
    keys: Vec<u64>,
    cursor: usize,
}

impl Workload {
    /// A disjoint sequential key range `[base, base + nkeys)` — the §5.5
    /// per-client pattern.
    pub fn sequential(base: u64, nkeys: usize) -> Workload {
        Workload {
            keys: (base..base + nkeys as u64).collect(),
            cursor: 0,
        }
    }

    /// A workload over an explicit key set. The cluster layer hands each
    /// shard's fleet exactly the keys that route to that shard.
    pub fn from_keys(keys: Vec<u64>) -> Workload {
        assert!(!keys.is_empty(), "workload needs at least one key");
        Workload { keys, cursor: 0 }
    }

    /// Split the populated key space `[1, nkeys]` into `clients` disjoint
    /// sequential ranges — one [`Workload::sequential`] per serving-fleet
    /// client (any remainder keys beyond an even split go unused).
    pub fn split_sequential(nkeys: u64, clients: usize) -> Vec<Workload> {
        let span = nkeys / clients as u64;
        (0..clients as u64)
            .map(|i| Workload::sequential(1 + i * span, span as usize))
            .collect()
    }

    /// Next key, wrapping around the key set.
    pub fn next_key(&mut self) -> u64 {
        let k = self.keys[self.cursor % self.keys.len()];
        self.cursor += 1;
        k
    }
}

/// Latency statistics over a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyStats {
    /// Sample count.
    pub count: usize,
    /// Mean, microseconds.
    pub avg_us: f64,
    /// Median, microseconds.
    pub p50_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Maximum, microseconds.
    pub(crate) max_us: f64,
}

impl LatencyStats {
    /// Merge two sample-set summaries, count-weighted. Without the raw
    /// samples the merged percentiles are approximations — a weighted
    /// mean of the inputs' percentiles — which is exact when the
    /// distributions match and conservative enough for cluster-level
    /// aggregation (`max_us` stays exact). Callers needing exact merged
    /// percentiles must pool raw samples instead.
    pub(crate) fn merge(&self, other: &LatencyStats) -> LatencyStats {
        if self.count == 0 {
            return *other;
        }
        if other.count == 0 {
            return *self;
        }
        let (a, b) = (self.count as f64, other.count as f64);
        let w = |x: f64, y: f64| (x * a + y * b) / (a + b);
        LatencyStats {
            count: self.count + other.count,
            avg_us: w(self.avg_us, other.avg_us),
            p50_us: w(self.p50_us, other.p50_us),
            p99_us: w(self.p99_us, other.p99_us),
            max_us: self.max_us.max(other.max_us),
        }
    }
}

/// Compute statistics from raw latencies: a sorted copy, summarised by
/// `sorted_latency_stats`.
pub fn latency_stats(samples: &[Time]) -> LatencyStats {
    let mut v = samples.to_vec();
    v.sort_unstable();
    sorted_latency_stats(&v)
}

/// Compute statistics from latencies in ascending order — the one
/// percentile rule: the `p`-quantile is the sample at index
/// `round((n - 1) · p)`. A caller that owns its samples sorts them in
/// place and calls this, with no copy.
pub(crate) fn sorted_latency_stats(v: &[Time]) -> LatencyStats {
    assert!(!v.is_empty(), "no samples");
    let us = |t: Time| t.as_ps() as f64 / 1e6;
    let pick = |p: f64| us(v[((v.len() as f64 - 1.0) * p).round() as usize]);
    let sum: u64 = v.iter().map(|t| t.as_ps()).sum();
    LatencyStats {
        count: v.len(),
        avg_us: sum as f64 / v.len() as f64 / 1e6,
        p50_us: pick(0.5),
        p99_us: pick(0.99),
        max_us: us(v[v.len() - 1]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_workload_wraps() {
        let mut w = Workload::sequential(100, 3);
        assert_eq!(
            (0..7).map(|_| w.next_key()).collect::<Vec<_>>(),
            vec![100, 101, 102, 100, 101, 102, 100]
        );
    }

    #[test]
    fn stats_compute_percentiles() {
        let samples: Vec<Time> = (1..=100).map(Time::from_us).collect();
        let s = latency_stats(&samples);
        assert_eq!(s.count, 100);
        assert!((s.avg_us - 50.5).abs() < 0.01);
        assert!((s.p50_us - 50.0).abs() <= 1.0);
        assert!((s.p99_us - 99.0).abs() <= 1.0);
        assert!((s.max_us - 100.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn stats_reject_empty() {
        latency_stats(&[]);
    }
}
