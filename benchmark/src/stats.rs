//! Percentiles, medians and quartiles.

use rnic_sim::time::Time;

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-quantile of ascending `sorted`, at index `round((n-1)·p)` —
/// the rule `redn_kv::workload::latency_stats` uses, so the benchmark's
/// numbers can be asserted equal to the library's.
fn pick(sorted: &[u64], p: f64) -> u64 {
    sorted[((sorted.len() as f64 - 1.0) * p).round() as usize]
}

/// Median and tail percentile of a latency sample, in µs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    pub count: usize,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Summarise latencies. Refused when fewer than [`MIN_BEYOND`] samples
/// lie beyond the 99th percentile: a p99 of a small sample is one
/// outlier, not a percentile.
pub fn latency(samples: &[Time]) -> Result<Latency, String> {
    let beyond = samples.len() / 100;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p99 needs >= {MIN_BEYOND} samples beyond it; {} samples leave {beyond}",
            samples.len()
        ));
    }
    let mut v: Vec<u64> = samples.iter().map(|t| t.as_ps()).collect();
    v.sort_unstable();
    Ok(Latency {
        count: v.len(),
        p50_us: pick(&v, 0.5) as f64 / 1e6,
        p99_us: pick(&v, 0.99) as f64 / 1e6,
    })
}

/// Median of an unsorted, non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The 90th percentile of an unsorted, non-empty sample: the value a
/// tenth of the sample reaches or beats. Interference from the machine's
/// other tenants only ever slows a pass (in this sandbox it cuts the
/// rate to 60 % for seconds at a time), so the fastest tenth of a run's
/// passes estimates the undisturbed rate, where the median follows
/// however much of the run was disturbed.
pub fn upper_decile(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() - 1) as f64 * 0.9).ceil() as usize]
}

/// First quartile, median, third quartile, as Python's
/// `statistics.quantiles(v, n=4)` gives them (the acceptance rule is
/// stated in those terms). Needs two samples or more.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n >= 2, "quartiles need >= 2 samples");
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_on_a_small_sample() {
        let few: Vec<Time> = (1..=999).map(Time::from_us).collect();
        assert!(latency(&few).is_err(), "999 samples leave 9 beyond p99");
        let enough: Vec<Time> = (1..=1000).rev().map(Time::from_us).collect();
        let l = latency(&enough).unwrap();
        assert_eq!(l.count, 1000);
        assert_eq!(l.p50_us, 501.0, "index round(999 * 0.5) = 500");
        assert_eq!(l.p99_us, 990.0, "index round(999 * 0.99) = 989");
    }

    #[test]
    fn percentiles_match_the_librarys_rule() {
        let samples: Vec<Time> = (0..2000u64).map(|i| Time::from_ps(i * i + 17)).collect();
        let lib = redn_kv::workload::latency_stats(&samples);
        let own = latency(&samples).unwrap();
        assert_eq!((own.p50_us, own.p99_us), (lib.p50_us, lib.p99_us));
    }

    #[test]
    fn upper_decile_ignores_the_slow_majority() {
        let mut rates = vec![97.0; 25];
        rates.extend([155.0, 158.0, 160.0, 163.0]);
        assert_eq!(upper_decile(&rates), 158.0);
        assert_eq!(upper_decile(&[3.0, 1.0, 2.0]), 3.0);
        assert_eq!(upper_decile(&[7.0]), 7.0);
    }

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }
}
