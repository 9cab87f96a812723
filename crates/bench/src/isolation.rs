//! §5.5 performance-isolation properties of the [`crate::contention`]
//! rig, one reader path at a time. `contention::tests` checks the Fig 15
//! ratio across writer counts.

#[cfg(test)]
mod tests {
    use crate::contention::{run_contention, ReaderPath};

    #[test]
    fn redn_stays_flat_under_contention() {
        let quiet = run_contention(0, 30, ReaderPath::RedN).unwrap();
        let storm = run_contention(16, 30, ReaderPath::RedN).unwrap();
        // The paper: "CPU contention has no impact on the performance of
        // the RNIC and both the average and 99th percentiles sit below
        // 7 µs".
        assert!(storm.p99_us < 10.0, "RedN p99 {}", storm.p99_us);
        assert!(
            storm.avg_us < quiet.avg_us * 1.5 + 1.0,
            "RedN avg moved too much: {} vs {}",
            storm.avg_us,
            quiet.avg_us
        );
    }

    #[test]
    fn two_sided_tail_blows_up_under_contention() {
        let quiet = run_contention(0, 30, ReaderPath::TwoSided).unwrap();
        let storm = run_contention(16, 30, ReaderPath::TwoSided).unwrap();
        assert!(
            storm.p99_us > quiet.p99_us * 3.0,
            "two-sided p99 should inflate: quiet {} storm {}",
            quiet.p99_us,
            storm.p99_us
        );
    }

    /// The Fig 15 split itself, preserved across the serving-layer port:
    /// under the same 16-writer storm the session-driven RedN reader must
    /// stay far below the two-sided reader's tail.
    #[test]
    fn reader_path_contention_split_preserved() {
        let redn = run_contention(16, 30, ReaderPath::RedN).unwrap();
        let two_sided = run_contention(16, 30, ReaderPath::TwoSided).unwrap();
        assert!(
            two_sided.p99_us > redn.p99_us * 3.0,
            "contention split collapsed: two-sided p99 {} vs RedN p99 {}",
            two_sided.p99_us,
            redn.p99_us
        );
        assert!(
            two_sided.avg_us > redn.avg_us,
            "two-sided avg {} must exceed RedN avg {}",
            two_sided.avg_us,
            redn.avg_us
        );
    }
}
