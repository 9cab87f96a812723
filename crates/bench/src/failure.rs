//! §5.6 failure-resilience properties of the [`crate::crash`] rig on a
//! short timeline with scaled-down restart costs. `crash::tests` checks
//! the Fig 16 shapes themselves.

#[cfg(test)]
mod tests {
    use rnic_sim::time::Time;

    use crate::crash::{run_crash_timeline, CrashPath};

    #[test]
    fn vanilla_drops_to_zero_then_recovers() {
        // Short timeline with scaled-down restart costs to keep the test
        // fast; the bench harness runs the full 12 s / 2.25 s version.
        let timeline = run_crash_timeline(
            CrashPath::Vanilla,
            Time::from_ms(400),
            Time::from_ms(100),
            Time::from_ms(50),
            Time::from_us(50),
        )
        .unwrap();
        // Healthy before the crash.
        assert!(timeline[0].normalized > 0.5, "{timeline:?}");
        // Dead during the outage (restart 1 s + rebuild 1.25 s exceeds
        // this timeline, so every post-crash bucket is empty).
        let dead: Vec<_> = timeline.iter().filter(|p| p.t_secs >= 0.15).collect();
        assert!(
            dead.iter().all(|p| p.normalized < 0.05),
            "service should be down: {timeline:?}"
        );
    }
}
