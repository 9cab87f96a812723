//! Per-queue rate limiting.
//!
//! ConnectX NICs expose `ibv_modify_qp_rate_limit`, which the paper's §3.5
//! ("Isolation") proposes as the defense against tenants triggering
//! non-terminating offloads: "even if clients trigger non-terminating
//! offload code, they still have to adhere to their assigned rates."
//!
//! The limiter is a token bucket expressed in operations per second with a
//! configurable burst. The simulator consults it before issuing each WQE.

use crate::time::Time;

/// A deterministic token-bucket rate limiter.
#[derive(Clone, Debug)]
pub(crate) struct RateLimiter {
    /// Picoseconds credited per operation (1/rate).
    interval: Time,
    /// Maximum burst, in operations.
    burst: u64,
    /// Time at which the bucket was last observed.
    last: Time,
    /// Tokens available at `last` (scaled by `interval` — stored in ps of
    /// accumulated credit to stay integral).
    credit: Time,
}

impl RateLimiter {
    /// Limit to `ops_per_sec` with the given burst allowance.
    pub(crate) fn new(ops_per_sec: f64, burst: u64) -> RateLimiter {
        assert!(ops_per_sec > 0.0, "rate must be positive");
        let interval = Time::from_ps((1e12 / ops_per_sec).round() as u64);
        RateLimiter {
            interval,
            burst: burst.max(1),
            last: Time::ZERO,
            credit: Time::from_ps(interval.as_ps() * burst.max(1)),
        }
    }

    /// Earliest time at or after `now` when one operation may proceed.
    /// Calling this *consumes* a token at the returned time.
    pub(crate) fn admit(&mut self, now: Time) -> Time {
        // Accrue credit since `last`, capped at the burst ceiling.
        let cap = Time::from_ps(self.interval.as_ps() * self.burst);
        let accrued = self.credit + now.saturating_sub(self.last);
        self.credit = accrued.min(cap);
        self.last = now;
        if self.credit >= self.interval {
            self.credit -= self.interval;
            now
        } else {
            let wait = self.interval - self.credit;
            self.credit = Time::ZERO;
            self.last = now + wait;
            now + wait
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_paced() {
        // 1M ops/s = 1 us interval, burst of 2.
        let mut rl = RateLimiter::new(1e6, 2);
        let t0 = Time::from_us(10);
        // Two ops admitted immediately (burst).
        assert_eq!(rl.admit(t0), t0);
        assert_eq!(rl.admit(t0), t0);
        // Third op waits a full interval.
        let t1 = rl.admit(t0);
        assert_eq!(t1, t0 + Time::from_us(1));
        // Fourth waits a further interval.
        let t2 = rl.admit(t1);
        assert_eq!(t2, t1 + Time::from_us(1));
    }

    #[test]
    fn credit_accrues_while_idle_but_caps_at_burst() {
        let mut rl = RateLimiter::new(1e6, 2);
        let t0 = Time::from_us(0);
        assert_eq!(rl.admit(t0), t0);
        assert_eq!(rl.admit(t0), t0);
        // Idle for 10 us: credit caps at 2 ops, not 10.
        let t1 = Time::from_us(10);
        assert_eq!(rl.admit(t1), t1);
        assert_eq!(rl.admit(t1), t1);
        assert_eq!(rl.admit(t1), t1 + Time::from_us(1));
    }

    #[test]
    fn steady_state_rate_is_respected() {
        let mut rl = RateLimiter::new(2e6, 1); // 0.5 us interval
        let mut t = Time::ZERO;
        for _ in 0..100 {
            t = rl.admit(t);
        }
        // 100 ops at 2M ops/s need >= 49.5 us (first is free from burst).
        assert!(t >= Time::from_ps(49_500_000), "{t:?}");
        assert!(t <= Time::from_us(51), "{t:?}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = RateLimiter::new(0.0, 1);
    }
}
