//! Simulated time.
//!
//! The simulator uses a 64-bit picosecond clock. Picosecond granularity keeps
//! bandwidth arithmetic exact enough that throughput experiments (Table 4 of
//! the paper) are not distorted by rounding: a 64 B payload on a 92 Gbps link
//! takes 5.565 ns, which would round to 6 ns on a nanosecond clock — an 8%
//! error that compounds over millions of operations.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, in picoseconds.
///
/// `Time` is deliberately a single type for both instants and durations —
/// the simulator's arithmetic is simple enough that the extra type safety of
/// a `Duration`/`Instant` split is not worth the conversion noise.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// Zero time — the simulation epoch.
    pub const ZERO: Time = Time(0);
    /// The largest representable time (~213 simulated days).
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns * 1_000)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Time {
        Time(us * 1_000_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Time {
        Time(ms * 1_000_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000_000)
    }

    /// Construct from fractional microseconds (used for calibration
    /// constants quoted in the paper, e.g. "0.54 µs per doorbell-ordered
    /// WR").
    #[inline]
    pub fn from_us_f64(us: f64) -> Time {
        debug_assert!(us >= 0.0);
        Time((us * 1e6).round() as u64)
    }

    /// Picoseconds since the epoch.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time as fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Time as fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time as fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, rhs: Time) -> Time {
        Time(self.0.max(rhs.0))
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, rhs: Time) -> Time {
        Time(self.0.min(rhs.0))
    }

    /// Time needed to move `bytes` across a link of `gbps` gigabits per
    /// second. Exact to the picosecond: `bytes * 8000 / gbps` ps.
    #[inline]
    pub fn transfer(bytes: u64, gbps: f64) -> Time {
        debug_assert!(gbps > 0.0);
        let ps = (bytes as f64) * 8000.0 / gbps;
        // `ps.round() as u64` without the libm call (`round` is not an
        // instruction on baseline x86-64). For `ps >= 0` the cast
        // truncates, `whole as f64` is exact (below 2^53 every integer
        // is a double; from 2^52 up `ps` is itself an integer) and so is
        // the difference, the fraction of `ps`: rounding half away from
        // zero adds one exactly when it is at least a half. Saturation,
        // NaN and negative quotients also cast the way `round` does.
        let whole = ps as u64;
        Time(whole.saturating_add(u64::from(ps - whole as f64 >= 0.5)))
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{:.3}ns", self.as_ns_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_ns(1), Time::from_ps(1_000));
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
        assert_eq!(Time::from_secs(1), Time::from_ms(1_000));
    }

    #[test]
    fn fractional_us_round_trips() {
        let t = Time::from_us_f64(0.54);
        assert_eq!(t.as_ps(), 540_000);
        assert!((t.as_us_f64() - 0.54).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_is_exact() {
        // 64 B at 92 Gbps = 64*8000/92 ps = 5565.2 ps.
        let t = Time::transfer(64, 92.0);
        assert_eq!(t.as_ps(), 5565);
        // 64 KiB at 92 Gbps ≈ 5.699 µs (the paper's Table 4 ceiling).
        let t = Time::transfer(64 * 1024, 92.0);
        assert!((t.as_us_f64() - 5.699).abs() < 0.01);
    }

    #[test]
    fn transfer_rounds_exactly_as_f64_round() {
        let reference = |bytes: u64, gbps: f64| ((bytes as f64) * 8000.0 / gbps).round() as u64;
        // Every bandwidth a shipped `NicConfig` carries (IB link, gen3 and
        // gen4 PCIe stage and bus), every payload up to 64 KiB.
        for gbps in [92.0, 100.0, 126.0, 200.0, 252.0] {
            for bytes in 0..=64 * 1024 {
                assert_eq!(
                    Time::transfer(bytes, gbps).as_ps(),
                    reference(bytes, gbps),
                    "{bytes} B at {gbps} Gbps"
                );
            }
        }
        // Exact halves, the double just below one, the 2^52 / 2^53 edges
        // and saturation.
        for (bytes, gbps) in [
            (1, 16_000.0),
            (3, 16_000.0),
            (1, 16_000.000_000_000_002),
            ((1 << 52) + 1, 8000.0),
            ((1 << 53) + 2, 8000.0),
            (u64::MAX, 8000.0),
            (u64::MAX, 1e-3),
            (1, f64::MIN_POSITIVE),
        ] {
            assert_eq!(
                Time::transfer(bytes, gbps).as_ps(),
                reference(bytes, gbps),
                "{bytes} B at {gbps} Gbps"
            );
        }
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_us(2);
        let b = Time::from_us(3);
        assert_eq!(a + b, Time::from_us(5));
        assert_eq!(b - a, Time::from_us(1));
        assert_eq!(a * 3, Time::from_us(6));
        assert_eq!(b / 3, Time::from_us(1));
        assert_eq!(Time::from_us(1).saturating_sub(b), Time::ZERO);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Time::from_ns(100)), "100.000ns");
        assert_eq!(format!("{}", Time::from_us(100)), "100.000us");
        assert_eq!(format!("{}", Time::from_ms(100)), "100.000ms");
        assert_eq!(format!("{}", Time::from_secs(2)), "2.000s");
    }

    #[test]
    fn sum_of_times() {
        let total: Time = (1..=4).map(Time::from_us).sum();
        assert_eq!(total, Time::from_us(10));
    }
}
