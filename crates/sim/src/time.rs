//! Virtual time for discrete-event simulation.
//!
//! All simulated clocks in the workspace use [`Time`] (an instant on the
//! simulation timeline) and [`Duration`] (a span between instants), both with
//! nanosecond resolution stored in a `u64`. Wall-clock time never enters
//! simulation results.
//!
//! ```
//! use saav_sim::time::{Duration, Time};
//!
//! let t = Time::ZERO + Duration::from_millis(10);
//! assert_eq!(t.as_millis(), 10);
//! assert_eq!(t - Time::ZERO, Duration::from_micros(10_000));
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time with nanosecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable duration.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Creates a duration from whole microseconds.
    ///
    /// # Panics
    /// Panics on overflow (beyond ~584 years).
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    ///
    /// # Panics
    /// Panics on overflow.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    ///
    /// # Panics
    /// Panics on overflow.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, saturating at the
    /// representable range; negative and NaN inputs map to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        // NaN and non-positive inputs map to zero.
        if s.is_nan() || s <= 0.0 {
            return Duration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            Duration::MAX
        } else {
            Duration(ns as u64)
        }
    }

    /// The duration in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Addition that clamps at [`Duration::MAX`] instead of overflowing.
    pub const fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Subtraction that clamps at [`Duration::ZERO`] instead of underflowing.
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Checked integer division, returning how many times `rhs` fits.
    ///
    /// Returns `None` when `rhs` is zero.
    pub const fn checked_div_duration(self, rhs: Duration) -> Option<u64> {
        self.0.checked_div(rhs.0)
    }

    /// Multiplies by a dimensionless float factor, saturating; negative or
    /// NaN factors yield zero.
    pub fn mul_f64(self, factor: f64) -> Duration {
        Duration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Returns `true` if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two durations.
    pub fn max(self, other: Duration) -> Duration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0s")
        } else if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

/// An instant on the simulation timeline (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The simulation start instant.
    pub const ZERO: Time = Time(0);
    /// The end of representable simulated time.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant from nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Creates an instant from microseconds since simulation start.
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }

    /// Creates an instant from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Creates an instant from seconds since simulation start.
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The elapsed duration since `earlier`, or zero if `earlier` is later.
    pub const fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0.checked_add(rhs.0).expect("time overflow"))
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("time underflow"))
    }
}

impl Sub for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("negative time difference"))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", Duration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(Duration::from_secs(2).as_millis(), 2_000);
        assert_eq!(Duration::from_millis(3).as_micros(), 3_000);
        assert_eq!(Duration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(Time::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = Time::from_millis(10) + Duration::from_micros(500);
        assert_eq!(t.as_nanos(), 10_500_000);
        assert_eq!(t - Time::from_millis(10), Duration::from_micros(500));
        assert_eq!(t - Duration::from_micros(500), Time::from_millis(10));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            Duration::from_nanos(5).saturating_sub(Duration::from_nanos(9)),
            Duration::ZERO
        );
        assert_eq!(
            Duration::MAX.saturating_add(Duration::from_nanos(1)),
            Duration::MAX
        );
        assert_eq!(
            Time::from_nanos(5).saturating_since(Time::from_nanos(9)),
            Duration::ZERO
        );
    }

    #[test]
    fn float_conversions() {
        let d = Duration::from_secs_f64(1.5);
        assert_eq!(d.as_millis(), 1_500);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(1e40), Duration::MAX);
    }

    #[test]
    fn mul_div() {
        assert_eq!(Duration::from_micros(10) * 3, Duration::from_micros(30));
        assert_eq!(Duration::from_micros(10) / 4, Duration::from_nanos(2_500));
        assert_eq!(
            Duration::from_millis(10).mul_f64(0.5),
            Duration::from_millis(5)
        );
        assert_eq!(
            Duration::from_millis(9).checked_div_duration(Duration::from_millis(2)),
            Some(4)
        );
        assert_eq!(
            Duration::from_millis(9).checked_div_duration(Duration::ZERO),
            None
        );
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Duration::from_nanos(17).to_string(), "17ns");
        assert_eq!(Duration::from_micros(7).to_string(), "7.000us");
        assert_eq!(Duration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Duration::from_secs(3).to_string(), "3.000s");
        assert_eq!(Duration::ZERO.to_string(), "0s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [1u64, 2, 3].iter().map(|&n| Duration::from_micros(n)).sum();
        assert_eq!(total, Duration::from_micros(6));
    }

    #[test]
    #[should_panic(expected = "negative time difference")]
    fn negative_difference_panics() {
        let _ = Time::from_nanos(1) - Time::from_nanos(2);
    }
}
