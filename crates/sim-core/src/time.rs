//! Simulated time.
//!
//! Time is represented as an absolute instant ([`SimTime`]) or a span
//! ([`SimDuration`]), both counted in integer nanoseconds. Nanosecond
//! resolution comfortably covers the dynamic range the simulator needs:
//! a 2.27 GHz core cycle is ~0.44 ns, and campaigns simulate minutes.
//! `u64` nanoseconds overflow after ~584 years of simulated time, and all
//! arithmetic saturates rather than wraps.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated timeline, in nanoseconds since the
/// start of the simulation.
///
/// # Example
///
/// ```
/// use dora_sim_core::{SimDuration, SimTime};
///
/// let t = SimTime::from_millis(3) + SimDuration::from_micros(500);
/// assert_eq!(t.as_nanos(), 3_500_000);
/// assert_eq!(t.as_secs_f64(), 0.0035);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use dora_sim_core::SimDuration;
///
/// let quantum = SimDuration::from_millis(1);
/// assert_eq!(quantum * 100, SimDuration::from_millis(100));
/// assert_eq!(SimDuration::from_secs_f64(0.001), quantum);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

macro_rules! common_ctors {
    ($ty:ident) => {
        impl $ty {
            /// The zero value.
            pub const ZERO: Self = Self(0);

            /// Constructs from whole nanoseconds.
            pub const fn from_nanos(ns: u64) -> Self {
                Self(ns)
            }

            /// Constructs from whole microseconds.
            pub const fn from_micros(us: u64) -> Self {
                Self(us * 1_000)
            }

            /// Constructs from whole milliseconds.
            pub const fn from_millis(ms: u64) -> Self {
                Self(ms * 1_000_000)
            }

            /// Constructs from whole seconds.
            pub const fn from_secs(s: u64) -> Self {
                Self(s * 1_000_000_000)
            }

            /// Constructs from fractional seconds, rounding to the nearest
            /// nanosecond. Negative or non-finite inputs clamp to zero.
            pub fn from_secs_f64(s: f64) -> Self {
                if !s.is_finite() || s <= 0.0 {
                    return Self::ZERO;
                }
                Self((s * 1e9).round() as u64)
            }

            /// The value in whole nanoseconds.
            pub const fn as_nanos(self) -> u64 {
                self.0
            }

            /// The value in fractional milliseconds.
            pub fn as_millis_f64(self) -> f64 {
                self.0 as f64 / 1e6
            }

            /// The value in fractional seconds.
            pub fn as_secs_f64(self) -> f64 {
                self.0 as f64 / 1e9
            }

            /// Whether this is exactly zero.
            pub const fn is_zero(self) -> bool {
                self.0 == 0
            }
        }
    };
}

common_ctors!(SimTime);
common_ctors!(SimDuration);

impl SimTime {
    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is in the future.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// Scales the duration by a non-negative factor, rounding to the
    /// nearest nanosecond and saturating at the representable maximum.
    ///
    /// NaN or negative factors clamp to zero; `+inf` saturates.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        if factor.is_nan() || factor <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = self.0 as f64 * factor;
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns.round() as u64)
        }
    }

    /// The ratio of two durations as `f64`. Returns zero when the divisor
    /// is zero (the simulator treats "fraction of nothing" as nothing).
    // A duration divided by a duration is a pure number.
    pub fn ratio(self, denom: SimDuration) -> f64 {
        if denom.is_zero() {
            0.0
        } else {
            self.0 as f64 / denom.0 as f64
        }
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics on division by zero, like integer division.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1500)
        );
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_since_saturates() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(5);
        assert_eq!(b.duration_since(a), SimDuration::from_millis(4));
        assert_eq!(a.duration_since(b), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_micros(250);
        t += SimDuration::from_micros(750);
        assert_eq!(t, SimTime::from_millis(1));
        assert_eq!(t - SimDuration::from_millis(1), SimTime::ZERO);
        // Saturation, not wraparound.
        assert_eq!(t - SimDuration::from_secs(10), SimTime::ZERO);
    }

    #[test]
    fn mul_f64_behaviour() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_millis(25));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(-3.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(d.mul_f64(f64::INFINITY), SimDuration::from_nanos(u64::MAX));
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let d = SimDuration::from_millis(3);
        assert_eq!(d.ratio(SimDuration::ZERO), 0.0);
        assert!((d.ratio(SimDuration::from_millis(6)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimTime::from_millis(1500).to_string(), "t=1.500000s");
    }
}
