//! Virtual time for the discrete-event simulation.
//!
//! All of CrystalNet's latency results (Figure 8, Figure 9, §8.3) are
//! measured in *virtual* time: the simulation advances an explicit clock
//! instead of sleeping, so a single host reproduces the timing behaviour of
//! a 1000-VM deployment deterministically.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// A point in virtual time, in nanoseconds since simulation start.
///
/// `SimTime` is a monotonically non-decreasing instant. Durations are
/// represented by [`SimDuration`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Whole nanoseconds since the epoch.
    #[must_use]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional minutes since the epoch (the unit of Figure 8).
    #[must_use]
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60e9
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration of `n` nanoseconds.
    #[must_use]
    pub const fn from_nanos(n: u64) -> SimDuration {
        SimDuration(n)
    }

    /// A duration of `n` microseconds.
    #[must_use]
    pub const fn from_micros(n: u64) -> SimDuration {
        SimDuration(n * 1_000)
    }

    /// A duration of `n` milliseconds.
    #[must_use]
    pub const fn from_millis(n: u64) -> SimDuration {
        SimDuration(n * 1_000_000)
    }

    /// A duration of `n` seconds.
    #[must_use]
    pub const fn from_secs(n: u64) -> SimDuration {
        SimDuration(n * 1_000_000_000)
    }

    /// A duration of `n` minutes.
    #[must_use]
    pub const fn from_mins(n: u64) -> SimDuration {
        SimDuration(n * 60_000_000_000)
    }

    /// Whole nanoseconds in this duration.
    #[must_use]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds in this duration.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds in this duration.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional minutes in this duration.
    #[must_use]
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60e9
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Scale by a non-negative factor (used for jitter and work sizing).
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "duration factor must be non-negative");
        SimDuration((self.0 as f64 * factor) as u64)
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
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 60_000_000_000 {
            write!(f, "{:.2}min", self.as_mins_f64())
        } else if ns >= 1_000_000_000 {
            write!(f, "{:.2}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::ZERO + SimDuration::from_secs(3);
        assert_eq!(t.as_nanos(), 3_000_000_000);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_secs(3));
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d * 3, SimDuration::from_secs(30));
        assert_eq!(d / 2, SimDuration::from_secs(5));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_mins(3).to_string(), "3.00min");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.00s");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.00ms");
        assert_eq!(SimDuration::from_micros(3).to_string(), "3.00us");
        assert_eq!(SimDuration::from_nanos(3).to_string(), "3ns");
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
    }
}
