//! Virtual time.

use std::fmt;
use std::ops::{Add, Sub};

/// A point in simulated time, stored as integer microseconds so event
/// ordering is exact and runs replay deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from (non-negative, finite) seconds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `secs` is negative or non-finite.
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(secs.is_finite() && secs >= 0.0, "bad duration {secs}");
        SimTime((secs * 1e6).round() as u64)
    }

    /// Creates a time from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    /// The value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The value in whole microseconds.
    pub(crate) fn as_micros(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics on underflow (subtracting a later time from an earlier
    /// one); use [`SimTime::saturating_sub`] when that can happen.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_secs(1.5);
        assert_eq!(t.as_micros(), 1_500_000);
        assert!((t.as_secs() - 1.5).abs() < 1e-9);
        assert_eq!(SimTime::from_millis(250.0), SimTime::from_secs(0.25));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(2.0);
        let b = SimTime::from_secs(0.5);
        assert_eq!(a + b, SimTime::from_secs(2.5));
        assert_eq!(a - b, SimTime::from_secs(1.5));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(3.0),
            SimTime::ZERO,
            SimTime::from_millis(1.0),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_secs(3.0));
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_secs(1.25).to_string(), "1.250000s");
    }
}
