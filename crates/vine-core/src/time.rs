//! Simulated time.
//!
//! The discrete-event simulator and the live runtime share one clock
//! representation: integer **microseconds**. Integer time makes event
//! ordering total and deterministic (no float drift), and a `u64` of
//! microseconds spans ~584,000 years, far beyond any workflow.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in microseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs * 1e6).round().max(0.0) as u64)
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`. Saturates at zero rather than
    /// panicking: components occasionally compare timestamps recorded by
    /// concurrent state machines where a peer may be a step ahead.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs * 1e6).round().max(0.0) as u64)
    }

    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Time to move `bytes` at `bytes_per_sec`, rounded up to a whole
    /// microsecond so nonzero work never takes zero time.
    pub fn for_transfer(bytes: u64, bytes_per_sec: f64) -> Self {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let secs = bytes as f64 / bytes_per_sec.max(1.0);
        SimDuration(((secs * 1e6).ceil() as u64).max(1))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
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
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 as f64 * rhs.max(0.0)).round() as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::ZERO + SimDuration::from_secs(5) + SimDuration::from_millis(250);
        assert_eq!(t.as_micros(), 5_250_000);
        assert_eq!((t - SimTime::ZERO).as_secs_f64(), 5.25);
    }

    #[test]
    fn since_saturates() {
        let early = SimTime(100);
        let late = SimTime(200);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(late.since(early), SimDuration(100));
    }

    #[test]
    fn transfer_time_rounds_up_and_is_nonzero() {
        // 1 byte at 1 GB/s is < 1 µs but must still take at least 1 µs
        let d = SimDuration::for_transfer(1, 1e9);
        assert_eq!(d, SimDuration(1));
        // zero bytes take zero time
        assert_eq!(SimDuration::for_transfer(0, 1e9), SimDuration::ZERO);
        // 10 MB at 10 MB/s is exactly 1 s
        let d = SimDuration::for_transfer(10_000_000, 10e6);
        assert_eq!(d, SimDuration::from_secs(1));
    }

    #[test]
    fn float_conversions() {
        assert_eq!(SimDuration::from_secs_f64(1.5).as_micros(), 1_500_000);
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert!((SimDuration(1_234_567).as_secs_f64() - 1.234567).abs() < 1e-12);
    }

    #[test]
    fn scalar_ops() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d * 3, SimDuration::from_secs(30));
        assert_eq!(d / 4, SimDuration::from_secs_f64(2.5));
        assert_eq!(d * 0.5, SimDuration::from_secs(5));
        assert_eq!(d / 0, d); // guarded division
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }
}
