//! Simulated time: a finite, totally ordered `f64` number of seconds.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since simulation start.
///
/// `SimTime` is a thin wrapper over `f64` that guarantees finiteness, which
/// in turn gives it a *total* order (safe to use as a heap/b-tree key).
/// Construction from a non-finite float panics — a NaN timestamp is always a
/// logic error in the simulator.
#[derive(Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero — the start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a timestamp from seconds. Panics on NaN/inf.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite(), "SimTime must be finite, got {secs}");
        SimTime(secs)
    }

    /// Seconds since simulation start.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the later of two timestamps.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two timestamps.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Finiteness is enforced at construction, so partial_cmp never fails.
        self.0.partial_cmp(&other.0).expect("SimTime is finite")
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, dt: f64) -> SimTime {
        SimTime::from_secs(self.0 + dt)
    }
}

impl AddAssign<f64> for SimTime {
    #[inline]
    fn add_assign(&mut self, dt: f64) {
        *self = *self + dt;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    #[inline]
    fn sub(self, earlier: SimTime) -> f64 {
        self.0 - earlier.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

/// The simulation clock: a monotonically advancing [`SimTime`].
#[derive(Debug, Clone)]
pub struct Clock {
    now: SimTime,
}

impl Clock {
    /// A clock starting at time zero.
    pub fn new() -> Self {
        Clock { now: SimTime::ZERO }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock to `t`. Panics if `t` is in the past — the event
    /// loop must never travel backwards.
    #[inline]
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "clock moved backwards: {:?} -> {:?}",
            self.now,
            t
        );
        self.now = t;
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b - a, 1.0);
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn clock_advances() {
        let mut c = Clock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance_to(SimTime::from_secs(3.5));
        assert_eq!(c.now().as_secs(), 3.5);
        // Advancing to the same instant is allowed.
        c.advance_to(SimTime::from_secs(3.5));
    }

    #[test]
    #[should_panic]
    fn clock_rejects_backwards() {
        let mut c = Clock::new();
        c.advance_to(SimTime::from_secs(1.0));
        c.advance_to(SimTime::from_secs(0.5));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1.0) + 0.5;
        assert!((t.as_secs() - 1.5).abs() < 1e-12);
        let mut u = SimTime::ZERO;
        u += 2.0;
        assert_eq!(u.as_secs(), 2.0);
    }
}
