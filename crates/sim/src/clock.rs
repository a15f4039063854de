//! Simulated time.
//!
//! Time is kept as integer picoseconds so that advancing the clock is exact
//! and associative — summing the same op costs in any grouping yields the
//! same total, which the reproducibility tests rely on.

use parking_lot::Mutex;
use std::sync::Arc;

/// Picoseconds per second.
const PS_PER_SEC: f64 = 1e12;

/// A shareable simulated clock.
///
/// Cloning yields a handle to the same clock. All methods take `&self`.
#[derive(Clone, Debug)]
pub struct SimClock {
    now_ps: Arc<Mutex<u128>>,
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

impl SimClock {
    /// A clock starting at t = 0.
    pub fn new() -> Self {
        SimClock {
            now_ps: Arc::new(Mutex::new(0)),
        }
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        *self.now_ps.lock() as f64 / PS_PER_SEC
    }

    /// Current simulated time in integer picoseconds.
    pub fn now_ps(&self) -> u128 {
        *self.now_ps.lock()
    }

    /// Advances the clock by `secs` (clamped at zero; NaN is rejected).
    pub fn advance(&self, secs: f64) {
        assert!(!secs.is_nan(), "SimClock::advance(NaN)");
        let ps = (secs.max(0.0) * PS_PER_SEC).round() as u128;
        *self.now_ps.lock() += ps;
    }

    /// Advances to an absolute time if it is in the future; returns the
    /// stall duration actually waited (0 if `target` already passed).
    pub(crate) fn advance_to(&self, target: f64) -> f64 {
        assert!(!target.is_nan(), "SimClock::advance_to(NaN)");
        let target_ps = (target.max(0.0) * PS_PER_SEC).round() as u128;
        let mut now = self.now_ps.lock();
        if target_ps > *now {
            let stall = target_ps - *now;
            *now = target_ps;
            stall as f64 / PS_PER_SEC
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = SimClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(1.5);
        c.advance(0.25);
        assert!((c.now() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn negative_advance_clamped() {
        let c = SimClock::new();
        c.advance(-5.0);
        assert_eq!(c.now(), 0.0);
    }

    #[test]
    fn advance_is_associative() {
        // Integer picoseconds: many small steps equal one big step.
        let a = SimClock::new();
        let b = SimClock::new();
        let step = 0.000_123_456;
        for _ in 0..1000 {
            a.advance(step);
        }
        b.advance(step * 1000.0);
        let diff = (a.now() - b.now()).abs();
        assert!(diff < 1e-6, "accumulated drift {diff}");
    }

    #[test]
    fn advance_to_reports_stall() {
        let c = SimClock::new();
        c.advance(2.0);
        assert_eq!(c.advance_to(1.0), 0.0, "past target: no stall");
        let stall = c.advance_to(3.5);
        assert!((stall - 1.5).abs() < 1e-12);
        assert!((c.now() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn clones_share_state() {
        let c = SimClock::new();
        let d = c.clone();
        c.advance(1.0);
        assert_eq!(d.now(), 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        SimClock::new().advance(f64::NAN);
    }
}
