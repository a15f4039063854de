//! The transfer/compute overlap rule of the paper's Fig. 5, written once.
//!
//! [`OverlapClock`] holds the rule and nothing else: it neither owns a
//! clock nor prices a transfer. [`crate::ChunkStream`] drives it with the
//! shared, picosecond-quantised [`SimClock`] while really streaming chunks;
//! the analytic workload estimate drives it with a plain `f64`. The model
//! and the execution agree because they run this same accounting.

use crate::clock::SimClock;

/// The three things the overlap rule does to the consumer's clock.
trait Timeline {
    fn now(&self) -> f64;
    fn advance(&mut self, secs: f64);
    /// Advances to `target` if it is in the future; returns the wait.
    fn advance_to(&mut self, target: f64) -> f64;
}

impl Timeline for &SimClock {
    fn now(&self) -> f64 {
        SimClock::now(self)
    }
    fn advance(&mut self, secs: f64) {
        SimClock::advance(self, secs);
    }
    fn advance_to(&mut self, target: f64) -> f64 {
        SimClock::advance_to(self, target)
    }
}

impl Timeline for f64 {
    fn now(&self) -> f64 {
        *self
    }
    fn advance(&mut self, secs: f64) {
        *self += secs;
    }
    fn advance_to(&mut self, target: f64) -> f64 {
        if target > *self {
            let stall = target - *self;
            *self = target;
            stall
        } else {
            0.0
        }
    }
}

/// One admitted transfer: when it occupied the link and how long the
/// consumer waited for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Admitted {
    /// Simulated time the transfer started.
    pub started: f64,
    /// Simulated time the transfer completed.
    pub ready: f64,
    /// Seconds the consumer stalled before it could use the chunk.
    pub stall: f64,
}

/// Double-buffered (or naive) transfer accounting for one chunk stream.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapClock {
    double_buffered: bool,
    /// When the previous transfer completed.
    next_ready_at: f64,
    /// When the consumer started computing on the current chunk, i.e.
    /// when the next buffer slot freed.
    compute_started_at: f64,
}

impl OverlapClock {
    /// Accounting for a stream starting at t = 0; `double_buffered: false`
    /// is the naive design where compute idles for every transfer (the
    /// paper's 17%-overhead scenario).
    pub fn new(double_buffered: bool) -> Self {
        OverlapClock {
            double_buffered,
            next_ready_at: 0.0,
            compute_started_at: 0.0,
        }
    }

    /// Whether transfers overlap compute.
    pub(crate) fn double_buffered(&self) -> bool {
        self.double_buffered
    }

    /// Takes delivery of a chunk whose transfer lasts `secs`, advancing the
    /// shared simulated `clock` by whatever part compute did not hide.
    pub(crate) fn admit(&mut self, mut clock: &SimClock, secs: f64) -> Admitted {
        self.admit_on(&mut clock, secs)
    }

    /// `OverlapClock::admit` against a plain `f64` clock — same rule,
    /// unquantised arithmetic.
    pub fn admit_f64(&mut self, clock: &mut f64, secs: f64) -> Admitted {
        self.admit_on(clock, secs)
    }

    fn admit_on(&mut self, clock: &mut impl Timeline, secs: f64) -> Admitted {
        let admitted = if self.double_buffered {
            // The transfer started when its buffer slot freed — when the
            // consumer began computing on the previous chunk — or when the
            // previous transfer finished, whichever is later.
            let started = self.compute_started_at.max(self.next_ready_at);
            let ready = started + secs;
            self.next_ready_at = ready;
            Admitted {
                started,
                ready,
                stall: clock.advance_to(ready),
            }
        } else {
            let started = clock.now();
            clock.advance(secs);
            Admitted {
                started,
                ready: started + secs,
                stall: secs,
            }
        };
        self.compute_started_at = clock.now();
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chunks of 1 s transfer, `compute` s of work each.
    fn run(double_buffered: bool, compute: f64, chunks: usize) -> (f64, f64) {
        let mut overlap = OverlapClock::new(double_buffered);
        let (mut clock, mut stall) = (0.0f64, 0.0);
        for _ in 0..chunks {
            stall += overlap.admit_f64(&mut clock, 1.0).stall;
            clock += compute;
        }
        (clock, stall)
    }

    #[test]
    fn naive_design_exposes_every_transfer() {
        assert_eq!(run(false, 2.0, 4), (12.0, 4.0));
    }

    #[test]
    fn slower_compute_hides_all_but_the_first_transfer() {
        assert_eq!(run(true, 2.0, 4), (9.0, 1.0));
    }

    #[test]
    fn faster_compute_is_bounded_by_the_link() {
        // Transfers run back to back; the last chunk's compute follows.
        assert_eq!(run(true, 0.25, 4), (4.25, 3.25));
    }

    #[test]
    fn sim_clock_and_f64_clock_agree() {
        for double_buffered in [false, true] {
            let sim = SimClock::new();
            let mut on_sim = OverlapClock::new(double_buffered);
            let mut on_f64 = OverlapClock::new(double_buffered);
            let mut clock = 0.0f64;
            for (secs, compute) in [(0.5, 0.25), (0.5, 2.0), (0.125, 0.0), (1.0, 0.5)] {
                let a = on_sim.admit(&sim, secs);
                let b = on_f64.admit_f64(&mut clock, secs);
                assert_eq!(a, b);
                sim.advance(compute);
                clock += compute;
            }
            assert_eq!(sim.now(), clock);
        }
    }
}
