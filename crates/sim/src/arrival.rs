//! Deterministic request-arrival schedules for the serving path.
//!
//! The serve bench sweeps a synthetic traffic generator over the batched
//! inference queue; for the latency numbers to be reproducible (and for
//! `BENCH_serve.json` to be a stable committed artifact) the arrival
//! process must be a pure function of its parameters. An
//! [`ArrivalSchedule`] is exactly that: a seeded, closed-form sequence of
//! arrival timestamps in simulated seconds, in two shapes:
//!
//! * **steady** — requests spaced `1/rate` apart with a small seeded
//!   jitter, the open-loop analogue of a well-behaved client pool;
//! * **bursty** — requests arrive in back-to-back groups of `burst` with
//!   the gaps between groups widened to preserve the average rate, the
//!   worst case for an unbatched server and the best case for dynamic
//!   micro-batching.
//!
//! Jitter comes from a tiny splitmix64 generator, not `rand`, so the
//! crate's dependency surface stays unchanged and the sequence is stable
//! across platforms.

/// The shape of a synthetic arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalPattern {
    /// Evenly spaced arrivals (plus seeded jitter).
    Steady,
    /// Arrivals in back-to-back groups of the given size; inter-group
    /// gaps widen so the long-run rate is preserved.
    Bursty {
        /// Requests per burst (>= 1; 1 degenerates to steady).
        burst: usize,
    },
}

/// A deterministic, seeded sequence of request arrival times.
#[derive(Debug, Clone)]
pub struct ArrivalSchedule {
    times: Vec<f64>,
}

impl ArrivalSchedule {
    /// `n` arrivals at `rate_rps` requests per second under `pattern`,
    /// jittered by `seed`. Timestamps start at 0 and are non-decreasing.
    pub fn new(n: usize, rate_rps: f64, pattern: ArrivalPattern, seed: u64) -> Self {
        assert!(rate_rps > 0.0, "arrival rate must be positive");
        let gap = 1.0 / rate_rps;
        let mut rng = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut times = Vec::with_capacity(n);
        match pattern {
            ArrivalPattern::Steady => {
                let mut t = 0.0;
                for _ in 0..n {
                    times.push(t);
                    // Jitter the gap by up to ±10% — enough to desynchronize
                    // arrivals from batch deadlines, too small to change the rate.
                    t += gap * (0.9 + 0.2 * unit(&mut rng));
                }
            }
            ArrivalPattern::Bursty { burst } => {
                let burst = burst.max(1);
                // Each group of `burst` requests lands within one gap's
                // span, then the schedule idles until the group's rate-
                // preserving slot ends.
                let group_gap = gap * burst as f64;
                let mut group_start = 0.0;
                let mut i = 0;
                while i < n {
                    let in_group = burst.min(n - i);
                    for j in 0..in_group {
                        // Intra-burst spread: a fraction of one gap, so the
                        // group is effectively simultaneous at queue scale.
                        times.push(group_start + gap * 0.05 * j as f64);
                    }
                    i += in_group;
                    group_start += group_gap * (0.95 + 0.1 * unit(&mut rng));
                }
            }
        }
        ArrivalSchedule { times }
    }

    /// Bursty arrivals — see [`ArrivalPattern::Bursty`].
    pub fn bursty(n: usize, rate_rps: f64, burst: usize, seed: u64) -> Self {
        Self::new(n, rate_rps, ArrivalPattern::Bursty { burst }, seed)
    }

    /// The arrival timestamps, seconds, non-decreasing, starting at 0.
    pub fn times(&self) -> &[f64] {
        &self.times
    }
}

/// splitmix64 step mapped onto `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_in_their_parameters() {
        let a = ArrivalSchedule::new(64, 100.0, ArrivalPattern::Steady, 7);
        let b = ArrivalSchedule::new(64, 100.0, ArrivalPattern::Steady, 7);
        assert_eq!(a.times(), b.times());
        let c = ArrivalSchedule::new(64, 100.0, ArrivalPattern::Steady, 8);
        assert_ne!(a.times(), c.times(), "seed must matter");
        let d = ArrivalSchedule::bursty(64, 100.0, 8, 7);
        let e = ArrivalSchedule::bursty(64, 100.0, 8, 7);
        assert_eq!(d.times(), e.times());
    }

    #[test]
    fn times_are_nondecreasing_and_start_at_zero() {
        for sched in [
            ArrivalSchedule::new(100, 250.0, ArrivalPattern::Steady, 3),
            ArrivalSchedule::bursty(100, 250.0, 16, 3),
        ] {
            assert_eq!(sched.times().len(), 100);
            assert_eq!(sched.times()[0], 0.0);
            for w in sched.times().windows(2) {
                assert!(w[1] >= w[0], "{:?}", w);
            }
        }
    }

    #[test]
    fn long_run_rate_is_preserved() {
        let n = 1000;
        let rate = 200.0;
        for pattern in [ArrivalPattern::Steady, ArrivalPattern::Bursty { burst: 25 }] {
            let sched = ArrivalSchedule::new(n, rate, pattern, 1);
            let span = sched.times()[n - 1] - sched.times()[0];
            let measured = (n - 1) as f64 / span;
            assert!(
                (measured - rate).abs() / rate < 0.15,
                "{pattern:?}: measured rate {measured} vs {rate}"
            );
        }
    }

    #[test]
    fn bursts_cluster_relative_to_steady() {
        // Within a burst the max gap is tiny; across bursts it is large.
        let sched = ArrivalSchedule::bursty(64, 100.0, 8, 5);
        let gaps: Vec<f64> = sched.times().windows(2).map(|w| w[1] - w[0]).collect();
        let max_gap = gaps.iter().cloned().fold(0.0, f64::max);
        let min_gap = gaps.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max_gap > 10.0 * min_gap.max(1e-9),
            "bursty schedule lost its clustering: min {min_gap} max {max_gap}"
        );
        // burst = 1 degenerates to a steady-like spacing.
        let flat = ArrivalSchedule::bursty(64, 100.0, 1, 5);
        let fgaps: Vec<f64> = flat.times().windows(2).map(|w| w[1] - w[0]).collect();
        let fmax = fgaps.iter().cloned().fold(0.0, f64::max);
        let fmin = fgaps.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(fmax < 2.0 * fmin, "burst=1 should be near-uniform");
    }
}
