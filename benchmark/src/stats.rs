//! Order statistics for benchmark samples.
//!
//! Every reported timing is a median with its quartiles and sample count;
//! a tail percentile is reported only where it has at least ten samples
//! beyond it, because a p95 of twenty samples is one observation.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Percentiles a tail report may use, lowest first.
const TAIL_LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle sample, or the mean of the middle two.
///
/// Panics on an empty slice: a metric without a sample is a harness bug.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so that a spread computed
/// here over three or more samples equals the one the acceptance procedure
/// computes. Python extrapolates beyond two samples; here quartiles stay
/// inside the samples, and one sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k(n+1)/4 on a 1-based axis, clamped to the samples.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        let delta = delta.clamp(0.0, 1.0);
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Nearest-rank percentile (`pct` in `(0, 100]`) of unsorted samples.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(pct > 0.0 && pct <= 100.0, "percentile out of range");
    let v = sorted(samples);
    v[rank(v.len(), pct) - 1]
}

/// 1-based nearest rank of the `pct` percentile among `n` samples.
/// Multiplying before dividing keeps 99.9 % of 10 000 at exactly 9990.
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Whether `pct` has at least [`TAIL_SAMPLES`] of `n` samples beyond it.
pub fn supports(n: usize, pct: f64) -> bool {
    n > 0 && n - rank(n, pct) >= TAIL_SAMPLES
}

/// The highest percentile of the ladder 75/90/95/99/99.9 that `n` samples
/// support, or `None` when even p75 has fewer than ten samples beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().rev().copied().find(|&p| supports(n, p))
}

/// Median, quartiles, count and supported tail of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` of the highest supported tail percentile.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, q3) = quartiles(samples);
        Summary {
            n: samples.len(),
            median: median(samples),
            q1,
            q3,
            tail: highest_supported_percentile(samples.len()).map(|p| (p, percentile(samples, p))),
        }
    }

    /// Interquartile distance as a share of the median (0 for one sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5], which
        // extrapolates; the clamp keeps quartiles inside the samples.
        assert_eq!(quartiles(&[10.0, 20.0]), (10.0, 20.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[5.0, 9.0], 1.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p95 of 200 samples is rank 190: exactly ten beyond.
        assert!(supports(200, 95.0));
        assert!(!supports(199, 95.0));
        assert_eq!(highest_supported_percentile(20), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn summary_carries_count_and_supported_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 50.5);
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert!((s.spread() - (75.75 - 25.25) / 50.5).abs() < 1e-12);
        assert_eq!(Summary::of(&[2.0, 2.0, 2.0]).tail, None);
    }
}
