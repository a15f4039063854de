//! Parameter initialization schemes.
//!
//! The paper trains sigmoid autoencoders and binary RBMs; both communities
//! conventionally initialize weights from a symmetric uniform range scaled by
//! fan-in/fan-out (the "Glorot" range with the extra factor of 4 recommended
//! for sigmoid units, which is what Ng's sparse-autoencoder notes — the
//! paper's reference \[10\] — prescribe) or from a small Gaussian (Hinton's
//! RBM practical guide, the paper's reference \[15\], suggests N(0, 0.01)).

use crate::Mat;
use rand::Rng;

/// Strategy for filling a weight matrix.
pub trait Initializer {
    /// Produces a `rows x cols` matrix, drawing randomness from `rng`.
    fn init(&self, rows: usize, cols: usize, rng: &mut impl Rng) -> Mat;
}

/// All-zero initialization (used for biases).
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroInit;

impl Initializer for ZeroInit {
    fn init(&self, rows: usize, cols: usize, _rng: &mut impl Rng) -> Mat {
        Mat::zeros(rows, cols)
    }
}

/// Gaussian `N(0, sigma^2)` initialization (Hinton's guide uses sigma=0.01
/// for RBM weights).
#[derive(Debug, Clone, Copy)]
pub struct NormalInit {
    /// Standard deviation of the distribution.
    pub sigma: f32,
}

impl Default for NormalInit {
    fn default() -> Self {
        NormalInit { sigma: 0.01 }
    }
}

impl Initializer for NormalInit {
    fn init(&self, rows: usize, cols: usize, rng: &mut impl Rng) -> Mat {
        // Box-Muller transform: avoids pulling in a distributions crate for
        // a single use-site.
        let mut m = Mat::zeros(rows, cols);
        let s = self.sigma;
        let slice = m.as_mut_slice();
        let mut i = 0;
        while i < slice.len() {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            slice[i] = s * r * theta.cos();
            if i + 1 < slice.len() {
                slice[i + 1] = s * r * theta.sin();
            }
            i += 2;
        }
        m
    }
}

/// Symmetric uniform "Glorot for sigmoid" initialization:
/// `U(-4·sqrt(6/(fan_in+fan_out)), +4·sqrt(6/(fan_in+fan_out)))`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlorotSigmoid;

/// The half-width of the [`GlorotSigmoid`] range for the given fan-in and
/// fan-out.
pub fn autoencoder_init_range(fan_in: usize, fan_out: usize) -> f32 {
    4.0 * (6.0 / (fan_in as f32 + fan_out as f32)).sqrt()
}

impl Initializer for GlorotSigmoid {
    fn init(&self, rows: usize, cols: usize, rng: &mut impl Rng) -> Mat {
        // Convention in this workspace: weight matrices are `fan_out x
        // fan_in` (rows = units in the next layer), matching W·x + b.
        let r = autoencoder_init_range(cols, rows);
        let mut m = Mat::zeros(rows, cols);
        for x in m.as_mut_slice() {
            *x = rng.gen_range(-r..=r);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_init_is_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = ZeroInit.init(3, 4, &mut rng);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn normal_init_statistics() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = NormalInit { sigma: 0.5 }.init(200, 200, &mut rng);
        let n = m.len() as f64;
        let mean = m.sum() / n;
        let var = m
            .as_slice()
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.02, "std {}", var.sqrt());
        assert!(m.all_finite());
    }

    #[test]
    fn glorot_respects_range_and_spreads() {
        let mut rng = StdRng::seed_from_u64(7);
        let (rows, cols) = (64, 100);
        let m = GlorotSigmoid.init(rows, cols, &mut rng);
        let r = autoencoder_init_range(cols, rows);
        assert!(m.as_slice().iter().all(|&x| x.abs() <= r));
        // Not degenerate: plenty of sign variety.
        let pos = m.as_slice().iter().filter(|&&x| x > 0.0).count();
        assert!(pos > m.len() / 3 && pos < 2 * m.len() / 3);
    }

    #[test]
    fn glorot_range_formula() {
        let r = autoencoder_init_range(1024, 4096);
        assert!((r - 4.0 * (6.0f32 / 5120.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = GlorotSigmoid.init(8, 8, &mut StdRng::seed_from_u64(9));
        let b = GlorotSigmoid.init(8, 8, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn normal_init_odd_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = NormalInit::default().init(3, 3, &mut rng);
        assert_eq!(m.len(), 9);
        assert!(m.all_finite());
    }
}
