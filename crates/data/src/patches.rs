//! Natural-image-like patches.
//!
//! Sparse autoencoders are classically trained on small patches of natural
//! images (Olshausen & Field — the paper's refs \[3\]/\[27\]). Natural images
//! have two signature statistics this generator reproduces:
//!
//! * a `1/f` amplitude spectrum — approximated by summing octaves of
//!   smooth value noise with amplitude halving per octave;
//! * oriented, localized structure (edges) — injected as a few random
//!   Gabor-like ridges per virtual image.
//!
//! Patches are sampled from larger virtual images so neighboring patches
//! share global structure, exactly like cropping from photographs.

use micdnn_tensor::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic generator of natural-image-style patches.
#[derive(Debug, Clone)]
pub struct PatchGenerator {
    patch_side: usize,
    image_side: usize,
    rng: StdRng,
    image: Vec<f32>,
    patches_left_in_image: usize,
    patches_per_image: usize,
}

impl PatchGenerator {
    /// Generator of `patch_side x patch_side` patches, seeded.
    pub fn new(patch_side: usize, seed: u64) -> Self {
        assert!(patch_side >= 4, "patches need at least 4x4 pixels");
        let image_side = (patch_side * 8).max(64);
        let mut g = PatchGenerator {
            patch_side,
            image_side,
            rng: StdRng::seed_from_u64(seed),
            image: Vec::new(),
            patches_left_in_image: 0,
            patches_per_image: 200,
        };
        g.regenerate_image();
        g
    }

    /// Dimensionality of each flattened patch.
    pub(crate) fn dim(&self) -> usize {
        self.patch_side * self.patch_side
    }

    fn regenerate_image(&mut self) {
        let n = self.image_side;
        let mut img = vec![0.0f32; n * n];

        // Octaves of smooth value noise: amplitude ~ 1/frequency.
        let mut amplitude = 1.0f32;
        let mut cells = 4usize;
        while cells <= n {
            add_value_noise(&mut img, n, cells, amplitude, &mut self.rng);
            amplitude *= 0.5;
            cells *= 2;
        }

        // A few oriented ridges (edges / bars).
        let ridges = self.rng.gen_range(3..8);
        for _ in 0..ridges {
            add_ridge(&mut img, n, &mut self.rng);
        }

        // Normalize the virtual image to zero mean, unit-ish variance.
        let mean = img.iter().sum::<f32>() / img.len() as f32;
        let var = img.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / img.len() as f32;
        let inv_std = 1.0 / var.sqrt().max(1e-6);
        for v in img.iter_mut() {
            *v = (*v - mean) * inv_std;
        }

        self.image = img;
        self.patches_left_in_image = self.patches_per_image;
    }

    /// Samples one patch as a flat row of `side * side` pixels.
    ///
    /// Values are roughly standard-normal; feed through
    /// [`crate::Dataset::normalize`] before training sigmoid networks.
    pub fn sample(&mut self) -> Vec<f32> {
        if self.patches_left_in_image == 0 {
            self.regenerate_image();
        }
        self.patches_left_in_image -= 1;
        let n = self.image_side;
        let p = self.patch_side;
        let x0 = self.rng.gen_range(0..=(n - p));
        let y0 = self.rng.gen_range(0..=(n - p));
        let mut out = Vec::with_capacity(p * p);
        for y in 0..p {
            let row = &self.image[(y0 + y) * n + x0..(y0 + y) * n + x0 + p];
            out.extend_from_slice(row);
        }
        out
    }

    /// Generates `n` patches as an `n x dim` matrix.
    pub fn matrix(&mut self, n: usize) -> Mat {
        let dim = self.dim();
        let mut m = Mat::zeros(n, dim);
        for i in 0..n {
            let row = self.sample();
            m.row_mut(i).copy_from_slice(&row);
        }
        m
    }
}

/// Adds bilinear-interpolated lattice noise with `cells x cells` control
/// points scaled by `amplitude`.
fn add_value_noise(img: &mut [f32], n: usize, cells: usize, amplitude: f32, rng: &mut StdRng) {
    let lattice: Vec<f32> = (0..(cells + 1) * (cells + 1))
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let step = n as f32 / cells as f32;
    for y in 0..n {
        let fy = y as f32 / step;
        let cy = (fy as usize).min(cells - 1);
        let ty = fy - cy as f32;
        for x in 0..n {
            let fx = x as f32 / step;
            let cx = (fx as usize).min(cells - 1);
            let tx = fx - cx as f32;
            let l = cells + 1;
            let v00 = lattice[cy * l + cx];
            let v01 = lattice[cy * l + cx + 1];
            let v10 = lattice[(cy + 1) * l + cx];
            let v11 = lattice[(cy + 1) * l + cx + 1];
            let v0 = v00 + (v01 - v00) * tx;
            let v1 = v10 + (v11 - v10) * tx;
            img[y * n + x] += amplitude * (v0 + (v1 - v0) * ty);
        }
    }
}

/// Adds one Gabor-like oriented ridge at a random position/orientation.
fn add_ridge(img: &mut [f32], n: usize, rng: &mut StdRng) {
    let cx = rng.gen_range(0.0..n as f32);
    let cy = rng.gen_range(0.0..n as f32);
    let theta = rng.gen_range(0.0..std::f32::consts::PI);
    let (sin, cos) = theta.sin_cos();
    let wavelength = rng.gen_range(4.0..16.0f32);
    let sigma = rng.gen_range(4.0..(n as f32 / 4.0));
    let amp = rng.gen_range(0.3..1.0f32) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let two_sigma_sq = 2.0 * sigma * sigma;
    let k = 2.0 * std::f32::consts::PI / wavelength;

    // Only touch a bounded window around the ridge center.
    let r = (3.0 * sigma).ceil() as i64;
    let x_lo = ((cx as i64) - r).max(0) as usize;
    let x_hi = (((cx as i64) + r).min(n as i64 - 1)) as usize;
    let y_lo = ((cy as i64) - r).max(0) as usize;
    let y_hi = (((cy as i64) + r).min(n as i64 - 1)) as usize;

    for y in y_lo..=y_hi {
        for x in x_lo..=x_hi {
            let dx = x as f32 - cx;
            let dy = y as f32 - cy;
            let along = dx * cos + dy * sin;
            let dist_sq = dx * dx + dy * dy;
            let envelope = (-dist_sq / two_sigma_sq).exp();
            img[y * n + x] += amp * envelope * (k * along).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patches_have_right_shape() {
        let mut g = PatchGenerator::new(8, 1);
        assert_eq!(g.dim(), 64);
        let p = g.sample();
        assert_eq!(p.len(), 64);
        assert!(p.iter().all(|v| v.is_finite()));
        let m = g.matrix(50);
        assert_eq!(m.shape(), (50, 64));
    }

    #[test]
    fn patches_are_roughly_standardized() {
        let mut g = PatchGenerator::new(12, 7);
        let m = g.matrix(2000);
        let n = m.len() as f64;
        let mean = m.sum() / n;
        let var = m
            .as_slice()
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.35, "mean {mean}");
        assert!(var > 0.3 && var < 3.0, "var {var}");
    }

    #[test]
    fn patches_are_spatially_correlated() {
        // Natural images: adjacent pixels correlate strongly. White noise
        // would give ~0 here.
        let mut g = PatchGenerator::new(10, 3);
        let m = g.matrix(500);
        let mut corr = 0.0f64;
        let mut norm_a = 0.0f64;
        let mut norm_b = 0.0f64;
        for i in 0..m.rows() {
            let row = m.row(i);
            for x in 0..9 {
                let a = row[x] as f64;
                let b = row[x + 1] as f64;
                corr += a * b;
                norm_a += a * a;
                norm_b += b * b;
            }
        }
        let r = corr / (norm_a.sqrt() * norm_b.sqrt());
        assert!(
            r > 0.5,
            "neighbor correlation {r} too low for natural images"
        );
    }

    #[test]
    fn patches_vary() {
        let mut g = PatchGenerator::new(8, 11);
        let a = g.sample();
        let b = g.sample();
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = PatchGenerator::new(8, 42);
        let mut b = PatchGenerator::new(8, 42);
        for _ in 0..300 {
            // crosses an image regeneration boundary (200 per image)
            assert_eq!(a.sample(), b.sample());
        }
    }
}
