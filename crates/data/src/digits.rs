//! Procedural handwritten-style digit images.
//!
//! Each digit class 0–9 is defined by a polyline skeleton in the unit
//! square. An example is produced by jittering the skeleton with a random
//! affine transform (translation, scale, rotation, shear), rasterizing it
//! with a soft-edged stroke, and adding light pixel noise — enough
//! intra-class variation that an autoencoder has real structure to learn,
//! while staying fully deterministic under a seed.

use micdnn_tensor::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;

/// A 2-D point in skeleton space.
type P = (f32, f32);

/// Polyline skeletons for the ten digit classes, in a `[0,1]^2` box with y
/// growing downward. Several digits use more than one stroke. `None` for
/// anything outside 0–9.
fn skeleton(digit: u8) -> Option<Vec<Vec<P>>> {
    let strokes = match digit {
        0 => vec![vec![
            (0.5, 0.08),
            (0.78, 0.2),
            (0.82, 0.5),
            (0.75, 0.82),
            (0.5, 0.93),
            (0.25, 0.82),
            (0.18, 0.5),
            (0.24, 0.2),
            (0.5, 0.08),
        ]],
        1 => vec![vec![(0.35, 0.25), (0.55, 0.08), (0.55, 0.92)]],
        2 => vec![vec![
            (0.22, 0.28),
            (0.38, 0.1),
            (0.65, 0.12),
            (0.75, 0.32),
            (0.55, 0.55),
            (0.25, 0.88),
            (0.8, 0.88),
        ]],
        3 => vec![vec![
            (0.25, 0.15),
            (0.6, 0.1),
            (0.75, 0.28),
            (0.55, 0.47),
            (0.75, 0.66),
            (0.6, 0.9),
            (0.22, 0.85),
        ]],
        4 => vec![
            vec![(0.62, 0.08), (0.2, 0.62), (0.85, 0.62)],
            vec![(0.62, 0.08), (0.62, 0.92)],
        ],
        5 => vec![vec![
            (0.75, 0.1),
            (0.3, 0.1),
            (0.27, 0.45),
            (0.6, 0.42),
            (0.78, 0.62),
            (0.68, 0.88),
            (0.25, 0.9),
        ]],
        6 => vec![vec![
            (0.7, 0.1),
            (0.4, 0.3),
            (0.25, 0.6),
            (0.32, 0.85),
            (0.62, 0.9),
            (0.75, 0.68),
            (0.55, 0.52),
            (0.3, 0.62),
        ]],
        7 => vec![vec![(0.2, 0.12), (0.8, 0.12), (0.45, 0.92)]],
        8 => vec![vec![
            (0.5, 0.08),
            (0.72, 0.22),
            (0.55, 0.45),
            (0.3, 0.6),
            (0.28, 0.82),
            (0.5, 0.92),
            (0.72, 0.82),
            (0.7, 0.6),
            (0.45, 0.45),
            (0.28, 0.22),
            (0.5, 0.08),
        ]],
        9 => vec![vec![
            (0.72, 0.35),
            (0.5, 0.48),
            (0.28, 0.35),
            (0.32, 0.12),
            (0.62, 0.08),
            (0.72, 0.35),
            (0.66, 0.92),
        ]],
        _ => return None,
    };
    Some(strokes)
}

/// Deterministic generator of digit images.
#[derive(Debug, Clone)]
pub struct DigitGenerator {
    side: usize,
    rng: StdRng,
    stroke_width: f32,
    jitter: f32,
}

impl DigitGenerator {
    /// Generator for `side x side` images, seeded for reproducibility.
    pub fn new(side: usize, seed: u64) -> Self {
        assert!(side >= 8, "digits need at least 8x8 pixels");
        DigitGenerator {
            side,
            rng: StdRng::seed_from_u64(seed),
            stroke_width: 0.07,
            jitter: 0.08,
        }
    }

    /// Dimensionality of each flattened example.
    pub(crate) fn dim(&self) -> usize {
        self.side * self.side
    }

    /// Renders one example of class `digit` (0–9) into a flat row, values
    /// in `[0, 1]`.
    ///
    /// An out-of-range class returns `InvalidData` (like the rest of the
    /// data crate) *before* any random draws, so the generator state stays
    /// untouched on the error path.
    pub fn render(&mut self, digit: u8) -> io::Result<Vec<f32>> {
        let strokes = skeleton(digit).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("digit out of range: {digit}"),
            )
        })?;
        let side = self.side;

        // Random affine jitter.
        let j = self.jitter;
        let dx = self.rng.gen_range(-j..j);
        let dy = self.rng.gen_range(-j..j);
        let scale = self.rng.gen_range(1.0 - j..1.0 + j);
        let theta = self.rng.gen_range(-0.25f32..0.25);
        let shear = self.rng.gen_range(-0.15f32..0.15);
        let (sin, cos) = theta.sin_cos();
        let tf = |(x, y): P| -> P {
            let (x, y) = (x - 0.5, y - 0.5);
            let (x, y) = (x + shear * y, y);
            let (x, y) = (cos * x - sin * y, sin * x + cos * y);
            (scale * x + 0.5 + dx, scale * y + 0.5 + dy)
        };

        let w = self.stroke_width * self.rng.gen_range(0.8..1.3);
        let mut img = vec![0.0f32; side * side];
        for stroke in &strokes {
            let pts: Vec<P> = stroke.iter().map(|&p| tf(p)).collect();
            for seg in pts.windows(2) {
                rasterize_segment(&mut img, side, seg[0], seg[1], w);
            }
        }
        // Light speckle noise.
        for v in img.iter_mut() {
            let n: f32 = self.rng.gen_range(-0.03..0.03);
            *v = (*v + n).clamp(0.0, 1.0);
        }
        Ok(img)
    }

    /// Generates `n` examples cycling through the digit classes, as an
    /// `n x dim` matrix.
    pub fn matrix(&mut self, n: usize) -> Mat {
        let dim = self.dim();
        let mut m = Mat::zeros(n, dim);
        for i in 0..n {
            let row = self
                .render((i % 10) as u8)
                .expect("classes 0-9 always render");
            m.row_mut(i).copy_from_slice(&row);
        }
        m
    }
}

/// Soft-edged distance-based rasterization of the segment `a -> b`.
fn rasterize_segment(img: &mut [f32], side: usize, a: P, b: P, width: f32) {
    let n = side as f32;
    let (ax, ay) = (a.0 * n, a.1 * n);
    let (bx, by) = (b.0 * n, b.1 * n);
    let w_px = (width * n).max(0.75);
    let pad = w_px.ceil() as i64 + 1;

    let x_lo = ((ax.min(bx)) as i64 - pad).max(0) as usize;
    let x_hi = ((ax.max(bx)) as i64 + pad).min(side as i64 - 1) as usize;
    let y_lo = ((ay.min(by)) as i64 - pad).max(0) as usize;
    let y_hi = ((ay.max(by)) as i64 + pad).min(side as i64 - 1) as usize;

    let vx = bx - ax;
    let vy = by - ay;
    let len_sq = (vx * vx + vy * vy).max(1e-9);

    for y in y_lo..=y_hi {
        for x in x_lo..=x_hi {
            let px = x as f32 + 0.5;
            let py = y as f32 + 0.5;
            let t = (((px - ax) * vx + (py - ay) * vy) / len_sq).clamp(0.0, 1.0);
            let cx = ax + t * vx;
            let cy = ay + t * vy;
            let d = ((px - cx).powi(2) + (py - cy).powi(2)).sqrt();
            // Soft falloff from full ink at the spine to 0 past the width.
            let ink = (1.0 - (d / w_px - 0.5).max(0.0) * 2.0).clamp(0.0, 1.0);
            let cell = &mut img[y * side + x];
            *cell = cell.max(ink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_in_unit_range() {
        let mut g = DigitGenerator::new(16, 1);
        for d in 0..10 {
            let img = g.render(d).unwrap();
            assert_eq!(img.len(), 256);
            assert!(img.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn digits_have_ink_but_not_everywhere() {
        let mut g = DigitGenerator::new(20, 2);
        for d in 0..10 {
            let img = g.render(d).unwrap();
            let ink: f32 = img.iter().sum();
            let frac = ink / img.len() as f32;
            assert!(frac > 0.02, "digit {d} nearly blank ({frac})");
            assert!(frac < 0.6, "digit {d} nearly solid ({frac})");
        }
    }

    #[test]
    fn classes_are_distinguishable() {
        // Mean images of different classes should differ much more than
        // two samples of the same class on average.
        let side = 16;
        let mean_img = |digit: u8, seed: u64| -> Vec<f32> {
            let mut g = DigitGenerator::new(side, seed);
            let mut acc = vec![0.0f32; side * side];
            for _ in 0..30 {
                for (a, v) in acc.iter_mut().zip(g.render(digit).unwrap()) {
                    *a += v / 30.0;
                }
            }
            acc
        };
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f32>()
        };
        let m1 = mean_img(1, 3);
        let m1b = mean_img(1, 4);
        let m0 = mean_img(0, 5);
        let m8 = mean_img(8, 6);
        assert!(dist(&m1, &m0) > 4.0 * dist(&m1, &m1b), "0 vs 1 too similar");
        assert!(dist(&m1, &m8) > 4.0 * dist(&m1, &m1b), "1 vs 8 too similar");
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = DigitGenerator::new(12, 9);
        let mut b = DigitGenerator::new(12, 9);
        assert_eq!(a.render(7).unwrap(), b.render(7).unwrap());
        assert_ne!(
            a.render(7).unwrap(),
            b.render(3).unwrap(),
            "different draws differ"
        );
    }

    #[test]
    fn matrix_layout() {
        let mut g = DigitGenerator::new(10, 0);
        let m = g.matrix(25);
        assert_eq!(m.shape(), (25, 100));
        assert!(m.all_finite());
    }

    #[test]
    fn digit_class_checked() {
        let mut g = DigitGenerator::new(16, 0);
        for bad in [10u8, 99, 255] {
            let err = g.render(bad).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("out of range"));
        }
        // The failed calls consumed no randomness: the generator renders
        // exactly what a fresh one does.
        assert_eq!(
            g.render(4).unwrap(),
            DigitGenerator::new(16, 0).render(4).unwrap()
        );
    }
}
