//! Evaluation and inspection utilities.
//!
//! The paper evaluates pre-training purely by wall-clock, but a library a
//! downstream user would adopt also needs to answer "did it learn
//! anything?": reconstruction quality, hidden-unit health (dead/saturated
//! units — the failure mode the KL sparsity penalty exists to prevent),
//! and feature visualization.

use crate::autoencoder::{AeScratch, SparseAutoencoder};
use crate::exec::ExecCtx;
use micdnn_tensor::{Mat, MatView};

/// Reconstruction quality of a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconstructionStats {
    /// Mean squared error per element.
    pub mse: f64,
    /// Peak signal-to-noise ratio in dB, assuming a unit dynamic range
    /// (inputs in [0, 1], as produced by the data crate).
    pub psnr_db: f64,
    /// Largest absolute elementwise error.
    pub max_abs_err: f32,
}

/// Computes reconstruction statistics of `ae` on `x`.
pub fn reconstruction_stats(
    ae: &SparseAutoencoder,
    ctx: &ExecCtx,
    x: MatView<'_>,
    scratch: &mut AeScratch,
) -> ReconstructionStats {
    assert!(x.rows() > 0, "empty batch");
    ae.forward(ctx, x, scratch);
    let recon = scratch.output().rows_range(0, x.rows());
    let n = (x.rows() * x.cols()) as f64;
    let mut sq = 0.0f64;
    let mut max_abs = 0.0f32;
    for (a, b) in recon.as_slice().iter().zip(x.as_slice()) {
        let d = a - b;
        sq += (d as f64) * (d as f64);
        max_abs = max_abs.max(d.abs());
    }
    let mse = sq / n;
    let psnr_db = if mse > 0.0 {
        10.0 * (1.0 / mse).log10()
    } else {
        f64::INFINITY
    };
    ReconstructionStats {
        mse,
        psnr_db,
        max_abs_err: max_abs,
    }
}

/// Health statistics of a hidden layer's activations over a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationStats {
    /// Mean activation per hidden unit (the ρ̂ of the sparsity penalty).
    pub mean_activation: Vec<f32>,
    /// Units whose mean activation is below `dead_threshold` — they never
    /// fire and contribute nothing.
    pub dead_units: usize,
    /// Units whose mean activation exceeds `saturated_threshold` — they
    /// always fire and carry no information either.
    pub saturated_units: usize,
    /// Mean of the per-unit means (overall code density).
    pub overall_mean: f64,
}

/// Computes activation health over `x` with the conventional thresholds
/// (dead < 0.02, saturated > 0.98).
pub fn activation_stats(ae: &SparseAutoencoder, ctx: &ExecCtx, x: MatView<'_>) -> ActivationStats {
    activation_stats_with(ae, ctx, x, 0.02, 0.98)
}

/// [`activation_stats`] with explicit thresholds.
pub fn activation_stats_with(
    ae: &SparseAutoencoder,
    ctx: &ExecCtx,
    x: MatView<'_>,
    dead_threshold: f32,
    saturated_threshold: f32,
) -> ActivationStats {
    assert!(dead_threshold < saturated_threshold, "thresholds inverted");
    let code = ae.encode(ctx, x);
    let h = code.cols();
    let mut mean = vec![0.0f32; h];
    ctx.colmean(code.view(), &mut mean);
    let dead = mean.iter().filter(|&&m| m < dead_threshold).count();
    let saturated = mean.iter().filter(|&&m| m > saturated_threshold).count();
    let overall = mean.iter().map(|&m| m as f64).sum::<f64>() / h.max(1) as f64;
    ActivationStats {
        mean_activation: mean,
        dead_units: dead,
        saturated_units: saturated,
        overall_mean: overall,
    }
}

/// Renders one hidden unit's input weights as an ASCII image (`side x
/// side` must equal the visible dimensionality).
pub fn feature_ascii(ae: &SparseAutoencoder, unit: usize, side: usize) -> String {
    assert!(unit < ae.config().n_hidden, "unit out of range");
    assert_eq!(
        side * side,
        ae.config().n_visible,
        "side^2 must equal the visible dimensionality"
    );
    let row = ae.w1.row(unit);
    let max = row.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-9);
    let mut out = String::with_capacity(side * (side + 1));
    for y in 0..side {
        for x in 0..side {
            let v = row[y * side + x] / max;
            out.push(match v {
                v if v > 0.5 => '#',
                v if v > 0.15 => '+',
                v if v < -0.5 => '=',
                v if v < -0.15 => '-',
                _ => '.',
            });
        }
        out.push('\n');
    }
    out
}

/// Writes a weight matrix (or any image-shaped data) as a binary PGM file
/// — the zero-dependency way to look at learned features.
pub fn write_pgm(path: impl AsRef<std::path::Path>, image: &Mat) -> std::io::Result<()> {
    use std::io::Write;
    let (rows, cols) = image.shape();
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in image.as_slice() {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = (hi - lo).max(1e-9);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "P5\n{cols} {rows}\n255")?;
    let bytes: Vec<u8> = image
        .as_slice()
        .iter()
        .map(|&v| (((v - lo) / span) * 255.0).round() as u8)
        .collect();
    f.write_all(&bytes)?;
    f.flush()
}

/// Tiles the first `n` hidden units' weight images into one big matrix
/// (for PGM export), `grid_cols` per row, each `side x side`, separated by
/// 1-pixel borders.
pub fn feature_grid(ae: &SparseAutoencoder, n: usize, side: usize, grid_cols: usize) -> Mat {
    assert!(grid_cols > 0, "grid needs at least one column");
    assert_eq!(side * side, ae.config().n_visible, "side^2 != n_visible");
    let n = n.min(ae.config().n_hidden);
    let grid_rows = n.div_ceil(grid_cols);
    let out_rows = grid_rows * (side + 1) + 1;
    let out_cols = grid_cols * (side + 1) + 1;
    let mut out = Mat::zeros(out_rows, out_cols);
    for unit in 0..n {
        let gr = unit / grid_cols;
        let gc = unit % grid_cols;
        let row = ae.w1.row(unit);
        let max = row.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-9);
        for y in 0..side {
            for x in 0..side {
                out.set(
                    gr * (side + 1) + 1 + y,
                    gc * (side + 1) + 1 + x,
                    row[y * side + x] / max,
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoencoder::AeConfig;
    use crate::exec::OptLevel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (SparseAutoencoder, ExecCtx, Mat) {
        let cfg = AeConfig::new(16, 9);
        let ae = SparseAutoencoder::new(cfg, 1);
        let ctx = ExecCtx::native(OptLevel::Improved, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let x = Mat::from_fn(20, 16, |_, _| rng.gen_range(0.2..0.8));
        (ae, ctx, x)
    }

    #[test]
    fn reconstruction_stats_consistent() {
        let (mut ae, ctx, x) = setup();
        let mut scratch = AeScratch::new(ae.config(), 20);
        let before = reconstruction_stats(&ae, &ctx, x.view(), &mut scratch);
        assert!(before.mse > 0.0 && before.psnr_db.is_finite());
        assert!(before.max_abs_err > 0.0);
        for _ in 0..200 {
            ae.train_batch(&ctx, x.view(), &mut scratch, 0.5);
        }
        let after = reconstruction_stats(&ae, &ctx, x.view(), &mut scratch);
        assert!(after.mse < before.mse, "training should reduce MSE");
        assert!(after.psnr_db > before.psnr_db, "PSNR should rise");
    }

    #[test]
    fn psnr_matches_mse_formula() {
        let (ae, ctx, x) = setup();
        let mut scratch = AeScratch::new(ae.config(), 20);
        let s = reconstruction_stats(&ae, &ctx, x.view(), &mut scratch);
        let expect = 10.0 * (1.0 / s.mse).log10();
        assert!((s.psnr_db - expect).abs() < 1e-9);
    }

    #[test]
    fn activation_stats_detect_dead_and_saturated() {
        let (mut ae, ctx, x) = setup();
        // Force unit 0 dead and unit 1 saturated via biases.
        ae.b1[0] = -50.0;
        ae.b1[1] = 50.0;
        let stats = activation_stats(&ae, &ctx, x.view());
        assert!(stats.dead_units >= 1);
        assert!(stats.saturated_units >= 1);
        assert!(stats.mean_activation[0] < 0.02);
        assert!(stats.mean_activation[1] > 0.98);
        assert!((0.0..=1.0).contains(&stats.overall_mean));
    }

    #[test]
    fn ascii_feature_has_right_shape() {
        let (ae, _ctx, _x) = setup();
        let art = feature_ascii(&ae, 0, 4);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.chars().count() == 4));
    }

    #[test]
    fn feature_grid_dimensions() {
        let (ae, _ctx, _x) = setup();
        let grid = feature_grid(&ae, 9, 4, 3);
        assert_eq!(grid.shape(), (3 * 5 + 1, 3 * 5 + 1));
        assert!(grid.all_finite());
    }

    #[test]
    fn pgm_round_trip_header() {
        let (ae, _ctx, _x) = setup();
        let grid = feature_grid(&ae, 4, 4, 2);
        let dir = crate::TestDir::new("metrics-pgm");
        let path = dir.file("grid.pgm");
        write_pgm(&path, &grid).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let header = String::from_utf8_lossy(&bytes[..20.min(bytes.len())]);
        assert!(header.starts_with("P5"));
        // Payload length = rows * cols after the header's three lines.
        let header_end = bytes
            .windows(4)
            .position(|w| w == b"255\n")
            .map(|p| p + 4)
            .unwrap();
        assert_eq!(bytes.len() - header_end, grid.len());
    }

    #[test]
    #[should_panic(expected = "side^2 must equal")]
    fn feature_ascii_shape_checked() {
        let (ae, _ctx, _x) = setup();
        feature_ascii(&ae, 0, 5);
    }
}
