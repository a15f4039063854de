//! Matrix reductions: column sums/means and batched error norms.
//!
//! The training algorithms need per-column statistics in two places: the
//! sparsity penalty of the autoencoder (the mean activation `rho_hat_i` of
//! every hidden unit over a batch) and the bias gradients of both models
//! (column sums of activation/delta matrices). Rows are reduced in fixed
//! order per column so results are deterministic under threading.

use crate::vecops::{axpy_chunk, LANES};
use crate::{Par, PAR_THRESHOLD};
use micdnn_tensor::MatView;
use rayon::prelude::*;

/// Column sums of an `m x n` matrix into `out` (length `n`).
///
/// Implemented as a row sweep with vectorized row-axpys: `out += row_r` for
/// each r in order, which keeps accumulation order fixed and the inner loop
/// wide. Rows narrower than [`LANES`] (the CNN's bias gradient, eight
/// channels wide) each add one vector to a register-width accumulator
/// instead, in the same order.
/// The parallel variant splits the *columns* so each task owns a
/// disjoint slice of `out` and still sweeps rows in order — bitwise equal to
/// the sequential sweep.
pub(crate) fn colsum(par: Par, a: MatView<'_>, out: &mut [f32]) {
    assert_eq!(out.len(), a.cols(), "colsum: out length mismatch");
    out.fill(0.0);
    if a.rows() == 0 || a.cols() == 0 {
        return;
    }
    if par.is_parallel() && a.rows() * a.cols() >= PAR_THRESHOLD && a.cols() >= 64 {
        let cols = a.cols();
        let chunk = (cols / rayon::current_num_threads().max(1)).max(64);
        out.par_chunks_mut(chunk).enumerate().for_each(|(ci, oc)| {
            let c0 = ci * chunk;
            for r in 0..a.rows() {
                let row = &a.row(r)[c0..c0 + oc.len()];
                axpy_chunk(1.0, row, oc);
            }
        });
    } else if a.cols() < LANES {
        // A row narrower than a vector would fall wholly into `axpy_chunk`'s
        // scalar tail, once per row. Instead each row adds the `LANES`
        // floats from its start to one register-width accumulator: one
        // vector add, whose first `cols` lanes are the row, in row order,
        // and whose other lanes (the next rows' values) are never read.
        // The last rows, whose `LANES` floats would run past the matrix,
        // add only their own columns.
        let (flat, cols) = (a.as_slice(), a.cols());
        let mut acc = [0.0f32; LANES];
        let wide = flat.len().saturating_sub(LANES - cols) / cols;
        for w in flat.windows(LANES).step_by(cols).take(wide) {
            for (s, &x) in acc.iter_mut().zip(w) {
                *s += x;
            }
        }
        for row in flat[wide * cols..].chunks_exact(cols) {
            for (s, &x) in acc.iter_mut().zip(row) {
                *s += x;
            }
        }
        out.copy_from_slice(&acc[..cols]);
    } else {
        for r in 0..a.rows() {
            axpy_chunk(1.0, a.row(r), out);
        }
    }
}

/// Row sums of an `m x n` matrix into `out` (length `m`): each row summed
/// in column order from `+0.0`, one add at a time, which is the chain
/// [`colsum`] runs for each column of the transpose, so the bits are its.
/// The CNN's channel-major bias gradient sums each channel's plane so. Rows
/// go [`ROW_CHAINS`] at a time, one column of them per step, so that their
/// chains of dependent adds run side by side; a group short of
/// `ROW_CHAINS` rows re-reads its last row in the others (computed, never
/// stored). Threaded, the groups split between two halves of the rows by
/// `rayon::join`, which allocates nothing.
pub(crate) fn rowsum(par: Par, a: MatView<'_>, out: &mut [f32]) {
    assert_eq!(out.len(), a.rows(), "rowsum: out length mismatch");
    let (m, n) = a.shape();
    if n == 0 {
        out.fill(0.0);
        return;
    }
    if par.is_parallel() && m > ROW_CHAINS && m * n >= PAR_THRESHOLD {
        let mid = (m / 2).next_multiple_of(ROW_CHAINS);
        let (top, bottom) = a.as_slice().split_at(mid * n);
        let (o0, o1) = out.split_at_mut(mid);
        rayon::join(
            || rowsum(par, MatView::new(top, mid, n), o0),
            || rowsum(par, MatView::new(bottom, m - mid, n), o1),
        );
        return;
    }
    for (group, sums) in a
        .as_slice()
        .chunks(ROW_CHAINS * n)
        .zip(out.chunks_mut(ROW_CHAINS))
    {
        let last = sums.len() - 1;
        // Each row sliced to exactly `n`, so no read below is checked.
        let rows: [&[f32]; ROW_CHAINS] = std::array::from_fn(|i| &group[i.min(last) * n..][..n]);
        let mut acc = [0.0f32; ROW_CHAINS];
        for j in 0..n {
            for (s, row) in acc.iter_mut().zip(&rows) {
                *s += row[j];
            }
        }
        sums.copy_from_slice(&acc[..sums.len()]);
    }
}

/// Rows [`rowsum`] sums side by side: half the CNN's eight channels, so
/// that each of two threads takes one group.
const ROW_CHAINS: usize = 4;

/// Squared Frobenius distance `||A - B||_F^2` with f64 accumulation.
///
/// This is the batch reconstruction error both trainers report.
pub(crate) fn frob_dist_sq(par: Par, a: MatView<'_>, b: MatView<'_>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "frob_dist_sq: shape mismatch");
    let x = a.as_slice();
    let y = b.as_slice();
    let chunked = |xc: &[f32], yc: &[f32]| -> f64 {
        let mut acc = 0.0f64;
        for (u, v) in xc.iter().zip(yc) {
            let d = (u - v) as f64;
            acc += d * d;
        }
        acc
    };
    if par.is_parallel() && x.len() >= PAR_THRESHOLD {
        let partials: Vec<f64> = x
            .par_chunks(PAR_THRESHOLD)
            .zip(y.par_chunks(PAR_THRESHOLD))
            .map(|(xc, yc)| chunked(xc, yc))
            .collect();
        partials.iter().sum()
    } else {
        x.chunks(PAR_THRESHOLD)
            .zip(y.chunks(PAR_THRESHOLD))
            .map(|(xc, yc)| chunked(xc, yc))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micdnn_tensor::Mat;

    #[test]
    fn colsum_matches_naive() {
        let a = Mat::from_fn(37, 129, |r, c| ((r * 129 + c) % 17) as f32 - 8.0);
        let mut fast = vec![0.0f32; 129];
        let mut slow = vec![0.0f32; 129];
        colsum(Par::Seq, a.view(), &mut fast);
        crate::naive::colsum_ref(a.view(), &mut slow);
        assert_eq!(fast, slow);
    }

    #[test]
    fn colsum_narrow_and_wide_rows_match_naive_bitwise() {
        // Widths on both sides of LANES, values whose sums round, a NaN
        // and a -0.0 column: the row order of every column sum is pinned.
        // Row counts from one (a single row narrower than a vector) up.
        for rows in [1, 2, 3, 301] {
            for cols in 1..=2 * LANES + 1 {
                let a = Mat::from_fn(rows, cols, |r, c| match (r, c) {
                    (7, 0) => f32::NAN,
                    (_, 1) => -0.0,
                    _ => ((r * 31 + c * 7) as f32).sin() * 1e3,
                });
                let mut slow = vec![0.0f32; cols];
                crate::naive::colsum_ref(a.view(), &mut slow);
                for par in [Par::Seq, Par::Rayon] {
                    let mut fast = vec![1.0f32; cols];
                    colsum(par, a.view(), &mut fast);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&fast), bits(&slow), "{rows} x {cols} {par:?}");
                }
            }
        }
    }

    #[test]
    fn rowsum_is_colsum_of_the_transpose_bitwise() {
        // The CNN's per-channel bias gradient: each plane summed in pixel
        // order is the column sum of the NHWC transpose, bit for bit. The
        // values' sums round, one row holds a NaN and one only -0.0, and the
        // row counts fill a group of chains, fall short of one, and pass it,
        // sequential and split between threads.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let shapes = [1, 6, 8, 13, 17]
            .into_iter()
            .flat_map(|r| [1, 7, 300, 28_800].map(|c| (r, c)));
        for ((rows, cols), par) in shapes.flat_map(|s| [Par::Seq, Par::Rayon].map(|p| (s, p))) {
            {
                let a = Mat::from_fn(rows, cols, |r, c| match (r, c) {
                    (2, 5) => f32::NAN,
                    (3, _) => -0.0,
                    _ => ((r * 31 + c * 7) as f32).sin() * 1e3 + 0.1,
                });
                let mut want = vec![7.0f32; rows];
                colsum(Par::Seq, a.transposed().view(), &mut want);
                let mut got = vec![7.0f32; rows];
                rowsum(par, a.view(), &mut got);
                assert_eq!(bits(&got), bits(&want), "{rows} x {cols} {par:?}");
                if rows > 3 {
                    assert_eq!(got[3].to_bits(), 0.0f32.to_bits(), "-0.0 sums to +0.0");
                }
            }
        }
    }

    #[test]
    fn colsum_par_bitwise_equal() {
        let a = Mat::from_fn(300, 400, |r, c| ((r ^ c) as f32).sin());
        let mut s = vec![0.0f32; 400];
        let mut p = vec![0.0f32; 400];
        colsum(Par::Seq, a.view(), &mut s);
        colsum(Par::Rayon, a.view(), &mut p);
        assert_eq!(s, p);
    }

    #[test]
    fn colmean_basic() {
        let a = Mat::from_fn(4, 2, |r, _| r as f32); // cols: 0,1,2,3 -> mean 1.5
        let mut out = vec![0.0f32; 2];
        crate::Backend::sequential_blas().colmean(a.view(), &mut out);
        assert_eq!(out, vec![1.5, 1.5]);
    }

    #[test]
    fn colmean_empty_rows() {
        let a = Mat::zeros(0, 3);
        let mut out = vec![7.0f32; 3];
        crate::Backend::sequential_blas().colmean(a.view(), &mut out);
        assert_eq!(out, vec![0.0; 3], "empty matrix yields zero means, not NaN");
    }

    #[test]
    fn frob_dist_known() {
        let a = Mat::full(2, 2, 1.0);
        let b = Mat::full(2, 2, 3.0);
        assert_eq!(frob_dist_sq(Par::Seq, a.view(), b.view()), 16.0);
        assert_eq!(frob_dist_sq(Par::Seq, a.view(), a.view()), 0.0);
    }

    #[test]
    fn frob_dist_par_deterministic() {
        let a = Mat::from_fn(100, 700, |r, c| ((r * c) as f32).cos());
        let b = Mat::from_fn(100, 700, |r, c| ((r + c) as f32).sin());
        assert_eq!(
            frob_dist_sq(Par::Seq, a.view(), b.view()),
            frob_dist_sq(Par::Rayon, a.view(), b.view())
        );
    }
}
