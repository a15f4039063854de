//! Scalar reference kernels — the paper's un-optimized "Baseline".
//!
//! These are deliberately straightforward triple loops with no blocking, no
//! packing and a memory-access pattern (B walked down its columns) that the
//! autovectorizer cannot rescue. They serve two purposes:
//!
//! * correctness oracle for the optimized kernels (property tests compare
//!   against these), and
//! * the functional body of the `Baseline` rung in Table I of the paper.

use micdnn_tensor::{MatView, MatViewMut};

/// Reference GEMM: `C = alpha * op(A) * op(B) + beta * C`.
///
/// `ta`/`tb` select transposition of A/B. Shapes are checked against the
/// *operated* dimensions: `op(A)` is `m x k`, `op(B)` is `k x n`, `C` is
/// `m x n`. At `beta == 0` C is written, never read, so a NaN left there
/// never survives.
pub fn gemm_ref(
    alpha: f32,
    a: MatView<'_>,
    ta: bool,
    b: MatView<'_>,
    tb: bool,
    beta: f32,
    c: &mut MatViewMut<'_>,
) {
    let (m, k) = if ta { (a.cols(), a.rows()) } else { a.shape() };
    let (kb, n) = if tb { (b.cols(), b.rows()) } else { b.shape() };
    assert_eq!(k, kb, "gemm_ref: inner dimension mismatch ({k} vs {kb})");
    assert_eq!(c.shape(), (m, n), "gemm_ref: output shape mismatch");

    let at = |i: usize, p: usize| if ta { a.get(p, i) } else { a.get(i, p) };
    let bt = |p: usize, j: usize| if tb { b.get(j, p) } else { b.get(p, j) };

    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += at(i, p) * bt(p, j);
            }
            finish(alpha, acc, beta, &mut c.as_mut_slice()[i * n + j]);
        }
    }
}

/// Stores `alpha * acc + beta * c` into the element `c` of C. At
/// `beta == 0` it stores `0.0 + alpha * acc` without reading `c`, as the
/// blocked kernel does (a zeroed C plus one slab), so a NaN left in C never
/// survives.
pub(crate) fn finish(alpha: f32, acc: f32, beta: f32, c: &mut f32) {
    *c = if beta == 0.0 {
        0.0 + alpha * acc
    } else {
        alpha * acc + beta * *c
    };
}

/// Scalar sigmoid over a slice (no chunking, no vector hints).
pub(crate) fn sigmoid_ref(y: &mut [f32]) {
    for v in y {
        let x = v.clamp(-30.0, 30.0);
        *v = 1.0 / (1.0 + (-x).exp());
    }
}

/// Scalar axpy.
pub(crate) fn axpy_ref(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len());
    for i in 0..y.len() {
        y[i] += alpha * x[i];
    }
}

/// Scalar column sums of an `m x n` view into `out` (length `n`).
pub fn colsum_ref(a: MatView<'_>, out: &mut [f32]) {
    assert_eq!(out.len(), a.cols(), "colsum_ref: out length mismatch");
    out.fill(0.0);
    for r in 0..a.rows() {
        let row = a.row(r);
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// Scalar `im2col` (stride 1, no padding): one `copy_from_slice` of `k`
/// floats per patch row. Same contract as [`crate::conv::im2col`].
pub fn im2col_ref(x: &[f32], b: usize, side: usize, k: usize, col: &mut [f32]) {
    assert!(k >= 1 && k <= side, "im2col_ref: kernel {k} vs side {side}");
    let o = side - k + 1;
    let (img, patch) = (side * side, k * k);
    assert_eq!(x.len(), b * img, "im2col_ref: input length mismatch");
    assert_eq!(
        col.len(),
        b * o * o * patch,
        "im2col_ref: output length mismatch"
    );
    for (out, image) in col.chunks_mut(o * o * patch).zip(x.chunks(img)) {
        for oy in 0..o {
            for ox in 0..o {
                let row = (oy * o + ox) * patch;
                for ky in 0..k {
                    let src = (oy + ky) * side + ox;
                    let dst = row + ky * k;
                    out[dst..dst + k].copy_from_slice(&image[src..src + k]);
                }
            }
        }
    }
}

/// Scalar non-overlapping max pooling: one output at a time, image
/// outermost, the window walked row by row with a branch per element. Same
/// contract as [`crate::conv::maxpool2d_forward`] (channel-major `act`,
/// each image's channel one `oh x oh` plane): each window is seeded with its
/// first element and a later element wins only if it is strictly greater,
/// so ties keep the earliest and a window whose first element is NaN stays
/// NaN, with that element's index.
pub fn maxpool2d_forward_ref(
    act: &[f32],
    b: usize,
    oh: usize,
    c: usize,
    pool: usize,
    out: &mut [f32],
    idx: &mut [f32],
) {
    assert!(
        pool >= 1 && oh.is_multiple_of(pool),
        "maxpool_ref: {oh} not divisible by {pool}"
    );
    let ph = oh / pool;
    let (plane, out_row) = (oh * oh, c * ph * ph);
    assert_eq!(
        act.len(),
        b * c * plane,
        "maxpool_ref: input length mismatch"
    );
    assert_eq!(
        out.len(),
        b * out_row,
        "maxpool_ref: output length mismatch"
    );
    assert_eq!(idx.len(), b * out_row, "maxpool_ref: index length mismatch");
    assert!(
        act.len() <= crate::conv::MAX_EXACT_F32_INDEX,
        "maxpool_ref: activation index {} exceeds exact f32 range",
        act.len()
    );
    for bi in 0..b {
        for ch in 0..c {
            let base = (ch * b + bi) * plane;
            for py in 0..ph {
                for px in 0..ph {
                    let first = base + py * pool * oh + px * pool;
                    let (mut best, mut best_at) = (act[first], first);
                    for wy in 0..pool {
                        for wx in 0..pool {
                            let flat = base + (py * pool + wy) * oh + px * pool + wx;
                            if act[flat] > best {
                                best = act[flat];
                                best_at = flat;
                            }
                        }
                    }
                    let o = bi * out_row + ch * ph * ph + py * ph + px;
                    out[o] = best;
                    idx[o] = crate::conv::index_f32(best_at);
                }
            }
        }
    }
}

/// Scalar backward of [`maxpool2d_forward_ref`]: zero-fills `dconv`, then
/// writes each pooled delta at its argmax, which must lie in the delta's
/// own plane. Same contract as [`crate::conv::maxpool2d_backward`].
pub fn maxpool2d_backward_ref(
    dpool: &[f32],
    idx: &[f32],
    b: usize,
    oh: usize,
    c: usize,
    pool: usize,
    dconv: &mut [f32],
) {
    assert!(
        pool >= 1 && oh.is_multiple_of(pool),
        "unpool_ref: {oh} not divisible by {pool}"
    );
    let (plane, out_plane) = (oh * oh, (oh / pool) * (oh / pool));
    assert_eq!(
        dpool.len(),
        b * c * out_plane,
        "unpool_ref: delta length mismatch"
    );
    assert_eq!(
        idx.len(),
        b * c * out_plane,
        "unpool_ref: index length mismatch"
    );
    assert_eq!(
        dconv.len(),
        b * c * plane,
        "unpool_ref: output length mismatch"
    );
    dconv.fill(0.0);
    for bi in 0..b {
        for ch in 0..c {
            let base = (ch * b + bi) * plane;
            let o = (bi * c + ch) * out_plane;
            for (v, at) in dpool[o..o + out_plane].iter().zip(&idx[o..o + out_plane]) {
                let flat = *at as usize;
                assert!(
                    flat >= base && flat < base + plane,
                    "unpool_ref: index {flat} escapes plane {}",
                    ch * b + bi
                );
                dconv[flat] = *v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micdnn_tensor::Mat;

    #[test]
    fn gemm_ref_identity() {
        let a = Mat::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let i = Mat::eye(3);
        let mut c = Mat::zeros(3, 3);
        gemm_ref(
            1.0,
            a.view(),
            false,
            i.view(),
            false,
            0.0,
            &mut c.view_mut(),
        );
        assert_eq!(c, a);
    }

    #[test]
    fn gemm_ref_known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Mat::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let mut c = Mat::zeros(2, 2);
        gemm_ref(
            1.0,
            a.view(),
            false,
            b.view(),
            false,
            0.0,
            &mut c.view_mut(),
        );
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_ref_transposes() {
        let a = Mat::from_fn(4, 3, |r, c| (r + c) as f32);
        let b = Mat::from_fn(4, 5, |r, c| (r * c) as f32);
        // C = A^T * B : (3x4)*(4x5) = 3x5
        let mut c = Mat::zeros(3, 5);
        gemm_ref(1.0, a.view(), true, b.view(), false, 0.0, &mut c.view_mut());
        let at = a.transposed();
        let mut expect = Mat::zeros(3, 5);
        gemm_ref(
            1.0,
            at.view(),
            false,
            b.view(),
            false,
            0.0,
            &mut expect.view_mut(),
        );
        assert_eq!(c, expect);

        // C = A^T * B^T would mismatch dims; use B: 5x4 instead.
        let b2 = Mat::from_fn(5, 4, |r, c| (r * 2 + c) as f32);
        let mut c2 = Mat::zeros(3, 5);
        gemm_ref(
            1.0,
            a.view(),
            true,
            b2.view(),
            true,
            0.0,
            &mut c2.view_mut(),
        );
        let b2t = b2.transposed();
        let mut expect2 = Mat::zeros(3, 5);
        gemm_ref(
            1.0,
            at.view(),
            false,
            b2t.view(),
            false,
            0.0,
            &mut expect2.view_mut(),
        );
        assert_eq!(c2, expect2);
    }

    #[test]
    fn gemm_ref_alpha_beta() {
        let a = Mat::eye(2);
        let b = Mat::full(2, 2, 1.0);
        let mut c = Mat::full(2, 2, 10.0);
        gemm_ref(
            2.0,
            a.view(),
            false,
            b.view(),
            false,
            0.5,
            &mut c.view_mut(),
        );
        // alpha*I*ones + 0.5*10 = 2 + 5 = 7 everywhere
        assert!(c.as_slice().iter().all(|&x| x == 7.0));
    }

    #[test]
    fn colsum_ref_basic() {
        let a = Mat::from_fn(3, 2, |r, c| (r + c) as f32);
        let mut out = [0.0f32; 2];
        colsum_ref(a.view(), &mut out);
        assert_eq!(out, [3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_ref_shape_checked() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(4, 2);
        let mut c = Mat::zeros(2, 2);
        gemm_ref(
            1.0,
            a.view(),
            false,
            b.view(),
            false,
            0.0,
            &mut c.view_mut(),
        );
    }
}
