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
/// `m x n`.
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
            let prev = c.as_slice()[i * n + j];
            c.as_mut_slice()[i * n + j] = alpha * acc + beta * prev;
        }
    }
}

/// Scalar sigmoid over a slice (no chunking, no vector hints).
pub fn sigmoid_ref(y: &mut [f32]) {
    for v in y {
        let x = v.clamp(-30.0, 30.0);
        *v = 1.0 / (1.0 + (-x).exp());
    }
}

/// Scalar axpy.
pub fn axpy_ref(alpha: f32, x: &[f32], y: &mut [f32]) {
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
