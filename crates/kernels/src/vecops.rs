//! SIMD-friendly elementwise slice kernels.
//!
//! These are the "vectorized" rung of the paper's optimization ladder: each
//! loop is written over fixed-width chunks with independent lanes so that
//! LLVM's autovectorizer emits wide vector code (the analog of the Phi's
//! 512-bit VPU instructions the paper hand-vectorizes with pragmas).
//!
//! Every kernel has a scalar-equivalent definition, and the parallel
//! variants split work by disjoint chunks, so results are bitwise identical
//! across `Par::Seq` and `Par::Rayon`.

use crate::{Par, PAR_THRESHOLD};
use rayon::prelude::*;

/// Lane count the chunked loops are written for (16 f32 = one 512-bit
/// register, matching the Phi's VPU width).
pub const LANES: usize = 16;

macro_rules! par_zip2 {
    ($par:expr, $y:expr, $x:expr, $chunk_body:expr) => {{
        let body = $chunk_body;
        if $par.is_parallel() && $y.len() >= PAR_THRESHOLD {
            $y.par_chunks_mut(PAR_THRESHOLD)
                .zip($x.par_chunks(PAR_THRESHOLD))
                .for_each(|(yc, xc)| body(yc, xc));
        } else {
            body($y, $x);
        }
    }};
}

macro_rules! par_map1 {
    ($par:expr, $y:expr, $chunk_body:expr) => {{
        let body = $chunk_body;
        if $par.is_parallel() && $y.len() >= PAR_THRESHOLD {
            $y.par_chunks_mut(PAR_THRESHOLD).for_each(|yc| body(yc));
        } else {
            body($y);
        }
    }};
}

/// `y += alpha * x`.
pub fn axpy(par: Par, alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    par_zip2!(par, y, x, |yc: &mut [f32], xc: &[f32]| {
        axpy_chunk(alpha, xc, yc)
    });
}

#[inline]
pub(crate) fn axpy_chunk(alpha: f32, x: &[f32], y: &mut [f32]) {
    let n = y.len();
    let (yv, yt) = y.split_at_mut(n - n % LANES);
    let (xv, xt) = x.split_at(n - n % LANES);
    for (yc, xc) in yv.chunks_exact_mut(LANES).zip(xv.chunks_exact(LANES)) {
        for l in 0..LANES {
            yc[l] += alpha * xc[l];
        }
    }
    for (yy, xx) in yt.iter_mut().zip(xt) {
        *yy += alpha * *xx;
    }
}

/// Fixed-order gradient merge: `out[i] = ((parts[0][i] + parts[1][i]) +
/// parts[2][i]) + ...`, left-folded in part order for every element.
///
/// This is the reduction step of multi-device data-parallel training: each
/// part is one canonical microblock's partial gradient, and the left-fold
/// order is pinned so the merged gradient is bitwise independent of how
/// many devices computed the parts. The first part is *copied* (not added
/// to a zeroed buffer) so `0.0 + -0.0` cannot flip a sign bit. Per-element
/// independence makes the result identical across `Par::Seq` and
/// `Par::Rayon`, and identical to a `copy` followed by sequential
/// `axpy(1.0, ..)` sweeps in part order.
pub fn block_merge(par: Par, parts: &[&[f32]], out: &mut [f32]) {
    let Some((first, rest)) = parts.split_first() else {
        out.fill(0.0);
        return;
    };
    for (k, p) in parts.iter().enumerate() {
        assert_eq!(p.len(), out.len(), "block_merge: part {k} length mismatch");
    }
    let body = |oc: &mut [f32], base: usize| {
        oc.copy_from_slice(&first[base..base + oc.len()]);
        for p in rest {
            axpy_chunk(1.0, &p[base..base + oc.len()], oc);
        }
    };
    if par.is_parallel() && out.len() >= PAR_THRESHOLD {
        out.par_chunks_mut(PAR_THRESHOLD)
            .enumerate()
            .for_each(|(ci, oc)| body(oc, ci * PAR_THRESHOLD));
    } else {
        body(out, 0);
    }
}

/// `y *= alpha`.
pub fn scale(par: Par, alpha: f32, y: &mut [f32]) {
    par_map1!(par, y, |yc: &mut [f32]| {
        for v in yc {
            *v *= alpha;
        }
    });
}

/// `y = x` (copy).
pub fn copy(par: Par, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "copy: length mismatch");
    par_zip2!(par, y, x, |yc: &mut [f32], xc: &[f32]| {
        yc.copy_from_slice(xc)
    });
}

/// `out = a - b`, writing into `out`.
pub fn sub(par: Par, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    assert_eq!(a.len(), out.len(), "sub: out length mismatch");
    if par.is_parallel() && out.len() >= PAR_THRESHOLD {
        out.par_chunks_mut(PAR_THRESHOLD)
            .zip(a.par_chunks(PAR_THRESHOLD).zip(b.par_chunks(PAR_THRESHOLD)))
            .for_each(|(oc, (ac, bc))| {
                for i in 0..oc.len() {
                    oc[i] = ac[i] - bc[i];
                }
            });
    } else {
        for i in 0..out.len() {
            out[i] = a[i] - b[i];
        }
    }
}

/// Logistic sigmoid applied in place: `y = 1 / (1 + exp(-y))`.
pub fn sigmoid_inplace(par: Par, y: &mut [f32]) {
    par_map1!(par, y, |yc: &mut [f32]| sigmoid_chunk(yc));
}

#[inline]
pub(crate) fn sigmoid_chunk(y: &mut [f32]) {
    for v in y {
        *v = sigmoid_scalar(*v);
    }
}

/// Scalar logistic sigmoid, clamped so `exp` never overflows.
#[inline]
pub fn sigmoid_scalar(x: f32) -> f32 {
    let x = x.clamp(-30.0, 30.0);
    1.0 / (1.0 + (-x).exp())
}

/// Derivative of sigmoid expressed through its output: `g = y * (1 - y)`,
/// multiplied into `delta` in place (`delta *= y * (1 - y)`).
pub fn sigmoid_backprop_assign(par: Par, y: &[f32], delta: &mut [f32]) {
    assert_eq!(y.len(), delta.len(), "sigmoid_backprop: length mismatch");
    par_zip2!(par, delta, y, |dc: &mut [f32], yc: &[f32]| {
        for i in 0..dc.len() {
            dc[i] *= yc[i] * (1.0 - yc[i]);
        }
    });
}

/// Dot product with f64 accumulation.
///
/// Deterministic across `Par::Seq` and `Par::Rayon`: both paths reduce over
/// the same fixed `PAR_THRESHOLD`-sized chunks and combine the partials in
/// chunk order (rayon's tree-`sum` order is unspecified, so the parallel
/// path collects ordered partials instead).
pub fn dot(par: Par, x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    if par.is_parallel() && x.len() >= PAR_THRESHOLD {
        let partials: Vec<f64> = x
            .par_chunks(PAR_THRESHOLD)
            .zip(y.par_chunks(PAR_THRESHOLD))
            .map(|(xc, yc)| dot_chunk(xc, yc))
            .collect();
        partials.iter().sum()
    } else {
        x.chunks(PAR_THRESHOLD)
            .zip(y.chunks(PAR_THRESHOLD))
            .map(|(xc, yc)| dot_chunk(xc, yc))
            .sum()
    }
}

#[inline]
fn dot_chunk(x: &[f32], y: &[f32]) -> f64 {
    // 8 independent partial sums keep the FP dependency chain short enough
    // for the autovectorizer while staying deterministic.
    let mut acc = [0.0f64; 8];
    let n = x.len() - x.len() % 8;
    for (xc, yc) in x[..n].chunks_exact(8).zip(y[..n].chunks_exact(8)) {
        for l in 0..8 {
            acc[l] += (xc[l] * yc[l]) as f64;
        }
    }
    let mut tail = 0.0f64;
    for i in n..x.len() {
        tail += (x[i] * y[i]) as f64;
    }
    acc.iter().sum::<f64>() + tail
}

/// Sum of squares with f64 accumulation.
pub fn sum_sq(par: Par, x: &[f32]) -> f64 {
    dot(par, x, x)
}

/// Sum of elements with f64 accumulation (deterministic chunking).
pub fn sum(par: Par, x: &[f32]) -> f64 {
    if par.is_parallel() && x.len() >= PAR_THRESHOLD {
        let partials: Vec<f64> = x.par_chunks(PAR_THRESHOLD).map(sum_chunk).collect();
        partials.iter().sum()
    } else {
        x.chunks(PAR_THRESHOLD).map(sum_chunk).sum()
    }
}

#[inline]
fn sum_chunk(x: &[f32]) -> f64 {
    let mut acc = [0.0f64; 8];
    let n = x.len() - x.len() % 8;
    for xc in x[..n].chunks_exact(8) {
        for l in 0..8 {
            acc[l] += xc[l] as f64;
        }
    }
    acc.iter().sum::<f64>() + x[n..].iter().map(|&v| v as f64).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_and_par(f: impl Fn(Par)) {
        f(Par::Seq);
        f(Par::Rayon);
    }

    #[test]
    fn axpy_matches_definition() {
        seq_and_par(|p| {
            let x: Vec<f32> = (0..1000).map(|i| i as f32).collect();
            let mut y = vec![1.0f32; 1000];
            axpy(p, 0.5, &x, &mut y);
            for (i, &v) in y.iter().enumerate() {
                assert_eq!(v, 1.0 + 0.5 * i as f32);
            }
        });
    }

    #[test]
    fn par_and_seq_bitwise_equal_large() {
        let x: Vec<f32> = (0..100_000).map(|i| (i as f32).sin()).collect();
        let mut y1 = vec![0.25f32; x.len()];
        let mut y2 = y1.clone();
        axpy(Par::Seq, 1.5, &x, &mut y1);
        axpy(Par::Rayon, 1.5, &x, &mut y2);
        assert_eq!(y1, y2);

        let d1 = dot(Par::Seq, &x, &y1);
        let d2 = dot(Par::Rayon, &x, &y2);
        assert_eq!(d1, d2, "dot must be chunk-deterministic");
    }

    #[test]
    fn block_merge_matches_copy_plus_axpy_bitwise() {
        let parts: Vec<Vec<f32>> = (0..5)
            .map(|k| {
                (0..10_000)
                    .map(|i| ((i * 37 + k * 101) as f32).sin() * 0.1)
                    .collect()
            })
            .collect();
        let views: Vec<&[f32]> = parts.iter().map(|p| p.as_slice()).collect();

        // Reference: copy first, then sequential axpy sweeps in part order.
        let mut reference = parts[0].clone();
        for p in &parts[1..] {
            axpy(Par::Seq, 1.0, p, &mut reference);
        }

        for par in [Par::Seq, Par::Rayon] {
            let mut out = vec![f32::NAN; parts[0].len()];
            block_merge(par, &views, &mut out);
            assert_eq!(out, reference, "fold order must be pinned ({par:?})");
        }
    }

    #[test]
    fn block_merge_degenerate_part_counts() {
        let a = vec![1.5f32, -0.0, 2.0];
        let mut out = vec![9.0f32; 3];
        block_merge(Par::Seq, &[&a], &mut out);
        // Single part: exact copy, sign bits preserved (no 0.0 + -0.0).
        assert_eq!(out[1].to_bits(), (-0.0f32).to_bits());
        block_merge(Par::Seq, &[], &mut out);
        assert_eq!(out, vec![0.0; 3]);
    }

    #[test]
    fn sigmoid_properties() {
        let mut v: Vec<f32> = vec![-1000.0, -5.0, 0.0, 5.0, 1000.0];
        sigmoid_inplace(Par::Seq, &mut v);
        assert!(v[0] >= 0.0 && v[0] < 1e-6);
        assert_eq!(v[2], 0.5);
        assert!(v[4] <= 1.0 && v[4] > 1.0 - 1e-6);
        assert!(v.windows(2).all(|w| w[0] <= w[1]), "monotone");
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn sigmoid_symmetry() {
        for x in [-3.0f32, -0.7, 0.0, 0.7, 3.0] {
            let s = sigmoid_scalar(x) + sigmoid_scalar(-x);
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_backprop_matches_formula() {
        let y = vec![0.2f32, 0.5, 0.9];
        let mut d = vec![2.0f32; 3];
        sigmoid_backprop_assign(Par::Seq, &y, &mut d);
        assert!((d[0] - 2.0 * 0.2 * 0.8).abs() < 1e-6);
        assert!((d[1] - 2.0 * 0.25).abs() < 1e-6);
        assert!((d[2] - 2.0 * 0.9 * 0.1).abs() < 1e-6);
    }

    #[test]
    fn sub_and_hadamard() {
        let a = vec![3.0f32, 4.0, 5.0];
        let b = vec![1.0f32, 1.0, 2.0];
        let mut out = vec![0.0f32; 3];
        sub(Par::Seq, &a, &b, &mut out);
        assert_eq!(out, vec![2.0, 3.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let x: Vec<f32> = (1..=100).map(|i| i as f32).collect();
        assert_eq!(sum(Par::Seq, &x), 5050.0);
        assert_eq!(sum(Par::Rayon, &x), 5050.0);
        assert_eq!(sum_sq(Par::Seq, &[3.0, 4.0]), 25.0);
        assert_eq!(dot(Par::Seq, &[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn scale_and_copy() {
        let mut y = vec![2.0f32; 10];
        scale(Par::Seq, 0.5, &mut y);
        assert!(y.iter().all(|&v| v == 1.0));
        let x: Vec<f32> = (0..10).map(|i| i as f32).collect();
        copy(Par::Seq, &x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_len_checked() {
        axpy(Par::Seq, 1.0, &[1.0], &mut [1.0, 2.0]);
    }
}
