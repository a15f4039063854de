//! Fused kernels — the paper's "improved OpenMP+MKL" rung.
//!
//! §IV.B.2 of the paper finds that parallelizing each small loop separately
//! is ineffective ("the loop body is relatively small and the time cost in
//! synchronization accounts most of the total time") and that combining
//! several loops makes the granularity suitable for the platform. These
//! kernels are those combined loops: each replaces two or three separate
//! sweeps (and their barriers) with a single pass.
//!
//! The fused sigmoid, [`bias_sigmoid_rows`], runs one `#[inline(always)]`
//! body in the portable, AVX2 and AVX-512 instantiations of the crate's
//! `isa` module, picked by the same detection as the GEMM, one call per
//! task's block of rows. The body adds the bias row by row, then runs the
//! sigmoid (with the crate's own `expf`, see `vecops`) over the whole block
//! as one flat slice, so that rows narrower than a vector (the CNN's eight
//! channels) still fill it. The value it stores before the sigmoid is the
//! `v + b` the one-expression form fed to it, so the bits are the same.
//! [`bias_sigmoid_planes`] is the same body for the CNN's channel-major
//! activations, whose row `r` (channel `r`'s planes) takes `bias[r]`.

use crate::isa::{per_isa, Isa};
use crate::{Par, PAR_THRESHOLD};
use micdnn_tensor::{MatView, MatViewMut};
use rayon::prelude::*;

/// Adds `bias` to every row of `c` (two-pass rung uses this followed by a
/// separate sigmoid sweep).
pub(crate) fn add_bias_rows(par: Par, bias: &[f32], c: &mut MatViewMut<'_>) {
    assert_eq!(bias.len(), c.cols(), "add_bias_rows: bias length mismatch");
    run_rows(par, c, bias.len(), |_, rows| add_bias_chunk(bias, rows));
}

/// Fused `c = sigmoid(c + bias)` per row — one sweep, one barrier.
pub(crate) fn bias_sigmoid_rows(par: Par, bias: &[f32], c: &mut MatViewMut<'_>) {
    bias_sigmoid_rows_on(Isa::detect(), par, bias, c);
}

/// [`bias_sigmoid_rows`] on the `isa` instantiation.
fn bias_sigmoid_rows_on(isa: Isa, par: Par, bias: &[f32], c: &mut MatViewMut<'_>) {
    assert_eq!(
        bias.len(),
        c.cols(),
        "bias_sigmoid_rows: bias length mismatch"
    );
    run_rows(par, c, bias.len(), |_, rows| {
        bias_sigmoid_on(isa, bias, rows)
    });
}

per_isa! {
    /// [`bias_sigmoid_chunk`] as compiled for `isa`.
    fn bias_sigmoid_on(bias: &[f32], rows: &mut [f32]) = bias_sigmoid_chunk;
}

/// `rows += bias` per row, then the sigmoid over the whole block.
#[inline(always)]
fn bias_sigmoid_chunk(bias: &[f32], rows: &mut [f32]) {
    add_bias_chunk(bias, rows);
    crate::vecops::sigmoid_chunk(rows);
}

/// `row += bias` for each `bias.len()`-wide row of `rows`.
#[inline(always)]
fn add_bias_chunk(bias: &[f32], rows: &mut [f32]) {
    for row in rows.chunks_exact_mut(bias.len()) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Adds `bias[r]` to every element of row `r` of `c`: the CNN's
/// channel-major activations, whose row `r` is channel `r`'s planes.
pub(crate) fn add_bias_planes(par: Par, bias: &[f32], c: &mut MatViewMut<'_>) {
    assert_eq!(bias.len(), c.shape().0, "bias_planes: bias length mismatch");
    let n = c.cols();
    run_rows(par, c, 1, |start, block| {
        add_bias_planes_chunk(bias, n, start, block)
    });
}

/// Fused `c = sigmoid(c + bias[r])` on each row `r` of `c`: the bits of
/// [`bias_sigmoid_rows`] on the transpose, one sweep.
pub(crate) fn bias_sigmoid_planes(par: Par, bias: &[f32], c: &mut MatViewMut<'_>) {
    bias_sigmoid_planes_on(Isa::detect(), par, bias, c);
}

/// [`bias_sigmoid_planes`] on the `isa` instantiation.
fn bias_sigmoid_planes_on(isa: Isa, par: Par, bias: &[f32], c: &mut MatViewMut<'_>) {
    assert_eq!(bias.len(), c.shape().0, "bias_planes: bias length mismatch");
    let n = c.cols();
    run_rows(par, c, 1, |start, block| {
        bias_planes_sigmoid_on(isa, bias, n, start, block)
    });
}

per_isa! {
    /// [`bias_planes_sigmoid_chunk`] as compiled for `isa`.
    fn bias_planes_sigmoid_on(
        bias: &[f32],
        n: usize,
        start: usize,
        block: &mut [f32],
    ) = bias_planes_sigmoid_chunk;
}

/// The block's bias added plane by plane, then the sigmoid over the whole
/// block.
#[inline(always)]
fn bias_planes_sigmoid_chunk(bias: &[f32], n: usize, start: usize, block: &mut [f32]) {
    add_bias_planes_chunk(bias, n, start, block);
    crate::vecops::sigmoid_chunk(block);
}

/// `v += bias[r]` for each element `v` of a block that starts at element
/// `start` of a matrix of rows `n` wide, `r` being the element's row.
#[inline(always)]
fn add_bias_planes_chunk(bias: &[f32], n: usize, start: usize, block: &mut [f32]) {
    let (mut rest, mut at) = (block, start);
    while !rest.is_empty() {
        let (seg, tail) = rest.split_at_mut((n - at % n).min(rest.len()));
        let b = bias[at / n];
        for v in seg.iter_mut() {
            *v += b;
        }
        at += seg.len();
        rest = tail;
    }
}

/// Fused output-layer delta of the autoencoder:
/// `out[i] = (z[i] - x[i]) * z[i] * (1 - z[i])`.
///
/// Replaces a subtraction sweep plus a sigmoid-derivative sweep.
pub(crate) fn delta_output(par: Par, z: &[f32], x: &[f32], out: &mut [f32]) {
    assert_eq!(z.len(), x.len(), "delta_output: length mismatch");
    assert_eq!(z.len(), out.len(), "delta_output: out length mismatch");
    let body = |zc: &[f32], xc: &[f32], oc: &mut [f32]| {
        for i in 0..oc.len() {
            oc[i] = (zc[i] - xc[i]) * zc[i] * (1.0 - zc[i]);
        }
    };
    if par.is_parallel() && out.len() >= PAR_THRESHOLD {
        out.par_chunks_mut(PAR_THRESHOLD)
            .zip(z.par_chunks(PAR_THRESHOLD).zip(x.par_chunks(PAR_THRESHOLD)))
            .for_each(|(oc, (zc, xc))| body(zc, xc, oc));
    } else {
        body(z, x, out);
    }
}

/// Fused hidden-layer delta of the sparse autoencoder: per row
/// `delta = (delta + s) ⊙ y ⊙ (1 - y)` where `s` is the per-unit sparsity
/// term (paper eq. 5's backprop contribution).
///
/// Replaces a bias-style row addition plus a derivative sweep.
pub(crate) fn bias_deriv_rows(par: Par, s: &[f32], y: MatView<'_>, delta: &mut MatViewMut<'_>) {
    assert_eq!(s.len(), delta.cols(), "bias_deriv_rows: s length mismatch");
    assert_eq!(y.shape(), delta.shape(), "bias_deriv_rows: shape mismatch");
    let cols = delta.cols();
    if cols == 0 {
        return;
    }
    let y_slice = y.as_slice();
    let rows_per_task = (PAR_THRESHOLD / cols).max(1);
    let body = |offset_rows: usize, dc: &mut [f32]| {
        let y0 = offset_rows * cols;
        for (r, drow) in dc.chunks_exact_mut(cols).enumerate() {
            let yrow = &y_slice[y0 + r * cols..y0 + (r + 1) * cols];
            for i in 0..cols {
                drow[i] = (drow[i] + s[i]) * yrow[i] * (1.0 - yrow[i]);
            }
        }
    };
    let slice = delta.as_mut_slice();
    if par.is_parallel() && slice.len() >= PAR_THRESHOLD {
        slice
            .par_chunks_mut(rows_per_task * cols)
            .enumerate()
            .for_each(|(ci, dc)| body(ci * rows_per_task, dc));
    } else {
        body(0, slice);
    }
}

/// Fused SGD step with L2 weight decay:
/// `w = (1 - lr*lambda) * w - lr * g` in a single sweep.
pub(crate) fn sgd_step(par: Par, lr: f32, lambda: f32, g: &[f32], w: &mut [f32]) {
    assert_eq!(g.len(), w.len(), "sgd_step: length mismatch");
    let shrink = sgd_shrink(lr, lambda);
    let body = |wc: &mut [f32], gc: &[f32]| {
        for i in 0..wc.len() {
            wc[i] = shrink * wc[i] - lr * gc[i];
        }
    };
    if par.is_parallel() && w.len() >= PAR_THRESHOLD {
        w.par_chunks_mut(PAR_THRESHOLD)
            .zip(g.par_chunks(PAR_THRESHOLD))
            .for_each(|(wc, gc)| body(wc, gc));
    } else {
        body(w, g);
    }
}

/// The weight decay factor `1 - lr * lambda` of [`sgd_step`].
pub(crate) fn sgd_shrink(lr: f32, lambda: f32) -> f32 {
    1.0 - lr * lambda
}

/// Fused contrastive-divergence update:
/// `w += scale * (pos - neg)` in a single sweep (paper eq. 13).
pub(crate) fn cd_update(par: Par, scale: f32, pos: &[f32], neg: &[f32], w: &mut [f32]) {
    assert_eq!(pos.len(), w.len(), "cd_update: pos length mismatch");
    assert_eq!(neg.len(), w.len(), "cd_update: neg length mismatch");
    let body = |wc: &mut [f32], pc: &[f32], nc: &[f32]| {
        for i in 0..wc.len() {
            wc[i] += scale * (pc[i] - nc[i]);
        }
    };
    if par.is_parallel() && w.len() >= PAR_THRESHOLD {
        w.par_chunks_mut(PAR_THRESHOLD)
            .zip(
                pos.par_chunks(PAR_THRESHOLD)
                    .zip(neg.par_chunks(PAR_THRESHOLD)),
            )
            .for_each(|(wc, (pc, nc))| body(wc, pc, nc));
    } else {
        body(w, pos, neg);
    }
}

/// Sparsity penalty of the sparse autoencoder (paper eqs. 5–6).
///
/// Given per-hidden-unit mean activations `rho_hat`, writes the backprop
/// term `beta * (-rho/rho_hat + (1-rho)/(1-rho_hat))` into `delta_term` and
/// returns the total KL divergence `sum_i KL(rho || rho_hat_i)`.
///
/// Activations are clamped away from {0, 1} so the penalty stays finite
/// even for dead or saturated units.
pub fn kl_sparsity(rho: f32, beta: f32, rho_hat: &[f32], delta_term: &mut [f32]) -> f64 {
    assert_eq!(
        rho_hat.len(),
        delta_term.len(),
        "kl_sparsity: length mismatch"
    );
    assert!(
        (0.0..1.0).contains(&rho) && rho > 0.0,
        "rho must be in (0,1)"
    );
    const EPS: f32 = 1e-6;
    let mut kl = 0.0f64;
    for (d, &rh) in delta_term.iter_mut().zip(rho_hat) {
        let rh = rh.clamp(EPS, 1.0 - EPS);
        kl += (rho as f64) * ((rho / rh) as f64).ln()
            + ((1.0 - rho) as f64) * (((1.0 - rho) / (1.0 - rh)) as f64).ln();
        *d = beta * (-rho / rh + (1.0 - rho) / (1.0 - rh));
    }
    kl
}

/// Runs `body(start, block)` over `c`'s elements, `start` being the index
/// of the block's first element: in one block, or, when `par` asks and `c`
/// holds at least `PAR_THRESHOLD` elements, in blocks of whole `unit`s, at
/// most `PAR_THRESHOLD` elements each (or one `unit`), side by side.
fn run_rows(
    par: Par,
    c: &mut MatViewMut<'_>,
    unit: usize,
    body: impl Fn(usize, &mut [f32]) + Sync,
) {
    let slice = c.as_mut_slice();
    if unit == 0 || slice.is_empty() {
        return;
    }
    if par.is_parallel() && slice.len() >= PAR_THRESHOLD {
        let len = (PAR_THRESHOLD / unit).max(1) * unit;
        fork_blocks(0, slice, len, &body);
    } else {
        body(0, slice);
    }
}

/// `body(start, block)` on the two halves of `block` side by side, cut at a
/// multiple of `len` past `start`, and so on down to blocks of at most
/// `len`: a tree of `rayon::join`s, which carries each block's start
/// without an enumerated list of blocks to allocate.
fn fork_blocks(
    start: usize,
    block: &mut [f32],
    len: usize,
    body: &(impl Fn(usize, &mut [f32]) + Sync),
) {
    if block.len() <= len {
        return body(start, block);
    }
    let mid = (block.len() / 2).next_multiple_of(len);
    let (lo, hi) = block.split_at_mut(mid);
    rayon::join(
        || fork_blocks(start, lo, len, body),
        || fork_blocks(start + mid, hi, len, body),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::tests::instantiations;
    use crate::vecops::tests::mixed_values;
    use micdnn_tensor::Mat;

    #[test]
    fn bias_sigmoid_instantiations_bitwise_equal_to_portable() {
        // Every row width from 1 to one past the vector width, at row
        // counts on both sides of the fork threshold. The reference is the
        // one-expression form `sigmoid(v + b)` per element, which the
        // kernel computed before it stored `v + b` and swept the block.
        // Where `v` and `b` are both NaN, IEEE 754 leaves open which payload
        // the sum carries (and LLVM may swap the operands of an add), so
        // there the result need only be a NaN.
        let same = |want: &[f32], got: &[f32], src: &[f32], bias: &[f32]| {
            want.iter().zip(got).enumerate().all(|(i, (w, g))| {
                if src[i].is_nan() && bias[i % bias.len()].is_nan() {
                    g.is_nan()
                } else {
                    w.to_bits() == g.to_bits()
                }
            })
        };
        let isas = instantiations("bias_sigmoid_instantiations_bitwise_equal_to_portable");
        for cols in 1..=17 {
            let bias = mixed_values(cols, 3);
            let over = PAR_THRESHOLD.div_ceil(cols);
            for rows in [0, 1, 3, over - 1, over + 1, 2 * over + 1] {
                let src = Mat::from_vec(rows, cols, mixed_values(rows * cols, 4)).unwrap();
                let mut expected = src.clone();
                for row in expected.as_mut_slice().chunks_exact_mut(cols) {
                    for (v, &b) in row.iter_mut().zip(&bias) {
                        *v = crate::vecops::sigmoid_scalar(*v + b);
                    }
                }
                for &isa in &isas {
                    for par in [Par::Seq, Par::Rayon] {
                        let mut c = src.clone();
                        bias_sigmoid_rows_on(isa, par, &bias, &mut c.view_mut());
                        assert!(
                            same(expected.as_slice(), c.as_slice(), src.as_slice(), &bias),
                            "{isa:?} {par:?} at {rows}x{cols}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bias_sigmoid_planes_are_rows_of_the_transpose_on_all_instantiations() {
        // The CNN's channel-major activations: `rows` channels of `cols`
        // pixels, each channel's bias added to its plane, against the NHWC
        // transpose through `bias_sigmoid_rows`, at plane widths that put
        // the fork's block boundaries mid-plane. As there, a NaN value with
        // a NaN bias need only give a NaN.
        let isas =
            instantiations("bias_sigmoid_planes_are_rows_of_the_transpose_on_all_instantiations");
        for rows in [1, 6, 8, 13] {
            let bias = mixed_values(rows, 5);
            for cols in [1, 17, PAR_THRESHOLD / 3 + 1] {
                let src = Mat::from_vec(rows, cols, mixed_values(rows * cols, 6)).unwrap();
                let nan = |r: usize, c: usize| src.row(r)[c].is_nan() && bias[r].is_nan();
                for &isa in &isas {
                    for par in [Par::Seq, Par::Rayon] {
                        let mut want = src.transposed();
                        bias_sigmoid_rows_on(isa, par, &bias, &mut want.view_mut());
                        let mut got = src.clone();
                        bias_sigmoid_planes_on(isa, par, &bias, &mut got.view_mut());
                        for (r, c) in (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))) {
                            let (w, g) = (want.row(c)[r], got.row(r)[c]);
                            assert!(
                                if nan(r, c) {
                                    g.is_nan()
                                } else {
                                    w.to_bits() == g.to_bits()
                                },
                                "{isa:?} {par:?} {rows}x{cols} at ({r}, {c})"
                            );
                        }
                    }
                }
                let (mut two, mut fused) = (src.clone(), src.clone());
                add_bias_planes(Par::Rayon, &bias, &mut two.view_mut());
                crate::vecops::sigmoid_inplace(Par::Rayon, two.as_mut_slice());
                bias_sigmoid_planes(Par::Rayon, &bias, &mut fused.view_mut());
                for (r, c) in (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))) {
                    let (w, g) = (two.row(r)[c], fused.row(r)[c]);
                    assert!(
                        if nan(r, c) {
                            g.is_nan()
                        } else {
                            w.to_bits() == g.to_bits()
                        },
                        "two passes {rows}x{cols} at ({r}, {c})"
                    );
                }
            }
        }
    }

    #[test]
    fn bias_rows_added() {
        let mut c = Mat::zeros(3, 2);
        add_bias_rows(Par::Seq, &[1.0, -2.0], &mut c.view_mut());
        for r in 0..3 {
            assert_eq!(c.row(r), &[1.0, -2.0]);
        }
    }

    #[test]
    fn fused_bias_sigmoid_equals_two_pass() {
        let src = Mat::from_fn(50, 30, |r, c| ((r * 31 + c) as f32).sin());
        let bias: Vec<f32> = (0..30).map(|i| (i as f32 / 7.0).cos()).collect();

        let mut fused = src.clone();
        bias_sigmoid_rows(Par::Seq, &bias, &mut fused.view_mut());

        let mut two = src.clone();
        add_bias_rows(Par::Seq, &bias, &mut two.view_mut());
        crate::vecops::sigmoid_inplace(Par::Seq, two.as_mut_slice());

        assert_eq!(fused.as_slice(), two.as_slice(), "fusion changed the math");
    }

    #[test]
    fn fused_parallel_deterministic() {
        let src = Mat::from_fn(200, 300, |r, c| ((r + c) as f32 * 0.01) - 3.0);
        let bias = vec![0.5f32; 300];
        let mut a = src.clone();
        let mut b = src.clone();
        bias_sigmoid_rows(Par::Seq, &bias, &mut a.view_mut());
        bias_sigmoid_rows(Par::Rayon, &bias, &mut b.view_mut());
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn delta_output_formula() {
        let z = [0.8f32, 0.3];
        let x = [1.0f32, 0.0];
        let mut out = [0.0f32; 2];
        delta_output(Par::Seq, &z, &x, &mut out);
        assert!((out[0] - (-0.2 * 0.8 * 0.2)).abs() < 1e-6);
        assert!((out[1] - (0.3 * 0.3 * 0.7)).abs() < 1e-6);
    }

    #[test]
    fn sgd_step_formula() {
        let mut w = vec![1.0f32, -1.0];
        sgd_step(Par::Seq, 0.1, 0.5, &[2.0, 2.0], &mut w);
        // shrink = 1 - 0.05 = 0.95; w0 = 0.95 - 0.2 = 0.75; w1 = -0.95 - 0.2
        assert!((w[0] - 0.75).abs() < 1e-6);
        assert!((w[1] + 1.15).abs() < 1e-6);
    }

    #[test]
    fn cd_update_formula() {
        let mut w = vec![0.0f32; 3];
        cd_update(Par::Seq, 0.5, &[2.0, 2.0, 2.0], &[1.0, 0.0, 4.0], &mut w);
        assert_eq!(w, vec![0.5, 1.0, -1.0]);
    }

    #[test]
    fn kl_sparsity_zero_at_target() {
        let mut d = vec![0.0f32; 4];
        let kl = kl_sparsity(0.05, 3.0, &[0.05; 4], &mut d);
        assert!(kl.abs() < 1e-9, "KL at target must vanish, got {kl}");
        for &v in &d {
            assert!(v.abs() < 1e-4, "delta term at target ~0, got {v}");
        }
    }

    #[test]
    fn kl_sparsity_positive_and_finite_at_extremes() {
        let mut d = vec![0.0f32; 3];
        let kl = kl_sparsity(0.05, 3.0, &[0.0, 0.5, 1.0], &mut d);
        assert!(kl > 0.0 && kl.is_finite());
        assert!(d.iter().all(|v| v.is_finite()));
        // Overactive unit (rho_hat > rho) gets pushed down: positive term.
        assert!(d[1] > 0.0);
        // Underactive unit gets pushed up: negative term.
        assert!(d[0] < 0.0);
    }

    #[test]
    fn sgd_parallel_deterministic_large() {
        let g: Vec<f32> = (0..100_000).map(|i| (i as f32).sin()).collect();
        let mut w1: Vec<f32> = (0..100_000).map(|i| (i as f32).cos()).collect();
        let mut w2 = w1.clone();
        sgd_step(Par::Seq, 0.01, 1e-4, &g, &mut w1);
        sgd_step(Par::Rayon, 0.01, 1e-4, &g, &mut w2);
        assert_eq!(w1, w2);
    }
}
