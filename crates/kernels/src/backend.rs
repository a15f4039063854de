//! The [`Backend`] — one object per rung of the paper's optimization ladder.
//!
//! A backend bundles three switches:
//!
//! * `par` — whether loops fork across the thread pool (the OpenMP step);
//! * `blas` — whether matrix products go through the blocked/packed SGEMM
//!   ([`gemm`](mod@crate::gemm)) or the scalar triple loop (the MKL step);
//! * `fused` — whether adjacent elementwise sweeps are combined into single
//!   hand-vectorized passes (the "improved" step that cuts synchronization
//!   and is where the paper vectorizes its non-MKL loops).
//!
//! Every method performs the real computation **and** returns an [`OpCost`]
//! describing it, which `micdnn-sim` prices on a modeled device. The
//! `*_cost` methods compute the same descriptors *without* executing — the
//! figure-reproduction harness uses them to sweep paper-scale workloads
//! (10⁶ × 4096 examples) that would be absurd to run functionally, and
//! tests pin the two paths to each other. Methods are deterministic for a
//! fixed backend regardless of the rayon pool size.

use crate::ops::OpCost;
use crate::rng::StreamId;
use crate::{fused, gemm as gemm_mod, naive, reduce, rng, vecops, Par};
use micdnn_tensor::{MatView, MatViewMut};
use rayon::prelude::*;

/// Merges two sweeps executed back-to-back (NOT fused): work, traffic and
/// barriers all add up.
fn combine(mut a: OpCost, b: OpCost) -> OpCost {
    a.flops += b.flops;
    a.bytes_read += b.bytes_read;
    a.bytes_written += b.bytes_written;
    a.parallel_regions += b.parallel_regions;
    a
}

/// Execution configuration: one rung of the paper's Table I ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backend {
    par: Par,
    blas: bool,
    fused: bool,
}

impl Default for Backend {
    fn default() -> Self {
        Backend::improved()
    }
}

impl Backend {
    /// Sequential scalar code, no BLAS — Table I "Baseline".
    pub const fn baseline() -> Backend {
        Backend {
            par: Par::Seq,
            blas: false,
            fused: false,
        }
    }

    /// Loops threaded, scalar math — Table I "OpenMP".
    pub const fn threaded() -> Backend {
        Backend {
            par: Par::Rayon,
            blas: false,
            fused: false,
        }
    }

    /// Threaded + blocked/vectorized GEMM — Table I "OpenMP+MKL".
    pub const fn threaded_blas() -> Backend {
        Backend {
            par: Par::Rayon,
            blas: true,
            fused: false,
        }
    }

    /// Threaded + BLAS + fused, hand-vectorized loops — Table I
    /// "Improved OpenMP+MKL".
    pub const fn improved() -> Backend {
        Backend {
            par: Par::Rayon,
            blas: true,
            fused: true,
        }
    }

    /// Single-threaded but vectorized + BLAS: models an optimized
    /// single-CPU-core comparator (the host core in Figs. 7–9) and the
    /// "Matlab" comparator of Fig. 10.
    pub const fn sequential_blas() -> Backend {
        Backend {
            par: Par::Seq,
            blas: true,
            fused: false,
        }
    }

    /// The threading strategy of this backend.
    pub fn par(&self) -> Par {
        self.par
    }

    /// Whether matrix products use the optimized BLAS path.
    pub fn uses_blas(&self) -> bool {
        self.blas
    }

    /// Whether elementwise sweeps are fused.
    pub fn is_fused(&self) -> bool {
        self.fused
    }

    // ------------------------------------------------------------------
    // Cost-only descriptors (must match what the executing methods return)
    // ------------------------------------------------------------------

    /// Cost of [`Backend::gemm`] with output `m x n` and inner depth `k`.
    pub fn gemm_cost(&self, m: usize, n: usize, k: usize) -> OpCost {
        OpCost::gemm(m, n, k, self.blas)
    }

    /// Cost of [`Backend::bias_sigmoid_rows`] over `n` elements.
    pub fn bias_sigmoid_cost(&self, n: usize) -> OpCost {
        let c = if self.fused {
            OpCost::elementwise(n, 2, 1).fuse(OpCost::sigmoid(n))
        } else {
            // Pre-"improved" code: two sweeps, not hand-vectorized.
            combine(OpCost::elementwise(n, 2, 1), OpCost::sigmoid(n)).scalar()
        };
        c.with_label("bias+sigmoid")
    }

    /// Cost of [`Backend::axpy`] over `n` elements.
    pub(crate) fn axpy_cost(&self, n: usize) -> OpCost {
        let c = OpCost::elementwise(n, 2, 2).with_label("axpy");
        if self.blas {
            c
        } else {
            c.scalar()
        }
    }

    /// Cost of [`Backend::scale`] over `n` elements.
    pub(crate) fn scale_cost(&self, n: usize) -> OpCost {
        let c = OpCost::elementwise(n, 1, 1).with_label("scale");
        if self.blas {
            c
        } else {
            c.scalar()
        }
    }

    /// Cost of [`Backend::sigmoid_backprop`] over `n` elements.
    pub fn sigmoid_backprop_cost(&self, n: usize) -> OpCost {
        let c = OpCost::elementwise(n, 2, 3).with_label("sigmoid-backprop");
        if self.blas {
            c
        } else {
            c.scalar()
        }
    }

    /// Cost of [`Backend::delta_output`] over `n` elements.
    pub fn delta_output_cost(&self, n: usize) -> OpCost {
        let c = if self.fused {
            OpCost::elementwise(n, 2, 4)
        } else {
            combine(OpCost::elementwise(n, 2, 1), OpCost::elementwise(n, 2, 3)).scalar()
        };
        c.with_label("delta-output")
    }

    /// Cost of [`Backend::bias_deriv_rows`] over `n` elements.
    pub fn bias_deriv_cost(&self, n: usize) -> OpCost {
        let c = if self.fused {
            OpCost::elementwise(n, 3, 4)
        } else {
            combine(OpCost::elementwise(n, 2, 1), OpCost::elementwise(n, 2, 3)).scalar()
        };
        c.with_label("bias-deriv")
    }

    /// Cost of [`Backend::sgd_step`] over `n` elements.
    pub fn sgd_cost(&self, n: usize) -> OpCost {
        let c = if self.fused {
            OpCost::elementwise(n, 2, 3)
        } else {
            combine(OpCost::elementwise(n, 1, 1), OpCost::elementwise(n, 2, 2)).scalar()
        };
        c.with_label("sgd-step")
    }

    /// Cost of [`Backend::cd_update`] over `n` elements.
    pub fn cd_update_cost(&self, n: usize) -> OpCost {
        let c = if self.fused {
            OpCost::elementwise(n, 3, 3)
        } else {
            combine(OpCost::elementwise(n, 2, 1), OpCost::elementwise(n, 2, 2)).scalar()
        };
        c.with_label("cd-update")
    }

    /// Cost of [`Backend::colsum`] / [`Backend::colmean`] /
    /// [`Backend::frob_dist_sq`] over an `m x n` operand.
    pub fn reduce_cost(&self, m: usize, n: usize) -> OpCost {
        let c = OpCost::reduce(m, n);
        if self.blas {
            c
        } else {
            c.scalar()
        }
    }

    /// Cost of [`Backend::bernoulli`] over `n` elements. The paper
    /// vectorizes the sampling loop only in its final optimization step.
    pub fn sample_cost(&self, n: usize) -> OpCost {
        let c = OpCost::sample(n).with_label("bernoulli");
        if self.fused {
            c
        } else {
            c.scalar()
        }
    }

    // ------------------------------------------------------------------
    // Matrix products
    // ------------------------------------------------------------------

    /// `C = alpha * op(A) * op(B) + beta * C`.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm(
        &self,
        alpha: f32,
        a: MatView<'_>,
        ta: bool,
        b: MatView<'_>,
        tb: bool,
        beta: f32,
        c: &mut MatViewMut<'_>,
    ) -> OpCost {
        let (m, n) = c.shape();
        let k = if ta { a.rows() } else { a.cols() };
        if self.blas {
            gemm_mod::gemm(self.par, alpha, a, ta, b, tb, beta, c);
        } else if self.par.is_parallel() {
            gemm_threaded_scalar(alpha, a, ta, b, tb, beta, c);
        } else {
            naive::gemm_ref(alpha, a, ta, b, tb, beta, c);
        }
        self.gemm_cost(m, n, k)
    }

    // ------------------------------------------------------------------
    // Activation / elementwise
    // ------------------------------------------------------------------

    /// `C = sigmoid(C + bias)` row-wise: the paper's eq. (1)/(8)/(9)
    /// activation after the product. Fused backends do it in one sweep;
    /// others add the bias and apply the sigmoid in two.
    pub fn bias_sigmoid_rows(&self, bias: &[f32], c: &mut MatViewMut<'_>) -> OpCost {
        let n = c.as_slice().len();
        if self.fused {
            fused::bias_sigmoid_rows(self.par, bias, c);
        } else {
            fused::add_bias_rows(self.par, bias, c);
            if self.par.is_parallel() || self.blas {
                vecops::sigmoid_inplace(self.par, c.as_mut_slice());
            } else {
                naive::sigmoid_ref(c.as_mut_slice());
            }
        }
        self.bias_sigmoid_cost(n)
    }

    /// `y += alpha * x`.
    pub fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) -> OpCost {
        if self.blas || self.par.is_parallel() {
            vecops::axpy(self.par, alpha, x, y);
        } else {
            naive::axpy_ref(alpha, x, y);
        }
        self.axpy_cost(y.len())
    }

    /// `y *= alpha`.
    pub fn scale(&self, alpha: f32, y: &mut [f32]) -> OpCost {
        vecops::scale(self.par, alpha, y);
        self.scale_cost(y.len())
    }

    /// Fixed-order merge of per-block partial gradients:
    /// `out = parts[0] + parts[1] + ...` left-folded in part order per
    /// element, so the result is bitwise independent of device count.
    pub fn block_merge(&self, parts: &[&[f32]], out: &mut [f32]) -> OpCost {
        vecops::block_merge(self.par, parts, out);
        let c = OpCost::elementwise(out.len() * parts.len().max(1), 2, 1).with_label("block-merge");
        if self.blas {
            c
        } else {
            c.scalar()
        }
    }

    /// `delta *= y * (1 - y)` — sigmoid backprop through stored outputs.
    pub fn sigmoid_backprop(&self, y: &[f32], delta: &mut [f32]) -> OpCost {
        vecops::sigmoid_backprop_assign(self.par, y, delta);
        self.sigmoid_backprop_cost(delta.len())
    }

    /// Fused output delta `(z - x) ⊙ z ⊙ (1 - z)`; unfused backends compute
    /// the subtraction and the derivative product as two sweeps.
    pub fn delta_output(&self, z: &[f32], x: &[f32], out: &mut [f32]) -> OpCost {
        if self.fused {
            fused::delta_output(self.par, z, x, out);
        } else {
            vecops::sub(self.par, z, x, out);
            vecops::sigmoid_backprop_assign(self.par, z, out);
        }
        self.delta_output_cost(out.len())
    }

    /// Hidden-layer delta: per row `delta = (delta + s) ⊙ y ⊙ (1 - y)`
    /// (sparsity term plus sigmoid derivative). Fused or two sweeps.
    pub fn bias_deriv_rows(&self, s: &[f32], y: MatView<'_>, delta: &mut MatViewMut<'_>) -> OpCost {
        let n = delta.as_slice().len();
        if self.fused {
            fused::bias_deriv_rows(self.par, s, y, delta);
        } else {
            fused::add_bias_rows(self.par, s, delta);
            vecops::sigmoid_backprop_assign(self.par, y.as_slice(), delta.as_mut_slice());
        }
        self.bias_deriv_cost(n)
    }

    /// SGD step `w = (1 - lr*lambda) w - lr g`; fused backends do one sweep,
    /// others a scale then an axpy.
    pub fn sgd_step(&self, lr: f32, lambda: f32, g: &[f32], w: &mut [f32]) -> OpCost {
        if self.fused {
            fused::sgd_step(self.par, lr, lambda, g, w);
        } else {
            vecops::scale(self.par, 1.0 - lr * lambda, w);
            if self.blas || self.par.is_parallel() {
                vecops::axpy(self.par, -lr, g, w);
            } else {
                naive::axpy_ref(-lr, g, w);
            }
        }
        self.sgd_cost(w.len())
    }

    /// CD weight update `w += scale * (pos - neg)` (paper eq. 13); fused or
    /// two sweeps with a temporary.
    pub fn cd_update(&self, scale: f32, pos: &[f32], neg: &[f32], w: &mut [f32]) -> OpCost {
        if self.fused {
            fused::cd_update(self.par, scale, pos, neg, w);
        } else {
            let mut tmp = vec![0.0f32; w.len()];
            vecops::sub(self.par, pos, neg, &mut tmp);
            if self.blas || self.par.is_parallel() {
                vecops::axpy(self.par, scale, &tmp, w);
            } else {
                naive::axpy_ref(scale, &tmp, w);
            }
        }
        self.cd_update_cost(w.len())
    }

    // ------------------------------------------------------------------
    // Reductions and sampling
    // ------------------------------------------------------------------

    /// Column sums.
    pub fn colsum(&self, a: MatView<'_>, out: &mut [f32]) -> OpCost {
        if self.blas || self.par.is_parallel() {
            reduce::colsum(self.par, a, out);
        } else {
            naive::colsum_ref(a, out);
        }
        self.reduce_cost(a.rows(), a.cols())
    }

    /// Column means.
    pub fn colmean(&self, a: MatView<'_>, out: &mut [f32]) -> OpCost {
        let cost = self.colsum(a, out);
        if a.rows() > 0 {
            let inv = 1.0 / a.rows() as f32;
            for v in out.iter_mut() {
                *v *= inv;
            }
        }
        cost
    }

    /// Squared Frobenius distance between same-shape matrices.
    pub fn frob_dist_sq(&self, a: MatView<'_>, b: MatView<'_>) -> (f64, OpCost) {
        let d = reduce::frob_dist_sq(self.par, a, b);
        (d, self.reduce_cost(a.rows(), a.cols()))
    }

    /// Bernoulli sampling from per-element probabilities.
    pub fn bernoulli(&self, seed: u64, stream: StreamId, probs: &[f32], out: &mut [f32]) -> OpCost {
        rng::bernoulli(self.par, seed, stream, probs, out);
        self.sample_cost(out.len())
    }

    /// Bernoulli sampling of a window of a larger logical op: element `i`
    /// draws from counter `elem_base + i` (see `rng::bernoulli_at`).
    pub fn bernoulli_at(
        &self,
        seed: u64,
        stream: StreamId,
        elem_base: u64,
        probs: &[f32],
        out: &mut [f32],
    ) -> OpCost {
        rng::bernoulli_at(self.par, seed, stream, elem_base, probs, out);
        self.sample_cost(out.len())
    }
}

/// Scalar triple-loop GEMM parallelized across rows of C — the "OpenMP but
/// no MKL" rung. Bitwise identical to [`naive::gemm_ref`] because each
/// output element accumulates over k in the same order.
#[allow(clippy::too_many_arguments)]
fn gemm_threaded_scalar(
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
    assert_eq!(k, kb, "gemm: inner dimension mismatch ({k} vs {kb})");
    assert_eq!(c.shape(), (m, n), "gemm: output shape mismatch");
    if n == 0 {
        return;
    }
    c.as_mut_slice()
        .par_chunks_mut(n)
        .enumerate()
        .for_each(|(i, c_row)| {
            for (j, out) in c_row.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let av = if ta { a.get(p, i) } else { a.get(i, p) };
                    let bv = if tb { b.get(j, p) } else { b.get(p, j) };
                    acc += av * bv;
                }
                *out = alpha * acc + beta * *out;
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use micdnn_tensor::{max_abs_diff, Mat};

    fn all_backends() -> [Backend; 5] {
        [
            Backend::baseline(),
            Backend::threaded(),
            Backend::threaded_blas(),
            Backend::improved(),
            Backend::sequential_blas(),
        ]
    }

    #[test]
    fn rung_flags() {
        assert!(!Backend::baseline().par().is_parallel());
        assert!(Backend::threaded().par().is_parallel());
        assert!(!Backend::threaded().uses_blas());
        assert!(Backend::threaded_blas().uses_blas());
        assert!(!Backend::threaded_blas().is_fused());
        assert!(Backend::improved().is_fused());
        assert!(!Backend::sequential_blas().par().is_parallel());
        assert!(Backend::sequential_blas().uses_blas());
        assert_eq!(Backend::default(), Backend::improved());
    }

    #[test]
    fn gemm_agrees_across_backends() {
        let a = Mat::from_fn(33, 47, |r, c| ((r * 47 + c) as f32 * 0.01).sin());
        let b = Mat::from_fn(47, 29, |r, c| ((r + c) as f32 * 0.02).cos());
        let mut reference = Mat::zeros(33, 29);
        naive::gemm_ref(
            1.0,
            a.view(),
            false,
            b.view(),
            false,
            0.0,
            &mut reference.view_mut(),
        );
        for be in all_backends() {
            let mut c = Mat::zeros(33, 29);
            let cost = be.gemm(
                1.0,
                a.view(),
                false,
                b.view(),
                false,
                0.0,
                &mut c.view_mut(),
            );
            assert!(
                max_abs_diff(c.as_slice(), reference.as_slice()) < 1e-3,
                "backend {be:?} diverged"
            );
            assert_eq!(cost.flops, 2 * 33 * 29 * 47);
            assert_eq!(cost.blas, be.uses_blas());
            assert_eq!(cost, be.gemm_cost(33, 29, 47), "cost-only path diverged");
        }
    }

    #[test]
    fn threaded_scalar_gemm_bitwise_matches_ref() {
        let a = Mat::from_fn(20, 31, |r, c| ((r * 31 + c) as f32).sin());
        let b = Mat::from_fn(31, 17, |r, c| ((r * 17 + c) as f32).cos());
        let mut c_ref = Mat::full(20, 17, 0.5);
        let mut c_thr = Mat::full(20, 17, 0.5);
        naive::gemm_ref(
            0.7,
            a.view(),
            false,
            b.view(),
            false,
            0.3,
            &mut c_ref.view_mut(),
        );
        gemm_threaded_scalar(
            0.7,
            a.view(),
            false,
            b.view(),
            false,
            0.3,
            &mut c_thr.view_mut(),
        );
        assert_eq!(c_ref.as_slice(), c_thr.as_slice());
    }

    #[test]
    fn bias_sigmoid_agrees_fused_vs_not() {
        let src = Mat::from_fn(40, 60, |r, c| ((r + c) as f32 * 0.05) - 1.5);
        let bias: Vec<f32> = (0..60).map(|i| i as f32 * 0.01).collect();
        let mut outs = Vec::new();
        for be in all_backends() {
            let mut m = src.clone();
            let cost = be.bias_sigmoid_rows(&bias, &mut m.view_mut());
            if be.is_fused() {
                assert_eq!(cost.parallel_regions, 1, "fused must have one barrier");
                assert!(cost.vectorizable);
            } else {
                assert!(cost.parallel_regions >= 2, "unfused has >= 2 barriers");
                assert!(!cost.vectorizable, "pre-improved loops are scalar");
            }
            outs.push(m);
        }
        for m in &outs[1..] {
            assert!(max_abs_diff(m.as_slice(), outs[0].as_slice()) < 1e-6);
        }
    }

    #[test]
    fn bias_deriv_agrees_fused_vs_not() {
        let y = Mat::from_fn(30, 20, |r, c| {
            0.1 + 0.8 * (((r * 20 + c) % 13) as f32 / 13.0)
        });
        let d0 = Mat::from_fn(30, 20, |r, c| ((r + c) as f32 * 0.03).sin());
        let s: Vec<f32> = (0..20).map(|i| (i as f32 * 0.1).cos()).collect();
        let mut outs = Vec::new();
        for be in all_backends() {
            let mut d = d0.clone();
            be.bias_deriv_rows(&s, y.view(), &mut d.view_mut());
            outs.push(d);
        }
        for d in &outs[1..] {
            assert!(max_abs_diff(d.as_slice(), outs[0].as_slice()) < 1e-6);
        }
    }

    #[test]
    fn delta_output_and_sgd_agree() {
        let z: Vec<f32> = (0..5000)
            .map(|i| 0.1 + 0.8 * ((i % 97) as f32 / 97.0))
            .collect();
        let x: Vec<f32> = (0..5000).map(|i| (i % 13) as f32 / 13.0).collect();
        let mut ref_out = vec![0.0f32; 5000];
        Backend::baseline().delta_output(&z, &x, &mut ref_out);
        for be in all_backends() {
            let mut out = vec![0.0f32; 5000];
            be.delta_output(&z, &x, &mut out);
            assert!(max_abs_diff(&out, &ref_out) < 1e-6, "{be:?}");
        }

        let g: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.001).sin()).collect();
        let mut ref_w: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.002).cos()).collect();
        let w0 = ref_w.clone();
        Backend::baseline().sgd_step(0.05, 1e-3, &g, &mut ref_w);
        for be in all_backends() {
            let mut w = w0.clone();
            be.sgd_step(0.05, 1e-3, &g, &mut w);
            assert!(max_abs_diff(&w, &ref_w) < 1e-6, "{be:?}");
        }
    }

    #[test]
    fn cd_update_agrees() {
        let pos: Vec<f32> = (0..1000).map(|i| i as f32 * 0.01).collect();
        let neg: Vec<f32> = (0..1000).map(|i| (999 - i) as f32 * 0.01).collect();
        let mut ref_w = vec![1.0f32; 1000];
        Backend::baseline().cd_update(0.1, &pos, &neg, &mut ref_w);
        for be in all_backends() {
            let mut w = vec![1.0f32; 1000];
            be.cd_update(0.1, &pos, &neg, &mut w);
            assert!(max_abs_diff(&w, &ref_w) < 1e-6, "{be:?}");
        }
    }

    #[test]
    fn reductions_and_sampling_cost_flags() {
        let a = Mat::from_fn(10, 8, |r, c| (r * 8 + c) as f32);
        let mut out = vec![0.0f32; 8];
        let cost = Backend::baseline().colsum(a.view(), &mut out);
        assert!(!cost.vectorizable, "baseline reductions are scalar");
        let cost = Backend::improved().colsum(a.view(), &mut out);
        assert!(cost.vectorizable);

        let (d, _) = Backend::improved().frob_dist_sq(a.view(), a.view());
        assert_eq!(d, 0.0);

        let probs = vec![0.5f32; 100];
        let mut s1 = vec![0.0f32; 100];
        let mut s2 = vec![0.0f32; 100];
        Backend::baseline().bernoulli(42, StreamId(7), &probs, &mut s1);
        Backend::improved().bernoulli(42, StreamId(7), &probs, &mut s2);
        assert_eq!(s1, s2, "sampling is backend-independent");
        assert!(Backend::improved().sample_cost(10).vectorizable);
        assert!(!Backend::threaded_blas().sample_cost(10).vectorizable);
    }

    #[test]
    fn cost_only_methods_match_execution() {
        let be = Backend::threaded_blas();
        let bias = vec![0.1f32; 16];
        let mut m = Mat::zeros(8, 16);
        assert_eq!(
            be.bias_sigmoid_rows(&bias, &mut m.view_mut()),
            be.bias_sigmoid_cost(128)
        );
        let mut w = vec![0.0f32; 64];
        assert_eq!(
            be.sgd_step(0.1, 0.0, &vec![0.0; 64], &mut w),
            be.sgd_cost(64)
        );
        assert_eq!(
            be.cd_update(0.1, &vec![0.0; 64], &vec![0.0; 64], &mut w),
            be.cd_update_cost(64)
        );
        let mut out = vec![0.0f32; 16];
        assert_eq!(be.colmean(m.view(), &mut out), be.reduce_cost(8, 16));
    }
}
