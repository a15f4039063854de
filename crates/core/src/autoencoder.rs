//! Sparse Autoencoder (paper §II.B.1).
//!
//! A three-layer sigmoid network `x -> a2 -> a3` trained so that `a3`
//! reconstructs `x`, with the cost of paper eqs. (3)–(6):
//!
//! ```text
//! J = 1/m Σ ½‖a3 - x‖² + λ/2 (‖W1‖² + ‖W2‖²) + β Σ_i KL(ρ ‖ ρ̂_i)
//! ```
//!
//! Gradients come from batched back-propagation in matrix form — the
//! formulation whose "inevitable large matrix multiplication" is exactly
//! what the paper offloads to MKL. All temporaries live in a reusable
//! [`AeScratch`] (§IV.B: temporaries are "kept permanently to avoid
//! unnecessary reallocation and release").

use crate::ae_graph::{build_ae_graph, AeParams, AeState};
use crate::exec::ExecCtx;
use crate::graph::GraphRun;
use micdnn_tensor::{GlorotSigmoid, Initializer, Mat, MatView};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyper-parameters of a sparse autoencoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AeConfig {
    /// Input (and output) dimensionality.
    pub n_visible: usize,
    /// Hidden-layer width.
    pub n_hidden: usize,
    /// L2 weight-decay coefficient λ (paper eq. 4).
    pub weight_decay: f32,
    /// Sparsity target ρ (paper eq. 5).
    pub sparsity_target: f32,
    /// Sparsity penalty weight β (paper eq. 5).
    pub sparsity_weight: f32,
}

impl AeConfig {
    /// A standard configuration for the given layer sizes (λ = 1e-4,
    /// ρ = 0.05, β = 0.1 — mild values that keep training stable across
    /// the synthetic datasets).
    pub fn new(n_visible: usize, n_hidden: usize) -> Self {
        AeConfig {
            n_visible,
            n_hidden,
            weight_decay: 1e-4,
            sparsity_target: 0.05,
            sparsity_weight: 0.1,
        }
    }

    /// Disables the sparsity penalty (plain autoencoder).
    pub fn without_sparsity(mut self) -> Self {
        self.sparsity_weight = 0.0;
        self
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        2 * self.n_visible * self.n_hidden + self.n_visible + self.n_hidden
    }

    /// Bytes of device memory the parameters occupy (f32).
    pub fn param_bytes(&self) -> u64 {
        (self.param_count() * std::mem::size_of::<f32>()) as u64
    }
}

/// Cost breakdown of one batch (paper eqs. 4–5).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AeCost {
    /// Mean reconstruction term `1/m Σ ½‖a3 - x‖²`.
    pub reconstruction: f64,
    /// Weight-decay term `λ/2 (‖W1‖² + ‖W2‖²)`.
    pub weight_penalty: f64,
    /// Sparsity term `β Σ KL(ρ ‖ ρ̂_i)`.
    pub sparsity_penalty: f64,
}

impl AeCost {
    /// The full objective `J(W, b, ρ)`.
    pub fn total(&self) -> f64 {
        self.reconstruction + self.weight_penalty + self.sparsity_penalty
    }
}

/// Reusable per-batch buffers (sized to the maximum batch).
#[derive(Debug)]
pub struct AeScratch {
    max_batch: usize,
    pub(crate) a2: Mat,
    pub(crate) a3: Mat,
    pub(crate) delta3: Mat,
    pub(crate) delta2: Mat,
    pub(crate) rho_hat: Vec<f32>,
    pub(crate) s_term: Vec<f32>,
    pub(crate) gw1: Mat,
    pub(crate) gw2: Mat,
    pub(crate) gb1: Vec<f32>,
    pub(crate) gb2: Vec<f32>,
}

impl AeScratch {
    /// Buffers for batches of up to `max_batch` examples.
    pub fn new(cfg: &AeConfig, max_batch: usize) -> Self {
        assert!(max_batch > 0, "batch size must be positive");
        AeScratch {
            max_batch,
            a2: Mat::zeros(max_batch, cfg.n_hidden),
            a3: Mat::zeros(max_batch, cfg.n_visible),
            delta3: Mat::zeros(max_batch, cfg.n_visible),
            delta2: Mat::zeros(max_batch, cfg.n_hidden),
            rho_hat: vec![0.0; cfg.n_hidden],
            s_term: vec![0.0; cfg.n_hidden],
            gw1: Mat::zeros(cfg.n_hidden, cfg.n_visible),
            gw2: Mat::zeros(cfg.n_visible, cfg.n_hidden),
            gb1: vec![0.0; cfg.n_hidden],
            gb2: vec![0.0; cfg.n_visible],
        }
    }

    /// Maximum batch these buffers support.
    pub fn capacity(&self) -> usize {
        self.max_batch
    }

    /// The gradient buffers `(gw1, gw2, gb1, gb2)` of the last
    /// [`SparseAutoencoder::cost_and_grad`] call.
    pub fn gradients(&self) -> (&Mat, &Mat, &[f32], &[f32]) {
        (&self.gw1, &self.gw2, &self.gb1, &self.gb2)
    }

    /// Hidden activations of the last forward pass (first `b` rows valid).
    pub fn hidden(&self) -> &Mat {
        &self.a2
    }

    /// Reconstructions of the last forward pass (first `b` rows valid).
    pub fn output(&self) -> &Mat {
        &self.a3
    }
}

/// A sparse autoencoder with tied architecture `v -> h -> v`.
#[derive(Debug, Clone)]
pub struct SparseAutoencoder {
    cfg: AeConfig,
    /// Encoder weights, `n_hidden x n_visible`.
    pub w1: Mat,
    /// Encoder bias, length `n_hidden`.
    pub b1: Vec<f32>,
    /// Decoder weights, `n_visible x n_hidden`.
    pub w2: Mat,
    /// Decoder bias, length `n_visible`.
    pub b2: Vec<f32>,
}

impl SparseAutoencoder {
    /// Fresh model with Glorot-for-sigmoid weights and zero biases.
    pub fn new(cfg: AeConfig, seed: u64) -> Self {
        assert!(
            cfg.n_visible > 0 && cfg.n_hidden > 0,
            "layer sizes must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        SparseAutoencoder {
            w1: GlorotSigmoid.init(cfg.n_hidden, cfg.n_visible, &mut rng),
            b1: vec![0.0; cfg.n_hidden],
            w2: GlorotSigmoid.init(cfg.n_visible, cfg.n_hidden, &mut rng),
            b2: vec![0.0; cfg.n_visible],
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AeConfig {
        &self.cfg
    }

    /// Forward pass over a batch: fills `scratch.a2` and `scratch.a3`.
    ///
    /// `x` is `b x n_visible` with `b <= scratch.max_batch`.
    pub fn forward(&self, ctx: &ExecCtx, x: MatView<'_>, scratch: &mut AeScratch) {
        let b = x.rows();
        assert!(b <= scratch.max_batch, "batch exceeds scratch capacity");
        assert_eq!(
            x.cols(),
            self.cfg.n_visible,
            "input dimensionality mismatch"
        );

        // a2 = sigmoid(x W1^T + b1)
        let mut a2 = scratch.a2.rows_range_mut(0, b);
        ctx.gemm(1.0, x, false, self.w1.view(), true, 0.0, &mut a2);
        ctx.bias_sigmoid_rows(&self.b1, &mut a2);

        // a3 = sigmoid(a2 W2^T + b2)
        let a2v = scratch.a2.rows_range(0, b);
        let mut a3 = scratch.a3.rows_range_mut(0, b);
        ctx.gemm(1.0, a2v, false, self.w2.view(), true, 0.0, &mut a3);
        ctx.bias_sigmoid_rows(&self.b2, &mut a3);
    }

    /// Builds the AE dependency graph for `state`'s batch and runs it: in
    /// declaration order — the exact serial op sequence of the classic
    /// hand-rolled loop — or, with `wave`, under the critical-path schedule
    /// (which it then returns). One builder, one runner, behind every AE
    /// step entry point.
    pub(crate) fn run_graph(
        mut state: AeState<'_>,
        ctx: &ExecCtx,
        wave: bool,
    ) -> (AeCost, Option<GraphRun>) {
        let cfg = *state.params.get().config();
        let (b, cap) = (state.x.rows(), state.scratch.max_batch);
        assert!(b > 0, "empty batch");
        assert!(b <= cap, "batch exceeds scratch capacity");
        assert_eq!(
            state.x.cols(),
            cfg.n_visible,
            "input dimensionality mismatch"
        );
        let mut g = build_ae_graph(cfg.n_visible, cfg.n_hidden, b, state.update());
        let run = if wave {
            Some(g.execute(ctx, &mut state))
        } else {
            g.run_serial(ctx, &mut state);
            None
        };
        (state.cost, run)
    }

    /// Forward + back-propagation; fills the gradient buffers in `scratch`
    /// and returns the batch cost.
    ///
    /// Weight decay is *not* folded into `gw1`/`gw2`; it is applied
    /// multiplicatively by [`SparseAutoencoder::apply_gradients`], which is
    /// mathematically the same SGD step.
    pub fn cost_and_grad(&self, ctx: &ExecCtx, x: MatView<'_>, scratch: &mut AeScratch) -> AeCost {
        let state = AeState::new(AeParams::Shared(self), scratch, x, None, 0.0);
        Self::run_graph(state, ctx, false).0
    }

    /// Applies the gradients in `scratch` with learning rate `lr`
    /// (weight decay on the weights, none on the biases).
    pub fn apply_gradients(&mut self, ctx: &ExecCtx, scratch: &AeScratch, lr: f32) {
        let _update = ctx.phase("update");
        let lambda = self.cfg.weight_decay;
        ctx.sgd_step(lr, lambda, scratch.gw1.as_slice(), self.w1.as_mut_slice());
        ctx.sgd_step(lr, lambda, scratch.gw2.as_slice(), self.w2.as_mut_slice());
        ctx.sgd_step(lr, 0.0, &scratch.gb1, &mut self.b1);
        ctx.sgd_step(lr, 0.0, &scratch.gb2, &mut self.b2);
    }

    /// Applies the gradients in `scratch` through an [`crate::Optimizer`]
    /// (slots 0..4 = w1, w2, b1, b2; weight decay on the weights only).
    /// Advances the optimizer's schedule by one step.
    pub fn apply_gradients_opt(
        &mut self,
        ctx: &ExecCtx,
        scratch: &AeScratch,
        opt: &mut crate::optim::Optimizer,
    ) {
        let _update = ctx.phase("update");
        let lambda = self.cfg.weight_decay;
        opt.step_slot(
            ctx,
            0,
            lambda,
            scratch.gw1.as_slice(),
            self.w1.as_mut_slice(),
        );
        opt.step_slot(
            ctx,
            1,
            lambda,
            scratch.gw2.as_slice(),
            self.w2.as_mut_slice(),
        );
        opt.step_slot(ctx, 2, 0.0, &scratch.gb1, &mut self.b1);
        opt.step_slot(ctx, 3, 0.0, &scratch.gb2, &mut self.b2);
        opt.advance();
    }

    /// The optimizer slot lengths for this architecture (w1, w2, b1, b2) —
    /// pass to [`crate::Optimizer::new`].
    pub fn optimizer_slots(cfg: &AeConfig) -> [usize; 4] {
        let wn = cfg.n_visible * cfg.n_hidden;
        [wn, wn, cfg.n_hidden, cfg.n_visible]
    }

    /// One SGD step on a batch; returns the cost before the update.
    ///
    /// Runs the full AE graph (forward, backward, update) — identical ops
    /// to `cost_and_grad` followed by `apply_gradients`.
    pub fn train_batch(
        &mut self,
        ctx: &ExecCtx,
        x: MatView<'_>,
        scratch: &mut AeScratch,
        lr: f32,
    ) -> AeCost {
        let state = AeState::new(AeParams::Mut(self), scratch, x, None, lr);
        Self::run_graph(state, ctx, false).0
    }

    /// Encodes a batch to hidden activations (the "code" the paper stacks
    /// into deep networks).
    pub fn encode(&self, ctx: &ExecCtx, x: MatView<'_>) -> Mat {
        let b = x.rows();
        let mut a2 = Mat::zeros(b, self.cfg.n_hidden);
        {
            let mut v = a2.view_mut();
            ctx.gemm(1.0, x, false, self.w1.view(), true, 0.0, &mut v);
            ctx.bias_sigmoid_rows(&self.b1, &mut v);
        }
        a2
    }

    /// Mean per-example reconstruction error `1/m Σ ½‖a3 - x‖²`.
    pub fn reconstruction_error(
        &self,
        ctx: &ExecCtx,
        x: MatView<'_>,
        scratch: &mut AeScratch,
    ) -> f64 {
        self.forward(ctx, x, scratch);
        ctx.frob_dist_sq(scratch.a3.rows_range(0, x.rows()), x) / (2.0 * x.rows() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::OptLevel;

    fn tiny_batch(b: usize, v: usize, seed: u64) -> Mat {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        Mat::from_fn(b, v, |_, _| rng.gen_range(0.1..0.9))
    }

    #[test]
    fn forward_shapes_and_range() {
        let cfg = AeConfig::new(12, 5);
        let ae = SparseAutoencoder::new(cfg, 1);
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let x = tiny_batch(7, 12, 2);
        let mut scratch = AeScratch::new(&cfg, 8);
        ae.forward(&ctx, x.view(), &mut scratch);
        for r in 0..7 {
            for &v in scratch.hidden().row(r) {
                assert!((0.0..=1.0).contains(&v));
            }
            for &v in scratch.output().row(r) {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn training_reduces_cost() {
        let cfg = AeConfig::new(16, 8);
        let mut ae = SparseAutoencoder::new(cfg, 3);
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let x = tiny_batch(32, 16, 4);
        let mut scratch = AeScratch::new(&cfg, 32);
        let first = ae.train_batch(&ctx, x.view(), &mut scratch, 0.5).total();
        let mut last = first;
        for _ in 0..200 {
            last = ae.train_batch(&ctx, x.view(), &mut scratch, 0.5).total();
        }
        assert!(
            last < 0.6 * first,
            "cost did not drop: first {first}, last {last}"
        );
        assert!(ae.w1.all_finite() && ae.w2.all_finite());
    }

    #[test]
    fn backends_agree_on_gradients() {
        let cfg = AeConfig::new(10, 6);
        let ae = SparseAutoencoder::new(cfg, 7);
        let x = tiny_batch(9, 10, 8);
        let grads: Vec<(Mat, Mat)> = [
            OptLevel::Baseline,
            OptLevel::OpenMp,
            OptLevel::OpenMpMkl,
            OptLevel::Improved,
        ]
        .iter()
        .map(|&lvl| {
            let ctx = ExecCtx::native(lvl, 0);
            let mut s = AeScratch::new(&cfg, 9);
            ae.cost_and_grad(&ctx, x.view(), &mut s);
            (s.gw1.clone(), s.gw2.clone())
        })
        .collect();
        for (g1, g2) in &grads[1..] {
            assert!(
                micdnn_tensor::max_abs_diff(g1.as_slice(), grads[0].0.as_slice()) < 1e-4,
                "gw1 differs between backends"
            );
            assert!(
                micdnn_tensor::max_abs_diff(g2.as_slice(), grads[0].1.as_slice()) < 1e-4,
                "gw2 differs between backends"
            );
        }
    }

    #[test]
    fn sparsity_penalty_reported_when_enabled() {
        let cfg = AeConfig::new(8, 4);
        let ae = SparseAutoencoder::new(cfg, 1);
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let x = tiny_batch(16, 8, 2);
        let mut s = AeScratch::new(&cfg, 16);
        let cost = ae.cost_and_grad(&ctx, x.view(), &mut s);
        assert!(
            cost.sparsity_penalty > 0.0,
            "fresh model can't be exactly at target"
        );
        assert!(cost.weight_penalty > 0.0);
        assert!(cost.total() > cost.reconstruction);

        let cfg2 = AeConfig::new(8, 4).without_sparsity();
        let ae2 = SparseAutoencoder::new(cfg2, 1);
        let mut s2 = AeScratch::new(&cfg2, 16);
        let cost2 = ae2.cost_and_grad(&ctx, x.view(), &mut s2);
        assert_eq!(cost2.sparsity_penalty, 0.0);
    }

    #[test]
    fn encode_matches_forward_hidden() {
        let cfg = AeConfig::new(6, 3);
        let ae = SparseAutoencoder::new(cfg, 2);
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let x = tiny_batch(5, 6, 3);
        let mut s = AeScratch::new(&cfg, 5);
        ae.forward(&ctx, x.view(), &mut s);
        let code = ae.encode(&ctx, x.view());
        assert!(
            micdnn_tensor::max_abs_diff(code.as_slice(), s.hidden().rows_range(0, 5).as_slice())
                < 1e-6
        );
    }

    #[test]
    fn partial_batches_use_scratch_prefix() {
        let cfg = AeConfig::new(6, 3);
        let mut ae = SparseAutoencoder::new(cfg, 2);
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let mut s = AeScratch::new(&cfg, 10);
        let x = tiny_batch(4, 6, 5); // b=4 < max 10
        let cost = ae.train_batch(&ctx, x.view(), &mut s, 0.1);
        assert!(cost.total().is_finite());
    }

    #[test]
    #[should_panic(expected = "batch exceeds scratch capacity")]
    fn oversized_batch_rejected() {
        let cfg = AeConfig::new(6, 3);
        let ae = SparseAutoencoder::new(cfg, 2);
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let mut s = AeScratch::new(&cfg, 2);
        let x = tiny_batch(4, 6, 5);
        ae.forward(&ctx, x.view(), &mut s);
    }

    #[test]
    fn param_count() {
        let cfg = AeConfig::new(10, 4);
        assert_eq!(cfg.param_count(), 2 * 40 + 14);
        assert_eq!(cfg.param_bytes(), (94 * 4) as u64);
    }
}
