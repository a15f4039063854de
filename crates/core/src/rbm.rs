//! Restricted Boltzmann Machine with Contrastive Divergence (paper §II.B.2).
//!
//! Binary-binary RBM over visible units `v` and hidden units `h` with the
//! energy of paper eq. (7):
//!
//! ```text
//! E(v, h) = -b'v - c'h - h'Wv
//! ```
//!
//! Trained with CD-k (eq. 13): clamp the batch on the visible units, sample
//! the hiddens, reconstruct, and update with the difference of the data and
//! reconstruction statistics. Hinton's practical-guide conventions (the
//! paper's ref \[15\]) are followed: hidden states are *sampled* on the data
//! phase, while probabilities are used for the reconstruction phase and for
//! all statistics.

use crate::cd_graph::{forward_graph, run_cd_step, CdState};
use crate::exec::ExecCtx;
use crate::graph::{KeptGraph, NetRef};
use micdnn_tensor::{Initializer, Mat, MatView, NormalInit};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyper-parameters of an RBM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbmConfig {
    /// Visible units.
    pub n_visible: usize,
    /// Hidden units.
    pub n_hidden: usize,
    /// Gibbs steps per update (CD-k); the paper uses k = 1.
    pub cd_steps: usize,
}

impl RbmConfig {
    /// CD-1 configuration for the given sizes.
    pub fn new(n_visible: usize, n_hidden: usize) -> Self {
        RbmConfig {
            n_visible,
            n_hidden,
            cd_steps: 1,
        }
    }

    /// Uses `k` Gibbs steps per update.
    pub fn with_cd_steps(mut self, k: usize) -> Self {
        assert!(k >= 1, "CD needs at least one step");
        self.cd_steps = k;
        self
    }

    /// Total number of trainable parameters.
    pub(crate) fn param_count(&self) -> usize {
        self.n_visible * self.n_hidden + self.n_visible + self.n_hidden
    }
}

/// The storage of CD training over batches of up to a maximum size.
///
/// The temporary variables of the paper's Fig. 6 dependency graph — `H1`
/// (data-phase hiddens), `V2` (reconstruction), `H2` (reconstruction-phase
/// hiddens) and the positive/negative statistics — live in the arena the
/// kept step graph's plan lays out, beside the graph itself (a clone builds
/// its own). Only PCD's persistent chain is a buffer of its own.
#[derive(Debug, Clone)]
pub struct RbmScratch {
    max_batch: usize,
    /// Persistent fantasy particles for PCD, `max_batch x v` (empty until
    /// seeded from the first batch); `External` to the step graph.
    pub(crate) pcd_chain: Mat,
    /// The step graph for `(config, pcd, block form)`, built at this
    /// capacity, and its arena.
    pub(crate) step: KeptGraph<(RbmConfig, bool, bool), CdState<'static>>,
}

impl RbmScratch {
    /// Storage for batches of up to `max_batch` examples; the arena is
    /// allocated by the first step.
    pub fn new(cfg: &RbmConfig, max_batch: usize) -> Self {
        assert!(max_batch > 0, "batch size must be positive");
        RbmScratch {
            max_batch,
            pcd_chain: Mat::zeros(0, cfg.n_visible),
            step: KeptGraph(None),
        }
    }

    /// Maximum batch these buffers support.
    pub(crate) fn capacity(&self) -> usize {
        self.max_batch
    }

    /// Seeds the PCD chain from the batch `v0` unless it already holds
    /// `v0.rows()` particles of its width (an unpriced copy, outside the
    /// step graph). Particles past `v0.rows()` start at zero.
    pub(crate) fn seed_chain(&mut self, v0: MatView<'_>) {
        if self.pcd_chain.rows() < v0.rows() || self.pcd_chain.cols() != v0.cols() {
            self.pcd_chain = Mat::zeros(self.max_batch, v0.cols());
            for r in 0..v0.rows() {
                self.pcd_chain.row_mut(r).copy_from_slice(v0.row(r));
            }
        }
    }
}

/// A binary-binary Restricted Boltzmann Machine.
#[derive(Debug, Clone)]
pub struct Rbm {
    cfg: RbmConfig,
    /// Weights, `n_hidden x n_visible` (paper's W in eqs. 8–9).
    pub w: Mat,
    /// Visible biases `b`, length `n_visible`.
    pub b_vis: Vec<f32>,
    /// Hidden biases `c`, length `n_hidden`.
    pub c_hid: Vec<f32>,
}

impl Rbm {
    /// Fresh RBM with `N(0, 0.01)` weights and zero biases (Hinton's
    /// recipe).
    pub fn new(cfg: RbmConfig, seed: u64) -> Self {
        assert!(
            cfg.n_visible > 0 && cfg.n_hidden > 0,
            "layer sizes must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        Rbm {
            w: NormalInit { sigma: 0.01 }.init(cfg.n_hidden, cfg.n_visible, &mut rng),
            b_vis: vec![0.0; cfg.n_visible],
            c_hid: vec![0.0; cfg.n_hidden],
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RbmConfig {
        &self.cfg
    }

    /// One CD-k update on a batch `v0` (`b x n_visible`, values in `[0, 1]`).
    ///
    /// The step is the Fig. 6 dependency graph run in declaration order —
    /// the exact serial op sequence (positive phase, Gibbs chain,
    /// statistics, updates) of the classic hand-rolled loop, sharing one
    /// builder with [`crate::cd_step_graph`]. Debug builds (and release
    /// contexts with [`ExecCtx::with_verify`]) statically verify the graph
    /// before its first run: races, register aliasing, use-before-init
    /// and sampling-order hazards all refuse to run.
    ///
    /// Returns the mean per-example squared reconstruction error
    /// `1/b ‖v1 - v0‖²` measured on the first reconstruction.
    pub fn cd_step(
        &mut self,
        ctx: &ExecCtx,
        v0: MatView<'_>,
        scratch: &mut RbmScratch,
        learning_rate: f32,
    ) -> f64 {
        run_cd_step(self, ctx, v0, scratch, learning_rate, false, false).0
    }

    /// One Persistent Contrastive Divergence update (Tieleman's PCD; also
    /// recommended in Hinton's practical guide, the paper's ref \[15\]).
    ///
    /// Unlike CD-1, the negative phase continues a *persistent* Gibbs
    /// chain of fantasy particles across updates instead of restarting
    /// from the data, which gives better likelihood gradients late in
    /// training. The chain lives in the scratch and is initialized from the
    /// first batch it sees; the step itself is
    /// [`crate::cd_graph::build_pcd_graph`] run in declaration order, so it
    /// is kept and verified exactly as [`Rbm::cd_step`]'s is.
    pub fn pcd_step(
        &mut self,
        ctx: &ExecCtx,
        v0: MatView<'_>,
        scratch: &mut RbmScratch,
        learning_rate: f32,
    ) -> f64 {
        run_cd_step(self, ctx, v0, scratch, learning_rate, true, false).0
    }

    /// Mean per-example squared one-step reconstruction error without
    /// updating parameters: `H1`, `V2` and `RE`, which open the PCD step,
    /// built at the batch's rows over the model borrowed shared.
    ///
    /// `v0` has at most `scratch`'s capacity in rows.
    pub fn reconstruction_error(
        &self,
        ctx: &ExecCtx,
        v0: MatView<'_>,
        scratch: &mut RbmScratch,
    ) -> f64 {
        let (b, v, h) = (v0.rows(), self.cfg.n_visible, self.cfg.n_hidden);
        assert!(b <= scratch.max_batch, "batch exceeds scratch capacity");
        assert_eq!(v0.cols(), v, "visible dimensionality mismatch");
        let mut kept = KeptGraph(None);
        let (g, ws) = kept.prepare(b, || forward_graph(v, h, b));
        let mut state = CdState::new(NetRef::Shared(self), ws, &mut scratch.pcd_chain, v0, 0.0);
        g.run_serial(ctx, &mut state);
        state.recon_err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecCtx, OptLevel};
    use rand::Rng;

    /// A simple structured binary dataset: two prototype patterns plus
    /// flip noise.
    fn patterned_batch(b: usize, v: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        Mat::from_fn(b, v, |r, c| {
            let proto = if r % 2 == 0 {
                (c % 2) as f32
            } else {
                ((c + 1) % 2) as f32
            };
            if rng.gen_bool(0.05) {
                1.0 - proto
            } else {
                proto
            }
        })
    }

    #[test]
    fn prop_up_down_ranges() {
        // `H1` and `V2` of the forward graph leave probabilities.
        let cfg = RbmConfig::new(12, 6);
        let rbm = Rbm::new(cfg, 1);
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let v = patterned_batch(5, 12, 2);
        let (mut kept, mut chain) = (KeptGraph(None), Mat::zeros(0, 12));
        let (g, ws) = kept.prepare(5, || forward_graph(12, 6, 5));
        let rbm = NetRef::Shared(&rbm);
        g.run_serial(&ctx, &mut CdState::new(rbm, ws, &mut chain, v.view(), 0.0));
        for name in ["h0_prob", "v1_prob"] {
            let probs = kept.buf(name);
            assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)), "{name}");
        }
    }

    #[test]
    fn forward_pass_reconstruction_error_is_pcds_bitwise() {
        // The error `pcd_step` reports is measured before its update, on
        // the parameters the forward graph reads; a ragged batch included.
        let cfg = RbmConfig::new(12, 7);
        let mut rbm = Rbm::new(cfg, 8);
        let ctx = ExecCtx::native(OptLevel::Improved, 9);
        let v = patterned_batch(10, 12, 10);
        let mut scratch = RbmScratch::new(&cfg, 10);
        for (lo, hi) in [(0, 10), (0, 10), (3, 9)] {
            let rows = v.rows_range(lo, hi);
            let err = rbm.reconstruction_error(&ctx, rows, &mut scratch);
            let step = rbm.pcd_step(&ctx, rows, &mut scratch, 0.1);
            assert_eq!(err.to_bits(), step.to_bits(), "rows {lo}..{hi}");
        }
    }

    #[test]
    fn cd1_training_reduces_reconstruction_error() {
        let cfg = RbmConfig::new(16, 12);
        let mut rbm = Rbm::new(cfg, 3);
        let ctx = ExecCtx::native(OptLevel::Improved, 42);
        let v = patterned_batch(64, 16, 4);
        let mut scratch = RbmScratch::new(&cfg, 64);
        let before = rbm.reconstruction_error(&ctx, v.view(), &mut scratch);
        for _ in 0..300 {
            rbm.cd_step(&ctx, v.view(), &mut scratch, 0.1);
        }
        let after = rbm.reconstruction_error(&ctx, v.view(), &mut scratch);
        assert!(
            after < 0.5 * before,
            "reconstruction did not improve: {before} -> {after}"
        );
        assert!(rbm.w.all_finite());
    }

    #[test]
    fn cd_k_runs_and_trains() {
        let cfg = RbmConfig::new(10, 8).with_cd_steps(3);
        let mut rbm = Rbm::new(cfg, 5);
        let ctx = ExecCtx::native(OptLevel::Improved, 7);
        let v = patterned_batch(32, 10, 6);
        let mut scratch = RbmScratch::new(&cfg, 32);
        let before = rbm.reconstruction_error(&ctx, v.view(), &mut scratch);
        for _ in 0..200 {
            rbm.cd_step(&ctx, v.view(), &mut scratch, 0.1);
        }
        let after = rbm.reconstruction_error(&ctx, v.view(), &mut scratch);
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = RbmConfig::new(8, 6);
        let run = || {
            let mut rbm = Rbm::new(cfg, 11);
            let ctx = ExecCtx::native(OptLevel::Improved, 13);
            let v = patterned_batch(16, 8, 14);
            let mut s = RbmScratch::new(&cfg, 16);
            for _ in 0..10 {
                rbm.cd_step(&ctx, v.view(), &mut s, 0.1);
            }
            rbm.w
        };
        let a = run();
        let b = run();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn pcd_training_reduces_reconstruction_error() {
        let cfg = RbmConfig::new(16, 12);
        let mut rbm = Rbm::new(cfg, 3);
        let ctx = ExecCtx::native(OptLevel::Improved, 42);
        let v = patterned_batch(64, 16, 4);
        let mut scratch = RbmScratch::new(&cfg, 64);
        let before = rbm.reconstruction_error(&ctx, v.view(), &mut scratch);
        for _ in 0..300 {
            rbm.pcd_step(&ctx, v.view(), &mut scratch, 0.05);
        }
        let after = rbm.reconstruction_error(&ctx, v.view(), &mut scratch);
        assert!(
            after < 0.6 * before,
            "PCD did not improve reconstruction: {before} -> {after}"
        );
        assert!(rbm.w.all_finite());
    }

    #[test]
    fn pcd_chain_persists_and_moves() {
        let cfg = RbmConfig::new(10, 8);
        let mut rbm = Rbm::new(cfg, 5);
        let ctx = ExecCtx::native(OptLevel::Improved, 6);
        let v = patterned_batch(16, 10, 7);
        let mut scratch = RbmScratch::new(&cfg, 16);
        rbm.pcd_step(&ctx, v.view(), &mut scratch, 0.05);
        let first = scratch.pcd_chain.clone();
        rbm.pcd_step(&ctx, v.view(), &mut scratch, 0.05);
        let second = scratch.pcd_chain.clone();
        assert_ne!(first.as_slice(), second.as_slice(), "chain should move");
        assert!(
            second.as_slice().iter().all(|&s| s == 0.0 || s == 1.0),
            "chain stays binary"
        );
    }

    #[test]
    fn pcd_differs_from_cd() {
        let cfg = RbmConfig::new(12, 8);
        let v = patterned_batch(20, 12, 9);
        let run = |pcd: bool| {
            let mut rbm = Rbm::new(cfg, 10);
            let ctx = ExecCtx::native(OptLevel::Improved, 11);
            let mut s = RbmScratch::new(&cfg, 20);
            for _ in 0..20 {
                if pcd {
                    rbm.pcd_step(&ctx, v.view(), &mut s, 0.1);
                } else {
                    rbm.cd_step(&ctx, v.view(), &mut s, 0.1);
                }
            }
            rbm.w
        };
        let w_cd = run(false);
        let w_pcd = run(true);
        assert_ne!(w_cd.as_slice(), w_pcd.as_slice());
    }

    #[test]
    #[should_panic(expected = "CD needs at least one step")]
    fn zero_cd_steps_rejected() {
        RbmConfig::new(4, 4).with_cd_steps(0);
    }
}
