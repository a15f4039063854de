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

use crate::exec::ExecCtx;
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
    pub fn param_count(&self) -> usize {
        self.n_visible * self.n_hidden + self.n_visible + self.n_hidden
    }

    /// Bytes of device memory the parameters occupy (f32).
    pub fn param_bytes(&self) -> u64 {
        (self.param_count() * std::mem::size_of::<f32>()) as u64
    }
}

/// Reusable per-batch buffers for CD training.
///
/// These are the temporary variables of the paper's Fig. 6 dependency
/// graph: `H1` (data-phase hiddens), `V2` (reconstruction), `H2`
/// (reconstruction-phase hiddens) plus the positive/negative statistics.
#[derive(Debug)]
pub struct RbmScratch {
    max_batch: usize,
    /// Data-phase hidden probabilities, `b x h`.
    pub h0_prob: Mat,
    /// Data-phase hidden samples, `b x h`.
    pub h0_sample: Mat,
    /// Reconstruction probabilities, `b x v`.
    pub v1_prob: Mat,
    /// Reconstruction-phase hidden probabilities, `b x h`.
    pub h1_prob: Mat,
    /// Positive statistics `H0'V0`, `h x v`.
    pub pos_stats: Mat,
    /// Negative statistics `H1'V1`, `h x v`.
    pub neg_stats: Mat,
    /// Positive visible bias statistics (column means of the data).
    pub vis_pos: Vec<f32>,
    /// Negative visible bias statistics (column means of the reconstruction).
    pub vis_neg: Vec<f32>,
    /// Positive hidden bias statistics.
    pub hid_pos: Vec<f32>,
    /// Negative hidden bias statistics.
    pub hid_neg: Vec<f32>,
    /// Persistent fantasy particles for PCD (lazily initialized from the
    /// first batch).
    pcd_chain: Option<Mat>,
}

impl RbmScratch {
    /// Buffers for batches of up to `max_batch` examples.
    pub fn new(cfg: &RbmConfig, max_batch: usize) -> Self {
        assert!(max_batch > 0, "batch size must be positive");
        RbmScratch {
            max_batch,
            h0_prob: Mat::zeros(max_batch, cfg.n_hidden),
            h0_sample: Mat::zeros(max_batch, cfg.n_hidden),
            v1_prob: Mat::zeros(max_batch, cfg.n_visible),
            h1_prob: Mat::zeros(max_batch, cfg.n_hidden),
            pos_stats: Mat::zeros(cfg.n_hidden, cfg.n_visible),
            neg_stats: Mat::zeros(cfg.n_hidden, cfg.n_visible),
            vis_pos: vec![0.0; cfg.n_visible],
            vis_neg: vec![0.0; cfg.n_visible],
            hid_pos: vec![0.0; cfg.n_hidden],
            hid_neg: vec![0.0; cfg.n_hidden],
            pcd_chain: None,
        }
    }

    /// Maximum batch these buffers support.
    pub fn capacity(&self) -> usize {
        self.max_batch
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

    /// `p(h = 1 | v) = sigmoid(c + v W^T)` for a batch of visibles
    /// (paper eq. 9), written into `out` (`b x h`).
    pub fn prop_up(&self, ctx: &ExecCtx, v: MatView<'_>, out: &mut Mat) {
        let b = v.rows();
        assert_eq!(
            v.cols(),
            self.cfg.n_visible,
            "visible dimensionality mismatch"
        );
        let mut o = out.rows_range_mut(0, b);
        ctx.gemm(1.0, v, false, self.w.view(), true, 0.0, &mut o);
        ctx.bias_sigmoid_rows(&self.c_hid, &mut o);
    }

    /// `p(v = 1 | h) = sigmoid(b + h W)` for a batch of hiddens
    /// (paper eq. 8), written into `out` (`b x v`).
    pub fn prop_down(&self, ctx: &ExecCtx, h: MatView<'_>, out: &mut Mat) {
        let b = h.rows();
        assert_eq!(
            h.cols(),
            self.cfg.n_hidden,
            "hidden dimensionality mismatch"
        );
        let mut o = out.rows_range_mut(0, b);
        ctx.gemm(1.0, h, false, self.w.view(), false, 0.0, &mut o);
        ctx.bias_sigmoid_rows(&self.b_vis, &mut o);
    }

    /// One CD-k update on a batch `v0` (`b x n_visible`, values in `[0, 1]`).
    ///
    /// The step is the Fig. 6 dependency graph run in declaration order —
    /// the exact serial op sequence (positive phase, Gibbs chain,
    /// statistics, updates) of the classic hand-rolled loop, sharing one
    /// builder with [`crate::cd_step_graph`]. Debug builds (and release
    /// contexts with [`ExecCtx::with_verify`]) statically verify the graph
    /// first ([`crate::verify`]): races, register aliasing, use-before-init
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
        let b = v0.rows();
        assert!(b > 0, "empty batch");
        assert!(b <= scratch.max_batch, "batch exceeds scratch capacity");
        let cfg = self.cfg;
        let mut g = crate::cd_graph::build_cd_graph(cfg.n_visible, cfg.n_hidden, b, cfg.cd_steps);
        let mut state = crate::cd_graph::CdState {
            rbm: self,
            scratch,
            v0,
            lr: learning_rate,
            recon_err: 0.0,
        };
        g.run_serial(ctx, &mut state);
        state.recon_err
    }

    /// One Persistent Contrastive Divergence update (Tieleman's PCD; also
    /// recommended in Hinton's practical guide, the paper's ref \[15\]).
    ///
    /// Unlike CD-1, the negative phase continues a *persistent* Gibbs
    /// chain of fantasy particles across updates instead of restarting
    /// from the data, which gives better likelihood gradients late in
    /// training. The chain lives in the scratch and is (re)initialized
    /// from the first batch it sees.
    pub fn pcd_step(
        &mut self,
        ctx: &ExecCtx,
        v0: MatView<'_>,
        scratch: &mut RbmScratch,
        learning_rate: f32,
    ) -> f64 {
        let b = v0.rows();
        assert!(b > 0, "empty batch");
        assert!(b <= scratch.max_batch, "batch exceeds scratch capacity");

        // Positive phase on the data (probabilities for the statistics).
        self.prop_up(ctx, v0, &mut scratch.h0_prob);
        let recon_err = {
            // Reported metric: ordinary one-step reconstruction error.
            self.prop_down(ctx, scratch.h0_prob.rows_range(0, b), &mut scratch.v1_prob);
            ctx.frob_dist_sq(scratch.v1_prob.rows_range(0, b), v0) / b as f64
        };

        // Negative phase: advance the persistent chain by one Gibbs sweep.
        let chain_missing = match &scratch.pcd_chain {
            Some(c) => c.rows() < b || c.cols() != self.cfg.n_visible,
            None => true,
        };
        if chain_missing {
            let mut init = Mat::zeros(scratch.max_batch, self.cfg.n_visible);
            for r in 0..b {
                init.row_mut(r).copy_from_slice(v0.row(r));
            }
            scratch.pcd_chain = Some(init);
        }
        let chain = scratch.pcd_chain.as_mut().expect("just initialized");

        // h_f ~ p(h | chain); chain <- sample(p(v | h_f)).
        {
            let (h1p, hs) = (&mut scratch.h1_prob, &mut scratch.h0_sample);
            let mut o = h1p.rows_range_mut(0, b);
            ctx.gemm(
                1.0,
                chain.rows_range(0, b),
                false,
                self.w.view(),
                true,
                0.0,
                &mut o,
            );
            ctx.bias_sigmoid_rows(&self.c_hid, &mut o);
            let probs = h1p.rows_range(0, b);
            let mut sample = hs.rows_range_mut(0, b);
            ctx.bernoulli(probs.as_slice(), sample.as_mut_slice());
        }
        {
            let mut o = chain.rows_range_mut(0, b);
            ctx.gemm(
                1.0,
                scratch.h0_sample.rows_range(0, b),
                false,
                self.w.view(),
                false,
                0.0,
                &mut o,
            );
            ctx.bias_sigmoid_rows(&self.b_vis, &mut o);
        }
        {
            // Sample the visibles to keep the chain binary.
            let probs = chain.rows_range(0, b).to_mat();
            let mut sample = chain.rows_range_mut(0, b);
            ctx.bernoulli(probs.as_slice(), sample.as_mut_slice());
        }
        // Hidden probabilities of the new fantasy state for the statistics.
        {
            let (h1p, ch) = (&mut scratch.h1_prob, &*chain);
            let mut o = h1p.rows_range_mut(0, b);
            ctx.gemm(
                1.0,
                ch.rows_range(0, b),
                false,
                self.w.view(),
                true,
                0.0,
                &mut o,
            );
            ctx.bias_sigmoid_rows(&self.c_hid, &mut o);
        }

        // Statistics and updates (same shapes as CD).
        let inv_b = 1.0 / b as f32;
        ctx.gemm(
            inv_b,
            scratch.h0_prob.rows_range(0, b),
            true,
            v0,
            false,
            0.0,
            &mut scratch.pos_stats.view_mut(),
        );
        {
            let (h1p, ch, neg) = (
                &scratch.h1_prob,
                scratch.pcd_chain.as_ref().expect("chain"),
                &mut scratch.neg_stats,
            );
            ctx.gemm(
                inv_b,
                h1p.rows_range(0, b),
                true,
                ch.rows_range(0, b),
                false,
                0.0,
                &mut neg.view_mut(),
            );
        }
        ctx.colmean(v0, &mut scratch.vis_pos);
        {
            let (ch, out) = (
                scratch.pcd_chain.as_ref().expect("chain"),
                &mut scratch.vis_neg,
            );
            ctx.colmean(ch.rows_range(0, b), out);
        }
        ctx.colmean(scratch.h0_prob.rows_range(0, b), &mut scratch.hid_pos);
        {
            let (h1p, out) = (&scratch.h1_prob, &mut scratch.hid_neg);
            ctx.colmean(h1p.rows_range(0, b), out);
        }

        ctx.cd_update(
            learning_rate,
            scratch.pos_stats.as_slice(),
            scratch.neg_stats.as_slice(),
            self.w.as_mut_slice(),
        );
        ctx.cd_update(
            learning_rate,
            &scratch.vis_pos,
            &scratch.vis_neg,
            &mut self.b_vis,
        );
        ctx.cd_update(
            learning_rate,
            &scratch.hid_pos,
            &scratch.hid_neg,
            &mut self.c_hid,
        );

        recon_err
    }

    /// Mean per-example squared one-step reconstruction error without
    /// updating parameters.
    pub fn reconstruction_error(
        &self,
        ctx: &ExecCtx,
        v0: MatView<'_>,
        scratch: &mut RbmScratch,
    ) -> f64 {
        let b = v0.rows();
        self.prop_up(ctx, v0, &mut scratch.h0_prob);
        self.prop_down(ctx, scratch.h0_prob.rows_range(0, b), &mut scratch.v1_prob);
        ctx.frob_dist_sq(scratch.v1_prob.rows_range(0, b), v0) / b as f64
    }

    /// Free energy `F(v) = -b'v - Σ_j log(1 + exp(c_j + W_j · v))` summed
    /// over the batch and divided by the batch size.
    ///
    /// A well-trained RBM assigns lower free energy to data than to noise.
    pub fn free_energy(&self, ctx: &ExecCtx, v: MatView<'_>) -> f64 {
        let b = v.rows();
        assert!(b > 0, "empty batch");
        // pre-activations: x = v W^T (b x h), then add c per row.
        let mut x = Mat::zeros(b, self.cfg.n_hidden);
        {
            let mut xv = x.view_mut();
            ctx.gemm(1.0, v, false, self.w.view(), true, 0.0, &mut xv);
        }
        let mut total = 0.0f64;
        for r in 0..b {
            let mut fe = 0.0f64;
            for (&xi, &ci) in x.row(r).iter().zip(&self.c_hid) {
                let z = (xi + ci) as f64;
                // log(1 + e^z), stably.
                fe -= if z > 30.0 { z } else { z.exp().ln_1p() };
            }
            let vb: f64 = v
                .row(r)
                .iter()
                .zip(&self.b_vis)
                .map(|(&vi, &bi)| (vi * bi) as f64)
                .sum();
            total += fe - vb;
        }
        total / b as f64
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
        let cfg = RbmConfig::new(12, 6);
        let rbm = Rbm::new(cfg, 1);
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let v = patterned_batch(5, 12, 2);
        let mut h = Mat::zeros(5, 6);
        rbm.prop_up(&ctx, v.view(), &mut h);
        assert!(h.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
        let mut v2 = Mat::zeros(5, 12);
        rbm.prop_down(&ctx, h.view(), &mut v2);
        assert!(v2.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
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
    fn free_energy_separates_data_from_noise() {
        let cfg = RbmConfig::new(16, 12);
        let mut rbm = Rbm::new(cfg, 3);
        let ctx = ExecCtx::native(OptLevel::Improved, 42);
        let data = patterned_batch(64, 16, 4);
        let mut scratch = RbmScratch::new(&cfg, 64);
        for _ in 0..300 {
            rbm.cd_step(&ctx, data.view(), &mut scratch, 0.1);
        }
        let mut rng = StdRng::seed_from_u64(99);
        let noise = Mat::from_fn(64, 16, |_, _| if rng.gen_bool(0.5) { 1.0 } else { 0.0 });
        let fe_data = rbm.free_energy(&ctx, data.view());
        let fe_noise = rbm.free_energy(&ctx, noise.view());
        assert!(
            fe_data + 1.0 < fe_noise,
            "data free energy {fe_data} not below noise {fe_noise}"
        );
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
        let first = scratch.pcd_chain.as_ref().unwrap().clone();
        rbm.pcd_step(&ctx, v.view(), &mut scratch, 0.05);
        let second = scratch.pcd_chain.as_ref().unwrap().clone();
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
