//! The paper's Fig. 6: one CD-k update built as a declared-buffer
//! dependency graph.
//!
//! Node layout for CD-1 (names follow the figure; `V1` is the clamped
//! data, per-op nodes are finer than the figure's boxes):
//!
//! ```text
//! H1   = p(h|V1)                 (root)
//! S1   = sample(H1)              (needs H1; stochastic)
//! V2   = p(v|S1)                 (needs S1)
//! RE   = recon error             (needs V2)
//! H2   = p(h|V2)                 (needs V2)       — concurrent with RE
//! POS  = H1'V1 statistics        (needs H1)       — concurrent with V2…
//! NEG  = H2'V2 statistics        (needs H2)
//! VPOS/VNEG/HPOS/HNEG bias stats (mutually independent)
//! Vw, Vb, Vc parameter updates   (each needs only its statistics)
//! ```
//!
//! CD-k repeats the `sample → V2 → H2` block `k` times. The same builder
//! backs both execution styles: [`Rbm::cd_step`] runs it with
//! `TaskGraph::run_serial` (declaration order *is* the original serial
//! op order, so results, sampling streams, recorded op streams and
//! profiling spans are unchanged), while [`cd_step_graph`] runs it with
//! [`TaskGraph::execute`], advancing the simulated clock by the critical
//! path — quantifying what the paper's "compute Vb, H2 and C in parallel"
//! optimization buys.
//!
//! The declared buffers also feed the workspace planner: for CD-1 the
//! hidden *samples* (`S1`'s output) are dead before the reconstruction
//! hiddens (`H2`'s output) are born, so [`TaskGraph::plan`] aliases the
//! two `b x h` buffers into one arena register.

use crate::exec::ExecCtx;
use crate::graph::{BufClass, GraphRun, NodeSpec, TaskGraph};
use crate::layers::{Decl, Emit, Layer, Part, StackBuilder};
use crate::rbm::{Rbm, RbmScratch};
use micdnn_tensor::MatView;

/// Mutable state one CD graph run threads through its nodes.
pub struct CdState<'a> {
    pub(crate) rbm: &'a mut Rbm,
    pub(crate) scratch: &'a mut RbmScratch,
    pub(crate) v0: MatView<'a>,
    pub(crate) lr: f32,
    pub(crate) recon_err: f64,
}

// All CD layers share one registry slot: the chain is one RBM layer seen
// through four passes (data phase, Gibbs chain, statistics, updates).
const RBM: usize = 0;

/// Data phase: H1 hidden probabilities from the clamped batch, S1 their
/// Bernoulli sample.
struct CdData {
    n_visible: usize,
    n_hidden: usize,
    b: usize,
}

impl<'a> Layer<CdState<'a>> for CdData {
    fn declare(&self, sb: &mut StackBuilder<CdState<'a>>, what: Decl) {
        let (v, h, b) = (self.n_visible, self.n_hidden, self.b);
        match what {
            // Model parameters and the clamped batch: analysis-only
            // externals.
            Decl::Params => {
                sb.bind_dims(RBM, "w", "w", &[h, v], BufClass::External);
                sb.bind_dims(RBM, "b_vis", "b_vis", &[v], BufClass::External);
                sb.bind_dims(RBM, "c_hid", "c_hid", &[h], BufClass::External);
            }
            // Per-batch temporaries (the figure's H1 and its sample);
            // scratch class makes them aliasing candidates.
            Decl::Acts => {
                sb.bind_dims(RBM, "h0_prob", "h0_prob", &[b, h], BufClass::Scratch);
                sb.bind_dims(RBM, "h0_sample", "h0_sample", &[b, h], BufClass::Scratch);
            }
            _ => {}
        }
    }

    fn emit(&self, sb: &mut StackBuilder<CdState<'a>>, what: Emit) {
        if what != Emit::Forward {
            return;
        }
        let b = self.b;
        // H1: hidden probabilities from the data.
        let (v0, w, c_hid, h0_prob) = (
            sb.global("v0"),
            sb.buf(RBM, "w"),
            sb.buf(RBM, "c_hid"),
            sb.buf(RBM, "h0_prob"),
        );
        sb.node(
            NodeSpec::new("H1")
                .reads(&[v0, w, c_hid])
                .writes(&[h0_prob])
                .phase("forward"),
            move |ctx, s: &mut CdState<'_>| {
                let v = s.v0;
                s.rbm.prop_up(ctx, v, &mut s.scratch.h0_prob);
            },
        );
        // S1: sample the data-phase hiddens (consumes a sampling stream,
        // so it must stay in declaration order).
        let h0_sample = sb.buf(RBM, "h0_sample");
        sb.node(
            NodeSpec::new("S1")
                .reads(&[h0_prob])
                .writes(&[h0_sample])
                .stochastic()
                .cursor("gibbs")
                .phase("forward"),
            move |ctx, s: &mut CdState<'_>| {
                let (hp, hs) = (&s.scratch.h0_prob, &mut s.scratch.h0_sample);
                let probs = hp.rows_range(0, b);
                let mut sample = hs.rows_range_mut(0, b);
                ctx.bernoulli(probs.as_slice(), sample.as_mut_slice());
            },
        );
    }
}

/// The Gibbs chain: `k` sweeps of V2 <- p(v | samples), H2 <- p(h | V2),
/// resampling the hiddens between sweeps; the first sweep also probes the
/// reconstruction error.
struct CdChain {
    n_visible: usize,
    n_hidden: usize,
    b: usize,
    cd_steps: usize,
}

impl<'a> Layer<CdState<'a>> for CdChain {
    fn declare(&self, sb: &mut StackBuilder<CdState<'a>>, what: Decl) {
        let (v, h, b) = (self.n_visible, self.n_hidden, self.b);
        if what == Decl::Acts {
            sb.bind_dims(RBM, "v1_prob", "v1_prob", &[b, v], BufClass::Scratch);
            sb.bind_dims(RBM, "h1_prob", "h1_prob", &[b, h], BufClass::Scratch);
        }
    }

    fn emit(&self, sb: &mut StackBuilder<CdState<'a>>, what: Emit) {
        if what != Emit::Backward {
            return;
        }
        let b = self.b;
        let (v0, w, b_vis, c_hid) = (
            sb.global("v0"),
            sb.buf(RBM, "w"),
            sb.buf(RBM, "b_vis"),
            sb.buf(RBM, "c_hid"),
        );
        let (h0_sample, v1_prob, h1_prob) = (
            sb.buf(RBM, "h0_sample"),
            sb.buf(RBM, "v1_prob"),
            sb.buf(RBM, "h1_prob"),
        );
        for step in 0..self.cd_steps {
            if step > 0 {
                sb.node(
                    NodeSpec::new("Sk")
                        .reads(&[h1_prob])
                        .writes(&[h0_sample])
                        .stochastic()
                        .cursor("gibbs")
                        .phase("backward"),
                    move |ctx, s: &mut CdState<'_>| {
                        let (h1, hs) = (&s.scratch.h1_prob, &mut s.scratch.h0_sample);
                        let probs = h1.rows_range(0, b);
                        let mut sample = hs.rows_range_mut(0, b);
                        ctx.bernoulli(probs.as_slice(), sample.as_mut_slice());
                    },
                );
            }
            sb.node(
                NodeSpec::new("V2")
                    .reads(&[h0_sample, w, b_vis])
                    .writes(&[v1_prob])
                    .phase("backward"),
                move |ctx, s: &mut CdState<'_>| {
                    let (rbm, scr) = (&*s.rbm, &mut *s.scratch);
                    rbm.prop_down(ctx, scr.h0_sample.rows_range(0, b), &mut scr.v1_prob);
                },
            );
            if step == 0 {
                // Reconstruction error; writes a state scalar the buffer
                // analysis cannot see, hence exclusive.
                sb.node(
                    NodeSpec::new("RE")
                        .reads(&[v1_prob, v0])
                        .exclusive()
                        .phase("backward"),
                    move |ctx, s: &mut CdState<'_>| {
                        let (scr, v) = (&*s.scratch, s.v0);
                        s.recon_err = ctx.frob_dist_sq(scr.v1_prob.rows_range(0, b), v) / b as f64;
                    },
                );
            }
            sb.node(
                NodeSpec::new("H2")
                    .reads(&[v1_prob, w, c_hid])
                    .writes(&[h1_prob])
                    .phase("backward"),
                move |ctx, s: &mut CdState<'_>| {
                    let (rbm, scr) = (&*s.rbm, &mut *s.scratch);
                    rbm.prop_up(ctx, scr.v1_prob.rows_range(0, b), &mut scr.h1_prob);
                },
            );
        }
    }
}

/// Sufficient statistics: pos = H0'V0, neg = H1'V1 (probabilities —
/// Hinton §3) under `Grads(Weights)`, the four bias column means under
/// `Grads(Biases)`.
struct CdStats {
    n_visible: usize,
    n_hidden: usize,
    b: usize,
}

impl<'a> Layer<CdState<'a>> for CdStats {
    fn declare(&self, sb: &mut StackBuilder<CdState<'a>>, what: Decl) {
        let (v, h) = (self.n_visible, self.n_hidden);
        match what {
            // Statistics are read after the run (momentum folds them into
            // velocity buffers), so they keep dedicated storage.
            Decl::Grads(Part::Weights) => {
                sb.bind_dims(RBM, "pos_stats", "pos_stats", &[h, v], BufClass::Pinned);
                sb.bind_dims(RBM, "neg_stats", "neg_stats", &[h, v], BufClass::Pinned);
            }
            Decl::Grads(Part::Biases) => {
                sb.bind_dims(RBM, "vis_pos", "vis_pos", &[v], BufClass::Pinned);
                sb.bind_dims(RBM, "vis_neg", "vis_neg", &[v], BufClass::Pinned);
                sb.bind_dims(RBM, "hid_pos", "hid_pos", &[h], BufClass::Pinned);
                sb.bind_dims(RBM, "hid_neg", "hid_neg", &[h], BufClass::Pinned);
            }
            _ => {}
        }
    }

    fn emit(&self, sb: &mut StackBuilder<CdState<'a>>, what: Emit) {
        let b = self.b;
        let inv_b = 1.0 / b as f32;
        match what {
            Emit::Grads(Part::Weights) => {
                let (v0, h0_prob, pos_stats) = (
                    sb.global("v0"),
                    sb.buf(RBM, "h0_prob"),
                    sb.buf(RBM, "pos_stats"),
                );
                sb.node(
                    NodeSpec::new("POS")
                        .reads(&[h0_prob, v0])
                        .writes(&[pos_stats])
                        .phase("backward"),
                    move |ctx, s: &mut CdState<'_>| {
                        let scr = &mut *s.scratch;
                        ctx.gemm(
                            inv_b,
                            scr.h0_prob.rows_range(0, b),
                            true,
                            s.v0,
                            false,
                            0.0,
                            &mut scr.pos_stats.view_mut(),
                        );
                    },
                );
                let (h1_prob, v1_prob, neg_stats) = (
                    sb.buf(RBM, "h1_prob"),
                    sb.buf(RBM, "v1_prob"),
                    sb.buf(RBM, "neg_stats"),
                );
                sb.node(
                    NodeSpec::new("NEG")
                        .reads(&[h1_prob, v1_prob])
                        .writes(&[neg_stats])
                        .phase("backward"),
                    move |ctx, s: &mut CdState<'_>| {
                        let scr = &mut *s.scratch;
                        let (h1p, v1p, neg) = (&scr.h1_prob, &scr.v1_prob, &mut scr.neg_stats);
                        ctx.gemm(
                            inv_b,
                            h1p.rows_range(0, b),
                            true,
                            v1p.rows_range(0, b),
                            false,
                            0.0,
                            &mut neg.view_mut(),
                        );
                    },
                );
            }
            Emit::Grads(Part::Biases) => {
                let (v0, vis_pos) = (sb.global("v0"), sb.buf(RBM, "vis_pos"));
                sb.node(
                    NodeSpec::new("VPOS")
                        .reads(&[v0])
                        .writes(&[vis_pos])
                        .phase("backward"),
                    move |ctx, s: &mut CdState<'_>| {
                        let v = s.v0;
                        ctx.colmean(v, &mut s.scratch.vis_pos);
                    },
                );
                let (v1_prob, vis_neg) = (sb.buf(RBM, "v1_prob"), sb.buf(RBM, "vis_neg"));
                sb.node(
                    NodeSpec::new("VNEG")
                        .reads(&[v1_prob])
                        .writes(&[vis_neg])
                        .phase("backward"),
                    move |ctx, s: &mut CdState<'_>| {
                        let scr = &mut *s.scratch;
                        let (v1, out) = (&scr.v1_prob, &mut scr.vis_neg);
                        ctx.colmean(v1.rows_range(0, b), out);
                    },
                );
                let (h0_prob, hid_pos) = (sb.buf(RBM, "h0_prob"), sb.buf(RBM, "hid_pos"));
                sb.node(
                    NodeSpec::new("HPOS")
                        .reads(&[h0_prob])
                        .writes(&[hid_pos])
                        .phase("backward"),
                    move |ctx, s: &mut CdState<'_>| {
                        let scr = &mut *s.scratch;
                        let (hp, out) = (&scr.h0_prob, &mut scr.hid_pos);
                        ctx.colmean(hp.rows_range(0, b), out);
                    },
                );
                let (h1_prob, hid_neg) = (sb.buf(RBM, "h1_prob"), sb.buf(RBM, "hid_neg"));
                sb.node(
                    NodeSpec::new("HNEG")
                        .reads(&[h1_prob])
                        .writes(&[hid_neg])
                        .phase("backward"),
                    move |ctx, s: &mut CdState<'_>| {
                        let scr = &mut *s.scratch;
                        let (h1p, out) = (&scr.h1_prob, &mut scr.hid_neg);
                        ctx.colmean(h1p.rows_range(0, b), out);
                    },
                );
            }
            _ => {}
        }
    }
}

/// Updates (paper eqs. 11–13): the figure's last rank, mutually
/// independent — Vw under `Update(Weights)`, Vb and Vc under
/// `Update(Biases)`.
struct CdUpdates;

impl<'a> Layer<CdState<'a>> for CdUpdates {
    fn emit(&self, sb: &mut StackBuilder<CdState<'a>>, what: Emit) {
        match what {
            Emit::Update(Part::Weights) => {
                let (pos_stats, neg_stats, w) = (
                    sb.buf(RBM, "pos_stats"),
                    sb.buf(RBM, "neg_stats"),
                    sb.buf(RBM, "w"),
                );
                sb.node(
                    NodeSpec::new("Vw")
                        .reads(&[pos_stats, neg_stats, w])
                        .writes(&[w])
                        .phase("update"),
                    move |ctx, s: &mut CdState<'_>| {
                        let (rbm, scr) = (&mut *s.rbm, &*s.scratch);
                        ctx.cd_update(
                            s.lr,
                            scr.pos_stats.as_slice(),
                            scr.neg_stats.as_slice(),
                            rbm.w.as_mut_slice(),
                        );
                    },
                );
            }
            Emit::Update(Part::Biases) => {
                let (vis_pos, vis_neg, b_vis) = (
                    sb.buf(RBM, "vis_pos"),
                    sb.buf(RBM, "vis_neg"),
                    sb.buf(RBM, "b_vis"),
                );
                sb.node(
                    NodeSpec::new("Vb")
                        .reads(&[vis_pos, vis_neg, b_vis])
                        .writes(&[b_vis])
                        .phase("update"),
                    move |ctx, s: &mut CdState<'_>| {
                        let (rbm, scr) = (&mut *s.rbm, &*s.scratch);
                        ctx.cd_update(s.lr, &scr.vis_pos, &scr.vis_neg, &mut rbm.b_vis);
                    },
                );
                let (hid_pos, hid_neg, c_hid) = (
                    sb.buf(RBM, "hid_pos"),
                    sb.buf(RBM, "hid_neg"),
                    sb.buf(RBM, "c_hid"),
                );
                sb.node(
                    NodeSpec::new("Vc")
                        .reads(&[hid_pos, hid_neg, c_hid])
                        .writes(&[c_hid])
                        .phase("update"),
                    move |ctx, s: &mut CdState<'_>| {
                        let (rbm, scr) = (&mut *s.rbm, &*s.scratch);
                        ctx.cd_update(s.lr, &scr.hid_pos, &scr.hid_neg, &mut rbm.c_hid);
                    },
                );
            }
            _ => {}
        }
    }
}

/// Builds the CD-k step over `b` examples as a [`StackBuilder`] recipe
/// over the data/chain/statistics/update layers, whose declaration order
/// is exactly the serial op order of the classic `cd_step` loop. Storage
/// is bound to the fields of [`RbmScratch`]; the declarations describe
/// their sizes and lifetimes to the planner.
///
/// Public so integration tests can run every shipped graph shape through
/// [`TaskGraph::verify`]; training entry points use it via
/// [`cd_step_graph`] and [`Rbm::cd_step`].
pub fn build_cd_graph<'a>(
    n_visible: usize,
    n_hidden: usize,
    b: usize,
    cd_steps: usize,
) -> TaskGraph<'static, CdState<'a>> {
    assert!(cd_steps >= 1, "CD needs at least one step");
    let mut sb: StackBuilder<CdState<'a>> = StackBuilder::new();
    let data = CdData {
        n_visible,
        n_hidden,
        b,
    };
    let chain = CdChain {
        n_visible,
        n_hidden,
        b,
        cd_steps,
    };
    let stats = CdStats {
        n_visible,
        n_hidden,
        b,
    };
    let updates = CdUpdates;

    // Historical declaration order: batch, parameters, the four chain
    // temporaries, then the pinned statistics. The Gibbs sampling nodes
    // (S1/Sk) all draw through one declared counter-RNG cursor.
    sb.declare_rng_cursor("gibbs");
    sb.bind_global_dims("v0", "v0", &[b, n_visible], BufClass::External);
    data.declare(&mut sb, Decl::Params);
    data.declare(&mut sb, Decl::Acts);
    chain.declare(&mut sb, Decl::Acts);
    stats.declare(&mut sb, Decl::Grads(Part::Weights));
    stats.declare(&mut sb, Decl::Grads(Part::Biases));

    // Historical node order: H1+S1, the Gibbs chain, POS/NEG, the bias
    // means, then the three updates.
    data.emit(&mut sb, Emit::Forward);
    chain.emit(&mut sb, Emit::Backward);
    stats.emit(&mut sb, Emit::Grads(Part::Weights));
    stats.emit(&mut sb, Emit::Grads(Part::Biases));
    updates.emit(&mut sb, Emit::Update(Part::Weights));
    updates.emit(&mut sb, Emit::Update(Part::Biases));
    sb.finish()
}

/// One CD-k update scheduled as the Fig. 6 dependency graph.
///
/// Bit-identical to [`Rbm::cd_step`] given the same sampler state — both
/// run the same graph, this one under the critical-path schedule. Returns
/// the reconstruction error and the schedule.
pub fn cd_step_graph(
    rbm: &mut Rbm,
    ctx: &ExecCtx,
    v0: MatView<'_>,
    scratch: &mut RbmScratch,
    learning_rate: f32,
) -> (f64, GraphRun) {
    let b = v0.rows();
    assert!(b > 0, "empty batch");
    assert!(b <= scratch.capacity(), "batch exceeds scratch capacity");
    let cfg = *rbm.config();
    let mut g = build_cd_graph(cfg.n_visible, cfg.n_hidden, b, cfg.cd_steps);
    let mut state = CdState {
        rbm,
        scratch,
        v0,
        lr: learning_rate,
        recon_err: 0.0,
    };
    let run = g.execute(ctx, &mut state);
    (state.recon_err, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecCtx, OptLevel};
    use crate::rbm::RbmConfig;
    use micdnn_sim::Platform;
    use micdnn_tensor::Mat;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Structured binary data (two alternating prototypes + flip noise) so
    /// CD training has something to learn.
    fn batch(b: usize, v: usize, seed: u64) -> Mat {
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
    fn graph_step_matches_serial_step_bitwise() {
        let cfg = RbmConfig::new(14, 9);
        let v = batch(20, 14, 1);

        let mut rbm_serial = Rbm::new(cfg, 2);
        let ctx_serial = ExecCtx::native(OptLevel::Improved, 3);
        let mut s_serial = RbmScratch::new(&cfg, 20);

        let mut rbm_graph = Rbm::new(cfg, 2);
        let ctx_graph = ExecCtx::native(OptLevel::Improved, 3);
        let mut s_graph = RbmScratch::new(&cfg, 20);

        for _ in 0..5 {
            let e1 = rbm_serial.cd_step(&ctx_serial, v.view(), &mut s_serial, 0.1);
            let (e2, _) = cd_step_graph(&mut rbm_graph, &ctx_graph, v.view(), &mut s_graph, 0.1);
            assert_eq!(e1, e2, "reconstruction errors diverged");
        }
        assert_eq!(rbm_serial.w.as_slice(), rbm_graph.w.as_slice());
        assert_eq!(rbm_serial.b_vis, rbm_graph.b_vis);
        assert_eq!(rbm_serial.c_hid, rbm_graph.c_hid);
    }

    #[test]
    fn cdk_graph_matches_serial_step_bitwise() {
        let cfg = RbmConfig::new(12, 7).with_cd_steps(3);
        let v = batch(16, 12, 21);

        let mut rbm_serial = Rbm::new(cfg, 22);
        let ctx_serial = ExecCtx::native(OptLevel::Improved, 23);
        let mut s_serial = RbmScratch::new(&cfg, 16);

        let mut rbm_graph = Rbm::new(cfg, 22);
        let ctx_graph = ExecCtx::native(OptLevel::Improved, 23);
        let mut s_graph = RbmScratch::new(&cfg, 16);

        for _ in 0..5 {
            let e1 = rbm_serial.cd_step(&ctx_serial, v.view(), &mut s_serial, 0.1);
            let (e2, _) = cd_step_graph(&mut rbm_graph, &ctx_graph, v.view(), &mut s_graph, 0.1);
            assert_eq!(e1, e2, "reconstruction errors diverged");
        }
        assert_eq!(rbm_serial.w.as_slice(), rbm_graph.w.as_slice());
        assert_eq!(rbm_serial.b_vis, rbm_graph.b_vis);
        assert_eq!(rbm_serial.c_hid, rbm_graph.c_hid);
        // Same sampler cursor after either path: stream order preserved.
        assert_eq!(ctx_serial.rng_state(), ctx_graph.rng_state());
    }

    #[test]
    fn critical_path_beats_serial_schedule() {
        let cfg = RbmConfig::new(256, 512);
        let mut rbm = Rbm::new(cfg, 4);
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 5);
        let mut scratch = RbmScratch::new(&cfg, 64);
        let v = batch(64, 256, 6);
        let (_, run) = cd_step_graph(&mut rbm, &ctx, v.view(), &mut scratch, 0.1);
        assert!(
            run.critical_path < run.serial_time,
            "graph gained nothing: cp {} vs serial {}",
            run.critical_path,
            run.serial_time
        );
        assert!(
            run.speedup() > 1.0 && run.speedup() < 3.0,
            "speedup {}",
            run.speedup()
        );
        assert!((ctx.sim_time() - run.critical_path).abs() < 1e-9);
    }

    #[test]
    fn graph_training_converges() {
        let cfg = RbmConfig::new(16, 10);
        let mut rbm = Rbm::new(cfg, 7);
        let ctx = ExecCtx::native(OptLevel::Improved, 8);
        let mut scratch = RbmScratch::new(&cfg, 32);
        let v = batch(32, 16, 9);
        let mut first = 0.0;
        let mut last = 0.0;
        for i in 0..200 {
            let (e, _) = cd_step_graph(&mut rbm, &ctx, v.view(), &mut scratch, 0.1);
            if i == 0 {
                first = e;
            }
            last = e;
        }
        assert!(last < 0.7 * first, "{first} -> {last}");
    }

    #[test]
    fn planner_aliases_hidden_samples_with_recon_hiddens() {
        // The paper's Table 1 network: 1024 visibles, 4096 hiddens. For
        // CD-1 the hidden samples die at V2, before the reconstruction
        // hiddens are born at H2, so one `b x h` buffer is saved.
        let (v, h, b) = (1024, 4096, 100);
        let g = build_cd_graph(v, h, b, 1);
        let plan = g.plan();
        assert_eq!(
            plan.peak_elems() + b * h,
            plan.total_declared_elems(),
            "planner should fold h0_sample into h1_prob's register"
        );
        assert!(plan.peak_elems() < plan.total_declared_elems());

        // CD-k resamples from h1_prob while h0_sample is live, so the
        // alias is illegal there — the planner must keep them apart.
        let g2 = build_cd_graph(v, h, b, 2);
        let plan2 = g2.plan();
        assert_eq!(plan2.peak_elems(), plan2.total_declared_elems());
    }
}
