//! The sparse-autoencoder step (forward, squared-error + KL-sparsity
//! backward, parameter update) as a declared-buffer dependency graph —
//! the AE counterpart of the paper's Fig. 6 CD graph.
//!
//! ```text
//! F1  = sigmoid(x W1' + b1)            (root)
//! F2  = sigmoid(F1 W2' + b2)           (needs F1)
//! COST= ‖a3 - x‖²/2m + λ/2 ‖W‖²        (needs F2)
//! RHO = colmean(a2)                    (needs F1)    — concurrent with F2
//! KL  = sparsity term s(ρ̂)            (needs RHO)
//! D3  = (a3 - x) ⊙ σ'(a3)              (needs F2)
//! GW2 = D3' a2 / b ; GB2 = colmean(D3) (need D3)     — mutually concurrent
//! D2  = (D3 W2 + s) ⊙ σ'(a2)           (needs D3, KL)
//! GW1 = D2' x / b ; GB1 = colmean(D2)  (need D2)     — mutually concurrent
//! U*  = per-tensor parameter updates   (each needs only its gradient)
//! ```
//!
//! One builder backs both execution styles, exactly as for CD:
//! [`SparseAutoencoder::cost_and_grad`] and
//! [`SparseAutoencoder::train_batch`] run the graph with
//! [`TaskGraph::run_serial`] — declaration order is the original serial op
//! order, so weights, sampling streams, recorded op streams and profiling
//! spans are bit-for-bit what the hand-rolled loop produced — while
//! [`ae_step_graph`] runs it with [`TaskGraph::execute`] under the
//! critical-path schedule.
//!
//! Unlike CD-1, the AE step offers the planner no aliasing opportunity:
//! `delta3` stays live into `D2`, `delta2` overlaps `s_term` and `rho_hat`
//! feeds `KL` while `delta3` is in flight — every scratch pair interferes.
//! The declarations still pay their way: the planner proves the peak is
//! irreducible instead of leaving it to folklore, and the executor uses
//! the same footprints to pick concurrency waves.

use crate::autoencoder::{AeCost, AeScratch, SparseAutoencoder};
use crate::exec::ExecCtx;
use crate::graph::{BufClass, GraphRun, NodeSpec, TaskGraph};
use crate::layers::{Decl, Emit, Layer, Part, StackBuilder};
use crate::optim::Optimizer;
use micdnn_kernels::fused::kl_sparsity;
use micdnn_kernels::vecops;
use micdnn_tensor::MatView;

/// Model parameters threaded through an AE graph run: shared for
/// gradient-only runs, mutable when the graph includes update nodes.
pub(crate) enum AeParams<'a> {
    Shared(&'a SparseAutoencoder),
    Mut(&'a mut SparseAutoencoder),
}

impl AeParams<'_> {
    pub(crate) fn get(&self) -> &SparseAutoencoder {
        match self {
            AeParams::Shared(ae) => ae,
            AeParams::Mut(ae) => ae,
        }
    }

    fn get_mut(&mut self) -> &mut SparseAutoencoder {
        match self {
            AeParams::Mut(ae) => ae,
            AeParams::Shared(_) => {
                unreachable!("update nodes are only built over mutable parameters")
            }
        }
    }
}

/// Mutable state one AE graph run threads through its nodes.
pub struct AeState<'a> {
    pub(crate) params: AeParams<'a>,
    pub(crate) scratch: &'a mut AeScratch,
    pub(crate) x: MatView<'a>,
    /// What `a3` is scored against (D3, COST). The input itself, except
    /// for a denoising step, which feeds a corrupted `x` and targets the
    /// clean batch.
    pub(crate) target: MatView<'a>,
    pub(crate) opt: Option<&'a mut Optimizer>,
    pub(crate) lr: f32,
    pub(crate) cost: AeCost,
}

impl<'a> AeState<'a> {
    /// State for one step on `x`, reconstructing `x` itself.
    pub(crate) fn new(
        params: AeParams<'a>,
        scratch: &'a mut AeScratch,
        x: MatView<'a>,
        opt: Option<&'a mut Optimizer>,
        lr: f32,
    ) -> Self {
        AeState {
            params,
            scratch,
            x,
            target: x,
            opt,
            lr,
            cost: AeCost {
                reconstruction: 0.0,
                weight_penalty: 0.0,
                sparsity_penalty: 0.0,
            },
        }
    }
}

/// How (and whether) the graph updates the parameters after the backward
/// pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AeUpdate {
    /// Gradients only ([`SparseAutoencoder::cost_and_grad`]).
    None,
    /// Plain SGD with the state's learning rate.
    Sgd,
    /// Through the state's [`Optimizer`] (slots 0..4 = w1, w2, b1, b2),
    /// advancing its schedule.
    Opt,
}

// Registry slots for the AE stack: encoder, decoder, sparsity block.
const ENC: usize = 0;
const DEC: usize = 1;
const SPARS: usize = 2;

/// Encoder half: F1 forward, D2 backward (two sweeps, as the serial path
/// does), GW1/GB1 gradients, U1/U3 updates.
struct AeEncode {
    n_visible: usize,
    n_hidden: usize,
    b: usize,
    update: AeUpdate,
}

impl<'a> Layer<AeState<'a>> for AeEncode {
    fn tag(&self) -> &'static str {
        "ae-encode"
    }

    fn declare(&self, sb: &mut StackBuilder<AeState<'a>>, what: Decl) {
        let (v, h, b) = (self.n_visible, self.n_hidden, self.b);
        match what {
            // Parameters and input: analysis-only externals.
            Decl::Params => {
                sb.bind_dims(ENC, "w", "w1", &[h, v], BufClass::External);
                sb.bind_dims(ENC, "b", "b1", &[h], BufClass::External);
            }
            // Activations are pinned: `AeScratch::hidden` exposes them
            // after the run (encode-by-inspection, tests, stacking).
            Decl::Acts => {
                sb.bind_dims(ENC, "act", "a2", &[b, h], BufClass::Pinned);
            }
            Decl::Deltas => {
                sb.bind_dims(ENC, "delta", "delta2", &[b, h], BufClass::Scratch);
            }
            // Gradients are pinned: consumed after the run by optimizer
            // steps or hybrid blending (`AeScratch::gradients`).
            Decl::Grads(Part::Weights) => {
                sb.bind_dims(ENC, "gw", "gw1", &[h, v], BufClass::Pinned);
            }
            Decl::Grads(Part::Biases) => {
                sb.bind_dims(ENC, "gb", "gb1", &[h], BufClass::Pinned);
            }
        }
    }

    fn emit(&self, sb: &mut StackBuilder<AeState<'a>>, what: Emit) {
        let b = self.b;
        let inv_b = 1.0 / b as f32;
        match what {
            // F1: a2 = sigmoid(x W1^T + b1).
            Emit::Forward => {
                let (x, w1, b1, a2) = (
                    sb.global("x"),
                    sb.buf(ENC, "w"),
                    sb.buf(ENC, "b"),
                    sb.buf(ENC, "act"),
                );
                sb.node(
                    NodeSpec::new("F1")
                        .reads(&[x, w1, b1])
                        .writes(&[a2])
                        .phase("forward"),
                    move |ctx, s: &mut AeState<'_>| {
                        let ae = s.params.get();
                        let mut a2 = s.scratch.a2.rows_range_mut(0, b);
                        ctx.gemm(1.0, s.x, false, ae.w1.view(), true, 0.0, &mut a2);
                        ctx.bias_sigmoid_rows(&ae.b1, &mut a2);
                    },
                );
            }
            // D2: delta2 = (delta3 W2 + s) ⊙ a2 ⊙ (1 - a2), in two sweeps
            // as the serial path does.
            Emit::Backward => {
                let (delta3, w2, delta2) =
                    (sb.buf(DEC, "delta"), sb.buf(DEC, "w"), sb.buf(ENC, "delta"));
                sb.node(
                    NodeSpec::new("D2a")
                        .reads(&[delta3, w2])
                        .writes(&[delta2])
                        .phase("backward"),
                    move |ctx, s: &mut AeState<'_>| {
                        let ae = s.params.get();
                        let scr = &mut *s.scratch;
                        let (d3, d2) = (&scr.delta3, &mut scr.delta2);
                        let mut d2 = d2.rows_range_mut(0, b);
                        ctx.gemm(
                            1.0,
                            d3.rows_range(0, b),
                            false,
                            ae.w2.view(),
                            false,
                            0.0,
                            &mut d2,
                        );
                    },
                );
                let (s_term, a2) = (sb.buf(SPARS, "s_term"), sb.buf(ENC, "act"));
                sb.node(
                    NodeSpec::new("D2b")
                        .reads(&[s_term, a2, delta2])
                        .writes(&[delta2])
                        .phase("backward"),
                    move |ctx, s: &mut AeState<'_>| {
                        let scr = &mut *s.scratch;
                        let (a2m, delta2m, st) = (&scr.a2, &mut scr.delta2, &scr.s_term);
                        let mut d2 = delta2m.rows_range_mut(0, b);
                        ctx.bias_deriv_rows(st, a2m.rows_range(0, b), &mut d2);
                    },
                );
            }
            // GW1 = 1/b delta2^T x ; GB1 = 1/b colsum(delta2).
            Emit::Grads(Part::Weights) => {
                let (delta2, x, gw1) = (sb.buf(ENC, "delta"), sb.global("x"), sb.buf(ENC, "gw"));
                sb.node(
                    NodeSpec::new("GW1")
                        .reads(&[delta2, x])
                        .writes(&[gw1])
                        .phase("backward"),
                    move |ctx, s: &mut AeState<'_>| {
                        let scr = &mut *s.scratch;
                        let (d2, out) = (&scr.delta2, &mut scr.gw1);
                        ctx.gemm(
                            inv_b,
                            d2.rows_range(0, b),
                            true,
                            s.x,
                            false,
                            0.0,
                            &mut out.view_mut(),
                        );
                    },
                );
            }
            Emit::Grads(Part::Biases) => {
                let (delta2, gb1) = (sb.buf(ENC, "delta"), sb.buf(ENC, "gb"));
                sb.node(
                    NodeSpec::new("GB1")
                        .reads(&[delta2])
                        .writes(&[gb1])
                        .phase("backward"),
                    move |ctx, s: &mut AeState<'_>| {
                        let scr = &mut *s.scratch;
                        let (d2, out) = (&scr.delta2, &mut scr.gb1);
                        ctx.colmean(d2.rows_range(0, b), out);
                    },
                );
            }
            Emit::Update(Part::Weights) => {
                let (gw1, w1) = (sb.buf(ENC, "gw"), sb.buf(ENC, "w"));
                match self.update {
                    AeUpdate::None => {}
                    AeUpdate::Sgd => sb.node(
                        NodeSpec::new("U1")
                            .reads(&[gw1, w1])
                            .writes(&[w1])
                            .phase("update"),
                        move |ctx, s: &mut AeState<'_>| {
                            let ae = s.params.get_mut();
                            let lambda = ae.config().weight_decay;
                            ctx.sgd_step(
                                s.lr,
                                lambda,
                                s.scratch.gw1.as_slice(),
                                ae.w1.as_mut_slice(),
                            );
                        },
                    ),
                    AeUpdate::Opt => sb.node(
                        NodeSpec::new("U1")
                            .reads(&[gw1, w1])
                            .writes(&[w1])
                            .exclusive()
                            .phase("update"),
                        move |ctx, s: &mut AeState<'_>| {
                            let ae = s.params.get_mut();
                            let lambda = ae.config().weight_decay;
                            let opt = s.opt.as_deref_mut().expect("optimizer-mode graph");
                            opt.step_slot(
                                ctx,
                                0,
                                lambda,
                                s.scratch.gw1.as_slice(),
                                ae.w1.as_mut_slice(),
                            );
                        },
                    ),
                }
            }
            Emit::Update(Part::Biases) => {
                let (gb1, b1) = (sb.buf(ENC, "gb"), sb.buf(ENC, "b"));
                match self.update {
                    AeUpdate::None => {}
                    AeUpdate::Sgd => sb.node(
                        NodeSpec::new("U3")
                            .reads(&[gb1, b1])
                            .writes(&[b1])
                            .phase("update"),
                        move |ctx, s: &mut AeState<'_>| {
                            let ae = s.params.get_mut();
                            ctx.sgd_step(s.lr, 0.0, &s.scratch.gb1, &mut ae.b1);
                        },
                    ),
                    AeUpdate::Opt => sb.node(
                        NodeSpec::new("U3")
                            .reads(&[gb1, b1])
                            .writes(&[b1])
                            .exclusive()
                            .phase("update"),
                        move |ctx, s: &mut AeState<'_>| {
                            let ae = s.params.get_mut();
                            let opt = s.opt.as_deref_mut().expect("optimizer-mode graph");
                            opt.step_slot(ctx, 2, 0.0, &s.scratch.gb1, &mut ae.b1);
                        },
                    ),
                }
            }
        }
    }
}

/// Decoder half: F2 forward, D3 backward, GW2/GB2 gradients, U2/U4
/// updates (U4 advances the optimizer schedule in `Opt` mode — it is the
/// graph's last update node).
struct AeDecode {
    n_visible: usize,
    n_hidden: usize,
    b: usize,
    update: AeUpdate,
}

impl<'a> Layer<AeState<'a>> for AeDecode {
    fn tag(&self) -> &'static str {
        "ae-decode"
    }

    fn declare(&self, sb: &mut StackBuilder<AeState<'a>>, what: Decl) {
        let (v, h, b) = (self.n_visible, self.n_hidden, self.b);
        match what {
            Decl::Params => {
                sb.bind_dims(DEC, "w", "w2", &[v, h], BufClass::External);
                sb.bind_dims(DEC, "b", "b2", &[v], BufClass::External);
            }
            Decl::Acts => {
                sb.bind_dims(DEC, "act", "a3", &[b, v], BufClass::Pinned);
            }
            // Backward temporaries: aliasing candidates (none exist for
            // this DAG — see the module docs — but the planner gets to
            // prove that).
            Decl::Deltas => {
                sb.bind_dims(DEC, "delta", "delta3", &[b, v], BufClass::Scratch);
            }
            Decl::Grads(Part::Weights) => {
                sb.bind_dims(DEC, "gw", "gw2", &[v, h], BufClass::Pinned);
            }
            Decl::Grads(Part::Biases) => {
                sb.bind_dims(DEC, "gb", "gb2", &[v], BufClass::Pinned);
            }
        }
    }

    fn emit(&self, sb: &mut StackBuilder<AeState<'a>>, what: Emit) {
        let b = self.b;
        let inv_b = 1.0 / b as f32;
        match what {
            // F2: a3 = sigmoid(a2 W2^T + b2).
            Emit::Forward => {
                let (a2, w2, b2, a3) = (
                    sb.buf(ENC, "act"),
                    sb.buf(DEC, "w"),
                    sb.buf(DEC, "b"),
                    sb.buf(DEC, "act"),
                );
                sb.node(
                    NodeSpec::new("F2")
                        .reads(&[a2, w2, b2])
                        .writes(&[a3])
                        .phase("forward"),
                    move |ctx, s: &mut AeState<'_>| {
                        let ae = s.params.get();
                        let scr = &mut *s.scratch;
                        let a2v = scr.a2.rows_range(0, b);
                        let mut a3 = scr.a3.rows_range_mut(0, b);
                        ctx.gemm(1.0, a2v, false, ae.w2.view(), true, 0.0, &mut a3);
                        ctx.bias_sigmoid_rows(&ae.b2, &mut a3);
                    },
                );
            }
            // D3: delta3 = (a3 - target) ⊙ a3 ⊙ (1 - a3).
            Emit::Backward => {
                let (a3, x, delta3) = (sb.buf(DEC, "act"), sb.global("x"), sb.buf(DEC, "delta"));
                sb.node(
                    NodeSpec::new("D3")
                        .reads(&[a3, x])
                        .writes(&[delta3])
                        .phase("backward"),
                    move |ctx, s: &mut AeState<'_>| {
                        let scr = &mut *s.scratch;
                        let (a3s, d3) = (
                            scr.a3.rows_range(0, b),
                            &mut scr.delta3.rows_range_mut(0, b),
                        );
                        ctx.delta_output(a3s.as_slice(), s.target.as_slice(), d3.as_mut_slice());
                    },
                );
            }
            // GW2 = 1/b delta3^T a2 ; GB2 = 1/b colsum(delta3).
            Emit::Grads(Part::Weights) => {
                let (delta3, a2, gw2) =
                    (sb.buf(DEC, "delta"), sb.buf(ENC, "act"), sb.buf(DEC, "gw"));
                sb.node(
                    NodeSpec::new("GW2")
                        .reads(&[delta3, a2])
                        .writes(&[gw2])
                        .phase("backward"),
                    move |ctx, s: &mut AeState<'_>| {
                        let scr = &mut *s.scratch;
                        let (d3, a2m, out) = (&scr.delta3, &scr.a2, &mut scr.gw2);
                        ctx.gemm(
                            inv_b,
                            d3.rows_range(0, b),
                            true,
                            a2m.rows_range(0, b),
                            false,
                            0.0,
                            &mut out.view_mut(),
                        );
                    },
                );
            }
            Emit::Grads(Part::Biases) => {
                let (delta3, gb2) = (sb.buf(DEC, "delta"), sb.buf(DEC, "gb"));
                sb.node(
                    NodeSpec::new("GB2")
                        .reads(&[delta3])
                        .writes(&[gb2])
                        .phase("backward"),
                    move |ctx, s: &mut AeState<'_>| {
                        let scr = &mut *s.scratch;
                        let (d3, out) = (&scr.delta3, &mut scr.gb2);
                        ctx.colmean(d3.rows_range(0, b), out);
                    },
                );
            }
            Emit::Update(Part::Weights) => {
                let (gw2, w2) = (sb.buf(DEC, "gw"), sb.buf(DEC, "w"));
                match self.update {
                    AeUpdate::None => {}
                    AeUpdate::Sgd => sb.node(
                        NodeSpec::new("U2")
                            .reads(&[gw2, w2])
                            .writes(&[w2])
                            .phase("update"),
                        move |ctx, s: &mut AeState<'_>| {
                            let ae = s.params.get_mut();
                            let lambda = ae.config().weight_decay;
                            ctx.sgd_step(
                                s.lr,
                                lambda,
                                s.scratch.gw2.as_slice(),
                                ae.w2.as_mut_slice(),
                            );
                        },
                    ),
                    AeUpdate::Opt => sb.node(
                        NodeSpec::new("U2")
                            .reads(&[gw2, w2])
                            .writes(&[w2])
                            .exclusive()
                            .phase("update"),
                        move |ctx, s: &mut AeState<'_>| {
                            let ae = s.params.get_mut();
                            let lambda = ae.config().weight_decay;
                            let opt = s.opt.as_deref_mut().expect("optimizer-mode graph");
                            opt.step_slot(
                                ctx,
                                1,
                                lambda,
                                s.scratch.gw2.as_slice(),
                                ae.w2.as_mut_slice(),
                            );
                        },
                    ),
                }
            }
            Emit::Update(Part::Biases) => {
                let (gb2, b2) = (sb.buf(DEC, "gb"), sb.buf(DEC, "b"));
                match self.update {
                    AeUpdate::None => {}
                    AeUpdate::Sgd => sb.node(
                        NodeSpec::new("U4")
                            .reads(&[gb2, b2])
                            .writes(&[b2])
                            .phase("update"),
                        move |ctx, s: &mut AeState<'_>| {
                            let ae = s.params.get_mut();
                            ctx.sgd_step(s.lr, 0.0, &s.scratch.gb2, &mut ae.b2);
                        },
                    ),
                    AeUpdate::Opt => sb.node(
                        NodeSpec::new("U4")
                            .reads(&[gb2, b2])
                            .writes(&[b2])
                            .exclusive()
                            .phase("update"),
                        move |ctx, s: &mut AeState<'_>| {
                            let ae = s.params.get_mut();
                            let opt = s.opt.as_deref_mut().expect("optimizer-mode graph");
                            opt.step_slot(ctx, 3, 0.0, &s.scratch.gb2, &mut ae.b2);
                            opt.advance();
                        },
                    ),
                }
            }
        }
    }
}

/// The KL-sparsity block: RHO (mean hidden activation, paper eq. 5's ρ̂)
/// and KL (the penalty and its backward term).
struct AeSparsity {
    n_hidden: usize,
    b: usize,
}

impl<'a> Layer<AeState<'a>> for AeSparsity {
    fn tag(&self) -> &'static str {
        "ae-sparsity"
    }

    fn declare(&self, sb: &mut StackBuilder<AeState<'a>>, what: Decl) {
        if what == Decl::Acts {
            sb.bind_dims(SPARS, "rho", "rho_hat", &[self.n_hidden], BufClass::Scratch);
            sb.bind_dims(
                SPARS,
                "s_term",
                "s_term",
                &[self.n_hidden],
                BufClass::Scratch,
            );
        }
    }

    fn emit(&self, sb: &mut StackBuilder<AeState<'a>>, what: Emit) {
        if what != Emit::Forward {
            return;
        }
        let b = self.b;
        // RHO: mean hidden activation over the batch.
        let (a2, rho_hat) = (sb.buf(ENC, "act"), sb.buf(SPARS, "rho"));
        sb.node(
            NodeSpec::new("RHO")
                .reads(&[a2])
                .writes(&[rho_hat])
                .phase("backward"),
            move |ctx, s: &mut AeState<'_>| {
                let scr = &mut *s.scratch;
                let (a2m, out) = (&scr.a2, &mut scr.rho_hat);
                ctx.colmean(a2m.rows_range(0, b), out);
            },
        );
        // KL: sparsity penalty and its backward term s(ρ̂) (writes a state
        // scalar, hence exclusive).
        let s_term = sb.buf(SPARS, "s_term");
        sb.node(
            NodeSpec::new("KL")
                .reads(&[rho_hat])
                .writes(&[s_term])
                .exclusive()
                .phase("backward"),
            move |_ctx, s: &mut AeState<'_>| {
                let cfg = *s.params.get().config();
                let scr = &mut *s.scratch;
                s.cost.sparsity_penalty = if cfg.sparsity_weight > 0.0 {
                    // kl_sparsity returns the raw KL sum; the objective's
                    // penalty term is beta times it (paper eq. 5).
                    cfg.sparsity_weight as f64
                        * kl_sparsity(
                            cfg.sparsity_target,
                            cfg.sparsity_weight,
                            &scr.rho_hat,
                            &mut scr.s_term,
                        )
                } else {
                    scr.s_term.fill(0.0);
                    0.0
                };
            },
        );
    }
}

/// Cost probe: reconstruction + weight-decay terms (writes state scalars
/// the buffer analysis cannot see, hence exclusive). No buffers.
struct AeCostProbe {
    b: usize,
}

impl<'a> Layer<AeState<'a>> for AeCostProbe {
    fn tag(&self) -> &'static str {
        "ae-cost"
    }

    fn emit(&self, sb: &mut StackBuilder<AeState<'a>>, what: Emit) {
        if what != Emit::Forward {
            return;
        }
        let b = self.b;
        let (a3, x, w1, w2) = (
            sb.buf(DEC, "act"),
            sb.global("x"),
            sb.buf(ENC, "w"),
            sb.buf(DEC, "w"),
        );
        sb.node(
            NodeSpec::new("COST")
                .reads(&[a3, x, w1, w2])
                .exclusive()
                .phase("backward"),
            move |ctx, s: &mut AeState<'_>| {
                let ae = s.params.get();
                s.cost.reconstruction =
                    ctx.frob_dist_sq(s.scratch.a3.rows_range(0, b), s.target) / (2.0 * b as f64);
                let lambda = ae.config().weight_decay as f64;
                s.cost.weight_penalty = 0.5
                    * lambda
                    * (vecops::sum_sq(ctx.backend().par(), ae.w1.as_slice())
                        + vecops::sum_sq(ctx.backend().par(), ae.w2.as_slice()));
            },
        );
    }
}

/// Builds the AE step over `b` examples as a [`StackBuilder`] recipe over
/// the encoder/decoder/sparsity/cost layers, whose declaration order is
/// exactly the serial op order of the classic `cost_and_grad`
/// (+ `apply_gradients`) pair. Storage is bound to the fields of
/// [`AeScratch`]; the declarations describe sizes and lifetimes to the
/// planner and executor.
///
/// Public so integration tests can run every shipped graph shape through
/// [`TaskGraph::verify`]; training entry points use it via
/// [`ae_step_graph`] and friends.
pub fn build_ae_graph<'a>(
    n_visible: usize,
    n_hidden: usize,
    b: usize,
    update: AeUpdate,
) -> TaskGraph<'static, AeState<'a>> {
    let mut sb: StackBuilder<AeState<'a>> = StackBuilder::new();
    let enc = AeEncode {
        n_visible,
        n_hidden,
        b,
        update,
    };
    let dec = AeDecode {
        n_visible,
        n_hidden,
        b,
        update,
    };
    let spars = AeSparsity { n_hidden, b };
    let cost = AeCostProbe { b };

    // Historical declaration order: input, both parameter sets, both
    // activations, deltas top-down, the sparsity pair, then gradients
    // weights-first.
    sb.bind_global_dims("x", "x", &[b, n_visible], BufClass::External);
    enc.declare(&mut sb, Decl::Params);
    dec.declare(&mut sb, Decl::Params);
    enc.declare(&mut sb, Decl::Acts);
    dec.declare(&mut sb, Decl::Acts);
    dec.declare(&mut sb, Decl::Deltas);
    enc.declare(&mut sb, Decl::Deltas);
    spars.declare(&mut sb, Decl::Acts);
    enc.declare(&mut sb, Decl::Grads(Part::Weights));
    dec.declare(&mut sb, Decl::Grads(Part::Weights));
    enc.declare(&mut sb, Decl::Grads(Part::Biases));
    dec.declare(&mut sb, Decl::Grads(Part::Biases));

    // Historical node order: F1, F2, COST, RHO+KL, D3, GW2, GB2, D2a+D2b,
    // GW1, GB1, then U1..U4 (the update layers emit nothing in `None`
    // mode).
    enc.emit(&mut sb, Emit::Forward);
    dec.emit(&mut sb, Emit::Forward);
    cost.emit(&mut sb, Emit::Forward);
    spars.emit(&mut sb, Emit::Forward);
    dec.emit(&mut sb, Emit::Backward);
    dec.emit(&mut sb, Emit::Grads(Part::Weights));
    dec.emit(&mut sb, Emit::Grads(Part::Biases));
    enc.emit(&mut sb, Emit::Backward);
    enc.emit(&mut sb, Emit::Grads(Part::Weights));
    enc.emit(&mut sb, Emit::Grads(Part::Biases));
    // Parameter updates: the graph's last rank, one node per tensor
    // (weight decay on the weights only, as in `apply_gradients`).
    enc.emit(&mut sb, Emit::Update(Part::Weights));
    dec.emit(&mut sb, Emit::Update(Part::Weights));
    enc.emit(&mut sb, Emit::Update(Part::Biases));
    dec.emit(&mut sb, Emit::Update(Part::Biases));
    sb.finish()
}

/// One AE training step scheduled as the dependency graph.
///
/// Bit-identical to [`SparseAutoencoder::train_batch`] (or, with an
/// optimizer, to `cost_and_grad` + `apply_gradients_opt`) — both run the
/// same graph, this one under the critical-path schedule. Returns the
/// batch cost and the schedule.
pub fn ae_step_graph(
    ae: &mut SparseAutoencoder,
    ctx: &ExecCtx,
    x: MatView<'_>,
    scratch: &mut AeScratch,
    lr: f32,
    opt: Option<&mut Optimizer>,
) -> (AeCost, GraphRun) {
    let b = x.rows();
    assert!(b > 0, "empty batch");
    assert!(b <= scratch.capacity(), "batch exceeds scratch capacity");
    let cfg = *ae.config();
    let update = if opt.is_some() {
        AeUpdate::Opt
    } else {
        AeUpdate::Sgd
    };
    let mut g = build_ae_graph(cfg.n_visible, cfg.n_hidden, b, update);
    let mut state = AeState::new(AeParams::Mut(ae), scratch, x, opt, lr);
    let run = g.execute(ctx, &mut state);
    (state.cost, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoencoder::AeConfig;
    use crate::exec::OptLevel;
    use crate::optim::{Rule, Schedule};
    use micdnn_sim::Platform;
    use micdnn_tensor::Mat;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_batch(b: usize, v: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        Mat::from_fn(b, v, |_, _| rng.gen_range(0.1..0.9))
    }

    #[test]
    fn graph_step_matches_serial_step_bitwise() {
        let cfg = AeConfig::new(14, 9);
        let x = tiny_batch(12, 14, 1);

        let mut ae_serial = SparseAutoencoder::new(cfg, 2);
        let ctx_serial = ExecCtx::native(OptLevel::Improved, 3);
        let mut s_serial = AeScratch::new(&cfg, 12);

        let mut ae_graph = ae_serial.clone();
        let ctx_graph = ExecCtx::native(OptLevel::Improved, 3);
        let mut s_graph = AeScratch::new(&cfg, 12);

        for _ in 0..5 {
            let c1 = ae_serial.train_batch(&ctx_serial, x.view(), &mut s_serial, 0.3);
            let (c2, _) =
                ae_step_graph(&mut ae_graph, &ctx_graph, x.view(), &mut s_graph, 0.3, None);
            assert_eq!(c1, c2, "costs diverged");
        }
        assert_eq!(ae_serial.w1.as_slice(), ae_graph.w1.as_slice());
        assert_eq!(ae_serial.w2.as_slice(), ae_graph.w2.as_slice());
        assert_eq!(ae_serial.b1, ae_graph.b1);
        assert_eq!(ae_serial.b2, ae_graph.b2);
        assert_eq!(ctx_serial.rng_state(), ctx_graph.rng_state());
    }

    #[test]
    fn graph_step_with_optimizer_matches_serial_bitwise() {
        let cfg = AeConfig::new(10, 6);
        let x = tiny_batch(8, 10, 4);
        let slots = SparseAutoencoder::optimizer_slots(&cfg);
        let mk_opt = || Optimizer::new(Rule::Momentum { mu: 0.9 }, Schedule::Constant(0.2), &slots);

        let mut ae_serial = SparseAutoencoder::new(cfg, 5);
        let ctx_serial = ExecCtx::native(OptLevel::Improved, 6);
        let mut s_serial = AeScratch::new(&cfg, 8);
        let mut opt_serial = mk_opt();

        let mut ae_graph = ae_serial.clone();
        let ctx_graph = ExecCtx::native(OptLevel::Improved, 6);
        let mut s_graph = AeScratch::new(&cfg, 8);
        let mut opt_graph = mk_opt();

        for _ in 0..5 {
            let c1 = ae_serial.cost_and_grad(&ctx_serial, x.view(), &mut s_serial);
            ae_serial.apply_gradients_opt(&ctx_serial, &s_serial, &mut opt_serial);
            let (c2, _) = ae_step_graph(
                &mut ae_graph,
                &ctx_graph,
                x.view(),
                &mut s_graph,
                0.0,
                Some(&mut opt_graph),
            );
            assert_eq!(c1, c2, "costs diverged");
        }
        assert_eq!(ae_serial.w1.as_slice(), ae_graph.w1.as_slice());
        assert_eq!(ae_serial.w2.as_slice(), ae_graph.w2.as_slice());
        assert_eq!(ae_serial.b1, ae_graph.b1);
        assert_eq!(ae_serial.b2, ae_graph.b2);
        assert_eq!(opt_serial.steps(), opt_graph.steps());
        assert_eq!(opt_serial.state_slots(), opt_graph.state_slots());
    }

    #[test]
    fn critical_path_beats_serial_schedule() {
        let cfg = AeConfig::new(256, 512);
        let mut ae = SparseAutoencoder::new(cfg, 7);
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 8);
        let mut scratch = AeScratch::new(&cfg, 64);
        let x = tiny_batch(64, 256, 9);
        let (_, run) = ae_step_graph(&mut ae, &ctx, x.view(), &mut scratch, 0.1, None);
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
        let cfg = AeConfig::new(16, 8);
        let mut ae = SparseAutoencoder::new(cfg, 3);
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let x = tiny_batch(32, 16, 4);
        let mut scratch = AeScratch::new(&cfg, 32);
        let (first, _) = ae_step_graph(&mut ae, &ctx, x.view(), &mut scratch, 0.5, None);
        let mut last = first.total();
        for _ in 0..200 {
            let (c, _) = ae_step_graph(&mut ae, &ctx, x.view(), &mut scratch, 0.5, None);
            last = c.total();
        }
        assert!(last < 0.6 * first.total(), "{} -> {last}", first.total());
    }

    #[test]
    fn ae_planner_finds_no_alias_and_reports_honestly() {
        // Every AE scratch pair interferes (see module docs): the planner
        // must keep them all separate — peak equals the declared total.
        let g = build_ae_graph(1024, 4096, 100, AeUpdate::Sgd);
        let plan = g.plan();
        assert_eq!(plan.peak_elems(), plan.total_declared_elems());
        assert!(plan.num_registers() > 0);
    }
}
