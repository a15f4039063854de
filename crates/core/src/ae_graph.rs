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
//! U*  = per-tensor parameter updates   (each needs its gradient; U2 also
//!                                       D2a, W2's last reader)
//! GW*+U* = a weight gradient fused with its SGD update (below)
//! ```
//!
//! One builder backs both execution styles, exactly as for CD:
//! `SparseAutoencoder::cost_and_grad` and
//! [`SparseAutoencoder::train_batch`] run the graph with
//! [`TaskGraph::run_serial`] — declaration order is the original serial op
//! order, so weights, sampling streams, recorded op streams and profiling
//! spans are bit-for-bit what the hand-rolled loop produced — while
//! [`ae_step_graph`] runs it with [`TaskGraph::execute`] under the
//! critical-path schedule. Each builds the graph once, at the scratch's
//! capacity, keeps it in [`AeScratch`] with the arena its plan lays out
//! (all the step's buffers) and binds each batch's [`AeState`].
//!
//! The same nodes are the forward pass: F1, F2 and COST, which open every
//! form but the block form, and F1 alone for `encode`. Only runs with update
//! nodes (U1–U4, GW+U) bind the model exclusively (`NetRef`).
//! The *block form* is what [`crate::DataParallel`] runs per canonical
//! block: ρ̂ and the gradients are `Partial` sums, `D2` reads the master
//! copy's sparsity term, and COST leaves the raw squared error after GB1.
//!
//! In an updating step the gradients die at their update. `D2a` is W2's
//! last reader, so `GW2` and the decoder updates `U2`/`U4` run right after
//! `D2b`, and `GW1` after `GB1`. A plain SGD step whose batch is one GEMM k-slab at most (`GEMM_KC`
//! rows) never holds a weight gradient: `GW2+U2` and `GW1+U1` are one node
//! each ([`ExecCtx::gemm_sgd`]), whose product steps the weights as each
//! tile of the gradient is finished, with the bits of GW followed by U. It
//! declares no `gw1`/`gw2`: at the paper's 1024×4096 layer (b100) the arena
//! peaks at 1 029 120 elements. An optimizer step, or an SGD step of more
//! rows, keeps its gradients, and the declaration-order planner folds `gw1`
//! into `gw2`'s register, ordering `U2` before `GW1` for it (5 223 424 of
//! the 9 425 920 declared elements at b100). A gradient-only step
//! (`cost_and_grad`, the gradient check) hands its gradients to the caller,
//! so they stay `Pinned`; the block form's are `Partial` sums and its
//! updates stay together after the merge.

use crate::autoencoder::{AeCost, AeScratch, SparseAutoencoder};
use crate::exec::ExecCtx;
use crate::graph::{BufClass, BufId, GraphRun, NetRef, NodeSpec, NodeState, TaskGraph, Workspace};
use crate::layers::{Decl, Emit, Layer, Part, StackBuilder};
use crate::multidev::{split_at_syncs, BlockGraph, Segment};
use crate::optim::{Optimizer, Rule};
use micdnn_kernels::rng::StreamId;
use micdnn_kernels::{kl_sparsity, sum_sq, GEMM_KC};
use micdnn_tensor::{Mat, MatView, MatViewMut};
use std::ops::Range;

/// What an AE graph run does after the backward pass, with what that
/// needs: the run's [`AeUpdate`] mode.
pub(crate) enum AeStep<'a> {
    /// Gradients only.
    Grads,
    /// Plain SGD at this learning rate.
    Sgd(f32),
    /// Through this optimizer, advancing its schedule.
    Opt(&'a mut Optimizer),
}

impl AeStep<'_> {
    /// The graph mode this step runs.
    pub(crate) fn update(&self) -> AeUpdate {
        match self {
            AeStep::Grads => AeUpdate::None,
            AeStep::Sgd(_) => AeUpdate::Sgd,
            AeStep::Opt(opt) => AeUpdate::Opt(opt.rule()),
        }
    }
}

/// Mutable state one AE graph run threads through its nodes.
pub struct AeState<'a> {
    pub(crate) ae: NetRef<'a, SparseAutoencoder>,
    /// The arena every declared buffer lives in.
    pub(crate) ws: &'a mut Workspace,
    pub(crate) x: MatView<'a>,
    pub(crate) step: AeStep<'a>,
    pub(crate) cost: AeCost,
    /// In a block run: the master copy's arena, holding the sparsity term
    /// of the merged ρ̂.
    pub(crate) master: Option<&'a Workspace>,
}

impl<'a> AeState<'a> {
    /// State for one `step` of `ae` on `x` over the arena `ws`,
    /// reconstructing `x` itself.
    pub(crate) fn new(
        ae: NetRef<'a, SparseAutoencoder>,
        ws: &'a mut Workspace,
        x: MatView<'a>,
        step: AeStep<'a>,
    ) -> Self {
        let (cost, master) = (AeCost::default(), None);
        AeState {
            ae,
            ws,
            x,
            step,
            cost,
            master,
        }
    }
}

impl NodeState for AeState<'_> {
    type At<'a> = AeState<'a>;

    fn rows(state: &AeState<'_>) -> usize {
        state.x.rows()
    }
}

/// How (and whether) the graph updates the parameters after the backward
/// pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AeUpdate {
    /// Gradients only (`SparseAutoencoder::cost_and_grad`).
    None,
    /// Plain SGD with the state's learning rate.
    Sgd,
    /// Through the state's [`Optimizer`] (slots 0..4 = w1, w2, b1, b2),
    /// advancing its schedule. The form is keyed by the optimizer's rule,
    /// since its update nodes charge what the rule charges.
    Opt(Rule),
}

// Registry slots for the AE stack: encoder, decoder, sparsity block.
const ENC: usize = 0;
const DEC: usize = 1;
const SPARS: usize = 2;

/// Which of the autoencoder's two sigmoid-affine layers a [`AeHalf`] is
/// (paper eqs. 1-2: both are `sigmoid(input W' + b)`). The discriminant is
/// the half's registry slot and its weight tensor's optimizer slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Half {
    Enc = ENC as isize,
    Dec = DEC as isize,
}

/// Graph buffer names per half: weights, biases, activation, delta, weight
/// gradient, bias gradient.
const BUF_NAMES: [[&str; 6]; 2] = [
    ["w1", "b1", "a2", "delta2", "gw1", "gb1"],
    ["w2", "b2", "a3", "delta3", "gw2", "gb2"],
];

/// Node names per half: forward, weight gradient, bias gradient, weight
/// update, bias update, and the weight gradient fused with its SGD update.
const NODE_NAMES: [[&str; 6]; 2] = [
    ["F1", "GW1", "GB1", "U1", "U3", "GW1+U1"],
    ["F2", "GW2", "GB2", "U2", "U4", "GW2+U2"],
];

impl Half {
    /// This half's `(weights, biases)`.
    fn params(self, ae: &SparseAutoencoder) -> (&Mat, &[f32]) {
        match self {
            Half::Enc => (&ae.w1, &ae.b1),
            Half::Dec => (&ae.w2, &ae.b2),
        }
    }

    /// [`Half::params`], writable: for the update nodes alone.
    fn params_mut(self, ae: &mut SparseAutoencoder) -> (&mut Mat, &mut Vec<f32>) {
        match self {
            Half::Enc => (&mut ae.w1, &mut ae.b1),
            Half::Dec => (&mut ae.w2, &mut ae.b2),
        }
    }
}

/// One sigmoid-affine half of the autoencoder: forward (F1 / F2), backward
/// (D2, in two sweeps as the serial path does / D3), gradients (GW*, GB*)
/// and updates (U1, U3 / U2, U4). Everything but the backward delta is one
/// body over [`Half`]-selected buffers.
struct AeHalf {
    half: Half,
    n_visible: usize,
    n_hidden: usize,
    b: usize,
    update: AeUpdate,
    block: bool,
}

impl AeHalf {
    /// `(output width, input width)` of this half's affine map.
    fn dims(&self) -> (usize, usize) {
        match self.half {
            Half::Enc => (self.n_hidden, self.n_visible),
            Half::Dec => (self.n_visible, self.n_hidden),
        }
    }

    /// The buffer this half's forward and weight-gradient nodes consume:
    /// the batch `x` for the encoder, the encoder's activations for the
    /// decoder.
    fn input_buf(&self, sb: &StackBuilder<AeState<'_>>) -> BufId {
        match self.half {
            Half::Enc => sb.global("x"),
            Half::Dec => sb.buf(ENC, "act"),
        }
    }

    /// Whether this half's weight gradient is never held: an SGD step of a
    /// batch of one k-slab at most ([`GEMM_KC`] rows) steps the weights in
    /// the gradient product's tiles, in one node (GW+U) that declares no
    /// `gw`. The block form's sums merge first and an optimizer reads the
    /// whole gradient, so they keep it, and so does a step of more rows.
    fn fused(&self) -> bool {
        self.update == AeUpdate::Sgd && !self.block && self.b <= GEMM_KC
    }

    /// The per-tensor parameter update (weight decay on the weights only):
    /// plain SGD, or one optimizer slot — in which case the graph's last
    /// update node (U3, or the block form's U4) also advances the
    /// optimizer's schedule. Emits nothing in [`AeUpdate::None`] mode.
    fn emit_update(&self, sb: &mut StackBuilder<AeState<'_>>, part: Part) {
        let (half, update) = (self.half, self.update);
        if update == AeUpdate::None {
            return;
        }
        if part == Part::Weights && self.fused() {
            return self.emit_fused_update(sb);
        }
        let [_, _, _, upd_w, upd_b, _] = NODE_NAMES[half as usize];
        let (name, grad, param, opt_slot) = match part {
            Part::Weights => (upd_w, "gw", "w", half as usize),
            Part::Biases => (upd_b, "gb", "b", 2 + half as usize),
        };
        let (grad, param) = (sb.buf(half as usize, grad), sb.buf(half as usize, param));
        let n = sb.elems(param);
        let mut spec = NodeSpec::new(name)
            .reads(&[grad, param])
            .writes(&[param])
            .phase("update")
            .ops(move |be, _| match update {
                AeUpdate::Opt(rule) => rule.step_costs(be, n),
                _ => vec![be.sgd_cost(n)],
            });
        if matches!(update, AeUpdate::Opt(_)) {
            // Optimizer state is invisible to the buffer analysis.
            spec = spec.exclusive();
        }
        let last = part == Part::Biases && (half == Half::Dec) == self.block;
        sb.node(spec, move |ctx, s: &mut AeState<'_>| {
            let lambda = match part {
                Part::Weights => s.ae.get().config().weight_decay,
                Part::Biases => 0.0,
            };
            let (w, bias) = half.params_mut(s.ae.get_mut());
            let (g, p) = match part {
                Part::Weights => (s.ws.buf(grad), w.as_mut_slice()),
                Part::Biases => (s.ws.buf(grad), &mut bias[..]),
            };
            match &mut s.step {
                AeStep::Opt(opt) => {
                    opt.step_slot(ctx, opt_slot, lambda, g, p);
                    if last {
                        opt.advance();
                    }
                }
                AeStep::Sgd(lr) => ctx.sgd_step(*lr, lambda, g, p),
                AeStep::Grads => unreachable!("update nodes are only built for updating steps"),
            }
        });
    }

    /// GW+U: `W = (1 - lr λ) W - lr/b deltaᵀ input`, the weight gradient's
    /// product stepping the weights in its tiles ([`ExecCtx::gemm_sgd`]),
    /// with the bits of GW followed by U. The node is the product's, so
    /// its phase is `backward`: the profiler counts the step's SGD cost
    /// there, not under `update`.
    fn emit_fused_update(&self, sb: &mut StackBuilder<AeState<'_>>) {
        let half = self.half;
        let slot = half as usize;
        let ((n_out, n_in), from_x) = (self.dims(), half == Half::Enc);
        let (delta, input, w) = (sb.buf(slot, "delta"), self.input_buf(sb), sb.buf(slot, "w"));
        sb.node(
            NodeSpec::new(NODE_NAMES[slot][5])
                .reads(&[delta, input, w])
                .writes(&[w])
                .phase("backward")
                .ops(move |be, b| vec![be.gemm_cost(n_out, n_in, b), be.sgd_cost(n_out * n_in)]),
            move |ctx, s: &mut AeState<'_>| {
                let AeStep::Sgd(lr) = s.step else {
                    unreachable!("fused updates are only built for SGD steps")
                };
                let (b, lambda) = (s.x.rows(), s.ae.get().config().weight_decay);
                let inp = if from_x {
                    s.x
                } else {
                    MatView::prefix(s.ws.buf(input), b, n_in)
                };
                let d = MatView::prefix(s.ws.buf(delta), b, n_out);
                let (w, _) = half.params_mut(s.ae.get_mut());
                let alpha = 1.0 / b as f32;
                ctx.gemm_sgd(alpha, d, true, inp, false, lr, lambda, &mut w.view_mut());
            },
        );
    }
}

impl<'a> Layer<AeState<'a>> for AeHalf {
    fn declare(&self, sb: &mut StackBuilder<AeState<'a>>, what: Decl) {
        let slot = self.half as usize;
        let [w, bias, act, delta, gw, gb] = BUF_NAMES[slot];
        let ((out, inp), b) = (self.dims(), self.b);
        // Block sums merge after the run and gradient-only steps hand
        // theirs to the caller; an updating step's die at their update.
        let grads = match (self.block, self.update) {
            (true, _) => BufClass::Partial,
            (false, AeUpdate::None) => BufClass::Pinned,
            (false, _) => BufClass::Scratch,
        };
        match what {
            // Parameters and input: analysis-only externals.
            Decl::Params => {
                sb.bind_dims(slot, "w", w, &[out, inp], BufClass::External);
                sb.bind_dims(slot, "b", bias, &[out], BufClass::External);
            }
            // Activations are pinned: they stay readable after the run
            // (tests inspect them by name).
            Decl::Acts => {
                sb.bind_dims(slot, "act", act, &[b, out], BufClass::Pinned);
            }
            // Backward temporaries: aliasing candidates.
            Decl::Deltas => {
                sb.bind_dims(slot, "delta", delta, &[b, out], BufClass::Scratch);
            }
            Decl::Grads(Part::Weights) if !self.fused() => {
                sb.bind_dims(slot, "gw", gw, &[out, inp], grads);
            }
            Decl::Grads(Part::Weights) => {}
            Decl::Grads(Part::Biases) => {
                sb.bind_dims(slot, "gb", gb, &[out], grads);
            }
        }
    }

    fn emit(&self, sb: &mut StackBuilder<AeState<'a>>, what: Emit) {
        let (half, block) = (self.half, self.block);
        let slot = half as usize;
        let [fwd, grad_w, grad_b, ..] = NODE_NAMES[slot];
        let ((n_out, n_in), from_x) = (self.dims(), half == Half::Enc);
        match what {
            // F: act = sigmoid(input W^T + b).
            Emit::Forward => {
                let (input, w, bias, act) = (
                    self.input_buf(sb),
                    sb.buf(slot, "w"),
                    sb.buf(slot, "b"),
                    sb.buf(slot, "act"),
                );
                sb.node(
                    NodeSpec::new(fwd)
                        .reads(&[input, w, bias])
                        .writes(&[act])
                        .phase("forward")
                        .ops(move |be, b| {
                            vec![
                                be.gemm_cost(b, n_out, n_in),
                                be.bias_sigmoid_cost(b * n_out),
                            ]
                        }),
                    move |ctx, s: &mut AeState<'_>| {
                        let b = s.x.rows();
                        let (w, bias) = half.params(s.ae.get());
                        let (inp, out) = if from_x {
                            (s.x, s.ws.buf_mut(act))
                        } else {
                            let [i, out] = s.ws.bufs_mut([input, act]);
                            (MatView::prefix(i, b, n_in), out)
                        };
                        let mut act = MatViewMut::prefix(out, b, n_out);
                        ctx.gemm(1.0, inp, false, w.view(), true, 0.0, &mut act);
                        ctx.bias_sigmoid_rows(bias, &mut act);
                    },
                );
            }
            Emit::Backward => match half {
                Half::Enc => self.emit_hidden_delta(sb),
                Half::Dec => self.emit_output_delta(sb),
            },
            // GW = 1/b delta^T input ; GB = 1/b colsum(delta); the block
            // form's sums skip the 1/b. A fused GW runs in its update.
            Emit::Grads(Part::Weights) if self.fused() => {}
            Emit::Grads(Part::Weights) => {
                let (delta, input, gw) = (
                    sb.buf(slot, "delta"),
                    self.input_buf(sb),
                    sb.buf(slot, "gw"),
                );
                sb.node(
                    NodeSpec::new(grad_w)
                        .reads(&[delta, input])
                        .writes(&[gw])
                        .phase("backward")
                        .ops(move |be, b| vec![be.gemm_cost(n_out, n_in, b)]),
                    move |ctx, s: &mut AeState<'_>| {
                        let b = s.x.rows();
                        let (d, inp, gw) = if from_x {
                            let [d, gw] = s.ws.bufs_mut([delta, gw]);
                            (d, s.x, gw)
                        } else {
                            let [d, i, gw] = s.ws.bufs_mut([delta, input, gw]);
                            (d, MatView::prefix(i, b, n_in), gw)
                        };
                        let alpha = if block { 1.0 } else { 1.0 / b as f32 };
                        let (d, mut gw) = (
                            MatView::prefix(d, b, n_out),
                            MatViewMut::new(gw, n_out, n_in),
                        );
                        ctx.gemm(alpha, d, true, inp, false, 0.0, &mut gw);
                    },
                );
            }
            Emit::Grads(Part::Biases) => {
                let (delta, gb) = (sb.buf(slot, "delta"), sb.buf(slot, "gb"));
                sb.node(
                    NodeSpec::new(grad_b)
                        .reads(&[delta])
                        .writes(&[gb])
                        .phase("backward")
                        .ops(move |be, b| vec![be.reduce_cost(b, n_out)]),
                    move |ctx, s: &mut AeState<'_>| {
                        let b = s.x.rows();
                        let [d, gb] = s.ws.bufs_mut([delta, gb]);
                        ctx.col_stat(block, MatView::prefix(d, b, n_out), gb);
                    },
                );
            }
            Emit::Update(part) => self.emit_update(sb, part),
        }
    }
}

impl AeHalf {
    /// D2 (encoder): delta2 = (delta3 W2 + s) ⊙ a2 ⊙ (1 - a2), in two
    /// sweeps as the serial path does.
    fn emit_hidden_delta(&self, sb: &mut StackBuilder<AeState<'_>>) {
        let (delta3, w2, delta2) = (sb.buf(DEC, "delta"), sb.buf(DEC, "w"), sb.buf(ENC, "delta"));
        let (v, h) = (self.n_visible, self.n_hidden);
        sb.node(
            NodeSpec::new("D2a")
                .reads(&[delta3, w2])
                .writes(&[delta2])
                .phase("backward")
                .ops(move |be, b| vec![be.gemm_cost(b, h, v)]),
            move |ctx, s: &mut AeState<'_>| {
                let (w2, b) = (s.ae.get().w2.view(), s.x.rows());
                let [d3, d2] = s.ws.bufs_mut([delta3, delta2]);
                let (d3, mut d2) = (MatView::prefix(d3, b, v), MatViewMut::prefix(d2, b, h));
                ctx.gemm(1.0, d3, false, w2, false, 0.0, &mut d2);
            },
        );
        let (s_term, a2) = (sb.buf(SPARS, "s_term"), sb.buf(ENC, "act"));
        sb.node(
            NodeSpec::new("D2b")
                .reads(&[s_term, a2, delta2])
                .writes(&[delta2])
                .phase("backward")
                .ops(move |be, b| vec![be.bias_deriv_cost(b * h)]),
            move |ctx, s: &mut AeState<'_>| {
                let b = s.x.rows();
                let (st, a2, d2) = match s.master {
                    Some(m) => {
                        let [a2, d2] = s.ws.bufs_mut([a2, delta2]);
                        (m.buf(s_term), a2, d2)
                    }
                    None => {
                        let [st, a2, d2] = s.ws.bufs_mut([s_term, a2, delta2]);
                        (&*st, a2, d2)
                    }
                };
                let mut d2 = MatViewMut::prefix(d2, b, h);
                ctx.bias_deriv_rows(st, MatView::prefix(a2, b, h), &mut d2);
            },
        );
    }

    /// D3 (decoder): delta3 = (a3 - x) ⊙ a3 ⊙ (1 - a3).
    fn emit_output_delta(&self, sb: &mut StackBuilder<AeState<'_>>) {
        let (a3, x, delta3) = (sb.buf(DEC, "act"), sb.global("x"), sb.buf(DEC, "delta"));
        let v = self.n_visible;
        sb.node(
            NodeSpec::new("D3")
                .reads(&[a3, x])
                .writes(&[delta3])
                .phase("backward")
                .ops(move |be, b| vec![be.delta_output_cost(b * v)]),
            move |ctx, s: &mut AeState<'_>| {
                let n = s.x.rows() * v;
                let [a3, d3] = s.ws.bufs_mut([a3, delta3]);
                ctx.delta_output(&a3[..n], s.x.as_slice(), &mut d3[..n]);
            },
        );
    }
}

/// The KL-sparsity block: RHO (mean hidden activation, paper eq. 5's ρ̂)
/// and KL (the penalty and its backward term).
struct AeSparsity {
    n_hidden: usize,
    block: bool,
}

impl<'a> Layer<AeState<'a>> for AeSparsity {
    fn declare(&self, sb: &mut StackBuilder<AeState<'a>>, what: Decl) {
        if what == Decl::Acts {
            use BufClass::{Partial, Scratch};
            let rho = if self.block { Partial } else { Scratch };
            for (key, name, class) in [("rho", "rho_hat", rho), ("s_term", "s_term", Scratch)] {
                sb.bind_dims(SPARS, key, name, &[self.n_hidden], class);
            }
        }
    }

    fn emit(&self, sb: &mut StackBuilder<AeState<'a>>, what: Emit) {
        if what != Emit::Forward {
            return;
        }
        // RHO: mean hidden activation over the batch.
        let (a2, rho_hat, block) = (sb.buf(ENC, "act"), sb.buf(SPARS, "rho"), self.block);
        let h = self.n_hidden;
        sb.node(
            NodeSpec::new("RHO")
                .reads(&[a2])
                .writes(&[rho_hat])
                .phase("backward")
                .ops(move |be, b| vec![be.reduce_cost(b, h)]),
            move |ctx, s: &mut AeState<'_>| {
                let [a2, rho] = s.ws.bufs_mut([a2, rho_hat]);
                ctx.col_stat(block, MatView::prefix(a2, s.x.rows(), h), rho);
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
                let cfg = *s.ae.get().config();
                let [rho, st] = s.ws.bufs_mut([rho_hat, s_term]);
                s.cost.sparsity_penalty = if cfg.sparsity_weight > 0.0 {
                    // kl_sparsity returns the raw KL sum; the objective's
                    // penalty term is beta times it (paper eq. 5).
                    cfg.sparsity_weight as f64
                        * kl_sparsity(cfg.sparsity_target, cfg.sparsity_weight, rho, st)
                } else {
                    st.fill(0.0);
                    0.0
                };
            },
        );
    }
}

/// Cost probe: reconstruction + weight-decay terms (writes state scalars
/// the buffer analysis cannot see, hence exclusive). No buffers. The block
/// form's, emitted on `Backward`, leaves the raw squared error only.
struct AeCostProbe {
    n_visible: usize,
    block: bool,
}

impl<'a> Layer<AeState<'a>> for AeCostProbe {
    fn emit(&self, sb: &mut StackBuilder<AeState<'a>>, what: Emit) {
        let (v, block) = (self.n_visible, self.block);
        if what != [Emit::Forward, Emit::Backward][usize::from(block)] {
            return;
        }
        let (a3, x) = (sb.buf(DEC, "act"), sb.global("x"));
        let penalty = [sb.buf(ENC, "w"), sb.buf(DEC, "w")];
        sb.node(
            NodeSpec::new("COST")
                .reads(&[a3, x])
                .reads(if block { &[] } else { &penalty })
                .exclusive()
                .phase("backward")
                .ops(move |be, b| vec![be.reduce_cost(b, v)]),
            move |ctx, s: &mut AeState<'_>| {
                let (ae, b) = (s.ae.get(), s.x.rows());
                let sq = ctx.frob_dist_sq(MatView::prefix(s.ws.buf(a3), b, v), s.x);
                if block {
                    s.cost.reconstruction = sq;
                    return;
                }
                s.cost.reconstruction = sq / (2.0 * b as f64);
                let lambda = ae.config().weight_decay as f64;
                s.cost.weight_penalty = 0.5
                    * lambda
                    * (sum_sq(ctx.backend().par(), ae.w1.as_slice())
                        + sum_sq(ctx.backend().par(), ae.w2.as_slice()));
            },
        );
    }
}

/// Builds the AE step for batches of up to `b` rows as a [`StackBuilder`]
/// recipe over the encoder/decoder/sparsity/cost layers, whose declaration
/// order is exactly the serial op order of the classic `cost_and_grad` (+
/// SGD update) pair. Every declared buffer but the batch and the
/// parameters lives in the [`Workspace`] the graph's plan lays out, which
/// an [`AeScratch`] keeps beside the graph; node bodies reach it through
/// the buffer ids captured here.
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
    ae_graph(n_visible, n_hidden, b, update, false)
}

/// [`build_ae_graph`], or with `block` its block form (module docs).
pub(crate) fn ae_graph<'a>(
    n_visible: usize,
    n_hidden: usize,
    b: usize,
    update: AeUpdate,
    block: bool,
) -> TaskGraph<'static, AeState<'a>> {
    let mut sb: StackBuilder<AeState<'a>> = StackBuilder::new();
    let half = |half| AeHalf {
        half,
        n_visible,
        n_hidden,
        b,
        update,
        block,
    };
    let (enc, dec) = (half(Half::Enc), half(Half::Dec));
    let spars = AeSparsity { n_hidden, block };
    let cost = AeCostProbe { n_visible, block };

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

    // Node order: F1, F2, COST, RHO+KL, D3, GB2, D2a+D2b, GW2, U2+U4, GB1,
    // GW1, U1+U3, one update node per tensor (weight decay on the weights
    // only; the update layers emit nothing in `None` mode). D2a is W2's
    // last reader, so the decoder updates run as soon as D2b is done and
    // `gw2` dies before `gw1` is born. A fused SGD step emits each weight
    // gradient in its update, with the same op stream: F1, F2, COST,
    // RHO+KL, D3, GB2, D2a+D2b, GW2+U2, U4, GB1, GW1+U1, U3. The block form
    // keeps its gradients before D2a's and its updates together after GB1
    // and COST: they read the merged sums.
    enc.emit(&mut sb, Emit::Forward);
    dec.emit(&mut sb, Emit::Forward);
    cost.emit(&mut sb, Emit::Forward);
    spars.emit(&mut sb, Emit::Forward);
    dec.emit(&mut sb, Emit::Backward);
    if block {
        dec.emit(&mut sb, Emit::Grads(Part::Weights));
    }
    dec.emit(&mut sb, Emit::Grads(Part::Biases));
    enc.emit(&mut sb, Emit::Backward);
    if block {
        enc.emit(&mut sb, Emit::Grads(Part::Weights));
        enc.emit(&mut sb, Emit::Grads(Part::Biases));
    } else {
        dec.emit(&mut sb, Emit::Grads(Part::Weights));
        dec.emit(&mut sb, Emit::Update(Part::Weights));
        dec.emit(&mut sb, Emit::Update(Part::Biases));
        enc.emit(&mut sb, Emit::Grads(Part::Biases));
        enc.emit(&mut sb, Emit::Grads(Part::Weights));
    }
    cost.emit(&mut sb, Emit::Backward);
    enc.emit(&mut sb, Emit::Update(Part::Weights));
    if block {
        dec.emit(&mut sb, Emit::Update(Part::Weights));
    }
    enc.emit(&mut sb, Emit::Update(Part::Biases));
    if block {
        dec.emit(&mut sb, Emit::Update(Part::Biases));
    }
    sb.finish()
}

/// The encoder's forward pass alone for batches of `b` rows: the step's
/// `F1` into the `Pinned` code `a2`, its arena's one register.
pub(crate) fn encoder_graph<'a>(v: usize, h: usize, b: usize) -> TaskGraph<'static, AeState<'a>> {
    let mut sb = StackBuilder::forward_only();
    let enc = AeHalf {
        half: Half::Enc,
        n_visible: v,
        n_hidden: h,
        b,
        update: AeUpdate::None,
        block: false,
    };
    sb.bind_global_dims("x", "x", &[b, v], BufClass::External);
    sb.declare(&enc, Decl::Params);
    sb.declare(&enc, Decl::Acts);
    sb.emit(&enc, Emit::Forward);
    sb.finish()
}

impl BlockGraph for SparseAutoencoder {
    fn split(&self) -> (Vec<Segment>, usize) {
        let cfg = self.config();
        let g = ae_graph(cfg.n_visible, cfg.n_hidden, 1, AeUpdate::Sgd, true);
        split_at_syncs(&g)
    }

    fn run(
        ae: NetRef<'_, Self>,
        ctx: &ExecCtx,
        nodes: Range<usize>,
        scratch: &mut AeScratch,
        x: MatView<'_>,
        lr: f32,
        block: Option<(usize, &[StreamId], &AeScratch)>,
    ) -> f64 {
        let (g, ws) = scratch.prepare(AeUpdate::Sgd, true);
        let mut state = AeState {
            master: block.map(|(_, _, m)| m.step.arena()),
            ..AeState::new(ae, ws, x, AeStep::Sgd(lr))
        };
        g.run_range(ctx, &mut state, nodes);
        // The batch's error averages ½‖a3 - x‖² (halving is exact).
        state.cost.reconstruction / 2.0
    }

    fn partial_mut<'s>(scratch: &'s mut AeScratch, name: &str) -> &'s mut [f32] {
        scratch.step.buf_mut(name)
    }

    fn arena_elems(scratch: &AeScratch) -> usize {
        scratch.step.arena_elems()
    }
}

/// One AE training step scheduled as the dependency graph.
///
/// Bit-identical to [`SparseAutoencoder::train_batch`] (or, with an
/// optimizer, to `cost_and_grad` + an optimizer update) — both run the
/// same graph, kept in `scratch`, this one under the critical-path
/// schedule. Returns the batch cost and the schedule.
pub fn ae_step_graph(
    ae: &mut SparseAutoencoder,
    ctx: &ExecCtx,
    x: MatView<'_>,
    scratch: &mut AeScratch,
    lr: f32,
    opt: Option<&mut Optimizer>,
) -> (AeCost, GraphRun) {
    let step = opt.map_or(AeStep::Sgd(lr), AeStep::Opt);
    let (cost, run) = ae.run_graph(scratch, x, step, ctx, true);
    (cost, run.expect("wave runs return their schedule"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoencoder::AeConfig;
    use crate::exec::OptLevel;
    use crate::optim::Schedule;
    use micdnn_sim::Platform;
    use micdnn_tensor::Mat;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The serial reference the graph step with an optimizer is pinned
    /// against: applies the gradients in `scratch` through `opt` (slots
    /// 0..4 = w1, w2, b1, b2; weight decay on the weights only) and advances
    /// its schedule by one step.
    fn apply_gradients_opt(
        ae: &mut SparseAutoencoder,
        ctx: &ExecCtx,
        scratch: &AeScratch,
        opt: &mut Optimizer,
    ) {
        let _update = ctx.phase("update");
        let lambda = ae.config().weight_decay;
        let g = |name| scratch.step.buf(name);
        opt.step_slot(ctx, 0, lambda, g("gw1"), ae.w1.as_mut_slice());
        opt.step_slot(ctx, 1, lambda, g("gw2"), ae.w2.as_mut_slice());
        opt.step_slot(ctx, 2, 0.0, g("gb1"), &mut ae.b1);
        opt.step_slot(ctx, 3, 0.0, g("gb2"), &mut ae.b2);
        opt.advance();
    }

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
            apply_gradients_opt(&mut ae_serial, &ctx_serial, &s_serial, &mut opt_serial);
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
    fn gradient_only_step_charges_its_declared_stream() {
        // The crate-internal form `tests/op_stream_pinning.rs` cannot reach,
        // checked node by node under `with_verify` in any build profile.
        let cfg = AeConfig::new(14, 9);
        let x = tiny_batch(12, 14, 1);
        let ctx = ExecCtx::native(OptLevel::Baseline, 3).with_verify();
        let mut scratch = AeScratch::new(&cfg, 16);
        ctx.start_recording();
        SparseAutoencoder::new(cfg, 2).cost_and_grad(&ctx, x.view(), &mut scratch);
        let want = build_ae_graph(14, 9, 16, AeUpdate::None).declared_ops(&ctx.backend(), 12);
        assert_eq!(ctx.stop_recording(), want);
    }

    #[test]
    fn forward_graph_verifies_clean() {
        let report = encoder_graph(784, 256, 3000).verify();
        assert!(report.errors.is_empty(), "{report:?}");
        assert!(report.warnings.is_empty(), "{report:?}");
    }

    #[test]
    #[should_panic(expected = "a model bound shared does not update parameters")]
    fn shared_binding_refuses_update_nodes() {
        let cfg = AeConfig::new(14, 9);
        let (ae, x) = (SparseAutoencoder::new(cfg, 2), tiny_batch(12, 14, 1));
        let mut g = build_ae_graph(14, 9, 12, AeUpdate::Sgd);
        let mut ws = Workspace::new(&g.plan());
        let step = AeStep::Sgd(0.1);
        let mut state = AeState::new(NetRef::Shared(&ae), &mut ws, x.view(), step);
        g.run_serial(&ExecCtx::native(OptLevel::Improved, 3), &mut state);
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
    fn updating_steps_share_one_gradient_register() {
        // At the paper's layer (1024x4096, b100) an SGD step never holds a
        // weight gradient: GW2+U2 and GW1+U1 step the weights in the
        // product's tiles. An optimizer step's gradients die at their
        // update: GW2 and U2 run right after D2b, so gw1 reuses gw2's
        // register, as it does in an SGD step of more than one k-slab of
        // rows. A gradient-only step hands both to its caller and keeps
        // them apart.
        // Elements declared in the arena and its peak: the fused step drops
        // both 4096x1024 gradients (4 194 304 each) from the declared total
        // and their shared register from the peak.
        let past_kc = GEMM_KC + 1;
        for (update, b, grads, declared, peak) in [
            (AeUpdate::Sgd, 100, None, 1_037_312, 1_029_120),
            (AeUpdate::Sgd, past_kc, Some(true), 11_033_600, 6_831_104),
            (
                AeUpdate::Opt(Rule::Momentum { mu: 0.9 }),
                100,
                Some(true),
                9_425_920,
                5_223_424,
            ),
            (AeUpdate::None, 100, Some(false), 9_425_920, 9_421_824),
        ] {
            let g = build_ae_graph(1024, 4096, b, update);
            let plan = g.plan();
            let register = |name| {
                let b = g.bufs.iter().position(|d| d.name == name)?;
                plan.register_of(BufId(b))
            };
            let what = format!("{update:?} b{b}");
            match grads {
                Some(shared) => {
                    let (gw1, gw2) = (register("gw1"), register("gw2"));
                    assert!(gw1.is_some() && gw2.is_some(), "{what}");
                    assert_eq!(gw1 == gw2, shared, "{what}");
                }
                None => assert_eq!((register("gw1"), register("gw2")), (None, None), "{what}"),
            }
            let report = g.verify();
            assert!(report.errors.is_empty(), "{what}: {report}");
            assert_eq!(plan.total_declared_elems(), declared, "{what}");
            assert_eq!(plan.peak_elems(), peak, "{what}");
        }
    }

    #[test]
    fn fused_sgd_steps_match_gradient_steps_then_sgd_step() {
        // N SGD steps of an `AeModel`, whose weight gradients step the
        // weights in their products' tiles (a batch of one k-slab) or are
        // held (one row more), give the bits of N gradient-only steps each
        // followed by `sgd_step` of every tensor (weight decay on the
        // weights only). A ragged last batch included.
        use crate::train::{AeModel, UnsupervisedModel};
        let mut cfg = AeConfig::new(14, 9);
        cfg.weight_decay = 3e-3;
        for cap in [12, GEMM_KC, GEMM_KC + 1] {
            let data = tiny_batch(3 * cap, 14, 48);
            let bounds = [(0, cap), (cap, 2 * cap), (2 * cap, 3 * cap - 5)];
            let mut model = AeModel::new(SparseAutoencoder::new(cfg, 2));
            model.prepare(cap);
            let mut reference = model.ae.clone();
            let ctx = ExecCtx::native(OptLevel::Improved, 3);
            let mut scratch = AeScratch::new(&cfg, cap);
            for (lo, hi) in bounds {
                let x = data.rows_range(lo, hi);
                let fused = model.train_batch(&ctx, x, 0.4);
                let cost = reference.cost_and_grad(&ctx, x, &mut scratch);
                assert_eq!(fused, cost.reconstruction, "cap {cap} rows {lo}..{hi}");
                let be = ctx.backend();
                let g = |name| scratch.step.buf(name);
                let ae = &mut reference;
                be.sgd_step(0.4, cfg.weight_decay, g("gw1"), ae.w1.as_mut_slice());
                be.sgd_step(0.4, cfg.weight_decay, g("gw2"), ae.w2.as_mut_slice());
                be.sgd_step(0.4, 0.0, g("gb1"), &mut ae.b1);
                be.sgd_step(0.4, 0.0, g("gb2"), &mut ae.b2);
            }
            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let (fused, want) = (&model.ae, &reference);
            assert_eq!(
                bits(fused.w1.as_slice()),
                bits(want.w1.as_slice()),
                "cap {cap}"
            );
            assert_eq!(
                bits(fused.w2.as_slice()),
                bits(want.w2.as_slice()),
                "cap {cap}"
            );
            assert_eq!(bits(&fused.b1), bits(&want.b1), "cap {cap}");
            assert_eq!(bits(&fused.b2), bits(&want.b2), "cap {cap}");
        }
    }

    #[test]
    fn prepared_step_matches_a_freshly_built_graph_bitwise() {
        // Plain SGD and optimizer updates over full batches, a ragged tail,
        // then a scratch of larger capacity, alternating the serial and
        // wave schedules. The fresh side builds a graph for each batch's
        // rows, as every step did before graphs were kept.
        let cfg = AeConfig::new(10, 6);
        let data = tiny_batch(27, 10, 91);
        let slots = SparseAutoencoder::optimizer_slots(&cfg);
        let phases = [
            (10, vec![(0, 10), (10, 20), (20, 27), (0, 10)]),
            (16, vec![(0, 16), (16, 27), (3, 19)]),
        ];
        for use_opt in [false, true] {
            let mk_opt =
                || Optimizer::new(Rule::Momentum { mu: 0.9 }, Schedule::Constant(0.2), &slots);
            let (mut kept, mut fresh) = (
                SparseAutoencoder::new(cfg, 92),
                SparseAutoencoder::new(cfg, 92),
            );
            let (mut opt_kept, mut opt_fresh) = (mk_opt(), mk_opt());
            let ctx = ExecCtx::native(OptLevel::Improved, 93);
            let mut step = 0;
            for (cap, bounds) in &phases {
                let mut s_kept = AeScratch::new(&cfg, *cap);
                for &(lo, hi) in bounds {
                    let (x, wave) = (data.rows_range(lo, hi), step % 2 == 1);
                    step += 1;
                    let step = use_opt
                        .then_some(&mut opt_kept)
                        .map_or(AeStep::Sgd(0.3), AeStep::Opt);
                    let (c1, _) = kept.run_graph(&mut s_kept, x, step, &ctx, wave);

                    // The fresh side's graph and arena hold exactly the batch.
                    let update = match use_opt {
                        true => AeUpdate::Opt(Rule::Momentum { mu: 0.9 }),
                        false => AeUpdate::Sgd,
                    };
                    let mut g = build_ae_graph(10, 6, hi - lo, update);
                    let mut ws = Workspace::new(&g.plan());
                    let step = use_opt
                        .then_some(&mut opt_fresh)
                        .map_or(AeStep::Sgd(0.3), AeStep::Opt);
                    let mut state = AeState::new(NetRef::Exclusive(&mut fresh), &mut ws, x, step);
                    if wave {
                        g.execute(&ctx, &mut state);
                    } else {
                        g.run_serial(&ctx, &mut state);
                    }
                    let what = format!("opt {use_opt} rows {lo}..{hi}");
                    assert_eq!(c1, state.cost, "{what}");
                    assert_eq!(kept.w1.as_slice(), fresh.w1.as_slice(), "{what}");
                    assert_eq!(kept.w2.as_slice(), fresh.w2.as_slice(), "{what}");
                    assert_eq!(kept.b1, fresh.b1, "{what}");
                    assert_eq!(kept.b2, fresh.b2, "{what}");
                    assert_eq!(opt_kept.state_slots(), opt_fresh.state_slots(), "{what}");
                    assert_eq!(opt_kept.steps(), opt_fresh.steps(), "{what}");
                    assert!(s_kept.step.0.is_some(), "graph kept for the next batch");
                }
            }
        }
    }
}
