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
use crate::graph::{BufClass, BufId, GraphRun, NodeSpec, TaskGraph};
use crate::layers::{Decl, Emit, Layer, Part, StackBuilder};
use crate::optim::Optimizer;
use micdnn_kernels::fused::kl_sparsity;
use micdnn_kernels::vecops;
use micdnn_tensor::{Mat, MatView};

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
    pub(crate) opt: Option<&'a mut Optimizer>,
    pub(crate) lr: f32,
    pub(crate) cost: AeCost,
}

impl<'a> AeState<'a> {
    /// State for one step on `x`, reconstructing `x` itself: gradients only
    /// over shared parameters; over mutable ones a plain-SGD update at
    /// `lr`, or through `opt` when given.
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
            opt,
            lr,
            cost: AeCost::default(),
        }
    }

    /// The update this state's graph carries (see [`AeState::new`]).
    pub(crate) fn update(&self) -> AeUpdate {
        match (&self.params, &self.opt) {
            (AeParams::Shared(_), _) => AeUpdate::None,
            (AeParams::Mut(_), None) => AeUpdate::Sgd,
            (AeParams::Mut(_), Some(_)) => AeUpdate::Opt,
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
/// update, bias update.
const NODE_NAMES: [[&str; 5]; 2] = [
    ["F1", "GW1", "GB1", "U1", "U3"],
    ["F2", "GW2", "GB2", "U2", "U4"],
];

/// One half's tensors split-borrowed out of a run: the rows it consumes and
/// its own fields of the [`AeScratch`].
struct HalfBufs<'s> {
    input: MatView<'s>,
    act: &'s mut Mat,
    delta: &'s mut Mat,
    gw: &'s mut Mat,
    gb: &'s mut Vec<f32>,
}

impl Half {
    /// This half's `(weights, biases)`.
    fn params(self, ae: &SparseAutoencoder) -> (&Mat, &[f32]) {
        match self {
            Half::Enc => (&ae.w1, &ae.b1),
            Half::Dec => (&ae.w2, &ae.b2),
        }
    }

    fn params_mut(self, ae: &mut SparseAutoencoder) -> (&mut Mat, &mut Vec<f32>) {
        match self {
            Half::Enc => (&mut ae.w1, &mut ae.b1),
            Half::Dec => (&mut ae.w2, &mut ae.b2),
        }
    }

    /// The encoder consumes the batch `x`, the decoder the first `b` rows
    /// of the encoder's activations.
    fn bufs<'s>(self, scr: &'s mut AeScratch, x: MatView<'s>, b: usize) -> HalfBufs<'s> {
        match self {
            Half::Enc => HalfBufs {
                input: x,
                act: &mut scr.a2,
                delta: &mut scr.delta2,
                gw: &mut scr.gw1,
                gb: &mut scr.gb1,
            },
            Half::Dec => HalfBufs {
                input: scr.a2.rows_range(0, b),
                act: &mut scr.a3,
                delta: &mut scr.delta3,
                gw: &mut scr.gw2,
                gb: &mut scr.gb2,
            },
        }
    }
}

/// One sigmoid-affine half of the autoencoder: forward (F1 / F2), backward
/// (D2, in two sweeps as the serial path does / D3), gradients (GW*, GB*)
/// and updates (U1, U3 / U2, U4). Everything but the backward delta is one
/// body over [`Half`]-selected tensors.
struct AeHalf {
    half: Half,
    n_visible: usize,
    n_hidden: usize,
    b: usize,
    update: AeUpdate,
}

impl AeHalf {
    /// `(output width, input width)` of this half's affine map.
    fn dims(&self) -> (usize, usize) {
        match self.half {
            Half::Enc => (self.n_hidden, self.n_visible),
            Half::Dec => (self.n_visible, self.n_hidden),
        }
    }

    /// The buffer this half's forward and weight-gradient nodes consume.
    fn input_buf(&self, sb: &StackBuilder<AeState<'_>>) -> BufId {
        match self.half {
            Half::Enc => sb.global("x"),
            Half::Dec => sb.buf(ENC, "act"),
        }
    }

    /// The per-tensor parameter update (weight decay on the weights only,
    /// as in `apply_gradients`): plain SGD, or one optimizer slot — in
    /// which case U4, the graph's last update node, also advances the
    /// optimizer's schedule. Emits nothing in [`AeUpdate::None`] mode.
    fn emit_update(&self, sb: &mut StackBuilder<AeState<'_>>, part: Part) {
        let (half, b, update) = (self.half, self.b, self.update);
        if update == AeUpdate::None {
            return;
        }
        let [_, _, _, upd_w, upd_b] = NODE_NAMES[half as usize];
        let (name, grad, param, opt_slot) = match part {
            Part::Weights => (upd_w, "gw", "w", half as usize),
            Part::Biases => (upd_b, "gb", "b", 2 + half as usize),
        };
        let (grad, param) = (sb.buf(half as usize, grad), sb.buf(half as usize, param));
        let mut spec = NodeSpec::new(name)
            .reads(&[grad, param])
            .writes(&[param])
            .phase("update");
        if update == AeUpdate::Opt {
            // Optimizer state is invisible to the buffer analysis.
            spec = spec.exclusive();
        }
        let last = (half, part) == (Half::Dec, Part::Biases);
        sb.node(spec, move |ctx, s: &mut AeState<'_>| {
            let ae = s.params.get_mut();
            let lambda = match part {
                Part::Weights => ae.config().weight_decay,
                Part::Biases => 0.0,
            };
            let (w, bias) = half.params_mut(ae);
            let t = half.bufs(s.scratch, s.x, b);
            let (g, p) = match part {
                Part::Weights => (t.gw.as_slice(), w.as_mut_slice()),
                Part::Biases => (&t.gb[..], &mut bias[..]),
            };
            if update == AeUpdate::Opt {
                let opt = s.opt.as_deref_mut().expect("optimizer-mode graph");
                opt.step_slot(ctx, opt_slot, lambda, g, p);
                if last {
                    opt.advance();
                }
            } else {
                ctx.sgd_step(s.lr, lambda, g, p);
            }
        });
    }
}

impl<'a> Layer<AeState<'a>> for AeHalf {
    fn declare(&self, sb: &mut StackBuilder<AeState<'a>>, what: Decl) {
        let slot = self.half as usize;
        let [w, bias, act, delta, gw, gb] = BUF_NAMES[slot];
        let ((out, inp), b) = (self.dims(), self.b);
        match what {
            // Parameters and input: analysis-only externals.
            Decl::Params => {
                sb.bind_dims(slot, "w", w, &[out, inp], BufClass::External);
                sb.bind_dims(slot, "b", bias, &[out], BufClass::External);
            }
            // Activations are pinned: `AeScratch::hidden` exposes them
            // after the run (encode-by-inspection, tests, stacking).
            Decl::Acts => {
                sb.bind_dims(slot, "act", act, &[b, out], BufClass::Pinned);
            }
            // Backward temporaries: aliasing candidates (none exist for
            // this DAG — see the module docs — but the planner gets to
            // prove that).
            Decl::Deltas => {
                sb.bind_dims(slot, "delta", delta, &[b, out], BufClass::Scratch);
            }
            // Gradients are pinned: consumed after the run by optimizer
            // steps and the gradient check (`AeScratch::gradients`).
            Decl::Grads(Part::Weights) => {
                sb.bind_dims(slot, "gw", gw, &[out, inp], BufClass::Pinned);
            }
            Decl::Grads(Part::Biases) => {
                sb.bind_dims(slot, "gb", gb, &[out], BufClass::Pinned);
            }
        }
    }

    fn emit(&self, sb: &mut StackBuilder<AeState<'a>>, what: Emit) {
        let (half, b) = (self.half, self.b);
        let slot = half as usize;
        let [fwd, grad_w, grad_b, ..] = NODE_NAMES[slot];
        let inv_b = 1.0 / b as f32;
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
                        .phase("forward"),
                    move |ctx, s: &mut AeState<'_>| {
                        let (w, bias) = half.params(s.params.get());
                        let t = half.bufs(s.scratch, s.x, b);
                        let mut act = t.act.rows_range_mut(0, b);
                        ctx.gemm(1.0, t.input, false, w.view(), true, 0.0, &mut act);
                        ctx.bias_sigmoid_rows(bias, &mut act);
                    },
                );
            }
            Emit::Backward => match half {
                Half::Enc => self.emit_hidden_delta(sb),
                Half::Dec => self.emit_output_delta(sb),
            },
            // GW = 1/b delta^T input ; GB = 1/b colsum(delta).
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
                        .phase("backward"),
                    move |ctx, s: &mut AeState<'_>| {
                        let t = half.bufs(s.scratch, s.x, b);
                        ctx.gemm(
                            inv_b,
                            t.delta.rows_range(0, b),
                            true,
                            t.input,
                            false,
                            0.0,
                            &mut t.gw.view_mut(),
                        );
                    },
                );
            }
            Emit::Grads(Part::Biases) => {
                let (delta, gb) = (sb.buf(slot, "delta"), sb.buf(slot, "gb"));
                sb.node(
                    NodeSpec::new(grad_b)
                        .reads(&[delta])
                        .writes(&[gb])
                        .phase("backward"),
                    move |ctx, s: &mut AeState<'_>| {
                        let t = half.bufs(s.scratch, s.x, b);
                        ctx.colmean(t.delta.rows_range(0, b), t.gb);
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
        let b = self.b;
        let (delta3, w2, delta2) = (sb.buf(DEC, "delta"), sb.buf(DEC, "w"), sb.buf(ENC, "delta"));
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

    /// D3 (decoder): delta3 = (a3 - x) ⊙ a3 ⊙ (1 - a3).
    fn emit_output_delta(&self, sb: &mut StackBuilder<AeState<'_>>) {
        let b = self.b;
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
                ctx.delta_output(a3s.as_slice(), s.x.as_slice(), d3.as_mut_slice());
            },
        );
    }
}

/// The KL-sparsity block: RHO (mean hidden activation, paper eq. 5's ρ̂)
/// and KL (the penalty and its backward term).
struct AeSparsity {
    n_hidden: usize,
    b: usize,
}

impl<'a> Layer<AeState<'a>> for AeSparsity {
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
                    ctx.frob_dist_sq(s.scratch.a3.rows_range(0, b), s.x) / (2.0 * b as f64);
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
    let half = |half| AeHalf {
        half,
        n_visible,
        n_hidden,
        b,
        update,
    };
    let (enc, dec) = (half(Half::Enc), half(Half::Dec));
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
    let state = AeState::new(AeParams::Mut(ae), scratch, x, opt, lr);
    let (cost, run) = SparseAutoencoder::run_graph(state, ctx, true);
    (cost, run.expect("wave runs return their schedule"))
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
