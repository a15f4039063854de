//! The layer/op IR: one trait-driven graph builder behind every training
//! step in the crate.
//!
//! `ae_graph`, `cd_graph`, `finetune` and `cnn` used to hand-build
//! near-duplicate [`TaskGraph`] node lists — the same affine → nonlinearity
//! → gradient → update skeleton, re-typed three times. This module replaces
//! that with two pieces:
//!
//! * [`Layer`]: a training-step building block that knows how to *declare*
//!   its buffers (parameters, activations, deltas, gradients — with exact
//!   element counts, so the liveness planner and the verifier see true
//!   footprints) and how to *emit* its nodes (forward, backward, gradient,
//!   update — with exact read/write sets);
//! * [`StackBuilder`]: the composition surface. It wraps a [`TaskGraph`],
//!   keeps a per-layer registry of named buffer handles so layers can
//!   reference each other's activations and deltas without sharing types;
//!   the recipe calls each layer's declaration and emission passes on it.
//!
//! # The bit-identity contract
//!
//! The executor replays nodes in declaration order under `run_serial` and
//! uses buffer declaration order for planner aliasing, so *the recipe owns
//! the order*: a graph rebuilt on this IR is bit-identical to its
//! hand-built ancestor exactly when the recipe declares buffers and emits
//! nodes in the historical sequence. That is why the hooks are
//! fine-grained — [`Decl`] and [`Emit`] passes are separate per tensor
//! class and per parameter [`Part`], letting e.g. the AE recipe declare
//! deltas top-down but gradients weights-before-biases, as its serial
//! ancestor did. The pinning tests in `tests/graph_exec_pinning.rs` hold
//! every shipped recipe to the pre-refactor goldens byte-for-byte.
//!
//! # Plugging in a new layer
//!
//! A layer implements [`Layer<S>`] for the state type `S` its node bodies
//! run against. Layers that only need an arena, a batch, parameters and a
//! loss slot (the supervised family: [`Dense`], [`SoftmaxXent`],
//! [`Conv2d`], [`MaxPool2d`]) are written once against the [`StackState`]
//! host trait; their plain-SGD update nodes and bias column-sum nodes go
//! through one emitter each, so a new parameterised layer writes only its
//! forward, backward and weight-gradient bodies. Algorithm-specific layers
//! implement `Layer` directly against their own state: the AE's
//! KL-sparsity block, and the AE's encoder and decoder — one
//! sigmoid-affine half-layer selected by which half it is, sharing
//! forward, gradients and one update emitter (SGD or optimizer slot), with
//! only the two backward deltas written apart. The RBM's CD-k and PCD
//! recipes (`cd_graph`) need no passes: each block of theirs ran in one,
//! so they call one emitter per node kind on the builder directly.
//!
//! # Plugging in a new labeled net
//!
//! A softmax-headed net supplies three things and implements
//! [`crate::LabeledNet`] with them: a parameter store (implementing
//! [`DenseParams`], plus [`ConvParams`] if it convolves), a recipe that
//! composes the layers above in a fixed order (`build_step_graph`,
//! `build_cnn_graph`), and a hand-written `predict_proba` the serving tests
//! compare the graph against — along with its geometry, failpoint name and
//! checkpoint record. The step state ([`crate::StepState`]), the kept graph
//! and arena (the AE and CD steps keep theirs the same way), the schedule
//! flag, `train_batch`/`fit`/`predict`/`accuracy`, the footprint and the
//! label-cursor wrapper ([`crate::LabeledModel`]) are shared.
//!
//! Footprint rules, enforced by [`TaskGraph::verify`] on every shipped
//! recipe (pinned at 0 errors / 0 warnings in `tests/verify_properties.rs`):
//!
//! * every buffer a node body touches must appear in its `reads`/`writes`;
//! * buffers are declared with their true element counts (capacity rows ×
//!   width — bodies slice to the live batch);
//! * parameters are `External` (no arena storage; reads/writes still order
//!   updates after every use), activations that outlive the step are
//!   `Pinned`, everything else is `Scratch` so the planner may alias it;
//! * nodes that write state the buffer analysis cannot see (loss scalars,
//!   optimizer schedules) are `exclusive`; nodes that consume the sampling
//!   stream are `stochastic`.

use crate::exec::ExecCtx;
use crate::finetune::SoftmaxLayer;
use crate::graph::{BufClass, BufId, NodeSpec, NodeState, TaskGraph, Workspace};
use micdnn_kernels::conv;
use micdnn_kernels::OpCost;
use micdnn_tensor::{Mat, MatView, MatViewMut};

/// Which parameter tensor of a layer a gradient or update pass targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// The weight matrix.
    Weights,
    /// The bias vector(s).
    Biases,
}

/// One buffer-declaration pass. Recipes call these in their historical
/// order; a layer binds nothing for passes that do not apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decl {
    /// Parameter tensors (`External`).
    Params,
    /// Forward activations and forward-only scratch.
    Acts,
    /// Backward deltas.
    Deltas,
    /// Gradient (or sufficient-statistic) tensors for one [`Part`].
    Grads(Part),
}

/// One node-emission pass. Recipes call these in their historical order;
/// a layer emits nothing for passes that do not apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// Forward nodes.
    Forward,
    /// Backward (delta-producing) nodes.
    Backward,
    /// Gradient nodes for one [`Part`].
    Grads(Part),
    /// Parameter-update nodes for one [`Part`].
    Update(Part),
}

/// A training-step building block: declares its buffer footprints and
/// emits its dataflow nodes into a [`StackBuilder`].
///
/// Hooks default to no-ops so a layer only writes the passes it
/// participates in (a pooling layer has no parameters, a cost probe has
/// no buffers at all).
pub trait Layer<S: NodeState> {
    /// Declare this layer's buffers for pass `what`.
    fn declare(&self, sb: &mut StackBuilder<S>, what: Decl) {
        let _ = (sb, what);
    }

    /// Emit this layer's node(s) for pass `what`.
    fn emit(&self, sb: &mut StackBuilder<S>, what: Emit) {
        let _ = (sb, what);
    }
}

/// Composes [`Layer`]s into one verified [`TaskGraph`].
///
/// Wraps the graph with a registry of named buffer handles — global keys
/// for stack-level buffers (the input batch) and `(slot, key)` pairs for
/// per-layer buffers — so layers reference each other's tensors by
/// position without sharing concrete types.
pub struct StackBuilder<S: NodeState> {
    g: TaskGraph<'static, S>,
    slots: Vec<Vec<(&'static str, BufId)>>,
    globals: Vec<(&'static str, BufId)>,
}

impl<S: NodeState> Default for StackBuilder<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: NodeState> StackBuilder<S> {
    /// An empty builder.
    pub(crate) fn new() -> Self {
        StackBuilder {
            g: TaskGraph::new(),
            slots: Vec::new(),
            globals: Vec::new(),
        }
    }

    /// Declares a *shaped* stack-level buffer ([`TaskGraph::declare_dims`])
    /// and registers it under `key`.
    pub(crate) fn bind_global_dims(
        &mut self,
        key: &'static str,
        name: &'static str,
        dims: &[usize],
        class: BufClass,
    ) -> BufId {
        let id = self.g.declare_dims(name, dims, class);
        self.globals.push((key, id));
        id
    }

    /// Declares a *shaped* buffer ([`TaskGraph::declare_dims`]) and
    /// registers it under `(slot, key)`.
    pub(crate) fn bind_dims(
        &mut self,
        slot: usize,
        key: &'static str,
        name: &'static str,
        dims: &[usize],
        class: BufClass,
    ) -> BufId {
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, Vec::new);
        }
        debug_assert!(
            self.slots[slot].iter().all(|&(k, _)| k != key),
            "slot {slot} already binds {key:?}"
        );
        let id = self.g.declare_dims(name, dims, class);
        self.slots[slot].push((key, id));
        id
    }

    /// Declares a counter-RNG cursor on the underlying graph
    /// ([`TaskGraph::declare_rng_cursor`]) for the certifier's determinism
    /// audit.
    pub(crate) fn declare_rng_cursor(&mut self, name: &'static str) {
        self.g.declare_rng_cursor(name);
    }

    /// Handle of the stack-level buffer bound under `key`.
    pub(crate) fn global(&self, key: &str) -> BufId {
        self.globals
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, id)| id)
            .unwrap_or_else(|| panic!("no global buffer bound under {key:?}"))
    }

    /// Handle of the buffer bound under `(slot, key)`.
    pub(crate) fn buf(&self, slot: usize, key: &str) -> BufId {
        self.slots
            .get(slot)
            .and_then(|s| s.iter().find(|&&(k, _)| k == key))
            .map(|&(_, id)| id)
            .unwrap_or_else(|| panic!("no buffer bound under slot {slot}, key {key:?}"))
    }

    /// Adds a node to the underlying graph (pass-through; layers emit
    /// through this so footprints and order are explicit at the call site).
    pub(crate) fn node(
        &mut self,
        spec: NodeSpec,
        task: impl for<'a> FnMut(&ExecCtx, &mut S::At<'a>) + Send + Sync + 'static,
    ) {
        self.g.node(spec, task);
    }

    /// The composed graph. Verification is not forced here: every
    /// execution path (`run_serial` / `execute`) already verifies in debug
    /// builds, and the shipped-recipe pins in `tests/verify_properties.rs`
    /// hold each stack at 0 errors / 0 warnings.
    pub(crate) fn finish(self) -> TaskGraph<'static, S> {
        self.g
    }
}

// ---------------------------------------------------------------------------
// The supervised family: host traits + generic layers.
// ---------------------------------------------------------------------------

/// Split borrow of everything a supervised step node touches: the planned
/// arena, the batch, the labels, and the model parameters. Produced by
/// [`StackState::parts`]; the fields are disjoint so node bodies can hold
/// arena and parameter borrows at once.
pub(crate) struct StepParts<'s, P: ?Sized> {
    /// The liveness-planned arena the graph's buffers live in.
    pub ws: &'s mut Workspace,
    /// The input batch (`b x in_dim`; `b` is the live batch size).
    pub x: MatView<'s>,
    /// One class label per batch row.
    pub labels: &'s [usize],
    /// Learning rate for the update nodes.
    pub lr: f32,
    /// Scalar loss output (written by the loss node, exclusive).
    pub loss: &'s mut f64,
    /// The model parameters.
    pub params: &'s mut P,
}

/// Host state for the generic supervised layers: anything whose runs can
/// hand a node body a [`StepParts`] split borrow.
pub(crate) trait StackState: NodeState {
    /// The parameter store ([`DenseParams`] at minimum).
    type Params: ?Sized;
    /// The split borrow of one run's state.
    fn parts<'s>(st: &'s mut Self::At<'_>) -> StepParts<'s, Self::Params>;
}

/// Parameter access for [`Dense`] and [`SoftmaxXent`] layers.
pub(crate) trait DenseParams {
    /// Parameters of dense layer `idx` as `(weights h x v, biases h)`.
    fn dense(&mut self, idx: usize) -> (&mut Mat, &mut Vec<f32>);
    /// The classification head.
    fn softmax(&mut self) -> &mut SoftmaxLayer;
    /// L2 weight decay applied to weight (not bias) updates.
    fn weight_decay(&self) -> f32;
}

/// Parameter access for [`Conv2d`] layers.
pub(crate) trait ConvParams: DenseParams {
    /// Parameters of conv layer `idx` as `(filters c_out x k*k, biases
    /// c_out)`.
    fn conv(&mut self, idx: usize) -> (&mut Mat, &mut Vec<f32>);
}

/// Where a layer's upstream delta and weights come from during backprop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Above {
    /// A dense layer (its [`DenseParams::dense`] index).
    Dense(usize),
    /// The softmax head.
    Head,
}

/// Emits the bias-gradient node of a supervised layer: `gb =
/// colsum(delta)` over the live `b * rows_per_example` rows of slot
/// `slot`'s `width`-wide delta.
fn emit_bias_colsum<S: StackState>(
    sb: &mut StackBuilder<S>,
    name: &'static str,
    slot: usize,
    rows_per_example: usize,
    width: usize,
) {
    let (d_id, gb_id) = (sb.buf(slot, "delta"), sb.buf(slot, "gb"));
    sb.node(
        NodeSpec::new(name).reads(&[d_id]).writes(&[gb_id]),
        move |ctx, st: &mut S::At<'_>| {
            let p = S::parts(st);
            let rows = p.x.rows() * rows_per_example;
            let [d, gb] = p.ws.bufs_mut([d_id, gb_id]);
            ctx.colsum(MatView::new(&d[..rows * width], rows, width), gb);
        },
    );
}

/// Emits one plain-SGD update node of a supervised layer: slot `slot`'s
/// `gw` into its weights (with the model's weight decay) or its `gb` into
/// its biases (without). `names` are the `[weights, biases]` node names;
/// `tensors` picks the layer's `(weights, biases)` out of the parameter
/// store.
fn emit_sgd<S>(
    sb: &mut StackBuilder<S>,
    names: [&'static str; 2],
    slot: usize,
    part: Part,
    tensors: impl Fn(&mut S::Params) -> (&mut Mat, &mut Vec<f32>) + Send + Sync + 'static,
) where
    S: StackState,
    S::Params: DenseParams,
{
    let (name, grad, param) = match part {
        Part::Weights => (names[0], sb.buf(slot, "gw"), sb.buf(slot, "w")),
        Part::Biases => (names[1], sb.buf(slot, "gb"), sb.buf(slot, "b")),
    };
    sb.node(
        NodeSpec::new(name).reads(&[grad]).writes(&[param]),
        move |ctx, st: &mut S::At<'_>| {
            let p = S::parts(st);
            let lambda = p.params.weight_decay();
            let (w, bias) = tensors(p.params);
            match part {
                Part::Weights => ctx.sgd_step(p.lr, lambda, p.ws.buf(grad), w.as_mut_slice()),
                Part::Biases => ctx.sgd_step(p.lr, 0.0, p.ws.buf(grad), bias),
            }
        },
    );
}

/// A fully connected sigmoid layer: `a = sigmoid(input W^T + b)`, plain
/// SGD updates. The generic form of the fine-tuning stack's encoder layer,
/// reused by the CNN's fully connected tail.
pub(crate) struct Dense {
    /// Registry slot (binds `w`, `b`, `act`, `delta`, `gw`, `gb`).
    pub slot: usize,
    /// [`DenseParams::dense`] index.
    pub idx: usize,
    /// Slot whose `act` feeds this layer; `None` reads the global `x`.
    pub below: Option<usize>,
    /// Slot whose `delta` drives this layer's backprop.
    pub above_slot: usize,
    /// Where the upstream weights live.
    pub above: Above,
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
    /// Batch-row capacity buffers are declared against.
    pub cap: usize,
}

impl Dense {
    fn input_buf<S: NodeState>(&self, sb: &StackBuilder<S>) -> BufId {
        match self.below {
            None => sb.global("x"),
            Some(slot) => sb.buf(slot, "act"),
        }
    }
}

impl<S> Layer<S> for Dense
where
    S: StackState,
    S::Params: DenseParams,
{
    fn declare(&self, sb: &mut StackBuilder<S>, what: Decl) {
        let (slot, h, v, cap) = (self.slot, self.out_dim, self.in_dim, self.cap);
        match what {
            Decl::Params => {
                sb.bind_dims(slot, "w", "layer.w", &[h, v], BufClass::External);
                sb.bind_dims(slot, "b", "layer.b", &[h], BufClass::External);
            }
            // Activations stay live from the forward pass until the last
            // layer-gradient reads them, so they are pinned, not aliased.
            Decl::Acts => {
                sb.bind_dims(slot, "act", "act", &[cap, h], BufClass::Pinned);
            }
            Decl::Deltas => {
                sb.bind_dims(slot, "delta", "delta", &[cap, h], BufClass::Scratch);
            }
            Decl::Grads(Part::Weights) => {
                sb.bind_dims(slot, "gw", "layer.gw", &[h, v], BufClass::Scratch);
            }
            Decl::Grads(Part::Biases) => {
                sb.bind_dims(slot, "gb", "layer.gb", &[h], BufClass::Scratch);
            }
        }
    }

    fn emit(&self, sb: &mut StackBuilder<S>, what: Emit) {
        let slot = self.slot;
        let idx = self.idx;
        let (h, v) = (self.out_dim, self.in_dim);
        match what {
            // forward: act = sigmoid(input W^T + b).
            Emit::Forward => {
                let inp = self.input_buf(sb);
                let a_cur = sb.buf(slot, "act");
                let (w_id, b_id) = (sb.buf(slot, "w"), sb.buf(slot, "b"));
                let from_x = self.below.is_none();
                sb.node(
                    NodeSpec::new("forward")
                        .reads(&[inp, w_id, b_id])
                        .writes(&[a_cur]),
                    move |ctx, st: &mut S::At<'_>| {
                        let p = S::parts(st);
                        let b = p.x.rows();
                        let (w, bias) = p.params.dense(idx);
                        if from_x {
                            let out = &mut p.ws.buf_mut(a_cur)[..b * h];
                            let mut vv = MatViewMut::new(out, b, h);
                            ctx.gemm(1.0, p.x, false, w.view(), true, 0.0, &mut vv);
                            ctx.bias_sigmoid_rows(bias, &mut vv);
                        } else {
                            let [i, out] = p.ws.bufs_mut([inp, a_cur]);
                            let iv = MatView::new(&i[..b * v], b, v);
                            let mut vv = MatViewMut::new(&mut out[..b * h], b, h);
                            ctx.gemm(1.0, iv, false, w.view(), true, 0.0, &mut vv);
                            ctx.bias_sigmoid_rows(bias, &mut vv);
                        }
                    },
                );
            }
            // backprop: delta = (up_delta W_up) ⊙ σ'(act).
            Emit::Backward => {
                let up = sb.buf(self.above_slot, "delta");
                let up_w = sb.buf(self.above_slot, "w");
                let (a_cur, d_cur) = (sb.buf(slot, "act"), sb.buf(slot, "delta"));
                let above = self.above;
                sb.node(
                    NodeSpec::new("backprop")
                        .reads(&[up, up_w, a_cur])
                        .writes(&[d_cur]),
                    move |ctx, st: &mut S::At<'_>| {
                        let p = S::parts(st);
                        let b = p.x.rows();
                        let w_next: &Mat = match above {
                            Above::Head => &p.params.softmax().w,
                            Above::Dense(i) => p.params.dense(i).0,
                        };
                        let uw = w_next.rows();
                        let [u, a, d] = p.ws.bufs_mut([up, a_cur, d_cur]);
                        let uv = MatView::new(&u[..b * uw], b, uw);
                        let mut dv = MatViewMut::new(&mut d[..b * h], b, h);
                        ctx.gemm(1.0, uv, false, w_next.view(), false, 0.0, &mut dv);
                        ctx.backend()
                            .sigmoid_backprop(&a[..b * h], dv.as_mut_slice());
                        ctx.charge_cost(ctx.backend().sigmoid_backprop_cost(b * h));
                    },
                );
            }
            // gw = delta^T input ; gb = colsum(delta).
            Emit::Grads(Part::Weights) => {
                let inp = self.input_buf(sb);
                let (d_cur, gw_cur) = (sb.buf(slot, "delta"), sb.buf(slot, "gw"));
                let from_x = self.below.is_none();
                sb.node(
                    NodeSpec::new("layer-gw")
                        .reads(&[d_cur, inp])
                        .writes(&[gw_cur]),
                    move |ctx, st: &mut S::At<'_>| {
                        let p = S::parts(st);
                        let b = p.x.rows();
                        if from_x {
                            let [d, gw] = p.ws.bufs_mut([d_cur, gw_cur]);
                            let dv = MatView::new(&d[..b * h], b, h);
                            let mut gv = MatViewMut::new(gw, h, v);
                            ctx.gemm(1.0, dv, true, p.x, false, 0.0, &mut gv);
                        } else {
                            let [d, a, gw] = p.ws.bufs_mut([d_cur, inp, gw_cur]);
                            let dv = MatView::new(&d[..b * h], b, h);
                            let av = MatView::new(&a[..b * v], b, v);
                            let mut gv = MatViewMut::new(gw, h, v);
                            ctx.gemm(1.0, dv, true, av, false, 0.0, &mut gv);
                        }
                    },
                );
            }
            Emit::Grads(Part::Biases) => emit_bias_colsum(sb, "layer-gb", slot, 1, h),
            Emit::Update(part) => {
                let names = ["layer-w-sgd", "layer-b-sgd"];
                emit_sgd(sb, names, slot, part, move |p| p.dense(idx));
            }
        }
    }
}

/// The softmax + cross-entropy head: forward probabilities, in-place
/// `(p - onehot) / b` delta (which doubles as the stack's topmost upstream
/// delta), gradients, SGD updates.
pub(crate) struct SoftmaxXent {
    /// Registry slot (binds `w`, `b`, `delta`, `gw`, `gb`). Downstream
    /// layers backprop against this slot's `delta` and `w`.
    pub slot: usize,
    /// Slot whose `act` feeds the head.
    pub below: usize,
    /// Input (code) width.
    pub in_dim: usize,
    /// Number of classes.
    pub n_classes: usize,
    /// Batch-row capacity buffers are declared against.
    pub cap: usize,
}

impl<S> Layer<S> for SoftmaxXent
where
    S: StackState,
    S::Params: DenseParams,
{
    fn declare(&self, sb: &mut StackBuilder<S>, what: Decl) {
        let (slot, c, code, cap) = (self.slot, self.n_classes, self.in_dim, self.cap);
        match what {
            Decl::Params => {
                sb.bind_dims(slot, "w", "softmax.w", &[c, code], BufClass::External);
                sb.bind_dims(slot, "b", "softmax.b", &[c], BufClass::External);
            }
            Decl::Acts => {}
            // The head's "delta" holds probabilities first, then the
            // in-place xent delta — one buffer, two lives.
            Decl::Deltas => {
                sb.bind_dims(slot, "delta", "dsoft", &[cap, c], BufClass::Scratch);
            }
            Decl::Grads(Part::Weights) => {
                sb.bind_dims(slot, "gw", "softmax.gw", &[c, code], BufClass::Scratch);
            }
            Decl::Grads(Part::Biases) => {
                sb.bind_dims(slot, "gb", "softmax.gb", &[c], BufClass::Scratch);
            }
        }
    }

    fn emit(&self, sb: &mut StackBuilder<S>, what: Emit) {
        let slot = self.slot;
        let (c, code) = (self.n_classes, self.in_dim);
        match what {
            // softmax: probabilities into the delta buffer.
            Emit::Forward => {
                let a_top = sb.buf(self.below, "act");
                let dsoft = sb.buf(slot, "delta");
                let (w_id, b_id) = (sb.buf(slot, "w"), sb.buf(slot, "b"));
                sb.node(
                    NodeSpec::new("softmax")
                        .reads(&[a_top, w_id, b_id])
                        .writes(&[dsoft]),
                    move |ctx, st: &mut S::At<'_>| {
                        let p = S::parts(st);
                        let b = p.x.rows();
                        let [a, probs] = p.ws.bufs_mut([a_top, dsoft]);
                        let av = MatView::new(&a[..b * code], b, code);
                        let mut pv = MatViewMut::new(&mut probs[..b * c], b, c);
                        p.params.softmax().forward_into(ctx, av, &mut pv);
                    },
                );
            }
            // Loss + in-place softmax delta (p - onehot) / b. Writes the
            // state's loss scalar, so it must stay exclusive.
            Emit::Backward => {
                let dsoft = sb.buf(slot, "delta");
                sb.node(
                    NodeSpec::new("xent-delta")
                        .reads(&[dsoft])
                        .writes(&[dsoft])
                        .exclusive(),
                    move |ctx, st: &mut S::At<'_>| {
                        let p = S::parts(st);
                        let b = p.x.rows();
                        let probs = &mut p.ws.buf_mut(dsoft)[..b * c];
                        *p.loss = mean_nll(MatView::new(probs, b, c), p.labels);
                        let inv_b = 1.0 / b as f32;
                        for (r, &label) in p.labels.iter().enumerate() {
                            let row = &mut probs[r * c..(r + 1) * c];
                            row[label] -= 1.0;
                            for pv in row.iter_mut() {
                                *pv *= inv_b;
                            }
                        }
                        ctx.charge_cost(OpCost::elementwise(b * c, 1, 2));
                    },
                );
            }
            Emit::Grads(Part::Weights) => {
                let a_top = sb.buf(self.below, "act");
                let (dsoft, gw_id) = (sb.buf(slot, "delta"), sb.buf(slot, "gw"));
                sb.node(
                    NodeSpec::new("softmax-gw")
                        .reads(&[dsoft, a_top])
                        .writes(&[gw_id]),
                    move |ctx, st: &mut S::At<'_>| {
                        let p = S::parts(st);
                        let b = p.x.rows();
                        let [d, a, gw] = p.ws.bufs_mut([dsoft, a_top, gw_id]);
                        let dv = MatView::new(&d[..b * c], b, c);
                        let av = MatView::new(&a[..b * code], b, code);
                        let mut gv = MatViewMut::new(gw, c, code);
                        ctx.gemm(1.0, dv, true, av, false, 0.0, &mut gv);
                    },
                );
            }
            Emit::Grads(Part::Biases) => emit_bias_colsum(sb, "softmax-gb", slot, 1, c),
            Emit::Update(part) => {
                let names = ["softmax-w-sgd", "softmax-b-sgd"];
                emit_sgd(sb, names, slot, part, |p| {
                    let head = p.softmax();
                    (&mut head.w, &mut head.b)
                });
            }
        }
    }
}

/// Mean negative log-likelihood of the labeled rows under `probs`.
pub(crate) fn mean_nll(probs: MatView<'_>, labels: &[usize]) -> f64 {
    let mut nll = 0.0f64;
    for (r, &label) in labels.iter().enumerate() {
        // `max` returns the other operand on NaN, which would launder a
        // poisoned probability into a finite ~27.6 — the loss must stay
        // NaN so the supervisor's divergence sentinel can trip.
        let p = f64::from(probs.get(r, label));
        nll -= if p.is_nan() { p } else { p.max(1e-12).ln() };
    }
    nll / labels.len().max(1) as f64
}

/// Hard predictions: the argmax class index of each row of `probs`.
pub(crate) fn argmax_rows(probs: MatView<'_>) -> Vec<usize> {
    (0..probs.rows())
        .map(|r| {
            probs
                .row(r)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probs"))
                .map(|(i, _)| i)
                .expect("non-empty row")
        })
        .collect()
}

/// Fraction of `pred` that matches `labels` (one label per prediction).
pub(crate) fn hit_rate(pred: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(labels.len(), pred.len(), "one label per example");
    let correct = pred.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f64 / labels.len().max(1) as f64
}

// ---------------------------------------------------------------------------
// Convolutional layers: the first non-paper workloads on the graph IR.
// ---------------------------------------------------------------------------

/// A single-input-channel 2-D convolution lowered onto the existing GEMM:
/// `im2col` gathers `k x k` patches, one GEMM against the `c_out x k*k`
/// filter bank produces all output pixels, and the fused bias + sigmoid
/// sweep treats channels as columns. Activation layout is
/// `(b * oh * ow) x c_out`, which the GEMM writes directly — no
/// re-layout pass.
///
/// Backward needs no `col2im`: this layer sits at the stack's input, so
/// only filter gradients (`delta^T col`) and bias column-sums are needed.
pub(crate) struct Conv2d {
    /// Registry slot (binds `w`, `b`, `col`, `act`, `delta`, `gw`, `gb`).
    pub slot: usize,
    /// [`ConvParams::conv`] index.
    pub idx: usize,
    /// Input image side (single channel, `side * side` per batch row).
    pub side: usize,
    /// Filter side `k` (stride 1, no padding: output side is
    /// `side - k + 1`).
    pub kernel: usize,
    /// Number of output channels.
    pub channels: usize,
    /// Batch-row capacity buffers are declared against.
    pub cap: usize,
}

impl Conv2d {
    /// Output side (`side - k + 1`).
    pub(crate) fn out_side(&self) -> usize {
        self.side - self.kernel + 1
    }

    fn patch(&self) -> usize {
        self.kernel * self.kernel
    }
}

impl<S> Layer<S> for Conv2d
where
    S: StackState,
    S::Params: ConvParams,
{
    fn declare(&self, sb: &mut StackBuilder<S>, what: Decl) {
        let (slot, c, kk, cap) = (self.slot, self.channels, self.patch(), self.cap);
        let pix = self.out_side() * self.out_side();
        match what {
            Decl::Params => {
                sb.bind_dims(slot, "w", "conv.w", &[c, kk], BufClass::External);
                sb.bind_dims(slot, "b", "conv.b", &[c], BufClass::External);
            }
            // The patch matrix stays live until the filter-gradient GEMM
            // re-reads it; the activations feed pooling and σ'.
            Decl::Acts => {
                sb.bind_dims(slot, "col", "conv.col", &[cap * pix, kk], BufClass::Scratch);
                sb.bind_dims(slot, "act", "conv.act", &[cap * pix, c], BufClass::Pinned);
            }
            Decl::Deltas => {
                sb.bind_dims(
                    slot,
                    "delta",
                    "conv.delta",
                    &[cap * pix, c],
                    BufClass::Scratch,
                );
            }
            Decl::Grads(Part::Weights) => {
                sb.bind_dims(slot, "gw", "conv.gw", &[c, kk], BufClass::Scratch);
            }
            Decl::Grads(Part::Biases) => {
                sb.bind_dims(slot, "gb", "conv.gb", &[c], BufClass::Scratch);
            }
        }
    }

    fn emit(&self, sb: &mut StackBuilder<S>, what: Emit) {
        let slot = self.slot;
        let idx = self.idx;
        let (side, k, c, kk) = (self.side, self.kernel, self.channels, self.patch());
        let pix = self.out_side() * self.out_side();
        match what {
            Emit::Forward => {
                // im2col: gather k x k patches from the input batch.
                let x_id = sb.global("x");
                let col_id = sb.buf(slot, "col");
                sb.node(
                    NodeSpec::new("im2col").reads(&[x_id]).writes(&[col_id]),
                    move |ctx, st: &mut S::At<'_>| {
                        let p = S::parts(st);
                        let b = p.x.rows();
                        let col = &mut p.ws.buf_mut(col_id)[..b * pix * kk];
                        conv::im2col(ctx.backend().par(), p.x.as_slice(), b, side, k, col);
                        ctx.charge_cost(OpCost::memcpy(b * pix * kk));
                    },
                );
                // conv-forward: one GEMM against the filter bank, then the
                // per-channel bias + sigmoid sweep (channels are columns).
                let a_id = sb.buf(slot, "act");
                let (w_id, b_id) = (sb.buf(slot, "w"), sb.buf(slot, "b"));
                sb.node(
                    NodeSpec::new("conv-forward")
                        .reads(&[col_id, w_id, b_id])
                        .writes(&[a_id]),
                    move |ctx, st: &mut S::At<'_>| {
                        let p = S::parts(st);
                        let b = p.x.rows();
                        let (w, bias) = p.params.conv(idx);
                        let [col, act] = p.ws.bufs_mut([col_id, a_id]);
                        let cv = MatView::new(&col[..b * pix * kk], b * pix, kk);
                        let mut av = MatViewMut::new(&mut act[..b * pix * c], b * pix, c);
                        ctx.gemm(1.0, cv, false, w.view(), true, 0.0, &mut av);
                        ctx.bias_sigmoid_rows(bias, &mut av);
                    },
                );
            }
            // conv-dsig: the unpooled delta arrives linear (pooling has no
            // nonlinearity); apply this layer's σ' in place.
            Emit::Backward => {
                let (a_id, d_id) = (sb.buf(slot, "act"), sb.buf(slot, "delta"));
                sb.node(
                    NodeSpec::new("conv-dsig")
                        .reads(&[a_id, d_id])
                        .writes(&[d_id]),
                    move |ctx, st: &mut S::At<'_>| {
                        let p = S::parts(st);
                        let b = p.x.rows();
                        let [a, d] = p.ws.bufs_mut([a_id, d_id]);
                        let n = b * pix * c;
                        ctx.backend().sigmoid_backprop(&a[..n], &mut d[..n]);
                        ctx.charge_cost(ctx.backend().sigmoid_backprop_cost(n));
                    },
                );
            }
            // gw = delta^T col ; gb = colsum(delta).
            Emit::Grads(Part::Weights) => {
                let (d_id, col_id, gw_id) = (
                    sb.buf(slot, "delta"),
                    sb.buf(slot, "col"),
                    sb.buf(slot, "gw"),
                );
                sb.node(
                    NodeSpec::new("conv-gw")
                        .reads(&[d_id, col_id])
                        .writes(&[gw_id]),
                    move |ctx, st: &mut S::At<'_>| {
                        let p = S::parts(st);
                        let b = p.x.rows();
                        let [d, col, gw] = p.ws.bufs_mut([d_id, col_id, gw_id]);
                        let dv = MatView::new(&d[..b * pix * c], b * pix, c);
                        let cv = MatView::new(&col[..b * pix * kk], b * pix, kk);
                        let mut gv = MatViewMut::new(gw, c, kk);
                        ctx.gemm(1.0, dv, true, cv, false, 0.0, &mut gv);
                    },
                );
            }
            Emit::Grads(Part::Biases) => emit_bias_colsum(sb, "conv-gb", slot, pix, c),
            Emit::Update(part) => {
                let names = ["conv-w-sgd", "conv-b-sgd"];
                emit_sgd(sb, names, slot, part, move |p| p.conv(idx));
            }
        }
    }
}

/// Non-overlapping 2-D max pooling over [`Conv2d`] activations
/// (`(b * oh * ow) x c` in, `b x (c * ph * pw)` out, argmax indices kept
/// for the backward scatter). Parameter-free.
pub(crate) struct MaxPool2d {
    /// Registry slot (binds `act`, `idx`, `delta`).
    pub slot: usize,
    /// The conv layer's slot (input `act`, output of the backward
    /// scatter into its `delta`).
    pub below: usize,
    /// Slot whose `delta` drives this layer's backprop.
    pub above_slot: usize,
    /// Where the upstream weights live.
    pub above: Above,
    /// Conv output side (pooling input is `in_side x in_side` per
    /// channel).
    pub in_side: usize,
    /// Channels.
    pub channels: usize,
    /// Pooling window / stride (non-overlapping).
    pub pool: usize,
    /// Batch-row capacity buffers are declared against.
    pub cap: usize,
}

impl MaxPool2d {
    /// Pooled side (`in_side / pool`; construction asserts divisibility).
    pub(crate) fn out_side(&self) -> usize {
        self.in_side / self.pool
    }

    /// Pooled width per batch row (`c * ph * pw`).
    pub(crate) fn out_dim(&self) -> usize {
        self.channels * self.out_side() * self.out_side()
    }
}

impl<S> Layer<S> for MaxPool2d
where
    S: StackState,
    S::Params: DenseParams,
{
    fn declare(&self, sb: &mut StackBuilder<S>, what: Decl) {
        let (slot, cap) = (self.slot, self.cap);
        let out = self.out_dim();
        match what {
            // Argmax indices are written forward and read backward, so
            // they live alongside the pooled activations.
            Decl::Acts => {
                sb.bind_dims(slot, "act", "pool.act", &[cap, out], BufClass::Pinned);
                sb.bind_dims(slot, "idx", "pool.idx", &[cap, out], BufClass::Scratch);
            }
            Decl::Deltas => {
                sb.bind_dims(slot, "delta", "pool.delta", &[cap, out], BufClass::Scratch);
            }
            _ => {}
        }
    }

    fn emit(&self, sb: &mut StackBuilder<S>, what: Emit) {
        let slot = self.slot;
        let (oh, c, pool) = (self.in_side, self.channels, self.pool);
        let out = self.out_dim();
        match what {
            Emit::Forward => {
                let conv_act = sb.buf(self.below, "act");
                let (a_id, i_id) = (sb.buf(slot, "act"), sb.buf(slot, "idx"));
                sb.node(
                    NodeSpec::new("pool-forward")
                        .reads(&[conv_act])
                        .writes(&[a_id, i_id]),
                    move |ctx, st: &mut S::At<'_>| {
                        let p = S::parts(st);
                        let b = p.x.rows();
                        let [act, pooled, pidx] = p.ws.bufs_mut([conv_act, a_id, i_id]);
                        conv::maxpool2d_forward(
                            ctx.backend().par(),
                            &act[..b * oh * oh * c],
                            b,
                            oh,
                            c,
                            pool,
                            &mut pooled[..b * out],
                            &mut pidx[..b * out],
                        );
                        let win = (pool * pool) as u32;
                        ctx.charge_cost(OpCost::elementwise(b * out, win, win));
                    },
                );
            }
            Emit::Backward => {
                // pool-delta: upstream delta through the upstream weights
                // (pooling itself is linear — no activation derivative).
                let up = sb.buf(self.above_slot, "delta");
                let up_w = sb.buf(self.above_slot, "w");
                let d_id = sb.buf(slot, "delta");
                let above = self.above;
                sb.node(
                    NodeSpec::new("pool-delta")
                        .reads(&[up, up_w])
                        .writes(&[d_id]),
                    move |ctx, st: &mut S::At<'_>| {
                        let p = S::parts(st);
                        let b = p.x.rows();
                        let w_next: &Mat = match above {
                            Above::Head => &p.params.softmax().w,
                            Above::Dense(i) => p.params.dense(i).0,
                        };
                        let uw = w_next.rows();
                        let [u, d] = p.ws.bufs_mut([up, d_id]);
                        let uv = MatView::new(&u[..b * uw], b, uw);
                        let mut dv = MatViewMut::new(&mut d[..b * out], b, out);
                        ctx.gemm(1.0, uv, false, w_next.view(), false, 0.0, &mut dv);
                    },
                );
                // unpool: scatter each pooled delta to its argmax source
                // (windows are disjoint, so this is a plain indexed write).
                let i_id = sb.buf(slot, "idx");
                let conv_delta = sb.buf(self.below, "delta");
                sb.node(
                    NodeSpec::new("unpool")
                        .reads(&[d_id, i_id])
                        .writes(&[conv_delta]),
                    move |ctx, st: &mut S::At<'_>| {
                        let p = S::parts(st);
                        let b = p.x.rows();
                        let [d, pidx, dconv] = p.ws.bufs_mut([d_id, i_id, conv_delta]);
                        conv::maxpool2d_backward(
                            ctx.backend().par(),
                            &d[..b * out],
                            &pidx[..b * out],
                            b,
                            oh,
                            c,
                            pool,
                            &mut dconv[..b * oh * oh * c],
                        );
                        ctx.charge_cost(OpCost::memcpy(b * oh * oh * c));
                    },
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NullState;
    impl NodeState for NullState {
        type At<'a> = NullState;
    }

    #[test]
    fn registry_binds_and_resolves() {
        let mut sb: StackBuilder<NullState> = StackBuilder::new();
        let x = sb.bind_global_dims("x", "x", &[4, 16], BufClass::External);
        let a = sb.bind_dims(2, "act", "act", &[4, 8], BufClass::Pinned);
        assert_eq!(sb.global("x"), x);
        assert_eq!(sb.buf(2, "act"), a);
    }

    #[test]
    #[should_panic(expected = "no buffer bound")]
    fn missing_binding_panics_with_slot_and_key() {
        let sb: StackBuilder<NullState> = StackBuilder::new();
        sb.buf(0, "delta");
    }
}
