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
//! run against. The supervised family ([`Dense`], [`SoftmaxXent`],
//! [`Conv2d`], [`MaxPool2d`]) is written once against the labeled nets' one
//! state, [`StepState`], and reaches parameters through [`NetParams`]:
//! forward, backward and gradient bodies read them shared, and only the
//! plain-SGD update nodes, which go through one emitter as the bias
//! column-sum nodes do, write them. So a new parameterised layer writes
//! only its forward, backward and weight-gradient bodies. Algorithm-specific
//! layers implement `Layer` directly against their own state: the AE's
//! KL-sparsity block, and the AE's encoder and decoder — one
//! sigmoid-affine half-layer selected by which half it is, sharing
//! forward, gradients and one update emitter (SGD or optimizer slot), with
//! only the two backward deltas written apart; `encode` builds the encoder
//! half alone. The RBM's CD-k, PCD and forward recipes (`cd_graph`) call
//! one emitter per node kind on the builder, needing no passes. Like
//! [`StepState`], these states bind the model shared unless a run updates it.
//!
//! # Plugging in a new labeled net
//!
//! A softmax-headed net supplies a parameter store (implementing
//! [`NetParams`]) and one recipe that composes the layers above in a fixed
//! order through [`StackBuilder::declare`] and [`StackBuilder::emit`]
//! (`finetune::recipe`, `cnn::recipe`), and implements [`crate::LabeledNet`]
//! with them, along with its geometry, failpoint name and checkpoint
//! record. The trait builds both of the net's graphs from that recipe: the
//! training step, and a forward-only graph ([`StackBuilder::forward_only`])
//! that serving and `predict_proba` run, so inference runs the very forward
//! nodes training does. The step state, the kept graph and arena (the AE
//! and CD steps keep theirs the same way), the schedule flag,
//! `train_batch`/`fit`/`predict_proba`/`accuracy`, serving, the footprint
//! and the label-cursor wrapper ([`crate::LabeledModel`]) are shared.
//!
//! Footprint rules, enforced by [`TaskGraph::verify`] on every shipped
//! recipe (pinned at 0 errors / 0 warnings in `tests/verify_properties.rs`):
//!
//! * every buffer a node body touches must appear in its `reads`/`writes`,
//!   and every op it charges in its op declaration ([`NodeSpec::ops`],
//!   checked on the node's first run under the verifier);
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
use crate::graph::{BufClass, BufId, NodeSpec, NodeState, TaskGraph};
use crate::labeled::StepState;
use micdnn_kernels::conv::{self, Patches};
use micdnn_kernels::{OpCost, Operand};
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
    /// Builds the forward pass alone ([`StackBuilder::forward_only`]).
    forward_only: bool,
}

impl<S: NodeState> StackBuilder<S> {
    /// An empty builder for a training step.
    pub(crate) fn new() -> Self {
        StackBuilder {
            g: TaskGraph::new(),
            slots: Vec::new(),
            globals: Vec::new(),
            forward_only: false,
        }
    }

    /// An empty builder for the forward pass alone: [`Self::declare`] runs
    /// only the parameter and activation passes and [`Self::emit`] only the
    /// forward one, activations are `Scratch` ([`Self::act_class`]), and
    /// the head declares its probabilities as the `Pinned` buffer `probs`,
    /// the output read after the run.
    pub(crate) fn forward_only() -> Self {
        StackBuilder {
            forward_only: true,
            ..Self::new()
        }
    }

    /// Whether this builder builds the forward pass alone.
    pub(crate) fn is_forward_only(&self) -> bool {
        self.forward_only
    }

    /// The class of a layer's activations: `Pinned` in a training step,
    /// which keeps them from the forward pass until the backward pass reads
    /// them, and `Scratch` in a forward-only graph, where each dies once
    /// the next layer has read it.
    pub(crate) fn act_class(&self) -> BufClass {
        if self.forward_only {
            BufClass::Scratch
        } else {
            BufClass::Pinned
        }
    }

    /// Runs `layer`'s declaration pass `what`, unless this is a
    /// forward-only build and `what` declares deltas or gradients.
    pub(crate) fn declare(&mut self, layer: &impl Layer<S>, what: Decl) {
        if !self.forward_only || matches!(what, Decl::Params | Decl::Acts) {
            layer.declare(self, what);
        }
    }

    /// Runs `layer`'s emission pass `what`, unless this is a forward-only
    /// build and `what` is not the forward pass.
    pub(crate) fn emit(&mut self, layer: &impl Layer<S>, what: Emit) {
        if !self.forward_only || what == Emit::Forward {
            layer.emit(self, what);
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

    /// Element count of the buffer `id` as declared.
    pub(crate) fn elems(&self, id: BufId) -> usize {
        self.g.bufs[id.0].elems()
    }

    /// Row width (last declared dim) of the buffer `id`.
    pub(crate) fn width(&self, id: BufId) -> usize {
        self.g.bufs[id.0].dims.last().copied().unwrap_or(1)
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
// The supervised family: one parameter trait + generic layers.
// ---------------------------------------------------------------------------

/// The builder of a labeled net's graphs.
type NetBuilder<'s, N> = StackBuilder<StepState<'s, N>>;

/// Which parameterised layer of a net a node reads or updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParamKey {
    /// A dense layer, by index.
    Dense(usize),
    /// A conv layer, by index.
    Conv(usize),
    /// The softmax head.
    Head,
}

/// Parameter access for the supervised layers. Node bodies read through
/// [`NetParams::tensors`]; only a training step's update nodes ask for
/// [`NetParams::tensors_mut`].
pub(crate) trait NetParams: 'static {
    /// `(weights, biases)` of the layer `key` names.
    fn tensors(&self, key: ParamKey) -> (&Mat, &[f32]);
    /// [`NetParams::tensors`], writable.
    fn tensors_mut(&mut self, key: ParamKey) -> (&mut Mat, &mut Vec<f32>);
    /// The classification head.
    fn head(&self) -> &SoftmaxLayer;
    /// L2 weight decay applied to weight (not bias) updates.
    fn weight_decay(&self) -> f32;
}

/// Emits the bias-gradient node of a dense layer: `gb = colsum(delta)` over
/// the live `b` rows of slot `slot`'s `width`-wide delta.
fn emit_bias_colsum<N: NetParams>(
    sb: &mut NetBuilder<'_, N>,
    name: &'static str,
    slot: usize,
    width: usize,
) {
    let (d_id, gb_id) = (sb.buf(slot, "delta"), sb.buf(slot, "gb"));
    sb.node(
        NodeSpec::new(name)
            .reads(&[d_id])
            .writes(&[gb_id])
            .ops(move |be, b| vec![be.reduce_cost(b, width)]),
        move |ctx, st: &mut StepState<'_, N>| {
            let rows = st.x.rows();
            let [d, gb] = st.ws.bufs_mut([d_id, gb_id]);
            ctx.colsum(MatView::new(&d[..rows * width], rows, width), gb);
        },
    );
}

/// Emits one plain-SGD update node of a supervised layer: slot `slot`'s
/// `gw` into its weights (with the model's weight decay) or its `gb` into
/// its biases (without). `names` are the `[weights, biases]` node names;
/// `key` names the layer's tensors in the parameter store.
fn emit_sgd<N: NetParams>(
    sb: &mut NetBuilder<'_, N>,
    names: [&'static str; 2],
    slot: usize,
    part: Part,
    key: ParamKey,
) {
    let (name, grad, param) = match part {
        Part::Weights => (names[0], sb.buf(slot, "gw"), sb.buf(slot, "w")),
        Part::Biases => (names[1], sb.buf(slot, "gb"), sb.buf(slot, "b")),
    };
    let n = sb.elems(param);
    sb.node(
        NodeSpec::new(name)
            .reads(&[grad])
            .writes(&[param])
            .ops(move |be, _| vec![be.sgd_cost(n)]),
        move |ctx, st: &mut StepState<'_, N>| {
            let net = st.net.get_mut();
            let lambda = net.weight_decay();
            let (w, bias) = net.tensors_mut(key);
            match part {
                Part::Weights => ctx.sgd_step(st.lr, lambda, st.ws.buf(grad), w.as_mut_slice()),
                Part::Biases => ctx.sgd_step(st.lr, 0.0, st.ws.buf(grad), bias),
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
    /// Index of its [`ParamKey::Dense`] tensors.
    pub idx: usize,
    /// Slot whose `act` feeds this layer; `None` reads the global `x`.
    pub below: Option<usize>,
    /// Slot whose `delta` drives this layer's backprop.
    pub above_slot: usize,
    /// Where the upstream weights live.
    pub above: ParamKey,
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

impl<'s, N: NetParams> Layer<StepState<'s, N>> for Dense {
    fn declare(&self, sb: &mut NetBuilder<'s, N>, what: Decl) {
        let (slot, h, v, cap) = (self.slot, self.out_dim, self.in_dim, self.cap);
        match what {
            Decl::Params => {
                sb.bind_dims(slot, "w", "layer.w", &[h, v], BufClass::External);
                sb.bind_dims(slot, "b", "layer.b", &[h], BufClass::External);
            }
            Decl::Acts => {
                let class = sb.act_class();
                sb.bind_dims(slot, "act", "act", &[cap, h], class);
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

    fn emit(&self, sb: &mut NetBuilder<'s, N>, what: Emit) {
        let slot = self.slot;
        let key = ParamKey::Dense(self.idx);
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
                        .writes(&[a_cur])
                        .ops(move |be, b| vec![be.gemm_cost(b, h, v), be.bias_sigmoid_cost(b * h)]),
                    move |ctx, st: &mut StepState<'_, N>| {
                        let b = st.x.rows();
                        let (w, bias) = st.net.get().tensors(key);
                        if from_x {
                            let out = &mut st.ws.buf_mut(a_cur)[..b * h];
                            let mut vv = MatViewMut::new(out, b, h);
                            ctx.gemm(1.0, st.x, false, w.view(), true, 0.0, &mut vv);
                            ctx.bias_sigmoid_rows(bias, &mut vv);
                        } else {
                            let [i, out] = st.ws.bufs_mut([inp, a_cur]);
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
                let (above, k) = (self.above, sb.width(up));
                sb.node(
                    NodeSpec::new("backprop")
                        .reads(&[up, up_w, a_cur])
                        .writes(&[d_cur])
                        .ops(move |be, b| {
                            vec![be.gemm_cost(b, h, k), be.sigmoid_backprop_cost(b * h)]
                        }),
                    move |ctx, st: &mut StepState<'_, N>| {
                        let b = st.x.rows();
                        let w_next = st.net.get().tensors(above).0;
                        let uw = w_next.rows();
                        let [u, a, d] = st.ws.bufs_mut([up, a_cur, d_cur]);
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
                        .writes(&[gw_cur])
                        .ops(move |be, b| vec![be.gemm_cost(h, v, b)]),
                    move |ctx, st: &mut StepState<'_, N>| {
                        let b = st.x.rows();
                        if from_x {
                            let [d, gw] = st.ws.bufs_mut([d_cur, gw_cur]);
                            let dv = MatView::new(&d[..b * h], b, h);
                            let mut gv = MatViewMut::new(gw, h, v);
                            ctx.gemm(1.0, dv, true, st.x, false, 0.0, &mut gv);
                        } else {
                            let [d, a, gw] = st.ws.bufs_mut([d_cur, inp, gw_cur]);
                            let dv = MatView::new(&d[..b * h], b, h);
                            let av = MatView::new(&a[..b * v], b, v);
                            let mut gv = MatViewMut::new(gw, h, v);
                            ctx.gemm(1.0, dv, true, av, false, 0.0, &mut gv);
                        }
                    },
                );
            }
            Emit::Grads(Part::Biases) => emit_bias_colsum(sb, "layer-gb", slot, h),
            Emit::Update(part) => emit_sgd(sb, ["layer-w-sgd", "layer-b-sgd"], slot, part, key),
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

impl<'s, N: NetParams> Layer<StepState<'s, N>> for SoftmaxXent {
    fn declare(&self, sb: &mut NetBuilder<'s, N>, what: Decl) {
        let (slot, c, code, cap) = (self.slot, self.n_classes, self.in_dim, self.cap);
        match what {
            Decl::Params => {
                sb.bind_dims(slot, "w", "softmax.w", &[c, code], BufClass::External);
                sb.bind_dims(slot, "b", "softmax.b", &[c], BufClass::External);
            }
            // A forward-only graph's output: the probabilities, read after
            // the run, in the buffer a step's delta pass would bind.
            Decl::Acts if sb.is_forward_only() => {
                sb.bind_dims(slot, "delta", "probs", &[cap, c], BufClass::Pinned);
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

    fn emit(&self, sb: &mut NetBuilder<'s, N>, what: Emit) {
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
                        .writes(&[dsoft])
                        .ops(move |be, b| vec![be.gemm_cost(b, c, code), OpCost::sigmoid(b * c)]),
                    move |ctx, st: &mut StepState<'_, N>| {
                        let b = st.x.rows();
                        let [a, probs] = st.ws.bufs_mut([a_top, dsoft]);
                        let av = MatView::new(&a[..b * code], b, code);
                        let mut pv = MatViewMut::new(&mut probs[..b * c], b, c);
                        st.net.get().head().forward_into(ctx, av, &mut pv);
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
                        .exclusive()
                        .ops(move |_, b| vec![OpCost::elementwise(b * c, 1, 2)]),
                    move |ctx, st: &mut StepState<'_, N>| {
                        let b = st.x.rows();
                        let probs = &mut st.ws.buf_mut(dsoft)[..b * c];
                        st.loss = mean_nll(MatView::new(probs, b, c), st.labels);
                        let inv_b = 1.0 / b as f32;
                        for (r, &label) in st.labels.iter().enumerate() {
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
                        .writes(&[gw_id])
                        .ops(move |be, b| vec![be.gemm_cost(c, code, b)]),
                    move |ctx, st: &mut StepState<'_, N>| {
                        let b = st.x.rows();
                        let [d, a, gw] = st.ws.bufs_mut([dsoft, a_top, gw_id]);
                        let dv = MatView::new(&d[..b * c], b, c);
                        let av = MatView::new(&a[..b * code], b, code);
                        let mut gv = MatViewMut::new(gw, c, code);
                        ctx.gemm(1.0, dv, true, av, false, 0.0, &mut gv);
                    },
                );
            }
            Emit::Grads(Part::Biases) => emit_bias_colsum(sb, "softmax-gb", slot, c),
            Emit::Update(part) => {
                let names = ["softmax-w-sgd", "softmax-b-sgd"];
                emit_sgd(sb, names, slot, part, ParamKey::Head);
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
/// one product of the `c_out x k*k` filter bank against the batch's
/// transposed `k x k` patches produces all output pixels, and the fused
/// bias + sigmoid sweep adds each channel's bias to its plane. The patch
/// matrix is never formed: the product reads each patch where the image is
/// stored ([`Patches`]). Activations (and their deltas) are channel-major,
/// `c_out x (b * oh * ow)`: channel by channel, then image, output row and
/// output column, the layout the GEMM writes — one row panel of C whose
/// pixels fill whole vectors — with no re-layout pass.
///
/// Backward needs no `col2im`: this layer sits at the stack's input, so
/// only filter gradients (`delta · patches`, the patches again read from
/// the batch) and bias sums, each channel's plane in pixel order, are
/// needed.
pub(crate) struct Conv2d {
    /// Registry slot (binds `w`, `b`, `act`, `delta`, `gw`, `gb`).
    pub slot: usize,
    /// Index of its [`ParamKey::Conv`] tensors.
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

impl<'s, N: NetParams> Layer<StepState<'s, N>> for Conv2d {
    fn declare(&self, sb: &mut NetBuilder<'s, N>, what: Decl) {
        let (slot, c, kk, cap) = (self.slot, self.channels, self.patch(), self.cap);
        let pix = self.out_side() * self.out_side();
        match what {
            Decl::Params => {
                sb.bind_dims(slot, "w", "conv.w", &[c, kk], BufClass::External);
                sb.bind_dims(slot, "b", "conv.b", &[c], BufClass::External);
            }
            // The activations feed pooling and σ'; a batch of `b` rows
            // holds `c` planes of `b * pix` pixels.
            Decl::Acts => {
                let class = sb.act_class();
                sb.bind_dims(slot, "act", "conv.act", &[c, cap * pix], class);
            }
            Decl::Deltas => {
                sb.bind_dims(
                    slot,
                    "delta",
                    "conv.delta",
                    &[c, cap * pix],
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

    fn emit(&self, sb: &mut NetBuilder<'s, N>, what: Emit) {
        let slot = self.slot;
        let key = ParamKey::Conv(self.idx);
        let (side, k, c, kk) = (self.side, self.kernel, self.channels, self.patch());
        let pix = self.out_side() * self.out_side();
        match what {
            Emit::Forward => {
                // conv-forward: one GEMM of the filter bank against the
                // batch's transposed patches, then the bias + sigmoid sweep,
                // each channel's bias over its plane. Its first op is the
                // im2col copy the step was priced with when it formed the
                // patch matrix, so the simulated seconds stay those of that
                // step; the product's cost is symmetric in its `m` and `n`.
                let x_id = sb.global("x");
                let a_id = sb.buf(slot, "act");
                let (w_id, b_id) = (sb.buf(slot, "w"), sb.buf(slot, "b"));
                sb.node(
                    NodeSpec::new("conv-forward")
                        .reads(&[x_id, w_id, b_id])
                        .writes(&[a_id])
                        .ops(move |be, b| {
                            vec![
                                OpCost::memcpy(b * pix * kk),
                                be.gemm_cost(b * pix, c, kk),
                                be.bias_sigmoid_cost(b * pix * c),
                            ]
                        }),
                    move |ctx, st: &mut StepState<'_, N>| {
                        let b = st.x.rows();
                        let (w, bias) = st.net.get().tensors(key);
                        let x = Patches::new(st.x.as_slice(), b, side, k);
                        let act = &mut st.ws.buf_mut(a_id)[..b * pix * c];
                        let mut av = MatViewMut::new(act, c, b * pix);
                        ctx.charge_cost(OpCost::memcpy(b * pix * kk));
                        let x = Operand::Patches(x, true);
                        ctx.gemm_op(1.0, w.view(), false, x, 0.0, &mut av);
                        ctx.bias_sigmoid_planes(bias, &mut av);
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
                        .writes(&[d_id])
                        .ops(move |be, b| vec![be.sigmoid_backprop_cost(b * pix * c)]),
                    move |ctx, st: &mut StepState<'_, N>| {
                        let b = st.x.rows();
                        let [a, d] = st.ws.bufs_mut([a_id, d_id]);
                        let n = b * pix * c;
                        ctx.backend().sigmoid_backprop(&a[..n], &mut d[..n]);
                        ctx.charge_cost(ctx.backend().sigmoid_backprop_cost(n));
                    },
                );
            }
            // gw = delta · patches ; gb = each plane of delta summed.
            Emit::Grads(Part::Weights) => {
                let (d_id, x_id, gw_id) =
                    (sb.buf(slot, "delta"), sb.global("x"), sb.buf(slot, "gw"));
                sb.node(
                    NodeSpec::new("conv-gw")
                        .reads(&[d_id, x_id])
                        .writes(&[gw_id])
                        .ops(move |be, b| vec![be.gemm_cost(c, kk, b * pix)]),
                    move |ctx, st: &mut StepState<'_, N>| {
                        let b = st.x.rows();
                        let x = Patches::new(st.x.as_slice(), b, side, k);
                        let [d, gw] = st.ws.bufs_mut([d_id, gw_id]);
                        let dv = MatView::new(&d[..b * pix * c], c, b * pix);
                        let mut gv = MatViewMut::new(gw, c, kk);
                        ctx.gemm_op(1.0, dv, false, Operand::Patches(x, false), 0.0, &mut gv);
                    },
                );
            }
            // Each channel's plane summed in pixel order: the chain of the
            // column sum of the NHWC delta, at its cost.
            Emit::Grads(Part::Biases) => {
                let (d_id, gb_id) = (sb.buf(slot, "delta"), sb.buf(slot, "gb"));
                sb.node(
                    NodeSpec::new("conv-gb")
                        .reads(&[d_id])
                        .writes(&[gb_id])
                        .ops(move |be, b| vec![be.reduce_cost(b * pix, c)]),
                    move |ctx, st: &mut StepState<'_, N>| {
                        let b = st.x.rows();
                        let [d, gb] = st.ws.bufs_mut([d_id, gb_id]);
                        ctx.rowsum(MatView::new(&d[..b * pix * c], c, b * pix), gb);
                    },
                );
            }
            Emit::Update(part) => emit_sgd(sb, ["conv-w-sgd", "conv-b-sgd"], slot, part, key),
        }
    }
}

/// Non-overlapping 2-D max pooling over [`Conv2d`] activations (channel
/// planes, `c x (b * oh * ow)`, in; `b x (c * ph * pw)` out, argmax indices
/// into the planes kept for the backward scatter, which writes the conv
/// layer's delta in the same planes). Parameter-free.
pub(crate) struct MaxPool2d {
    /// Registry slot (binds `act`, `idx`, `delta`).
    pub slot: usize,
    /// The conv layer's slot (input `act`, output of the backward
    /// scatter into its `delta`).
    pub below: usize,
    /// Slot whose `delta` drives this layer's backprop.
    pub above_slot: usize,
    /// Where the upstream weights live.
    pub above: ParamKey,
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

impl<'s, N: NetParams> Layer<StepState<'s, N>> for MaxPool2d {
    fn declare(&self, sb: &mut NetBuilder<'s, N>, what: Decl) {
        let (slot, cap) = (self.slot, self.cap);
        let out = self.out_dim();
        match what {
            // Argmax indices are written forward and read backward, so
            // they live alongside the pooled activations. A forward-only
            // graph has no backward to read them: there they are an output
            // of the run, like the probabilities.
            Decl::Acts => {
                let class = sb.act_class();
                sb.bind_dims(slot, "act", "pool.act", &[cap, out], class);
                let idx_class = if sb.is_forward_only() {
                    BufClass::Pinned
                } else {
                    BufClass::Scratch
                };
                sb.bind_dims(slot, "idx", "pool.idx", &[cap, out], idx_class);
            }
            Decl::Deltas => {
                sb.bind_dims(slot, "delta", "pool.delta", &[cap, out], BufClass::Scratch);
            }
            _ => {}
        }
    }

    fn emit(&self, sb: &mut NetBuilder<'s, N>, what: Emit) {
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
                        .writes(&[a_id, i_id])
                        .ops(move |_, b| {
                            let win = (pool * pool) as u32;
                            vec![OpCost::elementwise(b * out, win, win)]
                        }),
                    move |ctx, st: &mut StepState<'_, N>| {
                        let b = st.x.rows();
                        let [act, pooled, pidx] = st.ws.bufs_mut([conv_act, a_id, i_id]);
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
                let (above, k) = (self.above, sb.width(up));
                sb.node(
                    NodeSpec::new("pool-delta")
                        .reads(&[up, up_w])
                        .writes(&[d_id])
                        .ops(move |be, b| vec![be.gemm_cost(b, out, k)]),
                    move |ctx, st: &mut StepState<'_, N>| {
                        let b = st.x.rows();
                        let w_next = st.net.get().tensors(above).0;
                        let uw = w_next.rows();
                        let [u, d] = st.ws.bufs_mut([up, d_id]);
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
                        .writes(&[conv_delta])
                        .ops(move |_, b| vec![OpCost::memcpy(b * oh * oh * c)]),
                    move |ctx, st: &mut StepState<'_, N>| {
                        let b = st.x.rows();
                        let [d, pidx, dconv] = st.ws.bufs_mut([d_id, i_id, conv_delta]);
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
