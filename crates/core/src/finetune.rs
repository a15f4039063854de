//! Supervised fine-tuning of a pre-trained stack.
//!
//! The paper's introduction motivates unsupervised pre-training as
//! producing codes that "make it easier to learn tasks of interests" and
//! "benefit subsequent work". This module is that subsequent work: a
//! softmax classification head on top of a pre-trained
//! [`StackedAutoencoder`], with full back-propagation through every layer
//! (the standard fine-tuning phase of Hinton & Salakhutdinov, the paper's
//! ref \[1\]).
//!
//! All heavy math runs through the [`ExecCtx`] like the rest of the crate,
//! so fine-tuning participates in the simulated-coprocessor accounting.

use crate::checkpoint::CheckpointModel;
use crate::exec::ExecCtx;
use crate::graph::{BufClass, TaskGraph};
use crate::labeled::{inherent_net_api, LabeledModel, LabeledNet, StepCache, StepState};
use crate::layers::{
    Above, Decl, Dense, DenseParams, Emit, Layer, Part, SoftmaxXent, StackBuilder,
};
use crate::stacked::StackedAutoencoder;
use micdnn_kernels::OpCost;
use micdnn_tensor::{GlorotSigmoid, Initializer, Mat, MatView, MatViewMut};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, Write};

/// A softmax (multinomial logistic) output layer.
#[derive(Debug, Clone)]
pub struct SoftmaxLayer {
    /// Weights, `n_classes x in_dim`.
    pub w: Mat,
    /// Biases, length `n_classes`.
    pub b: Vec<f32>,
}

impl SoftmaxLayer {
    /// Fresh layer for `in_dim` inputs and `n_classes` classes.
    pub fn new(in_dim: usize, n_classes: usize, seed: u64) -> Self {
        assert!(n_classes >= 2, "need at least two classes");
        let mut rng = StdRng::seed_from_u64(seed);
        SoftmaxLayer {
            w: GlorotSigmoid.init(n_classes, in_dim, &mut rng),
            b: vec![0.0; n_classes],
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.w.rows()
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    /// Class probabilities for a batch (`b x in_dim` -> `b x classes`).
    pub fn forward(&self, ctx: &ExecCtx, x: MatView<'_>) -> Mat {
        let mut logits = Mat::zeros(x.rows(), self.n_classes());
        self.forward_into(ctx, x, &mut logits.view_mut());
        logits
    }

    /// [`Self::forward`] into a caller-provided `b x classes` buffer (the
    /// training graph writes into its planned workspace instead of
    /// allocating).
    pub fn forward_into(&self, ctx: &ExecCtx, x: MatView<'_>, out: &mut MatViewMut<'_>) {
        let b = x.rows();
        let c = self.n_classes();
        assert_eq!(out.shape(), (b, c), "softmax output buffer shape");
        ctx.gemm(1.0, x, false, self.w.view(), true, 0.0, out);
        // Row-wise stable softmax (charged as a transcendental sweep).
        for r in 0..b {
            let row = out.row_mut(r);
            let mut max = f32::NEG_INFINITY;
            for (v, &bias) in row.iter_mut().zip(&self.b) {
                *v += bias;
                max = max.max(*v);
            }
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
        ctx.charge_cost(OpCost::sigmoid(b * c));
    }
}

/// A pre-trained encoder stack plus a softmax head, trainable end-to-end.
#[derive(Debug, Clone)]
pub struct FineTuneNet {
    /// Encoder layers as `(weights h x v, biases h)` pairs, input-first.
    layers: Vec<(Mat, Vec<f32>)>,
    /// The classification head.
    pub softmax: SoftmaxLayer,
    /// L2 weight decay applied to all weights during fine-tuning.
    pub weight_decay: f32,
    step: StepCache,
}

impl FineTuneNet {
    /// Builds the network from a pre-trained stack's encoders plus a fresh
    /// softmax head.
    pub fn from_stack(stack: &StackedAutoencoder, n_classes: usize, seed: u64) -> Self {
        let layers: Vec<(Mat, Vec<f32>)> = stack
            .layers()
            .iter()
            .map(|ae| (ae.w1.clone(), ae.b1.clone()))
            .collect();
        assert!(!layers.is_empty(), "stack has no layers");
        let code_dim = stack.code_dim();
        FineTuneNet {
            layers,
            softmax: SoftmaxLayer::new(code_dim, n_classes, seed),
            weight_decay: 1e-4,
            step: StepCache::default(),
        }
    }

    /// Builds an untrained network of the given layer widths (for
    /// pre-training-vs-random comparisons).
    pub fn random(sizes: &[usize], n_classes: usize, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and one hidden size");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .map(|w| (GlorotSigmoid.init(w[1], w[0], &mut rng), vec![0.0f32; w[1]]))
            .collect();
        FineTuneNet {
            layers,
            softmax: SoftmaxLayer::new(*sizes.last().unwrap(), n_classes, seed ^ 0x5A5A),
            weight_decay: 1e-4,
            step: StepCache::default(),
        }
    }

    /// Rebuilds a net from checkpointed parts (the fine-tune checkpoint
    /// reader's constructor).
    pub(crate) fn from_parts(
        layers: Vec<(Mat, Vec<f32>)>,
        softmax: SoftmaxLayer,
        weight_decay: f32,
        use_graph: bool,
    ) -> Self {
        assert!(!layers.is_empty(), "net has no layers");
        FineTuneNet {
            layers,
            softmax,
            weight_decay,
            step: StepCache::new(use_graph),
        }
    }

    /// Number of encoder layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Input dimensionality of the first encoder layer.
    pub fn in_dim(&self) -> usize {
        LabeledNet::in_dim(self)
    }

    /// Encoder layer output widths, input-first.
    fn widths(&self) -> Vec<usize> {
        self.layers.iter().map(|(w, _)| w.rows()).collect()
    }

    /// Encoder parameters as `(weights h x v, biases h)` pairs, input-first.
    /// The serving path's forward-only graph and the bit-identity pinning
    /// tests read them.
    pub fn layer_params(&self) -> &[(Mat, Vec<f32>)] {
        &self.layers
    }
}

inherent_net_api!(FineTuneNet);

/// The fine-tuning step's node state.
pub type FtState<'a> = StepState<'a, FineTuneNet>;

impl LabeledNet for FineTuneNet {
    const NAN_FAILPOINT: &'static str = "finetune.nan";

    fn in_dim(&self) -> usize {
        self.layers[0].0.cols()
    }

    fn n_classes(&self) -> usize {
        self.softmax.n_classes()
    }

    fn param_count(&self) -> usize {
        let c = self.softmax.n_classes();
        let stack: usize = self
            .layers
            .iter()
            .map(|(w, b)| w.rows() * w.cols() + b.len())
            .sum();
        stack + c * self.softmax.in_dim() + c
    }

    fn step_graph<'a>(&self, cap: usize) -> TaskGraph<'static, FtState<'a>> {
        build_step_graph(self.in_dim(), &self.widths(), self.n_classes(), cap)
    }

    fn predict_proba(&self, ctx: &ExecCtx, x: MatView<'_>) -> Mat {
        let mut act: Option<Mat> = None;
        for (w, bias) in &self.layers {
            let mut a = Mat::zeros(x.rows(), w.rows());
            let input = act.as_ref().map_or(x, Mat::view);
            ctx.gemm(1.0, input, false, w.view(), true, 0.0, &mut a.view_mut());
            ctx.bias_sigmoid_rows(bias, &mut a.view_mut());
            act = Some(a);
        }
        self.softmax.forward(ctx, act.expect("non-empty").view())
    }

    fn save(&self, w: &mut dyn Write) -> io::Result<()> {
        crate::checkpoint::write_ft_net(self, w)
    }

    fn from_checkpoint(from: CheckpointModel) -> io::Result<FineTuneModel> {
        match from {
            CheckpointModel::FineTune(m) => Ok(m),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "snapshot does not hold a fine-tune net",
            )),
        }
    }

    fn step_cache(&mut self) -> &mut StepCache {
        &mut self.step
    }
}

impl DenseParams for FineTuneNet {
    fn dense(&mut self, idx: usize) -> (&mut Mat, &mut Vec<f32>) {
        let (w, b) = &mut self.layers[idx];
        (w, b)
    }
    fn softmax(&mut self) -> &mut SoftmaxLayer {
        &mut self.softmax
    }
    fn weight_decay(&self) -> f32 {
        self.weight_decay
    }
}

/// Builds the fine-tuning step dataflow for a `widths`-shaped encoder
/// stack and `n_classes` head as a [`StackBuilder`] recipe over the
/// generic [`Dense`] and [`SoftmaxXent`] layers: forward chain, softmax +
/// cross-entropy delta, full backprop, gradients and SGD updates.
///
/// The recipe declares buffers and emits nodes in the historical
/// hand-built order, so the graph is bit-identical to its ancestor — same
/// node sequence, same planner aliasing (pinned by
/// `tests/graph_exec_pinning.rs`). Buffers are declared against `cap`
/// rows so one planned workspace serves every batch up to that size
/// (nodes slice to the live batch at run time).
///
/// Public so integration tests can run the fine-tuning step shape through
/// [`TaskGraph::verify`]; training uses it via [`FineTuneNet::train_batch`].
pub fn build_step_graph<'a>(
    in_dim: usize,
    widths: &[usize],
    n_classes: usize,
    cap: usize,
) -> TaskGraph<'static, FtState<'a>> {
    let n_layers = widths.len();
    let code_dim = *widths.last().expect("non-empty net");
    let mut sb: StackBuilder<FtState<'a>> = StackBuilder::new();

    // Slots 0..n_layers hold the dense stack, slot n_layers the head.
    let head_slot = n_layers;
    let head = SoftmaxXent {
        slot: head_slot,
        below: head_slot - 1,
        in_dim: code_dim,
        n_classes,
        cap,
    };
    let mut prev = in_dim;
    let denses: Vec<Dense> = widths
        .iter()
        .enumerate()
        .map(|(l, &h)| {
            let last = l + 1 == n_layers;
            let d = Dense {
                slot: l,
                idx: l,
                below: if l == 0 { None } else { Some(l - 1) },
                above_slot: if last { head_slot } else { l + 1 },
                above: if last {
                    Above::Head
                } else {
                    Above::Dense(l + 1)
                },
                in_dim: prev,
                out_dim: h,
                cap,
            };
            prev = h;
            d
        })
        .collect();

    // Historical declaration order: input, head params, per-layer
    // (params, act, delta), head delta, head grads, per-layer grads.
    sb.bind_global_dims("x", "x", &[cap, in_dim], BufClass::External);
    head.declare(&mut sb, Decl::Params);
    for d in &denses {
        d.declare(&mut sb, Decl::Params);
        d.declare(&mut sb, Decl::Acts);
        d.declare(&mut sb, Decl::Deltas);
    }
    head.declare(&mut sb, Decl::Deltas);
    head.declare(&mut sb, Decl::Grads(Part::Weights));
    head.declare(&mut sb, Decl::Grads(Part::Biases));
    for d in &denses {
        d.declare(&mut sb, Decl::Grads(Part::Weights));
        d.declare(&mut sb, Decl::Grads(Part::Biases));
    }

    // Historical node order: forward chain, head forward + loss/delta +
    // head grads, backprop top-down, per-layer grads + updates, head
    // updates.
    for d in &denses {
        d.emit(&mut sb, Emit::Forward);
    }
    head.emit(&mut sb, Emit::Forward);
    head.emit(&mut sb, Emit::Backward);
    head.emit(&mut sb, Emit::Grads(Part::Weights));
    head.emit(&mut sb, Emit::Grads(Part::Biases));
    for d in denses.iter().rev() {
        d.emit(&mut sb, Emit::Backward);
    }
    for d in &denses {
        d.emit(&mut sb, Emit::Grads(Part::Weights));
        d.emit(&mut sb, Emit::Grads(Part::Biases));
        d.emit(&mut sb, Emit::Update(Part::Weights));
        d.emit(&mut sb, Emit::Update(Part::Biases));
    }
    head.emit(&mut sb, Emit::Update(Part::Weights));
    head.emit(&mut sb, Emit::Update(Part::Biases));
    sb.finish()
}

/// [`FineTuneNet`] under the label-cursor wrapper: the fine-tuning stage
/// of the unsupervised training loop.
pub type FineTuneModel = LabeledModel<FineTuneNet>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::OptLevel;
    use crate::train::TrainConfig;
    use micdnn_data::{Dataset, DigitGenerator};

    fn ctx() -> ExecCtx {
        ExecCtx::native(OptLevel::Improved, 0)
    }

    fn digits(n: usize, side: usize, seed: u64) -> (Dataset, Vec<usize>) {
        let mut gen = DigitGenerator::new(side, seed);
        let mut ds = Dataset::new(gen.matrix(n));
        ds.normalize();
        let labels: Vec<usize> = (0..n).map(|i| i % 10).collect();
        (ds, labels)
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let ctx = ctx();
        let layer = SoftmaxLayer::new(8, 4, 1);
        let x = Mat::from_fn(6, 8, |r, c| ((r * 8 + c) as f32 * 0.1).sin());
        let p = layer.forward(&ctx, x.view());
        assert_eq!(p.shape(), (6, 4));
        for r in 0..6 {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
            assert!(p.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_stable_under_large_logits() {
        let ctx = ctx();
        let mut layer = SoftmaxLayer::new(4, 3, 2);
        layer.w.map_inplace(|v| v * 100.0);
        let x = Mat::full(2, 4, 5.0);
        let p = layer.forward(&ctx, x.view());
        assert!(p.all_finite(), "softmax overflowed");
    }

    #[test]
    fn finetune_overfits_small_set() {
        let (ds, labels) = digits(80, 12, 3);
        let mut net = FineTuneNet::random(&[144, 48], 10, 4);
        let ctx = ctx();
        let history = net.fit(&ctx, ds.matrix().view(), &labels, 20, 0.5, 60);
        assert!(
            *history.last().unwrap() < 0.5 * history[0],
            "loss did not drop: {} -> {}",
            history[0],
            history.last().unwrap()
        );
        let acc = net.accuracy(&ctx, ds.matrix().view(), &labels);
        assert!(acc > 0.8, "training accuracy only {acc}");
    }

    #[test]
    fn pretraining_helps_classification() {
        let (ds, labels) = digits(400, 12, 5);
        let ctx = ctx();

        // Pre-trained path.
        let mut stack = StackedAutoencoder::with_default_config(&[144, 64, 32], 6);
        let tc = TrainConfig {
            learning_rate: 0.3,
            batch_size: 50,
            chunk_rows: 200,
            ..TrainConfig::default()
        };
        stack.pretrain(&ctx, &ds, &tc, 10).unwrap();
        let mut pretrained = FineTuneNet::from_stack(&stack, 10, 7);
        let pre_hist = pretrained.fit(&ctx, ds.matrix().view(), &labels, 50, 0.5, 8);

        // Random-initialization path (same architecture, same budget).
        let mut random = FineTuneNet::random(&[144, 64, 32], 10, 7);
        let rand_hist = random.fit(&ctx, ds.matrix().view(), &labels, 50, 0.5, 8);

        let pre_acc = pretrained.accuracy(&ctx, ds.matrix().view(), &labels);
        let rand_acc = random.accuracy(&ctx, ds.matrix().view(), &labels);
        // With a tiny fine-tuning budget the pre-trained network should be
        // at least as good; both clearly above the 10% chance level.
        assert!(pre_acc > 0.3, "pretrained accuracy {pre_acc}");
        assert!(
            *pre_hist.last().unwrap() <= rand_hist.last().unwrap() * 1.2,
            "pretraining hurt: {} vs {}",
            pre_hist.last().unwrap(),
            rand_hist.last().unwrap()
        );
        let _ = rand_acc;
    }

    #[test]
    fn gradient_check_through_whole_net() {
        // Central finite differences of the cross-entropy wrt a few
        // parameters of every tensor.
        let ctx = ctx();
        let mut net = FineTuneNet::random(&[6, 5, 4], 3, 8);
        net.weight_decay = 0.0;
        let x = Mat::from_fn(7, 6, |r, c| 0.1 + 0.08 * ((r * 6 + c) % 10) as f32);
        let labels: Vec<usize> = (0..7).map(|i| i % 3).collect();

        // Analytic gradient via one train step with lr chosen so that
        // delta_w = -lr * g  => g = (w_before - w_after) / lr.
        let lr = 1e-3f32;
        let before = net.clone();
        let mut stepped = net.clone();
        stepped.train_batch(&ctx, x.view(), &labels, lr);

        let eps = 2e-3f32;
        let mut checked = 0;
        for idx in [0usize, 3, 11] {
            // layer 0 weights
            let analytic =
                (before.layers[0].0.as_slice()[idx] - stepped.layers[0].0.as_slice()[idx]) / lr;
            let mut plus = before.clone();
            plus.layers[0].0.as_mut_slice()[idx] += eps;
            let mut minus = before.clone();
            minus.layers[0].0.as_mut_slice()[idx] -= eps;
            let num = (plus.cross_entropy(&ctx, x.view(), &labels)
                - minus.cross_entropy(&ctx, x.view(), &labels))
                / (2.0 * eps as f64);
            let denom = (analytic as f64).abs().max(num.abs()).max(1e-3);
            assert!(
                ((analytic as f64) - num).abs() / denom < 8e-2,
                "layer0 w[{idx}]: analytic {analytic} vs numeric {num}"
            );
            checked += 1;
        }
        assert_eq!(checked, 3);
    }

    #[test]
    #[should_panic(expected = "label 5 out of range")]
    fn label_range_checked() {
        let ctx = ctx();
        let mut net = FineTuneNet::random(&[4, 3], 3, 9);
        let x = Mat::zeros(2, 4);
        net.train_batch(&ctx, x.view(), &[0, 5], 0.1);
    }

    #[test]
    fn graph_scheduled_step_matches_serial_bitwise() {
        let (ds, labels) = digits(60, 12, 12);
        let ctx = ctx();
        let mut serial = FineTuneNet::random(&[144, 24, 12], 10, 13);
        let mut graphed = serial.clone().with_graph_schedule();
        for _ in 0..4 {
            let ls = serial.fit(&ctx, ds.matrix().view(), &labels, 20, 0.4, 1);
            let lg = graphed.fit(&ctx, ds.matrix().view(), &labels, 20, 0.4, 1);
            assert_eq!(ls, lg);
        }
        for (s, g) in serial.layers.iter().zip(&graphed.layers) {
            assert_eq!(s.0.as_slice(), g.0.as_slice());
            assert_eq!(s.1, g.1);
        }
        assert_eq!(serial.softmax.w.as_slice(), graphed.softmax.w.as_slice());
        assert_eq!(serial.softmax.b, graphed.softmax.b);
    }

    #[test]
    fn workspace_is_planned_once_and_reused_across_batches() {
        let (ds, labels) = digits(80, 12, 14);
        let ctx = ctx();
        let mut net = FineTuneNet::random(&[144, 32], 10, 15);
        assert_eq!(net.workspace_elems(), 0);
        net.train_batch(
            &ctx,
            ds.matrix().view().rows_range(0, 40),
            &labels[..40],
            0.3,
        );
        let after_first = net.workspace_elems();
        assert!(after_first > 0);
        // Same-size and smaller batches reuse the arena untouched.
        net.train_batch(
            &ctx,
            ds.matrix().view().rows_range(40, 80),
            &labels[40..],
            0.3,
        );
        net.train_batch(
            &ctx,
            ds.matrix().view().rows_range(0, 10),
            &labels[..10],
            0.3,
        );
        assert_eq!(net.workspace_elems(), after_first);
        // A larger batch forces one re-plan, after which it sticks again.
        net.train_batch(&ctx, ds.matrix().view(), &labels, 0.3);
        let after_grow = net.workspace_elems();
        assert!(after_grow > after_first);
        net.train_batch(&ctx, ds.matrix().view(), &labels, 0.3);
        assert_eq!(net.workspace_elems(), after_grow);
    }

    #[test]
    fn model_cursor_labels_follow_dataset_order() {
        crate::labeled::tests::cursor_labels_follow_dataset_order::<FineTuneNet>();
    }

    #[test]
    fn model_trains_through_unsupervised_loop() {
        crate::labeled::tests::trains_through_train_dataset::<FineTuneNet>();
    }
}
