//! A small convolutional classifier assembled entirely from the generic
//! [`crate::layers`] building blocks.
//!
//! The reproduced paper trains autoencoders, RBMs and a fine-tuned dense
//! stack; this module is the proof that the layer IR those were rebuilt on
//! *opens the scenario space* rather than merely re-encoding the paper:
//! a GEMM-lowered [`Conv2d`] plus a
//! [`MaxPool2d`] feed the *same* generic
//! [`Dense`] and [`SoftmaxXent`] layers the fine-tuner uses, composed by
//! the same [`StackBuilder`], scheduled by the same executor, verified by
//! the same verifier, checkpointed through the same container format, and
//! supervised by the same chaos supervisor.
//!
//! The architecture is the classic small digit net: one valid-mode
//! convolution (stride 1, `k x k` filters over a single-channel
//! `side x side` image), sigmoid, non-overlapping max pooling, one dense
//! sigmoid layer, softmax + cross-entropy. The convolution is one large
//! GEMM over the batch's `k x k` patches, which the product reads where the
//! images are stored instead of unfolding them first (im2col) — the paper's
//! core trick of routing everything possible through the optimized matrix
//! product applies unchanged.

use crate::checkpoint::CheckpointModel;
use crate::exec::ExecCtx;
use crate::finetune::SoftmaxLayer;
use crate::graph::{BufClass, TaskGraph};
use crate::labeled::{inherent_net_api, LabeledModel, LabeledNet, StepCache, StepState};
use crate::layers::{
    Conv2d, Decl, Dense, Emit, MaxPool2d, NetParams, ParamKey, Part, SoftmaxXent, StackBuilder,
};
use micdnn_tensor::{GlorotSigmoid, Initializer, Mat, MatView};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, Write};

/// Registry slots for the four layers of [`recipe`].
const CONV: usize = 0;
const POOL: usize = 1;
const DENSE: usize = 2;
const HEAD: usize = 3;

/// Shape of the convolutional classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CnnConfig {
    /// Input image side (single channel, `side * side` pixels per row).
    pub side: usize,
    /// Convolution output channels (filter count).
    pub channels: usize,
    /// Filter side `k` (stride 1, valid mode).
    pub kernel: usize,
    /// Pooling window / stride (non-overlapping).
    pub pool: usize,
    /// Dense layer width.
    pub hidden: usize,
    /// Output classes.
    pub n_classes: usize,
}

impl CnnConfig {
    /// Validated configuration. Panics when the geometry is inconsistent
    /// (kernel larger than the image, conv output not divisible by the
    /// pooling window, degenerate widths).
    pub fn new(
        side: usize,
        channels: usize,
        kernel: usize,
        pool: usize,
        hidden: usize,
        n_classes: usize,
    ) -> Self {
        assert!(side >= 2, "image side must be at least 2");
        assert!(channels >= 1, "need at least one filter");
        assert!(
            kernel >= 1 && kernel <= side,
            "kernel {kernel} out of range for side {side}"
        );
        let conv_side = side - kernel + 1;
        assert!(pool >= 1, "pool window must be positive");
        assert!(
            conv_side.is_multiple_of(pool),
            "conv output side {conv_side} not divisible by pool {pool}"
        );
        assert!(hidden >= 1, "dense width must be positive");
        assert!(n_classes >= 2, "need at least two classes");
        CnnConfig {
            side,
            channels,
            kernel,
            pool,
            hidden,
            n_classes,
        }
    }

    /// The default digits configuration for `side x side` generator
    /// images: 6 filters of `5 x 5`, `2 x 2` pooling, 48 hidden units, 10
    /// classes (requires `side - 4` even, e.g. the generator's side 12).
    pub fn digits(side: usize) -> Self {
        CnnConfig::new(side, 6, 5, 2, 48, 10)
    }

    /// Pixels per input row (`side * side`).
    pub fn input_dim(&self) -> usize {
        self.side * self.side
    }

    /// Convolution output side (`side - kernel + 1`).
    pub fn conv_side(&self) -> usize {
        self.side - self.kernel + 1
    }

    /// Pooled side (`conv_side / pool`).
    pub(crate) fn pooled_side(&self) -> usize {
        self.conv_side() / self.pool
    }

    /// Flattened pooled width feeding the dense layer.
    pub fn pooled_dim(&self) -> usize {
        self.channels * self.pooled_side() * self.pooled_side()
    }

    /// Trainable parameter count.
    pub fn param_count(&self) -> usize {
        let conv = self.channels * self.kernel * self.kernel + self.channels;
        let dense = self.hidden * self.pooled_dim() + self.hidden;
        let head = self.n_classes * self.hidden + self.n_classes;
        conv + dense + head
    }
}

/// The convolutional classifier: conv filters + dense layer + softmax
/// head, trainable end-to-end through the layer-IR task graph.
#[derive(Debug, Clone)]
pub struct CnnNet {
    cfg: CnnConfig,
    /// Conv filters, `channels x k*k` (one flattened patch per row).
    pub conv_w: Mat,
    /// Per-channel conv biases.
    pub conv_b: Vec<f32>,
    /// Dense weights, `hidden x pooled_dim`.
    pub dense_w: Mat,
    /// Dense biases, length `hidden`.
    pub dense_b: Vec<f32>,
    /// The classification head.
    pub softmax: SoftmaxLayer,
    /// L2 weight decay applied to all weight (not bias) updates.
    pub weight_decay: f32,
    step: StepCache<Self>,
}

impl CnnNet {
    /// Fresh Glorot-initialized network.
    pub fn new(cfg: CnnConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let conv_w = GlorotSigmoid.init(cfg.channels, cfg.kernel * cfg.kernel, &mut rng);
        let dense_w = GlorotSigmoid.init(cfg.hidden, cfg.pooled_dim(), &mut rng);
        CnnNet {
            cfg,
            conv_w,
            conv_b: vec![0.0; cfg.channels],
            dense_w,
            dense_b: vec![0.0; cfg.hidden],
            softmax: SoftmaxLayer::new(cfg.hidden, cfg.n_classes, seed ^ 0x5A5A),
            weight_decay: 1e-4,
            step: StepCache::new(false),
        }
    }

    /// Rebuilds a network from checkpointed parts (shapes asserted).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        cfg: CnnConfig,
        conv_w: Mat,
        conv_b: Vec<f32>,
        dense_w: Mat,
        dense_b: Vec<f32>,
        softmax: SoftmaxLayer,
        weight_decay: f32,
        use_graph: bool,
    ) -> Self {
        assert_eq!(
            conv_w.shape(),
            (cfg.channels, cfg.kernel * cfg.kernel),
            "conv filter shape"
        );
        assert_eq!(conv_b.len(), cfg.channels, "conv bias length");
        assert_eq!(
            dense_w.shape(),
            (cfg.hidden, cfg.pooled_dim()),
            "dense weight shape"
        );
        assert_eq!(dense_b.len(), cfg.hidden, "dense bias length");
        assert_eq!(softmax.w.shape(), (cfg.n_classes, cfg.hidden), "head shape");
        CnnNet {
            cfg,
            conv_w,
            conv_b,
            dense_w,
            dense_b,
            softmax,
            weight_decay,
            step: StepCache::new(use_graph),
        }
    }

    /// The network shape.
    pub fn config(&self) -> &CnnConfig {
        &self.cfg
    }
}

inherent_net_api!(CnnNet);

/// The CNN step's node state.
pub(crate) type CnnState<'a> = StepState<'a, CnnNet>;

impl LabeledNet for CnnNet {
    const NAN_FAILPOINT: &'static str = "cnn.nan";

    fn in_dim(&self) -> usize {
        self.cfg.input_dim()
    }

    fn n_classes(&self) -> usize {
        self.cfg.n_classes
    }

    fn param_count(&self) -> usize {
        self.cfg.param_count()
    }

    fn recipe<'a>(&self, sb: &mut StackBuilder<CnnState<'a>>, cap: usize) {
        recipe(sb, self.cfg, cap);
    }

    fn save(&self, w: &mut dyn Write) -> io::Result<()> {
        crate::checkpoint::write_cnn_net(self, w)
    }

    fn from_checkpoint(from: CheckpointModel) -> io::Result<CnnModel> {
        match from {
            CheckpointModel::Cnn(m) => Ok(m),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "snapshot does not hold a CNN",
            )),
        }
    }

    fn step_cache(&self) -> &StepCache<Self> {
        &self.step
    }

    fn step_cache_mut(&mut self) -> &mut StepCache<Self> {
        &mut self.step
    }
}

impl NetParams for CnnNet {
    fn tensors(&self, key: ParamKey) -> (&Mat, &[f32]) {
        match key {
            ParamKey::Conv(0) => (&self.conv_w, &self.conv_b),
            ParamKey::Dense(0) => (&self.dense_w, &self.dense_b),
            ParamKey::Head => (&self.softmax.w, &self.softmax.b),
            _ => panic!("the CNN has one conv and one dense layer, not {key:?}"),
        }
    }
    fn tensors_mut(&mut self, key: ParamKey) -> (&mut Mat, &mut Vec<f32>) {
        match key {
            ParamKey::Conv(0) => (&mut self.conv_w, &mut self.conv_b),
            ParamKey::Dense(0) => (&mut self.dense_w, &mut self.dense_b),
            ParamKey::Head => (&mut self.softmax.w, &mut self.softmax.b),
            _ => panic!("the CNN has one conv and one dense layer, not {key:?}"),
        }
    }
    fn head(&self) -> &SoftmaxLayer {
        &self.softmax
    }
    fn weight_decay(&self) -> f32 {
        self.weight_decay
    }
}

/// Builds the CNN training-step dataflow for batches up to `cap` rows: the
/// net's recipe on a step builder, as [`LabeledNet::step_graph`] builds
/// it.
///
/// Public so integration tests can run the CNN step shape through
/// [`TaskGraph::verify`]; training uses it via [`CnnNet::train_batch`].
pub fn build_cnn_graph<'a>(cfg: CnnConfig, cap: usize) -> TaskGraph<'static, CnnState<'a>> {
    let mut sb = StackBuilder::new();
    recipe(&mut sb, cfg, cap);
    sb.finish()
}

/// The CNN as a [`StackBuilder`] recipe: conv (patch GEMM +
/// bias/sigmoid), max pooling, dense, softmax + cross-entropy, full
/// backprop (pool delta routed through the dense weights, scattered to the
/// conv layer via the argmax indices), gradients and SGD updates — or, on
/// a forward-only builder, the forward chain into the probabilities.
///
/// Declarations go input → parameters (bottom-up) → activations
/// (bottom-up) → deltas (top-down, their consumption order, so the planner
/// can alias) → gradients; nodes go forward chain, head loss/delta + head
/// grads, backprop top-down, remaining grads, updates. Buffers are
/// declared against `cap` rows so one planned workspace serves every batch
/// up to that size.
fn recipe(sb: &mut StackBuilder<CnnState<'_>>, cfg: CnnConfig, cap: usize) {
    let conv = Conv2d {
        slot: CONV,
        idx: 0,
        side: cfg.side,
        kernel: cfg.kernel,
        channels: cfg.channels,
        cap,
    };
    let pool = MaxPool2d {
        slot: POOL,
        below: CONV,
        above_slot: DENSE,
        above: ParamKey::Dense(0),
        in_side: conv.out_side(),
        channels: cfg.channels,
        pool: cfg.pool,
        cap,
    };
    let dense = Dense {
        slot: DENSE,
        idx: 0,
        below: Some(POOL),
        above_slot: HEAD,
        above: ParamKey::Head,
        in_dim: cfg.pooled_dim(),
        out_dim: cfg.hidden,
        cap,
    };
    let head = SoftmaxXent {
        slot: HEAD,
        below: DENSE,
        in_dim: cfg.hidden,
        n_classes: cfg.n_classes,
        cap,
    };

    sb.bind_global_dims("x", "x", &[cap, cfg.input_dim()], BufClass::External);
    sb.declare(&conv, Decl::Params);
    sb.declare(&dense, Decl::Params);
    sb.declare(&head, Decl::Params);
    sb.declare(&conv, Decl::Acts);
    sb.declare(&pool, Decl::Acts);
    sb.declare(&dense, Decl::Acts);
    sb.declare(&head, Decl::Acts);
    sb.declare(&head, Decl::Deltas);
    sb.declare(&dense, Decl::Deltas);
    sb.declare(&pool, Decl::Deltas);
    sb.declare(&conv, Decl::Deltas);
    sb.declare(&head, Decl::Grads(Part::Weights));
    sb.declare(&head, Decl::Grads(Part::Biases));
    sb.declare(&dense, Decl::Grads(Part::Weights));
    sb.declare(&dense, Decl::Grads(Part::Biases));
    sb.declare(&conv, Decl::Grads(Part::Weights));
    sb.declare(&conv, Decl::Grads(Part::Biases));

    sb.emit(&conv, Emit::Forward);
    sb.emit(&pool, Emit::Forward);
    sb.emit(&dense, Emit::Forward);
    sb.emit(&head, Emit::Forward);
    sb.emit(&head, Emit::Backward);
    sb.emit(&head, Emit::Grads(Part::Weights));
    sb.emit(&head, Emit::Grads(Part::Biases));
    sb.emit(&dense, Emit::Backward);
    sb.emit(&pool, Emit::Backward);
    sb.emit(&conv, Emit::Backward);
    sb.emit(&dense, Emit::Grads(Part::Weights));
    sb.emit(&dense, Emit::Grads(Part::Biases));
    sb.emit(&conv, Emit::Grads(Part::Weights));
    sb.emit(&conv, Emit::Grads(Part::Biases));
    sb.emit(&conv, Emit::Update(Part::Weights));
    sb.emit(&conv, Emit::Update(Part::Biases));
    sb.emit(&dense, Emit::Update(Part::Weights));
    sb.emit(&dense, Emit::Update(Part::Biases));
    sb.emit(&head, Emit::Update(Part::Weights));
    sb.emit(&head, Emit::Update(Part::Biases));
}

/// [`CnnNet`] under the label-cursor wrapper, so the CNN rides the same
/// chunked loader, checkpoint cadence and chaos supervisor as the paper's
/// models.
pub type CnnModel = LabeledModel<CnnNet>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::OptLevel;
    use micdnn_data::{Dataset, DigitGenerator};

    fn ctx() -> ExecCtx {
        ExecCtx::native(OptLevel::Improved, 77)
    }

    fn digits(n: usize, seed: u64) -> (Dataset, Vec<usize>) {
        let mut gen = DigitGenerator::new(12, seed);
        let mut ds = Dataset::new(gen.matrix(n));
        ds.normalize();
        let labels = (0..n).map(|i| i % 10).collect();
        (ds, labels)
    }

    #[test]
    fn config_geometry() {
        let cfg = CnnConfig::digits(12);
        assert_eq!(cfg.input_dim(), 144);
        assert_eq!(cfg.conv_side(), 8);
        assert_eq!(cfg.pooled_side(), 4);
        assert_eq!(cfg.pooled_dim(), 6 * 16);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn config_rejects_ragged_pooling() {
        CnnConfig::new(12, 4, 4, 2, 16, 10);
    }

    #[test]
    fn cnn_graph_verifies_clean() {
        let g = build_cnn_graph(CnnConfig::digits(12), 16);
        let report = g.verify();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn cnn_arenas_hold_no_patch_matrix() {
        // Both convolution products read the patches where the batch is
        // stored, so no CNN graph declares the `cap * pix x k*k` patch
        // matrix `conv.col`: the step graphs of 28x28 digits at 50 rows and
        // of 12x12 digits at 64, and the forward graph that serving and
        // `predict_proba` run at 64. Elements declared in each arena and its
        // planned peak; with the matrix, the step graphs declared 720 000
        // and 102 400 more and peaked as much higher, and the forward graph
        // declared 142 976 and peaked at 133 760.
        let forward = CnnNet::new(CnnConfig::digits(12), 1).forward_graph(64);
        for (what, g, declared, peak) in [
            (
                "step, digits28 cap 50",
                build_cnn_graph(CnnConfig::digits(28), 50),
                522_666,
                522_010,
            ),
            (
                "step, digits12 cap 64",
                build_cnn_graph(CnnConfig::digits(12), 64),
                79_670,
                78_874,
            ),
            ("forward, digits12 cap 64", forward, 40_576, 37_504),
        ] {
            assert!(g.bufs.iter().all(|d| d.name != "conv.col"), "{what}");
            let report = g.verify();
            assert!(report.errors.is_empty(), "{what}: {report}");
            let plan = g.plan();
            assert_eq!(plan.total_declared_elems(), declared, "{what}");
            assert_eq!(plan.peak_elems(), peak, "{what}");
        }
    }

    #[test]
    fn cnn_overfits_small_digit_set() {
        let (ds, labels) = digits(30, 5);
        let ctx = ctx();
        let mut net = CnnNet::new(CnnConfig::digits(12), 9);
        let before = net.accuracy(&ctx, ds.matrix().view(), &labels);
        let losses = net.fit(&ctx, ds.matrix().view(), &labels, 10, 0.5, 40);
        let after = net.accuracy(&ctx, ds.matrix().view(), &labels);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss did not fall: {losses:?}"
        );
        assert!(
            after >= 0.9 && after > before,
            "accuracy {before} -> {after}"
        );
    }

    #[test]
    fn graph_scheduled_cnn_step_matches_serial_bitwise() {
        let (ds, labels) = digits(40, 6);
        let cfg = CnnConfig::digits(12);
        let run = |graph: bool| {
            let ctx = ctx();
            let mut net = CnnNet::new(cfg, 11);
            if graph {
                net = net.with_graph_schedule();
            }
            let losses = net.fit(&ctx, ds.matrix().view(), &labels, 8, 0.3, 3);
            (losses, net)
        };
        let (serial_losses, serial) = run(false);
        let (graph_losses, graph) = run(true);
        assert_eq!(serial_losses, graph_losses, "losses diverged");
        assert_eq!(serial.conv_w.as_slice(), graph.conv_w.as_slice());
        assert_eq!(serial.conv_b, graph.conv_b);
        assert_eq!(serial.dense_w.as_slice(), graph.dense_w.as_slice());
        assert_eq!(serial.dense_b, graph.dense_b);
        assert_eq!(serial.softmax.w.as_slice(), graph.softmax.w.as_slice());
        assert_eq!(serial.softmax.b, graph.softmax.b);
    }

    #[test]
    fn workspace_is_planned_once_and_reused() {
        let (ds, labels) = digits(20, 7);
        let ctx = ctx();
        let mut net = CnnNet::new(CnnConfig::digits(12), 3);
        net.train_batch(&ctx, ds.matrix().view(), &labels, 0.1);
        let arena = |net: &CnnNet| net.step.prepared.0.as_ref().map(|p| p.0);
        let rows = arena(&net);
        assert!(rows.is_some(), "workspace not planned");
        net.train_batch(&ctx, ds.matrix().view(), &labels, 0.1);
        assert_eq!(arena(&net), rows, "workspace re-planned");
    }

    #[test]
    fn model_cursor_labels_follow_dataset_order() {
        crate::labeled::tests::cursor_labels_follow_dataset_order::<CnnNet>();
    }

    #[test]
    fn model_trains_through_unsupervised_loop() {
        crate::labeled::tests::trains_through_train_dataset::<CnnNet>();
    }
}
