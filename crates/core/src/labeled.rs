//! What every labeled (softmax-headed) net shares: the cached step graph,
//! arena and schedule flag, the supervised step driver, and the label-cursor
//! wrapper that lets a labeled net ride the unsupervised training loop.
//!
//! A labeled net supplies a parameter store, a [`StackBuilder`] recipe and
//! a reference forward pass ([`LabeledNet`]); `train_batch`, `fit`,
//! `predict`, `accuracy`, `cross_entropy`, the step's preparation (built
//! and planned once per row capacity), the serial/graph schedule choice,
//! label derivation, checkpointing and rollback are written here, once, for
//! [`FineTuneNet`] and [`CnnNet`] alike.
//!
//! [`StackBuilder`]: crate::layers::StackBuilder
//! [`FineTuneNet`]: crate::FineTuneNet
//! [`CnnNet`]: crate::CnnNet

use crate::checkpoint::CheckpointModel;
use crate::exec::ExecCtx;
use crate::graph::{KeptGraph, NodeState, TaskGraph, Workspace};
use crate::layers::{argmax_rows, hit_rate, mean_nll, StackState, StepParts};
use crate::train::UnsupervisedModel;
use micdnn_tensor::{Mat, MatView};
use std::io::{self, Write};

/// The schedule flag and the training step a labeled net carries: its graph
/// and liveness-planned [`Workspace`], built once for a row capacity and
/// serving every batch up to it, so `train_batch` neither rebuilds the
/// graph nor allocates after the first call.
#[derive(Debug, Clone)]
pub struct StepCache<N: 'static> {
    pub(crate) use_graph: bool,
    /// The step graph and its arena, keyed by row capacity; empty until the
    /// first `prepare`.
    pub(crate) prepared: KeptGraph<usize, StepState<'static, N>>,
}

impl<N> StepCache<N> {
    /// An unprepared cache with the given schedule preference.
    pub(crate) fn new(use_graph: bool) -> Self {
        StepCache {
            use_graph,
            prepared: KeptGraph(None),
        }
    }
}

/// Everything a supervised step node touches: the net's parameters, the
/// planned arena, the batch, and the scalar loss output.
pub struct StepState<'a, N> {
    net: &'a mut N,
    ws: &'a mut Workspace,
    x: MatView<'a>,
    labels: &'a [usize],
    lr: f32,
    loss: f64,
}

impl<N: 'static> NodeState for StepState<'_, N> {
    type At<'a> = StepState<'a, N>;
}

impl<N: 'static> StackState for StepState<'_, N> {
    type Params = N;
    fn parts<'s>(st: &'s mut StepState<'_, N>) -> StepParts<'s, N> {
        StepParts {
            ws: &mut *st.ws,
            x: st.x,
            labels: st.labels,
            lr: st.lr,
            loss: &mut st.loss,
            params: &mut *st.net,
        }
    }
}

/// A softmax-headed net trained by back-propagation on labeled batches.
///
/// The required items are what differs between nets — geometry, the step
/// recipe, the hand-written reference forward pass, the checkpoint record;
/// the provided methods are the shared step driver. [`FineTuneNet`] and
/// [`CnnNet`] re-export the provided methods as inherent ones, so callers
/// need not import this trait.
///
/// [`FineTuneNet`]: crate::FineTuneNet
/// [`CnnNet`]: crate::CnnNet
pub trait LabeledNet: Sized + Send + 'static {
    /// Failpoint that makes one [`LabeledModel`] step of this net report
    /// NaN (see [`crate::faults`]).
    const NAN_FAILPOINT: &'static str;

    /// Input dimensionality each example must have.
    fn in_dim(&self) -> usize;

    /// Number of output classes.
    fn n_classes(&self) -> usize;

    /// Trainable parameter count.
    fn param_count(&self) -> usize;

    /// The training-step recipe with buffers declared against `cap` rows.
    fn step_graph<'a>(&self, cap: usize) -> TaskGraph<'static, StepState<'a, Self>>;

    /// Class probabilities for a batch (`b x n_classes`), computed without
    /// the task graph — the reference the serving tests compare against.
    fn predict_proba(&self, ctx: &ExecCtx, x: MatView<'_>) -> Mat;

    /// Writes this net's checkpoint record (header, geometry, schedule
    /// flag, parameter tensors).
    fn save(&self, w: &mut dyn Write) -> io::Result<()>;

    /// Takes this net's model out of a loaded checkpoint; `InvalidData`
    /// when the checkpoint holds another kind.
    fn from_checkpoint(from: CheckpointModel) -> io::Result<LabeledModel<Self>>;

    /// The net's schedule flag and prepared step.
    #[doc(hidden)]
    fn step_cache(&self) -> &StepCache<Self>;

    /// [`LabeledNet::step_cache`], mutably.
    #[doc(hidden)]
    fn step_cache_mut(&mut self) -> &mut StepCache<Self>;

    /// Schedules each training step through the dataflow executor instead
    /// of declaration order (bit-identical either way; see
    /// [`TaskGraph::execute`]).
    fn with_graph_schedule(mut self) -> Self {
        self.step_cache_mut().use_graph = true;
        self
    }

    /// Builds the step graph and its arena for batches up to `cap` rows
    /// (unless cached for at least that many), so batches only bind it.
    fn prepare(&mut self, cap: usize) {
        if cap > self.step_cache().prepared.0.as_ref().map_or(0, |p| p.0) {
            let graph = self.step_graph(cap);
            self.step_cache_mut().prepared.prepare(cap, || graph);
        }
    }

    /// Hard predictions (argmax class index per example).
    fn predict(&self, ctx: &ExecCtx, x: MatView<'_>) -> Vec<usize> {
        argmax_rows(self.predict_proba(ctx, x).view())
    }

    /// Fraction of correct predictions.
    fn accuracy(&self, ctx: &ExecCtx, x: MatView<'_>, labels: &[usize]) -> f64 {
        hit_rate(&self.predict(ctx, x), labels)
    }

    /// Mean cross-entropy of the batch under the current parameters.
    fn cross_entropy(&self, ctx: &ExecCtx, x: MatView<'_>, labels: &[usize]) -> f64 {
        mean_nll(self.predict_proba(ctx, x).view(), labels)
    }

    /// One SGD step on a labeled batch; returns the batch's mean
    /// cross-entropy before the update.
    ///
    /// The step is the net's recipe as a cached [`TaskGraph`], bound here to
    /// the batch, over the cached liveness-planned [`Workspace`]: forward
    /// activations, deltas and gradients all live in planned registers, so
    /// steady-state batches allocate nothing. Serial declaration order
    /// reproduces the historical hand-rolled step kernel for kernel.
    fn train_batch(&mut self, ctx: &ExecCtx, x: MatView<'_>, labels: &[usize], lr: f32) -> f64 {
        let b = x.rows();
        assert!(b > 0, "empty batch");
        assert_eq!(labels.len(), b, "one label per example");
        let c = self.n_classes();
        for &l in labels {
            assert!(l < c, "label {l} out of range for {c} classes");
        }
        assert_eq!(x.cols(), self.in_dim(), "input dimensionality");

        self.prepare(b);
        let cache = self.step_cache_mut();
        let use_graph = cache.use_graph;
        let (cap, mut graph, mut ws) = cache.prepared.0.take().expect("just prepared");
        let loss = {
            let mut state = StepState {
                net: self,
                ws: &mut ws,
                x,
                labels,
                lr,
                loss: 0.0,
            };
            if use_graph {
                graph.execute(ctx, &mut state);
            } else {
                graph.run_serial(ctx, &mut state);
            }
            state.loss
        };
        self.step_cache_mut().prepared.0 = Some((cap, graph, ws));
        loss
    }

    /// Trains for `epochs` passes over `(x, labels)` in `batch`-row
    /// mini-batches. Returns the per-epoch mean cross-entropy.
    fn fit(
        &mut self,
        ctx: &ExecCtx,
        x: MatView<'_>,
        labels: &[usize],
        batch: usize,
        lr: f32,
        epochs: usize,
    ) -> Vec<f64> {
        assert!(batch > 0, "batch must be positive");
        let n = x.rows();
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut total = 0.0;
            let mut batches = 0usize;
            let mut lo = 0;
            while lo < n {
                let hi = (lo + batch).min(n);
                total += self.train_batch(ctx, x.rows_range(lo, hi), &labels[lo..hi], lr);
                batches += 1;
                lo = hi;
            }
            history.push(total / batches.max(1) as f64);
        }
        history
    }
}

/// Re-exports [`LabeledNet`]'s methods as inherent methods of a net (which
/// names its [`StepCache`] field `step`): the frozen benchmark API and the
/// integration tests call `net.fit(..)`, `net.accuracy(..)` … without the
/// trait in scope. Forwarders only — the bodies are the trait's. Expands
/// where `ExecCtx`, `Mat`, `MatView` and `LabeledNet` are imported.
macro_rules! inherent_net_api {
    ($net:ty) => {
        impl $net {
            /// Schedules each training step through the dataflow executor
            /// instead of declaration order (bit-identical either way; see
            /// [`crate::TaskGraph::execute`]).
            pub fn with_graph_schedule(self) -> Self {
                LabeledNet::with_graph_schedule(self)
            }

            /// Whether steps run through the dataflow executor.
            pub fn uses_graph(&self) -> bool {
                self.step.use_graph
            }

            /// Class probabilities for a batch (`b x n_classes`).
            pub fn predict_proba(&self, ctx: &ExecCtx, x: MatView<'_>) -> Mat {
                LabeledNet::predict_proba(self, ctx, x)
            }

            /// Fraction of correct predictions.
            pub fn accuracy(&self, ctx: &ExecCtx, x: MatView<'_>, labels: &[usize]) -> f64 {
                LabeledNet::accuracy(self, ctx, x, labels)
            }

            /// One SGD step on a labeled batch through the net's task
            /// graph; returns the batch's mean cross-entropy before the
            /// update (see [`crate::LabeledNet::train_batch`]).
            pub fn train_batch(
                &mut self,
                ctx: &ExecCtx,
                x: MatView<'_>,
                labels: &[usize],
                lr: f32,
            ) -> f64 {
                LabeledNet::train_batch(self, ctx, x, labels, lr)
            }

            /// Trains for `epochs` passes over `(x, labels)` in mini-batches.
            /// Returns the per-epoch mean cross-entropy.
            pub fn fit(
                &mut self,
                ctx: &ExecCtx,
                x: MatView<'_>,
                labels: &[usize],
                batch: usize,
                lr: f32,
                epochs: usize,
            ) -> Vec<f64> {
                LabeledNet::fit(self, ctx, x, labels, batch, lr, epochs)
            }
        }
    };
}
pub(crate) use inherent_net_api;

/// Class of dataset row `row` — the one label rule: the digits generator
/// renders row `i` as digit `i % 10`, so row `i` is class `i % n_classes`.
fn label_of(row: u64, n_classes: usize) -> usize {
    (row % n_classes as u64) as usize
}

/// A [`LabeledNet`] adapted to the unsupervised training loop, so a
/// supervised stage rides the same chunked loader, checkpoint cadence and
/// recovery ladder as pre-training.
///
/// The loop hands models unlabeled batches; the loader walks the digits
/// stream in dataset order, so labels are a pure function of the running
/// example cursor. The cursor is part of the checkpointed state: a resumed
/// run labels exactly the examples the uninterrupted one would.
#[derive(Debug, Clone)]
pub struct LabeledModel<N> {
    /// The underlying network.
    pub net: N,
    /// Position within the dataset of the next example (mod `cycle`).
    cursor: u64,
    /// Dataset length the cursor wraps at.
    cycle: u64,
}

impl<N: LabeledNet> LabeledModel<N> {
    /// Wraps a network for training against a `dataset_rows`-row digits
    /// dataset (row `i` labeled `i % n_classes`).
    pub fn new(net: N, dataset_rows: u64) -> Self {
        assert!(dataset_rows > 0, "empty dataset");
        LabeledModel {
            net,
            cursor: 0,
            cycle: dataset_rows,
        }
    }

    /// Restores a checkpointed label cursor (`cursor < cycle`).
    pub(crate) fn from_parts(net: N, cursor: u64, cycle: u64) -> Self {
        assert!(cycle > 0 && cursor < cycle, "label cursor out of range");
        LabeledModel { net, cursor, cycle }
    }

    /// Schedules each training step through the dataflow executor.
    pub fn with_graph_schedule(mut self) -> Self {
        self.net = self.net.with_graph_schedule();
        self
    }

    /// The label cursor as `(position, dataset_rows)` (exposed for
    /// checkpointing).
    pub fn cursor_parts(&self) -> (u64, u64) {
        (self.cursor, self.cycle)
    }

    /// Labels of the first `rows` rows of the digits stream for an
    /// `n_classes`-way net — what the cursor hands out over one pass.
    pub fn row_labels(rows: usize, n_classes: usize) -> Vec<usize> {
        (0..rows as u64).map(|r| label_of(r, n_classes)).collect()
    }

    /// Labels for the next `b` examples without advancing the cursor.
    fn labels_for(&self, b: usize) -> Vec<usize> {
        let classes = self.net.n_classes();
        (0..b as u64)
            .map(|i| label_of((self.cursor + i) % self.cycle, classes))
            .collect()
    }

    /// Replaces parameters and label cursor with `other`'s (the
    /// supervisor's rollback path), keeping this wrapper's scheduling
    /// preference. Scratch is dropped; the next batch re-plans it.
    pub(crate) fn adopt(&mut self, other: Self) {
        let use_graph = self.net.step_cache().use_graph;
        *self = other;
        *self.net.step_cache_mut() = StepCache::new(use_graph);
    }
}

impl<N: LabeledNet> UnsupervisedModel for LabeledModel<N> {
    fn input_dim(&self) -> usize {
        self.net.in_dim()
    }

    fn prepare(&mut self, max_batch: usize) {
        self.net.prepare(max_batch);
    }

    fn train_batch(&mut self, ctx: &ExecCtx, x: MatView<'_>, lr: f32) -> f64 {
        if crate::faults::fire(N::NAN_FAILPOINT) {
            // Fired before the cursor or parameters advance, so the
            // supervisor's rolled-back replay trains exactly as a
            // fault-free run would have.
            return f64::NAN;
        }
        let b = x.rows();
        let labels = self.labels_for(b);
        self.cursor = (self.cursor + b as u64) % self.cycle;
        self.net.train_batch(ctx, x, &labels, lr)
    }

    fn resident_bytes(&self) -> u64 {
        let arena = self.net.step_cache().prepared.arena_elems();
        ((self.net.param_count() + arena) * std::mem::size_of::<f32>()) as u64
    }

    fn save_state(&self, w: &mut dyn Write) -> io::Result<()> {
        crate::checkpoint::write_labeled_state(self, w)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::checkpoint::{load_checkpoint, save_checkpoint, TrainProgress};
    use crate::cnn::{CnnConfig, CnnNet};
    use crate::exec::OptLevel;
    use crate::finetune::FineTuneNet;
    use crate::supervise::Recoverable;
    use crate::train::{train_dataset, TrainConfig};
    use micdnn_data::{Dataset, DigitGenerator};

    /// What the generic bodies below need from each net under test.
    pub(crate) trait TestNet: LabeledNet + Clone {
        /// A fresh 10-class net over 12 x 12 digits.
        fn fresh(seed: u64) -> Self;
        /// Every parameter, flattened in a fixed order.
        fn flat_params(&self) -> Vec<f32>;
    }

    impl TestNet for FineTuneNet {
        fn fresh(seed: u64) -> Self {
            FineTuneNet::random(&[144, 24], 10, seed)
        }
        fn flat_params(&self) -> Vec<f32> {
            let mut out = Vec::new();
            for (w, b) in self.layer_params() {
                out.extend_from_slice(w.as_slice());
                out.extend_from_slice(b);
            }
            out.extend_from_slice(self.softmax.w.as_slice());
            out.extend_from_slice(&self.softmax.b);
            out
        }
    }

    impl TestNet for CnnNet {
        fn fresh(seed: u64) -> Self {
            CnnNet::new(CnnConfig::digits(12), seed)
        }
        fn flat_params(&self) -> Vec<f32> {
            let mut out = self.conv_w.as_slice().to_vec();
            out.extend_from_slice(&self.conv_b);
            out.extend_from_slice(self.dense_w.as_slice());
            out.extend_from_slice(&self.dense_b);
            out.extend_from_slice(self.softmax.w.as_slice());
            out.extend_from_slice(&self.softmax.b);
            out
        }
    }

    fn ctx() -> ExecCtx {
        ExecCtx::native(OptLevel::Improved, 77)
    }

    fn digits(n: usize, seed: u64) -> Dataset {
        let mut ds = Dataset::new(DigitGenerator::new(12, seed).matrix(n));
        ds.normalize();
        ds
    }

    /// Run per alias from `cnn.rs` and `finetune.rs`, under the test names
    /// the CNN wrapper had before the two wrappers became one.
    pub(crate) fn cursor_labels_follow_dataset_order<N: TestNet>() {
        let mut model = LabeledModel::new(N::fresh(1), 25);
        assert_eq!(model.labels_for(4), vec![0, 1, 2, 3]);
        assert_eq!(
            model.labels_for(4),
            LabeledModel::<N>::row_labels(4, 10),
            "cursor and row rule disagree"
        );
        model.cursor = 23;
        // Rows 23, 24 then wrap to 0: digits 3, 4, 0.
        assert_eq!(model.labels_for(3), vec![3, 4, 0]);
    }

    fn partial_batch_advances_by_its_rows<N: TestNet>() {
        let ds = digits(25, 2);
        let ctx = ctx();
        let mut model = LabeledModel::new(N::fresh(3), 25);
        model.prepare(10);
        for (lo, hi) in [(0, 10), (10, 20), (20, 25)] {
            model.train_batch(&ctx, ds.batch(lo, hi), 0.1);
            assert_eq!(model.cursor_parts(), (hi as u64 % 25, 25));
        }
    }

    #[test]
    fn partial_final_batch_advances_cursor_by_real_row_count() {
        partial_batch_advances_by_its_rows::<FineTuneNet>();
        partial_batch_advances_by_its_rows::<CnnNet>();
    }

    fn checkpoint_restores_cursor_and_params<N: TestNet>() {
        let ds = digits(30, 4);
        let ctx = ctx();
        let mut model = LabeledModel::new(N::fresh(5), 30);
        model.train_batch(&ctx, ds.batch(0, 7), 0.3);
        let mut bytes = Vec::new();
        save_checkpoint(&mut bytes, &model, 1, 2, &TrainProgress::default()).unwrap();

        let mut other = LabeledModel::new(N::fresh(6), 30);
        let ckpt = load_checkpoint(&mut bytes.as_slice()).unwrap();
        other.restore_state(ckpt.model).unwrap();
        assert_eq!(other.cursor_parts(), (7, 30));
        assert_eq!(other.net.flat_params(), model.net.flat_params());
        // Same state, same future: the next step agrees to the bit.
        let a = model.train_batch(&ctx, ds.batch(7, 14), 0.3);
        let b = other.train_batch(&ctx, ds.batch(7, 14), 0.3);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(other.net.flat_params(), model.net.flat_params());
    }

    #[test]
    fn checkpoint_round_trip_restores_cursor_and_parameters_bit_exactly() {
        checkpoint_restores_cursor_and_params::<FineTuneNet>();
        checkpoint_restores_cursor_and_params::<CnnNet>();
    }

    #[test]
    fn restore_rejects_the_other_labeled_kind() {
        let mut bytes = Vec::new();
        let cnn = LabeledModel::new(CnnNet::fresh(1), 10);
        save_checkpoint(&mut bytes, &cnn, 0, 0, &TrainProgress::default()).unwrap();
        let mut ft = LabeledModel::new(FineTuneNet::fresh(1), 10);
        let ckpt = load_checkpoint(&mut bytes.as_slice()).unwrap();
        let err = ft.restore_state(ckpt.model).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "snapshot does not hold a fine-tune net");
    }

    fn schedule_preference_survives_adopt<N: TestNet>() {
        for (mine, theirs) in [(true, false), (false, true)] {
            let wrap = |graph: bool, seed| {
                let model = LabeledModel::new(N::fresh(seed), 12);
                if graph {
                    model.with_graph_schedule()
                } else {
                    model
                }
            };
            let mut model = wrap(mine, 7);
            model.prepare(4);
            let mut other = wrap(theirs, 8);
            other.cursor = 5;
            let params = other.net.flat_params();
            model.adopt(other);
            assert_eq!(model.net.step_cache().use_graph, mine);
            assert!(model.net.step_cache().prepared.0.is_none());
            assert_eq!(model.cursor_parts(), (5, 12));
            assert_eq!(model.net.flat_params(), params);
        }
    }

    #[test]
    fn rollback_adoption_keeps_the_wrappers_schedule_preference() {
        schedule_preference_survives_adopt::<FineTuneNet>();
        schedule_preference_survives_adopt::<CnnNet>();
    }

    fn prepared_step_matches_a_fresh_graph<N: TestNet>() {
        // Full batches, a ragged tail, then a larger batch that grows the
        // prepared capacity, alternating the serial and wave schedules. The
        // fresh side builds, plans and lays out a graph for each batch's
        // rows.
        let ds = digits(27, 95);
        let labels = LabeledModel::<N>::row_labels(27, 10);
        let ctx = ctx();
        let (mut kept, mut fresh) = (N::fresh(96), N::fresh(96));
        let bounds = [(0, 10), (10, 20), (20, 27), (0, 10), (0, 16), (16, 27)];
        for (i, (lo, hi)) in bounds.into_iter().enumerate() {
            let (x, l, wave) = (ds.batch(lo, hi), &labels[lo..hi], i % 2 == 1);
            kept.step_cache_mut().use_graph = wave;
            let loss = kept.train_batch(&ctx, x, l, 0.3);
            let mut g = fresh.step_graph(hi - lo);
            let mut ws = Workspace::new(&g.plan());
            let mut state = StepState {
                net: &mut fresh,
                ws: &mut ws,
                x,
                labels: l,
                lr: 0.3,
                loss: 0.0,
            };
            if wave {
                g.execute(&ctx, &mut state);
            } else {
                g.run_serial(&ctx, &mut state);
            }
            assert_eq!(loss.to_bits(), state.loss.to_bits(), "rows {lo}..{hi}");
            assert_eq!(kept.flat_params(), fresh.flat_params(), "rows {lo}..{hi}");
        }
        let cap = kept.step_cache().prepared.0.as_ref().map(|p| p.0);
        assert_eq!(cap, Some(16), "prepared once per capacity");
    }

    #[test]
    fn prepared_step_matches_a_freshly_built_graph_bitwise() {
        prepared_step_matches_a_fresh_graph::<FineTuneNet>();
        prepared_step_matches_a_fresh_graph::<CnnNet>();
    }

    /// Run per alias, like [`cursor_labels_follow_dataset_order`].
    pub(crate) fn trains_through_train_dataset<N: TestNet>() {
        let ds = digits(60, 8);
        let labels = LabeledModel::<N>::row_labels(60, 10);
        let ctx = ctx();
        let mut model = LabeledModel::new(N::fresh(21), 60);
        let tc = TrainConfig {
            learning_rate: 0.4,
            batch_size: 10,
            chunk_rows: 30,
            ..TrainConfig::default()
        };
        let report = train_dataset(&mut model, &ctx, &ds, &tc, 20).unwrap();
        assert!(
            report.final_recon() < report.initial_recon(),
            "cross-entropy did not fall"
        );
        let acc = model.net.accuracy(&ctx, ds.matrix().view(), &labels);
        assert!(acc > 0.5, "accuracy {acc} after supervised-via-cursor run");
    }
}
