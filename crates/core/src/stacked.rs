//! Layer-wise unsupervised pre-training of deep networks (paper §II.A).
//!
//! "A four-layer deep neural network can be decomposed into three
//! Autoencoders ... The pre-training of this deep network consists of three
//! sequential unsupervised trainings" — each layer trains on the previous
//! layer's hidden representation of the data.
//!
//! Table I's workload is exactly this: a 1024-512-256-128 stack, trained
//! layer by layer.

use crate::autoencoder::{AeConfig, AeScratch, SparseAutoencoder};
use crate::exec::ExecCtx;
use crate::graph::{BufClass, BufId, NodeSpec, TaskGraph};
use crate::train::{train_dataset_at, AeModel, TrainConfig, TrainError, TrainReport};
use micdnn_data::{ChunkGeometry, Dataset};
use micdnn_sim::EventKind;
use micdnn_tensor::{Mat, MatView};

/// Per-layer training result of a stacked pre-training run.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Input/output widths of the layer.
    pub shape: (usize, usize),
    /// The training report of this layer.
    pub report: TrainReport,
}

/// The greedy layer-wise schedule (paper Fig. 1), written once: layer `i`
/// trains on the encoding of the data through layers `0..i`.
/// `train_layer` gets the untrained layer, its training set and its index
/// — so checkpoints and ladder positions can carry it — and returns the
/// trained layer with its report; how it trains (plain, graph-scheduled,
/// data-parallel, under the supervisor's ladder) is the caller's business.
pub(crate) fn pretrain_layers(
    layers: &mut [SparseAutoencoder],
    ctx: &ExecCtx,
    data: &Dataset,
    mut train_layer: impl FnMut(
        &SparseAutoencoder,
        &Dataset,
        u64,
    ) -> Result<(SparseAutoencoder, TrainReport), TrainError>,
) -> Result<Vec<LayerReport>, TrainError> {
    // The encoding of `data` through the layers trained so far; the first
    // layer trains on the caller's dataset itself.
    let mut encoded: Option<Dataset> = None;
    let mut reports = Vec::with_capacity(layers.len());
    for (i, layer) in layers.iter_mut().enumerate() {
        let _layer_span = ctx.phase(&format!("pretrain layer {i}"));
        let current = encoded.as_ref().unwrap_or(data);
        let (trained, report) = train_layer(layer, current, i as u64)?;
        *layer = trained;
        // Encode the dataset through the freshly trained layer to form
        // the next layer's training set.
        let next = Dataset::new(layer.encode(ctx, current.matrix().view()));
        let shape = (current.dim(), next.dim());
        encoded = Some(next);
        reports.push(LayerReport { shape, report });
    }
    Ok(reports)
}

/// A stack of sparse autoencoders (the paper's Fig. 1).
#[derive(Debug, Clone)]
pub struct StackedAutoencoder {
    layers: Vec<SparseAutoencoder>,
    sizes: Vec<usize>,
    use_graph: bool,
}

impl StackedAutoencoder {
    /// Builds a stack for the given layer widths, e.g.
    /// `[1024, 512, 256, 128]` (Table I's network).
    pub fn new(sizes: &[usize], template: impl Fn(usize, usize) -> AeConfig, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "a stack needs at least two layer sizes");
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| SparseAutoencoder::new(template(w[0], w[1]), seed.wrapping_add(i as u64)))
            .collect();
        StackedAutoencoder {
            layers,
            sizes: sizes.to_vec(),
            use_graph: false,
        }
    }

    /// Standard configuration stack.
    pub fn with_default_config(sizes: &[usize], seed: u64) -> Self {
        Self::new(sizes, AeConfig::new, seed)
    }

    /// Schedules every layer's training steps through the dataflow
    /// executor (see [`crate::train::AeModel::with_graph_schedule`]).
    /// Bit-identical to the serial schedule.
    pub fn with_graph_schedule(mut self) -> Self {
        self.use_graph = true;
        self
    }

    /// Layer widths, including the input layer.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The trained layers.
    pub fn layers(&self) -> &[SparseAutoencoder] {
        &self.layers
    }

    /// Mutable layer access for the run supervisor, which drives the
    /// greedy schedule itself so each leg can roll back independently.
    pub(crate) fn layers_mut(&mut self) -> &mut [SparseAutoencoder] {
        &mut self.layers
    }

    /// The stack's layer -> trainer wrapper (carries the scheduling
    /// preference, borrows nothing).
    pub(crate) fn layer_wrapper(&self) -> impl Fn(SparseAutoencoder) -> AeModel {
        let use_graph = self.use_graph;
        move |ae| {
            let model = AeModel::new(ae);
            if use_graph {
                model.with_graph_schedule()
            } else {
                model
            }
        }
    }

    /// Whether [`StackedAutoencoder::with_graph_schedule`] was requested.
    pub fn uses_graph(&self) -> bool {
        self.use_graph
    }

    /// Greedy layer-wise pre-training: trains layer k on the encoding of
    /// the data through layers `0..k` (paper Fig. 1), `passes` epochs per
    /// layer.
    ///
    /// Returns one report per layer.
    pub fn pretrain(
        &mut self,
        ctx: &ExecCtx,
        data: &Dataset,
        cfg: &TrainConfig,
        passes: usize,
    ) -> Result<Vec<LayerReport>, TrainError> {
        let wrap = self.layer_wrapper();
        pretrain_layers(&mut self.layers, ctx, data, |layer, current, i| {
            let mut model = wrap(layer.clone());
            // Checkpoints written inside this layer's run carry the layer
            // index, so a resumed stacked run knows where it stood.
            let report = train_dataset_at(&mut model, ctx, current, cfg, passes, 0, i, None)?;
            Ok((model.into_inner(), report))
        })
    }

    /// Encodes a batch through the whole stack (the deep representation).
    pub fn encode(&self, ctx: &ExecCtx, x: MatView<'_>) -> Mat {
        let mut current = self.layers[0].encode(ctx, x);
        for layer in &self.layers[1..] {
            current = layer.encode(ctx, current.view());
        }
        current
    }

    /// Dimensionality of the deepest representation.
    pub fn code_dim(&self) -> usize {
        *self.sizes.last().expect("non-empty stack")
    }

    /// Pipelined greedy pre-training across a multi-device schedule.
    ///
    /// Semantics are identical to [`StackedAutoencoder::pretrain`] — each
    /// layer still trains to completion on the *final* encoding of the
    /// data through the layers below — but the work is expressed as one
    /// [`TaskGraph`] of per-chunk nodes placed on one device per layer:
    /// layer `k` streams its freshly encoded chunks over the link through
    /// explicit [`NodeSpec::transfer`] nodes (serialized by a per-link
    /// token), and layer `k+1` starts training on chunk 0 the moment it
    /// lands, while layer `k` is still encoding and shipping the rest. On
    /// a simulated context the run's critical path is therefore strictly
    /// shorter than its serial time; the weights are bit-identical to the
    /// sequential schedule at any thread count (the executor's
    /// reproducibility contract — see [`TaskGraph::execute`]).
    pub fn pretrain_pipelined(
        &mut self,
        ctx: &ExecCtx,
        data: &Dataset,
        cfg: &TrainConfig,
        passes: usize,
    ) -> PipelineReport {
        assert!(passes > 0, "at least one pass");
        let m = data.matrix();
        let (rows, cols) = m.shape();
        assert!(rows > 0, "empty dataset");
        assert_eq!(
            cols, self.sizes[0],
            "dataset width {cols} does not match input layer {}",
            self.sizes[0]
        );
        let n_layers = self.layers.len();
        let geometry = cfg.geometry(rows);
        let batch_cap = cfg.batch_size.min(rows);

        // Layer 0's chunks are copies of the input rows; deeper layers
        // start as placeholders the transfer nodes overwrite.
        let placeholders = || vec![Mat::zeros(1, 1); geometry.chunks()];
        let first = (0..geometry.chunks()).map(|c| geometry.chunk(m, c));
        let mut chunks = vec![first.collect::<Vec<Mat>>()];
        chunks.resize_with(n_layers, placeholders);
        let staged: Vec<Vec<Mat>> = (0..n_layers).map(|_| placeholders()).collect();
        let scratch = self
            .layers
            .iter()
            .map(|l| AeScratch::new(l.config(), batch_cap))
            .collect();

        let mut state = PipelineState {
            layers: std::mem::take(&mut self.layers),
            scratch,
            chunks,
            staged,
            recon: vec![0.0; n_layers],
        };
        let mut g = build_pipeline_graph(&self.sizes, cfg, geometry, passes);
        let run = {
            let _span = ctx.phase("pretrain pipelined");
            g.execute(ctx, &mut state)
        };
        self.layers = state.layers;
        PipelineReport {
            layer_recon: state.recon.iter().map(|&s| s / rows as f64).collect(),
            critical_path: run.critical_path,
            serial_time: run.serial_time,
            nodes: g.len(),
        }
    }

    /// The pipelined pre-training graph for a dataset of `rows` examples —
    /// exactly what [`StackedAutoencoder::pretrain_pipelined`] executes,
    /// with node bodies bound to a [`PipelineState`]. Exposed so tests can
    /// statically [`TaskGraph::verify`] the shipped multi-device schedule
    /// without running it.
    pub fn pipeline_graph(
        &self,
        cfg: &TrainConfig,
        rows: usize,
        passes: usize,
    ) -> TaskGraph<'static, PipelineState> {
        build_pipeline_graph(&self.sizes, cfg, cfg.geometry(rows), passes)
    }
}

/// Result of [`StackedAutoencoder::pretrain_pipelined`].
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Mean per-example reconstruction error of each layer over its final
    /// pass (the pipelined analogue of [`TrainReport::final_recon`]).
    pub layer_recon: Vec<f64>,
    /// Critical-path seconds of the pipelined schedule (zero on native
    /// contexts, which do not price ops).
    pub critical_path: f64,
    /// Seconds a fully serial schedule of the same nodes would have taken.
    pub serial_time: f64,
    /// Number of nodes in the executed graph.
    pub nodes: usize,
}

/// Mutable state threaded through the pipelined pre-training graph: the
/// layer parameters, per-layer scratch, and the chunked activations as
/// they stream from device to device.
pub struct PipelineState {
    layers: Vec<SparseAutoencoder>,
    scratch: Vec<AeScratch>,
    /// `chunks[i][c]`: chunk `c` of layer `i`'s training set (layer 0 is
    /// the input data; deeper layers are filled by transfer nodes).
    chunks: Vec<Vec<Mat>>,
    /// Encoded chunks staged on the producing device, awaiting transfer.
    staged: Vec<Vec<Mat>>,
    /// Per-layer last-pass reconstruction error, summed over examples.
    recon: Vec<f64>,
}

/// Builds the pipelined stacked pre-training DAG. Declaration order is
/// the sequential greedy schedule (train layer `i` for all passes, then
/// encode and transfer its chunks, then layer `i+1`), so the executor's
/// bit-reproducibility contract pins the result to [`StackedAutoencoder::
/// pretrain`]'s; the declared footprints are what let chunk-grained
/// cross-layer overlap emerge.
fn build_pipeline_graph(
    sizes: &[usize],
    cfg: &TrainConfig,
    geometry: ChunkGeometry,
    passes: usize,
) -> TaskGraph<'static, PipelineState> {
    assert!(geometry.chunks() > 0 && passes > 0, "empty pipeline");
    let n_layers = sizes.len() - 1;
    let batch = cfg.batch_size;
    let lr = cfg.learning_rate;
    let link = cfg.link;
    let chunk_sizes: Vec<usize> = geometry.chunk_sizes().collect();
    let mut g: TaskGraph<'static, PipelineState> = TaskGraph::new();

    // One logical parameter buffer per layer (owned by the model, hence
    // External); its read/write chain serializes that layer's steps.
    let params: Vec<BufId> = (0..n_layers)
        .map(|i| {
            let elems = 2 * sizes[i] * sizes[i + 1] + sizes[i] + sizes[i + 1];
            g.declare_dims("params", &[elems], BufClass::External)
        })
        .collect();
    // Layer 0 reads the caller's dataset (External); deeper layers' chunks
    // are produced and consumed inside the run (Scratch).
    let chunk_bufs: Vec<Vec<BufId>> = sizes[..n_layers]
        .iter()
        .enumerate()
        .map(|(i, &dim)| {
            let class = if i == 0 {
                BufClass::External
            } else {
                BufClass::Scratch
            };
            chunk_sizes
                .iter()
                .map(|&r| g.declare_dims("chunk", &[r, dim], class))
                .collect()
        })
        .collect();
    let enc_bufs: Vec<Vec<BufId>> = (0..n_layers.saturating_sub(1))
        .map(|i| {
            chunk_sizes
                .iter()
                .map(|&r| g.declare_dims("enc", &[r, sizes[i + 1]], BufClass::Scratch))
                .collect()
        })
        .collect();
    // One write-only token per inter-device link: every transfer over the
    // same link writes it, so write-after-write chains them — one hop in
    // flight at a time. Pinned by class: a dedicated register nothing
    // aliases, exempt from dead-write analysis (it is pure ordering).
    let tokens: Vec<BufId> = (0..n_layers.saturating_sub(1))
        .map(|_| g.declare_dims("link-token", &[1], BufClass::Pinned))
        .collect();

    for i in 0..n_layers {
        let dev = i as u32;
        for p in 0..passes {
            let last_pass = p + 1 == passes;
            for (c, &crows) in chunk_sizes.iter().enumerate() {
                let spec = NodeSpec::new("train")
                    .reads(&[chunk_bufs[i][c], params[i]])
                    .writes(&[params[i]])
                    .device(dev)
                    .phase("pipeline-train");
                g.node(spec, move |ctx, s: &mut PipelineState| {
                    let x = s.chunks[i][c].view();
                    let layer = &mut s.layers[i];
                    let scratch = &mut s.scratch[i];
                    let mut lo = 0;
                    while lo < crows {
                        let hi = (lo + batch).min(crows);
                        let cost = layer.train_batch(ctx, x.rows_range(lo, hi), scratch, lr);
                        if last_pass {
                            s.recon[i] += cost.reconstruction * (hi - lo) as f64;
                        }
                        lo = hi;
                    }
                });
            }
        }
        if i + 1 == n_layers {
            continue;
        }
        for c in 0..chunk_sizes.len() {
            let spec = NodeSpec::new("encode")
                .reads(&[params[i], chunk_bufs[i][c]])
                .writes(&[enc_bufs[i][c]])
                .device(dev)
                .phase("pipeline-encode");
            g.node(spec, move |ctx, s: &mut PipelineState| {
                let enc = s.layers[i].encode(ctx, s.chunks[i][c].view());
                s.staged[i][c] = enc;
            });
            let hop = link;
            let spec = NodeSpec::new("xfer")
                .reads(&[enc_bufs[i][c]])
                .writes(&[chunk_bufs[i + 1][c], tokens[i]])
                .device(dev + 1)
                .transfer()
                .phase("pipeline-xfer");
            g.node(spec, move |ctx, s: &mut PipelineState| {
                let staged = std::mem::replace(&mut s.staged[i][c], Mat::zeros(1, 1));
                let bytes = std::mem::size_of_val(staged.as_slice()) as u64;
                ctx.charge_secs(
                    hop.transfer_time(bytes),
                    EventKind::Transfer,
                    "pipeline-xfer",
                );
                s.chunks[i + 1][c] = staged;
            });
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::OptLevel;
    use micdnn_tensor::Mat;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let protos: Vec<Vec<f32>> = (0..3)
            .map(|_| (0..dim).map(|_| rng.gen_range(0.1..0.9)).collect())
            .collect();
        Dataset::new(Mat::from_fn(n, dim, |r, c| {
            (protos[r % 3][c] + rng.gen_range(-0.05..0.05)).clamp(0.05, 0.95)
        }))
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            batch_size: 25,
            chunk_rows: 100,
            learning_rate: 0.3,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn stack_shapes() {
        let stack = StackedAutoencoder::with_default_config(&[24, 12, 6, 3], 1);
        assert_eq!(stack.layers().len(), 3);
        assert_eq!(stack.layers()[0].config().n_visible, 24);
        assert_eq!(stack.layers()[2].config().n_hidden, 3);
        assert_eq!(stack.code_dim(), 3);
    }

    #[test]
    fn pretraining_improves_every_layer() {
        let mut stack = StackedAutoencoder::with_default_config(&[20, 10, 5], 2);
        let ctx = ExecCtx::native(OptLevel::Improved, 3);
        let data = toy_dataset(200, 20, 4);
        let reports = stack.pretrain(&ctx, &data, &quick_cfg(), 25).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].shape, (20, 10));
        assert_eq!(reports[1].shape, (10, 5));
        for (i, lr) in reports.iter().enumerate() {
            assert!(
                lr.report.final_recon() < lr.report.initial_recon(),
                "layer {i} did not improve: {} -> {}",
                lr.report.initial_recon(),
                lr.report.final_recon()
            );
        }
    }

    #[test]
    fn encode_produces_code_dim() {
        let mut stack = StackedAutoencoder::with_default_config(&[16, 8, 4], 5);
        let ctx = ExecCtx::native(OptLevel::Improved, 6);
        let data = toy_dataset(100, 16, 7);
        stack.pretrain(&ctx, &data, &quick_cfg(), 3).unwrap();
        let code = stack.encode(&ctx, data.matrix().view());
        assert_eq!(code.shape(), (100, 4));
        assert!(code.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "at least two layer sizes")]
    fn degenerate_stack_rejected() {
        StackedAutoencoder::with_default_config(&[10], 0);
    }

    #[test]
    fn graph_scheduled_stack_matches_serial_bitwise() {
        let data = toy_dataset(100, 16, 13);
        let run = |graph: bool| {
            let mut stack = StackedAutoencoder::with_default_config(&[16, 8, 4], 21);
            if graph {
                stack = stack.with_graph_schedule();
            }
            let ctx = ExecCtx::native(OptLevel::Improved, 22);
            stack.pretrain(&ctx, &data, &quick_cfg(), 3).unwrap();
            stack
        };
        let serial = run(false);
        let graphed = run(true);
        for (s, g) in serial.layers().iter().zip(graphed.layers()) {
            assert_eq!(s.w1.as_slice(), g.w1.as_slice());
            assert_eq!(s.w2.as_slice(), g.w2.as_slice());
            assert_eq!(s.b1, g.b1);
            assert_eq!(s.b2, g.b2);
        }
    }

    #[test]
    fn pipelined_pretrain_matches_sequential_bitwise() {
        let data = toy_dataset(90, 16, 31);
        let cfg = TrainConfig {
            batch_size: 10,
            chunk_rows: 30,
            learning_rate: 0.3,
            ..TrainConfig::default()
        };
        let mut serial = StackedAutoencoder::with_default_config(&[16, 8, 4], 33);
        let ctx = ExecCtx::native(OptLevel::Improved, 34);
        serial.pretrain(&ctx, &data, &cfg, 3).unwrap();

        let mut piped = StackedAutoencoder::with_default_config(&[16, 8, 4], 33);
        let ctx2 = ExecCtx::native(OptLevel::Improved, 34);
        let report = piped.pretrain_pipelined(&ctx2, &data, &cfg, 3);

        for (s, p) in serial.layers().iter().zip(piped.layers()) {
            assert_eq!(s.w1.as_slice(), p.w1.as_slice());
            assert_eq!(s.w2.as_slice(), p.w2.as_slice());
            assert_eq!(s.b1, p.b1);
            assert_eq!(s.b2, p.b2);
        }
        assert_eq!(report.layer_recon.len(), 2);
        assert!(report.layer_recon.iter().all(|r| r.is_finite() && *r > 0.0));
        // 2 layers x 3 passes x 3 chunks of training, plus encode+xfer
        // for every chunk of the one inter-layer edge.
        assert_eq!(report.nodes, 2 * 3 * 3 + 2 * 3);
    }

    #[test]
    fn pipelined_pretrain_overlaps_layers_on_the_simulated_clock() {
        use micdnn_sim::Platform;
        let data = toy_dataset(120, 16, 36);
        let cfg = TrainConfig {
            batch_size: 10,
            chunk_rows: 30,
            learning_rate: 0.3,
            ..TrainConfig::default()
        };
        let mut stack = StackedAutoencoder::with_default_config(&[16, 8, 4], 37);
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 38);
        let report = stack.pretrain_pipelined(&ctx, &data, &cfg, 2);
        assert!(report.critical_path > 0.0);
        assert!(
            report.critical_path < report.serial_time,
            "pipeline shows no overlap: critical path {} vs serial {}",
            report.critical_path,
            report.serial_time
        );
    }

    #[test]
    fn pipeline_graph_is_verifier_clean() {
        let stack = StackedAutoencoder::with_default_config(&[16, 8, 4], 39);
        let g = stack.pipeline_graph(&quick_cfg(), 90, 2);
        let report = g.verify();
        assert!(report.errors.is_empty(), "errors: {report}");
        assert!(report.warnings.is_empty(), "warnings: {report}");
    }
}
