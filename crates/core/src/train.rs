//! The chunked, double-buffered training loop — the paper's Algorithm 1.
//!
//! ```text
//! 1: initialize parameters
//! 2: while stop condition is not satisfied
//! 3:   get a chunk of data from the buffer area in global memory
//! 4:   split the chunk into many smaller training batches
//! 5:   for each small training batch
//! 6:     compute the gradient accordingly
//! 7:     update the parameters
//! ```
//!
//! The "buffer area in global memory" is a [`ChunkStream`]: a loading
//! thread fills device-resident chunk buffers while training consumes the
//! previous chunk. Device residency (parameters + loading area) is checked
//! against the modeled card's capacity, as the paper's design requires.

use crate::ae_graph::{AeStep, AeUpdate};
use crate::autoencoder::{AeScratch, SparseAutoencoder};
use crate::cd_graph::run_cd_step;
use crate::checkpoint::{save_checkpoint_file, CheckpointPolicy, TrainProgress};
use crate::exec::ExecCtx;
use crate::rbm::{Rbm, RbmScratch};
use crate::supervise::{Incident, SuperHooks, SupervisorPolicy, SupervisorPolicyError};
use micdnn_data::{ChunkGeometry, Dataset};
use micdnn_sim::{
    ChunkSource, ChunkStream, DeviceMemory, Link, OutOfDeviceMemory, RetryPolicy, SharedRows,
    StreamError, StreamOptions, StreamStats,
};
use micdnn_tensor::{Mat, MatView};
use std::io::{self, Write};
use std::sync::Arc;
use std::time::Duration;

/// Anything trainable by the chunked mini-batch loop.
pub trait UnsupervisedModel {
    /// Input dimensionality each example must have.
    fn input_dim(&self) -> usize;
    /// Builds (or grows) the step and its storage for batches of up to
    /// `max_batch`.
    fn prepare(&mut self, max_batch: usize);
    /// One gradient step on a batch; returns the batch's mean per-example
    /// reconstruction error.
    fn train_batch(&mut self, ctx: &ExecCtx, x: MatView<'_>, lr: f32) -> f64;
    /// Device bytes the model keeps resident: its parameters plus the
    /// arena its prepared step's plan lays out (nothing more before
    /// `prepare`).
    fn resident_bytes(&self) -> u64;
    /// Serializes the model *and* its optimizer/momentum state for
    /// checkpointing. Models without a persistence format return
    /// `Unsupported`, which disables periodic checkpointing for them.
    fn save_state(&self, _w: &mut dyn Write) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "model does not support checkpointing",
        ))
    }
}

/// A sparse autoencoder bundled with its reusable scratch; optionally
/// scheduled via the dataflow executor.
#[derive(Debug)]
pub struct AeModel {
    /// The underlying autoencoder.
    pub ae: SparseAutoencoder,
    scratch: Option<AeScratch>,
    use_graph: bool,
    optimizer: Option<crate::optim::Optimizer>,
}

impl AeModel {
    /// Wraps an autoencoder for training with plain SGD at the trainer's
    /// learning rate (the paper's configuration).
    pub fn new(ae: SparseAutoencoder) -> Self {
        AeModel {
            ae,
            scratch: None,
            use_graph: false,
            optimizer: None,
        }
    }

    /// Schedules each training step through the dataflow executor
    /// ([`crate::ae_step_graph`]): simulated contexts price the step by its
    /// critical path, native contexts run it in declaration order.
    /// Bit-identical to the serial path, so the flag is a
    /// scheduling preference and is not persisted in checkpoints. Each
    /// step graph is statically verified before execution in debug builds
    /// (or with [`ExecCtx::with_verify`]).
    pub fn with_graph_schedule(mut self) -> Self {
        self.use_graph = true;
        self
    }

    /// Whether steps run through the dataflow executor.
    pub fn uses_graph(&self) -> bool {
        self.use_graph
    }

    /// Uses an [`crate::Optimizer`] (momentum, schedules, AdaGrad) instead
    /// of plain SGD. The optimizer's schedule then controls the learning
    /// rate; `TrainConfig::learning_rate` is ignored.
    pub fn with_optimizer(mut self, opt: crate::optim::Optimizer) -> Self {
        self.optimizer = Some(opt);
        self
    }

    /// Consumes the wrapper, returning the trained autoencoder.
    pub fn into_inner(self) -> SparseAutoencoder {
        self.ae
    }

    /// The attached optimizer, if any (exposed for checkpointing).
    pub fn optimizer(&self) -> Option<&crate::optim::Optimizer> {
        self.optimizer.as_ref()
    }

    /// Replaces parameters and optimizer state with `other`'s (the
    /// supervisor's rollback path), keeping this wrapper's scheduling
    /// preference. Scratch is dropped; `prepare` re-allocates it.
    pub(crate) fn adopt(&mut self, other: AeModel) {
        self.ae = other.ae;
        self.optimizer = other.optimizer;
        self.scratch = None;
    }
}

impl UnsupervisedModel for AeModel {
    fn input_dim(&self) -> usize {
        self.ae.config().n_visible
    }

    fn prepare(&mut self, max_batch: usize) {
        let scratch = match self.scratch.take() {
            Some(s) if s.capacity() >= max_batch => s,
            _ => AeScratch::new(self.ae.config(), max_batch),
        };
        let update = [AeUpdate::Sgd, AeUpdate::Opt][usize::from(self.optimizer.is_some())];
        self.scratch.insert(scratch).prepare(update, false);
    }

    fn train_batch(&mut self, ctx: &ExecCtx, x: MatView<'_>, lr: f32) -> f64 {
        let scratch = self.scratch.as_mut().expect("prepare() not called");
        let step = self.optimizer.as_mut().map_or(AeStep::Sgd(lr), AeStep::Opt);
        let (cost, _) = self.ae.run_graph(scratch, x, step, ctx, self.use_graph);
        cost.reconstruction
    }

    fn resident_bytes(&self) -> u64 {
        let arena = self.scratch.as_ref().map_or(0, |s| s.step.arena_elems());
        ((self.ae.config().param_count() + arena) * std::mem::size_of::<f32>()) as u64
    }

    fn save_state(&self, w: &mut dyn Write) -> io::Result<()> {
        crate::checkpoint::write_ae_state(self, w)
    }
}

/// Velocity state for momentum-accelerated CD updates.
#[derive(Debug)]
struct CdMomentum {
    mu: f32,
    vw: Vec<f32>,
    vb: Vec<f32>,
    vc: Vec<f32>,
}

/// Borrowed momentum state `(mu, vw, vb, vc)` as exposed for checkpointing.
pub(crate) type MomentumParts<'a> = (f32, &'a [f32], &'a [f32], &'a [f32]);

/// Owned momentum state `(mu, vw, vb, vc)` as restored from a checkpoint.
pub(crate) type OwnedMomentumParts = (f32, Vec<f32>, Vec<f32>, Vec<f32>);

/// An RBM bundled with its scratch, trained with CD-k or PCD; optionally
/// scheduled via the Fig. 6 dependency graph.
#[derive(Debug)]
pub struct RbmModel {
    /// The underlying RBM.
    pub rbm: Rbm,
    /// The step graph's storage, and with PCD the persistent chain.
    scratch: Option<RbmScratch>,
    use_graph: bool,
    pcd: bool,
    /// Momentum coefficient and velocity buffers (w, b_vis, c_hid).
    momentum: Option<CdMomentum>,
}

impl RbmModel {
    /// Wraps an RBM, using the serial CD schedule.
    pub fn new(rbm: Rbm) -> Self {
        RbmModel {
            rbm,
            scratch: None,
            use_graph: false,
            pcd: false,
            momentum: None,
        }
    }

    /// Trains with persistent contrastive divergence (the paper's ref.
    /// \[15\]) instead of CD-k: a chain of fantasy particles, seeded from
    /// the first batch, carried across batches, checkpoints and rollbacks.
    pub fn with_pcd(mut self) -> Self {
        self.pcd = true;
        self
    }

    /// Schedules each CD step (any `cd_steps`) through the Fig. 6
    /// dependency graph.
    pub fn with_graph_schedule(mut self) -> Self {
        self.use_graph = true;
        self
    }

    /// Adds classical momentum to the CD updates (Hinton's practical guide
    /// recommends 0.5 early, 0.9 late).
    pub fn with_momentum(mut self, mu: f32) -> Self {
        assert!((0.0..1.0).contains(&mu), "momentum must be in [0,1)");
        let cfg = self.rbm.config();
        self.momentum = Some(CdMomentum {
            mu,
            vw: vec![0.0; cfg.n_visible * cfg.n_hidden],
            vb: vec![0.0; cfg.n_visible],
            vc: vec![0.0; cfg.n_hidden],
        });
        self
    }

    /// Consumes the wrapper, returning the trained RBM.
    pub fn into_inner(self) -> Rbm {
        self.rbm
    }

    /// Whether CD steps run through the Fig. 6 dependency graph.
    pub fn uses_graph(&self) -> bool {
        self.use_graph
    }

    /// Momentum state as `(mu, vw, vb, vc)`, if momentum is enabled.
    pub fn momentum_parts(&self) -> Option<MomentumParts<'_>> {
        self.momentum
            .as_ref()
            .map(|m| (m.mu, m.vw.as_slice(), m.vb.as_slice(), m.vc.as_slice()))
    }

    /// The PCD chain (no rows before the first step), or `None` under CD.
    pub(crate) fn pcd_chain(&self) -> Option<MatView<'_>> {
        let unseeded = MatView::new(&[], 0, self.rbm.config().n_visible);
        let chain = self
            .scratch
            .as_ref()
            .map_or(unseeded, |s| s.pcd_chain.view());
        self.pcd.then_some(chain)
    }

    /// Restores flags, momentum and a PCD chain (`Some` means PCD) from
    /// validated checkpoint data. Unlike the builder methods this must not
    /// panic: the checkpoint loader has already range-checked everything
    /// and reports `InvalidData` itself.
    pub(crate) fn restore_extras(
        &mut self,
        use_graph: bool,
        momentum: Option<OwnedMomentumParts>,
        chain: Option<Mat>,
    ) {
        self.use_graph = use_graph;
        self.momentum = momentum.map(|(mu, vw, vb, vc)| CdMomentum { mu, vw, vb, vc });
        self.pcd = chain.is_some();
        self.scratch = chain.filter(|c| c.rows() > 0).map(|chain| {
            let mut scratch = RbmScratch::new(self.rbm.config(), chain.rows());
            scratch.pcd_chain = chain;
            scratch
        });
    }

    /// Replaces parameters, momentum state, the training mode and the PCD
    /// chain (in `other`'s scratch) with `other`'s — the supervisor's
    /// rollback path — keeping this wrapper's scheduling preference.
    pub(crate) fn adopt(&mut self, other: RbmModel) {
        self.rbm = other.rbm;
        self.pcd = other.pcd;
        self.momentum = other.momentum;
        self.scratch = other.scratch;
    }
}

impl UnsupervisedModel for RbmModel {
    fn input_dim(&self) -> usize {
        self.rbm.config().n_visible
    }

    fn prepare(&mut self, max_batch: usize) {
        let scratch = match self.scratch.take() {
            Some(s) if s.capacity() >= max_batch => s,
            _ => RbmScratch::new(self.rbm.config(), max_batch),
        };
        self.scratch
            .insert(scratch)
            .prepare(*self.rbm.config(), self.pcd, false);
    }

    fn train_batch(&mut self, ctx: &ExecCtx, x: MatView<'_>, lr: f32) -> f64 {
        let scratch = self.scratch.as_mut().expect("prepare() not called");
        let (err, _) = run_cd_step(&mut self.rbm, ctx, x, scratch, lr, self.pcd, self.use_graph);
        if let Some(CdMomentum { mu, vw, vb, vc }) = &mut self.momentum {
            // cd_step applied w += lr*(pos - neg); fold in mu * v_old so
            // the net update is v_new = mu v_old + lr (pos - neg), then
            // remember v_new for the next batch. pos/neg stats are still
            // in the scratch's arena.
            let mu = *mu;
            let stat = |name| scratch.step.buf(name);
            ctx.axpy(mu, vw, self.rbm.w.as_mut_slice());
            ctx.axpy(mu, vb, &mut self.rbm.b_vis);
            ctx.axpy(mu, vc, &mut self.rbm.c_hid);
            ctx.scale(mu, vw);
            ctx.cd_update(lr, stat("pos_stats"), stat("neg_stats"), vw);
            ctx.scale(mu, vb);
            ctx.cd_update(lr, stat("vis_pos"), stat("vis_neg"), vb);
            ctx.scale(mu, vc);
            ctx.cd_update(lr, stat("hid_pos"), stat("hid_neg"), vc);
        }
        err
    }

    fn resident_bytes(&self) -> u64 {
        let arena = self.scratch.as_ref().map_or(0, |s| s.step.arena_elems());
        ((self.rbm.config().param_count() + arena) * std::mem::size_of::<f32>()) as u64
    }

    fn save_state(&self, w: &mut dyn Write) -> io::Result<()> {
        crate::checkpoint::write_rbm_state(self, w)
    }
}

/// Configuration of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// SGD / CD learning rate.
    pub learning_rate: f32,
    /// Mini-batch size (Algorithm 1's "small training batches").
    pub batch_size: usize,
    /// Rows per device chunk (the unit of one host→device transfer).
    pub chunk_rows: usize,
    /// Chunk slots in the device loading buffer.
    pub buffers: usize,
    /// Whether the loading thread overlaps transfers with training.
    pub double_buffered: bool,
    /// The host↔device link model.
    pub link: Link,
    /// Record a reconstruction-error sample every N batches (0 = every
    /// batch).
    pub history_every: usize,
    /// Periodic crash-safe checkpointing (`None` = off).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Self-healing supervision policy, consulted by
    /// [`crate::supervise::train_dataset_supervised`] (`None` = defaults).
    pub supervisor: Option<SupervisorPolicy>,
    /// Per-chunk delivery deadline; a chunk that fails to arrive in time
    /// surfaces as [`TrainError::Stream`]. `None` blocks indefinitely.
    pub chunk_deadline: Option<Duration>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 0.1,
            batch_size: 100,
            chunk_rows: 1000,
            buffers: 2,
            double_buffered: true,
            link: Link::pcie_gen2(),
            history_every: 0,
            checkpoint: None,
            supervisor: None,
            chunk_deadline: None,
        }
    }
}

impl TrainConfig {
    /// The chunk/batch split this configuration imposes on a dataset of
    /// `rows` examples.
    pub(crate) fn geometry(&self, rows: usize) -> ChunkGeometry {
        ChunkGeometry::new(rows, self.chunk_rows, self.batch_size)
    }
}

/// Errors a training run can hit.
#[derive(Debug)]
pub enum TrainError {
    /// Model + buffers exceed the modeled device memory.
    DeviceMemory(OutOfDeviceMemory),
    /// The stream produced a chunk whose width does not match the model.
    DimensionMismatch {
        /// What the model expects.
        expected: usize,
        /// What the chunk provided.
        got: usize,
    },
    /// The source produced no data at all.
    EmptyStream,
    /// A periodic checkpoint could not be written.
    Checkpoint(io::Error),
    /// The loading pipeline failed: spawn error, missed delivery deadline,
    /// exhausted retries, or the loader thread died.
    Stream(StreamError),
    /// The supervisor's sentinel saw a non-finite or exploding batch error.
    Diverged {
        /// Batch position (since epoch 0) whose error tripped the sentinel.
        batch: u64,
        /// The offending reconstruction error.
        err: f64,
    },
    /// The supervisor exhausted its rollback/restart budget.
    Unrecoverable {
        /// Recovery attempts made before giving up.
        attempts: u32,
        /// Description of the final failure.
        last: String,
    },
    /// The supervision policy itself is invalid (rejected before any
    /// training starts).
    Policy(SupervisorPolicyError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::DeviceMemory(e) => write!(f, "{e}"),
            TrainError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "chunk dimensionality {got} does not match model input {expected}"
                )
            }
            TrainError::EmptyStream => write!(f, "training stream produced no chunks"),
            TrainError::Checkpoint(e) => write!(f, "checkpoint write failed: {e}"),
            TrainError::Stream(e) => write!(f, "training stream failed: {e}"),
            TrainError::Diverged { batch, err } => {
                write!(f, "training diverged at batch {batch} (error {err})")
            }
            TrainError::Unrecoverable { attempts, last } => {
                write!(
                    f,
                    "training unrecoverable after {attempts} recovery attempt(s): {last}"
                )
            }
            TrainError::Policy(e) => write!(f, "invalid supervision policy: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<OutOfDeviceMemory> for TrainError {
    fn from(e: OutOfDeviceMemory) -> Self {
        TrainError::DeviceMemory(e)
    }
}

impl From<StreamError> for TrainError {
    fn from(e: StreamError) -> Self {
        TrainError::Stream(e)
    }
}

impl From<SupervisorPolicyError> for TrainError {
    fn from(e: SupervisorPolicyError) -> Self {
        TrainError::Policy(e)
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mini-batches processed.
    pub batches: u64,
    /// Examples processed.
    pub examples: u64,
    /// Sampled per-batch reconstruction errors, in order.
    pub recon_history: Vec<f64>,
    /// Simulated seconds at the end of the run (compute + exposed
    /// transfer stalls). Zero for native contexts.
    pub sim_total_secs: f64,
    /// Stream/transfer statistics.
    pub stream: StreamStats,
}

impl TrainReport {
    /// Last sampled reconstruction error.
    pub fn final_recon(&self) -> f64 {
        self.recon_history.last().copied().unwrap_or(f64::NAN)
    }

    /// First sampled reconstruction error.
    pub fn initial_recon(&self) -> f64 {
        self.recon_history.first().copied().unwrap_or(f64::NAN)
    }
}

/// Where a training stream picks up after a checkpoint: the first
/// `skip_batches` batch positions replay without training (the model
/// already contains their effect), then training continues.
#[derive(Debug, Clone, Copy, Default)]
struct ResumePoint {
    skip_batches: u64,
    layer: u64,
    /// The dataset's chunk/batch split; `None` for a bare stream, which
    /// has no epochs.
    geometry: Option<ChunkGeometry>,
}

impl ResumePoint {
    /// The progress record for the state after `batches` batch positions
    /// and `examples` examples since epoch 0.
    fn progress(&self, batches: u64, examples: u64) -> TrainProgress {
        TrainProgress {
            layer: self.layer,
            epoch: self.geometry.map_or(0, |g| g.epoch_of(batches)),
            batches,
            examples,
        }
    }
}

/// Trains `model` on everything `source` produces (Algorithm 1).
pub fn train_stream(
    model: &mut impl UnsupervisedModel,
    ctx: &ExecCtx,
    source: impl ChunkSource,
    cfg: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    train_stream_inner(model, ctx, source, cfg, ResumePoint::default(), None)
}

/// Forwards the loader's retry events to the supervisor's incident log.
fn drain_stream_events(stream: &ChunkStream, hooks: Option<&SuperHooks>) {
    let Some(h) = hooks else { return };
    for e in stream.take_retry_events() {
        h.record(Incident {
            kind: "loader-retry".to_string(),
            stage: String::new(),
            detail: format!(
                "chunk {} attempt {}: {} (backed off {:.6}s)",
                e.chunk, e.attempt, e.fault, e.backoff_secs
            ),
            batch: e.chunk,
            value: e.backoff_secs,
        });
    }
}

/// Writes the periodic checkpoint for the state after batch `batches`.
fn write_checkpoint(
    policy: &CheckpointPolicy,
    ctx: &ExecCtx,
    model: &dyn UnsupervisedModel,
    progress: &TrainProgress,
) -> io::Result<()> {
    let (rng_seed, rng_cursor) = ctx.rng_state();
    save_checkpoint_file(policy.file(), model, rng_seed, rng_cursor, progress)
}

fn train_stream_inner(
    model: &mut impl UnsupervisedModel,
    ctx: &ExecCtx,
    source: impl ChunkSource,
    cfg: &TrainConfig,
    resume: ResumePoint,
    hooks: Option<&SuperHooks>,
) -> Result<TrainReport, TrainError> {
    assert!(cfg.batch_size > 0, "batch size must be positive");
    assert!(cfg.buffers >= 1, "need at least one buffer");
    model.prepare(cfg.batch_size);
    let dim = model.input_dim();

    // Device residency check against the modeled card (paper §IV.B: all
    // parameters and the loading buffer live in device global memory).
    let _residency = match ctx.platform() {
        Some(p) => {
            let mem = DeviceMemory::new(p.spec.mem_capacity_bytes);
            let chunk_bytes = (cfg.chunk_rows * dim * std::mem::size_of::<f32>()) as u64;
            let total = model.resident_bytes() + chunk_bytes * cfg.buffers as u64;
            Some(mem.alloc(total, "model + loading buffers")?)
        }
        None => None,
    };

    // With the `failpoints` feature, every source passes through the
    // fault-injection wrapper; unarmed failpoints are no-ops.
    #[cfg(feature = "failpoints")]
    let source = crate::faults::FaultInjectSource::new(source);
    let mut stream = ChunkStream::spawn_opts(
        source,
        cfg.link,
        ctx.clock().clone(),
        ctx.trace().clone(),
        StreamOptions {
            buffers: cfg.buffers,
            double_buffered: cfg.double_buffered,
            retry: RetryPolicy {
                seed: ctx.seed(),
                ..RetryPolicy::default()
            },
            deadline: cfg.chunk_deadline,
            verify_checksums: true,
        },
    )
    .map_err(|e| TrainError::Stream(StreamError::Spawn(e)))?;

    let mut report = TrainReport {
        batches: 0,
        examples: 0,
        recon_history: Vec::new(),
        sim_total_secs: 0.0,
        stream: StreamStats::default(),
    };

    // `pos`/`done_examples` count batch positions since the very start of
    // the run (epoch 0), including positions replayed without training on
    // resume; `report` counts only work done by *this* process.
    let mut pos: u64 = 0;
    let mut done_examples: u64 = 0;
    // A stream or loader fault leaves a checkpoint of everything trained so
    // far (best effort — the run is failing anyway) before the typed error
    // surfaces.
    let parting_checkpoint = |model: &dyn UnsupervisedModel, pos: u64, examples: u64| {
        if let (Some(policy), true) = (&cfg.checkpoint, pos > 0) {
            let _ = write_checkpoint(policy, ctx, model, &resume.progress(pos, examples));
        }
    };
    loop {
        let next = {
            let _load = ctx.phase("load");
            stream.next()
        };
        let chunk = match next {
            Ok(chunk) => chunk,
            Err(e) => {
                drain_stream_events(&stream, hooks);
                parting_checkpoint(model, pos, done_examples);
                return Err(TrainError::Stream(e));
            }
        };
        let Some(chunk) = chunk else { break };
        if chunk.cols() != dim {
            parting_checkpoint(model, pos, done_examples);
            return Err(TrainError::DimensionMismatch {
                expected: dim,
                got: chunk.cols(),
            });
        }
        let rows = chunk.rows();
        let mut lo = 0;
        while lo < rows {
            let hi = (lo + cfg.batch_size).min(rows);
            if pos < resume.skip_batches {
                // Already trained before the checkpoint; replay the batch
                // boundary without touching the model or the RNG.
                pos += 1;
                done_examples += (hi - lo) as u64;
                lo = hi;
                continue;
            }
            let err = model.train_batch(ctx, chunk.rows_range(lo, hi), cfg.learning_rate);
            if let Some(h) = hooks {
                // Divergence sentinel: a non-finite or exploding batch
                // error aborts the leg so the supervisor can roll back.
                if !err.is_finite() || err > h.policy.divergence_threshold {
                    drain_stream_events(&stream, hooks);
                    return Err(TrainError::Diverged { batch: pos, err });
                }
            }
            if cfg.history_every == 0 || report.batches.is_multiple_of(cfg.history_every as u64) {
                report.recon_history.push(err);
            }
            report.batches += 1;
            report.examples += (hi - lo) as u64;
            pos += 1;
            done_examples += (hi - lo) as u64;
            lo = hi;
            if let Some(h) = hooks {
                if h.policy.snapshot_every > 0
                    && pos > resume.skip_batches
                    && pos.is_multiple_of(h.policy.snapshot_every)
                {
                    h.snapshot(model, ctx, &resume.progress(pos, done_examples))
                        .map_err(TrainError::Checkpoint)?;
                }
            }
            if let Some(policy) = &cfg.checkpoint {
                if policy.every_batches > 0 && pos.is_multiple_of(policy.every_batches) {
                    write_checkpoint(policy, ctx, model, &resume.progress(pos, done_examples))
                        .map_err(TrainError::Checkpoint)?;
                }
            }
        }
    }

    if pos == 0 {
        return Err(TrainError::EmptyStream);
    }
    // Final checkpoint so a finished run (or an N-epoch leg of a longer
    // one) can always be resumed.
    if report.batches > 0 {
        if let Some(policy) = &cfg.checkpoint {
            write_checkpoint(policy, ctx, model, &resume.progress(pos, done_examples))
                .map_err(TrainError::Checkpoint)?;
        }
    }
    drain_stream_events(&stream, hooks);
    report.stream = stream.stats();
    report.sim_total_secs = ctx.sim_time();
    if let Some(profiler) = ctx.profiler() {
        profiler.record_stream(report.stream);
    }
    Ok(report)
}

/// Trains on an in-memory dataset for `passes` epochs.
pub fn train_dataset(
    model: &mut impl UnsupervisedModel,
    ctx: &ExecCtx,
    dataset: &Dataset,
    cfg: &TrainConfig,
    passes: usize,
) -> Result<TrainReport, TrainError> {
    train_dataset_at(model, ctx, dataset, cfg, passes, 0, 0, None)
}

/// [`train_dataset`] continuing from a checkpoint's [`TrainProgress`]:
/// replays the same deterministic chunk/batch sequence for `passes` total
/// epochs, skipping the `progress.batches` positions already trained.
///
/// The caller is expected to have restored the model from the checkpoint
/// and the context's sampler via `ExecCtx::restore_rng`; the continued
/// run is then bit-identical to one that never stopped.
pub fn train_dataset_resume(
    model: &mut impl UnsupervisedModel,
    ctx: &ExecCtx,
    dataset: &Dataset,
    cfg: &TrainConfig,
    passes: usize,
    progress: &TrainProgress,
) -> Result<TrainReport, TrainError> {
    train_dataset_at(
        model,
        ctx,
        dataset,
        cfg,
        passes,
        progress.batches,
        progress.layer,
        None,
    )
}

/// Algorithm 1's line 3 for an in-memory dataset: a lazy [`ChunkSource`]
/// that lends chunk `c` of pass `p` as its rows of the dataset's shared
/// storage when the loading thread asks for it. Handing a chunk out clones
/// one `Arc`: the host holds no copy of any chunk, only the dataset, and the
/// copy into a device buffer is the one the stream's `Link` prices. It
/// never faults — the retry contract (a faulting call consumes nothing)
/// holds trivially; injected faults come from the `FaultInjectSource`
/// wrapped around it, which copies a chunk's own rows before it writes.
fn epoch_source(dataset: &Dataset, geometry: ChunkGeometry, passes: usize) -> impl ChunkSource {
    let data = dataset.shared();
    let mut order = (0..passes).flat_map(move |_| 0..geometry.chunks());
    move || {
        let (lo, hi) = geometry.chunk_bounds(order.next()?);
        Some(SharedRows::new(Arc::clone(&data), lo, hi))
    }
}

/// Shared body of [`train_dataset`]/[`train_dataset_resume`]; `layer`
/// labels checkpoints written during stacked pre-training, `hooks` plugs
/// in the supervisor's sentinel and snapshot machinery.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_dataset_at(
    model: &mut impl UnsupervisedModel,
    ctx: &ExecCtx,
    dataset: &Dataset,
    cfg: &TrainConfig,
    passes: usize,
    skip_batches: u64,
    layer: u64,
    hooks: Option<&SuperHooks>,
) -> Result<TrainReport, TrainError> {
    assert!(passes >= 1, "need at least one pass");
    let geometry = cfg.geometry(dataset.len());
    train_stream_inner(
        model,
        ctx,
        epoch_source(dataset, geometry, passes),
        cfg,
        ResumePoint {
            skip_batches,
            layer,
            geometry: Some(geometry),
        },
        hooks,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoencoder::AeConfig;
    use crate::exec::OptLevel;
    use crate::rbm::RbmConfig;
    use micdnn_sim::{Platform, VecSource};
    use micdnn_tensor::Mat;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        // Low-rank structure: a few prototypes + noise, squashed to [0.1, 0.9].
        let protos: Vec<Vec<f32>> = (0..4)
            .map(|_| (0..dim).map(|_| rng.gen_range(0.1..0.9)).collect())
            .collect();
        Dataset::new(Mat::from_fn(n, dim, |r, c| {
            (protos[r % 4][c] + rng.gen_range(-0.05..0.05)).clamp(0.05, 0.95)
        }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The lazy epoch source against its reference — `into_chunks` x
        /// passes through a `VecSource` into `train_stream` — on geometries
        /// that include chunks not a multiple of the batch and a short last
        /// chunk: the same chunks in the same order, and a training run
        /// that ends in the same bits.
        #[test]
        fn lazy_epoch_source_equals_materialised_chunks(
            rows in 1usize..200,
            chunk in 1usize..64,
            batch in 1usize..32,
            passes in 1usize..4,
        ) {
            let mut ds = toy_dataset(rows, 6, rows as u64);
            ds.binarize(0.5);
            let tc = TrainConfig {
                batch_size: batch,
                chunk_rows: chunk,
                ..TrainConfig::default()
            };
            let chunks = ds.clone().into_chunks(chunk);
            let reference: Vec<Mat> = (0..passes).flat_map(|_| chunks.iter().cloned()).collect();

            let mut lazy = epoch_source(&ds, tc.geometry(rows), passes);
            for want in &reference {
                let got = lazy.next_chunk().unwrap().expect("stream ended early").data;
                prop_assert_eq!(got.shape(), want.shape());
                prop_assert_eq!(got.as_slice(), want.as_slice());
            }
            prop_assert!(lazy.next_chunk().unwrap().is_none());
            prop_assert!(lazy.next_chunk().unwrap().is_none(), "an ended source stays ended");

            // CD-1 samples, so the RNG cursor moves with every batch.
            let run = |materialised: bool| {
                let mut model = RbmModel::new(Rbm::new(RbmConfig::new(6, 4), 1));
                let ctx = ExecCtx::native(OptLevel::Improved, 2);
                let report = if materialised {
                    train_stream(&mut model, &ctx, VecSource::new(reference.clone()), &tc)
                } else {
                    train_dataset(&mut model, &ctx, &ds, &tc, passes)
                }
                .unwrap();
                (model.into_inner(), ctx.rng_state(), report)
            };
            let (lazy_rbm, lazy_rng, lazy_report) = run(false);
            let (ref_rbm, ref_rng, ref_report) = run(true);
            prop_assert_eq!(lazy_rbm.w.as_slice(), ref_rbm.w.as_slice());
            prop_assert_eq!(lazy_rbm.b_vis, ref_rbm.b_vis);
            prop_assert_eq!(lazy_rbm.c_hid, ref_rbm.c_hid);
            prop_assert_eq!(lazy_rng, ref_rng);
            prop_assert_eq!(lazy_report.batches, ref_report.batches);
            prop_assert_eq!(lazy_report.examples, ref_report.examples);
            prop_assert_eq!(lazy_report.recon_history, ref_report.recon_history);
            prop_assert_eq!(lazy_report.stream, ref_report.stream);
        }
    }

    #[test]
    fn epoch_source_lends_rows_of_the_shared_dataset() {
        // 23 rows in chunks of 5 (the last one 3 rows), three passes: every
        // chunk's elements are the dataset's own, at the chunk's rows, not a
        // copy of them.
        let ds = toy_dataset(23, 4, 5);
        let geometry = ChunkGeometry::new(ds.len(), 5, 2);
        let mut source = epoch_source(&ds, geometry, 3);
        for _pass in 0..3 {
            for c in 0..geometry.chunks() {
                let (lo, hi) = geometry.chunk_bounds(c);
                let chunk = source.next_chunk().unwrap().expect("a chunk per pass");
                assert_eq!(chunk.data.shape(), (hi - lo, 4));
                assert!(
                    std::ptr::eq(
                        chunk.data.as_slice(),
                        &ds.matrix().as_slice()[lo * 4..hi * 4]
                    ),
                    "chunk {c} does not point into the dataset's storage"
                );
            }
        }
        assert!(source.next_chunk().unwrap().is_none());
    }

    #[test]
    fn ae_training_over_stream_converges() {
        let cfg = AeConfig::new(20, 10);
        let mut model = AeModel::new(SparseAutoencoder::new(cfg, 1));
        let ctx = ExecCtx::native(OptLevel::Improved, 2);
        let ds = toy_dataset(400, 20, 3);
        let tc = TrainConfig {
            batch_size: 50,
            chunk_rows: 100,
            ..TrainConfig::default()
        };
        let report = train_dataset(&mut model, &ctx, &ds, &tc, 30).unwrap();
        assert_eq!(report.examples, 400 * 30);
        assert_eq!(report.batches, 8 * 30);
        assert!(
            report.final_recon() < 0.5 * report.initial_recon(),
            "no convergence: {} -> {}",
            report.initial_recon(),
            report.final_recon()
        );
    }

    #[test]
    fn momentum_optimizer_trains_through_the_pipeline() {
        use crate::optim::{Optimizer, Rule, Schedule};
        let cfg = AeConfig::new(20, 10);
        let slots = SparseAutoencoder::optimizer_slots(&cfg);
        let opt = Optimizer::new(
            Rule::Momentum { mu: 0.8 },
            Schedule::Exponential {
                base: 0.2,
                gamma: 0.999,
            },
            &slots,
        );
        let mut model = AeModel::new(SparseAutoencoder::new(cfg, 1)).with_optimizer(opt);
        let ctx = ExecCtx::native(OptLevel::Improved, 2);
        let ds = toy_dataset(400, 20, 3);
        let tc = TrainConfig {
            batch_size: 50,
            chunk_rows: 100,
            ..TrainConfig::default()
        };
        let report = train_dataset(&mut model, &ctx, &ds, &tc, 20).unwrap();
        assert!(
            report.final_recon() < 0.5 * report.initial_recon(),
            "momentum run did not converge: {} -> {}",
            report.initial_recon(),
            report.final_recon()
        );
    }

    #[test]
    fn rbm_training_over_stream_converges() {
        let cfg = RbmConfig::new(16, 12);
        let mut model = RbmModel::new(Rbm::new(cfg, 1));
        let ctx = ExecCtx::native(OptLevel::Improved, 2);
        let mut ds = toy_dataset(200, 16, 5);
        ds.binarize(0.5);
        let tc = TrainConfig {
            batch_size: 50,
            chunk_rows: 100,
            learning_rate: 0.1,
            ..TrainConfig::default()
        };
        let report = train_dataset(&mut model, &ctx, &ds, &tc, 60).unwrap();
        assert!(
            report.final_recon() < 0.6 * report.initial_recon(),
            "no convergence: {} -> {}",
            report.initial_recon(),
            report.final_recon()
        );
    }

    #[test]
    fn rbm_momentum_trains_and_differs_from_plain_cd() {
        let cfg = RbmConfig::new(16, 12);
        let mut ds = toy_dataset(200, 16, 5);
        ds.binarize(0.5);
        let tc = TrainConfig {
            batch_size: 50,
            chunk_rows: 100,
            learning_rate: 0.05,
            ..TrainConfig::default()
        };
        let run = |mu: Option<f32>| {
            let mut model = RbmModel::new(Rbm::new(cfg, 1));
            if let Some(mu) = mu {
                model = model.with_momentum(mu);
            }
            let ctx = ExecCtx::native(OptLevel::Improved, 2);
            let r = train_dataset(&mut model, &ctx, &ds, &tc, 40).unwrap();
            (r.final_recon(), model.into_inner())
        };
        let (plain_err, plain) = run(None);
        let (mom_err, mom) = run(Some(0.7));
        assert!(mom_err.is_finite() && mom_err < 1e3);
        assert_ne!(
            plain.w.as_slice(),
            mom.w.as_slice(),
            "momentum changed nothing"
        );
        // Both must actually learn.
        assert!(
            plain_err < 5.0 && mom_err < 5.0,
            "plain {plain_err} mom {mom_err}"
        );
    }

    #[test]
    fn graph_scheduled_rbm_matches_serial() {
        let cfg = RbmConfig::new(12, 8);
        let mut ds = toy_dataset(100, 12, 7);
        ds.binarize(0.5);
        let tc = TrainConfig {
            batch_size: 25,
            chunk_rows: 50,
            ..TrainConfig::default()
        };
        let run = |graph: bool| {
            let mut model = if graph {
                RbmModel::new(Rbm::new(cfg, 3)).with_graph_schedule()
            } else {
                RbmModel::new(Rbm::new(cfg, 3))
            };
            let ctx = ExecCtx::native(OptLevel::Improved, 4);
            train_dataset(&mut model, &ctx, &ds, &tc, 3).unwrap();
            model.into_inner()
        };
        let serial = run(false);
        let graphed = run(true);
        assert_eq!(serial.w.as_slice(), graphed.w.as_slice());
    }

    #[test]
    fn graph_scheduled_rbm_with_momentum_matches_serial_at_cdk() {
        let cfg = RbmConfig::new(12, 8).with_cd_steps(2);
        let mut ds = toy_dataset(100, 12, 9);
        ds.binarize(0.5);
        let tc = TrainConfig {
            batch_size: 25,
            chunk_rows: 50,
            ..TrainConfig::default()
        };
        let run = |graph: bool| {
            let mut model = RbmModel::new(Rbm::new(cfg, 4)).with_momentum(0.6);
            if graph {
                model = model.with_graph_schedule();
            }
            let ctx = ExecCtx::native(OptLevel::Improved, 4);
            train_dataset(&mut model, &ctx, &ds, &tc, 3).unwrap();
            model.into_inner()
        };
        let serial = run(false);
        let graphed = run(true);
        assert_eq!(serial.w.as_slice(), graphed.w.as_slice());
        assert_eq!(serial.b_vis, graphed.b_vis);
        assert_eq!(serial.c_hid, graphed.c_hid);
    }

    #[test]
    fn graph_scheduled_ae_matches_serial_bitwise() {
        use crate::optim::{Optimizer, Rule, Schedule};
        let cfg = AeConfig::new(18, 9);
        let ds = toy_dataset(120, 18, 11);
        let tc = TrainConfig {
            batch_size: 30,
            chunk_rows: 60,
            ..TrainConfig::default()
        };
        for with_opt in [false, true] {
            let run = |graph: bool| {
                let mut model = AeModel::new(SparseAutoencoder::new(cfg, 5));
                if with_opt {
                    let slots = SparseAutoencoder::optimizer_slots(&cfg);
                    model = model.with_optimizer(Optimizer::new(
                        Rule::Momentum { mu: 0.9 },
                        Schedule::Constant(0.05),
                        &slots,
                    ));
                }
                if graph {
                    model = model.with_graph_schedule();
                }
                let ctx = ExecCtx::native(OptLevel::Improved, 4);
                train_dataset(&mut model, &ctx, &ds, &tc, 3).unwrap();
                model.into_inner()
            };
            let serial = run(false);
            let graphed = run(true);
            assert_eq!(serial.w1.as_slice(), graphed.w1.as_slice());
            assert_eq!(serial.w2.as_slice(), graphed.w2.as_slice());
            assert_eq!(serial.b1, graphed.b1);
            assert_eq!(serial.b2, graphed.b2);
        }
    }

    #[test]
    fn simulated_run_accumulates_time_and_stream_stats() {
        let cfg = AeConfig::new(32, 16);
        let mut model = AeModel::new(SparseAutoencoder::new(cfg, 1));
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 2);
        let ds = toy_dataset(200, 32, 3);
        let tc = TrainConfig {
            batch_size: 50,
            chunk_rows: 100,
            ..TrainConfig::default()
        };
        let report = train_dataset(&mut model, &ctx, &ds, &tc, 1).unwrap();
        assert!(report.sim_total_secs > 0.0);
        assert_eq!(report.stream.chunks, 2);
        assert!(report.stream.transfer_secs > 0.0);
    }

    #[test]
    fn device_memory_exhaustion_detected() {
        // Shrink the modeled card to 1 MiB so a modest model exceeds it
        // (allocating a genuinely >8 GB model in a unit test would be
        // hostile to CI; the accounting path is identical).
        let mut platform = Platform::xeon_phi();
        platform.spec.mem_capacity_bytes = 1 << 20;
        let cfg = AeConfig::new(512, 512); // ~2 MB of weights
        let mut model = AeModel::new(SparseAutoencoder::new(cfg, 1));
        let ctx = ExecCtx::simulated(OptLevel::Improved, platform, 2);
        let ds = toy_dataset(10, 512, 3);
        let tc = TrainConfig {
            batch_size: 5,
            chunk_rows: 10,
            ..TrainConfig::default()
        };
        match train_dataset(&mut model, &ctx, &ds, &tc, 1) {
            Err(TrainError::DeviceMemory(e)) => {
                assert!(e.requested > 1 << 20);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn dimension_mismatch_detected() {
        let cfg = AeConfig::new(10, 5);
        let mut model = AeModel::new(SparseAutoencoder::new(cfg, 1));
        let ctx = ExecCtx::native(OptLevel::Improved, 2);
        let chunks = vec![Mat::zeros(20, 12)]; // wrong width
        let err = train_stream(
            &mut model,
            &ctx,
            micdnn_sim::VecSource::new(chunks),
            &TrainConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            TrainError::DimensionMismatch {
                expected: 10,
                got: 12
            }
        ));
    }

    #[test]
    fn empty_stream_detected() {
        let cfg = AeConfig::new(10, 5);
        let mut model = AeModel::new(SparseAutoencoder::new(cfg, 1));
        let ctx = ExecCtx::native(OptLevel::Improved, 2);
        let err = train_stream(
            &mut model,
            &ctx,
            micdnn_sim::VecSource::new(Vec::new()),
            &TrainConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TrainError::EmptyStream));
    }

    #[test]
    fn history_sampling() {
        let cfg = AeConfig::new(10, 5);
        let mut model = AeModel::new(SparseAutoencoder::new(cfg, 1));
        let ctx = ExecCtx::native(OptLevel::Improved, 2);
        let ds = toy_dataset(100, 10, 3);
        let tc = TrainConfig {
            batch_size: 10,
            chunk_rows: 100,
            history_every: 3,
            ..TrainConfig::default()
        };
        let report = train_dataset(&mut model, &ctx, &ds, &tc, 1).unwrap();
        assert_eq!(report.batches, 10);
        assert_eq!(report.recon_history.len(), 4); // batches 0, 3, 6, 9
    }
}
