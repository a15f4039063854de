//! The four workloads.
//!
//! Each is a closed loop in one process: a repeat starts when the previous
//! one has finished. A repeat rebuilds its model from the seed outside the
//! timed region, so every repeat of one seed does bit-identical work and
//! its losses must come out bit-equal. The untraced repeat goes through the
//! library's own loop (`train_dataset`, `fit`, ...); the traced repeat
//! drives the same steps by hand so that each call into a layer sits in a
//! span of its own.
//!
//! Why these four (a gain on one layer must show on the workload that uses
//! it and leave the one that bypasses it alone):
//!
//! * `ae_wide`: three large GEMMs per layer take > 90 % of the step, so the
//!   GEMM kernel decides it and dispatch, loader and sampling do not.
//! * `rbm_small_wave`: 5000 tiny wave-scheduled steps per repeat; fork-join
//!   cost, graph scheduling, fused elementwise and sampling decide it and
//!   GEMM is a minority. A big-GEMM optimisation must leave it unchanged.
//! * `digits_pipeline`: the whole user journey (generate, normalise,
//!   pretrain, fine-tune, save, reload, serve), which puts `data`,
//!   `stacked`, `finetune`, `model_io` and `serve` on the blocking path.
//! * `cnn_ckpt`: tall-skinny im2col GEMMs beside checkpoint writes (tmp,
//!   fsync, rename) and supervisor snapshots, so a training gain bought
//!   with slower persistence shows, and the reverse.

use crate::api::*;
use crate::scratch::ScratchDir;
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const NAMES: [&str; 4] = ["ae_wide", "rbm_small_wave", "digits_pipeline", "cnn_ckpt"];

/// Everything a workload derives its inputs from.
#[derive(Debug, Clone)]
pub struct Env {
    /// The only source of randomness: digit generator, model init, sampler
    /// and arrival schedule are all seeded from it.
    pub seed: u64,
    /// Smoke sizes (`--quick`): same code paths, numbers not comparable.
    pub quick: bool,
    /// Where scratch directories may be created.
    pub out: PathBuf,
}

impl Env {
    pub fn pick(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Rows of the short final batch of a simulated slice, 1 to 4, drawn
    /// from the seed. The simulated clock prices shapes, not data, so
    /// without it `sim_phi_s` would read the same for every seed, and a
    /// time that never varies is refused by the acceptance procedure. The
    /// tail is a few thousandths of the slice; at one seed the value still
    /// repeats exactly, which every timed run verifies in-process.
    fn sim_tail_rows(&self) -> usize {
        // splitmix64 finaliser: consecutive seeds give unrelated tails.
        let mut z = self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        1 + ((z ^ (z >> 31)) % 4) as usize
    }
}

/// Seconds of profiler-attributed op time in one traced repeat, by kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpSplit {
    pub gemm: f64,
    pub elementwise: f64,
    pub sample: f64,
    pub reduce: f64,
}

impl OpSplit {
    pub fn total(&self) -> f64 {
        self.gemm + self.elementwise + self.sample + self.reduce
    }

    /// Op seconds summed over the traced repeats among `repeats`.
    pub fn sum_of(repeats: &[Repeat]) -> OpSplit {
        let mut sum = OpSplit::default();
        for ops in repeats.iter().filter_map(|r| r.ops) {
            sum.gemm += ops.gemm;
            sum.elementwise += ops.elementwise;
            sum.sample += ops.sample;
            sum.reduce += ops.reduce;
        }
        sum
    }

    fn from_report(report: &ProfileReport) -> OpSplit {
        let mut s = OpSplit::default();
        for op in &report.ops {
            match op.kind.as_str() {
                "gemm" | "gemv" => s.gemm += op.total_secs,
                "sample" => s.sample += op.total_secs,
                "reduce" => s.reduce += op.total_secs,
                _ => s.elementwise += op.total_secs,
            }
        }
        s
    }
}

/// What one repeat did.
#[derive(Debug, Clone)]
pub struct Repeat {
    /// Rows pushed through a training step or a serving forward pass.
    pub rows: u64,
    /// Wall seconds of the timed region.
    pub secs: f64,
    pub first_loss: f64,
    pub last_loss: f64,
    /// Present on traced repeats only.
    pub ops: Option<OpSplit>,
}

impl Repeat {
    pub fn examples_per_s(&self) -> f64 {
        self.rows as f64 / self.secs
    }
}

/// Result of the simulated Xeon Phi slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSlice {
    pub secs: f64,
    /// Loader statistics of the slice (training slices only).
    pub stream: Option<StreamStats>,
}

/// Pass/fail tally of the untimed correctness checks.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

pub trait Workload {
    /// One repeat: through the library's loop when `tracer` is `None`,
    /// hand-driven under spans (profiler attached) when it is `Some`.
    fn repeat(&mut self, rep: usize, tracer: Option<&mut Tracer>) -> Repeat;
    /// A fixed short slice of the same work on the simulated Xeon Phi.
    fn sim_slice(&self) -> SimSlice;
    /// Untimed correctness checks over the repeats made so far.
    fn check(&mut self, repeats: &[Repeat], checks: &mut Checks);
}

/// Set-up of workload `name`: data generation (where it is not part of the
/// repeat), shapes, and two warm-up steps. Panics on an unknown name; the
/// caller validates names where they enter.
pub fn build(name: &str, env: &Env) -> Box<dyn Workload> {
    match name {
        "ae_wide" => Box::new(AeWide::new(env)),
        "rbm_small_wave" => Box::new(RbmSmallWave::new(env)),
        "digits_pipeline" => Box::new(DigitsPipeline::new(env)),
        "cnn_ckpt" => Box::new(CnnCkpt::new(env)),
        other => panic!("unknown workload `{other}`"),
    }
}

pub fn digits(side: usize, rows: usize, seed: u64) -> Dataset {
    let mut data = Dataset::new(DigitGenerator::new(side, seed).matrix(rows));
    data.normalize();
    data
}

fn head(data: &Dataset, rows: usize) -> Dataset {
    Dataset::new(data.matrix().rows_range(0, rows).to_mat())
}

fn native(seed: u64, profiler: Option<&Profiler>) -> ExecCtx {
    let ctx = ExecCtx::native(OptLevel::Improved, seed);
    match profiler {
        Some(p) => ctx.with_profiler(p.clone()),
        None => ctx,
    }
}

fn simulated_phi(seed: u64) -> ExecCtx {
    ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), seed)
}

/// One pass of `model` over the first `rows` rows of `data` on the simulated
/// Xeon Phi.
fn sim_train(
    mut model: impl UnsupervisedModel,
    data: &Dataset,
    rows: usize,
    tc: &TrainConfig,
    seed: u64,
) -> SimSlice {
    let ctx = simulated_phi(seed);
    let report = train_dataset(&mut model, &ctx, &head(data, rows), tc, 1).expect("slice trains");
    SimSlice {
        secs: report.sim_total_secs,
        stream: Some(report.stream),
    }
}

fn warm_up(model: &mut impl UnsupervisedModel, data: &Dataset, tc: &TrainConfig, seed: u64) {
    let ctx = native(seed, None);
    model.prepare(tc.batch_size);
    let rows = tc.batch_size.min(data.len());
    for _ in 0..2 {
        model.train_batch(&ctx, data.batch(0, rows), tc.learning_rate);
    }
}

/// Outcome of a hand-driven training run.
pub struct HandRun {
    pub first_loss: f64,
    pub last_loss: f64,
    pub batches: u64,
    pub examples: u64,
}

/// The body of the library's `train_stream`, driven from outside: the
/// loading thread is spawned here, each `next()` sits in a `loader.next`
/// span and each step in a `step` span. With a checkpoint policy every
/// save sits in a `ckpt.save` span (supervisor snapshots have no public
/// entry point and are left to the untraced run).
pub fn drive_by_hand<M: UnsupervisedModel>(
    model: &mut M,
    ctx: &ExecCtx,
    data: &Dataset,
    tc: &TrainConfig,
    passes: usize,
    tr: &mut Tracer,
) -> HandRun {
    model.prepare(tc.batch_size);
    let chunks = data.clone().into_chunks(tc.chunk_rows);
    let per_pass: u64 = chunks
        .iter()
        .map(|c| c.rows().div_ceil(tc.batch_size) as u64)
        .sum();
    let all: Vec<Mat> = (0..passes).flat_map(|_| chunks.iter().cloned()).collect();
    let mut stream = ChunkStream::spawn(
        VecSource::new(all),
        tc.link,
        ctx.clock().clone(),
        ctx.trace().clone(),
        tc.buffers,
        tc.double_buffered,
    )
    .expect("loader thread spawns");
    let mut run = HandRun {
        first_loss: f64::NAN,
        last_loss: f64::NAN,
        batches: 0,
        examples: 0,
    };
    let save = |model: &M, run: &HandRun, tr: &mut Tracer| {
        let Some(policy) = &tc.checkpoint else { return };
        let (seed, cursor) = ctx.rng_state();
        let progress = TrainProgress {
            layer: 0,
            epoch: run.batches / per_pass,
            batches: run.batches,
            examples: run.examples,
        };
        tr.span("ckpt.save", || {
            save_checkpoint_file(policy.file(), model, seed, cursor, &progress)
                .expect("checkpoint writes")
        });
    };
    loop {
        let next = tr.span("loader.next", || stream.next().expect("loader delivers"));
        let Some(chunk) = next else { break };
        let mut lo = 0;
        while lo < chunk.rows() {
            let hi = (lo + tc.batch_size).min(chunk.rows());
            let loss = tr.span("step", || {
                model.train_batch(ctx, chunk.rows_range(lo, hi), tc.learning_rate)
            });
            if run.batches == 0 {
                run.first_loss = loss;
            }
            run.last_loss = loss;
            run.batches += 1;
            run.examples += (hi - lo) as u64;
            lo = hi;
            let every = tc.checkpoint.as_ref().map_or(0, |p| p.every_batches);
            if every > 0 && run.batches.is_multiple_of(every) {
                save(model, &run, tr);
            }
        }
    }
    save(model, &run, tr);
    run
}

/// One repeat of a plain `train_dataset` workload, either way.
#[allow(clippy::too_many_arguments)]
fn train_repeat<M: UnsupervisedModel>(
    mut model: M,
    seed: u64,
    data: &Dataset,
    tc: &TrainConfig,
    passes: usize,
    rep: usize,
    tracer: Option<&mut Tracer>,
) -> (M, Repeat) {
    let rows = (data.len() * passes) as u64;
    let repeat = match tracer {
        None => {
            let ctx = native(seed, None);
            let t = Instant::now();
            let report = train_dataset(&mut model, &ctx, data, tc, passes).expect("training runs");
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(report.examples, rows, "every row is trained once per pass");
            Repeat {
                rows,
                secs,
                first_loss: report.initial_recon(),
                last_loss: report.final_recon(),
                ops: None,
            }
        }
        Some(tr) => {
            let profiler = Profiler::new();
            let ctx = native(seed, Some(&profiler));
            let root = tr.begin_repeat(rep);
            let run = drive_by_hand(&mut model, &ctx, data, tc, passes, tr);
            let secs = tr.end(root);
            assert_eq!(run.examples, rows, "every row is trained once per pass");
            let ops = OpSplit::from_report(&ctx.profile_report().expect("profiler attached"));
            Repeat {
                rows,
                secs,
                first_loss: run.first_loss,
                last_loss: run.last_loss,
                ops: Some(ops),
            }
        }
    };
    (model, repeat)
}

/// Checks shared by every workload: the loss fell in each repeat, and all
/// repeats of one seed ended on the same bits.
fn check_losses(name: &str, repeats: &[Repeat], checks: &mut Checks) {
    for (i, r) in repeats.iter().enumerate() {
        checks.expect(
            r.last_loss.is_finite() && r.last_loss < r.first_loss,
            || {
                format!(
                    "{name}: loss did not fall in repeat {i} ({} -> {})",
                    r.first_loss, r.last_loss
                )
            },
        );
    }
    let bits = |r: &Repeat| (r.first_loss.to_bits(), r.last_loss.to_bits());
    checks.expect(
        repeats.windows(2).all(|w| bits(&w[0]) == bits(&w[1])),
        || format!("{name}: losses differ between repeats of one seed"),
    );
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

// --- ae_wide -------------------------------------------------------------

pub struct AeWide {
    env: Env,
    cfg: AeConfig,
    tc: TrainConfig,
    data: Dataset,
    sim_rows: usize,
}

impl AeWide {
    /// Hidden width: the paper's Fig. 8/9 network, narrower for `--quick`.
    pub fn hidden(env: &Env) -> usize {
        env.pick(4096, 512)
    }

    fn new(env: &Env) -> AeWide {
        let cfg = AeConfig::new(1024, AeWide::hidden(env));
        let tc = TrainConfig {
            batch_size: 200,
            chunk_rows: 1000,
            ..TrainConfig::default()
        };
        let data = digits(32, env.pick(2000, 400), env.seed);
        warm_up(&mut AeWide::model(cfg, env.seed), &data, &tc, env.seed);
        AeWide {
            env: env.clone(),
            cfg,
            tc,
            data,
            sim_rows: env.pick(1000, 200),
        }
    }

    fn model(cfg: AeConfig, seed: u64) -> AeModel {
        AeModel::new(SparseAutoencoder::new(cfg, seed))
    }
}

impl Workload for AeWide {
    fn repeat(&mut self, rep: usize, tracer: Option<&mut Tracer>) -> Repeat {
        let model = AeWide::model(self.cfg, self.env.seed);
        train_repeat(model, self.env.seed, &self.data, &self.tc, 1, rep, tracer).1
    }

    fn sim_slice(&self) -> SimSlice {
        // Half-size chunks, so that the slice has a second transfer for the
        // loading thread to hide behind compute.
        let tc = TrainConfig {
            chunk_rows: self.tc.chunk_rows / 2,
            ..self.tc.clone()
        };
        let rows = self.sim_rows + self.env.sim_tail_rows();
        let model = AeWide::model(self.cfg, self.env.seed);
        sim_train(model, &self.data, rows, &tc, self.env.seed)
    }

    fn check(&mut self, repeats: &[Repeat], checks: &mut Checks) {
        check_losses("ae_wide", repeats, checks);
        // One 16-row step on the scalar sequential rung against the fused,
        // threaded, blocked one: the rungs may differ in speed only.
        let x = self.data.batch(0, 16);
        let step = |level: OptLevel| {
            let mut ae = SparseAutoencoder::new(self.cfg, self.env.seed);
            let mut scratch = AeScratch::new(&self.cfg, 16);
            let ctx = ExecCtx::native(level, self.env.seed);
            ae.train_batch(&ctx, x, &mut scratch, self.tc.learning_rate);
            ae
        };
        let (base, fast) = (step(OptLevel::Baseline), step(OptLevel::Improved));
        let diff = max_abs_diff(base.w1.as_slice(), fast.w1.as_slice())
            .max(max_abs_diff(base.w2.as_slice(), fast.w2.as_slice()))
            .max(max_abs_diff(&base.b1, &fast.b1))
            .max(max_abs_diff(&base.b2, &fast.b2));
        println!("ae_wide: Baseline and Improved differ by at most {diff:e} after one step");
        checks.expect(diff <= 1e-4, || {
            format!("ae_wide: Baseline and Improved differ by {diff} after one step")
        });
    }
}

// --- rbm_small_wave ------------------------------------------------------

pub struct RbmSmallWave {
    env: Env,
    cfg: RbmConfig,
    tc: TrainConfig,
    data: Dataset,
    passes: usize,
    sim_rows: usize,
}

impl RbmSmallWave {
    pub const VISIBLE: usize = 144;
    pub const HIDDEN: usize = 64;
    pub const BATCH: usize = 20;

    pub fn new(env: &Env) -> RbmSmallWave {
        let cfg = RbmConfig::new(Self::VISIBLE, Self::HIDDEN);
        let tc = TrainConfig {
            batch_size: Self::BATCH,
            chunk_rows: 100,
            ..TrainConfig::default()
        };
        // 10 000 binarised 12x12 digits, ten passes: 100 000 examples and
        // 5000 CD-1 steps per repeat.
        let mut data = digits(12, env.pick(10_000, 1000), env.seed);
        data.binarize(0.5);
        warm_up(&mut Self::fresh(cfg, env.seed), &data, &tc, env.seed);
        RbmSmallWave {
            env: env.clone(),
            cfg,
            tc,
            data,
            passes: env.pick(10, 2),
            sim_rows: env.pick(2000, 200),
        }
    }

    pub fn model(&self) -> RbmModel {
        Self::fresh(self.cfg, self.env.seed)
    }

    fn fresh(cfg: RbmConfig, seed: u64) -> RbmModel {
        RbmModel::new(Rbm::new(cfg, seed)).with_graph_schedule()
    }

    pub fn data(&self) -> &Dataset {
        &self.data
    }

    pub fn train_config(&self) -> &TrainConfig {
        &self.tc
    }
}

impl Workload for RbmSmallWave {
    fn repeat(&mut self, rep: usize, tracer: Option<&mut Tracer>) -> Repeat {
        let model = self.model();
        let (seed, passes) = (self.env.seed, self.passes);
        train_repeat(model, seed, &self.data, &self.tc, passes, rep, tracer).1
    }

    fn sim_slice(&self) -> SimSlice {
        let rows = self.sim_rows + self.env.sim_tail_rows();
        sim_train(self.model(), &self.data, rows, &self.tc, self.env.seed)
    }

    fn check(&mut self, repeats: &[Repeat], checks: &mut Checks) {
        check_losses("rbm_small_wave", repeats, checks);
        // Wave scheduling is never a numerics decision: 50 steps under the
        // dependency graph must leave the bits 50 serial steps leave.
        let train = |wave: bool| {
            let ctx = native(self.env.seed, None);
            let mut rbm = Rbm::new(self.cfg, self.env.seed);
            let mut scratch = RbmScratch::new(&self.cfg, Self::BATCH);
            for i in 0..50 {
                let lo = (i * Self::BATCH) % (self.data.len() - Self::BATCH);
                let x = self.data.batch(lo, lo + Self::BATCH);
                if wave {
                    cd_step_graph(&mut rbm, &ctx, x, &mut scratch, self.tc.learning_rate);
                } else {
                    rbm.cd_step(&ctx, x, &mut scratch, self.tc.learning_rate);
                }
            }
            rbm
        };
        let (serial, wave) = (train(false), train(true));
        let same = serial.w.as_slice() == wave.w.as_slice()
            && serial.b_vis == wave.b_vis
            && serial.c_hid == wave.c_hid;
        checks.expect(same, || {
            "rbm_small_wave: wave-scheduled weights differ from serial after 50 steps".to_string()
        });
    }
}

// --- digits_pipeline -----------------------------------------------------

/// Wall seconds of each stage of one pipeline repeat.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSecs {
    pub data: f64,
    pub pretrain: f64,
    pub finetune: f64,
    pub persist: f64,
    pub serve: f64,
}

impl StageSecs {
    fn total(&self) -> f64 {
        self.data + self.pretrain + self.finetune + self.persist + self.serve
    }
}

/// What the last pipeline repeat left behind for the untimed checks.
struct PipelineArtifacts {
    dir: ScratchDir,
    stack: StackedAutoencoder,
    served: FineTuneNet,
    data: Dataset,
    labels: Vec<usize>,
    report: ServeReport,
    worst_row_sum_error: f32,
    unanswered: usize,
}

pub struct DigitsPipeline {
    env: Env,
    sizes: [usize; 3],
    rows: usize,
    passes: usize,
    epochs: usize,
    requests: usize,
    tc: TrainConfig,
    last: Option<PipelineArtifacts>,
    /// Stage seconds of every repeat so far, in order.
    pub stages: Vec<StageSecs>,
}

const CLASSES: usize = 10;
const FINETUNE_LR: f32 = 0.5;
const LAYER_FILES: [&str; 2] = ["layer0.bin", "layer1.bin"];
const NET_FILE: &str = "finetune.mic";

impl DigitsPipeline {
    pub const SERVE_BATCH: usize = 64;

    fn new(env: &Env) -> DigitsPipeline {
        let tc = TrainConfig {
            learning_rate: 0.3,
            batch_size: 100,
            chunk_rows: 500,
            ..TrainConfig::default()
        };
        let sizes = [784, 256, 64];
        // Data generation is part of the repeat here, so set-up is only the
        // two warm-up steps, on the first layer's shape.
        let sample = digits(28, tc.batch_size, env.seed);
        let ae = SparseAutoencoder::new(AeConfig::new(sizes[0], sizes[1]), env.seed);
        warm_up(&mut AeModel::new(ae), &sample, &tc, env.seed);
        DigitsPipeline {
            env: env.clone(),
            sizes,
            rows: env.pick(3000, 1000),
            passes: env.pick(3, 2),
            epochs: env.pick(5, 12),
            requests: env.pick(20_000, 640),
            tc,
            last: None,
            stages: Vec::new(),
        }
    }

    fn labels(rows: usize) -> Vec<usize> {
        (0..rows).map(|i| i % CLASSES).collect()
    }

    /// Saturated bursty traffic: the offered rate is far above what the
    /// host serves, so the queue always holds a full micro-batch and the
    /// bound is large enough that nothing is rejected.
    pub fn saturated_burst(data: &Dataset, n: usize, seed: u64) -> (Vec<Request>, ServeConfig) {
        let schedule = ArrivalSchedule::bursty(n, 1e6, Self::SERVE_BATCH, seed);
        let requests = schedule
            .times()
            .iter()
            .enumerate()
            .map(|(i, &t)| Request {
                arrival_secs: t,
                input: data.matrix().row(i % data.len()).to_vec(),
            })
            .collect();
        let cfg = ServeConfig {
            max_batch: Self::SERVE_BATCH,
            max_wait_secs: 2e-3,
            queue_cap: n,
        };
        (requests, cfg)
    }

    fn persist(dir: &Path, stack: &StackedAutoencoder, net: FineTuneNet, rows: usize, seed: u64) {
        for (layer, file) in stack.layers().iter().zip(LAYER_FILES) {
            save_autoencoder_file(layer, dir.join(file)).expect("layer saves");
        }
        let model = FineTuneModel::new(net, rows as u64);
        save_checkpoint_file(
            dir.join(NET_FILE),
            &model,
            seed,
            0,
            &TrainProgress::default(),
        )
        .expect("classifier saves");
    }

    fn reload_net(dir: &Path) -> FineTuneNet {
        load_checkpoint_file(dir.join(NET_FILE))
            .expect("classifier loads")
            .into_finetune()
            .expect("the file holds a fine-tune net")
            .net
    }

    /// Fine-tuning as `FineTuneNet::fit` does it, with each step in a span.
    fn fit_by_hand(
        &self,
        net: &mut FineTuneNet,
        ctx: &ExecCtx,
        data: &Dataset,
        labels: &[usize],
        tr: &mut Tracer,
    ) -> Vec<f64> {
        let batch = self.tc.batch_size;
        (0..self.epochs)
            .map(|_| {
                let (mut total, mut batches) = (0.0, 0usize);
                for (lo, hi) in data.batch_bounds(batch) {
                    total += tr.span("step", || {
                        net.train_batch(ctx, data.batch(lo, hi), &labels[lo..hi], FINETUNE_LR)
                    });
                    batches += 1;
                }
                total / batches.max(1) as f64
            })
            .collect()
    }
}

/// Times `f` as stage `name`: a span when traced, a stopwatch either way.
fn stage<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce(&mut Option<&mut Tracer>) -> R,
) -> (R, f64) {
    let open = tracer.as_mut().map(|t| t.begin(name));
    let t = Instant::now();
    let out = f(tracer);
    let secs = t.elapsed().as_secs_f64();
    if let (Some(tr), Some(open)) = (tracer.as_mut(), open) {
        tr.end(open);
    }
    (out, secs)
}

impl Workload for DigitsPipeline {
    fn repeat(&mut self, rep: usize, mut tracer: Option<&mut Tracer>) -> Repeat {
        let seed = self.env.seed;
        let profiler = tracer.is_some().then(Profiler::new);
        let ctx = native(seed, profiler.as_ref());
        let dir = ScratchDir::new(&self.env.out, "digits_pipeline", rep).expect("scratch dir");
        let root = tracer.as_mut().map(|t| t.begin_repeat(rep));
        let mut secs = StageSecs::default();

        let (data, s) = stage(&mut tracer, "pipeline.data", |_| {
            digits(28, self.rows, seed)
        });
        secs.data = s;
        let labels = Self::labels(self.rows);

        let (stack, s) = stage(&mut tracer, "pipeline.pretrain", |_| {
            let mut stack = StackedAutoencoder::with_default_config(&self.sizes, seed);
            stack
                .pretrain(&ctx, &data, &self.tc, self.passes)
                .expect("pre-training runs");
            stack
        });
        secs.pretrain = s;

        let ((net, history), s) = stage(&mut tracer, "pipeline.finetune", |tracer| {
            let mut net = FineTuneNet::from_stack(&stack, CLASSES, seed);
            let history = match tracer.as_mut() {
                Some(tr) => self.fit_by_hand(&mut net, &ctx, &data, &labels, tr),
                None => {
                    let x = data.matrix().view();
                    net.fit(
                        &ctx,
                        x,
                        &labels,
                        self.tc.batch_size,
                        FINETUNE_LR,
                        self.epochs,
                    )
                }
            };
            (net, history)
        });
        secs.finetune = s;

        let (served, s) = stage(&mut tracer, "pipeline.persist", |_| {
            Self::persist(dir.path(), &stack, net, self.rows, seed);
            for file in LAYER_FILES {
                load_autoencoder_file(dir.path().join(file)).expect("layer loads");
            }
            Self::reload_net(dir.path())
        });
        secs.persist = s;

        let (requests, cfg) = Self::saturated_burst(&data, self.requests, seed);
        let (run, s) = stage(&mut tracer, "pipeline.serve", |_| {
            serve_requests(&served, &ctx, &cfg, &requests).expect("valid serve config")
        });
        secs.serve = s;
        if let (Some(tr), Some(root)) = (tracer.as_mut(), root) {
            tr.end(root);
        }

        let answered = run.outcomes.iter().filter_map(|o| o.result.as_ref().ok());
        let worst_row_sum_error = answered
            .clone()
            .map(|p| (p.iter().sum::<f32>() - 1.0).abs())
            .fold(0.0, f32::max);
        let unanswered = run.outcomes.len() - answered.count();
        let trained = self.rows * (self.passes * (self.sizes.len() - 1) + self.epochs);
        self.stages.push(secs);
        self.last = Some(PipelineArtifacts {
            dir,
            stack,
            served,
            data,
            labels,
            report: run.report,
            worst_row_sum_error,
            unanswered,
        });
        Repeat {
            rows: (trained + self.requests) as u64,
            secs: secs.total(),
            first_loss: history[0],
            last_loss: *history.last().expect("at least one epoch"),
            ops: profiler
                .map(|_| OpSplit::from_report(&ctx.profile_report().expect("profiler attached"))),
        }
    }

    fn sim_slice(&self) -> SimSlice {
        // 500 rows, one pass per layer, one fine-tune epoch, 256 requests.
        let seed = self.env.seed;
        let ctx = simulated_phi(seed);
        let rows = self.env.pick(500, 100) + self.env.sim_tail_rows();
        let data = digits(28, rows, seed);
        let labels = Self::labels(rows);
        let mut stack = StackedAutoencoder::with_default_config(&self.sizes, seed);
        stack
            .pretrain(&ctx, &data, &self.tc, 1)
            .expect("slice pre-trains");
        let mut net = FineTuneNet::from_stack(&stack, CLASSES, seed);
        let x = data.matrix().view();
        net.fit(&ctx, x, &labels, self.tc.batch_size, FINETUNE_LR, 1);
        let (requests, cfg) = Self::saturated_burst(&data, self.env.pick(256, 64), seed);
        serve_requests(&net, &ctx, &cfg, &requests).expect("valid serve config");
        SimSlice {
            secs: ctx.sim_time(),
            stream: None,
        }
    }

    fn check(&mut self, repeats: &[Repeat], checks: &mut Checks) {
        check_losses("digits_pipeline", repeats, checks);
        let Some(last) = &self.last else {
            checks.expect(false, || "digits_pipeline: no repeat ran".to_string());
            return;
        };
        let (n, r) = (self.requests as u64, &last.report);
        checks.expect(r.completed == n && r.rejected == 0 && r.failed == 0, || {
            format!(
                "digits_pipeline: of {n} requests {} completed, {} rejected, {} failed",
                r.completed, r.rejected, r.failed
            )
        });
        checks.expect(
            last.unanswered == 0 && last.worst_row_sum_error <= 1e-4,
            || {
                format!(
                    "digits_pipeline: {} unanswered, probability rows off 1 by up to {}",
                    last.unanswered, last.worst_row_sum_error
                )
            },
        );
        let ctx = native(self.env.seed, None);
        let accuracy = last
            .served
            .accuracy(&ctx, last.data.matrix().view(), &last.labels);
        println!("digits_pipeline: training accuracy {accuracy:.4}");
        checks.expect(accuracy >= 0.30, || {
            format!("digits_pipeline: training accuracy {accuracy} below 0.30")
        });
        // Saving what was loaded must give the bytes that were loaded.
        let again = last.dir.path().join("again");
        std::fs::create_dir_all(&again).expect("scratch subdirectory");
        let reloaded = Self::reload_net(last.dir.path());
        Self::persist(&again, &last.stack, reloaded, self.rows, self.env.seed);
        let identical = LAYER_FILES.iter().chain([&NET_FILE]).all(|file| {
            let read = |dir: &Path| std::fs::read(dir.join(file)).expect("model file reads");
            read(last.dir.path()) == read(&again)
        });
        checks.expect(identical, || {
            "digits_pipeline: a reloaded model does not save byte-identical".to_string()
        });
    }
}

// --- cnn_ckpt ------------------------------------------------------------

pub struct CnnCkpt {
    env: Env,
    cfg: CnnConfig,
    tc: TrainConfig,
    data: Dataset,
    passes: usize,
    /// The last repeat's checkpoint directory and incident count.
    last: Option<(ScratchDir, usize)>,
}

impl CnnCkpt {
    pub const BATCH: usize = 50;
    pub const EVERY: u64 = 10;

    pub fn config() -> CnnConfig {
        CnnConfig::new(28, 8, 5, 2, 64, CLASSES)
    }

    pub fn train_config() -> TrainConfig {
        TrainConfig {
            learning_rate: 0.2,
            batch_size: Self::BATCH,
            chunk_rows: 500,
            ..TrainConfig::default()
        }
    }

    /// `tc` with checkpoints into `dir` and supervisor snapshots, both
    /// every ten batches.
    pub fn persisting(tc: &TrainConfig, dir: &Path) -> TrainConfig {
        TrainConfig {
            checkpoint: Some(CheckpointPolicy::new(dir, Self::EVERY)),
            supervisor: Some(SupervisorPolicy {
                snapshot_every: Self::EVERY,
                ..SupervisorPolicy::default()
            }),
            ..tc.clone()
        }
    }

    pub fn model(cfg: CnnConfig, seed: u64, rows: usize) -> CnnModel {
        CnnModel::new(CnnNet::new(cfg, seed), rows as u64)
    }

    fn new(env: &Env) -> CnnCkpt {
        let cfg = Self::config();
        let tc = Self::train_config();
        let data = digits(28, env.pick(6000, 500), env.seed);
        warm_up(
            &mut Self::model(cfg, env.seed, data.len()),
            &data,
            &tc,
            env.seed,
        );
        CnnCkpt {
            env: env.clone(),
            cfg,
            tc,
            data,
            passes: env.pick(3, 1),
            last: None,
        }
    }
}

impl Workload for CnnCkpt {
    fn repeat(&mut self, rep: usize, tracer: Option<&mut Tracer>) -> Repeat {
        let seed = self.env.seed;
        let dir = ScratchDir::new(&self.env.out, "cnn_ckpt", rep).expect("scratch dir");
        let tc = Self::persisting(&self.tc, dir.path());
        let mut model = Self::model(self.cfg, seed, self.data.len());
        let (repeat, incidents) = match tracer {
            Some(_) => {
                let (_, repeat) =
                    train_repeat(model, seed, &self.data, &tc, self.passes, rep, tracer);
                (repeat, 0)
            }
            None => {
                let ctx = native(seed, None);
                let t = Instant::now();
                let (report, log) =
                    train_dataset_supervised(&mut model, &ctx, &self.data, &tc, self.passes)
                        .expect("supervised training runs");
                let secs = t.elapsed().as_secs_f64();
                let repeat = Repeat {
                    rows: report.examples,
                    secs,
                    first_loss: report.initial_recon(),
                    last_loss: report.final_recon(),
                    ops: None,
                };
                (repeat, log.incidents.len())
            }
        };
        self.last = Some((dir, incidents));
        repeat
    }

    fn sim_slice(&self) -> SimSlice {
        let seed = self.env.seed;
        let ctx = simulated_phi(seed);
        let slice = head(
            &self.data,
            self.env.pick(500, 100) + self.env.sim_tail_rows(),
        );
        let dir = ScratchDir::new(&self.env.out, "cnn_ckpt-sim", 0).expect("scratch dir");
        let tc = Self::persisting(&self.tc, dir.path());
        let mut model = Self::model(self.cfg, seed, slice.len());
        let (report, _) =
            train_dataset_supervised(&mut model, &ctx, &slice, &tc, 1).expect("slice trains");
        SimSlice {
            secs: report.sim_total_secs,
            stream: Some(report.stream),
        }
    }

    fn check(&mut self, repeats: &[Repeat], checks: &mut Checks) {
        check_losses("cnn_ckpt", repeats, checks);
        let Some((dir, incidents)) = &self.last else {
            checks.expect(false, || "cnn_ckpt: no repeat ran".to_string());
            return;
        };
        checks.expect(*incidents == 0, || {
            format!("cnn_ckpt: {incidents} supervisor incident(s) in a fault-free run")
        });
        let per_pass: usize = (0..self.data.len())
            .step_by(self.tc.chunk_rows)
            .map(|lo| {
                (self.data.len() - lo)
                    .min(self.tc.chunk_rows)
                    .div_ceil(Self::BATCH)
            })
            .sum();
        let expected = (per_pass * self.passes) as u64;
        let path = CheckpointPolicy::new(dir.path(), Self::EVERY).file();
        match load_checkpoint_file(&path) {
            Ok(ckpt) => {
                let got = ckpt.progress.batches;
                let is_cnn = ckpt.into_cnn().is_some();
                checks.expect(got == expected && is_cnn, || {
                    format!("cnn_ckpt: checkpoint at batch {got}, expected {expected}")
                });
            }
            Err(e) => checks.expect(false, || format!("cnn_ckpt: checkpoint unreadable: {e}")),
        }
    }
}
