//! Implementation of the `micdnn` command-line tool.
//!
//! Subcommands:
//!
//! * `train-ae` — train a sparse autoencoder on synthetic digits, patches
//!   or an IDX file; optionally save the model.
//! * `train-rbm` — train an RBM with CD-1 or PCD.
//! * `pretrain` — greedy layer-wise pre-training of a stack.
//! * `classify` — pre-train + fine-tune + report training accuracy on the
//!   synthetic digit classes.
//! * `features` — export a trained autoencoder's weight images as PGM.
//! * `estimate` — price a workload on every modeled platform (no
//!   training).
//! * `profile` — run a (default simulated-Phi) training with the per-op
//!   profiler attached; print the op/phase/stream breakdown and
//!   optionally export the profile JSON and a Chrome trace.
//!
//! The logic lives in this library crate so it is unit-testable; `main`
//! is a two-liner.

use micdnn::analytic::{estimate, Algo, Workload};
use micdnn::train::{
    train_dataset, train_dataset_resume, AeModel, RbmModel, TrainConfig, UnsupervisedModel,
};
use micdnn::{
    serve_requests, AeConfig, CheckpointModel, CheckpointPolicy, CnnConfig, CnnModel, CnnNet,
    DataParallel, DataParallelAe, DataParallelRbm, ExecCtx, FineTuneModel, FineTuneNet,
    IncidentLog, MultiDevConfig, OptLevel, Rbm, RbmConfig, Recoverable, Request, RunSupervisor,
    ServeConfig, ShardedStep, SparseAutoencoder, StackedAutoencoder, Stage, SupervisorPolicy,
    TrainProgress, TrainReport,
};
use micdnn_data::{read_idx, Dataset, DigitGenerator, PatchGenerator};
use micdnn_sim::{ArrivalPattern, ArrivalSchedule, Link, Platform, SyncModel};

/// A parsed `--key value` argument list.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: Vec<(String, String)>,
    bools: Vec<String>,
}

impl Args {
    /// Parses `--key value` pairs and bare `--switch`es.
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{a}`"));
            };
            if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                args.flags.push((key.to_string(), raw[i + 1].clone()));
                i += 2;
            } else {
                args.bools.push(key.to_string());
                i += 1;
            }
        }
        Ok(args)
    }

    /// String value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `true` when `--key` appeared (with or without a value).
    pub fn has(&self, key: &str) -> bool {
        self.bools.iter().any(|k| k == key) || self.get(key).is_some()
    }

    /// Parsed numeric flag with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }
}

fn parse_level(args: &Args) -> Result<OptLevel, String> {
    Ok(match args.get("level").unwrap_or("improved") {
        "baseline" => OptLevel::Baseline,
        "openmp" => OptLevel::OpenMp,
        "openmp-mkl" => OptLevel::OpenMpMkl,
        "improved" => OptLevel::Improved,
        "sequential" => OptLevel::SequentialBlas,
        other => return Err(format!("unknown --level `{other}`")),
    })
}

fn parse_platform(args: &Args) -> Result<Option<Platform>, String> {
    Ok(match args.get("platform") {
        None | Some("native") => None,
        Some("phi") => Some(Platform::xeon_phi()),
        Some("phi30") => Some(Platform::xeon_phi_cores(30)),
        Some("cpu") => Some(Platform::cpu_socket()),
        Some("cpu1") => Some(Platform::cpu_single_core()),
        Some("matlab") => Some(Platform::matlab_host()),
        Some(other) => return Err(format!("unknown --platform `{other}`")),
    })
}

fn make_ctx(args: &Args, seed: u64) -> Result<ExecCtx, String> {
    let level = parse_level(args)?;
    let mut ctx = match parse_platform(args)? {
        Some(p) => ExecCtx::simulated(level, p, seed),
        None => ExecCtx::native(level, seed),
    };
    if args.has("verify") {
        ctx = ctx.with_verify();
    }
    Ok(ctx)
}

fn load_data(args: &Args, examples: usize, seed: u64) -> Result<Dataset, String> {
    let source = args.get("data").unwrap_or("digits");
    let mut ds = match source {
        "digits" => {
            let side = at_least(args, "side", 16, 8)?;
            Dataset::new(DigitGenerator::new(side, seed).matrix(examples))
        }
        "patches" => {
            let side = at_least(args, "side", 12, 4)?;
            Dataset::new(PatchGenerator::new(side, seed).matrix(examples))
        }
        path => {
            let idx = read_idx(path).map_err(|e| format!("cannot read IDX `{path}`: {e}"))?;
            Dataset::new(idx.into_matrix())
        }
    };
    ds.normalize();
    Ok(ds)
}

/// A size flag with a floor: a value below `min` is rejected here, as a
/// CLI error, instead of tripping an assert or a divide-by-zero deep in
/// the library.
fn at_least(args: &Args, key: &str, default: usize, min: usize) -> Result<usize, String> {
    match args.num(key, default)? {
        n if n < min => Err(format!("--{key} must be at least {min}")),
        n => Ok(n),
    }
}

/// A count or width flag that has to be at least 1 (`--batch`, `--chunk`,
/// `--passes`, `--finetune-epochs`, `--hidden`, `--visible`, `--units`).
fn positive(args: &Args, key: &str, default: usize) -> Result<usize, String> {
    at_least(args, key, default, 1)
}

fn train_config(args: &Args) -> Result<TrainConfig, String> {
    Ok(TrainConfig {
        learning_rate: args.num("lr", 0.3f32)?,
        batch_size: positive(args, "batch", 100)?,
        chunk_rows: positive(args, "chunk", 1000)?,
        double_buffered: !args.has("no-double-buffer"),
        link: Link::pcie_gen2(),
        history_every: 10,
        ..TrainConfig::default()
    })
}

/// CNN shape from `--hidden/--channels/--kernel/--pool` against the
/// loaded data's dimensionality (must be a square image). Geometry
/// errors come back as CLI errors, not panics.
fn cnn_config(args: &Args, visible: usize, hidden: usize) -> Result<CnnConfig, String> {
    let side = (visible as f64).sqrt().round() as usize;
    if side * side != visible {
        return Err(format!(
            "--algo cnn needs square images; data dimensionality {visible} is not a square"
        ));
    }
    let channels = args.num("channels", 6usize)?;
    let kernel = args.num("kernel", 5usize)?;
    let pool = args.num("pool", 2usize)?;
    if channels < 1 || hidden < 1 {
        return Err("--channels and --hidden must be positive".to_string());
    }
    if kernel < 1 || kernel > side {
        return Err(format!(
            "--kernel {kernel} out of range for {side}x{side} images"
        ));
    }
    let conv_side = side - kernel + 1;
    if pool < 1 || !conv_side.is_multiple_of(pool) {
        return Err(format!(
            "--pool {pool} does not tile the {conv_side}x{conv_side} conv output"
        ));
    }
    Ok(CnnConfig::new(side, channels, kernel, pool, hidden, 10))
}

/// Multi-device configuration from `--devices N [--blocks K] [--sync
/// ring|ps]`; `None` when `--devices` was not given (single-device
/// legacy trainer).
fn multidev_config(args: &Args) -> Result<Option<MultiDevConfig>, String> {
    let Some(devices) = args.get("devices") else {
        return Ok(None);
    };
    let devices: usize = devices
        .parse()
        .map_err(|_| format!("--devices: cannot parse `{devices}`"))?;
    // Default K: the paper's 8 canonical blocks, widened so every device
    // can own at least one block when more than 8 cards are requested.
    let blocks: usize = match args.get("blocks") {
        Some(k) => k
            .parse()
            .map_err(|_| format!("--blocks: bad value `{k}`"))?,
        None => devices.max(8),
    };
    // Degenerate geometry (0 devices, 0 blocks, blocks < devices) fails
    // here with a typed config error instead of reaching shard setup.
    let mut cfg = MultiDevConfig::validated(devices, blocks)
        .map_err(|e| format!("--devices/--blocks: {e}"))?;
    cfg = cfg.with_sync(match args.get("sync").unwrap_or("ring") {
        "ring" => SyncModel::RingAllReduce,
        "ps" => SyncModel::ParameterServer,
        other => return Err(format!("unknown --sync `{other}` (ring|ps)")),
    });
    Ok(Some(cfg.with_link(Link::pcie_gen2())))
}

/// Runs one subcommand; returns the text to print.
pub fn run(argv: &[String]) -> Result<String, String> {
    let Some(cmd) = argv.first() else {
        return Err(usage());
    };
    // `incidents` takes a positional file path, unlike every other
    // subcommand; handle it before the `--key value` parser.
    if cmd == "incidents" {
        return cmd_incidents(&argv[1..]);
    }
    let args = Args::parse(&argv[1..])?;
    let seed: u64 = args.num("seed", 7u64)?;
    match cmd.as_str() {
        "train" => cmd_train(&args, seed),
        "train-ae" => cmd_train_ae(&args, seed),
        "train-rbm" => cmd_train_rbm(&args, seed),
        "pretrain" => cmd_pretrain(&args, seed),
        "classify" => cmd_classify(&args, seed),
        "features" => cmd_features(&args),
        "estimate" => cmd_estimate(&args),
        "profile" => cmd_profile(&args, seed),
        "serve" => cmd_serve(&args, seed),
        "verify" => cmd_verify(&args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command `{other}`\n\n{}", usage())),
    }
}

/// Usage text.
pub fn usage() -> String {
    "micdnn — parallel unsupervised pre-training (IPDPSW'14 reproduction)\n\
     \n\
     USAGE: micdnn <COMMAND> [--key value ...]\n\
     \n\
     COMMANDS:\n\
       train      --algo ae|rbm|cnn [--hidden N] [--passes N] [--momentum MU]\n\
                  [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]\n\
                  [--save FILE] — crash-safe training; --resume continues a\n\
                  checkpointed run bit-identically (pass the same data flags\n\
                  and --passes as the TOTAL epochs of the whole run)\n\
                  [--supervise] [--snapshot-every N] [--lr-backoff F]\n\
                  [--incidents FILE.jsonl] — self-healing training: roll back\n\
                  to the last good snapshot on divergence, restart on stream\n\
                  or checkpoint failures, degrade the executor to serial on\n\
                  race-check trips; the incident log streams to --incidents\n\
                  as JSON lines (micdnn-incidents-v2, one record per line),\n\
                  and with --checkpoint-dir the ladder state itself is\n\
                  durable: --supervise --resume continues a killed run\n\
                  mid-pipeline with rollback/restart budgets, the backed-off\n\
                  learning rate, and all pre-kill incidents intact\n\
                  [--inject site:count[@from],...] — arm deterministic fault\n\
                  injection (builds with the `failpoints` feature only);\n\
                  sites: loader.read loader.panic loader.crc loader.stall\n\
                  kernel.nan cnn.nan finetune.nan ckpt.write ckpt.read\n\
                  device.oom link.drop\n\
                  [--devices N [--blocks K] [--sync ring|ps]] — data-parallel\n\
                  training across N modeled coprocessors: batches shard into\n\
                  K canonical microblocks, gradients merge in fixed block\n\
                  order (ring allreduce or parameter server over the PCIe\n\
                  model), so results are bit-identical at any N; checkpoints\n\
                  persist the device geometry and per-device RNG cursors\n\
                  --algo cnn [--channels N] [--kernel K] [--pool P] trains\n\
                  the layer-IR convolutional classifier (im2col conv +\n\
                  max-pool + dense + softmax) on the digits stream, labels\n\
                  derived from the generator's row order; supports\n\
                  checkpoint/resume and --supervise, not --devices/--momentum\n\
       (all training commands accept --graph-schedule: run each step\n\
        through the dataflow executor — bit-identical, critical-path\n\
        priced in simulation, concurrent small kernels natively — and\n\
        --verify: statically check every task graph for races, illegal\n\
        register aliasing, uninitialized reads and determinism hazards\n\
        before executing it, even in release builds)\n\
       train-ae   --visible N --hidden N [--examples N] [--passes N] [--batch N]\n\
                  [--lr F] [--data digits|patches|FILE.idx] [--save FILE]\n\
                  [--level baseline|openmp|openmp-mkl|improved|sequential]\n\
                  [--platform native|phi|phi30|cpu|cpu1|matlab] [--momentum MU]\n\
       train-rbm  (same flags) [--pcd]\n\
       pretrain   --sizes 256,128,64 [--passes N] [--pipeline] ... —\n\
                  --pipeline schedules the layers as one task graph, one\n\
                  device per layer, streaming encoded chunks over the link\n\
                  (bit-identical to the sequential schedule)\n\
       classify   --sizes 256,128,64 --classes 10 [--finetune-epochs N]\n\
                  [--supervise [--snapshot-every N] [--lr-backoff F]\n\
                  [--incidents FILE.jsonl]] ... — --supervise runs the whole\n\
                  pretrain -> fine-tune pipeline under one recovery ladder\n\
                  (a fine-tune divergence rolls back the fine-tune leg only)\n\
       incidents  FILE.jsonl — pretty-print an incident log (v2 JSONL or\n\
                  the legacy v1 whole-document JSON)\n\
       features   --model FILE --side N --out FILE.pgm [--units N]\n\
       estimate   --visible N --hidden N --examples N --batch N [--algo ae|rbm]\n\
       profile    [--algo ae|rbm] [--examples N] [--passes N] [--batch N]\n\
                  [--platform phi|...] [--level ...] [--json FILE] [--trace FILE]\n\
       verify     [--json FILE] [--devices N] — certify every shipped task\n\
                  graph (AE / CD-k / fine-tune / CNN / serve forward /\n\
                  multi-device pipeline at 1, 2 and 4 cards): static shape\n\
                  inference, determinism audit, and a per-device peak-memory\n\
                  proof against the modeled card budget (8 GB Phi); exports\n\
                  the machine-readable micdnn-verify-v1 report with --json;\n\
                  exits nonzero if any graph has findings\n\
       serve      [--requests N] [--rate RPS] [--pattern steady|bursty]\n\
                  [--burst K] [--max-batch N] [--max-wait-us U] [--queue-cap N]\n\
                  [--sizes 128,64] [--classes N] [--platform ...] [--level ...]\n\
                  [--json FILE] [--profile] [--inject kernel.nan:...] —\n\
                  batched async inference over a synthetic request trace: a\n\
                  bounded queue coalesces requests into dynamic micro-batches\n\
                  (flush on max_batch or max_wait), arrivals past queue_cap\n\
                  are rejected with a typed Overloaded error, and a poisoned\n\
                  batch fails only the lane it hit — the server stays up\n"
        .to_string()
}

/// Builds the run supervisor for `--supervise` training: the policy from
/// the CLI flags (validated up front, so a bad `--lr-backoff` is a CLI
/// error, not a mid-run surprise), a durable ladder in the checkpoint dir
/// when one is given, and incremental JSONL incident flushing to
/// `--incidents`.
fn build_supervisor(
    args: &Args,
    tc: &TrainConfig,
    ckpt_dir: Option<&str>,
) -> Result<RunSupervisor, String> {
    let policy = tc.supervisor.clone().unwrap_or_default();
    let mut sup = RunSupervisor::new(policy).map_err(|e| format!("--supervise: {e}"))?;
    if let Some(dir) = ckpt_dir {
        sup = sup.durable(dir);
    }
    if let Some(path) = args.get("incidents") {
        sup = sup.with_incident_file(path);
    }
    Ok(sup)
}

/// The ladder counters as both supervisor report lines print them.
fn ladder_state(sup: &RunSupervisor) -> String {
    format!(
        "rollbacks {}, restarts {}, lr x{}{}",
        sup.rollbacks(),
        sup.restarts(),
        sup.lr_multiplier(),
        if sup.is_degraded() { ", degraded" } else { "" }
    )
}

/// One training leg starting at `progress` — a fresh leg is a resume at
/// the default (zero) position; a resumed one had its model and RNG
/// restored from the checkpoint by the caller. Under the supervisor's
/// ladder when present (re-entered at the checkpointed position, replaying
/// already-trained batches without touching the model), plain otherwise.
#[allow(clippy::too_many_arguments)]
fn run_leg<M: Recoverable>(
    sup: &mut Option<RunSupervisor>,
    model: &mut M,
    ctx: &ExecCtx,
    ds: &Dataset,
    tc: &TrainConfig,
    passes: usize,
    stage: Stage,
    progress: &TrainProgress,
) -> Result<TrainReport, String> {
    match sup {
        Some(s) => s.run_leg(
            model,
            ctx,
            ds,
            tc,
            passes,
            stage,
            progress.layer,
            progress.batches,
        ),
        None => train_dataset_resume(model, ctx, ds, tc, passes, progress),
    }
    .map_err(|e| e.to_string())
}

/// `incidents`: pretty-print an incident log (v2 JSONL or legacy v1).
fn cmd_incidents(rest: &[String]) -> Result<String, String> {
    let [path] = rest else {
        return Err("usage: micdnn incidents FILE.jsonl".to_string());
    };
    let log = IncidentLog::load(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut out = format!("{} — {} incident(s)\n", log.schema, log.incidents.len());
    for i in &log.incidents {
        let stage = if i.stage.is_empty() { "-" } else { &i.stage };
        out.push_str(&format!(
            "  [{stage}] {} @ batch {}: {}",
            i.kind, i.batch, i.detail
        ));
        if i.value != 0.0 {
            out.push_str(&format!(" (value {})", i.value));
        }
        out.push('\n');
    }
    Ok(out)
}

/// `--momentum MU`, when given.
fn momentum(args: &Args) -> Result<Option<f32>, String> {
    args.get("momentum")
        .map(|mu| mu.parse().map_err(|_| "--momentum: bad value".to_string()))
        .transpose()
}

/// The autoencoder trainer of `train`, `train-ae` and `profile`: plain SGD,
/// or momentum at a constant `--lr` with `--momentum MU`; `graph` schedules
/// each step through the dataflow executor.
fn build_ae(
    args: &Args,
    visible: usize,
    hidden: usize,
    seed: u64,
    graph: bool,
) -> Result<AeModel, String> {
    let cfg = AeConfig::new(visible, hidden);
    let mut model = AeModel::new(SparseAutoencoder::new(cfg, seed));
    if let Some(mu) = momentum(args)? {
        let opt = micdnn::Optimizer::new(
            micdnn::Rule::Momentum { mu },
            micdnn::Schedule::Constant(args.num("lr", 0.3f32)?),
            &SparseAutoencoder::optimizer_slots(&cfg),
        );
        model = model.with_optimizer(opt);
    }
    if graph {
        model = model.with_graph_schedule();
    }
    Ok(model)
}

/// The CD trainer of `train`, `train-rbm` and `profile` (same options as
/// [`build_ae`]).
fn build_rbm(
    args: &Args,
    visible: usize,
    hidden: usize,
    seed: u64,
    graph: bool,
) -> Result<RbmModel, String> {
    let mut model = RbmModel::new(Rbm::new(RbmConfig::new(visible, hidden), seed));
    if let Some(mu) = momentum(args)? {
        model = model.with_momentum(mu);
    }
    if graph {
        model = model.with_graph_schedule();
    }
    Ok(model)
}

/// The execution context and training config of `train` and `classify`,
/// with the supervision options applied when `--supervise` is given.
/// `--incidents` implies supervision (the log only exists under the
/// supervisor).
fn supervision_setup(args: &Args, seed: u64) -> Result<(ExecCtx, TrainConfig, bool), String> {
    let supervised = args.has("supervise") || args.get("incidents").is_some();
    let mut ctx = make_ctx(args, seed)?;
    let mut tc = train_config(args)?;
    if supervised {
        ctx = ctx.with_graceful_degradation();
        tc.supervisor = Some(SupervisorPolicy {
            snapshot_every: args.num("snapshot-every", 25u64)?,
            lr_backoff: args.num("lr-backoff", 0.5f32)?,
            ..SupervisorPolicy::default()
        });
    }
    Ok((ctx, tc, supervised))
}

/// What `train` needs from each of its five model kinds on top of the
/// supervisor's [`Recoverable`] seam.
trait Trainable: Recoverable {
    /// Report lines of this kind, printed after the reconstruction line.
    fn report_lines(&self, _ctx: &ExecCtx, _ds: &Dataset) -> String {
        String::new()
    }

    /// Writes the `--save` file; returns the kind name the report prints.
    fn save_model(&self, path: &str) -> std::io::Result<&'static str>;
}

impl Trainable for AeModel {
    fn save_model(&self, path: &str) -> std::io::Result<&'static str> {
        micdnn::save_autoencoder_file(&self.ae, path).map(|()| "autoencoder")
    }
}

impl Trainable for RbmModel {
    fn save_model(&self, path: &str) -> std::io::Result<&'static str> {
        micdnn::save_rbm_file(&self.rbm, path).map(|()| "rbm")
    }
}

impl Trainable for CnnModel {
    fn report_lines(&self, ctx: &ExecCtx, ds: &Dataset) -> String {
        let labels = Self::row_labels(ds.len(), self.net.config().n_classes);
        let acc = self.net.accuracy(ctx, ds.matrix().view(), &labels);
        format!("train accuracy {:.1}%\n", 100.0 * acc)
    }
    fn save_model(&self, path: &str) -> std::io::Result<&'static str> {
        // The CNN's standalone format is its checkpoint state record
        // (tag 5), written atomically like the others.
        micdnn::atomic_write(path, |mut w| self.save_state(&mut w)).map(|()| "cnn")
    }
}

/// The data-parallel report line. The sync fraction only means something
/// when compute was priced too (simulated backends); natively only the
/// modeled sync is charged and the ratio would degenerate to 100%.
fn multidev_line<M: ShardedStep>(m: &DataParallel<M>) -> String {
    let devices = m.device_set().online_count();
    if m.device_set().compute_secs() > 0.0 {
        format!(
            "multi-device: {devices} device(s), modeled sync fraction {:.1}%\n",
            100.0 * m.sync_fraction()
        )
    } else {
        format!("multi-device: {devices} device(s)\n")
    }
}

impl Trainable for DataParallelAe {
    fn report_lines(&self, _ctx: &ExecCtx, _ds: &Dataset) -> String {
        multidev_line(self)
    }
    fn save_model(&self, path: &str) -> std::io::Result<&'static str> {
        micdnn::save_autoencoder_file(self.ae(), path).map(|()| "autoencoder")
    }
}

impl Trainable for DataParallelRbm {
    fn report_lines(&self, _ctx: &ExecCtx, _ds: &Dataset) -> String {
        multidev_line(self)
    }
    fn save_model(&self, path: &str) -> std::io::Result<&'static str> {
        micdnn::save_rbm_file(self.rbm(), path).map(|()| "rbm")
    }
}

/// Whether the run's model is graph-scheduled: asked for on the command
/// line, or recorded in the checkpoint being resumed (the RBM, CNN and
/// fine-tune records carry the flag). The model is built with this flag and
/// `restore_state` keeps the wrapper's scheduling preference, so the
/// schedule is decided once, for every kind.
fn graph_flag(args: &Args, saved: Option<&CheckpointModel>) -> bool {
    args.has("graph-schedule")
        || match saved {
            Some(CheckpointModel::Ae(m)) => m.uses_graph(),
            Some(CheckpointModel::Rbm(m)) => m.uses_graph(),
            Some(CheckpointModel::Cnn(m)) => m.net.uses_graph(),
            Some(CheckpointModel::FineTune(m)) => m.net.uses_graph(),
            Some(CheckpointModel::MultiDev(_)) | None => false,
        }
}

/// Everything `train` has settled before it knows the model's type.
struct TrainRun<'a> {
    args: &'a Args,
    algo: &'a str,
    ds: &'a Dataset,
    ctx: &'a ExecCtx,
    tc: &'a TrainConfig,
    passes: usize,
    hidden: usize,
    sup: Option<RunSupervisor>,
    /// On resume: where the checkpoint stood and the model it holds.
    resumed: Option<(TrainProgress, CheckpointModel)>,
    restored_ladder: Option<String>,
}

impl TrainRun<'_> {
    /// Restore into the freshly built model when resuming, run one leg,
    /// report, save.
    fn finish<M: Trainable>(mut self, mut model: M) -> Result<String, String> {
        let (resumed_from, saved) = self.resumed.unzip();
        if let Some(state) = saved {
            // `cmd_train` matched the record kind against `--algo`, so only
            // a multi-device record (it embeds either model) can disagree.
            model
                .restore_state(state)
                .map_err(|e| format!("cannot restore multi-device checkpoint: {e}"))?;
        }
        let stage = if self.algo == "cnn" {
            Stage::Cnn
        } else {
            Stage::Pretrain
        };
        let report = run_leg(
            &mut self.sup,
            &mut model,
            self.ctx,
            self.ds,
            self.tc,
            self.passes,
            stage,
            &resumed_from.unwrap_or_default(),
        )?;

        let (algo, args) = (self.algo, self.args);
        let mut out = match &resumed_from {
            Some(p) => format!(
                "resumed {algo} from batch {} (epoch {}), trained {} more batches\n",
                p.batches, p.epoch, report.batches
            ),
            None => format!(
                "trained {algo} {} -> {} ({} batches)\n",
                self.ds.dim(),
                self.hidden,
                report.batches
            ),
        };
        if let Some(line) = &self.restored_ladder {
            out.push_str(line);
        }
        out.push_str(&format!(
            "reconstruction {:.5} -> {:.5}\n",
            report.initial_recon(),
            report.final_recon()
        ));
        out.push_str(&model.report_lines(self.ctx, self.ds));
        if self.tc.checkpoint.is_some() {
            out.push_str("checkpoint written (atomic tmp+rename)\n");
        }
        if let Some(sup) = self.sup {
            out.push_str(&format!(
                "supervisor: {} incident(s) recorded\n",
                sup.log().incidents.len()
            ));
            out.push_str(&format!("supervisor: ladder {}\n", ladder_state(&sup)));
            if let Some(path) = args.get("incidents") {
                // The supervisor already streams JSONL at every ladder event;
                // this final flush covers the fault-free run.
                sup.log()
                    .save_jsonl(path)
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                out.push_str(&format!("wrote incident log to {path}\n"));
            }
        }
        if let Some(path) = args.get("save") {
            let kind = model.save_model(path).map_err(|e| e.to_string())?;
            out.push_str(&format!("saved {kind} to {path}\n"));
        }
        Ok(out)
    }
}

/// `train`: checkpointed (and resumable) training of one building block.
///
/// A fresh run trains `--passes` epochs, writing `checkpoint.mic` into
/// `--checkpoint-dir` every `--checkpoint-every` batches (atomically). With
/// `--resume`, the model, optimizer/momentum state, RNG cursor and progress
/// are restored from that file and training continues — with the same data
/// flags and seed, the result is bit-identical to a run that never stopped.
///
/// With `--supervise` (or `--incidents`), the run goes through the
/// self-healing supervisor: divergence rolls the model and RNG back to the
/// last good in-memory snapshot (`--snapshot-every`, learning rate scaled
/// by `--lr-backoff`), stream/checkpoint failures restart the leg, and the
/// incident log streams to `--incidents FILE.jsonl` as JSON lines. With
/// `--checkpoint-dir` the ladder itself is durable (`supervisor.mic`,
/// written atomically at every ladder event), so `--supervise --resume`
/// continues a killed run with its rollback/restart budgets, learning-rate
/// multiplier, degradation latch, and pre-kill incidents intact.
/// `--inject site:count[@from],...` arms the deterministic failpoints in
/// builds carrying the `failpoints` feature.
fn cmd_train(args: &Args, seed: u64) -> Result<String, String> {
    let algo = args.get("algo").unwrap_or("ae");
    let examples = args.num("examples", 2000usize)?;
    let mut ds = load_data(args, examples, seed)?;
    if algo == "rbm" {
        ds.binarize(0.5);
    }
    let visible = ds.dim();
    let hidden = positive(
        args,
        "hidden",
        if algo == "cnn" {
            48
        } else {
            (visible / 2).max(2)
        },
    )?;
    let passes = positive(args, "passes", 10)?;
    if algo == "cnn" {
        // The CNN derives labels from the digit generator's row order
        // (row i renders digit i % 10), so only that stream is labeled.
        let source = args.get("data").unwrap_or("digits");
        if source != "digits" {
            return Err(
                "--algo cnn trains on --data digits only (labels come from row order)".to_string(),
            );
        }
        if args.get("momentum").is_some() {
            return Err("--momentum is not supported with --algo cnn (plain SGD only)".to_string());
        }
    }
    if let Some(list) = args.get("inject") {
        micdnn::faults::configure_list(list).map_err(|e| format!("--inject: {e}"))?;
    }
    // `--supervise --resume` restores the model from the checkpoint and
    // the ladder from the durable supervisor state.
    let (ctx, mut tc, supervised) = supervision_setup(args, seed)?;
    let ckpt_dir = args.get("checkpoint-dir");
    if let Some(dir) = ckpt_dir {
        tc.checkpoint = Some(CheckpointPolicy::new(
            dir,
            args.num("checkpoint-every", 50u64)?,
        ));
    }
    let mdcfg = multidev_config(args)?;
    if mdcfg.is_some() && args.get("momentum").is_some() {
        return Err("--momentum is not supported with --devices (plain SGD only)".to_string());
    }

    // The supervision policy is validated up front — a bad `--lr-backoff`
    // or budget combination is a CLI error before any training starts.
    let mut sup = if supervised {
        Some(build_supervisor(args, &tc, ckpt_dir)?)
    } else {
        None
    };

    let mut restored_ladder = None;
    let mut resumed = None;
    if args.has("resume") {
        let dir = ckpt_dir.ok_or("--resume requires --checkpoint-dir")?;
        let path = std::path::Path::new(dir).join(micdnn::checkpoint::CHECKPOINT_FILE);
        let ckpt = micdnn::load_checkpoint_file(&path)
            .map_err(|e| format!("cannot load checkpoint `{}`: {e}", path.display()))?;
        ckpt.restore_rng(&ctx);
        // The ladder resumes alongside the model: counters, the
        // learning-rate multiplier, the degradation latch, and the
        // pre-kill incident log all come back from the durable state.
        if let Some(sup) = sup.as_mut() {
            if sup
                .load_durable()
                .map_err(|e| format!("cannot load supervisor state: {e}"))?
            {
                restored_ladder = Some(format!(
                    "supervisor: resumed ladder ({})\n",
                    ladder_state(sup)
                ));
            }
        }
        if !matches!(
            (algo, &ckpt.model),
            ("ae", CheckpointModel::Ae(_))
                | ("rbm", CheckpointModel::Rbm(_))
                | ("cnn", CheckpointModel::Cnn(_))
                | ("ae" | "rbm", CheckpointModel::MultiDev(_))
        ) {
            return Err(format!(
                "checkpoint `{}` holds a different model type than --algo {algo}",
                path.display()
            ));
        }
        resumed = Some((ckpt.progress, ckpt.model));
    }
    // A resumed run trains what the checkpoint holds: a multi-device record
    // carries its own geometry (device count, block count, per-device RNG
    // cursors) and `restore_state` adopts it, so `--devices` on resume is
    // optional — and ignored when the record is a single-device one.
    let multidev = match &resumed {
        Some((_, model)) => matches!(model, CheckpointModel::MultiDev(_)),
        None => mdcfg.is_some(),
    };
    let graph = graph_flag(args, resumed.as_ref().map(|(_, model)| model));
    let run = TrainRun {
        args,
        algo,
        ds: &ds,
        ctx: &ctx,
        tc: &tc,
        passes,
        hidden,
        sup,
        resumed,
        restored_ladder,
    };
    // Data-parallel training across modeled coprocessors: the batch is
    // sharded into canonical microblocks, per-device gradients merge in
    // fixed block order, so the result is bit-identical at any `--devices`
    // (same global batch).
    let replicas = || mdcfg.clone().unwrap_or_else(|| MultiDevConfig::new(1));
    match (algo, multidev) {
        ("ae", false) => run.finish(build_ae(args, visible, hidden, seed, graph)?),
        ("rbm", false) => run.finish(build_rbm(args, visible, hidden, seed, graph)?),
        ("cnn", false) => {
            let net = CnnNet::new(cnn_config(args, visible, hidden)?, seed);
            let mut model = CnnModel::new(net, ds.len() as u64);
            if graph {
                model = model.with_graph_schedule();
            }
            run.finish(model)
        }
        ("ae", true) => {
            let ae = SparseAutoencoder::new(AeConfig::new(visible, hidden), seed);
            run.finish(DataParallelAe::new(ae, replicas()))
        }
        ("rbm", true) => {
            let rbm = Rbm::new(RbmConfig::new(visible, hidden), seed);
            run.finish(DataParallelRbm::new(rbm, replicas()))
        }
        ("cnn", true) => {
            Err("--algo cnn does not support --devices (single device only)".to_string())
        }
        (other, _) => Err(format!("unknown --algo `{other}` (ae|rbm|cnn)")),
    }
}

fn cmd_train_ae(args: &Args, seed: u64) -> Result<String, String> {
    let examples = args.num("examples", 2000usize)?;
    let ds = load_data(args, examples, seed)?;
    let visible = ds.dim();
    let req_visible: usize = args.num("visible", visible)?;
    if req_visible != visible {
        return Err(format!(
            "--visible {req_visible} does not match the data dimensionality {visible}"
        ));
    }
    let hidden = positive(args, "hidden", (visible / 2).max(2))?;
    let passes = positive(args, "passes", 10)?;
    let mut model = build_ae(args, visible, hidden, seed, args.has("graph-schedule"))?;
    let ctx = make_ctx(args, seed)?;
    let tc = train_config(args)?;
    let report = train_dataset(&mut model, &ctx, &ds, &tc, passes).map_err(|e| e.to_string())?;

    let mut out = format!(
        "trained sparse autoencoder {visible} -> {hidden}\n\
         examples {}  batches {}  reconstruction {:.5} -> {:.5}\n",
        report.examples,
        report.batches,
        report.initial_recon(),
        report.final_recon()
    );
    if ctx.platform().is_some() {
        out.push_str(&format!("simulated time: {:.3} s\n", report.sim_total_secs));
    }
    if let Some(path) = args.get("save") {
        micdnn::save_autoencoder_file(&model.into_inner(), path).map_err(|e| e.to_string())?;
        out.push_str(&format!("saved model to {path}\n"));
    }
    Ok(out)
}

/// `profile`: trains a small model with the profiler (and, when a trace
/// export is requested, the event trace) attached, then reports where the
/// time went. Defaults to the simulated Xeon Phi so the breakdown shows
/// modeled-device seconds and fractions of the 5110P's peak.
fn cmd_profile(args: &Args, seed: u64) -> Result<String, String> {
    let examples = args.num("examples", 2000usize)?;
    let mut ds = load_data(args, examples, seed)?;
    let algo = args.get("algo").unwrap_or("ae");
    let visible = ds.dim();
    let hidden = positive(args, "hidden", (visible / 2).max(2))?;
    let passes = positive(args, "passes", 2)?;

    let level = parse_level(args)?;
    let platform = match args.get("platform") {
        None => Some(Platform::xeon_phi()),
        Some(_) => parse_platform(args)?,
    };
    let profiler = micdnn::Profiler::new();
    let mut ctx = match platform {
        Some(p) => ExecCtx::simulated(level, p, seed),
        None => ExecCtx::native(level, seed),
    }
    .with_profiler(profiler.clone());
    if args.has("trace") {
        ctx = ctx.with_trace();
    }
    if args.has("verify") {
        ctx = ctx.with_verify();
    }

    let tc = train_config(args)?;
    let graph = args.has("graph-schedule");
    let report = match algo {
        "ae" => {
            let mut model = build_ae(args, visible, hidden, seed, graph)?;
            train_dataset(&mut model, &ctx, &ds, &tc, passes)
        }
        "rbm" => {
            ds.binarize(0.5);
            let mut model = build_rbm(args, visible, hidden, seed, graph)?;
            train_dataset(&mut model, &ctx, &ds, &tc, passes)
        }
        other => return Err(format!("unknown --algo `{other}` (ae|rbm)")),
    }
    .map_err(|e| e.to_string())?;

    let profile = ctx.profile_report().expect("profiler attached");
    let mut out = format!(
        "profiled {algo} {visible} -> {hidden} on {}\n\
         examples {}  batches {}\n\n{}",
        ctx.platform().map_or("native", |p| p.label.as_str()),
        report.examples,
        report.batches,
        profile.render()
    );
    if let Some(path) = args.get("json") {
        let text = serde_json::to_string_pretty(&profile).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("cannot write `{path}`: {e}"))?;
        out.push_str(&format!("wrote profile JSON to {path}\n"));
    }
    if let Some(path) = args.get("trace") {
        std::fs::write(path, micdnn_sim::chrome_trace_json(ctx.trace()))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        out.push_str(&format!("wrote Chrome trace to {path}\n"));
    }
    Ok(out)
}

fn cmd_train_rbm(args: &Args, seed: u64) -> Result<String, String> {
    let examples = args.num("examples", 2000usize)?;
    let mut ds = load_data(args, examples, seed)?;
    ds.binarize(0.5);
    let visible = ds.dim();
    let hidden = positive(args, "hidden", (visible / 2).max(2))?;
    let passes = positive(args, "passes", 10)?;
    let cfg = RbmConfig::new(visible, hidden);
    let ctx = make_ctx(args, seed)?;
    let tc = TrainConfig {
        learning_rate: args.num("lr", 0.1f32)?,
        ..train_config(args)?
    };

    let report;
    let rbm;
    if args.has("pcd") {
        for flag in ["momentum", "graph-schedule"] {
            if args.has(flag) {
                return Err(format!(
                    "--{flag} is not supported with --pcd (plain persistent chains only)"
                ));
            }
        }
        // PCD path drives the model directly (the trainer wrapper runs
        // CD); same chunk/batch loop semantics over in-memory data.
        let mut m = Rbm::new(cfg, seed);
        let mut scratch = micdnn::RbmScratch::new(&cfg, tc.batch_size);
        let mut history = Vec::new();
        for _ in 0..passes {
            for (lo, hi) in ds.batch_bounds(tc.batch_size) {
                history.push(m.pcd_step(&ctx, ds.batch(lo, hi), &mut scratch, tc.learning_rate));
            }
        }
        rbm = m;
        report = (
            history[0],
            *history.last().expect("non-empty"),
            history.len(),
        );
    } else {
        let mut model = build_rbm(args, visible, hidden, seed, args.has("graph-schedule"))?;
        let r = train_dataset(&mut model, &ctx, &ds, &tc, passes).map_err(|e| e.to_string())?;
        report = (r.initial_recon(), r.final_recon(), r.batches as usize);
        rbm = model.into_inner();
    }

    let mut out = format!(
        "trained RBM {visible} -> {hidden} ({})\nbatches {}  reconstruction {:.5} -> {:.5}\n",
        if args.has("pcd") { "PCD" } else { "CD-1" },
        report.2,
        report.0,
        report.1
    );
    if let Some(path) = args.get("save") {
        micdnn::save_rbm_file(&rbm, path).map_err(|e| e.to_string())?;
        out.push_str(&format!("saved model to {path}\n"));
    }
    Ok(out)
}

fn parse_sizes(args: &Args, input_dim: usize) -> Result<Vec<usize>, String> {
    match args.get("sizes") {
        None => Ok(vec![
            input_dim,
            (input_dim / 2).max(2),
            (input_dim / 4).max(2),
        ]),
        Some(spec) => {
            let mut sizes = vec![input_dim];
            for part in spec.split(',') {
                let n: usize = part
                    .trim()
                    .parse()
                    .map_err(|_| format!("--sizes: bad layer width `{part}`"))?;
                if n == 0 {
                    return Err("--sizes: zero layer width".to_string());
                }
                sizes.push(n);
            }
            Ok(sizes)
        }
    }
}

/// The stack `pretrain` and `classify` train.
fn build_stack(args: &Args, sizes: &[usize], seed: u64) -> StackedAutoencoder {
    let stack = StackedAutoencoder::with_default_config(sizes, seed);
    if args.has("graph-schedule") {
        stack.with_graph_schedule()
    } else {
        stack
    }
}

fn cmd_pretrain(args: &Args, seed: u64) -> Result<String, String> {
    let examples = args.num("examples", 2000usize)?;
    let ds = load_data(args, examples, seed)?;
    let sizes = parse_sizes(args, ds.dim())?;
    let passes = positive(args, "passes", 10)?;
    let ctx = make_ctx(args, seed)?;
    let tc = train_config(args)?;
    let mut stack = build_stack(args, &sizes, seed);
    if args.has("pipeline") {
        // One task graph over per-chunk nodes, one device per layer:
        // deeper layers train on chunks as they arrive over the link.
        // Bit-identical to the sequential schedule below.
        let report = stack.pretrain_pipelined(&ctx, &ds, &tc, passes);
        let mut out = format!(
            "pre-trained stack {sizes:?} (pipelined, {} nodes)\n",
            report.nodes
        );
        for (i, recon) in report.layer_recon.iter().enumerate() {
            out.push_str(&format!(
                "  layer {} ({} -> {}): final recon {recon:.5}\n",
                i + 1,
                sizes[i],
                sizes[i + 1]
            ));
        }
        if ctx.platform().is_some() {
            out.push_str(&format!(
                "pipelined critical path {:.3} s vs serial {:.3} s\n",
                report.critical_path, report.serial_time
            ));
        }
        return Ok(out);
    }
    let reports = stack
        .pretrain(&ctx, &ds, &tc, passes)
        .map_err(|e| e.to_string())?;
    let mut out = format!("pre-trained stack {sizes:?}\n");
    for (i, lr) in reports.iter().enumerate() {
        out.push_str(&format!(
            "  layer {} ({} -> {}): recon {:.5} -> {:.5}\n",
            i + 1,
            lr.shape.0,
            lr.shape.1,
            lr.report.initial_recon(),
            lr.report.final_recon()
        ));
    }
    if ctx.platform().is_some() {
        out.push_str(&format!("simulated time: {:.3} s\n", ctx.sim_time()));
    }
    Ok(out)
}

fn cmd_classify(args: &Args, seed: u64) -> Result<String, String> {
    let examples = args.num("examples", 1000usize)?;
    let side = at_least(args, "side", 16, 8)?;
    let classes = args.num("classes", 10usize)?;
    if !(2..=10).contains(&classes) {
        return Err("--classes must be 2..=10 (the digit generator has ten classes)".to_string());
    }
    let mut gen = DigitGenerator::new(side, seed);
    let mut ds = Dataset::new(gen.matrix(examples));
    ds.normalize();
    let labels = FineTuneModel::row_labels(examples, classes);

    let sizes = parse_sizes(args, ds.dim())?;
    let passes = positive(args, "passes", 8)?;
    let epochs = positive(args, "finetune-epochs", 15)?;
    let (ctx, tc, supervised) = supervision_setup(args, seed)?;

    let mut stack = build_stack(args, &sizes, seed);
    if supervised {
        // The whole pretrain -> fine-tune pipeline runs under one
        // recovery ladder: a fine-tune divergence rolls back the
        // fine-tune leg only, never the finished pre-training.
        return classify_supervised(
            args, &ctx, &ds, &labels, &mut stack, &tc, passes, classes, seed,
        );
    }
    stack
        .pretrain(&ctx, &ds, &tc, passes)
        .map_err(|e| e.to_string())?;
    let mut net = build_finetune_net(args, &stack, classes, seed);
    let history = net.fit(
        &ctx,
        ds.matrix().view(),
        &labels,
        tc.batch_size,
        args.num("lr", 0.5f32)?,
        epochs,
    );
    let acc = net.accuracy(&ctx, ds.matrix().view(), &labels);
    Ok(format!(
        "pre-trained {sizes:?} + softmax({classes})\n\
         fine-tune cross-entropy {:.4} -> {:.4} over {} epochs\n\
         training accuracy: {:.1}% (chance {:.1}%)\n",
        history[0],
        history.last().expect("non-empty"),
        epochs,
        100.0 * acc,
        100.0 / classes as f64
    ))
}

/// The softmax-headed net `classify` fine-tunes on top of `stack`.
fn build_finetune_net(
    args: &Args,
    stack: &StackedAutoencoder,
    classes: usize,
    seed: u64,
) -> FineTuneNet {
    let net = FineTuneNet::from_stack(stack, classes, seed ^ 0xF1);
    if args.has("graph-schedule") {
        net.with_graph_schedule()
    } else {
        net
    }
}

/// `classify --supervise`: pretrain and fine-tune as legs of one
/// [`RunSupervisor`], sharing a single recovery-ladder budget.
#[allow(clippy::too_many_arguments)]
fn classify_supervised(
    args: &Args,
    ctx: &ExecCtx,
    ds: &Dataset,
    labels: &[usize],
    stack: &mut StackedAutoencoder,
    tc: &TrainConfig,
    passes: usize,
    classes: usize,
    seed: u64,
) -> Result<String, String> {
    let mut sup = build_supervisor(args, tc, None)?;
    sup.pretrain(stack, ctx, ds, tc, passes)
        .map_err(|e| e.to_string())?;
    let net = build_finetune_net(args, stack, classes, seed);
    let mut model = FineTuneModel::new(net, ds.len() as u64);
    let ft_tc = TrainConfig {
        learning_rate: args.num("lr", 0.5f32)?,
        ..tc.clone()
    };
    let report = sup
        .run_leg(
            &mut model,
            ctx,
            ds,
            &ft_tc,
            positive(args, "finetune-epochs", 15)?,
            Stage::FineTune,
            0,
            0,
        )
        .map_err(|e| e.to_string())?;
    let acc = model.net.accuracy(ctx, ds.matrix().view(), labels);
    let log = sup.into_log();
    let mut out = format!(
        "pre-trained {:?} + softmax({classes}) under supervision\n\
         fine-tune cross-entropy {:.4} -> {:.4}\n\
         training accuracy: {:.1}% (chance {:.1}%)\n\
         supervisor: {} incident(s) recorded\n",
        stack.sizes(),
        report.initial_recon(),
        report.final_recon(),
        100.0 * acc,
        100.0 / classes as f64,
        log.incidents.len(),
    );
    if let Some(path) = args.get("incidents") {
        log.save_jsonl(path)
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        out.push_str(&format!("wrote incident log to {path}\n"));
    }
    Ok(out)
}

fn cmd_features(args: &Args) -> Result<String, String> {
    let model_path = args.get("model").ok_or("--model FILE is required")?;
    let out_path = args.get("out").ok_or("--out FILE.pgm is required")?;
    let ae = micdnn::load_autoencoder_file(model_path).map_err(|e| e.to_string())?;
    let visible = ae.config().n_visible;
    let side = args.num("side", (visible as f64).sqrt() as usize)?;
    if side * side != visible {
        return Err(format!(
            "--side {side} does not tile the model's {visible} inputs (need side x side = {visible})"
        ));
    }
    let n_hidden = ae.config().n_hidden;
    let units = positive(args, "units", n_hidden.min(64))?.min(n_hidden);
    let grid_cols = (units as f64).sqrt().ceil() as usize;
    let grid = micdnn::feature_grid(&ae, units, side, grid_cols.max(1));
    micdnn::write_pgm(out_path, &grid).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {units} features ({side}x{side} each) to {out_path}\n"
    ))
}

/// `serve`: closed-loop batched inference over a synthetic request trace.
///
/// Builds a randomly-initialized fine-tune net over `--sizes`, generates a
/// deterministic arrival schedule (`--pattern steady|bursty` at `--rate`
/// requests/s), and drives the dynamic micro-batching event loop:
/// requests coalesce until `--max-batch` or `--max-wait-us`, arrivals past
/// `--queue-cap` bounce with a typed Overloaded rejection, and per-request
/// latencies flow through the attached profiler (`serve.request`).
/// `--inject kernel.nan:...` (failpoints builds) poisons batch lanes to
/// demonstrate one-request degradation.
fn cmd_serve(args: &Args, seed: u64) -> Result<String, String> {
    let n_req = args.num("requests", 256usize)?;
    if n_req == 0 {
        return Err("--requests must be at least 1".to_string());
    }
    let rate: f64 = args.num("rate", 1000.0f64)?;
    if rate <= 0.0 || !rate.is_finite() {
        return Err("--rate must be positive".to_string());
    }
    let classes = args.num("classes", 10usize)?;
    let ds = load_data(args, n_req.min(512), seed)?;
    let sizes = parse_sizes(args, ds.dim())?;
    let net = FineTuneNet::random(&sizes, classes, seed ^ 0xF1);

    if let Some(list) = args.get("inject") {
        micdnn::faults::configure_list(list).map_err(|e| format!("--inject: {e}"))?;
    }

    let level = parse_level(args)?;
    let profiler = micdnn::Profiler::new();
    let ctx = match parse_platform(args)? {
        Some(p) => ExecCtx::simulated(level, p, seed),
        None => ExecCtx::native(level, seed),
    }
    .with_profiler(profiler.clone());

    let pattern_name = args.get("pattern").unwrap_or("steady").to_string();
    let pattern = match pattern_name.as_str() {
        "steady" => ArrivalPattern::Steady,
        "bursty" => ArrivalPattern::Bursty {
            burst: args.num("burst", 16usize)?,
        },
        other => return Err(format!("unknown --pattern `{other}` (steady|bursty)")),
    };
    let sched = ArrivalSchedule::new(n_req, rate, pattern, seed);
    let requests: Vec<Request> = sched
        .times()
        .iter()
        .enumerate()
        .map(|(i, &t)| Request {
            arrival_secs: t,
            input: ds.matrix().row(i % ds.len()).to_vec(),
        })
        .collect();

    let cfg = ServeConfig {
        max_batch: args.num("max-batch", 32usize)?,
        max_wait_secs: args.num("max-wait-us", 2_000u64)? as f64 * 1e-6,
        queue_cap: args.num("queue-cap", 128usize)?,
    };
    let run = serve_requests(&net, &ctx, &cfg, &requests)
        .map_err(|e| format!("--max-batch/--max-wait-us/--queue-cap: {e}"))?;
    let r = &run.report;
    let mut out = format!(
        "served {} request(s) ({} @ {:.0} rps) through {:?} -> {} classes on {}\n\
         policy: max_batch {}  max_wait {} us  queue_cap {}\n\
         completed {}  rejected {}  failed {}  batches {} (mean {:.1} rows)\n\
         makespan {:.4} s  throughput {:.1} req/s\n\
         latency mean {:.3} ms  p50 {:.3} ms  p99 {:.3} ms  max {:.3} ms\n",
        n_req,
        pattern_name,
        rate,
        sizes,
        classes,
        ctx.platform().map_or("native", |p| p.label.as_str()),
        cfg.max_batch,
        cfg.max_wait_secs * 1e6,
        cfg.queue_cap,
        r.completed,
        r.rejected,
        r.failed,
        r.batches,
        r.mean_batch_rows,
        r.makespan_secs,
        r.throughput_rps,
        r.mean_latency_secs * 1e3,
        r.p50_latency_secs * 1e3,
        r.p99_latency_secs * 1e3,
        r.max_latency_secs * 1e3,
    );
    if args.has("profile") {
        let profile = ctx.profile_report().expect("profiler attached");
        out.push('\n');
        out.push_str(&profile.render());
    }
    if let Some(path) = args.get("json") {
        let text = serde_json::to_string_pretty(r).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("cannot write `{path}`: {e}"))?;
        out.push_str(&format!("wrote serve report JSON to {path}\n"));
    }
    Ok(out)
}

/// `verify`: run the certification pipeline over every shipped task graph
/// and render (optionally export) the `micdnn-verify-v1` report.
///
/// Each graph gets the full static pass — the safety verifier plus shape
/// inference, the determinism audit and the per-device peak-memory proof —
/// against the modeled card budget. The graph set is fixed (the same
/// shapes the training, serving and pipeline paths ship), so the exported
/// JSON is deterministic and CI diffs it against the committed
/// `VERIFY_report.json`. Any finding makes the command exit nonzero.
fn cmd_verify(args: &Args) -> Result<String, String> {
    use micdnn::ae_graph::{build_ae_graph, AeUpdate};
    use micdnn::cd_graph::build_cd_graph;
    use micdnn::finetune::build_step_graph;
    use micdnn::{build_cnn_graph, build_forward_graph, CertifyBundle, StackedAutoencoder};

    let devices: usize = args.num("devices", 1usize)?;
    if devices == 0 {
        return Err("--devices must be at least 1".to_string());
    }
    // The proof budget is the modeled per-card capacity of the device set
    // the graphs would deploy onto — the paper's 8 GB Phi at any count —
    // so the report is identical across the CI device matrix.
    let budget = MultiDevConfig::new(devices).mem_budget();

    let mut docs = Vec::new();
    let g = build_ae_graph(1024, 4096, 100, AeUpdate::Sgd);
    docs.push(g.certify(budget).to_doc("ae-step-1024x4096-b100"));
    for k in [1usize, 3] {
        let g = build_cd_graph(1024, 4096, 100, k);
        docs.push(
            g.certify(budget)
                .to_doc(&format!("cd{k}-step-1024x4096-b100")),
        );
    }
    let g = build_step_graph(784, &[512, 256], 10, 200);
    docs.push(g.certify(budget).to_doc("finetune-784-512-256-c10-cap200"));
    let g = build_cnn_graph(CnnConfig::digits(12), 64);
    docs.push(g.certify(budget).to_doc("cnn-digits12-cap64"));
    let (g, _) = build_forward_graph(784, &[512, 256], 10, 200);
    docs.push(
        g.certify(budget)
            .to_doc("serve-forward-784-512-256-c10-cap200"),
    );
    // The pipelined pre-training schedule at one, two and four cards (the
    // stack depth sets the device count: one card per layer).
    for sizes in [
        vec![256usize, 128],
        vec![256, 128, 64],
        vec![256, 128, 64, 32, 16],
    ] {
        let stack = StackedAutoencoder::with_default_config(&sizes, 7);
        let tc = TrainConfig {
            batch_size: 50,
            chunk_rows: 100,
            ..TrainConfig::default()
        };
        let g = stack.pipeline_graph(&tc, 200, 2);
        let widths: Vec<String> = sizes.iter().map(|s| s.to_string()).collect();
        let name = format!("pipeline-d{}-{}", sizes.len() - 1, widths.join("-"));
        docs.push(g.certify(budget).to_doc(&name));
    }

    let bundle = CertifyBundle::new(docs);
    let mut out = format!(
        "certify: {} graph(s), budget {budget} B/device\n",
        bundle.graphs.len()
    );
    for doc in &bundle.graphs {
        let peak = doc
            .device_peaks
            .iter()
            .map(|p| p.peak_bytes)
            .max()
            .unwrap_or(0);
        out.push_str(&format!(
            "  {:<42} {:>4} nodes  {:>3} waves  {} device(s)  peak {:>11} B  {} error(s), {} warning(s)\n",
            doc.graph, doc.nodes, doc.waves, doc.devices, peak, doc.errors, doc.warnings
        ));
    }
    if let Some(path) = args.get("json") {
        let text = serde_json::to_string_pretty(&bundle).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("cannot write `{path}`: {e}"))?;
        out.push_str(&format!("wrote verify report to {path}\n"));
    }
    if bundle.is_clean() {
        out.push_str("all graphs certified clean\n");
        Ok(out)
    } else {
        for doc in &bundle.graphs {
            for f in &doc.findings {
                out.push_str(&format!(
                    "  {}: {}[{}] {}\n",
                    doc.graph, f.severity, f.rule, f.message
                ));
            }
        }
        Err(format!("{out}certification FAILED"))
    }
}

fn cmd_estimate(args: &Args) -> Result<String, String> {
    let w = Workload {
        algo: match args.get("algo").unwrap_or("ae") {
            "ae" => Algo::Autoencoder,
            "rbm" => Algo::Rbm,
            other => return Err(format!("unknown --algo `{other}`")),
        },
        n_visible: positive(args, "visible", 1024)?,
        n_hidden: positive(args, "hidden", 4096)?,
        examples: args.num("examples", 100_000usize)?,
        batch: positive(args, "batch", 1000)?,
        chunk_rows: positive(args, "chunk", 10_000)?,
        passes: positive(args, "passes", 1)?,
    };
    let mut out = format!(
        "workload: {:?} {}x{}, {} examples, batch {}\n",
        w.algo, w.n_visible, w.n_hidden, w.examples, w.batch
    );
    let rows = [
        (Platform::xeon_phi(), OptLevel::Improved),
        (Platform::xeon_phi_cores(30), OptLevel::Improved),
        (Platform::cpu_socket(), OptLevel::Improved),
        (Platform::cpu_single_core(), OptLevel::Improved),
        (Platform::matlab_host(), OptLevel::SequentialBlas),
    ];
    for (platform, level) in rows {
        let label = platform.label.clone();
        let e = estimate(level, platform, Link::pcie_gen2(), true, &w);
        out.push_str(&format!("  {label:<26}{:>12.1} s\n", e.total_secs));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parser_handles_pairs_and_switches() {
        let a = Args::parse(&sv(&["--visible", "64", "--pcd", "--lr", "0.5"])).unwrap();
        assert_eq!(a.get("visible"), Some("64"));
        assert!(a.has("pcd"));
        assert!(!a.has("momentum"));
        assert_eq!(a.num("lr", 0.0f32).unwrap(), 0.5);
        assert_eq!(a.num("batch", 100usize).unwrap(), 100);
        assert!(a.num::<usize>("visible", 0).unwrap() == 64);
    }

    #[test]
    fn arg_parser_rejects_positional() {
        assert!(Args::parse(&sv(&["oops"])).is_err());
        assert!(!Args::parse(&sv(&["--x", "1", "stray"]))
            .unwrap_err()
            .is_empty());
    }

    #[test]
    fn unknown_command_reports_usage() {
        let err = run(&sv(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&sv(&["help"])).unwrap();
        assert!(out.contains("train-ae"));
        assert!(out.contains("estimate"));
    }

    #[test]
    fn zero_valued_count_flags_are_cli_errors_not_panics() {
        // Every training subcommand, in each mode that reads the counts
        // through a different path.
        let cmds: [&[&str]; 14] = [
            &["train", "--algo", "ae"],
            &["train", "--algo", "rbm"],
            &["train", "--algo", "cnn"],
            &["train", "--supervise"],
            &["train", "--devices", "2"],
            &["train-ae"],
            &["train-rbm"],
            &["train-rbm", "--pcd"],
            &["pretrain"],
            &["pretrain", "--pipeline"],
            &["classify"],
            &["classify", "--supervise"],
            &["profile"],
            &["estimate"],
        ];
        for cmd in cmds {
            let mut flags = vec!["batch", "chunk", "passes"];
            if cmd[0] == "classify" {
                flags.push("finetune-epochs");
            }
            // `pretrain`/`classify` take their widths from `--sizes`.
            if !matches!(cmd[0], "pretrain" | "classify") {
                flags.push("hidden");
            }
            if cmd[0] == "estimate" {
                flags.push("visible");
            }
            for flag in flags {
                let mut argv = sv(cmd);
                argv.extend(sv(&["--examples", "40", "--side", "8"]));
                argv.extend([format!("--{flag}"), "0".to_string()]);
                let outcome = std::panic::catch_unwind(|| run(&argv));
                let err = outcome
                    .unwrap_or_else(|_| panic!("{argv:?} panicked"))
                    .expect_err(&format!("{argv:?} accepted a zero count"));
                assert_eq!(err, format!("--{flag} must be at least 1"), "{argv:?}");
            }
        }
        // Sizes with another floor, and flags a mode would silently ignore.
        let rejected: [(&[&str], &str); 6] = [
            (&["classify", "--side", "7"], "--side must be at least 8"),
            (&["train-ae", "--side", "0"], "--side must be at least 8"),
            (&["serve", "--side", "4"], "--side must be at least 8"),
            (
                &["train-ae", "--data", "patches", "--side", "3"],
                "--side must be at least 4",
            ),
            (
                &["train-rbm", "--pcd", "--side", "8", "--momentum", "0.5"],
                "--momentum is not supported with --pcd (plain persistent chains only)",
            ),
            (
                &["train-rbm", "--pcd", "--side", "8", "--graph-schedule"],
                "--graph-schedule is not supported with --pcd (plain persistent chains only)",
            ),
        ];
        for (cmd, want) in rejected {
            let mut argv = sv(cmd);
            argv.extend(sv(&["--examples", "40"]));
            let outcome = std::panic::catch_unwind(|| run(&argv));
            let err = outcome
                .unwrap_or_else(|_| panic!("{argv:?} panicked"))
                .expect_err(&format!("{argv:?} was accepted"));
            assert_eq!(err, want, "{argv:?}");
        }
    }

    #[test]
    fn train_ae_end_to_end_tiny() {
        let out = run(&sv(&[
            "train-ae",
            "--examples",
            "120",
            "--side",
            "10",
            "--hidden",
            "24",
            "--passes",
            "4",
            "--batch",
            "30",
            "--chunk",
            "60",
        ]))
        .unwrap();
        assert!(
            out.contains("trained sparse autoencoder 100 -> 24"),
            "{out}"
        );
    }

    #[test]
    fn train_ae_with_momentum_and_sim_platform() {
        let out = run(&sv(&[
            "train-ae",
            "--examples",
            "100",
            "--side",
            "8",
            "--hidden",
            "16",
            "--passes",
            "3",
            "--batch",
            "25",
            "--chunk",
            "50",
            "--momentum",
            "0.8",
            "--platform",
            "phi",
        ]))
        .unwrap();
        assert!(out.contains("simulated time"), "{out}");
    }

    #[test]
    fn train_rbm_cd_and_pcd() {
        for extra in [&[][..], &["--pcd"][..]] {
            let mut argv = sv(&[
                "train-rbm",
                "--examples",
                "100",
                "--side",
                "8",
                "--hidden",
                "20",
                "--passes",
                "3",
                "--batch",
                "25",
                "--chunk",
                "50",
            ]);
            argv.extend(sv(extra));
            let out = run(&argv).unwrap();
            assert!(out.contains("trained RBM 64 -> 20"), "{out}");
        }
    }

    #[test]
    fn pretrain_and_classify_smoke() {
        let out = run(&sv(&[
            "pretrain",
            "--examples",
            "150",
            "--side",
            "10",
            "--sizes",
            "40,16",
            "--passes",
            "3",
            "--batch",
            "30",
            "--chunk",
            "75",
        ]))
        .unwrap();
        assert!(out.contains("layer 2 (40 -> 16)"), "{out}");

        let out = run(&sv(&[
            "classify",
            "--examples",
            "120",
            "--side",
            "10",
            "--sizes",
            "40,16",
            "--classes",
            "4",
            "--passes",
            "2",
            "--finetune-epochs",
            "6",
            "--batch",
            "30",
            "--chunk",
            "60",
        ]))
        .unwrap();
        assert!(out.contains("training accuracy"), "{out}");
    }

    #[test]
    fn save_features_round_trip() {
        let dir = micdnn::TestDir::new("cli-features");
        let model = dir.file("model.bin");
        let pgm = dir.file("features.pgm");
        run(&sv(&[
            "train-ae",
            "--examples",
            "80",
            "--side",
            "8",
            "--hidden",
            "9",
            "--passes",
            "2",
            "--batch",
            "20",
            "--chunk",
            "40",
            "--save",
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&sv(&[
            "features",
            "--model",
            model.to_str().unwrap(),
            "--side",
            "8",
            "--out",
            pgm.to_str().unwrap(),
            "--units",
            "9",
        ]))
        .unwrap();
        assert!(out.contains("wrote 9 features"), "{out}");
        assert!(std::fs::metadata(&pgm).unwrap().len() > 0);
        // A side that does not tile the model's inputs is a CLI error.
        let model = model.to_str().unwrap();
        let err = run(&sv(&[
            "features", "--model", model, "--side", "0", "--out", "x",
        ]));
        assert!(err.unwrap_err().starts_with("--side 0 does not tile"));
    }

    /// A saved 16 -> 5 autoencoder for the `features` tests; `poison` puts
    /// a NaN in its encoder weights.
    fn features_model(dir: &micdnn::TestDir, poison: bool) -> String {
        let mut ae = SparseAutoencoder::new(AeConfig::new(16, 5), 3);
        if poison {
            ae.w1.as_mut_slice()[7] = f32::NAN;
        }
        let path = dir.file("model.bin");
        micdnn::save_autoencoder_file(&ae, &path).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn features_rejects_non_finite_weights_and_writes_nothing() {
        let dir = micdnn::TestDir::new("cli-features-nan");
        let model = features_model(&dir, true);
        let pgm = dir.file("features.pgm");
        let out = pgm.to_str().unwrap();
        let err = run(&sv(&["features", "--model", &model, "--out", out])).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
        assert!(!pgm.exists(), "a broken model must not leave an image");
    }

    #[test]
    fn features_clamps_units_to_the_hidden_layer() {
        let dir = micdnn::TestDir::new("cli-features-units");
        let model = features_model(&dir, false);
        let pgm = dir.file("features.pgm");
        let out = pgm.to_str().unwrap();
        let msg = run(&sv(&[
            "features", "--model", &model, "--out", out, "--units", "1000",
        ]))
        .unwrap();
        assert!(msg.starts_with("wrote 5 features"), "{msg}");
        // Five units tile a 3-column grid of 4x4 images: 3 * (4 + 1) + 1.
        let bytes = std::fs::read(&pgm).unwrap();
        assert!(
            bytes.starts_with(b"P5\n16 "),
            "grid sized for the clamped count"
        );
    }

    #[test]
    fn features_rejects_zero_units() {
        let dir = micdnn::TestDir::new("cli-features-zero");
        let model = features_model(&dir, false);
        let out = dir.file("features.pgm");
        let err = run(&sv(&[
            "features",
            "--model",
            &model,
            "--out",
            out.to_str().unwrap(),
            "--units",
            "0",
        ]));
        assert_eq!(err.unwrap_err(), "--units must be at least 1");
    }

    #[test]
    fn estimate_prints_all_platforms() {
        let out = run(&sv(&[
            "estimate",
            "--visible",
            "256",
            "--hidden",
            "512",
            "--examples",
            "10000",
            "--batch",
            "100",
        ]))
        .unwrap();
        assert!(out.contains("Xeon Phi (60 cores)"));
        assert!(out.contains("Matlab"));
    }

    #[test]
    fn profile_reports_ops_phases_and_exports() {
        let dir = micdnn::TestDir::new("cli-profile");
        let json = dir.file("profile.json");
        let trace = dir.file("trace.json");
        let out = run(&sv(&[
            "profile",
            "--examples",
            "100",
            "--side",
            "8",
            "--hidden",
            "16",
            "--passes",
            "2",
            "--batch",
            "25",
            "--chunk",
            "50",
            "--json",
            json.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("profiled ae 64 -> 16"), "{out}");
        assert!(out.contains("gemm"), "{out}");
        assert!(out.contains("forward"), "{out}");
        let json_text = std::fs::read_to_string(&json).unwrap();
        assert!(json_text.contains("micdnn-profile-v2"), "{json_text}");
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.contains("traceEvents"), "{trace_text}");
    }

    #[test]
    fn profile_rbm_on_native_backend() {
        let out = run(&sv(&[
            "profile",
            "--algo",
            "rbm",
            "--examples",
            "80",
            "--side",
            "8",
            "--hidden",
            "12",
            "--passes",
            "1",
            "--batch",
            "20",
            "--chunk",
            "40",
            "--platform",
            "native",
        ]))
        .unwrap();
        assert!(out.contains("profiled rbm 64 -> 12"), "{out}");
        assert!(out.contains("update"), "{out}");
    }

    #[test]
    fn graph_schedule_flag_is_bit_identical() {
        for algo in ["train-ae", "train-rbm"] {
            let base = sv(&[
                algo,
                "--examples",
                "100",
                "--side",
                "8",
                "--hidden",
                "16",
                "--passes",
                "3",
                "--batch",
                "25",
                "--chunk",
                "50",
            ]);
            let serial = run(&base).unwrap();
            let mut graphed_args = base.clone();
            graphed_args.push("--graph-schedule".to_string());
            let graphed = run(&graphed_args).unwrap();
            assert_eq!(serial, graphed, "{algo} diverged under --graph-schedule");
        }
    }

    #[test]
    fn verify_flag_checks_graphs_and_changes_nothing() {
        // --verify statically checks every task graph before execution; on
        // the shipped (clean) graphs it must pass and leave the training
        // output bit-identical.
        for algo in ["train-ae", "train-rbm"] {
            let base = sv(&[
                algo,
                "--examples",
                "80",
                "--side",
                "8",
                "--hidden",
                "12",
                "--passes",
                "2",
                "--batch",
                "20",
                "--chunk",
                "40",
                "--graph-schedule",
            ]);
            let plain = run(&base).unwrap();
            let mut verified_args = base.clone();
            verified_args.push("--verify".to_string());
            let verified = run(&verified_args).unwrap();
            assert_eq!(plain, verified, "{algo} diverged under --verify");
        }
    }

    #[test]
    fn supervised_fault_free_run_matches_plain_train() {
        // With no faults armed the supervisor is pure bookkeeping: the
        // training lines must match the unsupervised run bit-for-bit and
        // the incident log must be empty.
        let base = sv(&[
            "train",
            "--examples",
            "100",
            "--side",
            "8",
            "--hidden",
            "12",
            "--passes",
            "2",
            "--batch",
            "25",
            "--chunk",
            "50",
        ]);
        let plain = run(&base).unwrap();
        let mut argv = base.clone();
        argv.push("--supervise".to_string());
        let supervised = run(&argv).unwrap();
        assert!(
            supervised.contains("supervisor: 0 incident(s) recorded"),
            "{supervised}"
        );
        assert_eq!(
            plain,
            supervised
                .replace("supervisor: 0 incident(s) recorded\n", "")
                .replace("supervisor: ladder rollbacks 0, restarts 0, lr x1\n", ""),
            "supervision changed the training output"
        );
    }

    #[test]
    fn incidents_export_writes_schema_json() {
        let dir = micdnn::TestDir::new("cli-incidents");
        let path = dir.file("incidents.json");
        let out = run(&sv(&[
            "train",
            "--examples",
            "80",
            "--side",
            "8",
            "--hidden",
            "10",
            "--passes",
            "1",
            "--batch",
            "20",
            "--chunk",
            "40",
            "--incidents",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote incident log to"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        // v2 JSONL: a schema header line, then one record per line.
        assert!(
            text.starts_with("{\"schema\":\"micdnn-incidents-v2\"}\n"),
            "{text}"
        );
        // The pretty-printer reads it back.
        let pretty = run(&sv(&["incidents", path.to_str().unwrap()])).unwrap();
        assert!(pretty.contains("micdnn-incidents-v2"), "{pretty}");
    }

    #[test]
    fn bad_supervise_policy_is_rejected_before_training() {
        for backoff in ["0", "-1", "NaN"] {
            let err = run(&sv(&[
                "train",
                "--examples",
                "40",
                "--side",
                "8",
                "--supervise",
                "--lr-backoff",
                backoff,
            ]))
            .unwrap_err();
            assert!(err.contains("lr_backoff"), "{backoff}: {err}");
        }
    }

    #[test]
    fn resumed_graph_schedule_is_checkpointed_flag_or_cli_flag_for_every_algo() {
        let cnn = |graph: bool| {
            let model = CnnModel::new(CnnNet::new(CnnConfig::digits(8), 1), 20);
            if graph {
                model.with_graph_schedule()
            } else {
                model
            }
        };
        let none = Args::default();
        for (saved_flag, cli_flag) in [(false, false), (false, true), (true, false), (true, true)] {
            let args = if cli_flag {
                Args::parse(&sv(&["--graph-schedule"])).unwrap()
            } else {
                Args::default()
            };
            let want = saved_flag || cli_flag;

            let saved = CheckpointModel::Ae(build_ae(&none, 8, 4, 1, saved_flag).unwrap());
            let graph = graph_flag(&args, Some(&saved));
            let mut ae = build_ae(&args, 8, 4, 2, graph).unwrap();
            ae.restore_state(saved).unwrap();
            assert_eq!(ae.uses_graph(), want, "ae {saved_flag} {cli_flag}");

            let saved = CheckpointModel::Rbm(build_rbm(&none, 8, 4, 1, saved_flag).unwrap());
            let graph = graph_flag(&args, Some(&saved));
            let mut rbm = build_rbm(&args, 8, 4, 2, graph).unwrap();
            rbm.restore_state(saved).unwrap();
            assert_eq!(rbm.uses_graph(), want, "rbm {saved_flag} {cli_flag}");

            let saved = CheckpointModel::Cnn(cnn(saved_flag));
            let mut model = cnn(graph_flag(&args, Some(&saved)));
            model.restore_state(saved).unwrap();
            assert_eq!(model.net.uses_graph(), want, "cnn {saved_flag} {cli_flag}");

            // A fresh run has only the command line to go by.
            assert_eq!(graph_flag(&args, None), cli_flag);
        }
    }

    #[test]
    fn train_resume_honours_graph_schedule_for_rbm_and_cnn() {
        // The flag byte of the checkpoint the resumed leg writes shows
        // whether `--resume --graph-schedule` reached the model.
        for algo in ["rbm", "cnn"] {
            let dir = micdnn::TestDir::new(&format!("cli-resume-graph-{algo}"));
            let ckpt = dir.path().to_str().unwrap();
            let base = [
                "train",
                "--algo",
                algo,
                "--examples",
                "40",
                "--side",
                "8",
                "--hidden",
                "6",
                "--kernel",
                "3",
                "--batch",
                "20",
                "--chunk",
                "40",
                "--checkpoint-dir",
                ckpt,
            ];
            let mut first = sv(&base);
            first.extend(sv(&["--passes", "1"]));
            run(&first).unwrap();
            let mut second = sv(&base);
            second.extend(sv(&["--passes", "2", "--resume", "--graph-schedule"]));
            let out = run(&second).unwrap();
            assert!(out.contains("resumed"), "{out}");
            let file = dir.file(micdnn::checkpoint::CHECKPOINT_FILE);
            let saved = micdnn::load_checkpoint_file(&file).unwrap().model;
            assert!(graph_flag(&Args::default(), Some(&saved)), "{algo}");
        }
    }

    #[cfg(not(feature = "failpoints"))]
    #[test]
    fn inject_without_failpoints_feature_reports_clear_error() {
        let err = run(&sv(&["train", "--inject", "loader.read:1"])).unwrap_err();
        assert!(err.contains("failpoints"), "{err}");
    }

    #[test]
    fn train_multidevice_is_device_count_invariant() {
        // Same seed and global batch, different shard counts: the printed
        // reconstruction trajectory must be identical (the canonical-block
        // merge is pinned bitwise in the core test suite; this checks the
        // CLI wiring end to end).
        for algo in ["ae", "rbm"] {
            let run_n = |n: &str| {
                run(&sv(&[
                    "train",
                    "--algo",
                    algo,
                    "--examples",
                    "90",
                    "--side",
                    "8",
                    "--hidden",
                    "12",
                    "--passes",
                    "2",
                    "--batch",
                    "30",
                    "--chunk",
                    "45",
                    "--devices",
                    n,
                ]))
                .unwrap()
            };
            let two = run_n("2");
            let four = run_n("4");
            let recon = |s: &str| {
                s.lines()
                    .find(|l| l.starts_with("reconstruction"))
                    .map(str::to_string)
                    .unwrap()
            };
            assert_eq!(
                recon(&two),
                recon(&four),
                "{algo} diverged across --devices"
            );
            assert!(two.contains("multi-device: 2 device(s)"), "{two}");
            assert!(four.contains("multi-device: 4 device(s)"), "{four}");
        }
    }

    #[test]
    fn train_multidevice_parameter_server_and_bad_sync() {
        let out = run(&sv(&[
            "train",
            "--examples",
            "60",
            "--side",
            "8",
            "--hidden",
            "10",
            "--passes",
            "1",
            "--batch",
            "20",
            "--chunk",
            "40",
            "--devices",
            "2",
            "--sync",
            "ps",
        ]))
        .unwrap();
        assert!(out.contains("multi-device: 2 device(s)"), "{out}");
        let err = run(&sv(&["train", "--devices", "2", "--sync", "mesh"])).unwrap_err();
        assert!(err.contains("unknown --sync"), "{err}");
        let err = run(&sv(&["train", "--devices", "0"])).unwrap_err();
        assert!(err.contains("at least one device"), "{err}");
    }

    #[test]
    fn degenerate_multidevice_geometry_fails_typed_before_training() {
        // Every degenerate combination is rejected by config validation —
        // none of these may panic or reach shard setup.
        let err = run(&sv(&["train", "--devices", "2", "--blocks", "0"])).unwrap_err();
        assert!(err.contains("at least one canonical block"), "{err}");
        let err = run(&sv(&["train", "--devices", "4", "--blocks", "3"])).unwrap_err();
        assert!(err.contains("smaller than the device count"), "{err}");
        let err = run(&sv(&["train", "--devices", "0", "--blocks", "8"])).unwrap_err();
        assert!(err.contains("at least one device"), "{err}");
        // More than 8 devices without --blocks widens the default K
        // instead of tripping the blocks >= devices rule.
        let out = run(&sv(&[
            "train",
            "--examples",
            "40",
            "--side",
            "8",
            "--hidden",
            "6",
            "--passes",
            "1",
            "--batch",
            "20",
            "--chunk",
            "40",
            "--devices",
            "9",
        ]))
        .unwrap();
        assert!(out.contains("multi-device: 9 device(s)"), "{out}");
    }

    #[test]
    fn pretrain_pipeline_flag_runs_the_task_graph() {
        let out = run(&sv(&[
            "pretrain",
            "--examples",
            "120",
            "--side",
            "10",
            "--sizes",
            "40,16",
            "--passes",
            "2",
            "--batch",
            "30",
            "--chunk",
            "60",
            "--pipeline",
        ]))
        .unwrap();
        assert!(out.contains("pipelined"), "{out}");
        assert!(out.contains("layer 2 (40 -> 16)"), "{out}");
    }

    #[test]
    fn visible_mismatch_rejected() {
        let err = run(&sv(&[
            "train-ae",
            "--examples",
            "50",
            "--side",
            "8",
            "--visible",
            "100",
        ]))
        .unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn serve_completes_a_bursty_trace_with_batching() {
        let out = run(&sv(&[
            "serve",
            "--requests",
            "40",
            "--rate",
            "5000",
            "--pattern",
            "bursty",
            "--burst",
            "8",
            "--max-batch",
            "8",
            "--max-wait-us",
            "500",
            "--platform",
            "phi",
            "--side",
            "8",
            "--sizes",
            "32,16",
            "--classes",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("completed 40"), "{out}");
        assert!(out.contains("rejected 0"), "{out}");
        assert!(out.contains("batches"), "{out}");
        assert!(out.contains("p99"), "{out}");
    }

    #[test]
    fn serve_overload_reports_typed_rejections() {
        // A near-simultaneous burst against a 2-deep queue with no
        // coalescing: most requests must bounce, and the run still ends.
        let out = run(&sv(&[
            "serve",
            "--requests",
            "32",
            "--rate",
            "1000000",
            "--pattern",
            "bursty",
            "--burst",
            "32",
            "--max-batch",
            "1",
            "--max-wait-us",
            "0",
            "--queue-cap",
            "2",
            "--platform",
            "phi",
            "--side",
            "8",
            "--sizes",
            "16",
            "--classes",
            "3",
        ]))
        .unwrap();
        assert!(!out.contains("rejected 0"), "expected rejections:\n{out}");
        assert!(out.contains("completed"), "{out}");
    }

    #[test]
    fn serve_rejects_degenerate_policy_with_typed_error() {
        let err = run(&sv(&["serve", "--max-batch", "0"])).unwrap_err();
        assert!(err.contains("max_batch must be at least 1"), "{err}");
        let err = run(&sv(&["serve", "--queue-cap", "0"])).unwrap_err();
        assert!(err.contains("queue_cap must be at least 1"), "{err}");
        let err = run(&sv(&["serve", "--pattern", "poisson"])).unwrap_err();
        assert!(err.contains("unknown --pattern"), "{err}");
    }

    #[test]
    fn serve_profile_carries_request_latency_section() {
        let out = run(&sv(&[
            "serve",
            "--requests",
            "12",
            "--rate",
            "2000",
            "--platform",
            "phi",
            "--side",
            "8",
            "--sizes",
            "16",
            "--classes",
            "3",
            "--profile",
        ]))
        .unwrap();
        assert!(out.contains("serve.request"), "{out}");
    }

    #[test]
    fn serve_inject_without_failpoints_reports_clear_error() {
        if cfg!(feature = "failpoints") {
            return; // the armed path is covered by tests/inject.rs
        }
        let err = run(&sv(&["serve", "--inject", "kernel.nan:1"])).unwrap_err();
        assert!(err.contains("failpoints"), "{err}");
    }
}
