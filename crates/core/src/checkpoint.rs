//! Crash-safe checkpoint/resume for long pre-training runs.
//!
//! Table I's workloads run for hours even fully optimized; related
//! many-core trainers (CHAOS, ZNN) run for days. A crash mid-run must not
//! lose the work, so the training loop can periodically snapshot
//! *everything* the run's future depends on into one `MICDNN01` container
//! record (tag 3, versioned):
//!
//! * the model weights (the embedded autoencoder/RBM record),
//! * optimizer state (momentum velocities / AdaGrad accumulators and the
//!   schedule's step counter) or CD momentum velocities,
//! * PCD's persistent chain of fantasy particles,
//! * the RNG sampler position (`(seed, cursor)` of the counter-based
//!   stream allocator — sampling is a pure function of these),
//! * training progress (layer / epoch / batch / example counters).
//!
//! Because chunk and batch boundaries are a deterministic function of the
//! dataset and [`TrainConfig`](crate::train::TrainConfig), replaying the
//! stream and skipping the first `progress.batches` positions puts the
//! resumed run in *exactly* the state of the uninterrupted one: training
//! N epochs, checkpointing, restarting the process and resuming for N
//! more is bit-identical to training 2N epochs straight. The pinned tests
//! in `tests/checkpoint_resume.rs` enforce this for both building blocks.
//!
//! Files are written atomically (tmp + fsync + rename, see
//! [`model_io::atomic_write`](crate::model_io::atomic_write)): an
//! interrupted save leaves the previous checkpoint intact.

use crate::autoencoder::SparseAutoencoder;
use crate::cnn::{CnnConfig, CnnModel, CnnNet};
use crate::exec::ExecCtx;
use crate::finetune::{FineTuneModel, FineTuneNet, SoftmaxLayer};
use crate::labeled::{LabeledModel, LabeledNet};
use crate::model_io::{
    atomic_write, bad, checked_dim, checked_elems, read_any_header, read_autoencoder_body,
    read_f32, read_f64, read_header, read_mat, read_rbm_body, read_u64, read_vec, save_autoencoder,
    save_rbm, write_f32, write_f64, write_header, write_mat, write_slice, write_u64, ShapeMismatch,
    TAG_AE, TAG_CKPT, TAG_CNN, TAG_FT, TAG_MDP, TAG_RBM,
};
use crate::optim::{Optimizer, Rule, Schedule};
use crate::train::{AeModel, RbmModel, UnsupervisedModel};
use micdnn_tensor::Mat;
use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// Checkpoint record version; bump on any layout change.
pub(crate) const CHECKPOINT_VERSION: u64 = 1;

/// Default checkpoint file name inside a checkpoint directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.mic";

/// When and where the training loop writes checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointPolicy {
    /// Directory holding `checkpoint.mic` (created on first write).
    pub dir: PathBuf,
    /// Write a checkpoint every N batch positions (0 = only at the end of
    /// the run and on loader errors).
    pub every_batches: u64,
}

impl CheckpointPolicy {
    /// Checkpoints into `dir` every `every_batches` batches.
    pub fn new(dir: impl Into<PathBuf>, every_batches: u64) -> Self {
        CheckpointPolicy {
            dir: dir.into(),
            every_batches,
        }
    }

    /// The checkpoint file path this policy writes to.
    pub fn file(&self) -> PathBuf {
        self.dir.join(CHECKPOINT_FILE)
    }
}

/// Position of a run at checkpoint time. Batch/example counters are
/// cumulative since epoch 0, so they double as the resume skip count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainProgress {
    /// Stacked pre-training layer index (0 for single-model runs).
    pub layer: u64,
    /// Completed epochs (batches / batches-per-epoch).
    pub epoch: u64,
    /// Batch positions trained since the start of the run.
    pub batches: u64,
    /// Examples consumed since the start of the run.
    pub examples: u64,
}

/// The model (and its training state) stored in a checkpoint.
#[derive(Debug)]
pub enum CheckpointModel {
    /// A sparse autoencoder with its optional optimizer.
    Ae(AeModel),
    /// An RBM with its graph flag, optional CD momentum and, under PCD, its
    /// chain.
    Rbm(RbmModel),
    /// A multi-device replica set: device geometry, per-device RNG
    /// cursors, offline flags, and the replicated model.
    MultiDev(crate::multidev::MultiDevState),
    /// A convolutional classifier with its graph flag and label cursor.
    Cnn(CnnModel),
    /// A fine-tuning net (encoder stack + softmax head) with its graph
    /// flag and label cursor.
    FineTune(FineTuneModel),
}

/// A loaded checkpoint: everything needed to continue the run.
#[derive(Debug)]
pub struct Checkpoint {
    /// Sampler seed at save time.
    pub rng_seed: u64,
    /// Sampler streams issued at save time.
    pub rng_cursor: u64,
    /// Where the run stood.
    pub progress: TrainProgress,
    /// The restored model.
    pub model: CheckpointModel,
}

impl Checkpoint {
    /// Restores the context's sampler so stochastic ops continue the
    /// checkpointed sequence bit-identically.
    pub fn restore_rng(&self, ctx: &ExecCtx) {
        ctx.restore_rng(self.rng_seed, self.rng_cursor);
    }

    /// The embedded autoencoder model, if this is an AE checkpoint.
    pub fn into_ae(self) -> Option<AeModel> {
        match self.model {
            CheckpointModel::Ae(m) => Some(m),
            _ => None,
        }
    }

    /// The embedded RBM model, if this is an RBM checkpoint.
    pub fn into_rbm(self) -> Option<RbmModel> {
        match self.model {
            CheckpointModel::Rbm(m) => Some(m),
            _ => None,
        }
    }

    /// The embedded CNN model, if this is a CNN checkpoint.
    pub fn into_cnn(self) -> Option<CnnModel> {
        CnnNet::from_checkpoint(self.model).ok()
    }

    /// The embedded fine-tune model, if this is a fine-tune checkpoint.
    pub fn into_finetune(self) -> Option<FineTuneModel> {
        FineTuneNet::from_checkpoint(self.model).ok()
    }
}

// ---- rule / schedule wire encoding -------------------------------------

fn write_rule(w: &mut impl Write, rule: Rule) -> io::Result<()> {
    match rule {
        Rule::Sgd => w.write_all(&[0]),
        Rule::Momentum { mu } => {
            w.write_all(&[1])?;
            write_f32(w, mu)
        }
        Rule::AdaGrad { eps } => {
            w.write_all(&[2])?;
            write_f32(w, eps)
        }
    }
}

/// Reads one byte: a tag, a flag or the RBM record's mode byte.
fn read_byte(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_rule(r: &mut impl Read) -> io::Result<Rule> {
    match read_byte(r)? {
        0 => Ok(Rule::Sgd),
        1 => Ok(Rule::Momentum { mu: read_f32(r)? }),
        2 => Ok(Rule::AdaGrad { eps: read_f32(r)? }),
        t => Err(bad(format!("unknown optimizer rule tag {t}"))),
    }
}

fn write_schedule(w: &mut impl Write, s: Schedule) -> io::Result<()> {
    match s {
        Schedule::Constant(r) => {
            w.write_all(&[0])?;
            write_f32(w, r)
        }
        Schedule::Step {
            base,
            factor,
            every,
        } => {
            w.write_all(&[1])?;
            write_f32(w, base)?;
            write_f32(w, factor)?;
            write_u64(w, every)
        }
        Schedule::Exponential { base, gamma } => {
            w.write_all(&[2])?;
            write_f32(w, base)?;
            write_f32(w, gamma)
        }
        Schedule::InvSqrt { base, t0 } => {
            w.write_all(&[3])?;
            write_f32(w, base)?;
            write_f64(w, t0)
        }
    }
}

fn read_schedule(r: &mut impl Read) -> io::Result<Schedule> {
    match read_byte(r)? {
        0 => Ok(Schedule::Constant(read_f32(r)?)),
        1 => Ok(Schedule::Step {
            base: read_f32(r)?,
            factor: read_f32(r)?,
            every: read_u64(r)?,
        }),
        2 => Ok(Schedule::Exponential {
            base: read_f32(r)?,
            gamma: read_f32(r)?,
        }),
        3 => Ok(Schedule::InvSqrt {
            base: read_f32(r)?,
            t0: read_f64(r)?,
        }),
        t => Err(bad(format!("unknown schedule tag {t}"))),
    }
}

// ---- per-model state records -------------------------------------------

/// Writes an AE checkpoint body: embedded AE record + optimizer section.
pub(crate) fn write_ae_state(model: &AeModel, w: &mut dyn Write) -> io::Result<()> {
    let mut w = w;
    save_autoencoder(&model.ae, &mut w)?;
    match model.optimizer() {
        None => w.write_all(&[0]),
        Some(opt) => {
            w.write_all(&[1])?;
            write_rule(&mut w, opt.rule())?;
            write_schedule(&mut w, opt.schedule())?;
            write_u64(&mut w, opt.steps())?;
            let slots = opt.state_slots();
            write_u64(&mut w, slots.len() as u64)?;
            for s in slots {
                write_slice(&mut w, s)?;
            }
            Ok(())
        }
    }
}

fn read_ae_state(r: &mut impl Read) -> io::Result<AeModel> {
    let ae = read_autoencoder_body(r)?;
    let slot_lens = SparseAutoencoder::optimizer_slots(ae.config());
    let model = AeModel::new(ae);
    if !read_flag(r, "optimizer-present")? {
        return Ok(model);
    }
    let rule = read_rule(r)?;
    let schedule = read_schedule(r)?;
    let steps = read_u64(r)?;
    let n_slots = read_u64(r)?;
    if n_slots != slot_lens.len() as u64 {
        return Err(bad(format!(
            "optimizer has {n_slots} slots, model needs {}",
            slot_lens.len()
        )));
    }
    let mut state = Vec::with_capacity(slot_lens.len());
    for &len in &slot_lens {
        let expect = match rule {
            Rule::Sgd => 0,
            Rule::Momentum { .. } | Rule::AdaGrad { .. } => len,
        };
        state.push(read_vec(r, None, expect)?);
    }
    Ok(model.with_optimizer(Optimizer::restore(rule, schedule, steps, state)))
}

/// Bit of the RBM record's mode byte announcing a PCD chain section.
const RBM_PCD: u8 = 2;

/// Writes an RBM checkpoint body: embedded RBM record, the mode byte (bit
/// 0 the graph flag, bit 1 PCD), the momentum section and, under PCD, the
/// chain section: its row count and width, then the particles. CD records
/// keep bit 1 clear and carry no chain, so files from before PCD load.
pub(crate) fn write_rbm_state(model: &RbmModel, w: &mut dyn Write) -> io::Result<()> {
    let mut w = w;
    save_rbm(&model.rbm, &mut w)?;
    let chain = model.pcd_chain();
    let pcd = if chain.is_some() { RBM_PCD } else { 0 };
    w.write_all(&[u8::from(model.uses_graph()) | pcd])?;
    match model.momentum_parts() {
        None => w.write_all(&[0])?,
        Some((mu, vw, vb, vc)) => {
            w.write_all(&[1])?;
            write_f32(&mut w, mu)?;
            write_slice(&mut w, vw)?;
            write_slice(&mut w, vb)?;
            write_slice(&mut w, vc)?;
        }
    }
    let Some(chain) = chain else { return Ok(()) };
    write_u64(&mut w, chain.rows() as u64)?;
    write_u64(&mut w, chain.cols() as u64)?;
    write_slice(&mut w, chain.as_slice())
}

/// Reads a one-byte boolean: the graph-schedule flag of the CNN and
/// fine-tune records, or the byte announcing an optional optimizer or
/// momentum section. `what` names it in the error for any other value.
fn read_flag(r: &mut impl Read, what: &str) -> io::Result<bool> {
    match read_byte(r)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(bad(format!("bad {what} flag {t}"))),
    }
}

fn read_rbm_state(r: &mut impl Read) -> io::Result<RbmModel> {
    let rbm = read_rbm_body(r)?;
    let cfg = *rbm.config();
    let mode = read_byte(r)?;
    if mode > 1 | RBM_PCD {
        return Err(bad(format!("bad RBM mode byte {mode}")));
    }
    let momentum = if read_flag(r, "momentum-present")? {
        let mu = read_f32(r)?;
        if !(0.0..1.0).contains(&mu) {
            return Err(bad(format!("momentum coefficient {mu} out of [0,1)")));
        }
        let vw = read_vec(r, None, cfg.n_visible * cfg.n_hidden)?;
        let vb = read_vec(r, None, cfg.n_visible)?;
        let vc = read_vec(r, None, cfg.n_hidden)?;
        Some((mu, vw, vb, vc))
    } else {
        None
    };
    let chain = (mode & RBM_PCD != 0).then(|| read_chain(r, cfg.n_visible));
    let mut model = RbmModel::new(rbm);
    model.restore_extras(mode & 1 != 0, momentum, chain.transpose()?);
    Ok(model)
}

/// Reads a PCD chain section of `width` columns; zero rows is a chain not
/// yet seeded. A section cut short is `InvalidData` like any other bad one.
fn read_chain(r: &mut impl Read, width: usize) -> io::Result<Mat> {
    let mut section = || {
        let rows = match read_u64(r)? {
            0 => 0,
            n => checked_dim(n, "PCD chain rows")?,
        };
        let cols = read_u64(r)?;
        if cols != width as u64 {
            return Err(bad(format!(
                "PCD chain width {cols}, the RBM has {width} visible units"
            )));
        }
        let data = read_vec(r, None, checked_elems(rows, width)?)?;
        Mat::from_vec(rows, width, data).map_err(|e| bad(e.to_string()))
    };
    section().map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => bad("PCD chain section truncated"),
        _ => e,
    })
}

/// Writes a labeled model's checkpoint body: the net's record, then the
/// label cursor.
pub(crate) fn write_labeled_state<N: LabeledNet>(
    model: &LabeledModel<N>,
    w: &mut dyn Write,
) -> io::Result<()> {
    let mut w = w;
    model.net.save(&mut w)?;
    let (cursor, cycle) = model.cursor_parts();
    write_u64(&mut w, cursor)?;
    write_u64(&mut w, cycle)
}

/// Reads the label cursor that closes a labeled model's record and wraps
/// `net` with it.
fn read_labeled_state<N: LabeledNet>(net: N, r: &mut impl Read) -> io::Result<LabeledModel<N>> {
    let cursor = read_u64(r)?;
    let cycle = read_u64(r)?;
    if cycle == 0 || cursor >= cycle {
        return Err(bad(format!(
            "label cursor {cursor} out of range for {cycle} rows"
        )));
    }
    Ok(LabeledModel::from_parts(net, cursor, cycle))
}

/// Writes a CNN record: configuration, graph flag, parameter tensors.
pub(crate) fn write_cnn_net(net: &CnnNet, w: &mut dyn Write) -> io::Result<()> {
    let mut w = w;
    write_header(&mut w, TAG_CNN)?;
    let cfg = *net.config();
    for dim in [
        cfg.side,
        cfg.channels,
        cfg.kernel,
        cfg.pool,
        cfg.hidden,
        cfg.n_classes,
    ] {
        write_u64(&mut w, dim as u64)?;
    }
    write_f32(&mut w, net.weight_decay)?;
    w.write_all(&[net.uses_graph() as u8])?;
    write_mat(&mut w, &net.conv_w)?;
    write_slice(&mut w, &net.conv_b)?;
    write_mat(&mut w, &net.dense_w)?;
    write_slice(&mut w, &net.dense_b)?;
    write_mat(&mut w, &net.softmax.w)?;
    write_slice(&mut w, &net.softmax.b)
}

fn read_cnn_state(r: &mut impl Read) -> io::Result<CnnModel> {
    let side = checked_dim(read_u64(r)?, "cnn side")?;
    let channels = checked_dim(read_u64(r)?, "cnn channels")?;
    let kernel = checked_dim(read_u64(r)?, "cnn kernel")?;
    let pool = checked_dim(read_u64(r)?, "cnn pool")?;
    let hidden = checked_dim(read_u64(r)?, "cnn hidden")?;
    let n_classes = checked_dim(read_u64(r)?, "cnn classes")?;
    // Mirror `CnnConfig::new`'s asserts as recoverable errors: the record
    // may be corrupt.
    if side < 2 || channels < 1 || hidden < 1 || n_classes < 2 {
        return Err(bad("degenerate CNN geometry"));
    }
    if kernel < 1 || kernel > side {
        return Err(bad(format!(
            "cnn kernel {kernel} out of range for side {side}"
        )));
    }
    if pool < 1 || (side - kernel + 1) % pool != 0 {
        return Err(bad(format!(
            "cnn conv output {} not divisible by pool {pool}",
            side - kernel + 1
        )));
    }
    let cfg = CnnConfig::new(side, channels, kernel, pool, hidden, n_classes);
    let weight_decay = read_f32(r)?;
    if !weight_decay.is_finite() {
        return Err(bad(format!("non-finite weight decay {weight_decay}")));
    }
    let use_graph = read_flag(r, "graph")?;
    let conv_w = read_mat(r, None, channels, kernel * kernel)?;
    let conv_b = read_vec(r, None, channels)?;
    let dense_w = read_mat(r, None, hidden, cfg.pooled_dim())?;
    let dense_b = read_vec(r, None, hidden)?;
    let sw = read_mat(r, None, n_classes, hidden)?;
    let sb = read_vec(r, None, n_classes)?;
    let softmax = SoftmaxLayer { w: sw, b: sb };
    let net = CnnNet::from_parts(
        cfg,
        conv_w,
        conv_b,
        dense_w,
        dense_b,
        softmax,
        weight_decay,
        use_graph,
    );
    read_labeled_state(net, r)
}

/// Writes a fine-tune record: stack geometry, graph flag, parameter
/// tensors.
pub(crate) fn write_ft_net(net: &FineTuneNet, w: &mut dyn Write) -> io::Result<()> {
    let mut w = w;
    write_header(&mut w, TAG_FT)?;
    let layers = net.layer_params();
    write_u64(&mut w, layers.len() as u64)?;
    write_u64(&mut w, net.in_dim() as u64)?;
    for (lw, _) in layers {
        write_u64(&mut w, lw.rows() as u64)?;
    }
    write_u64(&mut w, net.softmax.n_classes() as u64)?;
    write_f32(&mut w, net.weight_decay)?;
    w.write_all(&[net.uses_graph() as u8])?;
    for (lw, lb) in layers {
        write_mat(&mut w, lw)?;
        write_slice(&mut w, lb)?;
    }
    write_mat(&mut w, &net.softmax.w)?;
    write_slice(&mut w, &net.softmax.b)
}

fn read_ft_state(r: &mut impl Read) -> io::Result<FineTuneModel> {
    let n_layers = read_u64(r)?;
    if n_layers == 0 || n_layers > 1024 {
        return Err(bad(format!("fine-tune net with {n_layers} layers")));
    }
    let in_dim = checked_dim(read_u64(r)?, "fine-tune input dim")?;
    let mut widths = Vec::with_capacity(n_layers as usize);
    for i in 0..n_layers {
        widths.push(checked_dim(read_u64(r)?, &format!("fine-tune layer {i}"))?);
    }
    let n_classes = checked_dim(read_u64(r)?, "fine-tune classes")?;
    if n_classes < 2 {
        return Err(bad("fine-tune net needs at least two classes"));
    }
    let weight_decay = read_f32(r)?;
    if !weight_decay.is_finite() {
        return Err(bad(format!("non-finite weight decay {weight_decay}")));
    }
    let use_graph = read_flag(r, "graph")?;
    let mut layers = Vec::with_capacity(widths.len());
    let mut prev = in_dim;
    for &h in &widths {
        let lw = read_mat(r, None, h, prev)?;
        let lb = read_vec(r, None, h)?;
        layers.push((lw, lb));
        prev = h;
    }
    let sw = read_mat(r, None, n_classes, prev)?;
    let sb = read_vec(r, None, n_classes)?;
    let softmax = SoftmaxLayer { w: sw, b: sb };
    let net = FineTuneNet::from_parts(layers, softmax, weight_decay, use_graph);
    read_labeled_state(net, r)
}

// ---- whole-checkpoint save/load ----------------------------------------

/// Serializes a checkpoint record to `w`.
pub fn save_checkpoint(
    w: &mut impl Write,
    model: &dyn UnsupervisedModel,
    rng_seed: u64,
    rng_cursor: u64,
    progress: &TrainProgress,
) -> io::Result<()> {
    write_header(w, TAG_CKPT)?;
    write_u64(w, CHECKPOINT_VERSION)?;
    write_u64(w, rng_seed)?;
    write_u64(w, rng_cursor)?;
    write_u64(w, progress.layer)?;
    write_u64(w, progress.epoch)?;
    write_u64(w, progress.batches)?;
    write_u64(w, progress.examples)?;
    model.save_state(w)
}

/// Writes a checkpoint file atomically, creating the parent directory.
pub fn save_checkpoint_file(
    path: impl AsRef<Path>,
    model: &dyn UnsupervisedModel,
    rng_seed: u64,
    rng_cursor: u64,
    progress: &TrainProgress,
) -> io::Result<()> {
    if crate::faults::fire("ckpt.write") {
        return Err(io::Error::other("failpoint ckpt.write"));
    }
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    atomic_write(path, |mut w| {
        save_checkpoint(&mut w, model, rng_seed, rng_cursor, progress)
    })
}

/// Deserializes a checkpoint record.
pub fn load_checkpoint(r: &mut impl Read) -> io::Result<Checkpoint> {
    if crate::faults::fire("ckpt.read") {
        return Err(bad("failpoint ckpt.read: checkpoint unreadable"));
    }
    read_header(r, TAG_CKPT)?;
    let version = read_u64(r)?;
    if version != CHECKPOINT_VERSION {
        return Err(bad(format!(
            "checkpoint version {version}, this build reads {CHECKPOINT_VERSION}"
        )));
    }
    let rng_seed = read_u64(r)?;
    let rng_cursor = read_u64(r)?;
    let progress = TrainProgress {
        layer: read_u64(r)?,
        epoch: read_u64(r)?,
        batches: read_u64(r)?,
        examples: read_u64(r)?,
    };
    let model = match read_any_header(r)? {
        TAG_AE => CheckpointModel::Ae(read_ae_state(r)?),
        TAG_RBM => CheckpointModel::Rbm(read_rbm_state(r)?),
        TAG_MDP => CheckpointModel::MultiDev(crate::multidev::read_multidev_body(r)?),
        TAG_CNN => CheckpointModel::Cnn(read_cnn_state(r)?),
        TAG_FT => CheckpointModel::FineTune(read_ft_state(r)?),
        t => return Err(bad(format!("checkpoint embeds unknown model tag {t}"))),
    };
    Ok(Checkpoint {
        rng_seed,
        rng_cursor,
        progress,
        model,
    })
}

/// Why a checkpoint file could not be loaded.
///
/// The interesting variant is [`CheckpointError::ShapeMismatch`]: a resume
/// against a model whose layer dims disagree with the on-disk tensors used
/// to surface as a bare `InvalidData` string from deep inside tensor I/O.
/// The loader now recovers the structured payload the tensor readers
/// attach, so callers learn *which* layer disagreed and by how much.
#[derive(Debug)]
pub enum CheckpointError {
    /// Any I/O or format failure other than a tensor shape disagreement.
    Io(io::Error),
    /// A named tensor's on-disk dims disagree with the record's header
    /// geometry (vectors are reported as `(len, 1)`).
    ShapeMismatch(ShapeMismatch),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint: {e}"),
            CheckpointError::ShapeMismatch(sm) => write!(f, "checkpoint {sm}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::ShapeMismatch(_) => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        // The tensor readers attach a structured `ShapeMismatch` payload to
        // InvalidData errors; lift it into the typed variant.
        match e
            .get_ref()
            .and_then(|inner| inner.downcast_ref::<ShapeMismatch>())
        {
            Some(sm) => CheckpointError::ShapeMismatch(sm.clone()),
            None => CheckpointError::Io(e),
        }
    }
}

/// Loads a checkpoint file, classifying tensor-shape disagreements into
/// the typed [`CheckpointError::ShapeMismatch`] variant.
pub fn load_checkpoint_file(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
    let mut r = BufReader::new(File::open(path)?);
    Ok(load_checkpoint(&mut r)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoencoder::AeConfig;
    use crate::rbm::{Rbm, RbmConfig};

    fn ae_model() -> AeModel {
        let cfg = AeConfig::new(8, 5);
        let slots = SparseAutoencoder::optimizer_slots(&cfg);
        let opt = Optimizer::new(
            Rule::Momentum { mu: 0.9 },
            Schedule::Exponential {
                base: 0.2,
                gamma: 0.999,
            },
            &slots,
        );
        AeModel::new(SparseAutoencoder::new(cfg, 3)).with_optimizer(opt)
    }

    #[test]
    fn ae_checkpoint_round_trips() {
        let model = ae_model();
        let progress = TrainProgress {
            layer: 2,
            epoch: 7,
            batches: 123,
            examples: 12300,
        };
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &model, 42, 17, &progress).unwrap();
        let back = load_checkpoint(&mut buf.as_slice()).unwrap();
        assert_eq!(back.rng_seed, 42);
        assert_eq!(back.rng_cursor, 17);
        assert_eq!(back.progress, progress);
        let m = back.into_ae().expect("AE checkpoint");
        assert_eq!(m.ae.w1.as_slice(), model.ae.w1.as_slice());
        assert_eq!(m.ae.b2, model.ae.b2);
        let (a, b) = (m.optimizer().unwrap(), model.optimizer().unwrap());
        assert_eq!(a.rule(), b.rule());
        assert_eq!(a.schedule(), b.schedule());
        assert_eq!(a.steps(), b.steps());
        assert_eq!(a.state_slots(), b.state_slots());
    }

    #[test]
    fn rbm_checkpoint_round_trips_with_momentum() {
        let cfg = RbmConfig::new(6, 4);
        let model = RbmModel::new(Rbm::new(cfg, 9)).with_momentum(0.5);
        let progress = TrainProgress::default();
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &model, 1, 2, &progress).unwrap();
        let back = load_checkpoint(&mut buf.as_slice()).unwrap();
        let m = back.into_rbm().expect("RBM checkpoint");
        assert_eq!(m.rbm.w.as_slice(), model.rbm.w.as_slice());
        assert_eq!(m.momentum_parts(), model.momentum_parts());
        assert!(!m.uses_graph());
    }

    /// A PCD record carries its chain — seeded, or not yet (no rows) — and
    /// loads back as PCD; a CD record stays chainless.
    #[test]
    fn pcd_checkpoint_round_trips_its_chain() {
        use crate::exec::{ExecCtx, OptLevel};
        use micdnn_data::Dataset;
        let cfg = RbmConfig::new(6, 4);
        let round_trip = |model: &RbmModel| {
            let mut buf = Vec::new();
            save_checkpoint(&mut buf, model, 1, 2, &TrainProgress::default()).unwrap();
            load_checkpoint(&mut buf.as_slice())
                .unwrap()
                .into_rbm()
                .unwrap()
        };
        let chain = |m: &RbmModel| m.pcd_chain().map(|c| (c.shape(), c.as_slice().to_vec()));

        let mut model = RbmModel::new(Rbm::new(cfg, 9)).with_pcd();
        let unseeded = round_trip(&model);
        assert_eq!(chain(&unseeded), Some(((0, 6), Vec::new())));

        let ds = Dataset::new(Mat::from_fn(12, 6, |r, c| ((r + c) % 2) as f32));
        let tc = crate::train::TrainConfig {
            batch_size: 4,
            chunk_rows: 8,
            ..Default::default()
        };
        let ctx = ExecCtx::native(OptLevel::Improved, 3);
        crate::train::train_dataset(&mut model, &ctx, &ds, &tc, 1).unwrap();
        let back = round_trip(&model);
        assert_eq!(chain(&back).unwrap().0, (4, 6));
        assert_eq!(chain(&back), chain(&model));
        assert!(chain(&round_trip(&RbmModel::new(Rbm::new(cfg, 9)))).is_none());
    }

    #[test]
    fn unknown_version_rejected() {
        let model = ae_model();
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &model, 0, 0, &TrainProgress::default()).unwrap();
        buf[9] = 99; // version byte (after 8-byte magic + tag)
        let err = load_checkpoint(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn shape_mismatch_is_typed_and_names_the_layer() {
        use micdnn_tensor::Mat;
        // A model whose w1 disagrees with its own header geometry (8x5
        // config, 3x3 tensor): the loader must classify this as a
        // ShapeMismatch naming the layer, not a generic I/O string.
        let mut model = ae_model();
        model.ae.w1 = Mat::zeros(3, 3);
        let dir = crate::TestDir::new("ckpt-shape");
        let path = dir.file("checkpoint.mic");
        save_checkpoint_file(&path, &model, 0, 0, &TrainProgress::default()).unwrap();
        let err = load_checkpoint_file(&path).unwrap_err();
        assert_eq!(
            err.to_string(),
            "checkpoint layer `w1`: shape 3x3 on disk, model expects 5x8"
        );
        match err {
            CheckpointError::ShapeMismatch(sm) => {
                assert_eq!(sm.layer, "w1");
                assert_eq!(sm.expected, (5, 8));
                assert_eq!(sm.found, (3, 3));
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn model_file_is_not_a_checkpoint() {
        let model = ae_model();
        let mut buf = Vec::new();
        save_autoencoder(&model.ae, &mut buf).unwrap();
        let err = load_checkpoint(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
