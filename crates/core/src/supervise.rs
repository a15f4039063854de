//! Self-healing training supervision (DESIGN.md §4.3).
//!
//! Long pre-training runs fail in boring ways: a flaky data source, a
//! chunk that arrives poisoned, a kernel that emits a NaN, a thread that
//! panics. The supervisor wraps the ordinary training loop with a
//! recovery ladder so that a run either completes — bit-identically to a
//! fault-free run when the faults were transient — or fails with a typed
//! [`TrainError`], never a panic or a hang:
//!
//! 1. **Sentinel.** Every batch's reconstruction error is checked; a
//!    non-finite or exploding value aborts the leg with
//!    [`TrainError::Diverged`].
//! 2. **Rollback.** On divergence the model, optimizer state, and RNG
//!    cursor are restored from the last in-memory snapshot (the same
//!    serialized form as on-disk checkpoints) and training replays from
//!    that batch position. The learning rate is backed off by
//!    [`SupervisorPolicy::lr_backoff`] per rollback (keep it at `1.0` to
//!    preserve bit-identity with the fault-free run). If the latest
//!    snapshot turns out to be unreadable, the supervisor falls back to
//!    the previous one instead of failing.
//! 3. **Restart.** Stream failures (exhausted retries, deadlines, loader
//!    death) and checkpoint write failures restore the snapshot and start
//!    a fresh leg — with a fresh loader thread — at the same position.
//! 4. **Degradation.** A panic inside a leg (e.g. a verifier error or a
//!    kernel assertion) demotes the executor to the serial schedule via
//!    [`ExecCtx::force_degrade`] before the restarted leg runs. On a
//!    native context that only stops re-verification, since native graphs
//!    already run in declaration order; a simulated one also stops pricing
//!    steps by their critical path.
//!
//! [`RunSupervisor`] carries that ladder across a whole pipeline —
//! stacked pre-training (greedy, multi-device, or pipelined), supervised
//! fine-tuning, and CNN training — as a sequence of *legs* addressed by a
//! [`RunPos`] (`{stage, layer, epoch, batch}`). The ladder's counters
//! (rollbacks, restarts, learning-rate multiplier, degradation latch) are
//! shared across legs, so a run that rolled back during pre-training
//! resumes fine-tuning with the same budget — and a fine-tune divergence
//! rolls back only the fine-tune leg, never the finished pre-training.
//!
//! With [`RunSupervisor::durable`], the ladder state is persisted through
//! the checkpoint subsystem (`supervisor.mic`, a `TAG_SUP` section
//! written via [`crate::model_io::atomic_write`]) and the incident log is
//! flushed incrementally as JSONL at every ladder event, so a hard kill
//! loses at most the in-flight record and `--resume` restores the ladder
//! exactly where it stood.
//!
//! Every recovery action is recorded as an [`Incident`] in an
//! [`IncidentLog`], exportable as JSONL alongside the profiler report.

use crate::checkpoint::{load_checkpoint, save_checkpoint, CheckpointModel, TrainProgress};
use crate::exec::ExecCtx;
use crate::labeled::{LabeledModel, LabeledNet};
use crate::model_io::{
    atomic_write, bad, read_f32, read_header, read_u64, write_f32, write_header, write_u64, TAG_SUP,
};
use crate::stacked::{pretrain_layers, LayerReport, StackedAutoencoder};
use crate::train::{
    train_dataset_at, AeModel, RbmModel, TrainConfig, TrainError, TrainReport, UnsupervisedModel,
};
use micdnn_data::{ChunkGeometry, Dataset};
use parking_lot::Mutex;
use serde::{Serialize, Value};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Schema tag written into exported incident logs (JSON-lines format: one
/// header line carrying the schema, then one compact record per line).
pub(crate) const INCIDENT_SCHEMA: &str = "micdnn-incidents-v2";

/// Name of the durable ladder sidecar inside a supervisor's state dir.
const LADDER_FILE: &str = "supervisor.mic";

/// On-disk version of the `TAG_SUP` ladder record.
const LADDER_VERSION: u64 = 1;

/// A [`SupervisorPolicy`] the ladder cannot actually execute, rejected
/// before any training starts.
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisorPolicyError {
    /// `lr_backoff` is NaN, infinite, zero, or negative; the backed-off
    /// learning rate would be meaningless.
    BadLrBackoff(f32),
    /// Snapshots are disabled (`snapshot_every == 0`) while a recovery
    /// budget is zero: the only snapshot is the initial one, so a single
    /// fault would immediately exhaust the ladder.
    NoRecoveryBudget,
}

impl std::fmt::Display for SupervisorPolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorPolicyError::BadLrBackoff(v) => {
                write!(f, "lr_backoff must be finite and > 0 (got {v})")
            }
            SupervisorPolicyError::NoRecoveryBudget => write!(
                f,
                "max_rollbacks and max_restarts must be nonzero when snapshots \
                 are disabled (snapshot_every = 0)"
            ),
        }
    }
}

impl std::error::Error for SupervisorPolicyError {}

/// Recovery budget and sentinel thresholds for a supervised run.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorPolicy {
    /// Divergence rollbacks before the run is declared unrecoverable.
    pub max_rollbacks: u32,
    /// Leg restarts (stream/checkpoint failures, panics) before giving up.
    pub max_restarts: u32,
    /// Learning-rate multiplier applied per rollback (`1.0` keeps the
    /// replay bit-identical to a fault-free run).
    pub lr_backoff: f32,
    /// A finite batch error above this trips the divergence sentinel
    /// (non-finite errors always trip it).
    pub divergence_threshold: f64,
    /// Take an in-memory snapshot every N batch positions (0 = only the
    /// initial snapshot, so rollbacks replay from the start).
    pub snapshot_every: u64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_rollbacks: 3,
            max_restarts: 3,
            lr_backoff: 0.5,
            divergence_threshold: 1e6,
            snapshot_every: 25,
        }
    }
}

impl SupervisorPolicy {
    /// Rejects budgets and backoffs the ladder cannot execute.
    pub(crate) fn validate(&self) -> Result<(), SupervisorPolicyError> {
        if !self.lr_backoff.is_finite() || self.lr_backoff <= 0.0 {
            return Err(SupervisorPolicyError::BadLrBackoff(self.lr_backoff));
        }
        if self.snapshot_every == 0 && (self.max_rollbacks == 0 || self.max_restarts == 0) {
            return Err(SupervisorPolicyError::NoRecoveryBudget);
        }
        Ok(())
    }
}

/// A pipeline stage the supervisor can be positioned in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Layer-wise unsupervised pre-training (greedy, multi-device, or
    /// pipelined).
    Pretrain,
    /// Supervised fine-tuning of the unrolled stack + softmax.
    FineTune,
    /// Convolutional network training.
    Cnn,
}

impl Stage {
    /// Stable lowercase name, as stamped into incident records.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Stage::Pretrain => "pretrain",
            Stage::FineTune => "finetune",
            Stage::Cnn => "cnn",
        }
    }

    /// Stable byte used in the durable `TAG_SUP` record.
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            Stage::Pretrain => 0,
            Stage::FineTune => 1,
            Stage::Cnn => 2,
        }
    }

    /// Inverse of [`Stage::as_u8`].
    pub(crate) fn from_u8(v: u8) -> Option<Stage> {
        match v {
            0 => Some(Stage::Pretrain),
            1 => Some(Stage::FineTune),
            2 => Some(Stage::Cnn),
            _ => None,
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the pipeline the supervisor stands: which stage, which layer
/// within it, and the epoch/batch position of the current leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunPos {
    /// Current pipeline stage.
    pub stage: Stage,
    /// Layer index within the stage (0 for single-model stages).
    pub layer: u64,
    /// Epochs completed within the current leg.
    pub epoch: u64,
    /// Batch positions completed within the current leg (since epoch 0).
    pub batch: u64,
}

impl Default for RunPos {
    fn default() -> Self {
        RunPos {
            stage: Stage::Pretrain,
            layer: 0,
            epoch: 0,
            batch: 0,
        }
    }
}

/// One recorded recovery action. `kind` is one of `loader-retry`,
/// `rollback`, `lr-backoff`, `restart`, `snapshot-fallback`, or
/// `degraded`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Incident {
    /// Incident class (see type docs).
    pub kind: String,
    /// Pipeline stage the incident occurred in (`pretrain`, `finetune`,
    /// `cnn`); empty in records written before the stage existed.
    pub stage: String,
    /// Human-readable description.
    pub detail: String,
    /// Batch or chunk position the incident is attached to.
    pub batch: u64,
    /// Kind-specific magnitude (backoff seconds, divergence error, new
    /// learning rate); zero when meaningless.
    pub value: f64,
}

impl Incident {
    /// Reads one record back from its JSON form. v1 records predate
    /// `stage`, which then reads as empty; `value` can be non-finite (a
    /// NaN divergence error), which JSON can only write as `null`.
    fn from_value(record: &Value) -> Result<Incident, String> {
        let field = |name: &str| {
            record
                .get_field(name)
                .ok_or_else(|| format!("missing field `{name}`"))
        };
        let text = |name: &str| {
            field(name)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field `{name}` is not a string"))
        };
        Ok(Incident {
            kind: text("kind")?,
            stage: match record.get_field("stage") {
                Some(_) => text("stage")?,
                None => String::new(),
            },
            detail: text("detail")?,
            batch: field("batch")?
                .as_u64()
                .ok_or("field `batch` is not a non-negative integer")?,
            value: match field("value")? {
                Value::Null => f64::NAN,
                v => v.as_f64().ok_or("field `value` is not a number")?,
            },
        })
    }
}

/// The structured incident record of one supervised run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IncidentLog {
    /// Always `micdnn-incidents-v2` for logs this build writes; the
    /// whole-document `micdnn-incidents-v1` survives loading (records
    /// predating the `stage` field load with it empty).
    pub schema: String,
    /// Incidents in the order they occurred.
    pub incidents: Vec<Incident>,
}

impl Default for IncidentLog {
    fn default() -> Self {
        IncidentLog::new()
    }
}

impl IncidentLog {
    /// An empty log carrying the current schema tag.
    pub(crate) fn new() -> Self {
        IncidentLog {
            schema: INCIDENT_SCHEMA.to_string(),
            incidents: Vec::new(),
        }
    }

    /// Appends one incident.
    pub(crate) fn push(&mut self, incident: Incident) {
        self.incidents.push(incident);
    }

    /// Number of incidents of the given kind.
    pub fn count(&self, kind: &str) -> usize {
        self.incidents.iter().filter(|i| i.kind == kind).count()
    }

    /// Renders the log in the v2 JSON-lines format: a header line with the
    /// schema tag, then one compact record per line. Line-oriented so a
    /// crash mid-append can only ever truncate the final record.
    pub(crate) fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = Value::Object(vec![(
            "schema".to_string(),
            Value::Str(self.schema.clone()),
        )]);
        header.write_json(None, 0, &mut out);
        out.push('\n');
        for incident in &self.incidents {
            incident.serialize_value().write_json(None, 0, &mut out);
            out.push('\n');
        }
        out
    }

    /// Parses an incident log from either the v2 JSON-lines format or the
    /// legacy v1 whole-document JSON. In the JSONL form, a corrupt *final*
    /// line (the record a crash was appending) is silently dropped; a
    /// corrupt line anywhere else is an error. This is the one place JSON
    /// is read back into a typed value; everything else reads a `Value`.
    pub(crate) fn from_text(text: &str) -> io::Result<IncidentLog> {
        let corrupt =
            |i: usize, e: String| bad(format!("incident record {} is corrupt: {e}", i + 1));
        // A v1 export is one pretty-printed JSON document holding every
        // record; a v2 header alone also parses, but has no `incidents`.
        if let Ok(doc) = serde_json::from_str(text) {
            if let Some(records) = doc.get_field("incidents") {
                let records = records
                    .as_array()
                    .ok_or_else(|| bad("incident log `incidents` is not an array"))?;
                let incidents = records
                    .iter()
                    .enumerate()
                    .map(|(i, r)| Incident::from_value(r).map_err(|e| corrupt(i, e)))
                    .collect::<io::Result<_>>()?;
                let schema = schema_of(&doc)?;
                return Ok(IncidentLog { schema, incidents });
            }
        }
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let Some((&header, records)) = lines.split_first() else {
            return Ok(IncidentLog::new());
        };
        let head = serde_json::from_str(header)
            .map_err(|e| bad(format!("incident log header is not JSON: {e}")))?;
        let schema = schema_of(&head)?;
        let mut incidents = Vec::with_capacity(records.len());
        for (i, line) in records.iter().enumerate() {
            let record = serde_json::from_str(line).map_err(|e| e.to_string());
            match record.and_then(|r| Incident::from_value(&r)) {
                Ok(incident) => incidents.push(incident),
                // The documented durability bound: a crash mid-append
                // loses at most the record that was in flight.
                Err(_) if i + 1 == records.len() => break,
                Err(e) => return Err(corrupt(i, e)),
            }
        }
        Ok(IncidentLog { schema, incidents })
    }

    /// Reads a log from a file written by [`IncidentLog::save_jsonl`] (or
    /// a legacy v1 export).
    pub fn load(path: impl AsRef<Path>) -> io::Result<IncidentLog> {
        IncidentLog::from_text(&std::fs::read_to_string(path)?)
    }

    /// Atomically replaces `path` with the current log in JSONL form
    /// (write-to-temp + rename, like every other durable artifact).
    pub fn save_jsonl(&self, path: impl AsRef<Path>) -> io::Result<()> {
        atomic_write(path, |w| w.write_all(self.to_jsonl().as_bytes()))
    }
}

/// The `schema` tag of an incident log's header (or v1 document).
fn schema_of(head: &Value) -> io::Result<String> {
    head.get_field("schema")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad("incident log header lacks a schema tag"))
}

/// An in-memory checkpoint: the serialized run state and the batch
/// position it represents.
struct Snapshot {
    bytes: Vec<u8>,
    pos: u64,
}

/// The supervisor's hooks into the training loop: the policy the sentinel
/// consults, the rolling snapshot (plus the one before it, kept as a
/// fallback), and incident accumulation.
pub(crate) struct SuperHooks {
    pub(crate) policy: SupervisorPolicy,
    snapshot: Mutex<Snapshot>,
    prev: Mutex<Option<Snapshot>>,
    incidents: Mutex<Vec<Incident>>,
}

impl SuperHooks {
    /// Hooks with an initial snapshot of `model` at batch position `pos`
    /// of a run over `geometry` — the epoch and example count the training
    /// loop itself would have recorded there.
    fn new_at(
        policy: SupervisorPolicy,
        model: &dyn UnsupervisedModel,
        ctx: &ExecCtx,
        layer: u64,
        geometry: ChunkGeometry,
        pos: u64,
    ) -> io::Result<Self> {
        let hooks = SuperHooks {
            policy,
            snapshot: Mutex::new(Snapshot {
                bytes: Vec::new(),
                pos,
            }),
            prev: Mutex::new(None),
            incidents: Mutex::new(Vec::new()),
        };
        let progress = TrainProgress {
            layer,
            epoch: geometry.epoch_of(pos),
            batches: pos,
            examples: geometry.examples_before(pos),
        };
        hooks.snapshot(model, ctx, &progress)?;
        Ok(hooks)
    }

    /// Serializes the run state (model + optimizer + RNG + progress) into
    /// the rolling in-memory snapshot; the displaced snapshot is retained
    /// as the fallback for [`restore`].
    pub(crate) fn snapshot(
        &self,
        model: &dyn UnsupervisedModel,
        ctx: &ExecCtx,
        progress: &TrainProgress,
    ) -> io::Result<()> {
        let pos = progress.batches;
        let (rng_seed, rng_cursor) = ctx.rng_state();
        let mut bytes = Vec::new();
        save_checkpoint(&mut bytes, model, rng_seed, rng_cursor, progress)?;
        let mut cur = self.snapshot.lock();
        if cur.bytes.is_empty() {
            *cur = Snapshot { bytes, pos };
        } else {
            let displaced = std::mem::replace(&mut *cur, Snapshot { bytes, pos });
            *self.prev.lock() = Some(displaced);
        }
        Ok(())
    }

    /// Batch position of the current snapshot.
    fn snapshot_pos(&self) -> u64 {
        self.snapshot.lock().pos
    }

    /// Records one incident (called from the training loop).
    pub(crate) fn record(&self, incident: Incident) {
        self.incidents.lock().push(incident);
    }

    /// Drains accumulated incidents.
    fn take_incidents(&self) -> Vec<Incident> {
        std::mem::take(&mut *self.incidents.lock())
    }
}

/// A model the supervisor can roll back from a snapshot.
pub trait Recoverable: UnsupervisedModel {
    /// Replaces this model's parameters and training state with the
    /// checkpointed ones; `InvalidData` on a model-kind mismatch.
    fn restore_state(&mut self, from: CheckpointModel) -> io::Result<()>;
}

/// The plain trainers all restore the same way: the snapshot must hold
/// their own record kind, whose state they then adopt.
macro_rules! recoverable {
    ($model:ty, $kind:ident, $what:literal) => {
        impl Recoverable for $model {
            fn restore_state(&mut self, from: CheckpointModel) -> io::Result<()> {
                let CheckpointModel::$kind(m) = from else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        concat!("snapshot does not hold ", $what),
                    ));
                };
                self.adopt(m);
                Ok(())
            }
        }
    };
}
recoverable!(AeModel, Ae, "a plain autoencoder");
recoverable!(RbmModel, Rbm, "a plain RBM");

impl<N: LabeledNet> Recoverable for LabeledModel<N> {
    fn restore_state(&mut self, from: CheckpointModel) -> io::Result<()> {
        self.adopt(N::from_checkpoint(from)?);
        Ok(())
    }
}

/// Restores model + RNG from the supervisor's snapshot. If the current
/// snapshot fails to load (a corrupt or truncated record), the previous
/// snapshot is promoted in its place and the restore is retried from
/// there; the returned incident documents the fallback.
fn restore<M: Recoverable>(
    model: &mut M,
    ctx: &ExecCtx,
    hooks: &SuperHooks,
) -> Result<Option<Incident>, TrainError> {
    let (bytes, pos) = {
        let s = hooks.snapshot.lock();
        (s.bytes.clone(), s.pos)
    };
    match load_checkpoint(&mut bytes.as_slice()) {
        Ok(ckpt) => {
            ckpt.restore_rng(ctx);
            model
                .restore_state(ckpt.model)
                .map_err(TrainError::Checkpoint)?;
            Ok(None)
        }
        Err(e) => {
            let Some(prev) = hooks.prev.lock().take() else {
                return Err(TrainError::Checkpoint(e));
            };
            let ckpt =
                load_checkpoint(&mut prev.bytes.as_slice()).map_err(TrainError::Checkpoint)?;
            ckpt.restore_rng(ctx);
            model
                .restore_state(ckpt.model)
                .map_err(TrainError::Checkpoint)?;
            let incident = Incident {
                kind: "snapshot-fallback".to_string(),
                stage: String::new(),
                detail: format!(
                    "snapshot at batch {pos} unreadable ({e}); fell back to batch {}",
                    prev.pos
                ),
                batch: prev.pos,
                value: 0.0,
            };
            // Promote the fallback so snapshot_pos() and the next restore
            // both reflect the position the model actually holds.
            *hooks.snapshot.lock() = prev;
            Ok(Some(incident))
        }
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One orchestrator driving a whole training pipeline under the recovery
/// ladder. Create it once, then run legs through it in pipeline order;
/// the ladder's budget, learning-rate multiplier, and degradation latch
/// carry across legs, and [`RunSupervisor::durable`] persists all of it.
#[derive(Debug)]
pub struct RunSupervisor {
    policy: SupervisorPolicy,
    log: IncidentLog,
    rollbacks: u32,
    restarts: u32,
    lr_mult: f32,
    degraded: bool,
    pos: RunPos,
    durable_dir: Option<PathBuf>,
    incident_path: Option<PathBuf>,
}

impl RunSupervisor {
    /// A fresh supervisor; rejects policies the ladder cannot execute.
    pub fn new(policy: SupervisorPolicy) -> Result<Self, SupervisorPolicyError> {
        policy.validate()?;
        Ok(RunSupervisor {
            policy,
            log: IncidentLog::new(),
            rollbacks: 0,
            restarts: 0,
            lr_mult: 1.0,
            degraded: false,
            pos: RunPos::default(),
            durable_dir: None,
            incident_path: None,
        })
    }

    /// Persists the ladder state to `dir/supervisor.mic` (atomically, at
    /// every ladder event), so a killed run can resume mid-pipeline.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Flushes the incident log to `path` as JSONL at every ladder event.
    pub fn with_incident_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.incident_path = Some(path.into());
        self
    }

    /// Divergence rollbacks consumed so far.
    pub fn rollbacks(&self) -> u32 {
        self.rollbacks
    }

    /// Leg restarts consumed so far.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Cumulative learning-rate multiplier (`lr_backoff` per rollback).
    pub fn lr_multiplier(&self) -> f32 {
        self.lr_mult
    }

    /// Whether a leg panic has demoted execution to the serial schedule.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The accumulated incident log.
    pub fn log(&self) -> &IncidentLog {
        &self.log
    }

    /// Consumes the supervisor, yielding the incident log.
    pub fn into_log(self) -> IncidentLog {
        self.log
    }

    /// Loads previously persisted ladder state (and the incident log, if
    /// an incident file is configured and present). Returns `false` when
    /// no durable state exists yet — a fresh run, not an error.
    pub fn load_durable(&mut self) -> io::Result<bool> {
        let Some(dir) = self.durable_dir.clone() else {
            return Ok(false);
        };
        let path = dir.join(LADDER_FILE);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        let mut r = bytes.as_slice();
        read_header(&mut r, TAG_SUP)?;
        let version = read_u64(&mut r)?;
        if version != LADDER_VERSION {
            return Err(bad(format!(
                "unsupported supervisor state version {version}"
            )));
        }
        let stage = Stage::from_u8(
            u8::try_from(read_u64(&mut r)?)
                .map_err(|_| bad("supervisor stage byte out of range"))?,
        )
        .ok_or_else(|| bad("supervisor stage byte out of range"))?;
        let layer = read_u64(&mut r)?;
        let epoch = read_u64(&mut r)?;
        let batch = read_u64(&mut r)?;
        let rollbacks = u32::try_from(read_u64(&mut r)?)
            .map_err(|_| bad("supervisor rollback counter out of range"))?;
        let restarts = u32::try_from(read_u64(&mut r)?)
            .map_err(|_| bad("supervisor restart counter out of range"))?;
        let lr_mult = read_f32(&mut r)?;
        if !lr_mult.is_finite() || lr_mult <= 0.0 {
            return Err(bad(format!(
                "supervisor learning-rate multiplier {lr_mult} is not a positive finite value"
            )));
        }
        let degraded = match read_u64(&mut r)? {
            0 => false,
            1 => true,
            other => return Err(bad(format!("supervisor degradation flag {other} invalid"))),
        };
        self.pos = RunPos {
            stage,
            layer,
            epoch,
            batch,
        };
        self.rollbacks = rollbacks;
        self.restarts = restarts;
        self.lr_mult = lr_mult;
        self.degraded = degraded;
        if let Some(p) = &self.incident_path {
            match std::fs::read_to_string(p) {
                Ok(text) => self.log = IncidentLog::from_text(&text)?,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Atomically writes the `TAG_SUP` ladder record.
    fn save_ladder(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        atomic_write(dir.join(LADDER_FILE), |mut w| {
            write_header(&mut w, TAG_SUP)?;
            write_u64(&mut w, LADDER_VERSION)?;
            write_u64(&mut w, u64::from(self.pos.stage.as_u8()))?;
            write_u64(&mut w, self.pos.layer)?;
            write_u64(&mut w, self.pos.epoch)?;
            write_u64(&mut w, self.pos.batch)?;
            write_u64(&mut w, u64::from(self.rollbacks))?;
            write_u64(&mut w, u64::from(self.restarts))?;
            write_f32(&mut w, self.lr_mult)?;
            write_u64(&mut w, u64::from(self.degraded))
        })
    }

    /// Flushes the JSONL incident log, if one is configured.
    fn flush_incidents(&self) -> io::Result<()> {
        match &self.incident_path {
            Some(path) => self.log.save_jsonl(path),
            None => Ok(()),
        }
    }

    fn persist_io(&self) -> io::Result<()> {
        if let Some(dir) = &self.durable_dir {
            self.save_ladder(dir)?;
        }
        self.flush_incidents()
    }

    /// Persists ladder + incidents; a durability failure is a
    /// [`TrainError::Checkpoint`], exactly like a failed snapshot.
    fn persist(&self) -> Result<(), TrainError> {
        self.persist_io().map_err(TrainError::Checkpoint)
    }

    /// Moves incidents into the log, stamping the stage on any record
    /// that does not carry one yet.
    fn absorb(&mut self, incidents: Vec<Incident>, stage: Stage) {
        for mut incident in incidents {
            if incident.stage.is_empty() {
                incident.stage = stage.as_str().to_string();
            }
            self.log.push(incident);
        }
    }

    /// Folds the executor's degradation notes into the incident log.
    fn absorb_ctx(&mut self, ctx: &ExecCtx, stage: Stage) {
        let notes = ctx.take_incident_notes();
        let incidents = notes
            .into_iter()
            .map(|(kind, detail)| Incident {
                kind,
                stage: String::new(),
                detail,
                batch: 0,
                value: 0.0,
            })
            .collect();
        self.absorb(incidents, stage);
    }

    /// Restores `model` from the leg's snapshot and moves the ladder
    /// position back to it; returns the batch position now held.
    fn rewind<M: Recoverable>(
        &mut self,
        model: &mut M,
        ctx: &ExecCtx,
        hooks: &SuperHooks,
        geometry: ChunkGeometry,
    ) -> Result<u64, TrainError> {
        if let Some(incident) = restore(model, ctx, hooks)? {
            self.absorb(vec![incident], self.pos.stage);
        }
        let resume_pos = hooks.snapshot_pos();
        self.pos.batch = resume_pos;
        self.pos.epoch = geometry.epoch_of(resume_pos);
        Ok(resume_pos)
    }

    /// Runs one training leg under the recovery ladder. `stage`/`layer`
    /// address the leg in the pipeline; `skip_batches` replays positions a
    /// resumed leg already trained (the caller must have restored the
    /// model and RNG from the matching checkpoint first).
    ///
    /// On success the report covers only the batches the final attempt
    /// actually trained (replayed positions excluded, exactly as on
    /// checkpoint resume).
    #[allow(clippy::too_many_arguments)]
    pub fn run_leg<M: Recoverable>(
        &mut self,
        model: &mut M,
        ctx: &ExecCtx,
        dataset: &Dataset,
        cfg: &TrainConfig,
        passes: usize,
        stage: Stage,
        layer: u64,
        skip_batches: u64,
    ) -> Result<TrainReport, TrainError> {
        let geometry = cfg.geometry(dataset.len());
        self.pos = RunPos {
            stage,
            layer,
            epoch: geometry.epoch_of(skip_batches),
            batch: skip_batches,
        };
        // A resumed run that was demoted to the serial schedule stays
        // demoted: re-latch before the first leg trains anything, and
        // drop the note — the original degradation incident is already
        // in the log.
        if self.degraded && !ctx.is_degraded() {
            ctx.force_degrade(
                "degraded",
                "resumed in degraded mode; serial schedule retained",
            );
            let _ = ctx.take_incident_notes();
        }
        self.persist()?;
        let hooks = SuperHooks::new_at(
            self.policy.clone(),
            model,
            ctx,
            layer,
            geometry,
            skip_batches,
        )
        .map_err(TrainError::Checkpoint)?;
        let mut lr = cfg.learning_rate * self.lr_mult;
        loop {
            let resume_pos = hooks.snapshot_pos();
            let leg_cfg = TrainConfig {
                learning_rate: lr,
                ..cfg.clone()
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                train_dataset_at(
                    model,
                    ctx,
                    dataset,
                    &leg_cfg,
                    passes,
                    resume_pos,
                    layer,
                    Some(&hooks),
                )
            }));
            self.absorb(hooks.take_incidents(), stage);
            self.absorb_ctx(ctx, stage);
            match outcome {
                Ok(Ok(report)) => {
                    self.pos.batch = geometry.batches_per_epoch().saturating_mul(passes as u64);
                    self.pos.epoch = passes as u64;
                    self.persist()?;
                    return Ok(report);
                }
                Ok(Err(TrainError::Diverged { batch, err })) => {
                    self.rollbacks += 1;
                    if self.rollbacks > self.policy.max_rollbacks {
                        let _ = self.persist_io();
                        return Err(TrainError::Unrecoverable {
                            attempts: self.rollbacks + self.restarts,
                            last: format!("batch {batch} diverged (error {err})"),
                        });
                    }
                    let resume_pos = self.rewind(model, ctx, &hooks, geometry)?;
                    self.absorb(
                        vec![Incident {
                            kind: "rollback".to_string(),
                            stage: String::new(),
                            detail: format!(
                                "batch {batch} diverged (error {err}); rolled back to batch {resume_pos}"
                            ),
                            batch,
                            value: err,
                        }],
                        stage,
                    );
                    let next_lr = lr * self.policy.lr_backoff;
                    self.absorb(
                        vec![Incident {
                            kind: "lr-backoff".to_string(),
                            stage: String::new(),
                            detail: format!("learning rate {lr} -> {next_lr}"),
                            batch,
                            value: f64::from(next_lr),
                        }],
                        stage,
                    );
                    lr = next_lr;
                    self.lr_mult *= self.policy.lr_backoff;
                    self.persist()?;
                }
                Ok(Err(e @ (TrainError::Stream(_) | TrainError::Checkpoint(_)))) => {
                    self.restarts += 1;
                    if self.restarts > self.policy.max_restarts {
                        let _ = self.persist_io();
                        return Err(TrainError::Unrecoverable {
                            attempts: self.rollbacks + self.restarts,
                            last: e.to_string(),
                        });
                    }
                    let resume_pos = self.rewind(model, ctx, &hooks, geometry)?;
                    self.absorb(
                        vec![Incident {
                            kind: "restart".to_string(),
                            stage: String::new(),
                            detail: format!("{e}; restarting from batch {resume_pos}"),
                            batch: resume_pos,
                            value: 0.0,
                        }],
                        stage,
                    );
                    self.persist()?;
                }
                // DeviceMemory / DimensionMismatch / EmptyStream / Policy
                // cannot be fixed by retrying; Diverged/Unrecoverable are
                // handled above.
                Ok(Err(e)) => {
                    let _ = self.persist_io();
                    return Err(e);
                }
                Err(payload) => {
                    self.restarts += 1;
                    let msg = panic_message(payload.as_ref());
                    if self.restarts > self.policy.max_restarts {
                        let _ = self.persist_io();
                        return Err(TrainError::Unrecoverable {
                            attempts: self.rollbacks + self.restarts,
                            last: format!("panic: {msg}"),
                        });
                    }
                    // A panic mid-leg (verifier error, kernel assertion)
                    // demotes the executor to the serial schedule for the
                    // rest of the run instead of aborting.
                    ctx.force_degrade(
                        "degraded",
                        &format!("training leg panicked ({msg}); demoted to the serial schedule"),
                    );
                    self.degraded = true;
                    self.absorb_ctx(ctx, stage);
                    let fallback = restore(model, ctx, &hooks)?;
                    if let Some(incident) = fallback {
                        self.absorb(vec![incident], stage);
                    }
                    self.persist()?;
                }
            }
        }
    }

    /// Greedy layer-wise pre-training of `stack` with every layer's leg
    /// under the ladder — the supervised form of
    /// [`StackedAutoencoder::pretrain`]. Fresh runs only; resuming a
    /// killed run re-enters the in-progress leg via [`RunSupervisor::run_leg`].
    pub fn pretrain(
        &mut self,
        stack: &mut StackedAutoencoder,
        ctx: &ExecCtx,
        data: &Dataset,
        cfg: &TrainConfig,
        passes: usize,
    ) -> Result<Vec<LayerReport>, TrainError> {
        let wrap = stack.layer_wrapper();
        pretrain_layers(stack.layers_mut(), ctx, data, |layer, current, i| {
            let mut model = wrap(layer.clone());
            let report =
                self.run_leg(&mut model, ctx, current, cfg, passes, Stage::Pretrain, i, 0)?;
            Ok((model.into_inner(), report))
        })
    }

    /// [`RunSupervisor::pretrain`] with each layer's leg trained
    /// data-parallel across `mdcfg.devices` modeled coprocessors. A dead
    /// device mid-leg re-shards onto the survivors inside the leg (the
    /// multi-device trainer's own recovery); the ladder composes on top,
    /// handling divergence, stream faults, and panics identically to the
    /// single-device path.
    pub fn pretrain_multidev(
        &mut self,
        stack: &mut StackedAutoencoder,
        mdcfg: &crate::multidev::MultiDevConfig,
        ctx: &ExecCtx,
        data: &Dataset,
        cfg: &TrainConfig,
        passes: usize,
    ) -> Result<Vec<LayerReport>, TrainError> {
        pretrain_layers(stack.layers_mut(), ctx, data, |layer, current, i| {
            let mut model = crate::multidev::DataParallel::new(layer.clone(), mdcfg.clone());
            let report =
                self.run_leg(&mut model, ctx, current, cfg, passes, Stage::Pretrain, i, 0)?;
            Ok((model.into_inner(), report))
        })
    }
}

/// [`crate::train_dataset`] under supervision: retries, rollbacks, and
/// graceful degradation per `cfg.supervisor` (defaults when `None`).
///
/// On success the report covers only the batches the final leg actually
/// trained (replayed positions are excluded, exactly as on checkpoint
/// resume). Single-model runs only: snapshots are taken at layer 0. For
/// whole pipelines — stacked pre-training, fine-tuning, CNN legs sharing
/// one ladder — drive [`RunSupervisor`] directly.
pub fn train_dataset_supervised<M: Recoverable>(
    model: &mut M,
    ctx: &ExecCtx,
    dataset: &micdnn_data::Dataset,
    cfg: &TrainConfig,
    passes: usize,
) -> Result<(TrainReport, IncidentLog), TrainError> {
    let policy = cfg.supervisor.clone().unwrap_or_default();
    let mut sup = RunSupervisor::new(policy)?;
    let report = sup.run_leg(model, ctx, dataset, cfg, passes, Stage::Pretrain, 0, 0)?;
    Ok((report, sup.into_log()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoencoder::{AeConfig, SparseAutoencoder};
    use crate::exec::OptLevel;
    use crate::finetune::{FineTuneModel, FineTuneNet};
    use crate::train::train_dataset;
    use micdnn_data::Dataset;
    use micdnn_tensor::{Mat, MatView};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::new(Mat::from_fn(n, dim, |_, _| rng.gen_range(0.1..0.9)))
    }

    fn toy_cfg() -> TrainConfig {
        TrainConfig {
            batch_size: 20,
            chunk_rows: 40,
            ..TrainConfig::default()
        }
    }

    /// Wraps a model, sabotaging chosen `train_batch` calls.
    struct Saboteur<M = AeModel> {
        inner: M,
        /// Return NaN (without training) on these 0-based call numbers.
        nan_calls: Vec<u64>,
        /// Panic on these 0-based call numbers.
        panic_calls: Vec<u64>,
        calls: u64,
    }

    impl<M> Saboteur<M> {
        fn new(inner: M) -> Self {
            Saboteur {
                inner,
                nan_calls: Vec::new(),
                panic_calls: Vec::new(),
                calls: 0,
            }
        }
    }

    impl<M: Recoverable> UnsupervisedModel for Saboteur<M> {
        fn input_dim(&self) -> usize {
            self.inner.input_dim()
        }
        fn prepare(&mut self, max_batch: usize) {
            self.inner.prepare(max_batch);
        }
        fn train_batch(&mut self, ctx: &ExecCtx, x: MatView<'_>, lr: f32) -> f64 {
            let call = self.calls;
            self.calls += 1;
            if self.nan_calls.contains(&call) {
                // Neither the model nor the RNG advanced: the replayed
                // batch trains exactly as a fault-free run would have.
                return f64::NAN;
            }
            if self.panic_calls.contains(&call) {
                panic!("sabotaged batch {call}");
            }
            self.inner.train_batch(ctx, x, lr)
        }
        fn resident_bytes(&self) -> u64 {
            self.inner.resident_bytes()
        }
        fn save_state(&self, w: &mut dyn std::io::Write) -> io::Result<()> {
            self.inner.save_state(w)
        }
    }

    impl<M: Recoverable> Recoverable for Saboteur<M> {
        fn restore_state(&mut self, from: CheckpointModel) -> io::Result<()> {
            self.inner.restore_state(from)
        }
    }

    fn fresh_ae() -> AeModel {
        AeModel::new(SparseAutoencoder::new(AeConfig::new(12, 6), 9))
    }

    /// A resumed leg's first snapshot must say what the training loop
    /// itself recorded at that position. Chunks of 250 cut the third batch
    /// of 100 short, so position 3 is 250 examples in, not 3 x 100.
    #[test]
    fn resumed_leg_seeds_its_snapshot_with_the_loops_own_example_count() {
        let progress_of = |snap: &Snapshot| {
            let ckpt = load_checkpoint(&mut snap.bytes.as_slice()).unwrap();
            assert_eq!(ckpt.progress.batches, snap.pos);
            ckpt.progress
        };
        let ds = toy_dataset(500, 12, 5);
        let cfg = TrainConfig {
            batch_size: 100,
            chunk_rows: 250,
            ..TrainConfig::default()
        };
        let geometry = cfg.geometry(ds.len());
        let policy = SupervisorPolicy {
            snapshot_every: 3,
            ..SupervisorPolicy::default()
        };
        let ctx = ExecCtx::native(OptLevel::Improved, 4);
        let mut model = fresh_ae();

        let resumed = SuperHooks::new_at(policy.clone(), &model, &ctx, 0, geometry, 3).unwrap();
        let seeded = progress_of(&resumed.snapshot.lock());
        assert_eq!(seeded.examples, 250);

        // The loop snapshots at positions 3 and 6; the displaced one is
        // its own record of position 3.
        let hooks = SuperHooks::new_at(policy, &model, &ctx, 0, geometry, 0).unwrap();
        train_dataset_at(&mut model, &ctx, &ds, &cfg, 1, 0, 0, Some(&hooks)).unwrap();
        let looped = progress_of(hooks.prev.lock().as_ref().expect("two snapshots"));
        assert_eq!(seeded, looped);
    }

    #[test]
    fn fault_free_supervised_run_matches_unsupervised() {
        let ds = toy_dataset(120, 12, 1);
        let cfg = toy_cfg();
        let mut plain = fresh_ae();
        let ctx = ExecCtx::native(OptLevel::Improved, 4);
        let plain_report = train_dataset(&mut plain, &ctx, &ds, &cfg, 3).unwrap();

        let mut sup = fresh_ae();
        let ctx2 = ExecCtx::native(OptLevel::Improved, 4);
        let (sup_report, log) = train_dataset_supervised(&mut sup, &ctx2, &ds, &cfg, 3).unwrap();
        assert_eq!(plain.ae.w1.as_slice(), sup.ae.w1.as_slice());
        assert_eq!(plain_report.batches, sup_report.batches);
        assert!(log.incidents.is_empty(), "{:?}", log.incidents);
    }

    #[test]
    fn divergence_rolls_back_and_completes_bit_identically() {
        let ds = toy_dataset(120, 12, 2);
        let cfg = TrainConfig {
            // lr_backoff 1.0 keeps the replayed leg bit-identical.
            supervisor: Some(SupervisorPolicy {
                lr_backoff: 1.0,
                snapshot_every: 4,
                ..SupervisorPolicy::default()
            }),
            ..toy_cfg()
        };
        let mut clean = fresh_ae();
        let ctx = ExecCtx::native(OptLevel::Improved, 4);
        train_dataset(&mut clean, &ctx, &ds, &cfg, 3).unwrap();

        let mut sab = Saboteur::new(fresh_ae());
        sab.nan_calls = vec![7];
        let ctx2 = ExecCtx::native(OptLevel::Improved, 4);
        let (_, log) = train_dataset_supervised(&mut sab, &ctx2, &ds, &cfg, 3).unwrap();
        assert_eq!(clean.ae.w1.as_slice(), sab.inner.ae.w1.as_slice());
        assert_eq!(clean.ae.b1, sab.inner.ae.b1);
        assert_eq!(log.count("rollback"), 1, "{:?}", log.incidents);
        assert_eq!(log.count("lr-backoff"), 1);
        // Every supervisor-originated incident carries its stage.
        assert!(log.incidents.iter().all(|i| i.stage == "pretrain"));
    }

    /// A PCD rollback restores the snapshot's chain with the weights: the
    /// batches after a divergence replay from the snapshot's particles, so
    /// the run ends where the clean one does, chain and sampler included.
    /// Weights of unit scale make the chain's hidden samples depend on the
    /// particles (at the default 0.01 they are near-fair coins whatever the
    /// chain holds), so a reseeded chain would show.
    #[test]
    fn pcd_rollback_restores_the_snapshots_chain() {
        use crate::rbm::{Rbm, RbmConfig};
        use crate::train::RbmModel;
        let mut ds = toy_dataset(120, 12, 3);
        ds.binarize(0.5);
        let cfg = TrainConfig {
            supervisor: Some(SupervisorPolicy {
                lr_backoff: 1.0,
                snapshot_every: 4,
                ..SupervisorPolicy::default()
            }),
            ..toy_cfg()
        };
        let fresh = || {
            let mut rbm = Rbm::new(RbmConfig::new(12, 6), 9);
            rbm.w.map_inplace(|w| 100.0 * w);
            RbmModel::new(rbm).with_pcd()
        };
        let mut clean = fresh();
        let ctx = ExecCtx::native(OptLevel::Improved, 4);
        train_dataset(&mut clean, &ctx, &ds, &cfg, 3).unwrap();

        let mut sab = Saboteur::new(fresh());
        sab.nan_calls = vec![7];
        let ctx2 = ExecCtx::native(OptLevel::Improved, 4);
        let (_, log) = train_dataset_supervised(&mut sab, &ctx2, &ds, &cfg, 3).unwrap();
        assert_eq!(log.count("rollback"), 1, "{:?}", log.incidents);
        let chain = |m: &RbmModel| m.pcd_chain().map(|c| c.as_slice().to_vec());
        assert_eq!(chain(&clean), chain(&sab.inner));
        assert_eq!(clean.rbm.w.as_slice(), sab.inner.rbm.w.as_slice());
        assert_eq!(ctx.rng_state(), ctx2.rng_state());
    }

    #[test]
    fn lr_backoff_is_applied_per_rollback() {
        let ds = toy_dataset(80, 12, 3);
        let cfg = TrainConfig {
            learning_rate: 0.2,
            supervisor: Some(SupervisorPolicy {
                lr_backoff: 0.5,
                snapshot_every: 0,
                ..SupervisorPolicy::default()
            }),
            ..toy_cfg()
        };
        let mut sab = Saboteur::new(fresh_ae());
        sab.nan_calls = vec![2, 9];
        let ctx = ExecCtx::native(OptLevel::Improved, 4);
        let (_, log) = train_dataset_supervised(&mut sab, &ctx, &ds, &cfg, 2).unwrap();
        assert_eq!(log.count("rollback"), 2);
        let lrs: Vec<f64> = log
            .incidents
            .iter()
            .filter(|i| i.kind == "lr-backoff")
            .map(|i| i.value)
            .collect();
        assert_eq!(lrs.len(), 2);
        assert!((lrs[0] - 0.1).abs() < 1e-7, "{lrs:?}");
        assert!((lrs[1] - 0.05).abs() < 1e-7, "{lrs:?}");
    }

    #[test]
    fn persistent_divergence_is_unrecoverable() {
        let ds = toy_dataset(80, 12, 4);
        let cfg = TrainConfig {
            supervisor: Some(SupervisorPolicy {
                max_rollbacks: 2,
                snapshot_every: 0,
                ..SupervisorPolicy::default()
            }),
            ..toy_cfg()
        };
        let mut sab = Saboteur::new(fresh_ae());
        // Every leg hits a NaN somewhere.
        sab.nan_calls = (0..10_000).collect();
        let ctx = ExecCtx::native(OptLevel::Improved, 4);
        match train_dataset_supervised(&mut sab, &ctx, &ds, &cfg, 1) {
            Err(TrainError::Unrecoverable { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert!(last.contains("diverged"), "{last}");
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn leg_panic_degrades_and_recovers() {
        let ds = toy_dataset(80, 12, 5);
        let cfg = TrainConfig {
            supervisor: Some(SupervisorPolicy {
                lr_backoff: 1.0,
                snapshot_every: 3,
                ..SupervisorPolicy::default()
            }),
            ..toy_cfg()
        };
        let mut clean = fresh_ae();
        let ctx = ExecCtx::native(OptLevel::Improved, 4);
        train_dataset(&mut clean, &ctx, &ds, &cfg, 2).unwrap();

        let mut sab = Saboteur::new(fresh_ae());
        sab.panic_calls = vec![5];
        let ctx2 = ExecCtx::native(OptLevel::Improved, 4);
        let (_, log) = train_dataset_supervised(&mut sab, &ctx2, &ds, &cfg, 2).unwrap();
        assert!(ctx2.is_degraded());
        assert_eq!(log.count("degraded"), 1, "{:?}", log.incidents);
        // The serial schedule is bit-identical, so the run still matches.
        assert_eq!(clean.ae.w1.as_slice(), sab.inner.ae.w1.as_slice());
    }

    #[test]
    fn policy_validation_rejects_bad_configs() {
        assert!(SupervisorPolicy::default().validate().is_ok());
        for bad_backoff in [0.0, -0.5, f32::NAN, f32::INFINITY] {
            let p = SupervisorPolicy {
                lr_backoff: bad_backoff,
                ..SupervisorPolicy::default()
            };
            assert!(
                matches!(p.validate(), Err(SupervisorPolicyError::BadLrBackoff(_))),
                "{bad_backoff} accepted"
            );
        }
        let p = SupervisorPolicy {
            snapshot_every: 0,
            max_rollbacks: 0,
            ..SupervisorPolicy::default()
        };
        assert_eq!(p.validate(), Err(SupervisorPolicyError::NoRecoveryBudget));
        let p = SupervisorPolicy {
            snapshot_every: 0,
            max_restarts: 0,
            ..SupervisorPolicy::default()
        };
        assert_eq!(p.validate(), Err(SupervisorPolicyError::NoRecoveryBudget));
        // With snapshots on, a zero budget is legal (rollbacks simply
        // fail fast) — and the supervisor surfaces it as TrainError::Policy
        // only for the invalid combination.
        let p = SupervisorPolicy {
            snapshot_every: 5,
            max_rollbacks: 0,
            ..SupervisorPolicy::default()
        };
        assert!(p.validate().is_ok());
        assert!(matches!(
            RunSupervisor::new(SupervisorPolicy {
                lr_backoff: f32::NAN,
                ..SupervisorPolicy::default()
            }),
            Err(SupervisorPolicyError::BadLrBackoff(_))
        ));
    }

    #[test]
    fn stage_round_trips_through_u8() {
        for stage in [Stage::Pretrain, Stage::FineTune, Stage::Cnn] {
            assert_eq!(Stage::from_u8(stage.as_u8()), Some(stage));
        }
        assert_eq!(Stage::from_u8(3), None);
    }

    fn sample_log() -> IncidentLog {
        let mut log = IncidentLog::new();
        log.push(Incident {
            kind: "loader-retry".to_string(),
            stage: "pretrain".to_string(),
            detail: "chunk 3 attempt 0: transient source fault: io hiccup".to_string(),
            batch: 3,
            value: 0.001,
        });
        log.push(Incident {
            kind: "rollback".to_string(),
            stage: "finetune".to_string(),
            detail: "batch 9 diverged (error NaN); rolled back to batch 5".to_string(),
            batch: 9,
            value: f64::from(f32::MAX),
        });
        log
    }

    #[test]
    fn incident_log_round_trips_through_jsonl() {
        let log = sample_log();
        let text = log.to_jsonl();
        assert!(text.starts_with("{\"schema\":\"micdnn-incidents-v2\"}\n"));
        assert_eq!(text.lines().count(), 3);
        let back = IncidentLog::from_text(&text).unwrap();
        assert_eq!(log, back);
        assert_eq!(back.schema, INCIDENT_SCHEMA);
    }

    #[test]
    fn nan_incident_value_survives_the_jsonl_round_trip() {
        // Divergence rollbacks carry the offending error, which is NaN;
        // JSON has no NaN literal, so it is written as `null` and must
        // come back as NaN rather than a corrupt-record error.
        let mut log = IncidentLog::default();
        log.push(Incident {
            kind: "rollback".into(),
            stage: "finetune".into(),
            detail: "batch 7 diverged (error NaN); rolled back to batch 5".into(),
            batch: 7,
            value: f64::NAN,
        });
        let text = log.to_jsonl();
        assert!(text.contains("\"value\":null"), "{text}");
        let back = IncidentLog::from_text(&text).unwrap();
        assert_eq!(back.incidents.len(), 1);
        assert!(back.incidents[0].value.is_nan());
        assert_eq!(back.incidents[0].kind, "rollback");
    }

    #[test]
    fn truncated_final_record_loses_only_itself() {
        let log = sample_log();
        let text = log.to_jsonl();
        // Simulate a crash mid-append: the final record is cut short.
        let cut = &text[..text.len() - 10];
        let back = IncidentLog::from_text(cut).unwrap();
        assert_eq!(back.incidents.len(), 1);
        assert_eq!(back.incidents[0], log.incidents[0]);
        // But a corrupt record in the *middle* is an error, not data loss.
        let mut lines: Vec<&str> = text.lines().collect();
        let garbled = lines[1][..lines[1].len() - 10].to_string();
        lines[1] = &garbled;
        let rejoined = lines.join("\n");
        assert!(IncidentLog::from_text(&rejoined).is_err());
    }

    #[test]
    fn v1_whole_document_logs_still_load() {
        // A v1 export: one pretty JSON document, records without `stage`.
        let text = r#"{
  "schema": "micdnn-incidents-v1",
  "incidents": [
    {
      "kind": "rollback",
      "detail": "batch 7 diverged (error NaN); rolled back to batch 4",
      "batch": 7,
      "value": 0.0
    }
  ]
}"#;
        let log = IncidentLog::from_text(text).unwrap();
        assert_eq!(log.schema, "micdnn-incidents-v1");
        assert_eq!(log.incidents.len(), 1);
        assert_eq!(log.incidents[0].kind, "rollback");
        assert_eq!(log.incidents[0].stage, "");
    }

    #[test]
    fn hostile_incident_logs_are_rejected_or_lose_only_the_final_record() {
        const HEAD: &str = r#"{"schema":"micdnn-incidents-v2"}"#;
        const GOOD: &str =
            r#"{"kind":"rollback","stage":"cnn","detail":"d","batch":4,"value":0.5}"#;
        let record = |field: &str, v: &str| {
            GOOD.replace(&format!("\"{field}\":"), &format!("\"{field}\":{v},\"_\":"))
        };
        let hostile = [
            ("kind of the wrong type", record("kind", "7")),
            ("stage of the wrong type", record("stage", "[]")),
            ("batch as a string", record("batch", "\"4\"")),
            ("negative batch", record("batch", "-4")),
            ("fractional batch", record("batch", "4.5")),
            ("value as a string", record("value", "\"x\"")),
            ("missing detail", GOOD.replace("\"detail\"", "\"note\"")),
            ("record that is an array", "[1,2,3]".to_string()),
            ("record that is a number", "42".to_string()),
            ("corrupt line", GOOD[..GOOD.len() - 9].to_string()),
            ("deep nesting", "[".repeat(10_000)),
        ];
        for (what, bad_record) in &hostile {
            // In the middle of a JSONL log it is corruption, not data loss.
            let middle = format!("{HEAD}\n{GOOD}\n{bad_record}\n{GOOD}\n");
            let err = IncidentLog::from_text(&middle).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(
                err.to_string().contains("incident record 2"),
                "{what}: {err}"
            );
            // As the final line it is the record a crash was appending.
            let last = format!("{HEAD}\n{GOOD}\n{bad_record}\n");
            let log = IncidentLog::from_text(&last).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(log.incidents.len(), 1, "{what}");
            assert_eq!(log.incidents[0].batch, 4, "{what}");
            // A v1 document has no final line to forgive.
            let v1 = format!(r#"{{"schema":"v1","incidents":[{GOOD},{bad_record}]}}"#);
            let err = IncidentLog::from_text(&v1).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        let whole_log = [
            ("header without schema", format!("{{\"tag\":1}}\n{GOOD}\n")),
            (
                "schema of the wrong type",
                format!("{{\"schema\":2}}\n{GOOD}\n"),
            ),
            ("header that is not JSON", format!("schema\n{GOOD}\n")),
            (
                "v1 incidents not an array",
                r#"{"schema":"v1","incidents":{}}"#.to_string(),
            ),
            (
                "v1 incidents a string",
                "{\n  \"schema\": \"v1\",\n  \"incidents\": \"\"\n}".to_string(),
            ),
            ("v1 without schema", format!(r#"{{"incidents":[{GOOD}]}}"#)),
            ("deeply nested header", "[".repeat(200_000)),
        ];
        for (what, text) in &whole_log {
            let err = IncidentLog::from_text(text).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_previous() {
        let ds = toy_dataset(80, 12, 6);
        let cfg = toy_cfg();
        let mut model = fresh_ae();
        let ctx = ExecCtx::native(OptLevel::Improved, 4);
        model.prepare(cfg.batch_size);
        let hooks = SuperHooks::new_at(
            SupervisorPolicy::default(),
            &model,
            &ctx,
            0,
            cfg.geometry(80),
            0,
        )
        .unwrap();
        // Train a little, snapshot again so a previous snapshot exists.
        train_dataset(&mut model, &ctx, &ds, &cfg, 1).unwrap();
        let after_one_pass = TrainProgress {
            layer: 0,
            epoch: 1,
            batches: 4,
            examples: 80,
        };
        hooks.snapshot(&model, &ctx, &after_one_pass).unwrap();
        assert_eq!(hooks.snapshot_pos(), 4);
        // Corrupt the current snapshot in place.
        hooks.snapshot.lock().bytes.truncate(6);
        let incident = restore(&mut model, &ctx, &hooks).unwrap();
        let incident = incident.expect("fallback incident");
        assert_eq!(incident.kind, "snapshot-fallback");
        assert!(
            incident.detail.contains("fell back to batch 0"),
            "{incident:?}"
        );
        // The fallback was promoted: position and a further restore both
        // reflect the snapshot the model actually holds.
        assert_eq!(hooks.snapshot_pos(), 0);
        assert!(restore(&mut model, &ctx, &hooks).unwrap().is_none());
    }

    #[test]
    fn with_both_snapshots_corrupt_the_error_is_typed() {
        let cfg = toy_cfg();
        let mut model = fresh_ae();
        let ctx = ExecCtx::native(OptLevel::Improved, 4);
        model.prepare(cfg.batch_size);
        let hooks = SuperHooks::new_at(
            SupervisorPolicy::default(),
            &model,
            &ctx,
            0,
            cfg.geometry(80),
            0,
        )
        .unwrap();
        hooks.snapshot.lock().bytes.truncate(3);
        match restore(&mut model, &ctx, &hooks) {
            Err(TrainError::Checkpoint(_)) => {}
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn ladder_state_survives_a_durable_round_trip() {
        let dir = crate::TestDir::new("sup-ladder");
        let incidents = dir.file("incidents.jsonl");
        let mut sup = RunSupervisor::new(SupervisorPolicy::default())
            .unwrap()
            .durable(dir.path())
            .with_incident_file(&incidents);
        sup.rollbacks = 2;
        sup.restarts = 1;
        sup.lr_mult = 0.25;
        sup.degraded = true;
        sup.pos = RunPos {
            stage: Stage::FineTune,
            layer: 1,
            epoch: 3,
            batch: 17,
        };
        sup.log = sample_log();
        sup.persist_io().unwrap();

        let mut back = RunSupervisor::new(SupervisorPolicy::default())
            .unwrap()
            .durable(dir.path())
            .with_incident_file(&incidents);
        assert!(back.load_durable().unwrap());
        assert_eq!(back.rollbacks(), 2);
        assert_eq!(back.restarts(), 1);
        assert_eq!(back.lr_multiplier(), 0.25);
        assert!(back.is_degraded());
        assert_eq!(back.pos, sup.pos);
        assert_eq!(back.log(), sup.log());
    }

    #[test]
    fn load_durable_without_state_is_a_fresh_run() {
        let dir = crate::TestDir::new("sup-fresh");
        let mut sup = RunSupervisor::new(SupervisorPolicy::default())
            .unwrap()
            .durable(dir.path());
        assert!(!sup.load_durable().unwrap());
        assert_eq!(sup.rollbacks(), 0);
    }

    #[test]
    fn supervised_pretrain_matches_plain_pretrain() {
        let data = toy_dataset(120, 16, 7);
        let cfg = toy_cfg();
        let mut plain = StackedAutoencoder::with_default_config(&[16, 10, 6], 3);
        let ctx = ExecCtx::native(OptLevel::Improved, 4);
        let plain_reports = plain.pretrain(&ctx, &data, &cfg, 2).unwrap();

        let mut sup_stack = StackedAutoencoder::with_default_config(&[16, 10, 6], 3);
        let ctx2 = ExecCtx::native(OptLevel::Improved, 4);
        let mut sup = RunSupervisor::new(SupervisorPolicy::default()).unwrap();
        let sup_reports = sup.pretrain(&mut sup_stack, &ctx2, &data, &cfg, 2).unwrap();
        assert_eq!(plain_reports.len(), sup_reports.len());
        for (a, b) in plain.layers().iter().zip(sup_stack.layers()) {
            assert_eq!(a.w1.as_slice(), b.w1.as_slice());
            assert_eq!(a.b1, b.b1);
        }
        assert!(sup.log().incidents.is_empty());
        assert_eq!(sup.pos.stage, Stage::Pretrain);
        assert_eq!(sup.pos.layer, 1);
    }

    #[test]
    fn supervised_finetune_leg_matches_plain_training() {
        let data = toy_dataset(120, 12, 8);
        let cfg = toy_cfg();
        let mut stack = StackedAutoencoder::with_default_config(&[12, 8], 5);
        let ctx = ExecCtx::native(OptLevel::Improved, 4);
        stack.pretrain(&ctx, &data, &cfg, 1).unwrap();
        let net = FineTuneNet::from_stack(&stack, 4, 11);

        let mut plain = FineTuneModel::new(net.clone(), data.matrix().rows() as u64);
        let ctx_a = ExecCtx::native(OptLevel::Improved, 4);
        train_dataset(&mut plain, &ctx_a, &data, &cfg, 2).unwrap();

        let mut supervised = FineTuneModel::new(net, data.matrix().rows() as u64);
        let ctx_b = ExecCtx::native(OptLevel::Improved, 4);
        let mut sup = RunSupervisor::new(SupervisorPolicy::default()).unwrap();
        sup.run_leg(
            &mut supervised,
            &ctx_b,
            &data,
            &cfg,
            2,
            Stage::FineTune,
            0,
            0,
        )
        .unwrap();
        for (a, b) in plain
            .net
            .layer_params()
            .iter()
            .zip(supervised.net.layer_params())
        {
            assert_eq!(a.0.as_slice(), b.0.as_slice());
            assert_eq!(a.1, b.1);
        }
        assert_eq!(sup.pos.stage, Stage::FineTune);
    }

    #[test]
    fn incident_log_round_trips_through_json() {
        let mut log = IncidentLog::new();
        log.push(Incident {
            kind: "loader-retry".to_string(),
            stage: "pretrain".to_string(),
            detail: "chunk 3 attempt 0: transient source fault: io hiccup".to_string(),
            batch: 3,
            value: 0.001,
        });
        let text = serde_json::to_string_pretty(&log).unwrap();
        let value = serde_json::from_str(&text).unwrap();
        assert_eq!(value, serde_json::to_value(&log));
        assert_eq!(serde_json::to_string_pretty(&value).unwrap(), text);
        // The whole-document form is the v1 layout, which the reader takes.
        let back = IncidentLog::from_text(&text).unwrap();
        assert_eq!(log, back);
        assert_eq!(back.schema, INCIDENT_SCHEMA);
        assert_eq!(back.count("loader-retry"), 1);
    }
}
