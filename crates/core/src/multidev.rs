//! Multi-device data-parallel training with bit-exact gradient merging.
//!
//! The paper trains on a single Xeon Phi card; its natural scale-out step
//! (and the one its successors took) is data parallelism across several
//! coprocessors: each card holds a full parameter replica, computes
//! gradients on its shard of the mini-batch, and the shards are merged
//! through a modeled PCIe sync step ([`micdnn_sim::DeviceSet`]).
//!
//! # Canonical microblocks: N-invariant numerics by construction
//!
//! Naive sharding (`B/N` rows per device, per-shard mean gradients, then
//! averaging the shard means) changes floating-point association whenever
//! `N` changes, so an N-device run drifts from the single-device run. This
//! module instead fixes the summation *geometry* independently of the
//! device count:
//!
//! 1. The global batch `B` is split into `K` **canonical microblocks** by
//!    [`block_bounds`] — a pure function of `(B, K)`, never of `N`.
//! 2. Every per-example op (forward *and* backward) runs per block, so
//!    each op's operand shapes are the block's, not the shard's.
//! 3. Per-block partial gradients use `alpha = 1` (column *sums*, not
//!    means).
//! 4. The merge left-folds the partials **in canonical block order**
//!    ([`micdnn_kernels::vecops::block_merge`]: block 0 is copied, blocks
//!    `1..K` are added in order), then one final `scale(1/B)` recovers the
//!    batch mean.
//!
//! Devices own contiguous *ranges of blocks*; changing `N` (or dropping a
//! device mid-run) only changes which device computes which block — every
//! f32 operation, operand shape, and fold order is untouched. The result:
//! `N`-device training is **bitwise identical** to the same trainer at
//! `N = 1`, enforced by the proptests in `tests/shard_properties.rs`.
//!
//! RBM sampling stays N-invariant the same way: the per-step sampling
//! streams are allocated once at the master level (`cd_steps` streams per
//! batch regardless of `N`), and each block samples through
//! [`ExecCtx::bernoulli_at`] at its global element offset, so the sampled
//! bits per example are a pure function of `(seed, stream, row, column)`.
//!
//! # Timing model
//!
//! On a simulated context each device's shard is priced with
//! [`ExecCtx::run_deferred`]; the master clock advances by the *slowest*
//! device plus the modeled allreduce ([`DeviceSet::allreduce_time`] —
//! ring allreduce by default, host parameter-server as fallback).
//! [`DeviceSet::sync_fraction`] feeds the `BENCH_multidev.json` artifact.
//!
//! # Fault injection
//!
//! Two failpoints (feature `failpoints`, see [`crate::faults`]): a
//! `device.oom` drops one device and re-shards its blocks onto the
//! survivors (bit-identical by construction); a `link.drop` retries the
//! gradient sync, charging extra modeled time without touching numerics.
//!
//! Both recoveries happen *inside* a training leg, so they compose with
//! the supervisor's ladder for free: a [`crate::RunSupervisor`] leg that
//! loses a device mid-flight re-shards here, and if the same leg later
//! diverges, the rollback restores a [`CheckpointModel`] snapshot whose
//! device set reflects the survivors (the `TAG_MDP` record carries the
//! online mask), so replay stays bit-identical at any device count.

use crate::autoencoder::{AeScratch, SparseAutoencoder};
use crate::checkpoint::CheckpointModel;
use crate::exec::ExecCtx;
use crate::faults;
use crate::model_io::{
    bad, read_any_header, read_autoencoder_body, read_rbm_body, read_u64, save_autoencoder,
    save_rbm, write_header, write_u64, TAG_AE, TAG_MDP, TAG_RBM,
};
use crate::rbm::{Rbm, RbmScratch};
use crate::supervise::Recoverable;
use crate::train::UnsupervisedModel;
use micdnn_kernels::kl_sparsity;
use micdnn_sim::{DeviceSet, EventKind, Link, SyncModel};
use micdnn_tensor::MatView;
use std::io::{self, Read, Write};

/// Hard cap on the device count: a checkpoint may declare no more (a
/// corrupt header must not size allocations), so no run may use more.
const MAX_DEVICES: usize = 4096;

/// Hard cap on the canonical block count, for the same reason.
const MAX_BLOCKS: usize = 1 << 20;

/// Splits `total` rows into `parts` contiguous ranges whose sizes differ
/// by at most one (the first `total % parts` ranges get the extra row).
///
/// Pure in `(total, parts)` — this is the invariant the bit-exactness of
/// multi-device training rests on: the canonical block geometry of a batch
/// never depends on how many devices will compute it. Ranges may be empty
/// when `total < parts`.
pub fn block_bounds(total: usize, parts: usize) -> Vec<(usize, usize)> {
    assert!(parts >= 1, "block_bounds needs at least one part");
    let base = total / parts;
    let rem = total % parts;
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0;
    for i in 0..parts {
        let sz = base + usize::from(i < rem);
        out.push((lo, lo + sz));
        lo += sz;
    }
    debug_assert_eq!(lo, total);
    out
}

/// The non-empty canonical microblocks of a `batch`-row mini-batch.
pub(crate) fn canonical_blocks(batch: usize, k: usize) -> Vec<(usize, usize)> {
    block_bounds(batch, k.max(1))
        .into_iter()
        .filter(|&(lo, hi)| hi > lo)
        .collect()
}

/// A degenerate multi-device geometry, rejected before any shard setup or
/// [`block_bounds`] call can see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiDevConfigError {
    /// Zero devices: there is nothing to train on.
    NoDevices,
    /// Zero canonical microblocks: the batch cannot be split.
    NoBlocks,
    /// Fewer canonical blocks than devices: some devices could never own
    /// a block, so the geometry silently wastes them.
    FewerBlocksThanDevices {
        /// Configured canonical block count.
        blocks: usize,
        /// Configured device count.
        devices: usize,
    },
    /// More devices than a checkpoint can record, so the run could never
    /// be resumed.
    TooManyDevices(usize),
    /// More canonical blocks than a checkpoint can record.
    TooManyBlocks(usize),
}

impl std::fmt::Display for MultiDevConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiDevConfigError::NoDevices => write!(f, "need at least one device"),
            MultiDevConfigError::NoBlocks => write!(f, "need at least one canonical block"),
            MultiDevConfigError::FewerBlocksThanDevices { blocks, devices } => write!(
                f,
                "canonical block count {blocks} is smaller than the device count {devices}; \
                 blocks must be >= devices so every device can own at least one block"
            ),
            MultiDevConfigError::TooManyDevices(n) => {
                write!(f, "device count {n} exceeds the maximum of {MAX_DEVICES}")
            }
            MultiDevConfigError::TooManyBlocks(k) => {
                write!(
                    f,
                    "canonical block count {k} exceeds the maximum of {MAX_BLOCKS}"
                )
            }
        }
    }
}

impl std::error::Error for MultiDevConfigError {}

/// Configuration of a multi-device data-parallel trainer.
#[derive(Debug, Clone)]
pub struct MultiDevConfig {
    /// Number of coprocessors in the set.
    pub devices: usize,
    /// Number of canonical microblocks `K` each global batch is split
    /// into. Must not change across runs that are compared bit-for-bit
    /// (it is persisted in checkpoints for exactly that reason).
    pub canonical_blocks: usize,
    /// Gradient synchronization strategy.
    pub sync: SyncModel,
    /// Per-device PCIe link model.
    pub link: Link,
    /// Modeled per-device memory capacity in bytes.
    pub mem_capacity: u64,
}

impl MultiDevConfig {
    /// `devices` coprocessors with the paper's card parameters: 8 canonical
    /// blocks, ring allreduce, PCIe gen-2 link, 8 GB per card.
    pub fn new(devices: usize) -> Self {
        assert!(devices >= 1, "need at least one device");
        MultiDevConfig {
            devices,
            canonical_blocks: 8,
            sync: SyncModel::RingAllReduce,
            link: Link::pcie_gen2(),
            mem_capacity: 8 << 30,
        }
    }

    /// Like [`MultiDevConfig::new`] + [`MultiDevConfig::with_blocks`], but
    /// returns a typed error on degenerate geometry instead of panicking —
    /// the front door for externally supplied device/block counts (the CLI
    /// routes through this).
    pub fn validated(devices: usize, blocks: usize) -> Result<Self, MultiDevConfigError> {
        // `new` asserts `devices >= 1`; build on a sound count and let
        // `validate` judge the requested one.
        let cfg = MultiDevConfig {
            devices,
            canonical_blocks: blocks,
            ..MultiDevConfig::new(1)
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks the configured geometry, returning a typed error for any
    /// degenerate combination (`devices == 0`, `blocks == 0`,
    /// `blocks < devices`) and for counts a checkpoint cannot record.
    pub(crate) fn validate(&self) -> Result<(), MultiDevConfigError> {
        if self.devices == 0 {
            return Err(MultiDevConfigError::NoDevices);
        }
        if self.devices > MAX_DEVICES {
            return Err(MultiDevConfigError::TooManyDevices(self.devices));
        }
        if self.canonical_blocks == 0 {
            return Err(MultiDevConfigError::NoBlocks);
        }
        if self.canonical_blocks > MAX_BLOCKS {
            return Err(MultiDevConfigError::TooManyBlocks(self.canonical_blocks));
        }
        if self.canonical_blocks < self.devices {
            return Err(MultiDevConfigError::FewerBlocksThanDevices {
                blocks: self.canonical_blocks,
                devices: self.devices,
            });
        }
        Ok(())
    }

    /// Overrides the canonical microblock count `K`.
    pub fn with_blocks(mut self, k: usize) -> Self {
        assert!(k >= 1, "need at least one canonical block");
        self.canonical_blocks = k;
        self
    }

    /// Overrides the gradient synchronization strategy.
    pub fn with_sync(mut self, sync: SyncModel) -> Self {
        self.sync = sync;
        self
    }

    /// Overrides the per-device link model.
    pub fn with_link(mut self, link: Link) -> Self {
        self.link = link;
        self
    }

    /// The per-device memory budget the certifier proves peak residency
    /// against — the modeled card capacity ([`MultiDevConfig::mem_capacity`],
    /// 8 GB for the paper's Xeon Phi).
    pub fn mem_budget(&self) -> u64 {
        self.mem_capacity
    }

    fn device_set(&self) -> DeviceSet {
        DeviceSet::new(self.devices, self.link, self.sync)
    }
}

/// Everything a multi-device checkpoint stores on top of the inner model:
/// the device geometry, the per-device RNG cursors, and which devices had
/// already dropped offline.
#[derive(Debug)]
pub struct MultiDevState {
    /// Devices in the set at save time.
    pub devices: usize,
    /// Canonical microblock count the run was using.
    pub canonical_blocks: usize,
    /// Per-device `(seed, cursor)` sampler positions at save time.
    pub dev_rng: Vec<(u64, u64)>,
    /// Which devices were offline at save time.
    pub offline: Vec<bool>,
    /// The replicated model.
    pub inner: MultiDevModelState,
}

/// The model replica embedded in a multi-device checkpoint.
#[derive(Debug)]
pub enum MultiDevModelState {
    /// Sparse-autoencoder replica.
    Ae(SparseAutoencoder),
    /// RBM replica.
    Rbm(Rbm),
}

/// Reads a `TAG_MDP` record body (header already consumed).
pub(crate) fn read_multidev_body(r: &mut impl Read) -> io::Result<MultiDevState> {
    let n = read_u64(r)?;
    if n == 0 || n > MAX_DEVICES as u64 {
        return Err(bad(format!(
            "device count {n} out of range (1..={MAX_DEVICES})"
        )));
    }
    let k = read_u64(r)?;
    if k == 0 || k > MAX_BLOCKS as u64 {
        return Err(bad(format!("canonical block count {k} out of range")));
    }
    let mut dev_rng = Vec::with_capacity(n as usize);
    let mut offline = Vec::with_capacity(n as usize);
    for i in 0..n {
        let seed = read_u64(r)?;
        let cursor = read_u64(r)?;
        let mut flag = [0u8; 1];
        r.read_exact(&mut flag)?;
        let off = match flag[0] {
            0 => false,
            1 => true,
            t => return Err(bad(format!("bad offline flag {t} for device {i}"))),
        };
        dev_rng.push((seed, cursor));
        offline.push(off);
    }
    if offline.iter().all(|&o| o) {
        return Err(bad("checkpoint declares every device offline"));
    }
    let inner = match read_any_header(r)? {
        TAG_AE => MultiDevModelState::Ae(read_autoencoder_body(r)?),
        TAG_RBM => MultiDevModelState::Rbm(read_rbm_body(r)?),
        t => {
            return Err(bad(format!(
                "multi-device record embeds unknown model tag {t}"
            )))
        }
    };
    Ok(MultiDevState {
        devices: n as usize,
        canonical_blocks: k as usize,
        dev_rng,
        offline,
        inner,
    })
}

/// `device.oom` failpoint: drops the highest-numbered online device (never
/// the last one) and notes the incident.
fn maybe_drop_device(devset: &mut DeviceSet, ctx: &ExecCtx) {
    if devset.online_count() > 1 && faults::fire("device.oom") {
        let victim = (0..devset.len())
            .rev()
            .find(|&i| devset.is_online(i))
            .expect("online device exists");
        devset.mark_offline(victim);
        ctx.note_incident(
            "device-oom",
            &format!(
                "device {victim} out of memory, dropped offline; its blocks re-land on {} survivor(s)",
                devset.online_count()
            ),
        );
    }
}

/// Charges the step's modeled time to the master clock and the device set:
/// the slowest device's compute plus the gradient allreduce (with a
/// `link.drop` retry when armed). Returns nothing; numerics are untouched.
fn charge_step(
    devset: &mut DeviceSet,
    ctx: &ExecCtx,
    max_busy: f64,
    mut sync: f64,
    payload_bytes: u64,
) {
    if faults::fire("link.drop") {
        sync += devset.allreduce_time(payload_bytes);
        ctx.note_incident(
            "link-retry",
            &format!("gradient sync transfer ({payload_bytes} B) dropped; retried once"),
        );
    }
    ctx.charge_secs(max_busy, EventKind::Node, "multidev-shards");
    ctx.charge_secs(sync, EventKind::Sync, "multidev-allreduce");
    devset.record_step(max_busy, sync);
}

/// One step's view of the device set, handed to [`ShardedStep::sharded_step`]:
/// the canonical blocks of the batch, which online device computes which
/// contiguous range of them, and each device's modeled busy time.
pub struct Shards<'a> {
    /// The master context (merges and updates charge it directly).
    ctx: &'a ExecCtx,
    x: MatView<'a>,
    blocks: Vec<(usize, usize)>,
    /// `(device, first block, one past its last block)` for every online
    /// device that owns at least one block, in fixed id order.
    owners: Vec<(usize, usize, usize)>,
    busy: Vec<f64>,
}

impl Shards<'_> {
    /// Runs `f(ctx, k, lo, x_k)` for every canonical block `k` (global row
    /// offset `lo`, rows `x_k`), device by device; each device's blocks are
    /// priced together with [`ExecCtx::run_deferred`] into its busy time.
    pub(crate) fn each_block(&mut self, mut f: impl FnMut(&ExecCtx, usize, usize, MatView<'_>)) {
        for &(dev, klo, khi) in &self.owners {
            let ((), secs) = self.ctx.run_deferred(|ctx| {
                for k in klo..khi {
                    let (lo, hi) = self.blocks[k];
                    f(ctx, k, lo, self.x.rows_range(lo, hi));
                }
            });
            self.busy[dev] += secs;
        }
    }

    /// Left-folds one partial-sum buffer of every block (`part` picks it)
    /// into `acc` in canonical block order, then scales once by `1/B` to
    /// recover the batch mean.
    pub(crate) fn merge<S>(&self, blocks: &[S], part: impl Fn(&S) -> &[f32], acc: &mut [f32]) {
        let parts: Vec<&[f32]> = blocks.iter().map(part).collect();
        self.ctx.block_merge(&parts, acc);
        self.ctx.scale(1.0 / self.x.rows() as f32, acc);
    }
}

/// What a model supplies to train under [`DataParallel`]: its per-block
/// phases, which block buffers merge into which accumulators, its update,
/// and its sync cost. Everything about devices — sharding, busy-time
/// accounting, failover, checkpoint geometry — is the wrapper's.
pub trait ShardedStep: Sized {
    /// Per-block buffers. One more instance (capacity 1) serves as the
    /// master copy whose gradient fields receive the merged accumulators.
    type Scratch;

    /// Input dimensionality each example must have.
    fn input_dim(&self) -> usize;

    /// Buffers for a block of up to `cap` rows.
    fn block_scratch(&self, cap: usize) -> Self::Scratch;

    /// One training step over the sharded batch: run the block phases with
    /// `Shards::each_block` (`alpha = 1` partial sums into `blocks[k]`),
    /// merge them into `master` with `Shards::merge`, apply the update to
    /// the replicated parameters. Returns the batch's mean reconstruction
    /// error.
    fn sharded_step(
        &mut self,
        sh: &mut Shards<'_>,
        blocks: &mut [Self::Scratch],
        master: &mut Self::Scratch,
        lr: f32,
    ) -> f64;

    /// Modeled seconds of one step's allreduces over `devset`, and the
    /// bytes of the gradient payload (what a `link.drop` retry resends).
    fn sync_cost(&self, devset: &DeviceSet) -> (f64, u64);

    /// Per-device footprint for a `shard_rows`-row shard: a full parameter
    /// replica + merge accumulators + that device's share of the scratch.
    fn shard_resident_bytes(&self, shard_rows: usize) -> u64;

    /// Writes the model record a `TAG_MDP` container embeds.
    fn save(&self, w: &mut dyn Write) -> io::Result<()>;

    /// Takes the model out of a `TAG_MDP` record; `InvalidData` when it
    /// embeds the other kind.
    fn from_state(state: MultiDevModelState) -> io::Result<Self>;
}

/// A model replicated across a [`DeviceSet`], trained data-parallel with
/// bit-exact canonical-block gradient merging.
///
/// Plugs into the chunked trainer through [`UnsupervisedModel`], into the
/// supervisor through [`Recoverable`], and into checkpoints through the
/// `TAG_MDP` container record. At `devices = 1` it runs the *same*
/// algorithm (same blocks, same fold), which is the reference the
/// equivalence tests pin every other `N` against.
#[derive(Debug)]
pub struct DataParallel<M: ShardedStep> {
    model: M,
    cfg: MultiDevConfig,
    devset: DeviceSet,
    /// Per-device `(seed, cursor)` sampler positions after the last step
    /// each device participated in (all online devices advance in
    /// lockstep; an offline device's cursor freezes where it dropped).
    dev_rng: Vec<(u64, u64)>,
    /// One scratch per canonical block (empty until `prepare`).
    scratch: Vec<M::Scratch>,
    /// Row capacity of each block scratch.
    block_cap: usize,
    /// Merge accumulators (the gradient fields of a capacity-1 scratch).
    master: M::Scratch,
}

/// A sparse autoencoder under [`DataParallel`].
pub type DataParallelAe = DataParallel<SparseAutoencoder>;

/// An RBM under [`DataParallel`]: data-parallel CD-k with canonical-block
/// statistics merging and N-invariant sampling.
pub type DataParallelRbm = DataParallel<Rbm>;

impl<M: ShardedStep> DataParallel<M> {
    /// Replicates `model` across `cfg.devices` modeled coprocessors.
    pub fn new(model: M, cfg: MultiDevConfig) -> Self {
        DataParallel {
            dev_rng: vec![(0, 0); cfg.devices],
            devset: cfg.device_set(),
            master: model.block_scratch(1),
            scratch: Vec::new(),
            block_cap: 0,
            model,
            cfg,
        }
    }

    /// Consumes the wrapper, returning the trained model.
    pub fn into_inner(self) -> M {
        self.model
    }

    /// The device set (clocks, online flags, compute/sync accounting).
    pub fn device_set(&self) -> &DeviceSet {
        &self.devset
    }

    /// The multi-device configuration.
    pub fn config(&self) -> &MultiDevConfig {
        &self.cfg
    }

    /// Per-device `(seed, cursor)` sampler positions (what checkpoints
    /// persist).
    pub fn dev_rng(&self) -> &[(u64, u64)] {
        &self.dev_rng
    }

    /// Takes device `i` offline; its blocks re-land on the survivors with
    /// bit-identical results (the chaos harness and CLI demos use this).
    ///
    /// Dropping the last surviving device is a recoverable
    /// [`TrainError::Unrecoverable`](crate::train::TrainError::Unrecoverable),
    /// not a panic: a supervisor that loses its whole device set must be
    /// able to surface the failure and keep the process alive.
    pub fn mark_device_offline(&mut self, i: usize) -> Result<(), crate::train::TrainError> {
        assert!(i < self.devset.len(), "device index {i} out of range");
        if self.devset.is_online(i) && self.devset.online_count() <= 1 {
            return Err(crate::train::TrainError::Unrecoverable {
                attempts: 0,
                last: format!(
                    "cannot take device {i} offline: it is the last surviving device in the set"
                ),
            });
        }
        self.devset.mark_offline(i);
        Ok(())
    }

    /// Fraction of modeled step time spent in gradient synchronization.
    pub fn sync_fraction(&self) -> f64 {
        self.devset.sync_fraction()
    }
}

impl DataParallel<SparseAutoencoder> {
    /// The replicated autoencoder.
    pub fn ae(&self) -> &SparseAutoencoder {
        &self.model
    }
}

impl DataParallel<Rbm> {
    /// The replicated RBM.
    pub fn rbm(&self) -> &Rbm {
        &self.model
    }
}

impl<M: ShardedStep> UnsupervisedModel for DataParallel<M> {
    fn input_dim(&self) -> usize {
        self.model.input_dim()
    }

    fn prepare(&mut self, max_batch: usize) {
        let k = self.cfg.canonical_blocks;
        let cap = max_batch.div_ceil(k).max(1);
        if self.scratch.len() != k || self.block_cap < cap {
            self.scratch = (0..k).map(|_| self.model.block_scratch(cap)).collect();
            self.block_cap = cap;
        }
    }

    fn train_batch(&mut self, ctx: &ExecCtx, x: MatView<'_>, lr: f32) -> f64 {
        assert!(x.rows() > 0, "empty batch");
        assert!(!self.scratch.is_empty(), "prepare() not called");
        maybe_drop_device(&mut self.devset, ctx);

        // Canonical blocks -> contiguous block ranges per online device.
        let blocks = canonical_blocks(x.rows(), self.cfg.canonical_blocks);
        let online: Vec<usize> = (0..self.devset.len())
            .filter(|&i| self.devset.is_online(i))
            .collect();
        let owners = block_bounds(blocks.len(), online.len())
            .into_iter()
            .zip(&online)
            .filter(|&((klo, khi), _)| khi > klo)
            .map(|((klo, khi), &dev)| (dev, klo, khi))
            .collect();
        let mut sh = Shards {
            ctx,
            x,
            blocks,
            owners,
            busy: vec![0.0; self.devset.len()],
        };
        let nb = sh.blocks.len();
        let err = self
            .model
            .sharded_step(&mut sh, &mut self.scratch[..nb], &mut self.master, lr);

        // Modeled time: slowest device + the step's allreduces.
        let max_busy = sh.busy.iter().cloned().fold(0.0, f64::max);
        let (sync, grad_bytes) = self.model.sync_cost(&self.devset);
        charge_step(&mut self.devset, ctx, max_busy, sync, grad_bytes);

        let state = ctx.rng_state();
        for &dev in &online {
            self.dev_rng[dev] = state;
        }
        err
    }

    fn resident_bytes(&self, max_batch: usize) -> u64 {
        let shard = max_batch.div_ceil(self.devset.online_count().max(1));
        self.model.shard_resident_bytes(shard)
    }

    /// The `TAG_MDP` container: geometry + per-device RNG cursors +
    /// offline flags, then the inner model record.
    fn save_state(&self, w: &mut dyn Write) -> io::Result<()> {
        let mut w = w;
        write_header(&mut w, TAG_MDP)?;
        write_u64(&mut w, self.devset.len() as u64)?;
        write_u64(&mut w, self.cfg.canonical_blocks as u64)?;
        for (i, &(seed, cursor)) in self.dev_rng.iter().enumerate() {
            write_u64(&mut w, seed)?;
            write_u64(&mut w, cursor)?;
            w.write_all(&[u8::from(!self.devset.is_online(i))])?;
        }
        self.model.save(w)
    }
}

impl<M: ShardedStep> Recoverable for DataParallel<M> {
    fn restore_state(&mut self, from: CheckpointModel) -> io::Result<()> {
        let CheckpointModel::MultiDev(state) = from else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "snapshot is not a multi-device record",
            ));
        };
        let model = M::from_state(state.inner)?;
        self.cfg.devices = state.devices;
        self.cfg.canonical_blocks = state.canonical_blocks;
        self.devset = self.cfg.device_set();
        for (i, &off) in state.offline.iter().enumerate() {
            if off {
                self.devset.mark_offline(i);
            }
        }
        self.dev_rng = state.dev_rng;
        self.master = model.block_scratch(1);
        self.scratch.clear();
        self.model = model;
        Ok(())
    }
}

impl ShardedStep for SparseAutoencoder {
    type Scratch = AeScratch;

    fn input_dim(&self) -> usize {
        self.config().n_visible
    }

    fn block_scratch(&self, cap: usize) -> AeScratch {
        AeScratch::new(self.config(), cap)
    }

    fn sharded_step(
        &mut self,
        sh: &mut Shards<'_>,
        blocks: &mut [AeScratch],
        master: &mut AeScratch,
        lr: f32,
    ) -> f64 {
        let cfg = *self.config();
        let ae = &*self;

        // Phase A: forward pass + per-block hidden-activation column
        // *sums* (not means: scaled once after the canonical-order merge)
        // for the shared sparsity estimate.
        sh.each_block(|ctx, k, _, xk| {
            let s = &mut blocks[k];
            ae.forward(ctx, xk, s);
            ctx.colsum(s.a2.rows_range(0, xk.rows()), &mut s.rho_hat);
        });

        // Sync 1: merge the sparsity statistics, derive the shared
        // penalty term.
        sh.merge(blocks, |s| &s.rho_hat, &mut master.rho_hat);
        if cfg.sparsity_weight > 0.0 {
            kl_sparsity(
                cfg.sparsity_target,
                cfg.sparsity_weight,
                &master.rho_hat,
                &mut master.s_term,
            );
        } else {
            master.s_term.fill(0.0);
        }

        // Phase B: backward pass into per-block partial gradients
        // (`alpha = 1` sums throughout).
        let mut err = vec![0.0f64; blocks.len()];
        let s_term = &master.s_term;
        sh.each_block(|ctx, k, _, xk| {
            let bk = xk.rows();
            let s = &mut blocks[k];
            {
                let a3s = s.a3.rows_range(0, bk);
                let mut d3 = s.delta3.rows_range_mut(0, bk);
                ctx.delta_output(a3s.as_slice(), xk.as_slice(), d3.as_mut_slice());
            }
            ctx.gemm(
                1.0,
                s.delta3.rows_range(0, bk),
                true,
                s.a2.rows_range(0, bk),
                false,
                0.0,
                &mut s.gw2.view_mut(),
            );
            ctx.colsum(s.delta3.rows_range(0, bk), &mut s.gb2);
            {
                let mut d2 = s.delta2.rows_range_mut(0, bk);
                ctx.gemm(
                    1.0,
                    s.delta3.rows_range(0, bk),
                    false,
                    ae.w2.view(),
                    false,
                    0.0,
                    &mut d2,
                );
            }
            {
                let a2v = s.a2.rows_range(0, bk);
                let mut d2 = s.delta2.rows_range_mut(0, bk);
                ctx.bias_deriv_rows(s_term, a2v, &mut d2);
            }
            ctx.gemm(
                1.0,
                s.delta2.rows_range(0, bk),
                true,
                xk,
                false,
                0.0,
                &mut s.gw1.view_mut(),
            );
            ctx.colsum(s.delta2.rows_range(0, bk), &mut s.gb1);
            err[k] = ctx.frob_dist_sq(s.a3.rows_range(0, bk), xk);
        });

        // Sync 2: gradient merge, one parameter update on the (replicated)
        // master copy.
        sh.merge(blocks, |s| s.gw1.as_slice(), master.gw1.as_mut_slice());
        sh.merge(blocks, |s| s.gw2.as_slice(), master.gw2.as_mut_slice());
        sh.merge(blocks, |s| &s.gb1, &mut master.gb1);
        sh.merge(blocks, |s| &s.gb2, &mut master.gb2);
        let ctx = sh.ctx;
        let lambda = cfg.weight_decay;
        ctx.sgd_step(lr, lambda, master.gw1.as_slice(), self.w1.as_mut_slice());
        ctx.sgd_step(lr, lambda, master.gw2.as_slice(), self.w2.as_mut_slice());
        ctx.sgd_step(lr, 0.0, &master.gb1, &mut self.b1);
        ctx.sgd_step(lr, 0.0, &master.gb2, &mut self.b2);

        err.iter().sum::<f64>() / (2.0 * sh.x.rows() as f64)
    }

    fn sync_cost(&self, devset: &DeviceSet) -> (f64, u64) {
        // Two allreduces: sparsity statistics, then gradients.
        let grad_bytes = self.config().param_bytes();
        let rho_bytes = (self.config().n_hidden * std::mem::size_of::<f32>()) as u64;
        let sync = devset.allreduce_time(rho_bytes) + devset.allreduce_time(grad_bytes);
        (sync, grad_bytes)
    }

    fn shard_resident_bytes(&self, shard_rows: usize) -> u64 {
        let cfg = self.config();
        let f = std::mem::size_of::<f32>() as u64;
        let temps = 2 * (shard_rows * cfg.n_hidden + shard_rows * cfg.n_visible) as u64 * f;
        cfg.param_bytes() * 2 + temps
    }

    fn save(&self, w: &mut dyn Write) -> io::Result<()> {
        let mut w = w;
        save_autoencoder(self, &mut w)
    }

    fn from_state(state: MultiDevModelState) -> io::Result<Self> {
        match state {
            MultiDevModelState::Ae(ae) => Ok(ae),
            MultiDevModelState::Rbm(_) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "multi-device snapshot holds an RBM, model is an autoencoder",
            )),
        }
    }
}

impl ShardedStep for Rbm {
    type Scratch = RbmScratch;

    fn input_dim(&self) -> usize {
        self.config().n_visible
    }

    fn block_scratch(&self, cap: usize) -> RbmScratch {
        RbmScratch::new(self.config(), cap)
    }

    fn sharded_step(
        &mut self,
        sh: &mut Shards<'_>,
        blocks: &mut [RbmScratch],
        master: &mut RbmScratch,
        lr: f32,
    ) -> f64 {
        let cfg = *self.config();
        let rbm = &*self;
        // One sampling stream per Gibbs step, reserved at the *master*
        // level before any device touches its shard: the stream count per
        // batch is a constant `cd_steps`, independent of the device count,
        // and each block samples at its global element offset.
        let streams: Vec<_> = (0..cfg.cd_steps).map(|_| sh.ctx.next_stream()).collect();

        let mut err = vec![0.0f64; blocks.len()];
        sh.each_block(|ctx, k, lo, xk| {
            let bk = xk.rows();
            let s = &mut blocks[k];
            // Positive phase: p(h | v0).
            rbm.prop_up(ctx, xk, &mut s.h0_prob);
            // Gibbs chain, k sweeps; every hidden sampling op addresses
            // the global `(row, unit)` counter space.
            let elem_base = (lo * cfg.n_hidden) as u64;
            for (step, &stream) in streams.iter().enumerate() {
                {
                    let probs = if step == 0 { &s.h0_prob } else { &s.h1_prob };
                    let probs = probs.rows_range(0, bk);
                    let mut sample = s.h0_sample.rows_range_mut(0, bk);
                    ctx.bernoulli_at(stream, elem_base, probs.as_slice(), sample.as_mut_slice());
                }
                rbm.prop_down(ctx, s.h0_sample.rows_range(0, bk), &mut s.v1_prob);
                if step == 0 {
                    err[k] = ctx.frob_dist_sq(s.v1_prob.rows_range(0, bk), xk);
                }
                rbm.prop_up(ctx, s.v1_prob.rows_range(0, bk), &mut s.h1_prob);
            }
            // Per-block CD statistics, `alpha = 1` sums.
            ctx.gemm(
                1.0,
                s.h0_prob.rows_range(0, bk),
                true,
                xk,
                false,
                0.0,
                &mut s.pos_stats.view_mut(),
            );
            ctx.gemm(
                1.0,
                s.h1_prob.rows_range(0, bk),
                true,
                s.v1_prob.rows_range(0, bk),
                false,
                0.0,
                &mut s.neg_stats.view_mut(),
            );
            ctx.colsum(xk, &mut s.vis_pos);
            ctx.colsum(s.v1_prob.rows_range(0, bk), &mut s.vis_neg);
            ctx.colsum(s.h0_prob.rows_range(0, bk), &mut s.hid_pos);
            ctx.colsum(s.h1_prob.rows_range(0, bk), &mut s.hid_neg);
        });

        // Sync: merge the six statistic buffers, CD updates on the
        // replicated master copy.
        sh.merge(
            blocks,
            |s| s.pos_stats.as_slice(),
            master.pos_stats.as_mut_slice(),
        );
        sh.merge(
            blocks,
            |s| s.neg_stats.as_slice(),
            master.neg_stats.as_mut_slice(),
        );
        sh.merge(blocks, |s| &s.vis_pos, &mut master.vis_pos);
        sh.merge(blocks, |s| &s.vis_neg, &mut master.vis_neg);
        sh.merge(blocks, |s| &s.hid_pos, &mut master.hid_pos);
        sh.merge(blocks, |s| &s.hid_neg, &mut master.hid_neg);
        let ctx = sh.ctx;
        ctx.cd_update(
            lr,
            master.pos_stats.as_slice(),
            master.neg_stats.as_slice(),
            self.w.as_mut_slice(),
        );
        ctx.cd_update(lr, &master.vis_pos, &master.vis_neg, &mut self.b_vis);
        ctx.cd_update(lr, &master.hid_pos, &master.hid_neg, &mut self.c_hid);

        err.iter().sum::<f64>() / sh.x.rows() as f64
    }

    fn sync_cost(&self, devset: &DeviceSet) -> (f64, u64) {
        // Positive + negative statistics travel the link.
        let payload = self.config().param_bytes() * 2;
        (devset.allreduce_time(payload), payload)
    }

    fn shard_resident_bytes(&self, shard_rows: usize) -> u64 {
        let cfg = self.config();
        let f = std::mem::size_of::<f32>() as u64;
        let temps = (4 * shard_rows * cfg.n_hidden + 2 * shard_rows * cfg.n_visible) as u64 * f;
        cfg.param_bytes() * 3 + temps
    }

    fn save(&self, w: &mut dyn Write) -> io::Result<()> {
        let mut w = w;
        save_rbm(self, &mut w)
    }

    fn from_state(state: MultiDevModelState) -> io::Result<Self> {
        match state {
            MultiDevModelState::Rbm(rbm) => Ok(rbm),
            MultiDevModelState::Ae(_) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "multi-device snapshot holds an autoencoder, model is an RBM",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoencoder::AeConfig;
    use crate::exec::OptLevel;
    use crate::rbm::RbmConfig;
    use micdnn_tensor::Mat;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn batch(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        Mat::from_fn(rows, cols, |_, _| rng.gen_range(0.1..0.9))
    }

    #[test]
    fn block_bounds_cover_and_balance() {
        for total in [0, 1, 7, 8, 9, 100] {
            for parts in [1, 2, 3, 8] {
                let bb = block_bounds(total, parts);
                assert_eq!(bb.len(), parts);
                assert_eq!(bb[0].0, 0);
                assert_eq!(bb[parts - 1].1, total);
                let sizes: Vec<usize> = bb.iter().map(|&(lo, hi)| hi - lo).collect();
                let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
                assert!(max - min <= 1, "{total}/{parts}: sizes {sizes:?}");
                for w in bb.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                }
            }
        }
    }

    fn train_ae(devices: usize, batches: usize, b: usize) -> (DataParallelAe, Vec<f64>) {
        let cfg = AeConfig::new(14, 6);
        let mut model = DataParallelAe::new(
            SparseAutoencoder::new(cfg, 11),
            MultiDevConfig::new(devices),
        );
        let ctx = ExecCtx::native(OptLevel::Improved, 99);
        model.prepare(b);
        let mut errs = Vec::new();
        for i in 0..batches {
            let x = batch(b, 14, 1000 + i as u64);
            errs.push(model.train_batch(&ctx, x.view(), 0.2));
        }
        (model, errs)
    }

    #[test]
    fn ae_multi_device_is_bitwise_identical_to_single() {
        let (m1, e1) = train_ae(1, 4, 24);
        for n in [2, 3, 4] {
            let (mn, en) = train_ae(n, 4, 24);
            assert_eq!(m1.ae().w1.as_slice(), mn.ae().w1.as_slice(), "w1 N={n}");
            assert_eq!(m1.ae().w2.as_slice(), mn.ae().w2.as_slice(), "w2 N={n}");
            assert_eq!(m1.ae().b1, mn.ae().b1, "b1 N={n}");
            assert_eq!(m1.ae().b2, mn.ae().b2, "b2 N={n}");
            assert_eq!(e1, en, "recon history N={n}");
        }
    }

    #[test]
    fn ae_degenerate_more_devices_than_rows() {
        // 3-row batches over 8 devices: most devices own zero blocks.
        let (m1, e1) = train_ae(1, 3, 3);
        let (m8, e8) = train_ae(8, 3, 3);
        assert_eq!(m1.ae().w1.as_slice(), m8.ae().w1.as_slice());
        assert_eq!(e1, e8);
    }

    fn train_rbm(
        devices: usize,
        batches: usize,
        b: usize,
        cd: usize,
    ) -> (DataParallelRbm, Vec<f64>) {
        let cfg = RbmConfig::new(12, 7).with_cd_steps(cd);
        let mut model = DataParallelRbm::new(Rbm::new(cfg, 5), MultiDevConfig::new(devices));
        // Same ctx seed for every N: sampling is (seed, stream, elem)-pure.
        let ctx = ExecCtx::native(OptLevel::Improved, 42);
        model.prepare(b);
        let mut errs = Vec::new();
        for i in 0..batches {
            let x = batch(b, 12, 2000 + i as u64);
            errs.push(model.train_batch(&ctx, x.view(), 0.1));
        }
        (model, errs)
    }

    #[test]
    fn rbm_multi_device_is_bitwise_identical_to_single() {
        for cd in [1, 2] {
            let (m1, e1) = train_rbm(1, 3, 20, cd);
            for n in [2, 4] {
                let (mn, en) = train_rbm(n, 3, 20, cd);
                assert_eq!(
                    m1.rbm().w.as_slice(),
                    mn.rbm().w.as_slice(),
                    "w N={n} cd={cd}"
                );
                assert_eq!(m1.rbm().b_vis, mn.rbm().b_vis, "b_vis N={n} cd={cd}");
                assert_eq!(m1.rbm().c_hid, mn.rbm().c_hid, "c_hid N={n} cd={cd}");
                assert_eq!(e1, en, "recon history N={n} cd={cd}");
            }
        }
    }

    #[test]
    fn rbm_stream_consumption_is_device_count_invariant() {
        let ctx1 = ExecCtx::native(OptLevel::Improved, 7);
        let ctx4 = ExecCtx::native(OptLevel::Improved, 7);
        let cfg = RbmConfig::new(10, 5).with_cd_steps(3);
        let mut m1 = DataParallelRbm::new(Rbm::new(cfg, 1), MultiDevConfig::new(1));
        let mut m4 = DataParallelRbm::new(Rbm::new(cfg, 1), MultiDevConfig::new(4));
        m1.prepare(16);
        m4.prepare(16);
        let x = batch(16, 10, 3);
        m1.train_batch(&ctx1, x.view(), 0.1);
        m4.train_batch(&ctx4, x.view(), 0.1);
        assert_eq!(ctx1.rng_state(), ctx4.rng_state());
    }

    /// What the model-generic test bodies need on top of [`ShardedStep`]: a
    /// fresh model of a given shape and its parameters, flattened for
    /// bitwise comparison.
    trait TestModel: ShardedStep {
        fn fresh(visible: usize, hidden: usize) -> Self;
        fn params(&self) -> Vec<f32>;
    }

    impl TestModel for SparseAutoencoder {
        fn fresh(visible: usize, hidden: usize) -> Self {
            SparseAutoencoder::new(AeConfig::new(visible, hidden), 11)
        }
        fn params(&self) -> Vec<f32> {
            [self.w1.as_slice(), self.w2.as_slice(), &self.b1, &self.b2].concat()
        }
    }

    impl TestModel for Rbm {
        fn fresh(visible: usize, hidden: usize) -> Self {
            // CD-2: the second sweep samples from `h1_prob`, so a survivor
            // set that mis-placed `elem_base` would show in both sweeps.
            Rbm::new(RbmConfig::new(visible, hidden).with_cd_steps(2), 11)
        }
        fn params(&self) -> Vec<f32> {
            [self.w.as_slice(), &self.b_vis, &self.c_hid].concat()
        }
    }

    /// Four 24-row batches on `devices` cards, losing device 2 before
    /// batch `drop_at` (its blocks re-land on the survivors).
    fn train_dropping<M: TestModel>(devices: usize, drop_at: Option<usize>) -> DataParallel<M> {
        let mut model = DataParallel::new(M::fresh(14, 6), MultiDevConfig::new(devices));
        let ctx = ExecCtx::native(OptLevel::Improved, 99);
        model.prepare(24);
        for i in 0..4 {
            if drop_at == Some(i) {
                model.mark_device_offline(2).unwrap();
            }
            let x = batch(24, 14, 1000 + i as u64);
            model.train_batch(&ctx, x.view(), 0.2);
        }
        model
    }

    fn dropping_a_device_is_bitwise_invisible<M: TestModel>() {
        let m1 = train_dropping::<M>(1, None);
        let m3 = train_dropping::<M>(3, Some(2));
        assert_eq!(m3.device_set().online_count(), 2);
        assert_eq!(m1.into_inner().params(), m3.into_inner().params());
    }

    #[test]
    fn dropping_a_device_mid_run_keeps_weights_bitwise_identical() {
        dropping_a_device_is_bitwise_invisible::<SparseAutoencoder>();
        dropping_a_device_is_bitwise_invisible::<Rbm>();
    }

    #[test]
    fn degenerate_geometry_is_rejected_with_typed_errors() {
        assert_eq!(
            MultiDevConfig::validated(0, 8).unwrap_err(),
            MultiDevConfigError::NoDevices
        );
        assert_eq!(
            MultiDevConfig::validated(2, 0).unwrap_err(),
            MultiDevConfigError::NoBlocks
        );
        assert_eq!(
            MultiDevConfig::validated(4, 3).unwrap_err(),
            MultiDevConfigError::FewerBlocksThanDevices {
                blocks: 3,
                devices: 4
            }
        );
        // The error renders both numbers for the operator.
        let msg = MultiDevConfig::validated(4, 3).unwrap_err().to_string();
        assert!(msg.contains('3') && msg.contains('4'), "{msg}");
        // Counts a checkpoint could not record are refused up front.
        assert_eq!(
            MultiDevConfig::validated(MAX_DEVICES + 1, MAX_DEVICES + 1).unwrap_err(),
            MultiDevConfigError::TooManyDevices(MAX_DEVICES + 1)
        );
        assert_eq!(
            MultiDevConfig::validated(1, MAX_BLOCKS + 1).unwrap_err(),
            MultiDevConfigError::TooManyBlocks(MAX_BLOCKS + 1)
        );
        MultiDevConfig::validated(MAX_DEVICES, MAX_BLOCKS).unwrap();
        // Sound geometry passes and matches the builder defaults.
        let cfg = MultiDevConfig::validated(2, 8).unwrap();
        assert_eq!((cfg.devices, cfg.canonical_blocks), (2, 8));
        cfg.validate().unwrap();
    }

    #[test]
    fn last_device_offline_is_recoverable_not_a_panic() {
        use crate::train::TrainError;
        let cfg = AeConfig::new(8, 4);
        let mut model = DataParallelAe::new(SparseAutoencoder::new(cfg, 1), MultiDevConfig::new(2));
        model.mark_device_offline(0).unwrap();
        let err = model.mark_device_offline(1).unwrap_err();
        assert!(
            matches!(err, TrainError::Unrecoverable { attempts: 0, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("last surviving device"));
        // The set is untouched: device 1 keeps training.
        assert_eq!(model.device_set().online_count(), 1);
        assert!(model.device_set().is_online(1));
        // Re-marking an already-offline device is a no-op, not an error.
        model.mark_device_offline(0).unwrap();

        let mut rbm =
            DataParallelRbm::new(Rbm::new(RbmConfig::new(8, 4), 1), MultiDevConfig::new(1));
        assert!(rbm.mark_device_offline(0).is_err());
        assert_eq!(rbm.device_set().online_count(), 1);
    }

    /// One simulated-Phi step of a `visible -> hidden` model on `devices`
    /// cards; returns the wrapper and whether the master clock advanced.
    fn simulated_step<M: TestModel>(devices: usize) -> (DataParallel<M>, bool) {
        use micdnn_sim::Platform;
        let mut model = DataParallel::new(M::fresh(32, 16), MultiDevConfig::new(devices));
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 1);
        model.prepare(64);
        let x = batch(64, 32, 9);
        let before = ctx.sim_time();
        model.train_batch(&ctx, x.view(), 0.1);
        (model, ctx.sim_time() > before)
    }

    fn four_devices_record_compute_and_sync<M: TestModel>() {
        let (model, advanced) = simulated_step::<M>(4);
        assert!(advanced, "simulated time must advance");
        let ds = model.device_set();
        assert!(ds.compute_secs() > 0.0);
        assert!(ds.sync_secs() > 0.0, "N=4 must pay an allreduce");
        assert!(ds.sync_fraction() > 0.0 && ds.sync_fraction() < 1.0);
    }

    #[test]
    fn simulated_run_records_compute_and_sync_time() {
        four_devices_record_compute_and_sync::<SparseAutoencoder>();
        four_devices_record_compute_and_sync::<Rbm>();
    }

    #[test]
    fn single_device_pays_no_sync_time() {
        let (ae, _) = simulated_step::<SparseAutoencoder>(1);
        assert_eq!(ae.device_set().sync_secs(), 0.0);
        let (rbm, _) = simulated_step::<Rbm>(1);
        assert_eq!(rbm.device_set().sync_secs(), 0.0);
    }

    #[test]
    fn checkpoint_round_trips_geometry_cursors_and_weights() {
        use crate::checkpoint::{load_checkpoint, save_checkpoint, TrainProgress};

        let (mut model, _) = train_ae(3, 2, 24);
        model.mark_device_offline(1).unwrap();
        let want_rng = model.dev_rng().to_vec();

        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &model, 99, 7, &TrainProgress::default()).unwrap();
        let ckpt = load_checkpoint(&mut buf.as_slice()).unwrap();

        let cfg = AeConfig::new(14, 6);
        let mut fresh = DataParallelAe::new(SparseAutoencoder::new(cfg, 0), MultiDevConfig::new(3));
        fresh.restore_state(ckpt.model).unwrap();
        assert_eq!(fresh.ae().w1.as_slice(), model.ae().w1.as_slice());
        assert_eq!(fresh.ae().b1, model.ae().b1);
        assert_eq!(fresh.dev_rng(), want_rng.as_slice());
        assert_eq!(fresh.device_set().len(), 3);
        assert!(!fresh.device_set().is_online(1), "offline flag persists");
        assert_eq!(fresh.config().canonical_blocks, 8);
    }

    #[test]
    fn restore_rejects_model_kind_mismatch() {
        use crate::checkpoint::{load_checkpoint, save_checkpoint, TrainProgress};

        let (rbm_model, _) = train_rbm(2, 1, 8, 1);
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &rbm_model, 1, 1, &TrainProgress::default()).unwrap();
        let ckpt = load_checkpoint(&mut buf.as_slice()).unwrap();

        let cfg = AeConfig::new(14, 6);
        let mut ae_model =
            DataParallelAe::new(SparseAutoencoder::new(cfg, 0), MultiDevConfig::new(2));
        let err = ae_model.restore_state(ckpt.model).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn trains_through_the_chunked_dataset_loop() {
        use crate::train::{train_dataset, TrainConfig};

        let cfg = AeConfig::new(10, 5);
        let mut model = DataParallelAe::new(SparseAutoencoder::new(cfg, 3), MultiDevConfig::new(2));
        let ctx = ExecCtx::native(OptLevel::Improved, 8);
        let data = micdnn_data::Dataset::new(batch(60, 10, 77));
        let tc = TrainConfig {
            batch_size: 20,
            chunk_rows: 30,
            ..TrainConfig::default()
        };
        let report = train_dataset(&mut model, &ctx, &data, &tc, 2).unwrap();
        // 30-row chunks split into 20 + 10 row batches: 4 per pass.
        assert_eq!(report.batches, 8);
        assert!(report.final_recon().is_finite());
    }
}
