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
//! Per-shard means, averaged, would re-associate float addition whenever
//! the device count `N` changes. This module fixes the summation
//! *geometry* instead: the batch `B` is split into `K` **canonical
//! microblocks** by [`block_bounds`], a pure function of `(B, K)`; every
//! per-example op runs per block, on the block's shapes, into `alpha = 1`
//! partial sums; and the merge left-folds the partials **in canonical
//! block order** ([`micdnn_kernels::vecops::block_merge`]) before one
//! `scale(1/B)`. Devices own contiguous *ranges of blocks*, so changing
//! `N` (or dropping a device mid-run) only changes which device computes
//! which block: `N`-device training is **bitwise identical** to `N = 1`
//! (`tests/shard_properties.rs`).
//!
//! # The step is the model's step graph
//!
//! A model shards through the *block form* of its step graph
//! (`build_ae_graph` / `build_cd_graph`), whose per-block partial sums are
//! declared [`crate::BufClass::Partial`]. A node that reads a `Partial`
//! buffer is a sync point: [`DataParallel`] runs the nodes before it per
//! block (each block scratch keeps its own graph), merges the blocks'
//! copies into the master copy, runs the master nodes once, and so on —
//! for the AE, ρ̂ before `KL`, then the gradients before the updates; for
//! the RBM, its six statistics. Each sync point is priced as one allreduce
//! of the bytes it merges. Sampling nodes draw from streams the master
//! reserves per batch (one per node, whatever `N`), each block at its
//! global element offset ([`ExecCtx::bernoulli_at`]), so the sampled bits
//! are a pure function of `(seed, stream, row, column)`.
//!
//! # Timing model
//!
//! On a simulated context each device's blocks are priced with
//! [`ExecCtx::run_deferred`]; the master clock advances by the *slowest*
//! device plus the modeled allreduces ([`DeviceSet::allreduce_time`] —
//! ring allreduce by default, host parameter-server as fallback).
//! [`DeviceSet::sync_fraction`] feeds the `BENCH_multidev.json` artifact.
//!
//! # Fault injection
//!
//! Two failpoints (feature `failpoints`, see [`crate::faults`]): a
//! `device.oom` drops one device and re-shards its blocks onto the
//! survivors (bit-identical by construction); a `link.drop` retries the
//! last sync, charging extra modeled time without touching numerics. Both
//! recoveries happen *inside* a training leg, so they compose with the
//! supervisor's ladder: a rollback restores a [`CheckpointModel`] snapshot
//! whose `TAG_MDP` record carries the online mask, so replay stays
//! bit-identical at any device count.

use crate::autoencoder::{AeScratch, SparseAutoencoder};
use crate::checkpoint::CheckpointModel;
use crate::exec::ExecCtx;
use crate::faults;
use crate::graph::{BufClass, BufId, NodeState, TaskGraph};
use crate::model_io::{
    bad, read_any_header, read_autoencoder_body, read_rbm_body, read_u64, save_autoencoder,
    save_rbm, write_header, write_u64, TAG_AE, TAG_MDP, TAG_RBM,
};
use crate::rbm::{Rbm, RbmScratch};
use crate::supervise::Recoverable;
use crate::train::UnsupervisedModel;
use micdnn_kernels::rng::StreamId;
use micdnn_sim::{DeviceSet, EventKind, Link, SyncModel};
use micdnn_tensor::MatView;
use std::io::{self, Read, Write};
use std::mem::size_of;
use std::ops::Range;

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
/// the slowest device's compute plus, per sync point, one allreduce of the
/// bytes it merges (a `link.drop` resends the last). Numerics are untouched.
fn charge_step(devset: &mut DeviceSet, ctx: &ExecCtx, busy: &[f64], segments: &[Segment]) {
    let max_busy = busy.iter().cloned().fold(0.0, f64::max);
    let (mut sync, mut payload_bytes) = (0.0, 0);
    for seg in segments {
        if let Segment::Master(merge, _) = seg {
            payload_bytes = merge
                .iter()
                .map(|&(_, e)| (e * size_of::<f32>()) as u64)
                .sum();
            sync += devset.allreduce_time(payload_bytes);
        }
    }
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

/// A run of consecutive nodes of a block-form step graph.
#[derive(Debug)]
pub(crate) enum Segment {
    /// Nodes that run once per canonical block, on its rows and scratch.
    Blocks(Range<usize>),
    /// A sync point: the `Partial` buffers the nodes read, as `(name,
    /// elements)` in read order, merged into the master copy; then the
    /// nodes, once, over it.
    Master(Vec<(&'static str, usize)>, Range<usize>),
}

/// Splits a block-form step graph at its sync points — a node reading a
/// [`BufClass::Partial`] buffer runs on the master copy after the merge,
/// every other node per block — and counts its sampling nodes.
pub(crate) fn split_at_syncs<S: NodeState>(g: &TaskGraph<'_, S>) -> (Vec<Segment>, usize) {
    let mut out = Vec::new();
    for id in 0..g.len() {
        let mut partials: Vec<(&'static str, usize)> = g.reads[id]
            .iter()
            .map(|&BufId(b)| &g.bufs[b])
            .filter(|d| d.class == BufClass::Partial)
            .map(|d| (d.name, d.elems()))
            .collect();
        match (out.last_mut(), partials.is_empty()) {
            (Some(Segment::Blocks(nodes)), true) => nodes.end = id + 1,
            (Some(Segment::Master(merge, nodes)), false) => {
                partials.retain(|p| !merge.contains(p));
                merge.append(&mut partials);
                nodes.end = id + 1;
            }
            (_, true) => out.push(Segment::Blocks(id..id + 1)),
            (_, false) => out.push(Segment::Master(partials, id..id + 1)),
        }
    }
    (out, g.stochastic.iter().filter(|&&s| s).count())
}

/// What a model supplies to train under [`DataParallel`]: its geometry,
/// block scratch, footprint and checkpoint record. Its step is its step
/// graph's block form; everything about devices — sharding, busy time,
/// merging, sync pricing, failover, checkpoint geometry — is the wrapper's.
pub trait ShardedStep: Sized {
    /// Per-block buffers. One more (capacity 1) is the master copy, into
    /// whose partial-sum fields the blocks' copies merge.
    type Scratch;

    /// Input dimensionality each example must have.
    fn input_dim(&self) -> usize;

    /// Storage for a block of up to `cap` rows, its block-form step graph
    /// already kept.
    fn block_scratch(&self, cap: usize) -> Self::Scratch;

    /// Trainable parameter count, the size of each device's replica.
    fn param_count(&self) -> usize;

    /// Writes the model record a `TAG_MDP` container embeds.
    fn save(&self, w: &mut dyn Write) -> io::Result<()>;

    /// Takes the model out of a `TAG_MDP` record; `InvalidData` when it
    /// embeds the other kind.
    fn from_state(state: MultiDevModelState) -> io::Result<Self>;
}

/// How [`DataParallel`] runs a model's step: through the block form of
/// its step graph, which every block scratch and the master copy keep.
pub(crate) trait BlockGraph: ShardedStep {
    /// The block form, split at its sync points, and its sampling node
    /// count.
    fn split(&self) -> (Vec<Segment>, usize);

    /// Runs `nodes` of the block form kept in `scratch` (built at its
    /// capacity on first use) over the rows `x`: block nodes with `block`
    /// (the block's first row, the step's sampling streams and the master
    /// copy), master nodes over the master copy. Returns the run's share of
    /// the batch's error, the sum of the shares over the batch's rows.
    fn run(
        &mut self,
        ctx: &ExecCtx,
        nodes: Range<usize>,
        scratch: &mut Self::Scratch,
        x: MatView<'_>,
        lr: f32,
        block: Option<(usize, &[StreamId], &Self::Scratch)>,
    ) -> f64;

    /// The storage of the `Partial` buffer `name` in `scratch`'s arena.
    fn partial_mut<'s>(scratch: &'s mut Self::Scratch, name: &str) -> &'s mut [f32];

    /// Elements `scratch`'s arena holds.
    fn arena_elems(scratch: &Self::Scratch) -> usize;
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
    /// The master copy: merge accumulators, over which master nodes run.
    master: M::Scratch,
    /// The model's [`BlockGraph::split`] (empty until `prepare`).
    split: (Vec<Segment>, usize),
}

/// A sparse autoencoder under [`DataParallel`].
pub type DataParallelAe = DataParallel<SparseAutoencoder>;

/// An RBM under [`DataParallel`]: data-parallel CD-k with canonical-block
/// statistics merging and N-invariant sampling.
pub type DataParallelRbm = DataParallel<Rbm>;

impl<M: ShardedStep> DataParallel<M> {
    /// Replicates `model` across `cfg.devices` modeled coprocessors.
    ///
    /// # Panics
    ///
    /// With the [`MultiDevConfigError`]'s text if `cfg` has no device or no
    /// canonical block, or more of either than a checkpoint records (see
    /// [`MultiDevConfig::validated`]). Fewer blocks than devices is a
    /// geometry the wrapper runs: the spare devices own no block.
    pub fn new(model: M, cfg: MultiDevConfig) -> Self {
        if let Err(e) = cfg.validate() {
            // `validate` reports that geometry last: it hides no other fault.
            let runs = matches!(e, MultiDevConfigError::FewerBlocksThanDevices { .. });
            assert!(runs, "{e}");
        }
        DataParallel {
            dev_rng: vec![(0, 0); cfg.devices],
            devset: cfg.device_set(),
            master: model.block_scratch(1),
            scratch: Vec::new(),
            block_cap: 0,
            split: (Vec::new(), 0),
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

impl<M: BlockGraph> UnsupervisedModel for DataParallel<M> {
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
        self.split = self.model.split();
    }

    fn train_batch(&mut self, ctx: &ExecCtx, x: MatView<'_>, lr: f32) -> f64 {
        assert!(x.rows() > 0, "empty batch");
        assert!(!self.scratch.is_empty(), "prepare() not called");
        maybe_drop_device(&mut self.devset, ctx);

        // Non-empty canonical blocks -> contiguous block ranges per device.
        let rows: Vec<_> = block_bounds(x.rows(), self.cfg.canonical_blocks)
            .into_iter()
            .filter(|&(lo, hi)| hi > lo)
            .collect();
        let online: Vec<usize> = (0..self.devset.len())
            .filter(|&i| self.devset.is_online(i))
            .collect();
        let owners: Vec<_> = block_bounds(rows.len(), online.len())
            .into_iter()
            .zip(&online)
            .filter(|&((klo, khi), _)| khi > klo)
            .map(|((klo, khi), &dev)| (dev, klo, khi))
            .collect();
        let mut busy = vec![0.0; self.devset.len()];
        let (model, master, blocks) = (&mut self.model, &mut self.master, &mut self.scratch);
        let ((segments, sampling), blocks) = (&self.split, &mut blocks[..rows.len()]);
        // One sampling stream per sampling node, reserved by the master
        // before any device samples, whatever the device count.
        let streams: Vec<_> = (0..*sampling).map(|_| ctx.next_stream()).collect();
        let mut err = 0.0;
        for seg in segments {
            match seg {
                // Device by device; each device's blocks are priced together
                // into its busy time.
                Segment::Blocks(nodes) => {
                    for &(dev, klo, khi) in &owners {
                        let ((), secs) = ctx.run_deferred(|ctx| {
                            for k in klo..khi {
                                let (lo, hi) = rows[k];
                                let block = Some((lo, &streams[..], &*master));
                                let xk = x.rows_range(lo, hi);
                                err += model.run(ctx, nodes.clone(), &mut blocks[k], xk, lr, block);
                            }
                        });
                        busy[dev] += secs;
                    }
                }
                // Left-fold each block copy in canonical block order, then
                // scale once by `1/B` to recover the batch mean.
                Segment::Master(merge, nodes) => {
                    for &(name, _) in merge {
                        let parts: Vec<&[f32]> = blocks
                            .iter_mut()
                            .map(|s| &*M::partial_mut(s, name))
                            .collect();
                        let acc = M::partial_mut(master, name);
                        ctx.block_merge(&parts, acc);
                        ctx.scale(1.0 / x.rows() as f32, acc);
                    }
                    model.run(ctx, nodes.clone(), master, x, lr, None);
                }
            }
        }

        charge_step(&mut self.devset, ctx, &busy, segments);

        let state = ctx.rng_state();
        for &dev in &online {
            self.dev_rng[dev] = state;
        }
        err / x.rows() as f64
    }

    /// Per device: a parameter replica, the arenas of the blocks it owns
    /// and the master copy's.
    fn resident_bytes(&self) -> u64 {
        let owned = self.scratch.len().div_ceil(self.devset.online_count());
        let arenas = self.scratch[..owned].iter().chain([&self.master]);
        let elems = self.model.param_count() + arenas.map(M::arena_elems).sum::<usize>();
        (elems * size_of::<f32>()) as u64
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

impl<M: BlockGraph> Recoverable for DataParallel<M> {
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
        let mut scratch = AeScratch::new(self.config(), cap);
        scratch.prepare(crate::AeUpdate::Sgd, true);
        scratch
    }

    fn param_count(&self) -> usize {
        self.config().param_count()
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
        let mut scratch = RbmScratch::new(self.config(), cap);
        scratch.prepare(*self.config(), false, true);
        scratch
    }

    fn param_count(&self) -> usize {
        self.config().param_count()
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

    /// Every sync point of `split`: the names it merges, and how many block
    /// nodes ran since the previous one.
    fn sync_points(split: &[Segment]) -> Vec<(Vec<&'static str>, usize)> {
        let mut out = Vec::new();
        let mut block_nodes = 0;
        for seg in split {
            match seg {
                Segment::Blocks(nodes) => block_nodes += nodes.len(),
                Segment::Master(merge, _) => {
                    let names = merge.iter().map(|&(name, _)| name).collect();
                    out.push((names, block_nodes));
                    block_nodes = 0;
                }
            }
        }
        out
    }

    #[test]
    fn block_forms_sync_where_a_node_reads_a_partial_sum() {
        // The AE syncs rho-hat before KL (after F1, F2, RHO), then its four
        // gradients before the updates (after D3, GW2, GB2, D2a, D2b, GW1,
        // GB1 and COST).
        let (ae, streams) = SparseAutoencoder::new(AeConfig::new(9, 5), 1).split();
        let want = [(vec!["rho_hat"], 3), (vec!["gw1", "gw2", "gb1", "gb2"], 8)];
        assert_eq!(sync_points(&ae), want);
        assert_eq!(streams, 0);
        // CD-2 syncs its six statistics once, before Vw, Vb and Vc (after
        // H1, S1, V2, RE, H2, Sk, V2, H2 and the six statistics nodes), and
        // samples twice.
        let cfg = RbmConfig::new(9, 5).with_cd_steps(2);
        let (cd, streams) = Rbm::new(cfg, 1).split();
        let stats = vec![
            "pos_stats",
            "neg_stats",
            "vis_pos",
            "vis_neg",
            "hid_pos",
            "hid_neg",
        ];
        assert_eq!(sync_points(&cd), [(stats, 14)]);
        assert_eq!(streams, 2);
    }

    #[test]
    fn block_forms_certify_clean_at_the_paper_layer() {
        // The paper's 1024 x 4096 layer, blocks of up to 13 rows.
        use crate::verify::DEFAULT_MEM_BUDGET;
        let ae = crate::ae_graph::ae_graph(1024, 4096, 13, crate::AeUpdate::Sgd, true);
        let outcome = ae.certify(DEFAULT_MEM_BUDGET);
        assert!(outcome.is_clean(), "AE block form:\n{}", outcome.report);
        for k in [1, 2, 3] {
            let cd = crate::cd_graph::cd_graph(1024, 4096, 13, k, true);
            let outcome = cd.certify(DEFAULT_MEM_BUDGET);
            assert!(outcome.is_clean(), "CD-{k} block form:\n{}", outcome.report);
        }
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

    /// What the model-generic test bodies need on top of [`BlockGraph`]: a
    /// fresh model of a given shape and its parameters, flattened for
    /// bitwise comparison.
    trait TestModel: BlockGraph {
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
    #[should_panic(expected = "need at least one canonical block")]
    fn a_zero_block_count_is_refused_at_construction() {
        let cfg = MultiDevConfig {
            canonical_blocks: 0,
            ..MultiDevConfig::new(1)
        };
        DataParallelAe::new(SparseAutoencoder::new(AeConfig::new(8, 4), 1), cfg);
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
