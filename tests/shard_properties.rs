//! Property tests for multi-device batch sharding: for any device count,
//! batch geometry, canonical-block count and link parameterization, the
//! data-parallel step shards the mini-batch, runs per-device
//! forward/backward passes, and merges the per-device partial gradients
//! in canonical block order — landing *bitwise* on the single-device
//! result. The link and sync models price time; they must never touch
//! the numerics.

use micdnn::train::UnsupervisedModel;
use micdnn::{
    block_bounds, AeConfig, DataParallelAe, DataParallelRbm, ExecCtx, MultiDevConfig, OptLevel,
    Rbm, RbmConfig, SparseAutoencoder,
};
use micdnn_sim::{Link, SyncModel};
use micdnn_tensor::Mat;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn batch(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    Mat::from_fn(rows, cols, |_, _| rng.gen_range(0.1..0.9))
}

/// Runs `batches` data-parallel AE steps and returns the trained model.
#[allow(clippy::too_many_arguments)]
fn train_ae(
    devices: usize,
    blocks: usize,
    sync: SyncModel,
    link: Link,
    vis: usize,
    hid: usize,
    rows: usize,
    batches: usize,
    seed: u64,
) -> SparseAutoencoder {
    let cfg = MultiDevConfig::new(devices)
        .with_blocks(blocks)
        .with_sync(sync)
        .with_link(link);
    let ae = SparseAutoencoder::new(AeConfig::new(vis, hid), seed);
    let mut model = DataParallelAe::new(ae, cfg);
    let ctx = ExecCtx::native(OptLevel::Improved, seed ^ 0x5EED);
    model.prepare(rows);
    for i in 0..batches {
        let x = batch(rows, vis, seed.wrapping_add(100 + i as u64));
        model.train_batch(&ctx, x.view(), 0.2);
    }
    model.into_inner()
}

/// Runs `batches` data-parallel CD steps and returns the trained RBM.
#[allow(clippy::too_many_arguments)]
fn train_rbm(
    devices: usize,
    blocks: usize,
    sync: SyncModel,
    link: Link,
    vis: usize,
    hid: usize,
    rows: usize,
    batches: usize,
    cd: usize,
    seed: u64,
) -> Rbm {
    let cfg = MultiDevConfig::new(devices)
        .with_blocks(blocks)
        .with_sync(sync)
        .with_link(link);
    let mut rbm_cfg = RbmConfig::new(vis, hid);
    rbm_cfg.cd_steps = cd;
    let mut model = DataParallelRbm::new(Rbm::new(rbm_cfg, seed), cfg);
    let ctx = ExecCtx::native(OptLevel::Improved, seed ^ 0xCD);
    model.prepare(rows);
    for i in 0..batches {
        let x = batch(rows, vis, seed.wrapping_add(500 + i as u64));
        model.train_batch(&ctx, x.view(), 0.1);
    }
    model.into_inner()
}

fn sync_of(ring: bool) -> SyncModel {
    if ring {
        SyncModel::RingAllReduce
    } else {
        SyncModel::ParameterServer
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `block_bounds` is a contiguous, balanced, order-preserving
    /// partition for every geometry — the foundation the fixed-order
    /// merge stands on.
    #[test]
    fn block_bounds_is_a_balanced_partition(
        total in 0usize..500,
        parts in 1usize..17,
    ) {
        let bounds = block_bounds(total, parts);
        prop_assert_eq!(bounds.len(), parts);
        let mut cursor = 0usize;
        let base = total / parts;
        for &(lo, hi) in &bounds {
            prop_assert_eq!(lo, cursor, "partition must be contiguous");
            prop_assert!(hi >= lo);
            let size = hi - lo;
            prop_assert!(
                size == base || size == base + 1,
                "unbalanced part {size} for total {total} / {parts}"
            );
            cursor = hi;
        }
        prop_assert_eq!(cursor, total, "partition must cover the batch");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Shard -> per-device forward/backward -> fixed-order merge equals
    /// the unsharded gradient step exactly, for any device count, batch
    /// geometry, block count, sync strategy and link parameters.
    #[test]
    fn sharded_ae_step_is_bitwise_unsharded(
        devices in 2usize..=8,
        rows in 1usize..32,
        vis in 3usize..12,
        hid in 2usize..7,
        blocks in 1usize..10,
        ring in any::<bool>(),
        latency in 0.0f64..1e-3,
        gbs in 0.5f64..8.0,
        seed in any::<u64>(),
    ) {
        let link = Link { latency_s: latency, wire_gbs: gbs, host_pipeline_gbs: gbs };
        let single = train_ae(
            1, blocks, sync_of(ring), link, vis, hid, rows, 2, seed,
        );
        let multi = train_ae(
            devices, blocks, sync_of(ring), link, vis, hid, rows, 2, seed,
        );
        prop_assert_eq!(single.w1.as_slice(), multi.w1.as_slice());
        prop_assert_eq!(single.w2.as_slice(), multi.w2.as_slice());
        prop_assert_eq!(single.b1, multi.b1);
        prop_assert_eq!(single.b2, multi.b2);
    }

    /// The stochastic path holds too: CD-k's per-block sampling is
    /// counter-addressed, so sharding never shifts a stream and the
    /// merged statistics match the unsharded run bit for bit.
    #[test]
    fn sharded_rbm_step_is_bitwise_unsharded(
        devices in 2usize..=6,
        rows in 1usize..24,
        vis in 3usize..10,
        hid in 2usize..7,
        blocks in 1usize..8,
        cd in 1usize..3,
        ring in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let link = Link::pcie_gen2();
        let single = train_rbm(
            1, blocks, sync_of(ring), link, vis, hid, rows, 2, cd, seed,
        );
        let multi = train_rbm(
            devices, blocks, sync_of(ring), link, vis, hid, rows, 2, cd, seed,
        );
        prop_assert_eq!(single.w.as_slice(), multi.w.as_slice());
        prop_assert_eq!(single.b_vis, multi.b_vis);
        prop_assert_eq!(single.c_hid, multi.c_hid);
    }

    /// Degenerate shards: more devices than examples (and than blocks)
    /// leaves some devices idle without perturbing the result.
    #[test]
    fn more_devices_than_rows_is_bitwise_unsharded(
        devices in 4usize..=12,
        rows in 1usize..4,
        blocks in 1usize..6,
        seed in any::<u64>(),
    ) {
        let link = Link::pcie_gen2();
        let single = train_ae(
            1, blocks, SyncModel::RingAllReduce, link, 6, 4, rows, 3, seed,
        );
        let multi = train_ae(
            devices, blocks, SyncModel::RingAllReduce, link, 6, 4, rows, 3, seed,
        );
        prop_assert_eq!(single.w1.as_slice(), multi.w1.as_slice());
        prop_assert_eq!(single.w2.as_slice(), multi.w2.as_slice());
        prop_assert_eq!(single.b1, multi.b1);
        prop_assert_eq!(single.b2, multi.b2);
    }
}

// ---------------------------------------------------------------------------
// Golden run record: simulated-Phi data-parallel training of an AE (with a
// live sparsity sync) and a CD-2 RBM at N in {1, 2, 4}, K = 8. It holds the
// final parameters, every per-step error, the RNG cursor and the bits of
// the simulated seconds and the sync fraction, so a rewrite of the
// per-block step that moves one op, one bit or one priced second shows
// here. UPDATE_GOLDEN=1 rewrites it; a diff is a regression, not a format
// change.
// ---------------------------------------------------------------------------

const MDP_GOLDEN: &[u8] = include_bytes!("golden/layer_mdp_run.bin");

/// Batch sizes of the golden runs: full batches, one with fewer rows than
/// the 8 canonical blocks, and a ragged last batch.
const MDP_ROWS: [usize; 5] = [24, 24, 5, 24, 13];

/// Trains `model` on [`MDP_ROWS`]-row batches of `vis` columns on a
/// simulated Xeon Phi; appends the RNG cursor, the sim-time bits and every
/// per-step error to `record`.
fn mdp_steps(model: &mut impl UnsupervisedModel, vis: usize, record: &mut Vec<u8>) {
    use micdnn_sim::Platform;
    let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 31);
    model.prepare(24);
    let errors: Vec<f64> = MDP_ROWS
        .iter()
        .enumerate()
        .map(|(i, &rows)| model.train_batch(&ctx, batch(rows, vis, 900 + i as u64).view(), 0.2))
        .collect();
    let (seed, cursor) = ctx.rng_state();
    record.extend_from_slice(&seed.to_le_bytes());
    record.extend_from_slice(&cursor.to_le_bytes());
    record.extend_from_slice(&ctx.sim_time().to_le_bytes());
    for e in errors {
        record.extend_from_slice(&e.to_le_bytes());
    }
}

fn push_f32s(record: &mut Vec<u8>, parts: &[&[f32]]) {
    for v in parts.iter().flat_map(|p| p.iter()) {
        record.extend_from_slice(&v.to_le_bytes());
    }
}

#[test]
fn multidev_runs_reproduce_prerefactor_bytes() {
    let (vis, hid) = (20, 9);
    let mut record = Vec::new();
    for devices in [1, 2, 4] {
        let cfg = MultiDevConfig::new(devices).with_blocks(8);
        let mut ae_cfg = AeConfig::new(vis, hid);
        ae_cfg.sparsity_weight = 0.3;
        let mut ae = DataParallelAe::new(SparseAutoencoder::new(ae_cfg, 41), cfg.clone());
        mdp_steps(&mut ae, vis, &mut record);
        record.extend_from_slice(&ae.sync_fraction().to_le_bytes());
        let ae = ae.into_inner();
        push_f32s(
            &mut record,
            &[ae.w1.as_slice(), ae.w2.as_slice(), &ae.b1, &ae.b2],
        );

        let rbm_cfg = RbmConfig::new(vis, hid).with_cd_steps(2);
        let mut rbm = DataParallelRbm::new(Rbm::new(rbm_cfg, 42), cfg);
        mdp_steps(&mut rbm, vis, &mut record);
        record.extend_from_slice(&rbm.sync_fraction().to_le_bytes());
        let rbm = rbm.into_inner();
        push_f32s(&mut record, &[rbm.w.as_slice(), &rbm.b_vis, &rbm.c_hid]);
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/layer_mdp_run.bin"
        );
        std::fs::write(path, &record).unwrap();
        eprintln!("updated {path}");
        return;
    }
    assert_eq!(
        record, MDP_GOLDEN,
        "data-parallel AE/RBM runs diverged from tests/golden/layer_mdp_run.bin"
    );
}
