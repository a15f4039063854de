//! Pinned bit-identical checkpoint/resume tests.
//!
//! The contract under test: training 2N epochs straight produces *exactly*
//! the same parameters as training N epochs, checkpointing to disk,
//! rebuilding everything from nothing but the checkpoint file (model,
//! optimizer/momentum state, RNG cursor, progress) and resuming for N
//! more. Bit-identical, for both building blocks:
//!
//! * the sparse autoencoder (plain SGD + KL sparsity, and a momentum
//!   optimizer whose velocity slots and schedule step must survive),
//! * the RBM (CD-1 with classical momentum — its Gibbs sampling draws from
//!   the context's counter-based streams, so the restored `(seed, cursor)`
//!   is load-bearing, not just the weights),
//! * PCD, whose persistent chain of fantasy particles is training state
//!   the checkpoint carries too.
//!
//! Two tests crash a run mid-epoch through a loader fault and resume from
//! the best-effort checkpoint the trainer leaves behind.

use micdnn::train::{
    train_dataset, train_dataset_resume, train_stream, AeModel, RbmModel, TrainConfig, TrainError,
};
use micdnn::{
    load_checkpoint_file, save_checkpoint, AeConfig, CheckpointPolicy, CnnConfig, CnnModel, CnnNet,
    DataParallelRbm, ExecCtx, MultiDevConfig, OptLevel, Optimizer, Rbm, RbmConfig, Recoverable,
    Rule, Schedule, SparseAutoencoder, StackedAutoencoder, TestDir, TrainProgress,
};
use micdnn_data::Dataset;
use micdnn_tensor::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn toy_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let protos: Vec<Vec<f32>> = (0..4)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.1..0.9)).collect())
        .collect();
    Dataset::new(Mat::from_fn(n, dim, |r, c| {
        (protos[r % 4][c] + rng.gen_range(-0.05..0.05)).clamp(0.05, 0.95)
    }))
}

fn base_config() -> TrainConfig {
    TrainConfig {
        batch_size: 25,
        chunk_rows: 50,
        learning_rate: 0.2,
        history_every: 7,
        ..TrainConfig::default()
    }
}

#[test]
fn ae_sgd_resume_is_bit_identical() {
    ae_sgd_resume(&toy_dataset(200, 16, 3), base_config(), "ckpt-ae-sgd");
}

/// A batch one row past a k-slab: its SGD steps hold each weight gradient
/// (a smaller batch steps the weights inside the gradient product).
#[test]
fn ae_sgd_resume_past_one_gemm_slab_is_bit_identical() {
    let batch = micdnn_kernels::GEMM_KC + 1;
    let cfg = TrainConfig {
        batch_size: batch,
        chunk_rows: 2 * batch,
        ..base_config()
    };
    ae_sgd_resume(&toy_dataset(8 * batch, 16, 3), cfg, "ckpt-ae-sgd-slab");
}

/// Trains 6 epochs straight, and 3 epochs, a checkpoint and 3 more from
/// nothing but the file: the two give the same parameters.
fn ae_sgd_resume(ds: &Dataset, cfg: TrainConfig, tag: &str) {
    let make_model = || AeModel::new(SparseAutoencoder::new(AeConfig::new(16, 8), 11));
    let per_epoch = ds.len().div_ceil(cfg.batch_size) as u64;

    // The uninterrupted reference: 6 epochs straight.
    let mut straight = make_model();
    let ctx = ExecCtx::native(OptLevel::Improved, 5);
    train_dataset(&mut straight, &ctx, ds, &cfg, 6).unwrap();

    // Leg 1: 3 epochs, checkpointing periodically and at the end.
    let dir = TestDir::new(tag);
    let policy = CheckpointPolicy::new(dir.path(), 5);
    let ckpt_cfg = TrainConfig {
        checkpoint: Some(policy.clone()),
        ..cfg.clone()
    };
    {
        let mut first = make_model();
        let ctx1 = ExecCtx::native(OptLevel::Improved, 5);
        train_dataset(&mut first, &ctx1, ds, &ckpt_cfg, 3).unwrap();
        // `first` and `ctx1` drop here: only the file crosses the boundary.
    }

    // Leg 2: rebuild everything from the checkpoint file alone.
    let ckpt = load_checkpoint_file(policy.file()).unwrap();
    assert_eq!(ckpt.progress.epoch, 3);
    assert_eq!(ckpt.progress.batches, 3 * per_epoch);
    assert_eq!(ckpt.progress.examples, 3 * ds.len() as u64);
    let ctx2 = ExecCtx::native(OptLevel::Improved, 999); // overwritten by restore
    ckpt.restore_rng(&ctx2);
    let progress = ckpt.progress;
    let mut resumed = ckpt.into_ae().expect("AE checkpoint");
    let report = train_dataset_resume(&mut resumed, &ctx2, ds, &ckpt_cfg, 6, &progress).unwrap();
    assert_eq!(
        report.batches,
        3 * per_epoch,
        "resume must train only the second leg"
    );

    assert_eq!(straight.ae.w1.as_slice(), resumed.ae.w1.as_slice());
    assert_eq!(straight.ae.w2.as_slice(), resumed.ae.w2.as_slice());
    assert_eq!(straight.ae.b1, resumed.ae.b1);
    assert_eq!(straight.ae.b2, resumed.ae.b2);
}

#[test]
fn ae_momentum_optimizer_resume_is_bit_identical() {
    let ds = toy_dataset(200, 16, 4);
    let cfg = base_config();
    let ae_cfg = AeConfig::new(16, 8);
    let make_model = || {
        let opt = Optimizer::new(
            Rule::Momentum { mu: 0.8 },
            Schedule::Exponential {
                base: 0.2,
                gamma: 0.999,
            },
            &SparseAutoencoder::optimizer_slots(&ae_cfg),
        );
        AeModel::new(SparseAutoencoder::new(ae_cfg, 13)).with_optimizer(opt)
    };

    let mut straight = make_model();
    let ctx = ExecCtx::native(OptLevel::Improved, 6);
    train_dataset(&mut straight, &ctx, &ds, &cfg, 6).unwrap();

    let dir = TestDir::new("ckpt-ae-momentum");
    let policy = CheckpointPolicy::new(dir.path(), 0); // end-of-run checkpoint only
    let ckpt_cfg = TrainConfig {
        checkpoint: Some(policy.clone()),
        ..cfg.clone()
    };
    {
        let mut first = make_model();
        let ctx1 = ExecCtx::native(OptLevel::Improved, 6);
        train_dataset(&mut first, &ctx1, &ds, &ckpt_cfg, 3).unwrap();
    }

    let ckpt = load_checkpoint_file(policy.file()).unwrap();
    let ctx2 = ExecCtx::native(OptLevel::Improved, 6);
    ckpt.restore_rng(&ctx2);
    let progress = ckpt.progress;
    let mut resumed = ckpt.into_ae().expect("AE checkpoint");
    // The velocity slots and the schedule's step counter came off disk; a
    // zeroed or restarted optimizer would diverge on the very first batch.
    train_dataset_resume(&mut resumed, &ctx2, &ds, &ckpt_cfg, 6, &progress).unwrap();

    assert_eq!(straight.ae.w1.as_slice(), resumed.ae.w1.as_slice());
    assert_eq!(straight.ae.w2.as_slice(), resumed.ae.w2.as_slice());
    assert_eq!(straight.ae.b1, resumed.ae.b1);
    assert_eq!(straight.ae.b2, resumed.ae.b2);
    let (a, b) = (
        straight.optimizer().expect("optimizer"),
        resumed.optimizer().expect("optimizer"),
    );
    assert_eq!(a.steps(), b.steps());
    assert_eq!(a.state_slots(), b.state_slots());
}

#[test]
fn rbm_momentum_resume_is_bit_identical() {
    let mut ds = toy_dataset(200, 12, 7);
    ds.binarize(0.5);
    let cfg = TrainConfig {
        learning_rate: 0.1,
        ..base_config()
    };
    let rbm_cfg = RbmConfig::new(12, 9);
    let make_model = || RbmModel::new(Rbm::new(rbm_cfg, 9)).with_momentum(0.6);

    let mut straight = make_model();
    let ctx = ExecCtx::native(OptLevel::Improved, 21);
    train_dataset(&mut straight, &ctx, &ds, &cfg, 6).unwrap();

    let dir = TestDir::new("ckpt-rbm-momentum");
    let policy = CheckpointPolicy::new(dir.path(), 3);
    let ckpt_cfg = TrainConfig {
        checkpoint: Some(policy.clone()),
        ..cfg.clone()
    };
    {
        let mut first = make_model();
        let ctx1 = ExecCtx::native(OptLevel::Improved, 21);
        train_dataset(&mut first, &ctx1, &ds, &ckpt_cfg, 3).unwrap();
    }

    let ckpt = load_checkpoint_file(policy.file()).unwrap();
    // CD-1 draws one Bernoulli stream per batch from the context's
    // counter-based allocator; a context built with any other seed must be
    // overwritten by the checkpoint's (seed, cursor) for the Gibbs chain
    // to continue identically.
    let ctx2 = ExecCtx::native(OptLevel::Improved, 0);
    ckpt.restore_rng(&ctx2);
    let progress = ckpt.progress;
    let mut resumed = ckpt.into_rbm().expect("RBM checkpoint");
    train_dataset_resume(&mut resumed, &ctx2, &ds, &ckpt_cfg, 6, &progress).unwrap();

    assert_eq!(straight.rbm.w.as_slice(), resumed.rbm.w.as_slice());
    assert_eq!(straight.rbm.b_vis, resumed.rbm.b_vis);
    assert_eq!(straight.rbm.c_hid, resumed.rbm.c_hid);
    assert_eq!(straight.momentum_parts(), resumed.momentum_parts());
}

/// The CNN's checkpoint carries the label cursor alongside the weights —
/// stream labels are a pure function of it, so the resumed leg replays
/// the exact label sequence the uninterrupted run saw. The resumed model
/// is rebuilt graph-scheduled through the layer IR.
#[test]
fn cnn_resume_is_bit_identical() {
    let cnn_cfg = CnnConfig::new(8, 3, 3, 2, 10, 4);
    let ds = toy_dataset(200, cnn_cfg.input_dim(), 31);
    let cfg = base_config();
    let make_model =
        || CnnModel::new(CnnNet::new(cnn_cfg, 33), ds.len() as u64).with_graph_schedule();

    let mut straight = make_model();
    let ctx = ExecCtx::native(OptLevel::Improved, 35);
    train_dataset(&mut straight, &ctx, &ds, &cfg, 6).unwrap();

    let dir = TestDir::new("ckpt-cnn");
    let policy = CheckpointPolicy::new(dir.path(), 5);
    let ckpt_cfg = TrainConfig {
        checkpoint: Some(policy.clone()),
        ..cfg.clone()
    };
    {
        let mut first = make_model();
        let ctx1 = ExecCtx::native(OptLevel::Improved, 35);
        train_dataset(&mut first, &ctx1, &ds, &ckpt_cfg, 3).unwrap();
    }

    let ckpt = load_checkpoint_file(policy.file()).unwrap();
    assert_eq!(ckpt.progress.epoch, 3);
    let ctx2 = ExecCtx::native(OptLevel::Improved, 0);
    ckpt.restore_rng(&ctx2);
    let progress = ckpt.progress;
    let mut resumed = ckpt.into_cnn().expect("CNN checkpoint");
    train_dataset_resume(&mut resumed, &ctx2, &ds, &ckpt_cfg, 6, &progress).unwrap();

    assert_eq!(
        straight.net.conv_w.as_slice(),
        resumed.net.conv_w.as_slice()
    );
    assert_eq!(straight.net.conv_b, resumed.net.conv_b);
    assert_eq!(
        straight.net.dense_w.as_slice(),
        resumed.net.dense_w.as_slice()
    );
    assert_eq!(straight.net.dense_b, resumed.net.dense_b);
    assert_eq!(
        straight.net.softmax.w.as_slice(),
        resumed.net.softmax.w.as_slice()
    );
    assert_eq!(straight.net.softmax.b, resumed.net.softmax.b);
    assert_eq!(straight.cursor_parts(), resumed.cursor_parts());
}

#[test]
fn multidev_rbm_resume_is_bit_identical_including_device_cursors() {
    let mut ds = toy_dataset(200, 12, 14);
    ds.binarize(0.5);
    let cfg = TrainConfig {
        learning_rate: 0.1,
        ..base_config()
    };
    // A four-device replica set with device 3 already offline: the
    // checkpoint must carry the geometry, the offline flag and every
    // device's (seed, cursor) sampler position across the boundary.
    let make_model = || {
        let mut m =
            DataParallelRbm::new(Rbm::new(RbmConfig::new(12, 9), 29), MultiDevConfig::new(4));
        m.mark_device_offline(3).unwrap();
        m
    };

    let mut straight = make_model();
    let ctx = ExecCtx::native(OptLevel::Improved, 21);
    train_dataset(&mut straight, &ctx, &ds, &cfg, 6).unwrap();

    let dir = TestDir::new("ckpt-multidev-rbm");
    let policy = CheckpointPolicy::new(dir.path(), 3);
    let ckpt_cfg = TrainConfig {
        checkpoint: Some(policy.clone()),
        ..cfg.clone()
    };
    {
        let mut first = make_model();
        let ctx1 = ExecCtx::native(OptLevel::Improved, 21);
        train_dataset(&mut first, &ctx1, &ds, &ckpt_cfg, 3).unwrap();
        // `first` and `ctx1` drop here: only the file crosses the boundary.
    }

    let ckpt = load_checkpoint_file(policy.file()).unwrap();
    assert_eq!(ckpt.progress.epoch, 3);
    let ctx2 = ExecCtx::native(OptLevel::Improved, 0); // overwritten by restore
    ckpt.restore_rng(&ctx2);
    let progress = ckpt.progress;
    // Rebuild from nothing but the file. The placeholder model is built
    // with the *wrong* seed and a single device on purpose: every piece of
    // restored state must come off disk, not from the constructor.
    let mut resumed =
        DataParallelRbm::new(Rbm::new(RbmConfig::new(12, 9), 0), MultiDevConfig::new(1));
    resumed.restore_state(ckpt.model).unwrap();
    assert_eq!(resumed.config().devices, 4, "geometry must come off disk");
    assert_eq!(
        resumed.device_set().online_count(),
        3,
        "offline flag must survive the process boundary"
    );
    train_dataset_resume(&mut resumed, &ctx2, &ds, &ckpt_cfg, 6, &progress).unwrap();

    // CD-1 draws from the context's counter-based streams each batch, so
    // matching weights prove the restored cursors continued the Gibbs
    // chains exactly where leg 1 stopped.
    assert_eq!(straight.rbm().w.as_slice(), resumed.rbm().w.as_slice());
    assert_eq!(straight.rbm().b_vis, resumed.rbm().b_vis);
    assert_eq!(straight.rbm().c_hid, resumed.rbm().c_hid);
    assert_eq!(
        straight.dev_rng(),
        resumed.dev_rng(),
        "per-device sampler cursors diverged"
    );
}

#[test]
fn crash_mid_epoch_resumes_bit_identically() {
    let ds = toy_dataset(200, 16, 8);
    let cfg = base_config();
    let make_model = || AeModel::new(SparseAutoencoder::new(AeConfig::new(16, 8), 17));

    let mut straight = make_model();
    let ctx = ExecCtx::native(OptLevel::Improved, 2);
    train_dataset(&mut straight, &ctx, &ds, &cfg, 2).unwrap();

    // "Crash" partway through epoch 1: feed the first three chunks, then a
    // wrong-width chunk. The trainer bails with DimensionMismatch but first
    // leaves a best-effort checkpoint of everything trained so far.
    let dir = TestDir::new("ckpt-crash");
    let policy = CheckpointPolicy::new(dir.path(), 0);
    let ckpt_cfg = TrainConfig {
        checkpoint: Some(policy.clone()),
        ..cfg.clone()
    };
    {
        let chunks = ds.clone().into_chunks(cfg.chunk_rows);
        let mut feed: Vec<Mat> = chunks.iter().take(3).cloned().collect();
        feed.push(Mat::zeros(10, 5)); // loader fault
        let mut first = make_model();
        let ctx1 = ExecCtx::native(OptLevel::Improved, 2);
        let err = train_stream(
            &mut first,
            &ctx1,
            micdnn_sim::VecSource::new(feed),
            &ckpt_cfg,
        )
        .unwrap_err();
        assert!(matches!(err, TrainError::DimensionMismatch { .. }));
    }

    let ckpt = load_checkpoint_file(policy.file()).unwrap();
    // 3 chunks of 50 rows at batch 25 = 6 batches, mid-epoch (8 per epoch).
    assert_eq!(ckpt.progress.batches, 6);
    let ctx2 = ExecCtx::native(OptLevel::Improved, 2);
    ckpt.restore_rng(&ctx2);
    let progress = ckpt.progress;
    let mut resumed = ckpt.into_ae().expect("AE checkpoint");
    let report = train_dataset_resume(&mut resumed, &ctx2, &ds, &ckpt_cfg, 2, &progress).unwrap();
    assert_eq!(report.batches, 2 * 8 - 6);

    assert_eq!(straight.ae.w1.as_slice(), resumed.ae.w1.as_slice());
    assert_eq!(straight.ae.w2.as_slice(), resumed.ae.w2.as_slice());
    assert_eq!(straight.ae.b1, resumed.ae.b1);
    assert_eq!(straight.ae.b2, resumed.ae.b2);
}

/// PCD through the trainer, killed at batch 6 of 16 (a wrong-width chunk
/// after three good ones) and resumed from its parting checkpoint, ends in
/// the straight run's exact state. Momentum and the graph schedule ride
/// along, so their state is checked too. Weights of unit scale make the
/// chain's samples depend on its particles, so a chain the resume failed to
/// restore would show in the weights.
#[test]
fn pcd_killed_mid_epoch_resumes_bit_identically_including_the_chain() {
    let mut ds = toy_dataset(200, 12, 10);
    ds.binarize(0.5);
    let cfg = TrainConfig {
        learning_rate: 0.1,
        ..base_config()
    };
    let make_model = || {
        let mut rbm = Rbm::new(RbmConfig::new(12, 9), 19);
        rbm.w.map_inplace(|w| 100.0 * w);
        RbmModel::new(rbm)
            .with_pcd()
            .with_momentum(0.5)
            .with_graph_schedule()
    };

    let mut straight = make_model();
    let ctx = ExecCtx::native(OptLevel::Improved, 23);
    train_dataset(&mut straight, &ctx, &ds, &cfg, 2).unwrap();

    let dir = TestDir::new("ckpt-pcd");
    let policy = CheckpointPolicy::new(dir.path(), 0);
    let ckpt_cfg = TrainConfig {
        checkpoint: Some(policy.clone()),
        ..cfg.clone()
    };
    {
        let chunks = ds.clone().into_chunks(cfg.chunk_rows);
        let mut feed: Vec<Mat> = chunks.iter().take(3).cloned().collect();
        feed.push(Mat::zeros(10, 5)); // loader fault
        let mut first = make_model();
        let ctx1 = ExecCtx::native(OptLevel::Improved, 23);
        let source = micdnn_sim::VecSource::new(feed);
        let err = train_stream(&mut first, &ctx1, source, &ckpt_cfg).unwrap_err();
        assert!(matches!(err, TrainError::DimensionMismatch { .. }));
    }

    let ckpt = load_checkpoint_file(policy.file()).unwrap();
    assert_eq!(ckpt.progress.batches, 6);
    let ctx2 = ExecCtx::native(OptLevel::Improved, 0); // overwritten by restore
    ckpt.restore_rng(&ctx2);
    let progress = ckpt.progress;
    let mut resumed = ckpt.into_rbm().expect("RBM checkpoint");
    let report = train_dataset_resume(&mut resumed, &ctx2, &ds, &ckpt_cfg, 2, &progress).unwrap();
    assert_eq!(report.batches, 2 * 8 - 6);

    // The checkpoint record holds the weights, the momentum velocities, the
    // chain and, here, the context's sampler cursor: equal records are the
    // same run state.
    let record = |model: &RbmModel, ctx: &ExecCtx| {
        let (seed, cursor) = ctx.rng_state();
        let mut bytes = Vec::new();
        save_checkpoint(&mut bytes, model, seed, cursor, &TrainProgress::default()).unwrap();
        bytes
    };
    assert_eq!(straight.rbm.w.as_slice(), resumed.rbm.w.as_slice());
    assert_eq!(record(&straight, &ctx), record(&resumed, &ctx2));
}

#[test]
fn stacked_pretraining_checkpoints_carry_the_layer_index() {
    let ds = toy_dataset(120, 16, 9);
    let dir = TestDir::new("ckpt-stacked");
    let policy = CheckpointPolicy::new(dir.path(), 0);
    let cfg = TrainConfig {
        checkpoint: Some(policy.clone()),
        ..base_config()
    };
    let mut stack = StackedAutoencoder::with_default_config(&[16, 8, 4], 5);
    let ctx = ExecCtx::native(OptLevel::Improved, 6);
    stack.pretrain(&ctx, &ds, &cfg, 2).unwrap();

    // The last checkpoint written belongs to the deepest layer (index 1 of
    // the two trained layers) and records its 8->4 shape.
    let ckpt = load_checkpoint_file(policy.file()).unwrap();
    assert_eq!(ckpt.progress.layer, 1);
    let model = ckpt.into_ae().expect("AE checkpoint");
    assert_eq!(model.ae.config().n_visible, 8);
    assert_eq!(model.ae.config().n_hidden, 4);
}
