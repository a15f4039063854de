//! End-to-end integration tests: the public API trains real models on the
//! synthetic datasets, across crates (data -> sim stream -> kernels ->
//! core).

use micdnn::train::{train_dataset, AeModel, RbmModel, TrainConfig};
use micdnn::{AeConfig, ExecCtx, OptLevel, Rbm, RbmConfig, SparseAutoencoder, StackedAutoencoder};
use micdnn_data::{Dataset, DigitGenerator, PatchGenerator};

fn digit_data(n: usize, side: usize, seed: u64) -> Dataset {
    let mut gen = DigitGenerator::new(side, seed);
    let mut ds = Dataset::new(gen.matrix(n));
    ds.normalize();
    ds
}

#[test]
fn autoencoder_learns_digits() {
    let ds = digit_data(600, 12, 1);
    let cfg = AeConfig::new(144, 64);
    let mut model = AeModel::new(SparseAutoencoder::new(cfg, 2));
    let ctx = ExecCtx::native(OptLevel::Improved, 3);
    let tc = TrainConfig {
        learning_rate: 0.3,
        batch_size: 60,
        chunk_rows: 300,
        ..TrainConfig::default()
    };
    let report = train_dataset(&mut model, &ctx, &ds, &tc, 25).unwrap();
    assert!(
        report.final_recon() < 0.3 * report.initial_recon(),
        "autoencoder failed to learn: {} -> {}",
        report.initial_recon(),
        report.final_recon()
    );
    let ae = model.into_inner();
    assert!(ae.w1.all_finite() && ae.w2.all_finite(), "weights diverged");
}

#[test]
fn autoencoder_learns_natural_patches() {
    let mut gen = PatchGenerator::new(12, 5);
    let mut ds = Dataset::new(gen.matrix(800));
    ds.normalize();
    let cfg = AeConfig::new(144, 72);
    let mut model = AeModel::new(SparseAutoencoder::new(cfg, 6));
    let ctx = ExecCtx::native(OptLevel::Improved, 7);
    let tc = TrainConfig {
        learning_rate: 0.3,
        batch_size: 80,
        chunk_rows: 400,
        ..TrainConfig::default()
    };
    let report = train_dataset(&mut model, &ctx, &ds, &tc, 20).unwrap();
    assert!(
        report.final_recon() < 0.5 * report.initial_recon(),
        "{} -> {}",
        report.initial_recon(),
        report.final_recon()
    );
}

#[test]
fn rbm_learns_binarized_digits() {
    let mut ds = digit_data(400, 12, 11);
    ds.binarize(0.5);
    let cfg = RbmConfig::new(144, 80);
    let mut model = RbmModel::new(Rbm::new(cfg, 12));
    let ctx = ExecCtx::native(OptLevel::Improved, 13);
    let tc = TrainConfig {
        learning_rate: 0.1,
        batch_size: 50,
        chunk_rows: 200,
        ..TrainConfig::default()
    };
    let report = train_dataset(&mut model, &ctx, &ds, &tc, 30).unwrap();
    assert!(
        report.final_recon() < 0.5 * report.initial_recon(),
        "RBM failed to learn: {} -> {}",
        report.initial_recon(),
        report.final_recon()
    );
}

#[test]
fn optimization_rungs_agree_on_training_trajectory() {
    // The paper's premise: the optimizations change speed, not math. Train
    // the same model at every rung and compare final weights.
    let ds = digit_data(200, 10, 21);
    let cfg = AeConfig::new(100, 40);
    let tc = TrainConfig {
        learning_rate: 0.2,
        batch_size: 50,
        chunk_rows: 100,
        ..TrainConfig::default()
    };
    let train_at = |lvl: OptLevel| {
        let mut model = AeModel::new(SparseAutoencoder::new(cfg, 22));
        let ctx = ExecCtx::native(lvl, 23);
        train_dataset(&mut model, &ctx, &ds, &tc, 5).unwrap();
        model.into_inner()
    };
    let reference = train_at(OptLevel::Baseline);
    for lvl in [
        OptLevel::OpenMp,
        OptLevel::OpenMpMkl,
        OptLevel::Improved,
        OptLevel::SequentialBlas,
    ] {
        let trained = train_at(lvl);
        let diff = micdnn_tensor::max_abs_diff(trained.w1.as_slice(), reference.w1.as_slice());
        assert!(
            diff < 2e-2,
            "{lvl:?} diverged from baseline trajectory by {diff}"
        );
    }
}

#[test]
fn rbm_graph_and_serial_schedules_train_identically() {
    let mut ds = digit_data(200, 10, 31);
    ds.binarize(0.5);
    let cfg = RbmConfig::new(100, 50);
    let tc = TrainConfig {
        batch_size: 50,
        chunk_rows: 100,
        ..TrainConfig::default()
    };
    let run = |graph: bool| {
        let mut model = if graph {
            RbmModel::new(Rbm::new(cfg, 32)).with_graph_schedule()
        } else {
            RbmModel::new(Rbm::new(cfg, 32))
        };
        let ctx = ExecCtx::native(OptLevel::Improved, 33);
        train_dataset(&mut model, &ctx, &ds, &tc, 5).unwrap();
        model.into_inner()
    };
    let a = run(false);
    let b = run(true);
    assert_eq!(
        a.w.as_slice(),
        b.w.as_slice(),
        "schedules must be bit-identical"
    );
}

#[test]
fn stacked_pretraining_produces_usable_codes() {
    let ds = digit_data(400, 12, 41);
    let mut stack = StackedAutoencoder::with_default_config(&[144, 64, 32, 16], 42);
    let ctx = ExecCtx::native(OptLevel::Improved, 43);
    let tc = TrainConfig {
        learning_rate: 0.3,
        batch_size: 50,
        chunk_rows: 200,
        ..TrainConfig::default()
    };
    let reports = stack.pretrain(&ctx, &ds, &tc, 12).unwrap();
    assert_eq!(reports.len(), 3);
    for (i, lr) in reports.iter().enumerate() {
        assert!(
            lr.report.final_recon() < lr.report.initial_recon(),
            "layer {i} got worse"
        );
    }
    let codes = stack.encode(&ctx, ds.matrix().view());
    assert_eq!(codes.shape(), (400, 16));
    assert!(codes.all_finite());

    // Codes must distinguish at least some digit classes: different digits
    // were generated cyclically, so rows 0 and 1 are different classes.
    let d_same = dist(codes.row(0), codes.row(10)); // both class 0
    let d_diff = dist(codes.row(0), codes.row(1)); // class 0 vs class 1
    assert!(
        d_diff > 0.2 * d_same || d_diff > 0.05,
        "codes carry no class signal: same {d_same}, diff {d_diff}"
    );
}

fn dist(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f32>()
        .sqrt()
}
