//! Integration tests for the extension surface (optimizers, PCD,
//! fine-tuning, persistence) through the public API — everything a
//! downstream user would touch beyond the paper's core loop.

use micdnn::train::{train_dataset, AeModel, TrainConfig};
use micdnn::{
    load_autoencoder_file, save_autoencoder_file, AeConfig, AeScratch, ExecCtx, FineTuneNet,
    OptLevel, Optimizer, Rbm, RbmConfig, RbmScratch, Rule, Schedule, SparseAutoencoder,
    StackedAutoencoder,
};
use micdnn_data::{Dataset, DigitGenerator};

fn digits(n: usize, side: usize, seed: u64) -> Dataset {
    let mut gen = DigitGenerator::new(side, seed);
    let mut ds = Dataset::new(gen.matrix(n));
    ds.normalize();
    ds
}

#[test]
fn momentum_with_decay_schedule_converges_faster_than_plain_sgd_early() {
    let ds = digits(300, 10, 1);
    let cfg = AeConfig::new(100, 40);
    let tc = TrainConfig {
        batch_size: 50,
        chunk_rows: 100,
        learning_rate: 0.2,
        ..TrainConfig::default()
    };
    let run = |opt: Option<Optimizer>| {
        let mut model = AeModel::new(SparseAutoencoder::new(cfg, 2));
        if let Some(o) = opt {
            model = model.with_optimizer(o);
        }
        let ctx = ExecCtx::native(OptLevel::Improved, 3);
        train_dataset(&mut model, &ctx, &ds, &tc, 6)
            .unwrap()
            .final_recon()
    };
    let plain = run(None);
    let momentum = run(Some(Optimizer::new(
        Rule::Momentum { mu: 0.8 },
        Schedule::Constant(0.2),
        &SparseAutoencoder::optimizer_slots(&cfg),
    )));
    // With the same rate and budget, momentum should be at least
    // competitive (usually clearly better on this smooth objective).
    assert!(
        momentum < plain * 1.1,
        "momentum {momentum} much worse than plain {plain}"
    );
}

#[test]
fn pcd_trains_over_chunks() {
    let mut ds = digits(200, 10, 10);
    ds.binarize(0.5);
    let cfg = RbmConfig::new(100, 60);
    let mut rbm = Rbm::new(cfg, 11);
    let ctx = ExecCtx::native(OptLevel::Improved, 12);
    let mut scratch = RbmScratch::new(&cfg, 50);
    let before = rbm.reconstruction_error(&ctx, ds.batch(0, 50), &mut scratch);
    for _ in 0..20 {
        let mut lo = 0;
        while lo < ds.len() {
            let hi = (lo + 50).min(ds.len());
            rbm.pcd_step(&ctx, ds.batch(lo, hi), &mut scratch, 0.05);
            lo = hi;
        }
    }
    let after = rbm.reconstruction_error(&ctx, ds.batch(0, 50), &mut scratch);
    assert!(after < before, "{before} -> {after}");
}

#[test]
fn full_pipeline_pretrain_finetune_save_load_metrics() {
    let ds = digits(300, 12, 13);
    let labels: Vec<usize> = (0..300).map(|i| i % 10).collect();
    let ctx = ExecCtx::native(OptLevel::Improved, 14);
    let tc = TrainConfig {
        batch_size: 50,
        chunk_rows: 150,
        learning_rate: 0.3,
        ..TrainConfig::default()
    };

    // Pre-train.
    let mut stack = StackedAutoencoder::with_default_config(&[144, 64, 32], 15);
    stack.pretrain(&ctx, &ds, &tc, 8).unwrap();

    // Persist + reload the first layer; its reconstruction error must be
    // bit-identical.
    let first = &stack.layers()[0];
    let mut scratch = AeScratch::new(first.config(), 300);
    let recon = first.reconstruction_error(&ctx, ds.matrix().view(), &mut scratch);
    let dir = micdnn::TestDir::new("ext-pipeline");
    let path = dir.file("layer0.bin");
    save_autoencoder_file(first, &path).unwrap();
    let reloaded = load_autoencoder_file(&path).unwrap();
    let recon2 = reloaded.reconstruction_error(&ctx, ds.matrix().view(), &mut scratch);
    assert_eq!(recon.to_bits(), recon2.to_bits());

    // Fine-tune and check we beat chance comfortably.
    let mut net = FineTuneNet::from_stack(&stack, 10, 16);
    net.fit(&ctx, ds.matrix().view(), &labels, 50, 0.5, 15);
    let acc = net.accuracy(&ctx, ds.matrix().view(), &labels);
    assert!(acc > 0.3, "accuracy {acc} barely above 10% chance");
}
