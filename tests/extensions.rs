//! Integration tests for the extension surface (optimizers, batch
//! methods, PCD, fine-tuning, persistence, metrics, hybrid) through the
//! public API — everything a downstream user would touch beyond the
//! paper's core loop.

use micdnn::batch_opt::{conjugate_gradient, lbfgs, AeObjective, BatchOptOptions};
use micdnn::hybrid::{HybridAeTrainer, HybridConfig};
use micdnn::train::{train_dataset, AeModel, TrainConfig};
use micdnn::{
    activation_stats, load_autoencoder_file, reconstruction_stats, save_autoencoder_file, AeConfig,
    AeScratch, ExecCtx, FineTuneNet, OptLevel, Optimizer, Rbm, RbmConfig, RbmScratch, Rule,
    Schedule, SparseAutoencoder, StackedAutoencoder,
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
fn lbfgs_beats_sgd_per_update_on_small_full_batch() {
    // The paper's §III trade-off: a batch method makes far more progress
    // per update (while each update costs much more compute).
    let ds = digits(60, 8, 4);
    let cfg = AeConfig::new(64, 20).without_sparsity();
    let ctx = ExecCtx::native(OptLevel::Improved, 5);

    // 15 L-BFGS iterations.
    let ae = SparseAutoencoder::new(cfg, 6);
    let mut obj = AeObjective::new(ae, &ctx, ds.matrix().view());
    let mut x = obj.params();
    let opts = BatchOptOptions {
        max_iters: 15,
        ..Default::default()
    };
    let report = lbfgs(&mut obj, &mut x, 6, &opts);

    // 15 full-batch SGD steps at a generous rate.
    let mut sgd_model = SparseAutoencoder::new(cfg, 6);
    let mut scratch = AeScratch::new(&cfg, 60);
    let mut sgd_cost = f64::INFINITY;
    for _ in 0..15 {
        sgd_cost = sgd_model
            .train_batch(&ctx, ds.matrix().view(), &mut scratch, 0.5)
            .total();
    }
    assert!(
        report.final_cost() < sgd_cost,
        "L-BFGS {} should beat SGD {} per update",
        report.final_cost(),
        sgd_cost
    );
}

#[test]
fn cg_trains_autoencoder_through_objective() {
    let ds = digits(50, 8, 7);
    let cfg = AeConfig::new(64, 16);
    let ctx = ExecCtx::native(OptLevel::Improved, 8);
    let ae = SparseAutoencoder::new(cfg, 9);
    let mut obj = AeObjective::new(ae, &ctx, ds.matrix().view());
    let mut x = obj.params();
    let report = conjugate_gradient(
        &mut obj,
        &mut x,
        &BatchOptOptions {
            max_iters: 25,
            ..Default::default()
        },
    );
    assert!(report.final_cost() < 0.7 * report.initial_cost());
    assert!(obj.into_model().w1.all_finite());
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

    // Metrics on the first layer.
    let first = &stack.layers()[0];
    let mut scratch = AeScratch::new(first.config(), 300);
    let recon = reconstruction_stats(first, &ctx, ds.matrix().view(), &mut scratch);
    assert!(recon.psnr_db > 5.0, "PSNR {} too low", recon.psnr_db);
    let acts = activation_stats(first, &ctx, ds.matrix().view());
    assert!(
        acts.dead_units < first.config().n_hidden / 2,
        "{} of {} units dead",
        acts.dead_units,
        first.config().n_hidden
    );

    // Persist + reload the first layer; metrics must be identical.
    let dir = micdnn::TestDir::new("ext-pipeline");
    let path = dir.file("layer0.bin");
    save_autoencoder_file(first, &path).unwrap();
    let reloaded = load_autoencoder_file(&path).unwrap();
    let recon2 = reconstruction_stats(&reloaded, &ctx, ds.matrix().view(), &mut scratch);
    assert_eq!(recon.mse, recon2.mse);

    // Fine-tune and check we beat chance comfortably.
    let mut net = FineTuneNet::from_stack(&stack, 10, 16);
    net.fit(&ctx, ds.matrix().view(), &labels, 50, 0.5, 15);
    let acc = net.accuracy(&ctx, ds.matrix().view(), &labels);
    assert!(acc > 0.3, "accuracy {acc} barely above 10% chance");
}

#[test]
fn hybrid_trainer_matches_plain_training_quality() {
    let ds = digits(200, 10, 17);
    let cfg = AeConfig::new(100, 40);
    let mut ae = SparseAutoencoder::new(cfg, 18);
    let hcfg = HybridConfig::paper_hardware(0.75);
    let mut trainer = HybridAeTrainer::new(&ae, OptLevel::Improved, &hcfg, 50, 19);
    let mut first = f64::NAN;
    let mut last = f64::NAN;
    for pass in 0..15 {
        let mut lo = 0;
        while lo < ds.len() {
            let hi = (lo + 50).min(ds.len());
            let e = trainer.train_batch(&mut ae, ds.batch(lo, hi), 0.3);
            if pass == 0 && lo == 0 {
                first = e;
            }
            last = e;
            lo = hi;
        }
    }
    assert!(
        last < 0.5 * first,
        "hybrid training failed: {first} -> {last}"
    );
    assert!(trainer.combined_secs > 0.0);
    // Both simulated sides actually did work.
    assert!(trainer.phi_ctx.sim_time() > 0.0);
    assert!(trainer.host_ctx.sim_time() > 0.0);
}
