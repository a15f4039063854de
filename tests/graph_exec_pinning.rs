//! Bit-identity pinning for the dataflow executor: routing a training run
//! through the task graph (`with_graph_schedule`) must leave *no trace* in
//! the numerics — weights, optimizer/momentum state, and the shared RNG
//! cursor all match the plain serial path byte for byte, at whatever
//! thread count `RAYON_NUM_THREADS` provides.

use micdnn::train::{train_dataset, AeModel, RbmModel, TrainConfig, UnsupervisedModel};
use micdnn::{
    cd_step_graph, AeConfig, CnnConfig, CnnNet, ExecCtx, FineTuneNet, OptLevel, Optimizer,
    Profiler, Rbm, RbmConfig, RbmScratch, Rule, Schedule, SparseAutoencoder,
};
use micdnn_data::{Dataset, DigitGenerator};

fn digit_data(n: usize, side: usize, seed: u64) -> Dataset {
    let mut gen = DigitGenerator::new(side, seed);
    let mut ds = Dataset::new(gen.matrix(n));
    ds.normalize();
    ds
}

/// Runs one AE training job and returns the full serialized state
/// (weights + optimizer slots via `save_state`) and the RNG cursor.
fn ae_run(graph: bool, ds: &Dataset, tc: &TrainConfig) -> (Vec<u8>, (u64, u64)) {
    let cfg = AeConfig::new(64, 25);
    let slots = SparseAutoencoder::optimizer_slots(&cfg);
    let mut model = AeModel::new(SparseAutoencoder::new(cfg, 11)).with_optimizer(Optimizer::new(
        Rule::Momentum { mu: 0.9 },
        Schedule::Constant(0.1),
        &slots,
    ));
    if graph {
        model = model.with_graph_schedule();
    }
    let ctx = ExecCtx::native(OptLevel::Improved, 11);
    train_dataset(&mut model, &ctx, ds, tc, 4).unwrap();
    let mut bytes = Vec::new();
    model.save_state(&mut bytes).unwrap();
    (bytes, ctx.rng_state())
}

#[test]
fn graph_scheduled_ae_run_is_bit_identical_to_serial() {
    let ds = digit_data(200, 8, 21);
    let tc = TrainConfig {
        learning_rate: 0.1,
        batch_size: 25,
        chunk_rows: 100,
        ..TrainConfig::default()
    };
    let (serial_bytes, serial_rng) = ae_run(false, &ds, &tc);
    let (graph_bytes, graph_rng) = ae_run(true, &ds, &tc);
    // The AE checkpoint format does not record the scheduling preference,
    // so the *entire* state record must agree byte for byte.
    assert_eq!(
        serial_bytes, graph_bytes,
        "graph-scheduled AE diverged from the serial path"
    );
    assert_eq!(serial_rng, graph_rng, "AE RNG cursor diverged");
}

/// Runs one RBM training job (CD-2 + momentum: the full generalized graph)
/// and returns weights, momentum state and the RNG cursor.
#[allow(clippy::type_complexity)]
fn rbm_run(
    graph: bool,
    ds: &Dataset,
    tc: &TrainConfig,
) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, (u64, u64)) {
    let cfg = RbmConfig::new(64, 25).with_cd_steps(2);
    let mut model = RbmModel::new(Rbm::new(cfg, 13)).with_momentum(0.5);
    if graph {
        model = model.with_graph_schedule();
    }
    let ctx = ExecCtx::native(OptLevel::Improved, 13);
    train_dataset(&mut model, &ctx, ds, tc, 4).unwrap();
    let (_, vw, vb, vc) = model.momentum_parts().expect("momentum attached");
    let (vw, vb, vc) = (vw.to_vec(), vb.to_vec(), vc.to_vec());
    let rng = ctx.rng_state();
    let rbm = model.into_inner();
    (rbm.w.as_slice().to_vec(), vw, vb, vc, rng)
}

#[test]
fn graph_scheduled_rbm_run_is_bit_identical_to_serial() {
    let mut ds = digit_data(200, 8, 22);
    ds.binarize(0.5);
    let tc = TrainConfig {
        learning_rate: 0.05,
        batch_size: 25,
        chunk_rows: 100,
        ..TrainConfig::default()
    };
    let (sw, svw, svb, svc, srng) = rbm_run(false, &ds, &tc);
    let (gw, gvw, gvb, gvc, grng) = rbm_run(true, &ds, &tc);
    assert_eq!(sw, gw, "graph-scheduled RBM weights diverged");
    assert_eq!(svw, gvw, "momentum velocity (weights) diverged");
    assert_eq!(svb, gvb, "momentum velocity (visible bias) diverged");
    assert_eq!(svc, gvc, "momentum velocity (hidden bias) diverged");
    assert_eq!(srng, grng, "RBM RNG cursor diverged");
}

/// With a profiler attached, a native graph step opens the profiling
/// phases of the serial step, span for span: on a native context
/// `execute` runs declaration order.
#[test]
fn native_graph_step_profiles_the_serial_phases() {
    let mut ds = digit_data(40, 8, 23);
    ds.binarize(0.5);
    let cfg = RbmConfig::new(64, 25);
    let phases = |graph: bool| {
        let ctx = ExecCtx::native(OptLevel::Improved, 5).with_profiler(Profiler::new());
        let mut rbm = Rbm::new(cfg, 5);
        let mut scratch = RbmScratch::new(&cfg, 20);
        for step in 0..3 {
            let x = ds.batch(step % 2 * 20, step % 2 * 20 + 20);
            if graph {
                cd_step_graph(&mut rbm, &ctx, x, &mut scratch, 0.05);
            } else {
                rbm.cd_step(&ctx, x, &mut scratch, 0.05);
            }
        }
        let report = ctx.profile_report().expect("profiler attached");
        let phases = report.phases.into_iter().map(|p| (p.phase, p.count));
        phases.collect::<Vec<_>>()
    };
    let serial = phases(false);
    assert!(!serial.is_empty(), "the serial CD step opens phase spans");
    assert_eq!(serial, phases(true));
}

// ---------------------------------------------------------------------------
// Pre-refactor goldens: the layer-trait rebuild of the AE / CD-k / fine-tune
// builders (`micdnn::layers`) must reproduce the hand-built graphs'
// training outcomes byte-for-byte. These files were generated from the
// hand-rolled node lists before the refactor (UPDATE_GOLDEN=1 rewrites
// them; a diff there is a bit-identity regression, not a format change).
// ---------------------------------------------------------------------------

const AE_GOLDEN: &[u8] = include_bytes!("golden/layer_ae_run.bin");
const RBM_GOLDEN: &[u8] = include_bytes!("golden/layer_rbm_run.bin");
const FT_GOLDEN: &[u8] = include_bytes!("golden/layer_ft_run.bin");
const PCD_GOLDEN: &[u8] = include_bytes!("golden/layer_pcd_run.bin");
const CNN_GOLDEN: &[u8] = include_bytes!("golden/layer_cnn_run.bin");

/// With `UPDATE_GOLDEN=1`, rewrites the golden file instead of comparing.
/// Returns true when the caller should skip the assertion.
fn maybe_update(name: &str, bytes: &[u8]) -> bool {
    if std::env::var_os("UPDATE_GOLDEN").is_none() {
        return false;
    }
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, bytes).unwrap();
    eprintln!("updated {path}");
    true
}

fn push_rng(bytes: &mut Vec<u8>, rng: (u64, u64)) {
    bytes.extend_from_slice(&rng.0.to_le_bytes());
    bytes.extend_from_slice(&rng.1.to_le_bytes());
}

fn push_f32s(bytes: &mut Vec<u8>, vals: &[f32]) {
    for v in vals {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
}

#[test]
fn trait_built_ae_graph_reproduces_prerefactor_bytes() {
    // Same job as `graph_scheduled_ae_run_is_bit_identical_to_serial`:
    // momentum optimizer, graph schedule, 4 passes. The record holds the
    // RNG cursor and the full `save_state` serialization (weights +
    // optimizer slots).
    let ds = digit_data(200, 8, 21);
    let tc = TrainConfig {
        learning_rate: 0.1,
        batch_size: 25,
        chunk_rows: 100,
        ..TrainConfig::default()
    };
    let (state, rng) = ae_run(true, &ds, &tc);
    let mut record = Vec::new();
    push_rng(&mut record, rng);
    record.extend_from_slice(&state);
    if maybe_update("layer_ae_run.bin", &record) {
        return;
    }
    assert_eq!(
        record, AE_GOLDEN,
        "trait-built AE graph diverged from the pre-refactor hand-built run"
    );
}

#[test]
fn trait_built_cdk_graph_reproduces_prerefactor_bytes() {
    // CD-2 with momentum through the graph schedule: weights, all three
    // velocity buffers, and the RNG cursor.
    let mut ds = digit_data(200, 8, 22);
    ds.binarize(0.5);
    let tc = TrainConfig {
        learning_rate: 0.05,
        batch_size: 25,
        chunk_rows: 100,
        ..TrainConfig::default()
    };
    let (w, vw, vb, vc, rng) = rbm_run(true, &ds, &tc);
    let mut record = Vec::new();
    push_rng(&mut record, rng);
    for part in [&w, &vw, &vb, &vc] {
        push_f32s(&mut record, part);
    }
    if maybe_update("layer_rbm_run.bin", &record) {
        return;
    }
    assert_eq!(
        record, RBM_GOLDEN,
        "trait-built CD-k graph diverged from the pre-refactor hand-built run"
    );
}

#[test]
fn trait_built_finetune_graph_reproduces_prerefactor_bytes() {
    // Graph-scheduled fine-tuning of a 144 -> 24 -> 12 stack + softmax
    // head: per-epoch losses, every parameter tensor, and the RNG cursor.
    let mut gen = DigitGenerator::new(12, 12);
    let mut ds = Dataset::new(gen.matrix(60));
    ds.normalize();
    let labels: Vec<usize> = (0..60).map(|i| i % 10).collect();
    let ctx = ExecCtx::native(OptLevel::Improved, 14);
    let mut net = FineTuneNet::random(&[144, 24, 12], 10, 13).with_graph_schedule();
    let losses = net.fit(&ctx, ds.matrix().view(), &labels, 20, 0.4, 4);

    let mut record = Vec::new();
    push_rng(&mut record, ctx.rng_state());
    for loss in &losses {
        record.extend_from_slice(&loss.to_le_bytes());
    }
    for (w, b) in net.layer_params() {
        push_f32s(&mut record, w.as_slice());
        push_f32s(&mut record, b);
    }
    push_f32s(&mut record, net.softmax.w.as_slice());
    push_f32s(&mut record, &net.softmax.b);
    if maybe_update("layer_ft_run.bin", &record) {
        return;
    }
    assert_eq!(
        record, FT_GOLDEN,
        "trait-built fine-tune graph diverged from the pre-refactor hand-built run"
    );
}

#[test]
fn pcd_step_reproduces_prerefactor_bytes() {
    // Three passes of PCD over 200 binarized digits in batches of 30: the
    // chain is seeded by the first full batch, and every pass ends on a
    // ragged 20-row batch that advances only the chain's first rows. The
    // record holds the RNG cursor, `w`, `b_vis`, `c_hid` and every
    // per-step reconstruction error.
    let mut ds = digit_data(200, 8, 24);
    ds.binarize(0.5);
    let cfg = RbmConfig::new(64, 25);
    let mut rbm = Rbm::new(cfg, 15);
    let ctx = ExecCtx::native(OptLevel::Improved, 15);
    let mut scratch = RbmScratch::new(&cfg, 30);
    let mut errors = Vec::new();
    for _ in 0..3 {
        for lo in (0..200).step_by(30) {
            let batch = ds.batch(lo, (lo + 30).min(200));
            errors.push(rbm.pcd_step(&ctx, batch, &mut scratch, 0.05));
        }
    }

    let mut record = Vec::new();
    push_rng(&mut record, ctx.rng_state());
    push_f32s(&mut record, rbm.w.as_slice());
    push_f32s(&mut record, &rbm.b_vis);
    push_f32s(&mut record, &rbm.c_hid);
    for e in &errors {
        record.extend_from_slice(&e.to_le_bytes());
    }
    if maybe_update("layer_pcd_run.bin", &record) {
        return;
    }
    assert_eq!(
        record, PCD_GOLDEN,
        "PCD step diverged from the pre-refactor hand-rolled run"
    );
}

#[test]
fn cnn_run_reproduces_prekernel_bytes() {
    // Four SGD steps of the benchmark's CNN (28x28 digits, 8 filters of
    // 5x5, 2x2 pooling, 64 hidden units, batches of 50): its two heavy
    // products are the `28800x8x25` im2col product and the `8x25x28800`
    // filter gradient, so a GEMM change that moves a bit of either moves
    // this record. It holds the RNG cursor, every per-step loss and every
    // parameter tensor, and was recorded before the GEMM grew its depth
    // split, narrow tile and unpacked A.
    let ds = digit_data(200, 28, 25);
    let labels: Vec<usize> = (0..200).map(|i| i % 10).collect();
    let ctx = ExecCtx::native(OptLevel::Improved, 16);
    let mut net = CnnNet::new(CnnConfig::new(28, 8, 5, 2, 64, 10), 16);
    let mut losses = Vec::new();
    for lo in (0..200).step_by(50) {
        let x = ds.batch(lo, lo + 50);
        losses.push(net.train_batch(&ctx, x, &labels[lo..lo + 50], 0.2));
    }

    let mut record = Vec::new();
    push_rng(&mut record, ctx.rng_state());
    for loss in &losses {
        record.extend_from_slice(&loss.to_le_bytes());
    }
    push_f32s(&mut record, net.conv_w.as_slice());
    push_f32s(&mut record, &net.conv_b);
    push_f32s(&mut record, net.dense_w.as_slice());
    push_f32s(&mut record, &net.dense_b);
    push_f32s(&mut record, net.softmax.w.as_slice());
    push_f32s(&mut record, &net.softmax.b);
    if maybe_update("layer_cnn_run.bin", &record) {
        return;
    }
    assert_eq!(
        record, CNN_GOLDEN,
        "CNN run diverged from the record made before the GEMM's CNN paths"
    );
}
