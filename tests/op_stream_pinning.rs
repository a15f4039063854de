//! Pins the analytic (model-only) op streams to recorded executions.
//!
//! The figure harness sweeps paper-scale workloads without executing them,
//! using `micdnn::analytic`'s enumerated op streams. These tests record
//! the actual `OpCost` sequence of executed training steps and require it
//! to equal the enumeration — if the implementations drift apart, every
//! simulated figure would silently stop describing the real code, so this
//! must fail loudly instead.

use micdnn::{
    ae_batch_ops, rbm_cd1_ops, AeConfig, AeScratch, ExecCtx, OptLevel, Rbm, RbmConfig, RbmScratch,
    SparseAutoencoder,
};
use micdnn_kernels::OpCost;
use micdnn_tensor::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn batch(b: usize, v: usize, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    Mat::from_fn(b, v, |_, _| rng.gen_range(0.1..0.9))
}

fn all_levels() -> [OptLevel; 5] {
    [
        OptLevel::Baseline,
        OptLevel::OpenMp,
        OptLevel::OpenMpMkl,
        OptLevel::Improved,
        OptLevel::SequentialBlas,
    ]
}

fn assert_streams_equal(recorded: &[OpCost], analytic: &[OpCost], what: &str) {
    assert_eq!(
        recorded.len(),
        analytic.len(),
        "{what}: op count differs (recorded {}, analytic {})",
        recorded.len(),
        analytic.len()
    );
    for (i, (r, a)) in recorded.iter().zip(analytic).enumerate() {
        assert_eq!(
            r, a,
            "{what}: op {i} differs\nrecorded: {r:?}\nanalytic: {a:?}"
        );
    }
}

#[test]
fn ae_train_batch_stream_matches_analytic() {
    for lvl in all_levels() {
        for (v, h, b) in [(32usize, 16usize, 10usize), (17, 23, 7), (64, 8, 32)] {
            let cfg = AeConfig::new(v, h);
            let mut ae = SparseAutoencoder::new(cfg, 1);
            let ctx = ExecCtx::native(lvl, 2);
            let mut scratch = AeScratch::new(&cfg, b);
            let x = batch(b, v, 3);
            ctx.start_recording();
            ae.train_batch(&ctx, x.view(), &mut scratch, 0.1);
            let recorded = ctx.stop_recording();
            let analytic = ae_batch_ops(v, h, b, lvl.backend());
            assert_streams_equal(&recorded, &analytic, &format!("AE {lvl:?} {v}x{h}x{b}"));
        }
    }
}

#[test]
fn rbm_cd1_stream_matches_analytic() {
    for lvl in all_levels() {
        for (v, h, b) in [(24usize, 12usize, 8usize), (15, 31, 9)] {
            let cfg = RbmConfig::new(v, h);
            let mut rbm = Rbm::new(cfg, 1);
            let ctx = ExecCtx::native(lvl, 2);
            let mut scratch = RbmScratch::new(&cfg, b);
            let mut x = batch(b, v, 3);
            x.map_inplace(|p| if p > 0.5 { 1.0 } else { 0.0 });
            ctx.start_recording();
            rbm.cd_step(&ctx, x.view(), &mut scratch, 0.1);
            let recorded = ctx.stop_recording();
            let analytic = rbm_cd1_ops(v, h, b, lvl.backend());
            assert_streams_equal(&recorded, &analytic, &format!("RBM {lvl:?} {v}x{h}x{b}"));
        }
    }
}

#[test]
fn graph_scheduled_cd1_stream_matches_analytic_in_order() {
    // On a native context `execute` runs the graph in declaration order, so
    // the graph-scheduled step charges the analytic stream op for op.
    let (v, h, b) = (24usize, 12usize, 8usize);
    let cfg = RbmConfig::new(v, h);
    let mut rbm = Rbm::new(cfg, 1);
    let ctx = ExecCtx::native(OptLevel::Improved, 2);
    let mut scratch = RbmScratch::new(&cfg, b);
    let mut x = batch(b, v, 3);
    x.map_inplace(|p| if p > 0.5 { 1.0 } else { 0.0 });
    ctx.start_recording();
    micdnn::cd_step_graph(&mut rbm, &ctx, x.view(), &mut scratch, 0.1);
    let recorded = ctx.stop_recording();
    let analytic = rbm_cd1_ops(v, h, b, OptLevel::Improved.backend());
    assert_streams_equal(&recorded, &analytic, "graph-scheduled CD-1");
}

#[test]
fn priced_execution_equals_estimate_for_matching_config() {
    // Executing a small simulated run must land on exactly the same
    // simulated seconds as the model-only estimate for the same workload
    // (compute only; the trainer's stream adds transfer).
    use micdnn::train::{train_dataset, AeModel, TrainConfig};
    use micdnn::{estimate, Algo, Workload};
    use micdnn_data::Dataset;
    use micdnn_sim::{Link, Platform};

    let (v, h, b) = (32usize, 24usize, 20usize);
    // Aligned (every chunk a whole number of batches), then a geometry
    // where the chunk boundary cuts a batch short and the last chunk is
    // short; each with and without the double buffer.
    for (examples, chunk_rows, double_buffered) in [
        (120usize, 60usize, true),
        (120, 60, false),
        (130, 70, true),
        (130, 70, false),
    ] {
        let w = Workload {
            algo: Algo::Autoencoder,
            n_visible: v,
            n_hidden: h,
            examples,
            batch: b,
            chunk_rows,
            passes: 1,
        };
        let link = Link {
            latency_s: 0.5e-3,
            wire_gbs: 0.5,
            host_pipeline_gbs: 0.5,
        };
        let phi = Platform::xeon_phi();
        let est = estimate(OptLevel::Improved, phi, link, double_buffered, &w);

        let cfg = AeConfig::new(v, h);
        let mut model = AeModel::new(SparseAutoencoder::new(cfg, 1));
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 2);
        let ds = Dataset::new(batch(examples, v, 3));
        let tc = TrainConfig {
            batch_size: b,
            chunk_rows,
            double_buffered,
            link,
            ..TrainConfig::default()
        };
        let report = train_dataset(&mut model, &ctx, &ds, &tc, 1).unwrap();

        // The executed clock rounds each op to integer picoseconds; the
        // estimate is pure f64 — allow that rounding headroom and nothing more.
        let rel = (report.sim_total_secs - est.total_secs).abs() / est.total_secs;
        assert!(
            rel < 1e-6,
            "estimate {} vs executed {} (rel {rel})",
            est.total_secs,
            report.sim_total_secs
        );
        assert!((report.stream.transfer_secs - est.transfer_secs).abs() < 1e-9);
        assert!((report.stream.stall_secs - est.stall_secs).abs() < 1e-6);
    }
}
