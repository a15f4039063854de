//! Pins the declared op streams of the shipped step graphs to executed
//! ones.
//!
//! The figure harness sweeps paper-scale workloads without executing them:
//! `micdnn::estimate` prices the op costs a step graph's nodes declare
//! (`TaskGraph::declared_ops`). On a node's first run under the verifier its
//! charged stream must equal its declaration, so these tests run every
//! shipped graph under `ExecCtx::with_verify` — in release builds too — and
//! require whole executed steps and runs to land on the declared streams and
//! the estimate. If the two drift apart every simulated figure would
//! silently stop describing the real code, so this must fail loudly instead.

use micdnn::cd_graph::{build_cd_graph, build_pcd_graph};
use micdnn::train::{RbmModel, TrainConfig, UnsupervisedModel};
use micdnn::{
    ae_step_graph, build_ae_graph, cd_step_graph, AeConfig, AeScratch, AeUpdate, CnnConfig, CnnNet,
    DataParallelAe, DataParallelRbm, ExecCtx, FineTuneNet, MultiDevConfig, OptLevel, Optimizer,
    Rbm, RbmConfig, RbmScratch, Rule, Schedule, SparseAutoencoder, StackedAutoencoder,
};
use micdnn_data::Dataset;
use micdnn_kernels::GEMM_KC;
use micdnn_sim::Platform;
use micdnn_tensor::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn batch(b: usize, v: usize, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    Mat::from_fn(b, v, |_, _| rng.gen_range(0.1..0.9))
}

fn binary_batch(b: usize, v: usize, seed: u64) -> Mat {
    let mut x = batch(b, v, seed);
    x.map_inplace(|p| if p > 0.5 { 1.0 } else { 0.0 });
    x
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

/// A native context whose graphs check each node's charged ops against its
/// declaration on the node's first run, in any build profile.
fn verifying(lvl: OptLevel) -> ExecCtx {
    ExecCtx::native(lvl, 2).with_verify()
}

#[test]
fn ae_steps_charge_their_graphs_declared_streams() {
    // The updating forms of the AE step: plain SGD (fused within one
    // k-slab, its gradients held one row past it, and a ragged batch of a
    // larger scratch) and an optimizer per rule. The gradient-only form is
    // crate-internal; `ae_graph`'s unit tests check it.
    let rules = [
        Rule::Sgd,
        Rule::Momentum { mu: 0.9 },
        Rule::AdaGrad { eps: 1e-8 },
    ];
    for lvl in all_levels() {
        let be = lvl.backend();
        for (v, h, cap, b) in [
            (32usize, 16usize, 10usize, 10usize),
            (17, 23, 7, 7),
            (9, 4, GEMM_KC + 1, GEMM_KC + 1),
            (12, 5, 16, 11),
        ] {
            let cfg = AeConfig::new(v, h);
            let x = batch(b, v, 3);
            let what = format!("AE {lvl:?} {v}x{h} cap {cap} rows {b}");
            let ctx = verifying(lvl);

            let mut ae = SparseAutoencoder::new(cfg, 1);
            let mut scratch = AeScratch::new(&cfg, cap);
            ctx.start_recording();
            ae.train_batch(&ctx, x.view(), &mut scratch, 0.1);
            let want = build_ae_graph(v, h, cap, AeUpdate::Sgd).declared_ops(&be, b);
            assert_eq!(ctx.stop_recording(), want, "{what} SGD");

            for rule in rules {
                let slots = SparseAutoencoder::optimizer_slots(&cfg);
                let mut opt = Optimizer::new(rule, Schedule::Constant(0.1), &slots);
                let mut scratch = AeScratch::new(&cfg, cap);
                ctx.start_recording();
                ae_step_graph(&mut ae, &ctx, x.view(), &mut scratch, 0.0, Some(&mut opt));
                let want = build_ae_graph(v, h, cap, AeUpdate::Opt(rule)).declared_ops(&be, b);
                assert_eq!(ctx.stop_recording(), want, "{what} {rule:?}");
            }
        }
    }
}

#[test]
fn forward_passes_charge_the_hand_written_streams() {
    // `encode` and both `reconstruction_error`s run step nodes over the
    // model borrowed shared; each charges what its hand-written body did:
    // `encode` gemm(b, h, v) then bias_sigmoid(b·h), and a reconstruction
    // error adds gemm(b, v, h), bias_sigmoid(b·v) and reduce(b, v).
    for lvl in all_levels() {
        let be = lvl.backend();
        for (v, h, cap, b) in [(32usize, 16usize, 10usize, 10usize), (17, 23, 9, 7)] {
            let encode = vec![be.gemm_cost(b, h, v), be.bias_sigmoid_cost(b * h)];
            let mut recon = encode.clone();
            recon.extend([
                be.gemm_cost(b, v, h),
                be.bias_sigmoid_cost(b * v),
                be.reduce_cost(b, v),
            ]);
            let what = format!("{lvl:?} {v}x{h} cap {cap} rows {b}");
            let (ctx, x) = (verifying(lvl), batch(b, v, 4));

            let cfg = AeConfig::new(v, h);
            let mut ae = SparseAutoencoder::new(cfg, 1);
            ctx.start_recording();
            ae.encode(&ctx, x.view());
            assert_eq!(ctx.stop_recording(), encode, "{what} encode");
            // A fresh scratch prepares the gradient-only graph; after a step
            // it keeps the SGD graph.
            let mut scratch = AeScratch::new(&cfg, cap);
            for kept in ["gradient-only", "SGD"] {
                ctx.start_recording();
                ae.reconstruction_error(&ctx, x.view(), &mut scratch);
                assert_eq!(ctx.stop_recording(), recon, "{what} AE on the {kept} graph");
                ae.train_batch(&ctx, x.view(), &mut scratch, 0.1);
            }

            let cfg = RbmConfig::new(v, h);
            let mut scratch = RbmScratch::new(&cfg, cap);
            ctx.start_recording();
            let x = binary_batch(b, v, 5);
            Rbm::new(cfg, 1).reconstruction_error(&ctx, x.view(), &mut scratch);
            assert_eq!(ctx.stop_recording(), recon, "{what} RBM");
        }
    }
}

/// The CD geometries pinned below: equal capacity and rows, and a ragged
/// batch of a larger scratch.
const CD_SHAPES: [(usize, usize, usize, usize); 3] =
    [(24, 12, 8, 8), (15, 31, 9, 9), (10, 6, 12, 5)];

#[test]
fn rbm_cd1_stream_matches_analytic() {
    // `estimate` prices the CD graph's declared stream, so the executed
    // step must charge exactly that stream (CD-1, and CD-2 alongside).
    for lvl in all_levels() {
        let be = lvl.backend();
        for (v, h, cap, b) in CD_SHAPES {
            let x = binary_batch(b, v, 3);
            let ctx = verifying(lvl);
            for k in [1, 2] {
                let mut cfg = RbmConfig::new(v, h);
                cfg.cd_steps = k;
                let mut rbm = Rbm::new(cfg, 1);
                let mut scratch = RbmScratch::new(&cfg, cap);
                ctx.start_recording();
                rbm.cd_step(&ctx, x.view(), &mut scratch, 0.1);
                let want = build_cd_graph(v, h, cap, k).declared_ops(&be, b);
                assert_eq!(
                    ctx.stop_recording(),
                    want,
                    "RBM {lvl:?} {v}x{h} cap {cap} rows {b} CD-{k}"
                );
            }
        }
    }
}

#[test]
fn graph_scheduled_cd1_stream_matches_analytic_in_order() {
    // On a native context `execute` runs the graph in declaration order, so
    // the graph-scheduled step charges the declared stream op for op.
    for lvl in all_levels() {
        let be = lvl.backend();
        for (v, h, cap, b) in CD_SHAPES {
            let x = binary_batch(b, v, 3);
            let ctx = verifying(lvl);
            for k in [1, 2] {
                let mut cfg = RbmConfig::new(v, h);
                cfg.cd_steps = k;
                let mut rbm = Rbm::new(cfg, 1);
                let mut scratch = RbmScratch::new(&cfg, cap);
                ctx.start_recording();
                cd_step_graph(&mut rbm, &ctx, x.view(), &mut scratch, 0.1);
                let want = build_cd_graph(v, h, cap, k).declared_ops(&be, b);
                assert_eq!(
                    ctx.stop_recording(),
                    want,
                    "RBM {lvl:?} {v}x{h} cap {cap} rows {b} CD-{k} scheduled"
                );
            }
        }
    }
}

#[test]
fn pcd_step_charges_its_graphs_declared_stream() {
    for lvl in all_levels() {
        let be = lvl.backend();
        for (v, h, cap, b) in CD_SHAPES {
            let x = binary_batch(b, v, 3);
            let ctx = verifying(lvl);
            let cfg = RbmConfig::new(v, h);
            let mut rbm = Rbm::new(cfg, 1);
            let mut scratch = RbmScratch::new(&cfg, cap);
            ctx.start_recording();
            rbm.pcd_step(&ctx, x.view(), &mut scratch, 0.1);
            let want = build_pcd_graph(v, h, cap).declared_ops(&be, b);
            assert_eq!(
                ctx.stop_recording(),
                want,
                "RBM {lvl:?} {v}x{h} cap {cap} rows {b} PCD"
            );
        }
    }
}

#[test]
fn block_labeled_and_pipeline_graphs_charge_their_declarations() {
    // Each run below checks every node of the graphs it runs against its
    // declaration: the block forms of a data-parallel step, the labeled
    // nets' steps and forward graphs, and the stacked pipeline, whose
    // `train` nodes run an inner step graph per batch.
    for lvl in all_levels() {
        let ctx = verifying(lvl);
        let x = batch(12, 16, 5);
        let labels: Vec<usize> = (0..12).map(|i| i % 4).collect();
        let devices = MultiDevConfig::new(2).with_blocks(3);
        let ae = SparseAutoencoder::new(AeConfig::new(16, 6), 1);
        let mut ae = DataParallelAe::new(ae, devices.clone());
        ae.prepare(12);
        ae.train_batch(&ctx, x.view(), 0.1);
        let rbm = Rbm::new(RbmConfig::new(16, 6), 1);
        let mut rbm = DataParallelRbm::new(rbm, devices);
        rbm.prepare(12);
        rbm.train_batch(&ctx, binary_batch(12, 16, 6).view(), 0.1);

        let mut stack = StackedAutoencoder::with_default_config(&[16, 8, 4], 7);
        let data = Dataset::new(batch(30, 16, 8));
        let tc = TrainConfig {
            batch_size: 4,
            chunk_rows: 10,
            ..TrainConfig::default()
        };
        let sim = ExecCtx::simulated(lvl, Platform::xeon_phi(), 3).with_verify();
        stack.pretrain_pipelined(&sim, &data, &tc, 2);

        let mut net = FineTuneNet::from_stack(&stack, 4, 9);
        net.train_batch(&ctx, x.view(), &labels, 0.1);
        net.predict_proba(&ctx, x.view());
        let mut cnn = CnnNet::new(CnnConfig::new(8, 3, 3, 2, 10, 4), 10);
        let images = batch(5, 64, 11);
        cnn.train_batch(&ctx, images.view(), &labels[..5], 0.1);
        cnn.predict_proba(&ctx, images.view());
    }
}

#[test]
fn priced_rbm_execution_equals_estimate() {
    // The RBM counterpart of the AE case below: an executed CD-1 run lands
    // on the estimate priced from the CD graph's declarations, a short
    // trailing batch and chunk included.
    use micdnn::train::train_dataset;
    use micdnn::{estimate, Algo, Workload};
    use micdnn_sim::Link;

    let (v, h, b) = (32usize, 24usize, 20usize);
    for (examples, chunk_rows, double_buffered) in [(120usize, 60usize, true), (130, 70, false)] {
        let w = Workload {
            algo: Algo::Rbm,
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
        let est = estimate(
            OptLevel::Improved,
            Platform::xeon_phi(),
            link,
            double_buffered,
            &w,
        );

        let mut model = RbmModel::new(Rbm::new(RbmConfig::new(v, h), 1));
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 2);
        let ds = Dataset::new(binary_batch(examples, v, 3));
        let tc = TrainConfig {
            batch_size: b,
            chunk_rows,
            double_buffered,
            link,
            ..TrainConfig::default()
        };
        let report = train_dataset(&mut model, &ctx, &ds, &tc, 1).unwrap();
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
