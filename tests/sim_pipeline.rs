//! Integration tests of the simulated offload pipeline: platform
//! comparisons, transfer overlap, device-memory limits, and trace
//! accounting — the machinery every reproduced figure rests on.

use micdnn::train::{train_dataset, train_stream, AeModel, TrainConfig, TrainError};
use micdnn::{estimate, AeConfig, Algo, ExecCtx, OptLevel, SparseAutoencoder, Workload};
use micdnn_data::{Dataset, GeneratorSource};
use micdnn_sim::{EventKind, Link, Platform};
use micdnn_tensor::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn data(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::new(Mat::from_fn(n, dim, |_, _| rng.gen_range(0.1..0.9)))
}

#[test]
fn ladder_ordering_holds_under_execution() {
    // Execute (not just model) a small training run at every rung on the
    // simulated Phi: each rung must be at least as fast as the previous.
    let ds = data(200, 48, 1);
    let cfg = AeConfig::new(48, 32);
    let tc = TrainConfig {
        batch_size: 50,
        chunk_rows: 100,
        ..TrainConfig::default()
    };
    let mut last = f64::INFINITY;
    for lvl in OptLevel::ladder() {
        let mut model = AeModel::new(SparseAutoencoder::new(cfg, 2));
        let ctx = ExecCtx::simulated(lvl, Platform::xeon_phi(), 3);
        let report = train_dataset(&mut model, &ctx, &ds, &tc, 2).unwrap();
        assert!(
            report.sim_total_secs <= last,
            "{lvl:?} slower than previous rung: {} > {last}",
            report.sim_total_secs
        );
        last = report.sim_total_secs;
    }
}

#[test]
fn phi_beats_cpu_single_core_in_executed_sim() {
    let ds = data(300, 64, 4);
    let cfg = AeConfig::new(64, 128);
    let tc = TrainConfig {
        batch_size: 100,
        chunk_rows: 300,
        ..TrainConfig::default()
    };
    let run = |platform: Platform, lvl: OptLevel| {
        let mut model = AeModel::new(SparseAutoencoder::new(cfg, 5));
        let ctx = ExecCtx::simulated(lvl, platform, 6);
        train_dataset(&mut model, &ctx, &ds, &tc, 1)
            .unwrap()
            .sim_total_secs
    };
    let phi = run(Platform::xeon_phi(), OptLevel::Improved);
    let cpu = run(Platform::cpu_single_core(), OptLevel::Improved);
    assert!(phi < cpu, "phi {phi} not faster than single core {cpu}");
}

#[test]
fn double_buffering_hides_transfer_in_executed_run() {
    // Slow link + nontrivial compute: the double-buffered run must be
    // faster and report hidden transfer.
    let dim = 96;
    let chunk_rows = 100;
    let make_source = || {
        GeneratorSource::new(
            move |i| data(chunk_rows, dim, 100 + i as u64).into_matrix(),
            chunk_rows,
            8,
        )
    };
    let cfg = AeConfig::new(dim, 1024);
    let slow_link = Link {
        latency_s: 0.0,
        wire_gbs: 0.005, // ~7.7 ms per 38 KB chunk: just under compute
        host_pipeline_gbs: 0.005,
    };
    let run = |double_buffered: bool| {
        let mut model = AeModel::new(SparseAutoencoder::new(cfg, 7));
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 8);
        let tc = TrainConfig {
            batch_size: 25,
            chunk_rows,
            double_buffered,
            link: slow_link,
            ..TrainConfig::default()
        };
        train_stream(&mut model, &ctx, make_source(), &tc).unwrap()
    };
    let buffered = run(true);
    let naive = run(false);
    assert!(
        buffered.sim_total_secs < naive.sim_total_secs,
        "double buffering did not help: {} vs {}",
        buffered.sim_total_secs,
        naive.sim_total_secs
    );
    assert!(buffered.stream.hidden_fraction() > 0.3);
    assert_eq!(naive.stream.hidden_fraction(), 0.0);
}

#[test]
fn trace_accounts_for_compute_and_transfer() {
    let ds = data(120, 32, 9);
    let cfg = AeConfig::new(32, 16);
    let mut model = AeModel::new(SparseAutoencoder::new(cfg, 10));
    let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 11).with_trace();
    let tc = TrainConfig {
        batch_size: 40,
        chunk_rows: 60,
        ..TrainConfig::default()
    };
    let report = train_dataset(&mut model, &ctx, &ds, &tc, 1).unwrap();
    let trace = ctx.trace();
    assert!(!trace.is_empty());
    let compute = trace.total_compute();
    let stall = trace.total(EventKind::Stall);
    // Compute + exposed stalls must equal the clock.
    let accounted = compute + stall;
    let rel = (accounted - report.sim_total_secs).abs() / report.sim_total_secs;
    assert!(
        rel < 1e-6,
        "trace accounts for {accounted} of {} simulated seconds",
        report.sim_total_secs
    );
    assert!(trace.total(EventKind::Transfer) > 0.0);
}

#[test]
fn paper_scale_fig8_point_respects_device_memory() {
    // The largest Fig. 8 workload (1M x 1024 streamed in 10k chunks) must
    // fit the 8 GB card with double buffering: 2 chunks of 41 MB + model.
    let w = Workload {
        algo: Algo::Autoencoder,
        n_visible: 1024,
        n_hidden: 4096,
        examples: 1_000_000,
        batch: 1000,
        chunk_rows: 10_000,
        passes: 1,
    };
    let chunk_bytes = w.chunk_bytes();
    let cfg = AeConfig::new(w.n_visible, w.n_hidden);
    let resident = cfg.param_bytes() * 2 + 2 * chunk_bytes;
    assert!(
        resident < 8 << 30,
        "paper workload would not fit the card: {resident} bytes"
    );
    // And the estimate is finite and positive.
    let e = estimate(
        OptLevel::Improved,
        Platform::xeon_phi(),
        Link::pcie_gen2(),
        true,
        &w,
    );
    assert!(e.total_secs.is_finite() && e.total_secs > 0.0);
}

#[test]
fn oom_reported_not_panicked() {
    let mut platform = Platform::xeon_phi();
    platform.spec.mem_capacity_bytes = 100_000; // 100 KB card
    let ds = data(100, 64, 12);
    let cfg = AeConfig::new(64, 64);
    let mut model = AeModel::new(SparseAutoencoder::new(cfg, 13));
    let ctx = ExecCtx::simulated(OptLevel::Improved, platform, 14);
    let err = train_dataset(&mut model, &ctx, &ds, &TrainConfig::default(), 1).unwrap_err();
    match err {
        TrainError::DeviceMemory(e) => {
            assert!(e.available <= 100_000);
            assert!(!e.to_string().is_empty());
        }
        other => panic!("expected DeviceMemory, got {other:?}"),
    }
}

#[test]
fn thirty_vs_sixty_cores_scales_executed_runs() {
    // Needs matrices big enough that GEMM (which scales with cores)
    // dominates barrier costs (which barely change between 30 and 60).
    let ds = data(400, 512, 15);
    let cfg = AeConfig::new(512, 1024);
    let tc = TrainConfig {
        batch_size: 200,
        chunk_rows: 400,
        ..TrainConfig::default()
    };
    let run = |cores: u32| {
        let mut model = AeModel::new(SparseAutoencoder::new(cfg, 16));
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi_cores(cores), 17);
        train_dataset(&mut model, &ctx, &ds, &tc, 1)
            .unwrap()
            .sim_total_secs
    };
    let t60 = run(60);
    let t30 = run(30);
    let ratio = t30 / t60;
    assert!(
        ratio > 1.3 && ratio < 2.2,
        "30-core run should be ~1.5-2x slower, got {ratio}"
    );
}
