//! Per-layer probes: timed calls into single layers at the workloads' own
//! shapes. Each probe warms up, takes its samples and reports the median
//! with the sample count. Rates in GB/s use bytes computed from the array
//! sizes (cache misses are not counted); simulated-clock values are exact.

use crate::api::*;
use crate::scratch::ScratchDir;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{digits, drive_by_hand, AeWide, CnnCkpt, DigitsPipeline, Env, RbmSmallWave};
use std::hint::black_box;
use std::time::Instant;

/// One per-layer value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Collector the probes and the traced run write into.
#[derive(Debug, Default)]
pub struct Layers {
    pub values: Vec<Measured>,
}

impl Layers {
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            self.get(name).is_none(),
            "per-layer metric `{name}` reported twice"
        );
        self.values.push(Measured {
            name,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Sample counts: at least 15 for anything cheaper than ~50 ms a call,
/// fewer for the probes whose single call costs a large share of a second.
struct Counts {
    fast: usize,
    slow: usize,
}

impl Counts {
    fn of(env: &Env) -> Counts {
        Counts {
            fast: env.pick(15, 3),
            slow: env.pick(3, 2),
        }
    }
}

/// Seconds per call: `samples` samples, each the mean of `inner` calls,
/// after two untimed warm-up rounds.
fn time(samples: usize, inner: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..2 * inner.min(4) {
        f();
    }
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            t.elapsed().as_secs_f64() / inner as f64
        })
        .collect()
}

fn ramp(rows: usize, cols: usize) -> Mat {
    Mat::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 7) % 17) as f32 / 17.0 - 0.5
    })
}

/// Seconds per call of `C = op(A) op(B)` on `backend`, one per sample.
fn gemm_samples(
    backend: Backend,
    a: &Mat,
    ta: bool,
    b: &Mat,
    tb: bool,
    samples: usize,
) -> Vec<f64> {
    let m = if ta { a.cols() } else { a.rows() };
    let n = if tb { b.rows() } else { b.cols() };
    let mut c = Mat::zeros(m, n);
    // Enough calls per sample that a microsecond-sized product is timed
    // over about a millisecond.
    let k = if ta { a.rows() } else { a.cols() };
    let inner = ((1usize << 22) / (m * n * k).max(1)).clamp(1, 200);
    time(samples, inner, || {
        backend.gemm(1.0, a.view(), ta, b.view(), tb, 0.0, &mut c.view_mut());
        black_box(c.as_slice());
    })
}

/// Median seconds of `C = op(A) op(B)` on `backend`.
fn gemm_secs(backend: Backend, a: &Mat, ta: bool, b: &Mat, tb: bool, samples: usize) -> f64 {
    median(&gemm_samples(backend, a, ta, b, tb, samples))
}

fn gflops(m: usize, n: usize, k: usize, secs: f64) -> f64 {
    2.0 * (m * n * k) as f64 / secs / 1e9
}

fn gbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

const F32: usize = std::mem::size_of::<f32>();

/// Returns the best-case parallel speed-up of the `ae_wide` forward GEMM
/// (fastest sequential sample over fastest parallel sample) for the gate:
/// a busy neighbour slows the median of a two-thread product below the
/// sequential one, but it cannot make the fastest sample faster.
pub fn kernels(env: &Env, out: &mut Layers) -> f64 {
    let n = Counts::of(env).fast;
    let fast = Backend::improved();
    let seq = OptLevel::SequentialBlas.backend();
    let (b, v, h) = (200, 1024, AeWide::hidden(env));

    // The three GEMMs of one ae_wide layer.
    let (x, w, hid) = (ramp(b, v), ramp(h, v), ramp(b, h));
    let fwd_samples = gemm_samples(fast, &x, false, &w, true, n);
    let fwd = median(&fwd_samples);
    out.put("kernels.gemm.ae_wide_fwd_gflops", gflops(b, h, v, fwd), n);
    let bwd_data = gemm_secs(fast, &hid, false, &w, false, n);
    out.put(
        "kernels.gemm.ae_wide_bwd_data_gflops",
        gflops(b, v, h, bwd_data),
        n,
    );
    let bwd_weight = gemm_secs(fast, &hid, true, &x, false, n);
    out.put(
        "kernels.gemm.ae_wide_bwd_weight_gflops",
        gflops(h, v, b, bwd_weight),
        n,
    );
    let seq_samples = gemm_samples(seq, &x, false, &w, true, n);
    let fwd_seq = median(&seq_samples);
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let best_speedup = fastest(&seq_samples) / fastest(&fwd_samples);
    out.put("kernels.gemm.par_speedup", fwd_seq / fwd, n);

    // Elementwise, reduction and sampling at ae_wide's activation size.
    let mut act = ramp(b, h);
    let bias = vec![0.01f32; h];
    let t = median(&time(n, 1, || {
        fast.bias_sigmoid_rows(&bias, &mut act.view_mut());
    }));
    out.put(
        "kernels.fused.bias_sigmoid_gbps",
        gbps(2 * F32 * b * h, t),
        n,
    );
    let (grad, mut weights) = (ramp(h, v), ramp(h, v));
    let t = median(&time(n, 1, || {
        fast.sgd_step(0.01, 1e-4, grad.as_slice(), weights.as_mut_slice());
    }));
    out.put("kernels.fused.sgd_step_gbps", gbps(3 * F32 * h * v, t), n);
    let mut means = vec![0.0f32; h];
    let t = median(&time(n, 1, || {
        fast.colmean(act.view(), &mut means);
    }));
    out.put("kernels.reduce.colmean_gbps", gbps(F32 * b * h, t), n);
    let probs = vec![0.5f32; b * h];
    let mut drawn = vec![0.0f32; b * h];
    let mut stream = 0u64;
    let t = median(&time(n, 1, || {
        stream += 1;
        fast.bernoulli(env.seed, StreamId(stream), &probs, &mut drawn);
    }));
    out.put(
        "kernels.rng.bernoulli_melems_per_s",
        (b * h) as f64 / t / 1e6,
        n,
    );

    // The same kinds at rbm_small_wave's sizes, where a call is about a
    // microsecond and the fixed cost of a call is what is measured.
    let (sb, sv, sh) = (
        RbmSmallWave::BATCH,
        RbmSmallWave::VISIBLE,
        RbmSmallWave::HIDDEN,
    );
    let (sx, sw) = (ramp(sb, sv), ramp(sh, sv));
    let t = gemm_secs(fast, &sx, false, &sw, true, n);
    out.put("kernels.gemm.rbm_small_gflops", gflops(sb, sh, sv, t), n);
    let mut small_act = ramp(sb, sh);
    let t = median(&time(n, 200, || {
        fast.bias_sigmoid_rows(&bias[..sh], &mut small_act.view_mut());
    }));
    out.put("kernels.fused.bias_sigmoid_small_us", t * 1e6, n);
    let (pos, neg, mut small_w) = (ramp(sh, sv), ramp(sv, sh), ramp(sh, sv));
    let t = median(&time(n, 200, || {
        fast.cd_update(0.1, pos.as_slice(), neg.as_slice(), small_w.as_mut_slice());
    }));
    out.put("kernels.fused.cd_update_small_us", t * 1e6, n);
    let mut small_drawn = vec![0.0f32; sb * sh];
    let t = median(&time(n, 200, || {
        stream += 1;
        fast.bernoulli(
            env.seed,
            StreamId(stream),
            &probs[..sb * sh],
            &mut small_drawn,
        );
    }));
    out.put("kernels.rng.bernoulli_small_us", t * 1e6, n);

    // cnn_ckpt: 50 images of 28x28, 5x5 kernels, 8 channels, 2x2 pooling.
    let cfg = CnnCkpt::config();
    let (cb, side, k, ch) = (CnnCkpt::BATCH, cfg.side, cfg.kernel, cfg.channels);
    let (o, patch) = (cfg.conv_side(), k * k);
    let images = ramp(cb, side * side);
    let filters = ramp(ch, patch);
    let mut col = Mat::zeros(cb * o * o, patch);
    let t_im2col = median(&time(n, 1, || {
        im2col(
            Par::Rayon,
            images.as_slice(),
            cb,
            side,
            k,
            col.as_mut_slice(),
        );
    }));
    let moved = F32 * (images.len() + col.len());
    out.put("kernels.conv.im2col_gbps", gbps(moved, t_im2col), n);
    let t_gemm = gemm_secs(fast, &col, false, &filters, true, n);
    out.put(
        "kernels.gemm.im2col_gflops",
        gflops(cb * o * o, ch, patch, t_gemm),
        n,
    );
    let mut conv = Mat::zeros(cb * o * o, ch);
    let t_direct = median(&time(n, 1, || {
        conv2d_direct(
            Par::Rayon,
            images.as_slice(),
            cb,
            side,
            k,
            filters.as_slice(),
            ch,
            conv.as_mut_slice(),
        );
    }));
    out.put(
        "kernels.conv.direct_over_im2col",
        t_direct / (t_im2col + t_gemm),
        n,
    );
    let pooled_len = cb * cfg.pooled_dim();
    let (mut pooled, mut argmax) = (vec![0.0f32; pooled_len], vec![0.0f32; pooled_len]);
    let t = median(&time(n, 1, || {
        maxpool2d_forward(
            Par::Rayon,
            conv.as_slice(),
            cb,
            o,
            ch,
            cfg.pool,
            &mut pooled,
            &mut argmax,
        );
    }));
    let moved = F32 * (conv.len() + 2 * pooled_len);
    out.put("kernels.conv.maxpool_fwd_gbps", gbps(moved, t), n);
    let mut dconv = vec![0.0f32; conv.len()];
    let t = median(&time(n, 1, || {
        maxpool2d_backward(
            Par::Rayon,
            &pooled,
            &argmax,
            cb,
            o,
            ch,
            cfg.pool,
            &mut dconv,
        );
    }));
    out.put("kernels.conv.maxpool_bwd_gbps", gbps(moved, t), n);

    // digits_pipeline: one forward-only micro-batch through the first layer.
    let (rb, rv, rh) = (DigitsPipeline::SERVE_BATCH, 784, 256);
    let t = gemm_secs(fast, &ramp(rb, rv), false, &ramp(rh, rv), true, n);
    out.put("kernels.gemm.serve_fwd_gflops", gflops(rb, rh, rv, t), n);

    // Sequential blocked against the scalar triple loop: a ratio that does
    // not depend on the core count, used as a gate.
    let side = env.pick(256, 128);
    let (a, bm) = (ramp(side, side), ramp(side, side));
    let blocked = gemm_secs(seq, &a, false, &bm, false, n);
    let mut c = Mat::zeros(side, side);
    let naive = median(&time(n, 1, || {
        gemm_ref(
            1.0,
            a.view(),
            false,
            bm.view(),
            false,
            0.0,
            &mut c.view_mut(),
        );
    }));
    out.put("kernels.gemm.blocked_over_naive", naive / blocked, n);
    best_speedup
}

pub fn fork_join(env: &Env, out: &mut Layers) {
    let n = Counts::of(env).fast;
    let t = median(&time(n, 200, || {
        black_box(join(|| (), || ()));
    }));
    out.put("rayon.join_empty_us", t * 1e6, n);
    let width = current_num_threads();
    let t = median(&time(n, 200, || {
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..width)
            .map(|_| Box::new(|| ()) as Box<dyn FnOnce() + Send>)
            .collect();
        run_tasks(tasks);
    }));
    out.put("rayon.run_tasks_empty_us", t * 1e6, n);
}

pub fn graph(env: &Env, rbm_data: &Dataset, out: &mut Layers) {
    let counts = Counts::of(env);
    let n = counts.fast;
    let ctx = ExecCtx::native(OptLevel::Improved, env.seed);
    let cfg = RbmConfig::new(RbmSmallWave::VISIBLE, RbmSmallWave::HIDDEN);
    let x = rbm_data.batch(0, RbmSmallWave::BATCH);
    let mut rbm = Rbm::new(cfg, env.seed);
    let mut scratch = RbmScratch::new(&cfg, RbmSmallWave::BATCH);
    let serial = median(&time(n, 50, || {
        black_box(rbm.cd_step(&ctx, x, &mut scratch, 0.1));
    }));
    let wave = median(&time(n, 50, || {
        black_box(cd_step_graph(&mut rbm, &ctx, x, &mut scratch, 0.1).0);
    }));
    out.put("graph.cd1_small_serial_step_us", serial * 1e6, n);
    out.put("graph.cd1_small_wave_step_us", wave * 1e6, n);
    out.put("graph.cd1_small_wave_over_serial", wave / serial, n);
    let t = median(&time(n, 50, || {
        let g = build_cd_graph(cfg.n_visible, cfg.n_hidden, RbmSmallWave::BATCH, 1);
        black_box(g.plan().peak_elems());
    }));
    out.put("graph.cd1_build_plan_us", t * 1e6, n);

    // ae_wide: every node saturates the pool by itself, so running
    // independent nodes side by side should buy nothing (ratio near 1).
    let n = counts.slow;
    let ae_cfg = AeConfig::new(1024, AeWide::hidden(env));
    let batch = ramp(200, 1024).map(|v| v + 0.5);
    let mut ae = SparseAutoencoder::new(ae_cfg, env.seed);
    let mut ae_scratch = AeScratch::new(&ae_cfg, 200);
    let (mut serial, mut wave) = (Vec::new(), Vec::new());
    ae.train_batch(&ctx, batch.view(), &mut ae_scratch, 0.1);
    for _ in 0..n {
        let t = Instant::now();
        ae.train_batch(&ctx, batch.view(), &mut ae_scratch, 0.1);
        serial.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        ae_step_graph(&mut ae, &ctx, batch.view(), &mut ae_scratch, 0.1, None);
        wave.push(t.elapsed().as_secs_f64());
    }
    out.put(
        "graph.ae_wide_wave_over_serial",
        median(&wave) / median(&serial),
        n,
    );
}

/// `train_dataset`'s wall time against the sum of the step spans of the
/// same passes driven by hand (no profiler attached): what the loop itself
/// costs around the steps (chunk cloning, loader hand-off, history).
pub fn train_loop(env: &Env, rbm: &RbmSmallWave, out: &mut Layers) {
    let n = Counts::of(env).slow;
    let (data, tc, passes) = (rbm.data(), rbm.train_config(), env.pick(2, 1));
    let ctx = ExecCtx::native(OptLevel::Improved, env.seed);
    let shares: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            train_dataset(&mut rbm.model(), &ctx, data, tc, passes).expect("training runs");
            let library = t.elapsed().as_secs_f64();
            let mut tr = Tracer::new();
            drive_by_hand(&mut rbm.model(), &ctx, data, tc, passes, &mut tr);
            (library - tr.total_secs("step")) / library
        })
        .collect();
    out.put("train.loop_overhead_share", median(&shares), n);
}

pub fn data(env: &Env, out: &mut Layers) {
    let n = Counts::of(env).fast;
    let rows = env.pick(1000, 100);
    let t = median(&time(n, 1, || {
        black_box(DigitGenerator::new(28, env.seed).matrix(rows));
    }));
    out.put("data.digits_rows_per_s", rows as f64 / t, n);
    let raw = DigitGenerator::new(28, env.seed).matrix(env.pick(3000, 300));
    let t = median(&time(n, 1, || {
        let mut d = Dataset::new(raw.clone());
        black_box(d.normalize());
    }));
    // Computed traffic: the clone, two reading passes, one read-write pass.
    out.put("data.normalize_gbps", gbps(6 * F32 * raw.len(), t), n);
}

pub fn persistence(env: &Env, out: &mut Layers) {
    let counts = Counts::of(env);
    let dir = ScratchDir::new(&env.out, "probe-ckpt", 0).expect("scratch dir");
    let progress = TrainProgress::default();

    let cnn = CnnCkpt::model(CnnCkpt::config(), env.seed, 6000);
    let file = dir.path().join("cnn.mic");
    let n = counts.fast;
    let t = median(&time(n, 1, || {
        save_checkpoint_file(&file, &cnn, env.seed, 0, &progress).expect("checkpoint writes");
    }));
    out.put("ckpt.cnn_save_ms_p50", t * 1e3, n);
    let bytes = std::fs::metadata(&file).expect("checkpoint exists").len();
    out.put("ckpt.cnn_bytes", bytes as f64, 1);

    let ae = SparseAutoencoder::new(AeConfig::new(1024, AeWide::hidden(env)), env.seed);
    let file = dir.path().join("ae_wide.bin");
    let n = counts.slow;
    let save = median(&time(n, 1, || {
        save_autoencoder_file(&ae, &file).expect("model saves");
    }));
    let mb = std::fs::metadata(&file).expect("model exists").len() as f64 / 1e6;
    out.put("ckpt.ae_wide_save_mb_per_s", mb / save, n);
    let load = median(&time(n, 1, || {
        black_box(load_autoencoder_file(&file).expect("model loads"));
    }));
    out.put("ckpt.ae_wide_load_mb_per_s", mb / load, n);

    // The same short CNN run plain and supervised with a snapshot every ten
    // batches, interleaved. (What checkpoint writes cost is read from the
    // `ckpt.save` spans of the traced run, where it can be resolved.)
    let data = digits(28, env.pick(1500, 200), env.seed);
    let plain_tc = CnnCkpt::train_config();
    let snap_tc = TrainConfig {
        checkpoint: None,
        ..CnnCkpt::persisting(&plain_tc, dir.path())
    };
    let ctx = ExecCtx::native(OptLevel::Improved, env.seed);
    let fresh = || CnnCkpt::model(CnnCkpt::config(), env.seed, data.len());
    let plain = || {
        let t = Instant::now();
        train_dataset(&mut fresh(), &ctx, &data, &plain_tc, 1).expect("training runs");
        t.elapsed().as_secs_f64()
    };
    let supervised = || {
        let t = Instant::now();
        train_dataset_supervised(&mut fresh(), &ctx, &data, &snap_tc, 1).expect("training runs");
        t.elapsed().as_secs_f64()
    };
    plain();
    let (plain, supervised): (Vec<f64>, Vec<f64>) = (0..n).map(|_| (plain(), supervised())).unzip();
    out.put(
        "supervise.cnn_overhead_ratio",
        median(&supervised) / median(&plain),
        n,
    );
}

pub fn serving(env: &Env, out: &mut Layers) {
    // Host: a saturated burst through the pipeline's network shape.
    let n = Counts::of(env).slow;
    let net = FineTuneNet::random(&[784, 256, 64], 10, env.seed);
    let inputs = digits(28, env.pick(512, 64), env.seed);
    let (requests, cfg) = DigitsPipeline::saturated_burst(&inputs, env.pick(6400, 640), env.seed);
    let ctx = ExecCtx::native(OptLevel::Improved, env.seed);
    let serve = || {
        serve_requests(&net, &ctx, &cfg, &requests)
            .expect("valid serve config")
            .report
    };
    serve();
    let reports: Vec<ServeReport> = (0..n).map(|_| serve()).collect();
    let rps: Vec<f64> = reports.iter().map(|r| r.throughput_rps).collect();
    let per_batch: Vec<f64> = reports
        .iter()
        .map(|r| r.makespan_secs / r.batches as f64 * 1e6)
        .collect();
    out.put("serve.host_rps", median(&rps), n);
    out.put("serve.batch_us_mean", median(&per_batch), n);

    // Simulated Phi: the saturated bursty point of the repository's
    // BENCH_serve.json, same network, trace, policy and seeds.
    let net = FineTuneNet::random(&[256, 512, 256], 10, 7);
    let schedule = ArrivalSchedule::bursty(256, 100_000.0, 32, 7);
    let requests: Vec<Request> = schedule
        .times()
        .iter()
        .enumerate()
        .map(|(i, &t)| Request {
            arrival_secs: t,
            input: (0..256)
                .map(|j| ((i * 256 + j * 13) % 17) as f32 / 17.0)
                .collect(),
        })
        .collect();
    let cfg = ServeConfig {
        max_batch: 64,
        max_wait_secs: 2e-3,
        queue_cap: 256,
    };
    let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 11);
    let report = serve_requests(&net, &ctx, &cfg, &requests)
        .expect("valid serve config")
        .report;
    out.put("serve.sim_rps", report.throughput_rps, 1);
    out.put("serve.sim_p99_ms", report.p99_latency_secs * 1e3, 1);
}

/// Guard only: no workload trains on more than one device yet.
pub fn multidev(env: &Env, out: &mut Layers) {
    let n = Counts::of(env).slow;
    let (vis, hid, rows) = (1024, env.pick(256, 64), env.pick(1024, 256));
    let batch = |i: usize| {
        Mat::from_fn(rows, vis, |r, c| {
            ((r * vis + c + i * 131) % 17) as f32 / 17.0
        })
    };
    let model = |devices: usize| {
        let cfg = MultiDevConfig::new(devices).with_link(Link::pcie_gen2());
        let mut m = DataParallelAe::new(SparseAutoencoder::new(AeConfig::new(vis, hid), 7), cfg);
        m.prepare(rows);
        m
    };

    let x = batch(0);
    let ctx = ExecCtx::native(OptLevel::Improved, env.seed);
    let (mut one, mut four) = (model(1), model(4));
    let t1 = median(&time(n, 1, || {
        black_box(one.train_batch(&ctx, x.view(), 0.1));
    }));
    let t4 = median(&time(n, 1, || {
        black_box(four.train_batch(&ctx, x.view(), 0.1));
    }));
    out.put("multidev.ae_step_over_single_n4", t4 / t1, n);

    // The repository's BENCH_multidev.json sweep at N = 1 and N = 4.
    let simulate = |devices: usize| {
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 11);
        let mut m = model(devices);
        for i in 0..2 {
            m.train_batch(&ctx, batch(i).view(), 0.1);
        }
        (ctx.sim_time(), m.sync_fraction())
    };
    let (base, _) = simulate(1);
    let (secs, sync) = simulate(4);
    out.put("multidev.sim_speedup_n4", base / secs, 1);
    out.put("multidev.sim_sync_fraction_n4", sync, 1);
}
