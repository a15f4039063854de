//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Timing numbers are **simulated seconds** from the `micdnn-sim` machine
//! models (the paper's hardware is unobtainable); the *math* behind each
//! workload is the real implementation, and the model-only estimates used
//! here price the op costs the step graphs declare, which every node's
//! first verified run checks against what it charges. Absolute values
//! are therefore model outputs; the claims being reproduced are the
//! *shapes*: who wins, by what factor, and where the trends bend.

use micdnn::train::UnsupervisedModel;
use micdnn::{
    ae_step_graph, cd_step_graph, estimate, serve_requests, AeConfig, AeScratch, Algo,
    DataParallelAe, ExecCtx, FineTuneNet, MultiDevConfig, OptLevel, Rbm, RbmConfig, RbmScratch,
    Request, ServeConfig, ServeReport, SparseAutoencoder, Workload,
};
use micdnn_kernels::OpKind;
use micdnn_sim::{
    Affinity, ArrivalPattern, ArrivalSchedule, ChunkStream, EventKind, Link, Platform, SimClock,
    StreamStats, Trace,
};
use micdnn_tensor::Mat;
use serde::Serialize;

/// The chunk size used throughout the paper-scale sweeps.
const CHUNK_ROWS: usize = 10_000;

/// One (x, platform, time) measurement of a figure series.
#[derive(Debug, Clone, Serialize)]
pub struct FigPoint {
    /// x-axis label (network size, dataset size or batch size).
    pub x: String,
    /// Series label (platform).
    pub series: String,
    /// Simulated seconds.
    pub seconds: f64,
}

/// A complete figure: id, axis descriptions and the measured points.
#[derive(Debug, Clone, Serialize)]
pub struct Figure {
    /// Paper figure id, e.g. "fig7a".
    pub id: String,
    /// Human description.
    pub title: String,
    /// x-axis meaning.
    pub x_axis: String,
    /// The series points, grouped by x then series.
    pub points: Vec<FigPoint>,
}

impl Figure {
    /// Seconds for a given (x, series) pair.
    pub fn get(&self, x: &str, series: &str) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.x == x && p.series == series)
            .map(|p| p.seconds)
    }

    /// Distinct series labels in first-appearance order.
    pub fn series(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for p in &self.points {
            if !out.contains(&p.series) {
                out.push(p.series.clone());
            }
        }
        out
    }

    /// Distinct x labels in first-appearance order.
    pub fn xs(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for p in &self.points {
            if !out.contains(&p.x) {
                out.push(p.x.clone());
            }
        }
        out
    }

    /// Renders the figure as an aligned text table.
    pub fn render(&self) -> String {
        let series = self.series();
        let mut s = format!("== {} — {} ==\n", self.id, self.title);
        s.push_str(&format!("{:<18}", self.x_axis));
        for name in &series {
            s.push_str(&format!("{name:>22}"));
        }
        s.push('\n');
        for x in self.xs() {
            s.push_str(&format!("{x:<18}"));
            for name in &series {
                match self.get(&x, name) {
                    Some(v) => s.push_str(&format!("{:>20.1} s", v)),
                    None => s.push_str(&format!("{:>22}", "-")),
                }
            }
            s.push('\n');
        }
        s
    }
}

fn phi_improved(w: &Workload) -> f64 {
    // The figure sweeps run with the loading thread active and a healthy
    // PCIe pipeline; the paper's pathological 13 s/chunk host pipeline is
    // reproduced separately in `overlap_experiment` (that is the scenario
    // §IV.A quotes it for).
    estimate(
        OptLevel::Improved,
        Platform::xeon_phi(),
        Link::pcie_gen2(),
        true,
        w,
    )
    .total_secs
}

fn cpu_single_core(w: &Workload) -> f64 {
    // The paper runs the same fully-optimized code on one host core; data
    // is host-resident so there is no PCIe transfer.
    estimate_no_transfer(OptLevel::Improved, Platform::cpu_single_core(), w)
}

/// Pure-compute estimate (host-resident data, no link).
fn estimate_no_transfer(level: OptLevel, platform: Platform, w: &Workload) -> f64 {
    let free_link = Link {
        latency_s: 0.0,
        wire_gbs: f64::INFINITY,
        host_pipeline_gbs: f64::INFINITY,
    };
    estimate(level, platform, free_link, true, w).compute_secs
}

/// The network-size sweep of Fig. 7 (visible x hidden pairs).
pub fn fig7_sizes() -> Vec<(usize, usize)> {
    vec![(576, 1024), (1024, 4096), (2048, 8192), (4096, 16384)]
}

/// Fig. 7a/7b — training time vs network size, Phi vs one CPU core.
///
/// Autoencoder: 1 M examples, batch 1000. RBM: 100 k examples, batch 200
/// (paper §V.B.1).
pub fn fig7(algo: Algo) -> Figure {
    let (id, examples, batch) = match algo {
        Algo::Autoencoder => ("fig7a", 1_000_000, 1000),
        Algo::Rbm => ("fig7b", 100_000, 200),
    };
    let mut points = Vec::new();
    for (v, h) in fig7_sizes() {
        let w = Workload {
            algo,
            n_visible: v,
            n_hidden: h,
            examples,
            batch,
            chunk_rows: CHUNK_ROWS,
            passes: 1,
        };
        let x = format!("{v}x{h}");
        points.push(FigPoint {
            x: x.clone(),
            series: "Xeon Phi (60 cores)".into(),
            seconds: phi_improved(&w),
        });
        points.push(FigPoint {
            x,
            series: "1 CPU core".into(),
            seconds: cpu_single_core(&w),
        });
    }
    Figure {
        id: id.into(),
        title: format!(
            "{} training time vs network size",
            match algo {
                Algo::Autoencoder => "Sparse Autoencoder",
                Algo::Rbm => "RBM",
            }
        ),
        x_axis: "network (v x h)".into(),
        points,
    }
}

/// Fig. 8a/8b — training time vs dataset size (network 1024x4096,
/// batch 1000, paper §V.B.2).
pub fn fig8(algo: Algo) -> Figure {
    let id = match algo {
        Algo::Autoencoder => "fig8a",
        Algo::Rbm => "fig8b",
    };
    let mut points = Vec::new();
    for examples in [100_000usize, 250_000, 500_000, 750_000, 1_000_000] {
        let w = Workload {
            algo,
            n_visible: 1024,
            n_hidden: 4096,
            examples,
            batch: 1000,
            chunk_rows: CHUNK_ROWS,
            passes: 1,
        };
        let x = format!("{}k", examples / 1000);
        points.push(FigPoint {
            x: x.clone(),
            series: "Xeon Phi (60 cores)".into(),
            seconds: phi_improved(&w),
        });
        points.push(FigPoint {
            x,
            series: "1 CPU core".into(),
            seconds: cpu_single_core(&w),
        });
    }
    Figure {
        id: id.into(),
        title: "training time vs dataset size (net 1024x4096, batch 1000)".into(),
        x_axis: "examples".into(),
        points,
    }
}

/// Fig. 9a/9b — training time vs batch size (network 1024x4096, dataset
/// 100 k, paper §V.B.3).
pub fn fig9(algo: Algo) -> Figure {
    let id = match algo {
        Algo::Autoencoder => "fig9a",
        Algo::Rbm => "fig9b",
    };
    let mut points = Vec::new();
    for batch in [200usize, 500, 1000, 2000, 5000, 10_000] {
        let w = Workload {
            algo,
            n_visible: 1024,
            n_hidden: 4096,
            examples: 100_000,
            batch,
            chunk_rows: CHUNK_ROWS,
            passes: 1,
        };
        let x = format!("{batch}");
        points.push(FigPoint {
            x: x.clone(),
            series: "Xeon Phi (60 cores)".into(),
            seconds: phi_improved(&w),
        });
        points.push(FigPoint {
            x,
            series: "1 CPU core".into(),
            seconds: cpu_single_core(&w),
        });
    }
    Figure {
        id: id.into(),
        title: "training time vs batch size (net 1024x4096, 100k examples)".into(),
        x_axis: "batch size".into(),
        points,
    }
}

/// Fig. 10 — fully-optimized Xeon Phi vs Matlab on the host CPU
/// (Autoencoder, 1 M examples, batch 10 000, paper §V.B.4).
pub fn fig10() -> Figure {
    let w = Workload {
        algo: Algo::Autoencoder,
        n_visible: 1024,
        n_hidden: 4096,
        examples: 1_000_000,
        batch: 10_000,
        chunk_rows: CHUNK_ROWS,
        passes: 1,
    };
    let phi = phi_improved(&w);
    let matlab = estimate_no_transfer(OptLevel::SequentialBlas, Platform::matlab_host(), &w);
    Figure {
        id: "fig10".into(),
        title: "Autoencoder: Xeon Phi vs Matlab on host CPU (1M examples, batch 10k)".into(),
        x_axis: "platform".into(),
        points: vec![
            FigPoint {
                x: "Autoencoder".into(),
                series: "Xeon Phi (60 cores)".into(),
                seconds: phi,
            },
            FigPoint {
                x: "Autoencoder".into(),
                series: "Matlab (host CPU)".into(),
                seconds: matlab,
            },
        ],
    }
}

/// The abstract's "7 to 10 times faster than the Intel Xeon CPU":
/// fully-optimized code on the Phi vs the full host socket.
pub fn phi_vs_cpu_socket() -> (f64, f64) {
    let w = Workload {
        algo: Algo::Autoencoder,
        n_visible: 1024,
        n_hidden: 4096,
        examples: 1_000_000,
        batch: 1000,
        chunk_rows: CHUNK_ROWS,
        passes: 1,
    };
    let phi = phi_improved(&w);
    let cpu = estimate_no_transfer(OptLevel::Improved, Platform::cpu_socket(), &w);
    (phi, cpu)
}

/// One row of Table I.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Optimization rung label.
    pub step: String,
    /// Seconds with 60 cores.
    pub cores60: f64,
    /// Seconds with 30 cores.
    pub cores30: f64,
}

/// Table I result: the optimization ladder plus the bottom speedup row.
#[derive(Debug, Clone, Serialize)]
pub struct Table1 {
    /// The four ladder rows.
    pub rows: Vec<Table1Row>,
    /// Fully-optimized vs baseline speedup at 60 cores.
    pub speedup60: f64,
    /// Fully-optimized vs baseline speedup at 30 cores.
    pub speedup30: f64,
}

impl Table1 {
    /// Renders as an aligned text table mirroring the paper's layout.
    pub fn render(&self) -> String {
        let mut s =
            String::from("== Table I — performance after each optimization step on Xeon Phi ==\n");
        s.push_str(&format!("{:<24}{:>14}{:>14}\n", "", "60 cores", "30 cores"));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<24}{:>13.0}s{:>13.0}s\n",
                r.step, r.cores60, r.cores30
            ));
        }
        s.push_str(&format!(
            "{:<24}{:>14.0}{:>14.0}\n",
            "Speedup (vs baseline)", self.speedup60, self.speedup30
        ));
        s
    }
}

/// Table I — the stacked-autoencoder optimization ladder (paper §V.B.5).
///
/// Workload: 4-layer stack 1024-512-256-128, one resident batch of 10 000
/// examples, 200 iterations per layer.
pub fn table1() -> Table1 {
    let layers = [(1024usize, 512usize), (512, 256), (256, 128)];
    let time_for = |level: OptLevel, cores: u32| -> f64 {
        layers
            .iter()
            .map(|&(v, h)| {
                let w = Workload {
                    algo: Algo::Autoencoder,
                    n_visible: v,
                    n_hidden: h,
                    examples: 10_000,
                    batch: 10_000,
                    chunk_rows: CHUNK_ROWS,
                    passes: 200,
                };
                estimate(
                    level,
                    Platform::xeon_phi_cores(cores),
                    Link::pcie_gen2(),
                    true,
                    &w,
                )
                .total_secs
            })
            .sum()
    };
    let rows: Vec<Table1Row> = OptLevel::ladder()
        .iter()
        .map(|&lvl| Table1Row {
            step: lvl.label().to_string(),
            cores60: time_for(lvl, 60),
            cores30: time_for(lvl, 30),
        })
        .collect();
    let speedup60 = rows[0].cores60 / rows[3].cores60;
    let speedup30 = rows[0].cores30 / rows[3].cores30;
    Table1 {
        rows,
        speedup60,
        speedup30,
    }
}

/// Result of the §IV.A transfer-overlap experiment.
#[derive(Debug, Clone, Serialize)]
pub struct OverlapResult {
    /// Chunks streamed.
    pub chunks: u64,
    /// Seconds of transfer per chunk (paper measures ~13 s).
    pub transfer_per_chunk: f64,
    /// Seconds of training per chunk (paper measures ~68 s).
    pub compute_per_chunk: f64,
    /// Fraction of total time spent stalled *without* the loading thread.
    pub stall_fraction_naive: f64,
    /// Fraction of total time spent stalled *with* double buffering.
    pub stall_fraction_buffered: f64,
}

impl OverlapResult {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        format!(
            "== §IV.A — hiding PCIe transfers with the loading thread ==\n\
             chunk: 10000 x 4096 f32 ({} chunks)\n\
             transfer per chunk: {:.1} s   training per chunk: {:.1} s\n\
             stall fraction without loading thread: {:.1}%  (paper: ~17%)\n\
             stall fraction with double buffering:  {:.1}%\n",
            self.chunks,
            self.transfer_per_chunk,
            self.compute_per_chunk,
            100.0 * self.stall_fraction_naive,
            100.0 * self.stall_fraction_buffered,
        )
    }
}

/// The paper's measured per-chunk training time (§IV.A).
const TRAIN_PER_CHUNK: f64 = 68.0;

/// Replays the paper's measured constants (13 s transfer vs 68 s training
/// per 10 000 × 4096 chunk) through the real [`ChunkStream`] machinery;
/// returns the loader statistics and the simulated end time. Chunks are
/// produced lazily so memory stays at a few buffer slots regardless of
/// `chunks`.
fn replay_overlap(chunks: usize, double_buffered: bool, trace: &Trace) -> (StreamStats, f64) {
    let clock = SimClock::new();
    let mut remaining = chunks;
    let source = move || {
        (remaining > 0).then(|| {
            remaining -= 1;
            Mat::zeros(10_000, 4096)
        })
    };
    let mut stream = ChunkStream::spawn(
        source,
        Link::paper_measured(),
        clock.clone(),
        trace.clone(),
        2,
        double_buffered,
    )
    .expect("spawn loader thread");
    let mut i = 0u64;
    while let Some(_chunk) = stream.next().expect("fault-free stream") {
        let t0 = clock.now();
        clock.advance(TRAIN_PER_CHUNK);
        trace.push(
            t0,
            clock.now(),
            EventKind::Compute(OpKind::Gemm),
            format!("train chunk {i}"),
        );
        i += 1;
    }
    (stream.stats(), clock.now())
}

/// §IV.A — the replay with and without the loading thread.
pub fn overlap_experiment(chunks: usize) -> OverlapResult {
    let untraced = Trace::new(false);
    let (naive, naive_end) = replay_overlap(chunks, false, &untraced);
    let (buffered, buffered_end) = replay_overlap(chunks, true, &untraced);
    OverlapResult {
        chunks: chunks as u64,
        transfer_per_chunk: naive.transfer_secs / naive.chunks as f64,
        compute_per_chunk: TRAIN_PER_CHUNK,
        stall_fraction_naive: naive.stall_secs / naive_end,
        stall_fraction_buffered: buffered.stall_secs / buffered_end,
    }
}

/// §IV.A with trace recording: the double-buffered replay with the event
/// trace enabled, returning the loader statistics plus the trace for
/// Chrome-trace export.
pub fn overlap_traced(chunks: usize) -> (StreamStats, Trace) {
    let trace = Trace::new(true);
    let (stats, _) = replay_overlap(chunks, true, &trace);
    (stats, trace)
}

/// Result of the Fig. 6 dependency-graph ablation.
#[derive(Debug, Clone, Serialize)]
pub struct GraphAblation {
    /// Training algorithm ("rbm" or "ae").
    pub algo: String,
    /// Network size label.
    pub network: String,
    /// Serial-schedule seconds for one training step.
    pub serial_secs: f64,
    /// Critical-path seconds for the same step.
    pub graph_secs: f64,
    /// serial / graph.
    pub speedup: f64,
    /// Scratch elements the step's graph declares.
    pub scratch_elems: usize,
    /// Scratch elements after liveness-planned register aliasing.
    pub planned_peak_elems: usize,
}

/// Executes (really) one training step per size and algorithm, serial vs
/// dependency-graph scheduled, on the simulated Phi. Both the RBM CD-1
/// step (the paper's Fig. 6) and the autoencoder step run through the
/// same executor; the planner columns report the declared-vs-aliased
/// scratch footprint of each step's workspace plan.
pub fn graph_ablation() -> Vec<GraphAblation> {
    let mut out = Vec::new();
    for &(v, h, b) in &[
        (256usize, 512usize, 100usize),
        (512, 1024, 200),
        (1024, 2048, 200),
    ] {
        let x = Mat::from_fn(b, v, |r, c| ((r * v + c) % 2) as f32);
        {
            let cfg = RbmConfig::new(v, h);
            let mut rbm = Rbm::new(cfg, 1);
            let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 2);
            let mut scratch = RbmScratch::new(&cfg, b);
            let (_, run) = cd_step_graph(&mut rbm, &ctx, x.view(), &mut scratch, 0.1);
            out.push(GraphAblation {
                algo: "rbm".to_string(),
                network: format!("{v}x{h} batch {b}"),
                serial_secs: run.serial_time,
                graph_secs: run.critical_path,
                speedup: run.speedup(),
                scratch_elems: run.scratch_elems,
                planned_peak_elems: run.planned_peak_elems,
            });
        }
        {
            let cfg = AeConfig::new(v, h);
            let mut ae = SparseAutoencoder::new(cfg, 1);
            let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 2);
            let mut scratch = AeScratch::new(&cfg, b);
            let (_, run) = ae_step_graph(&mut ae, &ctx, x.view(), &mut scratch, 0.1, None);
            out.push(GraphAblation {
                algo: "ae".to_string(),
                network: format!("{v}x{h} batch {b}"),
                serial_secs: run.serial_time,
                graph_secs: run.critical_path,
                speedup: run.speedup(),
                scratch_elems: run.scratch_elems,
                planned_peak_elems: run.planned_peak_elems,
            });
        }
    }
    out
}

/// One rung of the convolution lowering ladder: the naive direct
/// convolution vs the shipped im2col+GEMM path, per optimization level.
#[derive(Debug, Clone, Serialize)]
pub struct ConvPoint {
    /// Optimization rung (the Table I ladder).
    pub level: String,
    /// Geometry label.
    pub network: String,
    /// Naive direct convolution, simulated seconds.
    pub direct_secs: f64,
    /// im2col + batched GEMM, simulated seconds.
    pub im2col_secs: f64,
    /// direct / im2col.
    pub speedup: f64,
    /// Largest elementwise deviation between the two paths' outputs
    /// (reassociation only — both compute the same convolution).
    pub max_abs_diff: f64,
}

/// Executes (really) the conv forward pass both ways per geometry and
/// Table-I rung on the simulated Phi: the naive direct loop nest is priced
/// as a non-vectorizable strided gather, while im2col pays a bulk copy and
/// then rides whatever GEMM the rung provides — no BLAS at the bottom of
/// the ladder, the optimized library at the top. The shape being shown:
/// the lowering is what lets convolution inherit the paper's entire
/// optimization story.
pub fn conv_ladder() -> Vec<ConvPoint> {
    use micdnn_kernels::{conv, OpCost};
    let mut out = Vec::new();
    for &(side, k, c, b) in &[(28usize, 5usize, 32usize, 200usize), (16, 5, 6, 1000)] {
        let o = side - k + 1;
        let (img, patch, pix) = (side * side, k * k, o * o);
        let x: Vec<f32> = (0..b * img).map(|i| ((i % 97) as f32) / 97.0).collect();
        let w: Vec<f32> = (0..c * patch)
            .map(|i| ((i % 53) as f32) / 53.0 - 0.5)
            .collect();
        let mut wm = Mat::zeros(c, patch);
        wm.as_mut_slice().copy_from_slice(&w);

        for level in [
            OptLevel::Baseline,
            OptLevel::OpenMp,
            OptLevel::OpenMpMkl,
            OptLevel::Improved,
        ] {
            let ctx = ExecCtx::simulated(level, Platform::xeon_phi(), 2);
            let mut direct = vec![0.0f32; b * pix * c];
            conv::conv2d_direct(ctx.backend().par(), &x, b, side, k, &w, c, &mut direct);
            ctx.charge_cost(OpCost {
                vectorizable: false,
                ..OpCost::elementwise(b * pix * c, patch as u32, 2 * patch as u32)
            });
            let direct_secs = ctx.sim_time();

            let ctx = ExecCtx::simulated(level, Platform::xeon_phi(), 2);
            let mut col = Mat::zeros(b * pix, patch);
            conv::im2col(ctx.backend().par(), &x, b, side, k, col.as_mut_slice());
            ctx.charge_cost(OpCost::memcpy(b * pix * patch));
            let mut act = Mat::zeros(b * pix, c);
            {
                let mut v = act.view_mut();
                ctx.gemm(1.0, col.view(), false, wm.view(), true, 0.0, &mut v);
            }
            let im2col_secs = ctx.sim_time();

            let max_abs_diff = direct
                .iter()
                .zip(act.as_slice())
                .map(|(a, g)| (a - g).abs() as f64)
                .fold(0.0f64, f64::max);

            out.push(ConvPoint {
                level: format!("{level:?}"),
                network: format!("{side}x{side} k{k} c{c} batch {b}"),
                direct_secs,
                im2col_secs,
                speedup: direct_secs / im2col_secs,
                max_abs_diff,
            });
        }
    }
    out
}

/// One point of the core-count scaling sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingPoint {
    /// Cores enabled on the Phi.
    pub cores: u32,
    /// Simulated seconds for the fixed workload.
    pub seconds: f64,
    /// Speedup vs 1 core.
    pub speedup: f64,
}

/// Core-count scaling of the fully-optimized autoencoder (the trend behind
/// Table I's 60-vs-30-core columns).
pub fn core_scaling() -> Vec<ScalingPoint> {
    let w = Workload {
        algo: Algo::Autoencoder,
        n_visible: 1024,
        n_hidden: 4096,
        examples: 100_000,
        batch: 1000,
        chunk_rows: CHUNK_ROWS,
        passes: 1,
    };
    let base = estimate_no_transfer_cores(1, &w);
    [1u32, 2, 4, 8, 15, 30, 45, 60]
        .iter()
        .map(|&cores| {
            let secs = estimate_no_transfer_cores(cores, &w);
            ScalingPoint {
                cores,
                seconds: secs,
                speedup: base / secs,
            }
        })
        .collect()
}

fn estimate_no_transfer_cores(cores: u32, w: &Workload) -> f64 {
    estimate_no_transfer(OptLevel::Improved, Platform::xeon_phi_cores(cores), w)
}

/// One point of the thread-count / affinity sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ThreadSweepPoint {
    /// Threads requested.
    pub threads: u32,
    /// Placement policy.
    pub affinity: String,
    /// Simulated seconds for the fixed workload.
    pub seconds: f64,
}

/// Thread-count x placement sweep on the Phi — the tuning the paper says
/// it performed "manually" (§VI): scatter beats compact until every core
/// is engaged; the in-order cores want at least two threads each.
pub fn thread_sweep() -> Vec<ThreadSweepPoint> {
    let w = Workload {
        algo: Algo::Autoencoder,
        n_visible: 1024,
        n_hidden: 4096,
        examples: 10_000,
        batch: 1000,
        chunk_rows: CHUNK_ROWS,
        passes: 1,
    };
    let mut out = Vec::new();
    for &threads in &[15u32, 30, 60, 120, 180, 240] {
        for affinity in [Affinity::Compact, Affinity::Scatter, Affinity::Balanced] {
            let platform = Platform::xeon_phi().with_threads(threads, affinity);
            let secs = estimate_no_transfer(OptLevel::Improved, platform, &w);
            out.push(ThreadSweepPoint {
                threads,
                affinity: format!("{affinity:?}"),
                seconds: secs,
            });
        }
    }
    out
}

/// One point of the multi-device data-parallel sweep.
#[derive(Debug, Clone, Serialize)]
pub struct MultiDevPoint {
    /// Coprocessors sharing each mini-batch.
    pub devices: usize,
    /// Simulated seconds for the fixed workload.
    pub seconds: f64,
    /// Speedup vs one device.
    pub speedup: f64,
    /// Fraction of modeled step time spent in gradient synchronization.
    pub sync_fraction: f64,
}

/// Multi-device data-parallel scaling of the sparse autoencoder: the same
/// global batches run at N in {1, 2, 4} through [`DataParallelAe`] on the
/// simulated Phi, so every point trains the *bit-identical* model and only
/// the modeled clock differs. The clock charges the slowest device's shard
/// plus a ring allreduce of the merged gradients over the PCIe link, so
/// speedup saturates where sync catches up with the shrinking shards.
pub fn multidev_sweep() -> Vec<MultiDevPoint> {
    const VIS: usize = 1024;
    const HID: usize = 256;
    const ROWS: usize = 1024;
    const BATCHES: usize = 2;
    let run = |devices: usize| -> (f64, f64) {
        let cfg = MultiDevConfig::new(devices).with_link(Link::pcie_gen2());
        let mut model =
            DataParallelAe::new(SparseAutoencoder::new(AeConfig::new(VIS, HID), 7), cfg);
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 11);
        model.prepare(ROWS);
        for i in 0..BATCHES {
            let x = Mat::from_fn(ROWS, VIS, |r, c| {
                ((r * VIS + c + i * 131) % 17) as f32 / 17.0
            });
            model.train_batch(&ctx, x.view(), 0.1);
        }
        (ctx.sim_time(), model.sync_fraction())
    };
    let (base_secs, base_sync) = run(1);
    let mut out = vec![MultiDevPoint {
        devices: 1,
        seconds: base_secs,
        speedup: 1.0,
        sync_fraction: base_sync,
    }];
    for devices in [2usize, 4] {
        let (secs, sync) = run(devices);
        out.push(MultiDevPoint {
            devices,
            seconds: secs,
            speedup: base_secs / secs,
            sync_fraction: sync,
        });
    }
    out
}

/// One point of the serving sweep: a traffic pattern against a batching
/// policy, with the resulting throughput and latency tail.
#[derive(Debug, Clone, Serialize)]
pub struct ServePoint {
    /// Arrival pattern label (`steady` or `bursty(K)`).
    pub pattern: String,
    /// Offered load, requests per second.
    pub rate_rps: f64,
    /// Batching policy's `max_batch`.
    pub max_batch: usize,
    /// Requests answered.
    pub completed: u64,
    /// Requests bounced by admission control.
    pub rejected: u64,
    /// Delivered throughput, requests per simulated second.
    pub throughput_rps: f64,
    /// Median request latency, simulated seconds.
    pub p50_latency_secs: f64,
    /// Tail request latency, simulated seconds.
    pub p99_latency_secs: f64,
    /// Mean rows per flushed micro-batch.
    pub mean_batch_rows: f64,
}

/// The serving sweep plus its headline comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ServeSweep {
    /// Every measured (pattern, rate, policy) point.
    pub points: Vec<ServePoint>,
    /// Throughput with dynamic batching at the saturated bursty point.
    pub bursty_batched_rps: f64,
    /// Throughput with `max_batch = 1` on the identical trace.
    pub bursty_unbatched_rps: f64,
    /// `bursty_batched_rps / bursty_unbatched_rps`.
    pub batching_speedup: f64,
}

/// Closed-loop serving sweep on the simulated Phi: a 256→512→256→10
/// fine-tune net behind the dynamic micro-batching queue, driven by
/// deterministic steady and bursty arrival schedules. The headline pair
/// re-runs the saturated bursty trace with `max_batch = 1`: every request
/// then pays the full per-kernel parallel-region overhead alone — the
/// serving-side restatement of the paper's claim that the Phi needs big
/// batches to amortize its launch and barrier costs.
pub fn serve_sweep() -> ServeSweep {
    const IN_DIM: usize = 256;
    const CLASSES: usize = 10;
    const N_REQ: usize = 256;
    let net = FineTuneNet::random(&[IN_DIM, 512, 256], CLASSES, 7);
    let inputs: Vec<Vec<f32>> = (0..N_REQ)
        .map(|i| {
            (0..IN_DIM)
                .map(|j| ((i * IN_DIM + j * 13) % 17) as f32 / 17.0)
                .collect()
        })
        .collect();

    let run = |pattern: ArrivalPattern, rate: f64, max_batch: usize| -> ServeReport {
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 11);
        let sched = ArrivalSchedule::new(N_REQ, rate, pattern, 7);
        let requests: Vec<Request> = sched
            .times()
            .iter()
            .zip(&inputs)
            .map(|(&t, input)| Request {
                arrival_secs: t,
                input: input.clone(),
            })
            .collect();
        let cfg = ServeConfig {
            max_batch,
            max_wait_secs: 2e-3,
            queue_cap: N_REQ, // sweep measures batching, not admission
        };
        serve_requests(&net, &ctx, &cfg, &requests)
            .expect("valid sweep config")
            .report
    };

    let label = |p: ArrivalPattern| match p {
        ArrivalPattern::Steady => "steady".to_string(),
        ArrivalPattern::Bursty { burst } => format!("bursty({burst})"),
    };
    let mut points = Vec::new();
    let mut push = |pattern: ArrivalPattern, rate: f64, max_batch: usize| -> ServeReport {
        let r = run(pattern, rate, max_batch);
        points.push(ServePoint {
            pattern: label(pattern),
            rate_rps: rate,
            max_batch,
            completed: r.completed,
            rejected: r.rejected,
            throughput_rps: r.throughput_rps,
            p50_latency_secs: r.p50_latency_secs,
            p99_latency_secs: r.p99_latency_secs,
            mean_batch_rows: r.mean_batch_rows,
        });
        r
    };

    // Steady arrival sweep: offered load from relaxed to saturating.
    for rate in [500.0, 2_000.0, 8_000.0] {
        push(ArrivalPattern::Steady, rate, 64);
    }
    // Bursty sweep at the saturated point, batched vs unbatched on the
    // bit-identical trace.
    let burst = ArrivalPattern::Bursty { burst: 32 };
    let batched = push(burst, 100_000.0, 64);
    let unbatched = push(burst, 100_000.0, 1);

    ServeSweep {
        points,
        bursty_batched_rps: batched.throughput_rps,
        bursty_unbatched_rps: unbatched.throughput_rps,
        batching_speedup: batched.throughput_rps / unbatched.throughput_rps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_shape_phi_wins_and_gap_grows() {
        for algo in [Algo::Autoencoder, Algo::Rbm] {
            let fig = fig7(algo);
            let xs = fig.xs();
            let mut last_ratio = 0.0;
            for x in &xs {
                let phi = fig.get(x, "Xeon Phi (60 cores)").unwrap();
                let cpu = fig.get(x, "1 CPU core").unwrap();
                assert!(phi < cpu, "{algo:?} {x}: Phi not faster");
                let ratio = cpu / phi;
                assert!(
                    ratio >= last_ratio * 0.7,
                    "gap collapsed at {x}: {ratio} after {last_ratio}"
                );
                last_ratio = ratio;
            }
            // At the largest network the difference is large (paper: CPU
            // grows sharply, Phi growth is mild).
            let last = xs.last().unwrap();
            let ratio = fig.get(last, "1 CPU core").unwrap()
                / fig.get(last, "Xeon Phi (60 cores)").unwrap();
            assert!(ratio > 10.0, "largest-network ratio only {ratio}");
        }
    }

    #[test]
    fn fig8_cpu_grows_faster_than_phi() {
        let fig = fig8(Algo::Autoencoder);
        let growth =
            |series: &str| fig.get("1000k", series).unwrap() / fig.get("100k", series).unwrap();
        // Both scale ~linearly in examples, but the CPU's absolute increase
        // dwarfs the Phi's (the paper's reading of Fig. 8).
        let phi_inc = fig.get("1000k", "Xeon Phi (60 cores)").unwrap()
            - fig.get("100k", "Xeon Phi (60 cores)").unwrap();
        let cpu_inc =
            fig.get("1000k", "1 CPU core").unwrap() - fig.get("100k", "1 CPU core").unwrap();
        assert!(
            cpu_inc > 10.0 * phi_inc,
            "cpu_inc {cpu_inc} phi_inc {phi_inc}"
        );
        assert!(growth("1 CPU core") > 5.0);
    }

    #[test]
    fn fig9_larger_batches_cheaper_mostly_on_phi() {
        let fig = fig9(Algo::Rbm);
        let phi_ratio = fig.get("200", "Xeon Phi (60 cores)").unwrap()
            / fig.get("10000", "Xeon Phi (60 cores)").unwrap();
        let cpu_ratio =
            fig.get("200", "1 CPU core").unwrap() / fig.get("10000", "1 CPU core").unwrap();
        // Paper: Phi drops by about two thirds (3x); CPU change "not obvious".
        assert!(phi_ratio > 2.0 && phi_ratio < 8.0, "phi ratio {phi_ratio}");
        assert!(
            cpu_ratio < phi_ratio,
            "cpu ratio {cpu_ratio} >= phi {phi_ratio}"
        );
        assert!(
            cpu_ratio < 2.0,
            "cpu ratio should be modest, got {cpu_ratio}"
        );
    }

    #[test]
    fn fig10_matlab_speedup_near_16x() {
        let fig = fig10();
        let phi = fig.get("Autoencoder", "Xeon Phi (60 cores)").unwrap();
        let matlab = fig.get("Autoencoder", "Matlab (host CPU)").unwrap();
        let ratio = matlab / phi;
        assert!(
            (8.0..30.0).contains(&ratio),
            "Matlab/Phi ratio {ratio}, paper ~16x"
        );
    }

    #[test]
    fn abstract_claim_phi_7_to_10x_vs_cpu_socket() {
        let (phi, cpu) = phi_vs_cpu_socket();
        let ratio = cpu / phi;
        assert!(
            (5.0..14.0).contains(&ratio),
            "Phi vs socket ratio {ratio}, paper 7-10x"
        );
    }

    #[test]
    fn table1_ladder_monotone_and_300x() {
        let t = table1();
        assert_eq!(t.rows.len(), 4);
        for w in t.rows.windows(2) {
            assert!(
                w[1].cores60 < w[0].cores60,
                "{} not faster than {}",
                w[1].step,
                w[0].step
            );
        }
        assert!(
            (150.0..600.0).contains(&t.speedup60),
            "speedup60 {} (paper ~300x)",
            t.speedup60
        );
        // 30 cores: baseline is single-threaded so nearly equal; improved
        // is meaningfully slower than with 60 cores.
        let base_ratio = t.rows[0].cores30 / t.rows[0].cores60;
        assert!(
            (0.95..1.05).contains(&base_ratio),
            "baseline unaffected by cores"
        );
        let impr_ratio = t.rows[3].cores30 / t.rows[3].cores60;
        assert!(
            impr_ratio > 1.2 && impr_ratio < 2.2,
            "improved 30/60 ratio {impr_ratio}"
        );
    }

    #[test]
    fn overlap_matches_paper_17_percent() {
        let r = overlap_experiment(6);
        assert!(
            (r.transfer_per_chunk - 13.0).abs() < 1.0,
            "{}",
            r.transfer_per_chunk
        );
        assert!(
            (r.stall_fraction_naive - 0.17).abs() < 0.03,
            "naive stall {} (paper ~17%)",
            r.stall_fraction_naive
        );
        assert!(
            r.stall_fraction_buffered < 0.05,
            "double buffering should hide transfers, stall {}",
            r.stall_fraction_buffered
        );
    }

    #[test]
    fn graph_ablation_shows_gain() {
        let rows = graph_ablation();
        assert!(rows.iter().any(|r| r.algo == "ae"));
        assert!(rows.iter().any(|r| r.algo == "rbm"));
        for row in &rows {
            assert!(row.speedup > 1.0, "{} {}: no gain", row.algo, row.network);
            assert!(row.graph_secs < row.serial_secs);
            // CD-1 aliases the hidden-sample buffer into the negative-phase
            // hidden probabilities; the AE step's gradients die at their
            // update, so gw1 reuses gw2's register.
            assert!(
                row.planned_peak_elems < row.scratch_elems,
                "{} {}: planner found no aliasing",
                row.algo,
                row.network
            );
        }
    }

    #[test]
    fn core_scaling_monotone() {
        let pts = core_scaling();
        for w in pts.windows(2) {
            assert!(w[1].seconds <= w[0].seconds * 1.0001);
        }
        let last = pts.last().unwrap();
        assert!(last.speedup > 8.0, "60-core speedup only {}", last.speedup);
    }

    #[test]
    fn thread_sweep_shows_affinity_effects() {
        let pts = thread_sweep();
        let get = |threads: u32, aff: &str| {
            pts.iter()
                .find(|p| p.threads == threads && p.affinity == aff)
                .map(|p| p.seconds)
                .unwrap()
        };
        // At 60 threads, scatter engages all 60 cores (half-fed) while
        // compact packs 15 cores full: scatter wins on this compute-bound
        // workload.
        assert!(
            get(60, "Scatter") < get(60, "Compact"),
            "scatter should beat compact at 60 threads"
        );
        // Fully subscribed, placements converge.
        let full: Vec<f64> = ["Compact", "Scatter", "Balanced"]
            .iter()
            .map(|a| get(240, a))
            .collect();
        assert!((full[0] - full[1]).abs() / full[0] < 1e-9);
        assert!((full[0] - full[2]).abs() / full[0] < 1e-9);
        // More threads never hurt (same policy).
        for aff in ["Compact", "Scatter", "Balanced"] {
            assert!(get(240, aff) <= get(60, aff) * 1.0001, "{aff} regressed");
        }
    }

    #[test]
    fn multidev_sweep_speeds_up_and_pays_for_sync() {
        let pts = multidev_sweep();
        assert_eq!(
            pts.iter().map(|p| p.devices).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        // One device pays no allreduce; every extra device does.
        assert_eq!(pts[0].sync_fraction, 0.0);
        for p in &pts[1..] {
            assert!(p.sync_fraction > 0.0, "N={} free sync", p.devices);
            assert!(p.sync_fraction < 0.5, "N={} sync-bound", p.devices);
        }
        // More devices never slow the modeled step down, and the headline
        // acceptance bar: >1x at N=4 (sub-linear because of the allreduce).
        for w in pts.windows(2) {
            assert!(w[1].seconds < w[0].seconds, "N={} regressed", w[1].devices);
        }
        let n4 = pts.last().unwrap();
        assert!(n4.speedup > 1.0, "N=4 speedup {}", n4.speedup);
        assert!(n4.speedup <= 4.0 + 1e-9, "superlinear? {}", n4.speedup);
    }

    #[test]
    fn serve_sweep_batching_wins_at_the_bursty_point() {
        let sweep = serve_sweep();
        // Every point answers the full trace (the sweep's queue admits
        // everything) and carries a coherent latency distribution.
        for p in &sweep.points {
            assert_eq!(p.completed, 256, "{p:?}");
            assert_eq!(p.rejected, 0, "{p:?}");
            assert!(p.throughput_rps > 0.0, "{p:?}");
            assert!(p.p99_latency_secs >= p.p50_latency_secs, "{p:?}");
            assert!(p.p50_latency_secs > 0.0, "{p:?}");
        }
        // The saturated bursty trace coalesces into real micro-batches...
        let batched = sweep
            .points
            .iter()
            .find(|p| p.pattern == "bursty(32)" && p.max_batch == 64)
            .expect("batched bursty point");
        assert!(
            batched.mean_batch_rows > 8.0,
            "bursty arrivals barely coalesced: {batched:?}"
        );
        // ...and the headline acceptance bar: dynamic batching delivers at
        // least 3x the throughput of the unbatched server on the
        // bit-identical trace (the Phi's per-kernel launch/barrier
        // overhead, amortized vs paid per request).
        assert!(
            sweep.batching_speedup >= 3.0,
            "batching speedup only {:.2}x (batched {:.1} rps, unbatched {:.1} rps)",
            sweep.batching_speedup,
            sweep.bursty_batched_rps,
            sweep.bursty_unbatched_rps
        );
    }

    #[test]
    fn render_does_not_panic() {
        let _ = fig7(Algo::Autoencoder).render();
        let _ = table1().render();
        let _ = overlap_experiment(3).render();
    }
}
