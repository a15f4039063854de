//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--json] [--bench-dir DIR] [EXPERIMENT...]
//! ```
//!
//! `--bench-dir DIR` additionally writes one `BENCH_<experiment>.json`
//! per selected experiment into DIR (the repo's bench trajectory:
//! `{"schema": "micdnn-bench-v1", "figure": ..., "data": ...}`), plus a
//! Chrome-trace JSON (`TRACE_overlap.json`) for the `overlap` experiment —
//! load it in `chrome://tracing` or Perfetto to see the loading thread
//! hide the PCIe transfers.
//!
//! Experiments: `fig7a fig7b fig8a fig8b fig9a fig9b fig10 table1 overlap
//! graph conv scaling socket threads multidev serve all` (default: `all`).
//! The first nine are the paper's evaluation (Figs. 7–10, Table I, §IV.A);
//! `scaling`, `socket` and `threads` sweep axes behind its claims; `graph`,
//! `conv`, `multidev` and `serve` measure this repository's extensions.
//!
//! Numbers are simulated seconds on the modeled Xeon Phi 5110P / Xeon E5620
//! platforms — see DESIGN.md for the substitution rationale and
//! EXPERIMENTS.md for paper-vs-measured commentary.

use micdnn::analytic::Algo;
use micdnn_bench::experiments as exp;
use std::path::PathBuf;

/// Schema tag of every emitted `BENCH_*.json`.
const BENCH_SCHEMA: &str = "micdnn-bench-v1";

/// Writes `BENCH_<figure>.json` into the bench directory.
fn emit_bench(dir: &Option<PathBuf>, figure: &str, data: serde_json::Value) {
    let Some(dir) = dir else { return };
    let doc = serde_json::json!({
        "schema": BENCH_SCHEMA,
        "figure": figure,
        "data": data
    });
    let path = dir.join(format!("BENCH_{figure}.json"));
    let text = serde_json::to_string_pretty(&doc).unwrap();
    std::fs::write(&path, text + "\n").unwrap_or_else(|e| {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    });
    eprintln!("wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let mut bench_dir: Option<PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench-dir" {
            let Some(dir) = it.next() else {
                eprintln!("--bench-dir needs a directory argument");
                std::process::exit(2);
            };
            bench_dir = Some(PathBuf::from(dir));
        } else if !a.starts_with("--") {
            wanted.push(a.clone());
        }
    }
    if let Some(dir) = &bench_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }
    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);

    let mut unknown: Vec<&String> = wanted
        .iter()
        .filter(|w| {
            !matches!(
                w.as_str(),
                "all"
                    | "fig7a"
                    | "fig7b"
                    | "fig8a"
                    | "fig8b"
                    | "fig9a"
                    | "fig9b"
                    | "fig10"
                    | "table1"
                    | "overlap"
                    | "graph"
                    | "conv"
                    | "scaling"
                    | "socket"
                    | "threads"
                    | "multidev"
                    | "serve"
            )
        })
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment(s): {unknown:?}");
        eprintln!(
            "known: fig7a fig7b fig8a fig8b fig9a fig9b fig10 table1 overlap graph conv scaling socket threads multidev serve all"
        );
        unknown.clear();
        std::process::exit(2);
    }

    type FigureFn = fn() -> exp::Figure;
    let figures: Vec<(&str, FigureFn)> = vec![
        ("fig7a", || exp::fig7(Algo::Autoencoder)),
        ("fig7b", || exp::fig7(Algo::Rbm)),
        ("fig8a", || exp::fig8(Algo::Autoencoder)),
        ("fig8b", || exp::fig8(Algo::Rbm)),
        ("fig9a", || exp::fig9(Algo::Autoencoder)),
        ("fig9b", || exp::fig9(Algo::Rbm)),
        ("fig10", exp::fig10),
    ];

    for (name, f) in figures {
        if want(name) {
            let fig = f();
            if json {
                println!("{}", serde_json::to_string_pretty(&fig).unwrap());
            } else {
                println!("{}", fig.render());
            }
            emit_bench(&bench_dir, name, serde_json::to_value(&fig));
        }
    }

    if want("fig10") && !json {
        let fig = exp::fig10();
        let phi = fig.get("Autoencoder", "Xeon Phi (60 cores)").unwrap();
        let matlab = fig.get("Autoencoder", "Matlab (host CPU)").unwrap();
        println!("Matlab / Phi speedup: {:.1}x (paper: ~16x)\n", matlab / phi);
    }

    if want("table1") {
        let t = exp::table1();
        if json {
            println!("{}", serde_json::to_string_pretty(&t).unwrap());
        } else {
            println!("{}", t.render());
            println!("(paper: fully-optimized ~300x baseline on 60 cores)\n");
        }
        emit_bench(&bench_dir, "table1", serde_json::to_value(&t));
    }

    if want("overlap") {
        let r = exp::overlap_experiment(6);
        if json {
            println!("{}", serde_json::to_string_pretty(&r).unwrap());
        } else {
            println!("{}", r.render());
        }
        if let Some(dir) = &bench_dir {
            // The trajectory entry replays the full §IV.A configuration:
            // enough 10 000 x 4096 chunks that double buffering hides >90%
            // of the transfer time, with the event trace recorded.
            const TRACED_CHUNKS: usize = 20;
            let (stats, trace) = exp::overlap_traced(TRACED_CHUNKS);
            let trace_path = dir.join("TRACE_overlap.json");
            std::fs::write(&trace_path, micdnn_sim::chrome_trace_json(&trace)).unwrap_or_else(
                |e| {
                    eprintln!("failed to write {}: {e}", trace_path.display());
                    std::process::exit(1);
                },
            );
            eprintln!("wrote {}", trace_path.display());
            emit_bench(
                &bench_dir,
                "overlap",
                serde_json::json!({
                    "comparison": serde_json::to_value(&r),
                    "traced_chunks": TRACED_CHUNKS as u64,
                    "traced_transfer_secs": stats.transfer_secs,
                    "traced_stall_secs": stats.stall_secs,
                    "traced_hidden_fraction": stats.hidden_fraction(),
                    "trace_file": "TRACE_overlap.json"
                }),
            );
        }
    }

    if want("graph") {
        let rows = exp::graph_ablation();
        if json {
            println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        } else {
            println!("== Fig. 6 — dependency-graph scheduling of one training step ==");
            println!(
                "{:<6}{:<22}{:>14}{:>14}{:>10}{:>14}{:>14}",
                "algo", "network", "serial", "graph", "speedup", "scratch", "planned"
            );
            for r in &rows {
                println!(
                    "{:<6}{:<22}{:>11.2} ms{:>11.2} ms{:>9.2}x{:>13}e{:>13}e",
                    r.algo,
                    r.network,
                    r.serial_secs * 1e3,
                    r.graph_secs * 1e3,
                    r.speedup,
                    r.scratch_elems,
                    r.planned_peak_elems
                );
            }
            println!();
        }
        emit_bench(&bench_dir, "graph", serde_json::to_value(&rows));
    }

    if want("conv") {
        let pts = exp::conv_ladder();
        if json {
            println!("{}", serde_json::to_string_pretty(&pts).unwrap());
        } else {
            println!("== Convolution lowering — naive direct vs im2col+GEMM, per rung ==");
            println!(
                "{:<12}{:<24}{:>12}{:>12}{:>10}{:>12}",
                "level", "network", "direct", "im2col", "speedup", "max |diff|"
            );
            for p in &pts {
                println!(
                    "{:<12}{:<24}{:>9.2} ms{:>9.2} ms{:>9.2}x{:>12.2e}",
                    p.level,
                    p.network,
                    p.direct_secs * 1e3,
                    p.im2col_secs * 1e3,
                    p.speedup,
                    p.max_abs_diff
                );
            }
            println!();
        }
        emit_bench(&bench_dir, "conv", serde_json::to_value(&pts));
    }

    if want("scaling") {
        let pts = exp::core_scaling();
        if json {
            println!("{}", serde_json::to_string_pretty(&pts).unwrap());
        } else {
            println!("== Core-count scaling, fully-optimized Autoencoder (1024x4096) ==");
            println!("{:<8}{:>14}{:>12}", "cores", "seconds", "speedup");
            for p in &pts {
                println!("{:<8}{:>13.1}s{:>11.1}x", p.cores, p.seconds, p.speedup);
            }
            println!();
        }
        emit_bench(&bench_dir, "scaling", serde_json::to_value(&pts));
    }

    if want("threads") {
        let pts = exp::thread_sweep();
        if json {
            println!("{}", serde_json::to_string_pretty(&pts).unwrap());
        } else {
            println!("== Thread count x affinity on the Xeon Phi (AE 1024x4096, 10k ex.) ==");
            println!(
                "{:<10}{:>14}{:>14}{:>14}",
                "threads", "Compact", "Scatter", "Balanced"
            );
            for &threads in &[15u32, 30, 60, 120, 180, 240] {
                print!("{threads:<10}");
                for aff in ["Compact", "Scatter", "Balanced"] {
                    let secs = pts
                        .iter()
                        .find(|p| p.threads == threads && p.affinity == aff)
                        .map(|p| p.seconds)
                        .unwrap_or(f64::NAN);
                    print!("{secs:>12.2} s");
                }
                println!();
            }
            println!("(in-order cores want >= 2 threads each; scatter engages cores fastest)\n");
        }
        emit_bench(&bench_dir, "threads", serde_json::to_value(&pts));
    }

    if want("multidev") {
        let pts = exp::multidev_sweep();
        if json {
            println!("{}", serde_json::to_string_pretty(&pts).unwrap());
        } else {
            println!("== Multi-device data-parallel Autoencoder (1024x256, batch 1024) ==");
            println!(
                "{:<10}{:>14}{:>12}{:>16}",
                "devices", "seconds", "speedup", "sync fraction"
            );
            for p in &pts {
                println!(
                    "{:<10}{:>13.3}s{:>11.2}x{:>15.1}%",
                    p.devices,
                    p.seconds,
                    p.speedup,
                    100.0 * p.sync_fraction
                );
            }
            println!("(same global batch at every N: the trained weights are bit-identical)\n");
        }
        emit_bench(&bench_dir, "multidev", serde_json::to_value(&pts));
    }

    if want("serve") {
        let sweep = exp::serve_sweep();
        if json {
            println!("{}", serde_json::to_string_pretty(&sweep).unwrap());
        } else {
            println!("== Batched inference serving (256->512->256->10, simulated Phi) ==");
            println!(
                "{:<14}{:>12}{:>10}{:>12}{:>12}{:>12}{:>12}",
                "pattern", "rate rps", "batch", "rps", "p50 ms", "p99 ms", "rows/b"
            );
            for p in &sweep.points {
                println!(
                    "{:<14}{:>12.0}{:>10}{:>12.1}{:>12.3}{:>12.3}{:>12.1}",
                    p.pattern,
                    p.rate_rps,
                    p.max_batch,
                    p.throughput_rps,
                    p.p50_latency_secs * 1e3,
                    p.p99_latency_secs * 1e3,
                    p.mean_batch_rows
                );
            }
            println!(
                "dynamic batching at the saturated bursty point: {:.1} rps vs {:.1} rps unbatched ({:.1}x)\n",
                sweep.bursty_batched_rps, sweep.bursty_unbatched_rps, sweep.batching_speedup
            );
        }
        emit_bench(&bench_dir, "serve", serde_json::to_value(&sweep));
    }

    if want("socket") {
        let (phi, cpu) = exp::phi_vs_cpu_socket();
        if json {
            println!(
                "{}",
                serde_json::json!({"phi_secs": phi, "cpu_socket_secs": cpu, "ratio": cpu / phi})
            );
        } else {
            println!("== Abstract claim — Phi vs full Xeon socket (AE, 1M examples) ==");
            println!("Xeon Phi: {phi:.1} s   Xeon E5620 socket: {cpu:.1} s   ratio {:.1}x (paper: 7-10x)\n", cpu / phi);
        }
        emit_bench(
            &bench_dir,
            "socket",
            serde_json::json!({"phi_secs": phi, "cpu_socket_secs": cpu, "ratio": cpu / phi}),
        );
    }
}
