//! Wall-and-simulated-clock benchmark of the micdnn library.
//!
//! `--workload W --trace 0` times one workload (end-to-end metrics),
//! `--workload W --trace 1` runs the per-layer probes and the traced run,
//! and without `--workload` every workload runs in a fresh child process
//! and the results are tabulated. See `README.md`.

mod api;
mod catalogue;
mod probes;
mod report;
mod scratch;
mod stats;
mod trace;
mod workloads;

use api::{json, json_from_str, Value};
use catalogue::{Spec, END_TO_END, PER_LAYER, RUN_SECONDS};
use probes::Layers;
use report::Reading;
use stats::{median, percentile, Summary};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use workloads::{Checks, Env, OpSplit, Repeat, Workload, NAMES};

const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--quick] [--out DIR]";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (one of {})",
                        NAMES.join(", ")
                    ));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = s;
            }
            "--trace" => {
                // Bare `--trace` switches tracing on; `--trace 0|1` sets it.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Set-ups per timed run: `setup_s` is their median, so that one slow
/// first touch of the data does not decide it.
const SETUPS: usize = 3;
/// Repeats a timed run makes at least, and at most.
const MIN_REPEATS: usize = 5;
const MAX_REPEATS: usize = 15;

fn spec(list: &'static [Spec], name: &str) -> &'static Spec {
    list.iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}

/// What a single run hands back: readings, tallies and failure messages.
struct Outcome {
    readings: Vec<Reading>,
    attempted: u64,
    failures: Vec<String>,
}

/// The timed run: set-up, repeats for `seconds`, then the simulated slice
/// and the checks, untimed.
fn timed_run(name: &str, args: &Args, env: &Env, started: Instant) -> Outcome {
    let (setups, min, max) = if args.quick {
        (1, 2, 2)
    } else {
        (SETUPS, MIN_REPEATS, MAX_REPEATS)
    };
    // The first set-up is measured from process start; each later one from
    // after the previous workload object (and its data) has been dropped.
    let mut setup_secs = Vec::new();
    let mut built = None;
    for i in 0..setups {
        drop(built.take());
        let t = if i == 0 { started } else { Instant::now() };
        built = Some(workloads::build(name, env));
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let mut w: Box<dyn Workload> = built.expect("at least one set-up");

    let mut repeats: Vec<Repeat> = Vec::new();
    let clock = Instant::now();
    while repeats.len() < max
        && (repeats.len() < min || clock.elapsed().as_secs_f64() < args.seconds)
    {
        repeats.push(w.repeat(repeats.len(), None));
    }
    let rss = report::peak_rss_mb();

    let mut checks = Checks::default();
    let (sim, again) = (w.sim_slice(), w.sim_slice());
    checks.expect(sim == again && sim.secs > 0.0, || {
        format!(
            "{name}: simulated slice gave {} then {} s",
            sim.secs, again.secs
        )
    });
    checks.expect(rss.is_some(), || "VmHWM is unreadable".to_string());
    w.check(&repeats, &mut checks);

    let rates: Vec<f64> = repeats.iter().map(Repeat::examples_per_s).collect();
    let rate = Summary::of(&rates);
    let setup = Summary::of(&setup_secs);
    println!(
        "workload {name}: seed {} ({} repeats)",
        env.seed,
        repeats.len()
    );
    let values = [
        ("examples_per_s", rate.median, rate.n, Some(&rate)),
        ("sim_phi_s", sim.secs, 2, None),
        ("setup_s", setup.median, setup.n, Some(&setup)),
        ("peak_rss_mb", rss.unwrap_or(f64::NAN), 1, None),
    ];
    let readings = values
        .iter()
        .map(|&(metric, value, n, summary)| {
            let s = spec(END_TO_END, metric);
            println!("{}", report::describe(s, value, n, summary));
            Reading::new(s, value)
        })
        .collect();
    Outcome {
        readings,
        attempted: repeats.len() as u64 + checks.attempted,
        failures: checks.failures,
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// What the spans and the profiler of one workload's traced repeats say
/// about its layers. `repeats` may hold untraced repeats too; they carry no
/// op split and are not counted.
fn traced_layers(name: &str, tr: &Tracer, repeats: &[Repeat], w: &dyn Workload, out: &mut Layers) {
    let steps = tr.secs_of("step");
    let step_total: f64 = steps.iter().sum();
    let ops = OpSplit::sum_of(repeats);
    let traced = repeats.iter().filter(|r| r.ops.is_some()).count();
    let wait_share = share(tr.total_secs("loader.next"), tr.total_secs("repeat"));
    let n = steps.len();
    match name {
        "ae_wide" => {
            out.put("step.ae_wide_ms_p50", median(&steps) * 1e3, n);
            out.put("step.ae_wide_gemm_share", share(ops.gemm, step_total), n);
            out.put("loader.ae_wide_wait_share", wait_share, traced);
            let sim = w.sim_slice();
            let stream = sim.stream.expect("a training slice has loader statistics");
            out.put("stream.sim_hidden_fraction", stream.hidden_fraction(), 1);
            out.put("stream.sim_stall_s", stream.stall_secs, 1);
        }
        "rbm_small_wave" => {
            out.put("step.rbm_small_wave_us_p50", median(&steps) * 1e6, n);
            out.put(
                "step.rbm_small_wave_us_p95",
                percentile(&steps, 95.0) * 1e6,
                n,
            );
            out.put(
                "step.rbm_small_wave_gemm_share",
                share(ops.gemm, step_total),
                n,
            );
            let kernel = share(ops.total(), step_total);
            out.put("graph.cd1_small_nonkernel_share", 1.0 - kernel, n);
            out.put("loader.rbm_small_wave_wait_share", wait_share, traced);
            let waits = tr.secs_of("loader.next");
            out.put("loader.next_us_p50", median(&waits) * 1e6, waits.len());
        }
        "digits_pipeline" => {
            out.put("step.finetune_ms_p50", median(&steps) * 1e3, n);
            for (metric, span) in [
                ("pipeline.data_s", "pipeline.data"),
                ("pipeline.pretrain_s", "pipeline.pretrain"),
                ("pipeline.finetune_s", "pipeline.finetune"),
                ("pipeline.persist_s", "pipeline.persist"),
                ("pipeline.serve_s", "pipeline.serve"),
            ] {
                let secs = tr.secs_of(span);
                out.put(metric, median(&secs), secs.len());
            }
        }
        "cnn_ckpt" => {
            out.put("step.cnn_ms_p50", median(&steps) * 1e3, n);
            out.put("step.cnn_gemm_share", share(ops.gemm, step_total), n);
            let saves = tr.secs_of("ckpt.save");
            let stall = share(saves.iter().sum(), tr.total_secs("repeat"));
            out.put("ckpt.cnn_stall_share", stall, saves.len());
        }
        other => unreachable!("workload `{other}` is validated at entry"),
    }
}

/// The per-layer run: every workload once under spans (the one named on
/// the command line twice, with an untraced repeat between for the tracing
/// overhead), then the probes. Writes `TRACE_<workload>.json`.
fn layers_run(target: &str, args: &Args, env: &Env) -> Outcome {
    let mut layers = Layers::default();
    let mut checks = Checks::default();
    let mut attempted = 0u64;
    for name in NAMES {
        let mut w = workloads::build(name, env);
        let mut tr = Tracer::new();
        let mut repeats = vec![w.repeat(0, Some(&mut tr))];
        if name == target {
            repeats.push(w.repeat(1, None));
            repeats.push(w.repeat(2, Some(&mut tr)));
        }
        attempted += repeats.len() as u64;
        traced_layers(name, &tr, &repeats, w.as_ref(), &mut layers);
        if name != target {
            continue;
        }

        let traced = [repeats[0].examples_per_s(), repeats[2].examples_per_s()];
        let ratio = median(&traced) / repeats[1].examples_per_s();
        layers.put("trace.overhead_ratio", ratio, traced.len());
        // Traced and untraced repeats of one seed do the same arithmetic:
        // their losses must be bit-equal too.
        w.check(&repeats, &mut checks);

        let ops = OpSplit::sum_of(&repeats);
        let counters: Vec<(String, f64)> = tr
            .self_secs_by_name()
            .into_iter()
            .map(|(span, secs)| (format!("self_s.{span}"), secs))
            .chain([
                ("ops_s.gemm".to_string(), ops.gemm),
                ("ops_s.elementwise".to_string(), ops.elementwise),
                ("ops_s.sample".to_string(), ops.sample),
                ("ops_s.reduce".to_string(), ops.reduce),
            ])
            .collect();
        println!("traced run of {name}: self time by span, op time by kind");
        for (key, secs) in &counters {
            println!("  {key:<40} {secs:>12.6} s");
        }
        let path = args.out.join(format!("TRACE_{name}.json"));
        let doc = tr.chrome_trace(name, &counters).to_string();
        let written = std::fs::write(&path, doc + "\n");
        checks.expect(written.is_ok(), || {
            format!("cannot write {}", path.display())
        });
        println!("wrote {}", path.display());
    }

    let rbm = workloads::RbmSmallWave::new(env);
    let best_speedup = probes::kernels(env, &mut layers);
    probes::fork_join(env, &mut layers);
    probes::graph(env, rbm.data(), &mut layers);
    probes::train_loop(env, &rbm, &mut layers);
    probes::data(env, &mut layers);
    probes::persistence(env, &mut layers);
    probes::serving(env, &mut layers);
    probes::multidev(env, &mut layers);

    // Gates that survive a machine change; never absolute seconds.
    let ratio = layers.get("kernels.gemm.blocked_over_naive").unwrap_or(0.0);
    checks.expect(ratio >= 3.0, || {
        format!("gate: blocked GEMM only {ratio:.2}x the naive triple loop (>= 3 required)")
    });
    // The fastest samples decide, so that a busy neighbour cannot fail the
    // gate; smoke sizes are too small for a speed-up to mean anything.
    let threads = api::current_num_threads();
    checks.expect(args.quick || threads <= 1 || best_speedup >= 1.0, || {
        format!(
            "gate: fastest parallel GEMM {best_speedup:.2}x the fastest sequential one \
             on {threads} threads (>= 1 required)"
        )
    });

    println!(
        "per-layer metrics (traced workload {target}, seed {}):",
        env.seed
    );
    let readings = PER_LAYER
        .iter()
        .map(|s| {
            let m = layers
                .values
                .iter()
                .find(|m| m.name == s.name)
                .unwrap_or_else(|| panic!("per-layer metric `{}` was not measured", s.name));
            println!("{}", report::describe(s, m.value, m.samples, None));
            Reading::new(s, m.value)
        })
        .collect();
    assert_eq!(
        layers.values.len(),
        PER_LAYER.len(),
        "a metric outside the catalogue"
    );
    Outcome {
        readings,
        attempted: attempted + layers.values.len() as u64 + checks.attempted,
        failures: checks.failures,
    }
}

/// One workload in this process. Prints the result line last.
fn single(name: &str, args: &Args, started: Instant) -> ExitCode {
    let env = Env {
        seed: args.seed,
        quick: args.quick,
        out: args.out.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let outcome = if args.trace {
        layers_run(name, args, &env)
    } else {
        timed_run(name, args, &env, started)
    };
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    let failed = outcome.failures.len() as u64;
    println!(
        "{}",
        report::result_line(outcome.attempted, failed, &outcome.readings)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs `--workload name` in a fresh child process and returns its parsed
/// result line, echoing the child's other output.
fn child(name: &str, args: &Args, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child and collects what it printed.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let doc: Value =
        json_from_str(last).map_err(|e| format!("{name}: no result line ({e}): {last}"))?;
    if !out.status.success() || doc.get_field("correct").and_then(Value::as_bool) != Some(true) {
        println!("{name}: run failed ({})", out.status);
    }
    Ok(doc)
}

fn metric_value(doc: &Value, name: &str) -> Option<f64> {
    doc.get_field("metrics")?
        .get_field(name)?
        .get_field("value")?
        .as_f64()
}

/// Every workload in a child process each; with `--trace` a second, traced
/// child per workload. Prints the table and writes the suite document.
fn suite(args: &Args) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let mut ok = true;
    let mut documents: Vec<(String, Value)> = Vec::new();
    let mut layer_docs: Vec<Value> = Vec::new();
    for name in NAMES {
        let mut entry: Vec<(String, Value)> = Vec::new();
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            match child(name, args, trace) {
                Ok(doc) => {
                    ok &= doc.get_field("correct").and_then(Value::as_bool) == Some(true);
                    if trace {
                        layer_docs.push(doc.clone());
                    }
                    let key = if trace { "per_layer" } else { "end_to_end" };
                    entry.push((key.to_string(), doc));
                }
                Err(e) => {
                    println!("FAILED: {e}");
                    ok = false;
                }
            }
        }
        documents.push((name.to_string(), Value::Object(entry)));
    }

    println!(
        "\nend-to-end metrics (seed {}, {} s per run):",
        args.seed, args.seconds
    );
    for (name, doc) in &documents {
        println!(" {name}");
        let Some(run) = doc.get_field("end_to_end") else {
            continue;
        };
        for s in END_TO_END {
            if let Some(v) = metric_value(run, s.name) {
                println!("{}", report::describe(s, v, 1, None));
            }
        }
    }
    if !layer_docs.is_empty() {
        // Each traced child measured every layer: report the median of the
        // children, and the worst workload for the tracing overhead.
        println!(
            "\nper-layer metrics (median over {} traced runs):",
            layer_docs.len()
        );
        for s in PER_LAYER {
            let values: Vec<f64> = layer_docs
                .iter()
                .filter_map(|d| metric_value(d, s.name))
                .collect();
            if values.is_empty() {
                continue;
            }
            let value = if s.name == "trace.overhead_ratio" {
                values.iter().copied().fold(f64::INFINITY, f64::min)
            } else {
                median(&values)
            };
            println!("{}", report::describe(s, value, values.len(), None));
            println!("  {:<40} moves: {}", "", s.moves);
        }
    }
    let path = args.out.join("BENCH_suite.json");
    let doc = report::suite_document(args.seed, args.quick, documents);
    match std::fs::write(&path, doc.to_string() + "\n") {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => {
            println!("FAILED: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    println!("{}", json!({ "suite_correct": ok }));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // At most four threads, so that results from bigger machines stay
    // comparable; an explicit RAYON_NUM_THREADS wins. Set before the first
    // parallel region reads it, while this is the only thread.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        let n = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(4);
        std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    }
    match &args.workload {
        Some(name) => single(name, &args, started),
        None => suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn driver_form_and_bare_trace_both_parse() {
        let a = parse("--workload ae_wide --seed 7 --seconds 3 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("ae_wide"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, false));
        assert!(parse("--workload cnn_ckpt --trace 1").unwrap().trace);
        let b = parse("--trace --quick").unwrap();
        assert!(b.trace && b.quick && b.workload.is_none());
        assert!(parse("--trace --seed 3").unwrap().trace);
    }

    #[test]
    fn bad_input_is_refused_where_it_enters() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds inf").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
