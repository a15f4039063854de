//! `--inject` end to end (requires `--features failpoints`): the CLI arms
//! the failpoint registry, the supervisor recovers, and the incident log
//! lands on disk.
//!
//! The registry is process-global, so the tests in this binary serialize
//! on [`LOCK`]; this file deliberately holds every failpoints-armed CLI
//! test so no unrelated test shares the process.

use micdnn_cli::run;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn sv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

fn base_args() -> Vec<String> {
    sv(&[
        "train",
        "--examples",
        "120",
        "--side",
        "8",
        "--hidden",
        "12",
        "--passes",
        "2",
        "--batch",
        "20",
        "--chunk",
        "40",
    ])
}

#[test]
fn injected_faults_recover_and_export_incidents() {
    let _g = LOCK.lock().unwrap();
    micdnn::faults::clear_all();
    let clean = run(&base_args()).unwrap();

    let dir = micdnn::TestDir::new("cli-inject");
    let path = dir.file("incidents.json");
    let mut argv = base_args();
    argv.extend(sv(&[
        "--supervise",
        "--lr-backoff",
        "1.0",
        "--snapshot-every",
        "5",
        "--inject",
        "loader.read:1,kernel.nan:1@1",
        "--incidents",
        path.to_str().unwrap(),
    ]));
    let out = run(&argv).unwrap();
    micdnn::faults::clear_all();

    // The reconstruction line must match the fault-free run exactly —
    // retry plus rollback at lr-backoff 1.0 is bit-identical.
    let recon = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("reconstruction"))
            .map(str::to_string)
            .expect("reconstruction line")
    };
    assert_eq!(
        recon(&clean),
        recon(&out),
        "clean:\n{clean}\nfaulted:\n{out}"
    );

    let text = std::fs::read_to_string(&path).unwrap();
    // v2 JSONL: schema header line, then one record per line, each
    // stamped with the pipeline stage it occurred in.
    assert!(
        text.starts_with("{\"schema\":\"micdnn-incidents-v2\"}\n"),
        "{text}"
    );
    assert!(text.contains("loader-retry"), "{text}");
    assert!(text.contains("rollback"), "{text}");
    assert!(text.contains("\"stage\":\"pretrain\""), "{text}");
}

#[test]
fn bad_inject_spec_is_rejected_up_front() {
    let _g = LOCK.lock().unwrap();
    micdnn::faults::clear_all();
    let err = run(&sv(&["train", "--inject", "loader.read=1"])).unwrap_err();
    micdnn::faults::clear_all();
    assert!(err.contains("--inject"), "{err}");
}

/// `serve --inject kernel.nan:1` end to end: the poisoned batch fails
/// exactly one request and the server completes the rest of the trace.
#[test]
fn serve_kernel_nan_degrades_one_request() {
    let _g = LOCK.lock().unwrap();
    micdnn::faults::clear_all();
    let out = run(&sv(&[
        "serve",
        "--requests",
        "24",
        "--rate",
        "5000",
        "--pattern",
        "bursty",
        "--burst",
        "8",
        "--max-batch",
        "8",
        "--platform",
        "phi",
        "--side",
        "8",
        "--sizes",
        "16",
        "--classes",
        "3",
        "--inject",
        "kernel.nan:1@1",
    ]))
    .unwrap();
    micdnn::faults::clear_all();
    assert!(
        out.contains("failed 1"),
        "exactly one failed request:\n{out}"
    );
    assert!(out.contains("completed 23"), "{out}");
    assert!(out.contains("rejected 0"), "{out}");
}
