//! Hard-kill durability for `--supervise` (requires `--features
//! failpoints`): a supervised run is SIGKILLed mid-leg after its ladder
//! has already rolled back once, then a brand-new process resumes with
//! `--supervise --resume`. The resumed process must restore the ladder
//! counters and the pre-kill incident log, complete the run, and save a
//! model byte-for-byte equal to an uninterrupted run's.

use micdnn::TestDir;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Shared tiny-workload flags: 6 batches/epoch, 3 chunks/epoch.
const BASE: &[&str] = &[
    "train",
    "--algo",
    "ae",
    "--examples",
    "120",
    "--side",
    "8",
    "--hidden",
    "10",
    "--batch",
    "20",
    "--chunk",
    "40",
    "--passes",
    "4",
];

fn micdnn(extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_micdnn"));
    cmd.args(BASE).args(extra);
    cmd
}

fn assert_ok(out: &std::process::Output) -> String {
    assert!(
        out.status.success(),
        "micdnn failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Polls until `f` is true or the deadline passes.
fn wait_for(what: &str, deadline: Duration, mut f: impl FnMut() -> bool) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn hard_kill_mid_leg_resumes_with_ladder_and_incidents_intact() {
    let dir = TestDir::new("cli-sup-kill");
    let ckpt = dir.file("ckpt");
    let ckpt_str = ckpt.to_str().unwrap().to_string();
    let incidents = dir.file("incidents.jsonl");
    let incidents_str = incidents.to_str().unwrap().to_string();
    let straight = dir.file("straight.bin");
    let resumed = dir.file("resumed.bin");

    // Reference: an uninterrupted, unsupervised run of the same 4 epochs.
    assert_ok(
        &micdnn(&["--save", straight.to_str().unwrap()])
            .output()
            .unwrap(),
    );

    // Chaos leg: a NaN chunk forces one rollback early (bit-identical at
    // lr-backoff 1.0), and from the 4th chunk read on every chunk stalls
    // 120 ms — pacing the run so the kill reliably lands mid-leg.
    let sup_flags = [
        "--supervise",
        "--lr-backoff",
        "1.0",
        "--snapshot-every",
        "5",
        "--checkpoint-dir",
        &ckpt_str,
        "--checkpoint-every",
        "5",
        "--incidents",
        &incidents_str,
    ];
    let mut child = micdnn(&sup_flags)
        .args(["--inject", "kernel.nan:1@1,loader.stall:1000000@4"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // Wait until the ladder event is durable (rollback in the JSONL) and
    // a training checkpoint exists, then SIGKILL mid-leg.
    let incidents_path = incidents.clone();
    let ckpt_file = ckpt.join("checkpoint.mic");
    wait_for(
        "rollback incident + checkpoint on disk",
        Duration::from_secs(30),
        || {
            if let Ok(Some(status)) = child.try_wait() {
                panic!("supervised run finished before the kill (status {status})");
            }
            checkpointed(&ckpt_file) && jsonl_has(&incidents_path, "\"kind\":\"rollback\"")
        },
    );
    child.kill().unwrap();
    let _ = child.wait();

    let pre_kill = std::fs::read_to_string(&incidents).unwrap();
    assert!(pre_kill.contains("\"kind\":\"rollback\""), "{pre_kill}");

    // Resume in a brand-new process, faults disarmed: the ladder counters
    // come back from supervisor.mic, the incident log from the JSONL.
    assert!(
        ckpt.join("supervisor.mic").exists(),
        "durable ladder state missing"
    );
    let out = assert_ok(
        &micdnn(&sup_flags)
            .args(["--resume", "--save", resumed.to_str().unwrap()])
            .output()
            .unwrap(),
    );
    assert!(
        out.contains("supervisor: resumed ladder (rollbacks 1, restarts 0, lr x1)"),
        "{out}"
    );
    assert!(
        out.contains("supervisor: ladder rollbacks 1, restarts 0, lr x1"),
        "{out}"
    );

    // No incident was lost across the kill: the pre-kill rollback (and
    // its lr-backoff companion) are still in the final log.
    let final_log = std::fs::read_to_string(&incidents).unwrap();
    assert!(
        final_log.starts_with("{\"schema\":\"micdnn-incidents-v2\"}\n"),
        "{final_log}"
    );
    assert!(final_log.contains("\"kind\":\"rollback\""), "{final_log}");
    assert!(final_log.contains("\"kind\":\"lr-backoff\""), "{final_log}");

    // And the completed run is byte-for-byte the uninterrupted run.
    let a = std::fs::read(&straight).unwrap();
    let b = std::fs::read(&resumed).unwrap();
    assert_eq!(
        a, b,
        "resumed supervised run diverged from the straight run"
    );
}

fn checkpointed(path: &Path) -> bool {
    path.exists()
}

fn jsonl_has(path: &Path, needle: &str) -> bool {
    std::fs::read_to_string(path)
        .map(|t| t.contains(needle))
        .unwrap_or(false)
}
