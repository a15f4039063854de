//! Process-boundary checkpoint/resume tests against the real binary.
//!
//! The in-process tests in `tests/checkpoint_resume.rs` prove the state
//! round-trips through disk; these prove it survives an actual process
//! exit: `micdnn train` runs N epochs and dies, a *new* process resumes
//! from the checkpoint directory, and the model file it saves is
//! byte-for-byte the file an uninterrupted 2N-epoch process writes. State
//! a process finds on disk may also be hostile: it must then exit 2 with a
//! one-line message, never panic or overflow its stack.

use micdnn::TestDir;
use std::process::Command;

/// Runs `micdnn train` with the shared tiny-workload flags plus `extra`.
fn train(algo: &str, extra: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_micdnn"));
    cmd.args([
        "train",
        "--algo",
        algo,
        "--examples",
        "120",
        "--side",
        "8",
        "--hidden",
        "10",
        "--batch",
        "30",
        "--chunk",
        "60",
    ]);
    cmd.args(extra);
    cmd.output().expect("failed to spawn micdnn")
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

fn resume_matches_straight_run(algo: &str, extra: &[&str]) {
    let dir = TestDir::new(&format!("cli-ckpt-{algo}"));
    let straight = dir.file("straight.bin");
    let resumed = dir.file("resumed.bin");
    let ckpt_dir = dir.file("ckpt");
    let ckpt_str = ckpt_dir.to_str().unwrap();

    // Reference: one process trains 4 epochs straight.
    let mut args = vec!["--passes", "4", "--save", straight.to_str().unwrap()];
    args.extend_from_slice(extra);
    assert_ok(&train(algo, &args));

    // Leg 1: a process trains 2 epochs, checkpointing, then exits.
    let mut args = vec![
        "--passes",
        "2",
        "--checkpoint-dir",
        ckpt_str,
        "--checkpoint-every",
        "3",
    ];
    args.extend_from_slice(extra);
    let out = assert_ok(&train(algo, &args));
    assert!(out.contains("checkpoint written"), "{out}");
    assert!(ckpt_dir.join("checkpoint.mic").exists());

    // Leg 2: a brand-new process resumes to 4 total epochs.
    let mut args = vec![
        "--passes",
        "4",
        "--checkpoint-dir",
        ckpt_str,
        "--resume",
        "--save",
        resumed.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let out = assert_ok(&train(algo, &args));
    assert!(out.contains("resumed"), "{out}");

    let a = std::fs::read(&straight).unwrap();
    let b = std::fs::read(&resumed).unwrap();
    assert_eq!(
        a, b,
        "{algo}: resumed model file differs from the uninterrupted run"
    );
}

#[test]
fn ae_resume_across_processes_is_bit_identical() {
    resume_matches_straight_run("ae", &[]);
}

#[test]
fn ae_momentum_resume_across_processes_is_bit_identical() {
    resume_matches_straight_run("ae", &["--momentum", "0.8"]);
}

#[test]
fn rbm_momentum_resume_across_processes_is_bit_identical() {
    resume_matches_straight_run("rbm", &["--momentum", "0.6"]);
}

#[test]
fn resume_without_checkpoint_dir_is_an_error() {
    let out = train("ae", &["--passes", "2", "--resume"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--resume requires --checkpoint-dir"), "{err}");
}

#[test]
fn resume_with_wrong_algo_is_an_error() {
    let dir = TestDir::new("cli-ckpt-wrong-algo");
    let ckpt_dir = dir.file("ckpt");
    let ckpt_str = ckpt_dir.to_str().unwrap();
    assert_ok(&train(
        "ae",
        &["--passes", "1", "--checkpoint-dir", ckpt_str],
    ));
    let out = train(
        "rbm",
        &["--passes", "2", "--checkpoint-dir", ckpt_str, "--resume"],
    );
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("different model type"), "{err}");
}

#[test]
fn corrupt_checkpoint_reports_cleanly() {
    let dir = TestDir::new("cli-ckpt-corrupt");
    let ckpt_dir = dir.file("ckpt");
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    std::fs::write(ckpt_dir.join("checkpoint.mic"), b"garbage bytes").unwrap();
    let out = train(
        "ae",
        &[
            "--passes",
            "2",
            "--checkpoint-dir",
            ckpt_dir.to_str().unwrap(),
            "--resume",
        ],
    );
    assert!(!out.status.success(), "corrupt checkpoint accepted");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot load checkpoint"), "{err}");
}

/// An incident log that is 200 000 unclosed `[`: deeper than the JSON
/// reader's nesting cap, and deep enough to overflow a recursive parser.
fn deep_log(path: &std::path::Path) {
    std::fs::write(path, "[".repeat(200_000)).unwrap();
}

#[test]
fn incidents_on_a_deeply_nested_log_exits_2_with_one_line() {
    let dir = TestDir::new("cli-incidents-deep");
    let log = dir.file("deep.jsonl");
    deep_log(&log);
    let out = Command::new(env!("CARGO_BIN_EXE_micdnn"))
        .args(["incidents", log.to_str().unwrap()])
        .output()
        .expect("failed to spawn micdnn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(out.stdout.is_empty());
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("nested deeper than 128"), "{err}");
}

#[test]
fn supervised_resume_rejects_a_deeply_nested_incident_log() {
    let dir = TestDir::new("cli-resume-deep");
    let ckpt = dir.file("ckpt");
    let log = dir.file("incidents.jsonl");
    let (ckpt, log_str) = (ckpt.to_str().unwrap(), log.to_str().unwrap());
    let sup = [
        "--supervise",
        "--checkpoint-dir",
        ckpt,
        "--incidents",
        log_str,
    ];
    assert_ok(&train("ae", &[&["--passes", "1"], &sup[..]].concat()));
    deep_log(&log);
    let out = train("ae", &[&["--passes", "2", "--resume"], &sup[..]].concat());
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("nested deeper than 128"), "{err}");
}
