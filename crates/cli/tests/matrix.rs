//! The CLI matrix: every subcommand, every exit-2 path and the training
//! flag families, run against the real binary and pinned as one golden
//! transcript.
//!
//! `matrix_manifest.txt` lists the commands. They run in order in one
//! scratch directory, and `tests/golden/cli_matrix.txt` records, per
//! command, the exit code and digests of stdout, stderr and every file the
//! command created or changed. The scratch path is replaced by `$D` before
//! hashing, and so are the readings that depend on the wall clock rather
//! than on the argv. Those are masked by name: the `wall s` column of the
//! profile's phase table and the `wall_secs` fields of the profile JSON.
//! The whole matrix runs at the default thread count and at
//! `RAYON_NUM_THREADS=1`; both transcripts must equal the golden.
//! `UPDATE_GOLDEN=1` rewrites the golden file instead.
//!
//! A `failpoints` build answers `--inject` differently, so the matrix runs
//! in default builds only.
#![cfg(not(feature = "failpoints"))]

use micdnn::TestDir;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

const MANIFEST: &str = include_str!("matrix_manifest.txt");
const SMALL: &str = "--examples 40 --side 8 --batch 10 --chunk 20 --passes 3";

/// 64-bit FNV-1a.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `text` with the scratch path and every wall-clock reading masked.
fn mask(text: &str, dir: &str) -> String {
    let mut out = String::new();
    let mut in_phase_table = false;
    for line in text.replace(dir, "$D").split_inclusive('\n') {
        let body = line.trim_end_matches('\n');
        let masked = if body.ends_with("wall s") {
            in_phase_table = true;
            body.to_string()
        } else if in_phase_table && is_phase_row(body) {
            let cut = body.trim_end().rfind(' ').map_or(0, |i| i + 1);
            format!("{}<wall>", &body[..cut])
        } else if let Some(at) = body.find("\"wall_secs\":") {
            in_phase_table = false;
            let comma = if body.ends_with(',') { "," } else { "" };
            format!("{}\"wall_secs\": <wall>{comma}", &body[..at])
        } else {
            in_phase_table = false;
            body.to_string()
        };
        out.push_str(&masked);
        out.push_str(&line[body.len()..]);
    }
    out
}

/// A row of the profile's phase table: a name, a count, then the
/// simulated and wall seconds.
fn is_phase_row(line: &str) -> bool {
    let cols: Vec<&str> = line.split_whitespace().collect();
    cols.len() == 4 && cols[1..].iter().all(|c| c.parse::<f64>().is_ok())
}

/// Digest of every file under `root`, keyed by its path relative to `dir`.
fn snapshot(dir: &Path, root: &Path, into: &mut BTreeMap<PathBuf, u64>) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for entry in entries.map(|e| e.expect("readable scratch entry")) {
        let path = entry.path();
        if path.is_dir() {
            snapshot(dir, &path, into);
            continue;
        }
        let bytes = std::fs::read(&path).expect("readable scratch file");
        let hash = match std::str::from_utf8(&bytes) {
            Ok(text) => digest(mask(text, dir.to_str().expect("utf-8 path")).as_bytes()),
            Err(_) => digest(&bytes),
        };
        let rel = path.strip_prefix(dir).expect("under the scratch dir");
        into.insert(rel.to_path_buf(), hash);
    }
}

/// Runs the manifest in a fresh directory; `threads` pins
/// `RAYON_NUM_THREADS` when given.
fn transcript(threads: Option<&str>) -> String {
    let scratch = TestDir::new(&format!("cli-matrix-{}", threads.unwrap_or("default")));
    let dir = scratch.path();
    let d = dir.to_str().expect("utf-8 scratch path");
    let mut out = String::new();
    for line in MANIFEST.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (want, argv) = line.split_once(' ').unwrap_or((line, ""));
        let want: i32 = want
            .parse()
            .expect("manifest line starts with an exit code");
        let mut before = BTreeMap::new();
        snapshot(dir, dir, &mut before);

        let mut cmd = Command::new(env!("CARGO_BIN_EXE_micdnn"));
        cmd.args(
            argv.replace("$SMALL", SMALL)
                .replace("$D", d)
                .split_whitespace(),
        )
        .current_dir(dir)
        .env_remove("RUST_BACKTRACE");
        match threads {
            Some(n) => cmd.env("RAYON_NUM_THREADS", n),
            None => cmd.env_remove("RAYON_NUM_THREADS"),
        };
        let run = cmd.output().expect("spawn micdnn");
        let stderr = String::from_utf8_lossy(&run.stderr);
        let code = run.status.code().expect("micdnn exited, not signalled");
        assert_eq!(code, want, "micdnn {argv}\nstderr: {stderr}");

        let stdout = mask(&String::from_utf8_lossy(&run.stdout), d);
        writeln!(
            out,
            "micdnn {argv}\n  exit {code}  stdout {:016x}  stderr {:016x}",
            digest(stdout.as_bytes()),
            digest(mask(&stderr, d).as_bytes())
        )
        .expect("write to String");
        let mut after = BTreeMap::new();
        snapshot(dir, dir, &mut after);
        for (path, hash) in after {
            if before.get(&path) != Some(&hash) {
                writeln!(out, "  file {} {hash:016x}", path.display()).expect("write to String");
            }
        }
    }
    out
}

#[test]
fn cli_matrix_matches_golden_at_default_and_one_thread() {
    let (default, one) = std::thread::scope(|s| {
        let one = s.spawn(|| transcript(Some("1")));
        let default = transcript(None);
        (default, one.join().expect("one-thread matrix"))
    });
    assert!(
        default == one,
        "the CLI matrix depends on the thread count:\n{}",
        first_difference(&default, &one)
    );

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/cli_matrix.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &default).expect("write the golden");
        eprintln!("updated {path}");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("missing tests/golden/cli_matrix.txt (regenerate with UPDATE_GOLDEN=1)");
    assert!(
        default == golden,
        "CLI behaviour differs from tests/golden/cli_matrix.txt (regenerate with \
         UPDATE_GOLDEN=1 if intended):\n{}",
        first_difference(&golden, &default)
    );
}

/// The first differing line of two transcripts, with the command it
/// belongs to.
fn first_difference(want: &str, got: &str) -> String {
    let mut command = "";
    for (w, g) in want.lines().zip(got.lines()) {
        if w.starts_with("micdnn") {
            command = w;
        }
        if w != g {
            return format!("{command}\n  want: {w}\n  got:  {g}");
        }
    }
    format!(
        "one transcript is a prefix of the other ({} vs {} lines)",
        want.lines().count(),
        got.lines().count()
    )
}

#[test]
fn masking_hides_wall_clock_readings_only() {
    let profile = "  phase                count      sim s     wall s\n  \
                   forward                  2     1.0000     0.0123\n  \
                   stream: 4 chunks\n";
    assert_eq!(
        mask(profile, "/x"),
        "  phase                count      sim s     wall s\n  \
         forward                  2     1.0000     <wall>\n  \
         stream: 4 chunks\n"
    );
    assert_eq!(
        mask("  \"sim_secs\": 1.0,\n  \"wall_secs\": 0.25\n}\n", "/x"),
        "  \"sim_secs\": 1.0,\n  \"wall_secs\": <wall>\n}\n"
    );
    assert_eq!(mask("wrote /x/f\n", "/x"), "wrote $D/f\n");
}
