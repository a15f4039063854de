//! Workspace tooling: `cargo run -p xtask -- lint` and
//! `cargo run -p xtask -- loc`.
//!
//! `loc` prints, per file and in total for `crates/core/src` and
//! `crates/cli/src`, the number of lines above the first `#[cfg(test)]` —
//! the non-test line count a simplicity PR quotes before and after — and
//! then the same count over every `src/` and `benches/` tree under
//! `crates/` (shims and this tool included), so a deletion outside
//! `core` + `cli` is counted and code moved between crates cannot read as a
//! reduction, followed by one subtotal per crate so such a deletion shows
//! where it landed.
//!
//! `lint`: four rules guard the executor's safety story (see DESIGN.md §4.2):
//!
//! * **safety-comment** — every `unsafe` block or impl anywhere under
//!   `crates/` must be preceded (within a few lines) by a `// SAFETY:`
//!   comment stating the invariant it relies on;
//! * **no-panic-in-hot-path** — no `unwrap()` / `expect()` / `panic!` in
//!   the kernel hot paths (`crates/kernels`, `crates/tensor`); kernels are
//!   called per batch and must fail through `Result` at the boundaries,
//!   not abort mid-training; the serving event loop
//!   (`crates/core/src/serve.rs`) and the multi-device block-merge path
//!   (`crates/core/src/multidev.rs`) run per batch too and are held to the
//!   same rule;
//! * **no-unchecked-indexing** — no `get_unchecked` / `get_unchecked_mut`
//!   in `crates/kernels`; slice bounds checks are the last line of defense
//!   under the graph executor's aliased registers;
//! * **lossy-as-cast** — no `as` cast to a narrow numeric type (`u8`/`i8`/
//!   `u16`/`i16`/`u32`/`i32`/`f32`) in the kernel hot paths; `as` truncates
//!   and rounds silently, so each narrowing site must be allowlisted with
//!   a reason or rewritten with `try_from` / explicit clamping.
//!
//! Sanctioned exceptions live in `crates/xtask/lint-allow.txt` as
//! `path-suffix|rule|line-substring` triples; entries are content-keyed so
//! they do not rot with line numbers, and *unused* entries fail the lint
//! so the allowlist stays honest.
//!
//! Scanning is line-based: string-literal and `//`-comment contents are
//! stripped before token matching (single-line literals only — multi-line
//! strings containing rule tokens should be reworded), and everything from
//! a `#[cfg(test)]` line to the end of the file is skipped, matching this
//! workspace's convention of one trailing test module per file. The
//! `crates/xtask` tree itself and `target/` are not scanned.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo run -p xtask -- lint|loc";

/// Lookback window (in lines) within which a `// SAFETY:` comment must
/// appear before an `unsafe` token — generous enough for a multi-line
/// invariant argument between the `SAFETY:` opener and the `unsafe` site.
const SAFETY_LOOKBACK: usize = 14;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") if args.len() == 1 => lint(),
        Some("loc") if args.len() == 1 => loc(),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn workspace_root() -> PathBuf {
    // crates/xtask/ -> crates/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels under the workspace root")
        .to_path_buf()
}

/// Lines of `text` above its first `#[cfg(test)]` line (all of them when
/// the file has no test module).
fn non_test_lines(text: &str) -> usize {
    text.lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .count()
}

/// Whether `rel` counts toward the all-crates total: first-party code in
/// a `src/` or `benches/` tree (integration tests under `tests/` do not).
fn in_source_tree(rel: &str) -> bool {
    rel.contains("/src/") || rel.contains("/benches/")
}

/// The crate directory `rel` belongs to: everything before its `src/` or
/// `benches/` tree (`crates/shims/rayon/src/lib.rs` -> `crates/shims/rayon`).
fn crate_of(rel: &str) -> &str {
    ["/src/", "/benches/"]
        .iter()
        .filter_map(|tree| rel.find(tree))
        .min()
        .map_or(rel, |end| &rel[..end])
}

fn loc() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    // `collect_rs_files` skips this tool's own tree for the lint's sake.
    for dir in ["crates", "crates/xtask/src"] {
        collect_rs_files(&root.join(dir), &root, &mut files);
    }
    files.retain(|rel| in_source_tree(rel));
    files.sort();
    let (mut total, mut listed, mut all) = (0usize, 0usize, 0usize);
    let mut per_crate = std::collections::BTreeMap::<&str, usize>::new();
    for rel in &files {
        let Ok(text) = std::fs::read_to_string(root.join(rel)) else {
            eprintln!("loc: cannot read {rel}");
            return ExitCode::FAILURE;
        };
        let n = non_test_lines(&text);
        all += n;
        *per_crate.entry(crate_of(rel)).or_default() += n;
        if rel.starts_with("crates/core/src/") || rel.starts_with("crates/cli/src/") {
            println!("{n:>6}  {rel}");
            total += n;
            listed += 1;
        }
    }
    println!("{total:>6}  total ({listed} files)");
    println!("{all:>6}  all crates ({} files)", files.len());
    for (krate, n) in per_crate {
        println!("{n:>6}    {krate}");
    }
    ExitCode::SUCCESS
}

#[derive(Debug)]
struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    text: String,
}

/// One sanctioned exception: `path-suffix|rule|line-substring`.
struct AllowEntry {
    path_suffix: String,
    rule: String,
    substring: String,
    used: std::cell::Cell<bool>,
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let allow = load_allowlist(&root);
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &root, &mut files);
    files.sort();

    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for rel in &files {
        let path = root.join(rel);
        let Ok(text) = std::fs::read_to_string(&path) else {
            violations.push(Violation {
                file: rel.clone(),
                line: 0,
                rule: "io",
                text: "cannot read file".into(),
            });
            continue;
        };
        scanned += 1;
        lint_file(rel, &text, &allow, &mut violations);
    }
    for entry in &allow {
        if !entry.used.get() {
            violations.push(Violation {
                file: "crates/xtask/lint-allow.txt".into(),
                line: 0,
                rule: "stale-allowlist-entry",
                text: format!(
                    "{}|{}|{} matches nothing",
                    entry.path_suffix, entry.rule, entry.substring
                ),
            });
        }
    }

    if violations.is_empty() {
        println!(
            "lint clean: {scanned} files, rules: safety-comment, \
             no-panic-in-hot-path, no-unchecked-indexing, lossy-as-cast \
             ({} allowlisted)",
            allow.len()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("{} {}:{}: {}", v.rule, v.file, v.line, v.text.trim());
        }
        println!("lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn load_allowlist(root: &Path) -> Vec<AllowEntry> {
    let path = root.join("crates/xtask/lint-allow.txt");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Vec::new();
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.splitn(3, '|');
            Some(AllowEntry {
                path_suffix: parts.next()?.trim().to_string(),
                rule: parts.next()?.trim().to_string(),
                substring: parts.next()?.trim().to_string(),
                used: std::cell::Cell::new(false),
            })
        })
        .collect()
}

fn collect_rs_files(dir: &Path, root: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // The lint tool's own source mentions every rule token in
            // strings and docs; scanning it would only test the scanner.
            if name == "target" || path.ends_with("crates/xtask") {
                continue;
            }
            collect_rs_files(&path, root, out);
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
}

fn lint_file(rel: &str, text: &str, allow: &[AllowEntry], out: &mut Vec<Violation>) {
    // Kernel hot paths get every rule; the serving event loop and the
    // multi-device block-merge path run per batch too, so they join the
    // no-panic policy (their sanctioned exceptions live in the allowlist).
    let kernel_hot =
        rel.starts_with("crates/kernels/src/") || rel.starts_with("crates/tensor/src/");
    let hot_path =
        kernel_hot || rel == "crates/core/src/serve.rs" || rel == "crates/core/src/multidev.rs";
    let kernels = rel.starts_with("crates/kernels/src/");
    let lines: Vec<&str> = text.lines().collect();

    let mut report = |lineno: usize, rule: &'static str, raw: &str| {
        let waived = allow.iter().any(|e| {
            let hit = rel.ends_with(&e.path_suffix) && e.rule == rule && raw.contains(&e.substring);
            if hit {
                e.used.set(true);
            }
            hit
        });
        if !waived {
            out.push(Violation {
                file: rel.to_string(),
                line: lineno,
                rule,
                text: raw.to_string(),
            });
        }
    };

    for (idx, &raw) in lines.iter().enumerate() {
        // Test modules sit at the end of each file in this workspace; stop
        // linting at the first test-only region.
        if raw.trim() == "#[cfg(test)]" {
            break;
        }
        let code = code_only(raw);
        let lineno = idx + 1;

        if has_token(&code, "unsafe") {
            let lo = idx.saturating_sub(SAFETY_LOOKBACK);
            let documented = lines[lo..=idx].iter().any(|l| l.contains("SAFETY:"));
            if !documented {
                report(lineno, "safety-comment", raw);
            }
        }
        if hot_path
            && (has_call(&code, "unwrap", '(')
                || has_call(&code, "expect", '(')
                || has_call(&code, "panic", '!'))
        {
            report(lineno, "no-panic-in-hot-path", raw);
        }
        if kernels && (has_token(&code, "get_unchecked") || has_token(&code, "get_unchecked_mut")) {
            report(lineno, "no-unchecked-indexing", raw);
        }
        if kernel_hot && has_lossy_cast(&code) {
            report(lineno, "lossy-as-cast", raw);
        }
    }
}

/// Numeric types an `as` cast can silently truncate or round into.
const NARROW_TYPES: &[&str] = &["u8", "i8", "u16", "i16", "u32", "i32", "f32"];

/// `true` when the line contains an `as <narrow numeric type>` cast — a
/// silent truncation/rounding hazard in kernel hot paths. Widening casts
/// (`as usize`, `as u64`, `as f64`) stay legal; sanctioned narrowing casts
/// are allowlisted by content like every other rule.
fn has_lossy_cast(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("as") {
        let i = from + pos;
        let j = i + 2;
        let before = i == 0 || !is_ident_char(bytes[i - 1]);
        let after = j >= bytes.len() || !is_ident_char(bytes[j]);
        if before && after {
            let rest = code[j..].trim_start();
            for ty in NARROW_TYPES {
                if rest.starts_with(ty)
                    && rest
                        .as_bytes()
                        .get(ty.len())
                        .is_none_or(|&b| !is_ident_char(b))
                {
                    return true;
                }
            }
        }
        from = i + 1;
    }
    false
}

/// Strips `//` comments and the contents of single-line string literals,
/// so rule tokens inside either never count as code.
fn code_only(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `true` when `tok` appears as a whole word in `code`.
fn has_token(code: &str, tok: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(tok) {
        let i = from + pos;
        let j = i + tok.len();
        let before = i == 0 || !is_ident_char(bytes[i - 1]);
        let after = j >= bytes.len() || !is_ident_char(bytes[j]);
        if before && after {
            return true;
        }
        from = i + 1;
    }
    false
}

/// `true` when `name` appears as a whole word immediately followed
/// (ignoring spaces) by `next` — e.g. `unwrap` + `(` or `panic` + `!`.
fn has_call(code: &str, name: &str, next: char) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(name) {
        let i = from + pos;
        let j = i + name.len();
        let before = i == 0 || !is_ident_char(bytes[i - 1]);
        if before {
            let rest = code[j..].trim_start();
            if rest.starts_with(next) {
                return true;
            }
        }
        from = i + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_stripped() {
        assert_eq!(code_only(r#"let x = "unsafe"; // unsafe"#), "let x = ; ");
        assert_eq!(code_only("unsafe { x }"), "unsafe { x }");
        // A quote char-literal opens "string mode" and swallows the rest of
        // the line — conservative (can only under-report, never false-flag).
        assert_eq!(code_only(r#"s.push('"'); nope"#), "s.push('");
    }

    #[test]
    fn loc_counts_lines_above_the_first_test_module() {
        assert_eq!(non_test_lines("a\nb\n#[cfg(test)]\nmod t {}\n"), 2);
        assert_eq!(non_test_lines("a\n    #[cfg(test)]\nb\n"), 1);
        assert_eq!(non_test_lines("a\nb\n"), 2);
    }

    #[test]
    fn all_crates_total_covers_src_and_benches_not_integration_tests() {
        assert!(in_source_tree("crates/shims/rayon/src/lib.rs"));
        assert!(in_source_tree("crates/bench/benches/gemm.rs"));
        assert!(in_source_tree("crates/xtask/src/main.rs"));
        assert!(!in_source_tree("crates/cli/tests/inject.rs"));
        assert_eq!(crate_of("crates/core/src/lib.rs"), "crates/core");
        assert_eq!(
            crate_of("crates/shims/rayon/src/lib.rs"),
            "crates/shims/rayon"
        );
        assert_eq!(crate_of("crates/bench/benches/gemm.rs"), "crates/bench");
        assert_eq!(crate_of("crates/bench/src/bin/repro.rs"), "crates/bench");
    }

    #[test]
    fn tokens_respect_identifier_boundaries() {
        assert!(has_token("unsafe impl Send for X {}", "unsafe"));
        assert!(!has_token("fn is_unsafe_alias() {}", "unsafe"));
        assert!(!has_token("let unsafety = 1;", "unsafe"));
    }

    #[test]
    fn calls_need_their_follow_character() {
        assert!(has_call("x.unwrap()", "unwrap", '('));
        assert!(has_call("x.unwrap ()", "unwrap", '('));
        assert!(!has_call("let unwrap_count = 1;", "unwrap", '('));
        assert!(has_call("panic!(\"boom\")", "panic", '!'));
        assert!(!has_call("self.panicked", "panic", '!'));
    }

    #[test]
    fn lint_rules_fire_on_synthetic_sources() {
        let mut out = Vec::new();
        let src = "fn f(x: &[f32]) {\n    let v = unsafe { x.get_unchecked(0) };\n}\n";
        lint_file("crates/kernels/src/fake.rs", src, &[], &mut out);
        let rules: Vec<&str> = out.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"safety-comment"), "{rules:?}");
        assert!(rules.contains(&"no-unchecked-indexing"), "{rules:?}");

        out.clear();
        let src = "// SAFETY: x is valid for one element.\nlet v = unsafe { *p };\n";
        lint_file("crates/core/src/fake.rs", src, &[], &mut out);
        assert!(out.is_empty(), "{out:?}");

        out.clear();
        let src =
            "fn g() { q.expect(\"boom\"); }\n#[cfg(test)]\nmod t { fn h() { q.unwrap(); } }\n";
        lint_file("crates/tensor/src/fake.rs", src, &[], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "no-panic-in-hot-path");
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn conv_kernels_are_under_the_hot_path_policy() {
        // The im2col/pool kernels live in crates/kernels and therefore get
        // the full kernel treatment: SAFETY comments, no panics, no
        // unchecked indexing — with no allowlist entries sanctioned.
        let mut out = Vec::new();
        let src = "fn im2col(x: &[f32]) {\n    let v = unsafe { x.get_unchecked(0) };\n    v.expect(\"conv\");\n}\n";
        lint_file("crates/kernels/src/conv.rs", src, &[], &mut out);
        let rules: Vec<&str> = out.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"safety-comment"), "{rules:?}");
        assert!(rules.contains(&"no-unchecked-indexing"), "{rules:?}");
        assert!(rules.contains(&"no-panic-in-hot-path"), "{rules:?}");
    }

    #[test]
    fn lossy_casts_are_flagged_in_kernel_hot_paths_only() {
        assert!(has_lossy_cast("let y = x as u8;"));
        assert!(has_lossy_cast("let y = (n / d) as i32;"));
        assert!(has_lossy_cast("sum += x as f32"));
        assert!(!has_lossy_cast("let y = x as usize;"));
        assert!(!has_lossy_cast("let y = x as f64;"));
        assert!(!has_lossy_cast("let y = x as u64;"));
        assert!(!has_lossy_cast("let y = alias_cast(x);"));
        assert!(!has_lossy_cast("let y = x as u32x8;"));

        let mut out = Vec::new();
        let src = "fn f(x: usize) -> f32 {\n    x as f32\n}\n";
        lint_file("crates/kernels/src/fake.rs", src, &[], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "lossy-as-cast");
        assert_eq!(out[0].line, 2);

        // The no-panic extension files are not kernel hot paths — narrowing
        // casts there stay legal.
        out.clear();
        lint_file("crates/core/src/serve.rs", src, &[], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn serve_and_multidev_join_the_no_panic_policy() {
        let src = "fn g() { q.unwrap(); }\n";
        for hot in ["crates/core/src/serve.rs", "crates/core/src/multidev.rs"] {
            let mut out = Vec::new();
            lint_file(hot, src, &[], &mut out);
            assert_eq!(out.len(), 1, "{hot}: {out:?}");
            assert_eq!(out[0].rule, "no-panic-in-hot-path");
        }
        // The rest of crates/core stays exempt from the panic rule.
        let mut out = Vec::new();
        lint_file("crates/core/src/graph.rs", src, &[], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn allowlist_waives_by_content_and_tracks_use() {
        let entry = AllowEntry {
            path_suffix: "tensor/src/fake.rs".into(),
            rule: "no-panic-in-hot-path".into(),
            substring: "boom".into(),
            used: std::cell::Cell::new(false),
        };
        let mut out = Vec::new();
        lint_file(
            "crates/tensor/src/fake.rs",
            "fn g() { q.expect(\"boom\"); }\n",
            std::slice::from_ref(&entry),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
        assert!(entry.used.get());
    }
}
