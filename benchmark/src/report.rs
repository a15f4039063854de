//! Result documents: the one-line result a single run prints last, the
//! `micdnn-benchmark-v1` document a suite run writes, and the machine
//! fingerprint both carry.

use crate::api::{current_num_threads, json, Value};
use crate::catalogue::Spec;
use crate::stats::Summary;

pub const SCHEMA: &str = "micdnn-benchmark-v1";

/// One reported metric value.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Reading {
    pub fn new(spec: &Spec, value: f64) -> Reading {
        Reading {
            name: spec.name,
            unit: spec.unit,
            value,
        }
    }
}

/// The last line of a single run's standard output: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, values with all digits.
pub fn result_line(attempted: u64, failed: u64, readings: &[Reading]) -> String {
    let metrics: Vec<(String, Value)> = readings
        .iter()
        .map(|r| {
            (
                r.name.to_string(),
                json!({ "value": r.value, "unit": r.unit }),
            )
        })
        .collect();
    json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics)
    })
    .to_string()
}

fn first_line_after(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// What a reader needs to judge whether two result sets are comparable.
/// The rustc version and git commit come from the environment `run.sh`
/// sets, because a checkout under test need not be a git repository.
pub fn fingerprint(seed: u64) -> Value {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| first_line_after(&t, "model name"))
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    json!({
        "nproc": nproc,
        "threads_used": current_num_threads(),
        "RAYON_NUM_THREADS": env("RAYON_NUM_THREADS"),
        "MALLOC_MMAP_THRESHOLD_": env("MALLOC_MMAP_THRESHOLD_"),
        "cpu_model": cpu,
        "rustc": env("MICDNN_BENCH_RUSTC"),
        "git_commit": env("MICDNN_BENCH_COMMIT"),
        "seed": seed
    })
}

/// Peak resident set of this process in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = first_line_after(&status, "VmHWM")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One metric for a person: value, unit, direction, bound, sample count,
/// quartiles and spread where there are samples, and the layer measured.
pub fn describe(spec: &Spec, value: f64, samples: usize, summary: Option<&Summary>) -> String {
    let mut line = format!(
        "  {:<40} {:>14.6} {:<8} better: {:<6}",
        spec.name,
        value,
        spec.unit,
        spec.better.as_str()
    );
    if let Some(b) = spec.bound {
        line.push_str(&format!(" bound: {:>4.0}%", b * 100.0));
    }
    line.push_str(&format!(" n = {samples}"));
    if let Some(s) = summary {
        line.push_str(&format!(" q1 {:.6} q3 {:.6}", s.q1, s.q3));
        line.push_str(&format!(" spread {:.2}%", s.spread() * 100.0));
        if let Some((p, v)) = s.tail {
            line.push_str(&format!(" p{p} {v:.6}"));
        }
    }
    line.push_str(&format!(" [{}]", spec.layer));
    line
}

/// The suite document: per workload the end-to-end readings, plus the
/// per-layer readings of the traced runs.
pub fn suite_document(seed: u64, quick: bool, workloads: Vec<(String, Value)>) -> Value {
    json!({
        "schema": SCHEMA,
        "quick": quick,
        "machine": fingerprint(seed),
        "workloads": Value::Object(workloads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::json_from_str;
    use crate::catalogue::END_TO_END;

    #[test]
    fn result_line_has_exactly_the_contract_s_keys() {
        let readings = [
            Reading::new(&END_TO_END[0], 1234.567891234),
            Reading::new(&END_TO_END[2], 0.8127),
        ];
        let line = result_line(7, 0, &readings);
        assert!(!line.contains('\n'));
        let doc: Value = json_from_str(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get_field("correct").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get_field("attempted").unwrap().as_u64(), Some(7));
        let m = doc
            .get_field("metrics")
            .unwrap()
            .get_field("examples_per_s")
            .unwrap();
        assert_eq!(m.get_field("value").unwrap().as_f64(), Some(1234.567891234));
        assert_eq!(m.get_field("unit").unwrap().as_str(), Some("1/s"));
        let failing = result_line(7, 2, &readings);
        assert!(failing.contains("\"correct\":false") && failing.contains("\"failed\":2"));
    }

    #[test]
    fn fingerprint_names_the_machine_and_the_seed() {
        let f = fingerprint(42);
        for key in [
            "nproc",
            "threads_used",
            "RAYON_NUM_THREADS",
            "MALLOC_MMAP_THRESHOLD_",
            "cpu_model",
            "rustc",
            "git_commit",
            "seed",
        ] {
            assert!(f.get_field(key).is_some(), "fingerprint lacks {key}");
        }
        assert_eq!(f.get_field("seed").unwrap().as_u64(), Some(42));
        assert!(f.get_field("nproc").unwrap().as_u64().unwrap() >= 1);
    }

    #[test]
    fn suite_document_carries_the_schema_tag() {
        let doc = suite_document(1, true, vec![("w".to_string(), json!({ "x": 1.5 }))]);
        assert_eq!(doc.get_field("schema").unwrap().as_str(), Some(SCHEMA));
        let back: Value = json_from_str(&doc.to_string()).unwrap();
        // Integers come back signed; the text is what must survive.
        assert_eq!(back.to_string(), doc.to_string());
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
