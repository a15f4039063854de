//! Every metric the benchmark reports: name, unit, direction, bound, the
//! layer it measures and, written down before any measurement, which
//! end-to-end metric it should move on which workload. `BENCHMARK.json` and
//! `README.md` repeat these names; the tests below fail when they drift.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
    pub layer: &'static str,
    /// The end-to-end metric and workload this one should move ("!=" marks
    /// a workload on which no change is predicted).
    pub moves: &'static str,
}

/// Seconds one run measures for; `BENCHMARK.json` carries the same number.
pub const RUN_SECONDS: u64 = 15;

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    moves: &'static str,
) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
        layer: "whole run",
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: &[Spec] = &[
    e2e(
        "examples_per_s",
        "1/s",
        Higher,
        0.20,
        "rows through a training step or a serving forward pass per wall second of one repeat",
    ),
    e2e(
        "sim_phi_s",
        "s",
        Lower,
        0.02,
        "simulated Xeon Phi 5110P seconds of a fixed slice; a host-kernel change leaves it \
         identical, a modelling or scheduling change moves it",
    ),
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "data generation, model and scratch construction, two warm-up steps",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Lower,
        0.05,
        "VmHWM after the last timed repeat",
    ),
];

const AE: &str = "examples_per_s on ae_wide; != rbm_small_wave";
const RBM: &str = "examples_per_s on rbm_small_wave; != ae_wide";
const CNN: &str = "examples_per_s on cnn_ckpt";
const CNN_ONLY: &str = "examples_per_s on cnn_ckpt; != the other three";
const PIPE: &str = "examples_per_s on digits_pipeline";
const STAGE: &str = "examples_per_s on digits_pipeline, by at most the stage's share";
const FORK: &str = "examples_per_s on rbm_small_wave, a few % on cnn_ckpt; != ae_wide";
const GUARD: &str = "guard only: no workload runs more than one device";

pub const PER_LAYER: &[Spec] = &[
    layer(
        "kernels.gemm.ae_wide_fwd_gflops",
        "GFLOP/s",
        Higher,
        "kernels",
        AE,
    ),
    layer(
        "kernels.gemm.ae_wide_bwd_data_gflops",
        "GFLOP/s",
        Higher,
        "kernels",
        AE,
    ),
    layer(
        "kernels.gemm.ae_wide_bwd_weight_gflops",
        "GFLOP/s",
        Higher,
        "kernels",
        AE,
    ),
    layer("kernels.gemm.par_speedup", "ratio", Higher, "kernels", AE),
    layer(
        "kernels.fused.bias_sigmoid_gbps",
        "GB/s",
        Higher,
        "kernels",
        AE,
    ),
    layer("kernels.fused.sgd_step_gbps", "GB/s", Higher, "kernels", AE),
    layer("kernels.reduce.colmean_gbps", "GB/s", Higher, "kernels", AE),
    layer(
        "kernels.rng.bernoulli_melems_per_s",
        "Melem/s",
        Higher,
        "kernels",
        AE,
    ),
    layer(
        "kernels.gemm.rbm_small_gflops",
        "GFLOP/s",
        Higher,
        "kernels",
        RBM,
    ),
    layer(
        "kernels.fused.bias_sigmoid_small_us",
        "us",
        Lower,
        "kernels",
        RBM,
    ),
    layer(
        "kernels.fused.cd_update_small_us",
        "us",
        Lower,
        "kernels",
        RBM,
    ),
    layer(
        "kernels.rng.bernoulli_small_us",
        "us",
        Lower,
        "kernels",
        RBM,
    ),
    layer(
        "kernels.gemm.im2col_gflops",
        "GFLOP/s",
        Higher,
        "kernels",
        CNN,
    ),
    layer("kernels.conv.im2col_gbps", "GB/s", Higher, "kernels", CNN),
    layer(
        "kernels.conv.maxpool_fwd_gbps",
        "GB/s",
        Higher,
        "kernels",
        CNN,
    ),
    layer(
        "kernels.conv.maxpool_bwd_gbps",
        "GB/s",
        Higher,
        "kernels",
        CNN,
    ),
    layer(
        "kernels.conv.direct_over_im2col",
        "ratio",
        Higher,
        "kernels",
        CNN,
    ),
    layer(
        "kernels.gemm.serve_fwd_gflops",
        "GFLOP/s",
        Higher,
        "kernels",
        PIPE,
    ),
    layer(
        "kernels.gemm.blocked_over_naive",
        "ratio",
        Higher,
        "kernels",
        "gate (>= 3): machine-independent sanity of the blocked GEMM",
    ),
    layer("rayon.join_empty_us", "us", Lower, "shims/rayon", FORK),
    layer("rayon.run_tasks_empty_us", "us", Lower, "shims/rayon", FORK),
    layer(
        "graph.cd1_small_serial_step_us",
        "us",
        Lower,
        "core::graph",
        RBM,
    ),
    layer(
        "graph.cd1_small_wave_step_us",
        "us",
        Lower,
        "core::graph",
        RBM,
    ),
    layer(
        "graph.cd1_small_wave_over_serial",
        "ratio",
        Lower,
        "core::graph",
        RBM,
    ),
    layer(
        "graph.ae_wide_wave_over_serial",
        "ratio",
        Lower,
        "core::graph",
        "predicted ~1: != examples_per_s on ae_wide (its steps run serially)",
    ),
    layer(
        "graph.cd1_build_plan_us",
        "us",
        Lower,
        "core::graph",
        "setup_s, and examples_per_s on rbm_small_wave (the graph is rebuilt every step)",
    ),
    layer(
        "graph.cd1_small_nonkernel_share",
        "share",
        Lower,
        "core::graph",
        RBM,
    ),
    layer("step.ae_wide_ms_p50", "ms", Lower, "core::autoencoder", AE),
    layer("step.rbm_small_wave_us_p50", "us", Lower, "core::rbm", RBM),
    layer("step.rbm_small_wave_us_p95", "us", Lower, "core::rbm", RBM),
    layer("step.finetune_ms_p50", "ms", Lower, "core::finetune", PIPE),
    layer("step.cnn_ms_p50", "ms", Lower, "core::cnn", CNN),
    layer(
        "step.ae_wide_gemm_share",
        "share",
        Higher,
        "core::autoencoder",
        "what a GEMM gain can buy on ae_wide (predicted > 0.8)",
    ),
    layer(
        "step.rbm_small_wave_gemm_share",
        "share",
        Higher,
        "core::rbm",
        "what a GEMM gain can buy on rbm_small_wave (predicted < 0.5)",
    ),
    layer(
        "step.cnn_gemm_share",
        "share",
        Higher,
        "core::cnn",
        "what a GEMM gain can buy on cnn_ckpt",
    ),
    layer(
        "loader.ae_wide_wait_share",
        "share",
        Lower,
        "sim::stream",
        "predicted ~0 on ae_wide",
    ),
    layer(
        "loader.rbm_small_wave_wait_share",
        "share",
        Lower,
        "sim::stream",
        RBM,
    ),
    layer("loader.next_us_p50", "us", Lower, "sim::stream", RBM),
    layer(
        "train.loop_overhead_share",
        "share",
        Lower,
        "core::train",
        RBM,
    ),
    layer(
        "stream.sim_hidden_fraction",
        "share",
        Higher,
        "sim::stream",
        "sim_phi_s on ae_wide",
    ),
    layer(
        "stream.sim_stall_s",
        "sim_s",
        Lower,
        "sim::stream",
        "sim_phi_s on ae_wide",
    ),
    layer(
        "data.digits_rows_per_s",
        "rows/s",
        Higher,
        "data",
        "setup_s on ae_wide, rbm_small_wave, cnn_ckpt; examples_per_s on digits_pipeline",
    ),
    layer(
        "data.normalize_gbps",
        "GB/s",
        Higher,
        "data",
        "setup_s on ae_wide, rbm_small_wave, cnn_ckpt; examples_per_s on digits_pipeline",
    ),
    layer(
        "ckpt.cnn_save_ms_p50",
        "ms",
        Lower,
        "core::checkpoint",
        CNN_ONLY,
    ),
    layer(
        "ckpt.cnn_bytes",
        "count",
        Lower,
        "core::checkpoint",
        CNN_ONLY,
    ),
    layer(
        "ckpt.ae_wide_save_mb_per_s",
        "MB/s",
        Higher,
        "core::model_io",
        PIPE,
    ),
    layer(
        "ckpt.ae_wide_load_mb_per_s",
        "MB/s",
        Higher,
        "core::model_io",
        PIPE,
    ),
    layer(
        "ckpt.cnn_stall_share",
        "share",
        Lower,
        "core::checkpoint",
        CNN_ONLY,
    ),
    layer(
        "supervise.cnn_overhead_ratio",
        "ratio",
        Lower,
        "core::supervise",
        CNN_ONLY,
    ),
    layer("pipeline.data_s", "s", Lower, "data", STAGE),
    layer("pipeline.pretrain_s", "s", Lower, "core::stacked", STAGE),
    layer("pipeline.finetune_s", "s", Lower, "core::finetune", STAGE),
    layer("pipeline.persist_s", "s", Lower, "core::model_io", STAGE),
    layer("pipeline.serve_s", "s", Lower, "core::serve", STAGE),
    layer("serve.host_rps", "1/s", Higher, "core::serve", PIPE),
    layer("serve.batch_us_mean", "us", Lower, "core::serve", PIPE),
    layer(
        "serve.sim_rps",
        "sim_1/s",
        Higher,
        "core::serve",
        "sim_phi_s on digits_pipeline",
    ),
    layer(
        "serve.sim_p99_ms",
        "sim_ms",
        Lower,
        "core::serve",
        "sim_phi_s on digits_pipeline",
    ),
    layer(
        "multidev.ae_step_over_single_n4",
        "ratio",
        Lower,
        "core::multidev",
        GUARD,
    ),
    layer(
        "multidev.sim_speedup_n4",
        "ratio",
        Higher,
        "core::multidev",
        GUARD,
    ),
    layer(
        "multidev.sim_sync_fraction_n4",
        "share",
        Lower,
        "core::multidev",
        GUARD,
    ),
    layer(
        "trace.overhead_ratio",
        "ratio",
        Higher,
        "benchmark",
        "traced / untraced examples_per_s of the traced workload; 1 means tracing is free",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{json_from_str, Value};
    use crate::workloads::NAMES;
    use std::path::Path;

    fn repo_file(rel: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER).collect();
        for s in &all {
            assert!(valid_name(s.name), "bad name {}", s.name);
            assert!(valid_unit(s.unit), "bad unit {} of {}", s.unit, s.name);
        }
        let mut names: Vec<&str> = all.iter().map(|s| s.name).chain(NAMES).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|s| s.bound.is_some_and(|b| b <= 0.25)));
    }

    fn listed(doc: &Value, key: &str) -> Vec<Value> {
        doc.get_field(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .to_vec()
    }

    fn text(v: &Value, key: &str) -> String {
        v.get_field(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("entry lacks `{key}`"))
            .to_string()
    }

    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        let doc: Value = json_from_str(&repo_file("../BENCHMARK.json")).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let seconds = doc.get_field("run_seconds").and_then(Value::as_u64);
        assert_eq!(seconds, Some(RUN_SECONDS));
        let workloads: Vec<String> = listed(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, NAMES);
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = listed(&doc, key);
            assert_eq!(entries.len(), specs.len(), "{key}: count differs");
            for (entry, spec) in entries.iter().zip(specs) {
                assert_eq!(text(entry, "name"), spec.name);
                assert_eq!(text(entry, "unit"), spec.unit, "{}", spec.name);
                assert_eq!(text(entry, "better"), spec.better.as_str(), "{}", spec.name);
                let bound = entry.get_field("bound").and_then(Value::as_f64);
                assert_eq!(bound, spec.bound, "{}", spec.name);
            }
        }
    }

    /// The `[profile.release]` table of a manifest, comments and blank
    /// lines dropped.
    fn release_profile(manifest: &str) -> Vec<String> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn release_profile_is_the_repository_s() {
        // The library must be measured as its users build it.
        let root = release_profile(&repo_file("../Cargo.toml"));
        assert!(!root.is_empty(), "the root manifest has a release profile");
        assert_eq!(release_profile(&repo_file("Cargo.toml")), root);
    }

    #[test]
    fn readme_names_every_metric_workload_and_pinned_item() {
        let readme = repo_file("README.md");
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                readme.contains(&format!("`{}`", s.name)),
                "README lacks {}",
                s.name
            );
        }
        for w in NAMES {
            assert!(readme.contains(&format!("`{w}`")), "README lacks {w}");
        }
        // Every path segment and item `api.rs` names is listed, so a
        // refactor knows beforehand what the benchmark pins.
        let api = repo_file("src/api.rs");
        let tokens = api
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .flat_map(|l| l.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')))
            .filter(|t| !t.is_empty() && !["pub", "use", "as"].contains(t));
        for token in tokens {
            assert!(
                readme.contains(token),
                "README does not list pinned item `{token}`"
            );
        }
    }
}
