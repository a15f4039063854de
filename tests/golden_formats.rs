//! Golden-file tests for the exported observability formats.
//!
//! The profile report (`micdnn-profile-v2`) and the Chrome trace export
//! are consumed outside this repo (dashboards, `chrome://tracing`), so
//! their wire shape is pinned byte-for-byte against committed golden
//! files. A deliberate schema change must update the golden alongside a
//! version bump; an accidental one fails here first.

use micdnn::train::AeModel;
use micdnn::{
    load_autoencoder, load_checkpoint, load_rbm, save_autoencoder, save_checkpoint, save_rbm,
    AeConfig, Optimizer, ProfileReport, Profiler, Rbm, RbmConfig, Rule, Schedule,
    SparseAutoencoder, TrainProgress,
};
use micdnn_kernels::{OpCost, OpKind};
use micdnn_sim::{chrome_trace_json, EventKind, StreamStats, Trace};
use micdnn_tensor::Mat;

const PROFILE_GOLDEN: &str = include_str!("golden/profile_report.json");
const TRACE_GOLDEN: &str = include_str!("golden/chrome_trace.json");
const VERIFY_GOLDEN: &str = include_str!("golden/verify_report.json");

/// With `UPDATE_GOLDEN=1`, rewrites the golden file instead of comparing.
/// Returns true when the caller should skip the assertion.
fn maybe_update(name: &str, text: &str) -> bool {
    if std::env::var_os("UPDATE_GOLDEN").is_none() {
        return false;
    }
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, text).unwrap();
    eprintln!("updated {path}");
    true
}

/// Binary variant of [`maybe_update`] for the model-format goldens.
fn maybe_update_bytes(name: &str, bytes: &[u8]) -> bool {
    if std::env::var_os("UPDATE_GOLDEN").is_none() {
        return false;
    }
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, bytes).unwrap();
    eprintln!("updated {path}");
    true
}

fn read_golden_bytes(name: &str) -> Vec<u8> {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!("missing golden file {name} (regenerate with UPDATE_GOLDEN=1): {e}")
    })
}

/// An autoencoder with every parameter set to a closed-form value, so the
/// serialized bytes depend on nothing but the wire format itself.
fn pinned_ae() -> SparseAutoencoder {
    let cfg = AeConfig::new(5, 3);
    let mut ae = SparseAutoencoder::new(cfg, 0);
    ae.w1 = Mat::from_fn(3, 5, |r, c| (r * 5 + c) as f32 * 0.125 - 0.5);
    ae.w2 = Mat::from_fn(5, 3, |r, c| (r * 3 + c) as f32 * -0.0625 + 0.25);
    ae.b1 = (0..3).map(|i| i as f32 * 0.5).collect();
    ae.b2 = (0..5).map(|i| i as f32 * -0.25).collect();
    ae
}

fn pinned_rbm() -> Rbm {
    let cfg = RbmConfig::new(4, 3).with_cd_steps(2);
    let mut rbm = Rbm::new(cfg, 0);
    rbm.w = Mat::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.25 - 1.0);
    rbm.b_vis = (0..4).map(|i| i as f32 * 0.125).collect();
    rbm.c_hid = (0..3).map(|i| 1.0 - i as f32 * 0.5).collect();
    rbm
}

/// The model container format (`MICDNN01`, little-endian, length-prefixed
/// tensors) is pinned byte-for-byte: files written by older builds must
/// keep loading, so any byte-level drift — e.g. from a rewrite of the
/// tensor I/O path — must fail here rather than silently fork the format.
#[test]
fn ae_wire_format_matches_golden() {
    let mut bytes = Vec::new();
    save_autoencoder(&pinned_ae(), &mut bytes).unwrap();
    if maybe_update_bytes("model_ae.bin", &bytes) {
        return;
    }
    assert_eq!(
        bytes,
        read_golden_bytes("model_ae.bin"),
        "AE wire format drifted from tests/golden/model_ae.bin"
    );
}

#[test]
fn rbm_wire_format_matches_golden() {
    let mut bytes = Vec::new();
    save_rbm(&pinned_rbm(), &mut bytes).unwrap();
    if maybe_update_bytes("model_rbm.bin", &bytes) {
        return;
    }
    assert_eq!(
        bytes,
        read_golden_bytes("model_rbm.bin"),
        "RBM wire format drifted from tests/golden/model_rbm.bin"
    );
}

#[test]
fn checkpoint_wire_format_matches_golden() {
    let cfg = AeConfig::new(5, 3);
    let slot_lens = SparseAutoencoder::optimizer_slots(&cfg);
    let state = slot_lens
        .iter()
        .enumerate()
        .map(|(s, &len)| (0..len).map(|i| (s * 100 + i) as f32 * 0.01).collect())
        .collect();
    let opt = Optimizer::restore(
        Rule::Momentum { mu: 0.9 },
        Schedule::Step {
            base: 0.2,
            factor: 0.5,
            every: 100,
        },
        34,
        state,
    );
    let model = AeModel::new(pinned_ae()).with_optimizer(opt);
    let progress = TrainProgress {
        layer: 1,
        epoch: 2,
        batches: 34,
        examples: 850,
    };
    let mut bytes = Vec::new();
    save_checkpoint(&mut bytes, &model, 42, 17, &progress).unwrap();
    if maybe_update_bytes("checkpoint.bin", &bytes) {
        return;
    }
    assert_eq!(
        bytes,
        read_golden_bytes("checkpoint.bin"),
        "checkpoint wire format drifted from tests/golden/checkpoint.bin \
         (a deliberate layout change must bump CHECKPOINT_VERSION)"
    );
}

/// The committed goldens must themselves load — the pin is only useful if
/// the bytes on disk represent real, readable files.
#[test]
fn golden_model_files_load_back() {
    let ae = load_autoencoder(&mut read_golden_bytes("model_ae.bin").as_slice()).unwrap();
    assert_eq!(ae.w1.as_slice(), pinned_ae().w1.as_slice());
    let rbm = load_rbm(&mut read_golden_bytes("model_rbm.bin").as_slice()).unwrap();
    assert_eq!(rbm.config().cd_steps, 2);
    assert_eq!(rbm.w.as_slice(), pinned_rbm().w.as_slice());
    let ckpt = load_checkpoint(&mut read_golden_bytes("checkpoint.bin").as_slice()).unwrap();
    assert_eq!(ckpt.rng_seed, 42);
    assert_eq!(ckpt.rng_cursor, 17);
    assert_eq!(ckpt.progress.batches, 34);
    let model = ckpt.into_ae().expect("AE checkpoint");
    assert_eq!(model.optimizer().unwrap().steps(), 34);
}

/// A fully deterministic profile: fixed ops, phases, and stream stats.
fn sample_report() -> ProfileReport {
    let p = Profiler::new();
    p.record_op(&OpCost::gemm(1000, 4096, 1024, true), 0.50);
    p.record_op(&OpCost::gemm(1000, 1024, 4096, true), 0.55);
    p.record_op(&OpCost::sigmoid(4_096_000), 0.02);
    p.record_op(
        &OpCost::elementwise(4_096_000, 2, 2).with_label("axpy"),
        0.01,
    );
    p.record_phase("load", 0.10, 0.001);
    p.record_phase("forward", 0.60, 0.002);
    p.record_phase("backward", 0.70, 0.003);
    p.record_phase("update", 0.05, 0.001);
    p.record_stream(StreamStats {
        chunks: 20,
        bytes: 20 * 164_000_000,
        transfer_secs: 260.0,
        stall_secs: 13.0,
        ..StreamStats::default()
    });
    // v2: per-label latency distributions (the serving path's section).
    p.record_latency("serve.request", 0.004);
    p.record_latency("serve.request", 0.001);
    p.record_latency("serve.request", 0.016);
    p.record_latency("serve.request", 0.002);
    p.report(Some(2021.76), 1.45)
}

fn sample_trace() -> Trace {
    let t = Trace::new(true);
    t.push(0.0, 13.0, EventKind::Transfer, "chunk 0");
    t.push(0.0, 13.0, EventKind::Stall, "");
    t.push(
        13.0,
        81.0,
        EventKind::Compute(OpKind::Gemm),
        "train chunk 0",
    );
    t.push(13.0, 26.0, EventKind::Transfer, "chunk 1");
    t.push(81.0, 81.5, EventKind::Sync, "barrier");
    t
}

#[test]
fn profile_report_matches_golden() {
    let text = serde_json::to_string_pretty(&sample_report()).unwrap() + "\n";
    if maybe_update("profile_report.json", &text) {
        return;
    }
    assert_eq!(
        text, PROFILE_GOLDEN,
        "profile JSON schema drifted from tests/golden/profile_report.json; \
         if intentional, bump the schema string and refresh the golden file"
    );
}

#[test]
fn profile_golden_deserializes_and_roundtrips() {
    let back = serde_json::from_str(PROFILE_GOLDEN).unwrap();
    assert_eq!(back, serde_json::to_value(&sample_report()));
    // Schema marker travels with every report.
    let schema = back.get_field("schema").and_then(serde_json::Value::as_str);
    assert_eq!(schema, Some("micdnn-profile-v2"));
    let again = serde_json::to_string_pretty(&back).unwrap() + "\n";
    assert_eq!(again, PROFILE_GOLDEN);
}

#[test]
fn chrome_trace_matches_golden() {
    let text = chrome_trace_json(&sample_trace());
    if maybe_update("chrome_trace.json", &text) {
        return;
    }
    assert_eq!(
        text, TRACE_GOLDEN,
        "Chrome trace shape drifted from tests/golden/chrome_trace.json"
    );
}

/// The certification report (`micdnn-verify-v1`) is diffed in CI against
/// the committed `VERIFY_report.json`, so its wire shape is pinned on a
/// small CD graph: every field of the doc model — device peaks, wave
/// counts, budget, findings — appears in the golden bytes.
#[test]
fn verify_report_matches_golden() {
    use micdnn::cd_graph::build_cd_graph;
    let g = build_cd_graph(4, 3, 2, 1);
    let bundle = micdnn::CertifyBundle::new(vec![g
        .certify(micdnn::DEFAULT_MEM_BUDGET)
        .to_doc("cd1-step-4x3-b2")]);
    let text = serde_json::to_string_pretty(&bundle).unwrap() + "\n";
    if maybe_update("verify_report.json", &text) {
        return;
    }
    assert_eq!(
        text, VERIFY_GOLDEN,
        "certification report schema drifted from tests/golden/verify_report.json; \
         if intentional, bump micdnn-verify-v1 and refresh the golden file"
    );
}

/// The committed repo-root report must carry the schema marker and certify
/// every shipped graph clean — CI regenerates it and diffs byte-for-byte,
/// but the commit itself should never go stale or dirty.
#[test]
fn committed_verify_report_is_clean_and_carries_schema() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let text = std::fs::read_to_string(format!("{root}/VERIFY_report.json"))
        .expect("missing committed VERIFY_report.json (regenerate with `micdnn verify --json`)");
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(
        v.get_field("schema").and_then(serde_json::Value::as_str),
        Some(micdnn::VERIFY_SCHEMA),
        "VERIFY_report.json lost its schema marker"
    );
    let graphs = v
        .get_field("graphs")
        .and_then(serde_json::Value::as_array)
        .expect("graphs array");
    assert!(!graphs.is_empty());
    for g in graphs {
        let name = g.get_field("graph").and_then(serde_json::Value::as_str);
        assert_eq!(
            g.get_field("errors").and_then(serde_json::Value::as_u64),
            Some(0),
            "committed report shows errors for {name:?}"
        );
    }
}

#[test]
fn committed_bench_artifacts_parse_and_carry_schema() {
    // The repo commits the bench trajectory emitted by `repro --bench-dir`;
    // they must stay loadable and carry the current schema marker.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for name in [
        "BENCH_table1.json",
        "BENCH_overlap.json",
        "BENCH_graph.json",
        "BENCH_conv.json",
        "BENCH_serve.json",
    ] {
        let path = format!("{root}/{name}");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing committed artifact {name}: {e}"));
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            v.get_field("schema").and_then(serde_json::Value::as_str),
            Some("micdnn-bench-v1"),
            "{name} lost its schema marker"
        );
        assert!(v.get_field("data").is_some(), "{name} lost its data field");
    }
    let trace = std::fs::read_to_string(format!("{root}/TRACE_overlap.json")).unwrap();
    let v: serde_json::Value = serde_json::from_str(&trace).unwrap();
    assert!(v.get_field("traceEvents").is_some());
}
