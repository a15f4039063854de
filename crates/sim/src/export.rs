//! Trace export in the Chrome tracing ("trace event") JSON format.
//!
//! The simulated run's [`Trace`] is a flat list of timed events on the
//! device clock. `chrome://tracing` / Perfetto render exactly that shape,
//! which makes the paper's §IV.A overlap story directly visible: compute
//! events fill one track while the loading thread's transfers fill
//! another, and any stall shows up as a gap on the compute track.
//!
//! Events are emitted as complete ("ph": "X") slices with microsecond
//! timestamps. Compute and synchronization go on the compute track
//! (tid 0); transfers and stalls go on the PCIe loader track (tid 1) —
//! mirroring the two real threads of the double-buffered design.

use crate::trace::{Event, EventKind, Trace};
use serde::Value;

/// Process id used for every emitted slice.
const PID: i64 = 1;

/// First track reserved for dependency-graph node lanes; tracks 0 and 1
/// belong to the serial compute and PCIe loader threads.
const NODE_TID_BASE: i64 = 2;

/// Track of an event: the training threads, the loading thread, or — for
/// graph nodes, which may overlap in time — one "graph lane" track per
/// concurrently scheduled node.
fn tid(e: &Event) -> i64 {
    match e.kind {
        EventKind::Compute(_) | EventKind::Sync => 0,
        EventKind::Transfer | EventKind::Stall => 1,
        EventKind::Node => NODE_TID_BASE + e.lane as i64,
    }
}

/// Category string shown by trace viewers.
fn category(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Compute(op) => op.name(),
        EventKind::Transfer => "transfer",
        EventKind::Stall => "stall",
        EventKind::Sync => "sync",
        EventKind::Node => "node",
    }
}

/// Display name of an event (the label when present, else the category).
fn event_name(e: &Event) -> &str {
    if e.label.is_empty() {
        category(e.kind)
    } else {
        &e.label
    }
}

fn metadata(name: &str, tid: i64, value: &str) -> Value {
    Value::Object(vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("ph".to_string(), Value::Str("M".to_string())),
        ("pid".to_string(), Value::I64(PID)),
        ("tid".to_string(), Value::I64(tid)),
        (
            "args".to_string(),
            Value::Object(vec![("name".to_string(), Value::Str(value.to_string()))]),
        ),
    ])
}

fn slice(e: &Event) -> Value {
    let ts_us = e.start * 1e6;
    let dur_us = (e.end - e.start) * 1e6;
    Value::Object(vec![
        ("name".to_string(), Value::Str(event_name(e).to_string())),
        ("cat".to_string(), Value::Str(category(e.kind).to_string())),
        ("ph".to_string(), Value::Str("X".to_string())),
        ("ts".to_string(), Value::F64(ts_us)),
        ("dur".to_string(), Value::F64(dur_us)),
        ("pid".to_string(), Value::I64(PID)),
        ("tid".to_string(), Value::I64(tid(e))),
    ])
}

/// Lowers trace events to a Chrome trace [`Value`] tree
/// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
pub(crate) fn chrome_trace_value(events: &[Event]) -> Value {
    let mut out = Vec::with_capacity(events.len() + 3);
    out.push(metadata("process_name", 0, "micdnn simulated device"));
    out.push(metadata("thread_name", 0, "compute"));
    out.push(metadata("thread_name", 1, "pcie loader"));
    out.extend(events.iter().map(slice));
    Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(out)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ])
}

/// Serializes a [`Trace`] to Chrome trace JSON text.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::new();
    chrome_trace_value(&trace.events()).write_json(Some(2), 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use micdnn_kernels::OpKind;

    fn sample_trace() -> Trace {
        let t = Trace::new(true);
        t.push(0.0, 1.5, EventKind::Transfer, "chunk 0");
        t.push(0.0, 1.5, EventKind::Stall, "");
        t.push(1.5, 3.0, EventKind::Compute(OpKind::Gemm), "gemm");
        t.push(3.0, 3.1, EventKind::Sync, "barrier");
        t
    }

    #[test]
    fn emits_one_slice_per_event_plus_metadata() {
        let v = chrome_trace_value(&sample_trace().events());
        let events = v
            .get_field("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 3 + 4);
        let slices: Vec<&Value> = events
            .iter()
            .filter(|e| e.get_field("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 4);
    }

    #[test]
    fn compute_and_transfer_land_on_their_tracks() {
        let v = chrome_trace_value(&sample_trace().events());
        let events = v
            .get_field("traceEvents")
            .and_then(Value::as_array)
            .unwrap();
        for e in events
            .iter()
            .filter(|e| e.get_field("ph").and_then(Value::as_str) == Some("X"))
        {
            let cat = e.get_field("cat").and_then(Value::as_str).unwrap();
            let tid = e.get_field("tid").and_then(Value::as_i64).unwrap();
            match cat {
                "transfer" | "stall" => assert_eq!(tid, 1, "cat {cat}"),
                _ => assert_eq!(tid, 0, "cat {cat}"),
            }
        }
    }

    #[test]
    fn timestamps_are_microseconds() {
        let v = chrome_trace_value(&sample_trace().events());
        let events = v
            .get_field("traceEvents")
            .and_then(Value::as_array)
            .unwrap();
        let gemm = events
            .iter()
            .find(|e| e.get_field("name").and_then(Value::as_str) == Some("gemm"))
            .expect("gemm slice");
        let ts = gemm.get_field("ts").and_then(Value::as_f64).unwrap();
        let dur = gemm.get_field("dur").and_then(Value::as_f64).unwrap();
        assert!((ts - 1.5e6).abs() < 1e-6);
        assert!((dur - 1.5e6).abs() < 1e-6);
    }

    #[test]
    fn unlabeled_events_fall_back_to_category_name() {
        let v = chrome_trace_value(&sample_trace().events());
        let events = v
            .get_field("traceEvents")
            .and_then(Value::as_array)
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.get_field("name").and_then(Value::as_str) == Some("stall")));
    }

    #[test]
    fn graph_nodes_fan_out_over_lane_tracks() {
        let t = Trace::new(true);
        t.push_lane(0.0, 1.0, EventKind::Node, "H1", 0);
        t.push_lane(0.5, 1.5, EventKind::Node, "POS", 1);
        let v = chrome_trace_value(&t.events());
        let events = v
            .get_field("traceEvents")
            .and_then(Value::as_array)
            .unwrap();
        let tids: Vec<i64> = events
            .iter()
            .filter(|e| e.get_field("cat").and_then(Value::as_str) == Some("node"))
            .map(|e| e.get_field("tid").and_then(Value::as_i64).unwrap())
            .collect();
        assert_eq!(tids, vec![NODE_TID_BASE, NODE_TID_BASE + 1]);
    }

    #[test]
    fn json_text_parses_back() {
        let text = chrome_trace_json(&sample_trace());
        // The serde shim's Display round-trips through the same writer the
        // JSON parser consumes; structural spot-check via string matching.
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"pcie loader\""));
        assert!(text.contains("\"chunk 0\""));
    }
}
