//! Timeline of simulated events.
//!
//! Experiments and tests use the trace to answer questions like "what
//! fraction of the run stalled on PCIe?" (the paper's §IV.A measures 17%
//! without the loading thread) or "how much time went to barriers?".

use micdnn_kernels::OpKind;
use parking_lot::Mutex;
use std::sync::Arc;

/// What a span of simulated time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Kernel execution.
    Compute(OpKind),
    /// Host → device (or device → host) transfer.
    Transfer,
    /// Compute idled waiting for data.
    Stall,
    /// Synchronization / barrier accounting.
    Sync,
    /// One node of a dependency-graph schedule (paper Fig. 6). Node events
    /// may overlap in time; the event's `lane` separates concurrent nodes
    /// onto distinct tracks in the Chrome-trace export.
    Node,
}

/// One span on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Classification.
    pub kind: EventKind,
    /// Free-form label (op name, chunk index, ...).
    pub label: String,
    /// Display lane for events that overlap in time (concurrent graph
    /// nodes); serial events stay on lane 0.
    pub lane: usize,
}

impl Event {
    /// Span length in seconds.
    pub(crate) fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A shareable, thread-safe event log.
///
/// Recording can be disabled (the default for large model-only sweeps,
/// where millions of events would just burn memory).
#[derive(Debug, Clone)]
pub struct Trace {
    inner: Arc<Mutex<Vec<Event>>>,
    enabled: bool,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new(true)
    }
}

impl Trace {
    /// Creates a trace; `enabled = false` makes every `push` a no-op.
    pub fn new(enabled: bool) -> Self {
        Trace {
            inner: Arc::new(Mutex::new(Vec::new())),
            enabled,
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled). `end >= start` is enforced.
    pub fn push(&self, start: f64, end: f64, kind: EventKind, label: impl Into<String>) {
        self.push_lane(start, end, kind, label, 0);
    }

    /// Records an event on an explicit display lane — used by the graph
    /// executor so concurrent nodes land on separate tracks.
    pub fn push_lane(
        &self,
        start: f64,
        end: f64,
        kind: EventKind,
        label: impl Into<String>,
        lane: usize,
    ) {
        if !self.enabled {
            return;
        }
        assert!(end >= start, "event ends before it starts");
        self.inner.lock().push(Event {
            start,
            end,
            kind,
            label: label.into(),
            lane,
        });
    }

    /// Snapshot of all recorded events in insertion order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().clone()
    }

    /// Number of recorded events.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total seconds across events matching `pred`.
    pub(crate) fn total_where(&self, pred: impl Fn(&Event) -> bool) -> f64 {
        self.inner
            .lock()
            .iter()
            .filter(|e| pred(e))
            .map(Event::duration)
            .sum()
    }

    /// Total seconds spent in a kind.
    pub fn total(&self, kind: EventKind) -> f64 {
        self.total_where(|e| e.kind == kind)
    }

    /// Total seconds in any `Compute` event.
    pub fn total_compute(&self) -> f64 {
        self.total_where(|e| matches!(e.kind, EventKind::Compute(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let t = Trace::new(true);
        t.push(0.0, 1.0, EventKind::Compute(OpKind::Gemm), "fwd");
        t.push(1.0, 1.5, EventKind::Stall, "chunk 1");
        t.push(1.5, 2.0, EventKind::Compute(OpKind::Elementwise), "sgd");
        assert_eq!(t.len(), 3);
        assert_eq!(t.total(EventKind::Stall), 0.5);
        assert_eq!(t.total_compute(), 1.5);
        assert_eq!(t.total(EventKind::Compute(OpKind::Gemm)), 1.0);
        assert_eq!(t.events()[1].label, "chunk 1");
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::new(false);
        t.push(0.0, 1.0, EventKind::Transfer, "x");
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn clones_share_log() {
        let t = Trace::new(true);
        let u = t.clone();
        t.push(0.0, 1.0, EventKind::Sync, "b");
        assert_eq!(u.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn backwards_event_rejected() {
        Trace::new(true).push(2.0, 1.0, EventKind::Stall, "bad");
    }

    #[test]
    fn lanes_default_to_zero_and_round_trip() {
        let t = Trace::new(true);
        t.push(0.0, 1.0, EventKind::Sync, "serial");
        t.push_lane(0.0, 1.0, EventKind::Node, "H1", 2);
        let evs = t.events();
        assert_eq!(evs[0].lane, 0);
        assert_eq!(evs[1].lane, 2);
        assert_eq!(evs[1].kind, EventKind::Node);
    }
}
