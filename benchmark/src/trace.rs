//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness's side of each call into a library
//! layer (spans inside the library are a later change). They stay in a
//! vector until the run ends and are then written as one Chrome-trace file.
//! Spans nest by call order on the single driving thread; every span below
//! a repeat's root carries that repeat's id.

use crate::api::{json, Value};
use std::time::Instant;

/// One closed (or still open) interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id of the repeat this span belongs to.
    pub repeat: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) * 1e-6
    }
}

/// Handle returned by [`Tracer::begin`]; closes exactly one span.
#[must_use = "a span left open has no end time"]
pub struct Open(usize);

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    repeat: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            repeat: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens the root span of repeat `id`; spans begun before it closes
    /// share the id.
    pub fn begin_repeat(&mut self, id: usize) -> Open {
        assert!(self.stack.is_empty(), "a repeat is a root span");
        self.repeat = id;
        self.begin("repeat")
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent: self.stack.last().copied(),
            repeat: self.repeat,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes `open`, which must be the innermost open span; returns its
    /// duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans close innermost first");
        let now = self.now_us();
        let span = &mut self.spans[open.0];
        span.end_us = now;
        span.secs()
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    pub fn total_secs(&self, name: &str) -> f64 {
        self.secs_of(name).iter().sum()
    }

    /// Total self time per span name, first-seen order: a span's duration
    /// minus the part its direct children cover.
    pub fn self_secs_by_name(&self) -> Vec<(&'static str, f64)> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.secs();
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            let own = (s.secs() - c).max(0.0);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// The spans as a Chrome-trace document (`chrome://tracing`, Perfetto):
    /// complete events on one thread, `args.id` the repeat, `args.parent`
    /// the enclosing span's name. `counters` become the file's metadata.
    pub fn chrome_trace(&self, workload: &str, counters: &[(String, f64)]) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "cat": workload,
                    "ph": "X",
                    "ts": s.start_us,
                    "dur": s.end_us - s.start_us,
                    "pid": 1,
                    "tid": 0,
                    "args": json!({
                        "id": s.repeat,
                        "parent": s.parent.map_or("", |p| self.spans[p].name)
                    })
                })
            })
            .collect();
        let meta: Vec<(String, Value)> = counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::F64(*v)))
            .collect();
        json!({
            "traceEvents": Value::Array(events),
            "displayTimeUnit": "ms",
            "metadata": Value::Object(meta)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_repeat_id() {
        let mut t = Tracer::new();
        let root = t.begin_repeat(3);
        let a = t.begin("loader.next");
        t.end(a);
        let b = t.begin("step");
        let c = t.begin("ckpt.save");
        t.end(c);
        t.end(b);
        t.end(root);
        let s = &t.spans;
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|x| x.repeat == 3));
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s[0].start_us <= s[1].start_us && s[3].end_us <= s[0].end_us);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        let root = t.begin_repeat(0);
        t.span("step", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(root);
        let (whole, child) = (t.spans[0].secs(), t.spans[1].secs());
        assert!(child >= 0.005);
        let by_name = t.self_secs_by_name();
        assert_eq!(by_name[0].0, "repeat");
        assert!((by_name[0].1 - (whole - child)).abs() < 1e-9);
        assert_eq!(by_name[1], ("step", child));
    }

    #[test]
    fn chrome_trace_has_complete_events() {
        let mut t = Tracer::new();
        let root = t.begin_repeat(1);
        t.span("step", || ());
        t.end(root);
        let doc = t.chrome_trace("w", &[("gemm_s".to_string(), 0.5)]);
        let events = doc.get_field("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        let step = &events[1];
        assert_eq!(step.get_field("ph").unwrap().as_str(), Some("X"));
        let args = step.get_field("args").unwrap();
        assert_eq!(args.get_field("parent").unwrap().as_str(), Some("repeat"));
        assert_eq!(args.get_field("id").unwrap().as_i64(), Some(1));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }
}
