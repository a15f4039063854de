//! Per-op profiling and bench-trajectory reporting.
//!
//! A [`Profiler`] attaches to an [`crate::ExecCtx`] and aggregates, per op
//! kind and kernel label, how many invocations ran, how long they took,
//! and what fraction of the modeled device's peak they sustained — the
//! numbers behind the paper's Table I discussion of where training time
//! goes (GEMM vs sigmoid vs update sweeps). It also collects phase spans
//! (chunk loading, forward, backward, update, per-layer pre-training) and
//! the [`StreamStats`] of the double-buffered loader, so one report answers
//! both "which kernels dominate?" and "how much transfer was hidden?".
//!
//! Profiling is strictly opt-in: a context without an attached profiler
//! takes no locks and performs no allocation on the op path (see the
//! `profiler_does_not_perturb_op_stream` test).
//!
//! Timing source: on a simulated context every op's duration is its priced
//! simulated time; on a native context ops are wall-clock timed. Phase
//! spans always record both the simulated interval and wall time.

use micdnn_kernels::OpCost;
use micdnn_sim::StreamStats;
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Default, Clone, Copy)]
struct OpAgg {
    count: u64,
    total_secs: f64,
    max_secs: f64,
    flops: u64,
    bytes: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct PhaseAgg {
    count: u64,
    sim_secs: f64,
    wall_secs: f64,
}

#[derive(Debug, Default)]
struct Inner {
    /// Keyed by (kind name, kernel label); BTreeMap gives reports a
    /// deterministic order.
    ops: Mutex<BTreeMap<(&'static str, &'static str), OpAgg>>,
    /// Phases in first-seen order.
    phases: Mutex<Vec<(String, PhaseAgg)>>,
    streams: Mutex<Vec<StreamStats>>,
    /// Raw latency samples per label, first-seen order (the serving path
    /// records one sample per completed request).
    latencies: Mutex<Vec<(String, Vec<f64>)>>,
}

/// Shared-handle aggregator of op, phase, and stream statistics.
///
/// Clones share state, so the caller can keep one handle while the
/// execution context owns another.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Arc<Inner>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one executed op into the per-kind/per-label histogram.
    pub fn record_op(&self, cost: &OpCost, secs: f64) {
        let mut ops = self.inner.ops.lock();
        let agg = ops.entry((cost.kind.name(), cost.label)).or_default();
        agg.count += 1;
        agg.total_secs += secs;
        agg.max_secs = agg.max_secs.max(secs);
        agg.flops += cost.flops;
        agg.bytes += cost.total_bytes();
    }

    /// Folds one completed phase span into the per-phase totals.
    pub fn record_phase(&self, name: &str, sim_secs: f64, wall_secs: f64) {
        let mut phases = self.inner.phases.lock();
        let agg = match phases.iter_mut().position(|(n, _)| n == name) {
            Some(i) => &mut phases[i].1,
            None => {
                phases.push((name.to_string(), PhaseAgg::default()));
                &mut phases.last_mut().expect("just pushed").1
            }
        };
        agg.count += 1;
        agg.sim_secs += sim_secs;
        agg.wall_secs += wall_secs;
    }

    /// Records the final statistics of one [`micdnn_sim::ChunkStream`].
    pub fn record_stream(&self, stats: StreamStats) {
        self.inner.streams.lock().push(stats);
    }

    /// Records one latency sample (seconds) under `label` — e.g. the
    /// serving path's per-request end-to-end latency. Samples aggregate
    /// into a [`LatencyReport`] (count/mean/p50/p99/max) per label.
    pub fn record_latency(&self, label: &str, secs: f64) {
        let mut lats = self.inner.latencies.lock();
        match lats.iter_mut().find(|(n, _)| n == label) {
            Some((_, samples)) => samples.push(secs),
            None => lats.push((label.to_string(), vec![secs])),
        }
    }

    /// Builds the serializable report. `peak_gflops` (the modeled device's
    /// vector peak) turns each op's rate into a fraction of peak;
    /// `total_secs` is the run's end-to-end time (simulated seconds on a
    /// simulated context).
    pub fn report(&self, peak_gflops: Option<f64>, total_secs: f64) -> ProfileReport {
        let mut ops: Vec<OpReport> = self
            .inner
            .ops
            .lock()
            .iter()
            .map(|(&(kind, label), agg)| {
                let gflops = if agg.total_secs > 0.0 {
                    agg.flops as f64 / agg.total_secs / 1e9
                } else {
                    0.0
                };
                OpReport {
                    op: label.to_string(),
                    kind: kind.to_string(),
                    count: agg.count,
                    total_secs: agg.total_secs,
                    mean_secs: agg.total_secs / agg.count as f64,
                    max_secs: agg.max_secs,
                    flops: agg.flops,
                    bytes: agg.bytes,
                    gflops,
                    frac_of_peak: peak_gflops.map_or(0.0, |p| gflops / p),
                }
            })
            .collect();
        ops.sort_by(|a, b| b.total_secs.total_cmp(&a.total_secs));

        let phases: Vec<PhaseReport> = self
            .inner
            .phases
            .lock()
            .iter()
            .map(|(name, agg)| PhaseReport {
                phase: name.clone(),
                count: agg.count,
                sim_secs: agg.sim_secs,
                wall_secs: agg.wall_secs,
            })
            .collect();

        let streams = self.inner.streams.lock();
        let stream = if streams.is_empty() {
            None
        } else {
            let mut total = StreamReport {
                chunks: 0,
                bytes: 0,
                transfer_secs: 0.0,
                stall_secs: 0.0,
                hidden_fraction: 0.0,
            };
            for s in streams.iter() {
                total.chunks += s.chunks;
                total.bytes += s.bytes;
                total.transfer_secs += s.transfer_secs;
                total.stall_secs += s.stall_secs;
            }
            if total.transfer_secs > 0.0 {
                total.hidden_fraction = (1.0 - total.stall_secs / total.transfer_secs).max(0.0);
            }
            Some(total)
        };

        let latencies: Vec<LatencyReport> = self
            .inner
            .latencies
            .lock()
            .iter()
            .map(|(label, samples)| {
                let mut sorted = samples.clone();
                sorted.sort_by(|a, b| a.total_cmp(b));
                let n = sorted.len();
                LatencyReport {
                    label: label.clone(),
                    count: n as u64,
                    mean_secs: sorted.iter().sum::<f64>() / n as f64,
                    p50_secs: percentile(&sorted, 0.50),
                    p99_secs: percentile(&sorted, 0.99),
                    max_secs: sorted[n - 1],
                }
            })
            .collect();

        ProfileReport {
            schema: SCHEMA.to_string(),
            peak_gflops,
            total_secs,
            ops,
            phases,
            stream,
            latencies,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted non-empty sample set;
/// `q` in `[0, 1]`.
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Schema tag stamped into every exported report, bumped on breaking
/// layout changes (the golden test pins the current layout). v2 added the
/// `latencies` section.
pub(crate) const SCHEMA: &str = "micdnn-profile-v2";

/// Aggregate statistics of one op kind/label pair.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OpReport {
    /// Kernel label ("gemm", "bias+sigmoid", "cd-update", ...).
    pub op: String,
    /// Op kind name ("gemm", "elementwise", "transcendental", ...).
    pub kind: String,
    /// Invocations.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_secs: f64,
    /// Mean duration per invocation, seconds.
    pub mean_secs: f64,
    /// Longest single invocation, seconds.
    pub max_secs: f64,
    /// Summed floating-point operations.
    pub flops: u64,
    /// Summed bytes moved (read + written).
    pub bytes: u64,
    /// Sustained GFLOP/s over the summed duration.
    pub gflops: f64,
    /// `gflops` over the device's vector peak (0 when no platform model).
    pub frac_of_peak: f64,
}

/// Aggregate statistics of one named phase.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseReport {
    /// Phase name ("load", "forward", "backward", "update", ...).
    pub phase: String,
    /// Completed spans.
    pub count: u64,
    /// Summed simulated seconds covered by the spans.
    pub sim_secs: f64,
    /// Summed wall-clock seconds covered by the spans.
    pub wall_secs: f64,
}

/// Combined transfer statistics of the run's chunk streams.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamReport {
    /// Chunks delivered.
    pub chunks: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Total simulated transfer time.
    pub transfer_secs: f64,
    /// Transfer time the consumer actually waited for.
    pub stall_secs: f64,
    /// Fraction of transfer hidden behind compute.
    pub hidden_fraction: f64,
}

/// Latency distribution of one labeled sample set (e.g. per-request
/// serving latency).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LatencyReport {
    /// Sample-set label ("serve.request", ...).
    pub label: String,
    /// Recorded samples.
    pub count: u64,
    /// Arithmetic mean, seconds.
    pub mean_secs: f64,
    /// Median (nearest rank), seconds.
    pub p50_secs: f64,
    /// 99th percentile (nearest rank), seconds.
    pub p99_secs: f64,
    /// Largest sample, seconds.
    pub max_secs: f64,
}

/// The full profiling report of one run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProfileReport {
    /// Layout version tag (`micdnn-profile-v2`).
    pub schema: String,
    /// Modeled device vector peak, GFLOP/s (absent on native runs).
    pub peak_gflops: Option<f64>,
    /// End-to-end run time, seconds.
    pub total_secs: f64,
    /// Per-op statistics, largest total first.
    pub ops: Vec<OpReport>,
    /// Per-phase statistics, first-seen order.
    pub phases: Vec<PhaseReport>,
    /// Loader statistics when the run streamed chunks.
    pub stream: Option<StreamReport>,
    /// Latency distributions, first-seen order (empty unless the run
    /// recorded request latencies — the serving path does).
    pub latencies: Vec<LatencyReport>,
}

impl ProfileReport {
    /// Human-readable table, one section per report component.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile ({}): total {:.3} s",
            self.schema, self.total_secs
        ));
        if let Some(peak) = self.peak_gflops {
            out.push_str(&format!(", device peak {peak:.1} GF/s"));
        }
        out.push('\n');

        out.push_str("  op                   count    total s     mean s      GF/s   %peak\n");
        for op in &self.ops {
            // Without a modeled device there is no peak to compare against.
            let peak_col = match self.peak_gflops {
                Some(_) => format!("{:>6.1}%", op.frac_of_peak * 100.0),
                None => format!("{:>7}", "-"),
            };
            out.push_str(&format!(
                "  {:<20} {:>6} {:>10.4} {:>10.3e} {:>9.1} {peak_col}\n",
                op.op, op.count, op.total_secs, op.mean_secs, op.gflops,
            ));
        }

        if !self.phases.is_empty() {
            out.push_str("  phase                count      sim s     wall s\n");
            for p in &self.phases {
                out.push_str(&format!(
                    "  {:<20} {:>6} {:>10.4} {:>10.4}\n",
                    p.phase, p.count, p.sim_secs, p.wall_secs
                ));
            }
        }

        if !self.latencies.is_empty() {
            out.push_str(
                "  latency              count     mean s      p50 s      p99 s      max s\n",
            );
            for l in &self.latencies {
                out.push_str(&format!(
                    "  {:<20} {:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.4}\n",
                    l.label, l.count, l.mean_secs, l.p50_secs, l.p99_secs, l.max_secs
                ));
            }
        }

        if let Some(s) = &self.stream {
            out.push_str(&format!(
                "  stream: {} chunks, {:.1} MB, transfer {:.3} s, stall {:.3} s, {:.1}% hidden\n",
                s.chunks,
                s.bytes as f64 / 1e6,
                s.transfer_secs,
                s.stall_secs,
                s.hidden_fraction * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micdnn_kernels::OpCost;

    fn sample_profiler() -> Profiler {
        let p = Profiler::new();
        p.record_op(&OpCost::gemm(10, 10, 10, true), 0.5);
        p.record_op(&OpCost::gemm(10, 10, 10, true), 1.5);
        p.record_op(&OpCost::sigmoid(100), 0.25);
        p.record_phase("forward", 1.0, 0.01);
        p.record_phase("forward", 1.0, 0.01);
        p.record_phase("update", 0.5, 0.002);
        p.record_stream(StreamStats {
            chunks: 4,
            bytes: 4000,
            transfer_secs: 2.0,
            stall_secs: 0.5,
            ..StreamStats::default()
        });
        p.record_latency("serve.request", 0.004);
        p.record_latency("serve.request", 0.001);
        p.record_latency("serve.request", 0.002);
        p
    }

    #[test]
    fn aggregates_ops_by_label() {
        let report = sample_profiler().report(Some(1000.0), 2.75);
        assert_eq!(report.ops.len(), 2);
        let gemm = &report.ops[0]; // sorted by total desc
        assert_eq!(gemm.op, "gemm");
        assert_eq!(gemm.count, 2);
        assert!((gemm.total_secs - 2.0).abs() < 1e-12);
        assert!((gemm.mean_secs - 1.0).abs() < 1e-12);
        assert!((gemm.max_secs - 1.5).abs() < 1e-12);
        assert_eq!(gemm.flops, 2 * 2000);
        let expected_gflops = 4000.0 / 2.0 / 1e9;
        assert!((gemm.gflops - expected_gflops).abs() < 1e-15);
        assert!((gemm.frac_of_peak - expected_gflops / 1000.0).abs() < 1e-15);
    }

    #[test]
    fn aggregates_phases_in_first_seen_order() {
        let report = sample_profiler().report(None, 0.0);
        let names: Vec<&str> = report.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(names, ["forward", "update"]);
        assert_eq!(report.phases[0].count, 2);
        assert!((report.phases[0].sim_secs - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stream_totals_and_hidden_fraction() {
        let report = sample_profiler().report(None, 0.0);
        let s = report.stream.expect("stream stats recorded");
        assert_eq!(s.chunks, 4);
        assert!((s.hidden_fraction - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_profiler_reports_empty() {
        let report = Profiler::new().report(None, 0.0);
        assert!(report.ops.is_empty());
        assert!(report.phases.is_empty());
        assert!(report.stream.is_none());
        assert!(report.latencies.is_empty());
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        let p = Profiler::new();
        // 100 samples 1ms..100ms in shuffled-ish order.
        for i in 0..100u64 {
            p.record_latency("serve.request", ((i * 37) % 100 + 1) as f64 * 1e-3);
        }
        let report = p.report(None, 0.1);
        assert_eq!(report.latencies.len(), 1);
        let l = &report.latencies[0];
        assert_eq!(l.label, "serve.request");
        assert_eq!(l.count, 100);
        assert!((l.p50_secs - 0.051).abs() < 1e-12, "p50 {}", l.p50_secs);
        assert!((l.p99_secs - 0.099).abs() < 1e-12, "p99 {}", l.p99_secs);
        assert!((l.max_secs - 0.100).abs() < 1e-12);
        assert!((l.mean_secs - 0.0505).abs() < 1e-12);
        // A single sample is its own p50/p99/max.
        let q = Profiler::new();
        q.record_latency("one", 0.25);
        let r = q.report(None, 0.0);
        assert_eq!(
            (r.latencies[0].p50_secs, r.latencies[0].p99_secs),
            (0.25, 0.25)
        );
    }

    #[test]
    fn clones_share_state() {
        let p = Profiler::new();
        let q = p.clone();
        q.record_op(&OpCost::sigmoid(10), 0.1);
        assert_eq!(p.report(None, 0.0).ops.len(), 1);
    }

    #[test]
    fn report_serde_roundtrip() {
        let report = sample_profiler().report(Some(2021.76), 2.75);
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back = serde_json::from_str(&text).unwrap();
        assert_eq!(back, serde_json::to_value(&report));
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), text);
    }

    #[test]
    fn render_mentions_every_section() {
        let text = sample_profiler().report(Some(2021.76), 2.75).render();
        assert!(text.contains("gemm"));
        assert!(text.contains("forward"));
        assert!(text.contains("stream:"));
        assert!(text.contains("%peak") || text.contains("% hidden"));
    }
}
