//! Batched asynchronous inference serving with backpressure.
//!
//! The paper's thesis is that the Xeon Phi only earns its keep when work
//! arrives in large, vectorizable batches; a serving front-end that runs
//! one request at a time wastes the card exactly the way an unblocked
//! GEMM does. This module closes that gap for the inference path: a
//! bounded request queue coalesces individual requests into dynamic
//! micro-batches, each batch runs as one forward [`TaskGraph`] through
//! the existing executor/verifier, and the rows of the batched softmax
//! output are scattered back to their requests.
//!
//! Batching policy (the classic dynamic-batching pair):
//!
//! * flush when [`ServeConfig::max_batch`] requests are queued, or
//! * flush when the **oldest** queued request has waited
//!   [`ServeConfig::max_wait_secs`] — the latency bound.
//!
//! Backpressure is admission control: the queue holds at most
//! [`ServeConfig::queue_cap`] requests and an arrival past that is
//! rejected immediately with [`ServeError::Overloaded`] rather than
//! growing an unbounded buffer in front of a saturated device.
//!
//! The server is supervised in the spirit of
//! [`crate::supervise`]: a batch whose forward pass panics is caught and
//! retried request-by-request, and a poisoned lane (a non-finite output
//! row, e.g. from a `kernel.nan` fault injection) fails only the request
//! that owns the row — the server itself stays up.
//!
//! The event loop is deterministic: requests carry explicit arrival
//! timestamps (see `micdnn_sim::ArrivalSchedule`), time advances either
//! by the simulated clock (priced contexts) or wall clock (native), and
//! per-request latencies are routed through the attached [`Profiler`](crate::Profiler)
//! under the `serve.request` label so `--profile` output carries the
//! p50/p99 section.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::exec::ExecCtx;
use crate::faults;
use crate::finetune::FineTuneNet;
use crate::graph::{BufClass, BufId, NodeSpec, TaskGraph, Workspace};
use crate::supervise::panic_message;
use micdnn_tensor::{Mat, MatView, MatViewMut};
use serde::{Deserialize, Serialize};

/// Schema marker carried by every serialized [`ServeReport`].
pub const SERVE_SCHEMA: &str = "micdnn-serve-v1";

/// Dynamic micro-batching policy for the serving queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Flush a batch as soon as this many requests are queued (>= 1).
    pub max_batch: usize,
    /// Flush a batch once its oldest request has waited this long,
    /// seconds (>= 0, finite). 0 disables coalescing-by-waiting.
    pub max_wait_secs: f64,
    /// Admission bound: arrivals beyond this queue depth are rejected
    /// with [`ServeError::Overloaded`] (>= 1).
    pub queue_cap: usize,
}

impl ServeConfig {
    /// A small, latency-leaning default: batches of up to 32, a 2 ms
    /// coalescing window, and room for 4 batches in the queue.
    pub fn new() -> Self {
        ServeConfig {
            max_batch: 32,
            max_wait_secs: 2e-3,
            queue_cap: 128,
        }
    }

    /// Validates the policy, returning a typed error for degenerate
    /// geometry instead of letting the event loop spin or panic.
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        if self.max_batch == 0 {
            return Err(ServeConfigError::ZeroMaxBatch);
        }
        if self.queue_cap == 0 {
            return Err(ServeConfigError::ZeroQueueCap);
        }
        if !self.max_wait_secs.is_finite() || self.max_wait_secs < 0.0 {
            return Err(ServeConfigError::BadMaxWait {
                secs: self.max_wait_secs,
            });
        }
        Ok(())
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A [`ServeConfig`] that cannot drive the queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeConfigError {
    /// `max_batch == 0`: no batch could ever flush.
    ZeroMaxBatch,
    /// `queue_cap == 0`: every arrival would be rejected.
    ZeroQueueCap,
    /// `max_wait_secs` negative, NaN or infinite.
    BadMaxWait {
        /// The offending value.
        secs: f64,
    },
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeConfigError::ZeroMaxBatch => {
                write!(f, "max_batch must be at least 1")
            }
            ServeConfigError::ZeroQueueCap => {
                write!(
                    f,
                    "queue_cap must be at least 1; 0 would reject every request"
                )
            }
            ServeConfigError::BadMaxWait { secs } => {
                write!(f, "max_wait must be finite and non-negative, got {secs}")
            }
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// Why an individual request did not produce class probabilities.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The queue was at `queue_cap` when the request arrived.
    Overloaded {
        /// The configured admission bound that was hit.
        queue_cap: usize,
    },
    /// The request's input row has the wrong dimensionality for the net.
    BadInput {
        /// The net's input dimension.
        expected: usize,
        /// The request's row length.
        got: usize,
    },
    /// The request's output row was poisoned (non-finite values, or its
    /// individual retry after a batch panic failed).
    Poisoned {
        /// Human-readable cause.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queue_cap } => {
                write!(f, "server overloaded: queue at capacity {queue_cap}")
            }
            ServeError::BadInput { expected, got } => {
                write!(f, "bad input: expected {expected} features, got {got}")
            }
            ServeError::Poisoned { detail } => write!(f, "request poisoned: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One inference request: an arrival timestamp (seconds, on the same
/// axis as the event loop's clock) and an input feature row.
#[derive(Debug, Clone)]
pub struct Request {
    /// When the request reaches the queue, seconds.
    pub arrival_secs: f64,
    /// The input feature row (must match the net's input dimension).
    pub input: Vec<f32>,
}

/// The fate of one request after the event loop has drained.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Index of the request in the submitted slice.
    pub index: usize,
    /// The request's arrival time, echoed for convenience.
    pub arrival_secs: f64,
    /// When the response was produced (equals `arrival_secs` for
    /// rejected requests — rejection is immediate).
    pub completion_secs: f64,
    /// Class probabilities, or the typed reason there are none.
    pub result: Result<Vec<f32>, ServeError>,
}

impl RequestOutcome {
    /// Queue latency + service time, seconds.
    pub fn latency_secs(&self) -> f64 {
        self.completion_secs - self.arrival_secs
    }
}

/// Aggregate serving statistics, serialized into `BENCH_serve.json` and
/// rendered by `micdnn serve`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Always [`SERVE_SCHEMA`].
    pub schema: String,
    /// Requests that returned probabilities.
    pub completed: u64,
    /// Requests rejected at admission ([`ServeError::Overloaded`]).
    pub rejected: u64,
    /// Requests that reached a batch but failed ([`ServeError::Poisoned`]).
    pub failed: u64,
    /// Batches flushed.
    pub batches: u64,
    /// Mean rows per flushed batch.
    pub mean_batch_rows: f64,
    /// First arrival to last completion, seconds.
    pub makespan_secs: f64,
    /// `completed / makespan_secs`.
    pub throughput_rps: f64,
    /// Mean latency over responded (completed + failed) requests.
    pub mean_latency_secs: f64,
    /// Median latency, nearest-rank.
    pub p50_latency_secs: f64,
    /// 99th-percentile latency, nearest-rank.
    pub p99_latency_secs: f64,
    /// Worst-case latency.
    pub max_latency_secs: f64,
}

/// Everything the event loop produced: per-request outcomes in
/// submission order plus the aggregate report.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// One outcome per submitted request, in submission order.
    pub outcomes: Vec<RequestOutcome>,
    /// Aggregate statistics.
    pub report: ServeReport,
}

/// State threaded through the forward graph's nodes: the (immutable)
/// net, the planned arena, and the live batch.
pub struct ServeState<'a> {
    net: &'a FineTuneNet,
    ws: &'a mut Workspace,
    x: MatView<'a>,
}

/// Builds the forward-only inference dataflow for a `widths`-shaped
/// encoder stack and `n_classes` head: the layer chain of
/// `sigmoid(input W^T + b)` nodes feeding the softmax head. Buffers are
/// declared against `cap` rows so one planned workspace serves every
/// micro-batch up to `max_batch` (nodes slice to the live rows).
///
/// Layer activations are `Scratch` — each is dead once the next layer
/// has consumed it, so the planner aliases them into a rotating pair of
/// registers — and the probability matrix is `Pinned`: it is the output
/// the scatter step reads after the run. Returns the graph and the
/// probability buffer's id.
///
/// Public so integration tests can pin the serving graph's
/// [`TaskGraph::verify`] report at zero errors and zero warnings.
pub fn build_forward_graph<'a>(
    in_dim: usize,
    widths: &[usize],
    n_classes: usize,
    cap: usize,
) -> (TaskGraph<'static, ServeState<'a>>, BufId) {
    let n_layers = widths.len();
    let code_dim = *widths.last().expect("non-empty net");
    let mut g: TaskGraph<'static, ServeState<'a>> = TaskGraph::new();

    let xb = g.declare_dims("x", &[cap, in_dim], BufClass::External);
    let wsm = g.declare_dims("softmax.w", &[n_classes, code_dim], BufClass::External);
    let bsm = g.declare_dims("softmax.b", &[n_classes], BufClass::External);
    let (mut wl, mut bl, mut al) = (Vec::new(), Vec::new(), Vec::new());
    let mut prev = in_dim;
    for &h in widths {
        wl.push(g.declare_dims("layer.w", &[h, prev], BufClass::External));
        bl.push(g.declare_dims("layer.b", &[h], BufClass::External));
        al.push(g.declare_dims("act", &[cap, h], BufClass::Scratch));
        prev = h;
    }
    let probs = g.declare_dims("probs", &[cap, n_classes], BufClass::Pinned);

    for l in 0..n_layers {
        let a_prev = if l == 0 { None } else { Some(al[l - 1]) };
        let a_cur = al[l];
        let reads = [a_prev.unwrap_or(xb), wl[l], bl[l]];
        g.node(
            NodeSpec::new("forward")
                .reads(&reads)
                .writes(&[a_cur])
                .shape(a_cur, &[cap, widths[l]]),
            move |ctx, st: &mut ServeState<'a>| {
                let b = st.x.rows();
                let (w, bias) = &st.net.layer_params()[l];
                let h = w.rows();
                match a_prev {
                    None => {
                        let out = &mut st.ws.buf_mut(a_cur)[..b * h];
                        let mut v = MatViewMut::new(out, b, h);
                        ctx.gemm(1.0, st.x, false, w.view(), true, 0.0, &mut v);
                        ctx.bias_sigmoid_rows(bias, &mut v);
                    }
                    Some(p) => {
                        let pw = w.cols();
                        let [inp, out] = st.ws.bufs_mut([p, a_cur]);
                        let iv = MatView::new(&inp[..b * pw], b, pw);
                        let mut v = MatViewMut::new(&mut out[..b * h], b, h);
                        ctx.gemm(1.0, iv, false, w.view(), true, 0.0, &mut v);
                        ctx.bias_sigmoid_rows(bias, &mut v);
                    }
                }
            },
        );
    }

    let a_top = al[n_layers - 1];
    g.node(
        NodeSpec::new("softmax")
            .reads(&[a_top, wsm, bsm])
            .writes(&[probs])
            .shape(a_top, &[cap, code_dim])
            .shape(probs, &[cap, n_classes]),
        move |ctx, st: &mut ServeState<'a>| {
            let b = st.x.rows();
            let (c, code) = (st.net.softmax.n_classes(), st.net.softmax.in_dim());
            let [a, p] = st.ws.bufs_mut([a_top, probs]);
            let av = MatView::new(&a[..b * code], b, code);
            let mut pv = MatViewMut::new(&mut p[..b * c], b, c);
            st.net.softmax.forward_into(ctx, av, &mut pv);
        },
    );

    (g, probs)
}

/// The forward pass of one micro-batch, with supervised recovery.
///
/// Happy path: one graph execution over the whole batch, then a per-row
/// finite check so a poisoned lane (e.g. a `kernel.nan` injection) fails
/// only its own request. If the batched execution *panics*, the panic is
/// caught, an incident is noted on the context, and every request is
/// retried individually — a request whose solo retry also panics comes
/// back [`ServeError::Poisoned`]; the rest still succeed.
fn run_batch(
    net: &FineTuneNet,
    ctx: &ExecCtx,
    ws: &mut Workspace,
    cap: usize,
    inputs: &[&[f32]],
) -> Vec<Result<Vec<f32>, ServeError>> {
    let b = inputs.len();
    debug_assert!(b > 0 && b <= cap);
    let in_dim = net.layer_params()[0].0.cols();
    let widths: Vec<usize> = net.layer_params().iter().map(|(w, _)| w.rows()).collect();
    let c = net.softmax.n_classes();

    let mut x = Mat::zeros(b, in_dim);
    for (r, row) in inputs.iter().enumerate() {
        x.as_mut_slice()[r * in_dim..(r + 1) * in_dim].copy_from_slice(row);
    }
    // Fault site: a kernel excursion poisons the first lane of the batch.
    // Row-local by construction — GEMM, the bias+sigmoid sweep and the
    // row-wise softmax all keep NaN confined to the row that produced it.
    if faults::fire("kernel.nan") {
        x.as_mut_slice()[0] = f32::NAN;
    }

    let batched = catch_unwind(AssertUnwindSafe(|| {
        let (mut graph, probs_id) = build_forward_graph(in_dim, &widths, c, cap);
        let mut state = ServeState {
            net,
            ws,
            x: x.view(),
        };
        graph.execute(ctx, &mut state);
        state.ws.buf(probs_id)[..b * c].to_vec()
    }));

    match batched {
        Ok(flat) => flat
            .chunks(c)
            .map(|row| {
                if row.iter().all(|v| v.is_finite()) {
                    Ok(row.to_vec())
                } else {
                    Err(ServeError::Poisoned {
                        detail: "non-finite probabilities in output row".to_string(),
                    })
                }
            })
            .collect(),
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            ctx.note_incident("serve.batch-panic", &msg);
            inputs
                .iter()
                .map(|row| {
                    let solo = catch_unwind(AssertUnwindSafe(|| {
                        let xv = MatView::new(row, 1, in_dim);
                        net.predict_proba(ctx, xv)
                    }));
                    match solo {
                        Ok(probs) if probs.as_slice().iter().all(|v| v.is_finite()) => {
                            Ok(probs.as_slice().to_vec())
                        }
                        Ok(_) => Err(ServeError::Poisoned {
                            detail: "non-finite probabilities in output row".to_string(),
                        }),
                        Err(p) => Err(ServeError::Poisoned {
                            detail: format!("solo retry panicked: {}", panic_message(p.as_ref())),
                        }),
                    }
                })
                .collect()
        }
    }
}

/// Drives the deterministic serving event loop over a set of timestamped
/// requests and returns every outcome plus the aggregate report.
///
/// Single logical server: at most one batch is in flight, and while it
/// runs the clock advances by its service time (simulated seconds under
/// a priced context, wall seconds natively), so arrivals during service
/// pile into — and can overflow — the bounded queue. Requests are
/// processed in arrival order; ties keep submission order.
pub fn serve_requests(
    net: &FineTuneNet,
    ctx: &ExecCtx,
    cfg: &ServeConfig,
    requests: &[Request],
) -> Result<ServeRun, ServeConfigError> {
    cfg.validate()?;
    let in_dim = net.layer_params()[0].0.cols();
    let widths: Vec<usize> = net.layer_params().iter().map(|(w, _)| w.rows()).collect();
    let n_classes = net.softmax.n_classes();

    // Stable sort by arrival so callers may pass unsorted traffic.
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        requests[a]
            .arrival_secs
            .partial_cmp(&requests[b].arrival_secs)
            .expect("finite arrival times")
    });

    let plan = build_forward_graph(in_dim, &widths, n_classes, cfg.max_batch)
        .0
        .plan();
    let mut ws = Workspace::new(&plan);

    let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; requests.len()];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut next = 0usize; // next index into `order` not yet admitted
    let mut now = order.first().map_or(0.0, |&i| requests[i].arrival_secs);
    let priced = ctx.platform().is_some();
    let mut batches = 0u64;
    let mut batch_rows = 0u64;

    loop {
        // Admit every arrival up to `now`, bouncing overflow immediately.
        while next < order.len() && requests[order[next]].arrival_secs <= now {
            let idx = order[next];
            next += 1;
            let req = &requests[idx];
            if req.input.len() != in_dim {
                outcomes[idx] = Some(RequestOutcome {
                    index: idx,
                    arrival_secs: req.arrival_secs,
                    completion_secs: req.arrival_secs,
                    result: Err(ServeError::BadInput {
                        expected: in_dim,
                        got: req.input.len(),
                    }),
                });
            } else if queue.len() >= cfg.queue_cap {
                outcomes[idx] = Some(RequestOutcome {
                    index: idx,
                    arrival_secs: req.arrival_secs,
                    completion_secs: req.arrival_secs,
                    result: Err(ServeError::Overloaded {
                        queue_cap: cfg.queue_cap,
                    }),
                });
            } else {
                queue.push_back(idx);
            }
        }

        if queue.is_empty() {
            match next < order.len() {
                true => {
                    now = now.max(requests[order[next]].arrival_secs);
                    continue;
                }
                false => break,
            }
        }

        let oldest = requests[*queue.front().expect("non-empty")].arrival_secs;
        let deadline = oldest + cfg.max_wait_secs;
        if queue.len() >= cfg.max_batch || deadline <= now {
            // Flush: take the oldest max_batch requests as one micro-batch.
            let take = queue.len().min(cfg.max_batch);
            let batch: Vec<usize> = queue.drain(..take).collect();
            let inputs: Vec<&[f32]> = batch
                .iter()
                .map(|&i| requests[i].input.as_slice())
                .collect();
            let sim0 = ctx.sim_time();
            let wall0 = Instant::now();
            let results = run_batch(net, ctx, &mut ws, cfg.max_batch, &inputs);
            let service = if priced {
                ctx.sim_time() - sim0
            } else {
                wall0.elapsed().as_secs_f64()
            };
            now += service;
            batches += 1;
            batch_rows += batch.len() as u64;
            for (idx, result) in batch.into_iter().zip(results) {
                let arrival = requests[idx].arrival_secs;
                let latency = now - arrival;
                if let Some(p) = ctx.profiler() {
                    p.record_latency("serve.request", latency);
                }
                outcomes[idx] = Some(RequestOutcome {
                    index: idx,
                    arrival_secs: arrival,
                    completion_secs: now,
                    result,
                });
            }
        } else {
            // Idle until the flush deadline or the next arrival,
            // whichever comes first.
            let target = if next < order.len() {
                deadline.min(requests[order[next]].arrival_secs)
            } else {
                deadline
            };
            now = now.max(target);
        }
    }

    let outcomes: Vec<RequestOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("event loop resolved every request"))
        .collect();
    let report = summarize(&outcomes, batches, batch_rows);
    Ok(ServeRun { outcomes, report })
}

/// Folds per-request outcomes into the aggregate [`ServeReport`].
fn summarize(outcomes: &[RequestOutcome], batches: u64, batch_rows: u64) -> ServeReport {
    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut failed = 0u64;
    let mut latencies = Vec::new();
    let mut first_arrival = f64::INFINITY;
    let mut last_completion = f64::NEG_INFINITY;
    for o in outcomes {
        first_arrival = first_arrival.min(o.arrival_secs);
        match &o.result {
            Ok(_) => {
                completed += 1;
                latencies.push(o.latency_secs());
                last_completion = last_completion.max(o.completion_secs);
            }
            Err(ServeError::Poisoned { .. }) => {
                failed += 1;
                latencies.push(o.latency_secs());
                last_completion = last_completion.max(o.completion_secs);
            }
            Err(_) => rejected += 1,
        }
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    let responded = latencies.len();
    let makespan = if responded > 0 {
        (last_completion - first_arrival).max(0.0)
    } else {
        0.0
    };
    let (mean, p50, p99, max) = if responded > 0 {
        (
            latencies.iter().sum::<f64>() / responded as f64,
            crate::profile::percentile(&latencies, 0.50),
            crate::profile::percentile(&latencies, 0.99),
            *latencies.last().expect("non-empty"),
        )
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };
    ServeReport {
        schema: SERVE_SCHEMA.to_string(),
        completed,
        rejected,
        failed,
        batches,
        mean_batch_rows: if batches > 0 {
            batch_rows as f64 / batches as f64
        } else {
            0.0
        },
        makespan_secs: makespan,
        throughput_rps: if makespan > 0.0 {
            completed as f64 / makespan
        } else {
            0.0
        },
        mean_latency_secs: mean,
        p50_latency_secs: p50,
        p99_latency_secs: p99,
        max_latency_secs: max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::OptLevel;

    fn net() -> FineTuneNet {
        FineTuneNet::random(&[20, 12, 8], 4, 7)
    }

    fn rows(n: usize, in_dim: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..in_dim)
                    .map(|j| ((i * 31 + j * 7) % 17) as f32 / 17.0)
                    .collect()
            })
            .collect()
    }

    fn steady_requests(n: usize, gap: f64, in_dim: usize) -> Vec<Request> {
        rows(n, in_dim)
            .into_iter()
            .enumerate()
            .map(|(i, input)| Request {
                arrival_secs: i as f64 * gap,
                input,
            })
            .collect()
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let bad = [
            (
                ServeConfig {
                    max_batch: 0,
                    ..ServeConfig::new()
                },
                ServeConfigError::ZeroMaxBatch,
            ),
            (
                ServeConfig {
                    queue_cap: 0,
                    ..ServeConfig::new()
                },
                ServeConfigError::ZeroQueueCap,
            ),
            (
                ServeConfig {
                    max_wait_secs: -1.0,
                    ..ServeConfig::new()
                },
                ServeConfigError::BadMaxWait { secs: -1.0 },
            ),
        ];
        for (cfg, want) in bad {
            assert_eq!(cfg.validate().unwrap_err(), want);
        }
        assert!(ServeConfig::new().validate().is_ok());
        let n = net();
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let cfg = ServeConfig {
            max_batch: 0,
            ..ServeConfig::new()
        };
        assert_eq!(
            serve_requests(&n, &ctx, &cfg, &[]).unwrap_err(),
            ServeConfigError::ZeroMaxBatch
        );
    }

    #[test]
    fn batched_outputs_are_bit_identical_to_direct_forward() {
        let n = net();
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let reqs = steady_requests(9, 0.0, 20);
        let cfg = ServeConfig {
            max_batch: 4,
            max_wait_secs: 0.0,
            queue_cap: 64,
        };
        let run = serve_requests(&n, &ctx, &cfg, &reqs).unwrap();
        assert_eq!(run.report.completed, 9);
        assert_eq!(run.report.rejected, 0);
        for (i, o) in run.outcomes.iter().enumerate() {
            let got = o.result.as_ref().unwrap();
            let xv = MatView::new(&reqs[i].input, 1, 20);
            let want = n.predict_proba(&ctx, xv);
            assert_eq!(got.as_slice(), want.as_slice(), "request {i}");
        }
    }

    #[test]
    fn simultaneous_arrivals_coalesce_into_batches() {
        let n = net();
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        // All 16 requests arrive at t=0 with a generous wait window.
        let reqs: Vec<Request> = rows(16, 20)
            .into_iter()
            .map(|input| Request {
                arrival_secs: 0.0,
                input,
            })
            .collect();
        let cfg = ServeConfig {
            max_batch: 8,
            max_wait_secs: 1.0,
            queue_cap: 64,
        };
        let run = serve_requests(&n, &ctx, &cfg, &reqs).unwrap();
        assert_eq!(run.report.completed, 16);
        assert_eq!(run.report.batches, 2, "16 simultaneous / max_batch 8");
        assert_eq!(run.report.mean_batch_rows, 8.0);
    }

    #[test]
    fn overload_rejects_with_typed_error_and_server_survives() {
        let n = net();
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let reqs: Vec<Request> = rows(12, 20)
            .into_iter()
            .map(|input| Request {
                arrival_secs: 0.0,
                input,
            })
            .collect();
        // Queue of 4, batches of 2: 4 admitted at t=0, 8 bounced.
        let cfg = ServeConfig {
            max_batch: 2,
            max_wait_secs: 0.0,
            queue_cap: 4,
        };
        let run = serve_requests(&n, &ctx, &cfg, &reqs).unwrap();
        assert_eq!(run.report.rejected, 8);
        assert_eq!(run.report.completed, 4);
        let bounced = run
            .outcomes
            .iter()
            .filter(|o| matches!(o.result, Err(ServeError::Overloaded { queue_cap: 4 })))
            .count();
        assert_eq!(bounced, 8);
        // Rejection is immediate: no latency is accrued.
        for o in &run.outcomes {
            if o.result.is_err() {
                assert_eq!(o.latency_secs(), 0.0);
            }
        }
    }

    #[test]
    fn deadline_flushes_a_lone_request() {
        let n = net();
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let reqs = steady_requests(1, 0.0, 20);
        let cfg = ServeConfig {
            max_batch: 64,
            max_wait_secs: 0.5,
            queue_cap: 64,
        };
        let run = serve_requests(&n, &ctx, &cfg, &reqs).unwrap();
        assert_eq!(run.report.completed, 1);
        let o = &run.outcomes[0];
        assert!(
            o.latency_secs() >= 0.5,
            "lone request must wait out the coalescing window, waited {}",
            o.latency_secs()
        );
    }

    #[test]
    fn bad_input_fails_typed_without_consuming_a_queue_slot() {
        let n = net();
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let mut reqs = steady_requests(3, 0.0, 20);
        reqs[1].input = vec![0.5; 7];
        let cfg = ServeConfig {
            max_batch: 4,
            max_wait_secs: 0.0,
            queue_cap: 2,
        };
        let run = serve_requests(&n, &ctx, &cfg, &reqs).unwrap();
        assert_eq!(
            run.outcomes[1].result,
            Err(ServeError::BadInput {
                expected: 20,
                got: 7
            })
        );
        // The malformed request did not occupy capacity: both valid
        // requests fit the 2-deep queue and completed.
        assert_eq!(run.report.completed, 2);
        assert_eq!(run.report.rejected, 1);
    }

    #[test]
    fn latencies_are_routed_through_the_profiler() {
        let n = net();
        let profiler = crate::profile::Profiler::new();
        let ctx = ExecCtx::native(OptLevel::Improved, 0).with_profiler(profiler.clone());
        let reqs = steady_requests(6, 1e-4, 20);
        let run = serve_requests(&n, &ctx, &ServeConfig::new(), &reqs).unwrap();
        assert_eq!(run.report.completed, 6);
        let report = profiler.report(None, 0.0);
        let lat = report
            .latencies
            .iter()
            .find(|l| l.label == "serve.request")
            .expect("serve.request latency section");
        assert_eq!(lat.count, 6);
        assert!(lat.p99_secs >= lat.p50_secs);
        assert!(run.report.p99_latency_secs >= run.report.p50_latency_secs);
    }

    #[test]
    fn report_summary_is_consistent() {
        let n = net();
        let ctx = ExecCtx::simulated(OptLevel::Improved, micdnn_sim::Platform::xeon_phi(), 3);
        let reqs = steady_requests(24, 1e-5, 20);
        let cfg = ServeConfig {
            max_batch: 8,
            max_wait_secs: 1e-3,
            queue_cap: 32,
        };
        let run = serve_requests(&n, &ctx, &cfg, &reqs).unwrap();
        let r = &run.report;
        assert_eq!(r.schema, SERVE_SCHEMA);
        assert_eq!(r.completed + r.rejected + r.failed, 24);
        assert!(r.batches >= 1);
        assert!(r.mean_batch_rows >= 1.0);
        assert!(r.makespan_secs > 0.0, "simulated service time must accrue");
        assert!(r.throughput_rps > 0.0);
        assert!(r.max_latency_secs >= r.p99_latency_secs);
        assert!(r.p99_latency_secs >= r.p50_latency_secs);
        assert!(r.p50_latency_secs > 0.0);
        // Round-trips through the serde shim as a named-field struct.
        let json = serde_json::to_string(r).unwrap();
        let back: ServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, r);
    }

    #[test]
    fn forward_graph_verifies_clean() {
        let (g, _) = build_forward_graph(20, &[12, 8], 4, 16);
        let report = g.verify();
        assert!(report.errors.is_empty(), "{report:?}");
        assert!(report.warnings.is_empty(), "{report:?}");
    }
}
