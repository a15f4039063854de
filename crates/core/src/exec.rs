//! Execution context: real kernels + simulated device time.
//!
//! Every training algorithm in this crate funnels its math through an
//! [`ExecCtx`]. The context executes the operation with the configured
//! [`Backend`] (one rung of the paper's optimization ladder) and, when a
//! platform model is attached, advances the simulated clock by the op's
//! priced duration and records it in the trace. This is how one code path
//! serves as the functional implementation, the wall-clock benchmark body,
//! and the source of every simulated figure in the paper reproduction.

use crate::profile::{ProfileReport, Profiler};
use micdnn_kernels::rng::{SampleStream, StreamId};
use micdnn_kernels::{Backend, OpCost, Operand};
use micdnn_sim::{CostModel, EventKind, Platform, SimClock, Trace};
use micdnn_tensor::{MatView, MatViewMut};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// The optimization rungs of the paper's Table I, plus the comparator
/// configuration used by its host-CPU baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// Sequential scalar code, no BLAS ("Baseline").
    Baseline,
    /// Loops threaded across cores ("OpenMP").
    OpenMp,
    /// Threaded + optimized BLAS for the matrix products ("OpenMP+MKL").
    OpenMpMkl,
    /// Threaded + BLAS + hand-vectorized fused loops
    /// ("Improved OpenMP+MKL").
    Improved,
    /// Single-threaded but with the optimized BLAS — the optimized
    /// sequential comparator run on one host CPU core in Figs. 7–9 and the
    /// Matlab process of Fig. 10.
    SequentialBlas,
}

impl OptLevel {
    /// The kernel backend implementing this rung.
    pub fn backend(self) -> Backend {
        match self {
            OptLevel::Baseline => Backend::baseline(),
            OptLevel::OpenMp => Backend::threaded(),
            OptLevel::OpenMpMkl => Backend::threaded_blas(),
            OptLevel::Improved => Backend::improved(),
            OptLevel::SequentialBlas => Backend::sequential_blas(),
        }
    }

    /// All four Phi rungs in Table I order.
    pub fn ladder() -> [OptLevel; 4] {
        [
            OptLevel::Baseline,
            OptLevel::OpenMp,
            OptLevel::OpenMpMkl,
            OptLevel::Improved,
        ]
    }

    /// Table I row label.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::Baseline => "Baseline",
            OptLevel::OpenMp => "OpenMP",
            OptLevel::OpenMpMkl => "OpenMP+MKL",
            OptLevel::Improved => "Improved OpenMP+MKL",
            OptLevel::SequentialBlas => "Sequential+BLAS",
        }
    }
}

/// Execution context binding a kernel backend to an optional device model.
///
/// Without a model (`ExecCtx::native`) it is a thin veneer over
/// [`Backend`] — what the wall-clock harness in `benchmark/` times. With a
/// model (`ExecCtx::simulated`) every op also advances simulated time on
/// the modeled platform.
pub struct ExecCtx {
    backend: Backend,
    pricing: Option<CostModel>,
    clock: SimClock,
    trace: Trace,
    sampler: Mutex<SampleStream>,
    /// Fast-path gate for `recorder`: ops check this atomic and skip the
    /// lock entirely while recording is off (the common case).
    recording: AtomicBool,
    recorder: Mutex<Vec<OpCost>>,
    /// Open [`ExecCtx::capture_ops`] guards, and the ops charged while any
    /// is open.
    capturing: AtomicUsize,
    captured: Mutex<Vec<OpCost>>,
    /// Opt-in statistics collector; `None` keeps the op path lock- and
    /// allocation-free.
    profiler: Option<Profiler>,
    /// When > 0, op prices accumulate here instead of the clock
    /// (dependency-graph execution, see [`ExecCtx::run_deferred`]).
    deferred: Mutex<Option<f64>>,
    /// Force graph verification even in release builds (CLI `--verify`);
    /// debug builds always verify.
    verify: bool,
    /// Graceful degradation opt-in: a verifier error demotes graph
    /// execution to the serial schedule instead of panicking.
    degrade: bool,
    /// Latched once a demotion happened; graph executors consult this and
    /// run serially for the remainder of the run.
    degraded: AtomicBool,
    /// Structured `(kind, detail)` notes recorded at demotion time, drained
    /// by the training supervisor into its incident log.
    incident_notes: Mutex<Vec<(String, String)>>,
}

impl ExecCtx {
    /// Context that only executes (no simulated time).
    pub fn native(level: OptLevel, seed: u64) -> Self {
        ExecCtx {
            backend: level.backend(),
            pricing: None,
            clock: SimClock::new(),
            trace: Trace::new(false),
            sampler: Mutex::new(SampleStream::new(seed)),
            recording: AtomicBool::new(false),
            recorder: Mutex::new(Vec::new()),
            capturing: AtomicUsize::new(0),
            captured: Mutex::new(Vec::new()),
            profiler: None,
            deferred: Mutex::new(None),
            verify: false,
            degrade: false,
            degraded: AtomicBool::new(false),
            incident_notes: Mutex::new(Vec::new()),
        }
    }

    /// Context that executes *and* charges the modeled platform.
    pub fn simulated(level: OptLevel, platform: Platform, seed: u64) -> Self {
        ExecCtx {
            pricing: Some(CostModel::new(platform)),
            ..Self::native(level, seed)
        }
    }

    /// Enables trace recording (off by default to keep big runs cheap).
    pub fn with_trace(mut self) -> Self {
        self.trace = Trace::new(true);
        self
    }

    /// Attaches a [`Profiler`]; every subsequent op and phase span is
    /// aggregated into it. The caller usually keeps a clone of the handle
    /// to read the report afterwards (or uses
    /// [`ExecCtx::profile_report`]).
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// The attached profiler, if any.
    pub(crate) fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Forces static graph verification before every graph
    /// execution, even in release builds (debug builds always verify).
    /// Errors in the report panic; warnings never do.
    pub fn with_verify(mut self) -> Self {
        self.verify = true;
        self
    }

    /// Whether release-mode graph verification was requested.
    pub(crate) fn verify_enabled(&self) -> bool {
        self.verify
    }

    /// Opts in to graceful degradation: a graph whose verification reports
    /// errors demotes the executor to the serial schedule for the rest of
    /// the run — recorded as an incident note —
    /// instead of panicking. Debug builds still panic so bugs surface in
    /// tests; the training supervisor can also force the demotion after
    /// catching a sanitizer trip.
    pub fn with_graceful_degradation(mut self) -> Self {
        self.degrade = true;
        self
    }

    /// Whether verifier errors demote instead of panicking.
    pub(crate) fn degradation_enabled(&self) -> bool {
        self.degrade
    }

    /// `true` once graph execution has been demoted to the serial schedule.
    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Latches the serial-only demotion and records an incident note.
    /// Used by the graph executor on verify failure (when
    /// [`ExecCtx::with_graceful_degradation`] is set) and by the training
    /// supervisor after catching a leg panic. A demoted context stops
    /// re-verifying graphs; a simulated one also prices each graph as
    /// `TaskGraph::run_serial` instead of by its critical path
    /// (a native one already runs declaration order).
    pub(crate) fn force_degrade(&self, kind: &str, detail: &str) {
        self.degraded.store(true, Ordering::Release);
        self.incident_notes
            .lock()
            .push((kind.to_string(), detail.to_string()));
    }

    /// Records an incident note *without* latching the serial-only
    /// demotion — for recoveries that leave execution healthy (a dropped
    /// device re-sharded onto the survivors, a retried link transfer).
    pub(crate) fn note_incident(&self, kind: &str, detail: &str) {
        self.incident_notes
            .lock()
            .push((kind.to_string(), detail.to_string()));
    }

    /// Drains the `(kind, detail)` notes recorded by
    /// [`ExecCtx::force_degrade`] and [`ExecCtx::note_incident`].
    pub(crate) fn take_incident_notes(&self) -> Vec<(String, String)> {
        std::mem::take(&mut *self.incident_notes.lock())
    }

    /// Builds the profiler's report with this context's platform peak and
    /// elapsed simulated time filled in. `None` when no profiler is
    /// attached.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.profiler.as_ref().map(|p| {
            let peak = self.platform().map(|pl| pl.spec.vector_peak_gflops());
            p.report(peak, self.sim_time())
        })
    }

    /// Opens a named profiling span covering everything executed until the
    /// returned guard drops. Spans record the covered simulated interval
    /// and wall time; without an attached profiler the guard is inert.
    pub(crate) fn phase(&self, name: &str) -> PhaseGuard<'_> {
        PhaseGuard {
            ctx: self,
            name: self.profiler.as_ref().map(|_| name.to_string()),
            sim_start: self.clock.now(),
            wall_start: Instant::now(),
        }
    }

    /// The kernel backend in use.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The simulated clock (zero-valued when running natively).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Simulated seconds elapsed so far.
    pub fn sim_time(&self) -> f64 {
        self.clock.now()
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The platform model, if any.
    pub fn platform(&self) -> Option<&Platform> {
        self.pricing.as_ref().map(|m| m.platform())
    }

    /// The cost model, if any.
    pub(crate) fn cost_model(&self) -> Option<&CostModel> {
        self.pricing.as_ref()
    }

    /// Reserves a fresh sampling stream (one per stochastic op).
    ///
    /// Panics when called from inside a graph-node body whose [`crate::NodeSpec`]
    /// lacks the `.stochastic()` flag: stream order is part of the
    /// bit-reproducibility contract, and an undeclared draw would be
    /// invisible to the static verifier's ordering checks.
    pub(crate) fn next_stream(&self) -> StreamId {
        if let Some(name) = crate::graph::undeclared_stochastic_node() {
            panic!(
                "undeclared-stochastic: node `{name}` draws from the sampling \
                 stream but its NodeSpec lacks .stochastic()"
            );
        }
        self.sampler.lock().next()
    }

    /// Seed of the run's sampler.
    pub(crate) fn seed(&self) -> u64 {
        self.sampler.lock().seed()
    }

    /// Snapshot of the sampler as `(seed, cursor)`: the run seed and the
    /// number of streams issued so far. Persisted by checkpoints.
    pub fn rng_state(&self) -> (u64, u64) {
        let s = self.sampler.lock();
        (s.seed(), s.issued())
    }

    /// Restores the sampler to a snapshot taken by [`ExecCtx::rng_state`];
    /// subsequent stochastic ops continue the original stream sequence
    /// bit-identically.
    pub(crate) fn restore_rng(&self, seed: u64, cursor: u64) {
        *self.sampler.lock() = SampleStream::resume(seed, cursor);
    }

    /// Starts recording the [`OpCost`] of every op.
    pub fn start_recording(&self) {
        self.recorder.lock().clear();
        self.recording.store(true, Ordering::Release);
    }

    /// Stops recording and returns the ops seen since
    /// [`ExecCtx::start_recording`].
    pub fn stop_recording(&self) -> Vec<OpCost> {
        self.recording.store(false, Ordering::Release);
        std::mem::take(&mut *self.recorder.lock())
    }

    /// Captures the ops charged while the returned guard lives: a graph
    /// node's stream, which the graph checks against the node's op
    /// declaration. Captures nest, as a graph run inside another graph's
    /// node does, and an outer one sees the inner one's ops too; an outer
    /// [`ExecCtx::start_recording`] records them as ever.
    pub(crate) fn capture_ops(&self) -> OpCapture<'_> {
        self.capturing.fetch_add(1, Ordering::AcqRel);
        let start = self.captured.lock().len();
        OpCapture { ctx: self, start }
    }

    /// Runs `f` with op prices diverted into an accumulator instead of the
    /// clock, returning the accumulated simulated seconds.
    ///
    /// The dependency-graph executor (paper Fig. 6) uses this to price each
    /// graph node separately and then advance the clock by the critical
    /// path rather than the serial sum.
    pub(crate) fn run_deferred<R>(&self, f: impl FnOnce(&ExecCtx) -> R) -> (R, f64) {
        {
            let mut d = self.deferred.lock();
            assert!(d.is_none(), "run_deferred does not nest");
            *d = Some(0.0);
        }
        let out = f(self);
        let elapsed = self
            .deferred
            .lock()
            .take()
            .expect("deferred accumulator vanished");
        (out, elapsed)
    }

    /// Charges an externally-computed op (extensions that implement their
    /// own kernels — e.g. the softmax fine-tuning head — use this to stay
    /// inside the simulated-time accounting).
    pub fn charge_cost(&self, cost: OpCost) {
        self.charge(cost);
    }

    /// Advances the simulated clock directly (used by the graph executor
    /// after computing a critical path).
    pub(crate) fn advance_clock(&self, secs: f64, kind: EventKind, label: &str) {
        let t0 = self.clock.now();
        self.clock.advance(secs);
        self.trace.push(t0, t0 + secs, kind, label);
    }

    /// Charges modeled seconds that did not come from a kernel op — link
    /// transfers between devices, gradient-sync barriers. On a native
    /// (unpriced) context this is a no-op, mirroring how op prices vanish
    /// there; inside [`ExecCtx::run_deferred`] the seconds land in the
    /// accumulator like any op price.
    pub(crate) fn charge_secs(&self, secs: f64, kind: EventKind, label: &str) {
        if self.pricing.is_none() {
            return;
        }
        let mut d = self.deferred.lock();
        if let Some(acc) = d.as_mut() {
            *acc += secs;
            return;
        }
        drop(d);
        self.advance_clock(secs, kind, label);
    }

    /// Wall-clock start of the op about to run, taken only when a native
    /// (unpriced) context has a profiler attached — the one case that
    /// needs real timing. Everything else stays free of clock syscalls.
    #[inline]
    fn op_start(&self) -> Option<Instant> {
        if self.profiler.is_some() && self.pricing.is_none() {
            Some(Instant::now())
        } else {
            None
        }
    }

    fn charge(&self, cost: OpCost) {
        self.charge_timed(cost, None);
    }

    fn charge_timed(&self, cost: OpCost, started: Option<Instant>) {
        if self.recording.load(Ordering::Acquire) {
            self.recorder.lock().push(cost);
        }
        if self.capturing.load(Ordering::Acquire) > 0 {
            self.captured.lock().push(cost);
        }
        let Some(model) = &self.pricing else {
            if let Some(p) = &self.profiler {
                let wall = started.map_or(0.0, |t| t.elapsed().as_secs_f64());
                p.record_op(&cost, wall);
            }
            return;
        };
        let t = model.price(&cost, self.backend.par().is_parallel());
        if let Some(p) = &self.profiler {
            p.record_op(&cost, t);
        }
        let mut d = self.deferred.lock();
        if let Some(acc) = d.as_mut() {
            *acc += t;
            return;
        }
        drop(d);
        let t0 = self.clock.now();
        self.clock.advance(t);
        self.trace
            .push(t0, t0 + t, EventKind::Compute(cost.kind), cost.label);
    }

    // --- mirrored kernel ops -------------------------------------------

    /// See [`Backend::gemm`].
    #[allow(clippy::too_many_arguments)]
    pub fn gemm(
        &self,
        alpha: f32,
        a: MatView<'_>,
        ta: bool,
        b: MatView<'_>,
        tb: bool,
        beta: f32,
        c: &mut MatViewMut<'_>,
    ) {
        let t0 = self.op_start();
        let cost = self.backend.gemm(alpha, a, ta, b, tb, beta, c);
        self.charge_timed(cost, t0);
    }

    /// See [`Backend::gemm_op`].
    pub(crate) fn gemm_op(
        &self,
        alpha: f32,
        a: Operand<'_>,
        b: Operand<'_>,
        beta: f32,
        c: &mut MatViewMut<'_>,
    ) {
        let t0 = self.op_start();
        let cost = self.backend.gemm_op(alpha, a, b, beta, c);
        self.charge_timed(cost, t0);
    }

    /// See [`Backend::gemm_sgd`]: charges the product, then the SGD step
    /// that ran in its tiles (which takes no wall time of its own).
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_sgd(
        &self,
        alpha: f32,
        a: MatView<'_>,
        ta: bool,
        b: MatView<'_>,
        tb: bool,
        lr: f32,
        lambda: f32,
        w: &mut MatViewMut<'_>,
    ) {
        let t0 = self.op_start();
        let [gemm, sgd] = self.backend.gemm_sgd(alpha, a, ta, b, tb, lr, lambda, w);
        self.charge_timed(gemm, t0);
        self.charge(sgd);
    }

    /// See [`Backend::bias_sigmoid_rows`].
    pub(crate) fn bias_sigmoid_rows(&self, bias: &[f32], c: &mut MatViewMut<'_>) {
        let t0 = self.op_start();
        let cost = self.backend.bias_sigmoid_rows(bias, c);
        self.charge_timed(cost, t0);
    }

    /// See [`Backend::bias_deriv_rows`].
    pub(crate) fn bias_deriv_rows(&self, s: &[f32], y: MatView<'_>, delta: &mut MatViewMut<'_>) {
        let t0 = self.op_start();
        let cost = self.backend.bias_deriv_rows(s, y, delta);
        self.charge_timed(cost, t0);
    }

    /// See [`Backend::delta_output`].
    pub(crate) fn delta_output(&self, z: &[f32], x: &[f32], out: &mut [f32]) {
        let t0 = self.op_start();
        let cost = self.backend.delta_output(z, x, out);
        self.charge_timed(cost, t0);
    }

    /// See [`Backend::sgd_step`].
    pub(crate) fn sgd_step(&self, lr: f32, lambda: f32, g: &[f32], w: &mut [f32]) {
        let t0 = self.op_start();
        let cost = self.backend.sgd_step(lr, lambda, g, w);
        self.charge_timed(cost, t0);
    }

    /// See [`Backend::cd_update`].
    pub(crate) fn cd_update(&self, scale: f32, pos: &[f32], neg: &[f32], w: &mut [f32]) {
        let t0 = self.op_start();
        let cost = self.backend.cd_update(scale, pos, neg, w);
        self.charge_timed(cost, t0);
    }

    /// See [`Backend::colmean`].
    pub(crate) fn colmean(&self, a: MatView<'_>, out: &mut [f32]) {
        let t0 = self.op_start();
        let cost = self.backend.colmean(a, out);
        self.charge_timed(cost, t0);
    }

    /// See [`Backend::colsum`].
    pub(crate) fn colsum(&self, a: MatView<'_>, out: &mut [f32]) {
        let t0 = self.op_start();
        let cost = self.backend.colsum(a, out);
        self.charge_timed(cost, t0);
    }

    /// Column sums of `a` into `out` with `sum`, else column means: the
    /// statistics of a block-form step graph, or of a whole step's.
    pub(crate) fn col_stat(&self, sum: bool, a: MatView<'_>, out: &mut [f32]) {
        if sum {
            self.colsum(a, out);
        } else {
            self.colmean(a, out);
        }
    }

    /// See [`Backend::frob_dist_sq`].
    pub(crate) fn frob_dist_sq(&self, a: MatView<'_>, b: MatView<'_>) -> f64 {
        let t0 = self.op_start();
        let (d, cost) = self.backend.frob_dist_sq(a, b);
        self.charge_timed(cost, t0);
        d
    }

    /// See [`Backend::bernoulli_at`]: samples a *window* of a larger
    /// logical op on the stream `stream` (reserved with
    /// [`ExecCtx::next_stream`]; a whole op is the window at offset 0).
    /// Every shard of a sharded op passes the same stream plus its global
    /// element offset, so the drawn bits are independent of how the batch
    /// was split across devices.
    pub(crate) fn bernoulli_at(
        &self,
        stream: StreamId,
        elem_base: u64,
        probs: &[f32],
        out: &mut [f32],
    ) {
        let seed = self.seed();
        let t0 = self.op_start();
        let cost = self
            .backend
            .bernoulli_at(seed, stream, elem_base, probs, out);
        self.charge_timed(cost, t0);
    }

    /// See [`Backend::axpy`].
    pub(crate) fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        let t0 = self.op_start();
        let cost = self.backend.axpy(alpha, x, y);
        self.charge_timed(cost, t0);
    }

    /// See [`Backend::scale`].
    pub fn scale(&self, alpha: f32, y: &mut [f32]) {
        let t0 = self.op_start();
        let cost = self.backend.scale(alpha, y);
        self.charge_timed(cost, t0);
    }

    /// See [`Backend::block_merge`] — fixed-order partial-gradient merge.
    pub(crate) fn block_merge(&self, parts: &[&[f32]], out: &mut [f32]) {
        let t0 = self.op_start();
        let cost = self.backend.block_merge(parts, out);
        self.charge_timed(cost, t0);
    }
}

/// An open [`ExecCtx::capture_ops`], closed on drop (a node body that
/// unwinds included).
pub(crate) struct OpCapture<'a> {
    ctx: &'a ExecCtx,
    start: usize,
}

impl OpCapture<'_> {
    /// The ops charged since the capture opened.
    pub(crate) fn ops(&self) -> Vec<OpCost> {
        self.ctx.captured.lock()[self.start..].to_vec()
    }
}

impl Drop for OpCapture<'_> {
    fn drop(&mut self) {
        if self.ctx.capturing.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.ctx.captured.lock().clear();
        }
    }
}

/// RAII span opened by [`ExecCtx::phase`]; records the covered simulated
/// and wall time into the context's profiler when dropped.
pub(crate) struct PhaseGuard<'a> {
    ctx: &'a ExecCtx,
    /// `Some` only when a profiler is attached (keeps the disabled path
    /// allocation-free).
    name: Option<String>,
    sim_start: f64,
    wall_start: Instant,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let (Some(name), Some(profiler)) = (self.name.take(), self.ctx.profiler.as_ref()) {
            profiler.record_phase(
                &name,
                self.ctx.clock.now() - self.sim_start,
                self.wall_start.elapsed().as_secs_f64(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micdnn_tensor::Mat;

    #[test]
    fn opt_levels_map_to_backends() {
        assert!(!OptLevel::Baseline.backend().par().is_parallel());
        assert!(OptLevel::OpenMp.backend().par().is_parallel());
        assert!(!OptLevel::OpenMp.backend().uses_blas());
        assert!(OptLevel::OpenMpMkl.backend().uses_blas());
        assert!(OptLevel::Improved.backend().is_fused());
        assert_eq!(OptLevel::ladder().len(), 4);
        assert_eq!(OptLevel::Baseline.label(), "Baseline");
    }

    #[test]
    fn native_ctx_keeps_clock_at_zero() {
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let a = Mat::eye(4);
        let b = Mat::full(4, 4, 1.0);
        let mut c = Mat::zeros(4, 4);
        ctx.gemm(
            1.0,
            a.view(),
            false,
            b.view(),
            false,
            0.0,
            &mut c.view_mut(),
        );
        assert_eq!(ctx.sim_time(), 0.0);
        assert!(c.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn simulated_ctx_advances_clock() {
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 0);
        let a = Mat::full(64, 64, 0.5);
        let b = Mat::full(64, 64, 0.5);
        let mut c = Mat::zeros(64, 64);
        ctx.gemm(
            1.0,
            a.view(),
            false,
            b.view(),
            false,
            0.0,
            &mut c.view_mut(),
        );
        assert!(ctx.sim_time() > 0.0);
    }

    #[test]
    fn baseline_charges_more_than_improved() {
        let run = |level: OptLevel| -> f64 {
            let ctx = ExecCtx::simulated(level, Platform::xeon_phi(), 0);
            let a = Mat::full(128, 256, 0.1);
            let b = Mat::full(256, 128, 0.1);
            let mut c = Mat::zeros(128, 128);
            ctx.gemm(
                1.0,
                a.view(),
                false,
                b.view(),
                false,
                0.0,
                &mut c.view_mut(),
            );
            ctx.sim_time()
        };
        let t_base = run(OptLevel::Baseline);
        let t_impr = run(OptLevel::Improved);
        assert!(
            t_base > 50.0 * t_impr,
            "baseline {t_base} vs improved {t_impr}"
        );
    }

    #[test]
    fn recorder_captures_op_stream() {
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        ctx.start_recording();
        let mut v = vec![0.0f32; 100];
        ctx.scale(2.0, &mut v);
        ctx.sgd_step(0.1, 0.0, &vec![1.0; 100], &mut v);
        let ops = ctx.stop_recording();
        assert_eq!(ops.len(), 2);
        // Recording stops.
        ctx.scale(2.0, &mut v);
        assert!(ctx.stop_recording().is_empty());
    }

    #[test]
    fn deferred_accumulates_without_advancing() {
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 0);
        let ((), dur) = ctx.run_deferred(|ctx| {
            let mut v = vec![0.0f32; 1000];
            ctx.scale(1.5, &mut v);
        });
        assert!(dur > 0.0);
        assert_eq!(ctx.sim_time(), 0.0, "deferred must not touch the clock");
        ctx.advance_clock(dur, EventKind::Sync, "graph");
        assert!((ctx.sim_time() - dur).abs() < 1e-12);
    }

    #[test]
    fn trace_events_carry_op_labels() {
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 0).with_trace();
        let a = Mat::full(16, 16, 0.5);
        let b = Mat::full(16, 16, 0.5);
        let mut c = Mat::zeros(16, 16);
        ctx.gemm(
            1.0,
            a.view(),
            false,
            b.view(),
            false,
            0.0,
            &mut c.view_mut(),
        );
        let mut v = vec![0.5f32; 32];
        ctx.scale(2.0, &mut v);
        let events = ctx.trace().events();
        let labels: Vec<&str> = events.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["gemm", "scale"]);
    }

    #[test]
    fn profiler_aggregates_simulated_ops_and_phases() {
        let profiler = crate::profile::Profiler::new();
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 0)
            .with_profiler(profiler.clone());
        {
            let _span = ctx.phase("work");
            let a = Mat::full(32, 32, 0.5);
            let b = Mat::full(32, 32, 0.5);
            let mut c = Mat::zeros(32, 32);
            ctx.gemm(
                1.0,
                a.view(),
                false,
                b.view(),
                false,
                0.0,
                &mut c.view_mut(),
            );
            ctx.gemm(
                1.0,
                a.view(),
                false,
                b.view(),
                false,
                0.0,
                &mut c.view_mut(),
            );
        }
        let report = ctx.profile_report().expect("profiler attached");
        assert_eq!(report.ops.len(), 1);
        assert_eq!(report.ops[0].op, "gemm");
        assert_eq!(report.ops[0].count, 2);
        assert!(report.ops[0].total_secs > 0.0);
        assert!(report.ops[0].gflops > 0.0);
        assert!(report.peak_gflops.unwrap() > 2000.0);
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].phase, "work");
        // The span covers exactly the two priced ops.
        assert!((report.phases[0].sim_secs - ctx.sim_time()).abs() < 1e-12);
    }

    #[test]
    fn native_profiled_ops_are_wall_timed() {
        let profiler = crate::profile::Profiler::new();
        let ctx = ExecCtx::native(OptLevel::Improved, 0).with_profiler(profiler.clone());
        let a = Mat::full(64, 64, 0.5);
        let b = Mat::full(64, 64, 0.5);
        let mut c = Mat::zeros(64, 64);
        ctx.gemm(
            1.0,
            a.view(),
            false,
            b.view(),
            false,
            0.0,
            &mut c.view_mut(),
        );
        let report = ctx.profile_report().unwrap();
        assert_eq!(report.ops[0].count, 1);
        assert!(report.ops[0].total_secs > 0.0, "wall-timed duration");
        assert!(report.peak_gflops.is_none(), "no modeled peak natively");
    }

    /// Acceptance criterion: profiling is opt-in and does not perturb
    /// execution — the recorded op stream and the simulated time are
    /// bit-identical with and without an attached profiler.
    #[test]
    fn profiler_does_not_perturb_op_stream() {
        let run = |with_profiler: bool| -> (Vec<OpCost>, f64) {
            let mut ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 7);
            if with_profiler {
                ctx = ctx.with_profiler(crate::profile::Profiler::new());
            }
            ctx.start_recording();
            let a = Mat::full(24, 16, 0.3);
            let b = Mat::full(16, 24, 0.7);
            let mut c = Mat::zeros(24, 24);
            ctx.gemm(
                1.0,
                a.view(),
                false,
                b.view(),
                false,
                0.0,
                &mut c.view_mut(),
            );
            ctx.bias_sigmoid_rows(&[0.1; 24], &mut c.view_mut());
            let mut v = vec![0.5f32; 100];
            ctx.sgd_step(0.1, 0.01, &vec![1.0; 100], &mut v);
            (ctx.stop_recording(), ctx.sim_time())
        };
        let (ops_off, secs_off) = run(false);
        let (ops_on, secs_on) = run(true);
        assert_eq!(ops_off, ops_on);
        assert_eq!(secs_off.to_bits(), secs_on.to_bits());
    }

    #[test]
    fn phase_guard_is_inert_without_profiler() {
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        {
            let _span = ctx.phase("unprofiled");
            let mut v = vec![1.0f32; 8];
            ctx.scale(0.5, &mut v);
        }
        assert!(ctx.profile_report().is_none());
    }

    #[test]
    fn bernoulli_streams_advance() {
        let ctx = ExecCtx::native(OptLevel::Improved, 9);
        let probs = vec![0.5f32; 64];
        let mut a = vec![0.0f32; 64];
        let mut b = vec![0.0f32; 64];
        ctx.bernoulli_at(ctx.next_stream(), 0, &probs, &mut a);
        ctx.bernoulli_at(ctx.next_stream(), 0, &probs, &mut b);
        assert_ne!(a, b, "consecutive sampling ops use fresh streams");
    }
}
