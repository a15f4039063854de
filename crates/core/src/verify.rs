//! Static safety verifier for the dataflow graph IR.
//!
//! The executor rests on two analyses composing correctly: dependency
//! inference is done on *logical* buffers ([`TaskGraph::node`] derives
//! RAW/WAW/WAR edges from declared footprints) while workspace aliasing is
//! done on *physical* registers ([`TaskGraph::plan`] folds dead scratch
//! buffers into shared arena storage). The simulated executor prices a
//! step by its critical path, which claims that any topological order of
//! the DAG computes what declaration order computes. Nothing in the
//! executor itself re-checks that claim — this module does.
//!
//! [`TaskGraph::verify`] recomputes full transitive reachability from the
//! *inferred edges* and checks it against the *declared footprints* and the
//! *workspace plan* — three independently produced artifacts that must
//! agree. It reports:
//!
//! * **errors** (schedules exist that compute garbage or diverge):
//!   unordered conflicting access to a logical buffer ([`DiagKind::Race`]);
//!   two buffers sharing a physical register while simultaneously live
//!   ([`DiagKind::UnsafeAlias`]); a read no topological order can have
//!   initialized ([`DiagKind::UseBeforeInit`]); stochastic nodes whose
//!   relative order — and therefore the sampling-stream assignment — is not
//!   fixed by the DAG ([`DiagKind::UnorderedStochastic`]); side-effecting
//!   (`exclusive`/`stochastic`) nodes that touch a common buffer without a
//!   fixed order ([`DiagKind::UnorderedSideEffects`]); and a buffer
//!   accessed from two different devices with no inter-device transfer
//!   node mediating the edge ([`DiagKind::CrossDeviceFlow`]).
//! * **warnings** (suspicious but schedule-safe): scratch writes nothing
//!   ever reads ([`DiagKind::DeadWrite`]) and buffers declared but never
//!   touched ([`DiagKind::UnusedBuffer`]).
//!
//! Executors call the verifier automatically: always in debug builds
//! (`cargo test` keeps `debug-assertions` on, so every shipped graph is
//! re-verified by the whole test suite) and behind
//! [`crate::ExecCtx::with_verify`] (CLI `--verify`) in release builds.
//! Errors panic with the full report; warnings never do.

use crate::graph::{BufClass, BufId, NodeId, NodeState, TaskGraph, WorkspacePlan};
use serde::Serialize;
use std::fmt;

/// Default per-device certification budget: the Xeon Phi card's 8 GB of
/// on-card GDDR5 (paper §III) — the constraint the whole training layout
/// is built around.
pub const DEFAULT_MEM_BUDGET: u64 = 8 << 30;

/// Schema identifier of the machine-readable certification report.
pub const VERIFY_SCHEMA: &str = "micdnn-verify-v1";

/// How bad a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The executor may compute garbage or diverge between schedules.
    Error,
    /// Schedule-safe, but the graph declares something it does not mean.
    Warning,
}

/// What a [`Diagnostic`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagKind {
    /// Two DAG-concurrent nodes conflict (read/write or write/write) on
    /// one logical buffer: a missing inferred edge.
    Race,
    /// Two buffers share a physical register but their accessor sets are
    /// not strictly DAG-ordered: a planner bug would corrupt live data.
    UnsafeAlias,
    /// A node reads a non-external buffer that no strictly-preceding node
    /// writes — some topological order reads uninitialized storage.
    UseBeforeInit,
    /// A scratch buffer is written but no later node reads the value and
    /// it is not an output (`Pinned`/`Partial`/`External` are outputs by class).
    DeadWrite,
    /// Two stochastic nodes have no dependency path between them, so the
    /// sampling-stream assignment depends on the schedule.
    UnorderedStochastic,
    /// Two side-effecting (`exclusive`/`stochastic`) nodes touch a common
    /// buffer without a fixed relative order.
    UnorderedSideEffects,
    /// A buffer is accessed from two different devices without an
    /// inter-device transfer node ordering the cross-device edge — data
    /// would have to teleport between coprocessor memories.
    CrossDeviceFlow,
    /// A buffer is declared but never read or written.
    UnusedBuffer,
    /// A device's proven peak resident bytes exceed its modeled memory
    /// budget in some wave. Certify-only.
    MemBudget,
    /// A stochastic node does not trace to a declared counter-RNG cursor,
    /// so bit-identical resume/shard cannot be certified. Certify-only.
    UndeclaredStochastic,
}

impl DiagKind {
    /// Stable machine-readable code for the kind.
    pub(crate) fn code(self) -> &'static str {
        match self {
            DiagKind::Race => "race",
            DiagKind::UnsafeAlias => "unsafe-alias",
            DiagKind::UseBeforeInit => "use-before-init",
            DiagKind::DeadWrite => "dead-write",
            DiagKind::UnorderedStochastic => "unordered-stochastic",
            DiagKind::UnorderedSideEffects => "unordered-side-effects",
            DiagKind::CrossDeviceFlow => "cross-device-flow",
            DiagKind::UnusedBuffer => "unused-buffer",
            DiagKind::MemBudget => "mem-budget",
            DiagKind::UndeclaredStochastic => "undeclared-stochastic",
        }
    }

    /// The severity this kind always reports at.
    pub(crate) fn severity(self) -> Severity {
        match self {
            DiagKind::Race
            | DiagKind::UnsafeAlias
            | DiagKind::UseBeforeInit
            | DiagKind::UnorderedStochastic
            | DiagKind::UnorderedSideEffects
            | DiagKind::CrossDeviceFlow
            | DiagKind::MemBudget
            | DiagKind::UndeclaredStochastic => Severity::Error,
            DiagKind::DeadWrite | DiagKind::UnusedBuffer => Severity::Warning,
        }
    }
}

/// One verifier finding, locating the offending nodes and buffer.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// What went wrong.
    pub kind: DiagKind,
    /// The nodes involved, as `(id, label)` pairs.
    pub nodes: Vec<(NodeId, &'static str)>,
    /// The buffer involved, if the finding is about one.
    pub buffer: Option<&'static str>,
    /// The scheduling wave involved (certify-only, [`DiagKind::MemBudget`]).
    pub wave: Option<usize>,
    /// The byte count involved (certify-only, [`DiagKind::MemBudget`]).
    pub bytes: Option<u64>,
    /// Human-readable one-line description.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic with no wave/byte detail (every non-certify finding).
    fn basic(
        kind: DiagKind,
        nodes: Vec<(NodeId, &'static str)>,
        buffer: Option<&'static str>,
        message: String,
    ) -> Self {
        Diagnostic {
            kind,
            nodes,
            buffer,
            wave: None,
            bytes: None,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.kind.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{tag}[{}]: {}", self.kind.code(), self.message)
    }
}

/// Structured result of [`TaskGraph::verify`].
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Findings that make some legal schedule incorrect.
    pub errors: Vec<Diagnostic>,
    /// Schedule-safe but suspicious findings.
    pub warnings: Vec<Diagnostic>,
    /// Number of nodes checked.
    pub nodes: usize,
    /// Number of declared buffers checked.
    pub buffers: usize,
    /// Number of physical registers in the checked plan.
    pub registers: usize,
    /// Register-sharing buffer pairs whose accessor sets the verifier
    /// proved strictly ordered (the aliases that are *race-free*, not just
    /// space-saving).
    pub verified_alias_pairs: Vec<(&'static str, &'static str)>,
}

impl VerifyReport {
    /// `true` when there are neither errors nor warnings.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty() && self.warnings.is_empty()
    }

    /// Number of findings (errors + warnings) of one kind.
    pub fn count(&self, kind: DiagKind) -> usize {
        self.errors
            .iter()
            .chain(self.warnings.iter())
            .filter(|d| d.kind == kind)
            .count()
    }

    /// `true` when at least one finding of `kind` was reported.
    pub fn has(&self, kind: DiagKind) -> bool {
        self.count(kind) > 0
    }

    fn push(&mut self, diag: Diagnostic) {
        match diag.kind.severity() {
            Severity::Error => self.errors.push(diag),
            Severity::Warning => self.warnings.push(diag),
        }
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verify: {} nodes, {} buffers, {} registers — {} error(s), {} warning(s)",
            self.nodes,
            self.buffers,
            self.registers,
            self.errors.len(),
            self.warnings.len()
        )?;
        for d in self.errors.iter().chain(self.warnings.iter()) {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// `(node, label)` pair for diagnostics.
fn tag<S: NodeState>(g: &TaskGraph<'_, S>, id: NodeId) -> (NodeId, &'static str) {
    (id, g.names[id])
}

impl<S: NodeState> TaskGraph<'_, S> {
    /// Runs the static analysis against a freshly computed workspace plan.
    pub fn verify(&self) -> VerifyReport {
        self.verify_with_plan(&self.plan())
    }

    /// Runs the static analysis against a caller-supplied plan (the one
    /// the executor will actually bind storage with).
    pub fn verify_with_plan(&self, plan: &WorkspacePlan) -> VerifyReport {
        let n = self.len();
        let nb = self.bufs.len();
        let mut report = VerifyReport {
            nodes: n,
            buffers: nb,
            registers: plan.num_registers(),
            ..VerifyReport::default()
        };

        // Reachability is recomputed from the *inferred edges* here, then
        // compared against the *declared footprints*; a builder bug that
        // drops an edge makes the two disagree and surfaces as a finding.
        let anc = self.ancestors();
        let precedes = |a: NodeId, b: NodeId| -> bool { anc[b][a / 64] & (1 << (a % 64)) != 0 };
        let ordered = |a: NodeId, b: NodeId| precedes(a, b) || precedes(b, a);

        // Deduplicated reader/writer lists per buffer (a node appears in
        // both when it reads and writes the same buffer, e.g. in-place
        // updates).
        let mut readers: Vec<Vec<NodeId>> = vec![Vec::new(); nb];
        let mut writers: Vec<Vec<NodeId>> = vec![Vec::new(); nb];
        for id in 0..n {
            for &BufId(b) in &self.reads[id] {
                if !readers[b].contains(&id) {
                    readers[b].push(id);
                }
            }
            for &BufId(b) in &self.writes[id] {
                if !writers[b].contains(&id) {
                    writers[b].push(id);
                }
            }
        }

        // (1) Races on logical buffers: any unordered pair with at least
        // one write. Writer status wins when a node both reads and writes.
        for b in 0..nb {
            let mut touch: Vec<(NodeId, bool)> = writers[b].iter().map(|&w| (w, true)).collect();
            touch.extend(
                readers[b]
                    .iter()
                    .filter(|r| !writers[b].contains(r))
                    .map(|&r| (r, false)),
            );
            for i in 0..touch.len() {
                for j in (i + 1)..touch.len() {
                    let ((u, uw), (v, vw)) = (touch[i], touch[j]);
                    if (uw || vw) && !ordered(u, v) {
                        let mode = match (uw, vw) {
                            (true, true) => "write/write",
                            (true, false) => "write/read",
                            (false, true) => "read/write",
                            (false, false) => unreachable!("at least one write"),
                        };
                        report.push(Diagnostic {
                            kind: DiagKind::Race,
                            wave: None,
                            bytes: None,
                            nodes: vec![tag(self, u), tag(self, v)],
                            buffer: Some(self.bufs[b].name),
                            message: format!(
                                "nodes `{}` (#{u}) and `{}` (#{v}) access buffer `{}` \
                                 ({mode}) with no dependency path between them",
                                self.names[u], self.names[v], self.bufs[b].name
                            ),
                        });
                    }
                }
            }
        }

        // (2) Use-before-init: every read of a non-external buffer needs a
        // writer that strictly precedes it under *all* topological orders.
        for id in 0..n {
            for &BufId(b) in &self.reads[id] {
                if self.bufs[b].class == BufClass::External {
                    continue;
                }
                let initialized = writers[b].iter().any(|&w| w != id && precedes(w, id));
                if !initialized {
                    let why = if writers[b].iter().all(|&w| w == id) {
                        "no node writes it".to_string()
                    } else {
                        "no writer is ordered before the read".to_string()
                    };
                    report.push(Diagnostic {
                        kind: DiagKind::UseBeforeInit,
                        wave: None,
                        bytes: None,
                        nodes: vec![tag(self, id)],
                        buffer: Some(self.bufs[b].name),
                        message: format!(
                            "node `{}` (#{id}) reads buffer `{}` but {why}",
                            self.names[id], self.bufs[b].name
                        ),
                    });
                }
            }
        }

        // (3) Dead writes: scratch values nothing ever consumes. Pinned,
        // partial and external buffers are outputs by class, so only Scratch
        // qualifies.
        for b in 0..nb {
            if self.bufs[b].class != BufClass::Scratch {
                continue;
            }
            for &w in &writers[b] {
                let consumed = readers[b].iter().any(|&r| r != w && precedes(w, r));
                if !consumed {
                    report.push(Diagnostic {
                        kind: DiagKind::DeadWrite,
                        wave: None,
                        bytes: None,
                        nodes: vec![tag(self, w)],
                        buffer: Some(self.bufs[b].name),
                        message: format!(
                            "node `{}` (#{w}) writes scratch buffer `{}` but no later \
                             node reads it",
                            self.names[w], self.bufs[b].name
                        ),
                    });
                }
            }
        }

        // Unused declarations (any class): probably a builder refactoring
        // leftover; for Pinned it also wastes a dedicated register.
        for (b, decl) in self.bufs.iter().enumerate() {
            if readers[b].is_empty() && writers[b].is_empty() {
                report.push(Diagnostic {
                    kind: DiagKind::UnusedBuffer,
                    wave: None,
                    bytes: None,
                    nodes: Vec::new(),
                    buffer: Some(decl.name),
                    message: format!(
                        "buffer `{}` ({:?}, {} elems) is declared but never accessed",
                        decl.name,
                        decl.class,
                        decl.elems()
                    ),
                });
            }
        }

        // (4a) Stochastic nodes must be totally ordered among themselves:
        // each consumes the next sampling stream, so an unordered pair
        // makes the stream assignment — and therefore the results —
        // schedule-dependent even though neither node touches the other's
        // buffers.
        let stochastic: Vec<NodeId> = (0..n).filter(|&i| self.stochastic[i]).collect();
        for (i, &u) in stochastic.iter().enumerate() {
            for &v in &stochastic[i + 1..] {
                if !ordered(u, v) {
                    report.push(Diagnostic {
                        kind: DiagKind::UnorderedStochastic,
                        wave: None,
                        bytes: None,
                        nodes: vec![tag(self, u), tag(self, v)],
                        buffer: None,
                        message: format!(
                            "stochastic nodes `{}` (#{u}) and `{}` (#{v}) have no \
                             dependency path, so the sampling-stream order depends on \
                             the schedule",
                            self.names[u], self.names[v]
                        ),
                    });
                }
            }
        }

        // (4b) Side-effecting nodes (exclusive or stochastic) sharing any
        // buffer must have a fixed relative order: their hidden state
        // updates compose with the shared data in declaration order only.
        // (Pairs with a write conflict already carry an inferred edge;
        // this catches read-read sharing, which infers none.)
        let side: Vec<NodeId> = (0..n)
            .filter(|&i| self.stochastic[i] || self.exclusive[i])
            .collect();
        let touched: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut t: Vec<usize> = self.reads[i]
                    .iter()
                    .chain(self.writes[i].iter())
                    .map(|&BufId(b)| b)
                    .collect();
                t.sort_unstable();
                t.dedup();
                t
            })
            .collect();
        for (i, &u) in side.iter().enumerate() {
            for &v in &side[i + 1..] {
                if self.stochastic[u] && self.stochastic[v] {
                    continue; // already fully covered by (4a)
                }
                let shared = touched[u].iter().find(|b| touched[v].contains(b));
                if let Some(&b) = shared {
                    if !ordered(u, v) {
                        report.push(Diagnostic {
                            kind: DiagKind::UnorderedSideEffects,
                            wave: None,
                            bytes: None,
                            nodes: vec![tag(self, u), tag(self, v)],
                            buffer: Some(self.bufs[b].name),
                            message: format!(
                                "side-effecting nodes `{}` (#{u}) and `{}` (#{v}) share \
                                 buffer `{}` but have no dependency path between them",
                                self.names[u], self.names[v], self.bufs[b].name
                            ),
                        });
                    }
                }
            }
        }

        // (4c) Cross-device flow: a buffer touched from two different
        // devices needs an inter-device transfer mediating the edge —
        // either one endpoint is itself the transfer node (and the pair is
        // ordered), or some transfer node lies strictly between them.
        // Device memories are disjoint; without a transfer the data would
        // have to teleport.
        if self.device.iter().any(|&d| d != 0) {
            let transfers: Vec<NodeId> = (0..n).filter(|&i| self.transfer[i]).collect();
            for b in 0..nb {
                let mut acc: Vec<NodeId> = writers[b].clone();
                for &r in &readers[b] {
                    if !acc.contains(&r) {
                        acc.push(r);
                    }
                }
                for i in 0..acc.len() {
                    for j in (i + 1)..acc.len() {
                        let (u, v) = (acc[i], acc[j]);
                        if self.device[u] == self.device[v] {
                            continue;
                        }
                        let endpoint_ok = (self.transfer[u] || self.transfer[v]) && ordered(u, v);
                        let mediated = transfers.iter().any(|&t| {
                            (precedes(u, t) && precedes(t, v)) || (precedes(v, t) && precedes(t, u))
                        });
                        if !(endpoint_ok || mediated) {
                            report.push(Diagnostic {
                                kind: DiagKind::CrossDeviceFlow,
                                wave: None,
                                bytes: None,
                                nodes: vec![tag(self, u), tag(self, v)],
                                buffer: Some(self.bufs[b].name),
                                message: format!(
                                    "nodes `{}` (#{u}, device {}) and `{}` (#{v}, \
                                     device {}) access buffer `{}` across devices with \
                                     no transfer node mediating the edge",
                                    self.names[u],
                                    self.device[u],
                                    self.names[v],
                                    self.device[v],
                                    self.bufs[b].name
                                ),
                            });
                        }
                    }
                }
            }
        }

        // (5) Physical aliasing: re-derive the planner's own soundness
        // criterion per register-sharing pair. Every accessor of one buffer
        // must strictly precede every accessor of the other — the condition
        // under which no legal schedule has both live at once.
        let accessors = |b: usize| -> Vec<NodeId> {
            let mut a = writers[b].clone();
            for &r in &readers[b] {
                if !a.contains(&r) {
                    a.push(r);
                }
            }
            a
        };
        let all_before =
            |xs: &[NodeId], ys: &[NodeId]| xs.iter().all(|&u| ys.iter().all(|&v| precedes(u, v)));
        for r in 0..plan.num_registers() {
            let occupants: Vec<usize> =
                (0..nb).filter(|&b| plan.assignment[b] == Some(r)).collect();
            for i in 0..occupants.len() {
                for j in (i + 1)..occupants.len() {
                    let (a, b) = (occupants[i], occupants[j]);
                    let (aa, ab) = (accessors(a), accessors(b));
                    if all_before(&aa, &ab) || all_before(&ab, &aa) {
                        report
                            .verified_alias_pairs
                            .push((self.bufs[a].name, self.bufs[b].name));
                    } else {
                        report.push(Diagnostic {
                            kind: DiagKind::UnsafeAlias,
                            wave: None,
                            bytes: None,
                            nodes: Vec::new(),
                            buffer: Some(self.bufs[a].name),
                            message: format!(
                                "buffers `{}` and `{}` share register {r} but their \
                                 accessor sets are not strictly ordered — both can be \
                                 live at once",
                                self.bufs[a].name, self.bufs[b].name
                            ),
                        });
                    }
                }
            }
        }

        report
    }

    /// Runs the full certification pipeline against a freshly computed
    /// plan: the safety analyses of [`TaskGraph::verify`] plus the
    /// per-device peak-memory proof against `budget_bytes` and the
    /// determinism audit. Certification is strictly harder than
    /// verification — its two extra rules are errors here and never run on
    /// the executor's automatic verify path, so a stochastic node without a
    /// declared cursor still executes.
    pub fn certify(&self, budget_bytes: u64) -> CertifyOutcome {
        self.certify_with_plan(&self.plan(), budget_bytes)
    }

    /// Runs the certification pipeline against a caller-supplied plan.
    pub fn certify_with_plan(&self, plan: &WorkspacePlan, budget_bytes: u64) -> CertifyOutcome {
        let mut report = self.verify_with_plan(plan);
        self.check_determinism(&mut report);
        let (device_peaks, waves) = self.check_memory(plan, budget_bytes, &mut report);
        CertifyOutcome {
            report,
            device_peaks,
            waves,
            budget_bytes,
        }
    }

    /// Determinism audit: every `.stochastic()` node must trace to a
    /// counter-RNG cursor declared on the graph — the static form of the
    /// executor's dynamic `undeclared-stochastic` lint, proving the
    /// sampling streams are replayable from declared state alone.
    fn check_determinism(&self, report: &mut VerifyReport) {
        for id in 0..self.len() {
            if !self.stochastic[id] {
                continue;
            }
            match self.cursors[id] {
                Some(c) if self.rng_cursors.contains(&c) => {}
                Some(c) => {
                    report.push(Diagnostic::basic(
                        DiagKind::UndeclaredStochastic,
                        vec![tag(self, id)],
                        None,
                        format!(
                            "stochastic node `{}` (#{id}) binds RNG cursor `{c}`, which \
                             the graph never declares (TaskGraph::declare_rng_cursor)",
                            self.names[id]
                        ),
                    ));
                }
                None => {
                    report.push(Diagnostic::basic(
                        DiagKind::UndeclaredStochastic,
                        vec![tag(self, id)],
                        None,
                        format!(
                            "stochastic node `{}` (#{id}) is not bound to a declared \
                             counter-RNG cursor (NodeSpec::cursor)",
                            self.names[id]
                        ),
                    ));
                }
            }
        }
    }

    /// Per-device peak-memory proof. Nodes are placed in ASAP waves
    /// (`wave = 1 + max(dep waves)`); a buffer is *live* from its first
    /// accessor's wave to its last's (Pinned and Partial outputs stay live
    /// to the final wave; External storage is resident for the whole run).
    /// A plan register occupies a device's memory exactly in the waves where
    /// one of its occupants with an accessor on that device is live, so per
    /// device the resident bytes of wave `t` are the sizes of its live
    /// registers plus its live external buffers. The per-device maximum
    /// over waves is the proven peak, checked against `budget_bytes` with
    /// [`DiagKind::MemBudget`] naming the violating wave and its live set.
    fn check_memory(
        &self,
        plan: &WorkspacePlan,
        budget_bytes: u64,
        report: &mut VerifyReport,
    ) -> (Vec<DevicePeak>, usize) {
        let n = self.len();
        let nb = self.bufs.len();
        if n == 0 {
            return (Vec::new(), 0);
        }
        let mut wave = vec![0usize; n];
        for i in 0..n {
            wave[i] = self.deps[i].iter().map(|&d| wave[d] + 1).max().unwrap_or(0);
        }
        let waves = wave.iter().max().map(|&w| w + 1).unwrap_or(0);
        let last = waves - 1;
        let mut first_w = vec![usize::MAX; nb];
        let mut last_w = vec![0usize; nb];
        let mut on_dev: Vec<Vec<u32>> = vec![Vec::new(); nb];
        for (id, &w) in wave.iter().enumerate() {
            for &BufId(b) in self.reads[id].iter().chain(self.writes[id].iter()) {
                first_w[b] = first_w[b].min(w);
                last_w[b] = last_w[b].max(w);
                if !on_dev[b].contains(&self.device[id]) {
                    on_dev[b].push(self.device[id]);
                }
            }
        }
        // Live interval per buffer class (None for never-accessed buffers).
        let interval = |b: usize| -> Option<(usize, usize)> {
            if first_w[b] == usize::MAX {
                return None;
            }
            match self.bufs[b].class {
                BufClass::Scratch => Some((first_w[b], last_w[b])),
                BufClass::Pinned | BufClass::Partial => Some((first_w[b], last)),
                BufClass::External => Some((0, last)),
            }
        };
        let bytes_of = |elems: usize| elems as u64 * std::mem::size_of::<f32>() as u64;
        let mut devices: Vec<u32> = self.device.clone();
        devices.sort_unstable();
        devices.dedup();
        let mut peaks = Vec::new();
        for &d in &devices {
            // Difference array over waves: +size where a storage unit
            // becomes resident, -size one past where it stops.
            let mut delta = vec![0i64; waves + 1];
            let mut charge = |s: usize, e: usize, bytes: u64| {
                delta[s] += bytes as i64;
                delta[e + 1] -= bytes as i64;
            };
            for (b, buf) in self.bufs.iter().enumerate() {
                if buf.class != BufClass::External || !on_dev[b].contains(&d) {
                    continue;
                }
                if let Some((s, e)) = interval(b) {
                    charge(s, e, bytes_of(buf.elems()));
                }
            }
            for r in 0..plan.num_registers() {
                // Union (not convex hull) of the qualifying occupants'
                // intervals: a register with a liveness gap is reusable in
                // the gap, so it must not be charged there.
                let mut ivs: Vec<(usize, usize)> = (0..nb)
                    .filter(|&b| plan.assignment[b] == Some(r) && on_dev[b].contains(&d))
                    .filter_map(interval)
                    .collect();
                ivs.sort_unstable();
                let size = bytes_of(plan.register_elems[r]);
                let mut cur: Option<(usize, usize)> = None;
                for (s, e) in ivs {
                    match cur {
                        Some((cs, ce)) if s <= ce + 1 => cur = Some((cs, ce.max(e))),
                        Some((cs, ce)) => {
                            charge(cs, ce, size);
                            cur = Some((s, e));
                        }
                        None => cur = Some((s, e)),
                    }
                }
                if let Some((cs, ce)) = cur {
                    charge(cs, ce, size);
                }
            }
            let mut resident = 0i64;
            let mut peak = 0i64;
            let mut peak_wave = 0usize;
            for (t, dt) in delta.iter().take(waves).enumerate() {
                resident += dt;
                if resident > peak {
                    peak = resident;
                    peak_wave = t;
                }
            }
            let peak_bytes = peak as u64;
            if peak_bytes > budget_bytes {
                let live: Vec<&str> = (0..nb)
                    .filter(|&b| {
                        on_dev[b].contains(&d)
                            && interval(b).is_some_and(|(s, e)| s <= peak_wave && peak_wave <= e)
                    })
                    .map(|b| self.bufs[b].name)
                    .collect();
                report.push(Diagnostic {
                    kind: DiagKind::MemBudget,
                    nodes: Vec::new(),
                    buffer: None,
                    wave: Some(peak_wave),
                    bytes: Some(peak_bytes),
                    message: format!(
                        "device {d} peaks at {peak_bytes} resident bytes in wave \
                         {peak_wave}, exceeding the {budget_bytes}-byte budget; live \
                         set: {}",
                        live.iter()
                            .map(|n| format!("`{n}`"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            }
            peaks.push(DevicePeak {
                device: d,
                peak_bytes,
                peak_wave,
            });
        }
        (peaks, waves)
    }
}

/// Peak resident bytes proven for one device by the certification pass;
/// also its entry in a [`CertifyDoc`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DevicePeak {
    /// Device id (0 for single-device graphs).
    pub device: u32,
    /// Maximum resident bytes over all waves.
    pub peak_bytes: u64,
    /// The wave attaining the maximum (earliest, on ties).
    pub peak_wave: usize,
}

/// Result of [`TaskGraph::certify`]: the extended report plus the
/// peak-memory proof artifacts.
#[derive(Debug, Clone)]
pub struct CertifyOutcome {
    /// Safety report extended with the certification rules.
    pub report: VerifyReport,
    /// Proven peak residency per device, in device order.
    pub device_peaks: Vec<DevicePeak>,
    /// Number of ASAP scheduling waves the proof ranged over.
    pub waves: usize,
    /// The budget each device was checked against.
    pub budget_bytes: u64,
}

impl CertifyOutcome {
    /// `true` when the extended report has neither errors nor warnings.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }

    /// Renders the outcome as one entry of the `micdnn-verify-v1` report.
    pub fn to_doc(&self, graph: &str) -> CertifyDoc {
        CertifyDoc {
            graph: graph.to_string(),
            devices: self.device_peaks.len() as u64,
            nodes: self.report.nodes as u64,
            buffers: self.report.buffers as u64,
            registers: self.report.registers as u64,
            waves: self.waves as u64,
            budget_bytes: self.budget_bytes,
            errors: self.report.errors.len() as u64,
            warnings: self.report.warnings.len() as u64,
            device_peaks: self.device_peaks.clone(),
            findings: self
                .report
                .errors
                .iter()
                .chain(self.report.warnings.iter())
                .map(FindingDoc::from_diag)
                .collect(),
        }
    }
}

/// One graph's entry in the `micdnn-verify-v1` report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CertifyDoc {
    /// Label of the certified graph (e.g. `ae-step-1024x4096-b100`).
    pub graph: String,
    /// Number of distinct devices the graph places nodes on.
    pub devices: u64,
    /// Node count.
    pub nodes: u64,
    /// Declared-buffer count.
    pub buffers: u64,
    /// Physical-register count of the certified plan.
    pub registers: u64,
    /// ASAP wave count the memory proof ranged over.
    pub waves: u64,
    /// Per-device budget the proof was checked against.
    pub budget_bytes: u64,
    /// Error-finding count.
    pub errors: u64,
    /// Warning-finding count.
    pub warnings: u64,
    /// Proven peak residency per device.
    pub device_peaks: Vec<DevicePeak>,
    /// All findings, errors first (SARIF-flavored).
    pub findings: Vec<FindingDoc>,
}

/// One finding of a [`CertifyDoc`] (SARIF-flavored: stable rule id plus
/// location data).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FindingDoc {
    /// Stable rule id (`DiagKind::code`).
    pub rule: String,
    /// `"error"` or `"warning"`.
    pub severity: String,
    /// Human-readable one-line description.
    pub message: String,
    /// Involved nodes as `label#id`.
    pub nodes: Vec<String>,
    /// Involved buffer, if any.
    pub buffer: Option<String>,
    /// Involved wave, if any (mem-budget findings).
    pub wave: Option<u64>,
    /// Involved byte count, if any (mem-budget findings).
    pub bytes: Option<u64>,
}

impl FindingDoc {
    fn from_diag(d: &Diagnostic) -> Self {
        FindingDoc {
            rule: d.kind.code().to_string(),
            severity: match d.kind.severity() {
                Severity::Error => "error".to_string(),
                Severity::Warning => "warning".to_string(),
            },
            message: d.message.clone(),
            nodes: d
                .nodes
                .iter()
                .map(|(id, name)| format!("{name}#{id}"))
                .collect(),
            buffer: d.buffer.map(str::to_string),
            wave: d.wave.map(|w| w as u64),
            bytes: d.bytes,
        }
    }
}

/// The versioned `micdnn-verify-v1` report: one entry per certified graph.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CertifyBundle {
    /// Always [`VERIFY_SCHEMA`].
    pub schema: String,
    /// One entry per certified graph, in certification order.
    pub graphs: Vec<CertifyDoc>,
}

impl CertifyBundle {
    /// Wraps per-graph entries under the versioned schema tag.
    pub fn new(graphs: Vec<CertifyDoc>) -> Self {
        CertifyBundle {
            schema: VERIFY_SCHEMA.to_string(),
            graphs,
        }
    }

    /// `true` when every entry certified with zero errors and warnings.
    pub fn is_clean(&self) -> bool {
        self.graphs.iter().all(|g| g.errors == 0 && g.warnings == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeSpec;

    /// produce -> consume over one scratch buffer, plus an output sink so
    /// nothing is a dead write.
    fn chain() -> TaskGraph<'static, ()> {
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        let x = g.declare_dims("x", &[32], BufClass::Scratch);
        let out = g.declare_dims("out", &[32], BufClass::Pinned);
        g.node(NodeSpec::new("produce").writes(&[x]), |_, _| {});
        g.node(
            NodeSpec::new("consume").reads(&[x]).writes(&[out]),
            |_, _| {},
        );
        g
    }

    #[test]
    fn clean_chain_verifies_clean() {
        let report = chain().verify();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.nodes, 2);
        assert_eq!(report.buffers, 2);
    }

    #[test]
    fn dropped_edge_is_a_race() {
        let mut g = chain();
        g.testonly_drop_dep(1, 0);
        let report = g.verify();
        assert!(report.has(DiagKind::Race), "{report}");
        // The missing edge also leaves the read uninitialized in some
        // topological order.
        assert!(report.has(DiagKind::UseBeforeInit), "{report}");
        let race = &report.errors[0];
        assert_eq!(race.buffer, Some("x"));
        assert!(race.message.contains("produce") && race.message.contains("consume"));
    }

    #[test]
    fn missing_writer_is_use_before_init() {
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        let x = g.declare_dims("x", &[16], BufClass::Scratch);
        let out = g.declare_dims("out", &[16], BufClass::Pinned);
        // The init node was "skipped": nothing writes x.
        g.node(
            NodeSpec::new("consume").reads(&[x]).writes(&[out]),
            |_, _| {},
        );
        let report = g.verify();
        assert!(report.has(DiagKind::UseBeforeInit), "{report}");
        assert!(report.errors[0].message.contains("no node writes it"));
    }

    #[test]
    fn unread_scratch_write_is_dead() {
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        let x = g.declare_dims("x", &[16], BufClass::Scratch);
        g.node(NodeSpec::new("produce").writes(&[x]), |_, _| {});
        let report = g.verify();
        assert!(report.errors.is_empty(), "{report}");
        assert!(report.has(DiagKind::DeadWrite), "{report}");
    }

    #[test]
    fn pinned_outputs_are_not_dead_writes() {
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        let x = g.declare_dims("x", &[16], BufClass::Pinned);
        g.node(NodeSpec::new("produce").writes(&[x]), |_, _| {});
        let report = g.verify();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn undeclared_unused_buffer_warns() {
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        let _unused = g.declare_dims("leftover", &[64], BufClass::Pinned);
        let x = g.declare_dims("x", &[16], BufClass::Pinned);
        g.node(NodeSpec::new("produce").writes(&[x]), |_, _| {});
        let report = g.verify();
        assert!(report.has(DiagKind::UnusedBuffer), "{report}");
        assert!(report.errors.is_empty());
    }

    #[test]
    fn unordered_stochastic_pair_is_an_error() {
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        let a = g.declare_dims("a", &[16], BufClass::Pinned);
        let b = g.declare_dims("b", &[16], BufClass::Pinned);
        g.node(
            NodeSpec::new("sampleA").writes(&[a]).stochastic(),
            |_, _| {},
        );
        g.node(
            NodeSpec::new("sampleB").writes(&[b]).stochastic(),
            |_, _| {},
        );
        let report = g.verify();
        assert!(report.has(DiagKind::UnorderedStochastic), "{report}");
    }

    #[test]
    fn ordered_stochastic_chain_is_fine() {
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        let a = g.declare_dims("a", &[16], BufClass::Pinned);
        let b = g.declare_dims("b", &[16], BufClass::Pinned);
        g.node(
            NodeSpec::new("sampleA").writes(&[a]).stochastic(),
            |_, _| {},
        );
        g.node(
            NodeSpec::new("sampleB")
                .reads(&[a])
                .writes(&[b])
                .stochastic(),
            |_, _| {},
        );
        let report = g.verify();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn exclusive_read_read_sharing_without_order_is_an_error() {
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        let src = g.declare_dims("src", &[16], BufClass::External);
        // Two exclusive nodes both read `src`, no path between them.
        g.node(NodeSpec::new("statA").reads(&[src]).exclusive(), |_, _| {});
        g.node(NodeSpec::new("statB").reads(&[src]).exclusive(), |_, _| {});
        let report = g.verify();
        assert!(report.has(DiagKind::UnorderedSideEffects), "{report}");
    }

    #[test]
    fn disjoint_exclusive_nodes_are_fine() {
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        let a = g.declare_dims("a", &[16], BufClass::External);
        let b = g.declare_dims("b", &[16], BufClass::External);
        g.node(NodeSpec::new("statA").reads(&[a]).exclusive(), |_, _| {});
        g.node(NodeSpec::new("statB").reads(&[b]).exclusive(), |_, _| {});
        let report = g.verify();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn forced_alias_of_live_buffers_is_unsafe() {
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        let a = g.declare_dims("a", &[32], BufClass::Scratch);
        let b = g.declare_dims("b", &[32], BufClass::Scratch);
        let out = g.declare_dims("out", &[32], BufClass::Pinned);
        g.node(NodeSpec::new("mkA").writes(&[a]), |_, _| {});
        g.node(NodeSpec::new("mkB").writes(&[b]), |_, _| {});
        g.node(
            NodeSpec::new("sum").reads(&[a, b]).writes(&[out]),
            |_, _| {},
        );
        let mut plan = g.plan();
        assert_ne!(plan.register_of(a), plan.register_of(b), "live pair");
        plan.testonly_force_alias(a, b);
        let report = g.verify_with_plan(&plan);
        assert!(report.has(DiagKind::UnsafeAlias), "{report}");
        // The honest plan verifies clean.
        let clean = g.verify();
        assert!(clean.errors.is_empty(), "{clean}");
    }

    #[test]
    fn legal_alias_is_reported_as_verified() {
        // a dies before c is born (the planner-alias unit-test shape).
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        let a = g.declare_dims("a", &[100], BufClass::Scratch);
        let t = g.declare_dims("t", &[4], BufClass::Pinned);
        let c = g.declare_dims("c", &[40], BufClass::Scratch);
        let out = g.declare_dims("out", &[4], BufClass::Pinned);
        g.node(NodeSpec::new("first").writes(&[a]), |_, _| {});
        g.node(NodeSpec::new("mid").reads(&[a]).writes(&[t]), |_, _| {});
        g.node(NodeSpec::new("late").reads(&[t]).writes(&[c]), |_, _| {});
        g.node(NodeSpec::new("sink").reads(&[c]).writes(&[out]), |_, _| {});
        let plan = g.plan();
        assert_eq!(plan.register_of(a), plan.register_of(c));
        let report = g.verify_with_plan(&plan);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.verified_alias_pairs, vec![("a", "c")]);
    }

    #[test]
    fn unmediated_cross_device_edge_is_an_error() {
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        let x = g.declare_dims("x", &[16], BufClass::Scratch);
        let out = g.declare_dims("out", &[16], BufClass::Pinned);
        g.node(NodeSpec::new("produce").writes(&[x]).device(0), |_, _| {});
        g.node(
            NodeSpec::new("consume")
                .reads(&[x])
                .writes(&[out])
                .device(1),
            |_, _| {},
        );
        let report = g.verify();
        assert!(report.has(DiagKind::CrossDeviceFlow), "{report}");
        let diag = report
            .errors
            .iter()
            .find(|d| d.kind == DiagKind::CrossDeviceFlow)
            .unwrap();
        assert_eq!(diag.buffer, Some("x"));
        assert!(diag.message.contains("device 0") && diag.message.contains("device 1"));
    }

    #[test]
    fn transfer_endpoint_mediates_the_edge() {
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        let x = g.declare_dims("x", &[16], BufClass::Scratch);
        let y = g.declare_dims("y", &[16], BufClass::Scratch);
        let out = g.declare_dims("out", &[16], BufClass::Pinned);
        g.node(NodeSpec::new("produce").writes(&[x]).device(0), |_, _| {});
        g.node(
            NodeSpec::new("ship")
                .reads(&[x])
                .writes(&[y])
                .device(1)
                .transfer(),
            |_, _| {},
        );
        g.node(
            NodeSpec::new("consume")
                .reads(&[y])
                .writes(&[out])
                .device(1),
            |_, _| {},
        );
        let report = g.verify();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn interposed_transfer_mediates_a_staged_edge() {
        // produce@0 and consume@1 share `x` directly, but a transfer node
        // sits strictly between them on the token chain: the edge is
        // mediated even though the transfer stages through another buffer.
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        let x = g.declare_dims("x", &[16], BufClass::Scratch);
        let tok = g.declare_dims("tok", &[1], BufClass::Scratch);
        let tok2 = g.declare_dims("tok2", &[1], BufClass::Scratch);
        let out = g.declare_dims("out", &[16], BufClass::Pinned);
        g.node(
            NodeSpec::new("produce").writes(&[x, tok]).device(0),
            |_, _| {},
        );
        g.node(
            NodeSpec::new("stage")
                .reads(&[tok])
                .writes(&[tok2])
                .device(1)
                .transfer(),
            |_, _| {},
        );
        g.node(
            NodeSpec::new("consume")
                .reads(&[x, tok2])
                .writes(&[out])
                .device(1),
            |_, _| {},
        );
        let report = g.verify();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn single_device_graphs_skip_the_cross_device_check() {
        // The default device is 0 everywhere; nothing cross-device fires.
        let report = chain().verify();
        assert!(!report.has(DiagKind::CrossDeviceFlow), "{report}");
    }

    #[test]
    fn report_renders_counts_and_lines() {
        let mut g = chain();
        g.testonly_drop_dep(1, 0);
        let text = g.verify().to_string();
        assert!(text.contains("error(s)"), "{text}");
        assert!(text.contains("error[race]"), "{text}");
        assert!(text.contains("`x`"), "{text}");
    }

    /// Shaped produce -> consume chain with a stochastic, cursor-bound tail.
    fn shaped_chain() -> TaskGraph<'static, ()> {
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        g.declare_rng_cursor("noise");
        let x = g.declare_dims("x", &[4, 8], BufClass::Scratch);
        let out = g.declare_dims("out", &[4, 8], BufClass::Pinned);
        g.node(NodeSpec::new("produce").writes(&[x]), |_, _| {});
        g.node(
            NodeSpec::new("consume")
                .reads(&[x])
                .writes(&[out])
                .stochastic()
                .cursor("noise"),
            |_, _| {},
        );
        g
    }

    #[test]
    fn shaped_chain_certifies_clean() {
        let g = shaped_chain();
        let outcome = g.certify(DEFAULT_MEM_BUDGET);
        assert!(outcome.is_clean(), "{}", outcome.report);
        assert_eq!(outcome.waves, 2);
        assert_eq!(outcome.device_peaks.len(), 1);
        // x (32 elems) and out (32 elems) both resident in the peak wave.
        assert_eq!(outcome.device_peaks[0].peak_bytes, 2 * 32 * 4);
    }

    #[test]
    fn certify_rules_stay_out_of_the_verify_path() {
        // A stochastic node without a cursor: certification has a
        // finding, but the executor's automatic verify path stays clean —
        // existing graphs must keep executing.
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        let out = g.declare_dims("out", &[16], BufClass::Pinned);
        g.node(
            NodeSpec::new("sample").writes(&[out]).stochastic(),
            |_, _| {},
        );
        let verify = g.verify();
        assert!(verify.is_clean(), "{verify}");
        let certify = g.certify(DEFAULT_MEM_BUDGET);
        assert!(
            certify.report.has(DiagKind::UndeclaredStochastic),
            "{}",
            certify.report
        );
    }

    #[test]
    fn mem_budget_violation_names_the_peak_wave_and_live_set() {
        let g = shaped_chain();
        let peak = g.certify(DEFAULT_MEM_BUDGET).device_peaks[0].clone();
        let outcome = g.certify(peak.peak_bytes - 1);
        assert!(
            outcome.report.has(DiagKind::MemBudget),
            "{}",
            outcome.report
        );
        let diag = outcome
            .report
            .errors
            .iter()
            .find(|d| d.kind == DiagKind::MemBudget)
            .unwrap();
        assert_eq!(diag.wave, Some(peak.peak_wave));
        assert_eq!(diag.bytes, Some(peak.peak_bytes));
        assert!(diag.message.contains("`x`") && diag.message.contains("`out`"));
    }

    #[test]
    fn certify_doc_round_trips_through_the_shim() {
        let g = shaped_chain();
        let doc = g.certify(DEFAULT_MEM_BUDGET).to_doc("shaped-chain");
        let bundle = CertifyBundle::new(vec![doc]);
        assert!(bundle.is_clean());
        let json = serde_json::to_string(&bundle).unwrap();
        let back = serde_json::from_str(&json).unwrap();
        assert_eq!(back, serde_json::to_value(&bundle));
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        let schema = back.get_field("schema").and_then(serde_json::Value::as_str);
        assert_eq!(schema, Some(VERIFY_SCHEMA));
    }
}
