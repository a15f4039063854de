//! The dataflow execution substrate: graph builder, workspace planner and
//! executor (paper §IV.B.1, Fig. 6).
//!
//! The paper's fourth optimization observes that the matrix operations of
//! one training step form a small DAG: once `H1` is known, the
//! reconstruction `V2` and the positive statistics can proceed
//! concurrently, and the final parameter updates are mutually independent.
//! [`TaskGraph`] turns that observation into the single execution substrate
//! for every training step in this crate:
//!
//! * **Builder** — every buffer is declared with its logical shape
//!   ([`TaskGraph::declare_dims`]) and every node with the buffers it reads
//!   and writes ([`NodeSpec`], [`TaskGraph::node`]); dependencies are
//!   derived automatically from read-after-write, write-after-write and
//!   write-after-read conflicts, so the declaration order is by
//!   construction a valid serial schedule. Each node also declares the op
//!   costs it charges ([`NodeSpec::ops`]), so a graph is priced without
//!   running it ([`TaskGraph::declared_ops`]); a node's first run under the
//!   verifier checks what it charges against that declaration.
//! * **Planner** — [`TaskGraph::plan`] computes buffer live ranges in
//!   declaration order, the order every executor runs, and folds scratch
//!   buffers whose ranges are disjoint into shared *registers* of a
//!   [`Workspace`] arena, largest first. Where the DAG does not already
//!   order two buffers it aliases, the plan records ordering edges (never
//!   one that moves a node to a later wave) that the graph adds to its DAG
//!   when it runs over the plan, so every node touching one strictly
//!   precedes every node touching the other under any topological order of
//!   the resulting DAG — the one the verifier checks and the simulated
//!   clock prices. Every shipped step runs over the arena its plan lays
//!   out.
//! * **Executor** — [`TaskGraph::run_serial`] runs nodes in declaration
//!   order, charging ops directly: bit- and time-identical to the
//!   hand-rolled loops it replaces. [`TaskGraph::execute`] prices each node
//!   separately on a simulated context and advances the clock by the
//!   *critical path*; on a native context it is `run_serial`. Running
//!   independent nodes side by side on the host did not pay at any
//!   measured shape (DESIGN.md §4.1), so node-level overlap lives on the
//!   simulated clock only.
//! * **Preparation** — a step graph depends only on shapes, so its owner
//!   builds it once, keeps it with its arena (`KeptGraph`) and binds each
//!   batch ([`NodeState`]); plan and verification are memoized, everything
//!   context-dependent is per run.
//! * **Sharding** — [`BufClass::Partial`] declares per-block partial sums;
//!   [`crate::DataParallel`] runs a graph's node ranges between the sync
//!   points they imply per canonical block, and the rest once.
//!
//! Before either executor touches a graph, the static verifier in
//! [`crate::verify`] checks the declared footprints, the inferred edges and
//! the workspace plan against each other (races, use-before-init, unsafe
//! aliases, determinism hazards): on a graph it passes, every schedule the
//! simulated critical path assumes computes the bits declaration order
//! does. It runs before a graph's first execution in debug builds and
//! behind [`ExecCtx::verify_enabled`] in release.

use crate::exec::{ExecCtx, PhaseGuard};
use micdnn_kernels::{Backend, OpCost};
use micdnn_sim::EventKind;
use micdnn_tensor::Mat;
use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;

/// Identifier of a node within a [`TaskGraph`].
pub(crate) type NodeId = usize;

thread_local! {
    /// The graph node executing on this thread, as `(name, may_sample)`;
    /// `may_sample` is true for nodes declared `.stochastic()`.
    static CURRENT_NODE: Cell<Option<(&'static str, bool)>> = const { Cell::new(None) };
}

/// The name of the currently-executing graph node if it draws from the
/// sampling stream without a declared `.stochastic()` flag; `None` outside
/// node bodies and inside properly-declared ones. Consulted by
/// [`ExecCtx::next_stream`].
pub(crate) fn undeclared_stochastic_node() -> Option<&'static str> {
    CURRENT_NODE.with(|c| match c.get() {
        Some((name, false)) => Some(name),
        _ => None,
    })
}

/// RAII marker scoping [`CURRENT_NODE`] to one task invocation
/// (nest-safe: restores the previous value on drop).
struct NodeGuard {
    prev: Option<(&'static str, bool)>,
}

impl NodeGuard {
    fn enter(name: &'static str, may_sample: bool) -> Self {
        NodeGuard {
            prev: CURRENT_NODE.with(|c| c.replace(Some((name, may_sample)))),
        }
    }
}

impl Drop for NodeGuard {
    fn drop(&mut self) {
        CURRENT_NODE.with(|c| c.set(self.prev));
    }
}

/// Whether node `a` strictly precedes node `b` in the strict-ancestor
/// bitsets `anc` ([`TaskGraph::ancestors`]).
pub(crate) fn precedes(anc: &[Vec<u64>], a: NodeId, b: NodeId) -> bool {
    anc[b][a / 64] & (1 << (a % 64)) != 0
}

/// The pairs `(u, v)` the DAG (strict-ancestor bitsets `anc`) leaves
/// unordered between an accessor `u` of the earlier of the buffers `a`, `b`
/// and an accessor `v` of the later; their live ranges in `acc` (accessor
/// lists in node order) must be disjoint. The latest `u` and the earliest
/// `v` come first: an edge between them orders every pair they reach.
fn unordered(acc: &[Vec<NodeId>], anc: &[Vec<u64>], a: usize, b: usize) -> Vec<(NodeId, NodeId)> {
    let (early, late) = if acc[a].last() < acc[b].first() {
        (&acc[a], &acc[b])
    } else {
        (&acc[b], &acc[a])
    };
    let pairs = early
        .iter()
        .rev()
        .flat_map(|&u| late.iter().map(move |&v| (u, v)));
    pairs.filter(|&(u, v)| !precedes(anc, u, v)).collect()
}

/// Identifier of a declared buffer within a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId(pub usize);

/// Storage class of a declared buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufClass {
    /// Arena-managed scratch, dead after its last reader; the planner may
    /// alias it with other scratch whose live ranges are disjoint.
    Scratch,
    /// Arena-managed but read after the run (statistics consumed by a
    /// momentum update, gradients consumed by an optimizer); never aliased.
    Pinned,
    /// A per-block partial sum of a data-parallel step: each canonical
    /// block writes its own copy (`alpha = 1` sums), and the first node that
    /// reads it is a sync point, where [`crate::DataParallel`] merges the
    /// copies in canonical block order; never aliased.
    Partial,
    /// Storage owned elsewhere (model parameters, the input batch): tracked
    /// for dependency analysis only, no arena space.
    External,
}

/// One declared buffer.
#[derive(Debug, Clone)]
pub(crate) struct BufDecl {
    pub(crate) name: &'static str,
    pub(crate) class: BufClass,
    /// Logical tensor shape, fixed at [`TaskGraph::declare_dims`].
    pub(crate) dims: Vec<usize>,
}

impl BufDecl {
    /// Element count: the product of the declared dims.
    pub(crate) fn elems(&self) -> usize {
        self.dims.iter().product()
    }
}

/// The op costs a node charges for a batch of `rows` on a backend
/// ([`NodeSpec::ops`]).
type OpsDecl = Arc<dyn Fn(&Backend, usize) -> Vec<OpCost> + Send + Sync>;

/// Declarative description of a graph node, consumed by
/// [`TaskGraph::node`].
#[derive(Clone)]
pub struct NodeSpec {
    name: &'static str,
    reads: Vec<BufId>,
    writes: Vec<BufId>,
    stochastic: bool,
    exclusive: bool,
    phase: Option<&'static str>,
    device: u32,
    transfer: bool,
    cursor: Option<&'static str>,
    ops: OpsDecl,
}

impl NodeSpec {
    /// A node with no declared accesses yet.
    pub fn new(name: &'static str) -> Self {
        NodeSpec {
            name,
            reads: Vec::new(),
            writes: Vec::new(),
            stochastic: false,
            exclusive: false,
            phase: None,
            device: 0,
            transfer: false,
            cursor: None,
            ops: Arc::new(|_, _| Vec::new()),
        }
    }

    /// Declares the op costs the node charges for a batch of `rows` on a
    /// backend, in the order it charges them: what
    /// [`TaskGraph::declared_ops`] prices a graph by without running it. A
    /// node that declares none charges none. On a node's first run under the
    /// verifier (debug builds, or [`ExecCtx::with_verify`]) its charged
    /// stream must equal this declaration op for op.
    pub fn ops(
        mut self,
        ops: impl Fn(&Backend, usize) -> Vec<OpCost> + Send + Sync + 'static,
    ) -> Self {
        self.ops = Arc::new(ops);
        self
    }

    /// Declares buffers this node reads.
    pub fn reads(mut self, bufs: &[BufId]) -> Self {
        self.reads.extend_from_slice(bufs);
        self
    }

    /// Declares buffers this node writes.
    pub fn writes(mut self, bufs: &[BufId]) -> Self {
        self.writes.extend_from_slice(bufs);
        self
    }

    /// Marks the node as drawing from the context's sampling streams. The
    /// verifier requires stochastic nodes to be totally ordered by the DAG —
    /// stream order is part of the bit-reproducibility contract.
    pub fn stochastic(mut self) -> Self {
        self.stochastic = true;
        self
    }

    /// Marks the node as mutating shared non-buffer state (e.g. an
    /// optimizer's schedule step): the verifier requires it to be ordered
    /// against every other side-effecting node it shares a buffer with.
    pub(crate) fn exclusive(mut self) -> Self {
        self.exclusive = true;
        self
    }

    /// Tags the node with a profiling phase; [`TaskGraph::run_serial`]
    /// opens one [`crate::PhaseGuard`] per maximal run of equal tags,
    /// reproducing the hand-rolled loops' span structure.
    pub(crate) fn phase(mut self, name: &'static str) -> Self {
        self.phase = Some(name);
        self
    }

    /// Places the node on device `d` of a multi-device schedule (device 0
    /// by default). The verifier requires cross-device dataflow to be
    /// mediated by an ordered [`NodeSpec::transfer`] node.
    pub(crate) fn device(mut self, d: u32) -> Self {
        self.device = d;
        self
    }

    /// Marks the node as an inter-device transfer: it may legally bridge
    /// buffers between two devices (it owns the link hop that moves the
    /// bytes), and the verifier treats it as the ordering point of that
    /// cross-device edge.
    pub(crate) fn transfer(mut self) -> Self {
        self.transfer = true;
        self
    }

    /// Binds a stochastic node to a named counter-RNG cursor declared via
    /// [`TaskGraph::declare_rng_cursor`]. Pure metadata for the certifier's
    /// determinism audit ([`TaskGraph::certify`]): execution is unchanged,
    /// but certification requires every `.stochastic()` node to trace to a
    /// declared cursor.
    pub(crate) fn cursor(mut self, name: &'static str) -> Self {
        self.cursor = Some(name);
        self
    }
}

/// The state a graph's nodes run against, as a family over the lifetime of
/// one run's borrows (`At<'a> = Self` when it borrows nothing). Node bodies
/// are higher-ranked over that lifetime, so a graph outlives its batch.
pub trait NodeState {
    /// The state over borrows that live for `'a`.
    type At<'a>;

    /// The batch rows a run over `state` covers: the `rows` its nodes' op
    /// declarations ([`NodeSpec::ops`]) are checked at. State without a
    /// batch keeps the default, 0.
    fn rows(state: &Self::At<'_>) -> usize {
        let _ = state;
        0
    }
}

impl NodeState for () {
    type At<'a> = ();
}

/// The model a step's nodes run against: shared in a run that only reads it
/// (a forward graph, a data-parallel block range), exclusive in a training
/// step, whose update nodes write it.
pub(crate) enum NetRef<'a, N> {
    Shared(&'a N),
    Exclusive(&'a mut N),
}

impl<N> NetRef<'_, N> {
    /// The parameters, read-only.
    pub(crate) fn get(&self) -> &N {
        match self {
            NetRef::Shared(net) => net,
            NetRef::Exclusive(net) => net,
        }
    }

    /// The parameters, writable: only an update node asks, and only an
    /// exclusive binding runs update nodes.
    pub(crate) fn get_mut(&mut self) -> &mut N {
        match self {
            NetRef::Exclusive(net) => net,
            NetRef::Shared(_) => panic!("a model bound shared does not update parameters"),
        }
    }
}

/// A DAG of named tasks over declared buffers.
pub struct TaskGraph<'g, S: NodeState> {
    pub(crate) names: Vec<&'static str>,
    pub(crate) deps: Vec<Vec<NodeId>>,
    #[allow(clippy::type_complexity)]
    tasks: Vec<Box<dyn for<'a> FnMut(&ExecCtx, &mut S::At<'a>) + Send + Sync + 'g>>,
    pub(crate) reads: Vec<Vec<BufId>>,
    pub(crate) writes: Vec<Vec<BufId>>,
    /// Node draws from the context's sampling streams.
    pub(crate) stochastic: Vec<bool>,
    /// Node mutates shared non-buffer state (scalars in `S`).
    pub(crate) exclusive: Vec<bool>,
    /// Device the node is placed on (0 for single-device graphs).
    pub(crate) device: Vec<u32>,
    /// Node is an inter-device transfer (owns a cross-device edge).
    pub(crate) transfer: Vec<bool>,
    phases: Vec<Option<&'static str>>,
    /// Counter-RNG cursor a stochastic node is bound to ([`NodeSpec::cursor`]).
    pub(crate) cursors: Vec<Option<&'static str>>,
    /// The op costs each node declares ([`NodeSpec::ops`]).
    ops: Vec<OpsDecl>,
    /// Node's charged ops already checked against its declaration.
    ops_checked: Vec<bool>,
    /// Counter-RNG cursors declared on this graph
    /// ([`TaskGraph::declare_rng_cursor`]).
    pub(crate) rng_cursors: Vec<&'static str>,
    pub(crate) bufs: Vec<BufDecl>,
    /// Memoized "already verified clean" bit; mutation hooks clear it.
    verified: bool,
    /// Memoized [`TaskGraph::plan`]; structural changes clear it.
    pub(crate) planned: Option<WorkspacePlan>,
}

impl<'g, S: NodeState> Default for TaskGraph<'g, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'g, S: NodeState> TaskGraph<'g, S> {
    /// An empty graph.
    pub fn new() -> Self {
        TaskGraph {
            names: Vec::new(),
            deps: Vec::new(),
            tasks: Vec::new(),
            reads: Vec::new(),
            writes: Vec::new(),
            stochastic: Vec::new(),
            exclusive: Vec::new(),
            device: Vec::new(),
            transfer: Vec::new(),
            phases: Vec::new(),
            cursors: Vec::new(),
            ops: Vec::new(),
            ops_checked: Vec::new(),
            rng_cursors: Vec::new(),
            bufs: Vec::new(),
            verified: false,
            planned: None,
        }
    }

    /// Declares a buffer of f32 elements with a logical tensor shape; its
    /// element count is the product of `dims`. Returns its id.
    pub fn declare_dims(&mut self, name: &'static str, dims: &[usize], class: BufClass) -> BufId {
        self.planned = None;
        self.bufs.push(BufDecl {
            name,
            class,
            dims: dims.to_vec(),
        });
        BufId(self.bufs.len() - 1)
    }

    /// Declares a named counter-RNG cursor that stochastic nodes may bind
    /// to via [`NodeSpec::cursor`]. Pure certification metadata: the
    /// determinism audit requires every `.stochastic()` node to trace to
    /// one of these.
    pub(crate) fn declare_rng_cursor(&mut self, name: &'static str) {
        self.rng_cursors.push(name);
        self.verified = false;
    }

    /// Adds a node whose dependencies are derived from its declared
    /// buffer accesses: it runs after every earlier node it has a
    /// read-after-write, write-after-write or write-after-read conflict
    /// with. Declaration order is therefore always a valid serial schedule.
    pub fn node(
        &mut self,
        spec: NodeSpec,
        task: impl for<'a> FnMut(&ExecCtx, &mut S::At<'a>) + Send + Sync + 'g,
    ) -> NodeId {
        let id = self.names.len();
        for &BufId(b) in spec.reads.iter().chain(spec.writes.iter()) {
            assert!(
                b < self.bufs.len(),
                "node {} uses undeclared buffer {b}",
                spec.name
            );
        }
        let mut deps = Vec::new();
        for m in 0..id {
            let raw_or_waw = self.writes[m]
                .iter()
                .any(|w| spec.reads.contains(w) || spec.writes.contains(w));
            let war = self.reads[m].iter().any(|r| spec.writes.contains(r));
            if raw_or_waw || war {
                deps.push(m);
            }
        }
        self.names.push(spec.name);
        self.deps.push(deps);
        self.tasks.push(Box::new(task));
        self.reads.push(spec.reads);
        self.writes.push(spec.writes);
        self.stochastic.push(spec.stochastic);
        self.exclusive.push(spec.exclusive);
        self.device.push(spec.device);
        self.transfer.push(spec.transfer);
        self.phases.push(spec.phase);
        self.cursors.push(spec.cursor);
        self.ops.push(spec.ops);
        self.ops_checked.push(false);
        (self.verified, self.planned) = (false, None);
        id
    }

    /// The op costs the nodes declare ([`NodeSpec::ops`]) for a batch of
    /// `rows` on `backend`, concatenated in declaration order: the stream a
    /// run in declaration order charges, priced without planning, allocating
    /// or running anything.
    pub fn declared_ops(&self, backend: &Backend, rows: usize) -> Vec<OpCost> {
        self.ops.iter().flat_map(|ops| ops(backend, rows)).collect()
    }

    /// Whether this run checks node `id`'s charged ops against its
    /// declaration: on the node's first run under the verifier.
    fn checks_ops(&self, ctx: &ExecCtx, id: NodeId) -> bool {
        !self.ops_checked[id] && (cfg!(debug_assertions) || ctx.verify_enabled())
    }

    /// Checks the ops node `id` charged on a batch of `rows` against its
    /// declaration (none, if it declares none), memoizing a match. A
    /// mismatch panics, naming the node and the first op that differs.
    fn check_ops(&mut self, id: NodeId, backend: &Backend, rows: usize, charged: &[OpCost]) {
        let declared = (self.ops[id])(backend, rows);
        let len = declared.len().max(charged.len());
        if let Some(i) = (0..len).find(|&i| declared.get(i) != charged.get(i)) {
            panic!(
                "node `{}` charged other ops than it declares (NodeSpec::ops) at {rows} rows: \
                 op {i} charged {:?}, declared {:?}",
                self.names[id],
                charged.get(i),
                declared.get(i)
            );
        }
        self.ops_checked[id] = true;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Dependencies of a node.
    pub fn deps(&self, id: NodeId) -> &[NodeId] {
        &self.deps[id]
    }

    /// Strict-ancestor bitsets: `anc[i]` has bit `j` set iff `j` precedes
    /// `i` along the dependency edges plus the `extra` edges `(from, to)`
    /// (each pointing forward in declaration order).
    pub(crate) fn ancestors(&self, extra: &[(NodeId, NodeId)]) -> Vec<Vec<u64>> {
        let n = self.len();
        let words = n.div_ceil(64);
        let mut anc: Vec<Vec<u64>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut mine = vec![0u64; words];
            let added = extra
                .iter()
                .filter(|&&(_, to)| to == i)
                .map(|(from, _)| from);
            for &d in self.deps[i].iter().chain(added) {
                mine[d / 64] |= 1 << (d % 64);
                for (w, m) in mine.iter_mut().enumerate() {
                    *m |= anc[d][w];
                }
            }
            anc.push(mine);
        }
        anc
    }

    /// Plans arena storage for the declared buffers (the graph's memoized
    /// plan, once it has one).
    ///
    /// A buffer is live from its first accessor to its last in declaration
    /// order, the order every executor runs. The planner places the
    /// largest buffers first (ties by buffer id, so the plan is
    /// deterministic). A [`BufClass::Scratch`] buffer joins the first
    /// register whose occupants' live ranges are disjoint from its own and
    /// which the DAG already orders against it; failing that, the first
    /// disjoint register it can be ordered against without moving any node
    /// to a later wave (the plan never deepens the DAG); failing that, a
    /// register of its own. For such an alias the plan records ordering
    /// edges ([`WorkspacePlan::alias_edges`]), from the earlier buffer's last
    /// accessors to the later one's first, so under every topological order
    /// of the DAG plus those edges every accessor of one precedes every
    /// accessor of the other. The verifier checks a plan against the DAG
    /// with its edges, and a graph adds them to its [`TaskGraph::deps`]
    /// when it first runs over the plan, so the simulated critical path
    /// prices them too. Every edge points forward in declaration order,
    /// which therefore stays a valid schedule. [`BufClass::Pinned`] and
    /// [`BufClass::Partial`] buffers get dedicated registers;
    /// [`BufClass::External`] buffers get none.
    pub fn plan(&self) -> WorkspacePlan {
        self.planned
            .clone()
            .unwrap_or_else(|| self.plan_declaration_order())
    }

    /// The plan this graph runs over, taken out of the graph (the caller
    /// puts it back): the memoized one, or a fresh one whose ordering edges
    /// join the DAG.
    fn take_plan(&mut self) -> WorkspacePlan {
        if let Some(plan) = self.planned.take() {
            return plan;
        }
        let plan = self.plan_declaration_order();
        for &(from, to) in &plan.edges {
            let at = self.deps[to].partition_point(|&d| d < from);
            self.deps[to].insert(at, from);
        }
        plan
    }

    /// ASAP wave per node: one more than its latest dependency's.
    pub(crate) fn waves(&self) -> Vec<usize> {
        let mut wave = vec![0usize; self.len()];
        for i in 0..self.len() {
            wave[i] = self.deps[i].iter().map(|&d| wave[d] + 1).max().unwrap_or(0);
        }
        wave
    }

    /// [`TaskGraph::plan`]'s body: the greedy placement, recording the
    /// edges its aliases need.
    fn plan_declaration_order(&self) -> WorkspacePlan {
        // Accessor list per buffer, in node order.
        let mut acc: Vec<Vec<NodeId>> = vec![Vec::new(); self.bufs.len()];
        for id in 0..self.len() {
            for &BufId(b) in self.reads[id].iter().chain(self.writes[id].iter()) {
                if acc[b].last() != Some(&id) {
                    acc[b].push(id);
                }
            }
        }
        // Live ranges never overlap when either buffer is never touched.
        let span = |b: usize| Some((*acc[b].first()?, *acc[b].last()?));
        let disjoint = |a: usize, b: usize| match (span(a), span(b)) {
            (Some((fa, la)), Some((fb, lb))) => la < fb || lb < fa,
            _ => true,
        };
        let mut order: Vec<usize> = (0..self.bufs.len())
            .filter(|&b| self.bufs[b].class != BufClass::External)
            .collect();
        order.sort_by_key(|&b| (std::cmp::Reverse(self.bufs[b].elems()), b));

        // Only wave-preserving edges are added, so the waves stay these.
        let wave = self.waves();
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut anc = self.ancestors(&edges);
        let mut assignment: Vec<Option<usize>> = vec![None; self.bufs.len()];
        let mut register_elems: Vec<usize> = Vec::new();
        let mut occupants: Vec<Option<Vec<usize>>> = Vec::new();
        for b in order {
            let mut ordered = None;
            let mut orderable = None;
            if self.bufs[b].class == BufClass::Scratch {
                for (r, os) in occupants.iter().enumerate() {
                    let Some(os) = os.as_ref().filter(|os| os.iter().all(|&o| disjoint(o, b)))
                    else {
                        continue;
                    };
                    let missing: Vec<(NodeId, NodeId)> = os
                        .iter()
                        .flat_map(|&o| unordered(&acc, &anc, o, b))
                        .collect();
                    if missing.is_empty() {
                        ordered = Some((r, missing));
                        break;
                    }
                    if orderable.is_none() && missing.iter().all(|&(u, v)| wave[u] < wave[v]) {
                        orderable = Some((r, missing));
                    }
                }
            }
            let Some((r, missing)) = ordered.or(orderable) else {
                // Placed largest first, a register's first tenant is its
                // largest.
                assignment[b] = Some(register_elems.len());
                register_elems.push(self.bufs[b].elems());
                let shareable = self.bufs[b].class == BufClass::Scratch;
                occupants.push(shareable.then(|| vec![b]));
                continue;
            };
            for (u, v) in missing {
                if !precedes(&anc, u, v) {
                    edges.push((u, v));
                    anc = self.ancestors(&edges);
                }
            }
            occupants[r].as_mut().expect("a shareable register").push(b);
            assignment[b] = Some(r);
        }
        // Number the registers in the order their first tenants are
        // declared, so the arena allocates them in the order the step first
        // uses them, not by size.
        let mut by_tenant: Vec<usize> = (0..register_elems.len()).collect();
        by_tenant.sort_by_key(|&r| assignment.iter().position(|&a| a == Some(r)));
        let mut index = vec![0; by_tenant.len()];
        for (i, &r) in by_tenant.iter().enumerate() {
            index[r] = i;
        }
        WorkspacePlan {
            assignment: assignment.iter().map(|a| a.map(|r| index[r])).collect(),
            register_elems: by_tenant.iter().map(|&r| register_elems[r]).collect(),
            buf_elems: self.bufs.iter().map(BufDecl::elems).collect(),
            total_declared: self
                .bufs
                .iter()
                .filter(|d| d.class != BufClass::External)
                .map(BufDecl::elems)
                .sum(),
            edges,
        }
    }

    /// Runs every node in declaration order, charging ops directly — the
    /// serial path. Bit- and time-identical to the hand-rolled loop the
    /// graph was derived from: same ops, same order, same sampling streams,
    /// and one profiling span per maximal run of equal phase tags.
    pub(crate) fn run_serial(&mut self, ctx: &ExecCtx, state: &mut S::At<'_>) {
        self.run_range(ctx, state, 0..self.len());
    }

    /// Runs the nodes of `range` as [`TaskGraph::run_serial`] runs them all,
    /// verifying the graph first if it has not verified yet. A data-parallel
    /// step runs its graph this way, one range between sync points at a time.
    pub(crate) fn run_range(&mut self, ctx: &ExecCtx, state: &mut S::At<'_>, range: Range<NodeId>) {
        if self.should_verify(ctx) {
            let plan = self.take_plan();
            self.verify_or_demote(ctx, &plan);
            self.planned = Some(plan);
        }
        let mut current: Option<&'static str> = None;
        let mut guard: Option<PhaseGuard<'_>> = None;
        for id in range {
            if self.phases[id] != current {
                drop(guard.take());
                current = self.phases[id];
                guard = current.map(|p| ctx.phase(p));
            }
            let _node = NodeGuard::enter(self.names[id], self.stochastic[id]);
            let capture = self.checks_ops(ctx, id).then(|| ctx.capture_ops());
            (self.tasks[id])(ctx, state);
            if let Some(capture) = capture {
                self.check_ops(id, &ctx.backend(), S::rows(state), &capture.ops());
            }
        }
    }

    /// Executes the graph as a *schedule*.
    ///
    /// On a simulated context every node is priced separately
    /// (`ExecCtx::run_deferred`) and the clock advances by the critical
    /// path — the quantity the paper's Fig. 6 optimization changes. When
    /// tracing, each node lands on a concurrency lane of the timeline.
    ///
    /// On a native context the nodes run in declaration order
    /// (`run_serial`), so weights, sampling streams, recorded op order and
    /// profiling phases are those of the serial schedule.
    pub fn execute(&mut self, ctx: &ExecCtx, state: &mut S::At<'_>) -> GraphRun {
        // The plan depends on the graph alone: a kept graph plans once.
        let plan = self.take_plan();
        if self.should_verify(ctx) {
            self.verify_or_demote(ctx, &plan);
        }
        if ctx.is_degraded() {
            // Demoted (verifier error or leg panic under graceful
            // degradation): declaration order is always a valid schedule,
            // so price it serially for the remainder of the run.
            self.run_serial(ctx, state);
            let run = GraphRun {
                durations: Vec::new(),
                completion: Vec::new(),
                critical_path: 0.0,
                serial_time: 0.0,
                scratch_elems: plan.total_declared_elems(),
                planned_peak_elems: plan.peak_elems(),
            };
            self.planned = Some(plan);
            return run;
        }
        let n = self.len();
        let mut durations = vec![0.0f64; n];
        let mut completion = vec![0.0f64; n];

        if ctx.cost_model().is_some() {
            for id in 0..n {
                let name = self.names[id];
                let may_sample = self.stochastic[id];
                let capture = self.checks_ops(ctx, id).then(|| ctx.capture_ops());
                let task = &mut self.tasks[id];
                let ((), dur) = ctx.run_deferred(|ctx| {
                    let _node = NodeGuard::enter(name, may_sample);
                    task(ctx, state)
                });
                if let Some(capture) = capture {
                    self.check_ops(id, &ctx.backend(), S::rows(state), &capture.ops());
                }
                durations[id] = dur;
                let dep_done = self.deps[id]
                    .iter()
                    .map(|&d| completion[d])
                    .fold(0.0f64, f64::max);
                completion[id] = dep_done + dur;
            }
        } else {
            self.run_serial(ctx, state);
        }

        let critical_path = completion.iter().copied().fold(0.0, f64::max);
        let serial: f64 = durations.iter().sum();
        if ctx.trace().is_enabled() && ctx.cost_model().is_some() {
            let t0 = ctx.sim_time();
            // Greedy interval layout: reuse the first lane that is free by
            // the node's start so concurrent nodes fan out over lanes.
            let mut lane_ends: Vec<f64> = Vec::new();
            for id in 0..n {
                let (s, e) = (completion[id] - durations[id], completion[id]);
                let lane = match lane_ends.iter().position(|&le| le <= s) {
                    Some(l) => l,
                    None => {
                        lane_ends.push(0.0);
                        lane_ends.len() - 1
                    }
                };
                lane_ends[lane] = e;
                ctx.trace()
                    .push_lane(t0 + s, t0 + e, EventKind::Node, self.names[id], lane);
            }
        }
        ctx.advance_clock(critical_path, EventKind::Sync, "task-graph");
        let run = GraphRun {
            durations,
            completion,
            critical_path,
            serial_time: serial,
            scratch_elems: plan.total_declared_elems(),
            planned_peak_elems: plan.peak_elems(),
        };
        self.planned = Some(plan);
        run
    }

    /// Whether this execution should run the static verifier first: always
    /// in debug builds, on request ([`ExecCtx::with_verify`]) in release —
    /// unless the graph already verified clean or the context is already
    /// demoted to the serial schedule.
    fn should_verify(&self, ctx: &ExecCtx) -> bool {
        !self.verified && !ctx.is_degraded() && (cfg!(debug_assertions) || ctx.verify_enabled())
    }

    /// Runs the static verifier against `plan`. A report without errors
    /// memoizes the verified bit, so a kept graph is verified once, not per
    /// batch; warnings never fail. A report with errors
    /// panics with the full report — or, under
    /// [`ExecCtx::with_graceful_degradation`], demotes the context to the
    /// serial schedule and records an incident note instead.
    fn verify_or_demote(&mut self, ctx: &ExecCtx, plan: &WorkspacePlan) {
        let report = self.verify_with_plan(plan);
        if report.errors.is_empty() {
            self.verified = true;
            return;
        }
        if ctx.degradation_enabled() {
            ctx.force_degrade(
                "degraded",
                &format!(
                    "graph verification failed ({} verification error(s)); demoted to the \
                     serial schedule",
                    report.errors.len()
                ),
            );
            return;
        }
        panic!("task-graph verification failed:\n{report}");
    }

    /// Removes the inferred edge `dep -> node`, if present. Test-only:
    /// simulates a dependency-inference bug for the verifier suite.
    #[doc(hidden)]
    pub fn testonly_drop_dep(&mut self, node: NodeId, dep: NodeId) {
        self.deps[node].retain(|&d| d != dep);
        (self.verified, self.planned) = (false, None);
    }

    /// Removes every declared RNG cursor. Test-only: simulates a recipe
    /// that samples without a declared counter-RNG cursor, for the
    /// determinism-audit mutation test.
    #[doc(hidden)]
    pub fn testonly_strip_cursor_decls(&mut self) {
        self.rng_cursors.clear();
        self.verified = false;
    }

    /// Unbinds one node's RNG cursor. Test-only: simulates a recipe that
    /// forgets `NodeSpec::cursor` on a single sampling node.
    #[doc(hidden)]
    pub fn testonly_unbind_cursor(&mut self, node: NodeId) {
        self.cursors[node] = None;
        self.verified = false;
    }
}

/// Arena plan produced by [`TaskGraph::plan`]: which register each declared
/// buffer lives in and how big the registers are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkspacePlan {
    /// Register index per buffer (`None` for [`BufClass::External`]).
    pub(crate) assignment: Vec<Option<usize>>,
    /// Size of each register in elements (max over its occupants).
    pub(crate) register_elems: Vec<usize>,
    /// Declared size of each buffer.
    buf_elems: Vec<usize>,
    /// Sum of all arena-managed (non-external) buffer sizes.
    total_declared: usize,
    /// The ordering edges `(from, to)` the aliases need beyond the DAG.
    edges: Vec<(NodeId, NodeId)>,
}

impl WorkspacePlan {
    /// Peak arena footprint in elements: the sum of register sizes. Aliasing
    /// makes this smaller than [`WorkspacePlan::total_declared_elems`].
    pub fn peak_elems(&self) -> usize {
        self.register_elems.iter().sum()
    }

    /// What dedicated per-buffer storage would have cost.
    pub fn total_declared_elems(&self) -> usize {
        self.total_declared
    }

    /// The register a buffer was assigned to (`None` for external buffers).
    pub fn register_of(&self, buf: BufId) -> Option<usize> {
        self.assignment[buf.0]
    }

    /// The ordering edges `(from, to)` the plan's aliases need beyond its
    /// graph's DAG, in the order it placed them; the graph adds them to its
    /// dependencies when it first runs over the plan.
    pub fn alias_edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Number of registers in the plan.
    pub fn num_registers(&self) -> usize {
        self.register_elems.len()
    }

    /// Size of one register in elements (max over its occupants).
    pub fn register_size(&self, r: usize) -> usize {
        self.register_elems[r]
    }

    /// Removes the `k`-th of [`WorkspacePlan::alias_edges`]. Test-only:
    /// simulates a planner that aliases without ordering.
    #[doc(hidden)]
    pub fn testonly_drop_alias_edge(&mut self, k: usize) {
        self.edges.remove(k);
    }

    /// Forces `b` into `a`'s register. Test-only: simulates a planner bug
    /// (aliasing two live buffers) for the verifier suite.
    #[doc(hidden)]
    pub fn testonly_force_alias(&mut self, a: BufId, b: BufId) {
        let ra = self.assignment[a.0].expect("buffer `a` must have a register");
        self.assignment[b.0] = Some(ra);
        self.register_elems[ra] = self.register_elems[ra].max(self.buf_elems[b.0]);
    }
}

/// The arena realizing a [`WorkspacePlan`]: one 64-byte-aligned allocation
/// per register (the alignment of [`Mat`] storage), handed out as per-buffer
/// slices. Built once and reused across steps, it replaces per-batch scratch
/// allocation.
#[derive(Debug)]
pub struct Workspace {
    registers: Vec<Mat>,
    assignment: Vec<Option<usize>>,
    buf_elems: Vec<usize>,
}

impl Workspace {
    /// Allocates the plan's registers (zero-initialized).
    pub(crate) fn new(plan: &WorkspacePlan) -> Self {
        Workspace {
            registers: plan
                .register_elems
                .iter()
                .map(|&e| Mat::zeros(1, e))
                .collect(),
            assignment: plan.assignment.clone(),
            buf_elems: plan.buf_elems.clone(),
        }
    }

    /// Elements the registers hold: the plan's peak.
    pub(crate) fn elems(&self) -> usize {
        self.registers.iter().map(Mat::len).sum()
    }

    fn register(&self, buf: BufId) -> usize {
        self.assignment[buf.0]
            .unwrap_or_else(|| panic!("external buffer {} has no arena storage", buf.0))
    }

    /// The storage of one buffer.
    pub(crate) fn buf(&self, buf: BufId) -> &[f32] {
        &self.registers[self.register(buf)].as_slice()[..self.buf_elems[buf.0]]
    }

    /// The storage of one buffer, mutably.
    pub(crate) fn buf_mut(&mut self, buf: BufId) -> &mut [f32] {
        let r = self.register(buf);
        let e = self.buf_elems[buf.0];
        &mut self.registers[r].as_mut_slice()[..e]
    }

    /// Mutable views of several buffers at once. Panics if any two share a
    /// register (i.e. were aliased by the planner) — the planner guarantees
    /// buffers live at the same time never do.
    pub(crate) fn bufs_mut<const N: usize>(&mut self, ids: [BufId; N]) -> [&mut [f32]; N] {
        let regs = ids.map(|b| self.register(b));
        for i in 0..N {
            for j in i + 1..N {
                assert_ne!(
                    regs[i], regs[j],
                    "buffers {} and {} share a register",
                    ids[i].0, ids[j].0
                );
            }
        }
        let mut k = 0;
        ids.map(|b| {
            let r = regs[k];
            k += 1;
            let e = self.buf_elems[b.0];
            // SAFETY: the registers indexed here are pairwise distinct
            // (asserted above), so the produced slices never overlap, and
            // they all borrow from `self` for the returned lifetime.
            unsafe {
                std::slice::from_raw_parts_mut(self.registers[r].as_mut_slice().as_mut_ptr(), e)
            }
        })
    }
}

impl<S: NodeState> std::fmt::Debug for TaskGraph<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TaskGraph").field(&self.names).finish()
    }
}

/// A step graph kept between batches: the key it was built for, the graph,
/// and the [`Workspace`] its plan lays out, which every buffer the graph
/// declares lives in. A cache, not state: a clone starts empty and builds
/// its own.
pub(crate) struct KeptGraph<K, S: NodeState>(
    pub(crate) Option<(K, TaskGraph<'static, S>, Workspace)>,
);

impl<K: PartialEq, S: NodeState> KeptGraph<K, S> {
    /// The graph kept for `key` and its arena. Unless the slot keeps one
    /// for `key`, it builds the graph with `build` and lays out a fresh
    /// arena by its plan (which the graph memoizes).
    pub(crate) fn prepare(
        &mut self,
        key: K,
        build: impl FnOnce() -> TaskGraph<'static, S>,
    ) -> (&mut TaskGraph<'static, S>, &mut Workspace) {
        if self.0.as_ref().map(|(k, _, _)| k) != Some(&key) {
            let mut graph = build();
            let plan = graph.take_plan();
            let arena = Workspace::new(&plan);
            graph.planned = Some(plan);
            self.0 = Some((key, graph, arena));
        }
        let (_, graph, arena) = self.0.as_mut().expect("graph just kept");
        (graph, arena)
    }

    /// The kept arena.
    pub(crate) fn arena(&self) -> &Workspace {
        &self.0.as_ref().expect("no graph kept").2
    }

    /// Elements the kept arena holds (0 before the first graph is kept).
    pub(crate) fn arena_elems(&self) -> usize {
        self.0.as_ref().map_or(0, |(_, _, arena)| arena.elems())
    }

    /// The kept graph's first buffer declared as `name`.
    fn named(&self, name: &str) -> BufId {
        let (_, graph, _) = self.0.as_ref().expect("no graph kept");
        let found = graph.bufs.iter().position(|d| d.name == name);
        BufId(found.unwrap_or_else(|| panic!("no buffer declared as `{name}`")))
    }

    /// The arena storage of the buffer declared as `name`.
    pub(crate) fn buf(&self, name: &str) -> &[f32] {
        self.arena().buf(self.named(name))
    }

    /// The `rows x cols` buffer declared as `name`, alone in its register,
    /// moved out of the kept arena without a copy. Empties the slot.
    pub(crate) fn take(&mut self, name: &str, rows: usize, cols: usize) -> Mat {
        let (id, (_, _, mut arena)) = (self.named(name), self.0.take().expect("no graph kept"));
        let register = arena.registers.swap_remove(arena.register(id));
        register.reshape(rows, cols).expect("a full register")
    }

    /// The arena storage of the buffer declared as `name`, mutably.
    pub(crate) fn buf_mut(&mut self, name: &str) -> &mut [f32] {
        let id = self.named(name);
        self.0.as_mut().expect("no graph kept").2.buf_mut(id)
    }
}

impl<K, S: NodeState> Clone for KeptGraph<K, S> {
    fn clone(&self) -> Self {
        KeptGraph(None)
    }
}

impl<K: std::fmt::Debug, S: NodeState> std::fmt::Debug for KeptGraph<K, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("KeptGraph").field(&self.0).finish()
    }
}

/// Result of one [`TaskGraph::execute`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphRun {
    /// Simulated seconds each node took in isolation.
    pub durations: Vec<f64>,
    /// Simulated completion time of each node along the critical path.
    pub completion: Vec<f64>,
    /// Critical-path length — what the clock was advanced by.
    pub critical_path: f64,
    /// Sum of all node durations — what a serial schedule would have
    /// charged.
    pub serial_time: f64,
    /// Declared arena footprint without aliasing, in elements.
    pub scratch_elems: usize,
    /// Arena footprint after workspace planning, in elements.
    pub planned_peak_elems: usize,
}

impl GraphRun {
    /// Speedup of the dependency-graph schedule over the serial one.
    pub fn speedup(&self) -> f64 {
        if self.critical_path > 0.0 {
            self.serial_time / self.critical_path
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::OptLevel;
    use micdnn_kernels::OpCost;
    use micdnn_sim::Platform;

    fn ctx() -> ExecCtx {
        ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 0)
    }

    /// A one-element buffer standing for one DAG edge: the source node
    /// writes it and the target node reads it.
    impl<T> NodeState for Vec<T> {
        type At<'a> = Vec<T>;

        fn rows(state: &Vec<T>) -> usize {
            state.len()
        }
    }

    /// A node that scales its whole state once.
    fn scaling(name: &'static str) -> NodeSpec {
        NodeSpec::new(name).ops(|be, n| vec![be.scale_cost(n)])
    }

    fn edge<S: NodeState>(g: &mut TaskGraph<'_, S>) -> BufId {
        g.declare_dims("edge", &[1], BufClass::Scratch)
    }

    #[test]
    fn linear_chain_charges_serial_time() {
        let ctx = ctx();
        let mut g: TaskGraph<'_, Vec<f32>> = TaskGraph::new();
        let s = g.declare_dims("s", &[100_000], BufClass::External);
        g.node(scaling("a").reads(&[s]).writes(&[s]), |ctx, s| {
            ctx.scale(2.0, s)
        });
        g.node(scaling("b").reads(&[s]).writes(&[s]), |ctx, s| {
            ctx.scale(0.5, s)
        });
        g.node(scaling("c").reads(&[s]).writes(&[s]), |ctx, s| {
            ctx.scale(1.5, s)
        });
        let mut state = vec![1.0f32; 100_000];
        let run = g.execute(&ctx, &mut state);
        assert!((run.critical_path - run.serial_time).abs() < 1e-12);
        assert!((ctx.sim_time() - run.critical_path).abs() < 1e-9);
        assert!((state[0] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn diamond_charges_critical_path_not_sum() {
        let ctx = ctx();
        let mut g: TaskGraph<'_, ()> = TaskGraph::new();
        let [ab1, ab2, b1c, b2c] = std::array::from_fn(|_| edge(&mut g));
        let op = OpCost::elementwise(1_000_000, 1, 1);
        let charge = move |ctx: &ExecCtx, _: &mut ()| ctx.charge_cost(op);
        let spec = |name| NodeSpec::new(name).ops(move |_, _| vec![op]);
        let a = g.node(spec("a").writes(&[ab1, ab2]), charge);
        let b1 = g.node(spec("b1").reads(&[ab1]).writes(&[b1c]), charge);
        let b2 = g.node(spec("b2").reads(&[ab2]).writes(&[b2c]), charge);
        let c = g.node(spec("c").reads(&[b1c, b2c]), charge);
        assert_eq!(g.deps(b1), &[a]);
        assert_eq!(g.deps(b2), &[a]);
        assert_eq!(g.deps(c), &[b1, b2]);
        let run = g.execute(&ctx, &mut ());
        // Four equal nodes, critical path of three.
        assert!(
            run.speedup() > 1.2 && run.speedup() < 1.4,
            "speedup {}",
            run.speedup()
        );
        assert!(run.critical_path < run.serial_time);
    }

    #[test]
    fn wide_graph_speedup_approaches_width() {
        let ctx = ctx();
        let mut g: TaskGraph<'_, ()> = TaskGraph::new();
        for _ in 0..8 {
            let op = OpCost::elementwise(500_000, 1, 1);
            let leaf = g.node(
                NodeSpec::new("leaf").ops(move |_, _| vec![op]),
                move |ctx, _| ctx.charge_cost(op),
            );
            assert!(g.deps(leaf).is_empty());
        }
        let run = g.execute(&ctx, &mut ());
        assert!(run.speedup() > 7.5, "speedup {}", run.speedup());
    }

    #[test]
    fn empty_graph_is_free() {
        let ctx = ctx();
        let mut g: TaskGraph<'_, ()> = TaskGraph::new();
        let run = g.execute(&ctx, &mut ());
        assert_eq!(run.critical_path, 0.0);
        assert_eq!(ctx.sim_time(), 0.0);
        assert!(g.is_empty());
    }

    #[test]
    fn nodes_see_state_mutations_in_topo_order() {
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let mut g: TaskGraph<'_, Vec<u32>> = TaskGraph::new();
        let log_buf = g.declare_dims("log", &[2], BufClass::External);
        g.node(
            NodeSpec::new("a").writes(&[log_buf]),
            |_, s: &mut Vec<u32>| s.push(1),
        );
        g.node(
            NodeSpec::new("b").reads(&[log_buf]).writes(&[log_buf]),
            |_, s: &mut Vec<u32>| s.push(2),
        );
        let mut log = Vec::new();
        g.execute(&ctx, &mut log);
        assert_eq!(log, vec![1, 2]);
    }

    #[test]
    fn degradation_demotes_instead_of_panicking() {
        let ctx = ExecCtx::native(OptLevel::Improved, 0)
            .with_verify()
            .with_graceful_degradation();
        let mut g: TaskGraph<'_, Vec<u32>> = TaskGraph::new();
        let x = g.declare_dims("x", &[4], BufClass::Scratch);
        let out = g.declare_dims("out", &[4], BufClass::Pinned);
        let p = g.node(
            NodeSpec::new("produce").writes(&[x]),
            |_, s: &mut Vec<u32>| s.push(1),
        );
        let c = g.node(
            NodeSpec::new("consume").reads(&[x]).writes(&[out]),
            |_, s: &mut Vec<u32>| s.push(2),
        );
        // Simulate a builder bug: the verifier now reports a race, which
        // would panic without graceful degradation.
        g.testonly_drop_dep(c, p);
        let mut log = Vec::new();
        g.execute(&ctx, &mut log);
        assert!(ctx.is_degraded(), "verify error must demote");
        assert_eq!(log, vec![1, 2], "demoted run still executes serially");
        let notes = ctx.take_incident_notes();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].0, "degraded");
        assert!(notes[0].1.contains("serial"), "{}", notes[0].1);
        // Degradation latches: later graphs skip verification and run
        // serially too.
        let mut g2: TaskGraph<'_, Vec<u32>> = TaskGraph::new();
        let y = g2.declare_dims("y", &[4], BufClass::Pinned);
        g2.node(NodeSpec::new("late").writes(&[y]), |_, s: &mut Vec<u32>| {
            s.push(3)
        });
        g2.execute(&ctx, &mut log);
        assert_eq!(log, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "undeclared-stochastic")]
    fn undeclared_sampling_in_a_node_body_is_caught() {
        let ctx = ExecCtx::native(OptLevel::Improved, 3);
        let mut g: TaskGraph<'_, Vec<f32>> = TaskGraph::new();
        let out = g.declare_dims("out", &[16], BufClass::External);
        // Draws from the sampling stream without declaring .stochastic().
        g.node(
            NodeSpec::new("sneaky").writes(&[out]),
            |ctx, s: &mut Vec<f32>| {
                let probs = vec![0.5f32; 16];
                ctx.bernoulli_at(ctx.next_stream(), 0, &probs, s);
            },
        );
        let mut state = vec![0.0f32; 16];
        g.run_serial(&ctx, &mut state);
    }

    #[test]
    fn declared_stochastic_nodes_may_sample() {
        let ctx = ExecCtx::native(OptLevel::Improved, 3);
        let mut g: TaskGraph<'_, Vec<f32>> = TaskGraph::new();
        let out = g.declare_dims("out", &[16], BufClass::External);
        g.node(
            NodeSpec::new("sample")
                .writes(&[out])
                .stochastic()
                .ops(|be, n| vec![be.sample_cost(n)]),
            |ctx, s: &mut Vec<f32>| {
                let probs = vec![0.5f32; 16];
                ctx.bernoulli_at(ctx.next_stream(), 0, &probs, s);
            },
        );
        let mut state = vec![0.0f32; 16];
        g.run_serial(&ctx, &mut state);
        // Outside node bodies sampling is always allowed.
        let mut direct = vec![0.0f32; 16];
        ctx.bernoulli_at(ctx.next_stream(), 0, &[0.5f32; 16], &mut direct);
    }

    #[test]
    fn declared_nodes_derive_raw_waw_war_deps() {
        let mut g: TaskGraph<'_, ()> = TaskGraph::new();
        let x = g.declare_dims("x", &[8], BufClass::Scratch);
        let y = g.declare_dims("y", &[8], BufClass::Scratch);
        let w = g.declare_dims("w", &[8], BufClass::External);
        let p = g.node(NodeSpec::new("produce").writes(&[x]), |_, _| {});
        let c = g.node(NodeSpec::new("consume").reads(&[x]).writes(&[y]), |_, _| {});
        // WAW on x with `produce`, WAR on x with `consume`.
        let o = g.node(NodeSpec::new("overwrite").writes(&[x]), |_, _| {});
        // Reads only the external param: no conflicts at all.
        let free = g.node(NodeSpec::new("free").reads(&[w]), |_, _| {});
        assert_eq!(g.deps(p), &[] as &[NodeId]);
        assert_eq!(g.deps(c), &[p]);
        assert_eq!(g.deps(o), &[p, c]);
        assert_eq!(g.deps(free), &[] as &[NodeId]);
    }

    #[test]
    #[should_panic(expected = "undeclared buffer")]
    fn undeclared_buffer_rejected() {
        let mut g: TaskGraph<'_, ()> = TaskGraph::new();
        g.node(NodeSpec::new("bad").reads(&[BufId(4)]), |_, _| {});
    }

    #[test]
    fn planner_aliases_strictly_ordered_buffers_only() {
        let mut g: TaskGraph<'_, ()> = TaskGraph::new();
        let a = g.declare_dims("a", &[100], BufClass::Scratch);
        let b = g.declare_dims("b", &[60], BufClass::Scratch);
        let c = g.declare_dims("c", &[40], BufClass::Scratch);
        let pin = g.declare_dims("pin", &[10], BufClass::Pinned);
        // a is dead once `mid` consumed it; b is born in `mid`. a and c are
        // both live across `mid` -> `late` from the DAG's point of view? No:
        // c is only touched by `late`, which strictly follows every
        // accessor of a — but b's writer IS an accessor concurrent with
        // nothing after it except `late`, which reads b.
        let first = g.node(NodeSpec::new("first").writes(&[a, pin]), |_, _| {});
        let mid = g.node(NodeSpec::new("mid").reads(&[a]).writes(&[b]), |_, _| {});
        let late = g.node(NodeSpec::new("late").reads(&[b]).writes(&[c]), |_, _| {});
        assert_eq!(g.deps(mid), &[first]);
        assert_eq!(g.deps(late), &[mid]);
        let plan = g.plan();
        // a's accessors {first, mid} all strictly precede c's {late}.
        assert_eq!(plan.register_of(a), plan.register_of(c));
        // b is live between mid and late, interfering with both a and c.
        assert_ne!(plan.register_of(b), plan.register_of(a));
        // Pinned storage is never shared.
        assert_ne!(plan.register_of(pin), plan.register_of(a));
        assert_ne!(plan.register_of(pin), plan.register_of(b));
        // Peak: max(a, c) + b + pin = 100 + 60 + 10 < 100 + 60 + 40 + 10.
        assert_eq!(plan.total_declared_elems(), 210);
        assert_eq!(plan.peak_elems(), 170);
    }

    #[test]
    fn workspace_hands_out_disjoint_register_slices() {
        let mut g: TaskGraph<'_, ()> = TaskGraph::new();
        let a = g.declare_dims("a", &[16], BufClass::Scratch);
        let b = g.declare_dims("b", &[8], BufClass::Scratch);
        g.node(NodeSpec::new("w").writes(&[a, b]), |_, _| {});
        let plan = g.plan();
        let mut ws = Workspace::new(&plan);
        assert_eq!(ws.elems(), 24);
        let [sa, sb] = ws.bufs_mut([a, b]);
        sa.fill(1.0);
        sb.fill(2.0);
        assert_eq!(sa.len(), 16);
        assert_eq!(sb.len(), 8);
        assert!(ws.buf(a).iter().all(|&v| v == 1.0));
        assert!(ws.buf(b).iter().all(|&v| v == 2.0));
    }

    #[test]
    #[should_panic(expected = "share a register")]
    fn workspace_rejects_aliased_pairs() {
        let mut g: TaskGraph<'_, ()> = TaskGraph::new();
        let a = g.declare_dims("a", &[16], BufClass::Scratch);
        let t = g.declare_dims("t", &[4], BufClass::Pinned);
        let b = g.declare_dims("b", &[8], BufClass::Scratch);
        let first = g.node(NodeSpec::new("first").writes(&[a]), |_, _| {});
        assert_eq!(g.deps(first), &[] as &[NodeId]);
        g.node(NodeSpec::new("mid").reads(&[a]).writes(&[t]), |_, _| {});
        g.node(NodeSpec::new("last").reads(&[t]).writes(&[b]), |_, _| {});
        // b's only accessor strictly follows both of a's -> aliased.
        let plan = g.plan();
        assert_eq!(plan.register_of(a), plan.register_of(b));
        let mut ws = Workspace::new(&plan);
        ws.bufs_mut([a, b]);
    }

    #[test]
    fn native_wave_execution_matches_serial_bitwise() {
        use micdnn_tensor::Mat;
        // Four independent colmean-style reductions: native execute() runs
        // them in declaration order, computing run_serial's bits.
        struct S {
            src: Mat,
            outs: [Vec<f32>; 4],
        }
        impl NodeState for S {
            type At<'a> = S;
        }
        let build = |g: &mut TaskGraph<'_, S>| {
            let src = g.declare_dims("src", &[64 * 32], BufClass::External);
            for i in 0..4 {
                let out = g.declare_dims("out", &[32], BufClass::Pinned);
                g.node(
                    NodeSpec::new("colmean")
                        .reads(&[src])
                        .writes(&[out])
                        .ops(|be, _| vec![be.reduce_cost(64, 32)]),
                    move |ctx, s: &mut S| {
                        let v = s.src.view();
                        ctx.colmean(v, &mut s.outs[i]);
                    },
                );
            }
        };
        let mk_state = || S {
            src: Mat::from_fn(64, 32, |r, c| (r * 31 + c) as f32 / 7.0),
            outs: std::array::from_fn(|_| vec![0.0f32; 32]),
        };
        let ctx = ExecCtx::native(OptLevel::Improved, 0);

        let mut serial_state = mk_state();
        let mut g1: TaskGraph<'_, S> = TaskGraph::new();
        build(&mut g1);
        g1.run_serial(&ctx, &mut serial_state);

        let mut wave_state = mk_state();
        let mut g2: TaskGraph<'_, S> = TaskGraph::new();
        build(&mut g2);
        g2.execute(&ctx, &mut wave_state);

        for i in 0..4 {
            assert_eq!(serial_state.outs[i], wave_state.outs[i], "node {i}");
        }
    }

    /// A context that checks ops in release builds too.
    fn verifying() -> ExecCtx {
        ExecCtx::native(OptLevel::Improved, 0).with_verify()
    }

    #[test]
    #[should_panic(
        expected = "node `undeclared` charged other ops than it declares (NodeSpec::ops) \
                               at 8 rows: op 0 charged Some("
    )]
    fn a_node_charging_undeclared_ops_fails_its_check() {
        let mut g: TaskGraph<'_, Vec<f32>> = TaskGraph::new();
        g.node(NodeSpec::new("undeclared"), |ctx, s| ctx.scale(2.0, s));
        g.run_serial(&verifying(), &mut vec![1.0f32; 8]);
    }

    #[test]
    #[should_panic(
        expected = "node `short` charged other ops than it declares (NodeSpec::ops) at 8 \
                               rows: op 1 charged Some("
    )]
    fn a_mis_declared_node_names_itself_and_the_first_differing_op() {
        let mut g: TaskGraph<'_, Vec<f32>> = TaskGraph::new();
        g.node(scaling("short"), |ctx, s: &mut Vec<f32>| {
            ctx.scale(2.0, s);
            ctx.scale(0.5, s);
        });
        g.run_serial(&verifying(), &mut vec![1.0f32; 8]);
    }

    /// An outer graph whose one node runs an inner graph of one scaling node,
    /// which declares its op when `inner_declared`.
    fn nested(inner_declared: bool) -> TaskGraph<'static, Vec<f32>> {
        let mut outer: TaskGraph<'_, Vec<f32>> = TaskGraph::new();
        outer.node(scaling("outer"), move |ctx, s: &mut Vec<f32>| {
            let mut inner: TaskGraph<'_, Vec<f32>> = TaskGraph::new();
            let spec = match inner_declared {
                true => scaling("inner"),
                false => NodeSpec::new("inner"),
            };
            inner.node(spec, |ctx, s| ctx.scale(2.0, s));
            inner.run_serial(ctx, s);
        });
        outer
    }

    #[test]
    fn ops_are_checked_inside_a_recording_and_a_node() {
        // The inner node's op counts for the outer node too, and the
        // recording around the run still sees it once.
        let ctx = verifying();
        let mut state = vec![1.0f32; 8];
        let mut g = nested(true);
        ctx.start_recording();
        g.run_serial(&ctx, &mut state);
        let recorded = ctx.stop_recording();
        assert_eq!(recorded, g.declared_ops(&ctx.backend(), 8));
        assert_eq!(recorded.len(), 1);
        assert!(g.ops_checked[0]);
    }

    #[test]
    #[should_panic(
        expected = "node `inner` charged other ops than it declares (NodeSpec::ops) at 8 \
                               rows: op 0 charged Some("
    )]
    fn an_undeclared_node_of_a_graph_inside_a_node_fails() {
        let ctx = verifying();
        ctx.start_recording();
        nested(false).run_serial(&ctx, &mut vec![1.0f32; 8]);
    }

    #[test]
    fn run_serial_charges_ops_directly() {
        let ctx = ctx();
        let mut g: TaskGraph<'_, Vec<f32>> = TaskGraph::new();
        let buf = g.declare_dims("buf", &[10_000], BufClass::External);
        g.node(
            scaling("scale").reads(&[buf]).writes(&[buf]),
            |ctx, s: &mut Vec<f32>| ctx.scale(2.0, s),
        );
        let mut state = vec![1.0f32; 10_000];
        g.run_serial(&ctx, &mut state);
        assert!(ctx.sim_time() > 0.0, "serial runs charge the clock per op");
        assert!((state[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn simulated_execute_traces_nodes_on_lanes() {
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 0).with_trace();
        let mut g: TaskGraph<'_, Vec<f32>> = TaskGraph::new();
        let a = g.declare_dims("a", &[200_000], BufClass::Scratch);
        let b = g.declare_dims("b", &[200_000], BufClass::Scratch);
        g.node(scaling("left").writes(&[a]), |ctx, s: &mut Vec<f32>| {
            ctx.scale(1.5, s)
        });
        g.node(scaling("right").writes(&[b]), |ctx, s: &mut Vec<f32>| {
            ctx.scale(0.5, s)
        });
        let mut state = vec![1.0f32; 200_000];
        g.execute(&ctx, &mut state);
        let nodes: Vec<_> = ctx
            .trace()
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::Node)
            .collect();
        assert_eq!(nodes.len(), 2);
        // Independent nodes overlap in time, so they land on distinct lanes.
        assert_eq!(nodes[0].lane, 0);
        assert_eq!(nodes[1].lane, 1);
        assert_eq!(nodes[0].label, "left");
    }

    #[test]
    fn ae_and_cd_scratches_hold_exactly_their_plans_peak() {
        use crate::multidev::ShardedStep;
        use crate::{
            ae_step_graph, AeConfig, AeScratch, Optimizer, Rbm, RbmConfig, RbmScratch, Rule,
            Schedule, SparseAutoencoder,
        };
        use micdnn_tensor::Mat;
        /// The kept arena holds its plan's peak, no more and no less.
        fn holds_peak<K, S: NodeState>(kept: &KeptGraph<K, S>, what: &str) {
            let (_, graph, arena) = kept.0.as_ref().expect("graph kept");
            assert_eq!(arena.elems(), graph.plan().peak_elems(), "{what}");
        }
        let ctx = ExecCtx::native(OptLevel::Improved, 5);
        let x = Mat::from_fn(6, 12, |r, c| ((r * 12 + c) % 7) as f32 / 7.0);

        // The AE step in its three update modes, and its block form.
        let cfg = AeConfig::new(12, 5);
        let mut ae = SparseAutoencoder::new(cfg, 1);
        let slots = SparseAutoencoder::optimizer_slots(&cfg);
        let mut opt = Optimizer::new(Rule::Momentum { mu: 0.9 }, Schedule::Constant(0.1), &slots);
        let mut s = AeScratch::new(&cfg, 8);
        ae.cost_and_grad(&ctx, x.view(), &mut s);
        holds_peak(&s.step, "AE gradients only");
        ae.train_batch(&ctx, x.view(), &mut s, 0.1);
        holds_peak(&s.step, "AE SGD");
        ae_step_graph(&mut ae, &ctx, x.view(), &mut s, 0.1, Some(&mut opt));
        holds_peak(&s.step, "AE optimizer");
        holds_peak(&ae.block_scratch(3).step, "AE block form");

        // CD-1, CD-3 and PCD; the PCD chain is the scratch's own buffer.
        for (k, pcd) in [(1, false), (3, false), (1, true)] {
            let cfg = RbmConfig::new(12, 5).with_cd_steps(k);
            let (mut rbm, mut s) = (Rbm::new(cfg, 2), RbmScratch::new(&cfg, 8));
            if pcd {
                rbm.pcd_step(&ctx, x.view(), &mut s, 0.1);
            } else {
                rbm.cd_step(&ctx, x.view(), &mut s, 0.1);
            }
            holds_peak(&s.step, &format!("CD-{k} pcd {pcd}"));
            // CD-1's hidden samples die before its reconstruction hiddens
            // are born: one register holds both.
            let shared = s.step.buf("h0_sample").as_ptr() == s.step.buf("h1_prob").as_ptr();
            assert_eq!(shared, (k, pcd) == (1, false), "CD-{k} pcd {pcd}");
        }
    }
}
