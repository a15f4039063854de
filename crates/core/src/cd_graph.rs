//! The paper's Fig. 6: one CD-k or PCD update built as a declared-buffer
//! dependency graph.
//!
//! Node layouts (names follow the figure; `V1` is the clamped data,
//! per-op nodes are finer than the figure's boxes):
//!
//! ```text
//! CD-1                                PCD
//! H1 = p(h|V1)      (root)            H1 = p(h|V1)     (root)
//! S1 = sample(H1)   (stochastic)      V2 = p(v|H1)     (needs H1)
//! V2 = p(v|S1)      (needs S1)        RE = recon error (needs V2)
//! RE = recon error  (needs V2)        HF = p(h|chain)  (root)
//! H2 = p(h|V2)      (needs V2)        SF = sample(HF)  (stochastic)
//!                                     VF = p(v|SF)     (into V2's buffer, after RE)
//!                                     SV = sample(VF)  (the new chain; stochastic)
//!                                     H2 = p(h|chain)  (needs SV)
//! POS  = H1'V1 statistics             (needs H1) — concurrent with the chain
//! NEG  = H2'V2 (CD) / H2'chain (PCD)  (needs H2)
//! VPOS/VNEG/HPOS/HNEG bias stats      (mutually independent)
//! Vw, Vb, Vc parameter updates        (each needs only its statistics)
//! ```
//!
//! CD-k repeats the `sample → V2 → H2` block `k` times. PCD continues a
//! persistent chain of fantasy particles instead of restarting from the
//! data: the chain is an `External` buffer that [`Rbm::pcd_step`] seeds
//! from the first batch, and `VF` reuses `v1_prob` (dead after `RE`), so
//! `SV` samples the new chain straight out of it. Both recipes are short
//! sequences over one emitter per node kind (prop-up, prop-down, sample,
//! recon error) and share the statistics and update nodes.
//!
//! The same builders back both execution styles: [`Rbm::cd_step`] and
//! [`Rbm::pcd_step`] run them with `TaskGraph::run_serial` (declaration
//! order *is* the original serial op order, so results, sampling streams,
//! recorded op streams and profiling spans are unchanged), while
//! [`cd_step_graph`] runs CD-k with [`TaskGraph::execute`], advancing the
//! simulated clock by the critical path — quantifying what the paper's
//! "compute Vb, H2 and C in parallel" optimization buys. All three build
//! the graph once, at the scratch's row capacity, keep it in [`RbmScratch`]
//! with the arena its plan lays out, and bind each batch through a
//! [`CdState`], whose rows the node bodies slice to — a ragged tail
//! included. [`Rbm::reconstruction_error`] runs `H1`, `V2` and `RE`, which
//! open PCD, as a forward graph over the model bound shared (`NetRef`);
//! only `Vw`, `Vb` and `Vc` take it exclusively. CD-k's *block form* is what
//! [`crate::DataParallel`] runs per canonical block: the six statistics
//! are `Partial` sums, sampling nodes draw from master-reserved streams at
//! the block's global element offset, and RE leaves the raw squared error.
//!
//! Every declared buffer but the batch, the parameters and the chain lives
//! in that arena. For CD-1 the hidden *samples* (`S1`'s output) are dead
//! before the reconstruction hiddens (`H2`'s output) are born, so
//! [`TaskGraph::plan`] folds the two `b x h` buffers into one register.

use crate::exec::ExecCtx;
use crate::graph::{BufClass, BufId, GraphRun, NetRef, NodeSpec, NodeState, TaskGraph, Workspace};
use crate::layers::StackBuilder;
use crate::multidev::{split_at_syncs, BlockGraph, Segment};
use crate::rbm::{Rbm, RbmConfig, RbmScratch};
use micdnn_kernels::rng::StreamId;
use micdnn_kernels::Backend;
use micdnn_tensor::{Mat, MatView, MatViewMut};
use std::ops::Range;

/// Mutable state one CD graph run threads through its nodes.
pub struct CdState<'a> {
    pub(crate) rbm: NetRef<'a, Rbm>,
    /// The arena every declared buffer but the batch, the parameters and
    /// the chain lives in.
    pub(crate) ws: &'a mut Workspace,
    /// PCD's persistent fantasy particles, owned by the scratch.
    pub(crate) chain: &'a mut Mat,
    pub(crate) v0: MatView<'a>,
    pub(crate) lr: f32,
    pub(crate) recon_err: f64,
    /// In a block run: the block's first row in the batch and the step's
    /// master-reserved sampling streams, one per sampling node.
    pub(crate) block: Option<(usize, &'a [StreamId])>,
}

impl<'a> CdState<'a> {
    /// State for one step on the batch `v0` over the arena `ws` and the
    /// chain `chain`, at learning rate `lr`.
    pub(crate) fn new(
        rbm: NetRef<'a, Rbm>,
        ws: &'a mut Workspace,
        chain: &'a mut Mat,
        v0: MatView<'a>,
        lr: f32,
    ) -> Self {
        CdState {
            rbm,
            ws,
            chain,
            v0,
            lr,
            recon_err: 0.0,
            block: None,
        }
    }

    /// The batch's rows of the matrix `src` and of `dst`, a different one
    /// the node writes: the batch, the chain, or the arena buffers their
    /// ids name.
    fn rows(&mut self, src: Operand, dst: Operand) -> (&Rbm, MatView<'_>, MatViewMut<'_>) {
        let b = self.v0.rows();
        let (x, y): (&[f32], &mut [f32]) = match (src.0, dst.0) {
            (_, Act::Chain) => (self.ws.buf(src.1), self.chain.as_mut_slice()),
            (Act::V0, _) => (self.v0.as_slice(), self.ws.buf_mut(dst.1)),
            (Act::Chain, _) => (self.chain.as_slice(), self.ws.buf_mut(dst.1)),
            _ => {
                let [x, y] = self.ws.bufs_mut([src.1, dst.1]);
                (x, y)
            }
        };
        let x = MatView::prefix(x, b, src.2);
        (self.rbm.get(), x, MatViewMut::prefix(y, b, dst.2))
    }
}

// All CD buffers share one registry slot: the chain is one RBM layer.
const RBM: usize = 0;

/// The batch-shaped matrices CD nodes pass between each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Act {
    /// The clamped batch.
    V0,
    H0Prob,
    H0Sample,
    V1Prob,
    H1Prob,
    /// PCD's persistent fantasy particles.
    Chain,
}

/// A batch-shaped matrix of a recipe: which one, its buffer, its width.
type Operand = (Act, BufId, usize);

/// Where an update node finds the parameter tensor it moves.
type ParamOf = fn(&mut Rbm) -> &mut [f32];

impl NodeState for CdState<'_> {
    type At<'a> = CdState<'a>;

    fn rows(state: &CdState<'_>) -> usize {
        state.v0.rows()
    }
}

/// The builder of a CD-family graph.
type CdBuilder<'a> = StackBuilder<CdState<'a>>;

/// A CD-family step under construction. One emitter per node kind, each
/// taking its source and destination matrices.
struct Recipe<'a> {
    sb: CdBuilder<'a>,
    /// Building the block form (see [`cd_graph`]).
    block: bool,
    /// `(n_visible, n_hidden)`.
    dims: (usize, usize),
}

impl<'a> Recipe<'a> {
    /// Declares the step's buffers in their historical order: the batch,
    /// the parameters, the four chain temporaries (scratch, so the planner
    /// may alias them), then the statistics — pinned, as momentum reads
    /// them after the run (the block form's are partial sums) — and, for
    /// PCD, the persistent chain; samplers draw through one `gibbs` cursor.
    /// A forward-only `sb` declares no temporary but `h0_prob` and `v1_prob`.
    fn new(mut sb: CdBuilder<'a>, v: usize, h: usize, b: usize, pcd: bool, block: bool) -> Self {
        use BufClass::{External, Partial, Pinned, Scratch};
        let (stats, forward) = (if block { Partial } else { Pinned }, sb.is_forward_only());
        sb.declare_rng_cursor("gibbs");
        sb.bind_global_dims("v0", "v0", &[b, v], External);
        for (name, dims, class) in [
            ("w", &[h, v][..], External),
            ("b_vis", &[v], External),
            ("c_hid", &[h], External),
            ("h0_prob", &[b, h], Scratch),
            ("h0_sample", &[b, h], Scratch),
            ("v1_prob", &[b, v], Scratch),
            ("h1_prob", &[b, h], Scratch),
            ("pos_stats", &[h, v], stats),
            ("neg_stats", &[h, v], stats),
            ("vis_pos", &[v], stats),
            ("vis_neg", &[v], stats),
            ("hid_pos", &[h], stats),
            ("hid_neg", &[h], stats),
        ] {
            if !forward || matches!(name, "w" | "b_vis" | "c_hid" | "h0_prob" | "v1_prob") {
                sb.bind_dims(RBM, name, name, dims, class);
            }
        }
        if pcd {
            sb.bind_dims(RBM, "chain", "chain", &[b, v], External);
        }
        let dims = (v, h);
        Recipe { sb, block, dims }
    }

    /// The matrix `act` as an [`Operand`].
    fn id(&self, act: Act) -> Operand {
        let (v, h) = self.dims;
        let (key, width) = match act {
            Act::V0 => return (act, self.sb.global("v0"), v),
            Act::H0Prob => ("h0_prob", h),
            Act::H0Sample => ("h0_sample", h),
            Act::V1Prob => ("v1_prob", v),
            Act::H1Prob => ("h1_prob", h),
            Act::Chain => ("chain", v),
        };
        (act, self.sb.buf(RBM, key), width)
    }

    /// Handles of the buffers bound under `keys`.
    fn bufs<const N: usize>(&self, keys: [&str; N]) -> [BufId; N] {
        keys.map(|k| self.sb.buf(RBM, k))
    }

    /// `dst = p(h | src)` (paper eq. 9).
    fn prop_up(&mut self, name: &'static str, phase: &'static str, src: Act, dst: Act) {
        let [w, c_hid] = self.bufs(["w", "c_hid"]);
        let (src, dst) = (self.id(src), self.id(dst));
        let (k, n) = (src.2, dst.2);
        let spec = NodeSpec::new(name)
            .reads(&[src.1, w, c_hid])
            .writes(&[dst.1])
            .phase(phase)
            .ops(move |be, b| vec![be.gemm_cost(b, n, k), be.bias_sigmoid_cost(b * n)]);
        self.sb.node(spec, move |ctx, s: &mut CdState<'_>| {
            let (rbm, x, mut out) = s.rows(src, dst);
            ctx.gemm(1.0, x, false, rbm.w.view(), true, 0.0, &mut out);
            ctx.bias_sigmoid_rows(&rbm.c_hid, &mut out);
        });
    }

    /// `dst = p(v | src)` (paper eq. 8).
    fn prop_down(&mut self, name: &'static str, src: Act, dst: Act) {
        let [w, b_vis] = self.bufs(["w", "b_vis"]);
        let (src, dst) = (self.id(src), self.id(dst));
        let (k, n) = (src.2, dst.2);
        let spec = NodeSpec::new(name)
            .reads(&[src.1, w, b_vis])
            .writes(&[dst.1])
            .phase("backward")
            .ops(move |be, b| vec![be.gemm_cost(b, n, k), be.bias_sigmoid_cost(b * n)]);
        self.sb.node(spec, move |ctx, s: &mut CdState<'_>| {
            let (rbm, h, mut out) = s.rows(src, dst);
            ctx.gemm(1.0, h, false, rbm.w.view(), false, 0.0, &mut out);
            ctx.bias_sigmoid_rows(&rbm.b_vis, &mut out);
        });
    }

    /// `dst ~ Bernoulli(src)`, the step's `nth` draw. Consumes the sampling
    /// stream, so it must stay in declaration order; a block run samples
    /// its rows of the batch's draw (see [`CdState::block`]).
    fn sample(&mut self, name: &'static str, phase: &'static str, nth: usize, src: Act, dst: Act) {
        let (src, dst) = (self.id(src), self.id(dst));
        let n = src.2;
        let spec = NodeSpec::new(name)
            .reads(&[src.1])
            .writes(&[dst.1])
            .stochastic()
            .cursor("gibbs")
            .phase(phase)
            .ops(move |be, b| vec![be.sample_cost(b * n)]);
        self.sb.node(spec, move |ctx, s: &mut CdState<'_>| {
            let (stream, row0) = match s.block {
                Some((row0, streams)) => (streams[nth], row0),
                None => (ctx.next_stream(), 0),
            };
            let (_, probs, mut out) = s.rows(src, dst);
            let base = (row0 * probs.cols()) as u64;
            ctx.bernoulli_at(stream, base, probs.as_slice(), out.as_mut_slice());
        });
    }

    /// Reconstruction error of `v1_prob` against the batch; writes a state
    /// scalar the buffer analysis cannot see, hence exclusive.
    fn recon_error(&mut self) {
        let ((_, v1, v), (_, v0, _)) = (self.id(Act::V1Prob), self.id(Act::V0));
        let spec = NodeSpec::new("RE")
            .reads(&[v1, v0])
            .exclusive()
            .phase("backward")
            .ops(move |be, b| vec![be.reduce_cost(b, v)]);
        let per_row = !self.block;
        self.sb.node(spec, move |ctx, s: &mut CdState<'_>| {
            let b = s.v0.rows();
            let err = ctx.frob_dist_sq(MatView::prefix(s.ws.buf(v1), b, v), s.v0);
            s.recon_err = if per_row { err / b as f64 } else { err };
        });
    }

    /// The forward pass that opens PCD: `H1`, `V2` from its probabilities, `RE`.
    fn reconstruct(&mut self) {
        self.prop_up("H1", "forward", Act::V0, Act::H0Prob);
        self.prop_down("V2", Act::H0Prob, Act::V1Prob);
        self.recon_error();
    }

    /// Closes the step: sufficient statistics over the negative-phase
    /// visibles `neg` (CD-k's reconstruction or PCD's chain) — pos = H0'V0
    /// and neg = H1'neg (probabilities, Hinton §3), then the four bias
    /// column means (the block form's are sums) — and the updates of paper
    /// eqs. 11–13, the figure's last rank: Vw, Vb and Vc, each needing only
    /// its statistics.
    fn finish(mut self, neg: Act) -> TaskGraph<'static, CdState<'a>> {
        let pcd = neg == Act::Chain;
        let [v0, h0_prob, h1_prob, neg_vis] =
            [Act::V0, Act::H0Prob, Act::H1Prob, neg].map(|a| self.id(a).1);
        let [pos_stats, neg_stats, vis_pos, vis_neg, hid_pos, hid_neg] = self.bufs([
            "pos_stats",
            "neg_stats",
            "vis_pos",
            "vis_neg",
            "hid_pos",
            "hid_neg",
        ]);
        let [w, b_vis, c_hid] = self.bufs(["w", "b_vis", "c_hid"]);
        let ((v, h), sb, sum) = (self.dims, &mut self.sb, self.block);
        let stat = |name| NodeSpec::new(name).phase("backward");
        let product = move |be: &Backend, b| vec![be.gemm_cost(h, v, b)];
        let col_stat = |width: usize| move |be: &Backend, b| vec![be.reduce_cost(b, width)];
        let alpha = move |b: usize| if sum { 1.0 } else { 1.0 / b as f32 };
        sb.node(
            stat("POS")
                .reads(&[h0_prob, v0])
                .writes(&[pos_stats])
                .ops(product),
            move |ctx, s: &mut CdState<'_>| {
                let b = s.v0.rows();
                let [h0, out] = s.ws.bufs_mut([h0_prob, pos_stats]);
                let (h0, mut out) = (MatView::prefix(h0, b, h), MatViewMut::new(out, h, v));
                ctx.gemm(alpha(b), h0, true, s.v0, false, 0.0, &mut out);
            },
        );
        sb.node(
            stat("NEG")
                .reads(&[h1_prob, neg_vis])
                .writes(&[neg_stats])
                .ops(product),
            move |ctx, s: &mut CdState<'_>| {
                let b = s.v0.rows();
                let (h1, neg, out) = if pcd {
                    let [h1, out] = s.ws.bufs_mut([h1_prob, neg_stats]);
                    (h1, s.chain.as_slice(), out)
                } else {
                    let [h1, neg, out] = s.ws.bufs_mut([h1_prob, neg_vis, neg_stats]);
                    (h1, &*neg, out)
                };
                let (h1, neg) = (MatView::prefix(h1, b, h), MatView::prefix(neg, b, v));
                let mut out = MatViewMut::new(out, h, v);
                ctx.gemm(alpha(b), h1, true, neg, false, 0.0, &mut out);
            },
        );
        sb.node(
            stat("VPOS")
                .reads(&[v0])
                .writes(&[vis_pos])
                .ops(col_stat(v)),
            move |ctx, s: &mut CdState<'_>| ctx.col_stat(sum, s.v0, s.ws.buf_mut(vis_pos)),
        );
        sb.node(
            stat("VNEG")
                .reads(&[neg_vis])
                .writes(&[vis_neg])
                .ops(col_stat(v)),
            move |ctx, s: &mut CdState<'_>| {
                let b = s.v0.rows();
                let (neg, out) = if pcd {
                    (s.chain.as_slice(), s.ws.buf_mut(vis_neg))
                } else {
                    let [neg, out] = s.ws.bufs_mut([neg_vis, vis_neg]);
                    (&*neg, out)
                };
                ctx.col_stat(sum, MatView::prefix(neg, b, v), out);
            },
        );
        for (name, src, dst) in [("HPOS", h0_prob, hid_pos), ("HNEG", h1_prob, hid_neg)] {
            sb.node(
                stat(name).reads(&[src]).writes(&[dst]).ops(col_stat(h)),
                move |ctx, s: &mut CdState<'_>| {
                    let [hid, out] = s.ws.bufs_mut([src, dst]);
                    ctx.col_stat(sum, MatView::prefix(hid, s.v0.rows(), h), out);
                },
            );
        }

        // Vw, Vb, Vc: each parameter tensor moves by its `pos - neg`.
        let updates: [(_, _, _, _, _, ParamOf); 3] = [
            ("Vw", pos_stats, neg_stats, w, h * v, |rbm| {
                rbm.w.as_mut_slice()
            }),
            ("Vb", vis_pos, vis_neg, b_vis, v, |rbm| &mut rbm.b_vis),
            ("Vc", hid_pos, hid_neg, c_hid, h, |rbm| &mut rbm.c_hid),
        ];
        for (name, pos, neg, id, n, param) in updates {
            let spec = NodeSpec::new(name)
                .reads(&[pos, neg, id])
                .writes(&[id])
                .phase("update")
                .ops(move |be, _| vec![be.cd_update_cost(n)]);
            sb.node(spec, move |ctx, s: &mut CdState<'_>| {
                let p = param(s.rbm.get_mut());
                ctx.cd_update(s.lr, s.ws.buf(pos), s.ws.buf(neg), p);
            });
        }
        self.sb.finish()
    }
}

/// Builds the CD-k step for batches of up to `b` rows, whose declaration
/// order is exactly the serial op order of the classic `cd_step` loop.
/// Every declared buffer but the batch and the parameters lives in the
/// [`Workspace`] the graph's plan lays out, which an [`RbmScratch`] keeps
/// beside the graph; node bodies reach it through the buffer ids captured
/// here.
///
/// Public so integration tests can run every shipped graph shape through
/// [`TaskGraph::verify`]; training entry points use it via
/// [`cd_step_graph`] and [`Rbm::cd_step`].
pub fn build_cd_graph<'a>(
    n_visible: usize,
    n_hidden: usize,
    b: usize,
    cd_steps: usize,
) -> TaskGraph<'static, CdState<'a>> {
    cd_graph(n_visible, n_hidden, b, cd_steps, false)
}

/// [`build_cd_graph`], or with `block` its block form (module docs).
pub(crate) fn cd_graph<'a>(
    n_visible: usize,
    n_hidden: usize,
    b: usize,
    cd_steps: usize,
    block: bool,
) -> TaskGraph<'static, CdState<'a>> {
    use Act::{H0Prob, H0Sample, H1Prob, V1Prob, V0};
    assert!(cd_steps >= 1, "CD needs at least one step");
    let mut r = Recipe::new(StackBuilder::new(), n_visible, n_hidden, b, false, block);
    r.prop_up("H1", "forward", V0, H0Prob);
    r.sample("S1", "forward", 0, H0Prob, H0Sample);
    for step in 0..cd_steps {
        if step > 0 {
            r.sample("Sk", "backward", step, H1Prob, H0Sample);
        }
        r.prop_down("V2", H0Sample, V1Prob);
        if step == 0 {
            r.recon_error();
        }
        r.prop_up("H2", "backward", V1Prob, H1Prob);
    }
    r.finish(V1Prob)
}

/// Builds the PCD step for batches of up to `b` rows: the CD-k statistics
/// and updates over a persistent chain of fantasy particles instead of the
/// reconstruction, in the serial op order of the original hand-rolled
/// `pcd_step`. The chain is the one `External` buffer an [`RbmScratch`]
/// owns itself, whose particles [`Rbm::pcd_step`] seeds from the first
/// batch it sees.
///
/// Public, like [`build_cd_graph`], so the verifier and `micdnn verify`
/// can certify it.
pub fn build_pcd_graph<'a>(
    n_visible: usize,
    n_hidden: usize,
    b: usize,
) -> TaskGraph<'static, CdState<'a>> {
    use Act::{Chain, H0Sample, H1Prob, V1Prob};
    let mut r = Recipe::new(StackBuilder::new(), n_visible, n_hidden, b, true, false);
    r.reconstruct();
    // One Gibbs sweep of the chain, then its hiddens for the statistics.
    r.prop_up("HF", "backward", Chain, H1Prob);
    r.sample("SF", "backward", 0, H1Prob, H0Sample);
    r.prop_down("VF", H0Sample, V1Prob);
    r.sample("SV", "backward", 1, V1Prob, Chain);
    r.prop_up("H2", "backward", Chain, H1Prob);
    r.finish(Chain)
}

/// The forward pass alone for batches of `b` rows, over the model borrowed
/// shared: `H1`, `V2` and `RE`, the three nodes that open the PCD step.
pub(crate) fn forward_graph<'a>(v: usize, h: usize, b: usize) -> TaskGraph<'static, CdState<'a>> {
    let mut r = Recipe::new(StackBuilder::forward_only(), v, h, b, false, false);
    r.reconstruct();
    r.sb.finish()
}

impl RbmScratch {
    /// The step graph for `cfg` — PCD with `pcd`, the block form with
    /// `block` — with its arena and the chain, built at this capacity
    /// unless already kept.
    pub(crate) fn prepare(
        &mut self,
        cfg: RbmConfig,
        pcd: bool,
        block: bool,
    ) -> (
        &mut TaskGraph<'static, CdState<'static>>,
        &mut Workspace,
        &mut Mat,
    ) {
        let (v, h, cap) = (cfg.n_visible, cfg.n_hidden, self.capacity());
        let (g, ws) = self.step.prepare((cfg, pcd, block), || {
            if pcd {
                build_pcd_graph(v, h, cap)
            } else {
                cd_graph(v, h, cap, cfg.cd_steps, block)
            }
        });
        (g, ws, &mut self.pcd_chain)
    }
}

impl BlockGraph for Rbm {
    fn split(&self) -> (Vec<Segment>, usize) {
        let cfg = self.config();
        let g = cd_graph(cfg.n_visible, cfg.n_hidden, 1, cfg.cd_steps, true);
        split_at_syncs(&g)
    }

    fn run(
        rbm: NetRef<'_, Self>,
        ctx: &ExecCtx,
        nodes: Range<usize>,
        scratch: &mut RbmScratch,
        x: MatView<'_>,
        lr: f32,
        block: Option<(usize, &[StreamId], &RbmScratch)>,
    ) -> f64 {
        let (g, ws, chain) = scratch.prepare(*rbm.get().config(), false, true);
        let mut state = CdState {
            block: block.map(|(row0, streams, _)| (row0, streams)),
            ..CdState::new(rbm, ws, chain, x, lr)
        };
        g.run_range(ctx, &mut state, nodes);
        state.recon_err
    }

    fn partial_mut<'s>(scratch: &'s mut RbmScratch, name: &str) -> &'s mut [f32] {
        scratch.step.buf_mut(name)
    }

    fn arena_elems(scratch: &RbmScratch) -> usize {
        scratch.step.arena_elems()
    }
}

/// One CD-k update scheduled as the Fig. 6 dependency graph.
///
/// Bit-identical to [`Rbm::cd_step`] given the same sampler state — both
/// run the same graph, kept in `scratch`, this one under the critical-path
/// schedule. Returns the reconstruction error and the schedule.
pub fn cd_step_graph(
    rbm: &mut Rbm,
    ctx: &ExecCtx,
    v0: MatView<'_>,
    scratch: &mut RbmScratch,
    learning_rate: f32,
) -> (f64, GraphRun) {
    let (err, run) = run_cd_step(rbm, ctx, v0, scratch, learning_rate, false, true);
    (err, run.expect("wave runs return their schedule"))
}

/// Runs one CD-k (PCD with `pcd`) step on `v0` through the scratch's graph,
/// built at its capacity on the first step: in declaration order, or with
/// `wave` under [`TaskGraph::execute`]'s schedule, which it then returns.
pub(crate) fn run_cd_step(
    rbm: &mut Rbm,
    ctx: &ExecCtx,
    v0: MatView<'_>,
    scratch: &mut RbmScratch,
    lr: f32,
    pcd: bool,
    wave: bool,
) -> (f64, Option<GraphRun>) {
    assert!(v0.rows() > 0, "empty batch");
    assert!(
        v0.rows() <= scratch.capacity(),
        "batch exceeds scratch capacity"
    );
    if pcd {
        scratch.seed_chain(v0);
    }
    let (g, ws, chain) = scratch.prepare(*rbm.config(), pcd, false);
    let mut state = CdState::new(NetRef::Exclusive(rbm), ws, chain, v0, lr);
    let run = wave.then(|| g.execute(ctx, &mut state));
    if !wave {
        g.run_serial(ctx, &mut state);
    }
    (state.recon_err, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecCtx, OptLevel};
    use crate::rbm::RbmConfig;
    use micdnn_sim::Platform;
    use micdnn_tensor::Mat;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Structured binary data (two alternating prototypes + flip noise) so
    /// CD training has something to learn.
    fn batch(b: usize, v: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        Mat::from_fn(b, v, |r, c| {
            let proto = if r % 2 == 0 {
                (c % 2) as f32
            } else {
                ((c + 1) % 2) as f32
            };
            if rng.gen_bool(0.05) {
                1.0 - proto
            } else {
                proto
            }
        })
    }

    #[test]
    fn graph_step_matches_serial_step_bitwise() {
        let cfg = RbmConfig::new(14, 9);
        let v = batch(20, 14, 1);

        let mut rbm_serial = Rbm::new(cfg, 2);
        let ctx_serial = ExecCtx::native(OptLevel::Improved, 3);
        let mut s_serial = RbmScratch::new(&cfg, 20);

        let mut rbm_graph = Rbm::new(cfg, 2);
        let ctx_graph = ExecCtx::native(OptLevel::Improved, 3);
        let mut s_graph = RbmScratch::new(&cfg, 20);

        for _ in 0..5 {
            let e1 = rbm_serial.cd_step(&ctx_serial, v.view(), &mut s_serial, 0.1);
            let (e2, _) = cd_step_graph(&mut rbm_graph, &ctx_graph, v.view(), &mut s_graph, 0.1);
            assert_eq!(e1, e2, "reconstruction errors diverged");
        }
        assert_eq!(rbm_serial.w.as_slice(), rbm_graph.w.as_slice());
        assert_eq!(rbm_serial.b_vis, rbm_graph.b_vis);
        assert_eq!(rbm_serial.c_hid, rbm_graph.c_hid);
    }

    #[test]
    fn cdk_graph_matches_serial_step_bitwise() {
        let cfg = RbmConfig::new(12, 7).with_cd_steps(3);
        let v = batch(16, 12, 21);

        let mut rbm_serial = Rbm::new(cfg, 22);
        let ctx_serial = ExecCtx::native(OptLevel::Improved, 23);
        let mut s_serial = RbmScratch::new(&cfg, 16);

        let mut rbm_graph = Rbm::new(cfg, 22);
        let ctx_graph = ExecCtx::native(OptLevel::Improved, 23);
        let mut s_graph = RbmScratch::new(&cfg, 16);

        for _ in 0..5 {
            let e1 = rbm_serial.cd_step(&ctx_serial, v.view(), &mut s_serial, 0.1);
            let (e2, _) = cd_step_graph(&mut rbm_graph, &ctx_graph, v.view(), &mut s_graph, 0.1);
            assert_eq!(e1, e2, "reconstruction errors diverged");
        }
        assert_eq!(rbm_serial.w.as_slice(), rbm_graph.w.as_slice());
        assert_eq!(rbm_serial.b_vis, rbm_graph.b_vis);
        assert_eq!(rbm_serial.c_hid, rbm_graph.c_hid);
        // Same sampler cursor after either path: stream order preserved.
        assert_eq!(ctx_serial.rng_state(), ctx_graph.rng_state());
    }

    #[test]
    fn pcd_graph_execute_matches_run_serial_bitwise() {
        // A ragged first batch seeds only part of the chain (the remaining
        // particles start at zero), full batches then advance all of it,
        // and a ragged batch again advances only its first rows.
        let cfg = RbmConfig::new(12, 7);
        let data = batch(40, 12, 31);
        let bounds = [(0, 7), (7, 17), (17, 27), (27, 37), (37, 40), (0, 10)];

        let mut rbm_serial = Rbm::new(cfg, 32);
        let ctx_serial = ExecCtx::native(OptLevel::Improved, 33);
        let mut s_serial = RbmScratch::new(&cfg, 10);

        let mut rbm_graph = Rbm::new(cfg, 32);
        let ctx_graph = ExecCtx::native(OptLevel::Improved, 33);
        let mut s_graph = RbmScratch::new(&cfg, 10);

        for (lo, hi) in bounds {
            let v = data.rows_range(lo, hi);
            let e1 = rbm_serial.pcd_step(&ctx_serial, v, &mut s_serial, 0.1);
            s_graph.seed_chain(v);
            let mut g = build_pcd_graph(12, 7, hi - lo);
            let mut ws = Workspace::new(&g.plan());
            let chain = &mut s_graph.pcd_chain;
            let rbm = NetRef::Exclusive(&mut rbm_graph);
            let mut state = CdState::new(rbm, &mut ws, chain, v, 0.1);
            g.execute(&ctx_graph, &mut state);
            assert_eq!(e1.to_bits(), state.recon_err.to_bits(), "rows {lo}..{hi}");
        }
        assert_eq!(rbm_serial.w.as_slice(), rbm_graph.w.as_slice());
        assert_eq!(rbm_serial.b_vis, rbm_graph.b_vis);
        assert_eq!(rbm_serial.c_hid, rbm_graph.c_hid);
        assert_eq!(s_serial.pcd_chain.as_slice(), s_graph.pcd_chain.as_slice());
        assert_eq!(ctx_serial.rng_state(), ctx_graph.rng_state());
    }

    #[test]
    fn forward_graph_verifies_clean() {
        let report = forward_graph(784, 500, 100).verify();
        assert!(report.errors.is_empty(), "{report:?}");
        assert!(report.warnings.is_empty(), "{report:?}");
    }

    #[test]
    fn critical_path_beats_serial_schedule() {
        let cfg = RbmConfig::new(256, 512);
        let mut rbm = Rbm::new(cfg, 4);
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 5);
        let mut scratch = RbmScratch::new(&cfg, 64);
        let v = batch(64, 256, 6);
        let (_, run) = cd_step_graph(&mut rbm, &ctx, v.view(), &mut scratch, 0.1);
        assert!(
            run.critical_path < run.serial_time,
            "graph gained nothing: cp {} vs serial {}",
            run.critical_path,
            run.serial_time
        );
        assert!(
            run.speedup() > 1.0 && run.speedup() < 3.0,
            "speedup {}",
            run.speedup()
        );
        assert!((ctx.sim_time() - run.critical_path).abs() < 1e-9);
    }

    #[test]
    fn graph_training_converges() {
        let cfg = RbmConfig::new(16, 10);
        let mut rbm = Rbm::new(cfg, 7);
        let ctx = ExecCtx::native(OptLevel::Improved, 8);
        let mut scratch = RbmScratch::new(&cfg, 32);
        let v = batch(32, 16, 9);
        let mut first = 0.0;
        let mut last = 0.0;
        for i in 0..200 {
            let (e, _) = cd_step_graph(&mut rbm, &ctx, v.view(), &mut scratch, 0.1);
            if i == 0 {
                first = e;
            }
            last = e;
        }
        assert!(last < 0.7 * first, "{first} -> {last}");
    }

    #[test]
    fn planner_aliases_hidden_samples_with_recon_hiddens() {
        // The paper's Table 1 network: 1024 visibles, 4096 hiddens. For
        // CD-1 the hidden samples die at V2, before the reconstruction
        // hiddens are born at H2, so one `b x h` buffer is saved.
        let (v, h, b) = (1024, 4096, 100);
        let g = build_cd_graph(v, h, b, 1);
        let plan = g.plan();
        assert_eq!(
            plan.peak_elems() + b * h,
            plan.total_declared_elems(),
            "planner should fold h0_sample into h1_prob's register"
        );
        assert!(plan.peak_elems() < plan.total_declared_elems());

        // CD-k resamples from h1_prob while h0_sample is live, so the
        // alias is illegal there — the planner must keep them apart.
        let g2 = build_cd_graph(v, h, b, 2);
        let plan2 = g2.plan();
        assert_eq!(plan2.peak_elems(), plan2.total_declared_elems());
    }

    /// The old per-batch path: a graph built for this batch's rows, run
    /// once over an arena of exactly those rows (so a body that slices to
    /// the capacity instead of the batch shows) and dropped; PCD keeps
    /// `scratch` for its chain.
    fn fresh_step(
        rbm: &mut Rbm,
        ctx: &ExecCtx,
        v: MatView<'_>,
        scratch: &mut RbmScratch,
        pcd: bool,
        wave: bool,
    ) -> f64 {
        let (cfg, b) = (*rbm.config(), v.rows());
        let mut g = if pcd {
            scratch.seed_chain(v);
            build_pcd_graph(cfg.n_visible, cfg.n_hidden, b)
        } else {
            build_cd_graph(cfg.n_visible, cfg.n_hidden, b, cfg.cd_steps)
        };
        let mut ws = Workspace::new(&g.plan());
        let (rbm, chain) = (NetRef::Exclusive(rbm), &mut scratch.pcd_chain);
        let mut state = CdState::new(rbm, &mut ws, chain, v, 0.1);
        if wave {
            g.execute(ctx, &mut state);
        } else {
            g.run_serial(ctx, &mut state);
        }
        state.recon_err
    }

    #[test]
    fn prepared_step_matches_a_freshly_built_graph_bitwise() {
        // Full batches, a ragged tail, then a scratch of larger capacity,
        // alternating the serial and wave schedules.
        let data = batch(27, 12, 41);
        let phases = [
            (10, vec![(0, 10), (10, 20), (20, 27), (0, 10)]),
            (16, vec![(0, 16), (16, 27), (3, 19)]),
        ];
        for (cfg, pcd) in [
            (RbmConfig::new(12, 7), false),
            (RbmConfig::new(12, 7).with_cd_steps(3), false),
            (RbmConfig::new(12, 7), true),
        ] {
            let (mut kept, mut fresh) = (Rbm::new(cfg, 42), Rbm::new(cfg, 42));
            let ctx_kept = ExecCtx::native(OptLevel::Improved, 43);
            let ctx_fresh = ExecCtx::native(OptLevel::Improved, 43);
            let mut step = 0;
            for (cap, bounds) in &phases {
                let mut s_kept = RbmScratch::new(&cfg, *cap);
                let mut s_fresh = RbmScratch::new(&cfg, *cap);
                for &(lo, hi) in bounds {
                    let (v, wave) = (data.rows_range(lo, hi), step % 2 == 1);
                    step += 1;
                    let (e1, _) = run_cd_step(&mut kept, &ctx_kept, v, &mut s_kept, 0.1, pcd, wave);
                    let e2 = fresh_step(&mut fresh, &ctx_fresh, v, &mut s_fresh, pcd, wave);
                    let what = format!("k {} pcd {pcd} rows {lo}..{hi}", cfg.cd_steps);
                    assert_eq!(e1.to_bits(), e2.to_bits(), "{what}");
                    assert_eq!(kept.w.as_slice(), fresh.w.as_slice(), "{what}");
                    assert_eq!(kept.b_vis, fresh.b_vis, "{what}");
                    assert_eq!(kept.c_hid, fresh.c_hid, "{what}");
                    assert_eq!(ctx_kept.rng_state(), ctx_fresh.rng_state(), "{what}");
                    assert_eq!(
                        s_kept.pcd_chain.as_slice(),
                        s_fresh.pcd_chain.as_slice(),
                        "{what}"
                    );
                    assert!(s_kept.step.0.is_some(), "graph kept for the next batch");
                }
            }
        }
    }

    #[test]
    fn a_prepared_graph_is_verified_once_not_per_batch() {
        let cfg = RbmConfig::new(12, 7);
        let v = batch(10, 12, 51);
        let mut rbm = Rbm::new(cfg, 52);
        let mut scratch = RbmScratch::new(&cfg, 10);
        let ctx = ExecCtx::native(OptLevel::Improved, 53)
            .with_verify()
            .with_graceful_degradation();
        rbm.cd_step(&ctx, v.view(), &mut scratch, 0.1);
        // Corrupt the kept graph behind its verified bit: S1 no longer
        // waits for H1. A second verification would report the race and
        // demote the context.
        let (_, kept, _) = scratch.step.0.as_mut().expect("graph kept");
        kept.deps[1].clear();
        rbm.cd_step(&ctx, v.view(), &mut scratch, 0.1);
        assert!(!ctx.is_degraded(), "the kept graph was verified again");
        // A mutation hook clears the bit: the next batch verifies again.
        let (_, kept, _) = scratch.step.0.as_mut().expect("graph kept");
        kept.testonly_drop_dep(2, 1);
        rbm.cd_step(&ctx, v.view(), &mut scratch, 0.1);
        assert!(ctx.is_degraded(), "a cleared verified bit must re-verify");
    }

    #[test]
    fn a_context_degraded_mid_run_demotes_the_prepared_graph() {
        let cfg = RbmConfig::new(12, 7);
        let v = batch(10, 12, 61);
        let mut kept = Rbm::new(cfg, 62);
        let mut serial = Rbm::new(cfg, 62);
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 63);
        let ctx_serial = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 63);
        let mut s_kept = RbmScratch::new(&cfg, 10);
        let mut s_serial = RbmScratch::new(&cfg, 10);
        for i in 0..4 {
            if i == 2 {
                ctx.force_degrade("degraded", "injected");
            }
            let (e1, run) = cd_step_graph(&mut kept, &ctx, v.view(), &mut s_kept, 0.1);
            let e2 = serial.cd_step(&ctx_serial, v.view(), &mut s_serial, 0.1);
            assert_eq!(e1.to_bits(), e2.to_bits(), "batch {i}");
            // Degraded runs take declaration order and price no schedule.
            assert_eq!(run.durations.is_empty(), i >= 2, "batch {i}");
        }
        assert_eq!(kept.w.as_slice(), serial.w.as_slice());
        // The demotion belongs to the context, not to the kept graph.
        let fresh_ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 64);
        let (_, run) = cd_step_graph(&mut kept, &fresh_ctx, v.view(), &mut s_kept, 0.1);
        assert!(!run.durations.is_empty());
    }

    #[test]
    fn a_recording_context_records_the_prepared_graph_in_declaration_order() {
        let cfg = RbmConfig::new(24, 12);
        let v = batch(8, 24, 71);
        let record = |wave: bool| {
            let mut rbm = Rbm::new(cfg, 72);
            let mut scratch = RbmScratch::new(&cfg, 8);
            let ctx = ExecCtx::native(OptLevel::Improved, 73);
            ctx.start_recording();
            for _ in 0..3 {
                run_cd_step(&mut rbm, &ctx, v.view(), &mut scratch, 0.1, false, wave);
            }
            ctx.stop_recording()
        };
        let (waves, serial) = (record(true), record(false));
        assert!(!serial.is_empty());
        assert_eq!(waves, serial, "recorded op order left declaration order");
    }

    #[test]
    fn a_cloned_scratch_prepares_again() {
        let cfg = RbmConfig::new(12, 7);
        let v = batch(10, 12, 81);
        let mut rbm = Rbm::new(cfg, 82);
        let ctx = ExecCtx::native(OptLevel::Improved, 83);
        let mut scratch = RbmScratch::new(&cfg, 10);
        rbm.pcd_step(&ctx, v.view(), &mut scratch, 0.1);
        let mut twin = scratch.clone();
        assert!(scratch.step.0.is_some() && twin.step.0.is_none());
        let (mut rbm2, ctx2) = (rbm.clone(), ExecCtx::native(OptLevel::Improved, 83));
        ctx2.restore_rng(ctx.seed(), ctx.rng_state().1);
        let e1 = rbm.pcd_step(&ctx, v.view(), &mut scratch, 0.1);
        let e2 = rbm2.pcd_step(&ctx2, v.view(), &mut twin, 0.1);
        assert!(twin.step.0.is_some(), "the clone prepared its own graph");
        assert_eq!(e1.to_bits(), e2.to_bits());
        assert_eq!(rbm.w.as_slice(), rbm2.w.as_slice());
        assert_eq!(scratch.pcd_chain.as_slice(), twin.pcd_chain.as_slice());
    }
}
