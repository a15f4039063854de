//! The graph verifier (`micdnn::verify`) under attack and in production:
//!
//! 1. **Seeded mutations** — deliberately drop an inferred edge or an
//!    ordering edge the planner added, alias a live buffer, or skip an init
//!    node, and assert the verifier reports each with the right
//!    [`DiagKind`] (and that the executor refuses to run the broken graph
//!    in debug builds);
//! 2. **Random DAGs** (proptest) — every builder-made graph verifies with
//!    zero errors, its declaration-order plan is safe under every
//!    topological order once the plan's ordering edges are in, and dropping
//!    a random edge is caught exactly when the endpoints genuinely lose
//!    their ordering;
//! 3. **Shipped graphs** — every AE / CD-k / PCD / fine-tune step shape used by
//!    training and `BENCH_graph.json` pins "0 errors, 0 warnings", and the
//!    CD-1 `h0_sample`→`h1_prob` alias is *proved race-free*, not just
//!    space-saving.

use std::panic::{catch_unwind, AssertUnwindSafe};

use micdnn::cd_graph::{build_cd_graph, build_pcd_graph};
use micdnn::train::TrainConfig;
use micdnn::{
    build_ae_graph, build_step_graph, AeUpdate, BufClass, BufId, CnnConfig, CnnNet, DiagKind,
    ExecCtx, FineTuneNet, LabeledNet, NodeSpec, OptLevel, Rule, StackedAutoencoder, TaskGraph,
    DEFAULT_MEM_BUDGET,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// The (n_visible, n_hidden, batch) shapes exported to `BENCH_graph.json`,
/// plus the paper's headline 1024×4096 layer.
const BENCH_SIZES: &[(usize, usize, usize)] = &[
    (256, 512, 100),
    (512, 1024, 200),
    (1024, 2048, 200),
    (1024, 4096, 100),
];

// ---------------------------------------------------------------------------
// 1. Seeded mutations: each corruption maps to its diagnostic kind.
// ---------------------------------------------------------------------------

/// produce → transform → consume over scratch buffers with a pinned output.
fn three_stage() -> TaskGraph<'static, ()> {
    let mut g: TaskGraph<'static, ()> = TaskGraph::new();
    let a = g.declare_dims("a", &[64], BufClass::Scratch);
    let b = g.declare_dims("b", &[64], BufClass::Scratch);
    let out = g.declare_dims("out", &[64], BufClass::Pinned);
    g.node(NodeSpec::new("produce").writes(&[a]), |_, _| {});
    g.node(
        NodeSpec::new("transform").reads(&[a]).writes(&[b]),
        |_, _| {},
    );
    g.node(
        NodeSpec::new("consume").reads(&[b]).writes(&[out]),
        |_, _| {},
    );
    g
}

#[test]
fn dropped_inferred_edge_reports_race() {
    let mut g = three_stage();
    assert!(g.verify().is_clean());
    g.testonly_drop_dep(1, 0); // transform no longer waits for produce
    let report = g.verify();
    assert!(report.has(DiagKind::Race), "{report}");
    let race = report
        .errors
        .iter()
        .find(|d| d.kind == DiagKind::Race)
        .expect("race diagnostic");
    assert_eq!(race.buffer, Some("a"));
    let labels: Vec<&str> = race.nodes.iter().map(|&(_, l)| l).collect();
    assert_eq!(labels, ["produce", "transform"]);
}

#[test]
fn skipped_init_node_reports_use_before_init() {
    // The same pipeline with its init node "forgotten" entirely.
    let mut g: TaskGraph<'static, ()> = TaskGraph::new();
    let a = g.declare_dims("a", &[64], BufClass::Scratch);
    let out = g.declare_dims("out", &[64], BufClass::Pinned);
    g.node(
        NodeSpec::new("transform").reads(&[a]).writes(&[out]),
        |_, _| {},
    );
    let report = g.verify();
    assert!(report.has(DiagKind::UseBeforeInit), "{report}");
    assert_eq!(report.errors[0].buffer, Some("a"));
}

#[test]
fn aliasing_a_live_buffer_reports_unsafe_alias() {
    let mut g: TaskGraph<'static, ()> = TaskGraph::new();
    let a = g.declare_dims("a", &[64], BufClass::Scratch);
    let b = g.declare_dims("b", &[64], BufClass::Scratch);
    let out = g.declare_dims("out", &[64], BufClass::Pinned);
    g.node(NodeSpec::new("mkA").writes(&[a]), |_, _| {});
    g.node(NodeSpec::new("mkB").writes(&[b]), |_, _| {});
    g.node(
        NodeSpec::new("sum").reads(&[a, b]).writes(&[out]),
        |_, _| {},
    );
    // The honest plan keeps the simultaneously-live pair apart…
    let mut plan = g.plan();
    assert_ne!(plan.register_of(a), plan.register_of(b));
    assert!(g.verify_with_plan(&plan).errors.is_empty());
    // …so corrupt it, mapping both onto one register.
    plan.testonly_force_alias(a, b);
    let report = g.verify_with_plan(&plan);
    assert!(report.has(DiagKind::UnsafeAlias), "{report}");
}

/// Two chains: `a` dies in `useA` before `b` is born in `mkB`, which sits a
/// wave deeper than `useA`; nothing in the DAG orders the chains.
fn two_chains() -> TaskGraph<'static, ()> {
    let mut g: TaskGraph<'static, ()> = TaskGraph::new();
    let a = g.declare_dims("a", &[64], BufClass::Scratch);
    let b = g.declare_dims("b", &[64], BufClass::Scratch);
    let [p, c, d, out] = ["p", "c", "d", "out"].map(|n| g.declare_dims(n, &[8], BufClass::Pinned));
    g.node(NodeSpec::new("mkA").writes(&[a]), |_, _| {});
    g.node(NodeSpec::new("useA").reads(&[a]).writes(&[p]), |_, _| {});
    g.node(NodeSpec::new("root").writes(&[c]), |_, _| {});
    g.node(NodeSpec::new("mid").reads(&[c]).writes(&[d]), |_, _| {});
    g.node(NodeSpec::new("mkB").reads(&[d]).writes(&[b]), |_, _| {});
    g.node(NodeSpec::new("useB").reads(&[b]).writes(&[out]), |_, _| {});
    g
}

#[test]
fn dropping_an_added_alias_edge_reports_one_unsafe_alias() {
    let mut g = two_chains();
    assert_eq!(g.deps(4), &[3], "mkB waits for mid only");
    // The plan folds `a` and `b` into one register and orders the chains
    // for it: useA -> mkB, which moves no node to a later wave.
    let mut plan = g.plan();
    assert_eq!(plan.num_registers(), 5);
    assert_eq!(plan.register_of(BufId(0)), plan.register_of(BufId(1)));
    assert_eq!(plan.alias_edges(), &[(1, 4)]);
    assert!(g.verify_with_plan(&plan).is_clean());
    // A planner that aliased without ordering leaves exactly that pair
    // live at once under some schedule.
    plan.testonly_drop_alias_edge(0);
    let report = g.verify_with_plan(&plan);
    assert_eq!(report.errors.len(), 1, "{report}");
    assert_eq!(report.errors[0].kind, DiagKind::UnsafeAlias, "{report}");
    assert_eq!(report.errors[0].buffer, Some("a"), "{report}");
    // The graph carries the edge once it runs over its plan.
    g.execute(&ExecCtx::native(OptLevel::Improved, 0), &mut ());
    assert_eq!(g.deps(4), &[1, 3]);
    assert!(g.verify().is_clean());
}

#[test]
fn debug_executor_refuses_a_corrupted_graph() {
    // `execute` verifies a graph before its first run — always in debug
    // builds, on request in release — and must panic with the full report.
    let mut g = three_stage();
    g.testonly_drop_dep(1, 0);
    let ctx = ExecCtx::native(OptLevel::Improved, 0).with_verify();
    let err = catch_unwind(AssertUnwindSafe(|| {
        g.execute(&ctx, &mut ());
    }))
    .expect_err("executor must reject the corrupted graph");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload should be the report");
    assert!(msg.contains("verification failed"), "{msg}");
    assert!(msg.contains("error[race]"), "{msg}");
}

#[test]
fn unordered_stochastic_nodes_report_determinism_hazard() {
    let mut g: TaskGraph<'static, ()> = TaskGraph::new();
    let a = g.declare_dims("a", &[64], BufClass::Pinned);
    let b = g.declare_dims("b", &[64], BufClass::Pinned);
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

// ---------------------------------------------------------------------------
// 2. Random DAGs: soundness both ways.
// ---------------------------------------------------------------------------

/// Random RAW-only DAG in the `graph_properties` style: node `i` writes its
/// own buffer and reads the buffers of `deps[i]` (all `< i`), so the
/// builder's inferred edges equal the chosen edges exactly — which
/// [`RandomDag::build`] checks.
struct RandomDag {
    deps: Vec<Vec<usize>>,
    elems: Vec<usize>,
    classes: Vec<BufClass>,
}

impl RandomDag {
    fn generate(n: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut deps = Vec::with_capacity(n);
        let mut elems = Vec::with_capacity(n);
        let mut classes = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i.saturating_sub(6);
            deps.push((lo..i).filter(|_| rng.gen_bool(0.35)).collect::<Vec<_>>());
            elems.push(rng.gen_range(32..2048));
            classes.push(match rng.gen_range(0..10) {
                0 | 1 => BufClass::Pinned,
                2 => BufClass::Partial,
                _ => BufClass::Scratch,
            });
        }
        RandomDag {
            deps,
            elems,
            classes,
        }
    }

    /// The graph and each node's output buffer.
    fn build(&self) -> (TaskGraph<'static, ()>, Vec<BufId>) {
        let mut g: TaskGraph<'static, ()> = TaskGraph::new();
        let bufs: Vec<_> = (0..self.deps.len())
            .map(|i| g.declare_dims("buf", &[self.elems[i]], self.classes[i]))
            .collect();
        for (i, deps) in self.deps.iter().enumerate() {
            let reads: Vec<_> = deps.iter().map(|&d| bufs[d]).collect();
            g.node(
                NodeSpec::new("node").reads(&reads).writes(&[bufs[i]]),
                |_, _| {},
            );
            assert_eq!(g.deps(i), deps.as_slice(), "node {i} dependency mismatch");
        }
        (g, bufs)
    }
}

/// Transitive closure over an explicit dependency-list forest:
/// `reach[u][v]` iff a path leads from `u` to `v`.
fn reachability(deps: &[Vec<usize>]) -> Vec<Vec<bool>> {
    let n = deps.len();
    let mut reach = vec![vec![false; n]; n];
    for v in 0..n {
        for &u in &deps[v] {
            reach[u][v] = true;
            for row in reach.iter_mut() {
                if row[u] {
                    row[v] = true;
                }
            }
        }
    }
    reach
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No false positives: whatever DAG the builder infers from declared
    /// footprints, the verifier finds zero errors (warnings — e.g. dead
    /// terminal scratch writes — are allowed).
    #[test]
    fn builder_graphs_always_verify_error_free(n in 1usize..24, seed in any::<u64>()) {
        let report = RandomDag::generate(n, seed).build().0.verify();
        prop_assert!(report.errors.is_empty(), "{}", report);
    }

    /// A per-block partial sum is merged after the block's nodes ran, so
    /// its storage must outlive every one of them: the planner gives each
    /// `Partial` buffer a register of its own, as it does `Pinned` ones.
    #[test]
    fn a_partial_buffer_never_shares_a_register(n in 1usize..24, seed in any::<u64>()) {
        let dag = RandomDag::generate(n, seed);
        let (g, bufs) = dag.build();
        let plan = g.plan();
        for (i, &b) in bufs.iter().enumerate() {
            if dag.classes[i] != BufClass::Partial {
                continue;
            }
            let r = plan.register_of(b);
            prop_assert!(r.is_some(), "partial buffer {} has no register", i);
            let sharers = bufs.iter().filter(|&&o| plan.register_of(o) == r).count();
            prop_assert_eq!(sharers, 1, "partial buffer {} shares register {:?}", i, r);
        }
    }

    /// The declaration-order plan never puts two buffers that are live at
    /// once in one register, and with the ordering edges it added, it is
    /// safe under every topological order of the resulting DAG: each order
    /// is enumerated, and in each, register-sharing buffers' live ranges
    /// must be disjoint.
    #[test]
    fn declaration_order_plan_is_safe_under_every_topological_order(
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let dag = RandomDag::generate(n, seed);
        let (g, bufs) = dag.build();
        let plan = g.plan();
        let mut deps = dag.deps.clone();
        for &(u, v) in plan.alias_edges() {
            prop_assert!(u < v && !deps[v].contains(&u), "alias edge {} -> {}", u, v);
            deps[v].push(u);
        }
        // accessors[b]: the producer plus every reader of buffer b.
        let mut accessors: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        for (i, ds) in dag.deps.iter().enumerate() {
            for &d in ds {
                accessors[d].push(i);
            }
        }
        let sharing: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .filter(|&(a, b)| {
                plan.register_of(bufs[a]).is_some()
                    && plan.register_of(bufs[a]) == plan.register_of(bufs[b])
            })
            .collect();
        // Live in declaration order: b is born at node b, after a's last
        // reader.
        for &(a, b) in &sharing {
            prop_assert!(accessors[a].iter().all(|&u| u < b), "{} / {} live at once", a, b);
        }
        // Every topological order, by backtracking over the ready nodes.
        fn orders(deps: &[Vec<usize>], placed: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if placed.len() == deps.len() {
                out.push(placed.clone());
                return;
            }
            for v in 0..deps.len() {
                if !placed.contains(&v) && deps[v].iter().all(|d| placed.contains(d)) {
                    placed.push(v);
                    orders(deps, placed, out);
                    placed.pop();
                }
            }
        }
        let mut all = Vec::new();
        orders(&deps, &mut Vec::new(), &mut all);
        prop_assert!(!all.is_empty());
        for order in &all {
            let mut pos = vec![0usize; n];
            for (p, &v) in order.iter().enumerate() {
                pos[v] = p;
            }
            let span = |b: usize| {
                let ps = accessors[b].iter().map(|&v| pos[v]);
                (ps.clone().min().unwrap(), ps.max().unwrap())
            };
            for &(a, b) in &sharing {
                let ((fa, la), (fb, lb)) = (span(a), span(b));
                prop_assert!(la < fb || lb < fa,
                    "{} / {} share a register but overlap in order {:?}", a, b, order);
            }
        }
    }

    /// No false negatives (and still no false positives): dropping one
    /// inferred edge yields an error exactly when the endpoints genuinely
    /// lose their ordering — if another dependency path still orders them,
    /// the graph must stay error-free.
    #[test]
    fn dropping_an_edge_is_caught_iff_order_is_lost(
        n in 2usize..24,
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let dag = RandomDag::generate(n, seed);
        let edges: Vec<(usize, usize)> = dag
            .deps
            .iter()
            .enumerate()
            .flat_map(|(i, ds)| ds.iter().map(move |&d| (i, d)))
            .collect();
        prop_assume!(!edges.is_empty());
        let (node, dep) = edges[(pick as usize) % edges.len()];

        let (mut g, _) = dag.build();
        g.testonly_drop_dep(node, dep);
        let report = g.verify();

        // The cut DAG plus the ordering edges its plan needs.
        let mut cut = dag.deps.clone();
        cut[node].retain(|&d| d != dep);
        for &(u, v) in g.plan().alias_edges() {
            cut[v].push(u);
        }
        let still_ordered = reachability(&cut)[dep][node];
        if still_ordered {
            prop_assert!(report.errors.is_empty(),
                "transitively ordered pair misreported:\n{}", report);
        } else {
            prop_assert!(report.has(DiagKind::Race),
                "lost ordering of {} -> {} went undetected:\n{}", dep, node, report);
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Shipped graphs: every training shape pins "0 errors, 0 warnings".
// ---------------------------------------------------------------------------

#[test]
fn shipped_ae_graphs_verify_clean_at_all_bench_sizes() {
    for &(nv, nh, b) in BENCH_SIZES {
        for update in [
            AeUpdate::None,
            AeUpdate::Sgd,
            AeUpdate::Opt(Rule::Momentum { mu: 0.9 }),
        ] {
            let g = build_ae_graph(nv, nh, b, update);
            let report = g.verify();
            assert!(
                report.is_clean(),
                "AE {nv}x{nh} b={b} {update:?} must verify 0/0:\n{report}"
            );
        }
    }
}

#[test]
fn shipped_cd_graphs_verify_clean_at_all_bench_sizes() {
    for &(nv, nh, b) in BENCH_SIZES {
        for k in [1, 2, 3] {
            let g = build_cd_graph(nv, nh, b, k);
            let report = g.verify();
            assert!(
                report.is_clean(),
                "CD-{k} {nv}x{nh} b={b} must verify 0/0:\n{report}"
            );
        }
        let report = build_pcd_graph(nv, nh, b).verify();
        assert!(
            report.is_clean(),
            "PCD {nv}x{nh} b={b} must verify 0/0:\n{report}"
        );
    }
}

#[test]
fn shipped_finetune_graphs_verify_clean() {
    for (in_dim, widths, classes, cap) in [
        (144, vec![64], 10, 64),
        (784, vec![512, 256], 10, 200),
        (256, vec![128, 64, 32], 4, 100),
    ] {
        let g = build_step_graph(in_dim, &widths, classes, cap);
        let report = g.verify();
        assert!(
            report.is_clean(),
            "fine-tune {in_dim}->{widths:?}->{classes} must verify 0/0:\n{report}"
        );
    }
}

/// The layer-IR CNN step — the first graph shipped through the trait
/// builder that has no hand-rolled ancestor — is pinned to the same
/// "0 errors, 0 warnings" bar as the paper's graphs across image, filter
/// and pooling geometries. A dead-write warning here is the named likely
/// regression for the conv/pool backward path (an unpool scatter or
/// argmax-index write that nothing reads).
#[test]
fn shipped_cnn_graphs_verify_clean() {
    for (side, channels, kernel, pool, hidden, classes, cap) in [
        (12, 6, 5, 2, 48, 10, 16),
        (16, 6, 5, 2, 48, 10, 64),
        (16, 8, 3, 2, 64, 10, 100),
        (28, 4, 5, 4, 32, 10, 50),
        (8, 2, 3, 3, 8, 4, 10),
    ] {
        let cfg = micdnn::CnnConfig::new(side, channels, kernel, pool, hidden, classes);
        let g = micdnn::build_cnn_graph(cfg, cap);
        let report = g.verify();
        assert!(
            report.is_clean(),
            "CNN {side}x{side} c={channels} k={kernel} p={pool} cap={cap} must verify 0/0:\n{report}"
        );
    }
}

/// The serving path's forward-only graph is held to the same bar as the
/// training steps: zero errors *and* zero warnings across representative
/// shapes — including depth 1, the paper's headline widths, a deep narrow
/// stack and the CNN — so a dead write or missing edge in the inference
/// chain can never ship silently.
#[test]
fn serve_forward_graphs_verify_clean() {
    for (sizes, classes, cap) in [
        (vec![144, 64], 10, 64),
        (vec![784, 512, 256], 10, 200),
        (vec![256, 128, 64, 32], 4, 100),
        (vec![1024, 4096], 10, 256),
    ] {
        let g = FineTuneNet::random(&sizes, classes, 1).forward_graph(cap);
        let report = g.verify();
        assert!(
            report.is_clean(),
            "serve forward {sizes:?}->{classes} must verify 0/0:\n{report}"
        );
    }
    let g = CnnNet::new(CnnConfig::digits(12), 1).forward_graph(64);
    let report = g.verify();
    assert!(
        report.is_clean(),
        "CNN serve forward must verify 0/0:\n{report}"
    );
}

#[test]
fn cd1_sample_alias_is_proved_race_free() {
    // PR 3's planner folds `h0_sample` and `h1_prob` into one register at
    // CD-1 (the sample dies before the last hidden probabilities are
    // born). The verifier must *prove* that — the pair shows up in
    // `verified_alias_pairs`, meaning every accessor of one strictly
    // precedes every accessor of the other — not merely observe the saving.
    let g = build_cd_graph(1024, 4096, 100, 1);
    let plan = g.plan();
    let report = g.verify_with_plan(&plan);
    assert!(report.is_clean(), "{report}");
    let proved = report.verified_alias_pairs.iter().any(|&(a, b)| {
        (a == "h0_sample" && b == "h1_prob") || (a == "h1_prob" && b == "h0_sample")
    });
    assert!(
        proved,
        "h0_sample/h1_prob alias missing from verified pairs: {:?}",
        report.verified_alias_pairs
    );
    assert!(plan.peak_elems() < plan.total_declared_elems());
}

// ---------------------------------------------------------------------------
// 4. Multi-device pipeline graphs: cross-device edges must be mediated by
//    transfer nodes, and the shipped schedules pin "0 errors, 0 warnings".
// ---------------------------------------------------------------------------

/// Every shipped pipelined pre-training graph — per-layer devices joined by
/// `.transfer()` xfer nodes over the modeled link — verifies 0/0 across
/// stack shapes, chunk geometries and pass counts. In particular every
/// layer-k -> layer-k+1 edge is ordered through its transfer node, so the
/// cross-device check stays silent.
#[test]
fn shipped_pipeline_graphs_verify_clean() {
    for (sizes, rows, chunk_rows, passes) in [
        (vec![16usize, 8], 40, 20, 1),
        (vec![16, 8, 4], 90, 30, 2),
        (vec![12, 9, 6, 3], 45, 15, 3),
        (vec![16, 8, 4], 35, 50, 2), // a single partial chunk
    ] {
        let stack = StackedAutoencoder::with_default_config(&sizes, 7);
        let cfg = TrainConfig {
            batch_size: 10,
            chunk_rows,
            ..TrainConfig::default()
        };
        let g = stack.pipeline_graph(&cfg, rows, passes);
        let report = g.verify();
        assert!(
            report.is_clean(),
            "pipeline {sizes:?} rows={rows} chunk={chunk_rows} passes={passes} \
             must verify 0/0:\n{report}"
        );
    }
}

/// Cutting the inter-device handoff out of a pipeline graph is caught: the
/// staging buffer's producer and its transfer node end up on different
/// devices with no ordering, so the verifier reports both the race and the
/// cross-device teleport.
#[test]
fn unmediated_pipeline_edge_reports_cross_device_flow() {
    // Two layers, one chunk, one pass: train0 -> encode -> xfer -> train1.
    let stack = StackedAutoencoder::with_default_config(&[12, 8, 4], 5);
    let cfg = TrainConfig {
        batch_size: 10,
        chunk_rows: 30,
        ..TrainConfig::default()
    };
    let mut g = stack.pipeline_graph(&cfg, 30, 1);
    assert_eq!(g.len(), 4);
    assert!(g.verify().is_clean());

    // Drop the xfer's dependency on the encode that fills its staging
    // buffer: layer 0's activations would have to teleport to device 1.
    g.testonly_drop_dep(2, 1);
    let report = g.verify();
    assert!(report.has(DiagKind::Race), "{report}");
    assert!(report.has(DiagKind::CrossDeviceFlow), "{report}");
    let diag = report
        .errors
        .iter()
        .find(|d| d.kind == DiagKind::CrossDeviceFlow)
        .expect("cross-device diagnostic");
    assert!(
        diag.message.contains("device 0") && diag.message.contains("device 1"),
        "{}",
        diag.message
    );
}

// ---------------------------------------------------------------------------
// 5. Certification: determinism audit, peak-memory proofs.
// ---------------------------------------------------------------------------

/// Every shipped single-device training/serving graph certifies clean —
/// the full pipeline (safety verifier + determinism audit + peak-memory
/// proof against the 8 GB card budget) reports zero
/// errors and zero warnings, so the committed `VERIFY_report.json` can pin
/// the same bar in CI.
#[test]
fn all_shipped_graphs_certify_clean() {
    for &(nv, nh, b) in BENCH_SIZES {
        for update in [
            AeUpdate::None,
            AeUpdate::Sgd,
            AeUpdate::Opt(Rule::Momentum { mu: 0.9 }),
        ] {
            let outcome = build_ae_graph(nv, nh, b, update).certify(DEFAULT_MEM_BUDGET);
            assert!(
                outcome.is_clean(),
                "AE {nv}x{nh} b={b} {update:?} must certify 0/0:\n{}",
                outcome.report
            );
        }
        for k in [1, 2, 3] {
            let outcome = build_cd_graph(nv, nh, b, k).certify(DEFAULT_MEM_BUDGET);
            assert!(
                outcome.is_clean(),
                "CD-{k} {nv}x{nh} b={b} must certify 0/0:\n{}",
                outcome.report
            );
        }
        let outcome = build_pcd_graph(nv, nh, b).certify(DEFAULT_MEM_BUDGET);
        assert!(
            outcome.is_clean(),
            "PCD {nv}x{nh} b={b} must certify 0/0:\n{}",
            outcome.report
        );
    }
    for (in_dim, widths, classes, cap) in [
        (144, vec![64], 10, 64),
        (784, vec![512, 256], 10, 200),
        (256, vec![128, 64, 32], 4, 100),
    ] {
        let outcome = build_step_graph(in_dim, &widths, classes, cap).certify(DEFAULT_MEM_BUDGET);
        assert!(
            outcome.is_clean(),
            "fine-tune {in_dim}->{widths:?}->{classes} must certify 0/0:\n{}",
            outcome.report
        );
    }
    for (sizes, classes, cap) in [
        (vec![144, 64], 10, 64),
        (vec![784, 512, 256], 10, 200),
        (vec![256, 128, 64, 32], 4, 100),
        (vec![1024, 4096], 10, 256),
    ] {
        let g = FineTuneNet::random(&sizes, classes, 1).forward_graph(cap);
        let outcome = g.certify(DEFAULT_MEM_BUDGET);
        assert!(
            outcome.is_clean(),
            "serve forward {sizes:?}->{classes} must certify 0/0:\n{}",
            outcome.report
        );
    }
    let g = CnnNet::new(CnnConfig::digits(12), 1).forward_graph(64);
    let outcome = g.certify(DEFAULT_MEM_BUDGET);
    assert!(
        outcome.is_clean(),
        "CNN serve forward must certify 0/0:\n{}",
        outcome.report
    );
}

/// Dead-write audit of the CNN step plans: at every shipped geometry the
/// certified report carries zero dead-write findings (and no warnings of
/// any kind) — the named likely regression for the conv/pool backward
/// path is an unpool scatter or argmax-index write nothing reads.
#[test]
fn cnn_plans_certify_with_no_dead_writes() {
    for (side, channels, kernel, pool, hidden, classes, cap) in [
        (12, 6, 5, 2, 48, 10, 16),
        (16, 6, 5, 2, 48, 10, 64),
        (16, 8, 3, 2, 64, 10, 100),
        (28, 4, 5, 4, 32, 10, 50),
        (8, 2, 3, 3, 8, 4, 10),
    ] {
        let cfg = micdnn::CnnConfig::new(side, channels, kernel, pool, hidden, classes);
        let outcome = micdnn::build_cnn_graph(cfg, cap).certify(DEFAULT_MEM_BUDGET);
        assert_eq!(
            outcome.report.count(DiagKind::DeadWrite),
            0,
            "CNN {side}x{side} c={channels} k={kernel} p={pool} cap={cap} has dead writes:\n{}",
            outcome.report
        );
        assert!(
            outcome.is_clean(),
            "CNN {side}x{side} c={channels} k={kernel} p={pool} cap={cap} must certify 0/0:\n{}",
            outcome.report
        );
    }
}

/// Dead-write audit of the pipelined pre-training plans: across stack
/// shapes, chunk geometries and pass counts, the multi-device schedule
/// certifies with zero dead writes and zero findings overall (the
/// ordering-only link tokens are Pinned precisely to stay exempt).
#[test]
fn pipeline_plans_certify_with_no_dead_writes() {
    for (sizes, rows, chunk_rows, passes) in [
        (vec![16usize, 8], 40, 20, 1),
        (vec![16, 8, 4], 90, 30, 2),
        (vec![12, 9, 6, 3], 45, 15, 3),
        (vec![16, 8, 4], 35, 50, 2),
    ] {
        let stack = StackedAutoencoder::with_default_config(&sizes, 7);
        let cfg = TrainConfig {
            batch_size: 10,
            chunk_rows,
            ..TrainConfig::default()
        };
        let outcome = stack
            .pipeline_graph(&cfg, rows, passes)
            .certify(DEFAULT_MEM_BUDGET);
        assert_eq!(
            outcome.report.count(DiagKind::DeadWrite),
            0,
            "pipeline {sizes:?} rows={rows} chunk={chunk_rows} passes={passes} has dead writes:\n{}",
            outcome.report
        );
        assert!(
            outcome.is_clean(),
            "pipeline {sizes:?} rows={rows} chunk={chunk_rows} passes={passes} must certify 0/0:\n{}",
            outcome.report
        );
        assert_eq!(
            outcome.device_peaks.len(),
            sizes.len() - 1,
            "one proof per card"
        );
    }
}

/// Mutation: a budget one byte under the proven peak flips the mem-budget
/// rule, and the diagnostic names the exact peak wave, byte count and the
/// live set attaining it.
#[test]
fn tightening_the_budget_names_the_peak_wave() {
    let g = build_cd_graph(1024, 4096, 100, 1);
    let proven = g.certify(DEFAULT_MEM_BUDGET);
    assert!(proven.is_clean(), "{}", proven.report);
    let peak = &proven.device_peaks[0];
    assert!(peak.peak_bytes > 0);

    let broke = g.certify(peak.peak_bytes - 1);
    assert!(broke.report.has(DiagKind::MemBudget), "{}", broke.report);
    let diag = broke
        .report
        .errors
        .iter()
        .find(|d| d.kind == DiagKind::MemBudget)
        .expect("mem-budget diagnostic");
    assert_eq!(diag.wave, Some(peak.peak_wave), "{}", diag.message);
    assert_eq!(diag.bytes, Some(peak.peak_bytes), "{}", diag.message);
    assert!(diag.message.contains("live set"), "{}", diag.message);
    // The exact budget is still provable.
    assert!(g.certify(peak.peak_bytes).is_clean());
}

/// Mutation: stripping the declared RNG cursors from a sampling graph
/// flips the determinism audit — and only for `certify`; the plain
/// executor-facing `verify` pass must keep accepting the graph.
#[test]
fn stripping_cursor_decls_flips_the_determinism_audit() {
    let mut g = build_cd_graph(64, 32, 10, 2);
    assert!(g.certify(DEFAULT_MEM_BUDGET).is_clean());
    g.testonly_strip_cursor_decls();
    let outcome = g.certify(DEFAULT_MEM_BUDGET);
    assert!(
        outcome.report.has(DiagKind::UndeclaredStochastic),
        "{}",
        outcome.report
    );
    assert!(
        g.verify().is_clean(),
        "certification rules must not leak into the verify path"
    );
}

/// Mutation: unbinding the cursor of PCD's chain-sampling node `SV` (node
/// 6) flips exactly one finding, `undeclared-stochastic` on `SV`, in the
/// certified report; plain `verify` keeps accepting the graph.
#[test]
fn unbinding_the_chain_sample_cursor_flips_only_the_determinism_audit() {
    let mut g = build_pcd_graph(64, 32, 10);
    assert!(g.certify(DEFAULT_MEM_BUDGET).is_clean());
    g.testonly_unbind_cursor(6);
    let report = g.certify(DEFAULT_MEM_BUDGET).report;
    let kinds: Vec<DiagKind> = report
        .errors
        .iter()
        .chain(&report.warnings)
        .map(|d| d.kind)
        .collect();
    assert_eq!(kinds, [DiagKind::UndeclaredStochastic], "{report}");
    assert_eq!(report.errors[0].nodes, [(6, "SV")], "{report}");
    assert!(g.verify().is_clean());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The difference-array peak-memory proof equals the brute-force
    /// per-wave maximum over live sets: for random DAGs, walking every
    /// wave and summing each register whose occupants are live (plus
    /// nothing else — these DAGs have no externals) reproduces the
    /// certified peak bytes and peak wave exactly.
    #[test]
    fn certified_peak_matches_brute_force(n in 1usize..24, seed in any::<u64>()) {
        let dag = RandomDag::generate(n, seed);
        let (g, bufs) = dag.build();
        let plan = g.plan();
        let outcome = g.certify_with_plan(&plan, DEFAULT_MEM_BUDGET);

        // ASAP waves, as the certifier defines them.
        let mut wave = vec![0usize; n];
        for i in 0..n {
            wave[i] = dag.deps[i].iter().map(|&d| wave[d] + 1).max().unwrap_or(0);
        }
        let waves = wave.iter().max().map(|&w| w + 1).unwrap_or(0);
        let last = waves - 1;
        // Buffer b is written by node b and read by every node depending on b.
        let mut first_w = vec![usize::MAX; n];
        let mut last_w = vec![0usize; n];
        for (i, &w) in wave.iter().enumerate() {
            for &b in dag.deps[i].iter().chain(std::iter::once(&i)) {
                first_w[b] = first_w[b].min(w);
                last_w[b] = last_w[b].max(w);
            }
        }
        let live = |b: usize, w: usize| -> bool {
            first_w[b] != usize::MAX
                && match dag.classes[b] {
                    BufClass::Scratch => first_w[b] <= w && w <= last_w[b],
                    BufClass::Pinned | BufClass::Partial => first_w[b] <= w && w <= last,
                    BufClass::External => w <= last,
                }
        };
        let mut brute_peak = 0u64;
        let mut brute_wave = 0usize;
        for w in 0..waves {
            let mut resident = 0u64;
            for r in 0..plan.num_registers() {
                let occupied = (0..n)
                    .any(|b| plan.register_of(bufs[b]) == Some(r) && live(b, w));
                if occupied {
                    resident += plan.register_size(r) as u64 * 4;
                }
            }
            if resident > brute_peak {
                brute_peak = resident;
                brute_wave = w;
            }
        }
        prop_assert_eq!(outcome.waves, waves);
        prop_assert_eq!(outcome.device_peaks.len(), 1);
        prop_assert_eq!(outcome.device_peaks[0].peak_bytes, brute_peak,
            "peak bytes diverge from brute force (seed {})", seed);
        prop_assert_eq!(outcome.device_peaks[0].peak_wave, brute_wave,
            "peak wave diverges from brute force (seed {})", seed);
    }
}
