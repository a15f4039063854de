//! Property-based tests (proptest) for the dataflow execution layer:
//! random DAGs through the graph builder, the liveness planner and both
//! executors.
//!
//! Four invariants from the execution-layer design:
//!
//! 1. the native schedule is declaration order, so it never runs a node
//!    before its dependencies;
//! 2. the simulated clock advance equals the brute-force longest path
//!    through the priced DAG;
//! 3. the workspace planner never assigns two *interfering* buffers (ones
//!    whose accessor sets are not strictly DAG-ordered) to one register;
//! 4. random layer stacks through the trait-driven `StackBuilder`
//!    (`micdnn::layers`) always verify with zero errors and zero
//!    warnings, and the graph schedule reproduces the serial
//!    declaration-order schedule bit for bit.

use micdnn::{BufClass, BufId, ExecCtx, NodeSpec, NodeState, OptLevel, TaskGraph};
use micdnn_kernels::OpCost;
use micdnn_sim::Platform;
use micdnn_tensor::Mat;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// A boxed node body, higher-ranked over the borrows of one run.
type Task<'g, S> =
    Box<dyn for<'a> FnMut(&ExecCtx, &mut <S as NodeState>::At<'a>) + Send + Sync + 'g>;

/// One randomly generated dataflow graph: node `i` writes its own buffer
/// and reads the buffers of `deps[i]` (all `< i`), so every dependency is
/// a RAW edge the builder must infer from the declared footprints.
struct RandomDag {
    /// Chosen read-dependencies per node (sorted, deduplicated).
    deps: Vec<Vec<usize>>,
    /// Declared element count of each node's output buffer.
    elems: Vec<usize>,
    /// Buffer class of each node's output buffer.
    classes: Vec<BufClass>,
}

impl RandomDag {
    fn generate(n: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut deps = Vec::with_capacity(n);
        let mut elems = Vec::with_capacity(n);
        let mut classes = Vec::with_capacity(n);
        for i in 0..n {
            // Read a random subset of the last few producers: recency keeps
            // chains realistic and lets early buffers die (alias fodder).
            let lo = i.saturating_sub(6);
            let mut d: Vec<usize> = (lo..i).filter(|_| rng.gen_bool(0.35)).collect();
            d.dedup();
            deps.push(d);
            elems.push(rng.gen_range(32..2048));
            classes.push(if rng.gen_bool(0.2) {
                BufClass::Pinned
            } else {
                BufClass::Scratch
            });
        }
        RandomDag {
            deps,
            elems,
            classes,
        }
    }

    /// Builds the `TaskGraph`, wiring each node's task through `make_task`,
    /// and checks that the builder inferred exactly the chosen edges — so
    /// every property below tests the graph it drew.
    fn build<'g, S: NodeState + 'g>(
        &self,
        mut make_task: impl FnMut(usize) -> Task<'g, S>,
    ) -> (TaskGraph<'g, S>, Vec<BufId>) {
        let mut g: TaskGraph<'g, S> = TaskGraph::new();
        let mut bufs = Vec::with_capacity(self.deps.len());
        for i in 0..self.deps.len() {
            bufs.push(g.declare_dims("buf", &[self.elems[i]], self.classes[i]));
        }
        for (i, deps) in self.deps.iter().enumerate() {
            let reads: Vec<BufId> = deps.iter().map(|&d| bufs[d]).collect();
            g.node(
                NodeSpec::new("node").reads(&reads).writes(&[bufs[i]]),
                make_task(i),
            );
            assert_eq!(g.deps(i), deps.as_slice(), "node {i} dependency mismatch");
        }
        (g, bufs)
    }

    /// Strict-precedence matrix over the *chosen* edges: `reach[u][v]` iff
    /// a dependency path leads from `u` to `v` (so `u` must run first).
    fn reachability(&self) -> Vec<Vec<bool>> {
        let n = self.deps.len();
        let mut reach = vec![vec![false; n]; n];
        for v in 0..n {
            for &u in &self.deps[v] {
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
}

/// Observation state for the native-order test: the nodes in the order
/// they ran, and how many found a dependency not yet run.
struct OrderLog {
    order: Vec<usize>,
    violations: usize,
}

impl NodeState for OrderLog {
    type At<'a> = OrderLog;
}

/// Exhaustive longest-path search (no memoisation — genuinely brute force;
/// `n` is kept small enough that the exponential blowup stays cheap).
fn brute_force_longest(deps: &TaskGraph<'_, ()>, durations: &[f64], node: usize) -> f64 {
    let best_dep = deps
        .deps(node)
        .iter()
        .map(|&d| brute_force_longest(deps, durations, d))
        .fold(0.0f64, f64::max);
    durations[node] + best_dep
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The native executor runs every node exactly once, in declaration
    /// order, so never before one of its dependencies.
    #[test]
    fn native_schedule_respects_dependencies(n in 1usize..24, seed in any::<u64>()) {
        let dag = RandomDag::generate(n, seed);
        let (mut g, _bufs) = dag.build::<OrderLog>(|i| {
            let deps = dag.deps[i].clone();
            Box::new(move |_ctx, log: &mut OrderLog| {
                log.violations += deps.iter().filter(|d| !log.order.contains(d)).count();
                log.order.push(i);
            })
        });

        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let mut log = OrderLog {
            order: Vec::new(),
            violations: 0,
        };
        g.execute(&ctx, &mut log);
        prop_assert_eq!(log.violations, 0,
            "executor ran a node before one of its dependencies");
        prop_assert_eq!(log.order, (0..n).collect::<Vec<_>>(),
            "native execution is not declaration order");
    }

    /// On a simulated context the clock advances by exactly the critical
    /// path: the brute-force longest path through the per-node prices.
    #[test]
    fn simulated_critical_path_is_longest_path(n in 1usize..12, seed in any::<u64>()) {
        let dag = RandomDag::generate(n, seed);
        let (mut g, _bufs) = dag.build::<()>(|i| {
            let elems = dag.elems[i];
            // Vary arithmetic intensity so durations differ across nodes.
            let flops = 1 + (i as u32 % 7);
            Box::new(move |ctx: &ExecCtx, _| {
                ctx.charge_cost(OpCost::elementwise(elems, 2, flops));
            })
        });
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 0);
        let t0 = ctx.sim_time();
        let run = g.execute(&ctx, &mut ());

        prop_assert!(run.durations.iter().all(|&d| d > 0.0), "unpriced node");
        let brute = (0..n)
            .map(|i| brute_force_longest(&g, &run.durations, i))
            .fold(0.0f64, f64::max);
        let tol = 1e-9 * brute.max(1.0);
        prop_assert!((run.critical_path - brute).abs() <= tol,
            "critical path {} != brute-force longest path {}", run.critical_path, brute);
        prop_assert!((ctx.sim_time() - t0 - brute).abs() <= tol,
            "simulated clock advanced by {} instead of the critical path {}",
            ctx.sim_time() - t0, brute);
        let serial: f64 = run.durations.iter().sum();
        prop_assert!(run.critical_path <= serial + tol,
            "critical path cannot exceed the serial sum");
    }

    /// The static verifier agrees with this suite's own brute-force model:
    /// builder-made graphs carry no errors, and every register-sharing pair
    /// it blesses is strictly ordered under the chosen-edge reachability.
    #[test]
    fn verifier_matches_brute_force_orderings(n in 1usize..24, seed in any::<u64>()) {
        let dag = RandomDag::generate(n, seed);
        let (g, bufs) = dag.build::<()>(|_| Box::new(|_, _| {}));
        let report = g.verify();
        prop_assert!(report.errors.is_empty(), "{}", report);

        let mut accessors: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        for (i, deps) in dag.deps.iter().enumerate() {
            for &d in deps {
                accessors[d].push(i);
            }
        }
        let reach = dag.reachability();
        let plan = g.plan();
        // Every register-sharing pair must have been blessed by the
        // verifier, and the ordering it proved must match this suite's own
        // brute-force reachability.
        let mut shared_pairs = 0usize;
        for a in 0..n {
            for b in (a + 1)..n {
                let (Some(ra), Some(rb)) = (plan.register_of(bufs[a]), plan.register_of(bufs[b]))
                else { continue };
                if ra != rb {
                    continue;
                }
                shared_pairs += 1;
                let fwd = accessors[a].iter().all(|&u| accessors[b].iter().all(|&v| reach[u][v]));
                let bwd = accessors[b].iter().all(|&u| accessors[a].iter().all(|&v| reach[u][v]));
                prop_assert!(fwd || bwd, "verifier accepted an unordered alias {}/{}", a, b);
            }
        }
        prop_assert_eq!(report.verified_alias_pairs.len(), shared_pairs,
            "every register-sharing pair must be individually verified");
    }

    /// The planner only lets two buffers share a register when every
    /// accessor of one strictly precedes every accessor of the other —
    /// i.e. it never aliases two live buffers. Pinned buffers never share.
    #[test]
    fn planner_never_aliases_live_buffers(n in 1usize..24, seed in any::<u64>()) {
        let dag = RandomDag::generate(n, seed);
        let (g, bufs) = dag.build::<()>(|_| Box::new(|_, _| {}));
        let plan = g.plan();
        prop_assert!(plan.peak_elems() <= plan.total_declared_elems());

        // accessors[b]: the producer plus every reader of buffer b.
        let mut accessors: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        for (i, deps) in dag.deps.iter().enumerate() {
            for &d in deps {
                accessors[d].push(i);
            }
        }
        let reach = dag.reachability();
        let strictly_ordered = |a: usize, b: usize| {
            accessors[a].iter().all(|&u| accessors[b].iter().all(|&v| reach[u][v]))
        };

        for a in 0..n {
            for b in (a + 1)..n {
                let (Some(ra), Some(rb)) = (plan.register_of(bufs[a]), plan.register_of(bufs[b]))
                else { continue };
                if ra != rb {
                    continue;
                }
                prop_assert!(
                    dag.classes[a] == BufClass::Scratch && dag.classes[b] == BufClass::Scratch,
                    "planner shared a register with a pinned buffer ({} / {})", a, b
                );
                prop_assert!(
                    strictly_ordered(a, b) || strictly_ordered(b, a),
                    "buffers {} and {} share register {} but are simultaneously live", a, b, ra
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Layer-IR stacks: random shapes through the trait-driven StackBuilder.
// ---------------------------------------------------------------------------

/// Uniform batch in `[0, 1)` plus one random label per row.
fn random_batch(rows: usize, cols: usize, classes: usize, seed: u64) -> (Mat, Vec<usize>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut x = Mat::zeros(rows, cols);
    for v in x.as_mut_slice() {
        *v = rng.gen_range(0.0f32..1.0);
    }
    let labels = (0..rows).map(|_| rng.gen_range(0..classes)).collect();
    (x, labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random dense stacks through the `StackBuilder` fine-tune recipe:
    /// every generated graph verifies with zero errors *and* zero
    /// warnings, and training through the graph schedule matches the
    /// serial declaration-order path bit for bit (losses and every
    /// parameter tensor) at whatever thread count the environment
    /// provides.
    #[test]
    fn random_dense_stacks_verify_clean_and_run_bit_identically(
        in_dim in 3usize..14,
        widths in proptest::collection::vec(2usize..12, 1..4),
        classes in 2usize..6,
        batch in 1usize..8,
        steps in 1usize..4,
        seed in any::<u64>(),
    ) {
        let g = micdnn::build_step_graph(in_dim, &widths, classes, batch);
        let report = g.verify();
        prop_assert!(report.is_clean(), "stack {in_dim}->{widths:?}->{classes}:\n{report}");

        let (x, labels) = random_batch(batch, in_dim, classes, seed);
        let mut sizes = vec![in_dim];
        sizes.extend_from_slice(&widths);
        let run = |graph: bool| {
            let ctx = ExecCtx::native(OptLevel::Improved, 5);
            let mut net = micdnn::FineTuneNet::random(&sizes, classes, seed ^ 0x9E37);
            if graph {
                net = net.with_graph_schedule();
            }
            let losses: Vec<f64> = (0..steps)
                .map(|_| net.train_batch(&ctx, x.view(), &labels, 0.3))
                .collect();
            (losses, net)
        };
        let (serial_losses, serial) = run(false);
        let (wave_losses, wave) = run(true);
        prop_assert_eq!(serial_losses, wave_losses, "losses diverged");
        for (l, ((sw, sb), (ww, wb))) in
            serial.layer_params().iter().zip(wave.layer_params()).enumerate()
        {
            prop_assert_eq!(sw.as_slice(), ww.as_slice(), "layer {} weights diverged", l);
            prop_assert_eq!(sb, wb, "layer {} biases diverged", l);
        }
        prop_assert_eq!(serial.softmax.w.as_slice(), wave.softmax.w.as_slice());
        prop_assert_eq!(&serial.softmax.b, &wave.softmax.b);
    }

    /// The same contract for random conv+pool geometries through the CNN
    /// recipe — the stacks with no hand-rolled ancestor are held to the
    /// same bar as the paper's graphs.
    #[test]
    fn random_cnn_stacks_verify_clean_and_run_bit_identically(
        side in 6usize..13,
        kernel in 2usize..5,
        pool_pick in any::<usize>(),
        channels in 1usize..4,
        hidden in 2usize..10,
        classes in 2usize..6,
        batch in 1usize..6,
        steps in 1usize..4,
        seed in any::<u64>(),
    ) {
        prop_assume!(kernel <= side);
        let conv_side = side - kernel + 1;
        let divisors: Vec<usize> = (1..=conv_side).filter(|p| conv_side % p == 0).collect();
        let pool = divisors[pool_pick % divisors.len()];
        let cfg = micdnn::CnnConfig::new(side, channels, kernel, pool, hidden, classes);

        let g = micdnn::build_cnn_graph(cfg, batch);
        let report = g.verify();
        prop_assert!(report.is_clean(), "cnn {cfg:?} cap={batch}:\n{report}");

        let (x, labels) = random_batch(batch, cfg.input_dim(), classes, seed);
        let run = |graph: bool| {
            let ctx = ExecCtx::native(OptLevel::Improved, 5);
            let mut net = micdnn::CnnNet::new(cfg, seed ^ 0x9E37);
            if graph {
                net = net.with_graph_schedule();
            }
            let losses: Vec<f64> = (0..steps)
                .map(|_| net.train_batch(&ctx, x.view(), &labels, 0.3))
                .collect();
            (losses, net)
        };
        let (serial_losses, serial) = run(false);
        let (wave_losses, wave) = run(true);
        prop_assert_eq!(serial_losses, wave_losses, "losses diverged");
        prop_assert_eq!(serial.conv_w.as_slice(), wave.conv_w.as_slice());
        prop_assert_eq!(&serial.conv_b, &wave.conv_b);
        prop_assert_eq!(serial.dense_w.as_slice(), wave.dense_w.as_slice());
        prop_assert_eq!(&serial.dense_b, &wave.dense_b);
        prop_assert_eq!(serial.softmax.w.as_slice(), wave.softmax.w.as_slice());
        prop_assert_eq!(&serial.softmax.b, &wave.softmax.b);
    }
}
