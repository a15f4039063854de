//! Property-based tests (proptest) on the workspace's core invariants.

use micdnn::{check_autoencoder, estimate, AeConfig, Algo, OptLevel, SparseAutoencoder, Workload};
use micdnn_kernels::{gemm, naive, Par};
use micdnn_sim::{CostModel, Link, Platform, SimClock};
use micdnn_tensor::{max_abs_diff, Mat};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The blocked parallel GEMM agrees with the scalar reference for any
    /// shape, transpose combination and alpha/beta.
    #[test]
    fn gemm_matches_reference(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        ta in any::<bool>(),
        tb in any::<bool>(),
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = if ta { Mat::from_fn(k, m, |_, _| rng.gen_range(-1.0..1.0)) }
                else { Mat::from_fn(m, k, |_, _| rng.gen_range(-1.0..1.0)) };
        let b = if tb { Mat::from_fn(n, k, |_, _| rng.gen_range(-1.0..1.0)) }
                else { Mat::from_fn(k, n, |_, _| rng.gen_range(-1.0..1.0)) };
        let c0 = Mat::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));

        let mut c_ref = c0.clone();
        naive::gemm_ref(alpha, a.view(), ta, b.view(), tb, beta, &mut c_ref.view_mut());
        let mut c_fast = c0.clone();
        gemm(Par::Rayon, alpha, a.view(), ta, b.view(), tb, beta, &mut c_fast.view_mut());

        let tol = 1e-4 * (k as f32).sqrt().max(1.0) * (alpha.abs() + beta.abs() + 1.0);
        prop_assert!(
            max_abs_diff(c_fast.as_slice(), c_ref.as_slice()) < tol,
            "gemm deviates beyond {tol}"
        );
    }

    /// Back-propagation agrees with finite differences for random
    /// hyper-parameters.
    #[test]
    fn ae_gradients_match_finite_differences(
        v in 3usize..10,
        h in 2usize..8,
        b in 2usize..10,
        beta in 0.0f32..1.0,
        lambda in 0.0f32..0.01,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let cfg = AeConfig {
            n_visible: v,
            n_hidden: h,
            weight_decay: lambda,
            sparsity_target: 0.1,
            sparsity_weight: beta,
        };
        let ae = SparseAutoencoder::new(cfg, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xABCD);
        let x = Mat::from_fn(b, v, |_, _| rng.gen_range(0.15..0.85));
        let r = check_autoencoder(&ae, x.view(), 4, 5e-3, seed ^ 0x1234);
        prop_assert!(
            r.passes(5e-2),
            "gradient check failed: max rel err {} (v={v} h={h} b={b} beta={beta} lambda={lambda})",
            r.max_rel_err
        );
    }

    /// Cost-model prices are finite, non-negative, and monotone in core
    /// count for threaded execution.
    #[test]
    fn cost_model_sane(
        m in 1usize..2000,
        n in 1usize..2000,
        k in 1usize..2000,
        blas in any::<bool>(),
    ) {
        let op = micdnn_kernels::OpCost::gemm(m, n, k, blas);
        let mut last = f64::INFINITY;
        for cores in [1u32, 4, 16, 60] {
            let model = CostModel::new(Platform::xeon_phi_cores(cores));
            let t = model.price(&op, true);
            prop_assert!(t.is_finite() && t > 0.0);
            prop_assert!(t <= last * 1.000001, "more cores made it slower");
            last = t;
        }
        // Sequential price independent of platform core count.
        let a = CostModel::new(Platform::xeon_phi_cores(1)).price(&op, false);
        let b = CostModel::new(Platform::xeon_phi()).price(&op, false);
        prop_assert!((a - b).abs() < 1e-15);
    }

    /// The workload estimator is monotone in examples and never faster
    /// without double buffering.
    #[test]
    fn estimate_monotone_and_buffering_helps(
        v in 8usize..128,
        h in 8usize..128,
        batch in 1usize..64,
        chunks in 1usize..6,
    ) {
        let chunk_rows = (batch * 2).max(8);
        let w1 = Workload {
            algo: Algo::Rbm,
            n_visible: v,
            n_hidden: h,
            examples: chunk_rows * chunks,
            batch,
            chunk_rows,
            passes: 1,
        };
        let w2 = Workload { examples: w1.examples * 2, ..w1 };
        let link = Link { latency_s: 1e-4, wire_gbs: 0.01, host_pipeline_gbs: 0.01 };
        let lvl = OptLevel::Improved;
        let p = Platform::xeon_phi();
        let e1 = estimate(lvl, p.clone(), link, true, &w1);
        let e2 = estimate(lvl, p.clone(), link, true, &w2);
        prop_assert!(e2.total_secs >= e1.total_secs);
        let naive_run = estimate(lvl, p, link, false, &w1);
        prop_assert!(e1.total_secs <= naive_run.total_secs + 1e-12);
        prop_assert!(e1.compute_secs > 0.0 && e1.transfer_secs > 0.0);
    }

    /// The sim clock never goes backwards and sums exactly.
    #[test]
    fn clock_accumulates(steps in proptest::collection::vec(0.0f64..0.1, 1..50)) {
        let clock = SimClock::new();
        let mut total = 0.0;
        for &s in &steps {
            clock.advance(s);
            total += s;
            prop_assert!(clock.now() >= 0.0);
        }
        prop_assert!((clock.now() - total).abs() < 1e-6 * steps.len() as f64 + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random DAGs: the critical path is never longer than the serial sum
    /// and never shorter than the longest single node.
    #[test]
    fn task_graph_critical_path_bounds(
        n_nodes in 1usize..12,
        edge_seed in any::<u64>(),
        sizes in proptest::collection::vec(1000usize..100_000, 1..12),
    ) {
        use micdnn::{BufClass, ExecCtx, NodeSpec, TaskGraph};
        use micdnn_kernels::OpCost;
        use rand::{Rng, SeedableRng};

        let n = n_nodes.min(sizes.len());
        let mut rng = rand::rngs::StdRng::seed_from_u64(edge_seed);
        // Random subset of earlier nodes as dependencies.
        let deps: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..i).filter(|_| rng.gen_bool(0.4)).collect())
            .collect();
        let ctx = ExecCtx::simulated(OptLevel::Improved, Platform::xeon_phi(), 1);
        let mut g: TaskGraph<'_, ()> = TaskGraph::new();
        // Each drawn edge is a one-element buffer its source writes and its
        // target reads: `(source, target, buffer)`.
        let mut edges = Vec::new();
        for (t, ds) in deps.iter().enumerate() {
            for &s in ds {
                edges.push((s, t, g.declare_dims("edge", &[1], BufClass::Scratch)));
            }
        }
        for i in 0..n {
            let reads: Vec<_> = edges.iter().filter(|e| e.1 == i).map(|e| e.2).collect();
            let writes: Vec<_> = edges.iter().filter(|e| e.0 == i).map(|e| e.2).collect();
            let op = OpCost::elementwise(sizes[i], 1, 1);
            let spec = NodeSpec::new("node").reads(&reads).writes(&writes);
            g.node(spec.ops(move |_, _| vec![op]), move |ctx, _| {
                ctx.charge_cost(op);
            });
            prop_assert_eq!(g.deps(i), deps[i].as_slice());
        }
        let run = g.execute(&ctx, &mut ());
        let max_node = run.durations.iter().copied().fold(0.0f64, f64::max);
        prop_assert!(run.critical_path <= run.serial_time + 1e-12);
        prop_assert!(run.critical_path >= max_node - 1e-12);
        prop_assert!((ctx.sim_time() - run.critical_path).abs() < 1e-9);
    }

    /// Dataset normalization always lands in [0.1, 0.9] and binarization in
    /// {0, 1}, for any input data.
    #[test]
    fn dataset_transforms_bounded(
        rows in 1usize..30,
        cols in 1usize..20,
        scale in 0.01f32..100.0,
        offset in -50.0f32..50.0,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = Mat::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0) * scale + offset);
        let mut ds = micdnn_data::Dataset::new(m);
        ds.normalize();
        for &x in ds.matrix().as_slice() {
            prop_assert!((0.1 - 1e-3..=0.9 + 1e-3).contains(&x), "escaped range: {x}");
            prop_assert!(x.is_finite());
        }
        ds.binarize(0.5);
        for &x in ds.matrix().as_slice() {
            prop_assert!(x == 0.0 || x == 1.0);
        }
    }

    /// Chunking a dataset preserves every row in order.
    #[test]
    fn chunking_preserves_rows(rows in 1usize..50, cols in 1usize..10, chunk in 1usize..20) {
        let m = Mat::from_fn(rows, cols, |r, c| (r * cols + c) as f32);
        let ds = micdnn_data::Dataset::new(m.clone());
        let chunks = ds.into_chunks(chunk);
        let mut row = 0usize;
        for ch in &chunks {
            prop_assert_eq!(ch.cols(), cols);
            for r in 0..ch.rows() {
                prop_assert_eq!(ch.row(r), m.row(row));
                row += 1;
            }
        }
        prop_assert_eq!(row, rows);
    }
}
