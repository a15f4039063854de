//! Property tests on the compute kernels: agreement with scalar references
//! across shapes and backends, determinism under threading, and RNG
//! stream properties.

use micdnn_kernels::rng::{uniform01, StreamId};
use micdnn_kernels::{naive, rng, sum_sq, Backend, Par};
use micdnn_tensor::{max_abs_diff, Mat};
use proptest::prelude::*;

fn backends() -> [Backend; 5] {
    [
        Backend::baseline(),
        Backend::threaded(),
        Backend::threaded_blas(),
        Backend::improved(),
        Backend::sequential_blas(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every backend's GEMM agrees with the scalar reference.
    #[test]
    fn all_backends_gemm_agree(
        m in 1usize..24, n in 1usize..24, k in 1usize..24,
        ta in any::<bool>(), tb in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = if ta { Mat::from_fn(k, m, |_, _| rng.gen_range(-1.0..1.0)) }
                else { Mat::from_fn(m, k, |_, _| rng.gen_range(-1.0..1.0)) };
        let b = if tb { Mat::from_fn(n, k, |_, _| rng.gen_range(-1.0..1.0)) }
                else { Mat::from_fn(k, n, |_, _| rng.gen_range(-1.0..1.0)) };
        let mut reference = Mat::zeros(m, n);
        naive::gemm_ref(1.0, a.view(), ta, b.view(), tb, 0.0, &mut reference.view_mut());
        for be in backends() {
            let mut c = Mat::zeros(m, n);
            be.gemm(1.0, a.view(), ta, b.view(), tb, 0.0, &mut c.view_mut());
            prop_assert!(
                max_abs_diff(c.as_slice(), reference.as_slice()) < 1e-3,
                "{be:?} diverged at {m}x{n}x{k} ta={ta} tb={tb}"
            );
        }
    }

    /// Fused kernels equal their unfused two-pass definitions exactly.
    #[test]
    fn fusion_preserves_math(rows in 1usize..20, cols in 1usize..40, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let src = Mat::from_fn(rows, cols, |_, _| rng.gen_range(-3.0..3.0));
        let bias: Vec<f32> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();

        let (fused, two_passes) = (Backend::improved(), Backend::threaded_blas());
        let mut fused_out = src.clone();
        fused.bias_sigmoid_rows(&bias, &mut fused_out.view_mut());
        let mut two_pass = src.clone();
        two_passes.bias_sigmoid_rows(&bias, &mut two_pass.view_mut());
        prop_assert_eq!(fused_out.as_slice(), two_pass.as_slice());

        // delta_output vs sub + backprop.
        let z = Mat::from_fn(rows, cols, |_, _| rng.gen_range(0.01..0.99));
        let x = Mat::from_fn(rows, cols, |_, _| rng.gen_range(0.0..1.0));
        let mut d1 = vec![0.0f32; rows * cols];
        fused.delta_output(z.as_slice(), x.as_slice(), &mut d1);
        let mut d2 = vec![0.0f32; rows * cols];
        two_passes.delta_output(z.as_slice(), x.as_slice(), &mut d2);
        prop_assert!(max_abs_diff(&d1, &d2) < 1e-6);
    }

    /// Threading never changes bits for the deterministic kernels.
    #[test]
    fn threading_bitwise_stable(len in 1usize..60_000, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<f32> = (0..len).map(|_| r.gen_range(-1.0..1.0)).collect();
        let mut a = vec![0.5f32; len];
        let mut b = vec![0.5f32; len];
        Backend::sequential_blas().axpy(1.25, &x, &mut a);
        Backend::threaded_blas().axpy(1.25, &x, &mut b);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(sum_sq(Par::Seq, &a), sum_sq(Par::Rayon, &b));
    }

    /// Column sums equal the reference for any shape, threaded or not.
    #[test]
    fn colsum_agrees(rows in 0usize..60, cols in 1usize..200, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let m = Mat::from_fn(rows, cols, |_, _| r.gen_range(-1.0..1.0));
        let mut expect = vec![0.0f32; cols];
        naive::colsum_ref(m.view(), &mut expect);
        for be in [Backend::sequential_blas(), Backend::threaded_blas()] {
            let mut got = vec![0.0f32; cols];
            be.colsum(m.view(), &mut got);
            prop_assert!(max_abs_diff(&got, &expect) < 1e-4 * (rows as f32 + 1.0));
        }
    }

    /// The counter RNG is a pure function: same inputs, same outputs; and
    /// bernoulli respects 0/1 outputs with frequency tracking p.
    #[test]
    fn counter_rng_properties(seed in any::<u64>(), stream in any::<u64>(), idx in any::<u64>()) {
        let u = uniform01(seed, stream, idx);
        prop_assert!((0.0..1.0).contains(&u));
        prop_assert_eq!(u, uniform01(seed, stream, idx));
    }

    #[test]
    fn bernoulli_threaded_deterministic(len in 1usize..40_000, p in 0.0f32..1.0, seed in any::<u64>()) {
        let probs = vec![p; len];
        let mut a = vec![0.0f32; len];
        let mut b = vec![0.0f32; len];
        rng::bernoulli(Par::Seq, seed, StreamId(3), &probs, &mut a);
        rng::bernoulli(Par::Rayon, seed, StreamId(3), &probs, &mut b);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.iter().all(|&v| v == 0.0 || v == 1.0));
        if len > 10_000 {
            let frac = a.iter().sum::<f32>() / len as f32;
            prop_assert!((frac - p).abs() < 0.05, "frequency {frac} vs p {p}");
        }
    }

    /// SGD step shrinks toward the gradient direction: cost of a quadratic
    /// decreases for small lr.
    #[test]
    fn sgd_descends_quadratic(n in 1usize..200, lr in 0.001f32..0.2, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let mut w: Vec<f32> = (0..n).map(|_| r.gen_range(-1.0..1.0)).collect();
        // f(w) = 0.5 ||w||^2, grad = w.
        let before: f32 = w.iter().map(|v| v * v).sum();
        let g = w.clone();
        Backend::improved().sgd_step(lr, 0.0, &g, &mut w);
        let after: f32 = w.iter().map(|v| v * v).sum();
        prop_assert!(after <= before, "SGD increased the quadratic: {before} -> {after}");
    }
}
