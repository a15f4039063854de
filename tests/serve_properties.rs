//! Property tests for the batched serving path: for **any** arrival
//! interleaving and **any** micro-batching policy (`max_batch` ×
//! `max_wait` split), every admitted request's probabilities land
//! *bitwise* on the serial baseline — the same net's `predict_proba` on
//! that request alone. Batching is a scheduling decision; it must never
//! touch the numerics.
//!
//! This leans on the kernel row-independence contract: GEMM parallelizes
//! over disjoint row blocks of the output with a fixed per-row reduction
//! order, and the bias+sigmoid and softmax sweeps are row-local, so a row
//! computed inside a 64-row micro-batch is the same f32s as the row
//! computed alone.

use micdnn::{
    serve_requests, CnnConfig, CnnNet, ExecCtx, FineTuneNet, OptLevel, Request, ServeConfig,
    ServeError,
};
use micdnn_data::DigitGenerator;
use micdnn_tensor::MatView;
use proptest::prelude::*;

fn request_rows(n: usize, in_dim: usize, seed: u64) -> Vec<Vec<f32>> {
    // Deterministic inputs in (0, 1) — sigmoid's working range — hashed per
    // element (splitmix64's finaliser), so no two rows are alike and an
    // answer handed to the wrong request shows.
    (0..n)
        .map(|i| {
            (0..in_dim)
                .map(|j| {
                    let mut h =
                        seed ^ ((i * in_dim + j) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    h ^= h >> 31;
                    (1 + h % 999) as f32 / 1000.0
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any arrival pattern under any batching split: outputs bitwise
    /// equal to the serial per-request forward pass.
    #[test]
    fn batched_serving_is_bitwise_serial(
        n in 1usize..24,
        max_batch in 1usize..12,
        // Gap scale spans "all simultaneous" to "fully spread".
        gaps in proptest::collection::vec(0u32..3, 1..24),
        max_wait_us in 0u64..2000,
        seed in any::<u64>(),
    ) {
        let in_dim = 20;
        let net = FineTuneNet::random(&[in_dim, 12, 8], 5, seed % 1000);
        let ctx = ExecCtx::native(OptLevel::Improved, 0);

        let rows = request_rows(n, in_dim, seed);
        let mut t = 0.0f64;
        let requests: Vec<Request> = rows
            .iter()
            .enumerate()
            .map(|(i, input)| {
                t += gaps[i % gaps.len()] as f64 * 1e-4;
                Request { arrival_secs: t, input: input.clone() }
            })
            .collect();

        let cfg = ServeConfig {
            max_batch,
            max_wait_secs: max_wait_us as f64 * 1e-6,
            queue_cap: n.max(1), // admit everything: numerics are the subject
        };
        let run = serve_requests(&net, &ctx, &cfg, &requests).unwrap();
        prop_assert_eq!(run.report.completed as usize, n);
        prop_assert_eq!(run.report.rejected, 0);
        prop_assert_eq!(run.report.failed, 0);

        for (i, outcome) in run.outcomes.iter().enumerate() {
            let got = outcome.result.as_ref().expect("completed");
            let serial = net.predict_proba(&ctx, MatView::new(&rows[i], 1, in_dim));
            prop_assert_eq!(
                got.as_slice(),
                serial.as_slice(),
                "request {} diverged from the serial forward pass", i
            );
        }
    }

    /// The same property for the CNN, served through its own forward graph:
    /// im2col, the conv product, pooling and the dense tail are row-local
    /// too, so a micro-batch changes no bit of any image's answer.
    #[test]
    fn batched_cnn_serving_is_bitwise_serial(
        n in 1usize..16,
        max_batch in 1usize..8,
        gaps in proptest::collection::vec(0u32..3, 1..16),
        max_wait_us in 0u64..2000,
        seed in any::<u64>(),
    ) {
        let net = CnnNet::new(CnnConfig::digits(12), seed % 1000);
        let in_dim = net.config().input_dim();
        let ctx = ExecCtx::native(OptLevel::Improved, 0);

        // Rendered digits: no two images alike, so an answer scattered to
        // the wrong request shows.
        let images = DigitGenerator::new(12, seed).matrix(n);
        let rows: Vec<Vec<f32>> = (0..n).map(|i| images.row(i).to_vec()).collect();
        let mut t = 0.0f64;
        let requests: Vec<Request> = rows
            .iter()
            .enumerate()
            .map(|(i, input)| {
                t += gaps[i % gaps.len()] as f64 * 1e-4;
                Request { arrival_secs: t, input: input.clone() }
            })
            .collect();
        let cfg = ServeConfig {
            max_batch,
            max_wait_secs: max_wait_us as f64 * 1e-6,
            queue_cap: n,
        };
        let run = serve_requests(&net, &ctx, &cfg, &requests).unwrap();
        prop_assert_eq!(run.report.completed as usize, n);

        for (i, outcome) in run.outcomes.iter().enumerate() {
            let got = outcome.result.as_ref().expect("completed");
            let serial = net.predict_proba(&ctx, MatView::new(&rows[i], 1, in_dim));
            prop_assert_eq!(
                got.as_slice(),
                serial.as_slice(),
                "image {} diverged from the serial forward pass", i
            );
        }
    }

    /// Backpressure accounting: with a tight queue in front of a burst,
    /// every request is either answered bitwise-correctly or rejected
    /// with the typed overload error — never lost, never mangled.
    #[test]
    fn overload_never_loses_or_mangles_requests(
        n in 2usize..32,
        queue_cap in 1usize..6,
        seed in any::<u64>(),
    ) {
        let in_dim = 20;
        let net = FineTuneNet::random(&[in_dim, 10], 3, seed % 1000);
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let rows = request_rows(n, in_dim, seed);
        // Worst case: the whole load lands at t=0.
        let requests: Vec<Request> = rows
            .iter()
            .map(|input| Request { arrival_secs: 0.0, input: input.clone() })
            .collect();
        let cfg = ServeConfig { max_batch: 2, max_wait_secs: 0.0, queue_cap };
        let run = serve_requests(&net, &ctx, &cfg, &requests).unwrap();

        prop_assert_eq!(run.outcomes.len(), n);
        let r = &run.report;
        prop_assert_eq!((r.completed + r.rejected + r.failed) as usize, n);
        prop_assert_eq!(r.failed, 0);
        prop_assert_eq!(r.completed as usize, queue_cap.min(n));
        for (i, outcome) in run.outcomes.iter().enumerate() {
            match &outcome.result {
                Ok(probs) => {
                    let serial = net.predict_proba(&ctx, MatView::new(&rows[i], 1, in_dim));
                    prop_assert_eq!(probs.as_slice(), serial.as_slice());
                }
                Err(ServeError::Overloaded { queue_cap: cap }) => {
                    prop_assert_eq!(*cap, queue_cap);
                }
                Err(e) => prop_assert!(false, "unexpected error for request {}: {}", i, e),
            }
        }
    }
}
