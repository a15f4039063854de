//! Property tests on the synthetic data generators.

use micdnn_data::{ChunkGeometry, Dataset, DigitGenerator, PatchGenerator};
use micdnn_tensor::Mat;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Digit rendering is deterministic per seed, bounded, and produces
    /// ink for every class.
    #[test]
    fn digits_bounded_and_deterministic(side in 8usize..24, seed in any::<u64>(), digit in 0u8..10) {
        let mut a = DigitGenerator::new(side, seed);
        let mut b = DigitGenerator::new(side, seed);
        let img_a = a.render(digit).unwrap();
        let img_b = b.render(digit).unwrap();
        prop_assert_eq!(&img_a, &img_b);
        prop_assert_eq!(img_a.len(), side * side);
        let ink: f32 = img_a.iter().sum();
        prop_assert!(img_a.iter().all(|&v| (0.0..=1.0).contains(&v)));
        prop_assert!(ink > 0.5, "digit {digit} blank at side {side}");
    }

    /// Patches are finite, deterministic per seed, and the right size.
    #[test]
    fn patches_well_formed(side in 4usize..20, seed in any::<u64>()) {
        let mut a = PatchGenerator::new(side, seed);
        let mut b = PatchGenerator::new(side, seed);
        for _ in 0..5 {
            let pa = a.sample();
            let pb = b.sample();
            prop_assert_eq!(&pa, &pb);
            prop_assert_eq!(pa.len(), side * side);
            prop_assert!(pa.iter().all(|v| v.is_finite()));
        }
    }

    /// Normalization is idempotent in range: normalizing already-normalized
    /// data keeps it within [0.1, 0.9].
    #[test]
    fn normalize_stable(rows in 1usize..40, cols in 1usize..20, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = Mat::from_fn(rows, cols, |_, _| rng.gen_range(-100.0f32..100.0));
        let mut ds = Dataset::new(m);
        ds.normalize();
        ds.normalize();
        for &v in ds.matrix().as_slice() {
            prop_assert!((0.1 - 1e-3..=0.9 + 1e-3).contains(&v));
        }
    }

    /// Shuffling with different seeds gives different orders (almost
    /// always) but identical multisets.
    #[test]
    fn shuffle_permutes(n in 4usize..50, s1 in any::<u64>(), s2 in any::<u64>()) {
        prop_assume!(s1 != s2);
        let base = Dataset::new(Mat::from_fn(n, 2, |r, _| r as f32));
        let mut a = base.clone();
        let mut b = base.clone();
        a.shuffle(s1);
        b.shuffle(s2);
        let sum_a: f64 = a.matrix().sum();
        let sum_b: f64 = b.matrix().sum();
        prop_assert_eq!(sum_a, sum_b, "shuffle changed content");
    }

    /// The harness itself: a case `prop_assume!` discards is not a pass,
    /// so a property that discards every case fails instead of passing
    /// vacuously.
    #[test]
    #[should_panic(expected = "rejected 1024 cases with 0/16 accepted")]
    fn a_property_that_discards_every_case_fails(n in 4usize..50) {
        prop_assume!(n < 4);
    }

    /// batch_bounds tiles the dataset exactly.
    #[test]
    fn batch_bounds_tile(n in 1usize..100, batch in 1usize..40) {
        let ds = Dataset::new(Mat::zeros(n, 1));
        let mut expected_lo = 0usize;
        let mut covered = 0usize;
        for (lo, hi) in ds.batch_bounds(batch) {
            prop_assert_eq!(lo, expected_lo);
            prop_assert!(hi > lo && hi <= n);
            prop_assert!(hi - lo <= batch);
            covered += hi - lo;
            expected_lo = hi;
        }
        prop_assert_eq!(covered, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The geometry's closed forms agree with a literal walk of the
    /// training loop's chunk/batch split (Algorithm 1, lines 3–5),
    /// including chunks that are not a multiple of the batch and a short
    /// last chunk.
    #[test]
    fn geometry_matches_a_walk_of_the_loop(
        rows in 1usize..200,
        chunk in 1usize..64,
        batch in 1usize..32,
        passes in 1usize..4,
    ) {
        let mut batch_rows = Vec::new();
        let mut chunk_lo = 0;
        while chunk_lo < rows {
            let chunk_hi = (chunk_lo + chunk).min(rows);
            let mut lo = chunk_lo;
            while lo < chunk_hi {
                let hi = (lo + batch).min(chunk_hi);
                batch_rows.push((hi - lo) as u64);
                lo = hi;
            }
            chunk_lo = chunk_hi;
        }
        let per_epoch = batch_rows.len() as u64;

        let g = ChunkGeometry::new(rows, chunk, batch);
        prop_assert_eq!(g.batches_per_epoch(), per_epoch);
        let mut examples = 0u64;
        for pos in 0..=passes as u64 * per_epoch {
            prop_assert_eq!(g.epoch_of(pos), pos / per_epoch);
            prop_assert_eq!(g.examples_before(pos), examples);
            examples += batch_rows[(pos % per_epoch) as usize];
        }
    }
}
