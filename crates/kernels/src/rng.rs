//! Counter-based random numbers for parallel, reproducible sampling.
//!
//! RBM training samples binary hidden states every CD step. A sequential
//! `StdRng` would make the result depend on which thread sampled which
//! element first; instead each element `i` of a sampling operation draws
//! from `hash(seed, stream, i)`, so the bits are a pure function of
//! `(seed, stream, index)` — identical for any thread count and any
//! execution order. `stream` is advanced once per sampling op by the caller.
//!
//! The hash is SplitMix64, which passes BigCrush and is more than adequate
//! for Monte-Carlo style sampling.
//!
//! Sampling runs one `#[inline(always)]` body in the portable, AVX2 and
//! AVX-512 instantiations of the crate's `isa` module, picked by the same
//! detection as the GEMM, one call per chunk. Every draw is integer
//! arithmetic, a conversion of 24 bits that `f32` holds exactly and one
//! comparison, so the instantiations agree bit for bit by construction
//! (the tests pin it). The AVX-512 one has no 64-bit multiply without
//! AVX-512DQ, which the Xeon Phi x200 lacks; LLVM emulates it from 32-bit
//! ones and still draws several times faster than the scalar loop.

use crate::isa::{per_isa, Isa};
use crate::{Par, PAR_THRESHOLD};
use rayon::prelude::*;

/// SplitMix64 finalizer over a combined counter.
#[inline(always)]
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `f32` in `[0, 1)` as a pure function of `(seed, stream, idx)`.
#[inline(always)]
pub fn uniform01(seed: u64, stream: u64, idx: u64) -> f32 {
    let h = splitmix64(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407) ^ idx.rotate_left(17));
    // Take the top 24 bits for a dyadic uniform in [0, 1).
    (h >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// Identifies one sampling operation within a training run.
///
/// Streams must be unique per op; [`SampleStream::next`] hands them out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamId(pub u64);

/// Allocator of per-op stream ids, owned by a trainer.
#[derive(Debug, Clone)]
pub struct SampleStream {
    seed: u64,
    next: u64,
}

impl SampleStream {
    /// Creates a stream allocator for a run seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SampleStream { seed, next: 0 }
    }

    /// Recreates an allocator at a saved position: the next stream handed
    /// out is `StreamId(cursor)`, exactly as if `cursor` streams had
    /// already been issued. This is what lets a checkpointed training run
    /// resume with bit-identical sampling: persist [`SampleStream::seed`]
    /// and [`SampleStream::issued`], then resume from them.
    pub fn resume(seed: u64, cursor: u64) -> Self {
        SampleStream { seed, next: cursor }
    }

    /// Master seed of the run.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of streams handed out so far.
    pub fn issued(&self) -> u64 {
        self.next
    }

    /// Reserves the next unique stream id.
    #[allow(clippy::should_implement_trait)] // not an iterator: never ends
    pub fn next(&mut self) -> StreamId {
        let id = StreamId(self.next);
        self.next += 1;
        id
    }
}

/// Bernoulli-samples `out[i] = (uniform01 < probs[i]) ? 1.0 : 0.0`.
///
/// Deterministic for a given `(seed, stream)` regardless of `par`.
pub fn bernoulli(par: Par, seed: u64, stream: StreamId, probs: &[f32], out: &mut [f32]) {
    bernoulli_at(par, seed, stream, 0, probs, out);
}

/// [`bernoulli`] over a window of a larger logical sampling op: element `i`
/// of `out` draws from counter `elem_base + i` on the stream.
///
/// This is what lets a sharded batch sample *the same bits* as the
/// unsharded batch: each shard passes its global element offset, so the
/// draw for a given logical element is a pure function of
/// `(seed, stream, global index)` no matter how the batch was split.
pub(crate) fn bernoulli_at(
    par: Par,
    seed: u64,
    stream: StreamId,
    elem_base: u64,
    probs: &[f32],
    out: &mut [f32],
) {
    bernoulli_at_on(Isa::detect(), par, seed, stream, elem_base, probs, out);
}

/// [`bernoulli_at`] on the `isa` instantiation.
fn bernoulli_at_on(
    isa: Isa,
    par: Par,
    seed: u64,
    stream: StreamId,
    elem_base: u64,
    probs: &[f32],
    out: &mut [f32],
) {
    assert_eq!(probs.len(), out.len(), "bernoulli: length mismatch");
    let body = |base: usize, pc: &[f32], oc: &mut [f32]| {
        bernoulli_on(isa, seed, stream.0, elem_base + base as u64, pc, oc);
    };
    if par.is_parallel() && out.len() >= PAR_THRESHOLD {
        out.par_chunks_mut(PAR_THRESHOLD)
            .zip(probs.par_chunks(PAR_THRESHOLD))
            .enumerate()
            .for_each(|(ci, (oc, pc))| body(ci * PAR_THRESHOLD, pc, oc));
    } else {
        body(0, probs, out);
    }
}

per_isa! {
    /// [`bernoulli_chunk`] as compiled for `isa`.
    fn bernoulli_on(seed: u64, stream: u64, base: u64, probs: &[f32], out: &mut [f32]) =
        bernoulli_chunk;
}

/// `out[i] = (uniform01(seed, stream, base + i) < probs[i]) ? 1.0 : 0.0`.
#[inline(always)]
fn bernoulli_chunk(seed: u64, stream: u64, base: u64, probs: &[f32], out: &mut [f32]) {
    for (i, (&p, o)) in probs.iter().zip(out.iter_mut()).enumerate() {
        let u = uniform01(seed, stream, base + i as u64);
        *o = if u < p { 1.0 } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::tests::instantiations;
    use crate::vecops::tests::{bits, hostile_values, mixed_values, SWEEP_LENGTHS};

    #[test]
    fn bernoulli_instantiations_bitwise_equal_to_portable() {
        // Probabilities in [0, 1], hostile values (NaN never fires, a
        // negative probability never, one above 1 always) and a base
        // offset large enough to use the counter's high bits.
        let isas = instantiations("bernoulli_instantiations_bitwise_equal_to_portable");
        for len in SWEEP_LENGTHS {
            let probs: Vec<f32> = mixed_values(len, 6)
                .iter()
                .enumerate()
                .map(|(i, &x)| if i % 2 == 0 { x } else { x / 70.0 + 0.5 })
                .collect();
            for elem_base in [0, 13, 1 << 40] {
                let mut portable = vec![0.5f32; len];
                bernoulli_at_on(
                    Isa::Portable,
                    Par::Seq,
                    9,
                    StreamId(2),
                    elem_base,
                    &probs,
                    &mut portable,
                );
                for &isa in &isas {
                    for par in [Par::Seq, Par::Rayon] {
                        let mut out = vec![0.5f32; len];
                        bernoulli_at_on(isa, par, 9, StreamId(2), elem_base, &probs, &mut out);
                        assert_eq!(
                            bits(&portable),
                            bits(&out),
                            "{isa:?} {par:?} at length {len}, base {elem_base}"
                        );
                    }
                }
            }
        }
        let hostile = hostile_values();
        let mut out = vec![0.5f32; hostile.len()];
        bernoulli(Par::Seq, 1, StreamId(0), &hostile, &mut out);
        for (&p, &o) in hostile.iter().zip(&out) {
            if p.is_nan() || p <= 0.0 {
                assert_eq!(o, 0.0, "p = {p:e} never fires");
            } else if p >= 1.0 {
                assert_eq!(o, 1.0, "p = {p:e} always fires");
            }
        }
    }

    #[test]
    fn uniform01_in_range_and_varied() {
        let mut seen_low = false;
        let mut seen_high = false;
        for i in 0..10_000 {
            let u = uniform01(42, 0, i);
            assert!((0.0..1.0).contains(&u));
            if u < 0.1 {
                seen_low = true;
            }
            if u > 0.9 {
                seen_high = true;
            }
        }
        assert!(seen_low && seen_high);
    }

    #[test]
    fn uniform01_mean_close_to_half() {
        let n = 100_000;
        let mean: f64 = (0..n).map(|i| uniform01(7, 3, i) as f64).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn streams_decorrelate() {
        // The same index on different streams must differ essentially always.
        let same = (0..1000)
            .filter(|&i| uniform01(1, 0, i) == uniform01(1, 1, i))
            .count();
        assert!(same < 3, "{same} collisions across streams");
    }

    #[test]
    fn bernoulli_deterministic_across_par() {
        let probs: Vec<f32> = (0..50_000).map(|i| (i % 100) as f32 / 100.0).collect();
        let mut a = vec![0.0f32; probs.len()];
        let mut b = vec![0.0f32; probs.len()];
        bernoulli(Par::Seq, 9, StreamId(4), &probs, &mut a);
        bernoulli(Par::Rayon, 9, StreamId(4), &probs, &mut b);
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn bernoulli_at_windows_reassemble_the_full_op() {
        // Sampling a batch in arbitrary contiguous windows must reproduce
        // the bits of the one-shot op — the sharding equivalence property.
        let probs: Vec<f32> = (0..40_000).map(|i| (i % 97) as f32 / 97.0).collect();
        let mut whole = vec![0.0f32; probs.len()];
        bernoulli(Par::Rayon, 21, StreamId(7), &probs, &mut whole);
        for &splits in &[1usize, 2, 3, 7, 40_000] {
            let mut pieced = vec![0.0f32; probs.len()];
            let chunk = probs.len().div_ceil(splits);
            let mut lo = 0;
            while lo < probs.len() {
                let hi = (lo + chunk).min(probs.len());
                bernoulli_at(
                    Par::Seq,
                    21,
                    StreamId(7),
                    lo as u64,
                    &probs[lo..hi],
                    &mut pieced[lo..hi],
                );
                lo = hi;
            }
            assert_eq!(whole, pieced, "{splits}-way split diverged");
        }
    }

    #[test]
    fn bernoulli_matches_probability() {
        let p = 0.3f32;
        let probs = vec![p; 200_000];
        let mut out = vec![0.0f32; probs.len()];
        bernoulli(Par::Seq, 11, StreamId(0), &probs, &mut out);
        let frac = out.iter().sum::<f32>() / out.len() as f32;
        assert!((frac - p).abs() < 0.005, "frac {frac}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut out = vec![0.5f32; 1000];
        bernoulli(Par::Seq, 1, StreamId(0), &vec![0.0; 1000], &mut out);
        assert!(out.iter().all(|&v| v == 0.0), "p=0 never fires");
        bernoulli(Par::Seq, 1, StreamId(0), &vec![1.0; 1000], &mut out);
        assert!(out.iter().all(|&v| v == 1.0), "p=1 always fires");
    }

    #[test]
    fn stream_allocator_is_sequential() {
        let mut s = SampleStream::new(5);
        assert_eq!(s.next(), StreamId(0));
        assert_eq!(s.next(), StreamId(1));
        assert_eq!(s.issued(), 2);
        assert_eq!(s.seed(), 5);
    }

    #[test]
    fn resumed_allocator_continues_the_run() {
        let mut a = SampleStream::new(5);
        for _ in 0..7 {
            a.next();
        }
        let mut b = SampleStream::resume(a.seed(), a.issued());
        assert_eq!(b.next(), a.next(), "resume must continue the sequence");
        assert_eq!(b.issued(), a.issued());
    }
}
