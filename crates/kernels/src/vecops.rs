//! SIMD-friendly elementwise slice kernels.
//!
//! These are the "vectorized" rung of the paper's optimization ladder: each
//! loop is written over fixed-width chunks with independent lanes so that
//! LLVM's autovectorizer emits wide vector code (the analog of the Phi's
//! 512-bit VPU instructions the paper hand-vectorizes with pragmas).
//!
//! Every kernel has a scalar-equivalent definition, and the parallel
//! variants split work by disjoint chunks, so results are bitwise identical
//! across `Par::Seq` and `Par::Rayon`.
//!
//! **The sigmoid, at every vector width.** [`sigmoid_inplace`] runs one
//! `#[inline(always)]` body in the portable, AVX2 and AVX-512
//! instantiations the GEMM has (the crate's `isa` module), picked by the
//! same detection, one call per chunk. Its `e^x` is [`expf`], this
//! crate's own: glibc's table-driven `expf` algorithm (`e_expf.c`, from
//! Arm's optimized-routines, in glibc since 2.27), with its constants.
//! `x * 32 / ln 2` is split into an integer `k` and a remainder `r`;
//! `2^(k/32)` comes from a 32-entry table, `2^(r/32)` from a degree-3
//! polynomial, and the product is rounded to `f32` once. The table holds
//! the bits of the correctly rounded `2^(i/32)` minus `i << 47`, so that
//! adding `k << 47` to an entry also puts `k / 32` in the exponent. The
//! arithmetic is plain `f64` `+ - *` throughout: no `mul_add`, which Rust
//! never forms on its own, so each instantiation gets the same IEEE result,
//! and the portable one needs no `fmaf` call. On the sigmoid's clamp range
//! `[-30, 30]` it equals glibc's `expf` bit for bit on every input (an
//! ignored test sweeps all of them), so the sigmoid gives the bits it gave
//! through glibc, and now the same bits on every platform and libm.

use crate::isa::{per_isa, Isa};
use crate::{Par, PAR_THRESHOLD};
use rayon::prelude::*;

/// Lane count the chunked loops are written for (16 f32 = one 512-bit
/// register, matching the Phi's VPU width).
pub(crate) const LANES: usize = 16;

macro_rules! par_zip2 {
    ($par:expr, $y:expr, $x:expr, $chunk_body:expr) => {{
        let body = $chunk_body;
        if $par.is_parallel() && $y.len() >= PAR_THRESHOLD {
            $y.par_chunks_mut(PAR_THRESHOLD)
                .zip($x.par_chunks(PAR_THRESHOLD))
                .for_each(|(yc, xc)| body(yc, xc));
        } else {
            body($y, $x);
        }
    }};
}

macro_rules! par_map1 {
    ($par:expr, $y:expr, $chunk_body:expr) => {{
        let body = $chunk_body;
        if $par.is_parallel() && $y.len() >= PAR_THRESHOLD {
            $y.par_chunks_mut(PAR_THRESHOLD).for_each(|yc| body(yc));
        } else {
            body($y);
        }
    }};
}

/// `y += alpha * x`.
pub(crate) fn axpy(par: Par, alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    par_zip2!(par, y, x, |yc: &mut [f32], xc: &[f32]| {
        axpy_chunk(alpha, xc, yc)
    });
}

#[inline]
pub(crate) fn axpy_chunk(alpha: f32, x: &[f32], y: &mut [f32]) {
    let n = y.len();
    let (yv, yt) = y.split_at_mut(n - n % LANES);
    let (xv, xt) = x.split_at(n - n % LANES);
    for (yc, xc) in yv.chunks_exact_mut(LANES).zip(xv.chunks_exact(LANES)) {
        for l in 0..LANES {
            yc[l] += alpha * xc[l];
        }
    }
    for (yy, xx) in yt.iter_mut().zip(xt) {
        *yy += alpha * *xx;
    }
}

/// Fixed-order gradient merge: `out[i] = ((parts[0][i] + parts[1][i]) +
/// parts[2][i]) + ...`, left-folded in part order for every element.
///
/// This is the reduction step of multi-device data-parallel training: each
/// part is one canonical microblock's partial gradient, and the left-fold
/// order is pinned so the merged gradient is bitwise independent of how
/// many devices computed the parts. The first part is *copied* (not added
/// to a zeroed buffer) so `0.0 + -0.0` cannot flip a sign bit. Per-element
/// independence makes the result identical across `Par::Seq` and
/// `Par::Rayon`, and identical to a `copy` followed by sequential
/// `axpy(1.0, ..)` sweeps in part order.
pub(crate) fn block_merge(par: Par, parts: &[&[f32]], out: &mut [f32]) {
    let Some((first, rest)) = parts.split_first() else {
        out.fill(0.0);
        return;
    };
    for (k, p) in parts.iter().enumerate() {
        assert_eq!(p.len(), out.len(), "block_merge: part {k} length mismatch");
    }
    let body = |oc: &mut [f32], base: usize| {
        oc.copy_from_slice(&first[base..base + oc.len()]);
        for p in rest {
            axpy_chunk(1.0, &p[base..base + oc.len()], oc);
        }
    };
    if par.is_parallel() && out.len() >= PAR_THRESHOLD {
        out.par_chunks_mut(PAR_THRESHOLD)
            .enumerate()
            .for_each(|(ci, oc)| body(oc, ci * PAR_THRESHOLD));
    } else {
        body(out, 0);
    }
}

/// `y *= alpha`.
pub(crate) fn scale(par: Par, alpha: f32, y: &mut [f32]) {
    par_map1!(par, y, |yc: &mut [f32]| {
        for v in yc {
            *v *= alpha;
        }
    });
}

/// `out = a - b`, writing into `out`.
pub(crate) fn sub(par: Par, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    assert_eq!(a.len(), out.len(), "sub: out length mismatch");
    if par.is_parallel() && out.len() >= PAR_THRESHOLD {
        out.par_chunks_mut(PAR_THRESHOLD)
            .zip(a.par_chunks(PAR_THRESHOLD).zip(b.par_chunks(PAR_THRESHOLD)))
            .for_each(|(oc, (ac, bc))| {
                for i in 0..oc.len() {
                    oc[i] = ac[i] - bc[i];
                }
            });
    } else {
        for i in 0..out.len() {
            out[i] = a[i] - b[i];
        }
    }
}

/// Logistic sigmoid applied in place: `y = 1 / (1 + exp(-y))`.
pub(crate) fn sigmoid_inplace(par: Par, y: &mut [f32]) {
    sigmoid_inplace_on(Isa::detect(), par, y);
}

/// [`sigmoid_inplace`] on the `isa` instantiation.
fn sigmoid_inplace_on(isa: Isa, par: Par, y: &mut [f32]) {
    par_map1!(par, y, |yc: &mut [f32]| sigmoid_on(isa, yc));
}

per_isa! {
    /// [`sigmoid_chunk`] as compiled for `isa`.
    fn sigmoid_on(y: &mut [f32]) = sigmoid_chunk;
}

#[inline(always)]
pub(crate) fn sigmoid_chunk(y: &mut [f32]) {
    for v in y {
        *v = sigmoid_scalar(*v);
    }
}

/// Scalar logistic sigmoid, clamped so `exp` never overflows.
#[inline(always)]
pub(crate) fn sigmoid_scalar(x: f32) -> f32 {
    let x = x.clamp(-30.0, 30.0);
    1.0 / (1.0 + expf(-x))
}

/// `2^(i/32)` for `i` in `0..32`, as the bits of the correctly rounded
/// `f64` minus `i << 47`: glibc's `__exp2f_data.tab`.
#[rustfmt::skip]
const EXP2_TABLE: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];
/// `32 / ln 2` (`0x1.71547652b82fep0 * 32`).
const INV_LN2_32: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5 * 2^52`: adding it rounds to an integer, ties to even, and leaves
/// that integer in the low bits of the sum.
const ROUND_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The polynomial's coefficients of `r^3`, `r^2` and `r`, pre-divided by
/// `32^3`, `32^2` and `32`: `0x1.c6af84b912394p-5`, `0x1.ebfce50fac4f3p-3`
/// and `0x1.62e42ff0c52d6p-1` before the scaling.
const EXP2_POLY: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];

/// `e^x` by glibc's `expf` algorithm, for `x` inside the sigmoid's clamp
/// range (see the module docs); outside `[-88, 88]` glibc takes branches
/// this function does not, and the two may differ.
///
/// A NaN comes back quietened with its payload and sign, as glibc's
/// `x + x` returns it. Those bits are set here rather than left to the
/// arithmetic, because LLVM may choose a NaN's sign and payload in
/// arithmetic: left to it, the AVX2 instantiation returned the sigmoid's
/// NaN with the sign of `x` instead of `-x`.
#[inline(always)]
fn expf(x: f32) -> f32 {
    if x.is_nan() {
        return f32::from_bits(x.to_bits() | 0x0040_0000);
    }
    // x * 32 / ln 2 = k + r, with k an integer and |r| <= 1/2.
    let z = INV_LN2_32 * f64::from(x);
    let shifted = z + ROUND_SHIFT;
    let ki = shifted.to_bits();
    let r = z - (shifted - ROUND_SHIFT);
    // e^x = 2^(k/32) * 2^(r/32) ~= s * (c0 r^3 + c1 r^2 + c2 r + 1).
    let s = f64::from_bits(EXP2_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let [c0, c1, c2] = EXP2_POLY;
    let y = (c0 * r + c1) * (r * r) + (c2 * r + 1.0);
    (y * s) as f32
}

/// Derivative of sigmoid expressed through its output: `g = y * (1 - y)`,
/// multiplied into `delta` in place (`delta *= y * (1 - y)`).
pub(crate) fn sigmoid_backprop_assign(par: Par, y: &[f32], delta: &mut [f32]) {
    assert_eq!(y.len(), delta.len(), "sigmoid_backprop: length mismatch");
    par_zip2!(par, delta, y, |dc: &mut [f32], yc: &[f32]| {
        for i in 0..dc.len() {
            dc[i] *= yc[i] * (1.0 - yc[i]);
        }
    });
}

/// Dot product with f64 accumulation.
///
/// Deterministic across `Par::Seq` and `Par::Rayon`: both paths reduce over
/// the same fixed `PAR_THRESHOLD`-sized chunks and combine the partials in
/// chunk order (rayon's tree-`sum` order is unspecified, so the parallel
/// path collects ordered partials instead).
pub(crate) fn dot(par: Par, x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    if par.is_parallel() && x.len() >= PAR_THRESHOLD {
        let partials: Vec<f64> = x
            .par_chunks(PAR_THRESHOLD)
            .zip(y.par_chunks(PAR_THRESHOLD))
            .map(|(xc, yc)| dot_chunk(xc, yc))
            .collect();
        partials.iter().sum()
    } else {
        x.chunks(PAR_THRESHOLD)
            .zip(y.chunks(PAR_THRESHOLD))
            .map(|(xc, yc)| dot_chunk(xc, yc))
            .sum()
    }
}

#[inline]
fn dot_chunk(x: &[f32], y: &[f32]) -> f64 {
    // 8 independent partial sums keep the FP dependency chain short enough
    // for the autovectorizer while staying deterministic.
    let mut acc = [0.0f64; 8];
    let n = x.len() - x.len() % 8;
    for (xc, yc) in x[..n].chunks_exact(8).zip(y[..n].chunks_exact(8)) {
        for l in 0..8 {
            acc[l] += (xc[l] * yc[l]) as f64;
        }
    }
    let mut tail = 0.0f64;
    for i in n..x.len() {
        tail += (x[i] * y[i]) as f64;
    }
    acc.iter().sum::<f64>() + tail
}

/// Sum of squares with f64 accumulation.
pub fn sum_sq(par: Par, x: &[f32]) -> f64 {
    dot(par, x, x)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::isa::tests::instantiations;

    /// Inputs an elementwise kernel must treat exactly like its portable
    /// instantiation: NaNs with several payloads (quiet and signalling) of
    /// both signs, infinities, signed zeros, subnormals, the sigmoid's clamp
    /// edges and their one-ulp neighbours, and `expf`'s overflow edge.
    pub(crate) fn hostile_values() -> Vec<f32> {
        let nans = [
            0x7fc0_0000u32,
            0xffc0_0000,
            0x7f80_0001,
            0xff81_2345,
            0x7fa5_a5a5,
            0x7fff_ffff,
        ];
        let mut v: Vec<f32> = nans.iter().map(|&b| f32::from_bits(b)).collect();
        v.extend([f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0]);
        v.extend([1u32, 0x0040_0000, 0x007f_ffff].map(f32::from_bits));
        v.extend([1u32, 0x0040_0000, 0x007f_ffff].map(|b| -f32::from_bits(b)));
        for edge in [30.0f32, -30.0] {
            let b = edge.to_bits();
            v.extend([b - 1, b, b + 1].map(f32::from_bits));
        }
        v.extend([
            88.0f32, -88.0, 88.72284, -103.97, 1e-8, -1e-8, 0.5, -0.5, 5.0, -5.0,
        ]);
        v
    }

    /// `len` values: [`hostile_values`] in turn with pseudo-random ones in
    /// `[-35, 35]`, so every hostile value meets every lane position.
    pub(crate) fn mixed_values(len: usize, seed: u64) -> Vec<f32> {
        let hostile = hostile_values();
        (0..len)
            .map(|i| {
                if i % 3 == 0 {
                    hostile[(i / 3) % hostile.len()]
                } else {
                    let h = crate::rng::uniform01(seed, 0, i as u64);
                    70.0 * h - 35.0
                }
            })
            .collect()
    }

    /// Lengths around the vector width and the fork threshold.
    pub(crate) const SWEEP_LENGTHS: [usize; 9] = [
        0,
        1,
        LANES - 1,
        LANES,
        LANES + 1,
        PAR_THRESHOLD - 1,
        PAR_THRESHOLD,
        PAR_THRESHOLD + 1,
        2 * PAR_THRESHOLD + 3,
    ];

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every `step`-th bit pattern of `[0, 30]` and of `[-30, -0]`, from
    /// `±0` on.
    fn clamp_range_sample(step: usize) -> impl Iterator<Item = f32> {
        let pos = (0..=30.0f32.to_bits()).step_by(step);
        let neg = (0x8000_0000..=(-30.0f32).to_bits()).step_by(step);
        pos.chain(neg).map(f32::from_bits)
    }

    /// [`clamp_range_sample`] at every 997th pattern, with the hostile
    /// values (whose ones outside `[-30, 30]` the sigmoid clamps).
    fn dense_sample() -> Vec<f32> {
        clamp_range_sample(997).chain(hostile_values()).collect()
    }

    #[test]
    fn sigmoid_instantiations_bitwise_equal_to_portable() {
        let isas = instantiations("sigmoid_instantiations_bitwise_equal_to_portable");
        for len in SWEEP_LENGTHS {
            let src = mixed_values(len, 5);
            let mut portable = src.clone();
            sigmoid_inplace_on(Isa::Portable, Par::Seq, &mut portable);
            for &isa in &isas {
                for par in [Par::Seq, Par::Rayon] {
                    let mut y = src.clone();
                    sigmoid_inplace_on(isa, par, &mut y);
                    assert_eq!(bits(&portable), bits(&y), "{isa:?} {par:?} at length {len}");
                }
            }
        }
    }

    #[test]
    fn sigmoid_propagates_nan_payload_and_sign() {
        // 1 / (1 + e^-x) of a NaN is the NaN, quietened: the sign flip of
        // `-x` is undone by nothing, since `e^-x` returns `-x` and the two
        // operations after it keep the payload of their one NaN operand.
        for isa in instantiations("sigmoid_propagates_nan_payload_and_sign") {
            let mut y: Vec<f32> = hostile_values()
                .into_iter()
                .filter(|x| x.is_nan())
                .collect();
            let src = y.clone();
            sigmoid_inplace_on(isa, Par::Seq, &mut y);
            for (x, s) in src.iter().zip(&y) {
                let quiet = (-*x).to_bits() | 0x0040_0000;
                assert_eq!(s.to_bits(), quiet, "{isa:?}: NaN {:#x}", x.to_bits());
            }
        }
    }

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn owned_exp_equals_libm_on_a_dense_sample() {
        for x in dense_sample()
            .into_iter()
            .filter(|x| x.abs() <= 88.0 || x.is_nan())
        {
            assert_eq!(expf(x).to_bits(), x.exp().to_bits(), "exp({x:e})");
        }
    }

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn sigmoid_equals_the_libm_oracle() {
        let src = dense_sample();
        let mut oracle = src.clone();
        crate::naive::sigmoid_ref(&mut oracle);
        let mut y = src;
        sigmoid_inplace(Par::Rayon, &mut y);
        assert_eq!(bits(&oracle), bits(&y));
    }

    /// All 2 212 495 362 inputs of `[-30, 30]`; about 20 s in release.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    #[ignore = "exhaustive: run with --release -- --ignored"]
    fn owned_exp_equals_libm_exhaustive() {
        let mut checked = 0u64;
        for x in clamp_range_sample(1) {
            assert_eq!(expf(x).to_bits(), x.exp().to_bits(), "exp({x:e})");
            checked += 1;
        }
        println!("owned expf == libm expf on all {checked} inputs of [-30, 30]");
    }

    fn seq_and_par(f: impl Fn(Par)) {
        f(Par::Seq);
        f(Par::Rayon);
    }

    #[test]
    fn axpy_matches_definition() {
        seq_and_par(|p| {
            let x: Vec<f32> = (0..1000).map(|i| i as f32).collect();
            let mut y = vec![1.0f32; 1000];
            axpy(p, 0.5, &x, &mut y);
            for (i, &v) in y.iter().enumerate() {
                assert_eq!(v, 1.0 + 0.5 * i as f32);
            }
        });
    }

    #[test]
    fn par_and_seq_bitwise_equal_large() {
        let x: Vec<f32> = (0..100_000).map(|i| (i as f32).sin()).collect();
        let mut y1 = vec![0.25f32; x.len()];
        let mut y2 = y1.clone();
        axpy(Par::Seq, 1.5, &x, &mut y1);
        axpy(Par::Rayon, 1.5, &x, &mut y2);
        assert_eq!(y1, y2);

        let d1 = dot(Par::Seq, &x, &y1);
        let d2 = dot(Par::Rayon, &x, &y2);
        assert_eq!(d1, d2, "dot must be chunk-deterministic");
    }

    #[test]
    fn block_merge_matches_copy_plus_axpy_bitwise() {
        let parts: Vec<Vec<f32>> = (0..5)
            .map(|k| {
                (0..10_000)
                    .map(|i| ((i * 37 + k * 101) as f32).sin() * 0.1)
                    .collect()
            })
            .collect();
        let views: Vec<&[f32]> = parts.iter().map(|p| p.as_slice()).collect();

        // Reference: copy first, then sequential axpy sweeps in part order.
        let mut reference = parts[0].clone();
        for p in &parts[1..] {
            axpy(Par::Seq, 1.0, p, &mut reference);
        }

        for par in [Par::Seq, Par::Rayon] {
            let mut out = vec![f32::NAN; parts[0].len()];
            block_merge(par, &views, &mut out);
            assert_eq!(out, reference, "fold order must be pinned ({par:?})");
        }
    }

    #[test]
    fn block_merge_degenerate_part_counts() {
        let a = vec![1.5f32, -0.0, 2.0];
        let mut out = vec![9.0f32; 3];
        block_merge(Par::Seq, &[&a], &mut out);
        // Single part: exact copy, sign bits preserved (no 0.0 + -0.0).
        assert_eq!(out[1].to_bits(), (-0.0f32).to_bits());
        block_merge(Par::Seq, &[], &mut out);
        assert_eq!(out, vec![0.0; 3]);
    }

    #[test]
    fn sigmoid_properties() {
        let mut v: Vec<f32> = vec![-1000.0, -5.0, 0.0, 5.0, 1000.0];
        sigmoid_inplace(Par::Seq, &mut v);
        assert!(v[0] >= 0.0 && v[0] < 1e-6);
        assert_eq!(v[2], 0.5);
        assert!(v[4] <= 1.0 && v[4] > 1.0 - 1e-6);
        assert!(v.windows(2).all(|w| w[0] <= w[1]), "monotone");
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn sigmoid_symmetry() {
        for x in [-3.0f32, -0.7, 0.0, 0.7, 3.0] {
            let s = sigmoid_scalar(x) + sigmoid_scalar(-x);
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_backprop_matches_formula() {
        let y = vec![0.2f32, 0.5, 0.9];
        let mut d = vec![2.0f32; 3];
        sigmoid_backprop_assign(Par::Seq, &y, &mut d);
        assert!((d[0] - 2.0 * 0.2 * 0.8).abs() < 1e-6);
        assert!((d[1] - 2.0 * 0.25).abs() < 1e-6);
        assert!((d[2] - 2.0 * 0.9 * 0.1).abs() < 1e-6);
    }

    #[test]
    fn sub_and_hadamard() {
        let a = vec![3.0f32, 4.0, 5.0];
        let b = vec![1.0f32, 1.0, 2.0];
        let mut out = vec![0.0f32; 3];
        sub(Par::Seq, &a, &b, &mut out);
        assert_eq!(out, vec![2.0, 3.0, 3.0]);
    }

    #[test]
    fn reductions() {
        assert_eq!(sum_sq(Par::Seq, &[3.0, 4.0]), 25.0);
        assert_eq!(dot(Par::Seq, &[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn scale_matches_definition() {
        let mut y = vec![2.0f32; 10];
        scale(Par::Seq, 0.5, &mut y);
        assert!(y.iter().all(|&v| v == 1.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_len_checked() {
        axpy(Par::Seq, 1.0, &[1.0], &mut [1.0, 2.0]);
    }
}
