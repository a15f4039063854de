//! Convolution + pooling kernels: im2col lowering, non-overlapping max
//! pooling, and a naive direct convolution used as the correctness and
//! cost baseline.
//!
//! The lowering strategy is the classical one (and the one CHAOS-style
//! many-core CNN trainers use): `im2col` gathers every `k x k` patch of
//! every image into a `(b*oh*ow) x k*k` matrix so the convolution itself
//! becomes a single GEMM against the `c_out x k*k` filter bank — which
//! this crate's blocked SGEMM already makes fast. The kernels here are the
//! data-movement pieces around that GEMM.
//!
//! Determinism: every function parallelizes over whole images. Each
//! image's input and output regions are contiguous and disjoint, and each
//! output element is a pure function of one image, so results are
//! bit-identical between [`Par::Seq`] and [`Par::Rayon`] at any thread
//! count. Pooling argmax ties break toward the lowest flat index (strict
//! `>` comparison) for the same reason.

use crate::Par;
use rayon::prelude::*;

/// Pooling argmax indices are stored as `f32` in the workspace arena
/// (every graph buffer is `f32`); the conversion is exact only below
/// 2^24, which this asserts at the call sites that produce indices.
pub(crate) const MAX_EXACT_F32_INDEX: usize = 1 << 24;

/// Gathers all `k x k` patches (stride 1, no padding) of `b` single-channel
/// `side x side` images into the patch matrix `col`.
///
/// `x` is `b x (side*side)` row-major; `col` is `(b*oh*ow) x (k*k)` with
/// row `(bi*oh + oy)*ow + ox` holding the patch whose top-left corner is
/// `(oy, ox)` in image `bi`, where `oh = ow = side - k + 1`.
pub fn im2col(par: Par, x: &[f32], b: usize, side: usize, k: usize, col: &mut [f32]) {
    assert!(k >= 1 && k <= side, "im2col: kernel {k} vs side {side}");
    let o = side - k + 1;
    let (img, patch) = (side * side, k * k);
    assert_eq!(x.len(), b * img, "im2col: input length mismatch");
    assert_eq!(
        col.len(),
        b * o * o * patch,
        "im2col: output length mismatch"
    );

    let one = |image: &[f32], out: &mut [f32]| {
        for oy in 0..o {
            for ox in 0..o {
                let row = (oy * o + ox) * patch;
                for ky in 0..k {
                    let src = (oy + ky) * side + ox;
                    let dst = row + ky * k;
                    out[dst..dst + k].copy_from_slice(&image[src..src + k]);
                }
            }
        }
    };
    if par.is_parallel() && b > 1 {
        col.par_chunks_mut(o * o * patch)
            .zip(x.par_chunks(img))
            .for_each(|(out, image)| one(image, out));
    } else {
        for (out, image) in col.chunks_mut(o * o * patch).zip(x.chunks(img)) {
            one(image, out);
        }
    }
}

/// Non-overlapping max pooling over convolution activations.
///
/// `act` is `(b*oh*oh) x c` (channels as columns, the layout the conv GEMM
/// writes); `pool` divides `oh`. `out` is `b x (c*ph*ph)` channel-major
/// per row (`ph = oh / pool`); `idx` (same shape) records each maximum's
/// flat index into `act` for the backward scatter, stored exactly as
/// `f32`.
#[allow(clippy::too_many_arguments)]
pub fn maxpool2d_forward(
    par: Par,
    act: &[f32],
    b: usize,
    oh: usize,
    c: usize,
    pool: usize,
    out: &mut [f32],
    idx: &mut [f32],
) {
    assert!(
        pool >= 1 && oh.is_multiple_of(pool),
        "maxpool: {oh} not divisible by {pool}"
    );
    let ph = oh / pool;
    let (in_row, out_row) = (oh * oh * c, c * ph * ph);
    assert_eq!(act.len(), b * in_row, "maxpool: input length mismatch");
    assert_eq!(out.len(), b * out_row, "maxpool: output length mismatch");
    assert_eq!(idx.len(), b * out_row, "maxpool: index length mismatch");
    assert!(
        act.len() <= MAX_EXACT_F32_INDEX,
        "maxpool: activation index {} exceeds exact f32 range",
        act.len()
    );

    let run = |bi: usize, pooled: &mut [f32], pidx: &mut [f32]| {
        let img = &act[bi * in_row..(bi + 1) * in_row];
        for ch in 0..c {
            for py in 0..ph {
                for px in 0..ph {
                    // Seed from the window's first element rather than
                    // -inf: identical argmax for finite inputs (strict `>`
                    // keeps the earliest maximum either way), but an
                    // all-NaN window then propagates NaN with a still-valid
                    // index instead of leaving `best_at` pointing at 0 —
                    // a poisoned batch must surface as a NaN loss the
                    // supervisor can roll back, not as a panic in the
                    // backward scatter.
                    let first = (py * pool * oh + px * pool) * c + ch;
                    let mut best = img[first];
                    let mut best_at = bi * in_row + first;
                    for wy in 0..pool {
                        let y = py * pool + wy;
                        for wx in 0..pool {
                            let x = px * pool + wx;
                            let flat = (y * oh + x) * c + ch;
                            if img[flat] > best {
                                best = img[flat];
                                best_at = bi * in_row + flat;
                            }
                        }
                    }
                    let o = ch * ph * ph + py * ph + px;
                    pooled[o] = best;
                    pidx[o] = best_at as f32;
                }
            }
        }
    };
    if par.is_parallel() && b > 1 {
        out.par_chunks_mut(out_row)
            .zip(idx.par_chunks_mut(out_row))
            .enumerate()
            .for_each(|(bi, (pooled, pidx))| run(bi, pooled, pidx));
    } else {
        for (bi, (pooled, pidx)) in out
            .chunks_mut(out_row)
            .zip(idx.chunks_mut(out_row))
            .enumerate()
        {
            run(bi, pooled, pidx);
        }
    }
}

/// Backward of [`maxpool2d_forward`]: scatters each pooled delta to its
/// argmax source position, zero elsewhere.
///
/// Windows are non-overlapping (stride == pool), so every target receives
/// at most one value and the scatter is a plain assignment after the
/// zero-fill — deterministic at any thread count.
#[allow(clippy::too_many_arguments)]
pub fn maxpool2d_backward(
    par: Par,
    dpool: &[f32],
    idx: &[f32],
    b: usize,
    oh: usize,
    c: usize,
    pool: usize,
    dconv: &mut [f32],
) {
    assert!(
        pool >= 1 && oh.is_multiple_of(pool),
        "unpool: {oh} not divisible by {pool}"
    );
    let ph = oh / pool;
    let (in_row, out_row) = (oh * oh * c, c * ph * ph);
    assert_eq!(dpool.len(), b * out_row, "unpool: delta length mismatch");
    assert_eq!(idx.len(), b * out_row, "unpool: index length mismatch");
    assert_eq!(dconv.len(), b * in_row, "unpool: output length mismatch");

    let run = |bi: usize, dc: &mut [f32]| {
        dc.fill(0.0);
        let base = bi * in_row;
        let (dp, pi) = (
            &dpool[bi * out_row..(bi + 1) * out_row],
            &idx[bi * out_row..(bi + 1) * out_row],
        );
        for (v, at) in dp.iter().zip(pi) {
            let flat = *at as usize;
            assert!(
                flat >= base && flat < base + in_row,
                "unpool: index {flat} escapes image {bi}"
            );
            dc[flat - base] = *v;
        }
    };
    if par.is_parallel() && b > 1 {
        dconv
            .par_chunks_mut(in_row)
            .enumerate()
            .for_each(|(bi, dc)| run(bi, dc));
    } else {
        for (bi, dc) in dconv.chunks_mut(in_row).enumerate() {
            run(bi, dc);
        }
    }
}

/// Naive direct convolution (stride 1, no padding, no bias, no
/// nonlinearity): the correctness oracle and cost baseline the im2col+GEMM
/// path is benchmarked against.
///
/// `x` is `b x (side*side)`, `w` is `c_out x (k*k)` filters, `out` is
/// `(b*oh*oh) x c_out` — the same layout the GEMM path writes, so outputs
/// compare elementwise (up to reassociation).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_direct(
    par: Par,
    x: &[f32],
    b: usize,
    side: usize,
    k: usize,
    w: &[f32],
    c_out: usize,
    out: &mut [f32],
) {
    assert!(
        k >= 1 && k <= side,
        "conv2d_direct: kernel {k} vs side {side}"
    );
    let o = side - k + 1;
    let (img, patch) = (side * side, k * k);
    assert_eq!(x.len(), b * img, "conv2d_direct: input length mismatch");
    assert_eq!(
        w.len(),
        c_out * patch,
        "conv2d_direct: filter length mismatch"
    );
    assert_eq!(
        out.len(),
        b * o * o * c_out,
        "conv2d_direct: output length mismatch"
    );

    let run = |image: &[f32], dst: &mut [f32]| {
        for oy in 0..o {
            for ox in 0..o {
                let row = (oy * o + ox) * c_out;
                for ch in 0..c_out {
                    let filt = &w[ch * patch..(ch + 1) * patch];
                    let mut acc = 0.0f32;
                    for ky in 0..k {
                        let src = (oy + ky) * side + ox;
                        for kx in 0..k {
                            acc += image[src + kx] * filt[ky * k + kx];
                        }
                    }
                    dst[row + ch] = acc;
                }
            }
        }
    };
    if par.is_parallel() && b > 1 {
        out.par_chunks_mut(o * o * c_out)
            .zip(x.par_chunks(img))
            .for_each(|(dst, image)| run(image, dst));
    } else {
        for (dst, image) in out.chunks_mut(o * o * c_out).zip(x.chunks(img)) {
            run(image, dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm;
    use micdnn_tensor::{MatView, MatViewMut};

    fn ramp(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 37 + 11) % 97) as f32 * 0.13 - 6.0)
            .collect()
    }

    #[test]
    fn im2col_gemm_matches_direct_conv() {
        let (b, side, k, c) = (3, 8, 3, 4);
        let o = side - k + 1;
        let x = ramp(b * side * side);
        let w = ramp(c * k * k);

        let mut col = vec![0.0; b * o * o * k * k];
        im2col(Par::Seq, &x, b, side, k, &mut col);
        let mut via_gemm = vec![0.0; b * o * o * c];
        {
            let cv = MatView::new(&col, b * o * o, k * k);
            let wv = MatView::new(&w, c, k * k);
            let mut ov = MatViewMut::new(&mut via_gemm, b * o * o, c);
            gemm(Par::Seq, 1.0, cv, false, wv, true, 0.0, &mut ov);
        }
        let mut direct = vec![0.0; b * o * o * c];
        conv2d_direct(Par::Seq, &x, b, side, k, &w, c, &mut direct);
        for (g, d) in via_gemm.iter().zip(&direct) {
            assert!((g - d).abs() <= 1e-4 * d.abs().max(1.0), "{g} vs {d}");
        }
    }

    #[test]
    fn parallel_paths_are_bit_identical() {
        let (b, side, k, c, pool) = (5, 10, 3, 3, 2);
        let o = side - k + 1;
        let x = ramp(b * side * side);
        let w = ramp(c * k * k);

        let mut col_s = vec![0.0; b * o * o * k * k];
        let mut col_p = col_s.clone();
        im2col(Par::Seq, &x, b, side, k, &mut col_s);
        im2col(Par::Rayon, &x, b, side, k, &mut col_p);
        assert_eq!(col_s, col_p, "im2col diverged under rayon");

        let mut act = vec![0.0; b * o * o * c];
        conv2d_direct(Par::Seq, &x, b, side, k, &w, c, &mut act);
        let mut act_p = vec![0.0; b * o * o * c];
        conv2d_direct(Par::Rayon, &x, b, side, k, &w, c, &mut act_p);
        assert_eq!(act, act_p, "direct conv diverged under rayon");

        let ph = o / pool;
        let out_row = c * ph * ph;
        let (mut po_s, mut pi_s) = (vec![0.0; b * out_row], vec![0.0; b * out_row]);
        let (mut po_p, mut pi_p) = (po_s.clone(), pi_s.clone());
        maxpool2d_forward(
            Par::Seq,
            &act[..b * pool * ph * pool * ph * c],
            b,
            pool * ph,
            c,
            pool,
            &mut po_s,
            &mut pi_s,
        );
        maxpool2d_forward(
            Par::Rayon,
            &act[..b * pool * ph * pool * ph * c],
            b,
            pool * ph,
            c,
            pool,
            &mut po_p,
            &mut pi_p,
        );
        assert_eq!(po_s, po_p, "pool values diverged under rayon");
        assert_eq!(pi_s, pi_p, "pool indices diverged under rayon");

        let (mut dc_s, mut dc_p) = (
            vec![0.0; b * pool * ph * pool * ph * c],
            vec![0.0; b * pool * ph * pool * ph * c],
        );
        maxpool2d_backward(Par::Seq, &po_s, &pi_s, b, pool * ph, c, pool, &mut dc_s);
        maxpool2d_backward(Par::Rayon, &po_s, &pi_s, b, pool * ph, c, pool, &mut dc_p);
        assert_eq!(dc_s, dc_p, "unpool diverged under rayon");
    }

    #[test]
    fn pool_scatter_roundtrip_recovers_maxima() {
        let (b, oh, c, pool) = (2, 4, 2, 2);
        let act = ramp(b * oh * oh * c);
        let ph = oh / pool;
        let out_row = c * ph * ph;
        let (mut pooled, mut idx) = (vec![0.0; b * out_row], vec![0.0; b * out_row]);
        maxpool2d_forward(Par::Seq, &act, b, oh, c, pool, &mut pooled, &mut idx);
        // Every pooled value is the activation its index points at.
        for (v, at) in pooled.iter().zip(&idx) {
            assert_eq!(*v, act[*at as usize]);
        }
        let mut dconv = vec![0.0; b * oh * oh * c];
        maxpool2d_backward(Par::Seq, &pooled, &idx, b, oh, c, pool, &mut dconv);
        // The scatter puts each pooled value back at its argmax and
        // nothing else: per image, nonzeros == pooled count.
        let nz = dconv.iter().filter(|v| **v != 0.0).count();
        assert_eq!(nz, b * out_row);
        for (v, at) in pooled.iter().zip(&idx) {
            assert_eq!(dconv[*at as usize], *v);
        }
    }
}
