//! Convolution + pooling kernels: im2col lowering, non-overlapping max
//! pooling, and a naive direct convolution used as the correctness and
//! cost baseline.
//!
//! The lowering strategy is the classical one (and the one CHAOS-style
//! many-core CNN trainers use): every `k x k` patch of every image is a row
//! of a `(b*oh*ow) x k*k` matrix, so the convolution itself becomes a
//! single GEMM against the `c_out x k*k` filter bank — which this crate's
//! blocked SGEMM already makes fast. [`im2col`] forms that matrix;
//! [`Patches`] describes it without forming it, and the GEMM
//! ([`crate::gemm_op`]) reads each patch where the image is stored, as
//! MKL-DNN builds its convolution GEMMs without an explicit im2col copy.
//! The kernels here are the data-movement pieces around that GEMM.
//!
//! Pooling reads the convolution's activations channel-major, `c x
//! (b*oh*oh)`: channel by channel, then image, output row and output
//! column, so each image's channel is one `oh x oh` plane, the layout the
//! CNN's forward product `W·patches(x)ᵀ` writes.
//!
//! Determinism: every function parallelizes over whole images, or
//! unpooling over whole channels. Each task's output region is contiguous
//! and disjoint from the others', and each output element is a pure
//! function of one image, so results are bit-identical between
//! [`Par::Seq`] and [`Par::Rayon`] at any thread count. Pooling argmax ties
//! break toward the lowest flat index (strict `>` comparison) for the same
//! reason.
//!
//! # At vector width
//!
//! Each kernel gives the bits of its scalar form in [`crate::naive`]
//! (`im2col_ref`, `maxpool2d_forward_ref`, `maxpool2d_backward_ref`), and
//! the tests pin it there bit for bit, values and indices, on every
//! instantiation the CPU runs, at [`Par::Seq`] and [`Par::Rayon`]:
//!
//! * [`im2col`] runs one body, handed a literal `k` for 3, 5 and 7 and the
//!   runtime `k` otherwise, so at the common sizes each patch row is a
//!   fixed-size move instead of a `memcpy` call of `k` floats. A copy moves
//!   bits, whatever its width.
//! * [`maxpool2d_forward`] pools each plane's windows directly: a window is
//!   seeded with its first element and takes the others in window order,
//!   row by row, by a select on strict `>`, exactly where the scalar branch
//!   takes them, so ties keep the earliest element (`-0.0` against `0.0`
//!   included) and a window whose first element is NaN keeps it and its
//!   index. At `pool = 2` each output row reads its two input rows as pairs
//!   and forms the index once, from an offset into the window, in `i32`
//!   (exact below 2^24, which the kernel asserts); that loop runs at vector
//!   width. The body is compiled per instantiation (`per_isa!`).
//! * [`maxpool2d_backward`] zero-fills each plane and assigns each delta
//!   through a checked `get_mut`, whose failure is one cold call that names
//!   the plane the index escapes; it splits its work by plane, one channel
//!   of one image each.
//!
//! The bias gradient sums each channel's plane in pixel order (`rowsum` in
//! the `reduce` module), which is the chain the column sum of the NHWC
//! activations ran per channel, so its bits are that sum's.
//!
//! Time per call at the `cnn_ckpt` shape (50 images of 28x28, `k = 5`, 8
//! channels, `pool = 2`; `c = 6` is the CLI's default), median of 21
//! rounds of 40 calls, outside the crate on a two-vCPU AVX-512 Xeon VM,
//! alternating with the same calls on the NHWC code this layout replaced
//! ("before": pooling in a row buffer laid out like an input row, the
//! channels of a pixel innermost, then stored channel-major; unpooling per
//! image; `colsum` of the `28800 x 8` activations):
//!
//! | µs per call | before, 2 threads | now, 2 threads | before, 1 | now, 1 |
//! |---|---|---|---|---|
//! | pool forward, `c = 8` | 113 | 35 | 154 | 54 |
//! | pool forward, `c = 6` | 71 | 29 | 116 | 40 |
//! | unpool, `c = 8` | 76 | 67 | 106 | 89 |
//! | unpool, `c = 6` | 54 | 51 | 79 | 66 |
//! | bias sums, `28800 x 8` | 28 | 32 | 28 | 59 |
//!
//! Unpooling formatted an `assert!` and converted each index with a
//! saturating `f32 → usize` cast per delta; the checked `get_mut` keeps the
//! guarantee that an index cannot escape its plane. The bias sums are
//! chains of dependent adds in a fixed order, four rows side by side, one
//! group a thread; on one thread the compiler packs the four chains into
//! one vector with a shuffle per element, which is why that column lost.
//!
//! Earlier, in the NHWC layout, against the scalar code in
//! [`crate::naive`] (median of seven interleaved runs of 200 calls, five at
//! one thread): `im2col` of `28800 x 25` 432 → 138 µs at two threads and
//! 868 → 267 at one; pooling at `c = 8` 420 → 128 and 732 → 260.

use crate::isa::{per_isa, Isa};
use crate::Par;
use micdnn_tensor::MatView;
use rayon::prelude::*;

/// Pooling argmax indices are stored as `f32` in the workspace arena
/// (every graph buffer is `f32`); the conversion is exact only below
/// 2^24, which this asserts at the call sites that produce indices.
pub(crate) const MAX_EXACT_F32_INDEX: usize = 1 << 24;

/// A pooling index as the `f32` the arena stores; exact for every index
/// below [`MAX_EXACT_F32_INDEX`], which the pooling kernels assert.
#[inline(always)]
pub(crate) fn index_f32(best_at: usize) -> f32 {
    best_at as f32
}

/// The patch matrix [`im2col`] forms, described instead of formed: for
/// `b` single-channel `side x side` images `x` and `o = side - k + 1`, the
/// `(b*o*o) x (k*k)` matrix whose element `(i, p)`, at row `i = (bi*o +
/// oy)*o + ox`, is `x[bi*side*side + (oy + p/k)*side + ox + p%k]`.
/// [`crate::gemm_op`] takes it as an operand and reads each element straight
/// from `x`.
#[derive(Debug, Clone, Copy)]
pub struct Patches<'a> {
    pub(crate) x: &'a [f32],
    pub(crate) side: usize,
    pub(crate) k: usize,
}

impl<'a> Patches<'a> {
    /// The patches of the `b` images of `x`, under [`im2col`]'s checks.
    pub fn new(x: &'a [f32], b: usize, side: usize, k: usize) -> Self {
        assert!(k >= 1 && k <= side, "im2col: kernel {k} vs side {side}");
        assert_eq!(x.len(), b * side * side, "im2col: input length mismatch");
        Patches { x, side, k }
    }

    /// The output side `side - k + 1`.
    pub(crate) fn out_side(&self) -> usize {
        self.side - self.k + 1
    }

    /// The patch matrix itself, formed by [`im2col`] into `col`.
    pub(crate) fn form<'c>(&self, par: Par, col: &'c mut Vec<f32>) -> MatView<'c> {
        let ((rows, cols), b) = (self.shape(), self.x.len() / (self.side * self.side));
        col.resize(rows * cols, 0.0);
        im2col(par, self.x, b, self.side, self.k, col);
        MatView::new(col, rows, cols)
    }

    /// `(rows, cols)` of the patch matrix: `(b*o*o, k*k)`.
    pub fn shape(&self) -> (usize, usize) {
        let o = self.out_side();
        (
            self.x.len() / (self.side * self.side) * o * o,
            self.k * self.k,
        )
    }
}

/// Gathers all `k x k` patches (stride 1, no padding) of `b` single-channel
/// `side x side` images into the patch matrix `col`.
///
/// `x` is `b x (side*side)` row-major; `col` is `(b*oh*ow) x (k*k)` with
/// row `(bi*oh + oy)*ow + ox` holding the patch whose top-left corner is
/// `(oy, ox)` in image `bi`, where `oh = ow = side - k + 1`.
pub fn im2col(par: Par, x: &[f32], b: usize, side: usize, k: usize, col: &mut [f32]) {
    Patches::new(x, b, side, k);
    let o = side - k + 1;
    let (img, patch) = (side * side, k * k);
    assert_eq!(
        col.len(),
        b * o * o * patch,
        "im2col: output length mismatch"
    );

    // The arms hand `im2col_image` a literal `k`, so each patch row is a
    // copy of a length the compiler knows; any other `k` runs the same body.
    let one = |image: &[f32], out: &mut [f32]| match k {
        3 => im2col_image(image, side, 3, out),
        5 => im2col_image(image, side, 5, out),
        7 => im2col_image(image, side, 7, out),
        _ => im2col_image(image, side, k, out),
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

/// One image's patches, in the order of [`im2col`]'s rows.
#[inline(always)]
fn im2col_image(image: &[f32], side: usize, k: usize, out: &mut [f32]) {
    let o = side - k + 1;
    for (oy, rows) in out.chunks_exact_mut(o * k * k).enumerate() {
        for (ox, patch) in rows.chunks_exact_mut(k * k).enumerate() {
            for (ky, dst) in patch.chunks_exact_mut(k).enumerate() {
                let src = (oy + ky) * side + ox;
                dst.copy_from_slice(&image[src..src + k]);
            }
        }
    }
}

/// Non-overlapping max pooling over convolution activations.
///
/// `act` is channel-major, `c x (b*oh*oh)` (the layout the conv GEMM
/// writes): channel by channel, then image, output row and output column,
/// so each image's channel is one `oh x oh` plane; `pool` divides `oh`.
/// `out` is `b x (c*ph*ph)`, channel-major per row (`ph = oh / pool`);
/// `idx` (same shape) records each maximum's flat index into `act` for the
/// backward scatter, stored exactly as `f32`.
///
/// Each window is seeded with its first element rather than -inf: the
/// argmax is the same for finite inputs (strict `>` keeps the earliest
/// maximum either way), and an all-NaN window propagates NaN with a valid
/// index, so a poisoned batch surfaces as a NaN loss the supervisor can
/// roll back, not as a panic in the backward scatter.
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
    maxpool2d_forward_on(Isa::detect(), par, act, b, oh, c, pool, out, idx);
}

/// [`maxpool2d_forward`] on the `isa` instantiation.
#[allow(clippy::too_many_arguments)]
fn maxpool2d_forward_on(
    isa: Isa,
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
    let (plane, ph) = (oh * oh, oh / pool);
    let out_row = c * ph * ph;
    assert_eq!(act.len(), b * c * plane, "maxpool: input length mismatch");
    assert_eq!(out.len(), b * out_row, "maxpool: output length mismatch");
    assert_eq!(idx.len(), b * out_row, "maxpool: index length mismatch");
    assert!(
        act.len() <= MAX_EXACT_F32_INDEX,
        "maxpool: activation index {} exceeds exact f32 range",
        act.len()
    );
    if out_row == 0 {
        return;
    }

    // One image's pooled row is its `c` planes, each read from its channel.
    let run = |bi: usize, pooled: &mut [f32], pidx: &mut [f32]| {
        let planes = pooled.chunks_mut(ph * ph).zip(pidx.chunks_mut(ph * ph));
        for (ch, (vals, at)) in planes.enumerate() {
            let base = (ch * b + bi) * plane;
            pool_plane_on(isa, &act[base..base + plane], base, oh, pool, vals, at);
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

per_isa! {
    /// [`pool_plane`] as compiled for `isa`.
    fn pool_plane_on(
        plane: &[f32],
        base: usize,
        oh: usize,
        pool: usize,
        vals: &mut [f32],
        at: &mut [f32],
    ) = pool_plane;
}

/// Pools one `oh x oh` plane whose first activation has flat index `base`
/// into its `ph x ph` maxima `vals` and their indices `at` (`ph = oh /
/// pool`), at 2 by [`pool_pairs`].
#[inline(always)]
fn pool_plane(
    plane: &[f32],
    base: usize,
    oh: usize,
    pool: usize,
    vals: &mut [f32],
    at: &mut [f32],
) {
    match pool {
        2 => pool_pairs(plane, base, oh, vals, at),
        _ => pool_rows(plane, base, oh, pool, vals, at),
    }
}

/// [`pool_rows`] at `pool = 2`, the CNN's: each output row reads its two
/// input rows as pairs, and a window's four elements are taken in the same
/// order by the same selects, so the bits are [`pool_rows`]'. The index is
/// kept as an offset into the window and formed once in `i32`, where this
/// loop runs at vector width (54 against 163 µs for the general body over
/// the `cnn_ckpt` batch at one thread).
#[inline(always)]
fn pool_pairs(plane: &[f32], base: usize, oh: usize, vals: &mut [f32], at: &mut [f32]) {
    let ph = oh / 2;
    let outs = vals.chunks_exact_mut(ph).zip(at.chunks_exact_mut(ph));
    for (py, (vals, at)) in outs.enumerate() {
        let top = py * 2 * oh;
        let (r0, r1) = plane[top..top + 2 * oh].split_at(oh);
        let (from, oh_i) = ((base + top) as i32, oh as i32);
        let windows = r0.chunks_exact(2).zip(r1.chunks_exact(2));
        let outs = vals.iter_mut().zip(at.iter_mut()).zip(windows);
        for (px, ((v, i), (w0, w1))) in outs.enumerate() {
            let (mut best, mut off) = (w0[0], 0);
            for (e, o) in [(w0[1], 1), (w1[0], oh_i), (w1[1], oh_i + 1)] {
                let gt = e > best;
                best = if gt { e } else { best };
                off = if gt { o } else { off };
            }
            (*v, *i) = (best, (from + 2 * px as i32 + off) as f32);
        }
    }
}

/// [`pool_plane`]'s body: the scalar branch of
/// [`crate::naive::maxpool2d_forward_ref`] with each output row's input rows
/// sliced once. Each window is seeded with its first element, then takes
/// its elements in window order, row by row, each by a select on strict
/// `>`, so ties keep the earliest element (`-0.0` against `0.0` included)
/// and a window whose first element is NaN keeps it and its index. The seed
/// is compared with itself, which never selects.
#[inline(always)]
fn pool_rows(plane: &[f32], base: usize, oh: usize, pool: usize, vals: &mut [f32], at: &mut [f32]) {
    let ph = oh / pool;
    let outs = vals.chunks_exact_mut(ph).zip(at.chunks_exact_mut(ph));
    for (py, (vals, at)) in outs.enumerate() {
        let top = py * pool * oh;
        let rows = &plane[top..top + pool * oh];
        for (px, (v, i)) in vals.iter_mut().zip(at.iter_mut()).enumerate() {
            let first = px * pool;
            let (mut best, mut best_at) = (rows[first], first);
            for start in (0..pool).map(|wy| wy * oh + first) {
                for (e, &x) in (start..).zip(&rows[start..start + pool]) {
                    let gt = x > best;
                    best = if gt { x } else { best };
                    best_at = if gt { e } else { best_at };
                }
            }
            (*v, *i) = (best, index_f32(base + top + best_at));
        }
    }
}

/// Backward of [`maxpool2d_forward`]: scatters each pooled delta to its
/// argmax source position, zero elsewhere, into `dconv` laid out as `act`.
///
/// Windows are non-overlapping (stride == pool), so every target receives
/// at most one value and the scatter is a plain assignment after the
/// zero-fill — deterministic at any thread count. Work splits by plane,
/// one channel of one image each.
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
    maxpool2d_backward_on(Isa::detect(), par, dpool, idx, b, oh, c, pool, dconv);
}

/// [`maxpool2d_backward`] on the `isa` instantiation.
#[allow(clippy::too_many_arguments)]
fn maxpool2d_backward_on(
    isa: Isa,
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
    let (plane, out_plane) = (oh * oh, (oh / pool) * (oh / pool));
    assert_eq!(
        dpool.len(),
        b * c * out_plane,
        "unpool: delta length mismatch"
    );
    assert_eq!(
        idx.len(),
        b * c * out_plane,
        "unpool: index length mismatch"
    );
    assert_eq!(dconv.len(), b * c * plane, "unpool: output length mismatch");
    if plane == 0 {
        return;
    }

    // Plane `i` of `dconv` is channel `i / b` of image `i % b`, whose
    // pooled deltas are plane `(i % b) * c + i / b` of `dpool`.
    let run = |i: usize, dc: &mut [f32]| {
        let o = (i % b * c + i / b) * out_plane;
        let (dp, pi) = (&dpool[o..o + out_plane], &idx[o..o + out_plane]);
        unpool_plane_on(isa, dp, pi, i * plane, dc);
    };
    if par.is_parallel() && b * c > 1 {
        dconv
            .par_chunks_mut(plane)
            .enumerate()
            .for_each(|(i, dc)| run(i, dc));
    } else {
        for (i, dc) in dconv.chunks_mut(plane).enumerate() {
            run(i, dc);
        }
    }
}

per_isa! {
    /// [`unpool_plane`] as compiled for `isa`.
    fn unpool_plane_on(dp: &[f32], pi: &[f32], base: usize, dc: &mut [f32]) = unpool_plane;
}

/// Unpools one plane whose first activation has flat index `base`: the
/// zero-fill, then one assignment per pooled delta, through a checked
/// index whose failure is one cold call.
#[inline(always)]
fn unpool_plane(dp: &[f32], pi: &[f32], base: usize, dc: &mut [f32]) {
    dc.fill(0.0);
    for (&v, &at) in dp.iter().zip(pi) {
        match dc.get_mut((at as usize).wrapping_sub(base)) {
            Some(d) => *d = v,
            None => index_escapes(at, base, dc.len()),
        }
    }
}

/// The panic of an unpooling index outside its plane.
#[cold]
#[inline(never)]
fn index_escapes(at: f32, base: usize, plane: usize) -> ! {
    panic!("unpool: index {at} escapes plane {}", base / plane)
}

/// Naive direct convolution (stride 1, no padding, no bias, no
/// nonlinearity): the correctness oracle and cost baseline the im2col+GEMM
/// path is benchmarked against.
///
/// `x` is `b x (side*side)`, `w` is `c_out x (k*k)` filters, `out` is
/// `(b*oh*oh) x c_out` — the layout of the NHWC product `im2col(x)·Wᵀ`, so
/// those outputs compare elementwise (up to reassociation); the CNN's
/// channel-major activations are its transpose.
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
    use crate::isa::tests::instantiations;
    use crate::naive::{im2col_ref, maxpool2d_backward_ref, maxpool2d_forward_ref};
    use micdnn_tensor::{MatView, MatViewMut};

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Values drawn from a handful, so pooling windows tie often (`0.0`
    /// against `-0.0` among them) and hold NaN first, later, or not at all.
    fn hostile(n: usize, salt: usize) -> Vec<f32> {
        const VALUES: [f32; 7] = [-1.0, -0.0, 0.0, 1.0, 2.0, f32::NAN, 2.0];
        (0..n)
            .map(|i| VALUES[(i * 2_654_435_761 + salt * 40_503 + (i >> 4)) % 7])
            .collect()
    }

    #[test]
    fn im2col_bitwise_identical_to_ref_at_every_k() {
        // k = 1, k = side, the specialised 3, 5 and 7 and the fallback
        // between them; the values, NaN payloads included, are copied.
        for side in [1, 2, 5, 8, 9] {
            for k in 1..=side {
                for b in [1, 3] {
                    let o = side - k + 1;
                    let x = hostile(b * side * side, side * 10 + k);
                    let mut want = vec![0.0; b * o * o * k * k];
                    im2col_ref(&x, b, side, k, &mut want);
                    for par in [Par::Seq, Par::Rayon] {
                        let mut got = vec![7.0; want.len()];
                        im2col(par, &x, b, side, k, &mut got);
                        assert_eq!(bits(&got), bits(&want), "side {side} k {k} b {b} {par:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn maxpool_bitwise_identical_to_ref_on_all_instantiations() {
        let isas = instantiations("maxpool_bitwise_identical_to_ref_on_all_instantiations");
        for c in (1..=17).chain([32]) {
            for pool in 1..=4 {
                for (ph, b) in [(1, 1), (1, 3), (3, 1), (3, 3), (2, 5)] {
                    let oh = pool * ph;
                    let mut act = hostile(b * oh * oh * c, c * 7 + pool * 3 + ph);
                    // Window (0, 0) of the first image, in each channel's
                    // plane: all NaN in the even channels, tied zeros, -0.0
                    // first, in the odd ones.
                    let plane = |ch: usize| ch * b * oh * oh;
                    for (wy, wx, ch) in
                        (0..pool * pool * c).map(|e| (e / (pool * c), e / c % pool, e % c))
                    {
                        act[plane(ch) + wy * oh + wx] = match (ch % 2, wy + wx) {
                            (0, _) => f32::NAN,
                            (_, 0) => -0.0,
                            _ => 0.0,
                        };
                    }
                    let n = b * c * ph * ph;
                    let (mut want, mut want_idx) = (vec![0.0; n], vec![0.0; n]);
                    maxpool2d_forward_ref(&act, b, oh, c, pool, &mut want, &mut want_idx);
                    for ch in 0..c {
                        let o = ch * ph * ph;
                        let first = if ch % 2 == 0 { f32::NAN } else { -0.0 };
                        assert_eq!(
                            want[o].to_bits(),
                            first.to_bits(),
                            "the oracle's window seed"
                        );
                        let seed = index_f32(plane(ch));
                        assert_eq!(want_idx[o], seed, "the oracle's window seed index");
                    }
                    let delta = ramp(n);
                    let mut want_d = vec![0.0; act.len()];
                    maxpool2d_backward_ref(&delta, &want_idx, b, oh, c, pool, &mut want_d);
                    for &isa in &isas {
                        for par in [Par::Seq, Par::Rayon] {
                            let at = format!("{isa:?} {par:?} c {c} pool {pool} ph {ph} b {b}");
                            let (mut got, mut got_idx) = (vec![7.0; n], vec![7.0; n]);
                            maxpool2d_forward_on(
                                isa,
                                par,
                                &act,
                                b,
                                oh,
                                c,
                                pool,
                                &mut got,
                                &mut got_idx,
                            );
                            assert_eq!(bits(&got), bits(&want), "values, {at}");
                            assert_eq!(bits(&got_idx), bits(&want_idx), "indices, {at}");
                            let mut got_d = vec![7.0; act.len()];
                            maxpool2d_backward_on(
                                isa, par, &delta, &got_idx, b, oh, c, pool, &mut got_d,
                            );
                            assert_eq!(bits(&got_d), bits(&want_d), "backward, {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "escapes plane 0")]
    fn unpool_refuses_an_index_outside_its_plane() {
        // Two images of two channels of 2x2, pooled whole: image 0's
        // channel 0 points into image 1's plane of the same channel.
        let (b, oh, c, pool) = (2, 2, 2, 2);
        let idx = [4.0, 8.0, 4.0, 12.0];
        let mut dconv = vec![0.0; b * c * oh * oh];
        maxpool2d_backward(Par::Seq, &[1.0; 4], &idx, b, oh, c, pool, &mut dconv);
    }

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
