//! Blocked, packed, thread-parallel SGEMM — the workspace's MKL analog.
//!
//! `C = alpha * op(A) * op(B) + beta * C` for row-major `f32` matrices.
//!
//! # Structure
//!
//! The Goto/BLIS loop nest over panel-packed operands, around one
//! register-tiled microkernel:
//!
//! * columns of C are processed in `NC`-wide slabs and the k dimension in
//!   `KC`-deep slabs; each slab of `op(B)` is packed into `NR`-column panels
//!   stored p-major (`panel[p * NR + j]`), which is also where a transposed
//!   B is materialised — source rows are always read contiguously;
//! * under a B slab, rows of C are walked in `MC`-row blocks, each packing
//!   `alpha * op(A)` into `MR`-row panels stored p-major
//!   (`panel[p * MR + i]`);
//! * the microkernel multiplies one A panel by one B panel into an
//!   `MR x NR` tile of accumulators that lives in registers for the whole
//!   k-slab, and the tile is added to C once per slab. Edge panels are
//!   zero-padded to full width; their padding lanes are computed and never
//!   stored.
//!
//! **Threads.** A product large enough to pay for a fork (see
//! `MIN_FLOPS_PER_WORKER`) is cut along the longer side of C into one
//! balanced, tile-aligned part per worker — whole rows when `m >= n`, one
//! column range of every row otherwise — and every worker runs the
//! sequential nest above on its part, with its own pack buffers, sized to
//! the part and reused by every slab. That is one fork per call and no
//! shared mutable state: the operand along the split side is packed in
//! parallel, each worker its own share, and only the smaller operand is
//! packed once per worker. Both splits hand out disjoint `&mut` slices of
//! C (a column range is held as that segment of every row), so there is no
//! aliasing to argue about and nothing to register with `race-check`.
//!
//! **Tile size.** `6 x 16`: a row of the tile is two 8-lane `ymm` vectors,
//! so the accumulators take 12 of AVX2's sixteen registers, the two B
//! vectors of the current `p` two more and the broadcast A element one —
//! 15, the largest tile that does not spill. Each step of the k loop is 2
//! loads + 6 broadcasts feeding 12 FMAs, which is what keeps both FMA ports
//! busy; the old broadcast-A/stream-B `axpy` loaded and stored the C row
//! for every multiply-add.
//!
//! **One source, two instantiations.** The kernel body is a safe
//! `#[inline(always)]` function over `[[f32; NR]; MR]`. It is compiled
//! twice: as is, and inside a `#[target_feature(enable = "avx2,fma")]`
//! function picked at run time by `Isa::detect`
//! (`is_x86_feature_detected!`, which caches its answer), where LLVM turns
//! the same loops into `vfmadd231ps`. The multiply-add is `f32::mul_add`,
//! never `a * b + c`: a fused multiply-add rounds once and IEEE 754 fixes
//! its result exactly, so the instruction and the portable `fmaf` fallback
//! agree bit for bit — separate multiply and add would round twice, and the
//! two instantiations would differ wherever the compiler chose to contract
//! them. Hence no CPU feature is recorded in checkpoints and there is no
//! second code path to keep in step. (Without hardware FMA the portable
//! instantiation is correct but slow: `fmaf` is then a library call.)
//!
//! # The accumulation-order contract
//!
//! `C[i,j]` after the call is a function of row `i` of `op(A)`, column `j`
//! of `op(B)`, `alpha`, `beta`, the incoming `C[i,j]`, `k` and the constant
//! `KC` **only**:
//!
//! 1. `C[i,j] = beta * C[i,j]` (`beta == 0` overwrites, NaN included);
//! 2. for each k-slab `[pc, pc + KC)` in ascending order: `acc = 0`, then
//!    `acc = fma(alpha * A[i,p], B[p,j], acc)` for `p` ascending, then
//!    `C[i,j] += acc`.
//!
//! It is never a function of `m`, `n`, the tile's position, whether the
//! tile is an edge tile, `MC`/`NC`, the thread count, [`Par`] or the CPU
//! feature in use. The fork rule, the row-or-column split and every
//! blocking choice below change packing and tiling, never this order. Bit-identical resume, graph ==
//! serial, sharded == unsharded, batched == serial serving and
//! thread-count invariance all rest on it, and it mirrors the paper's claim
//! that its optimizations do not change the computed trajectory. There is
//! no zero-skip: `0 * Inf` and `0 * NaN` reach C as NaN, as in
//! [`crate::naive::gemm_ref`]. `alpha == 0` and zero extents reduce to the
//! `beta` scaling and read neither A nor B.

use crate::Par;
use micdnn_tensor::{MatView, MatViewMut};
use rayon::prelude::*;

/// Rows of the register tile.
const MR: usize = 6;
/// Columns of the register tile: two 8-lane vectors.
const NR: usize = 16;

/// Cache-blocking parameters; [`gemm`] always runs [`BLOCKING`], the tests
/// sweep odd values through [`gemm_with`].
#[derive(Debug, Clone, Copy)]
struct GemmBlocking {
    /// Rows of C per packed A block.
    mc: usize,
    /// Depth of each packed k-slab.
    kc: usize,
    /// Width of each packed B slab.
    nc: usize,
}

/// A B panel (`kc * NR` floats = 16 KiB) stays in L1 under the streaming A
/// panels, an A block (`mc * kc` = 144 KiB) and a B slab (`kc * nc` =
/// 512 KiB) in L2; the two are also all a worker allocates. `kc` is part of
/// the accumulation-order contract.
const BLOCKING: GemmBlocking = GemmBlocking {
    mc: 24 * MR,
    kc: 256,
    nc: 512,
};

/// A worker owns at least this many rows (or columns) of C. Every worker
/// packs the whole of the operand that is not split, so its own share has
/// to be several cache blocks wide for that repeated packing to stay a
/// small fraction of its multiply time.
const MIN_EXTENT_PER_WORKER: usize = 192;
/// ... and at least this many flops. The rayon shim spawns an OS thread per
/// parallel region: ≈ 50 µs of spawn plus a worker that starts on cold
/// caches, which on the two-vCPU reference machine puts the break-even of a
/// two-way split near 75 Mflop per product (≈ 1.2 ms of one core at this
/// kernel's speed). The three GEMMs of a wide autoencoder layer clear it
/// twelve times over; the RBM's `20x64x144`, the serving batch and the
/// CNN's im2col product stay on the calling thread.
const MIN_FLOPS_PER_WORKER: usize = 64 << 20;

/// Which instantiation of the macro-kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// The body as compiled for the build's baseline target.
    Portable,
    /// The body compiled with AVX2 and FMA enabled. Only [`Isa::detect`]
    /// constructs this.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
}

impl Isa {
    /// The fastest instantiation this CPU can run.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Isa::Avx2Fma;
        }
        Isa::Portable
    }
}

/// Operated dimensions of a (possibly transposed) view: `(rows, cols)` of
/// `op(X)`.
#[inline]
fn op_shape(x: &MatView<'_>, t: bool) -> (usize, usize) {
    if t {
        (x.cols(), x.rows())
    } else {
        x.shape()
    }
}

/// `C = alpha * op(A) * op(B) + beta * C`.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS sgemm signature
pub fn gemm(
    par: Par,
    alpha: f32,
    a: MatView<'_>,
    ta: bool,
    b: MatView<'_>,
    tb: bool,
    beta: f32,
    c: &mut MatViewMut<'_>,
) {
    gemm_with(par, alpha, a, ta, b, tb, beta, c, BLOCKING, Isa::detect());
}

/// [`gemm`] with explicit blocking and instantiation.
#[allow(clippy::too_many_arguments)]
fn gemm_with(
    par: Par,
    alpha: f32,
    a: MatView<'_>,
    ta: bool,
    b: MatView<'_>,
    tb: bool,
    beta: f32,
    c: &mut MatViewMut<'_>,
    blk: GemmBlocking,
    isa: Isa,
) {
    let (m, k) = op_shape(&a, ta);
    let (kb, n) = op_shape(&b, tb);
    assert_eq!(k, kb, "gemm: inner dimension mismatch ({k} vs {kb})");
    assert_eq!(c.shape(), (m, n), "gemm: output shape mismatch");

    // Apply beta up front so the accumulation loops are pure +=.
    scale_c(par, beta, c);
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }

    let product = Product {
        alpha,
        a,
        ta,
        b,
        tb,
        blk,
        isa,
    };
    // Split the longer side of C: the operand along the other side is the
    // one every worker packs for itself, so it should be the smaller.
    let split_rows = m >= n;
    let widest = (m.max(n) / MIN_EXTENT_PER_WORKER).min(2 * m * n * k / MIN_FLOPS_PER_WORKER);
    let workers = if par.is_parallel() && widest > 1 {
        rayon::current_num_threads().min(widest)
    } else {
        1
    };
    let c_slice = c.as_mut_slice();
    if workers == 1 {
        product.accumulate(0, 0, m, n, CPart::Rows(c_slice, n));
    } else if split_rows {
        // One balanced, tile-aligned block of whole rows per worker.
        let rows_per = m.div_ceil(workers).next_multiple_of(MR);
        c_slice
            .par_chunks_mut(rows_per * n)
            .enumerate()
            .for_each(|(w, rows)| {
                let mw = rows.len() / n;
                product.accumulate(w * rows_per, 0, mw, n, CPart::Rows(rows, n));
            });
    } else {
        // One balanced, tile-aligned column range per worker, held as that
        // range of every row: disjoint `&mut` segments, no aliasing of C.
        let cols_per = n.div_ceil(workers).next_multiple_of(NR);
        let mut parts: Vec<Vec<&mut [f32]>> = (0..n.div_ceil(cols_per))
            .map(|_| Vec::with_capacity(m))
            .collect();
        for row in c_slice.chunks_mut(n) {
            for (part, seg) in parts.iter_mut().zip(row.chunks_mut(cols_per)) {
                part.push(seg);
            }
        }
        parts.par_iter_mut().enumerate().for_each(|(w, segs)| {
            let nw = cols_per.min(n - w * cols_per);
            product.accumulate(0, w * cols_per, m, nw, CPart::Cols(segs));
        });
    }
}

/// The part of C one worker owns: whole rows of width `ld`, or one column
/// range of every row.
enum CPart<'p, 'c> {
    Rows(&'p mut [f32], usize),
    Cols(&'p mut [&'c mut [f32]]),
}

impl CPart<'_, '_> {
    /// Row `i` of the part, as wide as the part.
    #[inline(always)]
    fn row(&mut self, i: usize) -> &mut [f32] {
        match self {
            CPart::Rows(data, ld) => &mut data[i * *ld..(i + 1) * *ld],
            CPart::Cols(segs) => segs[i],
        }
    }
}

/// Everything about one `alpha * op(A) * op(B)` that its workers share.
struct Product<'a> {
    alpha: f32,
    a: MatView<'a>,
    ta: bool,
    b: MatView<'a>,
    tb: bool,
    blk: GemmBlocking,
    isa: Isa,
}

impl Product<'_> {
    /// `c += (alpha * op(A) * op(B))[r0..r0+m, c0..c0+n]`, sequentially, in
    /// the Goto loop order, with pack buffers sized to this part.
    fn accumulate(&self, r0: usize, c0: usize, m: usize, n: usize, mut c: CPart<'_, '_>) {
        let GemmBlocking { mc, kc, nc } = self.blk;
        let (_, k) = op_shape(&self.a, self.ta);
        let mut b_pack = vec![0.0f32; nc.min(n).next_multiple_of(NR) * kc.min(k)];
        let mut a_pack = vec![0.0f32; mc.min(m).next_multiple_of(MR) * kc.min(k)];
        for jc in (0..n).step_by(nc) {
            let nc = nc.min(n - jc);
            for pc in (0..k).step_by(kc) {
                let kc = kc.min(k - pc);
                let b_slab = &mut b_pack[..nc.next_multiple_of(NR) * kc];
                let (j0, j1) = (c0 + jc, c0 + jc + nc);
                pack_panels::<NR>(&self.b, self.tb, j0, j1, pc, kc, 1.0, b_slab);
                for ic in (0..m).step_by(mc) {
                    let mc = mc.min(m - ic);
                    let a_blk = &mut a_pack[..mc.next_multiple_of(MR) * kc];
                    let (i0, i1) = (r0 + ic, r0 + ic + mc);
                    pack_panels::<MR>(&self.a, !self.ta, i0, i1, pc, kc, self.alpha, a_blk);
                    let block = Block { ic, mc, jc, nc, kc };
                    macro_kernel(self.isa, &mut c, block, a_blk, b_slab);
                }
            }
        }
    }
}

fn scale_c(par: Par, beta: f32, c: &mut MatViewMut<'_>) {
    if beta == 1.0 {
        return;
    }
    if beta == 0.0 {
        c.as_mut_slice().fill(0.0);
    } else {
        crate::vecops::scale(par, beta, c.as_mut_slice());
    }
}

/// Packs `scale * op(X)[l0..l_end, pc..pc+kc]` — lanes are rows of `op(A)`
/// or columns of `op(B)` — into `out`, `R` lanes per panel, each panel
/// p-major (`panel[p * R + lane]`) and the last one zero-padded to `R`.
/// `lanes_are_rows` says whether a lane is a row of the stored `X` (then a
/// panel gathers `R` source rows) or a column (then every source row is
/// dealt out `R` elements to a panel); either way each source row is read
/// once, contiguously.
#[allow(clippy::too_many_arguments)]
fn pack_panels<const R: usize>(
    x: &MatView<'_>,
    lanes_are_rows: bool,
    l0: usize,
    l_end: usize,
    pc: usize,
    kc: usize,
    scale: f32,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), (l_end - l0).next_multiple_of(R) * kc);
    if lanes_are_rows {
        for (ip, panel) in out.chunks_exact_mut(kc * R).enumerate() {
            let l = l0 + ip * R;
            let r = R.min(l_end - l);
            if r < R {
                panel.fill(0.0);
            }
            for lane in 0..r {
                let src = &x.row(l + lane)[pc..pc + kc];
                for (d, &s) in panel[lane..].iter_mut().step_by(R).zip(src) {
                    *d = scale * s;
                }
            }
        }
    } else {
        for p in 0..kc {
            let src = &x.row(pc + p)[l0..l_end];
            for (lanes, panel) in src.chunks(R).zip(out.chunks_exact_mut(kc * R)) {
                let dst = &mut panel[p * R..(p + 1) * R];
                for (d, &s) in dst.iter_mut().zip(lanes) {
                    *d = scale * s;
                }
                dst[lanes.len()..].fill(0.0);
            }
        }
    }
}

/// The block of a worker's part that one macro-kernel call updates —
/// `c[ic..ic+mc, jc..jc+nc]` — and the depth `kc` of the packed panels that
/// update it.
#[derive(Clone, Copy)]
struct Block {
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kc: usize,
}

/// `c[block] += A_block * B_slab` on the chosen instantiation; `a_pack` and
/// `b_pack` hold the block's `MR`-lane and the slab's `NR`-lane panels.
fn macro_kernel(isa: Isa, c: &mut CPart<'_, '_>, block: Block, a_pack: &[f32], b_pack: &[f32]) {
    match isa {
        Isa::Portable => macro_kernel_body(c, block, a_pack, b_pack),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => {
            // SAFETY: `Isa::Avx2Fma` comes from `Isa::detect`, which returns
            // it only after `is_x86_feature_detected!` reported both `avx2`
            // and `fma` on the running CPU — the features the callee is
            // compiled with. The callee is otherwise safe code.
            unsafe { macro_kernel_avx2fma(c, block, a_pack, b_pack) }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn macro_kernel_avx2fma(c: &mut CPart<'_, '_>, block: Block, a_pack: &[f32], b_pack: &[f32]) {
    macro_kernel_body(c, block, a_pack, b_pack);
}

#[inline(always)]
fn macro_kernel_body(c: &mut CPart<'_, '_>, block: Block, a_pack: &[f32], b_pack: &[f32]) {
    let Block { ic, mc, jc, nc, kc } = block;
    // B panel outermost: it stays in L1 while the A panels stream past.
    for (jp, b_panel) in b_pack.chunks_exact(kc * NR).enumerate() {
        let j0 = jc + jp * NR;
        let nr = NR.min(jc + nc - j0);
        for (ip, a_panel) in a_pack.chunks_exact(kc * MR).enumerate() {
            let i0 = ic + ip * MR;
            let mr = MR.min(ic + mc - i0);
            let acc = micro_kernel(a_panel, b_panel);
            // Padding lanes (rows past `mr`, columns past `nr`) stop here.
            for (i, acc_row) in acc.iter().enumerate().take(mr) {
                let c_row = &mut c.row(i0 + i)[j0..j0 + nr];
                for (cv, &av) in c_row.iter_mut().zip(acc_row) {
                    *cv += av;
                }
            }
        }
    }
}

/// One `MR x NR` tile of `A_panel * B_panel`, accumulated from zero with
/// one fused multiply-add per element per `p`, `p` ascending — the contract's
/// inner loop, and the only place products are formed.
#[inline(always)]
fn micro_kernel(a_panel: &[f32], b_panel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (a, b) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        for (acc_row, &ai) in acc.iter_mut().zip(a) {
            for (cv, &bj) in acc_row.iter_mut().zip(b) {
                *cv = ai.mul_add(bj, *cv);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::gemm_ref;
    use micdnn_tensor::{max_abs_diff, Mat};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const KC: usize = BLOCKING.kc;
    const TRANSPOSES: [(bool, bool); 4] =
        [(false, false), (true, false), (false, true), (true, true)];

    fn random_mat(rows: usize, cols: usize, rng: &mut StdRng) -> Mat {
        Mat::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    /// A random stored matrix whose `op()` is `rows x cols`.
    fn random_op(rows: usize, cols: usize, t: bool, rng: &mut StdRng) -> Mat {
        if t {
            random_mat(cols, rows, rng)
        } else {
            random_mat(rows, cols, rng)
        }
    }

    /// `alpha * op(A) * op(B) + beta * C0` by [`gemm_with`] on `isa`.
    fn product_on(
        isa: Isa,
        par: Par,
        alpha: f32,
        (a, ta): (&Mat, bool),
        (b, tb): (&Mat, bool),
        beta: f32,
        c0: &Mat,
    ) -> Mat {
        let mut c = c0.clone();
        let (a, b, cv) = (a.view(), b.view(), &mut c.view_mut());
        gemm_with(par, alpha, a, ta, b, tb, beta, cv, BLOCKING, isa);
        c
    }

    /// [`product_on`] the instantiation [`gemm`] picks.
    fn product(par: Par, alpha: f32, a: (&Mat, bool), b: (&Mat, bool), beta: f32, c0: &Mat) -> Mat {
        product_on(Isa::detect(), par, alpha, a, b, beta, c0)
    }

    /// The blocking override `custom_blocking_same_result` sweeps.
    #[allow(clippy::too_many_arguments)]
    fn gemm_with_blocking(
        par: Par,
        alpha: f32,
        a: MatView<'_>,
        ta: bool,
        b: MatView<'_>,
        tb: bool,
        beta: f32,
        c: &mut MatViewMut<'_>,
        blk: GemmBlocking,
    ) {
        gemm_with(par, alpha, a, ta, b, tb, beta, c, blk, Isa::detect());
    }

    fn check_against_ref(m: usize, n: usize, k: usize, ta: bool, tb: bool, alpha: f32, beta: f32) {
        let mut rng = StdRng::seed_from_u64((m * 31 + n * 7 + k) as u64);
        let a = random_op(m, k, ta, &mut rng);
        let b = random_op(k, n, tb, &mut rng);
        let c0 = random_mat(m, n, &mut rng);

        let mut c_ref = c0.clone();
        gemm_ref(
            alpha,
            a.view(),
            ta,
            b.view(),
            tb,
            beta,
            &mut c_ref.view_mut(),
        );

        for par in [Par::Seq, Par::Rayon] {
            let mut c = c0.clone();
            gemm(
                par,
                alpha,
                a.view(),
                ta,
                b.view(),
                tb,
                beta,
                &mut c.view_mut(),
            );
            let diff = max_abs_diff(c.as_slice(), c_ref.as_slice());
            assert!(
                diff < 1e-3 * (k as f32).max(1.0).sqrt(),
                "gemm mismatch m={m} n={n} k={k} ta={ta} tb={tb} par={par:?}: {diff}"
            );
        }
    }

    #[test]
    fn matches_reference_all_transpose_combos() {
        for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
            check_against_ref(17, 23, 31, ta, tb, 1.0, 0.0);
            check_against_ref(65, 130, 257, ta, tb, 0.7, 0.3);
        }
    }

    #[test]
    fn matches_reference_block_boundaries() {
        // Sizes exactly on and around the default block boundaries.
        for m in [63, 64, 65] {
            for k in [255, 256, 257] {
                check_against_ref(m, 33, k, false, false, 1.0, 1.0);
            }
        }
        check_against_ref(64, 512, 256, false, false, 1.0, 0.0);
        check_against_ref(64, 513, 256, false, true, 1.0, 0.0);
    }

    #[test]
    fn seq_and_par_bitwise_identical() {
        let mut rng = StdRng::seed_from_u64(1234);
        let a = random_mat(200, 300, &mut rng);
        let b = random_mat(300, 150, &mut rng);
        let mut c1 = Mat::zeros(200, 150);
        let mut c2 = Mat::zeros(200, 150);
        gemm(
            Par::Seq,
            1.0,
            a.view(),
            false,
            b.view(),
            false,
            0.0,
            &mut c1.view_mut(),
        );
        gemm(
            Par::Rayon,
            1.0,
            a.view(),
            false,
            b.view(),
            false,
            0.0,
            &mut c2.view_mut(),
        );
        assert_eq!(c1.as_slice(), c2.as_slice(), "threading changed bits");
    }

    #[test]
    fn hostile_shapes_match_reference() {
        // Every extent the tiling or the k-slabs can be hostile at, as m, n
        // and k independently, against the scalar oracle.
        const EXTENTS: [usize; 12] = [
            0,
            1,
            MR - 1,
            MR,
            MR + 1,
            NR - 1,
            NR,
            NR + 1,
            KC - 1,
            KC,
            KC + 1,
            2 * KC + 3,
        ];
        const SCALES: [(f32, f32); 4] = [(1.0, 0.0), (0.7, 0.3), (1.0, 1.0), (-1.0, 0.0)];
        let top_left =
            |x: &Mat, rows: usize, cols: usize| Mat::from_fn(rows, cols, |r, c| x.get(r, c));
        let mut rng = StdRng::seed_from_u64(2014);
        let max = EXTENTS[EXTENTS.len() - 1];
        // op(A), op(B)^T and C of the largest shape; every other shape takes
        // their top-left corners.
        let a_max = random_mat(max, max, &mut rng);
        let bt_max = random_mat(max, max, &mut rng);
        let c_max = random_mat(max, max, &mut rng);
        for k in EXTENTS {
            // `gemm_ref` forms `alpha * acc + beta * prev` from the dot
            // product `acc` of row i and column j, summed over p ascending
            // whatever m, n and the storage are. Its triple loop therefore
            // runs once per k, at the largest m and n on the layout it walks
            // contiguously, and every smaller shape, transpose and
            // (alpha, beta) is derived with that same expression — checked
            // against the literal call wherever the shape is small enough
            // to afford it.
            let (a_k, bt_k) = (top_left(&a_max, max, k), top_left(&bt_max, max, k));
            let mut acc = Mat::zeros(max, max);
            gemm_ref(
                1.0,
                a_k.view(),
                false,
                bt_k.view(),
                true,
                0.0,
                &mut acc.view_mut(),
            );
            for m in EXTENTS {
                for n in EXTENTS {
                    let (a, bt) = (top_left(&a_k, m, k), top_left(&bt_k, n, k));
                    let (c0, acc) = (top_left(&c_max, m, n), top_left(&acc, m, n));
                    // The stored operand of a transposed case is the
                    // transpose of op(A) or op(B).
                    let stored = [[a.clone(), a.transposed()], [bt.transposed(), bt.clone()]];
                    for (alpha, beta) in SCALES {
                        let mut c_ref = c0.clone();
                        for (r, &p) in c_ref.as_mut_slice().iter_mut().zip(acc.as_slice()) {
                            *r = alpha * p + beta * *r;
                        }
                        for (ta, tb) in TRANSPOSES {
                            let (a, b) = (&stored[0][usize::from(ta)], &stored[1][usize::from(tb)]);
                            if m * n * k <= 1 << 12 {
                                let mut literal = c0.clone();
                                let c = &mut literal.view_mut();
                                gemm_ref(alpha, a.view(), ta, b.view(), tb, beta, c);
                                assert_eq!(literal.as_slice(), c_ref.as_slice());
                            }
                            for par in [Par::Seq, Par::Rayon] {
                                let c = product(par, alpha, (a, ta), (b, tb), beta, &c0);
                                let diff = max_abs_diff(c.as_slice(), c_ref.as_slice());
                                assert!(
                                    diff < 1e-3 * (k as f32).max(1.0).sqrt(),
                                    "gemm mismatch m={m} n={n} k={k} ta={ta} tb={tb} \
                                     alpha={alpha} beta={beta} par={par:?}: {diff}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nonfinite_operands_propagate_like_the_reference() {
        // One operand carries a NaN, +Inf or -Inf where the other is zero
        // along the whole k index it meets (0 * x must reach C as NaN), and
        // an Inf where the other is not zero (a signed Inf in C).
        let class = |x: &f32| {
            (
                x.is_nan(),
                x.is_infinite(),
                x.is_sign_negative() && !x.is_nan(),
            )
        };
        let (m, n, k) = (2 * MR + 1, NR + 3, 19);
        let (p_zero, p_live) = (4, 11);
        for (ta, tb) in TRANSPOSES {
            for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for poison_in_b in [true, false] {
                    let mut rng = StdRng::seed_from_u64(8);
                    let mut a = random_op(m, k, ta, &mut rng);
                    let mut b = random_op(k, n, tb, &mut rng);
                    // op(X)[r, c] of a stored, possibly transposed matrix.
                    let set = |x: &mut Mat, t: bool, r: usize, c: usize, v: f32| {
                        if t {
                            x.set(c, r, v)
                        } else {
                            x.set(r, c, v)
                        }
                    };
                    if poison_in_b {
                        (0..m).for_each(|i| set(&mut a, ta, i, p_zero, 0.0));
                        set(&mut b, tb, p_zero, 2, poison);
                        set(&mut b, tb, p_live, NR + 1, f32::INFINITY);
                    } else {
                        (0..n).for_each(|j| set(&mut b, tb, p_zero, j, 0.0));
                        set(&mut a, ta, 2, p_zero, poison);
                        set(&mut a, ta, 2 * MR, p_live, f32::INFINITY);
                    }
                    let c0 = random_mat(m, n, &mut rng);
                    let mut c_ref = c0.clone();
                    gemm_ref(0.7, a.view(), ta, b.view(), tb, 0.3, &mut c_ref.view_mut());
                    let bad = c_ref.as_slice().iter().filter(|x| !x.is_finite()).count();
                    assert_eq!(bad, if poison_in_b { 2 * m } else { 2 * n });
                    for par in [Par::Seq, Par::Rayon] {
                        let c = product(par, 0.7, (&a, ta), (&b, tb), 0.3, &c0);
                        assert!(
                            c.as_slice()
                                .iter()
                                .map(class)
                                .eq(c_ref.as_slice().iter().map(class)),
                            "non-finite values landed elsewhere than in gemm_ref: \
                             ta={ta} tb={tb} poison={poison} in_b={poison_in_b} {par:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn portable_and_avx2_instantiations_bitwise_identical() {
        if Isa::detect() == Isa::Portable {
            println!("skipped: this CPU has no AVX2+FMA, only the portable instantiation runs");
            return;
        }
        // Edge tiles in both dimensions, three k-slabs.
        let (m, n, k) = (3 * MR + 1, 2 * NR + 5, 2 * KC + 3);
        let mut rng = StdRng::seed_from_u64(99);
        for (ta, tb) in TRANSPOSES {
            let a = random_op(m, k, ta, &mut rng);
            let b = random_op(k, n, tb, &mut rng);
            let c0 = random_mat(m, n, &mut rng);
            let portable = product_on(Isa::Portable, Par::Seq, 0.7, (&a, ta), (&b, tb), 0.3, &c0);
            let detected = product(Par::Seq, 0.7, (&a, ta), (&b, tb), 0.3, &c0);
            assert_eq!(
                portable.as_slice(),
                detected.as_slice(),
                "CPU feature changed bits (ta={ta} tb={tb})"
            );
        }
    }

    #[test]
    fn each_row_and_column_is_its_own_product() {
        // C[i, j] depends on row i of op(A) and column j of op(B) only: not
        // on m, n, the tile it falls in, the block, or the worker. Extents
        // straddle MR / NR, the MC and NC blocks, and (the last two, which
        // are just large enough for `Par::Rayon` to fork) the row and the
        // column split between workers.
        let k = 2 * KC + 3;
        let (mc, nc) = (BLOCKING.mc, BLOCKING.nc);
        let split = 2 * MIN_EXTENT_PER_WORKER + 7;
        let other = MIN_FLOPS_PER_WORKER.div_ceil(split * k) + 1;
        let shapes = [
            (MR - 1, NR + 1),
            (MR + 1, NR - 1),
            (mc + 1, 2 * NR + 3),
            (MR + 2, nc + 1),
            (split, other),
            (other, split),
        ];
        let mut rng = StdRng::seed_from_u64(6);
        for (ta, tb) in TRANSPOSES {
            for (m, n) in shapes {
                let a = random_op(m, k, ta, &mut rng);
                let b = random_op(k, n, tb, &mut rng);
                let c0 = random_mat(m, n, &mut rng);
                let whole = product(Par::Rayon, 0.7, (&a, ta), (&b, tb), 0.3, &c0);
                for i in 0..m {
                    let a_row =
                        Mat::from_fn(1, k, |_, p| if ta { a.get(p, i) } else { a.get(i, p) });
                    let c_row = Mat::from_fn(1, n, |_, j| c0.get(i, j));
                    let alone = product(Par::Seq, 0.7, (&a_row, false), (&b, tb), 0.3, &c_row);
                    assert_eq!(
                        alone.as_slice(),
                        whole.row(i),
                        "row {i} of {m}x{n} ta={ta} tb={tb}"
                    );
                }
                for j in 0..n {
                    let b_col =
                        Mat::from_fn(k, 1, |p, _| if tb { b.get(j, p) } else { b.get(p, j) });
                    let c_col = Mat::from_fn(m, 1, |i, _| c0.get(i, j));
                    let alone = product(Par::Seq, 0.7, (&a, ta), (&b_col, false), 0.3, &c_col);
                    assert!(
                        alone.as_slice().iter().eq((0..m).map(|i| &whole.row(i)[j])),
                        "column {j} of {m}x{n} ta={ta} tb={tb}"
                    );
                }
            }
        }
    }

    #[test]
    fn seq_and_par_bitwise_identical_at_the_benchmark_shapes() {
        // (m, n, k, ta, tb) of the seven GEMMs `benchmark/` probes, at full
        // size: the three of an ae_wide layer, the RBM's, the CNN's im2col
        // product, the serving batch and the fine-tune batch.
        let shapes = [
            (200, 4096, 1024, false, true),
            (200, 1024, 4096, false, false),
            (4096, 1024, 200, true, false),
            (20, 64, 144, false, true),
            (28800, 8, 25, false, true),
            (64, 256, 784, false, true),
            (100, 256, 784, false, true),
        ];
        let mut rng = StdRng::seed_from_u64(12);
        for (m, n, k, ta, tb) in shapes {
            let a = random_op(m, k, ta, &mut rng);
            let b = random_op(k, n, tb, &mut rng);
            let c0 = Mat::zeros(m, n);
            let seq = product(Par::Seq, 1.0, (&a, ta), (&b, tb), 0.0, &c0);
            let par = product(Par::Rayon, 1.0, (&a, ta), (&b, tb), 0.0, &c0);
            assert_eq!(
                seq.as_slice(),
                par.as_slice(),
                "threading changed bits at {m}x{n}x{k}"
            );
        }
    }

    #[test]
    fn custom_blocking_same_result() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = random_mat(50, 70, &mut rng);
        let b = random_mat(70, 40, &mut rng);
        let mut c_default = Mat::zeros(50, 40);
        gemm(
            Par::Seq,
            1.0,
            a.view(),
            false,
            b.view(),
            false,
            0.0,
            &mut c_default.view_mut(),
        );
        for blk in [
            GemmBlocking {
                mc: 1,
                kc: 1,
                nc: 1,
            },
            GemmBlocking {
                mc: 7,
                kc: 13,
                nc: 5,
            },
            GemmBlocking {
                mc: 1000,
                kc: 1000,
                nc: 1000,
            },
        ] {
            let mut c = Mat::zeros(50, 40);
            gemm_with_blocking(
                Par::Seq,
                1.0,
                a.view(),
                false,
                b.view(),
                false,
                0.0,
                &mut c.view_mut(),
                blk,
            );
            let diff = max_abs_diff(c.as_slice(), c_default.as_slice());
            assert!(diff < 1e-4, "blocking {blk:?} diverged: {diff}");
        }
    }

    #[test]
    fn beta_zero_overwrites_garbage() {
        // beta = 0 must ignore pre-existing NaN in C.
        let a = Mat::eye(2);
        let b = Mat::full(2, 2, 3.0);
        let mut c = Mat::full(2, 2, f32::NAN);
        gemm(
            Par::Seq,
            1.0,
            a.view(),
            false,
            b.view(),
            false,
            0.0,
            &mut c.view_mut(),
        );
        assert!(c.all_finite());
        assert!(c.as_slice().iter().all(|&x| x == 3.0));
    }

    #[test]
    fn alpha_zero_is_pure_scale() {
        let a = Mat::full(2, 3, f32::NAN); // must never be touched
        let b = Mat::full(3, 2, f32::NAN);
        let mut c = Mat::full(2, 2, 4.0);
        gemm(
            Par::Seq,
            0.0,
            a.view(),
            false,
            b.view(),
            false,
            0.5,
            &mut c.view_mut(),
        );
        assert!(c.as_slice().iter().all(|&x| x == 2.0));
    }

    #[test]
    fn empty_dims() {
        let a = Mat::zeros(0, 5);
        let b = Mat::zeros(5, 3);
        let mut c = Mat::zeros(0, 3);
        gemm(
            Par::Seq,
            1.0,
            a.view(),
            false,
            b.view(),
            false,
            0.0,
            &mut c.view_mut(),
        );
        let a = Mat::zeros(2, 0);
        let b = Mat::zeros(0, 3);
        let mut c = Mat::full(2, 3, 1.0);
        gemm(
            Par::Seq,
            1.0,
            a.view(),
            false,
            b.view(),
            false,
            1.0,
            &mut c.view_mut(),
        );
        assert!(
            c.as_slice().iter().all(|&x| x == 1.0),
            "k=0 with beta=1 must keep C"
        );
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn output_shape_checked() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(3, 4);
        let mut c = Mat::zeros(2, 5);
        gemm(
            Par::Seq,
            1.0,
            a.view(),
            false,
            b.view(),
            false,
            0.0,
            &mut c.view_mut(),
        );
    }
}
