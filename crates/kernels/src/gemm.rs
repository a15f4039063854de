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
//!   B is materialised (see **Packing** below);
//! * under a B slab, rows of C are walked in `MC`-row blocks, each packing
//!   `alpha * op(A)` into `MR`-row panels stored p-major
//!   (`panel[p * MR + i]`) — unless the slab is a single B panel
//!   (`n <= NR`). Then every element of A meets one B panel only, so a pack
//!   would cost a pass over A and save none, and the microkernel broadcasts
//!   `alpha * A[i,p]` straight from A's storage, read through a (row stride,
//!   column stride) accessor that serves either transpose: the value the
//!   pack would have stored;
//! * the microkernel multiplies one A panel by one B panel into an
//!   `MR x NR` tile of accumulators that lives in registers for the whole
//!   k-slab, and the tile is added to C once per slab. Edge panels are
//!   zero-padded to full width (an A read in place re-reads its last row
//!   instead); their padding lanes are computed and never stored.
//!
//! **Threads.** A product large enough to pay for a fork (see
//! `MIN_FLOPS_PER_WORKER`) is cut into one balanced part per worker, in one
//! of three ways:
//!
//! * whole rows, when `m >= n`;
//! * one column range of every row, when `m < n`;
//! * a contiguous run of k-slabs, when C is a single tile (`m <= MR` and
//!   `n <= NR`) and so has no side to cut. Each worker writes every slab's
//!   raw tile into a `slabs x m x n` scratch, and the caller then adds the
//!   tiles into C in ascending slab order, which is step 2 of the contract
//!   below exactly. The CNN's filter gradient `8x25x28800` is such a
//!   product: one tile deep 113 slabs, which otherwise ran on one thread.
//!
//! A part is a whole number of tiles (or slabs) of the side being cut, and
//! gets at least `MIN_FLOPS_PER_WORKER`. Every worker runs the sequential
//! nest above on its part, with its own thread's pack buffers, reused by
//! every slab and every later product on that thread. That is one fork per call and no shared mutable
//! state: the operand along the split side is packed in parallel, each
//! worker its own share, and only the smaller operand is packed once per
//! worker. Every split hands out disjoint `&mut` slices — of C's rows, of
//! each row's segment in a column range, or of the scratch's runs of
//! tiles — so there is no aliasing to argue about.
//!
//! **One source, three instantiations.** The kernel body — the macro-kernel
//! around the microkernel — is safe `#[inline(always)]` code, const-generic
//! over the tile `MR x NR`, as are the pack buffers of the loop nest around
//! it. The body is compiled three times, as the crate's `isa` module
//! describes for every kernel: as is; inside a
//! `#[target_feature(enable = "avx2,fma")]` function; and inside a
//! `#[target_feature(enable = "avx512f,avx2,fma")]` one. `Isa::detect`
//! picks the widest the CPU runs, and LLVM turns the same loops into
//! `vfmadd231ps` on `ymm` or `zmm` registers. The feature boundary sits at the macro-kernel on
//! purpose: with the whole nest compiled under the feature, LLVM kept the
//! tile in registers only after link-time optimisation, and a build without
//! it (the test profile) ran at a tenth of the speed.
//!
//! The multiply-add is `f32::mul_add`, never `a * b + c`: a fused
//! multiply-add rounds once and IEEE 754 fixes its result exactly, so the
//! instructions and the portable `fmaf` fallback agree bit for bit —
//! separate multiply and add would round twice, and the instantiations
//! would differ wherever the compiler chose to contract them. Hence no CPU
//! feature is recorded in checkpoints and there is no second code path to
//! keep in step. (Without hardware FMA the portable instantiation is
//! correct but slow: `fmaf` is then a library call.)
//!
//! **Tile size, per instantiation.** The tile is the largest the register
//! file holds without spilling: its rows of accumulators, plus the two B
//! vectors of the current `p` and the broadcast A element. Each step of the
//! k loop is 2 loads + `MR` broadcasts feeding `2 * MR` FMAs, which is what
//! keeps both FMA ports busy.
//!
//! | instantiation | registers | tile | accumulators + B + broadcast |
//! |---|---|---|---|
//! | portable, AVX2+FMA | 16 `ymm`, 8 lanes | `6 x 16` | 12 + 2 + 1 = 15 |
//! | AVX-512 | 32 `zmm`, 16 lanes | `12 x 32` | 24 + 2 + 1 = 27 |
//! | AVX-512, `n <= 16` | 32 `zmm`, 16 lanes | `6 x 16` | 6 + 1 + 1 = 8 |
//!
//! `12 x 32` would need 48 `ymm` accumulators and spill, so the tile is a
//! property of the instantiation and the product's width, not a constant:
//! `Isa::tile` names it, the split between workers aligns to it, and the
//! pack buffers are sized by it. The AVX-512 tile was chosen by sweeping the AVX-512 instantiation
//! over the ten products the tests pin at the benchmark shapes
//! (`m x n x k`; GFLOP/s through [`gemm`] at two threads, median of five
//! interleaved rounds, on a two-vCPU AVX-512 Xeon VM; the first column is
//! the AVX2 instantiation at `6 x 16`, which `gemm` ran before):
//!
//! | product | AVX2 `6x16` | `6x16` | `6x32` | `12x32` |
//! |---|---|---|---|---|
//! | ae_wide forward `200x4096x1024` | 73 | 100 | 106 | 110 |
//! | ae_wide backward-data `200x1024x4096` | 85 | 117 | 121 | 133 |
//! | ae_wide backward-weight `4096x1024x200` | 77 | 106 | 118 | 144 |
//! | RBM forward `20x64x144` | 15 | 17 | 20 | 20 |
//! | RBM statistics `64x144x20` | 26 | 34 | 38 | 36 |
//! | RBM prop-down `20x144x64` | 25 | 28 | 30 | 30 |
//! | CNN im2col `28800x8x25` | 15 | 16 | 14 | 13 |
//! | CNN filter gradient `8x25x28800` | 9 | 10 | 10 | 9 |
//! | serving batch `64x256x784` | 58 | 70 | 72 | 70 |
//! | fine-tune `100x256x784` | 65 | 79 | 77 | 88 |
//!
//! `12 x 32` wins the three large products by 10–35 % over `6 x 16` and is
//! within noise of the others; the two narrow CNN products, whose `n` of 8
//! and 25 fill one tile either way, cannot use the width. Larger tiles fall
//! off a cliff: `14 x 32` (28 accumulators) and `8 x 48` (24, with three B
//! vectors) no longer stay in registers and ran every product at
//! 1–7 GFLOP/s.
//!
//! A product at most 16 columns wide fills one `zmm` per tile row, so at
//! `12 x 32` it computes two padding lanes for every lane it stores (four at
//! the CNN's `n = 8`). It runs at `6 x 16` instead: a third compilation of
//! the same body under AVX-512, chosen from `n`. Only `6 x 16` ships: the
//! taller narrow tiles fall off the cliff too. Time relative to `6 x 16`
//! (through [`gemm`] at two threads, median of 11 interleaved pairs, two
//! runs, same VM):
//!
//! | product | `12 x 16` | `24 x 16` | `12 x 32` |
//! |---|---|---|---|
//! | CNN im2col `28800x8x25` | 10.3, 9.9 | 8.3, 7.8 | 1.22, 1.20 |
//! | softmax head `100x10x64` | 14.7, 11.8 | 10.9, 12.4 | 1.79, 1.29 |
//! | softmax head `64x10x64` | 13.4, 11.5 | 9.4, 10.1 | 1.81, 1.36 |
//!
//! # Packing
//!
//! A pack moves `scale * x` (`alpha` for A, 1 for B) into panels and does
//! nothing else, so how it moves them cannot change a bit of C; each
//! instantiation's pack is pinned to the portable one, padding lanes
//! (`+0.0`) included. Every pack writes every element of the buffer it hands
//! to the microkernel, so a thread keeps its two pack buffers in a
//! `thread_local` from one product to the next — at most `(mc + nc) * kc`
//! floats, 0.66 MB at `BLOCKING` — instead of allocating and zeroing them
//! per call. A pack takes one of two shapes:
//!
//! * a lane is a column of the stored matrix (a `tb = false` B, a
//!   `ta = true` A): each `p` of a panel copies `R` adjacent floats of one
//!   source row. Safe code walks the output panel by panel, so each copy has
//!   the length `R` the compiler knows, and is compiled per instantiation
//!   (`per_isa!`) to whole vectors;
//! * a lane is a stored row (a `tb = true` B, as in every `x·Wᵀ`, or a
//!   `ta = false` A): the pack transposes. The portable and AVX2
//!   instantiations scatter each source row `R` apart in scalar code;
//!   reorderings of that safe code (a p-blocked tile, a p-outer loop, a
//!   shuffle through arrays) did not vectorise and ran no faster. The
//!   AVX-512 instantiation runs one masked `vgatherdps` per `p` and group of
//!   16 lanes instead. That body is the crate's only `unsafe` code besides
//!   the feature dispatch: it reads through a checked slice of the group's
//!   rows and writes through a checked slice of the panel, masked to the
//!   lanes that lie inside them. AVX2 has an 8-lane gather too, but it has
//!   only been timed on an AVX-512 CPU, whose gather costs differ from
//!   those of the CPUs the AVX2 instantiation serves; it waits for a
//!   measurement on a CPU without AVX-512.
//!
//! Each pack alone at the AVX-512 tile, timed outside the crate on a
//! two-vCPU AVX-512 Xeon VM; each cell spans the medians of two or three
//! runs of 15–21 rounds (a `memcpy` of the RBM's `W`, `64 x 144`, takes
//! 1.1–1.2 µs):
//!
//! | pack | before | AVX-512 instantiation |
//! |---|---|---|
//! | transposing, RBM `Wᵀ`, 32 lanes | scatter 5.3–7.2 µs | gather 2.0–4.1 µs |
//! | contiguous, RBM prop-down `W`, 32 lanes, `kc` 64 | 3.3–3.5 µs | 1.7–1.9 µs |
//! | contiguous, RBM statistics `v`, 32 lanes, `kc` 20 | 0.9–1.0 µs | 0.34–0.35 µs |
//! | contiguous, ae_wide `W` slab, `512 x 256` of `4096 x 1024` | 43–44 µs | 24–27 µs |
//! | contiguous, ae_wide `x` slab, `512 x 200` of `200 x 1024` | 25–31 µs | 12–13 µs |
//!
//! "Before" is the scalar code this module ran until the packs were
//! reworked: the contiguous pack then read each source row once across
//! every panel (p outer), compiled for the baseline target. Walking panel
//! by panel gave most of the contiguous gain (at the baseline target the
//! ae_wide `W` slab took 32–34 µs), and compiling per instantiation the
//! rest.
//!
//! The five products of one CD-1 step at the RBM shape (`144 x 64`, batch
//! 20) under the AVX-512 instantiation, with each pack and macro-kernel call
//! timed (µs per step, median of seven interleaved runs of 20 000 steps,
//! same VM, `MALLOC_MMAP_THRESHOLD_=131072` as the benchmark sets it):
//!
//! | µs per step | scalar packs, buffers per call | this module |
//! |---|---|---|
//! | B packs | 27.0 | 10.3 |
//! | A packs | 8.5 | 4.8 |
//! | pack buffers (allocate, zero, free) | 3.4 | 0.3 |
//! | macro-kernel | 24.5 | 25.6 |
//! | the five products | 66.6 | 44.8 |
//!
//! The forward product `20x64x144`, which packs `Wᵀ`, went from 18.7 to
//! 8.7 µs, and its pack from 11.0 to 2.8 µs.
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
//! feature in use. The fork rule, the row, column or depth split, whether A
//! is packed, every blocking choice below and the register tile (which
//! differs between instantiations and widths) change packing and tiling,
//! never this order.
//! Bit-identical resume, graph == serial, sharded == unsharded, batched ==
//! serial serving and thread-count invariance all rest on it, and it
//! mirrors the paper's claim that its optimizations do not change the
//! computed trajectory. There is no zero-skip: `0 * Inf` and `0 * NaN`
//! reach C as NaN, as in [`crate::naive::gemm_ref`]. `alpha == 0` and zero extents reduce to the
//! `beta` scaling and read neither A nor B.

use crate::isa::{per_isa, Isa, TILE_YMM, TILE_ZMM, TILE_ZMM_NARROW};
use crate::Par;
use micdnn_tensor::{MatView, MatViewMut};
use rayon::prelude::*;
use std::borrow::Borrow;
use std::cell::Cell;
use std::ops::Range;

/// Cache-blocking and fork parameters; [`gemm`] always runs [`BLOCKING`],
/// the tests sweep odd values through [`gemm_with`].
#[derive(Debug, Clone, Copy)]
struct GemmBlocking {
    /// Rows of C per packed A block.
    mc: usize,
    /// Depth of each packed k-slab.
    kc: usize,
    /// Width of each packed B slab.
    nc: usize,
    /// Flops each worker of a forked product must get.
    min_flops: usize,
}

/// A B panel (`kc * NR` floats: 16 KiB at `NR = 16`, 32 KiB at 32) stays in
/// L1 under the streaming A panels, an A block (`mc * kc` = 144 KiB) and a
/// B slab (`kc * nc` = 512 KiB) in L2; the two are also all a worker
/// allocates. `mc` is a whole number of panels at every tile. `kc` is part
/// of the accumulation-order contract.
const BLOCKING: GemmBlocking = GemmBlocking {
    mc: 144,
    kc: 256,
    nc: 512,
    min_flops: MIN_FLOPS_PER_WORKER,
};

/// A worker owns at least one tile's height of rows (or columns, or one
/// k-slab) of C, since a split never cuts a tile, and at least this many
/// flops. A fork is one region on the rayon shim's persistent worker team
/// (≈ 1 µs when the worker is awake), plus the operand every worker packs
/// for itself. Measured on a two-vCPU VM at two threads, the median time of
/// a two-way split over one worker (`m x n x k`, total Mflop, split / one):
/// under the AVX2 instantiation at `6 x 16`; under the AVX-512 one when it
/// had the `12 x 32` tile only (two runs of 21 alternating pairs each); and
/// under the AVX-512 one with the narrow tile, the depth split and A read in
/// place (two runs of 21 alternating pairs, the split forced):
///
/// | product | Mflop | AVX2 | AVX-512, `12x32` only | AVX-512 |
/// |---|---|---|---|---|
/// | square 48 | 0.22 | 1.10 | 1.17, 1.50 | 1.18, 1.32 |
/// | RBM statistics `64x144x20` | 0.37 | 1.36 | 2.11, 1.62 | 1.46, 1.48 |
/// | RBM forward `20x64x144` | 0.37 | 0.75 | 1.36, 1.39 | 0.79, 0.84 |
/// | square 64 | 0.52 | 0.87 | 1.58, 1.20 | 0.96, 1.12 |
/// | square 96 | 1.8 | 0.77 | 1.26, 0.75 | 0.75, 0.93 |
/// | fine-tune `100x64x256` | 3.3 | 0.69 | 0.72, 0.53 | 0.58, 0.60 |
/// | fine-tune `100x256x64` | 3.3 | 0.75 | 1.31, 1.02 | 0.87, 0.91 |
/// | softmax head `64x10x64` | 0.08 | | | 1.18, 1.27 |
/// | softmax head `100x10x64` | 0.13 | | | 1.03, 1.01 |
/// | CNN im2col `28800x8x25` | 11.5 | 0.54 | 0.55, 0.61 | 0.55, 0.66 |
/// | CNN filter gradient `8x25x28800` | 11.5 | 0.73 | 1.00, 0.99 | 0.58, 0.62 |
/// | serving batch `64x256x784` | 25.7 | 0.55 | 0.58, 0.58 | 0.60, 0.70 |
/// | fine-tune `100x256x784` | 40.1 | 0.55 | 0.61, 0.60 | 0.67, 0.63 |
/// | fine-tune `256x784x100` | 40.1 | 0.56 | 0.68, 0.69 | 0.69, 0.75 |
/// | wide autoencoder `200x4096x1024` | 1678 | 0.51 | 0.56, 0.51 | 0.50, 0.52 |
///
/// Under AVX2, break-even lies between 0.2 and 0.5 Mflop and depends on the
/// shape (the two RBM products have the same flops and opposite outcomes),
/// so a product forks from 2 Mflop on, where every shape measured wins: the
/// serving batch, fine-tune, im2col and filter-gradient products do, the
/// RBM's stay on the calling thread. The faster AVX-512 kernel moved
/// break-even up to 2–4 Mflop, and `100x256x64` forked at no gain. With the
/// narrow tile and the depth split, the products from 0.2 to 3.3 Mflop still
/// go both ways from run to run, so the constant stays. The two CNN
/// products now both win, the filter gradient through its k-slabs (it was a
/// single part before), and the 10-class softmax heads, which run at the
/// narrow tile, lose or tie far below the threshold.
///
/// Every ratio above predates the gathering pack and the per-thread pack
/// buffers (see **Packing** in the module docs), which take a fixed cost
/// off every part, the copy of the smaller operand each worker packs
/// included: re-measure the table before moving the constant.
const MIN_FLOPS_PER_WORKER: usize = 1 << 20;

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

    let tile = isa.tile(n);
    let product = Product {
        alpha,
        a,
        ta,
        b,
        tb,
        blk,
        isa,
        tile,
    };
    // Split the longer side of C: the operand along the other side is the
    // one every worker packs for itself, so it should be the smaller. A C
    // of one tile has no side to split, so it splits its k-slabs.
    let (mr, nr) = tile;
    let slabs = k.div_ceil(blk.kc);
    // A part holds at least one whole tile (or slab) of the side it cuts.
    let (split, pieces) = if m <= mr && n <= nr {
        (Split::Depth, slabs)
    } else if m >= n {
        (Split::Rows, m / mr)
    } else {
        (Split::Cols, n / nr)
    };
    let parts = pieces.min(2 * m * n * k / blk.min_flops);
    let workers = if par.is_parallel() && parts > 1 {
        rayon::current_num_threads().min(parts)
    } else {
        1
    };
    let c_slice = c.as_mut_slice();
    if workers == 1 {
        let whole = Part {
            rows: 0..m,
            cols: 0..n,
            slabs: 0..slabs,
        };
        product.accumulate(whole, CPart::Rows(c_slice, n));
        return;
    }
    match split {
        Split::Rows => {
            // One balanced, tile-aligned block of whole rows per worker.
            let rows_per = m.div_ceil(workers).next_multiple_of(mr);
            c_slice
                .par_chunks_mut(rows_per * n)
                .enumerate()
                .for_each(|(w, rows)| {
                    let r0 = w * rows_per;
                    let part = Part {
                        rows: r0..r0 + rows.len() / n,
                        cols: 0..n,
                        slabs: 0..slabs,
                    };
                    product.accumulate(part, CPart::Rows(rows, n));
                });
        }
        Split::Cols => {
            // One balanced, tile-aligned column range per worker, held as
            // that range of every row: disjoint `&mut` segments, no aliasing
            // of C.
            let cols_per = n.div_ceil(workers).next_multiple_of(nr);
            let mut parts: Vec<Vec<&mut [f32]>> = (0..n.div_ceil(cols_per))
                .map(|_| Vec::with_capacity(m))
                .collect();
            for row in c_slice.chunks_mut(n) {
                for (part, seg) in parts.iter_mut().zip(row.chunks_mut(cols_per)) {
                    part.push(seg);
                }
            }
            parts.par_iter_mut().enumerate().for_each(|(w, segs)| {
                let c0 = w * cols_per;
                let part = Part {
                    rows: 0..m,
                    cols: c0..n.min(c0 + cols_per),
                    slabs: 0..slabs,
                };
                product.accumulate(part, CPart::Cols(segs));
            });
        }
        Split::Depth => {
            // One run of whole slabs per worker. Each slab adds its tile into
            // a tile of its own that starts at -0.0, the identity of IEEE
            // addition, so it holds the slab's raw accumulators bit for bit;
            // C then adds the tiles in ascending slab order, which is step 2
            // of the contract exactly.
            let per = slabs.div_ceil(workers);
            let mut tiles = vec![-0.0f32; slabs * m * n];
            tiles
                .par_chunks_mut(per * m * n)
                .enumerate()
                .for_each(|(w, run)| {
                    let s0 = w * per;
                    let part = Part {
                        rows: 0..m,
                        cols: 0..n,
                        slabs: s0..s0 + run.len() / (m * n),
                    };
                    product.accumulate(part, CPart::Slabs(run, m * n, n));
                });
            for tile in tiles.chunks_exact(m * n) {
                for (cv, &t) in c_slice.iter_mut().zip(tile) {
                    *cv += t;
                }
            }
        }
    }
}

/// The side of C a forked product is cut along.
#[derive(Clone, Copy)]
enum Split {
    /// Whole rows per worker.
    Rows,
    /// A column range of every row per worker.
    Cols,
    /// A run of k-slabs per worker, each slab into a tile of its own.
    Depth,
}

/// The share of a product one [`Product::accumulate`] computes: rows and
/// columns of C, and the k-slabs (`KC` deep, counted from `p = 0`) it sums.
struct Part {
    rows: Range<usize>,
    cols: Range<usize>,
    slabs: Range<usize>,
}

/// The part of C one worker owns: whole rows of width `ld`, one column
/// range of every row, or one `len`-float tile of width `ld` per k-slab.
enum CPart<'p, 'c> {
    Rows(&'p mut [f32], usize),
    Cols(&'p mut [&'c mut [f32]]),
    Slabs(&'p mut [f32], usize, usize),
}

impl<'c> CPart<'_, 'c> {
    /// What the `s`-th slab of the part adds into: the whole part, unless
    /// each slab has a tile of its own.
    fn slab(&mut self, s: usize) -> CPart<'_, 'c> {
        match self {
            CPart::Rows(data, ld) => CPart::Rows(data, *ld),
            CPart::Cols(segs) => CPart::Cols(segs),
            CPart::Slabs(tiles, len, ld) => CPart::Rows(&mut tiles[s * *len..(s + 1) * *len], *ld),
        }
    }

    /// Row `i` of the part, as wide as the part (of its first tile, if it
    /// has one per slab).
    #[inline(always)]
    fn row(&mut self, i: usize) -> &mut [f32] {
        match self {
            CPart::Rows(data, ld) | CPart::Slabs(data, _, ld) => &mut data[i * *ld..(i + 1) * *ld],
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
    /// `(MR, NR)`, chosen from the product's width by [`Isa::tile`].
    tile: (usize, usize),
}

impl Product<'_> {
    /// `c += (alpha * op(A) * op(B))[part]`, sequentially, on the product's
    /// instantiation at its tile.
    fn accumulate(&self, part: Part, c: CPart<'_, '_>) {
        debug_assert!(self.isa.runs_here());
        match self.isa {
            Isa::Portable => self.accumulate_tiled::<{ TILE_YMM.0 }, { TILE_YMM.1 }>(
                part,
                c,
                macro_kernel_body::<{ TILE_YMM.0 }, { TILE_YMM.1 }>,
            ),
            // SAFETY: an `Isa` other than `Portable` reaches `gemm_with` only
            // where `runs_here` holds (`detect` checks it, and so do the
            // tests before they pick an instantiation), and `runs_here`
            // checks exactly the features the callee is compiled with. The
            // callee is otherwise safe code.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => self.accumulate_tiled::<{ TILE_YMM.0 }, { TILE_YMM.1 }>(
                part,
                c,
                |c, blk, a, b| unsafe { macro_kernel_avx2fma(c, blk, a, b) },
            ),
            // SAFETY: as for `Isa::Avx2Fma`.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 if self.tile == TILE_ZMM_NARROW => self
                .accumulate_tiled::<{ TILE_ZMM_NARROW.0 }, { TILE_ZMM_NARROW.1 }>(
                    part,
                    c,
                    |c, blk, a, b| unsafe { macro_kernel_avx512_narrow(c, blk, a, b) },
                ),
            // SAFETY: as for `Isa::Avx2Fma`.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => self.accumulate_tiled::<{ TILE_ZMM.0 }, { TILE_ZMM.1 }>(
                part,
                c,
                |c, blk, a, b| unsafe { macro_kernel_avx512(c, blk, a, b) },
            ),
        }
    }

    /// [`Product::accumulate`] at the `MR x NR` tile: the Goto loop order,
    /// with pack buffers sized to this part, `kernel` multiplying each
    /// block of A into C.
    fn accumulate_tiled<const MR: usize, const NR: usize>(
        &self,
        part: Part,
        mut c: CPart<'_, '_>,
        kernel: impl Fn(&mut CPart<'_, '_>, Block, ABlock<'_>, &[f32]),
    ) {
        let GemmBlocking { mc, kc, nc, .. } = self.blk;
        let (_, k) = op_shape(&self.a, self.ta);
        let (r0, m) = (part.rows.start, part.rows.len());
        let (c0, n) = (part.cols.start, part.cols.len());
        let depth = part.slabs.start * kc..k.min(part.slabs.end * kc);
        // Under a slab of one B panel every element of A is read once, so
        // packing A would cost a pass and save none: the microkernel reads it
        // where it is stored.
        let pack_a = n > NR;
        let kc_max = kc.min(depth.len());
        let a_rows = if pack_a {
            mc.min(m).next_multiple_of(MR)
        } else {
            0
        };
        let (mut a_buf, mut b_buf) = PACK_BUFFERS.take();
        let a_pack = lend(&mut a_buf, a_rows * kc_max);
        let b_pack = lend(&mut b_buf, nc.min(n).next_multiple_of(NR) * kc_max);
        for jc in (0..n).step_by(nc) {
            let nc = nc.min(n - jc);
            for (s, pc) in depth.clone().step_by(kc).enumerate() {
                let kc = kc.min(depth.end - pc);
                let b_slab = &mut b_pack[..nc.next_multiple_of(NR) * kc];
                let (j0, j1) = (c0 + jc, c0 + jc + nc);
                pack_panels::<NR>(self.isa, &self.b, self.tb, j0, j1, pc, kc, 1.0, b_slab);
                let mut c = c.slab(s);
                for ic in (0..m).step_by(mc) {
                    let mc = mc.min(m - ic);
                    let (i0, i1) = (r0 + ic, r0 + ic + mc);
                    let a_blk = if pack_a {
                        let a_blk = &mut a_pack[..mc.next_multiple_of(MR) * kc];
                        let (a, ta, alpha) = (&self.a, self.ta, self.alpha);
                        pack_panels::<MR>(self.isa, a, !ta, i0, i1, pc, kc, alpha, a_blk);
                        ABlock::Packed(a_blk)
                    } else {
                        self.a_in_place(i0, pc)
                    };
                    let block = Block { ic, mc, jc, nc, kc };
                    kernel(&mut c, block, a_blk, b_slab);
                }
            }
        }
        PACK_BUFFERS.set((a_buf, b_buf));
    }

    /// The block of `alpha * op(A)` whose first element is `(i0, pc)`, read
    /// where A is stored.
    fn a_in_place(&self, i0: usize, pc: usize) -> ABlock<'_> {
        let ld = self.a.cols();
        let (rs, cs) = if self.ta { (1, ld) } else { (ld, 1) };
        ABlock::InPlace {
            data: &self.a.as_slice()[i0 * rs + pc * cs..],
            rs,
            cs,
            alpha: self.alpha,
        }
    }
}

thread_local! {
    /// This thread's A and B pack buffers. [`Product::accumulate_tiled`]
    /// takes them for the length of one call and puts them back, so a
    /// thread allocates them once, not per product, and they hold at most
    /// `(mc + nc) * kc` floats at [`BLOCKING`]. A pack writes every element
    /// it hands to the microkernel, so what a buffer held before is never
    /// read.
    static PACK_BUFFERS: Cell<(Vec<f32>, Vec<f32>)> = const { Cell::new((Vec::new(), Vec::new())) };
}

/// The first `len` floats of `buf`, grown to hold them if it is shorter.
fn lend(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
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
/// p-major (`panel[p * R + lane]`) and the last one padded with `+0.0` to
/// `R`. `lanes_are_rows` says whether a lane is a row of the stored `X`
/// (then a panel transposes `R` source rows) or a column (then every source
/// row is dealt out `R` elements to a panel). Every element of `out` is
/// written, so `out` may hold anything on entry. Each instantiation packs
/// the same bits: a pack only moves `scale * x`.
#[allow(clippy::too_many_arguments)]
fn pack_panels<const R: usize>(
    isa: Isa,
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
    if !lanes_are_rows {
        pack_contiguous::<R>(isa, x, l0, l_end, pc, kc, scale, out);
        return;
    }
    debug_assert!(isa.runs_here());
    match isa {
        // No 8-lane gather has been timed on a CPU without AVX-512, so the
        // AVX2 instantiation transposes in scalar code.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => {
            // SAFETY: `Isa::Avx512` reaches a kernel only where `runs_here`
            // holds, which checks exactly the features the callee is
            // compiled with; the callee argues its own pointer reads and
            // writes.
            unsafe { pack_transposing_avx512::<R>(x, l0, l_end, pc, kc, scale, out) }
        }
        _ => pack_transposing::<R>(x, l0, l_end, pc, kc, scale, out),
    }
}

per_isa! {
    /// [`pack_contiguous_body`] as compiled for `isa`.
    #[allow(clippy::too_many_arguments)]
    fn pack_contiguous<const R: usize>(
        x: &MatView<'_>,
        l0: usize,
        l_end: usize,
        pc: usize,
        kc: usize,
        scale: f32,
        out: &mut [f32],
    ) = pack_contiguous_body;
}

/// [`pack_panels`] where a lane is a column of the stored `X`: each `p` of a
/// panel copies `R` adjacent elements of source row `pc + p`, so a full
/// panel's copy has a length the compiler knows, and unrolls to whole
/// vectors. Panel by panel, the writes run in order.
#[inline(always)]
fn pack_contiguous_body<const R: usize>(
    x: &MatView<'_>,
    l0: usize,
    l_end: usize,
    pc: usize,
    kc: usize,
    scale: f32,
    out: &mut [f32],
) {
    let (data, ld) = (x.as_slice(), x.cols());
    for (ip, panel) in out.chunks_exact_mut(kc * R).enumerate() {
        let l = l0 + ip * R;
        let r = R.min(l_end - l);
        for (p, dst) in panel.chunks_exact_mut(R).enumerate() {
            let start = (pc + p) * ld + l;
            if r == R {
                for (d, &s) in dst.iter_mut().zip(&data[start..start + R]) {
                    *d = scale * s;
                }
            } else {
                for (d, &s) in dst.iter_mut().zip(&data[start..start + r]) {
                    *d = scale * s;
                }
                dst[r..].fill(0.0);
            }
        }
    }
}

/// [`pack_panels`] where a lane is a row of the stored `X`, in scalar code:
/// each source row is read once, contiguously, and scattered `R` apart. The
/// portable and AVX2 instantiations run it; it is the oracle of the
/// AVX-512 body, which falls back on it where a gather's `i32` offsets
/// would overflow.
fn pack_transposing<const R: usize>(
    x: &MatView<'_>,
    l0: usize,
    l_end: usize,
    pc: usize,
    kc: usize,
    scale: f32,
    out: &mut [f32],
) {
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
}

/// [`pack_transposing`] under AVX-512F: each panel is packed in groups of up
/// to 16 lanes, and for each `p` one masked gather reads column `pc + p` of
/// the group's source rows, one masked multiply scales it (and gives the
/// padding lanes `+0.0`), and one masked store writes the group's lanes of
/// `panel[p * R..]`. The multiply is the same IEEE operation as the scalar
/// body's, so the bits are too.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn pack_transposing_avx512<const R: usize>(
    x: &MatView<'_>,
    l0: usize,
    l_end: usize,
    pc: usize,
    kc: usize,
    scale: f32,
    out: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm512_add_epi32, _mm512_mask_i32gather_ps, _mm512_mask_storeu_ps, _mm512_maskz_mul_ps,
        _mm512_mullo_epi32, _mm512_set1_epi32, _mm512_set1_ps, _mm512_setr_epi32,
        _mm512_setzero_ps,
    };
    const GROUP: usize = 16;
    let ld = x.cols();
    // A gather's lane offsets are `i32`: lane `i` of a group reads element
    // `i * ld + p` of the group's rows, at most `(GROUP - 1) * ld + kc - 1`.
    let (Ok(ld32), Ok(_)) = (i32::try_from(ld), i32::try_from((GROUP - 1) * ld + kc)) else {
        pack_transposing::<R>(x, l0, l_end, pc, kc, scale, out);
        return;
    };
    let data = x.as_slice();
    let lane_offsets = _mm512_mullo_epi32(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        _mm512_set1_epi32(ld32),
    );
    let (scale, one, zero) = (
        _mm512_set1_ps(scale),
        _mm512_set1_epi32(1),
        _mm512_setzero_ps(),
    );
    for (ip, panel) in out.chunks_exact_mut(kc * R).enumerate() {
        let l = l0 + ip * R;
        let r = R.min(l_end - l);
        for g0 in (0..R).step_by(GROUP) {
            // The group stores `width` lanes of each `panel[p * R..]`, of
            // which the first `live` hold source rows and the rest padding.
            let width = GROUP.min(R - g0);
            let live = width.min(r.saturating_sub(g0));
            let store = u16::MAX >> (GROUP - width);
            if live == 0 {
                for p in 0..kc {
                    panel[p * R + g0..p * R + g0 + width].fill(0.0);
                }
                continue;
            }
            let load = u16::MAX >> (GROUP - live);
            let first = (l + g0) * ld + pc;
            let rows = &data[first..first + (live - 1) * ld + kc];
            let mut offsets = lane_offsets;
            for p in 0..kc {
                // SAFETY: `load` enables lanes `i < live`, and lane `i` reads
                // `rows[i * ld + p]`, whose index is at most `(live - 1) * ld
                // + kc - 1 < rows.len()`: every active-lane address lies in
                // the checked slice `rows`, and the index fits the `i32`
                // offset checked above. Inactive lanes read nothing.
                let v =
                    unsafe { _mm512_mask_i32gather_ps::<4>(zero, load, offsets, rows.as_ptr()) };
                let v = _mm512_maskz_mul_ps(load, v, scale);
                let dst = &mut panel[p * R + g0..p * R + g0 + width];
                // SAFETY: `store` enables lanes `i < width == dst.len()`, so
                // every active-lane address lies in the checked slice `dst`.
                unsafe { _mm512_mask_storeu_ps(dst.as_mut_ptr(), store, v) };
                offsets = _mm512_add_epi32(offsets, one);
            }
        }
    }
}

/// The block of a worker's part that one macro-kernel call updates —
/// `c[ic..ic+mc, jc..jc+nc]` — and the depth `kc` of the panels that
/// update it.
#[derive(Clone, Copy)]
struct Block {
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kc: usize,
}

/// The block of `alpha * op(A)` that one macro-kernel call multiplies.
#[derive(Clone, Copy)]
enum ABlock<'a> {
    /// Packed into `MR`-row panels, each p-major, `alpha` applied.
    Packed(&'a [f32]),
    /// Read where it is stored: element `(i, p)` of the block is `alpha *
    /// data[i * rs + p * cs]`, the value the pack would have stored.
    InPlace {
        data: &'a [f32],
        rs: usize,
        cs: usize,
        alpha: f32,
    },
}

/// [`macro_kernel_body`] at the `6 x 16` tile, compiled with AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn macro_kernel_avx2fma(c: &mut CPart<'_, '_>, block: Block, a: ABlock<'_>, b_pack: &[f32]) {
    macro_kernel_body::<{ TILE_YMM.0 }, { TILE_YMM.1 }>(c, block, a, b_pack);
}

/// [`macro_kernel_body`] at the `12 x 32` tile, compiled with AVX-512F, AVX2 and
/// FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn macro_kernel_avx512(c: &mut CPart<'_, '_>, block: Block, a: ABlock<'_>, b_pack: &[f32]) {
    macro_kernel_body::<{ TILE_ZMM.0 }, { TILE_ZMM.1 }>(c, block, a, b_pack);
}

/// [`macro_kernel_body`] at the narrow `6 x 16` tile, compiled with
/// AVX-512F, AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn macro_kernel_avx512_narrow(c: &mut CPart<'_, '_>, block: Block, a: ABlock<'_>, b_pack: &[f32]) {
    macro_kernel_body::<{ TILE_ZMM_NARROW.0 }, { TILE_ZMM_NARROW.1 }>(c, block, a, b_pack);
}

/// `c[block] += A_block * B_slab`; `b_pack` holds the slab's `NR`-lane
/// panels.
#[inline(always)]
fn macro_kernel_body<const MR: usize, const NR: usize>(
    c: &mut CPart<'_, '_>,
    block: Block,
    a: ABlock<'_>,
    b_pack: &[f32],
) {
    let Block { ic, mc, jc, nc, kc } = block;
    // B panel outermost: it stays in L1 while the A panels stream past.
    for (jp, b_panel) in b_pack.chunks_exact(kc * NR).enumerate() {
        let j0 = jc + jp * NR;
        let nr = NR.min(jc + nc - j0);
        // Padding lanes (rows past `mr`, columns past `nr`) stop here.
        let mut add = |i0: usize, mr: usize, acc: [[f32; NR]; MR]| {
            for (i, acc_row) in acc.iter().enumerate().take(mr) {
                let c_row = &mut c.row(ic + i0 + i)[j0..j0 + nr];
                for (cv, &av) in c_row.iter_mut().zip(acc_row) {
                    *cv += av;
                }
            }
        };
        match a {
            ABlock::Packed(pack) => {
                for (ip, a_panel) in pack.chunks_exact(kc * MR).enumerate() {
                    let i0 = ip * MR;
                    let acc = micro_kernel::<MR, NR>(a_panel.chunks_exact(MR), b_panel);
                    add(i0, MR.min(mc - i0), acc);
                }
            }
            ABlock::InPlace {
                data,
                rs,
                cs,
                alpha,
            } => {
                for i0 in (0..mc).step_by(MR) {
                    let mr = MR.min(mc - i0);
                    // Rows past the edge re-read the last row: their lanes
                    // are padding, computed and never stored.
                    let rows: [usize; MR] = std::array::from_fn(|i| (i0 + i.min(mr - 1)) * rs);
                    let columns = (0..kc).map(|p| -> [f32; MR] {
                        std::array::from_fn(|i| alpha * data[rows[i] + p * cs])
                    });
                    add(i0, mr, micro_kernel::<MR, NR>(columns, b_panel));
                }
            }
        }
    }
}

/// One `MR x NR` tile of `A_panel * B_panel`, accumulated from zero with
/// one fused multiply-add per element per `p`, `p` ascending — the contract's
/// inner loop, and the only place products are formed. `a_columns` yields
/// column `p` of `alpha * A_panel`, packed or read in place.
#[inline(always)]
fn micro_kernel<const MR: usize, const NR: usize>(
    a_columns: impl Iterator<Item = impl Borrow<[f32]>>,
    b_panel: &[f32],
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (a, b) in a_columns.zip(b_panel.chunks_exact(NR)) {
        for (acc_row, &ai) in acc.iter_mut().zip(a.borrow()) {
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
    use crate::isa::tests::instantiations;
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

    /// [`product_on`], forking wherever a product has two tiles or slabs to
    /// split, however few its flops.
    fn forked_on(
        isa: Isa,
        alpha: f32,
        a: (&Mat, bool),
        b: (&Mat, bool),
        beta: f32,
        c0: &Mat,
    ) -> Mat {
        let ((a, ta), (b, tb)) = (a, b);
        let mut c = c0.clone();
        let (a, b, cv) = (a.view(), b.view(), &mut c.view_mut());
        let blk = GemmBlocking {
            min_flops: 1,
            ..BLOCKING
        };
        gemm_with(Par::Rayon, alpha, a, ta, b, tb, beta, cv, blk, isa);
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
        let (mr, nr) = Isa::detect().tile(usize::MAX);
        let extents = [
            0,
            1,
            mr - 1,
            mr,
            mr + 1,
            nr - 1,
            nr,
            nr + 1,
            KC - 1,
            KC,
            KC + 1,
            2 * KC + 3,
        ];
        const SCALES: [(f32, f32); 4] = [(1.0, 0.0), (0.7, 0.3), (1.0, 1.0), (-1.0, 0.0)];
        let top_left =
            |x: &Mat, rows: usize, cols: usize| Mat::from_fn(rows, cols, |r, c| x.get(r, c));
        let mut rng = StdRng::seed_from_u64(2014);
        let max = extents[extents.len() - 1];
        // op(A), op(B)^T and C of the largest shape; every other shape takes
        // their top-left corners.
        let a_max = random_mat(max, max, &mut rng);
        let bt_max = random_mat(max, max, &mut rng);
        let c_max = random_mat(max, max, &mut rng);
        for k in extents {
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
            for m in extents {
                for n in extents {
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
        let p_zero = 4;
        for isa in instantiations("nonfinite_operands_propagate_like_the_reference") {
            let (mr, nr) = isa.tile(usize::MAX);
            // Edge tiles both ways; then one tile of C over enough k-slabs
            // to split them between workers, its live values in the last.
            let depth_k = MIN_FLOPS_PER_WORKER.div_ceil(mr * nr) + 7;
            for ((m, n, k), (ta, tb)) in [(2 * mr + 1, nr + 3, 19), (mr, nr, depth_k)]
                .into_iter()
                .flat_map(|shape| TRANSPOSES.map(|t| (shape, t)))
            {
                let p_live = k - 8;
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
                            set(&mut b, tb, p_live, n - 2, f32::INFINITY);
                        } else {
                            (0..n).for_each(|j| set(&mut b, tb, p_zero, j, 0.0));
                            set(&mut a, ta, 2, p_zero, poison);
                            set(&mut a, ta, m - 1, p_live, f32::INFINITY);
                        }
                        let c0 = random_mat(m, n, &mut rng);
                        let mut c_ref = c0.clone();
                        gemm_ref(0.7, a.view(), ta, b.view(), tb, 0.3, &mut c_ref.view_mut());
                        let bad = c_ref.as_slice().iter().filter(|x| !x.is_finite()).count();
                        assert_eq!(bad, if poison_in_b { 2 * m } else { 2 * n });
                        for par in [Par::Seq, Par::Rayon] {
                            let c = product_on(isa, par, 0.7, (&a, ta), (&b, tb), 0.3, &c0);
                            assert!(
                                c.as_slice()
                                    .iter()
                                    .map(class)
                                    .eq(c_ref.as_slice().iter().map(class)),
                                "non-finite values landed elsewhere than in gemm_ref: \
                                 {isa:?} {m}x{n}x{k} ta={ta} tb={tb} poison={poison} \
                                 in_b={poison_in_b} {par:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn all_instantiations_bitwise_identical_to_portable() {
        // Edge tiles in both dimensions at every tile, three k-slabs.
        let (m, n, k) = (3 * TILE_ZMM.0 + 1, 2 * TILE_ZMM.1 + 5, 2 * KC + 3);
        let mut rng = StdRng::seed_from_u64(99);
        let isas = instantiations("all_instantiations_bitwise_identical_to_portable");
        for (ta, tb) in TRANSPOSES {
            let a = random_op(m, k, ta, &mut rng);
            let b = random_op(k, n, tb, &mut rng);
            let c0 = random_mat(m, n, &mut rng);
            let portable = product_on(Isa::Portable, Par::Seq, 0.7, (&a, ta), (&b, tb), 0.3, &c0);
            for &isa in &isas {
                for par in [Par::Seq, Par::Rayon] {
                    let c = product_on(isa, par, 0.7, (&a, ta), (&b, tb), 0.3, &c0);
                    assert_eq!(
                        portable.as_slice(),
                        c.as_slice(),
                        "{isa:?} {par:?} changed bits (ta={ta} tb={tb})"
                    );
                }
            }
        }
    }

    /// Every instantiation this CPU runs, at each of its tiles: `(isa, MR,
    /// NR)`.
    fn tiles_of(test: &str) -> Vec<(Isa, usize, usize)> {
        let mut tiles = Vec::new();
        for isa in instantiations(test) {
            for n in [1, usize::MAX] {
                let (mr, nr) = isa.tile(n);
                if !tiles.contains(&(isa, mr, nr)) {
                    tiles.push((isa, mr, nr));
                }
            }
        }
        tiles
    }

    /// `alpha * op(A) * op(B) + beta * C0` at `m x n x k`, on every
    /// instantiation, sequential, threaded and forked at every split, equals
    /// the portable sequential product bit for bit.
    fn pin_to_portable(
        isas: &[Isa],
        (m, n, k): (usize, usize, usize),
        (ta, tb): (bool, bool),
        (alpha, beta): (f32, f32),
        rng: &mut StdRng,
    ) {
        let a = random_op(m, k, ta, rng);
        let b = random_op(k, n, tb, rng);
        let c0 = random_mat(m, n, rng);
        let portable = product_on(
            Isa::Portable,
            Par::Seq,
            alpha,
            (&a, ta),
            (&b, tb),
            beta,
            &c0,
        );
        for &isa in isas {
            for (run, c) in [
                (
                    "seq",
                    product_on(isa, Par::Seq, alpha, (&a, ta), (&b, tb), beta, &c0),
                ),
                (
                    "par",
                    product_on(isa, Par::Rayon, alpha, (&a, ta), (&b, tb), beta, &c0),
                ),
                (
                    "forked",
                    forked_on(isa, alpha, (&a, ta), (&b, tb), beta, &c0),
                ),
            ] {
                assert_eq!(
                    portable.as_slice(),
                    c.as_slice(),
                    "{isa:?} {run} changed bits at {m}x{n}x{k} ta={ta} tb={tb} alpha={alpha}"
                );
            }
        }
    }

    #[test]
    fn depth_split_bitwise_identical_to_portable_on_all_instantiations() {
        // One tile of C (m <= MR, n <= NR) over several k-slabs: forked, the
        // slabs are shared out in runs, and C adds their tiles in order.
        let mut rng = StdRng::seed_from_u64(37);
        let test = "depth_split_bitwise_identical_to_portable_on_all_instantiations";
        for (isa, mr, nr) in tiles_of(test) {
            for m in [1, mr - 1, mr] {
                for n in [1, nr - 1, nr] {
                    for k in [KC + 1, 2 * KC + 3, 9 * KC + 7] {
                        for t in TRANSPOSES {
                            pin_to_portable(&[isa], (m, n, k), t, (0.7, 0.3), &mut rng);
                        }
                    }
                }
            }
            // Every product underflows to -0.0, so every slab's accumulator
            // is -0.0 and C = -0.0 stays -0.0 only if each tile reaches C
            // as -0.0.
            let (m, n, k) = (mr, nr, 2 * KC + 3);
            let a = Mat::full(m, k, -1e-30);
            let b = Mat::full(k, n, 1e-30);
            let c0 = Mat::full(m, n, -0.0);
            for c in [
                product_on(isa, Par::Rayon, 1.0, (&a, false), (&b, false), 1.0, &c0),
                forked_on(isa, 1.0, (&a, false), (&b, false), 1.0, &c0),
            ] {
                assert!(
                    c.as_slice()
                        .iter()
                        .all(|x| x.to_bits() == (-0.0f32).to_bits()),
                    "{isa:?} {m}x{n}: a -0.0 slab tile lost its sign"
                );
            }
        }
    }

    #[test]
    fn narrow_tile_bitwise_identical_to_portable_on_all_instantiations() {
        // Widths up to one 16-lane vector run at the narrow tile under
        // AVX-512, and 17 at the wide one; m spans edge tiles, an MC block
        // and the row split.
        let isas =
            instantiations("narrow_tile_bitwise_identical_to_portable_on_all_instantiations");
        let mut rng = StdRng::seed_from_u64(38);
        for n in [1, 8, 15, 16, 17] {
            for m in [5, BLOCKING.mc + 7] {
                for t in TRANSPOSES {
                    pin_to_portable(&isas, (m, n, 2 * KC + 3), t, (0.7, 0.3), &mut rng);
                }
            }
        }
    }

    #[test]
    fn unpacked_a_bitwise_identical_to_packed_on_all_instantiations() {
        // A product one B panel wide reads alpha * op(A) where it is
        // stored; with columns appended to B past one panel, A is packed.
        // Column j is its own product, so the two agree on the shared
        // columns, and every instantiation agrees with portable.
        let mut rng = StdRng::seed_from_u64(39);
        let test = "unpacked_a_bitwise_identical_to_packed_on_all_instantiations";
        let k = 2 * KC + 3;
        for (isa, mr, nr) in tiles_of(test) {
            let (m, n) = (BLOCKING.mc + mr + 1, nr - 3);
            for ta in [false, true] {
                for tb in [false, true] {
                    for alpha in [0.7, -1.0] {
                        let a = random_op(m, k, ta, &mut rng);
                        let wide = random_op(k, n + 2 * nr, tb, &mut rng);
                        let narrow =
                            Mat::from_fn(
                                k,
                                n,
                                |p, j| {
                                    if tb {
                                        wide.get(j, p)
                                    } else {
                                        wide.get(p, j)
                                    }
                                },
                            );
                        let narrow = if tb { narrow.transposed() } else { narrow };
                        let c0 = random_mat(m, n + 2 * nr, &mut rng);
                        let c0_narrow = Mat::from_fn(m, n, |i, j| c0.get(i, j));
                        let packed =
                            product_on(isa, Par::Seq, alpha, (&a, ta), (&wide, tb), 0.3, &c0);
                        for par in [Par::Seq, Par::Rayon] {
                            let in_place = product_on(
                                isa,
                                par,
                                alpha,
                                (&a, ta),
                                (&narrow, tb),
                                0.3,
                                &c0_narrow,
                            );
                            for i in 0..m {
                                assert_eq!(
                                    in_place.row(i),
                                    &packed.row(i)[..n],
                                    "{isa:?} {par:?}: row {i} of {m}x{n} ta={ta} tb={tb} alpha={alpha}"
                                );
                            }
                        }
                        pin_to_portable(&[isa], (m, n, k), (ta, tb), (alpha, 0.3), &mut rng);
                    }
                }
            }
        }
    }

    /// [`pack_panels`] at `R` lanes on `isa`, into a buffer that held NaN.
    #[allow(clippy::too_many_arguments)]
    fn packed<const R: usize>(
        isa: Isa,
        x: &Mat,
        lanes_are_rows: bool,
        l0: usize,
        lanes: usize,
        pc: usize,
        kc: usize,
        scale: f32,
    ) -> Vec<f32> {
        let mut out = vec![f32::from_bits(0x7fba_dbad); lanes.next_multiple_of(R) * kc];
        pack_panels::<R>(
            isa,
            &x.view(),
            lanes_are_rows,
            l0,
            l0 + lanes,
            pc,
            kc,
            scale,
            &mut out,
        );
        out
    }

    /// Every instantiation packs `R`-lane panels bit for bit as the portable
    /// one, either way a lane lies, padding lanes included (`+0.0`).
    fn pin_pack_to_portable<const R: usize>(isas: &[Isa], rng: &mut StdRng) {
        let specials = [
            f32::NAN,
            f32::from_bits(0xffc0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x0040_0001),
            f32::MIN_POSITIVE,
        ];
        for lanes in [1, 15, 17, 20, 2 * R] {
            for kc in [1, 15, 16, 17, KC] {
                for (l0, pc) in [(0, 0), (3, 0), (0, 5), (3, 5)] {
                    for lanes_are_rows in [true, false] {
                        // The stored X is wider than the packed block on
                        // both sides, so its stride is neither `kc` nor the
                        // lane count.
                        let (lane_ext, depth_ext) = (l0 + lanes + 7, pc + kc + 9);
                        let (rows, cols) = if lanes_are_rows {
                            (lane_ext, depth_ext)
                        } else {
                            (depth_ext, lane_ext)
                        };
                        let x = Mat::from_fn(rows, cols, |_, _| {
                            if rng.gen_bool(0.2) {
                                specials[rng.gen_range(0..specials.len())]
                            } else {
                                rng.gen_range(-1.0..1.0)
                            }
                        });
                        for scale in [1.0, -0.5, 1.0 / 20.0] {
                            let pack = |isa| {
                                packed::<R>(isa, &x, lanes_are_rows, l0, lanes, pc, kc, scale)
                            };
                            let case = format!(
                                "R={R} lanes_are_rows={lanes_are_rows} l0={l0} lanes={lanes} \
                                 pc={pc} kc={kc} scale={scale}"
                            );
                            let portable = pack(Isa::Portable);
                            let last = lanes % R;
                            if last > 0 {
                                let panel = &portable[portable.len() - kc * R..];
                                assert!(
                                    panel
                                        .chunks_exact(R)
                                        .all(|col| col[last..].iter().all(|v| v.to_bits() == 0)),
                                    "{case}: a padding lane is not +0.0"
                                );
                            }
                            for &isa in isas {
                                assert!(
                                    pack(isa)
                                        .iter()
                                        .map(|v| v.to_bits())
                                        .eq(portable.iter().map(|v| v.to_bits())),
                                    "{isa:?} {case}: pack differs from portable"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pack_bitwise_identical_to_portable_on_all_instantiations() {
        // Every panel width a tile uses, ragged last panels (a 32-lane one
        // ending in either 16-lane half, or an empty one), short and full
        // slabs, a block inside a wider matrix, and non-finite, signed-zero
        // and subnormal values under each scale a product packs with.
        let isas = instantiations("pack_bitwise_identical_to_portable_on_all_instantiations");
        let mut rng = StdRng::seed_from_u64(41);
        pin_pack_to_portable::<6>(&isas, &mut rng);
        pin_pack_to_portable::<12>(&isas, &mut rng);
        pin_pack_to_portable::<16>(&isas, &mut rng);
        pin_pack_to_portable::<32>(&isas, &mut rng);
    }

    #[test]
    fn reused_pack_buffers_leak_nothing_on_all_instantiations() {
        // A thread's pack buffers outlive a product. A product run straight
        // after a larger one (other shapes, transposes and values) on the
        // same thread, sequentially or forked onto the workers' buffers,
        // equals the same product run first on a fresh thread.
        let isas = instantiations("reused_pack_buffers_leak_nothing_on_all_instantiations");
        let mut rng = StdRng::seed_from_u64(42);
        for isa in isas {
            let (mr, nr) = isa.tile(usize::MAX);
            // A packed and read in place, ragged edges and a ragged last
            // slab.
            for (m, n, k) in [(2 * mr + 1, 2 * nr + 3, KC + 5), (mr + 2, nr - 3, KC + 5)] {
                for (ta, tb) in TRANSPOSES {
                    let a = random_op(m, k, ta, &mut rng);
                    let b = random_op(k, n, tb, &mut rng);
                    let c0 = random_mat(m, n, &mut rng);
                    let (big_m, big_n, big_k) = (BLOCKING.mc + 13, 3 * nr + 9, 2 * KC + 7);
                    let full_op = |rows, cols, t, v| {
                        let (r, c) = if t { (cols, rows) } else { (rows, cols) };
                        Mat::full(r, c, v)
                    };
                    let big_a = full_op(big_m, big_k, !ta, 1e30);
                    let big_b = full_op(big_k, big_n, !tb, -3.0);
                    let big_c = Mat::zeros(big_m, big_n);
                    let fresh = std::thread::scope(|s| {
                        s.spawn(|| product_on(isa, Par::Seq, 0.7, (&a, ta), (&b, tb), 0.3, &c0))
                            .join()
                            .unwrap()
                    });
                    for forked in [false, true] {
                        let reused = std::thread::scope(|s| {
                            s.spawn(|| {
                                let run = |a, b, c| {
                                    if forked {
                                        forked_on(isa, 0.7, a, b, 0.3, c)
                                    } else {
                                        product_on(isa, Par::Seq, 0.7, a, b, 0.3, c)
                                    }
                                };
                                run((&big_a, !ta), (&big_b, !tb), &big_c);
                                run((&a, ta), (&b, tb), &c0)
                            })
                            .join()
                            .unwrap()
                        });
                        assert_eq!(
                            fresh.as_slice(),
                            reused.as_slice(),
                            "{isa:?} forked={forked}: {m}x{n}x{k} ta={ta} tb={tb} read a \
                             stale pack"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn each_row_and_column_is_its_own_product() {
        // C[i, j] depends on row i of op(A) and column j of op(B) only: not
        // on m, n, the tile it falls in, the block, or the worker. Extents
        // straddle MR / NR, the MC and NC blocks, the row and the column
        // split between workers (two shapes just large enough for
        // `Par::Rayon` to fork), and the depth split (one tile over enough
        // k-slabs to fork).
        let k = 2 * KC + 3;
        let (mc, nc) = (BLOCKING.mc, BLOCKING.nc);
        let mut rng = StdRng::seed_from_u64(6);
        for isa in instantiations("each_row_and_column_is_its_own_product") {
            let (mr, nr) = isa.tile(usize::MAX);
            let split = 2 * mr + 7;
            let other = MIN_FLOPS_PER_WORKER.div_ceil(split * k) + 1;
            let shapes = [
                (mr - 1, nr + 1, k),
                (mr + 1, nr - 1, k),
                (mc + 1, 2 * nr + 3, k),
                (mr + 2, nc + 1, k),
                (split, other, k),
                (other, split, k),
                (mr, nr - 1, MIN_FLOPS_PER_WORKER.div_ceil(mr * (nr - 1)) + 3),
            ];
            for (ta, tb) in TRANSPOSES {
                for (m, n, k) in shapes {
                    let a = random_op(m, k, ta, &mut rng);
                    let b = random_op(k, n, tb, &mut rng);
                    let c0 = random_mat(m, n, &mut rng);
                    let whole = product_on(isa, Par::Rayon, 0.7, (&a, ta), (&b, tb), 0.3, &c0);
                    for i in 0..m {
                        let a_row =
                            Mat::from_fn(1, k, |_, p| if ta { a.get(p, i) } else { a.get(i, p) });
                        let c_row = Mat::from_fn(1, n, |_, j| c0.get(i, j));
                        let alone =
                            product_on(isa, Par::Seq, 0.7, (&a_row, false), (&b, tb), 0.3, &c_row);
                        assert_eq!(
                            alone.as_slice(),
                            whole.row(i),
                            "{isa:?}: row {i} of {m}x{n} ta={ta} tb={tb}"
                        );
                    }
                    for j in 0..n {
                        let b_col =
                            Mat::from_fn(k, 1, |p, _| if tb { b.get(j, p) } else { b.get(p, j) });
                        let c_col = Mat::from_fn(m, 1, |i, _| c0.get(i, j));
                        let alone =
                            product_on(isa, Par::Seq, 0.7, (&a, ta), (&b_col, false), 0.3, &c_col);
                        assert!(
                            alone.as_slice().iter().eq((0..m).map(|i| &whole.row(i)[j])),
                            "{isa:?}: column {j} of {m}x{n} ta={ta} tb={tb}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn seq_and_par_bitwise_identical_at_the_benchmark_shapes() {
        // (m, n, k, ta, tb) of the ten GEMMs the workloads run and
        // `benchmark/` probes, at full size: the three of an ae_wide layer,
        // the RBM's forward, statistics and prop-down products, the CNN's
        // im2col and filter-gradient products, the serving batch and the
        // fine-tune batch; then the 10-class softmax head of the fine-tune
        // and serving batches.
        let shapes = [
            (200, 4096, 1024, false, true),
            (200, 1024, 4096, false, false),
            (4096, 1024, 200, true, false),
            (20, 64, 144, false, true),
            (64, 144, 20, true, false),
            (20, 144, 64, false, false),
            (28800, 8, 25, false, true),
            (8, 25, 28800, true, false),
            (64, 256, 784, false, true),
            (100, 256, 784, false, true),
            (100, 10, 64, false, true),
            (64, 10, 64, false, true),
        ];
        let isas = instantiations("seq_and_par_bitwise_identical_at_the_benchmark_shapes");
        let mut rng = StdRng::seed_from_u64(12);
        for (m, n, k, ta, tb) in shapes {
            let a = random_op(m, k, ta, &mut rng);
            let b = random_op(k, n, tb, &mut rng);
            let c0 = Mat::zeros(m, n);
            // The portable, threaded product is the reference, so it is not
            // recomputed below: the portable instantiation is slow, with no
            // vector FMA.
            let portable = product_on(Isa::Portable, Par::Rayon, 1.0, (&a, ta), (&b, tb), 0.0, &c0);
            for &isa in &isas {
                for par in [Par::Seq, Par::Rayon] {
                    if (isa, par) == (Isa::Portable, Par::Rayon) {
                        continue;
                    }
                    let c = product_on(isa, par, 1.0, (&a, ta), (&b, tb), 0.0, &c0);
                    assert_eq!(
                        portable.as_slice(),
                        c.as_slice(),
                        "{isa:?} {par:?} changed bits at {m}x{n}x{k}"
                    );
                }
            }
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
                ..BLOCKING
            },
            GemmBlocking {
                mc: 7,
                kc: 13,
                nc: 5,
                ..BLOCKING
            },
            GemmBlocking {
                mc: 1000,
                kc: 1000,
                nc: 1000,
                ..BLOCKING
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
