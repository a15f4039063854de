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
//!   B is materialised (see **Packing** below) — unless C is a single row
//!   panel (`m <= MR`) and B is stored untransposed, under AVX-512 (see
//!   **The narrow products** below);
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
//!   `n <= NR`) and so has no side to cut. Each worker stores every slab's
//!   raw tile once into a `slabs x m x n` buffer the calling thread keeps
//!   from one product to the next, and the caller then takes each element
//!   of C through step 1 of the contract below and adds its tiles in
//!   ascending slab order, which is step 2 exactly. The CNN's filter
//!   gradient `8x25x28800` is such a product: one tile deep 113 slabs,
//!   which otherwise ran on one thread.
//!
//! A part is a whole number of tiles (or slabs) of the side being cut, and
//! gets at least `MIN_FLOPS_PER_WORKER`. Every worker runs the sequential
//! nest above on its part, with its own thread's pack buffers, reused by
//! every slab and every later product on that thread. That is one fork per call and no shared mutable
//! state: the operand along the split side is packed in parallel, each
//! worker its own share, and only the smaller operand is packed once per
//! worker. Every split hands out disjoint `&mut` slices — of C's rows, of
//! each row's segment in a column range, or of the slab buffer's runs of
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
//! it (the test profile) ran at a tenth of the speed. The products at most
//! 16 columns wide, and those of one row panel, are the exception: under
//! AVX-512 they run an explicit-intrinsics tile, pinned bit for bit to the
//! safe body (see **The narrow products**).
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
//! the CNN's `n = 8`). It runs at `6 x 16` instead, chosen from `n`. Only
//! `6 x 16` ships: the taller narrow tiles fall off the cliff too. Time
//! relative to `6 x 16` (through [`gemm`] at two threads, median of 11
//! interleaved pairs, two runs, same VM, when the narrow tile was still the
//! safe body compiled a third time):
//!
//! | product | `12 x 16` | `24 x 16` | `12 x 32` |
//! |---|---|---|---|
//! | CNN im2col `28800x8x25` | 10.3, 9.9 | 8.3, 7.8 | 1.22, 1.20 |
//! | softmax head `100x10x64` | 14.7, 11.8 | 10.9, 12.4 | 1.79, 1.29 |
//! | softmax head `64x10x64` | 13.4, 11.5 | 9.4, 10.1 | 1.81, 1.36 |
//!
//! # The narrow products
//!
//! The CNN's two convolution products are narrow on one side: the im2col
//! product `28800x8x25` is 8 columns wide, and the filter gradient
//! `8x25x28800` is 8 rows tall. Compiled from the safe body, both ran at
//! 15–25 GFLOP/s, a fifth of `ae_wide`'s. At `n = 8` every tile is an edge
//! tile, and LLVM spilled the tile to the stack to add it into C with
//! scalar adds; the in-place A path loaded each element as a scalar,
//! multiplied it by `alpha` and broadcast it from a register, one per
//! cycle on one port. The filter gradient, a single tile deep 113 slabs,
//! packed each slab of `col` into 32-lane panels for one A panel to read
//! once, and computed 12 tile rows to keep 8.
//!
//! So under AVX-512 both run one tile written with intrinsics,
//! `tile_avx512`: `R` rows of `V` 16-lane accumulators that stay in `zmm`
//! registers for the slab. It is the contract's inner loop exactly
//! (accumulators from zero, one FMA per `p` ascending, one add into C per
//! slab), so it gives the safe body's bits, which the tests pin on every
//! instantiation. Where `alpha == 1` each FMA broadcasts its element of A
//! straight from memory (`vfmadd231ps` with a `{1to16}` operand), since
//! `1 * x == x`; otherwise one multiply by `alpha` precedes it. B's rows are
//! loaded masked to the live lanes. C is added row by row without a spill:
//! a `ymm` add where the row segment is 8 floats, a masked one otherwise,
//! every row loaded before any is stored (a masked store to a short row
//! spans the next row's start, and a load from there waits for it to
//! retire).
//!
//! It runs in one place, `Product::accumulate_in_place`, for the two kinds
//! of product in which each element of A meets one B panel only, so that A
//! is read where it is stored:
//!
//! * the narrow products (`n <= 16`, the `6 x 16` tile, one vector per
//!   row): each k-slab of B is one panel, packed once and read by every row
//!   of the part;
//! * a product whose C is one row panel (`m <= MR`) and whose B is stored
//!   untransposed (or is patches, either way, below), at either tile. Every
//!   element of B then meets one A panel only too, so packing B cost a pass
//!   and saved none: B is read where it is stored, per k-slab, on every
//!   split, the depth split included. These are the weight gradients `dᵀ·x`
//!   of a layer with few outputs (the CNN filter gradient, 8 rows, or 6 at
//!   the CLI's default six channels, and the 10-class heads') and the CNN's
//!   channel-major forward product (**The patch products**).
//!
//! Each k-slab is one call across the `#[target_feature]` boundary
//! (`Tiles::run`), which walks every column of the part and builds each
//! column range's `Lanes` as it reaches it. It used to be one call, and one
//! `Tiles` and `Lanes`, per 32 columns: 900 a slab for an `8 x 28800` C,
//! which is why `gemm` on a formed `colᵀ` ran the channel-major forward
//! product at 235–272 µs against 78–112 µs for a dedicated tile in the
//! same standalone measurement. A tile's finish is a macro
//! (`finish_tile!`) and not a call: a `#[target_feature]` function cannot
//! be `#[inline(always)]`, and called once a tile it took the accumulators
//! through memory, which cost the `28800x8x25` product 50–80 µs of its 275
//! at one thread.
//!
//! The tile walks the part `MR` rows at a time. A run of rows short of
//! `MR` pads the tile (its rows past the edge re-read the last row), except
//! at the 6, 8 and 10 rows of those weight gradients, which get a tile of
//! exactly their rows at `12 x 32`. Each such tile is two more copies of
//! `tile_avx512` (`alpha == 1` or not) in the binary, so only the row
//! counts of a measured product have one. Padded to 12 rows instead, they
//! ran slower (`gemm_shapes`, µs, median [range] of three runs alternating
//! with a build padded at every row count):
//!
//! | product | exact rows, 2 threads | padded, 2 threads | exact, 1 | padded, 1 |
//! |---|---|---|---|---|
//! | CNN filter gradient `8x25x28800` | 125 [125–133] | 162 [159–163] | 189 [180–217] | 235 [217–251] |
//! | the same, six channels `6x25x28800` | 113 [89–113] | 158 [138–162] | 155 [152–176] | 227 [211–267] |
//! | head weight gradient `10x64x100` | 2.0 [1.6–2.0] | 2.0 [1.7–2.2] | 1.5 [1.4–1.6] | 1.8 [1.6–1.9] |
//! | head weight gradient `10x64x50` | 1.0 [0.9–1.3] | 1.3 [1.0–1.4] | 0.8 [0.8–0.9] | 1.2 [1.0–1.4] |
//!
//! Through [`gemm`] (`crates/kernels/examples/gemm_shapes.rs`, µs per call,
//! median of four runs alternating with a build of the safe body, two-vCPU
//! AVX-512 Xeon VM; two threads is `Par::Rayon`, one is `Par::Seq` at
//! `RAYON_NUM_THREADS=1`):
//!
//! | product | safe, 2 threads | intrinsics, 2 threads | safe, 1 | intrinsics, 1 |
//! |---|---|---|---|---|
//! | CNN im2col `28800x8x25` | 803 | 489 | 1 297 | 659 |
//! | CNN filter gradient `8x25x28800` | 582 | 151 | 1 022 | 265 |
//! | the same, six channels `6x25x28800` | 580 | 136 | 970 | 228 |
//! | softmax head `100x10x64` | 10.1 | 4.7 | 10.1 | 4.8 |
//! | softmax head `64x10x64` | 6.8 | 3.2 | 6.2 | 3.2 |
//! | softmax head `50x10x64` | 5.7 | 2.6 | 5.6 | 2.7 |
//! | head weight gradient `10x64x100` | 4.8 | 2.1 | 4.8 | 2.1 |
//! | head weight gradient `10x64x50` | 2.0 | 1.3 | 1.9 | 1.3 |
//!
//! Safe code lost, so it is not the narrow kernel. A safe `6 x 8` tile with
//! an `alpha == 1` arm ran the im2col product in 505–570 µs. Safe edge adds
//! at a fixed width ran it no faster (712–947 µs) and slowed the RBM
//! statistics product `64x144x20` from 10.4 to 13.6–15.6 µs. In a
//! standalone kernel, the `ymm` add at `nr = 8` took 335 µs single-threaded
//! against 733 µs for a masked one.
//!
//! # The patch products
//!
//! The CNN's two convolution products take the image batch itself as their
//! B, [`Operand::Patches`]: the `b·o² x k²` matrix `im2col` would form,
//! whose element `(i, p)` lies at `x[img·side² + (oy + p/k)·side + ox +
//! p%k]`, or its transpose. Nothing forms it. A matrix read where it is stored is a pair of axes, each
//! taking an index to an offset (`Axis`): a stored matrix's rows and
//! columns lie at strides, the patches' on a grid (`Axis::Grid`: pixels by
//! image, output row and output column; taps by filter row and filter
//! column). The reads in place above walk those axes (`Walk`): a stride by
//! adding it, a grid in straight runs (the `o` pixels of one output row, the
//! `k` taps of one filter row) whose wraps settle once a run, outside the
//! loop that multiplies. Every element of C meets the formed matrix's
//! values in the same order, so every bit stays; the tests pin the products
//! to `im2col` then [`gemm`] on every instantiation, sequential and forked
//! by rows, by columns and by depth.
//!
//! The CNN's activations are channel-major, `c x b·o²`, so its products are:
//!
//! * The forward product `W·patches(x)ᵀ` (`8x28800x25` at `cnn_ckpt`): C is
//!   one row panel and B the transposed patches, read in place. Under
//!   AVX-512 it runs a tile of its own, `pixels_avx512`: `R` rows (6, 8 or
//!   12, as many as C has or the next above) by `V` vectors of 16
//!   consecutive pixels (`8 x 48` at eight channels). A tile's pixels lie in
//!   runs of an output row, one or two to a vector at side 28 and the same
//!   for every tap, so its `Lanes` are set once a tile; then each tap is one
//!   merging masked load per run, one broadcast of the packed `alpha·W` per
//!   row and `R·V` FMAs, the accumulators in registers from the first tap
//!   of the slab to the finish. Consecutive pixels are consecutive floats of
//!   the image, so every lane of every vector is a pixel.
//! * The filter gradient `δ·patches(x)` (`8x25x28800`) is one row panel,
//!   so its B is read in place, and a row of B, one patch, is `k` runs of
//!   `k` floats. A vector holds `16 / k` whole runs (15 of its 16 lanes at
//!   `k = 5`), and each run is one merging masked load (`Lanes`), the loads
//!   of a vector unrolled; C's row segments are that many columns wide.
//! * Patches are a B operand only, and A is always a stored matrix, read
//!   at strides. The NHWC forward product `patches(x)·Wᵀ`, whose A they
//!   were, left with the NHWC layout.
//! * Every other patch operand is packed from the images (`pack_walks`):
//!   on the portable and AVX2 instantiations, and under AVX-512 in a
//!   product taller than a row panel (13 channels or more) or a forward
//!   product wider than a B panel.
//! * The scalar rungs ([`crate::Backend::gemm_op`]) form the matrix with
//!   `im2col` in a temporary first, and multiply it transposed where the
//!   operand is, as they form [`gemm_sgd`]'s gradient.
//!
//! The forward product's layout was measured through [`gemm_op`]
//! (`gemm_shapes`, µs per call, median [range] of five runs alternating
//! with a build of the NHWC step's code, two-vCPU AVX-512 Xeon VM; one
//! thread is `Par::Seq` at `RAYON_NUM_THREADS=1`, two is `Par::Rayon`):
//!
//! | product | 1 thread | 2 threads |
//! |---|---|---|
//! | NHWC `patches(x)·Wᵀ`, `28800x8x25`, before | 347 [318–537] | 280 [261–283] |
//! | channel-major `W·patches(x)ᵀ`, `8x28800x25` | 131 [130–160] | 101 [100–103] |
//! | NHWC, six channels, `28800x6x25`, before | 338 [323–550] | 276 [183–315] |
//! | channel-major, six channels, `6x28800x25` | 109 [107–142] | 83 [82–83] |
//! | filter gradient `δᵀ·patches(x)`, `8x25x28800`, before | 172 [162–263] | 137 [132–141] |
//! | filter gradient `δ·patches(x)` | 161 [155–216] | 132 [130–137] |
//!
//! The NHWC product's C rows are 8 floats, so half of every FMA's lanes
//! were padding, and its `6 x 16` tile stored its accumulators at every
//! filter row. The same `8 x 48` tile storing back into NHWC through
//! register transposes reached only 153–193 µs at one thread in a
//! standalone measurement, so the layout, not only the tile, is what pays.
//! The filter gradient reads δ untransposed now, with its B as before.
//!
//! `pixels_avx512` is a second intrinsics tile beside `tile_avx512`, which
//! runs the forward product too when `pixel_tiles` is taken out (through
//! `Tiles::run`, at `8 x 32`, each element of W broadcast from its
//! storage). Against it (µs per call, median [range] of seven runs
//! alternating the two builds, each run the median of 15 rounds of 40
//! calls, same VM):
//!
//! | product | `tile_avx512`, 1 | `pixels_avx512`, 1 | `tile_avx512`, 2 | `pixels_avx512`, 2 |
//! |---|---|---|---|---|
//! | `8x28800x25` | 194 [187–337] | 160 [133–204] | 177 [169–193] | 107 [93–112] |
//! | `6x28800x25` | 188 [161–300] | 135 [107–166] | 140 [101–159] | 88 [84–96] |
//!
//! The dedicated tile won all seven pairs of each cell, so it stays. The two
//! differ in a tile's width (48 pixels against 32), in how A is read (a
//! packed `alpha·W` against W's storage) and in the depth loop (one loop
//! over the slab against straight runs of `k` taps); which of these pays
//! was not measured apart.
//!
//! How the filter gradient builds a row of B was measured on the AVX-512
//! instantiation, single-threaded, against the product on the formed matrix
//! (µs per call, minimum of nine rounds of 40 calls, two-vCPU AVX-512 Xeon
//! VM, each line against the formed product in the same run, which read
//! 135–170):
//!
//! | a row of B | µs |
//! |---|---|
//! | one masked gather per vector | 298–303 |
//! | merging masked loads, one per run, in a loop | 205–245 |
//! | patch rows copied into a panel per k-slab, then the contiguous tile | 585 |
//! | merging loads unrolled, whole filter rows per vector | 150–164 |
//!
//! A gather per vector lost to the merging loads. A copy into a panel read
//! the whole slab of patches twice, and ran at the speed of `im2col` plus
//! the product. A table of each slab's column offsets, read in place of
//! the grid's walk, ran the forward product 4–6 % faster in one interleaved
//! comparison, inside the spread between runs, and was left out with the
//! thread-local buffer it needs.
//!
//! When the patches replaced the formed matrix, in the NHWC layout
//! (`gemm_shapes`, µs per call, median of five runs of seven rounds
//! alternating with a build that only formed the matrix, the "before"
//! columns; same VM, whose spread between runs was 20–60 % at two
//! threads):
//!
//! | product | before, 1 | formed, 1 | patches, 1 | before, 2 | formed, 2 | patches, 2 |
//! |---|---|---|---|---|---|---|
//! | forward `28800x8x25` | 268 | 277 | 307 | 143 | 173 | 246 |
//! | filter gradient `8x25x28800` | 150 | 151 | 158 | 85 | 87 | 112 |
//! | forward, six channels `28800x6x25` | – | 280 | 303 | – | 180 | 212 |
//! | filter gradient, six channels `6x25x28800` | 133 | 133 | 137 | 63 | 73 | 80 |
//!
//! So a patch product costs 5–15 % more than the same product of the
//! formed matrix, and less than `im2col`'s pass over that matrix
//! (131–146 µs of a `cnn_ckpt` step at two threads), which is gone. The
//! vector width of the tiles that load runs is a run-time value; the others
//! keep it at 16, which took the formed forward product from 315–325 µs to
//! 277–291.
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
//!   16 lanes instead. Like the narrow products' tile, the crate's only other
//!   `unsafe` code besides the feature dispatch, it reads through a checked
//!   slice of the group's rows and writes through a checked slice of the
//!   panel, masked to the lanes that lie inside them. AVX2 has an 8-lane gather too, but it has
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
//!
//! **How a tile finishes.** Step 2's `C[i,j] += acc` is where a tile meets
//! C, once per slab, in one of three modes (`Finish`):
//!
//! * it adds, `C += acc` (a later slab, or step 1 done as a pass);
//! * it stores, `C = 0.0 + acc`, without reading C: the first slab at
//!   `beta == 0` (below);
//! * it steps weights, `W = shrink * W - lr * (0.0 + acc)`: [`gemm_sgd`],
//!   whose C holds the weights and whose product is their gradient (see
//!   **The fused SGD step**).
//!
//! Under the depth split each slab stores its raw accumulators into a tile
//! of its own (`c = acc`), and C stores or adds after the fork, per
//! element, the sum of its tiles. A weight step never forks so: its
//! product is one slab deep.
//!
//! **Written once at `beta == 0`.** There step 1 is not a pass of its own:
//! the first k-slab of each part stores `0.0 + acc` over C without reading
//! it, which is step 1 and that slab's step 2 exactly (`+0.0 + acc` is
//! `acc`, but for `-0.0`, which becomes `+0.0` as it does when added to step
//! 1's zeros), and the later slabs add as before. The contract is unchanged;
//! C is written once instead of zero-filled and read back by every tile.
//! The fill stays only where no product runs, when `alpha == 0` or an
//! extent is zero: under the depth split, step 1 folds into each element's
//! sum of the slab tiles, `C = 0.0 + t0 + t1 + ...`, after the fork, and the
//! slabs store their raw tiles into a buffer that is never filled. Through
//! [`gemm`] (`gemm_shapes`, µs per call,
//! median of three runs of five rounds alternating with a build that
//! zero-fills C first, two-vCPU AVX-512 Xeon VM; two threads is
//! `Par::Rayon`, one is `Par::Seq`):
//!
//! | product | fill, 2 threads | write once, 2 threads | fill, 1 | write once, 1 |
//! |---|---|---|---|---|
//! | ae_wide forward `200x4096x1024` | 14 540 | 13 278 | 23 375 | 24 564 |
//! | ae_wide backward-data `200x1024x4096` | 12 819 | 13 644 | 25 938 | 24 489 |
//! | ae_wide backward-weight `4096x1024x200` | 15 876 | 12 736 | 28 619 | 22 569 |
//! | the decoder's, `1024x4096x200` | 16 051 | 12 760 | 28 248 | 22 388 |
//! | RBM statistics `64x144x20` | 9.6 | 7.7 | 9.7 | 8.1 |
//! | CNN im2col `28800x8x25` | 376 | 285 | 583 | 442 |
//! | CNN filter gradient `8x25x28800` | 134 | 134 | 243 | 229 |
//! | fine-tune weight gradient `256x784x100` | 394 | 291 | 583 | 516 |
//! | softmax head `100x10x64` | 4.5 | 3.7 | 4.6 | 4.1 |
//!
//! The products whose `k` is a single slab gain most, the weight gradients
//! above all: C is then written once, not filled, read back and written.
//! The filter gradient forks by depth at two threads, so it kept the fill
//! (C zeroed, and a fresh `slabs x m x n` scratch filled with `-0.0` for the
//! slabs to add into) until its slabs stored their raw tiles into a reused
//! buffer, and C added them tile by tile after the fork: 128 [123–133] →
//! 116 [83–118] µs at two threads (median [range] of five `gemm_shapes`
//! runs of five rounds, alternating with a build that filled). A fold
//! element by element over the slabs, tried first, read 95 [89–129] → 103
//! [98–130]: its sums are chains of 113 dependent adds. The other products
//! `gemm_shapes` times moved by 0.83–1.06 at two threads.
//!
//! # The fused SGD step
//!
//! [`gemm_sgd`] is a weight gradient's product that steps its weights
//! instead of storing the gradient: C holds `W`, and a finished tile
//! updates it in place, `w = shrink * w - lr * (0.0 + acc)` with `shrink =
//! 1 - lr * lambda`. These are the IEEE operations of [`gemm`] at `beta ==
//! 0` (step 1's zeros plus the one slab's `acc`) followed by `sgd_step`,
//! so the result is theirs bit for bit, on every instantiation and split;
//! the tests pin it so, a `-0.0` weight and an underflowing gradient
//! included. A gradient element is finished when its last k-slab is
//! summed, so the tile steps `W` only in a product of one slab (`k <=
//! GEMM_KC`), which never forks by depth. Every product of several slabs,
//! the depth split's included, forms the gradient first, in a temporary,
//! and steps `W` after: it saves nothing, so the autoencoder
//! fuses only batches of at most `GEMM_KC` rows, and declares its gradient
//! buffers for larger ones.
//!
//! The autoencoder's SGD step runs its two weight gradients this way, so
//! it never holds the 16 MiB `4096 x 1024` gradient of `ae_wide`. Each
//! product stops storing 16 MiB of gradient and sweeping 48 MiB in
//! `sgd_step`, and reads and writes `W` (32 MiB) in its tiles instead.
//! Through [`crate::Backend`] (`gemm_shapes`, µs per call, median of five
//! runs of five rounds, two-vCPU AVX-512 Xeon VM, the two forms timed in
//! turn within each round; sequential is `Backend::sequential_blas`,
//! threaded `Backend::improved` at two threads):
//!
//! | product | seq, `gemm` + `sgd_step` | seq, `gemm_sgd` | 2 threads, `gemm` + `sgd_step` | 2 threads, `gemm_sgd` |
//! |---|---|---|---|---|
//! | encoder `4096x1024x200` | 30 070 | 28 796 | 14 107 | 14 817 |
//! | decoder `1024x4096x200` | 28 816 | 27 620 | 14 047 | 13 959 |
//!
//! One thread gains about the `sgd_step` sweep, 4 %. At two threads the
//! product is bound by its FMAs, and the two forms read within the spread
//! of the runs (−1 % and +5 %). An earlier set of five runs, on a quieter
//! stretch of the same VM, read 21 562 → 19 701 and 9 858 → 10 279
//! (encoder), 20 489 → 18 205 and 9 507 → 9 656 (decoder).

use crate::conv::Patches;
use crate::isa::{per_isa, Isa, TILE_YMM, TILE_ZMM, TILE_ZMM_NARROW};
use crate::{fused, Par};
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
    kc: GEMM_KC,
    nc: 512,
    min_flops: MIN_FLOPS_PER_WORKER,
};

/// The depth `KC` of a k-slab: a product of `k <= GEMM_KC` is one slab, so
/// [`gemm_sgd`] finishes each element's gradient in its tile.
pub const GEMM_KC: usize = 256;

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
/// included, and the AVX-512 intrinsics tile of the narrow and
/// one-row-panel products: re-measure the table before moving the
/// constant.
const MIN_FLOPS_PER_WORKER: usize = 1 << 20;

/// The B operand of [`gemm_op`]. Patches are a B operand only: both CNN
/// products take them on that side (see **The patch products** in the module
/// docs).
#[derive(Debug, Clone, Copy)]
pub enum Operand<'a> {
    /// `op(X)` of a stored row-major matrix: `X`, or `Xᵀ` when the flag is
    /// set.
    Mat(MatView<'a>, bool),
    /// The patch matrix of a batch of images, or its transpose when the flag
    /// is set, read where the images are stored (see **The patch products**
    /// in the module docs).
    Patches(Patches<'a>, bool),
}

impl<'a> Operand<'a> {
    /// Operated dimensions: `(rows, cols)` of `op(X)`.
    pub(crate) fn shape(&self) -> (usize, usize) {
        match self {
            Operand::Mat(x, false) => x.shape(),
            Operand::Mat(x, true) => (x.cols(), x.rows()),
            Operand::Patches(p, false) => p.shape(),
            Operand::Patches(p, true) => (p.shape().1, p.shape().0),
        }
    }

    /// Where each element of `op(X)` is stored.
    fn stored(&self) -> Stored<'a> {
        match *self {
            Operand::Mat(x, t) => {
                let (rows, cols) = if t { (1, x.cols()) } else { (x.cols(), 1) };
                Stored {
                    data: x.as_slice(),
                    rows: Axis::Stride(rows),
                    cols: Axis::Stride(cols),
                }
            }
            Operand::Patches(p, t) => {
                // Pixels (image, output row and column) and filter taps
                // (filter row and column).
                let pixels = Axis::Grid {
                    o: p.out_side(),
                    side: p.side,
                };
                let taps = Axis::Grid {
                    o: p.k,
                    side: p.side,
                };
                let (rows, cols) = if t { (taps, pixels) } else { (pixels, taps) };
                Stored {
                    data: p.x,
                    rows,
                    cols,
                }
            }
        }
    }

    /// Whether the columns of each row of `op(X)` lie side by side in
    /// storage, in runs: a `Mat` untransposed (one run), or the patches
    /// either way (a filter row of a patch, or an output row of a tap).
    fn row_major(&self) -> bool {
        !matches!(self, Operand::Mat(_, true))
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
    gemm_op(par, alpha, a, ta, Operand::Mat(b, tb), beta, c);
}

/// [`gemm`] with any [`Operand`] as B: `C = alpha * op(A) * B + beta * C`,
/// the bits of forming B and calling [`gemm`].
pub fn gemm_op(
    par: Par,
    alpha: f32,
    a: MatView<'_>,
    ta: bool,
    b: Operand<'_>,
    beta: f32,
    c: &mut MatViewMut<'_>,
) {
    let out = Epilogue::Beta(beta);
    gemm_with(par, alpha, (a, ta), b, out, c, BLOCKING, Isa::detect());
}

/// `W = (1 - lr * lambda) * W - lr * G` with `G = alpha * op(A) * op(B)`:
/// [`gemm`] at `beta == 0` into a gradient `G` followed by an SGD step of
/// `W`, bit for bit, without holding `G` (see **The fused SGD step** in the
/// module docs).
#[allow(clippy::too_many_arguments)]
pub fn gemm_sgd(
    par: Par,
    alpha: f32,
    a: MatView<'_>,
    ta: bool,
    b: MatView<'_>,
    tb: bool,
    lr: f32,
    lambda: f32,
    w: &mut MatViewMut<'_>,
) {
    let out = Epilogue::Sgd { lr, lambda };
    let b = Operand::Mat(b, tb);
    gemm_with(par, alpha, (a, ta), b, out, w, BLOCKING, Isa::detect());
}

/// What a product does with `alpha * op(A) * op(B)`.
#[derive(Clone, Copy)]
enum Epilogue {
    /// Adds it into `beta * C` ([`gemm`]).
    Beta(f32),
    /// Steps the weights C holds down it, as a gradient ([`gemm_sgd`]).
    Sgd { lr: f32, lambda: f32 },
}

/// [`gemm_op`] or [`gemm_sgd`] with explicit blocking and instantiation.
#[allow(clippy::too_many_arguments)]
fn gemm_with(
    par: Par,
    alpha: f32,
    (a, ta): (MatView<'_>, bool),
    b: Operand<'_>,
    out: Epilogue,
    c: &mut MatViewMut<'_>,
    blk: GemmBlocking,
    isa: Isa,
) {
    let (m, k) = Operand::Mat(a, ta).shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm: inner dimension mismatch ({k} vs {kb})");
    assert_eq!(c.shape(), (m, n), "gemm: output shape mismatch");

    // The SGD step of an element needs its whole gradient: where no tile
    // holds it, the gradient is formed first, in a temporary.
    let gradient_first = |c: &mut MatViewMut<'_>, lr, lambda| {
        let mut g = vec![0.0; m * n];
        let gv = &mut MatViewMut::new(&mut g, m, n);
        gemm_with(par, alpha, (a, ta), b, Epilogue::Beta(0.0), gv, blk, isa);
        fused::sgd_step(par, lr, lambda, &g, c.as_mut_slice());
    };
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        match out {
            Epilogue::Beta(beta) => scale_c(par, beta, c),
            Epilogue::Sgd { lr, lambda } => gradient_first(c, lr, lambda),
        }
        return;
    }

    // Split the longer side of C: the operand along the other side is the
    // one every worker packs for itself, so it should be the smaller. A C
    // of one tile has no side to split, so it splits its k-slabs.
    let tile = isa.tile(n);
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
    // How C finishes with the product. Step 1 of the contract folds into the
    // first k-slab at `beta == 0`, which stores `0.0 + acc` over C without
    // reading it; a gradient of one slab is finished there, and steps the
    // weights (one slab never forks by depth). Under the depth split every
    // slab stores its raw tile, and C finishes so with their sum after the
    // fork.
    let depth_split = workers > 1 && matches!(split, Split::Depth);
    let finish = match out {
        Epilogue::Beta(0.0) => Finish::Store,
        Epilogue::Beta(beta) => {
            scale_c(par, beta, c);
            Finish::Add
        }
        Epilogue::Sgd { lr, lambda } if slabs == 1 => Finish::Sgd {
            shrink: fused::sgd_shrink(lr, lambda),
            lr,
        },
        Epilogue::Sgd { lr, lambda } => return gradient_first(c, lr, lambda),
    };
    let product = Product {
        alpha,
        a,
        ta,
        m,
        b,
        blk,
        isa,
        tile,
        first: if depth_split { Finish::Raw } else { finish },
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
            // One run of whole slabs per worker. Each slab stores its raw
            // accumulators once, into a tile of its own in this thread's
            // reused buffer; then each element of C takes its step 1 and
            // adds the tiles in ascending slab order, which is step 2 of the
            // contract exactly.
            let (mn, per) = (m * n, slabs.div_ceil(workers));
            let mut buf = SLAB_TILES.take();
            let tiles = lend(&mut buf, slabs * mn);
            tiles
                .par_chunks_mut(per * mn)
                .enumerate()
                .for_each(|(w, run)| {
                    let s0 = w * per;
                    let part = Part {
                        rows: 0..m,
                        cols: 0..n,
                        slabs: s0..s0 + run.len() / mn,
                    };
                    product.accumulate(part, CPart::Slabs(run, mn, n));
                });
            let (t0, rest) = tiles.split_at_mut(mn);
            finish.row(c_slice, t0);
            rest.chunks_exact(mn)
                .for_each(|t| Finish::Add.row(c_slice, t));
            SLAB_TILES.set(buf);
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
    /// A, stored, and whether the product reads it transposed.
    a: MatView<'a>,
    ta: bool,
    /// The rows of C.
    m: usize,
    b: Operand<'a>,
    blk: GemmBlocking,
    isa: Isa,
    /// `(MR, NR)`, chosen from the product's width by [`Isa::tile`].
    tile: (usize, usize),
    /// How the first k-slab of a part finishes its tiles.
    first: Finish,
}

/// How a finished tile of accumulators `acc` meets its block of C.
#[derive(Clone, Copy)]
enum Finish {
    /// `c += acc`: a later k-slab, or step 1 already done.
    Add,
    /// `c = 0.0 + acc`, C not read: the first slab at `beta == 0`. `+0.0 +
    /// -0.0` is `+0.0`, as after step 1's zeros.
    Store,
    /// `c = acc`: a slab's own tile under the depth split.
    Raw,
    /// `c = shrink * c - lr * (0.0 + acc)`: C holds weights and the tile,
    /// its single slab summed, their whole gradient.
    Sgd { shrink: f32, lr: f32 },
}

impl Finish {
    /// Finishes one row segment of C with the tile row's accumulators.
    #[inline(always)]
    fn row(self, c: &mut [f32], acc: &[f32]) {
        let pairs = c.iter_mut().zip(acc);
        match self {
            Finish::Add => pairs.for_each(|(cv, &av)| *cv += av),
            Finish::Store => pairs.for_each(|(cv, &av)| *cv = 0.0 + av),
            Finish::Raw => pairs.for_each(|(cv, &av)| *cv = av),
            Finish::Sgd { shrink, lr } => {
                pairs.for_each(|(cv, &av)| *cv = shrink * *cv - lr * (0.0 + av))
            }
        }
    }
}

impl Product<'_> {
    /// `c += (alpha * op(A) * op(B))[part]`, sequentially, on the product's
    /// instantiation at its tile, the part's first slab finishing as
    /// [`Product::first`] says.
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
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 if self.tile == TILE_ZMM_NARROW || self.b_in_place() => {
                self.accumulate_in_place(part, c)
            }
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
        let (k, _) = self.b.shape();
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
                pack_b::<NR>(self.isa, self.b, j0, j1, pc, kc, b_slab);
                let mut c = c.slab(s);
                for ic in (0..m).step_by(mc) {
                    let mc = mc.min(m - ic);
                    let (i0, i1) = (r0 + ic, r0 + ic + mc);
                    let a_blk = if pack_a {
                        let a_blk = &mut a_pack[..mc.next_multiple_of(MR) * kc];
                        self.pack_a::<MR>(i0, i1, pc, kc, a_blk);
                        ABlock::Packed(a_blk)
                    } else {
                        ABlock::InPlace(self.a_tile(i0, pc, kc))
                    };
                    let block = Block {
                        ic,
                        mc,
                        jc,
                        nc,
                        kc,
                        finish: self.finish(s),
                    };
                    kernel(&mut c, block, a_blk, b_slab);
                }
            }
        }
        PACK_BUFFERS.set((a_buf, b_buf));
    }

    /// How the part's `s`-th k-slab finishes its tiles: as
    /// [`Product::first`] at the first, and every slab into its own tile,
    /// else by adding.
    fn finish(&self, s: usize) -> Finish {
        match self.first {
            Finish::Raw => Finish::Raw,
            first if s == 0 => first,
            _ => Finish::Add,
        }
    }

    /// Packs rows `i0..i_end` of `alpha * op(A)` over the depth `pc..pc +
    /// kc` into `R`-row panels ([`pack_panels`]).
    fn pack_a<const R: usize>(
        &self,
        i0: usize,
        i_end: usize,
        pc: usize,
        kc: usize,
        out: &mut [f32],
    ) {
        let (isa, alpha) = (self.isa, self.alpha);
        pack_panels::<R>(isa, &self.a, !self.ta, i0, i_end, pc, kc, alpha, out);
    }

    /// The block of `op(A)` from `(i0, pc)`, `kc` columns deep, read where A
    /// is stored.
    fn a_tile(&self, i0: usize, pc: usize, kc: usize) -> ATile<'_> {
        let ld = self.a.cols();
        let (rows, cols) = if self.ta { (1, ld) } else { (ld, 1) };
        ATile {
            data: &self.a.as_slice()[i0 * rows + pc * cols..],
            rows: StrideWalk {
                at: 0,
                stride: rows,
            },
            cols: StrideWalk {
                at: 0,
                stride: cols,
            },
            span: (kc - 1) * cols,
            alpha: self.alpha,
        }
    }

    /// Whether C is one row panel (`m <= MR`) and each row of B lies in
    /// storage as a stored row does (B untransposed, or patches). Then
    /// every element of B meets one A panel only, so a pack would cost a
    /// pass over B and save none, and the AVX-512 instantiation reads B
    /// where it is stored.
    #[cfg(target_arch = "x86_64")]
    fn b_in_place(&self) -> bool {
        self.b.row_major() && self.m <= self.tile.0
    }

    /// [`Product::accumulate`] under AVX-512 of a product at most `NR` wide
    /// (the narrow tile) or whose B is read in place
    /// ([`Product::b_in_place`]). Each element of A then meets one B panel
    /// only, so A is read where it is stored. Per k-slab of the part, B is
    /// read in place or packed into its one panel, and one call of
    /// [`Tiles::run`] adds the slab into every column of the part.
    #[cfg(target_arch = "x86_64")]
    fn accumulate_in_place(&self, part: Part, mut c: CPart<'_, '_>) {
        const NARROW: usize = TILE_ZMM_NARROW.1;
        let kc = self.blk.kc;
        let (k, _) = self.b.shape();
        let (r0, m) = (part.rows.start, part.rows.len());
        let (c0, n) = (part.cols.start, part.cols.len());
        let depth = part.slabs.start * kc..k.min(part.slabs.end * kc);
        let b_in_place = self.b_in_place();
        // A vector of B holds 16 columns, but whole filter rows of a patch.
        let width = match self.b {
            Operand::Patches(x, false) if b_in_place && x.k <= 16 => 16 / x.k * x.k,
            _ => 16,
        };
        let (mut a_buf, mut b_buf) = PACK_BUFFERS.take();
        // A product that packs B here is at most `NARROW` wide: one panel.
        let b_len = if b_in_place {
            0
        } else {
            NARROW * kc.min(depth.len())
        };
        let b_pack = lend(&mut b_buf, b_len);
        for (s, pc) in depth.clone().step_by(kc).enumerate() {
            let kc = kc.min(depth.end - pc);
            if let (true, Operand::Patches(_, true)) = (b_in_place, self.b) {
                let (slab, at) = ((pc, kc), (r0, m, c0, n));
                let (a_buf, c, finish) = (&mut a_buf, &mut c.slab(s), self.finish(s));
                match m {
                    0..=6 => self.pixel_tiles::<6, 4>(a_buf, slab, at, c, finish),
                    7..=8 => self.pixel_tiles::<8, 3>(a_buf, slab, at, c, finish),
                    _ => self.pixel_tiles::<12, 2>(a_buf, slab, at, c, finish),
                }
                continue;
            }
            let b = if b_in_place {
                self.b.stored().block(pc, c0)
            } else {
                let b_slab = &mut b_pack[..NARROW * kc];
                pack_b::<NARROW>(self.isa, self.b, c0, c0 + n, pc, kc, b_slab);
                InPlace::panel(b_slab, NARROW)
            };
            let tiles = Tiles {
                a: self.a_tile(r0, pc, kc),
                b,
                kc,
                m,
                n,
                width,
                finish: self.finish(s),
            };
            // SAFETY: as for `Isa::Avx2Fma` in `accumulate`.
            unsafe { tiles.run(self.tile == TILE_ZMM_NARROW, &mut c.slab(s)) };
        }
        PACK_BUFFERS.set((a_buf, b_buf));
    }
}

#[cfg(target_arch = "x86_64")]
impl Product<'_> {
    /// One k-slab `(pc, kc)` of a part `(r0, m, c0, n)` of `alpha * A ·
    /// patches(x)ᵀ` whose B is read in place: `alpha * A` packed into `R`
    /// lanes of `a_buf`, then [`pixels_avx512`] at `R x 16V` over the part's
    /// columns.
    fn pixel_tiles<const R: usize, const V: usize>(
        &self,
        a_buf: &mut Vec<f32>,
        (pc, kc): (usize, usize),
        (r0, m, c0, n): (usize, usize, usize, usize),
        c: &mut CPart<'_, '_>,
        finish: Finish,
    ) {
        let a = lend(a_buf, R * kc);
        self.pack_a::<R>(r0, r0 + m, pc, kc, a);
        let b = self.b.stored().block(pc, c0);
        // SAFETY: as for `Isa::Avx2Fma` in `accumulate`.
        unsafe {
            match max_runs(b.cols, 16) {
                0..=2 => pixels_avx512::<R, V, 2>(a, b, kc, (m, n), c, finish),
                3..=4 => pixels_avx512::<R, V, 4>(a, b, kc, (m, n), c, finish),
                _ => pixels_avx512::<R, V, 16>(a, b, kc, (m, n), c, finish),
            }
        }
    }
}

/// Where each element of a matrix lies in its storage `data`: element `(r,
/// c)` at `data[rows.at(r) + cols.at(c)]`. Both offsets grow with the
/// index, so a block's last element lies past all its others.
#[derive(Clone, Copy)]
struct Stored<'a> {
    data: &'a [f32],
    rows: Axis,
    cols: Axis,
}

impl<'a> Stored<'a> {
    /// The block whose first element is `(r0, c0)`.
    fn block(self, r0: usize, c0: usize) -> InPlace<'a> {
        InPlace {
            data: &self.data[self.rows.at(r0) + self.cols.at(c0)..],
            rows: AxisFrom {
                axis: self.rows,
                from: r0,
            },
            cols: AxisFrom {
                axis: self.cols,
                from: c0,
            },
        }
    }
}

/// One axis of a matrix read in place: where its indices lie.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Axis {
    /// Index `i` at `i * stride`.
    Stride(usize),
    /// Index `i = (g * o + y) * o + x` at `(g * side + y) * side + x`: the
    /// rows of a patch matrix (`o = side - k + 1`; image, output row and
    /// output column) or its columns (`o = k`; filter row and column).
    Grid { o: usize, side: usize },
}

impl Axis {
    /// Where index `i` lies.
    fn at(self, i: usize) -> usize {
        match self {
            Axis::Stride(stride) => i * stride,
            Axis::Grid { o, side } => {
                let (q, x) = (i / o, i % o);
                (q / o * side + q % o) * side + x
            }
        }
    }
}

/// The indices `from, from + 1, ...` of an [`Axis`], which a block walks.
#[derive(Clone, Copy)]
struct AxisFrom {
    axis: Axis,
    from: usize,
}

impl AxisFrom {
    /// Where the index `n` past the first lies, past the first.
    fn offset(self, n: usize) -> usize {
        self.axis.at(self.from + n) - self.axis.at(self.from)
    }

    /// The [`Walk`] of these indices, if they lie at a fixed stride.
    fn strided(self) -> Option<StrideWalk> {
        match self.axis {
            Axis::Stride(stride) => Some(StrideWalk { at: 0, stride }),
            Axis::Grid { .. } => None,
        }
    }

    /// The [`Walk`] of these indices, whatever the axis.
    fn any(self) -> AnyWalk {
        let (step, o, side) = match self.axis {
            Axis::Stride(stride) => (stride, usize::MAX, 0),
            Axis::Grid { o, side } => (1, o, side),
        };
        AnyWalk {
            at: 0,
            step,
            x: self.from % o,
            y: self.from / o % o,
            o,
            side,
        }
    }
}

/// Where consecutive indices of an [`AxisFrom`] lie, past its first: each
/// call gives the next one's offset, from 0.
trait Walk: Copy {
    /// How many of the next indices lie `step` apart, with no wrap between
    /// them (at least one).
    fn straight(&self) -> usize;

    /// The next index's offset, stepping `step` past it; at most
    /// [`Walk::straight`] times before [`Walk::settle`].
    fn step(&mut self) -> usize;

    /// Accounts for the last `n` calls of [`Walk::step`], wrapping where
    /// they reached the end of a straight run.
    fn settle(&mut self, n: usize);

    /// The next index's offset, stepping past it.
    #[inline(always)]
    fn next_at(&mut self) -> usize {
        let at = self.step();
        self.settle(1);
        at
    }
}

/// The [`Walk`] of an [`Axis::Stride`].
#[derive(Clone, Copy)]
struct StrideWalk {
    at: usize,
    stride: usize,
}

impl Walk for StrideWalk {
    #[inline(always)]
    fn straight(&self) -> usize {
        usize::MAX
    }

    #[inline(always)]
    fn step(&mut self) -> usize {
        let at = self.at;
        self.at += self.stride;
        at
    }

    #[inline(always)]
    fn settle(&mut self, _: usize) {}
}

/// The [`Walk`] of any [`Axis`]: steps `step` at a time along `x`, which
/// wraps at `o` into `y`, which wraps at `o` into the next grid (an
/// [`Axis::Stride`] has `o = usize::MAX`, so it never wraps).
#[derive(Clone, Copy)]
struct AnyWalk {
    at: usize,
    step: usize,
    x: usize,
    y: usize,
    o: usize,
    side: usize,
}

impl AnyWalk {
    /// Steps past the next `n` indices, at most [`Walk::straight`].
    #[cfg(target_arch = "x86_64")]
    fn advance(&mut self, n: usize) {
        self.at += n * self.step;
        self.settle(n);
    }
}

impl Walk for AnyWalk {
    #[inline(always)]
    fn straight(&self) -> usize {
        self.o - self.x
    }

    #[inline(always)]
    fn step(&mut self) -> usize {
        let at = self.at;
        self.at += self.step;
        at
    }

    #[inline(always)]
    fn settle(&mut self, n: usize) {
        self.x += n;
        if self.x == self.o {
            self.x = 0;
            self.y += 1;
            self.at += self.side - self.o;
            if self.y == self.o {
                self.y = 0;
                self.at += (self.side - self.o) * self.side;
            }
        }
    }
}

/// A block of a matrix read where it is stored: element `(i, p)` at
/// `data[rows.offset(i) + cols.offset(p)]`.
#[derive(Clone, Copy)]
struct InPlace<'a> {
    data: &'a [f32],
    rows: AxisFrom,
    cols: AxisFrom,
}

impl<'a> InPlace<'a> {
    /// A packed panel of `width` lanes, p-major, as a block of B.
    #[cfg(target_arch = "x86_64")]
    fn panel(data: &'a [f32], width: usize) -> Self {
        Stored {
            data,
            rows: Axis::Stride(width),
            cols: Axis::Stride(1),
        }
        .block(0, 0)
    }
}

/// One k-slab of a part of a product under AVX-512, with A (and B, or its
/// packed panel) read in place: [`tile_avx512`]s over the `m` rows and `n`
/// columns of the part.
#[cfg(target_arch = "x86_64")]
struct Tiles<'a> {
    a: ATile<'a>,
    b: InPlace<'a>,
    kc: usize,
    m: usize,
    n: usize,
    /// Columns of B to a vector ([`Lanes`]).
    width: usize,
    finish: Finish,
}

#[cfg(target_arch = "x86_64")]
impl Tiles<'_> {
    /// Runs the tiles at the narrow `6 x 16` or at `12 x 32`, on the walk
    /// B's rows take: a stored matrix's stride, or the patches' grid. One
    /// call covers every column of the slab, so each range of columns costs
    /// its [`Lanes`], not a call across the feature boundary.
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn run(&self, narrow: bool, c: &mut CPart<'_, '_>) {
        let b_rows = self.b.rows.offset(self.kc - 1);
        macro_rules! go {
            ($br:expr, $runs:expr) => {{
                let b = BSlab {
                    data: self.b.data,
                    rows: $br,
                    span: b_rows,
                    cols: self.b.cols.any(),
                    width: self.width,
                };
                let (a, kc, m, n, finish) = (self.a, self.kc, self.m, self.n, self.finish);
                if narrow {
                    rows_avx512_narrow::<_, $runs>(a, b, kc, c, m, n, finish);
                } else {
                    rows_avx512::<_, $runs>(a, b, kc, c, m, n, finish);
                }
            }};
        }
        // A stored matrix's rows of B lie at a stride and its columns side
        // by side (and so do a packed panel's); the patches' do neither.
        // Their vectors hold a few runs of columns each (whole filter rows
        // of a patch, or output rows of a tap), loaded one masked load per
        // run, the loop unrolled.
        let Some(br) = self.b.rows.strided() else {
            match max_runs(self.b.cols, self.width) {
                0..=3 => go!(self.b.rows.any(), 3),
                4..=5 => go!(self.b.rows.any(), 5),
                _ => go!(self.b.rows.any(), 16),
            }
            return;
        };
        go!(br, 0)
    }
}

/// The most runs of side-by-side columns of `cols` a vector of `width`
/// holds, where every vector starts a whole number of `width`s past the
/// first column: `width / o` if the first column starts a grid row and
/// `width` is whole rows, else at most one more than `⌈width / o⌉`.
#[cfg(target_arch = "x86_64")]
fn max_runs(cols: AxisFrom, width: usize) -> usize {
    match cols.axis {
        Axis::Stride(_) => 1,
        Axis::Grid { o, .. } => {
            width.div_ceil(o)
                + usize::from(!cols.from.is_multiple_of(o) || !width.is_multiple_of(o))
        }
    }
}

thread_local! {
    /// This thread's A and B pack buffers. [`Product::accumulate_tiled`]
    /// (and [`Product::accumulate_in_place`], for B) takes them for the
    /// length of one call and puts them back, so a thread allocates them
    /// once, not per product, and they hold at most `(mc + nc) * kc` floats
    /// at [`BLOCKING`]. A pack writes every element it hands to the
    /// microkernel, so what a buffer held before is never read.
    static PACK_BUFFERS: Cell<(Vec<f32>, Vec<f32>)> = const { Cell::new((Vec::new(), Vec::new())) };

    /// This thread's slab tiles for the depth split, taken for the length of
    /// one product: every slab stores its whole tile before C reads it, so
    /// what the buffer held before is never read.
    static SLAB_TILES: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
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

/// Packs columns `j0..j_end` of B over the depth `pc..pc + kc` into
/// `R`-lane panels, as [`pack_panels`] does. Patches are packed from the
/// images, through [`pack_walks`].
fn pack_b<const R: usize>(
    isa: Isa,
    b: Operand<'_>,
    j0: usize,
    j_end: usize,
    pc: usize,
    kc: usize,
    out: &mut [f32],
) {
    let Operand::Mat(view, t) = b else {
        let Stored { data, rows, cols } = b.stored();
        let data = &data[cols.at(j0) + rows.at(pc)..];
        let walk = |axis, from| AxisFrom { axis, from }.any();
        let (lanes, depth) = (walk(cols, j0), walk(rows, pc));
        pack_walks::<R>(isa, data, lanes, depth, j_end - j0, kc, 1.0, out);
        return;
    };
    pack_panels::<R>(isa, &view, t, j0, j_end, pc, kc, 1.0, out);
}

per_isa! {
    /// [`pack_walks_body`] as compiled for `isa`.
    #[allow(clippy::too_many_arguments)]
    fn pack_walks<const R: usize>(
        data: &[f32],
        lanes: AnyWalk,
        depth: AnyWalk,
        n: usize,
        kc: usize,
        scale: f32,
        out: &mut [f32],
    ) = pack_walks_body;
}

/// [`pack_panels`] of `n` lanes of a block read in place: each panel's `R`
/// lanes lie where `lanes` walks to them, and each `p` of the depth where
/// `depth` does, so a panel is `scale * data[lane + p]` over both walks,
/// padding lanes `+0.0`.
#[inline(always)]
fn pack_walks_body<const R: usize>(
    data: &[f32],
    mut lanes: AnyWalk,
    depth: AnyWalk,
    n: usize,
    kc: usize,
    scale: f32,
    out: &mut [f32],
) {
    for (ip, panel) in out.chunks_exact_mut(kc * R).enumerate() {
        let r = R.min(n - ip * R);
        let at: [usize; R] = std::array::from_fn(|_| lanes.next_at());
        let mut depth = depth;
        for dst in panel.chunks_exact_mut(R) {
            let p = depth.next_at();
            for (d, &lane) in dst[..r].iter_mut().zip(&at) {
                *d = scale * data[lane + p];
            }
            dst[r..].fill(0.0);
        }
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
/// `c[ic..ic+mc, jc..jc+nc]` — the depth `kc` of the panels that update it,
/// and how its tiles finish.
#[derive(Clone, Copy)]
struct Block {
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kc: usize,
    finish: Finish,
}

/// The block of `alpha * op(A)` that one macro-kernel call multiplies.
#[derive(Clone, Copy)]
enum ABlock<'a> {
    /// Packed into `MR`-row panels, each p-major, `alpha` applied.
    Packed(&'a [f32]),
    /// Read where it is stored.
    InPlace(ATile<'a>),
}

/// A slab's block of `op(A)` read where A is stored, from its first element
/// ([`Product::a_tile`]): element `(i, p)` at `data[rows.stride * i +
/// cols.stride * p]`, times `alpha`, the value a pack would have stored. Its
/// last column lies `span` past its first.
#[derive(Clone, Copy)]
struct ATile<'a> {
    data: &'a [f32],
    rows: StrideWalk,
    cols: StrideWalk,
    span: usize,
    alpha: f32,
}

/// The B of [`Tiles::run`]: the slab's block of B (or its packed panel) from
/// the part's first column, the walks of its rows and its columns, where
/// its last row lies, and how many columns a vector holds.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct BSlab<'a, R> {
    data: &'a [f32],
    rows: R,
    span: usize,
    cols: AnyWalk,
    width: usize,
}

/// The B of a run of [`tile_avx512`]s: the slab's block of B (or its packed
/// panel) from the tiles' first column, the walk of its rows, where its
/// last row lies, and how a row's columns load.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct BTile<'a, R> {
    data: &'a [f32],
    rows: R,
    span: usize,
    lanes: Lanes<2, 16>,
}

/// How a tile loads one row of its `nr` columns of B into its `V` 16-lane
/// vectors, `width` columns to a vector: lane `l` of vector `v` holds column
/// `width * v + l`, which lies `width * v + l + shift` past the row's first
/// column, `shift` being that of the lane's run. Columns stored side by side
/// fill whole vectors (`width` 16) in one run each, at shift 0. A patch row
/// is one run per filter row, `k` floats, and at `k <= 16` a vector holds
/// `16 / k` whole runs, so the row takes one masked load per filter row. A
/// tap's row of pixels is one run per output row, `o` floats, so a vector
/// holds one or two runs where `o >= 15`. A vector holds at most `N` runs;
/// the runs past its count are `(0, 0)`, a load of no lanes.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Lanes<const V: usize, const N: usize> {
    /// Each vector's runs, `(mask, shift)`: its first `counts[v]`.
    runs: [[(u16, usize); N]; V],
    counts: [usize; V],
    width: usize,
    /// Where column `nr - 1` lies.
    span: usize,
}

#[cfg(target_arch = "x86_64")]
impl<const V: usize, const N: usize> Lanes<V, N> {
    /// The runs of the next `nr` columns `cols` walks to, `width` to a
    /// vector, past the first of them; `cols` steps past them. It takes a
    /// step per straight run of the walk, not per column.
    fn next(cols: &mut AnyWalk, nr: usize, width: usize) -> Self {
        let mut lanes = Lanes {
            runs: [[(0, 0); N]; V],
            counts: [0; V],
            width,
            span: 0,
        };
        let (first, mut t) = (cols.at, 0);
        while t < nr {
            // Columns `t..end` lie side by side, `shift` past their index.
            let end = t + (nr - t).min(cols.straight());
            let shift = cols.at - first - t;
            for v in t / width..end.div_ceil(width) {
                let upto = |j: usize| lane_mask(j.clamp(v * width, (v + 1) * width) - v * width);
                let (runs, n) = (&mut lanes.runs[v], &mut lanes.counts[v]);
                runs[*n] = (upto(end) & !upto(t), shift);
                *n += 1;
            }
            lanes.span = cols.at - first + end - t - 1;
            cols.advance(end - t);
            t = end;
        }
        lanes
    }
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

/// Defines `fn $name(a, b, kc, c, m, n, finish)`: [`tile_avx512`]s of `V`
/// vectors per row over the `n` columns of B's slab, `V` vectors' worth at a
/// time, and down the `m` rows of A read in place, `MR` at a time. A run of `R` rows, `R` one
/// of `$exact`, is one tile of exactly `R` rows; any other takes the
/// `MR`-row tile, its rows past the edge padding.
macro_rules! rows_kernel {
    ($(#[$attr:meta])* fn $name:ident<MR = $mr:literal, V = $v:literal>, exact = [$($r:literal),*]) => {
        $(#[$attr])*
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,avx2,fma")]
        fn $name<BR: Walk, const RUNS: usize>(
            a: ATile<'_>,
            b: BSlab<'_, BR>,
            kc: usize,
            c: &mut CPart<'_, '_>,
            m: usize,
            n: usize,
            finish: Finish,
        ) {
            let (step, mut walk_cols) = ($v * b.width, b.cols);
            for j0 in (0..n).step_by(step) {
                let nr = step.min(n - j0);
                let b = BTile {
                    data: &b.data[walk_cols.at..],
                    rows: b.rows,
                    span: b.span,
                    lanes: Lanes::next(&mut walk_cols, nr, b.width),
                };
                let cols = (j0, nr);
                let mut walk = a.rows;
                for i0 in (0..m).step_by($mr) {
                    let at: [usize; $mr] = std::array::from_fn(|_| walk.step());
                    let rows = (i0, usize::min($mr, m - i0));
                    match (rows.1, a.alpha == 1.0) {
                        $(
                            ($r, true) => tile_avx512::<$r, $v, true, RUNS>(&a, &at, &b, kc, c, rows, cols, finish),
                            ($r, false) => tile_avx512::<$r, $v, false, RUNS>(&a, &at, &b, kc, c, rows, cols, finish),
                        )*
                        (_, true) => tile_avx512::<$mr, $v, true, RUNS>(&a, &at, &b, kc, c, rows, cols, finish),
                        (_, false) => tile_avx512::<$mr, $v, false, RUNS>(&a, &at, &b, kc, c, rows, cols, finish),
                    }
                }
            }
        }
    };
}

rows_kernel! {
    /// [`Product::accumulate_in_place`]'s tiles at `12 x 32`: the rows of the
    /// CNN filter gradient (8, or 6 at six channels) and of the 10-class
    /// heads' weight gradients get a tile of their own.
    fn rows_avx512<MR = 12, V = 2>, exact = [6, 8, 10]
}

rows_kernel! {
    /// [`Product::accumulate_in_place`]'s tiles at the narrow `6 x 16`.
    fn rows_avx512_narrow<MR = 6, V = 1>, exact = []
}

/// Finishes a tile of `R x V` accumulators `$acc` into the rows `r0..r0 +
/// mr` and columns `j0..j0 + nr` of C, `width` columns to a vector, with the
/// IEEE operations of [`Finish::row`]. Each row of C is loaded before any is
/// stored: a masked store to a row narrower than a vector spans the start of
/// the next row, and a load from there would wait for it to retire. A macro,
/// so that the accumulators stay in registers into the finish: a function
/// under `#[target_feature]` cannot be `#[inline(always)]`, and called, it
/// takes them through memory.
#[cfg(target_arch = "x86_64")]
macro_rules! finish_tile {
    ($acc:ident, $c:expr, ($r0:expr, $mr:expr), ($j0:expr, $nr:expr), $width:expr, $finish:expr) => {{
        use std::arch::x86_64::{
            _mm512_add_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_sub_ps,
        };
        let (c, (r0, mr), (j0, nr), width) = (&mut *$c, ($r0, $mr), ($j0, $nr), $width);
        let zero = _mm512_setzero_ps();
        for (i, acc_row) in $acc.iter_mut().enumerate().take(mr) {
            match $finish {
                Finish::Add => {
                    let row = &c.row(r0 + i)[j0..j0 + nr];
                    for (seg, acc) in row.chunks(width).zip(acc_row) {
                        *acc = add_lanes(seg, *acc);
                    }
                }
                Finish::Store => acc_row
                    .iter_mut()
                    .for_each(|acc| *acc = _mm512_add_ps(zero, *acc)),
                Finish::Raw => {}
                Finish::Sgd { shrink, lr } => {
                    let (shrink, lr) = (_mm512_set1_ps(shrink), _mm512_set1_ps(lr));
                    let row = &c.row(r0 + i)[j0..j0 + nr];
                    for (seg, acc) in row.chunks(width).zip(acc_row) {
                        let w = _mm512_mul_ps(shrink, load_lanes(seg));
                        *acc = _mm512_sub_ps(w, _mm512_mul_ps(lr, _mm512_add_ps(zero, *acc)));
                    }
                }
            }
        }
        for (i, acc_row) in $acc.iter().enumerate().take(mr) {
            let row = &mut c.row(r0 + i)[j0..j0 + nr];
            for (seg, &acc) in row.chunks_mut(width).zip(acc_row) {
                store_lanes(seg, acc);
            }
        }
    }};
}

/// One tile of `R` rows by `V` 16-lane vectors under AVX-512F, added into
/// the rows `r0..r0 + mr` and columns `j0..j0 + nr` of C: the contract's
/// inner loop, as [`micro_kernel`] and the `add` of [`macro_kernel_body`]
/// run it. Row `i` of the tile lies at `at[i]` in A's block; it starts at
/// zero and takes `fma(alpha * A[i, p], B[p, j], acc)` for `p` ascending,
/// each element where the walks of A's columns and B's rows reach it. Rows
/// past `mr` re-read row `mr - 1` (padding, never stored), and lanes past
/// `nr` load `+0.0`. Then the tile finishes as `finish` says, with the IEEE
/// operations of [`Finish::row`].
///
/// With `ONE` (`alpha == 1`) each FMA broadcasts its element of A straight
/// from memory, since `1 * x == x`; otherwise a multiply by `alpha`, the
/// same IEEE operation as the pack's, precedes it. A row of B is one masked
/// load per vector, or with `RUNS` one merging masked load per run of
/// [`Lanes`]: a patch row is `k` runs of `k` floats. Each row of C is loaded
/// before any is stored: a masked store to a row narrower than a vector
/// spans the start of the next row, and a load from there would wait for it
/// to retire. A row segment of 8 floats is added in a `ymm` register
/// without a mask.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[allow(clippy::too_many_arguments)]
fn tile_avx512<const R: usize, const V: usize, const ONE: bool, const RUNS: usize>(
    a: &ATile<'_>,
    at: &[usize],
    b: &BTile<'_, impl Walk>,
    kc: usize,
    c: &mut CPart<'_, '_>,
    (r0, mr): (usize, usize),
    (j0, nr): (usize, usize),
    finish: Finish,
) {
    use std::arch::x86_64::{
        _mm512_fmadd_ps, _mm512_mask_loadu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps,
        _mm512_set1_ps, _mm512_setzero_ps,
    };
    let a_tile = &a.data[..at[mr - 1] + a.span + 1];
    let b_tile = &b.data[..b.span + b.lanes.span + 1];
    let rows: [usize; R] = std::array::from_fn(|i| at[i.min(mr - 1)]);
    let alpha = _mm512_set1_ps(a.alpha);
    let (ap, bp) = (a_tile.as_ptr(), b_tile.as_ptr());
    let (mut a_cols, mut b_rows) = (a.cols, b.rows);
    // Only patches in place load runs, and only they fill vectors short.
    let width = if RUNS > 0 { b.lanes.width } else { 16 };
    let mut acc = [[_mm512_setzero_ps(); V]; R];
    // The depth in straight runs of B's rows, so the wraps are settled once
    // a run, outside the loop that multiplies (A's columns lie at a stride).
    let mut left = kc;
    while left > 0 {
        let run = left.min(b_rows.straight());
        for _ in 0..run {
            let (col, row) = (a_cols.step(), b_rows.step());
            let mut bv = [_mm512_setzero_ps(); V];
            for (v, x) in bv.iter_mut().enumerate() {
                // SAFETY: a run's `mask` enables the lanes `l` of its columns
                // `width * v + l < nr`, which lie at `width * v + l + shift` past
                // the row's first (`shift == 0` and `width == 16` without
                // `RUNS`), so lane `l` reads `b_tile[row + width * v + l +
                // shift]`. The row lies at most
                // `b.span` past the slab's first and the column at most
                // `lanes.span` past the row's (both walks only grow), so every
                // active-lane address lies in the checked slice `b_tile`.
                // Inactive lanes read nothing, and `wrapping_add` forms the base
                // without claiming it is in bounds.
                unsafe {
                    if RUNS > 0 {
                        for (i, &(mask, shift)) in b.lanes.runs[v][..RUNS].iter().enumerate() {
                            if i < b.lanes.counts[v] {
                                let from = bp.wrapping_add(row + width * v + shift);
                                *x = _mm512_mask_loadu_ps(*x, mask, from);
                            }
                        }
                    } else {
                        *x = _mm512_maskz_loadu_ps(
                            b.lanes.runs[v][0].0,
                            bp.wrapping_add(row + 16 * v),
                        );
                    }
                }
            }
            for (acc_row, &at) in acc.iter_mut().zip(&rows) {
                // SAFETY: `at + col <= at[mr - 1] + a.span < a_tile.len()`, as
                // both walks only grow, so the read lies in the checked slice
                // `a_tile`.
                let x = _mm512_set1_ps(unsafe { ap.add(at + col).read() });
                let x = if ONE { x } else { _mm512_mul_ps(alpha, x) };
                for (acc, &b) in acc_row.iter_mut().zip(&bv) {
                    *acc = _mm512_fmadd_ps(x, b, *acc);
                }
            }
        }
        b_rows.settle(run);
        left -= run;
    }
    finish_tile!(acc, c, (r0, mr), (j0, nr), width, finish);
}

/// One k-slab of `alpha * A · patches(x)ᵀ` under AVX-512, C one row panel
/// of `mr <= R` rows: tiles of `R` rows by `V` vectors of 16 pixels over the
/// `n` columns of the part, rows past `mr` padding. `a` is the slab's
/// `alpha * A`, packed `R` lanes to a tap (the value the tile's multiply
/// would give); `b` is the slab's block of the transposed patches, whose
/// rows are filter taps and whose columns are pixels. A tile's pixels lie
/// in runs of an output row ([`Lanes`], at most `RUNS` to a vector) that are
/// the same for every tap, so the masks and shifts are set once a tile;
/// then each tap is one merging masked load per run, one broadcast per row
/// and `R * V` FMAs into accumulators that stay in registers for the slab,
/// taps ascending: the contract's inner loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn pixels_avx512<const R: usize, const V: usize, const RUNS: usize>(
    a: &[f32],
    b: InPlace<'_>,
    kc: usize,
    (mr, n): (usize, usize),
    c: &mut CPart<'_, '_>,
    finish: Finish,
) {
    use std::arch::x86_64::{
        _mm512_fmadd_ps, _mm512_mask_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
    };
    let (taps_span, taps) = (b.rows.offset(kc - 1), b.rows.any());
    let mut pixels = b.cols.any();
    for j0 in (0..n).step_by(16 * V) {
        let (from, nr) = (pixels.at, (16 * V).min(n - j0));
        let lanes = Lanes::<V, RUNS>::next(&mut pixels, nr, 16);
        let tile = &b.data[from..from + taps_span + lanes.span + 1];
        let bp = tile.as_ptr();
        let (mut acc, mut taps) = ([[_mm512_setzero_ps(); V]; R], taps);
        for ap in a.chunks_exact(R).take(kc) {
            let row = taps.next_at();
            let mut bv = [_mm512_setzero_ps(); V];
            for (v, (x, runs)) in bv.iter_mut().zip(&lanes.runs).enumerate() {
                for &(mask, shift) in runs {
                    // SAFETY: `mask` enables the lanes `l` of its run's
                    // pixels `16 * v + l < nr`, which lie `16 * v + l +
                    // shift <= lanes.span` past the tile's first, so lane `l`
                    // reads `tile[row + 16 * v + l + shift]`, and the tap lies
                    // `row <= taps_span` past the slab's first: every
                    // active-lane address lies in the checked slice `tile`.
                    // A run past the vector's count enables no lane and
                    // reads nothing, and `wrapping_add` forms the base
                    // without claiming it is in bounds.
                    *x = unsafe {
                        _mm512_mask_loadu_ps(*x, mask, bp.wrapping_add(row + 16 * v + shift))
                    };
                }
            }
            for (acc_row, &ai) in acc.iter_mut().zip(ap) {
                let x = _mm512_set1_ps(ai);
                for (acc, &b) in acc_row.iter_mut().zip(&bv) {
                    *acc = _mm512_fmadd_ps(x, b, *acc);
                }
            }
        }
        finish_tile!(acc, c, (0, mr), (j0, nr), 16, finish);
    }
}

/// The mask of the first `n` of 16 lanes.
#[cfg(target_arch = "x86_64")]
fn lane_mask(n: usize) -> u16 {
    match n {
        0 => 0,
        1..=15 => u16::MAX >> (16 - n),
        _ => u16::MAX,
    }
}

/// `seg + acc` in the first `seg.len() <= 16` lanes (the rest undefined).
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx2,fma")]
fn add_lanes(seg: &[f32], acc: std::arch::x86_64::__m512) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm512_add_ps, _mm512_castps256_ps512,
        _mm512_castps512_ps256,
    };
    if seg.len() == 8 {
        // SAFETY: the load reads 8 floats from the start of `seg`, a checked
        // slice of 8.
        let c = unsafe { _mm256_loadu_ps(seg.as_ptr()) };
        _mm512_castps256_ps512(_mm256_add_ps(c, _mm512_castps512_ps256(acc)))
    } else {
        _mm512_add_ps(load_lanes(seg), acc)
    }
}

/// The first `seg.len() <= 16` lanes loaded from `seg`, the rest `+0.0`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx2,fma")]
fn load_lanes(seg: &[f32]) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::_mm512_maskz_loadu_ps;
    // SAFETY: the mask enables lanes `l < seg.len()` only, so every
    // active-lane address lies in the checked slice `seg`.
    unsafe { _mm512_maskz_loadu_ps(lane_mask(seg.len()), seg.as_ptr()) }
}

/// Stores the first `seg.len() <= 16` lanes of `x` into `seg`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx2,fma")]
fn store_lanes(seg: &mut [f32], x: std::arch::x86_64::__m512) {
    use std::arch::x86_64::{_mm256_storeu_ps, _mm512_castps512_ps256, _mm512_mask_storeu_ps};
    if seg.len() == 8 {
        // SAFETY: the store writes 8 floats from the start of `seg`, a
        // checked slice of 8.
        unsafe { _mm256_storeu_ps(seg.as_mut_ptr(), _mm512_castps512_ps256(x)) };
    } else {
        // SAFETY: the mask enables lanes `l < seg.len()` only, so every
        // active-lane address lies in the checked slice `seg`.
        unsafe { _mm512_mask_storeu_ps(seg.as_mut_ptr(), lane_mask(seg.len()), x) };
    }
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
    let Block {
        ic,
        mc,
        jc,
        nc,
        kc,
        finish,
    } = block;
    // B panel outermost: it stays in L1 while the A panels stream past.
    for (jp, b_panel) in b_pack.chunks_exact(kc * NR).enumerate() {
        let j0 = jc + jp * NR;
        let nr = NR.min(jc + nc - j0);
        // Padding lanes (rows past `mr`, columns past `nr`) stop here.
        let mut add = |i0: usize, mr: usize, acc: [[f32; NR]; MR]| {
            for (i, acc_row) in acc.iter().enumerate().take(mr) {
                finish.row(&mut c.row(ic + i0 + i)[j0..j0 + nr], acc_row);
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
            ABlock::InPlace(a) => in_place_tiles::<MR, NR>(&mut add, a, mc, kc, b_panel),
        }
    }
}

/// [`macro_kernel_body`]'s tiles of A read in place against one B panel:
/// `MR` rows at a time, `alpha` times the stored element, the value a pack
/// would have stored.
#[inline(always)]
fn in_place_tiles<const MR: usize, const NR: usize>(
    add: &mut impl FnMut(usize, usize, [[f32; NR]; MR]),
    a: ATile<'_>,
    mc: usize,
    kc: usize,
    b_panel: &[f32],
) {
    let mut rows = a.rows;
    for i0 in (0..mc).step_by(MR) {
        let mr = MR.min(mc - i0);
        let at: [usize; MR] = std::array::from_fn(|_| rows.step());
        // Rows past the edge re-read the last row: their lanes are padding,
        // computed and never stored.
        let at: [usize; MR] = std::array::from_fn(|i| at[i.min(mr - 1)]);
        let mut cols = a.cols;
        let columns = (0..kc).map(|_| -> [f32; MR] {
            let col = cols.step();
            std::array::from_fn(|i| a.alpha * a.data[at[i] + col])
        });
        add(i0, mr, micro_kernel::<MR, NR>(columns, b_panel));
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
    use crate::conv::Patches;
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

    /// `alpha * A * B + beta * C0` by [`gemm_with`] on `isa` at `blk`.
    #[allow(clippy::too_many_arguments)]
    fn run_on(
        isa: Isa,
        par: Par,
        blk: GemmBlocking,
        alpha: f32,
        a: (MatView<'_>, bool),
        b: Operand<'_>,
        beta: f32,
        c0: &Mat,
    ) -> Mat {
        let mut c = c0.clone();
        let out = Epilogue::Beta(beta);
        gemm_with(par, alpha, a, b, out, &mut c.view_mut(), blk, isa);
        c
    }

    /// [`BLOCKING`], but forking wherever a product has two tiles or slabs
    /// to split, however few its flops.
    const FORKED: GemmBlocking = GemmBlocking {
        min_flops: 1,
        ..BLOCKING
    };

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
        let (a, b) = ((a.view(), ta), Operand::Mat(b.view(), tb));
        run_on(isa, par, BLOCKING, alpha, a, b, beta, c0)
    }

    /// [`product_on`], forking wherever a product has two tiles or slabs to
    /// split, however few its flops.
    fn forked_on(
        isa: Isa,
        alpha: f32,
        (a, ta): (&Mat, bool),
        (b, tb): (&Mat, bool),
        beta: f32,
        c0: &Mat,
    ) -> Mat {
        let (a, b) = ((a.view(), ta), Operand::Mat(b.view(), tb));
        run_on(isa, Par::Rayon, FORKED, alpha, a, b, beta, c0)
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
        gemm_with(
            par,
            alpha,
            (a, ta),
            Operand::Mat(b, tb),
            Epilogue::Beta(beta),
            c,
            blk,
            Isa::detect(),
        );
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
            // to split them between workers, its live values in the last;
            // the narrow tile's masked and `ymm` edges; one row panel at the
            // wide tile, forked by columns.
            let depth_k = MIN_FLOPS_PER_WORKER.div_ceil(mr * nr) + 7;
            let row_panel_k = MIN_FLOPS_PER_WORKER.div_ceil(8 * 70) + 3;
            for ((m, n, k), (ta, tb)) in [
                (2 * mr + 1, nr + 3, 19),
                (mr, nr, depth_k),
                (13, 8, 19),
                (13, 10, 19),
                (8, 70, row_panel_k),
            ]
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
                        for alpha in [1.0, 0.7] {
                            let mut c_ref = c0.clone();
                            let c = &mut c_ref.view_mut();
                            gemm_ref(alpha, a.view(), ta, b.view(), tb, 0.3, c);
                            let bad = c_ref.as_slice().iter().filter(|x| !x.is_finite()).count();
                            assert_eq!(bad, if poison_in_b { 2 * m } else { 2 * n });
                            for par in [Par::Seq, Par::Rayon] {
                                let c = product_on(isa, par, alpha, (&a, ta), (&b, tb), 0.3, &c0);
                                assert!(
                                    c.as_slice()
                                        .iter()
                                        .map(class)
                                        .eq(c_ref.as_slice().iter().map(class)),
                                    "non-finite values landed elsewhere than in gemm_ref: \
                                     {isa:?} {m}x{n}x{k} ta={ta} tb={tb} poison={poison} \
                                     in_b={poison_in_b} alpha={alpha} {par:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every `(alpha, beta)` the sweeps below pin: the `alpha == 1` arm of
    /// the AVX-512 tiles and the multiplying one, a negated A, and `beta`
    /// overwriting, scaling and keeping C.
    const SCALINGS: [(f32, f32); 9] = [
        (1.0, 0.0),
        (1.0, 0.3),
        (1.0, 1.0),
        (0.7, 0.0),
        (0.7, 0.3),
        (0.7, 1.0),
        (-1.0, 0.0),
        (-1.0, 0.3),
        (-1.0, 1.0),
    ];

    #[test]
    fn all_instantiations_bitwise_identical_to_portable() {
        let mut rng = StdRng::seed_from_u64(99);
        let isas = instantiations("all_instantiations_bitwise_identical_to_portable");
        let (narrow_mr, narrow_nr) = TILE_ZMM_NARROW;
        // Edge tiles in both dimensions at every wide tile, three k-slabs.
        let wide = (3 * TILE_ZMM.0 + 1, 2 * TILE_ZMM.1 + 5, 2 * KC + 3);
        // Every width of the narrow tile's edge (its one vector masked to 1,
        // 7, 9, 10 and 15 lanes, a `ymm` at 8, whole at 16), rows straddling
        // its height, two k-slabs. A of one B panel's width is read in place.
        let narrow = [1, 7, 8, 9, 10, 15, narrow_nr].into_iter().flat_map(|n| {
            [narrow_mr - 1, narrow_mr + 1, 2 * narrow_mr + 1].map(|m| (m, n, KC + 5))
        });
        // C of one row panel at the wide tile, B read in place when it is
        // stored untransposed: the tiles of exactly 6, 8 and 10 rows, and 1,
        // 7 and 12 on the 12-row tile, their second vector masked to 1 and 9
        // lanes or whole, three k-slabs; at three panels wide, the forks
        // split the columns.
        let row_panel = [1, 6, 7, 8, 10, TILE_ZMM.0]
            .into_iter()
            .flat_map(|m| [17, 25, TILE_ZMM.1, 2 * TILE_ZMM.1 + 5].map(|n| (m, n, 2 * KC + 3)));
        for shape in std::iter::once(wide).chain(narrow).chain(row_panel) {
            for t in TRANSPOSES {
                for scaling in SCALINGS {
                    pin_to_portable(&isas, shape, t, scaling, &mut rng);
                }
            }
        }
    }

    #[test]
    fn beta_zero_results_are_positive_zero_on_all_instantiations() {
        // Every product underflows to -0.0, so every accumulator is -0.0;
        // `beta = 0` gives C +0.0 first, and `+0.0 + -0.0` is +0.0. A tile
        // stored over C instead of added to it would leave -0.0. Shapes: the
        // wide and narrow tiles with edges, one row panel with B in place,
        // and one tile deep enough to split its slabs.
        let (a_val, b_val) = (-1e-30f32, 1e-30f32);
        for isa in instantiations("beta_zero_results_are_positive_zero_on_all_instantiations") {
            let (mr, nr) = isa.tile(usize::MAX);
            for (m, n, k) in [
                (2 * mr + 1, nr + 3, KC + 5),
                (13, 8, 25),
                (13, 10, KC + 5),
                (8, 25, 2 * KC + 3),
                (mr, 7, 9 * KC + 1),
            ] {
                for (ta, tb) in TRANSPOSES {
                    let full_op = |rows, cols, t, v| {
                        let (r, c) = if t { (cols, rows) } else { (rows, cols) };
                        Mat::full(r, c, v)
                    };
                    let (a, b) = (full_op(m, k, ta, a_val), full_op(k, n, tb, b_val));
                    let c0 = Mat::full(m, n, -2.0);
                    for alpha in [1.0, 0.7] {
                        for c in [
                            product_on(isa, Par::Seq, alpha, (&a, ta), (&b, tb), 0.0, &c0),
                            forked_on(isa, alpha, (&a, ta), (&b, tb), 0.0, &c0),
                        ] {
                            assert!(
                                c.as_slice().iter().all(|x| x.to_bits() == 0),
                                "{isa:?} {m}x{n}x{k} ta={ta} tb={tb} alpha={alpha}: \
                                 a result is not +0.0"
                            );
                        }
                    }
                }
            }
        }
    }

    /// `W` stepped by [`gemm_with`]'s fused product on `isa`, sequentially
    /// or forked wherever the product has two tiles or slabs to split.
    #[allow(clippy::too_many_arguments)]
    fn sgd_on(
        isa: Isa,
        forked: bool,
        alpha: f32,
        (a, ta): (&Mat, bool),
        (b, tb): (&Mat, bool),
        (lr, lambda): (f32, f32),
        w0: &Mat,
    ) -> Mat {
        let mut w = w0.clone();
        let (a, b, wv) = (a.view(), b.view(), &mut w.view_mut());
        let out = Epilogue::Sgd { lr, lambda };
        let (par, min_flops) = if forked {
            (Par::Rayon, 1)
        } else {
            (Par::Seq, MIN_FLOPS_PER_WORKER)
        };
        let blk = GemmBlocking {
            min_flops,
            ..BLOCKING
        };
        gemm_with(par, alpha, (a, ta), Operand::Mat(b, tb), out, wv, blk, isa);
        w
    }

    #[test]
    fn gemm_sgd_bitwise_identical_to_gemm_then_sgd_step_on_all_instantiations() {
        // The fused product gives the bits of `gemm` at `beta = 0` into a
        // gradient, then `sgd_step`, on every instantiation, sequentially
        // and forked by rows, by columns and by depth, for gradients of one
        // slab (the tile steps W), two (formed first) and one tile over two
        // slabs (stepped after the depth split's fold). C[0, 0]'s
        // accumulators underflow to -0.0, which the gradient holds as +0.0,
        // and W[0, 0] is -0.0, so `shrink * -0.0 - lr * g` shows g's sign.
        // The last row of op(A) holds an Inf and one weight is NaN.
        let mut rng = StdRng::seed_from_u64(48);
        let test = "gemm_sgd_bitwise_identical_to_gemm_then_sgd_step_on_all_instantiations";
        for isa in instantiations(test) {
            let (mr, nr) = isa.tile(usize::MAX);
            for (m, n) in [
                (3 * mr + 1, nr + 3),
                (mr + 1, 2 * nr + 3),
                (2 * TILE_ZMM_NARROW.0 + 1, 8),
                (8, 25),
                (isa.tile(7).0, 7),
            ] {
                for k in [1, KC, KC + 1] {
                    for (ta, tb) in TRANSPOSES {
                        let mut a = random_op(m, k, ta, &mut rng);
                        let mut b = random_op(k, n, tb, &mut rng);
                        for p in 0..k {
                            a.as_mut_slice()[if ta { p * m } else { p }] = -1e-30;
                            b.as_mut_slice()[if tb { p } else { p * n }] = 1e-30;
                        }
                        a.as_mut_slice()[if ta { m - 1 } else { (m - 1) * k }] = f32::INFINITY;
                        let mut w0 = random_mat(m, n, &mut rng);
                        w0.as_mut_slice()[0] = -0.0;
                        w0.as_mut_slice()[m * n - 1] = f32::NAN;
                        for alpha in [1.0, 1.0 / k as f32] {
                            for (lr, lambda) in [(0.3, 1e-3), (0.05, 0.0)] {
                                let zeros = Mat::zeros(m, n);
                                let g = product_on(
                                    isa,
                                    Par::Seq,
                                    alpha,
                                    (&a, ta),
                                    (&b, tb),
                                    0.0,
                                    &zeros,
                                );
                                let mut want = w0.clone();
                                fused::sgd_step(
                                    Par::Seq,
                                    lr,
                                    lambda,
                                    g.as_slice(),
                                    want.as_mut_slice(),
                                );
                                assert_eq!(want.get(0, 0).to_bits(), (-0.0f32).to_bits());
                                for forked in [false, true] {
                                    let w = sgd_on(
                                        isa,
                                        forked,
                                        alpha,
                                        (&a, ta),
                                        (&b, tb),
                                        (lr, lambda),
                                        &w0,
                                    );
                                    assert!(
                                        w.as_slice()
                                            .iter()
                                            .map(|x| x.to_bits())
                                            .eq(want.as_slice().iter().map(|x| x.to_bits())),
                                        "{isa:?} forked={forked} {m}x{n}x{k} ta={ta} tb={tb} \
                                         alpha={alpha} lr={lr} lambda={lambda}: not gemm + sgd_step"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn beta_zero_writes_c_once_on_every_path() {
        // At `beta = 0` the first slab of a part stores `0.0 + acc` over C
        // without reading it; under the depth split C is zeroed first. So
        // whatever C held (NaN, -0.0, garbage), every path gives the bits of
        // `beta = 1` over a C of +0.0 on the portable instantiation, where
        // step 1 is done by hand. Row 0 of op(A) and column 0 of op(B) are
        // tiny, so C[0, 0]'s accumulators underflow to -0.0, which must reach
        // C as +0.0. k spans one, two and three slabs.
        let mut rng = StdRng::seed_from_u64(43);
        for isa in instantiations("beta_zero_writes_c_once_on_every_path") {
            let (mr, nr) = isa.tile(usize::MAX);
            let narrow_mr = TILE_ZMM_NARROW.0;
            for (m, n) in [
                // tiled, with edges; forked by rows
                (3 * mr + 1, nr + 3),
                // forked by columns
                (mr + 1, 2 * nr + 3),
                // the narrow tile, A in place; forked by rows
                (2 * narrow_mr + 1, 8),
                // one row panel, B in place when untransposed; forked by
                // columns
                (8, 25),
                // one tile: forked, its slabs split
                (isa.tile(7).0, 7),
            ] {
                for k in [KC - 3, KC + 5, 2 * KC + 3] {
                    let depth_split =
                        (m, n) == (isa.tile(7).0, 7) && k > KC && rayon::current_num_threads() > 1;
                    for (ta, tb) in TRANSPOSES {
                        let mut a = random_op(m, k, ta, &mut rng);
                        let mut b = random_op(k, n, tb, &mut rng);
                        // op(A)[0, p] and op(B)[p, 0] as stored.
                        for p in 0..k {
                            a.as_mut_slice()[if ta { p * m } else { p }] = -1e-30;
                            b.as_mut_slice()[if tb { p } else { p * n }] = 1e-30;
                        }
                        for alpha in [1.0, 0.7] {
                            let zeros = Mat::zeros(m, n);
                            let want = product_on(
                                Isa::Portable,
                                Par::Seq,
                                alpha,
                                (&a, ta),
                                (&b, tb),
                                1.0,
                                &zeros,
                            );
                            assert_eq!(want.get(0, 0).to_bits(), 0, "C[0, 0] is not +0.0");
                            for fill in [f32::NAN, -0.0, 7.5] {
                                let mut c0 = random_mat(m, n, &mut rng);
                                c0.as_mut_slice()[..m * n / 2].fill(fill);
                                for (run, c) in [
                                    (
                                        "seq",
                                        product_on(
                                            isa,
                                            Par::Seq,
                                            alpha,
                                            (&a, ta),
                                            (&b, tb),
                                            0.0,
                                            &c0,
                                        ),
                                    ),
                                    (
                                        "forked",
                                        forked_on(isa, alpha, (&a, ta), (&b, tb), 0.0, &c0),
                                    ),
                                ] {
                                    assert!(
                                        c.as_slice()
                                            .iter()
                                            .map(|x| x.to_bits())
                                            .eq(want.as_slice().iter().map(|x| x.to_bits())),
                                        "{isa:?} {run} {m}x{n}x{k} ta={ta} tb={tb} \
                                         alpha={alpha} over {fill}: C was read"
                                    );
                                }
                                if depth_split {
                                    assert_slab_tiles_stored_raw(isa, alpha, (&a, ta), (&b, tb));
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Forks `alpha * op(A) * op(B)`, one tile deep several slabs, by depth
    /// over a calling-thread slab buffer poisoned with NaN, and checks that
    /// each slab stored its raw accumulators there (`-0.0 + acc` over the
    /// portable instantiation is `acc`): a scratch of its own, filled
    /// before the slabs add into it, leaves the buffer poisoned.
    fn assert_slab_tiles_stored_raw(
        isa: Isa,
        alpha: f32,
        (a, ta): (&Mat, bool),
        (b, tb): (&Mat, bool),
    ) {
        let ((m, k), (_, n)) = (
            Operand::Mat(a.view(), ta).shape(),
            Operand::Mat(b.view(), tb).shape(),
        );
        SLAB_TILES.set(vec![f32::NAN; 4 * k * m * n]);
        forked_on(isa, alpha, (a, ta), (b, tb), 0.0, &Mat::zeros(m, n));
        let tiles = SLAB_TILES.take();
        for (s, tile) in tiles[..k.div_ceil(KC) * m * n]
            .chunks_exact(m * n)
            .enumerate()
        {
            let depth = s * KC..k.min((s + 1) * KC);
            let a_slab = Mat::from_fn(m, depth.len(), |i, p| {
                let p = depth.start + p;
                if ta {
                    a.get(p, i)
                } else {
                    a.get(i, p)
                }
            });
            let b_slab = Mat::from_fn(depth.len(), n, |p, j| {
                let p = depth.start + p;
                if tb {
                    b.get(j, p)
                } else {
                    b.get(p, j)
                }
            });
            let neg_zeros = Mat::full(m, n, -0.0);
            let raw = product_on(
                Isa::Portable,
                Par::Seq,
                alpha,
                (&a_slab, false),
                (&b_slab, false),
                1.0,
                &neg_zeros,
            );
            assert!(
                tile.iter()
                    .map(|x| x.to_bits())
                    .eq(raw.as_slice().iter().map(|x| x.to_bits())),
                "{isa:?} {m}x{n}x{k} ta={ta} tb={tb}: slab {s} did not store its raw tile"
            );
        }
        SLAB_TILES.set(tiles);
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
                assert!(
                    c.as_slice()
                        .iter()
                        .map(|x| x.to_bits())
                        .eq(portable.as_slice().iter().map(|x| x.to_bits())),
                    "{isa:?} {run} changed bits at {m}x{n}x{k} ta={ta} tb={tb} \
                     alpha={alpha} beta={beta}"
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

    /// A batch of `b` images of `side x side` random pixels, poisoned at
    /// three corners (NaN in the first image, +Inf in the second, -Inf in the
    /// last; each corner pixel lies in one patch element only, so the filter
    /// gradient keeps finite columns) and holding `-0.0` at random.
    fn poisoned_images(b: usize, side: usize, rng: &mut StdRng) -> Vec<f32> {
        let mut x: Vec<f32> = (0..b * side * side)
            .map(|_| {
                if rng.gen_bool(0.05) {
                    -0.0
                } else {
                    rng.gen_range(-1.0..1.0)
                }
            })
            .collect();
        let img = side * side;
        x[0] = f32::NAN;
        x[(1 % b) * img + side - 1] = f32::INFINITY;
        x[(b - 1) * img + (side - 1) * side] = f32::NEG_INFINITY;
        x
    }

    /// The CNN's forward product `W · patches(x)ᵀ` and its filter gradient
    /// `δ · patches(x)`, B read from the images, on `isas`, sequential,
    /// threaded and forked at every split, against [`crate::conv::im2col`]
    /// then the same products of the formed matrix on the same
    /// instantiation, bit for bit, at each `(alpha, beta)`.
    fn pin_patch_products(
        isas: &[Isa],
        (k, side, b, c): (usize, usize, usize, usize),
        rng: &mut StdRng,
    ) {
        let x = poisoned_images(b, side, rng);
        let patches = Patches::new(&x, b, side, k);
        let (rows, kk) = patches.shape();
        let mut col = Mat::zeros(rows, kk);
        crate::conv::im2col(Par::Seq, &x, b, side, k, col.as_mut_slice());
        let w = random_mat(c, kk, rng);
        let delta = random_mat(c, rows, rng);
        // (A, B, formed B, C0) of the forward product and of the filter
        // gradient.
        let (act0, gw0) = (random_mat(c, rows, rng), random_mat(c, kk, rng));
        let products = [
            (
                w.view(),
                Operand::Patches(patches, true),
                Operand::Mat(col.view(), true),
                &act0,
            ),
            (
                delta.view(),
                Operand::Patches(patches, false),
                Operand::Mat(col.view(), false),
                &gw0,
            ),
        ];
        for (which, (a, b_op, formed_b, c0)) in products.into_iter().enumerate() {
            let a = (a, false);
            for (alpha, beta) in [(1.0, 0.0), (1.0, 1.0), (0.7, 0.0), (0.7, 1.0)] {
                for &isa in isas {
                    let want = run_on(isa, Par::Seq, BLOCKING, alpha, a, formed_b, beta, c0);
                    for (run, par, blk) in [
                        ("seq", Par::Seq, BLOCKING),
                        ("par", Par::Rayon, BLOCKING),
                        ("forked", Par::Rayon, FORKED),
                    ] {
                        let got = run_on(isa, par, blk, alpha, a, b_op, beta, c0);
                        assert!(
                            got.as_slice()
                                .iter()
                                .map(|v| v.to_bits())
                                .eq(want.as_slice().iter().map(|v| v.to_bits())),
                            "{isa:?} {run}: product {which} at k={k} side={side} b={b} c={c} \
                             alpha={alpha} beta={beta} is not im2col + gemm"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn patch_products_bitwise_identical_to_im2col_then_gemm_on_all_instantiations() {
        // The forward product reads B from the images:
        // `pixels_avx512`'s runs of output rows up to 12 channels (tiles of
        // 6, 8 and 12 rows; one or two runs to a vector at side 28, up to
        // four at sides 12 and 16), the pack at 13 and 17, and every pack
        // of the portable and AVX2 instantiations. The filter gradient reads
        // B too (a row panel's merged masked loads, the narrow tile's at
        // k = 3, or the pack past 12 channels). Forked, the forward
        // product splits by columns, at multiples of 32 pixels that fall
        // mid-image and, at k = 3, mid-output-row (side 28, batch 7: at
        // pixel 2 368, two into row 91 of 26-pixel rows); the batch of 50 at
        // side 28 and k = 5 splits the filter gradient's 113 slabs by depth.
        // At k = 17 the taps take two slabs, the second from the middle of
        // a filter row, and the 12 pixels of one tile split by depth.
        let isas = instantiations(
            "patch_products_bitwise_identical_to_im2col_then_gemm_on_all_instantiations",
        );
        let mut rng = StdRng::seed_from_u64(50);
        for k in [3, 5, 7] {
            for side in [12, 16, 28] {
                for b in [1, 7, 50] {
                    for c in [1, 6, 8, 12] {
                        pin_patch_products(&isas, (k, side, b, c), &mut rng);
                    }
                }
            }
        }
        for c in [13, 17, 40] {
            pin_patch_products(&isas, (5, 12, 3, c), &mut rng);
        }
        for c in [1, 6, 8, 13] {
            pin_patch_products(&isas, (17, 18, 3, c), &mut rng);
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
