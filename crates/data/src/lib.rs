//! Synthetic dataset substrate for `micdnn`.
//!
//! The paper trains on "a large \[set\] of handwritten digit images and
//! natural images" (its refs \[27\], \[3\]), obtaining examples "by randomly
//! extracting patches of required sizes from these images". Neither corpus
//! ships with this reproduction, so this crate builds deterministic
//! synthetic equivalents with the same statistical role:
//!
//! * [`DigitGenerator`] — procedurally rasterized handwritten-style digits (stroke
//!   skeletons + random affine jitter + blur), binarizable for RBM training;
//! * [`PatchGenerator`] — natural-image-like patches (1/f-spectrum noise plus
//!   oriented Gabor structure), the classic input for sparse autoencoders;
//! * [`read_idx`] — reader for the IDX container format (MNIST's), so
//!   the real corpus can be used when available;
//! * [`Dataset`] — in-memory datasets, normalization to the sigmoid-friendly
//!   `[0.1, 0.9]` range, Bernoulli binarization, shuffling, mini-batch and
//!   chunk iteration, and adapters feeding `micdnn-sim`'s loading thread;
//! * [`ChunkGeometry`] — the one definition of how a dataset splits into chunks
//!   and each chunk into batches (Algorithm 1, lines 3–5).
//!
//! The paper itself argues this substitution is safe: "our algorithm should
//! have the same effect on real world data ... because the optimization
//! work is irrelevant to specific data type and data distribution" (§V.B.5).
//! Everything is seeded and reproducible.

mod dataset;
mod digits;
mod geometry;
mod idx;
mod patches;

pub use dataset::{Dataset, GeneratorSource, Normalization};
pub use digits::DigitGenerator;
pub use geometry::ChunkGeometry;
pub use idx::{read_idx, IdxData};
pub use patches::PatchGenerator;
