//! Dense, cache-line-aligned `f32` linear-algebra containers for `micdnn`.
//!
//! This crate provides the storage layer used by every other crate in the
//! workspace: a row-major dense matrix ([`Mat`]) over a 64-byte-aligned
//! heap buffer, borrowed views ([`MatView`], [`MatViewMut`]), and
//! parameter-initialization helpers matching the conventions of the
//! reproduced paper (sigmoid networks initialized with the classic
//! `±4·sqrt(6/(fan_in+fan_out))` uniform range).
//!
//! Alignment matters here: the compute kernels in `micdnn-kernels` rely on
//! the autovectorizer producing 256/512-bit loads, and 64-byte alignment
//! keeps every matrix row-start from straddling cache lines for the common
//! dimension multiples used in the paper's workloads (all powers of two).

mod aligned;
mod init;
mod mat;
mod view;

pub use init::{autoencoder_init_range, GlorotSigmoid, Initializer, NormalInit};
pub use mat::Mat;
pub use view::{MatView, MatViewMut};

/// Errors produced by shape-checked matrix constructors and operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// The requested dimensions do not match the provided data length.
    DataLen {
        /// rows requested
        rows: usize,
        /// cols requested
        cols: usize,
        /// data length provided
        len: usize,
    },
    /// Two operands had incompatible dimensions.
    Mismatch {
        /// human-readable description of the operation
        op: &'static str,
        /// left-hand side shape
        lhs: (usize, usize),
        /// right-hand side shape
        rhs: (usize, usize),
    },
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::DataLen { rows, cols, len } => write!(
                f,
                "cannot shape {len} elements into a {rows}x{cols} matrix ({} required)",
                rows * cols
            ),
            ShapeError::Mismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
        }
    }
}

impl std::error::Error for ShapeError {}

/// Maximum absolute element-wise difference between two equal-length slices.
///
/// Panics if lengths differ. Returns `0.0` for empty slices.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_diff_basic() {
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
        assert_eq!(max_abs_diff(&[1.0, -3.0], &[0.5, -1.0]), 2.0);
    }

    #[test]
    fn shape_error_display() {
        let e = ShapeError::DataLen {
            rows: 2,
            cols: 3,
            len: 5,
        };
        assert!(e.to_string().contains("2x3"));
        let e = ShapeError::Mismatch {
            op: "gemm",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert!(e.to_string().contains("gemm"));
    }
}
