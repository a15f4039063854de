//! Compute kernels for `micdnn` at the paper's four optimization levels.
//!
//! The reproduced paper (Jin et al., IPDPSW 2014) builds its speedups from a
//! ladder of optimizations on the Xeon Phi:
//!
//! 1. **Baseline** — sequential scalar code, no MKL ([`naive`]);
//! 2. **+OpenMP** — loops parallelized across cores ([`Par::Rayon`] with the
//!    scalar kernels);
//! 3. **+MKL** — the heavy matrix products routed to an optimized BLAS
//!    ([`gemm()`], our blocked/packed/vectorized SGEMM);
//! 4. **improved** — loop fusion to coarsen granularity and cut
//!    synchronization ([`Backend::improved`]).
//!
//! This crate supplies all four rungs plus the reductions, sampling and
//! elementwise math the two training algorithms need, behind the [`Backend`]
//! type. Every kernel is deterministic for a given input and backend
//! (sampling uses a counter-based RNG, reductions use fixed chunking), so a
//! given backend produces bit-identical results at any thread count, and
//! the different rungs agree to floating-point reassociation tolerance —
//! they differ in *speed*, which is exactly the paper's framing.

mod backend;
pub mod conv;
mod fused;
mod gemm;
mod isa;
pub mod naive;
mod ops;
mod reduce;
pub mod rng;
mod vecops;

pub use backend::Backend;
pub use fused::kl_sparsity;
pub use gemm::{gemm, gemm_op, gemm_sgd, Operand, GEMM_KC};
pub use ops::{OpCost, OpKind};
pub use vecops::sum_sq;

/// Execution strategy for a kernel: sequential or data-parallel via rayon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Par {
    /// Run on the calling thread only.
    Seq,
    /// Fork-join across the global rayon pool.
    Rayon,
}

impl Par {
    /// `true` for [`Par::Rayon`].
    #[inline]
    pub fn is_parallel(self) -> bool {
        matches!(self, Par::Rayon)
    }
}

/// Minimum number of elements before an elementwise kernel bothers forking;
/// below this, synchronization costs more than it saves (the same
/// granularity trade-off §IV.B of the paper discusses for small loop bodies).
pub(crate) const PAR_THRESHOLD: usize = 16 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_flags() {
        assert!(Par::Rayon.is_parallel());
        assert!(!Par::Seq.is_parallel());
    }
}
