//! Cost descriptors for executed kernels.
//!
//! Every [`crate::Backend`] method returns an [`OpCost`] describing the
//! arithmetic and memory traffic it performed plus how it can be executed
//! (parallelizable? vectorizable? routed through the BLAS?). The
//! `micdnn-sim` crate prices these descriptors on a modeled device — that is
//! the entire coupling between "what the math is" and "what the coprocessor
//! would have charged for it", which keeps the performance model auditable.

/// Category of a kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Dense matrix-matrix product.
    Gemm,
    /// Streaming elementwise arithmetic (axpy, scale, sub, hadamard, ...).
    Elementwise,
    /// Elementwise transcendental (sigmoid: exp + divide per element).
    Transcendental,
    /// Reduction (column sums, norms, dots).
    Reduce,
    /// Random sampling (hash + compare per element).
    Sample,
    /// Bulk copy.
    Memcpy,
}

impl OpKind {
    /// Stable lowercase name, used as a trace category and aggregation key
    /// by the profiler.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Gemm => "gemm",
            OpKind::Elementwise => "elementwise",
            OpKind::Transcendental => "transcendental",
            OpKind::Reduce => "reduce",
            OpKind::Sample => "sample",
            OpKind::Memcpy => "memcpy",
        }
    }
}

/// Work and traffic performed by one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCost {
    /// Kernel category (drives per-element cost weights in the model).
    pub kind: OpKind,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Bytes read from memory (cold-cache estimate).
    pub bytes_read: u64,
    /// Bytes written to memory.
    pub bytes_written: u64,
    /// Fork-join parallel regions this op contributes when threaded
    /// (each one costs a barrier in the model — the synchronization expense
    /// the paper's "improved" step reduces by fusing loops).
    pub parallel_regions: u32,
    /// Whether the kernel's inner loop vectorizes on the device's VPU.
    pub vectorizable: bool,
    /// Whether the kernel was executed by the optimized BLAS path.
    pub blas: bool,
    /// For matrix products: the smallest of (m, n, k). BLAS efficiency
    /// collapses on skinny products (small batches), which is what the
    /// paper's Fig. 9 batch-size sweep measures; the cost model scales
    /// GEMM efficiency by this. Zero for non-GEMM ops.
    pub min_dim: u32,
    /// Human-readable op name, carried into trace events and profiler
    /// aggregation. Defaults to the constructor's kernel family; backends
    /// override it per fused kernel via [`OpCost::with_label`].
    pub label: &'static str,
}

const F32: u64 = std::mem::size_of::<f32>() as u64;

impl OpCost {
    /// Cost of `C[m x n] = alpha*op(A)*op(B) + beta*C` given inner depth `k`.
    pub fn gemm(m: usize, n: usize, k: usize, blas: bool) -> OpCost {
        let (m, n, k) = (m as u64, n as u64, k as u64);
        OpCost {
            kind: OpKind::Gemm,
            flops: 2 * m * n * k,
            bytes_read: (m * k + k * n + m * n) * F32,
            bytes_written: m * n * F32,
            parallel_regions: 1,
            vectorizable: blas,
            blas,
            label: "gemm",
            min_dim: m.min(n).min(k) as u32,
        }
    }

    /// Streaming elementwise op over `n` elements reading `reads` arrays and
    /// writing one, with `flops_per_elem` arithmetic ops per element.
    pub fn elementwise(n: usize, reads: u32, flops_per_elem: u32) -> OpCost {
        OpCost {
            kind: OpKind::Elementwise,
            flops: n as u64 * flops_per_elem as u64,
            bytes_read: n as u64 * reads as u64 * F32,
            bytes_written: n as u64 * F32,
            parallel_regions: 1,
            vectorizable: true,
            blas: false,
            label: "elementwise",
            min_dim: 0,
        }
    }

    /// Sigmoid over `n` elements; the exp+div pair is weighted as ~20 flops.
    pub fn sigmoid(n: usize) -> OpCost {
        OpCost {
            kind: OpKind::Transcendental,
            flops: n as u64 * 20,
            bytes_read: n as u64 * F32,
            bytes_written: n as u64 * F32,
            parallel_regions: 1,
            vectorizable: true,
            blas: false,
            label: "sigmoid",
            min_dim: 0,
        }
    }

    /// Reduction over `m x n` elements producing `n` outputs.
    pub(crate) fn reduce(m: usize, n: usize) -> OpCost {
        OpCost {
            kind: OpKind::Reduce,
            flops: (m as u64) * (n as u64),
            bytes_read: (m as u64) * (n as u64) * F32,
            bytes_written: n as u64 * F32,
            parallel_regions: 1,
            vectorizable: true,
            blas: false,
            label: "reduce",
            min_dim: 0,
        }
    }

    /// Bernoulli sampling of `n` elements (~10 integer+fp ops per element).
    pub(crate) fn sample(n: usize) -> OpCost {
        OpCost {
            kind: OpKind::Sample,
            flops: n as u64 * 10,
            bytes_read: n as u64 * F32,
            bytes_written: n as u64 * F32,
            parallel_regions: 1,
            vectorizable: true,
            blas: false,
            label: "sample",
            min_dim: 0,
        }
    }

    /// Bulk copy of `n` f32 elements.
    pub fn memcpy(n: usize) -> OpCost {
        OpCost {
            kind: OpKind::Memcpy,
            flops: 0,
            bytes_read: n as u64 * F32,
            bytes_written: n as u64 * F32,
            parallel_regions: 1,
            vectorizable: true,
            blas: false,
            label: "memcpy",
            min_dim: 0,
        }
    }

    /// Marks the op as scalar-only (inner loop cannot vectorize) — used by
    /// the naive kernels.
    pub fn scalar(mut self) -> OpCost {
        self.vectorizable = false;
        self
    }

    /// Renames the op (fused kernels report a name describing the whole
    /// fused loop, e.g. "bias+sigmoid").
    pub fn with_label(mut self, label: &'static str) -> OpCost {
        self.label = label;
        self
    }

    /// Merges another op executed *inside the same parallel region* (loop
    /// fusion): work adds up, barriers do not.
    pub(crate) fn fuse(mut self, other: OpCost) -> OpCost {
        self.flops += other.flops;
        // A fused loop reads its operands once; keep the larger stream and
        // add the extra operand traffic beyond the shared output sweep.
        self.bytes_read += other.bytes_read.saturating_sub(other.bytes_written);
        self.bytes_written = self.bytes_written.max(other.bytes_written);
        self.vectorizable &= other.vectorizable;
        self
    }

    /// Sum of read and written bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_cost_formula() {
        let c = OpCost::gemm(10, 20, 30, true);
        assert_eq!(c.flops, 2 * 10 * 20 * 30);
        assert_eq!(c.bytes_read, (300 + 600 + 200) * 4);
        assert_eq!(c.bytes_written, 800);
        assert!(c.blas && c.vectorizable);
        assert!(!OpCost::gemm(1, 1, 1, false).vectorizable);
    }

    #[test]
    fn elementwise_cost() {
        let c = OpCost::elementwise(100, 2, 3);
        assert_eq!(c.flops, 300);
        assert_eq!(c.bytes_read, 800);
        assert_eq!(c.bytes_written, 400);
        assert_eq!(c.total_bytes(), 1200);
    }

    #[test]
    fn fuse_keeps_single_barrier() {
        let a = OpCost::elementwise(1000, 1, 1);
        let b = OpCost::sigmoid(1000);
        let f = a.fuse(b);
        assert_eq!(f.parallel_regions, 1);
        assert_eq!(f.flops, a.flops + b.flops);
        assert!(f.vectorizable);
    }

    #[test]
    fn scalar_strips_vectorization() {
        assert!(!OpCost::sigmoid(10).scalar().vectorizable);
    }

    #[test]
    fn labels_and_kind_names() {
        assert_eq!(OpCost::gemm(2, 2, 2, true).label, "gemm");
        assert_eq!(OpCost::sigmoid(4).label, "sigmoid");
        assert_eq!(
            OpCost::sigmoid(4).with_label("bias+sigmoid").label,
            "bias+sigmoid"
        );
        assert_eq!(OpKind::Transcendental.name(), "transcendental");
        assert_eq!(OpKind::Gemm.name(), "gemm");
    }
}
