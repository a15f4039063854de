//! Analytic op streams and workload estimates — model-only sweeps.
//!
//! The paper's evaluation runs workloads like "1 million 4096-dimensional
//! examples through a 1024×4096 autoencoder": executing that functionally
//! on CI hardware would take hours per data point. Because every kernel's
//! cost descriptor is a pure function of its operand sizes (see
//! [`micdnn_kernels::Backend`]'s `*_cost` methods), the exact op stream of
//! a training step can be enumerated without executing it. This module does
//! that enumeration and prices whole training runs over the trainer's own
//! chunk/batch split ([`micdnn_data::ChunkGeometry`]) and the stream's own
//! double-buffer accounting ([`micdnn_sim::OverlapClock`]).
//!
//! Integration tests pin these streams to the ones recorded from real
//! execution (`ExecCtx::start_recording`), so the figures produced from
//! them are the figures an executed run would produce.

use crate::exec::OptLevel;
use micdnn_data::ChunkGeometry;
use micdnn_kernels::{Backend, OpCost};
use micdnn_sim::{CostModel, Link, OverlapClock, Platform};

/// The op stream of one [`crate::SparseAutoencoder::train_batch`] call
/// (cost+grad+update) on a `b x v` batch with hidden width `h`.
pub fn ae_batch_ops(v: usize, h: usize, b: usize, backend: Backend) -> Vec<OpCost> {
    vec![
        // forward
        backend.gemm_cost(b, h, v),       // a2 = x W1^T
        backend.bias_sigmoid_cost(b * h), // a2 = sigmoid(a2 + b1)
        backend.gemm_cost(b, v, h),       // a3 = a2 W2^T
        backend.bias_sigmoid_cost(b * v), // a3 = sigmoid(a3 + b2)
        // cost + sparsity statistics
        backend.reduce_cost(b, v), // reconstruction error
        backend.reduce_cost(b, h), // rho_hat
        // backward
        backend.delta_output_cost(b * v), // delta3
        backend.reduce_cost(b, v),        // gb2
        backend.gemm_cost(b, h, v),       // delta2 = delta3 W2
        backend.bias_deriv_cost(b * h),   // delta2 ⊙ sparsity ⊙ deriv
        // decoder gradient and update (W2's last reader has run); a batch
        // of one k-slab steps W2 in the gradient product's tiles
        backend.gemm_cost(v, h, b), // gw2 = delta3^T a2
        backend.sgd_cost(v * h),
        backend.sgd_cost(v),
        // encoder gradients and update
        backend.reduce_cost(b, h),  // gb1
        backend.gemm_cost(h, v, b), // gw1 = delta2^T x
        backend.sgd_cost(h * v),
        backend.sgd_cost(h),
    ]
}

/// The op stream of one [`crate::Rbm::cd_step`] call with CD-1 on a
/// `b x v` batch with hidden width `h`.
pub fn rbm_cd1_ops(v: usize, h: usize, b: usize, backend: Backend) -> Vec<OpCost> {
    vec![
        // positive phase
        backend.gemm_cost(b, h, v),       // h0 pre-activation
        backend.bias_sigmoid_cost(b * h), // h0 prob
        backend.sample_cost(b * h),       // h0 sample
        // gibbs step
        backend.gemm_cost(b, v, h),       // v1 pre-activation
        backend.bias_sigmoid_cost(b * v), // v1 prob
        backend.reduce_cost(b, v),        // reconstruction error
        backend.gemm_cost(b, h, v),       // h1 pre-activation
        backend.bias_sigmoid_cost(b * h), // h1 prob
        // statistics
        backend.gemm_cost(h, v, b), // positive stats
        backend.gemm_cost(h, v, b), // negative stats
        backend.reduce_cost(b, v),  // vis_pos
        backend.reduce_cost(b, v),  // vis_neg
        backend.reduce_cost(b, h),  // hid_pos
        backend.reduce_cost(b, h),  // hid_neg
        // updates
        backend.cd_update_cost(h * v),
        backend.cd_update_cost(v),
        backend.cd_update_cost(h),
    ]
}

/// Which of the two training algorithms a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Sparse autoencoder back-propagation.
    Autoencoder,
    /// RBM with CD-1.
    Rbm,
}

/// One experimental workload (an x-axis point of a paper figure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Training algorithm.
    pub algo: Algo,
    /// Visible / input width.
    pub n_visible: usize,
    /// Hidden width.
    pub n_hidden: usize,
    /// Total training examples (one pass).
    pub examples: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Rows per host→device chunk.
    pub chunk_rows: usize,
    /// Training passes over the data. Data is transferred once and stays
    /// resident on the device (the paper's Table I iterates 200 times over
    /// one resident 10 000-example batch); only the first pass pays
    /// transfers.
    pub passes: usize,
}

impl Workload {
    /// Op stream of one full-size batch.
    pub(crate) fn batch_ops(&self, backend: Backend) -> Vec<OpCost> {
        match self.algo {
            Algo::Autoencoder => ae_batch_ops(self.n_visible, self.n_hidden, self.batch, backend),
            Algo::Rbm => rbm_cd1_ops(self.n_visible, self.n_hidden, self.batch, backend),
        }
    }

    /// Bytes of one chunk.
    pub fn chunk_bytes(&self) -> u64 {
        (self.chunk_rows * self.n_visible * std::mem::size_of::<f32>()) as u64
    }
}

/// Predicted timing of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Seconds of kernel compute.
    pub compute_secs: f64,
    /// Seconds of host→device transfer (overlapped or not).
    pub transfer_secs: f64,
    /// Transfer seconds the compute actually waited for.
    pub stall_secs: f64,
    /// End-to-end simulated seconds.
    pub total_secs: f64,
}

/// Prices `workload` on `platform` at `level`: the trainer's chunk/batch
/// loop under the stream's double-buffer accounting.
pub fn estimate(
    level: OptLevel,
    platform: Platform,
    link: Link,
    double_buffered: bool,
    workload: &Workload,
) -> Estimate {
    let backend = level.backend();
    let model = CostModel::new(platform);
    let parallel = backend.par().is_parallel();

    // Per-batch compute, cached by batch size (full and trailing partial).
    let price_batch = |batch: usize| -> f64 {
        let ops = Workload { batch, ..*workload }.batch_ops(backend);
        model.price_all(ops.iter(), parallel)
    };
    let full_batch_cost = price_batch(workload.batch);
    let geometry = ChunkGeometry::new(workload.examples, workload.chunk_rows, workload.batch);

    // Compute time of a chunk with `rows` rows.
    let chunk_compute = |rows: usize| -> f64 {
        let (full, rem) = geometry.split_batches(rows);
        let mut t = full as f64 * full_batch_cost;
        if rem > 0 {
            t += price_batch(rem);
        }
        t
    };

    let mut clock = 0.0f64;
    let mut overlap = OverlapClock::new(double_buffered);
    let mut transfer_secs = 0.0;
    let mut stall_secs = 0.0;
    let mut compute_secs = 0.0;
    for rows in geometry.chunk_sizes() {
        let t = link.transfer_time((rows * workload.n_visible * std::mem::size_of::<f32>()) as u64);
        transfer_secs += t;
        stall_secs += overlap.admit_f64(&mut clock, t).stall;
        let c = chunk_compute(rows);
        compute_secs += c;
        clock += c;
    }

    // Subsequent passes run on resident data: pure compute, no transfers.
    assert!(workload.passes >= 1, "need at least one pass");
    if workload.passes > 1 {
        let one_pass_compute = compute_secs;
        let extra = (workload.passes - 1) as f64 * one_pass_compute;
        compute_secs += extra;
        clock += extra;
    }

    Estimate {
        compute_secs,
        transfer_secs,
        stall_secs,
        total_secs: clock,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> Workload {
        Workload {
            algo: Algo::Autoencoder,
            n_visible: 64,
            n_hidden: 32,
            examples: 1000,
            batch: 100,
            chunk_rows: 500,
            passes: 1,
        }
    }

    #[test]
    fn op_streams_have_expected_length() {
        let be = Backend::improved();
        assert_eq!(ae_batch_ops(10, 5, 8, be).len(), 17);
        assert_eq!(rbm_cd1_ops(10, 5, 8, be).len(), 17);
    }

    #[test]
    fn gemm_flops_dominate_large_batches() {
        let ops = ae_batch_ops(1024, 4096, 1000, Backend::improved());
        let total: u64 = ops.iter().map(|o| o.flops).sum();
        let gemm: u64 = ops
            .iter()
            .filter(|o| o.kind == micdnn_kernels::OpKind::Gemm)
            .map(|o| o.flops)
            .sum();
        assert!(gemm as f64 / total as f64 > 0.98, "gemm share too small");
    }

    #[test]
    fn estimate_monotone_in_examples() {
        let lvl = OptLevel::Improved;
        let mut w = workload();
        let t1 = estimate(lvl, Platform::xeon_phi(), Link::pcie_gen2(), true, &w).total_secs;
        w.examples *= 4;
        let t4 = estimate(lvl, Platform::xeon_phi(), Link::pcie_gen2(), true, &w).total_secs;
        assert!(t4 > 3.0 * t1 && t4 < 5.0 * t1, "t1={t1} t4={t4}");
    }

    #[test]
    fn double_buffering_reduces_total() {
        let w = Workload {
            chunk_rows: 100,
            ..workload()
        };
        let link = Link::paper_measured();
        let with = estimate(OptLevel::Improved, Platform::xeon_phi(), link, true, &w);
        let without = estimate(OptLevel::Improved, Platform::xeon_phi(), link, false, &w);
        assert!(with.total_secs <= without.total_secs);
        assert!((without.stall_secs - without.transfer_secs).abs() < 1e-12);
    }

    #[test]
    fn ladder_is_monotone() {
        let w = workload();
        let mut last = f64::INFINITY;
        for lvl in OptLevel::ladder() {
            let t = estimate(lvl, Platform::xeon_phi(), Link::pcie_gen2(), true, &w).compute_secs;
            assert!(t < last, "{lvl:?} not faster than previous: {t} vs {last}");
            last = t;
        }
    }

    #[test]
    fn resident_passes_multiply_compute_not_transfer() {
        let mut w = workload();
        let e1 = estimate(
            OptLevel::Improved,
            Platform::xeon_phi(),
            Link::paper_measured(),
            true,
            &w,
        );
        w.passes = 5;
        let e5 = estimate(
            OptLevel::Improved,
            Platform::xeon_phi(),
            Link::paper_measured(),
            true,
            &w,
        );
        assert_eq!(e1.transfer_secs, e5.transfer_secs);
        assert!((e5.compute_secs - 5.0 * e1.compute_secs).abs() < 1e-12);
    }

    #[test]
    fn partial_chunks_and_batches_are_counted() {
        let w = Workload {
            algo: Algo::Rbm,
            n_visible: 10,
            n_hidden: 5,
            examples: 157, // 1 chunk of 100 + 57; batches of 25 + remainders
            batch: 25,
            chunk_rows: 100,
            passes: 1,
        };
        let e = estimate(
            OptLevel::Improved,
            Platform::xeon_phi(),
            Link::pcie_gen2(),
            true,
            &w,
        );
        assert!(e.compute_secs > 0.0 && e.total_secs >= e.compute_secs);
    }
}
