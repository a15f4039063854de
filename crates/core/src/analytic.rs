//! Workload estimates — model-only sweeps.
//!
//! The paper's evaluation runs workloads like "1 million 4096-dimensional
//! examples through a 1024×4096 autoencoder": executing that functionally
//! on CI hardware would take hours per data point. Every node of a step
//! graph declares the op costs it charges as a pure function of the backend
//! and the batch rows ([`crate::NodeSpec::ops`]), so a training step is
//! priced by building its graph and reading its declared stream
//! ([`crate::TaskGraph::declared_ops`]), without planning it, allocating its
//! workspace or running it. This module holds no op list of its own: it
//! prices whole training runs from the declared step over the trainer's own
//! chunk/batch split ([`micdnn_data::ChunkGeometry`]) and the stream's own
//! double-buffer accounting ([`micdnn_sim::OverlapClock`]).
//!
//! Each node's charged stream is checked against its declaration on its
//! first run under the verifier, so the figures priced here are the figures
//! an executed run would produce.

use crate::ae_graph::{ae_graph, AeUpdate};
use crate::cd_graph::build_cd_graph;
use crate::exec::OptLevel;
use micdnn_data::ChunkGeometry;
use micdnn_kernels::{Backend, OpCost};
use micdnn_sim::{CostModel, Link, OverlapClock, Platform};

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
    /// The op stream of one step's declared graph, built at the workload's
    /// batch, for each batch of `rows` rows (the full batch or the trailing
    /// one).
    fn step_ops(&self, backend: Backend) -> Box<dyn Fn(usize) -> Vec<OpCost>> {
        let (v, h, b) = (self.n_visible, self.n_hidden, self.batch);
        match self.algo {
            Algo::Autoencoder => {
                let g = ae_graph(v, h, b, AeUpdate::Sgd, false);
                Box::new(move |rows| g.declared_ops(&backend, rows))
            }
            Algo::Rbm => {
                let g = build_cd_graph(v, h, b, 1);
                Box::new(move |rows| g.declared_ops(&backend, rows))
            }
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

    // Per-batch compute of the declared step (full and trailing partial).
    let step_ops = workload.step_ops(backend);
    let price_batch = |rows: usize| -> f64 { model.price_all(step_ops(rows).iter(), parallel) };
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
        for algo in [Algo::Autoencoder, Algo::Rbm] {
            let w = Workload {
                algo,
                n_visible: 10,
                n_hidden: 5,
                batch: 8,
                ..workload()
            };
            assert_eq!(w.step_ops(be)(8).len(), 17, "{algo:?}");
        }
    }

    #[test]
    fn gemm_flops_dominate_large_batches() {
        let ops = ae_graph(1024, 4096, 1000, AeUpdate::Sgd, false)
            .declared_ops(&Backend::improved(), 1000);
        let total: u64 = ops.iter().map(|o| o.flops).sum();
        let gemm: u64 = ops
            .iter()
            .filter(|o| o.kind == micdnn_kernels::OpKind::Gemm)
            .map(|o| o.flops)
            .sum();
        assert!(gemm as f64 / total as f64 > 0.98, "gemm share too small");
    }

    #[test]
    fn paper_scale_step_is_priced_from_a_graph_never_planned() {
        // Table I's layer: 1024x4096 at batch 10 000. Its workspace would
        // hold hundreds of MB; pricing builds the graph and reads its
        // declarations only.
        let (v, h, b) = (1024, 4096, 10_000);
        let be = Backend::improved();
        let g = ae_graph(v, h, b, AeUpdate::Sgd, false);
        let ops = g.declared_ops(&be, b);
        assert!(g.planned.is_none(), "declared_ops planned the graph");
        let w = Workload {
            n_visible: v,
            n_hidden: h,
            examples: b,
            batch: b,
            chunk_rows: b,
            ..workload()
        };
        let model = CostModel::new(Platform::xeon_phi());
        let step = model.price_all(ops.iter(), be.par().is_parallel());
        let e = estimate(
            OptLevel::Improved,
            Platform::xeon_phi(),
            Link::pcie_gen2(),
            true,
            &w,
        );
        assert_eq!(e.compute_secs.to_bits(), step.to_bits());
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
