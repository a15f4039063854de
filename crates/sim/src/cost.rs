//! Roofline pricing of kernel invocations on a modeled platform.
//!
//! For every [`OpCost`] the price is
//!
//! ```text
//! t = max(flops / F_eff, bytes / B_eff) + regions * t_barrier(threads)
//! ```
//!
//! where `F_eff` depends on whether the op vectorizes and how well it
//! threads, `B_eff` on how many cores participate (one core cannot saturate
//! GDDR5), and the barrier term charges each fork-join region — the cost
//! the paper's loop-fusion step ("improved OpenMP+MKL") removes. Ops not
//! routed through the BLAS additionally pay the platform's interpreter
//! overhead (Matlab).

use crate::device::Platform;
use micdnn_kernels::{OpCost, OpKind};
use serde::Serialize;

/// Prices [`OpCost`]s on a [`Platform`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CostModel {
    platform: Platform,
}

impl CostModel {
    /// A cost model for the given platform.
    pub fn new(platform: Platform) -> Self {
        CostModel { platform }
    }

    /// The platform being priced.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Simulated seconds for one kernel invocation.
    ///
    /// `parallel` states whether the executing backend forked across
    /// threads (OpenMP on) — sequential backends use one core no matter
    /// how many the platform has.
    pub fn price(&self, op: &OpCost, parallel: bool) -> f64 {
        let p = &self.platform;
        let spec = &p.spec;

        // How threads are placed. Sequential backends (and interpreted
        // non-BLAS loops) use a single thread regardless of the platform.
        let interpreted_loop = !op.blas && p.nonblas_single_thread;
        let threaded = (parallel && !interpreted_loop) || (op.blas && p.nonblas_single_thread);
        let (threads, placement) = if threaded {
            let threads = p.threads_used();
            (
                threads,
                p.affinity
                    .place(threads, p.cores_used.max(1), spec.threads_per_core),
            )
        } else {
            (1, p.affinity.place(1, 1, spec.threads_per_core))
        };
        let cores = placement.cores_engaged.max(1) as f64;
        // An in-order core with a single resident thread cannot fill its
        // vector pipeline (this is why the Phi wants 2+ threads/core).
        let issue = if threaded {
            p.affinity
                .issue_efficiency(placement, spec.single_thread_issue)
        } else {
            spec.single_thread_issue
        };

        // Effective compute rate in GF/s.
        let per_core_vec = spec.clock_ghz * spec.simd_f32_lanes as f64 * spec.flops_per_lane_cycle;
        let gflops = if op.vectorizable {
            let eff = match op.kind {
                OpKind::Gemm => {
                    // Skinny products sustain a lower fraction of peak
                    // (paper Fig. 9: larger batches train faster per
                    // example).
                    let d = op.min_dim.max(1) as f64;
                    spec.gemm_efficiency * d / (d + spec.gemm_halfsize)
                }
                _ => spec.vec_efficiency,
            };
            cores * issue * per_core_vec * eff
        } else {
            let scaling = if cores > 1.0 {
                cores * spec.scalar_thread_scaling
            } else {
                1.0
            };
            spec.clock_ghz * spec.scalar_flops_per_cycle * scaling
        };

        // Effective memory bandwidth in GB/s.
        let bw = (cores * spec.per_core_bw_gbs).min(spec.mem_bw_gbs);

        let t_compute = op.flops as f64 / (gflops * 1e9);
        let t_mem = op.total_bytes() as f64 / (bw * 1e9);
        let mut t = t_compute.max(t_mem);

        // Fork-join barriers: only paid when the op actually forked.
        if threaded && threads > 1 {
            let barrier_us = spec.barrier_base_us
                + spec.barrier_per_log2_thread_us * (threads.max(2) as f64).log2();
            t += op.parallel_regions as f64 * barrier_us * 1e-6;
        }

        // Interpreter overhead on everything outside the native BLAS.
        if !op.blas {
            t *= p.interpreter_overhead;
        }
        t
    }

    /// Price a whole sequence of ops (sum of [`CostModel::price`]).
    pub fn price_all<'a>(&self, ops: impl IntoIterator<Item = &'a OpCost>, parallel: bool) -> f64 {
        ops.into_iter().map(|op| self.price(op, parallel)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Platform;

    fn phi() -> CostModel {
        CostModel::new(Platform::xeon_phi())
    }

    fn approx_ratio(a: f64, b: f64) -> f64 {
        a / b
    }

    #[test]
    fn blas_gemm_much_faster_than_scalar_gemm() {
        let m = phi();
        let fast = OpCost::gemm(1000, 4096, 1024, true);
        let slow = OpCost::gemm(1000, 4096, 1024, false);
        let t_fast = m.price(&fast, true);
        let t_slow_seq = m.price(&slow, false);
        let ratio = approx_ratio(t_slow_seq, t_fast);
        // Baseline (sequential scalar) vs fully-optimized gemm: hundreds x.
        assert!(ratio > 100.0, "ratio {ratio}");
    }

    #[test]
    fn more_cores_never_slower() {
        let op = OpCost::gemm(512, 512, 512, true);
        let mut last = f64::INFINITY;
        for cores in [1u32, 2, 8, 15, 30, 45, 60] {
            let m = CostModel::new(Platform::xeon_phi_cores(cores));
            let t = m.price(&op, true);
            assert!(t <= last * 1.0000001, "cores={cores}: {t} > {last}");
            last = t;
        }
    }

    #[test]
    fn sequential_backend_ignores_extra_cores() {
        let op = OpCost::elementwise(1_000_000, 2, 2);
        let m60 = phi();
        let m30 = CostModel::new(Platform::xeon_phi_cores(30));
        assert_eq!(m60.price(&op, false), m30.price(&op, false));
    }

    #[test]
    fn barriers_charged_per_region() {
        let m = phi();
        let mut one = OpCost::elementwise(1000, 1, 1);
        let mut four = one;
        one.parallel_regions = 1;
        four.parallel_regions = 4;
        let d = m.price(&four, true) - m.price(&one, true);
        // 3 extra barriers at 240 threads: 3 * (10 + 4*log2(240)) us.
        let barrier = (10.0 + 4.0 * (240.0f64).log2()) * 1e-6;
        assert!(
            (d - 3.0 * barrier).abs() < 1e-9,
            "delta {d} vs {}",
            3.0 * barrier
        );
        // Sequential execution pays no barrier.
        assert_eq!(m.price(&one, false), m.price(&four, false));
    }

    #[test]
    fn elementwise_is_bandwidth_bound_on_phi() {
        let m = phi();
        let op = OpCost::elementwise(10_000_000, 2, 1);
        let t = m.price(&op, true);
        let bytes = op.total_bytes() as f64;
        let t_bw = bytes / (320.0e9);
        assert!((t - t_bw).abs() / t_bw < 0.5, "expected ~bandwidth bound");
    }

    #[test]
    fn matlab_overhead_hits_nonblas_only() {
        let native = CostModel::new(Platform::cpu_socket());
        let matlab = CostModel::new(Platform::matlab_host());
        let gemm = OpCost::gemm(1000, 4096, 1024, true);
        assert!((matlab.price(&gemm, true) - native.price(&gemm, true)).abs() < 1e-12);
        let ew = OpCost::elementwise(4_096_000, 2, 1);
        let ratio = matlab.price(&ew, true) / native.price(&ew, true);
        // single-threaded (4 cores worth of bw lost) * 30x interpreter.
        assert!(ratio > 20.0, "ratio {ratio}");
    }

    #[test]
    fn price_all_sums() {
        let m = phi();
        let ops = [OpCost::sigmoid(1000), OpCost::elementwise(1000, 1, 1)];
        let total = m.price_all(ops.iter(), true);
        let sum = m.price(&ops[0], true) + m.price(&ops[1], true);
        assert!((total - sum).abs() < 1e-15);
    }

    #[test]
    fn memcpy_priced_by_bandwidth() {
        let m = phi();
        let op = OpCost::memcpy(80_000_000); // 320 MB read + 320 MB write
        let t = m.price(&op, true);
        assert!((t - 0.64 / 320.0).abs() / t < 0.1, "t={t}");
    }
}
