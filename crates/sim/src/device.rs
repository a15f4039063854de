//! Machine models for the paper's evaluation platforms.
//!
//! All numbers are either public datasheet specs of the actual hardware
//! (core counts, clocks, vector widths, bandwidths, capacities) or
//! efficiency factors calibrated once against the paper's own headline
//! ratios (documented at each field). The calibration tests in
//! `crates/bench/src/experiments.rs` pin those ratios.

use crate::affinity::Affinity;
use serde::Serialize;

/// Hardware description of a modeled processor or coprocessor.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceSpec {
    /// Human-readable device name.
    pub name: String,
    /// Physical cores.
    pub cores: u32,
    /// Hardware threads per core.
    pub threads_per_core: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// f32 lanes of the vector unit (16 = 512-bit).
    pub simd_f32_lanes: u32,
    /// Peak f32 flops per lane per cycle (2.0 with FMA or dual mul/add
    /// pipes).
    pub flops_per_lane_cycle: f64,
    /// Sustained f32 flops per cycle for *scalar* code on one thread.
    /// In-order Phi cores sustain ~1; out-of-order Xeon cores ~2.
    pub scalar_flops_per_cycle: f64,
    /// Fraction of a core's vector issue rate available with only one
    /// resident thread (in-order cores cannot fill their pipeline alone:
    /// ~0.5 on the Phi, 1.0 on an out-of-order Xeon).
    pub single_thread_issue: f64,
    /// Aggregate memory bandwidth in GB/s.
    pub mem_bw_gbs: f64,
    /// Bandwidth one core can draw by itself in GB/s (a single thread
    /// cannot saturate GDDR5).
    pub per_core_bw_gbs: f64,
    /// Device memory capacity in bytes.
    pub mem_capacity_bytes: u64,
    /// Asymptotic fraction of vector peak the blocked GEMM sustains on
    /// large, well-shaped products.
    pub gemm_efficiency: f64,
    /// Matrix dimension at which GEMM efficiency is half its asymptote:
    /// `eff = gemm_efficiency * d / (d + gemm_halfsize)` with `d` the
    /// product's smallest dimension. Captures the paper's Fig. 9
    /// observation that small batches (skinny products) run far below
    /// peak, especially on the Phi.
    pub gemm_halfsize: f64,
    /// Fraction of vector peak streaming vectorized elementwise code
    /// sustains (usually irrelevant — those ops are bandwidth-bound).
    pub vec_efficiency: f64,
    /// Scaling efficiency when *scalar* (non-blocked, cache-unfriendly)
    /// code is spread across all cores: ring-bus and cache contention keep
    /// 60 in-order cores far from 60x.
    pub scalar_thread_scaling: f64,
    /// Fixed cost of one fork-join barrier, microseconds.
    pub barrier_base_us: f64,
    /// Additional barrier cost per log2(threads), microseconds.
    pub barrier_per_log2_thread_us: f64,
}

impl DeviceSpec {
    /// Intel Xeon Phi 5110P: 60 in-order cores x 4 threads @ 1.053 GHz,
    /// 512-bit VPU with FMA, 8 GB GDDR5 at 320 GB/s.
    ///
    /// `gemm_efficiency` and `gemm_halfsize` are calibrated so that the
    /// fully-optimized / baseline ratio of Table I lands near the paper's
    /// ~300x; MKL on the 5110P sustains far more on huge square SGEMM, but
    /// the paper's batch-shaped products plus its admittedly "relatively
    /// coarse" implementation measured ~300x overall, and these values
    /// reproduce that (see the calibration tests in the core crate).
    pub(crate) fn xeon_phi_5110p() -> DeviceSpec {
        DeviceSpec {
            name: "Xeon Phi 5110P".to_string(),
            cores: 60,
            threads_per_core: 4,
            clock_ghz: 1.053,
            simd_f32_lanes: 16,
            flops_per_lane_cycle: 2.0,
            // One thread on an in-order core cannot hide its own latencies
            // (the architecture needs 2+ threads/core to fill the
            // pipeline), so a single-threaded scalar loop sustains ~0.5
            // flops/cycle.
            scalar_flops_per_cycle: 0.5,
            single_thread_issue: 0.5,
            mem_bw_gbs: 320.0,
            per_core_bw_gbs: 7.0,
            mem_capacity_bytes: 8 * (1 << 30),
            gemm_efficiency: 0.22,
            gemm_halfsize: 600.0,
            vec_efficiency: 0.5,
            scalar_thread_scaling: 0.35,
            barrier_base_us: 10.0,
            barrier_per_log2_thread_us: 4.0,
        }
    }

    /// Intel Xeon E5620 (Westmere-EP): 4 out-of-order cores x 2 threads @
    /// 2.4 GHz, 128-bit SSE with separate mul and add pipes, 25.6 GB/s.
    ///
    /// `gemm_efficiency` is calibrated so the fully-optimized Phi lands
    /// 7–10x faster than the full socket (the abstract's claim); the small
    /// `gemm_halfsize` reflects that an out-of-order SSE core reaches its
    /// (much lower) peak on far smaller products than the Phi's VPU.
    pub(crate) fn xeon_e5620() -> DeviceSpec {
        DeviceSpec {
            name: "Xeon E5620".to_string(),
            cores: 4,
            threads_per_core: 2,
            clock_ghz: 2.4,
            simd_f32_lanes: 4,
            flops_per_lane_cycle: 2.0,
            scalar_flops_per_cycle: 2.0,
            single_thread_issue: 1.0,
            mem_bw_gbs: 25.6,
            per_core_bw_gbs: 10.0,
            mem_capacity_bytes: 48 * (1 << 30),
            gemm_efficiency: 0.45,
            gemm_halfsize: 64.0,
            vec_efficiency: 0.7,
            scalar_thread_scaling: 0.8,
            barrier_base_us: 0.5,
            barrier_per_log2_thread_us: 0.3,
        }
    }

    /// Peak f32 vector GF/s of the whole device.
    pub fn vector_peak_gflops(&self) -> f64 {
        self.cores as f64 * self.clock_ghz * self.simd_f32_lanes as f64 * self.flops_per_lane_cycle
    }
}

/// A device plus the software configuration an experiment runs it under.
///
/// The paper's Table I restricts the Phi to 30 of its 60 cores; Fig. 7–9
/// compare against a single host core; Fig. 10 runs Matlab on the host.
/// `Platform` captures those variations without duplicating specs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Platform {
    /// The hardware.
    pub spec: DeviceSpec,
    /// Cores the software is allowed to use (<= spec.cores).
    pub cores_used: u32,
    /// Multiplier applied to non-BLAS op time for interpreted runtimes
    /// (Matlab); 1.0 for native code.
    pub interpreter_overhead: f64,
    /// Interpreted runtimes execute their non-BLAS element loops on a
    /// single thread even when the BLAS underneath is threaded.
    pub nonblas_single_thread: bool,
    /// Hardware threads the software spawns; `None` uses every context of
    /// the allowed cores (the paper "adjust\[s\] the number of threads
    /// manually" — this is that knob).
    pub threads_requested: Option<u32>,
    /// How threads are pinned to cores (`KMP_AFFINITY`).
    pub affinity: Affinity,
    /// Display label used by the experiment harness.
    pub label: String,
}

impl Platform {
    /// Fully-available Xeon Phi 5110P (the paper's main platform).
    pub fn xeon_phi() -> Platform {
        let spec = DeviceSpec::xeon_phi_5110p();
        Platform {
            cores_used: spec.cores,
            spec,
            interpreter_overhead: 1.0,
            nonblas_single_thread: false,
            threads_requested: None,
            affinity: Affinity::Balanced,
            label: "Xeon Phi (60 cores)".to_string(),
        }
    }

    /// Xeon Phi restricted to `n` cores (Table I's right column uses 30).
    pub fn xeon_phi_cores(n: u32) -> Platform {
        let spec = DeviceSpec::xeon_phi_5110p();
        assert!(n >= 1 && n <= spec.cores, "core count out of range");
        Platform {
            cores_used: n,
            label: format!("Xeon Phi ({n} cores)"),
            spec,
            interpreter_overhead: 1.0,
            nonblas_single_thread: false,
            threads_requested: None,
            affinity: Affinity::Balanced,
        }
    }

    /// One core of the host Xeon E5620 (the sequential comparator of
    /// Figs. 7–9).
    pub fn cpu_single_core() -> Platform {
        Platform {
            spec: DeviceSpec::xeon_e5620(),
            cores_used: 1,
            interpreter_overhead: 1.0,
            nonblas_single_thread: false,
            threads_requested: None,
            affinity: Affinity::Balanced,
            label: "Xeon E5620 (1 core)".to_string(),
        }
    }

    /// The full host socket (the abstract's "expensive Intel Xeon CPU").
    pub fn cpu_socket() -> Platform {
        let spec = DeviceSpec::xeon_e5620();
        Platform {
            cores_used: spec.cores,
            spec,
            interpreter_overhead: 1.0,
            nonblas_single_thread: false,
            threads_requested: None,
            affinity: Affinity::Balanced,
            label: "Xeon E5620 (4 cores)".to_string(),
        }
    }

    /// Matlab R2012a on the host: native multithreaded BLAS underneath, but
    /// interpreted, single-threaded, temporary-materializing element loops.
    ///
    /// The 30x overhead factor is calibrated so the Phi / Matlab ratio of
    /// Fig. 10 lands near the paper's ~16x.
    pub fn matlab_host() -> Platform {
        let spec = DeviceSpec::xeon_e5620();
        Platform {
            cores_used: spec.cores,
            spec,
            interpreter_overhead: 30.0,
            nonblas_single_thread: true,
            threads_requested: None,
            affinity: Affinity::Balanced,
            label: "Matlab (host CPU)".to_string(),
        }
    }

    /// Hardware threads available to parallel regions.
    pub(crate) fn threads_used(&self) -> u32 {
        self.threads_requested
            .unwrap_or(self.cores_used * self.spec.threads_per_core)
            .clamp(1, self.cores_used * self.spec.threads_per_core)
    }

    /// Restricts the thread count and placement policy (the manual tuning
    /// knob of the paper's §VI).
    pub fn with_threads(mut self, threads: u32, affinity: Affinity) -> Platform {
        assert!(threads >= 1, "need at least one thread");
        self.threads_requested = Some(threads);
        self.affinity = affinity;
        self.label = format!("{} [{threads} threads, {affinity:?}]", self.label);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_peak_matches_datasheet() {
        let phi = DeviceSpec::xeon_phi_5110p();
        // 60 * 1.053 * 16 * 2 = 2021.8 GF/s f32 (~1.01 TF/s f64 — the
        // datasheet's "1 teraflops double precision").
        assert!((phi.vector_peak_gflops() - 2021.76).abs() < 1.0);
        assert_eq!(phi.mem_capacity_bytes, 8 << 30);
    }

    #[test]
    fn cpu_peak() {
        let cpu = DeviceSpec::xeon_e5620();
        assert!((cpu.vector_peak_gflops() - 76.8).abs() < 0.1);
    }

    #[test]
    fn platform_presets() {
        assert_eq!(Platform::xeon_phi().cores_used, 60);
        assert_eq!(Platform::xeon_phi_cores(30).cores_used, 30);
        assert_eq!(Platform::cpu_single_core().threads_used(), 2);
        assert_eq!(Platform::cpu_socket().threads_used(), 8);
        let m = Platform::matlab_host();
        assert!(m.interpreter_overhead > 1.0 && m.nonblas_single_thread);
    }

    #[test]
    #[should_panic(expected = "core count out of range")]
    fn phi_core_count_checked() {
        Platform::xeon_phi_cores(61);
    }

    #[test]
    fn phi_is_much_slower_scalar_than_cpu() {
        // The premise of the paper's 300x: one in-order Phi thread is weak.
        let phi = DeviceSpec::xeon_phi_5110p();
        let cpu = DeviceSpec::xeon_e5620();
        let scalar_gflops = |d: &DeviceSpec| d.clock_ghz * d.scalar_flops_per_cycle;
        assert!(scalar_gflops(&phi) < scalar_gflops(&cpu));
        // ...but the device-wide vector peak dwarfs the host socket.
        assert!(phi.vector_peak_gflops() > 20.0 * cpu.vector_peak_gflops());
    }
}
