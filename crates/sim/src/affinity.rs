//! Thread-placement (affinity) modeling.
//!
//! The paper notes that "for now, we need to adjust the number of threads
//! manually" and that a balance must be found "between parallelism and
//! synchronization" (§VI). On the real Xeon Phi that adjustment was made
//! with `KMP_AFFINITY`/`OMP_NUM_THREADS`: how many threads run and how
//! they are placed onto the 60 cores changes both how many cores work and
//! how well each core's pipeline is fed — an in-order Phi core needs at
//! least two resident threads to issue back-to-back vector instructions.
//!
//! This module models the three classic placements so the thread-count
//! sweep the paper did by hand is an experiment here.

use serde::Serialize;

/// Thread placement policy (the `KMP_AFFINITY` types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Affinity {
    /// Fill each core with its full complement of threads before using the
    /// next core (`compact`): fewest cores engaged, best cache sharing.
    Compact,
    /// One thread per core before any core gets a second (`scatter`):
    /// most cores engaged, each possibly under-filled.
    Scatter,
    /// Spread evenly so all engaged cores hold the same count
    /// (`balanced`, the Phi-specific default recommendation).
    Balanced,
}

/// Resolved placement of `threads` onto a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Cores with at least one thread.
    pub cores_engaged: u32,
    /// Smallest thread count on any engaged core.
    pub min_threads_per_core: u32,
}

impl Affinity {
    /// Places `threads` hardware threads onto `cores` cores with
    /// `threads_per_core` contexts each.
    pub(crate) fn place(self, threads: u32, cores: u32, threads_per_core: u32) -> Placement {
        assert!(cores > 0 && threads_per_core > 0, "degenerate device");
        let threads = threads.clamp(1, cores * threads_per_core);
        match self {
            Affinity::Compact => {
                let engaged = threads.div_ceil(threads_per_core);
                let full = threads / threads_per_core;
                let min = if full == engaged {
                    threads_per_core
                } else {
                    threads - full * threads_per_core
                };
                Placement {
                    cores_engaged: engaged,
                    min_threads_per_core: min.max(1),
                }
            }
            Affinity::Scatter | Affinity::Balanced => {
                let engaged = threads.min(cores);
                Placement {
                    cores_engaged: engaged,
                    min_threads_per_core: (threads / engaged).max(1),
                }
            }
        }
    }

    /// Issue efficiency of each engaged core given its resident threads:
    /// an in-order core with a single thread cannot fill its pipeline.
    ///
    /// `single_thread_issue` is the device's one-thread issue fraction
    /// (≈0.5 on the Phi, 1.0 on an out-of-order Xeon).
    pub(crate) fn issue_efficiency(self, placement: Placement, single_thread_issue: f64) -> f64 {
        if placement.min_threads_per_core >= 2 {
            1.0
        } else {
            single_thread_issue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_fills_cores_first() {
        let p = Affinity::Compact.place(8, 60, 4);
        assert_eq!(p.cores_engaged, 2);
        assert_eq!(p.min_threads_per_core, 4);
        let p = Affinity::Compact.place(9, 60, 4);
        assert_eq!(p.cores_engaged, 3);
        assert_eq!(p.min_threads_per_core, 1);
    }

    #[test]
    fn scatter_spreads_across_cores_first() {
        let p = Affinity::Scatter.place(8, 60, 4);
        assert_eq!(p.cores_engaged, 8);
        assert_eq!(p.min_threads_per_core, 1);
        let p = Affinity::Scatter.place(120, 60, 4);
        assert_eq!(p.cores_engaged, 60);
        assert_eq!(p.min_threads_per_core, 2);
    }

    #[test]
    fn all_policies_agree_when_saturated() {
        for policy in [Affinity::Compact, Affinity::Scatter, Affinity::Balanced] {
            let p = policy.place(240, 60, 4);
            assert_eq!(p.cores_engaged, 60, "{policy:?}");
            assert_eq!(p.min_threads_per_core, 4, "{policy:?}");
        }
    }

    #[test]
    fn thread_counts_clamped() {
        let p = Affinity::Scatter.place(0, 60, 4);
        assert_eq!(p.cores_engaged, 1);
        let p = Affinity::Compact.place(10_000, 60, 4);
        assert_eq!(p.cores_engaged, 60);
    }

    #[test]
    fn single_thread_per_core_pays_issue_penalty() {
        let p = Affinity::Scatter.place(60, 60, 4);
        assert_eq!(p.min_threads_per_core, 1);
        assert_eq!(Affinity::Scatter.issue_efficiency(p, 0.5), 0.5);
        let p2 = Affinity::Scatter.place(120, 60, 4);
        assert_eq!(Affinity::Scatter.issue_efficiency(p2, 0.5), 1.0);
        // Out-of-order hosts do not care.
        assert_eq!(Affinity::Scatter.issue_efficiency(p, 1.0), 1.0);
    }
}
