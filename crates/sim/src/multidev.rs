//! N-coprocessor device set: the scale-out substrate.
//!
//! The paper trains on a single Xeon Phi; the roadmap's north star is
//! scale-out. [`DeviceSet`] models N coprocessors, each with its own
//! simulated clock, PCIe link and memory arena, plus a gradient
//! synchronization cost model ([`SyncModel`]): a bandwidth-optimal ring
//! allreduce over the link model, with a host parameter-server fallback
//! (every device ships its gradient up and the merged result back down).
//!
//! Like the rest of this crate the set only *prices* the topology — the
//! math runs in `micdnn-kernels` on the host, sharded by
//! `micdnn::multidev`, and every timing claim is derived from these
//! formulas rather than measured on hardware we do not have.

use crate::clock::SimClock;
use crate::link::Link;
use serde::Serialize;

/// How sharded gradients are merged across devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SyncModel {
    /// Bandwidth-optimal ring allreduce: each device sends `2(N-1)/N` of
    /// the payload over its link, paying `2(N-1)` hop latencies.
    RingAllReduce,
    /// Host parameter server: every device uploads its gradient and
    /// downloads the merged result through the (serialized) host link —
    /// `2N` full transfers.
    ParameterServer,
}

/// One modeled coprocessor in a [`DeviceSet`].
#[derive(Debug, Clone)]
pub(crate) struct DeviceNode {
    /// The device's own simulated clock.
    clock: SimClock,
    /// Its PCIe link to the host.
    link: Link,
    online: bool,
}

/// N coprocessors with a shared gradient-sync cost model.
///
/// Devices can be marked offline (the chaos tests drop one mid-leg); cost
/// formulas then price the surviving ring.
#[derive(Debug, Clone)]
pub struct DeviceSet {
    devices: Vec<DeviceNode>,
    sync: SyncModel,
    compute_secs: f64,
    sync_secs: f64,
}

impl DeviceSet {
    /// A set of `n` identical devices, each with its own clock and its own
    /// clone of `link`.
    pub fn new(n: usize, link: Link, sync: SyncModel) -> Self {
        assert!(n >= 1, "a device set needs at least one device");
        DeviceSet {
            devices: (0..n)
                .map(|_| DeviceNode {
                    clock: SimClock::new(),
                    link,
                    online: true,
                })
                .collect(),
            sync,
            compute_secs: 0.0,
            sync_secs: 0.0,
        }
    }

    /// Number of devices (online or not).
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// `true` when the set holds no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Number of devices still online.
    pub fn online_count(&self) -> usize {
        self.devices.iter().filter(|d| d.online).count()
    }

    /// Whether device `i` is online.
    pub fn is_online(&self, i: usize) -> bool {
        self.devices[i].online
    }

    /// Takes device `i` offline (chaos: `device.oom`). At least one device
    /// must survive.
    pub fn mark_offline(&mut self, i: usize) {
        self.devices[i].online = false;
        assert!(self.online_count() >= 1, "device set lost its last device");
    }

    /// Seconds to allreduce `bytes` of gradient across the online devices.
    ///
    /// Zero for a single (surviving) device — there is nothing to merge
    /// with. The ring moves `2(N-1)/N` of the payload per device at the
    /// link's effective bandwidth plus `2(N-1)` hop latencies; the
    /// parameter server serializes `2N` full host transfers.
    pub fn allreduce_time(&self, bytes: u64) -> f64 {
        let n = self.online_count() as f64;
        if n <= 1.0 {
            return 0.0;
        }
        let link = &self.devices[0].link;
        match self.sync {
            SyncModel::RingAllReduce => {
                let wire = 2.0 * (n - 1.0) / n * bytes as f64 / (link.effective_gbs() * 1e9);
                wire + 2.0 * (n - 1.0) * link.latency_s
            }
            SyncModel::ParameterServer => 2.0 * n * link.transfer_time(bytes),
        }
    }

    /// Accounts one training step: the slowest device computed for
    /// `max_busy` seconds, then everyone synchronized for `sync` seconds.
    /// Per-device clocks advance to the step barrier.
    pub fn record_step(&mut self, max_busy: f64, sync: f64) {
        self.compute_secs += max_busy;
        self.sync_secs += sync;
        for d in &mut self.devices {
            if d.online {
                d.clock.advance(max_busy + sync);
            }
        }
    }

    /// Total seconds the slowest device spent computing, across steps.
    pub fn compute_secs(&self) -> f64 {
        self.compute_secs
    }

    /// Total seconds spent in gradient synchronization.
    pub fn sync_secs(&self) -> f64 {
        self.sync_secs
    }

    /// Fraction of modeled step time spent synchronizing.
    pub fn sync_fraction(&self) -> f64 {
        let total = self.compute_secs + self.sync_secs;
        if total > 0.0 {
            self.sync_secs / total
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(n: usize, sync: SyncModel) -> DeviceSet {
        DeviceSet::new(n, Link::pcie_gen2(), sync)
    }

    #[test]
    fn single_device_pays_no_sync() {
        let s = set(1, SyncModel::RingAllReduce);
        assert_eq!(s.allreduce_time(1 << 20), 0.0);
        let s = set(1, SyncModel::ParameterServer);
        assert_eq!(s.allreduce_time(1 << 20), 0.0);
    }

    #[test]
    fn ring_beats_parameter_server_at_scale() {
        let bytes = 64 << 20;
        for n in [2, 4, 8] {
            let ring = set(n, SyncModel::RingAllReduce).allreduce_time(bytes);
            let ps = set(n, SyncModel::ParameterServer).allreduce_time(bytes);
            assert!(ring < ps, "n={n}: ring {ring} >= ps {ps}");
        }
    }

    #[test]
    fn ring_cost_saturates_with_n() {
        // The ring's wire term approaches 2x the payload as N grows, so
        // doubling N from 4 to 8 must cost less than doubling from 1 to 2.
        let bytes = 64 << 20;
        let t2 = set(2, SyncModel::RingAllReduce).allreduce_time(bytes);
        let t4 = set(4, SyncModel::RingAllReduce).allreduce_time(bytes);
        let t8 = set(8, SyncModel::RingAllReduce).allreduce_time(bytes);
        assert!(t4 > t2 && t8 > t4, "monotone in n");
        assert!(t8 - t4 < t4 - t2, "marginal cost shrinks");
    }

    #[test]
    fn offline_device_shrinks_the_ring() {
        let mut s = set(4, SyncModel::RingAllReduce);
        let before = s.allreduce_time(1 << 20);
        s.mark_offline(2);
        assert_eq!(s.online_count(), 3);
        assert!(!s.is_online(2) && s.is_online(0));
        assert!(s.allreduce_time(1 << 20) < before);
    }

    #[test]
    #[should_panic(expected = "lost its last device")]
    fn last_device_cannot_go_offline() {
        let mut s = set(1, SyncModel::RingAllReduce);
        s.mark_offline(0);
    }

    #[test]
    fn sync_fraction_is_zero_not_nan_before_any_step() {
        // 0/0 on a freshly built set must report 0.0, never NaN — this
        // value flows straight into `BENCH_multidev.json`.
        for n in [1, 2, 8] {
            for sync in [SyncModel::RingAllReduce, SyncModel::ParameterServer] {
                let s = set(n, sync);
                let f = s.sync_fraction();
                assert!(f.is_finite(), "n={n} {sync:?}: sync_fraction {f}");
                assert_eq!(f, 0.0, "n={n} {sync:?}");
            }
        }
        // Compute-only accounting (single device pays no sync) stays 0.0.
        let mut s = set(1, SyncModel::RingAllReduce);
        s.record_step(2.5, 0.0);
        assert_eq!(s.sync_fraction(), 0.0);
        assert!(s.sync_fraction().is_finite());
    }

    #[test]
    fn step_accounting_and_sync_fraction() {
        let mut s = set(2, SyncModel::RingAllReduce);
        assert_eq!(s.sync_fraction(), 0.0);
        s.record_step(3.0, 1.0);
        s.record_step(3.0, 1.0);
        assert!((s.compute_secs() - 6.0).abs() < 1e-12);
        assert!((s.sync_secs() - 2.0).abs() < 1e-12);
        assert!((s.sync_fraction() - 0.25).abs() < 1e-12);
        assert!((s.devices[0].clock.now() - 8.0).abs() < 1e-9);
    }
}
