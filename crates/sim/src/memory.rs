//! Device-memory accounting.
//!
//! The Xeon Phi 5110P has 8 GB of GDDR5, and the paper's design keeps all
//! parameters, temporaries and the double-buffered loading area resident on
//! the card (§IV.B: "we keep all the parameters ... in our global memory
//! permanently"). [`DeviceMemory`] tracks those residencies so experiments
//! fail loudly — like the real card would — when a configuration does not
//! fit, instead of silently modeling impossible runs.

use parking_lot::Mutex;
use std::sync::Arc;

/// Error returned when an allocation exceeds the remaining capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes available at the time of the request.
    pub available: u64,
    /// Label of the failed allocation.
    pub label: String,
}

impl std::fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory allocating `{}`: requested {} bytes, {} available",
            self.label, self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

#[derive(Debug)]
struct Inner {
    capacity: u64,
    used: u64,
    peak: u64,
}

/// A device memory pool with capacity tracking.
///
/// Clones share the same pool. Allocations are RAII: dropping the returned
/// [`DeviceAlloc`] releases the bytes.
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    inner: Arc<Mutex<Inner>>,
}

impl DeviceMemory {
    /// A pool of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory {
            inner: Arc::new(Mutex::new(Inner {
                capacity,
                used: 0,
                peak: 0,
            })),
        }
    }

    /// Reserves `bytes`, failing if the pool cannot hold them.
    pub fn alloc(
        &self,
        bytes: u64,
        label: impl Into<String>,
    ) -> Result<DeviceAlloc, OutOfDeviceMemory> {
        let label = label.into();
        let mut inner = self.inner.lock();
        let available = inner.capacity - inner.used;
        if bytes > available {
            return Err(OutOfDeviceMemory {
                requested: bytes,
                available,
                label,
            });
        }
        inner.used += bytes;
        inner.peak = inner.peak.max(inner.used);
        Ok(DeviceAlloc {
            pool: self.inner.clone(),
            bytes,
        })
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.inner.lock().used
    }

    /// Bytes currently free.
    pub fn available(&self) -> u64 {
        let inner = self.inner.lock();
        inner.capacity - inner.used
    }

    /// High-water mark of usage.
    pub fn peak(&self) -> u64 {
        self.inner.lock().peak
    }
}

/// An RAII reservation of device memory.
#[derive(Debug)]
pub struct DeviceAlloc {
    pool: Arc<Mutex<Inner>>,
    bytes: u64,
}

impl Drop for DeviceAlloc {
    fn drop(&mut self) {
        let mut inner = self.pool.lock();
        inner.used = inner.used.saturating_sub(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mem = DeviceMemory::new(1000);
        let a = mem.alloc(400, "weights").unwrap();
        assert_eq!(mem.used(), 400);
        assert_eq!(mem.available(), 600);
        let b = mem.alloc(600, "buffer").unwrap();
        assert_eq!(mem.available(), 0);
        drop(a);
        assert_eq!(mem.available(), 400);
        drop(b);
        assert_eq!(mem.used(), 0);
        assert_eq!(mem.peak(), 1000);
    }

    #[test]
    fn over_allocation_fails_with_context() {
        let mem = DeviceMemory::new(100);
        let _a = mem.alloc(80, "params").unwrap();
        let err = mem.alloc(30, "chunk").unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.available, 20);
        assert!(err.to_string().contains("chunk"));
        // Failed alloc must not leak accounting.
        assert_eq!(mem.used(), 80);
    }

    #[test]
    fn phi_capacity_rejects_oversized_model() {
        let mem = DeviceMemory::new(8 << 30);
        // A 50k x 50k f32 weight matrix (10 GB) cannot fit on the card.
        let bytes = 50_000u64 * 50_000 * 4;
        assert!(mem.alloc(bytes, "w").is_err());
        // The paper's 1024x4096 autoencoder easily fits.
        let ae = 2 * 1024u64 * 4096 * 4;
        assert!(mem.alloc(ae, "ae").is_ok());
    }

    #[test]
    fn clones_share_pool() {
        let mem = DeviceMemory::new(10);
        let view = mem.clone();
        let _a = mem.alloc(7, "x").unwrap();
        assert_eq!(view.available(), 3);
    }

    #[test]
    fn zero_byte_alloc_ok() {
        let mem = DeviceMemory::new(0);
        assert!(mem.alloc(0, "empty").is_ok());
        assert!(mem.alloc(1, "one").is_err());
    }
}
