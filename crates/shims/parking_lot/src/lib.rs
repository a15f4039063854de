//! Workspace-local substitute for the `parking_lot` crate.
//!
//! Wraps `std::sync::Mutex` with parking_lot's poison-free,
//! guard-returning `lock()`. Poisoning is swallowed (a panicked holder does
//! not wedge later lockers), matching parking_lot's observable behavior for
//! the call sites in this workspace.

use std::sync::MutexGuard;

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_locks() {
        let m = Mutex::new(3);
        *m.lock() += 4;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn a_panicked_holder_does_not_wedge_the_lock() {
        let m = std::sync::Arc::new(Mutex::new(1));
        let held = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = held.lock();
            panic!("poison the inner mutex");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }
}
