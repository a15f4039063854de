//! Per-test scratch directories (test support, hidden from the docs).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A scratch directory no other test can name: process id + caller tag + a
/// process-wide counter, created empty and removed recursively on drop.
/// `cargo test` runs tests on parallel threads (and test binaries in
/// parallel processes), so a path derived from the pid and a fixed name is
/// shared the moment two tests pick the same name.
#[doc(hidden)]
#[derive(Debug)]
pub struct TestDir(PathBuf);

impl TestDir {
    /// Creates `$TMPDIR/micdnn-<pid>-<tag>-<n>`.
    pub fn new(tag: &str) -> Self {
        // Only uniqueness matters; the counter publishes no other data.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("micdnn-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test scratch directory");
        TestDir(dir)
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
