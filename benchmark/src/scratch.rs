//! Scratch directories for checkpoints and model files.
//!
//! Each directory's name carries the process id, the workload, the repeat
//! and a process-wide counter, so no two runs, workloads or repeats can
//! share one (two tests sharing `micdnn-cli-ckpt-<pid>-ae` is what made the
//! repository's `checkpoint_cli` tier-1 tests race). A directory is removed
//! when its handle drops. They live under the benchmark's output directory
//! because a run may write nowhere else.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// A statistic-like counter: it publishes no other data.
static NEXT: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<root>/scratch-<pid>-<workload>-r<repeat>-<n>`.
    pub fn new(root: &Path, workload: &str, repeat: usize) -> std::io::Result<ScratchDir> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!(
            "scratch-{}-{workload}-r{repeat}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is litter, not a wrong result.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirs_are_unique_and_removed_on_drop() {
        let root = std::env::temp_dir().join(format!("micdnn-bench-test-{}", std::process::id()));
        let a = ScratchDir::new(&root, "w", 0).unwrap();
        let b = ScratchDir::new(&root, "w", 0).unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir() && b.path().is_dir());
        let (pa, pb) = (a.path().to_path_buf(), b.path().to_path_buf());
        drop(a);
        drop(b);
        assert!(!pa.exists() && !pb.exists());
        let _ = std::fs::remove_dir_all(&root);
    }
}
