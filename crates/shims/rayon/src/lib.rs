//! Workspace-local substitute for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! implements the small slice-parallelism surface the workspace actually
//! uses — `par_chunks`, `par_chunks_mut`, `par_iter_mut`, `enumerate`,
//! `zip`, `map`/`collect`, `for_each` and `current_num_threads` — on top of
//! `std::thread::scope`. Semantics match rayon where it matters for this
//! workspace: items are processed exactly once, `map`+`collect` preserves
//! order, and chunk boundaries are identical to the sequential chunking (the
//! kernels rely on fixed chunking for bit-reproducibility).

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Number of worker threads a parallel region may fork across.
///
/// Honors `RAYON_NUM_THREADS` like real rayon's default pool: a positive
/// integer pins the pool size (read once, at first use); anything else
/// falls back to the machine's available parallelism. `RAYON_NUM_THREADS=1`
/// is how CI exercises the bit-reproducibility claims sequentially.
pub fn current_num_threads() -> usize {
    static CONFIGURED: OnceLock<Option<usize>> = OnceLock::new();
    let configured = *CONFIGURED.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    });
    configured.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

fn run_each<T: Send, F: Fn(T) + Sync>(items: Vec<T>, f: F) {
    let threads = current_num_threads().min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        for it in items {
            f(it);
        }
        return;
    }
    // Contiguous block distribution; each worker owns its block.
    let len = items.len();
    let per = len.div_ceil(threads);
    let mut blocks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    while it.len() > 0 {
        blocks.push(it.by_ref().take(per).collect());
    }
    let f = &f;
    std::thread::scope(|s| {
        // The first block runs on the calling thread.
        let mut blocks = blocks.into_iter();
        let mine = blocks.next().unwrap_or_default();
        for b in blocks {
            s.spawn(move || {
                for x in b {
                    f(x)
                }
            });
        }
        for x in mine {
            f(x)
        }
    });
}

fn run_map<T: Send, R: Send, F: Fn(T) -> R + Sync>(items: Vec<T>, f: F) -> Vec<R> {
    let threads = current_num_threads().min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let len = items.len();
    let per = len.div_ceil(threads);
    let mut blocks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    while it.len() > 0 {
        blocks.push(it.by_ref().take(per).collect());
    }
    let f = &f;
    let mut out: Vec<Vec<R>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = blocks
            .into_iter()
            .map(|b| s.spawn(move || b.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        for h in handles {
            match h.join() {
                Ok(v) => out.push(v),
                // Re-raise with the worker's own payload so panic messages
                // (e.g. race-check diagnostics) survive to the caller.
                Err(p) => std::panic::resume_unwind(p),
            }
        }
    });
    out.into_iter().flatten().collect()
}

/// An eager "parallel iterator": the item list is materialized up front and
/// the terminal operation fans out over threads.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Pairs every item with its index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Zips with another parallel iterator (truncating to the shorter).
    pub fn zip<U: Send>(self, other: ParIter<U>) -> ParIter<(T, U)> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Applies `f` to every item, potentially in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        run_each(self.items, f);
    }

    /// Lazily maps items; realized by [`ParMap::collect`].
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// A mapped parallel iterator awaiting collection.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, F> ParMap<T, F> {
    /// Runs the map in parallel, preserving input order.
    pub fn collect<C, R>(self) -> C
    where
        R: Send,
        F: Fn(T) -> R + Sync,
        C: FromIterator<R>,
    {
        run_map(self.items, self.f).into_iter().collect()
    }
}

/// `par_chunks` on shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `chunk_size`-sized sub-slices.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks(chunk_size).collect(),
        }
    }
}

/// `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over `chunk_size`-sized mutable sub-slices.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

/// `par_iter_mut` on mutable slices (and anything derefing to one).
pub trait IntoParallelRefMutIterator<T: Send> {
    /// Parallel iterator over `&mut` items.
    fn par_iter_mut(&mut self) -> ParIter<&mut T>;
}

impl<T: Send> IntoParallelRefMutIterator<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<&mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

/// Runs a small batch of one-shot tasks, one scoped thread per task.
///
/// This is the node-level counterpart of `par_chunks`: the dependency-graph
/// executor hands it one *wave* of independent graph nodes whose kernels are
/// individually too small to saturate the pool, so running the nodes
/// side by side is the only way to use the cores. Tasks are few and coarse;
/// the first runs on the calling thread. Falls back to sequential execution
/// when the pool is pinned to one thread.
pub fn run_tasks<'s>(tasks: Vec<Box<dyn FnOnce() + Send + 's>>) {
    if tasks.len() <= 1 || current_num_threads() <= 1 {
        for t in tasks {
            t();
        }
        return;
    }
    std::thread::scope(|s| {
        let mut it = tasks.into_iter();
        let mine = it.next().expect("checked non-empty above");
        let handles: Vec<_> = it.map(|t| s.spawn(t)).collect();
        mine();
        for h in handles {
            // Re-raise with the worker's own payload so panic messages
            // (e.g. race-check diagnostics) survive to the caller.
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = match hb.join() {
            Ok(v) => v,
            // Re-raise with the worker's own payload so panic messages
            // survive to the caller.
            Err(p) => std::panic::resume_unwind(p),
        };
        (ra, rb)
    })
}

/// The drop-in `use rayon::prelude::*` surface.
pub mod prelude {
    pub use crate::{IntoParallelRefMutIterator, ParIter, ParMap, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn chunks_cover_everything_in_order() {
        let v: Vec<u32> = (0..100).collect();
        let sums: Vec<u32> = v.par_chunks(7).map(|c| c.iter().sum::<u32>()).collect();
        assert_eq!(sums.len(), 15);
        assert_eq!(sums.iter().sum::<u32>(), (0..100).sum::<u32>());
        // Order preserved: first chunk is 0..7.
        assert_eq!(sums[0], (0..7).sum::<u32>());
    }

    #[test]
    fn chunks_mut_enumerate_writes_disjoint() {
        let mut v = vec![0usize; 40];
        v.par_chunks_mut(8).enumerate().for_each(|(i, c)| {
            for x in c.iter_mut() {
                *x = i;
            }
        });
        assert_eq!(v[0], 0);
        assert_eq!(v[39], 4);
    }

    #[test]
    fn zip_truncates_and_pairs() {
        let a = [1, 2, 3, 4];
        let mut out = vec![0; 4];
        out.par_chunks_mut(1)
            .zip(a.par_chunks(1))
            .for_each(|(o, c)| o[0] = c[0] * 10);
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    fn par_iter_mut_enumerates() {
        let mut v = vec![0usize; 10];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i * i);
        assert_eq!(v[3], 9);
    }

    #[test]
    fn run_tasks_runs_every_task_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = hits
            .iter()
            .map(|h| {
                Box::new(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        super::run_tasks(tasks);
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
        super::run_tasks(Vec::new());
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn run_tasks_preserves_panic_payloads() {
        // A worker's panic message must reach the caller verbatim — the
        // graph executor's race sanitizer relies on its diagnostic string
        // surviving the scoped-thread join.
        let tasks: Vec<Box<dyn FnOnce() + Send + 'static>> = vec![
            Box::new(|| {}),
            Box::new(|| panic!("diagnostic payload 4721")),
            Box::new(|| {}),
        ];
        let run = std::panic::AssertUnwindSafe(|| super::run_tasks(tasks));
        let err = std::panic::catch_unwind(run).expect_err("worker panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .expect("payload should be a string");
        assert!(
            msg.contains("diagnostic payload 4721"),
            "lost payload: {msg}"
        );
    }
}
