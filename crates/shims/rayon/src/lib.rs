//! Workspace-local substitute for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! implements the small slice-parallelism surface the workspace actually
//! uses — `par_chunks`, `par_chunks_mut`, `par_iter_mut`, `enumerate`,
//! `zip`, `map`/`collect`, `for_each`, `join`, `run_tasks` and
//! `current_num_threads` — on a persistent worker team. Semantics match
//! rayon where it matters for this workspace: items are processed exactly
//! once, `map`+`collect` preserves order, and chunk boundaries are identical
//! to the sequential chunking (the kernels rely on fixed chunking for
//! bit-reproducibility).
//!
//! # The worker team
//!
//! OpenMP, which the paper's code used, keeps one thread team alive across
//! parallel regions; so does this shim. The first region that could use a
//! second thread starts `current_num_threads() - 1` long-lived workers. A
//! region is a count of indexed tasks plus a closure running task `i`. The
//! calling thread publishes it under a generation counter, every thread
//! (the caller included) claims task indices from one atomic counter until
//! none is left, and the caller returns only once every claimed task has
//! finished. Between regions a worker spins on the generation for at most
//! [`SPIN`], then parks on a condvar, so an idle team burns no CPU.
//!
//! * **Panics.** Every task runs under `catch_unwind`; the first payload is
//!   re-raised on the caller with `resume_unwind` once the whole region has
//!   finished, so a worker never dies and the team stays usable.
//! * **Nesting.** A region opened inside a region — on a worker, or on the
//!   caller while it runs its share — runs inline on that thread.
//! * **Other OS threads.** One region owns the team at a time; a region
//!   entered from another thread meanwhile runs inline, so two threads never
//!   wait on each other.
//!
//! Where a task runs never changes what it computes: tasks write disjoint
//! outputs, and inline (one thread, nested, or the team busy) they run in
//! index order on the calling thread.

use std::any::Any;
use std::cell::Cell;
use std::hint::spin_loop;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Number of threads a parallel region may use: the caller plus the
/// team's workers.
///
/// Honors `RAYON_NUM_THREADS` like real rayon's default pool: a positive
/// integer pins the pool size; anything else falls back to the machine's
/// available parallelism. The answer is computed once, at first use, so the
/// team size and every split decision agree for the life of the process.
/// `RAYON_NUM_THREADS=1` is how CI exercises the bit-reproducibility claims
/// sequentially.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// How long a thread busy-waits on the team before parking: a worker for
/// the next region, the caller for the last worker to finish.
const SPIN: Duration = Duration::from_micros(50);

thread_local! {
    /// True on workers, and on a caller while it runs its share of a region:
    /// a region opened here runs inline.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Locks `m`. No code that can panic runs under this crate's locks (task
/// code runs outside them), so a poisoned lock still guards valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the value out of a task's slot. Each index is claimed once, so
/// each slot is taken once.
fn take<T>(slot: &Mutex<Option<T>>) -> Option<T> {
    lock(slot).take()
}

/// The value a finished region left in `slot`.
fn result<T>(slot: Mutex<Option<T>>) -> T {
    slot.into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .expect("the region ran every task")
}

/// One parallel region: `count` tasks, each run exactly once by whichever
/// thread claims its index.
struct Region<'r> {
    run: &'r (dyn Fn(usize) + Sync),
    count: usize,
    next: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Region<'_> {
    /// Claims and runs tasks until none is left, keeping the first panic
    /// payload; never unwinds.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, SeqCst);
            if i >= self.count {
                return;
            }
            if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| (self.run)(i))) {
                lock(&self.panic).get_or_insert(p);
            }
        }
    }
}

/// The process-wide worker team. Every atomic is `SeqCst`: the
/// publish/enter and park/notify handshakes below each store one atomic
/// and then load another, on both sides, which needs a single total order.
struct Team {
    /// Whether some thread's region owns the team.
    busy: AtomicBool,
    /// The published region, or null once its caller has retired it.
    region: AtomicPtr<Region<'static>>,
    /// Bumped once per published region; idle workers wait for it to move.
    generation: AtomicUsize,
    /// Workers between announcing they may read `region` and finishing
    /// with what they read.
    active: AtomicUsize,
    /// Workers parked on `wake`.
    sleepers: AtomicUsize,
    /// Whether the caller is parked on `idle`.
    waiting: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
    idle: Condvar,
}

static TEAM: Team = Team {
    busy: AtomicBool::new(false),
    region: AtomicPtr::new(ptr::null_mut()),
    generation: AtomicUsize::new(0),
    active: AtomicUsize::new(0),
    sleepers: AtomicUsize::new(0),
    waiting: AtomicBool::new(false),
    lock: Mutex::new(()),
    wake: Condvar::new(),
    idle: Condvar::new(),
};

/// The team, its workers started on first use; `None` when the pool is one
/// thread. A worker that fails to spawn is simply absent: the caller claims
/// whatever no worker does, so correctness never depends on the count.
fn team() -> Option<&'static Team> {
    static START: Once = Once::new();
    let workers = current_num_threads() - 1;
    if workers == 0 {
        return None;
    }
    START.call_once(|| {
        for i in 0..workers {
            // Workers live as long as the process and never unwind, so
            // their handles are not kept.
            let spawned = std::thread::Builder::new()
                .name(format!("rayon-worker-{i}"))
                .spawn(|| TEAM.serve());
            if spawned.is_err() {
                break;
            }
        }
    });
    Some(&TEAM)
}

/// Spins until `done()` for at most [`SPIN`]; whether it came true.
fn spin_until(done: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..64 {
            if done() {
                return true;
            }
            spin_loop();
        }
        if start.elapsed() >= SPIN {
            return done();
        }
    }
}

impl Team {
    /// A worker's life: wait for a region, help with it, repeat.
    fn serve(&'static self) {
        IN_REGION.set(true);
        let mut seen = self.generation.load(SeqCst);
        loop {
            seen = self.next_generation(seen);
            self.active.fetch_add(1, SeqCst);
            let region = self.region.load(SeqCst);
            if !region.is_null() {
                // SAFETY: `drive` publishes a pointer to a region on its own
                // stack and, before that frame ends (on every path, through
                // `Retire`'s drop), nulls `region` and waits for `active` to
                // reach zero. This worker raised `active` before loading the
                // pointer, all SeqCst: if the caller's wait read zero before
                // the raise, this load comes after the null store and reads
                // null (or a later region); otherwise the caller waits for
                // the decrement below, which follows this worker's last use.
                // So the region, and everything its erased lifetime borrows,
                // outlives this reference.
                unsafe { &*region }.work();
            }
            if self.active.fetch_sub(1, SeqCst) == 1 && self.waiting.load(SeqCst) {
                let _g = lock(&self.lock);
                self.idle.notify_all();
            }
        }
    }

    /// Waits until the generation moves past `seen`: spinning, then parked.
    fn next_generation(&self, seen: usize) -> usize {
        let moved = || self.generation.load(SeqCst) != seen;
        if !spin_until(moved) {
            let mut g = lock(&self.lock);
            // Registered under the lock: a caller that moves the generation
            // after the check below reads `sleepers > 0` and notifies, which
            // takes the lock, so only once this thread is waiting.
            self.sleepers.fetch_add(1, SeqCst);
            while !moved() {
                g = self.wake.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            self.sleepers.fetch_sub(1, SeqCst);
        }
        self.generation.load(SeqCst)
    }

    /// Runs `region` on the team, the calling thread included, and returns
    /// once every task has finished. The caller owns the team (`busy`).
    fn drive(&'static self, region: &Region<'_>) {
        let _retire = Retire(self);
        // The lifetime is erased for the static slot; `serve` argues why no
        // worker uses the pointer once `Retire` has run.
        let erased = region as *const Region<'_> as *mut Region<'static>;
        self.region.store(erased, SeqCst);
        self.generation.fetch_add(1, SeqCst);
        if self.sleepers.load(SeqCst) > 0 {
            let _g = lock(&self.lock);
            self.wake.notify_all();
        }
        IN_REGION.set(true);
        region.work();
    }

    /// Waits for every worker to leave the retired region.
    fn await_idle(&self) {
        let idle = || self.active.load(SeqCst) == 0;
        if spin_until(idle) {
            return;
        }
        let mut g = lock(&self.lock);
        // The mirror of `next_generation`: a worker that empties `active`
        // after the check below reads `waiting` and notifies under the lock.
        self.waiting.store(true, SeqCst);
        while !idle() {
            g = self.idle.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        self.waiting.store(false, SeqCst);
    }
}

/// Ends a driven region on every exit path: unpublish it, wait until no
/// worker holds it, release the team.
struct Retire(&'static Team);

impl Drop for Retire {
    fn drop(&mut self) {
        IN_REGION.set(false);
        self.0.region.store(ptr::null_mut(), SeqCst);
        self.0.await_idle();
        self.0.busy.store(false, SeqCst);
    }
}

/// Runs `run(i)` once for every `i < count`, on the team when it is free,
/// and returns when all have finished, re-raising the first panic. Inline
/// (one thread, nested, or the team busy elsewhere) the tasks run in index
/// order and a panic propagates as it happens.
fn run_indexed(count: usize, run: &(dyn Fn(usize) + Sync)) {
    let team = team().filter(|t| {
        count > 1
            && !IN_REGION.get()
            && t.busy.compare_exchange(false, true, SeqCst, SeqCst).is_ok()
    });
    let Some(team) = team else {
        (0..count).for_each(run);
        return;
    };
    let region = Region {
        run,
        count,
        next: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };
    team.drive(&region);
    if let Some(p) = take(&region.panic) {
        panic::resume_unwind(p);
    }
}

/// Cuts `items` into at most `threads` contiguous blocks of equal length
/// (the last may be shorter), one task slot each.
fn blocks<T>(items: Vec<T>, threads: usize) -> Vec<Mutex<Option<Vec<T>>>> {
    let per = items.len().div_ceil(threads);
    let mut blocks = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    while it.len() > 0 {
        blocks.push(Mutex::new(Some(it.by_ref().take(per).collect())));
    }
    blocks
}

/// Maps `items` in at most `threads` contiguous blocks, one task each,
/// preserving order.
fn run_map<T: Send, R: Send, F: Fn(T) -> R + Sync>(items: Vec<T>, f: F, threads: usize) -> Vec<R> {
    if threads.min(items.len()) <= 1 {
        return items.into_iter().map(f).collect();
    }
    let blocks = blocks(items, threads);
    let out: Vec<Mutex<Option<Vec<R>>>> = blocks.iter().map(|_| Mutex::new(None)).collect();
    run_indexed(blocks.len(), &|b| {
        let mapped: Vec<R> = take(&blocks[b]).into_iter().flatten().map(&f).collect();
        *lock(&out[b]) = Some(mapped);
    });
    out.into_iter().flat_map(result).collect()
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
        run_map(self.items, f, current_num_threads());
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
        run_map(self.items, self.f, current_num_threads())
            .into_iter()
            .collect()
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

/// Runs a small batch of one-shot tasks on the team, each claimed by one
/// thread.
///
/// This is the node-level counterpart of `par_chunks`: the dependency-graph
/// executor hands it one *wave* of independent graph nodes whose kernels are
/// individually too small to saturate the pool, so running the nodes
/// side by side is the only way to use the cores. Tasks are few and coarse;
/// the calling thread runs its share. Falls back to sequential execution
/// when the pool is pinned to one thread.
pub fn run_tasks<'s>(tasks: Vec<Box<dyn FnOnce() + Send + 's>>) {
    let width = tasks.len();
    run_map(tasks, |t| t(), width);
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let (a, b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
    let (ra, rb) = (Mutex::new(None), Mutex::new(None));
    run_indexed(2, &|i| {
        if i == 0 {
            let r = take(&a).map(|a| a());
            *lock(&ra) = r;
        } else {
            let r = take(&b).map(|b| b());
            *lock(&rb) = r;
        }
    });
    (result(ra), result(rb))
}

/// The drop-in `use rayon::prelude::*` surface.
pub mod prelude {
    pub use crate::{IntoParallelRefMutIterator, ParIter, ParMap, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

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

    /// One task per counter, each bumping its own.
    fn counting_tasks(hits: &[AtomicUsize]) -> Vec<Task<'_>> {
        hits.iter()
            .map(|h| {
                Box::new(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                }) as Task<'_>
            })
            .collect()
    }

    #[test]
    fn run_tasks_runs_every_task_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
        super::run_tasks(counting_tasks(&hits));
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

    /// The panic message `f` raises; `f` must panic.
    fn payload_of(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the task's panic must reach the caller");
        err.downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .expect("payload should be a string")
    }

    #[test]
    fn every_entry_point_re_raises_the_task_payload_verbatim() {
        // The graph executor's race sanitizer relies on its diagnostic
        // reaching the caller unchanged, from whichever thread ran the
        // panicking task. The blocks behind `for_each` and `map` also run
        // at widths 1 and 2 here; CI runs the suite at 1 and 4 threads too.
        let mut v = [0u8; 16];
        let each = payload_of(|| {
            v.par_chunks_mut(1)
                .enumerate()
                .for_each(|(i, _)| assert!(i != 7, "for_each payload 99"))
        });
        assert_eq!(each, "for_each payload 99");
        for width in [1, 2] {
            let map = payload_of(|| {
                let f = |i: usize| {
                    if i == 12 {
                        panic!("map payload {i}")
                    } else {
                        i
                    }
                };
                super::run_map((0..16).collect(), f, width);
            });
            assert_eq!(map, "map payload 12", "width {width}");
        }
        let in_a = payload_of(|| {
            super::join::<_, _, (), ()>(|| panic!("join a payload"), || ());
        });
        assert_eq!(in_a, "join a payload");
        let in_b = payload_of(|| {
            super::join::<_, _, (), ()>(|| (), || panic!("join b payload"));
        });
        assert_eq!(in_b, "join b payload");
        let tasks: Vec<Task<'static>> = vec![
            Box::new(|| {}),
            Box::new(|| panic!("diagnostic payload 4721")),
            Box::new(|| {}),
        ];
        assert_eq!(
            payload_of(|| super::run_tasks(tasks)),
            "diagnostic payload 4721"
        );
    }

    #[test]
    fn stress_back_to_back_empty_regions() {
        let empty = || -> Vec<Task<'static>> { vec![Box::new(|| ()), Box::new(|| ())] };
        for i in 0..100_000 {
            match i % 3 {
                0 => {
                    super::join(|| (), || ());
                }
                1 => super::run_tasks(empty()),
                _ => [0u8; 4].par_chunks(1).for_each(|_| ()),
            }
        }
    }

    #[test]
    fn stress_team_survives_a_panicking_region() {
        let msg = payload_of(|| {
            super::join::<_, _, (), ()>(|| (), || panic!("one bad region"));
        });
        assert_eq!(msg, "one bad region");
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..1_000 {
            super::run_tasks(counting_tasks(&hits));
            assert_eq!(super::join(|| 3, || 4), (3, 4));
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1_000);
        }
    }

    #[test]
    fn stress_nested_regions_match_sequential() {
        // join inside run_tasks inside for_each: every level is a region.
        let cell = |outer: usize, task: usize| {
            let (x, y) = super::join(|| outer * 100 + task, || (outer + task) % 7);
            x * 10 + y
        };
        let mut got = vec![vec![0usize; 3]; 8];
        got.par_iter_mut().enumerate().for_each(|(outer, row)| {
            let tasks: Vec<Task<'_>> = row
                .iter_mut()
                .enumerate()
                .map(|(task, slot)| Box::new(move || *slot = cell(outer, task)) as Task<'_>)
                .collect();
            super::run_tasks(tasks);
        });
        let want: Vec<Vec<usize>> = (0..8)
            .map(|outer| (0..3).map(|task| cell(outer, task)).collect())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn stress_two_os_threads_open_regions_at_once() {
        const REGIONS: usize = 10_000;
        let hits: Vec<Vec<AtomicUsize>> = (0..2)
            .map(|_| (0..3).map(|_| AtomicUsize::new(0)).collect())
            .collect();
        let start = std::sync::Barrier::new(hits.len());
        std::thread::scope(|s| {
            for mine in &hits {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for _ in 0..REGIONS {
                        super::run_tasks(counting_tasks(mine));
                    }
                });
            }
        });
        for h in hits.iter().flatten() {
            assert_eq!(h.load(Ordering::SeqCst), REGIONS);
        }
    }

    #[test]
    fn stress_map_collect_keeps_order_at_every_width() {
        let items: Vec<usize> = (0..1000).collect();
        let want: Vec<usize> = items.iter().map(|i| i * 3 + 1).collect();
        for width in [1, 2, 7] {
            for _ in 0..100 {
                let got = super::run_map(items.clone(), |i| i * 3 + 1, width);
                assert_eq!(got, want, "width {width}");
            }
        }
    }
}
