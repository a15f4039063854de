//! Heap allocations of steady-state training steps, counted by a counting
//! global allocator.
//!
//! Every step keeps its task graph and its planned workspace from one batch
//! to the next, so a step allocates only what a kernel or the step's own
//! bookkeeping asks for per call. This binary runs the step of the CNN at
//! `cnn_ckpt`'s shape, of a 784-256-64-10 fine-tune net and of a 784-256
//! autoencoder, and that autoencoder's reconstruction error, on one thread
//! (the worker team never forks, so every allocation is the step's own),
//! warms each up with two calls, and fails if a later call allocates more
//! than it does today. It also tracks the bytes
//! live, and pins the high-water mark of one autoencoder `encode` to the code
//! it returns. It is one test in a binary of its own, so no other test's
//! allocations are counted.

use micdnn::{
    AeConfig, AeModel, AeScratch, CnnConfig, CnnNet, ExecCtx, FineTuneNet, OptLevel,
    SparseAutoencoder, UnsupervisedModel,
};
use micdnn_data::DigitGenerator;
use micdnn_tensor::MatView;
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting every allocation and reallocation and
/// tracking the bytes live and their high-water mark.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Records `bytes` more live, raising the high-water mark past them.
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no memory it hands
// out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per step over `STEPS` steps of `step`, after two warm-up
/// steps.
fn per_step(mut step: impl FnMut()) -> usize {
    const STEPS: usize = 4;
    step();
    step();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..STEPS {
        step();
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before).div_ceil(STEPS)
}

/// Bytes that `run` holds live at its peak beyond what was live before.
fn peak_bytes(run: impl FnOnce()) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    run();
    PEAK.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_steps_allocate_no_more_than_counted() {
    // The worker team is sized from the environment at its first use,
    // below; this binary's one test is the only thread that reads it.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let ctx = ExecCtx::native(OptLevel::Improved, 7);
    let labels: Vec<usize> = (0..100).map(|i| i % 10).collect();

    let images = DigitGenerator::new(28, 3).matrix(100);
    let x = MatView::new(&images.as_slice()[..50 * 784], 50, 784);
    let mut cnn = CnnNet::new(CnnConfig::new(28, 8, 5, 2, 64, 10), 5);
    let cnn = per_step(|| {
        cnn.train_batch(&ctx, x, &labels[..50], 0.2);
    });

    let x = images.view();
    let mut net = FineTuneNet::random(&[784, 256, 64], 10, 5);
    let finetune = per_step(|| {
        net.train_batch(&ctx, x, &labels, 0.1);
    });

    let mut ae = AeModel::new(SparseAutoencoder::new(AeConfig::new(784, 256), 5));
    ae.prepare(100);
    let autoencoder = per_step(|| {
        ae.train_batch(&ctx, x, 0.1);
    });
    // The reconstruction error runs the first nodes of the graph its
    // scratch keeps, built by the first call. The run itself allocates
    // nothing: of its 9, 6 are the parallel weight-penalty sums COST takes
    // and 3 the products' own (the hand-written body it replaced allocated
    // 5, two of them its activations).
    let mut scratch = AeScratch::new(ae.ae.config(), 100);
    let reconstruction = per_step(|| {
        ae.ae.reconstruction_error(&ctx, x, &mut scratch);
    });

    let counted = [
        ("cnn", cnn),
        ("fine-tune", finetune),
        ("autoencoder", autoencoder),
        ("reconstruction", reconstruction),
    ];
    println!("allocations per step: {counted:?}");
    // Counted at the change that gave pooling a per-thread row buffer (the
    // CNN step allocated 50 more, one per image); each is lower since
    // every bias + sigmoid forks by a tree of `rayon::join`s, which
    // collects no list of blocks.
    for ((what, got), most) in counted.into_iter().zip([12, 11, 22, 9]) {
        assert!(
            got <= most,
            "a {what} step allocates {got} times, more than {most}"
        );
    }

    // `digits_pipeline`'s first pretraining layer encodes its 3 000 rows.
    // The code is the encoder graph's one arena register, moved out, so an
    // encode peaks at one 3000 x 256 matrix plus the graph's bookkeeping.
    let layer = SparseAutoencoder::new(AeConfig::new(784, 256), 5);
    let rows = DigitGenerator::new(28, 4).matrix(3000);
    layer.encode(&ctx, rows.view());
    let peak = peak_bytes(|| drop(layer.encode(&ctx, rows.view())));
    // Counted at 1 272 bytes over the code in release and 1 712 in debug. A
    // copy of the code out of the arena would double the peak; the
    // gradient-only step graph's arena alone is 26.6 MB.
    let (code, bookkeeping) = (3000 * 256 * size_of::<f32>(), 16 << 10);
    println!("encode peak: {peak} bytes, the code {code}");
    assert!(
        peak <= code + bookkeeping,
        "an encode peaks at {peak} bytes, more than its {code}-byte code and {bookkeeping}"
    );
}
