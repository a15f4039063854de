//! Double-buffered chunk streaming — the paper's Fig. 5 — with a fallible
//! loader.
//!
//! §IV.A: "we use a thread to load the data chunk from the host to the
//! Intel Xeon Phi so that our algorithm does not need to wait for loading
//! new data when finishing the process of training one large chunk" — a
//! loading thread fills buffer *i* while the training threads consume
//! buffer *i − 1*.
//!
//! This module does both things at once:
//!
//! * **really** runs a producer thread that materializes chunks and hands
//!   them over a bounded channel (so host-side generation genuinely
//!   overlaps training wall-clock), and
//! * **models** the device-side timing: each chunk's simulated transfer
//!   starts as soon as a buffer slot frees, and the trainer only stalls for
//!   whatever part of the transfer compute did not cover.
//!
//! The loader is *fallible*: a [`ChunkSource`] can return a [`SourceFault`]
//! (or panic), and the loading thread retries transient faults with
//! deterministic, seeded exponential backoff before giving up. The consumer
//! sees a typed [`StreamError`] — never a hang and never a propagated panic.
//! An optional per-chunk deadline bounds how long [`ChunkStream::next`]
//! blocks. The retry contract: a fault means the source did **not** advance,
//! so the retried call re-requests the same chunk and a recovered stream is
//! bit-identical to a fault-free one.

use crate::clock::SimClock;
use crate::link::Link;
use crate::overlap::OverlapClock;
use crate::trace::{EventKind, Trace};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};
use micdnn_tensor::Mat;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One unit of work handed from a [`ChunkSource`] to the loader, optionally
/// carrying a checksum the loader verifies before delivery.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// The example rows.
    pub data: Mat,
    /// Optional FNV-1a checksum of `data` (see [`Chunk::checksum`]);
    /// verified by the loading thread when present.
    pub crc: Option<u32>,
}

impl Chunk {
    /// A chunk without integrity metadata.
    pub fn new(data: Mat) -> Self {
        Chunk { data, crc: None }
    }

    /// A chunk stamped with its own checksum.
    pub fn with_crc(data: Mat) -> Self {
        let crc = Chunk::checksum(&data);
        Chunk {
            data,
            crc: Some(crc),
        }
    }

    /// FNV-1a over the shape and the little-endian bit patterns of the
    /// payload (bit-exact: distinguishes `-0.0` from `0.0` and every NaN).
    pub fn checksum(data: &Mat) -> u32 {
        let mut h: u32 = 0x811C_9DC5;
        let mut eat = |b: u8| {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        };
        for dim in [data.rows() as u64, data.cols() as u64] {
            dim.to_le_bytes().into_iter().for_each(&mut eat);
        }
        for &v in data.as_slice() {
            v.to_bits().to_le_bytes().into_iter().for_each(&mut eat);
        }
        h
    }
}

impl From<Mat> for Chunk {
    fn from(data: Mat) -> Self {
        Chunk::new(data)
    }
}

/// A fault reported by a [`ChunkSource`]. The contract: a faulting call did
/// *not* consume data, so retrying re-requests the same chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceFault {
    /// Transient failure (I/O hiccup, loader panic); worth retrying.
    Transient(String),
    /// A delivered chunk failed checksum verification; worth re-requesting.
    Corrupt {
        /// Zero-based index of the corrupted chunk.
        chunk: u64,
    },
    /// Permanent failure; retrying cannot help.
    Fatal(String),
}

impl SourceFault {
    /// Whether the loading thread should retry after this fault.
    pub(crate) fn is_retryable(&self) -> bool {
        !matches!(self, SourceFault::Fatal(_))
    }
}

impl std::fmt::Display for SourceFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceFault::Transient(msg) => write!(f, "transient source fault: {msg}"),
            SourceFault::Corrupt { chunk } => {
                write!(f, "chunk {chunk} failed checksum verification")
            }
            SourceFault::Fatal(msg) => write!(f, "fatal source fault: {msg}"),
        }
    }
}

impl std::error::Error for SourceFault {}

/// A typed failure of the stream itself, surfaced by [`ChunkStream::next`].
#[derive(Debug)]
pub enum StreamError {
    /// The loader thread could not be spawned.
    Spawn(std::io::Error),
    /// No chunk arrived within the configured per-chunk deadline.
    Timeout {
        /// Index of the chunk that failed to arrive.
        chunk: u64,
        /// The deadline that elapsed.
        deadline: Duration,
    },
    /// The source faulted and retries were exhausted (or the fault was
    /// fatal); the offending chunk was dropped.
    Fault(SourceFault),
    /// The loader thread died without an end-of-stream marker.
    LoaderPanic(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Spawn(e) => write!(f, "cannot spawn loader thread: {e}"),
            StreamError::Timeout { chunk, deadline } => write!(
                f,
                "chunk {chunk} missed its {:.3}s delivery deadline",
                deadline.as_secs_f64()
            ),
            StreamError::Fault(fault) => write!(f, "loader gave up: {fault}"),
            StreamError::LoaderPanic(msg) => write!(f, "loader thread died: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// A producer of training chunks, consumed by a loading thread.
///
/// A returned [`SourceFault`] must leave the source positioned so the next
/// call re-attempts the *same* chunk; the built-in sources never fault and
/// satisfy this trivially.
pub trait ChunkSource: Send + 'static {
    /// Produces the next chunk, `Ok(None)` when the stream ends, or a fault.
    fn next_chunk(&mut self) -> Result<Option<Chunk>, SourceFault>;
}

/// A [`ChunkSource`] over a pre-built list of chunks (tests, small runs).
#[derive(Debug)]
pub struct VecSource {
    chunks: std::vec::IntoIter<Mat>,
}

impl VecSource {
    /// Wraps the given chunks.
    pub fn new(chunks: Vec<Mat>) -> Self {
        VecSource {
            chunks: chunks.into_iter(),
        }
    }
}

impl ChunkSource for VecSource {
    fn next_chunk(&mut self) -> Result<Option<Chunk>, SourceFault> {
        Ok(self.chunks.next().map(Chunk::new))
    }
}

impl<F> ChunkSource for F
where
    F: FnMut() -> Option<Mat> + Send + 'static,
{
    fn next_chunk(&mut self) -> Result<Option<Chunk>, SourceFault> {
        Ok(self().map(Chunk::new))
    }
}

/// Bounded-retry policy for transient loader faults. Backoff is exponential
/// with deterministic jitter derived from `(seed, chunk, attempt)` — two
/// runs with the same seed sleep the same schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries per chunk before the fault is surfaced to the consumer.
    pub max_retries: u32,
    /// First backoff; doubles each attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (0-based) of `chunk`:
    /// `min(base · 2^attempt, max)` scaled by a deterministic jitter factor
    /// in `[0.5, 1.5)`.
    pub(crate) fn backoff(&self, chunk: u64, attempt: u32) -> Duration {
        let base = self.base_backoff.as_secs_f64() * 2f64.powi(attempt.min(32) as i32);
        let capped = base.min(self.max_backoff.as_secs_f64());
        // splitmix64 of (seed, chunk, attempt) — no wall-clock randomness.
        let mut h = self
            .seed
            .wrapping_add(chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(u64::from(attempt) << 32);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        let jitter = 0.5 + (h >> 11) as f64 / (1u64 << 53) as f64;
        Duration::from_secs_f64(capped * jitter)
    }
}

/// Everything configurable about a [`ChunkStream`] beyond the link model.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Device-side chunk slots: how many chunks exist at once, counting
    /// the one being trained on (the paper's double buffer is 2).
    pub buffers: usize,
    /// `false` models the naive design where training waits for every
    /// transfer (the paper's 17%-overhead scenario).
    pub double_buffered: bool,
    /// Retry/backoff policy for transient source faults.
    pub retry: RetryPolicy,
    /// Per-chunk delivery deadline for [`ChunkStream::next`]; `None` blocks
    /// indefinitely (the pre-fault-model behavior).
    pub deadline: Option<Duration>,
    /// Verify [`Chunk::crc`] on the loading thread when present.
    pub verify_checksums: bool,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            buffers: 2,
            double_buffered: true,
            retry: RetryPolicy::default(),
            deadline: None,
            verify_checksums: true,
        }
    }
}

/// Aggregate transfer statistics of a finished (or running) stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamStats {
    /// Chunks delivered.
    pub chunks: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Total simulated transfer time (overlapped or not).
    pub transfer_secs: f64,
    /// Simulated time the consumer actually stalled waiting for data.
    pub stall_secs: f64,
    /// Loader retries after transient faults (all chunks).
    pub retries: u64,
    /// Per-chunk delivery deadlines missed by the consumer.
    pub timeouts: u64,
    /// Chunks abandoned after retries were exhausted or a fatal fault.
    pub dropped: u64,
}

impl StreamStats {
    /// Fraction of transfer time hidden behind compute (0 when nothing was
    /// transferred).
    pub fn hidden_fraction(&self) -> f64 {
        if self.transfer_secs <= 0.0 {
            0.0
        } else {
            (1.0 - self.stall_secs / self.transfer_secs).max(0.0)
        }
    }
}

/// One loader retry, kept for incident reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryEvent {
    /// Chunk being re-requested.
    pub chunk: u64,
    /// Zero-based retry attempt.
    pub attempt: u32,
    /// Human-readable fault description.
    pub fault: String,
    /// Backoff slept before this retry.
    pub backoff_secs: f64,
}

/// Loader-side counters and events, shared with the consumer.
#[derive(Default)]
struct LoaderShared {
    retries: AtomicU64,
    dropped: AtomicU64,
    events: Mutex<Vec<RetryEvent>>,
}

/// What travels over the channel. The explicit `End` marker distinguishes a
/// normal end-of-stream from the loader thread dying (channel disconnect
/// without `End`).
enum Slot {
    Chunk(Chunk),
    End,
    Fault(SourceFault),
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The consuming end of a double-buffered loading pipeline.
pub struct ChunkStream {
    rx: Receiver<Slot>,
    handle: Option<JoinHandle<()>>,
    link: Link,
    clock: SimClock,
    trace: Trace,
    /// The device-side timing model: which part of each transfer the
    /// consumer's compute hid.
    overlap: OverlapClock,
    deadline: Option<Duration>,
    /// End-of-stream seen; further `next` calls keep returning `Ok(None)`.
    ended: bool,
    shared: Arc<LoaderShared>,
    stats: StreamStats,
}

impl ChunkStream {
    /// Spawns the loading thread over `source` with default retry and no
    /// deadline. `buffers` is the number of chunk slots in the device-side
    /// loading area (the paper sizes it at "several times" one chunk).
    pub fn spawn(
        source: impl ChunkSource,
        link: Link,
        clock: SimClock,
        trace: Trace,
        buffers: usize,
        double_buffered: bool,
    ) -> std::io::Result<Self> {
        ChunkStream::spawn_opts(
            source,
            link,
            clock,
            trace,
            StreamOptions {
                buffers,
                double_buffered,
                ..StreamOptions::default()
            },
        )
    }

    /// Spawns the loading thread with full [`StreamOptions`] control.
    pub fn spawn_opts(
        mut source: impl ChunkSource,
        link: Link,
        clock: SimClock,
        trace: Trace,
        opts: StreamOptions,
    ) -> std::io::Result<Self> {
        assert!(opts.buffers >= 1, "need at least one buffer slot");
        // A chunk occupies a slot from the moment the loader materialises
        // it until the consumer has trained on it. The consumer holds one
        // and the loader the one it is waiting to hand over, so the queue
        // between them gets the other `buffers - 2` (a one-slot stream still
        // loads one chunk ahead: the thread has nowhere else to wait).
        let (tx, rx) = bounded::<Slot>(opts.buffers.saturating_sub(2));
        let shared = Arc::new(LoaderShared::default());
        let loader_shared = Arc::clone(&shared);
        let retry = opts.retry.clone();
        let verify_checksums = opts.verify_checksums;
        let handle = std::thread::Builder::new()
            .name("micdnn-loader".to_string())
            .spawn(move || {
                let mut chunk_idx: u64 = 0;
                loop {
                    let mut attempt: u32 = 0;
                    // Retry loop for one chunk: a fault did not consume data,
                    // so re-calling the source re-requests the same chunk.
                    let chunk = loop {
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            source.next_chunk()
                        }));
                        let fault = match result {
                            Ok(Ok(Some(chunk))) => {
                                let bad = verify_checksums
                                    && chunk
                                        .crc
                                        .is_some_and(|crc| Chunk::checksum(&chunk.data) != crc);
                                if !bad {
                                    break chunk;
                                }
                                SourceFault::Corrupt { chunk: chunk_idx }
                            }
                            Ok(Ok(None)) => {
                                let _ = tx.send(Slot::End);
                                return;
                            }
                            Ok(Err(fault)) => fault,
                            Err(payload) => SourceFault::Transient(format!(
                                "loader panicked: {}",
                                panic_message(payload.as_ref())
                            )),
                        };
                        if !fault.is_retryable() || attempt >= retry.max_retries {
                            loader_shared.dropped.fetch_add(1, Ordering::Relaxed);
                            let _ = tx.send(Slot::Fault(fault));
                            return;
                        }
                        let backoff = retry.backoff(chunk_idx, attempt);
                        loader_shared.retries.fetch_add(1, Ordering::Relaxed);
                        loader_shared.events.lock().push(RetryEvent {
                            chunk: chunk_idx,
                            attempt,
                            fault: fault.to_string(),
                            backoff_secs: backoff.as_secs_f64(),
                        });
                        std::thread::sleep(backoff);
                        attempt += 1;
                    };
                    if tx.send(Slot::Chunk(chunk)).is_err() {
                        return; // consumer hung up
                    }
                    chunk_idx += 1;
                }
            })?;
        Ok(ChunkStream {
            rx,
            handle: Some(handle),
            link,
            clock,
            trace,
            overlap: OverlapClock::new(opts.double_buffered),
            deadline: opts.deadline,
            ended: false,
            shared,
            stats: StreamStats::default(),
        })
    }

    /// Receives the next chunk, advancing the simulated clock by whatever
    /// part of its transfer was not hidden behind compute. `Ok(None)` is a
    /// clean end of stream; every failure mode is a typed [`StreamError`].
    #[allow(clippy::should_implement_trait)] // blocks on a channel; not a pure iterator
    pub fn next(&mut self) -> Result<Option<Mat>, StreamError> {
        if self.ended {
            return Ok(None);
        }
        let slot = match self.deadline {
            Some(deadline) => match self.rx.recv_timeout(deadline) {
                Ok(slot) => slot,
                Err(RecvTimeoutError::Timeout) => {
                    self.stats.timeouts += 1;
                    return Err(StreamError::Timeout {
                        chunk: self.stats.chunks,
                        deadline,
                    });
                }
                Err(RecvTimeoutError::Disconnected) => return Err(self.loader_died()),
            },
            None => match self.rx.recv() {
                Ok(slot) => slot,
                Err(_) => return Err(self.loader_died()),
            },
        };
        let chunk = match slot {
            Slot::End => {
                self.ended = true;
                return Ok(None);
            }
            Slot::Fault(fault) => return Err(StreamError::Fault(fault)),
            Slot::Chunk(chunk) => chunk.data,
        };
        let bytes = (chunk.len() * std::mem::size_of::<f32>()) as u64;
        let t_transfer = self.link.transfer_time(bytes);
        self.stats.chunks += 1;
        self.stats.bytes += bytes;
        self.stats.transfer_secs += t_transfer;

        let label = format!("chunk {}", self.stats.chunks);
        let before = self.clock.now();
        let admitted = self.overlap.admit(&self.clock, t_transfer);
        self.trace.push(
            admitted.started,
            admitted.ready,
            EventKind::Transfer,
            label.as_str(),
        );
        // The naive design's wait *is* its transfer slice; only the exposed
        // part of an overlapped transfer is traced as a stall of its own.
        if self.overlap.double_buffered() && admitted.stall > 0.0 {
            self.trace
                .push(before, before + admitted.stall, EventKind::Stall, label);
        }
        self.stats.stall_secs += admitted.stall;
        Ok(Some(chunk))
    }

    /// Statistics so far, including loader-side retry/drop counters.
    pub fn stats(&self) -> StreamStats {
        let mut stats = self.stats;
        stats.retries = self.shared.retries.load(Ordering::Relaxed);
        stats.dropped = self.shared.dropped.load(Ordering::Relaxed);
        stats
    }

    /// Drains the per-retry event log (for incident reporting).
    pub fn take_retry_events(&self) -> Vec<RetryEvent> {
        std::mem::take(&mut *self.shared.events.lock())
    }

    /// Joins the dead loader thread and converts its fate into an error.
    fn loader_died(&mut self) -> StreamError {
        match self.handle.take() {
            Some(h) => match h.join() {
                Ok(()) => StreamError::LoaderPanic(
                    "loader thread exited without an end-of-stream marker".to_string(),
                ),
                Err(payload) => {
                    StreamError::LoaderPanic(panic_message(payload.as_ref()).to_string())
                }
            },
            None => StreamError::LoaderPanic("loader thread already joined".to_string()),
        }
    }
}

impl Drop for ChunkStream {
    fn drop(&mut self) {
        // Unblock the producer by dropping the receiver side first, then
        // join; a panicked loader yields `Err` from join, which is absorbed
        // here rather than poisoning the consumer's unwind.
        let (_tx, rx) = bounded::<Slot>(0);
        self.rx = rx;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks(n: usize, rows: usize, cols: usize) -> Vec<Mat> {
        (0..n).map(|i| Mat::full(rows, cols, i as f32)).collect()
    }

    fn fast_link() -> Link {
        Link {
            latency_s: 0.0,
            wire_gbs: 1.0,
            host_pipeline_gbs: 1.0,
        }
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
            ..RetryPolicy::default()
        }
    }

    /// Yields `chunks`, injecting one fault (or panic) per entry in
    /// `faults` keyed by chunk index; each fault fires once.
    struct FlakySource {
        chunks: Vec<Mat>,
        next: usize,
        faults: Vec<(usize, SourceFault)>,
        panics: Vec<usize>,
    }

    impl ChunkSource for FlakySource {
        fn next_chunk(&mut self) -> Result<Option<Chunk>, SourceFault> {
            if let Some(pos) = self.panics.iter().position(|&i| i == self.next) {
                self.panics.remove(pos);
                panic!("injected loader panic at chunk {}", self.next);
            }
            if let Some(pos) = self.faults.iter().position(|(i, _)| *i == self.next) {
                return Err(self.faults.remove(pos).1);
            }
            if self.next >= self.chunks.len() {
                return Ok(None);
            }
            let chunk = self.chunks[self.next].clone();
            self.next += 1;
            Ok(Some(Chunk::with_crc(chunk)))
        }
    }

    #[test]
    fn delivers_all_chunks_in_order() {
        let clock = SimClock::new();
        let mut s = ChunkStream::spawn(
            VecSource::new(chunks(5, 4, 4)),
            fast_link(),
            clock,
            Trace::new(false),
            2,
            true,
        )
        .unwrap();
        for i in 0..5 {
            let c = s.next().unwrap().expect("chunk");
            assert_eq!(c.get(0, 0), i as f32);
        }
        assert!(s.next().unwrap().is_none());
        assert_eq!(s.stats().chunks, 5);
        assert_eq!(s.stats().bytes, 5 * 16 * 4);
        assert_eq!(s.stats().retries, 0);
        assert_eq!(s.stats().dropped, 0);
    }

    #[test]
    fn without_double_buffering_every_transfer_stalls() {
        let clock = SimClock::new();
        let mut s = ChunkStream::spawn(
            VecSource::new(chunks(4, 100, 100)),
            fast_link(),
            clock.clone(),
            Trace::new(false),
            2,
            false,
        )
        .unwrap();
        while let Some(c) = s.next().unwrap() {
            // Simulate compute that takes twice the transfer time.
            let t = fast_link().transfer_time((c.len() * 4) as u64);
            clock.advance(2.0 * t);
        }
        let st = s.stats();
        assert!((st.stall_secs - st.transfer_secs).abs() < 1e-9);
        assert_eq!(st.hidden_fraction(), 0.0);
    }

    #[test]
    fn double_buffering_hides_transfers_behind_slower_compute() {
        let clock = SimClock::new();
        let mut s = ChunkStream::spawn(
            VecSource::new(chunks(6, 100, 100)),
            fast_link(),
            clock.clone(),
            Trace::new(false),
            2,
            true,
        )
        .unwrap();
        while let Some(c) = s.next().unwrap() {
            let t = fast_link().transfer_time((c.len() * 4) as u64);
            clock.advance(2.0 * t); // compute dominates
        }
        let st = s.stats();
        // Only the first chunk's transfer is exposed.
        let one_transfer = st.transfer_secs / 6.0;
        assert!(
            (st.stall_secs - one_transfer).abs() / one_transfer < 1e-6,
            "stall {} vs one transfer {}",
            st.stall_secs,
            one_transfer
        );
        assert!(st.hidden_fraction() > 0.8);
    }

    #[test]
    fn double_buffering_cannot_hide_transfers_from_faster_compute() {
        let clock = SimClock::new();
        let mut s = ChunkStream::spawn(
            VecSource::new(chunks(6, 100, 100)),
            fast_link(),
            clock.clone(),
            Trace::new(false),
            2,
            true,
        )
        .unwrap();
        let mut total_compute = 0.0;
        while let Some(c) = s.next().unwrap() {
            let t = fast_link().transfer_time((c.len() * 4) as u64);
            clock.advance(0.25 * t); // transfer dominates
            total_compute += 0.25 * t;
        }
        let st = s.stats();
        // End-to-end time ~= total transfer time (compute fully hidden
        // inside it), so stall ~= transfer - compute_overlappable.
        assert!(st.stall_secs > 0.5 * st.transfer_secs);
        assert!(
            (clock.now() - st.transfer_secs).abs() / st.transfer_secs < 0.05,
            "wall {} vs transfers {}",
            clock.now(),
            st.transfer_secs
        );
        let _ = total_compute;
    }

    #[test]
    fn trace_records_transfers_and_stalls() {
        let clock = SimClock::new();
        let trace = Trace::new(true);
        let mut s = ChunkStream::spawn(
            VecSource::new(chunks(3, 10, 10)),
            fast_link(),
            clock.clone(),
            trace.clone(),
            2,
            true,
        )
        .unwrap();
        while s.next().unwrap().is_some() {}
        assert!(trace.total(EventKind::Transfer) > 0.0);
        assert!(trace.total(EventKind::Stall) > 0.0);
    }

    #[test]
    fn closure_source_works() {
        let mut remaining = 3;
        let src = move || {
            if remaining == 0 {
                None
            } else {
                remaining -= 1;
                Some(Mat::zeros(2, 2))
            }
        };
        let mut s = ChunkStream::spawn(
            src,
            fast_link(),
            SimClock::new(),
            Trace::new(false),
            1,
            true,
        )
        .unwrap();
        let mut n = 0;
        while s.next().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
    }

    /// The pipeline's memory bound, by a counting source: whatever the
    /// interleaving, at most `buffers` chunks (two for a one-slot stream)
    /// exist at once, counting the one being trained on. The sleep only
    /// gives the loader every chance to run further ahead.
    #[test]
    fn at_most_buffers_chunks_exist_at_once() {
        for buffers in [1usize, 2, 3] {
            let produced = Arc::new(AtomicU64::new(0));
            let counter = Arc::clone(&produced);
            let mut left = 10;
            let src = move || {
                (left > 0).then(|| {
                    left -= 1;
                    counter.fetch_add(1, Ordering::SeqCst);
                    Mat::zeros(2, 2)
                })
            };
            let link = fast_link();
            let mut s =
                ChunkStream::spawn(src, link, SimClock::new(), Trace::new(false), buffers, true)
                    .unwrap();
            let mut taken = 0;
            while let Some(_chunk) = s.next().unwrap() {
                taken += 1;
                std::thread::sleep(Duration::from_millis(3));
                let alive = produced.load(Ordering::SeqCst) - taken + 1;
                assert!(
                    alive <= buffers.max(2) as u64,
                    "{alive} chunks, {buffers} slots"
                );
            }
            assert_eq!(taken, 10);
        }
    }

    #[test]
    fn dropping_stream_early_does_not_hang() {
        let src = VecSource::new(chunks(100, 50, 50));
        let mut s = ChunkStream::spawn(
            src,
            fast_link(),
            SimClock::new(),
            Trace::new(false),
            1,
            true,
        )
        .unwrap();
        let _ = s.next();
        drop(s); // must join the loader without deadlock
    }

    #[test]
    fn transient_faults_are_retried_and_chunks_redelivered_in_order() {
        let src = FlakySource {
            chunks: chunks(4, 4, 4),
            next: 0,
            faults: vec![
                (1, SourceFault::Transient("io hiccup".into())),
                (3, SourceFault::Transient("io hiccup".into())),
            ],
            panics: vec![],
        };
        let mut s = ChunkStream::spawn_opts(
            src,
            fast_link(),
            SimClock::new(),
            Trace::new(false),
            StreamOptions {
                retry: fast_retry(),
                ..StreamOptions::default()
            },
        )
        .unwrap();
        for i in 0..4 {
            let c = s.next().unwrap().expect("chunk");
            assert_eq!(c.get(0, 0), i as f32, "chunk {i} out of order");
        }
        assert!(s.next().unwrap().is_none());
        let st = s.stats();
        assert_eq!(st.retries, 2);
        assert_eq!(st.dropped, 0);
        let events = s.take_retry_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].chunk, 1);
        assert_eq!(events[1].chunk, 3);
        assert!(events[0].fault.contains("io hiccup"));
    }

    #[test]
    fn loader_panics_are_caught_retried_and_joined_safely() {
        let src = FlakySource {
            chunks: chunks(3, 4, 4),
            next: 0,
            faults: vec![],
            panics: vec![0, 2],
        };
        let mut s = ChunkStream::spawn_opts(
            src,
            fast_link(),
            SimClock::new(),
            Trace::new(false),
            StreamOptions {
                retry: fast_retry(),
                ..StreamOptions::default()
            },
        )
        .unwrap();
        for i in 0..3 {
            let c = s.next().unwrap().expect("chunk");
            assert_eq!(c.get(0, 0), i as f32);
        }
        assert!(s.next().unwrap().is_none());
        let st = s.stats();
        assert_eq!(st.retries, 2);
        let events = s.take_retry_events();
        assert!(events.iter().all(|e| e.fault.contains("loader panicked")));
        drop(s); // join must absorb nothing — the loader caught its panics
    }

    #[test]
    fn exhausted_retries_surface_a_typed_fault() {
        // Chunk 1 faults more times than the policy allows.
        let src = FlakySource {
            chunks: chunks(3, 4, 4),
            next: 0,
            faults: (0..10)
                .map(|_| (1usize, SourceFault::Transient("dead disk".into())))
                .collect(),
            panics: vec![],
        };
        let mut s = ChunkStream::spawn_opts(
            src,
            fast_link(),
            SimClock::new(),
            Trace::new(false),
            StreamOptions {
                retry: RetryPolicy {
                    max_retries: 2,
                    ..fast_retry()
                },
                ..StreamOptions::default()
            },
        )
        .unwrap();
        assert!(s.next().unwrap().is_some()); // chunk 0 is fine
        match s.next() {
            Err(StreamError::Fault(SourceFault::Transient(msg))) => {
                assert!(msg.contains("dead disk"))
            }
            other => panic!("expected exhausted-retries fault, got {other:?}"),
        }
        let st = s.stats();
        assert_eq!(st.retries, 2);
        assert_eq!(st.dropped, 1);
        drop(s); // loader already exited; drop must not hang
    }

    #[test]
    fn fatal_faults_are_not_retried() {
        let src = FlakySource {
            chunks: chunks(2, 4, 4),
            next: 0,
            faults: vec![(0, SourceFault::Fatal("file deleted".into()))],
            panics: vec![],
        };
        let mut s = ChunkStream::spawn_opts(
            src,
            fast_link(),
            SimClock::new(),
            Trace::new(false),
            StreamOptions {
                retry: fast_retry(),
                ..StreamOptions::default()
            },
        )
        .unwrap();
        match s.next() {
            Err(StreamError::Fault(SourceFault::Fatal(_))) => {}
            other => panic!("expected fatal fault, got {other:?}"),
        }
        assert_eq!(s.stats().retries, 0);
        assert_eq!(s.stats().dropped, 1);
    }

    #[test]
    fn corrupted_chunks_are_detected_and_rerequested() {
        // A source that mangles chunk 1's payload (keeping the pristine
        // checksum) exactly once; the loader must reject and re-request it.
        struct CorruptOnce {
            chunks: Vec<Mat>,
            next: usize,
            corrupted: bool,
        }
        impl ChunkSource for CorruptOnce {
            fn next_chunk(&mut self) -> Result<Option<Chunk>, SourceFault> {
                let Some(data) = self.chunks.get(self.next).cloned() else {
                    return Ok(None);
                };
                if self.next == 1 && !self.corrupted {
                    self.corrupted = true;
                    let crc = Chunk::checksum(&data);
                    let mut bad = data;
                    let flipped = bad.get(0, 0) + 64.0;
                    bad.set(0, 0, flipped);
                    return Ok(Some(Chunk {
                        data: bad,
                        crc: Some(crc),
                    }));
                }
                self.next += 1;
                Ok(Some(Chunk::with_crc(data)))
            }
        }
        let src = CorruptOnce {
            chunks: chunks(3, 4, 4),
            next: 0,
            corrupted: false,
        };
        let mut s = ChunkStream::spawn_opts(
            src,
            fast_link(),
            SimClock::new(),
            Trace::new(false),
            StreamOptions {
                retry: fast_retry(),
                ..StreamOptions::default()
            },
        )
        .unwrap();
        for i in 0..3 {
            let c = s.next().unwrap().expect("chunk");
            assert_eq!(c.get(0, 0), i as f32, "chunk {i} corrupted or reordered");
        }
        assert!(s.next().unwrap().is_none());
        let st = s.stats();
        assert_eq!(st.retries, 1);
        let events = s.take_retry_events();
        assert!(events[0].fault.contains("checksum"), "{events:?}");
    }

    #[test]
    fn deadline_turns_a_hung_source_into_a_typed_timeout() {
        let mut sent = false;
        let src = move || {
            if sent {
                // Hang long enough to blow the deadline, then finish so the
                // drop-side join below terminates promptly.
                std::thread::sleep(Duration::from_millis(400));
                None
            } else {
                sent = true;
                Some(Mat::zeros(2, 2))
            }
        };
        let mut s = ChunkStream::spawn_opts(
            src,
            fast_link(),
            SimClock::new(),
            Trace::new(false),
            StreamOptions {
                deadline: Some(Duration::from_millis(50)),
                ..StreamOptions::default()
            },
        )
        .unwrap();
        assert!(s.next().unwrap().is_some());
        match s.next() {
            Err(StreamError::Timeout { chunk, .. }) => assert_eq!(chunk, 1),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(s.stats().timeouts, 1);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let retry = RetryPolicy {
            seed: 42,
            ..RetryPolicy::default()
        };
        for chunk in 0..4u64 {
            for attempt in 0..4u32 {
                let a = retry.backoff(chunk, attempt);
                let b = retry.backoff(chunk, attempt);
                assert_eq!(a, b, "jitter must be a pure function of its inputs");
                let nominal = (retry.base_backoff.as_secs_f64() * 2f64.powi(attempt as i32))
                    .min(retry.max_backoff.as_secs_f64());
                let f = a.as_secs_f64() / nominal;
                assert!((0.5..1.5).contains(&f), "jitter factor {f} out of range");
            }
        }
        // Different seeds shift the schedule.
        let other = RetryPolicy {
            seed: 43,
            ..RetryPolicy::default()
        };
        assert_ne!(retry.backoff(0, 0), other.backoff(0, 0));
    }

    #[test]
    fn checksum_is_bit_exact() {
        let a = Mat::full(3, 3, 1.25);
        let mut b = a.clone();
        assert_eq!(Chunk::checksum(&a), Chunk::checksum(&b));
        b.set(2, 2, 1.2500001);
        assert_ne!(Chunk::checksum(&a), Chunk::checksum(&b));
        // Shape participates: same payload, different dims.
        let c = Mat::full(1, 9, 1.25);
        assert_ne!(Chunk::checksum(&a), Chunk::checksum(&c));
    }
}
