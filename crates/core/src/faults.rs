//! Deterministic fault injection — named failpoints behind the opt-in
//! `failpoints` cargo feature.
//!
//! A failpoint is a named site in the training stack that can be armed to
//! misbehave a configured number of times. Sites are configured with a
//! `count[@from]` spec: fire `count` times starting at the `from`-th
//! execution of the site (0-based). Arming is process-global — tests that
//! configure failpoints must serialize themselves — and entirely absent
//! from release binaries built without the feature (`fire` compiles to a
//! constant `false`).
//!
//! Known sites (see DESIGN.md §4.3):
//!
//! | site           | effect                                                  |
//! |----------------|---------------------------------------------------------|
//! | `loader.read`  | the chunk source returns a transient read fault         |
//! | `loader.panic` | the chunk source panics (caught by the loading thread)  |
//! | `loader.crc`   | a chunk is delivered corrupted, with its pristine CRC   |
//! | `loader.stall` | the chunk source hangs long enough to miss the per-     |
//! |                | chunk delivery deadline (`TrainConfig::chunk_deadline`) |
//! | `kernel.nan`   | one chunk's payload is poisoned with a NaN              |
//! | `cnn.nan`      | one CNN training step reports NaN before any state      |
//! |                | advances (trips the divergence sentinel)                |
//! | `finetune.nan` | one fine-tune training step reports NaN before any      |
//! |                | state advances (trips the divergence sentinel)          |
//! | `ckpt.write`   | a checkpoint write fails with an I/O error              |
//! | `ckpt.read`    | a checkpoint/snapshot read fails with a typed error     |
//! |                | (resume falls back to the previous snapshot)            |
//! | `device.oom`   | a device in the multi-device set runs out of memory and |
//! |                | drops offline; its shard re-lands on the survivors      |
//! | `link.drop`    | a gradient-sync transfer drops and is retried (extra    |
//! |                | modeled sync time, numerics unchanged)                  |
//!
//! All of these are exercised through `FaultInjectSource`, a wrapper any
//! [`micdnn_sim::ChunkSource`] passes through when the feature is enabled
//! (the trainer installs it automatically), plus a hook in the checkpoint
//! writer. The wrapper keeps the pristine chunk across an injected
//! corruption, so a retried delivery is bit-identical to a fault-free one.

/// How long an injected `loader.stall` sleeps the loading thread. Long
/// enough that any sub-50ms `chunk_deadline` reliably expires first.
#[cfg(feature = "failpoints")]
pub(crate) const STALL_MILLIS: u64 = 120;

#[cfg(feature = "failpoints")]
mod registry {
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    struct Plan {
        from: u64,
        count: u64,
        hits: u64,
    }

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static REGISTRY: Mutex<Option<HashMap<String, Plan>>> = Mutex::new(None);

    /// `count[@from]` → (count, from).
    fn parse_spec(spec: &str) -> Result<(u64, u64), String> {
        let (count_s, from_s) = match spec.split_once('@') {
            Some((c, f)) => (c, Some(f)),
            None => (spec, None),
        };
        let count = count_s
            .trim()
            .parse()
            .map_err(|_| format!("bad failpoint count `{count_s}` (want `count[@from]`)"))?;
        let from = match from_s {
            Some(f) => f
                .trim()
                .parse()
                .map_err(|_| format!("bad failpoint offset `{f}` (want `count[@from]`)"))?,
            None => 0,
        };
        Ok((count, from))
    }

    pub(crate) fn configure(site: &str, spec: &str) -> Result<(), String> {
        let (count, from) = parse_spec(spec)?;
        let mut reg = REGISTRY.lock();
        reg.get_or_insert_with(HashMap::new).insert(
            site.to_string(),
            Plan {
                from,
                count,
                hits: 0,
            },
        );
        ACTIVE.store(true, Ordering::SeqCst);
        Ok(())
    }

    pub(crate) fn clear_all() {
        *REGISTRY.lock() = None;
        ACTIVE.store(false, Ordering::SeqCst);
    }

    pub(crate) fn fire(site: &str) -> bool {
        if !ACTIVE.load(Ordering::Relaxed) {
            return false;
        }
        let mut reg = REGISTRY.lock();
        let Some(map) = reg.as_mut() else {
            return false;
        };
        let Some(plan) = map.get_mut(site) else {
            return false;
        };
        let hit = plan.hits;
        plan.hits += 1;
        hit >= plan.from && hit < plan.from.saturating_add(plan.count)
    }
}

/// Arms `site` with a `count[@from]` spec; replaces any previous plan for
/// the site. Hit counters start at zero when (re)configured.
#[cfg(feature = "failpoints")]
pub fn configure(site: &str, spec: &str) -> Result<(), String> {
    registry::configure(site, spec)
}

/// Disarms every failpoint and resets all hit counters.
#[cfg(feature = "failpoints")]
pub fn clear_all() {
    registry::clear_all()
}

/// Counts one execution of `site` and reports whether it should fail.
#[cfg(feature = "failpoints")]
pub(crate) fn fire(site: &str) -> bool {
    registry::fire(site)
}

/// Arms `site` with a `count[@from]` spec. Always an error in builds
/// without the `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
pub(crate) fn configure(_site: &str, _spec: &str) -> Result<(), String> {
    Err("fault injection requires a build with the `failpoints` feature".to_string())
}

/// Counts one execution of `site`; never fires without the feature.
#[cfg(not(feature = "failpoints"))]
#[inline]
pub(crate) fn fire(_site: &str) -> bool {
    false
}

/// Parses a CLI-style `site:spec[,site:spec...]` list and arms each entry.
pub fn configure_list(list: &str) -> Result<(), String> {
    for part in list.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (site, spec) = part
            .split_once(':')
            .ok_or_else(|| format!("bad --inject entry `{part}` (want site:count[@from])"))?;
        configure(site.trim(), spec.trim())?;
    }
    Ok(())
}

/// A [`micdnn_sim::ChunkSource`] wrapper that applies the armed loader
/// failpoints around an inner source, keeping the pristine chunk across an
/// injected fault so retried deliveries are bit-identical. A chunk's rows
/// may be lent from storage the caller still holds (a dataset's), so a
/// failpoint that changes a value writes into a copy of that chunk's rows
/// alone, never through the shared storage: a later pass, or the
/// supervisor's replay, reads the pristine rows.
#[cfg(feature = "failpoints")]
pub(crate) struct FaultInjectSource<S> {
    inner: S,
    /// Pristine chunk fetched from `inner` but not yet delivered clean
    /// (held across an injected corruption).
    pending: Option<micdnn_sim::SharedRows>,
    chunk_idx: u64,
}

#[cfg(feature = "failpoints")]
impl<S: micdnn_sim::ChunkSource> FaultInjectSource<S> {
    /// Wraps `inner`; injection is driven entirely by the armed registry.
    pub(crate) fn new(inner: S) -> Self {
        FaultInjectSource {
            inner,
            pending: None,
            chunk_idx: 0,
        }
    }
}

#[cfg(feature = "failpoints")]
impl<S: micdnn_sim::ChunkSource> micdnn_sim::ChunkSource for FaultInjectSource<S> {
    fn next_chunk(&mut self) -> Result<Option<micdnn_sim::Chunk>, micdnn_sim::SourceFault> {
        use micdnn_sim::{Chunk, SourceFault};
        if fire("loader.panic") {
            panic!("failpoint loader.panic at chunk {}", self.chunk_idx);
        }
        if fire("loader.stall") {
            // Runs on the loader thread: the consumer's recv_timeout on
            // the chunk channel expires first when a per-chunk deadline is
            // configured, surfacing as a typed StreamError::Timeout.
            std::thread::sleep(std::time::Duration::from_millis(STALL_MILLIS));
        }
        if fire("loader.read") {
            return Err(SourceFault::Transient(format!(
                "failpoint loader.read at chunk {}",
                self.chunk_idx
            )));
        }
        let data = match self.pending.take() {
            Some(rows) => rows,
            None => match self.inner.next_chunk()? {
                Some(c) => c.data,
                None => return Ok(None),
            },
        };
        // A copy of this chunk's rows with element (0, 0) replaced.
        let with_first = |f: fn(f32) -> f32| {
            let mut copy = data.view().to_mat();
            copy.set(0, 0, f(copy.get(0, 0)));
            copy
        };
        if fire("loader.crc") {
            // Deliver a bit-flipped copy stamped with the *pristine*
            // checksum; the loader rejects it and the retry re-delivers
            // the kept original.
            let crc = Chunk::checksum(data.view());
            let bad = with_first(|v| f32::from_bits(v.to_bits() ^ 0x0040_0000));
            self.pending = Some(data);
            return Ok(Some(Chunk {
                data: bad.into(),
                crc: Some(crc),
            }));
        }
        let data = if fire("kernel.nan") {
            // Poison the batch so the supervisor's divergence sentinel
            // trips downstream (the checksum is computed over the poisoned
            // payload, so delivery itself succeeds).
            with_first(|_| f32::NAN).into()
        } else {
            data
        };
        self.chunk_idx += 1;
        Ok(Some(Chunk::with_crc(data)))
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use micdnn_sim::{ChunkSource, SourceFault, VecSource};
    use micdnn_tensor::Mat;
    use parking_lot::Mutex;

    /// The registry is process-global; tests in this module serialize.
    static LOCK: Mutex<()> = Mutex::new(());

    fn mats(n: usize) -> Vec<Mat> {
        (0..n).map(|i| Mat::full(2, 2, i as f32)).collect()
    }

    #[test]
    fn specs_fire_count_times_from_offset() {
        let _g = LOCK.lock();
        clear_all();
        configure("loader.read", "2@1").unwrap();
        let fired: Vec<bool> = (0..5).map(|_| fire("loader.read")).collect();
        assert_eq!(fired, vec![false, true, true, false, false]);
        assert!(!fire("loader.crc"), "unconfigured sites never fire");
        clear_all();
        assert!(!fire("loader.read"));
    }

    #[test]
    fn bad_specs_are_rejected() {
        let _g = LOCK.lock();
        clear_all();
        assert!(configure("loader.read", "x").is_err());
        assert!(configure("loader.read", "1@y").is_err());
        assert!(configure_list("loader.read=1").is_err());
        configure_list("loader.read:1, kernel.nan:2@3").unwrap();
        clear_all();
    }

    #[test]
    fn inject_source_reproduces_the_pristine_chunk_after_corruption() {
        let _g = LOCK.lock();
        clear_all();
        configure("loader.crc", "1").unwrap();
        let mut src = FaultInjectSource::new(VecSource::new(mats(2)));
        // First delivery: corrupted payload, pristine checksum.
        let bad = src.next_chunk().unwrap().expect("chunk");
        assert_ne!(
            micdnn_sim::Chunk::checksum(bad.data.view()),
            bad.crc.unwrap(),
            "corruption must be detectable"
        );
        // Re-request (as the loader would): pristine bytes, matching crc.
        let good = src.next_chunk().unwrap().expect("chunk");
        assert_eq!(
            micdnn_sim::Chunk::checksum(good.data.view()),
            good.crc.unwrap()
        );
        assert_eq!(good.data.view().get(0, 0), 0.0);
        clear_all();
    }

    #[test]
    fn inject_source_read_faults_do_not_consume_chunks() {
        let _g = LOCK.lock();
        clear_all();
        configure("loader.read", "1").unwrap();
        let mut src = FaultInjectSource::new(VecSource::new(mats(2)));
        assert!(matches!(src.next_chunk(), Err(SourceFault::Transient(_))));
        let c = src.next_chunk().unwrap().expect("chunk");
        assert_eq!(c.data.view().get(0, 0), 0.0, "fault consumed a chunk");
        clear_all();
    }

    #[test]
    fn inject_source_nan_poisons_exactly_one_chunk() {
        let _g = LOCK.lock();
        clear_all();
        configure("kernel.nan", "1@1").unwrap();
        let mut src = FaultInjectSource::new(VecSource::new(mats(3)));
        let a = src.next_chunk().unwrap().expect("chunk");
        assert!(a.data.view().get(0, 0).is_finite());
        let b = src.next_chunk().unwrap().expect("chunk");
        assert!(b.data.view().get(0, 0).is_nan());
        let c = src.next_chunk().unwrap().expect("chunk");
        assert!(c.data.view().get(0, 0).is_finite());
        clear_all();
    }
}
