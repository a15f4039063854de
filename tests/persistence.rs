//! Hostile-input and crash-safety tests for the persistence layer.
//!
//! Model and checkpoint files are the one thing a long run leaves behind,
//! so the loaders must survive anything the filesystem can throw at them:
//! truncation at every byte, arbitrary single-byte corruption, dimension
//! fields rewritten to absurd values. The contract is `InvalidData` (or
//! `UnexpectedEof`) — never a panic, never an attempt to allocate a
//! corrupt header's worth of memory.
//!
//! The atomic-write contract is exercised the same way: a writer that
//! fails mid-save must leave the previous file byte-for-byte intact and
//! clean up its temporary.

use micdnn::train::{AeModel, RbmModel};
use micdnn::{
    atomic_write, load_autoencoder, load_checkpoint, load_checkpoint_file, load_rbm,
    save_autoencoder, save_autoencoder_file, save_checkpoint, save_checkpoint_file, save_rbm,
    AeConfig, Optimizer, Rbm, RbmConfig, Rule, Schedule, SparseAutoencoder, TestDir, TrainProgress,
};
use std::io::{self, Write};
use std::path::PathBuf;

fn sample_ae() -> SparseAutoencoder {
    SparseAutoencoder::new(AeConfig::new(12, 7), 3)
}

fn sample_rbm() -> Rbm {
    Rbm::new(RbmConfig::new(10, 6).with_cd_steps(2), 7)
}

fn sample_checkpoint_bytes() -> Vec<u8> {
    let cfg = AeConfig::new(8, 5);
    let opt = Optimizer::new(
        Rule::Momentum { mu: 0.9 },
        Schedule::Step {
            base: 0.2,
            factor: 0.5,
            every: 100,
        },
        &SparseAutoencoder::optimizer_slots(&cfg),
    );
    let model = AeModel::new(SparseAutoencoder::new(cfg, 3)).with_optimizer(opt);
    let progress = TrainProgress {
        layer: 1,
        epoch: 2,
        batches: 34,
        examples: 850,
    };
    let mut buf = Vec::new();
    save_checkpoint(&mut buf, &model, 42, 17, &progress).unwrap();
    buf
}

// ---- corruption never panics --------------------------------------------

#[test]
fn ae_file_survives_any_single_byte_flip() {
    let mut clean = Vec::new();
    save_autoencoder(&sample_ae(), &mut clean).unwrap();
    for i in 0..clean.len() {
        let mut buf = clean.clone();
        buf[i] ^= 0xFF;
        // Ok (a flipped weight byte is still a valid file) or InvalidData /
        // UnexpectedEof — but never a panic and never a huge allocation.
        let _ = load_autoencoder(&mut buf.as_slice());
    }
}

#[test]
fn rbm_file_survives_any_single_byte_flip() {
    let mut clean = Vec::new();
    save_rbm(&sample_rbm(), &mut clean).unwrap();
    for i in 0..clean.len() {
        let mut buf = clean.clone();
        buf[i] ^= 0xFF;
        let _ = load_rbm(&mut buf.as_slice());
    }
}

#[test]
fn checkpoint_survives_any_single_byte_flip() {
    let clean = sample_checkpoint_bytes();
    for i in 0..clean.len() {
        let mut buf = clean.clone();
        buf[i] ^= 0xFF;
        let _ = load_checkpoint(&mut buf.as_slice());
    }
}

#[test]
fn every_truncation_is_rejected() {
    let mut ae = Vec::new();
    save_autoencoder(&sample_ae(), &mut ae).unwrap();
    for len in 0..ae.len() {
        assert!(
            load_autoencoder(&mut &ae[..len]).is_err(),
            "truncation to {len} bytes loaded"
        );
    }
    let ckpt = sample_checkpoint_bytes();
    for len in 0..ckpt.len() {
        assert!(
            load_checkpoint(&mut &ckpt[..len]).is_err(),
            "checkpoint truncated to {len} bytes loaded"
        );
    }
}

// ---- header-derived sizes are capped before allocation ------------------

#[test]
fn absurd_dimensions_rejected_without_allocating() {
    // MAGIC + AE tag + n_visible = u64::MAX: must fail on the dimension
    // check, not by trying to build the tensor.
    let mut buf = b"MICDNN01\x01".to_vec();
    buf.extend_from_slice(&u64::MAX.to_le_bytes());
    buf.extend_from_slice(&7u64.to_le_bytes());
    let err = load_autoencoder(&mut buf.as_slice()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("out of range"), "{err}");
}

#[test]
fn oversized_tensor_product_rejected() {
    // Each dimension individually passes the per-dim cap, but their
    // product exceeds the element cap.
    let big = 1u64 << 24;
    let mut buf = b"MICDNN01\x01".to_vec();
    buf.extend_from_slice(&big.to_le_bytes());
    buf.extend_from_slice(&big.to_le_bytes());
    let err = load_autoencoder(&mut buf.as_slice()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("cap"), "{err}");
}

#[test]
fn corrupt_tensor_length_rejected_before_allocation() {
    let mut buf = Vec::new();
    save_autoencoder(&sample_ae(), &mut buf).unwrap();
    // First tensor's length prefix: magic(8) + tag(1) + dims(16) +
    // f32 config(12) + mat rows/cols(16).
    let off = 8 + 1 + 16 + 12 + 16;
    buf[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let err = load_autoencoder(&mut buf.as_slice()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("length"), "{err}");
}

#[test]
fn absurd_cd_steps_rejected() {
    let mut buf = b"MICDNN01\x02".to_vec();
    buf.extend_from_slice(&10u64.to_le_bytes());
    buf.extend_from_slice(&6u64.to_le_bytes());
    buf.extend_from_slice(&u64::MAX.to_le_bytes());
    let err = load_rbm(&mut buf.as_slice()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("cd_steps"), "{err}");
}

// ---- type and header confusion ------------------------------------------

#[test]
fn bad_magic_rejected_everywhere() {
    let buf = b"NOTAMODELxxxxxxxxxxxxxxx".to_vec();
    assert!(load_autoencoder(&mut buf.as_slice()).is_err());
    assert!(load_rbm(&mut buf.as_slice()).is_err());
    let err = load_checkpoint(&mut buf.as_slice()).unwrap_err();
    assert!(err.to_string().contains("magic"), "{err}");
}

#[test]
fn model_and_checkpoint_tags_do_not_cross_load() {
    let mut ae = Vec::new();
    save_autoencoder(&sample_ae(), &mut ae).unwrap();
    assert!(load_checkpoint(&mut ae.as_slice()).is_err());
    assert!(load_rbm(&mut ae.as_slice()).is_err());
    let ckpt = sample_checkpoint_bytes();
    assert!(load_autoencoder(&mut ckpt.as_slice()).is_err());
}

#[test]
fn checkpoint_with_unknown_embedded_model_rejected() {
    let mut buf = sample_checkpoint_bytes();
    // Embedded model tag: outer header (9) + version/seed/cursor/progress
    // (7 * 8) + embedded magic (8).
    let off = 9 + 7 * 8 + 8;
    buf[off] = 9;
    let err = load_checkpoint(&mut buf.as_slice()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("model tag"), "{err}");
}

// ---- atomic writes --------------------------------------------------------

/// A writer that forwards `limit` bytes and then fails, standing in for a
/// full disk or a killed process.
struct FailAfter<'a> {
    inner: &'a mut dyn Write,
    left: usize,
}

impl Write for FailAfter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::Error::other("injected write failure"));
        }
        let n = buf.len().min(self.left);
        self.left -= n;
        self.inner.write(&buf[..n])
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[test]
fn failed_save_leaves_previous_model_intact() {
    let dir = TestDir::new("persist-atomic-model");
    let path = dir.file("model.bin");

    let original = sample_ae();
    save_autoencoder_file(&original, &path).unwrap();
    let before = std::fs::read(&path).unwrap();

    // A second save dies partway through serializing a different model.
    let other = SparseAutoencoder::new(AeConfig::new(12, 7), 99);
    for limit in [0, 1, 8, 64, 200] {
        let err = atomic_write(&path, |w| {
            let mut failing = FailAfter {
                inner: w,
                left: limit,
            };
            save_autoencoder(&other, &mut failing)
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "injected write failure");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "failed save at limit {limit} damaged the previous file"
        );
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(
            !PathBuf::from(tmp).exists(),
            "temporary left behind at limit {limit}"
        );
    }

    // The surviving file still loads to the original weights.
    let back = micdnn::load_autoencoder_file(&path).unwrap();
    assert_eq!(back.w1.as_slice(), original.w1.as_slice());
}

#[test]
fn failed_checkpoint_write_leaves_previous_checkpoint_loadable() {
    let dir = TestDir::new("persist-atomic-ckpt");
    let file = dir.file("ckpt/checkpoint.mic");

    let model = AeModel::new(sample_ae());
    let progress = TrainProgress {
        layer: 0,
        epoch: 4,
        batches: 32,
        examples: 800,
    };
    save_checkpoint_file(&file, &model, 7, 19, &progress).unwrap();

    let err = atomic_write(&file, |w| {
        let mut failing = FailAfter { inner: w, left: 40 };
        save_checkpoint(&mut failing, &model, 8, 20, &TrainProgress::default())
    })
    .unwrap_err();
    assert_eq!(err.to_string(), "injected write failure");

    let back = load_checkpoint_file(&file).unwrap();
    assert_eq!(back.rng_seed, 7);
    assert_eq!(back.rng_cursor, 19);
    assert_eq!(back.progress, progress);
}

#[test]
fn successful_save_leaves_no_temporary() {
    let dir = TestDir::new("persist-atomic-clean");
    let path = dir.file("model.bin");
    save_autoencoder_file(&sample_ae(), &path).unwrap();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    assert!(!PathBuf::from(tmp).exists());
}

#[test]
fn checkpoint_file_round_trips_momentum_rbm() {
    let dir = TestDir::new("persist-rbm-ckpt");
    let file = dir.file("ckpt/checkpoint.mic");
    let model = RbmModel::new(sample_rbm());
    let progress = TrainProgress {
        layer: 2,
        epoch: 1,
        batches: 9,
        examples: 225,
    };
    save_checkpoint_file(&file, &model, 3, 5, &progress).unwrap();
    let back = load_checkpoint_file(&file).unwrap();
    assert_eq!(back.progress, progress);
    let restored = back.into_rbm().expect("RBM checkpoint");
    assert_eq!(restored.rbm.w.as_slice(), model.rbm.w.as_slice());
    assert_eq!(restored.rbm.config().cd_steps, 2);
}
