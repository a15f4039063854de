//! Model persistence.
//!
//! Pre-training at the paper's scale takes hours even on the coprocessor
//! (Table I); a library users would adopt must be able to save the result.
//! This module defines a small, versioned, self-describing binary format
//! (little-endian, length-prefixed tensors) for the two building blocks
//! and their stacks. Round-trips are bit-exact.

use crate::autoencoder::{AeConfig, SparseAutoencoder};
use crate::rbm::{Rbm, RbmConfig};
use micdnn_tensor::Mat;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

pub(crate) const MAGIC: &[u8; 8] = b"MICDNN01";

pub(crate) const TAG_AE: u8 = 1;
pub(crate) const TAG_RBM: u8 = 2;
pub(crate) const TAG_CKPT: u8 = 3;
pub(crate) const TAG_MDP: u8 = 4;
pub(crate) const TAG_CNN: u8 = 5;
pub(crate) const TAG_SUP: u8 = 6;
pub(crate) const TAG_FT: u8 = 7;

/// Upper bound on any single header-derived dimension. Well above the
/// paper's largest layer (16384) but small enough that a corrupt header
/// cannot drive a pathological allocation on its own.
pub(crate) const MAX_DIM: usize = 1 << 24;

/// Upper bound on total elements in one tensor (1 GiB of f32). Dimensions
/// are validated against this *before* any buffer is allocated.
pub(crate) const MAX_ELEMS: usize = 1 << 28;

/// Floats moved per bulk I/O call; tensors stream through a byte buffer of
/// this granularity instead of one syscall-visible write per `f32`.
const IO_CHUNK_FLOATS: usize = 16 * 1024;

pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A tensor on disk whose dimensions disagree with what the enclosing
/// record's header promised. Carried as the payload of an
/// [`io::ErrorKind::InvalidData`] error so layered loaders (the checkpoint
/// front door in particular) can recover the structured facts instead of
/// string-matching a message. Vectors are reported as `(len, 1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeMismatch {
    /// Which named tensor disagreed (`"w1"`, `"b_vis"`, ...).
    pub layer: String,
    /// `(rows, cols)` the header-derived model geometry requires.
    pub expected: (usize, usize),
    /// `(rows, cols)` actually found on disk.
    pub found: (usize, usize),
}

impl std::fmt::Display for ShapeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "layer `{}`: shape {}x{} on disk, model expects {}x{}",
            self.layer, self.found.0, self.found.1, self.expected.0, self.expected.1
        )
    }
}

impl std::error::Error for ShapeMismatch {}

/// Validates a header-derived dimension before it is used to size anything.
pub(crate) fn checked_dim(v: u64, what: &str) -> io::Result<usize> {
    if v == 0 || v > MAX_DIM as u64 {
        return Err(bad(format!("{what} {v} out of range (1..={MAX_DIM})")));
    }
    Ok(v as usize)
}

/// Validates a tensor element count derived from already-checked dims.
pub(crate) fn checked_elems(rows: usize, cols: usize) -> io::Result<usize> {
    match rows.checked_mul(cols) {
        Some(n) if n <= MAX_ELEMS => Ok(n),
        _ => Err(bad(format!(
            "tensor {rows}x{cols} exceeds the {MAX_ELEMS}-element cap"
        ))),
    }
}

pub(crate) fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

pub(crate) fn write_f32(w: &mut impl Write, v: f32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_f32(r: &mut impl Read) -> io::Result<f32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(f32::from_le_bytes(buf))
}

pub(crate) fn write_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(f64::from_le_bytes(buf))
}

pub(crate) fn write_slice(w: &mut impl Write, s: &[f32]) -> io::Result<()> {
    write_u64(w, s.len() as u64)?;
    // Bulk little-endian: pack a chunk of floats into one byte buffer and
    // issue a single write_all per chunk. The wire bytes are identical to
    // the per-element encoding (pinned by the golden-file tests).
    let mut buf = Vec::with_capacity(4 * IO_CHUNK_FLOATS.min(s.len().max(1)));
    for chunk in s.chunks(IO_CHUNK_FLOATS) {
        buf.clear();
        for &v in chunk {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Reads a length-prefixed tensor that must hold `expect` floats.
pub(crate) fn read_vec(
    r: &mut impl Read,
    layer: Option<&str>,
    expect: usize,
) -> io::Result<Vec<f32>> {
    // Validate the on-disk length against the caller's expectation *before*
    // allocating: a corrupt length field must never size a buffer.
    let len = read_u64(r)?;
    if len != expect as u64 {
        let plain = || format!("tensor length {len}, expected {expect}");
        return Err(shape_error(layer, (expect, 1), (len as usize, 1), plain));
    }
    let mut out = Vec::with_capacity(expect);
    let mut buf = vec![0u8; 4 * IO_CHUNK_FLOATS.min(expect.max(1))];
    let mut remaining = expect;
    while remaining > 0 {
        let n = remaining.min(IO_CHUNK_FLOATS);
        let bytes = &mut buf[..4 * n];
        r.read_exact(bytes)?;
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        remaining -= n;
    }
    Ok(out)
}

pub(crate) fn write_mat(w: &mut impl Write, m: &Mat) -> io::Result<()> {
    write_u64(w, m.rows() as u64)?;
    write_u64(w, m.cols() as u64)?;
    write_slice(w, m.as_slice())
}

/// Reads a `rows x cols` matrix record.
pub(crate) fn read_mat(
    r: &mut impl Read,
    layer: Option<&str>,
    rows: usize,
    cols: usize,
) -> io::Result<Mat> {
    let got_rows = read_u64(r)? as usize;
    let got_cols = read_u64(r)? as usize;
    if (got_rows, got_cols) != (rows, cols) {
        let plain = || format!("matrix shape {got_rows}x{got_cols}, expected {rows}x{cols}");
        return Err(shape_error(
            layer,
            (rows, cols),
            (got_rows, got_cols),
            plain,
        ));
    }
    let data = read_vec(r, None, checked_elems(rows, cols)?)?;
    Mat::from_vec(rows, cols, data).map_err(|e| bad(e.to_string()))
}

/// The error for a tensor found `found` on disk where `expected` was due: a
/// structured [`ShapeMismatch`] naming `layer` when the caller named one,
/// else the bare `plain` message.
fn shape_error(
    layer: Option<&str>,
    expected: (usize, usize),
    found: (usize, usize),
    plain: impl FnOnce() -> String,
) -> io::Error {
    match layer {
        Some(layer) => {
            let layer = layer.to_string();
            io::Error::new(
                io::ErrorKind::InvalidData,
                ShapeMismatch {
                    layer,
                    expected,
                    found,
                },
            )
        }
        None => bad(plain()),
    }
}

pub(crate) fn write_header(w: &mut impl Write, tag: u8) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[tag])
}

/// Reads the container magic and returns the type tag, for callers that
/// dispatch on it (the checkpoint loader embeds either model type).
pub(crate) fn read_any_header(r: &mut impl Read) -> io::Result<u8> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a micdnn model file (bad magic)"));
    }
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    Ok(tag[0])
}

pub(crate) fn read_header(r: &mut impl Read, want_tag: u8) -> io::Result<()> {
    let tag = read_any_header(r)?;
    if tag != want_tag {
        return Err(bad(format!(
            "model type tag {tag} does not match expected {want_tag}"
        )));
    }
    Ok(())
}

/// Writes a file atomically: the payload goes to `<path>.tmp`, is flushed
/// and fsynced, and only then renamed over `path`. A crash, full disk, or
/// failing writer mid-save leaves any previous file at `path` untouched.
///
/// The temporary's name is fixed, so there must be **one writer per
/// destination path** at a time: two concurrent calls for the same `path`
/// would share `<path>.tmp` and could rename each other's partial payload
/// into place. Every writer in this crate owns its destination (one
/// trainer per checkpoint directory, one supervisor per ladder file), and
/// `tests/persistence.rs` relies on the name to check that no temporary
/// is left behind.
pub fn atomic_write(
    path: impl AsRef<Path>,
    f: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    let written = (|| {
        let mut w = BufWriter::new(File::create(&tmp)?);
        f(&mut w)?;
        w.flush()?;
        w.get_ref().sync_all()
    })();
    match written.and_then(|()| std::fs::rename(&tmp, path)) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Serializes a sparse autoencoder.
pub fn save_autoencoder(ae: &SparseAutoencoder, w: &mut impl Write) -> io::Result<()> {
    let cfg = ae.config();
    write_header(w, TAG_AE)?;
    write_u64(w, cfg.n_visible as u64)?;
    write_u64(w, cfg.n_hidden as u64)?;
    write_f32(w, cfg.weight_decay)?;
    write_f32(w, cfg.sparsity_target)?;
    write_f32(w, cfg.sparsity_weight)?;
    write_mat(w, &ae.w1)?;
    write_mat(w, &ae.w2)?;
    write_slice(w, &ae.b1)?;
    write_slice(w, &ae.b2)
}

/// Deserializes a sparse autoencoder.
pub fn load_autoencoder(r: &mut impl Read) -> io::Result<SparseAutoencoder> {
    read_header(r, TAG_AE)?;
    read_autoencoder_body(r)
}

/// Reads an autoencoder record after the container header has already been
/// consumed (the checkpoint loader dispatches on the embedded tag itself).
pub(crate) fn read_autoencoder_body(r: &mut impl Read) -> io::Result<SparseAutoencoder> {
    let n_visible = checked_dim(read_u64(r)?, "n_visible")?;
    let n_hidden = checked_dim(read_u64(r)?, "n_hidden")?;
    checked_elems(n_hidden, n_visible)?;
    let cfg = AeConfig {
        n_visible,
        n_hidden,
        weight_decay: read_f32(r)?,
        sparsity_target: read_f32(r)?,
        sparsity_weight: read_f32(r)?,
    };
    let mut ae = SparseAutoencoder::new(cfg, 0);
    ae.w1 = read_mat(r, Some("w1"), n_hidden, n_visible)?;
    ae.w2 = read_mat(r, Some("w2"), n_visible, n_hidden)?;
    ae.b1 = read_vec(r, Some("b1"), n_hidden)?;
    ae.b2 = read_vec(r, Some("b2"), n_visible)?;
    Ok(ae)
}

/// Serializes an RBM.
pub fn save_rbm(rbm: &Rbm, w: &mut impl Write) -> io::Result<()> {
    let cfg = rbm.config();
    write_header(w, TAG_RBM)?;
    write_u64(w, cfg.n_visible as u64)?;
    write_u64(w, cfg.n_hidden as u64)?;
    write_u64(w, cfg.cd_steps as u64)?;
    write_mat(w, &rbm.w)?;
    write_slice(w, &rbm.b_vis)?;
    write_slice(w, &rbm.c_hid)
}

/// Deserializes an RBM.
pub fn load_rbm(r: &mut impl Read) -> io::Result<Rbm> {
    read_header(r, TAG_RBM)?;
    read_rbm_body(r)
}

/// Reads an RBM record after the container header has been consumed.
pub(crate) fn read_rbm_body(r: &mut impl Read) -> io::Result<Rbm> {
    let n_visible = checked_dim(read_u64(r)?, "n_visible")?;
    let n_hidden = checked_dim(read_u64(r)?, "n_hidden")?;
    let cd_steps = read_u64(r)?;
    if cd_steps == 0 || cd_steps > 1 << 16 {
        return Err(bad(format!("cd_steps {cd_steps} out of range")));
    }
    checked_elems(n_hidden, n_visible)?;
    let cfg = RbmConfig::new(n_visible, n_hidden).with_cd_steps(cd_steps as usize);
    let mut rbm = Rbm::new(cfg, 0);
    rbm.w = read_mat(r, Some("w"), n_hidden, n_visible)?;
    rbm.b_vis = read_vec(r, Some("b_vis"), n_visible)?;
    rbm.c_hid = read_vec(r, Some("c_hid"), n_hidden)?;
    Ok(rbm)
}

/// Saves a sparse autoencoder to a file (atomic tmp+rename).
pub fn save_autoencoder_file(ae: &SparseAutoencoder, path: impl AsRef<Path>) -> io::Result<()> {
    atomic_write(path, |mut w| save_autoencoder(ae, &mut w))
}

/// Loads a sparse autoencoder from a file.
pub fn load_autoencoder_file(path: impl AsRef<Path>) -> io::Result<SparseAutoencoder> {
    load_autoencoder(&mut BufReader::new(File::open(path)?))
}

/// Saves an RBM to a file (atomic tmp+rename).
pub fn save_rbm_file(rbm: &Rbm, path: impl AsRef<Path>) -> io::Result<()> {
    atomic_write(path, |mut w| save_rbm(rbm, &mut w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecCtx, OptLevel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained_ae() -> SparseAutoencoder {
        let cfg = AeConfig::new(12, 7);
        let mut ae = SparseAutoencoder::new(cfg, 3);
        let ctx = ExecCtx::native(OptLevel::Improved, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let x = Mat::from_fn(16, 12, |_, _| rng.gen_range(0.2..0.8));
        let mut scratch = crate::autoencoder::AeScratch::new(&cfg, 16);
        for _ in 0..5 {
            ae.train_batch(&ctx, x.view(), &mut scratch, 0.3);
        }
        ae
    }

    #[test]
    fn ae_round_trip_bit_exact() {
        let ae = trained_ae();
        let mut buf = Vec::new();
        save_autoencoder(&ae, &mut buf).unwrap();
        let back = load_autoencoder(&mut buf.as_slice()).unwrap();
        assert_eq!(ae.w1.as_slice(), back.w1.as_slice());
        assert_eq!(ae.w2.as_slice(), back.w2.as_slice());
        assert_eq!(ae.b1, back.b1);
        assert_eq!(ae.b2, back.b2);
        assert_eq!(ae.config(), back.config());
    }

    #[test]
    fn loaded_model_behaves_identically() {
        let ae = trained_ae();
        let mut buf = Vec::new();
        save_autoencoder(&ae, &mut buf).unwrap();
        let back = load_autoencoder(&mut buf.as_slice()).unwrap();
        let ctx = ExecCtx::native(OptLevel::Improved, 0);
        let mut rng = StdRng::seed_from_u64(6);
        let x = Mat::from_fn(5, 12, |_, _| rng.gen_range(0.2..0.8));
        let a = ae.encode(&ctx, x.view());
        let b = back.encode(&ctx, x.view());
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn rbm_round_trip_bit_exact() {
        let cfg = RbmConfig::new(10, 6).with_cd_steps(2);
        let rbm = Rbm::new(cfg, 7);
        let mut buf = Vec::new();
        save_rbm(&rbm, &mut buf).unwrap();
        let back = load_rbm(&mut buf.as_slice()).unwrap();
        assert_eq!(rbm.w.as_slice(), back.w.as_slice());
        assert_eq!(rbm.b_vis, back.b_vis);
        assert_eq!(rbm.c_hid, back.c_hid);
        assert_eq!(back.config().cd_steps, 2);
    }

    #[test]
    fn file_round_trip() {
        let dir = crate::TestDir::new("model-io");
        let path = dir.file("model.bin");
        let ae = trained_ae();
        save_autoencoder_file(&ae, &path).unwrap();
        let back = load_autoencoder_file(&path).unwrap();
        assert_eq!(ae.w1.as_slice(), back.w1.as_slice());
    }

    #[test]
    fn wrong_magic_rejected() {
        let buf = b"NOTMODEL".to_vec();
        let err = load_autoencoder(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("magic") || err.kind() == io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn wrong_model_type_rejected() {
        let cfg = RbmConfig::new(4, 3);
        let rbm = Rbm::new(cfg, 1);
        let mut buf = Vec::new();
        save_rbm(&rbm, &mut buf).unwrap();
        let err = load_autoencoder(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("type tag"));
    }

    #[test]
    fn truncated_file_rejected() {
        let ae = trained_ae();
        let mut buf = Vec::new();
        save_autoencoder(&ae, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load_autoencoder(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn corrupted_shape_rejected() {
        let ae = trained_ae();
        let mut buf = Vec::new();
        save_autoencoder(&ae, &mut buf).unwrap();
        // Corrupt the first matrix's row count (after magic+tag+cfg).
        let off = 8 + 1 + 8 + 8 + 4 + 4 + 4;
        buf[off] = buf[off].wrapping_add(1);
        assert!(load_autoencoder(&mut buf.as_slice()).is_err());
    }
}
