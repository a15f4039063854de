//! IDX file I/O — the container format of the MNIST handwritten-digit
//! corpus the paper trains on.
//!
//! The paper's digit data comes from "a large \[set\] of handwritten digit
//! images" (LeCun et al., its ref \[14\] lineage). Those images ship as IDX
//! files (`train-images-idx3-ubyte` etc.). This module reads that format
//! so users who *do* have the real corpus can feed it to the library,
//! while the synthetic [`crate::DigitGenerator`] covers everyone else. The
//! writer exists for the reader's tests, which round-trip exactly.
//!
//! Format: `[0, 0, type, ndims]` magic, `ndims` big-endian `u32`
//! dimensions, then row-major payload (big-endian for multi-byte types).

use micdnn_tensor::Mat;
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;

/// Element type codes defined by the IDX specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IdxType {
    /// Unsigned byte (0x08) — MNIST images and labels.
    U8,
    /// Big-endian IEEE 754 single (0x0D).
    F32,
}

impl IdxType {
    fn from_code(code: u8) -> io::Result<Self> {
        match code {
            0x08 => Ok(IdxType::U8),
            0x0D => Ok(IdxType::F32),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported IDX element type 0x{other:02X}"),
            )),
        }
    }
}

/// A decoded IDX file: dimensions plus flat f32 payload.
///
/// `u8` payloads are scaled to `[0, 1]` on load (the standard MNIST
/// preparation); `f32` payloads are passed through.
#[derive(Debug, Clone, PartialEq)]
pub struct IdxData {
    /// Dimension sizes, outermost first (e.g. `[60000, 28, 28]`).
    pub dims: Vec<usize>,
    /// Flat row-major values.
    pub data: Vec<f32>,
}

impl IdxData {
    /// Number of examples (the outermost dimension; 0 for rank-0 files).
    pub(crate) fn examples(&self) -> usize {
        self.dims.first().copied().unwrap_or(0)
    }

    /// Elements per example (product of the inner dimensions).
    pub(crate) fn example_dim(&self) -> usize {
        self.dims.iter().skip(1).product::<usize>().max(1)
    }

    /// Reshapes into an `examples x example_dim` matrix.
    pub fn into_matrix(self) -> Mat {
        let rows = self.examples();
        let cols = self.example_dim();
        Mat::from_vec(rows, cols, self.data).expect("IDX payload length checked at load")
    }
}

/// Reads an IDX file (u8 or f32 payload).
pub fn read_idx(path: impl AsRef<Path>) -> io::Result<IdxData> {
    let mut r = BufReader::new(File::open(path)?);
    read_idx_from(&mut r)
}

/// Reads IDX data from any reader.
pub(crate) fn read_idx_from(r: &mut impl Read) -> io::Result<IdxData> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic[0] != 0 || magic[1] != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad IDX magic (first two bytes must be zero)",
        ));
    }
    let ty = IdxType::from_code(magic[2])?;
    let ndims = magic[3] as usize;

    let mut dims = Vec::with_capacity(ndims);
    let mut total = 1usize;
    for _ in 0..ndims {
        let mut buf = [0u8; 4];
        r.read_exact(&mut buf)?;
        let d = u32::from_be_bytes(buf) as usize;
        total = total
            .checked_mul(d)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "IDX dimensions overflow"))?;
        dims.push(d);
    }

    let data = match ty {
        IdxType::U8 => {
            let mut raw = vec![0u8; total];
            r.read_exact(&mut raw)?;
            raw.into_iter().map(|b| b as f32 / 255.0).collect()
        }
        IdxType::F32 => {
            let mut raw = vec![0u8; total * 4];
            r.read_exact(&mut raw)?;
            raw.chunks_exact(4)
                .map(|c| f32::from_be_bytes([c[0], c[1], c[2], c[3]]))
                .collect()
        }
    };
    // Reject trailing garbage so truncated/corrupt files are caught.
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "IDX file has trailing bytes beyond the declared payload",
        ));
    }
    Ok(IdxData { dims, data })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("micdnn-idx-{}-{name}", std::process::id()));
        p
    }

    /// Writes `data` shaped as `dims` to an IDX file with the given element
    /// type. `U8` quantizes values from `[0, 1]` back to bytes.
    fn write_idx(
        path: impl AsRef<Path>,
        dims: &[usize],
        data: &[f32],
        ty: IdxType,
    ) -> io::Result<()> {
        let mut w = std::io::BufWriter::new(File::create(path)?);
        write_idx_to(&mut w, dims, data, ty)
    }

    /// Writes IDX data to any writer.
    fn write_idx_to(
        w: &mut impl std::io::Write,
        dims: &[usize],
        data: &[f32],
        ty: IdxType,
    ) -> io::Result<()> {
        let total: usize = dims.iter().product();
        if total != data.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "dims {:?} require {total} elements, got {}",
                    dims,
                    data.len()
                ),
            ));
        }
        if dims.len() > u8::MAX as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "too many dimensions",
            ));
        }
        let code = match ty {
            IdxType::U8 => 0x08,
            IdxType::F32 => 0x0D,
        };
        w.write_all(&[0, 0, code, dims.len() as u8])?;
        for &d in dims {
            let d32: u32 = d.try_into().map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidInput, "dimension exceeds u32")
            })?;
            w.write_all(&d32.to_be_bytes())?;
        }
        match ty {
            IdxType::U8 => {
                let bytes: Vec<u8> = data
                    .iter()
                    .map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() as u8)
                    .collect();
                w.write_all(&bytes)?;
            }
            IdxType::F32 => {
                for &v in data {
                    w.write_all(&v.to_be_bytes())?;
                }
            }
        }
        w.flush()
    }

    #[test]
    fn f32_round_trip_exact() {
        let path = tmp("f32");
        let data: Vec<f32> = (0..24).map(|i| (i as f32 * 0.37).sin()).collect();
        write_idx(&path, &[2, 3, 4], &data, IdxType::F32).unwrap();
        let back = read_idx(&path).unwrap();
        assert_eq!(back.dims, vec![2, 3, 4]);
        assert_eq!(back.data, data);
        assert_eq!(back.examples(), 2);
        assert_eq!(back.example_dim(), 12);
        let m = back.into_matrix();
        assert_eq!(m.shape(), (2, 12));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn u8_round_trip_within_quantization() {
        let path = tmp("u8");
        let data: Vec<f32> = (0..100).map(|i| i as f32 / 99.0).collect();
        write_idx(&path, &[10, 10], &data, IdxType::U8).unwrap();
        let back = read_idx(&path).unwrap();
        for (a, b) in back.data.iter().zip(&data) {
            assert!((a - b).abs() <= 0.5 / 255.0 + 1e-6, "{a} vs {b}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mnist_shaped_file_reads_as_dataset() {
        // A miniature "MNIST": 30 images of 8x8 from the synthetic digit
        // generator, written as idx3-ubyte.
        let path = tmp("mnist");
        let mut gen = crate::DigitGenerator::new(8, 1);
        let m = gen.matrix(30);
        write_idx(&path, &[30, 8, 8], m.as_slice(), IdxType::U8).unwrap();
        let ds = crate::Dataset::new(read_idx(&path).unwrap().into_matrix());
        assert_eq!(ds.len(), 30);
        assert_eq!(ds.dim(), 64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut bytes: &[u8] = &[1, 0, 0x08, 1, 0, 0, 0, 1, 42];
        let err = read_idx_from(&mut bytes).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn unsupported_type_rejected() {
        let mut bytes: &[u8] = &[0, 0, 0x0B, 1, 0, 0, 0, 0];
        let err = read_idx_from(&mut bytes).unwrap_err();
        assert!(err.to_string().contains("element type"));
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut bytes: &[u8] = &[0, 0, 0x08, 1, 0, 0, 0, 10, 1, 2, 3];
        assert!(read_idx_from(&mut bytes).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes: &[u8] = &[0, 0, 0x08, 1, 0, 0, 0, 1, 42, 99];
        let err = read_idx_from(&mut bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn dims_data_mismatch_rejected() {
        let mut out = Vec::new();
        let err = write_idx_to(&mut out, &[3, 3], &[0.0; 8], IdxType::F32).unwrap_err();
        assert!(err.to_string().contains("require"));
    }

    #[test]
    fn labels_vector_round_trip() {
        // idx1-ubyte label files: rank 1.
        let path = tmp("labels");
        let labels: Vec<f32> = (0..50).map(|i| (i % 10) as f32 / 255.0).collect();
        write_idx(&path, &[50], &labels, IdxType::U8).unwrap();
        let back = read_idx(&path).unwrap();
        assert_eq!(back.dims, vec![50]);
        assert_eq!(back.examples(), 50);
        assert_eq!(back.example_dim(), 1);
        std::fs::remove_file(&path).ok();
    }
}
