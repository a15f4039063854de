//! Feature visualization: a trained autoencoder's weight images as a PGM
//! (what `micdnn features` writes).

use crate::autoencoder::SparseAutoencoder;
use micdnn_tensor::Mat;

/// Writes a weight matrix (or any image-shaped data) as a binary PGM file
/// — the zero-dependency way to look at learned features.
///
/// A NaN or infinite pixel is an [`std::io::ErrorKind::InvalidData`]
/// error, raised before the file is created: min/max scaling would
/// otherwise skip it and write a plausible image of a broken model.
pub fn write_pgm(path: impl AsRef<std::path::Path>, image: &Mat) -> std::io::Result<()> {
    use std::io::Write;
    if !image.all_finite() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "image has NaN or infinite pixels (non-finite model weights?)",
        ));
    }
    let (rows, cols) = image.shape();
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in image.as_slice() {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = (hi - lo).max(1e-9);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "P5\n{cols} {rows}\n255")?;
    let bytes: Vec<u8> = image
        .as_slice()
        .iter()
        .map(|&v| (((v - lo) / span) * 255.0).round() as u8)
        .collect();
    f.write_all(&bytes)?;
    f.flush()
}

/// Tiles the first `n` hidden units' weight images into one big matrix
/// (for PGM export), `grid_cols` per row, each `side x side`, separated by
/// 1-pixel borders.
pub fn feature_grid(ae: &SparseAutoencoder, n: usize, side: usize, grid_cols: usize) -> Mat {
    assert!(grid_cols > 0, "grid needs at least one column");
    assert_eq!(side * side, ae.config().n_visible, "side^2 != n_visible");
    let n = n.min(ae.config().n_hidden);
    let grid_rows = n.div_ceil(grid_cols);
    let out_rows = grid_rows * (side + 1) + 1;
    let out_cols = grid_cols * (side + 1) + 1;
    let mut out = Mat::zeros(out_rows, out_cols);
    for unit in 0..n {
        let gr = unit / grid_cols;
        let gc = unit % grid_cols;
        let row = ae.w1.row(unit);
        let max = row.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-9);
        for y in 0..side {
            for x in 0..side {
                out.set(
                    gr * (side + 1) + 1 + y,
                    gc * (side + 1) + 1 + x,
                    row[y * side + x] / max,
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoencoder::AeConfig;

    fn setup() -> SparseAutoencoder {
        SparseAutoencoder::new(AeConfig::new(16, 9), 1)
    }

    #[test]
    fn feature_grid_dimensions() {
        let ae = setup();
        let grid = feature_grid(&ae, 9, 4, 3);
        assert_eq!(grid.shape(), (3 * 5 + 1, 3 * 5 + 1));
        assert!(grid.all_finite());
    }

    #[test]
    fn pgm_round_trip_header() {
        let ae = setup();
        let grid = feature_grid(&ae, 4, 4, 2);
        let dir = crate::TestDir::new("metrics-pgm");
        let path = dir.file("grid.pgm");
        write_pgm(&path, &grid).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let header = String::from_utf8_lossy(&bytes[..20.min(bytes.len())]);
        assert!(header.starts_with("P5"));
        // Payload length = rows * cols after the header's three lines.
        let header_end = bytes
            .windows(4)
            .position(|w| w == b"255\n")
            .map(|p| p + 4)
            .unwrap();
        assert_eq!(bytes.len() - header_end, grid.len());
    }
}
