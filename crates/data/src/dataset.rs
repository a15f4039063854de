//! In-memory datasets, normalization, and chunk-source adapters.

use crate::geometry::ChunkGeometry;
use micdnn_tensor::{Mat, MatView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How raw examples were mapped into network input range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normalization {
    /// Per-dataset mean subtracted before scaling.
    pub mean: f32,
    /// Scale applied after mean subtraction.
    pub scale: f32,
    /// Offset applied last (centering into `[0.1, 0.9]`).
    pub offset: f32,
}

/// A dense `n x dim` dataset of f32 examples (rows).
#[derive(Debug, Clone)]
pub struct Dataset {
    data: Mat,
}

impl Dataset {
    /// Wraps an `n x dim` matrix of examples.
    pub fn new(data: Mat) -> Self {
        Dataset { data }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.data.rows()
    }

    /// `true` when the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of each example.
    pub fn dim(&self) -> usize {
        self.data.cols()
    }

    /// Borrow the underlying matrix.
    pub fn matrix(&self) -> &Mat {
        &self.data
    }

    /// Consumes the dataset, returning the matrix.
    pub fn into_matrix(self) -> Mat {
        self.data
    }

    /// Borrow examples `lo..hi` as a matrix view (one mini-batch).
    pub fn batch(&self, lo: usize, hi: usize) -> MatView<'_> {
        self.data.rows_range(lo, hi)
    }

    /// Normalizes in place to the sigmoid-friendly range `[0.1, 0.9]`
    /// following the standard sparse-autoencoder recipe (Ng's notes, the
    /// paper's ref [10]): subtract the mean, truncate to ±3 standard
    /// deviations, rescale.
    ///
    /// Returns the applied transform so new data can be mapped identically.
    pub fn normalize(&mut self) -> Normalization {
        let n = self.data.len() as f64;
        if n == 0.0 {
            return Normalization {
                mean: 0.0,
                scale: 1.0,
                offset: 0.5,
            };
        }
        let mean = (self.data.sum() / n) as f32;
        let var = self
            .data
            .as_slice()
            .iter()
            .map(|&v| ((v - mean) as f64).powi(2))
            .sum::<f64>()
            / n;
        let limit = (3.0 * var.sqrt()).max(1e-6) as f32;
        // (clamped to [-limit, limit]) / limit -> [-1, 1]; * 0.4 + 0.5 -> [0.1, 0.9]
        let scale = 0.4 / limit;
        let norm = Normalization {
            mean,
            scale,
            offset: 0.5,
        };
        self.data.map_inplace(|v| {
            let c = (v - mean).clamp(-limit, limit);
            c * scale + 0.5
        });
        norm
    }

    /// Converts grayscale intensities into binary `{0, 1}` values by
    /// thresholding at `threshold` — the standard preparation for
    /// binary-unit RBMs.
    pub fn binarize(&mut self, threshold: f32) {
        self.data
            .map_inplace(|v| if v > threshold { 1.0 } else { 0.0 });
    }

    /// Shuffles example rows in place (Fisher–Yates, seeded).
    pub fn shuffle(&mut self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = self.data.rows();
        let cols = self.data.cols();
        if rows <= 1 {
            return;
        }
        let slice = self.data.as_mut_slice();
        let mut tmp = vec![0.0f32; cols];
        for i in (1..rows).rev() {
            let j = rng.gen_range(0..=i);
            if i != j {
                let (lo, hi) = (j.min(i), j.max(i));
                let (a, b) = slice.split_at_mut(hi * cols);
                let ra = &mut a[lo * cols..lo * cols + cols];
                let rb = &mut b[..cols];
                tmp.copy_from_slice(ra);
                ra.copy_from_slice(rb);
                rb.copy_from_slice(&tmp);
            }
        }
    }

    /// Splits the dataset into contiguous chunks of at most `chunk_rows`
    /// rows (the unit the loading thread transfers to the device).
    pub fn into_chunks(self, chunk_rows: usize) -> Vec<Mat> {
        // Chunk bounds do not depend on the batch size.
        let geometry = ChunkGeometry::new(self.len(), chunk_rows, 1);
        (0..geometry.chunks())
            .map(|c| geometry.chunk(&self.data, c))
            .collect()
    }

    /// Iterator over `(lo, hi)` mini-batch bounds of size `batch`
    /// (the final batch may be short).
    pub fn batch_bounds(&self, batch: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        assert!(batch > 0, "batch must be positive");
        let rows = self.len();
        (0..rows.div_ceil(batch)).map(move |i| (i * batch, ((i + 1) * batch).min(rows)))
    }
}

/// A lazily-generating chunk source: produces `chunks` chunks of
/// `rows_per_chunk x dim` by calling a generator closure per chunk.
///
/// This is how paper-scale datasets (1 M x 4096 ≈ 16 GB) are streamed
/// through the loading thread without materializing them in host memory.
pub struct GeneratorSource<G> {
    generator: G,
    rows_per_chunk: usize,
    chunks_remaining: usize,
}

impl<G> GeneratorSource<G>
where
    G: FnMut(usize) -> Mat + Send + 'static,
{
    /// `generator(i)` must return chunk `i`; it is called `chunks` times.
    pub fn new(generator: G, rows_per_chunk: usize, chunks: usize) -> Self {
        GeneratorSource {
            generator,
            rows_per_chunk,
            chunks_remaining: chunks,
        }
    }
}

impl<G> micdnn_sim::ChunkSource for GeneratorSource<G>
where
    G: FnMut(usize) -> Mat + Send + 'static,
{
    fn next_chunk(&mut self) -> Result<Option<micdnn_sim::Chunk>, micdnn_sim::SourceFault> {
        if self.chunks_remaining == 0 {
            return Ok(None);
        }
        self.chunks_remaining -= 1;
        let idx = self.chunks_remaining;
        let chunk = (self.generator)(idx);
        if chunk.rows() != self.rows_per_chunk {
            return Err(micdnn_sim::SourceFault::Fatal(format!(
                "generator produced chunk {idx} with {} rows, expected {}",
                chunk.rows(),
                self.rows_per_chunk
            )));
        }
        Ok(Some(micdnn_sim::Chunk::new(chunk)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, d: usize) -> Dataset {
        Dataset::new(Mat::from_fn(n, d, |r, c| (r * d + c) as f32))
    }

    #[test]
    fn shapes_and_batches() {
        let ds = ramp(10, 4);
        assert_eq!(ds.len(), 10);
        assert_eq!(ds.dim(), 4);
        let bounds: Vec<_> = ds.batch_bounds(4).collect();
        assert_eq!(bounds, vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(ds.batch(4, 8).rows(), 4);
    }

    #[test]
    fn normalize_lands_in_range() {
        let mut ds = ramp(50, 8);
        let norm = ds.normalize();
        assert!(norm.scale > 0.0);
        for &v in ds.matrix().as_slice() {
            assert!(
                (0.1 - 1e-4..=0.9 + 1e-4).contains(&v),
                "value {v} escaped range"
            );
        }
        // Mean should be near the center of the range.
        let mean = ds.matrix().sum() / ds.matrix().len() as f64;
        assert!((mean - 0.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn normalize_empty_is_noop() {
        let mut ds = Dataset::new(Mat::zeros(0, 4));
        let n = ds.normalize();
        assert_eq!(n.scale, 1.0);
    }

    #[test]
    fn binarize_thresholds() {
        let mut ds = ramp(2, 3); // values 0..5
        ds.binarize(2.5);
        assert_eq!(ds.matrix().as_slice(), &[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut ds = ramp(31, 3);
        let mut before: Vec<Vec<f32>> = ds.matrix().rows_iter().map(|r| r.to_vec()).collect();
        ds.shuffle(7);
        let mut after: Vec<Vec<f32>> = ds.matrix().rows_iter().map(|r| r.to_vec()).collect();
        assert_ne!(before, after, "shuffle changed nothing");
        before.sort_by(|a, b| a.partial_cmp(b).unwrap());
        after.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(before, after, "shuffle lost rows");
    }

    #[test]
    fn shuffle_deterministic() {
        let mut a = ramp(20, 2);
        let mut b = ramp(20, 2);
        a.shuffle(5);
        b.shuffle(5);
        assert_eq!(a.matrix().as_slice(), b.matrix().as_slice());
    }

    #[test]
    fn chunking_covers_everything() {
        let ds = ramp(10, 2);
        let chunks = ds.into_chunks(4);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].rows(), 4);
        assert_eq!(chunks[2].rows(), 2);
        let total: usize = chunks.iter().map(|c| c.rows()).sum();
        assert_eq!(total, 10);
        assert_eq!(chunks[1].get(0, 0), 8.0);
    }

    #[test]
    fn generator_source_produces_n_chunks() {
        use micdnn_sim::ChunkSource;
        let mut src = GeneratorSource::new(|_i| Mat::zeros(5, 3), 5, 4);
        let mut n = 0;
        while let Some(c) = src.next_chunk().unwrap() {
            assert_eq!(c.data.shape(), (5, 3));
            n += 1;
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn generator_source_reports_bad_shapes_as_fatal_faults() {
        use micdnn_sim::{ChunkSource, SourceFault};
        let mut src = GeneratorSource::new(|_i| Mat::zeros(3, 3), 5, 2);
        match src.next_chunk() {
            Err(SourceFault::Fatal(msg)) => assert!(msg.contains("rows"), "{msg}"),
            other => panic!("expected a fatal fault, got {other:?}"),
        }
    }
}
