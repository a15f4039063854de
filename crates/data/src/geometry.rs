//! The chunk/batch split of Algorithm 1, as arithmetic.
//!
//! "Get a chunk of data from the buffer area, split the chunk into many
//! smaller training batches": a dataset of `rows` examples is cut into
//! chunks of `chunk_rows` (the last one short), and every chunk — not the
//! dataset — into batches of `batch` (the last one of each chunk short), so
//! a chunk boundary cuts a batch short. Everything that has to agree with
//! the training loop about that split (chunking, batch positions per epoch,
//! checkpoint epochs, resumed example counts, the analytic estimate) asks
//! one [`ChunkGeometry`] instead of re-deriving it.

use micdnn_tensor::Mat;

/// How `rows` examples split into chunks of `chunk_rows` and each chunk
/// into batches of `batch`. Both sizes are at least 1 by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkGeometry {
    rows: usize,
    chunk_rows: usize,
    batch: usize,
}

impl ChunkGeometry {
    /// The split of `rows` examples; panics on a zero `chunk_rows` or
    /// `batch` (callers taking these from outside validate them first).
    pub fn new(rows: usize, chunk_rows: usize, batch: usize) -> Self {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        assert!(batch > 0, "batch size must be positive");
        ChunkGeometry {
            rows,
            chunk_rows,
            batch,
        }
    }

    /// Chunks in one pass over the data.
    pub fn chunks(&self) -> usize {
        self.rows.div_ceil(self.chunk_rows)
    }

    /// Row range `lo..hi` of chunk `c` (`c < self.chunks()`).
    pub(crate) fn chunk_bounds(&self, c: usize) -> (usize, usize) {
        let lo = c * self.chunk_rows;
        (lo, (lo + self.chunk_rows).min(self.rows))
    }

    /// A copy of chunk `c`'s rows of `data`, the matrix this geometry
    /// splits.
    pub fn chunk(&self, data: &Mat, c: usize) -> Mat {
        assert_eq!(data.rows(), self.rows, "geometry is of another matrix");
        let (lo, hi) = self.chunk_bounds(c);
        data.rows_range(lo, hi).to_mat()
    }

    /// Row counts of the chunks of one pass, in order.
    pub fn chunk_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.chunks()).map(|c| {
            let (lo, hi) = self.chunk_bounds(c);
            hi - lo
        })
    }

    /// How a chunk of `rows` rows splits into batches: the number of full
    /// ones and the rows of the trailing short one (0 when there is none).
    pub fn split_batches(&self, rows: usize) -> (usize, usize) {
        (rows / self.batch, rows % self.batch)
    }

    /// Batch positions one pass produces (per-chunk `div_ceil`, not one
    /// global division).
    pub fn batches_per_epoch(&self) -> u64 {
        let (full, rem) = (self.rows / self.chunk_rows, self.rows % self.chunk_rows);
        (full * self.chunk_rows.div_ceil(self.batch) + rem.div_ceil(self.batch)) as u64
    }

    /// Completed passes after `batch_pos` batch positions (0 for an empty
    /// dataset, which has no positions).
    pub fn epoch_of(&self, batch_pos: u64) -> u64 {
        batch_pos.checked_div(self.batches_per_epoch()).unwrap_or(0)
    }

    /// Examples the training loop has consumed after `batch_pos` batch
    /// positions since epoch 0 — exact across cut batches, unlike
    /// `batch_pos * batch`.
    pub fn examples_before(&self, batch_pos: u64) -> u64 {
        let Some(within) = batch_pos.checked_rem(self.batches_per_epoch()) else {
            return 0;
        };
        // No batch spans two chunks, so whole chunks come first, then
        // full batches of the chunk the position stands in.
        let per_chunk = self.chunk_rows.div_ceil(self.batch) as u64;
        let (chunk, in_chunk) = (within / per_chunk, within % per_chunk);
        self.epoch_of(batch_pos) * self.rows as u64
            + chunk * self.chunk_rows as u64
            + in_chunk * self.batch as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_chunk_boundary_cuts_a_batch_short() {
        let g = ChunkGeometry::new(1000, 250, 100);
        assert_eq!(g.chunks(), 4);
        assert_eq!(g.chunk_bounds(3), (750, 1000));
        assert_eq!(g.split_batches(250), (2, 50));
        assert_eq!(g.batches_per_epoch(), 12);
        // Position 3 is the start of chunk 1: 100 + 100 + 50 examples.
        assert_eq!(g.examples_before(3), 250);
        assert_eq!(g.examples_before(4), 350);
        assert_eq!(g.epoch_of(11), 0);
        assert_eq!(g.epoch_of(12), 1);
        assert_eq!(g.examples_before(12 + 3), 1250);
    }

    #[test]
    fn short_last_chunk_and_oversized_chunk() {
        let g = ChunkGeometry::new(10, 4, 3);
        assert_eq!(g.chunk_sizes().collect::<Vec<_>>(), vec![4, 4, 2]);
        assert_eq!(g.batches_per_epoch(), 2 + 2 + 1);
        assert_eq!(g.examples_before(4), 8);
        assert_eq!(g.examples_before(5), 10);
        let one = ChunkGeometry::new(10, 64, 4);
        assert_eq!(one.chunk_sizes().collect::<Vec<_>>(), vec![10]);
        assert_eq!(one.examples_before(2), 8);
    }

    #[test]
    fn empty_dataset_has_no_positions() {
        let g = ChunkGeometry::new(0, 4, 2);
        assert_eq!(g.chunks(), 0);
        assert_eq!(g.batches_per_epoch(), 0);
        assert_eq!(g.epoch_of(5), 0);
        assert_eq!(g.examples_before(5), 0);
    }

    #[test]
    #[should_panic(expected = "chunk_rows must be positive")]
    fn zero_chunk_rows_rejected() {
        ChunkGeometry::new(10, 0, 1);
    }
}
