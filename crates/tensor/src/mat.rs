//! Row-major dense `f32` matrix.

use crate::aligned::AlignedBuf;
use crate::view::{MatView, MatViewMut};
use crate::ShapeError;

/// A dense row-major matrix of `f32` backed by a 64-byte-aligned buffer.
///
/// Rows are contiguous; element `(r, c)` lives at linear index
/// `r * cols + c`. A matrix with `rows == 1` doubles as a row vector and is
/// used that way for biases throughout the workspace.
#[derive(Clone, PartialEq)]
pub struct Mat {
    data: AlignedBuf,
    rows: usize,
    cols: usize,
}

impl Mat {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            data: AlignedBuf::zeroed(rows * cols),
            rows,
            cols,
        }
    }

    /// Matrix with every element set to `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.fill(value);
        m
    }

    /// Builds a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Wraps an existing row-major buffer; fails if the length is wrong.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::DataLen {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Mat {
            data: AlignedBuf::from_slice(&data),
            rows,
            cols,
        })
    }

    /// Identity matrix of order `n`.
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` if the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable flat row-major view of all elements.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of all elements.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access with bounds checks in debug builds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment with bounds checks in debug builds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrows the contiguous row range `lo..hi` as a view.
    ///
    /// This is how mini-batches are cut out of a chunk without copying.
    pub fn rows_range(&self, lo: usize, hi: usize) -> MatView<'_> {
        assert!(
            lo <= hi && hi <= self.rows,
            "rows_range {lo}..{hi} out of bounds"
        );
        MatView::new(
            &self.data[lo * self.cols..hi * self.cols],
            hi - lo,
            self.cols,
        )
    }

    /// Mutably borrows the contiguous row range `lo..hi`.
    pub fn rows_range_mut(&mut self, lo: usize, hi: usize) -> MatViewMut<'_> {
        assert!(
            lo <= hi && hi <= self.rows,
            "rows_range {lo}..{hi} out of bounds"
        );
        let cols = self.cols;
        MatViewMut::new(&mut self.data[lo * cols..hi * cols], hi - lo, cols)
    }

    /// Whole-matrix immutable view.
    pub fn view(&self) -> MatView<'_> {
        MatView::new(&self.data, self.rows, self.cols)
    }

    /// Whole-matrix mutable view.
    pub fn view_mut(&mut self) -> MatViewMut<'_> {
        let (rows, cols) = (self.rows, self.cols);
        MatViewMut::new(&mut self.data, rows, cols)
    }

    /// Returns the transposed copy of `self`.
    ///
    /// Blocked over 32×32 tiles to stay cache-friendly for the large
    /// parameter matrices used in the paper's workloads.
    pub fn transposed(&self) -> Mat {
        const TILE: usize = 32;
        let mut out = Mat::zeros(self.cols, self.rows);
        for rb in (0..self.rows).step_by(TILE) {
            for cb in (0..self.cols).step_by(TILE) {
                let rmax = (rb + TILE).min(self.rows);
                let cmax = (cb + TILE).min(self.cols);
                for r in rb..rmax {
                    for c in cb..cmax {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Sets every element to `value`.
    pub(crate) fn fill(&mut self, value: f32) {
        self.data.as_mut_slice().fill(value);
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for x in self.data.as_mut_slice() {
            *x = f(*x);
        }
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Mat {
        let mut out = self.clone();
        out.map_inplace(&mut f);
        out
    }

    /// Frobenius norm (square root of the sum of squared elements).
    pub fn frobenius_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Sum of all elements, accumulated in f64 for stability.
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// `true` iff every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Debug for Mat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let max_rows = 6;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4}", self.get(r, c))?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Mat::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m[(1, 2)], 5.0);
        m[(2, 3)] = -1.0;
        assert_eq!(m.get(2, 3), -1.0);
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Mat::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Mat::from_vec(2, 2, vec![1.0; 5]).is_err());
    }

    #[test]
    fn from_fn_row_major_layout() {
        let m = Mat::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn eye_and_trace() {
        let m = Mat::eye(3);
        assert_eq!(m.sum(), 3.0);
        assert_eq!(m.get(1, 1), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn transposed_round_trip() {
        let m = Mat::from_fn(37, 53, |r, c| (r * 53 + c) as f32);
        let t = m.transposed();
        assert_eq!(t.shape(), (53, 37));
        for r in 0..37 {
            for c in 0..53 {
                assert_eq!(m.get(r, c), t.get(c, r));
            }
        }
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn rows_range_views() {
        let m = Mat::from_fn(4, 2, |r, _| r as f32);
        let v = m.rows_range(1, 3);
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.as_slice(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rows_range_bounds() {
        Mat::zeros(2, 2).rows_range(1, 3);
    }

    #[test]
    fn map_and_norms() {
        let mut m = Mat::full(2, 2, 2.0);
        assert_eq!(m.frobenius_norm(), 4.0);
        m.map_inplace(|x| x * x);
        assert_eq!(m.sum(), 16.0);
        let sq = m.map(|x| x / 2.0);
        assert_eq!(sq.sum(), 8.0);
        assert!(m.all_finite());
        m.set(0, 0, f32::NAN);
        assert!(!m.all_finite());
    }

    #[test]
    fn clone_is_independent() {
        let a = Mat::full(2, 3, 1.5);
        let mut c = a.clone();
        c.set(0, 0, 9.0);
        assert_eq!(a.get(0, 0), 1.5);
    }

    #[test]
    fn rows_iter_yields_rows() {
        let m = Mat::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let rows: Vec<&[f32]> = m.rows_iter().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[4.0, 5.0]);
    }

    #[test]
    fn empty_matrix() {
        let m = Mat::zeros(0, 5);
        assert!(m.is_empty());
        assert_eq!(m.rows_iter().count(), 0);
        assert_eq!(m.transposed().shape(), (5, 0));
    }
}
