//! Borrowed, contiguous row-major matrix views.
//!
//! Views are how mini-batches are sliced out of a data chunk with zero copies
//! (the paper's training loop cuts each on-device chunk into many small
//! batches — step 4 of its Algorithm 1).

/// Immutable borrowed view of a contiguous row-major matrix.
#[derive(Clone, Copy)]
pub struct MatView<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
}

impl<'a> MatView<'a> {
    /// Wraps a contiguous slice as a `rows x cols` view.
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "MatView: bad data length");
        MatView { data, rows, cols }
    }

    /// The first `rows` rows of a row-major slice `cols` wide (a buffer
    /// sized for more rows than a batch holds).
    pub fn prefix(data: &'a [f32], rows: usize, cols: usize) -> Self {
        Self::new(&data[..rows * cols], rows, cols)
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

    /// Flat row-major contents.
    #[inline]
    pub fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// Borrow row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sub-view of rows `lo..hi`.
    pub fn rows_range(&self, lo: usize, hi: usize) -> MatView<'a> {
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

    /// Copies this view into an owned [`crate::Mat`] (one copy, no
    /// intermediate buffer: the loading thread does this per chunk).
    pub fn to_mat(&self) -> crate::Mat {
        let mut out = crate::Mat::zeros(self.rows, self.cols);
        out.as_mut_slice().copy_from_slice(self.data);
        out
    }
}

impl std::fmt::Debug for MatView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MatView {}x{}", self.rows, self.cols)
    }
}

/// Mutable borrowed view of a contiguous row-major matrix.
pub struct MatViewMut<'a> {
    data: &'a mut [f32],
    rows: usize,
    cols: usize,
}

impl<'a> MatViewMut<'a> {
    /// Wraps a contiguous mutable slice as a `rows x cols` view.
    pub fn new(data: &'a mut [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "MatViewMut: bad data length");
        MatViewMut { data, rows, cols }
    }

    /// The first `rows` rows of a row-major slice `cols` wide, mutably.
    pub fn prefix(data: &'a mut [f32], rows: usize, cols: usize) -> Self {
        Self::new(&mut data[..rows * cols], rows, cols)
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

    /// Flat immutable contents.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        self.data
    }

    /// Flat mutable contents.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }
}

impl std::fmt::Debug for MatViewMut<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MatViewMut {}x{}", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_basic() {
        let data = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let v = MatView::new(&data, 2, 3);
        assert_eq!(v.shape(), (2, 3));
        assert_eq!(v.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(v.get(0, 2), 2.0);
        let sub = v.rows_range(1, 2);
        assert_eq!(sub.as_slice(), &[3.0, 4.0, 5.0]);
        assert_eq!(sub.to_mat().shape(), (1, 3));
    }

    #[test]
    #[should_panic(expected = "bad data length")]
    fn view_length_checked() {
        let data = [0.0; 5];
        let _ = MatView::new(&data, 2, 3);
    }

    #[test]
    fn view_mut_writes_through() {
        let mut data = [0.0f32; 6];
        {
            let mut v = MatViewMut::new(&mut data, 3, 2);
            v.row_mut(1)[0] = 7.0;
            assert_eq!(v.as_slice()[2], 7.0);
            v.as_mut_slice()[5] = 2.0;
        }
        assert_eq!(data[2], 7.0);
        assert_eq!(data[5], 2.0);
    }
}
