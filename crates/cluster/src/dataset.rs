//! Flat row-major dataset container.
//!
//! Every feature-vector collection in the workspace (a peer's local items,
//! the coefficients of one wavelet subspace across all items, k-means
//! centroids) is a [`Dataset`]: one contiguous `Vec<f64>` plus a dimension.
//! Keeping rows contiguous avoids the pointer-chasing of `Vec<Vec<f64>>` in
//! the hot distance loops.

/// A dense row-major matrix of `f64` feature vectors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    data: Vec<f64>,
    dim: usize,
}

impl Dataset {
    /// Create an empty dataset of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            data: Vec::new(),
            dim,
        }
    }

    /// Create an empty dataset with capacity reserved for `rows` rows.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            data: Vec::with_capacity(dim * rows),
            dim,
        }
    }

    /// Build a dataset from a flat buffer; `flat.len()` must be a multiple
    /// of `dim`.
    pub fn from_flat(flat: Vec<f64>, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(
            flat.len() % dim,
            0,
            "flat buffer is not a whole number of rows"
        );
        Self { data: flat, dim }
    }

    /// Build a dataset from row slices (all must share the dimension).
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Self {
        assert!(!rows.is_empty(), "cannot infer dimension from zero rows");
        let dim = rows[0].as_ref().len();
        let mut data = Vec::with_capacity(dim * rows.len());
        for r in rows {
            assert_eq!(r.as_ref().len(), dim, "ragged rows");
            data.extend_from_slice(r.as_ref());
        }
        Self { data, dim }
    }

    /// Dimensionality of each row.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the dataset holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Append one row.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        self.data.extend_from_slice(row);
    }

    /// Iterate over rows as slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim)
    }

    /// The underlying flat buffer.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// A new dataset containing the selected rows (by index, in order).
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::with_capacity(self.dim, indices.len());
        for &i in indices {
            out.push_row(self.row(i));
        }
        out
    }

    /// Per-dimension (min, max) bounds across all rows; `None` when empty.
    pub fn bounds(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        if self.is_empty() {
            return None;
        }
        let mut lo = self.row(0).to_vec();
        let mut hi = lo.clone();
        for row in self.rows().skip(1) {
            for ((l, h), &x) in lo.iter_mut().zip(hi.iter_mut()).zip(row) {
                if x < *l {
                    *l = x;
                }
                if x > *h {
                    *h = x;
                }
            }
        }
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let ds = Dataset::from_rows(&[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]);
        assert_eq!(ds.dim(), 2);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.row(1), &[3.0, 4.0]);
        assert!(!ds.is_empty());
    }

    #[test]
    fn from_flat_roundtrip() {
        let ds = Dataset::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.as_flat(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn push_and_mutate() {
        let mut ds = Dataset::new(3);
        ds.push_row(&[1.0, 2.0, 3.0]);
        ds.row_mut(0)[1] = 9.0;
        assert_eq!(ds.row(0), &[1.0, 9.0, 3.0]);
    }

    #[test]
    fn rows_iterator() {
        let ds = Dataset::from_rows(&[[1.0], [2.0]]);
        let sums: Vec<f64> = ds.rows().map(|r| r[0]).collect();
        assert_eq!(sums, vec![1.0, 2.0]);
    }

    #[test]
    fn select_subset() {
        let ds = Dataset::from_rows(&[[0.0], [1.0], [2.0], [3.0]]);
        let sub = ds.select(&[3, 1]);
        assert_eq!(sub.row(0), &[3.0]);
        assert_eq!(sub.row(1), &[1.0]);
    }

    #[test]
    fn bounds_computation() {
        let ds = Dataset::from_rows(&[[1.0, -5.0], [3.0, 2.0], [-2.0, 0.0]]);
        let (lo, hi) = ds.bounds().unwrap();
        assert_eq!(lo, vec![-2.0, -5.0]);
        assert_eq!(hi, vec![3.0, 2.0]);
        assert!(Dataset::new(2).bounds().is_none());
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rows_rejected() {
        let rows: Vec<Vec<f64>> = vec![vec![1.0, 2.0], vec![3.0]];
        Dataset::from_rows(&rows);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn bad_flat_rejected() {
        Dataset::from_flat(vec![1.0, 2.0, 3.0], 2);
    }
}
