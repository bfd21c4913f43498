//! A peer's original-space items: the rows it was summarised from, shared,
//! then the rows inserted since, owned.
//!
//! [`Peer::summarize`](crate::Peer::summarize) moves the collection it is
//! given into an `Arc` without copying it, and nothing mutates that block
//! again, so every clone of a peer (and of a network) shares it. Rows
//! inserted later go to a tail the peer owns, one row each: an insert
//! never reallocates or copies the summarised matrix, and a clone copies
//! only the tail. Row `i` is row `i` of the block while `i` is inside it,
//! then row `i − block length` of the tail.
//!
//! There is no public push: rows are appended through
//! [`Peer::push_item`](crate::Peer::push_item) only, which keeps the
//! peer's coefficient views aligned with them.

use hyperm_cluster::Dataset;
use std::sync::Arc;

/// The rows of one peer: a shared summarised block, then an owned tail.
/// Read like a [`Dataset`]: `row`, `rows`, `len`, `dim` and `is_empty`
/// have its signatures.
#[derive(Debug, Clone)]
pub struct Rows {
    /// What the peer was summarised from; shared by every clone.
    summarised: Arc<Dataset>,
    /// Rows appended since, in insertion order.
    tail: Dataset,
}

impl Rows {
    /// `summarised` as the shared block, with an empty tail.
    pub(crate) fn new(summarised: Dataset) -> Rows {
        let tail = Dataset::new(summarised.dim());
        Rows {
            summarised: Arc::new(summarised),
            tail,
        }
    }

    /// Append one row to the tail.
    pub(crate) fn push_row(&mut self, row: &[f64]) {
        self.tail.push_row(row);
    }

    /// Dimensionality of each row.
    #[inline]
    pub fn dim(&self) -> usize {
        self.tail.dim()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.summarised.len() + self.tail.len()
    }

    /// Whether there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.summarised.is_empty() && self.tail.is_empty()
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        let (block, dim) = (self.summarised.as_flat(), self.dim());
        let at = i * dim;
        if at < block.len() {
            &block[at..at + dim]
        } else {
            self.tail.row(i - block.len() / dim)
        }
    }

    /// Iterate over rows as slices, in index order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        (0..self.len()).map(move |i| self.row(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(rng: &mut StdRng, rows: usize, dim: usize) -> Dataset {
        let flat = (0..rows * dim).map(|_| rng.gen::<f64>()).collect();
        Dataset::from_flat(flat, dim)
    }

    /// `row`, `rows` and `len` of `rows` are those of `truth`.
    fn same(rows: &Rows, truth: &Dataset) {
        assert_eq!(rows.len(), truth.len());
        assert_eq!(rows.dim(), truth.dim());
        assert_eq!(rows.is_empty(), truth.is_empty());
        assert_eq!(rows.rows().len(), truth.len());
        assert!(rows.rows().eq(truth.rows()));
        for i in 0..truth.len() {
            assert_eq!(rows.row(i), truth.row(i));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rows appended to, cloned at a random point and appended to on
        /// both sides read exactly like two datasets built the same way.
        #[test]
        fn reads_like_a_dataset_across_clones(
            start in 1usize..40,
            before in 0usize..8,
            after_a in 0usize..8,
            after_b in 0usize..8,
            dim in 1usize..9,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let first = random(&mut rng, start, dim);
            let mut a = Rows::new(first.clone());
            let mut truth_a = first;
            let push = |rows: &mut Rows, truth: &mut Dataset, rng: &mut StdRng| {
                let row: Vec<f64> = (0..dim).map(|_| rng.gen()).collect();
                rows.push_row(&row);
                truth.push_row(&row);
            };
            for _ in 0..before {
                push(&mut a, &mut truth_a, &mut rng);
            }
            let (mut b, mut truth_b) = (a.clone(), truth_a.clone());
            for _ in 0..after_a {
                push(&mut a, &mut truth_a, &mut rng);
            }
            for _ in 0..after_b {
                push(&mut b, &mut truth_b, &mut rng);
            }
            same(&a, &truth_a);
            same(&b, &truth_b);
            // The clone shares the summarised block.
            prop_assert!(std::ptr::eq(a.row(0), b.row(0)));
        }
    }
}
