//! Precision / recall arithmetic.
//!
//! "We use the standard precision and recall measures to evaluate the
//! accuracy of our method" (Section 6): retrieved sets from Hyper-M are
//! compared against the exact answers of the centralized flat index.

use std::collections::HashSet;
use std::hash::Hash;

/// A precision/recall pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PrecisionRecall {
    /// `|retrieved ∩ relevant| / |retrieved|` (1.0 when nothing retrieved
    /// and nothing relevant).
    pub precision: f64,
    /// `|retrieved ∩ relevant| / |relevant|` (1.0 when nothing relevant).
    pub recall: f64,
}

impl PrecisionRecall {
    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        if self.precision + self.recall == 0.0 {
            0.0
        } else {
            2.0 * self.precision * self.recall / (self.precision + self.recall)
        }
    }
}

/// Compute precision and recall of `retrieved` against `relevant`.
pub fn precision_recall<T: Eq + Hash + Copy>(retrieved: &[T], relevant: &[T]) -> PrecisionRecall {
    let relevant_set: HashSet<T> = relevant.iter().copied().collect();
    let retrieved_set: HashSet<T> = retrieved.iter().copied().collect();
    let hits = retrieved_set
        .iter()
        .filter(|x| relevant_set.contains(x))
        .count();
    let precision = if retrieved_set.is_empty() {
        if relevant_set.is_empty() {
            1.0
        } else {
            0.0
        }
    } else {
        hits as f64 / retrieved_set.len() as f64
    };
    let recall = if relevant_set.is_empty() {
        1.0
    } else {
        hits as f64 / relevant_set.len() as f64
    };
    PrecisionRecall { precision, recall }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_retrieval() {
        let pr = precision_recall(&[1, 2, 3], &[1, 2, 3]);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
        assert_eq!(pr.f1(), 1.0);
    }

    #[test]
    fn partial_retrieval() {
        let pr = precision_recall(&[1, 2, 3, 4], &[1, 2]);
        assert_eq!(pr.precision, 0.5);
        assert_eq!(pr.recall, 1.0);
        let pr = precision_recall(&[1], &[1, 2, 3, 4]);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 0.25);
    }

    #[test]
    fn disjoint_sets() {
        let pr = precision_recall(&[5, 6], &[1, 2]);
        assert_eq!(pr.precision, 0.0);
        assert_eq!(pr.recall, 0.0);
        assert_eq!(pr.f1(), 0.0);
    }

    #[test]
    fn empty_edge_cases() {
        let none: [u32; 0] = [];
        assert_eq!(
            precision_recall(&none, &none),
            PrecisionRecall {
                precision: 1.0,
                recall: 1.0
            }
        );
        assert_eq!(precision_recall(&[1], &none).recall, 1.0);
        assert_eq!(precision_recall(&none, &[1]).precision, 0.0);
    }

    #[test]
    fn duplicates_are_ignored() {
        let pr = precision_recall(&[1, 1, 2, 2], &[1, 2]);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
    }
}
