//! Synthetic workload generators reproducing the paper's datasets.
//!
//! Two datasets drive the evaluation of Hyper-M (ICDE 2007):
//!
//! 1. **Synthetic Markov vectors** (Section 5.1, Figure 7) — 100,000
//!    512-dimensional feature vectors produced by a two-state
//!    Increasing/Decreasing Markov process, then clustered and redistributed
//!    among peers "8 to 10 nodes" per cluster to mimic users with focused
//!    interests. Implemented verbatim in [`markov`] + [`distribute`].
//! 2. **ALOI color histograms** (Section 6) — 12,000 images of ~1000
//!    objects under varying angle/illumination, represented as color
//!    histograms. The real dataset is not redistributable here, so
//!    [`aloi`] generates a statistically equivalent substitute: object
//!    classes with smooth view-dependent variation (see DESIGN.md,
//!    substitution #1).
//!
//! [`skewed`] adds the deliberately skewed few-cluster datasets of
//! Section 5.3 (Figure 9). [`zipf`] skews the *query* side: a seeded Zipf-ranked query-centre
//! generator for the hot-spot load experiments (`hyperm-load`).
//!
//! Every generator takes an explicit seed and is bit-for-bit reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aloi;
pub mod distribute;
pub mod markov;
pub mod skewed;
pub mod zipf;

pub use aloi::{generate_aloi_like, AloiConfig};
pub use distribute::{distribute_by_clusters, DistributeConfig};
pub use markov::{generate_markov, MarkovConfig};
pub use skewed::{generate_skewed, SkewedConfig};
pub use zipf::{ZipfConfig, ZipfWorkload};

use hyperm_cluster::Dataset;

/// A dataset with per-row class labels (which generator class produced the
/// row) — used for diagnostics; retrieval ground truth in the experiments
/// always comes from exact flat scans, as in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledDataset {
    /// The feature vectors.
    pub data: Dataset,
    /// Generator class of each row.
    pub labels: Vec<u32>,
}

impl LabeledDataset {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}
