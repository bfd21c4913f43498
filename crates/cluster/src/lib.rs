//! Clustering for Hyper-M (ICDE 2007).
//!
//! Hyper-M summarises each peer's data by running k-means *independently in
//! every wavelet subspace* (step *i2* of the paper's Figure 2) and publishing
//! only the resulting **cluster spheres** — centre, radius and item count —
//! into the overlay. The paper picks k-means for its invariance to
//! translations and orthogonal transformations and because its output maps
//! directly onto the sphere representation of Section 3.1. The paper
//! centres each sphere on the cluster's centroid; here each keeps k-means'
//! partition but is published as its (near-)minimum enclosing ball, which
//! still covers every member and is never larger.
//!
//! * [`dataset`] — a flat row-major `f64` matrix, the in-memory format for
//!   all feature vectors in the workspace;
//! * [`kmeans`] — Lloyd's algorithm with Forgy or k-means++ seeding,
//!   convergence/tolerance control and empty-cluster repair;
//! * [`minibatch`] — a mini-batch k-means variant for peers with large local
//!   collections (extension; the paper cites speed-oriented k-means
//!   extensions [18, 19] as related work);
//! * [`sphere`] — the `ClusterSphere` summary (Section 3.1) and
//!   `spheres_from_clustering`, which publishes each cluster's enclosing
//!   ball (the exact midrange interval on 1-d levels, Bădoiu–Clarkson
//!   steps from the centroid on wider ones);
//! * [`quality`] — cohesion, separation, their ratio (the "goodness" measure
//!   plotted in Figure 11);
//! * [`kdtree`] — a static kd-tree over a dataset's rows. No library
//!   caller: peers answer phase 2 by wavelet filter-and-refine
//!   (`hyperm_core::Peer`), which at 512 dimensions prunes where a kd-tree
//!   cannot. Kept for the benchmark harness's
//!   `cluster.kdtree_build_ms_per_peer` row and the `kernels` bench's
//!   comparison rows.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Seeded replay: no wall-clock read and no hash-ordered container
// (clippy.toml lists them) in a result-affecting crate.
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::iter_over_hash_type
)]

pub mod dataset;
pub mod kdtree;
pub mod kmeans;
pub mod minibatch;
pub mod quality;
pub mod sphere;

pub use dataset::Dataset;
pub use kdtree::KdTree;
pub use kmeans::{InitMethod, KMeansConfig, KMeansResult};
pub use minibatch::{minibatch_kmeans, MiniBatchConfig};
pub use quality::{cohesion, quality_ratio, separation, ClusterQuality};
pub use sphere::{spheres_from_clustering, ClusterSphere};
