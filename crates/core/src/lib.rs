//! **Hyper-M** — fast data dissemination for structured P2P MANETs.
//!
//! Reproduction of Lupu, Li, Ooi, Shi: *"Clustering wavelets to speed-up
//! data dissemination in structured P2P MANETs"*, ICDE 2007.
//!
//! The setting: devices meet for a short time (a commute, a conference
//! session) and want to share large personal collections. Publishing every
//! item into a structured overlay costs `O(log N)` routing per item — too
//! slow and too battery-hungry for thousands of items. Hyper-M publishes
//! **summaries** instead:
//!
//! 1. every item is decomposed with the Haar DWT ([`hyperm_wavelet`]);
//! 2. each wavelet subspace is clustered independently with k-means
//!    ([`hyperm_cluster`]);
//! 3. only the resulting cluster spheres (centre, radius, count) are
//!    inserted — one CAN overlay per subspace ([`hyperm_can`]). Each is its
//!    cluster's (near-)minimum enclosing ball, not the paper's centroid
//!    ball, so it meets fewer CAN zones and fewer query floods.
//!
//! Retrieval scores peers by the volume fraction of cluster∩query sphere
//! intersections (Eq. 1), aggregates scores across subspaces (min policy),
//! then fetches actual items directly from the top-scored peers. Range
//! queries have **no false dismissals** (Theorems 3.1/4.1); k-nn queries
//! invert the expected-volume curve (Eqs. 5–8) to pick per-subspace radii.
//!
//! # Quick start
//!
//! ```
//! use hyperm_core::{HypermConfig, HypermNetwork};
//! use hyperm_cluster::Dataset;
//!
//! // Four peers, each with a handful of 8-d items in [0,1].
//! let peers: Vec<Dataset> = (0..4)
//!     .map(|p| {
//!         let rows: Vec<Vec<f64>> =
//!             (0..20).map(|i| (0..8).map(|d| ((p * 31 + i * 7 + d) % 10) as f64 / 10.0).collect()).collect();
//!         Dataset::from_rows(&rows)
//!     })
//!     .collect();
//! let config = HypermConfig::new(8).with_levels(3).with_clusters_per_peer(4);
//! let (net, report) = HypermNetwork::build(peers, config).unwrap();
//! assert!(report.clusters_published > 0);
//!
//! // A range query around one of peer 0's items finds it.
//! let q: Vec<f64> = net.peer(0).items.row(0).to_vec();
//! let res = net.range_query(0, &q, 0.05, None);
//! assert!(res.items.contains(&(0, 0)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Seeded replay: no wall-clock read and no hash-ordered container
// (clippy.toml lists them) in a result-affecting crate.
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::iter_over_hash_type
)]

pub mod churn;
pub mod config;
pub mod eval;
pub mod join;
pub mod maintenance;
pub mod network;
mod op;
pub mod overlay;
pub mod peer;
pub mod publish;
pub mod query;
mod rows;
pub mod score;

pub use churn::ChurnOutcome;
pub use config::{HypermConfig, ScorePolicy};
pub use eval::EvalHarness;
pub use join::{JoinError, JoinReport};
pub use maintenance::InsertPolicy;
pub use network::{BuildReport, HypermNetwork};
pub use overlay::{Overlay, OverlayBackend};
pub use peer::Peer;
pub use publish::{PublishReport, SphereRef};
pub use query::knn::{KnnOptions, KnnResult};
pub use query::point::PointResult;
pub use query::range::RangeResult;
pub use query::QueryBudget;
pub use rows::Rows;
pub use score::{LevelScores, PeerScore};

// Telemetry handle, re-exported so downstream code can build traced
// networks without a direct `hyperm-telemetry` dependency.
pub use hyperm_telemetry::Recorder;

/// Errors surfaced by the Hyper-M framework.
#[derive(Debug, Clone, PartialEq)]
pub enum HypermError {
    /// Data dimensionality is not a power of two.
    BadDimension(usize),
    /// Too many levels requested for the data dimensionality.
    TooManyLevels {
        /// Levels requested.
        requested: usize,
        /// Maximum supported for this dimensionality (`log₂ d + 1`).
        max: usize,
    },
    /// Zero clusters per peer requested: every level needs at least one.
    ZeroClusters,
    /// No peers supplied.
    NoPeers,
    /// A peer's data does not match the configured dimensionality.
    DimensionMismatch {
        /// Offending peer index.
        peer: usize,
        /// That peer's data dimensionality.
        got: usize,
        /// Configured dimensionality.
        expected: usize,
    },
    /// A peer's data has a NaN or infinite coordinate, which k-means
    /// cannot cluster.
    NonFinite {
        /// Offending peer index.
        peer: usize,
        /// Row of that peer's first such item.
        row: usize,
        /// Its first non-finite coordinate.
        coordinate: usize,
    },
}

impl std::fmt::Display for HypermError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HypermError::BadDimension(d) => {
                write!(f, "data dimensionality {d} is not a power of two")
            }
            HypermError::TooManyLevels { requested, max } => {
                write!(
                    f,
                    "{requested} overlay levels requested but dimensionality supports {max}"
                )
            }
            HypermError::ZeroClusters => {
                write!(
                    f,
                    "0 clusters per peer requested but each level needs at least 1"
                )
            }
            HypermError::NoPeers => write!(f, "no peers supplied"),
            HypermError::DimensionMismatch {
                peer,
                got,
                expected,
            } => {
                write!(
                    f,
                    "peer {peer} has {got}-dimensional data, expected {expected}"
                )
            }
            HypermError::NonFinite {
                peer,
                row,
                coordinate,
            } => {
                write!(
                    f,
                    "peer {peer}'s item {row} has a non-finite coordinate {coordinate}"
                )
            }
        }
    }
}

impl std::error::Error for HypermError {}
