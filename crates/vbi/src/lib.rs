//! VBI-tree — a Virtual Binary Index overlay [Jagadish, Ooi, Vu, Rong,
//! Zhou — ICDE 2006] as the third Hyper-M substrate.
//!
//! The paper lists VBI-tree alongside BATON and CAN as overlays Hyper-M
//! "could be implemented on top of". VBI maps a hierarchical spatial index
//! onto a peer-to-peer binary tree: **internal nodes are virtual** (they
//! describe routing regions and are *managed* by peers), data lives at
//! **leaf nodes** (one per peer), and queries travel "upside-down" — ascend
//! from any leaf to the lowest ancestor whose region covers the target,
//! then descend into exactly the subtrees that intersect it.
//!
//! * [`tree`] — the kd-partition of the subspace box into one leaf region
//!   per peer, the virtual internal nodes with their covering regions, the
//!   manager assignment (each internal node is managed by the peer of its
//!   leftmost descendant leaf, so every peer manages a root-ward path and
//!   many tree edges are intra-peer, i.e. free), and up/down routing;
//! * [`ops`] — the same object operations as the CAN and BATON substrates
//!   (sphere insertion replicated into every intersecting leaf region,
//!   point lookups, tree-descent range queries), sharing
//!   [`hyperm_can`]'s object/result types so the Hyper-M core swaps
//!   substrates freely.
//!
//! Simplifications vs. the full VBI paper, mirroring this workspace's
//! BATON: the tree is built directly in its balanced final shape (the
//! short-lived population is known), and BATON-style sideways routing
//! tables are omitted — tree-path routing is already O(log N) and the
//! discovery messages they save affect constants, not shapes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Seeded replay: no wall-clock read and no hash-ordered container
// (clippy.toml lists them) in a result-affecting crate.
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::iter_over_hash_type
)]

pub mod ops;
pub mod tree;

pub use tree::{VbiConfig, VbiNode, VbiOverlay};
