//! BATON — a BAlanced Tree Overlay Network [Jagadish, Ooi, Vu — VLDB 2005]
//! as an alternative substrate for Hyper-M.
//!
//! The paper states that Hyper-M "has been designed independent of the
//! underlying peer-to-peer overlays, and it could be implemented on top of
//! BATON, VBI-tree, CAN or any peer-to-peer overlays … so long as they can
//! support multi-dimensional indexing". This crate delivers that claim:
//!
//! * [`tree`] — the balanced binary tree: every peer is a tree node
//!   (internal *and* leaf nodes hold data, as in BATON), with parent/child
//!   links, in-order **adjacent** links, and left/right **routing tables**
//!   holding same-level nodes at distances `2^i` (BATON's O(log N) fingers);
//! * [`zorder`] — Morton (Z-order) curve mapping between the
//!   `d`-dimensional key space `[0,1)^d` and BATON's one-dimensional key
//!   range. Bit interleaving preserves coordinate-wise domination, so the
//!   Z-interval of a bounding box always contains the Z-codes of every
//!   point inside it — which is what keeps range queries free of false
//!   dismissals after the mapping;
//! * [`ops`] — the same object operations the CAN substrate exposes
//!   (sphere insertion with replication, point lookup, flooding range
//!   query) over the tree, using the shared object/result types from
//!   [`hyperm_can`] so the Hyper-M core can swap substrates freely.
//!
//! Fidelity note: real BATON grows by node joins with rotation-based
//! rebalancing; a simulation over a fixed short-lived population (the
//! Hyper-M scenario) can build the final balanced shape directly, which is
//! what [`tree::BatonOverlay::bootstrap`] does. Join/leave dynamics are out
//! of scope here exactly as they are in the paper's experiments.

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
pub mod zorder;

pub use tree::{BatonConfig, BatonNode, BatonOverlay};
pub use zorder::ZOrder;
