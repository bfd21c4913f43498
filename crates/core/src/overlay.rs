//! Overlay-substrate abstraction: each wavelet subspace gets one
//! [`Overlay`] of the configured [`OverlayBackend`], which forwards only
//! the 14 operations CAN, BATON and VBI all perform (a range flood either
//! collects its matches, `range_query`, or visits them, `range_visit`).
//! CAN-only entry points reach CAN through [`Overlay::as_can`] or the
//! crate's panicking `can_mut`, so the trees (comparison substrates for the
//! insert/query claim) refuse them:
//!
//! | operation | CAN | BATON | VBI |
//! |---|---|---|---|
//! | build, insert, refresh, range (collected or visited), k-nn, point | yes | yes | yes |
//! | join | yes | `JoinError::UnsupportedBackend` | `JoinError::UnsupportedBackend` |
//! | crash, depart, merge, split, migrate | yes | panics | panics |
//! | install a fault plan, partition or load ledger | yes | panics | panics |
//! | clear one (`None`) | yes | no-op | no-op |
//! | overlay tracing | yes | untraced | untraced |

use hyperm_baton::{BatonConfig, BatonOverlay};
use hyperm_can::{
    CanConfig, CanOverlay, InsertOutcome, ObjectRef, ObjectView, RangeOutcome, StoredObject,
};
use hyperm_sim::{NodeId, OpStats};
use hyperm_vbi::{VbiConfig, VbiOverlay};
use std::ops::Range;

/// Which overlay substrate to build per wavelet subspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlayBackend {
    /// Content-Addressable Network (the paper's evaluation substrate).
    #[default]
    Can,
    /// BATON balanced tree over a Z-order linearisation of the subspace.
    Baton,
    /// VBI-tree: a virtual binary index over a kd-partition of the subspace.
    Vbi,
}

/// A per-subspace overlay of any of the three substrates.
#[expect(
    clippy::large_enum_variant,
    reason = "one per level: boxing CAN buys nothing"
)]
#[derive(Debug, Clone)]
pub enum Overlay {
    /// CAN substrate.
    Can(CanOverlay),
    /// BATON substrate.
    Baton(BatonOverlay),
    /// VBI-tree substrate.
    Vbi(VbiOverlay),
}

/// Evaluate `$call` on whichever substrate `$overlay` holds, bound as `$o`.
macro_rules! each {
    ($overlay:expr, $o:ident => $call:expr) => {
        match $overlay {
            Overlay::Can($o) => $call,
            Overlay::Baton($o) => $call,
            Overlay::Vbi($o) => $call,
        }
    };
}

impl Overlay {
    /// Bootstrap an overlay of `n` nodes over a `dim`-dimensional key box
    /// (a 1-d CAN with fingers, as by default).
    pub fn bootstrap(backend: OverlayBackend, dim: usize, seed: u64, n: usize) -> Overlay {
        Self::bootstrap_fingers(backend, dim, seed, n, true)
    }

    /// [`Overlay::bootstrap`] with CAN's finger switch (ignored by the
    /// trees).
    pub(crate) fn bootstrap_fingers(
        backend: OverlayBackend,
        dim: usize,
        seed: u64,
        n: usize,
        fingers: bool,
    ) -> Overlay {
        match backend {
            OverlayBackend::Can => Overlay::Can(CanOverlay::bootstrap(
                CanConfig::new(dim).with_seed(seed).with_fingers(fingers),
                n,
            )),
            OverlayBackend::Baton => Overlay::Baton(BatonOverlay::bootstrap(
                BatonConfig::new(dim).with_seed(seed),
                n,
            )),
            OverlayBackend::Vbi => Overlay::Vbi(VbiOverlay::bootstrap(
                VbiConfig::new(dim).with_seed(seed),
                n,
            )),
        }
    }

    /// Key-space dimensionality.
    pub fn dim(&self) -> usize {
        each!(self, o => o.dim())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        each!(self, o => o.len())
    }

    /// Whether the overlay has no nodes (never true post-bootstrap).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Construction (join) cost.
    pub fn bootstrap_stats(&self) -> OpStats {
        each!(self, o => o.bootstrap_stats())
    }

    /// Insert a sphere object (replication semantics: see the substrate).
    pub fn insert_sphere(
        &mut self,
        from: NodeId,
        centre: Vec<f64>,
        radius: f64,
        payload: ObjectRef,
        replicate: bool,
    ) -> InsertOutcome {
        each!(self, o => o.insert_sphere(from, centre, radius, payload, replicate))
    }

    /// [`CanOverlay::try_insert_sphere`]; the plain insert on a tree.
    pub fn try_insert_sphere(
        &mut self,
        from: NodeId,
        centre: Vec<f64>,
        radius: f64,
        payload: ObjectRef,
        replicate: bool,
    ) -> Result<InsertOutcome, OpStats> {
        match self {
            Overlay::Can(o) => o.try_insert_sphere(from, centre, radius, payload, replicate),
            Overlay::Baton(_) | Overlay::Vbi(_) => {
                Ok(self.insert_sphere(from, centre, radius, payload, replicate))
            }
        }
    }

    /// Flooding range query.
    pub fn range_query(&self, from: NodeId, centre: &[f64], radius: f64) -> RangeOutcome {
        each!(self, o => o.range_query(from, centre, radius))
    }

    /// The range flood without the copies: each match goes to `visit` as
    /// `(borrowed object, centre distance)`, in the order
    /// [`Overlay::range_query`] would list it. Returns the nodes visited and
    /// the message cost.
    pub fn range_visit(
        &self,
        from: NodeId,
        centre: &[f64],
        radius: f64,
        visit: impl FnMut(ObjectView<'_>, f64),
    ) -> (usize, OpStats) {
        each!(self, o => o.range_visit(from, centre, radius, visit))
    }

    /// Point lookup: stored spheres containing the point.
    pub fn point_lookup(&self, from: NodeId, point: &[f64]) -> (Vec<StoredObject>, OpStats) {
        each!(self, o => o.point_lookup(from, point))
    }

    /// Remove every replica/version `peer` published under a tag in
    /// `tags`, in one pass over the stores.
    pub fn remove_objects(&mut self, peer: usize, tags: Range<u64>) -> (usize, OpStats) {
        each!(self, o => o.remove_objects(peer, tags))
    }

    /// Stored objects per node (replicas counted everywhere).
    pub fn store_sizes(&self) -> Vec<usize> {
        each!(self, o => o.store_sizes())
    }

    /// Summarised item mass per node.
    pub fn stored_items_per_node(&self) -> Vec<u64> {
        each!(self, o => o.stored_items_per_node())
    }

    /// Structural invariant checks (test support).
    pub fn check_invariants(&self) {
        each!(self, o => o.check_invariants())
    }

    /// The CAN overlay inside, if this is the CAN substrate.
    pub fn as_can(&self) -> Option<&CanOverlay> {
        match self {
            Overlay::Can(o) => Some(o),
            Overlay::Baton(_) | Overlay::Vbi(_) => None,
        }
    }

    /// The CAN inside, for a CAN-only `what`; a tree panics instead.
    pub(crate) fn can_mut(&mut self, what: &str) -> &mut CanOverlay {
        match self {
            Overlay::Can(o) => o,
            Overlay::Baton(_) | Overlay::Vbi(_) => panic!("{what} requires the CAN substrate"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_backends_bootstrap_and_answer() {
        for backend in [
            OverlayBackend::Can,
            OverlayBackend::Baton,
            OverlayBackend::Vbi,
        ] {
            let mut overlay = Overlay::bootstrap(backend, 2, 1, 16);
            assert_eq!(overlay.len(), 16);
            assert_eq!(overlay.dim(), 2);
            overlay.check_invariants();
            let out = overlay.insert_sphere(
                NodeId(0),
                vec![0.4, 0.6],
                0.1,
                ObjectRef {
                    peer: 3,
                    tag: 0,
                    items: 7,
                },
                true,
            );
            assert!(out.replicas >= 1);
            let res = overlay.range_query(NodeId(1), &[0.42, 0.6], 0.05);
            assert_eq!(res.matches.len(), 1, "{backend:?}");
            assert_eq!(res.matches[0].payload.peer, 3);
            let (hits, _) = overlay.point_lookup(NodeId(2), &[0.45, 0.6]);
            assert_eq!(hits.len(), 1, "{backend:?}");
            let total_mass: u64 = overlay.stored_items_per_node().iter().sum();
            assert!(total_mass >= 7);
        }
    }
}
