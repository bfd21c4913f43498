//! Object operations over the VBI-tree: replicated sphere insertion, point
//! lookups and tree-descent range queries.
//!
//! Spheres live in the leaf regions they intersect (same replication
//! contract as the CAN and BATON substrates); queries descend from the
//! lowest covering virtual node into exactly the intersecting subtrees, so
//! every candidate leaf — and therefore every replica — is visited.

use crate::tree::VbiOverlay;
use hyperm_can::ops::SeenIds;
use hyperm_can::{InsertOutcome, ObjectRef, ObjectView, RangeOutcome, StoredObject};
use hyperm_geometry::vecmath::dist;
use hyperm_sim::{NodeId, OpStats};
use std::ops::Range;

fn query_bytes(dim: usize) -> u64 {
    8 * (dim as u64 + 1) + 16
}

impl VbiOverlay {
    /// Insert a sphere object; with `replicate` it is copied into every
    /// leaf region the sphere overlaps (found by tree descent).
    pub fn insert_sphere(
        &mut self,
        from: NodeId,
        centre: Vec<f64>,
        radius: f64,
        payload: ObjectRef,
        replicate: bool,
    ) -> InsertOutcome {
        assert_eq!(centre.len(), self.dim(), "centre dimension mismatch");
        assert!(radius >= 0.0, "negative radius {radius}");
        let id = self.next_object_id;
        self.next_object_id += 1;
        let obj = StoredObject {
            id,
            centre,
            radius,
            payload,
        };
        let bytes = obj.wire_bytes();

        let (owner, mut stats) = self.route_point(from, &obj.centre, bytes);
        let route_hops = stats.hops;

        let mut replicas = 0usize;
        let mut flood_depth = 0u64;
        if replicate && radius > 0.0 {
            let (leaves, walk) =
                self.leaves_intersecting(self.leaf_of(owner), &obj.centre, obj.radius, bytes);
            stats += walk;
            // The descent fans out in parallel; its critical path is the
            // tree height of the covering subtree (≤ log₂ of its leaves).
            flood_depth = (leaves.len().max(1) as f64).log2().ceil() as u64;
            for leaf in leaves {
                let crate::tree::VbiNodeKind::Leaf { peer } = self.node(leaf).kind else {
                    unreachable!("leaves_intersecting returns leaves")
                };
                self.stores[peer.0].push(obj.clone());
                replicas += 1;
            }
        } else {
            self.stores[owner.0].push(obj);
            replicas = 1;
        }
        InsertOutcome {
            owner,
            replicas,
            // Tree publishes are reliable: every intended replica lands.
            targets: replicas,
            stats,
            rounds: route_hops + flood_depth,
        }
    }

    /// Insert a zero-sized (point) object.
    pub fn insert_point(
        &mut self,
        from: NodeId,
        point: Vec<f64>,
        payload: ObjectRef,
    ) -> InsertOutcome {
        self.insert_sphere(from, point, 0.0, payload, false)
    }

    /// Remove every stored object (all replicas, all versions) published by
    /// `peer` under a tag in `tags`, in one pass; one invalidation message
    /// per removed replica.
    pub fn remove_objects(&mut self, peer: usize, tags: Range<u64>) -> (usize, OpStats) {
        let mut removed = 0usize;
        for store in self.stores.iter_mut() {
            let before = store.len();
            store.retain(|o| !(o.payload.peer == peer && tags.contains(&o.payload.tag)));
            removed += before - store.len();
        }
        let stats = OpStats {
            hops: removed as u64,
            messages: removed as u64,
            bytes: removed as u64 * 24,
            ..OpStats::zero()
        };
        (removed, stats)
    }

    /// Route to the owner of `point` and return the stored spheres
    /// containing it.
    pub fn point_lookup(&self, from: NodeId, point: &[f64]) -> (Vec<StoredObject>, OpStats) {
        assert_eq!(point.len(), self.dim(), "point dimension mismatch");
        let (owner, mut stats) = self.route_point(from, point, query_bytes(self.dim()));
        let matches: Vec<StoredObject> = self.stores[owner.0]
            .iter()
            .filter(|o| dist(&o.centre, point) <= o.radius + 1e-12)
            .cloned()
            .collect();
        let resp_bytes: u64 = matches
            .iter()
            .map(StoredObject::wire_bytes)
            .sum::<u64>()
            .max(16);
        stats += OpStats::one_hop(resp_bytes);
        (matches, stats)
    }

    /// Tree-descent range query: [`VbiOverlay::range_visit`] with a
    /// collector that clones each match.
    pub fn range_query(&self, from: NodeId, centre: &[f64], radius: f64) -> RangeOutcome {
        let mut matches = Vec::new();
        let (nodes_visited, stats) =
            self.range_visit(from, centre, radius, |obj, _| matches.push(obj.to_stored()));
        RangeOutcome {
            matches,
            nodes_visited,
            stats,
        }
    }

    /// The range flood: descend into the leaves intersecting the query
    /// ball and hand every stored object passing the exact
    /// sphere-intersection test to `visit` as `(object, b)`, once per
    /// object id in leaf order, where `b` is [`dist`] from the object's
    /// centre to `centre`. Returns the leaves visited and the total
    /// message cost.
    pub fn range_visit(
        &self,
        from: NodeId,
        centre: &[f64],
        radius: f64,
        mut visit: impl FnMut(ObjectView<'_>, f64),
    ) -> (usize, OpStats) {
        assert_eq!(centre.len(), self.dim(), "centre dimension mismatch");
        assert!(radius >= 0.0, "negative radius {radius}");
        let qb = query_bytes(self.dim());
        let (leaves, mut stats) = self.leaves_intersecting(self.leaf_of(from), centre, radius, qb);

        let mut seen = SeenIds::default();
        let mut resp_bytes = 0u64;
        for leaf in &leaves {
            let crate::tree::VbiNodeKind::Leaf { peer } = self.node(*leaf).kind else {
                unreachable!()
            };
            let mut local = 0u64;
            for obj in &self.stores[peer.0] {
                let b = dist(&obj.centre, centre);
                if b <= obj.radius + radius + 1e-12 && seen.insert(obj.id) {
                    local += obj.wire_bytes();
                    visit(obj.view(), b);
                }
            }
            resp_bytes += local.max(16);
        }
        let nv = leaves.len();
        stats += OpStats {
            hops: nv as u64,
            messages: nv as u64,
            bytes: resp_bytes,
            ..OpStats::zero()
        };
        (nv, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::VbiConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn payload(peer: usize) -> ObjectRef {
        ObjectRef {
            peer,
            tag: 0,
            items: 1,
        }
    }

    #[test]
    fn insert_and_point_lookup() {
        let mut overlay = VbiOverlay::bootstrap(VbiConfig::new(2), 16);
        overlay.insert_sphere(NodeId(0), vec![0.3, 0.3], 0.1, payload(1), true);
        let (hits, _) = overlay.point_lookup(NodeId(9), &[0.32, 0.3]);
        assert_eq!(hits.len(), 1);
        let (miss, _) = overlay.point_lookup(NodeId(9), &[0.9, 0.9]);
        assert!(miss.is_empty());
    }

    #[test]
    fn replication_covers_intersecting_leaves() {
        let mut overlay = VbiOverlay::bootstrap(VbiConfig::new(2), 24);
        let out = overlay.insert_sphere(NodeId(0), vec![0.5, 0.5], 0.25, payload(1), true);
        assert!(out.replicas > 1);
        // Each peer's store has the object iff its leaf intersects.
        for p in 0..24 {
            let leaf = overlay.leaf_of(NodeId(p));
            let should = overlay
                .node(leaf)
                .region
                .intersects_sphere(&[0.5, 0.5], 0.25);
            let has = overlay.stores[p].iter().any(|o| o.id == 0);
            assert_eq!(should, has, "peer {p}");
        }
    }

    #[test]
    fn range_query_complete_vs_linear_scan() {
        let mut overlay = VbiOverlay::bootstrap(VbiConfig::new(2), 20);
        let mut rng = StdRng::seed_from_u64(3);
        let mut truth: Vec<(Vec<f64>, f64)> = Vec::new();
        for i in 0..120 {
            let centre = vec![rng.gen::<f64>(), rng.gen::<f64>()];
            let r = rng.gen::<f64>() * 0.1;
            overlay.insert_sphere(NodeId(0), centre.clone(), r, payload(i), true);
            truth.push((centre, r));
        }
        for _ in 0..40 {
            let q = [rng.gen::<f64>(), rng.gen::<f64>()];
            let qr = rng.gen::<f64>() * 0.2;
            let res = overlay.range_query(NodeId(4), &q, qr);
            let expected = truth
                .iter()
                .filter(|(c, r)| dist(c, &q) <= r + qr + 1e-12)
                .count();
            assert_eq!(res.matches.len(), expected, "q = {q:?}, qr = {qr}");
        }
    }

    #[test]
    fn no_replication_stores_once() {
        let mut overlay = VbiOverlay::bootstrap(VbiConfig::new(2), 12);
        let out = overlay.insert_sphere(NodeId(0), vec![0.5, 0.5], 0.3, payload(1), false);
        assert_eq!(out.replicas, 1);
        assert_eq!(overlay.store_sizes().iter().sum::<usize>(), 1);
    }

    #[test]
    fn costs_and_rounds_recorded() {
        let mut overlay = VbiOverlay::bootstrap(VbiConfig::new(3), 30);
        let out = overlay.insert_sphere(NodeId(7), vec![0.2, 0.8, 0.5], 0.1, payload(1), true);
        assert_eq!(out.stats.hops, out.stats.messages);
        assert!(out.rounds <= out.stats.hops + 8);
        let res = overlay.range_query(NodeId(2), &[0.2, 0.8, 0.5], 0.2);
        assert!(res.nodes_visited >= 1);
        assert!(!res.matches.is_empty());
    }
}
