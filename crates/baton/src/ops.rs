//! Object operations over BATON: sphere insertion with replication, point
//! lookup and flooding range queries.
//!
//! Objects keep their full d-dimensional geometry (`centre`, `radius` in
//! the application key space); only *placement* goes through the Z-order
//! mapping. A sphere is replicated into every node whose 1-d range
//! intersects the sphere's Z-interval (a conservative superset of the
//! zones it truly overlaps); range queries walk the same interval via the
//! in-order adjacency chain and filter candidates by the exact
//! d-dimensional sphere test — so, as with the CAN substrate, no true
//! match can be missed.

use crate::tree::BatonOverlay;
use hyperm_can::ops::SeenIds;
use hyperm_can::{InsertOutcome, ObjectRef, ObjectView, RangeOutcome, StoredObject};
use hyperm_geometry::vecmath::dist;
use hyperm_sim::{NodeId, OpStats};
use std::ops::Range;

fn query_bytes(dim: usize) -> u64 {
    8 * (dim as u64 + 1) + 16
}

impl BatonOverlay {
    /// Insert a d-dimensional sphere object.
    ///
    /// Routes to the owner of the centre's Z-code; with `replicate` on,
    /// replicas spread along the adjacency chain across the sphere's
    /// Z-interval (each step one message).
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

        let z_centre = self.encode(&obj.centre);
        let (owner, mut stats) = self.route_1d(from, z_centre, bytes);
        let route_hops = stats.hops;

        let mut replicas = 0usize;
        let mut flood_depth = 0u64;
        if replicate && radius > 0.0 {
            let (z_lo, z_hi) = self.zorder.interval_of_sphere(&obj.centre, obj.radius);
            // Walk left from the owner across the interval…
            let mut covered = vec![owner];
            let mut cur = owner;
            let mut left_steps = 0u64;
            while let Some(prev) = self.node(cur).adj_prev {
                if self.node(prev).range.1 <= z_lo {
                    break;
                }
                stats += OpStats::one_hop(bytes);
                left_steps += 1;
                covered.push(prev);
                cur = prev;
            }
            // …and right.
            let mut cur = owner;
            let mut right_steps = 0u64;
            while let Some(next) = self.node(cur).adj_next {
                if self.node(next).range.0 >= z_hi {
                    break;
                }
                stats += OpStats::one_hop(bytes);
                right_steps += 1;
                covered.push(next);
                cur = next;
            }
            // The two chain walks run in parallel; each is sequential.
            flood_depth = left_steps.max(right_steps);
            for n in covered {
                self.node_mut(n).store.push(obj.clone());
                replicas += 1;
            }
        } else {
            self.node_mut(owner).store.push(obj);
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
        for idx in 0..self.len() {
            let node = self.node_mut(NodeId(idx));
            let before = node.store.len();
            node.store
                .retain(|o| !(o.payload.peer == peer && tags.contains(&o.payload.tag)));
            removed += before - node.store.len();
        }
        let stats = OpStats {
            hops: removed as u64,
            messages: removed as u64,
            bytes: removed as u64 * 24,
            ..OpStats::zero()
        };
        (removed, stats)
    }

    /// Route to the owner of `point`'s Z-code and return the stored spheres
    /// containing the point (exact d-dimensional test).
    pub fn point_lookup(&self, from: NodeId, point: &[f64]) -> (Vec<StoredObject>, OpStats) {
        assert_eq!(point.len(), self.dim(), "point dimension mismatch");
        let z = self.encode(point);
        let (owner, mut stats) = self.route_1d(from, z, query_bytes(self.dim()));
        let matches: Vec<StoredObject> = self
            .node(owner)
            .store
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

    /// Flooding range query over the query ball's Z-interval:
    /// [`BatonOverlay::range_visit`] with a collector that clones each
    /// match.
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

    /// The range flood: walk the query ball's Z-interval and hand every
    /// candidate passing the exact sphere-intersection test to `visit` as
    /// `(object, b)`, once per object id in walk order, where `b` is
    /// [`dist`] from the object's centre to `centre`. Returns the nodes
    /// visited and the total message cost.
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
        let z_centre = self.encode(centre);
        let (owner, mut stats) = self.route_1d(from, z_centre, qb);
        let (z_lo, z_hi) = self.zorder.interval_of_sphere(centre, radius);

        // Collect the contiguous run of nodes covering the interval.
        let mut visited = vec![owner];
        let mut cur = owner;
        while let Some(prev) = self.node(cur).adj_prev {
            if self.node(prev).range.1 <= z_lo {
                break;
            }
            stats += OpStats::one_hop(qb);
            visited.push(prev);
            cur = prev;
        }
        let mut cur = owner;
        while let Some(next) = self.node(cur).adj_next {
            if self.node(next).range.0 >= z_hi {
                break;
            }
            stats += OpStats::one_hop(qb);
            visited.push(next);
            cur = next;
        }

        let mut seen = SeenIds::default();
        let mut resp_bytes = 0u64;
        for &n in &visited {
            let mut local = 0u64;
            for obj in &self.node(n).store {
                let b = dist(&obj.centre, centre);
                if b <= obj.radius + radius + 1e-12 && seen.insert(obj.id) {
                    local += obj.wire_bytes();
                    visit(obj.view(), b);
                }
            }
            resp_bytes += local.max(16);
        }
        let nv = visited.len();
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
    use crate::tree::BatonConfig;
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
    fn point_insert_and_lookup() {
        let mut overlay = BatonOverlay::bootstrap(BatonConfig::new(2), 16);
        overlay.insert_sphere(NodeId(0), vec![0.3, 0.3], 0.1, payload(1), true);
        let (hits, _) = overlay.point_lookup(NodeId(5), &[0.32, 0.3]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].payload.peer, 1);
        let (miss, _) = overlay.point_lookup(NodeId(5), &[0.8, 0.8]);
        assert!(miss.is_empty());
    }

    #[test]
    fn replication_covers_z_interval() {
        let mut overlay = BatonOverlay::bootstrap(BatonConfig::new(2), 32);
        let out = overlay.insert_sphere(NodeId(0), vec![0.5, 0.5], 0.2, payload(1), true);
        assert!(out.replicas >= 1);
        // Every node whose range intersects the sphere's z-interval holds a
        // replica.
        let (z_lo, z_hi) = overlay.zorder.interval_of_sphere(&[0.5, 0.5], 0.2);
        for nd in overlay.nodes() {
            let intersects = nd.range.1 > z_lo && nd.range.0 < z_hi;
            let has = nd.store.iter().any(|o| o.id == 0);
            assert_eq!(intersects, has, "node {} replica mismatch", nd.id);
        }
    }

    #[test]
    fn range_query_complete_vs_linear_scan() {
        let mut overlay = BatonOverlay::bootstrap(BatonConfig::new(2), 24);
        let mut rng = StdRng::seed_from_u64(3);
        let mut truth: Vec<(Vec<f64>, f64)> = Vec::new();
        for i in 0..150 {
            let centre = vec![rng.gen::<f64>(), rng.gen::<f64>()];
            let r = rng.gen::<f64>() * 0.08;
            overlay.insert_sphere(NodeId(0), centre.clone(), r, payload(i), true);
            truth.push((centre, r));
        }
        for _ in 0..40 {
            let q = [rng.gen::<f64>(), rng.gen::<f64>()];
            let qr = rng.gen::<f64>() * 0.15;
            let res = overlay.range_query(NodeId(1), &q, qr);
            let expected = truth
                .iter()
                .filter(|(c, r)| dist(c, &q) <= r + qr + 1e-12)
                .count();
            assert_eq!(res.matches.len(), expected, "q = {q:?}, qr = {qr}");
        }
    }

    #[test]
    fn no_replication_mode_stores_once() {
        let mut overlay = BatonOverlay::bootstrap(BatonConfig::new(2), 16);
        let out = overlay.insert_sphere(NodeId(0), vec![0.5, 0.5], 0.3, payload(1), false);
        assert_eq!(out.replicas, 1);
        assert_eq!(overlay.store_sizes().iter().sum::<usize>(), 1);
    }

    #[test]
    fn one_dimensional_subspace_works() {
        // Hyper-M's A and D0 overlays are 1-d: the Z-map degenerates to the
        // identity and replication walks the plain interval.
        let mut overlay = BatonOverlay::bootstrap(BatonConfig::new(1), 20);
        overlay.insert_sphere(NodeId(0), vec![0.45], 0.1, payload(2), true);
        let res = overlay.range_query(NodeId(7), &[0.5], 0.02);
        assert_eq!(res.matches.len(), 1);
        let res = overlay.range_query(NodeId(7), &[0.9], 0.02);
        assert!(res.matches.is_empty());
    }

    #[test]
    fn costs_are_recorded() {
        let mut overlay = BatonOverlay::bootstrap(BatonConfig::new(2), 64);
        let out = overlay.insert_sphere(NodeId(9), vec![0.8, 0.2], 0.05, payload(1), true);
        assert_eq!(out.stats.hops, out.stats.messages);
        assert!(out.stats.bytes >= out.stats.messages * 16);
        let res = overlay.range_query(NodeId(3), &[0.8, 0.2], 0.1);
        assert!(res.stats.messages > 0);
        assert!(res.nodes_visited >= 1);
    }
}
