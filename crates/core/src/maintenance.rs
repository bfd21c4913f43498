//! Post-creation insertion (Section 6.1, Figure 10c).
//!
//! Hyper-M's scenario emphasises creation speed: "during the short
//! life-time of the network, we expect that most new data items fit into
//! the existing clusters". Items arriving after the overlay was built can
//! be handled two ways:
//!
//! * [`InsertPolicy::StaleSummaries`] — the paper's measured behaviour:
//!   the item is stored locally and the published summaries are left
//!   untouched. Queries can still find it *if* it falls inside one of the
//!   peer's published spheres at every level; otherwise recall decays —
//!   Figure 10c shows "even if we insert as much as 45% new documents, the
//!   recall loses only up to 33%".
//! * [`InsertPolicy::Republish`] — the repair extension: the item is
//!   absorbed into its nearest cluster per level (growing the sphere and
//!   its count) and the updated sphere is re-published, at overlay cost.

use crate::network::HypermNetwork;
use crate::peer::assert_finite;
use hyperm_geometry::vecmath::dist;
use hyperm_sim::OpStats;

/// How a post-creation item is integrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InsertPolicy {
    /// Store locally only; published summaries go stale (paper behaviour).
    #[default]
    StaleSummaries,
    /// Absorb into the nearest cluster per level and re-publish it.
    Republish,
}

impl HypermNetwork {
    /// Insert `item` (original space) at `peer` after the network was
    /// built. Returns the message cost (zero for stale summaries).
    ///
    /// # Panics
    /// If `peer` has crashed or departed, `item` is not `data_dim` wide,
    /// or a coordinate is not finite (under either policy).
    pub fn insert_item(&mut self, peer: usize, item: &[f64], policy: InsertPolicy) -> OpStats {
        // A dead peer's rows are reached by no query, and its spheres
        // cannot be republished.
        assert!(self.is_alive(peer), "dead peers cannot insert");
        assert_eq!(item.len(), self.config.data_dim, "item dimension mismatch");
        // A NaN has no nearest cluster to join, and an item no query can
        // return would be stored silently.
        assert_finite("item", item);
        let dec = self.decompose_query(item);
        let levels = self.levels();
        let mut stats = OpStats::zero();

        // Always: the item joins the peer's local collection and views.
        self.peer_mut(peer).push_item(item, &dec);

        if policy == InsertPolicy::Republish {
            for l in 0..levels {
                let s = self.subspace(l);
                let coeffs = dec.subspace(s).expect("level exists").to_vec();
                // Nearest cluster at this level.
                let (best, grew) = {
                    let p = self.peer_mut(peer);
                    let (best, _) = p.summaries[l]
                        .iter()
                        .enumerate()
                        .map(|(c, sp)| (c, dist(&sp.centroid, &coeffs)))
                        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                        .expect("peer has clusters");
                    let sphere = &mut p.summaries[l][best];
                    let old_radius = sphere.radius;
                    sphere.absorb(&coeffs);
                    (best, sphere.radius > old_radius)
                };
                // Re-publish the updated sphere: first invalidate the old
                // replicas (costed per replica), then place the refreshed
                // sphere — the overlay never accumulates stale versions.
                if grew || self.peer(peer).summaries[l][best].items.is_multiple_of(16) {
                    let tag = best as u64;
                    let overlay = self.overlay_mut(l);
                    let (_, invalidation) = overlay.remove_objects(peer, tag..tag + 1);
                    stats += invalidation;
                    stats += self.place_sphere(peer, l, best).stats;
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HypermConfig;
    use hyperm_cluster::Dataset;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(seed: u64) -> HypermNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let peers: Vec<Dataset> = (0..5)
            .map(|_| {
                let centre: f64 = rng.gen::<f64>() * 0.5;
                let mut ds = Dataset::new(8);
                let mut row = [0.0f64; 8];
                for _ in 0..25 {
                    for x in row.iter_mut() {
                        *x = (centre + rng.gen::<f64>() * 0.3).clamp(0.0, 1.0);
                    }
                    ds.push_row(&row);
                }
                ds
            })
            .collect();
        let cfg = HypermConfig::new(8)
            .with_levels(3)
            .with_clusters_per_peer(3)
            .with_seed(seed);
        HypermNetwork::build(peers, cfg).unwrap().0
    }

    #[test]
    fn stale_insert_is_free_and_local() {
        let mut net = build(1);
        let before = net.peer(2).len();
        let item = vec![0.4; 8];
        let cost = net.insert_item(2, &item, InsertPolicy::StaleSummaries);
        assert_eq!(cost, OpStats::zero());
        assert_eq!(net.peer(2).len(), before + 1);
        assert_eq!(net.peer(2).level_views()[0].len(), before + 1);
    }

    #[test]
    #[should_panic(expected = "item must be finite, coordinate 3 is NaN")]
    fn republish_refuses_a_nan_item() {
        let mut item = vec![0.4; 8];
        item[3] = f64::NAN;
        build(5).insert_item(1, &item, InsertPolicy::Republish);
    }

    #[test]
    #[should_panic(expected = "item must be finite, coordinate 0 is inf")]
    fn republish_refuses_an_infinite_item() {
        let mut item = vec![0.4; 8];
        item[0] = f64::INFINITY;
        build(5).insert_item(1, &item, InsertPolicy::Republish);
    }

    #[test]
    #[should_panic(expected = "item must be finite, coordinate 7 is NaN")]
    fn stale_insert_refuses_a_nan_item() {
        let mut item = vec![0.4; 8];
        item[7] = f64::NAN;
        build(5).insert_item(1, &item, InsertPolicy::StaleSummaries);
    }

    #[test]
    #[should_panic(expected = "item must be finite, coordinate 5 is -inf")]
    fn stale_insert_refuses_a_negative_infinite_item() {
        let mut item = vec![0.4; 8];
        item[5] = f64::NEG_INFINITY;
        build(5).insert_item(1, &item, InsertPolicy::StaleSummaries);
    }

    #[test]
    #[should_panic(expected = "dead peers cannot insert")]
    fn republish_refuses_a_dead_peer() {
        let mut net = build(5);
        net.crash_peer(2, true);
        net.insert_item(2, &[0.4; 8], InsertPolicy::Republish);
    }

    #[test]
    #[should_panic(expected = "dead peers cannot insert")]
    fn stale_insert_refuses_a_dead_peer() {
        let mut net = build(5);
        net.crash_peer(2, true);
        net.insert_item(2, &[0.4; 8], InsertPolicy::StaleSummaries);
    }

    /// A clone shares every peer's summarised rows, and an insert into the
    /// clone changes nothing the original answers.
    #[test]
    fn insert_into_a_clone_leaves_the_original_alone() {
        let a = build(6);
        let mut b = a.clone();
        for p in 0..a.len() {
            assert!(std::ptr::eq(a.peer(p).items.row(0), b.peer(p).items.row(0)));
        }
        let item = vec![0.97; 8];
        let answer = |net: &HypermNetwork| net.range_query(1, &item, 0.05, None).items;
        let (lens, before) = (a.peers().map(|p| p.len()).collect::<Vec<_>>(), answer(&a));
        b.insert_item(0, &item, InsertPolicy::Republish);
        assert_eq!(a.peers().map(|p| p.len()).collect::<Vec<_>>(), lens);
        assert_eq!(answer(&a), before);
        assert!(answer(&b).contains(&(0, lens[0])));
    }

    #[test]
    fn stale_item_near_existing_data_is_still_found() {
        let mut net = build(2);
        // Clone of an existing item: inside every published sphere.
        let item = net.peer(1).items.row(0).to_vec();
        net.insert_item(1, &item, InsertPolicy::StaleSummaries);
        let new_idx = net.peer(1).len() - 1;
        let res = net.range_query(0, &item, 0.05, None);
        assert!(res.items.contains(&(1, new_idx)));
    }

    #[test]
    fn republish_updates_summaries_and_costs_messages() {
        let mut net = build(3);
        // An outlier far from peer 0's region.
        let item = vec![0.95; 8];
        let before_counts: usize = net.peer(0).summaries[0].iter().map(|s| s.items).sum();
        let cost = net.insert_item(0, &item, InsertPolicy::Republish);
        assert!(cost.messages > 0, "republish should send messages");
        let after_counts: usize = net.peer(0).summaries[0].iter().map(|s| s.items).sum();
        assert_eq!(after_counts, before_counts + 1);
    }

    #[test]
    fn republished_outlier_becomes_findable() {
        let mut net = build(4);
        let item = vec![0.97; 8];
        net.insert_item(0, &item, InsertPolicy::Republish);
        let new_idx = net.peer(0).len() - 1;
        let res = net.range_query(1, &item, 0.05, None);
        assert!(
            res.items.contains(&(0, new_idx)),
            "republished item not found; ranked: {:?}",
            res.ranked
        );
    }
}

#[cfg(test)]
mod invalidation_tests {
    use super::*;
    use crate::config::HypermConfig;
    use hyperm_cluster::Dataset;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Repeated republishes must not accumulate stale object versions in
    /// the overlays: per (peer, cluster) at most one version exists.
    #[test]
    fn republish_leaves_no_stale_versions() {
        let mut rng = StdRng::seed_from_u64(11);
        let peers: Vec<Dataset> = (0..4)
            .map(|_| {
                let mut ds = Dataset::new(8);
                let mut row = [0.0f64; 8];
                for _ in 0..20 {
                    for x in row.iter_mut() {
                        *x = rng.gen::<f64>() * 0.5;
                    }
                    ds.push_row(&row);
                }
                ds
            })
            .collect();
        let cfg = HypermConfig::new(8)
            .with_levels(3)
            .with_clusters_per_peer(3)
            .with_seed(12);
        let (mut net, _) = HypermNetwork::build(peers, cfg).unwrap();

        // Hammer the same peer with outliers that grow its spheres.
        for i in 0..10 {
            let item = vec![0.6 + 0.04 * i as f64; 8];
            net.insert_item(0, &item, InsertPolicy::Republish);
        }
        // Count distinct ids per (peer, tag) in every overlay: replicas of
        // one version share an id, so the id set per tag must have size 1.
        for l in 0..net.levels() {
            let mut ids: std::collections::BTreeMap<(usize, u64), std::collections::BTreeSet<u64>> =
                std::collections::BTreeMap::new();
            let overlay = net.overlay(l);
            // Walk all stores via stored_items_per_node length and the
            // public store accessors per backend (Can here).
            if let crate::overlay::Overlay::Can(can) = overlay {
                for node in can.nodes() {
                    for obj in node.store.iter() {
                        ids.entry((obj.payload.peer, obj.payload.tag))
                            .or_default()
                            .insert(obj.id);
                    }
                }
            }
            for ((peer, tag), versions) in ids {
                assert_eq!(
                    versions.len(),
                    1,
                    "level {l}: peer {peer} tag {tag} has {} versions",
                    versions.len()
                );
            }
        }
    }
}
