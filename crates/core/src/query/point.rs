//! Point (exact-match) queries.
//!
//! "Point queries are straight forward" (Section 4): the query vector is
//! decomposed, each overlay routes to the owner of the corresponding
//! subspace key, and any cluster sphere *containing* the key marks its peer
//! as a candidate. A peer holding the exact item has that item inside one
//! of its cluster spheres at every level (spheres cover their members), so
//! the min-policy candidate set always contains the true holder — then a
//! direct exact-match request settles it.

use crate::network::HypermNetwork;
use crate::peer::{assert_finite_centre, peak};
use crate::query::{QueryBudget, QueryRun, Reply};
use crate::score::{rank, LevelScores};
use hyperm_sim::{NodeId, OpStats};
use hyperm_telemetry::OpKind;

/// Outcome of a point query.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Peers holding an exact copy, with the local index of the match.
    pub matches: Vec<(usize, usize)>,
    /// Candidate peers after aggregation (diagnostics).
    pub candidates: Vec<usize>,
    /// Whether a [`QueryBudget`] deadline cut the probe loop short — some
    /// candidates were never asked. Always `false` without a budget.
    pub truncated: bool,
    /// Total message cost.
    pub stats: OpStats,
}

impl HypermNetwork {
    /// Find every peer holding an item exactly equal to `q`.
    pub fn point_query(&self, from_peer: usize, q: &[f64]) -> PointResult {
        self.point_query_inner(from_peer, q, None)
    }

    /// Point query with a failure-tolerance [`QueryBudget`]: probes to
    /// unreachable (dead or partition-severed) candidates time out after
    /// `budget.fetch_timeout` ticks, and an optional phase-2 hop deadline
    /// stops probing early with [`PointResult::truncated`] set. Fallback
    /// does not apply — every candidate is probed anyway.
    pub fn point_query_budgeted(
        &self,
        from_peer: usize,
        q: &[f64],
        budget: QueryBudget,
    ) -> PointResult {
        self.point_query_inner(from_peer, q, Some(budget))
    }

    /// Both public entry points land here.
    fn point_query_inner(
        &self,
        from_peer: usize,
        q: &[f64],
        budget: Option<QueryBudget>,
    ) -> PointResult {
        assert_finite_centre(q);
        let dec = self.decompose_query(q);
        let q_peak = peak(q);
        let kind = OpKind::PointQuery;
        let mut run = QueryRun::open(self, kind, "point", from_peer, q.len(), budget, Vec::new);

        // Candidate = sphere containment per level, folded like scores.
        let mut per_level: Vec<LevelScores> = Vec::with_capacity(self.levels());
        for l in 0..self.levels() {
            let key = self.query_key(&dec, l);
            let ltel = self.level_recorder(l);
            per_level.push(run.op.level(l, &ltel, Some(&Vec::new), |lv| {
                let (hits, op) = self.overlay(l).point_lookup(NodeId(from_peer), &key);
                lv.stats += op;
                let mut level = LevelScores::default();
                for obj in &hits {
                    level.add(obj.payload.peer, obj.payload.items as f64);
                }
                lv.tail(|| vec![("hits", hits.len().into())]);
                level
            }));
        }
        let ranked = rank(&per_level, self.config.score_policy);
        let candidates: Vec<usize> = ranked.iter().map(|p| p.peer).collect();

        // Direct exact-match probes of every candidate.
        let mut matches = Vec::new();
        run.walk(&ranked, ranked.len(), Reply::Matched(false), |ps| {
            let hit = self.peer(ps.peer).local_point_with(q, &dec, q_peak);
            matches.extend(hit.map(|idx| (ps.peer, idx)));
            Some(Reply::Matched(hit.is_some()))
        });
        let (stats, truncated) = run.close(|| {
            vec![
                ("matches", matches.len().into()),
                ("candidates", candidates.len().into()),
            ]
        });
        PointResult {
            matches,
            candidates,
            truncated,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::HypermConfig;
    use crate::network::HypermNetwork;
    use hyperm_cluster::Dataset;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(seed: u64) -> (HypermNetwork, Vec<Dataset>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let peers: Vec<Dataset> = (0..6)
            .map(|_| {
                let mut ds = Dataset::new(8);
                let mut row = [0.0f64; 8];
                for _ in 0..30 {
                    for x in row.iter_mut() {
                        *x = rng.gen();
                    }
                    ds.push_row(&row);
                }
                ds
            })
            .collect();
        let cfg = HypermConfig::new(8)
            .with_levels(3)
            .with_clusters_per_peer(4)
            .with_seed(seed);
        let (net, _) = HypermNetwork::build(peers.clone(), cfg).unwrap();
        (net, peers)
    }

    #[test]
    fn finds_existing_items() {
        let (net, peers) = build(1);
        for (p, i) in [(0usize, 0usize), (3, 10), (5, 29)] {
            let q = peers[p].row(i).to_vec();
            let res = net.point_query(1, &q);
            assert!(res.matches.contains(&(p, i)), "missed exact item ({p},{i})");
        }
    }

    #[test]
    #[should_panic(expected = "query centre must be finite, coordinate 2 is NaN")]
    fn nan_centre_rejected() {
        let (net, peers) = build(2);
        let mut q = peers[0].row(0).to_vec();
        q[2] = f64::NAN;
        net.point_query(0, &q);
    }

    #[test]
    #[should_panic(expected = "query centre must be finite, coordinate 7 is inf")]
    fn infinite_centre_rejected() {
        let (net, peers) = build(2);
        let mut q = peers[0].row(0).to_vec();
        q[7] = f64::INFINITY;
        net.point_query(0, &q);
    }

    #[test]
    fn absent_items_return_empty() {
        let (net, _) = build(2);
        let q = vec![0.123456789; 8];
        let res = net.point_query(0, &q);
        assert!(res.matches.is_empty());
    }

    #[test]
    fn duplicated_items_found_on_all_holders() {
        let mut rng = StdRng::seed_from_u64(3);
        let shared: Vec<f64> = (0..8).map(|_| rng.gen()).collect();
        let peers: Vec<Dataset> = (0..4)
            .map(|_| {
                let mut ds = Dataset::new(8);
                ds.push_row(&shared);
                for _ in 0..10 {
                    let row: Vec<f64> = (0..8).map(|_| rng.gen()).collect();
                    ds.push_row(&row);
                }
                ds
            })
            .collect();
        let cfg = HypermConfig::new(8)
            .with_levels(3)
            .with_clusters_per_peer(3)
            .with_seed(4);
        let (net, _) = HypermNetwork::build(peers, cfg).unwrap();
        let res = net.point_query(0, &shared);
        let holders: std::collections::BTreeSet<usize> =
            res.matches.iter().map(|&(p, _)| p).collect();
        assert_eq!(holders.len(), 4, "all four holders should be found");
    }

    #[test]
    fn candidates_superset_of_matches() {
        let (net, peers) = build(5);
        let q = peers[2].row(2).to_vec();
        let res = net.point_query(0, &q);
        for (p, _) in &res.matches {
            assert!(res.candidates.contains(p));
        }
    }
}
