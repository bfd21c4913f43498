//! Point (exact-match) queries.
//!
//! "Point queries are straight forward" (Section 4): the query vector is
//! decomposed, each overlay routes to the owner of the corresponding
//! subspace key, and any cluster sphere *containing* the key marks its peer
//! as a candidate. A peer holding the exact item has that item inside one
//! of its cluster spheres at every level (spheres cover their members), so
//! the min-policy candidate set always contains the true holder — then a
//! direct exact-match request settles it.

use crate::config::ScorePolicy;
use crate::network::HypermNetwork;
use crate::query::{direct_fetch_cost, timed_out_fetch_cost, QueryBudget};
use hyperm_sim::{NodeId, OpStats};
use hyperm_telemetry::{names, OpKind, SpanId};
use std::collections::BTreeMap;

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

    /// Both public entry points land here; `budget = None` keeps the
    /// legacy probe loop, byte for byte.
    fn point_query_inner(
        &self,
        from_peer: usize,
        q: &[f64],
        budget: Option<QueryBudget>,
    ) -> PointResult {
        let dec = self.decompose_query(q);
        let tel = self.recorder();
        let traced = tel.is_enabled();
        // hyperm-lint: allow(det-wall-clock) — host-latency metric for the trace only; never feeds simulated results or routing decisions
        let t0 = traced.then(std::time::Instant::now);
        let qspan = if traced {
            tel.span(
                // Roots under the ambient scope (serve span when remote).
                tel.scope(),
                names::QUERY,
                vec![("kind", "point".into()), ("from", from_peer.into())],
            )
        } else {
            SpanId::NONE
        };

        // Candidate = sphere containment per level, folded like scores.
        let mut stats = OpStats::zero();
        let mut per_level: Vec<BTreeMap<usize, f64>> = Vec::with_capacity(self.levels());
        for l in 0..self.levels() {
            let key = self.query_key(&dec, l);
            let ltel = self.overlay(l).recorder();
            let lspan = if ltel.is_enabled() {
                let s = ltel.span(qspan, names::OVERLAY_LOOKUP, vec![]);
                ltel.set_scope(s);
                s
            } else {
                SpanId::NONE
            };
            let (hits, op) = self.overlay(l).point_lookup(NodeId(from_peer), &key);
            let mut level: BTreeMap<usize, f64> = BTreeMap::new();
            for obj in &hits {
                *level.entry(obj.payload.peer).or_insert(0.0) += obj.payload.items as f64;
            }
            if ltel.is_enabled() {
                ltel.set_scope(SpanId::NONE);
                ltel.end(
                    lspan,
                    names::OVERLAY_LOOKUP,
                    vec![
                        ("hops", op.hops.into()),
                        ("messages", op.messages.into()),
                        ("bytes", op.bytes.into()),
                        ("hits", hits.len().into()),
                    ],
                );
                ltel.record_op(OpKind::PointQuery, Some(l), op);
            }
            stats += op;
            per_level.push(level);
        }
        let ranked = crate::score::aggregate(&per_level, self.config.score_policy);
        let candidates: Vec<usize> = ranked.iter().map(|p| p.peer).collect();

        // Direct exact-match probes.
        let q_bytes = 8 * (q.len() as u64 + 1) + 16;
        let mut matches = Vec::new();
        let mut truncated = false;
        match budget {
            None => {
                // Legacy probe loop — byte-identical to the pre-budget path.
                for &peer in &candidates {
                    if !self.is_alive(peer) {
                        stats += OpStats {
                            hops: 1,
                            messages: 1,
                            bytes: q_bytes,
                            ..OpStats::zero()
                        };
                        if traced {
                            tel.event(
                                qspan,
                                names::FETCH,
                                vec![
                                    ("peer", peer.into()),
                                    ("alive", false.into()),
                                    ("matched", false.into()),
                                ],
                            );
                        }
                        continue;
                    }
                    stats += direct_fetch_cost(q_bytes, 24);
                    // Exactly-once load attribution: the answering peer.
                    if let Some(ledger) = self.load_ledger() {
                        ledger.charge_fetch_answered(peer, 24);
                    }
                    let hit = self.peer(peer).local_point(q);
                    if traced {
                        tel.event(
                            qspan,
                            names::FETCH,
                            vec![
                                ("peer", peer.into()),
                                ("alive", true.into()),
                                ("matched", hit.is_some().into()),
                            ],
                        );
                    }
                    if let Some(idx) = hit {
                        matches.push((peer, idx));
                    }
                }
            }
            Some(b) => {
                let ticks = b.timeout_ticks();
                let mut phase2_hops = 0u64;
                for &peer in &candidates {
                    if let Some(d) = b.deadline {
                        if phase2_hops >= d {
                            truncated = true;
                            break;
                        }
                    }
                    if !(self.is_alive(peer) && self.peers_connected(from_peer, peer)) {
                        phase2_hops += ticks;
                        stats += timed_out_fetch_cost(q_bytes, ticks);
                        if traced {
                            tel.event(
                                qspan,
                                names::FETCH_TIMEOUT,
                                vec![
                                    ("peer", peer.into()),
                                    ("ticks", ticks.into()),
                                    ("bytes", q_bytes.into()),
                                ],
                            );
                        }
                        if let Some(m) = tel.metrics() {
                            m.add(names::FETCH_TIMEOUT, 1);
                        }
                        continue;
                    }
                    stats += direct_fetch_cost(q_bytes, 24);
                    // Exactly-once load attribution: the answering peer.
                    if let Some(ledger) = self.load_ledger() {
                        ledger.charge_fetch_answered(peer, 24);
                    }
                    phase2_hops += 2;
                    let hit = self.peer(peer).local_point(q);
                    if traced {
                        tel.event(
                            qspan,
                            names::FETCH,
                            vec![
                                ("peer", peer.into()),
                                ("alive", true.into()),
                                ("matched", hit.is_some().into()),
                            ],
                        );
                    }
                    if let Some(idx) = hit {
                        matches.push((peer, idx));
                    }
                }
            }
        }
        if traced {
            tel.end(
                qspan,
                names::QUERY,
                vec![
                    ("hops", stats.hops.into()),
                    ("messages", stats.messages.into()),
                    ("bytes", stats.bytes.into()),
                    ("matches", matches.len().into()),
                    ("candidates", candidates.len().into()),
                ],
            );
            tel.record_op(OpKind::PointQuery, None, stats);
            if let Some(t0) = t0 {
                tel.record_latency_s(OpKind::PointQuery, None, t0.elapsed().as_secs_f64());
            }
        }
        PointResult {
            matches,
            candidates,
            truncated,
            stats,
        }
    }
}

// Re-export for the doc-comment path used in lib.rs.
#[allow(unused_imports)]
use ScorePolicy as _;

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
        let holders: std::collections::HashSet<usize> =
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
