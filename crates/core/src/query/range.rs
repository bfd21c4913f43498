//! Range queries (Section 4.1): retrieve all items within `ε` of `q`.
//!
//! Per level `l`, the query sphere is contracted by Theorem 3.1
//! (`ε_l = ε / √(2^{log d − l})`) and resolved as an overlay range query;
//! any cluster sphere intersecting the contracted query can contain an
//! answer, so its peer gets an Eq.-1 score. The **min** aggregation keeps
//! exactly the peers scored positive at *every* level — Theorem 4.1
//! guarantees no true answer is lost this way. Contacting all positive
//! peers yields recall 1.0 against a flat scan; a `peer_budget` contacts
//! only the top-scored ones, which is the recall-vs-peers trade-off the
//! paper plots in Figure 10a.

use crate::network::HypermNetwork;
use crate::peer::{assert_finite_centre, peak};
use crate::query::{QueryBudget, QueryRun, Reply};
use crate::score::{rank, LevelScorer, PeerScore};
use hyperm_sim::{NodeId, OpStats};
use hyperm_telemetry::{Name, OpKind};

/// Outcome of a distributed range query.
#[derive(Debug, Clone)]
pub struct RangeResult {
    /// Retrieved items as `(peer, local index)` — exact, so precision is 1.
    pub items: Vec<(usize, usize)>,
    /// Peers ranked by aggregated score (the candidate list).
    pub ranked: Vec<PeerScore>,
    /// How many of them were actually contacted.
    pub peers_contacted: usize,
    /// Whether a [`QueryBudget`] deadline cut phase 2 short — the items are
    /// a partial (but still exact) answer. Always `false` without a budget.
    pub truncated: bool,
    /// Total message cost: overlay lookups + direct fetches.
    pub stats: OpStats,
}

impl HypermNetwork {
    /// Run a range query from `from_peer` for all items within `eps` of `q`
    /// (original space). `peer_budget = None` contacts every candidate
    /// (guaranteed full recall); `Some(p)` contacts only the `p` best.
    pub fn range_query(
        &self,
        from_peer: usize,
        q: &[f64],
        eps: f64,
        peer_budget: Option<usize>,
    ) -> RangeResult {
        self.range_query_inner(from_peer, q, eps, None, |r| peer_budget.unwrap_or(r.len()))
    }

    /// Range query with a failure-tolerance [`QueryBudget`]: unanswered
    /// direct fetches time out after `budget.fetch_timeout` ticks, the
    /// contact window slides past unreachable (dead or partition-severed)
    /// peers when `budget.fallback` is set, and an optional phase-2 hop
    /// `deadline` degrades gracefully to a partial answer with
    /// [`RangeResult::truncated`] set.
    pub fn range_query_budgeted(
        &self,
        from_peer: usize,
        q: &[f64],
        eps: f64,
        peer_budget: Option<usize>,
        budget: QueryBudget,
    ) -> RangeResult {
        self.range_query_inner(from_peer, q, eps, Some(budget), |r| {
            peer_budget.unwrap_or(r.len())
        })
    }

    /// Every entry point lands here. Levels run in order and their stats
    /// are summed in that order; `target_of` turns the phase-1 ranking into
    /// the number of peers phase 2 should hear from.
    fn range_query_inner(
        &self,
        from_peer: usize,
        q: &[f64],
        eps: f64,
        budget: Option<QueryBudget>,
        target_of: impl FnOnce(&[PeerScore]) -> usize,
    ) -> RangeResult {
        assert!(eps >= 0.0, "negative radius {eps}");
        assert_finite_centre(q);
        let dec = self.decompose_query(q);
        let q_peak = peak(q);
        let tel = self.recorder();
        let kind = OpKind::RangeQuery;
        let mut run = QueryRun::open(self, kind, "range", from_peer, q.len(), budget, || {
            vec![("eps", eps.into())]
        });
        let qspan = run.op.span;

        // Phase 1: per-level overlay lookups + scoring. The clamp slack
        // widens the search radius for query points whose subspace
        // coefficients fall outside the configured bounds (zero otherwise),
        // matching the publish-side widening — no false dismissals either
        // way.
        let mut per_level = Vec::with_capacity(self.levels());
        for l in 0..self.levels() {
            let (key, slack) = self.query_key_with_slack(&dec, l);
            let key_eps = self.query_key_radius(eps, l) + slack;
            let ltel = self.level_recorder(l);
            // Popular-summary cache (hot-spot relief): an identical
            // phase-1 lookup seen since the last overlay mutation is
            // answered from the entry peer's cache — the exact scores the
            // cold path produced, at zero overlay cost. See
            // `query::cache` for why a hit can never be stale.
            if let Some(cache) = self.summary_cache() {
                if let Some(scores) = cache.lookup(from_peer, l, &key, key_eps) {
                    if ltel.is_enabled() {
                        ltel.event(
                            qspan,
                            Name::CacheHit,
                            vec![("level", l.into()), ("peers", scores.peers().into())],
                        );
                    }
                    per_level.push(scores);
                    continue;
                }
            }
            let lookup = || vec![("key_eps", key_eps.into())];
            let scores = run.op.level(l, &ltel, Some(&lookup), |lv| {
                let overlay = self.overlay(l);
                let mut scores = LevelScorer::new(key_eps, overlay.dim() as u32);
                let mut matches = 0usize;
                let (_, stats) = overlay.range_visit(NodeId(from_peer), &key, key_eps, |obj, b| {
                    matches += 1;
                    scores.add(obj, b);
                });
                lv.stats += stats;
                let scores = scores.finish();
                let peers = scores.peers();
                lv.tail(|| vec![("matches", matches.into()), ("peers", peers.into())]);
                scores
            });
            if let Some(cache) = self.summary_cache() {
                cache.insert(from_peer, l, &key, key_eps, &scores);
                if ltel.is_enabled() {
                    ltel.event(qspan, Name::CacheMiss, vec![("level", l.into())]);
                }
            }
            per_level.push(scores);
        }
        let ranked = rank(&per_level, self.config.score_policy);
        if tel.is_enabled() {
            for ps in &ranked {
                tel.event(
                    qspan,
                    Name::Score,
                    vec![("peer", ps.peer.into()), ("score", ps.score.into())],
                );
            }
        }

        // Phase 2: contact the selected peers; they answer exactly.
        let target = target_of(&ranked);
        let mut items = Vec::new();
        let none = Reply::Items { want: None, got: 0 };
        let contacted = run.walk(&ranked, target, none, |ps| {
            let local = self.peer(ps.peer).local_range_with(q, &dec, q_peak, eps);
            let got = local.len();
            items.extend(local.into_iter().map(|i| (ps.peer, i)));
            Some(Reply::Items { want: None, got })
        });
        let (stats, truncated) = run.close(|| {
            vec![
                ("items", items.len().into()),
                ("peers_contacted", contacted.into()),
            ]
        });
        RangeResult {
            items,
            ranked,
            peers_contacted: contacted,
            truncated,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::HypermConfig;
    use crate::network::HypermNetwork;
    use hyperm_baseline::FlatIndex;
    use hyperm_cluster::Dataset;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(seed: u64) -> (HypermNetwork, Vec<Dataset>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let peers: Vec<Dataset> = (0..8)
            .map(|_| {
                let mut ds = Dataset::new(16);
                let mut row = [0.0f64; 16];
                // Each peer draws from a couple of soft interest regions.
                let centre: f64 = rng.gen();
                for _ in 0..40 {
                    for x in row.iter_mut() {
                        *x = (centre + rng.gen::<f64>() * 0.4).clamp(0.0, 1.0);
                    }
                    ds.push_row(&row);
                }
                ds
            })
            .collect();
        let cfg = HypermConfig::new(16)
            .with_levels(4)
            .with_clusters_per_peer(5)
            .with_seed(seed);
        let (net, _) = HypermNetwork::build(peers.clone(), cfg).unwrap();
        (net, peers)
    }

    #[test]
    fn full_budget_recall_is_one() {
        let (net, peers) = build(1);
        let flat = FlatIndex::from_peers(&peers);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let q: Vec<f64> = {
                // Query near an existing item so answers exist.
                let p = rng.gen_range(0..peers.len());
                let i = rng.gen_range(0..peers[p].len());
                peers[p].row(i).to_vec()
            };
            let eps = 0.3;
            let truth = flat.range(&q, eps);
            let got = net.range_query(0, &q, eps, None);
            let got_set: std::collections::BTreeSet<_> = got.items.iter().copied().collect();
            for t in &truth {
                assert!(got_set.contains(t), "missed {t:?} — false dismissal!");
            }
            // Precision 1: everything retrieved is within eps.
            assert_eq!(got_set.len(), truth.len());
        }
    }

    #[test]
    fn smaller_budget_cannot_increase_cost() {
        let (net, peers) = build(2);
        let q = peers[0].row(0).to_vec();
        let full = net.range_query(0, &q, 0.4, None);
        let tight = net.range_query(0, &q, 0.4, Some(1));
        assert!(tight.peers_contacted <= 1);
        assert!(tight.stats.messages <= full.stats.messages);
        assert!(tight.items.len() <= full.items.len());
    }

    #[test]
    fn zero_radius_finds_exact_item() {
        let (net, peers) = build(3);
        let q = peers[3].row(7).to_vec();
        let got = net.range_query(0, &q, 0.0, None);
        assert!(got.items.contains(&(3, 7)));
    }

    #[test]
    #[should_panic(expected = "query centre must be finite, coordinate 5 is NaN")]
    fn nan_centre_rejected() {
        let (net, peers) = build(4);
        let mut q = peers[0].row(0).to_vec();
        q[5] = f64::NAN;
        net.range_query(0, &q, 0.1, None);
    }

    #[test]
    #[should_panic(expected = "query centre must be finite, coordinate 15 is inf")]
    fn infinite_centre_rejected() {
        let (net, peers) = build(4);
        let mut q = peers[0].row(0).to_vec();
        q[15] = f64::INFINITY;
        net.range_query(0, &q, 0.1, None);
    }

    #[test]
    fn empty_region_returns_nothing() {
        let (net, _) = build(4);
        // All data is in [0,1]^16; query far outside (clamped keys still
        // resolve, but no local item is within eps).
        let q = vec![-10.0; 16];
        let got = net.range_query(0, &q, 0.5, None);
        assert!(got.items.is_empty());
    }

    #[test]
    fn ranked_peers_hold_the_answers() {
        let (net, peers) = build(5);
        let flat = FlatIndex::from_peers(&peers);
        let q = peers[5].row(0).to_vec();
        let truth = flat.range(&q, 0.25);
        let got = net.range_query(1, &q, 0.25, None);
        let candidate_peers: std::collections::BTreeSet<usize> =
            got.ranked.iter().map(|p| p.peer).collect();
        for (peer, _) in truth {
            assert!(
                candidate_peers.contains(&peer),
                "peer {peer} not even a candidate"
            );
        }
    }
}

impl HypermNetwork {
    /// Range query that picks its own peer budget: contact the fewest
    /// top-scored peers whose cumulative Eq.-1 score mass reaches
    /// `target_recall` of the total (0 < target ≤ 1).
    ///
    /// The Eq.-1 score of a peer estimates how many relevant items it
    /// holds, so the cumulative score fraction is an *a-priori* recall
    /// estimate — the knob Figure 10a sweeps by hand, automated. With
    /// `target_recall = 1.0` every candidate is contacted and the
    /// no-false-dismissal guarantee applies unchanged.
    pub fn range_query_adaptive(
        &self,
        from_peer: usize,
        q: &[f64],
        eps: f64,
        target_recall: f64,
    ) -> RangeResult {
        assert!(
            target_recall > 0.0 && target_recall <= 1.0,
            "target recall must be in (0, 1], got {target_recall}"
        );
        self.range_query_inner(from_peer, q, eps, None, |ranked| {
            let total: f64 = ranked.iter().map(|p| p.score).sum();
            if total > 0.0 && target_recall < 1.0 {
                let mut acc = 0.0;
                for (i, ps) in ranked.iter().enumerate() {
                    acc += ps.score;
                    if acc / total >= target_recall {
                        return i + 1;
                    }
                }
            }
            ranked.len()
        })
    }
}

#[cfg(test)]
mod adaptive_tests {
    use crate::config::HypermConfig;
    use crate::network::HypermNetwork;
    use hyperm_cluster::Dataset;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(seed: u64) -> HypermNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let peers: Vec<Dataset> = (0..12)
            .map(|_| {
                let centre: f64 = rng.gen();
                let mut ds = Dataset::new(16);
                let mut row = [0.0f64; 16];
                for _ in 0..30 {
                    for x in row.iter_mut() {
                        *x = (centre + rng.gen::<f64>() * 0.4).clamp(0.0, 1.0);
                    }
                    ds.push_row(&row);
                }
                ds
            })
            .collect();
        let cfg = HypermConfig::new(16)
            .with_levels(4)
            .with_clusters_per_peer(5)
            .with_seed(seed);
        HypermNetwork::build(peers, cfg).unwrap().0
    }

    #[test]
    fn full_target_equals_unbudgeted_query() {
        let net = build(1);
        let q = net.peer(3).items.row(0).to_vec();
        let full = net.range_query(0, &q, 0.3, None);
        let adaptive = net.range_query_adaptive(0, &q, 0.3, 1.0);
        let mut a = full.items.clone();
        let mut b = adaptive.items.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn lower_targets_contact_fewer_peers() {
        let net = build(2);
        let q = net.peer(5).items.row(1).to_vec();
        let half = net.range_query_adaptive(0, &q, 0.4, 0.5);
        let full = net.range_query_adaptive(0, &q, 0.4, 1.0);
        assert!(half.peers_contacted <= full.peers_contacted);
        assert!(half.items.len() <= full.items.len());
        // The achieved recall (vs the full answer) should be near or above
        // the requested mass fraction on this well-clustered data.
        if !full.items.is_empty() {
            let got: std::collections::BTreeSet<_> = half.items.iter().collect();
            let recall = full.items.iter().filter(|i| got.contains(i)).count() as f64
                / full.items.len() as f64;
            assert!(recall >= 0.3, "achieved recall {recall}");
        }
    }

    /// One adaptive call is one query: phase 1 runs once, and trace,
    /// ledger and result are those of `range_query` at the budget it chose.
    #[test]
    fn adaptive_pays_phase_one_once() {
        use hyperm_sim::LoadLedger;
        use hyperm_telemetry::{EventClass, Name, Recorder};
        use std::sync::Arc;

        let run = |adaptive: Option<usize>| {
            let mut net = build(2);
            let q = net.peer(5).items.row(1).to_vec();
            let ledger = Arc::new(LoadLedger::new(net.len(), net.levels()));
            net.set_load_ledger(Some(ledger.clone()));
            let (rec, ring) = Recorder::ring(1 << 16);
            net.set_recorder(rec);
            let res = match adaptive {
                None => net.range_query_adaptive(0, &q, 0.4, 0.5),
                Some(budget) => net.range_query(0, &q, 0.4, Some(budget)),
            };
            let events = ring.events();
            let starts = |name: Name| {
                let opens = events.iter().filter(|e| e.class == EventClass::Start);
                opens.filter(|e| e.name == name).count()
            };
            assert_eq!(starts(Name::Query), 1);
            assert_eq!(starts(Name::OverlayLookup), net.levels());
            (res, ledger.per_peer())
        };
        let (adaptive, adaptive_load) = run(None);
        assert!(adaptive.peers_contacted < adaptive.ranked.len());
        let (fixed, fixed_load) = run(Some(adaptive.peers_contacted));
        assert_eq!(adaptive.items, fixed.items);
        assert_eq!(adaptive.stats, fixed.stats);
        assert_eq!(adaptive_load, fixed_load);
    }

    #[test]
    #[should_panic(expected = "target recall")]
    fn zero_target_rejected() {
        let net = build(3);
        let q = net.peer(0).items.row(0).to_vec();
        net.range_query_adaptive(0, &q, 0.2, 0.0);
    }
}
