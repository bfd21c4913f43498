//! Peer relevance scoring (Section 3.2, Eq. 1).
//!
//! ```text
//! Score_l(p) = Σ_c  Vol(sphere_c ∩ sphere_q)/Vol(sphere_c) · items_c
//! ```
//!
//! computed per level from the cluster spheres an overlay range query
//! returned, then folded across levels with the configured
//! [`ScorePolicy`]. The paper uses the **minimum**: "it has the desirable
//! property of pruning many candidate peers" and (Section 4.1) yields no
//! false dismissals for range queries — a peer holding a true answer has a
//! positive score at *every* level, so its minimum stays positive.
//!
//! Phase 1 keeps each level dense up to the ranking: [`LevelScorer`] folds
//! the flood's matches into [`LevelScores`] (one slot per peer id) and
//! [`rank`] folds the levels into the ranked list. [`level_scores`] and
//! [`aggregate`] are the map-shaped entry points, thin adapters over the
//! same fold.

use crate::config::ScorePolicy;
use hyperm_can::{ObjectView, StoredObject};
use hyperm_geometry::vecmath::dist;
use hyperm_geometry::IntersectionFraction;
use std::collections::BTreeMap;

/// A peer and its aggregated relevance score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerScore {
    /// Peer index.
    pub peer: usize,
    /// Aggregated score (expected number of relevant items, Eq. 1 units).
    pub score: f64,
}

/// One level's per-peer scores, dense by peer id: slot `p` holds peer
/// `p`'s running sum, `None` until a term is added for it. Per peer,
/// terms are summed in the order they are added.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelScores(Vec<Option<f64>>);

impl LevelScores {
    /// Add `term` to `peer`'s sum.
    pub fn add(&mut self, peer: usize, term: f64) {
        if peer >= self.0.len() {
            self.0.resize(peer + 1, None);
        }
        if let Some(sum) = self.0.get_mut(peer) {
            *sum.get_or_insert(0.0) += term;
        }
    }

    /// `peer`'s score; `None` if it has none at this level.
    pub fn get(&self, peer: usize) -> Option<f64> {
        self.0.get(peer).copied().flatten()
    }

    /// How many peers have a score.
    pub fn peers(&self) -> usize {
        self.0.iter().filter(|s| s.is_some()).count()
    }

    /// The scores as an ascending map; a peer without one is absent.
    pub fn to_map(&self) -> BTreeMap<usize, f64> {
        let scored = self.0.iter().enumerate();
        scored.filter_map(|(peer, s)| Some((peer, (*s)?))).collect()
    }

    /// The dense form of a score map.
    pub fn from_map(map: &BTreeMap<usize, f64>) -> Self {
        let slots = map.keys().next_back().map_or(0, |&peer| peer + 1);
        let mut dense = vec![None; slots];
        for (&peer, &score) in map {
            if let Some(slot) = dense.get_mut(peer) {
                *slot = Some(score);
            }
        }
        LevelScores(dense)
    }

    fn slots(&self) -> usize {
        self.0.len()
    }
}

/// Eq. 1 for one level: fold the matched cluster spheres into per-peer
/// scores. `q_key`/`eps_key` are the query centre and radius in the
/// level's key space; `dim` is that key space's dimensionality.
pub fn level_scores(
    matches: &[StoredObject],
    q_key: &[f64],
    eps_key: f64,
    dim: u32,
) -> BTreeMap<usize, f64> {
    let mut scores = LevelScorer::new(eps_key, dim);
    for obj in matches {
        scores.add(obj.view(), dist(&obj.centre, q_key));
    }
    scores.finish().to_map()
}

/// Eq. 1 for one level, fed one matched sphere at a time — straight from
/// an overlay flood's visitor, so no match is copied. Per peer, terms are
/// summed in the order they are added.
#[derive(Debug)]
pub struct LevelScorer {
    lens: IntersectionFraction,
    eps_key: f64,
    sums: LevelScores,
}

impl LevelScorer {
    /// An empty fold for a query ball of radius `eps_key` in a
    /// `dim`-dimensional key space.
    pub fn new(eps_key: f64, dim: u32) -> Self {
        LevelScorer {
            lens: IntersectionFraction::new(dim),
            eps_key,
            sums: LevelScores::default(),
        }
    }

    /// Add one matched sphere whose centre lies `b` from the query centre.
    pub fn add(&mut self, obj: ObjectView<'_>, b: f64) {
        // A zero-radius query degenerates to containment: the volume
        // fraction is 0 but a cluster holding the point is fully relevant.
        let frac = if self.eps_key == 0.0 {
            if b <= obj.radius + 1e-12 {
                1.0
            } else {
                0.0
            }
        } else {
            self.lens.eval(obj.radius.max(0.0), self.eps_key, b)
        };
        if frac > 0.0 {
            let term = frac * obj.payload.items as f64;
            self.sums.add(obj.payload.peer, term);
        }
    }

    /// The per-peer sums; a peer with no positive term has none.
    pub fn finish(self) -> LevelScores {
        self.sums
    }
}

/// Fold per-level score maps into one ranked list: [`rank`] over their
/// dense forms.
pub fn aggregate(levels: &[BTreeMap<usize, f64>], policy: ScorePolicy) -> Vec<PeerScore> {
    let dense: Vec<LevelScores> = levels.iter().map(LevelScores::from_map).collect();
    rank(&dense, policy)
}

/// Fold per-level scores into one ranked list.
///
/// With [`ScorePolicy::Min`], a peer must have a positive score at
/// **every** level to survive (absence ⇒ score 0 ⇒ pruned). `Avg`/`Max`
/// treat missing levels as 0 but do not prune.
pub fn rank(levels: &[LevelScores], policy: ScorePolicy) -> Vec<PeerScore> {
    let slots = levels.iter().map(LevelScores::slots).max().unwrap_or(0);
    let mut out = Vec::new();
    // A peer scored at no level scores 0 under every policy and drops
    // out below, as if it had never been listed.
    for peer in 0..slots {
        let per_level = levels.iter().map(|l| l.get(peer).unwrap_or(0.0));
        let score = match policy {
            ScorePolicy::Min => per_level.fold(f64::INFINITY, f64::min),
            ScorePolicy::Avg => per_level.sum::<f64>() / levels.len() as f64,
            ScorePolicy::Max => per_level.fold(0.0, f64::max),
        };
        if score > 0.0 && score.is_finite() {
            out.push(PeerScore { peer, score });
        }
    }
    // Highest score first; ties by peer id for determinism.
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap()
            .then(a.peer.cmp(&b.peer))
    });
    out
}

/// The number of top peers whose cumulative score reaches `target`
/// (at least 1 when any peer scored). This is how the k-nn algorithm picks
/// `P` in Figure 5 (steps 4–6).
pub fn peers_to_cover(ranked: &[PeerScore], target: f64) -> usize {
    if ranked.is_empty() {
        return 0;
    }
    let mut acc = 0.0;
    for (i, ps) in ranked.iter().enumerate() {
        acc += ps.score;
        if acc >= target {
            return i + 1;
        }
    }
    ranked.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperm_can::ObjectRef;

    fn obj(peer: usize, centre: Vec<f64>, radius: f64, items: u32) -> StoredObject {
        StoredObject {
            id: 0,
            centre,
            radius,
            payload: ObjectRef {
                peer,
                tag: 0,
                items,
            },
        }
    }

    #[test]
    fn level_scores_weight_by_overlap_and_count() {
        let q = [0.5, 0.5];
        let matches = vec![
            obj(1, vec![0.5, 0.5], 0.1, 100), // cluster inside query → full weight
            obj(2, vec![0.9, 0.5], 0.1, 100), // far → zero
        ];
        let scores = level_scores(&matches, &q, 0.25, 2);
        assert!((scores[&1] - 100.0).abs() < 1e-9);
        assert!(!scores.contains_key(&2));
    }

    #[test]
    fn min_policy_prunes_missing_levels() {
        let l0: BTreeMap<usize, f64> = [(1, 10.0), (2, 5.0)].into_iter().collect();
        let l1: BTreeMap<usize, f64> = [(1, 4.0)].into_iter().collect(); // peer 2 absent
        let ranked = aggregate(&[l0.clone(), l1.clone()], ScorePolicy::Min);
        assert_eq!(ranked.len(), 1);
        assert_eq!(
            ranked[0],
            PeerScore {
                peer: 1,
                score: 4.0
            }
        );
        // Avg keeps peer 2 with halved score.
        let ranked = aggregate(&[l0.clone(), l1.clone()], ScorePolicy::Avg);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].peer, 1);
        assert!((ranked[1].score - 2.5).abs() < 1e-12);
        // Max is the most permissive.
        let ranked = aggregate(&[l0, l1], ScorePolicy::Max);
        assert_eq!(ranked[0].score, 10.0);
    }

    #[test]
    fn ranking_is_deterministic_on_ties() {
        let l: BTreeMap<usize, f64> = [(3, 1.0), (1, 1.0), (2, 1.0)].into_iter().collect();
        let ranked = aggregate(&[l], ScorePolicy::Min);
        let ids: Vec<usize> = ranked.iter().map(|p| p.peer).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn peers_to_cover_counts_cumulative() {
        let ranked = vec![
            PeerScore {
                peer: 0,
                score: 5.0,
            },
            PeerScore {
                peer: 1,
                score: 3.0,
            },
            PeerScore {
                peer: 2,
                score: 1.0,
            },
        ];
        assert_eq!(peers_to_cover(&ranked, 4.0), 1);
        assert_eq!(peers_to_cover(&ranked, 7.0), 2);
        assert_eq!(peers_to_cover(&ranked, 100.0), 3);
        assert_eq!(peers_to_cover(&[], 1.0), 0);
    }

    #[test]
    fn empty_levels_produce_empty_ranking() {
        assert!(aggregate(&[], ScorePolicy::Min).is_empty());
        let empty: BTreeMap<usize, f64> = BTreeMap::new();
        assert!(aggregate(&[empty], ScorePolicy::Min).is_empty());
    }
}
