//! Evaluation harness: precision/recall against the centralized ground
//! truth (Section 6's methodology).
//!
//! Wraps a [`FlatIndex`] over the same corpus the network was built from
//! and runs batches of range / k-nn queries, producing the
//! [`PrecisionRecall`] samples the Figure-10 experiments aggregate.

use crate::network::HypermNetwork;
use crate::query::knn::KnnOptions;
use hyperm_baseline::{precision_recall, FlatIndex, PrecisionRecall};
use hyperm_sim::OpStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ground truth + query driver for one built network.
#[derive(Debug)]
pub struct EvalHarness {
    flat: FlatIndex,
}

/// Outcome of one evaluated k-nn query: quality of the raw retrieved set
/// (the paper's precision basis) and of the final top-k.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnEval {
    /// Precision/recall of everything fetched (size ≈ C·k).
    pub retrieved: PrecisionRecall,
    /// Precision/recall of the best-k cut (precision = recall here unless
    /// fewer than k items were fetched).
    pub topk: PrecisionRecall,
    /// Message cost of the query.
    pub stats: OpStats,
}

impl EvalHarness {
    /// Build the ground-truth index from the network's current peer
    /// contents.
    pub fn new(net: &HypermNetwork) -> Self {
        let peers = net.peers().map(|p| p.items.rows());
        Self {
            flat: FlatIndex::from_peer_rows(net.data_dim(), peers),
        }
    }

    /// Exact range answer.
    pub fn range_truth(&self, q: &[f64], eps: f64) -> Vec<(usize, usize)> {
        self.flat.range(q, eps)
    }

    /// Exact k-nn answer (ids only).
    pub fn knn_truth(&self, q: &[f64], k: usize) -> Vec<(usize, usize)> {
        self.flat.knn(q, k).into_iter().map(|(id, _)| id).collect()
    }

    /// Distance of the k-th neighbour — used to pick meaningful range-query
    /// radii.
    pub fn kth_distance(&self, q: &[f64], k: usize) -> f64 {
        self.flat.kth_distance(q, k)
    }

    /// Evaluate one range query (precision is 1.0 by construction whenever
    /// anything is retrieved).
    pub fn eval_range(
        &self,
        net: &HypermNetwork,
        from_peer: usize,
        q: &[f64],
        eps: f64,
        peer_budget: Option<usize>,
    ) -> (PrecisionRecall, OpStats) {
        let res = net.range_query(from_peer, q, eps, peer_budget);
        let truth = self.range_truth(q, eps);
        (precision_recall(&res.items, &truth), res.stats)
    }

    /// Evaluate one k-nn query.
    pub fn eval_knn(
        &self,
        net: &HypermNetwork,
        from_peer: usize,
        q: &[f64],
        k: usize,
        opts: KnnOptions,
    ) -> KnnEval {
        let res = net.knn_query(from_peer, q, k, opts);
        let truth = self.knn_truth(q, k);
        let retrieved_ids: Vec<(usize, usize)> = res.retrieved.iter().map(|&(id, _)| id).collect();
        let topk_ids: Vec<(usize, usize)> = res.topk.iter().map(|&(id, _)| id).collect();
        KnnEval {
            retrieved: precision_recall(&retrieved_ids, &truth),
            topk: precision_recall(&topk_ids, &truth),
            stats: res.stats,
        }
    }

    /// Draw `n` query points from the corpus itself (the paper queries with
    /// held-in items — object retrieval "find images like this one").
    pub fn sample_queries(&self, net: &HypermNetwork, n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let p = rng.gen_range(0..net.len());
                let i = rng.gen_range(0..net.peer(p).len());
                net.peer(p).items.row(i).to_vec()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HypermConfig;
    use hyperm_cluster::Dataset;

    fn build() -> HypermNetwork {
        let mut rng = StdRng::seed_from_u64(5);
        let peers: Vec<Dataset> = (0..6)
            .map(|_| {
                let c: f64 = rng.gen::<f64>() * 0.5;
                let mut ds = Dataset::new(8);
                let mut row = [0.0f64; 8];
                for _ in 0..30 {
                    for x in row.iter_mut() {
                        *x = (c + rng.gen::<f64>() * 0.3).clamp(0.0, 1.0);
                    }
                    ds.push_row(&row);
                }
                ds
            })
            .collect();
        let cfg = HypermConfig::new(8)
            .with_levels(3)
            .with_clusters_per_peer(4)
            .with_seed(5);
        HypermNetwork::build(peers, cfg).unwrap().0
    }

    #[test]
    fn range_eval_full_budget_is_perfect() {
        let net = build();
        let harness = EvalHarness::new(&net);
        for q in harness.sample_queries(&net, 10, 1) {
            let (pr, _) = harness.eval_range(&net, 0, &q, 0.2, None);
            assert_eq!(pr.recall, 1.0, "false dismissal at query {q:?}");
            assert_eq!(pr.precision, 1.0);
        }
    }

    #[test]
    fn knn_eval_produces_sane_numbers() {
        let net = build();
        let harness = EvalHarness::new(&net);
        let q = harness.sample_queries(&net, 1, 2).remove(0);
        let eval = harness.eval_knn(&net, 0, &q, 8, KnnOptions::default());
        assert!(eval.topk.recall >= 0.0 && eval.topk.recall <= 1.0);
        assert!(eval.stats.messages > 0);
    }

    #[test]
    fn kth_distance_grows_with_k() {
        let net = build();
        let harness = EvalHarness::new(&net);
        let q = harness.sample_queries(&net, 1, 3).remove(0);
        assert!(harness.kth_distance(&q, 20) >= harness.kth_distance(&q, 5));
    }

    #[test]
    fn sampled_queries_are_deterministic() {
        let net = build();
        let harness = EvalHarness::new(&net);
        assert_eq!(
            harness.sample_queries(&net, 5, 9),
            harness.sample_queries(&net, 5, 9)
        );
    }
}
