//! Exact centralized index — the evaluation ground truth.
//!
//! "We implemented a centralized flat file system that indexes the data
//! using the original vectors, and use the retrieval results as the basis
//! for evaluating the effectiveness of our proposal." (Section 6.)
//!
//! All answers are exact linear scans over the original vectors; k-nn uses
//! a bounded max-heap so large corpora stay O(n log k).

use hyperm_cluster::Dataset;
use hyperm_geometry::vecmath::sq_dist;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifier of an item in the global corpus: `(peer, local index)`.
///
/// The flat index is built over the union of all peers' collections but
/// remembers where each item lives, so distributed results can be compared
/// against it directly.
pub type ItemId = (usize, usize);

/// Exact linear-scan index over the original vectors.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    data: Dataset,
    ids: Vec<ItemId>,
}

impl FlatIndex {
    /// Build from per-peer collections (ids become `(peer, local_idx)`).
    pub fn from_peers(peers: &[Dataset]) -> Self {
        assert!(!peers.is_empty(), "no peers");
        let dim = peers
            .iter()
            .find(|p| !p.is_empty())
            .map(Dataset::dim)
            .expect("all peers empty");
        Self::from_peer_rows(dim, peers.iter().map(Dataset::rows))
    }

    /// [`FlatIndex::from_peers`] over each peer's `dim`-wide rows, in
    /// index order, however the peer holds them.
    pub fn from_peer_rows<'a, R: IntoIterator<Item = &'a [f64]>>(
        dim: usize,
        peers: impl IntoIterator<Item = R>,
    ) -> Self {
        let mut data = Dataset::new(dim);
        let mut ids = Vec::new();
        for (p, local) in peers.into_iter().enumerate() {
            for (i, row) in local.into_iter().enumerate() {
                data.push_row(row);
                ids.push((p, i));
            }
        }
        Self { data, ids }
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of indexed vectors.
    pub fn dim(&self) -> usize {
        self.data.dim()
    }

    /// All items within `radius` of `query` (inclusive), unordered.
    pub fn range(&self, query: &[f64], radius: f64) -> Vec<ItemId> {
        assert!(radius >= 0.0, "negative radius");
        let r2 = radius * radius;
        self.data
            .rows()
            .zip(&self.ids)
            .filter_map(|(row, &id)| (sq_dist(row, query) <= r2 + 1e-12).then_some(id))
            .collect()
    }

    /// The `k` nearest items to `query`, closest first (ties broken by id).
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<(ItemId, f64)> {
        #[derive(PartialEq)]
        struct Entry(f64, ItemId);
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                // Max-heap by distance so the farthest of the current top-k
                // sits on top and can be evicted.
                self.0
                    .partial_cmp(&other.0)
                    .unwrap_or(Ordering::Equal)
                    .then(self.1.cmp(&other.1))
            }
        }
        if k == 0 {
            return Vec::new();
        }
        let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(k + 1);
        for (row, &id) in self.data.rows().zip(&self.ids) {
            let d2 = sq_dist(row, query);
            if heap.len() < k {
                heap.push(Entry(d2, id));
            } else if let Some(top) = heap.peek() {
                if d2 < top.0 {
                    heap.pop();
                    heap.push(Entry(d2, id));
                }
            }
        }
        let mut out: Vec<(ItemId, f64)> = heap
            .into_iter()
            .map(|Entry(d2, id)| (id, d2.sqrt()))
            .collect();
        out.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        out
    }

    /// Exact-match lookup (distance < 1e-9).
    pub fn point(&self, query: &[f64]) -> Option<ItemId> {
        self.data
            .rows()
            .zip(&self.ids)
            .find_map(|(row, &id)| (sq_dist(row, query) < 1e-18).then_some(id))
    }

    /// Distance of the k-th nearest neighbour (used to derive range-query
    /// radii for the effectiveness experiments).
    pub fn kth_distance(&self, query: &[f64], k: usize) -> f64 {
        self.knn(query, k).last().map(|&(_, d)| d).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> FlatIndex {
        // One peer, so the ids are `(0, idx)`.
        FlatIndex::from_peers(&[Dataset::from_rows(&[
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 2.0],
            [3.0, 3.0],
        ])])
    }

    #[test]
    fn range_query_exact() {
        let idx = index();
        let mut got = idx.range(&[0.0, 0.0], 1.0);
        got.sort_unstable();
        assert_eq!(got, vec![(0, 0), (0, 1)]);
        assert_eq!(idx.range(&[10.0, 10.0], 0.5), vec![]);
        // Inclusive boundary.
        assert!(idx.range(&[0.0, 0.0], 2.0).contains(&(0, 2)));
    }

    #[test]
    fn knn_sorted_and_exact() {
        let idx = index();
        let got = idx.knn(&[0.1, 0.0], 3);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, (0, 0));
        assert_eq!(got[1].0, (0, 1));
        assert_eq!(got[2].0, (0, 2));
        assert!(got[0].1 <= got[1].1 && got[1].1 <= got[2].1);
    }

    #[test]
    fn knn_k_larger_than_n() {
        let idx = index();
        assert_eq!(idx.knn(&[0.0, 0.0], 99).len(), 4);
        assert!(idx.knn(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn point_lookup() {
        let idx = index();
        assert_eq!(idx.point(&[3.0, 3.0]), Some((0, 3)));
        assert_eq!(idx.point(&[3.0, 3.1]), None);
    }

    #[test]
    fn kth_distance_matches_knn() {
        let idx = index();
        let d = idx.kth_distance(&[0.0, 0.0], 2);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_peers_preserves_provenance() {
        let peers = vec![
            Dataset::from_rows(&[[0.0], [1.0]]),
            Dataset::new(1),
            Dataset::from_rows(&[[5.0]]),
        ];
        let idx = FlatIndex::from_peers(&peers);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.knn(&[4.9], 1)[0].0, (2, 0));
        assert_eq!(idx.knn(&[0.9], 1)[0].0, (0, 1));
    }
}
