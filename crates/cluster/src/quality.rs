//! Clustering quality metrics: cohesion, separation and their ratio.
//!
//! Figure 11 of the paper plots "the proportion between cohesion and
//! separation" per wavelet vector space: *"Cohesion is the average distance
//! of elements within the same cluster and separation measures the average
//! distance between the centroids of different clusters."* A **lower**
//! cohesion/separation ratio means tighter, better-separated clusters.

use crate::dataset::Dataset;
use crate::kmeans::KMeansResult;
use hyperm_geometry::vecmath::dist;

/// Bundle of quality metrics for one clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterQuality {
    /// Average distance from an item to its own centroid.
    pub cohesion: f64,
    /// Average pairwise distance between distinct centroids.
    pub separation: f64,
    /// `cohesion / separation` — Figure 11's y-axis (lower is better).
    pub ratio: f64,
}

/// Average distance of items to their assigned centroid.
pub fn cohesion(data: &Dataset, result: &KMeansResult) -> f64 {
    assert_eq!(
        data.len(),
        result.assignment.len(),
        "assignment length mismatch"
    );
    if data.is_empty() {
        return 0.0;
    }
    let total: f64 = data
        .rows()
        .zip(&result.assignment)
        .map(|(row, &c)| dist(row, result.centroids.row(c as usize)))
        .sum();
    total / data.len() as f64
}

/// Average pairwise distance between distinct centroids.
///
/// Returns 0 when there are fewer than two clusters (the ratio is then
/// undefined; [`quality_ratio`] reports infinity).
pub fn separation(result: &KMeansResult) -> f64 {
    let k = result.k();
    if k < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..k {
        for j in i + 1..k {
            total += dist(result.centroids.row(i), result.centroids.row(j));
            pairs += 1;
        }
    }
    total / pairs as f64
}

/// The cohesion/separation ratio plus its constituents.
pub fn quality_ratio(data: &Dataset, result: &KMeansResult) -> ClusterQuality {
    let coh = cohesion(data, result);
    let sep = separation(result);
    let ratio = if sep > 0.0 { coh / sep } else { f64::INFINITY };
    ClusterQuality {
        cohesion: coh,
        separation: sep,
        ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::{kmeans, KMeansConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(spread: f64, gap: f64, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(2);
        for b in 0..3 {
            for _ in 0..25 {
                ds.push_row(&[
                    b as f64 * gap + rng.gen_range(-spread..spread),
                    rng.gen_range(-spread..spread),
                ]);
            }
        }
        ds
    }

    #[test]
    fn tight_clusters_beat_loose_clusters() {
        let tight = blobs(0.2, 10.0, 1);
        let loose = blobs(2.0, 10.0, 1);
        let cfg = KMeansConfig::new(3).with_seed(5);
        let qt = quality_ratio(&tight, &kmeans(&tight, &cfg));
        let ql = quality_ratio(&loose, &kmeans(&loose, &cfg));
        assert!(qt.ratio < ql.ratio, "{} !< {}", qt.ratio, ql.ratio);
        assert!(qt.cohesion < ql.cohesion);
    }

    #[test]
    fn separation_scales_with_gap() {
        let near = blobs(0.2, 4.0, 2);
        let far = blobs(0.2, 40.0, 2);
        let cfg = KMeansConfig::new(3).with_seed(5);
        assert!(separation(&kmeans(&far, &cfg)) > separation(&kmeans(&near, &cfg)));
    }

    #[test]
    fn single_cluster_ratio_is_infinite() {
        let ds = blobs(0.2, 10.0, 3);
        let q = quality_ratio(&ds, &kmeans(&ds, &KMeansConfig::new(1)));
        assert!(q.ratio.is_infinite());
        assert_eq!(q.separation, 0.0);
    }

    #[test]
    fn degenerate_inputs() {
        let ds = Dataset::from_rows(&[[1.0, 2.0]]);
        let res = kmeans(&ds, &KMeansConfig::new(1));
        assert_eq!(cohesion(&ds, &res), 0.0);
    }
}
