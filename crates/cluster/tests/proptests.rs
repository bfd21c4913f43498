//! Property-based tests for the clustering invariants Hyper-M relies on.

use hyperm_cluster::kmeans::kmeans;
use hyperm_cluster::{spheres_from_clustering, ClusterSphere, Dataset, KMeansConfig, KMeansResult};
use hyperm_geometry::vecmath::sq_dist;
use proptest::prelude::*;

/// Strategy: a random dataset of 1..60 rows in 1..6 dimensions.
fn dataset() -> impl Strategy<Value = Dataset> {
    (1usize..6, 1usize..60).prop_flat_map(|(dim, rows)| {
        prop::collection::vec(-50.0..50.0f64, dim * rows)
            .prop_map(move |flat| Dataset::from_flat(flat, dim))
    })
}

/// Cluster id → index of its sphere: spheres come in cluster order, one
/// per non-empty cluster.
fn sphere_of_cluster(res: &KMeansResult) -> Vec<usize> {
    let mut next = 0;
    res.cluster_sizes()
        .iter()
        .map(|&n| {
            let at = next;
            next += usize::from(n > 0);
            at
        })
        .collect()
}

proptest! {
    /// Every point is assigned to its nearest centroid after convergence.
    #[test]
    fn assignment_is_voronoi(ds in dataset(), k in 1usize..8, seed in any::<u64>()) {
        let res = kmeans(&ds, &KMeansConfig::new(k).with_seed(seed));
        for (i, row) in ds.rows().enumerate() {
            let own = res.assignment[i] as usize;
            let own_d2: f64 = row.iter().zip(res.centroids.row(own))
                .map(|(a, b)| (a - b) * (a - b)).sum();
            for c in 0..res.k() {
                let d2: f64 = row.iter().zip(res.centroids.row(c))
                    .map(|(a, b)| (a - b) * (a - b)).sum();
                prop_assert!(own_d2 <= d2 + 1e-9, "row {i} prefers cluster {c}");
            }
        }
    }

    /// Cluster sizes sum to n and every cluster the algorithm reports is
    /// non-empty.
    #[test]
    fn sizes_partition_data(ds in dataset(), k in 1usize..8, seed in any::<u64>()) {
        let res = kmeans(&ds, &KMeansConfig::new(k).with_seed(seed));
        let sizes = res.cluster_sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), ds.len());
    }

    /// Each row lies in its own cluster's published sphere and counts add
    /// to n — the precondition of the no-false-dismissal theorem.
    #[test]
    fn spheres_cover_members(ds in dataset(), k in 1usize..8, seed in any::<u64>()) {
        let res = kmeans(&ds, &KMeansConfig::new(k).with_seed(seed));
        let spheres = spheres_from_clustering(&ds, &res);
        prop_assert_eq!(spheres.iter().map(|s| s.items).sum::<usize>(), ds.len());
        let own = sphere_of_cluster(&res);
        for (i, row) in ds.rows().enumerate() {
            let s = &spheres[own[res.assignment[i] as usize]];
            prop_assert!(s.contains(row), "row {i} escapes its own sphere");
        }
    }

    /// No published radius exceeds that of the ball around the cluster's
    /// centroid.
    #[test]
    fn radius_at_most_centroid_ball(ds in dataset(), k in 1usize..8, seed in any::<u64>()) {
        let res = kmeans(&ds, &KMeansConfig::new(k).with_seed(seed));
        let spheres = spheres_from_clustering(&ds, &res);
        let own = sphere_of_cluster(&res);
        let mut centroid2 = vec![0.0f64; res.k()];
        for (i, row) in ds.rows().enumerate() {
            let c = res.assignment[i] as usize;
            centroid2[c] = centroid2[c].max(sq_dist(row, res.centroids.row(c)));
        }
        let sizes = res.cluster_sizes();
        for c in (0..res.k()).filter(|&c| sizes[c] > 0) {
            let (radius, bound) = (spheres[own[c]].radius, centroid2[c].sqrt());
            prop_assert!(radius <= bound, "cluster {c}: {radius} > {bound}");
        }
    }

    /// On 1-d data each centre is its cluster's midrange (up to rounding:
    /// the centroid is kept when its radius is no larger).
    #[test]
    fn one_d_centre_is_midrange(flat in prop::collection::vec(-50.0..50.0f64, 1..60), k in 1usize..8, seed in any::<u64>()) {
        let ds = Dataset::from_flat(flat, 1);
        let res = kmeans(&ds, &KMeansConfig::new(k).with_seed(seed));
        let spheres = spheres_from_clustering(&ds, &res);
        let own = sphere_of_cluster(&res);
        let mut range = vec![(f64::INFINITY, f64::NEG_INFINITY); res.k()];
        for (i, row) in ds.rows().enumerate() {
            let r = &mut range[res.assignment[i] as usize];
            *r = (r.0.min(row[0]), r.1.max(row[0]));
        }
        for (c, &(lo, hi)) in range.iter().enumerate().filter(|(_, r)| r.0 <= r.1) {
            let s = &spheres[own[c]];
            let mid = lo + (hi - lo) / 2.0;
            prop_assert!((s.centroid[0] - mid).abs() <= 1e-12 * (1.0 + lo.abs() + hi.abs()),
                "cluster {c}: centre {} vs midrange {mid}", s.centroid[0]);
        }
    }

    /// Two derivations from the same clustering are bit-identical.
    #[test]
    fn spheres_are_deterministic(ds in dataset(), k in 1usize..8, seed in any::<u64>()) {
        let res = kmeans(&ds, &KMeansConfig::new(k).with_seed(seed));
        let bits = |spheres: Vec<ClusterSphere>| -> Vec<(Vec<u64>, u64, usize)> {
            spheres
                .into_iter()
                .map(|s| (s.centroid.iter().map(|x| x.to_bits()).collect(), s.radius.to_bits(), s.items))
                .collect()
        };
        prop_assert_eq!(bits(spheres_from_clustering(&ds, &res)), bits(spheres_from_clustering(&ds, &res)));
    }

    /// k-means inertia never exceeds the 1-means (grand centroid) inertia.
    #[test]
    fn inertia_upper_bound(ds in dataset(), k in 2usize..8, seed in any::<u64>()) {
        let base = kmeans(&ds, &KMeansConfig::new(1).with_seed(seed)).inertia;
        let multi = kmeans(&ds, &KMeansConfig::new(k).with_seed(seed)).inertia;
        prop_assert!(multi <= base + 1e-6, "{multi} > {base}");
    }

    /// Translating the data translates the centroids (the invariance the
    /// paper cites as a reason to choose k-means).
    #[test]
    fn translation_invariance(ds in dataset(), shift in -20.0..20.0f64, seed in any::<u64>()) {
        let cfg = KMeansConfig::new(3).with_seed(seed);
        let res_a = kmeans(&ds, &cfg);
        let mut moved = ds.clone();
        for i in 0..moved.len() {
            for x in moved.row_mut(i) {
                *x += shift;
            }
        }
        let res_b = kmeans(&moved, &cfg);
        prop_assert_eq!(&res_a.assignment, &res_b.assignment);
        for c in 0..res_a.k() {
            for (x, y) in res_a.centroids.row(c).iter().zip(res_b.centroids.row(c)) {
                prop_assert!((x + shift - y).abs() < 1e-6, "{x} + {shift} vs {y}");
            }
        }
    }
}
