//! Lloyd's k-means with Forgy and k-means++ seeding.
//!
//! The paper runs k-means per wavelet subspace on each peer's local data
//! (typically ≈ 200–1000 items, 1–256 dimensions, k ∈ {5, 10, 20}); this
//! implementation is tuned for that regime: plain Lloyd iterations over a
//! flat dataset, deterministic under an explicit seed, with empty-cluster
//! repair so the requested `k` is always honoured when there are at least
//! `k` distinct points.

use crate::dataset::Dataset;
use hyperm_geometry::vecmath::{add_assign, scale, sq_dist};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Centroid seeding strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitMethod {
    /// Pick `k` distinct input rows uniformly at random (Forgy).
    Forgy,
    /// k-means++ (D² weighting) — better spread, the default.
    #[default]
    PlusPlus,
}

/// Configuration for one k-means run.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters requested.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// Convergence threshold on the maximum squared centroid movement.
    pub tol: f64,
    /// Seeding strategy.
    pub init: InitMethod,
    /// RNG seed (runs are fully deterministic given the seed).
    pub seed: u64,
}

impl KMeansConfig {
    /// A sensible default configuration for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iter: 100,
            tol: 1e-9,
            init: InitMethod::default(),
            seed: 0,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style init override.
    pub fn with_init(mut self, init: InitMethod) -> Self {
        self.init = init;
        self
    }
}

/// Outcome of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Final centroids, one row per cluster (`≤ k` rows only if the input
    /// had fewer points than `k`).
    pub centroids: Dataset,
    /// Cluster index of each input row.
    pub assignment: Vec<u32>,
    /// Sum of squared distances of points to their centroid.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
    /// Whether the run stopped by tolerance rather than `max_iter`.
    pub converged: bool,
}

impl KMeansResult {
    /// Number of clusters actually produced.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Item count per cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &a in &self.assignment {
            sizes[a as usize] += 1;
        }
        sizes
    }

    /// Indices of the rows assigned to cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a as usize == c).then_some(i))
            .collect()
    }
}

/// Run k-means on `data`.
///
/// Degenerate inputs are handled gracefully: with fewer rows than `k` every
/// row becomes its own centroid. Panics only if `data` is empty or
/// `config.k == 0`.
pub fn kmeans(data: &Dataset, config: &KMeansConfig) -> KMeansResult {
    assert!(config.k > 0, "k must be positive");
    assert!(!data.is_empty(), "cannot cluster an empty dataset");
    let n = data.len();
    let k = config.k.min(n);
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut centroids = match config.init {
        InitMethod::Forgy => init_forgy(data, k, &mut rng),
        InitMethod::PlusPlus => init_plusplus(data, k, &mut rng),
    };

    let dim = data.dim();
    let mut assignment = vec![0u32; n];
    let mut sums = vec![0.0; k * dim];
    let mut counts = vec![0usize; k];
    let mut iterations = 0;
    let mut converged = false;

    for iter in 0..config.max_iter {
        iterations = iter + 1;
        // Assignment step, tallying each cluster's members as it goes.
        sums.fill(0.0);
        counts.fill(0);
        assign(
            data,
            &centroids,
            &mut assignment,
            Some((&mut sums, &mut counts)),
        );
        // Update step. Empty-cluster repair first: reseat an empty
        // centroid on the point farthest from its current centroid.
        for c in 0..k {
            if counts[c] == 0 {
                let (far_idx, _) = data
                    .rows()
                    .enumerate()
                    .map(|(i, row)| (i, sq_dist(row, centroids.row(assignment[i] as usize))))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .expect("non-empty dataset");
                sums[c * dim..(c + 1) * dim].copy_from_slice(data.row(far_idx));
                counts[c] = 1;
                // Steal the point so its old cluster loses it next round.
                assignment[far_idx] = c as u32;
            }
        }
        // The means, scaled in place in `sums`.
        let mut max_shift = 0.0f64;
        for (c, new) in sums.chunks_exact_mut(dim).enumerate() {
            scale(new, 1.0 / counts[c] as f64);
            max_shift = max_shift.max(sq_dist(new, centroids.row(c)));
            centroids.row_mut(c).copy_from_slice(new);
        }
        if max_shift <= config.tol {
            converged = true;
            break;
        }
    }

    // Final assignment against the final centroids, and inertia.
    let inertia = assign(data, &centroids, &mut assignment, None);

    KMeansResult {
        centroids,
        assignment,
        inertia,
        iterations,
        converged,
    }
}

/// Index and squared distance of the centroid nearest to `row`.
pub fn nearest_centroid(row: &[f64], centroids: &Dataset) -> (usize, f64) {
    nearest(row, centroids.as_flat(), centroids.dim())
}

/// The assignment kernel of the Lloyd loop and of the final pass: the
/// nearest centroid of every row into `assignment`, returning the sum of
/// the rows' squared distances to it, in row order (the inertia). With a
/// `tally`, each row is also counted and added to its cluster's sum, in
/// row order, as the update step needs.
///
/// The widths Hyper-M's published subspaces have (1, 2, 4 and 8) get an
/// instantiation of [`assign_rows`] with the width a constant, so the
/// distance loop unrolls; any other width runs the same function with the
/// width read at run time. All compute exactly [`nearest_centroid`].
fn assign(data: &Dataset, centroids: &Dataset, assignment: &mut [u32], tally: Tally<'_>) -> f64 {
    match data.dim() {
        1 => assign_rows::<1>(data, centroids, assignment, tally),
        2 => assign_rows::<2>(data, centroids, assignment, tally),
        4 => assign_rows::<4>(data, centroids, assignment, tally),
        8 => assign_rows::<8>(data, centroids, assignment, tally),
        _ => assign_rows::<0>(data, centroids, assignment, tally),
    }
}

/// Per-cluster coordinate sums (`k × dim`, row-major) and member counts.
type Tally<'a> = Option<(&'a mut [f64], &'a mut [usize])>;

/// [`assign`] at width `D`, or at `data.dim()` when `D` is 0.
#[inline(always)]
fn assign_rows<const D: usize>(
    data: &Dataset,
    centroids: &Dataset,
    assignment: &mut [u32],
    mut tally: Tally<'_>,
) -> f64 {
    let dim = if D == 0 { data.dim() } else { D };
    debug_assert_eq!(dim, data.dim(), "assign_rows: width");
    let mut inertia = 0.0;
    for (row, a) in data.as_flat().chunks_exact(dim).zip(assignment) {
        let (c, d2) = nearest(row, centroids.as_flat(), dim);
        *a = c as u32;
        inertia += d2;
        if let Some((sums, counts)) = &mut tally {
            counts[c] += 1;
            add_assign(&mut sums[c * dim..(c + 1) * dim], row);
        }
    }
    inertia
}

/// The nearest of the `dim`-wide rows of `centroids` to `row`: distances
/// accumulate `d·d` from coordinate 0 ([`sq_dist`]), and a tie keeps the
/// lower index (strict `<`).
#[inline(always)]
fn nearest(row: &[f64], centroids: &[f64], dim: usize) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (c, cent) in centroids.chunks_exact(dim).enumerate() {
        let d2 = sq_dist(row, cent);
        if d2 < best.1 {
            best = (c, d2);
        }
    }
    best
}

fn init_forgy(data: &Dataset, k: usize, rng: &mut StdRng) -> Dataset {
    let mut indices: Vec<usize> = (0..data.len()).collect();
    indices.shuffle(rng);
    data.select(&indices[..k])
}

fn init_plusplus(data: &Dataset, k: usize, rng: &mut StdRng) -> Dataset {
    let n = data.len();
    let mut centroids = Dataset::with_capacity(data.dim(), k);
    let first = rng.gen_range(0..n);
    centroids.push_row(data.row(first));
    // d2[i] = squared distance to nearest chosen centroid so far.
    let mut d2: Vec<f64> = data.rows().map(|r| sq_dist(r, centroids.row(0))).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= f64::EPSILON {
            // All remaining mass at zero distance (duplicate points): pick
            // uniformly.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push_row(data.row(idx));
        let new_c = centroids.len() - 1;
        for (i, row) in data.rows().enumerate() {
            let nd = sq_dist(row, centroids.row(new_c));
            if nd < d2[i] {
                d2[i] = nd;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_blob_data(seed: u64) -> Dataset {
        // Three well-separated 2-d blobs of 30 points each.
        let mut rng = StdRng::seed_from_u64(seed);
        let centres = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let mut ds = Dataset::new(2);
        for c in &centres {
            for _ in 0..30 {
                ds.push_row(&[
                    c[0] + rng.gen_range(-0.5..0.5),
                    c[1] + rng.gen_range(-0.5..0.5),
                ]);
            }
        }
        ds
    }

    #[test]
    fn recovers_separated_blobs() {
        let ds = three_blob_data(1);
        let res = kmeans(&ds, &KMeansConfig::new(3).with_seed(7));
        assert_eq!(res.k(), 3);
        assert!(res.converged);
        // Every blob is internally consistent.
        for blob in 0..3 {
            let first = res.assignment[blob * 30];
            for i in 0..30 {
                assert_eq!(res.assignment[blob * 30 + i], first, "blob {blob} split");
            }
        }
        // And the blobs get distinct clusters.
        let mut labels: Vec<u32> = (0..3).map(|b| res.assignment[b * 30]).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let ds = three_blob_data(2);
        let i1 = kmeans(&ds, &KMeansConfig::new(1).with_seed(3)).inertia;
        let i3 = kmeans(&ds, &KMeansConfig::new(3).with_seed(3)).inertia;
        let i9 = kmeans(&ds, &KMeansConfig::new(9).with_seed(3)).inertia;
        assert!(i3 < i1, "{i3} !< {i1}");
        assert!(i9 < i3, "{i9} !< {i3}");
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = three_blob_data(3);
        let cfg = KMeansConfig::new(4).with_seed(99);
        let a = kmeans(&ds, &cfg);
        let b = kmeans(&ds, &cfg);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn fewer_points_than_k() {
        let ds = Dataset::from_rows(&[[0.0, 0.0], [5.0, 5.0]]);
        let res = kmeans(&ds, &KMeansConfig::new(10));
        assert_eq!(res.k(), 2);
        assert!(res.inertia < 1e-12);
    }

    #[test]
    fn single_cluster_centroid_is_the_mean() {
        let ds = Dataset::from_rows(&[[0.0, 0.0], [2.0, 4.0], [4.0, 2.0]]);
        let res = kmeans(&ds, &KMeansConfig::new(1));
        assert_eq!(res.centroids.row(0), &[2.0, 2.0]);
    }

    #[test]
    fn duplicate_points_do_not_crash_plusplus() {
        let ds = Dataset::from_rows(&[[1.0, 1.0]; 20]);
        let res = kmeans(&ds, &KMeansConfig::new(5).with_seed(11));
        assert!(res.inertia < 1e-12);
        assert_eq!(res.assignment.len(), 20);
    }

    #[test]
    fn forgy_init_also_works() {
        let ds = three_blob_data(4);
        let res = kmeans(
            &ds,
            &KMeansConfig::new(3)
                .with_init(InitMethod::Forgy)
                .with_seed(5),
        );
        assert_eq!(res.k(), 3);
        let sizes = res.cluster_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 90);
    }

    #[test]
    fn members_and_sizes_agree() {
        let ds = three_blob_data(5);
        let res = kmeans(&ds, &KMeansConfig::new(3).with_seed(1));
        for c in 0..res.k() {
            assert_eq!(res.members(c).len(), res.cluster_sizes()[c]);
        }
    }

    #[test]
    fn assignment_is_nearest_centroid() {
        let ds = three_blob_data(6);
        let res = kmeans(&ds, &KMeansConfig::new(3).with_seed(2));
        for (i, row) in ds.rows().enumerate() {
            let (c, _) = nearest_centroid(row, &res.centroids);
            assert_eq!(c as u32, res.assignment[i]);
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        kmeans(&Dataset::new(2), &KMeansConfig::new(2));
    }
}
