//! Cluster-sphere summaries (Section 3.1 of the paper).
//!
//! "Each representative cluster is described by a centroid and a radius,
//! along with a count of the data items in the cluster. The count is used
//! for estimating the relevance of a peer with respect to a query."
//!
//! The radius is, as in the paper, the distance to the farthest member;
//! the centre is not the centroid but the (near-)minimum enclosing ball's,
//! so an outlier on one side no longer inflates the ball on every side
//! (see [`spheres_from_clustering`]).
//!
//! These spheres are the *only* thing a Hyper-M peer publishes into the
//! overlay — the items themselves stay local, which is where the insertion
//! speed-up and the copyright/bandwidth benefits come from.

use crate::dataset::Dataset;
use crate::kmeans::KMeansResult;
use hyperm_geometry::vecmath::{dist, sq_dist};

/// A published summary: a ball that covers every member item, plus the
/// member count.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSphere {
    /// The ball's centre, in the (sub)space the clustering ran in. Not the
    /// cluster's centroid in general: see [`spheres_from_clustering`].
    pub centroid: Vec<f64>,
    /// Max distance from the centre to any member item.
    pub radius: f64,
    /// Number of items summarised (`items_c` in Eq. 1).
    pub items: usize,
}

impl ClusterSphere {
    /// Dimensionality of the space the sphere lives in.
    pub fn dim(&self) -> usize {
        self.centroid.len()
    }

    /// Whether `point` lies inside (or on) the sphere.
    pub fn contains(&self, point: &[f64]) -> bool {
        sq_dist(&self.centroid, point) <= self.radius * self.radius + 1e-12
    }

    /// Distance from the sphere centre to `point`.
    pub fn centre_dist(&self, point: &[f64]) -> f64 {
        dist(&self.centroid, point)
    }

    /// Grow the sphere so it also covers `point`, incrementing the count.
    ///
    /// Used by the post-creation insertion policies of Fig. 10c: a new item
    /// can be absorbed into its nearest existing cluster without
    /// republishing (stale count) or with a republish (fresh radius).
    pub fn absorb(&mut self, point: &[f64]) {
        let d = self.centre_dist(point);
        if d > self.radius {
            self.radius = d;
        }
        self.items += 1;
    }

    /// Approximate wire size of this summary in bytes: `dim` f64
    /// coordinates + radius + a 4-byte count.
    pub fn wire_bytes(&self) -> usize {
        8 * (self.dim() + 1) + 4
    }
}

/// Bădoiu–Clarkson steps per cluster on levels of two or more
/// dimensions. Each step costs one pass over the members and shrinks the
/// ball less than the one before: on the paper's corpus the spheres meet
/// 10.8, 9.9, 9.75 and 9.7 CAN zones each at 2, 8, 16 and 32 steps,
/// against 13.3 for the centroid balls.
const MEB_STEPS: usize = 16;

/// Derive the published sphere set from a k-means result over `data`.
///
/// Each non-empty cluster keeps k-means' partition and member count, but
/// is published as a (near-)minimum enclosing ball of its members rather
/// than the ball around its centroid, which an outlier stretches on one
/// side only:
///
/// * on a 1-d level the centre is the midrange `lo + (hi − lo) / 2`, the
///   exact minimum enclosing interval;
/// * on wider levels the centre starts at the centroid and takes
///   `MEB_STEPS` Bădoiu–Clarkson steps `c += (p − c) / (t + 1)`, `p`
///   the member farthest from `c` (a tie goes to the lower row index).
///
/// The radius is always the distance from the chosen centre to its
/// farthest member, so every sphere provably covers its cluster, the
/// precondition of Theorem 4.1's no-false-dismissal guarantee. Of the
/// centres tried (the centroid first), the one with the smallest such
/// radius is published, so the centroid ball is kept unless another is
/// strictly smaller. Empty clusters publish nothing.
pub fn spheres_from_clustering(data: &Dataset, result: &KMeansResult) -> Vec<ClusterSphere> {
    let (k, dim) = (result.k(), data.dim());
    // Counting sort: cluster c's rows, in row order, are
    // `gathered[start[c]..start[c + 1]]` (in rows).
    let mut start = vec![0usize; k + 1];
    for &c in &result.assignment {
        start[c as usize + 1] += 1;
    }
    for c in 0..k {
        start[c + 1] += start[c];
    }
    let mut next = start.clone();
    let mut gathered = vec![0.0f64; data.as_flat().len()];
    for (row, &c) in data.rows().zip(&result.assignment) {
        let at = next[c as usize];
        next[c as usize] += 1;
        gathered[at * dim..(at + 1) * dim].copy_from_slice(row);
    }
    (0..k)
        .filter(|&c| start[c + 1] > start[c])
        .map(|c| {
            let members = &gathered[start[c] * dim..start[c + 1] * dim];
            let (centre, radius2) = enclosing_ball(members, dim, result.centroids.row(c));
            ClusterSphere {
                centroid: centre,
                radius: radius2.sqrt(),
                items: start[c + 1] - start[c],
            }
        })
        .collect()
}

/// The smallest-radius centre found for the `dim`-wide rows of `members`,
/// starting from `centroid`, and its squared covering radius.
///
/// The wider widths Hyper-M publishes (2, 4 and 8) get an instantiation
/// of [`bc_ball`] with the width a constant, so the distance loop unrolls;
/// any other width runs the same function with the width read at run time.
fn enclosing_ball(members: &[f64], dim: usize, centroid: &[f64]) -> (Vec<f64>, f64) {
    match dim {
        1 => midrange_ball(members, centroid),
        2 => bc_ball::<2>(members, centroid),
        4 => bc_ball::<4>(members, centroid),
        8 => bc_ball::<8>(members, centroid),
        _ => bc_ball::<0>(members, centroid),
    }
}

/// The 1-d case: the midrange, unless the centroid's radius is no larger.
fn midrange_ball(members: &[f64], centroid: &[f64]) -> (Vec<f64>, f64) {
    let (lo, hi) = members
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    let mid = [lo + (hi - lo) / 2.0];
    let (_, mid2) = farthest::<1>(members, &mid);
    let (_, centroid2) = farthest::<1>(members, centroid);
    if mid2 < centroid2 {
        (mid.to_vec(), mid2)
    } else {
        (centroid.to_vec(), centroid2)
    }
}

/// [`MEB_STEPS`] Bădoiu–Clarkson steps from `centroid` at width `D` (or at
/// `centroid.len()` when `D` is 0); the first centre with the smallest
/// radius wins, the centroid included.
fn bc_ball<const D: usize>(members: &[f64], centroid: &[f64]) -> (Vec<f64>, f64) {
    let dim = centroid.len();
    let mut best = centroid.to_vec();
    let (mut far, mut best2) = farthest::<D>(members, centroid);
    let mut c = best.clone();
    for t in 1..=MEB_STEPS {
        let p = &members[far * dim..(far + 1) * dim];
        let div = (t + 1) as f64;
        for (x, &y) in c.iter_mut().zip(p) {
            *x += (y - *x) / div;
        }
        let r2;
        (far, r2) = farthest::<D>(members, &c);
        if r2 < best2 {
            best2 = r2;
            best.copy_from_slice(&c);
        }
    }
    (best, best2)
}

/// The index of the row of `members` (rows as wide as `c`; `D` is that
/// width, or 0 to read it at run time) farthest from `c`, a tie keeping
/// the lower index, and its squared distance.
#[inline(always)]
fn farthest<const D: usize>(members: &[f64], c: &[f64]) -> (usize, f64) {
    let dim = if D == 0 { c.len() } else { D };
    debug_assert_eq!(dim, c.len(), "farthest: width");
    // Re-sliced so the compiler sees the constant width and unrolls.
    let c = &c[..dim];
    let mut out = (0usize, 0.0f64);
    for (i, row) in members.chunks_exact(dim).enumerate() {
        let d2 = sq_dist(row, c);
        if d2 > out.1 {
            out = (i, d2);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::{kmeans, KMeansConfig};

    #[test]
    fn spheres_cover_their_members() {
        let rows: Vec<[f64; 2]> = (0..40)
            .map(|i| {
                let blob = if i < 20 { 0.0 } else { 8.0 };
                [blob + (i % 5) as f64 * 0.1, blob - (i % 3) as f64 * 0.1]
            })
            .collect();
        let ds = Dataset::from_rows(&rows);
        let res = kmeans(&ds, &KMeansConfig::new(2).with_seed(1));
        let spheres = spheres_from_clustering(&ds, &res);
        assert_eq!(spheres.len(), 2);
        assert_eq!(spheres.iter().map(|s| s.items).sum::<usize>(), 40);
        for (i, row) in ds.rows().enumerate() {
            let c = res.assignment[i] as usize;
            // Sphere index = order of non-empty clusters = cluster id here.
            assert!(spheres[c].contains(row), "row {i} escapes its sphere");
        }
    }

    #[test]
    fn an_outlier_moves_the_centre_off_the_centroid() {
        // A tight blob around the origin plus one far member: the centroid
        // stays with the blob, so its ball reaches ≈ 9.5 past it on every side.
        let mut rows: Vec<[f64; 2]> = (0..20)
            .map(|i| [(i % 5) as f64 * 0.01, (i % 4) as f64 * 0.01])
            .collect();
        rows.push([10.0, 0.0]);
        let ds = Dataset::from_rows(&rows);
        let res = kmeans(&ds, &KMeansConfig::new(1));
        let spheres = spheres_from_clustering(&ds, &res);
        let centroid = res.centroids.row(0);
        let centroid_radius = ds
            .rows()
            .map(|r| sq_dist(r, centroid))
            .fold(0.0f64, f64::max)
            .sqrt();
        let s = &spheres[0];
        assert_ne!(s.centroid, centroid);
        assert!(
            s.radius < centroid_radius * 0.6,
            "{} vs {centroid_radius}",
            s.radius
        );
        assert!(ds.rows().all(|r| s.contains(r)));
    }

    #[test]
    fn singleton_cluster_has_zero_radius() {
        let ds = Dataset::from_rows(&[[1.0, 1.0]]);
        let res = kmeans(&ds, &KMeansConfig::new(1));
        let spheres = spheres_from_clustering(&ds, &res);
        assert_eq!(spheres[0].radius, 0.0);
        assert_eq!(spheres[0].items, 1);
    }

    #[test]
    fn contains_and_centre_dist() {
        let s = ClusterSphere {
            centroid: vec![0.0, 0.0],
            radius: 5.0,
            items: 10,
        };
        assert!(s.contains(&[3.0, 4.0]));
        assert!(!s.contains(&[3.1, 4.1]));
        assert_eq!(s.centre_dist(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn absorb_grows_radius_and_count() {
        let mut s = ClusterSphere {
            centroid: vec![0.0],
            radius: 1.0,
            items: 3,
        };
        s.absorb(&[0.5]); // inside: radius unchanged
        assert_eq!(s.radius, 1.0);
        assert_eq!(s.items, 4);
        s.absorb(&[2.0]); // outside: radius grows
        assert_eq!(s.radius, 2.0);
        assert_eq!(s.items, 5);
    }

    #[test]
    fn wire_size() {
        let s = ClusterSphere {
            centroid: vec![0.0; 16],
            radius: 1.0,
            items: 3,
        };
        assert_eq!(s.wire_bytes(), 8 * 17 + 4);
    }
}
