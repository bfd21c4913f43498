//! The paper's theorems, verified across the full stack (not just on the
//! wavelet crate in isolation).

use hyperm::geometry::vecmath::sq_dist;
use hyperm::wavelet::{
    decompose, lower_bound_limit, scaled_radius, sq_radius_contraction, Normalization, Subspace,
};
use hyperm::{Dataset, HypermConfig, HypermNetwork};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Theorem 3.1 at the network level: for any item within ε of a query in
/// the original space, the overlay-level range queries (with radii
/// contracted per the theorem) never prune the item's cluster — i.e. its
/// peer appears in the candidate list with positive min-score.
#[test]
fn theorem_4_1_no_false_dismissals_network_level() {
    let mut rng = StdRng::seed_from_u64(1);
    let dim = 32usize;
    let peers: Vec<Dataset> = (0..12)
        .map(|_| {
            let mut ds = Dataset::new(dim);
            let mut row = vec![0.0f64; dim];
            let c: f64 = rng.gen();
            for _ in 0..30 {
                for x in row.iter_mut() {
                    *x = (c * 0.5 + rng.gen::<f64>() * 0.5).clamp(0.0, 1.0);
                }
                ds.push_row(&row);
            }
            ds
        })
        .collect();
    let cfg = HypermConfig::new(dim)
        .with_levels(5)
        .with_clusters_per_peer(4)
        .with_seed(2);
    let (net, _) = HypermNetwork::build(peers.clone(), cfg).unwrap();

    for trial in 0..50 {
        // Query = a perturbed existing item; the original item is a true
        // answer at radius = its distance + slack.
        let p = trial % peers.len();
        let i = trial % peers[p].len();
        let target: Vec<f64> = peers[p].row(i).to_vec();
        let q: Vec<f64> = target
            .iter()
            .map(|x| (x + rng.gen::<f64>() * 0.05).clamp(0.0, 1.0))
            .collect();
        let d: f64 = q
            .iter()
            .zip(&target)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let res = net.range_query(0, &q, d + 1e-9, None);
        assert!(
            res.items.contains(&(p, i)),
            "trial {trial}: item ({p},{i}) at distance {d} missed"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 3.1 as stated: points of a radius-r ball land inside the
    /// contracted ball in every subspace — exercised with random centres,
    /// radii and dimensions.
    #[test]
    fn theorem_3_1_random_configurations(
        log_dim in 2u32..8,
        radius in 0.01..5.0f64,
        centre_scale in 0.1..10.0f64,
        seed in any::<u64>(),
    ) {
        let dim = 1usize << log_dim;
        let mut rng = StdRng::seed_from_u64(seed);
        let centre: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * centre_scale).collect();
        let dec_c = decompose(&centre, Normalization::PaperAverage).unwrap();
        for _ in 0..10 {
            let mut offset: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() - 0.5).collect();
            let norm: f64 = offset.iter().map(|x| x * x).sum::<f64>().sqrt();
            let len = radius * rng.gen::<f64>();
            for x in offset.iter_mut() {
                *x = *x / norm * len;
            }
            let point: Vec<f64> = centre.iter().zip(&offset).map(|(c, o)| c + o).collect();
            let dec_p = decompose(&point, Normalization::PaperAverage).unwrap();
            for s in Subspace::all(dim) {
                let a = dec_c.subspace(s).unwrap();
                let b = dec_p.subspace(s).unwrap();
                let d: f64 =
                    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
                let bound = scaled_radius(radius, dim, s, Normalization::PaperAverage);
                prop_assert!(d <= bound + 1e-9, "{s:?}: {d} > {bound}");
            }
        }
    }

    /// What the peers' local scan rests on: the published subspaces are
    /// orthogonal, so their Theorem-3.1 bounds add —
    /// `Σ_l c_l²·‖Δcoeff_l‖² ≤ ‖x − y‖²` — under both conventions. In
    /// `f64` the sum can overshoot by the coefficients' rounding error,
    /// which scales with the data and not with the distance; pairs far
    /// closer than they are large show that `lower_bound_limit` covers it,
    /// i.e. the filter never drops a row the exact test would accept.
    #[test]
    fn subspace_bounds_add_up_to_a_lower_bound(
        log_dim in 2u32..10,
        levels in 1usize..5,
        exponent in 0i32..7,
        closeness in 0i32..13,
        seed in any::<u64>(),
    ) {
        let dim = 1usize << log_dim;
        let subspaces = Subspace::first(levels.min(log_dim as usize + 1));
        let magnitude = 10f64.powi(exponent);
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..dim).map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * magnitude).collect();
        let far: Vec<f64> = (0..dim).map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * magnitude).collect();
        // Close pairs, the second one apart in the approximation only —
        // there the bound is the distance itself.
        let step = magnitude * 10f64.powi(-closeness);
        let near: Vec<f64> = x.iter().map(|v| v + (rng.gen::<f64>() - 0.5) * step).collect();
        let shifted: Vec<f64> = x.iter().map(|v| v + step).collect();
        for norm in [Normalization::PaperAverage, Normalization::Orthonormal] {
            let dx = decompose(&x, norm).unwrap();
            let summed = |y: &[f64]| -> f64 {
                let dy = decompose(y, norm).unwrap();
                subspaces
                    .iter()
                    .map(|&s| {
                        sq_radius_contraction(dim, s, norm)
                            * sq_dist(dx.subspace(s).unwrap(), dy.subspace(s).unwrap())
                    })
                    .sum()
            };
            let exact = sq_dist(&x, &far);
            prop_assert!(summed(&far) <= exact * (1.0 + 1e-12), "{norm:?}: {} > {exact}", summed(&far));
            for y in [&far, &near, &shifted] {
                let exact = sq_dist(&x, y);
                let peak = |v: &[f64]| v.iter().fold(0.0f64, |m, c| m.max(c.abs()));
                let limit = lower_bound_limit(exact, dim, subspaces.len(), peak(&x) + peak(y));
                prop_assert!(summed(y) <= limit, "{norm:?}: {} > {limit} (exact {exact})", summed(y));
            }
            // … and costs next to nothing where the pair is not close.
            let exact = sq_dist(&x, &far);
            let peak = magnitude * 2.0;
            prop_assert!(lower_bound_limit(exact, dim, subspaces.len(), peak) <= exact * (1.0 + 1e-9));
        }
    }

    /// Theorem 4.1's converse bound: a point passing the per-level
    /// thresholds in all subspaces is within R·√(log₂ d + 1) in the
    /// original space — verified by construction: any point at original
    /// distance D has all level distances ≤ D/contraction, and
    /// reconstructing from level distances can't exceed the bound.
    #[test]
    fn theorem_4_1_reverse_bound(log_dim in 2u32..8, seed in any::<u64>()) {
        let dim = 1usize << log_dim;
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
        let q: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
        let dx = decompose(&x, Normalization::PaperAverage).unwrap();
        let dq = decompose(&q, Normalization::PaperAverage).unwrap();
        // R = max over levels of (level distance × contraction).
        let mut r_threshold = 0.0f64;
        for s in Subspace::all(dim) {
            let a = dx.subspace(s).unwrap();
            let b = dq.subspace(s).unwrap();
            let d: f64 = a.iter().zip(b).map(|(u, v)| (u - v) * (u - v)).sum::<f64>().sqrt();
            let contraction = (dim as f64 / s.dim() as f64).sqrt();
            r_threshold = r_threshold.max(d * contraction);
        }
        // x passes all per-level thresholds at R = r_threshold, so the
        // theorem asserts ‖x − q‖ ≤ R·√(log₂ d + 1).
        let true_dist: f64 =
            x.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        let bound = r_threshold * ((log_dim as f64) + 1.0).sqrt();
        prop_assert!(true_dist <= bound + 1e-9, "{true_dist} > {bound}");
    }
}
