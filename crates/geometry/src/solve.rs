//! Numerical inversion of the expected-result-count curve (Eq. 8).
//!
//! For k-nn queries Hyper-M must answer: *what query radius ε retrieves an
//! expected `k` items, given the published cluster spheres?* The expectation
//!
//! ```text
//! g(ε) = Σ_c  Vol(sphere_c ∩ sphere_q(ε)) / Vol(sphere_c) · items_c     (Eq. 8)
//! ```
//!
//! is continuous and monotonically non-decreasing in ε (a singleton cluster,
//! `r = 0`, adds a step), so `g(ε) = k` is solved by a safeguarded Newton
//! iteration that always keeps a bisection bracket — the paper suggests
//! "numerical methods (e.g., the Newton method)"; the bracket makes the
//! iteration unconditionally convergent even at the flat spots where
//! `g'(ε) = 0` (query far from every cluster).
//!
//! Three choices keep the solve short and its answer well defined:
//!
//! * **Start near the root.** The first iterate is ε₀ = (k / Σ items_c /
//!   r_c^d)^{1/d} over the spheres that hold the query centre: each adds
//!   `items_c·(ε/r_c)^d` (Eq. 6's query-inside branch), so ε₀ is where those
//!   spheres alone yield `k`. With no such sphere, or a bracket already
//!   narrower than `tol`, the iteration starts at the bracket midpoint.
//! * **Halving rule** (`rtsafe`, Press et al., *Numerical Recipes* §9.4): a
//!   Newton point is taken only if it lies inside the bracket and moves at
//!   most half the previous step; otherwise the bracket is bisected.
//! * **Collapse lands on the reaching side.** Once the bracket is narrower
//!   than `tol`, the iterate is returned if it reaches the target, else the
//!   bracket's upper end — on a singleton's step the radius retrieves ≥ `k`.

use crate::intersect::{intersection_fraction, IntersectionFraction};

/// A cluster as seen by the radius solver: its distance from the query
/// centre, its radius, and how many items it summarises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterView {
    /// Euclidean distance from the query centre to the cluster centroid.
    pub centre_dist: f64,
    /// Radius of the cluster sphere.
    pub radius: f64,
    /// Number of data items summarised by the cluster (`items_c`).
    pub items: f64,
}

/// Errors from the monotone solver.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The target is above `f(hi)` — even the widest radius cannot reach it.
    TargetUnreachable {
        /// Value of the function at the upper end of the bracket.
        attainable: f64,
        /// The requested target.
        target: f64,
    },
    /// The bracket was empty or inverted.
    BadBracket,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::TargetUnreachable { attainable, target } => write!(
                f,
                "target {target} unreachable: maximum attainable value is {attainable}"
            ),
            SolveError::BadBracket => write!(f, "invalid bracket (lo >= hi)"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Expected number of retrieved items for query radius `eps` (Eq. 8).
pub fn expected_items(d: u32, clusters: &[ClusterView], eps: f64) -> f64 {
    expected_items_with(clusters, eps, |r, eps, b| {
        intersection_fraction(d, r, eps, b)
    })
}

/// [`expected_items`] with the dimension's intersection fraction given.
fn expected_items_with(
    clusters: &[ClusterView],
    eps: f64,
    fraction: impl Fn(f64, f64, f64) -> f64,
) -> f64 {
    clusters
        .iter()
        .map(|c| fraction(c.radius.max(0.0), eps, c.centre_dist) * c.items)
        .sum()
}

/// Invert a monotone non-decreasing function: find `x ∈ [lo, hi]` with
/// `f(x) ≈ target`.
///
/// Starts at `start` when it lies strictly inside `(lo, hi)` and the bracket
/// is wider than `tol`, else at the bracket midpoint. Takes Newton steps with
/// a finite-difference derivative while they stay inside the shrinking
/// bisection bracket and move at most half the previous step; bisects
/// otherwise (or when the derivative vanishes). Returns an `x` with
/// `|f(x) − target| ≤ tol`, or — once the bracket has collapsed below `tol` —
/// the iterate if `f(x) ≥ target`, else the bracket's upper end, whose `f`
/// reaches the target.
pub fn invert_monotone<F: Fn(f64) -> f64>(
    f: F,
    target: f64,
    lo: f64,
    hi: f64,
    start: f64,
    tol: f64,
) -> Result<f64, SolveError> {
    if lo >= hi {
        return Err(SolveError::BadBracket);
    }
    let f_lo = f(lo);
    if f_lo >= target {
        return Ok(lo);
    }
    let f_hi = f(hi);
    if f_hi < target {
        return Err(SolveError::TargetUnreachable {
            attainable: f_hi,
            target,
        });
    }

    let mut a = lo;
    let mut b = hi;
    let mid = 0.5 * (a + b);
    let collapsed = |a: f64, b: f64, x: f64| b - a <= tol * (1.0 + x.abs());
    let mut x = if start > lo && start < hi && !collapsed(lo, hi, mid) {
        start
    } else {
        mid
    };
    let mut last_step = hi - lo;
    for _ in 0..200 {
        let fx = f(x);
        if (fx - target).abs() <= tol {
            return Ok(x);
        }
        if collapsed(a, b, x) {
            return Ok(if fx >= target { x } else { b });
        }
        if fx < target {
            a = x;
        } else {
            b = x;
        }
        // Newton step with forward finite difference.
        let h = (1e-7 * (1.0 + x.abs())).max(1e-12);
        let deriv = (f(x + h) - fx) / h;
        let newton = if deriv > 0.0 {
            x - (fx - target) / deriv
        } else {
            f64::NAN
        };
        let next = if newton.is_finite()
            && newton > a
            && newton < b
            && (newton - x).abs() <= 0.5 * last_step
        {
            newton
        } else {
            0.5 * (a + b)
        };
        last_step = (next - x).abs();
        x = next;
    }
    Ok(0.5 * (a + b))
}

/// The solver's first iterate for Eq. 8: ε₀ = (k / Σ items_c / r_c^d)^{1/d}
/// over the spheres with `r_c > 0` that hold the query centre (`b_c < r_c`).
/// Below every such sphere's `r_c − b_c` they contribute `items_c·(ε/r_c)^d`,
/// so ε₀ is where they alone yield `k`. Without such a sphere the sum is 0
/// and ε₀ is `+∞`, which [`invert_monotone`] replaces by the midpoint.
pub fn start_radius(d: u32, clusters: &[ClusterView], k: f64) -> f64 {
    let density: f64 = clusters
        .iter()
        .filter(|c| c.radius > 0.0 && c.centre_dist < c.radius)
        .map(|c| c.items / c.radius.powi(d as i32))
        .sum();
    (k / density).powf(1.0 / f64::from(d))
}

/// Solve Eq. 8: the query radius ε whose expected retrieval is `k` items.
///
/// The bracket upper bound is `max(centre_dist + radius)` over the clusters —
/// beyond it every cluster is fully contained, so `g` is constant. If even
/// that cannot reach `k` (fewer than `k` items are reachable) the widest
/// radius is returned rather than an error, matching the paper's behaviour of
/// simply retrieving everything reachable.
///
/// The iteration starts at [`start_radius`]. Every evaluation of `g` shares
/// one [`IntersectionFraction`] for `d`, so the cap kernel is built once per
/// solve; the result is bit-identical to inverting [`expected_items`] from the
/// same start.
pub fn solve_epsilon_for_k(d: u32, clusters: &[ClusterView], k: f64, tol: f64) -> f64 {
    if clusters.is_empty() || k <= 0.0 {
        return 0.0;
    }
    let hi = clusters
        .iter()
        .map(|c| c.centre_dist + c.radius)
        .fold(0.0f64, f64::max)
        .max(tol);
    let lens = IntersectionFraction::new(d);
    let g = |e| expected_items_with(clusters, e, |r, eps, b| lens.eval(r, eps, b));
    match invert_monotone(g, k, 0.0, hi, start_radius(d, clusters, k), tol) {
        Ok(eps) => eps,
        Err(SolveError::TargetUnreachable { .. }) => hi,
        Err(SolveError::BadBracket) => hi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn invert_linear_function() {
        let x = invert_monotone(|x| 2.0 * x, 1.0, 0.0, 10.0, 0.4, 1e-12).unwrap();
        close(x, 0.5, 1e-9);
    }

    #[test]
    fn invert_cubic() {
        let x = invert_monotone(|x| x * x * x, 27.0, 0.0, 10.0, 2.0, 1e-12).unwrap();
        close(x, 3.0, 1e-7);
    }

    #[test]
    fn invert_step_like_function() {
        // Flat then steep — Newton alone would die on the plateau.
        let f = |x: f64| if x < 5.0 { 0.0 } else { (x - 5.0) * 10.0 };
        let x = invert_monotone(f, 1.0, 0.0, 10.0, 5.0, 1e-9).unwrap();
        close(x, 5.1, 1e-6);
    }

    #[test]
    fn invert_reports_unreachable() {
        let err = invert_monotone(|x| x, 100.0, 0.0, 1.0, 0.5, 1e-9).unwrap_err();
        assert!(matches!(err, SolveError::TargetUnreachable { .. }));
    }

    #[test]
    fn invert_rejects_bad_bracket() {
        let err = invert_monotone(|x| x, 0.5, 1.0, 1.0, 1.0, 1e-9).unwrap_err();
        assert_eq!(err, SolveError::BadBracket);
    }

    #[test]
    fn invert_target_already_met_at_lo() {
        let x = invert_monotone(|x| x + 10.0, 5.0, 0.0, 1.0, 0.5, 1e-9).unwrap();
        assert_eq!(x, 0.0);
    }

    #[test]
    fn expected_items_zero_far_away() {
        let clusters = [ClusterView {
            centre_dist: 10.0,
            radius: 1.0,
            items: 50.0,
        }];
        assert_eq!(expected_items(4, &clusters, 2.0), 0.0);
    }

    #[test]
    fn expected_items_full_when_everything_covered() {
        let clusters = [
            ClusterView {
                centre_dist: 1.0,
                radius: 0.5,
                items: 30.0,
            },
            ClusterView {
                centre_dist: 2.0,
                radius: 0.5,
                items: 20.0,
            },
        ];
        close(expected_items(3, &clusters, 100.0), 50.0, 1e-9);
    }

    #[test]
    fn epsilon_solves_single_cluster() {
        // One cluster of 100 items centred at distance 0: expected items at
        // radius ε (< r) is 100 (ε/r)^d. Want k = 12.5 in d=3 with r=2:
        // (ε/2)³ = 0.125 → ε = 1.
        let clusters = [ClusterView {
            centre_dist: 0.0,
            radius: 2.0,
            items: 100.0,
        }];
        let eps = solve_epsilon_for_k(3, &clusters, 12.5, 1e-10);
        close(eps, 1.0, 1e-5);
    }

    #[test]
    fn epsilon_monotone_in_k() {
        let clusters = [
            ClusterView {
                centre_dist: 1.0,
                radius: 0.8,
                items: 40.0,
            },
            ClusterView {
                centre_dist: 2.5,
                radius: 1.0,
                items: 60.0,
            },
        ];
        let mut prev = 0.0;
        for k in [1.0, 5.0, 10.0, 25.0, 60.0, 99.0] {
            let eps = solve_epsilon_for_k(4, &clusters, k, 1e-9);
            assert!(eps >= prev - 1e-9, "eps not monotone at k = {k}");
            prev = eps;
            // The solution really does retrieve ≈ k expected items.
            let got = expected_items(4, &clusters, eps);
            close(got, k, 1e-3 * k.max(1.0));
        }
    }

    #[test]
    fn epsilon_saturates_when_k_exceeds_population() {
        let clusters = [ClusterView {
            centre_dist: 1.0,
            radius: 0.5,
            items: 10.0,
        }];
        let eps = solve_epsilon_for_k(3, &clusters, 1_000.0, 1e-9);
        close(eps, 1.5, 1e-9); // widest useful radius: centre_dist + radius
    }

    #[test]
    fn epsilon_trivial_cases() {
        assert_eq!(solve_epsilon_for_k(3, &[], 5.0, 1e-9), 0.0);
        let clusters = [ClusterView {
            centre_dist: 1.0,
            radius: 0.5,
            items: 10.0,
        }];
        assert_eq!(solve_epsilon_for_k(3, &clusters, 0.0, 1e-9), 0.0);
    }

    /// A d = 5 level with two singletons (r = 0), the first of whose steps
    /// jumps over the target: the Newton point crawls toward the step from
    /// below unless the halving rule bisects, and the collapsed bracket must
    /// return the step's reaching side.
    #[test]
    fn singleton_step_converges_on_its_reaching_side() {
        let views = [
            (0.7341889317737107, 0.0, 124.0),
            (0.15641874923166466, 1.8996820701539083, 46.0),
            (3.3257169537535303, 0.9830238689975566, 59.0),
            (2.0528948869234016, 0.2747580233162352, 109.0),
            (1.6123496911058717, 1.2808624424912889, 74.0),
            (0.34041425014957927, 0.7726582792906533, 167.0),
            (3.217945197417132, 1.260878111018214, 165.0),
            (1.9772439834476483, 0.680051901766408, 178.0),
            (0.4214148508445379, 0.0, 70.0),
        ];
        let clusters: Vec<ClusterView> = views
            .iter()
            .map(|&(centre_dist, radius, items)| ClusterView {
                centre_dist,
                radius,
                items,
            })
            .collect();
        let (d, k, tol) = (5, 156.91307654068603, 1e-10);
        let hi = clusters
            .iter()
            .map(|c| c.centre_dist + c.radius)
            .fold(0.0f64, f64::max);
        let g = |e| expected_items(d, &clusters, e);
        let evals = std::cell::Cell::new(0u32);
        let counted = |e| {
            evals.set(evals.get() + 1);
            g(e)
        };
        let start = start_radius(d, &clusters, k);
        let eps = invert_monotone(counted, k, 0.0, hi, start, tol).unwrap();
        assert_eq!(eps, solve_epsilon_for_k(d, &clusters, k, tol));
        assert!(evals.get() <= 100, "{} evaluations of g", evals.get());
        // No radius meets k within tol: ε sits on the step's reaching side,
        // within the collapse width above it.
        let step = 0.7341889317737107;
        assert!(g(eps) >= k, "g({eps}) = {} < {k}", g(eps));
        assert!(g(eps - 2.0 * tol * (1.0 + eps)) < k + tol);
        assert!(
            (step..=step + 2.0 * tol * (1.0 + step)).contains(&eps),
            "{eps}"
        );
    }

    /// Every view within 1e-17 of the query, as on a 1-d `A` level of
    /// normalised histograms: the bracket `[0, tol]` has collapsed before
    /// the first step, so the solver returns its midpoint — not the start
    /// estimate, which lies inside the bracket but would cover only part of
    /// the level.
    #[test]
    fn degenerate_level_returns_the_bracket_midpoint() {
        let clusters: Vec<ClusterView> = (0..20)
            .map(|i| ClusterView {
                centre_dist: (i % 4) as f64 * 2e-18,
                radius: if i % 3 == 0 { 0.0 } else { 1e-17 },
                items: 10.0,
            })
            .collect();
        let (k, tol) = (10.0, 1e-6);
        let start = start_radius(1, &clusters, k);
        assert!(start > 0.0 && start < tol, "{start}");
        let eps = solve_epsilon_for_k(1, &clusters, k, tol);
        assert_eq!(eps.to_bits(), 0.5e-6f64.to_bits());
    }
}
