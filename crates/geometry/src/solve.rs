//! Numerical inversion of the expected-result-count curve (Eq. 8).
//!
//! For k-nn queries Hyper-M must answer: *what query radius ε retrieves an
//! expected `k` items, given the published cluster spheres?* The expectation
//!
//! ```text
//! g(ε) = Σ_c  Vol(sphere_c ∩ sphere_q(ε)) / Vol(sphere_c) · items_c     (Eq. 8)
//! ```
//!
//! is continuous and monotonically non-decreasing in ε, so `g(ε) = k` is
//! solved by a safeguarded Newton iteration that always keeps a bisection
//! bracket — the paper suggests "numerical methods (e.g., the Newton
//! method)"; the bracket makes the iteration unconditionally convergent even
//! at the flat spots where `g'(ε) = 0` (query far from every cluster).

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
/// Uses Newton steps with a finite-difference derivative, clipped to the
/// shrinking bisection bracket; falls back to pure bisection whenever the
/// Newton step escapes the bracket or the derivative vanishes. Returns an
/// `x` with `|f(x) − target| ≤ tol` (or the bracket midpoint once the
/// bracket itself has collapsed below `tol`).
pub fn invert_monotone<F: Fn(f64) -> f64>(
    f: F,
    target: f64,
    lo: f64,
    hi: f64,
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
    let mut x = 0.5 * (a + b);
    for _ in 0..200 {
        let fx = f(x);
        if (fx - target).abs() <= tol || (b - a) <= tol * (1.0 + x.abs()) {
            return Ok(x);
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
        x = if newton.is_finite() && newton > a && newton < b {
            newton
        } else {
            0.5 * (a + b)
        };
    }
    Ok(0.5 * (a + b))
}

/// Solve Eq. 8: the query radius ε whose expected retrieval is `k` items.
///
/// The bracket upper bound is `max(centre_dist + radius)` over the clusters —
/// beyond it every cluster is fully contained, so `g` is constant. If even
/// that cannot reach `k` (fewer than `k` items are reachable) the widest
/// radius is returned rather than an error, matching the paper's behaviour of
/// simply retrieving everything reachable.
///
/// Every evaluation of `g` shares one [`IntersectionFraction`] for `d`, so
/// the cap kernel is built once per solve; the result is bit-identical to
/// inverting [`expected_items`].
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
    match invert_monotone(g, k, 0.0, hi, tol) {
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
        let x = invert_monotone(|x| 2.0 * x, 1.0, 0.0, 10.0, 1e-12).unwrap();
        close(x, 0.5, 1e-9);
    }

    #[test]
    fn invert_cubic() {
        let x = invert_monotone(|x| x * x * x, 27.0, 0.0, 10.0, 1e-12).unwrap();
        close(x, 3.0, 1e-7);
    }

    #[test]
    fn invert_step_like_function() {
        // Flat then steep — Newton alone would die on the plateau.
        let f = |x: f64| if x < 5.0 { 0.0 } else { (x - 5.0) * 10.0 };
        let x = invert_monotone(f, 1.0, 0.0, 10.0, 1e-9).unwrap();
        close(x, 5.1, 1e-6);
    }

    #[test]
    fn invert_reports_unreachable() {
        let err = invert_monotone(|x| x, 100.0, 0.0, 1.0, 1e-9).unwrap_err();
        assert!(matches!(err, SolveError::TargetUnreachable { .. }));
    }

    #[test]
    fn invert_rejects_bad_bracket() {
        let err = invert_monotone(|x| x, 0.5, 1.0, 1.0, 1e-9).unwrap_err();
        assert_eq!(err, SolveError::BadBracket);
    }

    #[test]
    fn invert_target_already_met_at_lo() {
        let x = invert_monotone(|x| x + 10.0, 5.0, 0.0, 1.0, 1e-9).unwrap();
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
}
