//! Two-hypersphere intersection fractions (Eqs. 6–7 of the paper).
//!
//! Hyper-M's peer-relevance score (Eq. 1) weights each cluster by
//! `Vol(sphere_c ∩ sphere_q) / Vol(sphere_c)` — the fraction of the *data
//! cluster's* volume covered by the query sphere. The generic lens of two
//! intersecting balls decomposes into two caps, one from each ball, cut by
//! the radical hyperplane. The cosines of the two caps' half-angles fall
//! out of the radical-plane offsets, and each cap fraction comes from the
//! cap kernel ([`crate::cap`]) evaluated at that cosine — no `acos` on the
//! odd-`d` path, one per cap on the even one. [`intersection_fraction`] and
//! [`IntersectionFraction`] run the same body with the same kernel, so they
//! agree bit for bit; the free function builds the kernel only for a lens.
//!
//! The paper's printed expansion (Eq. 7) omits the `(ε/r)^d` volume-ratio
//! scaling of the query-side cap in some terms (a typographical slip — the
//! two caps belong to balls of different radii). The implementation here is
//! the geometrically consistent form and is validated against Monte-Carlo
//! integration in `tests/montecarlo.rs`.

use crate::cap::CapFraction;
use crate::volume::volume_ratio;

/// Classification of the relative position of two balls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overlap {
    /// The balls are disjoint (`b ≥ r + ε`).
    Disjoint,
    /// The first (data) ball lies entirely inside the second (query) ball.
    FirstInsideSecond,
    /// The second (query) ball lies entirely inside the first (data) ball.
    SecondInsideFirst,
    /// Proper lens-shaped intersection.
    Lens,
}

/// Classify the overlap of ball `(r)` and ball `(eps)` whose centres are
/// distance `b` apart.
pub fn sphere_overlap(r: f64, eps: f64, b: f64) -> Overlap {
    assert!(r > 0.0, "data-sphere radius must be positive, got {r}");
    assert!(eps >= 0.0, "query radius must be non-negative, got {eps}");
    assert!(b >= 0.0, "centre distance must be non-negative, got {b}");
    if b >= r + eps {
        Overlap::Disjoint
    } else if b + r <= eps {
        Overlap::FirstInsideSecond
    } else if b + eps <= r {
        Overlap::SecondInsideFirst
    } else {
        Overlap::Lens
    }
}

/// `Vol(B(c,r) ∩ B(q,ε)) / Vol(B(c,r))` in dimension `d`, where `b = ‖c−q‖`.
///
/// This is the per-cluster weight of the paper's Eq. 1 and the integrand of
/// its Eq. 8. Handles all degenerate configurations:
///
/// * disjoint → `0`;
/// * data ball inside query ball → `1` (every item in the cluster is a
///   candidate);
/// * query ball inside data ball → `(ε/r)^d` (uniform-density assumption);
/// * otherwise the lens = data-side cap + `(ε/r)^d ·` query-side cap.
pub fn intersection_fraction(d: u32, r: f64, eps: f64, b: f64) -> f64 {
    lens_fraction(d, r, eps, b, || CapFraction::new(d))
}

/// [`intersection_fraction`] in one fixed dimension, for callers that
/// evaluate many spheres in the same space (Eq. 1 over one level's matches,
/// Eq. 8 inside the radius solver): the cap kernel (Eq. 5's weights, the
/// odd-`d` coefficients, the incomplete beta's `lnΓ` terms) is built once.
/// `eval` returns `intersection_fraction(d, r, eps, b)` bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntersectionFraction {
    d: u32,
    cap: CapFraction,
}

impl IntersectionFraction {
    /// Precompute for dimension `d ≥ 1`.
    pub fn new(d: u32) -> Self {
        Self {
            d,
            cap: CapFraction::new(d),
        }
    }

    /// `Vol(B(c,r) ∩ B(q,ε)) / Vol(B(c,r))` with `b = ‖c−q‖`.
    pub fn eval(&self, r: f64, eps: f64, b: f64) -> f64 {
        lens_fraction(self.d, r, eps, b, || self.cap)
    }
}

/// The body of [`intersection_fraction`]; `cap` gives the dimension's cap
/// kernel and is only called for a lens.
fn lens_fraction(d: u32, r: f64, eps: f64, b: f64, cap: impl FnOnce() -> CapFraction) -> f64 {
    if eps == 0.0 {
        // A zero-radius query has zero volume: the *fraction of the data
        // ball* it covers is 0. (Point-query semantics — "is q inside the
        // cluster" — are a containment test, handled by callers, not a
        // volume ratio; returning 1 here would make Eq. 8 discontinuous at
        // ε = 0 and break the radius solver.)
        return 0.0;
    }
    if r == 0.0 {
        // Degenerate (singleton) cluster: either covered or not.
        return if b <= eps { 1.0 } else { 0.0 };
    }
    match sphere_overlap(r, eps, b) {
        Overlap::Disjoint => 0.0,
        Overlap::FirstInsideSecond => 1.0,
        Overlap::SecondInsideFirst => volume_ratio(d, eps, r),
        Overlap::Lens => {
            // A lens with b → 0⁺ forces r ≈ ε (else a containment branch
            // would have matched), and the radical-plane offset
            // (b² + r² − ε²)/(2b) degenerates: the r² − ε² cancellation
            // loses all precision and the division then amplifies the
            // garbage to ±∞ well before b reaches the subnormal range.
            // Below the guard the balls are numerically concentric, so
            // return the exact b = 0 containment limit (continuous with
            // the lens value: both caps tend to a half-ball).
            if b <= LENS_MIN_B * (r + eps) {
                return if eps >= r {
                    1.0
                } else {
                    volume_ratio(d, eps, r)
                };
            }
            // Signed distance from the data-ball centre to the radical
            // hyperplane along the centre line. The factored difference
            // (r−ε)(r+ε) avoids the catastrophic cancellation of
            // r² − ε² when the radii are nearly equal.
            let t_data = (b * b + (r - eps) * (r + eps)) / (2.0 * b);
            // Signed distance from the query-ball centre (other side).
            let t_query = b - t_data;
            // cos of the half-angles at each centre; clamped for robustness
            // against floating-point drift at tangency.
            let cos_a = (t_data / r).clamp(-1.0, 1.0);
            let cos_b = (t_query / eps).clamp(-1.0, 1.0);
            let cap = cap();
            let frac_data = cap.eval_cos(cos_a);
            let frac_query = cap.eval_cos(cos_b);
            (frac_data + volume_ratio(d, eps, r) * frac_query).clamp(0.0, 1.0)
        }
    }
}

/// Relative centre-distance threshold below which a lens configuration is
/// treated as concentric. At `b = 1e-12·(r+ε)` the true fraction differs
/// from the b = 0 limit by O(d·b/r) ≈ 1e-9 — far below the Monte-Carlo
/// validation tolerance — while the direct formula is already unreliable.
const LENS_MIN_B: f64 = 1e-12;

/// Absolute lens volume `Vol(B(c,r) ∩ B(q,ε))`.
///
/// Prefer [`intersection_fraction`] in high dimensions where absolute
/// volumes underflow.
pub fn intersection_volume(d: u32, r: f64, eps: f64, b: f64) -> f64 {
    intersection_fraction(d, r, eps, b) * crate::volume::ball_volume(d, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn classification() {
        assert_eq!(sphere_overlap(1.0, 1.0, 3.0), Overlap::Disjoint);
        assert_eq!(sphere_overlap(1.0, 1.0, 2.0), Overlap::Disjoint); // tangent
        assert_eq!(sphere_overlap(1.0, 5.0, 1.0), Overlap::FirstInsideSecond);
        assert_eq!(sphere_overlap(5.0, 1.0, 1.0), Overlap::SecondInsideFirst);
        assert_eq!(sphere_overlap(1.0, 1.0, 1.0), Overlap::Lens);
    }

    #[test]
    fn extreme_cases() {
        for d in [1u32, 2, 3, 8] {
            assert_eq!(intersection_fraction(d, 1.0, 1.0, 5.0), 0.0);
            assert_eq!(intersection_fraction(d, 1.0, 10.0, 0.5), 1.0);
            close(
                intersection_fraction(d, 2.0, 1.0, 0.0),
                0.5f64.powi(d as i32),
                1e-12,
            );
        }
    }

    #[test]
    fn zero_radius_conventions() {
        assert_eq!(intersection_fraction(4, 1.0, 0.0, 0.5), 0.0);
        assert_eq!(intersection_fraction(4, 1.0, 0.0, 1.5), 0.0);
        assert_eq!(intersection_fraction(4, 0.0, 1.0, 0.5), 1.0);
        assert_eq!(intersection_fraction(4, 0.0, 1.0, 1.5), 0.0);
    }

    #[test]
    fn equal_balls_at_centre_distance_r_in_1d() {
        // Two unit segments with centres 1 apart: overlap length 1 of 2 → ½.
        close(intersection_fraction(1, 1.0, 1.0, 1.0), 0.5, 1e-12);
    }

    #[test]
    fn equal_disks_lens_closed_form() {
        // Two unit disks, centres b apart (0 < b < 2):
        // lens area = 2 acos(b/2) − (b/2)√(4 − b²); fraction = area/π.
        for b in [0.2, 0.7, 1.0, 1.6, 1.95] {
            let lens = 2.0 * (b / 2.0f64).acos() - (b / 2.0) * (4.0 - b * b).sqrt();
            close(
                intersection_fraction(2, 1.0, 1.0, b),
                lens / std::f64::consts::PI,
                1e-12,
            );
        }
    }

    #[test]
    fn equal_spheres_lens_closed_form_3d() {
        // Two unit 3-balls, centres b apart: lens volume
        // = π (2 − b)² (b² + 4b + ... ) / 12 — standard form:
        // V = π (4 + b)(2 − b)² / 12 ... use the h-form instead:
        // V = 2 · cap with h = 1 − b/2: V_cap = π h² (3·1 − h)/3.
        for b in [0.4, 1.0, 1.7] {
            let h: f64 = 1.0 - b / 2.0;
            let lens = 2.0 * std::f64::consts::PI * h * h * (3.0 - h) / 3.0;
            let ball = 4.0 / 3.0 * std::f64::consts::PI;
            close(intersection_fraction(3, 1.0, 1.0, b), lens / ball, 1e-12);
        }
    }

    #[test]
    fn continuity_across_regime_boundaries() {
        // Fraction should be continuous as b crosses |r−ε| and r+ε.
        let d = 6;
        let (r, eps) = (1.0, 0.6);
        let inner = r - eps;
        let outer = r + eps;
        close(
            intersection_fraction(d, r, eps, inner - 1e-9),
            intersection_fraction(d, r, eps, inner + 1e-9),
            1e-6,
        );
        close(
            intersection_fraction(d, r, eps, outer - 1e-9),
            intersection_fraction(d, r, eps, outer + 1e-9),
            1e-6,
        );
    }

    #[test]
    fn monotone_decreasing_in_centre_distance() {
        let d = 4;
        let (r, eps) = (1.0, 0.8);
        let mut prev = f64::INFINITY;
        for i in 0..=100 {
            let b = 2.0 * i as f64 / 100.0;
            let f = intersection_fraction(d, r, eps, b);
            assert!(f <= prev + 1e-12, "not monotone at b = {b}");
            prev = f;
        }
    }

    #[test]
    fn monotone_increasing_in_query_radius() {
        let d = 5;
        let (r, b) = (1.0, 1.2);
        let mut prev = -1.0;
        for i in 0..=100 {
            let eps = 3.0 * i as f64 / 100.0;
            let f = intersection_fraction(d, r, eps, b);
            assert!(f >= prev - 1e-12, "not monotone at eps = {eps}");
            prev = f;
        }
    }

    #[test]
    fn symmetric_volume() {
        // Vol(A∩B) must not depend on argument order.
        for &(r, eps, b) in &[(1.0, 0.7, 1.1), (2.0, 0.5, 1.8), (1.5, 1.5, 0.9)] {
            for d in [2u32, 3, 7] {
                close(
                    intersection_volume(d, r, eps, b),
                    intersection_volume(d, eps, r, b),
                    1e-10,
                );
            }
        }
    }
}
