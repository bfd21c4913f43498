//! Hyperspherical-cap volume fractions.
//!
//! A *cap* of a d-ball is the region cut off by a hyperplane; it is
//! parameterised here by the half-angle `α` subtended at the ball's centre
//! (`α = 0` → empty cap, `α = π/2` → half the ball, `α = π` → whole ball).
//!
//! The paper gives a series for even `d` (Eq. 5):
//!
//! ```text
//! Vol_cap/Vol_sphere = (1/π)(α − cosα · Σ_{i=0}^{(d−2)/2} 2^{2i}(i!)²/(2i+1)! · sin^{2i+1}α)
//! ```
//!
//! and omits the odd case. We implement three independent evaluations and
//! cross-check them in tests:
//!
//! 1. [`cap_fraction_recurrence`] — general, any `d ≥ 1`, via the sine-power
//!    integral `F(α) = ∫₀^α sinᵈθ dθ / ∫₀^π sinᵈθ dθ` (this is the
//!    definition of the cap fraction; see e.g. Li (2011), "Concise formulas
//!    for the area and volume of a hyperspherical cap");
//! 2. [`cap_fraction_even_series`] — the paper's Eq. 5 verbatim (even `d`);
//! 3. [`cap_fraction_beta`] — `½ I_{sin²α}((d+1)/2, ½)` for `α ≤ π/2`,
//!    reflected for obtuse angles. This is the default ([`cap_fraction`])
//!    because it keeps relative accuracy for tiny caps.

use crate::special::{factorial, reg_inc_beta, sin_power_integral, IncBeta};
use std::f64::consts::PI;

/// Fraction of a d-ball's volume contained in a cap of half-angle `alpha`.
///
/// Valid for all `d ≥ 1` and `alpha ∈ [0, π]`. This is the default
/// evaluation used throughout Hyper-M; it delegates to the incomplete-beta
/// form because that form keeps *relative* accuracy for tiny caps — the
/// sine-power recurrence cancels catastrophically at small angles, and the
/// lens formula (Eq. 6) multiplies small caps by `(ε/r)^d`, which can exceed
/// `10^18`, so relative accuracy is essential.
pub fn cap_fraction(d: u32, alpha: f64) -> f64 {
    cap_fraction_beta(d, alpha)
}

/// Cap fraction via the `∫₀^α sinᵈθ dθ` recurrence.
///
/// Absolutely accurate but loses relative accuracy for tiny caps; retained
/// as an independent cross-check of [`cap_fraction_beta`] and for callers
/// that only need absolute error.
pub fn cap_fraction_recurrence(d: u32, alpha: f64) -> f64 {
    assert!(d >= 1, "dimension must be >= 1");
    let alpha = alpha.clamp(0.0, PI);
    if alpha == 0.0 {
        return 0.0;
    }
    if (alpha - PI).abs() < f64::EPSILON {
        return 1.0;
    }
    // The recurrence can produce tiny negatives (−1e-17) for large d and
    // small α; clamp to keep the result a valid probability.
    (sin_power_integral(d, alpha) / sin_power_integral(d, PI)).clamp(0.0, 1.0)
}

/// The paper's Eq. 5: cap fraction for **even** `d` as a finite series.
///
/// Kept verbatim for fidelity and used in tests to validate [`cap_fraction`].
pub fn cap_fraction_even_series(d: u32, alpha: f64) -> f64 {
    assert!(
        d >= 2 && d.is_multiple_of(2),
        "Eq. 5 applies to even d >= 2, got {d}"
    );
    let alpha = alpha.clamp(0.0, PI);
    let (s, c) = alpha.sin_cos();
    let mut series = 0.0;
    // Σ_{i=0}^{(d−2)/2} 2^{2i} (i!)² / (2i+1)! · sin^{2i+1}α
    let mut sin_pow = s; // sin^{2i+1}, starts at i = 0
    for i in 0..=(d - 2) / 2 {
        let i64v = i as u64;
        let coef = 4f64.powi(i as i32) * factorial(i64v).powi(2) / factorial(2 * i64v + 1);
        series += coef * sin_pow;
        sin_pow *= s * s;
    }
    (alpha - c * series) / PI
}

/// Cap fraction via the regularized incomplete beta function.
///
/// `F(α) = ½ I_{sin²α}((d+1)/2, ½)` for `α ∈ [0, π/2]`, and
/// `F(α) = 1 − F(π − α)` for obtuse `α`.
pub fn cap_fraction_beta(d: u32, alpha: f64) -> f64 {
    assert!(d >= 1, "dimension must be >= 1");
    beta_form(alpha, |x| reg_inc_beta(beta_a(d), 0.5, x))
}

/// [`cap_fraction`] in one fixed dimension, with the incomplete beta's
/// `lnΓ` terms computed once ([`IncBeta`]); `eval` returns
/// `cap_fraction(d, alpha)` bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CapFraction {
    beta: IncBeta,
}

impl CapFraction {
    /// Precompute for dimension `d ≥ 1`.
    pub(crate) fn new(d: u32) -> Self {
        assert!(d >= 1, "dimension must be >= 1");
        Self {
            beta: IncBeta::new(beta_a(d), 0.5),
        }
    }

    /// Fraction of the ball in a cap of half-angle `alpha`.
    pub(crate) fn eval(&self, alpha: f64) -> f64 {
        beta_form(alpha, |x| self.beta.eval(x))
    }
}

/// The beta form's first shape parameter, `(d + 1)/2`.
fn beta_a(d: u32) -> f64 {
    (d as f64 + 1.0) / 2.0
}

/// `½ I_{sin²α}((d+1)/2, ½)`, reflected for obtuse `α`; `ibeta` is
/// `x ↦ I_x((d+1)/2, ½)`.
fn beta_form(alpha: f64, ibeta: impl Fn(f64) -> f64) -> f64 {
    let alpha = alpha.clamp(0.0, PI);
    let acute = |alpha: f64| {
        let s = alpha.sin();
        0.5 * ibeta(s * s)
    };
    if alpha <= PI / 2.0 {
        acute(alpha)
    } else {
        // `PI − alpha` is exact here (Sterbenz) and lies in [0, π/2).
        1.0 - acute(PI - alpha)
    }
}

/// Cap fraction parameterised by the signed distance `t ∈ [−r, r]` from the
/// ball centre to the cutting hyperplane (cap lies on the far side).
///
/// `t = r` → empty cap, `t = −r` → whole ball, `t = 0` → half.
pub fn cap_fraction_by_plane(d: u32, r: f64, t: f64) -> f64 {
    assert!(r > 0.0, "radius must be positive");
    let x = (t / r).clamp(-1.0, 1.0);
    cap_fraction(d, x.acos())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (|Δ| = {})", (a - b).abs());
    }

    #[test]
    fn boundary_values() {
        for d in [1u32, 2, 3, 8, 64] {
            close(cap_fraction(d, 0.0), 0.0, 0.0);
            close(cap_fraction(d, PI), 1.0, 1e-12);
            close(cap_fraction(d, PI / 2.0), 0.5, 1e-12);
        }
    }

    #[test]
    fn d1_is_linear_in_height() {
        // For a segment [-1,1], cap of half-angle α covers (1 − cosα)/2.
        for a in [0.2, 0.9, 1.5, 2.8] {
            close(cap_fraction(1, a), (1.0 - a.cos()) / 2.0, 1e-12);
        }
    }

    #[test]
    fn d2_matches_circular_segment() {
        for a in [0.3, 1.0, 2.0] {
            close(cap_fraction(2, a), (a - a.sin() * a.cos()) / PI, 1e-12);
        }
    }

    #[test]
    fn d3_matches_spherical_cap_closed_form() {
        // Sphere cap fraction: (2 + cosα)(1 − cosα)² / 4.
        for a in [0.4f64, 1.1, 2.3] {
            let c = a.cos();
            close(
                cap_fraction(3, a),
                (2.0 + c) * (1.0 - c).powi(2) / 4.0,
                1e-12,
            );
        }
    }

    #[test]
    fn paper_series_agrees_with_general_form_for_even_d() {
        for d in [2u32, 4, 6, 8, 16, 32, 64] {
            for i in 1..16 {
                let a = PI * i as f64 / 16.0;
                close(cap_fraction_even_series(d, a), cap_fraction(d, a), 1e-10);
            }
        }
    }

    #[test]
    fn beta_form_agrees_with_recurrence_all_d() {
        for d in [1u32, 2, 3, 5, 7, 10, 33, 128] {
            for i in 0..=20 {
                let a = PI * i as f64 / 20.0;
                close(cap_fraction_beta(d, a), cap_fraction_recurrence(d, a), 1e-9);
            }
        }
    }

    #[test]
    fn precomputed_form_is_bit_identical() {
        for d in (1u32..40).chain([63, 64, 127, 255, 511, 512]) {
            let cap = CapFraction::new(d);
            for i in 0..=64 {
                let a = PI * i as f64 / 64.0 + 1e-3 * (i % 7) as f64;
                assert_eq!(
                    cap.eval(a).to_bits(),
                    cap_fraction(d, a).to_bits(),
                    "d {d}, α {a}"
                );
            }
        }
    }

    #[test]
    fn fraction_is_monotone_in_alpha() {
        for d in [2u32, 5, 17] {
            let mut prev = -1.0;
            for i in 0..=200 {
                let a = PI * i as f64 / 200.0;
                let f = cap_fraction(d, a);
                assert!(f >= prev - 1e-14);
                prev = f;
            }
        }
    }

    #[test]
    fn high_dimension_concentration() {
        // In high d almost all volume hugs the equator: a cap of half-angle
        // slightly under π/2 holds almost nothing, slightly over holds almost
        // everything.
        let below = cap_fraction(256, PI / 2.0 - 0.3);
        let above = cap_fraction(256, PI / 2.0 + 0.3);
        assert!(below < 1e-4, "below = {below}");
        assert!(above > 1.0 - 1e-4, "above = {above}");
    }

    #[test]
    fn plane_parameterisation() {
        close(cap_fraction_by_plane(3, 2.0, 2.0), 0.0, 1e-12);
        close(cap_fraction_by_plane(3, 2.0, 0.0), 0.5, 1e-12);
        close(cap_fraction_by_plane(3, 2.0, -2.0), 1.0, 1e-12);
        // Height h = r − t; fraction = (2 + t/r)(1 − t/r)²/4 for d = 3.
        let r = 1.5;
        let t = 0.6;
        let x: f64 = t / r;
        close(
            cap_fraction_by_plane(3, r, t),
            (2.0 + x) * (1.0 - x).powi(2) / 4.0,
            1e-12,
        );
    }

    #[test]
    #[should_panic(expected = "even d")]
    fn series_rejects_odd_dimension() {
        cap_fraction_even_series(3, 1.0);
    }
}
