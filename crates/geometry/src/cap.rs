//! Hyperspherical-cap volume fractions.
//!
//! A *cap* of a d-ball is the region cut off by a hyperplane; it is
//! parameterised here by the half-angle `α` subtended at the ball's centre
//! (`α = 0` → empty cap, `α = π/2` → half the ball, `α = π` → whole ball).
//! Its fraction of the ball is `F(α) = ∫₀^α sinᵈθ dθ / ∫₀^π sinᵈθ dθ` (Li
//! (2011), "Concise formulas for the area and volume of a hyperspherical
//! cap").
//!
//! # The kernel
//!
//! Every cap Hyper-M evaluates — Eq. 1 scoring, the Eq. 8 solver and the
//! public free functions — goes through one kernel, `CapFraction`, which
//! takes `c = cos α`. The lens formula (Eq. 6) already holds that cosine, and
//! `s² = sin²α = (1 − c)(1 + c)` follows from it without a `sin`.
//!
//! * **Odd `d = 2m + 1 ≤ 7`**, the case the paper omits. With `u = 1 − c`,
//!   substituting `t = cos θ` gives
//!   `F = ½ Σ_j C(m,j)·2^{m−j}·(−u)^j·u^{m+1}/(m+j+1) / N_m`, where
//!   `N_m = (2m)!!/(2m+1)!!`: a polynomial with no transcendental call. For
//!   `c ≥ 0` (`u ≤ 1`) its terms cancel by less than a factor 5 and
//!   `u = 1 − c` is exact, so tiny caps keep relative accuracy; obtuse caps
//!   use `F(c) = 1 − F(−c)`.
//! * **Even `d = 2m + 2 ≤ 8`**: the paper's Eq. 5,
//!   `F = (α − c·Σ_{i=0}^{m} w_i·s^{2i+1})/π` with `w_i = 4^i (i!)²/(2i+1)!`
//!   precomputed, one `acos` and one `sqrt`. For small `α` the two terms
//!   cancel (`F ~ α^{d+1}` while each term is `~ α`), so caps with
//!   `α < d/8` rad keep the incomplete beta below. The cut keeps Eq. 5
//!   within ≈ 2e-14 relative of it, and there the continued fraction
//!   converges in a few steps.
//! * **`d > 8`** and the small even caps: `½ I_{s²}((d+1)/2, ½)`, reflected
//!   for `c < 0`, via the Lentz continued fraction ([`crate::special`]).
//!   8 is the default `max_can_dim`, which bounds every overlay key
//!   dimension, so the query path never reaches this form except for small
//!   even caps.
//!
//! Near `α = π/2` the closed forms are also the more accurate: the beta
//! form's `1 − x = c²` is rounded there, which costs it up to ≈ 5e-13.
//!
//! # Oracles
//!
//! Three independent evaluations stay public and check the kernel in
//! `tests/cap_closed_form.rs`:
//!
//! 1. [`cap_fraction_recurrence`] — any `d ≥ 1`, via the sine-power
//!    integral; absolutely accurate;
//! 2. [`cap_fraction_even_series`] — the paper's Eq. 5 verbatim (even `d`);
//! 3. [`cap_fraction_beta`] — `½ I_{sin²α}((d+1)/2, ½)` from the angle,
//!    reflected for obtuse angles; relatively accurate for tiny caps.

use crate::special::{factorial, reg_inc_beta, sin_power_integral, IncBeta};
use std::f64::consts::PI;

/// Largest dimension with a closed-form kernel.
const CLOSED_FORM_MAX_D: u32 = 8;

/// Fraction of a d-ball's volume contained in a cap of half-angle `alpha`.
///
/// Valid for all `d ≥ 1` and `alpha ∈ [0, π]`. This is the kernel
/// (`CapFraction`) evaluated at `cos alpha`; it keeps *relative* accuracy
/// for tiny caps, which matters because the lens formula (Eq. 6) multiplies
/// small caps by `(ε/r)^d`, which can exceed `10^18`.
pub fn cap_fraction(d: u32, alpha: f64) -> f64 {
    CapFraction::new(d).eval(alpha)
}

/// Cap fraction via the `∫₀^α sinᵈθ dθ` recurrence.
///
/// Absolutely accurate but loses relative accuracy for tiny caps; retained
/// as an independent cross-check of [`cap_fraction`] and for callers that
/// only need absolute error.
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
        series += eq5_weight(i) * sin_pow;
        sin_pow *= s * s;
    }
    (alpha - c * series) / PI
}

/// Eq. 5's weight `2^{2i} (i!)² / (2i+1)!`.
fn eq5_weight(i: u32) -> f64 {
    let i64v = u64::from(i);
    4f64.powi(i as i32) * factorial(i64v).powi(2) / factorial(2 * i64v + 1)
}

/// Cap fraction via the regularized incomplete beta function.
///
/// `F(α) = ½ I_{sin²α}((d+1)/2, ½)` for `α ∈ [0, π/2]`, and
/// `F(α) = 1 − F(π − α)` for obtuse `α`.
pub fn cap_fraction_beta(d: u32, alpha: f64) -> f64 {
    assert!(d >= 1, "dimension must be >= 1");
    let alpha = alpha.clamp(0.0, PI);
    let acute = |alpha: f64| {
        let s = alpha.sin();
        0.5 * reg_inc_beta(beta_a(d), 0.5, s * s)
    };
    if alpha <= PI / 2.0 {
        acute(alpha)
    } else {
        // `PI − alpha` is exact here (Sterbenz) and lies in [0, π/2).
        1.0 - acute(PI - alpha)
    }
}

/// The beta form's first shape parameter, `(d + 1)/2`.
fn beta_a(d: u32) -> f64 {
    (d as f64 + 1.0) / 2.0
}

/// The cap kernel for one dimension, evaluated from `cos α` (see the module
/// docs for which form runs where). [`cap_fraction`] and the lens formula
/// both evaluate it, so they agree bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CapFraction {
    form: Form,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    /// Odd `d = 2m + 1 ≤ 7`: `u^{m+1}·Σ_j coef[j]·u^j` with `u = 1 − c`,
    /// for `c ≥ 0`; `coef` is zero past `j = m`.
    Odd { m: i32, coef: [f64; 4] },
    /// Even `d ≤ 8`: Eq. 5 with `w[i] = 4^i (i!)²/(2i+1)!` (zero past
    /// `i = (d−2)/2`), except for caps with `c > small_cos`, which take
    /// `beta`.
    Even {
        w: [f64; 4],
        small_cos: f64,
        beta: IncBeta,
    },
    /// `d > 8`: `½ I_{s²}((d+1)/2, ½)`.
    Beta(IncBeta),
}

impl CapFraction {
    /// Precompute for dimension `d ≥ 1`.
    pub(crate) fn new(d: u32) -> Self {
        assert!(d >= 1, "dimension must be >= 1");
        let form = if d > CLOSED_FORM_MAX_D {
            Form::Beta(IncBeta::new(beta_a(d), 0.5))
        } else if !d.is_multiple_of(2) {
            let m = (d - 1) / 2;
            // ½ C(m,j) 2^{m−j} (−1)^j / (m+j+1) / N_m, with
            // 1/N_m = (2m+1)!!/(2m)!!, as one ratio of integers.
            let odd_over_even: (u64, u64) =
                (1..=u64::from(m)).fold((1, 1), |(o, e), k| (o * (2 * k + 1), e * 2 * k));
            let mut coef = [0.0; 4];
            let mut binom = 1u64;
            for j in 0..=m {
                let j64 = u64::from(j);
                let num = binom * (1u64 << (m - j)) * odd_over_even.0;
                let den = 2 * (u64::from(m) + j64 + 1) * odd_over_even.1;
                let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
                coef[j as usize] = sign * num as f64 / den as f64;
                binom = binom * (u64::from(m) - j64) / (j64 + 1);
            }
            Form::Odd { m: m as i32, coef }
        } else {
            let mut w = [0.0; 4];
            for i in 0..=(d - 2) / 2 {
                w[i as usize] = eq5_weight(i);
            }
            Form::Even {
                w,
                small_cos: (f64::from(d) / 8.0).cos(),
                beta: IncBeta::new(beta_a(d), 0.5),
            }
        };
        Self { form }
    }

    /// Fraction of the ball in a cap of half-angle `alpha`.
    pub(crate) fn eval(&self, alpha: f64) -> f64 {
        self.eval_cos(alpha.clamp(0.0, PI).cos())
    }

    /// Fraction of the ball in a cap whose half-angle has cosine
    /// `c ∈ [−1, 1]`.
    pub(crate) fn eval_cos(&self, c: f64) -> f64 {
        match self.form {
            Form::Odd { m, coef } => {
                let acute = |c: f64| {
                    let u = 1.0 - c;
                    u.powi(m + 1) * horner(&coef, u)
                };
                if c >= 0.0 {
                    acute(c)
                } else {
                    1.0 - acute(-c)
                }
            }
            Form::Even { w, small_cos, beta } => {
                let s2 = (1.0 - c) * (1.0 + c);
                if c > small_cos {
                    0.5 * beta.eval(s2, c * c)
                } else {
                    (c.acos() - c * s2.sqrt() * horner(&w, s2)) / PI
                }
            }
            Form::Beta(beta) => {
                let half = 0.5 * beta.eval((1.0 - c) * (1.0 + c), c * c);
                if c >= 0.0 {
                    half
                } else {
                    1.0 - half
                }
            }
        }
    }
}

/// `Σ_i p[i]·x^i` by Horner's rule.
fn horner(p: &[f64; 4], x: f64) -> f64 {
    p.iter().rev().fold(0.0, |acc, &k| acc * x + k)
}

/// Cap fraction parameterised by the signed distance `t ∈ [−r, r]` from the
/// ball centre to the cutting hyperplane (cap lies on the far side).
///
/// `t = r` → empty cap, `t = −r` → whole ball, `t = 0` → half. `t/r` is the
/// cap's `cos α`, which goes to the kernel as it is.
pub fn cap_fraction_by_plane(d: u32, r: f64, t: f64) -> f64 {
    assert!(r > 0.0, "radius must be positive");
    CapFraction::new(d).eval_cos((t / r).clamp(-1.0, 1.0))
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
