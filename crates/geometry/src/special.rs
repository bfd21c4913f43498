//! Special functions used by the sphere-geometry formulas.
//!
//! Everything here is implemented from scratch (no external math crates):
//! a Lanczos log-gamma, the regularized incomplete beta function via the
//! Lentz continued-fraction algorithm, and small factorial helpers used by
//! the paper's series expansion (Eq. 5).

/// Lanczos coefficients for `g = 7`, `n = 9` (double precision accurate to
/// ~15 significant digits for positive arguments).
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// Uses the Lanczos approximation with reflection for `x < 0.5`.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x.is_finite(), "ln_gamma: non-finite argument {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural log of `n!` computed through [`ln_gamma`].
pub fn ln_factorial(n: u64) -> f64 {
    ln_gamma(n as f64 + 1.0)
}

/// `n!` as an `f64`; exact for `n ≤ 20`, gamma-based beyond.
pub fn factorial(n: u64) -> f64 {
    if n <= 20 {
        let mut acc = 1u64;
        for i in 2..=n {
            acc *= i;
        }
        acc as f64
    } else {
        ln_factorial(n).exp()
    }
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Evaluated with the continued-fraction expansion (Numerical Recipes
/// `betacf`), using the symmetry `I_x(a,b) = 1 − I_{1−x}(b,a)` to stay in the
/// rapidly convergent region.
pub fn reg_inc_beta(a: f64, b: f64, x: f64) -> f64 {
    reg_inc_beta_with(a, b, x, 1.0 - x, || {
        [ln_gamma(a + b), ln_gamma(a), ln_gamma(b)]
    })
}

/// [`reg_inc_beta`] for one fixed `(a, b)`, with its three `lnΓ` terms
/// computed once instead of on every call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct IncBeta {
    a: f64,
    b: f64,
    /// `[lnΓ(a + b), lnΓ(a), lnΓ(b)]`.
    ln_gammas: [f64; 3],
}

impl IncBeta {
    /// Precompute for shape parameters `a, b > 0`.
    pub(crate) fn new(a: f64, b: f64) -> Self {
        assert!(a > 0.0 && b > 0.0, "reg_inc_beta: a,b must be positive");
        Self {
            a,
            b,
            ln_gammas: [ln_gamma(a + b), ln_gamma(a), ln_gamma(b)],
        }
    }

    /// `I_x(a, b)`, given `x` and its complement `y = 1 − x`, each to full
    /// precision: a caller that holds `y` more accurately than `1.0 − x`
    /// rounds it (`cos²α` beside `sin²α`) keeps that accuracy near `x = 1`.
    pub(crate) fn eval(&self, x: f64, y: f64) -> f64 {
        reg_inc_beta_with(self.a, self.b, x, y, || self.ln_gammas)
    }
}

/// The body of [`reg_inc_beta`], with `y = 1 − x` given and
/// `[lnΓ(a+b), lnΓ(a), lnΓ(b)]` taken from `ln_gammas`, which is only
/// called once `x` is inside `(0, 1)`.
fn reg_inc_beta_with(a: f64, b: f64, x: f64, y: f64, ln_gammas: impl FnOnce() -> [f64; 3]) -> f64 {
    assert!(a > 0.0 && b > 0.0, "reg_inc_beta: a,b must be positive");
    assert!(
        (0.0..=1.0).contains(&x),
        "reg_inc_beta: x must be in [0,1], got {x}"
    );
    if x == 0.0 {
        return 0.0;
    }
    if y == 0.0 {
        return 1.0;
    }
    // ln of the prefactor x^a (1-x)^b / (a B(a,b)).
    let [ln_gamma_ab, ln_gamma_a, ln_gamma_b] = ln_gammas();
    let ln_front = a * x.ln() + b * y.ln() + ln_gamma_ab - ln_gamma_a - ln_gamma_b;
    if x < (a + 1.0) / (a + b + 2.0) {
        (ln_front.exp() / a) * beta_cf(a, b, x)
    } else {
        1.0 - (ln_front.exp() / b) * beta_cf(b, a, y)
    }
}

/// Continued fraction for the incomplete beta function (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3.0e-16;
    const FPMIN: f64 = 1.0e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// `∫₀^α sinᵈθ dθ` evaluated by the stable downward recurrence
/// `I_d = (−sin^{d−1}α·cosα + (d−1)·I_{d−2}) / d`.
///
/// Valid for any `d ≥ 0` and `α ∈ [0, π]`. This is the workhorse behind the
/// general hyperspherical-cap fraction.
pub fn sin_power_integral(d: u32, alpha: f64) -> f64 {
    assert!(
        (0.0..=std::f64::consts::PI + 1e-12).contains(&alpha),
        "alpha out of [0, pi]: {alpha}"
    );
    let (s, c) = alpha.sin_cos();
    match d {
        0 => alpha,
        1 => 1.0 - c,
        _ => {
            // Iterative evaluation to avoid recursion depth for large d.
            let mut even = alpha; // I_0
            let mut odd = 1.0 - c; // I_1
            let mut result = if d.is_multiple_of(2) { even } else { odd };
            // sin^{k-1}(α) built incrementally.
            let mut sin_pow = s; // s^1, used for k = 2
            for k in 2..=d {
                let prev = if k % 2 == 0 { even } else { odd };
                let val = (-sin_pow * c + (k as f64 - 1.0) * prev) / k as f64;
                if k % 2 == 0 {
                    even = val;
                } else {
                    odd = val;
                }
                result = val;
                sin_pow *= s;
            }
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())),
            "{a} vs {b}"
        );
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        close(ln_gamma(1.0), 0.0, 1e-14);
        close(ln_gamma(2.0), 0.0, 1e-14);
        close(ln_gamma(3.0), 2.0f64.ln(), 1e-14);
        close(ln_gamma(6.0), 120.0f64.ln(), 1e-13);
        close(ln_gamma(0.5), PI.sqrt().ln(), 1e-13);
        close(ln_gamma(1.5), (PI.sqrt() / 2.0).ln(), 1e-13);
    }

    #[test]
    fn ln_gamma_reflection_branch() {
        // Γ(0.25) ≈ 3.625609908...
        close(ln_gamma(0.25), 3.625_609_908_221_908f64.ln(), 1e-12);
    }

    #[test]
    fn factorial_small_and_large() {
        assert_eq!(factorial(0), 1.0);
        assert_eq!(factorial(5), 120.0);
        assert_eq!(factorial(20), 2_432_902_008_176_640_000.0);
        close(factorial(25), 1.551_121_004_333_098_6e25, 1e-10);
    }

    #[test]
    fn reg_inc_beta_endpoints_and_symmetry() {
        assert_eq!(reg_inc_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(reg_inc_beta(2.0, 3.0, 1.0), 1.0);
        for &(a, b, x) in &[(2.0, 3.0, 0.3), (0.5, 0.5, 0.7), (5.0, 1.5, 0.25)] {
            let lhs = reg_inc_beta(a, b, x);
            let rhs = 1.0 - reg_inc_beta(b, a, 1.0 - x);
            close(lhs, rhs, 1e-12);
        }
    }

    #[test]
    fn reg_inc_beta_uniform_case() {
        // I_x(1, 1) = x.
        for x in [0.1, 0.37, 0.5, 0.99] {
            close(reg_inc_beta(1.0, 1.0, x), x, 1e-13);
        }
    }

    #[test]
    fn reg_inc_beta_half_half_is_arcsine() {
        // I_x(1/2, 1/2) = (2/π) asin(√x).
        for x in [0.05, 0.3, 0.5, 0.8] {
            close(reg_inc_beta(0.5, 0.5, x), 2.0 / PI * x.sqrt().asin(), 1e-12);
        }
    }

    #[test]
    fn sin_power_integral_base_cases() {
        close(sin_power_integral(0, 1.2), 1.2, 1e-15);
        close(sin_power_integral(1, PI / 2.0), 1.0, 1e-15);
        close(sin_power_integral(1, PI), 2.0, 1e-15);
    }

    #[test]
    fn sin_power_integral_closed_forms() {
        // ∫ sin²θ = (α − sinα cosα)/2
        for a in [0.3, 1.0, 2.5, PI] {
            close(
                sin_power_integral(2, a),
                (a - a.sin() * a.cos()) / 2.0,
                1e-13,
            );
        }
        // ∫₀^π sin³θ dθ = 4/3
        close(sin_power_integral(3, PI), 4.0 / 3.0, 1e-13);
        // Wallis: ∫₀^π sin⁴ = 3π/8, ∫₀^π sin⁶ = 15π/48.
        close(sin_power_integral(4, PI), 3.0 * PI / 8.0, 1e-13);
        close(sin_power_integral(6, PI), 15.0 * PI / 48.0, 1e-13);
    }

    #[test]
    fn sin_power_integral_numerical_cross_check() {
        // Simpson's rule comparison for a handful of (d, α).
        for &(d, alpha) in &[(5u32, 0.9f64), (8, 2.0), (13, 1.3), (32, 0.6)] {
            let n = 20_000;
            let h = alpha / n as f64;
            let mut acc = 0.0;
            for i in 0..n {
                let x0 = i as f64 * h;
                let xm = x0 + h / 2.0;
                let x1 = x0 + h;
                acc += h / 6.0
                    * (x0.sin().powi(d as i32)
                        + 4.0 * xm.sin().powi(d as i32)
                        + x1.sin().powi(d as i32));
            }
            close(sin_power_integral(d, alpha), acc, 1e-9);
        }
    }

    #[test]
    fn sin_power_integral_monotone_in_alpha() {
        let mut prev = 0.0;
        for i in 1..=100 {
            let a = PI * i as f64 / 100.0;
            let v = sin_power_integral(7, a);
            assert!(v >= prev, "not monotone at {a}");
            prev = v;
        }
    }
}
