//! Accuracy of the closed-form cap kernel against the three oracles.
//!
//! For `d ≤ 8` every cap fraction comes from Eq. 5 (even `d`), the odd-`d`
//! polynomial in `1 − cos α`, or — for small even caps — the incomplete
//! beta (see `hyperm_geometry::cap`). These tests pin how close that stays
//! to the sine-power recurrence (absolute), to the incomplete beta on tiny
//! caps (relative, which is what the lens formula's `(ε/r)^d` amplifies)
//! and to the paper's Eq. 5 as printed.

use hyperm_geometry::cap::cap_fraction_by_plane;
use hyperm_geometry::volume::volume_ratio;
use hyperm_geometry::{
    cap_fraction, cap_fraction_beta, cap_fraction_even_series, cap_fraction_recurrence,
    intersection_fraction,
};
use std::f64::consts::PI;

/// The closed-form dimensions: every overlay key space (`MAX_CAN_DIM` 8).
const DIMS: std::ops::RangeInclusive<u32> = 1..=8;

/// `n + 1` evenly spaced angles over `[0, π]`.
fn angles(n: usize) -> impl Iterator<Item = f64> {
    (0..=n).map(move |i| PI * i as f64 / n as f64)
}

/// The kernel given `cos α`: `t/r` is the cosine `cap_fraction_by_plane`
/// hands the kernel as it is.
fn kernel_at_cos(d: u32, c: f64) -> f64 {
    cap_fraction_by_plane(d, 1.0, c)
}

/// Measured: ≤ 6.7e-16 at d = 8. The beta form, for comparison, drifts by
/// up to 5.4e-13 near α = π/2, where its `1 − sin²α` is rounded.
#[test]
fn kernel_is_within_1e15_of_the_recurrence() {
    for d in DIMS {
        let mut worst = 0.0f64;
        for a in angles(20_000) {
            let err = (cap_fraction(d, a) - cap_fraction_recurrence(d, a)).abs();
            worst = worst.max(err);
        }
        assert!(worst <= 1e-15, "d {d}: max |Δ| {worst:e}");
    }
}

#[test]
fn tiny_caps_keep_relative_accuracy_given_the_cosine() {
    // α log-spaced over [1e-6, 1]: the small caps of a lens, where the
    // even-d kernel switches between Eq. 5 and the incomplete beta at
    // α = d/8 and the odd-d kernel has no switch at all.
    let n = 4_000;
    for d in DIMS {
        let mut worst = 0.0f64;
        for i in 0..=n {
            let alpha = 10f64.powf(-6.0 + 6.0 * i as f64 / n as f64);
            let c = alpha.cos();
            let want = cap_fraction_beta(d, c.acos());
            let got = kernel_at_cos(d, c);
            assert!(want > 0.0, "d {d}, α {alpha}: beta {want}");
            worst = worst.max(((got - want) / want).abs());
        }
        assert!(worst <= 1e-13, "d {d}: max relative Δ {worst:e}");
    }
}

#[test]
fn kernel_agrees_with_eq5_as_printed() {
    for d in [2u32, 4, 6, 8] {
        for a in angles(20_000) {
            let (got, want) = (cap_fraction(d, a), cap_fraction_even_series(d, a));
            assert!((got - want).abs() <= 1e-14, "d {d}, α {a}: {got} vs {want}");
        }
    }
}

#[test]
fn kernel_meets_the_boundaries_exactly() {
    for d in DIMS.chain([9, 16, 64]) {
        assert_eq!(kernel_at_cos(d, 1.0), 0.0, "d {d}: empty cap");
        assert_eq!(kernel_at_cos(d, -1.0), 1.0, "d {d}: whole ball");
        assert_eq!(kernel_at_cos(d, 0.0), 0.5, "d {d}: half ball");
    }
}

/// A lens whose query ball is ~31 623× the data ball: `(ε/r)^4 ≈ 1e18`
/// multiplies the query-side cap, so that cap must be right to the last
/// digits. The reference is the lens formula at the same two cosines with
/// each cap from the oracle that is accurate there: the beta form for the
/// tiny query-side cap, the recurrence for the data-side cap (which
/// crosses α = π/2, where the beta form drifts by ~5e-13).
#[test]
fn amplified_lens_matches_the_beta_form() {
    let d = 4;
    let (r, eps) = (1.0, 10f64.powf(4.5));
    let ratio = volume_ratio(d, eps, r);
    assert!((ratio / 1e18 - 1.0).abs() < 1e-9, "(ε/r)^4 = {ratio:e}");
    for i in 1..100 {
        // b across the whole lens range (ε − r, ε + r).
        let b = eps - r + 2.0 * r * i as f64 / 100.0;
        let t_data = (b * b + (r - eps) * (r + eps)) / (2.0 * b);
        let cos_a = (t_data / r).clamp(-1.0, 1.0);
        let cos_b = ((b - t_data) / eps).clamp(-1.0, 1.0);
        let want =
            cap_fraction_recurrence(d, cos_a.acos()) + ratio * cap_fraction_beta(d, cos_b.acos());
        let got = intersection_fraction(d, r, eps, b);
        assert!(want > 0.0 && want < 1.0, "b {b}: reference {want}");
        assert!(
            ((got - want) / want).abs() <= 1e-12,
            "b {b}: {got} vs beta-based {want}"
        );
    }
}
