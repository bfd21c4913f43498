//! Property-based tests for the geometric invariants Hyper-M relies on.

use hyperm_geometry::solve::{expected_items, start_radius};
use hyperm_geometry::{
    cap_fraction, cap_fraction_beta, intersection_fraction, invert_monotone, solve_epsilon_for_k,
    ClusterView, IntersectionFraction,
};
use proptest::prelude::*;

proptest! {
    /// Cap fractions are always valid probabilities, whatever d and α.
    #[test]
    fn cap_fraction_in_unit_interval(d in 1u32..200, alpha in 0.0..std::f64::consts::PI) {
        let f = cap_fraction(d, alpha);
        prop_assert!((0.0..=1.0).contains(&f), "f = {f}");
    }

    /// Complementary caps tile the ball: F(α) + F(π − α) = 1.
    #[test]
    fn cap_complement_identity(d in 1u32..100, alpha in 0.0..std::f64::consts::PI) {
        let f = cap_fraction(d, alpha) + cap_fraction(d, std::f64::consts::PI - alpha);
        prop_assert!((f - 1.0).abs() < 1e-9, "sum = {f}");
    }

    /// The two independent cap evaluations agree everywhere.
    #[test]
    fn cap_beta_agreement(d in 1u32..64, alpha in 0.0..std::f64::consts::PI) {
        let a = cap_fraction(d, alpha);
        let b = cap_fraction_beta(d, alpha);
        prop_assert!((a - b).abs() < 1e-8, "{a} vs {b}");
    }

    /// Intersection fractions are valid probabilities for arbitrary configs.
    #[test]
    fn intersection_fraction_valid(
        d in 1u32..64,
        r in 1e-3..10.0f64,
        eps in 0.0..10.0f64,
        b in 0.0..25.0f64,
    ) {
        let f = intersection_fraction(d, r, eps, b);
        prop_assert!((0.0..=1.0).contains(&f), "f = {f}");
    }

    /// Moving the query closer never decreases the covered fraction.
    #[test]
    fn intersection_monotone_in_distance(
        d in 1u32..32,
        r in 1e-2..5.0f64,
        eps in 1e-2..5.0f64,
        b1 in 0.0..12.0f64,
        delta in 0.0..5.0f64,
    ) {
        let near = intersection_fraction(d, r, eps, b1);
        let far = intersection_fraction(d, r, eps, b1 + delta);
        prop_assert!(far <= near + 1e-10, "near {near} far {far}");
    }

    /// Growing the query never decreases the covered fraction.
    #[test]
    fn intersection_monotone_in_radius(
        d in 1u32..32,
        r in 1e-2..5.0f64,
        eps in 1e-2..5.0f64,
        grow in 0.0..5.0f64,
        b in 0.0..12.0f64,
    ) {
        let small = intersection_fraction(d, r, eps, b);
        let large = intersection_fraction(d, r, eps + grow, b);
        prop_assert!(large >= small - 1e-10, "small {small} large {large}");
    }

    /// The solved ε really produces ≈ k expected items whenever k is
    /// attainable.
    #[test]
    fn solved_epsilon_achieves_target(
        d in 1u32..16,
        dist1 in 0.0..4.0f64,
        dist2 in 0.0..4.0f64,
        r1 in 0.05..2.0f64,
        r2 in 0.05..2.0f64,
        n1 in 1.0..200.0f64,
        n2 in 1.0..200.0f64,
        frac in 0.05..0.95f64,
    ) {
        let clusters = [
            ClusterView { centre_dist: dist1, radius: r1, items: n1 },
            ClusterView { centre_dist: dist2, radius: r2, items: n2 },
        ];
        let k = frac * (n1 + n2);
        let eps = solve_epsilon_for_k(d, &clusters, k, 1e-10);
        let got = expected_items(d, &clusters, eps);
        // In high dimensions the curve g(ε) can be a quasi-step at f64
        // resolution (cap concentration), so the solver may land on either
        // side of the jump. The correct property is that the returned ε
        // *brackets* the target: g just below ε is ≤ k and g just above is
        // ≥ k (all up to small tolerances).
        let nudge = 1e-7 * (1.0 + eps);
        let below = expected_items(d, &clusters, (eps - nudge).max(0.0));
        let above = expected_items(d, &clusters, eps + nudge);
        let tol = 1e-2 * k.max(1.0);
        prop_assert!(
            (got - k).abs() <= tol || (below <= k + tol && above >= k - tol),
            "k = {k}, got = {got}, eps = {eps}, below = {below}, above = {above}"
        );
    }

    /// Near-concentric lens configurations (b spanning 1e-300 … 1e-3) stay
    /// finite, valid and continuous with the b = 0 containment limits.
    /// Regression for the radical-plane blow-up: (b² + r² − ε²)/(2b)
    /// overflows/cancels as b → 0⁺ with r ≈ ε.
    #[test]
    fn lens_continuous_at_concentricity(
        d in 1u32..16,
        r in 0.1..10.0f64,
        // ε = r + t·b keeps the configuration inside the lens regime
        // (|r − ε| < b) for every b in the sweep.
        t in -0.99..0.99f64,
        b_exp in -300.0..-3.0f64,
    ) {
        let b = 10f64.powf(b_exp);
        let eps = r + t * b;
        let f = intersection_fraction(d, r, eps, b);
        prop_assert!(f.is_finite() && (0.0..=1.0).contains(&f), "f = {f}");
        // b = 0 limit: data ball covered if ε ≥ r, else (ε/r)^d ≈ 1.
        let limit = intersection_fraction(d, r, eps, 0.0);
        // The true fraction deviates from the limit by O(d·b/r); with
        // b ≤ 1e-3 and r ≥ 0.1 that is ≤ 0.16, but for the tiny-b bulk of
        // the sweep the two must agree to near machine precision.
        let tol = (1e-9 + 100.0 * d as f64 * b / r).min(0.2);
        prop_assert!(
            (f - limit).abs() <= tol,
            "d={d} r={r} eps={eps} b={b}: f={f} vs limit={limit}"
        );
        // Local continuity: halving b moves the result only slightly.
        let f_half = intersection_fraction(d, r, eps, b / 2.0);
        prop_assert!((f - f_half).abs() <= tol, "f(b)={f} f(b/2)={f_half}");
    }

    /// `IntersectionFraction`, whose `lnΓ` terms are computed once, equals
    /// the per-call `intersection_fraction` bit for bit in every overlap
    /// regime (the lens branch takes acute and obtuse caps).
    #[test]
    fn precomputed_intersection_is_bit_identical(
        d in 1u32..600,
        r in 0.0..3.0f64,
        eps in 0.0..3.0f64,
        b in 0.0..6.0f64,
    ) {
        prop_assert_eq!(
            IntersectionFraction::new(d).eval(r, eps, b).to_bits(),
            intersection_fraction(d, r, eps, b).to_bits()
        );
    }

    /// `solve_epsilon_for_k` returns, bit for bit, what inverting the
    /// per-call `expected_items` returns.
    #[test]
    fn solver_is_bit_identical_to_inverting_expected_items(
        d in 1u32..16,
        clusters in prop::collection::vec((0.0..4.0f64, 0.0..2.0f64, 1.0..200.0f64), 1..12),
        frac in 0.0..1.2f64,
    ) {
        let clusters: Vec<ClusterView> = clusters
            .into_iter()
            .map(|(centre_dist, radius, items)| ClusterView { centre_dist, radius, items })
            .collect();
        let k = frac * clusters.iter().map(|c| c.items).sum::<f64>();
        let tol = 1e-6;
        let hi = clusters
            .iter()
            .map(|c| c.centre_dist + c.radius)
            .fold(0.0f64, f64::max)
            .max(tol);
        let start = start_radius(d, &clusters, k);
        let want = invert_monotone(|e| expected_items(d, &clusters, e), k, 0.0, hi, start, tol)
            .unwrap_or(hi);
        let got = solve_epsilon_for_k(d, &clusters, k, tol);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "k {}", k);
    }
}

/// The solver's contract for `ε = solve_epsilon_for_k(d, clusters, k, tol)`
/// with `hi = max(b + r)`: ε meets the target within `tol`; or ε is `hi` and
/// even `hi` cannot reach `k`; or ε reaches `k` and a radius `2·tol·(1 + ε)`
/// below it does not (ε sits just above a step of `g`).
fn meets_contract(g: impl Fn(f64) -> f64, k: f64, hi: f64, eps: f64, tol: f64) -> bool {
    let at = g(eps);
    (at - k).abs() <= tol
        || (eps == hi && g(hi) < k)
        || (at >= k && g(eps - 2.0 * tol * (1.0 + eps)) < k + tol)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Whatever the level looks like — singletons (r = 0) put steps in
    /// `g`, an unreachable `k` saturates — the solved radius meets the
    /// contract, well inside the iteration cap.
    #[test]
    fn solver_meets_its_contract(
        d in 1u32..16,
        clusters in prop::collection::vec(
            (0.0..4.0f64, 0.0..2.0f64, 1.0..200.0f64, 0.0..1.0f64),
            1..13,
        ),
        frac in 0.0..1.2f64,
        fine in any::<bool>(),
    ) {
        let clusters: Vec<ClusterView> = clusters
            .into_iter()
            .map(|(centre_dist, radius, items, singleton)| ClusterView {
                centre_dist,
                radius: if singleton < 0.15 { 0.0 } else { radius },
                items,
            })
            .collect();
        let k = frac * clusters.iter().map(|c| c.items).sum::<f64>();
        prop_assume!(k > 0.0);
        let tol = if fine { 1e-10 } else { 1e-6 };
        let hi = clusters
            .iter()
            .map(|c| c.centre_dist + c.radius)
            .fold(0.0f64, f64::max)
            .max(tol);
        let g = |e| expected_items(d, &clusters, e);
        let evals = std::cell::Cell::new(0u32);
        let counted = |e| {
            evals.set(evals.get() + 1);
            g(e)
        };
        let eps = invert_monotone(counted, k, 0.0, hi, start_radius(d, &clusters, k), tol)
            .unwrap_or(hi);
        prop_assert_eq!(eps.to_bits(), solve_epsilon_for_k(d, &clusters, k, tol).to_bits());
        prop_assert!(
            meets_contract(g, k, hi, eps, tol),
            "d {d} k {k} tol {tol} eps {eps} g {} clusters {clusters:?}",
            g(eps)
        );
        prop_assert!(evals.get() <= 100, "{} evaluations of g", evals.get());
    }
}
