//! Theorem 3.1: sphere behaviour under the wavelet transform.
//!
//! *"All the points inside a sphere of radius `r` in the original vector
//! space will be mapped inside a sphere of radius `r/√(2^{log d − l})` in
//! the level-`l` approximation (or detail) space."*
//!
//! Equivalently: the linear map from the original `d`-space onto a subspace
//! of dimensionality `m` is a composition of `log₂(d/m)` pairwise
//! average/difference steps, each with operator norm `1/√2` in the paper's
//! convention — so the contraction divisor is `√(d/m)`. For the orthonormal
//! convention every step has operator norm 1 and radii are preserved.
//!
//! This factor is what lets a querying node translate an original-space
//! radius (`ε + r` in Theorem 4.1) into each overlay's subspace without any
//! global knowledge.

use crate::decomposition::Subspace;
use crate::haar::Normalization;

/// The divisor by which an original-space radius shrinks when projected
/// into `subspace` of a `dim`-dimensional decomposition.
///
/// `PaperAverage`: `√(dim / subspace.dim())` — Theorem 3.1.
/// `Orthonormal`: `1` (norm-preserving transform).
pub fn radius_contraction(dim: usize, subspace: Subspace, norm: Normalization) -> f64 {
    sq_radius_contraction(dim, subspace, norm).sqrt()
}

/// [`radius_contraction`] squared, exactly: `dim / subspace.dim()` is a
/// ratio of powers of two, so multiplying by it never rounds.
///
/// It is the weight `c²` under which the subspaces' squared distances add
/// up to a lower bound of the original one. `c ×` (a subspace's
/// coefficients) are the coordinates of `x` along an orthonormal set of
/// Haar vectors, and the sets of different subspaces are orthogonal to each
/// other, so by Pythagoras
///
/// ```text
/// Σ_s c_s² · ‖coeff_s(x) − coeff_s(y)‖²  ≤  ‖x − y‖²
/// ```
///
/// over any choice of subspaces — Theorem 3.1 is the one-subspace case.
pub fn sq_radius_contraction(dim: usize, subspace: Subspace, norm: Normalization) -> f64 {
    assert!(
        dim.is_power_of_two() && dim >= 1,
        "dim must be a power of two"
    );
    let m = subspace.dim();
    assert!(m <= dim, "subspace dim {m} exceeds data dim {dim}");
    match norm {
        Normalization::PaperAverage => dim as f64 / m as f64,
        Normalization::Orthonormal => 1.0,
    }
}

/// The largest value the **computed** weighted sum of
/// [`sq_radius_contraction`]'s inequality can take, over `levels`
/// subspaces of a `dim`-dimensional [`decompose`](crate::decompose), for a
/// pair whose computed squared distance (summed left to right, as
/// `vecmath::sq_dist` does) is at most `sq_dist`. `magnitude` is
/// `max|xᵢ| + max|yᵢ|`.
///
/// In exact arithmetic the answer is `sq_dist`. In `f64` two things move:
///
/// * each Haar step rounds at most three times (the sum, the `√2`
///   constant, the division), so after `log₂ dim` steps a coefficient is
///   off by at most `γ·Σ|xᵢ|/divisor^steps` with `γ < 3·log₂ dim·ε`; taken
///   as a vector and weighted by `c`, one subspace's coefficients are
///   within `γ·√dim·max|xᵢ|` of the exact ones, all `levels` of them
///   within `√levels` times that. This error is **absolute** — it scales
///   with the data, not with the distance — so it is added to the radius;
/// * summing squares rounds once per term: at most `(dim + 2)·ε/2`
///   relative on the 512-d side, less on the coefficient side. `8·dim·ε`
///   covers both, the square of the first, and a `sqrt` taken on either
///   side of the comparison.
///
/// Both constants carry a factor ≥ 2 over the worst case, so rounding in
/// this function itself does not matter. At `dim` 512, four levels and
/// data in `[0, 1]` the radius grows by 5·10⁻¹³ and the bound by a factor
/// `1 + 9·10⁻¹³`.
pub fn lower_bound_limit(sq_dist: f64, dim: usize, levels: usize, magnitude: f64) -> f64 {
    let steps = f64::from(dim.trailing_zeros());
    let coefficient_error = 3.0 * steps * f64::EPSILON * ((levels * dim) as f64).sqrt() * magnitude;
    let radius = sq_dist.sqrt() + coefficient_error;
    radius * radius * (1.0 + 8.0 * dim as f64 * f64::EPSILON)
}

/// Radius of the image of a radius-`r` sphere in `subspace`
/// (`r / radius_contraction`).
pub fn scaled_radius(r: f64, dim: usize, subspace: Subspace, norm: Normalization) -> f64 {
    assert!(r >= 0.0, "negative radius {r}");
    r / radius_contraction(dim, subspace, norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::decompose;

    #[test]
    fn contraction_factors_match_theorem() {
        // d = 512: A (dim 1) contracts by √512; D_8 (dim 256) by √2.
        let d = 512;
        assert!(
            (radius_contraction(d, Subspace::Approx, Normalization::PaperAverage)
                - (512f64).sqrt())
            .abs()
                < 1e-12
        );
        assert!(
            (radius_contraction(d, Subspace::Detail(8), Normalization::PaperAverage) - 2f64.sqrt())
                .abs()
                < 1e-12
        );
        assert!(
            (radius_contraction(d, Subspace::Detail(0), Normalization::PaperAverage)
                - (512f64).sqrt())
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn orthonormal_preserves_radius() {
        for s in [Subspace::Approx, Subspace::Detail(3)] {
            assert_eq!(radius_contraction(64, s, Normalization::Orthonormal), 1.0);
        }
    }

    #[test]
    fn scaled_radius_is_division() {
        let r = 3.0;
        let got = scaled_radius(r, 16, Subspace::Detail(1), Normalization::PaperAverage);
        assert!((got - 3.0 / (8f64).sqrt()).abs() < 1e-12);
    }

    /// Empirical verification of Theorem 3.1: random points inside a sphere
    /// stay inside the contracted sphere in every subspace.
    #[test]
    fn theorem_3_1_holds_empirically() {
        let dim = 64;
        let r = 2.5;
        // Deterministic pseudo-random centre and offsets (LCG, no rand dep).
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0 // in [-1, 1)
        };
        let centre: Vec<f64> = (0..dim).map(|_| next() * 10.0).collect();
        let dec_c = decompose(&centre, Normalization::PaperAverage).unwrap();
        for _ in 0..200 {
            // Random offset scaled to length ≤ r.
            let mut off: Vec<f64> = (0..dim).map(|_| next()).collect();
            let norm: f64 = off.iter().map(|x| x * x).sum::<f64>().sqrt();
            let target_len = r * 0.999 * next().abs();
            for x in off.iter_mut() {
                *x = *x / norm * target_len;
            }
            let point: Vec<f64> = centre.iter().zip(&off).map(|(c, o)| c + o).collect();
            let dec_p = decompose(&point, Normalization::PaperAverage).unwrap();
            for s in Subspace::all(dim) {
                let cs = dec_c.subspace(s).unwrap();
                let ps = dec_p.subspace(s).unwrap();
                let dist: f64 = cs
                    .iter()
                    .zip(ps)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                let bound = scaled_radius(r, dim, s, Normalization::PaperAverage);
                assert!(
                    dist <= bound + 1e-9,
                    "subspace {s:?}: dist {dist} exceeds bound {bound}"
                );
            }
        }
    }

    /// The bound is *tight*: for the approximation subspace a constant
    /// offset achieves it exactly.
    #[test]
    fn theorem_3_1_bound_is_tight_for_approx() {
        let dim = 16;
        let r = 1.0;
        // Offset r/√d in every coordinate has norm exactly r and maps to an
        // approximation offset of r/√d · √(d)/d · d ... directly: the
        // approximation is the mean scaled by 1 (paper convention keeps the
        // mean), so |Δa| = r/√d = bound for dim-1 subspace.
        let centre = vec![0.0; dim];
        let point: Vec<f64> = vec![r / (dim as f64).sqrt(); dim];
        let dc = decompose(&centre, Normalization::PaperAverage).unwrap();
        let dp = decompose(&point, Normalization::PaperAverage).unwrap();
        let da = (dc.approx()[0] - dp.approx()[0]).abs();
        let bound = scaled_radius(r, dim, Subspace::Approx, Normalization::PaperAverage);
        assert!((da - bound).abs() < 1e-12, "da {da} bound {bound}");
    }
}
