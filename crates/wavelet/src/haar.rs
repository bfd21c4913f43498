//! Single-level Haar transform steps.
//!
//! The paper states all of its theory (Theorem 3.1 in particular) for the
//! *average/difference* Haar: `a = (x₁+x₂)/2`, `d = (x₁−x₂)/2` — under which
//! a sphere of radius `r` contracts by `1/√2` per level. The orthonormal
//! variant (`÷√2` instead of `÷2`) is norm-preserving and is provided for
//! ablation studies; the rest of the workspace adjusts its radius math
//! through [`crate::theory::radius_contraction`].

/// Which Haar normalisation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Normalization {
    /// `a = (x₁+x₂)/2`, `d = (x₁−x₂)/2` — the paper's convention.
    /// Per-level operator norm `1/√2` (spheres shrink).
    #[default]
    PaperAverage,
    /// `a = (x₁+x₂)/√2`, `d = (x₁−x₂)/√2` — energy preserving.
    /// Per-level operator norm `1` (spheres keep their radius).
    Orthonormal,
}

impl Normalization {
    /// The divisor applied to the sum/difference of a coordinate pair.
    #[inline]
    pub fn divisor(self) -> f64 {
        match self {
            Normalization::PaperAverage => 2.0,
            Normalization::Orthonormal => std::f64::consts::SQRT_2,
        }
    }
}

/// A [`Normalization`] fixed at compile time, so the pyramid kernel
/// ([`crate::decomposition::haar_pyramid`]) divides by a constant.
/// `PaperAverage`'s `/ 2.0` may then compile to `* 0.5`, which is the same
/// value: halving is exact, so both round the one exact quotient the same
/// way, subnormals included. `Orthonormal` keeps its true division by `√2`.
pub(crate) trait Convention {
    const DIV: f64;
}

/// [`Normalization::PaperAverage`] as a type.
pub(crate) struct Halve;

impl Convention for Halve {
    const DIV: f64 = 2.0;
}

/// [`Normalization::Orthonormal`] as a type.
pub(crate) struct RootTwo;

impl Convention for RootTwo {
    const DIV: f64 = std::f64::consts::SQRT_2;
}

/// One analysis step into disjoint buffers, pair by pair with
/// [`haar_step`]'s expressions: `approx[i] = (x₀ + x₁) / div` and, only when
/// a detail buffer is given, `detail[i] = (x₀ − x₁) / div`.
#[inline(always)]
pub(crate) fn step_into<C: Convention>(
    input: &[f64],
    approx: &mut [f64],
    detail: Option<&mut [f64]>,
) {
    debug_assert_eq!(input.len(), 2 * approx.len(), "step_into: approx length");
    let pairs = input.chunks_exact(2).zip(approx);
    match detail {
        Some(detail) => {
            debug_assert_eq!(input.len(), 2 * detail.len(), "step_into: detail length");
            for ((pair, a), d) in pairs.zip(detail) {
                *a = (pair[0] + pair[1]) / C::DIV;
                *d = (pair[0] - pair[1]) / C::DIV;
            }
        }
        None => {
            for (pair, a) in pairs {
                *a = (pair[0] + pair[1]) / C::DIV;
            }
        }
    }
}

/// One Haar analysis step: split `input` (even length) into approximation
/// and detail halves, appended to `approx`/`detail`.
///
/// This is the reference form of the step, with the divisor read at run
/// time; it grows the caller's vectors. The multi-level decomposition runs
/// [`crate::decomposition::haar_pyramid`] instead, which computes the same
/// values without allocating.
pub fn haar_step(input: &[f64], norm: Normalization, approx: &mut Vec<f64>, detail: &mut Vec<f64>) {
    assert!(
        input.len() >= 2 && input.len().is_multiple_of(2),
        "haar_step needs even length >= 2, got {}",
        input.len()
    );
    let div = norm.divisor();
    approx.reserve(input.len() / 2);
    detail.reserve(input.len() / 2);
    for pair in input.chunks_exact(2) {
        approx.push((pair[0] + pair[1]) / div);
        detail.push((pair[0] - pair[1]) / div);
    }
}

/// One Haar synthesis step: merge approximation and detail halves back into
/// the signal they came from.
pub fn haar_inverse_step(approx: &[f64], detail: &[f64], norm: Normalization) -> Vec<f64> {
    assert_eq!(approx.len(), detail.len(), "approx/detail length mismatch");
    let mut out = Vec::with_capacity(approx.len() * 2);
    match norm {
        Normalization::PaperAverage => {
            // x₁ = a + d, x₂ = a − d.
            for (a, d) in approx.iter().zip(detail) {
                out.push(a + d);
                out.push(a - d);
            }
        }
        Normalization::Orthonormal => {
            // x₁ = (a + d)/√2, x₂ = (a − d)/√2.
            let s = std::f64::consts::SQRT_2;
            for (a, d) in approx.iter().zip(detail) {
                out.push((a + d) / s);
                out.push((a - d) / s);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_average_step() {
        let mut a = Vec::new();
        let mut d = Vec::new();
        haar_step(
            &[1.0, 3.0, 10.0, 4.0],
            Normalization::PaperAverage,
            &mut a,
            &mut d,
        );
        assert_eq!(a, vec![2.0, 7.0]);
        assert_eq!(d, vec![-1.0, 3.0]);
    }

    #[test]
    fn orthonormal_step_preserves_energy() {
        let input = [1.0, 3.0, 10.0, 4.0, -2.0, 0.5, 7.0, 7.0];
        let mut a = Vec::new();
        let mut d = Vec::new();
        haar_step(&input, Normalization::Orthonormal, &mut a, &mut d);
        let e_in: f64 = input.iter().map(|x| x * x).sum();
        let e_out: f64 = a.iter().chain(&d).map(|x| x * x).sum();
        assert!((e_in - e_out).abs() < 1e-12);
    }

    #[test]
    fn steps_roundtrip() {
        let input = [0.5, -1.5, 3.25, 8.0, 2.0, 2.0, -4.0, 1.0];
        for norm in [Normalization::PaperAverage, Normalization::Orthonormal] {
            let mut a = Vec::new();
            let mut d = Vec::new();
            haar_step(&input, norm, &mut a, &mut d);
            let back = haar_inverse_step(&a, &d, norm);
            for (x, y) in input.iter().zip(&back) {
                assert!((x - y).abs() < 1e-12, "{norm:?}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn constant_signal_has_zero_detail() {
        let mut a = Vec::new();
        let mut d = Vec::new();
        haar_step(&[5.0; 8], Normalization::PaperAverage, &mut a, &mut d);
        assert_eq!(a, vec![5.0; 4]);
        assert_eq!(d, vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "even length")]
    fn odd_length_rejected() {
        let mut a = Vec::new();
        let mut d = Vec::new();
        haar_step(
            &[1.0, 2.0, 3.0],
            Normalization::PaperAverage,
            &mut a,
            &mut d,
        );
    }

    #[test]
    fn appends_to_existing_buffers() {
        let mut a = vec![9.0];
        let mut d = vec![-9.0];
        haar_step(&[2.0, 4.0], Normalization::PaperAverage, &mut a, &mut d);
        assert_eq!(a, vec![9.0, 3.0]);
        assert_eq!(d, vec![-9.0, -1.0]);
    }
}
