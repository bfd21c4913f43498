//! Multi-resolution Haar decomposition and the subspace addressing scheme.
//!
//! A `d`-dimensional vector (`d = 2^L`) decomposes into:
//!
//! ```text
//! level:   A      D_0    D_1    D_2   …   D_{L−1}
//! dim:     1      1      2      4    …    d/2
//! ```
//!
//! matching the paper's Figure 1 and Table 1: "the dimensionality of the
//! data at each level `l` is `2^l`". The approximation `A` and the first
//! detail `D_0` both live in 1-d spaces but are *different* projections of
//! the data. "Hyper-M used four layers of network overlay" means publishing
//! the subspaces `{A, D_0, D_1, D_2}`.
//!
//! Coefficients are laid out flat in that order ("standard layout"): `A`
//! at index 0 and `D_l` at `2^l .. 2^{l+1}` ([`Subspace::range`]), so the
//! published prefix `{A, D_0, …, D_{m−2}}` is the first `2^{m−1}` entries.
//!
//! [`haar_pyramid`] is the one multi-level kernel. It reads the input once,
//! keeps the running approximation in a caller's scratch buffer and
//! computes only the detail spaces the caller asks for: a peer that
//! publishes four levels of a 512-d vector pays for 511 averages and 7
//! differences, not 511 of each, and allocates nothing per item.

use crate::haar::{haar_inverse_step, step_into, Convention, Halve, Normalization, RootTwo};
use std::ops::Range;

/// Errors produced by the decomposition routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaveletError {
    /// Input length is not a power of two (or is zero).
    NotPowerOfTwo(usize),
    /// A subspace index beyond the decomposition depth was requested.
    NoSuchSubspace {
        /// The requested subspace.
        requested: Subspace,
        /// Dimensionality of the decomposed vector.
        dim: usize,
    },
}

impl std::fmt::Display for WaveletError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaveletError::NotPowerOfTwo(n) => {
                write!(f, "vector length {n} is not a positive power of two")
            }
            WaveletError::NoSuchSubspace { requested, dim } => {
                write!(
                    f,
                    "subspace {requested:?} does not exist for dimension {dim}"
                )
            }
        }
    }
}

impl std::error::Error for WaveletError {}

/// Address of one wavelet subspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Subspace {
    /// The final approximation `A` (dimension 1).
    Approx,
    /// The detail space `D_l` (dimension `2^l`).
    Detail(u32),
}

impl Subspace {
    /// Dimensionality of this subspace.
    pub fn dim(self) -> usize {
        match self {
            Subspace::Approx => 1,
            Subspace::Detail(l) => 1usize << l,
        }
    }

    /// The ordered list of subspaces Hyper-M publishes when configured with
    /// `levels` overlay layers: `[A]`, `[A, D_0]`, `[A, D_0, D_1]`, …
    pub fn first(levels: usize) -> Vec<Subspace> {
        assert!(levels >= 1, "at least one level required");
        let mut out = Vec::with_capacity(levels);
        out.push(Subspace::Approx);
        for l in 0..levels.saturating_sub(1) {
            out.push(Subspace::Detail(l as u32));
        }
        out
    }

    /// All subspaces of a full decomposition of a `dim`-dimensional vector,
    /// coarse to fine.
    pub fn all(dim: usize) -> Vec<Subspace> {
        let depth = dim.trailing_zeros();
        Self::first(depth as usize + 1)
    }

    /// Where this subspace's coefficients sit in the standard layout:
    /// `A` at `0..1`, `D_l` at `2^l .. 2^{l+1}`.
    pub fn range(self) -> Range<usize> {
        match self {
            Subspace::Approx => 0..1,
            Subspace::Detail(l) => (1 << l)..(2 << l),
        }
    }
}

/// A full multi-resolution Haar decomposition of one vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    norm: Normalization,
    /// Every coefficient in the standard layout ([`Subspace::range`]); as
    /// long as the original vector.
    coeffs: Vec<f64>,
}

impl Decomposition {
    /// Dimensionality of the original vector.
    pub fn dim(&self) -> usize {
        self.coeffs.len()
    }

    /// Normalisation convention used.
    pub fn normalization(&self) -> Normalization {
        self.norm
    }

    /// Number of detail levels (`log₂ dim`).
    pub fn depth(&self) -> usize {
        self.dim().trailing_zeros() as usize
    }

    /// Coefficients of one subspace.
    pub fn subspace(&self, s: Subspace) -> Result<&[f64], WaveletError> {
        match s {
            Subspace::Detail(l) if l as usize >= self.depth() => {
                Err(WaveletError::NoSuchSubspace {
                    requested: s,
                    dim: self.dim(),
                })
            }
            _ => Ok(&self.coeffs[s.range()]),
        }
    }

    /// Convenience: the approximation coefficient (scalar for full depth).
    pub fn approx(&self) -> &[f64] {
        &self.coeffs[..1]
    }

    /// `D_0, D_1, …` in order, finest last.
    fn details(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.depth() as u32).map(|l| &self.coeffs[Subspace::Detail(l).range()])
    }
}

/// Fully decompose `v` (power-of-two length) down to a length-1
/// approximation: [`haar_pyramid`] keeping every subspace.
pub fn decompose(v: &[f64], norm: Normalization) -> Result<Decomposition, WaveletError> {
    let dim = power_of_two(v)?;
    // One allocation: the coefficients, then the pyramid's working half,
    // which `truncate` drops.
    let mut coeffs = Vec::with_capacity(2 * dim);
    let width = pyramid(v, norm, dim - 1, &mut coeffs);
    coeffs.truncate(width);
    Ok(Decomposition { norm, coeffs })
}

/// The Haar pyramid of `v` (power-of-two length), computing only what the
/// subspaces in `keep` need.
///
/// Returns the standard-layout prefix that covers `keep`: each kept
/// subspace's coefficients sit at [`Subspace::range`], `A` is always
/// filled, and entries of subspaces not kept are unspecified. Every
/// coefficient is bit-identical to a chain of [`crate::haar_step`] calls
/// (and hence to [`decompose`]): each step evaluates the same pair
/// expressions in the same order, and the detail differences of a level
/// nobody keeps are skipped.
///
/// `scratch` holds the result and the running approximation. It is resized
/// to `width + v.len()` (`width` the returned length) and can be reused
/// across calls, so a caller decomposing many vectors allocates once.
pub fn haar_pyramid<'a>(
    v: &[f64],
    norm: Normalization,
    keep: &[Subspace],
    scratch: &'a mut Vec<f64>,
) -> Result<&'a [f64], WaveletError> {
    let dim = power_of_two(v)?;
    // `D_l` has `2^l` coefficients; bit `2^l` of `details` marks it kept.
    let mut details = 0usize;
    for &s in keep {
        if let Subspace::Detail(l) = s {
            if l >= dim.trailing_zeros() {
                return Err(WaveletError::NoSuchSubspace { requested: s, dim });
            }
            details |= 1 << l;
        }
    }
    let width = pyramid(v, norm, details, scratch);
    Ok(&scratch[..width])
}

fn power_of_two(v: &[f64]) -> Result<usize, WaveletError> {
    match v.len() {
        dim if dim.is_power_of_two() => Ok(dim),
        dim => Err(WaveletError::NotPowerOfTwo(dim)),
    }
}

/// [`haar_pyramid`] past its checks: `details` has bit `2^l` set for each
/// `D_l` to compute. Returns the width of the standard-layout prefix
/// written to the front of `scratch`.
fn pyramid(v: &[f64], norm: Normalization, details: usize, scratch: &mut Vec<f64>) -> usize {
    let width = (details + 1).next_power_of_two();
    scratch.resize(width + v.len(), 0.0);
    let (out, work) = scratch.split_at_mut(width);
    match norm {
        Normalization::PaperAverage => steps::<Halve>(v, details, out, work),
        Normalization::Orthonormal => steps::<RootTwo>(v, details, out, work),
    }
    width
}

/// The pyramid's steps. The first reads `v`; the rest alternate between
/// the two halves of `work`, so every step reads one buffer and writes
/// another. The step that leaves `h` averages produces `D_{log₂ h}`.
fn steps<C: Convention>(v: &[f64], details: usize, out: &mut [f64], work: &mut [f64]) {
    fn kept(out: &mut [f64], details: usize, h: usize) -> Option<&mut [f64]> {
        (details & h != 0).then(|| &mut out[h..2 * h])
    }
    let mut h = v.len() / 2;
    if h == 0 {
        out[0] = v[0];
        return;
    }
    let (mut src, mut dst) = work.split_at_mut(h);
    step_into::<C>(v, src, kept(out, details, h));
    while h > 1 {
        h /= 2;
        step_into::<C>(&src[..2 * h], &mut dst[..h], kept(out, details, h));
        std::mem::swap(&mut src, &mut dst);
    }
    out[0] = src[0];
}

/// Exact inverse of [`decompose`].
pub fn reconstruct(dec: &Decomposition) -> Vec<f64> {
    let mut current = dec.approx().to_vec();
    for detail in dec.details() {
        current = haar_inverse_step(&current, detail, dec.norm);
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close_all(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn subspace_dims() {
        assert_eq!(Subspace::Approx.dim(), 1);
        assert_eq!(Subspace::Detail(0).dim(), 1);
        assert_eq!(Subspace::Detail(3).dim(), 8);
    }

    #[test]
    fn first_subspaces_match_paper_layers() {
        assert_eq!(Subspace::first(1), vec![Subspace::Approx]);
        assert_eq!(
            Subspace::first(4),
            vec![
                Subspace::Approx,
                Subspace::Detail(0),
                Subspace::Detail(1),
                Subspace::Detail(2)
            ]
        );
    }

    #[test]
    fn all_subspaces_cover_dimension() {
        let subs = Subspace::all(16);
        let total: usize = subs.iter().map(|s| s.dim()).sum();
        assert_eq!(total, 16);
        assert_eq!(subs.len(), 5); // A, D0..D3
    }

    #[test]
    fn known_decomposition_paper_convention() {
        // v = [9, 7, 3, 5] — classic Haar example.
        let dec = decompose(&[9.0, 7.0, 3.0, 5.0], Normalization::PaperAverage).unwrap();
        assert_eq!(dec.approx(), &[6.0]);
        assert_eq!(dec.subspace(Subspace::Detail(0)).unwrap(), &[2.0]); // (8−4)/2
        assert_eq!(dec.subspace(Subspace::Detail(1)).unwrap(), &[1.0, -1.0]);
    }

    #[test]
    fn roundtrip_both_conventions() {
        let v: Vec<f64> = (0..64).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        for norm in [Normalization::PaperAverage, Normalization::Orthonormal] {
            let dec = decompose(&v, norm).unwrap();
            close_all(&reconstruct(&dec), &v, 1e-10);
        }
    }

    #[test]
    fn orthonormal_preserves_energy_across_all_levels() {
        let v: Vec<f64> = (0..32).map(|i| (i as f64 * 0.7).sin()).collect();
        let dec = decompose(&v, Normalization::Orthonormal).unwrap();
        let e_in: f64 = v.iter().map(|x| x * x).sum();
        let mut e_out: f64 = dec.approx().iter().map(|x| x * x).sum();
        for s in Subspace::all(32).into_iter().skip(1) {
            e_out += dec.subspace(s).unwrap().iter().map(|x| x * x).sum::<f64>();
        }
        assert!((e_in - e_out).abs() < 1e-10);
    }

    #[test]
    fn paper_convention_weighted_parseval() {
        // With a = (x₁+x₂)/2 each level scales energy by ½ per coefficient
        // pair: ‖v‖² = Σ_s 2^{steps(s)} ‖coef_s‖² where steps(s) is the
        // number of transform steps applied to reach subspace s.
        let v: Vec<f64> = (0..16).map(|i| (i as f64).sqrt() - 1.5).collect();
        let d = v.len();
        let dec = decompose(&v, Normalization::PaperAverage).unwrap();
        let e_in: f64 = v.iter().map(|x| x * x).sum();
        let mut e_out = 0.0;
        for s in Subspace::all(d) {
            let coefs = dec.subspace(s).unwrap();
            let steps = (d / s.dim()).trailing_zeros();
            e_out += 2f64.powi(steps as i32) * coefs.iter().map(|x| x * x).sum::<f64>();
        }
        assert!((e_in - e_out).abs() < 1e-10, "{e_in} vs {e_out}");
    }

    #[test]
    fn approx_of_constant_vector_is_the_constant() {
        let dec = decompose(&[3.5; 128], Normalization::PaperAverage).unwrap();
        assert!((dec.approx()[0] - 3.5).abs() < 1e-12);
        for s in Subspace::all(128).into_iter().skip(1) {
            for &c in dec.subspace(s).unwrap() {
                assert_eq!(c, 0.0);
            }
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert_eq!(
            decompose(&[1.0, 2.0, 3.0], Normalization::PaperAverage).unwrap_err(),
            WaveletError::NotPowerOfTwo(3)
        );
        assert_eq!(
            decompose(&[], Normalization::PaperAverage).unwrap_err(),
            WaveletError::NotPowerOfTwo(0)
        );
    }

    #[test]
    fn missing_subspace_is_an_error() {
        let dec = decompose(&[1.0, 2.0], Normalization::PaperAverage).unwrap();
        assert!(dec.subspace(Subspace::Detail(5)).is_err());
    }

    #[test]
    fn decomposition_is_linear() {
        let a: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..16).map(|i| ((i * i) % 7) as f64).collect();
        let combo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x - 3.0 * y).collect();
        let da = decompose(&a, Normalization::PaperAverage).unwrap();
        let db = decompose(&b, Normalization::PaperAverage).unwrap();
        let dc = decompose(&combo, Normalization::PaperAverage).unwrap();
        for s in Subspace::all(16) {
            let ca = da.subspace(s).unwrap();
            let cb = db.subspace(s).unwrap();
            let cc = dc.subspace(s).unwrap();
            for i in 0..ca.len() {
                assert!((cc[i] - (2.0 * ca[i] - 3.0 * cb[i])).abs() < 1e-10);
            }
        }
    }
}
