//! Property-based tests for the wavelet invariants Hyper-M relies on.

use hyperm_wavelet::{decompose, reconstruct, scaled_radius, Normalization, Subspace};
use proptest::prelude::*;

/// Strategy: a vector whose length is a power of two in [4, 128].
fn pow2_vec() -> impl Strategy<Value = Vec<f64>> {
    (2u32..=7).prop_flat_map(|log| prop::collection::vec(-100.0..100.0f64, 1usize << log))
}

proptest! {
    /// decompose ∘ reconstruct is the identity (both conventions).
    #[test]
    fn haar_roundtrip(v in pow2_vec(), ortho in any::<bool>()) {
        let norm = if ortho { Normalization::Orthonormal } else { Normalization::PaperAverage };
        let dec = decompose(&v, norm).unwrap();
        let back = reconstruct(&dec);
        for (a, b) in v.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    /// Orthonormal Haar preserves squared norm exactly.
    #[test]
    fn orthonormal_parseval(v in pow2_vec()) {
        let dec = decompose(&v, Normalization::Orthonormal).unwrap();
        let e_in: f64 = v.iter().map(|x| x * x).sum();
        let mut e_out: f64 = dec.approx().iter().map(|x| x * x).sum();
        for s in Subspace::all(v.len()).into_iter().skip(1) {
            e_out += dec.subspace(s).unwrap().iter().map(|x| x * x).sum::<f64>();
        }
        prop_assert!((e_in - e_out).abs() < 1e-7 * (1.0 + e_in), "{e_in} vs {e_out}");
    }

    /// Theorem 3.1 as a property: for any two points, their subspace
    /// distance is at most their original distance divided by the
    /// contraction factor.
    #[test]
    fn theorem_3_1_distance_contraction(
        v in pow2_vec(),
        jitter in prop::collection::vec(-1.0..1.0f64, 128),
    ) {
        let dim = v.len();
        let w: Vec<f64> = v.iter().zip(&jitter).map(|(x, j)| x + j).collect();
        let r: f64 = v.iter().zip(&w).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        let dv = decompose(&v, Normalization::PaperAverage).unwrap();
        let dw = decompose(&w, Normalization::PaperAverage).unwrap();
        for s in Subspace::all(dim) {
            let a = dv.subspace(s).unwrap();
            let b = dw.subspace(s).unwrap();
            let d: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
            let bound = scaled_radius(r, dim, s, Normalization::PaperAverage);
            prop_assert!(d <= bound + 1e-9, "subspace {s:?}: {d} > {bound}");
        }
    }

    /// Subspace dimensions tile the original dimension.
    #[test]
    fn subspaces_tile_dimension(log in 0u32..10) {
        let dim = 1usize << log;
        let total: usize = Subspace::all(dim).iter().map(|s| s.dim()).sum();
        prop_assert_eq!(total, dim);
    }
}
