//! `haar_pyramid` against a chain of `haar_step` calls, bit for bit: every
//! power-of-two dimension from 2 to 1024, both conventions, every subset
//! of subspaces, on inputs that are subnormal, near `f64::MAX` (where a
//! pair sum overflows to ±∞ and later levels meet ∞ − ∞) and mixed in sign
//! and magnitude. `decompose` is checked the same way, and
//! `reconstruct(decompose(v))` must still round-trip.

use hyperm_wavelet::{
    decompose, haar_pyramid, haar_step, reconstruct, Normalization, Subspace, WaveletError,
};

const NORMS: [Normalization; 2] = [Normalization::PaperAverage, Normalization::Orthonormal];

/// splitmix64: a tiny deterministic source for the inputs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn sign(&mut self) -> f64 {
        if self.next() & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }
}

/// Three inputs of length `dim`: subnormal, near `f64::MAX`, mixed.
fn inputs(dim: usize, seed: u64) -> [Vec<f64>; 3] {
    let mut mix = Mix(seed);
    let subnormal = (0..dim)
        .map(|i| {
            // Raw subnormals, and small normals that halving makes subnormal.
            if i % 3 == 0 {
                mix.sign() * f64::MIN_POSITIVE * (0.5 + 4.0 * mix.unit())
            } else {
                mix.sign() * f64::from_bits(mix.next() & ((1 << 52) - 1))
            }
        })
        .collect();
    let huge = (0..dim)
        .map(|_| mix.sign() * f64::MAX * (0.5 + 0.5 * mix.unit()))
        .collect();
    let mixed = (0..dim)
        .map(|_| {
            let exponent = (mix.next() % 80) as i32 - 40;
            mix.sign() * mix.unit() * 10f64.powi(exponent)
        })
        .collect();
    [subnormal, huge, mixed]
}

/// The reference: `(A, D_0, D_1, …)` from a chain of `haar_step` calls,
/// finest step first.
fn chain(v: &[f64], norm: Normalization) -> (f64, Vec<Vec<f64>>) {
    let depth = v.len().trailing_zeros() as usize;
    let mut details = vec![Vec::new(); depth];
    let mut current = v.to_vec();
    for level in (0..depth).rev() {
        let mut next = Vec::new();
        haar_step(&current, norm, &mut next, &mut details[level]);
        current = next;
    }
    (current[0], details)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn pyramid_matches_a_haar_step_chain_bit_for_bit() {
    let mut scratch = Vec::new();
    let mut overflowed = false;
    for log in 1..=10u32 {
        let dim = 1usize << log;
        let all = Subspace::all(dim);
        for (n, norm) in NORMS.into_iter().enumerate() {
            for v in inputs(dim, u64::from(log) * 2 + n as u64) {
                let (approx, details) = chain(&v, norm);
                overflowed |= !approx.is_finite();
                let want = |s: Subspace| match s {
                    Subspace::Approx => vec![approx.to_bits()],
                    Subspace::Detail(l) => bits(&details[l as usize]),
                };

                let dec = decompose(&v, norm).unwrap();
                for &s in &all {
                    assert_eq!(bits(dec.subspace(s).unwrap()), want(s), "decompose {s:?}");
                }

                // One scratch buffer across every call: stale entries of
                // subspaces a call does not keep must not matter.
                for subset in 0u32..1 << all.len() {
                    let keep: Vec<Subspace> = (0..all.len())
                        .filter(|i| subset & (1 << i) != 0)
                        .map(|i| all[i])
                        .collect();
                    let out = haar_pyramid(&v, norm, &keep, &mut scratch).unwrap();
                    let width = keep.iter().map(|s| s.range().end).max().unwrap_or(1);
                    assert_eq!(out.len(), width, "dim {dim} keep {keep:?}");
                    assert_eq!(out[0].to_bits(), approx.to_bits(), "A, keep {keep:?}");
                    for &s in &keep {
                        assert_eq!(
                            bits(&out[s.range()]),
                            want(s),
                            "dim {dim} {norm:?} {s:?} of {keep:?}"
                        );
                    }
                }
            }
        }
    }
    assert!(
        overflowed,
        "no input overflowed: the near-MAX case is vacuous"
    );
}

#[test]
fn one_dimensional_vector_is_its_own_approximation() {
    let mut scratch = Vec::new();
    for norm in NORMS {
        let out = haar_pyramid(&[-2.5], norm, &[Subspace::Approx], &mut scratch).unwrap();
        assert_eq!(out, &[-2.5]);
        assert_eq!(decompose(&[-2.5], norm).unwrap().approx(), &[-2.5]);
    }
}

#[test]
fn pyramid_rejects_what_decompose_rejects() {
    let mut scratch = Vec::new();
    let norm = Normalization::PaperAverage;
    for v in [vec![], vec![1.0, 2.0, 3.0]] {
        assert_eq!(
            haar_pyramid(&v, norm, &[Subspace::Approx], &mut scratch).unwrap_err(),
            WaveletError::NotPowerOfTwo(v.len())
        );
    }
    assert_eq!(
        haar_pyramid(&[0.0; 8], norm, &[Subspace::Detail(3)], &mut scratch).unwrap_err(),
        WaveletError::NoSuchSubspace {
            requested: Subspace::Detail(3),
            dim: 8
        }
    );
}

#[test]
fn reconstruct_still_round_trips() {
    for log in 0..=10u32 {
        let dim = 1usize << log;
        let mut mix = Mix(u64::from(log));
        let v: Vec<f64> = (0..dim).map(|_| mix.sign() * 100.0 * mix.unit()).collect();
        for norm in NORMS {
            let back = reconstruct(&decompose(&v, norm).unwrap());
            for (x, y) in v.iter().zip(&back) {
                assert!((x - y).abs() < 1e-9, "dim {dim} {norm:?}: {x} vs {y}");
            }
        }
    }
}
