//! Discrete wavelet transforms for Hyper-M (ICDE 2007).
//!
//! Hyper-M decomposes every high-dimensional feature vector with a
//! multi-resolution DWT (step *i1* of the paper's Figure 2) and then treats
//! each wavelet subspace — the final approximation `A` plus the detail
//! vectors `D_0, D_1, …` — as an independent, lower-dimensional vector space
//! that gets its own clustering and its own CAN overlay.
//!
//! * [`haar`] — the Haar transform in the paper's *average/difference*
//!   convention (`a = (x₁+x₂)/2`, the convention Theorem 3.1 is stated in)
//!   and in the orthonormal convention (`÷√2`), selectable via
//!   [`Normalization`];
//! * [`decomposition`] — the multi-resolution pyramid ([`haar_pyramid`],
//!   which computes only the subspaces asked for, into a reusable buffer),
//!   full decomposition, the [`Subspace`] addressing scheme (`A`, `D_l`)
//!   and its exact inverse [`reconstruct`];
//! * [`theory`] — Theorem 3.1: the radius-contraction factor that maps a
//!   sphere of radius `r` in the original space into each subspace.
//!
//! Haar is the only transform. The paper proves Theorem 3.1 for Haar and
//! notes only that "similar, though more laborious proofs can be done for
//! other wavelets"; every figure and query path here uses it.
//!
//! Dimensions must be powers of two (the paper's datasets are 512-d and
//! 64-d); [`decompose`] rejects any other length with
//! [`WaveletError::NotPowerOfTwo`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Seeded replay: no wall-clock read and no hash-ordered container
// (clippy.toml lists them) in a result-affecting crate.
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::iter_over_hash_type
)]

pub mod decomposition;
pub mod haar;
pub mod theory;

pub use decomposition::{
    decompose, haar_pyramid, reconstruct, Decomposition, Subspace, WaveletError,
};
pub use haar::{haar_inverse_step, haar_step, Normalization};
pub use theory::{lower_bound_limit, radius_contraction, scaled_radius, sq_radius_contraction};
