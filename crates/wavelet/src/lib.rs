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
//!   full decomposition, the [`Subspace`] addressing scheme (`A`, `D_l`),
//!   reconstruction and partial reconstruction;
//! * [`daubechies`] — a Daubechies-4 transform with periodic boundary
//!   handling. The paper proves its results for Haar and notes "similar,
//!   though more laborious proofs can be done for other wavelets"; D4 is
//!   provided as that extension point and for ablation benches;
//! * [`cdf53`] — the biorthogonal CDF 5/3 (LeGall) lifting filter used by
//!   JPEG2000's lossless path, which the paper cites as the codec already
//!   running on the devices;
//! * [`image2d`] — separable 2-D Haar (LL/LH/HL/HH quadrants + pyramids)
//!   for deriving wavelet-domain features straight from raster images;
//! * [`theory`] — Theorem 3.1: the radius-contraction factor that maps a
//!   sphere of radius `r` in the original space into each subspace.
//!
//! Dimensions must be powers of two (the paper's datasets are 512-d and
//! 64-d); [`pad_to_power_of_two`] is provided for data that is not.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Seeded replay: no wall-clock read and no hash-ordered container
// (clippy.toml lists them) in a result-affecting crate.
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::iter_over_hash_type
)]

pub mod cdf53;
pub mod daubechies;
pub mod decomposition;
pub mod haar;
pub mod image2d;
pub mod theory;

pub use cdf53::{cdf53_decompose, cdf53_frame_bounds, cdf53_reconstruct};
pub use daubechies::{d4_decompose, d4_reconstruct};
pub use decomposition::{
    decompose, haar_pyramid, pad_to_power_of_two, reconstruct, reconstruct_partial, Decomposition,
    Subspace, WaveletError,
};
pub use haar::{haar_inverse_step, haar_step, Normalization};
pub use image2d::{dwt2_pyramid, dwt2_pyramid_inverse, dwt2_step, Image};
pub use theory::{lower_bound_limit, radius_contraction, scaled_radius, sq_radius_contraction};
