//! Hypersphere geometry for Hyper-M (ICDE 2007).
//!
//! Hyper-M represents both data-cluster summaries and similarity queries as
//! hyperspheres in (wavelet-transformed) vector spaces. Its peer-relevance
//! score (Eq. 1 of the paper) and its k-nn radius estimation (Eqs. 5–8) both
//! reduce to one geometric primitive: *the fraction of a hypersphere's volume
//! covered by another hypersphere*.
//!
//! This crate provides that primitive and the numerical machinery around it:
//!
//! * [`special`] — log-gamma, regularized incomplete beta, factorial tables;
//! * [`volume`] — exact d-ball volumes (computed in log space so d can be
//!   large without overflow);
//! * [`cap`] — hyperspherical-cap volume fractions. Three independent
//!   evaluations are provided and cross-checked by tests: the paper's even-`d`
//!   series (Eq. 5), a general recurrence over `∫ sinᵈθ dθ`, and a
//!   regularized-incomplete-beta form;
//! * [`intersect`] — the two-sphere intersection fraction of Eqs. 6–7 with
//!   all containment/degenerate cases handled;
//! * [`solve`] — safeguarded Newton/bisection inversion of monotone curves,
//!   used to solve Eq. 8 for the k-nn query radius ε;
//! * [`vecmath`] — small dense-vector helpers (distances, norms) shared by
//!   the sibling crates.
//!
//! The paper's printed Eq. 7 contains typographical errors (it is the
//! expansion of Eq. 6 after the cosine rule); we implement the mathematically
//! consistent form and validate it against Monte-Carlo integration in the
//! test-suite.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Seeded replay: no wall-clock read and no hash-ordered container
// (clippy.toml lists them) in a result-affecting crate.
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::iter_over_hash_type
)]

pub mod cap;
pub mod intersect;
pub mod solve;
pub mod special;
pub mod vecmath;
pub mod volume;

pub use cap::{cap_fraction, cap_fraction_beta, cap_fraction_even_series, cap_fraction_recurrence};
pub use intersect::{
    intersection_fraction, intersection_volume, sphere_overlap, IntersectionFraction, Overlap,
};
pub use solve::{invert_monotone, solve_epsilon_for_k, ClusterView, SolveError};
pub use vecmath::{dist, sq_dist};
pub use volume::{ball_volume, ln_ball_volume, unit_ball_volume};
