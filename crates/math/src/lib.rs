//! # mdrr-math
//!
//! Numerical substrate for the multi-dimensional randomized-response (MDRR)
//! library.  Everything in this crate is implemented from scratch on top of
//! `std`, because the MDRR protocols only need a narrow, well-understood
//! slice of numerical computing:
//!
//! * dense linear algebra over `f64` ([`Matrix`], Gauss–Jordan inversion,
//!   and the closed-form inverse of `aI + bJ` matrices that every optimal
//!   randomization matrix has) — used by the unbiased frequency estimator
//!   `π̂ = (Pᵀ)⁻¹ λ̂` of the paper's Equation (2);
//! * special functions (ln-gamma, regularized incomplete gamma, error
//!   function, normal and χ² quantiles) — used by the estimation-error
//!   bounds of Section 2.3 (Definitions 1–2, Expressions 5–6, Figure 1);
//! * contingency statistics (χ² independence statistic, Cramér's V,
//!   Pearson correlation, covariance) — the dependence measures fed to the
//!   attribute-clustering Algorithm 1;
//! * probability-vector utilities (simplex projection, distances) — the
//!   paper's Section 6.4 post-processing of improper estimates.
//!
//! The crate is deliberately free of `unsafe` and free of heavyweight
//! dependencies so it can be audited in isolation.
//!
//! ## Example
//!
//! Invert a uniform-perturbation randomization matrix and project an
//! improper estimate back onto the simplex:
//!
//! ```
//! use mdrr_math::{project_clamp_rescale, is_probability_vector, Matrix};
//! use mdrr_math::linsolve::invert;
//!
//! // P = 0.7·I + 0.1·J is the "keep with probability 0.7" matrix on 3
//! // categories; its inverse recovers true frequencies from reported ones.
//! let p = Matrix::from_fn(3, 3, |i, j| if i == j { 0.8 } else { 0.1 });
//! let p_inv = invert(&p)?;
//! let product = p.matmul(&p_inv)?;
//! assert!(product.approx_eq(&Matrix::identity(3), 1e-10));
//!
//! // Estimates leaving the simplex are clamped and rescaled (Section 6.4).
//! let proper = project_clamp_rescale(&[0.8, 0.3, -0.1])?;
//! assert!(is_probability_vector(&proper, 1e-12));
//! # Ok::<(), mdrr_math::MathError>(())
//! ```

// No explicit panic on the store and checkpoint path, which reaches this
// crate: a malformed snapshot is a typed error, never an abort.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod chi2;
pub mod contingency;
pub mod correlation;
pub mod error;
pub mod linsolve;
pub mod matrix;
pub mod simplex;
pub mod special;

pub use chi2::{b_factor, chi2_cdf, chi2_quantile, chi2_sf};
pub use contingency::ContingencyTable;
pub use correlation::{covariance, mean, pearson_correlation, variance};
pub use error::MathError;
pub use matrix::Matrix;
pub use simplex::{
    is_probability_vector, l1_distance, l2_distance, project_clamp_rescale,
    total_variation_distance,
};
pub use special::{erf, erfc, ln_gamma, normal_cdf, normal_quantile, regularized_gamma_p};

/// Default absolute tolerance used across the crate when comparing floats
/// that should be exactly equal in exact arithmetic (row sums of stochastic
/// matrices, probability totals, …).
pub const DEFAULT_TOLERANCE: f64 = 1e-9;
