//! # mdrr-core
//!
//! The core randomized-response (RR) mechanism of the MDRR library:
//!
//! * [`matrix`] — validated randomization matrices (Expression (1) of the
//!   paper), including the optimal ε-DP matrices of Section 6.3, with O(1)
//!   randomization and O(r) estimation for the structured shapes;
//! * [`randomize`] — attribute- and dataset-level randomization helpers
//!   respecting the local-anonymization trust model;
//! * [`estimate`] — the unbiased frequency estimator of Equation (2), the
//!   Section 6.4 projection onto the probability simplex, and the iterative
//!   Bayesian update alternative;
//! * [`privacy`] — ε-differential-privacy accounting per Expression (4)
//!   with sequential/parallel composition;
//! * [`bounds`] — the analytic error bounds of Sections 2.3 and 3.3 that
//!   quantify the curse of dimensionality.
//!
//! ## Example
//!
//! Randomize reports with an ε-DP matrix and recover the true distribution:
//!
//! ```
//! use mdrr_core::{estimate_from_reports, RRMatrix};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let matrix = RRMatrix::from_epsilon(2.0, 3)?;
//! assert!((matrix.epsilon() - 2.0).abs() < 1e-9);
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let reports: Vec<u32> = (0..30_000)
//!     .map(|i| matrix.randomize((i % 3) as u32, &mut rng))
//!     .collect::<Result<_, _>>()?;
//!
//! // The true values cycle 0,1,2, so each frequency is 1/3.
//! let estimate = estimate_from_reports(&matrix, &reports)?;
//! for frequency in &estimate {
//!     assert!((frequency - 1.0 / 3.0).abs() < 0.02);
//! }
//! # Ok::<(), mdrr_core::CoreError>(())
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

pub mod bounds;
pub mod error;
pub mod estimate;
pub mod matrix;
pub mod privacy;
pub mod randomize;

pub use bounds::{
    absolute_error_bound, best_case_relative_error, relative_error_bound,
    rr_independent_relative_error, rr_joint_relative_error, sqrt_b,
};
pub use error::CoreError;
pub use estimate::{
    distribution_from_counts, empirical_distribution, estimate_from_reports, estimate_proper,
    estimate_proper_from_counts, estimate_raw, iterative_bayesian_update,
};
pub use matrix::{PreparedRandomizer, RRMatrix};
pub use privacy::{epsilon_for_keep_probability, split_budget, Composition, PrivacyAccountant};
pub use randomize::{randomize_attribute, randomize_dataset_independent, randomize_joint};
