//! # mdrr-protocols
//!
//! The multi-dimensional randomized-response protocols of the paper,
//! unified behind one object-safe surface:
//!
//! * [`protocol`] — the [`Protocol`] and [`Release`] traits every mechanism
//!   implements (channel topology, client-side encoding, collector-side
//!   estimation, privacy accounting, uniform queries), plus the
//!   [`RandomizationLevel`] that parameterises all of them;
//! * [`spec`] — the serde-able [`ProtocolSpec`] builder that constructs any
//!   protocol from configuration data;
//! * [`clustering`] — Algorithm 1: grouping attributes by dependence under
//!   the `Tv`/`Td` thresholds;
//! * [`dependence`] — the three privacy-preserving procedures of
//!   Sections 4.1–4.3 for estimating pairwise attribute dependences;
//! * [`secure_sum`] — the additive-sharing secure-sum substrate those
//!   procedures rely on;
//! * [`clusters`] — RR-Clusters: RR-Joint within each cluster with
//!   equivalent-risk matrices (Section 6.3.2).  Protocol 1
//!   (RR-Independent, one cluster per attribute) and Protocol 2 (RR-Joint,
//!   one cluster holding every attribute) are its two ends, so all three
//!   are constructors of the one [`RRClusters`] type, and every release of
//!   theirs is one per-cluster estimate behind `Box<dyn Release>`;
//! * [`adjustment`] — Algorithm 2 (RR-Adjustment): iterative re-weighting
//!   of the randomized data set, stackable on any base protocol via
//!   [`RRAdjustment`];
//! * [`synthetic`] — re-creation of synthetic microdata from an estimated
//!   joint distribution;
//! * [`estimator`] — the common [`FrequencyEstimator`] query interface
//!   every release implements;
//! * [`error`] — the single [`MdrrError`] of the protocol and streaming
//!   layers.
//!
//! ## Example
//!
//! Select a protocol from configuration data, run it as a trait object and
//! query the release through the uniform [`Release`] surface:
//!
//! ```
//! use mdrr_data::AdultSynthesizer;
//! use mdrr_protocols::{FrequencyEstimator, ProtocolSpec, RandomizationLevel};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(11);
//! let dataset = AdultSynthesizer::new(2_000)?.generate(&mut rng);
//!
//! // Any protocol builds from a serde-able spec; swap "Independent" for
//! // Joint, Clusters or an Adjusted stack without touching the code below.
//! let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
//! let protocol = spec.build(dataset.schema())?; // Box<dyn Protocol>
//! let release = protocol.run(&dataset, &mut rng)?; // Box<dyn Release>
//!
//! // Estimated marginals are proper distributions…
//! let marginal = release.marginal(0)?;
//! assert!((marginal.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! // …joint frequencies answer through the same trait for every protocol…
//! let joint = release.frequency(&[(0, 0), (1, 0)])?;
//! assert!((0.0..=1.0).contains(&joint));
//! // …and the privacy ledger rides along.
//! assert_eq!(release.accountant().len(), dataset.schema().len());
//! # Ok::<(), mdrr_protocols::MdrrError>(())
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

pub mod adjustment;
pub mod clustering;
pub mod clusters;
pub mod dependence;
pub mod error;
pub mod estimator;
#[cfg(test)]
mod independent;
#[cfg(test)]
mod joint;
pub mod protocol;
pub mod secure_sum;
pub mod spec;
pub mod synthetic;

pub use adjustment::{
    rr_adjustment, AdjustedRelease, AdjustmentConfig, AdjustmentTarget, RRAdjustment,
};
pub use clustering::{cluster_attributes, Clustering, ClusteringConfig, DependenceMatrix};
pub use clusters::{RRClusters, DEFAULT_MAX_JOINT_DOMAIN};
pub use dependence::{
    dependence_matrix_plain, dependence_via_exact_bivariate, dependence_via_randomized_attributes,
    dependence_via_rr_pairs, DependenceEstimate,
};
pub use error::{MdrrError, ProtocolError};
pub use estimator::{validate_assignment, Assignment, EmpiricalEstimator, FrequencyEstimator};
pub use protocol::{Protocol, RandomizationLevel, Release};
pub use secure_sum::{secure_contingency_table, SecureSumMode, SecureSumSession};
pub use spec::ProtocolSpec;
pub use synthetic::{synthesize_deterministic, synthesize_sampling};
