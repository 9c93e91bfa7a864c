//! # mdrr — Multi-Dimensional Randomized Response
//!
//! A from-scratch Rust implementation of *Multi-Dimensional Randomized
//! Response* (Domingo-Ferrer & Soria-Comas): local anonymization of
//! multi-attribute categorical microdata with randomized response (RR),
//! including every protocol and substrate the paper describes:
//!
//! * the RR mechanism itself — randomization matrices, unbiased frequency
//!   estimation (Equation (2)), simplex projection, iterative Bayesian
//!   update, ε-differential-privacy accounting and the analytic error
//!   bounds of Sections 2.3/3.3 ([`core`]);
//! * the multi-dimensional protocols — RR-Independent, RR-Joint,
//!   RR-Clusters with Algorithm 1 attribute clustering, RR-Adjustment
//!   (Algorithm 2), the three privacy-preserving dependence-estimation
//!   procedures of Section 4 and the secure-sum substrate they rely on
//!   ([`protocols`]);
//! * the categorical dataset model, the mixed-radix joint-domain codec, CSV
//!   I/O and the synthetic Adult generator used by the experiments
//!   ([`data`]);
//! * the numerical substrate — dense linear algebra, χ² special functions,
//!   contingency statistics ([`math`]);
//! * the sharded streaming subsystem — client-side report encoders,
//!   mergeable count-vector accumulators and mid-stream snapshots that are
//!   numerically identical to the batch estimates ([`stream`]);
//! * the durable snapshot store — a versioned, checksummed on-disk format
//!   for accumulator state with crash-safe atomic writes, checkpoint/
//!   restore of sharded collectors and exact cross-process shard merging
//!   ([`store`]);
//! * the collector network daemon — a thread-per-connection TCP server
//!   speaking the length-framed, CRC-checked wire protocol of
//!   `docs/WIRE.md`, with backpressure windows, typed rejection of every
//!   malformed frame and graceful drain-to-checkpoint ([`serve`]; the
//!   client-encoder SDK lives in [`stream::wire`] / `stream::WireClient`);
//! * the observability substrate — lock-free counters/gauges/histograms,
//!   an injected monotonic clock and a bounded event journal ([`obs`]);
//! * the evaluation harness that regenerates every table and figure of the
//!   paper ([`eval`]).
//!
//! ## Quickstart
//!
//! Estimate the distribution of a sensitive attribute from locally
//! randomized responses:
//!
//! ```
//! use mdrr::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // 1. Each respondent randomizes her answer with an ε-DP matrix…
//! let matrix = RRMatrix::from_epsilon(2.0, 3)?;
//! let mut rng = StdRng::seed_from_u64(1);
//! let true_answers: Vec<u32> = (0..20_000).map(|i| if i % 10 < 6 { 0 } else if i % 10 < 9 { 1 } else { 2 }).collect();
//! let reported: Vec<u32> = true_answers
//!     .iter()
//!     .map(|&x| matrix.randomize(x, &mut rng))
//!     .collect::<Result<_, _>>()?;
//!
//! // 2. …and the collector recovers the distribution of the true answers.
//! let estimate = estimate_from_reports(&matrix, &reported)?;
//! assert!((estimate[0] - 0.6).abs() < 0.05);
//! assert!((estimate[2] - 0.1).abs() < 0.05);
//! # Ok::<(), mdrr::core::CoreError>(())
//! ```
//!
//! For multi-attribute releases see [`protocols::RRClusters`], whose
//! constructors build RR-Independent, RR-Joint and RR-Clusters, and the
//! runnable programs in `examples/`.

pub use mdrr_core as core;
pub use mdrr_data as data;
pub use mdrr_eval as eval;
pub use mdrr_math as math;
pub use mdrr_obs as obs;
pub use mdrr_protocols as protocols;
pub use mdrr_serve as serve;
pub use mdrr_store as store;
pub use mdrr_stream as stream;

/// The most commonly used items, re-exported for convenient glob imports.
pub mod prelude {
    pub use mdrr_core::{
        empirical_distribution, estimate_from_reports, estimate_proper, iterative_bayesian_update,
        Composition, CoreError, PrivacyAccountant, RRMatrix,
    };
    pub use mdrr_data::{
        adult_schema, AdultRecord, AdultSynthesizer, Attribute, AttributeKind, DataError, Dataset,
        JointDomain, RecordsBuffer, RecordsView, Schema,
    };
    pub use mdrr_eval::{CountQuery, ExperimentConfig};
    pub use mdrr_protocols::{
        cluster_attributes, rr_adjustment, validate_assignment, AdjustmentConfig, AdjustmentTarget,
        Clustering, ClusteringConfig, EmpiricalEstimator, FrequencyEstimator, MdrrError, Protocol,
        ProtocolError, ProtocolSpec, RRAdjustment, RRClusters, RandomizationLevel, Release,
    };
    pub use mdrr_serve::{CollectorServer, DrainedCollector, ServeConfig};
    pub use mdrr_store::{merge_snapshot_files, merge_snapshots, Snapshot, Storage, StoreError};
    pub use mdrr_stream::{
        Accumulator, CheckpointManifest, ClientConfig, ReportBatch, RestoredCheckpoint,
        ShardedCollector, StreamSnapshot, WireClient, WireError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_entry_points() {
        // A compile-time smoke test: the most important types are reachable
        // through the prelude.
        let schema = adult_schema();
        assert_eq!(schema.len(), 8);
        let matrix = RRMatrix::direct(0.7, 4).unwrap();
        assert_eq!(matrix.size(), 4);
        let accountant = PrivacyAccountant::new();
        assert!(accountant.is_empty());
    }
}
