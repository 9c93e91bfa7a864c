//! The unified, object-safe protocol surface.
//!
//! The paper defines one conceptual pipeline — client-side randomization of
//! a record into per-channel codes, collector-side unbiased estimation from
//! per-channel count vectors (Equation (2)) — instantiated by RR-Independent,
//! RR-Joint, RR-Clusters and RR-Adjustment.  This module captures that
//! pipeline as two object-safe traits:
//!
//! * [`Protocol`] — the configured mechanism: channel topology,
//!   client-side [`Protocol::encode_record`], collector-side
//!   [`Protocol::release_from_counts`] / [`Protocol::run`], and privacy
//!   accounting.  All four protocols implement it, so streaming ingestion,
//!   evaluation harnesses and benches dispatch through `dyn Protocol`
//!   (typically `Arc<dyn Protocol>`) instead of per-protocol enums.
//! * [`Release`] — the published estimate: record count, marginal and
//!   joint-frequency queries (via the [`FrequencyEstimator`] supertrait),
//!   the privacy ledger and, for batch runs, the randomized microdata.
//!
//! Protocols are constructed either through their concrete constructors or
//! declaratively from a serde-able [`crate::ProtocolSpec`].
//!
//! [`RandomizationLevel`] — the strength of the per-attribute randomization
//! — lives here because it drives all of them: RR-Independent directly, and
//! RR-Joint / RR-Clusters through the equivalent-risk construction of
//! Section 6.3.2 (the same per-attribute budgets, spent jointly).

use crate::adjustment::AdjustmentTarget;
use crate::error::MdrrError;
use crate::estimator::FrequencyEstimator;
use mdrr_core::{PrivacyAccountant, RRMatrix};
use mdrr_data::{Dataset, RecordsView, Schema};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How strongly each attribute is randomized.
///
/// A level names the *per-attribute* randomization strength RR-Independent
/// would use.  The same level also drives RR-Joint and RR-Clusters through
/// the equivalent-risk construction (Section 6.3.2): the per-attribute
/// budgets `ε_A` implied by the level are spent jointly, so all three
/// protocols built from one level offer the same total differential-privacy
/// guarantee.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RandomizationLevel {
    /// Keep each attribute's true value with probability `p` and otherwise
    /// redraw uniformly from the attribute's domain (the mechanism used in
    /// the paper's experiments, Section 6.3, parameterised by
    /// `p ∈ {0.1, 0.3, 0.5, 0.7}`).
    KeepProbability(f64),
    /// Give each attribute the optimal matrix for the same privacy budget
    /// ε (Section 6.3.1).
    EpsilonPerAttribute(f64),
    /// Explicit per-attribute privacy budgets, in schema order.
    Epsilons(Vec<f64>),
}

impl RandomizationLevel {
    /// The per-attribute randomization matrices RR-Independent uses for
    /// this level over `schema`, in schema order.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] for invalid levels
    /// (probability outside `[0, 1]`, negative ε, wrong budget count).
    pub fn independent_matrices(&self, schema: &Schema) -> Result<Vec<RRMatrix>, MdrrError> {
        match self {
            RandomizationLevel::KeepProbability(p) => schema
                .attributes()
                .iter()
                .map(|a| RRMatrix::uniform_keep(*p, a.cardinality()).map_err(MdrrError::from))
                .collect(),
            RandomizationLevel::EpsilonPerAttribute(eps) => schema
                .attributes()
                .iter()
                .map(|a| RRMatrix::from_epsilon(*eps, a.cardinality()).map_err(MdrrError::from))
                .collect(),
            RandomizationLevel::Epsilons(budgets) => {
                if budgets.len() != schema.len() {
                    return Err(MdrrError::config(format!(
                        "expected {} per-attribute budgets, got {}",
                        schema.len(),
                        budgets.len()
                    )));
                }
                schema
                    .attributes()
                    .iter()
                    .zip(budgets.iter())
                    .map(|(a, &eps)| {
                        RRMatrix::from_epsilon(eps, a.cardinality()).map_err(MdrrError::from)
                    })
                    .collect()
            }
        }
    }

    /// The per-attribute privacy budgets `ε_A` this level implies over
    /// `schema` (Expression (4)) — the inputs to the equivalent-risk
    /// construction of RR-Joint and RR-Clusters (Section 6.3.2).
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] for invalid levels, or
    /// when a budget is infinite (keep probability 1 offers no privacy and
    /// cannot be spent jointly).
    pub fn attribute_epsilons(&self, schema: &Schema) -> Result<Vec<f64>, MdrrError> {
        let epsilons: Vec<f64> = self
            .independent_matrices(schema)?
            .iter()
            .map(RRMatrix::epsilon)
            .collect();
        if epsilons.iter().any(|e| !e.is_finite()) {
            return Err(MdrrError::config(
                "a keep probability of 1 gives an infinite budget; use a value below 1",
            ));
        }
        Ok(epsilons)
    }
}

/// A configured MDRR mechanism, seen uniformly by every consumer.
///
/// Every protocol, from the collector's point of view, is a set of
/// *channels*: one per attribute for RR-Independent, a single channel over
/// the full joint domain for RR-Joint, one per cluster for RR-Clusters,
/// and the base protocol's channels for RR-Adjustment.  A client randomizes
/// her record into one code per channel ([`Protocol::encode_record`]); the
/// collector estimates from per-channel count vectors
/// ([`Protocol::release_from_counts`]) or from pooled randomized microdata
/// ([`Protocol::release_from_randomized`], [`Protocol::run`]).
///
/// The trait is object-safe: streaming ingestion (`mdrr-stream`), the
/// evaluation harness and the benches hold `Arc<dyn Protocol>` and work
/// with any current or future protocol unchanged.
///
/// RR-Independent, RR-Joint and RR-Clusters are one type,
/// [`crate::RRClusters`]: in the paper the two basic protocols are the
/// ends of RR-Clusters (one cluster per attribute, and one cluster holding
/// every attribute), so they are its constructors, share its one
/// implementation of this trait and all three release the same
/// per-cluster estimate.  The batch encoders validate and prepare once per
/// call, so dispatching through `dyn Protocol` costs one virtual
/// call per batch, not per record.
pub trait Protocol: fmt::Debug + Send + Sync {
    /// Human-readable protocol name (used in ledgers, logs and reports).
    fn name(&self) -> String;

    /// The schema the protocol was configured for.
    fn schema(&self) -> &Schema;

    /// The domain size of each channel, in channel order.
    fn channel_sizes(&self) -> Vec<usize>;

    /// Client-side encoding: randomizes one true record into its report —
    /// one randomized code per channel, in channel order.  This is the unit
    /// of work a party performs locally before sending anything to the
    /// collector.
    ///
    /// # Errors
    /// Returns [`MdrrError::Data`] if the record does not fit the schema;
    /// propagated randomization errors otherwise.
    fn encode_record(&self, record: &[u32], rng: &mut dyn RngCore) -> Result<Vec<u32>, MdrrError>;

    /// Client-side *batch* encoding: randomizes a whole columnar batch of
    /// true records, appending one code per record to each channel buffer
    /// of `out` (in channel order) — the bulk fast path of the pipeline.
    ///
    /// The contract every implementation keeps:
    ///
    /// * exactly `records.n_records()` codes are appended to every channel
    ///   buffer, in record order;
    /// * the RNG is consumed in **record-major order** — record `i`'s
    ///   channels in channel order, then record `i + 1` — with the same
    ///   draws per value as [`Protocol::encode_record`], so the batch
    ///   output is bit-identical to encoding the same records one by one
    ///   with the same RNG.  Chunk boundaries therefore do not matter: any
    ///   split of a record stream into consecutive `encode_batch` calls
    ///   over one RNG produces the same codes;
    /// * validation is hoisted: the batch is checked against the schema
    ///   once per call (per-column range scans), not once per record.
    ///
    /// On error, the contents of `out` are unspecified; callers should
    /// clear the buffers before retrying.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] if `out` does not have
    /// one buffer per channel or a record does not fit the schema;
    /// propagated randomization errors otherwise.
    fn encode_batch(
        &self,
        records: &RecordsView<'_>,
        rng: &mut dyn RngCore,
        out: &mut [Vec<u32>],
    ) -> Result<(), MdrrError>;

    /// Client-side batch encoding straight into per-channel count vectors
    /// — the *sufficient-statistics* fast path of bulk ingestion.
    ///
    /// Randomizes the batch exactly as [`Protocol::encode_batch`] would
    /// (same draw order, same codes — the two are bit-identical under a
    /// shared RNG) but instead of materializing the codes it increments
    /// `tallies[k][code]` for every report's channel-`k` code.  Bulk
    /// collectors that only ever need count vectors (the streaming
    /// accumulators) skip storing and re-reading every code this way.
    ///
    /// `tallies` must hold one count vector per channel, sized to the
    /// channel's domain ([`Protocol::channel_sizes`]); counts are added to
    /// whatever is already there, so a caller can accumulate many batches
    /// into one set of tallies before merging.  On error the tallies are
    /// unchanged (validation happens before any counting).
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] if `tallies` does not
    /// match the channel topology or a record does not fit the schema;
    /// propagated randomization errors otherwise.
    fn encode_tally(
        &self,
        records: &RecordsView<'_>,
        rng: &mut dyn RngCore,
        tallies: &mut [Vec<u64>],
    ) -> Result<(), MdrrError>;

    /// Decodes a report's channel codes back into the randomized microdata
    /// record the batch collector would have received (the inverse of the
    /// channel encoding; the randomization itself is of course not
    /// invertible).
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] if the report's arity or
    /// codes do not match the protocol's channels.
    fn decode_report(&self, codes: &[u32]) -> Result<Vec<u32>, MdrrError>;

    /// Collector-side estimation from accumulated sufficient statistics:
    /// builds a release from per-channel count vectors over the randomized
    /// codes of `n_records` reports.  Numerically identical to the batch
    /// estimate over the same codes, but carries no randomized microdata.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] for shape or consistency
    /// violations, and [`MdrrError::UnsupportedQuery`] for protocols that
    /// cannot estimate from counts alone (RR-Adjustment needs the
    /// randomized microdata).
    fn release_from_counts(
        &self,
        counts: &[Vec<u64>],
        n_records: usize,
    ) -> Result<Box<dyn Release>, MdrrError>;

    /// Collector-side estimation from an already-randomized data set (the
    /// pooled reports of all parties, decoded to microdata).
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] for a schema mismatch or
    /// an empty data set; propagated estimation errors otherwise.
    fn release_from_randomized(&self, randomized: Dataset) -> Result<Box<dyn Release>, MdrrError>;

    /// Runs the full protocol: client-side randomization of every record
    /// followed by collector-side estimation.
    ///
    /// # Errors
    /// Same conditions as [`Protocol::release_from_randomized`] plus
    /// propagated randomization errors.
    fn run(&self, dataset: &Dataset, rng: &mut dyn RngCore) -> Result<Box<dyn Release>, MdrrError>;

    /// The per-channel privacy budgets ε the protocol spends, in channel
    /// order (Expression (4)).
    fn epsilons(&self) -> Vec<f64>;

    /// The total sequential-composition budget of one run.
    fn total_epsilon(&self) -> f64 {
        self.epsilons().iter().sum()
    }
}

/// A published MDRR estimate, seen uniformly by every consumer.
///
/// A release answers arbitrary partial-assignment frequency queries (the
/// [`FrequencyEstimator`] supertrait), exposes per-attribute marginals with
/// one name and one type across all protocols, carries the privacy ledger,
/// and — for batch runs — the randomized microdata set.
pub trait Release: FrequencyEstimator + fmt::Debug + Send + Sync {
    /// The estimated marginal distribution of a single attribute, in schema
    /// order of its categories.
    ///
    /// # Errors
    /// Returns [`MdrrError::UnsupportedQuery`] for a bad attribute index.
    fn marginal(&self, attribute: usize) -> Result<Vec<f64>, MdrrError>;

    /// The privacy ledger of the release.
    fn accountant(&self) -> &PrivacyAccountant;

    /// The published randomized microdata set `Y` — `Some` for batch
    /// releases, `None` for releases assembled from streamed sufficient
    /// statistics, where the microdata is never materialized.
    fn randomized(&self) -> Option<&Dataset>;

    /// The marginal constraints RR-Adjustment (Algorithm 2) would use to
    /// repair this release's independence assumptions: one target per
    /// attribute for RR-Independent, one per cluster for RR-Clusters, the
    /// full joint for RR-Joint.
    ///
    /// # Errors
    /// Returns [`MdrrError::UnsupportedQuery`] for releases that cannot be
    /// adjusted further (e.g. an already-adjusted release).
    fn adjustment_targets(&self) -> Result<Vec<AdjustmentTarget>, MdrrError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Clustering, ProtocolSpec};
    use mdrr_data::Attribute;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::indexed("A", 3).unwrap(),
            Attribute::indexed("B", 2).unwrap(),
        ])
        .unwrap()
    }

    fn specs() -> Vec<ProtocolSpec> {
        let level = RandomizationLevel::KeepProbability(0.7);
        vec![
            ProtocolSpec::independent(level.clone()),
            ProtocolSpec::joint(level.clone()),
            ProtocolSpec::clusters(level, Clustering::new(vec![vec![0], vec![1]], 2).unwrap()),
        ]
    }

    #[test]
    fn encoded_reports_have_one_code_per_channel() {
        let mut rng = StdRng::seed_from_u64(1);
        for spec in specs() {
            let p = spec.build(&schema()).unwrap();
            let codes = p.encode_record(&[2, 1], &mut rng).unwrap();
            assert_eq!(codes.len(), p.channel_sizes().len());
            assert!(!codes.is_empty());
            for (&code, size) in codes.iter().zip(p.channel_sizes()) {
                assert!((code as usize) < size);
            }
            assert!(p.encode_record(&[3, 0], &mut rng).is_err());
            assert!(p.encode_record(&[0], &mut rng).is_err());
        }
    }

    #[test]
    fn decode_inverts_the_channel_encoding() {
        let mut rng = StdRng::seed_from_u64(5);
        for spec in specs() {
            let p = spec.build(&schema()).unwrap();
            for record in [[0u32, 0], [2, 1], [1, 0]] {
                // The decoded record is always schema-valid…
                let codes = p.encode_record(&record, &mut rng).unwrap();
                let decoded = p.decode_report(&codes).unwrap();
                assert!(p.schema().validate_record(&decoded).is_ok());
            }
            assert!(p.decode_report(&[]).is_err());
            assert!(p.decode_report(&[99, 99]).is_err());
        }

        // …and with identity randomization decode(encode(x)) == x exactly.
        let p = ProtocolSpec::Joint {
            level: RandomizationLevel::KeepProbability(1.0),
            max_domain: None,
            equivalent_risk: false,
        }
        .build(&schema())
        .unwrap();
        let codes = p.encode_record(&[2, 1], &mut rng).unwrap();
        assert_eq!(p.decode_report(&codes).unwrap(), vec![2, 1]);
    }

    #[test]
    fn level_matrices_match_the_schema() {
        let s = schema();
        let matrices = RandomizationLevel::KeepProbability(0.7)
            .independent_matrices(&s)
            .unwrap();
        assert_eq!(matrices.len(), 2);
        assert_eq!(matrices[0].size(), 3);
        assert_eq!(matrices[1].size(), 2);

        assert!(RandomizationLevel::KeepProbability(1.5)
            .independent_matrices(&s)
            .is_err());
        assert!(RandomizationLevel::EpsilonPerAttribute(-1.0)
            .independent_matrices(&s)
            .is_err());
        assert!(RandomizationLevel::Epsilons(vec![1.0])
            .independent_matrices(&s)
            .is_err());
    }

    #[test]
    fn level_epsilons_are_finite_and_reject_keep_one() {
        let s = schema();
        let eps = RandomizationLevel::EpsilonPerAttribute(1.2)
            .attribute_epsilons(&s)
            .unwrap();
        assert_eq!(eps.len(), 2);
        for e in eps {
            assert!((e - 1.2).abs() < 1e-9);
        }
        // Keep probability 1 implies infinite budgets and is rejected.
        assert!(RandomizationLevel::KeepProbability(1.0)
            .attribute_epsilons(&s)
            .is_err());
        // Explicit budgets pass through.
        let eps = RandomizationLevel::Epsilons(vec![0.5, 2.0])
            .attribute_epsilons(&s)
            .unwrap();
        assert_eq!(eps, vec![0.5, 2.0]);
    }
}
