//! Streamed-vs-batch equivalence experiment.
//!
//! The streaming subsystem (`mdrr-stream`) claims that sharded ingestion
//! over per-channel count vectors loses nothing: a mid-stream snapshot is
//! numerically identical to the batch release computed from the same
//! randomized codes.  This experiment demonstrates that end to end on the
//! synthetic Adult data set for all three protocols: every record chunk
//! is batch-encoded once (client side, through the columnar
//! `ReportBatch` pipeline), the report batches are routed to a sharded
//! collector *and* decoded into the pooled randomized data set (the batch
//! collector's input), and the two estimates are compared over the full
//! single- and pair-marginal query workload.  The expected deviation is
//! exactly zero up to floating-point noise (≪ 1e-12); any larger value
//! indicates the sufficient-statistics argument of DESIGN.md §6 has been
//! broken.

use super::ExperimentConfig;
use crate::obs::{ObservedEstimator, QueryObs};
use mdrr_obs::{Clock, MonotonicClock, Registry};
use mdrr_protocols::{
    Clustering, FrequencyEstimator, Protocol, ProtocolError, ProtocolSpec, RandomizationLevel,
};
use mdrr_stream::{ReportBatch, ShardedCollector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Number of shards the experiment streams through.
pub const STREAM_SHARDS: usize = 4;

/// Batch size of the columnar chunk views feeding the batched encoders.
pub const ENCODE_CHUNK: usize = 1_024;

/// Keep probability used for all three protocols.
pub const STREAM_KEEP_PROBABILITY: f64 = 0.7;

/// Attributes the RR-Joint variant is restricted to (the full Adult joint
/// domain exceeds the protocol's cap; three attributes keep it at
/// 9 × 16 × 7 = 1008 cells, comfortably estimable).
pub const JOINT_ATTRIBUTES: [usize; 3] = [0, 1, 2];

/// Equivalence measurements for one protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolEquivalence {
    /// Protocol name (`RR-Independent`, `RR-Joint`, `RR-Clusters`).
    pub protocol: String,
    /// Number of reports streamed.
    pub reports: usize,
    /// Number of shards the reports were routed across.
    pub shards: usize,
    /// Number of queries in the comparison workload.
    pub queries: usize,
    /// Maximum absolute deviation between the streamed snapshot and the
    /// batch release over the workload (expected ≪ 1e-12).
    pub max_abs_deviation: f64,
    /// Queries answered by the streamed snapshot, as counted by the
    /// query-path instrumentation (must equal `queries`; a mismatch means
    /// the observability wrapper dropped or double-counted calls).
    pub estimates_served: u64,
}

/// Result of the streamed-vs-batch equivalence experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamEquivalenceResult {
    /// One entry per protocol.
    pub per_protocol: Vec<ProtocolEquivalence>,
    /// The largest deviation across all protocols (the headline number).
    pub worst_abs_deviation: f64,
}

/// Runs the experiment on the synthetic Adult data set.
///
/// # Errors
/// Propagates protocol and streaming errors.
pub fn run(config: &ExperimentConfig) -> Result<StreamEquivalenceResult, ProtocolError> {
    let dataset = config.adult()?;
    let schema = dataset.schema().clone();
    let m = schema.len();
    let clustering = Clustering::new((0..m / 2).map(|k| vec![2 * k, 2 * k + 1]).collect(), m)
        .map_err(|e| ProtocolError::config(format!("pairing clustering failed: {e}")))?;

    let joint_dataset = dataset.project(&JOINT_ATTRIBUTES)?;
    let level = RandomizationLevel::KeepProbability(STREAM_KEEP_PROBABILITY);
    // Protocols are selected by declarative specs and built as trait
    // objects; adding a variant is one more spec, not a new code path.
    let variants: Vec<(ProtocolSpec, &mdrr_data::Dataset, &mdrr_data::Schema)> = vec![
        (ProtocolSpec::independent(level.clone()), &dataset, &schema),
        (
            ProtocolSpec::Joint {
                level: level.clone(),
                max_domain: None,
                equivalent_risk: false,
            },
            &joint_dataset,
            joint_dataset.schema(),
        ),
        (
            ProtocolSpec::Clusters {
                level,
                clustering,
                equivalent_risk: false,
            },
            &dataset,
            &schema,
        ),
    ];

    let mut per_protocol = Vec::with_capacity(variants.len());
    let mut worst = 0.0f64;
    for (spec, data, protocol_schema) in variants {
        let protocol = spec.build_arc(protocol_schema)?;
        let entry = run_protocol(&protocol, data, config.seed)?;
        worst = worst.max(entry.max_abs_deviation);
        per_protocol.push(entry);
    }
    Ok(StreamEquivalenceResult {
        per_protocol,
        worst_abs_deviation: worst,
    })
}

fn run_protocol(
    protocol: &Arc<dyn Protocol>,
    dataset: &mdrr_data::Dataset,
    seed: u64,
) -> Result<ProtocolEquivalence, ProtocolError> {
    // Client side: every record chunk randomizes into one columnar
    // [`ReportBatch`] through the batched encoder, once.  The records are
    // drawn through the zero-copy columnar chunk views — the arrival
    // pattern of a real deployment, where clients report in batches
    // rather than as one materialized table.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batches: Vec<ReportBatch> = Vec::new();
    for chunk in dataset.column_chunks(ENCODE_CHUNK)? {
        let mut batch = ReportBatch::for_protocol(&**protocol);
        batch.encode_records(&**protocol, &chunk, &mut rng)?;
        batches.push(batch);
    }
    let n_reports: usize = batches.iter().map(ReportBatch::n_reports).sum();

    // Streaming path: route the pre-encoded report batches across the
    // shards (bulk counting, no per-report work).
    let mut collector = ShardedCollector::new(Arc::clone(protocol), STREAM_SHARDS)?;
    for (i, batch) in batches.iter().enumerate() {
        collector.ingest_batch(i % STREAM_SHARDS, batch)?;
    }
    let snapshot = collector.snapshot()?;

    // Batch path: the same reports decoded into the pooled randomized
    // data set and estimated through the batch constructor.
    let mut randomized = mdrr_data::Dataset::empty(protocol.schema().clone());
    let mut codes = Vec::new();
    for batch in &batches {
        for i in 0..batch.n_reports() {
            batch.read_report(i, &mut codes)?;
            let record = protocol.decode_report(&codes)?;
            randomized
                .push_record(&record)
                .map_err(ProtocolError::from)?;
        }
    }
    let batch = protocol.release_from_randomized(randomized)?;

    // Compare over every single- and pair-marginal assignment.  The
    // streamed side is queried through the observed estimator, so the
    // query-path instrumentation counts exactly one estimate per query.
    // Its wall-clock reads go through the injected monotonic clock — the
    // one ambient clock of the workspace lives in `mdrr_obs`, never here.
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let registry = Registry::new();
    let query_obs = QueryObs::new(clock, &registry);
    let snapshot = ObservedEstimator::new(snapshot, query_obs.clone());
    let cards = protocol.schema().cardinalities();
    let mut max_abs_deviation = 0.0f64;
    let mut queries = 0usize;
    for (a, &ca) in cards.iter().enumerate() {
        for va in 0..ca as u32 {
            let mut compare = |query: &[(usize, u32)]| -> Result<(), ProtocolError> {
                let streamed = snapshot.frequency(query)?;
                let batched = batch.frequency(query)?;
                max_abs_deviation = max_abs_deviation.max((streamed - batched).abs());
                queries += 1;
                Ok(())
            };
            compare(&[(a, va)])?;
            for (b, &cb) in cards.iter().enumerate().skip(a + 1) {
                for vb in 0..cb as u32 {
                    compare(&[(a, va), (b, vb)])?;
                }
            }
        }
    }

    Ok(ProtocolEquivalence {
        protocol: protocol.name(),
        reports: n_reports,
        shards: STREAM_SHARDS,
        queries,
        max_abs_deviation,
        estimates_served: query_obs.estimates_served(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_and_batch_estimates_coincide_on_adult() {
        let config = ExperimentConfig {
            records: 2_000,
            runs: 1,
            seed: 11,
            alpha: 0.05,
        };
        let result = run(&config).unwrap();
        assert_eq!(result.per_protocol.len(), 3);
        for entry in &result.per_protocol {
            assert_eq!(entry.reports, 2_000);
            assert_eq!(entry.shards, STREAM_SHARDS);
            assert!(entry.queries > 0);
            assert_eq!(entry.estimates_served, entry.queries as u64);
            assert!(
                entry.max_abs_deviation < 1e-12,
                "{}: deviation {}",
                entry.protocol,
                entry.max_abs_deviation
            );
        }
        assert!(result.worst_abs_deviation < 1e-12);
    }
}
