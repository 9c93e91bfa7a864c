//! Property tests pinning the streaming path to the batch path.
//!
//! The load-bearing claim of the streaming subsystem is that sharding and
//! merging lose nothing: for the same randomized codes, a snapshot taken
//! from shard-merged accumulators is numerically identical to the batch
//! release the protocol computes from the pooled randomized data set —
//! for every protocol behind `dyn Protocol`, any shard count, any report
//! routing and any merge order.  Since the collector dispatches through
//! `Arc<dyn Protocol>`, these properties hold for any future protocol with
//! a sound `release_from_counts` — no per-protocol test arms needed.

use mdrr_data::{Attribute, AttributeKind, Dataset, Schema};
use mdrr_protocols::{
    AdjustmentConfig, Clustering, FrequencyEstimator, Protocol, ProtocolSpec, RandomizationLevel,
    Release,
};
use mdrr_stream::{offset_base_seed, Accumulator, ReportBatch, ShardedCollector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Rows of `ds` materialized through the supported `record(i)` accessor
/// (the deprecated `records()` iterator is lint-gated).
fn all_records(ds: &Dataset) -> Vec<Vec<u32>> {
    (0..ds.n_records())
        .map(|i| ds.record(i).expect("index in range"))
        .collect()
}

/// A small schema with 3 attributes of cardinalities 2–4.
fn schema_strategy() -> impl Strategy<Value = Schema> {
    prop::collection::vec(2usize..5, 3..4).prop_map(|cards| {
        let attrs = cards
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                Attribute::new(
                    format!("A{i}"),
                    AttributeKind::Nominal,
                    (0..c).map(|k| k.to_string()).collect(),
                )
                .unwrap()
            })
            .collect();
        Schema::new(attrs).unwrap()
    })
}

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (schema_strategy(), 30usize..150, any::<u64>()).prop_map(|(schema, n, seed)| {
        let cards = schema.cardinalities();
        let mut ds = Dataset::empty(schema);
        let mut state = seed | 1;
        for _ in 0..n {
            let record: Vec<u32> = cards
                .iter()
                .map(|&c| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % c as u64) as u32
                })
                .collect();
            ds.push_record(&record).unwrap();
        }
        ds
    })
}

/// The three estimating protocols configured for a schema, all behind
/// `dyn Protocol` (clusters: first two attributes together, the rest one
/// cluster).
fn protocols(schema: &Schema) -> Vec<Arc<dyn Protocol>> {
    let m = schema.len();
    let clustering = Clustering::new(vec![vec![0, 1], (2..m).collect()], m).unwrap();
    let level = RandomizationLevel::KeepProbability(0.6);
    [
        ProtocolSpec::independent(level.clone()),
        ProtocolSpec::Joint {
            level: level.clone(),
            max_domain: None,
            equivalent_risk: false,
        },
        ProtocolSpec::Clusters {
            level,
            clustering,
            equivalent_risk: false,
        },
    ]
    .iter()
    .map(|spec| spec.build_arc(schema).unwrap())
    .collect()
}

/// All four `ProtocolSpec` shapes (the three above plus RR-Adjustment
/// stacked on RR-Independent) — the client-side encoders the batch path
/// must be bit-identical to.
fn all_four_protocols(schema: &Schema) -> Vec<Arc<dyn Protocol>> {
    let mut all = protocols(schema);
    all.push(
        ProtocolSpec::Adjusted {
            base: Box::new(ProtocolSpec::independent(
                RandomizationLevel::KeepProbability(0.6),
            )),
            config: AdjustmentConfig::default(),
        }
        .build_arc(schema)
        .unwrap(),
    );
    all
}

/// The per-record reference: encodes `records` one at a time with
/// `Protocol::encode_record` under `rng` and bumps one cell per code.
/// Returns each report's codes and their counts.
fn encode_per_record(
    protocol: &dyn Protocol,
    records: &[Vec<u32>],
    rng: &mut StdRng,
) -> (Vec<Vec<u32>>, Accumulator) {
    let sizes = protocol.channel_sizes();
    let mut counts: Vec<Vec<u64>> = sizes.iter().map(|&s| vec![0u64; s]).collect();
    let reports = records
        .iter()
        .map(|record| {
            let codes = protocol.encode_record(record, rng).unwrap();
            for (channel, &code) in counts.iter_mut().zip(&codes) {
                channel[code as usize] += 1;
            }
            codes
        })
        .collect();
    let counted = Accumulator::from_counts(counts, records.len() as u64).unwrap();
    (reports, counted)
}

/// The batch release computed from the same randomized codes: decode every
/// report into the pooled randomized data set and estimate from it.
fn batch_release(protocol: &dyn Protocol, reports: &[Vec<u32>]) -> Box<dyn Release> {
    let mut randomized = Dataset::empty(protocol.schema().clone());
    for codes in reports {
        let record = protocol.decode_report(codes).unwrap();
        randomized.push_record(&record).unwrap();
    }
    protocol.release_from_randomized(randomized).unwrap()
}

/// Every single- and two-attribute assignment of a schema.
fn query_workload(schema: &Schema) -> Vec<Vec<(usize, u32)>> {
    let cards = schema.cardinalities();
    let mut queries = Vec::new();
    for (a, &ca) in cards.iter().enumerate() {
        for va in 0..ca as u32 {
            queries.push(vec![(a, va)]);
            for (b, &cb) in cards.iter().enumerate().skip(a + 1) {
                for vb in 0..cb as u32 {
                    queries.push(vec![(a, va), (b, vb)]);
                }
            }
        }
    }
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shard-merged streaming estimates are numerically identical to the
    /// batch estimates on the same randomized codes, for all three
    /// protocols, arbitrary shard counts, arbitrary report routing and
    /// arbitrary merge orders.
    #[test]
    fn streaming_equals_batch_on_identical_codes(ds in dataset_strategy(),
                                                 n_shards in 1usize..6,
                                                 route_mult in 1u64..1000,
                                                 rotation in 0usize..6,
                                                 seed in any::<u64>()) {
        for protocol in protocols(ds.schema()) {
            // Client side: one report per record, one shared RNG so the
            // randomized codes are fixed once and reused on both paths.
            let mut rng = StdRng::seed_from_u64(seed);
            let (reports, _) = encode_per_record(&*protocol, &all_records(&ds), &mut rng);

            // Streaming side: route reports to arbitrary shards, each as
            // a one-report batch…
            let mut collector = ShardedCollector::new(Arc::clone(&protocol), n_shards).unwrap();
            let mut batch = ReportBatch::for_protocol(&*protocol);
            for (i, codes) in reports.iter().enumerate() {
                let shard = ((i as u64).wrapping_mul(route_mult) % n_shards as u64) as usize;
                batch.clear();
                batch.push(codes).unwrap();
                collector.ingest_batch(shard, &batch).unwrap();
            }
            prop_assert_eq!(collector.total_reports(), reports.len() as u64);
            let snapshot = collector.snapshot().unwrap();

            // …and additionally merge the shards in a rotated order.
            let mut merged = Accumulator::new(&protocol.channel_sizes()).unwrap();
            for k in 0..n_shards {
                merged.merge(&collector.shards()[(k + rotation) % n_shards]).unwrap();
            }
            let rotated = protocol
                .release_from_counts(merged.counts(), merged.n_reports() as usize)
                .unwrap();

            // Batch side: the pooled reports as a randomized data set.
            let batch = batch_release(&*protocol, &reports);

            prop_assert_eq!(snapshot.record_count(), batch.record_count());
            for query in query_workload(ds.schema()) {
                let streamed = snapshot.frequency(&query).unwrap();
                let reordered = rotated.frequency(&query).unwrap();
                let batched = batch.frequency(&query).unwrap();
                prop_assert!((streamed - batched).abs() < 1e-12,
                             "query {:?}: streamed {} vs batch {}", query, streamed, batched);
                prop_assert!((reordered - streamed).abs() < 1e-12,
                             "query {:?}: merge order changed the estimate", query);
            }
        }
    }

    /// Splitting one stream of records across different shard counts via
    /// the scoped-thread ingestion path never changes the total report
    /// count, and every snapshot is a proper estimator.
    #[test]
    fn scoped_ingestion_is_complete_for_any_shard_count(ds in dataset_strategy(),
                                                        n_shards in 1usize..6,
                                                        seed in any::<u64>()) {
        let records: Vec<Vec<u32>> = all_records(&ds);
        let protocol = protocols(ds.schema()).remove(0);
        let mut collector = ShardedCollector::new(protocol, n_shards).unwrap();
        let ingested = collector.ingest_records(&records, seed).unwrap();
        prop_assert_eq!(ingested, records.len() as u64);
        prop_assert_eq!(collector.total_reports(), records.len() as u64);
        let snapshot = collector.snapshot().unwrap();
        prop_assert_eq!(snapshot.record_count(), records.len());
        let total = snapshot.frequency(&[]).unwrap();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// The load-bearing claim of the batch pipeline: for all four
    /// `ProtocolSpec`s, under one shared seed and *arbitrary* chunk
    /// splits, `encode_batch` + `ingest_batch` and the fused
    /// `encode_tally` produce byte-identical accumulator counts (and
    /// byte-identical codes) to encoding every record one at a time with
    /// `encode_record` and counting code by code.
    #[test]
    fn batch_paths_are_bit_identical_to_the_per_record_path(ds in dataset_strategy(),
                                                            chunk_size in 1usize..64,
                                                            seed in any::<u64>()) {
        for protocol in all_four_protocols(ds.schema()) {
            let sizes = protocol.channel_sizes();

            // Scalar reference: one report at a time, one shared RNG.
            let mut rng = StdRng::seed_from_u64(seed);
            let (reports, reference) = encode_per_record(&*protocol, &all_records(&ds), &mut rng);

            // Batch path: the same records through arbitrary columnar
            // chunk splits over a fresh RNG with the same seed.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut batched = Accumulator::new(&sizes).unwrap();
            let mut batch = ReportBatch::for_protocol(&*protocol);
            let mut codes = Vec::new();
            let mut i = 0usize;
            for chunk in ds.column_chunks(chunk_size).unwrap() {
                batch.encode_records(&*protocol, &chunk, &mut rng).unwrap();
                batched.ingest_batch(&batch).unwrap();
                // Chunk boundaries must not affect the codes themselves.
                for k in 0..batch.n_reports() {
                    batch.read_report(k, &mut codes).unwrap();
                    prop_assert_eq!(&codes, &reports[i],
                                    "record {} differs on {}", i, protocol.name());
                    i += 1;
                }
            }
            prop_assert_eq!(&batched, &reference, "batch counts differ on {}", protocol.name());

            // Fused tally path: same draws, straight into count vectors.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tallies: Vec<Vec<u64>> = sizes.iter().map(|&s| vec![0u64; s]).collect();
            for chunk in ds.column_chunks(chunk_size).unwrap() {
                protocol.encode_tally(&chunk, &mut rng, &mut tallies).unwrap();
            }
            prop_assert_eq!(&tallies[..], reference.counts(),
                            "tally counts differ on {}", protocol.name());
        }
    }

    /// The sharded bulk paths — row-major and columnar view — are
    /// byte-identical to the per-record reference for any shard count and
    /// seed: shard `k` encodes the range `shard_ranges` announced before
    /// the call one record at a time under `offset_base_seed(seed, k)`,
    /// and a shard with no range stays empty.  Equal shards therefore
    /// also pin the partition.
    #[test]
    fn sharded_batch_ingestion_is_bit_identical(ds in dataset_strategy(),
                                                n_shards in 1usize..6,
                                                seed in any::<u64>()) {
        let records: Vec<Vec<u32>> = all_records(&ds);
        for protocol in all_four_protocols(ds.schema()) {
            let mut rows = ShardedCollector::new(Arc::clone(&protocol), n_shards).unwrap();
            let empty = Accumulator::new(&protocol.channel_sizes()).unwrap();
            let mut reference = vec![empty; n_shards];
            for (k, range) in rows.shard_ranges(records.len()) {
                let mut rng = StdRng::seed_from_u64(offset_base_seed(seed, k));
                reference[k] = encode_per_record(&*protocol, &records[range], &mut rng).1;
            }

            rows.ingest_records(&records, seed).unwrap();
            prop_assert_eq!(rows.shards(), &reference[..], "rows path on {}", protocol.name());

            let mut view = ShardedCollector::new(Arc::clone(&protocol), n_shards).unwrap();
            view.ingest_view(&ds.view(), seed).unwrap();
            prop_assert_eq!(view.shards(), &reference[..], "view path on {}", protocol.name());
        }
    }
}
