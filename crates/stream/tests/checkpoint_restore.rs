//! Checkpoint/restore/merge properties of the sharded collector.
//!
//! The durability claims: (1) `checkpoint` → `restore` reproduces the
//! collector's accumulators *exactly* (byte-identical counts) for every
//! `ProtocolSpec` shape; (2) merging the persisted per-shard snapshot
//! files reproduces the live collector's own k-way merge, so a release
//! built from the files equals a single-process run's snapshot at 1e-12
//! (in fact exactly); (3) a restored collector is a full citizen — it
//! keeps ingesting deterministically, as if the process had never died.

use mdrr_data::{Attribute, AttributeKind, Dataset, Schema};
use mdrr_protocols::{AdjustmentConfig, Clustering, ProtocolSpec, RandomizationLevel};
use mdrr_store::merge_snapshot_files;
use mdrr_stream::ShardedCollector;
use proptest::prelude::*;
use std::path::PathBuf;

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

/// All four `ProtocolSpec` shapes over a 3-attribute schema.
fn all_four_specs(schema: &Schema) -> Vec<ProtocolSpec> {
    let m = schema.len();
    let level = RandomizationLevel::KeepProbability(0.6);
    vec![
        ProtocolSpec::independent(level.clone()),
        ProtocolSpec::Joint {
            level: level.clone(),
            max_domain: None,
            equivalent_risk: false,
        },
        ProtocolSpec::Clusters {
            level: level.clone(),
            clustering: Clustering::new(vec![vec![0, 1], (2..m).collect()], m).unwrap(),
            equivalent_risk: false,
        },
        ProtocolSpec::Adjusted {
            base: Box::new(ProtocolSpec::independent(level)),
            config: AdjustmentConfig::default(),
        },
    ]
}

/// Random records for a schema, from a deterministic seed.
fn records(schema: &Schema, n: usize, seed: u64) -> Vec<Vec<u32>> {
    let cards = schema.cardinalities();
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            cards
                .iter()
                .map(|&c| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % c as u64) as u32
                })
                .collect()
        })
        .collect()
}

fn scratch_dir(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mdrr-ckpt-prop-{tag}-{}-{case}",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// checkpoint → restore reproduces every shard accumulator exactly,
    /// for all four protocol spec shapes, any shard count and any seed —
    /// and merging the persisted shard files equals the live collector's
    /// own merge, with releases equal at 1e-12.
    #[test]
    fn persisted_state_reproduces_the_live_collector(
        schema in schema_strategy(),
        n in 50usize..200,
        n_shards in 1usize..6,
        seed in any::<u64>(),
    ) {
        let rs = records(&schema, n, seed);
        for (i, spec) in all_four_specs(&schema).iter().enumerate() {
            let protocol = spec.build_arc(&schema).unwrap();
            let mut collector = ShardedCollector::new(protocol, n_shards).unwrap();
            collector.ingest_records(&rs, seed ^ 3).unwrap();

            let dir = scratch_dir("rt", seed.wrapping_add(i as u64));
            let manifest = collector.checkpoint(spec, &dir, Some("state")).unwrap();
            prop_assert_eq!(manifest.total_reports, n as u64);

            // (1) Exact restore.
            let restored = ShardedCollector::restore(&dir).unwrap();
            prop_assert_eq!(restored.collector.shards(), collector.shards());
            prop_assert_eq!(&restored.spec, spec);
            prop_assert_eq!(restored.app_state.as_deref(), Some("state"));

            // (2) Persisted per-shard files merge to the live merge.
            let paths: Vec<PathBuf> =
                manifest.shard_files.iter().map(|f| dir.join(f)).collect();
            let merged = merge_snapshot_files(&paths).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            let live = collector.merged().unwrap();
            prop_assert_eq!(merged.counts(), live.counts());
            prop_assert_eq!(merged.n_reports(), live.n_reports());
            match merged.release() {
                Ok(from_files) => {
                    let live_snapshot = collector.snapshot().unwrap();
                    for j in 0..schema.len() {
                        let a = from_files.marginal(j).unwrap();
                        let b = live_snapshot.marginal(j).unwrap();
                        for (x, y) in a.iter().zip(b.iter()) {
                            prop_assert!((x - y).abs() <= 1e-12);
                        }
                    }
                }
                Err(_) => {
                    // Only RR-Adjustment cannot estimate from counts —
                    // neither from files nor live.
                    prop_assert!(matches!(spec, ProtocolSpec::Adjusted { .. }));
                    prop_assert!(collector.snapshot().is_err());
                }
            }
        }
    }

    /// A restored collector continues the stream exactly: checkpoint at
    /// the halfway point, restore in a "new process", ingest the second
    /// half, and land byte-identically on an uninterrupted collector.
    #[test]
    fn resume_continues_the_exact_stream(
        schema in schema_strategy(),
        n in 60usize..160,
        n_shards in 1usize..5,
        seed in any::<u64>(),
    ) {
        let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.6));
        let first = records(&schema, n / 2, seed);
        let second = records(&schema, n - n / 2, seed ^ 7);

        // Uninterrupted reference: two ingest calls, one process.
        let mut uninterrupted =
            ShardedCollector::new(spec.build_arc(&schema).unwrap(), n_shards).unwrap();
        uninterrupted.ingest_records(&first, seed ^ 11).unwrap();
        uninterrupted.ingest_records(&second, seed ^ 13).unwrap();

        // Crash-and-resume: checkpoint between the calls, drop everything.
        let dir = scratch_dir("resume", seed);
        {
            let mut dying =
                ShardedCollector::new(spec.build_arc(&schema).unwrap(), n_shards).unwrap();
            dying.ingest_records(&first, seed ^ 11).unwrap();
            dying.checkpoint(&spec, &dir, None).unwrap();
            // `dying` drops here — the "crash".
        }
        let mut resumed = ShardedCollector::restore(&dir).unwrap().collector;
        std::fs::remove_dir_all(&dir).ok();
        resumed.ingest_records(&second, seed ^ 13).unwrap();

        prop_assert_eq!(resumed.shards(), uninterrupted.shards());
    }
}

/// A collector that `instrument` is never called on still counts: its
/// own instruments (on a disabled clock) hold the per-shard report
/// totals, and a restored collector has counted its restore and every
/// shard file it read.
#[test]
fn a_collector_counts_without_instrument() {
    let schema = Schema::new(vec![
        Attribute::indexed("A", 3).unwrap(),
        Attribute::indexed("B", 2).unwrap(),
    ])
    .unwrap();
    let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    let n_shards = 3;
    let mut collector = ShardedCollector::new(spec.build_arc(&schema).unwrap(), n_shards).unwrap();
    let dataset = Dataset::from_records(schema.clone(), &records(&schema, 1_001, 5)).unwrap();
    collector.ingest_view(&dataset.view(), 17).unwrap();

    let metrics = collector.instrumentation().registry().snapshot();
    for (k, shard) in collector.shards().iter().enumerate() {
        assert!(shard.n_reports() > 0, "shard {k} holds no reports");
        assert_eq!(
            metrics.counter_value("stream_shard_reports_total", &[("shard", &k.to_string())]),
            Some(shard.n_reports()),
            "shard {k}"
        );
    }

    let dir = scratch_dir("uninstrumented", 0);
    collector.checkpoint(&spec, &dir, None).unwrap();
    let restored = ShardedCollector::restore(&dir).unwrap().collector;
    std::fs::remove_dir_all(&dir).ok();
    let metrics = restored.instrumentation().registry().snapshot();
    assert_eq!(metrics.counter_value("store_restores_total", &[]), Some(1));
    assert_eq!(
        metrics.counter_value("store_snapshot_reads_total", &[]),
        Some(n_shards as u64)
    );
}
