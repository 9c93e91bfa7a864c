//! Benchmarks of the streaming subsystem: single-shard ingest throughput
//! (client-side encoding + accumulator counting), the k-way merge of
//! sharded accumulators that precedes every mid-stream snapshot, and the
//! `bench_batch` group pinning the columnar batch pipeline against the
//! scalar per-record reference (encode, ingest, and end-to-end sharded),
//! and the `crc64` group timing the checksum that guards every wire frame
//! and snapshot.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mdrr_data::{adult_schema, AdultSynthesizer, Attribute, Dataset, Schema};
use mdrr_protocols::{Clustering, Protocol, ProtocolSpec, RandomizationLevel};
use mdrr_store::{crc64, Snapshot};
use mdrr_stream::wire::{encode_batch_frame_into, WIRE_TRAILER_LEN};
use mdrr_stream::{Accumulator, Report, ReportBatch, ShardedCollector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

fn protocols() -> Vec<(&'static str, Arc<dyn Protocol>)> {
    let schema = adult_schema();
    let m = schema.len();
    let clustering =
        Clustering::new((0..m / 2).map(|k| vec![2 * k, 2 * k + 1]).collect(), m).unwrap();
    let level = RandomizationLevel::KeepProbability(0.7);
    vec![
        (
            "independent",
            ProtocolSpec::independent(level.clone())
                .build_arc(&schema)
                .unwrap(),
        ),
        (
            "clusters",
            ProtocolSpec::Clusters {
                level,
                clustering,
                equivalent_risk: false,
            }
            .build_arc(&schema)
            .unwrap(),
        ),
    ]
}

fn records(n: usize) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(7);
    let synthesizer = AdultSynthesizer::paper_sized();
    (0..n)
        .map(|_| synthesizer.sample_record(&mut rng))
        .collect()
}

fn bench_single_shard_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_ingest_single_shard");
    group.sample_size(10);
    let batch = records(10_000);
    for (name, protocol) in protocols() {
        group.bench_with_input(
            BenchmarkId::new("encode_ingest_10k", name),
            &protocol,
            |b, p| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(1);
                    let mut acc = Accumulator::new(&p.channel_sizes()).unwrap();
                    for record in &batch {
                        let report = Report::encode(&**p, black_box(record), &mut rng).unwrap();
                        acc.ingest(&report).unwrap();
                    }
                    acc
                })
            },
        );
    }
    group.finish();
}

fn bench_sharded_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_ingest_sharded");
    group.sample_size(10);
    let batch = records(50_000);
    let (_, protocol) = protocols().remove(0);
    for &shards in &[2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("scoped_50k", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut collector = ShardedCollector::new(protocol.clone(), shards).unwrap();
                    collector.ingest_records(black_box(&batch), 3).unwrap();
                    collector.total_reports()
                })
            },
        );
    }
    group.finish();
}

fn bench_kway_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_kway_merge");
    for (name, protocol) in protocols() {
        for &k in &[4usize, 16, 64] {
            // Pre-fill k shard accumulators.
            let mut collector = ShardedCollector::new(protocol.clone(), k).unwrap();
            collector.ingest_records(&records(5_000), 11).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("merge_{name}"), k),
                &collector,
                |b, collector| {
                    b.iter(|| {
                        let merged = collector.merged().unwrap();
                        black_box(merged.n_reports())
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_snapshot");
    for (name, protocol) in protocols() {
        let mut collector = ShardedCollector::new(protocol, 8).unwrap();
        collector.ingest_records(&records(20_000), 13).unwrap();
        group.bench_with_input(
            BenchmarkId::new("snapshot_mid_stream", name),
            &collector,
            |b, collector| b.iter(|| collector.snapshot().unwrap()),
        );
    }
    group.finish();
}

/// Per-record vs batch vs fused-tally *encoding* of the same 10k records
/// under the same seed (the outputs are bit-identical; only the cost
/// differs).
fn bench_batch_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("bench_batch");
    group.sample_size(10);
    let rows = records(10_000);
    for (name, protocol) in protocols() {
        let dataset = Dataset::from_records(protocol.schema().clone(), &rows).unwrap();
        let sizes = protocol.channel_sizes();
        group.bench_with_input(
            BenchmarkId::new("encode_10k_per_record", name),
            &protocol,
            |b, p| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(1);
                    let mut last = 0u32;
                    for record in &rows {
                        let report = Report::encode(&**p, black_box(record), &mut rng).unwrap();
                        last = report.codes()[0];
                    }
                    last
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("encode_10k_batch", name),
            &protocol,
            |b, p| {
                let mut batch = ReportBatch::for_protocol(&**p);
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(1);
                    batch
                        .encode_records(&**p, black_box(&dataset.view()), &mut rng)
                        .unwrap();
                    batch.n_reports()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("encode_10k_tally", name),
            &protocol,
            |b, p| {
                let mut tallies: Vec<Vec<u64>> = sizes.iter().map(|&s| vec![0u64; s]).collect();
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(1);
                    p.encode_tally(black_box(&dataset.view()), &mut rng, &mut tallies)
                        .unwrap();
                    tallies[0][0]
                })
            },
        );
    }
    group.finish();
}

/// Per-report vs batch *counting* of 10k pre-encoded reports.
fn bench_batch_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("bench_batch");
    group.sample_size(10);
    let rows = records(10_000);
    let (name, protocol) = protocols().remove(0);
    let mut rng = StdRng::seed_from_u64(5);
    let mut batch = ReportBatch::for_protocol(&*protocol);
    let dataset = Dataset::from_records(protocol.schema().clone(), &rows).unwrap();
    batch
        .encode_records(&*protocol, &dataset.view(), &mut rng)
        .unwrap();
    let reports: Vec<Report> = {
        let mut codes = Vec::new();
        (0..batch.n_reports())
            .map(|i| {
                batch.read_report(i, &mut codes).unwrap();
                Report::new(codes.clone())
            })
            .collect()
    };
    group.bench_function(BenchmarkId::new("ingest_10k_per_report", name), |b| {
        b.iter(|| {
            let mut acc = Accumulator::new(&protocol.channel_sizes()).unwrap();
            for report in &reports {
                acc.ingest(black_box(report)).unwrap();
            }
            acc.n_reports()
        })
    });
    group.bench_function(BenchmarkId::new("ingest_10k_batch", name), |b| {
        b.iter(|| {
            let mut acc = Accumulator::new(&protocol.channel_sizes()).unwrap();
            acc.ingest_batch(black_box(&batch)).unwrap();
            acc.n_reports()
        })
    });
    group.finish();
}

/// End-to-end sharded ingestion of 100k clients: the columnar batch
/// pipeline (row-major and zero-copy view inputs) against the scalar
/// reference path, all bit-identical under the shared seed.
fn bench_batch_sharded_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("bench_batch");
    group.sample_size(10);
    let rows = records(100_000);
    let (_, protocol) = protocols().remove(0);
    let dataset = Dataset::from_records(protocol.schema().clone(), &rows).unwrap();
    for &shards in &[2usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("sharded_100k_per_record", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut collector = ShardedCollector::new(protocol.clone(), shards).unwrap();
                    collector
                        .ingest_records_per_record(black_box(&rows), 3)
                        .unwrap();
                    collector.total_reports()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sharded_100k_batch_rows", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut collector = ShardedCollector::new(protocol.clone(), shards).unwrap();
                    collector.ingest_records(black_box(&rows), 3).unwrap();
                    collector.total_reports()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sharded_100k_batch_view", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut collector = ShardedCollector::new(protocol.clone(), shards).unwrap();
                    collector
                        .ingest_view(black_box(&dataset.view()), 3)
                        .unwrap();
                    collector.total_reports()
                })
            },
        );
    }
    group.finish();
}

/// The two buffers `crc64` guards on the collection path: the body of a
/// 4096-report RR-Independent batch frame (131,112 bytes, checksummed
/// once by the client and once by the server) and the 222-byte snapshot
/// of docs/FORMAT.md's worked example.
fn crc64_inputs() -> Vec<(&'static str, Vec<u8>)> {
    let (_, protocol) = protocols().remove(0);
    let dataset = Dataset::from_records(protocol.schema().clone(), &records(4096)).unwrap();
    let mut batch = ReportBatch::for_protocol(&*protocol);
    batch
        .encode_records(&*protocol, &dataset.view(), &mut StdRng::seed_from_u64(9))
        .unwrap();
    let mut frame = Vec::new();
    encode_batch_frame_into(&mut frame, 0, 0, &batch).unwrap();
    frame.truncate(frame.len() - WIRE_TRAILER_LEN);

    let schema = Schema::new(vec![Attribute::indexed("A", 3).unwrap()]).unwrap();
    let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    let snapshot = Snapshot::new(schema, spec, vec![vec![5, 3, 2]], 10)
        .unwrap()
        .to_bytes()
        .unwrap();
    vec![("batch_frame_body", frame), ("snapshot", snapshot)]
}

/// CRC-64/XZ throughput.  The criterion shim reports time per iteration
/// only, so each input is followed by its own ns/byte line.
fn bench_crc64(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc64");
    for (name, bytes) in crc64_inputs() {
        group.bench_with_input(BenchmarkId::new(name, bytes.len()), &bytes, |b, bytes| {
            b.iter(|| crc64(black_box(bytes)))
        });
        let reps = (64 << 20) / bytes.len();
        let start = Instant::now();
        for _ in 0..reps {
            black_box(crc64(black_box(&bytes)));
        }
        let ns_per_byte = start.elapsed().as_nanos() as f64 / (reps * bytes.len()) as f64;
        println!("  crc64/{name}: {ns_per_byte:.3} ns/byte");
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_shard_ingest,
    bench_sharded_ingest,
    bench_kway_merge,
    bench_snapshot,
    bench_batch_encode,
    bench_batch_ingest,
    bench_batch_sharded_end_to_end,
    bench_crc64
);
criterion_main!(benches);
