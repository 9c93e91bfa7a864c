//! End-to-end loopback equivalence: the network is transparent.
//!
//! N clients stream K batches each through a real TCP socket; the same
//! batches, routed with the same `hint % n_shards` rule, are fed to an
//! in-process [`ShardedCollector`] via `ingest_batch`.  For all four
//! `ProtocolSpec` shapes, the drained server's shards must equal the
//! reference's exactly, and checkpoints of both must be *byte-identical*
//! file for file — counts are exact commutative sums, so thread
//! interleaving on the server cannot change the result.  A wide schema
//! runs the same check with 2- and 4-byte code lanes on the wire.

mod common;

use mdrr_data::{Attribute, Schema};
use mdrr_obs::MonotonicClock;
use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
use mdrr_serve::ServeConfig;
use mdrr_store::Snapshot;
use mdrr_stream::wire::{self, BatchView};
use mdrr_stream::{ClientConfig, ReportBatch, ShardedCollector, WireClient};
use std::collections::BTreeSet;
use std::sync::Arc;

const N_CLIENTS: usize = 3;
const K_BATCHES: usize = 4;
const REPORTS_PER_BATCH: usize = 40;
const N_SHARDS: usize = 3;

#[test]
fn socket_ingest_equals_in_process_ingest_for_every_spec() {
    let schema = common::schema();
    for (spec_index, spec) in common::all_specs().into_iter().enumerate() {
        assert_socket_equals_in_process(&schema, &spec, spec_index);
    }
}

/// 300 × 400 categories: RR-Independent's channels need 2 bytes per
/// code, and RR-Joint's 120 000 cells need 4.
#[test]
fn wide_domains_cross_the_wire_at_2_and_4_bytes() {
    let schema = Schema::new(vec![
        Attribute::indexed("A", 300).unwrap(),
        Attribute::indexed("B", 400).unwrap(),
    ])
    .unwrap();
    let level = RandomizationLevel::KeepProbability(0.7);
    let mut widths = BTreeSet::new();
    for (i, spec) in [
        ProtocolSpec::independent(level.clone()),
        ProtocolSpec::joint(level),
    ]
    .into_iter()
    .enumerate()
    {
        widths.extend(assert_socket_equals_in_process(&schema, &spec, 100 + i));
    }
    assert_eq!(widths, BTreeSet::from([2, 4]));
}

/// Streams `N_CLIENTS × K_BATCHES` deterministic batches of `spec` over
/// sockets and in process, and asserts equal shards and byte-identical
/// checkpoints.  Returns the code widths the batches went at.
fn assert_socket_equals_in_process(
    schema: &Schema,
    spec: &ProtocolSpec,
    spec_index: usize,
) -> BTreeSet<u8> {
    let protocol = spec.build_arc(schema).unwrap();
    let sizes = protocol.channel_sizes();

    // The shared seed: client c's batch b is deterministic_batch with
    // seed (spec, c, b) and shard hint c*K+b, on both sides.
    let batches: Vec<Vec<ReportBatch>> = (0..N_CLIENTS)
        .map(|c| {
            (0..K_BATCHES)
                .map(|b| {
                    let seed = (spec_index * 1000 + c * 100 + b) as u64;
                    common::deterministic_batch(&sizes, seed, REPORTS_PER_BATCH)
                })
                .collect()
        })
        .collect();

    // Reference: in-process ingestion, single thread.
    let mut reference = ShardedCollector::new(protocol.clone(), N_SHARDS).unwrap();
    for (c, client_batches) in batches.iter().enumerate() {
        for (b, batch) in client_batches.iter().enumerate() {
            let hint = (c * K_BATCHES + b) as u32;
            reference
                .ingest_batch(hint as usize % N_SHARDS, batch)
                .unwrap();
        }
    }

    // Same reports through real sockets, concurrently.
    let config = ServeConfig {
        n_shards: N_SHARDS,
        ..ServeConfig::default()
    };
    let (server, _obs) = common::start_server(schema, spec, config);
    let addr = server.local_addr();
    let workers: Vec<_> = batches
        .iter()
        .enumerate()
        .map(|(c, client_batches)| {
            let schema = schema.clone();
            let spec = spec.clone();
            let client_batches = client_batches.clone();
            std::thread::spawn(move || {
                let mut client = WireClient::connect(
                    addr,
                    schema,
                    spec,
                    ClientConfig::default(),
                    Arc::new(MonotonicClock::new()),
                )
                .unwrap();
                for (b, batch) in client_batches.iter().enumerate() {
                    let hint = (c * K_BATCHES + b) as u32;
                    client.send_batch(hint, batch).unwrap();
                }
                client.flush().unwrap();
                let acked = client.acked_reports();
                // close() returns the *server-wide* total, which is
                // racy across clients; only bound it from below.
                assert!(client.close().unwrap() >= acked);
                acked
            })
        })
        .collect();
    for worker in workers {
        assert_eq!(
            worker.join().unwrap(),
            (K_BATCHES * REPORTS_PER_BATCH) as u64
        );
    }
    let drained = server.drain().unwrap();
    assert_eq!(
        drained.acked_reports,
        (N_CLIENTS * K_BATCHES * REPORTS_PER_BATCH) as u64,
        "spec #{spec_index} lost acknowledged reports"
    );

    // Shard-for-shard equality of the live state…
    assert_eq!(
        drained.collector.shards(),
        reference.shards(),
        "spec #{spec_index}: socket and in-process ingestion diverged"
    );

    // …and byte-identical checkpoints on disk.
    let socket_dir = common::scratch_dir("loopback-socket");
    let local_dir = common::scratch_dir("loopback-local");
    drained.checkpoint(&socket_dir, Some("loopback")).unwrap();
    reference
        .checkpoint(spec, &local_dir, Some("loopback"))
        .unwrap();
    let mut socket_files: Vec<_> = std::fs::read_dir(&socket_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    socket_files.sort();
    let mut local_files: Vec<_> = std::fs::read_dir(&local_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    local_files.sort();
    assert_eq!(socket_files, local_files);
    for name in &socket_files {
        if *name == *mdrr_stream::MANIFEST_FILE {
            // The manifest embeds a wall-clock timestamp; compare the
            // shard snapshot files, which are the durable counts.
            continue;
        }
        let socket_bytes = std::fs::read(socket_dir.join(name)).unwrap();
        let local_bytes = std::fs::read(local_dir.join(name)).unwrap();
        assert_eq!(
            socket_bytes, local_bytes,
            "spec #{spec_index}: checkpoint file {name:?} differs"
        );
    }
    std::fs::remove_dir_all(&socket_dir).ok();
    std::fs::remove_dir_all(&local_dir).ok();

    batches
        .iter()
        .flatten()
        .flat_map(|batch| {
            let payload = wire::encode_batch_payload(0, 0, batch).unwrap();
            BatchView::parse(&payload, sizes.len())
                .unwrap()
                .widths()
                .to_vec()
        })
        .collect()
}

/// The snapshot query frame returns the merged state in the durable
/// `docs/FORMAT.md` encoding, equal to merging the reference in process.
#[test]
fn snapshot_query_returns_the_merged_state() {
    let schema = common::schema();
    let spec = common::all_specs().into_iter().next().unwrap();
    let protocol = spec.build_arc(&schema).unwrap();
    let sizes = protocol.channel_sizes();

    let (server, _obs) = common::start_server(&schema, &spec, ServeConfig::default());
    let mut client = WireClient::connect(
        server.local_addr(),
        schema.clone(),
        spec.clone(),
        ClientConfig::default(),
        Arc::new(MonotonicClock::new()),
    )
    .unwrap();

    let mut reference = ShardedCollector::new(protocol, 4).unwrap();
    for b in 0..3 {
        let batch = common::deterministic_batch(&sizes, 7 + b as u64, 25);
        client.send_batch(b, &batch).unwrap();
        reference.ingest_batch(b as usize % 4, &batch).unwrap();
    }
    client.flush().unwrap();

    let stats = client.stats().unwrap();
    assert_eq!(stats.total_reports, 75);
    assert_eq!(stats.n_shards, 4);
    assert_eq!(stats.shard_reports.iter().sum::<u64>(), 75);
    assert!(stats.quarantined.is_empty());

    let bytes = client.snapshot_bytes().unwrap();
    let over_wire = Snapshot::from_bytes(&bytes).unwrap();
    let merged = reference.merged().unwrap();
    assert_eq!(over_wire.n_reports(), merged.n_reports());
    assert_eq!(over_wire.counts(), merged.counts());
    assert_eq!(over_wire.schema(), &schema);
    assert_eq!(over_wire.spec(), &spec);

    client.close().unwrap();
    let drained = server.drain().unwrap();
    assert_eq!(drained.acked_reports, 75);
    assert_eq!(drained.connections, 1);
}
