//! A collector daemon and its clients, end to end over loopback TCP.
//!
//! The deployment shape of the paper's local-anonymization model: each
//! respondent randomizes her own record on her own device, and only the
//! randomized report ever crosses the network.  Here one in-process
//! `mdrr-serve` daemon plays the collector and three `WireClient`
//! threads play respondent populations:
//!
//! 1. bind a [`CollectorServer`] on an ephemeral loopback port;
//! 2. each client dials it, handshakes schema + protocol spec, locally
//!    randomizes its records and streams them as length-framed,
//!    CRC-checked batch frames (`docs/WIRE.md`) under the server's
//!    backpressure window;
//! 3. drain the daemon to an `mdrr-store` checkpoint and prove zero
//!    accepted-report loss: every acknowledged report is present in the
//!    drained collector, the manifest, and the restored-from-disk state;
//! 4. estimate marginals from the restored counts, exactly as a local
//!    run would.
//!
//! ```text
//! cargo run --release --example remote_collector
//! ```

use mdrr::obs::MonotonicClock;
use mdrr::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const CLIENTS: usize = 3;
const RECORDS_PER_CLIENT: usize = 10_000;
const BATCH_REPORTS: usize = 1_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The shared contract: schema + declarative protocol spec.  The
    // server refuses (with a typed SPEC_MISMATCH) any client whose
    // handshake disagrees, so a misconfigured population cannot silently
    // poison the counts.
    let schema = adult_schema();
    let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    let protocol = spec.build_arc(&schema)?;

    let clock = Arc::new(MonotonicClock::new());
    let server = mdrr::serve::CollectorServer::bind(
        "127.0.0.1:0",
        &schema,
        &spec,
        ServeConfig::default(),
        clock.clone(),
        None,
    )?;
    let addr = server.local_addr();
    println!("collector daemon listening on {addr}");

    // Each "population" thread randomizes locally and streams batches.
    let workers: Vec<_> = (0..CLIENTS as u64)
        .map(|c| {
            let schema = schema.clone();
            let spec = spec.clone();
            let protocol = protocol.clone();
            type ClientError = Box<dyn std::error::Error + Send + Sync>;
            std::thread::spawn(move || -> Result<u64, ClientError> {
                let mut client = WireClient::connect(
                    addr,
                    schema,
                    spec,
                    ClientConfig::default(),
                    Arc::new(MonotonicClock::new()),
                )?;
                let mut rng = StdRng::seed_from_u64(100 + c);
                let synthesizer = AdultSynthesizer::paper_sized();
                let mut batch = ReportBatch::for_protocol(protocol.as_ref());
                for i in 0..RECORDS_PER_CLIENT {
                    let record = synthesizer.sample_record(&mut rng);
                    let codes = protocol.encode_record(&record, &mut rng)?;
                    batch.push(&codes)?;
                    if batch.n_reports() == BATCH_REPORTS || i == RECORDS_PER_CLIENT - 1 {
                        client.send_batch(c as u32, &batch)?;
                        batch.clear();
                    }
                }
                client.flush()?;
                let acked = client.acked_reports();
                client.close()?;
                Ok(acked)
            })
        })
        .collect();
    let mut acked_total = 0u64;
    for (c, worker) in workers.into_iter().enumerate() {
        let acked = worker
            .join()
            .expect("client thread panicked")
            .map_err(|e| -> Box<dyn std::error::Error> { e })?;
        println!("client {c}: {acked} reports acknowledged");
        acked_total += acked;
    }

    // Graceful shutdown: stop accepting, cut streaming sessions off with
    // a typed DRAINING error, and persist every counted report.
    let dir = std::env::temp_dir().join(format!("mdrr-remote-example-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (manifest, drained) = server.drain_to_checkpoint(&dir, Some("remote_collector example"))?;
    println!(
        "drained to {}: {} reports across {} shard files",
        dir.display(),
        manifest.total_reports,
        manifest.shard_files.len()
    );
    assert_eq!(drained.acked_reports, acked_total);
    assert_eq!(manifest.total_reports, acked_total);

    // Anyone holding the checkpoint can resume or estimate — the network
    // leg changed nothing about the sufficient statistics.
    let restored = ShardedCollector::restore(&dir)?;
    assert_eq!(restored.collector.total_reports(), acked_total);
    let snapshot = restored.collector.snapshot()?;
    println!("\nestimated marginals from the restored checkpoint:");
    for (j, attribute) in (0..schema.len()).zip(schema.attributes()) {
        let estimates: Vec<String> = (0..attribute.cardinality())
            .map(|v| {
                snapshot
                    .frequency(&[(j, v as u32)])
                    .map(|f| format!("{f:.3}"))
                    .unwrap_or_else(|e| format!("<{e}>"))
            })
            .collect();
        println!("  {:>16}: {}", attribute.name(), estimates.join(" "));
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
