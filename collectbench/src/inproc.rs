//! `inproc_clusters`: the in-process collection path with no socket.
//!
//! RR-Clusters over the full Adult schema with `stream_sim`'s paired
//! clustering (joint channels of 144, 105, 30 and 4 cells).  Every round
//! generates fresh true records (`AdultSynthesizer::sample_record` →
//! `RecordsBuffer`), ingests them through the fused randomize-and-count
//! kernel (`ShardedCollector::ingest_view`), releases estimates with every
//! one-way marginal, and checkpoints at a fixed cadence.

use crate::trace::{ThreadTrace, Tracer};
use crate::wire::{snapshot_bytes, KEEP_PROBABILITY};
use crate::{derive_seed, window, Capture, Ctx, Pass, SETUPS};
use mdrr_data::{adult_schema, AdultSynthesizer, RecordsBuffer};
use mdrr_protocols::{Clustering, ProtocolSpec, RandomizationLevel};
use mdrr_stream::ShardedCollector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// True records generated and ingested per round.
const ROUND_RECORDS: usize = 8 * 1024;
/// A checkpoint is written after every this many rounds (and at the end).
const CHECKPOINT_EVERY: u64 = 32;

/// The mechanism: RR-Clusters over attribute pairs (0,1) (2,3) (4,5) (6,7).
fn spec() -> Result<ProtocolSpec, String> {
    let m = adult_schema().len();
    let clustering = Clustering::new((0..m / 2).map(|k| vec![2 * k, 2 * k + 1]).collect(), m)
        .map_err(|e| e.to_string())?;
    Ok(ProtocolSpec::Clusters {
        level: RandomizationLevel::KeepProbability(KEEP_PROBABILITY),
        clustering,
        equivalent_risk: false,
    })
}

/// Runs one timed pass of `inproc_clusters`.
pub fn run(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let schema = adult_schema();
    let synth = AdultSynthesizer::paper_sized();
    let mut built = None;
    for k in 0..SETUPS {
        // Set-up: protocol build, collector, checkpoint directory, and a
        // warm-up fill of the record buffer so the timed rounds reuse its
        // capacity.
        let t0 = ctx.now();
        let spec = spec()?;
        let protocol = spec.build_arc(&schema).map_err(|e| e.to_string())?;
        let collector =
            ShardedCollector::new(protocol, ctx.load_threads()).map_err(|e| e.to_string())?;
        let dir = ctx.scratch_dir("inproc_clusters", k);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut buffer = RecordsBuffer::new(schema.len()).map_err(|e| e.to_string())?;
        let mut warm = StdRng::seed_from_u64(derive_seed(ctx.seed, 300 + k as u64));
        for _ in 0..ROUND_RECORDS {
            buffer
                .push_record(&synth.sample_record(&mut warm))
                .map_err(|e| e.to_string())?;
        }
        buffer.clear();
        pass.setup_ns.push(ctx.now() - t0);
        if let Some((_, _, _, old_dir)) = built.replace((spec, collector, buffer, dir)) {
            std::fs::remove_dir_all(&old_dir)
                .map_err(|e| format!("cannot remove {}: {e}", old_dir.display()))?;
        }
    }
    let (spec, mut collector, mut buffer, dir) = built.ok_or("no set-up ran")?;

    let mut trace = ThreadTrace::on(tracer, "main");
    let mut rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 400));
    let span_ns = (ctx.seconds * 1e9) as u64;
    let cpu0 = crate::sys::process_cpu_nanos()?;
    let start = ctx.now();
    let deadline = start + span_ns;
    let mut reports = 0u64;
    let done = AtomicU64::new(0);
    trace.begin("load.inproc", 0);
    let (looped, bounds) = std::thread::scope(|s| {
        let sampler = s.spawn(|| window::sample(ctx, start, span_ns, &done));
        let looped = (|| {
            let mut round = 0u64;
            loop {
                let t0 = ctx.now();
                trace.begin("data.generate", round);
                buffer.clear();
                let generated = (0..ROUND_RECORDS)
                    .try_for_each(|_| buffer.push_record(&synth.sample_record(&mut rng)));
                trace.end(ROUND_RECORDS as u64);
                generated.map_err(|e| e.to_string())?;
                let view = buffer.view();
                let n = trace
                    .span("stream.ingest_view", round, ROUND_RECORDS as u64, || {
                        collector.ingest_view(&view, derive_seed(ctx.seed, 1_000 + round))
                    })
                    .map_err(|e| format!("ingest_view: {e}"))?;
                reports += n;
                done.store(reports, Ordering::Relaxed);
                let t1 = ctx.now();
                pass.acks.push((t1, t1 - t0));
                pass.attempted += 1;

                let t1 = ctx.now();
                trace.begin("load.release", round);
                let release = trace
                    .span("stream.snapshot", round, 1, || collector.snapshot())
                    .map_err(|e| format!("snapshot: {e}"));
                let marginals = release.and_then(|release| {
                    trace
                        .span("protocols.marginals", round, 1, || {
                            (0..schema.len()).try_for_each(|a| release.marginal(a).map(drop))
                        })
                        .map_err(|e| format!("marginal: {e}"))
                });
                trace.end(0);
                marginals?;
                let t2 = ctx.now();
                pass.releases.push((t2, t2 - t1));
                pass.attempted += 1;

                round += 1;
                let last = ctx.now() >= deadline;
                // The job ends durable: a final checkpoint always follows the
                // last round.
                if last || round.is_multiple_of(CHECKPOINT_EVERY) {
                    trace
                        .span("store.checkpoint", round, reports, || {
                            collector.checkpoint(&spec, &dir, None)
                        })
                        .map_err(|e| format!("checkpoint: {e}"))?;
                    pass.attempted += 1;
                }
                if last {
                    return Ok::<(), String>(());
                }
            }
        })();
        let bounds = sampler
            .join()
            .unwrap_or_else(|_| Err("the sampler thread panicked".into()));
        (looped, bounds)
    });
    trace.end(reports);
    let mut bounds = bounds?;
    bounds.push(window::boundary(ctx, &done)?);
    let end = ctx.now();
    let cpu1 = crate::sys::process_cpu_nanos()?;
    trace.finish();
    pass.bounds = bounds;
    if let Err(e) = looped {
        pass.fail(e);
    }

    pass.reports = reports;
    pass.wall_ns = end - start;
    pass.cpu_ns = cpu1.saturating_sub(cpu0);
    pass.load_threads = 1;

    // Correctness gate: the live collector counted every generated
    // record, and the last checkpoint restores to the live shards.
    if collector.total_reports() != reports {
        pass.fail(format!(
            "collector holds {} reports, {reports} were ingested",
            collector.total_reports()
        ));
    }
    match ShardedCollector::restore(&dir) {
        Ok(restored) if restored.collector.shards() == collector.shards() => {}
        Ok(_) => pass.fail("restored checkpoint differs from the live shards".to_string()),
        Err(e) => pass.fail(format!("restore: {e}")),
    }
    pass.figures = vec![("load.round_reports", ROUND_RECORDS as f64, "count")];

    if tracer.is_some() {
        // The replay loops see the reports of the last round as the wire
        // would carry them.
        let protocol = collector.protocol().clone();
        let mut batches = Vec::new();
        let mut rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 500));
        let view = buffer.view();
        let batch_size = 4096;
        for (i, start) in (0..view.n_records()).step_by(batch_size).enumerate() {
            let chunk = view
                .slice(start..(start + batch_size).min(view.n_records()))
                .map_err(|e| e.to_string())?;
            let mut batch = mdrr_stream::ReportBatch::for_protocol(&*protocol);
            protocol
                .encode_batch(&chunk, &mut rng, batch.channels_mut())
                .map_err(|e| e.to_string())?;
            batches.push((i as u64, (i % collector.n_shards()) as u32, batch));
        }
        pass.capture_snapshot = snapshot_bytes(&schema, &spec, &collector)?;
        pass.capture = Some(Capture {
            spec,
            schema,
            protocol,
            records: buffer,
            batches,
            collector,
        });
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(pass)
}
