//! Replay and isolated loops: every layer the benchmark cannot time in
//! place gets a ledger row by timing the same public function on the
//! bytes and records the traced pass actually produced.
//!
//! Server-side layers run inside the daemon's session threads, which the
//! benchmark does not touch.  The session reads a frame (`read_frame`,
//! which verifies the CRC), decodes its payload, counts it under the
//! collector lock and encodes an acknowledgement; here the captured batch
//! frames — byte-identical to what `WireClient::send_batch` wrote, since
//! both come from `encode_frame(encode_batch_payload(seq, shard, batch))`
//! — go through the same calls from an in-memory reader.

use crate::Capture;
use mdrr_store::{crc64, Snapshot};
use mdrr_stream::wire::{self, FrameType};
use mdrr_stream::{ReportBatch, ShardedCollector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

/// Each loop repeats until it has run this long (and at least
/// [`MIN_REPS`] times); the reported figure is the median repetition.
const MIN_LOOP_NS: u64 = 40_000_000;
/// Fewest repetitions of any loop.
const MIN_REPS: usize = 5;

/// Times `rep` (which returns the nanoseconds of its timed part) until
/// the loop budget is spent; returns the median repetition's time divided
/// by `units`.
fn per_unit(units: u64, mut rep: impl FnMut() -> Result<u64, String>) -> Result<f64, String> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_REPS || (started.elapsed().as_nanos() as u64) < MIN_LOOP_NS {
        times.push(rep()? as f64);
    }
    let median = crate::stats::median_f64(&times).ok_or("no repetitions")?;
    Ok(median / units.max(1) as f64)
}

/// Times one closure call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// Runs every replay and isolated loop over one capture.  Returns the
/// figures by ledger name; a replayed byte or count that differs from
/// the capture is an error.
pub fn run(cap: &Capture, snapshot: &[u8]) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut out = BTreeMap::new();
    let batches = &cap.batches;
    if batches.is_empty() {
        return Err("nothing captured to replay".to_string());
    }
    let reports: u64 = batches.iter().map(|(_, _, b)| b.n_reports() as u64).sum();
    let n_frames = batches.len() as u64;

    // Client side: payload encoding, then framing (header + CRC).
    let payloads = batches
        .iter()
        .map(|(seq, shard, b)| wire::encode_batch_payload(*seq, *shard, b))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    out.insert(
        "stream.wire.encode_payload_ns_per_report",
        per_unit(reports, || {
            let (r, ns) = timed(|| {
                for (seq, shard, b) in batches {
                    black_box(wire::encode_batch_payload(*seq, *shard, b)?);
                }
                Ok::<(), wire::WireError>(())
            });
            r.map(|()| ns).map_err(|e| e.to_string())
        })?,
    );
    let frames = payloads
        .iter()
        .map(|p| wire::encode_frame(FrameType::Batch, p))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    out.insert(
        "stream.wire.encode_frame_ns_per_report",
        per_unit(reports, || {
            let (r, ns) = timed(|| {
                for p in &payloads {
                    black_box(wire::encode_frame(FrameType::Batch, p)?);
                }
                Ok::<(), wire::WireError>(())
            });
            r.map(|()| ns).map_err(|e| e.to_string())
        })?,
    );
    let frame_bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();
    out.insert(
        "stream.wire.bytes_per_report",
        frame_bytes as f64 / reports as f64,
    );

    // The checksum alone, on the batch frames and on snapshot bytes.
    out.insert(
        "store.crc64_ns_per_byte",
        per_unit(frame_bytes, || {
            Ok(timed(|| {
                for f in &frames {
                    black_box(crc64(black_box(f)));
                }
            })
            .1)
        })?,
    );
    out.insert(
        "store.crc64_snapshot_ns_per_byte",
        per_unit(snapshot.len() as u64, || {
            Ok(timed(|| black_box(crc64(black_box(snapshot)))).1)
        })?,
    );

    // Server side: read (header check + CRC verify) from one stream of
    // back-to-back frames, as a session reads its socket.
    let stream: Vec<u8> = frames.concat();
    let mut buf = Vec::new();
    let mut never_blocks = |_: usize| Ok(());
    {
        let mut reader = Cursor::new(&stream);
        for f in &frames {
            match wire::read_frame(&mut reader, &mut buf, &mut never_blocks) {
                Ok(Some(FrameType::Batch)) if buf == *f => {}
                other => return Err(format!("replayed read_frame disagrees: {other:?}")),
            }
        }
    }
    out.insert(
        "stream.wire.read_frame_ns_per_report",
        per_unit(reports, || {
            let mut reader = Cursor::new(&stream);
            let (r, ns) = timed(|| {
                while wire::read_frame(&mut reader, &mut buf, &mut never_blocks)?.is_some() {}
                Ok::<(), wire::WireError>(())
            });
            r.map(|()| ns).map_err(|e| e.to_string())
        })?,
    );

    let mut decoded = ReportBatch::for_protocol(&*cap.protocol);
    for ((seq, shard, batch), f) in batches.iter().zip(&frames) {
        let header = wire::decode_batch_payload(wire::frame_payload(f), &mut decoded)
            .map_err(|e| e.to_string())?;
        if header.seq != *seq || header.shard != *shard || decoded != *batch {
            return Err("replayed decode_batch_payload disagrees with the capture".to_string());
        }
    }
    out.insert(
        "stream.wire.decode_ns_per_report",
        per_unit(reports, || {
            let (r, ns) = timed(|| {
                for f in &frames {
                    wire::decode_batch_payload(wire::frame_payload(f), &mut decoded)?;
                }
                Ok::<(), wire::WireError>(())
            });
            r.map(|()| ns).map_err(|e| e.to_string())
        })?,
    );

    let n_shards = cap.collector.n_shards();
    out.insert(
        "stream.ingest_batch_ns_per_report",
        per_unit(reports, || {
            let mut collector =
                ShardedCollector::new(cap.protocol.clone(), n_shards).map_err(|e| e.to_string())?;
            let (r, ns) = timed(|| {
                for (_, shard, b) in batches {
                    collector.ingest_batch(*shard as usize % n_shards, b)?;
                }
                Ok::<(), mdrr_stream::MdrrError>(())
            });
            r.map_err(|e| e.to_string())?;
            if collector.total_reports() != reports {
                return Err("replayed ingest_batch lost reports".to_string());
            }
            Ok(ns)
        })?,
    );
    out.insert(
        "stream.wire.ack_encode_ns_per_frame",
        per_unit(n_frames, || {
            let (r, ns) = timed(|| {
                for (seq, _, _) in batches {
                    let ack = wire::encode_batch_ack(*seq, reports);
                    black_box(wire::encode_frame(FrameType::BatchAck, &ack)?);
                }
                Ok::<(), wire::WireError>(())
            });
            r.map(|()| ns).map_err(|e| e.to_string())
        })?,
    );

    // The read side: decode, release, marginals, and the in-process
    // snapshot, on the run's final state.
    let decoded_snapshot = Snapshot::from_bytes(snapshot).map_err(|e| e.to_string())?;
    out.insert(
        "store.snapshot_decode_us",
        per_unit(1, || {
            let (r, ns) = timed(|| Snapshot::from_bytes(black_box(snapshot)).map(black_box));
            r.map(|_| ns).map_err(|e| e.to_string())
        })? / 1e3,
    );
    let counts = decoded_snapshot.counts();
    let n = decoded_snapshot.n_reports() as usize;
    out.insert(
        "protocols.release_from_counts_us",
        per_unit(1, || {
            let (r, ns) = timed(|| cap.protocol.release_from_counts(counts, n));
            r.map(|_| ns).map_err(|e| e.to_string())
        })? / 1e3,
    );
    let release = cap
        .protocol
        .release_from_counts(counts, n)
        .map_err(|e| e.to_string())?;
    let m = cap.schema.len();
    out.insert(
        "protocols.marginals_us",
        per_unit(1, || {
            let (r, ns) = timed(|| (0..m).try_for_each(|a| release.marginal(a).map(drop)));
            r.map(|()| ns).map_err(|e| e.to_string())
        })? / 1e3,
    );
    out.insert(
        "stream.snapshot_us",
        per_unit(1, || {
            let (r, ns) = timed(|| cap.collector.snapshot().map(black_box));
            r.map(|_| ns).map_err(|e| e.to_string())
        })? / 1e3,
    );

    // Isolated loops over the run's own true records: the client-side
    // randomizer, and the in-process fused randomize-and-count path.
    let view = cap.records.view();
    let records = view.n_records() as u64;
    let mut batch = ReportBatch::for_protocol(&*cap.protocol);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    out.insert(
        "protocols.encode_batch_ns_per_report",
        per_unit(records, || {
            batch.clear();
            let (r, ns) = timed(|| {
                cap.protocol
                    .encode_batch(&view, &mut rng, batch.channels_mut())
            });
            r.map(|()| ns).map_err(|e| e.to_string())
        })?,
    );
    out.insert(
        "stream.ingest_view_ns_per_report",
        per_unit(records, || {
            let mut collector =
                ShardedCollector::new(cap.protocol.clone(), n_shards).map_err(|e| e.to_string())?;
            let (r, ns) = timed(|| collector.ingest_view(&view, 0x5eed));
            r.map(|_| ns).map_err(|e| e.to_string())
        })?,
    );
    Ok(out)
}
