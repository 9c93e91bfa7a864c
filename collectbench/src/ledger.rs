//! Turns passes into the named metrics, the per-layer ledger, the
//! human-readable report, the results file and the final JSON line.

use crate::stats::{median_f64, LatencySummary};
use crate::trace::{TraceSummary, Tracer};
use crate::window::{grouped_percentile_ms, Windows};
use crate::{run_pass, sys, Ctx, Pass};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Acknowledgement latencies per group for the median.
const ACK_GROUP: usize = 500;
/// Release latencies per group.
const RELEASE_GROUP: usize = 100;

/// How a ledger row is measured.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A span the benchmark recorded in place, normalized as given; falls
    /// back to the replay figure of the same name when the span never ran
    /// in this workload.
    Span(&'static str, Norm),
    /// A replay or isolated loop.
    Replay,
    /// A count or ratio the pass measured in place (replay as fallback).
    Figure,
    /// Derived from the pass and the replays (see `traced`).
    Derived,
}

/// How a span's totals become the row's value.
#[derive(Debug, Clone, Copy)]
enum Norm {
    /// ns per work unit the spans processed.
    PerUnit,
    /// ns per report of the pass.
    PerReport,
    /// ns per call.
    CallNs,
    /// µs per call.
    CallUs,
    /// ms per call.
    CallMs,
}

/// One row of the per-layer ledger: what it measures and which
/// end-to-end metric, on which workload, it should move.
#[derive(Debug, Clone, Copy)]
struct Layer {
    name: &'static str,
    unit: &'static str,
    call: &'static str,
    moves: &'static str,
    on: &'static str,
    source: Source,
    /// Reported in the traced run's JSON line (defined on every workload).
    json: bool,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    call: &'static str,
    moves: &'static str,
    on: &'static str,
    source: Source,
    json: bool,
) -> Layer {
    Layer {
        name,
        unit,
        call,
        moves,
        on,
        source,
        json,
    }
}

/// The per-layer ledger, one row per layer boundary (layer = crate or
/// module of the workspace).
const LAYERS: &[Layer] = &[
    layer(
        "data.generate_ns_per_record",
        "ns",
        "AdultSynthesizer::sample_record + RecordsBuffer::push_record",
        "reports_per_s (setup_s on wire_*)",
        "inproc_clusters",
        Source::Span("data.generate", Norm::PerUnit),
        true,
    ),
    layer(
        "protocols.encode_batch_ns_per_report",
        "ns",
        "Protocol::encode_batch",
        "reports_per_s",
        "wire_bulk",
        Source::Span("protocols.encode_batch", Norm::PerUnit),
        true,
    ),
    layer(
        "stream.ingest_view_ns_per_report",
        "ns",
        "ShardedCollector::ingest_view",
        "reports_per_s",
        "inproc_clusters",
        Source::Span("stream.ingest_view", Norm::PerUnit),
        true,
    ),
    layer(
        "stream.wire.encode_payload_ns_per_report",
        "ns",
        "wire::encode_batch_payload (replay)",
        "reports_per_s",
        "wire_bulk",
        Source::Replay,
        true,
    ),
    layer(
        "stream.wire.encode_frame_ns_per_report",
        "ns",
        "wire::encode_frame (replay)",
        "reports_per_s / cpu_us_per_report",
        "wire_bulk / wire_paced",
        Source::Replay,
        true,
    ),
    layer(
        "store.crc64_ns_per_byte",
        "ns",
        "mdrr_store::crc64 on the captured batch frames (replay)",
        "reports_per_s / cpu_us_per_report",
        "wire_bulk / wire_paced",
        Source::Replay,
        true,
    ),
    layer(
        "store.crc64_snapshot_ns_per_byte",
        "ns",
        "mdrr_store::crc64 on the captured snapshot bytes (replay)",
        "release_p50_ms",
        "wire_paced",
        Source::Replay,
        false,
    ),
    layer(
        "stream.client.send_ns_per_frame",
        "ns",
        "WireClient::send_batch (in place)",
        "reports_per_s / ack_p50_ms",
        "wire_bulk / wire_paced",
        Source::Span("stream.client.send", Norm::CallNs),
        false,
    ),
    layer(
        "stream.client.ack_wait_ns_per_report",
        "ns",
        "WireClient::wait_ack (in place)",
        "reports_per_s / ack_p50_ms",
        "wire_bulk / wire_paced",
        Source::Span("stream.client.ack_wait", Norm::PerReport),
        false,
    ),
    layer(
        "stream.client.window_full_frac",
        "fraction",
        "sends made with in_flight() == window()",
        "reports_per_s",
        "wire_bulk",
        Source::Figure,
        false,
    ),
    layer(
        "stream.wire.read_frame_ns_per_report",
        "ns",
        "wire::read_frame over an in-memory reader of the captured frames (replay)",
        "reports_per_s",
        "wire_bulk",
        Source::Replay,
        true,
    ),
    layer(
        "stream.wire.decode_ns_per_report",
        "ns",
        "wire::decode_batch_payload (replay)",
        "ack_p50_ms",
        "wire_paced",
        Source::Replay,
        true,
    ),
    layer(
        "stream.ingest_batch_ns_per_report",
        "ns",
        "ShardedCollector::ingest_batch (replay, same shape)",
        "ack_p50_ms",
        "wire_paced",
        Source::Replay,
        true,
    ),
    layer(
        "stream.wire.ack_encode_ns_per_frame",
        "ns",
        "wire::encode_batch_ack + encode_frame (replay)",
        "ack_p50_ms",
        "wire_paced",
        Source::Replay,
        true,
    ),
    layer(
        "stream.wire.bytes_per_report",
        "B",
        "batch frame bytes ÷ reports",
        "cpu_us_per_report",
        "wire_bulk, wire_paced",
        Source::Figure,
        true,
    ),
    layer(
        "stream.client.snapshot_query_us",
        "us",
        "WireClient::snapshot_bytes",
        "release_p50_ms",
        "wire_paced",
        Source::Span("stream.client.snapshot_query", Norm::CallUs),
        false,
    ),
    layer(
        "store.snapshot_decode_us",
        "us",
        "Snapshot::from_bytes",
        "release_p50_ms",
        "wire_paced",
        Source::Span("store.snapshot_decode", Norm::CallUs),
        true,
    ),
    layer(
        "stream.snapshot_us",
        "us",
        "ShardedCollector::snapshot",
        "release_p50_ms",
        "inproc_clusters",
        Source::Span("stream.snapshot", Norm::CallUs),
        true,
    ),
    layer(
        "protocols.release_from_counts_us",
        "us",
        "Snapshot::release / Protocol::release_from_counts",
        "release_p50_ms",
        "wire_paced, inproc_clusters",
        Source::Span("protocols.release_from_counts", Norm::CallUs),
        true,
    ),
    layer(
        "protocols.marginals_us",
        "us",
        "Release::marginal(j) for every attribute",
        "release_p50_ms",
        "wire_paced, inproc_clusters",
        Source::Span("protocols.marginals", Norm::CallUs),
        true,
    ),
    layer(
        "store.checkpoint_ms",
        "ms",
        "ShardedCollector::checkpoint",
        "reports_per_s",
        "inproc_clusters",
        Source::Span("store.checkpoint", Norm::CallMs),
        true,
    ),
    layer(
        "serve.drain_ms",
        "ms",
        "CollectorServer::drain (the first half of drain_to_checkpoint)",
        "reports_per_s",
        "wire_bulk",
        Source::Span("serve.drain", Norm::CallMs),
        false,
    ),
    layer(
        "serve.frames_total",
        "count",
        "ServeObs::registry().snapshot()",
        "error_rate",
        "wire_bulk, wire_paced",
        Source::Figure,
        false,
    ),
    layer(
        "serve.bytes_read_total",
        "count",
        "ServeObs::registry().snapshot()",
        "error_rate",
        "wire_bulk, wire_paced",
        Source::Figure,
        false,
    ),
    layer(
        "serve.rejects_total",
        "count",
        "ServeObs::registry().snapshot()",
        "error_rate",
        "wire_bulk, wire_paced",
        Source::Figure,
        false,
    ),
    layer(
        "serve.unattributed_frac",
        "fraction",
        "(sessions × wall − replayed session work) ÷ (sessions × wall): socket, scheduling, \
         collector-lock wait",
        "ack_p99_ms / reports_per_s",
        "wire_paced / wire_bulk",
        Source::Derived,
        false,
    ),
    layer(
        "trace.overhead_ratio",
        "ratio",
        "traced ÷ untraced reports_per_s of the same run",
        "(none: tracing is off in end-to-end runs)",
        "all",
        Source::Derived,
        true,
    ),
];

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct WorkloadResult {
    workload: String,
    seed: u64,
    trace: bool,
    /// The metrics of the final JSON line.
    metrics: Vec<Metric>,
    /// Further metrics printed by name (not in the JSON line).
    extra: Vec<Metric>,
    /// Ledger rows as JSON objects, for the results file.
    ledger_json: Vec<String>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// The human-readable report.
    pub human: String,
    provenance: Vec<(&'static str, String)>,
}

impl WorkloadResult {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Writes the results file (provenance, every metric, the ledger).
    pub fn write(&self, dir: &Path) -> Result<(), String> {
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            self.workload,
            self.seed,
            u8::from(self.trace)
        ));
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"workload\": {},", json_str(&self.workload));
        let _ = writeln!(s, "  \"trace\": {},", u8::from(self.trace));
        let _ = writeln!(s, "  \"provenance\": {{");
        let prov: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("    {}: {}", json_str(k), json_str(v)))
            .collect();
        let _ = writeln!(s, "{}\n  }},", prov.join(",\n"));
        let _ = writeln!(s, "  \"metrics\": {},", metrics_json(&self.metrics));
        let _ = writeln!(s, "  \"extra\": {},", metrics_json(&self.extra));
        let _ = writeln!(
            s,
            "  \"ledger\": [\n    {}\n  ],",
            self.ledger_json.join(",\n    ")
        );
        let _ = writeln!(s, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(s, "  \"failed\": {},", self.failed);
        let problems: Vec<String> = self.problems.iter().map(|p| json_str(p)).collect();
        let _ = writeln!(s, "  \"problems\": [{}]", problems.join(", "));
        s.push_str("}\n");
        std::fs::write(&path, s).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit kept (non-finite values become null).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The last line of standard output.
pub fn final_line(results: &[WorkloadResult], prefixed: bool) -> String {
    let correct = results.iter().all(WorkloadResult::correct);
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let metrics: Vec<Metric> = results
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| Metric {
                name: if prefixed {
                    format!("{}.{}", r.workload, m.name)
                } else {
                    m.name.clone()
                },
                ..m.clone()
            })
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(&metrics)
    )
}

/// Provenance of every result.
fn provenance(ctx: &Ctx, workload: &str, trace: bool) -> Vec<(&'static str, String)> {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    vec![
        ("workload", workload.to_string()),
        ("seed", ctx.seed.to_string()),
        ("seconds", ctx.seconds.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("nproc", sys::nproc().to_string()),
        ("cpu_model", sys::cpu_model()),
        ("git_revision", sys::git_revision(repo_root)),
        ("rustc", sys::rustc_version().to_string()),
    ]
}

/// The end-to-end metrics of an untraced pass: those in the JSON line
/// (defined and non-zero on every workload) and those printed only.
/// Rates and costs are medians over the timed section's windows, latency
/// medians are medians over groups of samples (see [`crate::window`]).
fn end_to_end(pass: &mut Pass, peak_rss_mib: f64) -> (Vec<Metric>, Vec<Metric>, Vec<String>) {
    let mut notes = Vec::new();
    let mut metrics = Vec::new();
    let mut extra = Vec::new();
    let windows = Windows::new(&pass.bounds);
    let rates = windows.rates();
    notes.push(format!(
        "window rates (reports/s): {}",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let mut put = |name: &str, values: Vec<f64>, unit: &'static str, notes: &mut Vec<String>| {
        match median_f64(&values) {
            Some(v) => metrics.push(metric(name, v, unit)),
            None => notes.push(format!("{name} withheld: no window or group supports it")),
        }
    };
    put("reports_per_s", rates, "reports/s", &mut notes);
    put(
        "cpu_us_per_report",
        windows.cpu_us_per_report(),
        "us",
        &mut notes,
    );
    put(
        "ack_p50_ms",
        grouped_percentile_ms(&pass.acks, ACK_GROUP, 50.0, false),
        "ms",
        &mut notes,
    );
    // The tail is exact over the whole run.  It is printed, not part of
    // the JSON line: on a shared machine, stalls of the whole virtual
    // machine (10–30 ms, several per minute) decide the sub-millisecond
    // p99 of `wire_paced`, which then varies by a third between runs.
    let mut ack_ns: Vec<u64> = pass.acks.iter().map(|a| a.1).collect();
    let ack = LatencySummary::from_nanos(&mut ack_ns);
    notes.push(format!("ack latency, whole run: {}", ack.describe()));
    match ack.p99_ms {
        Some(v) => extra.push(metric("ack_p99_ms", v, "ms")),
        None => notes.push(format!(
            "ack_p99_ms withheld: fewer than 10 of {} samples lie beyond it",
            ack.count
        )),
    }
    let mut release_ns: Vec<u64> = pass.releases.iter().map(|a| a.1).collect();
    let release = LatencySummary::from_nanos(&mut release_ns);
    notes.push(format!(
        "release latency, whole run: {}",
        release.describe()
    ));
    let release_groups = grouped_percentile_ms(&pass.releases, RELEASE_GROUP, 50.0, false);
    notes.push(format!(
        "release p50 per group of {RELEASE_GROUP} (ms): {}",
        release_groups
            .iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    // Printed, not part of the JSON line: after `wire_bulk`'s job ends
    // its analyst runs on one core for a second, and that core's speed
    // state (about 30 µs or 40 µs per release, switching every few
    // seconds) decides the figure, so it varies by a third between runs.
    match median_f64(&release_groups) {
        Some(v) => extra.push(metric("release_p50_ms", v, "ms")),
        None => notes.push("release_p50_ms withheld: no releases".to_string()),
    }
    let setup: Vec<f64> = pass.setup_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
    put("setup_s", setup, "s", &mut notes);
    metrics.push(metric("peak_rss_mb", peak_rss_mib, "MiB"));
    if !pass.late_ns.is_empty() {
        let late = LatencySummary::from_nanos(&mut pass.late_ns);
        notes.push(format!("send lateness, whole run: {}", late.describe()));
        match late.p99_ms {
            Some(v) => extra.push(metric("send_late_p99_ms", v, "ms")),
            None => notes.push("send_late_p99_ms withheld: too few samples".to_string()),
        }
        let offered = crate::wire::PACED_FRAMES_PER_S as f64 * crate::wire::PACED_BATCH as f64;
        let backlog = pass.reports_per_s() < 0.98 * offered;
        extra.push(metric("offered_reports_per_s", offered, "reports/s"));
        notes.push(format!(
            "open loop: offered {offered:.0} reports/s, achieved {:.0} — {}",
            pass.reports_per_s(),
            if backlog {
                "BACKLOG built up"
            } else {
                "no backlog"
            }
        ));
    }
    extra.push(metric(
        "error_rate",
        pass.failed as f64 / pass.attempted.max(1) as f64,
        "fraction",
    ));
    extra.push(metric("ack_samples", ack.count as f64, "count"));
    extra.push(metric("release_samples", release.count as f64, "count"));
    extra.push(metric("reports", pass.reports as f64, "count"));
    extra.push(metric("wall_s", pass.wall_ns as f64 / 1e9, "s"));
    extra.push(metric(
        "run_cpu_us_per_report",
        pass.cpu_ns as f64 / 1e3 / pass.reports.max(1) as f64,
        "us",
    ));
    (metrics, extra, notes)
}

/// A ledger row's value in this run, and where it came from.
fn row_value(
    l: &Layer,
    pass: &Pass,
    summary: &TraceSummary,
    replay: &BTreeMap<&'static str, f64>,
    derived: &BTreeMap<&'static str, f64>,
) -> Option<(f64, &'static str)> {
    let figure = pass
        .figures
        .iter()
        .find(|(n, _, _)| *n == l.name)
        .map(|(_, v, _)| *v);
    let replayed = replay.get(l.name).map(|&v| (v, "replay"));
    match l.source {
        Source::Span(span, norm) => {
            let a = summary.get(span);
            let v = match norm {
                Norm::PerUnit => a.ns_per_unit(),
                Norm::PerReport => (a.count > 0 && pass.reports > 0)
                    .then(|| a.total_ns as f64 / pass.reports as f64),
                Norm::CallNs => a.ns_per_call(),
                Norm::CallUs => a.ns_per_call().map(|ns| ns / 1e3),
                Norm::CallMs => a.ns_per_call().map(|ns| ns / 1e6),
            };
            v.map(|v| (v, "in place")).or(replayed)
        }
        Source::Replay => replayed,
        Source::Figure => figure.map(|v| (v, "in place")).or(replayed),
        Source::Derived => derived.get(l.name).map(|&v| (v, "derived")),
    }
}

/// Runs one workload: an untraced pass for the end-to-end metrics, or —
/// traced — an untraced and a traced pass of half the length each, the
/// replay loops, and the ledger.
pub fn run_workload(ctx: &Ctx, workload: &str, trace: bool) -> WorkloadResult {
    let mut result = WorkloadResult {
        workload: workload.to_string(),
        seed: ctx.seed,
        trace,
        metrics: Vec::new(),
        extra: Vec::new(),
        ledger_json: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        human: String::new(),
        provenance: provenance(ctx, workload, trace),
    };
    let mut h = String::new();
    let _ = writeln!(
        h,
        "== {workload} · seed {} · {} s · tracing {} ==",
        ctx.seed,
        ctx.seconds,
        if trace { "on" } else { "off" }
    );
    let prov: Vec<String> = result
        .provenance
        .iter()
        .map(|(k, v)| format!("{k} {v}"))
        .collect();
    let _ = writeln!(h, "provenance: {}", prov.join(" | "));
    if trace {
        traced(ctx, workload, &mut result, &mut h);
    } else {
        match run_pass(ctx, workload, None) {
            Ok(mut pass) => {
                let rss = sys::peak_rss_mib().unwrap_or(f64::NAN);
                let (metrics, extra, notes) = end_to_end(&mut pass, rss);
                let _ = writeln!(h, "end-to-end metrics (tracing off):");
                for m in &metrics {
                    let _ = writeln!(h, "  {:<22} {:>16.6} {}", m.name, m.value, m.unit);
                }
                for m in &extra {
                    let _ = writeln!(h, "  {:<22} {:>16.6} {}", m.name, m.value, m.unit);
                }
                for n in notes {
                    let _ = writeln!(h, "  {n}");
                }
                for f in &pass.figures {
                    let _ = writeln!(h, "  {:<34} {:>14.4} {}", f.0, f.1, f.2);
                }
                result.metrics = metrics;
                result.extra = extra;
                result.absorb(pass);
            }
            Err(e) => {
                result.failed += 1;
                result.problems.push(e);
            }
        }
    }
    let _ = writeln!(
        h,
        "correctness gate: {} (attempted {}, failed {})",
        if result.correct() { "passed" } else { "FAILED" },
        result.attempted,
        result.failed
    );
    for p in &result.problems {
        let _ = writeln!(h, "  problem: {p}");
    }
    result.human = h;
    result
}

impl WorkloadResult {
    fn absorb(&mut self, pass: Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.problems.extend(pass.problems);
    }
}

/// Threads whose spans lie inside the timed section.
fn timed_thread(name: &str) -> bool {
    name == "main" || name == "analyst" || name.starts_with("writer-")
}

fn traced(ctx: &Ctx, workload: &str, result: &mut WorkloadResult, h: &mut String) {
    let half = Ctx {
        seed: ctx.seed,
        seconds: ctx.seconds / 2.0,
        origin: ctx.origin,
        out_dir: ctx.out_dir.clone(),
    };
    let untraced = match run_pass(&half, workload, None) {
        Ok(pass) => pass,
        Err(e) => {
            result.failed += 1;
            result.problems.push(e);
            return;
        }
    };
    let tracer = Tracer::new();
    let mut pass = match run_pass(&half, workload, Some(&tracer)) {
        Ok(pass) => pass,
        Err(e) => {
            result.failed += 1;
            result.problems.push(e);
            return;
        }
    };
    let overhead = pass.reports_per_s() / untraced.reports_per_s();
    let replay_started = Instant::now();
    let replayed = match &pass.capture {
        Some(cap) => crate::replay::run(cap, &pass.capture_snapshot),
        None => Err("the traced pass captured nothing".to_string()),
    };
    let replay = replayed.unwrap_or_else(|e| {
        pass.fail(format!("replay: {e}"));
        BTreeMap::new()
    });
    let replay_s = replay_started.elapsed().as_secs_f64();
    let all = tracer.summary(|_| true);
    let timed = tracer.summary(timed_thread);

    // Server-side work per report, replayed: read + verify, decode,
    // count, and one ack per batch.
    let batch_reports = pass
        .figures
        .iter()
        .find(|f| f.0 == "load.batch_reports")
        .map(|f| f.1);
    let mut derived = BTreeMap::new();
    derived.insert("trace.overhead_ratio", overhead);
    if let Some(per_batch) = batch_reports {
        let session_ns_per_report: f64 = [
            "stream.wire.read_frame_ns_per_report",
            "stream.wire.decode_ns_per_report",
            "stream.ingest_batch_ns_per_report",
        ]
        .iter()
        .filter_map(|k| replay.get(k))
        .sum::<f64>()
            + replay
                .get("stream.wire.ack_encode_ns_per_frame")
                .map_or(0.0, |v| v / per_batch);
        let sessions = pass
            .load_threads
            .saturating_sub(usize::from(workload == "wire_paced"));
        let capacity = sessions.max(1) as f64 * pass.wall_ns as f64;
        derived.insert(
            "serve.unattributed_frac",
            1.0 - session_ns_per_report * pass.reports as f64 / capacity,
        );
    }

    let _ = writeln!(
        h,
        "per-layer ledger (traced pass of {} s; replay loops {replay_s:.2} s):",
        half.seconds
    );
    let _ = writeln!(
        h,
        "  tracing overhead: traced ÷ untraced reports_per_s = {overhead:.4} \
         ({:.0} ÷ {:.0})",
        pass.reports_per_s(),
        untraced.reports_per_s()
    );
    let _ = writeln!(
        h,
        "  {:<42} {:>14} {:<8} {:<9} should move → on",
        "layer metric", "value", "unit", "source"
    );
    for l in LAYERS {
        let value = row_value(l, &pass, &all, &replay, &derived);
        let shown = value.map_or("n/a".to_string(), |(v, _)| format!("{v:.4}"));
        let source = value.map_or("-", |(_, s)| s);
        let _ = writeln!(
            h,
            "  {:<42} {:>14} {:<8} {:<9} {} → {}",
            l.name, shown, l.unit, source, l.moves, l.on
        );
        result.ledger_json.push(format!(
            "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"source\": {}, \"call\": {}, \
             \"moves\": {}, \"on\": {}}}",
            json_str(l.name),
            value.map_or("null".to_string(), |(v, _)| json_num(v)),
            json_str(l.unit),
            json_str(source),
            json_str(l.call),
            json_str(l.moves),
            json_str(l.on)
        ));
        if l.json {
            match value {
                Some((v, _)) => result.metrics.push(metric(l.name, v, l.unit)),
                None => pass.fail(format!("ledger row {} has no value", l.name)),
            }
        }
    }

    // The thread-time ledger of the timed section: self time per span
    // name, which sums exactly to the threads' root spans; the roots must
    // cover the timed wall.
    let reports = pass.reports.max(1) as f64;
    let roots_ns: u64 = timed.roots.iter().map(|(s, e)| e - s).sum();
    let self_ns: u64 = timed.agg.values().map(|a| a.self_ns).sum();
    let extent = timed.roots.iter().map(|r| r.1).max().unwrap_or(0)
        - timed.roots.iter().map(|r| r.0).min().unwrap_or(0);
    let residual = (pass.wall_ns as f64 - extent as f64) / pass.wall_ns.max(1) as f64;
    let _ = writeln!(
        h,
        "thread-time ledger of the timed section ({} load threads, {} reports; self ns per report):",
        pass.load_threads, pass.reports
    );
    let mut rows: Vec<(&&str, &crate::trace::Agg)> = timed.agg.iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
    for (name, a) in rows {
        let label = if name.starts_with("load.") {
            format!("{name} (self: unattributed)")
        } else {
            name.to_string()
        };
        let _ = writeln!(
            h,
            "  {:<44} {:>10} calls {:>14.2} ns/report {:>7.2}%",
            label,
            a.count,
            a.self_ns as f64 / reports,
            100.0 * a.self_ns as f64 / roots_ns.max(1) as f64
        );
        result.ledger_json.push(format!(
            "{{\"name\": {}, \"span\": true, \"calls\": {}, \"self_ns_per_report\": {}, \
             \"total_ns\": {}}}",
            json_str(name),
            a.count,
            json_num(a.self_ns as f64 / reports),
            a.total_ns
        ));
    }
    let unattributed: u64 = timed
        .agg
        .iter()
        .filter(|(n, _)| n.starts_with("load."))
        .map(|(_, a)| a.self_ns)
        .sum();
    let _ =
        writeln!(
        h,
        "  Σ self = {:.3} ms = Σ thread roots {:.3} ms ({}); wall {:.3} ms, roots span {:.3} ms: \
         residual {:.4}%; unattributed {:.2}% of thread time",
        self_ns as f64 / 1e6,
        roots_ns as f64 / 1e6,
        if self_ns == roots_ns { "exact" } else { "MISMATCH" },
        pass.wall_ns as f64 / 1e6,
        extent as f64 / 1e6,
        100.0 * residual,
        100.0 * unattributed as f64 / roots_ns.max(1) as f64
    );
    if self_ns != roots_ns {
        pass.fail("ledger self times do not sum to the root spans".to_string());
    }
    result
        .extra
        .push(metric("ledger.residual_frac", residual, "fraction"));
    result.extra.push(metric(
        "ledger.unattributed_frac",
        unattributed as f64 / roots_ns.max(1) as f64,
        "fraction",
    ));
    let spans_path = half
        .out_dir
        .join(format!("{workload}-seed{}.spans.jsonl", ctx.seed));
    match tracer.write_spans(&spans_path) {
        Ok(()) => {
            let _ = writeln!(
                h,
                "  spans: {} written to {} ({} past the per-thread bound)",
                all.spans_logged,
                spans_path.display(),
                all.spans_dropped
            );
        }
        Err(e) => pass.fail(e),
    }
    result.absorb(untraced);
    result.absorb(pass);
}
