//! Daemon observability: counters, histograms and journal events for
//! the wire boundary.
//!
//! Every [`crate::CollectorServer`] meters into a [`ServeObs`]: the one
//! passed to `bind`, or else a bundle on a disabled clock
//! ([`mdrr_obs::NullClock`]), which counts and journals but times
//! nothing.  Metering never changes what the daemon does — the same
//! contract as the stream layer's `StreamObs`.  Metric catalog (all in
//! one [`Registry`], exported via `mdrr_obs::to_json` /
//! `mdrr_obs::to_prometheus`):
//!
//! | metric | kind | labels | meaning |
//! |---|---|---|---|
//! | `serve_connections_total` | counter | — | connections accepted |
//! | `serve_connections_open` | gauge | — | connections currently live |
//! | `serve_frames_total` | counter | `type` | valid frames read, by frame type |
//! | `serve_bytes_read_total` | counter | — | frame bytes read (valid frames) |
//! | `serve_bytes_written_total` | counter | — | frame bytes written |
//! | `serve_reports_total` | counter | — | reports ingested and acknowledged |
//! | `serve_rejects_total` | counter | `reason` | frames/connections rejected, by [`WireError::label`] |
//! | `serve_decode_nanos` | histogram | — | batch payload parse-and-validate time |
//! | `serve_ingest_nanos` | histogram | — | collector ingest time per batch |
//!
//! Journal events: `connection_opened`, `connection_closed`,
//! `server_drained`.  The daemon's collector keeps the stream layer's
//! own counters and journal (`ShardedCollector::instrumentation` on the
//! drained collector).

use mdrr_obs::{Clock, Counter, EventKind, Gauge, Histogram, Journal, Registry};
use mdrr_stream::{FrameType, WireError};
use std::sync::{Arc, OnceLock};

/// Default bound on the daemon's event journal.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Every [`WireError::label`] in variant order (pinned by a test), one
/// cached reject counter each.  A reason missing here would still be
/// counted, through a registry lookup per reject.
const REJECT_REASONS: [&str; 15] = [
    "io",
    "bad_magic",
    "unsupported_version",
    "unknown_frame_type",
    "reserved_nonzero",
    "oversized",
    "truncated",
    "checksum_mismatch",
    "malformed",
    "spec_mismatch",
    "unexpected_frame",
    "protocol",
    "timeout",
    "closed",
    "remote",
];

/// The daemon's metric bundle.  Cheap to share (`Arc` everywhere),
/// lock-free on the hot path (relaxed atomic counters, fixed-bucket
/// histograms).
#[derive(Debug)]
pub struct ServeObs {
    clock: Arc<dyn Clock>,
    registry: Arc<Registry>,
    journal: Arc<Journal>,
    connections_total: Arc<Counter>,
    connections_open: Arc<Gauge>,
    bytes_read_total: Arc<Counter>,
    bytes_written_total: Arc<Counter>,
    reports_total: Arc<Counter>,
    decode_nanos: Arc<Histogram>,
    ingest_nanos: Arc<Histogram>,
    /// `serve_frames_total{type}` per [`FrameType::ALL`] entry, so the
    /// per-frame path takes no registry lock.
    frames_total: [OnceLock<Arc<Counter>>; FrameType::ALL.len()],
    /// `serve_rejects_total{reason}` per [`REJECT_REASONS`] entry.
    rejects_total: [OnceLock<Arc<Counter>>; REJECT_REASONS.len()],
}

impl ServeObs {
    /// A fresh metric bundle timed by `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Arc<Self> {
        let registry = Arc::new(Registry::new());
        let journal = Arc::new(Journal::new(DEFAULT_JOURNAL_CAPACITY));
        Arc::new(ServeObs {
            connections_total: registry.counter("serve_connections_total"),
            connections_open: registry.gauge("serve_connections_open"),
            bytes_read_total: registry.counter("serve_bytes_read_total"),
            bytes_written_total: registry.counter("serve_bytes_written_total"),
            reports_total: registry.counter("serve_reports_total"),
            decode_nanos: registry.histogram("serve_decode_nanos"),
            ingest_nanos: registry.histogram("serve_ingest_nanos"),
            frames_total: Default::default(),
            rejects_total: Default::default(),
            clock,
            registry,
            journal,
        })
    }

    /// The injected clock timing the histograms and journal.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The registry holding every `serve_*` metric.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The bounded event journal.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    pub(crate) fn connection_opened(&self, conn: u64, open_now: u64) {
        self.connections_total.inc();
        self.connections_open.set(open_now);
        self.journal
            .record(self.clock.now_nanos(), EventKind::ConnectionOpened { conn });
    }

    pub(crate) fn connection_closed(&self, conn: u64, reports: u64, open_now: u64) {
        self.connections_open.set(open_now);
        self.journal.record(
            self.clock.now_nanos(),
            EventKind::ConnectionClosed { conn, reports },
        );
    }

    pub(crate) fn drained(&self, connections: u64, total_reports: u64) {
        self.journal.record(
            self.clock.now_nanos(),
            EventKind::ServerDrained {
                connections,
                total_reports,
            },
        );
    }

    pub(crate) fn frame_read(&self, frame_type: FrameType, bytes: u64) {
        let slot = FrameType::ALL
            .iter()
            .position(|&t| t == frame_type)
            .and_then(|i| self.frames_total.get(i));
        self.bump(slot, "serve_frames_total", ("type", frame_type.name()));
        self.bytes_read_total.add(bytes);
    }

    pub(crate) fn frame_written(&self, bytes: u64) {
        self.bytes_written_total.add(bytes);
    }

    pub(crate) fn reject(&self, error: &WireError) {
        let reason = error.label();
        let slot = REJECT_REASONS
            .iter()
            .position(|&r| r == reason)
            .and_then(|i| self.rejects_total.get(i));
        self.bump(slot, "serve_rejects_total", ("reason", reason));
    }

    /// Increments the counter `name{label}` through its cached `slot`.
    /// The slot registers the series on first use, so a series still
    /// appears only once it has been hit.
    fn bump(&self, slot: Option<&OnceLock<Arc<Counter>>>, name: &str, label: (&str, &str)) {
        let register = || self.registry.counter_with(name, &[label]);
        match slot {
            Some(slot) => slot.get_or_init(register).inc(),
            None => register().inc(),
        }
    }

    /// Meters an acknowledged batch: `decode_nanos` parsed and validated
    /// its payload, `ingest_nanos` counted it under the collector lock.
    pub(crate) fn batch_ingested(&self, reports: u64, decode_nanos: u64, ingest_nanos: u64) {
        self.reports_total.add(reports);
        if self.clock.enabled() {
            self.decode_nanos.record(decode_nanos);
            self.ingest_nanos.record(ingest_nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_obs::ManualClock;

    #[test]
    fn metrics_and_journal_record_what_happened() {
        let clock = Arc::new(ManualClock::new());
        let obs = ServeObs::new(clock.clone());
        obs.connection_opened(0, 1);
        obs.frame_read(FrameType::Batch, 128);
        obs.frame_written(36);
        obs.batch_ingested(50, 1_000, 2_000);
        obs.reject(&WireError::timeout("slowloris"));
        obs.connection_closed(0, 50, 0);
        obs.drained(1, 50);

        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter_value("serve_connections_total", &[]), Some(1));
        assert_eq!(snap.gauge_value("serve_connections_open", &[]), Some(0));
        assert_eq!(
            snap.counter_value("serve_frames_total", &[("type", "batch")]),
            Some(1)
        );
        assert_eq!(snap.counter_value("serve_bytes_read_total", &[]), Some(128));
        assert_eq!(
            snap.counter_value("serve_bytes_written_total", &[]),
            Some(36)
        );
        assert_eq!(snap.counter_value("serve_reports_total", &[]), Some(50));
        assert_eq!(
            snap.counter_value("serve_rejects_total", &[("reason", "timeout")]),
            Some(1)
        );
        let kinds: Vec<&str> = obs
            .journal()
            .events()
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(
            kinds,
            vec!["connection_opened", "connection_closed", "server_drained"]
        );
    }

    #[test]
    fn cached_frame_counters_register_on_first_hit_and_add_up_across_threads() {
        let obs = ServeObs::new(Arc::new(ManualClock::new()));
        let frames = |ty: &str| {
            obs.registry()
                .snapshot()
                .counter_value("serve_frames_total", &[("type", ty)])
        };
        obs.frame_read(FrameType::Hello, 10);
        // A frame type never read has no series at all.
        assert_eq!(frames("batch"), None);
        assert_eq!(frames("hello"), Some(1));

        // Both threads start together, so they also race to fill the
        // never-hit `batch` slot.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..10_000 {
                        obs.frame_read(FrameType::Batch, 1);
                    }
                });
            }
        });
        assert_eq!(frames("batch"), Some(20_000));
        assert_eq!(frames("goodbye"), None);
        let snap = obs.registry().snapshot();
        assert_eq!(
            snap.counter_value("serve_bytes_read_total", &[]),
            Some(20_010)
        );
    }

    #[test]
    fn every_wire_error_label_has_a_cached_reject_slot() {
        let every_variant = [
            WireError::io("read", std::io::Error::other("x")),
            WireError::BadMagic { found: [0; 8] },
            WireError::UnsupportedVersion {
                found: 2,
                supported: 1,
            },
            WireError::UnknownFrameType { found: 0xFF },
            WireError::ReservedNonZero { found: [1, 0, 0] },
            WireError::Oversized {
                declared: 1 << 40,
                max: 1,
            },
            WireError::Truncated {
                offset: 0,
                needed: 1,
                available: 0,
            },
            WireError::ChecksumMismatch {
                stored: 0,
                computed: 1,
            },
            WireError::malformed("x"),
            WireError::spec_mismatch("x"),
            WireError::unexpected("x", FrameType::Hello),
            WireError::Protocol(mdrr_stream::MdrrError::InvalidConfiguration {
                message: "x".into(),
            }),
            WireError::timeout("x"),
            WireError::closed("x"),
            WireError::Remote {
                code: 1,
                message: "x".into(),
            },
        ];
        let labels: Vec<&str> = every_variant.iter().map(WireError::label).collect();
        assert_eq!(labels, REJECT_REASONS);
    }
}
