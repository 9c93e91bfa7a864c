//! # mdrr-obs
//!
//! Production observability primitives for the mdrr workspace, with
//! overhead small enough to leave on while the collector ingests tens of
//! millions of reports per second:
//!
//! * [`clock`] — the injectable monotonic [`Clock`] boundary.  The
//!   deterministic crates (`mdrr-core`, `mdrr-store`, `mdrr-stream`,
//!   `mdrr-eval`, …) never touch `std::time` directly — the root
//!   `clippy.toml` disallows `Instant` and `SystemTime` — so byte-identical
//!   crash-resume keeps holding; this crate is the single reasoned
//!   boundary where `std::time::Instant` is read.  A [`NullClock`] makes
//!   instrumented library code cost-free and output-identical when
//!   observability is off.
//! * [`metrics`] — relaxed-atomic [`Counter`]s and [`Gauge`]s: one
//!   `fetch_add(…, Relaxed)` per update, no locks, safe to bump from
//!   every shard worker concurrently.
//! * [`hist`] — fixed-bucket log2 latency [`Histogram`]s: 65 power-of-two
//!   buckets covering all of `u64`, exact order-independent merge (bucket
//!   counts are sums), and p50/p90/p99/p999 extraction whose reported
//!   value always bounds the true quantile from above within the 2×
//!   bucket width.
//! * [`journal`] — a bounded structured event [`Journal`]: a ring buffer
//!   of typed [`Event`]s (batch ingested, shard snapshot, checkpoint
//!   begin/commit, restore, merge, estimate served) that never grows past
//!   its capacity; old events are dropped and counted, not silently lost.
//! * [`registry`] — a [`Registry`] of named, labelled metrics with stable
//!   registration order, snapshotted into a plain [`MetricsSnapshot`].
//! * [`export`] — two exporters over a snapshot: a stable JSON report
//!   ([`to_json`]) and Prometheus text exposition ([`to_prometheus`]).
//!
//! ## Example
//!
//! ```
//! use mdrr_obs::{Clock, ManualClock, Registry};
//! use std::sync::Arc;
//!
//! let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
//! let registry = Registry::new();
//! let reports = registry.counter_with("shard_reports_total", &[("shard", "0")]);
//! let latency = registry.histogram("ingest_nanos");
//!
//! let t0 = clock.now_nanos();
//! reports.add(8_192); // … ingest a batch …
//! latency.record(clock.now_nanos().saturating_sub(t0));
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters[0].value, 8_192);
//! let json = mdrr_obs::to_json(&snapshot, &[]);
//! assert!(json.contains("shard_reports_total"));
//! ```

// No explicit panic on the store and checkpoint path, which reaches this
// crate: a malformed snapshot is a typed error, never an abort.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod clock;
pub mod export;
pub mod hist;
pub mod journal;
pub mod metrics;
pub mod registry;

pub use clock::{Clock, ManualClock, MonotonicClock, NullClock};
pub use export::{to_json, to_prometheus};
pub use hist::{bucket_index, bucket_upper, Histogram, HistogramSnapshot, N_BUCKETS};
pub use journal::{Event, EventKind, Journal};
pub use metrics::{Counter, Gauge};
pub use registry::{MetricId, MetricsSnapshot, Registry};
