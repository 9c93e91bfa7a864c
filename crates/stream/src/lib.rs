//! # mdrr-stream
//!
//! Sharded streaming ingestion and incremental estimation for the MDRR
//! protocols — the paper's actual deployment shape at million-client
//! scale:
//!
//! * [`batch`] — a client's randomized report is one code per *channel*
//!   (per attribute for RR-Independent, one joint code for RR-Joint, per
//!   cluster for RR-Clusters), as [`mdrr_protocols::Protocol::encode_record`]
//!   returns it; reports travel in columnar [`ReportBatch`]es: whole
//!   record chunks are encoded by the protocols' batched encoders and
//!   counted in tight per-channel loops, with zero allocations per report
//!   and output bit-identical to `encode_record` under the same seed
//!   (proptest-pinned);
//! * [`accumulator`] — the collector keeps only per-channel count vectors
//!   ([`Accumulator`]): the sufficient statistics of Equation (2), exact
//!   and mergeable in any order;
//! * [`collector`] — a [`ShardedCollector`] holds an `Arc<dyn Protocol>`
//!   (any current or future protocol, unchanged), fans ingestion out over
//!   `std::thread::scope` workers (one per shard, each with its own
//!   deterministic RNG, no locks) and can be snapshotted mid-stream into
//!   the protocol's regular release (a [`StreamSnapshot`], i.e.
//!   `Box<dyn Release>`), numerically identical to the batch estimate over
//!   the same randomized codes;
//! * [`checkpoint`] — collectors persist to and restore from durable
//!   `mdrr-store` checkpoint directories
//!   ([`ShardedCollector::checkpoint`] / [`ShardedCollector::restore`]):
//!   one self-describing, checksummed snapshot file per shard plus an
//!   atomically committed manifest, so a crash loses nothing and shard
//!   files from independent machines pool exactly via
//!   [`mdrr_store::merge_snapshot_files`];
//! * [`wire`] / [`client`] — the collector network boundary: a
//!   length-framed, CRC-checksummed, versioned wire protocol (the
//!   `docs/WIRE.md` contract, decoded with the same
//!   typed-error-never-panic discipline as the snapshot format) and the
//!   [`WireClient`] SDK that dials an `mdrr-serve` daemon with retrying
//!   backoff and pipelines batches under a backpressure window;
//! * [`instrument`] — always-on observability: every collector carries a
//!   [`StreamObs`] (per-shard report/batch counters, ingest latency
//!   histograms, an imbalance gauge and a bounded event journal, timed
//!   by an injected `mdrr_obs` clock) and records what it does without
//!   changing what it does; the default disabled clock counts without
//!   timing, and `ShardedCollector::instrument` swaps in a timed bundle;
//! * [`fault`] — [`FaultyProtocol`] kills the shard worker a test or a
//!   soak names, so quarantine and deterministic re-collection can be
//!   checked against an uninterrupted run.
//!
//! ## Example
//!
//! Stream 10 000 simulated clients through 4 shards and query a mid-stream
//! snapshot — the protocol is selected by a serde-able spec, so swapping
//! mechanisms is a configuration change, not a code change:
//!
//! ```
//! use mdrr_data::{Attribute, Schema};
//! use mdrr_protocols::{FrequencyEstimator, ProtocolSpec, RandomizationLevel};
//! use mdrr_stream::ShardedCollector;
//!
//! let schema = Schema::new(vec![
//!     Attribute::indexed("A", 3)?,
//!     Attribute::indexed("B", 2)?,
//! ])?;
//! let protocol = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7))
//!     .build_arc(&schema)?; // Arc<dyn Protocol>
//! let mut collector = ShardedCollector::new(protocol, 4)?;
//!
//! // Each simulated client randomizes her record locally; the collector
//! // only ever accumulates per-channel counts.
//! let records: Vec<Vec<u32>> = (0..10_000)
//!     .map(|i| vec![(i % 3) as u32, (i % 2) as u32])
//!     .collect();
//! collector.ingest_records(&records, 42)?;
//!
//! let snapshot = collector.snapshot()?; // Box<dyn Release>
//! assert_eq!(snapshot.record_count(), 10_000);
//! let marginal = snapshot.frequency(&[(0, 0)])?;
//! assert!((marginal - 1.0 / 3.0).abs() < 0.05);
//! # Ok::<(), Box<dyn std::error::Error>>(())
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

pub mod accumulator;
pub mod batch;
pub mod checkpoint;
pub mod client;
pub mod collector;
pub mod error;
pub mod fault;
pub mod instrument;
pub mod wire;

pub use accumulator::Accumulator;
pub use batch::ReportBatch;
pub use checkpoint::{CheckpointManifest, RestoredCheckpoint, MANIFEST_FILE};
pub use client::{ClientConfig, WireClient};
pub use collector::{offset_base_seed, ShardedCollector, StreamSnapshot, ENCODE_BATCH};
pub use error::MdrrError;
pub use fault::FaultyProtocol;
pub use instrument::{StreamObs, DEFAULT_JOURNAL_CAPACITY};
pub use wire::{BatchView, FrameType, WireError, MAX_WIRE_PAYLOAD, WIRE_MAGIC, WIRE_VERSION};
