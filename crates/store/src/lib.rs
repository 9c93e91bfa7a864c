//! # mdrr-store
//!
//! The durable snapshot store of the MDRR pipeline: a versioned,
//! checksummed on-disk format for accumulator state — the per-channel
//! `u64` count vectors that are the sufficient statistics of Equation (2)
//! — plus crash-safe atomic writes and exact cross-process merging.
//!
//! * [`Snapshot`] — self-describing state: magic + format version, the
//!   embedded [`mdrr_protocols::ProtocolSpec`] and schema JSON, the count
//!   vectors, a record count and a trailing CRC-64/XZ checksum.  The
//!   byte-level contract is specified in `docs/FORMAT.md` so external
//!   writers and readers can implement it independently; [`crc64`],
//!   [`MAGIC`] and [`FORMAT_VERSION`] are public for exactly that reason.
//! * [`Storage`] — the one I/O handle: atomic temp-file-and-rename
//!   writes ([`Storage::write_snapshot`], [`Storage::atomic_write`]) and
//!   fully validated reads ([`Storage::read_snapshot`]): a crash
//!   mid-write can never leave a torn snapshot, and any corruption
//!   (truncation, flipped bytes, foreign files) surfaces as a typed
//!   [`StoreError`], never a panic.
//! * [`StoreObs`] — instrumentation: attached to a handle with
//!   [`Storage::with_obs`] (and passed to [`merge_snapshots_observed`]),
//!   it records durations, byte counts and CRC verification time into an
//!   injected `mdrr_obs` registry and exhausted retries and salvages into
//!   an injected journal, timed by an injected clock (never an ambient
//!   one); a handle without it does no metric work.
//! * [`merge_snapshots`] / [`merge_snapshot_files`] — exact pooling of the
//!   shards of any number of collector processes: spec compatibility is
//!   verified, counts are summed with overflow checks, and the merged
//!   release is numerically identical to a single process having ingested
//!   every report itself.
//! * [`StorageBackend`] — every file operation of a [`Storage`] goes
//!   through an injectable backend seam: [`OsBackend`] is the real filesystem,
//!   [`FaultyBackend`] executes scripted fault plans (torn writes, lying
//!   fsyncs, transient errors) for the crash-consistency torture tests.
//!   Transient failures ([`IoClass`]) are retried under a bounded
//!   exponential-backoff [`RetryPolicy`] timed by an injected clock.
//! * [`CheckpointManifest`] and the generation-named shard-file grammar
//!   ([`shard_file_name`]) — the commit record of a checkpoint directory;
//!   [`read_checkpoint`] is the one reader of such a directory (version,
//!   shard count, CRCs, cross-shard spec agreement, committed total), and
//!   [`salvage_checkpoint`] rebuilds a usable manifest from whatever
//!   shard snapshots survive out-of-band damage.
//!
//! The streaming layer (`mdrr-stream`) builds `ShardedCollector::
//! {checkpoint, restore}` on top of this crate; `stream_sim` drives
//! checkpoint/resume/merge end to end from the command line.
//!
//! ## Example
//!
//! Persist counts on one "machine", pool them on another:
//!
//! ```
//! use mdrr_data::{Attribute, Schema};
//! use mdrr_protocols::{FrequencyEstimator, ProtocolSpec, RandomizationLevel};
//! use mdrr_store::{merge_snapshot_files, Snapshot, Storage};
//!
//! let dir = std::env::temp_dir().join(format!("mdrr-store-doc-{}", std::process::id()));
//! let schema = Schema::new(vec![Attribute::indexed("A", 2)?])?;
//! let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.8));
//!
//! // Two machines each persist their shard's sufficient statistics…
//! let paths = [dir.join("machine-a.mdrrsnap"), dir.join("machine-b.mdrrsnap")];
//! let storage = Storage::os();
//! storage.write_snapshot(&paths[0], &Snapshot::new(schema.clone(), spec.clone(), vec![vec![350, 150]], 500)?)?;
//! storage.write_snapshot(&paths[1], &Snapshot::new(schema, spec, vec![vec![360, 140]], 500)?)?;
//!
//! // …and any process can pool them and estimate, no coordination needed.
//! let pooled = merge_snapshot_files(&paths)?;
//! assert_eq!(pooled.n_reports(), 1000);
//! let release = pooled.release()?;
//! assert!(release.frequency(&[(0, 0)])? > 0.5);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// No panic on any malformed input: every failure is a typed `StoreError`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod backend;
pub mod error;
pub mod format;
pub mod io;
pub mod manifest;
pub mod merge;
pub mod obs;
pub mod retry;
pub mod salvage;
pub mod snapshot;

pub use backend::{Fault, FaultKind, FaultPlan, FaultyBackend, OsBackend, StorageBackend};
pub use error::{IoClass, StoreError};
pub use format::{crc64, FORMAT_VERSION, MAGIC};
pub use io::Storage;
pub use manifest::{
    next_generation, parse_shard_file_name, read_checkpoint, read_manifest, shard_file_name,
    CheckpointManifest, MANIFEST_FILE, MANIFEST_VERSION,
};
pub use merge::{merge_snapshot_files, merge_snapshots, merge_snapshots_observed};
pub use obs::StoreObs;
pub use retry::RetryPolicy;
pub use salvage::{salvage_checkpoint, SalvageReport};
pub use snapshot::Snapshot;
