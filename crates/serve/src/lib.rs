//! `mdrr-serve`: the collector network daemon.
//!
//! This crate turns the in-process streaming collector
//! ([`mdrr_stream::ShardedCollector`]) into a network service: a
//! thread-per-connection TCP daemon over `std::net` (no async runtime —
//! the workspace vendors every dependency) speaking the length-framed,
//! CRC-sealed binary protocol of `docs/WIRE.md`.  Clients encode
//! randomized reports locally with the multi-dimensional randomized
//! response mechanisms of `mdrr-protocols`, ship them as columnar batch
//! frames, and get each batch acknowledged only after it is counted —
//! so the daemon can always drain to a durable checkpoint
//! (`docs/FORMAT.md`) that contains every acknowledged report.
//!
//! The pieces:
//!
//! * [`CollectorServer`] — bind/drain lifecycle, acceptor thread,
//!   [`DrainedCollector`] hand-off ([`server`]);
//! * the per-connection loop with typed error frames, the slowloris
//!   budget and the ack-after-ingest invariant (the private `session`
//!   module);
//! * [`ServeConfig`] — shards, backpressure window, payload cap, poll
//!   interval, frame budget ([`config`]);
//! * [`ServeObs`] — counters, histograms and journal events for the
//!   wire boundary, always attached and timed only on an enabled clock
//!   ([`obs`]);
//! * [`ServeError`] — lifecycle failures ([`error`]).
//!
//! The client half — [`mdrr_stream::WireClient`] — lives in
//! `mdrr-stream` so encoders depend only on the stream layer.
//!
//! ```no_run
//! use mdrr_data::{Attribute, Schema};
//! use mdrr_obs::MonotonicClock;
//! use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
//! use mdrr_serve::{CollectorServer, ServeConfig};
//! use std::sync::Arc;
//!
//! let schema = Schema::new(vec![Attribute::indexed("color", 3)?])?;
//! let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
//! let server = CollectorServer::bind(
//!     "127.0.0.1:0",
//!     &schema,
//!     &spec,
//!     ServeConfig::default(),
//!     Arc::new(MonotonicClock::new()),
//!     None,
//! )?;
//! let addr = server.local_addr();
//! // ... clients connect to `addr` and stream batches ...
//! let (manifest, drained) = server.drain_to_checkpoint("ckpt".as_ref(), None)?;
//! assert_eq!(manifest.total_reports, drained.acked_reports);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// No panic on hostile input: every malformed frame is a typed error.
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

pub mod config;
pub mod error;
pub mod obs;
pub mod server;
mod session;

pub use config::ServeConfig;
pub use error::ServeError;
pub use obs::{ServeObs, DEFAULT_JOURNAL_CAPACITY};
pub use server::{CollectorServer, DrainedCollector};
