//! The collector daemon: a thread-per-connection acceptor over
//! `std::net` feeding one shared [`ShardedCollector`].
//!
//! Lifecycle: [`CollectorServer::bind`] builds the collector from a
//! [`ProtocolSpec`] + [`Schema`], binds a listener and spawns the
//! acceptor thread; every accepted connection gets its own session
//! thread (the private `session` module); [`CollectorServer::drain`]
//! flips the
//! shutdown flag, waits for the acceptor to join every session at a
//! frame boundary, and hands the collector back to the caller —
//! typically straight into
//! [`DrainedCollector::checkpoint`], which is
//! [`ShardedCollector::checkpoint`] under the hood.  Because a batch is
//! acknowledged only *after* `ingest_batch` returns, every acknowledged
//! report is in the collector the drain returns, and therefore in the
//! checkpoint — the zero-accepted-loss invariant the fault suite audits.
//!
//! The daemon never reads ambient time: accept polling, read deadlines
//! and the slowloris budget all run on the injected [`Clock`].

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::obs::ServeObs;
use crate::session;
use mdrr_data::Schema;
use mdrr_obs::{Clock, NullClock};
use mdrr_protocols::ProtocolSpec;
use mdrr_store::Storage;
use mdrr_stream::{CheckpointManifest, ShardedCollector};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// State shared by the acceptor, every session thread and the handle.
pub(crate) struct Shared {
    pub(crate) collector: Mutex<ShardedCollector>,
    pub(crate) schema: Schema,
    pub(crate) spec: ProtocolSpec,
    pub(crate) config: ServeConfig,
    /// Deadlines and sleeps; the metrics are timed on `obs`'s clock.
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) obs: Arc<ServeObs>,
    pub(crate) shutdown: AtomicBool,
    /// Reports ingested *and therefore owed (or already sent) an ack*.
    pub(crate) acked_reports: AtomicU64,
    pub(crate) connections_total: AtomicU64,
    pub(crate) open_connections: AtomicU64,
}

impl Shared {
    /// Locks the collector, recovering from a poisoned mutex: the counts
    /// are plain sums, structurally valid even if a session thread
    /// panicked mid-ingest (and `ingest_batch` adds a channel's counts
    /// only once its codes check clean, and takes the clean channels
    /// back out when a later one fails, so a poisoned guard holds either
    /// the old or the new totals — never a half-applied batch).
    pub(crate) fn lock_collector(&self) -> MutexGuard<'_, ShardedCollector> {
        self.collector.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running collector daemon.  Dropping the handle without calling
/// [`CollectorServer::drain`] leaves the acceptor thread running
/// detached until the process exits; drain for a clean stop.
pub struct CollectorServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for CollectorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectorServer")
            .field("addr", &self.addr)
            .field("draining", &self.shared.draining())
            .finish()
    }
}

/// Everything a drained daemon hands back: the collector with every
/// acknowledged report counted, plus the spec/schema needed to persist
/// or release it.
#[derive(Debug, Clone)]
pub struct DrainedCollector {
    /// The collector, final.
    pub collector: ShardedCollector,
    /// The spec the daemon served (and validated every client against).
    pub spec: ProtocolSpec,
    /// The schema the daemon served.
    pub schema: Schema,
    /// Reports acknowledged over the daemon's lifetime.
    pub acked_reports: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
}

impl DrainedCollector {
    /// Persists the drained collector as a durable checkpoint directory
    /// — [`ShardedCollector::checkpoint`] with the daemon's own spec.
    pub fn checkpoint(
        &self,
        dir: &Path,
        app_state: Option<&str>,
    ) -> Result<CheckpointManifest, ServeError> {
        Ok(self.collector.checkpoint(&self.spec, dir, app_state)?)
    }

    /// [`DrainedCollector::checkpoint`] through an injected [`Storage`]
    /// handle (fault-injection seam).
    pub fn checkpoint_with(
        &self,
        dir: &Path,
        app_state: Option<&str>,
        storage: &Storage,
    ) -> Result<CheckpointManifest, ServeError> {
        Ok(self
            .collector
            .checkpoint_with(&self.spec, dir, app_state, storage)?)
    }
}

impl CollectorServer {
    /// Builds the collector for `spec` over `schema`, binds `addr`
    /// (use port 0 for an ephemeral port) and starts accepting.  The
    /// daemon meters into `obs`; `None` gives it a bundle on a disabled
    /// clock, which counts without timing.
    pub fn bind(
        addr: impl ToSocketAddrs,
        schema: &Schema,
        spec: &ProtocolSpec,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
        obs: Option<Arc<ServeObs>>,
    ) -> Result<CollectorServer, ServeError> {
        let config = config.validated()?;
        let protocol = spec.build_arc(schema)?;
        let collector = ShardedCollector::new(protocol, config.n_shards)?;
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::io("bind listener", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::io("set listener nonblocking", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ServeError::io("read bound address", e))?;
        let shared = Arc::new(Shared {
            collector: Mutex::new(collector),
            schema: schema.clone(),
            spec: spec.clone(),
            config,
            clock,
            obs: obs.unwrap_or_else(|| ServeObs::new(Arc::new(NullClock))),
            shutdown: AtomicBool::new(false),
            acked_reports: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
        });
        let shared_for_acceptor = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("mdrr-serve-acceptor".to_string())
            .spawn(move || accept_loop(listener, shared_for_acceptor))
            .map_err(|e| ServeError::io("spawn acceptor", e))?;
        Ok(CollectorServer {
            addr: local_addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The address the daemon is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Reports acknowledged so far.
    pub fn acked_reports(&self) -> u64 {
        self.shared.acked_reports.load(Ordering::SeqCst)
    }

    /// Connections currently live.
    pub fn open_connections(&self) -> u64 {
        self.shared.open_connections.load(Ordering::SeqCst)
    }

    /// Gracefully stops the daemon: flips the drain flag (in-flight
    /// sessions finish their current frame, answer further reads with a
    /// `draining` error frame and close), joins the acceptor and every
    /// session, and returns the final collector.  Every report that was
    /// acknowledged to any client is counted in it.
    pub fn drain(mut self) -> Result<DrainedCollector, ServeError> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            acceptor
                .join()
                .map_err(|_| ServeError::config("acceptor thread panicked"))?;
        }
        let acked_reports = self.shared.acked_reports.load(Ordering::SeqCst);
        let connections = self.shared.connections_total.load(Ordering::SeqCst);
        self.shared.obs.drained(connections, acked_reports);
        let spec = self.shared.spec.clone();
        let schema = self.shared.schema.clone();
        // Every session has joined, so this handle is normally the last
        // one; fall back to a clone if an abandoned clone of the handle
        // still exists somewhere.
        let collector = match Arc::try_unwrap(self.shared) {
            Ok(shared) => shared
                .collector
                .into_inner()
                .unwrap_or_else(|p| p.into_inner()),
            Err(shared) => shared.lock_collector().clone(),
        };
        Ok(DrainedCollector {
            collector,
            spec,
            schema,
            acked_reports,
            connections,
        })
    }

    /// [`CollectorServer::drain`] followed by
    /// [`DrainedCollector::checkpoint`] into `dir` — the SIGTERM path:
    /// stop accepting, finish in-flight frames, persist everything
    /// acknowledged.
    pub fn drain_to_checkpoint(
        self,
        dir: &Path,
        app_state: Option<&str>,
    ) -> Result<(CheckpointManifest, DrainedCollector), ServeError> {
        let drained = self.drain()?;
        let manifest = drained.checkpoint(dir, app_state)?;
        Ok((manifest, drained))
    }
}

/// The acceptor: polls the nonblocking listener, spawns one session
/// thread per connection, and on drain joins every session before
/// returning (so `drain` sees a fully quiesced collector).
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shared.draining() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn = shared.connections_total.fetch_add(1, Ordering::SeqCst);
                let open = shared
                    .open_connections
                    .fetch_add(1, Ordering::SeqCst)
                    .saturating_add(1);
                shared.obs.connection_opened(conn, open);
                let shared_for_session = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("mdrr-serve-conn-{conn}"))
                    .spawn(move || session::run(shared_for_session, stream, conn));
                match spawned {
                    Ok(handle) => sessions.push(handle),
                    Err(_) => {
                        // Could not spawn: drop the connection and undo
                        // the open count.
                        let open = shared
                            .open_connections
                            .fetch_sub(1, Ordering::SeqCst)
                            .saturating_sub(1);
                        shared.obs.connection_closed(conn, 0, open);
                    }
                }
                // Reap sessions that already finished, so a long-lived
                // daemon's handle list stays bounded by live connections.
                sessions.retain(|handle| !handle.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let deadline = shared
                    .clock
                    .now_nanos()
                    .saturating_add(shared.config.poll_interval_nanos);
                shared.clock.sleep_until(deadline);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Transient accept failure (EMFILE, aborted handshake):
                // pause one poll interval and keep serving.
                let deadline = shared
                    .clock
                    .now_nanos()
                    .saturating_add(shared.config.poll_interval_nanos);
                shared.clock.sleep_until(deadline);
            }
        }
    }
    for handle in sessions {
        // A panicked session already released its Arc; nothing to do
        // beyond observing the join.
        let _ = handle.join();
    }
}
