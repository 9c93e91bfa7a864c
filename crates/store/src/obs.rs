//! Store instrumentation: durations, byte counts and CRC verification
//! time for snapshot I/O and merging, and journal events for exhausted
//! retries and salvage.
//!
//! [`StoreObs`] bundles the injected [`Clock`] with the store's
//! instruments, registered into a caller-supplied [`Registry`], and a
//! caller-supplied [`Journal`], so one registry and one journal can hold
//! the whole pipeline's record.  Snapshot I/O is observed by attaching
//! the instruments to a storage handle ([`crate::Storage::with_obs`]);
//! merging by [`crate::merge_snapshots_observed`].  The clock decides
//! whether anything is timed: under a
//! [`NullClock`](mdrr_obs::NullClock) only the counters move and
//! journal events carry timestamp 0.  The stream layer's collectors
//! always carry one (`mdrr_stream::StreamObs`), so their checkpoints and
//! restores are always counted.
//!
//! Metric catalog (all registered on construction, so exports always show
//! the full set even before the first write):
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `store_snapshot_writes_total` | counter | snapshot files written |
//! | `store_write_nanos` | histogram | per-write wall time |
//! | `store_bytes_written_total` | counter | serialized bytes written |
//! | `store_snapshot_reads_total` | counter | snapshot files read |
//! | `store_read_nanos` | histogram | per-read wall time |
//! | `store_bytes_read_total` | counter | file bytes read |
//! | `store_crc_nanos` | histogram | CRC-64 verification time per read |
//! | `store_merges_total` | counter | merge operations |
//! | `store_merge_nanos` | histogram | per-merge wall time |

use mdrr_obs::{Clock, Counter, EventKind, Histogram, Journal, Registry};
use std::sync::Arc;

/// The store's instruments, the clock that times them and the journal
/// that records retry and salvage events.
///
/// ```
/// use mdrr_obs::{Journal, MonotonicClock, Registry};
/// use mdrr_store::StoreObs;
/// use std::sync::Arc;
///
/// let registry = Registry::new();
/// let journal = Arc::new(Journal::new(16));
/// let obs = StoreObs::new(Arc::new(MonotonicClock::new()), &registry, journal);
/// assert!(obs.clock().enabled());
/// // All store metrics exist from construction.
/// let snapshot = registry.snapshot();
/// assert_eq!(snapshot.counter_value("store_snapshot_writes_total", &[]), Some(0));
/// assert!(snapshot.histogram_snapshot("store_crc_nanos", &[]).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct StoreObs {
    clock: Arc<dyn Clock>,
    journal: Arc<Journal>,
    pub(crate) writes: Arc<Counter>,
    pub(crate) write_nanos: Arc<Histogram>,
    pub(crate) bytes_written: Arc<Counter>,
    pub(crate) reads: Arc<Counter>,
    pub(crate) read_nanos: Arc<Histogram>,
    pub(crate) bytes_read: Arc<Counter>,
    pub(crate) crc_nanos: Arc<Histogram>,
    pub(crate) merges: Arc<Counter>,
    pub(crate) merge_nanos: Arc<Histogram>,
}

impl StoreObs {
    /// Registers the store's instruments in `registry` and binds them to
    /// `clock`; events go to `journal`.
    pub fn new(clock: Arc<dyn Clock>, registry: &Registry, journal: Arc<Journal>) -> Self {
        StoreObs {
            clock,
            journal,
            writes: registry.counter("store_snapshot_writes_total"),
            write_nanos: registry.histogram("store_write_nanos"),
            bytes_written: registry.counter("store_bytes_written_total"),
            reads: registry.counter("store_snapshot_reads_total"),
            read_nanos: registry.histogram("store_read_nanos"),
            bytes_read: registry.counter("store_bytes_read_total"),
            crc_nanos: registry.histogram("store_crc_nanos"),
            merges: registry.counter("store_merges_total"),
            merge_nanos: registry.histogram("store_merge_nanos"),
        }
    }

    /// The clock the observed store paths read.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Records `event` in the journal, stamped with the current clock
    /// reading.
    pub(crate) fn record_event(&self, event: EventKind) {
        self.journal.record(self.clock.now_nanos(), event);
    }

    /// The start time of a timed operation, or `None` under a disabled
    /// clock.
    pub(crate) fn start(&self) -> Option<u64> {
        self.clock.enabled().then(|| self.clock.now_nanos())
    }

    /// Records the wall time since `start` in `histogram`; a no-op
    /// without a start time.
    pub(crate) fn elapsed(&self, histogram: &Histogram, start: Option<u64>) {
        if let Some(start) = start {
            histogram.record(self.clock.now_nanos().saturating_sub(start));
        }
    }
}
