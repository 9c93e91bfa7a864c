//! Optional collector instrumentation.
//!
//! A [`StreamObs`] bundles everything the streaming layer measures: the
//! injected [`Clock`], a metric [`Registry`] shared with the store layer
//! (and any other layer the caller wires in), a bounded event
//! [`Journal`], and per-shard instruments.  A collector runs completely
//! uninstrumented unless
//! [`ShardedCollector::instrument`](crate::ShardedCollector::instrument)
//! attaches one — and even then, a disabled clock ([`mdrr_obs::NullClock`]) skips all
//! timing reads, leaving only relaxed counter bumps once per batch.
//!
//! Metric catalog (in addition to the `store_*` metrics of
//! [`mdrr_store::StoreObs`], which share the registry):
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `stream_shard_reports_total{shard}` | counter | reports ingested per shard |
//! | `stream_shard_batches_total{shard}` | counter | encode/ingest batches per shard |
//! | `stream_shard_ingest_nanos{shard}` | histogram | per-batch ingest wall time |
//! | `stream_shard_healthy{shard}` | gauge | 1 while the shard serves, 0 once quarantined |
//! | `stream_shard_failures_total` | counter | shard-worker failures (panics) observed |
//! | `stream_shard_imbalance_permille` | gauge | (max−min)/max shard load, ‰ |
//! | `stream_snapshots_total` | counter | mid-stream snapshots taken |
//! | `stream_snapshot_nanos` | histogram | per-snapshot wall time |
//! | `store_checkpoints_total` | counter | checkpoints committed |
//! | `store_checkpoint_nanos` | histogram | per-checkpoint wall time |
//! | `store_checkpoint_bytes_total` | counter | bytes written by checkpoints |
//! | `store_restores_total` | counter | restores completed |
//! | `store_restore_nanos` | histogram | per-restore wall time |

use crate::accumulator::Accumulator;
use mdrr_obs::{Clock, Counter, EventKind, Gauge, Histogram, Journal, Registry};
use mdrr_store::StoreObs;
use std::sync::Arc;

/// Journal capacity of [`StreamObs::new`]: enough for every checkpoint /
/// snapshot / restore milestone of a long run plus a window of recent
/// per-shard batch events.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// Per-shard instruments (one set per shard, labelled `{shard="k"}`).
#[derive(Debug)]
pub(crate) struct ShardObs {
    pub(crate) reports: Arc<Counter>,
    pub(crate) batches: Arc<Counter>,
    pub(crate) ingest_nanos: Arc<Histogram>,
    pub(crate) healthy: Arc<Gauge>,
}

/// The streaming layer's instruments, clock, registry and journal.
///
/// ```
/// use mdrr_obs::MonotonicClock;
/// use mdrr_stream::StreamObs;
/// use std::sync::Arc;
///
/// let obs = StreamObs::new(Arc::new(MonotonicClock::new()), 4);
/// assert_eq!(obs.n_shards(), 4);
/// // The full metric set exists from construction, shard labels included.
/// let snapshot = obs.registry().snapshot();
/// assert_eq!(
///     snapshot.counter_value("stream_shard_reports_total", &[("shard", "3")]),
///     Some(0)
/// );
/// assert_eq!(snapshot.counter_value("store_checkpoints_total", &[]), Some(0));
/// ```
#[derive(Debug)]
pub struct StreamObs {
    clock: Arc<dyn Clock>,
    registry: Arc<Registry>,
    journal: Arc<Journal>,
    store: StoreObs,
    pub(crate) shards: Vec<ShardObs>,
    pub(crate) shard_failures_total: Arc<Counter>,
    pub(crate) snapshots_total: Arc<Counter>,
    pub(crate) snapshot_nanos: Arc<Histogram>,
    pub(crate) imbalance_permille: Arc<Gauge>,
    pub(crate) checkpoints_total: Arc<Counter>,
    pub(crate) checkpoint_nanos: Arc<Histogram>,
    pub(crate) checkpoint_bytes: Arc<Counter>,
    pub(crate) restores_total: Arc<Counter>,
    pub(crate) restore_nanos: Arc<Histogram>,
}

impl StreamObs {
    /// Instrumentation for an `n_shards`-shard collector, with a fresh
    /// registry, the default journal capacity, and the store instruments
    /// registered alongside the stream ones.
    pub fn new(clock: Arc<dyn Clock>, n_shards: usize) -> Arc<Self> {
        Self::with_journal_capacity(clock, n_shards, DEFAULT_JOURNAL_CAPACITY)
    }

    /// [`StreamObs::new`] with an explicit journal capacity bound.
    pub fn with_journal_capacity(
        clock: Arc<dyn Clock>,
        n_shards: usize,
        journal_capacity: usize,
    ) -> Arc<Self> {
        let registry = Arc::new(Registry::new());
        let store = StoreObs::new(Arc::clone(&clock), &registry);
        let shards = (0..n_shards)
            .map(|k| {
                let shard = k.to_string();
                let labels: &[(&str, &str)] = &[("shard", shard.as_str())];
                let healthy = registry.gauge_with("stream_shard_healthy", labels);
                healthy.set(1);
                ShardObs {
                    reports: registry.counter_with("stream_shard_reports_total", labels),
                    batches: registry.counter_with("stream_shard_batches_total", labels),
                    ingest_nanos: registry.histogram_with("stream_shard_ingest_nanos", labels),
                    healthy,
                }
            })
            .collect();
        Arc::new(StreamObs {
            shard_failures_total: registry.counter("stream_shard_failures_total"),
            snapshots_total: registry.counter("stream_snapshots_total"),
            snapshot_nanos: registry.histogram("stream_snapshot_nanos"),
            imbalance_permille: registry.gauge("stream_shard_imbalance_permille"),
            checkpoints_total: registry.counter("store_checkpoints_total"),
            checkpoint_nanos: registry.histogram("store_checkpoint_nanos"),
            checkpoint_bytes: registry.counter("store_checkpoint_bytes_total"),
            restores_total: registry.counter("store_restores_total"),
            restore_nanos: registry.histogram("store_restore_nanos"),
            journal: Arc::new(Journal::new(journal_capacity)),
            shards,
            store,
            clock,
            registry,
        })
    }

    /// The injected clock every observed stream/store path reads.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The registry holding the stream *and* store instruments — snapshot
    /// it and feed [`mdrr_obs::to_json`] / [`mdrr_obs::to_prometheus`].
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The bounded event journal (checkpoint begin/commit, restore,
    /// snapshot, merge, batch events).
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// The store-layer instruments sharing this registry (attach them to
    /// a handle with `mdrr_store::Storage::with_obs`).
    pub fn store(&self) -> &StoreObs {
        &self.store
    }

    /// The shard count these instruments were laid out for.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Records `event` in the journal, stamped with the current clock
    /// reading.
    pub fn record_event(&self, event: EventKind) {
        self.journal.record(self.clock.now_nanos(), event);
    }

    /// Recomputes the shard-imbalance gauge from per-shard report counts:
    /// `(max − min) · 1000 / max` (0 when no shard has ingested yet).
    pub(crate) fn update_imbalance(&self, shards: &[Accumulator]) {
        let mut min = u64::MAX;
        let mut max = 0u64;
        for shard in shards {
            let n = shard.n_reports();
            min = min.min(n);
            max = max.max(n);
        }
        let permille = (max - min.min(max))
            .saturating_mul(1000)
            .checked_div(max)
            .unwrap_or(0);
        self.imbalance_permille.set(permille);
    }

    /// Flips shard `k`'s health gauge (1 = serving, 0 = quarantined).
    /// Out-of-range shards are ignored.
    pub(crate) fn set_shard_health(&self, k: usize, healthy: bool) {
        if let Some(shard) = self.shards.get(k) {
            shard.healthy.set(u64::from(healthy));
        }
    }
}

/// One ingest worker's view of the instrumentation, resolved once per
/// worker run: the per-chunk hot path is a single `Option` check when
/// uninstrumented, two clock reads plus relaxed bumps when on, and
/// counter bumps only (no clock reads) under a disabled clock.
#[derive(Clone, Copy)]
pub(crate) struct WorkerObs<'a> {
    obs: Option<&'a StreamObs>,
    shard: Option<&'a ShardObs>,
    clock: Option<&'a dyn Clock>,
    k: usize,
}

impl<'a> WorkerObs<'a> {
    /// The worker observer of shard `k` (inert when `obs` is `None`).
    pub(crate) fn for_shard(obs: Option<&'a StreamObs>, k: usize) -> Self {
        WorkerObs {
            obs,
            shard: obs.and_then(|o| o.shards.get(k)),
            clock: obs.and_then(|o| o.clock.enabled().then_some(o.clock.as_ref())),
            k,
        }
    }

    /// The clock reading before a chunk (0 when timing is off).
    pub(crate) fn chunk_start(&self) -> u64 {
        self.clock.map(Clock::now_nanos).unwrap_or(0)
    }

    /// Accounts one encode/count chunk: bumps the shard's batch counter
    /// and, when timing is on, records the chunk latency.
    pub(crate) fn chunk_done(&self, start: u64) {
        if let Some(shard) = self.shard {
            shard.batches.inc();
            if let Some(clock) = self.clock {
                shard
                    .ingest_nanos
                    .record(clock.now_nanos().saturating_sub(start));
            }
        }
    }

    /// Accounts a finished worker run of `reports` reports: bumps the
    /// shard's report counter and journals one `BatchIngested` event.
    pub(crate) fn run_done(&self, reports: u64) {
        if let Some(shard) = self.shard {
            shard.reports.add(reports);
        }
        if let Some(obs) = self.obs {
            obs.record_event(EventKind::BatchIngested {
                shard: self.k as u64,
                reports,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_obs::{ManualClock, NullClock};

    #[test]
    fn imbalance_gauge_tracks_spread() {
        let obs = StreamObs::new(Arc::new(NullClock), 2);
        let mut a = Accumulator::new(&[2]).unwrap();
        let b = Accumulator::new(&[2]).unwrap();
        a.absorb_counts(&[vec![3, 1]], 4).unwrap();
        obs.update_imbalance(&[a.clone(), b.clone()]);
        assert_eq!(
            obs.registry()
                .snapshot()
                .gauge_value("stream_shard_imbalance_permille", &[]),
            Some(1000)
        );
        obs.update_imbalance(&[a.clone(), a]);
        assert_eq!(
            obs.registry()
                .snapshot()
                .gauge_value("stream_shard_imbalance_permille", &[]),
            Some(0)
        );
        obs.update_imbalance(&[]);
    }

    #[test]
    fn worker_obs_counts_without_timing_under_a_null_clock() {
        let null_obs = StreamObs::new(Arc::new(NullClock), 1);
        let worker = WorkerObs::for_shard(Some(&null_obs), 0);
        assert_eq!(worker.chunk_start(), 0);
        worker.chunk_done(0); // bumps the batch counter, records no time
        worker.run_done(10);
        let snap = null_obs.registry().snapshot();
        assert_eq!(
            snap.counter_value("stream_shard_batches_total", &[("shard", "0")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("stream_shard_reports_total", &[("shard", "0")]),
            Some(10)
        );
        // Out-of-range shard and absent obs are inert, not panics.
        WorkerObs::for_shard(Some(&null_obs), 9).chunk_done(0);
        WorkerObs::for_shard(None, 0).run_done(5);

        let clock = Arc::new(ManualClock::new());
        let obs = StreamObs::new(clock.clone(), 1);
        let worker = WorkerObs::for_shard(Some(&obs), 0);
        let start = worker.chunk_start();
        clock.advance(500);
        worker.chunk_done(start);
        let hist = obs
            .registry()
            .snapshot()
            .histogram_snapshot("stream_shard_ingest_nanos", &[("shard", "0")])
            .cloned()
            .unwrap();
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum, 500);
        // The NullClock path recorded nothing.
        let null_hist = null_obs
            .registry()
            .snapshot()
            .histogram_snapshot("stream_shard_ingest_nanos", &[("shard", "0")])
            .cloned()
            .unwrap();
        assert_eq!(null_hist.count, 0);
    }

    #[test]
    fn events_are_stamped_with_the_injected_clock() {
        let clock = Arc::new(ManualClock::new());
        let obs = StreamObs::new(clock.clone(), 1);
        clock.set(77);
        obs.record_event(EventKind::CheckpointBegin { shards: 1 });
        let events = obs.journal().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at_nanos, 77);
    }
}
