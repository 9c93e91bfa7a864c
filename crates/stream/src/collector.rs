//! The sharded streaming collector.
//!
//! A [`ShardedCollector`] owns `N` independent [`Accumulator`]s and fans
//! ingestion out over scoped worker threads — one worker per shard,
//! each with its own deterministic RNG, each writing only to its own
//! shard's accumulator, so ingestion is embarrassingly parallel and never
//! locks.  At any point mid-stream the shards can be merged (exactly —
//! counts are sums) and snapshotted into the protocol's regular release via
//! the closed-form estimators, so incremental estimation costs O(domain)
//! per snapshot, independent of how many reports have streamed by.
//!
//! The collector is generic over the protocol: it holds an
//! `Arc<dyn Protocol>` and works with any implementation of
//! [`mdrr_protocols::Protocol`] — the paper's three mechanisms today, any
//! future backend unchanged.

// A shard worker's panic is contained and typed, and the containment
// code itself must not panic.
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

use crate::accumulator::Accumulator;
use crate::batch::ReportBatch;
use crate::error::MdrrError;
use crate::instrument::{StreamObs, WorkerObs};
use crate::report::Report;
use mdrr_data::{RecordsBuffer, RecordsView};
use mdrr_obs::EventKind;
use mdrr_protocols::{Protocol, Release};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::ops::Range;
use std::sync::Arc;

/// Multiplier used to derive well-separated per-shard seeds from a base
/// seed (the SplitMix64 golden-ratio increment).
const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Records per [`mdrr_protocols::Protocol::encode_batch`] call on the bulk
/// ingestion paths: large enough to amortise the once-per-batch validation
/// and buffer bookkeeping to nothing, small enough that a chunk's columnar
/// codes stay cache-resident between encoding and counting.
pub const ENCODE_BATCH: usize = 8 * 1024;

/// A point-in-time estimate taken from the accumulated sufficient
/// statistics: the protocol's regular release (so every batch query runs
/// unchanged against a mid-stream snapshot), without randomized microdata.
pub type StreamSnapshot = Box<dyn Release>;

/// A collector ingesting randomized reports through `N` sharded
/// accumulators, for any `dyn Protocol`.
///
/// Instrumentation is opt-in via [`ShardedCollector::instrument`]; an
/// uninstrumented collector pays a single pointer check per bulk call.
/// Clones share the attached instrumentation (it is a view onto the same
/// registry), so cloning never forks metric state.
#[derive(Debug, Clone)]
pub struct ShardedCollector {
    protocol: Arc<dyn Protocol>,
    shards: Vec<Accumulator>,
    /// Degraded-mode flags, parallel to `shards`: a quarantined shard
    /// stopped serving after its worker failed.  Its accumulator keeps
    /// the reports it had absorbed before the failure (a worker that
    /// dies mid-run never half-commits — tallies are absorbed only at
    /// run end), the bulk paths route new records over the remaining
    /// healthy shards, and [`ShardedCollector::rehabilitate`] brings the
    /// shard back once its lost range has been re-collected.
    quarantined: Vec<bool>,
    obs: Option<Arc<StreamObs>>,
}

impl ShardedCollector {
    /// A collector for `protocol` with `n_shards` empty shards.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] if `n_shards` is zero.
    pub fn new(protocol: Arc<dyn Protocol>, n_shards: usize) -> Result<Self, MdrrError> {
        if n_shards == 0 {
            return Err(MdrrError::config("a collector needs at least one shard"));
        }
        let channel_sizes = protocol.channel_sizes();
        let shard = Accumulator::new(&channel_sizes)?;
        Ok(ShardedCollector {
            protocol,
            shards: vec![shard; n_shards],
            quarantined: vec![false; n_shards],
            obs: None,
        })
    }

    /// Convenience constructor wrapping a concrete protocol into the
    /// `Arc<dyn Protocol>` the collector holds.
    ///
    /// # Errors
    /// Same conditions as [`ShardedCollector::new`].
    pub fn for_protocol(
        protocol: impl Protocol + 'static,
        n_shards: usize,
    ) -> Result<Self, MdrrError> {
        Self::new(Arc::new(protocol), n_shards)
    }

    /// Reassembles a collector from restored per-shard accumulators (the
    /// checkpoint/restore path).  The caller guarantees every accumulator
    /// matches the protocol's channel layout.
    pub(crate) fn from_parts(protocol: Arc<dyn Protocol>, shards: Vec<Accumulator>) -> Self {
        debug_assert!(!shards.is_empty());
        let quarantined = vec![false; shards.len()];
        ShardedCollector {
            protocol,
            shards,
            quarantined,
            obs: None,
        }
    }

    /// Attaches instrumentation: from here on, every ingest path bumps
    /// per-shard counters, the bulk paths record per-chunk latency
    /// histograms (when `obs`'s clock is enabled), and snapshots and
    /// checkpoints land in the journal.  Attaching never changes ingest
    /// output — the RNG schedule, shard layout and counts are untouched.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] when `obs` was laid
    /// out for a different shard count.
    pub fn instrument(&mut self, obs: Arc<StreamObs>) -> Result<(), MdrrError> {
        if obs.n_shards() != self.shards.len() {
            return Err(MdrrError::config(format!(
                "instrumentation is laid out for {} shards but the collector has {}",
                obs.n_shards(),
                self.shards.len()
            )));
        }
        self.obs = Some(obs);
        Ok(())
    }

    /// The attached instrumentation, if any.
    pub fn instrumentation(&self) -> Option<&Arc<StreamObs>> {
        self.obs.as_ref()
    }

    /// The protocol the collector ingests reports for.
    pub fn protocol(&self) -> &Arc<dyn Protocol> {
        &self.protocol
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard accumulators, in shard order.
    pub fn shards(&self) -> &[Accumulator] {
        &self.shards
    }

    /// Total number of reports ingested across all shards.
    pub fn total_reports(&self) -> u64 {
        self.shards.iter().map(Accumulator::n_reports).sum()
    }

    /// Whether shard `k` is quarantined (out-of-range indices read as
    /// healthy).
    pub fn is_quarantined(&self, shard: usize) -> bool {
        self.quarantined.get(shard).copied().unwrap_or(false)
    }

    /// The quarantined shard indices, ascending — the shards whose lost
    /// work must be re-collected and merged back (see
    /// [`ShardedCollector::rehabilitate`]).
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.quarantined
            .iter()
            .enumerate()
            .filter_map(|(k, &q)| q.then_some(k))
            .collect()
    }

    /// The healthy (non-quarantined) shard indices, ascending.
    pub fn healthy_shards(&self) -> Vec<usize> {
        self.quarantined
            .iter()
            .enumerate()
            .filter_map(|(k, &q)| (!q).then_some(k))
            .collect()
    }

    /// The record partition the bulk paths would use for `n` records
    /// right now: `(shard, record_range)` pairs over the healthy shards,
    /// in shard order, with empty trailing ranges omitted.  With no shard
    /// quarantined this is exactly the historical contiguous-chunk
    /// partition.  Callers that may need to re-collect a shard's work
    /// after a failure capture this *before* ingesting — quarantining
    /// changes the partition of subsequent calls.
    pub fn shard_ranges(&self, n: usize) -> Vec<(usize, Range<usize>)> {
        if n == 0 {
            return Vec::new();
        }
        let healthy = self.healthy_shards();
        if healthy.is_empty() {
            return Vec::new();
        }
        let chunk_size = n.div_ceil(healthy.len());
        healthy
            .into_iter()
            .enumerate()
            .filter(|&(j, _)| j * chunk_size < n)
            .map(|(j, k)| (k, j * chunk_size..((j + 1) * chunk_size).min(n)))
            .collect()
    }

    /// Brings a quarantined shard back into service with a replacement
    /// accumulator — typically the shard's pre-failure counts merged with
    /// a deterministic re-collection of its lost range (worker `k`'s RNG
    /// stream is reproduced by a one-shard collector under
    /// [`offset_base_seed`]`(base_seed, k)`).  The replacement must match
    /// the collector's channel layout.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] for an out-of-range
    /// shard index or a layout-mismatched accumulator.
    pub fn rehabilitate(
        &mut self,
        shard: usize,
        accumulator: Accumulator,
    ) -> Result<(), MdrrError> {
        let n_shards = self.shards.len();
        let slot = self.shards.get_mut(shard).ok_or_else(|| {
            MdrrError::config(format!(
                "shard index {shard} out of range ({n_shards} shards)"
            ))
        })?;
        let layout_matches = accumulator.counts().len() == slot.counts().len()
            && accumulator
                .counts()
                .iter()
                .zip(slot.counts())
                .all(|(a, b)| a.len() == b.len());
        if !layout_matches {
            return Err(MdrrError::config(format!(
                "replacement accumulator for shard {shard} does not match the collector's \
                 channel layout"
            )));
        }
        *slot = accumulator;
        if let Some(flag) = self.quarantined.get_mut(shard) {
            *flag = false;
        }
        if let Some(obs) = self.obs.as_deref() {
            obs.set_shard_health(shard, true);
        }
        Ok(())
    }

    /// Quarantines every shard whose worker died, records the failures
    /// (health gauge to 0, `stream_shard_failures_total`, a
    /// `shard_failed` journal event each), and surfaces the first one as
    /// the typed error.  The panicked shards' accumulators are untouched:
    /// workers absorb their tallies only at run end, so a mid-run death
    /// never half-commits.
    fn quarantine_failures(&mut self, panicked: Vec<(usize, String)>) -> Result<(), MdrrError> {
        let mut first: Option<(usize, String)> = None;
        for (k, text) in panicked {
            if let Some(flag) = self.quarantined.get_mut(k) {
                *flag = true;
            }
            if let Some(obs) = self.obs.as_deref() {
                obs.shard_failures_total.inc();
                obs.set_shard_health(k, false);
                obs.record_event(EventKind::ShardFailed { shard: k as u64 });
            }
            if first.is_none() {
                first = Some((k, text));
            }
        }
        match first {
            None => Ok(()),
            Some((k, text)) => Err(MdrrError::shard_failed(k, text)),
        }
    }

    /// Ingests one already-encoded report into a specific shard (the
    /// network path: reports arrive pre-randomized from the clients and are
    /// routed to a shard by any load-balancing rule).
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] for a bad shard index
    /// or a report that does not match the protocol's channels, and
    /// [`MdrrError::ShardFailed`] for a quarantined shard.
    pub fn ingest_report(&mut self, shard: usize, report: &Report) -> Result<(), MdrrError> {
        routable(&mut self.shards, &self.quarantined, shard)?.ingest(report)?;
        if let Some(obs) = self.obs.as_ref() {
            if let Some(shard_obs) = obs.shards.get(shard) {
                shard_obs.reports.inc();
            }
        }
        Ok(())
    }

    /// Ingests a whole columnar [`ReportBatch`] into a specific shard (the
    /// bulk network path: pre-encoded reports arriving in batches and
    /// routed to a shard by any load-balancing rule).  Returns the number
    /// of reports ingested.
    ///
    /// # Errors
    /// Same contract as [`ShardedCollector::ingest_report`].
    pub fn ingest_batch(&mut self, shard: usize, batch: &ReportBatch) -> Result<u64, MdrrError> {
        let worker = WorkerObs::for_shard(self.obs.as_deref(), shard);
        let start = worker.chunk_start();
        routable(&mut self.shards, &self.quarantined, shard)?.ingest_batch(batch)?;
        let n = batch.n_reports() as u64;
        worker.chunk_done(start);
        worker.run_done(n);
        Ok(n)
    }

    /// The one bulk fan-out behind every `ingest_*` path over many
    /// records.  It partitions `n` records with
    /// [`ShardedCollector::shard_ranges`] — the only definition of the
    /// partition — and runs one scoped worker thread per range.
    /// Worker `k` calls `body` with the protocol, its record range, its
    /// own deterministic RNG (derived from `base_seed` and `k`; the shard
    /// → RNG mapping is independent of how many shards end up with
    /// records), shard `k`'s accumulator and the shard's observer.  After
    /// the join it quarantines every shard whose worker panicked, surfaces
    /// the first error and refreshes the imbalance gauge.  Returns `n`.
    fn fan_out<F>(&mut self, n: usize, base_seed: u64, body: F) -> Result<u64, MdrrError>
    where
        F: Fn(
                &dyn Protocol,
                Range<usize>,
                &mut StdRng,
                &mut Accumulator,
                &WorkerObs<'_>,
            ) -> Result<(), MdrrError>
            + Sync,
    {
        if n == 0 {
            return Ok(0);
        }
        let mut ranges = self.shard_ranges(n).into_iter().peekable();
        if ranges.peek().is_none() {
            return Err(MdrrError::config(
                "every shard is quarantined; rehabilitate at least one before ingesting",
            ));
        }
        let protocol: &dyn Protocol = &*self.protocol;
        let obs = self.obs.as_deref();
        let body = &body;
        let (results, panicked) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .filter_map(|(k, shard)| {
                    let (_, range) = ranges.next_if(|(owner, _)| *owner == k)?;
                    Some((k, shard, range))
                })
                .map(|(k, shard, range)| {
                    let handle = scope.spawn(move || {
                        let worker = WorkerObs::for_shard(obs, k);
                        let mut rng = shard_rng(base_seed, k);
                        let reports = range.len() as u64;
                        body(protocol, range, &mut rng, shard, &worker)?;
                        worker.run_done(reports);
                        Ok(())
                    });
                    (k, handle)
                })
                .collect();
            join_workers(handles)
        });
        self.quarantine_failures(panicked)?;
        for result in results {
            result?;
        }
        self.update_imbalance();
        Ok(n as u64)
    }

    /// Simulates `records.n_records()` clients from a zero-copy columnar
    /// view — the fastest bulk path.  Worker `k` of the
    /// [`ShardedCollector::shard_ranges`] partition encodes its contiguous
    /// range in [`ENCODE_BATCH`]-sized chunks through the protocol's
    /// batched encoder with its own deterministic RNG (derived from
    /// `base_seed` and `k`) and bulk-counts each chunk into shard `k` —
    /// no locks, no cross-shard traffic, zero allocations per record.
    ///
    /// The result is fully deterministic for a given
    /// `(records, base_seed, n_shards)` triple and bit-identical to
    /// encoding and ingesting shard `k`'s records one at a time with the
    /// same RNG ([`ShardedCollector::ingest_records_per_record`]), which
    /// the stream proptests enforce.
    ///
    /// Returns the number of reports ingested.
    ///
    /// # Errors
    /// Returns the first worker error (e.g. a record that does not fit the
    /// protocol's schema).  Shards that already counted earlier chunks of
    /// their range keep those reports, so a failed call should be treated
    /// as poisoning the collector.  A worker that *panics* is contained:
    /// its shard is quarantined (the panic never half-commits — tallies
    /// absorb only at run end), the other shards' work survives, and the
    /// panic surfaces as [`MdrrError::ShardFailed`].
    pub fn ingest_view(
        &mut self,
        records: &RecordsView<'_>,
        base_seed: u64,
    ) -> Result<u64, MdrrError> {
        let n = records.n_records();
        self.fan_out(n, base_seed, |protocol, range, rng, shard, worker| {
            let range = records.slice(range)?;
            let mut tallies: Vec<Vec<u64>> = shard
                .counts()
                .iter()
                .map(|channel| vec![0u64; channel.len()])
                .collect();
            for start in (0..range.n_records()).step_by(ENCODE_BATCH) {
                let chunk = range.slice(start..(start + ENCODE_BATCH).min(range.n_records()))?;
                let t0 = worker.chunk_start();
                protocol.encode_tally(&chunk, rng, &mut tallies)?;
                worker.chunk_done(t0);
            }
            shard.absorb_counts(&tallies, range.n_records() as u64)
        })
    }

    /// Simulates `records.len()` clients from row-major records: transposes
    /// the whole input into one columnar [`RecordsBuffer`] (so it holds a
    /// second copy of the records for the duration of the call), then runs
    /// [`ShardedCollector::ingest_view`] over it — same partition, chunking
    /// and RNG schedule, same counts.  A row of the wrong arity is rejected
    /// during the transpose, before any shard counts anything.
    ///
    /// Returns the number of reports ingested.
    ///
    /// # Errors
    /// Returns [`MdrrError::Data`] for a row of the wrong arity (nothing
    /// is ingested); otherwise the same contract as
    /// [`ShardedCollector::ingest_view`].
    pub fn ingest_records(
        &mut self,
        records: &[Vec<u32>],
        base_seed: u64,
    ) -> Result<u64, MdrrError> {
        let mut buffer = RecordsBuffer::new(self.protocol.schema().len())?;
        for record in records {
            buffer.push_record(record)?;
        }
        self.ingest_view(&buffer.view(), base_seed)
    }

    /// The scalar reference sibling of [`ShardedCollector::ingest_view`]:
    /// identical partition and RNG schedule, but every record is encoded
    /// into its own [`Report`] and ingested one at a time — two heap
    /// allocations, a dyn-dispatched encode and a full validation per
    /// record.  Kept public as the ground truth the batch path is
    /// proptest-pinned against.
    ///
    /// Returns the number of reports ingested.
    ///
    /// # Errors
    /// Same contract as [`ShardedCollector::ingest_view`].
    pub fn ingest_records_per_record(
        &mut self,
        records: &[Vec<u32>],
        base_seed: u64,
    ) -> Result<u64, MdrrError> {
        let n = records.len();
        self.fan_out(n, base_seed, |protocol, range, rng, shard, worker| {
            // Timed per worker run (one "chunk"), not per report —
            // per-report clock reads would distort the baseline this path
            // exists to provide.
            let t0 = worker.chunk_start();
            for record in records.iter().take(range.end).skip(range.start) {
                let report = Report::encode(protocol, record, rng)?;
                shard.ingest(&report)?;
            }
            worker.chunk_done(t0);
            Ok(())
        })
    }

    /// The k-way merge of all shards (exact: counts are sums).
    ///
    /// # Errors
    /// Propagates accumulator errors (cannot happen for a well-formed
    /// collector, whose shards share one channel layout).
    pub fn merged(&self) -> Result<Accumulator, MdrrError> {
        let mut merged = Accumulator::new(&self.protocol.channel_sizes())?;
        for shard in &self.shards {
            merged.merge(shard)?;
        }
        Ok(merged)
    }

    /// Takes a point-in-time estimate: merges all shards and runs the
    /// protocol's closed-form estimation on the pooled counts.  The
    /// returned release answers every query the batch release answers, and
    /// is numerically identical to the batch estimate over the same
    /// randomized codes.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] when no report has
    /// been ingested yet.
    pub fn snapshot(&self) -> Result<StreamSnapshot, MdrrError> {
        let timing = self
            .obs
            .as_deref()
            .filter(|o| o.clock().enabled())
            .map(|o| (o, o.clock().now_nanos()));
        let merged = self.merged()?;
        if merged.is_empty() {
            return Err(MdrrError::config(
                "cannot snapshot a collector before any report has been ingested",
            ));
        }
        let release = self
            .protocol
            .release_from_counts(merged.counts(), merged.n_reports() as usize)?;
        if let Some((obs, start)) = timing {
            obs.snapshot_nanos
                .record(obs.clock().now_nanos().saturating_sub(start));
        }
        if let Some(obs) = self.obs.as_deref() {
            obs.snapshots_total.inc();
            obs.update_imbalance(&self.shards);
            obs.record_event(EventKind::ShardSnapshot {
                shards: self.shards.len() as u64,
                total_reports: merged.n_reports(),
            });
        }
        Ok(release)
    }

    /// Refreshes the shard-imbalance gauge, when instrumented.
    fn update_imbalance(&self) {
        if let Some(obs) = self.obs.as_deref() {
            obs.update_imbalance(&self.shards);
        }
    }
}

/// Shard `shard`'s accumulator, if a routed report or batch may land in
/// it: the index must be in range and the shard must not be quarantined.
fn routable<'a>(
    shards: &'a mut [Accumulator],
    quarantined: &[bool],
    shard: usize,
) -> Result<&'a mut Accumulator, MdrrError> {
    if quarantined.get(shard).copied().unwrap_or(false) {
        return Err(MdrrError::shard_failed(
            shard,
            "shard is quarantined; rehabilitate it before routing to it".to_string(),
        ));
    }
    let n_shards = shards.len();
    shards.get_mut(shard).ok_or_else(|| {
        MdrrError::config(format!(
            "shard index {shard} out of range ({n_shards} shards)"
        ))
    })
}

/// Worker panics collected at join time: `(shard ordinal, panic text)`.
type PanickedWorkers = Vec<(usize, String)>;

/// Joins a set of `(shard, handle)` worker pairs, separating ordinary
/// results from panics: a panicked worker becomes a `(shard, panic text)`
/// entry instead of re-raising, so the caller can quarantine the shard
/// and keep the healthy workers' results.
fn join_workers<'scope>(
    handles: Vec<(
        usize,
        std::thread::ScopedJoinHandle<'scope, Result<(), MdrrError>>,
    )>,
) -> (Vec<Result<(), MdrrError>>, PanickedWorkers) {
    let mut results = Vec::with_capacity(handles.len());
    let mut panicked = Vec::new();
    for (k, handle) in handles {
        match handle.join() {
            Ok(result) => results.push(result),
            Err(payload) => panicked.push((k, panic_text(payload))),
        }
    }
    (results, panicked)
}

/// The human-readable text of a worker panic payload (panics raised with
/// `panic!("…")` carry a `String` or `&str`; anything else is summarized).
fn panic_text(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(text) => *text,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(text) => (*text).to_string(),
            Err(_) => "worker panicked with a non-string payload".to_string(),
        },
    }
}

/// The deterministic RNG of shard `k` for a given base seed.
fn shard_rng(base_seed: u64, k: usize) -> StdRng {
    StdRng::seed_from_u64(base_seed.wrapping_add((k as u64).wrapping_mul(SHARD_SEED_STRIDE)))
}

/// The base seed under which a collector's *local* shard `k` draws the
/// exact RNG stream that *global* shard `shard_offset + k` would draw
/// under `base_seed` — the cross-process sharding contract.
///
/// A fleet of processes can split one logical collector of `K = N × S`
/// shards into `N` collectors of `S` shards each: process `p` ingests its
/// contiguous record range under `offset_base_seed(base_seed, p * S)`,
/// and the persisted per-shard counts merge into exactly what a single
/// `K`-shard collector under `base_seed` would have produced — provided
/// the record partition also lines up (every process except possibly the
/// last must hold `S × ceil(n_total / K)` records, i.e. whole global
/// chunks).  `examples/distributed_merge.rs` demonstrates the full
/// construction end to end.
///
/// ```
/// use mdrr_stream::offset_base_seed;
/// // Offset 0 is the identity: process 0 shares the global base seed.
/// assert_eq!(offset_base_seed(42, 0), 42);
/// // Offsets compose: two shards forward twice is four shards forward.
/// assert_eq!(
///     offset_base_seed(offset_base_seed(42, 2), 2),
///     offset_base_seed(42, 4)
/// );
/// ```
pub fn offset_base_seed(base_seed: u64, shard_offset: usize) -> u64 {
    base_seed.wrapping_add((shard_offset as u64).wrapping_mul(SHARD_SEED_STRIDE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_data::{Attribute, Schema};
    use mdrr_protocols::{FrequencyEstimator, ProtocolSpec, RandomizationLevel};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::indexed("A", 3).unwrap(),
            Attribute::indexed("B", 2).unwrap(),
        ])
        .unwrap()
    }

    fn protocol() -> Arc<dyn Protocol> {
        ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7))
            .build_arc(&schema())
            .unwrap()
    }

    fn records(n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|i| vec![(i % 3) as u32, (i % 2) as u32])
            .collect()
    }

    #[test]
    fn construction_validates_shard_count() {
        assert!(ShardedCollector::new(protocol(), 0).is_err());
        let c = ShardedCollector::new(protocol(), 4).unwrap();
        assert_eq!(c.n_shards(), 4);
        assert_eq!(c.total_reports(), 0);
        assert!(c.snapshot().is_err());
    }

    #[test]
    fn for_protocol_wraps_concrete_protocols() {
        let concrete =
            mdrr_protocols::RRIndependent::new(schema(), &RandomizationLevel::KeepProbability(0.7))
                .unwrap();
        let c = ShardedCollector::for_protocol(concrete, 2).unwrap();
        assert_eq!(c.protocol().name(), "RR-Independent");
        assert_eq!(c.n_shards(), 2);
    }

    #[test]
    fn parallel_ingestion_is_deterministic_and_covers_every_record() {
        let mut a = ShardedCollector::new(protocol(), 4).unwrap();
        let mut b = ShardedCollector::new(protocol(), 4).unwrap();
        let rs = records(1_001);
        assert_eq!(a.ingest_records(&rs, 7).unwrap(), 1_001);
        assert_eq!(b.ingest_records(&rs, 7).unwrap(), 1_001);
        assert_eq!(a.shards(), b.shards());
        assert_eq!(a.total_reports(), 1_001);
        // Every shard except possibly the last is full.
        assert!(a.shards()[..3].iter().all(|s| s.n_reports() == 251));
        assert_eq!(a.shards()[3].n_reports(), 248);

        // A different seed produces different randomized counts.
        let mut c = ShardedCollector::new(protocol(), 4).unwrap();
        c.ingest_records(&rs, 8).unwrap();
        assert_ne!(a.shards(), c.shards());
    }

    #[test]
    fn ingestion_handles_degenerate_shapes() {
        let mut c = ShardedCollector::new(protocol(), 8).unwrap();
        // Fewer records than shards: trailing shards stay empty.
        assert_eq!(c.ingest_records(&records(3), 1).unwrap(), 3);
        assert_eq!(c.total_reports(), 3);
        // No records at all is a no-op.
        assert_eq!(c.ingest_records(&[], 1).unwrap(), 0);
        // Invalid records surface as errors.
        assert!(c.ingest_records(&[vec![9, 9]], 1).is_err());
    }

    #[test]
    fn a_bad_arity_row_is_rejected_before_any_shard_counts() {
        // The rows are transposed before the fan-out, so a wrong-length
        // row anywhere fails the call with every shard untouched.
        let mut c = ShardedCollector::new(protocol(), 4).unwrap();
        let mut rs = records(100);
        rs.push(vec![0]);
        assert!(c.ingest_records(&rs, 1).is_err());
        assert_eq!(c.total_reports(), 0);
        assert!(c.quarantined_shards().is_empty());
    }

    #[test]
    fn batch_ingestion_is_bit_identical_to_the_per_record_path() {
        // Same records, same base seed: the columnar batch pipeline and
        // the scalar reference pipeline must produce byte-identical shard
        // accumulators, for shard counts around and beyond the chunking
        // boundaries.
        let rs = records(3_007);
        for n_shards in [1usize, 3, 8] {
            let mut batched = ShardedCollector::new(protocol(), n_shards).unwrap();
            let mut scalar = ShardedCollector::new(protocol(), n_shards).unwrap();
            let mut columnar = ShardedCollector::new(protocol(), n_shards).unwrap();
            assert_eq!(batched.ingest_records(&rs, 77).unwrap(), 3_007);
            assert_eq!(scalar.ingest_records_per_record(&rs, 77).unwrap(), 3_007);
            let ds = mdrr_data::Dataset::from_records(schema(), &rs).unwrap();
            assert_eq!(columnar.ingest_view(&ds.view(), 77).unwrap(), 3_007);
            assert_eq!(batched.shards(), scalar.shards(), "{n_shards} shards");
            assert_eq!(batched.shards(), columnar.shards(), "{n_shards} shards");
        }
    }

    #[test]
    fn routed_batches_land_in_their_shard() {
        let mut c = ShardedCollector::new(protocol(), 2).unwrap();
        let mut batch = crate::batch::ReportBatch::new(2).unwrap();
        batch.push(&Report::new(vec![1, 0])).unwrap();
        batch.push(&Report::new(vec![2, 1])).unwrap();
        assert_eq!(c.ingest_batch(1, &batch).unwrap(), 2);
        assert!(c.ingest_batch(5, &batch).is_err());
        assert_eq!(c.shards()[0].n_reports(), 0);
        assert_eq!(c.shards()[1].n_reports(), 2);
    }

    #[test]
    fn view_ingestion_handles_degenerate_shapes() {
        let mut c = ShardedCollector::new(protocol(), 8).unwrap();
        // Fewer records than shards: trailing shards stay empty, and no
        // worker is spawned for them.
        let ds = mdrr_data::Dataset::from_records(schema(), &records(3)).unwrap();
        assert_eq!(c.ingest_view(&ds.view(), 1).unwrap(), 3);
        assert_eq!(c.total_reports(), 3);
        assert!(c.shards()[3..].iter().all(Accumulator::is_empty));
        // An empty view is a no-op.
        let empty = mdrr_data::Dataset::empty(schema());
        assert_eq!(c.ingest_view(&empty.view(), 1).unwrap(), 0);
        assert_eq!(c.total_reports(), 3);
    }

    #[test]
    fn snapshot_matches_manual_merge() {
        let mut c = ShardedCollector::new(protocol(), 4).unwrap();
        c.ingest_records(&records(2_000), 3).unwrap();
        let merged = c.merged().unwrap();
        assert_eq!(merged.n_reports(), 2_000);
        let snapshot = c.snapshot().unwrap();
        assert_eq!(snapshot.record_count(), 2_000);
        let direct = c
            .protocol()
            .release_from_counts(merged.counts(), 2_000)
            .unwrap();
        // The snapshot is the protocol's regular release over the merged
        // counts: identical marginals and identical query answers.
        for j in 0..2 {
            assert_eq!(snapshot.marginal(j).unwrap(), direct.marginal(j).unwrap());
        }
        let f = snapshot.frequency(&[(0, 1)]).unwrap();
        assert_eq!(f, direct.frequency(&[(0, 1)]).unwrap());
        assert!((f - 1.0 / 3.0).abs() < 0.1);
    }

    #[test]
    fn routed_reports_land_in_their_shard() {
        let mut c = ShardedCollector::new(protocol(), 2).unwrap();
        let report = Report::new(vec![1, 0]);
        c.ingest_report(1, &report).unwrap();
        assert!(c.ingest_report(5, &report).is_err());
        assert_eq!(c.shards()[0].n_reports(), 0);
        assert_eq!(c.shards()[1].n_reports(), 1);
    }
}
