//! A fault-injecting [`Protocol`]: the deterministic stand-in for a shard
//! worker dying mid-ingest, as [`mdrr_store::FaultyBackend`] is for a
//! failing disk.

use crate::MdrrError;
use mdrr_data::{Dataset, RecordsView, Schema};
use mdrr_protocols::{Protocol, Release};
use rand::RngCore;
use std::ptr::null_mut;
use std::sync::atomic::{AtomicPtr, Ordering::SeqCst};
use std::sync::Arc;

/// A [`Protocol`] that delegates every call to the protocol it wraps,
/// except that [`Protocol::encode_tally`] panics on the one chunk the
/// caller names — a worker dying mid-ingest (OOM, corrupted input, a bug
/// in a protocol backend).  Every call that does not panic is
/// bit-identical to the inner protocol's, so a recovered run can be
/// compared against an uninterrupted one exactly.  The torture suite and
/// `stream_sim --chaos` drive it; nothing in the collector, the wire or
/// the daemon does.
///
/// The victim is named by address, not by call order, so which shard dies
/// never depends on how the worker threads race:
/// [`FaultyProtocol::arm`] takes the first column of the victim shard's
/// range, and the panic fires in the worker whose chunk's first column
/// starts at that address — under [`crate::ShardedCollector::ingest_view`],
/// the first chunk of exactly that shard.  It fires once, then disarms.
///
/// ```
/// use mdrr_data::{Attribute, Dataset, Schema};
/// use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
/// use mdrr_stream::{FaultyProtocol, MdrrError, ShardedCollector};
/// use std::sync::Arc;
///
/// let schema = Schema::new(vec![Attribute::indexed("A", 3)?])?;
/// let inner = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7))
///     .build_arc(&schema)?;
/// let faulty = Arc::new(FaultyProtocol::new(inner));
/// let mut collector = ShardedCollector::new(faulty.clone(), 2)?;
/// let records: Vec<Vec<u32>> = (0..100).map(|i| vec![i % 3]).collect();
/// let records = Dataset::from_records(schema, &records)?;
/// // Kill shard 1's worker: arm the first column of its range.
/// let (_, range) = collector.shard_ranges(records.n_records())[1].clone();
/// faulty.arm(records.view().slice(range)?.column(0)?);
/// let err = collector.ingest_view(&records.view(), 7).unwrap_err();
/// assert!(matches!(err, MdrrError::ShardFailed { shard: 1, .. }));
/// assert_eq!(collector.quarantined_shards(), vec![1]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FaultyProtocol {
    inner: Arc<dyn Protocol>,
    /// Start of the victim chunk's first column; null when disarmed.
    victim: AtomicPtr<u32>,
}

impl FaultyProtocol {
    /// Wraps `inner`, disarmed: until [`FaultyProtocol::arm`] it is the
    /// inner protocol.
    pub fn new(inner: Arc<dyn Protocol>) -> Self {
        FaultyProtocol {
            inner,
            victim: AtomicPtr::new(null_mut()),
        }
    }

    /// Arms one worker death: the next [`Protocol::encode_tally`] call
    /// whose chunk's first column starts where `first_column` starts
    /// panics.  Pass the first column of the victim shard's range of the
    /// records about to be ingested (`view.slice(range)?.column(0)?`).
    /// Re-arming replaces an armed victim that has not fired.
    pub fn arm(&self, first_column: &[u32]) {
        self.victim.store(first_column.as_ptr().cast_mut(), SeqCst);
    }
}

impl Protocol for FaultyProtocol {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
    fn channel_sizes(&self) -> Vec<usize> {
        self.inner.channel_sizes()
    }
    fn encode_record(&self, record: &[u32], rng: &mut dyn RngCore) -> Result<Vec<u32>, MdrrError> {
        self.inner.encode_record(record, rng)
    }
    fn encode_batch(
        &self,
        records: &RecordsView<'_>,
        rng: &mut dyn RngCore,
        out: &mut [Vec<u32>],
    ) -> Result<(), MdrrError> {
        self.inner.encode_batch(records, rng, out)
    }
    #[expect(
        clippy::panic,
        reason = "the injected worker death is this wrapper's purpose"
    )]
    fn encode_tally(
        &self,
        records: &RecordsView<'_>,
        rng: &mut dyn RngCore,
        tallies: &mut [Vec<u64>],
    ) -> Result<(), MdrrError> {
        let start = records.column(0)?.as_ptr().cast_mut();
        // Disarm and fire in one step, so exactly one worker dies.
        if self
            .victim
            .compare_exchange(start, null_mut(), SeqCst, SeqCst)
            .is_ok()
        {
            panic!("injected shard worker failure");
        }
        self.inner.encode_tally(records, rng, tallies)
    }
    fn decode_report(&self, codes: &[u32]) -> Result<Vec<u32>, MdrrError> {
        self.inner.decode_report(codes)
    }
    fn release_from_counts(
        &self,
        counts: &[Vec<u64>],
        n_records: usize,
    ) -> Result<Box<dyn Release>, MdrrError> {
        self.inner.release_from_counts(counts, n_records)
    }
    fn release_from_randomized(&self, randomized: Dataset) -> Result<Box<dyn Release>, MdrrError> {
        self.inner.release_from_randomized(randomized)
    }
    fn run(&self, dataset: &Dataset, rng: &mut dyn RngCore) -> Result<Box<dyn Release>, MdrrError> {
        self.inner.run(dataset, rng)
    }
    fn epsilons(&self) -> Vec<f64> {
        self.inner.epsilons()
    }
}
