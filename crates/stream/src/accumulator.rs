//! Mergeable per-shard accumulators of randomized reports.
//!
//! An [`Accumulator`] keeps one count vector per channel — the sufficient
//! statistics of the estimation problem.  Because Equation (2) depends on
//! the reports only through the empirical reported distribution, and that
//! distribution only through the per-category counts, accumulating counts
//! loses nothing: a snapshot taken from merged accumulators is numerically
//! identical to the batch estimate over the pooled reports.  Counts are
//! plain sums, so merging is exact, associative and commutative — shards
//! can be combined in any order.

use crate::batch::{Code, Lane, ReportBatch};
use crate::error::MdrrError;
use crate::wire::BatchView;
use serde::{Deserialize, Serialize};

/// Per-channel count vectors over the randomized codes of the ingested
/// reports, plus the number of reports.  The unit of parallelism of the
/// streaming collector: each shard owns one accumulator and ingestion never
/// contends across shards.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Accumulator {
    counts: Vec<Vec<u64>>,
    n_reports: u64,
}

impl Accumulator {
    /// An empty accumulator over channels of the given domain sizes.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] if there are no
    /// channels or a channel has size zero.
    pub fn new(channel_sizes: &[usize]) -> Result<Self, MdrrError> {
        if channel_sizes.is_empty() {
            return Err(MdrrError::config(
                "an accumulator needs at least one channel",
            ));
        }
        if let Some(k) = channel_sizes.iter().position(|&s| s == 0) {
            return Err(MdrrError::config(format!(
                "channel {k} has domain size zero"
            )));
        }
        Ok(Accumulator {
            counts: channel_sizes.iter().map(|&s| vec![0u64; s]).collect(),
            n_reports: 0,
        })
    }

    /// Rebuilds an accumulator from externally held state — the restore
    /// path of a persisted snapshot.  Validates the same invariants
    /// [`Accumulator::absorb_counts`] enforces: at least one non-empty
    /// channel, and every channel's counts summing to exactly `n_reports`
    /// (each report contributes one code per channel).
    ///
    /// ```
    /// use mdrr_stream::Accumulator;
    /// let acc = Accumulator::from_counts(vec![vec![2, 0, 1], vec![1, 2]], 3)?;
    /// assert_eq!(acc.n_reports(), 3);
    /// assert!(Accumulator::from_counts(vec![vec![2, 0]], 3).is_err());
    /// # Ok::<(), mdrr_stream::MdrrError>(())
    /// ```
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] when an invariant is
    /// violated.
    pub fn from_counts(counts: Vec<Vec<u64>>, n_reports: u64) -> Result<Self, MdrrError> {
        let sizes: Vec<usize> = counts.iter().map(Vec::len).collect();
        let mut acc = Accumulator::new(&sizes)?;
        acc.absorb_counts(&counts, n_reports)?;
        Ok(acc)
    }

    /// Ingests a whole columnar [`ReportBatch`]: one pass per channel that
    /// validates and counts together, with one arity check and one length
    /// check per batch instead of one per report.  A channel of at most 64
    /// categories tallies into four interleaved stack banks whose index is
    /// clamped to an overflow slot, and the slots past the channel's size
    /// are checked once the pass is done; a wider channel counts straight
    /// into its count vector.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] if the batch's channel
    /// count differs from the accumulator's, the channel buffers are
    /// ragged, a code is out of its channel's range or the report count
    /// would overflow a `u64`; the accumulator is unchanged on error (a
    /// bad channel adds nothing, and the clean channels before it are
    /// taken back out).
    pub fn ingest_batch(&mut self, batch: &ReportBatch) -> Result<(), MdrrError> {
        self.ingest_lanes(batch.n_reports(), batch.lanes())
    }

    /// Ingests a wire batch payload where it lies: the same pass and the
    /// same all-or-nothing contract as [`Accumulator::ingest_batch`], over
    /// the view's 1-, 2- or 4-byte lanes instead of `u32` buffers.
    ///
    /// # Errors
    /// As [`Accumulator::ingest_batch`].
    pub fn ingest_batch_view(&mut self, batch: &BatchView<'_>) -> Result<(), MdrrError> {
        self.ingest_lanes(batch.n_reports(), batch.lanes())
    }

    /// The one bulk count behind both batch forms: `n` reports, one lane
    /// per channel.
    fn ingest_lanes<'a>(
        &mut self,
        n: usize,
        lanes: impl ExactSizeIterator<Item = Lane<'a>> + Clone,
    ) -> Result<(), MdrrError> {
        if lanes.len() != self.counts.len() {
            return Err(MdrrError::config(format!(
                "batch has {} channels but the accumulator has {}",
                lanes.len(),
                self.counts.len()
            )));
        }
        if let Some((k, lane)) = lanes.clone().enumerate().find(|(_, l)| l.len() != n) {
            return Err(MdrrError::config(format!(
                "batch channel {k} holds {} codes but channel 0 holds {n}",
                lane.len()
            )));
        }
        let total = self.checked_total(n as u64)?;
        for (k, (lane, channel)) in lanes.clone().zip(self.counts.iter_mut()).enumerate() {
            if let Err(code) = count_lane(lane, channel) {
                let len = channel.len();
                for (lane, channel) in lanes.zip(self.counts.iter_mut()).take(k) {
                    uncount_lane(lane, channel);
                }
                return Err(MdrrError::config(format!(
                    "code {code} out of range for channel {k} ({len} categories)"
                )));
            }
        }
        self.n_reports = total;
        Ok(())
    }

    /// Absorbs externally tallied per-channel count vectors covering
    /// `n_reports` reports — the sink of the fused
    /// [`mdrr_protocols::Protocol::encode_tally`] path, where a worker
    /// randomizes straight into its own count vectors and hands the
    /// finished statistics over in one call.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] if the channel layouts
    /// differ, any channel's counts do not sum to `n_reports` (each report
    /// contributes exactly one code per channel) or a sum overflows a
    /// `u64`; the accumulator is unchanged on error.
    pub fn absorb_counts(&mut self, counts: &[Vec<u64>], n_reports: u64) -> Result<(), MdrrError> {
        if counts.len() != self.counts.len()
            || counts
                .iter()
                .zip(self.counts.iter())
                .any(|(a, b)| a.len() != b.len())
        {
            return Err(MdrrError::config(
                "cannot absorb counts with a different channel layout",
            ));
        }
        for (k, channel) in counts.iter().enumerate() {
            let total = channel
                .iter()
                .try_fold(0u64, |total, &count| total.checked_add(count))
                .ok_or_else(|| MdrrError::config(format!("channel {k} counts overflow u64")))?;
            if total != n_reports {
                return Err(MdrrError::config(format!(
                    "channel {k} counts sum to {total} but {n_reports} reports were tallied"
                )));
            }
        }
        self.n_reports = self.checked_total(n_reports)?;
        for (mine, theirs) in self.counts.iter_mut().zip(counts.iter()) {
            for (a, b) in mine.iter_mut().zip(theirs.iter()) {
                *a += b;
            }
        }
        Ok(())
    }

    /// Merges another accumulator into this one (exact: counts add).
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] if the channel layouts
    /// differ or a sum overflows a `u64`; the accumulator is unchanged on
    /// error.
    pub fn merge(&mut self, other: &Accumulator) -> Result<(), MdrrError> {
        self.absorb_counts(other.counts(), other.n_reports())
    }

    /// The report count after adding `n` more, or an error if it would
    /// overflow a `u64`.  Every cell is bounded by the report count, so
    /// once this succeeds no cell sum can overflow.
    fn checked_total(&self, n: u64) -> Result<u64, MdrrError> {
        self.n_reports
            .checked_add(n)
            .ok_or_else(|| MdrrError::config("the report count overflows u64"))
    }

    /// The per-channel count vectors, in channel order.
    pub fn counts(&self) -> &[Vec<u64>] {
        &self.counts
    }

    /// Number of reports ingested (including merged ones).
    pub fn n_reports(&self) -> u64 {
        self.n_reports
    }

    /// Whether no report has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.n_reports == 0
    }

    /// The domain size of each channel, in channel order.
    pub fn channel_sizes(&self) -> Vec<usize> {
        self.counts.iter().map(Vec::len).collect()
    }
}

/// Largest channel domain [`Accumulator::ingest_batch`] counts through
/// interleaved stack banks (4 banks of this width plus one overflow slot
/// each, 2 KiB, zero quickly).
const BANK_WIDTH: usize = 64;

/// [`count_channel`] over a lane of any width.
fn count_lane(lane: Lane<'_>, channel: &mut [u64]) -> Result<(), u32> {
    match lane {
        Lane::Native(codes) => count_channel(codes, channel),
        Lane::U8(codes) => count_channel(codes, channel),
        Lane::U16(codes) => count_channel(codes, channel),
        Lane::U32(codes) => count_channel(codes, channel),
    }
}

/// [`uncount_channel`] over a lane of any width.
fn uncount_lane(lane: Lane<'_>, channel: &mut [u64]) {
    match lane {
        Lane::Native(codes) => uncount_channel(codes, channel),
        Lane::U8(codes) => uncount_channel(codes, channel),
        Lane::U16(codes) => uncount_channel(codes, channel),
        Lane::U32(codes) => uncount_channel(codes, channel),
    }
}

/// Adds one channel's codes to its count vector, or leaves `channel`
/// unchanged and returns the first code that is out of its range.
fn count_channel<C: Code>(codes: &[C], channel: &mut [u64]) -> Result<(), u32> {
    let len = channel.len();
    // lint:region(no_alloc)
    if len <= BANK_WIDTH {
        // Four banks, one per lane of a 4-code chunk: consecutive codes
        // never increment the same slot, which breaks the
        // store-forwarding chains that serialize counting on
        // low-cardinality channels.  An index clamped to `BANK_WIDTH`
        // keeps every write in bounds; any count at or past `len` is a
        // code out of range.
        let mut banks = [[0u64; BANK_WIDTH + 1]; 4];
        let (quads, rest) = codes.as_chunks::<4>();
        for quad in quads {
            for (bank, &code) in banks.iter_mut().zip(quad) {
                bank[(code.code() as usize).min(BANK_WIDTH)] += 1;
            }
        }
        for (bank, &code) in banks.iter_mut().zip(rest) {
            bank[(code.code() as usize).min(BANK_WIDTH)] += 1;
        }
        if banks.iter().any(|bank| bank[len..].iter().any(|&c| c != 0)) {
            return Err(first_out_of_range(codes, len));
        }
        for (code, slot) in channel.iter_mut().enumerate() {
            *slot += banks[0][code] + banks[1][code] + banks[2][code] + banks[3][code];
        }
    } else {
        let mut out_of_range = false;
        for &code in codes {
            match channel.get_mut(code.code() as usize) {
                Some(slot) => *slot += 1,
                None => out_of_range = true,
            }
        }
        if out_of_range {
            uncount_channel(codes, channel);
            return Err(first_out_of_range(codes, len));
        }
    }
    // lint:endregion(no_alloc)
    Ok(())
}

/// The first code of `codes` at or past `len` (`u32::MAX` if none is).
fn first_out_of_range<C: Code>(codes: &[C], len: usize) -> u32 {
    codes
        .iter()
        .map(|&c| c.code())
        .find(|&c| c as usize >= len)
        .unwrap_or(u32::MAX)
}

/// Takes back out of `channel` every in-range code of `codes` — the
/// error path of [`Accumulator::ingest_batch`].
fn uncount_channel<C: Code>(codes: &[C], channel: &mut [u64]) {
    for &code in codes {
        if let Some(slot) = channel.get_mut(code.code() as usize) {
            *slot -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A batch of `reports`, pushed one report at a time.
    fn batch_of(n_channels: usize, reports: &[&[u32]]) -> ReportBatch {
        let mut batch = ReportBatch::new(n_channels).unwrap();
        for codes in reports {
            batch.push(codes).unwrap();
        }
        batch
    }

    /// The reference count of `batch` on top of `before`: each code of
    /// each report bumps its own cell, one at a time, with no banks.
    fn counted_one_by_one(before: &Accumulator, batch: &ReportBatch) -> Accumulator {
        let mut counts = before.counts().to_vec();
        let mut codes = Vec::new();
        for i in 0..batch.n_reports() {
            batch.read_report(i, &mut codes).unwrap();
            for (channel, &code) in counts.iter_mut().zip(&codes) {
                channel[code as usize] += 1;
            }
        }
        Accumulator::from_counts(counts, before.n_reports() + batch.n_reports() as u64).unwrap()
    }

    #[test]
    fn construction_validates_channels() {
        assert!(Accumulator::new(&[]).is_err());
        assert!(Accumulator::new(&[3, 0]).is_err());
        let acc = Accumulator::new(&[3, 2]).unwrap();
        assert!(acc.is_empty());
        assert_eq!(acc.channel_sizes(), vec![3, 2]);
    }

    #[test]
    fn ingestion_counts_per_channel() {
        let mut acc = Accumulator::new(&[3, 2]).unwrap();
        acc.ingest_batch(&batch_of(2, &[&[0, 1], &[2, 1], &[0, 0]]))
            .unwrap();
        assert_eq!(acc.n_reports(), 3);
        assert_eq!(acc.counts(), &[vec![2, 0, 1], vec![1, 2]]);
    }

    #[test]
    fn ingestion_rejects_malformed_reports_atomically() {
        // A report of the wrong arity never enters a batch.
        let mut batch = ReportBatch::new(2).unwrap();
        assert!(batch.push(&[0]).is_err());
        assert!(batch.push(&[0, 1, 0]).is_err());
        assert!(batch.is_empty());
        // Second channel out of range: the first channel must NOT have been
        // counted.
        let mut acc = Accumulator::new(&[3, 2]).unwrap();
        assert!(acc.ingest_batch(&batch_of(2, &[&[0, 5]])).is_err());
        assert!(acc.is_empty());
        assert_eq!(acc.counts(), &[vec![0, 0, 0], vec![0, 0]]);
    }

    #[test]
    fn batch_ingestion_matches_per_report_ingestion() {
        let mut batch = batch_of(2, &[&[0, 1], &[2, 1], &[0, 0], &[1, 1]]);
        let empty = Accumulator::new(&[3, 2]).unwrap();
        let mut batched = empty.clone();
        batched.ingest_batch(&batch).unwrap();
        assert_eq!(batched, counted_one_by_one(&empty, &batch));
        assert_eq!(batched.n_reports(), 4);
        // An empty batch is a no-op.
        batch.clear();
        batched.ingest_batch(&batch).unwrap();
        assert_eq!(batched.n_reports(), 4);
    }

    #[test]
    fn batch_ingestion_rejects_malformed_batches_atomically() {
        let mut acc = Accumulator::new(&[3, 2]).unwrap();
        // Wrong channel count.
        assert!(acc.ingest_batch(&batch_of(1, &[&[0]])).is_err());
        // Ragged channels.
        let mut ragged = ReportBatch::new(2).unwrap();
        ragged.channels_mut()[0].push(0);
        assert!(acc.ingest_batch(&ragged).is_err());
        // Out-of-range code in the second channel: nothing is counted.
        let bad_code = batch_of(2, &[&[0, 1], &[1, 5]]);
        assert!(acc.ingest_batch(&bad_code).is_err());
        assert!(acc.is_empty());
        assert_eq!(acc.counts(), &[vec![0, 0, 0], vec![0, 0]]);
    }

    /// The channel sizes the batch count is swept over: every banked size,
    /// the first size past the banks, and wide domains on both sides of
    /// each wire width boundary (largest codes 255, 256, 1007, 65535 and
    /// 65536).
    fn sweep_sizes() -> impl Iterator<Item = usize> {
        (1..=65).chain([144, 256, 257, 1008, 65_536, 65_537])
    }

    /// Sizes whose bad-code trials the tier-1 sweep also runs through the
    /// wire: banked and direct counts, each wire width, and a width-2
    /// lane that a bad code widens to 4 bytes.
    const WIRE_TRIAL_SIZES: [usize; 8] = [1, 2, 64, 65, 257, 1008, 65_536, 65_537];

    /// The wire width of a lane whose largest code is `size - 1`.
    fn width_for(size: usize) -> u8 {
        match size - 1 {
            0..=0xFF => 1,
            0x100..=0xFFFF => 2,
            _ => 4,
        }
    }

    /// A batch over `sizes` of `len` reports with well-mixed in-range
    /// codes, each channel's largest code `size - 1` at report `len / 2`,
    /// so a wire payload carries the channel at [`width_for`] its size.
    fn mixed_batch(sizes: &[usize], len: usize) -> ReportBatch {
        let mut batch = ReportBatch::new(sizes.len()).unwrap();
        for (k, (channel, &size)) in batch.channels_mut().iter_mut().zip(sizes).enumerate() {
            channel.extend((0..len).map(|i| {
                let x = ((i * sizes.len() + k) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((x >> 32) % size as u64) as u32
            }));
            if let Some(peak) = channel.get_mut(len / 2) {
                *peak = size as u32 - 1;
            }
        }
        batch
    }

    /// `batch` counted through its wire form: encoded, parsed into a
    /// [`BatchView`] and counted from the payload bytes.
    fn ingest_through_the_wire(
        acc: &mut Accumulator,
        batch: &ReportBatch,
    ) -> Result<(), MdrrError> {
        let payload = crate::wire::encode_batch_payload(0, 0, batch).unwrap();
        let view = BatchView::parse(&payload, batch.n_channels()).unwrap();
        acc.ingest_batch_view(&view)
    }

    /// Asserts that `ingest` on a copy of `before` fails with exactly
    /// `expected` and leaves the copy equal to `before`.
    fn assert_rejects(
        before: &Accumulator,
        expected: &str,
        context: &str,
        ingest: impl FnOnce(&mut Accumulator) -> Result<(), MdrrError>,
    ) {
        let mut acc = before.clone();
        let err = ingest(&mut acc).unwrap_err();
        assert!(
            matches!(&err, MdrrError::InvalidConfiguration { message } if message == expected),
            "{context}: {err}"
        );
        assert_eq!(&acc, before, "{context}");
    }

    /// Runs the batch-count sweep for every size in [`sweep_sizes`] over a
    /// `[size, 2, size]` layout (so a bad code in the last channel must
    /// take two counted channels back out): for each length, the batch
    /// count and the count of its wire view (whose outer lanes are at
    /// [`width_for`] the size) must equal counting its reports one by one
    /// ([`counted_one_by_one`]), and an out-of-range code at each of
    /// `positions(len)` in each channel must give a typed error and leave
    /// the accumulator as it was — for the wire view too when
    /// `wire_trials(size)`.  The bad codes reach every wire width: up to 255 a 1-byte lane, 256 (or 1008 past a
    /// 1008-category channel) a 2-byte lane, 65537 and `u32::MAX` a
    /// 4-byte one.
    fn sweep_batch_count(
        lengths: &[usize],
        positions: impl Fn(usize) -> Vec<usize>,
        wire_trials: impl Fn(usize) -> bool,
    ) {
        for size in sweep_sizes() {
            let sizes = [size, 2, size];
            let empty = Accumulator::new(&sizes).unwrap();
            let before = counted_one_by_one(&empty, &batch_of(3, &[&[size as u32 - 1, 1, 0]]));
            let mut bad_codes: Vec<u32> = [size as u32, 64, 65, 256, u32::MAX]
                .into_iter()
                .filter(|&c| c as usize >= size)
                .collect();
            bad_codes.sort_unstable();
            bad_codes.dedup();
            for &len in lengths {
                let mut batch = mixed_batch(&sizes, len);
                let per_report = counted_one_by_one(&before, &batch);
                let mut batched = before.clone();
                batched.ingest_batch(&batch).unwrap();
                assert_eq!(batched, per_report, "size {size}, {len} reports");
                let payload = crate::wire::encode_batch_payload(0, 0, &batch).unwrap();
                let view = BatchView::parse(&payload, 3).unwrap();
                if len > 0 {
                    assert_eq!(view.widths()[0], width_for(size), "size {size}");
                }
                let mut viewed = before.clone();
                viewed.ingest_batch_view(&view).unwrap();
                assert_eq!(viewed, per_report, "size {size}, {len} reports, view");

                for position in positions(len) {
                    for (k, &channel_size) in sizes.iter().enumerate() {
                        let good = batch.channels()[k][position];
                        for &bad in bad_codes.iter().filter(|&&c| c as usize >= channel_size) {
                            batch.channels_mut()[k][position] = bad;
                            let context = format!(
                                "size {size}, {len} reports, code {bad} at {position} of channel {k}"
                            );
                            let expected = format!(
                                "code {bad} out of range for channel {k} ({channel_size} categories)"
                            );
                            assert_rejects(&before, &expected, &context, |acc| {
                                acc.ingest_batch(&batch)
                            });
                            if wire_trials(size) {
                                assert_rejects(&before, &expected, &(context + ", view"), |acc| {
                                    ingest_through_the_wire(acc, &batch)
                                });
                            }
                        }
                        batch.channels_mut()[k][position] = good;
                    }
                }
            }
        }
    }

    /// Every lane of the first and the last 4-code chunk, and the
    /// remainder after them.
    fn ends(len: usize) -> Vec<usize> {
        let mut positions: Vec<usize> = (0..len.min(4)).collect();
        positions.extend(len.saturating_sub(7).max(4)..len);
        positions
    }

    #[test]
    fn batch_count_matches_per_report_ingestion_and_rejects_atomically() {
        let lengths: Vec<usize> = (0..=9).chain([4099]).collect();
        sweep_batch_count(&lengths, ends, |size| WIRE_TRIAL_SIZES.contains(&size));
    }

    #[test]
    #[ignore = "exhaustive sweep, ~35 s in release; CI runs it with --ignored"]
    fn batch_count_sweep_exhaustive() {
        let lengths: Vec<usize> = (0..=67).chain(4092..=4100).collect();
        let positions = |len| {
            if len <= 67 {
                (0..len).collect()
            } else {
                let mut positions = ends(len);
                positions.extend((4..len - 7).step_by(61));
                positions
            }
        };
        sweep_batch_count(&lengths, positions, |_| true);
    }

    #[test]
    fn merge_is_exact_and_order_independent() {
        let a = Accumulator::from_counts(vec![vec![1, 2, 0]], 3).unwrap();
        let b = Accumulator::from_counts(vec![vec![0, 0, 2]], 2).unwrap();
        let c = Accumulator::from_counts(vec![vec![1, 0, 0]], 1).unwrap();

        let mut abc = a.clone();
        abc.merge(&b).unwrap();
        abc.merge(&c).unwrap();
        let mut cba = c.clone();
        cba.merge(&b).unwrap();
        cba.merge(&a).unwrap();
        assert_eq!(abc, cba);
        assert_eq!(abc.n_reports(), 6);
        assert_eq!(abc.counts(), &[vec![2, 2, 2]]);
    }

    #[test]
    fn merge_rejects_mismatched_layouts() {
        let mut a = Accumulator::new(&[3, 2]).unwrap();
        let b = Accumulator::new(&[3]).unwrap();
        let c = Accumulator::new(&[3, 4]).unwrap();
        assert!(a.merge(&b).is_err());
        assert!(a.merge(&c).is_err());
        assert!(a.is_empty());
    }

    #[test]
    fn counts_whose_sums_overflow_are_rejected() {
        let err = Accumulator::from_counts(vec![vec![u64::MAX, 2]], 1).unwrap_err();
        assert!(
            matches!(&err, MdrrError::InvalidConfiguration { message } if message.contains("overflow")),
            "{err}"
        );
        // A report count that would overflow leaves the accumulator as it was.
        let mut acc = Accumulator::from_counts(vec![vec![u64::MAX, 0]], u64::MAX).unwrap();
        assert!(acc.absorb_counts(&[vec![0, 1]], 1).is_err());
        assert_eq!(acc.counts(), &[vec![u64::MAX, 0]]);
        assert_eq!(acc.n_reports(), u64::MAX);
    }

    #[test]
    fn report_count_overflow_is_typed_and_changes_nothing() {
        let full = Accumulator::from_counts(vec![vec![u64::MAX, 0]], u64::MAX).unwrap();
        let one = Accumulator::from_counts(vec![vec![1, 0]], 1).unwrap();
        let batch = batch_of(1, &[&[1]]);
        let mut acc = full.clone();
        for err in [
            acc.merge(&one).unwrap_err(),
            acc.ingest_batch(&batch).unwrap_err(),
        ] {
            assert!(
                matches!(&err, MdrrError::InvalidConfiguration { message } if message.contains("overflow")),
                "{err}"
            );
        }
        assert_eq!(acc, full);
    }
}
