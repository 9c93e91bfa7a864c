//! Columnar report batches: the zero-allocation bulk format.
//!
//! A client's randomized report is one code per protocol channel, as
//! [`mdrr_protocols::Protocol::encode_record`] returns it.  A
//! [`ReportBatch`] holds many reports column by column: one reusable
//! `Vec<u32>` per channel, in record order.  The bulk pipeline encodes whole
//! record chunks straight into a batch
//! ([`mdrr_protocols::Protocol::encode_batch`]) and counts whole batches
//! straight into an accumulator ([`crate::Accumulator::ingest_batch`]),
//! so after warm-up the per-report cost is pure arithmetic — no `Vec` per
//! report, no dyn dispatch per report, no per-report validation.  The
//! codes produced are bit-identical to `encode_record` under the same
//! RNG, which `crates/stream/tests/proptest_stream.rs` enforces.  A
//! `Lane` borrows one channel's codes at the width they are stored in,
//! so a batch's `u32` buffers and a wire payload's narrower lanes count
//! through the same pass.

use crate::error::MdrrError;
use mdrr_data::RecordsView;
use mdrr_protocols::Protocol;
use rand::RngCore;

/// One channel's codes, borrowed at the width they are stored in: a
/// [`ReportBatch`] channel's `u32`s, or a 1-, 2- or 4-byte little-endian
/// lane of a wire batch payload ([`crate::wire::BatchView`]).
/// [`crate::Accumulator`] counts every form through one generic pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane<'a> {
    /// A [`ReportBatch`] channel: native `u32` codes.
    Native(&'a [u32]),
    /// One byte per code.
    U8(&'a [u8]),
    /// Two little-endian bytes per code.
    U16(&'a [[u8; 2]]),
    /// Four little-endian bytes per code.
    U32(&'a [[u8; 4]]),
}

impl Lane<'_> {
    /// Number of codes in the lane.
    pub(crate) fn len(&self) -> usize {
        match self {
            Lane::Native(codes) => codes.len(),
            Lane::U8(codes) => codes.len(),
            Lane::U16(codes) => codes.len(),
            Lane::U32(codes) => codes.len(),
        }
    }

    /// Appends the lane's codes to `out` as `u32`s.
    pub(crate) fn widen_into(self, out: &mut Vec<u32>) {
        match self {
            Lane::Native(codes) => out.extend_from_slice(codes),
            Lane::U8(codes) => out.extend(codes.iter().map(|&c| c.code())),
            Lane::U16(codes) => out.extend(codes.iter().map(|&c| c.code())),
            Lane::U32(codes) => out.extend(codes.iter().map(|&c| c.code())),
        }
    }
}

/// A code as a [`Lane`] stores it, widened by [`Code::code`] to the `u32`
/// the protocol defines.
pub(crate) trait Code: Copy {
    /// The code's value.
    fn code(self) -> u32;
}

impl Code for u32 {
    fn code(self) -> u32 {
        self
    }
}

impl Code for u8 {
    fn code(self) -> u32 {
        u32::from(self)
    }
}

impl Code for [u8; 2] {
    fn code(self) -> u32 {
        u32::from(u16::from_le_bytes(self))
    }
}

impl Code for [u8; 4] {
    fn code(self) -> u32 {
        u32::from_le_bytes(self)
    }
}

/// A columnar batch of randomized reports: `channels()[k][i]` is report
/// `i`'s code on channel `k`.  All channel buffers have equal length (one
/// code per report); the buffers keep their capacity across
/// [`ReportBatch::clear`] calls, so a reused batch allocates nothing in
/// steady state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportBatch {
    channels: Vec<Vec<u32>>,
}

impl ReportBatch {
    /// An empty batch with one code buffer per channel.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] if `n_channels` is zero.
    pub fn new(n_channels: usize) -> Result<Self, MdrrError> {
        if n_channels == 0 {
            return Err(MdrrError::config(
                "a report batch needs at least one channel",
            ));
        }
        Ok(ReportBatch {
            channels: vec![Vec::new(); n_channels],
        })
    }

    /// An empty batch shaped for `protocol`'s channel topology.
    pub fn for_protocol(protocol: &dyn Protocol) -> Self {
        ReportBatch {
            channels: vec![Vec::new(); protocol.channel_sizes().len()],
        }
    }

    /// Number of channels.
    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of reports in the batch.
    pub fn n_reports(&self) -> usize {
        self.channels.first().map(Vec::len).unwrap_or(0)
    }

    /// Whether the batch holds no reports.
    pub fn is_empty(&self) -> bool {
        self.n_reports() == 0
    }

    /// Empties the batch, keeping the channel capacities for reuse.
    pub fn clear(&mut self) {
        for channel in &mut self.channels {
            channel.clear();
        }
    }

    /// The per-channel code buffers, in channel order.
    pub fn channels(&self) -> &[Vec<u32>] {
        &self.channels
    }

    /// The channels as [`Lane`]s, in channel order.
    pub(crate) fn lanes(&self) -> impl ExactSizeIterator<Item = Lane<'_>> + Clone {
        self.channels.iter().map(|codes| Lane::Native(codes))
    }

    /// Mutable access to the per-channel code buffers — the `out`
    /// parameter of [`mdrr_protocols::Protocol::encode_batch`].  Callers
    /// writing through this must keep the channels equal-length (one code
    /// per report); [`crate::Accumulator::ingest_batch`] re-checks.
    pub fn channels_mut(&mut self) -> &mut [Vec<u32>] {
        &mut self.channels
    }

    /// Appends one already-encoded report: its code on each channel, in
    /// channel order.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] for an arity mismatch;
    /// the batch is unchanged on error.
    pub fn push(&mut self, codes: &[u32]) -> Result<(), MdrrError> {
        if codes.len() != self.channels.len() {
            return Err(MdrrError::config(format!(
                "report has {} codes but the batch has {} channels",
                codes.len(),
                self.channels.len()
            )));
        }
        for (channel, &code) in self.channels.iter_mut().zip(codes.iter()) {
            channel.push(code);
        }
        Ok(())
    }

    /// Fills `codes` with report `i`'s channel codes (cleared first) — the
    /// bridge for consumers that need one report at a time, without
    /// allocating per report.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] if `i` is out of range
    /// or the channels are ragged.
    pub fn read_report(&self, i: usize, codes: &mut Vec<u32>) -> Result<(), MdrrError> {
        codes.clear();
        for (k, channel) in self.channels.iter().enumerate() {
            match channel.get(i) {
                Some(&code) => codes.push(code),
                None => {
                    return Err(MdrrError::config(format!(
                        "report index {i} out of range on channel {k} ({} reports)",
                        channel.len()
                    )))
                }
            }
        }
        Ok(())
    }

    /// Clears the batch and encodes a whole columnar record chunk into it
    /// through the protocol's (tuned) batch encoder.
    ///
    /// # Errors
    /// Propagates [`mdrr_protocols::Protocol::encode_batch`] errors; the
    /// batch is left cleared on error.
    pub fn encode_records(
        &mut self,
        protocol: &dyn Protocol,
        records: &RecordsView<'_>,
        rng: &mut dyn RngCore,
    ) -> Result<(), MdrrError> {
        self.clear();
        if let Err(e) = protocol.encode_batch(records, rng, &mut self.channels) {
            self.clear();
            return Err(e);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_data::{Attribute, Dataset, Schema};
    use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::indexed("A", 3).unwrap(),
            Attribute::indexed("B", 2).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        assert!(ReportBatch::new(0).is_err());
        let mut batch = ReportBatch::new(2).unwrap();
        assert_eq!(batch.n_channels(), 2);
        assert!(batch.is_empty());
        batch.push(&[1, 0]).unwrap();
        assert!(batch.push(&[1]).is_err());
        assert_eq!(batch.n_reports(), 1);
        let mut codes = Vec::new();
        batch.read_report(0, &mut codes).unwrap();
        assert_eq!(codes, vec![1, 0]);
        assert!(batch.read_report(1, &mut codes).is_err());
        batch.clear();
        assert!(batch.is_empty());
    }

    #[test]
    fn encode_records_matches_per_record_encoding() {
        let protocol = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.6))
            .build(&schema())
            .unwrap();
        let ds = Dataset::from_records(schema(), &[vec![0, 1], vec![2, 0], vec![1, 1], vec![0, 0]])
            .unwrap();

        let mut batch = ReportBatch::for_protocol(&*protocol);
        let mut rng = StdRng::seed_from_u64(9);
        batch
            .encode_records(&*protocol, &ds.view(), &mut rng)
            .unwrap();
        assert_eq!(batch.n_reports(), 4);

        let mut rng = StdRng::seed_from_u64(9);
        let mut codes = Vec::new();
        let view = ds.view();
        let mut record = Vec::new();
        for i in 0..ds.n_records() {
            view.read_record(i, &mut record).unwrap();
            let expected = protocol.encode_record(&record, &mut rng).unwrap();
            batch.read_report(i, &mut codes).unwrap();
            assert_eq!(codes, expected);
        }
    }

    #[test]
    fn encode_records_clears_on_error() {
        let protocol = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.6))
            .build(&schema())
            .unwrap();
        let mut batch = ReportBatch::for_protocol(&*protocol);
        batch.push(&[0, 0]).unwrap();
        let bad = Dataset::from_records(schema(), &[vec![0, 1]]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        // Wrong arity view (project to one attribute).
        let projected = bad.project(&[0]).unwrap();
        assert!(batch
            .encode_records(&*protocol, &projected.view(), &mut rng)
            .is_err());
        assert!(batch.is_empty(), "batch is cleared on error");
    }
}
