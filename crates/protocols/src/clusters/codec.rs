//! The channel machinery of [`RRClusters`], and its one `Protocol` impl.
//!
//! Every protocol [`RRClusters`] builds — RR-Independent over
//! [`Clustering::singletons`], RR-Joint over the single cluster
//! `[0, …, m−1]` and RR-Clusters over its own clustering — is a clustering
//! of the schema's attributes plus each cluster's joint domain and
//! randomization matrix.  This module holds the one implementation of the
//! client-side encoders, the report decoder, the count-shape checks and
//! the collector-side estimation over that shape, whose output is the one
//! [`ClustersRelease`].

use super::{ClustersRelease, RRClusters};
use crate::clustering::Clustering;
use crate::error::MdrrError;
use crate::protocol::{Protocol, Release};
use mdrr_core::{
    estimate_proper_from_counts, randomize_joint, ChannelTally, PreparedRandomizer,
    PrivacyAccountant, RRMatrix,
};
use mdrr_data::{Dataset, JointDomain, RecordsView, Schema};
use rand::RngCore;
use std::ops::Range;

/// Channel codes travel as `u32`, so a channel's joint domain holds at most
/// 2³² combinations.
const MAX_CHANNEL_DOMAIN: u64 = 1 << 32;

/// Raw u64 draws pre-filled per refill in `drive` (8 KiB): each channel
/// sweeps the block once, reading every `m`-th draw, so the block is sized
/// to stay in L1 across all `m` sweeps.  One virtual `fill_u64` call per
/// block is still negligible.
const DRAW_BUFFER: usize = 1024;

impl RRClusters {
    /// The joint domain of each cluster of `clustering` over `schema`, in
    /// cluster order.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] if the clustering does
    /// not cover the schema or a cluster has more than 2³² combinations
    /// (its codes would not fit a `u32`).
    pub(super) fn channel_domains(
        schema: &Schema,
        clustering: &Clustering,
    ) -> Result<Vec<JointDomain>, MdrrError> {
        if clustering.attribute_count() != schema.len() {
            return Err(MdrrError::config(format!(
                "clustering covers {} attributes but the schema has {}",
                clustering.attribute_count(),
                schema.len()
            )));
        }
        let cardinalities = schema.cardinalities();
        clustering
            .clusters()
            .iter()
            .map(|cluster| {
                let cards: Vec<usize> = cluster.iter().map(|&a| cardinalities[a]).collect();
                let domain = JointDomain::new(&cards)?;
                if domain.size() as u64 > MAX_CHANNEL_DOMAIN {
                    return Err(MdrrError::config(format!(
                        "attributes {cluster:?} have {} combinations, more than the 2^32 a \
                         channel code can address",
                        domain.size()
                    )));
                }
                Ok(domain)
            })
            .collect()
    }

    /// Builds the protocol `name`: one channel per cluster, randomized by
    /// the matching matrix and recorded in the ledger under
    /// `label(schema, k, cluster)`.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] for the conditions of
    /// [`RRClusters::channel_domains`], or if the matrices are not one per
    /// cluster, each sized to its cluster's joint domain.
    pub(super) fn new(
        name: &'static str,
        schema: Schema,
        clustering: Clustering,
        matrices: Vec<RRMatrix>,
        label: impl Fn(&Schema, usize, &[usize]) -> String,
    ) -> Result<Self, MdrrError> {
        let domains = Self::channel_domains(&schema, &clustering)?;
        if matrices.len() != domains.len() {
            return Err(MdrrError::config(format!(
                "expected {} matrices, one per channel, got {}",
                domains.len(),
                matrices.len()
            )));
        }
        for (k, (domain, matrix)) in domains.iter().zip(&matrices).enumerate() {
            if matrix.size() != domain.size() {
                return Err(MdrrError::config(format!(
                    "matrix for channel {k} has size {} but the channel has {} categories",
                    matrix.size(),
                    domain.size()
                )));
            }
        }
        let mut ledger = PrivacyAccountant::new();
        for (k, (cluster, matrix)) in clustering.clusters().iter().zip(&matrices).enumerate() {
            ledger.record_matrix(label(&schema, k, cluster), matrix);
        }
        Ok(RRClusters {
            name,
            schema,
            clustering,
            domains,
            matrices,
            ledger,
        })
    }

    /// The one batch driver behind [`Protocol::encode_batch`] and
    /// [`Protocol::encode_tally`], generic over the per-channel kernel
    /// call so each monomorphises to its own loop.
    ///
    /// The batch is validated once (per-column range scans) and each
    /// channel's matrix kernel is prepared once.  The randomness is
    /// bulk-pre-drawn: one virtual [`RngCore::fill_u64`] call fills the
    /// draws of a block of records.  Every channel consumes exactly one
    /// draw per record, and channel `j` of record `i` consumes draw
    /// `i·m + j` of its block, so the draws replay the `next_u64` stream of
    /// the record-major per-record path even though channels run one at a
    /// time.  A channel over one attribute randomizes the column slice
    /// itself; a wider channel first gathers its mixed-radix joint codes a
    /// column at a time (validated above, and below 2³² by construction).
    fn drive<T>(
        &self,
        records: &RecordsView<'_>,
        rng: &mut dyn RngCore,
        outs: &mut [T],
        kernel: impl Fn(&PreparedRandomizer, &[u32], &[u64], usize, usize, &mut T),
    ) -> Result<(), MdrrError> {
        validate_records_view(records, &self.schema)?;
        let columns = records.columns();
        let channels: Vec<_> = self
            .channels()
            .map(|(cluster, domain, matrix)| (cluster, domain.strides(), matrix.prepared()))
            .collect();
        let (n, m) = (records.n_records(), channels.len());
        let records_per_fill = (DRAW_BUFFER / m).max(1);
        let mut draw_buffer = vec![0u64; records_per_fill.min(n) * m];
        // One channel's gathered joint codes over one block.
        let mut joint = Vec::new();
        for start in (0..n).step_by(records_per_fill) {
            let range = start..(start + records_per_fill).min(n);
            let draws = &mut draw_buffer[..range.len() * m];
            rng.fill_u64(draws);
            for (j, ((cluster, strides, sampler), out)) in
                channels.iter().zip(outs.iter_mut()).enumerate()
            {
                let codes = match cluster {
                    [attribute] => &columns[*attribute][range.clone()],
                    _ => {
                        gather_joint(columns, cluster, strides, range.clone(), &mut joint);
                        joint.as_slice()
                    }
                };
                kernel(sampler, codes, draws, j, m, out);
            }
        }
        Ok(())
    }

    /// Estimates each channel's distribution from its count vector over
    /// the randomized codes of `n_records` reports, carrying `randomized`
    /// microdata when the caller has it.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] for the conditions of
    /// [`RRClusters::check_counts`]; propagated estimation errors
    /// otherwise.
    fn estimate(
        &self,
        counts: &[Vec<u64>],
        n_records: usize,
        randomized: Option<Dataset>,
    ) -> Result<ClustersRelease, MdrrError> {
        self.check_counts(counts, n_records)?;
        let distributions = self
            .matrices
            .iter()
            .zip(counts)
            .map(|(matrix, channel)| estimate_proper_from_counts(matrix, channel))
            .collect::<Result<_, _>>()?;
        Ok(ClustersRelease {
            cardinalities: self.schema.cardinalities(),
            clustering: self.clustering.clone(),
            domains: self.domains.clone(),
            distributions,
            randomized,
            accountant: self.ledger.clone(),
            n_records,
        })
    }

    /// Checks that a data set to estimate from is over the protocol's
    /// schema and not empty.
    fn check_dataset(&self, dataset: &Dataset) -> Result<(), MdrrError> {
        if dataset.schema() != &self.schema {
            return Err(MdrrError::config(
                "dataset schema does not match the protocol configuration",
            ));
        }
        if dataset.is_empty() {
            return Err(MdrrError::config(
                "cannot build a release from an empty dataset",
            ));
        }
        Ok(())
    }

    /// Checks accumulated per-channel counts before estimation: at least
    /// one report, one count vector per channel, each sized to its channel
    /// and summing to `n_records` without overflowing a `u64`.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] naming the violated
    /// condition.
    fn check_counts(&self, counts: &[Vec<u64>], n_records: usize) -> Result<(), MdrrError> {
        if n_records == 0 {
            return Err(MdrrError::config(
                "cannot build a release from zero reports",
            ));
        }
        self.check_count_shape(counts)?;
        for (k, channel) in counts.iter().enumerate() {
            let total = channel
                .iter()
                .try_fold(0u64, |total, &count| total.checked_add(count))
                .ok_or_else(|| {
                    MdrrError::config(format!("count vector for channel {k} overflows u64"))
                })?;
            if total != n_records as u64 {
                return Err(MdrrError::config(format!(
                    "count vector for channel {k} sums to {total} but {n_records} reports \
                     were accumulated"
                )));
            }
        }
        Ok(())
    }

    /// Checks that `counts` holds one count vector per channel, each sized
    /// to its channel's domain.
    fn check_count_shape(&self, counts: &[Vec<u64>]) -> Result<(), MdrrError> {
        if counts.len() != self.domains.len() {
            return Err(MdrrError::config(format!(
                "expected {} count vectors, one per channel, got {}",
                self.domains.len(),
                counts.len()
            )));
        }
        for (k, (channel, domain)) in counts.iter().zip(&self.domains).enumerate() {
            if channel.len() != domain.size() {
                return Err(MdrrError::config(format!(
                    "count vector for channel {k} has {} cells but the channel has {}",
                    channel.len(),
                    domain.size()
                )));
            }
        }
        Ok(())
    }

    /// Each channel's attributes, joint domain and matrix, in channel
    /// order.
    fn channels(&self) -> impl Iterator<Item = (&[usize], &JointDomain, &RRMatrix)> {
        self.clustering
            .clusters()
            .iter()
            .zip(&self.domains)
            .zip(&self.matrices)
            .map(|((cluster, domain), matrix)| (cluster.as_slice(), domain, matrix))
    }
}

impl Protocol for RRClusters {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn channel_sizes(&self) -> Vec<usize> {
        self.domains.iter().map(JointDomain::size).collect()
    }

    /// The per-record reference encoder: validates `record` against the
    /// schema, then randomizes each channel's joint code with
    /// [`RRMatrix::randomize`], one draw per channel in channel order.  It
    /// deliberately shares no kernel with the batch encoders, so the
    /// bit-identity tests compare two implementations.
    fn encode_record(
        &self,
        record: &[u32],
        mut rng: &mut dyn RngCore,
    ) -> Result<Vec<u32>, MdrrError> {
        self.schema.validate_record(record)?;
        let mut tuple = Vec::new();
        self.channels()
            .map(|(cluster, domain, matrix)| {
                tuple.clear();
                tuple.extend(cluster.iter().map(|&a| record[a]));
                // Below 2³² by construction (`channel_domains`).
                let code = domain.encode(&tuple)? as u32;
                Ok(matrix.randomize(code, &mut rng)?)
            })
            .collect()
    }

    fn encode_batch(
        &self,
        records: &RecordsView<'_>,
        rng: &mut dyn RngCore,
        out: &mut [Vec<u32>],
    ) -> Result<(), MdrrError> {
        if out.len() != self.domains.len() {
            return Err(MdrrError::config(format!(
                "batch output has {} channel buffers but the protocol has {} channels",
                out.len(),
                self.domains.len()
            )));
        }
        for channel in out.iter_mut() {
            channel.reserve(records.n_records());
        }
        self.drive(records, rng, out, |sampler, codes, draws, j, m, channel| {
            sampler.randomize_strided_into(codes, draws, j, m, channel);
        })
    }

    fn encode_tally(
        &self,
        records: &RecordsView<'_>,
        rng: &mut dyn RngCore,
        tallies: &mut [Vec<u64>],
    ) -> Result<(), MdrrError> {
        self.check_count_shape(tallies)?;
        let mut banks: Vec<ChannelTally> = self
            .domains
            .iter()
            .map(|domain| ChannelTally::new(domain.size()))
            .collect();
        self.drive(
            records,
            rng,
            &mut banks,
            |sampler, codes, draws, j, m, banks| {
                sampler.randomize_strided_tally(codes, draws, j, m, banks);
            },
        )?;
        for (banks, tally) in banks.iter().zip(tallies) {
            banks.add_to(tally);
        }
        Ok(())
    }

    fn decode_report(&self, codes: &[u32]) -> Result<Vec<u32>, MdrrError> {
        if codes.len() != self.domains.len() {
            return Err(MdrrError::config(format!(
                "report has {} codes but the protocol has {} channels",
                codes.len(),
                self.domains.len()
            )));
        }
        let mut record = vec![0u32; self.clustering.attribute_count()];
        for (k, ((cluster, domain, _), &code)) in self.channels().zip(codes).enumerate() {
            if code as usize >= domain.size() {
                return Err(MdrrError::config(format!(
                    "code {code} out of range for channel {k} ({} categories)",
                    domain.size()
                )));
            }
            for (&attribute, value) in cluster.iter().zip(domain.decode(code as usize)?) {
                record[attribute] = value;
            }
        }
        Ok(record)
    }

    fn release_from_counts(
        &self,
        counts: &[Vec<u64>],
        n_records: usize,
    ) -> Result<Box<dyn Release>, MdrrError> {
        Ok(Box::new(self.estimate(counts, n_records, None)?))
    }

    /// The release of the data set's per-channel counts, carrying the data
    /// set.  [`Protocol::run`] is client-side randomization followed by
    /// this.
    fn release_from_randomized(&self, randomized: Dataset) -> Result<Box<dyn Release>, MdrrError> {
        self.check_dataset(&randomized)?;
        let counts = self
            .clustering
            .clusters()
            .iter()
            .map(|cluster| randomized.joint_counts(cluster).map(|(_, c)| c))
            .collect::<Result<Vec<_>, _>>()?;
        let n_records = randomized.n_records();
        Ok(Box::new(self.estimate(
            &counts,
            n_records,
            Some(randomized),
        )?))
    }

    /// Randomizes each channel's codes with its matrix, channel after
    /// channel and record after record within a channel, and releases the
    /// estimate together with the randomized microdata decoded from those
    /// codes.
    fn run(
        &self,
        dataset: &Dataset,
        mut rng: &mut dyn RngCore,
    ) -> Result<Box<dyn Release>, MdrrError> {
        self.check_dataset(dataset)?;
        let n = dataset.n_records();
        let mut columns: Vec<Vec<u32>> = vec![Vec::new(); self.schema.len()];
        let mut counts = Vec::with_capacity(self.domains.len());
        for (cluster, domain, matrix) in self.channels() {
            let randomized = randomize_joint(dataset, cluster, matrix, &mut rng)?;
            let mut tally = vec![0u64; domain.size()];
            for &code in &randomized {
                tally[code as usize] += 1;
            }
            counts.push(tally);
            if let [attribute] = cluster {
                columns[*attribute] = randomized;
                continue;
            }
            let positions = cluster
                .iter()
                .zip(domain.strides())
                .zip(domain.cardinalities());
            for ((&attribute, &stride), &cardinality) in positions {
                columns[attribute] = randomized
                    .iter()
                    .map(|&code| (code as usize / stride % cardinality) as u32)
                    .collect();
            }
        }
        let randomized = Dataset::from_columns(self.schema.clone(), columns)?;
        Ok(Box::new(self.estimate(&counts, n, Some(randomized))?))
    }

    fn epsilons(&self) -> Vec<f64> {
        self.matrices.iter().map(RRMatrix::epsilon).collect()
    }
}

/// Gathers the mixed-radix joint codes of `cluster` over `range` into
/// `joint`, a column at a time: `joint[i] += column[i] · stride`.  Every
/// term is at most the joint code, which fits a `u32`.
fn gather_joint(
    columns: &[&[u32]],
    cluster: &[usize],
    strides: &[usize],
    range: Range<usize>,
    joint: &mut Vec<u32>,
) {
    joint.clear();
    joint.resize(range.len(), 0);
    for (&attribute, &stride) in cluster.iter().zip(strides) {
        let column = &columns[attribute][range.clone()];
        // lint:region(no_float, no_alloc)
        for (code, &v) in joint.iter_mut().zip(column) {
            *code += (v as usize * stride) as u32;
        }
        // lint:endregion(no_float, no_alloc)
    }
}

/// Validates a columnar record batch against a schema in one pass per
/// column: the arity must match and every code must lie within its
/// attribute's domain — the once-per-batch replacement for per-record
/// `Schema::validate_record` calls.
fn validate_records_view(records: &RecordsView<'_>, schema: &Schema) -> Result<(), MdrrError> {
    if records.n_attributes() != schema.len() {
        return Err(MdrrError::config(format!(
            "batch records have {} attributes but the schema has {}",
            records.n_attributes(),
            schema.len()
        )));
    }
    for (col, attribute) in records.columns().iter().zip(schema.attributes()) {
        let cardinality = attribute.cardinality() as u32;
        // A branch-free max first (it vectorizes); only a failing column
        // is searched for its first bad code.
        if col.iter().fold(0, |max, &v| max.max(v)) < cardinality {
            continue;
        }
        if let Some(&bad) = col.iter().find(|&&v| v >= cardinality) {
            return Err(MdrrError::config(format!(
                "code {bad} out of range for attribute `{}` ({cardinality} categories)",
                attribute.name()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{Clustering, ProtocolSpec, RandomizationLevel};
    use mdrr_data::{adult_schema, AdultSynthesizer, RecordsBuffer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `encode_batch` and `encode_tally` equal `encode_record` with a
    /// local tally, on the attribute pairs (144, 105, 30 and 4 cells, four
    /// channels to a draw block) and on RR-Joint over attributes 0–2 (1008
    /// cells, one channel).  The record counts end the draw blocks and the
    /// 4-value count lanes at every offset.
    #[test]
    fn batch_and_tally_equal_the_per_record_encoder() {
        let schema = adult_schema();
        let m = schema.len();
        let level = RandomizationLevel::KeepProbability(0.7);
        let pairs =
            Clustering::new((0..m / 2).map(|k| vec![2 * k, 2 * k + 1]).collect(), m).unwrap();
        let joint_schema = schema.project(&[0, 1, 2]).unwrap();
        let protocols = [
            ProtocolSpec::Clusters {
                level: level.clone(),
                clustering: pairs,
                equivalent_risk: false,
            }
            .build(&schema)
            .unwrap(),
            ProtocolSpec::Joint {
                level,
                max_domain: None,
                equivalent_risk: false,
            }
            .build(&joint_schema)
            .unwrap(),
        ];
        assert_eq!(protocols[0].channel_sizes(), vec![144, 105, 30, 4]);
        assert_eq!(protocols[1].channel_sizes(), vec![1008]);
        let synthesizer = AdultSynthesizer::paper_sized();
        for protocol in &protocols {
            let arity = protocol.schema().len();
            for n in [1usize, 255, 257, 1023, 1025, 4097] {
                let mut generator = StdRng::seed_from_u64(n as u64);
                let mut buffer = RecordsBuffer::new(arity).unwrap();
                for _ in 0..n {
                    let mut record = synthesizer.sample_record(&mut generator);
                    record.truncate(arity);
                    buffer.push_record(&record).unwrap();
                }
                let records = buffer.view();
                let label = format!("{} n {n}", protocol.name());

                let mut rng = StdRng::seed_from_u64(7);
                let mut expected: Vec<Vec<u32>> = vec![Vec::new(); protocol.channel_sizes().len()];
                let mut counts: Vec<Vec<u64>> = protocol
                    .channel_sizes()
                    .iter()
                    .map(|&s| vec![1; s])
                    .collect();
                let mut row = Vec::new();
                for i in 0..n {
                    records.read_record(i, &mut row).unwrap();
                    let codes = protocol.encode_record(&row, &mut rng).unwrap();
                    for ((channel, tally), code) in expected.iter_mut().zip(&mut counts).zip(codes)
                    {
                        channel.push(code);
                        tally[code as usize] += 1;
                    }
                }

                let mut batch: Vec<Vec<u32>> = vec![Vec::new(); expected.len()];
                protocol
                    .encode_batch(&records, &mut StdRng::seed_from_u64(7), &mut batch)
                    .unwrap();
                assert_eq!(batch, expected, "encode_batch, {label}");

                // The tallies start at one per cell: `encode_tally` adds.
                let mut tallies: Vec<Vec<u64>> = protocol
                    .channel_sizes()
                    .iter()
                    .map(|&s| vec![1; s])
                    .collect();
                protocol
                    .encode_tally(&records, &mut StdRng::seed_from_u64(7), &mut tallies)
                    .unwrap();
                assert_eq!(tallies, counts, "encode_tally, {label}");
            }
        }
    }
}
