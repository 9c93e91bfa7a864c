//! Protocol 2: RR-Joint.
//!
//! Every party randomizes the value of the *Cartesian product* of all her
//! attributes with a single randomization matrix over the joint domain and
//! publishes the result.  The data collector estimates the joint
//! distribution of the true data with Equation (2) and answers any subset
//! query by summing the matching cells (Section 3.2).
//!
//! RR-Joint needs no independence assumption, but the joint domain grows
//! exponentially with the number of attributes, so both the computational
//! cost and the estimation error explode unless `n ≫ Π|A_j|` (Bound (7)).
//! The constructor therefore takes an explicit cap on the joint-domain size
//! and refuses to build a protocol beyond it — exactly the reason the
//! paper's experiments cannot run RR-Joint on the full Adult schema.
//!
//! RR-Joint is RR-Clusters with one cluster holding every attribute:
//! encoding, estimation and the release all run through the shared channel
//! codec, so a release answers a query by summing the matching cells of the
//! one estimated joint distribution.

use crate::clustering::Clustering;
use crate::codec::ChannelCodec;
use crate::error::{MdrrError, ProtocolError};
use crate::protocol::{Protocol, RandomizationLevel, Release};
use mdrr_core::{CoreError, RRMatrix};
use mdrr_data::{Dataset, JointDomain, RecordsView, Schema};
use rand::RngCore;

/// Default cap on the joint-domain size accepted by the [`RRJoint`]
/// constructors.
pub const DEFAULT_MAX_JOINT_DOMAIN: usize = 1_000_000;

/// The RR-Joint protocol over the full attribute set of a schema:
/// RR-Clusters over one cluster holding every attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct RRJoint {
    codec: ChannelCodec,
}

impl RRJoint {
    /// Configures RR-Joint with the ε-optimal matrix over the joint domain,
    /// refusing joint domains larger than `max_domain`
    /// ([`DEFAULT_MAX_JOINT_DOMAIN`] when `None`).
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfiguration`] if the joint domain
    /// exceeds the cap or 2³² combinations (a report code is a `u32`), or
    /// the budget is invalid.
    pub fn with_epsilon(
        schema: Schema,
        epsilon: f64,
        max_domain: Option<usize>,
    ) -> Result<Self, ProtocolError> {
        Self::build(schema, max_domain, |size| {
            RRMatrix::from_epsilon(epsilon, size)
        })
    }

    /// Configures RR-Joint with the uniform-keep mechanism at keep
    /// probability `p` over the joint domain.
    ///
    /// # Errors
    /// Same conditions as [`RRJoint::with_epsilon`].
    pub fn with_keep_probability(
        schema: Schema,
        p: f64,
        max_domain: Option<usize>,
    ) -> Result<Self, ProtocolError> {
        Self::build(schema, max_domain, |size| RRMatrix::uniform_keep(p, size))
    }

    /// Configures RR-Joint at the *equivalent risk* of RR-Independent with
    /// `level` (Section 6.3.2, with the full attribute set as one cluster):
    /// the joint matrix is the optimal matrix for `Σ_A ε_A`, where `ε_A`
    /// are the per-attribute budgets the level implies.  The same level
    /// therefore buys the same total differential-privacy guarantee whether
    /// it is spent by RR-Independent, RR-Joint or RR-Clusters.
    ///
    /// # Errors
    /// Same conditions as [`RRJoint::with_epsilon`] plus an invalid level.
    pub fn with_level(
        schema: Schema,
        level: &RandomizationLevel,
        max_domain: Option<usize>,
    ) -> Result<Self, ProtocolError> {
        let epsilons = level.attribute_epsilons(&schema)?;
        Self::build(schema, max_domain, |size| {
            RRMatrix::cluster_from_epsilons(&epsilons, size)
        })
    }

    /// Builds the single all-attribute channel, refusing joint domains
    /// above `max_domain`, with the matrix `matrix` makes for the domain
    /// size.
    fn build(
        schema: Schema,
        max_domain: Option<usize>,
        matrix: impl FnOnce(usize) -> Result<RRMatrix, CoreError>,
    ) -> Result<Self, ProtocolError> {
        let m = schema.len();
        let whole = Clustering::new(vec![(0..m).collect()], m)?;
        let size = ChannelCodec::channel_domains(&schema, &whole)?[0].size();
        let cap = max_domain.unwrap_or(DEFAULT_MAX_JOINT_DOMAIN);
        if size > cap {
            return Err(ProtocolError::config(format!(
                "joint domain has {size} combinations, above the configured cap of {cap}; \
                 use RR-Independent or RR-Clusters instead"
            )));
        }
        let codec = ChannelCodec::new(schema, whole, vec![matrix(size)?], |_, _, _| {
            "RR-Joint on the full attribute set".to_string()
        })?;
        Ok(RRJoint { codec })
    }

    /// The schema the protocol was configured for.
    pub fn schema(&self) -> &Schema {
        self.codec.schema()
    }

    /// The joint-domain codec.
    pub fn domain(&self) -> &JointDomain {
        &self.codec.domains()[0]
    }

    /// The randomization matrix over the joint domain.
    pub fn matrix(&self) -> &RRMatrix {
        &self.codec.matrices()[0]
    }
}

impl Protocol for RRJoint {
    fn name(&self) -> String {
        "RR-Joint".to_string()
    }

    fn schema(&self) -> &Schema {
        self.codec.schema()
    }

    fn channel_sizes(&self) -> Vec<usize> {
        self.codec.channel_sizes()
    }

    fn encode_record(&self, record: &[u32], rng: &mut dyn RngCore) -> Result<Vec<u32>, MdrrError> {
        self.codec.encode_record(record, rng)
    }

    fn encode_batch(
        &self,
        records: &RecordsView<'_>,
        rng: &mut dyn RngCore,
        out: &mut [Vec<u32>],
    ) -> Result<(), MdrrError> {
        self.codec.encode_batch(records, rng, out)
    }

    fn encode_tally(
        &self,
        records: &RecordsView<'_>,
        rng: &mut dyn RngCore,
        tallies: &mut [Vec<u64>],
    ) -> Result<(), MdrrError> {
        self.codec.encode_tally(records, rng, tallies)
    }

    fn decode_report(&self, codes: &[u32]) -> Result<Vec<u32>, MdrrError> {
        self.codec.decode_report(codes)
    }

    fn release_from_counts(
        &self,
        counts: &[Vec<u64>],
        n_records: usize,
    ) -> Result<Box<dyn Release>, MdrrError> {
        Ok(Box::new(self.codec.release_from_counts(counts, n_records)?))
    }

    fn release_from_randomized(&self, randomized: Dataset) -> Result<Box<dyn Release>, MdrrError> {
        Ok(Box::new(self.codec.release_from_randomized(randomized)?))
    }

    fn run(&self, dataset: &Dataset, rng: &mut dyn RngCore) -> Result<Box<dyn Release>, MdrrError> {
        Ok(Box::new(self.codec.run(dataset, rng)?))
    }

    fn epsilons(&self) -> Vec<f64> {
        vec![self.matrix().epsilon()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{EmpiricalEstimator, FrequencyEstimator};
    use mdrr_data::{Attribute, AttributeKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("A", AttributeKind::Nominal, vec!["a".into(), "b".into()]).unwrap(),
            Attribute::new(
                "B",
                AttributeKind::Nominal,
                vec!["x".into(), "y".into(), "z".into()],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    /// Strongly dependent attributes: B tends to equal A (mod 2), which an
    /// independence-based estimate would get wrong.
    fn dependent_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::empty(schema());
        for _ in 0..n {
            let a = u32::from(rng.gen::<f64>() < 0.4);
            let b = if rng.gen::<f64>() < 0.8 { a } else { 2 };
            ds.push_record(&[a, b]).unwrap();
        }
        ds
    }

    #[test]
    fn configuration_respects_the_domain_cap() {
        assert!(RRJoint::with_epsilon(schema(), 2.0, Some(5)).is_err());
        assert!(RRJoint::with_epsilon(schema(), 2.0, Some(6)).is_ok());
        assert!(RRJoint::with_keep_probability(schema(), 0.5, None).is_ok());
        assert!(RRJoint::with_keep_probability(schema(), 1.5, None).is_err());
        assert!(RRJoint::with_epsilon(schema(), -1.0, None).is_err());
    }

    #[test]
    fn adult_sized_schema_is_rejected_by_default_cap() {
        let adult = mdrr_data::adult_schema();
        // 1 814 400 combinations exceed the default 1 000 000 cap.
        assert!(RRJoint::with_epsilon(adult, 2.0, None).is_err());
    }

    #[test]
    fn run_validates_dataset() {
        let protocol = RRJoint::with_keep_probability(schema(), 0.7, None).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(protocol.run(&Dataset::empty(schema()), &mut rng).is_err());
        let other_schema = Schema::new(vec![Attribute::indexed("Z", 2).unwrap()]).unwrap();
        let other = Dataset::from_records(other_schema, &[vec![0]]).unwrap();
        assert!(protocol.run(&other, &mut rng).is_err());
    }

    #[test]
    fn joint_estimate_captures_dependence() {
        let ds = dependent_dataset(40_000, 1);
        let protocol = RRJoint::with_keep_probability(schema(), 0.7, None).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let release = protocol.run(&ds, &mut rng).unwrap();
        let truth = EmpiricalEstimator::new(&ds);

        for a in 0..2u32 {
            for b in 0..3u32 {
                let estimated = release.frequency(&[(0, a), (1, b)]).unwrap();
                let exact = truth.frequency(&[(0, a), (1, b)]).unwrap();
                assert!(
                    (estimated - exact).abs() < 0.02,
                    "cell ({a},{b}): {estimated} vs {exact}"
                );
            }
        }
        // Marginal queries work too and agree with the joint.
        let marginal_a0 = release.frequency(&[(0, 0)]).unwrap();
        let exact_a0 = truth.frequency(&[(0, 0)]).unwrap();
        assert!((marginal_a0 - exact_a0).abs() < 0.02);
        // The distribution is proper.
        assert!(mdrr_math::is_probability_vector(
            &release.adjustment_targets().unwrap()[0].distribution,
            1e-9
        ));
        assert_eq!(release.record_count(), 40_000);
        assert_eq!(release.accountant().len(), 1);
    }

    #[test]
    fn randomized_dataset_has_the_same_shape_as_the_input() {
        let ds = dependent_dataset(500, 3);
        let protocol = RRJoint::with_epsilon(schema(), 3.0, None).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let release = protocol.run(&ds, &mut rng).unwrap();
        let randomized = release.randomized().unwrap();
        assert_eq!(randomized.n_records(), 500);
        assert_eq!(randomized.schema(), ds.schema());
    }

    #[test]
    fn streamed_counts_match_the_batch_estimate_exactly() {
        let ds = dependent_dataset(4_000, 9);
        let protocol = RRJoint::with_keep_probability(schema(), 0.6, None).unwrap();

        let mut rng = StdRng::seed_from_u64(10);
        let view = ds.view();
        let mut row = Vec::new();
        let mut reports: Vec<u32> = Vec::with_capacity(ds.n_records());
        for i in 0..ds.n_records() {
            view.read_record(i, &mut row).unwrap();
            reports.push(protocol.encode_record(&row, &mut rng).unwrap()[0]);
        }

        let mut counts = vec![vec![0u64; protocol.domain().size()]];
        for &code in &reports {
            counts[0][code as usize] += 1;
        }
        let streamed = protocol
            .release_from_counts(&counts, reports.len())
            .unwrap();
        assert!(streamed.randomized().is_none());

        let mut randomized = Dataset::empty(schema());
        for &code in &reports {
            randomized
                .push_record(&protocol.domain().decode(code as usize).unwrap())
                .unwrap();
        }
        let batch = protocol.release_from_randomized(randomized).unwrap();
        assert_eq!(
            streamed.adjustment_targets().unwrap(),
            batch.adjustment_targets().unwrap()
        );
        assert_eq!(streamed.record_count(), batch.record_count());
    }

    #[test]
    fn encode_record_and_counts_validate_input() {
        let protocol = RRJoint::with_keep_probability(schema(), 0.6, None).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(protocol.encode_record(&[0], &mut rng).is_err());
        assert!(protocol.encode_record(&[0, 5], &mut rng).is_err());
        assert!(protocol.encode_record(&[1, 2], &mut rng).is_ok());

        assert!(protocol.release_from_counts(&[vec![0; 6]], 0).is_err());
        assert!(protocol.release_from_counts(&[vec![1, 1, 1]], 3).is_err());
        assert!(protocol
            .release_from_counts(&[vec![1, 1, 1, 0, 0, 0]], 4)
            .is_err());
        assert!(protocol
            .release_from_counts(&[vec![1, 1, 1, 1, 0, 0]], 4)
            .is_ok());
    }

    #[test]
    fn frequency_estimator_contract() {
        let ds = dependent_dataset(1_000, 5);
        let protocol = RRJoint::with_keep_probability(schema(), 0.9, None).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let release = protocol.run(&ds, &mut rng).unwrap();
        assert!((release.frequency(&[]).unwrap() - 1.0).abs() < 1e-9);
        assert!(release.frequency(&[(0, 7)]).is_err());
        assert!(release.frequency(&[(9, 0)]).is_err());
        assert!(release.frequency(&[(1, 0), (1, 1)]).is_err());
    }
}
