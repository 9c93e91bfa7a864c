//! RR-Clusters (Section 4 of the paper), and the two basic protocols as
//! its ends.
//!
//! Attributes are partitioned into clusters of mutually dependent
//! attributes (Algorithm 1, [`crate::clustering`]) and RR-Joint is run
//! *within* each cluster: every party randomizes the Cartesian product of
//! her values for the attributes of each cluster and publishes one joint
//! code per cluster.  Dependences inside a cluster are preserved in the
//! estimate; dependences across clusters are neglected (and can be partly
//! repaired afterwards by RR-Adjustment, Section 5).
//!
//! For the comparison of the paper's Section 6 to be fair, the matrix of a
//! cluster `C` is the optimal matrix for the budget `Σ_{A∈C} ε_A`
//! (Section 6.3.2), where `ε_A` is the budget RR-Independent would have
//! spent on attribute `A` alone.
//!
//! The two basic protocols are the two ends of the cluster spectrum, so
//! [`RRClusters`] is the one type of all three:
//!
//! * Protocol 1, RR-Independent ([`RRClusters::independent`]), is one
//!   cluster per attribute: each attribute is randomized on its own, and a
//!   release answers a query with the product of the constrained
//!   attributes' estimated marginals (Section 3.1).  It is the baseline of
//!   the paper's experiments and the release RR-Adjustment repairs.
//! * Protocol 2, RR-Joint ([`RRClusters::joint`]), is one cluster holding
//!   every attribute: a single RR over the Cartesian product, whose release
//!   answers a query by summing the matching cells of the one estimated
//!   joint distribution (Section 3.2).  It needs no independence
//!   assumption, but the joint domain grows exponentially with the number
//!   of attributes, so both the cost and the estimation error explode
//!   unless `n ≫ Π|A_j|` (Bound (7)).  Its constructors therefore refuse
//!   joint domains above an explicit cap — exactly the reason the paper's
//!   experiments cannot run RR-Joint on the full Adult schema.

mod codec;

use crate::adjustment::AdjustmentTarget;
use crate::clustering::Clustering;
use crate::error::{MdrrError, ProtocolError};
use crate::estimator::{validate_assignment, Assignment, FrequencyEstimator};
use crate::protocol::{RandomizationLevel, Release};
use mdrr_core::{CoreError, PrivacyAccountant, RRMatrix};
use mdrr_data::{Dataset, JointDomain, Schema};

/// Default cap on the joint-domain size accepted by the RR-Joint
/// constructors ([`RRClusters::joint`] and its siblings).
pub const DEFAULT_MAX_JOINT_DOMAIN: usize = 1_000_000;

/// The RR-Clusters protocol: a clustering of the schema's attributes plus
/// each cluster's joint domain and randomization matrix.  RR-Independent
/// and RR-Joint are its singleton and all-attribute clusterings; the
/// constructor sets the protocol's name and its privacy-ledger entries.
#[derive(Debug, Clone, PartialEq)]
pub struct RRClusters {
    name: &'static str,
    schema: Schema,
    clustering: Clustering,
    domains: Vec<JointDomain>,
    matrices: Vec<RRMatrix>,
    ledger: PrivacyAccountant,
}

impl RRClusters {
    /// Protocol 1, RR-Independent: one singleton cluster per attribute,
    /// each randomized with the per-attribute matrix of `level`.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfiguration`] for invalid levels
    /// (probability outside `[0, 1]`, negative ε, wrong budget count).
    pub fn independent(schema: Schema, level: &RandomizationLevel) -> Result<Self, ProtocolError> {
        let matrices = level.independent_matrices(&schema)?;
        Self::independent_from_matrices(schema, matrices)
    }

    /// RR-Independent with explicit per-attribute matrices, in schema
    /// order.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfiguration`] if the number of
    /// matrices or any matrix size does not match the schema.
    pub fn independent_from_matrices(
        schema: Schema,
        matrices: Vec<RRMatrix>,
    ) -> Result<Self, ProtocolError> {
        let singletons = Clustering::singletons(schema.len())?;
        Self::new(
            "RR-Independent",
            schema,
            singletons,
            matrices,
            |schema, j, _| format!("RR-Independent on {}", schema.attributes()[j].name()),
        )
    }

    /// Protocol 2, RR-Joint, at the *equivalent risk* of RR-Independent
    /// with `level` (Section 6.3.2, with the full attribute set as one
    /// cluster): the joint matrix is the optimal matrix for `Σ_A ε_A`,
    /// where `ε_A` are the per-attribute budgets the level implies.  The
    /// same level therefore buys the same total differential-privacy
    /// guarantee whether it is spent by RR-Independent, RR-Joint or
    /// RR-Clusters.  Joint domains larger than `max_domain`
    /// ([`DEFAULT_MAX_JOINT_DOMAIN`] when `None`) are refused.
    ///
    /// # Errors
    /// Same conditions as [`RRClusters::joint_with_epsilon`] plus an
    /// invalid level.
    pub fn joint(
        schema: Schema,
        level: &RandomizationLevel,
        max_domain: Option<usize>,
    ) -> Result<Self, ProtocolError> {
        let epsilons = level.attribute_epsilons(&schema)?;
        Self::joint_over(schema, max_domain, |size| {
            RRMatrix::cluster_from_epsilons(&epsilons, size)
        })
    }

    /// RR-Joint with the uniform-keep mechanism at keep probability `p`
    /// over the joint domain.
    ///
    /// # Errors
    /// Same conditions as [`RRClusters::joint_with_epsilon`].
    pub fn joint_with_keep_probability(
        schema: Schema,
        p: f64,
        max_domain: Option<usize>,
    ) -> Result<Self, ProtocolError> {
        Self::joint_over(schema, max_domain, |size| RRMatrix::uniform_keep(p, size))
    }

    /// RR-Joint with the ε-optimal matrix over the joint domain, refusing
    /// joint domains larger than `max_domain` ([`DEFAULT_MAX_JOINT_DOMAIN`]
    /// when `None`).
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfiguration`] if the joint domain
    /// exceeds the cap or 2³² combinations (a report code is a `u32`), or
    /// the budget is invalid.
    pub fn joint_with_epsilon(
        schema: Schema,
        epsilon: f64,
        max_domain: Option<usize>,
    ) -> Result<Self, ProtocolError> {
        Self::joint_over(schema, max_domain, |size| {
            RRMatrix::from_epsilon(epsilon, size)
        })
    }

    /// Builds RR-Joint's single all-attribute channel, refusing joint
    /// domains above `max_domain`, with the matrix `matrix` makes for the
    /// domain size.
    fn joint_over(
        schema: Schema,
        max_domain: Option<usize>,
        matrix: impl FnOnce(usize) -> Result<RRMatrix, CoreError>,
    ) -> Result<Self, ProtocolError> {
        let m = schema.len();
        let whole = Clustering::new(vec![(0..m).collect()], m)?;
        let size = Self::channel_domains(&schema, &whole)?[0].size();
        let cap = max_domain.unwrap_or(DEFAULT_MAX_JOINT_DOMAIN);
        if size > cap {
            return Err(ProtocolError::config(format!(
                "joint domain has {size} combinations, above the configured cap of {cap}; \
                 use RR-Independent or RR-Clusters instead"
            )));
        }
        Self::new("RR-Joint", schema, whole, vec![matrix(size)?], |_, _, _| {
            "RR-Joint on the full attribute set".to_string()
        })
    }

    /// Section 6.3.2 construction: the cluster matrices provide the same
    /// differential-privacy level as RR-Independent with per-attribute
    /// budgets `epsilons` (in schema order): cluster `C` gets the optimal
    /// matrix for `Σ_{A∈C} ε_A` over its joint domain.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfiguration`] if the clustering
    /// does not cover the schema, a cluster has more than 2³² value
    /// combinations (its codes would not fit a `u32`), or the budget list
    /// has the wrong length.
    pub fn with_equivalent_risk(
        schema: Schema,
        clustering: Clustering,
        epsilons: &[f64],
    ) -> Result<Self, ProtocolError> {
        if epsilons.len() != schema.len() {
            return Err(ProtocolError::config(format!(
                "expected {} per-attribute budgets, got {}",
                schema.len(),
                epsilons.len()
            )));
        }
        let matrices = Self::channel_domains(&schema, &clustering)?
            .iter()
            .zip(clustering.clusters())
            .map(|(domain, cluster)| {
                let cluster_epsilons: Vec<f64> = cluster.iter().map(|&a| epsilons[a]).collect();
                RRMatrix::cluster_from_epsilons(&cluster_epsilons, domain.size())
            })
            .collect::<Result<_, _>>()?;
        Self::from_matrices(schema, clustering, matrices)
    }

    /// Configures RR-Clusters at the equivalent risk of RR-Independent with
    /// `level`: the per-attribute budgets the level implies are spent
    /// jointly per cluster (Section 6.3.2).  The paper's experiments use
    /// [`RandomizationLevel::KeepProbability`]: the per-attribute budgets
    /// of the uniform-keep mechanism at the `p` RR-Independent runs at.
    ///
    /// # Errors
    /// Same conditions as [`RRClusters::with_equivalent_risk`] plus an
    /// invalid level.
    pub fn with_level(
        schema: Schema,
        clustering: Clustering,
        level: &RandomizationLevel,
    ) -> Result<Self, ProtocolError> {
        let epsilons = level.attribute_epsilons(&schema)?;
        Self::with_equivalent_risk(schema, clustering, &epsilons)
    }

    /// Direct construction: each cluster uses the uniform-keep mechanism at
    /// keep probability `p` over its own joint domain (no equivalent-risk
    /// adjustment).  Useful for ablations.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfiguration`] for an invalid `p`, a
    /// clustering that does not cover the schema, or a cluster of more
    /// than 2³² value combinations.
    pub fn with_keep_probability(
        schema: Schema,
        clustering: Clustering,
        p: f64,
    ) -> Result<Self, ProtocolError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(ProtocolError::config(format!(
                "keep probability must lie in [0, 1], got {p}"
            )));
        }
        let matrices = Self::channel_domains(&schema, &clustering)?
            .iter()
            .map(|domain| RRMatrix::uniform_keep(p, domain.size()))
            .collect::<Result<_, _>>()?;
        Self::from_matrices(schema, clustering, matrices)
    }

    /// RR-Clusters over `clustering`, one ledger entry per cluster.
    fn from_matrices(
        schema: Schema,
        clustering: Clustering,
        matrices: Vec<RRMatrix>,
    ) -> Result<Self, ProtocolError> {
        Self::new(
            "RR-Clusters",
            schema,
            clustering,
            matrices,
            |_, k, cluster| format!("RR-Clusters on cluster {k} (attributes {cluster:?})"),
        )
    }

    /// The schema the protocol was configured for.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The clustering the protocol uses.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// The per-cluster randomization matrices (cluster order).
    pub fn matrices(&self) -> &[RRMatrix] {
        &self.matrices
    }

    /// The per-cluster joint-domain codecs (cluster order).
    pub fn domains(&self) -> &[JointDomain] {
        &self.domains
    }
}

/// The release of RR-Clusters, and so also of RR-Independent (one cluster
/// per attribute) and RR-Joint (one cluster holding every attribute): the
/// estimated joint distribution of each cluster, in the code order of the
/// cluster's joint domain.  Clusters are taken to be independent of each
/// other, so a query's frequency is the product over the clusters it
/// constrains of the matching mass within each cluster.
#[derive(Debug, Clone, PartialEq)]
struct ClustersRelease {
    cardinalities: Vec<usize>,
    clustering: Clustering,
    domains: Vec<JointDomain>,
    distributions: Vec<Vec<f64>>,
    randomized: Option<Dataset>,
    accountant: PrivacyAccountant,
    n_records: usize,
}

impl ClustersRelease {
    /// The cluster holding `attribute` and the attribute's position in it.
    fn locate(&self, attribute: usize) -> Result<(usize, usize), ProtocolError> {
        self.clustering
            .clusters()
            .iter()
            .enumerate()
            .find_map(|(k, cluster)| Some((k, cluster.iter().position(|&a| a == attribute)?)))
            .ok_or_else(|| {
                ProtocolError::unsupported(format!("attribute index {attribute} out of range"))
            })
    }

    /// The estimated mass of cluster `k` on the cells matching
    /// `constraints`, given as `(k, position in the cluster, code)`.  A value's
    /// position in a cell follows from the domain's strides, so no cell is
    /// decoded; a query that fixes every attribute of the cluster reads its
    /// one cell.
    fn cluster_frequency(&self, k: usize, constraints: &[(usize, usize, u32)]) -> f64 {
        let domain = &self.domains[k];
        let (strides, cardinalities) = (domain.strides(), domain.cardinalities());
        let distribution = &self.distributions[k];
        if constraints.len() == cardinalities.len() {
            let cell: usize = constraints
                .iter()
                .map(|&(_, position, code)| code as usize * strides[position])
                .sum();
            return distribution[cell];
        }
        let mut total = 0.0;
        for (cell, &prob) in distribution.iter().enumerate() {
            let matches = |&(_, position, code): &(usize, usize, u32)| {
                cell / strides[position] % cardinalities[position] == code as usize
            };
            if prob != 0.0 && constraints.iter().all(matches) {
                total += prob;
            }
        }
        total
    }
}

impl FrequencyEstimator for ClustersRelease {
    fn frequency(&self, assignment: &Assignment) -> Result<f64, ProtocolError> {
        validate_assignment(assignment, &self.cardinalities)?;
        // `(cluster, position, code)` of each constraint, in cluster order.
        let mut constraints = assignment
            .iter()
            .map(|&(attribute, code)| {
                let (k, position) = self.locate(attribute)?;
                Ok((k, position, code))
            })
            .collect::<Result<Vec<_>, ProtocolError>>()?;
        constraints.sort_unstable_by_key(|&(k, _, _)| k);
        // Independence across clusters: multiply the per-cluster masses.
        let mut freq = 1.0;
        for group in constraints.chunk_by(|a, b| a.0 == b.0) {
            freq *= self.cluster_frequency(group[0].0, group);
        }
        Ok(freq)
    }

    fn record_count(&self) -> usize {
        self.n_records
    }
}

impl Release for ClustersRelease {
    /// Marginalises the attribute's cluster distribution; a one-attribute
    /// cluster's distribution is the marginal itself.
    fn marginal(&self, attribute: usize) -> Result<Vec<f64>, MdrrError> {
        let (k, position) = self.locate(attribute)?;
        let distribution = &self.distributions[k];
        let domain = &self.domains[k];
        if domain.cardinalities().len() == 1 {
            return Ok(distribution.clone());
        }
        let stride = domain.strides()[position];
        let cardinality = domain.cardinalities()[position];
        let mut marginal = vec![0.0; cardinality];
        for (cell, &prob) in distribution.iter().enumerate() {
            marginal[cell / stride % cardinality] += prob;
        }
        Ok(marginal)
    }

    fn accountant(&self) -> &PrivacyAccountant {
        &self.accountant
    }

    fn randomized(&self) -> Option<&Dataset> {
        self.randomized.as_ref()
    }

    fn adjustment_targets(&self) -> Result<Vec<AdjustmentTarget>, MdrrError> {
        Ok(self
            .clustering
            .clusters()
            .iter()
            .zip(&self.distributions)
            .map(|(cluster, distribution)| AdjustmentTarget {
                attributes: cluster.clone(),
                distribution: distribution.clone(),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{EmpiricalEstimator, FrequencyEstimator};
    use crate::protocol::Protocol;
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
            Attribute::new("C", AttributeKind::Nominal, vec!["0".into(), "1".into()]).unwrap(),
        ])
        .unwrap()
    }

    /// A and B strongly dependent; C independent of both.
    fn dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::empty(schema());
        for _ in 0..n {
            let a = u32::from(rng.gen::<f64>() < 0.4);
            let b = if rng.gen::<f64>() < 0.85 { a } else { 2 };
            let c = u32::from(rng.gen::<f64>() < 0.5);
            ds.push_record(&[a, b, c]).unwrap();
        }
        ds
    }

    fn ab_c_clustering() -> Clustering {
        Clustering::new(vec![vec![0, 1], vec![2]], 3).unwrap()
    }

    #[test]
    fn constructors_validate_configuration() {
        let s = schema();
        let clustering = ab_c_clustering();
        assert!(
            RRClusters::with_equivalent_risk(s.clone(), clustering.clone(), &[1.0, 1.0]).is_err()
        );
        for p in [1.5, 1.0] {
            let level = RandomizationLevel::KeepProbability(p);
            assert!(RRClusters::with_level(s.clone(), clustering.clone(), &level).is_err());
        }
        assert!(RRClusters::with_keep_probability(s.clone(), clustering.clone(), -0.2).is_err());
        // A clustering over the wrong number of attributes is rejected.
        let short = Clustering::new(vec![vec![0], vec![1]], 2).unwrap();
        assert!(RRClusters::with_keep_probability(s, short, 0.5).is_err());
    }

    #[test]
    fn equivalent_risk_matches_independent_budget() {
        let s = schema();
        let p = 0.7;
        let independent =
            RRClusters::independent(s.clone(), &RandomizationLevel::KeepProbability(p)).unwrap();
        let epsilons = independent.epsilons();
        let clusters = RRClusters::with_equivalent_risk(s, ab_c_clustering(), &epsilons).unwrap();
        // Cluster {A, B} spends ε_A + ε_B; cluster {C} spends ε_C.
        let eps_ab = clusters.matrices()[0].epsilon();
        let eps_c = clusters.matrices()[1].epsilon();
        assert!((eps_ab - (epsilons[0] + epsilons[1])).abs() < 1e-9);
        assert!((eps_c - epsilons[2]).abs() < 1e-9);
        // Total budgets of the two protocols coincide.
        let total_independent: f64 = epsilons.iter().sum();
        assert!((eps_ab + eps_c - total_independent).abs() < 1e-9);
    }

    #[test]
    fn run_validates_dataset() {
        let protocol = RRClusters::with_keep_probability(schema(), ab_c_clustering(), 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(protocol.run(&Dataset::empty(schema()), &mut rng).is_err());
        let other_schema = Schema::new(vec![Attribute::indexed("Z", 2).unwrap()]).unwrap();
        let other = Dataset::from_records(other_schema, &[vec![0]]).unwrap();
        assert!(protocol.run(&other, &mut rng).is_err());
    }

    #[test]
    fn within_cluster_dependence_is_preserved() {
        let ds = dataset(40_000, 1);
        let protocol = RRClusters::with_keep_probability(schema(), ab_c_clustering(), 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let release = protocol.run(&ds, &mut rng).unwrap();
        let truth = EmpiricalEstimator::new(&ds);

        // Joint cells of the dependent pair (A, B) are estimated well…
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
        // …and so are cross-cluster cells, because C really is independent.
        let estimated = release.frequency(&[(0, 0), (2, 1)]).unwrap();
        let exact = truth.frequency(&[(0, 0), (2, 1)]).unwrap();
        assert!((estimated - exact).abs() < 0.02);
    }

    #[test]
    fn cluster_estimates_beat_independence_on_dependent_pairs() {
        let ds = dataset(40_000, 3);
        let level = RandomizationLevel::KeepProbability(0.7);
        let mut rng = StdRng::seed_from_u64(4);
        let clusters_release = RRClusters::with_level(schema(), ab_c_clustering(), &level)
            .unwrap()
            .run(&ds, &mut rng)
            .unwrap();
        let independent_release = RRClusters::independent(schema(), &level)
            .unwrap()
            .run(&ds, &mut rng)
            .unwrap();
        let truth = EmpiricalEstimator::new(&ds);

        // Total absolute error over the joint cells of the dependent pair.
        let mut err_clusters = 0.0;
        let mut err_independent = 0.0;
        for a in 0..2u32 {
            for b in 0..3u32 {
                let exact = truth.frequency(&[(0, a), (1, b)]).unwrap();
                err_clusters +=
                    (clusters_release.frequency(&[(0, a), (1, b)]).unwrap() - exact).abs();
                err_independent +=
                    (independent_release.frequency(&[(0, a), (1, b)]).unwrap() - exact).abs();
            }
        }
        assert!(
            err_clusters < err_independent,
            "clusters {err_clusters} should beat independence {err_independent}"
        );
    }

    #[test]
    fn attribute_marginals_are_consistent() {
        let ds = dataset(30_000, 5);
        let protocol = RRClusters::with_keep_probability(schema(), ab_c_clustering(), 0.8).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let release = protocol.run(&ds, &mut rng).unwrap();
        for attribute in 0..3 {
            let marginal = release.marginal(attribute).unwrap();
            assert!((marginal.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            let truth = ds.marginal_distribution(attribute).unwrap();
            for (a, b) in marginal.iter().zip(truth.iter()) {
                assert!((a - b).abs() < 0.02);
            }
            // The marginal via the estimator trait agrees with the explicit one.
            for (code, expected) in marginal.iter().enumerate() {
                let via_query = release.frequency(&[(attribute, code as u32)]).unwrap();
                assert!((via_query - expected).abs() < 1e-9);
            }
        }
        assert!(release.marginal(9).is_err());
    }

    #[test]
    fn randomized_dataset_and_ledger_shape() {
        let ds = dataset(1_000, 7);
        let protocol = RRClusters::with_keep_probability(schema(), ab_c_clustering(), 0.6).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let release = protocol.run(&ds, &mut rng).unwrap();
        let randomized = release.randomized().unwrap();
        assert_eq!(randomized.n_records(), 1_000);
        assert_eq!(randomized.schema(), ds.schema());
        assert_eq!(release.accountant().len(), 2);
        assert_eq!(release.record_count(), 1_000);
        assert_eq!(release.adjustment_targets().unwrap().len(), 2);
    }

    #[test]
    fn streamed_counts_match_the_batch_estimate_exactly() {
        let ds = dataset(4_000, 13);
        let protocol = RRClusters::with_keep_probability(schema(), ab_c_clustering(), 0.6).unwrap();

        let mut rng = StdRng::seed_from_u64(14);
        let view = ds.view();
        let mut row = Vec::new();
        let mut reports: Vec<Vec<u32>> = Vec::with_capacity(ds.n_records());
        for i in 0..ds.n_records() {
            view.read_record(i, &mut row).unwrap();
            reports.push(protocol.encode_record(&row, &mut rng).unwrap());
        }

        // Streaming collector: one count vector per cluster.
        let mut counts: Vec<Vec<u64>> = protocol
            .domains()
            .iter()
            .map(|d| vec![0u64; d.size()])
            .collect();
        for report in &reports {
            for (k, &code) in report.iter().enumerate() {
                counts[k][code as usize] += 1;
            }
        }
        let streamed = protocol
            .release_from_counts(&counts, reports.len())
            .unwrap();
        assert!(streamed.randomized().is_none());

        // Batch collector: decode the same reports into microdata.
        let mut columns: Vec<Vec<u32>> = vec![vec![0; reports.len()]; 3];
        for (i, report) in reports.iter().enumerate() {
            for (k, cluster) in protocol.clustering().clusters().iter().enumerate() {
                let tuple = protocol.domains()[k].decode(report[k] as usize).unwrap();
                for (&attribute, &value) in cluster.iter().zip(tuple.iter()) {
                    columns[attribute][i] = value;
                }
            }
        }
        let randomized = Dataset::from_columns(schema(), columns).unwrap();
        let batch = protocol.release_from_randomized(randomized).unwrap();
        assert_eq!(
            streamed.adjustment_targets().unwrap(),
            batch.adjustment_targets().unwrap()
        );
        assert_eq!(streamed.record_count(), batch.record_count());
    }

    #[test]
    fn encode_record_and_counts_validate_input() {
        let protocol = RRClusters::with_keep_probability(schema(), ab_c_clustering(), 0.6).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(protocol.encode_record(&[0, 0], &mut rng).is_err());
        assert!(protocol.encode_record(&[0, 9, 0], &mut rng).is_err());
        let report = protocol.encode_record(&[1, 2, 0], &mut rng).unwrap();
        assert_eq!(report.len(), 2);

        assert!(protocol
            .release_from_counts(&[vec![0; 6], vec![0; 2]], 0)
            .is_err());
        assert!(protocol.release_from_counts(&[vec![2; 3]], 6).is_err());
        assert!(protocol
            .release_from_counts(&[vec![1; 6], vec![3, 2]], 6)
            .is_err());
        assert!(protocol
            .release_from_counts(&[vec![1; 6], vec![3, 3]], 6)
            .is_ok());
    }

    #[test]
    fn singleton_clustering_degenerates_to_independent_estimates() {
        let ds = dataset(20_000, 9);
        let singletons = Clustering::singletons(3).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let release = RRClusters::with_keep_probability(schema(), singletons, 0.7)
            .unwrap()
            .run(&ds, &mut rng)
            .unwrap();
        // Joint frequencies are products of marginals, exactly like RR-Independent.
        let f_joint = release.frequency(&[(0, 0), (1, 0)]).unwrap();
        let f_a = release.frequency(&[(0, 0)]).unwrap();
        let f_b = release.frequency(&[(1, 0)]).unwrap();
        assert!((f_joint - f_a * f_b).abs() < 1e-12);

        // The two ends of the cluster spectrum emit the basic protocols'
        // codes: singletons are RR-Independent and one all-attribute
        // cluster is RR-Joint (equal matrices, draw `i·m + j` for channel
        // `j` of record `i`), through the batch and the per-record path.
        let p = 0.7;
        let singletons = Clustering::singletons(3).unwrap();
        let whole = Clustering::new(vec![vec![0, 1, 2]], 3).unwrap();
        let ends: [(RRClusters, Box<dyn Protocol>); 2] = [
            (
                RRClusters::with_keep_probability(schema(), singletons, p).unwrap(),
                Box::new(
                    RRClusters::independent(schema(), &RandomizationLevel::KeepProbability(p))
                        .unwrap(),
                ),
            ),
            (
                RRClusters::with_keep_probability(schema(), whole, p).unwrap(),
                Box::new(RRClusters::joint_with_keep_probability(schema(), p, None).unwrap()),
            ),
        ];
        let view = ds.view();
        for (clusters, basic) in &ends {
            let mut codes = Vec::new();
            for protocol in [clusters as &dyn Protocol, &**basic] {
                let mut rng = StdRng::seed_from_u64(15);
                let mut batch = vec![Vec::new(); protocol.channel_sizes().len()];
                protocol.encode_batch(&view, &mut rng, &mut batch).unwrap();
                let mut rng = StdRng::seed_from_u64(15);
                let mut row = Vec::new();
                let per_record: Vec<Vec<u32>> = (0..view.n_records())
                    .map(|i| {
                        view.read_record(i, &mut row).unwrap();
                        protocol.encode_record(&row, &mut rng).unwrap()
                    })
                    .collect();
                codes.push((batch, per_record));
            }
            assert_eq!(codes[0], codes[1], "{}", basic.name());
        }
    }

    #[test]
    fn frequency_estimator_contract() {
        let ds = dataset(500, 11);
        let protocol = RRClusters::with_keep_probability(schema(), ab_c_clustering(), 0.9).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let release = protocol.run(&ds, &mut rng).unwrap();
        assert!((release.frequency(&[]).unwrap() - 1.0).abs() < 1e-9);
        assert!(release.frequency(&[(0, 9)]).is_err());
        assert!(release.frequency(&[(9, 0)]).is_err());
        assert!(release.frequency(&[(0, 0), (0, 1)]).is_err());
    }
}
