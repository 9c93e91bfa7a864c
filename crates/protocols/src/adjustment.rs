//! RR-Adjustment (Algorithm 2, Section 5 of the paper).
//!
//! RR-Independent and RR-Clusters estimate joint frequencies under an
//! independence assumption (between attributes, respectively between
//! clusters).  RR-Adjustment repairs part of the resulting accuracy loss by
//! exploiting the dependence information that *survives inside the
//! randomized data set* `Y`: it assigns a weight to every record of `Y` and
//! iteratively rescales the weights so that the weighted marginal
//! distribution of every attribute (or attribute cluster) matches the
//! distribution estimated by RR-Independent (or RR-Clusters).  This is
//! iterative proportional fitting with the randomized records as the seed,
//! so combinations that are frequent in `Y` keep more weight than the plain
//! product of marginals would give them.
//!
//! Because the adjustment only reads `Y` and the already-published
//! estimates, it consumes no additional privacy budget (Section 5).

use crate::error::{MdrrError, ProtocolError};
use crate::estimator::{validate_assignment, Assignment, FrequencyEstimator};
use crate::protocol::{Protocol, Release};
use mdrr_core::PrivacyAccountant;
use mdrr_data::{Dataset, Schema};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One marginal constraint of the adjustment: the weighted distribution of
/// the listed attributes (jointly, in the given order) must match
/// `distribution`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdjustmentTarget {
    /// Attribute indices forming the group (a single attribute for
    /// RR-Independent targets, a cluster for RR-Clusters targets).
    pub attributes: Vec<usize>,
    /// Target distribution over the group's joint domain, in the mixed-radix
    /// code order of [`mdrr_data::JointDomain`].
    pub distribution: Vec<f64>,
}

impl AdjustmentTarget {
    /// Creates a target, validating that it is non-empty and that the
    /// distribution is a probability vector.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfiguration`] otherwise.
    pub fn new(attributes: Vec<usize>, distribution: Vec<f64>) -> Result<Self, ProtocolError> {
        if attributes.is_empty() {
            return Err(ProtocolError::config(
                "adjustment target needs at least one attribute",
            ));
        }
        if distribution.is_empty() {
            return Err(ProtocolError::config(
                "adjustment target needs a non-empty distribution",
            ));
        }
        if !mdrr_math::is_probability_vector(&distribution, 1e-6) {
            return Err(ProtocolError::config(
                "adjustment target distribution must be a probability vector",
            ));
        }
        Ok(AdjustmentTarget {
            attributes,
            distribution,
        })
    }
}

/// Termination parameters of the iterative fitting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdjustmentConfig {
    /// Maximum number of passes over all targets.
    pub max_iterations: usize,
    /// Stop when the L1 change of the weight vector within one pass drops
    /// below this threshold.
    pub tolerance: f64,
}

impl Default for AdjustmentConfig {
    fn default() -> Self {
        AdjustmentConfig {
            max_iterations: 50,
            tolerance: 1e-9,
        }
    }
}

impl AdjustmentConfig {
    /// Creates a configuration, validating the parameters.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfiguration`] for a zero iteration
    /// budget or a non-positive tolerance.
    pub fn new(max_iterations: usize, tolerance: f64) -> Result<Self, ProtocolError> {
        if max_iterations == 0 {
            return Err(ProtocolError::config("max_iterations must be positive"));
        }
        if tolerance <= 0.0 || tolerance.is_nan() {
            return Err(ProtocolError::config("tolerance must be positive"));
        }
        Ok(AdjustmentConfig {
            max_iterations,
            tolerance,
        })
    }
}

/// The weighted randomized data set produced by Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct AdjustedRelease {
    randomized: Dataset,
    weights: Vec<f64>,
    iterations: usize,
    converged: bool,
    accountant: PrivacyAccountant,
}

impl AdjustedRelease {
    /// The randomized data set the weights refer to.
    pub fn randomized(&self) -> &Dataset {
        &self.randomized
    }

    /// Attaches the privacy ledger of the release the adjustment targets
    /// were derived from.  The adjustment itself consumes no additional
    /// budget (Section 5), so the ledger of an adjusted release is exactly
    /// the base release's ledger; standalone [`rr_adjustment`] calls leave
    /// it empty.
    #[must_use]
    pub fn with_accountant(mut self, accountant: PrivacyAccountant) -> Self {
        self.accountant = accountant;
        self
    }

    /// The privacy ledger (the base release's ledger — the adjustment adds
    /// no entries, see [`AdjustedRelease::with_accountant`]).
    pub fn accountant(&self) -> &PrivacyAccountant {
        &self.accountant
    }

    /// The weighted marginal distribution of a single attribute (the shared
    /// [`Release::marginal`] accessor).
    ///
    /// # Errors
    /// Propagates dataset access errors for a bad attribute index.
    pub fn marginal(&self, attribute: usize) -> Result<Vec<f64>, ProtocolError> {
        self.weighted_distribution(&[attribute])
    }

    /// The per-record weights (they sum to 1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of full passes over the targets that were executed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the weight changes fell below the tolerance before the
    /// iteration budget ran out.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The weighted marginal distribution of a group of attributes — useful
    /// for checking how closely the targets were matched.
    ///
    /// # Errors
    /// Propagates dataset access errors.
    pub fn weighted_distribution(&self, attributes: &[usize]) -> Result<Vec<f64>, ProtocolError> {
        let (domain, codes) = self.randomized.joint_codes(attributes)?;
        let mut dist = vec![0.0; domain.size()];
        for (&code, &w) in codes.iter().zip(self.weights.iter()) {
            dist[code as usize] += w;
        }
        Ok(dist)
    }
}

impl FrequencyEstimator for AdjustedRelease {
    fn frequency(&self, assignment: &Assignment) -> Result<f64, ProtocolError> {
        // Validate the constraints, then sum the weights of matching records.
        validate_assignment(assignment, &self.randomized.schema().cardinalities())?;
        let mut columns = Vec::with_capacity(assignment.len());
        for &(attribute, code) in assignment {
            columns.push((self.randomized.column(attribute)?, code));
        }
        let mut freq = 0.0;
        for (i, &w) in self.weights.iter().enumerate() {
            if columns.iter().all(|(column, code)| column[i] == *code) {
                freq += w;
            }
        }
        Ok(freq)
    }

    fn record_count(&self) -> usize {
        self.randomized.n_records()
    }
}

/// Algorithm 2: iteratively re-weights the records of the randomized data
/// set `Y` so the weighted distribution of every target group matches the
/// target distribution.
///
/// # Errors
/// * [`ProtocolError::InvalidConfiguration`] for an empty dataset, an empty
///   target list, or a target whose distribution length does not match the
///   group's joint-domain size;
/// * propagated dataset errors otherwise.
pub fn rr_adjustment(
    randomized: &Dataset,
    targets: &[AdjustmentTarget],
    config: AdjustmentConfig,
) -> Result<AdjustedRelease, ProtocolError> {
    if randomized.is_empty() {
        return Err(ProtocolError::config("cannot adjust an empty dataset"));
    }
    if targets.is_empty() {
        return Err(ProtocolError::config(
            "at least one adjustment target is required",
        ));
    }

    // Pre-compute each target's joint codes over the randomized data set.
    let mut prepared = Vec::with_capacity(targets.len());
    for target in targets {
        let (domain, codes) = randomized.joint_codes(&target.attributes)?;
        if domain.size() != target.distribution.len() {
            return Err(ProtocolError::config(format!(
                "target over attributes {:?} has {} probabilities but the joint domain has {} combinations",
                target.attributes,
                target.distribution.len(),
                domain.size()
            )));
        }
        prepared.push((codes, &target.distribution));
    }

    let n = randomized.n_records();
    let mut weights = vec![1.0 / n as f64; n];
    let mut iterations = 0usize;
    let mut converged = false;

    // Step 5–8 of Algorithm 2: loop over the targets, rescaling weights so
    // the weighted group distribution matches the target, until the weights
    // stabilise.
    while iterations < config.max_iterations {
        iterations += 1;
        let mut change = 0.0f64;
        for (codes, distribution) in &prepared {
            // s_k: current weighted frequency of group value k.
            let mut group_weight = vec![0.0f64; distribution.len()];
            for (&code, &w) in codes.iter().zip(weights.iter()) {
                group_weight[code as usize] += w;
            }
            // w_i ← w_i · π̂(v_i) / s_{v_i}
            for (&code, w) in codes.iter().zip(weights.iter_mut()) {
                let s = group_weight[code as usize];
                if s > 0.0 {
                    let updated = *w * distribution[code as usize] / s;
                    change += (updated - *w).abs();
                    *w = updated;
                }
            }
        }
        // Renormalise to guard against drift when some target mass is
        // unreachable in Y (target probability > 0 on a combination that no
        // randomized record exhibits).
        let total: f64 = weights.iter().sum();
        if total > 0.0 {
            for w in &mut weights {
                *w /= total;
            }
        }
        if change < config.tolerance {
            converged = true;
            break;
        }
    }

    Ok(AdjustedRelease {
        randomized: randomized.clone(),
        weights,
        iterations,
        converged,
        accountant: PrivacyAccountant::new(),
    })
}

/// RR-Adjustment as a protocol in its own right: any base [`Protocol`]
/// followed by Algorithm 2.
///
/// The base protocol performs the client-side randomization and the
/// collector-side estimation; the adjustment then re-weights the randomized
/// data set against the targets the base release derives for itself
/// ([`Release::adjustment_targets`]) — per-attribute marginals for
/// RR-Independent, per-cluster joints for RR-Clusters.  This is the
/// "RR-Independent + RR-Adj" / "RR-Cluster + RR-Adj" configuration of the
/// paper's Section 6.2, expressed uniformly over `Arc<dyn Protocol>` so a
/// [`crate::ProtocolSpec`] can stack it on any base.
///
/// Because Algorithm 2 reads the randomized *microdata* `Y`, this protocol
/// supports the batch paths ([`Protocol::run`],
/// [`Protocol::release_from_randomized`]) but not estimation from streamed
/// count vectors, which do not retain `Y` —
/// [`Protocol::release_from_counts`] returns
/// [`MdrrError::UnsupportedQuery`].
#[derive(Debug, Clone)]
pub struct RRAdjustment {
    base: Arc<dyn Protocol>,
    config: AdjustmentConfig,
}

impl RRAdjustment {
    /// Stacks RR-Adjustment on a base protocol.
    pub fn new(base: Arc<dyn Protocol>, config: AdjustmentConfig) -> Self {
        RRAdjustment { base, config }
    }

    /// The base protocol the adjustment repairs.
    pub fn base(&self) -> &Arc<dyn Protocol> {
        &self.base
    }

    /// The termination parameters of the iterative fitting.
    pub fn config(&self) -> AdjustmentConfig {
        self.config
    }

    /// Runs the adjustment against an already-computed base release.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] when the base release
    /// carries no randomized microdata (count-vector releases cannot be
    /// adjusted); propagated adjustment errors otherwise.
    fn adjust(&self, base_release: &dyn Release) -> Result<AdjustedRelease, MdrrError> {
        let randomized = base_release.randomized().ok_or_else(|| {
            MdrrError::config(
                "RR-Adjustment needs the randomized microdata, but the base release \
                 was assembled from count vectors only",
            )
        })?;
        let targets = base_release.adjustment_targets()?;
        Ok(rr_adjustment(randomized, &targets, self.config)?
            .with_accountant(base_release.accountant().clone()))
    }
}

impl Protocol for RRAdjustment {
    fn name(&self) -> String {
        format!("{} + RR-Adjustment", self.base.name())
    }

    fn schema(&self) -> &Schema {
        self.base.schema()
    }

    fn channel_sizes(&self) -> Vec<usize> {
        self.base.channel_sizes()
    }

    fn encode_record(&self, record: &[u32], rng: &mut dyn RngCore) -> Result<Vec<u32>, MdrrError> {
        self.base.encode_record(record, rng)
    }

    /// Delegates to the base protocol's (tuned) batch encoder: the
    /// adjustment changes nothing client-side.
    fn encode_batch(
        &self,
        records: &mdrr_data::RecordsView<'_>,
        rng: &mut dyn RngCore,
        out: &mut [Vec<u32>],
    ) -> Result<(), MdrrError> {
        self.base.encode_batch(records, rng, out)
    }

    /// Delegates to the base protocol's (tuned) fused tally encoder.
    fn encode_tally(
        &self,
        records: &mdrr_data::RecordsView<'_>,
        rng: &mut dyn RngCore,
        tallies: &mut [Vec<u64>],
    ) -> Result<(), MdrrError> {
        self.base.encode_tally(records, rng, tallies)
    }

    fn decode_report(&self, codes: &[u32]) -> Result<Vec<u32>, MdrrError> {
        self.base.decode_report(codes)
    }

    fn release_from_counts(
        &self,
        _counts: &[Vec<u64>],
        _n_records: usize,
    ) -> Result<Box<dyn Release>, MdrrError> {
        Err(MdrrError::unsupported(
            "RR-Adjustment estimates from the randomized microdata (Algorithm 2 re-weights \
             records of Y); per-channel count vectors do not retain it — use \
             release_from_randomized or run instead",
        ))
    }

    fn release_from_randomized(&self, randomized: Dataset) -> Result<Box<dyn Release>, MdrrError> {
        let base_release = self.base.release_from_randomized(randomized)?;
        Ok(Box::new(self.adjust(&*base_release)?))
    }

    fn run(&self, dataset: &Dataset, rng: &mut dyn RngCore) -> Result<Box<dyn Release>, MdrrError> {
        let base_release = self.base.run(dataset, rng)?;
        Ok(Box::new(self.adjust(&*base_release)?))
    }

    fn epsilons(&self) -> Vec<f64> {
        // The adjustment only reads Y and the published estimates, so it
        // consumes no budget beyond the base protocol's (Section 5).
        self.base.epsilons()
    }
}

impl Release for AdjustedRelease {
    fn marginal(&self, attribute: usize) -> Result<Vec<f64>, MdrrError> {
        AdjustedRelease::marginal(self, attribute)
    }

    fn accountant(&self) -> &PrivacyAccountant {
        AdjustedRelease::accountant(self)
    }

    fn randomized(&self) -> Option<&Dataset> {
        Some(&self.randomized)
    }

    fn adjustment_targets(&self) -> Result<Vec<AdjustmentTarget>, MdrrError> {
        Err(MdrrError::unsupported(
            "an adjusted release already matches its targets; adjust the base release instead",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_data::{Attribute, AttributeKind, Schema};

    fn two_binary_schema() -> Schema {
        Schema::new(vec![
            Attribute::new("A", AttributeKind::Nominal, vec!["a1".into(), "a2".into()]).unwrap(),
            Attribute::new("B", AttributeKind::Nominal, vec!["b1".into(), "b2".into()]).unwrap(),
        ])
        .unwrap()
    }

    /// The randomized data set of the paper's Example 1: 10 records, joint
    /// empirical distribution (a1,b1)×4, (a2,b1)×2, (a1,b2)×0, (a2,b2)×4.
    fn example_1_dataset() -> Dataset {
        let mut records = Vec::new();
        for _ in 0..4 {
            records.push(vec![0, 0]);
        }
        for _ in 0..2 {
            records.push(vec![1, 0]);
        }
        for _ in 0..4 {
            records.push(vec![1, 1]);
        }
        Dataset::from_records(two_binary_schema(), &records).unwrap()
    }

    #[test]
    fn target_and_config_validation() {
        assert!(AdjustmentTarget::new(vec![], vec![1.0]).is_err());
        assert!(AdjustmentTarget::new(vec![0], vec![]).is_err());
        assert!(AdjustmentTarget::new(vec![0], vec![0.7, 0.7]).is_err());
        assert!(AdjustmentTarget::new(vec![0], vec![0.5, 0.5]).is_ok());
        assert!(AdjustmentConfig::new(0, 1e-9).is_err());
        assert!(AdjustmentConfig::new(10, 0.0).is_err());
        assert!(AdjustmentConfig::new(10, 1e-9).is_ok());
        let default = AdjustmentConfig::default();
        assert!(default.max_iterations > 0 && default.tolerance > 0.0);
    }

    #[test]
    fn adjustment_validates_inputs() {
        let ds = example_1_dataset();
        let config = AdjustmentConfig::default();
        assert!(rr_adjustment(&Dataset::empty(two_binary_schema()), &[], config).is_err());
        assert!(rr_adjustment(&ds, &[], config).is_err());
        // Distribution length must match the group's domain.
        let bad = AdjustmentTarget {
            attributes: vec![0],
            distribution: vec![0.3, 0.3, 0.4],
        };
        assert!(rr_adjustment(&ds, &[bad], config).is_err());
    }

    #[test]
    fn paper_example_1_reproduces_the_published_fixed_point() {
        // Example 1 of the paper: targets π̂¹ = π̂² = (1/2, 1/2); the
        // adjusted joint distribution converges to
        // Pr(a1,b1) = 1/2, Pr(a1,b2) = 0, Pr(a2,b1) = 0, Pr(a2,b2) = 1/2.
        //
        // Note the fixed point lies on the boundary of the simplex (the
        // weight of the (a2,b1) records tends to 0 only harmonically), so
        // convergence is slow; the tolerances below reflect 5 000 passes.
        let ds = example_1_dataset();
        let targets = vec![
            AdjustmentTarget::new(vec![0], vec![0.5, 0.5]).unwrap(),
            AdjustmentTarget::new(vec![1], vec![0.5, 0.5]).unwrap(),
        ];
        let release =
            rr_adjustment(&ds, &targets, AdjustmentConfig::new(5_000, 1e-12).unwrap()).unwrap();

        let p00 = release.frequency(&[(0, 0), (1, 0)]).unwrap();
        let p01 = release.frequency(&[(0, 0), (1, 1)]).unwrap();
        let p10 = release.frequency(&[(0, 1), (1, 0)]).unwrap();
        let p11 = release.frequency(&[(0, 1), (1, 1)]).unwrap();
        assert!((p00 - 0.5).abs() < 1e-3, "Pr(a1,b1) = {p00}");
        assert!(p01.abs() < 1e-3, "Pr(a1,b2) = {p01}");
        assert!(p10.abs() < 1e-3, "Pr(a2,b1) = {p10}");
        assert!((p11 - 0.5).abs() < 1e-3, "Pr(a2,b2) = {p11}");

        // Both marginals match the targets (up to the residual boundary mass).
        for attribute in 0..2 {
            let marginal = release.weighted_distribution(&[attribute]).unwrap();
            assert!((marginal[0] - 0.5).abs() < 1e-3);
            assert!((marginal[1] - 0.5).abs() < 1e-3);
        }
        assert!(release.iterations() > 0);
    }

    #[test]
    fn adjusted_distribution_beats_plain_independence_in_example_1() {
        // The paper contrasts Distribution (14) (adjusted) with
        // Distribution (15) (plain product of marginals = 1/4 everywhere):
        // the adjusted one is closer to the empirical distribution of Y.
        let ds = example_1_dataset();
        let targets = vec![
            AdjustmentTarget::new(vec![0], vec![0.5, 0.5]).unwrap(),
            AdjustmentTarget::new(vec![1], vec![0.5, 0.5]).unwrap(),
        ];
        let release =
            rr_adjustment(&ds, &targets, AdjustmentConfig::new(500, 1e-12).unwrap()).unwrap();
        let empirical = [0.4, 0.0, 0.2, 0.4]; // (a1,b1), (a1,b2), (a2,b1), (a2,b2)
        let adjusted = [
            release.frequency(&[(0, 0), (1, 0)]).unwrap(),
            release.frequency(&[(0, 0), (1, 1)]).unwrap(),
            release.frequency(&[(0, 1), (1, 0)]).unwrap(),
            release.frequency(&[(0, 1), (1, 1)]).unwrap(),
        ];
        let independent = [0.25, 0.25, 0.25, 0.25];
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum()
        };
        assert!(dist(&adjusted, &empirical) < dist(&independent, &empirical));
    }

    #[test]
    fn weights_sum_to_one_and_are_nonnegative() {
        let ds = example_1_dataset();
        let targets = vec![AdjustmentTarget::new(vec![0], vec![0.3, 0.7]).unwrap()];
        let release = rr_adjustment(&ds, &targets, AdjustmentConfig::default()).unwrap();
        assert!((release.weights().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(release.weights().iter().all(|&w| w >= 0.0));
        assert_eq!(release.record_count(), 10);
        // The single-attribute marginal matches the target.
        let marginal = release.weighted_distribution(&[0]).unwrap();
        assert!((marginal[0] - 0.3).abs() < 1e-9);
    }

    #[test]
    fn joint_group_targets_are_supported() {
        // A single target over both attributes jointly forces the weighted
        // joint distribution itself.
        let ds = example_1_dataset();
        let target_joint = vec![0.4, 0.1, 0.1, 0.4];
        // Cell (a1, b2) has target 0.1 but no record in Y, so that mass is
        // unreachable; the rest should still be matched proportionally.
        let targets = vec![AdjustmentTarget::new(vec![0, 1], target_joint).unwrap()];
        let release = rr_adjustment(&ds, &targets, AdjustmentConfig::default()).unwrap();
        let dist = release.weighted_distribution(&[0, 1]).unwrap();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(dist[1], 0.0, "unreachable cell keeps zero weight");
        assert!(
            dist[0] > dist[2],
            "reachable cells follow the target ordering"
        );
    }

    #[test]
    fn frequency_estimator_contract() {
        let ds = example_1_dataset();
        let targets = vec![AdjustmentTarget::new(vec![0], vec![0.5, 0.5]).unwrap()];
        let release = rr_adjustment(&ds, &targets, AdjustmentConfig::default()).unwrap();
        assert!((release.frequency(&[]).unwrap() - 1.0).abs() < 1e-9);
        assert!(release.frequency(&[(0, 5)]).is_err());
        assert!(release.frequency(&[(9, 0)]).is_err());
        assert!(release.frequency(&[(0, 0), (0, 1)]).is_err());
    }

    #[test]
    fn iteration_budget_is_respected() {
        let ds = example_1_dataset();
        let targets = vec![
            AdjustmentTarget::new(vec![0], vec![0.5, 0.5]).unwrap(),
            AdjustmentTarget::new(vec![1], vec![0.5, 0.5]).unwrap(),
        ];
        let release =
            rr_adjustment(&ds, &targets, AdjustmentConfig::new(1, 1e-15).unwrap()).unwrap();
        assert_eq!(release.iterations(), 1);
        assert!(!release.converged());
    }
}
