//! Property-based integration tests of the privacy-relevant invariants,
//! exercised through the umbrella crate.

use mdrr::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Expression (4) with equality: the optimal matrix built for ε reports
    /// exactly ε, for any domain size.
    #[test]
    fn epsilon_matrices_attain_their_budget(eps in 0.05f64..8.0, r in 2usize..500) {
        let matrix = RRMatrix::from_epsilon(eps, r).unwrap();
        prop_assert!((matrix.epsilon() - eps).abs() < 1e-7);
        prop_assert!(matrix.to_matrix().is_row_stochastic(1e-9));
    }

    /// The equivalent-risk construction of Section 6.3.2 preserves the total
    /// budget for any partition of any schema.
    #[test]
    fn equivalent_risk_preserves_total_budget(p in 0.05f64..0.95, split in 1usize..7) {
        let schema = adult_schema();
        let independent = RRClusters::independent(schema.clone(), &RandomizationLevel::KeepProbability(p)).unwrap();
        let epsilons = independent.epsilons();
        // Deterministic partition controlled by `split`: attributes i with
        // i % split == k share a cluster.
        let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); split];
        for attribute in 0..schema.len() {
            clusters[attribute % split].push(attribute);
        }
        clusters.retain(|c| !c.is_empty());
        let clustering = Clustering::new(clusters, schema.len()).unwrap();
        let protocol = RRClusters::with_equivalent_risk(schema, clustering, &epsilons).unwrap();
        let total_independent: f64 = epsilons.iter().sum();
        let total_clusters: f64 = protocol.matrices().iter().map(|m| m.epsilon()).sum();
        prop_assert!((total_independent - total_clusters).abs() < 1e-6);
    }

    /// The randomized output of a party never depends on other parties:
    /// randomizing the same record with the same RNG state yields the same
    /// response regardless of what the rest of the dataset contains.
    #[test]
    fn local_randomization_is_independent_of_other_records(seed in any::<u64>(), value in 0u32..16) {
        let matrix = RRMatrix::uniform_keep(0.5, 16).unwrap();
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let a = matrix.randomize(value, &mut rng_a).unwrap();
        let b = matrix.randomize(value, &mut rng_b).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Sequential composition is additive and parallel composition takes the
    /// maximum, whatever the individual budgets are.
    #[test]
    fn composition_rules(budgets in prop::collection::vec(0.0f64..5.0, 1..10)) {
        let mut accountant = PrivacyAccountant::new();
        for (index, &epsilon) in budgets.iter().enumerate() {
            accountant.record(format!("release {index}"), epsilon);
        }
        let sum: f64 = budgets.iter().sum();
        let max: f64 = budgets.iter().cloned().fold(0.0, f64::max);
        prop_assert!((accountant.total(Composition::Sequential) - sum).abs() < 1e-9);
        prop_assert!((accountant.total(Composition::Parallel) - max).abs() < 1e-9);
    }

    /// RR-Adjustment is a post-processing step: it never changes the
    /// randomized records, only their weights, and the weights always form a
    /// probability vector.
    #[test]
    fn adjustment_is_pure_post_processing(seed in any::<u64>(), n in 50usize..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dataset = AdultSynthesizer::new(n).unwrap().generate(&mut rng);
        let protocol = RRClusters::independent(dataset.schema().clone(), &RandomizationLevel::KeepProbability(0.6)).unwrap();
        let release = protocol.run(&dataset, &mut rng).unwrap();
        let targets = release.adjustment_targets().unwrap();
        let adjusted = rr_adjustment(release.randomized().unwrap(), &targets, AdjustmentConfig::default()).unwrap();
        prop_assert_eq!(adjusted.randomized(), release.randomized().unwrap());
        prop_assert!((adjusted.weights().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(adjusted.weights().iter().all(|&w| w >= 0.0));
    }
}
