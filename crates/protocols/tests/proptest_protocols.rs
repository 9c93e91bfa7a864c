//! Property-based tests for the protocol layer.

use mdrr_data::{Attribute, AttributeKind, Dataset, Schema};
use mdrr_protocols::{
    cluster_attributes, rr_adjustment, AdjustmentConfig, Clustering, ClusteringConfig,
    DependenceMatrix, FrequencyEstimator, Protocol, RRClusters, RandomizationLevel,
    SecureSumSession,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small schema with 3 attributes of cardinalities 2–4.
fn schema_strategy() -> impl Strategy<Value = Schema> {
    prop::collection::vec(2usize..5, 3..4).prop_map(|cards| {
        let attrs = cards
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                Attribute::new(
                    format!("A{i}"),
                    AttributeKind::Nominal,
                    (0..c).map(|k| k.to_string()).collect(),
                )
                .unwrap()
            })
            .collect();
        Schema::new(attrs).unwrap()
    })
}

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (schema_strategy(), 30usize..200, any::<u64>()).prop_map(|(schema, n, seed)| {
        let cards = schema.cardinalities();
        let mut ds = Dataset::empty(schema);
        let mut state = seed | 1;
        for _ in 0..n {
            let record: Vec<u32> = cards
                .iter()
                .map(|&c| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % c as u64) as u32
                })
                .collect();
            ds.push_record(&record).unwrap();
        }
        ds
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn independent_release_marginals_are_distributions(ds in dataset_strategy(),
                                                        p in 0.2f64..0.95,
                                                        seed in any::<u64>()) {
        let protocol = RRClusters::independent(ds.schema().clone(), &RandomizationLevel::KeepProbability(p)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let release = protocol.run(&ds, &mut rng).unwrap();
        for j in 0..ds.n_attributes() {
            let marginal = release.marginal(j).unwrap();
            prop_assert!(mdrr_math::is_probability_vector(&marginal, 1e-9));
        }
        // Frequencies of assignments are in [0, 1] and multiply per attribute.
        let f0 = release.frequency(&[(0, 0)]).unwrap();
        let f1 = release.frequency(&[(1, 0)]).unwrap();
        let joint = release.frequency(&[(0, 0), (1, 0)]).unwrap();
        prop_assert!((joint - f0 * f1).abs() < 1e-12);
    }

    #[test]
    fn clusters_release_frequencies_are_probabilities(ds in dataset_strategy(),
                                                       p in 0.3f64..0.95,
                                                       seed in any::<u64>()) {
        let m = ds.n_attributes();
        let clustering = Clustering::new(vec![vec![0, 1], (2..m).collect()], m).unwrap();
        let protocol = RRClusters::with_keep_probability(ds.schema().clone(), clustering, p).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let release = protocol.run(&ds, &mut rng).unwrap();
        for attribute in 0..m {
            let card = ds.schema().attribute(attribute).unwrap().cardinality();
            let mut total = 0.0f64;
            for code in 0..card as u32 {
                let f = release.frequency(&[(attribute, code)]).unwrap();
                prop_assert!((0.0..=1.0 + 1e-9).contains(&f));
                total += f;
            }
            prop_assert!((total - 1.0).abs() < 1e-6);
        }
        prop_assert_eq!(release.randomized().unwrap().n_records(), ds.n_records());
    }

    #[test]
    fn clustering_always_partitions_and_respects_tv(m in 3usize..8,
                                                     seed in any::<u64>(),
                                                     tv in 4usize..200,
                                                     td in 0.0f64..1.0) {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let dep = DependenceMatrix::from_fn(m, |_, _| next()).unwrap();
        let cards: Vec<usize> = (0..m).map(|i| 2 + (i % 4)).collect();
        let config = ClusteringConfig::new(tv, td).unwrap();
        let clustering = cluster_attributes(&dep, &cards, config).unwrap();
        prop_assert_eq!(clustering.attribute_count(), m);
        // Every cluster respects Tv unless it is a singleton (singletons may
        // exceed Tv on their own; the algorithm never merges beyond Tv).
        for cluster in clustering.clusters() {
            if cluster.len() > 1 {
                let product: usize = cluster.iter().map(|&a| cards[a]).product();
                prop_assert!(product <= tv);
            }
        }
    }

    #[test]
    fn adjustment_preserves_total_weight_and_matches_last_target(ds in dataset_strategy(),
                                                                  seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let protocol = RRClusters::independent(ds.schema().clone(), &RandomizationLevel::KeepProbability(0.7)).unwrap();
        let release = protocol.run(&ds, &mut rng).unwrap();
        let targets = release.adjustment_targets().unwrap();
        let adjusted = rr_adjustment(release.randomized().unwrap(), &targets, AdjustmentConfig::new(60, 1e-10).unwrap()).unwrap();
        let total: f64 = adjusted.weights().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(adjusted.weights().iter().all(|&w| w >= 0.0));
        // The weighted marginal of the last-adjusted attribute is close to
        // its target whenever the target is reachable.
        let last = ds.n_attributes() - 1;
        let weighted = adjusted.weighted_distribution(&[last]).unwrap();
        let target = release.marginal(last).unwrap();
        let reachable = weighted.iter().zip(target.iter()).all(|(w, t)| *t == 0.0 || *w > 0.0);
        if reachable {
            for (w, t) in weighted.iter().zip(target.iter()) {
                prop_assert!((w - t).abs() < 1e-3, "weighted {w} vs target {t}");
            }
        }
    }

    #[test]
    fn secure_sum_is_exact_for_any_indicator_vector(indicators in prop::collection::vec(any::<bool>(), 1..60),
                                                     seed in any::<u64>()) {
        let session = SecureSumSession::new(indicators.len()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let expected = indicators.iter().filter(|&&b| b).count() as u64;
        prop_assert_eq!(session.sum_indicators(&indicators, &mut rng).unwrap(), expected);
    }
}
