//! Cross-crate integration tests: the full paper pipelines on the synthetic
//! Adult data set, exercised through the umbrella crate's public API.

use mdrr::prelude::*;
use mdrr::protocols::{dependence_via_randomized_attributes, FrequencyEstimator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn adult(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    AdultSynthesizer::new(n).unwrap().generate(&mut rng)
}

#[test]
fn rr_independent_pipeline_recovers_every_marginal() {
    let dataset = adult(20_000, 1);
    let protocol = RRClusters::independent(
        dataset.schema().clone(),
        &RandomizationLevel::KeepProbability(0.7),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let release = protocol.run(&dataset, &mut rng).unwrap();

    for attribute in 0..dataset.n_attributes() {
        let truth = dataset.marginal_distribution(attribute).unwrap();
        let estimate = release.marginal(attribute).unwrap();
        let tv: f64 = truth
            .iter()
            .zip(estimate.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 2.0;
        assert!(tv < 0.03, "attribute {attribute}: total variation {tv}");
    }
    // One ε entry per attribute, all finite and positive.
    assert_eq!(release.accountant().len(), 8);
    assert!(release.accountant().total_sequential().is_finite());
    assert!(release.accountant().total_sequential() > 0.0);
}

#[test]
fn full_clustered_pipeline_dependences_clustering_release_adjustment() {
    let dataset = adult(20_000, 3);
    let schema = dataset.schema().clone();
    let p = 0.7;
    let mut rng = StdRng::seed_from_u64(4);

    // Section 4.1 dependence estimation feeds Algorithm 1…
    let dependences = dependence_via_randomized_attributes(&dataset, p, &mut rng).unwrap();
    let clustering = cluster_attributes(
        &dependences.matrix,
        &schema.cardinalities(),
        ClusteringConfig::new(50, 0.1).unwrap(),
    )
    .unwrap();
    assert_eq!(clustering.attribute_count(), 8);
    assert!(
        clustering
            .max_combinations(&schema.cardinalities())
            .unwrap()
            <= 50
    );

    // …RR-Clusters runs at the equivalent risk of RR-Independent…
    let level = RandomizationLevel::KeepProbability(p);
    let protocol = RRClusters::with_level(schema.clone(), clustering, &level).unwrap();
    let release = protocol.run(&dataset, &mut rng).unwrap();
    assert_eq!(
        release.randomized().unwrap().n_records(),
        dataset.n_records()
    );

    // …and RR-Adjustment re-weights the randomized data to match the
    // estimated per-cluster distributions.
    let targets = release.adjustment_targets().unwrap();
    let adjusted = rr_adjustment(
        release.randomized().unwrap(),
        &targets,
        AdjustmentConfig::default(),
    )
    .unwrap();
    assert!((adjusted.weights().iter().sum::<f64>() - 1.0).abs() < 1e-9);

    // Every marginal survives the whole pipeline.
    for attribute in 0..8 {
        let truth = dataset.marginal_distribution(attribute).unwrap();
        let estimate = release.marginal(attribute).unwrap();
        let tv: f64 = truth
            .iter()
            .zip(estimate.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 2.0;
        assert!(tv < 0.04, "attribute {attribute}: total variation {tv}");
    }

    // Count queries answered by all three releases stay close to the truth.
    let mut query_rng = StdRng::seed_from_u64(5);
    for _ in 0..5 {
        let query = CountQuery::random(&schema, 0.3, &mut query_rng).unwrap();
        let exact = query.true_count(&dataset).unwrap();
        for estimate in [
            query.estimated_count(&release).unwrap(),
            query.estimated_count(&adjusted).unwrap(),
        ] {
            let relative = (estimate - exact).abs() / exact.max(1.0);
            assert!(relative < 0.35, "estimate {estimate} vs exact {exact}");
        }
    }
}

#[test]
fn equivalent_risk_construction_matches_independent_budget_on_adult() {
    let schema = adult_schema();
    let p = 0.5;
    let independent =
        RRClusters::independent(schema.clone(), &RandomizationLevel::KeepProbability(p)).unwrap();
    let epsilons = independent.epsilons();

    let clustering = Clustering::new(
        vec![vec![0, 3], vec![1, 7], vec![2, 4, 6], vec![5]],
        schema.len(),
    )
    .unwrap();
    let clusters = RRClusters::with_equivalent_risk(schema, clustering, &epsilons).unwrap();

    let independent_total: f64 = epsilons.iter().sum();
    let clusters_total: f64 = clusters.matrices().iter().map(|m| m.epsilon()).sum();
    assert!(
        (independent_total - clusters_total).abs() < 1e-6,
        "independent {independent_total} vs clusters {clusters_total}"
    );
}

#[test]
fn analytic_error_bound_covers_the_measured_estimation_error() {
    // The Section 2.3 bound on the reported-distribution error must hold for
    // the empirical λ̂ of an actual randomized release (with the bound's own
    // confidence level).
    let dataset = adult(30_000, 7);
    let attribute = 1; // Education, 16 categories
    let matrix = RRMatrix::uniform_keep(0.7, 16).unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    let reports = mdrr::core::randomize_attribute(&dataset, attribute, &matrix, &mut rng).unwrap();
    let lambda_hat = empirical_distribution(&reports, 16).unwrap();

    // The expected reported distribution λ = Pᵀ π from the true marginals.
    let truth = dataset.marginal_distribution(attribute).unwrap();
    let lambda = matrix.expected_reported_distribution(&truth).unwrap();

    let bound = mdrr::core::absolute_error_bound(&lambda, dataset.n_records(), 0.05).unwrap();
    let worst_deviation = lambda_hat
        .iter()
        .zip(lambda.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(
        worst_deviation <= bound * 1.5,
        "measured deviation {worst_deviation} should be within the analytic bound {bound}"
    );
}

#[test]
fn joint_protocol_beats_independence_on_a_small_dependent_schema() {
    // On a schema small enough for RR-Joint, the joint estimate captures a
    // dependence that the independence assumption misses.
    let schema = Schema::new(vec![
        Attribute::new("A", AttributeKind::Nominal, vec!["0".into(), "1".into()]).unwrap(),
        Attribute::new(
            "B",
            AttributeKind::Nominal,
            vec!["0".into(), "1".into(), "2".into()],
        )
        .unwrap(),
    ])
    .unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let mut dataset = Dataset::empty(schema.clone());
    for i in 0..30_000u32 {
        let a = i % 2;
        let b = if i % 10 < 8 { a } else { 2 };
        dataset.push_record(&[a, b]).unwrap();
    }

    let joint = RRClusters::joint_with_keep_probability(schema.clone(), 0.7, None).unwrap();
    let joint_release = joint.run(&dataset, &mut rng).unwrap();
    let independent =
        RRClusters::independent(schema, &RandomizationLevel::KeepProbability(0.7)).unwrap();
    let independent_release = independent.run(&dataset, &mut rng).unwrap();

    let truth = EmpiricalEstimator::new(&dataset);
    let cell = [(0usize, 1u32), (1usize, 1u32)];
    let exact = truth.frequency(&cell).unwrap();
    let joint_error = (joint_release.frequency(&cell).unwrap() - exact).abs();
    let independent_error = (independent_release.frequency(&cell).unwrap() - exact).abs();
    assert!(
        joint_error < independent_error,
        "joint error {joint_error} should be below independence error {independent_error}"
    );
}

#[test]
fn synthetic_regeneration_preserves_the_released_distribution() {
    let dataset = adult(15_000, 11);
    let schema = dataset.schema().clone();
    let cluster = vec![2usize, 4, 6]; // Marital-status × Relationship × Sex
    let mut clusters = vec![cluster.clone()];
    clusters.extend(
        (0..schema.len())
            .filter(|a| !cluster.contains(a))
            .map(|a| vec![a]),
    );
    let clustering = Clustering::new(clusters, schema.len()).unwrap();

    let mut rng = StdRng::seed_from_u64(12);
    let level = RandomizationLevel::KeepProbability(0.8);
    let release = RRClusters::with_level(schema.clone(), clustering, &level)
        .unwrap()
        .run(&dataset, &mut rng)
        .unwrap();
    let estimated = release.adjustment_targets().unwrap().remove(0).distribution;
    let synthetic =
        mdrr::protocols::synthesize_deterministic(&schema, &cluster, &estimated, 15_000).unwrap();

    // The synthetic data reproduce the estimated joint distribution up to
    // rounding, and hence stay close to the true projected distribution.
    let (_, synthetic_joint) = synthetic.joint_distribution(&[0, 1, 2]).unwrap();
    let tv_to_estimate: f64 = synthetic_joint
        .iter()
        .zip(estimated.iter())
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / 2.0;
    assert!(tv_to_estimate < 1e-3, "rounding error {tv_to_estimate}");

    let (_, true_joint) = dataset.joint_distribution(&cluster).unwrap();
    let tv_to_truth: f64 = synthetic_joint
        .iter()
        .zip(true_joint.iter())
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / 2.0;
    assert!(
        tv_to_truth < 0.08,
        "distance to the true distribution {tv_to_truth}"
    );
}

#[test]
fn csv_roundtrip_of_a_randomized_release() {
    // A randomized release can be exported to CSV and re-imported without
    // loss — the release format a data collector would actually publish.
    let dataset = adult(500, 13);
    let protocol = RRClusters::independent(
        dataset.schema().clone(),
        &RandomizationLevel::KeepProbability(0.6),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(14);
    let release = protocol.run(&dataset, &mut rng).unwrap();

    let mut buffer = Vec::new();
    mdrr::data::csv::write_csv(release.randomized().unwrap(), &mut buffer).unwrap();
    let restored = mdrr::data::csv::read_csv(dataset.schema().clone(), buffer.as_slice()).unwrap();
    assert_eq!(&restored, release.randomized().unwrap());
}
