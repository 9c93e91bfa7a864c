//! The `dyn Protocol` surface against the pipelines it stands for, on the
//! synthetic Adult data set: the stacked RR-Adjustment protocol reproduces
//! the paper's manual base-release-then-Algorithm-2 pipeline, and a
//! protocol built from a `ProtocolSpec` releases the same estimate as the
//! concretely constructed one (≤ 1e-12, same seed).

use mdrr::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 31;
const TOLERANCE: f64 = 1e-12;

fn adult(n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(9);
    AdultSynthesizer::new(n).unwrap().generate(&mut rng)
}

/// All single-attribute and a sweep of pair assignments for a schema.
fn workload(schema: &Schema) -> Vec<Vec<(usize, u32)>> {
    let cards = schema.cardinalities();
    let mut queries = Vec::new();
    for (a, &ca) in cards.iter().enumerate() {
        for va in 0..ca as u32 {
            queries.push(vec![(a, va)]);
        }
        for (b, &cb) in cards.iter().enumerate().skip(a + 1) {
            queries.push(vec![(a, 0), (b, (cb - 1) as u32)]);
        }
    }
    queries
}

/// Asserts that two releases agree on every marginal and workload query.
fn assert_releases_match(
    schema: &Schema,
    concrete: &dyn Release,
    dynamic: &dyn Release,
    label: &str,
) {
    assert_eq!(concrete.record_count(), dynamic.record_count(), "{label}");
    for attribute in 0..schema.len() {
        let a = concrete.marginal(attribute).unwrap();
        let b = dynamic.marginal(attribute).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(
                (x - y).abs() <= TOLERANCE,
                "{label}: marginal {attribute} diverged ({x} vs {y})"
            );
        }
    }
    for query in workload(schema) {
        let x = concrete.frequency(&query).unwrap();
        let y = dynamic.frequency(&query).unwrap();
        assert!(
            (x - y).abs() <= TOLERANCE,
            "{label}: query {query:?} diverged ({x} vs {y})"
        );
    }
}

#[test]
fn dyn_adjustment_matches_the_manual_pipeline() {
    // The RR-Adjustment protocol (dyn, stacked on RR-Independent) must
    // reproduce the paper's manual pipeline: run the base protocol, derive
    // the per-attribute targets, run Algorithm 2.
    let dataset = adult(4_000);
    let config = AdjustmentConfig::new(25, 1e-9).unwrap();
    let base = RRClusters::independent(
        dataset.schema().clone(),
        &RandomizationLevel::KeepProbability(0.7),
    )
    .unwrap();

    let release = base
        .run(&dataset, &mut StdRng::seed_from_u64(SEED))
        .unwrap();
    let targets = release.adjustment_targets().unwrap();
    let manual = rr_adjustment(release.randomized().unwrap(), &targets, config).unwrap();

    let stacked = RRAdjustment::new(std::sync::Arc::new(base), config);
    let dynamic = stacked
        .run(&dataset, &mut StdRng::seed_from_u64(SEED))
        .unwrap();
    assert_releases_match(dataset.schema(), &manual, &*dynamic, "RR-Adjustment");
    // The stacked release carries the base ledger (one entry per
    // attribute); the manual standalone call leaves it empty.
    assert!(manual.accountant().is_empty());
    assert_eq!(dynamic.accountant().len(), dataset.schema().len());
}

#[test]
fn spec_built_protocols_match_concrete_construction() {
    // A protocol built from a (possibly deserialized) spec is the same
    // protocol as the concretely-constructed one: identical release for
    // the same seed.
    let dataset = adult(2_000);
    let level = RandomizationLevel::KeepProbability(0.6);
    let concrete = RRClusters::independent(dataset.schema().clone(), &level).unwrap();
    let from_spec = ProtocolSpec::independent(level)
        .build(dataset.schema())
        .unwrap();

    let a = concrete
        .run(&dataset, &mut StdRng::seed_from_u64(SEED))
        .unwrap();
    let b = from_spec
        .run(&dataset, &mut StdRng::seed_from_u64(SEED))
        .unwrap();
    assert_releases_match(dataset.schema(), &*a, &*b, "spec-built RR-Independent");
}
