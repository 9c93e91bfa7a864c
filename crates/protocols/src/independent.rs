//! Unit tests of Protocol 1, RR-Independent: `RRClusters::independent`
//! and `RRClusters::independent_from_matrices`, one singleton cluster per
//! attribute.

use crate::clusters::RRClusters;
use crate::error::MdrrError;
use crate::protocol::{Protocol, RandomizationLevel};
use mdrr_core::RRMatrix;
use mdrr_data::{Dataset, Schema};

mod tests {
    use super::*;
    use crate::estimator::{EmpiricalEstimator, FrequencyEstimator};
    use mdrr_data::{Attribute, AttributeKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new(
                "A",
                AttributeKind::Nominal,
                vec!["a".into(), "b".into(), "c".into()],
            )
            .unwrap(),
            Attribute::new("B", AttributeKind::Nominal, vec!["x".into(), "y".into()]).unwrap(),
        ])
        .unwrap()
    }

    /// Independent attributes so the RR-Independent joint estimate is
    /// asymptotically exact.
    fn independent_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::empty(schema());
        for _ in 0..n {
            let a = if rng.gen::<f64>() < 0.5 {
                0
            } else if rng.gen::<f64>() < 0.6 {
                1
            } else {
                2
            };
            let b = u32::from(rng.gen::<f64>() < 0.3);
            ds.push_record(&[a, b]).unwrap();
        }
        ds
    }

    #[test]
    fn configuration_validation() {
        assert!(
            RRClusters::independent(schema(), &RandomizationLevel::KeepProbability(1.5)).is_err()
        );
        assert!(
            RRClusters::independent(schema(), &RandomizationLevel::EpsilonPerAttribute(-1.0))
                .is_err()
        );
        assert!(
            RRClusters::independent(schema(), &RandomizationLevel::Epsilons(vec![1.0])).is_err()
        );
        assert!(
            RRClusters::independent(schema(), &RandomizationLevel::Epsilons(vec![1.0, 2.0]))
                .is_ok()
        );

        let wrong_size = vec![
            RRMatrix::identity(4).unwrap(),
            RRMatrix::identity(2).unwrap(),
        ];
        assert!(RRClusters::independent_from_matrices(schema(), wrong_size).is_err());
        let wrong_count = vec![RRMatrix::identity(3).unwrap()];
        assert!(RRClusters::independent_from_matrices(schema(), wrong_count).is_err());
    }

    #[test]
    fn run_validates_dataset() {
        let protocol =
            RRClusters::independent(schema(), &RandomizationLevel::KeepProbability(0.7)).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let empty = Dataset::empty(schema());
        assert!(protocol.run(&empty, &mut rng).is_err());

        let other_schema = Schema::new(vec![Attribute::indexed("Z", 2).unwrap()]).unwrap();
        let other = Dataset::from_records(other_schema, &[vec![0]]).unwrap();
        assert!(protocol.run(&other, &mut rng).is_err());
    }

    #[test]
    fn epsilons_match_matrices() {
        let protocol =
            RRClusters::independent(schema(), &RandomizationLevel::EpsilonPerAttribute(1.2))
                .unwrap();
        for eps in protocol.epsilons() {
            assert!((eps - 1.2).abs() < 1e-9);
        }
    }

    #[test]
    fn marginal_estimates_recover_the_truth() {
        let ds = independent_dataset(40_000, 1);
        let protocol =
            RRClusters::independent(schema(), &RandomizationLevel::KeepProbability(0.7)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let release = protocol.run(&ds, &mut rng).unwrap();

        for j in 0..2 {
            let truth = ds.marginal_distribution(j).unwrap();
            let estimate = release.marginal(j).unwrap();
            for (a, b) in estimate.iter().zip(truth.iter()) {
                assert!(
                    (a - b).abs() < 0.02,
                    "attribute {j}: {estimate:?} vs {truth:?}"
                );
            }
        }
        assert!(release.marginal(5).is_err());
        assert_eq!(release.accountant().len(), 2);
        assert_eq!(release.record_count(), 40_000);
    }

    #[test]
    fn joint_estimates_are_good_when_attributes_are_independent() {
        let ds = independent_dataset(40_000, 3);
        let protocol =
            RRClusters::independent(schema(), &RandomizationLevel::KeepProbability(0.7)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let release = protocol.run(&ds, &mut rng).unwrap();
        let truth = EmpiricalEstimator::new(&ds);

        for a in 0..3u32 {
            for b in 0..2u32 {
                let estimated = release.frequency(&[(0, a), (1, b)]).unwrap();
                let exact = truth.frequency(&[(0, a), (1, b)]).unwrap();
                assert!(
                    (estimated - exact).abs() < 0.02,
                    "cell ({a},{b}): {estimated} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn frequency_estimator_contract() {
        let ds = independent_dataset(2_000, 5);
        let protocol =
            RRClusters::independent(schema(), &RandomizationLevel::KeepProbability(0.9)).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let release = protocol.run(&ds, &mut rng).unwrap();

        assert!((release.frequency(&[]).unwrap() - 1.0).abs() < 1e-12);
        assert!(release.frequency(&[(0, 9)]).is_err());
        assert!(release.frequency(&[(7, 0)]).is_err());
        assert!(release.frequency(&[(0, 1), (0, 2)]).is_err());
        let count = release.count(&[(1, 0)]).unwrap();
        assert!(count >= 0.0 && count <= ds.n_records() as f64 + 1e-9);
    }

    #[test]
    fn streamed_counts_match_the_batch_estimate_exactly() {
        let ds = independent_dataset(5_000, 20);
        let protocol =
            RRClusters::independent(schema(), &RandomizationLevel::KeepProbability(0.6)).unwrap();

        // Client side: every record encodes into one report.
        let mut rng = StdRng::seed_from_u64(21);
        let view = ds.view();
        let mut row = Vec::new();
        let mut reports: Vec<Vec<u32>> = Vec::with_capacity(ds.n_records());
        for i in 0..ds.n_records() {
            view.read_record(i, &mut row).unwrap();
            reports.push(protocol.encode_record(&row, &mut rng).unwrap());
        }

        // Streaming collector: accumulate per-attribute counts only.
        let mut counts = vec![vec![0u64; 3], vec![0u64; 2]];
        for report in &reports {
            for (j, &code) in report.iter().enumerate() {
                counts[j][code as usize] += 1;
            }
        }
        let streamed = protocol
            .release_from_counts(&counts, reports.len())
            .unwrap();
        assert!(streamed.randomized().is_none());
        assert_eq!(streamed.record_count(), 5_000);

        // Batch collector: the same reports as a materialized dataset.
        let randomized = Dataset::from_records(schema(), &reports).unwrap();
        let batch = protocol.release_from_randomized(randomized).unwrap();
        assert!(batch.randomized().is_some());
        for j in 0..2 {
            assert_eq!(streamed.marginal(j).unwrap(), batch.marginal(j).unwrap());
        }
    }

    #[test]
    fn encode_record_and_counts_validate_input() {
        let protocol =
            RRClusters::independent(schema(), &RandomizationLevel::KeepProbability(0.6)).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(protocol.encode_record(&[0], &mut rng).is_err());
        assert!(protocol.encode_record(&[0, 5], &mut rng).is_err());
        assert!(protocol.encode_record(&[2, 1], &mut rng).is_ok());

        // Zero reports, wrong arity, wrong cardinality, inconsistent totals.
        assert!(protocol
            .release_from_counts(&[vec![0; 3], vec![0; 2]], 0)
            .is_err());
        assert!(protocol.release_from_counts(&[vec![4, 0, 0]], 4).is_err());
        assert!(protocol
            .release_from_counts(&[vec![4, 0], vec![4, 0]], 4)
            .is_err());
        assert!(protocol
            .release_from_counts(&[vec![4, 0, 0], vec![3, 0]], 4)
            .is_err());
        assert!(protocol
            .release_from_counts(&[vec![4, 0, 0], vec![3, 1]], 4)
            .is_ok());

        // Counts whose sum overflows a u64 are refused, not wrapped.
        let one = Schema::new(vec![Attribute::indexed("A", 2).unwrap()]).unwrap();
        let protocol =
            RRClusters::independent(one, &RandomizationLevel::KeepProbability(0.6)).unwrap();
        let err = protocol
            .release_from_counts(&[vec![u64::MAX, 2]], 1)
            .unwrap_err();
        assert!(
            matches!(&err, MdrrError::InvalidConfiguration { message } if message.contains("overflows")),
            "{err}"
        );
    }

    #[test]
    fn identity_matrices_reproduce_exact_marginals() {
        let ds = independent_dataset(1_000, 7);
        let matrices = vec![
            RRMatrix::identity(3).unwrap(),
            RRMatrix::identity(2).unwrap(),
        ];
        let protocol = RRClusters::independent_from_matrices(schema(), matrices).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let release = protocol.run(&ds, &mut rng).unwrap();
        for j in 0..2 {
            let truth = ds.marginal_distribution(j).unwrap();
            for (a, b) in release.marginal(j).unwrap().iter().zip(truth.iter()) {
                assert!((a - b).abs() < 1e-12);
            }
        }
        // Identity matrices offer no differential privacy.
        assert_eq!(release.accountant().total_sequential(), f64::INFINITY);
    }
}
