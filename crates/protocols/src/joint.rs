//! Unit tests of Protocol 2, RR-Joint: `RRClusters::joint` and its
//! siblings, one cluster holding every attribute under the joint-domain
//! cap.

use crate::clusters::RRClusters;
use crate::protocol::Protocol;
use mdrr_data::{Dataset, Schema};

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
        assert!(RRClusters::joint_with_epsilon(schema(), 2.0, Some(5)).is_err());
        assert!(RRClusters::joint_with_epsilon(schema(), 2.0, Some(6)).is_ok());
        assert!(RRClusters::joint_with_keep_probability(schema(), 0.5, None).is_ok());
        assert!(RRClusters::joint_with_keep_probability(schema(), 1.5, None).is_err());
        assert!(RRClusters::joint_with_epsilon(schema(), -1.0, None).is_err());
    }

    #[test]
    fn adult_sized_schema_is_rejected_by_default_cap() {
        let adult = mdrr_data::adult_schema();
        // 1 814 400 combinations exceed the default 1 000 000 cap.
        assert!(RRClusters::joint_with_epsilon(adult, 2.0, None).is_err());
    }

    #[test]
    fn run_validates_dataset() {
        let protocol = RRClusters::joint_with_keep_probability(schema(), 0.7, None).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(protocol.run(&Dataset::empty(schema()), &mut rng).is_err());
        let other_schema = Schema::new(vec![Attribute::indexed("Z", 2).unwrap()]).unwrap();
        let other = Dataset::from_records(other_schema, &[vec![0]]).unwrap();
        assert!(protocol.run(&other, &mut rng).is_err());
    }

    #[test]
    fn joint_estimate_captures_dependence() {
        let ds = dependent_dataset(40_000, 1);
        let protocol = RRClusters::joint_with_keep_probability(schema(), 0.7, None).unwrap();
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
        let protocol = RRClusters::joint_with_epsilon(schema(), 3.0, None).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let release = protocol.run(&ds, &mut rng).unwrap();
        let randomized = release.randomized().unwrap();
        assert_eq!(randomized.n_records(), 500);
        assert_eq!(randomized.schema(), ds.schema());
    }

    #[test]
    fn streamed_counts_match_the_batch_estimate_exactly() {
        let ds = dependent_dataset(4_000, 9);
        let protocol = RRClusters::joint_with_keep_probability(schema(), 0.6, None).unwrap();

        let mut rng = StdRng::seed_from_u64(10);
        let view = ds.view();
        let mut row = Vec::new();
        let mut reports: Vec<u32> = Vec::with_capacity(ds.n_records());
        for i in 0..ds.n_records() {
            view.read_record(i, &mut row).unwrap();
            reports.push(protocol.encode_record(&row, &mut rng).unwrap()[0]);
        }

        let mut counts = vec![vec![0u64; protocol.domains()[0].size()]];
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
                .push_record(&protocol.domains()[0].decode(code as usize).unwrap())
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
        let protocol = RRClusters::joint_with_keep_probability(schema(), 0.6, None).unwrap();
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
        let protocol = RRClusters::joint_with_keep_probability(schema(), 0.9, None).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let release = protocol.run(&ds, &mut rng).unwrap();
        assert!((release.frequency(&[]).unwrap() - 1.0).abs() < 1e-9);
        assert!(release.frequency(&[(0, 7)]).is_err());
        assert!(release.frequency(&[(9, 0)]).is_err());
        assert!(release.frequency(&[(1, 0), (1, 1)]).is_err());
    }
}
