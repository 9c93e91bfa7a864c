//! Count-query workload (Section 6.5 of the paper).
//!
//! The evaluation measures the error of *count queries* over subsets `S` of
//! the data domain.  A subset is generated by
//!
//! 1. picking two distinct attributes at random,
//! 2. picking a proportion `σ` (the *coverage*) of all value combinations
//!    of those two attributes, uniformly at random;
//!
//! `X_S` is the true number of records falling in `S` and `Y_S` the number
//! estimated from a release.  The paper reports the absolute error
//! `|Y_S − X_S|` and the relative error `|Y_S − X_S| / X_S` (Expression
//! (16)), as medians over many runs.

use mdrr_data::{Dataset, Schema};
use mdrr_protocols::{FrequencyEstimator, ProtocolError};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A count query: the union of full-value combinations over a fixed pair of
/// attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountQuery {
    /// The two attribute indices defining the query.
    pub attributes: (usize, usize),
    /// The value combinations included in `S` (codes of the first and
    /// second attribute respectively).
    pub combinations: Vec<(u32, u32)>,
}

impl CountQuery {
    /// Generates a random query over two random distinct attributes with
    /// coverage `sigma` (at least one combination is always included).
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfiguration`] if the schema has
    /// fewer than two attributes or `sigma ∉ (0, 1]`.
    pub fn random(schema: &Schema, sigma: f64, rng: &mut impl Rng) -> Result<Self, ProtocolError> {
        if schema.len() < 2 {
            return Err(ProtocolError::config(
                "count queries need at least two attributes",
            ));
        }
        if !(sigma > 0.0 && sigma <= 1.0) {
            return Err(ProtocolError::config(format!(
                "coverage must lie in (0, 1], got {sigma}"
            )));
        }
        let first = rng.gen_range(0..schema.len());
        let mut second = rng.gen_range(0..schema.len() - 1);
        if second >= first {
            second += 1;
        }
        Self::random_over(schema, first, second, sigma, rng)
    }

    /// Generates a random query with coverage `sigma` over an explicit pair
    /// of attributes.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfiguration`] for equal or
    /// out-of-range attributes or an invalid `sigma`.
    pub fn random_over(
        schema: &Schema,
        first: usize,
        second: usize,
        sigma: f64,
        rng: &mut impl Rng,
    ) -> Result<Self, ProtocolError> {
        if first == second {
            return Err(ProtocolError::config(
                "the two query attributes must be distinct",
            ));
        }
        if !(sigma > 0.0 && sigma <= 1.0) {
            return Err(ProtocolError::config(format!(
                "coverage must lie in (0, 1], got {sigma}"
            )));
        }
        let card_a = schema.attribute(first)?.cardinality();
        let card_b = schema.attribute(second)?.cardinality();
        let total = card_a * card_b;
        let take = ((sigma * total as f64).round() as usize).clamp(1, total);

        let mut all: Vec<(u32, u32)> = Vec::with_capacity(total);
        for a in 0..card_a as u32 {
            for b in 0..card_b as u32 {
                all.push((a, b));
            }
        }
        all.shuffle(rng);
        all.truncate(take);
        Ok(CountQuery {
            attributes: (first, second),
            combinations: all,
        })
    }

    /// Number of value combinations in `S`.
    pub fn len(&self) -> usize {
        self.combinations.len()
    }

    /// Whether `S` is empty (never true for generated queries).
    pub fn is_empty(&self) -> bool {
        self.combinations.is_empty()
    }

    /// The true count `X_S` on a data set.
    ///
    /// # Errors
    /// Propagates dataset access errors.
    pub fn true_count(&self, dataset: &Dataset) -> Result<f64, ProtocolError> {
        let mut count = 0u64;
        for &(a, b) in &self.combinations {
            count += dataset.count_matching(&[(self.attributes.0, a), (self.attributes.1, b)])?;
        }
        Ok(count as f64)
    }

    /// The estimated count `Y_S` from any release implementing
    /// [`FrequencyEstimator`].
    ///
    /// # Errors
    /// Propagates estimator errors.
    pub fn estimated_count(
        &self,
        estimator: &impl FrequencyEstimator,
    ) -> Result<f64, ProtocolError> {
        let mut count = 0.0;
        for &(a, b) in &self.combinations {
            count += estimator.count(&[(self.attributes.0, a), (self.attributes.1, b)])?;
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_data::{Attribute, AttributeKind};
    use mdrr_protocols::EmpiricalEstimator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    fn dataset() -> Dataset {
        Dataset::from_records(
            schema(),
            &[
                vec![0, 0, 0],
                vec![0, 1, 1],
                vec![1, 2, 0],
                vec![1, 2, 1],
                vec![0, 2, 0],
                vec![1, 0, 1],
            ],
        )
        .unwrap()
    }

    #[test]
    fn generation_validates_inputs() {
        let mut rng = StdRng::seed_from_u64(0);
        let one_attr = Schema::new(vec![Attribute::indexed("A", 3).unwrap()]).unwrap();
        assert!(CountQuery::random(&one_attr, 0.5, &mut rng).is_err());
        assert!(CountQuery::random(&schema(), 0.0, &mut rng).is_err());
        assert!(CountQuery::random(&schema(), 1.5, &mut rng).is_err());
        assert!(CountQuery::random_over(&schema(), 1, 1, 0.5, &mut rng).is_err());
        assert!(CountQuery::random_over(&schema(), 0, 9, 0.5, &mut rng).is_err());
    }

    #[test]
    fn coverage_controls_the_number_of_combinations() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = schema();
        // Attributes 0 and 1 have 2 × 3 = 6 combinations.
        let half = CountQuery::random_over(&s, 0, 1, 0.5, &mut rng).unwrap();
        assert_eq!(half.len(), 3);
        let full = CountQuery::random_over(&s, 0, 1, 1.0, &mut rng).unwrap();
        assert_eq!(full.len(), 6);
        // Tiny coverage still selects at least one combination.
        let tiny = CountQuery::random_over(&s, 0, 1, 0.01, &mut rng).unwrap();
        assert_eq!(tiny.len(), 1);
        assert!(!tiny.is_empty());
    }

    #[test]
    fn combinations_are_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let q = CountQuery::random(&schema(), 0.9, &mut rng).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for &(a, b) in &q.combinations {
            assert!(seen.insert((a, b)), "duplicate combination");
            let card_a = schema().attribute(q.attributes.0).unwrap().cardinality() as u32;
            let card_b = schema().attribute(q.attributes.1).unwrap().cardinality() as u32;
            assert!(a < card_a && b < card_b);
        }
        assert_ne!(q.attributes.0, q.attributes.1);
    }

    #[test]
    fn true_count_matches_manual_counting() {
        let ds = dataset();
        let q = CountQuery {
            attributes: (0, 1),
            combinations: vec![(1, 2), (0, 0)],
        };
        // (A=1, B=2) appears twice, (A=0, B=0) once.
        assert_eq!(q.true_count(&ds).unwrap(), 3.0);
    }

    #[test]
    fn full_coverage_counts_every_record() {
        let ds = dataset();
        let mut rng = StdRng::seed_from_u64(3);
        let q = CountQuery::random_over(ds.schema(), 0, 1, 1.0, &mut rng).unwrap();
        assert_eq!(q.true_count(&ds).unwrap(), ds.n_records() as f64);
    }

    #[test]
    fn estimated_count_on_the_truth_is_exact() {
        let ds = dataset();
        let estimator = EmpiricalEstimator::new(&ds);
        let mut rng = StdRng::seed_from_u64(4);
        for sigma in [0.2, 0.5, 1.0] {
            let q = CountQuery::random(ds.schema(), sigma, &mut rng).unwrap();
            let exact = q.true_count(&ds).unwrap();
            let estimated = q.estimated_count(&estimator).unwrap();
            assert!((exact - estimated).abs() < 1e-9);
        }
    }
}
