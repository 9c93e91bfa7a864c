//! Named regression tests for degenerate inputs.
//!
//! The ISSUE-1 bootstrap required the property suites to finally execute;
//! these tests pin the behavior of the degenerate corners those suites (and
//! manual probing) exercise — single-category attributes, empty datasets and
//! zero privacy budgets — so future refactors cannot silently regress them.

use mdrr::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// r = 1: a single-category attribute carries no information; every
/// constructor must either produce the trivial 1×1 matrix or reject the
/// request cleanly — never panic.
#[test]
fn single_category_matrices_are_trivial_or_rejected() {
    let mut rng = StdRng::seed_from_u64(1);

    match RRMatrix::direct(0.7, 1) {
        Ok(matrix) => {
            assert_eq!(matrix.size(), 1);
            assert_eq!(matrix.randomize(0, &mut rng).unwrap(), 0);
            // The only distribution on one category is the point mass.
            let estimate = estimate_from_reports(&matrix, &[0, 0, 0]).unwrap();
            assert_eq!(estimate, vec![1.0]);
        }
        Err(_) => { /* a clean rejection is equally acceptable */ }
    }

    if let Ok(matrix) = RRMatrix::from_epsilon(2.0, 1) {
        assert_eq!(matrix.size(), 1)
    }
}

/// ε = 0 is the degenerate "no privacy budget" corner: the mechanism is the
/// uniform response matrix (legal as a *randomizer* — it reveals nothing),
/// but it is singular, so inversion-based estimation must fail cleanly and
/// the iterative Bayesian update must converge to the uninformative uniform
/// distribution rather than fabricate NaNs.
#[test]
fn zero_epsilon_matrix_randomizes_but_cannot_be_inverted() {
    let matrix = RRMatrix::from_epsilon(0.0, 3).unwrap();
    assert_eq!(matrix.epsilon(), 0.0);

    let lambda = vec![0.5, 0.3, 0.2];
    // Equation (2) needs P⁻¹, which does not exist at ε = 0.
    assert!(matrix.estimate_true_distribution(&lambda).is_err());
    assert!(estimate_proper(&matrix, &lambda).is_err());
    // The IBU fixed point exists and is the uniform prior: ε = 0 reveals
    // nothing, so nothing can be learned.
    let ibu = iterative_bayesian_update(&matrix, &lambda, 200, 1e-12).unwrap();
    for frequency in &ibu {
        assert!((frequency - 1.0 / 3.0).abs() < 1e-9, "{ibu:?}");
    }

    // Negative budgets stay rejected.
    assert!(RRMatrix::from_epsilon(-1.0, 3).is_err());
    assert!(RRMatrix::from_epsilon(f64::NAN, 3).is_err());
}

/// A keep probability of exactly 1/r makes the uniform-keep matrix
/// uniform, hence singular; estimation must fail cleanly, not panic or
/// return NaNs.
#[test]
fn uniform_keep_at_one_over_r_cannot_be_inverted() {
    let matrix = match RRMatrix::uniform_keep(1.0 / 3.0, 3) {
        Ok(matrix) => matrix,
        // Rejecting the singular parameterisation outright is also fine.
        Err(_) => return,
    };
    let lambda = vec![1.0 / 3.0; 3];
    if let Ok(estimate) = matrix.estimate_true_distribution(&lambda) {
        assert!(
            estimate.iter().all(|x| x.is_finite()),
            "singular estimation must not fabricate NaNs: {estimate:?}"
        );
    }
}

/// Empty report columns must be rejected by the estimator entry point (a
/// frequency estimate from zero reports is undefined — 0/0).
#[test]
fn empty_report_column_is_rejected() {
    let matrix = RRMatrix::direct(0.7, 3).unwrap();
    assert!(estimate_from_reports(&matrix, &[]).is_err());
    assert!(empirical_distribution(&[], 3).is_err());
}

/// Empty datasets: schema-level operations keep working, frequency
/// estimates are rejected cleanly.
#[test]
fn empty_dataset_operations_do_not_panic() {
    let schema = adult_schema();
    let dataset = Dataset::empty(schema);
    assert_eq!(dataset.n_records(), 0);
    assert_eq!(dataset.n_attributes(), 8);
    // Marginal counts of nothing are all-zero …
    let counts = dataset.marginal_counts(0).unwrap();
    assert!(counts.iter().all(|&c| c == 0));
    // … and the marginal distribution falls back to uniform (the documented
    // empty-dataset convention) instead of dividing 0/0.
    let distribution = dataset.marginal_distribution(0).unwrap();
    assert!(distribution.iter().all(|p| p.is_finite()));
    assert!((distribution.iter().sum::<f64>() - 1.0).abs() < 1e-9);
}

/// Running a protocol over an empty dataset must fail cleanly instead of
/// dividing by the record count.
#[test]
fn protocols_reject_empty_datasets() {
    let mut rng = StdRng::seed_from_u64(5);
    let dataset = Dataset::empty(adult_schema());
    let protocol = RRClusters::independent(
        dataset.schema().clone(),
        &RandomizationLevel::KeepProbability(0.7),
    )
    .unwrap();
    assert!(protocol.run(&dataset, &mut rng).is_err());
}

/// Mixed-radix codec with cardinality-1 components: the joint domain of
/// `[1, 3, 1]` behaves exactly like the domain of `[3]`.
#[test]
fn joint_domain_tolerates_cardinality_one_components() {
    let domain = JointDomain::new(&[1, 3, 1]).unwrap();
    assert_eq!(domain.size(), 3);
    for code in 0..3 {
        let tuple = domain.decode(code).unwrap();
        assert_eq!(domain.encode(&tuple).unwrap(), code);
        assert_eq!(tuple[0], 0);
        assert_eq!(tuple[2], 0);
    }
}

/// The simplex projection of an all-non-positive vector (every coordinate
/// clamps to zero) must not return NaNs from the 0/0 rescale.
#[test]
fn simplex_projection_of_all_nonpositive_vector_is_clean() {
    match mdrr::math::project_clamp_rescale(&[-1.0, -2.0, 0.0]) {
        Ok(projection) => {
            assert!(
                mdrr::math::is_probability_vector(&projection, 1e-9),
                "{projection:?}"
            );
        }
        Err(_) => { /* a clean rejection is acceptable */ }
    }
    // The empty vector has no probability simplex at all.
    assert!(mdrr::math::project_clamp_rescale(&[]).is_err());
}

/// A privacy accountant with no recorded releases: total budget must be
/// zero under both composition rules, not a fold over an empty max.
#[test]
fn empty_accountant_reports_zero_budget() {
    let accountant = PrivacyAccountant::new();
    assert!(accountant.is_empty());
    assert_eq!(accountant.total(Composition::Sequential), 0.0);
    assert_eq!(accountant.total(Composition::Parallel), 0.0);
}
