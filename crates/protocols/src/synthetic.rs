//! Synthetic microdata re-creation from an estimated joint distribution.
//!
//! The paper points out (Sections 1 and 3.2) that once the joint
//! distribution of the true data has been estimated, anyone can re-create a
//! synthetic estimate of the original data set by repeating each value
//! combination as many times as dictated by its estimated frequency.  Two
//! variants are provided:
//!
//! * [`synthesize_deterministic`] — deterministic largest-remainder
//!   rounding of `n × π̂`, the direct reading of the paper;
//! * [`synthesize_sampling`] — i.i.d. sampling from `π̂`, useful when the
//!   target size is much larger than the domain or when several independent
//!   synthetic replicas are wanted.
//!
//! Both work over an arbitrary subset of attributes (usually a cluster or
//! the whole schema for small domains).

use crate::error::ProtocolError;
use mdrr_data::{Dataset, JointDomain, Schema};
use rand::Rng;

/// Deterministically synthesizes `n` records over the attributes at
/// `attributes` from an estimated joint distribution over their joint
/// domain: each combination appears `round(n · π̂)` times, with
/// largest-remainder correction so the total is exactly `n`.
///
/// The resulting dataset's schema is the projection of `schema` onto
/// `attributes` (in that order).
///
/// # Errors
/// Returns [`ProtocolError::InvalidConfiguration`] if the distribution
/// length does not match the joint domain, is not a probability vector, or
/// `n == 0`.
pub fn synthesize_deterministic(
    schema: &Schema,
    attributes: &[usize],
    distribution: &[f64],
    n: usize,
) -> Result<Dataset, ProtocolError> {
    let (projected, domain) = prepare(schema, attributes, distribution, n)?;

    // Largest-remainder (Hamilton) apportionment of n records.
    let mut floors = vec![0usize; distribution.len()];
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(distribution.len());
    let mut assigned = 0usize;
    for (cell, &p) in distribution.iter().enumerate() {
        let exact = p * n as f64;
        let floor = exact.floor() as usize;
        floors[cell] = floor;
        assigned += floor;
        remainders.push((exact - floor as f64, cell));
    }
    remainders.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut leftover = n.saturating_sub(assigned);
    for &(_, cell) in &remainders {
        if leftover == 0 {
            break;
        }
        floors[cell] += 1;
        leftover -= 1;
    }

    let mut dataset = Dataset::empty(projected);
    for (cell, &count) in floors.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let record = domain.decode(cell)?;
        for _ in 0..count {
            dataset.push_record(&record)?;
        }
    }
    Ok(dataset)
}

/// Synthesizes `n` records by i.i.d. sampling from the estimated joint
/// distribution.
///
/// # Errors
/// Same conditions as [`synthesize_deterministic`].
pub fn synthesize_sampling(
    schema: &Schema,
    attributes: &[usize],
    distribution: &[f64],
    n: usize,
    rng: &mut impl Rng,
) -> Result<Dataset, ProtocolError> {
    let (projected, domain) = prepare(schema, attributes, distribution, n)?;
    let mut dataset = Dataset::empty(projected);
    // Only cells with positive mass are ever chosen.  `prepare` accepts a
    // sum a little below one, so a draw can run past every cell; it then
    // lands on the last cell with mass, not on the last cell.
    let fallback = distribution
        .iter()
        .rposition(|&p| p > 0.0)
        .unwrap_or(distribution.len() - 1);
    for _ in 0..n {
        let mut draw: f64 = rng.gen();
        let mut chosen = fallback;
        for (cell, &p) in distribution.iter().enumerate() {
            draw -= p;
            if draw <= 0.0 && p > 0.0 {
                chosen = cell;
                break;
            }
        }
        dataset.push_record(&domain.decode(chosen)?)?;
    }
    Ok(dataset)
}

fn prepare(
    schema: &Schema,
    attributes: &[usize],
    distribution: &[f64],
    n: usize,
) -> Result<(Schema, JointDomain), ProtocolError> {
    if n == 0 {
        return Err(ProtocolError::config(
            "synthetic dataset size must be positive",
        ));
    }
    if attributes.is_empty() {
        return Err(ProtocolError::config("at least one attribute is required"));
    }
    let projected = schema.project(attributes)?;
    let domain = JointDomain::new(&projected.cardinalities())?;
    if domain.size() != distribution.len() {
        return Err(ProtocolError::config(format!(
            "distribution has {} probabilities but the joint domain has {} combinations",
            distribution.len(),
            domain.size()
        )));
    }
    if !mdrr_math::is_probability_vector(distribution, 1e-6) {
        return Err(ProtocolError::config(
            "distribution must be a probability vector",
        ));
    }
    Ok((projected, domain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_data::{Attribute, AttributeKind};
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
        ])
        .unwrap()
    }

    #[test]
    fn validation_errors() {
        let s = schema();
        let uniform = vec![1.0 / 6.0; 6];
        assert!(synthesize_deterministic(&s, &[0, 1], &uniform, 0).is_err());
        assert!(synthesize_deterministic(&s, &[], &uniform, 10).is_err());
        assert!(synthesize_deterministic(&s, &[0, 1], &[0.5, 0.5], 10).is_err());
        assert!(synthesize_deterministic(&s, &[0, 1], &[0.3; 6], 10).is_err());
        assert!(synthesize_deterministic(&s, &[0, 9], &uniform, 10).is_err());
    }

    #[test]
    fn deterministic_synthesis_matches_expected_counts() {
        let s = schema();
        // Distribution over the pair (A, B): put mass on three cells.
        let mut dist = vec![0.0; 6];
        dist[0] = 0.5; // (a, x)
        dist[4] = 0.3; // (b, y)
        dist[5] = 0.2; // (b, z)
        let ds = synthesize_deterministic(&s, &[0, 1], &dist, 10).unwrap();
        assert_eq!(ds.n_records(), 10);
        assert_eq!(ds.count_matching(&[(0, 0), (1, 0)]).unwrap(), 5);
        assert_eq!(ds.count_matching(&[(0, 1), (1, 1)]).unwrap(), 3);
        assert_eq!(ds.count_matching(&[(0, 1), (1, 2)]).unwrap(), 2);
    }

    #[test]
    fn deterministic_synthesis_handles_rounding_with_largest_remainder() {
        let s = schema();
        // 1/3 each over three cells with n = 10: counts must be 4/3/3 in
        // some order and always total 10.
        let mut dist = vec![0.0; 6];
        dist[0] = 1.0 / 3.0;
        dist[1] = 1.0 / 3.0;
        dist[2] = 1.0 / 3.0;
        let ds = synthesize_deterministic(&s, &[0, 1], &dist, 10).unwrap();
        assert_eq!(ds.n_records(), 10);
        let counts: Vec<u64> = (0..3)
            .map(|b| ds.count_matching(&[(0, 0), (1, b as u32)]).unwrap())
            .collect();
        assert_eq!(counts.iter().sum::<u64>(), 10);
        assert!(counts.iter().all(|&c| c == 3 || c == 4));
    }

    #[test]
    fn single_attribute_synthesis_uses_projected_schema() {
        let s = schema();
        let dist = vec![0.25, 0.75];
        let ds = synthesize_deterministic(&s, &[0], &dist, 8).unwrap();
        assert_eq!(ds.n_attributes(), 1);
        assert_eq!(ds.schema().attribute(0).unwrap().name(), "A");
        assert_eq!(ds.marginal_counts(0).unwrap(), vec![2, 6]);
    }

    #[test]
    fn sampling_synthesis_approximates_the_distribution() {
        let s = schema();
        let mut dist = vec![0.0; 6];
        dist[0] = 0.7;
        dist[5] = 0.3;
        let mut rng = StdRng::seed_from_u64(3);
        let ds = synthesize_sampling(&s, &[0, 1], &dist, 20_000, &mut rng).unwrap();
        assert_eq!(ds.n_records(), 20_000);
        let f0 = ds.count_matching(&[(0, 0), (1, 0)]).unwrap() as f64 / 20_000.0;
        let f5 = ds.count_matching(&[(0, 1), (1, 2)]).unwrap() as f64 / 20_000.0;
        assert!((f0 - 0.7).abs() < 0.02);
        assert!((f5 - 0.3).abs() < 0.02);
    }

    /// An RNG whose every draw is `raw`.
    struct Fixed(u64);

    impl rand::RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn sampling_synthesis_never_emits_a_zero_mass_cell() {
        let s = schema();
        // The largest draw runs past a sum just under one: it must land on
        // the last cell with mass, not on the empty last cell.
        let short = [0.5, 0.4999995, 0.0];
        let ds = synthesize_sampling(&s, &[1], &short, 4, &mut Fixed(u64::MAX)).unwrap();
        assert_eq!(ds.marginal_counts(0).unwrap(), vec![0, 4, 0]);
        // The zero draw must skip an empty first cell.
        let leading = [0.0, 0.5, 0.5];
        let ds = synthesize_sampling(&s, &[1], &leading, 4, &mut Fixed(0)).unwrap();
        assert_eq!(ds.marginal_counts(0).unwrap(), vec![0, 4, 0]);
    }

    #[test]
    fn synthesis_roundtrips_an_empirical_distribution() {
        // Estimate → synthesize → re-estimate gives back the original
        // distribution (up to rounding).
        let s = schema();
        let original = Dataset::from_records(
            s.clone(),
            &[vec![0, 0], vec![0, 0], vec![1, 2], vec![1, 1], vec![0, 2]],
        )
        .unwrap();
        let (_, dist) = original.joint_distribution(&[0, 1]).unwrap();
        let synthetic = synthesize_deterministic(&s, &[0, 1], &dist, 5).unwrap();
        let (_, dist_back) = synthetic.joint_distribution(&[0, 1]).unwrap();
        for (a, b) in dist.iter().zip(dist_back.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
