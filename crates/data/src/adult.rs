//! Synthetic Adult data set.
//!
//! The paper's experiments (Section 6) use the 8 categorical attributes of
//! the UCI *Adult* census data set: Work-class (9 categories), Education
//! (16), Marital-status (7), Occupation (15), Relationship (6), Race (5),
//! Sex (2) and Income (2) — a joint domain of 1 814 400 combinations over
//! 32 561 records.  The real file is not redistributed with this
//! repository, so this module provides:
//!
//! * [`adult_schema`] — the exact schema (names, cardinalities, category
//!   labels, ordinal/nominal kinds) of the categorical Adult attributes, so
//!   the real file can be loaded through [`crate::csv::read_csv`] if
//!   available;
//! * [`AdultSynthesizer`] — a seeded generator that samples records from a
//!   small Bayesian network over the same schema.  The network induces the
//!   dependence structure the experiments rely on: a strong
//!   Education → Occupation → Income chain, a strong
//!   Sex ↔ Marital-status ↔ Relationship triangle, a moderate
//!   Occupation → Work-class link, and a Race attribute that is nearly
//!   independent of everything else.  The clustering and adjustment
//!   protocols only care about (i) the attribute cardinalities, (ii) the
//!   existence of strongly and weakly dependent pairs and (iii) the ratio of
//!   the record count to the joint-domain size, all of which this generator
//!   reproduces (see DESIGN.md §4 for the full substitution argument).

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::schema::{Attribute, AttributeKind, Schema};
use rand::Rng;

/// Number of records in the original Adult data set, as used by the paper.
pub const ADULT_RECORD_COUNT: usize = 32_561;

/// Indices of the Adult attributes inside [`adult_schema`], in schema order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdultAttribute {
    /// Work-class, 9 categories.
    WorkClass = 0,
    /// Education, 16 categories (ordered by attainment).
    Education = 1,
    /// Marital-status, 7 categories.
    MaritalStatus = 2,
    /// Occupation, 15 categories.
    Occupation = 3,
    /// Relationship, 6 categories.
    Relationship = 4,
    /// Race, 5 categories.
    Race = 5,
    /// Sex, 2 categories.
    Sex = 6,
    /// Income, 2 categories.
    Income = 7,
}

impl AdultAttribute {
    /// The attribute's index in [`adult_schema`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The schema of the 8 categorical Adult attributes used by the paper, with
/// the original category labels (Education ordered by attainment so its
/// ordinal kind is meaningful).
pub fn adult_schema() -> Schema {
    let work_class = Attribute::new(
        "Work-class",
        AttributeKind::Nominal,
        to_strings(&[
            "Private",
            "Self-emp-not-inc",
            "Self-emp-inc",
            "Federal-gov",
            "Local-gov",
            "State-gov",
            "Without-pay",
            "Never-worked",
            "Unknown",
        ]),
    )
    .expect("static attribute definition is valid");

    let education = Attribute::new(
        "Education",
        AttributeKind::Ordinal,
        to_strings(&[
            "Preschool",
            "1st-4th",
            "5th-6th",
            "7th-8th",
            "9th",
            "10th",
            "11th",
            "12th",
            "HS-grad",
            "Some-college",
            "Assoc-voc",
            "Assoc-acdm",
            "Bachelors",
            "Masters",
            "Prof-school",
            "Doctorate",
        ]),
    )
    .expect("static attribute definition is valid");

    let marital = Attribute::new(
        "Marital-status",
        AttributeKind::Nominal,
        to_strings(&[
            "Never-married",
            "Married-civ-spouse",
            "Divorced",
            "Separated",
            "Widowed",
            "Married-spouse-absent",
            "Married-AF-spouse",
        ]),
    )
    .expect("static attribute definition is valid");

    let occupation = Attribute::new(
        "Occupation",
        AttributeKind::Nominal,
        to_strings(&[
            "Priv-house-serv",
            "Handlers-cleaners",
            "Other-service",
            "Farming-fishing",
            "Machine-op-inspct",
            "Transport-moving",
            "Craft-repair",
            "Adm-clerical",
            "Sales",
            "Protective-serv",
            "Tech-support",
            "Armed-Forces",
            "Exec-managerial",
            "Prof-specialty",
            "Unknown",
        ]),
    )
    .expect("static attribute definition is valid");

    let relationship = Attribute::new(
        "Relationship",
        AttributeKind::Nominal,
        to_strings(&[
            "Husband",
            "Wife",
            "Own-child",
            "Not-in-family",
            "Other-relative",
            "Unmarried",
        ]),
    )
    .expect("static attribute definition is valid");

    let race = Attribute::new(
        "Race",
        AttributeKind::Nominal,
        to_strings(&[
            "White",
            "Black",
            "Asian-Pac-Islander",
            "Amer-Indian-Eskimo",
            "Other",
        ]),
    )
    .expect("static attribute definition is valid");

    let sex = Attribute::new(
        "Sex",
        AttributeKind::Nominal,
        to_strings(&["Male", "Female"]),
    )
    .expect("static attribute definition is valid");

    let income = Attribute::new(
        "Income",
        AttributeKind::Ordinal,
        to_strings(&["<=50K", ">50K"]),
    )
    .expect("static attribute definition is valid");

    Schema::new(vec![
        work_class,
        education,
        marital,
        occupation,
        relationship,
        race,
        sex,
        income,
    ])
    .expect("static schema definition is valid")
}

/// Seeded generator of synthetic Adult-like records.
#[derive(Debug, Clone)]
pub struct AdultSynthesizer {
    n: usize,
}

impl AdultSynthesizer {
    /// Generator for `n` records.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidParameter`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self, DataError> {
        if n == 0 {
            return Err(DataError::invalid("n", "record count must be positive"));
        }
        Ok(AdultSynthesizer { n })
    }

    /// Generator sized like the original Adult data set (32 561 records).
    pub fn paper_sized() -> Self {
        AdultSynthesizer {
            n: ADULT_RECORD_COUNT,
        }
    }

    /// Number of records the generator will produce.
    pub fn record_count(&self) -> usize {
        self.n
    }

    /// Samples the full synthetic data set.
    pub fn generate(&self, rng: &mut impl Rng) -> Dataset {
        let schema = adult_schema();
        let mut columns: Vec<Vec<u32>> = vec![Vec::with_capacity(self.n); schema.len()];
        for _ in 0..self.n {
            let record = sample_record(rng);
            for (col, &v) in columns.iter_mut().zip(record.iter()) {
                col.push(v);
            }
        }
        Dataset::from_columns(schema, columns).expect("generated records always fit the schema")
    }

    /// Samples a single synthetic record (valid for [`adult_schema`]) —
    /// the streaming counterpart of [`AdultSynthesizer::generate`]: a
    /// simulator can draw one client at a time without materializing the
    /// whole data set.
    pub fn sample_record(&self, rng: &mut impl Rng) -> Vec<u32> {
        sample_record(rng).to_vec()
    }
}

/// Samples one record as `[work_class, education, marital, occupation,
/// relationship, race, sex, income]` codes.
fn sample_record(rng: &mut impl Rng) -> [u32; 8] {
    // Sex: roughly the Adult split (about two thirds male).
    let sex = sample_weighted(rng, &[0.67, 0.33]);

    // Education marginal: concentrated on HS-grad / Some-college /
    // Bachelors, thin tails at the extremes, like the real data.
    let education = sample_weighted(
        rng,
        &[
            0.002, 0.005, 0.010, 0.020, 0.016, 0.028, 0.036, 0.013, 0.322, 0.224, 0.042, 0.033,
            0.164, 0.054, 0.018, 0.013,
        ],
    );

    // Marital-status depends on sex and (through education as an age/stage
    // proxy) on educational attainment: men and the more educated are
    // married with a civilian spouse far more often, while the
    // low-attainment group (mostly young respondents in the real data) is
    // dominated by "Never-married".  This mirrors the broad dependence
    // structure of the real Adult, where marital status correlates with
    // almost every other attribute.
    let marital = {
        let education_tier = if education < 8 {
            0
        } else if education < 12 {
            1
        } else {
            2
        };
        match (sex, education_tier) {
            (0, 0) => sample_weighted(rng, &[0.52, 0.33, 0.09, 0.03, 0.01, 0.015, 0.005]),
            (0, 1) => sample_weighted(rng, &[0.27, 0.58, 0.09, 0.03, 0.01, 0.015, 0.005]),
            (0, _) => sample_weighted(rng, &[0.13, 0.75, 0.07, 0.02, 0.01, 0.015, 0.005]),
            (_, 0) => sample_weighted(rng, &[0.62, 0.08, 0.15, 0.06, 0.05, 0.035, 0.005]),
            (_, 1) => sample_weighted(rng, &[0.43, 0.16, 0.22, 0.06, 0.09, 0.035, 0.005]),
            (_, _) => sample_weighted(rng, &[0.30, 0.28, 0.26, 0.05, 0.07, 0.035, 0.005]),
        }
    };

    // Relationship is almost a deterministic function of (marital, sex):
    // married men are husbands, married women are wives, never-married
    // people are mostly own-child or not-in-family, the rest are
    // unmarried/not-in-family.
    let relationship = match (marital, sex) {
        (1, 0) | (6, 0) => sample_weighted(rng, &[0.96, 0.00, 0.01, 0.01, 0.01, 0.01]),
        (1, 1) | (6, 1) => sample_weighted(rng, &[0.00, 0.93, 0.02, 0.02, 0.02, 0.01]),
        (0, _) => sample_weighted(rng, &[0.0, 0.0, 0.62, 0.28, 0.05, 0.05]),
        _ => sample_weighted(rng, &[0.0, 0.0, 0.05, 0.25, 0.06, 0.64]),
    };

    // Occupation depends strongly on education: low attainment maps to
    // manual categories (low codes), high attainment to managerial and
    // professional categories (high codes).  A triangular kernel around the
    // education-implied centre keeps the dependence strong but noisy.
    let occupation = {
        let centre = (education as f64 / 15.0) * 13.0; // target occupation code in 0..=13
        let mut weights = [0.0f64; 15];
        for (code, w) in weights.iter_mut().enumerate().take(14) {
            let dist = code as f64 - centre;
            // Narrow Gaussian kernel with a small floor: occupations close to
            // the education-implied centre dominate, but every occupation
            // stays reachable from every education level.
            *w = (-(dist * dist) / 3.0).exp().max(0.02);
        }
        weights[14] = 0.15; // "Unknown" occupation appears at every education level
        sample_weighted(rng, &weights)
    };

    // Work-class depends on occupation: professional and managerial
    // occupations are far more often government or self-employed, manual
    // occupations are overwhelmingly "Private", protective services and the
    // armed forces lean heavily on government, and an unknown occupation
    // almost always comes with an unknown work-class (as in the real file,
    // where both are "?" together).
    let work_class = if occupation == 14 {
        sample_weighted(
            rng,
            &[0.10, 0.01, 0.01, 0.01, 0.01, 0.01, 0.002, 0.008, 0.95],
        )
    } else if occupation >= 12 {
        sample_weighted(
            rng,
            &[0.47, 0.10, 0.10, 0.07, 0.11, 0.10, 0.002, 0.002, 0.046],
        )
    } else if occupation == 9 || occupation == 11 {
        sample_weighted(
            rng,
            &[0.25, 0.03, 0.02, 0.22, 0.28, 0.15, 0.002, 0.002, 0.046],
        )
    } else if occupation == 3 {
        // Farming and fishing is dominated by self-employment.
        sample_weighted(
            rng,
            &[0.40, 0.38, 0.08, 0.01, 0.03, 0.02, 0.01, 0.002, 0.068],
        )
    } else {
        sample_weighted(
            rng,
            &[0.82, 0.06, 0.02, 0.02, 0.04, 0.02, 0.004, 0.002, 0.014],
        )
    };

    // Race: weakly dependent on everything else (close to the Adult
    // marginals).
    let race = sample_weighted(rng, &[0.854, 0.096, 0.031, 0.010, 0.009]);

    // Income depends on education, occupation, work-class, sex and marital
    // status via a simple log-odds score.  Married, highly educated men in
    // managerial or professional occupations (and the incorporated
    // self-employed) have by far the highest probability of the ">50K"
    // class, matching the well-known structure of the real data.
    let income = {
        let mut score = -2.6f64;
        score += 0.24 * (education as f64 - 8.0); // HS-grad is the pivot
        score += 0.15 * (occupation as f64 - 7.0);
        if sex == 0 {
            score += 0.45;
        }
        if marital == 1 || marital == 6 {
            score += 1.2;
        }
        if work_class == 2 {
            score += 0.8; // incorporated self-employed
        } else if work_class == 6 || work_class == 7 {
            score -= 2.0; // without pay / never worked
        }
        let p_high = 1.0 / (1.0 + (-score).exp());
        if rng.gen::<f64>() < p_high {
            1
        } else {
            0
        }
    };

    [
        work_class,
        education,
        marital,
        occupation,
        relationship,
        race,
        sex,
        income,
    ]
}

/// Samples an index proportionally to the given non-negative weights.
fn sample_weighted(rng: &mut impl Rng, weights: &[f64]) -> u32 {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0, "weights must not all be zero");
    let mut draw = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        draw -= w;
        if draw <= 0.0 {
            return i as u32;
        }
    }
    (weights.len() - 1) as u32
}

fn to_strings(labels: &[&str]) -> Vec<String> {
    labels.iter().map(|s| s.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_math::ContingencyTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schema_matches_paper_cardinalities() {
        let s = adult_schema();
        assert_eq!(s.len(), 8);
        assert_eq!(s.cardinalities(), vec![9, 16, 7, 15, 6, 5, 2, 2]);
        assert_eq!(s.joint_domain_size(), Some(1_814_400));
        assert_eq!(
            s.attribute(AdultAttribute::Education.index())
                .unwrap()
                .name(),
            "Education"
        );
        assert_eq!(
            s.attribute(AdultAttribute::Income.index()).unwrap().name(),
            "Income"
        );
    }

    #[test]
    fn sample_record_matches_schema_and_generator_stream() {
        let synth = AdultSynthesizer::new(10).unwrap();
        let schema = adult_schema();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let record = synth.sample_record(&mut rng);
            assert!(schema.validate_record(&record).is_ok());
        }
        // Drawing records one at a time reproduces generate() exactly.
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let ds = synth.generate(&mut a);
        let streamed: Vec<Vec<u32>> = (0..10).map(|_| synth.sample_record(&mut b)).collect();
        let direct: Vec<Vec<u32>> = (0..ds.n_records()).map(|i| ds.record(i).unwrap()).collect();
        assert_eq!(streamed, direct);
    }

    #[test]
    fn synthesizer_respects_requested_size() {
        let mut rng = StdRng::seed_from_u64(7);
        let ds = AdultSynthesizer::new(500).unwrap().generate(&mut rng);
        assert_eq!(ds.n_records(), 500);
        assert_eq!(ds.n_attributes(), 8);
        assert!(AdultSynthesizer::new(0).is_err());
        assert_eq!(
            AdultSynthesizer::paper_sized().record_count(),
            ADULT_RECORD_COUNT
        );
    }

    #[test]
    fn generation_is_deterministic_for_a_fixed_seed() {
        let a = AdultSynthesizer::new(200)
            .unwrap()
            .generate(&mut StdRng::seed_from_u64(42));
        let b = AdultSynthesizer::new(200)
            .unwrap()
            .generate(&mut StdRng::seed_from_u64(42));
        let c = AdultSynthesizer::new(200)
            .unwrap()
            .generate(&mut StdRng::seed_from_u64(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn every_category_of_common_attributes_appears() {
        let mut rng = StdRng::seed_from_u64(11);
        let ds = AdultSynthesizer::new(20_000).unwrap().generate(&mut rng);
        for attr in [
            AdultAttribute::Education,
            AdultAttribute::MaritalStatus,
            AdultAttribute::Relationship,
            AdultAttribute::Sex,
            AdultAttribute::Income,
        ] {
            let counts = ds.marginal_counts(attr.index()).unwrap();
            assert!(
                counts.iter().all(|&c| c > 0),
                "attribute {attr:?} has empty categories: {counts:?}"
            );
        }
    }

    #[test]
    fn dependence_structure_matches_design() {
        let mut rng = StdRng::seed_from_u64(3);
        let ds = AdultSynthesizer::new(15_000).unwrap().generate(&mut rng);

        let v = |a: AdultAttribute, b: AdultAttribute| {
            let xs = ds.column(a.index()).unwrap();
            let ys = ds.column(b.index()).unwrap();
            let ca = ds.schema().attribute(a.index()).unwrap().cardinality();
            let cb = ds.schema().attribute(b.index()).unwrap().cardinality();
            ContingencyTable::from_codes(xs, ys, ca, cb)
                .unwrap()
                .cramers_v()
        };

        let marital_relationship = v(AdultAttribute::MaritalStatus, AdultAttribute::Relationship);
        let sex_relationship = v(AdultAttribute::Sex, AdultAttribute::Relationship);
        let education_occupation = v(AdultAttribute::Education, AdultAttribute::Occupation);
        let education_income = v(AdultAttribute::Education, AdultAttribute::Income);
        let race_education = v(AdultAttribute::Race, AdultAttribute::Education);
        let race_income = v(AdultAttribute::Race, AdultAttribute::Income);

        // Strong pairs clearly dominate the near-independent Race pairs.
        assert!(marital_relationship > 0.5, "got {marital_relationship}");
        assert!(sex_relationship > 0.4, "got {sex_relationship}");
        assert!(education_occupation > 0.3, "got {education_occupation}");
        assert!(education_income > 0.2, "got {education_income}");
        assert!(race_education < 0.1, "got {race_education}");
        assert!(race_income < 0.1, "got {race_income}");
        assert!(marital_relationship > race_education * 5.0);
    }

    #[test]
    fn income_is_positively_associated_with_education() {
        let mut rng = StdRng::seed_from_u64(5);
        let ds = AdultSynthesizer::new(20_000).unwrap().generate(&mut rng);
        let edu = ds.column(AdultAttribute::Education.index()).unwrap();
        let inc = ds.column(AdultAttribute::Income.index()).unwrap();

        // Share of ">50K" among low-education vs high-education records.
        let share = |lo: u32, hi: u32| {
            let mut total = 0usize;
            let mut high = 0usize;
            for (&e, &i) in edu.iter().zip(inc.iter()) {
                if e >= lo && e <= hi {
                    total += 1;
                    if i == 1 {
                        high += 1;
                    }
                }
            }
            high as f64 / total.max(1) as f64
        };
        let low_edu = share(0, 7);
        let high_edu = share(12, 15);
        assert!(high_edu > low_edu + 0.2, "high {high_edu} vs low {low_edu}");
    }

    #[test]
    fn generated_codes_are_always_valid() {
        let mut rng = StdRng::seed_from_u64(19);
        let ds = AdultSynthesizer::new(2_000).unwrap().generate(&mut rng);
        let view = ds.view();
        let mut record = Vec::new();
        for i in 0..view.n_records() {
            view.read_record(i, &mut record).unwrap();
            ds.schema().validate_record(&record).unwrap();
        }
    }
}
