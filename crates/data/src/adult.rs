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
use std::sync::OnceLock;

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
        let mut columns: Vec<Vec<u32>> = (0..schema.len())
            .map(|_| Vec::with_capacity(self.n))
            .collect();
        let tables = tables();
        for _ in 0..self.n {
            let record = tables.sample_record(rng);
            for (col, &v) in columns.iter_mut().zip(record.iter()) {
                col.push(v);
            }
        }
        Dataset::from_columns(schema, columns).expect("generated records always fit the schema")
    }

    /// Samples a single synthetic record (valid for [`adult_schema`]) —
    /// the streaming counterpart of [`AdultSynthesizer::generate`]: a
    /// simulator can draw one client at a time without materializing the
    /// whole data set.  It draws exactly the same stream as `generate`:
    /// `n` calls from a given RNG state yield the records `generate`
    /// would, in order, and leave the RNG in the same state.
    pub fn sample_record(&self, rng: &mut impl Rng) -> Vec<u32> {
        tables().sample_record(rng).to_vec()
    }
}

/// Sex: roughly the Adult split (about two thirds male).
const SEX: [f64; 2] = [0.67, 0.33];

/// Education marginal: concentrated on HS-grad / Some-college / Bachelors,
/// thin tails at the extremes, like the real data.
const EDUCATION: [f64; 16] = [
    0.002, 0.005, 0.010, 0.020, 0.016, 0.028, 0.036, 0.013, 0.322, 0.224, 0.042, 0.033, 0.164,
    0.054, 0.018, 0.013,
];

/// Marital-status rows, indexed by [`marital_row`].  Marital status depends
/// on sex and (through education as an age/stage proxy) on educational
/// attainment: men and the more educated are married with a civilian
/// spouse far more often, while the low-attainment group (mostly young
/// respondents in the real data) is dominated by "Never-married".  This
/// mirrors the broad dependence structure of the real Adult, where marital
/// status correlates with almost every other attribute.
const MARITAL: [[f64; 7]; 6] = [
    [0.52, 0.33, 0.09, 0.03, 0.01, 0.015, 0.005],
    [0.27, 0.58, 0.09, 0.03, 0.01, 0.015, 0.005],
    [0.13, 0.75, 0.07, 0.02, 0.01, 0.015, 0.005],
    [0.62, 0.08, 0.15, 0.06, 0.05, 0.035, 0.005],
    [0.43, 0.16, 0.22, 0.06, 0.09, 0.035, 0.005],
    [0.30, 0.28, 0.26, 0.05, 0.07, 0.035, 0.005],
];

/// Relationship rows, indexed by [`relationship_row`].  Relationship is
/// almost a deterministic function of (marital, sex): married men are
/// husbands, married women are wives, never-married people are mostly
/// own-child or not-in-family, the rest are unmarried/not-in-family.
const RELATIONSHIP: [[f64; 6]; 4] = [
    [0.96, 0.00, 0.01, 0.01, 0.01, 0.01],
    [0.00, 0.93, 0.02, 0.02, 0.02, 0.01],
    [0.0, 0.0, 0.62, 0.28, 0.05, 0.05],
    [0.0, 0.0, 0.05, 0.25, 0.06, 0.64],
];

/// Work-class rows, indexed by [`work_class_row`].  Professional and
/// managerial occupations are far more often government or self-employed,
/// manual occupations are overwhelmingly "Private", protective services and
/// the armed forces lean heavily on government, farming and fishing is
/// dominated by self-employment, and an unknown occupation almost always
/// comes with an unknown work-class (as in the real file, where both are
/// "?" together).
const WORK_CLASS: [[f64; 9]; 5] = [
    [0.10, 0.01, 0.01, 0.01, 0.01, 0.01, 0.002, 0.008, 0.95],
    [0.47, 0.10, 0.10, 0.07, 0.11, 0.10, 0.002, 0.002, 0.046],
    [0.25, 0.03, 0.02, 0.22, 0.28, 0.15, 0.002, 0.002, 0.046],
    [0.40, 0.38, 0.08, 0.01, 0.03, 0.02, 0.01, 0.002, 0.068],
    [0.82, 0.06, 0.02, 0.02, 0.04, 0.02, 0.004, 0.002, 0.014],
];

/// Race: weakly dependent on everything else (close to the Adult
/// marginals).
const RACE: [f64; 5] = [0.854, 0.096, 0.031, 0.010, 0.009];

/// Number of distinct income cases: education × occupation × sex ×
/// married × work-class class (see [`income_case`]).
const INCOME_CASES: usize = 16 * 15 * 2 * 2 * 3;

/// A weight vector with its sum, computed once.
struct Weighted<const N: usize> {
    weights: [f64; N],
    total: f64,
}

impl<const N: usize> Weighted<N> {
    fn new(weights: [f64; N]) -> Self {
        let total = weights.iter().sum();
        Weighted { weights, total }
    }

    fn sample(&self, rng: &mut impl Rng) -> u32 {
        sample_weighted(rng, &self.weights, self.total)
    }
}

/// Every conditional distribution of the generator's Bayesian network.
/// Each depends only on discrete parent codes, so the whole network is
/// tabulated once and sampling does no transcendental math.
struct Tables {
    sex: Weighted<2>,
    education: Weighted<16>,
    marital: [Weighted<7>; 6],
    relationship: [Weighted<6>; 4],
    /// Occupation rows, indexed by education code.
    occupation: [Weighted<15>; 16],
    work_class: [Weighted<9>; 5],
    race: Weighted<5>,
    /// Probability of the ">50K" class, indexed by [`income_case`].
    p_high: [f64; INCOME_CASES],
}

/// The tables, built on first use.  They depend on no synthesizer state, so
/// every [`AdultSynthesizer`] shares them.
fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(Tables::build)
}

impl Tables {
    fn build() -> Self {
        let mut p_high = [0.0; INCOME_CASES];
        for education in 0..16 {
            for occupation in 0..15 {
                for sex in 0..2 {
                    // One representative code per married flag and per
                    // work-class class.
                    for marital in [0, 1] {
                        for work_class in [0, 2, 6] {
                            p_high[income_case(education, occupation, sex, marital, work_class)] =
                                income_probability(education, occupation, sex, marital, work_class);
                        }
                    }
                }
            }
        }
        Tables {
            sex: Weighted::new(SEX),
            education: Weighted::new(EDUCATION),
            marital: MARITAL.map(Weighted::new),
            relationship: RELATIONSHIP.map(Weighted::new),
            occupation: std::array::from_fn(|education| {
                Weighted::new(occupation_weights(education as u32))
            }),
            work_class: WORK_CLASS.map(Weighted::new),
            race: Weighted::new(RACE),
            p_high,
        }
    }

    /// Samples one record as `[work_class, education, marital, occupation,
    /// relationship, race, sex, income]` codes.  Each attribute consumes
    /// exactly one `f64` draw, in the order sex, education, marital,
    /// relationship, occupation, work-class, race, income.
    fn sample_record(&self, rng: &mut impl Rng) -> [u32; 8] {
        let sex = self.sex.sample(rng);
        let education = self.education.sample(rng);
        let marital = self.marital[marital_row(sex, education)].sample(rng);
        let relationship = self.relationship[relationship_row(marital, sex)].sample(rng);
        let occupation = self.occupation[education as usize].sample(rng);
        let work_class = self.work_class[work_class_row(occupation)].sample(rng);
        let race = self.race.sample(rng);
        let p_high = self.p_high[income_case(education, occupation, sex, marital, work_class)];
        let income = u32::from(rng.gen::<f64>() < p_high);
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
}

/// Row of [`MARITAL`]: sex × education tier.
fn marital_row(sex: u32, education: u32) -> usize {
    let education_tier = if education < 8 {
        0
    } else if education < 12 {
        1
    } else {
        2
    };
    sex as usize * 3 + education_tier
}

/// Row of [`RELATIONSHIP`]: married man, married woman, never married,
/// other.
fn relationship_row(marital: u32, sex: u32) -> usize {
    match (marital, sex) {
        (1, 0) | (6, 0) => 0,
        (1, 1) | (6, 1) => 1,
        (0, _) => 2,
        _ => 3,
    }
}

/// Row of [`WORK_CLASS`]: unknown occupation, managerial or professional,
/// protective services or armed forces, farming and fishing, other.
fn work_class_row(occupation: u32) -> usize {
    match occupation {
        14 => 0,
        12.. => 1,
        9 | 11 => 2,
        3 => 3,
        _ => 4,
    }
}

/// Occupation weights for one education level.  Occupation depends
/// strongly on education: low attainment maps to manual categories (low
/// codes), high attainment to managerial and professional categories
/// (high codes).  A narrow Gaussian kernel around the education-implied
/// centre keeps the dependence strong but noisy; its small floor keeps
/// every occupation reachable from every education level.
fn occupation_weights(education: u32) -> [f64; 15] {
    let centre = (f64::from(education) / 15.0) * 13.0; // target occupation code in 0..=13
    let mut weights = [0.0f64; 15];
    for (code, w) in weights.iter_mut().enumerate().take(14) {
        let dist = code as f64 - centre;
        *w = (-(dist * dist) / 3.0).exp().max(0.02);
    }
    weights[14] = 0.15; // "Unknown" occupation appears at every education level
    weights
}

/// Index into [`Tables::p_high`].  Income depends on marital status only
/// through "married" (codes 1 and 6) and on work-class only through its
/// class: incorporated self-employed (2), without pay or never worked
/// (6 and 7), or any other.
fn income_case(education: u32, occupation: u32, sex: u32, marital: u32, work_class: u32) -> usize {
    let married = usize::from(marital == 1 || marital == 6);
    let class = match work_class {
        2 => 1,
        6 | 7 => 2,
        _ => 0,
    };
    (((education as usize * 15 + occupation as usize) * 2 + sex as usize) * 2 + married) * 3 + class
}

/// Probability of the ">50K" income class, from a simple log-odds score
/// over education, occupation, work-class, sex and marital status.
/// Married, highly educated men in managerial or professional occupations
/// (and the incorporated self-employed) have by far the highest
/// probability, matching the well-known structure of the real data.
fn income_probability(
    education: u32,
    occupation: u32,
    sex: u32,
    marital: u32,
    work_class: u32,
) -> f64 {
    let mut score = -2.6f64;
    score += 0.24 * (f64::from(education) - 8.0); // HS-grad is the pivot
    score += 0.15 * (f64::from(occupation) - 7.0);
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
    1.0 / (1.0 + (-score).exp())
}

/// Samples an index proportionally to the given non-negative weights,
/// whose sum is `total`.
fn sample_weighted(rng: &mut impl Rng, weights: &[f64], total: f64) -> u32 {
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
    use rand::{RngCore, SeedableRng};
    use std::cell::RefCell;
    use std::collections::BTreeSet;

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

    /// A weight vector and its total, as bit patterns.
    type Row = (Vec<u64>, u64);

    thread_local! {
        /// While `Some`, the distinct rows the reference walked.
        static WALKED: RefCell<Option<BTreeSet<Row>>> = const { RefCell::new(None) };
    }

    /// Adds a row to `WALKED` while it is recording.
    fn record_walk(weights: &[f64], total: f64) {
        WALKED.with(|walked| {
            if let Some(walked) = walked.borrow_mut().as_mut() {
                walked.insert((
                    weights.iter().map(|w| w.to_bits()).collect(),
                    total.to_bits(),
                ));
            }
        });
    }

    /// The generator as it was before tabulation, kept as the oracle for
    /// the table sampler.  Its code is moved verbatim, except that the
    /// income score is split out (`reference_p_high`) so each table entry
    /// can be checked, and the walk records what it sums (`record_walk`).
    /// The explanatory comments live on the tables.
    fn reference_sample_record(rng: &mut impl Rng) -> [u32; 8] {
        let sex = reference_sample_weighted(rng, &[0.67, 0.33]);

        let education = reference_sample_weighted(
            rng,
            &[
                0.002, 0.005, 0.010, 0.020, 0.016, 0.028, 0.036, 0.013, 0.322, 0.224, 0.042, 0.033,
                0.164, 0.054, 0.018, 0.013,
            ],
        );

        let marital = {
            let education_tier = if education < 8 {
                0
            } else if education < 12 {
                1
            } else {
                2
            };
            match (sex, education_tier) {
                (0, 0) => {
                    reference_sample_weighted(rng, &[0.52, 0.33, 0.09, 0.03, 0.01, 0.015, 0.005])
                }
                (0, 1) => {
                    reference_sample_weighted(rng, &[0.27, 0.58, 0.09, 0.03, 0.01, 0.015, 0.005])
                }
                (0, _) => {
                    reference_sample_weighted(rng, &[0.13, 0.75, 0.07, 0.02, 0.01, 0.015, 0.005])
                }
                (_, 0) => {
                    reference_sample_weighted(rng, &[0.62, 0.08, 0.15, 0.06, 0.05, 0.035, 0.005])
                }
                (_, 1) => {
                    reference_sample_weighted(rng, &[0.43, 0.16, 0.22, 0.06, 0.09, 0.035, 0.005])
                }
                (_, _) => {
                    reference_sample_weighted(rng, &[0.30, 0.28, 0.26, 0.05, 0.07, 0.035, 0.005])
                }
            }
        };

        let relationship = match (marital, sex) {
            (1, 0) | (6, 0) => {
                reference_sample_weighted(rng, &[0.96, 0.00, 0.01, 0.01, 0.01, 0.01])
            }
            (1, 1) | (6, 1) => {
                reference_sample_weighted(rng, &[0.00, 0.93, 0.02, 0.02, 0.02, 0.01])
            }
            (0, _) => reference_sample_weighted(rng, &[0.0, 0.0, 0.62, 0.28, 0.05, 0.05]),
            _ => reference_sample_weighted(rng, &[0.0, 0.0, 0.05, 0.25, 0.06, 0.64]),
        };

        let occupation = {
            let centre = (education as f64 / 15.0) * 13.0; // target occupation code in 0..=13
            let mut weights = [0.0f64; 15];
            for (code, w) in weights.iter_mut().enumerate().take(14) {
                let dist = code as f64 - centre;
                *w = (-(dist * dist) / 3.0).exp().max(0.02);
            }
            weights[14] = 0.15; // "Unknown" occupation appears at every education level
            reference_sample_weighted(rng, &weights)
        };

        let work_class = if occupation == 14 {
            reference_sample_weighted(
                rng,
                &[0.10, 0.01, 0.01, 0.01, 0.01, 0.01, 0.002, 0.008, 0.95],
            )
        } else if occupation >= 12 {
            reference_sample_weighted(
                rng,
                &[0.47, 0.10, 0.10, 0.07, 0.11, 0.10, 0.002, 0.002, 0.046],
            )
        } else if occupation == 9 || occupation == 11 {
            reference_sample_weighted(
                rng,
                &[0.25, 0.03, 0.02, 0.22, 0.28, 0.15, 0.002, 0.002, 0.046],
            )
        } else if occupation == 3 {
            reference_sample_weighted(
                rng,
                &[0.40, 0.38, 0.08, 0.01, 0.03, 0.02, 0.01, 0.002, 0.068],
            )
        } else {
            reference_sample_weighted(
                rng,
                &[0.82, 0.06, 0.02, 0.02, 0.04, 0.02, 0.004, 0.002, 0.014],
            )
        };

        let race = reference_sample_weighted(rng, &[0.854, 0.096, 0.031, 0.010, 0.009]);

        let income = {
            let p_high = reference_p_high(education, occupation, sex, marital, work_class);
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

    fn reference_p_high(
        education: u32,
        occupation: u32,
        sex: u32,
        marital: u32,
        work_class: u32,
    ) -> f64 {
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
        1.0 / (1.0 + (-score).exp())
    }

    fn reference_sample_weighted(rng: &mut impl Rng, weights: &[f64]) -> u32 {
        let total: f64 = weights.iter().sum();
        record_walk(weights, total);
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

    #[test]
    fn table_sampler_matches_reference() {
        let tables = tables();
        for seed in [1u64, 2, 42, 2024] {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            for i in 0..200_000 {
                assert_eq!(
                    tables.sample_record(&mut a),
                    reference_sample_record(&mut b),
                    "seed {seed}, record {i}"
                );
            }
            // Same draws consumed: the two RNGs are still in step.
            assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}");
        }
    }

    #[test]
    fn tables_equal_reference_bit_for_bit() {
        let tables = tables();

        // Every weight vector and total the reference walks is a table row,
        // and every table row is walked.  This covers the 240 occupation
        // weights and every total.
        WALKED.with(|walked| *walked.borrow_mut() = Some(BTreeSet::new()));
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100_000 {
            reference_sample_record(&mut rng);
        }
        let walked = WALKED.with(|walked| walked.borrow_mut().take()).unwrap();
        fn row<const N: usize>(w: &Weighted<N>) -> Row {
            (
                w.weights.iter().map(|w| w.to_bits()).collect(),
                w.total.to_bits(),
            )
        }
        let mut rows = BTreeSet::new();
        rows.insert(row(&tables.sex));
        rows.insert(row(&tables.education));
        rows.extend(tables.marital.iter().map(row));
        rows.extend(tables.relationship.iter().map(row));
        rows.extend(tables.occupation.iter().map(row));
        rows.extend(tables.work_class.iter().map(row));
        rows.insert(row(&tables.race));
        assert_eq!(rows.len(), 2 + 6 + 4 + 16 + 5 + 1);
        assert_eq!(walked, rows);

        // Every income case, reached from every code combination.
        let mut reached = vec![false; INCOME_CASES];
        for education in 0..16 {
            for occupation in 0..15 {
                for sex in 0..2 {
                    for marital in 0..7 {
                        for work_class in 0..9 {
                            let case = income_case(education, occupation, sex, marital, work_class);
                            let expected =
                                reference_p_high(education, occupation, sex, marital, work_class);
                            assert_eq!(
                                tables.p_high[case].to_bits(),
                                expected.to_bits(),
                                "education {education}, occupation {occupation}, sex {sex}, \
                                 marital {marital}, work-class {work_class}"
                            );
                            reached[case] = true;
                        }
                    }
                }
            }
        }
        assert!(reached.iter().all(|&r| r));
    }

    /// FNV-1a-64 over the codes of `n` records drawn from `seed`.
    fn stream_hash(seed: u64, n: usize) -> u64 {
        let synth = AdultSynthesizer::paper_sized();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..n {
            for v in synth.sample_record(&mut rng) {
                h ^= u64::from(v);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The generator's per-seed stream is a contract across commits:
    /// `stream_sim` persists the generator RNG state in its checkpoints, so
    /// a different stream would silently break resuming a checkpoint
    /// written by an older build.  The constants were captured before the
    /// generator was tabulated.
    #[test]
    fn generator_stream_is_pinned() {
        assert_eq!(stream_hash(1, 1_000_000), 0xb48b_971e_2938_c36b);
        assert_eq!(stream_hash(42, 1_000_000), 0xcd7d_3e43_d6a7_315a);
    }
}
