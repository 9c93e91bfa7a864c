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
#[expect(
    clippy::expect_used,
    reason = "the attribute and schema definitions are static and valid"
)]
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
    #[expect(
        clippy::expect_used,
        reason = "generated records always fit the schema"
    )]
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

/// Bits of the draw behind `rng.gen::<f64>()`, which is `k · 2⁻⁵³` for the
/// top 53 bits `k` of one `next_u64()`.
const DRAW_BITS: u32 = 53;

/// Bits of the draw that index a [`Weighted`] guide table.
const GUIDE_BITS: u32 = 8;

/// Shift from a draw to its guide bucket.
const GUIDE_SHIFT: u32 = DRAW_BITS - GUIDE_BITS;

/// One categorical distribution: its weights and their sum, and the exact
/// integer table the generator samples it through.
///
/// A draw `k` (the top 53 bits of one `next_u64()`) picks category
/// `i = guide[k >> GUIDE_SHIFT]`, then steps `i` forward while
/// `k >= cuts[i]`.  This is the category [`sample_weighted`] walks to for
/// the same `k`, for every one of the 2⁵³ draws (see [`Weighted::new`]),
/// so the record stream is the one the walk gave.
struct Weighted<const N: usize> {
    weights: [f64; N],
    total: f64,
    /// `cuts[i]` is the smallest draw for which the walk returns a
    /// category above `i`, or 2⁵³ if no draw does; the last slot holds the
    /// sentinel `u64::MAX`, which ends every search.
    cuts: [u64; N],
    /// `guide[b]` is the category of the draw `b << GUIDE_SHIFT`, the first
    /// draw of bucket `b`.
    guide: [u8; 1 << GUIDE_BITS],
}

impl<const N: usize> Weighted<N> {
    /// Sums the weights and derives the cuts and the guide from the walk.
    ///
    /// The walk is a non-decreasing step function of the draw `k`: `k · 2⁻⁵³`
    /// is exact, IEEE rounding is monotone, so `draw = k · 2⁻⁵³ · total` and
    /// every partial difference `draw − w₀ − … − wⱼ` are non-decreasing in
    /// `k`.  The walk returns a category above `i` exactly when the partial
    /// differences `0..=i` are all positive, which holds from some draw on.
    /// A binary search with the walk itself therefore finds each cut, and
    /// the category of any draw is the number of cuts at or below it.  The
    /// walk is the only judge: the bracket a search starts from may be off
    /// by any amount without changing the cut, only the search's length.
    /// Zero weights and the last-category fallback need no special case:
    /// the walk decides them.
    fn new(weights: [f64; N]) -> Self {
        let total = weights.iter().sum();
        let mut row = Weighted {
            weights,
            total,
            cuts: [u64::MAX; N],
            guide: [0; 1 << GUIDE_BITS],
        };
        let end = 1u64 << DRAW_BITS;
        let mut cum = 0.0;
        for i in 0..N - 1 {
            let above = |k: u64| sample_weighted(k, &row.weights, row.total) as usize > i;
            // The cut lies within rounding error of the exact boundary
            // `⌈cumᵢ / total · 2⁵³⌉`, so widen a bracket around that guess
            // until the step is inside it (`hi == end` stands for "no draw"),
            // then bisect.
            cum += row.weights[i];
            let guess = ((cum / row.total) * end as f64).ceil().min(end as f64) as u64;
            let mut radius = 64;
            let (mut lo, mut hi) = loop {
                let (lo, hi) = (guess.saturating_sub(radius), (guess + radius).min(end));
                if (lo == 0 || !above(lo - 1)) && (hi == end || above(hi)) {
                    break (lo, hi);
                }
                radius *= 2;
            };
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if above(mid) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            row.cuts[i] = lo;
        }
        for (b, slot) in row.guide.iter_mut().enumerate() {
            let first = (b as u64) << GUIDE_SHIFT;
            *slot = row.cuts.iter().take_while(|&&c| c <= first).count() as u8;
        }
        row
    }

    /// The category of the draw `k < 2⁵³`.
    fn category(&self, k: u64) -> u32 {
        let mut i = usize::from(self.guide[(k >> GUIDE_SHIFT) as usize]);
        while k >= self.cuts[i] {
            i += 1;
        }
        i as u32
    }

    fn sample(&self, rng: &mut impl Rng) -> u32 {
        self.category(rng.next_u64() >> (64 - DRAW_BITS))
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
    /// exactly one raw `u64` draw, in the order sex, education, marital,
    /// relationship, occupation, work-class, race, income.  The categorical
    /// attributes read its top 53 bits as an integer and income reads them
    /// as `gen::<f64>()`: the same bits the `f64` walk took.
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

// The row selectors below are table lookups rather than `if`/`match`
// chains: their inputs are codes drawn a few instructions earlier, so a
// branch on them is mispredicted often, and each miss throws away the
// overlap between consecutive records.  The draw order and the rows are
// untouched; a test checks every parent-code combination against the
// branchy forms.

/// Education tier (below 8, 8–11, 12 and up) of each education code.
const EDUCATION_TIER: [u8; 16] = [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2];

/// Row of [`MARITAL`]: sex × education tier.
fn marital_row(sex: u32, education: u32) -> usize {
    sex as usize * 3 + usize::from(EDUCATION_TIER[education as usize])
}

/// [`relationship_row`] by marital status, then sex.
const RELATIONSHIP_ROW: [[u8; 2]; 7] = [[2, 2], [0, 1], [3, 3], [3, 3], [3, 3], [3, 3], [0, 1]];

/// Row of [`RELATIONSHIP`]: married man, married woman, never married,
/// other.
fn relationship_row(marital: u32, sex: u32) -> usize {
    usize::from(RELATIONSHIP_ROW[marital as usize][sex as usize])
}

/// [`work_class_row`] by occupation code.
const WORK_CLASS_ROW: [u8; 15] = [4, 4, 4, 3, 4, 4, 4, 4, 4, 2, 4, 2, 1, 1, 0];

/// Row of [`WORK_CLASS`]: unknown occupation, managerial or professional,
/// protective services or armed forces, farming and fishing, other.
fn work_class_row(occupation: u32) -> usize {
    usize::from(WORK_CLASS_ROW[occupation as usize])
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

/// Whether each marital code counts as married (1 and 6) for
/// [`income_case`].
const MARRIED: [u8; 7] = [0, 1, 0, 0, 0, 0, 1];

/// The work-class class of each work-class code for [`income_case`]:
/// incorporated self-employed (2) is 1, without pay or never worked (6
/// and 7) is 2, any other is 0.
const WORK_CLASS_CLASS: [u8; 9] = [0, 0, 1, 0, 0, 0, 2, 2, 0];

/// Index into [`Tables::p_high`].  Income depends on marital status only
/// through "married" (codes 1 and 6) and on work-class only through its
/// class: incorporated self-employed (2), without pay or never worked
/// (6 and 7), or any other.
fn income_case(education: u32, occupation: u32, sex: u32, marital: u32, work_class: u32) -> usize {
    let married = usize::from(MARRIED[marital as usize]);
    let class = usize::from(WORK_CLASS_CLASS[work_class as usize]);
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

/// The category a subtraction walk over the non-negative `weights`, whose
/// sum is `total`, picks for the draw `k < 2⁵³`: the first whose running
/// difference from `k · 2⁻⁵³ · total` is at most zero, else the last.
/// The walk defines the pinned record stream; [`Weighted::new`] derives
/// each row's cuts from it.
fn sample_weighted(k: u64, weights: &[f64], total: f64) -> u32 {
    debug_assert!(total > 0.0, "weights must not all be zero");
    let mut draw = rand::unit_f64_from_u64(k << (64 - DRAW_BITS)) * total;
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

    /// The row selectors as they were before they became table lookups,
    /// moved verbatim: the oracle for the selector tables.
    fn reference_marital_row(sex: u32, education: u32) -> usize {
        let education_tier = if education < 8 {
            0
        } else if education < 12 {
            1
        } else {
            2
        };
        sex as usize * 3 + education_tier
    }

    fn reference_relationship_row(marital: u32, sex: u32) -> usize {
        match (marital, sex) {
            (1, 0) | (6, 0) => 0,
            (1, 1) | (6, 1) => 1,
            (0, _) => 2,
            _ => 3,
        }
    }

    fn reference_work_class_row(occupation: u32) -> usize {
        match occupation {
            14 => 0,
            12.. => 1,
            9 | 11 => 2,
            3 => 3,
            _ => 4,
        }
    }

    fn reference_income_case(
        education: u32,
        occupation: u32,
        sex: u32,
        marital: u32,
        work_class: u32,
    ) -> usize {
        let married = usize::from(marital == 1 || marital == 6);
        let class = match work_class {
            2 => 1,
            6 | 7 => 2,
            _ => 0,
        };
        (((education as usize * 15 + occupation as usize) * 2 + sex as usize) * 2 + married) * 3
            + class
    }

    /// Every parent-code combination picks the same row through the
    /// selector tables as through the branchy forms, including the rare
    /// combinations random records seldom reach.
    #[test]
    fn row_selectors_match_reference_on_every_code() {
        for sex in 0..2 {
            for education in 0..16 {
                assert_eq!(
                    marital_row(sex, education),
                    reference_marital_row(sex, education),
                    "sex {sex}, education {education}"
                );
            }
            for marital in 0..7 {
                assert_eq!(
                    relationship_row(marital, sex),
                    reference_relationship_row(marital, sex),
                    "marital {marital}, sex {sex}"
                );
            }
        }
        for occupation in 0..15 {
            assert_eq!(
                work_class_row(occupation),
                reference_work_class_row(occupation),
                "occupation {occupation}"
            );
        }
        for education in 0..16 {
            for occupation in 0..15 {
                for sex in 0..2 {
                    for marital in 0..7 {
                        for work_class in 0..9 {
                            assert_eq!(
                                income_case(education, occupation, sex, marital, work_class),
                                reference_income_case(
                                    education, occupation, sex, marital, work_class
                                ),
                                "education {education}, occupation {occupation}, sex {sex}, \
                                 marital {marital}, work-class {work_class}"
                            );
                        }
                    }
                }
            }
        }
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

    /// An RNG whose every draw is `raw`.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// The reference walk's category for the draw `k < 2⁵³`.
    fn reference_category(weights: &[f64], k: u64) -> u32 {
        reference_sample_weighted(&mut Fixed(k << (64 - DRAW_BITS)), weights)
    }

    /// Applies `check` to every row of the tables, with a label.
    fn for_each_row(mut check: impl FnMut(&str, &dyn Fn(u64) -> u32, &[f64], &[u64], &[u8])) {
        fn visit<const N: usize>(
            check: &mut impl FnMut(&str, &dyn Fn(u64) -> u32, &[f64], &[u64], &[u8]),
            label: String,
            row: &Weighted<N>,
        ) {
            check(
                &label,
                &|k| row.category(k),
                &row.weights,
                &row.cuts,
                &row.guide,
            );
        }
        let tables = tables();
        visit(&mut check, "sex".into(), &tables.sex);
        visit(&mut check, "education".into(), &tables.education);
        for (i, row) in tables.marital.iter().enumerate() {
            visit(&mut check, format!("marital[{i}]"), row);
        }
        for (i, row) in tables.relationship.iter().enumerate() {
            visit(&mut check, format!("relationship[{i}]"), row);
        }
        for (i, row) in tables.occupation.iter().enumerate() {
            visit(&mut check, format!("occupation[{i}]"), row);
        }
        for (i, row) in tables.work_class.iter().enumerate() {
            visit(&mut check, format!("work_class[{i}]"), row);
        }
        visit(&mut check, "race".into(), &tables.race);
    }

    /// The guide-table sampler agrees with the reference walk on all 2⁵³
    /// draws.  Both are non-decreasing step functions of the draw (see
    /// [`Weighted::new`]), so they agree everywhere once they agree at both
    /// ends and on both sides of every step of the table sampler: the walk
    /// cannot step between two draws the sampler maps to the same category.
    #[test]
    fn table_sampler_is_exact_at_every_cut() {
        let last = (1u64 << DRAW_BITS) - 1;
        let mut rows = 0;
        for_each_row(|label, category, weights, cuts, guide| {
            rows += 1;
            let n = weights.len();
            assert_eq!(cuts[n - 1], u64::MAX, "{label}: sentinel");
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "{label}: {cuts:?}");
            for (b, &g) in guide.iter().enumerate() {
                let first = (b as u64) << GUIDE_SHIFT;
                let expected = cuts.iter().filter(|&&c| c <= first).count();
                assert_eq!(usize::from(g), expected, "{label}: guide[{b}]");
            }
            let mut draws = vec![0, last];
            for &c in &cuts[..n - 1] {
                assert!(c <= 1 << DRAW_BITS, "{label}: cut {c}");
                draws.extend(c.checked_sub(1));
                draws.extend(Some(c).filter(|&c| c <= last));
            }
            for k in draws {
                assert_eq!(
                    category(k),
                    reference_category(weights, k),
                    "{label}, draw {k}"
                );
            }
        });
        assert_eq!(rows, 2 + 6 + 4 + 16 + 5 + 1);
    }

    /// FNV-1a-64 over the codes of `n` records the reference generator
    /// draws from `seed`; equals [`stream_hash`] when the streams agree.
    fn reference_stream_hash(seed: u64, n: usize) -> u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..n {
            for v in reference_sample_record(&mut rng) {
                h ^= u64::from(v);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Heavy sweep (`cargo test --release -p mdrr-data -- --ignored`):
    /// 2²⁴ random draws per row against the reference walk, and ten
    /// million records per seed against the untabulated generator.
    #[test]
    #[ignore = "heavy: about half a minute in release"]
    fn table_sampler_matches_reference_on_random_draws_and_long_streams() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for_each_row(|label, category, weights, _, _| {
            for _ in 0..1u32 << 24 {
                let k = rng.next_u64() >> (64 - DRAW_BITS);
                assert_eq!(
                    category(k),
                    reference_category(weights, k),
                    "{label}, draw {k}"
                );
            }
        });
        for seed in [1u64, 7, 42] {
            assert_eq!(
                stream_hash(seed, 10_000_000),
                reference_stream_hash(seed, 10_000_000),
                "seed {seed}"
            );
        }
    }
}
