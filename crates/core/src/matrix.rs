//! Randomization matrices.
//!
//! A randomization matrix `P` (Expression (1) of the paper) is an `r × r`
//! row-stochastic matrix where `p_uv = Pr(Y = v | X = u)`: the probability
//! of reporting category `v` when the true category is `u`.  The paper's
//! optimal matrices (Sections 2.3 and 6.3) all have the *uniform
//! perturbation* shape — a constant diagonal `p_u` and a constant
//! off-diagonal `p_d ≤ p_u` — which this module exploits:
//!
//! * randomizing a value costs O(1) instead of O(r);
//! * the unbiased estimator `π̂ = (Pᵀ)⁻¹ λ̂` of Equation (2) costs O(r) via
//!   the Sherman–Morrison closed form instead of O(r³);
//! * the differential-privacy level of Expression (4) is `ln(p_u / p_d)` in
//!   closed form.
//!
//! Arbitrary row-stochastic matrices are also supported (constructor
//! [`RRMatrix::from_matrix`]) and fall back to general linear algebra.

use crate::error::CoreError;
use mdrr_math::linsolve::{
    invert, solve, solve_uniform_perturbation, uniform_perturbation_condition,
};
use mdrr_math::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Internal representation of a randomization matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Form {
    /// Constant diagonal / constant off-diagonal matrix (`p_u`, `p_d`).
    Uniform {
        /// Diagonal entry `p_u = Pr(Y = u | X = u)`.
        diag: f64,
        /// Off-diagonal entry `p_d = Pr(Y = v | X = u)` for `v ≠ u`.
        off: f64,
    },
    /// Arbitrary row-stochastic matrix.
    General(Matrix),
}

/// A validated `r × r` randomization matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RRMatrix {
    r: usize,
    form: Form,
}

/// Probability tolerance used when validating stochasticity.
const TOL: f64 = 1e-9;

/// The number of uniform bits behind one draw: a raw `next_u64` output is
/// reduced to its top 53 bits, exactly the bits `rng.gen::<f64>()` keeps.
const DRAW_BITS: u32 = 53;

/// Largest channel domain counted through interleaved stack banks in
/// [`PreparedRandomizer::randomize_strided_tally`] (4 banks of this width
/// fit comfortably on the stack and zero quickly).
const TALLY_BANK_WIDTH: usize = 64;

/// The integer keep/redraw constants of a uniform-perturbation row,
/// precomputed once per matrix (or per call on the scalar path — the same
/// expressions either way, which is what keeps the two paths
/// bit-identical).
///
/// * `threshold` = `⌈diag · 2⁵³⌉`: a draw's top 53 bits `hi` satisfy
///   `hi < threshold` with probability exactly
///   `⌈diag · 2⁵³⌉ / 2⁵³` — the same probability the former
///   `gen::<f64>() < diag` comparison had, since `(hi · 2⁻⁵³) < diag ⟺
///   hi < ⌈diag · 2⁵³⌉` for integer `hi`.
/// * `redraw_scale` = `⌊(r − 1) · 2⁶⁴ / (2⁵³ − threshold)⌋`: the 64.64
///   fixed-point factor mapping the leftover mass
///   `hi − threshold ∈ [0, 2⁵³ − threshold)` onto `0 .. r − 1`
///   (`idx = (diff · redraw_scale) >> 64` is provably `< r − 1`, so no
///   clamp is needed; the non-uniformity of the map is below `2⁻¹⁰` of one
///   category even for the largest capped joint domains).
///
/// Everything is integer arithmetic — no float conversion, no division in
/// the hot loop — which is what lets the batched encoders run the kernel
/// at a few cycles per value.
#[inline]
fn uniform_row_constants(r: usize, diag: f64) -> (u64, u128) {
    let threshold = uniform_threshold(r, diag);
    (threshold, uniform_redraw_scale(r, threshold))
}

/// The keep threshold `⌈diag · 2⁵³⌉` alone (cheap: one multiply and a
/// ceil) — the scalar path computes this per call and derives the redraw
/// scale only when the (rarer) redraw branch is actually taken, so the
/// u128 division stays off the keep path.
#[inline]
fn uniform_threshold(r: usize, diag: f64) -> u64 {
    let full = 1u64 << DRAW_BITS;
    if diag >= 1.0 || r == 1 {
        full
    } else {
        ((diag * full as f64).ceil() as u64).min(full)
    }
}

/// The fixed-point redraw scale for a given threshold (one u128 division).
#[inline]
fn uniform_redraw_scale(r: usize, threshold: u64) -> u128 {
    let span = (1u64 << DRAW_BITS) - threshold;
    if span == 0 || r <= 1 {
        0
    } else {
        ((r as u128 - 1) << 64) / span as u128
    }
}

// The shared keep/redraw kernel below is the reason the batched and
// per-record paths are bit-identical: pure integer arithmetic, one draw
// per value.  mdrr-lint enforces that no float (and no allocation) ever
// sneaks back in.
// lint:region(no_float, no_alloc)

/// The redraw half of the kernel: maps the leftover mass `hi − threshold`
/// onto one of the `r − 1` categories other than `true_value`.  Shared by
/// the batched kernel and the scalar path so their arithmetic can never
/// diverge.
///
/// The arithmetic wraps because [`sample_uniform_raw`] also evaluates it
/// for draws it then keeps (`hi < threshold`) and discards the result;
/// near `diag = 1` the product can then exceed `u128`.  For a redraw
/// `diff = hi − threshold < span`, so the product is below
/// `(r − 1) · 2⁶⁴`, `idx < r − 1` and nothing wraps: the redrawn category
/// is the exact one.
#[inline]
fn uniform_redraw(threshold: u64, redraw_scale: u128, true_value: u32, hi: u64) -> u32 {
    let idx = (u128::from(hi.wrapping_sub(threshold)).wrapping_mul(redraw_scale) >> 64) as u32;
    idx.wrapping_add(u32::from(idx >= true_value))
}

/// The fused keep/redraw kernel of the uniform-perturbation form: maps one
/// raw 64-bit draw to the randomized category.
///
/// The row of `true_value` is `diag` at the true value and constant
/// elsewhere, so a single draw decides both questions at once: the top 53
/// bits below `threshold` keep the value, and otherwise the *leftover*
/// uniform mass selects one of the `r − 1` other categories through the
/// fixed-point `redraw_scale` (see [`uniform_row_constants`]).  One RNG
/// draw per value, no data-dependent extra draws; this is the draw
/// discipline both the per-record and the batched encoders share, which is
/// what makes them bit-identical under a common seed.
///
/// The redraw is always computed and the keep is a select, not a branch:
/// the keep decision is a coin flip (about 30% redraws at the benchmark's
/// keep probability), so a branch would be mispredicted that often.
#[inline]
fn sample_uniform_raw(threshold: u64, redraw_scale: u128, true_value: u32, raw: u64) -> u32 {
    let hi = raw >> (64 - DRAW_BITS);
    let redrawn = uniform_redraw(threshold, redraw_scale, true_value, hi);
    std::hint::select_unpredictable(hi < threshold, true_value, redrawn)
}

// lint:endregion(no_float, no_alloc)

/// One-draw inverse-CDF sampling along row `u` of a general row-stochastic
/// matrix: walk the row subtracting probabilities until the draw is spent.
#[inline]
fn sample_general_row(m: &Matrix, r: usize, u: usize, mut draw: f64) -> u32 {
    for (v, &p) in m.row(u).iter().enumerate() {
        draw -= p;
        if draw <= 0.0 {
            return v as u32;
        }
    }
    (r - 1) as u32
}

/// A matrix's randomization kernel with the form dispatch and constants
/// hoisted out — the per-value engine of the batched encoders.
///
/// Borrowing a [`PreparedRandomizer`] once per batch turns the per-value
/// work into pure integer arithmetic over *pre-drawn* raw u64s: no form
/// `match` re-resolution, no `Result`, no RNG virtual call in the loop.
/// The mapping from a raw draw to a randomized category is exactly the one
/// [`RRMatrix::randomize`] applies to one `next_u64` output (the same
/// integer threshold/fixed-point kernel), so a caller that feeds draws from
/// [`rand::RngCore::fill_u64`] in value order is bit-identical to
/// per-value `randomize` calls on the same RNG.
#[derive(Debug, Clone, Copy)]
pub struct PreparedRandomizer<'a> {
    r: usize,
    kind: PreparedKind<'a>,
}

#[derive(Debug, Clone, Copy)]
enum PreparedKind<'a> {
    Uniform { threshold: u64, redraw_scale: u128 },
    General(&'a Matrix),
}

impl PreparedRandomizer<'_> {
    /// Randomizes a whole column of (pre-validated) category codes with
    /// pre-drawn randomness, appending to `out`: value `i` uses
    /// `draws[offset + i · stride]`.
    ///
    /// The strided indexing is what lets a *column-at-a-time* encoder keep
    /// the *record-major* draw-to-value mapping of the per-record path
    /// (value `i` of channel `j` out of `m` always consumes draw
    /// `i · m + j` of the batch, no matter in which order the channels are
    /// processed) — column-major processing speed, per-record bit-identity.
    /// The form `match` is resolved once per call, the loop body is pure
    /// arithmetic, and `out` grows through one exact-size `extend`.
    ///
    /// # Panics
    /// Panics if `draws` is shorter than the strided indexing requires or
    /// `stride` is zero.
    #[inline]
    pub fn randomize_strided_into(
        &self,
        column: &[u32],
        draws: &[u64],
        offset: usize,
        stride: usize,
        out: &mut Vec<u32>,
    ) {
        assert!(stride > 0, "draw stride must be positive");
        assert!(
            column.is_empty() || offset + (column.len() - 1) * stride < draws.len(),
            "draw buffer too short for the strided column"
        );
        match self.kind {
            PreparedKind::Uniform {
                threshold,
                redraw_scale,
            } => {
                // lint:region(no_float, no_alloc)
                out.extend(column.iter().enumerate().map(|(i, &v)| {
                    sample_uniform_raw(threshold, redraw_scale, v, draws[offset + i * stride])
                }));
                // lint:endregion(no_float, no_alloc)
            }
            PreparedKind::General(m) => {
                let r = self.r;
                out.extend(column.iter().enumerate().map(|(i, &v)| {
                    let u = rand::unit_f64_from_u64(draws[offset + i * stride]);
                    sample_general_row(m, r, v as usize, u)
                }));
            }
        }
    }

    /// The counting sibling of
    /// [`PreparedRandomizer::randomize_strided_into`]: identical draws,
    /// identical randomized codes, but instead of materializing the codes
    /// it bumps `tally[code]` — the per-category sufficient statistics —
    /// in the same pass.  This is the hot loop of bulk ingestion, where
    /// the collector only ever needs the count vectors: fusing the count
    /// into the randomization avoids storing and re-reading every code.
    ///
    /// # Panics
    /// Panics if `tally.len() != r`, `draws` is shorter than the strided
    /// indexing requires, or `stride` is zero.
    #[inline]
    pub fn randomize_strided_tally(
        &self,
        column: &[u32],
        draws: &[u64],
        offset: usize,
        stride: usize,
        tally: &mut [u64],
    ) {
        assert!(stride > 0, "draw stride must be positive");
        assert!(
            column.is_empty() || offset + (column.len() - 1) * stride < draws.len(),
            "draw buffer too short for the strided column"
        );
        assert_eq!(tally.len(), self.r, "tally length must match the domain");
        match self.kind {
            PreparedKind::Uniform {
                threshold,
                redraw_scale,
            } => {
                // lint:region(no_float, no_alloc)
                if self.r <= TALLY_BANK_WIDTH {
                    // Four interleaved stack banks: consecutive values
                    // never increment the same counter slot, so the
                    // store-forwarding chains that serialize counting on
                    // low-cardinality channels (where most codes hit the
                    // same one or two categories) are broken.
                    let mut banks = [0u64; 4 * TALLY_BANK_WIDTH];
                    for (i, &v) in column.iter().enumerate() {
                        let code = sample_uniform_raw(
                            threshold,
                            redraw_scale,
                            v,
                            draws[offset + i * stride],
                        );
                        banks[(i & 3) * TALLY_BANK_WIDTH + code as usize] += 1;
                    }
                    for (code, slot) in tally.iter_mut().enumerate() {
                        *slot += banks[code]
                            + banks[TALLY_BANK_WIDTH + code]
                            + banks[2 * TALLY_BANK_WIDTH + code]
                            + banks[3 * TALLY_BANK_WIDTH + code];
                    }
                } else {
                    for (i, &v) in column.iter().enumerate() {
                        let code = sample_uniform_raw(
                            threshold,
                            redraw_scale,
                            v,
                            draws[offset + i * stride],
                        );
                        tally[code as usize] += 1;
                    }
                }
                // lint:endregion(no_float, no_alloc)
            }
            PreparedKind::General(m) => {
                for (i, &v) in column.iter().enumerate() {
                    let u = rand::unit_f64_from_u64(draws[offset + i * stride]);
                    let code = sample_general_row(m, self.r, v as usize, u);
                    tally[code as usize] += 1;
                }
            }
        }
    }
}

impl RRMatrix {
    /// The identity matrix: no randomization (and no privacy).
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if `r == 0`.
    pub fn identity(r: usize) -> Result<Self, CoreError> {
        if r == 0 {
            return Err(CoreError::invalid("r", "matrix dimension must be positive"));
        }
        Ok(RRMatrix {
            r,
            form: Form::Uniform {
                diag: 1.0,
                off: 0.0,
            },
        })
    }

    /// The "keep with probability `p`, otherwise redraw uniformly from the
    /// whole domain" mechanism of Proposition 1 / Corollary 1 (Section 4.1).
    ///
    /// Its matrix has diagonal `p + (1−p)/r` and off-diagonal `(1−p)/r`.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if `r == 0` or `p ∉ [0, 1]`.
    pub fn uniform_keep(p: f64, r: usize) -> Result<Self, CoreError> {
        if r == 0 {
            return Err(CoreError::invalid("r", "matrix dimension must be positive"));
        }
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(CoreError::invalid(
                "p",
                format!("keep probability must lie in [0, 1], got {p}"),
            ));
        }
        let off = (1.0 - p) / r as f64;
        Ok(RRMatrix {
            r,
            form: Form::Uniform { diag: p + off, off },
        })
    }

    /// The classic direct mechanism: report the true value with probability
    /// `p` and each *other* value with probability `(1−p)/(r−1)`.
    ///
    /// For `r == 1` the only valid matrix is the identity.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if `r == 0` or `p ∉ [0, 1]`.
    pub fn direct(p: f64, r: usize) -> Result<Self, CoreError> {
        if r == 0 {
            return Err(CoreError::invalid("r", "matrix dimension must be positive"));
        }
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(CoreError::invalid(
                "p",
                format!("keep probability must lie in [0, 1], got {p}"),
            ));
        }
        if r == 1 {
            return RRMatrix::identity(1);
        }
        let off = (1.0 - p) / (r - 1) as f64;
        Ok(RRMatrix {
            r,
            form: Form::Uniform { diag: p, off },
        })
    }

    /// The ε-differentially-private optimal matrix (Section 6.3): diagonal
    /// `p_u = e^ε / (e^ε + r − 1)` and off-diagonal `p_d = 1 / (e^ε + r − 1)`,
    /// so that `p_u / p_d = e^ε` exactly (Expression (4) holds with
    /// equality) and each row sums to 1.
    ///
    /// This is the matrix the experiments use for RR-Independent
    /// (Section 6.3.1); [`RRMatrix::cluster_from_epsilons`] builds the
    /// equivalent-risk matrix for a cluster (Section 6.3.2).
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if `r == 0` or `epsilon < 0`
    /// or non-finite.
    pub fn from_epsilon(epsilon: f64, r: usize) -> Result<Self, CoreError> {
        if r == 0 {
            return Err(CoreError::invalid("r", "matrix dimension must be positive"));
        }
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(CoreError::invalid(
                "epsilon",
                format!("privacy budget must be a non-negative finite number, got {epsilon}"),
            ));
        }
        if r == 1 {
            return RRMatrix::identity(1);
        }
        let e = epsilon.exp();
        let off = 1.0 / (e + r as f64 - 1.0);
        let diag = e * off;
        Ok(RRMatrix {
            r,
            form: Form::Uniform { diag, off },
        })
    }

    /// The cluster matrix of Section 6.3.2: given the per-attribute budgets
    /// `ε_A` that RR-Independent would spend on the attributes of a cluster,
    /// the equivalent-risk joint matrix over the cluster's `domain_size`
    /// combinations is the optimal matrix for `Σ_A ε_A`.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if `domain_size == 0`, the
    /// list of budgets is empty, or any budget is negative/non-finite.
    pub fn cluster_from_epsilons(epsilons: &[f64], domain_size: usize) -> Result<Self, CoreError> {
        if epsilons.is_empty() {
            return Err(CoreError::invalid(
                "epsilons",
                "cluster must contain at least one attribute budget",
            ));
        }
        if epsilons.iter().any(|e| !e.is_finite() || *e < 0.0) {
            return Err(CoreError::invalid(
                "epsilons",
                "all privacy budgets must be non-negative finite numbers",
            ));
        }
        RRMatrix::from_epsilon(epsilons.iter().sum(), domain_size)
    }

    /// Wraps an arbitrary row-stochastic matrix.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidMatrix`] if the matrix is not square or
    /// not row-stochastic (within `1e-9`).
    pub fn from_matrix(matrix: Matrix) -> Result<Self, CoreError> {
        if !matrix.is_square() {
            return Err(CoreError::invalid_matrix(format!(
                "randomization matrix must be square, got {}x{}",
                matrix.rows(),
                matrix.cols()
            )));
        }
        if matrix.rows() == 0 {
            return Err(CoreError::invalid_matrix(
                "randomization matrix must be non-empty",
            ));
        }
        if !matrix.is_row_stochastic(TOL) {
            return Err(CoreError::invalid_matrix(
                "every row must be a probability distribution (entries in [0,1] summing to 1)",
            ));
        }
        let r = matrix.rows();
        Ok(RRMatrix {
            r,
            form: Form::General(matrix),
        })
    }

    /// Number of categories `r`.
    pub fn size(&self) -> usize {
        self.r
    }

    /// The probability `p_uv = Pr(Y = v | X = u)`.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn prob(&self, u: usize, v: usize) -> f64 {
        assert!(u < self.r && v < self.r, "category index out of range");
        match &self.form {
            Form::Uniform { diag, off } => {
                if u == v {
                    *diag
                } else {
                    *off
                }
            }
            Form::General(m) => m.get(u, v),
        }
    }

    /// The diagonal entry, i.e. the probability of reporting the true value.
    /// For general matrices this is the minimum diagonal entry (the
    /// worst-case truthful-report probability).
    pub fn keep_probability(&self) -> f64 {
        match &self.form {
            Form::Uniform { diag, .. } => *diag,
            Form::General(m) => m.diagonal().into_iter().fold(f64::INFINITY, f64::min),
        }
    }

    /// Whether the matrix has the structured constant-diagonal /
    /// constant-off-diagonal shape (and therefore O(r) estimation).
    pub fn is_uniform_perturbation(&self) -> bool {
        matches!(self.form, Form::Uniform { .. })
    }

    /// Materialises the matrix as a dense [`Matrix`] (row-major, rows are
    /// conditional distributions).
    pub fn to_matrix(&self) -> Matrix {
        match &self.form {
            Form::Uniform { diag, off } => {
                Matrix::from_fn(self.r, self.r, |i, j| if i == j { *diag } else { *off })
            }
            Form::General(m) => m.clone(),
        }
    }

    /// The ε-differential-privacy level of the matrix per Expression (4):
    /// `ε = ln( max_v max_u p_uv / min_u p_uv )`.
    ///
    /// Returns `f64::INFINITY` when some column contains a zero probability
    /// together with a positive one (e.g. the identity matrix), which is the
    /// correct degenerate value: such a mechanism offers no differential
    /// privacy.
    pub fn epsilon(&self) -> f64 {
        match &self.form {
            Form::Uniform { diag, off } => {
                if self.r == 1 {
                    0.0
                } else if *off <= 0.0 {
                    if *diag <= 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (diag / off).max(off / diag).ln()
                }
            }
            Form::General(m) => {
                let mut worst: f64 = 1.0;
                for v in 0..self.r {
                    let col = m.column(v);
                    let max = col.iter().cloned().fold(f64::MIN, f64::max);
                    let min = col.iter().cloned().fold(f64::MAX, f64::min);
                    if max <= 0.0 {
                        continue;
                    }
                    if min <= 0.0 {
                        return f64::INFINITY;
                    }
                    worst = worst.max(max / min);
                }
                worst.ln()
            }
        }
    }

    /// Error-propagation diagnostic: ratio of the extreme eigenvalues of
    /// `Pᵀ` (the `P_max / P_min` lower bound of Section 2.3, following
    /// Agrawal & Haritsa).  For general matrices this falls back to a
    /// singular-value-free proxy based on the inverse's norm and is intended
    /// for diagnostics only.
    pub fn condition_number(&self) -> Result<f64, CoreError> {
        match &self.form {
            Form::Uniform { diag, off } => {
                Ok(uniform_perturbation_condition(diag - off, *off, self.r)?)
            }
            Form::General(m) => {
                let inv = invert(&m.transpose())?;
                Ok(m.frobenius_norm() * inv.frobenius_norm() / self.r as f64)
            }
        }
    }

    /// Randomizes one category code according to row `true_value` of the
    /// matrix.
    ///
    /// Consumes exactly one RNG draw per value for the uniform-perturbation
    /// form (the fused keep/redraw kernel) and one per value for general
    /// matrices, so randomizing `n` values always advances the RNG by `n`
    /// draws regardless of the outcomes — the invariant the batched
    /// encoders rely on to be bit-identical to this per-value path.
    ///
    /// # Errors
    /// Returns [`CoreError::DimensionMismatch`] if `true_value >= r`.
    pub fn randomize(&self, true_value: u32, rng: &mut impl Rng) -> Result<u32, CoreError> {
        let u = true_value as usize;
        if u >= self.r {
            return Err(CoreError::DimensionMismatch {
                context: "randomize".to_string(),
                expected: self.r,
                got: u,
            });
        }
        match &self.form {
            Form::Uniform { diag, .. } => {
                // Same arithmetic as the batched kernel, but the u128
                // division behind the redraw scale only runs when the
                // redraw branch is actually taken.
                let threshold = uniform_threshold(self.r, *diag);
                let hi = rng.next_u64() >> (64 - DRAW_BITS);
                Ok(if hi < threshold {
                    true_value
                } else {
                    uniform_redraw(
                        threshold,
                        uniform_redraw_scale(self.r, threshold),
                        true_value,
                        hi,
                    )
                })
            }
            Form::General(m) => Ok(sample_general_row(m, self.r, u, rng.gen())),
        }
    }

    /// The matrix's randomization kernel with form dispatch and constants
    /// hoisted — see [`PreparedRandomizer`].
    pub fn prepared(&self) -> PreparedRandomizer<'_> {
        PreparedRandomizer {
            r: self.r,
            kind: match &self.form {
                Form::Uniform { diag, .. } => {
                    let (threshold, redraw_scale) = uniform_row_constants(self.r, *diag);
                    PreparedKind::Uniform {
                        threshold,
                        redraw_scale,
                    }
                }
                Form::General(m) => PreparedKind::General(m),
            },
        }
    }

    /// Randomizes a whole column of category codes — the batched sibling
    /// of [`RRMatrix::randomize`].
    ///
    /// The column is validated in one pass up front (a single range check
    /// per batch rather than one per value), then its draws are taken in
    /// 256-value [`rand::RngCore::fill_u64`] chunks on the stack and fed to
    /// [`PreparedRandomizer::randomize_strided_into`].  The draws consumed
    /// are exactly the draws [`RRMatrix::randomize`] would consume on the
    /// same values in the same order, so the output is bit-identical to
    /// the per-value path under a shared RNG.
    ///
    /// # Errors
    /// Returns [`CoreError::DimensionMismatch`] if any code is out of range;
    /// no randomness is consumed then.
    pub fn randomize_column(
        &self,
        column: &[u32],
        rng: &mut impl Rng,
    ) -> Result<Vec<u32>, CoreError> {
        if let Some(&bad) = column.iter().find(|&&v| v as usize >= self.r) {
            return Err(CoreError::DimensionMismatch {
                context: "randomize_column".to_string(),
                expected: self.r,
                got: bad as usize,
            });
        }
        let prepared = self.prepared();
        let mut draws = [0u64; 256];
        let mut out = Vec::with_capacity(column.len());
        for chunk in column.chunks(draws.len()) {
            let draws = &mut draws[..chunk.len()];
            rng.fill_u64(draws);
            prepared.randomize_strided_into(chunk, draws, 0, 1, &mut out);
        }
        Ok(out)
    }

    /// Propagates a true distribution through the mechanism:
    /// `λ = Pᵀ π` (the expected distribution of the randomized reports).
    ///
    /// # Errors
    /// Returns [`CoreError::DimensionMismatch`] if `pi.len() != r`.
    pub fn expected_reported_distribution(&self, pi: &[f64]) -> Result<Vec<f64>, CoreError> {
        if pi.len() != self.r {
            return Err(CoreError::DimensionMismatch {
                context: "expected_reported_distribution".to_string(),
                expected: self.r,
                got: pi.len(),
            });
        }
        match &self.form {
            Form::Uniform { diag, off } => {
                // λ_v = off · Σ_u π_u + (diag − off) π_v
                let total: f64 = pi.iter().sum();
                Ok(pi.iter().map(|&p| off * total + (diag - off) * p).collect())
            }
            Form::General(m) => Ok(m.vecmat(pi)?),
        }
    }

    /// Applies the unbiased estimator of Equation (2) to an empirical
    /// reported distribution: `π̂ = (Pᵀ)⁻¹ λ̂`.  The result may contain
    /// values outside `[0, 1]`; see `mdrr_core::estimate` for the proper
    /// post-processing.
    ///
    /// # Errors
    /// * [`CoreError::DimensionMismatch`] if `lambda_hat.len() != r`;
    /// * [`CoreError::Math`] if the matrix is singular.
    pub fn estimate_true_distribution(&self, lambda_hat: &[f64]) -> Result<Vec<f64>, CoreError> {
        if lambda_hat.len() != self.r {
            return Err(CoreError::DimensionMismatch {
                context: "estimate_true_distribution".to_string(),
                expected: self.r,
                got: lambda_hat.len(),
            });
        }
        match &self.form {
            Form::Uniform { diag, off } => {
                // Pᵀ = P for the uniform-perturbation shape (it is symmetric),
                // so the O(r) Sherman–Morrison solve applies directly.
                Ok(solve_uniform_perturbation(diag - off, *off, lambda_hat)?)
            }
            Form::General(m) => Ok(solve(&m.transpose(), lambda_hat)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol,
            "expected {expected}, got {actual} (tol {tol})"
        );
    }

    #[test]
    fn constructors_validate_parameters() {
        assert!(RRMatrix::identity(0).is_err());
        assert!(RRMatrix::uniform_keep(-0.1, 3).is_err());
        assert!(RRMatrix::uniform_keep(1.1, 3).is_err());
        assert!(RRMatrix::uniform_keep(0.5, 0).is_err());
        assert!(RRMatrix::direct(f64::NAN, 3).is_err());
        assert!(RRMatrix::from_epsilon(-1.0, 3).is_err());
        assert!(RRMatrix::from_epsilon(f64::INFINITY, 3).is_err());
        assert!(RRMatrix::cluster_from_epsilons(&[], 10).is_err());
        assert!(RRMatrix::cluster_from_epsilons(&[1.0, -0.5], 10).is_err());
    }

    #[test]
    fn rows_are_stochastic_for_all_constructors() {
        let matrices = [
            RRMatrix::identity(4).unwrap(),
            RRMatrix::uniform_keep(0.7, 5).unwrap(),
            RRMatrix::direct(0.3, 6).unwrap(),
            RRMatrix::from_epsilon(1.5, 9).unwrap(),
            RRMatrix::cluster_from_epsilons(&[0.5, 0.8, 1.1], 30).unwrap(),
        ];
        for m in &matrices {
            assert!(m.to_matrix().is_row_stochastic(1e-9), "{m:?}");
        }
    }

    #[test]
    fn uniform_keep_matches_proposition_1_model() {
        let p = 0.7;
        let r = 5;
        let m = RRMatrix::uniform_keep(p, r).unwrap();
        assert_close(m.prob(2, 2), p + (1.0 - p) / r as f64, 1e-12);
        assert_close(m.prob(2, 3), (1.0 - p) / r as f64, 1e-12);
        assert!(m.is_uniform_perturbation());
    }

    #[test]
    fn direct_matrix_entries() {
        let m = RRMatrix::direct(0.6, 5).unwrap();
        assert_close(m.prob(0, 0), 0.6, 1e-12);
        assert_close(m.prob(0, 4), 0.1, 1e-12);
        assert_close(m.keep_probability(), 0.6, 1e-12);
        // r = 1 degenerates to identity.
        let one = RRMatrix::direct(0.2, 1).unwrap();
        assert_eq!(one.prob(0, 0), 1.0);
    }

    #[test]
    fn epsilon_matrix_attains_the_bound_with_equality() {
        for &(eps, r) in &[(0.5, 2usize), (1.0, 9), (2.0, 16), (4.0, 100)] {
            let m = RRMatrix::from_epsilon(eps, r).unwrap();
            assert_close(m.epsilon(), eps, 1e-9);
            assert!(m.to_matrix().is_row_stochastic(1e-9));
            // Diagonal dominates off-diagonal by exactly e^ε.
            assert_close(m.prob(0, 0) / m.prob(0, 1), eps.exp(), 1e-9);
        }
    }

    #[test]
    fn cluster_matrix_spends_the_summed_budget() {
        let eps = [0.4, 0.7, 0.9];
        let m = RRMatrix::cluster_from_epsilons(&eps, 42).unwrap();
        assert_close(m.epsilon(), eps.iter().sum(), 1e-9);
    }

    #[test]
    fn epsilon_of_identity_is_infinite_and_of_uniform_is_zero() {
        assert_eq!(RRMatrix::identity(3).unwrap().epsilon(), f64::INFINITY);
        // p = 0 in uniform_keep means the output is uniform regardless of the
        // input: perfect privacy, ε = 0.
        assert_close(
            RRMatrix::uniform_keep(0.0, 4).unwrap().epsilon(),
            0.0,
            1e-12,
        );
        // A single category carries no information at all.
        assert_eq!(RRMatrix::identity(1).unwrap().epsilon(), 0.0);
    }

    #[test]
    fn general_matrix_validation_and_epsilon() {
        let m = Matrix::from_rows(&[vec![0.8, 0.2], vec![0.4, 0.6]]).unwrap();
        let rr = RRMatrix::from_matrix(m).unwrap();
        assert!(!rr.is_uniform_perturbation());
        // Column ratios: max(0.8/0.4, 0.6/0.2) = 3.
        assert_close(rr.epsilon(), 3.0f64.ln(), 1e-12);
        assert_close(rr.keep_probability(), 0.6, 1e-12);

        let bad = Matrix::from_rows(&[vec![0.5, 0.4], vec![0.4, 0.6]]).unwrap();
        assert!(RRMatrix::from_matrix(bad).is_err());
        let non_square = Matrix::zeros(2, 3);
        assert!(RRMatrix::from_matrix(non_square).is_err());
    }

    #[test]
    fn randomize_identity_is_noop_and_validates_range() {
        let m = RRMatrix::identity(4).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for v in 0..4u32 {
            assert_eq!(m.randomize(v, &mut rng).unwrap(), v);
        }
        assert!(m.randomize(4, &mut rng).is_err());
    }

    #[test]
    fn randomize_empirical_distribution_matches_matrix_row() {
        let m = RRMatrix::direct(0.6, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[m.randomize(1, &mut rng).unwrap() as usize] += 1;
        }
        let freq: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        assert_close(freq[1], 0.6, 0.01);
        for v in [0usize, 2, 3] {
            assert_close(freq[v], 0.4 / 3.0, 0.01);
        }
    }

    #[test]
    fn randomize_general_matrix_matches_row() {
        let m =
            RRMatrix::from_matrix(Matrix::from_rows(&[vec![0.1, 0.9], vec![0.5, 0.5]]).unwrap())
                .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mut ones = 0usize;
        for _ in 0..n {
            if m.randomize(0, &mut rng).unwrap() == 1 {
                ones += 1;
            }
        }
        assert_close(ones as f64 / n as f64, 0.9, 0.01);
    }

    #[test]
    fn estimation_roundtrips_expected_distribution() {
        // λ = Pᵀ π, then π̂ = (Pᵀ)⁻¹ λ must recover π exactly.
        let pi = vec![0.5, 0.3, 0.15, 0.05];
        for m in [
            RRMatrix::direct(0.55, 4).unwrap(),
            RRMatrix::uniform_keep(0.4, 4).unwrap(),
            RRMatrix::from_epsilon(1.2, 4).unwrap(),
        ] {
            let lambda = m.expected_reported_distribution(&pi).unwrap();
            assert_close(lambda.iter().sum::<f64>(), 1.0, 1e-12);
            let back = m.estimate_true_distribution(&lambda).unwrap();
            for (a, b) in back.iter().zip(pi.iter()) {
                assert_close(*a, *b, 1e-10);
            }
        }
    }

    #[test]
    fn estimation_matches_general_path() {
        let m = RRMatrix::direct(0.5, 5).unwrap();
        let general = RRMatrix::from_matrix(m.to_matrix()).unwrap();
        let lambda = vec![0.3, 0.25, 0.2, 0.15, 0.1];
        let fast = m.estimate_true_distribution(&lambda).unwrap();
        let slow = general.estimate_true_distribution(&lambda).unwrap();
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn estimation_validates_dimension() {
        let m = RRMatrix::direct(0.5, 3).unwrap();
        assert!(m.estimate_true_distribution(&[0.5, 0.5]).is_err());
        assert!(m.expected_reported_distribution(&[0.5, 0.5]).is_err());
    }

    #[test]
    fn condition_number_grows_with_stronger_randomization() {
        let weak = RRMatrix::direct(0.9, 5)
            .unwrap()
            .condition_number()
            .unwrap();
        let strong = RRMatrix::direct(0.3, 5)
            .unwrap()
            .condition_number()
            .unwrap();
        assert!(strong > weak);
    }

    #[test]
    fn more_off_diagonal_mass_means_smaller_epsilon() {
        let strong_privacy = RRMatrix::direct(0.3, 5).unwrap().epsilon();
        let weak_privacy = RRMatrix::direct(0.9, 5).unwrap().epsilon();
        assert!(strong_privacy < weak_privacy);
    }

    /// An RNG that replays a fixed list of draws.
    struct Replay<'a>(std::slice::Iter<'a, u64>);

    impl RngCore for Replay<'_> {
        fn next_u64(&mut self) -> u64 {
            *self.0.next().expect("replay ran out of draws")
        }
    }

    /// Value `i` of `column` randomized with the raw draw `raws[i]` gives
    /// the same code through `randomize_column`, `randomize_strided_into`
    /// and `randomize_strided_tally` as through the scalar `randomize`.
    fn assert_batch_matches_scalar(m: &RRMatrix, column: &[u32], raws: &[u64]) {
        let r = m.size();
        let mut scalar = Replay(raws.iter());
        let expected: Vec<u32> = column
            .iter()
            .map(|&v| m.randomize(v, &mut scalar).unwrap())
            .collect();
        let context = format!("{m:?}");
        assert_eq!(
            m.randomize_column(column, &mut Replay(raws.iter()))
                .unwrap(),
            expected,
            "randomize_column, {context}"
        );

        // Value `i` reads draw `OFFSET + i · STRIDE`; every other slot holds
        // a different draw, so a wrong index shows.
        const OFFSET: usize = 2;
        const STRIDE: usize = 3;
        let mut draws: Vec<u64> = (0..OFFSET + raws.len() * STRIDE)
            .map(|i| !raws[i / STRIDE % raws.len()])
            .collect();
        for (i, &raw) in raws.iter().enumerate() {
            draws[OFFSET + i * STRIDE] = raw;
        }
        let prepared = m.prepared();
        let mut out = Vec::new();
        prepared.randomize_strided_into(column, &draws, OFFSET, STRIDE, &mut out);
        assert_eq!(out, expected, "randomize_strided_into, {context}");

        let mut tally = vec![0u64; r];
        prepared.randomize_strided_tally(column, &draws, OFFSET, STRIDE, &mut tally);
        let mut expected_tally = vec![0u64; r];
        for &code in &expected {
            expected_tally[code as usize] += 1;
        }
        assert_eq!(tally, expected_tally, "randomize_strided_tally, {context}");
    }

    /// The keep probabilities of the kernel tests: the ends, the middle,
    /// and diagonals so close to 1 that the redraw span is a few units,
    /// where the redraw scale is largest.
    fn kernel_test_matrices(r: usize) -> Vec<RRMatrix> {
        let ulp = 1.0 / (1u64 << DRAW_BITS) as f64;
        let mut matrices: Vec<RRMatrix> = [0.0, 0.1, 0.5, 0.7, 0.999]
            .into_iter()
            .chain([5.0, 2.0, 1.0].map(|k| 1.0 - k * ulp))
            .chain([1.0])
            .map(|p| RRMatrix::direct(p, r).unwrap())
            .collect();
        matrices.push(RRMatrix::uniform_keep(0.7, r).unwrap());
        matrices.push(RRMatrix::from_epsilon(1.0, r).unwrap());
        matrices
    }

    /// The keep/redraw select equals the scalar branch at its boundaries:
    /// draws whose top 53 bits are 0, `threshold − 1`, `threshold`,
    /// `threshold + 1` and `2⁵³ − 1`, for every true value.  In a debug
    /// build this also checks that the redraw, computed for kept draws
    /// too, wraps instead of overflowing when the span is a few units.
    #[test]
    fn select_kernel_matches_scalar_at_the_keep_boundary() {
        let full = 1u64 << DRAW_BITS;
        let mut wrapped = false;
        for r in [2usize, 3, 64, 65, 144, 1008] {
            let column: Vec<u32> = (0..r as u32).collect();
            let mut spans = Vec::new();
            for m in kernel_test_matrices(r) {
                let (threshold, redraw_scale) = uniform_row_constants(r, m.prob(0, 0));
                spans.push(full - threshold);
                let his = [0, full - 1]
                    .into_iter()
                    .chain(threshold.checked_sub(1))
                    .chain(
                        [threshold, threshold + 1]
                            .into_iter()
                            .filter(|&hi| hi < full),
                    );
                for hi in his {
                    wrapped |= u128::from(hi.wrapping_sub(threshold))
                        .checked_mul(redraw_scale)
                        .is_none();
                    // The low 11 bits are not part of the draw.
                    for low in [0, (1 << (64 - DRAW_BITS)) - 1] {
                        let raws = vec![hi << (64 - DRAW_BITS) | low; r];
                        assert_batch_matches_scalar(&m, &column, &raws);
                    }
                }
            }
            assert!(
                [5, 2, 1].iter().all(|k| spans.contains(k)),
                "r {r}: spans {spans:?}"
            );
        }
        assert!(wrapped, "no kept draw reached the wrapping product");
    }

    /// Heavy sweep (`cargo test --release -p mdrr-core -- --ignored`): every
    /// domain up to the banked tally's width plus two wide ones, the kernel
    /// test matrices, and 2²⁰ random values and draws each.
    #[test]
    #[ignore = "heavy: under a minute in release"]
    fn select_kernel_matches_scalar_on_random_draws() {
        let mut rng = StdRng::seed_from_u64(0x5e1ec7);
        let n = 1 << 20;
        for r in (1..=TALLY_BANK_WIDTH).chain([144, 1008]) {
            for m in kernel_test_matrices(r) {
                let column: Vec<u32> = (0..n).map(|_| rng.gen_range(0..r) as u32).collect();
                let mut raws = vec![0u64; n];
                rng.fill_u64(&mut raws);
                assert_batch_matches_scalar(&m, &column, &raws);
            }
        }
    }
}
