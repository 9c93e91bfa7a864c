//! Randomization matrices.
//!
//! A randomization matrix `P` (Expression (1) of the paper) is an `r × r`
//! row-stochastic matrix where `p_uv = Pr(Y = v | X = u)`: the probability
//! of reporting category `v` when the true category is `u`.  The paper's
//! optimal matrices (Sections 2.3 and 6.3), and every mechanism this
//! workspace runs, have the *uniform perturbation* shape `aI + bJ` — a
//! constant diagonal `p_u` and a constant off-diagonal `p_d` — and
//! [`RRMatrix`] holds exactly that form:
//!
//! * randomizing a value costs O(1) instead of O(r);
//! * the unbiased estimator `π̂ = (Pᵀ)⁻¹ λ̂` of Equation (2) costs O(r) via
//!   the Sherman–Morrison closed form instead of O(r³);
//! * the differential-privacy level of Expression (4) is `ln(p_u / p_d)` in
//!   closed form.
//!
//! [`RRMatrix::to_matrix`] materialises the dense matrix for callers (and
//! tests) that want the general linear algebra of `mdrr_math`.

use crate::error::CoreError;
use mdrr_math::linsolve::{solve_uniform_perturbation, uniform_perturbation_condition};
use mdrr_math::Matrix;
use rand::Rng;

/// A validated `r × r` uniform-perturbation randomization matrix: `diag`
/// on the diagonal, `off` everywhere else.
#[derive(Debug, Clone, PartialEq)]
pub struct RRMatrix {
    r: usize,
    /// Diagonal entry `p_u = Pr(Y = u | X = u)`.
    diag: f64,
    /// Off-diagonal entry `p_d = Pr(Y = v | X = u)` for `v ≠ u`.
    off: f64,
}

/// The number of uniform bits behind one draw: a raw `next_u64` output is
/// reduced to its top 53 bits, exactly the bits `rng.gen::<f64>()` keeps.
const DRAW_BITS: u32 = 53;

/// Largest channel domain [`PreparedRandomizer::randomize_strided_tally`]
/// counts through four interleaved banks ([`ChannelTally`]).  Above it a
/// count goes straight into the tally.
///
/// The banks break the store-forwarding chains of a low-cardinality
/// channel, where consecutive values keep incrementing the same one or two
/// counters.  They cost `4·r` counters, zeroed once per [`ChannelTally`]
/// and folded into the count vector once.  Counting 4096 randomized
/// Zipf-distributed codes per call, banks and fold included, measured
/// 0.6–0.9 ns/value banked against 0.8–1.6 direct for every domain up to
/// 512 cells, and lost from 1008 cells on (1.15 against 1.08 at 1008, 1.17
/// against 0.78 at 2048; 2-vCPU Xeon).  At 512 cells the banks fill
/// 16 KiB, so they and the encoders' 8 KiB draw block share a 32 KiB L1
/// data cache.
pub const TALLY_BANK_CAP: usize = 512;

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

/// A fixed-point redraw scale: `u128` in general, `u64` when the scale is
/// below `2⁶⁴` (every matrix whose redraw span exceeds `r − 1`), where the
/// product is one 64×64→128-bit multiply instead of three.
trait RedrawScale: Copy {
    /// The top 64 bits of `diff · self`, truncated to `u32`, wrapping for
    /// the discarded products of kept draws.
    fn scaled(self, diff: u64) -> u32;
}

impl RedrawScale for u64 {
    #[inline]
    fn scaled(self, diff: u64) -> u32 {
        // Both factors are below 2⁶⁴, so the product never wraps.
        ((u128::from(diff) * u128::from(self)) >> 64) as u32
    }
}

impl RedrawScale for u128 {
    #[inline]
    fn scaled(self, diff: u64) -> u32 {
        (u128::from(diff).wrapping_mul(self) >> 64) as u32
    }
}

/// The redraw half of the kernel: maps the leftover mass `hi − threshold`
/// onto one of the `r − 1` categories other than `true_value`.  Shared by
/// the batched kernel and the scalar path so their arithmetic can never
/// diverge.
///
/// The arithmetic wraps because [`UniformKernel::sample`] also evaluates it
/// for draws it then keeps (`hi < threshold`) and discards the result;
/// near `diag = 1` the product can then exceed `u128`.  For a redraw
/// `diff = hi − threshold < span`, so the product is below
/// `(r − 1) · 2⁶⁴`, `idx < r − 1` and nothing wraps: the redrawn category
/// is the exact one, whichever width holds the scale.
#[inline]
fn uniform_redraw<S: RedrawScale>(
    threshold: u64,
    redraw_scale: S,
    true_value: u32,
    hi: u64,
) -> u32 {
    let idx = redraw_scale.scaled(hi.wrapping_sub(threshold));
    idx.wrapping_add(u32::from(idx >= true_value))
}

/// The fused keep/redraw kernel of the uniform-perturbation form, with its
/// constants (see [`uniform_row_constants`]) and the redraw scale at the
/// width [`RRMatrix::prepared`] chose.  One generic body, instantiated for
/// a `u64` and a `u128` scale.
#[derive(Debug, Clone, Copy)]
struct UniformKernel<S> {
    threshold: u64,
    redraw_scale: S,
}

impl<S: RedrawScale> UniformKernel<S> {
    /// Maps one raw 64-bit draw to the randomized category.
    ///
    /// The row of `true_value` is `diag` at the true value and constant
    /// elsewhere, so a single draw decides both questions at once: the top
    /// 53 bits below `threshold` keep the value, and otherwise the
    /// *leftover* uniform mass selects one of the `r − 1` other categories
    /// through the fixed-point `redraw_scale`.  One RNG draw per value, no
    /// data-dependent extra draws; this is the draw discipline both the
    /// per-record and the batched encoders share, which is what makes them
    /// bit-identical under a common seed.
    ///
    /// The redraw is always computed and the keep is a select, not a
    /// branch: the keep decision is a coin flip (about 30% redraws at the
    /// benchmark's keep probability), so a branch would be mispredicted
    /// that often.
    #[inline]
    fn sample(self, true_value: u32, raw: u64) -> u32 {
        let hi = raw >> (64 - DRAW_BITS);
        let redrawn = uniform_redraw(self.threshold, self.redraw_scale, true_value, hi);
        std::hint::select_unpredictable(hi < self.threshold, true_value, redrawn)
    }

    /// Appends the randomized `column`, value `i` drawing `raws`' item `i`.
    #[inline]
    fn extend<'d>(self, column: &[u32], raws: impl Iterator<Item = &'d u64>, out: &mut Vec<u32>) {
        out.extend(
            column
                .iter()
                .zip(raws)
                .map(|(&v, &raw)| self.sample(v, raw)),
        );
    }

    /// Counts the randomized `column` into `tally`, value `i` drawing
    /// `raws`' item `i`.
    #[inline]
    fn tally<'d>(
        self,
        column: &[u32],
        mut raws: impl Iterator<Item = &'d u64>,
        tally: &mut ChannelTally,
    ) {
        let r = tally.r;
        if r <= TALLY_BANK_CAP {
            // Value `i` counts into bank `i mod 4`, so consecutive values
            // never increment the same counter.
            let (low, high) = tally.counts.split_at_mut(2 * r);
            let (b0, b1) = low.split_at_mut(r);
            let (b2, b3) = high.split_at_mut(r);
            let mut banks = [b0, b1, b2, b3];
            let (quads, rest) = column.as_chunks::<4>();
            for quad in quads {
                for (bank, (&v, &raw)) in banks.iter_mut().zip(quad.iter().zip(&mut raws)) {
                    bank[self.sample(v, raw) as usize] += 1;
                }
            }
            for (bank, (&v, &raw)) in banks.iter_mut().zip(rest.iter().zip(&mut raws)) {
                bank[self.sample(v, raw) as usize] += 1;
            }
        } else {
            for (&v, &raw) in column.iter().zip(raws) {
                tally.counts[self.sample(v, raw) as usize] += 1;
            }
        }
    }
}

// lint:endregion(no_float, no_alloc)

/// A matrix's randomization kernel with its constants hoisted out — the
/// per-value engine of the batched encoders.
///
/// Preparing a [`PreparedRandomizer`] once per batch turns the per-value
/// work into pure integer arithmetic over *pre-drawn* raw u64s: no
/// constant re-derivation, no `Result`, no RNG virtual call in the loop.
/// The mapping from a raw draw to a randomized category is exactly the one
/// [`RRMatrix::randomize`] applies to one `next_u64` output (the same
/// integer threshold/fixed-point kernel), so a caller that feeds draws from
/// [`rand::RngCore::fill_u64`] in value order is bit-identical to
/// per-value `randomize` calls on the same RNG.
#[derive(Debug, Clone, Copy)]
pub struct PreparedRandomizer {
    r: usize,
    kind: PreparedKind,
}

/// The kernel at the redraw-scale width [`RRMatrix::prepared`] chose.
#[derive(Debug, Clone, Copy)]
enum PreparedKind {
    /// A uniform-perturbation matrix whose redraw scale fits 64 bits.
    Uniform(UniformKernel<u64>),
    /// A uniform-perturbation matrix with a keep probability within
    /// `(r − 1) · 2⁻⁵³` of 1, whose redraw scale needs 128 bits.
    UniformWide(UniformKernel<u128>),
}

/// One channel's count vector while a batch is counted into it: four
/// interleaved banks of `r` counters for a domain of at most
/// [`TALLY_BANK_CAP`] cells, one plain vector above.
///
/// Create one per channel and call, count every chunk of the call into it
/// with [`PreparedRandomizer::randomize_strided_tally`], then add it to the
/// channel's counts with [`ChannelTally::add_to`]: the banks are zeroed
/// and folded once per call, not per chunk.
#[derive(Debug, Clone)]
pub struct ChannelTally {
    r: usize,
    /// `4·r` counters (bank `b` is `counts[b·r..(b+1)·r]`) when `r` is at
    /// most [`TALLY_BANK_CAP`], else `r`.
    counts: Vec<u64>,
}

impl ChannelTally {
    /// An all-zero tally over a domain of `r` cells.
    pub fn new(r: usize) -> Self {
        let banks = if r <= TALLY_BANK_CAP { 4 } else { 1 };
        ChannelTally {
            r,
            counts: vec![0; banks * r],
        }
    }

    /// Adds the counts to `tally`, cell by cell.
    ///
    /// # Panics
    /// Panics if `tally.len()` differs from the domain size.
    pub fn add_to(&self, tally: &mut [u64]) {
        assert_eq!(tally.len(), self.r, "tally length must match the domain");
        for bank in self.counts.chunks_exact(self.r.max(1)) {
            for (slot, &count) in tally.iter_mut().zip(bank) {
                *slot += count;
            }
        }
    }
}

impl PreparedRandomizer {
    /// Randomizes a whole column of (pre-validated) category codes with
    /// pre-drawn randomness, appending to `out`: value `i` uses
    /// `draws[offset + i · stride]`.
    ///
    /// The strided indexing is what lets a *column-at-a-time* encoder keep
    /// the *record-major* draw-to-value mapping of the per-record path
    /// (value `i` of channel `j` out of `m` always consumes draw
    /// `i · m + j` of the batch, no matter in which order the channels are
    /// processed) — column-major processing speed, per-record bit-identity.
    /// The kernel width is resolved once per call, the draws are read
    /// through a strided slice iterator (no bounds check per value), and
    /// `out` grows through one `extend`.
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
        let raws = strided(column, draws, offset, stride);
        match self.kind {
            PreparedKind::Uniform(kernel) => kernel.extend(column, raws, out),
            PreparedKind::UniformWide(kernel) => kernel.extend(column, raws, out),
        }
    }

    /// The counting sibling of
    /// [`PreparedRandomizer::randomize_strided_into`]: identical draws,
    /// identical randomized codes, but instead of materializing the codes
    /// it bumps the count of each code in `tally` — the per-category
    /// sufficient statistics — in the same pass.  This is the hot loop of
    /// bulk ingestion, where the collector only ever needs the count
    /// vectors: fusing the count into the randomization avoids storing and
    /// re-reading every code.
    ///
    /// # Panics
    /// Panics if `tally` is over another domain size, `draws` is shorter
    /// than the strided indexing requires, or `stride` is zero.
    #[inline]
    pub fn randomize_strided_tally(
        &self,
        column: &[u32],
        draws: &[u64],
        offset: usize,
        stride: usize,
        tally: &mut ChannelTally,
    ) {
        let raws = strided(column, draws, offset, stride);
        assert_eq!(tally.r, self.r, "tally must be over the matrix's domain");
        match self.kind {
            PreparedKind::Uniform(kernel) => kernel.tally(column, raws, tally),
            PreparedKind::UniformWide(kernel) => kernel.tally(column, raws, tally),
        }
    }
}

/// The draws of `column`'s values, `draws[offset + i · stride]` for value
/// `i`, as a slice iterator.
///
/// # Panics
/// Panics if `draws` is shorter than the strided indexing requires or
/// `stride` is zero.
#[inline]
fn strided<'d>(
    column: &[u32],
    draws: &'d [u64],
    offset: usize,
    stride: usize,
) -> std::iter::StepBy<std::slice::Iter<'d, u64>> {
    assert!(stride > 0, "draw stride must be positive");
    assert!(
        column.is_empty() || offset + (column.len() - 1) * stride < draws.len(),
        "draw buffer too short for the strided column"
    );
    draws[offset.min(draws.len())..].iter().step_by(stride)
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
            diag: 1.0,
            off: 0.0,
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
            diag: p + off,
            off,
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
        Ok(RRMatrix { r, diag: p, off })
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
        Ok(RRMatrix { r, diag, off })
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
        if u == v {
            self.diag
        } else {
            self.off
        }
    }

    /// The diagonal entry, i.e. the probability of reporting the true value.
    pub fn keep_probability(&self) -> f64 {
        self.diag
    }

    /// Materialises the matrix as a dense [`Matrix`] (row-major, rows are
    /// conditional distributions).
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_fn(self.r, self.r, |i, j| self.prob(i, j))
    }

    /// The ε-differential-privacy level of the matrix per Expression (4):
    /// `ε = ln( max_v max_u p_uv / min_u p_uv )`, which for this shape is
    /// `ln(max(p_u / p_d, p_d / p_u))`.
    ///
    /// Returns `f64::INFINITY` when a column holds a zero beside a positive
    /// entry (e.g. the identity matrix), which is the correct degenerate
    /// value: such a mechanism offers no differential privacy.
    pub fn epsilon(&self) -> f64 {
        if self.r == 1 {
            0.0
        } else if self.off <= 0.0 {
            // The rows sum to 1, so the diagonal is 1 here.
            f64::INFINITY
        } else {
            (self.diag / self.off).max(self.off / self.diag).ln()
        }
    }

    /// Error-propagation diagnostic: ratio of the extreme eigenvalues of
    /// `Pᵀ` (the `P_max / P_min` lower bound of Section 2.3, following
    /// Agrawal & Haritsa).
    ///
    /// # Errors
    /// Returns [`CoreError::Math`] if the matrix is singular.
    pub fn condition_number(&self) -> Result<f64, CoreError> {
        Ok(uniform_perturbation_condition(
            self.diag - self.off,
            self.off,
            self.r,
        )?)
    }

    /// Randomizes one category code according to row `true_value` of the
    /// matrix.
    ///
    /// Consumes exactly one RNG draw per value (the fused keep/redraw
    /// kernel), so randomizing `n` values always advances the RNG by `n`
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
        // Same arithmetic as the batched kernel, but the u128 division
        // behind the redraw scale only runs when the redraw branch is
        // actually taken.
        let threshold = uniform_threshold(self.r, self.diag);
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

    /// The matrix's randomization kernel with its constants hoisted — see
    /// [`PreparedRandomizer`].  The redraw scale is held at 64 bits
    /// whenever it fits, which is every matrix whose redraw span exceeds
    /// `r − 1`; the exact product is then one 64×64→128-bit multiply.
    pub fn prepared(&self) -> PreparedRandomizer {
        let (threshold, redraw_scale) = uniform_row_constants(self.r, self.diag);
        PreparedRandomizer {
            r: self.r,
            kind: match u64::try_from(redraw_scale) {
                Ok(redraw_scale) => PreparedKind::Uniform(UniformKernel {
                    threshold,
                    redraw_scale,
                }),
                Err(_) => PreparedKind::UniformWide(UniformKernel {
                    threshold,
                    redraw_scale,
                }),
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
        // λ_v = off · Σ_u π_u + (diag − off) π_v
        let total: f64 = pi.iter().sum();
        Ok(pi
            .iter()
            .map(|&p| self.off * total + (self.diag - self.off) * p)
            .collect())
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
        // Pᵀ = P for the uniform-perturbation shape (it is symmetric), so
        // the O(r) Sherman–Morrison solve applies directly.
        Ok(solve_uniform_perturbation(
            self.diag - self.off,
            self.off,
            lambda_hat,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_math::linsolve::solve;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::BTreeSet;

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

    /// The O(r) closed forms against the general dense path on the
    /// materialised matrix: `λ = Pᵀ π` by a vector–matrix product, and the
    /// estimator by a Gauss–Jordan solve of `Pᵀ π̂ = λ̂`.  The input sums
    /// to `(r + 1) / 2r`, not 1, so the closed forms' `Σ` terms count.
    #[test]
    fn estimation_matches_general_path() {
        for m in [
            RRMatrix::direct(0.5, 5).unwrap(),
            RRMatrix::direct(0.1, 5).unwrap(),
            RRMatrix::uniform_keep(0.3, 7).unwrap(),
            RRMatrix::from_epsilon(1.5, 2).unwrap(),
            RRMatrix::cluster_from_epsilons(&[0.4, 0.9], 12).unwrap(),
        ] {
            let (r, dense) = (m.size(), m.to_matrix());
            let v: Vec<f64> = (0..r).map(|i| (i + 1) as f64 / (r * r) as f64).collect();
            let checks = [
                (m.expected_reported_distribution(&v), dense.vecmat(&v)),
                (
                    m.estimate_true_distribution(&v),
                    solve(&dense.transpose(), &v),
                ),
            ];
            for (fast, slow) in checks {
                for (a, b) in fast.unwrap().iter().zip(&slow.unwrap()) {
                    assert_close(*a, *b, 1e-9);
                }
            }
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

        let mut banks = ChannelTally::new(r);
        prepared.randomize_strided_tally(column, &draws, OFFSET, STRIDE, &mut banks);
        let mut tally = vec![0u64; r];
        banks.add_to(&mut tally);
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
    /// The domains put the banked count's 4-value tail at every length,
    /// and reach the last banked domain and the first direct one; the
    /// spans of a few units take the 128-bit redraw scale, the others the
    /// 64-bit one.
    #[test]
    fn select_kernel_matches_scalar_at_the_keep_boundary() {
        let full = 1u64 << DRAW_BITS;
        let mut wrapped = false;
        let mut scale_widths = BTreeSet::new();
        let widths = [
            2usize,
            3,
            64,
            65,
            144,
            TALLY_BANK_CAP,
            TALLY_BANK_CAP + 1,
            1008,
        ];
        for r in widths {
            let column: Vec<u32> = (0..r as u32).collect();
            let mut spans = Vec::new();
            for m in kernel_test_matrices(r) {
                let (threshold, redraw_scale) = uniform_row_constants(r, m.prob(0, 0));
                spans.push(full - threshold);
                scale_widths.insert(match m.prepared().kind {
                    PreparedKind::Uniform(_) => 64,
                    PreparedKind::UniformWide(_) => 128,
                });
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
        assert_eq!(scale_widths, BTreeSet::from([64, 128]));
    }

    /// Heavy sweep (`cargo test --release -p mdrr-core -- --ignored`): every
    /// domain up to 64, the wider domains of the boundary test (up to the
    /// first one counted without banks), the kernel test matrices, and 2²⁰
    /// random values and draws each.
    #[test]
    #[ignore = "heavy: under a minute in release"]
    fn select_kernel_matches_scalar_on_random_draws() {
        let mut rng = StdRng::seed_from_u64(0x5e1ec7);
        let n = 1 << 20;
        for r in (1..=64).chain([65, 144, TALLY_BANK_CAP, TALLY_BANK_CAP + 1, 1008]) {
            for m in kernel_test_matrices(r) {
                let column: Vec<u32> = (0..n).map(|_| rng.gen_range(0..r) as u32).collect();
                let mut raws = vec![0u64; n];
                rng.fill_u64(&mut raws);
                assert_batch_matches_scalar(&m, &column, &raws);
            }
        }
    }
}
