//! Linear solvers and matrix inversion.
//!
//! Two paths are provided:
//!
//! * a general Gauss–Jordan inversion with partial pivoting, used for
//!   arbitrary randomization matrices and as a cross-check in tests;
//! * a closed-form inverse for matrices of the form `aI + bJ` (constant
//!   diagonal `a + b`, constant off-diagonal `b`), which is the exact shape
//!   of every *optimal* randomization matrix in the paper (Section 2.3 and
//!   Section 6.3).  The closed form costs `O(r²)` to materialise — or `O(r)`
//!   when only applied to a vector — matching the paper's observation that
//!   "their regularity makes it possible to easily compute their inverses
//!   with a cost O(|Aj|²)".

use crate::error::MathError;
use crate::matrix::Matrix;

/// Inverts a square matrix using Gauss–Jordan elimination with partial
/// pivoting.
///
/// # Errors
/// * [`MathError::DimensionMismatch`] if the matrix is not square.
/// * [`MathError::SingularMatrix`] if a pivot smaller than `1e-12` (in
///   absolute value) is encountered.
pub fn invert(matrix: &Matrix) -> Result<Matrix, MathError> {
    if !matrix.is_square() {
        return Err(MathError::DimensionMismatch {
            context: "invert".to_string(),
            left: (matrix.rows(), matrix.cols()),
            right: (matrix.cols(), matrix.rows()),
        });
    }
    let n = matrix.rows();
    // Augmented system [A | I], reduced in place.
    let mut a = matrix.clone();
    let mut inv = Matrix::identity(n);

    for col in 0..n {
        // Partial pivoting: pick the row with the largest magnitude in this column.
        let mut pivot_row = col;
        let mut pivot_val = a.get(col, col).abs();
        for r in (col + 1)..n {
            let v = a.get(r, col).abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-12 {
            return Err(MathError::SingularMatrix { pivot: col });
        }
        if pivot_row != col {
            swap_rows(&mut a, col, pivot_row);
            swap_rows(&mut inv, col, pivot_row);
        }

        // Normalise the pivot row.
        let pivot = a.get(col, col);
        let inv_pivot = 1.0 / pivot;
        for j in 0..n {
            a.set(col, j, a.get(col, j) * inv_pivot);
            inv.set(col, j, inv.get(col, j) * inv_pivot);
        }

        // Eliminate the column from every other row.
        for r in 0..n {
            if r == col {
                continue;
            }
            let factor = a.get(r, col);
            if factor == 0.0 {
                continue;
            }
            for j in 0..n {
                a.set(r, j, a.get(r, j) - factor * a.get(col, j));
                inv.set(r, j, inv.get(r, j) - factor * inv.get(col, j));
            }
        }
    }
    Ok(inv)
}

/// Solves the linear system `A x = b` by Gaussian elimination with partial
/// pivoting, without materialising `A⁻¹`.
///
/// # Errors
/// * [`MathError::DimensionMismatch`] if `A` is not square or `b` has the
///   wrong length.
/// * [`MathError::SingularMatrix`] if `A` is (numerically) singular.
pub fn solve(matrix: &Matrix, b: &[f64]) -> Result<Vec<f64>, MathError> {
    if !matrix.is_square() {
        return Err(MathError::DimensionMismatch {
            context: "solve".to_string(),
            left: (matrix.rows(), matrix.cols()),
            right: (matrix.cols(), matrix.rows()),
        });
    }
    let n = matrix.rows();
    if b.len() != n {
        return Err(MathError::DimensionMismatch {
            context: "solve (rhs)".to_string(),
            left: (n, n),
            right: (b.len(), 1),
        });
    }
    let mut a = matrix.clone();
    let mut x: Vec<f64> = b.to_vec();

    // Forward elimination with partial pivoting.
    for col in 0..n {
        let mut pivot_row = col;
        let mut pivot_val = a.get(col, col).abs();
        for r in (col + 1)..n {
            let v = a.get(r, col).abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-12 {
            return Err(MathError::SingularMatrix { pivot: col });
        }
        if pivot_row != col {
            swap_rows(&mut a, col, pivot_row);
            x.swap(col, pivot_row);
        }
        let pivot = a.get(col, col);
        for r in (col + 1)..n {
            let factor = a.get(r, col) / pivot;
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                a.set(r, j, a.get(r, j) - factor * a.get(col, j));
            }
            x[r] -= factor * x[col];
        }
    }

    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = x[col];
        for (j, x_j) in x.iter().enumerate().take(n).skip(col + 1) {
            acc -= a.get(col, j) * x_j;
        }
        x[col] = acc / a.get(col, col);
    }
    Ok(x)
}

/// Closed-form inverse of the matrix `M = aI + bJ` where `J` is the all-ones
/// `r × r` matrix: constant diagonal `a + b`, constant off-diagonal `b`.
///
/// Every optimal randomization matrix of the paper has this shape
/// (`p_u` on the diagonal, `p_d` off the diagonal, so `a = p_u - p_d` and
/// `b = p_d`).  By the Sherman–Morrison formula,
/// `M⁻¹ = (1/a) I − (b / (a (a + r b))) J`.
///
/// # Errors
/// Returns [`MathError::SingularMatrix`] when `a ≈ 0` or `a + r·b ≈ 0`
/// (these are exactly the singular configurations), and
/// [`MathError::InvalidParameter`] when `r == 0`.
pub fn invert_uniform_perturbation(a: f64, b: f64, r: usize) -> Result<Matrix, MathError> {
    let (inv_diag, inv_off) = uniform_perturbation_inverse_entries(a, b, r)?;
    Ok(Matrix::from_fn(r, r, |i, j| {
        if i == j {
            inv_diag
        } else {
            inv_off
        }
    }))
}

/// Returns the `(diagonal, off_diagonal)` entries of the inverse of
/// `aI + bJ` without materialising the matrix.
///
/// # Errors
/// Same conditions as [`invert_uniform_perturbation`].
fn uniform_perturbation_inverse_entries(a: f64, b: f64, r: usize) -> Result<(f64, f64), MathError> {
    if r == 0 {
        return Err(MathError::invalid("r", "dimension must be positive"));
    }
    let denom = a * (a + r as f64 * b);
    if a.abs() < 1e-300 || denom.abs() < 1e-300 {
        return Err(MathError::SingularMatrix { pivot: 0 });
    }
    let off = -b / denom;
    let diag = 1.0 / a + off;
    Ok((diag, off))
}

/// Applies the inverse of `aI + bJ` to a vector in `O(r)` time without ever
/// building the matrix: `(aI + bJ)⁻¹ v = v/a − (b Σv / (a (a + r b))) 𝟙`.
///
/// # Errors
/// Same conditions as [`invert_uniform_perturbation`], plus a dimension
/// check on `v`.
pub fn solve_uniform_perturbation(a: f64, b: f64, v: &[f64]) -> Result<Vec<f64>, MathError> {
    let r = v.len();
    if r == 0 {
        return Err(MathError::invalid("v", "vector must be non-empty"));
    }
    let denom = a * (a + r as f64 * b);
    if a.abs() < 1e-300 || denom.abs() < 1e-300 {
        return Err(MathError::SingularMatrix { pivot: 0 });
    }
    let sum: f64 = v.iter().sum();
    let shift = b * sum / denom;
    Ok(v.iter().map(|&x| x / a - shift).collect())
}

/// Condition-number-style diagnostic: the ratio between the largest and
/// smallest eigenvalue of `aI + bJ` (both are known in closed form:
/// `a + r·b` with multiplicity 1 and `a` with multiplicity `r − 1`).
///
/// The paper (Section 2.3, following Agrawal & Haritsa) lower-bounds the
/// error-propagation factor of the estimator by `P_max / P_min`; for the
/// optimal matrices this quantity is available analytically.
///
/// # Errors
/// Returns [`MathError::SingularMatrix`] if either eigenvalue is ~0, and
/// [`MathError::InvalidParameter`] when `r == 0`.
pub fn uniform_perturbation_condition(a: f64, b: f64, r: usize) -> Result<f64, MathError> {
    if r == 0 {
        return Err(MathError::invalid("r", "dimension must be positive"));
    }
    let e1 = a + r as f64 * b;
    let e2 = a;
    if e1.abs() < 1e-300 || e2.abs() < 1e-300 {
        return Err(MathError::SingularMatrix { pivot: 0 });
    }
    let hi = e1.abs().max(e2.abs());
    let lo = e1.abs().min(e2.abs());
    Ok(hi / lo)
}

fn swap_rows(m: &mut Matrix, a: usize, b: usize) {
    if a == b {
        return;
    }
    let cols = m.cols();
    for j in 0..cols {
        let tmp = m.get(a, j);
        m.set(a, j, m.get(b, j));
        m.set(b, j, tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rr_matrix(p: f64, r: usize) -> Matrix {
        // keep-with-probability-p, otherwise uniform over all r categories
        let diag = p + (1.0 - p) / r as f64;
        let off = (1.0 - p) / r as f64;
        Matrix::from_fn(r, r, |i, j| if i == j { diag } else { off })
    }

    #[test]
    fn invert_identity() {
        let i = Matrix::identity(4);
        let inv = invert(&i).unwrap();
        assert!(inv.approx_eq(&i, 1e-12));
    }

    #[test]
    fn invert_known_2x2() {
        let m = Matrix::from_rows(&[vec![4.0, 7.0], vec![2.0, 6.0]]).unwrap();
        let inv = invert(&m).unwrap();
        let expected = Matrix::from_rows(&[vec![0.6, -0.7], vec![-0.2, 0.4]]).unwrap();
        assert!(inv.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn invert_roundtrip_rr_matrix() {
        for r in [2usize, 3, 5, 9, 16] {
            let p = 0.7;
            let m = rr_matrix(p, r);
            let inv = invert(&m).unwrap();
            let prod = m.matmul(&inv).unwrap();
            assert!(prod.approx_eq(&Matrix::identity(r), 1e-9), "r = {r}");
        }
    }

    #[test]
    fn invert_rejects_singular() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(invert(&m), Err(MathError::SingularMatrix { .. })));
    }

    #[test]
    fn invert_rejects_non_square() {
        let m = Matrix::zeros(2, 3);
        assert!(matches!(
            invert(&m),
            Err(MathError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn invert_needs_pivoting() {
        // Zero in the top-left corner forces a row swap.
        let m = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let inv = invert(&m).unwrap();
        assert!(inv.approx_eq(&m, 1e-12)); // a permutation matrix is its own inverse
    }

    #[test]
    fn solve_matches_inverse() {
        let m = Matrix::from_rows(&[
            vec![3.0, 1.0, 2.0],
            vec![1.0, 4.0, 0.5],
            vec![2.0, 0.5, 5.0],
        ])
        .unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = solve(&m, &b).unwrap();
        let via_inverse = invert(&m).unwrap().matvec(&b).unwrap();
        for (a, c) in x.iter().zip(via_inverse.iter()) {
            assert!((a - c).abs() < 1e-10);
        }
        // residual check
        let back = m.matvec(&x).unwrap();
        for (a, c) in back.iter().zip(b.iter()) {
            assert!((a - c).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_validates_shapes() {
        let m = Matrix::zeros(2, 3);
        assert!(solve(&m, &[1.0, 2.0]).is_err());
        let sq = Matrix::identity(2);
        assert!(solve(&sq, &[1.0]).is_err());
    }

    #[test]
    fn closed_form_matches_gauss_jordan() {
        for r in [2usize, 4, 9, 33] {
            for p in [0.1, 0.3, 0.5, 0.7, 0.95] {
                let m = rr_matrix(p, r);
                let a = p; // diag - off
                let b = (1.0 - p) / r as f64;
                let closed = invert_uniform_perturbation(a, b, r).unwrap();
                let general = invert(&m).unwrap();
                assert!(
                    closed.approx_eq(&general, 1e-8),
                    "mismatch for r={r}, p={p}"
                );
            }
        }
    }

    #[test]
    fn solve_uniform_perturbation_matches_matrix_inverse() {
        let r = 7;
        let p = 0.4;
        let a = p;
        let b = (1.0 - p) / r as f64;
        let v: Vec<f64> = (0..r).map(|i| (i as f64 + 1.0) / 10.0).collect();
        let fast = solve_uniform_perturbation(a, b, &v).unwrap();
        let slow = invert_uniform_perturbation(a, b, r)
            .unwrap()
            .matvec(&v)
            .unwrap();
        for (x, y) in fast.iter().zip(slow.iter()) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn closed_form_rejects_degenerate() {
        assert!(invert_uniform_perturbation(0.0, 0.5, 3).is_err());
        assert!(invert_uniform_perturbation(1.0, -1.0 / 3.0, 3).is_err());
        assert!(invert_uniform_perturbation(1.0, 0.1, 0).is_err());
        assert!(solve_uniform_perturbation(0.0, 0.1, &[1.0]).is_err());
        assert!(solve_uniform_perturbation(1.0, 0.1, &[]).is_err());
    }

    #[test]
    fn condition_number_of_identity_is_one() {
        assert!((uniform_perturbation_condition(1.0, 0.0, 5).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn condition_number_grows_with_randomization() {
        // More probability mass off the diagonal => worse conditioning.
        let weak = uniform_perturbation_condition(0.9, 0.1 / 4.0, 4).unwrap();
        let strong = uniform_perturbation_condition(0.2, 0.8 / 4.0, 4).unwrap();
        assert!(strong > weak);
    }
}
