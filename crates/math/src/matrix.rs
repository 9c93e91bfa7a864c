//! A small dense, row-major `f64` matrix.
//!
//! The randomized-response machinery only needs square matrices of moderate
//! size (the largest cluster domains in the paper's experiments are a few
//! hundred categories), so a straightforward contiguous `Vec<f64>` storage
//! with `O(n³)` kernels is both simple and fast enough.  Hot paths that
//! matter for the protocols (inverting the structured randomization
//! matrices) use closed forms in [`crate::linsolve`] instead of the generic
//! kernels.

use crate::error::MathError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    ///
    /// # Panics
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        // lint:allow(panic-reachability, reason = "documented overflow guard; dimensions reaching this from the release path are validated channel sizes whose square fits a Vec long before rows*cols can overflow usize")
        let len = rows.checked_mul(cols).expect("matrix dimensions overflow");
        Matrix {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix where every entry equals `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        let len = rows.checked_mul(cols).expect("matrix dimensions overflow");
        Matrix {
            rows,
            cols,
            data: vec![value; len],
        }
    }

    /// Creates a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Creates a matrix from row slices.  All rows must have equal length.
    ///
    /// # Errors
    /// Returns [`MathError::DimensionMismatch`] if rows have differing
    /// lengths, or [`MathError::InvalidParameter`] if `rows` is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, MathError> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(MathError::invalid(
                "rows",
                "matrix must have at least one row",
            ));
        }
        let ncols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(MathError::DimensionMismatch {
                    context: format!("from_rows (row {i})"),
                    left: (1, ncols),
                    right: (1, r.len()),
                });
            }
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[row * self.cols + col] = value;
    }

    /// Returns the row as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns the row as a mutable slice.
    #[inline]
    fn row_mut(&mut self, row: usize) -> &mut [f64] {
        assert!(row < self.rows, "row index out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns a copy of the column.
    pub fn column(&self, col: usize) -> Vec<f64> {
        assert!(col < self.cols, "column index out of bounds");
        (0..self.rows).map(|i| self.get(i, col)).collect()
    }

    /// Returns the diagonal entries of a square matrix.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Immutable view of the backing storage (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Matrix–matrix product `self * other`.
    ///
    /// # Errors
    /// Returns [`MathError::DimensionMismatch`] if the inner dimensions do
    /// not agree.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, MathError> {
        if self.cols != other.rows {
            return Err(MathError::DimensionMismatch {
                context: "matmul".to_string(),
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps the inner loop contiguous in both `other`
        // and `out`, which matters once cluster domains reach a few hundred
        // categories.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let other_row = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(other_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    /// Returns [`MathError::DimensionMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, MathError> {
        if v.len() != self.cols {
            return Err(MathError::DimensionMismatch {
                context: "matvec".to_string(),
                left: (self.rows, self.cols),
                right: (v.len(), 1),
            });
        }
        let mut out = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v.iter()) {
                acc += a * b;
            }
            out.push(acc);
        }
        Ok(out)
    }

    /// Vector–matrix product `vᵀ * self`, returned as a flat vector.
    ///
    /// Equivalent to `self.transpose().matvec(v)` but without materialising
    /// the transpose; this is the shape used when propagating a true
    /// distribution through a randomization matrix (`λ = Pᵀ π`).
    ///
    /// # Errors
    /// Returns [`MathError::DimensionMismatch`] if `v.len() != self.rows()`.
    pub fn vecmat(&self, v: &[f64]) -> Result<Vec<f64>, MathError> {
        if v.len() != self.rows {
            return Err(MathError::DimensionMismatch {
                context: "vecmat".to_string(),
                left: (1, v.len()),
                right: (self.rows, self.cols),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i).iter()) {
                *o += vi * a;
            }
        }
        Ok(out)
    }

    /// Scales every entry by `factor`, in place.
    pub fn scale(&mut self, factor: f64) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Errors
    /// Returns [`MathError::DimensionMismatch`] if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, MathError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(MathError::DimensionMismatch {
                context: "add".to_string(),
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Maximum absolute difference between two matrices of equal shape.
    ///
    /// # Errors
    /// Returns [`MathError::DimensionMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f64, MathError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(MathError::DimensionMismatch {
                context: "max_abs_diff".to_string(),
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }

    /// Whether every entry of `self` is within `tol` of the corresponding
    /// entry of `other`.  Matrices of different shapes are never
    /// approximately equal.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        self.max_abs_diff(other).map(|d| d <= tol).unwrap_or(false)
    }

    /// Whether the matrix is row-stochastic: all entries lie in `[0, 1]`
    /// (within `tol`) and every row sums to 1 (within `tol`).
    pub fn is_row_stochastic(&self, tol: f64) -> bool {
        for i in 0..self.rows {
            let mut sum = 0.0;
            for &x in self.row(i) {
                if x < -tol || x > 1.0 + tol {
                    return false;
                }
                sum += x;
            }
            if (sum - 1.0).abs() > tol {
                return false;
            }
        }
        true
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            let row: Vec<String> = self.row(i).iter().map(|x| format!("{x:.6}")).collect();
            writeln!(f, "[{}]", row.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert_eq!(z.sum(), 0.0);

        let i = Matrix::identity(3);
        assert!(i.is_square());
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn from_rows_validates_shape() {
        let ok = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(ok.get(1, 0), 3.0);

        let ragged = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert!(matches!(ragged, Err(MathError::DimensionMismatch { .. })));

        let empty = Matrix::from_rows(&[]);
        assert!(matches!(empty, Err(MathError::InvalidParameter { .. })));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap();
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert!(a.matmul(&i).unwrap().approx_eq(&a, 1e-12));
        assert!(i.matmul(&a).unwrap().approx_eq(&a, 1e-12));
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(MathError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matvec_and_vecmat() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert_eq!(m.vecmat(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);

        // vecmat(v) == transpose().matvec(v)
        let via_t = m.transpose().matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(m.vecmat(&[1.0, 1.0]).unwrap(), via_t);

        assert!(m.matvec(&[1.0]).is_err());
        assert!(m.vecmat(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn row_stochastic_detection() {
        let p = Matrix::from_rows(&[vec![0.7, 0.3], vec![0.2, 0.8]]).unwrap();
        assert!(p.is_row_stochastic(1e-12));

        let not_normalized = Matrix::from_rows(&[vec![0.7, 0.2], vec![0.2, 0.8]]).unwrap();
        assert!(!not_normalized.is_row_stochastic(1e-12));

        let negative = Matrix::from_rows(&[vec![1.2, -0.2], vec![0.2, 0.8]]).unwrap();
        assert!(!negative.is_row_stochastic(1e-12));
    }

    #[test]
    fn scale_and_add() {
        let mut m = Matrix::identity(2);
        m.scale(3.0);
        assert_eq!(m.get(0, 0), 3.0);
        let s = m.add(&Matrix::identity(2)).unwrap();
        assert_eq!(s.get(0, 0), 4.0);
        assert_eq!(s.get(0, 1), 0.0);
        assert!(m.add(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn column_extraction() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.column(1), vec![2.0, 4.0]);
    }

    #[test]
    fn frobenius_norm_known_value() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_readable() {
        let m = Matrix::identity(2);
        let text = format!("{m}");
        assert!(text.contains("1.000000"));
        assert!(text.lines().count() >= 2);
    }

    #[test]
    fn approx_eq_shape_mismatch_is_false() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(!a.approx_eq(&b, 1.0));
    }
}
