//! Error type shared by the numerical routines.

use std::fmt;

/// Errors produced by the numerical substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum MathError {
    /// A matrix operation received operands with incompatible shapes.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: String,
        /// Shape of the left / first operand as `(rows, cols)`.
        left: (usize, usize),
        /// Shape of the right / second operand as `(rows, cols)`.
        right: (usize, usize),
    },
    /// A matrix that must be inverted (or solved against) is singular or so
    /// ill-conditioned that elimination broke down.
    SingularMatrix {
        /// Pivot column at which elimination failed.
        pivot: usize,
    },
    /// A routine was called with a parameter outside its mathematical domain
    /// (e.g. a probability outside `[0, 1]`, a non-positive dimension…).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the constraint that was violated.
        message: String,
    },
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the routine.
        routine: &'static str,
        /// Number of iterations that were performed.
        iterations: usize,
    },
}

// A public error type implements `std::error::Error`, hence `Display` (E0277 otherwise).
const _: () = is_error::<MathError>();
const fn is_error<E: std::error::Error>() {}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathError::DimensionMismatch {
                context,
                left,
                right,
            } => write!(
                f,
                "dimension mismatch in {context}: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            MathError::SingularMatrix { pivot } => {
                write!(
                    f,
                    "matrix is singular (elimination failed at pivot column {pivot})"
                )
            }
            MathError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            MathError::NoConvergence {
                routine,
                iterations,
            } => {
                write!(
                    f,
                    "{routine} failed to converge after {iterations} iterations"
                )
            }
        }
    }
}

impl std::error::Error for MathError {}

impl MathError {
    /// Convenience constructor for [`MathError::InvalidParameter`].
    pub fn invalid(name: &'static str, message: impl Into<String>) -> Self {
        MathError::InvalidParameter {
            name,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let err = MathError::DimensionMismatch {
            context: "matmul".to_string(),
            left: (2, 3),
            right: (4, 5),
        };
        let text = err.to_string();
        assert!(text.contains("matmul"));
        assert!(text.contains("2x3"));
        assert!(text.contains("4x5"));
    }

    #[test]
    fn display_singular() {
        let err = MathError::SingularMatrix { pivot: 3 };
        assert!(err.to_string().contains("pivot column 3"));
    }

    #[test]
    fn display_invalid_parameter() {
        let err = MathError::invalid("p", "must lie in [0, 1]");
        assert!(err.to_string().contains("`p`"));
        assert!(err.to_string().contains("[0, 1]"));
    }

    #[test]
    fn display_no_convergence() {
        let err = MathError::NoConvergence {
            routine: "chi2_quantile",
            iterations: 200,
        };
        assert!(err.to_string().contains("chi2_quantile"));
        assert!(err.to_string().contains("200"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            MathError::SingularMatrix { pivot: 1 },
            MathError::SingularMatrix { pivot: 1 }
        );
        assert_ne!(
            MathError::SingularMatrix { pivot: 1 },
            MathError::SingularMatrix { pivot: 2 }
        );
    }
}
