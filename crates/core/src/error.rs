//! Error type for the core randomized-response mechanism.

use mdrr_data::DataError;
use mdrr_math::MathError;
use std::fmt;

/// Errors produced by the randomization and estimation machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A numerical routine failed (singular matrix, invalid parameter, …).
    Math(MathError),
    /// A dataset operation failed (bad attribute index, schema mismatch, …).
    Data(DataError),
    /// A value or distribution did not match the matrix dimension.
    DimensionMismatch {
        /// Description of the operation.
        context: String,
        /// The expected dimension (number of categories of the matrix).
        expected: usize,
        /// The dimension that was supplied.
        got: usize,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Description of the constraint that was violated.
        message: String,
    },
}

// A public error type implements `std::error::Error`, hence `Display` (E0277 otherwise).
const _: () = is_error::<CoreError>();
const fn is_error<E: std::error::Error>() {}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Math(e) => write!(f, "numerical error: {e}"),
            CoreError::Data(e) => write!(f, "data error: {e}"),
            CoreError::DimensionMismatch {
                context,
                expected,
                got,
            } => {
                write!(
                    f,
                    "dimension mismatch in {context}: expected {expected}, got {got}"
                )
            }
            CoreError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Math(e) => Some(e),
            CoreError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MathError> for CoreError {
    fn from(e: MathError) -> Self {
        CoreError::Math(e)
    }
}

impl From<DataError> for CoreError {
    fn from(e: DataError) -> Self {
        CoreError::Data(e)
    }
}

impl CoreError {
    /// Convenience constructor for [`CoreError::InvalidParameter`].
    pub fn invalid(name: &'static str, message: impl Into<String>) -> Self {
        CoreError::InvalidParameter {
            name,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_conversions() {
        let math: CoreError = MathError::SingularMatrix { pivot: 0 }.into();
        assert!(math.to_string().contains("numerical error"));
        let data: CoreError = DataError::UnknownAttribute { name: "X".into() }.into();
        assert!(data.to_string().contains("data error"));
        assert!(CoreError::invalid("p", "out of range")
            .to_string()
            .contains("`p`"));
        let dim = CoreError::DimensionMismatch {
            context: "estimate".into(),
            expected: 3,
            got: 5,
        };
        assert!(dim.to_string().contains("expected 3"));
    }

    #[test]
    fn source_points_at_wrapped_error() {
        use std::error::Error;
        let math: CoreError = MathError::SingularMatrix { pivot: 0 }.into();
        assert!(math.source().is_some());
        assert!(CoreError::invalid("p", "bad").source().is_none());
    }
}
