//! Error type for the dataset layer.

use std::fmt;

/// Errors produced while building or manipulating categorical datasets.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// An attribute name was not found in the schema.
    UnknownAttribute {
        /// The name that was looked up.
        name: String,
    },
    /// An attribute index was out of range for the schema.
    AttributeIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of attributes in the schema.
        len: usize,
    },
    /// A category code or label was invalid for an attribute.
    InvalidCategory {
        /// Attribute the category belongs to.
        attribute: String,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A record had the wrong number of values for the schema.
    RecordArityMismatch {
        /// Number of values in the record.
        got: usize,
        /// Number of attributes in the schema.
        expected: usize,
    },
    /// Two datasets or schemas that must agree do not.
    SchemaMismatch {
        /// Description of the discrepancy.
        message: String,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Description of the constraint that was violated.
        message: String,
    },
    /// A CSV line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An I/O error occurred while reading or writing a dataset file.
    Io {
        /// Stringified `std::io::Error` (kept as a string so the error type
        /// stays `Clone + PartialEq`).
        message: String,
    },
}

// A public error type implements `std::error::Error`, hence `Display` (E0277 otherwise).
const _: () = is_error::<DataError>();
const fn is_error<E: std::error::Error>() {}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::UnknownAttribute { name } => write!(f, "unknown attribute `{name}`"),
            DataError::AttributeIndexOutOfRange { index, len } => {
                write!(
                    f,
                    "attribute index {index} out of range (schema has {len} attributes)"
                )
            }
            DataError::InvalidCategory { attribute, message } => {
                write!(f, "invalid category for attribute `{attribute}`: {message}")
            }
            DataError::RecordArityMismatch { got, expected } => {
                write!(
                    f,
                    "record has {got} values but the schema has {expected} attributes"
                )
            }
            DataError::SchemaMismatch { message } => write!(f, "schema mismatch: {message}"),
            DataError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            DataError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            DataError::Io { message } => write!(f, "I/O error: {message}"),
        }
    }
}

impl std::error::Error for DataError {}

impl DataError {
    /// Convenience constructor for [`DataError::InvalidParameter`].
    pub fn invalid(name: &'static str, message: impl Into<String>) -> Self {
        DataError::InvalidParameter {
            name,
            message: message.into(),
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(err: std::io::Error) -> Self {
        DataError::Io {
            message: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_details() {
        assert!(DataError::UnknownAttribute { name: "Age".into() }
            .to_string()
            .contains("Age"));
        assert!(DataError::AttributeIndexOutOfRange { index: 9, len: 8 }
            .to_string()
            .contains('9'));
        assert!(DataError::RecordArityMismatch {
            got: 3,
            expected: 8
        }
        .to_string()
        .contains('3'));
        assert!(DataError::invalid("p", "must be in [0,1]")
            .to_string()
            .contains("`p`"));
        assert!(DataError::Parse {
            line: 12,
            message: "bad".into()
        }
        .to_string()
        .contains("12"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let err: DataError = io.into();
        assert!(err.to_string().contains("missing"));
    }
}
