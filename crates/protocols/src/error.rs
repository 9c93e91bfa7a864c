//! The single error type of the MDRR protocol and streaming layers.
//!
//! Everything above the substrate crates reports one error type,
//! [`MdrrError`]: protocol configuration, client-side encoding, collector
//! estimation, release queries and streaming ingestion.  Substrate errors
//! ([`CoreError`], [`DataError`], [`MathError`]) are wrapped via `From`, so
//! `?` composes across every layer without ad-hoc conversion shims.
//!
//! The former per-layer name `ProtocolError` survives as a plain type alias
//! of [`MdrrError`] so existing call sites and signatures keep compiling;
//! new code should name [`MdrrError`] directly.

use mdrr_core::CoreError;
use mdrr_data::DataError;
use mdrr_math::MathError;
use std::fmt;

/// Errors produced by the protocol and streaming layers.
#[derive(Debug, Clone, PartialEq)]
pub enum MdrrError {
    /// An error bubbled up from the core RR mechanism.
    Core(CoreError),
    /// An error bubbled up from the dataset layer.
    Data(DataError),
    /// An error bubbled up from the numerical substrate.
    Math(MathError),
    /// A configuration was invalid (empty cluster, bad thresholds,
    /// mismatched attribute lists, zero shards, malformed reports, …).
    InvalidConfiguration {
        /// Description of the violated constraint.
        message: String,
    },
    /// A query referenced attributes the release cannot answer, or asked a
    /// release for something it does not support (e.g. streaming counts
    /// into RR-Adjustment, which needs the randomized microdata).
    UnsupportedQuery {
        /// Description of the problem.
        message: String,
    },
    /// A shard worker died (its thread panicked) or a quarantined shard
    /// was asked to ingest.  The collector survives: the failed shard is
    /// quarantined and the rest keep working — callers decide whether to
    /// re-run the lost range or continue degraded.
    ShardFailed {
        /// Index of the shard whose worker failed.
        shard: usize,
        /// The panic payload (or quarantine reason), as text.
        message: String,
    },
}

// A public error type implements `std::error::Error`, hence `Display` (E0277 otherwise).
const _: () = is_error::<MdrrError>();
const fn is_error<E: std::error::Error>() {}

/// Compatibility alias: the protocol layer's historical error name.
pub type ProtocolError = MdrrError;

impl fmt::Display for MdrrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdrrError::Core(e) => write!(f, "core error: {e}"),
            MdrrError::Data(e) => write!(f, "data error: {e}"),
            MdrrError::Math(e) => write!(f, "math error: {e}"),
            MdrrError::InvalidConfiguration { message } => {
                write!(f, "invalid configuration: {message}")
            }
            MdrrError::UnsupportedQuery { message } => {
                write!(f, "unsupported query: {message}")
            }
            MdrrError::ShardFailed { shard, message } => {
                write!(f, "shard {shard} failed: {message}")
            }
        }
    }
}

impl std::error::Error for MdrrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MdrrError::Core(e) => Some(e),
            MdrrError::Data(e) => Some(e),
            MdrrError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for MdrrError {
    fn from(e: CoreError) -> Self {
        MdrrError::Core(e)
    }
}

impl From<DataError> for MdrrError {
    fn from(e: DataError) -> Self {
        MdrrError::Data(e)
    }
}

impl From<MathError> for MdrrError {
    fn from(e: MathError) -> Self {
        MdrrError::Math(e)
    }
}

impl MdrrError {
    /// Convenience constructor for [`MdrrError::InvalidConfiguration`].
    pub fn config(message: impl Into<String>) -> Self {
        MdrrError::InvalidConfiguration {
            message: message.into(),
        }
    }

    /// Convenience constructor for [`MdrrError::UnsupportedQuery`].
    pub fn unsupported(message: impl Into<String>) -> Self {
        MdrrError::UnsupportedQuery {
            message: message.into(),
        }
    }

    /// Convenience constructor for [`MdrrError::ShardFailed`].
    pub fn shard_failed(shard: usize, message: impl Into<String>) -> Self {
        MdrrError::ShardFailed {
            shard,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let c: MdrrError = CoreError::invalid("p", "bad").into();
        assert!(c.to_string().contains("core error"));
        let d: MdrrError = DataError::UnknownAttribute { name: "A".into() }.into();
        assert!(d.to_string().contains("data error"));
        let m: MdrrError = MathError::SingularMatrix { pivot: 1 }.into();
        assert!(m.to_string().contains("math error"));
        assert!(MdrrError::config("Tv must be positive")
            .to_string()
            .contains("Tv"));
        assert!(MdrrError::unsupported("attribute 9")
            .to_string()
            .contains("attribute 9"));
        let s = MdrrError::shard_failed(3, "worker panicked: boom");
        assert_eq!(s.to_string(), "shard 3 failed: worker panicked: boom");
    }

    #[test]
    fn source_is_present_for_wrapped_errors() {
        use std::error::Error;
        let c: MdrrError = CoreError::invalid("p", "bad").into();
        assert!(c.source().is_some());
        assert!(MdrrError::config("x").source().is_none());
    }

    #[test]
    fn layer_aliases_are_the_same_type() {
        // `ProtocolError` is a plain alias: values flow freely in both
        // directions with no conversion.
        let e: ProtocolError = MdrrError::config("alias");
        let back: MdrrError = e;
        assert!(back.to_string().contains("alias"));
    }
}
