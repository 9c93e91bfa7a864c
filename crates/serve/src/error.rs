//! Typed errors of the collector daemon.

use mdrr_protocols::MdrrError;
use mdrr_stream::WireError;
use std::fmt;
use std::io;

/// Errors produced by the daemon's lifecycle operations (bind, drain,
/// checkpoint).  Per-connection wire failures never surface here — they
/// are metered, journalled and answered with typed error frames inside
/// the session; only failures of the *server itself* reach the caller.
#[derive(Debug)]
pub enum ServeError {
    /// A wire-level failure while serving (handshake encode, snapshot
    /// encode).
    Wire(WireError),
    /// The protocol layer refused a configuration or an ingest
    /// (bad spec, zero shards, checkpoint validation).
    Protocol(MdrrError),
    /// An operating-system failure on the listening socket.
    Io {
        /// What the server was doing when the failure happened.
        context: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The server was configured inconsistently (zero window, zero poll
    /// interval).
    Config {
        /// Description of the problem.
        message: String,
    },
}

// A public error type implements `std::error::Error`, hence `Display` (E0277 otherwise).
const _: () = is_error::<ServeError>();
const fn is_error<E: std::error::Error>() {}

impl ServeError {
    /// Convenience constructor for [`ServeError::Io`].
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        ServeError::Io {
            context: context.into(),
            source,
        }
    }

    /// Convenience constructor for [`ServeError::Config`].
    pub fn config(message: impl Into<String>) -> Self {
        ServeError::Config {
            message: message.into(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Wire(e) => write!(f, "collector wire failure: {e}"),
            ServeError::Protocol(e) => write!(f, "collector protocol failure: {e}"),
            ServeError::Io { context, source } => {
                write!(f, "collector i/o failure ({context}): {source}")
            }
            ServeError::Config { message } => {
                write!(f, "invalid collector configuration: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Wire(e) => Some(e),
            ServeError::Protocol(e) => Some(e),
            ServeError::Io { source, .. } => Some(source),
            ServeError::Config { .. } => None,
        }
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

impl From<MdrrError> for ServeError {
    fn from(e: MdrrError) -> Self {
        ServeError::Protocol(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_every_failure_mode() {
        let cases: Vec<(ServeError, &str)> = vec![
            (ServeError::Wire(WireError::timeout("ack wait")), "ack wait"),
            (
                ServeError::Protocol(MdrrError::config("zero shards")),
                "zero shards",
            ),
            (
                ServeError::io("bind listener", io::Error::other("in use")),
                "bind listener",
            ),
            (ServeError::config("window must be positive"), "window"),
        ];
        for (error, needle) in cases {
            assert!(
                error.to_string().contains(needle),
                "{error} should mention {needle}"
            );
        }
    }

    #[test]
    fn sources_are_exposed_where_present() {
        use std::error::Error;
        assert!(ServeError::Wire(WireError::timeout("x")).source().is_some());
        assert!(ServeError::io("bind", io::Error::other("x"))
            .source()
            .is_some());
        assert!(ServeError::config("x").source().is_none());
    }
}
