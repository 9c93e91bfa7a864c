//! Typed errors of the snapshot store.
//!
//! Every way a snapshot can fail to round-trip has its own
//! [`StoreError`] variant, so callers (and the corruption tests) can
//! distinguish a truncated file from a flipped byte from a spec mismatch
//! without parsing messages.  Nothing in this crate panics on malformed
//! input.

use mdrr_protocols::MdrrError;
use std::fmt;
use std::io;

/// Whether an I/O failure is worth retrying.
///
/// The store's retry layer ([`crate::RetryPolicy`]) retries
/// [`IoClass::Transient`] failures with bounded exponential backoff and
/// gives up immediately on [`IoClass::Permanent`] ones.  The class is
/// derived from the OS error kind by default ([`IoClass::classify`]) and
/// can be forced by fault-injecting backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoClass {
    /// The operation may well succeed if simply re-executed (interrupted
    /// syscall, timeout, resource temporarily unavailable).
    Transient,
    /// Retrying is pointless (missing file, permission denied, disk
    /// full-style invariants, corruption).
    Permanent,
}

impl IoClass {
    /// The default class of an OS error: interrupted / would-block /
    /// timed-out failures are transient, everything else permanent.
    pub fn classify(kind: io::ErrorKind) -> IoClass {
        match kind {
            io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                IoClass::Transient
            }
            _ => IoClass::Permanent,
        }
    }
}

impl fmt::Display for IoClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoClass::Transient => write!(f, "transient"),
            IoClass::Permanent => write!(f, "permanent"),
        }
    }
}

/// Errors produced by the snapshot store.
///
/// ```
/// use mdrr_store::{Snapshot, StoreError};
///
/// // Three stray bytes are not a snapshot: the reader reports a typed
/// // error instead of panicking.
/// match Snapshot::from_bytes(&[0u8; 3]) {
///     Err(StoreError::Truncated { .. }) => {}
///     other => panic!("expected Truncated, got {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure (open, read, write, rename, sync).
    Io {
        /// What the store was doing when the failure happened.
        context: String,
        /// Whether re-executing the operation could succeed — the retry
        /// layer only retries [`IoClass::Transient`] failures.
        class: IoClass,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The file does not start with the `MDRRSNAP` magic bytes — it is not
    /// a snapshot at all (or its first bytes were corrupted).
    BadMagic {
        /// The eight bytes actually found.
        found: [u8; 8],
    },
    /// The snapshot declares a format version this reader does not
    /// implement.  Readers must reject unknown versions rather than guess.
    UnsupportedVersion {
        /// The version the file declares.
        found: u32,
        /// The version this reader implements.
        supported: u32,
    },
    /// The file ends before the declared structure does (a partial write
    /// or a truncation).
    Truncated {
        /// Byte offset at which more data was needed.
        offset: usize,
        /// How many more bytes the structure required.
        needed: usize,
        /// How many bytes were actually available.
        available: usize,
    },
    /// The trailing checksum does not match the file contents — some byte
    /// between the magic and the checksum was altered.
    ChecksumMismatch {
        /// The checksum stored in the file.
        stored: u64,
        /// The checksum computed over the file contents.
        computed: u64,
    },
    /// The embedded header JSON is not valid UTF-8 / JSON, or its fields
    /// are inconsistent with the binary section.
    InvalidHeader {
        /// Description of the problem.
        message: String,
    },
    /// The count section violates the format's structural invariants
    /// (no channels, an oversized channel, counts that do not sum to the
    /// declared record count).
    InvalidLayout {
        /// Description of the violated invariant.
        message: String,
    },
    /// Two snapshots were asked to merge but describe different protocols,
    /// schemas or channel layouts.
    SpecMismatch {
        /// Description of the incompatibility.
        message: String,
    },
    /// Merging would overflow a `u64` count or the `u64` record total.
    CountOverflow {
        /// Channel index of the overflowing cell, if any.
        channel: Option<usize>,
    },
}

// A public error type implements `std::error::Error`, hence `Display` (E0277 otherwise).
const _: () = is_error::<StoreError>();
const fn is_error<E: std::error::Error>() {}

impl StoreError {
    /// Convenience constructor for [`StoreError::Io`].
    ///
    /// ```
    /// let e = mdrr_store::StoreError::io(
    ///     "open snapshot",
    ///     std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
    /// );
    /// assert!(e.to_string().contains("open snapshot"));
    /// ```
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        StoreError::Io {
            context: context.into(),
            class: IoClass::classify(source.kind()),
            source,
        }
    }

    /// An I/O error forced to the transient class (retry-worthy),
    /// regardless of what [`IoClass::classify`] would say.
    ///
    /// ```
    /// let e = mdrr_store::StoreError::io_transient(
    ///     "write shard file",
    ///     std::io::Error::other("injected"),
    /// );
    /// assert!(e.is_transient());
    /// ```
    pub fn io_transient(context: impl Into<String>, source: io::Error) -> Self {
        StoreError::Io {
            context: context.into(),
            class: IoClass::Transient,
            source,
        }
    }

    /// An I/O error forced to the permanent class (never retried).
    ///
    /// ```
    /// let e = mdrr_store::StoreError::io_permanent(
    ///     "sync shard file",
    ///     std::io::Error::new(std::io::ErrorKind::Interrupted, "injected"),
    /// );
    /// assert!(!e.is_transient());
    /// ```
    pub fn io_permanent(context: impl Into<String>, source: io::Error) -> Self {
        StoreError::Io {
            context: context.into(),
            class: IoClass::Permanent,
            source,
        }
    }

    /// Whether this error is a transient I/O failure, i.e. one the retry
    /// layer is allowed to re-execute.  Every non-I/O store error
    /// (corruption, layout, spec mismatch) is permanent by definition.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            StoreError::Io {
                class: IoClass::Transient,
                ..
            }
        )
    }

    /// Convenience constructor for [`StoreError::InvalidHeader`].
    ///
    /// ```
    /// let e = mdrr_store::StoreError::header("spec JSON does not parse");
    /// assert!(e.to_string().contains("spec JSON"));
    /// ```
    pub fn header(message: impl Into<String>) -> Self {
        StoreError::InvalidHeader {
            message: message.into(),
        }
    }

    /// Convenience constructor for [`StoreError::InvalidLayout`].
    ///
    /// ```
    /// let e = mdrr_store::StoreError::layout("channel 2 sums to 9, not 10");
    /// assert!(e.to_string().contains("channel 2"));
    /// ```
    pub fn layout(message: impl Into<String>) -> Self {
        StoreError::InvalidLayout {
            message: message.into(),
        }
    }

    /// Convenience constructor for [`StoreError::SpecMismatch`].
    ///
    /// ```
    /// let e = mdrr_store::StoreError::spec_mismatch("different clusterings");
    /// assert!(e.to_string().contains("clusterings"));
    /// ```
    pub fn spec_mismatch(message: impl Into<String>) -> Self {
        StoreError::SpecMismatch {
            message: message.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io {
                context,
                class,
                source,
            } => write!(f, "{class} i/o error ({context}): {source}"),
            StoreError::BadMagic { found } => {
                write!(f, "not a snapshot: bad magic bytes {found:02x?}")
            }
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this reader implements {supported})"
            ),
            StoreError::Truncated {
                offset,
                needed,
                available,
            } => write!(
                f,
                "truncated snapshot: needed {needed} bytes at offset {offset}, only {available} available"
            ),
            StoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: file stores {stored:#018x} but contents hash to {computed:#018x}"
            ),
            StoreError::InvalidHeader { message } => write!(f, "invalid snapshot header: {message}"),
            StoreError::InvalidLayout { message } => write!(f, "invalid snapshot layout: {message}"),
            StoreError::SpecMismatch { message } => {
                write!(f, "snapshot spec mismatch: {message}")
            }
            StoreError::CountOverflow { channel: Some(k) } => {
                write!(f, "count overflow while merging channel {k}")
            }
            StoreError::CountOverflow { channel: None } => {
                write!(f, "record-count overflow while merging snapshots")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<StoreError> for MdrrError {
    fn from(e: StoreError) -> Self {
        MdrrError::config(format!("snapshot store: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_every_failure_mode() {
        let cases: Vec<(StoreError, &str)> = vec![
            (
                StoreError::io("write", io::Error::other("disk full")),
                "disk full",
            ),
            (
                StoreError::BadMagic {
                    found: *b"NOTASNAP",
                },
                "magic",
            ),
            (
                StoreError::UnsupportedVersion {
                    found: 9,
                    supported: 1,
                },
                "version 9",
            ),
            (
                StoreError::Truncated {
                    offset: 12,
                    needed: 8,
                    available: 3,
                },
                "offset 12",
            ),
            (
                StoreError::ChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
                "checksum",
            ),
            (StoreError::header("bad json"), "bad json"),
            (StoreError::layout("no channels"), "no channels"),
            (StoreError::spec_mismatch("joint vs independent"), "joint"),
            (StoreError::CountOverflow { channel: Some(3) }, "channel 3"),
            (StoreError::CountOverflow { channel: None }, "record-count"),
        ];
        for (error, needle) in cases {
            assert!(
                error.to_string().contains(needle),
                "{error} should mention {needle}"
            );
        }
    }

    #[test]
    fn io_errors_expose_their_source() {
        use std::error::Error;
        let e = StoreError::io("read", io::Error::other("x"));
        assert!(e.source().is_some());
        assert!(StoreError::layout("y").source().is_none());
    }

    #[test]
    fn io_class_is_derived_and_forceable() {
        // Derived: interrupted syscalls retry, missing files do not.
        assert_eq!(
            IoClass::classify(io::ErrorKind::Interrupted),
            IoClass::Transient
        );
        assert_eq!(
            IoClass::classify(io::ErrorKind::TimedOut),
            IoClass::Transient
        );
        assert_eq!(
            IoClass::classify(io::ErrorKind::NotFound),
            IoClass::Permanent
        );
        assert!(
            StoreError::io("read", io::Error::new(io::ErrorKind::Interrupted, "eintr"))
                .is_transient()
        );
        assert!(!StoreError::io("read", io::Error::other("gone")).is_transient());
        // Forced: a fault-injecting backend decides the class itself.
        assert!(StoreError::io_transient("w", io::Error::other("x")).is_transient());
        assert!(
            !StoreError::io_permanent("w", io::Error::new(io::ErrorKind::Interrupted, "x"))
                .is_transient()
        );
        // Non-I/O errors are never retried.
        assert!(!StoreError::layout("bad").is_transient());
        // Display names the class so logs distinguish the two.
        let shown = StoreError::io_transient("w", io::Error::other("x")).to_string();
        assert!(shown.contains("transient"), "{shown}");
    }

    #[test]
    fn converts_into_the_protocol_layer_error() {
        let e: MdrrError = StoreError::layout("no channels").into();
        assert!(e.to_string().contains("snapshot store"));
    }
}
