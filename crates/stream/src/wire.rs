//! The collector wire protocol: length-framed, checksummed, versioned.
//!
//! This is the first boundary where the workspace accepts bytes it did
//! not produce, so the format follows the `docs/FORMAT.md` discipline
//! (see `docs/WIRE.md` for the byte-level spec): an 8-byte magic, an
//! explicit little-endian version, a declared payload length that is
//! *capped and verified before any allocation*, and a trailing
//! CRC-64/XZ over everything before it, reusing [`mdrr_store::crc64`].
//! Every way a frame can be malformed has a typed [`WireError`] variant;
//! nothing in this module panics on hostile input
//! (`crates/serve/tests/adversarial.rs` proves it for every truncation
//! length and every single-bit flip).
//!
//! A frame is:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "MDRRWIRE"
//! 8       4     wire format version (u32 LE, currently 1)
//! 12      1     frame type (see FrameType)
//! 13      3     reserved, must be zero
//! 16      4     payload length P (u32 LE, ≤ MAX_WIRE_PAYLOAD)
//! 20      P     payload
//! 20+P    8     CRC-64/XZ over bytes 0..20+P (u64 LE)
//! ```
//!
//! Batch payloads reuse the columnar [`ReportBatch`] layout (channel-major
//! `u32` codes), so the server counts codes straight out of the receive
//! buffer; handshake and query payloads are serde JSON, like the snapshot
//! header.

// No panic on hostile input: every malformed frame is a typed `WireError`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

use crate::batch::ReportBatch;
use crate::error::MdrrError;
use mdrr_data::Schema;
use mdrr_protocols::ProtocolSpec;
use mdrr_store::crc64;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};

/// The 8 bytes every wire frame starts with.
pub const WIRE_MAGIC: [u8; 8] = *b"MDRRWIRE";

/// The wire format version this implementation speaks.  Readers must
/// reject any other version rather than guess (see docs/WIRE.md
/// §Versioning).
pub const WIRE_VERSION: u32 = 1;

/// Fixed frame header length: magic + version + type + reserved + payload
/// length.
pub const WIRE_HEADER_LEN: usize = 20;

/// Fixed frame trailer length: the CRC-64/XZ checksum.
pub const WIRE_TRAILER_LEN: usize = 8;

/// Hard cap on a frame's declared payload length.  The cap is enforced
/// *before* any buffer is sized from the declared length, so a hostile
/// header cannot drive an allocation.
pub const MAX_WIRE_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Fixed prefix of a batch payload: seq + shard hint + channel count +
/// report count.
pub const BATCH_PAYLOAD_HEADER_LEN: usize = 20;

/// Total frame size for a payload of `payload_len` bytes.
pub fn frame_len(payload_len: usize) -> usize {
    WIRE_HEADER_LEN + payload_len + WIRE_TRAILER_LEN
}

/// Error codes carried by [`FrameType::Error`] frames (u16 LE + UTF-8
/// message).  Codes are part of the wire contract: new codes may be
/// added, existing codes never renumbered.
pub mod error_code {
    /// The server is draining to a checkpoint; re-connect later.
    pub const DRAINING: u16 = 1;
    /// The peer sent a structurally invalid frame or payload.
    pub const MALFORMED: u16 = 2;
    /// The client's schema/spec does not match the server's.
    pub const SPEC_MISMATCH: u16 = 3;
    /// The server failed internally while handling a valid request.
    pub const INTERNAL: u16 = 4;
    /// The frame type is valid but not meaningful in this direction or
    /// session state.
    pub const UNEXPECTED: u16 = 5;
    /// The peer stalled mid-frame past the read budget (slowloris).
    pub const TIMEOUT: u16 = 6;
}

/// The kind of a wire frame (header byte at offset 12).
///
/// Discriminants are part of the wire contract: new types may be added,
/// existing types never renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client → server session open: JSON `{schema, spec}`.
    Hello = 0x01,
    /// Server → client handshake reply: JSON [`HelloAck`].
    HelloAck = 0x02,
    /// Client → server report batch (binary, columnar — see
    /// [`encode_batch_payload`]).
    Batch = 0x03,
    /// Server → client acknowledgement: `seq` + running report total.
    BatchAck = 0x04,
    /// Client → server stats request (empty payload).
    StatsQuery = 0x05,
    /// Server → client stats reply: JSON [`StatsReply`].
    Stats = 0x06,
    /// Client → server snapshot request (empty payload).
    SnapshotQuery = 0x07,
    /// Server → client snapshot reply: an `mdrr-store` snapshot file
    /// image of the merged accumulator.
    Snapshot = 0x08,
    /// Client → server session close (empty payload).
    Goodbye = 0x09,
    /// Server → client close acknowledgement: final report total (u64).
    GoodbyeAck = 0x0A,
    /// Either direction: typed failure, `u16` code (see [`error_code`])
    /// plus UTF-8 message.
    Error = 0x0B,
}

impl FrameType {
    /// Every frame type, in discriminant order.
    pub const ALL: [FrameType; 11] = [
        FrameType::Hello,
        FrameType::HelloAck,
        FrameType::Batch,
        FrameType::BatchAck,
        FrameType::StatsQuery,
        FrameType::Stats,
        FrameType::SnapshotQuery,
        FrameType::Snapshot,
        FrameType::Goodbye,
        FrameType::GoodbyeAck,
        FrameType::Error,
    ];

    /// The header byte of this frame type.
    pub fn as_byte(self) -> u8 {
        self as u8
    }

    /// Parses a header byte; `None` for unknown types.
    pub fn from_byte(byte: u8) -> Option<FrameType> {
        FrameType::ALL.iter().copied().find(|t| t.as_byte() == byte)
    }

    /// A stable lower-snake name for logs and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            FrameType::Hello => "hello",
            FrameType::HelloAck => "hello_ack",
            FrameType::Batch => "batch",
            FrameType::BatchAck => "batch_ack",
            FrameType::StatsQuery => "stats_query",
            FrameType::Stats => "stats",
            FrameType::SnapshotQuery => "snapshot_query",
            FrameType::Snapshot => "snapshot",
            FrameType::Goodbye => "goodbye",
            FrameType::GoodbyeAck => "goodbye_ack",
            FrameType::Error => "error",
        }
    }
}

impl fmt::Display for FrameType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors produced by the wire codec, the client SDK and the server
/// session layer.  Every way bytes off the network can be wrong has its
/// own variant, so the session layer can meter rejects by kind and the
/// adversarial tests can assert the exact failure mode.
#[derive(Debug)]
pub enum WireError {
    /// An operating-system socket failure (connect, read, write).
    Io {
        /// What the codec was doing when the failure happened.
        context: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The frame does not start with the `MDRRWIRE` magic bytes.
    BadMagic {
        /// The eight bytes actually found.
        found: [u8; 8],
    },
    /// The frame declares a wire version this implementation does not
    /// speak.
    UnsupportedVersion {
        /// The version the frame declares.
        found: u32,
        /// The version this implementation speaks.
        supported: u32,
    },
    /// The frame-type byte names no known frame type.
    UnknownFrameType {
        /// The byte actually found.
        found: u8,
    },
    /// The reserved header bytes are not zero (a corrupted or
    /// future-format frame).
    ReservedNonZero {
        /// The three bytes actually found.
        found: [u8; 3],
    },
    /// The declared payload length exceeds the hard cap — rejected before
    /// any allocation is sized from it.
    Oversized {
        /// The length the frame declares.
        declared: u64,
        /// The cap this implementation enforces.
        max: u64,
    },
    /// The bytes end before the declared structure does.
    Truncated {
        /// Byte offset at which more data was needed.
        offset: usize,
        /// How many more bytes the structure required.
        needed: usize,
        /// How many bytes were actually available.
        available: usize,
    },
    /// The trailing checksum does not match the frame contents.
    ChecksumMismatch {
        /// The checksum stored in the frame.
        stored: u64,
        /// The checksum computed over the frame contents.
        computed: u64,
    },
    /// The frame is structurally valid but its payload is not (bad JSON,
    /// ragged batch, size mismatch, trailing bytes).
    Malformed {
        /// Description of the problem.
        message: String,
    },
    /// Handshake mismatch: the peer's schema/spec differs from ours.
    SpecMismatch {
        /// Description of the incompatibility.
        message: String,
    },
    /// A structurally valid frame type arrived where the protocol state
    /// machine does not allow it.
    UnexpectedFrame {
        /// What the receiver was waiting for.
        context: String,
        /// The frame type actually found.
        found: &'static str,
    },
    /// The protocol layer rejected the decoded reports (bad shard index,
    /// out-of-range codes, quarantined shard).
    Protocol(MdrrError),
    /// A read or ack did not complete within its budget.
    Timeout {
        /// What timed out.
        context: String,
    },
    /// The peer closed the connection (mid-frame, or while a reply was
    /// owed).
    Closed {
        /// Where the close was observed.
        context: String,
    },
    /// The peer reported a typed failure in an [`FrameType::Error`]
    /// frame.
    Remote {
        /// The [`error_code`] the peer sent.
        code: u16,
        /// The peer's human-readable message.
        message: String,
    },
}

impl WireError {
    /// Convenience constructor for [`WireError::Io`].
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        WireError::Io {
            context: context.into(),
            source,
        }
    }

    /// Convenience constructor for [`WireError::Malformed`].
    pub fn malformed(message: impl Into<String>) -> Self {
        WireError::Malformed {
            message: message.into(),
        }
    }

    /// Convenience constructor for [`WireError::SpecMismatch`].
    pub fn spec_mismatch(message: impl Into<String>) -> Self {
        WireError::SpecMismatch {
            message: message.into(),
        }
    }

    /// Convenience constructor for [`WireError::Timeout`].
    pub fn timeout(context: impl Into<String>) -> Self {
        WireError::Timeout {
            context: context.into(),
        }
    }

    /// Convenience constructor for [`WireError::Closed`].
    pub fn closed(context: impl Into<String>) -> Self {
        WireError::Closed {
            context: context.into(),
        }
    }

    /// Convenience constructor for [`WireError::UnexpectedFrame`].
    pub fn unexpected(context: impl Into<String>, found: FrameType) -> Self {
        WireError::UnexpectedFrame {
            context: context.into(),
            found: found.name(),
        }
    }

    /// A stable lower-snake label naming the failure kind, used as the
    /// `reason` label on the server's reject counters.
    pub fn label(&self) -> &'static str {
        match self {
            WireError::Io { .. } => "io",
            WireError::BadMagic { .. } => "bad_magic",
            WireError::UnsupportedVersion { .. } => "unsupported_version",
            WireError::UnknownFrameType { .. } => "unknown_frame_type",
            WireError::ReservedNonZero { .. } => "reserved_nonzero",
            WireError::Oversized { .. } => "oversized",
            WireError::Truncated { .. } => "truncated",
            WireError::ChecksumMismatch { .. } => "checksum_mismatch",
            WireError::Malformed { .. } => "malformed",
            WireError::SpecMismatch { .. } => "spec_mismatch",
            WireError::UnexpectedFrame { .. } => "unexpected_frame",
            WireError::Protocol(_) => "protocol",
            WireError::Timeout { .. } => "timeout",
            WireError::Closed { .. } => "closed",
            WireError::Remote { .. } => "remote",
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io { context, source } => write!(f, "wire i/o error ({context}): {source}"),
            WireError::BadMagic { found } => {
                write!(f, "not a wire frame: bad magic bytes {found:02x?}")
            }
            WireError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported wire version {found} (this peer speaks {supported})"
            ),
            WireError::UnknownFrameType { found } => {
                write!(f, "unknown frame type {found:#04x}")
            }
            WireError::ReservedNonZero { found } => {
                write!(f, "reserved header bytes are not zero: {found:02x?}")
            }
            WireError::Oversized { declared, max } => write!(
                f,
                "oversized frame: declares {declared} payload bytes, cap is {max}"
            ),
            WireError::Truncated {
                offset,
                needed,
                available,
            } => write!(
                f,
                "truncated frame: needed {needed} bytes at offset {offset}, only {available} available"
            ),
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame checksum mismatch: frame stores {stored:#018x} but contents hash to {computed:#018x}"
            ),
            WireError::Malformed { message } => write!(f, "malformed frame payload: {message}"),
            WireError::SpecMismatch { message } => write!(f, "wire spec mismatch: {message}"),
            WireError::UnexpectedFrame { context, found } => {
                write!(f, "unexpected {found} frame ({context})")
            }
            WireError::Protocol(e) => write!(f, "protocol rejected the decoded reports: {e}"),
            WireError::Timeout { context } => write!(f, "wire timeout: {context}"),
            WireError::Closed { context } => write!(f, "connection closed: {context}"),
            WireError::Remote { code, message } => {
                write!(f, "peer reported error {code}: {message}")
            }
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io { source, .. } => Some(source),
            WireError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MdrrError> for WireError {
    fn from(e: MdrrError) -> Self {
        WireError::Protocol(e)
    }
}

/// Bounds-checked little-endian reader over a byte slice — the same
/// decode idiom as the snapshot format's cursor.  Never indexes, never
/// panics: every read reports [`WireError::Truncated`] with its offset.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        match self.bytes.get(self.pos..self.pos.saturating_add(n)) {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => Err(WireError::Truncated {
                offset: self.pos,
                needed: n,
                available: self.bytes.len().saturating_sub(self.pos),
            }),
        }
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        for (dst, src) in out.iter_mut().zip(slice.iter()) {
            *dst = *src;
        }
        Ok(out)
    }

    fn take_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take_array::<2>()?))
    }

    fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_array::<4>()?))
    }

    fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_array::<8>()?))
    }
}

/// Decodes and validates a 20-byte frame header, returning the frame
/// type and declared payload length.  The length cap is enforced here —
/// before any payload bytes are read or buffered — so a hostile header
/// can never size an allocation.
pub fn decode_header(header: &[u8]) -> Result<(FrameType, usize), WireError> {
    let mut cur = Cursor::new(header);
    let magic = cur.take_array::<8>()?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let version = cur.take_u32()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: WIRE_VERSION,
        });
    }
    let [type_byte] = cur.take_array::<1>()?;
    let frame_type =
        FrameType::from_byte(type_byte).ok_or(WireError::UnknownFrameType { found: type_byte })?;
    let reserved = cur.take_array::<3>()?;
    if reserved != [0u8; 3] {
        return Err(WireError::ReservedNonZero { found: reserved });
    }
    let payload_len = cur.take_u32()?;
    if payload_len > MAX_WIRE_PAYLOAD {
        return Err(WireError::Oversized {
            declared: payload_len as u64,
            max: MAX_WIRE_PAYLOAD as u64,
        });
    }
    Ok((frame_type, payload_len as usize))
}

/// Encodes one complete frame: header, payload, trailing CRC.
///
/// # Errors
/// [`WireError::Oversized`] if the payload exceeds [`MAX_WIRE_PAYLOAD`].
pub fn encode_frame(frame_type: FrameType, payload: &[u8]) -> Result<Vec<u8>, WireError> {
    if payload.len() as u64 > MAX_WIRE_PAYLOAD as u64 {
        return Err(WireError::Oversized {
            declared: payload.len() as u64,
            max: MAX_WIRE_PAYLOAD as u64,
        });
    }
    let mut out = Vec::with_capacity(frame_len(payload.len()));
    push_header(&mut out, frame_type, payload.len() as u32);
    out.extend_from_slice(payload);
    push_crc(&mut out);
    Ok(out)
}

/// Appends a frame header declaring `payload_len` payload bytes.
fn push_header(out: &mut Vec<u8>, frame_type: FrameType, payload_len: u32) {
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(frame_type.as_byte());
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&payload_len.to_le_bytes());
}

/// Appends the trailing CRC over everything already in `out`.
fn push_crc(out: &mut Vec<u8>) {
    let crc = crc64(out);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Decodes one complete frame from `bytes` (which must hold exactly one
/// frame), verifying magic, version, type, reserved bytes, declared
/// length and the trailing CRC — in that order, so header corruption is
/// reported as the specific field it hit and everything else falls to
/// the checksum.  Returns the frame type and a view of the payload.
pub fn decode_frame(bytes: &[u8]) -> Result<(FrameType, &[u8]), WireError> {
    let header = bytes.get(..WIRE_HEADER_LEN).ok_or(WireError::Truncated {
        offset: 0,
        needed: WIRE_HEADER_LEN,
        available: bytes.len(),
    })?;
    let (frame_type, payload_len) = decode_header(header)?;
    let body_len = WIRE_HEADER_LEN + payload_len;
    let payload = bytes
        .get(WIRE_HEADER_LEN..body_len)
        .ok_or(WireError::Truncated {
            offset: bytes.len(),
            needed: body_len - bytes.len().min(body_len),
            available: bytes.len().saturating_sub(WIRE_HEADER_LEN),
        })?;
    let trailer = bytes
        .get(body_len..body_len + WIRE_TRAILER_LEN)
        .ok_or(WireError::Truncated {
            offset: bytes.len(),
            needed: WIRE_TRAILER_LEN,
            available: bytes.len().saturating_sub(body_len),
        })?;
    if bytes.len() != body_len + WIRE_TRAILER_LEN {
        return Err(WireError::malformed(format!(
            "{} trailing bytes after the frame",
            bytes.len() - (body_len + WIRE_TRAILER_LEN)
        )));
    }
    let mut stored_bytes = [0u8; 8];
    for (dst, src) in stored_bytes.iter_mut().zip(trailer.iter()) {
        *dst = *src;
    }
    let stored = u64::from_le_bytes(stored_bytes);
    let computed = crc64(bytes.get(..body_len).unwrap_or(bytes));
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    Ok((frame_type, payload))
}

/// The payload view of a complete, already-validated frame buffer (as
/// filled by [`read_frame`]).  Empty for a buffer too short to be a
/// frame.
pub fn frame_payload(frame: &[u8]) -> &[u8] {
    let end = frame.len().saturating_sub(WIRE_TRAILER_LEN);
    frame.get(WIRE_HEADER_LEN..end).unwrap_or(&[])
}

// ---------------------------------------------------------------------------
// Typed payloads
// ---------------------------------------------------------------------------

/// The client's session-open payload: the schema and protocol spec it
/// encodes reports under.  The server refuses the session unless both
/// match its own exactly — a collector must never mix reports randomized
/// under different mechanisms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    /// The attribute schema the client encodes against.
    pub schema: Schema,
    /// The randomization mechanism the client encodes with.
    pub spec: ProtocolSpec,
}

/// The server's handshake reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HelloAck {
    /// How many shards the collector fans batches into (shard hints are
    /// taken modulo this).
    pub n_shards: usize,
    /// The backpressure window: how many batch frames the client may
    /// have in flight (sent but unacknowledged) at once.
    pub window: u32,
    /// The server's payload cap, so well-behaved clients can size their
    /// batches without tripping [`WireError::Oversized`].
    pub max_payload: u32,
}

/// The server's stats reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Reports ingested and acknowledged since the server started.
    pub total_reports: u64,
    /// Number of shards.
    pub n_shards: usize,
    /// Reports per shard, in shard order.
    pub shard_reports: Vec<u64>,
    /// Indices of currently quarantined shards.
    pub quarantined: Vec<usize>,
}

/// Serializes a handshake/query payload as JSON bytes.
pub fn encode_json<T: Serialize>(what: &str, value: &T) -> Result<Vec<u8>, WireError> {
    match serde_json::to_string(value) {
        Ok(text) => Ok(text.into_bytes()),
        Err(e) => Err(WireError::malformed(format!("encode {what}: {e}"))),
    }
}

/// Parses a handshake/query payload from JSON bytes, reporting bad UTF-8
/// and bad JSON as [`WireError::Malformed`].
pub fn decode_json<T: serde::Deserialize>(what: &str, payload: &[u8]) -> Result<T, WireError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| WireError::malformed(format!("{what} payload is not UTF-8: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| WireError::malformed(format!("{what} payload does not parse: {e}")))
}

/// The fixed-size prefix of a decoded batch payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchHeader {
    /// The client's sequence number, echoed back in the ack.
    pub seq: u64,
    /// The client's shard hint; the server routes to `hint % n_shards`.
    pub shard: u32,
}

/// Encodes a [`ReportBatch`] as a batch payload: `seq` (u64), shard hint
/// (u32), channel count (u32), report count (u32), then the channel-major
/// `u32` codes — the columnar layout, byte for byte.
///
/// # Errors
/// [`WireError::Malformed`] for ragged channels, [`WireError::Oversized`]
/// if the encoded payload would exceed [`MAX_WIRE_PAYLOAD`].
pub fn encode_batch_payload(
    seq: u64,
    shard: u32,
    batch: &ReportBatch,
) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(batch_payload_len(batch)? as usize);
    push_batch_payload(&mut out, seq, shard, batch)?;
    Ok(out)
}

/// Encodes a whole [`FrameType::Batch`] frame into `out`, replacing its
/// contents: the same bytes as [`encode_frame`] over
/// [`encode_batch_payload`], built in place so a sender can reuse one
/// buffer for every batch it sends.
///
/// # Errors
/// As [`encode_batch_payload`].
pub fn encode_batch_frame_into(
    out: &mut Vec<u8>,
    seq: u64,
    shard: u32,
    batch: &ReportBatch,
) -> Result<(), WireError> {
    let payload_len = batch_payload_len(batch)?;
    out.clear();
    out.reserve(frame_len(payload_len as usize));
    push_header(out, FrameType::Batch, payload_len);
    push_batch_payload(out, seq, shard, batch)?;
    push_crc(out);
    Ok(())
}

/// The byte length of `batch`'s payload, checked against
/// [`MAX_WIRE_PAYLOAD`] before anything is sized from it.
fn batch_payload_len(batch: &ReportBatch) -> Result<u32, WireError> {
    let code_bytes = (batch.n_channels() as u64) * (batch.n_reports() as u64) * 4;
    let total = BATCH_PAYLOAD_HEADER_LEN as u64 + code_bytes;
    if total > MAX_WIRE_PAYLOAD as u64 {
        return Err(WireError::Oversized {
            declared: total,
            max: MAX_WIRE_PAYLOAD as u64,
        });
    }
    Ok(total as u32)
}

/// Appends the batch payload of [`encode_batch_payload`] to `out`.
fn push_batch_payload(
    out: &mut Vec<u8>,
    seq: u64,
    shard: u32,
    batch: &ReportBatch,
) -> Result<(), WireError> {
    let n_channels = batch.n_channels();
    let n_reports = batch.n_reports();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&(n_channels as u32).to_le_bytes());
    out.extend_from_slice(&(n_reports as u32).to_le_bytes());
    for channel in batch.channels() {
        if channel.len() != n_reports {
            return Err(WireError::malformed(format!(
                "ragged batch: channel holds {} codes, expected {n_reports}",
                channel.len()
            )));
        }
        for &code in channel {
            out.extend_from_slice(&code.to_le_bytes());
        }
    }
    Ok(())
}

/// Decodes a batch payload into a reusable [`ReportBatch`] shaped for the
/// server's protocol.  The declared channel count must match the batch's
/// and the declared code count must account for *exactly* the bytes
/// received — both verified before any buffer is grown, so attacker
/// -controlled counts never size an allocation beyond bytes actually on
/// the wire.
pub fn decode_batch_payload(
    payload: &[u8],
    out: &mut ReportBatch,
) -> Result<BatchHeader, WireError> {
    let mut cur = Cursor::new(payload);
    let seq = cur.take_u64()?;
    let shard = cur.take_u32()?;
    let n_channels = cur.take_u32()?;
    let n_reports = cur.take_u32()?;
    if n_channels as usize != out.n_channels() {
        return Err(WireError::spec_mismatch(format!(
            "batch declares {n_channels} channels but the protocol has {}",
            out.n_channels()
        )));
    }
    let code_bytes = (n_channels as u64)
        .checked_mul(n_reports as u64)
        .and_then(|codes| codes.checked_mul(4))
        .ok_or_else(|| WireError::malformed("batch code count overflows".to_string()))?;
    let available = (payload.len() - BATCH_PAYLOAD_HEADER_LEN.min(payload.len())) as u64;
    if code_bytes != available {
        return Err(WireError::malformed(format!(
            "batch declares {code_bytes} code bytes but the payload carries {available}"
        )));
    }
    out.clear();
    let per_channel = (n_reports as usize).saturating_mul(4);
    for channel in out.channels_mut() {
        let raw = cur.take(per_channel)?;
        channel.extend(raw.chunks_exact(4).map(|chunk| {
            let mut bytes = [0u8; 4];
            for (dst, src) in bytes.iter_mut().zip(chunk.iter()) {
                *dst = *src;
            }
            u32::from_le_bytes(bytes)
        }));
    }
    Ok(BatchHeader { seq, shard })
}

/// Encodes a [`FrameType::BatchAck`] payload: `seq`, then the server's
/// running acknowledged-report total.
pub fn encode_batch_ack(seq: u64, total_reports: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&total_reports.to_le_bytes());
    out
}

/// Decodes a [`FrameType::BatchAck`] payload into `(seq, total_reports)`.
pub fn decode_batch_ack(payload: &[u8]) -> Result<(u64, u64), WireError> {
    let mut cur = Cursor::new(payload);
    let seq = cur.take_u64()?;
    let total = cur.take_u64()?;
    if payload.len() != 16 {
        return Err(WireError::malformed(format!(
            "batch ack payload is {} bytes, expected 16",
            payload.len()
        )));
    }
    Ok((seq, total))
}

/// Encodes a [`FrameType::GoodbyeAck`] payload: the final report total.
pub fn encode_goodbye_ack(total_reports: u64) -> Vec<u8> {
    total_reports.to_le_bytes().to_vec()
}

/// Decodes a [`FrameType::GoodbyeAck`] payload.
pub fn decode_goodbye_ack(payload: &[u8]) -> Result<u64, WireError> {
    let mut cur = Cursor::new(payload);
    let total = cur.take_u64()?;
    if payload.len() != 8 {
        return Err(WireError::malformed(format!(
            "goodbye ack payload is {} bytes, expected 8",
            payload.len()
        )));
    }
    Ok(total)
}

/// Encodes a [`FrameType::Error`] payload: a `u16` [`error_code`] plus a
/// UTF-8 message.
pub fn encode_error_payload(code: u16, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + message.len());
    out.extend_from_slice(&code.to_le_bytes());
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decodes a [`FrameType::Error`] payload into `(code, message)`.
pub fn decode_error_payload(payload: &[u8]) -> Result<(u16, String), WireError> {
    let mut cur = Cursor::new(payload);
    let code = cur.take_u16()?;
    let rest = cur.take(payload.len().saturating_sub(2))?;
    let message = std::str::from_utf8(rest)
        .map_err(|e| WireError::malformed(format!("error message is not UTF-8: {e}")))?;
    Ok((code, message.to_string()))
}

// ---------------------------------------------------------------------------
// Socket I/O
// ---------------------------------------------------------------------------

/// Encodes and writes one frame, returning the bytes written.
pub fn write_frame<W: Write>(
    writer: &mut W,
    frame_type: FrameType,
    payload: &[u8],
) -> Result<usize, WireError> {
    let bytes = encode_frame(frame_type, payload)?;
    write_raw_frame(writer, &bytes)?;
    Ok(bytes.len())
}

/// Writes an already-encoded frame.
pub fn write_raw_frame<W: Write>(writer: &mut W, frame: &[u8]) -> Result<(), WireError> {
    writer
        .write_all(frame)
        .map_err(|e| WireError::io("write frame", e))?;
    writer.flush().map_err(|e| WireError::io("flush frame", e))
}

/// Reads one complete frame into `buf` (cleared first), validating the
/// header as soon as its 20 bytes arrive — so an oversized or alien
/// length field is rejected before a single payload byte is buffered —
/// and the CRC once the frame is complete.
///
/// `wait(bytes_so_far)` is consulted every time the underlying read
/// blocks past its poll timeout (`WouldBlock`/`TimedOut`); returning an
/// error aborts the read, which is how callers enforce drain flags, idle
/// budgets and mid-frame (slowloris) deadlines with an injected clock.
///
/// Returns `Ok(None)` on a clean EOF *between* frames; EOF mid-frame is
/// [`WireError::Closed`].  On `Ok(Some(_))`, `buf` holds the whole
/// validated frame and [`frame_payload`] views its payload.
pub fn read_frame<R: Read>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    wait: &mut dyn FnMut(usize) -> Result<(), WireError>,
) -> Result<Option<FrameType>, WireError> {
    buf.clear();
    if !fill(reader, buf, WIRE_HEADER_LEN, wait)? {
        return Ok(None);
    }
    let (frame_type, payload_len) = decode_header(buf)?;
    fill(reader, buf, frame_len(payload_len), wait)?;
    decode_frame(buf)?;
    Ok(Some(frame_type))
}

/// Appends bytes from `reader` until `buf` holds `target` bytes.
/// Returns `Ok(false)` on EOF before the first byte (clean close); EOF
/// after that is [`WireError::Closed`].  Never reads past `target`, so
/// back-to-back frames on one stream are never split.
fn fill<R: Read>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    target: usize,
    wait: &mut dyn FnMut(usize) -> Result<(), WireError>,
) -> Result<bool, WireError> {
    let mut chunk = [0u8; 8192];
    while buf.len() < target {
        let want = (target - buf.len()).min(chunk.len());
        let dst = match chunk.get_mut(..want) {
            Some(dst) => dst,
            None => return Err(WireError::malformed("internal: read chunk sizing")),
        };
        match reader.read(dst) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(false);
                }
                return Err(WireError::closed(format!(
                    "peer closed mid-frame after {} of {target} bytes",
                    buf.len()
                )));
            }
            Ok(n) => buf.extend_from_slice(dst.get(..n).unwrap_or(dst)),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                wait(buf.len())?;
            }
            Err(e) => return Err(WireError::io("read frame", e)),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;
    use mdrr_data::Attribute;
    use mdrr_protocols::RandomizationLevel;

    fn sample_batch() -> ReportBatch {
        let mut batch = ReportBatch::new(3).unwrap();
        batch.push(&Report::new(vec![1, 0, 2])).unwrap();
        batch.push(&Report::new(vec![0, 1, 3])).unwrap();
        batch
    }

    #[test]
    fn frame_round_trips() {
        for (frame_type, payload) in [
            (FrameType::Hello, b"{}".to_vec()),
            (FrameType::Goodbye, Vec::new()),
            (FrameType::Batch, vec![7u8; 100]),
        ] {
            let frame = encode_frame(frame_type, &payload).unwrap();
            assert_eq!(frame.len(), frame_len(payload.len()));
            let (decoded_type, decoded_payload) = decode_frame(&frame).unwrap();
            assert_eq!(decoded_type, frame_type);
            assert_eq!(decoded_payload, &payload[..]);
        }
    }

    #[test]
    fn in_place_batch_frames_equal_encode_frame_over_the_payload() {
        let mut frame = vec![0xAA; 7];
        let mut big = ReportBatch::new(3).unwrap();
        for i in 0..50 {
            big.push(&Report::new(vec![i % 2, i % 3, i % 4])).unwrap();
        }
        // Reusing one buffer for batches of different sizes leaves no
        // stale bytes behind.
        for (seq, batch) in [(9, big), (10, sample_batch())] {
            encode_batch_frame_into(&mut frame, seq, 1, &batch).unwrap();
            let payload = encode_batch_payload(seq, 1, &batch).unwrap();
            assert_eq!(frame, encode_frame(FrameType::Batch, &payload).unwrap());
        }
    }

    #[test]
    fn frame_type_bytes_round_trip_and_unknowns_are_none() {
        for t in FrameType::ALL {
            assert_eq!(FrameType::from_byte(t.as_byte()), Some(t));
            assert!(!t.name().is_empty());
        }
        assert_eq!(FrameType::from_byte(0), None);
        assert_eq!(FrameType::from_byte(0xEE), None);
    }

    #[test]
    fn batch_payload_round_trips() {
        let batch = sample_batch();
        let payload = encode_batch_payload(42, 3, &batch).unwrap();
        assert_eq!(payload.len(), BATCH_PAYLOAD_HEADER_LEN + 3 * 2 * 4);
        let mut out = ReportBatch::new(3).unwrap();
        let header = decode_batch_payload(&payload, &mut out).unwrap();
        assert_eq!(header, BatchHeader { seq: 42, shard: 3 });
        assert_eq!(out, batch);
        // Decoding into a reused batch replaces its contents.
        let header = decode_batch_payload(&payload, &mut out).unwrap();
        assert_eq!(header.seq, 42);
        assert_eq!(out, batch);
    }

    #[test]
    fn batch_payload_channel_mismatch_is_typed() {
        let payload = encode_batch_payload(1, 0, &sample_batch()).unwrap();
        let mut wrong = ReportBatch::new(2).unwrap();
        assert!(matches!(
            decode_batch_payload(&payload, &mut wrong),
            Err(WireError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn batch_payload_size_lies_are_typed() {
        let batch = sample_batch();
        let mut payload = encode_batch_payload(1, 0, &batch).unwrap();
        // Declare one more report than the bytes carry.
        payload[16..20].copy_from_slice(&3u32.to_le_bytes());
        let mut out = ReportBatch::new(3).unwrap();
        assert!(matches!(
            decode_batch_payload(&payload, &mut out),
            Err(WireError::Malformed { .. })
        ));
        // Overflowing count fields error before any allocation.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&0u64.to_le_bytes());
        hostile.extend_from_slice(&0u32.to_le_bytes());
        hostile.extend_from_slice(&3u32.to_le_bytes());
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_batch_payload(&hostile, &mut out),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn ack_error_and_goodbye_payloads_round_trip() {
        assert_eq!(
            decode_batch_ack(&encode_batch_ack(7, 8192)).unwrap(),
            (7, 8192)
        );
        assert_eq!(decode_goodbye_ack(&encode_goodbye_ack(123)).unwrap(), 123);
        let (code, message) =
            decode_error_payload(&encode_error_payload(error_code::DRAINING, "drain")).unwrap();
        assert_eq!((code, message.as_str()), (error_code::DRAINING, "drain"));
        assert!(decode_batch_ack(&[0u8; 17]).is_err());
        assert!(decode_goodbye_ack(&[0u8; 9]).is_err());
        assert!(decode_error_payload(&[1u8]).is_err());
    }

    #[test]
    fn hello_json_round_trips() {
        let schema = Schema::new(vec![
            Attribute::indexed("A", 3).unwrap(),
            Attribute::indexed("B", 2).unwrap(),
        ])
        .unwrap();
        let hello = Hello {
            schema,
            spec: ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7)),
        };
        let payload = encode_json("hello", &hello).unwrap();
        let decoded: Hello = decode_json("hello", &payload).unwrap();
        assert_eq!(decoded, hello);
        assert!(matches!(
            decode_json::<Hello>("hello", b"not json"),
            Err(WireError::Malformed { .. })
        ));
        assert!(matches!(
            decode_json::<Hello>("hello", &[0xFF, 0xFE]),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn header_corruption_is_field_specific() {
        let frame = encode_frame(FrameType::Goodbye, &[]).unwrap();
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_frame(&bad),
            Err(WireError::BadMagic { .. })
        ));
        let mut bad = frame.clone();
        bad[8] = 99;
        assert!(matches!(
            decode_frame(&bad),
            Err(WireError::UnsupportedVersion { found: 99, .. })
        ));
        let mut bad = frame.clone();
        bad[12] = 0xEE;
        assert!(matches!(
            decode_frame(&bad),
            Err(WireError::UnknownFrameType { found: 0xEE })
        ));
        let mut bad = frame.clone();
        bad[13] = 1;
        assert!(matches!(
            decode_frame(&bad),
            Err(WireError::ReservedNonZero { .. })
        ));
        let mut bad = frame;
        bad[16..20].copy_from_slice(&(MAX_WIRE_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&bad),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn read_frame_round_trips_over_a_reader_and_reports_clean_eof() {
        let a = encode_frame(FrameType::StatsQuery, &[]).unwrap();
        let b = encode_frame(FrameType::Goodbye, &[]).unwrap();
        let mut stream: &[u8] = &[a.clone(), b.clone()].concat();
        let mut buf = Vec::new();
        let mut wait = |_: usize| Ok(());
        assert_eq!(
            read_frame(&mut stream, &mut buf, &mut wait).unwrap(),
            Some(FrameType::StatsQuery)
        );
        assert_eq!(buf, a);
        assert_eq!(frame_payload(&buf), b"");
        assert_eq!(
            read_frame(&mut stream, &mut buf, &mut wait).unwrap(),
            Some(FrameType::Goodbye)
        );
        assert_eq!(
            read_frame(&mut stream, &mut buf, &mut wait).unwrap(),
            None,
            "clean EOF between frames is Ok(None)"
        );
        // EOF mid-frame is a typed Closed error.
        let mut partial: &[u8] = &b[..10];
        assert!(matches!(
            read_frame(&mut partial, &mut buf, &mut wait),
            Err(WireError::Closed { .. })
        ));
    }

    #[test]
    fn display_names_every_failure_mode() {
        let cases: Vec<(WireError, &str)> = vec![
            (WireError::io("dial", io::Error::other("refused")), "dial"),
            (
                WireError::BadMagic {
                    found: *b"NOTAWIRE",
                },
                "magic",
            ),
            (
                WireError::UnsupportedVersion {
                    found: 9,
                    supported: 1,
                },
                "version 9",
            ),
            (WireError::UnknownFrameType { found: 0xEE }, "0xee"),
            (WireError::ReservedNonZero { found: [1, 0, 0] }, "reserved"),
            (
                WireError::Oversized {
                    declared: 1 << 40,
                    max: 1 << 24,
                },
                "oversized",
            ),
            (
                WireError::Truncated {
                    offset: 12,
                    needed: 8,
                    available: 3,
                },
                "offset 12",
            ),
            (
                WireError::ChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
                "checksum",
            ),
            (WireError::malformed("ragged"), "ragged"),
            (WireError::spec_mismatch("joint vs independent"), "joint"),
            (
                WireError::unexpected("awaiting hello ack", FrameType::Stats),
                "stats",
            ),
            (
                WireError::Protocol(MdrrError::config("shard 9 out of range")),
                "shard 9",
            ),
            (WireError::timeout("ack wait"), "ack wait"),
            (WireError::closed("mid-frame"), "mid-frame"),
            (
                WireError::Remote {
                    code: error_code::DRAINING,
                    message: "draining".to_string(),
                },
                "draining",
            ),
        ];
        for (error, needle) in cases {
            assert!(
                error.to_string().contains(needle),
                "{error} should mention {needle}"
            );
            assert!(!error.label().is_empty());
        }
    }

    #[test]
    fn io_and_protocol_errors_expose_their_source() {
        use std::error::Error;
        assert!(WireError::io("read", io::Error::other("x"))
            .source()
            .is_some());
        assert!(WireError::Protocol(MdrrError::config("x"))
            .source()
            .is_some());
        assert!(WireError::timeout("x").source().is_none());
    }
}
