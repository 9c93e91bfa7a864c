//! The on-disk snapshot format: byte-level encoding, decoding and the
//! trailing checksum.
//!
//! The format is specified byte by byte in `docs/FORMAT.md` at the
//! repository root — this module is the reference implementation of that
//! contract.  In short (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  = "MDRRSNAP" (ASCII)
//! 8       4     format version (u32, currently 1)
//! 12      8     record count (u64)
//! 20      4     channel count C (u32)
//! 24      4     header JSON length H (u32)
//! 28      H     header JSON (UTF-8: schema, protocol spec, app state)
//! 28+H    …     C channel blocks: u32 length L, then L × u64 counts
//! end-8   8     CRC-64/XZ over every preceding byte (u64)
//! ```
//!
//! Decoding never trusts a declared length beyond the bytes actually
//! present, so corrupt length fields cannot trigger huge allocations;
//! every failure mode maps to a typed [`StoreError`].

use crate::error::StoreError;
use crate::snapshot::{Snapshot, SnapshotHeader};

/// The eight magic bytes every snapshot starts with (`MDRRSNAP` in ASCII).
///
/// ```
/// assert_eq!(mdrr_store::MAGIC, *b"MDRRSNAP");
/// ```
pub const MAGIC: [u8; 8] = *b"MDRRSNAP";

/// The snapshot format version this crate reads and writes.  Readers must
/// reject any other version (see `docs/FORMAT.md` for the versioning
/// rules).
///
/// ```
/// assert_eq!(mdrr_store::FORMAT_VERSION, 1);
/// ```
pub const FORMAT_VERSION: u32 = 1;

/// The reflected CRC-64/XZ generator polynomial.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// CRC-64/XZ (also known as CRC-64/GO-ECMA): reflected polynomial
/// `0xC96C5795D7870F42`, initial value `!0`, output
/// xor `!0`.  This is the checksum at the tail of every snapshot; it is
/// also exposed so external implementations of the format can test their
/// own checksummers against this one.
///
/// ```
/// // The standard check vector of CRC-64/XZ:
/// assert_eq!(mdrr_store::crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
/// assert_eq!(mdrr_store::crc64(b""), 0);
/// ```
pub fn crc64(bytes: &[u8]) -> u64 {
    // Slice-by-16 (Kounavis & Berry, ISCC 2005): each 16-byte block is
    // folded into the register with one lookup per byte, all sixteen
    // independent, instead of sixteen dependent byte steps.
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &CRC64_TABLES;
    let (blocks, tail) = bytes.as_chunks::<16>();
    let mut crc = !0u64;
    for &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] in blocks {
        let x = crc ^ u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]);
        let [x0, x1, x2, x3, x4, x5, x6, x7] = x.to_le_bytes();
        crc = lookup(t15, x0)
            ^ lookup(t14, x1)
            ^ lookup(t13, x2)
            ^ lookup(t12, x3)
            ^ lookup(t11, x4)
            ^ lookup(t10, x5)
            ^ lookup(t9, x6)
            ^ lookup(t8, x7)
            ^ lookup(t7, b8)
            ^ lookup(t6, b9)
            ^ lookup(t5, b10)
            ^ lookup(t4, b11)
            ^ lookup(t3, b12)
            ^ lookup(t2, b13)
            ^ lookup(t1, b14)
            ^ lookup(t0, b15);
    }
    for &b in tail {
        crc = lookup(t0, crc as u8 ^ b) ^ (crc >> 8);
    }
    !crc
}

/// `CRC64_TABLES[k][b]` is the register after shifting the byte value `b`
/// through `8·(k+1)` zero bits: table 0 is the classic byte-at-a-time
/// table, and table `k` accounts for a byte followed by `k` more bytes in
/// the same block.  32 KiB, computed at compile time.
static CRC64_TABLES: [[u64; 256]; 16] = crc64_tables();

const fn crc64_tables() -> [[u64; 256]; 16] {
    // `row` starts as the identity (row[b] = b) and is advanced by eight
    // zero bits before each table is taken from it.  Slices are walked
    // with `split_first_mut`, which const evaluation allows.
    let mut row = [0u64; 256];
    let mut byte = 0;
    let mut slots: &mut [u64] = &mut row;
    while let Some((slot, rest)) = slots.split_first_mut() {
        *slot = byte;
        byte += 1;
        slots = rest;
    }
    let mut tables = [[0u64; 256]; 16];
    let mut remaining: &mut [[u64; 256]] = &mut tables;
    while let Some((table, rest)) = remaining.split_first_mut() {
        let mut slots: &mut [u64] = &mut row;
        while let Some((slot, rest)) = slots.split_first_mut() {
            let mut bit = 0;
            while bit < 8 {
                *slot = if *slot & 1 == 1 {
                    (*slot >> 1) ^ CRC64_POLY
                } else {
                    *slot >> 1
                };
                bit += 1;
            }
            slots = rest;
        }
        *table = row;
        remaining = rest;
    }
    tables
}

/// One table lookup.  Every slice-by-16 lookup goes through here so the
/// proof that it cannot panic is made once.
#[inline(always)]
#[expect(
    clippy::indexing_slicing,
    reason = "a u8 index is below 256, the table's length"
)]
fn lookup(table: &[u64; 256], byte: u8) -> u64 {
    table[byte as usize]
}

/// Serializes a snapshot into the on-disk byte layout (header, channel
/// blocks, trailing checksum).
pub(crate) fn encode(snapshot: &Snapshot) -> Result<Vec<u8>, StoreError> {
    let header = SnapshotHeader {
        schema: snapshot.schema().clone(),
        spec: snapshot.spec().clone(),
        app_state: snapshot.app_state().map(str::to_string),
    };
    let header_json = serde_json::to_string(&header)
        .map_err(|e| StoreError::header(format!("header does not serialize: {e}")))?;
    let header_bytes = header_json.as_bytes();
    if header_bytes.len() > u32::MAX as usize {
        return Err(StoreError::header("header JSON exceeds u32::MAX bytes"));
    }

    let counts = snapshot.counts();
    let payload: usize = counts.iter().map(|c| 4 + 8 * c.len()).sum();
    let mut out = Vec::with_capacity(28 + header_bytes.len() + payload + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&snapshot.n_reports().to_le_bytes());
    out.extend_from_slice(&(counts.len() as u32).to_le_bytes());
    out.extend_from_slice(&(header_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(header_bytes);
    for channel in counts {
        if channel.len() > u32::MAX as usize {
            return Err(StoreError::layout("a channel exceeds u32::MAX categories"));
        }
        out.extend_from_slice(&(channel.len() as u32).to_le_bytes());
        for &count in channel {
            out.extend_from_slice(&count.to_le_bytes());
        }
    }
    let checksum = crc64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    Ok(out)
}

/// A bounds-checked reader over a byte buffer: every read either returns
/// the requested slice or a [`StoreError::Truncated`] naming the offset.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let available = self.bytes.len().saturating_sub(self.pos);
        let end = self.pos.saturating_add(n);
        let slice = self.bytes.get(self.pos..end).ok_or(StoreError::Truncated {
            offset: self.pos,
            needed: n,
            available,
        })?;
        self.pos = end;
        Ok(slice)
    }

    /// `take(N)` as a fixed-size array, with the length proven by
    /// construction rather than by a panicking conversion.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        for (dst, src) in out.iter_mut().zip(slice) {
            *dst = *src;
        }
        Ok(out)
    }

    fn take_u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    fn take_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }
}

/// Parses and validates the on-disk byte layout back into a snapshot:
/// magic and version first, then a bounds-checked structural walk, then
/// the checksum, then the header JSON and the counting invariants.
pub(crate) fn decode(bytes: &[u8]) -> Result<Snapshot, StoreError> {
    decode_timed(bytes, None).map(|(snapshot, _)| snapshot)
}

/// [`decode`], additionally reporting how long the CRC-64 verification
/// took (in nanoseconds of `clock`; 0 when `clock` is `None` or
/// disabled).  The observed read path uses this so checksum cost is
/// measured where it is paid instead of re-hashing the buffer.
pub(crate) fn decode_timed(
    bytes: &[u8],
    clock: Option<&dyn mdrr_obs::Clock>,
) -> Result<(Snapshot, u64), StoreError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let magic: [u8; 8] = cursor.take_array()?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic { found: magic });
    }
    let version = cursor.take_u32()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let n_reports = cursor.take_u64()?;
    let n_channels = cursor.take_u32()? as usize;
    let header_len = cursor.take_u32()? as usize;
    let header_bytes = cursor.take(header_len)?;
    let mut counts: Vec<Vec<u64>> = Vec::new();
    for _ in 0..n_channels {
        let len = cursor.take_u32()? as usize;
        // Bounds-check the whole block before allocating, so a corrupt
        // length field cannot request a giant buffer.
        let block = cursor.take(len.saturating_mul(8))?;
        counts.push(
            block
                .chunks_exact(8)
                .map(|c| {
                    let mut word = [0u8; 8];
                    for (dst, src) in word.iter_mut().zip(c) {
                        *dst = *src;
                    }
                    u64::from_le_bytes(word)
                })
                .collect(),
        );
    }
    let checksum_offset = cursor.pos;
    let stored = cursor.take_u64()?;
    if cursor.pos != bytes.len() {
        return Err(StoreError::layout(format!(
            "{} unexpected trailing bytes after the checksum",
            bytes.len() - cursor.pos
        )));
    }
    // `cursor.pos` never exceeds `bytes.len()` (every advance is bounds-
    // checked in `take`), so this slice is total; if that invariant ever
    // broke, falling back to the full buffer makes the comparison below
    // fail as a mismatch instead of panicking.
    let timing = clock.filter(|c| c.enabled());
    let crc_start = timing.map(|c| c.now_nanos());
    let computed = crc64(bytes.get(..checksum_offset).unwrap_or(bytes));
    let crc_nanos = match (timing, crc_start) {
        (Some(c), Some(start)) => c.now_nanos().saturating_sub(start),
        _ => 0,
    };
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }

    let header_json = std::str::from_utf8(header_bytes)
        .map_err(|_| StoreError::header("header is not valid UTF-8"))?;
    let header: SnapshotHeader = serde_json::from_str(header_json)
        .map_err(|e| StoreError::header(format!("header JSON does not parse: {e}")))?;
    let mut snapshot = Snapshot::new(header.schema, header.spec, counts, n_reports)?;
    snapshot.set_app_state(header.app_state);
    Ok((snapshot, crc_nanos))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_matches_the_published_check_vectors() {
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
        // A single flipped bit changes the checksum.
        assert_ne!(crc64(b"123456788"), crc64(b"123456789"));
    }

    #[test]
    fn decode_rejects_foreign_and_short_files() {
        assert!(matches!(
            decode(b"PNG\x89abc"),
            Err(StoreError::Truncated { .. })
        ));
        assert!(matches!(
            decode(b"NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxx"),
            Err(StoreError::BadMagic { .. })
        ));
        let mut future = Vec::new();
        future.extend_from_slice(&MAGIC);
        future.extend_from_slice(&7u32.to_le_bytes());
        future.extend_from_slice(&[0u8; 24]);
        assert!(matches!(
            decode(&future),
            Err(StoreError::UnsupportedVersion {
                found: 7,
                supported: 1
            })
        ));
    }
}
