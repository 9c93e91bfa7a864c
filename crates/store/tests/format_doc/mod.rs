//! `docs/FORMAT.md` read against the code: the one check behind both the
//! format test in `proptest_store.rs` and the mutation suite in
//! `rules_fire.rs`.

use mdrr_data::{Attribute, Schema};
use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
use mdrr_store::{crc64, Snapshot, FORMAT_VERSION, MAGIC};

/// `docs/FORMAT.md`, baked in at compile time so the tests read the doc
/// they ship with.
pub const FORMAT_MD: &str = include_str!("../../../../docs/FORMAT.md");

/// The reflected CRC-64/XZ generator polynomial.
pub const POLY: u64 = 0xC96C_5795_D787_0F42;

/// The values of the code that the doc quotes.  [`Code::real`] reads them
/// from the store; a test can drift one to play a changed implementation.
pub struct Code {
    /// The file magic the store writes.
    pub magic: [u8; 8],
    /// The format version the store writes.
    pub version: u32,
    /// The reflected polynomial the CRC-64 divides by.
    pub poly: u64,
    /// The CRC-64 of `b"123456789"`.
    pub check_vector: u64,
    /// `to_bytes()` of the worked example's snapshot: one 3-category
    /// attribute, RR-Independent at keep probability 0.7, counts
    /// `[5, 3, 2]` over 10 reports.
    pub worked_example: Vec<u8>,
}

impl Code {
    /// The values the store actually uses; the polynomial is that of the
    /// bitwise oracle `proptest_store.rs` holds `crc64` to.
    pub fn real() -> Self {
        let schema = Schema::new(vec![Attribute::indexed("A", 3).unwrap()]).unwrap();
        let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
        Code {
            magic: MAGIC,
            version: FORMAT_VERSION,
            poly: POLY,
            check_vector: crc64(b"123456789"),
            worked_example: Snapshot::new(schema, spec, vec![vec![5, 3, 2]], 10)
                .unwrap()
                .to_bytes()
                .unwrap(),
        }
    }
}

/// A real snapshot with two channels, as (counts, bytes): the one the
/// doc's fixed-prefix offsets are read against.
pub fn two_channel_snapshot() -> (Vec<Vec<u64>>, Vec<u8>) {
    let schema = Schema::new(vec![
        Attribute::indexed("A", 3).unwrap(),
        Attribute::indexed("B", 2).unwrap(),
    ])
    .unwrap();
    let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    let counts = vec![vec![5, 3, 2], vec![6, 4]];
    let bytes = Snapshot::new(schema, spec, counts.clone(), 10)
        .unwrap()
        .to_bytes()
        .unwrap();
    (counts, bytes)
}

/// `bytes` in the `hexdump -C` layout of the doc's worked example.
pub fn hexdump(bytes: &[u8]) -> String {
    let mut out = String::new();
    for (i, chunk) in bytes.chunks(16).enumerate() {
        let hex: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
        let ascii: String = chunk
            .iter()
            .map(|&b| {
                if (0x20..0x7f).contains(&b) {
                    b as char
                } else {
                    '.'
                }
            })
            .collect();
        out += &format!("{:08x}  {:<47}  |{ascii}|\n", i * 16, hex.join(" "));
    }
    out
}

/// The bytes of the first `text` block after `heading` in `doc`, read as
/// a hexdump: per line, the hex columns between the offset and the `|`.
pub fn dump_after(doc: &str, heading: &str) -> Option<Vec<u8>> {
    let block = doc.split_once(heading)?.1.split_once("```text\n")?.1;
    let block = block.split_once("```")?.0;
    block
        .lines()
        .flat_map(|line| {
            line.split('|')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .skip(1)
        })
        .map(|byte| u8::from_str_radix(byte, 16).ok())
        .collect()
}

/// The `k`-th backtick-quoted span after `anchor` on the first doc line
/// containing it.
fn quoted<'a>(doc: &'a str, anchor: &str, k: usize) -> Option<&'a str> {
    let rest = doc.lines().find_map(|line| line.split_once(anchor))?.1;
    rest.split('`').nth(2 * k + 1)
}

/// The layout table's rows with a numeric offset, as (field, offset,
/// size); the size is `None` where it varies.
pub fn layout_rows(doc: &str) -> Vec<(&str, usize, Option<usize>)> {
    doc.lines()
        .filter_map(|line| {
            let mut cells = line.strip_prefix('|')?.split('|');
            let offset = cells.next()?.trim().parse().ok()?;
            let size = cells.next()?.trim().parse().ok();
            let field = cells.next()?.split("**").nth(1)?;
            Some((field, offset, size))
        })
        .collect()
}

/// Every way `doc`, a copy of `docs/FORMAT.md`, disagrees with `code`:
/// one line per drifted field, opening with the field's name.  The
/// fixed-prefix offsets are read by hand from a real snapshot at the
/// offsets the doc gives.
pub fn drift(doc: &str, code: &Code) -> Vec<String> {
    let mut drift = Vec::new();
    let mut check = |field: &str, ok: bool, doc_says: String, code: String| {
        if !ok {
            drift.push(format!("{field}: the doc says {doc_says}, the code {code}"));
        }
    };

    let magic = quoted(doc, "ASCII bytes", 0);
    let magic_hex = quoted(doc, "ASCII bytes", 1).map(|hex| {
        hex.split_whitespace()
            .map(|b| u8::from_str_radix(b, 16).ok())
            .collect::<Option<Vec<u8>>>()
    });
    check(
        "magic ASCII",
        magic.map(str::as_bytes) == Some(&code.magic[..]),
        format!("{magic:?}"),
        format!("writes {:?}", String::from_utf8_lossy(&code.magic)),
    );
    check(
        "magic hex",
        magic_hex == Some(Some(code.magic.to_vec())),
        format!("{magic_hex:02x?}"),
        format!("writes {:02x?}", code.magic),
    );
    let version = quoted(doc, "currently", 0);
    check(
        "format version",
        version == Some(code.version.to_string().as_str()),
        format!("{version:?}"),
        format!("writes {}", code.version),
    );
    let hex = |s: &str| u64::from_str_radix(s.trim().trim_start_matches("0x"), 16).ok();
    let poly = quoted(doc, "polynomial (reflected):", 0).and_then(hex);
    check(
        "polynomial",
        poly == Some(code.poly),
        format!("{poly:x?}"),
        format!("divides by {:#x}", code.poly),
    );
    let check_vector = quoted(doc, "check vector:", 0)
        .and_then(|span| span.split_once('='))
        .and_then(|(_, value)| hex(value));
    check(
        "check vector",
        check_vector == Some(code.check_vector),
        format!("{check_vector:x?}"),
        format!("computes {:#x}", code.check_vector),
    );
    let reference = &code.worked_example;
    let dump = dump_after(doc, "## Worked example");
    check(
        "worked example",
        dump.as_ref() == Some(reference)
            && doc.contains(&format!("exactly these {} bytes", reference.len())),
        format!("{} bytes that differ", dump.map_or(0, |d| d.len())),
        format!(
            "writes these {} bytes:\n{}",
            reference.len(),
            hexdump(reference)
        ),
    );

    // FORMAT.md §layout: the fixed prefix, read at the doc's offsets.
    let (counts, bytes) = two_channel_snapshot();
    let blocks: usize = counts.iter().map(|c| 4 + 8 * c.len()).sum();
    let mut prefix: Vec<(&str, Vec<u8>)> = vec![
        ("magic", MAGIC.to_vec()),
        ("format version", FORMAT_VERSION.to_le_bytes().to_vec()),
        ("record count", 10u64.to_le_bytes().to_vec()),
        ("channel count", 2u32.to_le_bytes().to_vec()),
    ];
    // The header JSON is what the 4-byte header length, the channel
    // blocks and the 8-byte checksum leave over.
    let header_at = prefix.iter().map(|(_, b)| b.len()).sum::<usize>() + 4;
    let header_len = bytes.len() - header_at - blocks - 8;
    prefix.push((
        "header length",
        u32::try_from(header_len).unwrap().to_le_bytes().to_vec(),
    ));
    let rows = layout_rows(doc);
    let mut at = 0;
    for (field, want) in &prefix {
        let row = rows.iter().find(|row| row.0 == *field);
        let got = row.and_then(|&(_, offset, size)| bytes.get(offset..offset + size?));
        check(
            field,
            row.map(|row| row.1) == Some(at) && got == Some(want.as_slice()),
            format!("{row:?}"),
            format!("writes {want:02x?} at {at}"),
        );
        at += want.len();
    }
    let header_row = rows.iter().find(|row| row.0 == "header JSON");
    check(
        "header JSON",
        header_row.map(|row| row.1) == Some(at),
        format!("{header_row:?}"),
        format!("writes it at {at}"),
    );
    drift
}
