//! The mutation suite of the `docs/FORMAT.md` check: the check must stay
//! silent on the shipped doc and code, and name exactly the drifted field
//! when either side moves — a check that never fires is
//! indistinguishable from one that works.  The tests keep the names they
//! had when the check was the `spec-sync` lint rule.

mod format_doc;
use format_doc::{drift, dump_after, hexdump, Code, FORMAT_MD, POLY};

/// The field names `drift` opened its lines with, sorted.
fn fields(drift: &[String]) -> Vec<&str> {
    let mut fields: Vec<&str> = drift
        .iter()
        .filter_map(|line| line.split(':').next())
        .collect();
    fields.sort_unstable();
    fields
}

/// The single-field drifts of the doc the suite seeds, as (field, the
/// text it replaces, its replacement).
const DOC_DRIFTS: [(&str, &str, &str); 7] = [
    ("format version", "currently `1`", "currently `2`"),
    ("magic ASCII", "bytes `MDRRSNAP`", "bytes `MDRRSNAX`"),
    ("magic hex", "53 4e 41 50`", "53 4e 41 51`"),
    ("polynomial", "`0xC96C5795D7870F42`", "`0xC96C5795D7870F43`"),
    (
        "check vector",
        "= 0x995DC9BBDF1939FA`",
        "= 0x995DC9BBDF1939FB`",
    ),
    (
        "record count",
        "| 12            | 8 ",
        "| 16            | 8 ",
    ),
    ("worked example", "52 fd fb 75", "52 fd fb 76"),
];

/// Seeds the drift of `field` from [`DOC_DRIFTS`] into a copy of the real
/// doc and asserts the real code drifts in exactly that field.
fn assert_doc_drift_named(field: &str) {
    let (_, from, to) = DOC_DRIFTS.iter().find(|d| d.0 == field).unwrap();
    let doc = FORMAT_MD.replacen(from, to, 1);
    assert_ne!(doc, FORMAT_MD, "{from:?} is gone from the doc");
    let drift = drift(&doc, &Code::real());
    assert_eq!(fields(&drift), [field], "got {drift:#?}");
}

/// The printer and the parser of the worked example are a pair: the dump
/// a failure prints, pasted under the heading, reads back as the same
/// bytes — also for a length that leaves a short last row.
#[test]
fn spec_sync_fixture_pair_agrees() {
    let bytes = Code::real().worked_example;
    assert_ne!(bytes.len() % 16, 0, "the short last row is not exercised");
    for len in [0, 1, 16, bytes.len()] {
        let doc = format!(
            "## Worked example\n\n```text\n{}```\n",
            hexdump(&bytes[..len])
        );
        assert_eq!(
            dump_after(&doc, "## Worked example"),
            Some(bytes[..len].to_vec())
        );
    }
}

#[test]
fn spec_sync_fires_on_a_drifted_document() {
    assert_doc_drift_named("worked example");

    // Every seeded drift at once: each is named, and nothing else.
    let doc = DOC_DRIFTS
        .iter()
        .fold(FORMAT_MD.to_string(), |doc, (_, from, to)| {
            let mutated = doc.replacen(from, to, 1);
            assert_ne!(mutated, doc, "{from:?} is gone from the doc");
            mutated
        });
    let mut want: Vec<&str> = DOC_DRIFTS.iter().map(|d| d.0).collect();
    want.sort_unstable();
    let drift = drift(&doc, &Code::real());
    assert_eq!(fields(&drift), want, "got {drift:#?}");
}

#[test]
fn spec_sync_fires_on_a_drifted_implementation() {
    let real = Code::real();
    let mut worked_example = real.worked_example.clone();
    worked_example[100] ^= 1;
    let code = Code {
        magic: *b"MDRRSNAX",
        version: real.version + 1,
        poly: POLY ^ 1,
        check_vector: real.check_vector ^ 1,
        worked_example,
    };
    let drift = drift(FORMAT_MD, &code);
    assert_eq!(
        fields(&drift),
        [
            "check vector",
            "format version",
            "magic ASCII",
            "magic hex",
            "polynomial",
            "worked example"
        ],
        "got {drift:#?}"
    );
    assert!(drift.iter().any(|line| line.contains("MDRRSNAX")));
}

#[test]
fn spec_sync_passes_on_the_real_tree() {
    let drift = drift(FORMAT_MD, &Code::real());
    assert!(drift.is_empty(), "the shipped spec drifted: {drift:#?}");
}

#[test]
fn spec_sync_names_a_flipped_format_version() {
    assert_doc_drift_named("format version");
}

#[test]
fn spec_sync_names_flipped_magic_bytes() {
    assert_doc_drift_named("magic ASCII");
    assert_doc_drift_named("magic hex");
}

#[test]
fn spec_sync_names_a_flipped_crc_polynomial() {
    assert_doc_drift_named("polynomial");
}

#[test]
fn spec_sync_names_a_flipped_check_vector() {
    assert_doc_drift_named("check vector");
}

#[test]
fn spec_sync_names_a_moved_offset_row() {
    assert_doc_drift_named("record count");
}
