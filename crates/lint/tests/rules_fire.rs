//! The mutation suite: every rule must *fire* on its violating fixture
//! and stay *silent* on its conforming twin — a linter that never fires
//! is indistinguishable from one that works.  spec-sync additionally gets
//! true mutation tests against the real `docs/FORMAT.md` /
//! `crates/store/src/format.rs` texts: flip one constant in memory and
//! the rule must name exactly the drifted field.

use mdrr_lint::diag::Diagnostic;
use mdrr_lint::engine::run_filtered;
use mdrr_lint::rules::{all_rules, spec_sync};
use mdrr_lint::Workspace;

/// Runs exactly one rule over an in-memory workspace.
fn lint_one(rule: &str, rel: &str, text: &str) -> Vec<Diagnostic> {
    let ws = Workspace::in_memory(vec![(rel, text)], vec![]);
    let out = run_filtered(&ws, &all_rules(), Some(&[rule.to_string()]));
    out.diagnostics
}

#[test]
fn no_float_in_kernel_fires_on_types_and_literals() {
    let diags = lint_one(
        "no-float-in-kernel",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/no_float_in_kernel/violating.rs"),
    );
    assert_eq!(diags.len(), 5, "unexpected: {diags:#?}");
    assert!(diags.iter().any(|d| d.message.contains("float literal")));
    assert!(diags.iter().any(|d| d.message.contains("`f64`")));
}

#[test]
fn no_float_in_kernel_allows_floats_outside_the_region() {
    let diags = lint_one(
        "no-float-in-kernel",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/no_float_in_kernel/conforming.rs"),
    );
    assert!(diags.is_empty(), "unexpected: {diags:#?}");
}

#[test]
fn no_alloc_in_hot_loop_fires_on_the_allocating_vocabulary() {
    let diags = lint_one(
        "no-alloc-in-hot-loop",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/no_alloc_in_hot_loop/violating.rs"),
    );
    assert_eq!(diags.len(), 4, "unexpected: {diags:#?}");
    let all = diags
        .iter()
        .map(|d| d.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(all.contains("to_vec"));
    assert!(all.contains("format"));
    assert!(all.contains("collect"));
    assert!(all.contains("Box::new"));
}

#[test]
fn no_alloc_in_hot_loop_allows_hoisted_buffers() {
    let diags = lint_one(
        "no-alloc-in-hot-loop",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/no_alloc_in_hot_loop/conforming.rs"),
    );
    assert!(diags.is_empty(), "unexpected: {diags:#?}");
}

#[test]
fn crate_hygiene_fires_on_missing_attribute_and_bare_error_enum() {
    let diags = lint_one(
        "crate-hygiene",
        "crates/hygiene/src/lib.rs",
        include_str!("fixtures/crate_hygiene/violating.rs"),
    );
    assert_eq!(diags.len(), 2, "unexpected: {diags:#?}");
    assert!(diags
        .iter()
        .any(|d| d.message.contains("deny(missing_docs)")));
    assert!(diags.iter().any(|d| d.message.contains("FixtureError")
        && d.message.contains("`Display`")
        && d.message.contains("`std::error::Error`")));

    // A later crate-level attribute overrides the deny: rustc only warns.
    let diags = lint_one(
        "crate-hygiene",
        "crates/hygiene/src/lib.rs",
        include_str!("fixtures/crate_hygiene/overridden.rs"),
    );
    assert_eq!(diags.len(), 1, "unexpected: {diags:#?}");
    assert!(diags[0].message.contains("deny(missing_docs)"));
}

#[test]
fn crate_hygiene_accepts_wired_crates() {
    let diags = lint_one(
        "crate-hygiene",
        "crates/hygiene/src/lib.rs",
        include_str!("fixtures/crate_hygiene/conforming.rs"),
    );
    assert!(diags.is_empty(), "unexpected: {diags:#?}");

    // The last level wins, so a deny or forbid after a warn is in force.
    for text in [
        "//! Fixture.\n#![warn(missing_docs)]\n#![deny(missing_docs)]\n",
        "//! Fixture.\n#![allow(missing_docs)]\n#![forbid(unused, missing_docs)]\n",
    ] {
        let diags = lint_one("crate-hygiene", "crates/hygiene/src/lib.rs", text);
        assert!(diags.is_empty(), "{text:?}: {diags:#?}");
    }
}

// ---------------------------------------------------------------------------
// spec-sync: fixtures, then true mutation tests on the real repo texts.
// ---------------------------------------------------------------------------

const FIX_DOC_OK: &str = include_str!("fixtures/spec_sync/conforming_FORMAT.md");
const FIX_IMPL_OK: &str = include_str!("fixtures/spec_sync/conforming_format.rs");
const FIX_DOC_BAD: &str = include_str!("fixtures/spec_sync/violating_FORMAT.md");
const FIX_IMPL_BAD: &str = include_str!("fixtures/spec_sync/violating_format.rs");

/// The real texts, baked in at compile time so the test cannot drift from
/// the tree it ships with.
const REAL_DOC: &str = include_str!("../../../docs/FORMAT.md");
const REAL_IMPL: &str = include_str!("../../store/src/format.rs");

fn messages(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| d.message.as_str())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn spec_sync_fixture_pair_agrees() {
    let diags = spec_sync::check_texts(FIX_DOC_OK, FIX_IMPL_OK);
    assert!(diags.is_empty(), "unexpected: {diags:#?}");
}

#[test]
fn spec_sync_fires_on_a_drifted_document() {
    let all = messages(&spec_sync::check_texts(FIX_DOC_BAD, FIX_IMPL_OK));
    assert!(all.contains("magic hex spelling"), "got: {all}");
    assert!(all.contains("format version"), "got: {all}");
    assert!(all.contains("header-offset table"), "got: {all}");
    assert!(all.contains("should start at 20"), "got: {all}");
    assert!(all.contains("CRC-64 check vector"), "got: {all}");
}

#[test]
fn spec_sync_fires_on_a_drifted_implementation() {
    let all = messages(&spec_sync::check_texts(FIX_DOC_OK, FIX_IMPL_BAD));
    assert!(all.contains("magic bytes"), "got: {all}");
    assert!(all.contains("format version"), "got: {all}");
    assert!(all.contains("CRC-64 polynomial"), "got: {all}");
    assert!(all.contains("header-offset table"), "got: {all}");
}

#[test]
fn spec_sync_passes_on_the_real_tree() {
    let diags = spec_sync::check_texts(REAL_DOC, REAL_IMPL);
    assert!(diags.is_empty(), "the shipped spec drifted: {diags:#?}");
}

#[test]
fn spec_sync_names_a_flipped_format_version() {
    let mutated = REAL_IMPL.replace(
        "pub const FORMAT_VERSION: u32 = 1;",
        "pub const FORMAT_VERSION: u32 = 2;",
    );
    assert_ne!(
        mutated, REAL_IMPL,
        "the anchor constant moved; update this test"
    );
    let diags = spec_sync::check_texts(REAL_DOC, &mutated);
    let version: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.message.contains("format version"))
        .collect();
    assert_eq!(version.len(), 1, "got: {diags:#?}");
    assert!(version[0].message.contains("declares 1"));
    assert!(version[0].message.contains("defines 2"));
}

#[test]
fn spec_sync_names_flipped_magic_bytes() {
    let mutated = REAL_IMPL.replace(
        "pub const MAGIC: [u8; 8] = *b\"MDRRSNAP\";",
        "pub const MAGIC: [u8; 8] = *b\"MDRRSNAX\";",
    );
    assert_ne!(
        mutated, REAL_IMPL,
        "the anchor constant moved; update this test"
    );
    let all = messages(&spec_sync::check_texts(REAL_DOC, &mutated));
    assert!(all.contains("magic bytes drift"), "got: {all}");
    assert!(all.contains("MDRRSNAX"), "got: {all}");
}

#[test]
fn spec_sync_names_a_flipped_crc_polynomial() {
    let mutated = REAL_IMPL.replace("0xC96C_5795_D787_0F42", "0xC96C_5795_D787_0F43");
    assert_ne!(
        mutated, REAL_IMPL,
        "the anchor constant moved; update this test"
    );
    let all = messages(&spec_sync::check_texts(REAL_DOC, &mutated));
    assert!(all.contains("CRC-64 polynomial drift"), "got: {all}");
}

#[test]
fn spec_sync_names_a_flipped_check_vector() {
    let mutated = REAL_IMPL.replace("0x995D_C9BB_DF19_39FA", "0x995D_C9BB_DF19_39FB");
    assert_ne!(
        mutated, REAL_IMPL,
        "the anchor constant moved; update this test"
    );
    let all = messages(&spec_sync::check_texts(REAL_DOC, &mutated));
    assert!(all.contains("CRC-64 check vector drift"), "got: {all}");
}

#[test]
fn spec_sync_names_a_moved_offset_row() {
    let mutated = REAL_IMPL.replace(
        "//! 12      8     record count (u64)",
        "//! 16      8     record count (u64)",
    );
    assert_ne!(
        mutated, REAL_IMPL,
        "the module-doc table moved; update this test"
    );
    let all = messages(&spec_sync::check_texts(REAL_DOC, &mutated));
    assert!(all.contains("header-offset table drift"), "got: {all}");
}
