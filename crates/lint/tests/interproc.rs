//! Mutation tests for the interprocedural analyses: every seeded
//! violating call chain must be detected with an *exact* finding count,
//! every conforming variant must stay silent, and the privacy-taint
//! analysis must fire on a raw-record→snapshot chain injected into the
//! **real** workspace (then vanish when the injection is removed) — so
//! the analyses are proven live against the tree they actually guard.

use mdrr_lint::engine::run_filtered;
use mdrr_lint::rules::all_rules;
use mdrr_lint::{Diagnostic, Workspace};
use std::path::Path;

fn lint(rule: &str, files: Vec<(&str, &str)>) -> Vec<Diagnostic> {
    let ws = Workspace::in_memory(files, vec![]);
    run_filtered(&ws, &all_rules(), Some(&[rule.to_string()])).diagnostics
}

/// The real workspace this crate sits in, two levels down.
fn real_workspace() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    Workspace::discover(root.expect("workspace root")).expect("discover real workspace")
}

const DATA_STUB: &str = include_str!("fixtures/interproc/data_stub.rs");
const STORE_STUB: &str = include_str!("fixtures/interproc/store_stub.rs");
const PROTOCOLS_STUB: &str = include_str!("fixtures/interproc/protocols_stub.rs");

#[test]
fn taint_fires_once_on_a_violating_three_file_chain() {
    let diags = lint(
        "privacy-taint",
        vec![
            ("crates/data/src/lib.rs", DATA_STUB),
            ("crates/store/src/lib.rs", STORE_STUB),
            (
                "crates/eval/src/collect.rs",
                include_str!("fixtures/interproc/taint_chain_a.rs"),
            ),
            (
                "crates/stream/src/forward.rs",
                include_str!("fixtures/interproc/taint_chain_b.rs"),
            ),
            (
                "crates/store/src/persist.rs",
                include_str!("fixtures/interproc/taint_chain_c.rs"),
            ),
        ],
    );
    assert_eq!(diags.len(), 1, "exactly one finding: {diags:?}");
    let d = &diags[0];
    assert_eq!(d.file, "crates/store/src/persist.rs");
    assert!(
        d.message.contains("mdrr_eval::collect::collect_counts")
            && d.message.contains("mdrr_stream::forward::forward_records")
            && d.message.contains("mdrr_store::persist::persist_view")
            && d.message.contains("mdrr_store::Snapshot::new"),
        "chain names all three links and the sink: {}",
        d.message
    );
}

#[test]
fn taint_stays_silent_when_the_chain_passes_a_sanitizer() {
    let diags = lint(
        "privacy-taint",
        vec![
            ("crates/data/src/lib.rs", DATA_STUB),
            ("crates/store/src/lib.rs", STORE_STUB),
            ("crates/protocols/src/lib.rs", PROTOCOLS_STUB),
            (
                "crates/eval/src/collect.rs",
                include_str!("fixtures/interproc/taint_chain_a.rs"),
            ),
            (
                "crates/stream/src/forward.rs",
                include_str!("fixtures/interproc/taint_chain_b.rs"),
            ),
            (
                "crates/store/src/persist.rs",
                include_str!("fixtures/interproc/taint_sanitized_c.rs"),
            ),
        ],
    );
    assert_eq!(diags.len(), 0, "sanitized chain is clean: {diags:?}");
}

#[test]
fn taint_reports_a_diamond_exactly_once() {
    let diags = lint(
        "privacy-taint",
        vec![
            ("crates/data/src/lib.rs", DATA_STUB),
            ("crates/store/src/lib.rs", STORE_STUB),
            (
                "crates/stream/src/diamond.rs",
                include_str!("fixtures/interproc/taint_diamond.rs"),
            ),
        ],
    );
    assert_eq!(
        diags.len(),
        1,
        "one sink site, one finding — paths don't multiply: {diags:?}"
    );
    assert_eq!(diags[0].file, "crates/stream/src/diamond.rs");
}

#[test]
fn taint_terminates_on_recursive_cycles_and_still_fires() {
    let diags = lint(
        "privacy-taint",
        vec![
            ("crates/data/src/lib.rs", DATA_STUB),
            ("crates/store/src/lib.rs", STORE_STUB),
            (
                "crates/stream/src/cycle.rs",
                include_str!("fixtures/interproc/taint_cycle.rs"),
            ),
        ],
    );
    assert_eq!(diags.len(), 1, "cycle converges to one finding: {diags:?}");
    assert!(diags[0].message.contains("mdrr_stream::cycle::ping"));
}

#[test]
fn taint_flags_raw_prints_in_binaries_but_not_metadata() {
    let diags = lint(
        "privacy-taint",
        vec![
            ("crates/data/src/lib.rs", DATA_STUB),
            (
                "crates/stream/src/bin/stream_sim.rs",
                include_str!("fixtures/interproc/taint_bin_print.rs"),
            ),
        ],
    );
    assert_eq!(
        diags.len(),
        1,
        "raw view print flagged, len() print clean: {diags:?}"
    );
    assert!(diags[0].message.contains("println"));
}

#[test]
fn panic_reachability_crosses_crates_but_skips_the_file_rule_scope() {
    let violating = vec![
        (
            "crates/store/src/api.rs",
            include_str!("fixtures/interproc/panic_store_api.rs"),
        ),
        (
            "crates/math/src/lib.rs",
            include_str!("fixtures/interproc/panic_violating.rs"),
        ),
    ];
    let diags = lint("panic-reachability", violating);
    // Exactly one finding: the helper's unwrap.  The unwrap inside the
    // store file itself belongs to clippy's `unwrap_used`, which the
    // store denies at its crate root.
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].file, "crates/math/src/lib.rs");
    assert!(
        diags[0].message.contains("mdrr_store::api::load")
            && diags[0].message.contains("mdrr_math::checked_div"),
        "chain names root and helper: {}",
        diags[0].message
    );

    let conforming = vec![
        (
            "crates/store/src/api.rs",
            include_str!("fixtures/interproc/panic_store_api.rs"),
        ),
        (
            "crates/math/src/lib.rs",
            include_str!("fixtures/interproc/panic_conforming.rs"),
        ),
    ];
    assert_eq!(lint("panic-reachability", conforming).len(), 0);
}

#[test]
fn determinism_follows_the_release_chain() {
    let violating = vec![
        (
            "crates/protocols/src/release.rs",
            include_str!("fixtures/interproc/det_release_root.rs"),
        ),
        (
            "crates/core/src/norm.rs",
            include_str!("fixtures/interproc/det_violating.rs"),
        ),
    ];
    let diags = lint("determinism", violating);
    // Exactly two findings: the HashMap and the thread_rng draw.
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().any(|d| d.message.contains("HashMap")));
    assert!(diags.iter().any(|d| d.message.contains("thread_rng")));
    assert!(diags.iter().all(|d| d
        .message
        .contains("mdrr_protocols::release::release_from_counts")));

    let conforming = vec![
        (
            "crates/protocols/src/release.rs",
            include_str!("fixtures/interproc/det_release_root.rs"),
        ),
        (
            "crates/core/src/norm.rs",
            include_str!("fixtures/interproc/det_conforming.rs"),
        ),
    ];
    assert_eq!(lint("determinism", conforming).len(), 0);
}

#[test]
fn unreachable_hashmap_is_not_a_determinism_finding() {
    // The same HashMap helper with no root calling it: out of scope.
    let diags = lint(
        "determinism",
        vec![(
            "crates/core/src/norm.rs",
            include_str!("fixtures/interproc/det_violating.rs"),
        )],
    );
    assert_eq!(diags.len(), 0, "no root, no reach, no finding: {diags:?}");
}

/// The acceptance-criteria test: the real tree is taint-clean, and a
/// deliberately injected raw-record→snapshot chain is caught — the
/// injection lives only inside this test's in-memory copy, so the
/// "revert" is structural.
#[test]
fn real_tree_is_clean_and_a_seeded_leak_is_caught() {
    let mut ws = real_workspace();
    let rules = all_rules();
    let only = ["privacy-taint".to_string()];
    let clean = run_filtered(&ws, &rules, Some(&only));
    assert_eq!(
        clean.diagnostics.len(),
        0,
        "real tree must be taint-clean: {:?}",
        clean.diagnostics
    );

    ws.push_file(
        "crates/stream/src/debug_dump.rs",
        "use mdrr_data::Dataset;\n\
         use mdrr_store::Snapshot;\n\
         pub fn debug_dump(ds: &Dataset) -> Vec<u8> {\n\
             let snap = Snapshot::new(ds.view().as_slice());\n\
             snap.to_bytes()\n\
         }\n",
    );
    let leaked = run_filtered(&ws, &rules, Some(&only));
    assert_eq!(
        leaked.diagnostics.len(),
        1,
        "the seeded raw-record→snapshot chain must be the one finding: {:?}",
        leaked.diagnostics
    );
    let d = &leaked.diagnostics[0];
    assert_eq!(d.file, "crates/stream/src/debug_dump.rs");
    assert!(
        d.message.contains("debug_dump") && d.message.contains("Snapshot::new"),
        "finding names the injected chain and the sink: {}",
        d.message
    );
}

/// Checkpoints write through `Storage`, so its write methods are sinks:
/// raw records handed to `storage.atomic_write(..)` on a `&Storage`
/// parameter are the one finding in the real tree.
#[test]
fn real_tree_seeded_leak_through_storage_atomic_write_is_caught() {
    let mut ws = real_workspace();
    ws.push_file(
        "crates/stream/src/debug_persist.rs",
        "use mdrr_data::Dataset;\n\
         use mdrr_store::Storage;\n\
         use std::path::Path;\n\
         pub fn debug_persist(ds: &Dataset, storage: &Storage, path: &Path) {\n\
             let _ = storage.atomic_write(path, ds.view().as_slice());\n\
         }\n",
    );
    let only = ["privacy-taint".to_string()];
    let out = run_filtered(&ws, &all_rules(), Some(&only));
    assert_eq!(
        out.diagnostics.len(),
        1,
        "the seeded raw-record→Storage::atomic_write chain must be the one finding: {:?}",
        out.diagnostics
    );
    let d = &out.diagnostics[0];
    assert_eq!(d.file, "crates/stream/src/debug_persist.rs");
    assert!(
        d.message.contains("Storage::atomic_write"),
        "finding names the sink: {}",
        d.message
    );
}

/// The other two analyses are also live against the real tree: seeding
/// a panic chain behind a store pub API and a HashMap behind a release
/// root both produce findings.
#[test]
fn real_tree_seeded_panic_and_hashmap_chains_are_caught() {
    let rules = all_rules();

    let mut ws = real_workspace();
    ws.push_file(
        "crates/math/src/debug_unwrap.rs",
        "pub fn halve(n: u64) -> u64 { n.checked_div(2).unwrap() }\n",
    );
    ws.push_file(
        "crates/store/src/debug_api.rs",
        "use mdrr_math::debug_unwrap::halve;\n\
         pub fn load_half(n: u64) -> u64 { halve(n) }\n",
    );
    let only = ["panic-reachability".to_string()];
    let out = run_filtered(&ws, &rules, Some(&only));
    assert_eq!(
        out.diagnostics.len(),
        1,
        "seeded unwrap behind a store pub API: {:?}",
        out.diagnostics
    );
    assert_eq!(out.diagnostics[0].file, "crates/math/src/debug_unwrap.rs");

    let mut ws = real_workspace();
    ws.push_file(
        "crates/core/src/debug_order.rs",
        "use std::collections::HashMap;\n\
         pub fn jumble(counts: &[u64]) -> u64 {\n\
             let mut m = HashMap::new();\n\
             for (i, &c) in counts.iter().enumerate() { m.insert(i, c); }\n\
             m.values().sum()\n\
         }\n",
    );
    ws.push_file(
        "crates/protocols/src/debug_release.rs",
        "use mdrr_core::debug_order::jumble;\n\
         pub fn release_from_counts(counts: &[u64]) -> u64 { jumble(counts) }\n",
    );
    let only = ["determinism".to_string()];
    let out = run_filtered(&ws, &rules, Some(&only));
    assert_eq!(
        out.diagnostics.len(),
        1,
        "seeded HashMap behind a release root: {:?}",
        out.diagnostics
    );
    assert_eq!(out.diagnostics[0].file, "crates/core/src/debug_order.rs");
}
