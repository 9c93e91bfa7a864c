//! Contracts held by the compiler and clippy rather than by `mdrr-lint`.
//!
//! The no-`unsafe` rule: the root manifest sets
//! `[workspace.lints.rust] unsafe_code = "forbid"`, and every non-vendor
//! member (plus the root package) opts in with `[lints] workspace = true`.
//! A crate added without the opt-in would compile `unsafe` code silently;
//! these tests fail instead.
//!
//! The panic-free, seeded-RNG and injected-clock contracts: the root
//! `clippy.toml` disallows the ambient entropy and clock sources, and each
//! no-panic root denies the panic vocabulary.  Dropping either would let
//! CI's clippy step pass on a violation; these tests fail instead.

use std::path::Path;

const ROOT_MANIFEST: &str = include_str!("../../../Cargo.toml");

/// Whether `manifest` has a line equal to `header` whose next
/// non-blank, non-comment line is `entry`.
fn has_table_entry(manifest: &str, header: &str, entry: &str) -> bool {
    let mut lines = manifest
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    while let Some(line) = lines.next() {
        if line == header && lines.next() == Some(entry) {
            return true;
        }
    }
    false
}

/// The quoted entries of the root manifest's `members = [...]` array.
fn workspace_members(root: &str) -> Vec<&str> {
    let start = root
        .lines()
        .position(|l| l.trim() == "members = [")
        .expect("the root manifest lists its members");
    root.lines()
        .skip(start + 1)
        .take_while(|l| l.trim() != "]")
        .filter_map(|l| {
            l.trim()
                .strip_suffix(',')?
                .strip_prefix('"')?
                .strip_suffix('"')
        })
        .collect()
}

#[test]
fn the_workspace_forbids_unsafe_code() {
    assert!(
        has_table_entry(
            ROOT_MANIFEST,
            "[workspace.lints.rust]",
            "unsafe_code = \"forbid\""
        ),
        "the root Cargo.toml must forbid unsafe_code for the workspace"
    );
}

#[test]
fn every_member_and_the_root_package_opt_into_the_workspace_lints() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let members: Vec<&str> = workspace_members(ROOT_MANIFEST)
        .into_iter()
        .filter(|m| !m.starts_with("vendor/"))
        .collect();
    assert!(members.contains(&"crates/lint"), "members: {members:?}");
    let mut missing = Vec::new();
    if !has_table_entry(ROOT_MANIFEST, "[lints]", "workspace = true") {
        missing.push("Cargo.toml".to_string());
    }
    for member in members {
        let rel = format!("{member}/Cargo.toml");
        let manifest = std::fs::read_to_string(repo.join(&rel))
            .unwrap_or_else(|e| panic!("cannot read {rel}: {e}"));
        if !has_table_entry(&manifest, "[lints]", "workspace = true") {
            missing.push(rel);
        }
    }
    assert!(
        missing.is_empty(),
        "manifests without `[lints] workspace = true`: {missing:?}"
    );
}

// ---------------------------------------------------------------------------
// Clippy holds the panic-free, seeded-RNG and injected-clock contracts.
// ---------------------------------------------------------------------------

const CLIPPY_TOML: &str = include_str!("../../../clippy.toml");

/// The roots that promise no panic on malformed or hostile input, with
/// their sources.
const NO_PANIC_ROOTS: [(&str, &str); 6] = [
    (
        "crates/store/src/lib.rs",
        include_str!("../../store/src/lib.rs"),
    ),
    (
        "crates/serve/src/lib.rs",
        include_str!("../../serve/src/lib.rs"),
    ),
    (
        "crates/stream/src/checkpoint.rs",
        include_str!("../../stream/src/checkpoint.rs"),
    ),
    (
        "crates/stream/src/collector.rs",
        include_str!("../../stream/src/collector.rs"),
    ),
    (
        "crates/stream/src/wire.rs",
        include_str!("../../stream/src/wire.rs"),
    ),
    (
        "crates/stream/src/client.rs",
        include_str!("../../stream/src/client.rs"),
    ),
];

/// The deny list every no-panic root carries, one lint per line.
const PANIC_DENY_LIST: [&str; 9] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::indexing_slicing",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::allow_attributes",
    "clippy::allow_attributes_without_reason",
];

#[test]
fn clippy_toml_bans_ambient_entropy_and_clocks_and_exempts_only_tests() {
    for path in [
        "rand::thread_rng",
        "rand::SeedableRng::from_entropy",
        "std::time::Instant",
        "std::time::SystemTime",
    ] {
        assert!(
            CLIPPY_TOML.contains(&format!("{{ path = \"{path}\"")),
            "clippy.toml must disallow `{path}`"
        );
    }
    for lint in ["unwrap", "expect", "panic", "indexing-slicing"] {
        let key = format!("allow-{lint}-in-tests = true");
        assert!(
            CLIPPY_TOML.lines().any(|l| l.trim() == key),
            "clippy.toml must set `{key}`"
        );
    }
}

#[test]
fn every_lint_excuse_must_state_a_reason() {
    assert!(
        has_table_entry(
            ROOT_MANIFEST,
            "[workspace.lints.clippy]",
            "allow_attributes_without_reason = \"deny\""
        ),
        "the root Cargo.toml must deny reasonless lint excuses for the workspace"
    );
}

#[test]
fn every_no_panic_root_denies_the_panic_vocabulary() {
    for (rel, text) in NO_PANIC_ROOTS {
        let start = text
            .find("#![deny(\n")
            .unwrap_or_else(|| panic!("{rel} carries no multi-line `#![deny(…)]`"));
        let list: Vec<&str> = text[start..]
            .lines()
            .skip(1)
            .map(str::trim)
            .take_while(|l| *l != ")]")
            .map(|l| l.trim_end_matches(','))
            .collect();
        assert_eq!(list, PANIC_DENY_LIST, "{rel}: the deny list drifted");
    }
}

#[test]
fn no_directive_names_a_rule_that_moved_to_clippy() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let needles: Vec<String> = [
        "no-panic-paths",
        "seeded-rng-only",
        "no-ambient-clock-in-lib",
    ]
    .iter()
    .map(|id| format!("lint:allow({id}"))
    .collect();
    let mut stack: Vec<_> = [
        "src",
        "tests",
        "examples",
        "crates",
        "vendor",
        "collectbench",
    ]
    .iter()
    .map(|d| repo.join(d))
    .collect();
    let mut stale = Vec::new();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for path in entries.map(|e| e.expect("a readable directory entry").path()) {
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                if needles.iter().any(|n| text.contains(n.as_str())) {
                    stale.push(path.display().to_string());
                }
            }
        }
    }
    assert!(stale.is_empty(), "directives for deleted rules: {stale:?}");
}
