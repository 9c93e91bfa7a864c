//! The no-`unsafe` rule is held by the compiler: the root manifest sets
//! `[workspace.lints.rust] unsafe_code = "forbid"`, and every non-vendor
//! member (plus the root package) opts in with `[lints] workspace = true`.
//! A crate added without the opt-in would compile `unsafe` code silently;
//! this test fails instead.

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
