//! The mutation suite: every rule must *fire* on its violating fixture
//! and stay *silent* on its conforming twin — a linter that never fires
//! is indistinguishable from one that works.

use mdrr_lint::diag::Diagnostic;
use mdrr_lint::engine::run_filtered;
use mdrr_lint::rules::all_rules;
use mdrr_lint::Workspace;

/// Runs exactly one rule over an in-memory workspace.
fn lint_one(rule: &str, rel: &str, text: &str) -> Vec<Diagnostic> {
    let ws = Workspace::in_memory(vec![(rel, text)]);
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
