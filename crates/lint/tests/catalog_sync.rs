//! The rule registry and `docs/LINTS.md` name the same rules: a rule
//! added without its catalog entry, or deleted while its entry lingers,
//! fails here.

use mdrr_lint::rules::all_rules;
use std::collections::BTreeSet;

const CATALOG: &str = include_str!("../../../docs/LINTS.md");

#[test]
fn every_registered_rule_has_exactly_one_catalog_entry() {
    let registered: BTreeSet<&str> = all_rules().iter().map(|rule| rule.id()).collect();
    let headings: Vec<&str> = CATALOG
        .lines()
        .filter_map(|line| line.strip_prefix("### `")?.strip_suffix('`'))
        .collect();
    let documented: BTreeSet<&str> = headings.iter().copied().collect();
    assert_eq!(
        documented.len(),
        headings.len(),
        "duplicate headings: {headings:?}"
    );
    assert_eq!(registered, documented);
}
