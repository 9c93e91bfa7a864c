//! The engine: run every (selected) rule over a workspace, apply
//! `lint:allow` suppressions, surface malformed directives and stale
//! suppressions, and produce a deterministic, sorted finding list.

use crate::diag::{Diagnostic, Severity};
use crate::rules::{all_rules, Rule};
use crate::workspace::Workspace;

/// The result of one lint run.
#[derive(Debug)]
pub struct Outcome {
    /// Surviving findings, sorted by (file, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// How many findings `lint:allow` directives suppressed.
    pub suppressed: usize,
    /// How many source files were scanned.
    pub files_scanned: usize,
    /// Wall-time per rule that ran, in nanos, in registry order.  All
    /// zeros unless the caller passed a real clock to [`run_timed`].
    pub rule_times: Vec<(String, u64)>,
    /// Total wall-time of the run in nanos (same caveat).
    pub total_nanos: u64,
}

impl Outcome {
    /// Findings of exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether the run should fail CI: any hard error, or any warning
    /// under `--deny-warnings`.
    pub fn fails(&self, deny_warnings: bool) -> bool {
        self.count(Severity::Error) > 0 || (deny_warnings && self.count(Severity::Warning) > 0)
    }
}

/// Runs all rules over `ws`.
pub fn run(ws: &Workspace) -> Outcome {
    run_filtered(ws, &all_rules(), None)
}

/// Runs `rules` over `ws`, optionally restricted to the rule ids in
/// `only`.  Malformed-directive errors always surface; suppressions only
/// apply to the rule they name; a suppression that suppresses nothing is
/// itself reported so stale allows cannot accumulate.
pub fn run_filtered(ws: &Workspace, rules: &[Box<dyn Rule>], only: Option<&[String]>) -> Outcome {
    run_timed(ws, rules, only, &|| 0)
}

/// [`run_filtered`] with a caller-supplied monotonic-nanos clock, so the
/// report can carry per-rule wall-times.  The clock is injected (only
/// `main.rs` constructs one from `Instant`, under a reasoned `#[expect]`)
/// because the root `clippy.toml` disallows `std::time::Instant`.
pub fn run_timed(
    ws: &Workspace,
    rules: &[Box<dyn Rule>],
    only: Option<&[String]>,
    now: &dyn Fn() -> u64,
) -> Outcome {
    let run_start = now();
    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut rule_times: Vec<(String, u64)> = Vec::new();
    for rule in rules {
        if let Some(only) = only {
            if !only.iter().any(|id| id == rule.id()) {
                continue;
            }
        }
        let start = now();
        rule.check(ws, &mut raw);
        rule_times.push((rule.id().to_string(), now().saturating_sub(start)));
    }

    // Apply suppressions: a finding is suppressed when its file carries a
    // `lint:allow(rule, …)` whose covered line is the finding's line.
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut suppressed = 0usize;
    for diag in raw {
        let matched = ws.file(&diag.file).and_then(|f| {
            f.suppressions
                .iter()
                .find(|s| s.rule == diag.rule && s.covers_line == diag.line)
        });
        match matched {
            Some(sup) if diag.severity == Severity::Warning => {
                sup.used.set(true);
                suppressed += 1;
            }
            _ => diagnostics.push(diag),
        }
    }

    // Malformed directives are hard errors; stale suppressions are
    // warnings (they fail under --deny-warnings like any other finding).
    for file in &ws.files {
        diagnostics.extend(file.directive_errors.iter().cloned());
        for sup in file.suppressions.iter().filter(|s| !s.used.get()) {
            // An allow naming a rule absent from the registry is a hard
            // error regardless of any `--rule` filter — the directive
            // can never suppress anything, so a filtered run must not
            // hide the typo (it used to, when this check sat behind the
            // rule-ran gate below).
            let known = rules.iter().any(|r| r.id() == sup.rule);
            if !known {
                diagnostics.push(Diagnostic {
                    rule: "lint-directive".to_string(),
                    severity: Severity::Error,
                    file: file.rel.clone(),
                    line: sup.line,
                    col: 1,
                    message: format!(
                        "`lint:allow({})` names an unknown rule (see `mdrr-lint --list-rules`)",
                        sup.rule
                    ),
                    snippet: file.line_text(sup.line).map(str::to_string),
                    span_chars: 1,
                    help: Some(
                        "delete the directive; suppressions must not outlive their rule".into(),
                    ),
                });
                continue;
            }
            // Known rules: only flag suppressions naming rules that
            // actually ran, so a single-rule run doesn't call every
            // other allow stale.
            let rule_ran = match only {
                Some(only) => only.contains(&sup.rule),
                None => true,
            };
            if !rule_ran {
                continue;
            }
            diagnostics.push(Diagnostic {
                rule: "lint-directive".to_string(),
                severity: Severity::Warning,
                file: file.rel.clone(),
                line: sup.line,
                col: 1,
                message: format!(
                    "stale `lint:allow({})` — it suppresses nothing on line {}",
                    sup.rule, sup.covers_line
                ),
                snippet: file.line_text(sup.line).map(str::to_string),
                span_chars: 1,
                help: Some(
                    "delete the directive; suppressions must not outlive their finding".into(),
                ),
            });
        }
    }

    diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    Outcome {
        diagnostics,
        suppressed,
        files_scanned: ws.files.len(),
        rule_times,
        total_nanos: now().saturating_sub(run_start),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_with_reason_suppresses_and_is_counted() {
        let ws = Workspace::in_memory(
            vec![(
                "crates/core/src/x.rs",
                "/// Doc.\npub fn f(v: &[u8]) -> Vec<u8> {\n    \
                 // lint:region(no_alloc)\n    \
                 v.to_vec() // lint:allow(no-alloc-in-hot-loop, reason = \"one copy per batch\")\n    \
                 // lint:endregion(no_alloc)\n}\n",
            )],
            vec![],
        );
        let out = run_filtered(
            &ws,
            &all_rules(),
            Some(&["no-alloc-in-hot-loop".to_string()]),
        );
        assert_eq!(out.suppressed, 1);
        assert!(
            out.diagnostics.is_empty(),
            "unexpected: {:?}",
            out.diagnostics
        );
    }

    #[test]
    fn stale_allows_are_reported() {
        let ws = Workspace::in_memory(
            vec![(
                "crates/core/src/x.rs",
                "// lint:region(no_alloc)\n\
                 // lint:allow(no-alloc-in-hot-loop, reason = \"nothing here allocates\")\n\
                 pub fn f() -> u8 { 0 }\n\
                 // lint:endregion(no_alloc)\n",
            )],
            vec![],
        );
        let out = run_filtered(
            &ws,
            &all_rules(),
            Some(&["no-alloc-in-hot-loop".to_string()]),
        );
        assert_eq!(out.suppressed, 0);
        assert_eq!(out.diagnostics.len(), 1);
        assert!(out.diagnostics[0].message.contains("stale"));
    }

    #[test]
    fn unknown_rule_in_allow_is_a_hard_error() {
        let ws = Workspace::in_memory(
            vec![(
                "crates/store/src/x.rs",
                "// lint:allow(no-such-rule, reason = \"typo\")\npub fn f() {}\n",
            )],
            vec![],
        );
        let out = run_filtered(&ws, &all_rules(), None);
        assert!(out
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("unknown rule")));
    }

    #[test]
    fn unknown_rule_in_allow_fires_even_under_a_rule_filter() {
        // Regression: the unknown-rule escalation used to sit behind the
        // "did this rule run" gate, so `--rule spec-sync` runs silently
        // skipped allows naming rules that don't exist at all.
        let ws = Workspace::in_memory(
            vec![(
                "crates/store/src/x.rs",
                "// lint:allow(no-such-rule, reason = \"typo\")\npub fn f() {}\n",
            )],
            vec![],
        );
        let out = run_filtered(&ws, &all_rules(), Some(&["spec-sync".to_string()]));
        assert!(
            out.diagnostics
                .iter()
                .any(|d| d.severity == Severity::Error && d.message.contains("unknown rule")),
            "filtered run must still surface unknown-rule allows: {:?}",
            out.diagnostics
        );
    }

    #[test]
    fn run_timed_records_per_rule_and_total_wall_time() {
        let ws = Workspace::in_memory(vec![("crates/store/src/x.rs", "pub fn f() {}\n")], vec![]);
        // A deterministic fake clock: advances 5 ns per reading.
        let ticks = std::cell::Cell::new(0u64);
        let clock = move || {
            let t = ticks.get();
            ticks.set(t + 5);
            t
        };
        let out = run_timed(&ws, &all_rules(), None, &clock);
        assert_eq!(out.rule_times.len(), all_rules().len());
        assert!(out.rule_times.iter().all(|(_, ns)| *ns == 5));
        assert!(out.total_nanos >= 5 * all_rules().len() as u64);
    }
}
