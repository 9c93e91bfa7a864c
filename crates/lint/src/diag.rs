//! Rustc-style diagnostics: structured findings, terminal rendering, and a
//! machine-readable JSON report for CI artifacts.

use std::fmt::Write as _;

/// How severe a finding is.  Rule findings are warnings promoted to a
/// failing exit by `--deny-warnings`; malformed lint directives (an
/// `allow` without a reason, an unbalanced region) are always errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A contract violation; fails the run under `--deny-warnings`.
    Warning,
    /// A hard error; always fails the run.
    Error,
}

impl Severity {
    /// The lowercase label rustc would print.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding, anchored to a file position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule that produced this finding (its suppressible id).
    pub rule: String,
    /// Warning (deniable) or error (always fatal).
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column in characters.
    pub col: u32,
    /// The one-line statement of what is wrong.
    pub message: String,
    /// The source line the finding sits on, if available.
    pub snippet: Option<String>,
    /// How many characters of the snippet to underline (minimum 1).
    pub span_chars: usize,
    /// An optional `= help:` trailer (how to fix or suppress).
    pub help: Option<String>,
}

impl Diagnostic {
    /// A finding with no snippet context (file-level or cross-file rules).
    pub fn file_level(rule: &str, file: &str, message: String) -> Self {
        Diagnostic {
            rule: rule.to_string(),
            severity: Severity::Warning,
            file: file.to_string(),
            line: 1,
            col: 1,
            message,
            snippet: None,
            span_chars: 1,
            help: None,
        }
    }

    /// Attaches a `= help:` trailer.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Renders the finding in the familiar rustc layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}[{}]: {}",
            self.severity.label(),
            self.rule,
            self.message
        );
        let _ = writeln!(out, "  --> {}:{}:{}", self.file, self.line, self.col);
        if let Some(snippet) = &self.snippet {
            let gutter = format!("{}", self.line);
            let pad = " ".repeat(gutter.len());
            let _ = writeln!(out, "{pad} |");
            let _ = writeln!(out, "{gutter} | {}", snippet.trim_end());
            let underline_at = (self.col as usize).saturating_sub(1);
            let _ = writeln!(
                out,
                "{pad} | {}{}",
                " ".repeat(underline_at),
                "^".repeat(self.span_chars.max(1))
            );
        }
        if let Some(help) = &self.help {
            let _ = writeln!(out, "  = help: {help}");
        }
        out
    }
}

/// Escapes a string for inclusion in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The report format version: bump when the JSON shape changes, so CI
/// consumers can diff reports across runs meaningfully.
pub const REPORT_VERSION: u32 = 1;

/// Serializes a run as the JSON report uploaded from CI.  Hand-rolled:
/// the linter is deliberately dependency-free.  The report is
/// deterministic given identical findings and timings: findings arrive
/// pre-sorted by (file, line, col, rule) from the engine, and rule
/// times are emitted in registry order.
pub fn report_json(outcome: &crate::engine::Outcome) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"report_version\": {REPORT_VERSION},");
    let _ = writeln!(out, "  \"files_scanned\": {},", outcome.files_scanned);
    let _ = writeln!(out, "  \"suppressed\": {},", outcome.suppressed);
    let _ = writeln!(out, "  \"total_nanos\": {},", outcome.total_nanos);
    let _ = writeln!(out, "  \"rule_times\": [");
    for (i, (rule, nanos)) in outcome.rule_times.iter().enumerate() {
        let comma = if i + 1 == outcome.rule_times.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            out,
            "    {{\"rule\": \"{}\", \"nanos\": {nanos}}}{comma}",
            json_escape(rule),
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"findings\": [");
    let diagnostics = &outcome.diagnostics;
    for (i, d) in diagnostics.iter().enumerate() {
        let comma = if i + 1 == diagnostics.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"col\": {}, \"message\": \"{}\"}}{comma}",
            json_escape(&d.rule),
            d.severity.label(),
            json_escape(&d.file),
            d.line,
            d.col,
            json_escape(&d.message),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_matches_the_rustc_shape() {
        let d = Diagnostic {
            rule: "no-alloc-in-hot-loop".into(),
            severity: Severity::Warning,
            file: "crates/core/src/matrix.rs".into(),
            line: 12,
            col: 9,
            message: "`.to_vec()` allocates inside a no-alloc hot loop".into(),
            snippet: Some("        x.to_vec();".into()),
            span_chars: 6,
            help: Some("hoist the allocation out of the region".into()),
        };
        let text = d.render();
        assert!(text.starts_with("warning[no-alloc-in-hot-loop]:"));
        assert!(text.contains("--> crates/core/src/matrix.rs:12:9"));
        assert!(text.contains("^^^^^^"));
        assert!(text.contains("= help:"));
    }

    #[test]
    fn report_json_is_versioned_timed_and_round_trips_quotes() {
        let d = Diagnostic::file_level("spec-sync", "docs/FORMAT.md", "magic \"drift\"".into());
        let outcome = crate::engine::Outcome {
            diagnostics: vec![d],
            suppressed: 1,
            files_scanned: 3,
            rule_times: vec![("spec-sync".into(), 1234)],
            total_nanos: 5678,
        };
        let json = report_json(&outcome);
        assert!(json.contains("\"report_version\": 1"));
        assert!(json.contains("\\\"drift\\\""));
        assert!(json.contains("\"files_scanned\": 3"));
        assert!(json.contains("{\"rule\": \"spec-sync\", \"nanos\": 1234}"));
        assert!(json.contains("\"total_nanos\": 5678"));
    }

    #[test]
    fn report_json_is_deterministic_for_identical_outcomes() {
        let make = || crate::engine::Outcome {
            diagnostics: vec![Diagnostic::file_level("a-rule", "b.rs", "msg".into())],
            suppressed: 0,
            files_scanned: 1,
            rule_times: vec![("a-rule".into(), 7)],
            total_nanos: 9,
        };
        assert_eq!(report_json(&make()), report_json(&make()));
    }
}
