//! A lexed source file plus the lint-directive structure extracted from
//! its comments: named `lint:region(…)` spans, `lint:allow(…)`
//! suppressions, and the `#[cfg(test)]` / `#[test]` ranges most rules
//! exclude.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{lex, Token, TokenKind};
use std::cell::Cell;

/// Where in a crate a file lives — rules scope on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source under `src/` (excluding `src/bin/`).
    LibSrc,
    /// Binary source (`src/bin/*` or `src/main.rs`).
    BinSrc,
    /// Integration test under `tests/`.
    Test,
    /// Bench target under `benches/`.
    Bench,
    /// Example under `examples/`.
    Example,
}

/// One named `// lint:region(name)` … `// lint:endregion(name)` byte span.
#[derive(Debug, Clone)]
pub struct Region {
    /// The region's name (e.g. `no_alloc`).
    pub name: String,
    /// First byte covered (just past the opening marker comment).
    pub start: usize,
    /// One past the last byte covered (start of the closing marker).
    pub end: usize,
}

/// One `// lint:allow(rule, reason = "…")` suppression.
#[derive(Debug)]
pub struct Suppression {
    /// The rule id being suppressed.
    pub rule: String,
    /// The mandatory human reason (absence is a hard error).
    pub reason: String,
    /// Line of the comment itself.
    pub line: u32,
    /// The line of code the suppression covers (the comment's own line for
    /// a trailing comment, otherwise the next line holding code).
    pub covers_line: u32,
    /// Set when a finding was actually suppressed — unused suppressions
    /// are reported so stale allows cannot linger.
    pub used: Cell<bool>,
}

/// A lexed file with its directive structure, ready for rules.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The owning crate's package name (`mdrr-store`, …), if any.
    pub crate_name: String,
    /// Which tree the file sits in (lib/bin/test/bench/example).
    pub kind: FileKind,
    /// The full file contents.
    pub text: String,
    /// Every token, tiling `text` (includes comments and whitespace).
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of significant (non-trivia) tokens.
    pub sig: Vec<usize>,
    /// All named regions, in order of opening.
    pub regions: Vec<Region>,
    /// All suppressions found in comments.
    pub suppressions: Vec<Suppression>,
    /// Byte ranges of `#[cfg(test)]` items and `#[test]` functions.
    pub test_ranges: Vec<(usize, usize)>,
    /// Malformed-directive errors found while parsing this file.
    pub directive_errors: Vec<Diagnostic>,
}

impl SourceFile {
    /// Lexes `text` and extracts the directive structure.
    pub fn parse(rel: &str, crate_name: &str, kind: FileKind, text: String) -> SourceFile {
        let tokens = lex(&text);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind.is_significant())
            .map(|(i, _)| i)
            .collect();
        let mut file = SourceFile {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            text,
            tokens,
            sig,
            regions: Vec::new(),
            suppressions: Vec::new(),
            test_ranges: Vec::new(),
            directive_errors: Vec::new(),
        };
        file.extract_directives();
        file.extract_test_ranges();
        file
    }

    /// The significant token at significant-index `i`, if any.
    pub fn sig_token(&self, i: usize) -> Option<&Token> {
        self.sig.get(i).and_then(|&ti| self.tokens.get(ti))
    }

    /// The text of the significant token at significant-index `i`.
    pub fn sig_text(&self, i: usize) -> &str {
        self.sig_token(i).map(|t| t.text(&self.text)).unwrap_or("")
    }

    /// Whether byte offset `at` falls inside `#[cfg(test)]` / `#[test]`
    /// code.
    pub fn in_test_code(&self, at: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| at >= s && at < e)
    }

    /// Whether byte offset `at` falls inside a region named `name`.
    pub fn in_region(&self, name: &str, at: usize) -> bool {
        self.regions
            .iter()
            .any(|r| r.name == name && at >= r.start && at < r.end)
    }

    /// The 1-based source line `line`, if present.
    pub fn line_text(&self, line: u32) -> Option<&str> {
        self.text.lines().nth(line.saturating_sub(1) as usize)
    }

    /// Builds a snippet-carrying diagnostic anchored at token `tok`.
    pub fn diag_at(&self, rule: &str, tok: &Token, message: String) -> Diagnostic {
        Diagnostic {
            rule: rule.to_string(),
            severity: Severity::Warning,
            file: self.rel.clone(),
            line: tok.line,
            col: tok.col,
            message,
            snippet: self.line_text(tok.line).map(str::to_string),
            span_chars: tok.text(&self.text).chars().count().max(1),
            help: None,
        }
    }

    /// Walks comment tokens for `lint:` directives: regions, endregions
    /// and allows.  Malformed directives become hard errors.
    fn extract_directives(&mut self) {
        // name -> stack of opening byte offsets.
        let mut open: Vec<(String, usize, u32)> = Vec::new();
        let comments: Vec<Token> = self
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .copied()
            .collect();
        for tok in comments {
            let body = comment_body(tok.text(&self.text)).to_string();
            let Some(directive) = body.trim().strip_prefix("lint:") else {
                continue;
            };
            let directive = directive.trim();
            if let Some(args) = parse_call(directive, "region") {
                for name in args.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    open.push((name.to_string(), tok.end, tok.line));
                }
            } else if let Some(args) = parse_call(directive, "endregion") {
                for name in args.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    match open.iter().rposition(|(n, _, _)| n == name) {
                        Some(i) => {
                            let (name, start, _) = open.remove(i);
                            self.regions.push(Region {
                                name,
                                start,
                                end: tok.start,
                            });
                        }
                        None => self.directive_error(
                            &tok,
                            format!("`lint:endregion({name})` closes a region that is not open"),
                        ),
                    }
                }
            } else if let Some(args) = parse_call(directive, "allow") {
                match parse_allow(args) {
                    Ok((rule, reason)) => {
                        let covers_line = self.line_covered_by_comment(&tok);
                        self.suppressions.push(Suppression {
                            rule,
                            reason,
                            line: tok.line,
                            covers_line,
                            used: Cell::new(false),
                        });
                    }
                    Err(why) => self.directive_error(&tok, why),
                }
            } else {
                self.directive_error(
                    &tok,
                    format!(
                        "unknown lint directive `{}` (expected `region(…)`, \
                         `endregion(…)` or `allow(rule, reason = \"…\")`)",
                        directive.chars().take(40).collect::<String>()
                    ),
                );
            }
        }
        // Regions left open at EOF are a directive error; close them at
        // EOF so scoped rules still see the code.
        for (name, start, line) in open {
            self.directive_errors.push(Diagnostic {
                rule: "lint-directive".into(),
                severity: Severity::Error,
                file: self.rel.clone(),
                line,
                col: 1,
                message: format!("`lint:region({name})` is never closed"),
                snippet: self.line_text(line).map(str::to_string),
                span_chars: 1,
                help: Some(format!("add `// lint:endregion({name})` after the region")),
            });
            self.regions.push(Region {
                name,
                start,
                end: self.text.len(),
            });
        }
    }

    /// The line a suppression comment covers: the comment's own line if
    /// code precedes it there (trailing comment), otherwise the line of
    /// the next significant token.
    fn line_covered_by_comment(&self, comment: &Token) -> u32 {
        let code_before_on_line = self
            .sig
            .iter()
            .filter_map(|&i| self.tokens.get(i))
            .any(|t| t.line == comment.line && t.start < comment.start);
        if code_before_on_line {
            return comment.line;
        }
        self.sig
            .iter()
            .filter_map(|&i| self.tokens.get(i))
            .find(|t| t.start > comment.end)
            .map(|t| t.line)
            .unwrap_or(comment.line)
    }

    fn directive_error(&mut self, tok: &Token, message: String) {
        self.directive_errors.push(Diagnostic {
            rule: "lint-directive".into(),
            severity: Severity::Error,
            file: self.rel.clone(),
            line: tok.line,
            col: tok.col,
            message,
            snippet: self.line_text(tok.line).map(str::to_string),
            span_chars: tok.text(&self.text).chars().count().max(1),
            help: None,
        });
    }

    /// Finds `#[cfg(test)]`-gated items and `#[test]` functions, recording
    /// their byte ranges so rules can exempt test code.
    fn extract_test_ranges(&mut self) {
        let n = self.sig.len();
        let mut i = 0;
        while i < n {
            if self.sig_text(i) != "#" || self.sig_text(i + 1) != "[" {
                i += 1;
                continue;
            }
            // Scan the attribute's bracket group for `cfg … test` or a
            // bare `test`.
            let attr_start = match self.sig_token(i) {
                Some(t) => t.start,
                None => break,
            };
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut saw_cfg = false;
            let mut saw_test = false;
            let mut first = true;
            while j < n && depth > 0 {
                match self.sig_text(j) {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "cfg" => saw_cfg = true,
                    "test" => {
                        saw_test = true;
                        if first {
                            // `#[test]` exactly.
                            saw_cfg = saw_cfg || self.sig_text(j + 1) == "]";
                        }
                    }
                    _ => {}
                }
                first = false;
                j += 1;
            }
            if !(saw_cfg && saw_test) {
                i += 1;
                continue;
            }
            // Skip any further attributes, then span the gated item: to
            // the matching `}` of its first brace, or to the `;` of a
            // braceless item.
            let mut k = j;
            while self.sig_text(k) == "#" && self.sig_text(k + 1) == "[" {
                let mut d = 1usize;
                k += 2;
                while k < n && d > 0 {
                    match self.sig_text(k) {
                        "[" => d += 1,
                        "]" => d -= 1,
                        _ => {}
                    }
                    k += 1;
                }
            }
            let mut end_byte = self.text.len();
            let mut d = 0usize;
            let mut m = k;
            while m < n {
                match self.sig_text(m) {
                    "{" => d += 1,
                    "}" => {
                        d = d.saturating_sub(1);
                        if d == 0 {
                            end_byte = self.sig_token(m).map(|t| t.end).unwrap_or(end_byte);
                            break;
                        }
                    }
                    ";" if d == 0 => {
                        end_byte = self.sig_token(m).map(|t| t.end).unwrap_or(end_byte);
                        break;
                    }
                    _ => {}
                }
                m += 1;
            }
            self.test_ranges.push((attr_start, end_byte));
            i = m.max(i + 1);
        }
    }
}

/// Strips comment markers, leaving the body text.
fn comment_body(text: &str) -> &str {
    let text = text
        .strip_prefix("///")
        .or_else(|| text.strip_prefix("//!"))
        .or_else(|| text.strip_prefix("//"))
        .unwrap_or(text);
    let text = text.strip_prefix("/*").unwrap_or(text);
    text.strip_suffix("*/").unwrap_or(text)
}

/// If `directive` is `name(args)`, returns `args`.
fn parse_call<'a>(directive: &'a str, name: &str) -> Option<&'a str> {
    let rest = directive.strip_prefix(name)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.rfind(')')?;
    rest.get(..close)
}

/// Parses `rule, reason = "…"`, enforcing that the reason is present and
/// non-empty.
fn parse_allow(args: &str) -> Result<(String, String), String> {
    let (rule, rest) = match args.split_once(',') {
        Some((r, rest)) => (r.trim(), rest.trim()),
        None => (args.trim(), ""),
    };
    if rule.is_empty() {
        return Err("`lint:allow` names no rule".to_string());
    }
    let reason = rest
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim)
        .and_then(|r| r.strip_prefix('"'))
        .and_then(|r| r.strip_suffix('"'))
        .map(str::trim)
        .unwrap_or("");
    if reason.is_empty() {
        return Err(format!(
            "`lint:allow({rule})` carries no reason — every suppression must \
             explain itself: `// lint:allow({rule}, reason = \"…\")`"
        ));
    }
    Ok((rule.to_string(), reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(text: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/lib.rs", "x", FileKind::LibSrc, text.into())
    }

    #[test]
    fn regions_open_and_close_by_name() {
        let f = file(
            "fn a() {\n// lint:region(no_alloc)\nlet x = 1;\n// lint:endregion(no_alloc)\nlet y = 2;\n}",
        );
        assert_eq!(f.regions.len(), 1);
        let x_at = f.text.find("let x").unwrap();
        let y_at = f.text.find("let y").unwrap();
        assert!(f.in_region("no_alloc", x_at));
        assert!(!f.in_region("no_alloc", y_at));
        assert!(f.directive_errors.is_empty());
    }

    #[test]
    fn comma_lists_open_multiple_regions() {
        let f = file(
            "// lint:region(no_alloc, no_float)\nlet x = 1;\n// lint:endregion(no_alloc, no_float)\n",
        );
        assert_eq!(f.regions.len(), 2);
        let at = f.text.find("let x").unwrap();
        assert!(f.in_region("no_alloc", at) && f.in_region("no_float", at));
    }

    #[test]
    fn unbalanced_regions_are_hard_errors() {
        let f = file("// lint:region(no_alloc)\nlet x = 1;\n");
        assert_eq!(f.directive_errors.len(), 1);
        assert!(f.directive_errors[0].message.contains("never closed"));
        let g = file("// lint:endregion(no_alloc)\n");
        assert!(g.directive_errors[0].message.contains("not open"));
    }

    #[test]
    fn allow_requires_a_reason() {
        let f = file("// lint:allow(no-panic-paths)\nx.unwrap();\n");
        assert_eq!(f.suppressions.len(), 0);
        assert!(f.directive_errors[0].message.contains("carries no reason"));

        let g =
            file("// lint:allow(no-panic-paths, reason = \"bounds checked above\")\nx.unwrap();\n");
        assert!(g.directive_errors.is_empty());
        assert_eq!(g.suppressions.len(), 1);
        assert_eq!(g.suppressions[0].rule, "no-panic-paths");
        assert_eq!(g.suppressions[0].covers_line, 2);
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let g = file("x.unwrap(); // lint:allow(no-panic-paths, reason = \"test fixture only\")\n");
        assert_eq!(g.suppressions[0].covers_line, 1);
    }

    #[test]
    fn cfg_test_modules_and_test_fns_are_ranged() {
        let f = file(
            "pub fn lib() {}\n\
             #[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\n\
             pub fn lib2() {}\n",
        );
        assert_eq!(f.test_ranges.len(), 1);
        assert!(f.in_test_code(f.text.find("helper").unwrap()));
        assert!(!f.in_test_code(f.text.find("lib2").unwrap()));

        let g = file("#[test]\nfn unit() { assert!(true); }\nfn not_test() {}\n");
        assert!(g.in_test_code(g.text.find("unit").unwrap()));
        assert!(!g.in_test_code(g.text.find("not_test").unwrap()));
    }
}
