//! A lightweight item parser on top of the lexer: enough structure for
//! interprocedural analysis without a full grammar.
//!
//! One linear pass over a file's significant tokens recovers `fn`
//! signatures (name, parameters with their type text, body
//! token range), the `mod`/`impl`/`trait` nesting that scopes them, the
//! file's `use` declarations (alias → full path), and `impl Trait for
//! Type` pairs.  Everything downstream — the symbol table, the call
//! graph, the privacy-taint analysis — is built from these
//! items.  The parser is total: any token soup produces *some* item
//! list without panicking; unrecognized constructs are simply skipped.

use crate::source::SourceFile;

/// One parsed function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// The binding name (`ds`, `records`, …); empty for tuple patterns.
    pub name: String,
    /// The parameter's type, as written in the source (whitespace kept).
    pub ty: String,
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// In-file module path from inline `mod` blocks (file-level path is
    /// added by the symbol table from the file's location).
    pub module: Vec<String>,
    /// The surrounding `impl`/`trait` type name, if any.
    pub self_type: Option<String>,
    /// Whether the signature takes `self` in any form.
    pub has_self: bool,
    /// The non-self parameters.
    pub params: Vec<Param>,
    /// Significant-token indices of the body's `{` and matching `}`,
    /// if the item has a body (trait method declarations do not).
    pub body: Option<(usize, usize)>,
    /// Byte offset of the `fn` keyword (for test-range checks).
    pub byte_start: usize,
}

/// One leaf of a `use` declaration: `alias` names `segments` locally.
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// Full path segments as written (`mdrr_store`, `io`, `atomic_write`).
    pub segments: Vec<String>,
    /// The local name (the last segment, or the `as` rename).
    pub alias: String,
}

/// One `impl Trait for Type` pair (inherent impls are not recorded here).
#[derive(Debug, Clone)]
pub struct TraitImpl {
    /// The trait's final path segment (`Display`, `Protocol`).
    pub trait_name: String,
    /// The implementing type's name (`StoreError`, `RRClusters`).
    pub type_name: String,
}

/// Everything the item parser recovers from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// Every `use` leaf, in source order.
    pub uses: Vec<UseDecl>,
    /// Every `impl Trait for Type` pair.
    pub trait_impls: Vec<TraitImpl>,
}

/// What an open brace belongs to, for scope tracking.
#[derive(Debug, Clone)]
enum ScopeKind {
    /// An inline `mod name { … }`.
    Mod(String),
    /// An `impl`/`trait` block for the named type.
    Type(String),
    /// Any other brace (fn bodies, blocks, struct literals, …).
    Other,
}

/// Parses `file` into items.  See the module docs for what is (and is
/// deliberately not) recovered.
pub fn parse_items(file: &SourceFile) -> FileItems {
    let n = file.sig.len();
    let mut out = FileItems::default();
    let mut scopes: Vec<ScopeKind> = Vec::new();
    let mut pending: Option<ScopeKind> = None;
    // Functions whose body brace is open: (index into out.fns, scope
    // depth just *before* the body brace pushed).
    let mut open_fns: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < n {
        match file.sig_text(i) {
            "{" => {
                scopes.push(pending.take().unwrap_or(ScopeKind::Other));
                i += 1;
            }
            "}" => {
                scopes.pop();
                let depth = scopes.len();
                open_fns.retain(|&(fn_idx, d)| {
                    if d == depth {
                        if let Some(f) = out.fns.get_mut(fn_idx) {
                            if let Some((open, _)) = f.body {
                                f.body = Some((open, i));
                            }
                        }
                        false
                    } else {
                        true
                    }
                });
                i += 1;
            }
            "use" => i = parse_use(file, i, &mut out.uses),
            "mod" => {
                let name = file.sig_text(i + 1).to_string();
                if file.sig_text(i + 2) == "{" {
                    pending = Some(ScopeKind::Mod(name));
                }
                // `mod x;` declarations carry no in-file scope.
                i += 2;
            }
            "impl" => i = parse_impl_or_trait_header(file, i, &mut pending, &mut out.trait_impls),
            "trait" => {
                let name = file.sig_text(i + 1).to_string();
                pending = Some(ScopeKind::Type(name));
                i = skip_to_body_brace(file, i + 1);
            }
            "fn" => i = parse_fn(file, i, &scopes, &mut out.fns, &mut open_fns),
            _ => i += 1,
        }
    }
    out
}

/// Advances from `i` to the index of the next `{` at the current nesting
/// (used to skip trait/impl headers with bounds and where clauses).
fn skip_to_body_brace(file: &SourceFile, mut i: usize) -> usize {
    let n = file.sig.len();
    while i < n && file.sig_text(i) != "{" && file.sig_text(i) != ";" {
        i += 1;
    }
    i
}

/// Parses an `impl … {` header starting at the `impl` token: records the
/// trait/type pair (for trait impls) and stages the scope.  Returns the
/// index of the body `{`.
fn parse_impl_or_trait_header(
    file: &SourceFile,
    i: usize,
    pending: &mut Option<ScopeKind>,
    trait_impls: &mut Vec<TraitImpl>,
) -> usize {
    let n = file.sig.len();
    let mut j = i + 1;
    // Skip `impl<…>` generics.
    if file.sig_text(j) == "<" {
        j = skip_angles(file, j);
    }
    // Collect tokens to the body `{` (or `;` for weird cases), noting a
    // top-level `for` that splits `impl Trait for Type`.
    let header_start = j;
    let mut for_at: Option<usize> = None;
    let mut angle = 0i32;
    while j < n {
        let t = file.sig_text(j);
        match t {
            "{" | ";" if angle <= 0 => break,
            "<" => angle += 1,
            ">" if file.sig_text(j.wrapping_sub(1)) != "-" => angle -= 1,
            "for" if angle <= 0 && for_at.is_none() => for_at = Some(j),
            _ => {}
        }
        j += 1;
    }
    let (trait_range, type_range) = match for_at {
        Some(f) => (Some((header_start, f)), (f + 1, j)),
        None => (None, (header_start, j)),
    };
    let type_name = first_type_ident(file, type_range.0, type_range.1);
    if let (Some((ts, te)), Some(ty)) = (trait_range, type_name.clone()) {
        if let Some(tr) = last_path_ident(file, ts, te) {
            trait_impls.push(TraitImpl {
                trait_name: tr,
                type_name: ty,
            });
        }
    }
    *pending = Some(ScopeKind::Type(type_name.unwrap_or_default()));
    j
}

/// The first plain identifier in `[a, b)` that looks like a type name
/// (skips `&`, `mut`, `dyn`, lifetimes and punctuation).
fn first_type_ident(file: &SourceFile, a: usize, b: usize) -> Option<String> {
    (a..b).find_map(|k| {
        let t = file.sig_text(k);
        let starts_upper = t.chars().next().is_some_and(|c| c.is_ascii_uppercase());
        let is_ident = t.chars().all(|c| c.is_alphanumeric() || c == '_');
        if starts_upper && is_ident {
            Some(t.to_string())
        } else {
            None
        }
    })
}

/// The final path segment in `[a, b)` (`fmt::Display` → `Display`).
fn last_path_ident(file: &SourceFile, a: usize, b: usize) -> Option<String> {
    (a..b)
        .rev()
        .map(|k| file.sig_text(k))
        .find(|t| {
            t.chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || *t == "_")
                && t.chars().all(|c| c.is_alphanumeric() || c == '_')
        })
        .map(str::to_string)
}

/// Skips a balanced `<…>` group starting at the `<` at index `i`,
/// guarding against `->` closers.  Returns the index after the group.
fn skip_angles(file: &SourceFile, i: usize) -> usize {
    let n = file.sig.len();
    let mut depth = 0i32;
    let mut j = i;
    while j < n {
        match file.sig_text(j) {
            "<" => depth += 1,
            ">" if j > 0 && file.sig_text(j - 1) != "-" => {
                depth -= 1;
                if depth <= 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Finds the index of the `)` matching the `(` at index `open`.
pub(crate) fn match_paren(file: &SourceFile, open: usize) -> usize {
    let n = file.sig.len();
    let mut depth = 0i32;
    let mut j = open;
    while j < n {
        match file.sig_text(j) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth <= 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    n.saturating_sub(1)
}

/// Parses one `fn` item starting at the `fn` token.  Appends to `fns`
/// and registers an open body (if any) in `open_fns`.  Returns the index
/// to resume the main scan from (the body `{`, so the scope stack sees
/// it).
fn parse_fn(
    file: &SourceFile,
    i: usize,
    scopes: &[ScopeKind],
    fns: &mut Vec<FnItem>,
    open_fns: &mut Vec<(usize, usize)>,
) -> usize {
    let n = file.sig.len();
    let name = file.sig_text(i + 1).to_string();
    if name.is_empty()
        || !name
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
    {
        return i + 1; // `fn` inside a type like `fn(u32) -> u32`
    }
    let mut j = i + 2;
    if file.sig_text(j) == "<" {
        j = skip_angles(file, j);
    }
    if file.sig_text(j) != "(" {
        return i + 1;
    }
    let close = match_paren(file, j);
    let (params, has_self) = parse_params(file, j, close);
    // Skip return type / where clause to the body `{` or a `;`.
    let mut k = close + 1;
    let mut angle = 0i32;
    while k < n {
        let t = file.sig_text(k);
        match t {
            "<" => angle += 1,
            ">" if file.sig_text(k - 1) != "-" => angle -= 1,
            "{" | ";" if angle <= 0 => break,
            _ => {}
        }
        k += 1;
    }
    let module: Vec<String> = scopes
        .iter()
        .filter_map(|s| match s {
            ScopeKind::Mod(m) => Some(m.clone()),
            _ => None,
        })
        .collect();
    let self_type = scopes.iter().rev().find_map(|s| match s {
        ScopeKind::Type(t) if !t.is_empty() => Some(t.clone()),
        _ => None,
    });
    let tok = file.sig_token(i).copied();
    let body = (k < n && file.sig_text(k) == "{").then_some((k, n.saturating_sub(1)));
    fns.push(FnItem {
        name,
        module,
        self_type,
        has_self,
        params,
        body,
        byte_start: tok.map(|t| t.start).unwrap_or(0),
    });
    if body.is_some() {
        open_fns.push((fns.len() - 1, scopes.len()));
        k // resume at the `{` so the scope stack tracks the body
    } else {
        k + 1
    }
}

/// Parses the parameter list between `(` at `open` and `)` at `close`.
fn parse_params(file: &SourceFile, open: usize, close: usize) -> (Vec<Param>, bool) {
    let mut params = Vec::new();
    let mut has_self = false;
    let mut start = open + 1;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut angle = 0i32;
    let mut k = open + 1;
    while k <= close {
        let t = file.sig_text(k);
        let at_end = k == close;
        let top_comma = t == "," && paren == 0 && bracket == 0 && angle <= 0;
        if top_comma || at_end {
            if k > start {
                match parse_one_param(file, start, k) {
                    Some(p) => params.push(p),
                    None => has_self = true,
                }
            }
            start = k + 1;
        } else {
            match t {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "<" => angle += 1,
                ">" if file.sig_text(k - 1) != "-" => angle -= 1,
                _ => {}
            }
        }
        k += 1;
    }
    (params, has_self)
}

/// Parses one parameter in `[a, b)`.  Returns `None` for a `self`
/// receiver (in any of its forms).
fn parse_one_param(file: &SourceFile, a: usize, b: usize) -> Option<Param> {
    // A receiver: `self`, `&self`, `&mut self`, `&'a self`, `mut self`,
    // `self: Arc<Self>` — `self` appears in the leading tokens before any
    // `:` that isn't `self:` itself.
    let colon = (a..b).find(|&k| file.sig_text(k) == ":");
    let head_end = colon.unwrap_or(b);
    if (a..head_end).any(|k| file.sig_text(k) == "self") {
        return None;
    }
    let name = (a..head_end)
        .rev()
        .map(|k| file.sig_text(k))
        .find(|t| {
            t.chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
                && *t != "mut"
        })
        .unwrap_or("")
        .to_string();
    let ty = match colon {
        Some(c) if c + 1 < b => {
            let first = file.sig_token(c + 1)?;
            let last = file.sig_token(b - 1)?;
            file.text
                .get(first.start..last.end)
                .unwrap_or("")
                .to_string()
        }
        _ => String::new(),
    };
    Some(Param { name, ty })
}

/// Parses one `use` declaration starting at the `use` token, appending a
/// leaf per imported name.  Returns the index after the closing `;`.
fn parse_use(file: &SourceFile, i: usize, out: &mut Vec<UseDecl>) -> usize {
    let n = file.sig.len();
    // Find the terminating `;` at brace depth 0 (groups nest with `{}`).
    let mut end = i + 1;
    let mut depth = 0i32;
    while end < n {
        match file.sig_text(end) {
            "{" => depth += 1,
            "}" => depth -= 1,
            ";" if depth <= 0 => break,
            _ => {}
        }
        end += 1;
    }
    let mut prefix: Vec<String> = Vec::new();
    parse_use_tree(file, i + 1, end, &mut prefix, out);
    end + 1
}

/// Recursively parses a use tree in `[a, b)` with the accumulated
/// `prefix`, appending leaves to `out`.
fn parse_use_tree(
    file: &SourceFile,
    a: usize,
    b: usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<UseDecl>,
) {
    let pushed = prefix.len();
    let mut k = a;
    let mut last_seg: Option<String> = None;
    while k < b {
        let t = file.sig_text(k);
        match t {
            ":" => {
                // `::` — the pending segment joins the prefix.
                if let Some(seg) = last_seg.take() {
                    prefix.push(seg);
                }
                k += 1; // skip the second `:` via the outer increment
            }
            "{" => {
                // A group: split members at top-level commas.
                let close = match_brace(file, k);
                let mut item_start = k + 1;
                let mut depth = 0i32;
                for m in k + 1..close {
                    match file.sig_text(m) {
                        "{" => depth += 1,
                        "}" => depth -= 1,
                        "," if depth == 0 => {
                            parse_use_tree(file, item_start, m, prefix, out);
                            item_start = m + 1;
                        }
                        _ => {}
                    }
                }
                if close > item_start {
                    parse_use_tree(file, item_start, close, prefix, out);
                }
                prefix.truncate(pushed);
                return;
            }
            "as" => {
                // `… as alias` — emit with the rename and stop.
                let alias = file.sig_text(k + 1).to_string();
                if let Some(seg) = last_seg.take() {
                    if alias != "_" {
                        let mut segments = prefix.clone();
                        segments.push(seg);
                        out.push(UseDecl { segments, alias });
                    }
                }
                prefix.truncate(pushed);
                return;
            }
            "*" => {
                // Glob imports are not tracked (rare outside tests).
                prefix.truncate(pushed);
                return;
            }
            _ if t
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_') =>
            {
                last_seg = Some(t.to_string());
            }
            _ => {}
        }
        k += 1;
    }
    if let Some(seg) = last_seg {
        let mut segments = prefix.clone();
        segments.push(seg.clone());
        out.push(UseDecl {
            segments,
            alias: seg,
        });
    }
    prefix.truncate(pushed);
}

/// Finds the index of the `}` matching the `{` at index `open`.
fn match_brace(file: &SourceFile, open: usize) -> usize {
    let n = file.sig.len();
    let mut depth = 0i32;
    let mut j = open;
    while j < n {
        match file.sig_text(j) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth <= 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    n.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};

    fn parse(text: &str) -> FileItems {
        parse_items(&SourceFile::parse(
            "crates/x/src/lib.rs",
            "mdrr-x",
            FileKind::LibSrc,
            text.to_string(),
        ))
    }

    #[test]
    fn fn_signatures_params_and_bodies() {
        let items = parse(
            "pub fn alpha(ds: &Dataset, n: usize) -> Result<Vec<u32>, E> { beta(ds) }\n\
             fn beta(records: &[u32]) {}\n",
        );
        assert_eq!(items.fns.len(), 2);
        let a = &items.fns[0];
        assert!(!a.has_self);
        assert_eq!(a.name, "alpha");
        assert_eq!(a.params.len(), 2);
        assert_eq!(a.params[0].name, "ds");
        assert_eq!(a.params[0].ty, "&Dataset");
        assert!(a.body.is_some());
        let b = &items.fns[1];
        assert_eq!(b.params[0].ty, "&[u32]");
    }

    #[test]
    fn impl_and_trait_scopes_attach_self_types() {
        let items = parse(
            "impl Snapshot { pub fn to_bytes(&self) -> Vec<u8> { vec![] } }\n\
             impl fmt::Display for StoreError { fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) } }\n\
             trait Protocol { fn encode(&self) -> u32 { 0 } }\n",
        );
        let names: Vec<(Option<&str>, &str, bool)> = items
            .fns
            .iter()
            .map(|f| (f.self_type.as_deref(), f.name.as_str(), f.has_self))
            .collect();
        assert_eq!(
            names,
            vec![
                (Some("Snapshot"), "to_bytes", true),
                (Some("StoreError"), "fmt", true),
                (Some("Protocol"), "encode", true),
            ]
        );
        assert_eq!(items.trait_impls.len(), 1);
        assert_eq!(items.trait_impls[0].trait_name, "Display");
        assert_eq!(items.trait_impls[0].type_name, "StoreError");
    }

    #[test]
    fn inline_mods_contribute_module_paths() {
        let items = parse("mod inner { pub fn deep() {} }\nfn shallow() {}\n");
        assert_eq!(items.fns[0].module, vec!["inner".to_string()]);
        assert!(items.fns[1].module.is_empty());
    }

    #[test]
    fn use_trees_flatten_with_groups_and_renames() {
        let items = parse(
            "use mdrr_store::{Snapshot, io::atomic_write};\n\
             use crate::report::Report as Rep;\n\
             use mdrr_data::Dataset;\n",
        );
        let got: Vec<(String, Vec<String>)> = items
            .uses
            .iter()
            .map(|u| (u.alias.clone(), u.segments.clone()))
            .collect();
        assert!(got.contains(&(
            "Snapshot".into(),
            vec!["mdrr_store".into(), "Snapshot".into()]
        )));
        assert!(got.contains(&(
            "atomic_write".into(),
            vec!["mdrr_store".into(), "io".into(), "atomic_write".into()]
        )));
        assert!(got.contains(&(
            "Rep".into(),
            vec!["crate".into(), "report".into(), "Report".into()]
        )));
        assert!(got.contains(&("Dataset".into(), vec!["mdrr_data".into(), "Dataset".into()])));
    }

    #[test]
    fn generics_where_clauses_and_fn_types_do_not_derail() {
        let items = parse(
            "pub fn generic<F: Fn(u32) -> u32, T>(f: F, xs: Vec<(u32, T)>) -> u32\n\
             where T: Clone { f(0) }\n\
             fn takes_fn_ptr(cb: fn(u32) -> u32) -> u32 { cb(1) }\n",
        );
        assert_eq!(items.fns.len(), 2);
        assert_eq!(items.fns[0].name, "generic");
        assert_eq!(items.fns[0].params.len(), 2);
        assert_eq!(items.fns[1].name, "takes_fn_ptr");
        assert_eq!(items.fns[1].params.len(), 1);
    }

    #[test]
    fn bodies_close_at_the_matching_brace() {
        let src = "fn outer() { if x { y(); } }\nfn after() {}\n";
        let items = parse(src);
        assert_eq!(items.fns.len(), 2);
        let f = SourceFile::parse(
            "crates/x/src/lib.rs",
            "mdrr-x",
            FileKind::LibSrc,
            src.into(),
        );
        let (open, close) = items.fns[0].body.unwrap();
        assert_eq!(f.sig_text(open), "{");
        assert_eq!(f.sig_text(close), "}");
        // The close brace is the one before `fn after`, not the inner one.
        let close_tok = f.sig_token(close).unwrap();
        assert!(close_tok.start < src.find("fn after").unwrap());
        assert!(close_tok.start > src.find("y()").unwrap());
    }
}
