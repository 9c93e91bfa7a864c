//! Call-site extraction and the workspace call graph.
//!
//! Each function body is scanned for the three call shapes the token
//! stream can exhibit — `name(…)`, `path::name(…)`, `recv.name(…)` —
//! and every site is resolved through the [`SymbolTable`] into zero or
//! more candidate targets.  Unresolvable sites (std, vendored shims,
//! constructors) contribute no edges; over-approximation is confined to
//! method calls on untypeable receivers, where candidates are limited
//! to crates the calling file imports.  The graph keeps the call sites
//! per caller and the reverse edges (callee → callers), which
//! privacy-taint walks to name the call chain behind a finding.

use super::items::match_paren;
use super::symbols::{Callee, FnId, SymbolTable};
use crate::workspace::Workspace;
use std::collections::{BTreeMap, BTreeSet};

/// One resolved call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The function whose body contains the call.
    pub caller: FnId,
    /// The callee name as written.
    pub name: String,
    /// How the call names its target.
    pub callee: Callee,
    /// Candidate target definitions (empty when external).
    pub targets: Vec<FnId>,
    /// Significant-token index of the callee name.
    pub tok: usize,
    /// Significant-token indices of the argument `(` and matching `)`.
    pub args: (usize, usize),
}

/// The workspace call graph: every call site, plus the reverse edge
/// set over resolved targets.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every call site, in (file, token) order.
    pub sites: Vec<CallSite>,
    /// callee → callers.
    pub redges: BTreeMap<FnId, BTreeSet<FnId>>,
    /// caller → indices into `sites`.
    pub sites_by_fn: BTreeMap<FnId, Vec<usize>>,
}

/// Keywords that can directly precede a parenthesis without being calls.
const NON_CALL_WORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "loop", "as", "in", "move", "else", "fn", "let",
    "mut", "ref", "await", "yield", "break", "continue", "true", "false", "where", "impl", "use",
    "pub", "unsafe", "dyn",
];

impl CallGraph {
    /// Builds the graph over every function in `st`.
    pub fn build(ws: &Workspace, st: &SymbolTable) -> CallGraph {
        let mut g = CallGraph::default();
        for caller in 0..st.fns.len() {
            let Some((b0, b1)) = st.def(caller).body else {
                continue;
            };
            let mut i = b0 + 1;
            while i < b1 {
                let Some(site) = site_at(ws, st, caller, i) else {
                    i += 1;
                    continue;
                };
                for &t in &site.targets {
                    g.redges.entry(t).or_default().insert(caller);
                }
                g.sites_by_fn.entry(caller).or_default().push(g.sites.len());
                g.sites.push(site);
                i += 1;
            }
        }
        g
    }

    /// Call sites inside `caller`'s body.
    pub fn sites_of(&self, caller: FnId) -> impl Iterator<Item = &CallSite> + '_ {
        self.sites_by_fn
            .get(&caller)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&s| &self.sites[s])
    }
}

/// Recognizes the call site whose callee *name* sits at significant
/// token `i` of `caller`'s file, if any.
fn site_at(ws: &Workspace, st: &SymbolTable, caller: FnId, i: usize) -> Option<CallSite> {
    let def = st.def(caller);
    let file = &ws.files[def.file];
    if file.sig_text(i + 1) != "(" {
        return None;
    }
    let name = file.sig_text(i).to_string();
    let tok = file.sig_token(i)?;
    if !matches!(
        tok.kind,
        crate::lexer::TokenKind::Ident | crate::lexer::TokenKind::RawIdent
    ) || NON_CALL_WORDS.contains(&name.as_str())
    {
        return None;
    }
    // Uppercase-initial callees are tuple-struct / enum-variant
    // constructors, never functions in this workspace's naming scheme.
    if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
        return None;
    }
    let close = match_paren(file, i + 1);
    let args = (i + 1, close);

    // Method call: `.name(` — unless the dot ends a path (impossible)
    // or the "receiver" is a float literal's fraction (lexer emits
    // floats as single tokens, so no).
    if i >= 2 && file.sig_text(i - 1) == "." {
        let recv_type = infer_receiver(ws, st, caller, i);
        let callee = Callee::Method {
            name: name.clone(),
            recv_type,
        };
        let targets = st.resolve(caller, &callee);
        return Some(CallSite {
            caller,
            name,
            callee,
            targets,
            tok: i,
            args,
        });
    }

    // Qualified call: `seg :: seg :: name(` — collect the leading path.
    if i >= 3 && file.sig_text(i - 1) == ":" && file.sig_text(i - 2) == ":" {
        let mut segs: Vec<String> = Vec::new();
        let mut j = i;
        while j >= 3 && file.sig_text(j - 1) == ":" && file.sig_text(j - 2) == ":" {
            let seg = file.sig_text(j - 3).to_string();
            let is_seg = file
                .sig_token(j - 3)
                .is_some_and(|t| matches!(t.kind, crate::lexer::TokenKind::Ident))
                || seg == "crate";
            if !is_seg {
                break;
            }
            segs.push(seg);
            j -= 3;
        }
        segs.reverse();
        if segs.is_empty() {
            return None;
        }
        // `Self::helper(…)` names the surrounding impl type.
        for s in segs.iter_mut() {
            if s == "Self" {
                *s = def.self_type.clone().unwrap_or_else(|| "Self".to_string());
            }
        }
        let callee = Callee::Qualified(segs, name.clone());
        let targets = st.resolve(caller, &callee);
        return Some(CallSite {
            caller,
            name,
            callee,
            targets,
            tok: i,
            args,
        });
    }

    // Plain call — but not a definition (`fn name(`).
    if i >= 1 && file.sig_text(i - 1) == "fn" {
        return None;
    }
    let callee = Callee::Plain(name.clone());
    let targets = st.resolve(caller, &callee);
    Some(CallSite {
        caller,
        name,
        callee,
        targets,
        tok: i,
        args,
    })
}

/// Infers the receiver type of the method call at `i` (`recv.name(`):
/// a simple identifier receiver goes through
/// [`SymbolTable::receiver_type`]; chained calls and field accesses
/// stay untyped.
fn infer_receiver(ws: &Workspace, st: &SymbolTable, caller: FnId, i: usize) -> Option<String> {
    let def = st.def(caller);
    let file = &ws.files[def.file];
    let recv = file.sig_text(i - 2);
    let recv_tok = file.sig_token(i - 2)?;
    if !matches!(recv_tok.kind, crate::lexer::TokenKind::Ident) {
        return None;
    }
    // `a.b.name(` — the receiver is a field, not the identifier `b`.
    if i >= 4 && file.sig_text(i - 3) == "." {
        return None;
    }
    st.receiver_type(caller, file, recv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: Vec<(&str, &str)>) -> (SymbolTable, CallGraph) {
        let ws = Workspace::in_memory(files);
        let st = SymbolTable::build(&ws);
        let g = CallGraph::build(&ws, &st);
        (st, g)
    }

    fn id(st: &SymbolTable, name: &str) -> FnId {
        st.fns.iter().position(|f| f.name == name).unwrap()
    }

    /// The resolved callees of `caller`, read off the reverse edges.
    fn callees(g: &CallGraph, caller: FnId) -> BTreeSet<FnId> {
        g.redges
            .iter()
            .filter(|(_, callers)| callers.contains(&caller))
            .map(|(&callee, _)| callee)
            .collect()
    }

    #[test]
    fn three_call_shapes_produce_edges() {
        let (st, g) = graph(vec![(
            "crates/a/src/lib.rs",
            "pub struct T;\nimpl T { pub fn m(&self) {} }\n\
                 pub fn free() {}\n\
                 pub fn caller(t: &T) { free(); crate::free(); t.m(); }\n",
        )]);
        let caller = id(&st, "caller");
        let callees = callees(&g, caller);
        assert!(callees.contains(&id(&st, "free")));
        assert!(callees.contains(&id(&st, "m")));
        // `free` is reached by two sites but is one edge.
        assert_eq!(g.sites_of(caller).count(), 3);
    }

    #[test]
    fn self_calls_resolve_to_the_impl_type() {
        let (st, g) = graph(vec![(
            "crates/a/src/lib.rs",
            "pub struct T;\nimpl T {\n\
             fn helper(&self) {}\n\
             fn assoc() {}\n\
             pub fn go(&self) { self.helper(); Self::assoc(); }\n}\n",
        )]);
        let go = id(&st, "go");
        let callees = callees(&g, go);
        assert!(callees.contains(&id(&st, "helper")));
        assert!(callees.contains(&id(&st, "assoc")));
    }

    #[test]
    fn constructors_and_externals_make_no_edges() {
        let (st, g) = graph(vec![(
            "crates/a/src/lib.rs",
            "pub fn f() -> Option<u32> { Some(std::mem::take(&mut 0)); Vec::new(); None }\n",
        )]);
        let f = id(&st, "f");
        assert!(callees(&g, f).is_empty());
    }
}
