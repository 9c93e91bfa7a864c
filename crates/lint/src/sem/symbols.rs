//! The workspace symbol table: every analyzable function, indexed for
//! path-, `use`- and receiver-aware call resolution.
//!
//! Resolution is deliberately *tiered*: a call is matched against the
//! caller's own module first, then its file's `use` imports, then the
//! caller's crate, and only then by bare name across the workspace —
//! and the bare-name tier is restricted to crates the file actually
//! imports, so common names (`merge`, `write`, `record`) cannot create
//! edges into crates the caller never touches.  Qualified calls that do
//! not resolve inside the workspace (std, vendored shims) resolve to
//! nothing rather than to a same-named stranger.

use super::items::{self, Param};
use crate::source::{FileKind, SourceFile};
use crate::workspace::Workspace;
use std::collections::{BTreeMap, BTreeSet};

/// Index of a function in [`SymbolTable::fns`].
pub type FnId = usize;

/// One analyzable function: an [`items::FnItem`] placed at its
/// workspace-level location.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index of the owning file in `Workspace::files`.
    pub file: usize,
    /// Workspace-relative path of the owning file.
    pub rel: String,
    /// The owning crate's package name (`mdrr-store`).
    pub crate_name: String,
    /// The crate's identifier form (`mdrr_store`).
    pub crate_ident: String,
    /// Full module path: file location plus inline `mod` nesting.
    pub module: Vec<String>,
    /// The `impl`/`trait` type the fn belongs to, if any.
    pub self_type: Option<String>,
    /// The function's name.
    pub name: String,
    /// Whether the signature takes `self`.
    pub has_self: bool,
    /// The non-self parameters.
    pub params: Vec<Param>,
    /// Body token range (`{`, `}`) in significant-token indices.
    pub body: Option<(usize, usize)>,
    /// The owning file's kind (lib, bin, …).
    pub kind: FileKind,
}

impl FnDef {
    /// The human-readable qualified name used in diagnostics:
    /// `mdrr_store::io::Storage::write_snapshot`.
    pub fn qualified(&self) -> String {
        let mut out = self.crate_ident.clone();
        for m in &self.module {
            out.push_str("::");
            out.push_str(m);
        }
        if let Some(t) = &self.self_type {
            out.push_str("::");
            out.push_str(t);
        }
        out.push_str("::");
        out.push_str(&self.name);
        out
    }
}

/// How a call site names its callee.
#[derive(Debug, Clone)]
pub enum Callee {
    /// `name(…)` — an unqualified call.
    Plain(String),
    /// `a::b::name(…)` — the segments before the final name.
    Qualified(Vec<String>, String),
    /// `recv.name(…)` — with the receiver's type when inferable.
    Method {
        /// The method name.
        name: String,
        /// The receiver's type name, when inference succeeded.
        recv_type: Option<String>,
    },
}

/// The workspace-wide function index.  Only non-test functions from
/// library and binary sources are analyzable: test, bench and example
/// code is never a resolution target, so it cannot fabricate call-graph
/// edges into the contract-bearing tree.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Every analyzable function.
    pub fns: Vec<FnDef>,
    by_name: BTreeMap<String, Vec<FnId>>,
    by_type_method: BTreeMap<(String, String), Vec<FnId>>,
    by_module: BTreeMap<(String, String, String), Vec<FnId>>,
    /// Per file index: alias → full path segments from `use` decls.
    uses: BTreeMap<usize, BTreeMap<String, Vec<String>>>,
    /// Per file index: crate idents the file names in `use` decls
    /// (plus its own crate) — the bare-name fallback search space.
    visible_crates: BTreeMap<usize, BTreeSet<String>>,
    /// type name → traits it implements (for trait-method resolution).
    trait_impls: BTreeMap<String, BTreeSet<String>>,
    /// Every crate ident in the workspace.
    crate_idents: BTreeSet<String>,
    /// Every type name that owns at least one method.
    known_types: BTreeSet<String>,
}

/// The module path a file's location contributes: `crates/x/src/a/b.rs`
/// → `["a", "b"]`; `lib.rs`, `main.rs`, `mod.rs` terminate the path;
/// bin/test/bench/example files are their own crate roots.
pub fn file_module_path(rel: &str, kind: FileKind) -> Vec<String> {
    if kind != FileKind::LibSrc {
        return Vec::new();
    }
    let after_src = rel
        .split_once("/src/")
        .map(|(_, rest)| rest)
        .or_else(|| rel.strip_prefix("src/"))
        .unwrap_or(rel);
    let mut path: Vec<String> = after_src
        .trim_end_matches(".rs")
        .split('/')
        .map(str::to_string)
        .collect();
    if matches!(
        path.last().map(String::as_str),
        Some("lib") | Some("main") | Some("mod")
    ) {
        path.pop();
    }
    path
}

impl SymbolTable {
    /// Builds the table over every analyzable file of `ws`.
    pub fn build(ws: &Workspace) -> SymbolTable {
        let mut st = SymbolTable::default();
        for (file_idx, file) in ws.files.iter().enumerate() {
            if !matches!(file.kind, FileKind::LibSrc | FileKind::BinSrc) {
                continue;
            }
            let crate_ident = file.crate_name.replace('-', "_");
            st.crate_idents.insert(crate_ident.clone());
            let items = items::parse_items(file);
            let mut aliases = BTreeMap::new();
            let mut visible = BTreeSet::new();
            visible.insert(crate_ident.clone());
            for u in &items.uses {
                if let Some(first) = u.segments.first() {
                    visible.insert(first.clone());
                }
                aliases.insert(u.alias.clone(), u.segments.clone());
            }
            st.uses.insert(file_idx, aliases);
            st.visible_crates.insert(file_idx, visible);
            for ti in &items.trait_impls {
                st.trait_impls
                    .entry(ti.type_name.clone())
                    .or_default()
                    .insert(ti.trait_name.clone());
            }
            let base_module = file_module_path(&file.rel, file.kind);
            for f in items.fns {
                if file.in_test_code(f.byte_start) {
                    continue;
                }
                let mut module = base_module.clone();
                module.extend(f.module.iter().cloned());
                let id = st.fns.len();
                let def = FnDef {
                    file: file_idx,
                    rel: file.rel.clone(),
                    crate_name: file.crate_name.clone(),
                    crate_ident: crate_ident.clone(),
                    module,
                    self_type: f.self_type,
                    name: f.name,
                    has_self: f.has_self,
                    params: f.params,
                    body: f.body,
                    kind: file.kind,
                };
                st.by_name.entry(def.name.clone()).or_default().push(id);
                if let Some(t) = &def.self_type {
                    st.known_types.insert(t.clone());
                    st.by_type_method
                        .entry((t.clone(), def.name.clone()))
                        .or_default()
                        .push(id);
                } else {
                    st.by_module
                        .entry((
                            def.crate_ident.clone(),
                            def.module.join("::"),
                            def.name.clone(),
                        ))
                        .or_default()
                        .push(id);
                }
                st.fns.push(def);
            }
        }
        st
    }

    /// The function at `id`.
    pub fn def(&self, id: FnId) -> &FnDef {
        &self.fns[id]
    }

    /// The first workspace type name mentioned in a type text
    /// (`&mut RecordsView<'a>` → `RecordsView`), if any.
    pub fn type_in_text(&self, ty: &str) -> Option<String> {
        split_words(ty)
            .into_iter()
            .find(|w| self.known_types.contains(w))
    }

    /// Resolves one call site in `caller` to its candidate definitions.
    /// Unresolvable calls (std, vendored shims) return an empty set.
    pub fn resolve(&self, caller: FnId, callee: &Callee) -> Vec<FnId> {
        let def = &self.fns[caller];
        match callee {
            Callee::Plain(name) => self.resolve_plain(def, name),
            Callee::Qualified(segs, name) => self.resolve_qualified(def, segs, name),
            Callee::Method { name, recv_type } => {
                self.resolve_method(def, name, recv_type.as_deref())
            }
        }
    }

    fn resolve_plain(&self, caller: &FnDef, name: &str) -> Vec<FnId> {
        // Tier 1: the caller's own module.
        if let Some(ids) = self.by_module.get(&(
            caller.crate_ident.clone(),
            caller.module.join("::"),
            name.to_string(),
        )) {
            return ids.clone();
        }
        // Tier 2: a `use` import of exactly this name.
        if let Some(segs) = self.uses.get(&caller.file).and_then(|m| m.get(name)) {
            if segs.len() > 1 {
                let found =
                    self.resolve_qualified(caller, &segs[..segs.len() - 1], &segs[segs.len() - 1]);
                if !found.is_empty() {
                    return found;
                }
            }
        }
        // Tier 3: anywhere in the caller's crate (free functions only).
        let in_crate: Vec<FnId> = self
            .named_free(name)
            .filter(|&id| self.fns[id].crate_ident == caller.crate_ident)
            .collect();
        if !in_crate.is_empty() {
            return in_crate;
        }
        // Tier 4: any crate the file imports.
        let visible = self.visible_crates.get(&caller.file);
        self.named_free(name)
            .filter(|&id| visible.is_some_and(|v| v.contains(&self.fns[id].crate_ident)))
            .collect()
    }

    /// Free (non-associated) functions named `name`.
    fn named_free<'a>(&'a self, name: &str) -> impl Iterator<Item = FnId> + 'a {
        self.by_name
            .get(name)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
            .filter(|&id| self.fns[id].self_type.is_none())
    }

    fn resolve_qualified(&self, caller: &FnDef, segs: &[impl AsRef<str>], name: &str) -> Vec<FnId> {
        let mut segs: Vec<String> = segs.iter().map(|s| s.as_ref().to_string()).collect();
        // Expand a leading `use` alias (`Snapshot::…`, `io::…`).
        if let Some(first) = segs.first().cloned() {
            if let Some(full) = self.uses.get(&caller.file).and_then(|m| m.get(&first)) {
                let mut expanded = full.clone();
                expanded.extend(segs.drain(1..));
                segs = expanded;
            }
        }
        // Normalize crate-relative heads.
        let (crate_ident, rest): (String, Vec<String>) = match segs.first().map(String::as_str) {
            Some("crate") => (caller.crate_ident.clone(), segs[1..].to_vec()),
            Some("self") => {
                let mut m = caller.module.clone();
                m.extend(segs[1..].iter().cloned());
                (caller.crate_ident.clone(), m)
            }
            Some("super") => {
                let mut m = caller.module.clone();
                m.pop();
                m.extend(segs[1..].iter().cloned());
                (caller.crate_ident.clone(), m)
            }
            Some(first) if self.crate_idents.contains(first) => {
                (first.to_string(), segs[1..].to_vec())
            }
            _ => (caller.crate_ident.clone(), segs.clone()),
        };
        // A trailing type segment means an associated call.
        if let Some(last) = rest.last() {
            if self.known_types.contains(last) {
                return self.methods_of(last, name);
            }
            // Unknown capitalized tail: a std/vendored type or an enum
            // variant constructor — resolve to nothing.
            if last.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                return Vec::new();
            }
        }
        self.by_module
            .get(&(crate_ident, rest.join("::"), name.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    fn resolve_method(&self, caller: &FnDef, name: &str, recv_type: Option<&str>) -> Vec<FnId> {
        if let Some(t) = recv_type {
            if self.known_types.contains(t) {
                return self.methods_of(t, name);
            }
        }
        // Unknown receiver: every method of this name in any crate the
        // file imports (or the caller's own).
        let visible = self.visible_crates.get(&caller.file);
        self.by_name
            .get(name)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
            .filter(|&id| {
                self.fns[id].self_type.is_some()
                    && visible.is_some_and(|v| v.contains(&self.fns[id].crate_ident))
            })
            .collect()
    }

    /// Inherent methods of `ty` named `name`, plus same-named methods of
    /// every trait `ty` implements (default trait bodies count).
    fn methods_of(&self, ty: &str, name: &str) -> Vec<FnId> {
        let mut out = self
            .by_type_method
            .get(&(ty.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default();
        if let Some(traits) = self.trait_impls.get(ty) {
            for tr in traits {
                if let Some(ids) = self.by_type_method.get(&(tr.clone(), name.to_string())) {
                    out.extend(ids.iter().copied());
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Infers the type of a simple receiver identifier inside `caller`:
    /// `self` → the impl type; a parameter → the first workspace type in
    /// its type text; a local → from `let x: T` or `let x = T::…`.
    pub fn receiver_type(&self, caller: FnId, file: &SourceFile, recv: &str) -> Option<String> {
        let def = &self.fns[caller];
        if recv == "self" {
            return def.self_type.clone();
        }
        if let Some(p) = def.params.iter().find(|p| p.name == recv) {
            return self.type_in_text(&p.ty);
        }
        let (b0, b1) = def.body?;
        let mut k = b0;
        while k + 2 < b1 {
            if file.sig_text(k) == "let" {
                let mut j = k + 1;
                if file.sig_text(j) == "mut" {
                    j += 1;
                }
                if file.sig_text(j) == recv {
                    // `let recv: Type` or `let recv = Type::…`.
                    if file.sig_text(j + 1) == ":" {
                        for m in j + 2..(j + 8).min(b1) {
                            let t = file.sig_text(m);
                            if self.known_types.contains(t) {
                                return Some(t.to_string());
                            }
                            if t == "=" || t == ";" {
                                break;
                            }
                        }
                    } else if file.sig_text(j + 1) == "="
                        && self.known_types.contains(file.sig_text(j + 2))
                        && file.sig_text(j + 3) == ":"
                    {
                        return Some(file.sig_text(j + 2).to_string());
                    }
                }
            }
            k += 1;
        }
        None
    }
}

/// Splits a type text into identifier words.
fn split_words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(files: Vec<(&str, &str)>) -> (Workspace, SymbolTable) {
        let ws = Workspace::in_memory(files);
        let st = SymbolTable::build(&ws);
        (ws, st)
    }

    fn find(st: &SymbolTable, name: &str) -> FnId {
        st.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn file_paths_map_to_module_paths() {
        assert!(file_module_path("crates/store/src/lib.rs", FileKind::LibSrc).is_empty());
        assert_eq!(
            file_module_path("crates/store/src/format.rs", FileKind::LibSrc),
            vec!["format"]
        );
        assert_eq!(
            file_module_path("crates/eval/src/experiments/runner.rs", FileKind::LibSrc),
            vec!["experiments", "runner"]
        );
        assert_eq!(
            file_module_path("crates/eval/src/experiments/mod.rs", FileKind::LibSrc),
            vec!["experiments"]
        );
        assert!(file_module_path("crates/bench/src/bin/sim.rs", FileKind::BinSrc).is_empty());
    }

    #[test]
    fn cross_crate_use_import_resolves_to_the_exact_target() {
        let (_ws, st) = table(vec![
            (
                "crates/store/src/io.rs",
                "pub fn atomic_write(b: &[u8]) {}\n",
            ),
            (
                "crates/stream/src/lib.rs",
                "use mdrr_store::io::atomic_write;\npub fn save() { atomic_write(&[]) }\n",
            ),
        ]);
        let caller = find(&st, "save");
        let target = find(&st, "atomic_write");
        assert_eq!(
            st.resolve(caller, &Callee::Plain("atomic_write".into())),
            vec![target]
        );
    }

    #[test]
    fn qualified_and_crate_relative_paths_resolve() {
        let (_ws, st) = table(vec![
            ("crates/a/src/util.rs", "pub fn helper() {}\n"),
            (
                "crates/a/src/lib.rs",
                "pub fn via_crate() { crate::util::helper() }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn via_full() { mdrr_a::util::helper() }\n",
            ),
        ]);
        let target = find(&st, "helper");
        let a = find(&st, "via_crate");
        let b = find(&st, "via_full");
        assert_eq!(
            st.resolve(
                a,
                &Callee::Qualified(vec!["crate".into(), "util".into()], "helper".into())
            ),
            vec![target]
        );
        assert_eq!(
            st.resolve(
                b,
                &Callee::Qualified(vec!["mdrr_a".into(), "util".into()], "helper".into())
            ),
            vec![target]
        );
    }

    #[test]
    fn method_resolution_uses_receiver_types_and_trait_defaults() {
        let (ws, st) = table(vec![
            (
                "crates/data/src/lib.rs",
                "pub struct Dataset;\nimpl Dataset { pub fn records(&self) {} }\n",
            ),
            (
                "crates/proto/src/lib.rs",
                "pub trait Protocol { fn encode(&self) {} }\n\
                 pub struct RR;\nimpl Protocol for RR {}\n",
            ),
            (
                "crates/user/src/lib.rs",
                "use mdrr_data::Dataset;\n\
                 pub fn f(ds: &Dataset) { ds.records() }\n",
            ),
        ]);
        let caller = find(&st, "f");
        let records = find(&st, "records");
        let file = &ws.files[st.def(caller).file];
        let recv = st.receiver_type(caller, file, "ds");
        assert_eq!(recv.as_deref(), Some("Dataset"));
        assert_eq!(
            st.resolve(
                caller,
                &Callee::Method {
                    name: "records".into(),
                    recv_type: recv
                }
            ),
            vec![records]
        );
        // Trait default bodies resolve through the implementing type.
        let encode = find(&st, "encode");
        assert_eq!(st.methods_of("RR", "encode"), vec![encode]);
    }

    #[test]
    fn unresolvable_externals_resolve_to_nothing() {
        let (_ws, st) = table(vec![(
            "crates/a/src/lib.rs",
            "pub fn f() { std::fs::read(\"x\"); serde_json::to_string(&1); }\n",
        )]);
        let caller = find(&st, "f");
        assert!(st
            .resolve(
                caller,
                &Callee::Qualified(vec!["std".into(), "fs".into()], "read".into())
            )
            .is_empty());
        assert!(st
            .resolve(
                caller,
                &Callee::Qualified(vec!["serde_json".into()], "to_string".into())
            )
            .is_empty());
    }

    #[test]
    fn bare_name_fallback_is_limited_to_imported_crates() {
        let (_ws, st) = table(vec![
            ("crates/far/src/lib.rs", "pub fn shared_name() {}\n"),
            (
                "crates/near/src/lib.rs",
                "pub fn caller_without_import() { shared_name() }\n",
            ),
            (
                "crates/linked/src/lib.rs",
                "use mdrr_far::shared_name;\npub fn caller_with_import() { shared_name() }\n",
            ),
        ]);
        let target = find(&st, "shared_name");
        let without = find(&st, "caller_without_import");
        let with = find(&st, "caller_with_import");
        assert!(
            st.resolve(without, &Callee::Plain("shared_name".into()))
                .is_empty(),
            "no import, no edge"
        );
        assert_eq!(
            st.resolve(with, &Callee::Plain("shared_name".into())),
            vec![target]
        );
    }

    #[test]
    fn test_code_is_never_a_resolution_target() {
        let (_ws, st) = table(vec![(
            "crates/a/src/lib.rs",
            "pub fn lib_fn() {}\n#[cfg(test)]\nmod tests { fn test_helper() {} }\n",
        )]);
        assert!(st.fns.iter().all(|f| f.name != "test_helper"));
    }
}
