//! Property tests pinning symbol-resolution round-trips: for any
//! generated module tree, a function *placed* at a path and *named* by
//! that path (through a `use` import, a fully qualified call, or an
//! inline-`mod` crate-relative path) resolves back to exactly that
//! definition — no misses, no same-named strangers.

use mdrr_lint::sem::callgraph::CallGraph;
use mdrr_lint::sem::symbols::{Callee, SymbolTable};
use mdrr_lint::Workspace;
use proptest::prelude::*;

/// Module-name alphabet (small on purpose: collisions between runs are
/// the interesting case).
const MODS: &[&str] = &["alpha", "beta", "gamma", "delta"];

fn module_path(idxs: &[usize]) -> Vec<&'static str> {
    idxs.iter().map(|&i| MODS[i % MODS.len()]).collect()
}

/// Builds the target file at `crates/a/src/<path>/mod.rs` (or lib.rs at
/// the crate root) defining `target_fn`.
fn target_file(path: &[&str]) -> (String, String) {
    let rel = if path.is_empty() {
        "crates/a/src/lib.rs".to_string()
    } else {
        format!("crates/a/src/{}/mod.rs", path.join("/"))
    };
    (rel, "pub fn target_fn(x: u64) -> u64 { x }\n".to_string())
}

fn build(files: Vec<(&str, &str)>) -> (Workspace, SymbolTable) {
    let ws = Workspace::in_memory(files);
    let st = SymbolTable::build(&ws);
    (ws, st)
}

proptest! {
    /// `use mdrr_a::<path>::target_fn; target_fn(…)` resolves to the
    /// one definition at `<path>`, wherever the generator put it —
    /// even with a same-named decoy in the caller's own crate at a
    /// different module path.
    #[test]
    fn use_import_roundtrip(idxs in prop::collection::vec(0usize..4, 0..3)) {
        let path = module_path(&idxs);
        let (target_rel, target_src) = target_file(&path);
        let import = std::iter::once("mdrr_a")
            .chain(path.iter().copied())
            .chain(std::iter::once("target_fn"))
            .collect::<Vec<_>>()
            .join("::");
        let caller_src = format!(
            "use {import};\npub fn caller() -> u64 {{ target_fn(1) }}\n"
        );
        let decoy_rel = "crates/b/src/decoy_mod/mod.rs";
        let (ws, st) = build(vec![
            (&target_rel, &target_src),
            ("crates/b/src/lib.rs", &caller_src),
            (decoy_rel, "pub fn target_fn(x: u64) -> u64 { x + 1 }\n"),
        ]);
        let target = st
            .fns
            .iter()
            .position(|f| f.name == "target_fn" && f.rel == target_rel)
            .expect("target indexed");
        let caller = st.fns.iter().position(|f| f.name == "caller").expect("caller indexed");
        let resolved = st.resolve(caller, &Callee::Plain("target_fn".into()));
        prop_assert_eq!(resolved, vec![target], "path {:?}", path);
        let _ = ws;
    }

    /// A fully qualified call `mdrr_a::<path>::target_fn(…)` produces
    /// exactly one call-graph edge, to the placed definition.
    #[test]
    fn qualified_call_roundtrip(idxs in prop::collection::vec(0usize..4, 0..3)) {
        let path = module_path(&idxs);
        let (target_rel, target_src) = target_file(&path);
        let qualified = std::iter::once("mdrr_a")
            .chain(path.iter().copied())
            .collect::<Vec<_>>()
            .join("::");
        let caller_src = format!(
            "pub fn caller() -> u64 {{ {qualified}::target_fn(1) }}\n"
        );
        let (ws, st) = build(vec![
            (&target_rel, &target_src),
            ("crates/b/src/lib.rs", &caller_src),
        ]);
        let g = CallGraph::build(&ws, &st);
        let target = st
            .fns
            .iter()
            .position(|f| f.name == "target_fn")
            .expect("target indexed");
        let caller = st.fns.iter().position(|f| f.name == "caller").expect("caller indexed");
        let callees: Vec<_> = g
            .redges
            .iter()
            .filter(|(_, callers)| callers.contains(&caller))
            .map(|(&callee, _)| callee)
            .collect();
        prop_assert_eq!(callees, vec![target], "path {:?}", path);
    }

    /// Inline `mod` nesting composes with crate-relative calls: a fn
    /// buried `depth` inline modules deep is reachable via
    /// `crate::<mods>::target_fn(…)`.
    #[test]
    fn inline_mod_roundtrip(idxs in prop::collection::vec(0usize..4, 0..3)) {
        let path = module_path(&idxs);
        let mut src = String::new();
        for m in &path {
            src.push_str(&format!("pub mod {m} {{\n"));
        }
        src.push_str("pub fn target_fn(x: u64) -> u64 { x }\n");
        for _ in &path {
            src.push_str("}\n");
        }
        let qualified = std::iter::once("crate")
            .chain(path.iter().copied())
            .collect::<Vec<_>>()
            .join("::");
        src.push_str(&format!(
            "pub fn caller() -> u64 {{ {qualified}::target_fn(1) }}\n"
        ));
        let (ws, st) = build(vec![("crates/a/src/lib.rs", &src)]);
        let g = CallGraph::build(&ws, &st);
        let target = st
            .fns
            .iter()
            .position(|f| f.name == "target_fn")
            .expect("target indexed");
        let expected: Vec<String> = path.iter().map(|s| s.to_string()).collect();
        prop_assert_eq!(&st.fns[target].module, &expected, "module path recovered");
        let caller = st.fns.iter().position(|f| f.name == "caller").expect("caller indexed");
        let callees: Vec<_> = g
            .redges
            .iter()
            .filter(|(_, callers)| callers.contains(&caller))
            .map(|(&callee, _)| callee)
            .collect();
        prop_assert_eq!(callees, vec![target], "path {:?}", path);
    }
}
