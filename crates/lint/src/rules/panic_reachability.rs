//! **Contract:** `mdrr-store` promises "no panic on any malformed
//! input" and the `ShardedCollector` checkpoint/restore path inherits
//! it.  Clippy's panic deny list (`unwrap_used`, `panic`,
//! `indexing_slicing`, … denied at the crate or module root) polices the
//! promising files' own bodies; this rule extends the promise
//! *transitively* — no public API of `mdrr-store`, and nothing in
//! `crates/stream/src/checkpoint.rs`, may reach an explicit panic
//! anywhere in the workspace through any call chain.
//!
//! The interprocedural vocabulary is the explicit-panic subset
//! (`unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`);
//! slice indexing and `assert!` are deliberately *not* propagated across
//! calls — the validated numeric kernels index slices pervasively under
//! proven bounds, and flagging them transitively would drown the signal
//! (inside the promising files themselves, clippy's `indexing_slicing`
//! still flags indexing).  Panic sites inside clippy's jurisdiction are
//! skipped here so one defect is one finding.

use super::Rule;
use crate::diag::Diagnostic;
use crate::sem::symbols::{FnDef, FnId};
use crate::source::FileKind;
use crate::workspace::Workspace;

/// See the module docs.
pub struct PanicReachability;

/// Macros that abort.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Methods that abort on the unhappy path.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Whether `def` is a reachability root: a public `mdrr-store` library
/// function, or anything on the checkpoint/restore path.
fn is_root(def: &FnDef) -> bool {
    (def.crate_name == "mdrr-store" && def.kind == FileKind::LibSrc && def.is_pub)
        || def.rel == "crates/stream/src/checkpoint.rs"
}

/// Whether `def`'s panic sites belong to clippy's panic deny list
/// instead of this one.
fn in_file_rule_scope(def: &FnDef) -> bool {
    (def.crate_name == "mdrr-store" && def.kind == FileKind::LibSrc)
        || def.rel == "crates/stream/src/checkpoint.rs"
}

impl Rule for PanicReachability {
    fn id(&self) -> &'static str {
        "panic-reachability"
    }

    fn description(&self) -> &'static str {
        "no public mdrr-store API or checkpoint/restore path may transitively reach a panic"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let sem = ws.sem();
        let st = &sem.symbols;
        let g = &sem.graph;

        let roots: Vec<FnId> = (0..st.fns.len()).filter(|&f| is_root(st.def(f))).collect();
        let preds = g.reach(roots);

        for &f in preds.keys() {
            let def = st.def(f);
            if in_file_rule_scope(def) {
                continue;
            }
            let Some((b0, b1)) = def.body else { continue };
            let file = &ws.files[def.file];
            let chain = g.chain(&preds, f);
            let chain_text = g.chain_text(st, &chain);
            for i in (b0 + 1)..b1 {
                let op = if super::is_method_call(file, i, PANIC_METHODS) {
                    Some(format!(".{}(…)", file.sig_text(i)))
                } else if super::is_macro_call(file, i, PANIC_MACROS) {
                    Some(format!("{}!", file.sig_text(i)))
                } else {
                    None
                };
                let Some(op) = op else { continue };
                let Some(tok) = file.sig_token(i).copied() else {
                    continue;
                };
                if file.in_test_code(tok.start) {
                    continue;
                }
                let mut d = file.diag_at(
                    self.id(),
                    &tok,
                    format!("`{op}` is reachable from the no-panic boundary: {chain_text}",),
                );
                d.help = Some(format!(
                    "map the failure into a typed error and propagate with `?`, {}",
                    super::suppress_help(self.id())
                ));
                out.push(d);
            }
        }
    }
}
