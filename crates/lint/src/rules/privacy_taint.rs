//! **Contract:** raw microdata never leaves the client boundary
//! unrandomized.  The paper's guarantee rests on exactly one sanctioned
//! exit — `Protocol::encode_record` / `encode_batch` / `encode_tally`
//! and the `randomize_*` kernels behind them — and everything
//! downstream (accumulators, snapshots, exports, journal events,
//! `stream_sim` terminal output) must only ever see randomized
//! sufficient statistics.  This rule walks the workspace call graph and
//! errors on any path where a raw-microdata value (`Dataset`,
//! `RecordsView`, `RecordsBuffer`, record slices) flows into a sink
//! without passing through a sanitizer, naming the full call chain.
//!
//! The catalogs (sources, sinks, sanitizers) are documented in
//! `docs/LINTS.md` § Interprocedural analyses and kept deliberately
//! explicit here rather than configurable — the privacy boundary is a
//! property of *this* codebase.

use super::Rule;
use crate::diag::Diagnostic;
use crate::sem::callgraph::CallSite;
use crate::sem::items::match_paren;
use crate::sem::symbols::{FnDef, FnId};
use crate::source::{FileKind, SourceFile};
use crate::workspace::Workspace;
use std::collections::{BTreeMap, BTreeSet};

/// See the module docs.
pub struct PrivacyTaint;

/// Types whose values are raw microdata.
const RAW_TYPES: &[&str] = &["Dataset", "RecordsView", "RecordsBuffer"];

/// Methods that, called on a raw value, yield raw data (rather than
/// benign metadata like `len()` or `schema()`).
const RAW_ACCESSORS: &[&str] = &[
    "records",
    "record",
    "view",
    "column",
    "columns",
    "read_record",
    "slice",
    "column_chunks",
    "iter",
    "clone",
    "as_ref",
    "as_slice",
    "to_vec",
];

/// Terminal-output macros: sinks inside binary sources (`stream_sim`'s
/// stdout is an export surface).
const PRINT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "writeln", "write"];

/// Whether `name` is a sanctioned randomizer — the only calls that
/// clear taint.
pub(crate) fn is_sanitizer(name: &str) -> bool {
    matches!(
        name,
        "encode_record" | "encode_records" | "encode_batch" | "encode_tally" | "randomize"
    ) || name.starts_with("randomize_")
}

/// Whether `def` is a sink: a function that persists, exports or prints
/// whatever it is given.
fn is_sink(def: &FnDef) -> bool {
    matches!(
        (
            def.crate_name.as_str(),
            def.self_type.as_deref(),
            def.name.as_str(),
        ),
        (
            "mdrr-store",
            Some("Snapshot"),
            "new" | "set_app_state" | "to_bytes"
        ) | (
            "mdrr-store",
            Some("Storage"),
            "atomic_write" | "write_snapshot"
        ) | ("mdrr-obs", None, "to_json" | "to_prometheus")
            | ("mdrr-obs", Some("Journal"), "record")
    )
}

/// Whether a parameter carries raw microdata.  `randomized*`-named
/// bindings are the protocols' own convention for post-randomization
/// datasets and are exempt.
fn is_raw_param(name: &str, ty: &str) -> bool {
    if name.starts_with("randomized") {
        return false;
    }
    let words = words_of(ty);
    RAW_TYPES.iter().any(|t| words.iter().any(|w| w == t))
        || (ty.contains("u32") && name.contains("record"))
}

fn words_of(text: &str) -> Vec<String> {
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

/// The raw identifiers visible inside `f`'s body: raw params, a raw
/// `self`, and locals `let`-bound from raw values (computed to a small
/// fixpoint so chained rebindings stay tracked).
fn raw_idents(file: &SourceFile, def: &FnDef) -> BTreeSet<String> {
    let mut raws: BTreeSet<String> = def
        .params
        .iter()
        .filter(|p| is_raw_param(&p.name, &p.ty))
        .map(|p| p.name.clone())
        .collect();
    if def
        .self_type
        .as_deref()
        .is_some_and(|t| RAW_TYPES.contains(&t))
        && def.has_self
    {
        raws.insert("self".to_string());
    }
    let Some((b0, b1)) = def.body else {
        return raws;
    };
    for _pass in 0..4 {
        let before = raws.len();
        let mut i = b0 + 1;
        while i + 3 < b1 {
            if file.sig_text(i) == "let" {
                let mut j = i + 1;
                if file.sig_text(j) == "mut" {
                    j += 1;
                }
                let name = file.sig_text(j).to_string();
                // Find the initializer: `=` … up to the `;` at depth 0.
                let mut k = j + 1;
                let mut init_start = None;
                while k < b1 {
                    match file.sig_text(k) {
                        "=" if init_start.is_none() => init_start = Some(k + 1),
                        ";" => break,
                        _ => {}
                    }
                    k += 1;
                }
                if let Some(s) = init_start {
                    if raw_flow(file, s, k, &raws) {
                        raws.insert(name);
                    }
                }
                i = k;
            }
            i += 1;
        }
        if raws.len() == before {
            break;
        }
    }
    raws
}

/// Whether raw data flows through significant tokens `[start, end)`:
/// a raw identifier used bare or through a raw accessor, or a raw-type
/// constructor path (`Dataset::load(…)`), outside any nested sanitizer
/// call.
fn raw_flow(file: &SourceFile, start: usize, end: usize, raws: &BTreeSet<String>) -> bool {
    let mut k = start;
    while k < end {
        let text = file.sig_text(k);
        // A sanitizer call clears whatever it consumes: skip its args.
        if is_sanitizer(text) && file.sig_text(k + 1) == "(" {
            k = match_paren(file, k + 1) + 1;
            continue;
        }
        let is_ident = file
            .sig_token(k)
            .is_some_and(|t| matches!(t.kind, crate::lexer::TokenKind::Ident));
        if is_ident && k > 0 && file.sig_text(k - 1) == "." {
            k += 1;
            continue; // a field/method name, not a binding
        }
        // `Dataset::load(…)` — whatever a raw type's associated fn
        // yields is raw microdata.
        if is_ident && RAW_TYPES.contains(&text) && file.sig_text(k + 1) == ":" {
            return true;
        }
        if is_ident && raws.contains(text) {
            // `ds.len()` is benign metadata; `ds`, `ds.view()`,
            // `ds.clone()` are raw.
            if file.sig_text(k + 1) != "." || RAW_ACCESSORS.contains(&file.sig_text(k + 2)) {
                return true;
            }
        }
        k += 1;
    }
    false
}

/// Per-function leak summary used during the fixpoint.
struct LeakSite<'a> {
    site: &'a CallSite,
    /// The sink ultimately reached (for direct sink calls, the target
    /// itself; for forwarding calls, filled from the callee's summary).
    sink: FnId,
}

impl Rule for PrivacyTaint {
    fn id(&self) -> &'static str {
        "privacy-taint"
    }

    fn description(&self) -> &'static str {
        "raw microdata must pass a sanctioned randomizer before reaching any snapshot/export/journal/output sink"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let sem = ws.sem();
        let st = &sem.symbols;
        let g = &sem.graph;

        let sinks: BTreeSet<FnId> = (0..st.fns.len()).filter(|&f| is_sink(st.def(f))).collect();
        let raws_by_fn: Vec<BTreeSet<String>> = (0..st.fns.len())
            .map(|f| {
                let def = st.def(f);
                raw_idents(&ws.files[def.file], def)
            })
            .collect();

        // Fixpoint: `leaks[f]` holds when raw data inside `f` reaches a
        // sink — directly, or by being passed to a leaking callee that
        // forwards its raw parameters onward.
        let mut leaks: BTreeMap<FnId, FnId> = BTreeMap::new(); // fn -> sink reached
        loop {
            let mut changed = false;
            for (f, raws) in raws_by_fn.iter().enumerate() {
                if leaks.contains_key(&f) || raws.is_empty() {
                    continue;
                }
                let def = st.def(f);
                let file = &ws.files[def.file];
                for site in g.sites_of(f) {
                    if is_sanitizer(&site.name) {
                        continue;
                    }
                    let sink_hit = site.targets.iter().find(|t| sinks.contains(t)).copied();
                    let leaky_hit = site
                        .targets
                        .iter()
                        .filter_map(|t| leaks.get(t).copied())
                        .next();
                    let Some(sink) = sink_hit.or(leaky_hit) else {
                        continue;
                    };
                    if raw_flow(file, site.args.0 + 1, site.args.1, raws) {
                        leaks.insert(f, sink);
                        changed = true;
                        break;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // One finding per leaking function whose flagged call reaches a
        // *sink target directly* — forwarding functions appear in the
        // chain, not as separate findings.
        for &f in leaks.keys() {
            let def = st.def(f);
            let file = &ws.files[def.file];
            let raws = &raws_by_fn[f];
            let direct: Option<LeakSite> = g.sites_of(f).find_map(|site| {
                let t = site.targets.iter().find(|t| sinks.contains(t))?;
                if !is_sanitizer(&site.name) && raw_flow(file, site.args.0 + 1, site.args.1, raws) {
                    Some(LeakSite { site, sink: *t })
                } else {
                    None
                }
            });
            let Some(leak) = direct else {
                continue; // forwarding link: reported at the sink end
            };
            let chain = leak_chain(st, g, &leaks, &raws_by_fn, ws, f);
            let chain_text = chain
                .iter()
                .map(|&x| st.def(x).qualified())
                .collect::<Vec<_>>()
                .join(" -> ");
            let Some(tok) = file.sig_token(leak.site.tok).copied() else {
                continue;
            };
            let mut d = file.diag_at(
                self.id(),
                &tok,
                format!(
                    "raw microdata reaches sink `{}` without randomization: {} -> {}",
                    st.def(leak.sink).qualified(),
                    chain_text,
                    st.def(leak.sink).qualified(),
                ),
            );
            d.help = Some(format!(
                "route the data through `encode_record`/`encode_batch`/`encode_tally`/`randomize_*` first, {}",
                super::suppress_help(self.id())
            ));
            out.push(d);
        }

        // Terminal output in binaries is a sink in itself.
        self.check_print_sinks(ws, &raws_by_fn, out);
    }
}

impl PrivacyTaint {
    /// Flags raw data flowing into print macros inside binary sources —
    /// `stream_sim`'s stdout is an export surface like any other.
    fn check_print_sinks(
        &self,
        ws: &Workspace,
        raws_by_fn: &[BTreeSet<String>],
        out: &mut Vec<Diagnostic>,
    ) {
        let st = &ws.sem().symbols;
        for (f, raws) in raws_by_fn.iter().enumerate() {
            let def = st.def(f);
            if def.kind != FileKind::BinSrc || raws.is_empty() {
                continue;
            }
            let Some((b0, b1)) = def.body else { continue };
            let file = &ws.files[def.file];
            let mut i = b0 + 1;
            while i < b1 {
                if PRINT_MACROS.contains(&file.sig_text(i))
                    && file.sig_text(i + 1) == "!"
                    && file.sig_text(i + 2) == "("
                {
                    let close = match_paren(file, i + 2);
                    if raw_flow(file, i + 3, close, raws) {
                        if let Some(tok) = file.sig_token(i).copied() {
                            let mut d = file.diag_at(
                                self.id(),
                                &tok,
                                format!(
                                    "raw microdata flows into `{}!` terminal output in `{}`",
                                    file.sig_text(i),
                                    def.qualified(),
                                ),
                            );
                            d.help = Some(format!(
                                "print randomized statistics only, {}",
                                super::suppress_help(self.id())
                            ));
                            out.push(d);
                        }
                    }
                    i = close;
                }
                i += 1;
            }
        }
    }
}

/// Reconstructs the chain of raw-forwarding callers ending at `f`: walks
/// reverse edges restricted to leaking callers that pass raw data into
/// the next link, preferring the lowest caller id for determinism.
fn leak_chain(
    st: &crate::sem::symbols::SymbolTable,
    g: &crate::sem::callgraph::CallGraph,
    leaks: &BTreeMap<FnId, FnId>,
    raws_by_fn: &[BTreeSet<String>],
    ws: &Workspace,
    f: FnId,
) -> Vec<FnId> {
    let mut chain = vec![f];
    let mut seen: BTreeSet<FnId> = chain.iter().copied().collect();
    let mut cur = f;
    while let Some(callers) = g.redges.get(&cur) {
        let next = callers.iter().copied().find(|&c| {
            if seen.contains(&c) || !leaks.contains_key(&c) {
                return false;
            }
            let def = st.def(c);
            let file = &ws.files[def.file];
            g.sites_of(c).any(|s| {
                s.targets.contains(&cur) && raw_flow(file, s.args.0 + 1, s.args.1, &raws_by_fn[c])
            })
        });
        match next {
            Some(c) => {
                chain.push(c);
                seen.insert(c);
                cur = c;
            }
            None => break,
        }
    }
    chain.reverse();
    chain
}
