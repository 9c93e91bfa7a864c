//! **Contract:** everything that feeds a release is deterministic.
//! Snapshot bytes are CRC-checked and `cmp`-ed across crash-resume runs
//! in CI; release estimates are asserted bit-identical between the
//! batch and streamed paths; exporter output is diffed between runs.
//! All of that only holds if no function reachable from snapshot
//! encoding, release computation, or exporter output iterates a
//! randomly-seeded `HashMap`/`HashSet` or draws from an unseeded RNG.
//!
//! The root `clippy.toml` bans the ambient-entropy constructors
//! (`disallowed-methods`) site by site in every workspace target; this
//! rule follows the *call graph* from the deterministic roots, so a
//! `HashMap` introduced three crates away from the snapshot encoder is
//! still caught — with the chain that connects them.

use super::Rule;
use crate::diag::Diagnostic;
use crate::sem::symbols::{FnDef, FnId};
use crate::workspace::Workspace;

/// See the module docs.
pub struct Determinism;

/// Unordered collection types with seeded (per-process random) hashing.
const UNORDERED: &[&str] = &["HashMap", "HashSet"];

/// Ambient-entropy RNG constructors.
const UNSEEDED_RNG: &[&str] = &["thread_rng", "from_entropy"];

/// Whether `def` is a determinism root: snapshot encoding, release
/// computation, or exporter output.
fn is_root(def: &FnDef) -> bool {
    matches!(
        (
            def.crate_name.as_str(),
            def.self_type.as_deref(),
            def.name.as_str(),
        ),
        ("mdrr-store", Some("Snapshot"), "to_bytes" | "release")
            | (
                "mdrr-store",
                Some("Storage"),
                "atomic_write" | "write_snapshot"
            )
            | ("mdrr-obs", None, "to_json" | "to_prometheus")
            | ("mdrr-obs", Some("Registry"), "snapshot")
            | (_, _, "release_from_counts" | "release_from_randomized")
    )
}

impl Rule for Determinism {
    fn id(&self) -> &'static str {
        "determinism"
    }

    fn description(&self) -> &'static str {
        "no unordered-hash iteration or unseeded RNG reachable from snapshot encoding, release computation, or exporters"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let sem = ws.sem();
        let st = &sem.symbols;
        let g = &sem.graph;

        let roots: Vec<FnId> = (0..st.fns.len()).filter(|&f| is_root(st.def(f))).collect();
        let preds = g.reach(roots);

        for &f in preds.keys() {
            let def = st.def(f);
            let Some((b0, b1)) = def.body else { continue };
            let file = &ws.files[def.file];
            let chain = g.chain(&preds, f);
            let chain_text = g.chain_text(st, &chain);
            for i in (b0 + 1)..b1 {
                let text = file.sig_text(i);
                let flagged = if UNORDERED.contains(&text) && file.sig_text(i - 1) != "." {
                    Some(format!("`{text}` has per-process random iteration order"))
                } else if UNSEEDED_RNG.contains(&text) {
                    Some(format!("`{text}` draws ambient entropy"))
                } else {
                    None
                };
                let Some(what) = flagged else { continue };
                let Some(tok) = file.sig_token(i).copied() else {
                    continue;
                };
                if file.in_test_code(tok.start) {
                    continue;
                }
                let mut d = file.diag_at(
                    self.id(),
                    &tok,
                    format!("{what} but is reachable from a deterministic root: {chain_text}"),
                );
                d.help = Some(format!(
                    "use `BTreeMap`/`BTreeSet` or a manifest-seeded RNG, {}",
                    super::suppress_help(self.id())
                ));
                out.push(d);
            }
        }
    }
}
