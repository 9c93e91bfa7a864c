//! **no-alloc-in-hot-loop** — the batch pipeline's inner loops (strided
//! randomize/tally in `mdrr-core`, the counting loop of
//! `Accumulator::ingest_batch` in `mdrr-stream`) must not allocate per
//! value.  This rule forbids the allocating vocabulary — `Vec::new`,
//! `String::new`, `Box::new`, `.to_vec()`, `.to_string()`, `.to_owned()`,
//! `.clone()`, `.collect()`, `format!`, `vec!` — inside
//! `// lint:region(no_alloc)` spans.

use super::{is_macro_call, is_method_call, is_path_call, Rule};
use crate::diag::Diagnostic;
use crate::workspace::Workspace;

/// Region name this rule scans.
pub const REGION: &str = "no_alloc";

/// Allocating method calls forbidden inside the region.
const ALLOC_METHODS: [&str; 5] = ["to_vec", "to_string", "to_owned", "clone", "collect"];

/// Allocating macros forbidden inside the region.
const ALLOC_MACROS: [&str; 2] = ["format", "vec"];

/// `Type::new` constructors forbidden inside the region.
const ALLOC_CTORS: [(&str, &str); 3] = [("Vec", "new"), ("Box", "new"), ("String", "new")];

/// See the module docs.
pub struct NoAllocInHotLoop;

impl Rule for NoAllocInHotLoop {
    fn id(&self) -> &'static str {
        "no-alloc-in-hot-loop"
    }

    fn description(&self) -> &'static str {
        "kernel bodies marked lint:region(no_alloc) must not allocate per value"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in &ws.files {
            if !file.regions.iter().any(|r| r.name == REGION) {
                continue;
            }
            for i in 0..file.sig.len() {
                let Some(tok) = file.sig_token(i) else {
                    continue;
                };
                if !file.in_region(REGION, tok.start) {
                    continue;
                }
                let message = if is_method_call(file, i, &ALLOC_METHODS) {
                    Some(format!(
                        "`.{}()` allocates inside a no-alloc hot loop",
                        file.sig_text(i)
                    ))
                } else if is_macro_call(file, i, &ALLOC_MACROS) {
                    Some(format!(
                        "`{}!` allocates inside a no-alloc hot loop",
                        file.sig_text(i)
                    ))
                } else if ALLOC_CTORS.iter().any(|(h, t)| is_path_call(file, i, h, t)) {
                    Some(format!(
                        "`{}::new()` allocates inside a no-alloc hot loop",
                        file.sig_text(i)
                    ))
                } else {
                    None
                };
                if let Some(message) = message {
                    out.push(file.diag_at(self.id(), tok, message).with_help(
                        "hoist the allocation out of the region (reuse a buffer sized once \
                         per batch)",
                    ));
                }
            }
        }
    }
}
