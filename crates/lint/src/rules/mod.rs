//! The rule registry and the token-pattern helpers rules share.
//!
//! Every rule checks one *contract* the compiler cannot see — the rule's
//! doc comment names the contract and the code that promises it.  Rules
//! work on the significant-token stream of [`SourceFile`]s (comments and
//! strings can never produce false positives) and emit [`Diagnostic`]s;
//! the engine applies `lint:allow` suppressions afterwards.

use crate::diag::Diagnostic;
use crate::source::SourceFile;
use crate::workspace::Workspace;

pub mod crate_hygiene;
pub mod determinism;
pub mod no_alloc_in_hot_loop;
pub mod no_float_in_kernel;
pub mod panic_reachability;
pub mod privacy_taint;
pub mod spec_sync;

/// One static-analysis rule.
pub trait Rule {
    /// The stable id used in diagnostics and `lint:allow(id, …)`.
    fn id(&self) -> &'static str;
    /// One line: the contract this rule enforces.
    fn description(&self) -> &'static str;
    /// Scans the workspace, appending findings to `out`.
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>);
}

/// Every rule, in catalog order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(no_float_in_kernel::NoFloatInKernel),
        Box::new(no_alloc_in_hot_loop::NoAllocInHotLoop),
        Box::new(spec_sync::SpecSync),
        Box::new(crate_hygiene::CrateHygiene),
        Box::new(privacy_taint::PrivacyTaint),
        Box::new(panic_reachability::PanicReachability),
        Box::new(determinism::Determinism),
    ]
}

/// Whether significant-token `i` is a method call named one of `names`:
/// `.name(` with the receiver before the dot.
pub(crate) fn is_method_call(file: &SourceFile, i: usize, names: &[&str]) -> bool {
    i > 0
        && names.contains(&file.sig_text(i))
        && file.sig_text(i - 1) == "."
        && file.sig_text(i + 1) == "("
}

/// Whether significant-token `i` invokes a macro named one of `names`
/// (`name!`).
pub(crate) fn is_macro_call(file: &SourceFile, i: usize, names: &[&str]) -> bool {
    names.contains(&file.sig_text(i)) && file.sig_text(i + 1) == "!"
}

/// Whether significant-token `i` is a path call `A::b(` for path segment
/// pair (`a`, `b`).
pub(crate) fn is_path_call(file: &SourceFile, i: usize, head: &str, tail: &str) -> bool {
    file.sig_text(i) == head
        && file.sig_text(i + 1) == ":"
        && file.sig_text(i + 2) == ":"
        && file.sig_text(i + 3) == tail
        && file.sig_text(i + 4) == "("
}

/// The standard help trailer telling the reader how to suppress a rule.
pub(crate) fn suppress_help(rule: &str) -> String {
    format!("or suppress with `// lint:allow({rule}, reason = \"…\")` if the site is provably safe")
}
