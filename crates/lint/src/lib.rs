//! `mdrr-lint` — the workspace's own static-analysis pass.
//!
//! `cargo test` proves the code computes the right answers *today*;
//! nothing in the default toolchain stops tomorrow's patch from quietly
//! re-introducing a float into the integer randomization kernels, an
//! allocation into a hot loop, or raw microdata into a snapshot.  Those
//! are *contracts of this codebase*, not of the language, so the
//! compiler and clippy cannot see them — this crate checks them
//! mechanically and fails CI when they break.  (Contracts clippy can
//! see, such as no panic on the store path and no hash-ordered
//! collection, are configured in clippy instead.)
//!
//! The design is deliberately dependency-free (the workspace builds
//! offline against vendored shims, so `syn` is not an option): a small
//! total lexer ([`lexer`]) that understands comments, strings, raw
//! strings, char literals and lifetimes well enough that rules only ever
//! see *significant* tokens; a directive layer ([`source`]) for
//! `// lint:region(…)` scoping and `// lint:allow(rule, reason = "…")`
//! suppressions (the reason is mandatory, and stale suppressions are
//! themselves findings); workspace discovery ([`workspace`]); a semantic
//! layer ([`sem`]) — item parser, symbol table, call graph — feeding the
//! interprocedural privacy-taint analysis; the rule set ([`rules`]); and
//! the engine ([`engine`]) that ties them together under rustc-style
//! diagnostics ([`diag`]).
//!
//! Run it as CI does:
//!
//! ```text
//! cargo run -p mdrr-lint -- --deny-warnings
//! ```

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod sem;
pub mod source;
pub mod workspace;

pub use diag::{Diagnostic, Severity};
pub use engine::{run, run_filtered, run_timed, Outcome};
pub use sem::SemModel;
pub use workspace::Workspace;
