//! **crate-hygiene** — two structural conventions every library crate in
//! the workspace follows: (1) `src/lib.rs` opens with
//! `#![deny(missing_docs)]`, and no later crate-level attribute lowers it,
//! so public API grows documented-by-default, and (2) every public error
//! enum (a `pub enum` whose name ends in `Error`) implements both
//! `Display` and `std::error::Error`, so callers can `?`-propagate and
//! `eprintln!("{e}")` any failure without matching on variants.

use super::Rule;
use crate::diag::Diagnostic;
use crate::source::{FileKind, SourceFile};
use crate::workspace::Workspace;

/// See the module docs.
pub struct CrateHygiene;

impl Rule for CrateHygiene {
    fn id(&self) -> &'static str {
        "crate-hygiene"
    }

    fn description(&self) -> &'static str {
        "lib crates must deny(missing_docs); public error enums must impl Display + Error"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for krate in ws.crates.iter().filter(|c| !c.is_vendor) {
            let lib_rel = if krate.rel_dir == "." {
                "src/lib.rs".to_string()
            } else {
                format!("{}/src/lib.rs", krate.rel_dir)
            };
            if let Some(lib) = ws.file(&lib_rel) {
                if !denies_missing_docs(lib) {
                    out.push(
                        Diagnostic::file_level(
                            self.id(),
                            &lib_rel,
                            format!(
                                "crate `{}` does not open with `#![deny(missing_docs)]`, \
                                 or a later crate-level attribute overrides it",
                                krate.name
                            ),
                        )
                        .with_help(
                            "add `#![deny(missing_docs)]` under the crate docs so new public \
                             items fail the build until documented",
                        ),
                    );
                }
            }

            // Collect public error enums and the trait impls present
            // anywhere in the crate's library code.
            let files: Vec<&SourceFile> = ws
                .crate_files(&krate.name)
                .filter(|f| f.kind == FileKind::LibSrc)
                .collect();
            let mut error_enums: Vec<(&SourceFile, usize)> = Vec::new();
            let mut impls: Vec<(String, String)> = Vec::new();
            for file in &files {
                for i in 0..file.sig.len() {
                    if file.sig_text(i) == "pub"
                        && file.sig_text(i + 1) == "enum"
                        && file.sig_text(i + 2).ends_with("Error")
                    {
                        error_enums.push((file, i + 2));
                    }
                    // `impl [std::[fmt::]]Trait for Name` — record the last
                    // path segment before `for` plus the target name.
                    if file.sig_text(i) == "for" && i >= 1 {
                        let trait_seg = file.sig_text(i - 1);
                        let target = file.sig_text(i + 1);
                        if !trait_seg.is_empty() && !target.is_empty() {
                            impls.push((trait_seg.to_string(), target.to_string()));
                        }
                    }
                }
            }
            for (file, ti) in error_enums {
                let name = file.sig_text(ti).to_string();
                let has = |trait_seg: &str| impls.iter().any(|(t, n)| t == trait_seg && *n == name);
                let mut missing = Vec::new();
                if !has("Display") {
                    missing.push("`Display`");
                }
                if !has("Error") {
                    missing.push("`std::error::Error`");
                }
                if missing.is_empty() {
                    continue;
                }
                let Some(tok) = file.sig_token(ti) else {
                    continue;
                };
                out.push(
                    file.diag_at(
                        self.id(),
                        tok,
                        format!(
                            "public error enum `{name}` does not implement {}",
                            missing.join(" or ")
                        ),
                    )
                    .with_help(
                        "impl Display (human-readable message per variant) and \
                         `impl std::error::Error` so the type composes with `?` and `Box<dyn Error>`",
                    ),
                );
            }
        }
    }
}

/// True if the `missing_docs` level in force for the crate is `deny` or
/// `forbid`.  That is the level of the *last* `deny`/`forbid`/`warn`/
/// `allow` attribute naming `missing_docs` in the `#![…]` run that opens
/// the file: a later `#![warn(missing_docs)]` overrides an earlier deny.
fn denies_missing_docs(file: &SourceFile) -> bool {
    let mut level = None;
    let mut i = 0;
    while file.sig_text(i) == "#" && file.sig_text(i + 1) == "!" && file.sig_text(i + 2) == "[" {
        // Walk to the attribute's closing `]`, noting whether it names
        // the lint anywhere inside.
        let mut depth = 0usize;
        let mut names_lint = false;
        let mut j = i + 2;
        loop {
            match file.sig_text(j) {
                "[" | "(" => depth += 1,
                "]" | ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "missing_docs" => names_lint = true,
                "" => return false,
                _ => {}
            }
            j += 1;
        }
        let attr = file.sig_text(i + 3);
        if names_lint
            && file.sig_text(i + 4) == "("
            && matches!(attr, "deny" | "forbid" | "warn" | "allow")
        {
            level = Some(attr);
        }
        i = j + 1;
    }
    matches!(level, Some("deny" | "forbid"))
}
