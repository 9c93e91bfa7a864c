//! Workspace discovery: find the root, enumerate member crates from the
//! root `Cargo.toml`, and load every Rust source file into lexed
//! [`SourceFile`]s.

use crate::sem::SemModel;
use crate::source::{FileKind, SourceFile};
use std::cell::OnceCell;
use std::fs;
use std::path::{Path, PathBuf};

/// One member crate of the workspace.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name from the member's `Cargo.toml` (`mdrr-store`, …).
    pub name: String,
    /// Workspace-relative directory (`crates/store`, or `.` for the root
    /// package).
    pub rel_dir: String,
    /// Whether the member lives under `vendor/` (vendored dependency
    /// shims are exempt from repo contracts).
    pub is_vendor: bool,
}

/// Everything the rules see: the member crates and their lexed sources.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute path of the workspace root.
    pub root: PathBuf,
    /// Member crates, including the root package.
    pub crates: Vec<CrateInfo>,
    /// Every lexed Rust source file of every non-vendor member.
    pub files: Vec<SourceFile>,
    /// Lazily built semantic model (symbol table + call graph), shared
    /// by the privacy-taint rule so the tree is parsed once.
    sem: OnceCell<SemModel>,
}

impl Workspace {
    /// Walks up from `start` to the first directory whose `Cargo.toml`
    /// declares `[workspace]`.
    pub fn find_root(start: &Path) -> Option<PathBuf> {
        let mut dir = start.to_path_buf();
        loop {
            let manifest = dir.join("Cargo.toml");
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
            if !dir.pop() {
                return None;
            }
        }
    }

    /// Discovers and loads the workspace rooted at `root`.
    pub fn discover(root: &Path) -> Result<Workspace, String> {
        let manifest_path = root.join("Cargo.toml");
        let manifest = fs::read_to_string(&manifest_path)
            .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
        let mut crates = Vec::new();
        // The root package, if the root manifest declares one.
        if let Some(name) = package_name(&manifest) {
            crates.push(CrateInfo {
                name,
                rel_dir: ".".to_string(),
                is_vendor: false,
            });
        }
        for member in parse_members(&manifest) {
            let member_manifest = root.join(&member).join("Cargo.toml");
            let is_vendor = member.starts_with("vendor/");
            let name = fs::read_to_string(&member_manifest)
                .ok()
                .and_then(|t| package_name(&t))
                .unwrap_or_else(|| member.clone());
            crates.push(CrateInfo {
                name,
                rel_dir: member,
                is_vendor,
            });
        }
        let mut ws = Workspace {
            root: root.to_path_buf(),
            crates,
            files: Vec::new(),
            sem: OnceCell::new(),
        };
        let crate_list = ws.crates.clone();
        for info in &crate_list {
            if info.is_vendor {
                continue;
            }
            let base = if info.rel_dir == "." {
                root.to_path_buf()
            } else {
                root.join(&info.rel_dir)
            };
            for (sub, kind) in [
                ("src", FileKind::LibSrc),
                ("tests", FileKind::Test),
                ("benches", FileKind::Bench),
                ("examples", FileKind::Example),
            ] {
                ws.load_tree(&base.join(sub), info, kind)?;
            }
        }
        // Stable order: path-sorted, so diagnostics are deterministic.
        ws.files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(ws)
    }

    /// A test constructor: an in-memory workspace from `(rel_path, text)`
    /// pairs — the mutation fixtures run rules against synthetic trees
    /// without touching the filesystem.
    pub fn in_memory(sources: Vec<(&str, &str)>) -> Workspace {
        let mut crates: Vec<CrateInfo> = Vec::new();
        let mut files = Vec::new();
        for (rel, text) in sources {
            let (crate_name, rel_dir) = infer_crate(rel);
            if !crates.iter().any(|c| c.name == crate_name) {
                crates.push(CrateInfo {
                    name: crate_name.clone(),
                    rel_dir,
                    is_vendor: false,
                });
            }
            files.push(SourceFile::parse(
                rel,
                &crate_name,
                infer_kind(rel),
                text.to_string(),
            ));
        }
        Workspace {
            root: PathBuf::from("."),
            crates,
            files,
            sem: OnceCell::new(),
        }
    }

    /// The semantic model, built on first use and cached.
    pub fn sem(&self) -> &SemModel {
        self.sem.get_or_init(|| SemModel::build(self))
    }

    /// Appends a synthetic in-memory file to an already-built workspace
    /// and drops the cached semantic model — the seeded-violation tests
    /// use this to inject a leaking call chain into the real tree.
    pub fn push_file(&mut self, rel: &str, text: &str) {
        let (crate_name, _) = infer_crate(rel);
        self.files.push(SourceFile::parse(
            rel,
            &crate_name,
            infer_kind(rel),
            text.to_string(),
        ));
        self.files.sort_by(|a, b| a.rel.cmp(&b.rel));
        self.sem = OnceCell::new();
    }

    /// Recursively loads `.rs` files under `dir` as `kind` files of
    /// `info`, skipping `fixtures/` corpora and `target/`.
    fn load_tree(&mut self, dir: &Path, info: &CrateInfo, kind: FileKind) -> Result<(), String> {
        let entries = match fs::read_dir(dir) {
            Ok(e) => e,
            Err(_) => return Ok(()), // missing subtree: nothing to lint
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if name == "fixtures" || name == "target" {
                    continue;
                }
                let child_kind = if kind == FileKind::LibSrc && name == "bin" {
                    FileKind::BinSrc
                } else {
                    kind
                };
                self.load_tree(&path, info, child_kind)?;
            } else if name.ends_with(".rs") {
                let text = fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let rel = path
                    .strip_prefix(&self.root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                let file_kind = if kind == FileKind::LibSrc && name == "main.rs" {
                    FileKind::BinSrc
                } else {
                    kind
                };
                self.files
                    .push(SourceFile::parse(&rel, &info.name, file_kind, text));
            }
        }
        Ok(())
    }

    /// The lexed file at workspace-relative path `rel`, if loaded.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

/// Extracts `name = "…"` from a `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(value) = rest.strip_prefix('=') {
                    return Some(value.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Extracts the `members = [ … ]` list from the workspace manifest.
fn parse_members(manifest: &str) -> Vec<String> {
    let mut members = Vec::new();
    let mut in_members = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('#') || line.starts_with("##") {
            continue;
        }
        if !in_members {
            if line.starts_with("members") && line.contains('[') {
                in_members = true;
            }
            continue;
        }
        if line.starts_with(']') {
            break;
        }
        let entry = line.trim_matches(|c: char| c == '"' || c == ',' || c.is_whitespace());
        if !entry.is_empty() && !members.contains(&entry.to_string()) {
            members.push(entry.to_string());
        }
    }
    members
}

/// Guesses `(crate name, crate dir)` from a workspace-relative path, for
/// in-memory test workspaces (`crates/store/src/x.rs` → `mdrr-store`).
fn infer_crate(rel: &str) -> (String, String) {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.first() == Some(&"crates") && parts.len() > 1 {
        (format!("mdrr-{}", parts[1]), format!("crates/{}", parts[1]))
    } else {
        ("mdrr".to_string(), ".".to_string())
    }
}

/// Guesses the [`FileKind`] from a workspace-relative path.
fn infer_kind(rel: &str) -> FileKind {
    if rel.contains("/src/bin/") || rel.ends_with("/main.rs") {
        FileKind::BinSrc
    } else if rel.contains("/tests/") || rel.starts_with("tests/") {
        FileKind::Test
    } else if rel.contains("/benches/") {
        FileKind::Bench
    } else if rel.contains("/examples/") || rel.starts_with("examples/") {
        FileKind::Example
    } else {
        FileKind::LibSrc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_and_package_parsing() {
        let manifest = r#"
[workspace]
members = [
    "crates/math",
    "crates/store",
    "vendor/rand",
]

[package]
name = "mdrr"
"#;
        assert_eq!(
            parse_members(manifest),
            vec!["crates/math", "crates/store", "vendor/rand"]
        );
        assert_eq!(package_name(manifest).as_deref(), Some("mdrr"));
    }

    #[test]
    fn in_memory_workspaces_infer_crates_and_kinds() {
        let ws = Workspace::in_memory(vec![
            ("crates/store/src/format.rs", "fn a() {}"),
            ("crates/store/tests/t.rs", "fn b() {}"),
        ]);
        let f = ws.file("crates/store/src/format.rs").unwrap();
        assert_eq!(f.crate_name, "mdrr-store");
        assert_eq!(f.kind, FileKind::LibSrc);
        assert_eq!(
            ws.file("crates/store/tests/t.rs").unwrap().kind,
            FileKind::Test
        );
    }
}
