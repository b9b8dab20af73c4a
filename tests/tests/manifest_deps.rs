//! Every dependency edge in the workspace is used: for each member, each
//! `[dependencies]` and `[dev-dependencies]` key, with `-` read as `_`,
//! must appear as a word in at least one of that member's `.rs` files. An
//! edge no source names only costs build time and misstates the layering.

use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the integration-tests crate sits in the workspace root")
        .to_path_buf()
}

/// Member directories named by the root manifest's `members` list; a
/// trailing `/*` stands for every subdirectory with a manifest.
fn members(root: &Path) -> Vec<PathBuf> {
    let manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let line = manifest
        .lines()
        .find(|l| l.trim_start().starts_with("members"))
        .expect("a members list");
    let mut out = Vec::new();
    for entry in line.split('"').skip(1).step_by(2) {
        match entry.strip_suffix("/*") {
            Some(dir) => {
                let mut dirs: Vec<PathBuf> = fs::read_dir(root.join(dir))
                    .unwrap()
                    .map(|e| e.unwrap().path())
                    .filter(|p| p.join("Cargo.toml").is_file())
                    .collect();
                dirs.sort();
                out.extend(dirs);
            }
            None => out.push(root.join(entry)),
        }
    }
    out
}

/// The keys of a manifest's `[dependencies]` and `[dev-dependencies]`
/// tables.
fn dependency_keys(manifest: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]" || line == "[dev-dependencies]";
        } else if in_deps && !line.starts_with('#') {
            if let Some((key, _)) = line.split_once('=') {
                keys.push(key.trim().to_string());
            }
        }
    }
    keys
}

/// The text of every `.rs` file under `dir`, build output skipped.
fn rust_sources(dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name() != Some("target".as_ref()) {
                rust_sources(&path, out);
            }
        } else if path.extension() == Some("rs".as_ref()) {
            out.push(fs::read_to_string(&path).unwrap());
        }
    }
}

/// Does `name` occur in `text` as a whole word?
fn mentions(text: &str, name: &str) -> bool {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(name).any(|(i, _)| {
        !text[..i].chars().next_back().is_some_and(word)
            && !text[i + name.len()..].chars().next().is_some_and(word)
    })
}

#[test]
fn every_dependency_edge_is_used() {
    let root = workspace_root();
    let mut unused = Vec::new();
    for member in members(&root) {
        let manifest = fs::read_to_string(member.join("Cargo.toml")).unwrap();
        let mut sources = Vec::new();
        rust_sources(&member, &mut sources);
        for key in dependency_keys(&manifest) {
            let name = key.replace('-', "_");
            if !sources.iter().any(|src| mentions(src, &name)) {
                let member = member.strip_prefix(&root).unwrap().display().to_string();
                unused.push(format!("{member} -> {key}"));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "{} dependency edge(s) that no source file uses:\n{}",
        unused.len(),
        unused.join("\n")
    );
}
