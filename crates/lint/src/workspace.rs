//! Workspace discovery: which `.rs` files get linted.
//!
//! The walker reads the root `Cargo.toml`'s `[workspace] members` list
//! (including `crates/*`-style globs), skips the `vendor/*` members
//! (vendored upstream stubs keep upstream idiom and are not ours to
//! lint), and collects every `.rs` file under each member's `src/`,
//! `tests/`, `examples/` and `benches/` directories. Directories named
//! `fixtures` or `target` are never descended into — lint fixtures
//! *deliberately* violate the rules.

use crate::LintError;
use std::fs;
use std::path::{Path, PathBuf};

/// Returns the repo-relative (`/`-separated) paths of every source file
/// to lint, sorted for deterministic output.
///
/// # Errors
///
/// Returns [`LintError`] when the workspace manifest is missing or its
/// `members` list cannot be found, or on directory-walk I/O errors.
pub fn source_files(root: &Path) -> Result<Vec<String>, LintError> {
    let manifest = root.join("Cargo.toml");
    let text = fs::read_to_string(&manifest)
        .map_err(|e| LintError::Io(format!("reading {}: {e}", manifest.display())))?;
    let mut members = Vec::new();
    for entry in parse_members(&text)? {
        if let Some(prefix) = entry.strip_suffix("/*") {
            let glob_dir = root.join(prefix);
            let listing = fs::read_dir(&glob_dir)
                .map_err(|e| LintError::Io(format!("reading {}: {e}", glob_dir.display())))?;
            for sub in listing {
                let sub =
                    sub.map_err(|e| LintError::Io(format!("reading {}: {e}", glob_dir.display())))?;
                if sub.path().join("Cargo.toml").is_file() {
                    members.push(format!("{prefix}/{}", sub.file_name().to_string_lossy()));
                }
            }
        } else {
            members.push(entry);
        }
    }
    members.sort();

    let mut files = Vec::new();
    for member in &members {
        if member.starts_with("vendor/") || member == "vendor" {
            continue;
        }
        let dir = if member == "." {
            root.to_path_buf()
        } else {
            root.join(member)
        };
        for sub in ["src", "tests", "examples", "benches"] {
            let sub_dir = dir.join(sub);
            if sub_dir.is_dir() {
                walk(&sub_dir, &mut files)?;
            }
        }
    }

    let mut rel: Vec<String> = Vec::with_capacity(files.len());
    for f in files {
        let r = f
            .strip_prefix(root)
            .map_err(|_| LintError::Io(format!("{} escapes the root", f.display())))?;
        rel.push(
            r.components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/"),
        );
    }
    rel.sort();
    rel.dedup();
    Ok(rel)
}

/// Extracts the manifest's raw `members` array (globs are expanded by
/// [`source_files`] against the filesystem — a `<dir>/*` entry matches
/// subdirectories containing a `Cargo.toml`).
fn parse_members(manifest: &str) -> Result<Vec<String>, LintError> {
    let after = manifest
        .split_once("members")
        .ok_or_else(|| LintError::Config("no `members` key in the workspace manifest".into()))?
        .1;
    let open = after
        .find('[')
        .ok_or_else(|| LintError::Config("`members` is not an array".into()))?;
    let close = after[open..]
        .find(']')
        .ok_or_else(|| LintError::Config("unterminated `members` array".into()))?;
    let body = &after[open + 1..open + close];

    let mut members = Vec::new();
    let mut rest = body;
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        let end = tail
            .find('"')
            .ok_or_else(|| LintError::Config("unterminated string in `members`".into()))?;
        members.push(tail[..end].to_string());
        rest = &tail[end + 1..];
    }
    Ok(members)
}

/// Recursively collects `.rs` files, skipping `fixtures` and `target`
/// directories.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries =
        fs::read_dir(dir).map_err(|e| LintError::Io(format!("reading {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(format!("reading {}: {e}", dir.display())))?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "fixtures" && name != "target" {
                walk(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_globs_and_plain_entries_parse() {
        let manifest = r#"
[workspace]
members = ["crates/*", "vendor/*", "."]
resolver = "2"
"#;
        assert_eq!(
            parse_members(manifest).unwrap(),
            vec!["crates/*", "vendor/*", "."]
        );
    }

    #[test]
    fn missing_members_is_a_config_error() {
        assert!(matches!(
            parse_members("[package]\nname = \"x\"\n"),
            Err(LintError::Config(_))
        ));
    }
}
