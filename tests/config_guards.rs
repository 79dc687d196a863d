//! Guards on the lint configuration itself: the crate-root `#![warn]`
//! lines, both `clippy.toml`s, the lock layers' crate-root `#![expect]`s
//! and the `Persist` round-trip files (DESIGN.md §12). clippy enforces the
//! rules; these tests keep a config edit from silently switching one off.

use std::path::{Path, PathBuf};

/// The workspace root: the root package's manifest directory.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every library crate root, each with the lint list of its first
/// `#![warn(clippy::..)]` line (empty if it has none).
fn library_roots_and_warned_lints() -> Vec<(PathBuf, String)> {
    let root = workspace_root();
    let mut roots = vec![root.join("src/lib.rs")];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        if dir.join("src/lib.rs").is_file() {
            roots.push(dir.join("src/lib.rs"));
        }
    }
    assert!(roots.len() >= 15, "{roots:?}");
    roots
        .into_iter()
        .map(|lib| {
            let text = std::fs::read_to_string(&lib).unwrap();
            let warned = text
                .lines()
                .find(|l| l.starts_with("#![warn(clippy::"))
                .unwrap_or_default()
                .to_owned();
            (lib, warned)
        })
        .collect()
}

/// The disallowed paths both `clippy.toml`s list: L2's `partial_cmp`,
/// L3's thread budget, L7's hash-order chains and L8's lock types. The
/// root file adds L4's `Instant::now`; crates/bench's leaves it out (its
/// bins report wall time).
const DISALLOWED: [&str; 16] = [
    "std::cmp::PartialOrd::partial_cmp",
    "std::thread::spawn",
    "std::thread::Scope::spawn",
    "std::thread::available_parallelism",
    "std::collections::HashMap::iter",
    "std::collections::HashMap::iter_mut",
    "std::collections::HashMap::keys",
    "std::collections::HashMap::values",
    "std::collections::HashMap::values_mut",
    "std::collections::HashMap::drain",
    "std::collections::HashMap::into_keys",
    "std::collections::HashMap::into_values",
    "std::collections::HashSet::iter",
    "std::collections::HashSet::drain",
    "std::sync::Mutex",
    "std::sync::RwLock",
];
const INSTANT_NOW: &str = "std::time::Instant::now";

/// The crates whose root may hold locks (L8's audited layers).
const LOCK_LAYERS: [&str; 3] = ["crates/ctx", "crates/served", "crates/trace"];

#[test]
fn library_crate_roots_enable_the_clippy_rules() {
    // clippy enforces L1 and L6 only where a crate root asks it to:
    // unwrap_used/expect_used in every library crate but the bench harness.
    let roots = library_roots_and_warned_lints();
    let library = roots
        .iter()
        .filter(|(lib, _)| !lib.ends_with("crates/bench/src/lib.rs"));
    for (lib, warned) in library {
        for lint in ["clippy::unwrap_used", "clippy::expect_used"] {
            assert!(warned.contains(lint), "{} lacks {lint}", lib.display());
        }
    }

    // L2, L3, L4, L7 and L8 live in the clippy.toml files. crates/bench's
    // replaces the root one for that crate, so it repeats every key but
    // `Instant::now`.
    let root = workspace_root();
    for (config, wants_instant) in [("clippy.toml", true), ("crates/bench/clippy.toml", false)] {
        let text = std::fs::read_to_string(root.join(config)).unwrap();
        let listed = |path: &str| text.contains(&format!("path = \"{path}\""));
        for path in DISALLOWED {
            assert!(listed(path), "{config} does not list {path}");
        }
        assert_eq!(
            listed(INSTANT_NOW),
            wants_instant,
            "{config}: {INSTANT_NOW}"
        );
        for key in [
            "allow-unwrap-in-tests = true",
            "allow-expect-in-tests = true",
        ] {
            assert!(text.contains(key), "{config} lacks {key}");
        }
    }

    // L8: only the audited lock layers expect `disallowed_types`, once,
    // at their crate root.
    for (lib, _) in &roots {
        let text = std::fs::read_to_string(lib).unwrap();
        let expects = text.contains("#![expect(clippy::disallowed_types");
        let audited = LOCK_LAYERS
            .iter()
            .any(|layer| lib.ends_with(format!("{layer}/src/lib.rs")));
        assert_eq!(expects, audited, "{}", lib.display());
    }
}

/// Every `.rs` file under `dir`, as `/`-separated paths relative to
/// `root`.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap();
            let parts: Vec<_> = rel.iter().map(|p| p.to_string_lossy()).collect();
            out.push(parts.join("/"));
        }
    }
}

#[test]
fn l7_and_l10_apply_to_every_crate() {
    // L7 is clippy::iter_over_hash_type, switched on at every library
    // crate root (the bench harness's too): hash order must not reach a
    // report any crate returns.
    for (lib, warned) in library_roots_and_warned_lints() {
        assert!(
            warned.contains("clippy::iter_over_hash_type"),
            "{} lacks clippy::iter_over_hash_type",
            lib.display()
        );
    }
    // L10 (codec symmetry) is carried by round-trip tests: every file
    // that implements `Persist` decodes its own encodings under test.
    let root = workspace_root();
    let mut sources = Vec::new();
    for dir in ["src", "tests", "examples", "crates"] {
        if root.join(dir).is_dir() {
            rust_files(&root, &root.join(dir), &mut sources);
        }
    }
    sources.sort();
    let needle = [" Persist", " for "].concat();
    let mut codec_files = Vec::new();
    for rel in sources {
        let text = std::fs::read_to_string(root.join(&rel)).unwrap();
        let implements = text
            .lines()
            .any(|l| l.starts_with("impl") && l.contains(&needle));
        if implements {
            assert!(
                text.contains("#[cfg(test)]") && text.contains("from_store_bytes("),
                "{rel} implements Persist without a round-trip test"
            );
            codec_files.push(rel);
        }
    }
    assert_eq!(
        codec_files,
        [
            "crates/core/src/persist.rs",
            "crates/served/src/proto.rs",
            "crates/store/src/codec.rs",
            "crates/store/src/lib.rs",
        ]
    );
}
