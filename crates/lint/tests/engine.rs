//! End-to-end tests of the lint engine: fixture files with seeded
//! violations, pragma placement and errors, and — last but most
//! load-bearing — the real workspace linting clean, which is the gate
//! `cargo test` runs.

use onoc_lint::rules::Rule;
use onoc_lint::{check_source, run};
use std::path::{Path, PathBuf};

const SEEDED: &str = include_str!("fixtures/seeded_violations.rs");
const TRICKY: &str = include_str!("fixtures/tricky.rs");
const PRAGMAS: &str = include_str!("fixtures/pragmas.rs");

/// Fixtures are checked as if they were stage code, where both rules
/// apply.
const STAGE_PATH: &str = "crates/core/src/demo.rs";

fn findings_at(path: &str, source: &str) -> Vec<(usize, Rule)> {
    check_source(path, source)
        .findings
        .iter()
        .map(|f| (f.line, f.rule))
        .collect()
}

#[test]
fn every_rule_is_detected_once_in_the_seeded_fixture() {
    // The unchecked solver loop is found; the deadline-checked one is clean.
    let report = check_source(STAGE_PATH, SEEDED);
    assert_eq!(
        findings_at(STAGE_PATH, SEEDED),
        vec![(8, Rule::L2), (13, Rule::L9)]
    );
    assert!(report.suppressed.is_empty());
    assert!(report.pragma_errors.is_empty());
}

#[test]
fn seeded_fixture_rules_shift_with_file_kind() {
    // Outside the stage and solver crates, and in integration tests, only
    // the hard invariant (L2) remains.
    for path in [
        "crates/eval/src/demo.rs",
        "tests/demo.rs",
        "src/bin/demo.rs",
    ] {
        assert_eq!(findings_at(path, SEEDED), vec![(8, Rule::L2)], "{path}");
    }
    assert_eq!(
        findings_at("crates/milp/src/demo.rs", SEEDED),
        vec![(8, Rule::L2), (13, Rule::L9)]
    );
}

#[test]
fn strings_comments_and_cfg_test_do_not_hide_or_invent_findings() {
    // Everything lexically hidden in strings/comments stays hidden, and
    // the unchecked loop inside the test module is exempt from L9; the
    // two real findings (an L2 in stage code, an L2 inside the test
    // module) are found at their exact lines.
    assert_eq!(
        findings_at(STAGE_PATH, TRICKY),
        vec![(18, Rule::L2), (32, Rule::L2)]
    );
}

#[test]
fn pragma_placement_suppresses_exactly_where_documented() {
    let report = check_source(STAGE_PATH, PRAGMAS);
    let suppressed: Vec<(usize, Rule)> =
        report.suppressed.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(suppressed, vec![(6, Rule::L2), (13, Rule::L2)]);

    let violations: Vec<(usize, Rule)> = report.findings.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(
        violations,
        vec![(18, Rule::L2), (24, Rule::L2), (29, Rule::L2)]
    );

    // One case per error kind: a pragma for the wrong rule and one cut
    // off by code suppress nothing, one lacks its reason, one names a
    // rule clippy owns now.
    let errors: Vec<(usize, &str)> = report
        .pragma_errors
        .iter()
        .map(|e| (e.line, e.message.as_str()))
        .collect();
    assert_eq!(errors.len(), 4, "{errors:?}");
    for ((line, message), (want_line, want)) in errors.iter().zip([
        (17, "suppresses no finding"),
        (22, "suppresses no finding"),
        (28, "reason"),
        (33, "retired"),
    ]) {
        assert_eq!(*line, want_line);
        assert!(message.contains(want), "line {line}: {message}");
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR` is `crates/lint`.
fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.join("../..")
}

#[test]
fn the_real_workspace_lints_clean() {
    let report = run(&workspace_root()).unwrap();
    let problems: Vec<String> = report
        .findings
        .iter()
        .map(ToString::to_string)
        .chain(report.pragma_errors.iter().map(ToString::to_string))
        .collect();
    assert!(
        report.is_clean(),
        "onoc-lint is not clean:\n{}",
        problems.join("\n")
    );
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
    assert!(roots.len() >= 16, "{roots:?}");
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

/// The disallowed paths both `clippy.toml`s list: L3's thread budget,
/// L7's hash-order chains and L8's lock types. The root file adds L4's
/// `Instant::now`; crates/bench's leaves it out (its bins report wall
/// time).
const DISALLOWED: [&str; 15] = [
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

    // L3, L4, L7 and L8 live in the clippy.toml files. crates/bench's
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
    let needle = [" Persist", " for "].concat();
    let mut codec_files = Vec::new();
    for rel in onoc_lint::workspace::source_files(&root).unwrap() {
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
