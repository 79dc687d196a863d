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
const DETERMINISM: &str = include_str!("fixtures/determinism.rs");
const CONCURRENCY: &str = include_str!("fixtures/concurrency.rs");

/// Fixtures are checked as if they were library code.
const LIB_PATH: &str = "crates/demo/src/lib.rs";

fn findings_at(path: &str, source: &str) -> Vec<(usize, Rule)> {
    check_source(path, source)
        .findings
        .iter()
        .map(|f| (f.line, f.rule))
        .collect()
}

fn rules_at(path: &str, source: &str) -> Vec<Rule> {
    findings_at(path, source)
        .into_iter()
        .map(|(_, r)| r)
        .collect()
}

#[test]
fn every_rule_is_detected_once_in_the_seeded_fixture() {
    let report = check_source(LIB_PATH, SEEDED);
    assert_eq!(
        findings_at(LIB_PATH, SEEDED),
        vec![
            (8, Rule::L2),
            (12, Rule::L3),
            (17, Rule::L3),
            (22, Rule::L4)
        ]
    );
    assert!(report.suppressed.is_empty());
    assert!(report.pragma_errors.is_empty());
}

#[test]
fn seeded_fixture_rules_shift_with_file_kind() {
    // As a binary, L4 drops out but the hard and concurrency rules stay.
    assert_eq!(
        rules_at("crates/demo/src/main.rs", SEEDED),
        vec![Rule::L2, Rule::L3, Rule::L3]
    );
    // As an integration test, only the hard invariants remain.
    assert_eq!(rules_at("tests/demo.rs", SEEDED), vec![Rule::L2]);
}

#[test]
fn strings_comments_and_cfg_test_do_not_hide_or_invent_findings() {
    // Everything lexically hidden in strings/comments stays hidden; the
    // two real findings (an L4 in library code, an L2 inside the test
    // module) are found at their exact lines.
    assert_eq!(
        findings_at(LIB_PATH, TRICKY),
        vec![(18, Rule::L4), (28, Rule::L2)]
    );
}

#[test]
fn pragma_placement_suppresses_exactly_where_documented() {
    let report = check_source(LIB_PATH, PRAGMAS);
    let suppressed: Vec<(usize, Rule)> =
        report.suppressed.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(suppressed, vec![(6, Rule::L4), (13, Rule::L2)]);

    let violations: Vec<(usize, Rule)> = report.findings.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(
        violations,
        vec![(18, Rule::L4), (24, Rule::L4), (29, Rule::L4)]
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

#[test]
fn determinism_fixture_flags_l10_at_exact_lines() {
    // The asymmetric `Persist` impl; the tuple-struct impl is clean.
    assert_eq!(
        findings_at("crates/core/src/demo.rs", DETERMINISM),
        vec![(9, Rule::L10)]
    );
}

#[test]
fn concurrency_fixture_flags_l8_and_l9_at_exact_lines() {
    // The nested second acquisition and the unchecked solver loop; the
    // scoped sequential locks and the deadline-checked loop are clean.
    assert_eq!(
        findings_at("crates/core/src/demo.rs", CONCURRENCY),
        vec![(7, Rule::L8), (13, Rule::L9)]
    );
}

#[test]
fn concurrency_rules_exempt_the_audited_ctx_paths() {
    // crates/ctx owns the documented lock-ordering discipline (L8 exempt)
    // and is not a synthesis entry crate (L9 does not apply).
    let in_ctx = check_source("crates/ctx/src/demo.rs", CONCURRENCY);
    assert!(in_ctx.findings.is_empty(), "{:?}", in_ctx.findings);
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
    // Codec symmetry is a hard invariant, so L10 holds in every crate.
    for path in [
        "crates/eval/src/demo.rs",
        "crates/sim/src/demo.rs",
        "src/demo.rs",
    ] {
        assert_eq!(
            findings_at(path, DETERMINISM),
            vec![(9, Rule::L10)],
            "{path}"
        );
    }
}
