//! `onoc-lint`: the workspace rules neither clippy nor a test can say.
//!
//! A std-only engine (no external parser — the build environment is
//! offline and dependencies are vendored stubs) built from three
//! layers: a loss-free lexer ([`lex`]), a per-file scope model that
//! recovers `fn` items and test regions ([`model`]), and a conservative
//! intra-crate call graph ([`callgraph`]). On top run the two rules
//! with no stock substitute:
//!
//! | rule | name              | invariant |
//! |------|-------------------|-----------|
//! | L2   | `float-total-cmp` | float orderings use `total_cmp`, never `partial_cmp` |
//! | L9   | `deadline-loop`   | solver/synthesis loops consult the deadline |
//!
//! clippy and the `Persist` round-trip tests enforce the rest (see
//! [`rules::RETIRED`]). A finding is suppressed only by an inline
//! pragma with a mandatory reason (see [`pragma`]); a pragma that
//! suppresses nothing is itself an error. The gate is the
//! `the_real_workspace_lints_clean` test, which `cargo test` runs.
//! DESIGN.md §12 has the full policy.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]

pub mod callgraph;
pub mod checks;
pub mod deadline;
pub mod lex;
pub mod model;
pub mod pragma;
pub mod rules;
pub mod workspace;

use checks::RawFinding;
use model::FileModel;
use rules::Rule;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::Path;

/// A single rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative, `/`-separated path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// The trimmed source line, for the diagnostic.
    pub excerpt: String,
    /// Optional rule-specific diagnosis (which loop, in which fn).
    pub note: Option<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}",
            self.file,
            self.line,
            self.rule.id(),
            self.rule.name(),
            self.excerpt
        )?;
        if let Some(note) = &self.note {
            write!(f, "\n    note: {note}")?;
        }
        Ok(())
    }
}

/// A malformed or unused suppression pragma (itself a failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaError {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line number of the pragma.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for PragmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: pragma error: {}",
            self.file, self.line, self.message
        )
    }
}

/// Result of linting one file, or the whole workspace.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// Findings not suppressed by a pragma — these fail the run.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a well-formed pragma.
    pub suppressed: Vec<Finding>,
    /// Malformed pragmas and pragmas that suppress nothing — these fail
    /// the run.
    pub pragma_errors: Vec<PragmaError>,
}

impl Report {
    /// Does the run pass?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.pragma_errors.is_empty()
    }

    fn extend(&mut self, other: Report) {
        self.findings.extend(other.findings);
        self.suppressed.extend(other.suppressed);
        self.pragma_errors.extend(other.pragma_errors);
    }
}

/// Lints one file's source text in isolation.
///
/// Single-file analysis covers both rules: L9's cross-file
/// reachability degrades gracefully to the file's own call graph.
#[must_use]
pub fn check_source(rel_path: &str, source: &str) -> Report {
    let m = FileModel::build(rel_path, source);
    let mut raw = checks::check_file(&m);
    let singleton = [&m];
    raw.extend(deadline::scan_crate(&singleton).into_iter().map(|(_, f)| f));

    finish_report(&m, raw)
}

/// Applies rule applicability, pragma parsing and pragma coverage to a
/// file's raw findings, and reports every pragma that covered none.
fn finish_report(m: &FileModel, mut raw: Vec<RawFinding>) -> Report {
    let mut report = Report::default();

    // Parse every line's pragmas once; malformed ones are errors even
    // when no finding is nearby (they were clearly *meant* to suppress).
    let mut pragmas: Vec<Vec<pragma::Pragma>> = Vec::with_capacity(m.comments.len());
    for (idx, comment) in m.comments.iter().enumerate() {
        match pragma::parse_pragmas(comment) {
            Ok(p) => pragmas.push(p),
            Err(message) => {
                report.pragma_errors.push(PragmaError {
                    file: m.path.clone(),
                    line: idx + 1,
                    message,
                });
                pragmas.push(Vec::new());
            }
        }
    }
    let mut used: Vec<Vec<bool>> = pragmas.iter().map(|p| vec![false; p.len()]).collect();

    raw.sort_by_key(|f| (f.line, f.rule));
    for rf in raw {
        if !rules::applies(rf.rule, m.in_test_region(rf.line), &m.path) {
            continue;
        }
        let finding = Finding {
            file: m.path.clone(),
            line: rf.line,
            rule: rf.rule,
            excerpt: m.excerpt(rf.line),
            note: rf.note,
        };
        match covering_pragma(m, &pragmas, rf.line, rf.rule) {
            Some((j, p)) => {
                used[j][p] = true;
                report.suppressed.push(finding);
            }
            None => report.findings.push(finding),
        }
    }

    for (j, line) in pragmas.iter().enumerate() {
        for (p, pragma) in line.iter().enumerate() {
            if !used[j][p] {
                report.pragma_errors.push(PragmaError {
                    file: m.path.clone(),
                    line: j + 1,
                    message: format!(
                        "allow({}) suppresses no finding — delete the pragma",
                        pragma.rule.id()
                    ),
                });
            }
        }
    }
    report.pragma_errors.sort_by_key(|e| e.line);
    report
}

/// The pragma covering a finding of `rule` on 1-based `line`: one on
/// the same line or on the run of comment-only lines directly above it.
/// Returns its 0-based line index and its position on that line.
fn covering_pragma(
    m: &FileModel,
    pragmas: &[Vec<pragma::Pragma>],
    line: usize,
    rule: Rule,
) -> Option<(usize, usize)> {
    let on = |j: usize| {
        pragmas
            .get(j)
            .and_then(|p| p.iter().position(|p| p.rule == rule))
            .map(|p| (j, p))
    };
    let idx = line.saturating_sub(1);
    if let Some(hit) = on(idx) {
        return Some(hit);
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let comment_only = !m.has_code[j] && !m.comments[j].trim().is_empty();
        if !comment_only {
            return None;
        }
        if let Some(hit) = on(j) {
            return Some(hit);
        }
    }
    None
}

/// Errors that abort a run (as opposed to findings, which fail it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintError {
    /// Filesystem trouble.
    Io(String),
    /// A broken workspace manifest.
    Config(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io(m) => write!(f, "I/O error: {m}"),
            LintError::Config(m) => write!(f, "configuration error: {m}"),
        }
    }
}

impl std::error::Error for LintError {}

/// The crate grouping key of a workspace-relative path:
/// `crates/core/src/stages.rs` → `crates/core`.
fn crate_key(rel: &str) -> String {
    let mut it = rel.split('/');
    match (it.next(), it.next()) {
        (Some(a), Some(b)) => format!("{a}/{b}"),
        _ => rel.to_string(),
    }
}

/// Lints the whole workspace under `root`.
///
/// L2 runs on each file's model; L9 runs per crate over the crate's
/// whole call graph.
///
/// # Errors
///
/// Returns [`LintError`] when the workspace cannot be walked or a file
/// cannot be read; findings are reported through the [`Report`], not
/// as errors.
pub fn run(root: &Path) -> Result<Report, LintError> {
    let files = workspace::source_files(root)?;
    let mut models: Vec<FileModel> = Vec::with_capacity(files.len());
    for rel in &files {
        let path = root.join(rel);
        let source = fs::read_to_string(&path)
            .map_err(|e| LintError::Io(format!("reading {}: {e}", path.display())))?;
        models.push(FileModel::build(rel, &source));
    }

    let mut raws: Vec<Vec<RawFinding>> = models.iter().map(checks::check_file).collect();

    // L9: per crate, over the crate's whole call graph.
    let mut crates: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, m) in models.iter().enumerate() {
        crates.entry(crate_key(&m.path)).or_default().push(i);
    }
    for idxs in crates.values() {
        let refs: Vec<&FileModel> = idxs.iter().map(|&i| &models[i]).collect();
        for (file_idx, f) in deadline::scan_crate(&refs) {
            raws[idxs[file_idx]].push(f);
        }
    }

    let mut report = Report::default();
    for (m, raw) in models.iter().zip(raws) {
        report.extend(finish_report(m, raw));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_format_as_file_line_rule() {
        let report = check_source(
            "crates/demo/src/lib.rs",
            "pub fn f(a: f64, b: f64) -> bool {\n    a.partial_cmp(&b).is_some()\n}\n",
        );
        assert_eq!(report.findings.len(), 1);
        assert_eq!(
            report.findings[0].to_string(),
            "crates/demo/src/lib.rs:2: [L2 float-total-cmp] a.partial_cmp(&b).is_some()"
        );
    }

    #[test]
    fn notes_render_on_their_own_line() {
        let src = "\
pub fn solve(m: &Model) {
    loop {
        step(m);
        more(m);
    }
}
";
        let report = check_source("crates/core/src/demo.rs", src);
        assert_eq!(report.findings.len(), 1);
        let rendered = report.findings[0].to_string();
        assert!(rendered.starts_with("crates/core/src/demo.rs:2: [L9 deadline-loop]"));
        assert!(rendered.contains("\n    note: "));
    }

    #[test]
    fn pragma_on_preceding_comment_line_suppresses() {
        let src = "\
pub fn f(a: f64, b: f64) -> bool {
    // onoc-lint: allow(L2, reason = \"PartialOrd impl must mirror f64 semantics\")
    a.partial_cmp(&b).is_some()
}
";
        let report = check_source("crates/demo/src/lib.rs", src);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].rule, Rule::L2);
    }

    #[test]
    fn pragma_for_the_wrong_rule_does_not_suppress() {
        let src = "\
pub fn f(a: f64, b: f64) -> bool {
    // onoc-lint: allow(L9, reason = \"not the right rule\")
    a.partial_cmp(&b).is_some()
}
";
        let report = check_source("crates/demo/src/lib.rs", src);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, Rule::L2);
        // ...and, suppressing nothing, the pragma is an error itself.
        assert_eq!(report.pragma_errors.len(), 1);
        assert_eq!(report.pragma_errors[0].line, 2);
    }

    #[test]
    fn malformed_pragma_is_reported() {
        let src = "// onoc-lint: allow(L2)\nfn f() {}\n";
        let report = check_source("crates/demo/src/lib.rs", src);
        assert_eq!(report.pragma_errors.len(), 1);
        assert_eq!(report.pragma_errors[0].line, 1);
    }

    #[test]
    fn pragma_on_an_exempt_path_suppresses_nothing() {
        // L9 covers only the stage and solver crates, so outside them the
        // rule never fires and a pragma for it is dead.
        let src = "\
pub fn solve(m: &Model) {
    // onoc-lint: allow(L9, reason = \"bounded by the model size\")
    loop {
        step(m);
        more(m);
    }
}
";
        assert!(check_source("crates/milp/src/demo.rs", src).is_clean());
        let report = check_source("crates/eval/src/demo.rs", src);
        assert!(report.findings.is_empty());
        assert_eq!(report.pragma_errors.len(), 1);
        assert!(report.pragma_errors[0]
            .message
            .contains("suppresses no finding"));
    }
}
