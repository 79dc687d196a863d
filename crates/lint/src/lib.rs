//! `onoc-lint`: the workspace's own static-analysis pass.
//!
//! A std-only engine (no external parser — the build environment is
//! offline and dependencies are vendored stubs) built from three
//! layers: a loss-free lexer ([`lex`]), a per-file scope model that
//! recovers items and test regions ([`model`]), and a conservative
//! intra-crate call graph ([`callgraph`]). On top run the rules that
//! enforce project invariants `clippy` cannot express:
//!
//! | rule | name               | invariant |
//! |------|--------------------|-----------|
//! | L1   | `no-unwrap`        | no `unwrap()`/`expect()` in non-test library code |
//! | L2   | `float-total-cmp`  | float orderings use `total_cmp`, never `partial_cmp` |
//! | L3   | `thread-spawn`     | `thread::spawn`/`available_parallelism` only in `onoc-ctx` |
//! | L4   | `instant-now`      | `Instant::now()` only in `onoc-trace` |
//! | L5   | `traced-shim`      | no callers of the deprecated `*_traced` shims |
//! | L6   | `lock-unwrap`      | `lock_or_recover`, never bare `.lock().unwrap()` |
//! | L7   | `unordered-iter`   | no `HashMap`/`HashSet` iteration in output-producing crates |
//! | L8   | `lock-order`       | no nested / inconsistently-ordered Mutex acquisition |
//! | L9   | `deadline-loop`    | solver/synthesis loops consult the deadline |
//! | L10  | `persist-symmetry` | `Persist` impls encode and decode the same fields in the same order |
//!
//! Findings are suppressed either by an inline pragma with a mandatory
//! reason (see [`pragma`]) or by the ratcheting `lint-baseline.toml`
//! (see [`baseline`]); everything else fails the run. DESIGN.md §12 has
//! the full policy.

pub mod baseline;
pub mod callgraph;
pub mod checks;
pub mod deadline;
pub mod lex;
pub mod locks;
pub mod model;
pub mod pragma;
pub mod rules;
pub mod workspace;

use baseline::Baseline;
use checks::RawFinding;
use model::FileModel;
use rules::Rule;
use std::collections::{BTreeMap, BTreeSet};
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
    /// Optional rule-specific diagnosis (what exactly is unordered,
    /// which lock pair, which `Persist` fields diverge).
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

/// A malformed suppression pragma (itself a failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaError {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line number of the broken pragma.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for PragmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: malformed pragma: {}",
            self.file, self.line, self.message
        )
    }
}

/// Result of linting one file (before baseline application).
#[derive(Debug, Default, Clone)]
pub struct FileReport {
    /// Findings not suppressed by a pragma.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a well-formed pragma.
    pub suppressed: Vec<Finding>,
    /// Malformed pragmas.
    pub pragma_errors: Vec<PragmaError>,
}

/// Lints one file's source text in isolation.
///
/// Single-file analysis covers every rule: the cross-file parts of L8
/// (workspace-wide order comparison) and L9 (cross-file reachability)
/// degrade gracefully to the file's own lock pairs and call graph.
#[must_use]
pub fn check_source(rel_path: &str, source: &str) -> FileReport {
    let m = FileModel::build(rel_path, source);
    let mut raw = checks::check_file(&m);

    let events = locks::scan_file(&m);
    let pairs: BTreeSet<(String, String)> = events.iter().map(locks::LockEvent::pair).collect();
    raw.extend(lock_findings(&events, &pairs));

    let singleton = [&m];
    raw.extend(deadline::scan_crate(&singleton).into_iter().map(|(_, f)| f));

    finish_report(&m, raw)
}

/// Converts lock events into raw L8 findings, upgrading the note when
/// the reversed pair also occurs in `pairs` (the workspace-wide set).
fn lock_findings(
    events: &[locks::LockEvent],
    pairs: &BTreeSet<(String, String)>,
) -> Vec<RawFinding> {
    events
        .iter()
        .map(|e| {
            let (a, b) = e.pair();
            let note = if pairs.contains(&(b, a)) {
                format!(
                    "`{}` is acquired while `{}` is held, and the workspace also acquires \
                     them in the opposite order — pick one canonical order or collapse to \
                     one lock",
                    e.second, e.first,
                )
            } else {
                format!(
                    "`{}` is acquired while `{}` is held; nested guards risk deadlock — \
                     drop the first guard before taking the second",
                    e.second, e.first,
                )
            };
            RawFinding {
                line: e.line,
                rule: Rule::L8,
                note: Some(note),
            }
        })
        .collect()
}

/// Applies rule applicability, pragma parsing and pragma coverage to a
/// file's raw findings.
fn finish_report(m: &FileModel, mut raw: Vec<RawFinding>) -> FileReport {
    let mut report = FileReport::default();

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

    raw.sort_by_key(|f| (f.line, f.rule));
    for rf in raw {
        if !rules::applies(rf.rule, m.kind, m.in_test_region(rf.line), &m.path) {
            continue;
        }
        let finding = Finding {
            file: m.path.clone(),
            line: rf.line,
            rule: rf.rule,
            excerpt: m.excerpt(rf.line),
            note: rf.note,
        };
        if pragma_covers(m, &pragmas, rf.line, rf.rule) {
            report.suppressed.push(finding);
        } else {
            report.findings.push(finding);
        }
    }
    report
}

/// Is a finding of `rule` on 1-based `line` covered by a pragma on the
/// same line or on the run of comment-only lines directly above it?
fn pragma_covers(m: &FileModel, pragmas: &[Vec<pragma::Pragma>], line: usize, rule: Rule) -> bool {
    let idx = line.saturating_sub(1);
    if pragmas
        .get(idx)
        .is_some_and(|p| p.iter().any(|p| p.rule == rule))
    {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let comment_only = !m.has_code[j] && !m.comments[j].trim().is_empty();
        if !comment_only {
            return false;
        }
        if pragmas[j].iter().any(|p| p.rule == rule) {
            return true;
        }
    }
    false
}

/// Aggregate outcome of a workspace lint run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Number of files scanned.
    pub files: usize,
    /// Findings beyond the baseline allowance — these fail the run.
    pub violations: Vec<Finding>,
    /// Findings absorbed by the baseline.
    pub baselined: Vec<Finding>,
    /// Findings suppressed by pragmas.
    pub suppressed: Vec<Finding>,
    /// Malformed pragmas — these fail the run.
    pub pragma_errors: Vec<PragmaError>,
    /// Baseline bookkeeping diagnostics: stale-ratchet entries (the
    /// baseline allows more than reality — shrink it) and over-budget
    /// group summaries. Stale entries fail the run on their own, so
    /// fixed debt cannot silently regrow.
    pub stale: Vec<String>,
}

impl Outcome {
    /// Does the run pass?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.pragma_errors.is_empty() && self.stale.is_empty()
    }

    /// The `(rule, file) -> count` groups of all baselined + violating
    /// findings, i.e. what `--write-baseline` would record.
    #[must_use]
    pub fn grouped_debt(&self) -> Vec<baseline::BaselineEntry> {
        let mut groups: BTreeMap<(String, Rule), usize> = BTreeMap::new();
        for f in self.baselined.iter().chain(&self.violations) {
            *groups.entry((f.file.clone(), f.rule)).or_insert(0) += 1;
        }
        groups
            .into_iter()
            .map(|((file, rule), count)| baseline::BaselineEntry { rule, file, count })
            .collect()
    }

    /// Renders the outcome as a single JSON object (std-only, no
    /// serializer dependency): `findings` (violations), `pragma_errors`,
    /// `stale`, the summary counters and the overall `clean` flag.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"findings\": [");
        for (i, f) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"name\": {}, \
                 \"excerpt\": {}, \"note\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule.id()),
                json_str(f.rule.name()),
                json_str(&f.excerpt),
                f.note
                    .as_deref()
                    .map_or_else(|| "null".to_string(), json_str),
            ));
        }
        if self.violations.is_empty() {
            s.push(']');
        } else {
            s.push_str("\n  ]");
        }
        s.push_str(",\n  \"pragma_errors\": [");
        for (i, e) in self.pragma_errors.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(&e.file),
                e.line,
                json_str(&e.message),
            ));
        }
        if self.pragma_errors.is_empty() {
            s.push(']');
        } else {
            s.push_str("\n  ]");
        }
        s.push_str(",\n  \"stale\": [");
        for (i, m) in self.stale.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&json_str(m));
        }
        s.push(']');
        s.push_str(&format!(
            ",\n  \"files\": {},\n  \"violations\": {},\n  \"baselined\": {},\n  \
             \"suppressed\": {},\n  \"clean\": {}\n}}",
            self.files,
            self.violations.len(),
            self.baselined.len(),
            self.suppressed.len(),
            self.is_clean(),
        ));
        s
    }
}

/// JSON string literal with the escapes the lint output can contain.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Errors that abort a run (as opposed to findings, which fail it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintError {
    /// Filesystem trouble.
    Io(String),
    /// Broken configuration: workspace manifest or baseline file.
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

/// Lints the whole workspace under `root` against `baseline`.
///
/// Per-file rules run on each file's model; L8's lock-order pairs are
/// cross-checked across *every* scanned file (exempt files contribute
/// pairs but not findings) and L9 runs per crate over the crate's
/// whole call graph.
///
/// # Errors
///
/// Returns [`LintError`] when the workspace cannot be walked or a file
/// cannot be read; findings are reported through the [`Outcome`], not
/// as errors.
pub fn run(root: &Path, baseline: &Baseline) -> Result<Outcome, LintError> {
    let files = workspace::source_files(root)?;
    let mut outcome = Outcome {
        files: files.len(),
        ..Outcome::default()
    };

    let mut models: Vec<FileModel> = Vec::with_capacity(files.len());
    for rel in &files {
        let path = root.join(rel);
        let source = fs::read_to_string(&path)
            .map_err(|e| LintError::Io(format!("reading {}: {e}", path.display())))?;
        models.push(FileModel::build(rel, &source));
    }

    // Per-file token checks.
    let mut raws: Vec<Vec<RawFinding>> = models.iter().map(checks::check_file).collect();

    // L8: every file's events feed the workspace-wide pair set; exempt
    // files are dropped later by `rules::applies`.
    let all_events: Vec<Vec<locks::LockEvent>> = models.iter().map(locks::scan_file).collect();
    let pairs: BTreeSet<(String, String)> = all_events
        .iter()
        .flatten()
        .map(locks::LockEvent::pair)
        .collect();
    for (i, events) in all_events.iter().enumerate() {
        raws[i].extend(lock_findings(events, &pairs));
    }

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

    // Per (file, rule): the findings, applied against the allowance.
    let mut groups: BTreeMap<(String, Rule), Vec<Finding>> = BTreeMap::new();
    for (m, raw) in models.iter().zip(raws) {
        let report = finish_report(m, raw);
        outcome.suppressed.extend(report.suppressed);
        outcome.pragma_errors.extend(report.pragma_errors);
        for f in report.findings {
            groups.entry((f.file.clone(), f.rule)).or_default().push(f);
        }
    }

    for ((file, rule), findings) in groups {
        let allowance = baseline.allowance(rule, &file);
        if findings.len() > allowance {
            if allowance > 0 {
                // The whole group is over budget; report every site so
                // the fix (or the baseline shrink) is easy to locate.
                outcome.stale.push(format!(
                    "{file}: {} has {} findings, baseline allows {allowance}",
                    rule.id(),
                    findings.len(),
                ));
            }
            outcome.violations.extend(findings);
        } else {
            if findings.len() < allowance {
                outcome.stale.push(format!(
                    "stale baseline: {file} has {} {} findings but the baseline allows \
                     {allowance} — shrink the entry (the baseline only ratchets down)",
                    findings.len(),
                    rule.id(),
                ));
            }
            outcome.baselined.extend(findings);
        }
    }

    // Entries for (rule, file) pairs with no findings at all are stale too.
    for e in &baseline.entries {
        let present = outcome
            .baselined
            .iter()
            .chain(&outcome.violations)
            .any(|f| f.rule == e.rule && f.file == e.file);
        if !present {
            outcome.stale.push(format!(
                "stale baseline: {} has no {} findings any more — delete the entry",
                e.file,
                e.rule.id(),
            ));
        }
    }

    Ok(outcome)
}

/// Loads the baseline file, treating a missing file as an empty baseline.
///
/// # Errors
///
/// Returns [`LintError::Config`] when the file exists but does not parse.
pub fn load_baseline(path: &Path) -> Result<Baseline, LintError> {
    match fs::read_to_string(path) {
        Ok(text) => Baseline::parse(&text)
            .map_err(|m| LintError::Config(format!("{}: {m}", path.display()))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
        Err(e) => Err(LintError::Io(format!("reading {}: {e}", path.display()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_format_as_file_line_rule() {
        let report = check_source(
            "crates/demo/src/lib.rs",
            "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
        );
        assert_eq!(report.findings.len(), 1);
        assert_eq!(
            report.findings[0].to_string(),
            "crates/demo/src/lib.rs:2: [L1 no-unwrap] x.unwrap()"
        );
    }

    #[test]
    fn notes_render_on_their_own_line() {
        let report = check_source(
            "crates/core/src/demo.rs",
            "fn f(m: &HashMap<u32, u32>) {\n    for v in m.values() {\n        use_it(v);\n    }\n}\n",
        );
        assert_eq!(report.findings.len(), 1);
        let rendered = report.findings[0].to_string();
        assert!(rendered.starts_with("crates/core/src/demo.rs:2: [L7 unordered-iter]"));
        assert!(rendered.contains("\n    note: "));
    }

    #[test]
    fn pragma_on_preceding_comment_line_suppresses() {
        let src = "\
pub fn f() {
    // onoc-lint: allow(L4, reason = \"deadline check against the ctx budget\")
    let t = Instant::now();
}
";
        let report = check_source("crates/demo/src/lib.rs", src);
        assert!(report.findings.is_empty());
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].rule, Rule::L4);
    }

    #[test]
    fn pragma_for_the_wrong_rule_does_not_suppress() {
        let src = "\
pub fn f() {
    // onoc-lint: allow(L1, reason = \"not the right rule\")
    let t = Instant::now();
}
";
        let report = check_source("crates/demo/src/lib.rs", src);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, Rule::L4);
    }

    #[test]
    fn malformed_pragma_is_reported() {
        let src = "// onoc-lint: allow(L1)\nfn f() {}\n";
        let report = check_source("crates/demo/src/lib.rs", src);
        assert_eq!(report.pragma_errors.len(), 1);
        assert_eq!(report.pragma_errors[0].line, 1);
    }

    #[test]
    fn grouped_debt_counts_per_file_and_rule() {
        let mut outcome = Outcome::default();
        for line in [3, 7] {
            outcome.violations.push(Finding {
                file: "crates/demo/src/lib.rs".into(),
                line,
                rule: Rule::L1,
                excerpt: String::new(),
                note: None,
            });
        }
        let debt = outcome.grouped_debt();
        assert_eq!(debt.len(), 1);
        assert_eq!(debt[0].count, 2);
    }

    #[test]
    fn json_output_is_well_formed_and_escaped() {
        let mut outcome = Outcome {
            files: 3,
            ..Outcome::default()
        };
        outcome.violations.push(Finding {
            file: "crates/demo/src/lib.rs".into(),
            line: 4,
            rule: Rule::L1,
            excerpt: "x.expect(\"odd \\ case\")".into(),
            note: None,
        });
        let json = outcome.to_json();
        assert!(json.contains("\"rule\": \"L1\""));
        assert!(json.contains("\"excerpt\": \"x.expect(\\\"odd \\\\ case\\\")\""));
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"note\": null"));
    }

    #[test]
    fn empty_outcome_is_clean_json() {
        let outcome = Outcome {
            files: 1,
            ..Outcome::default()
        };
        let json = outcome.to_json();
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"clean\": true"));
    }
}
