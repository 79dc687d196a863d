//! The rule set: ids, slugs and applicability.
//!
//! Detection lives in [`crate::checks`] (token patterns, L2–L4, L10),
//! [`crate::locks`] (L8) and [`crate::deadline`] (L9); this module owns
//! the vocabulary shared by pragmas and findings. DESIGN.md §12 gives
//! each rule's rationale. The ids the checker no longer owns are listed
//! in [`RETIRED`]: clippy enforces them, or they were deleted.

use std::fmt;

/// A lint rule. Ids are stable and are what pragmas refer to; the gaps
/// (L1, L5, L6, L7) are the [`RETIRED`] rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `partial_cmp` where `total_cmp` is required.
    L2,
    /// `thread::spawn`, scoped spawns or `available_parallelism`
    /// outside `onoc-ctx`.
    L3,
    /// `Instant::now()` outside `onoc-trace`.
    L4,
    /// Nested or inconsistently-ordered `Mutex` acquisition outside the
    /// audited concurrency layers.
    L8,
    /// A long-running loop reachable from `synthesize`/`solve` that
    /// never checks the deadline.
    L9,
    /// Asymmetric `Persist` impl: `persist` and `restore` disagree on
    /// fields or field order.
    L10,
}

/// Rule ids and slugs the checker once owned, with what enforces them
/// now. A pragma naming one is an error: it could never suppress
/// anything.
pub const RETIRED: [(&str, &str, &str); 4] = [
    (
        "L1",
        "no-unwrap",
        "clippy::unwrap_used / clippy::expect_used",
    ),
    (
        "L5",
        "traced-shim",
        "nothing: the `*_traced` shims are gone",
    ),
    (
        "L6",
        "lock-unwrap",
        "clippy::unwrap_used / clippy::expect_used",
    ),
    ("L7", "unordered-iter", "clippy::iter_over_hash_type"),
];

impl Rule {
    /// All rules, in id order.
    pub const ALL: [Rule; 6] = [Rule::L2, Rule::L3, Rule::L4, Rule::L8, Rule::L9, Rule::L10];

    /// Stable id, e.g. `"L2"`.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L8 => "L8",
            Rule::L9 => "L9",
            Rule::L10 => "L10",
        }
    }

    /// Human-readable slug, e.g. `"float-total-cmp"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::L2 => "float-total-cmp",
            Rule::L3 => "thread-spawn",
            Rule::L4 => "instant-now",
            Rule::L8 => "lock-order",
            Rule::L9 => "deadline-loop",
            Rule::L10 => "persist-symmetry",
        }
    }

    /// Parses an id (`"L2"`) or slug (`"float-total-cmp"`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == s || r.name() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.id(), self.name())
    }
}

/// What kind of source a file is, derived from its repo-relative path.
/// Rules apply per kind: the hard invariants (L2 float ordering, L10
/// codec symmetry) apply everywhere, L4 only to library code, and the
/// concurrency rules (L3, L8, L9) everywhere except test code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source under a member's `src/`.
    Lib,
    /// A binary (`src/main.rs`, `src/bin/*`).
    Bin,
    /// An example under `examples/`.
    Example,
    /// Bench code (`benches/`, plus the whole `crates/bench` harness).
    Bench,
    /// Integration tests under `tests/`.
    Test,
}

/// Classifies a repo-relative, `/`-separated path.
#[must_use]
pub fn classify(rel_path: &str) -> FileKind {
    let components: Vec<&str> = rel_path.split('/').collect();
    if components.contains(&"tests") {
        FileKind::Test
    } else if components.contains(&"examples") {
        FileKind::Example
    } else if components.contains(&"benches") || rel_path.starts_with("crates/bench/") {
        FileKind::Bench
    } else if components.contains(&"bin") || rel_path.ends_with("src/main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// Does `rule` apply to a line in the given file kind / test region,
/// taking the per-rule path allowlists into account?
#[must_use]
pub fn applies(rule: Rule, kind: FileKind, in_test_region: bool, rel_path: &str) -> bool {
    let in_test_code = in_test_region || kind == FileKind::Test;
    match rule {
        // Binaries, examples and benches may take wall-clock timestamps
        // for reporting; the trace layer owns time.
        Rule::L4 => {
            kind == FileKind::Lib && !in_test_region && !rel_path.starts_with("crates/trace/src/")
        }
        // Hard invariants: everywhere, including test code.
        Rule::L2 | Rule::L10 => true,
        // Thread budget: everywhere but test code and onoc-ctx.
        Rule::L3 => !in_test_code && !rel_path.starts_with("crates/ctx/src/"),
        // Lock discipline: everywhere but the audited concurrency layers.
        Rule::L8 => {
            !in_test_code
                && !rel_path.starts_with("crates/ctx/src/")
                && !rel_path.starts_with("crates/served/src/")
        }
        // Deadline discipline: stage and solver code.
        Rule::L9 => {
            !in_test_code
                && (rel_path.starts_with("crates/core/src/")
                    || rel_path.starts_with("crates/milp/src/"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_parse_accepts_ids_and_slugs() {
        assert_eq!(Rule::parse("L3"), Some(Rule::L3));
        assert_eq!(Rule::parse("float-total-cmp"), Some(Rule::L2));
        assert_eq!(Rule::parse("persist-symmetry"), Some(Rule::L10));
        assert_eq!(Rule::parse("L10"), Some(Rule::L10));
        assert_eq!(Rule::parse("L11"), None);
        assert_eq!(Rule::L4.to_string(), "L4 instant-now");
        // Retired ids parse as nothing: clippy owns them now.
        for (id, slug, _) in RETIRED {
            assert_eq!(Rule::parse(id), None);
            assert_eq!(Rule::parse(slug), None);
        }
    }

    #[test]
    fn classify_matches_the_repo_layout() {
        assert_eq!(classify("crates/core/src/cluster.rs"), FileKind::Lib);
        assert_eq!(classify("src/bin/sring-cli.rs"), FileKind::Bin);
        assert_eq!(classify("crates/served/src/main.rs"), FileKind::Bin);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Example);
        assert_eq!(classify("tests/pipeline.rs"), FileKind::Test);
        assert_eq!(classify("crates/bench/src/bin/fig7.rs"), FileKind::Bench);
        assert_eq!(classify("crates/bench/src/lib.rs"), FileKind::Bench);
        assert_eq!(classify("crates/milp/src/lib.rs"), FileKind::Lib);
    }

    #[test]
    fn applicability_honors_kind_region_and_allowlists() {
        use FileKind::*;
        assert!(applies(Rule::L2, Test, true, "tests/pipeline.rs"));
        assert!(applies(Rule::L3, Lib, false, "crates/milp/src/lu.rs"));
        assert!(applies(
            Rule::L3,
            Bench,
            false,
            "crates/bench/src/bin/served_load.rs"
        ));
        assert!(!applies(Rule::L3, Lib, false, "crates/ctx/src/lib.rs"));
        assert!(!applies(Rule::L3, Lib, true, "crates/trace/src/lib.rs"));
        assert!(applies(Rule::L3, Lib, false, "crates/eval/src/par.rs"));
        assert!(!applies(Rule::L4, Lib, false, "crates/trace/src/lib.rs"));
        assert!(!applies(Rule::L4, Bin, false, "src/bin/sring-cli.rs"));
        assert!(!applies(Rule::L4, Lib, true, "crates/core/src/lib.rs"));
        assert!(applies(Rule::L4, Lib, false, "crates/ctx/src/lib.rs"));
    }

    #[test]
    fn new_rule_applicability() {
        use FileKind::*;
        // L8: everywhere but the audited layers and tests.
        assert!(applies(Rule::L8, Lib, false, "crates/milp/src/lu.rs"));
        assert!(!applies(
            Rule::L8,
            Lib,
            false,
            "crates/served/src/server.rs"
        ));
        assert!(!applies(Rule::L8, Lib, false, "crates/ctx/src/lib.rs"));
        assert!(!applies(Rule::L8, Test, false, "tests/served.rs"));
        // L9: stage/solver code only.
        assert!(applies(Rule::L9, Lib, false, "crates/milp/src/simplex.rs"));
        assert!(applies(Rule::L9, Lib, false, "crates/core/src/cluster.rs"));
        assert!(!applies(Rule::L9, Lib, false, "crates/layout/src/route.rs"));
        // L10: everywhere, tests included.
        assert!(applies(Rule::L10, Lib, false, "crates/store/src/codec.rs"));
        assert!(applies(Rule::L10, Test, true, "tests/store.rs"));
    }
}
