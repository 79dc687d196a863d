//! The rule set: ids, slugs and applicability.
//!
//! Detection lives in [`crate::checks`] (L2) and [`crate::deadline`]
//! (L9); this module owns the vocabulary shared by pragmas and
//! findings. DESIGN.md §12 gives each rule's rationale. The ids the
//! checker no longer owns are listed in [`RETIRED`], with what enforces
//! them now.

use std::fmt;

/// A lint rule. Ids are stable and are what pragmas refer to; the gaps
/// are the [`RETIRED`] rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `partial_cmp` where `total_cmp` is required.
    L2,
    /// A long-running loop reachable from `synthesize`/`solve` that
    /// never checks the deadline.
    L9,
}

/// Rule ids and slugs the checker once owned, with what enforces them
/// now. A pragma naming one is an error: it could never suppress
/// anything.
pub const RETIRED: [(&str, &str, &str); 8] = [
    (
        "L1",
        "no-unwrap",
        "clippy::unwrap_used / clippy::expect_used",
    ),
    (
        "L3",
        "thread-spawn",
        "clippy::disallowed_methods (clippy.toml)",
    ),
    (
        "L4",
        "instant-now",
        "clippy::disallowed_methods (clippy.toml)",
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
    (
        "L7",
        "unordered-iter",
        "clippy::iter_over_hash_type and clippy::disallowed_methods",
    ),
    ("L8", "lock-order", "clippy::disallowed_types (clippy.toml)"),
    ("L10", "persist-symmetry", "the `Persist` round-trip tests"),
];

impl Rule {
    /// All rules, in id order.
    pub const ALL: [Rule; 2] = [Rule::L2, Rule::L9];

    /// Stable id, e.g. `"L2"`.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::L2 => "L2",
            Rule::L9 => "L9",
        }
    }

    /// Human-readable slug, e.g. `"float-total-cmp"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::L2 => "float-total-cmp",
            Rule::L9 => "deadline-loop",
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

/// Does `rule` apply to a line of the file at `rel_path`? L2 is a hard
/// invariant and applies everywhere, test code included; L9 applies to
/// the non-test code of the stage and solver crates.
#[must_use]
pub fn applies(rule: Rule, in_test_region: bool, rel_path: &str) -> bool {
    match rule {
        Rule::L2 => true,
        Rule::L9 => {
            !in_test_region
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
        assert_eq!(Rule::parse("L2"), Some(Rule::L2));
        assert_eq!(Rule::parse("float-total-cmp"), Some(Rule::L2));
        assert_eq!(Rule::parse("deadline-loop"), Some(Rule::L9));
        assert_eq!(Rule::parse("L11"), None);
        assert_eq!(Rule::L9.to_string(), "L9 deadline-loop");
        // Retired ids parse as nothing: something else owns them now.
        for (id, slug, _) in RETIRED {
            assert_eq!(Rule::parse(id), None);
            assert_eq!(Rule::parse(slug), None);
        }
    }

    #[test]
    fn applicability_honors_kind_region_and_allowlists() {
        // L2 holds in every kind of file, test code included.
        assert!(applies(Rule::L2, true, "tests/pipeline.rs"));
        assert!(applies(Rule::L2, true, "crates/core/src/cluster.rs"));
        assert!(applies(Rule::L2, false, "crates/bench/src/bin/fig7.rs"));
        assert!(applies(Rule::L2, false, "src/bin/sring-cli.rs"));
    }

    #[test]
    fn new_rule_applicability() {
        // L9: non-test code of the stage and solver crates only.
        assert!(applies(Rule::L9, false, "crates/milp/src/simplex.rs"));
        assert!(applies(Rule::L9, false, "crates/core/src/cluster.rs"));
        assert!(!applies(Rule::L9, true, "crates/core/src/cluster.rs"));
        assert!(!applies(Rule::L9, false, "crates/layout/src/route.rs"));
        assert!(!applies(Rule::L9, false, "crates/milp/tests/lp_oracle.rs"));
    }
}
