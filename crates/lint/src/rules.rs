//! The rule set: ids, slugs, applicability, and the `--explain` texts.
//!
//! Detection lives in [`crate::checks`] (token patterns, L1–L7, L10),
//! [`crate::locks`] (L8) and [`crate::deadline`] (L9); this module owns
//! the vocabulary shared by baselines, pragmas and the CLI.

use std::fmt;

/// A lint rule. Ids `L1`–`L10` are stable and are what baseline entries
/// and pragmas refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `unwrap()`/`expect()` in non-test library code.
    L1,
    /// `partial_cmp`/float `==` ordering where `total_cmp` is required.
    L2,
    /// `thread::spawn`/`available_parallelism` outside the sanctioned
    /// concurrency modules.
    L3,
    /// `Instant::now()` outside `onoc-trace`.
    L4,
    /// Calls to the deprecated `*_traced` shims.
    L5,
    /// Bare `.lock().unwrap()` on shared state instead of the
    /// poison-recovery helper.
    L6,
    /// Unordered `HashMap`/`HashSet` iteration in output-producing
    /// crates.
    L7,
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

/// The crates whose outputs must be byte-deterministic; L7 polices
/// unordered iteration inside them. (`onoc-eval` consumes designs but
/// publishes aggregate statistics; the design bytes themselves are
/// produced by these six.)
pub const OUTPUT_CRATES: [&str; 6] = [
    "crates/core/",
    "crates/graph/",
    "crates/layout/",
    "crates/milp/",
    "crates/store/",
    "crates/served/",
];

impl Rule {
    /// All rules, in id order.
    pub const ALL: [Rule; 10] = [
        Rule::L1,
        Rule::L2,
        Rule::L3,
        Rule::L4,
        Rule::L5,
        Rule::L6,
        Rule::L7,
        Rule::L8,
        Rule::L9,
        Rule::L10,
    ];

    /// Stable id, e.g. `"L2"`.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::L1 => "L1",
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L5 => "L5",
            Rule::L6 => "L6",
            Rule::L7 => "L7",
            Rule::L8 => "L8",
            Rule::L9 => "L9",
            Rule::L10 => "L10",
        }
    }

    /// Human-readable slug, e.g. `"float-total-cmp"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::L1 => "no-unwrap",
            Rule::L2 => "float-total-cmp",
            Rule::L3 => "thread-spawn",
            Rule::L4 => "instant-now",
            Rule::L5 => "traced-shim",
            Rule::L6 => "lock-unwrap",
            Rule::L7 => "unordered-iter",
            Rule::L8 => "lock-order",
            Rule::L9 => "deadline-loop",
            Rule::L10 => "persist-symmetry",
        }
    }

    /// One-line rationale shown in `--list`.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Rule::L1 => "library code must propagate errors, not unwrap()/expect() them",
            Rule::L2 => "float orderings must use total_cmp, not partial_cmp (NaN breaks sort/heap invariants)",
            Rule::L3 => "thread::spawn/available_parallelism only in onoc-ctx (thread budget is centralized)",
            Rule::L4 => "Instant::now() only in onoc-trace (timing flows through the trace layer)",
            Rule::L5 => "the deprecated *_traced shims must not gain new callers",
            Rule::L6 => "shared registries must use lock_or_recover, not .lock().unwrap()",
            Rule::L7 => "no unordered HashMap/HashSet iteration in output-producing crates (use sorted_entries)",
            Rule::L8 => "no nested or order-conflicting Mutex acquisition outside onoc-ctx/onoc-served",
            Rule::L9 => "long-running loops reachable from synthesize/solve must check the deadline",
            Rule::L10 => "Persist impls must persist and restore the same fields in the same order",
        }
    }

    /// The full `--explain` text: rationale, what the detector actually
    /// matches, and the false-positive policy.
    #[must_use]
    pub fn explain(self) -> &'static str {
        match self {
            Rule::L1 => {
                "\
L1 no-unwrap — library code must propagate errors.

Why: an unwrap()/expect() in a library crate turns a recoverable
condition into a process abort, which the daemon (onoc-served) and the
cache layer cannot contain. Typed errors (SringError, BaselineError,
DecodeError, …) exist for every layer.

Detected: `.unwrap()` / `.expect(` method calls on the token stream, in
non-test library code. `.unwrap_or*`/`.expect_err` are different
identifiers and never match. `.lock().unwrap()` is L6, not L1.

False positives: proven-infallible unwraps on values constructed a few
lines above. Policy: restructure where cheap; otherwise an inline
pragma with the invariant as the reason."
            }
            Rule::L2 => {
                "\
L2 float-total-cmp — float orderings must use total_cmp.

Why: partial_cmp returns None for NaN; sort_by/min_by silently produce
order-dependent (and thus thread-count-dependent) results when a NaN
sneaks in. total_cmp is total and deterministic, which the byte-identity
contract (DESIGN.md §16) depends on.

Detected: `partial_cmp` as a method call (`.partial_cmp(`) or path value
(`f64::partial_cmp`), everywhere including tests. Defining partial_cmp
in a PartialOrd impl is allowed (`fn partial_cmp` is not a call).

False positives: a PartialOrd impl delegating to an inner float's
partial_cmp; suppress with a pragma explaining the mirroring."
            }
            Rule::L3 => {
                "\
L3 thread-spawn — parallelism is centralized.

Why: `--threads N` must govern every worker pool; a stray
thread::spawn or available_parallelism() probe creates parallelism the
ExecCtx thread budget cannot see, breaking both determinism and the
thread-count equivalence tests.

Detected: `thread::spawn` and `available_parallelism` tokens outside
onoc-ctx, excluding test code.

False positives: none observed; scratch threads in tests are exempt."
            }
            Rule::L4 => {
                "\
L4 instant-now — wall-clock reads flow through onoc-trace.

Why: Instant::now() scattered through the pipeline makes spans
unattributable and deadline handling inconsistent; the trace layer owns
time.

Detected: `Instant::now` tokens in library code outside crates/trace.

False positives: deadline arithmetic against a ctx-provided Instant;
suppress with a pragma naming the budget being checked."
            }
            Rule::L5 => {
                "\
L5 traced-shim — the deprecated *_traced entry points are frozen.

Why: the `_traced` shims survive only for API-migration diffs; new
callers would re-entrench them.

Detected: calls `<ident>_traced(…)` anywhere (tests included);
definitions (`fn …_traced`) are allowed.

False positives: none — any new call is a regression."
            }
            Rule::L6 => {
                "\
L6 lock-unwrap — poisoned locks must be recovered, not propagated.

Why: a panic while holding a registry/cache lock would otherwise
cascade: every later .lock().unwrap() re-panics. lock_or_recover
(onoc-trace) recovers the guard and keeps counters coherent.

Detected: `.lock()` immediately followed by `.unwrap()`/`.expect(` in
non-test code.

False positives: code that *wants* poison propagation (none in-tree);
suppress with a pragma if that is ever deliberate."
            }
            Rule::L7 => {
                "\
L7 unordered-iter — no unordered map/set iteration on output paths.

Why: HashMap/HashSet iteration order varies per process and per
insertion history. Iterating one into anything that feeds design bytes,
persisted artifacts or wire responses silently breaks the byte-identity
contract (the PR 9 tied-optima bug is the canonical near-miss). BTreeMap
or the sanctioned onoc_ctx::sorted_entries/sorted_keys adapters give a
deterministic order.

Detected: in non-test code of the output-producing crates (core, graph,
layout, milp, store, served): iteration calls (.iter(), .iter_mut(),
.keys(), .values(), .values_mut(), .drain(), .into_iter()) and
`for … in <name>` loops whose receiver was bound or declared as a
HashMap/HashSet in the same file. Lookups (.get/.entry/.contains_key)
never match.

False positives: a same-named Vec in a file that also binds a HashMap;
iteration whose order provably cannot reach an output (e.g. feeding a
commutative reduction). Fix with sorted_entries or BTreeMap where
possible; otherwise a pragma stating why order cannot escape."
            }
            Rule::L8 => {
                "\
L8 lock-order — nested Mutex acquisition is quarantined.

Why: two locks held in one scope deadlock the daemon the first time a
second path takes them in the opposite order; the audited queue/registry
code in onoc-ctx and onoc-served is the only place the workspace
tolerates it.

Detected: a `.lock(…)`/`lock_or_recover(…)` acquisition while a
let-bound guard from a *different* receiver is still live in the same
fn (scope-tracked by brace depth), outside onoc-ctx/onoc-served and
test code. Additionally, the acquisition-order pairs of the whole
workspace (audited crates included) are cross-checked: the same pair of
receivers acquired in both orders anywhere is reported at every
non-audited site.

False positives: a guard dropped early via drop(guard) before the
second acquisition. Policy: keep the drop and add a pragma citing it."
            }
            Rule::L9 => {
                "\
L9 deadline-loop — solver/stage loops must observe the deadline.

Why: SringError::Deadline is only as good as the densest check:
a loop that spins between stage boundaries can blow the budget
arbitrarily before the next check (the PR 8 deadline bugfixes all came
from exactly such gaps).

Detected: in crates/core and crates/milp, `loop`/`while` bodies
spanning 3+ lines inside fns reachable (by the intra-crate name-resolved
call graph) from a fn whose name starts with `synthesize` or `solve`,
where the body neither mentions check_deadline/deadline nor calls a fn
that transitively does. `for` loops are exempt (bounded by their
iterator).

False positives: loops whose trip count is provably small (fixed-size
arrays) or that run before any deadline exists. Fix by threading the
ctx deadline where the loop is genuinely long-running; otherwise a
pragma stating the bound."
            }
            Rule::L10 => {
                "\
L10 persist-symmetry — persist/restore must agree field-for-field.

Why: the on-disk artifact store trusts Persist impls to round-trip;
a field persisted but not restored (or restored out of order) corrupts
every artifact written after the edit, and the mutation-sweep tests
only catch it for types they cover.

Detected: for every `impl Persist for T` whose persist body
destructures `self` (or uses self.field), the sequence of fields
persisted is cross-checked against the restore body: every persisted
field must appear in restore, in the same relative order. Enum and
tuple-struct impls (no named fields) are skipped.

False positives: a field legitimately recomputed rather than read back
(name it in restore via its binding, or suppress with a pragma
explaining the reconstruction)."
            }
        }
    }

    /// Parses an id (`"L1"`) or slug (`"no-unwrap"`).
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
/// Rules apply per kind: the hard invariants (L2 float ordering, L5 shim
/// calls, L10 codec symmetry) apply everywhere, the library-hygiene
/// rules (L1, L4) only to library code, and the concurrency/determinism
/// rules (L3, L6, L7, L8, L9) everywhere except test code.
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
        // Library hygiene: binaries, examples and benches may unwrap at
        // the top level and take wall-clock timestamps for reporting.
        Rule::L1 | Rule::L4 => {
            if kind != FileKind::Lib || in_test_region {
                return false;
            }
            if rule == Rule::L4 && rel_path.starts_with("crates/trace/src/") {
                return false;
            }
            true
        }
        // Hard invariants: everywhere, including test code.
        Rule::L2 | Rule::L5 | Rule::L10 => true,
        // Concurrency rules: everywhere except test code.
        Rule::L3 => !in_test_code && !rel_path.starts_with("crates/ctx/src/"),
        Rule::L6 => !in_test_code,
        // Determinism: output-producing crates only.
        Rule::L7 => !in_test_code && OUTPUT_CRATES.iter().any(|c| rel_path.starts_with(c)),
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
        assert_eq!(Rule::parse("unordered-iter"), Some(Rule::L7));
        assert_eq!(Rule::parse("L10"), Some(Rule::L10));
        assert_eq!(Rule::parse("L11"), None);
        assert_eq!(Rule::L4.to_string(), "L4 instant-now");
    }

    #[test]
    fn every_rule_has_an_explanation() {
        for rule in Rule::ALL {
            assert!(
                rule.explain().starts_with(rule.id()),
                "{} explain text must lead with its id",
                rule.id()
            );
        }
    }

    #[test]
    fn classify_matches_the_repo_layout() {
        assert_eq!(classify("crates/core/src/cluster.rs"), FileKind::Lib);
        assert_eq!(classify("src/bin/sring-cli.rs"), FileKind::Bin);
        assert_eq!(classify("crates/lint/src/main.rs"), FileKind::Bin);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Example);
        assert_eq!(classify("tests/pipeline.rs"), FileKind::Test);
        assert_eq!(classify("crates/bench/src/bin/fig7.rs"), FileKind::Bench);
        assert_eq!(classify("crates/bench/benches/milp.rs"), FileKind::Bench);
        assert_eq!(classify("crates/milp/src/lib.rs"), FileKind::Lib);
    }

    #[test]
    fn applicability_honors_kind_region_and_allowlists() {
        use FileKind::*;
        assert!(applies(Rule::L1, Lib, false, "crates/core/src/lib.rs"));
        assert!(!applies(Rule::L1, Lib, true, "crates/core/src/lib.rs"));
        assert!(!applies(Rule::L1, Bin, false, "src/bin/sring-cli.rs"));
        assert!(applies(Rule::L2, Test, true, "tests/pipeline.rs"));
        assert!(applies(Rule::L3, Lib, false, "crates/milp/src/lu.rs"));
        assert!(!applies(Rule::L3, Lib, false, "crates/ctx/src/lib.rs"));
        assert!(applies(Rule::L3, Lib, false, "crates/eval/src/par.rs"));
        assert!(!applies(Rule::L4, Lib, false, "crates/trace/src/lib.rs"));
        assert!(applies(Rule::L4, Lib, false, "crates/ctx/src/lib.rs"));
        assert!(!applies(Rule::L6, Test, false, "tests/trace.rs"));
    }

    #[test]
    fn new_rule_applicability() {
        use FileKind::*;
        // L7: output crates only, not tests.
        assert!(applies(Rule::L7, Lib, false, "crates/core/src/stages.rs"));
        assert!(applies(Rule::L7, Lib, false, "crates/served/src/server.rs"));
        assert!(!applies(Rule::L7, Lib, false, "crates/eval/src/par.rs"));
        assert!(!applies(Rule::L7, Lib, true, "crates/core/src/stages.rs"));
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
