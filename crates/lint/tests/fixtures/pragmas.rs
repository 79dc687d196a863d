//! Lint fixture: pragma placement and every pragma error. Not compiled
//! (see seeded_violations.rs). Line numbers are asserted exactly by
//! tests/engine.rs.

pub fn same_line() -> Instant {
    Instant::now() // onoc-lint: allow(L4, reason = "fixture: same-line pragma")
}

pub fn comment_above(a: f64, b: f64) -> std::cmp::Ordering {
    // A multi-line justification is fine: the pragma may sit anywhere in
    // onoc-lint: allow(L2, reason = "fixture: pragma on the comment run above")
    // the run of comment-only lines directly above the finding.
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

pub fn wrong_rule() -> Instant {
    // onoc-lint: allow(L2, reason = "fixture: wrong rule, does not cover L4")
    Instant::now() // line 18: still a violation; line 17 suppresses nothing
}

pub fn interrupted_run() -> Instant {
    // onoc-lint: allow(L4, reason = "fixture: code intervenes, pragma does not reach")
    let _ = 1;
    Instant::now() // line 24: still a violation; line 22 suppresses nothing
}

pub fn malformed() -> Instant {
    // onoc-lint: allow(L4) -- line 28: missing reason, malformed
    Instant::now() // line 29: violation (malformed pragma suppresses nothing)
}

pub fn retired(x: Option<u32>) -> u32 {
    // onoc-lint: allow(L1, reason = "line 33: clippy owns unwraps now")
    x.unwrap()
}
