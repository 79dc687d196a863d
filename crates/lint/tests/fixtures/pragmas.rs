//! Lint fixture: pragma placement and every pragma error. Not compiled
//! (see seeded_violations.rs). Line numbers are asserted exactly by
//! tests/engine.rs.

pub fn same_line(a: f64, b: f64) -> bool {
    a.partial_cmp(&b).is_some() // onoc-lint: allow(L2, reason = "fixture: same-line pragma")
}

pub fn comment_above(a: f64, b: f64) -> std::cmp::Ordering {
    // A multi-line justification is fine: the pragma may sit anywhere in
    // onoc-lint: allow(L2, reason = "fixture: pragma on the comment run above")
    // the run of comment-only lines directly above the finding.
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

pub fn wrong_rule(a: f64, b: f64) -> bool {
    // onoc-lint: allow(L9, reason = "fixture: wrong rule, does not cover L2")
    a.partial_cmp(&b).is_some() // line 18: still a violation; line 17 suppresses nothing
}

pub fn interrupted_run(a: f64, b: f64) -> bool {
    // onoc-lint: allow(L2, reason = "fixture: code intervenes, pragma does not reach")
    let _ = 1;
    a.partial_cmp(&b).is_some() // line 24: still a violation; line 22 suppresses nothing
}

pub fn malformed(a: f64, b: f64) -> bool {
    // onoc-lint: allow(L2) -- line 28: missing reason, malformed
    a.partial_cmp(&b).is_some() // line 29: violation (malformed pragma suppresses nothing)
}

pub fn retired() -> Instant {
    // onoc-lint: allow(L4, reason = "line 33: clippy owns Instant::now now")
    Instant::now()
}
