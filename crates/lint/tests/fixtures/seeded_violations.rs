//! Lint fixture: one seeded violation of each rule, checked as stage
//! code (`crates/core/src/`). This file is NOT compiled — the `fixtures`
//! directory is excluded from the workspace walk precisely because its
//! contents violate the rules on purpose. Line numbers are asserted
//! exactly by tests/engine.rs; keep them stable when editing.

pub fn l2_site(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal) // line 8: L2
}

pub fn solve_schedule(work: &[u64]) -> u64 {
    let mut best = 0;
    loop {
        // line 13: L9, reachable from `solve*` and never checks a deadline
        let step = propose(work);
        if step == 0 {
            break;
        }
        best += step;
    }
    best
}

pub fn solve_budgeted(work: &[u64], deadline_hit: &dyn Fn() -> bool) -> u64 {
    let mut best = 0;
    loop {
        if deadline_hit() {
            break;
        }
        best += propose(work);
    }
    best
}
