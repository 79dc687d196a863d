//! Lint fixture: one seeded violation of every lexical rule, in library
//! context. This file is NOT compiled — the `fixtures` directory is
//! excluded from the workspace walk precisely because its contents
//! violate the rules on purpose. Line numbers are asserted exactly by
//! tests/engine.rs; keep them stable when editing.

pub fn l2_site(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal) // line 8: L2
}

pub fn l3_site() {
    let _ = std::thread::spawn(|| {}); // line 12: L3
}

pub fn l3_scoped_site() {
    std::thread::scope(|scope| {
        scope.spawn(|| {}); // line 17: L3, a scoped spawn
    });
}

pub fn l4_site() -> std::time::Instant {
    std::time::Instant::now() // line 22: L4
}
