//! Lint fixture: the cases the scanner must NOT flag — patterns hidden
//! in strings, comments and test modules — plus two real findings among
//! them. Not compiled (see seeded_violations.rs). Line numbers are
//! asserted exactly by tests/engine.rs.

pub fn strings_and_comments() {
    // Instant::now() in a line comment is fine
    /* and a.partial_cmp(&b) in a block comment
       /* even nested: thread::spawn */
       is fine too */
    let _doc = "calling Instant::now() inside a string literal";
    let _raw = r#"raw string with thread::spawn("msg") and Instant::now()"#;
    let _multi = "a string that spans
        two lines mentioning available_parallelism( calls";
    let _lifetime: &'static str = "lifetimes are not char literals";
    let _ch = '"'; // a quote char literal must not open a string
    let _esc = "escaped quote \" then .partial_cmp( stays inside";
    let _t = Instant::now(); // line 18: the one real L4 here
}

#[cfg(test)]
mod tests {
    #[test]
    fn timing_and_threads_in_tests_are_fine() {
        let _ = std::thread::spawn(|| {}); // L3 exempt inside cfg(test)
        let _ = std::time::Instant::now(); // L4 exempt inside cfg(test)
        // but L2 still applies in test code:
        let _ = 1.0_f64.partial_cmp(&2.0); // line 28: L2
    }
}

pub fn real_finding() -> Option<()> {
    Some(())
}
