//! Lint fixture: the cases the scanner must NOT flag — patterns hidden
//! in strings, comments and test modules — plus two real findings among
//! them. Not compiled (see seeded_violations.rs). Line numbers are
//! asserted exactly by tests/engine.rs.

pub fn strings_and_comments(a: f64, b: f64) -> bool {
    // a.partial_cmp(&b) in a line comment is fine
    /* and a.partial_cmp(&b) in a block comment
       /* even nested: f64::partial_cmp */
       is fine too */
    let _doc = "calling a.partial_cmp(&b) inside a string literal";
    let _raw = r#"raw string with "quotes" and f64::partial_cmp"#;
    let _multi = "a string that spans
        two lines mentioning .partial_cmp( calls";
    let _lifetime: &'static str = "lifetimes are not char literals";
    let _ch = '"'; // a quote char literal must not open a string
    let _esc = "escaped quote \" then .partial_cmp( stays inside";
    a.partial_cmp(&b).is_some() // line 18: the one real L2 here
}

#[cfg(test)]
mod tests {
    pub fn solve_in_test(work: &[u64]) {
        loop {
            spin(work); // L9 does not apply inside cfg(test)
            spin(work);
        }
    }

    #[test]
    fn l2_holds_in_tests_too() {
        let _ = 1.0_f64.partial_cmp(&2.0); // line 32: L2
    }
}
