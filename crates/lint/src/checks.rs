//! The token-pattern detector for L2, and the raw finding type every
//! detector returns.
//!
//! Detectors run on a [`FileModel`] and return *raw* findings — rule
//! applicability (test regions, path scopes) and pragma suppression are
//! applied centrally by [`crate::check_source`] and [`crate::run`].

use crate::lex::TokenKind;
use crate::model::FileModel;
use crate::rules::Rule;

/// A finding before applicability and pragma filtering.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// 1-based line.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Optional rule-specific diagnosis appended to the rendered line.
    pub note: Option<String>,
}

/// L2: `.partial_cmp(` calls and `…::partial_cmp` used as a value.
#[must_use]
pub fn check_file(m: &FileModel) -> Vec<RawFinding> {
    let punct_at = |k: usize, c: char| k < m.len() && m.tok(k).is_punct(c);
    (0..m.len())
        .filter(|&k| {
            let t = m.tok(k);
            let method = punct_at(k.wrapping_sub(1), '.');
            let path = k >= 2 && punct_at(k - 1, ':') && punct_at(k - 2, ':');
            t.kind == TokenKind::Ident && t.text == "partial_cmp" && (method || path)
        })
        .map(|k| RawFinding {
            line: m.tok(k).line,
            rule: Rule::L2,
            note: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(src: &str) -> Vec<usize> {
        let m = FileModel::build("crates/core/src/demo.rs", src);
        check_file(&m).into_iter().map(|f| f.line).collect()
    }

    #[test]
    fn partial_cmp_calls_hit_but_definitions_do_not() {
        assert_eq!(lines("fn f() { a.partial_cmp(&b); }"), vec![1]);
        assert_eq!(lines("fn f() { xs.sort_by(f64::partial_cmp); }"), vec![1]);
        assert!(lines("fn partial_cmp(a: &F, b: &F) -> Option<Ordering> { None }").is_empty());
    }

    #[test]
    fn unwrap_or_and_strings_are_not_flagged() {
        // clippy owns unwrap/expect, so no token rule reports any unwrap
        // form; the rule's tokens inside strings and comments never hit.
        assert!(lines("fn f() { x.unwrap(); x.unwrap_or(0); x.expect(\"\"); }").is_empty());
        assert!(lines("fn f() { log(\"a.partial_cmp(&b)\"); } // a.partial_cmp(&b)").is_empty());
        assert!(lines("fn f() { /* x.partial_cmp(&y) */ }").is_empty());
    }
}
