//! Inline suppression pragmas.
//!
//! A finding is suppressed by a pragma in a plain `//` comment on the
//! same line or on the run of comment-only lines directly above it:
//!
//! ```text
//! // onoc-lint: allow(L2, reason = "PartialOrd impl must mirror f64 semantics")
//! self.0.partial_cmp(&other.0)
//! ```
//!
//! The reason is mandatory and must be non-empty: a suppression without a
//! recorded justification is itself a lint error. So is a pragma that
//! names a retired rule, and (checked in [`crate::check_source`] and
//! [`crate::run`]) one that suppresses no finding — the contract
//! `unfulfilled_lint_expectations` gives `#[expect]`.

use crate::rules::{Rule, RETIRED};

/// Marker that introduces a pragma inside a comment.
pub const MARKER: &str = "onoc-lint:";

/// A parsed `allow` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// The rule being suppressed.
    pub rule: Rule,
    /// The mandatory justification.
    pub reason: String,
}

/// Extracts every pragma from one line's comment text.
///
/// Returns `Ok(vec![])` for comments without the [`MARKER`].
///
/// # Errors
///
/// Returns a diagnostic message when the comment contains the marker but
/// the pragma is malformed (unknown or retired rule, missing or empty
/// reason, broken syntax) — malformed pragmas fail the lint run rather
/// than silently suppressing nothing. Doc comments (`///`, `//!`) never
/// carry a pragma, so documentation may quote one.
pub fn parse_pragmas(comment: &str) -> Result<Vec<Pragma>, String> {
    let mut out = Vec::new();
    if comment.starts_with("///") || comment.starts_with("//!") {
        return Ok(out);
    }
    let mut rest = comment;
    while let Some(at) = rest.find(MARKER) {
        let tail = &rest[at + MARKER.len()..];
        let (pragma, consumed) = parse_one(tail)?;
        out.push(pragma);
        rest = &tail[consumed..];
    }
    Ok(out)
}

/// Parses `allow(<rule>, reason = "…")` at the start of `tail`
/// (leading whitespace allowed); returns the pragma and how many bytes
/// of `tail` it consumed.
fn parse_one(tail: &str) -> Result<(Pragma, usize), String> {
    let body = tail
        .trim_start()
        .strip_prefix("allow(")
        .ok_or_else(|| format!("expected `allow(<rule>, reason = \"…\")` after `{MARKER}`"))?;

    let comma = body
        .find(',')
        .ok_or_else(|| "pragma is missing the mandatory `reason = \"…\"` part".to_string())?;
    let rule_token = body[..comma].trim();
    if let Some((id, slug, now)) = RETIRED
        .into_iter()
        .find(|(id, slug, _)| rule_token == *id || rule_token == *slug)
    {
        return Err(format!(
            "rule {id} ({slug}) is retired from onoc-lint; it is enforced by {now}"
        ));
    }
    let rule = Rule::parse(rule_token)
        .ok_or_else(|| format!("unknown rule `{rule_token}` (expected L2, L9 or a rule slug)"))?;

    let after_comma = body[comma + 1..].trim_start();
    let reason_body = after_comma
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|s| s.strip_prefix('='))
        .map(str::trim_start)
        .and_then(|s| s.strip_prefix('"'))
        .ok_or_else(|| "expected `reason = \"…\"` after the rule".to_string())?;
    let close_quote = reason_body
        .find('"')
        .ok_or_else(|| "unterminated reason string".to_string())?;
    let reason = reason_body[..close_quote].trim();
    if reason.is_empty() {
        return Err("pragma reason must not be empty".to_string());
    }
    let after_reason = reason_body[close_quote + 1..].trim_start();
    if !after_reason.starts_with(')') {
        return Err("expected `)` closing the pragma".to_string());
    }

    // Bytes consumed from `tail`: everything up to and including the
    // closing paren (`after_reason` is a suffix of `tail` starting at it).
    let paren_off = tail.len() - after_reason.len() + 1;
    Ok((
        Pragma {
            rule,
            reason: reason.to_string(),
        },
        paren_off,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_pragma_parses() {
        let p = parse_pragmas("// onoc-lint: allow(L2, reason = \"mirror f64 semantics\")");
        assert_eq!(
            p,
            Ok(vec![Pragma {
                rule: Rule::L2,
                reason: "mirror f64 semantics".to_string()
            }])
        );
    }

    #[test]
    fn slug_rule_names_work() {
        let p = parse_pragmas("// onoc-lint: allow(deadline-loop, reason = \"bounded walk\")");
        assert_eq!(p.map(|v| v[0].rule), Ok(Rule::L9));
    }

    #[test]
    fn plain_comments_yield_nothing() {
        assert_eq!(parse_pragmas("// just a comment"), Ok(vec![]));
        assert_eq!(parse_pragmas(""), Ok(vec![]));
    }

    #[test]
    fn missing_reason_is_an_error() {
        assert!(parse_pragmas("// onoc-lint: allow(L2)").is_err());
        assert!(parse_pragmas("// onoc-lint: allow(L2, reason = \"\")").is_err());
        assert!(parse_pragmas("// onoc-lint: allow(L2, reason = \"   \")").is_err());
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let err = parse_pragmas("// onoc-lint: allow(L99, reason = \"x\")");
        assert!(err.is_err());
        assert!(format!("{err:?}").contains("L99"));
    }

    #[test]
    fn retired_rule_is_an_error() {
        for token in [
            "L1",
            "no-unwrap",
            "L3",
            "instant-now",
            "L5",
            "L6",
            "unordered-iter",
            "L8",
            "L10",
            "persist-symmetry",
        ] {
            let err = parse_pragmas(&format!("// onoc-lint: allow({token}, reason = \"x\")"));
            assert!(format!("{err:?}").contains("retired"), "{token}: {err:?}");
        }
    }

    #[test]
    fn doc_comments_carry_no_pragma() {
        let quoted = "onoc-lint: allow(L2, reason = \"x\")";
        assert_eq!(parse_pragmas(&format!("/// {quoted}")), Ok(vec![]));
        assert_eq!(parse_pragmas(&format!("//! // {quoted}")), Ok(vec![]));
        assert_eq!(
            parse_pragmas(&format!("// {quoted}")).map(|v| v.len()),
            Ok(1)
        );
    }

    #[test]
    fn two_pragmas_on_one_line() {
        let p = parse_pragmas(
            "// onoc-lint: allow(L2, reason = \"a\") onoc-lint: allow(L9, reason = \"b\")",
        );
        assert_eq!(p.map(|v| v.len()), Ok(2));
    }
}
