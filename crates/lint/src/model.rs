//! The per-file source model the rules run against.
//!
//! [`FileModel::build`] lexes a file once and recovers just enough
//! structure for the rule pack:
//!
//! * the loss-free token stream (see [`crate::lex`]) plus a filtered
//!   view of the *significant* (non-trivia) tokens,
//! * per-line channels: the raw text, the concatenated comment text
//!   (where suppression pragmas live) and whether any code starts on
//!   the line,
//! * the `#[cfg(test)]` / `#[test]` region mask,
//! * recovered `fn` items with their name and their body's
//!   significant-token range. Items nest; containment is by token range.
//!
//! The model is a conservative approximation, not a parse: anything the
//! recovery cannot classify is simply not an item. Rules are written so
//! that approximation errors surface as *findings* (to be inspected and
//! pragma'd) rather than as silent passes.

use crate::lex::{lex, Token, TokenKind};

/// One recovered `fn` (free, inherent or trait method).
#[derive(Debug, Clone)]
pub struct Item {
    /// The fn's name.
    pub name: String,
    /// Significant-token index of the body's `{` (exclusive of body).
    pub open: usize,
    /// Significant-token index of the matching `}`, or the last token
    /// if the file ends before the brace closes.
    pub close: usize,
}

impl Item {
    /// Significant-token indices of the body (between the braces).
    #[must_use]
    pub fn body(&self) -> std::ops::Range<usize> {
        self.open + 1..self.close
    }
}

/// The full per-file model.
#[derive(Debug)]
pub struct FileModel {
    /// Repo-relative, `/`-separated path.
    pub path: String,
    /// The loss-free token stream.
    pub tokens: Vec<Token>,
    /// Indices (into `tokens`) of the significant tokens.
    pub sig: Vec<usize>,
    /// Recovered `fn` items, in source order.
    pub items: Vec<Item>,
    /// Raw source lines (for excerpts).
    pub raw_lines: Vec<String>,
    /// Per-line concatenated comment text (pragmas are parsed from it).
    pub comments: Vec<String>,
    /// Per-line: does any code (non-trivia) token start here?
    pub has_code: Vec<bool>,
    /// Per-line `#[cfg(test)]` / `#[test]` region mask.
    pub test_lines: Vec<bool>,
}

impl FileModel {
    /// Builds the model for one file.
    #[must_use]
    pub fn build(rel_path: &str, source: &str) -> FileModel {
        let tokens = lex(source);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_trivia())
            .map(|(i, _)| i)
            .collect();
        let raw_lines: Vec<String> = source.lines().map(str::to_string).collect();
        let line_count = raw_lines.len();

        let mut comments = vec![String::new(); line_count];
        let mut has_code = vec![false; line_count];
        for t in &tokens {
            match t.kind {
                TokenKind::Whitespace => {}
                TokenKind::LineComment | TokenKind::BlockComment => {
                    // A block comment may span lines; attribute each of
                    // its physical lines its share of the text.
                    for (off, part) in t.text.split('\n').enumerate() {
                        if let Some(slot) = comments.get_mut(t.line - 1 + off) {
                            slot.push_str(part);
                        }
                    }
                }
                _ => {
                    if let Some(slot) = has_code.get_mut(t.line - 1) {
                        *slot = true;
                    }
                }
            }
        }

        let mut model = FileModel {
            path: rel_path.to_string(),
            tokens,
            sig,
            items: Vec::new(),
            raw_lines,
            comments,
            has_code,
            test_lines: vec![false; line_count],
        };
        model.items = recover_items(&model);
        model.test_lines = test_region_lines(&model);
        model
    }

    /// The `k`-th significant token.
    #[must_use]
    pub fn tok(&self, k: usize) -> &Token {
        &self.tokens[self.sig[k]]
    }

    /// Number of significant tokens.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sig.len()
    }

    /// Is the model empty of significant tokens?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sig.is_empty()
    }

    /// Is 1-based `line` inside a test region?
    #[must_use]
    pub fn in_test_region(&self, line: usize) -> bool {
        self.test_lines
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// The trimmed raw text of 1-based `line`, for diagnostics.
    #[must_use]
    pub fn excerpt(&self, line: usize) -> String {
        self.raw_lines
            .get(line.saturating_sub(1))
            .map_or("", |l| l.trim())
            .to_string()
    }
}

/// Scans the significant tokens and recovers `fn` items. `fn` in type
/// position (`fn(usize) -> T`) has no following ident and is skipped.
fn recover_items(m: &FileModel) -> Vec<Item> {
    let mut items = Vec::new();
    for k in 0..m.len() {
        if !m.tok(k).is_ident("fn") || k + 1 >= m.len() || m.tok(k + 1).kind != TokenKind::Ident {
            continue;
        }
        if let Some((open, close)) = body_of(m, k + 2) {
            items.push(Item {
                name: m.tok(k + 1).text.clone(),
                open,
                close,
            });
        }
    }
    items
}

impl FileModel {
    fn tok_is_punct(&self, k: usize, c: char) -> bool {
        k < self.len() && self.tok(k).is_punct(c)
    }
}

/// From `k`, finds the item's body: scans forward to the first `{` (at
/// paren/bracket depth 0) or to a `;` (no body, e.g. a trait method
/// declaration); then matches braces to the close.
fn body_of(m: &FileModel, mut k: usize) -> Option<(usize, usize)> {
    let mut paren = 0usize;
    while k < m.len() {
        let t = m.tok(k);
        if t.kind == TokenKind::Punct {
            match t.text.as_bytes().first() {
                Some(b'(' | b'[') => paren += 1,
                Some(b')' | b']') => paren = paren.saturating_sub(1),
                Some(b'{') if paren == 0 => {
                    let open = k;
                    let mut depth = 0usize;
                    while k < m.len() {
                        if m.tok_is_punct(k, '{') {
                            depth += 1;
                        } else if m.tok_is_punct(k, '}') {
                            depth -= 1;
                            if depth == 0 {
                                return Some((open, k));
                            }
                        }
                        k += 1;
                    }
                    // Unterminated body: close at EOF.
                    return Some((open, m.len().saturating_sub(1)));
                }
                Some(b';') if paren == 0 => return None,
                _ => {}
            }
        }
        k += 1;
    }
    None
}

/// Computes the per-line test-region mask from the token stream: a
/// `#[cfg(test)]` or `#[test]` attribute marks its own line and the
/// braced item it introduces (attributes over un-braced statements mark
/// only themselves, mirroring `#[cfg(test)] use …;`).
fn test_region_lines(m: &FileModel) -> Vec<bool> {
    let mut mask = vec![false; m.raw_lines.len()];
    let mut mark = |line: usize| {
        if let Some(slot) = mask.get_mut(line.saturating_sub(1)) {
            *slot = true;
        }
    };

    let mut depth = 0usize;
    let mut pending = false;
    let mut region: Option<usize> = None; // brace depth the region opened at
    let mut k = 0;
    while k < m.len() {
        let t = m.tok(k);
        if t.is_punct('#') && m.tok_is_punct(k + 1, '[') {
            if let Some((is_test, end)) = test_attribute(m, k + 1) {
                if is_test {
                    pending = true;
                    for j in k..=end {
                        mark(m.tok(j).line);
                    }
                }
                k = end + 1;
                continue;
            }
        }
        if region.is_some() {
            mark(t.line);
        }
        if t.kind == TokenKind::Punct {
            match t.text.as_bytes().first() {
                Some(b'{') => {
                    if pending {
                        if region.is_none() {
                            region = Some(depth);
                            mark(t.line);
                        }
                        pending = false;
                    }
                    depth += 1;
                }
                Some(b'}') => {
                    depth = depth.saturating_sub(1);
                    if region == Some(depth) {
                        region = None;
                        mark(t.line);
                    }
                }
                Some(b';') if pending && region.is_none() => pending = false,
                _ => {}
            }
        } else if pending && region.is_none() {
            // Tokens between the attribute and the item it introduces
            // (the `mod tests` header itself) belong to the region.
            mark(t.line);
        }
        k += 1;
    }
    mask
}

/// At the `[` of an attribute: is it `#[test]` / `#[cfg(test)]`-like
/// (contains `test`, not under `not(…)`)? Returns the classification
/// and the significant index of the closing `]`.
fn test_attribute(m: &FileModel, open: usize) -> Option<(bool, usize)> {
    let mut k = open + 1;
    let mut depth = 1usize;
    let mut has_test = false;
    let mut has_not = false;
    while k < m.len() {
        let t = m.tok(k);
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some((has_test && !has_not, k));
            }
        } else if t.is_ident("test") {
            has_test = true;
        } else if t.is_ident("not") {
            has_not = true;
        }
        k += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::build("crates/demo/src/lib.rs", src)
    }

    #[test]
    fn recovers_fns_with_their_bodies() {
        let m = model(
            "fn free(x: usize) -> usize { x }\n\
             impl Widget { fn area(&self) -> f64 { 0.0 } }\n\
             trait T { fn declared(&self); }\n\
             fn outer() { fn nested() {} }\n\
             type F = fn(usize) -> usize;\n",
        );
        let names: Vec<&str> = m.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["free", "area", "outer", "nested"]);
        let outer = &m.items[2];
        let nested = &m.items[3];
        assert!(outer.body().contains(&nested.open));
    }

    #[test]
    fn test_region_mask_matches_line_semantics() {
        let src = "\
fn lib() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); }
}
fn lib2() {}
";
        let m = model(src);
        let mask: Vec<bool> = (1..=7).map(|l| m.in_test_region(l)).collect();
        assert_eq!(mask, vec![false, true, true, true, true, true, false]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let m = model("#[cfg(not(test))]\nfn shipped() { x.unwrap(); }\n");
        assert!(!m.in_test_region(2));
    }

    #[test]
    fn cfg_test_statement_without_braces_does_not_open_a_region() {
        let m = model("#[cfg(test)]\nuse helpers::t;\nfn lib() {}\n");
        assert!(!m.in_test_region(3));
    }

    #[test]
    fn comments_and_code_channels_split_per_line() {
        let m = model("let x = 1; // tail comment\n/* block\nspans */ code();\n");
        assert!(m.has_code[0] && m.comments[0].contains("tail comment"));
        assert!(!m.has_code[1] && m.comments[1].contains("block"));
        assert!(m.has_code[2] && m.comments[2].contains("spans */"));
    }
}
