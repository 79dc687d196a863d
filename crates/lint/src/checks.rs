//! Token-pattern detectors for the lexical rules (L2–L4) and the
//! `Persist` symmetry rule (L10).
//!
//! Detectors run on a [`FileModel`] and return *raw* findings — rule
//! applicability (file kind, test regions, per-rule path allowlists)
//! and pragma suppression are applied centrally by [`crate::check_source`]
//! and [`crate::run`].

use crate::lex::TokenKind;
use crate::model::{FileModel, Item, ItemKind};
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

impl RawFinding {
    fn new(line: usize, rule: Rule) -> RawFinding {
        RawFinding {
            line,
            rule,
            note: None,
        }
    }

    fn with_note(line: usize, rule: Rule, note: String) -> RawFinding {
        RawFinding {
            line,
            rule,
            note: Some(note),
        }
    }
}

/// Runs every per-file token check.
#[must_use]
pub fn check_file(m: &FileModel) -> Vec<RawFinding> {
    let mut out = Vec::new();
    lexical_rules(m, &mut out);
    persist_symmetry(m, &mut out);
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

/// L2–L4: straight token patterns.
fn lexical_rules(m: &FileModel, out: &mut Vec<RawFinding>) {
    // Index of the `)` closing the `thread::scope(…)` calls seen so far:
    // a `.spawn(` before it is a scoped spawn.
    let mut scope_end = 0;
    for k in 0..m.len() {
        let t = m.tok(k);
        if t.kind != TokenKind::Ident {
            continue;
        }
        let line = t.line;
        let after_path = |seg: &str| {
            k >= 3
                && punct_at(m, k - 1, ':')
                && punct_at(m, k - 2, ':')
                && m.tok(k - 3).is_ident(seg)
        };
        match t.text.as_str() {
            // `.partial_cmp(` or `f64::partial_cmp` as a value.
            "partial_cmp" => {
                let method = punct_at(m, k.wrapping_sub(1), '.');
                let path = k >= 2 && punct_at(m, k - 1, ':') && punct_at(m, k - 2, ':');
                if method || path {
                    out.push(RawFinding::new(line, Rule::L2));
                }
            }
            // `thread::spawn`, `available_parallelism`, and `s.spawn(`
            // inside a `thread::scope(…)` call.
            "spawn" if after_path("thread") => out.push(RawFinding::new(line, Rule::L3)),
            "spawn" if k < scope_end && punct_at(m, k - 1, '.') && punct_at(m, k + 1, '(') => {
                out.push(RawFinding::new(line, Rule::L3));
            }
            "scope" if after_path("thread") && punct_at(m, k + 1, '(') => {
                scope_end = scope_end.max(matching_paren(m, k + 1));
            }
            "available_parallelism" => out.push(RawFinding::new(line, Rule::L3)),
            // `Instant::now`.
            "now" if after_path("Instant") => out.push(RawFinding::new(line, Rule::L4)),
            _ => {}
        }
    }
}

fn punct_at(m: &FileModel, k: usize, c: char) -> bool {
    k < m.len() && m.tok(k).is_punct(c)
}

/// The index of the `)` matching the `(` at `open`, or the token count
/// if the file ends first.
fn matching_paren(m: &FileModel, open: usize) -> usize {
    let mut depth = 0usize;
    for k in open..m.len() {
        if m.tok(k).is_punct('(') {
            depth += 1;
        } else if m.tok(k).is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    m.len()
}

/// L10: for every `impl Persist for T`, the persist body's field
/// sequence must re-appear, same names and same relative order, in the
/// restore body.
fn persist_symmetry(m: &FileModel, out: &mut Vec<RawFinding>) {
    for item in &m.items {
        if item.kind != ItemKind::Impl || item.trait_name.as_deref() != Some("Persist") {
            continue;
        }
        let persist_fn = method_of(m, item, "persist");
        let restore_fn = method_of(m, item, "restore");
        let (Some(p), Some(r)) = (persist_fn, restore_fn) else {
            continue; // partial impls don't typecheck anyway
        };
        let Some(encode_seq) = persisted_fields(m, p) else {
            continue; // enum / tuple-struct / primitive impl: no named fields
        };
        let decode_seq = restored_order(m, r, &encode_seq);

        let missing: Vec<&String> = encode_seq
            .iter()
            .filter(|f| !decode_seq.contains(f))
            .collect();
        if !missing.is_empty() {
            let list: Vec<&str> = missing.iter().map(|s| s.as_str()).collect();
            out.push(RawFinding::with_note(
                item.line,
                Rule::L10,
                format!(
                    "impl Persist for {}: persist writes `{}` but restore never reads it",
                    item.name,
                    list.join("`, `"),
                ),
            ));
            continue;
        }
        let expected: Vec<&String> = encode_seq.iter().collect();
        let actual: Vec<&String> = decode_seq.iter().collect();
        if expected != actual {
            out.push(RawFinding::with_note(
                item.line,
                Rule::L10,
                format!(
                    "impl Persist for {}: restore reads fields as [{}] but persist writes [{}]",
                    item.name,
                    actual
                        .iter()
                        .map(|s| s.as_str())
                        .collect::<Vec<_>>()
                        .join(", "),
                    expected
                        .iter()
                        .map(|s| s.as_str())
                        .collect::<Vec<_>>()
                        .join(", "),
                ),
            ));
        }
    }
}

/// The `fn name` item nested inside `item`'s body.
fn method_of<'m>(m: &'m FileModel, item: &Item, name: &str) -> Option<&'m Item> {
    m.items
        .iter()
        .filter(|f| f.kind == ItemKind::Fn && f.name == name)
        .find(|f| item.contains(f.open))
}

/// The ordered field names the persist body writes. `None` when the
/// body has no named-field evidence (no `self` destructure and no
/// `self.field` use).
fn persisted_fields(m: &FileModel, persist_fn: &Item) -> Option<Vec<String>> {
    let body = persist_fn.body();
    // `let Type { a, b: alias, .. } = self;` — alias → field map.
    let mut fields: Vec<(String, String)> = Vec::new(); // (field, binding)
    let mut after_destructure = body.start;
    'outer: for k in body.clone() {
        if !m.tok(k).is_ident("let") || k + 2 >= m.len() {
            continue;
        }
        if m.tok(k + 1).kind != TokenKind::Ident || !punct_at(m, k + 2, '{') {
            continue;
        }
        // Parse the brace list, then require `= self ;` after it.
        let mut j = k + 3;
        let mut parsed: Vec<(String, String)> = Vec::new();
        while j < body.end {
            let t = m.tok(j);
            if t.is_punct('}') {
                if punct_at(m, j + 1, '=') && m.tok_in(j + 2, "self") && punct_at(m, j + 3, ';') {
                    fields = parsed;
                    after_destructure = j + 4;
                    break 'outer;
                }
                continue 'outer;
            }
            if t.kind == TokenKind::Ident {
                let field = t.text.clone();
                if punct_at(m, j + 1, ':') && j + 2 < body.end {
                    parsed.push((field, m.tok(j + 2).text.clone()));
                    j += 3;
                } else {
                    parsed.push((field.clone(), field));
                    j += 1;
                }
                continue;
            }
            j += 1; // `,`, `..`, etc.
        }
        break;
    }

    // Order of first use of each destructured binding after the
    // destructure, plus `self.field` accesses; unused destructured
    // fields keep declaration order at the end.
    let mut seq: Vec<String> = Vec::new();
    for k in after_destructure..persist_fn.close {
        let t = m.tok(k);
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `self.field` — but not `self.method()` calls.
        if k >= 2 && punct_at(m, k - 1, '.') && m.tok(k - 2).is_ident("self") {
            if !punct_at(m, k + 1, '(') && !seq.contains(&t.text) {
                seq.push(t.text.clone());
            }
            continue;
        }
        // A destructured binding used bare (not as someone's `.field`).
        if punct_at(m, k.wrapping_sub(1), '.') {
            continue;
        }
        if let Some((field, _)) = fields.iter().find(|(_, b)| *b == t.text) {
            if !seq.contains(field) {
                seq.push(field.clone());
            }
        }
    }
    for (field, _) in &fields {
        if !seq.contains(field) {
            seq.push(field.clone());
        }
    }
    if seq.is_empty() {
        None
    } else {
        Some(seq)
    }
}

/// First-occurrence order of the persisted field names in the restore
/// body (idents not reached through a `.`, so `other.field` accesses
/// don't count).
fn restored_order(m: &FileModel, restore_fn: &Item, encode_seq: &[String]) -> Vec<String> {
    let mut seq: Vec<String> = Vec::new();
    for k in restore_fn.body() {
        let t = m.tok(k);
        if t.kind != TokenKind::Ident || punct_at(m, k.wrapping_sub(1), '.') {
            continue;
        }
        if encode_seq.contains(&t.text) && !seq.contains(&t.text) {
            seq.push(t.text.clone());
        }
    }
    seq
}

impl FileModel {
    fn tok_in(&self, k: usize, s: &str) -> bool {
        k < self.len() && self.tok(k).is_ident(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(src: &str) -> Vec<(usize, Rule)> {
        let m = FileModel::build("crates/core/src/demo.rs", src);
        check_file(&m)
            .into_iter()
            .map(|f| (f.line, f.rule))
            .collect()
    }

    #[test]
    fn partial_cmp_calls_hit_but_definitions_do_not() {
        assert_eq!(raw("fn f() { a.partial_cmp(&b); }"), vec![(1, Rule::L2)]);
        assert_eq!(
            raw("fn f() { xs.sort_by(f64::partial_cmp); }"),
            vec![(1, Rule::L2)]
        );
        assert!(raw("fn partial_cmp(a: &F, b: &F) -> Option<Ordering> { None }").is_empty());
    }

    #[test]
    fn unwrap_or_and_strings_are_not_flagged() {
        // clippy owns unwrap/expect, so no token rule reports any unwrap
        // form; rule tokens inside strings and comments never hit.
        assert!(raw(
            "fn f() { x.unwrap(); x.unwrap_or(0); x.unwrap_or_else(|| 0); x.expect(\"\"); }"
        )
        .is_empty());
        assert!(raw("fn f() { log(\"do not .unwrap() here\"); } // .unwrap()").is_empty());
        assert!(raw("fn f() { log(\"a.partial_cmp(&b)\"); } // a.partial_cmp(&b)").is_empty());
        assert!(raw("fn f() { log(\"Instant::now()\"); } /* thread::spawn */").is_empty());
    }

    #[test]
    fn thread_instant_and_scoped_spawn_patterns() {
        assert_eq!(
            raw("fn f() { std::thread::spawn(move || {}); }"),
            vec![(1, Rule::L3)]
        );
        assert_eq!(
            raw("fn f() { thread::available_parallelism(); }"),
            vec![(1, Rule::L3)]
        );
        assert_eq!(
            raw("fn f() { let t0 = Instant::now(); }"),
            vec![(1, Rule::L4)]
        );
        let scoped = "\
fn f() {
    std::thread::scope(|scope| {
        let h = scope.spawn(|| 1);
        h.join()
    });
    child.spawn();
}
";
        assert_eq!(raw(scoped), vec![(3, Rule::L3)]);
    }

    #[test]
    fn l10_symmetric_impl_is_clean() {
        let src = "\
impl Persist for Point {
    fn persist(&self, enc: &mut Encoder) {
        let Point { x, y } = self;
        enc.put_f64(*x);
        enc.put_f64(*y);
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let x = dec.take_f64()?;
        let y = dec.take_f64()?;
        Ok(Point { x, y })
    }
}
";
        assert!(raw(src).is_empty());
    }

    #[test]
    fn l10_missing_and_misordered_fields_are_found() {
        let missing = "\
impl Persist for Point {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_f64(self.x);
        enc.put_f64(self.y);
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let x = dec.take_f64()?;
        let mut p = Point::zero();
        p.x = x;
        Ok(p)
    }
}
";
        let swapped = "\
impl Persist for Point {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_f64(self.x);
        enc.put_f64(self.y);
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let y = dec.take_f64()?;
        let x = dec.take_f64()?;
        Ok(Point { x, y })
    }
}
";
        assert_eq!(raw(missing), vec![(1, Rule::L10)]);
        assert_eq!(raw(swapped), vec![(1, Rule::L10)]);
    }

    #[test]
    fn l10_enum_impls_are_skipped() {
        let src = "\
impl Persist for Tag {
    fn persist(&self, enc: &mut Encoder) {
        match self {
            Tag::A => enc.put_u8(0),
            Tag::B => enc.put_u8(1),
        }
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.take_u8()? {
            0 => Ok(Tag::A),
            _ => Ok(Tag::B),
        }
    }
}
";
        assert!(raw(src).is_empty());
    }
}
