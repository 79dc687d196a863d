//! A conservative intra-crate call-graph approximation.
//!
//! Nodes are the `fn` items recovered by the scope model across every
//! file of one crate; edges are *name-resolved*: a call expression
//! `foo(…)`, `path::to::foo(…)` or `recv.foo(…)` adds an edge to every
//! fn named `foo` in the crate. That over-approximates dispatch (two
//! same-named methods on different types merge) and under-approximates
//! cross-crate calls (callees defined elsewhere are dangling names) —
//! both deliberate: the graph only feeds *reachability* queries for the
//! deadline rule (L9), where merging same-named fns errs toward
//! checking more loops and dangling names simply terminate the walk.
//!
//! Macro invocations (`name!(…)`) and bare keywords are never calls.

use crate::lex::TokenKind;
use crate::model::FileModel;
use std::collections::{BTreeMap, BTreeSet};

/// Control-flow and expression keywords that look like calls when
/// followed by `(`.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "move", "in", "as", "where", "impl", "dyn", "ref", "mut", "pub", "use", "mod", "struct",
    "enum", "trait", "type", "const", "static", "unsafe", "async", "await", "crate", "super",
    "self", "Self",
];

/// One fn in the graph.
#[derive(Debug)]
pub struct FnNode {
    /// The fn's name (not path-qualified; resolution is by name).
    pub name: String,
    /// Index of the owning [`FileModel`] in the slice the graph was
    /// built from.
    pub file: usize,
    /// Index of the item within that file's `items`.
    pub item: usize,
    /// Names this fn's body calls.
    pub calls: BTreeSet<String>,
}

/// The per-crate call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All fn nodes.
    pub fns: Vec<FnNode>,
    /// Name → indices into `fns`.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph over the given files (one crate's worth).
    #[must_use]
    pub fn build(files: &[&FileModel]) -> CallGraph {
        let mut graph = CallGraph::default();
        for (fi, m) in files.iter().enumerate() {
            for (ii, item) in m.items.iter().enumerate() {
                let mut calls = BTreeSet::new();
                for k in item.body() {
                    if let Some(name) = call_at(m, k) {
                        calls.insert(name);
                    }
                }
                let idx = graph.fns.len();
                graph.fns.push(FnNode {
                    name: item.name.clone(),
                    file: fi,
                    item: ii,
                    calls,
                });
                graph
                    .by_name
                    .entry(item.name.clone())
                    .or_default()
                    .push(idx);
            }
        }
        graph
    }

    /// Indices of every fn reachable (inclusively) from fns whose name
    /// satisfies `root`.
    #[must_use]
    pub fn reachable_from<F: Fn(&str) -> bool>(&self, root: F) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = self
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| root(&f.name))
            .map(|(i, _)| i)
            .collect();
        let mut frontier: Vec<usize> = seen.iter().copied().collect();
        while let Some(i) = frontier.pop() {
            for callee in &self.fns[i].calls {
                for &j in self.by_name.get(callee).into_iter().flatten() {
                    if seen.insert(j) {
                        frontier.push(j);
                    }
                }
            }
        }
        seen
    }

    /// Indices of every fn that (transitively) satisfies `evidence` —
    /// either directly or by calling a fn that does. Used for "does
    /// this loop body reach a deadline check".
    #[must_use]
    pub fn providers<F: Fn(&FnNode) -> bool>(&self, evidence: F) -> BTreeSet<String> {
        let mut names: BTreeSet<String> = self
            .fns
            .iter()
            .filter(|f| evidence(f))
            .map(|f| f.name.clone())
            .collect();
        // Fixpoint: a fn calling a provider is a provider.
        loop {
            let mut grew = false;
            for f in &self.fns {
                if !names.contains(&f.name) && f.calls.iter().any(|c| names.contains(c)) {
                    names.insert(f.name.clone());
                    grew = true;
                }
            }
            if !grew {
                return names;
            }
        }
    }
}

/// If significant-token `k` is the name of a call expression, returns
/// the called name.
pub fn call_at(m: &FileModel, k: usize) -> Option<String> {
    let t = m.tok(k);
    if t.kind != TokenKind::Ident || KEYWORDS.contains(&t.text.as_str()) {
        return None;
    }
    // Must be followed by `(` — macros (`name!(`) and plain paths are
    // not calls. Turbofish (`name::<T>(`) is close enough to skip.
    if k + 1 >= m.len() || !m.tok(k + 1).is_punct('(') {
        return None;
    }
    // `fn name(` is a definition, not a call.
    if k > 0 && m.tok(k - 1).is_ident("fn") {
        return None;
    }
    Some(t.text.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> CallGraph {
        let m = FileModel::build("crates/demo/src/lib.rs", src);
        CallGraph::build(&[&m])
    }

    #[test]
    fn calls_resolve_by_name_and_reachability_walks() {
        let g = graph(
            "fn synthesize() { stage_a(); }\n\
             fn stage_a() { helper.run(); stage_b(); }\n\
             fn stage_b() { leaf(); }\n\
             fn leaf() {}\n\
             fn unrelated() { leaf(); }\n",
        );
        let reach = g.reachable_from(|n| n == "synthesize");
        let names: Vec<&str> = reach.iter().map(|&i| g.fns[i].name.as_str()).collect();
        assert_eq!(names, vec!["synthesize", "stage_a", "stage_b", "leaf"]);
    }

    #[test]
    fn macros_and_definitions_are_not_calls() {
        let g = graph("fn f() { println!(\"x\"); vec![1]; g(); }\nfn g() {}\n");
        let f = g.fns.iter().find(|n| n.name == "f").expect("fn f");
        assert!(f.calls.contains("g"));
        assert!(!f.calls.contains("println"));
        assert!(!f.calls.contains("vec"));
    }

    #[test]
    fn providers_close_over_callers() {
        let g = graph(
            "fn checks() { ctx.check_deadline(); }\n\
             fn wraps() { checks(); }\n\
             fn plain() {}\n",
        );
        let providers = g.providers(|f| f.calls.contains("check_deadline"));
        assert!(providers.contains("checks"));
        assert!(providers.contains("wraps"));
        assert!(!providers.contains("plain"));
    }
}
