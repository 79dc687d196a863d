//! Work-sharing parallel branch-and-bound.
//!
//! The open-node pool ([`BinaryHeap`] with the same fixed
//! `(bound, depth, id)` ordering as the serial search) lives behind one
//! mutex together with the incumbent and the search counters. Workers pop
//! a node, solve its LP relaxation *outside* the lock — each worker owns a
//! reusable [`crate::simplex::SimplexWorkspace`], so the tableau is allocated once per
//! thread, not once per node — and re-lock only to apply the outcome.
//!
//! The incumbent objective is mirrored into an [`AtomicU64`] (its `f64`
//! bit pattern) so a worker about to start an LP solve can read the
//! freshest bound without touching the mutex. The mirror only ever
//! decreases; a stale read merely prunes less, never incorrectly.
//!
//! Termination: the search is over when the pool is empty *and* no worker
//! is mid-evaluation (`in_flight == 0`) — an in-flight node may still
//! push children. Workers with nothing to do park on a [`Condvar`].
//!
//! In deterministic mode (the default) every child goes through the
//! shared pool, so the set of explored subtrees is governed purely by
//! bounds and the search provably returns the serial objective whenever
//! it runs to completion. With `deterministic = false` each worker keeps
//! the down-child of a branching local and dives on it (plunging), which
//! reduces pool contention at the cost of departing from global
//! best-first order.

use crate::branch_bound::{
    evaluate_node, make_children, Node, NodeOutcome, RootRecord, SearchCtx, SearchEnd, SolveStats,
    WorkerScratch,
};
use crate::model::ModelError;
use crate::simplex::LpStatus;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Resolves a worker budget: `0` means one worker per available core,
/// anything else is taken literally. This module is the only place in
/// `milp-solver` allowed to probe machine parallelism — callers outside
/// the solver route their budgets through `onoc-ctx` instead.
pub(crate) fn resolve_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// Mutable search state shared by every worker.
struct SearchState {
    heap: BinaryHeap<Node>,
    next_seq: usize,
    incumbent: Option<(f64, Vec<f64>)>,
    /// Nodes currently being evaluated by some worker.
    in_flight: usize,
    nodes_explored: usize,
    limit_hit: bool,
    /// Minimum bound over subtrees dropped without exploration (LP
    /// trouble, gap-based early stopping).
    lost_bound: f64,
    root_unbounded: bool,
    root_iteration_limit: bool,
    done: bool,
    /// Per-worker LP/pivot counters, merged in as each worker exits.
    stats: SolveStats,
    /// The root node's optimal basis, captured by whichever worker
    /// branched at depth 0 (see `MilpSolution::root_basis`).
    root_basis: Option<std::sync::Arc<crate::simplex::Basis>>,
    /// The cold root's LP results, handed over by the worker that
    /// evaluated the root.
    root_record: RootRecord,
}

struct Shared {
    state: Mutex<SearchState>,
    cvar: Condvar,
    /// Bit pattern of the incumbent objective (`f64::INFINITY` when none):
    /// the lock-free pruning mirror.
    best_obj_bits: AtomicU64,
}

impl Shared {
    fn load_incumbent_obj(&self) -> Option<f64> {
        let obj = f64::from_bits(self.best_obj_bits.load(Ordering::Acquire));
        obj.is_finite().then_some(obj)
    }
}

/// Why a popped (or locally held) node is being discarded unexplored.
enum Drop {
    /// Bound within `1e-9` of the incumbent: cannot meaningfully improve.
    /// Not folded into the reported bound (same tolerance the serial
    /// search accepts when it stops on a pruned pool top).
    Prune,
    /// Within the requested relative gap: intentionally left open, so its
    /// bound must weaken the reported one.
    Gap,
}

fn drop_reason(state: &SearchState, ctx: &SearchCtx<'_>, node: &Node) -> Option<Drop> {
    let (inc_obj, _) = state.incumbent.as_ref()?;
    if node.bound >= *inc_obj - 1e-9 {
        return Some(Drop::Prune);
    }
    if *inc_obj - node.bound <= ctx.options.relative_gap * inc_obj.abs().max(1.0) + 1e-9 {
        return Some(Drop::Gap);
    }
    None
}

pub(crate) fn search(
    ctx: &SearchCtx<'_>,
    root: Node,
    incumbent: Option<(f64, Vec<f64>)>,
    threads: usize,
) -> Result<SearchEnd, ModelError> {
    let mut heap = BinaryHeap::new();
    let next_seq = root.seq;
    heap.push(root);
    let best_bits = incumbent
        .as_ref()
        .map_or(f64::INFINITY, |(obj, _)| *obj)
        .to_bits();
    let shared = Shared {
        state: Mutex::new(SearchState {
            heap,
            next_seq,
            incumbent,
            in_flight: 0,
            nodes_explored: 0,
            limit_hit: false,
            lost_bound: f64::INFINITY,
            root_unbounded: false,
            root_iteration_limit: false,
            done: false,
            stats: SolveStats::default(),
            root_basis: None,
            root_record: RootRecord::default(),
        }),
        cvar: Condvar::new(),
        best_obj_bits: AtomicU64::new(best_bits),
    };

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| worker(ctx, &shared));
        }
    });

    // A worker panic would normally re-raise through the scope above; a
    // poisoned state reached without one still must not panic here — it
    // surfaces as a typed solver error instead.
    let state = shared
        .state
        .into_inner()
        .map_err(|_| ModelError::PoisonedLock)?;
    let open_bound = state
        .heap
        .peek()
        .map_or(f64::INFINITY, |n| n.bound)
        .min(state.lost_bound);
    Ok(SearchEnd {
        incumbent: state.incumbent,
        open_bound,
        limit_hit: state.limit_hit,
        nodes_explored: state.nodes_explored,
        root_unbounded: state.root_unbounded,
        root_iteration_limit: state.root_iteration_limit,
        stats: state.stats,
        root_basis: state.root_basis,
        root_record: state.root_record,
    })
}

fn worker(ctx: &SearchCtx<'_>, shared: &Shared) {
    let mut scratch = WorkerScratch::new();
    // The node this worker is diving on (plunging mode only). Invariant:
    // while `local` is `Some`, this worker is counted in `in_flight`.
    let mut local: Option<Node> = None;

    'outer: loop {
        // Acquire a node to evaluate. A poisoned lock means another
        // worker panicked; this worker stops contributing and lets the
        // scope join surface the original panic (or `search` report the
        // poisoning as a typed error).
        let node = {
            let Ok(mut state) = shared.state.lock() else {
                return;
            };
            loop {
                if let Some(node) = local.take() {
                    // A locally held dive node: re-check against the
                    // (possibly improved) incumbent and the limits before
                    // committing more work to it.
                    if state.done {
                        state.heap.push(node);
                        state.in_flight -= 1;
                        shared.cvar.notify_all();
                        break 'outer;
                    }
                    match drop_reason(&state, ctx, &node) {
                        Some(Drop::Prune) => {
                            state.in_flight -= 1;
                            finish_if_idle(&mut state, shared);
                            continue;
                        }
                        Some(Drop::Gap) => {
                            state.lost_bound = state.lost_bound.min(node.bound);
                            state.in_flight -= 1;
                            finish_if_idle(&mut state, shared);
                            continue;
                        }
                        None => {}
                    }
                    if ctx.time_limit_reached() || ctx.node_limit_reached(state.nodes_explored) {
                        state.limit_hit = true;
                        state.heap.push(node);
                        state.in_flight -= 1;
                        state.done = true;
                        shared.cvar.notify_all();
                        break 'outer;
                    }
                    state.nodes_explored += 1;
                    break node;
                }
                if state.done {
                    break 'outer;
                }
                if let Some(node) = state.heap.pop() {
                    match drop_reason(&state, ctx, &node) {
                        Some(Drop::Prune) => continue,
                        Some(Drop::Gap) => {
                            state.lost_bound = state.lost_bound.min(node.bound);
                            continue;
                        }
                        None => {}
                    }
                    if ctx.time_limit_reached() || ctx.node_limit_reached(state.nodes_explored) {
                        state.limit_hit = true;
                        state.heap.push(node);
                        state.done = true;
                        shared.cvar.notify_all();
                        break 'outer;
                    }
                    state.nodes_explored += 1;
                    state.in_flight += 1;
                    break node;
                }
                if state.in_flight == 0 {
                    state.done = true;
                    shared.cvar.notify_all();
                    break 'outer;
                }
                state = match shared.cvar.wait(state) {
                    Ok(state) => state,
                    Err(_) => return,
                };
            }
        };

        // The expensive part, outside the lock: the freshest incumbent
        // bound comes from the atomic mirror, not the mutex.
        let inc_obj = shared.load_incumbent_obj();
        let outcome = evaluate_node(ctx, &node, inc_obj, &mut scratch);

        let Ok(mut state) = shared.state.lock() else {
            return;
        };
        match outcome {
            NodeOutcome::Infeasible => {}
            NodeOutcome::LpTrouble(status) => {
                if node.depth == 0 && status == LpStatus::IterationLimit {
                    state.root_iteration_limit = true;
                    state.done = true;
                } else {
                    state.limit_hit = true;
                    state.lost_bound = state.lost_bound.min(node.bound);
                }
            }
            NodeOutcome::Unbounded => {
                if node.depth == 0 {
                    state.root_unbounded = true;
                    state.done = true;
                } else {
                    state.limit_hit = true;
                    state.lost_bound = state.lost_bound.min(node.bound);
                }
            }
            NodeOutcome::PrunedByBound => {}
            NodeOutcome::Integral { obj, values } => {
                let better = match &state.incumbent {
                    None => true,
                    Some((inc_obj, _)) => obj < *inc_obj - 1e-12,
                };
                if better {
                    state.incumbent = Some((obj, values));
                    shared.best_obj_bits.store(obj.to_bits(), Ordering::Release);
                }
            }
            NodeOutcome::Branched(branch) => {
                if node.depth == 0 {
                    state.root_basis.clone_from(&branch.basis);
                }
                let (down, up) = make_children(&node, branch, &scratch, &mut state.next_seq);
                if let Some(child) = up {
                    state.heap.push(child);
                }
                if let Some(child) = down {
                    if ctx.options.deterministic || state.done {
                        state.heap.push(child);
                    } else {
                        // Plunge: dive on the down child without going
                        // through the pool; `in_flight` stays held.
                        local = Some(child);
                    }
                }
            }
        }
        if local.is_none() {
            state.in_flight -= 1;
        }
        finish_if_idle(&mut state, shared);
    }

    // Fold this worker's counters into the shared totals exactly once, on
    // the way out — stats never influence the search, so a final merge is
    // enough and keeps the per-node lock sections small. Counters are
    // best-effort under poisoning: the search result itself is already
    // condemned by the originating panic.
    if let Ok(mut state) = shared.state.lock() {
        state.stats.merge(&scratch.stats);
        if !scratch.root.is_empty() {
            state.root_record = scratch.root;
        }
    }
}

fn finish_if_idle(state: &mut SearchState, shared: &Shared) {
    if state.heap.is_empty() && state.in_flight == 0 {
        state.done = true;
    }
    shared.cvar.notify_all();
}
