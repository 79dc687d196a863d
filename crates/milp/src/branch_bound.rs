//! Branch-and-bound search over the LP relaxation.
//!
//! The model is presolved first (see the [`presolve`](mod@crate::presolve)
//! module); the search then runs on the reduced model. Best-first node
//! selection (smallest LP bound first), pseudocost product-rule branching
//! with root strong branching, parent-basis inheritance, optional
//! warm-start incumbent, wall-clock and node limits. The search is
//! *anytime*: hitting a limit returns the incumbent and the proven global
//! bound with [`Status::Feasible`]. The wall-clock deadline reaches into
//! the simplex itself (see [`crate::simplex::solve_lp`]), so a single
//! long LP relaxation cannot blow the budget.

use crate::model::{Model, ModelError, VarType};
use crate::simplex::{solve_lp, Basis, LpProblem, LpResult, LpRow, LpStatus, SimplexWorkspace};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const INT_TOL: f64 = 1e-6;

/// Strong-branch candidate cap at the root node: both child LPs of this
/// many best-ranked fractional variables are solved before the first
/// branch is committed (see [`evaluate_node`]).
const STRONG_BRANCH_CANDIDATES: usize = 24;

/// Options controlling the branch-and-bound search.
#[derive(Debug, Clone, Default)]
pub struct SolveOptions {
    /// Wall-clock budget; `None` means unlimited.
    pub time_limit: Option<Duration>,
    /// Maximum number of explored nodes; `None` means unlimited.
    pub node_limit: Option<usize>,
    /// A feasible starting assignment (one value per variable). If it
    /// validates against the model it becomes the initial incumbent,
    /// letting the search prune from the start.
    pub warm_start: Option<Vec<f64>>,
}

impl SolveOptions {
    /// Unlimited search to proven optimality.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a wall-clock budget.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Sets a node budget.
    #[must_use]
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Supplies a warm-start assignment.
    #[must_use]
    pub fn with_warm_start(mut self, values: Vec<f64>) -> Self {
        self.warm_start = Some(values);
        self
    }
}

/// How the search ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The incumbent is proven optimal (within the requested gap).
    Optimal,
    /// A limit was reached; the incumbent is feasible but not proven
    /// optimal.
    Feasible,
}

/// Aggregate solver statistics for one MILP solve.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Branch-and-bound nodes whose LP relaxation was solved.
    pub nodes_explored: usize,
    /// LP relaxation solves: one per explored node plus the root's
    /// strong-branch probes, less the LPs counted in `lp_reused`.
    pub lp_solves: usize,
    /// LPs taken from an earlier solve of exactly the same call instead
    /// of solving again: a root child whose LP root strong branching
    /// already solved. They add no pivots and no LP time.
    pub lp_reused: usize,
    /// Primal simplex iterations (pivots and bound flips, both phases)
    /// across all node LPs.
    pub primal_pivots: usize,
    /// Dual simplex iterations (pivots and bound flips) across all node
    /// LPs.
    pub dual_pivots: usize,
    /// Node LPs that needed a phase-1 (artificial-variable) cold start.
    pub phase1_solves: usize,
    /// Node LPs that arrived with an inherited parent basis.
    pub warm_start_attempts: usize,
    /// Warm-start attempts that finished on the dual-simplex path — no
    /// phase-1, no cold start.
    pub warm_start_hits: usize,
    /// Variables fixed (and hence eliminated from the search) by the
    /// presolve's empty/dominated-column pass.
    pub presolve_cols_removed: usize,
    /// Basis LU factorizations across all node LPs (sparse engine;
    /// initial factorizations plus refactorizations on eta-chain length,
    /// tiny eta pivots, or drift).
    pub refactorizations: usize,
    /// Product-form eta updates appended across all node LPs (sparse
    /// engine).
    pub eta_updates: usize,
    /// Longest eta chain any node LP reached before refactorizing
    /// (sparse engine).
    pub max_eta_chain: usize,
    /// Peak LU fill-in any node LP saw: nonzeros in `L + U` beyond the
    /// basis matrix's own (sparse engine).
    pub max_fill_in: usize,
    /// Explored nodes bucketed by tree depth (`nodes_by_depth[d]` =
    /// nodes at depth `d`); sums to `nodes_explored`.
    pub nodes_by_depth: Vec<usize>,
    /// Wall-clock spent in node LPs that re-optimized on the warm
    /// dual-simplex path.
    pub time_in_dual: Duration,
    /// Wall-clock spent in node LPs that went through the (cold)
    /// two-phase primal path.
    pub time_in_primal: Duration,
    /// Wall-clock of the presolve reductions.
    pub presolve_time: Duration,
    /// Wall-clock of the whole solve, presolve included.
    pub solve_time: Duration,
}

impl SolveStats {
    /// Total simplex iterations, primal and dual.
    #[must_use]
    pub fn total_pivots(&self) -> usize {
        self.primal_pivots + self.dual_pivots
    }

    /// Fraction of warm-start attempts that re-optimized via the dual
    /// simplex (0 when no attempt was made).
    #[must_use]
    pub fn warm_hit_rate(&self) -> f64 {
        if self.warm_start_attempts == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.warm_start_hits as f64 / self.warm_start_attempts as f64
            }
        }
    }

    /// Combined wall-clock of all node LP solves.
    #[must_use]
    pub fn lp_time(&self) -> Duration {
        self.time_in_dual + self.time_in_primal
    }

    /// Wall-clock of the search outside presolve and the node LPs:
    /// branching and bound bookkeeping.
    /// Zero until the solve finishes populating `solve_time`.
    #[must_use]
    pub fn branching_time(&self) -> Duration {
        self.solve_time
            .saturating_sub(self.presolve_time)
            .saturating_sub(self.lp_time())
    }

    /// Deepest tree level any explored node sat at.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.nodes_by_depth.len().saturating_sub(1)
    }

    fn record_lp(
        &mut self,
        result: &crate::simplex::LpResult,
        attempted_warm: bool,
        elapsed: Duration,
    ) {
        self.lp_solves += 1;
        self.primal_pivots += result.pivots;
        self.dual_pivots += result.dual_pivots;
        self.phase1_solves += usize::from(result.phase1);
        self.warm_start_attempts += usize::from(attempted_warm);
        self.warm_start_hits += usize::from(result.warm_used);
        self.refactorizations += result.factor.refactorizations;
        self.eta_updates += result.factor.eta_updates;
        self.max_eta_chain = self.max_eta_chain.max(result.factor.max_eta_chain);
        self.max_fill_in = self.max_fill_in.max(result.factor.max_fill_in);
        // Whole-LP granularity: a warm solve that fell back to the cold
        // path reports `warm_used = false`, so its time (including the
        // abandoned dual attempt) lands in the primal bucket.
        if result.warm_used {
            self.time_in_dual += elapsed;
        } else {
            self.time_in_primal += elapsed;
        }
    }

    fn record_node(&mut self, depth: usize) {
        if self.nodes_by_depth.len() <= depth {
            self.nodes_by_depth.resize(depth + 1, 0);
        }
        self.nodes_by_depth[depth] += 1;
    }
}

/// The result of a MILP solve.
#[derive(Debug, Clone)]
pub struct MilpSolution {
    status: Status,
    objective: f64,
    bound: f64,
    values: Vec<f64>,
    stats: SolveStats,
}

impl MilpSolution {
    /// Whether optimality was proven.
    #[must_use]
    pub fn status(&self) -> Status {
        self.status
    }

    /// Objective value of the incumbent (including any constant term of the
    /// objective expression).
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// The proven global lower bound on the optimum (equals
    /// [`MilpSolution::objective`] when optimal).
    #[must_use]
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// The absolute optimality gap `objective − bound`.
    #[must_use]
    pub fn gap(&self) -> f64 {
        (self.objective - self.bound).max(0.0)
    }

    /// The value of a variable in the incumbent.
    ///
    /// # Panics
    ///
    /// Panics if the variable does not belong to the solved model.
    #[must_use]
    pub fn value(&self, var: crate::expr::Var) -> f64 {
        self.values[var.index()]
    }

    /// The full assignment, indexed by variable index.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of branch-and-bound nodes explored.
    #[must_use]
    pub fn nodes_explored(&self) -> usize {
        self.stats.nodes_explored
    }

    /// Solver statistics: pivot counts, phase-1 solves, warm-start hit
    /// rate (see [`SolveStats`]).
    #[must_use]
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }
}

/// One bound tightening relative to the parent node. Nodes store these as
/// a parent-linked chain (shared via [`Arc`]) instead of full `lower` /
/// `upper` vector clones; [`WorkerScratch`] reconstructs the effective
/// bounds by walking the chain leaf → root over the root bounds.
struct BoundChange {
    var: usize,
    /// `true` tightens the upper bound, `false` the lower.
    is_upper: bool,
    value: f64,
    parent: Option<Arc<BoundChange>>,
}

struct Node {
    bound: f64,
    depth: usize,
    seq: usize,
    /// Bound tightenings accumulated along the path from the root.
    changes: Option<Arc<BoundChange>>,
    /// The parent node's optimal basis, inherited for warm-starting this
    /// node's LP relaxation.
    basis: Option<Arc<Basis>>,
    /// Fractional distance the branching moved this node's variable (`f`
    /// for the down child, `1 − f` for the up child; `0` at the root).
    /// Solving this node's LP attributes `(lp_obj − bound) / frac` to the
    /// branch variable's pseudocost.
    frac: f64,
    /// The result of this node's LP call when a root strong-branch probe
    /// already made it. [`evaluate_node`] takes it instead of solving.
    /// Only [`reusable`] results are carried.
    lp: Option<Arc<LpResult>>,
}

/// Whether an LP result may stand in for a later identical call. A
/// solve is a pure function of its problem, bounds, deadline and warm
/// basis — the workspace it ran on carries nothing over — except that a
/// `TimedOut` (or iteration-capped) result stopped where it did.
fn reusable(result: &LpResult) -> bool {
    matches!(result.status, LpStatus::Optimal | LpStatus::Infeasible)
}

/// Down and up child LP results carried from root strong branching.
type ChildLps = (Option<Arc<LpResult>>, Option<Arc<LpResult>>);

/// Per-variable branching pseudocosts: the running average LP-bound
/// degradation per unit of fractional distance, kept separately for the
/// down and up directions. Variables without observations borrow the
/// direction's global average, and before any observation exists both
/// directions default to the same constant — which makes the product
/// score collapse to `f·(1 − f)`, i.e. plain most-fractional branching.
///
/// The table lives in the search's [`WorkerScratch`], so every solve
/// starts uninformed.
#[derive(Default)]
struct Pseudocosts {
    down_sum: Vec<f64>,
    down_cnt: Vec<u32>,
    up_sum: Vec<f64>,
    up_cnt: Vec<u32>,
    down_total: (f64, u32),
    up_total: (f64, u32),
}

impl Pseudocosts {
    fn ensure(&mut self, n: usize) {
        if self.down_sum.len() < n {
            self.down_sum.resize(n, 0.0);
            self.down_cnt.resize(n, 0);
            self.up_sum.resize(n, 0.0);
            self.up_cnt.resize(n, 0);
        }
    }

    fn observe(&mut self, j: usize, up: bool, per_unit: f64) {
        if up {
            self.up_sum[j] += per_unit;
            self.up_cnt[j] += 1;
            self.up_total.0 += per_unit;
            self.up_total.1 += 1;
        } else {
            self.down_sum[j] += per_unit;
            self.down_cnt[j] += 1;
            self.down_total.0 += per_unit;
            self.down_total.1 += 1;
        }
    }

    /// Per-direction fallback estimates for unobserved variables: the
    /// global average observation, or `1` before any exist.
    fn defaults(&self) -> (f64, f64) {
        let avg = |(sum, cnt): (f64, u32)| if cnt == 0 { 1.0 } else { sum / f64::from(cnt) };
        (avg(self.down_total), avg(self.up_total))
    }

    fn estimate(&self, j: usize, up: bool, default: f64) -> f64 {
        let (sum, cnt) = if up {
            (self.up_sum[j], self.up_cnt[j])
        } else {
            (self.down_sum[j], self.down_cnt[j])
        };
        if cnt == 0 {
            default
        } else {
            sum / f64::from(cnt)
        }
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the *smallest* bound on top,
        // breaking ties toward deeper nodes (diving) and then by the fixed
        // node id (`seq`) — never by anything address-dependent, so the
        // pool order is reproducible.
        // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: a NaN bound
        // under the partial order would compare Equal to every other
        // bound, corrupting the heap invariant and with it the best-first
        // exploration order. Under the total order a NaN bound sorts past
        // +inf — i.e. as the worst possible bound, popped last — and the
        // pool order stays deterministic.
        other
            .bound
            .total_cmp(&self.bound)
            .then_with(|| self.depth.cmp(&other.depth))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

fn build_lp(model: &Model) -> LpProblem {
    let n = model.vars.len();
    let mut cost = vec![0.0; n];
    for (v, c) in model.objective.terms() {
        cost[v.index()] = c;
    }
    let mut lower = Vec::with_capacity(n);
    let mut upper = Vec::with_capacity(n);
    for data in &model.vars {
        // Integer variables get their bounds rounded inward.
        let (l, u) = if data.var_type == VarType::Continuous {
            (data.lower, data.upper)
        } else {
            (
                if data.lower.is_finite() {
                    data.lower.ceil()
                } else {
                    data.lower
                },
                if data.upper.is_finite() {
                    data.upper.floor()
                } else {
                    data.upper
                },
            )
        };
        lower.push(l);
        upper.push(u);
    }
    let rows = model
        .constraints
        .iter()
        .map(|c| LpRow {
            coeffs: c.expr.terms().map(|(v, a)| (v.index(), a)).collect(),
            sense: c.sense,
            rhs: c.rhs,
        })
        .collect();
    LpProblem {
        cost,
        lower,
        upper,
        rows,
    }
}

/// Immutable per-search context.
struct SearchCtx<'a> {
    model: &'a Model,
    lp: &'a LpProblem,
    integer_vars: &'a [usize],
    obj_constant: f64,
    options: &'a SolveOptions,
    start: Instant,
    deadline: Option<Instant>,
}

impl SearchCtx<'_> {
    fn time_limit_reached(&self) -> bool {
        self.options
            .time_limit
            .is_some_and(|limit| self.start.elapsed() >= limit)
    }

    fn node_limit_reached(&self, nodes_explored: usize) -> bool {
        self.options
            .node_limit
            .is_some_and(|limit| nodes_explored >= limit)
    }
}

/// What processing one node produced.
enum NodeOutcome {
    /// The node's LP is infeasible — subtree closed.
    Infeasible,
    /// The node's LP is unbounded (only possible at the root).
    Unbounded,
    /// The LP solve hit its iteration budget or the deadline; the subtree
    /// stays unexplored and must weaken the reported global bound.
    LpTrouble(LpStatus),
    /// The LP optimum is no better than the incumbent — subtree closed.
    PrunedByBound,
    /// The LP optimum is integral: a candidate incumbent (objective
    /// without the model's constant term).
    Integral { obj: f64, values: Vec<f64> },
    /// Fractional optimum: branch as described.
    Branched(Branch),
}

/// A fractional node's branching: on variable `var` at value `x`, handing
/// `basis` down to the children for warm starting, and with it the down
/// and up LP results root strong branching already solved for `var`.
struct Branch {
    lp_obj: f64,
    var: usize,
    x: f64,
    basis: Option<Arc<Basis>>,
    down_lp: Option<Arc<LpResult>>,
    up_lp: Option<Arc<LpResult>>,
}

/// Mutable state of one tree walk: the reusable simplex workspace, the
/// bound vectors reconstructed from each node's delta chain, and the
/// walk's solver statistics.
struct WorkerScratch {
    workspace: SimplexWorkspace,
    lower: Vec<f64>,
    upper: Vec<f64>,
    stats: SolveStats,
    pseudo: Pseudocosts,
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            workspace: SimplexWorkspace::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            stats: SolveStats::default(),
            pseudo: Pseudocosts::default(),
        }
    }

    /// Solves the LP at the loaded bounds, warm from `warm`, under the
    /// search deadline every node LP and strong-branch probe shares.
    fn solve_loaded(&mut self, ctx: &SearchCtx<'_>, warm: Option<&Basis>) -> Arc<LpResult> {
        #[expect(
            clippy::disallowed_methods,
            reason = "per-LP timing feeds SolveStats; milp-solver is dependency-free by design and cannot use onoc-trace"
        )]
        let lp_start = Instant::now();
        let result = solve_lp(
            ctx.lp,
            &self.lower,
            &self.upper,
            ctx.deadline,
            &mut self.workspace,
            warm,
        );
        self.stats
            .record_lp(&result, warm.is_some(), lp_start.elapsed());
        Arc::new(result)
    }

    /// Materializes `node`'s effective bounds into `self.lower` /
    /// `self.upper`: root bounds overlaid with the node's delta chain.
    /// Walking leaf → root, the leaf-most (tightest) change to a variable
    /// is applied first, so ancestors may only keep — never loosen — it.
    fn load_bounds(&mut self, ctx: &SearchCtx<'_>, node: &Node) {
        self.lower.clear();
        self.lower.extend_from_slice(&ctx.lp.lower);
        self.upper.clear();
        self.upper.extend_from_slice(&ctx.lp.upper);
        let mut link = node.changes.as_deref();
        // No deadline poll: the node's bound-delta chain is finite, at most
        // the tree depth long.
        while let Some(change) = link {
            if change.is_upper {
                let u = &mut self.upper[change.var];
                *u = u.min(change.value);
            } else {
                let l = &mut self.lower[change.var];
                *l = l.max(change.value);
            }
            link = change.parent.as_deref();
        }
    }
}

/// Solves one node's LP relaxation and classifies the result. `inc_obj`
/// is the incumbent objective (sans constant) used for pruning, if any.
fn evaluate_node(
    ctx: &SearchCtx<'_>,
    node: &Node,
    inc_obj: Option<f64>,
    scratch: &mut WorkerScratch,
) -> NodeOutcome {
    scratch.load_bounds(ctx, node);
    scratch.pseudo.ensure(scratch.lower.len());
    let result = match &node.lp {
        Some(lp) => {
            scratch.stats.lp_reused += 1;
            Arc::clone(lp)
        }
        None => scratch.solve_loaded(ctx, node.basis.as_deref()),
    };
    scratch.stats.record_node(node.depth);
    match result.status {
        LpStatus::Infeasible => return NodeOutcome::Infeasible,
        LpStatus::Unbounded => return NodeOutcome::Unbounded,
        LpStatus::IterationLimit | LpStatus::TimedOut => {
            return NodeOutcome::LpTrouble(result.status)
        }
        LpStatus::Optimal => {}
    }
    let lp_obj = result.objective;
    // Credit the branching that created this node with the observed
    // LP-bound degradation per unit of fractional distance — the
    // pseudocost update. Free information, so it runs even for nodes the
    // incumbent is about to prune.
    if node.frac > INT_TOL {
        if let Some(change) = node.changes.as_deref() {
            let degrade = (lp_obj - node.bound).max(0.0);
            scratch
                .pseudo
                .observe(change.var, !change.is_upper, degrade / node.frac);
        }
    }
    if let Some(inc) = inc_obj {
        if lp_obj >= inc - 1e-9 {
            return NodeOutcome::PrunedByBound;
        }
    }

    // Pick the branch variable by the pseudocost product rule: estimated
    // down-degradation × up-degradation, each the direction's learned
    // per-unit pseudocost times the fractional distance. Unobserved
    // variables use the global-average defaults, so before any pseudocost
    // exists the score is `f·(1 − f)` — plain most-fractional branching.
    let (down_def, up_def) = scratch.pseudo.defaults();
    let mut candidates: Vec<(usize, f64, f64)> = Vec::new(); // (var, frac, score)
    for &j in ctx.integer_vars {
        let x = result.values[j];
        let frac = x - x.floor();
        if frac > INT_TOL && frac < 1.0 - INT_TOL {
            let down = scratch.pseudo.estimate(j, false, down_def) * frac;
            let up = scratch.pseudo.estimate(j, true, up_def) * (1.0 - frac);
            candidates.push((j, frac, down.max(1e-9) * up.max(1e-9)));
        }
    }
    let mut branch_var: Option<(usize, f64)> = None; // (var, score; larger = better)
    for &(j, _, score) in &candidates {
        let better = match branch_var {
            None => true,
            Some((_, best)) => score > best,
        };
        if better {
            branch_var = Some((j, score));
        }
    }

    // Root strong branching. At depth 0 no pseudocost has been observed,
    // so the product rule above is blind most-fractional branching — and
    // the whole tree shape hangs on that first choice. Spend real LP
    // solves to make it: for the best-ranked candidates, solve both child
    // LPs (warm from the root basis) and score by the product of actual
    // bound degradations. A structurally decisive variable (e.g. an
    // aggregate count a cut pivots on) has small fractionality but huge
    // degradation, exactly what the estimate-free score misses. The
    // observed degradations also seed the pseudocost table, so the rest
    // of the tree starts informed instead of uniform. Root only: cost is
    // bounded by `2·STRONG_BRANCH_CANDIDATES` warm LPs per solve.
    //
    // Each probe is exactly the LP call of the child it previews (same
    // bounds, warm basis and deadline), so the chosen variable's two
    // results ride along to the children, which then need no solve.
    let mut child_lps: ChildLps = (None, None);
    if node.depth == 0 && candidates.len() > 1 {
        let mut ranked = candidates.clone();
        ranked.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        ranked.truncate(STRONG_BRANCH_CANDIDATES);
        let warm_root = result.basis.as_ref();
        let mut best = None;
        for &(j, frac, _) in &ranked {
            #[expect(
                clippy::disallowed_methods,
                reason = "deadline poll between strong-branch probes; milp-solver is dependency-free by design"
            )]
            if ctx.deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let x = result.values[j];
            // Tighten one bound, solve, restore. Depth 0 means the
            // effective bounds are the root LP's, so restoring from
            // `ctx.lp` is exact.
            let mut probe = |is_upper: bool, value: f64| -> (f64, Option<Arc<LpResult>>) {
                if is_upper {
                    scratch.upper[j] = value;
                } else {
                    scratch.lower[j] = value;
                }
                let res = scratch.solve_loaded(ctx, warm_root);
                if is_upper {
                    scratch.upper[j] = ctx.lp.upper[j];
                } else {
                    scratch.lower[j] = ctx.lp.lower[j];
                }
                let degrade = match res.status {
                    LpStatus::Optimal => (res.objective - lp_obj).max(0.0),
                    LpStatus::Infeasible => f64::INFINITY,
                    _ => 0.0,
                };
                (degrade, reusable(&res).then_some(res))
            };
            let (d_down, down_lp) = probe(true, x.floor());
            let (d_up, up_lp) = probe(false, x.ceil());
            if d_down.is_finite() && frac > INT_TOL {
                scratch.pseudo.observe(j, false, d_down / frac);
            }
            if d_up.is_finite() && 1.0 - frac > INT_TOL {
                scratch.pseudo.observe(j, true, d_up / (1.0 - frac));
            }
            let score = d_down.max(1e-9) * d_up.max(1e-9);
            let better = match best {
                None => true,
                Some((_, b, _)) => score > b,
            };
            if better {
                best = Some((j, score, (down_lp, up_lp)));
            }
        }
        if let Some((j, score, lps)) = best {
            branch_var = Some((j, score));
            child_lps = lps;
        }
    }

    match branch_var {
        None => {
            // Integral: candidate incumbent. Round integer variables
            // exactly and re-validate.
            let mut values = result.values.clone();
            for &j in ctx.integer_vars {
                values[j] = values[j].round();
            }
            let values = if ctx.model.is_feasible(&values, 1e-6) {
                values
            } else {
                result.values.clone()
            };
            let obj = ctx.model.objective.evaluate(&values) - ctx.obj_constant;
            NodeOutcome::Integral { obj, values }
        }
        Some((j, _)) => NodeOutcome::Branched(Branch {
            lp_obj,
            var: j,
            x: result.values[j],
            basis: result.basis.clone().map(Arc::new),
            down_lp: child_lps.0,
            up_lp: child_lps.1,
        }),
    }
}

/// Builds the down (`xⱼ ≤ ⌊x⌋`) and up (`xⱼ ≥ ⌈x⌉`) children of a
/// branched node. `scratch` still holds the node's effective bounds from
/// evaluating it. Node ids come from `next_seq` — always two ids per
/// branching (down first), even for a child whose bounds cross, so node
/// ids are reproducible.
fn make_children(
    node: &Node,
    branch: Branch,
    scratch: &WorkerScratch,
    next_seq: &mut usize,
) -> (Option<Node>, Option<Node>) {
    let Branch {
        lp_obj,
        var: j,
        x,
        basis,
        down_lp,
        up_lp,
    } = branch;
    let f = x - x.floor();
    let mut child = |is_upper: bool, value: f64, frac: f64, feasible: bool, lp| {
        *next_seq += 1;
        feasible.then(|| Node {
            bound: lp_obj,
            depth: node.depth + 1,
            seq: *next_seq,
            changes: Some(Arc::new(BoundChange {
                var: j,
                is_upper,
                value,
                parent: node.changes.clone(),
            })),
            basis: basis.clone(),
            frac,
            lp,
        })
    };
    let (lo, hi) = (scratch.lower[j], scratch.upper[j]);
    let down = child(true, x.floor(), f, lo <= x.floor(), down_lp);
    let up = child(false, x.ceil(), 1.0 - f, x.ceil() <= hi, up_lp);
    (down, up)
}

/// Everything the final assembly needs from the search.
struct SearchEnd {
    incumbent: Option<(f64, Vec<f64>)>,
    /// Minimum bound over all nodes left open: the heap remainder plus any
    /// subtree dropped on numerical trouble. `+inf` when the tree was
    /// exhausted.
    open_bound: f64,
    limit_hit: bool,
    nodes_explored: usize,
    root_unbounded: bool,
    root_iteration_limit: bool,
    stats: SolveStats,
}

fn assemble(ctx: &SearchCtx<'_>, end: SearchEnd) -> Result<MilpSolution, ModelError> {
    if end.root_iteration_limit {
        return Err(ModelError::IterationLimit);
    }
    if end.root_unbounded && end.incumbent.is_none() {
        return Err(ModelError::Unbounded);
    }
    match end.incumbent {
        Some((obj, values)) => {
            let exhausted = end.open_bound.is_infinite() && !end.limit_hit;
            let bound = if exhausted {
                obj
            } else {
                end.open_bound.min(obj)
            };
            let status = if exhausted || obj - bound <= 1e-9 {
                Status::Optimal
            } else {
                Status::Feasible
            };
            let mut stats = end.stats;
            stats.nodes_explored = end.nodes_explored;
            Ok(MilpSolution {
                status,
                objective: obj + ctx.obj_constant,
                bound: bound + ctx.obj_constant,
                values,
                stats,
            })
        }
        None => {
            if end.limit_hit {
                // A limit stopped the search before any integer point was
                // found; infeasibility is not proven.
                Err(ModelError::NoSolutionFound)
            } else {
                Err(ModelError::Infeasible)
            }
        }
    }
}

/// Solves `model` by branch and bound. Used through
/// [`Model::solve`](crate::Model::solve).
pub(crate) fn solve(model: &Model, options: &SolveOptions) -> Result<MilpSolution, ModelError> {
    // Presolve keeps the variable set, so solutions map back one-to-one.
    #[expect(
        clippy::disallowed_methods,
        reason = "presolve timing feeds SolveStats; milp-solver is dependency-free by design"
    )]
    let presolve_start = Instant::now();
    let reduced = crate::presolve::presolve(model)?;
    let presolve_time = presolve_start.elapsed();
    let mut sol = solve_reduced(&reduced.model, options)?;
    // Report the objective against the original model (identical by
    // construction, but re-evaluating guards against drift).
    sol.objective = model.objective.evaluate(sol.values());
    sol.stats.presolve_time += presolve_time;
    sol.stats.solve_time += presolve_time;
    sol.stats.presolve_cols_removed += reduced.cols_removed;
    Ok(sol)
}

/// Searches the presolved `model`. The time limit runs from here, after
/// presolve.
fn solve_reduced(model: &Model, options: &SolveOptions) -> Result<MilpSolution, ModelError> {
    #[expect(
        clippy::disallowed_methods,
        reason = "solve_time stat and time-limit anchor; milp-solver is dependency-free by design"
    )]
    let start = Instant::now();
    let obj_constant = model.objective.constant();
    let lp = build_lp(model);
    let integer_vars = model.integer_var_indices();
    let ctx = SearchCtx {
        model,
        lp: &lp,
        integer_vars: &integer_vars,
        obj_constant,
        options,
        start,
        deadline: options.time_limit.map(|limit| start + limit),
    };

    // Warm start → initial incumbent (objective tracked without constant).
    let mut incumbent: Option<(f64, Vec<f64>)> = None;
    if let Some(ws) = &options.warm_start {
        if model.is_feasible(ws, 1e-6) {
            let obj = model.objective.evaluate(ws) - obj_constant;
            incumbent = Some((obj, ws.clone()));
        }
    }

    let root = Node {
        bound: f64::NEG_INFINITY,
        depth: 0,
        seq: 0,
        changes: None,
        basis: None,
        frac: 0.0,
        lp: None,
    };

    let mut sol = assemble(&ctx, search(&ctx, root, incumbent))?;
    sol.stats.solve_time = start.elapsed();
    Ok(sol)
}

fn search(ctx: &SearchCtx<'_>, root: Node, mut incumbent: Option<(f64, Vec<f64>)>) -> SearchEnd {
    let mut heap = BinaryHeap::new();
    let mut next_seq = root.seq;
    heap.push(root);

    let mut scratch = WorkerScratch::new();
    let mut nodes_explored = 0usize;
    let mut limit_hit = false;
    // Minimum bound over subtrees dropped without exploration (LP
    // iteration limit / deadline, non-root unbounded): the reported global
    // bound must not claim more than these subtrees allow.
    let mut lost_bound = f64::INFINITY;
    let mut root_unbounded = false;
    let mut root_iteration_limit = false;

    while let Some(node) = heap.pop() {
        // Prune against the incumbent (best-first: once the best open bound
        // cannot improve, the search is done).
        if let Some((inc_obj, _)) = &incumbent {
            // The two tests round differently at the 1e-9 edge; both are
            // kept so the pruning decision stays bit-identical.
            if node.bound >= *inc_obj - 1e-9 || *inc_obj - node.bound <= 1e-9 {
                break;
            }
        }
        if ctx.time_limit_reached() || ctx.node_limit_reached(nodes_explored) {
            // The popped node is still open: put it back so its bound
            // counts toward the reported global bound.
            limit_hit = true;
            heap.push(node);
            break;
        }
        nodes_explored += 1;

        let inc_obj = incumbent.as_ref().map(|(obj, _)| *obj);
        match evaluate_node(ctx, &node, inc_obj, &mut scratch) {
            NodeOutcome::Infeasible => {}
            NodeOutcome::LpTrouble(status) => {
                // Numerical trouble or deadline in this subtree: it stays
                // unexplored, so fold its bound into the reported one.
                if node.depth == 0 && status == LpStatus::IterationLimit {
                    root_iteration_limit = true;
                    break;
                }
                limit_hit = true;
                lost_bound = lost_bound.min(node.bound);
            }
            NodeOutcome::Unbounded => {
                if node.depth == 0 {
                    root_unbounded = true;
                    break;
                }
                limit_hit = true;
                lost_bound = lost_bound.min(node.bound);
            }
            NodeOutcome::PrunedByBound => {}
            NodeOutcome::Integral { obj, values } => {
                let better = match &incumbent {
                    None => true,
                    Some((inc_obj, _)) => obj < *inc_obj - 1e-12,
                };
                if better {
                    incumbent = Some((obj, values));
                }
            }
            NodeOutcome::Branched(branch) => {
                let (down, up) = make_children(&node, branch, &scratch, &mut next_seq);
                if let Some(child) = down {
                    heap.push(child);
                }
                if let Some(child) = up {
                    heap.push(child);
                }
            }
        }
    }

    let open_bound = heap
        .peek()
        .map_or(f64::INFINITY, |n| n.bound)
        .min(lost_bound);
    SearchEnd {
        incumbent,
        open_bound,
        limit_hit,
        nodes_explored,
        root_unbounded,
        root_iteration_limit,
        stats: scratch.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Model, Sense, VarType};

    #[test]
    fn node_pool_order_is_total_even_with_nan_bounds() {
        // Regression for the L2 bug class (clippy's `PartialOrd::partial_cmp`
        // entry): the pool ordering must be a *total* order even when an LP
        // relaxation produces a NaN bound, or the BinaryHeap invariant
        // silently breaks and the exploration order becomes
        // nondeterministic.
        use std::cmp::Ordering;
        let node = |bound: f64, seq: usize| Node {
            bound,
            frac: 0.0,
            depth: 0,
            seq,
            changes: None,
            basis: None,
            lp: None,
        };
        let nan = node(f64::NAN, 0);
        let good = node(1.0, 1);
        // NaN is no longer Equal to everything …
        assert_ne!(nan.cmp(&good), Ordering::Equal);
        // … the order is antisymmetric …
        assert_eq!(nan.cmp(&good), good.cmp(&nan).reverse());
        // … and a NaN bound ranks as the worst bound: the max-heap (which
        // pops the *smallest* bound first) yields it last.
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(node(f64::NAN, 0));
        heap.push(node(1.0, 1));
        heap.push(node(2.0, 2));
        let popped: Vec<usize> = std::iter::from_fn(|| heap.pop().map(|n| n.seq)).collect();
        assert_eq!(popped, [1, 2, 0]);
    }

    #[test]
    fn pure_lp_solves_without_branching() {
        let mut m = Model::new();
        let x = m.add_continuous("x");
        let y = m.add_continuous("y");
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Ge, 4.0)
            .unwrap();
        m.set_objective([(x, 1.0), (y, 2.0)]);
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert_eq!(sol.status(), Status::Optimal);
        assert!((sol.objective() - 4.0).abs() < 1e-6);
        assert_eq!(sol.nodes_explored(), 1);
    }

    #[test]
    fn knapsack_finds_optimum() {
        let mut m = Model::new();
        let items = [(3.0, 4.0), (4.0, 5.0), (5.0, 6.0)];
        let vars: Vec<_> = items
            .iter()
            .enumerate()
            .map(|(i, _)| m.add_binary(format!("x{i}")))
            .collect();
        let weight: Vec<_> = vars
            .iter()
            .zip(&items)
            .map(|(&v, &(w, _))| (v, w))
            .collect();
        m.add_constraint(weight, Sense::Le, 7.0).unwrap();
        let value: Vec<_> = vars
            .iter()
            .zip(&items)
            .map(|(&v, &(_, p))| (v, -p))
            .collect();
        m.set_objective(value);
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert_eq!(sol.status(), Status::Optimal);
        assert!((sol.objective() + 9.0).abs() < 1e-6);
        assert!(sol.value(vars[0]) > 0.5 && sol.value(vars[1]) > 0.5);
        assert!(sol.value(vars[2]) < 0.5);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y s.t. 2x + 2y ≤ 5, integers → LP gives 2.5, MILP 2.
        let mut m = Model::new();
        let x = m.add_var(VarType::Integer, 0.0, 10.0, "x").unwrap();
        let y = m.add_var(VarType::Integer, 0.0, 10.0, "y").unwrap();
        m.add_constraint([(x, 2.0), (y, 2.0)], Sense::Le, 5.0)
            .unwrap();
        m.set_objective([(x, -1.0), (y, -1.0)]);
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert!((sol.objective() + 2.0).abs() < 1e-6);
        assert_eq!(sol.gap(), 0.0);
    }

    #[test]
    fn set_packing_requires_search() {
        // Pairwise conflicts force at most one of three; LP relaxation
        // says 1.5.
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        let z = m.add_binary("z");
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Le, 1.0)
            .unwrap();
        m.add_constraint([(x, 1.0), (z, 1.0)], Sense::Le, 1.0)
            .unwrap();
        m.add_constraint([(y, 1.0), (z, 1.0)], Sense::Le, 1.0)
            .unwrap();
        m.set_objective([(x, -1.0), (y, -1.0), (z, -1.0)]);
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert!((sol.objective() + 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_milp_reported() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.add_constraint([(x, 1.0)], Sense::Ge, 2.0).unwrap();
        assert!(matches!(
            m.solve(&SolveOptions::default()),
            Err(ModelError::Infeasible)
        ));
    }

    #[test]
    fn unbounded_milp_reported() {
        let mut m = Model::new();
        let x = m.add_continuous("x");
        m.set_objective([(x, -1.0)]);
        assert!(matches!(
            m.solve(&SolveOptions::default()),
            Err(ModelError::Unbounded)
        ));
    }

    #[test]
    fn warm_start_is_used() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Le, 1.0)
            .unwrap();
        m.set_objective([(x, -2.0), (y, -1.0)]);
        // Warm start with the suboptimal y=1.
        let options = SolveOptions::default().with_warm_start(vec![0.0, 1.0]);
        let sol = m.solve(&options).unwrap();
        assert_eq!(sol.status(), Status::Optimal);
        assert!((sol.objective() + 2.0).abs() < 1e-6);
    }

    #[test]
    fn node_limit_returns_feasible_incumbent() {
        // A problem needing branching, with a zero node budget and a warm
        // start: the warm start must come back as Feasible.
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        let z = m.add_binary("z");
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Le, 1.0)
            .unwrap();
        m.add_constraint([(x, 1.0), (z, 1.0)], Sense::Le, 1.0)
            .unwrap();
        m.add_constraint([(y, 1.0), (z, 1.0)], Sense::Le, 1.0)
            .unwrap();
        m.set_objective([(x, -1.0), (y, -1.0), (z, -1.0)]);
        let options = SolveOptions::default()
            .with_node_limit(0)
            .with_warm_start(vec![1.0, 0.0, 0.0]);
        let sol = m.solve(&options).unwrap();
        assert_eq!(sol.status(), Status::Feasible);
        assert!((sol.objective() + 1.0).abs() < 1e-9);
        assert!(sol.bound() <= sol.objective());
        assert!(sol.gap() >= 0.0);
    }

    #[test]
    fn node_limit_without_incumbent_errors() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Le, 1.0)
            .unwrap();
        m.set_objective([(x, -1.0), (y, -1.0)]);
        let options = SolveOptions::default().with_node_limit(0);
        assert!(matches!(
            m.solve(&options),
            Err(ModelError::NoSolutionFound)
        ));
    }

    #[test]
    fn objective_constant_is_reported() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.set_objective(LinExpr::from(x) + 10.0);
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert!((sol.objective() - 10.0).abs() < 1e-9);
        assert!(sol.value(x) < 0.5);
    }

    #[test]
    fn equality_constrained_binaries() {
        // Exactly-one constraints — the shape of the paper's Eq. 1.
        let mut m = Model::new();
        let vars: Vec<_> = (0..4).map(|i| m.add_binary(format!("b{i}"))).collect();
        let sum: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(sum, Sense::Eq, 1.0).unwrap();
        m.set_objective([(vars[2], -1.0)]);
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert!((sol.objective() + 1.0).abs() < 1e-6);
        assert!(sol.value(vars[2]) > 0.5);
        let chosen: f64 = vars.iter().map(|&v| sol.value(v)).sum();
        assert!((chosen - 1.0).abs() < 1e-6);
    }

    #[test]
    fn big_m_indicator_pattern() {
        // The shape of the paper's Eq. 7: il ≥ loss − (1 − b)·Ξ.
        let mut m = Model::new();
        let b = m.add_binary("b");
        let il = m.add_continuous("il");
        let xi = 1e4;
        // il ≥ 7 − (1 − b)·Ξ  ⇔  il + Ξ·(1−b) ≥ 7  ⇔ il − Ξ·b ≥ 7 − Ξ.
        m.add_constraint([(il, 1.0), (b, -xi)], Sense::Ge, 7.0 - xi)
            .unwrap();
        // Force b = 1.
        m.add_constraint([(b, 1.0)], Sense::Ge, 1.0).unwrap();
        m.set_objective([(il, 1.0)]);
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert!((sol.objective() - 7.0).abs() < 1e-5);
    }

    #[test]
    fn tight_time_limit_keeps_anytime_contract() {
        // With a zero wall-clock budget the node loop stops before the
        // root; the warm start must come back intact as a Feasible
        // incumbent with a bound no better than the objective.
        let mut m = Model::new();
        let vars: Vec<_> = (0..12).map(|i| m.add_binary(format!("b{i}"))).collect();
        for w in vars.windows(2) {
            m.add_constraint([(w[0], 1.0), (w[1], 1.0)], Sense::Le, 1.0)
                .unwrap();
        }
        m.set_objective(vars.iter().map(|&v| (v, -1.0)).collect::<Vec<_>>());
        let warm: Vec<f64> = (0..12).map(|i| f64::from(u8::from(i % 2 == 0))).collect();
        let options = SolveOptions::default()
            .with_time_limit(Duration::ZERO)
            .with_warm_start(warm);
        let sol = m.solve(&options).unwrap();
        assert_eq!(sol.status(), Status::Feasible);
        assert!((sol.objective() + 6.0).abs() < 1e-9);
        assert!(sol.bound() <= sol.objective());
        // The node loop polls the time limit before each node: not even
        // the root LP ran.
        assert_eq!(sol.stats().nodes_explored, 0);
        assert_eq!(sol.stats().lp_solves, 0);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test sets deadlines relative to the wall clock"
    )]
    fn root_strong_branching_stops_at_a_lapsed_deadline() {
        // The root LP rides in on the node, solved before the deadline
        // lapsed, so the strong-branching loop is the first code to meet
        // the lapsed deadline: it must probe nothing.
        let m = assignment_model(9, 3);
        let lp = build_lp(&m);
        let integer_vars = m.integer_var_indices();
        let options = SolveOptions::default();
        let search_ctx = |deadline| SearchCtx {
            model: &m,
            lp: &lp,
            integer_vars: &integer_vars,
            obj_constant: m.objective.constant(),
            options: &options,
            start: Instant::now(),
            deadline,
        };
        let open = search_ctx(None);
        let mut scratch = WorkerScratch::new();
        scratch.lower.clone_from(&lp.lower);
        scratch.upper.clone_from(&lp.upper);
        let root_lp = scratch.solve_loaded(&open, None);
        assert_eq!(root_lp.status, LpStatus::Optimal);
        let root = || Node {
            bound: f64::NEG_INFINITY,
            depth: 0,
            seq: 0,
            changes: None,
            basis: None,
            frac: 0.0,
            lp: Some(Arc::clone(&root_lp)),
        };

        // Without a deadline the root probes its candidates.
        let mut probing = WorkerScratch::new();
        let outcome = evaluate_node(&open, &root(), None, &mut probing);
        assert!(matches!(outcome, NodeOutcome::Branched(_)));
        assert!(probing.stats.lp_solves >= 2, "{:?}", probing.stats);

        let lapsed = search_ctx(Some(Instant::now() - Duration::from_millis(1)));
        let mut late = WorkerScratch::new();
        let outcome = evaluate_node(&lapsed, &root(), None, &mut late);
        assert!(matches!(outcome, NodeOutcome::Branched(_)));
        assert_eq!(late.stats.lp_solves, 0, "{:?}", late.stats);
    }

    /// Brute-force reference: enumerate all 2^n binary assignments.
    fn brute_force(m: &Model) -> Option<f64> {
        let n = m.var_count();
        let mut best: Option<f64> = None;
        for mask in 0u32..(1 << n) {
            let values: Vec<f64> = (0..n).map(|i| f64::from((mask >> i) & 1)).collect();
            if m.is_feasible(&values, 1e-9) {
                let obj = m.objective().evaluate(&values);
                best = Some(best.map_or(obj, |b: f64| b.min(obj)));
            }
        }
        best
    }

    /// Random binary program used by the equivalence properties below.
    fn random_model(n: usize, rows: &[(Vec<i8>, i8)], cost: &[i8]) -> Model {
        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|i| m.add_binary(format!("b{i}"))).collect();
        for (coeffs, rhs) in rows {
            let terms: Vec<_> = vars
                .iter()
                .zip(coeffs)
                .filter(|(_, &c)| c != 0)
                .map(|(&v, &c)| (v, f64::from(c)))
                .collect();
            if !terms.is_empty() {
                m.add_constraint(terms, Sense::Le, f64::from(*rhs)).unwrap();
            }
        }
        let obj: Vec<_> = vars
            .iter()
            .zip(cost)
            .map(|(&v, &c)| (v, f64::from(c)))
            .collect();
        m.set_objective(obj);
        m
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random small binary programs: branch and bound must agree with
        /// exhaustive enumeration, both on feasibility and on the optimum.
        #[test]
        fn prop_bb_matches_brute_force(
            n in 2usize..7,
            rows in proptest::collection::vec(
                (proptest::collection::vec(-3i8..4, 6), -4i8..8), 0..5
            ),
            cost in proptest::collection::vec(-5i8..6, 6),
        ) {
            let m = random_model(n, &rows, &cost);
            let reference = brute_force(&m);
            match m.solve(&SolveOptions::default()) {
                Ok(sol) => {
                    let expected = reference.expect("solver found a point, brute force must too");
                    proptest::prop_assert!(
                        (sol.objective() - expected).abs() < 1e-6,
                        "solver {} vs brute force {}", sol.objective(), expected
                    );
                    proptest::prop_assert!(m.is_feasible(sol.values(), 1e-6));
                    proptest::prop_assert_eq!(sol.status(), Status::Optimal);
                }
                Err(ModelError::Infeasible) => {
                    proptest::prop_assert!(reference.is_none(), "solver said infeasible, brute force found {:?}", reference);
                }
                Err(e) => return Err(proptest::test_runner::TestCaseError::fail(format!("unexpected error {e}"))),
            }
        }
    }

    #[test]
    fn twenty_variable_assignment_solves_quickly() {
        // 10 items → 4 bins with pairwise conflicts along a path; a
        // miniature of the wavelength-assignment structure.
        let mut m = Model::new();
        let n = 10;
        let k = 4;
        let mut b = Vec::new();
        for s in 0..n {
            let row: Vec<_> = (0..k).map(|l| m.add_binary(format!("b_{s}_{l}"))).collect();
            let sum: Vec<_> = row.iter().map(|&v| (v, 1.0)).collect();
            m.add_constraint(sum, Sense::Eq, 1.0).unwrap();
            b.push(row);
        }
        // Conflicts: consecutive items must differ.
        for s in 0..n - 1 {
            for (&bs, &bn) in b[s].iter().zip(&b[s + 1]) {
                m.add_constraint([(bs, 1.0), (bn, 1.0)], Sense::Le, 1.0)
                    .unwrap();
            }
        }
        // Minimize use of the last bin.
        let obj: Vec<_> = (0..n).map(|s| (b[s][k - 1], 1.0)).collect();
        m.set_objective(obj);
        let sol = m.solve(&SolveOptions::default()).unwrap();
        assert_eq!(sol.status(), Status::Optimal);
        assert!(sol.objective().abs() < 1e-6);
    }

    /// Assignment-shaped model whose LP relaxation is fractional: color an
    /// odd cycle with `k` colors minimizing use of the last one. The LP
    /// spreads each node over the first `k - 1` colors, but an odd cycle
    /// is not `(k-1)`-colorable, so real branching is required; the Eq
    /// rows make every cold node solve pay a phase 1.
    fn assignment_model(n: usize, k: usize) -> Model {
        assert!(n % 2 == 1);
        let mut m = Model::new();
        let mut b = Vec::new();
        for s in 0..n {
            let row: Vec<_> = (0..k).map(|l| m.add_binary(format!("b_{s}_{l}"))).collect();
            let sum: Vec<_> = row.iter().map(|&v| (v, 1.0)).collect();
            m.add_constraint(sum, Sense::Eq, 1.0).unwrap();
            b.push(row);
        }
        for s in 0..n {
            for (&bs, &bn) in b[s].iter().zip(&b[(s + 1) % n]) {
                m.add_constraint([(bs, 1.0), (bn, 1.0)], Sense::Le, 1.0)
                    .unwrap();
            }
        }
        // Last color is expensive; tiny distinct costs break the cycle's
        // rotational symmetry so best-first search stays small.
        let obj: Vec<_> = (0..n)
            .flat_map(|s| (0..k).map(move |l| (s, l)))
            .map(|(s, l)| {
                let tie = f64::from(u8::try_from((s * 3 + l) % 7).unwrap()) * 1e-3;
                let cost = if l == k - 1 { 1.0 } else { 0.0 };
                (b[s][l], cost + tie)
            })
            .collect();
        m.set_objective(obj);
        m
    }

    #[test]
    fn warm_solves_inherit_the_parent_basis() {
        // Every non-root node carries a parent basis on this model, and
        // inheriting it skips phase 1: the root is the only cold solve.
        let m = assignment_model(9, 3);
        let sol = m.solve(&SolveOptions::default()).unwrap();
        let ws = sol.stats();
        assert!(ws.lp_solves > 1, "model too easy: {ws:?}");
        assert_eq!(ws.phase1_solves, 1, "{ws:?}");
        assert_eq!(ws.warm_start_attempts, ws.lp_solves - ws.phase1_solves);
        assert_eq!(ws.warm_start_hits, ws.warm_start_attempts, "{ws:?}");
        // Timer attribution mirrors the path taken: the warm hits land in
        // the dual bucket.
        assert!(ws.time_in_dual > Duration::ZERO, "{ws:?}");
    }

    #[test]
    fn stats_are_consistent() {
        let m = assignment_model(9, 3);
        let sol = m.solve(&SolveOptions::default()).unwrap();
        let s = sol.stats();
        assert_eq!(s.nodes_explored, sol.nodes_explored());
        // One LP per node, plus up to two strong-branch probes per root
        // candidate.
        assert!(s.lp_solves <= s.nodes_explored + 2 * STRONG_BRANCH_CANDIDATES);
        assert!(s.warm_start_hits <= s.warm_start_attempts);
        assert!(s.warm_start_attempts < s.lp_solves);
        assert!(s.phase1_solves <= s.lp_solves);
        assert!(s.warm_hit_rate() >= 0.9, "{s:?}");
        // Depth histogram: one bucket entry per explored node.
        assert_eq!(
            s.nodes_by_depth.iter().sum::<usize>(),
            s.nodes_explored,
            "{s:?}"
        );
        assert!(s.max_depth() >= 1, "{s:?}");
        // Phase timers: every LP landed in exactly one bucket, nested
        // inside the solve wall-clock.
        assert!(s.solve_time > Duration::ZERO);
        assert!(s.lp_time() > Duration::ZERO);
        assert!(s.solve_time >= s.presolve_time + s.lp_time(), "{s:?}");
        assert_eq!(
            s.branching_time() + s.presolve_time + s.lp_time(),
            s.solve_time
        );
    }
}
