//! LP solves for branch and bound: problem form, results, and the
//! internal bounded form the simplex engine runs on.
//!
//! The LP relaxations solved during branch and bound have the form
//!
//! ```text
//! minimize    c·x
//! subject to  Aᵢ·x  {≤, ≥, =}  bᵢ          i = 1..m
//!             lⱼ ≤ xⱼ ≤ uⱼ                 j = 1..n
//! ```
//!
//! Bounds are handled natively by the **upper-bounded simplex** technique
//! (nonbasic variables rest at either bound; the ratio test allows bound
//! flips), so a binary variable costs no extra rows. Phase 1 minimizes the
//! sum of artificial variables; where a slack can serve as the initial
//! basic variable no artificial is created. Degeneracy triggers Bland's
//! rule to guarantee termination.
//!
//! The engine is a revised simplex over CSC column storage with an
//! LU-factorized basis, product-form eta updates, partial pricing and a
//! Harris ratio test (the private `sparse`, `lu` and `pricing` modules).
//! It runs on an internal bounded form built here (shift/mirror/split of
//! general bounds onto `[0, u]` variables, slacks, `rhs ≥ 0`
//! normalization); a [`Basis`] snapshot lives in that form's column
//! space. The tests check the engine against an exact vertex-enumeration
//! oracle that works on the original [`LpProblem`], so a bug in the
//! transform shows as a disagreement.
//!
//! [`solve_lp`] captures the optimal [`Basis`] of every solve and accepts
//! one from a previous solve of a near-identical problem (branch and
//! bound: the parent node). The snapshot is refactorized and re-optimized
//! with a **bounded-variable dual simplex** using a bound-flipping ratio
//! test; any validity or dual-feasibility failure falls back to the cold
//! two-phase start, so warm starting never changes what is solved — only
//! how fast.
//!
//! This module is `pub` for transparency and direct LP use, but the main
//! consumer is [`crate::branch_bound`].

use crate::model::Sense;
use crate::tolerances::{FEAS_TOL, UNIT_TOL};
use std::time::Instant;

/// A linear-programming problem in the solver's input form.
#[derive(Debug, Clone)]
pub struct LpProblem {
    /// Objective coefficients (minimization), one per structural variable.
    pub cost: Vec<f64>,
    /// Per-variable lower bounds (may be `-inf`).
    pub lower: Vec<f64>,
    /// Per-variable upper bounds (may be `+inf`).
    pub upper: Vec<f64>,
    /// Constraint rows.
    pub rows: Vec<LpRow>,
}

/// One constraint row: a sparse left-hand side, a sense and a right-hand
/// side.
#[derive(Debug, Clone)]
pub struct LpRow {
    /// `(column, coefficient)` pairs; columns must be in range and unique.
    pub coeffs: Vec<(usize, f64)>,
    /// Comparison sense.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// Outcome class of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// No point satisfies the constraints and bounds.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The iteration budget was exhausted (numerical trouble).
    IterationLimit,
    /// The wall-clock deadline passed mid-solve (see [`solve_lp`]).
    TimedOut,
}

/// Status of one internal column in a [`Basis`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BasisCol {
    Basic,
    AtLower,
    AtUpper,
}

/// A compact snapshot of an optimal simplex basis, captured after a solve
/// (see [`LpResult::basis`]) and replayed by [`solve_lp`] to start the
/// dual simplex from a previous optimum.
///
/// The snapshot lives in the solver's *internal* column space — shifted /
/// mirrored / split structural variables followed by slacks, artificials
/// excluded — and records, per column, whether it is basic or resting at
/// its lower or upper bound. Replaying it on a branch-and-bound child is
/// sound because tightening a variable bound changes shifts, right-hand
/// sides and internal upper bounds but **not** the constraint coefficients
/// or reduced costs, so the parent's optimal basis stays dual-feasible.
/// Validity (column count, row count, nonsingularity, dual feasibility) is
/// re-checked on load; any mismatch falls back to the cold start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    pub(crate) cols: Vec<BasisCol>,
    pub(crate) basic: usize,
}

impl Basis {
    /// Number of internal (structural + slack) columns described.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the snapshot describes an LP with no columns.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// Reusable scratch buffers for [`solve_lp`].
///
/// The constraint matrix and the factorization arenas are the dominant
/// allocation of an LP solve; branch and bound solves one LP per node,
/// all of the same shape. Keeping one workspace per search means those
/// buffers are allocated once per search instead of once per node.
#[derive(Debug, Default)]
pub struct SimplexWorkspace {
    /// Engine scratch (CSC matrix, LU arenas, work vectors).
    pub(crate) sparse: crate::sparse::SparseScratch,
}

impl SimplexWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Counters from the engine's factorization layer, reported per solve in
/// [`LpResult::factor`] (all zero when a solve ends before factorizing,
/// e.g. on crossing bounds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactorStats {
    /// Basis LU factorizations performed (initial plus refactorizations
    /// triggered by eta-chain length, tiny eta pivots, or drift).
    pub refactorizations: usize,
    /// Product-form eta updates appended between refactorizations.
    pub eta_updates: usize,
    /// Longest eta chain reached before a refactorization reset it.
    pub max_eta_chain: usize,
    /// Peak LU fill-in: nonzeros in `L + U` beyond the basis matrix's own.
    pub max_fill_in: usize,
}

/// Result of an LP solve: status, objective value and a value per
/// structural variable (meaningful when the status is
/// [`LpStatus::Optimal`]).
#[derive(Debug, Clone)]
pub struct LpResult {
    /// Outcome class.
    pub status: LpStatus,
    /// Objective value `c·x` (0 unless optimal).
    pub objective: f64,
    /// Variable assignment (empty unless optimal).
    pub values: Vec<f64>,
    /// Primal simplex iterations spent (pivots and bound flips, both
    /// phases).
    pub pivots: usize,
    /// Dual simplex iterations spent (pivots and bound flips).
    pub dual_pivots: usize,
    /// Whether a phase-1 (artificial-variable) solve ran.
    pub phase1: bool,
    /// Whether the solve finished on the warm-started dual-simplex path —
    /// no cold two-phase start was needed.
    pub warm_used: bool,
    /// Snapshot of the optimal basis, for children to warm-start from.
    /// `None` when the solve does not reach optimality, or when an
    /// artificial column remains basic (the snapshot could not seed a
    /// dual solve).
    pub basis: Option<Basis>,
    /// Factorization-layer counters.
    pub factor: FactorStats,
}

/// A result with no solution attached (infeasible / unbounded / limits).
pub(crate) fn lp_terminal(
    status: LpStatus,
    pivots: usize,
    dual_pivots: usize,
    phase1: bool,
    warm_used: bool,
) -> LpResult {
    LpResult {
        status,
        objective: 0.0,
        values: Vec::new(),
        pivots,
        dual_pivots,
        phase1,
        warm_used,
        basis: None,
        factor: FactorStats::default(),
    }
}

/// How an original variable maps onto internal non-negative variables.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Recover {
    /// `x = x_int + shift`
    Shift { col: usize, shift: f64 },
    /// `x = mirror − x_int` (used for `(-inf, u]` variables)
    Mirror { col: usize, mirror: f64 },
    /// `x = x_plus − x_minus` (free variables)
    Split { plus: usize, minus: usize },
}

/// One internal equality row: shifted/mirrored/split coefficients, a
/// non-negative right-hand side, and the slack column if the row has one.
pub(crate) struct InternalRow {
    pub(crate) coeffs: Vec<(usize, f64)>,
    pub(crate) rhs: f64,
    pub(crate) slack: Option<usize>,
}

/// The internal form of an LP: every variable mapped onto `[0, u]`,
/// every row an equality with `rhs ≥ 0`, slacks appended after the
/// structural columns. The engine consumes it and may extend it
/// (artificial columns are appended in place for the cold start).
pub(crate) struct InternalForm {
    pub(crate) recover: Vec<Recover>,
    /// Internal upper bounds, structural + slack columns (the engine
    /// appends artificial columns for the cold start).
    pub(crate) ub: Vec<f64>,
    /// Phase-2 costs over the same columns.
    pub(crate) cost: Vec<f64>,
    pub(crate) rows: Vec<InternalRow>,
    /// Per row: no slack can start basic, an artificial is needed.
    pub(crate) needs_artificial: Vec<bool>,
    /// Structural + slack column count (artificials come after).
    pub(crate) n_struct_slack: usize,
    /// Number of artificial columns a cold start needs.
    pub(crate) n_art: usize,
}

/// Builds the internal bounded form the engine runs on: variable
/// transforms, slack columns, and `rhs ≥ 0` row normalization.
///
/// # Panics
///
/// Panics if a row references an out-of-range column.
pub(crate) fn build_internal_form(
    problem: &LpProblem,
    lower: &impl Fn(usize) -> f64,
    upper: &impl Fn(usize) -> f64,
) -> InternalForm {
    let n = problem.cost.len();

    // --- Transform original variables to internal non-negative ones. ---
    let mut recover = Vec::with_capacity(n);
    let mut internal_ub = Vec::with_capacity(n + problem.rows.len());
    let mut internal_cost = Vec::with_capacity(n + problem.rows.len());
    for j in 0..n {
        let (l, u) = (lower(j), upper(j));
        if l.is_finite() {
            let col = internal_ub.len();
            internal_ub.push((u - l).max(0.0));
            internal_cost.push(problem.cost[j]);
            recover.push(Recover::Shift { col, shift: l });
        } else if u.is_finite() {
            let col = internal_ub.len();
            internal_ub.push(f64::INFINITY);
            internal_cost.push(-problem.cost[j]);
            recover.push(Recover::Mirror { col, mirror: u });
        } else {
            let plus = internal_ub.len();
            internal_ub.push(f64::INFINITY);
            internal_cost.push(problem.cost[j]);
            let minus = internal_ub.len();
            internal_ub.push(f64::INFINITY);
            internal_cost.push(-problem.cost[j]);
            recover.push(Recover::Split { plus, minus });
        }
    }

    // --- Build internal equality rows with slacks. ---
    let mut internal_rows = Vec::with_capacity(problem.rows.len());
    let mut next_col = internal_ub.len();
    for row in &problem.rows {
        let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(row.coeffs.len() + 1);
        let mut rhs = row.rhs;
        for &(col, a) in &row.coeffs {
            assert!(col < n, "row references out-of-range column {col}");
            match recover[col] {
                Recover::Shift { col: ic, shift } => {
                    coeffs.push((ic, a));
                    rhs -= a * shift;
                }
                Recover::Mirror { col: ic, mirror } => {
                    coeffs.push((ic, -a));
                    rhs -= a * mirror;
                }
                Recover::Split { plus, minus } => {
                    coeffs.push((plus, a));
                    coeffs.push((minus, -a));
                }
            }
        }
        let slack = match row.sense {
            Sense::Le => {
                let s = next_col;
                next_col += 1;
                coeffs.push((s, 1.0));
                Some(s)
            }
            Sense::Ge => {
                let s = next_col;
                next_col += 1;
                coeffs.push((s, -1.0));
                Some(s)
            }
            Sense::Eq => None,
        };
        internal_rows.push(InternalRow { coeffs, rhs, slack });
    }
    let n_slacks = next_col - internal_ub.len();
    internal_ub.extend(std::iter::repeat_n(f64::INFINITY, n_slacks));
    internal_cost.extend(std::iter::repeat_n(0.0, n_slacks));

    // --- Normalize rows to rhs ≥ 0 and pick initial basics. ---
    let m = internal_rows.len();
    let mut needs_artificial = vec![false; m];
    for (i, row) in internal_rows.iter_mut().enumerate() {
        if row.rhs < 0.0 {
            row.rhs = -row.rhs;
            for c in row.coeffs.iter_mut() {
                c.1 = -c.1;
            }
        }
        // A slack with +1 coefficient (after normalization) can be the
        // initial basic variable.
        let slack_ok = row
            .slack
            .map(|s| {
                row.coeffs
                    .iter()
                    .any(|&(c, a)| c == s && (a - 1.0).abs() < UNIT_TOL)
            })
            .unwrap_or(false);
        needs_artificial[i] = !slack_ok;
    }
    let n_struct_slack = next_col;
    let n_art: usize = needs_artificial.iter().filter(|&&b| b).count();

    InternalForm {
        recover,
        ub: internal_ub,
        cost: internal_cost,
        rows: internal_rows,
        needs_artificial,
        n_struct_slack,
        n_art,
    }
}

/// Maps internal-column values back to the original variable space.
pub(crate) fn recover_values(recover: &[Recover], value: impl Fn(usize) -> f64) -> Vec<f64> {
    recover
        .iter()
        .map(|rec| match *rec {
            Recover::Shift { col, shift } => value(col) + shift,
            Recover::Mirror { col, mirror } => mirror - value(col),
            Recover::Split { plus, minus } => value(plus) - value(minus),
        })
        .collect()
}

/// Solves an LP with optional per-variable bound overrides (branch and
/// bound tightens bounds without rebuilding the problem), optionally
/// warm-started from a [`Basis`] snapshot of a previous solve (typically
/// the branch-and-bound parent node's optimum). Branch and bound passes
/// one workspace (see [`SimplexWorkspace`]) and one deadline per search,
/// and one inherited basis per node.
///
/// The solve aborts once `deadline` passes. The check runs every 64
/// pivots, so overshoot is bounded by a handful of pivot times. A solve
/// aborted this way reports [`LpStatus::TimedOut`].
///
/// When the snapshot matches the internal column/row structure, it is
/// refactorized and re-optimized with the dual simplex. On any mismatch —
/// wrong shape, singular basis, dual infeasibility, or a dual stall — the
/// solve silently falls back to the cold two-phase primal start, so the
/// result is the same either way (see [`LpResult::warm_used`] for which
/// path ran).
///
/// # Panics
///
/// Panics if the override slices are non-empty but shorter than the number
/// of variables, or if a row references an out-of-range column.
#[must_use]
pub fn solve_lp(
    problem: &LpProblem,
    lower_override: &[f64],
    upper_override: &[f64],
    deadline: Option<Instant>,
    workspace: &mut SimplexWorkspace,
    warm: Option<&Basis>,
) -> LpResult {
    let n = problem.cost.len();
    let lower = |j: usize| {
        if lower_override.is_empty() {
            problem.lower[j]
        } else {
            lower_override[j]
        }
    };
    let upper = |j: usize| {
        if upper_override.is_empty() {
            problem.upper[j]
        } else {
            upper_override[j]
        }
    };

    // Quick bound sanity: crossing bounds → infeasible.
    for j in 0..n {
        if lower(j) > upper(j) + FEAS_TOL {
            return lp_terminal(LpStatus::Infeasible, 0, 0, false, false);
        }
    }

    let mut form = build_internal_form(problem, &lower, &upper);
    crate::sparse::solve_sparse(problem, &mut form, deadline, workspace, warm)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests set deadlines relative to the wall clock"
)]
mod tests {
    use super::*;

    fn row(coeffs: &[(usize, f64)], sense: Sense, rhs: f64) -> LpRow {
        LpRow {
            coeffs: coeffs.to_vec(),
            sense,
            rhs,
        }
    }

    fn solve(p: &LpProblem) -> LpResult {
        solve_in(p, &[], &[])
    }

    /// A cold solve within `lower`/`upper` on a fresh workspace.
    fn solve_in(p: &LpProblem, lower: &[f64], upper: &[f64]) -> LpResult {
        solve_lp(p, lower, upper, None, &mut SimplexWorkspace::new(), None)
    }

    #[test]
    fn simple_two_var_lp() {
        // min -x - y  s.t.  x + y ≤ 4, x ≤ 3, y ≤ 2 → x=3, y=1? No: x+y≤4
        // with x≤3, y≤2 → best is x=3, y=1 → obj −4; or x=2,y=2 → −4 too.
        let p = LpProblem {
            cost: vec![-1.0, -1.0],
            lower: vec![0.0, 0.0],
            upper: vec![3.0, 2.0],
            rows: vec![row(&[(0, 1.0), (1, 1.0)], Sense::Le, 4.0)],
        };
        let r = solve(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective + 4.0).abs() < 1e-7);
    }

    #[test]
    fn equality_constraint_needs_phase1() {
        // min x + y  s.t.  x + y = 3, 0 ≤ x,y ≤ 10 → obj 3.
        let p = LpProblem {
            cost: vec![1.0, 1.0],
            lower: vec![0.0, 0.0],
            upper: vec![10.0, 10.0],
            rows: vec![row(&[(0, 1.0), (1, 1.0)], Sense::Eq, 3.0)],
        };
        let r = solve(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 3.0).abs() < 1e-7);
        assert!((r.values[0] + r.values[1] - 3.0).abs() < 1e-7);
    }

    #[test]
    fn ge_constraint() {
        // min 2x + 3y  s.t.  x + y ≥ 5 → all on x, obj 10.
        let p = LpProblem {
            cost: vec![2.0, 3.0],
            lower: vec![0.0, 0.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![row(&[(0, 1.0), (1, 1.0)], Sense::Ge, 5.0)],
        };
        let r = solve(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 10.0).abs() < 1e-7);
        assert!((r.values[0] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        // x ≤ 1 and x ≥ 2.
        let p = LpProblem {
            cost: vec![0.0],
            lower: vec![0.0],
            upper: vec![f64::INFINITY],
            rows: vec![
                row(&[(0, 1.0)], Sense::Le, 1.0),
                row(&[(0, 1.0)], Sense::Ge, 2.0),
            ],
        };
        assert_eq!(solve(&p).status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let p = LpProblem {
            cost: vec![-1.0],
            lower: vec![0.0],
            upper: vec![f64::INFINITY],
            rows: vec![],
        };
        assert_eq!(solve(&p).status, LpStatus::Unbounded);
    }

    #[test]
    fn crossing_bounds_infeasible() {
        let p = LpProblem {
            cost: vec![1.0],
            lower: vec![2.0],
            upper: vec![1.0],
            rows: vec![],
        };
        assert_eq!(solve(&p).status, LpStatus::Infeasible);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x  s.t.  x ≥ −5 → x = −5.
        let p = LpProblem {
            cost: vec![1.0],
            lower: vec![-5.0],
            upper: vec![5.0],
            rows: vec![],
        };
        let r = solve(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective + 5.0).abs() < 1e-7);
    }

    #[test]
    fn free_variable_split() {
        // min x  s.t.  x ≥ −7 via a row (variable itself is free).
        let p = LpProblem {
            cost: vec![1.0],
            lower: vec![f64::NEG_INFINITY],
            upper: vec![f64::INFINITY],
            rows: vec![row(&[(0, 1.0)], Sense::Ge, -7.0)],
        };
        let r = solve(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective + 7.0).abs() < 1e-6);
    }

    #[test]
    fn upper_only_bounded_variable() {
        // max x (min −x) with x ≤ 9 and no lower bound, plus x ≥ 0 row.
        let p = LpProblem {
            cost: vec![-1.0],
            lower: vec![f64::NEG_INFINITY],
            upper: vec![9.0],
            rows: vec![row(&[(0, 1.0)], Sense::Ge, 0.0)],
        };
        let r = solve(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective + 9.0).abs() < 1e-6);
    }

    #[test]
    fn bound_override_tightens() {
        let p = LpProblem {
            cost: vec![-1.0],
            lower: vec![0.0],
            upper: vec![10.0],
            rows: vec![],
        };
        let r = solve_in(&p, &[0.0], &[4.0]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective + 4.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Several redundant constraints through the same vertex.
        let p = LpProblem {
            cost: vec![-1.0, -1.0],
            lower: vec![0.0, 0.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![
                row(&[(0, 1.0), (1, 1.0)], Sense::Le, 2.0),
                row(&[(0, 1.0), (1, 1.0)], Sense::Le, 2.0),
                row(&[(0, 2.0), (1, 2.0)], Sense::Le, 4.0),
                row(&[(0, 1.0)], Sense::Le, 2.0),
                row(&[(1, 1.0)], Sense::Le, 2.0),
            ],
        };
        let r = solve(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective + 2.0).abs() < 1e-7);
    }

    #[test]
    fn beale_cycling_example_terminates_optimal() {
        // Beale's classic degenerate LP, the canonical cycling example for
        // largest-coefficient pricing. The Bland fallback (including the
        // smallest-leaving-index tie-break in the ratio test) must drive
        // it to the optimum x = (1/25, 0, 1, 0), objective −1/20.
        let p = LpProblem {
            cost: vec![-0.75, 150.0, -0.02, 6.0],
            lower: vec![0.0; 4],
            upper: vec![f64::INFINITY; 4],
            rows: vec![
                row(
                    &[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
                    Sense::Le,
                    0.0,
                ),
                row(
                    &[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
                    Sense::Le,
                    0.0,
                ),
                row(&[(2, 1.0)], Sense::Le, 1.0),
            ],
        };
        let r = solve(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(
            (r.objective + 0.05).abs() < 1e-9,
            "objective {}",
            r.objective
        );
        assert!((r.values[0] - 0.04).abs() < 1e-7);
        assert!((r.values[2] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn expired_deadline_times_out() {
        // A deadline already in the past must abort the solve before any
        // pivoting and report TimedOut — this is what lets branch and
        // bound keep its anytime contract mid-LP.
        let p = LpProblem {
            cost: vec![-3.0, -5.0],
            lower: vec![0.0, 0.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![
                row(&[(0, 1.0)], Sense::Le, 4.0),
                row(&[(1, 2.0)], Sense::Le, 12.0),
                row(&[(0, 3.0), (1, 2.0)], Sense::Le, 18.0),
            ],
        };
        let expired = Some(Instant::now() - std::time::Duration::from_millis(1));
        let mut ws = SimplexWorkspace::new();
        let r = solve_lp(&p, &[], &[], expired, &mut ws, None);
        assert_eq!(r.status, LpStatus::TimedOut);
        // Without the deadline the same workspace solves it fine.
        let r = solve_lp(&p, &[], &[], None, &mut ws, None);
        assert_eq!(r.status, LpStatus::Optimal);
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves() {
        // The same workspace across differently shaped problems must give
        // byte-identical results to fresh per-solve allocation.
        let problems = vec![
            LpProblem {
                cost: vec![-1.0, -1.0],
                lower: vec![0.0, 0.0],
                upper: vec![3.0, 2.0],
                rows: vec![row(&[(0, 1.0), (1, 1.0)], Sense::Le, 4.0)],
            },
            LpProblem {
                cost: vec![1.0, 1.0, 0.5],
                lower: vec![0.0; 3],
                upper: vec![10.0; 3],
                rows: vec![
                    row(&[(0, 1.0), (1, 1.0)], Sense::Eq, 3.0),
                    row(&[(1, 1.0), (2, 1.0)], Sense::Ge, 2.0),
                ],
            },
            LpProblem {
                cost: vec![2.0, 3.0],
                lower: vec![0.0, 0.0],
                upper: vec![f64::INFINITY, f64::INFINITY],
                rows: vec![row(&[(0, 1.0), (1, 1.0)], Sense::Ge, 5.0)],
            },
        ];
        let mut ws = SimplexWorkspace::new();
        for p in &problems {
            let reused = solve_lp(p, &[], &[], None, &mut ws, None);
            let fresh = solve(p);
            assert_eq!(reused.status, fresh.status);
            assert_eq!(reused.objective.to_bits(), fresh.objective.to_bits());
            assert_eq!(reused.values, fresh.values);
        }
    }

    #[test]
    fn classic_lp_textbook() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), obj 36.
        let p = LpProblem {
            cost: vec![-3.0, -5.0],
            lower: vec![0.0, 0.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![
                row(&[(0, 1.0)], Sense::Le, 4.0),
                row(&[(1, 2.0)], Sense::Le, 12.0),
                row(&[(0, 3.0), (1, 2.0)], Sense::Le, 18.0),
            ],
        };
        let r = solve(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective + 36.0).abs() < 1e-7);
        assert!((r.values[0] - 2.0).abs() < 1e-6);
        assert!((r.values[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_rows() {
        // min y s.t. −x − y ≤ −3 (i.e. x + y ≥ 3), x ≤ 1 → y = 2.
        let p = LpProblem {
            cost: vec![0.0, 1.0],
            lower: vec![0.0, 0.0],
            upper: vec![1.0, f64::INFINITY],
            rows: vec![row(&[(0, -1.0), (1, -1.0)], Sense::Le, -3.0)],
        };
        let r = solve(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 2.0).abs() < 1e-7);
    }

    /// Cold-solves `p`, captures the optimal basis, then re-solves with
    /// tightened bounds both warm (dual simplex) and cold, returning
    /// `(warm, cold)` for comparison.
    fn resolve_warm_and_cold(
        p: &LpProblem,
        tight_lower: &[f64],
        tight_upper: &[f64],
    ) -> (LpResult, LpResult) {
        let mut ws = SimplexWorkspace::new();
        let parent = solve_lp(p, &[], &[], None, &mut ws, None);
        assert_eq!(parent.status, LpStatus::Optimal);
        let basis = parent.basis.expect("parent basis must be captured");
        let warm = solve_lp(p, tight_lower, tight_upper, None, &mut ws, Some(&basis));
        let cold = solve_lp(p, tight_lower, tight_upper, None, &mut ws, None);
        (warm, cold)
    }

    #[test]
    fn dual_simplex_reoptimizes_after_bound_cut() {
        // Parent optimum: x0 basic at 10 (row binding), x1/x2/slack at
        // lower. Cutting x0's upper bound to 8.5 leaves the basis primal
        // infeasible but dual feasible; the dual simplex repairs it.
        let p = LpProblem {
            cost: vec![-1.0, -0.9, 0.0],
            lower: vec![0.0; 3],
            upper: vec![20.0, 0.3, 10.0],
            rows: vec![row(&[(0, 1.0), (1, 1.0), (2, 1.0)], Sense::Le, 10.0)],
        };
        let (warm, cold) = resolve_warm_and_cold(&p, &p.lower, &[8.5, 0.3, 10.0]);
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!(warm.warm_used, "inherited basis must be accepted");
        assert!(!warm.phase1, "warm path must not run phase 1");
        assert!(warm.dual_pivots >= 1);
        assert!((warm.objective - cold.objective).abs() < 1e-7);
        // The violation (1.5) exceeds x1's full range (0.3), so the
        // bound-flipping ratio test flips x1 to its upper bound and lets
        // the next candidate absorb the rest.
        assert!((warm.objective + 8.77).abs() < 1e-7);
        assert!((warm.values[1] - 0.3).abs() < 1e-7);
    }

    #[test]
    fn dual_simplex_handles_degenerate_entering_cost() {
        // Same geometry, but the absorbing candidate x2 has reduced cost 0
        // at the parent optimum: the dual pivot is degenerate (dual
        // objective unchanged) and must still terminate correctly.
        let p = LpProblem {
            cost: vec![-1.0, -0.9, -1.0],
            lower: vec![0.0; 3],
            upper: vec![20.0, 0.3, 10.0],
            rows: vec![row(&[(0, 1.0), (1, 1.0), (2, 1.0)], Sense::Le, 10.0)],
        };
        let (warm, cold) = resolve_warm_and_cold(&p, &p.lower, &[8.5, 0.3, 10.0]);
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!(warm.warm_used);
        assert!((warm.objective - cold.objective).abs() < 1e-7);
        assert!((warm.objective + 10.0).abs() < 1e-7);
    }

    #[test]
    fn dual_infeasible_inherited_basis_falls_back_to_the_cold_start() {
        // The optimum of min −x0 over x0 + x1 ≤ 10 has x0 basic and x1 at
        // its lower bound. Under min −x1 that basis prices x1 at −1 from
        // its lower bound: dual-infeasible, so the dual simplex must not
        // start from it, although it is primal-feasible.
        let mut p = LpProblem {
            cost: vec![-1.0, 0.0],
            lower: vec![0.0; 2],
            upper: vec![20.0; 2],
            rows: vec![row(&[(0, 1.0), (1, 1.0)], Sense::Le, 10.0)],
        };
        let basis = solve(&p).basis.expect("parent basis must be captured");
        p.cost = vec![0.0, -1.0];
        let r = solve_lp(
            &p,
            &[],
            &[],
            None,
            &mut SimplexWorkspace::new(),
            Some(&basis),
        );
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(!r.warm_used, "a dual-infeasible basis must be refused");
        assert_eq!(r.objective.to_bits(), solve(&p).objective.to_bits());
        assert!((r.objective + 10.0).abs() < 1e-9);
    }

    #[test]
    fn dual_simplex_detects_infeasible_bound_cut() {
        // min x0 + 2·x1 s.t. x0 + x1 ≥ 4: tightening x1's upper bound to
        // 0.25 with x0 ≤ 3 makes the LP infeasible; the exhausted ratio
        // test is an exact certificate, no primal fallback needed.
        let p = LpProblem {
            cost: vec![1.0, 2.0],
            lower: vec![0.0; 2],
            upper: vec![3.0, 10.0],
            rows: vec![row(&[(0, 1.0), (1, 1.0)], Sense::Ge, 4.0)],
        };
        let (warm, cold) = resolve_warm_and_cold(&p, &p.lower, &[3.0, 0.25]);
        assert_eq!(warm.status, LpStatus::Infeasible);
        assert_eq!(cold.status, LpStatus::Infeasible);
        assert!(warm.warm_used);
    }

    #[test]
    fn expired_deadline_stops_the_warm_dual_simplex() {
        // A hundred copies of the bound cut above: the warm re-solve takes
        // more than 64 dual iterations, and ends off a multiple of 64, so
        // the exact-cost primal cleanup after it (which polls at multiples
        // of 64) cannot stand in for the dual simplex's own poll.
        let blocks = 100;
        let mut p = LpProblem {
            cost: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            rows: Vec::new(),
        };
        for b in 0..blocks {
            p.cost.extend([-1.0, -0.9, 0.0]);
            p.lower.extend([0.0; 3]);
            p.upper.extend([20.0, 0.3, 10.0]);
            let j = 3 * b;
            p.rows.push(row(
                &[(j, 1.0), (j + 1, 1.0), (j + 2, 1.0)],
                Sense::Le,
                10.0,
            ));
        }
        let tight: Vec<f64> = (0..3 * blocks)
            .map(|j| if j % 3 == 0 { 8.5 } else { p.upper[j] })
            .collect();
        let (warm, _) = resolve_warm_and_cold(&p, &p.lower, &tight);
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!(warm.warm_used);
        assert!(
            warm.dual_pivots > 64 && warm.dual_pivots % 64 != 0,
            "{}",
            warm.dual_pivots
        );

        // The same warm solve under a lapsed deadline stops before its
        // first dual iteration.
        let mut ws = SimplexWorkspace::new();
        let parent = solve_lp(&p, &[], &[], None, &mut ws, None);
        let basis = parent.basis.expect("parent basis must be captured");
        let expired = Some(Instant::now() - std::time::Duration::from_millis(1));
        let r = solve_lp(&p, &p.lower, &tight, expired, &mut ws, Some(&basis));
        assert_eq!(r.status, LpStatus::TimedOut);
        assert_eq!((r.dual_pivots, r.pivots), (0, 0));
    }

    #[test]
    fn warm_start_without_violation_takes_zero_pivots() {
        // Tightening a nonbasic-at-upper bound keeps the basis optimal
        // after the rhs shift: the dual simplex verifies and exits.
        let p = LpProblem {
            cost: vec![1.0, 2.0, 10.0],
            lower: vec![0.0; 3],
            upper: vec![2.0, 3.0, 10.0],
            rows: vec![row(&[(0, 1.0), (1, 1.0), (2, 1.0)], Sense::Ge, 6.0)],
        };
        let (warm, cold) = resolve_warm_and_cold(&p, &p.lower, &[0.5, 3.0, 10.0]);
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!(warm.warm_used);
        assert_eq!(warm.dual_pivots, 0);
        assert_eq!(warm.pivots, 0);
        assert!((warm.objective - cold.objective).abs() < 1e-7);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random bounded LPs with non-negative coefficients and generous
        /// right-hand sides: always feasible (the origin qualifies).
        fn arb_lp() -> impl Strategy<Value = LpProblem> {
            (
                2usize..6,
                proptest::collection::vec(
                    (proptest::collection::vec(0.0f64..3.0, 6), 1.0f64..12.0),
                    1..5,
                ),
                proptest::collection::vec(-4.0f64..4.0, 6),
            )
                .prop_map(|(n, rows, cost)| LpProblem {
                    cost: cost[..n].to_vec(),
                    lower: vec![0.0; n],
                    upper: vec![3.0; n],
                    rows: rows
                        .into_iter()
                        .map(|(coeffs, rhs)| LpRow {
                            coeffs: coeffs[..n]
                                .iter()
                                .enumerate()
                                .map(|(j, &a)| (j, a))
                                .collect(),
                            sense: Sense::Le,
                            rhs,
                        })
                        .collect(),
                })
        }

        fn feasible(p: &LpProblem, x: &[f64]) -> bool {
            x.iter()
                .zip(p.lower.iter().zip(&p.upper))
                .all(|(&v, (&l, &u))| v >= l - 1e-7 && v <= u + 1e-7)
                && p.rows.iter().all(|r| {
                    let lhs: f64 = r.coeffs.iter().map(|&(j, a)| a * x[j]).sum();
                    lhs <= r.rhs + 1e-7
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_simplex_solution_is_feasible_and_beats_samples(
                p in arb_lp(),
                samples in proptest::collection::vec(
                    proptest::collection::vec(0.0f64..3.0, 6), 8),
            ) {
                let r = solve(&p);
                prop_assert_eq!(r.status, LpStatus::Optimal);
                prop_assert!(feasible(&p, &r.values), "solution violates constraints");
                // No sampled feasible point may beat the reported optimum.
                for s in &samples {
                    let x = &s[..p.cost.len()];
                    if feasible(&p, x) {
                        let obj: f64 = x.iter().zip(&p.cost).map(|(v, c)| v * c).sum();
                        prop_assert!(r.objective <= obj + 1e-6,
                            "sampled point {obj} beats reported optimum {}", r.objective);
                    }
                }
            }

            /// Basis-inherited dual re-optimization must agree with a cold
            /// primal solve on status and objective for every random LP
            /// and every single-variable bound tightening — the exact move
            /// branch and bound makes.
            #[test]
            fn prop_dual_warm_matches_cold_primal(
                p in arb_lp(),
                var_pick in 0usize..6,
                frac in 0.0f64..1.0,
                cut_upper in proptest::arbitrary::any::<bool>(),
            ) {
                let mut ws = SimplexWorkspace::new();
                let parent = solve_lp(&p, &[], &[], None, &mut ws, None);
                prop_assert_eq!(parent.status, LpStatus::Optimal);
                let Some(basis) = parent.basis else {
                    // Legitimately unavailable (basic artificial left
                    // over): nothing to inherit, nothing to check.
                    return Ok(());
                };
                let j = var_pick % p.cost.len();
                let mut lower = p.lower.clone();
                let mut upper = p.upper.clone();
                let cut = p.lower[j] + frac * (p.upper[j] - p.lower[j]);
                if cut_upper {
                    upper[j] = cut;
                } else {
                    lower[j] = cut;
                }
                let warm = solve_lp(&p, &lower, &upper, None, &mut ws, Some(&basis));
                let cold = solve_lp(&p, &lower, &upper, None, &mut ws, None);
                prop_assert_eq!(warm.status, cold.status,
                    "warm {:?} vs cold {:?}", warm.status, cold.status);
                if warm.status == LpStatus::Optimal {
                    prop_assert!(
                        (warm.objective - cold.objective).abs() < 1e-6,
                        "warm {} vs cold {}", warm.objective, cold.objective
                    );
                    prop_assert!(feasible_in(&p, &lower, &upper, &warm.values));
                }
            }
        }

        fn feasible_in(p: &LpProblem, lower: &[f64], upper: &[f64], x: &[f64]) -> bool {
            x.iter()
                .zip(lower.iter().zip(upper))
                .all(|(&v, (&l, &u))| v >= l - 1e-7 && v <= u + 1e-7)
                && p.rows.iter().all(|r| {
                    let lhs: f64 = r.coeffs.iter().map(|&(j, a)| a * x[j]).sum();
                    lhs <= r.rhs + 1e-7
                })
        }
    }

    #[test]
    fn fractional_relaxation_value() {
        // Relaxation of a set-packing: x + y ≤ 1, x + z ≤ 1, y + z ≤ 1,
        // max x + y + z → LP optimum 1.5 (all at 0.5).
        let p = LpProblem {
            cost: vec![-1.0, -1.0, -1.0],
            lower: vec![0.0; 3],
            upper: vec![1.0; 3],
            rows: vec![
                row(&[(0, 1.0), (1, 1.0)], Sense::Le, 1.0),
                row(&[(0, 1.0), (2, 1.0)], Sense::Le, 1.0),
                row(&[(1, 1.0), (2, 1.0)], Sense::Le, 1.0),
            ],
        };
        let r = solve(&p);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective + 1.5).abs() < 1e-7);
    }
}
