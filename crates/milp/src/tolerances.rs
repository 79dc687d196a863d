//! Named numerical tolerances of the LP engine.
//!
//! The internal-form builder ([`crate::simplex`]), the revised simplex
//! (the private `sparse` module) and its LU layer must agree on what
//! counts as zero, so each threshold is named once here.

/// Smallest tableau/column entry usable as a pivot in the ratio test.
/// Entries below this are treated as structural zeros.
pub const PIVOT_TOL: f64 = 1e-9;

/// Dual-feasibility (optimality) tolerance on reduced costs: a nonbasic
/// column only enters when its reduced cost is worse than this.
pub const COST_TOL: f64 = 1e-9;

/// Primal feasibility tolerance on variable bounds and row activities.
pub const FEAS_TOL: f64 = 1e-7;

/// A basis column whose best available pivot is below this magnitude
/// counts as singular; warm-start refactorization falls back to the cold
/// start and phase-1 drive-out skips the column.
pub const SINGULAR_TOL: f64 = 1e-7;

/// Slack-coefficient check: a slack can seed the initial basis when its
/// (normalized) coefficient is `+1` to within this tolerance.
pub const UNIT_TOL: f64 = 1e-12;

/// Smallest acceptable pivot element for a product-form eta update; a
/// smaller entering-column pivot forces a fresh LU factorization instead
/// of compounding error through the eta chain.
pub const ETA_PIVOT_TOL: f64 = 1e-8;

/// Maximum drift between incrementally updated basic values and a fresh
/// `B⁻¹(b − N·x_N)` solve before the sparse engine refactorizes.
pub const DRIFT_TOL: f64 = 1e-8;

/// Harris two-pass ratio test bound relaxation: pass 1 lets basic
/// variables overshoot their bound by this much to enlarge the pivot
/// choice, pass 2 picks the largest pivot within that relaxed step. Half
/// of [`FEAS_TOL`] so the overshoot always stays inside the feasibility
/// tolerance with margin.
pub const HARRIS_RELAX: f64 = 0.5 * FEAS_TOL;

/// Base magnitude of the deterministic cost perturbation the sparse warm
/// dual applies before re-optimizing. The assignment MILP's clique and
/// loss-cut rows make the exact warm duals massively degenerate — every
/// dual ratio ties at zero and the bound-flipping walk wanders without
/// dual progress — so each nonbasic column's cost is nudged away from
/// its bound by `DUAL_PERTURB · (1 + |c_j|)` scaled by a column-indexed
/// hash. Two decades above [`FEAS_TOL`] so the induced reduced costs are
/// unambiguously nonzero; small enough that the post-solve exact primal
/// cleanup is a handful of pivots.
pub const DUAL_PERTURB: f64 = 1e-5;
