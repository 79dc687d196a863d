//! An educational mixed-integer linear programming (MILP) solver.
//!
//! The SRing paper solves its wavelength-assignment model with Gurobi; this
//! crate is the from-scratch replacement (see `DESIGN.md` §3.1). It
//! provides:
//!
//! * a [`Model`] building API — continuous/integer/binary variables with
//!   bounds, linear constraints (`≤`, `≥`, `=`) and a linear objective,
//! * a **sparse revised simplex** for the LP relaxation — CSC column
//!   storage, an LU-factorized basis with product-form eta updates and
//!   refactorize-on-drift, partial pricing and a Harris two-pass ratio
//!   test — with bounded variables handled natively (bound flips, no
//!   extra rows) and Bland's-rule anti-cycling ([`simplex`]); the tests
//!   check it against an exact vertex-enumeration oracle,
//! * a warm-startable **dual simplex** that re-optimizes a parent-optimal
//!   basis after a bound tightening — the move branch and bound makes at
//!   every child node — with a bound-flipping ratio test and automatic
//!   fallback to the cold primal path ([`simplex::solve_lp`]),
//! * conservative **presolve** reductions that run before every search
//!   ([`presolve`](mod@presolve)),
//! * a **branch-and-bound** tree search with best-first node selection,
//!   pseudocost product-rule branching with root strong branching,
//!   parent-basis inheritance, warm-start incumbents and wall-clock/node
//!   limits ([`branch_bound`]); per-solve counters land in
//!   [`SolveStats`].
//!
//! The solver is *anytime*: when a limit is hit it returns the best
//! incumbent together with the proven bound, flagged
//! [`Status::Feasible`] rather than
//! [`Status::Optimal`].
//!
//! # Examples
//!
//! A tiny knapsack (maximize value 4x + 5y + 6z with weights 3, 4, 5 and
//! capacity 7 — written as minimizing the negated value):
//!
//! ```
//! use milp_solver::{Model, Sense, SolveOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = Model::new();
//! let x = m.add_binary("x");
//! let y = m.add_binary("y");
//! let z = m.add_binary("z");
//! m.add_constraint([(x, 3.0), (y, 4.0), (z, 5.0)], Sense::Le, 7.0)?;
//! m.set_objective([(x, -4.0), (y, -5.0), (z, -6.0)]);
//! let sol = m.solve(&SolveOptions::default())?;
//! // The best packing is {x, y}: weight 7, value 9.
//! assert!((sol.objective() + 9.0).abs() < 1e-6);
//! assert!(sol.value(x) > 0.5 && sol.value(y) > 0.5 && sol.value(z) < 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]

pub mod branch_bound;
pub mod expr;
pub mod io;
mod lu;
pub mod model;
pub mod presolve;
mod pricing;
pub mod simplex;
mod sparse;
pub mod tolerances;

pub use branch_bound::{MilpSolution, SolveOptions, SolveStats, Status};
pub use expr::{LinExpr, Var};
pub use model::{Model, ModelError, Sense, VarType};
pub use presolve::{presolve, Presolved};
pub use simplex::Basis;
