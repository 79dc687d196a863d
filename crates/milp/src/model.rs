//! The MILP model-building API.

use crate::branch_bound::{self, MilpSolution, SolveOptions};
use crate::expr::{IntoExpr, LinExpr, Var};
use std::fmt;

/// The domain of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarType {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds.
    Integer,
    /// Integer in `{0, 1}`.
    Binary,
}

/// The comparison sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

impl fmt::Display for Sense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sense::Le => "≤",
            Sense::Ge => "≥",
            Sense::Eq => "=",
        })
    }
}

#[derive(Debug, Clone)]
pub(crate) struct VarData {
    pub name: String,
    pub var_type: VarType,
    pub lower: f64,
    pub upper: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub expr: LinExpr,
    pub sense: Sense,
    pub rhs: f64,
}

/// A mixed-integer linear program: variables, linear constraints and a
/// linear objective to **minimize**.
///
/// # Examples
///
/// ```
/// use milp_solver::{Model, Sense, SolveOptions, VarType};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = Model::new();
/// let x = m.add_var(VarType::Continuous, 0.0, 10.0, "x")?;
/// let y = m.add_var(VarType::Continuous, 0.0, 10.0, "y")?;
/// m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Ge, 4.0)?;
/// m.set_objective([(x, 1.0), (y, 2.0)]);
/// let sol = m.solve(&SolveOptions::default())?;
/// assert!((sol.objective() - 4.0).abs() < 1e-6); // put everything on x
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub(crate) vars: Vec<VarData>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: LinExpr,
}

impl Model {
    /// Creates an empty model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with explicit type and bounds.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidBounds`] if `lower > upper`, a bound is
    /// NaN, or a binary variable's bounds are outside `[0, 1]`.
    pub fn add_var(
        &mut self,
        var_type: VarType,
        lower: f64,
        upper: f64,
        name: impl Into<String>,
    ) -> Result<Var, ModelError> {
        if lower.is_nan() || upper.is_nan() || lower > upper {
            return Err(ModelError::InvalidBounds {
                name: name.into(),
                lower,
                upper,
            });
        }
        if var_type == VarType::Binary && (lower < 0.0 || upper > 1.0) {
            return Err(ModelError::InvalidBounds {
                name: name.into(),
                lower,
                upper,
            });
        }
        self.vars.push(VarData {
            name: name.into(),
            var_type,
            lower,
            upper,
        });
        Ok(Var(self.vars.len() - 1))
    }

    /// Adds a binary variable.
    ///
    /// # Panics
    ///
    /// Never panics: binary bounds `[0, 1]` are always valid.
    #[expect(clippy::expect_used, reason = "binary bounds [0, 1] are always valid")]
    pub fn add_binary(&mut self, name: impl Into<String>) -> Var {
        self.add_var(VarType::Binary, 0.0, 1.0, name)
            .expect("binary bounds are valid")
    }

    /// Adds a non-negative continuous variable with no upper bound.
    #[expect(clippy::expect_used, reason = "bounds [0, inf) are always valid")]
    pub fn add_continuous(&mut self, name: impl Into<String>) -> Var {
        self.add_var(VarType::Continuous, 0.0, f64::INFINITY, name)
            .expect("non-negative bounds are valid")
    }

    /// Number of variables.
    #[must_use]
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Number of integer (including binary) variables.
    #[must_use]
    pub fn integer_count(&self) -> usize {
        self.integer_var_indices().len()
    }

    /// Column indices of the integer (including binary) variables, in
    /// declaration order — the branching candidates of the tree search.
    #[must_use]
    pub fn integer_var_indices(&self) -> Vec<usize> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.var_type != VarType::Continuous)
            .map(|(i, _)| i)
            .collect()
    }

    /// The name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable does not belong to this model.
    #[must_use]
    pub fn var_name(&self, var: Var) -> &str {
        &self.vars[var.0].name
    }

    /// Adds the constraint `expr (sense) rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownVar`] if the expression references a
    /// variable not created by this model, or [`ModelError::InvalidNumber`]
    /// for NaN/infinite coefficients or right-hand side.
    pub fn add_constraint(
        &mut self,
        expr: impl IntoExpr,
        sense: Sense,
        rhs: f64,
    ) -> Result<(), ModelError> {
        let expr = expr.into_expr();
        self.check_expr(&expr)?;
        if !rhs.is_finite() {
            return Err(ModelError::InvalidNumber);
        }
        // Fold the expression constant into the rhs.
        let constant = expr.constant();
        let mut clean = expr;
        clean.add_constant(-constant);
        self.constraints.push(Constraint {
            expr: clean,
            sense,
            rhs: rhs - constant,
        });
        Ok(())
    }

    /// Sets the (minimization) objective. Any constant term shifts the
    /// reported objective value.
    pub fn set_objective(&mut self, expr: impl IntoExpr) {
        self.objective = expr.into_expr();
    }

    /// The current objective expression.
    #[must_use]
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    fn check_expr(&self, expr: &LinExpr) -> Result<(), ModelError> {
        for (v, c) in expr.terms() {
            if v.0 >= self.vars.len() {
                return Err(ModelError::UnknownVar(v));
            }
            if !c.is_finite() {
                return Err(ModelError::InvalidNumber);
            }
        }
        if !expr.constant().is_finite() {
            return Err(ModelError::InvalidNumber);
        }
        Ok(())
    }

    /// Checks whether an assignment satisfies every constraint, bound and
    /// integrality requirement within `tolerance`.
    #[must_use]
    pub fn is_feasible(&self, values: &[f64], tolerance: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (v, data) in self.vars.iter().enumerate() {
            let x = values[v];
            if x < data.lower - tolerance || x > data.upper + tolerance {
                return false;
            }
            if data.var_type != VarType::Continuous && (x - x.round()).abs() > tolerance {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs = c.expr.evaluate(values);
            let ok = match c.sense {
                Sense::Le => lhs <= c.rhs + tolerance,
                Sense::Ge => lhs >= c.rhs - tolerance,
                Sense::Eq => (lhs - c.rhs).abs() <= tolerance,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Lists violated constraints (index and human-readable description)
    /// for an assignment — a debugging aid for model authors. Bound and
    /// integrality violations are not reported here; see
    /// [`Model::is_feasible`].
    #[must_use]
    pub fn debug_violations(&self, values: &[f64], tolerance: f64) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for (ci, c) in self.constraints.iter().enumerate() {
            let lhs = c.expr.evaluate(values);
            let ok = match c.sense {
                Sense::Le => lhs <= c.rhs + tolerance,
                Sense::Ge => lhs >= c.rhs - tolerance,
                Sense::Eq => (lhs - c.rhs).abs() <= tolerance,
            };
            if !ok {
                out.push((
                    ci,
                    format!("{} {} {} (lhs = {lhs})", c.expr, c.sense, c.rhs),
                ));
            }
        }
        out
    }

    /// Solves the model by branch and bound.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Infeasible`] when the model has no feasible
    /// point, [`ModelError::Unbounded`] when the objective is unbounded
    /// below, or [`ModelError::NoSolutionFound`] when a limit was reached
    /// before any incumbent was found.
    pub fn solve(&self, options: &SolveOptions) -> Result<MilpSolution, ModelError> {
        branch_bound::solve(self, options)
    }
}

/// Error building or solving a [`Model`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// Variable bounds are inverted, NaN, or outside the binary domain.
    InvalidBounds {
        /// Variable name.
        name: String,
        /// Offending lower bound.
        lower: f64,
        /// Offending upper bound.
        upper: f64,
    },
    /// The expression references a variable unknown to the model.
    UnknownVar(Var),
    /// A coefficient or right-hand side is NaN or infinite.
    InvalidNumber,
    /// The model has no feasible point.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// A search limit was reached before any feasible point was found.
    NoSolutionFound,
    /// The simplex exceeded its iteration budget (numerical trouble).
    IterationLimit,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidBounds { name, lower, upper } => {
                write!(f, "invalid bounds [{lower}, {upper}] for variable `{name}`")
            }
            ModelError::UnknownVar(v) => write!(f, "variable {v} does not belong to this model"),
            ModelError::InvalidNumber => write!(f, "coefficient or rhs is NaN or infinite"),
            ModelError::Infeasible => write!(f, "model is infeasible"),
            ModelError::Unbounded => write!(f, "objective is unbounded below"),
            ModelError::NoSolutionFound => {
                write!(f, "search limit reached before finding a feasible point")
            }
            ModelError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_creation_and_counts() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let _y = m.add_continuous("y");
        let z = m.add_var(VarType::Integer, -2.0, 5.0, "z").unwrap();
        assert_eq!(m.var_count(), 3);
        assert_eq!(m.integer_count(), 2);
        assert_eq!(m.var_name(x), "x");
        assert_eq!(m.var_name(z), "z");
    }

    #[test]
    fn invalid_bounds_rejected() {
        let mut m = Model::new();
        assert!(matches!(
            m.add_var(VarType::Continuous, 2.0, 1.0, "bad"),
            Err(ModelError::InvalidBounds { .. })
        ));
        assert!(matches!(
            m.add_var(VarType::Binary, 0.0, 2.0, "bad"),
            Err(ModelError::InvalidBounds { .. })
        ));
        assert!(matches!(
            m.add_var(VarType::Continuous, f64::NAN, 1.0, "bad"),
            Err(ModelError::InvalidBounds { .. })
        ));
    }

    #[test]
    fn constraint_constant_folds_into_rhs() {
        let mut m = Model::new();
        let x = m.add_continuous("x");
        let e = LinExpr::from(x) + 3.0;
        m.add_constraint(e, Sense::Le, 5.0).unwrap();
        assert_eq!(m.constraints[0].rhs, 2.0);
        assert_eq!(m.constraints[0].expr.constant(), 0.0);
    }

    #[test]
    fn foreign_var_rejected() {
        let mut a = Model::new();
        let mut b = Model::new();
        let _xa = a.add_binary("x");
        let xb = b.add_binary("x");
        let yb = b.add_binary("y");
        // `a` has one var; referencing yb (index 1) must fail.
        assert_eq!(
            a.add_constraint([(yb, 1.0)], Sense::Le, 1.0),
            Err(ModelError::UnknownVar(yb))
        );
        // Index collision cannot be detected (xb has index 0): documented
        // limitation — only out-of-range handles are caught.
        assert!(a.add_constraint([(xb, 1.0)], Sense::Le, 1.0).is_ok());
    }

    #[test]
    fn nan_coefficient_rejected() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        assert_eq!(
            m.add_constraint([(x, f64::NAN)], Sense::Le, 1.0),
            Err(ModelError::InvalidNumber)
        );
        assert_eq!(
            m.add_constraint([(x, 1.0)], Sense::Le, f64::INFINITY),
            Err(ModelError::InvalidNumber)
        );
    }

    #[test]
    fn feasibility_checker() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Le, 1.0)
            .unwrap();
        assert!(m.is_feasible(&[1.0, 0.0], 1e-9));
        assert!(!m.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!m.is_feasible(&[0.5, 0.0], 1e-9)); // fractional binary
        assert!(!m.is_feasible(&[1.0], 1e-9)); // wrong arity
        assert!(!m.is_feasible(&[2.0, 0.0], 1e-9)); // bound violation
    }

    #[test]
    fn sense_display() {
        assert_eq!(Sense::Le.to_string(), "≤");
        assert_eq!(Sense::Ge.to_string(), "≥");
        assert_eq!(Sense::Eq.to_string(), "=");
    }

    #[test]
    fn error_display() {
        let e = ModelError::Infeasible;
        assert_eq!(e.to_string(), "model is infeasible");
    }
}
