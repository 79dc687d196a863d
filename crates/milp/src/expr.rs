//! Variables and linear expressions.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A handle to a decision variable of a [`Model`](crate::Model).
///
/// Handles are only meaningful with the model that created them; using a
/// handle with a different model is caught by constraint validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

// Ordered by hand: a derived `PartialOrd` calls `partial_cmp`, which
// clippy's L2 entry disallows (DESIGN.md §12).
impl Ord for Var {
    #[inline]
    fn cmp(&self, other: &Var) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Var {
    #[inline]
    fn partial_cmp(&self, other: &Var) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Var {
    /// The dense index of this variable within its model.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A linear expression `Σ cⱼ·xⱼ + constant`.
///
/// Expressions combine with `+`, `-` and scalar `*`; coefficients of the
/// same variable merge automatically.
///
/// # Examples
///
/// ```
/// use milp_solver::{LinExpr, Model};
///
/// let mut m = Model::new();
/// let x = m.add_binary("x");
/// let y = m.add_binary("y");
/// let e = LinExpr::from(x) * 2.0 + LinExpr::from(y) - 1.0;
/// assert_eq!(e.coefficient(x), 2.0);
/// assert_eq!(e.constant(), -1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinExpr {
    terms: BTreeMap<Var, f64>,
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `coefficient · var` to the expression.
    pub fn add_term(&mut self, var: Var, coefficient: f64) -> &mut Self {
        let c = self.terms.entry(var).or_insert(0.0);
        *c += coefficient;
        if c.abs() < 1e-15 {
            self.terms.remove(&var);
        }
        self
    }

    /// Adds a constant offset.
    pub fn add_constant(&mut self, value: f64) -> &mut Self {
        self.constant += value;
        self
    }

    /// The coefficient of `var` (0 if absent).
    #[must_use]
    pub fn coefficient(&self, var: Var) -> f64 {
        self.terms.get(&var).copied().unwrap_or(0.0)
    }

    /// The constant offset.
    #[must_use]
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Iterates over `(variable, coefficient)` terms in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (Var, f64)> + '_ {
        self.terms.iter().map(|(&v, &c)| (v, c))
    }

    /// Number of variables with non-zero coefficient.
    #[must_use]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` if the expression has no variable terms.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates the expression on an assignment `values[j] = xⱼ`.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is outside `values`.
    #[must_use]
    pub fn evaluate(&self, values: &[f64]) -> f64 {
        self.constant + self.terms.iter().map(|(v, c)| c * values[v.0]).sum::<f64>()
    }
}

impl From<Var> for LinExpr {
    fn from(v: Var) -> Self {
        let mut e = LinExpr::new();
        e.add_term(v, 1.0);
        e
    }
}

impl From<f64> for LinExpr {
    fn from(c: f64) -> Self {
        let mut e = LinExpr::new();
        e.add_constant(c);
        e
    }
}

impl FromIterator<(Var, f64)> for LinExpr {
    fn from_iter<I: IntoIterator<Item = (Var, f64)>>(terms: I) -> Self {
        let mut e = LinExpr::new();
        for (v, c) in terms {
            e.add_term(v, c);
        }
        e
    }
}

/// Conversion into a [`LinExpr`], accepted by
/// [`Model::add_constraint`](crate::Model::add_constraint) and
/// [`Model::set_objective`](crate::Model::set_objective).
///
/// Implemented for expressions themselves, single variables, constants,
/// and `(Var, coefficient)` collections (arrays, slices, vectors).
pub trait IntoExpr {
    /// Converts `self` into a linear expression.
    fn into_expr(self) -> LinExpr;
}

impl IntoExpr for LinExpr {
    fn into_expr(self) -> LinExpr {
        self
    }
}

impl IntoExpr for Var {
    fn into_expr(self) -> LinExpr {
        LinExpr::from(self)
    }
}

impl IntoExpr for f64 {
    fn into_expr(self) -> LinExpr {
        LinExpr::from(self)
    }
}

impl<const N: usize> IntoExpr for [(Var, f64); N] {
    fn into_expr(self) -> LinExpr {
        self.into_iter().collect()
    }
}

impl IntoExpr for Vec<(Var, f64)> {
    fn into_expr(self) -> LinExpr {
        self.into_iter().collect()
    }
}

impl IntoExpr for &[(Var, f64)] {
    fn into_expr(self) -> LinExpr {
        self.iter().copied().collect()
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: f64) -> LinExpr {
        self.constant -= rhs;
        self
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for c in self.terms.values_mut() {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        if rhs == 0.0 {
            return LinExpr::new();
        }
        for c in self.terms.values_mut() {
            *c *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.terms {
            if first {
                write!(f, "{c}·{v}")?;
                first = false;
            } else if *c >= 0.0 {
                write!(f, " + {c}·{v}")?;
            } else {
                write!(f, " - {}·{v}", -c)?;
            }
        }
        if self.constant != 0.0 || first {
            if first {
                write!(f, "{}", self.constant)?;
            } else if self.constant >= 0.0 {
                write!(f, " + {}", self.constant)?;
            } else {
                write!(f, " - {}", -self.constant)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> Var {
        Var(i)
    }

    #[test]
    fn terms_merge_and_cancel() {
        let mut e = LinExpr::new();
        e.add_term(v(0), 2.0);
        e.add_term(v(0), 3.0);
        assert_eq!(e.coefficient(v(0)), 5.0);
        e.add_term(v(0), -5.0);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn arithmetic_composes() {
        let a = LinExpr::from(v(0)) * 2.0 + LinExpr::from(v(1));
        let b = LinExpr::from(v(0)) - 3.0;
        let c = a.clone() + b.clone();
        assert_eq!(c.coefficient(v(0)), 3.0);
        assert_eq!(c.coefficient(v(1)), 1.0);
        assert_eq!(c.constant(), -3.0);
        let d = a - b;
        assert_eq!(d.coefficient(v(0)), 1.0);
        assert_eq!(d.constant(), 3.0);
        let n = -LinExpr::from(v(2));
        assert_eq!(n.coefficient(v(2)), -1.0);
    }

    #[test]
    fn mul_by_zero_clears() {
        let e = (LinExpr::from(v(0)) + 5.0) * 0.0;
        assert!(e.is_empty());
        assert_eq!(e.constant(), 0.0);
    }

    #[test]
    fn evaluate_on_assignment() {
        let e = LinExpr::from(v(0)) * 2.0 + LinExpr::from(v(2)) + 1.0;
        assert_eq!(e.evaluate(&[1.0, 9.0, 3.0]), 2.0 + 3.0 + 1.0);
    }

    #[test]
    fn from_iterator_of_pairs() {
        let e: LinExpr = [(v(0), 1.0), (v(1), 2.0), (v(0), 1.0)]
            .into_iter()
            .collect();
        assert_eq!(e.coefficient(v(0)), 2.0);
        assert_eq!(e.coefficient(v(1)), 2.0);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut e = LinExpr::from(v(0));
        e += LinExpr::from(v(1)) + 2.0;
        assert_eq!(e.coefficient(v(1)), 1.0);
        assert_eq!(e.constant(), 2.0);
    }

    #[test]
    fn display_is_readable() {
        let e = LinExpr::from(v(0)) * 2.0 - LinExpr::from(v(1)) + 1.0;
        assert_eq!(e.to_string(), "2·x0 - 1·x1 + 1");
        assert_eq!(LinExpr::new().to_string(), "0");
    }
}
