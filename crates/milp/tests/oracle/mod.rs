//! Exact reference solvers for the tiny problems the property tests draw.
//!
//! [`solve_lp`] enumerates the vertices of an [`LpProblem`] as given: every
//! choice of `n` active constraints among the rows and the finite bounds,
//! solved by Gaussian elimination and kept when it satisfies every other
//! constraint. It shares no code with the engine: no shift, mirror or
//! split of bounds, no slacks, no basis. [`best_binary`] enumerates all
//! `2^n` points of a pure-binary model.
//!
//! Vertex enumeration needs a polyhedron without lines. A free variable is
//! therefore written as `x = x⁺ − x⁻` with `x⁺, x⁻ ≥ 0` first; every other
//! variable has a finite bound on at least one side, so a non-empty
//! feasible region has a vertex, and the LP is infeasible exactly when no
//! candidate point is feasible.

use milp_solver::simplex::{LpProblem, LpRow};
use milp_solver::Sense;

/// The exact outcome of an LP.
#[derive(Debug)]
pub enum Exact {
    /// The least objective over the feasible vertices.
    Optimal(f64),
    Infeasible,
    Unbounded,
}

/// One dense constraint `a·x (sense) rhs`.
struct Con {
    a: Vec<f64>,
    sense: Sense,
    rhs: f64,
}

/// Tolerance for a candidate point to count as satisfying a constraint.
const TOL: f64 = 1e-9;

/// Solves `p` exactly by vertex enumeration.
pub fn solve_lp(p: &LpProblem) -> Exact {
    // Free variables become `plus − minus` columns; `cols[j]` lists the
    // expanded columns of original variable `j` with their sign.
    let mut cols: Vec<Vec<(usize, f64)>> = Vec::new();
    let (mut lower, mut upper, mut cost) = (Vec::new(), Vec::new(), Vec::new());
    for j in 0..p.cost.len() {
        let free = p.lower[j] == f64::NEG_INFINITY && p.upper[j] == f64::INFINITY;
        let parts: &[f64] = if free { &[1.0, -1.0] } else { &[1.0] };
        let mut mine = Vec::new();
        for &sign in parts {
            mine.push((cost.len(), sign));
            cost.push(sign * p.cost[j]);
            lower.push(if free { 0.0 } else { p.lower[j] });
            upper.push(if free { f64::INFINITY } else { p.upper[j] });
        }
        cols.push(mine);
    }
    let n = cost.len();
    let dense = |row: &LpRow| {
        let mut a = vec![0.0; n];
        for &(j, v) in &row.coeffs {
            for &(c, sign) in &cols[j] {
                a[c] += sign * v;
            }
        }
        a
    };
    let unit = |j: usize| {
        let mut a = vec![0.0; n];
        a[j] = 1.0;
        a
    };

    // The feasible region: rows, then finite bounds.
    let mut region: Vec<Con> = p
        .rows
        .iter()
        .map(|r| Con {
            a: dense(r),
            sense: r.sense,
            rhs: r.rhs,
        })
        .collect();
    // Its recession cone, normalised to a polytope by `Σ s_j·d_j = 1`
    // with `s_j` the sign every direction of the cone has in column `j`
    // (the sum is then `‖d‖₁`); its vertices are the extreme rays.
    let mut cone: Vec<Con> = region
        .iter()
        .map(|c| Con {
            a: c.a.clone(),
            sense: c.sense,
            rhs: 0.0,
        })
        .collect();
    let mut norm = vec![0.0; n];
    for j in 0..n {
        if lower[j].is_finite() {
            region.push(Con {
                a: unit(j),
                sense: Sense::Ge,
                rhs: lower[j],
            });
            cone.push(Con {
                a: unit(j),
                sense: Sense::Ge,
                rhs: 0.0,
            });
        }
        if upper[j].is_finite() {
            region.push(Con {
                a: unit(j),
                sense: Sense::Le,
                rhs: upper[j],
            });
            cone.push(Con {
                a: unit(j),
                sense: Sense::Le,
                rhs: 0.0,
            });
        }
        norm[j] = if lower[j].is_finite() { 1.0 } else { -1.0 };
    }
    cone.push(Con {
        a: norm,
        sense: Sense::Eq,
        rhs: 1.0,
    });

    let Some(objective) = best_vertex(&region, &cost) else {
        return Exact::Infeasible;
    };
    if best_vertex(&cone, &cost).is_some_and(|slope| slope < -TOL) {
        return Exact::Unbounded;
    }
    Exact::Optimal(objective)
}

/// The least `cost·x` over the feasible vertices of `cons`, if any.
fn best_vertex(cons: &[Con], cost: &[f64]) -> Option<f64> {
    let n = cost.len();
    let mut best: Option<f64> = None;
    // `pick` walks every n-subset of the constraints in lexicographic order.
    let mut pick: Vec<usize> = (0..n).collect();
    while n <= cons.len() {
        if let Some(x) = intersect(cons, &pick) {
            if cons.iter().all(|c| satisfied(c, &x)) {
                let obj: f64 = x.iter().zip(cost).map(|(v, c)| v * c).sum();
                best = Some(best.map_or(obj, |b| b.min(obj)));
            }
        }
        let Some(k) = (0..n).rev().find(|&k| pick[k] < cons.len() - n + k) else {
            break;
        };
        pick[k] += 1;
        for i in k + 1..n {
            pick[i] = pick[i - 1] + 1;
        }
    }
    best
}

/// The unique point where the picked constraints all hold with equality,
/// by Gaussian elimination with partial pivoting; `None` when singular.
fn intersect(cons: &[Con], pick: &[usize]) -> Option<Vec<f64>> {
    let n = pick.len();
    let mut m: Vec<Vec<f64>> = pick
        .iter()
        .map(|&i| {
            let mut row = cons[i].a.clone();
            row.push(cons[i].rhs);
            row
        })
        .collect();
    for k in 0..n {
        let r = (k..n).max_by(|&a, &b| m[a][k].abs().total_cmp(&m[b][k].abs()))?;
        if m[r][k].abs() < 1e-9 {
            return None;
        }
        m.swap(k, r);
        let pivot = m[k].clone();
        for (i, row) in m.iter_mut().enumerate() {
            if i != k {
                let f = row[k] / pivot[k];
                for (x, p) in row[k..].iter_mut().zip(&pivot[k..]) {
                    *x -= f * p;
                }
            }
        }
    }
    Some((0..n).map(|k| m[k][n] / m[k][k]).collect())
}

fn satisfied(c: &Con, x: &[f64]) -> bool {
    let lhs: f64 = c.a.iter().zip(x).map(|(a, v)| a * v).sum();
    let tol = TOL * (1.0 + c.rhs.abs());
    match c.sense {
        Sense::Le => lhs <= c.rhs + tol,
        Sense::Ge => lhs >= c.rhs - tol,
        Sense::Eq => (lhs - c.rhs).abs() <= tol,
    }
}

/// The least `cost·x` over `x ∈ {0, 1}^n` satisfying every row exactly,
/// or `None` when no point does. For `n ≤ 10`.
pub fn best_binary(cost: &[f64], rows: &[LpRow]) -> Option<f64> {
    let n = cost.len();
    assert!(n <= 10, "2^{n} points is too many to enumerate");
    (0u32..1 << n)
        .filter_map(|mask| {
            let x: Vec<f64> = (0..n).map(|j| f64::from((mask >> j) & 1)).collect();
            let fits = rows.iter().all(|r| row_holds(r, &x, 0.0));
            fits.then(|| x.iter().zip(cost).map(|(v, c)| v * c).sum::<f64>())
        })
        .min_by(f64::total_cmp)
}

/// Whether `x` satisfies `row` to within `tol`.
pub fn row_holds(row: &LpRow, x: &[f64], tol: f64) -> bool {
    let lhs: f64 = row.coeffs.iter().map(|&(j, a)| a * x[j]).sum();
    match row.sense {
        Sense::Le => lhs <= row.rhs + tol,
        Sense::Ge => lhs >= row.rhs - tol,
        Sense::Eq => (lhs - row.rhs).abs() <= tol,
    }
}
