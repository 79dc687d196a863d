//! The LP engine against exact oracles: vertex enumeration on the original
//! problem for random LPs (cold, and warm after a bound cut), known optima
//! for degenerate fixtures, and exhaustive enumeration for small
//! pure-binary MILPs solved through the public API.
//!
//! The oracle works on the [`LpProblem`] as given, so a bug in the
//! engine's internal form (the shift/mirror/split of bounds, the slacks,
//! the recovery of original values) makes the two disagree.

mod oracle;

use milp_solver::simplex::{
    solve_lp_warm, Basis, LpOptions, LpProblem, LpResult, LpRow, LpStatus, SimplexWorkspace,
};
use milp_solver::{Model, ModelError, Sense, SolveOptions, Status};
use oracle::Exact;
use proptest::prelude::*;

fn solve(p: &LpProblem, capture: bool, warm: Option<&Basis>) -> LpResult {
    let opts = LpOptions {
        capture_basis: capture,
        ..LpOptions::default()
    };
    solve_lp_warm(p, &[], &[], &opts, &mut SimplexWorkspace::new(), warm)
}

fn feasible(p: &LpProblem, x: &[f64]) -> bool {
    x.iter()
        .enumerate()
        .all(|(j, &v)| v >= p.lower[j] - 1e-6 && v <= p.upper[j] + 1e-6)
        && p.rows.iter().all(|r| oracle::row_holds(r, x, 1e-6))
}

/// The engine's result must have the oracle's status; when optimal, the
/// oracle's objective to 1e-6, a feasible point, and that point's value.
fn check(p: &LpProblem, r: &LpResult) -> Result<(), TestCaseError> {
    let exact = oracle::solve_lp(p);
    match exact {
        Exact::Optimal(objective) => {
            prop_assert_eq!(r.status, LpStatus::Optimal, "oracle {:?}", exact);
            prop_assert!(
                (r.objective - objective).abs() < 1e-6,
                "engine {} vs oracle {}",
                r.objective,
                objective
            );
            prop_assert!(feasible(p, &r.values), "infeasible point {:?}", r.values);
            let value: f64 = r.values.iter().zip(&p.cost).map(|(x, c)| x * c).sum();
            prop_assert!((value - r.objective).abs() < 1e-6);
        }
        Exact::Infeasible => prop_assert_eq!(r.status, LpStatus::Infeasible),
        Exact::Unbounded => prop_assert_eq!(r.status, LpStatus::Unbounded),
    }
    Ok(())
}

/// Random LPs with mixed senses and every kind of bound — boxed,
/// lower-only, upper-only and free — so each of the engine's shift,
/// mirror and split transforms is drawn, along with phase 1, bound flips,
/// infeasible and unbounded problems.
fn arb_lp() -> impl Strategy<Value = LpProblem> {
    let sense = (0u8..3).prop_map(|s| match s {
        0 => Sense::Le,
        1 => Sense::Ge,
        _ => Sense::Eq,
    });
    (
        2usize..6,
        proptest::collection::vec(
            (
                proptest::collection::vec(-2.0f64..3.0, 6),
                sense,
                -4.0f64..10.0,
            ),
            1..5,
        ),
        proptest::collection::vec(-4.0f64..4.0, 6),
        proptest::collection::vec((-3.0f64..1.0, 2.0f64..6.0, 0u8..8), 6),
    )
        .prop_map(|(n, rows, cost, bounds)| LpProblem {
            cost: cost[..n].to_vec(),
            lower: bounds[..n]
                .iter()
                .map(|&(l, _, kind)| if kind < 5 { l } else { f64::NEG_INFINITY })
                .collect(),
            upper: bounds[..n]
                .iter()
                .map(|&(l, w, kind)| match kind {
                    0..3 | 5..7 => l + w,
                    _ => f64::INFINITY,
                })
                .collect(),
            rows: rows
                .into_iter()
                .map(|(coeffs, sense, rhs)| LpRow {
                    coeffs: coeffs[..n]
                        .iter()
                        .enumerate()
                        .filter(|(_, &a)| a.abs() > 0.05)
                        .map(|(j, &a)| (j, a))
                        .collect(),
                    sense,
                    rhs,
                })
                .collect(),
        })
}

/// A small pure-binary model: a knapsack (`≤` rows, maximise value) or a
/// covering (`≥ 1` rows over 0/1 memberships, minimise cost; a row no
/// variable covers makes it infeasible). Returned as cost and rows.
fn arb_binary() -> impl Strategy<Value = (Vec<f64>, Vec<LpRow>)> {
    (
        1usize..11,
        any::<bool>(),
        proptest::collection::vec((proptest::collection::vec(1u8..10, 10), 5u8..30), 1..4),
        proptest::collection::vec(1u8..10, 10),
    )
        .prop_map(|(n, knapsack, rows, cost)| {
            let sign = if knapsack { -1.0 } else { 1.0 };
            let cost = cost[..n].iter().map(|&c| sign * f64::from(c)).collect();
            let rows = rows
                .into_iter()
                .map(|(coeffs, cap)| {
                    let coeffs = coeffs[..n].iter().enumerate();
                    if knapsack {
                        LpRow {
                            coeffs: coeffs.map(|(j, &w)| (j, f64::from(w))).collect(),
                            sense: Sense::Le,
                            rhs: f64::from(cap),
                        }
                    } else {
                        LpRow {
                            coeffs: coeffs
                                .filter(|(_, &w)| w >= 6)
                                .map(|(j, _)| (j, 1.0))
                                .collect(),
                            sense: Sense::Ge,
                            rhs: 1.0,
                        }
                    }
                })
                .collect();
            (cost, rows)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prop_cold_matches_oracle(p in arb_lp()) {
        check(&p, &solve(&p, false, None))?;
    }

    /// A re-solve warm from the parent's basis after one bound is cut —
    /// the move branch and bound makes at every child — matches the
    /// oracle on the cut problem.
    #[test]
    fn prop_warm_after_bound_cut_matches_oracle(
        p in arb_lp(),
        var_pick in 0usize..6,
        frac in 0.1f64..0.9,
        cut_upper in any::<bool>(),
    ) {
        let parent = solve(&p, true, None);
        let j = var_pick % p.cost.len();
        let mut child = p.clone();
        let (l, u) = (p.lower[j], p.upper[j]);
        let cut = match (l.is_finite(), u.is_finite()) {
            (true, true) => l + frac * (u - l),
            (true, false) => l + 2.0 * frac,
            (false, true) => u - 2.0 * frac,
            (false, false) => 4.0 * frac - 2.0,
        };
        if cut_upper { child.upper[j] = cut; } else { child.lower[j] = cut; }
        check(&child, &solve(&child, false, parent.basis.as_ref()))?;
    }

    /// Branch and bound through `Model::solve` proves the enumerated
    /// optimum of every small binary knapsack and covering model.
    #[test]
    fn prop_milp_matches_enumeration((cost, rows) in arb_binary()) {
        let mut m = Model::new();
        let vars: Vec<_> = (0..cost.len()).map(|i| m.add_binary(format!("x{i}"))).collect();
        for r in &rows {
            let expr: Vec<_> = r.coeffs.iter().map(|&(j, a)| (vars[j], a)).collect();
            m.add_constraint(expr, r.sense, r.rhs).unwrap();
        }
        m.set_objective(vars.iter().zip(&cost).map(|(&v, &c)| (v, c)).collect::<Vec<_>>());
        let solved = m.solve(&SolveOptions::default());
        match oracle::best_binary(&cost, &rows) {
            None => prop_assert_eq!(solved.err(), Some(ModelError::Infeasible)),
            Some(best) => {
                let sol = solved.unwrap();
                prop_assert_eq!(sol.status(), Status::Optimal);
                prop_assert!((sol.objective() - best).abs() < 1e-6,
                    "branch and bound {} vs enumeration {}", sol.objective(), best);
                prop_assert!(m.is_feasible(sol.values(), 1e-6));
            }
        }
    }
}

/// Beale's classic cycling LP: the Harris ratio test's degenerate steps
/// must trip the Bland fallback, which must then terminate at the known
/// optimum `x = (1/25, 0, 1, 0)`, objective `−1/20`.
#[test]
fn beale_cycling_fixture_reaches_known_optimum() {
    let p = LpProblem {
        cost: vec![-0.75, 150.0, -0.02, 6.0],
        lower: vec![0.0; 4],
        upper: vec![f64::INFINITY; 4],
        rows: vec![
            LpRow {
                coeffs: vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
                sense: Sense::Le,
                rhs: 0.0,
            },
            LpRow {
                coeffs: vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
                sense: Sense::Le,
                rhs: 0.0,
            },
            LpRow {
                coeffs: vec![(2, 1.0)],
                sense: Sense::Le,
                rhs: 1.0,
            },
        ],
    };
    let r = solve(&p, false, None);
    assert_eq!(r.status, LpStatus::Optimal);
    assert!(
        (r.objective + 0.05).abs() < 1e-9,
        "objective {}",
        r.objective
    );
    assert!((r.values[0] - 0.04).abs() < 1e-7);
    assert!((r.values[2] - 1.0).abs() < 1e-7);
}

/// A massively degenerate 3×3 assignment LP (every supply and demand
/// equal to 1): many tied ratios at every pivot. The polytope's vertices
/// are the six permutations, so the optimum is the cheapest one,
/// `(0→1, 1→0, 2→2)` at cost `1 + 2 + 1 = 4`.
#[test]
fn degenerate_ties_fixture_reaches_known_optimum() {
    let n = 3usize;
    let cost = vec![4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 3.0, 2.0, 1.0];
    let mut rows = Vec::new();
    for i in 0..n {
        rows.push(LpRow {
            coeffs: (0..n).map(|j| (i * n + j, 1.0)).collect(),
            sense: Sense::Eq,
            rhs: 1.0,
        });
    }
    for j in 0..n {
        rows.push(LpRow {
            coeffs: (0..n).map(|i| (i * n + j, 1.0)).collect(),
            sense: Sense::Eq,
            rhs: 1.0,
        });
    }
    let p = LpProblem {
        cost,
        lower: vec![0.0; n * n],
        upper: vec![1.0; n * n],
        rows,
    };
    let r = solve(&p, false, None);
    assert_eq!(r.status, LpStatus::Optimal);
    assert!(
        (r.objective - 4.0).abs() < 1e-9,
        "objective {}",
        r.objective
    );
}

/// Factorization counters must actually move.
#[test]
fn factor_stats_flow_from_sparse_engine() {
    let p = LpProblem {
        cost: vec![2.0, 3.0, 1.0],
        lower: vec![0.0; 3],
        upper: vec![f64::INFINITY; 3],
        rows: vec![
            LpRow {
                coeffs: vec![(0, 1.0), (1, 1.0)],
                sense: Sense::Ge,
                rhs: 5.0,
            },
            LpRow {
                coeffs: vec![(1, 1.0), (2, 1.0)],
                sense: Sense::Eq,
                rhs: 2.0,
            },
        ],
    };
    let r = solve(&p, false, None);
    assert_eq!(r.status, LpStatus::Optimal);
    assert!(
        r.factor.refactorizations >= 1,
        "a solve must factorize at least once"
    );
}
