//! Engine-equivalence suite: the sparse revised simplex must agree with
//! the retained dense tableau on randomized bounded LPs — same terminal
//! status, same objective to 1e-6, interchangeable warm-start snapshots —
//! and survive pathological degeneracy via the Harris ratio test and the
//! Bland fallback.

use milp_solver::simplex::{
    solve_lp_warm, LpEngine, LpOptions, LpProblem, LpResult, LpRow, LpStatus, SimplexWorkspace,
};
use milp_solver::{LpEngine as RootLpEngine, Model, Sense, SolveOptions};
use proptest::prelude::*;

fn solve_with(p: &LpProblem, engine: LpEngine, capture: bool) -> LpResult {
    let opts = LpOptions {
        capture_basis: capture,
        engine,
        ..LpOptions::default()
    };
    solve_lp_warm(p, &[], &[], &opts, &mut SimplexWorkspace::new(), None)
}

fn feasible(p: &LpProblem, lower: &[f64], upper: &[f64], x: &[f64]) -> bool {
    let l = |j: usize| {
        if lower.is_empty() {
            p.lower[j]
        } else {
            lower[j]
        }
    };
    let u = |j: usize| {
        if upper.is_empty() {
            p.upper[j]
        } else {
            upper[j]
        }
    };
    x.iter()
        .enumerate()
        .all(|(j, &v)| v >= l(j) - 1e-6 && v <= u(j) + 1e-6)
        && p.rows.iter().all(|r| {
            let lhs: f64 = r.coeffs.iter().map(|&(j, a)| a * x[j]).sum();
            match r.sense {
                Sense::Le => lhs <= r.rhs + 1e-6,
                Sense::Ge => lhs >= r.rhs - 1e-6,
                Sense::Eq => (lhs - r.rhs).abs() <= 1e-6,
            }
        })
}

/// Randomized LPs with mixed senses, negative lower bounds, and a mix of
/// finite/infinite upper bounds — wide enough to hit phase 1, bound
/// flips, and every Recover transform.
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
        proptest::collection::vec((-3.0f64..1.0, 2.0f64..6.0, any::<bool>()), 6),
    )
        .prop_map(|(n, rows, cost, bounds)| LpProblem {
            cost: cost[..n].to_vec(),
            lower: bounds[..n].iter().map(|&(l, _, _)| l).collect(),
            upper: bounds[..n]
                .iter()
                .map(|&(l, w, inf)| if inf { f64::INFINITY } else { l + w })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Same status on every random LP; on optimal, same objective to
    /// 1e-6 and a feasible solution from both engines.
    #[test]
    fn prop_engines_agree_cold(p in arb_lp()) {
        let sparse = solve_with(&p, LpEngine::Sparse, false);
        let dense = solve_with(&p, LpEngine::Dense, false);
        prop_assert_eq!(sparse.status, dense.status,
            "sparse {:?} vs dense {:?}", sparse.status, dense.status);
        if sparse.status == LpStatus::Optimal {
            prop_assert!((sparse.objective - dense.objective).abs() < 1e-6,
                "sparse {} vs dense {}", sparse.objective, dense.objective);
            prop_assert!(feasible(&p, &[], &[], &sparse.values));
            prop_assert!(feasible(&p, &[], &[], &dense.values));
        }
    }

    /// Warm-started re-solves after a bound tightening: both engines, and
    /// crucially a basis captured by ONE engine replayed on the OTHER,
    /// all land on the cold sparse objective. This is the snapshot
    /// portability the branch-and-bound warm-start contract relies on.
    #[test]
    fn prop_engines_agree_warm_and_cross(
        p in arb_lp(),
        var_pick in 0usize..6,
        frac in 0.1f64..0.9,
        cut_upper in any::<bool>(),
    ) {
        let sparse_parent = solve_with(&p, LpEngine::Sparse, true);
        let dense_parent = solve_with(&p, LpEngine::Dense, true);
        prop_assert_eq!(sparse_parent.status, dense_parent.status);
        if sparse_parent.status != LpStatus::Optimal {
            return Ok(());
        }
        let j = var_pick % p.cost.len();
        let mut lower = p.lower.clone();
        let mut upper = p.upper.clone();
        let span = if p.upper[j].is_finite() { p.upper[j] - p.lower[j] } else { 2.0 };
        let cut = p.lower[j] + frac * span;
        if cut_upper { upper[j] = cut; } else { lower[j] = cut; }

        let mut reference: Option<LpResult> = None;
        for (engine, basis) in [
            (LpEngine::Sparse, &sparse_parent.basis),
            (LpEngine::Dense, &dense_parent.basis),
            // Cross-engine replay: dense snapshot into the sparse engine
            // and vice versa.
            (LpEngine::Sparse, &dense_parent.basis),
            (LpEngine::Dense, &sparse_parent.basis),
        ] {
            let opts = LpOptions { engine, ..LpOptions::default() };
            let r = solve_lp_warm(
                &p, &lower, &upper, &opts, &mut SimplexWorkspace::new(), basis.as_ref(),
            );
            match &reference {
                None => reference = Some(r),
                Some(base) => {
                    prop_assert_eq!(r.status, base.status,
                        "engine {:?} status diverged", engine);
                    if base.status == LpStatus::Optimal {
                        prop_assert!((r.objective - base.objective).abs() < 1e-6,
                            "engine {:?}: {} vs {}", engine, r.objective, base.objective);
                        prop_assert!(feasible(&p, &lower, &upper, &r.values));
                    }
                }
            }
        }
    }
}

/// Beale's classic cycling LP on the sparse engine explicitly: the Harris
/// ratio test's degenerate steps must trip the Bland fallback, which must
/// then terminate at the true optimum — same contract the dense engine's
/// inline test pins down.
#[test]
fn beale_cycling_fixture_both_engines() {
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
    for engine in [LpEngine::Sparse, LpEngine::Dense] {
        let r = solve_with(&p, engine, false);
        assert_eq!(r.status, LpStatus::Optimal, "{engine:?}");
        assert!(
            (r.objective + 0.05).abs() < 1e-9,
            "{engine:?} objective {}",
            r.objective
        );
    }
}

/// A massively degenerate transportation-style LP: many tied ratios at
/// every pivot. Both engines must terminate (Harris pass-2 pivot choice,
/// then Bland if a stall develops) and agree on the optimum.
#[test]
fn degenerate_ties_fixture_both_engines() {
    // min Σ c_ij x_ij over a 3×3 doubly stochastic-ish polytope where
    // every supply/demand equals 1 — the classic degenerate case.
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
    // Optimal assignment: (0,1), (1,0)/(1,1) tie resolved by cost — the
    // LP optimum is the assignment-problem optimum 1 + 0 + 1... check by
    // both engines agreeing and beating a known feasible point (identity
    // permutation = 4 + 0 + 1 = 5).
    let sparse = solve_with(&p, LpEngine::Sparse, false);
    let dense = solve_with(&p, LpEngine::Dense, false);
    assert_eq!(sparse.status, LpStatus::Optimal);
    assert_eq!(dense.status, LpStatus::Optimal);
    assert!((sparse.objective - dense.objective).abs() < 1e-9);
    assert!(sparse.objective <= 5.0 + 1e-9);
}

/// Full MILP equivalence through the public API: branch and bound on the
/// sparse and dense engines must prove the same optimum.
#[test]
fn milp_engines_agree_on_knapsack() {
    let build = || {
        let mut m = Model::new();
        let vars: Vec<_> = (0..8).map(|i| m.add_binary(format!("x{i}"))).collect();
        let weights = [3.0, 4.0, 5.0, 2.0, 6.0, 1.0, 4.0, 3.0];
        let values = [4.0, 5.0, 6.0, 3.0, 8.0, 1.0, 5.0, 4.0];
        let load: Vec<_> = vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect();
        m.add_constraint(load, Sense::Le, 12.0).unwrap();
        let gain: Vec<_> = vars.iter().zip(values).map(|(&v, c)| (v, -c)).collect();
        m.set_objective(gain);
        m
    };
    let sparse = build()
        .solve(&SolveOptions::default().with_lp_engine(RootLpEngine::Sparse))
        .unwrap();
    let dense = build()
        .solve(&SolveOptions::default().with_lp_engine(RootLpEngine::Dense))
        .unwrap();
    assert!((sparse.objective() - dense.objective()).abs() < 1e-6);
    assert_eq!(
        format!("{:?}", sparse.status()),
        format!("{:?}", dense.status())
    );
}

/// Factorization counters must actually move on the sparse path and stay
/// zero on the dense path.
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
    let sparse = solve_with(&p, LpEngine::Sparse, false);
    assert_eq!(sparse.status, LpStatus::Optimal);
    assert!(
        sparse.factor.refactorizations >= 1,
        "sparse solve must factorize at least once"
    );
    let dense = solve_with(&p, LpEngine::Dense, false);
    assert_eq!(dense.factor.refactorizations, 0);
    assert_eq!(dense.factor.eta_updates, 0);
}
