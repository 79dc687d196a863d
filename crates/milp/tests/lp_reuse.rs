//! The property branch and bound relies on when it hands a root
//! strong-branch probe's LP result to the child it previews: an LP solve
//! is a pure function of its problem, bounds, options and warm basis. The
//! reusable workspace it runs on must carry nothing over from the LPs it
//! solved before, so solving on a fresh workspace and on a used one gives
//! the same status, objective and value bits, basis snapshot and pivot
//! counts.

use milp_solver::simplex::{
    solve_lp_warm, Basis, LpOptions, LpProblem, LpResult, LpRow, LpStatus, SimplexWorkspace,
};
use milp_solver::Sense;
use proptest::prelude::*;
use std::ops::Range;

/// How many LPs of one tree are compared.
const MAX_LPS: usize = 40;

/// A small pure-integer MILP's relaxation: variables in `[0, 3]`, `≤` and
/// `≥` rows with small integer coefficients, mostly positive, and a
/// mostly negative cost, so most relaxations are fractional and branch.
fn arb_milp(vars: Range<usize>, rows: Range<usize>) -> impl Strategy<Value = LpProblem> {
    let max_vars = vars.end;
    (
        vars,
        proptest::collection::vec(
            (
                proptest::collection::vec(-2i32..6, max_vars),
                any::<bool>(),
                2i32..14,
            ),
            rows,
        ),
        proptest::collection::vec(-6i32..3, max_vars),
    )
        .prop_map(|(n, rows, cost)| LpProblem {
            cost: cost[..n].iter().map(|&c| f64::from(c)).collect(),
            lower: vec![0.0; n],
            upper: vec![3.0; n],
            rows: rows
                .into_iter()
                .map(|(coeffs, le, rhs)| LpRow {
                    coeffs: coeffs[..n]
                        .iter()
                        .enumerate()
                        .filter(|(_, &a)| a != 0)
                        .map(|(j, &a)| (j, f64::from(a)))
                        .collect(),
                    sense: if le { Sense::Le } else { Sense::Ge },
                    rhs: f64::from(if le { rhs } else { rhs / 3 }),
                })
                .collect(),
        })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Everything a reused result hands on, in a comparable form.
fn fingerprint(r: &LpResult) -> String {
    format!(
        "{:?} obj {:#x} values {:?} basis {:?} pivots {}/{} phase1 {} warm {} factor {:?}",
        r.status,
        r.objective.to_bits(),
        bits(&r.values),
        r.basis,
        r.pivots,
        r.dual_pivots,
        r.phase1,
        r.warm_used,
        r.factor,
    )
}

/// Walks `p`'s branch-and-bound tree breadth first — children warm from
/// their parent's basis, branching on the most fractional variable — and
/// solves every node LP twice: on a workspace that has just solved other
/// LPs (the tree so far, plus `noise` now and then) and on a fresh one.
fn check_tree(p: &LpProblem, noise: &LpProblem) -> Result<(), TestCaseError> {
    let options = LpOptions {
        capture_basis: true,
        ..LpOptions::default()
    };
    let mut used = SimplexWorkspace::new();
    let noisy = solve_lp_warm(noise, &[], &[], &options, &mut used, None);
    let mut queue: std::collections::VecDeque<(Vec<f64>, Vec<f64>, Option<Basis>)> =
        [(p.lower.clone(), p.upper.clone(), None)].into();
    let mut solved = 0usize;
    while let Some((lower, upper, warm)) = queue.pop_front() {
        if solved == MAX_LPS {
            break;
        }
        if solved % 3 == 2 {
            // A larger, unrelated LP leaves oversized, dirty buffers
            // behind; warm from its own basis so the dual path runs too.
            let _ = solve_lp_warm(noise, &[], &[], &options, &mut used, noisy.basis.as_ref());
        }
        solved += 1;
        let reused = solve_lp_warm(p, &lower, &upper, &options, &mut used, warm.as_ref());
        let fresh = solve_lp_warm(
            p,
            &lower,
            &upper,
            &options,
            &mut SimplexWorkspace::new(),
            warm.as_ref(),
        );
        prop_assert_eq!(fingerprint(&reused), fingerprint(&fresh), "LP #{}", solved);
        if fresh.status != LpStatus::Optimal {
            continue;
        }
        let branch = (0..p.cost.len())
            .map(|j| (j, fresh.values[j] - fresh.values[j].floor()))
            .filter(|&(_, f)| f > 1e-6 && f < 1.0 - 1e-6)
            .max_by(|a, b| (0.5 - (a.1 - 0.5).abs()).total_cmp(&(0.5 - (b.1 - 0.5).abs())));
        if let Some((j, _)) = branch {
            let x = fresh.values[j];
            let mut down = upper.clone();
            down[j] = x.floor();
            queue.push_back((lower.clone(), down, fresh.basis.clone()));
            let mut up = lower;
            up[j] = x.ceil();
            queue.push_back((up, upper, fresh.basis));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_lp_results_do_not_depend_on_the_workspace(
        p in arb_milp(4..24, 2..10),
        noise in arb_milp(24..40, 10..16),
    ) {
        check_tree(&p, &noise)?;
    }
}
