//! Solver trajectory pins: the MILP's own counters for the four tracked
//! MILP benchmarks under the default strategy and a serial search. The
//! sparse LU layer and the dual iteration may be rewritten for speed,
//! but every floating-point operation has to stay the same and run in
//! the same order, so each LP takes the same pivots and branch and bound
//! visits the same nodes. Any drift in the arithmetic shows up here as a
//! changed pivot, node or refactorization count long before it changes
//! a design.

use std::time::Duration;

use sring::core::{AssignmentStrategy, MilpOptions, SringConfig, SringSynthesizer};
use sring::ctx::ExecCtx;
use sring::graph::benchmarks::Benchmark;

/// Expected counters of one benchmark's assignment MILP.
struct Pin {
    benchmark: Benchmark,
    nodes: usize,
    /// LP calls, solved or reused (`lp_solves + lp_reused`).
    lp_calls: usize,
    lp_reused: usize,
    primal_pivots: usize,
    dual_pivots: usize,
    refactorizations: usize,
    eta_updates: usize,
    max_fill_in: usize,
    polish_nodes: usize,
    polish_pivots: usize,
    objective_bits: u64,
    wavelengths: &'static [usize],
}

/// Captured from the solver before the sparse-reach LU, the eta arena,
/// the fused dual `btran` and candidate screening went in. The polish
/// counters came later; they split out work the node and pivot totals
/// already count. Root LP reuse keeps every node, LP call, design and
/// the fill-in peak, but the reused LPs no longer pivot: the pivot,
/// refactorization, eta and polish-pivot counts were re-captured then.
const PINS: [Pin; 4] = [
    Pin {
        benchmark: Benchmark::Mwd,
        nodes: 59,
        lp_calls: 107,
        lp_reused: 2,
        primal_pivots: 102,
        dual_pivots: 1231,
        refactorizations: 106,
        eta_updates: 1333,
        max_fill_in: 26,
        polish_nodes: 0,
        polish_pivots: 0,
        objective_bits: 0x402c_0f5c_28f5_c28f,
        wavelengths: &[0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0],
    },
    Pin {
        benchmark: Benchmark::Vopd,
        nodes: 1695,
        lp_calls: 1743,
        lp_reused: 2,
        primal_pivots: 185,
        dual_pivots: 43365,
        refactorizations: 1943,
        eta_updates: 43549,
        max_fill_in: 167,
        polish_nodes: 0,
        polish_pivots: 0,
        objective_bits: 0x4038_af5c_28f5_c28f,
        wavelengths: &[
            0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 2, 0, 2, 0, 0, 0, 0,
        ],
    },
    Pin {
        benchmark: Benchmark::Mpeg,
        nodes: 5,
        lp_calls: 53,
        lp_reused: 2,
        primal_pivots: 389,
        dual_pivots: 5591,
        refactorizations: 121,
        eta_updates: 5980,
        max_fill_in: 504,
        polish_nodes: 0,
        polish_pivots: 0,
        objective_bits: 0x4049_08f5_c28f_5c28,
        wavelengths: &[
            0, 1, 2, 2, 3, 3, 4, 4, 5, 5, 5, 6, 7, 7, 0, 0, 6, 6, 7, 7, 6, 2, 4, 4, 1, 1,
        ],
    },
    Pin {
        benchmark: Benchmark::Pm8x24,
        nodes: 24,
        lp_calls: 120,
        lp_reused: 53,
        primal_pivots: 399,
        dual_pivots: 9810,
        refactorizations: 196,
        eta_updates: 10210,
        max_fill_in: 562,
        polish_nodes: 12,
        polish_pivots: 1802,
        objective_bits: 0x4038_e666_6666_6666,
        wavelengths: &[
            0, 0, 1, 1, 1, 1, 2, 2, 1, 1, 3, 3, 3, 3, 2, 2, 3, 3, 0, 0, 0, 0, 2, 2,
        ],
    },
];

fn check(pin: &Pin) {
    // The default strategy with a serial search, as `--threads 1` runs
    // it. The budget is widened from the default 3 s because it only cuts
    // the search off: all four instances prove optimality well inside
    // 3 s in a release build, and a loaded test host must not turn a
    // pinned trajectory into a truncated one.
    let strategy = match AssignmentStrategy::default() {
        AssignmentStrategy::Auto {
            milp_max_paths,
            options,
        } => AssignmentStrategy::Auto {
            milp_max_paths,
            options: MilpOptions {
                threads: 1,
                time_limit: Duration::from_secs(120),
                ..options
            },
        },
        other => other,
    };
    let synth = SringSynthesizer::with_config(SringConfig {
        strategy,
        ..SringConfig::default()
    });
    let app = pin.benchmark.graph();
    let report = synth
        .synthesize_detailed_ctx(&app, &ExecCtx::new())
        .expect("benchmark synthesizes");
    let a = &report.assignment;
    let s = a.solver_stats.as_ref().expect("the MILP ran");
    let wavelengths: Vec<usize> = a.wavelengths.iter().map(|w| w.0).collect();
    let got = format!(
        "{} nodes {} lp_calls {} reused {} primal {} dual {} refactorizations {} etas {} \
         fill {} polish {}/{} objective {:#018x} wavelengths {:?}",
        pin.benchmark,
        s.nodes_explored,
        s.lp_solves + s.lp_reused,
        s.lp_reused,
        s.primal_pivots,
        s.dual_pivots,
        s.refactorizations,
        s.eta_updates,
        s.max_fill_in,
        s.polish_nodes,
        s.polish_pivots,
        a.objective.to_bits(),
        wavelengths,
    );
    let want = format!(
        "{} nodes {} lp_calls {} reused {} primal {} dual {} refactorizations {} etas {} \
         fill {} polish {}/{} objective {:#018x} wavelengths {:?}",
        pin.benchmark,
        pin.nodes,
        pin.lp_calls,
        pin.lp_reused,
        pin.primal_pivots,
        pin.dual_pivots,
        pin.refactorizations,
        pin.eta_updates,
        pin.max_fill_in,
        pin.polish_nodes,
        pin.polish_pivots,
        pin.objective_bits,
        pin.wavelengths,
    );
    assert!(a.proven_optimal, "{}: not proven optimal", pin.benchmark);
    assert_eq!(got, want);
}

#[test]
fn mwd_trajectory_is_pinned() {
    check(&PINS[0]);
}

#[test]
fn vopd_trajectory_is_pinned() {
    check(&PINS[1]);
}

#[test]
fn mpeg_trajectory_is_pinned() {
    check(&PINS[2]);
}

#[test]
fn pm8x24_trajectory_is_pinned() {
    check(&PINS[3]);
}
