//! Solver trajectory pins: the MILP's own counters for the four tracked
//! MILP benchmarks and one tied-optimum instance under the default
//! strategy. The sparse LU layer and the dual iteration may be rewritten for speed,
//! but every floating-point operation has to stay the same and run in
//! the same order, so each LP takes the same pivots and branch and bound
//! visits the same nodes. Any drift in the arithmetic shows up here as a
//! changed pivot, node or refactorization count long before it changes
//! a design.

use std::time::Duration;

use sring::core::{design_bytes, AssignmentStrategy, MilpOptions, SringConfig, SringSynthesizer};
use sring::ctx::ExecCtx;
use sring::graph::benchmarks::Benchmark;
use sring::graph::{CommDelta, NodeId, StableMessageId};
use sring::trace::json::Value;

/// Expected counters of one benchmark's assignment MILP.
struct Pin {
    benchmark: Benchmark,
    /// Edits applied to the benchmark graph before synthesis.
    edits: &'static [CommDelta],
    nodes: usize,
    /// LP calls, solved or reused (`lp_solves + lp_reused`).
    lp_calls: usize,
    lp_reused: usize,
    primal_pivots: usize,
    dual_pivots: usize,
    refactorizations: usize,
    eta_updates: usize,
    max_fill_in: usize,
    objective_bits: u64,
    wavelengths: &'static [usize],
}

/// Captured from the solver before the sparse-reach LU, the eta arena,
/// the fused dual `btran` and candidate screening went in. Root LP reuse
/// keeps every node, LP call, design and the fill-in peak, but the reused
/// LPs no longer pivot: the pivot, refactorization and eta counts were
/// re-captured then. 8PM-24 and the tied instance once ended with a
/// second, canonical pass over the tree; their work counters were
/// re-captured when it went, with objectives and vectors unchanged.
const PINS: [Pin; 5] = [
    Pin {
        edits: &[],
        benchmark: Benchmark::Mwd,
        nodes: 59,
        lp_calls: 107,
        lp_reused: 2,
        primal_pivots: 102,
        dual_pivots: 1231,
        refactorizations: 106,
        eta_updates: 1333,
        max_fill_in: 26,
        objective_bits: 0x402c_0f5c_28f5_c28f,
        wavelengths: &[0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0],
    },
    Pin {
        edits: &[],
        benchmark: Benchmark::Vopd,
        nodes: 1695,
        lp_calls: 1743,
        lp_reused: 2,
        primal_pivots: 185,
        dual_pivots: 43365,
        refactorizations: 1943,
        eta_updates: 43549,
        max_fill_in: 167,
        objective_bits: 0x4038_af5c_28f5_c28f,
        wavelengths: &[
            0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 2, 0, 2, 0, 0, 0, 0,
        ],
    },
    Pin {
        edits: &[],
        benchmark: Benchmark::Mpeg,
        nodes: 5,
        lp_calls: 53,
        lp_reused: 2,
        primal_pivots: 389,
        dual_pivots: 5591,
        refactorizations: 121,
        eta_updates: 5980,
        max_fill_in: 504,
        objective_bits: 0x4049_08f5_c28f_5c28,
        wavelengths: &[
            0, 1, 2, 2, 3, 3, 4, 4, 5, 5, 5, 6, 7, 7, 0, 0, 6, 6, 7, 7, 6, 2, 4, 4, 1, 1,
        ],
    },
    Pin {
        edits: &[],
        benchmark: Benchmark::Pm8x24,
        nodes: 12,
        lp_calls: 60,
        lp_reused: 2,
        primal_pivots: 399,
        dual_pivots: 8008,
        refactorizations: 163,
        eta_updates: 8408,
        max_fill_in: 562,
        objective_bits: 0x4038_e666_6666_6666,
        wavelengths: &[
            0, 0, 1, 1, 1, 1, 2, 2, 1, 1, 3, 3, 3, 3, 2, 2, 3, 3, 0, 0, 0, 0, 2, 2,
        ],
    },
    // The vector the serial search keeps among the tied optima.
    Pin {
        benchmark: Benchmark::Vopd,
        edits: &TIED_EDITS,
        nodes: 41,
        lp_calls: 89,
        lp_reused: 1,
        primal_pivots: 234,
        dual_pivots: 3124,
        refactorizations: 107,
        eta_updates: 3357,
        max_fill_in: 200,
        objective_bits: 0x403e_a7ae_147a_e147,
        wavelengths: &[
            0, 1, 1, 0, 0, 1, 1, 1, 2, 3, 1, 3, 2, 0, 2, 1, 3, 0, 3, 2, 3, 2,
        ],
    },
];

/// VOPD with message 0 retargeted to 0 → 3 and a message 1 → 9 of
/// bandwidth 2 added: an assignment MILP with tied optimal wavelength
/// vectors. Which tie the search keeps depends on the order it meets
/// them in, and that order is a pure function of the model and the
/// heuristic incumbent: nothing from an earlier solve reaches it.
const TIED_EDITS: [CommDelta; 2] = [
    CommDelta::Retarget {
        id: StableMessageId(0),
        src: NodeId(0),
        dst: NodeId(3),
    },
    CommDelta::AddMessage {
        src: NodeId(1),
        dst: NodeId(9),
        bandwidth: 2.0,
    },
];

/// Synthesizes the pinned instance, checks its counters and returns the
/// design's bytes.
fn check(pin: &Pin) -> Vec<u8> {
    // The default strategy. The budget is widened from the default 3 s
    // because it only cuts the search off: every pinned instance proves
    // optimality well inside 3 s in a release build, and a loaded test
    // host must not turn a pinned trajectory into a truncated one.
    let strategy = match AssignmentStrategy::default() {
        AssignmentStrategy::Auto { milp_max_paths, .. } => AssignmentStrategy::Auto {
            milp_max_paths,
            options: MilpOptions {
                time_limit: Duration::from_secs(120),
            },
        },
        other => other,
    };
    let synth = SringSynthesizer::with_config(SringConfig {
        strategy,
        ..SringConfig::default()
    });
    let app = pin
        .benchmark
        .graph()
        .apply_deltas(pin.edits)
        .expect("pinned edits apply");
    let report = synth
        .synthesize_detailed_ctx(&app, &ExecCtx::new())
        .expect("benchmark synthesizes");
    let a = &report.assignment;
    let s = a.solver_stats.as_ref().expect("the MILP ran");
    let wavelengths: Vec<usize> = a.wavelengths.iter().map(|w| w.0).collect();
    let got = format!(
        "{} with {} edits: nodes {} lp_calls {} reused {} primal {} dual {} refactorizations {} etas {} \
         fill {} objective {:#018x} wavelengths {:?}",
        pin.benchmark,
        pin.edits.len(),
        s.nodes_explored,
        s.lp_solves + s.lp_reused,
        s.lp_reused,
        s.primal_pivots,
        s.dual_pivots,
        s.refactorizations,
        s.eta_updates,
        s.max_fill_in,
        a.objective.to_bits(),
        wavelengths,
    );
    let want = format!(
        "{} with {} edits: nodes {} lp_calls {} reused {} primal {} dual {} refactorizations {} etas {} \
         fill {} objective {:#018x} wavelengths {:?}",
        pin.benchmark,
        pin.edits.len(),
        pin.nodes,
        pin.lp_calls,
        pin.lp_reused,
        pin.primal_pivots,
        pin.dual_pivots,
        pin.refactorizations,
        pin.eta_updates,
        pin.max_fill_in,
        pin.objective_bits,
        pin.wavelengths,
    );
    assert!(a.proven_optimal, "{}: not proven optimal", pin.benchmark);
    assert_eq!(got, want);
    design_bytes(&report.design)
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

#[test]
fn tied_optimum_trajectory_is_pinned_and_repeatable() {
    let first = check(&PINS[4]);
    let second = check(&PINS[4]);
    assert!(
        first == second,
        "two runs of the tied-optimum instance differ"
    );
}

/// Incremental re-synthesis into the tied instance returns exactly the
/// design a cold run of the edited graph does: the MILP sees only the
/// edited model and the heuristic incumbent, never the previous run's
/// vector or basis, so it keeps the same tie.
#[test]
fn tied_optimum_resynthesis_matches_a_cold_run() {
    let synth = SringSynthesizer::with_config(SringConfig {
        strategy: AssignmentStrategy::Milp(MilpOptions {
            time_limit: Duration::from_secs(120),
        }),
        ..SringConfig::default()
    });
    let base = Benchmark::Vopd.graph();
    let ctx = ExecCtx::cached();
    let prev = synth
        .synthesize_detailed_ctx(&base, &ctx)
        .expect("VOPD synthesizes");
    let incr = synth
        .resynthesize(&base, &prev, &TIED_EDITS, &ctx)
        .expect("the tied edits re-synthesize");
    let edited = base.apply_deltas(&TIED_EDITS).expect("tied edits apply");
    let cold = synth
        .synthesize_detailed_ctx(&edited, &ExecCtx::new())
        .expect("the edited graph synthesizes");
    assert!(cold.assignment.proven_optimal);
    assert_eq!(
        incr.report.assignment.wavelengths,
        cold.assignment.wavelengths
    );
    assert!(
        design_bytes(&incr.report.design) == design_bytes(&cold.design),
        "incremental and cold designs of the tied instance differ"
    );
}

/// The committed ledger, `BENCH_milp.json` (written by `milp_stats`),
/// records the pinned counters of the four tracked benchmarks, so it
/// cannot drift from the code: a change that moves a pin must re-record
/// the ledger too.
#[test]
fn bench_milp_ledger_matches_the_pins() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_milp.json");
    let text = std::fs::read_to_string(path).expect("BENCH_milp.json is committed");
    let doc = sring::trace::json::parse(&text).expect("BENCH_milp.json parses");
    let Some(Value::Array(rows)) = doc.get("benchmarks") else {
        panic!("BENCH_milp.json has no benchmarks array");
    };
    for pin in PINS.iter().filter(|pin| pin.edits.is_empty()) {
        let name = pin.benchmark.name();
        let row = rows
            .iter()
            .find(|row| row.get("benchmark").and_then(Value::as_str) == Some(name))
            .unwrap_or_else(|| panic!("BENCH_milp.json has no {name} row"));
        let field = |key: &str| {
            row.get(key)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("{name}: {key} is not a count"))
        };
        let got = [
            field("nodes_explored"),
            field("lp_solves") + field("lp_reused"),
            field("primal_pivots"),
            field("dual_pivots"),
            field("refactorizations"),
            field("eta_updates"),
            field("max_fill_in"),
        ];
        let want = [
            pin.nodes,
            pin.lp_calls,
            pin.primal_pivots,
            pin.dual_pivots,
            pin.refactorizations,
            pin.eta_updates,
            pin.max_fill_in,
        ]
        .map(|n| n as u64);
        assert_eq!(got, want, "{name}: ledger vs pins");
    }
}
