//! Integration tests for the tracing/metrics subsystem across the whole
//! pipeline: the traced SRing synthesis must report the same MILP
//! counters as the solver's own statistics, the eval sampler's trace
//! must be thread-count invariant, and the JSON sink must round-trip
//! through the façade re-export.

use sring::core::{AssignmentStrategy, MilpOptions, SringConfig, SringSynthesizer};
use sring::ctx::ExecCtx;
use sring::eval::random_baseline::{
    sample_random_solutions_ctx, RandomSolutionConfig, SHARD_COUNT,
};
use sring::graph::benchmarks;
use sring::trace::{Trace, TraceReport};
use sring::units::TechnologyParameters;

#[test]
fn traced_synthesis_counters_match_solver_stats() {
    let app = benchmarks::mwd();
    let trace = Trace::new();
    // The solver's internal phase timers are bounded by the enclosing
    // span wall-clocks, which the span-tree assertions below rely on.
    let synth = SringSynthesizer::with_config(SringConfig {
        strategy: AssignmentStrategy::Milp(MilpOptions::default()),
        ..SringConfig::default()
    });
    let report = synth
        .synthesize_detailed_ctx(&app, &ExecCtx::default().with_trace(trace.clone()))
        .expect("MWD synthesizes");
    let stats = report.assignment.solver_stats.expect("MILP ran");
    let t = trace.report();

    // The acceptance check of the subsystem: trace counters equal the
    // `--solver-stats` numbers, because both come from the same run.
    assert_eq!(
        t.counter("milp/nodes_explored"),
        Some(stats.nodes_explored as u64)
    );
    assert_eq!(t.counter("milp/lp_solves"), Some(stats.lp_solves as u64));
    // The root's two children take the LP results root strong branching
    // already solved for them.
    assert_eq!(t.counter("milp/lp_reused"), Some(stats.lp_reused as u64));
    assert_eq!(stats.lp_reused, 2);
    assert_eq!(
        t.counter("milp/primal_pivots"),
        Some(stats.primal_pivots as u64)
    );
    assert_eq!(
        t.counter("milp/dual_pivots"),
        Some(stats.dual_pivots as u64)
    );
    assert_eq!(
        t.counter("milp/phase1_solves"),
        Some(stats.phase1_solves as u64)
    );
    assert_eq!(
        t.counter("milp/warm_start_attempts"),
        Some(stats.warm_start_attempts as u64)
    );
    assert_eq!(
        t.counter("milp/warm_start_hits"),
        Some(stats.warm_start_hits as u64)
    );
    let rate = t.gauge("milp/warm_hit_rate").expect("hit rate gauge");
    assert!((rate - stats.warm_hit_rate()).abs() < 1e-12);

    // Per-depth node counts partition the explored nodes.
    let depth_sum: u64 = t
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("milp/nodes_at_depth/"))
        .map(|(_, count)| *count)
        .sum();
    assert_eq!(depth_sum, stats.nodes_explored as u64);

    // Every pipeline stage ran exactly once under the `synth` span.
    for phase in [
        "synth",
        "synth/cluster",
        "synth/layout",
        "synth/route",
        "synth/assign",
        "synth/assign/milp",
        "synth/assign/milp/presolve",
        "synth/assign/milp/lp",
        "synth/assign/milp/lp/dual",
        "synth/pdn",
        "synth/validate",
    ] {
        assert!(t.phase(phase).is_some(), "missing phase `{phase}`");
    }
    assert_eq!(t.phase("synth").unwrap().calls, 1);
    assert_eq!(t.counter("synth/runs"), Some(1));
    assert_eq!(
        t.counter("synth/messages"),
        Some(app.message_count() as u64)
    );

    // The LP node carries the whole LP time and one call per LP solve.
    let lp = t.phase("synth/assign/milp/lp").unwrap();
    assert_eq!(lp.total, stats.lp_time());
    assert_eq!(lp.calls, stats.lp_solves as u64);

    // Children never account for more time than their parent span.
    for parent in [
        "synth",
        "synth/assign",
        "synth/assign/milp",
        "synth/assign/milp/lp",
    ] {
        let parent_total = t.phase(parent).unwrap().total;
        assert!(
            t.children_total(parent) <= parent_total,
            "children of `{parent}` exceed it: {:?} > {parent_total:?}",
            t.children_total(parent)
        );
    }
}

#[test]
fn traced_lp_counters_match_solver_stats_on_8pm24() {
    // 8PM-24, the tracked MILP with the most strong-branch probes. The
    // budget is widened from the default 3 s so a loaded host cannot cut
    // the search short.
    let trace = Trace::new();
    let synth = SringSynthesizer::with_config(SringConfig {
        strategy: AssignmentStrategy::Milp(MilpOptions {
            time_limit: std::time::Duration::from_secs(120),
            ..MilpOptions::default()
        }),
        ..SringConfig::default()
    });
    let report = synth
        .synthesize_detailed_ctx(
            &benchmarks::Benchmark::Pm8x24.graph(),
            &ExecCtx::default().with_trace(trace.clone()),
        )
        .expect("8PM-24 synthesizes");
    let stats = report.assignment.solver_stats.expect("MILP ran");
    let t = trace.report();
    // The root's two children take the LP results root strong branching
    // already solved for them; every other LP call is a solve.
    assert_eq!(t.counter("milp/lp_reused"), Some(stats.lp_reused as u64));
    assert_eq!(stats.lp_reused, 2);
    assert_eq!(
        t.phase("synth/assign/milp/lp").unwrap().calls,
        stats.lp_solves as u64
    );
}

#[test]
fn sampler_trace_is_thread_count_invariant() {
    let app = benchmarks::mwd();
    let tech = TechnologyParameters::default();
    let samples = 2_000;
    let run = |threads: usize| {
        let trace = Trace::new();
        let config = RandomSolutionConfig {
            samples,
            threads,
            ..RandomSolutionConfig::for_app(&app)
        };
        let ctx = ExecCtx::default().with_trace(trace.clone());
        let stats = sample_random_solutions_ctx(&app, &tech, &config, &ctx);
        (trace.report(), stats.feasible.len())
    };
    let (serial, feasible_serial) = run(1);
    let (parallel, feasible_parallel) = run(4);

    // The shards, not the threads, own the RNG streams: the aggregated
    // counters are identical for `--threads 1` and `--threads 4`.
    assert_eq!(serial.counters, parallel.counters);
    assert_eq!(feasible_serial, feasible_parallel);
    assert_eq!(
        serial.counter("eval/samples_attempted"),
        Some(samples as u64)
    );
    assert_eq!(
        serial.counter("eval/samples_feasible"),
        Some(feasible_serial as u64)
    );
    for report in [&serial, &parallel] {
        assert_eq!(report.phase("fig8_sampler").unwrap().calls, 1);
        assert_eq!(
            report.phase("fig8_sampler/shard").unwrap().calls,
            SHARD_COUNT as u64
        );
    }
}

#[test]
fn trace_report_round_trips_through_facade_json() {
    // A real traced run (heuristic, cheap) through the façade re-export.
    let app = benchmarks::mwd();
    let trace = Trace::new();
    let synth = SringSynthesizer::with_config(SringConfig {
        strategy: AssignmentStrategy::Heuristic,
        ..SringConfig::default()
    });
    synth
        .synthesize_detailed_ctx(&app, &ExecCtx::default().with_trace(trace.clone()))
        .expect("MWD synthesizes");
    trace.gauge("total_ns", 123_456_789.0);
    let report = trace.report();
    assert!(!report.phases.is_empty());

    let parsed = TraceReport::from_json(&report.to_json()).expect("sink output parses");
    assert_eq!(parsed, report, "JSON sink must round-trip exactly");
}

#[test]
fn disabled_trace_ctx_leaves_results_unchanged() {
    // A context carrying the disabled trace handle must not perturb
    // synthesis: same design as the untraced entry point. (This test
    // formerly exercised the `*_traced` shims, which are gone — the ctx
    // API is the only instrumented entry point now.)
    let app = benchmarks::vopd();
    let synth = SringSynthesizer::new();
    let plain = synth.synthesize(&app).expect("synthesizes");
    let traced = synth
        .synthesize_detailed_ctx(&app, &ExecCtx::default().with_trace(Trace::disabled()))
        .expect("synthesizes")
        .design;
    assert_eq!(
        plain
            .analyze(&TechnologyParameters::default())
            .wavelength_count,
        traced
            .analyze(&TechnologyParameters::default())
            .wavelength_count
    );
    assert_eq!(plain.method(), traced.method());
}
