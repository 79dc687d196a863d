//! Deadline conformance: a synthesis under a context deadline ends within
//! a small margin of it — with a design that validates or a typed
//! `SringError::Deadline` — even when the deadline lapses inside the MILP
//! model build or inside clustering. MPEG is the MILP probe: its
//! pigeonhole cut search alone runs for hundreds of milliseconds. A cold
//! run mostly spends its budget in clustering, so each MPEG deadline is
//! also tried with the upstream stages served from a warm artifact cache,
//! which puts the whole budget on the assignment (model build, then
//! solve). The clustering probes are D26 (the longest clustering of the
//! benchmark set), 8PM-44 and VOPD under the heuristic strategy. MWD,
//! VOPD and 8PM-24 under the MILP strategy put the deadline inside branch
//! and bound: root strong branching and the node LPs.
#![expect(
    clippy::disallowed_methods,
    reason = "test harness: measures wall time against the deadline"
)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use sring::core::{AssignmentStrategy, MilpOptions, SringConfig, SringError, SringSynthesizer};
use sring::ctx::{ArtifactCache, ExecCtx};
use sring::graph::benchmarks::Benchmark;

/// How far past its deadline a synthesis may return.
const MARGIN: Duration = Duration::from_millis(250);

fn synthesizer(strategy: AssignmentStrategy) -> SringSynthesizer {
    SringSynthesizer::with_config(SringConfig {
        strategy,
        ..SringConfig::default()
    })
}

/// Asserts that `result`, returned `elapsed` after a synthesis of
/// `benchmark` started under `deadline`, came back in time and is either
/// a design that validates or a typed deadline error.
fn assert_conforms(
    benchmark: Benchmark,
    deadline: Duration,
    elapsed: Duration,
    result: Result<sring::core::SringReport, SringError>,
) {
    let app = benchmark.graph();
    assert!(
        elapsed <= deadline + MARGIN,
        "{benchmark} under a {deadline:?} deadline returned after {elapsed:?}"
    );
    match result {
        Ok(report) => report.design.validate_against(&app).unwrap_or_else(|e| {
            panic!("{benchmark} design within {deadline:?} does not validate: {e}")
        }),
        Err(SringError::Deadline(_)) => {}
        Err(e) => panic!("{benchmark} under a {deadline:?} deadline failed untyped: {e}"),
    }
}

fn synthesize_mpeg_within(deadline: Duration, warm_upstream: bool) {
    let app = Benchmark::Mpeg.graph();
    let mut ctx = ExecCtx::new();
    if warm_upstream {
        // The strategy keys only the assign stage, so a heuristic run
        // caches exactly the cluster, layout and route artifacts the MILP
        // run below reuses; under a deadline its assign stage is
        // uncacheable and always recomputed.
        let cache = Arc::new(ArtifactCache::default());
        ctx = ctx.with_cache(Arc::clone(&cache));
        synthesizer(AssignmentStrategy::Heuristic)
            .synthesize_detailed_ctx(&app, &ctx)
            .expect("heuristic MPEG synthesizes");
    }
    let synth = synthesizer(AssignmentStrategy::Milp(MilpOptions::default()));
    let start = Instant::now();
    let ctx = ctx.with_deadline(start + deadline);
    let result = synth.synthesize_detailed_ctx(&app, &ctx);
    assert_conforms(Benchmark::Mpeg, deadline, start.elapsed(), result);
}

/// Cold heuristic syntheses of the clustering probes: clustering polls
/// the deadline once per grown initial vertex and per refinement pass.
fn synthesize_clustering_probes_within(deadline: Duration) {
    let synth = synthesizer(AssignmentStrategy::Heuristic);
    for benchmark in [Benchmark::D26, Benchmark::Pm8x44, Benchmark::Vopd] {
        let app = benchmark.graph();
        let start = Instant::now();
        let ctx = ExecCtx::cached().with_deadline(start + deadline);
        let result = synth.synthesize_detailed_ctx(&app, &ctx);
        assert_conforms(benchmark, deadline, start.elapsed(), result);
    }
}

/// Cold MILP syntheses whose solve, not their model build, runs into the
/// deadline.
fn synthesize_milp_probes_within(deadline: Duration) {
    let synth = synthesizer(AssignmentStrategy::Milp(MilpOptions::default()));
    for benchmark in [Benchmark::Mwd, Benchmark::Vopd, Benchmark::Pm8x24] {
        let app = benchmark.graph();
        let start = Instant::now();
        let ctx = ExecCtx::cached().with_deadline(start + deadline);
        let result = synth.synthesize_detailed_ctx(&app, &ctx);
        assert_conforms(benchmark, deadline, start.elapsed(), result);
    }
}

#[test]
fn mpeg_milp_returns_within_a_25ms_deadline() {
    synthesize_mpeg_within(Duration::from_millis(25), false);
    synthesize_mpeg_within(Duration::from_millis(25), true);
}

#[test]
fn mpeg_milp_returns_within_a_100ms_deadline() {
    synthesize_mpeg_within(Duration::from_millis(100), false);
    synthesize_mpeg_within(Duration::from_millis(100), true);
}

#[test]
fn mpeg_milp_returns_within_a_500ms_deadline() {
    synthesize_mpeg_within(Duration::from_millis(500), false);
    synthesize_mpeg_within(Duration::from_millis(500), true);
}

#[test]
fn mpeg_milp_returns_within_a_1000ms_deadline() {
    synthesize_mpeg_within(Duration::from_millis(1000), false);
    synthesize_mpeg_within(Duration::from_millis(1000), true);
}

#[test]
fn heuristic_clustering_returns_within_a_25ms_deadline() {
    synthesize_clustering_probes_within(Duration::from_millis(25));
}

#[test]
fn heuristic_clustering_returns_within_a_100ms_deadline() {
    synthesize_clustering_probes_within(Duration::from_millis(100));
}

#[test]
fn heuristic_clustering_returns_within_a_500ms_deadline() {
    synthesize_clustering_probes_within(Duration::from_millis(500));
}

#[test]
fn heuristic_clustering_returns_within_a_1000ms_deadline() {
    synthesize_clustering_probes_within(Duration::from_millis(1000));
}

#[test]
fn milp_search_returns_within_a_25ms_deadline() {
    synthesize_milp_probes_within(Duration::from_millis(25));
}

#[test]
fn milp_search_returns_within_a_100ms_deadline() {
    synthesize_milp_probes_within(Duration::from_millis(100));
}

#[test]
fn milp_search_returns_within_a_500ms_deadline() {
    synthesize_milp_probes_within(Duration::from_millis(500));
}

#[test]
fn milp_search_returns_within_a_1000ms_deadline() {
    synthesize_milp_probes_within(Duration::from_millis(1000));
}
