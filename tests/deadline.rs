//! Deadline conformance: a synthesis under a context deadline ends within
//! a small margin of it — with a design that validates or a typed
//! `SringError::Deadline` — even when the deadline lapses inside the MILP
//! model build. MPEG is the probe: its pigeonhole cut search alone runs
//! for hundreds of milliseconds. A cold run mostly spends its budget in
//! clustering, so each deadline is also tried with the upstream stages
//! served from a warm artifact cache, which puts the whole budget on the
//! assignment (model build, then solve).

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
    let elapsed = start.elapsed();
    assert!(
        elapsed <= deadline + MARGIN,
        "MPEG under a {deadline:?} deadline returned after {elapsed:?}"
    );
    match result {
        Ok(report) => report
            .design
            .validate_against(&app)
            .unwrap_or_else(|e| panic!("design within {deadline:?} does not validate: {e}")),
        Err(SringError::Deadline(_)) => {}
        Err(e) => panic!("MPEG under a {deadline:?} deadline failed untyped: {e}"),
    }
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
