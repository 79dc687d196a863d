//! Integration tests for the content-keyed artifact cache across the
//! whole pipeline: cached runs must be bit-identical to uncached ones,
//! strategy sweeps must reuse upstream artifacts, the cache must be
//! shareable across worker threads, and the hit counters must surface in
//! the trace report.
#![expect(
    clippy::disallowed_methods,
    reason = "test harness: worker threads sharing one cache, and a wall-clock deadline"
)]

use sring::core::{AssignmentStrategy, MilpOptions, SringConfig, SringSynthesizer};
use sring::ctx::ExecCtx;
use sring::eval::comparison::{compare_ctx, compare_grid_ctx, to_csv};
use sring::eval::methods::Method;
use sring::graph::benchmarks;
use sring::trace::Trace;
use sring::units::TechnologyParameters;

/// Three SRing strategies that differ only in wavelength assignment, so
/// the cluster, layout and route artifacts are shared between them.
fn strategy_sweep() -> Vec<Method> {
    vec![
        Method::Sring(AssignmentStrategy::Heuristic),
        Method::Sring(AssignmentStrategy::Auto {
            milp_max_paths: 0,
            options: MilpOptions::default(),
        }),
        Method::Sring(AssignmentStrategy::Auto {
            milp_max_paths: 1,
            options: MilpOptions::default(),
        }),
    ]
}

#[test]
fn cached_strategy_sweep_is_bit_identical_to_uncached() {
    let tech = TechnologyParameters::default();
    let methods = strategy_sweep();
    for app in [benchmarks::mwd(), benchmarks::vopd()] {
        let uncached = compare_ctx(&app, &tech, &methods, &ExecCtx::new()).expect("synthesizes");
        let ctx = ExecCtx::cached();
        let cached = compare_ctx(&app, &tech, &methods, &ctx).expect("synthesizes");
        assert_eq!(
            to_csv(std::slice::from_ref(&cached)),
            to_csv(std::slice::from_ref(&uncached)),
            "{}: cached report differs from uncached",
            app.name()
        );
        let stats = ctx.cache_stats().expect("cache attached");
        // Strategies 2 and 3 hit the first one's cluster, layout and
        // route artifacts: two hits each on three shared stages.
        assert!(
            stats.hits >= 6,
            "{}: expected ≥6 hits, got {}",
            app.name(),
            stats.hits
        );
        assert_eq!(stats.evictions, 0);
    }
}

#[test]
fn repeated_cached_synthesis_reuses_every_stage() {
    let app = benchmarks::mpeg();
    let synth = SringSynthesizer::with_config(SringConfig {
        strategy: AssignmentStrategy::Heuristic,
        ..SringConfig::default()
    });
    let ctx = ExecCtx::cached();
    let first = synth.synthesize_detailed_ctx(&app, &ctx).expect("runs");
    let hits_after_first = ctx.cache_stats().unwrap().hits;
    let second = synth.synthesize_detailed_ctx(&app, &ctx).expect("runs");
    let stats = ctx.cache_stats().unwrap();
    // The second run hits all four cacheable stages.
    assert_eq!(stats.hits - hits_after_first, 4);
    assert_eq!(
        first.assignment.wavelength_count,
        second.assignment.wavelength_count
    );
    assert_eq!(
        first.design.analyze(&TechnologyParameters::default()),
        second.design.analyze(&TechnologyParameters::default())
    );
}

#[test]
fn cache_is_shared_across_grid_worker_threads() {
    let tech = TechnologyParameters::default();
    let apps = vec![benchmarks::mwd(), benchmarks::vopd()];
    let methods = strategy_sweep();
    let uncached =
        compare_grid_ctx(&apps, &tech, &methods, &ExecCtx::new().with_threads(1)).expect("grid");
    // Two passes over the grid on four workers sharing one cache: the
    // second pass is answered from the cache alone.
    let ctx = ExecCtx::cached().with_threads(4);
    let first = compare_grid_ctx(&apps, &tech, &methods, &ctx).expect("grid");
    let entries_after_first = ctx.cache_stats().unwrap().entries;
    let second = compare_grid_ctx(&apps, &tech, &methods, &ctx).expect("grid");
    let stats = ctx.cache_stats().unwrap();
    assert!(stats.hits > 0, "no cross-thread cache reuse");
    assert_eq!(
        stats.entries, entries_after_first,
        "the second pass must not create new entries"
    );
    for (pass, grid) in [("first", &first), ("second", &second)] {
        assert_eq!(
            to_csv(grid),
            to_csv(&uncached),
            "{pass} cached pass differs from the uncached grid"
        );
    }
}

#[test]
fn cache_counters_surface_in_the_trace_report() {
    let app = benchmarks::mwd();
    let trace = Trace::new();
    let ctx = ExecCtx::cached().with_trace(trace.clone());
    let synth = SringSynthesizer::with_config(SringConfig {
        strategy: AssignmentStrategy::Heuristic,
        ..SringConfig::default()
    });
    synth.synthesize_detailed_ctx(&app, &ctx).expect("runs");
    synth.synthesize_detailed_ctx(&app, &ctx).expect("runs");
    let report = trace.report();
    let hits = report.counter("cache/hits").expect("hit counter recorded");
    assert!(hits >= 4, "expected ≥4 trace-visible hits, got {hits}");
    assert_eq!(report.counter("cache/misses"), Some(4));
    assert_eq!(
        report.counter("cache/cluster/hits"),
        Some(1),
        "per-stage hit counter missing"
    );
    let hit_rate = report.gauge("cache/hit_rate").expect("hit-rate gauge");
    assert!(hit_rate > 0.0);
    assert_eq!(report.gauge("cache/evictions"), Some(0.0));
}

#[test]
fn deadline_bearing_contexts_do_not_poison_the_cache() {
    // The assign stage is uncacheable under a deadline (the clamped time
    // limit is not part of the content key), so a deadline run must not
    // publish an artifact that a later unconstrained run could pick up.
    let app = benchmarks::mwd();
    let synth = SringSynthesizer::with_config(SringConfig {
        strategy: AssignmentStrategy::Heuristic,
        ..SringConfig::default()
    });
    let cache_ctx = ExecCtx::cached();
    let deadline_ctx = cache_ctx
        .clone()
        .with_deadline(std::time::Instant::now() + std::time::Duration::from_secs(600));
    let constrained = synth
        .synthesize_detailed_ctx(&app, &deadline_ctx)
        .expect("runs");
    let free = synth
        .synthesize_detailed_ctx(&app, &cache_ctx)
        .expect("runs");
    assert_eq!(
        constrained.assignment.wavelength_count,
        free.assignment.wavelength_count
    );
    // cluster/layout/route are shared (3 hits in the second run); the
    // deadline run's assign never touched the cache, so the second run's
    // assign is the fourth miss alongside the first run's three.
    let stats = cache_ctx.cache_stats().unwrap();
    assert_eq!(stats.hits, 3);
    assert_eq!(stats.misses, 4);
}

#[test]
fn lru_eviction_respects_get_recency() {
    // A hit must refresh an entry's recency: after touching the oldest
    // entry, a capacity-forced eviction removes the *untouched* one.
    use sring::ctx::{ArtifactCache, ContentHasher, ContentKey};
    use std::sync::Arc;

    fn key_of(k: u64) -> ContentKey {
        let mut h = ContentHasher::new();
        h.write_u64(k);
        h.finish()
    }

    let cache = Arc::new(ArtifactCache::new(2));
    let ctx = ExecCtx::new().with_cache(Arc::clone(&cache));
    ctx.cache_put("stage", key_of(1), 1u64).expect("healthy");
    ctx.cache_put("stage", key_of(2), 2u64).expect("healthy");
    // Refresh entry 1 — it is now the most recently used of the two.
    assert!(ctx
        .cache_get::<u64>("stage", key_of(1))
        .expect("healthy")
        .is_some());
    // Inserting a third entry must evict entry 2, not the refreshed 1.
    ctx.cache_put("stage", key_of(3), 3u64).expect("healthy");
    assert!(
        ctx.cache_get::<u64>("stage", key_of(1))
            .expect("healthy")
            .is_some(),
        "refreshed entry was evicted despite being most recently used"
    );
    assert!(
        ctx.cache_get::<u64>("stage", key_of(2))
            .expect("healthy")
            .is_none(),
        "stale entry survived a capacity-forced eviction"
    );
    let stats = cache.stats();
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.entries, 2);
}

#[test]
fn seeded_multithread_stress_keeps_the_cache_consistent() {
    // N workers hammer one shared ArtifactCache with a seeded (fully
    // deterministic) mix of gets and puts over a key space larger than
    // the capacity, so lookups, inserts and LRU evictions all interleave.
    // Any torn state — a hit returning another key's artifact, counters
    // drifting from the operation count, the map exceeding capacity —
    // fails the assertions; under ThreadSanitizer (ci/sanitize.sh) the
    // same test doubles as a data-race probe of the cache's Mutex +
    // atomics layout.
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sring::ctx::{ArtifactCache, ContentHasher, ContentKey};
    use std::sync::Arc;

    const THREADS: u64 = 8;
    const OPS: u64 = 2_000;
    const KEYS: u64 = 64;
    const CAPACITY: usize = 32;
    const STAGES: [&str; 4] = ["cluster", "layout", "route", "assign"];

    fn key_of(stage: usize, k: u64) -> ContentKey {
        let mut h = ContentHasher::new();
        h.write_u64(stage as u64);
        h.write_u64(k);
        h.finish()
    }
    fn value_of(stage: usize, k: u64) -> u64 {
        ((stage as u64) << 32) | k
    }

    let cache = Arc::new(ArtifactCache::new(CAPACITY));
    let total_gets: u64 = std::thread::scope(|scope| {
        // A dedicated snapshotter races `stats()` against the workers:
        // every snapshot must be internally coherent (hits + misses ==
        // gets). With the counters in separate atomics read outside the
        // inner lock this invariant could tear mid-burst; with the
        // counters folded into the lock-protected state it holds by
        // construction.
        let snapshotter = {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                for _ in 0..2_000 {
                    let s = cache.stats();
                    assert_eq!(s.hits + s.misses, s.gets, "torn mid-flight snapshot: {s:?}");
                }
            })
        };
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ctx = ExecCtx::new().with_cache(Arc::clone(&cache));
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0xC0FF_EE00 + t);
                    let mut gets = 0u64;
                    for _ in 0..OPS {
                        let stage = rng.gen_range(0..STAGES.len());
                        let k = rng.gen_range(0..KEYS);
                        let (name, key) = (STAGES[stage], key_of(stage, k));
                        if rng.gen_range(0..2) == 0 {
                            gets += 1;
                            if let Some(hit) =
                                ctx.cache_get::<u64>(name, key).expect("cache healthy")
                            {
                                assert_eq!(
                                    *hit,
                                    value_of(stage, k),
                                    "hit returned a foreign artifact"
                                );
                            } else {
                                ctx.cache_put(name, key, value_of(stage, k))
                                    .expect("cache healthy");
                            }
                        } else {
                            ctx.cache_put(name, key, value_of(stage, k))
                                .expect("cache healthy");
                        }
                    }
                    gets
                })
            })
            .collect();
        snapshotter.join().expect("snapshotter panicked");
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .sum()
    });

    let stats = cache.stats();
    assert!(
        stats.entries <= CAPACITY,
        "LRU bound violated: {}",
        stats.entries
    );
    assert_eq!(
        stats.gets, total_gets,
        "the gets counter drifted from the lookups issued"
    );
    assert_eq!(
        stats.hits + stats.misses,
        total_gets,
        "hit/miss counters drifted from the number of lookups"
    );
    assert!(
        stats.evictions > 0,
        "the stress run never exercised eviction"
    );
}
