//! Artifact-cache benchmark for the stage-graph synthesis pipeline:
//! sweeps three SRing assignment strategies over MWD/VOPD/MPEG with the
//! content-keyed cache off and on, checks the two runs produce
//! bit-identical comparison reports, and writes the wall-clocks, the
//! speedup and the cache counters to `BENCH_pipeline.json` so the cache's
//! perf trajectory is tracked across PRs.
//!
//! ```text
//! pipeline_cache [out.json] [--threads N] [--cache-dir DIR]
//! ```
//!
//! On top of the in-memory comparison the binary measures a **warm
//! restart**: a seed sweep populates a persistent on-disk store (under
//! `--cache-dir`, or a scratch directory by default), then a sweep with a
//! fresh memory cache and a *new* store handle over the same directory —
//! everything a process restart would keep — must reach at least the same
//! 1.5× speedup purely from disk hits, again with a bit-identical report.
//! The `warm_restart` section of the JSON records both wall-clocks and the
//! disk counters.
//!
//! Exits non-zero when the cached run records no hits, when any report
//! differs from the uncached one, when the warm restart sees corruption,
//! or when either speedup is below 1.5× — which makes the binary double as
//! a CI smoke check (`ci/check.sh` runs it).
//!
//! The sweep varies only the assignment strategy, so with the cache on
//! each benchmark's cluster, layout and route artifacts are computed once
//! and reused by the other strategies; the strategies themselves are
//! heuristic-cheap so the shared stages dominate and the speedup is
//! robustly measurable.

use onoc_bench::{count, harness_tech, object, take_threads_flag, take_value_flag};
use onoc_ctx::{ArtifactStore, CacheStats, ExecCtx, StoreStats};
use onoc_eval::comparison::{compare_grid_ctx, to_csv, Comparison};
use onoc_eval::methods::Method;
use onoc_graph::benchmarks::Benchmark;
use onoc_graph::CommGraph;
use onoc_store::DiskStore;
use onoc_trace::json::Value;
use onoc_units::TechnologyParameters;
use sring_core::{AssignmentStrategy, MilpOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// The benchmarks swept (the paper's three headline applications).
const TRACKED: [Benchmark; 3] = [Benchmark::Mwd, Benchmark::Vopd, Benchmark::Mpeg];

/// Required cached-over-uncached wall-clock advantage.
const MIN_SPEEDUP: f64 = 1.5;

/// Three distinct assignment strategies that share every upstream stage.
/// `Auto` with a tiny path budget resolves to the heuristic on all three
/// benchmarks, so each strategy is cheap but carries its own cache key.
fn strategies() -> Vec<Method> {
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

fn sweep(
    apps: &[CommGraph],
    tech: &TechnologyParameters,
    methods: &[Method],
    ctx: &ExecCtx,
) -> Result<(Vec<Comparison>, f64), String> {
    let started = Instant::now();
    let comparisons =
        compare_grid_ctx(apps, tech, methods, ctx).map_err(|e| format!("sweep failed: {e}"))?;
    Ok((comparisons, started.elapsed().as_secs_f64()))
}

/// Wall-clocks and disk counters of the cold-process warm-restart pass.
struct WarmRestart {
    seed_s: f64,
    warm_s: f64,
    speedup: f64,
    disk: StoreStats,
}

fn json_doc(
    uncached_s: f64,
    cached_s: f64,
    speedup: f64,
    stats: &CacheStats,
    warm: &WarmRestart,
) -> Value {
    let names = TRACKED.map(|b| Value::String(b.name().to_owned()));
    object([
        ("benchmarks", Value::Array(names.into())),
        ("strategies", count(strategies().len())),
        ("uncached_s", Value::Number(uncached_s)),
        ("cached_s", Value::Number(cached_s)),
        ("speedup", Value::Number(speedup)),
        (
            "cache",
            object([
                ("hits", count(stats.hits)),
                ("misses", count(stats.misses)),
                ("hit_rate", Value::Number(stats.hit_rate())),
                ("entries", count(stats.entries)),
                ("evictions", count(stats.evictions)),
            ]),
        ),
        (
            "warm_restart",
            object([
                ("seed_s", Value::Number(warm.seed_s)),
                ("warm_s", Value::Number(warm.warm_s)),
                ("speedup", Value::Number(warm.speedup)),
                ("disk_hits", count(warm.disk.hits)),
                ("disk_misses", count(warm.disk.misses)),
                ("disk_corrupt", count(warm.disk.corrupt)),
                ("disk_version_skips", count(warm.disk.version_skips)),
                ("disk_writes", count(warm.disk.writes)),
                ("disk_write_errors", count(warm.disk.write_errors)),
            ]),
        ),
    ])
}

/// Measures the persistent tier: a seed sweep populates `dir`, then a sweep
/// with a fresh memory cache and a *new* [`DiskStore`] handle over the same
/// directory — exactly the state a process restart preserves — must be
/// served from disk. Returns the warm comparisons alongside the timings so
/// the caller can check bit-identity against the uncached report.
fn warm_restart(
    apps: &[CommGraph],
    tech: &TechnologyParameters,
    methods: &[Method],
    threads: usize,
    dir: &Path,
    uncached_s: f64,
) -> Result<(Vec<Comparison>, WarmRestart), String> {
    let open = |d: &Path| -> Result<Arc<DiskStore>, String> {
        Ok(Arc::new(DiskStore::open(d).map_err(|e| {
            format!("cannot open store {}: {e}", d.display())
        })?))
    };

    let seed_ctx = ExecCtx::cached()
        .with_threads(threads)
        .with_store(open(dir)?);
    let (_, seed_s) = sweep(apps, tech, methods, &seed_ctx)?;

    // Cold process: only the on-disk records survive. A fresh memory cache
    // plus a new store handle over the same directory reproduces that.
    let warm_store = open(dir)?;
    let warm_ctx = ExecCtx::cached()
        .with_threads(threads)
        .with_store(Arc::clone(&warm_store) as Arc<dyn ArtifactStore>);
    let (warm, warm_s) = sweep(apps, tech, methods, &warm_ctx)?;

    let restart = WarmRestart {
        seed_s,
        warm_s,
        speedup: uncached_s / warm_s.max(1e-12),
        disk: warm_store.stats(),
    };
    Ok((warm, restart))
}

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let threads = take_threads_flag(&mut raw);
    let cache_dir = take_value_flag(&mut raw, "cache-dir").map(PathBuf::from);
    let out_path = raw
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());

    // A user-supplied --cache-dir is kept afterwards (it is their store);
    // the default scratch directory is wiped before and after the run so
    // the seed sweep always starts cold.
    let user_dir = cache_dir.is_some();
    let store_dir = cache_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("sring-pipeline-cache-{}", std::process::id()))
    });
    if !user_dir {
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    let tech = harness_tech();
    let apps: Vec<_> = TRACKED.iter().map(|b| b.graph()).collect();
    let methods = strategies();

    let uncached_ctx = ExecCtx::new().with_threads(threads);
    let (uncached, uncached_s) = match sweep(&apps, &tech, &methods, &uncached_ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: uncached {e}");
            return ExitCode::FAILURE;
        }
    };

    let cached_ctx = ExecCtx::cached().with_threads(threads);
    let (cached, cached_s) = match sweep(&apps, &tech, &methods, &cached_ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cached {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = cached_ctx.cache_stats().expect("cache attached");

    let (warm, restart) =
        match warm_restart(&apps, &tech, &methods, threads, &store_dir, uncached_s) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: warm restart: {e}");
                return ExitCode::FAILURE;
            }
        };
    if !user_dir {
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    let uncached_csv = to_csv(&uncached);
    let cached_csv = to_csv(&cached);
    let warm_csv = to_csv(&warm);
    let speedup = uncached_s / cached_s.max(1e-12);

    println!(
        "pipeline cache sweep — {} benchmarks × {} strategies",
        apps.len(),
        methods.len()
    );
    println!("uncached: {uncached_s:.3} s");
    println!("cached:   {cached_s:.3} s ({speedup:.2}x)");
    println!(
        "cache:    {} hits, {} misses ({:.1}% hit rate), {} entries, {} evictions",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.entries,
        stats.evictions
    );
    println!(
        "warm restart: seed {:.3} s, warm {:.3} s ({:.2}x vs uncached); disk {} hits, \
         {} misses, {} corrupt, {} version skips, {} writes",
        restart.seed_s,
        restart.warm_s,
        restart.speedup,
        restart.disk.hits,
        restart.disk.misses,
        restart.disk.corrupt,
        restart.disk.version_skips,
        restart.disk.writes
    );

    let mut doc = json_doc(uncached_s, cached_s, speedup, &stats, &restart).to_json();
    doc.push('\n');
    if let Err(e) = std::fs::write(&out_path, doc) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("stats written to {out_path}");

    if cached_csv != uncached_csv {
        eprintln!("error: cached report differs from the uncached one");
        return ExitCode::FAILURE;
    }
    if warm_csv != uncached_csv {
        eprintln!("error: warm-restart report differs from the uncached one");
        return ExitCode::FAILURE;
    }
    println!("reports: bit-identical uncached, cached and warm-restarted");
    if stats.hits == 0 {
        eprintln!("error: the cached sweep recorded no cache hits");
        return ExitCode::FAILURE;
    }
    if speedup < MIN_SPEEDUP {
        eprintln!("error: cached sweep only {speedup:.2}x faster (need {MIN_SPEEDUP}x)");
        return ExitCode::FAILURE;
    }
    if restart.disk.hits == 0 {
        eprintln!("error: the warm-restart sweep recorded no disk hits");
        return ExitCode::FAILURE;
    }
    if restart.disk.corrupt > 0 {
        eprintln!(
            "error: the warm-restart sweep hit {} corrupt store record(s)",
            restart.disk.corrupt
        );
        return ExitCode::FAILURE;
    }
    if restart.speedup < MIN_SPEEDUP {
        eprintln!(
            "error: warm restart only {:.2}x faster than uncached (need {MIN_SPEEDUP}x)",
            restart.speedup
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
