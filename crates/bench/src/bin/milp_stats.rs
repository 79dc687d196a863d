//! MILP solver statistics for the wavelength-assignment models: solves the
//! MWD/VOPD/MPEG/8PM-24 assignment MILPs [`RUNS`] times each and writes
//! their counters, with the median wall-clocks and the host's `nproc`, to
//! `BENCH_milp.json` so the solver's perf trajectory is tracked across
//! PRs. The counters must be identical in every run; any difference fails
//! the binary, which makes it a determinism check too.
//!
//! ```text
//! milp_stats [out.json] [--benchmark mwd] [--trace-json t.json]
//!            [--require-optimal] [--time-limit SECS]
//! ```
//!
//! Exits non-zero when any solve fails or reports empty statistics, which
//! makes the binary double as a CI smoke check (`ci/check.sh` runs it on
//! MWD alone). `--require-optimal` additionally fails the run when any
//! selected benchmark's solve ends without a proven optimum — the
//! release-mode gate `ci/check.sh` holds VOPD to.

use milp_solver::SolveStats;
use onoc_bench::{
    count, finish_trace, harness_ctx, harness_tech, harness_trace, object, secs, take_trace_flag,
};
use onoc_ctx::ExecCtx;
use onoc_graph::benchmarks::Benchmark;
use onoc_trace::json::Value;
use sring_core::{AssignmentStrategy, MilpOptions, SringConfig, SringSynthesizer};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The benchmarks whose assignment MILPs are tracked: the paper's three
/// headline applications plus the smallest processor-memory network,
/// added once the sparse simplex brought its model within reach.
const TRACKED: [&str; 4] = ["MWD", "VOPD", "MPEG", "8PM-24"];

/// Solves per benchmark. Odd, so each median is one run's value.
const RUNS: usize = 5;

struct Run {
    wall: Duration,
    objective: f64,
    proven_optimal: bool,
    stats: SolveStats,
}

fn solve(benchmark: Benchmark, milp: MilpOptions, ctx: &ExecCtx) -> Result<Run, String> {
    let config = SringConfig {
        strategy: AssignmentStrategy::Milp(milp),
        tech: harness_tech(),
        ..SringConfig::default()
    };
    let report = SringSynthesizer::with_config(config)
        .synthesize_detailed_ctx(&benchmark.graph(), ctx)
        .map_err(|e| format!("{benchmark}: synthesis failed: {e}"))?;
    let stats = report
        .assignment
        .solver_stats
        .ok_or_else(|| format!("{benchmark}: MILP strategy produced no solver stats"))?;
    if stats.nodes_explored == 0 || stats.lp_solves == 0 || stats.total_pivots() == 0 {
        return Err(format!("{benchmark}: empty solver stats: {stats:?}"));
    }
    Ok(Run {
        wall: report.runtime,
        objective: report.assignment.objective,
        proven_optimal: report.assignment.proven_optimal,
        stats,
    })
}

/// Fraction of non-root LP solves that re-optimized an inherited basis
/// without a phase-1 solve (the acceptance metric of the warm-start work).
fn non_root_warm_rate(s: &SolveStats) -> f64 {
    if s.lp_solves <= 1 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let rate = s.warm_start_hits as f64 / (s.lp_solves - 1) as f64;
    rate
}

/// The deterministic part of one solve's record: everything but
/// wall-clocks. Every run of a benchmark must give the same value.
fn counters(run: &Run) -> [(&'static str, Value); 18] {
    let s = &run.stats;
    [
        ("objective", Value::Number(run.objective)),
        ("proven_optimal", Value::Bool(run.proven_optimal)),
        ("nodes_explored", count(s.nodes_explored)),
        ("lp_solves", count(s.lp_solves)),
        ("lp_reused", count(s.lp_reused)),
        ("total_pivots", count(s.total_pivots())),
        ("primal_pivots", count(s.primal_pivots)),
        ("dual_pivots", count(s.dual_pivots)),
        ("phase1_solves", count(s.phase1_solves)),
        ("warm_start_attempts", count(s.warm_start_attempts)),
        ("warm_start_hits", count(s.warm_start_hits)),
        ("non_root_warm_rate", Value::Number(non_root_warm_rate(s))),
        ("max_depth", count(s.max_depth())),
        ("refactorizations", count(s.refactorizations)),
        ("eta_updates", count(s.eta_updates)),
        ("max_eta_chain", count(s.max_eta_chain)),
        ("max_fill_in", count(s.max_fill_in)),
        ("presolve_cols_removed", count(s.presolve_cols_removed)),
    ]
}

/// The median over `runs` of one wall-clock, in seconds.
fn median(runs: &[Run], time: impl Fn(&Run) -> Duration) -> Value {
    let mut times: Vec<Duration> = runs.iter().map(time).collect();
    times.sort();
    secs(times[times.len() / 2])
}

/// One benchmark's record in `BENCH_milp.json`: its counters and the
/// median wall-clocks of its runs.
fn record(benchmark: Benchmark, runs: &[Run]) -> Value {
    let name = ("benchmark", Value::String(benchmark.name().to_owned()));
    let times = [
        ("wall_s", median(runs, |r| r.wall)),
        ("lp_time_s", median(runs, |r| r.stats.lp_time())),
        ("presolve_time_s", median(runs, |r| r.stats.presolve_time)),
        ("solve_time_s", median(runs, |r| r.stats.solve_time)),
    ];
    object(std::iter::once(name).chain(counters(&runs[0])).chain(times))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let trace_path = take_trace_flag(&mut raw);
    let trace = harness_trace(trace_path.as_ref());
    // No artifact cache here: the recorded wall-clocks and solver
    // counters must always measure uncached work.
    let ctx = harness_ctx(&trace, 0, true);
    let require_optimal = if let Some(pos) = raw.iter().position(|a| a == "--require-optimal") {
        raw.remove(pos);
        true
    } else {
        false
    };
    let mut time_limit: Option<Duration> = None;
    if let Some(pos) = raw.iter().position(|a| a == "--time-limit") {
        raw.remove(pos);
        if pos < raw.len() {
            match raw.remove(pos).parse::<f64>() {
                Ok(s) if s > 0.0 => time_limit = Some(Duration::from_secs_f64(s)),
                _ => {
                    eprintln!("error: --time-limit needs a positive number of seconds");
                    return ExitCode::from(2);
                }
            }
        } else {
            eprintln!("error: --time-limit needs a value");
            return ExitCode::from(2);
        }
    }
    let mut only: Option<String> = None;
    if let Some(pos) = raw.iter().position(|a| a == "--benchmark") {
        raw.remove(pos);
        if pos < raw.len() {
            only = Some(raw.remove(pos));
        } else {
            eprintln!("error: --benchmark needs a value");
            return ExitCode::from(2);
        }
    }
    if let Some(flag) = raw.iter().find(|a| a.starts_with("--")) {
        eprintln!("error: unknown flag {flag}");
        return ExitCode::from(2);
    }
    let out_path = raw
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_milp.json".to_string());

    let selected: Vec<Benchmark> = Benchmark::ALL
        .into_iter()
        .filter(|b| {
            TRACKED.contains(&b.name())
                && only
                    .as_deref()
                    .is_none_or(|o| b.name().eq_ignore_ascii_case(o))
        })
        .collect();
    if selected.is_empty() {
        eprintln!(
            "error: no benchmark matches {:?} (tracked: {TRACKED:?})",
            only.as_deref().unwrap_or("<all>")
        );
        return ExitCode::from(2);
    }

    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>9} {:>10}",
        "bench", "nodes", "lp", "pivots", "warm rate", "median [s]"
    );
    let milp = MilpOptions {
        time_limit: time_limit.unwrap_or(MilpOptions::default().time_limit),
    };
    let mut entries = Vec::new();
    for b in selected {
        let mut runs = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            let run = match solve(b, milp.clone(), &ctx) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if require_optimal && !run.proven_optimal {
                eprintln!(
                    "error: {}: solve ended without a proven optimum (objective {:.6}, {} nodes)",
                    b.name(),
                    run.objective,
                    run.stats.nodes_explored
                );
                return ExitCode::FAILURE;
            }
            if let Some(first) = runs.first() {
                let (want, got) = (counters(first), counters(&run));
                if got != want {
                    eprintln!(
                        "error: {}: run {} counters differ from run 1:\n  run 1: {}\n  run {}: {}",
                        b.name(),
                        runs.len() + 1,
                        object(want).to_json(),
                        runs.len() + 1,
                        object(got).to_json(),
                    );
                    return ExitCode::FAILURE;
                }
            }
            runs.push(run);
        }
        let s = &runs[0].stats;
        println!(
            "{:<8} {:>8} {:>8} {:>8} {:>8.1}% {:>10}",
            b.name(),
            s.nodes_explored,
            s.lp_solves,
            s.total_pivots(),
            non_root_warm_rate(s) * 100.0,
            median(&runs, |r| r.wall).to_json(),
        );
        entries.push(record(b, &runs));
    }

    let mut doc = object([
        ("nproc", count(onoc_ctx::resolve_threads(0))),
        ("runs", count(RUNS)),
        ("benchmarks", Value::Array(entries)),
    ])
    .to_json();
    doc.push('\n');
    if let Err(e) = std::fs::write(&out_path, doc) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nstats written to {out_path}");
    finish_trace(&trace, trace_path.as_deref(), started);
    ExitCode::SUCCESS
}
