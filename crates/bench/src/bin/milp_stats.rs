//! MILP solver statistics for the wavelength-assignment models: solves the
//! MWD/VOPD/MPEG assignment MILPs once with warm-started dual simplex
//! (basis inheritance, the default) and once cold-started, and writes both
//! runs' counters to `BENCH_milp.json` so the solver's perf trajectory is
//! tracked across PRs.
//!
//! ```text
//! milp_stats [out.json] [--benchmark mwd] [--trace-json t.json]
//!            [--require-optimal] [--time-limit SECS]
//! ```
//!
//! Exits non-zero when any solve fails or reports empty statistics, which
//! makes the binary double as a CI smoke check (`ci/check.sh` runs it on
//! MWD alone). `--require-optimal` additionally fails the run when any
//! selected benchmark's warm solve ends without a proven optimum — the
//! release-mode gate `ci/check.sh` holds VOPD to.

use milp_solver::SolveStats;
use onoc_bench::{finish_trace, harness_ctx, harness_tech, harness_trace, take_trace_flag};
use onoc_ctx::ExecCtx;
use onoc_graph::benchmarks::Benchmark;
use sring_core::{AssignmentStrategy, MilpOptions, SringConfig, SringSynthesizer};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The benchmarks whose assignment MILPs are tracked: the paper's three
/// headline applications plus the smallest processor-memory network,
/// added once the sparse simplex brought its model within reach.
const TRACKED: [&str; 4] = ["MWD", "VOPD", "MPEG", "8PM-24"];

struct Run {
    wall_s: f64,
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
        wall_s: report.runtime.as_secs_f64(),
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

fn json_run(out: &mut String, label: &str, run: &Run) {
    let s = &run.stats;
    let _ = write!(
        out,
        "    \"{label}\": {{\n      \"wall_s\": {:.6},\n      \"objective\": {:.6},\n      \
         \"proven_optimal\": {},\n      \"nodes_explored\": {},\n      \"lp_solves\": {},\n      \
         \"lp_reused\": {},\n      \
         \"total_pivots\": {},\n      \"primal_pivots\": {},\n      \"dual_pivots\": {},\n      \
         \"phase1_solves\": {},\n      \"warm_start_attempts\": {},\n      \
         \"warm_start_hits\": {},\n      \"non_root_warm_rate\": {:.4},\n      \
         \"lp_time_s\": {:.6},\n      \"time_in_dual_s\": {:.6},\n      \
         \"time_in_primal_s\": {:.6},\n      \"presolve_time_s\": {:.6},\n      \
         \"solve_time_s\": {:.6},\n      \"max_depth\": {},\n      \
         \"refactorizations\": {},\n      \"eta_updates\": {},\n      \
         \"max_eta_chain\": {},\n      \"max_fill_in\": {},\n      \
         \"presolve_cols_removed\": {},\n      \"polish_nodes\": {},\n      \
         \"polish_pivots\": {}\n    }}",
        run.wall_s,
        run.objective,
        run.proven_optimal,
        s.nodes_explored,
        s.lp_solves,
        s.lp_reused,
        s.total_pivots(),
        s.primal_pivots,
        s.dual_pivots,
        s.phase1_solves,
        s.warm_start_attempts,
        s.warm_start_hits,
        non_root_warm_rate(s),
        s.lp_time().as_secs_f64(),
        s.time_in_dual.as_secs_f64(),
        s.time_in_primal.as_secs_f64(),
        s.presolve_time.as_secs_f64(),
        s.solve_time.as_secs_f64(),
        s.max_depth(),
        s.refactorizations,
        s.eta_updates,
        s.max_eta_chain,
        s.max_fill_in,
        s.presolve_cols_removed,
        s.polish_nodes,
        s.polish_pivots,
    );
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
        "{:<8} {:>8} {:>8} {:>12} {:>12} {:>7} {:>9}",
        "bench", "nodes", "lp", "warm pivots", "cold pivots", "ratio", "warm rate"
    );
    let mut entries = Vec::new();
    for b in selected {
        let warm = match solve(
            b,
            MilpOptions {
                time_limit: time_limit.unwrap_or(MilpOptions::default().time_limit),
                ..MilpOptions::default()
            },
            &ctx,
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if require_optimal && !warm.proven_optimal {
            eprintln!(
                "error: {}: warm solve ended without a proven optimum (objective {:.6}, {} nodes)",
                b.name(),
                warm.objective,
                warm.stats.nodes_explored
            );
            return ExitCode::FAILURE;
        }
        // The cold baseline gets the warm run's node count as its node
        // budget with a relaxed wall-clock limit: on the larger models the
        // default time limit truncates the cold search after far fewer
        // nodes, which would make the pivot totals compare unequal work.
        let cold = match solve(
            b,
            MilpOptions {
                warm_basis: false,
                node_limit: warm.stats.nodes_explored,
                time_limit: Duration::from_secs(60),
                ..MilpOptions::default()
            },
            &ctx,
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        #[allow(clippy::cast_precision_loss)]
        let ratio = cold.stats.total_pivots() as f64 / warm.stats.total_pivots().max(1) as f64;
        println!(
            "{:<8} {:>8} {:>8} {:>12} {:>12} {:>6.2}x {:>8.1}%",
            b.name(),
            warm.stats.nodes_explored,
            warm.stats.lp_solves,
            warm.stats.total_pivots(),
            cold.stats.total_pivots(),
            ratio,
            non_root_warm_rate(&warm.stats) * 100.0
        );
        let mut entry = String::new();
        let _ = write!(entry, "  {{\n    \"benchmark\": \"{}\",\n", b.name());
        json_run(&mut entry, "warm", &warm);
        entry.push_str(",\n");
        json_run(&mut entry, "cold", &cold);
        let _ = write!(entry, ",\n    \"pivot_ratio\": {ratio:.4}\n  }}");
        entries.push(entry);
    }

    let doc = format!("{{\n\"benchmarks\": [\n{}\n]\n}}\n", entries.join(",\n"));
    if let Err(e) = std::fs::write(&out_path, doc) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nstats written to {out_path}");
    finish_trace(&trace, trace_path.as_deref(), started);
    ExitCode::SUCCESS
}
