//! The cold-synthesis workloads, `table2-milp` and `cluster-scale`: every
//! design is synthesized from scratch on a fresh `ExecCtx::cached()`, so
//! nothing is reused across designs or passes.

use crate::calib::Gauge;
use crate::check::{check_design, CheckTimes, Facts, Reference};
use crate::inputs::{cold_designs, Workload, DEFAULT_SEED};
use crate::spans::Spans;
use crate::stats::{geomean, median, percentiles};
use crate::{ratio, Metrics, RunResult};
use onoc_ctx::ExecCtx;
use sring_core::{
    assign_ctx, run_stage, AssignStage, AssignmentProblem, AssignmentStrategy, ClusterStage,
    LayoutStage, RouteStage, SringReport, SringSynthesizer,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPEATS: usize = 9;
/// Gauge slices run before every timed design and set-up.
const GAUGE_SLICES: usize = 8;
/// No pass beyond the second starts once the passes have taken this many
/// times `--seconds`, which keeps a run on a very slow host within its
/// time limit.
const PASS_START_LIMIT: f64 = 1.5;

/// Passes per run: as many as fit in `seconds` at the speed of the box
/// the benchmark was built on (2 vCPU Xeon at 2.1 GHz: a `table2-milp`
/// pass takes about 6.5 s, a `cluster-scale` pass about 11.5 s), and at
/// least two. A count that does not depend on the speed of the moment
/// keeps the medians of N comparable from run to run; only on a host
/// [`PASS_START_LIMIT`] times too slow does a run stop early.
fn passes(workload: Workload, seconds: f64) -> usize {
    let nominal_pass_s = match workload {
        Workload::ClusterScale => 11.5,
        _ => 6.5,
    };
    ((seconds / nominal_pass_s).round() as usize).max(2)
}

/// One run's set-up: generate the inputs and warm the code and allocator
/// with one MWD synthesis, as every process pays on start.
fn set_up(workload: Workload, seed: u64) -> Duration {
    let started = Instant::now();
    black_box(cold_designs(workload, seed));
    let warm = onoc_graph::benchmarks::Benchmark::Mwd.graph();
    black_box(SringSynthesizer::new().synthesize_detailed_ctx(&warm, &ExecCtx::cached()))
        .expect("MWD synthesizes");
    started.elapsed()
}

/// [`SETUP_REPEATS`] set-ups, each after gauge slices: their times, and
/// the gauge mark right after each.
fn set_ups(workload: Workload, seed: u64, gauge: &mut Gauge) -> Vec<(f64, usize)> {
    (0..SETUP_REPEATS)
        .map(|_| {
            gauge.sample(GAUGE_SLICES);
            (set_up(workload, seed).as_secs_f64(), gauge.len())
        })
        .collect()
}

/// The median of timings `(seconds, gauge mark)`, each corrected by the
/// slowdown over the gauge slices right before and right after it, and
/// the uncorrected median.
fn corrected_median(times: &[(f64, usize)], gauge: &Gauge) -> (f64, f64) {
    let corrected: Vec<f64> = times
        .iter()
        .map(|&(t, mark)| t / Gauge::correction(gauge.slowdown_around(mark, GAUGE_SLICES)))
        .collect();
    let raw: Vec<f64> = times.iter().map(|&(t, _)| t).collect();
    (
        median(&corrected).expect("timed at least once"),
        median(&raw).expect("timed at least once"),
    )
}

/// Checks shared by the timed and the traced run: the design checks plus
/// the reference comparison.
fn check(
    label: &str,
    app: &onoc_graph::CommGraph,
    report: &SringReport,
    reference: &Reference,
    seed: u64,
) -> (Vec<String>, CheckTimes) {
    let (mut problems, times) = check_design(label, app, report);
    problems.extend(reference.compare(label, &Facts::of(report), seed == DEFAULT_SEED));
    (problems, times)
}

/// The timed run: [`passes`] over the workload's designs, with gauge
/// slices before every design and set-up and once at the end. Every time
/// is corrected by the slowdown over the slices right around it (see
/// [`crate::calib`]), and each design's time is the median of its passes.
pub fn timed(workload: Workload, seed: u64, seconds: f64, reference: &Reference) -> RunResult {
    let mut gauge = Gauge::new();
    let setups = set_ups(workload, seed, &mut gauge);
    let synth = SringSynthesizer::new();
    let designs = cold_designs(workload, seed);
    let mut run = RunResult::default();
    let mut times: BTreeMap<&str, Vec<(f64, usize)>> = BTreeMap::new();
    let passes = passes(workload, seconds);
    let window = Instant::now();
    for pass in 0..passes {
        if pass >= 2 && window.elapsed().as_secs_f64() > PASS_START_LIMIT * seconds {
            run.notes
                .push(format!("stopped after {pass} of {passes} passes"));
            break;
        }
        for design in &designs {
            gauge.sample(GAUGE_SLICES);
            let ctx = ExecCtx::cached();
            let started = Instant::now();
            let result = synth.synthesize_detailed_ctx(black_box(&design.graph), &ctx);
            let elapsed = started.elapsed().as_secs_f64();
            run.attempted += 1;
            let problems = match black_box(result) {
                Err(e) => vec![format!("{}: synthesis failed: {e}", design.label)],
                Ok(report) => {
                    let (mut problems, _) =
                        check(&design.label, &design.graph, &report, reference, seed);
                    let hits = ctx.cache_stats().map_or(0, |s| s.hits);
                    if hits != 0 {
                        problems.push(format!("{}: {hits} cache hits on a cold run", design.label));
                    }
                    problems
                }
            };
            run.fail(problems);
            times
                .entry(&design.label)
                .or_default()
                .push((elapsed, gauge.len()));
        }
    }

    gauge.sample(GAUGE_SLICES);
    let (medians, raw): (Vec<f64>, Vec<f64>) =
        times.values().map(|t| corrected_median(t, &gauge)).unzip();
    let ms: Vec<f64> = medians.iter().map(|s| s * 1e3).collect();
    let p = percentiles(&ms).expect("at least one design ran");
    let pass_s: f64 = medians.iter().sum();
    let (setup_s, raw_setup_s) = corrected_median(&setups, &gauge);
    let m = &mut run.metrics;
    m.set("setup_s", setup_s);
    m.set("pass_s", pass_s);
    m.set("op_geomean_ms", geomean(&ms).unwrap_or(f64::NAN));
    m.set("op_p99_ms", p.p99);
    m.set("peak_rss_mb", crate::peak_rss_mb().unwrap_or(f64::NAN));
    run.notes.push(format!(
        "passes={passes} designs={} slowdown={} gauge_slices={} uncorrected: setup_s={raw_setup_s} pass_s={} times_s={:?}",
        p.samples,
        gauge.slowdown(),
        gauge.len(),
        raw.iter().sum::<f64>(),
        times
            .iter()
            .map(|(d, t)| (d, t.iter().map(|(s, _)| *s).collect::<Vec<_>>()))
            .collect::<BTreeMap<_, _>>()
    ));
    run
}

/// The traced run: one untraced pass, then the same designs again with
/// every stage called separately through `run_stage` under a span,
/// finished by a second `synthesize_detailed_ctx` on the now-warm context.
pub fn traced(workload: Workload, seed: u64, reference: &Reference) -> (RunResult, Spans) {
    let synth = SringSynthesizer::new();
    let config = synth.config().clone();
    let designs = cold_designs(workload, seed);
    let mut run = RunResult::default();
    set_up(workload, seed);

    let mut untraced = BTreeMap::new();
    let mut untraced_s = 0.0;
    for design in &designs {
        let ctx = ExecCtx::cached();
        let started = Instant::now();
        let result = synth.synthesize_detailed_ctx(&design.graph, &ctx);
        untraced_s += started.elapsed().as_secs_f64();
        if let Ok(report) = result {
            untraced.insert(design.label.clone(), Facts::of(&report).hash);
        }
    }

    let mut spans = Spans::new();
    let mut l = Metrics::default();
    let (mut traced_s, mut coverage_min) = (0.0, f64::INFINITY);
    let (mut milp_runs, mut milp_proven) = (0.0, 0.0);
    for design in &designs {
        let (label, app) = (design.label.as_str(), &design.graph);
        run.attempted += 1;
        let ctx = ExecCtx::cached();
        let root = spans.open("design", label, None);
        let synth_span = spans.open("synth", label, Some(root));
        let memo_before = ctx.memo_stats().unwrap_or_default();
        let (clustering, d) = spans.time("cluster", label, Some(synth_span), || {
            run_stage(
                &ctx,
                &ClusterStage {
                    app,
                    config: &config,
                },
            )
        });
        l.add("cluster.busy_s", d.as_secs_f64());
        let memo_after = ctx.memo_stats().unwrap_or_default();
        let pipeline = clustering.and_then(|clustering| {
            l.add("cluster.sub_rings", clustering.sub_ring_count() as f64);
            let (layout, d) = spans.time("layout", label, Some(synth_span), || {
                run_stage(
                    &ctx,
                    &LayoutStage {
                        app,
                        config: &config,
                        clustering: &clustering,
                    },
                )
            });
            l.add("layout.busy_s", d.as_secs_f64());
            let layout = layout?;
            let (route, d) = spans.time("route", label, Some(synth_span), || {
                run_stage(
                    &ctx,
                    &RouteStage {
                        app,
                        config: &config,
                        clustering: &clustering,
                        layout: &layout,
                    },
                )
            });
            l.add("route.busy_s", d.as_secs_f64());
            let route = route?;
            let (assignment, d) = spans.time("assign", label, Some(synth_span), || {
                run_stage(
                    &ctx,
                    &AssignStage {
                        app,
                        config: &config,
                        route: &route,
                        cacheable: true,
                    },
                )
            });
            l.add("assign.busy_s", d.as_secs_f64());
            Ok((route, assignment?, d))
        });
        let cache = ctx.cache_stats().unwrap_or_default();
        let Ok((route, assignment, assign_d)) = pipeline else {
            spans.close(synth_span);
            spans.close(root);
            run.fail(vec![format!("{label}: a stage failed")]);
            continue;
        };
        let (finished, d) = spans.time("finish", label, Some(synth_span), || {
            synth.synthesize_detailed_ctx(app, &ctx)
        });
        l.add("finish.busy_s", d.as_secs_f64());
        let synth_d = spans.close(synth_span);
        traced_s += synth_d.as_secs_f64();
        let coverage = spans.children_length(synth_span).as_secs_f64() / synth_d.as_secs_f64();
        coverage_min = coverage_min.min(coverage);

        let problem = AssignmentProblem::new(
            app.node_count(),
            route.assign_paths.clone(),
            config.tech.splitter_loss(),
        );
        let (_, d) = spans.time("assign.heuristic", label, Some(root), || {
            assign_ctx(&problem, &AssignmentStrategy::Heuristic, &ExecCtx::new())
        });
        l.add("assign.heuristic_s", d.as_secs_f64());

        let mut problems = Vec::new();
        if cache.hits != 0 {
            problems.push(format!("{label}: {} cache hits before finish", cache.hits));
        }
        if coverage < 0.9 {
            problems.push(format!(
                "{label}: stage spans cover only {:.1}% of synthesis",
                coverage * 100.0
            ));
        }
        match finished {
            Err(e) => problems.push(format!("{label}: finish failed: {e}")),
            Ok(report) => {
                let check_span = spans.open("check", label, Some(root));
                let (found, times) = check(label, app, &report, reference, seed);
                spans.close(check_span);
                problems.extend(found);
                l.add("validate.busy_s", times.validate.as_secs_f64());
                l.add("sim.busy_s", times.sim.as_secs_f64());
                let hash = Facts::of(&report).hash;
                if untraced.get(label) != Some(&hash) {
                    problems.push(format!(
                        "{label}: traced design differs from the untraced one"
                    ));
                }
            }
        }
        spans.close(root);
        run.fail(problems);

        l.add(
            "cluster.memo_hits",
            (memo_after.hits - memo_before.hits) as f64,
        );
        l.add(
            "cluster.memo_misses",
            (memo_after.misses - memo_before.misses) as f64,
        );
        l.add("cache.hits", cache.hits as f64);
        l.add("cache.gets", cache.gets as f64);
        l.add("cache.entries", cache.entries as f64);
        l.add("cache.evictions", cache.evictions as f64);
        l.add(
            "memo.entries",
            ctx.memo_stats().unwrap_or_default().entries as f64,
        );
        let solve = assignment.solver_stats.as_ref();
        let solve_s = solve.map_or(0.0, |s| s.solve_time.as_secs_f64());
        l.add("assign.outside_solver_s", assign_d.as_secs_f64() - solve_s);
        if let Some(s) = solve {
            milp_runs += 1.0;
            milp_proven += f64::from(u8::from(assignment.proven_optimal));
            l.add("milp.solve_s", solve_s);
            l.add(
                "milp.lp_s",
                (s.time_in_dual + s.time_in_primal).as_secs_f64(),
            );
            l.add("milp.presolve_s", s.presolve_time.as_secs_f64());
            l.add("milp.nodes", s.nodes_explored as f64);
            l.add("milp.lp_solves", s.lp_solves as f64);
            l.add("milp.pivots", s.total_pivots() as f64);
            l.add("milp.refactorizations", s.refactorizations as f64);
            l.add("milp.warm_hits", s.warm_start_hits as f64);
            l.add("milp.warm_attempts", s.warm_start_attempts as f64);
        }
    }

    l.set_ratios();
    l.set("milp.proven_share", ratio(milp_proven, milp_runs));
    l.set(
        "cache.hit_ratio",
        ratio(l.get("cache.hits"), l.get("cache.gets")),
    );
    l.set("trace.overhead_s", traced_s - untraced_s);
    l.set(
        "trace.span_coverage_min",
        if coverage_min.is_finite() {
            coverage_min
        } else {
            0.0
        },
    );
    run.metrics = l;
    run.notes.push(format!(
        "traced_pass_s={traced_s} untraced_pass_s={untraced_s} milp_runs={milp_runs} milp_proven={milp_proven}"
    ));
    (run, spans)
}

/// Synthesizes every design the reference covers at the default seed and
/// returns their facts, for `--write-reference`.
pub fn reference_entries(workload: Workload) -> Vec<(String, Facts)> {
    let synth = SringSynthesizer::new();
    cold_designs(workload, DEFAULT_SEED)
        .into_iter()
        .map(|design| {
            let report = synth
                .synthesize_detailed_ctx(&design.graph, &ExecCtx::cached())
                .expect("reference designs synthesize");
            (design.label, Facts::of(&report))
        })
        .collect()
}
