//! `sring-cli` — command-line front end for the SRing reproduction.
//!
//! ```text
//! sring-cli list
//! sring-cli synth   --benchmark mwd [--method sring|ornoc|ctoring|xring]
//!                   [--pitch 0.26] [--svg out.svg]
//!                   [--crosstalk] [--report] [--solver-stats]
//!                   [--no-cache] [--cache-stats] [--cache-dir DIR]
//!                   [--trace] [--trace-json out.json]
//! sring-cli compare --benchmark vopd [--pitch 0.26] [--threads N]
//!                   [--no-cache] [--cache-stats] [--cache-dir DIR]
//!                   [--trace] [--trace-json out.json]
//! sring-cli resynth --benchmark mwd --delta SPEC [--delta SPEC ...]
//!                   [--verify] [--pitch 0.26]
//!                   [--no-cache] [--cache-stats] [--cache-dir DIR]
//!                   [--trace] [--trace-json out.json]
//! sring-cli export  --cache-dir DIR --archive FILE
//! sring-cli import  --cache-dir DIR --archive FILE
//! sring-cli trace-check <trace.json> [--phase NAME]...
//! ```
//!
//! `--threads N` (default: one worker per available core) parallelizes
//! `compare`'s method grid; results are identical for every thread
//! count. `synth` and `resynth` run one design on the calling thread.
//!
//! Both pipeline commands run with a content-keyed artifact cache by
//! default (`--no-cache` disables it); `--cache-stats` prints the
//! hit/miss/eviction totals to stderr after the run. `--cache-dir DIR`
//! adds a persistent on-disk tier under `DIR`: lookups fall through
//! memory → disk → compute, results are written through, and damaged or
//! version-skewed files are skipped and counted, never trusted.
//! `export` packs such a directory into one portable archive file;
//! `import` unpacks an archive into a directory, skipping and counting
//! any records that fail validation.
//!
//! `resynth` demonstrates incremental re-synthesis: it synthesizes the
//! benchmark once, applies the `--delta` edits (`add:SRC,DST,BW`,
//! `remove:ID`, `retarget:ID,SRC,DST`, `scale:ID,FACTOR`; IDs are stable
//! message ids, SRC/DST node indices) and re-synthesizes incrementally,
//! reporting the dirty sub-ring fraction. `--verify` cross-checks the
//! incremental result byte-for-byte against a cold from-scratch run.
//!
//! `--trace` prints the per-phase breakdown to stderr; `--trace-json`
//! writes the machine-readable trace report. `trace-check` validates such
//! a report: it must parse, contain every `--phase` path, and its
//! top-level span times must sum to the recorded `total_ns` runtime
//! within 10% (plus a 5 ms floor for very short runs).

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sring::core::{design_bytes, SringConfig, SringSynthesizer};
use sring::ctx::ExecCtx;
use sring::eval::comparison::{compare_grid_ctx, format_table1};
use sring::eval::methods::Method;
use sring::graph::benchmarks::Benchmark;
use sring::graph::{CommDelta, CommGraph};
use sring::layout::svg;
use sring::photonics::{analyze_crosstalk, render_report};
use sring::served::proto::DeltaSpec;
use sring::store::{export_to_path, import_from_path, DiskStore};
use sring::trace::{Trace, TraceReport};
use sring::units::{Millimeters, TechnologyParameters};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sring-cli list\n  sring-cli synth --benchmark <name> [--method sring|ornoc|ctoring|xring] [--pitch <mm>] [--svg <path>] [--crosstalk] [--report] [--solver-stats] [--no-cache] [--cache-stats] [--cache-dir <dir>] [--trace] [--trace-json <path>]\n  sring-cli compare --benchmark <name> [--pitch <mm>] [--threads <n>] [--no-cache] [--cache-stats] [--cache-dir <dir>] [--trace] [--trace-json <path>]\n  sring-cli resynth --benchmark <name> --delta <spec>... [--verify] [--pitch <mm>] [--no-cache] [--cache-stats] [--cache-dir <dir>] [--trace] [--trace-json <path>]\n    delta specs: add:<src>,<dst>,<bw> | remove:<id> | retarget:<id>,<src>,<dst> | scale:<id>,<factor>\n  sring-cli export --cache-dir <dir> --archive <file>\n  sring-cli import --cache-dir <dir> --archive <file>\n  sring-cli trace-check <trace.json> [--phase <path>]..."
    );
    ExitCode::from(2)
}

/// A CLI failure: usage errors exit with 2, runtime failures with 1.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn usage(message: impl Into<String>) -> CliError {
        CliError {
            code: 2,
            message: message.into(),
        }
    }

    fn runtime(message: impl Into<String>) -> CliError {
        CliError {
            code: 1,
            message: message.into(),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::usage(message)
    }
}

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Option<Args> {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let arg = &raw[i];
            if let Some(name) = arg.strip_prefix("--") {
                // Both `--flag value` and `--flag=value` are accepted.
                if let Some((name, value)) = name.split_once('=') {
                    flags.push((name.to_string(), Some(value.to_string())));
                } else {
                    let value = raw.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                    if value.is_some() {
                        i += 1;
                    }
                    flags.push((name.to_string(), value));
                }
            } else {
                return None;
            }
            i += 1;
        }
        Some(Args { flags })
    }

    /// The value of the last occurrence of `--name`.
    ///
    /// Distinguishes the three cases the old accessor conflated: absent
    /// (`Ok(None)`), present with a value (`Ok(Some(..))`), and present
    /// *without* one (`Err`), so `--svg` followed by another flag is a
    /// reported mistake instead of a silently ignored output request.
    fn value(&self, name: &str) -> Result<Option<&str>, String> {
        match self.flags.iter().rev().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, Some(v))) => Ok(Some(v)),
            Some((_, None)) => Err(format!("--{name} requires a value")),
        }
    }

    /// The values of every occurrence of `--name`, in order.
    fn values(&self, name: &str) -> Result<Vec<&str>, String> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| {
                v.as_deref()
                    .ok_or_else(|| format!("--{name} requires a value"))
            })
            .collect()
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    Benchmark::ALL.into_iter().find(|b| {
        b.name().eq_ignore_ascii_case(name)
            || b.name()
                .replace('-', "")
                .eq_ignore_ascii_case(&name.replace('-', ""))
    })
}

fn load_app(args: &Args) -> Result<CommGraph, String> {
    let name = args
        .value("benchmark")?
        .ok_or_else(|| "missing --benchmark".to_string())?;
    let b = benchmark_by_name(name)
        .ok_or_else(|| format!("unknown benchmark `{name}` (try `sring-cli list`)"))?;
    match args.value("pitch")? {
        Some(p) => {
            let pitch: f64 = p.parse().map_err(|_| format!("bad --pitch `{p}`"))?;
            if pitch <= 0.0 {
                return Err("--pitch must be positive".to_string());
            }
            Ok(b.graph_with_pitch(Millimeters(pitch)))
        }
        None => Ok(b.graph()),
    }
}

fn method_by_name(name: &str) -> Option<Method> {
    match name.to_ascii_lowercase().as_str() {
        "sring" => Some(Method::Sring(Default::default())),
        "ornoc" => Some(Method::Ornoc),
        "ctoring" => Some(Method::Ctoring),
        "xring" => Some(Method::Xring),
        _ => None,
    }
}

fn parse_threads(args: &Args) -> Result<usize, String> {
    match args.value("threads")? {
        // Absent: one worker per available core.
        None => Ok(0),
        Some(v) => v.parse().map_err(|_| format!("bad --threads `{v}`")),
    }
}

/// Builds the execution context for a pipeline command: the trace handle
/// is live when `--trace` or `--trace-json` was given (disabled and
/// zero-cost otherwise), the artifact cache is on unless `--no-cache`,
/// and `--cache-dir` attaches the persistent disk tier. `--no-cache`
/// disables both tiers: a run that asked for no caching must not read or
/// write disk state either.
fn ctx_from_args(args: &Args) -> Result<(ExecCtx, Option<String>), String> {
    let json_path = args.value("trace-json")?.map(str::to_string);
    let trace = Trace::enabled_if(json_path.is_some() || args.has("trace"));
    let mut ctx = ExecCtx::cached().with_trace(trace);
    if args.has("no-cache") {
        ctx = ctx.without_cache();
    } else if let Some(dir) = args.value("cache-dir")? {
        let store =
            DiskStore::open(dir).map_err(|e| format!("cannot open cache dir {dir}: {e}"))?;
        ctx = ctx.with_store(Arc::new(store));
    }
    Ok((ctx, json_path))
}

/// The memory-tier line of `--cache-stats`.
fn format_cache_line(stats: Option<&sring::ctx::CacheStats>) -> String {
    match stats {
        Some(s) => format!(
            "cache: {} hits, {} misses ({:.1}% hit rate), {} entries, {} evictions",
            s.hits,
            s.misses,
            s.hit_rate() * 100.0,
            s.entries,
            s.evictions
        ),
        None => "cache: disabled (--no-cache)".to_string(),
    }
}

/// The disk-tier line of `--cache-stats`. Besides the hit/miss/write
/// totals this must surface the three failure counters — `corrupt`,
/// `version_skips`, `write_errors` — because a silently decaying disk
/// tier looks exactly like a cold one from the hit rate alone.
fn format_disk_line(s: &sring::ctx::StoreStats) -> String {
    format!(
        "disk cache: {} hits, {} misses, {} corrupt, {} version skips, {} writes, {} write errors",
        s.hits, s.misses, s.corrupt, s.version_skips, s.writes, s.write_errors
    )
}

/// Prints the cache totals to stderr on `--cache-stats`. A `--no-cache`
/// run reports the cache as disabled instead of silently printing
/// nothing.
fn emit_cache_stats(ctx: &ExecCtx, args: &Args) {
    if !args.has("cache-stats") {
        return;
    }
    eprintln!("{}", format_cache_line(ctx.cache_stats().as_ref()));
    if let Some(s) = ctx.store_stats() {
        eprintln!("{}", format_disk_line(&s));
    }
}

/// Finalizes a live trace: stamps the `total_ns` gauge with the elapsed
/// wall-clock since program start, writes the JSON sink when requested
/// and the human-readable breakdown to stderr on `--trace`.
fn emit_trace(
    trace: &Trace,
    json_path: Option<&str>,
    render: bool,
    started: Instant,
) -> Result<(), CliError> {
    if !trace.is_enabled() {
        return Ok(());
    }
    #[allow(clippy::cast_precision_loss)] // runtimes stay far below 2^53 ns
    trace.gauge("total_ns", started.elapsed().as_nanos() as f64);
    let report = trace.report();
    if render {
        eprint!("{}", report.render());
    }
    if let Some(path) = json_path {
        std::fs::write(path, report.to_json())
            .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
        eprintln!("trace written to {path}");
    }
    Ok(())
}

fn run_synth(args: &Args, tech: &TechnologyParameters, started: Instant) -> Result<(), CliError> {
    let (ctx, trace_json) = ctx_from_args(args)?;
    let trace = ctx.trace().clone();
    let app = {
        let _span = trace.span("load");
        load_app(args)?
    };
    let method = match args.value("method")? {
        None => Method::Sring(Default::default()),
        Some(name) => method_by_name(name)
            .ok_or_else(|| CliError::usage(format!("unknown method `{name}`")))?,
    };
    // `--solver-stats` needs the detailed report (only SRing runs the
    // MILP solver), the plain path keeps the uniform `Method` handle.
    let (design, solver_stats) = if args.has("solver-stats") {
        let Method::Sring(strategy) = &method else {
            return Err(CliError::usage("--solver-stats requires --method sring"));
        };
        let synth = SringSynthesizer::with_config(SringConfig {
            strategy: strategy.clone(),
            tech: tech.clone(),
            ..SringConfig::default()
        });
        let report = synth
            .synthesize_detailed_ctx(&app, &ctx)
            .map_err(|e| CliError::runtime(format!("synthesis failed: {e}")))?;
        (report.design, Some(report.assignment.solver_stats))
    } else {
        let design = method
            .synthesize_ctx(&app, tech, &ctx)
            .map_err(|e| CliError::runtime(format!("synthesis failed: {e}")))?;
        (design, None)
    };
    let a = {
        let _span = trace.span("analyze");
        design.analyze(tech)
    };
    {
        let _span = trace.span("output");
        println!("{design}");
        println!("L        = {:.2}", a.longest_path);
        println!("il_w     = {:.2}", a.worst_insertion_loss);
        println!("#sp_w    = {}", a.max_splitters_passed);
        println!("il_w^all = {:.2}", a.worst_loss_with_pdn);
        println!("#wl      = {}", a.wavelength_count);
        println!("power    = {:.3}", a.total_laser_power);
        println!("crossings = {}", a.total_crossings);
        match solver_stats {
            Some(Some(s)) => {
                println!("\nMILP solver statistics:");
                println!("  nodes explored     = {}", s.nodes_explored);
                println!("  LP solves          = {}", s.lp_solves);
                println!(
                    "  simplex pivots     = {} ({} primal, {} dual)",
                    s.total_pivots(),
                    s.primal_pivots,
                    s.dual_pivots
                );
                println!("  phase-1 solves     = {}", s.phase1_solves);
                println!(
                    "  warm starts        = {}/{} hit ({:.1}%)",
                    s.warm_start_hits,
                    s.warm_start_attempts,
                    s.warm_hit_rate() * 100.0
                );
                println!(
                    "  time in LP         = {:.3} ms ({:.3} dual, {:.3} primal)",
                    s.lp_time().as_secs_f64() * 1e3,
                    s.time_in_dual.as_secs_f64() * 1e3,
                    s.time_in_primal.as_secs_f64() * 1e3
                );
                println!("  max B&B depth      = {}", s.max_depth());
            }
            Some(None) => {
                println!("\nMILP solver statistics: none (heuristic assignment, MILP not run)");
            }
            None => {}
        }
        if args.has("report") {
            println!("\n{}", render_report(&design, &app, tech));
        }
        if args.has("crosstalk") {
            let x = analyze_crosstalk(&design, tech);
            let snr = if x.worst_snr.0.is_finite() {
                format!("{:.1} dB", x.worst_snr.0)
            } else {
                "unbounded (no interferer reaches a detector)".to_string()
            };
            println!(
                "worst SNR = {snr} over {} interfering contributions",
                x.total_interferers
            );
        }
        if let Some(path) = args.value("svg")? {
            let labels: Vec<&str> = app.node_ids().map(|n| app.node_name(n)).collect();
            let doc = svg::render(design.layout(), &labels);
            std::fs::write(path, doc)
                .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
            println!("layout written to {path}");
        }
    }
    emit_cache_stats(&ctx, args);
    emit_trace(&trace, trace_json.as_deref(), args.has("trace"), started)
}

/// One `--delta` edit for `resynth`, in the grammar of [`DeltaSpec`].
fn parse_delta(spec: &str) -> Result<CommDelta, CliError> {
    let delta: DeltaSpec = spec.parse().map_err(CliError::usage)?;
    Ok(delta.to_comm())
}

/// `resynth`: synthesize a benchmark, apply `--delta` edits and
/// re-synthesize incrementally, reporting how much of the design was
/// dirty. `--verify` additionally runs a cold from-scratch synthesis of
/// the edited graph and checks the incremental result is byte-identical.
fn run_resynth(args: &Args, tech: &TechnologyParameters, started: Instant) -> Result<(), CliError> {
    let (ctx, trace_json) = ctx_from_args(args)?;
    let trace = ctx.trace().clone();
    let app = {
        let _span = trace.span("load");
        load_app(args)?
    };
    let deltas = args
        .values("delta")?
        .iter()
        .map(|spec| parse_delta(spec))
        .collect::<Result<Vec<_>, _>>()?;
    if deltas.is_empty() {
        return Err(CliError::usage("resynth needs at least one --delta"));
    }
    let synth = SringSynthesizer::with_config(SringConfig {
        tech: tech.clone(),
        ..SringConfig::default()
    });
    let baseline = {
        let _span = trace.span("baseline");
        synth
            .synthesize_detailed_ctx(&app, &ctx)
            .map_err(|e| CliError::runtime(format!("baseline synthesis failed: {e}")))?
    };
    let result = {
        let _span = trace.span("resynth");
        synth
            .resynthesize(&app, &baseline, &deltas, &ctx)
            .map_err(|e| CliError::runtime(format!("re-synthesis failed: {e}")))?
    };
    {
        let _span = trace.span("output");
        for delta in &deltas {
            println!("applied: {delta}");
        }
        let d = &result.dirty;
        println!(
            "dirty sub-rings: {}/{} ({:.1}%){}",
            d.dirty.len(),
            d.total_rings,
            d.dirty_fraction() * 100.0,
            if d.conservative {
                " [conservative: a delta failed to resolve]"
            } else {
                ""
            }
        );
        let design = &result.report.design;
        let a = design.analyze(tech);
        println!("{design}");
        println!("L        = {:.2}", a.longest_path);
        println!("il_w     = {:.2}", a.worst_insertion_loss);
        println!("#wl      = {}", a.wavelength_count);
        println!("power    = {:.3}", a.total_laser_power);
        if args.has("verify") {
            let scratch = synth
                .synthesize_detailed(&result.graph)
                .map_err(|e| CliError::runtime(format!("verification synthesis failed: {e}")))?;
            if design_bytes(design) == design_bytes(&scratch.design) {
                println!("verify: incremental result is byte-identical to from-scratch synthesis");
            } else {
                return Err(CliError::runtime(
                    "verify FAILED: incremental result differs from from-scratch synthesis",
                ));
            }
        }
    }
    emit_cache_stats(&ctx, args);
    emit_trace(&trace, trace_json.as_deref(), args.has("trace"), started)
}

fn run_compare(args: &Args, tech: &TechnologyParameters, started: Instant) -> Result<(), CliError> {
    let (ctx, trace_json) = ctx_from_args(args)?;
    // `--threads` is the method grid's worker budget; each method runs
    // serially inside its cell.
    let ctx = ctx.with_threads(parse_threads(args)?);
    let trace = ctx.trace().clone();
    let app = {
        let _span = trace.span("load");
        load_app(args)?
    };
    let cmp = compare_grid_ctx(std::slice::from_ref(&app), tech, &Method::standard(), &ctx)
        .map(|mut v| v.remove(0))
        .map_err(|e| CliError::runtime(e.to_string()))?;
    {
        let _span = trace.span("output");
        print!("{}", format_table1(std::slice::from_ref(&cmp)));
        println!("\n{:<10} {:>10} {:>6}", "method", "power[mW]", "#wl");
        for r in &cmp.rows {
            println!(
                "{:<10} {:>10.3} {:>6}",
                r.method, r.total_laser_power.0, r.wavelength_count
            );
        }
    }
    emit_cache_stats(&ctx, args);
    emit_trace(&trace, trace_json.as_deref(), args.has("trace"), started)
}

/// Resolves the `--cache-dir`/`--archive` pair shared by `export` and
/// `import`.
fn store_and_archive<'a>(args: &'a Args, command: &str) -> Result<(DiskStore, &'a str), CliError> {
    let dir = args
        .value("cache-dir")?
        .ok_or_else(|| CliError::usage(format!("{command} needs --cache-dir <dir>")))?;
    let path = args
        .value("archive")?
        .ok_or_else(|| CliError::usage(format!("{command} needs --archive <file>")))?;
    let store = DiskStore::open(dir)
        .map_err(|e| CliError::runtime(format!("cannot open cache dir {dir}: {e}")))?;
    Ok((store, path))
}

/// `export`: packs a cache directory into one portable archive file.
/// Records that fail validation on the way out are skipped and counted —
/// corruption is reported, never laundered into a clean archive.
fn run_export(args: &Args) -> Result<(), CliError> {
    let (store, path) = store_and_archive(args, "export")?;
    let summary = export_to_path(&store, Path::new(path))
        .map_err(|e| CliError::runtime(format!("export failed: {e}")))?;
    if summary.skipped > 0 {
        eprintln!(
            "warning: {} corrupt or unreadable record(s) skipped during export",
            summary.skipped
        );
    }
    println!("exported {summary} to {path}");
    Ok(())
}

/// `import`: unpacks an archive into a cache directory. Damaged or
/// version-skewed records are skipped and counted; only an archive that
/// cannot be interpreted at all (bad magic, future version, I/O failure)
/// is an error.
fn run_import(args: &Args) -> Result<(), CliError> {
    let (store, path) = store_and_archive(args, "import")?;
    let summary = import_from_path(&store, Path::new(path))
        .map_err(|e| CliError::runtime(format!("import failed: {e}")))?;
    if summary.skipped > 0 {
        eprintln!(
            "warning: {} record(s) skipped during import (corrupt or version-skewed)",
            summary.skipped
        );
    }
    println!("imported {summary} from {path}");
    Ok(())
}

/// How far the top-level span sum may drift from the recorded runtime:
/// 10% of the runtime, with a 5 ms floor so sub-millisecond runs are not
/// failed on scheduler noise.
fn trace_check_slack(total: Duration) -> Duration {
    total.mul_f64(0.10).max(Duration::from_millis(5))
}

fn run_trace_check(rest: &[String]) -> Result<(), CliError> {
    let Some((path, flag_rest)) = rest.split_first() else {
        return Err(CliError::usage("trace-check needs a trace JSON path"));
    };
    if path.starts_with("--") {
        return Err(CliError::usage(
            "trace-check takes the path first, then --phase flags",
        ));
    }
    let args = Args::parse(flag_rest)
        .ok_or_else(|| CliError::usage("trace-check accepts only --phase flags after the path"))?;
    let phases = args.values("phase")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    let report = TraceReport::from_json(&text)
        .map_err(|e| CliError::runtime(format!("{path}: invalid trace JSON: {e}")))?;
    for phase in &phases {
        if report.phase(phase).is_none() {
            return Err(CliError::runtime(format!(
                "{path}: missing required phase `{phase}`"
            )));
        }
    }
    let total_ns = report
        .gauge("total_ns")
        .ok_or_else(|| CliError::runtime(format!("{path}: missing `total_ns` gauge")))?;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let total = Duration::from_nanos(total_ns.max(0.0) as u64);
    let covered = report.top_level_total();
    let slack = trace_check_slack(total);
    if covered + slack < total {
        return Err(CliError::runtime(format!(
            "{path}: top-level spans cover only {covered:?} of the {total:?} runtime"
        )));
    }
    if covered > total + slack {
        return Err(CliError::runtime(format!(
            "{path}: top-level spans sum to {covered:?}, exceeding the {total:?} runtime \
             (parallel top-level spans? trace-check expects a serial top level)"
        )));
    }
    let pct = 100.0 * covered.as_secs_f64() / total.as_secs_f64().max(1e-12);
    println!(
        "ok: {} phases recorded, {} required present; top-level spans cover {pct:.1}% of {total:?}",
        report.phases.len(),
        phases.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    #[expect(
        clippy::disallowed_methods,
        reason = "the CLI's own wall-time report, not a pipeline measurement"
    )]
    let started = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        return usage();
    };
    let tech = TechnologyParameters::default();

    let outcome = match command.as_str() {
        "list" => {
            println!("available benchmarks:");
            for b in Benchmark::ALL {
                println!(
                    "  {:<8} #N = {:>2}  #M = {:>2}",
                    b.name(),
                    b.node_count(),
                    b.message_count()
                );
            }
            Ok(())
        }
        "synth" | "compare" | "resynth" => {
            let Some(args) = Args::parse(rest) else {
                return usage();
            };
            match command.as_str() {
                "synth" => run_synth(&args, &tech, started),
                "resynth" => run_resynth(&args, &tech, started),
                _ => run_compare(&args, &tech, started),
            }
        }
        "export" | "import" => {
            let Some(args) = Args::parse(rest) else {
                return usage();
            };
            if command == "export" {
                run_export(&args)
            } else {
                run_import(&args)
            }
        }
        "trace-check" => run_trace_check(rest),
        _ => return usage(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Args {
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw).unwrap()
    }

    #[test]
    fn value_distinguishes_absent_from_missing_value() {
        let a = args(&["--benchmark", "mwd", "--svg", "--report"]);
        // Absent flag: None, no error.
        assert_eq!(a.value("pitch"), Ok(None));
        // Present with a value.
        assert_eq!(a.value("benchmark"), Ok(Some("mwd")));
        // Present without one: an error, not a silent None.
        assert!(a.value("svg").unwrap_err().contains("--svg"));
        // Boolean flags still answer through `has`.
        assert!(a.has("report"));
        assert!(!a.has("crosstalk"));
    }

    #[test]
    fn repeated_flags_last_one_wins() {
        let a = args(&["--threads", "2", "--threads=8"]);
        assert_eq!(a.value("threads"), Ok(Some("8")));
        // `values` still exposes every occurrence in order.
        assert_eq!(a.values("threads"), Ok(vec!["2", "8"]));
    }

    #[test]
    fn bare_flag_among_repeats_is_only_an_error_when_last() {
        let a = args(&["--phase", "--phase", "synth"]);
        assert_eq!(a.value("phase"), Ok(Some("synth")));
        // Collecting all values still surfaces the bare occurrence.
        assert!(a.values("phase").is_err());
    }

    #[test]
    fn equals_and_space_forms_parse_alike() {
        let a = args(&["--pitch=0.5", "--benchmark", "vopd"]);
        assert_eq!(a.value("pitch"), Ok(Some("0.5")));
        assert_eq!(a.value("benchmark"), Ok(Some("vopd")));
    }

    #[test]
    fn positional_tokens_are_rejected() {
        let raw = vec!["synth".to_string()];
        assert!(Args::parse(&raw).is_none());
    }

    #[test]
    fn disk_line_surfaces_the_failure_counters() {
        let s = sring::ctx::StoreStats {
            hits: 7,
            misses: 2,
            corrupt: 3,
            version_skips: 4,
            writes: 9,
            write_errors: 5,
        };
        let line = format_disk_line(&s);
        assert_eq!(
            line,
            "disk cache: 7 hits, 2 misses, 3 corrupt, 4 version skips, 9 writes, 5 write errors"
        );
        // The failure counters must never be dropped from the line: a
        // decaying disk tier is indistinguishable from a cold one by hit
        // rate alone.
        for needle in ["3 corrupt", "4 version skips", "5 write errors"] {
            assert!(line.contains(needle), "missing `{needle}` in `{line}`");
        }
    }

    #[test]
    fn disk_line_reflects_a_real_corrupt_record() {
        use sring::ctx::{ArtifactStore, ContentKey};
        let dir = std::env::temp_dir().join(format!("sring-cli-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = sring::store::DiskStore::open(&dir).expect("opens");
        let key = ContentKey([0x5ead, 0xbeef]);
        store.save("stage", key, b"payload");
        assert!(store.load("stage", key).is_some());
        // Truncate the record on disk: the next load must count it as
        // corrupt, and the disk line must say so.
        let record = walk_single_file(&dir);
        std::fs::write(&record, b"x").expect("truncates");
        assert!(store.load("stage", key).is_none());
        let line = format_disk_line(&store.stats());
        assert!(line.contains("1 corrupt"), "{line}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The single regular file under `dir`, recursively.
    fn walk_single_file(dir: &Path) -> std::path::PathBuf {
        let mut files = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).expect("readable") {
                let path = entry.expect("entry").path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    files.push(path);
                }
            }
        }
        assert_eq!(files.len(), 1, "{files:?}");
        files.remove(0)
    }

    #[test]
    fn cache_line_reports_disabled_without_a_cache() {
        assert_eq!(format_cache_line(None), "cache: disabled (--no-cache)");
    }

    #[test]
    fn delta_specs_parse_and_reject() {
        use sring::graph::{NodeId, StableMessageId};
        assert_eq!(
            parse_delta("add:1,2,1.5").map_err(|e| e.message).unwrap(),
            CommDelta::AddMessage {
                src: NodeId(1),
                dst: NodeId(2),
                bandwidth: 1.5
            }
        );
        assert_eq!(
            parse_delta("retarget:3,0,5")
                .map_err(|e| e.message)
                .unwrap(),
            CommDelta::Retarget {
                id: StableMessageId(3),
                src: NodeId(0),
                dst: NodeId(5)
            }
        );
        assert_eq!(
            parse_delta("scale:2,0.5").map_err(|e| e.message).unwrap(),
            CommDelta::ScaleBandwidth {
                id: StableMessageId(2),
                factor: 0.5
            }
        );
        for bad in ["", "add:1,2", "remove:x", "frob:1", "retarget:1,2"] {
            assert!(parse_delta(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn trace_check_slack_has_a_floor() {
        assert_eq!(
            trace_check_slack(Duration::from_millis(1)),
            Duration::from_millis(5)
        );
        assert_eq!(
            trace_check_slack(Duration::from_secs(10)),
            Duration::from_secs(1)
        );
    }
}
