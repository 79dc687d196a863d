//! Shared helpers for the benchmark harness that regenerates every table
//! and figure of the SRing paper.
//!
//! The `table1`, `table2`, `fig7` and `fig8` binaries print the paper's
//! rows/series next to the paper's published values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::iter_over_hash_type)]

use onoc_ctx::ExecCtx;
use onoc_graph::benchmarks::Benchmark;
use onoc_trace::json::Value;
use onoc_trace::Trace;
use onoc_units::TechnologyParameters;
use std::time::{Duration, Instant};

/// The paper's published Table I values, used for side-by-side reporting:
/// `(benchmark, method, L, il_w, #sp_w, il_w_all)`.
pub const PAPER_TABLE1: [(&str, &str, f64, f64, usize, f64); 28] = [
    ("MWD", "ORNoC", 1.8, 5.2, 5, 21.7),
    ("MWD", "CTORing", 1.4, 4.4, 5, 21.0),
    ("MWD", "XRing", 0.7, 4.2, 5, 20.3),
    ("MWD", "SRing", 0.4, 4.1, 4, 17.5),
    ("VOPD", "ORNoC", 3.0, 6.0, 5, 22.7),
    ("VOPD", "CTORing", 1.4, 4.9, 5, 21.5),
    ("VOPD", "XRing", 1.4, 4.4, 6, 23.9),
    ("VOPD", "SRing", 1.4, 4.4, 4, 17.7),
    ("MPEG", "ORNoC", 2.2, 5.5, 5, 21.7),
    ("MPEG", "CTORing", 1.1, 4.7, 5, 21.0),
    ("MPEG", "XRing", 1.0, 4.4, 6, 23.6),
    ("MPEG", "SRing", 1.0, 4.4, 4, 17.6),
    ("D26", "ORNoC", 5.0, 7.9, 6, 29.2),
    ("D26", "CTORing", 2.4, 5.8, 6, 26.7),
    ("D26", "XRing", 2.4, 4.9, 7, 28.4),
    ("D26", "SRing", 2.4, 4.9, 5, 21.7),
    ("8PM-24", "ORNoC", 1.2, 4.8, 4, 17.6),
    ("8PM-24", "CTORing", 0.7, 4.2, 4, 17.9),
    ("8PM-24", "XRing", 0.6, 4.2, 5, 20.0),
    ("8PM-24", "SRing", 0.6, 4.2, 3, 14.2),
    ("8PM-32", "ORNoC", 1.4, 4.9, 4, 18.2),
    ("8PM-32", "CTORing", 0.9, 4.2, 4, 18.0),
    ("8PM-32", "XRing", 1.4, 4.5, 5, 20.1),
    ("8PM-32", "SRing", 1.4, 4.6, 3, 14.5),
    ("8PM-44", "ORNoC", 1.8, 5.2, 4, 18.4),
    ("8PM-44", "CTORing", 0.8, 4.5, 4, 18.4),
    ("8PM-44", "XRing", 0.8, 4.3, 6, 23.7),
    ("8PM-44", "SRing", 1.4, 4.7, 3, 14.7),
];

/// The paper's Table II runtimes in seconds.
pub const PAPER_TABLE2: [(&str, f64); 7] = [
    ("MWD", 0.12),
    ("VOPD", 0.22),
    ("MPEG", 0.36),
    ("D26", 6.32),
    ("8PM-24", 0.27),
    ("8PM-32", 0.52),
    ("8PM-44", 2.40),
];

/// The paper's published reference row for one `(benchmark, method)` pair.
#[must_use]
pub fn paper_reference(benchmark: &str, method: &str) -> Option<(f64, f64, usize, f64)> {
    PAPER_TABLE1
        .iter()
        .find(|(b, m, ..)| *b == benchmark && *m == method)
        .map(|&(_, _, l, il, sp, il_all)| (l, il, sp, il_all))
}

/// The technology parameters used by every harness binary.
#[must_use]
pub fn harness_tech() -> TechnologyParameters {
    TechnologyParameters::default()
}

/// The benchmarks in Table I order.
#[must_use]
pub fn harness_benchmarks() -> Vec<Benchmark> {
    Benchmark::ALL.to_vec()
}

/// Removes a `--threads N` / `--threads=N` flag from `args` and returns
/// the requested worker count. Absent or malformed → `0`, which every
/// harness entry point resolves to one worker per available core (see
/// [`onoc_ctx::resolve_threads`]).
pub fn take_threads_flag(args: &mut Vec<String>) -> usize {
    if let Some(pos) = args.iter().position(|a| a == "--threads") {
        let value = args.get(pos + 1).and_then(|v| v.parse().ok());
        args.remove(pos);
        if value.is_some() {
            args.remove(pos);
        }
        return value.unwrap_or(0);
    }
    if let Some(pos) = args.iter().position(|a| a.starts_with("--threads=")) {
        let value = args[pos]["--threads=".len()..].parse().ok();
        args.remove(pos);
        return value.unwrap_or(0);
    }
    0
}

/// Removes a `--trace-json PATH` / `--trace-json=PATH` flag from `args`
/// and returns the requested trace output path, if any. A dangling
/// `--trace-json` without a path is removed and ignored with a warning,
/// mirroring [`take_threads_flag`]'s tolerance for malformed flags.
pub fn take_trace_flag(args: &mut Vec<String>) -> Option<String> {
    if let Some(pos) = args.iter().position(|a| a == "--trace-json") {
        args.remove(pos);
        if pos < args.len() {
            return Some(args.remove(pos));
        }
        eprintln!("warning: --trace-json needs a path; tracing disabled");
        return None;
    }
    if let Some(pos) = args.iter().position(|a| a.starts_with("--trace-json=")) {
        let value = args[pos]["--trace-json=".len()..].to_string();
        args.remove(pos);
        if value.is_empty() {
            eprintln!("warning: --trace-json needs a path; tracing disabled");
            return None;
        }
        return Some(value);
    }
    None
}

/// The trace handle for a harness binary: live exactly when the user
/// asked for a `--trace-json` output.
#[must_use]
pub fn harness_trace(trace_path: Option<&String>) -> Trace {
    Trace::enabled_if(trace_path.is_some())
}

/// Removes a generic `--NAME VALUE` / `--NAME=VALUE` flag from `args` and
/// returns the value, if one was given. A dangling `--NAME` without a
/// value is removed and maps to `None`, mirroring the other flag takers'
/// tolerance for malformed input.
pub fn take_value_flag(args: &mut Vec<String>, name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let prefix = format!("--{name}=");
    if let Some(pos) = args.iter().position(|a| *a == flag) {
        args.remove(pos);
        if pos < args.len() {
            return Some(args.remove(pos));
        }
        return None;
    }
    if let Some(pos) = args.iter().position(|a| a.starts_with(&prefix)) {
        let value = args[pos][prefix.len()..].to_string();
        args.remove(pos);
        return (!value.is_empty()).then_some(value);
    }
    None
}

/// Removes a `--no-cache` flag from `args` and reports whether it was
/// present.
pub fn take_no_cache_flag(args: &mut Vec<String>) -> bool {
    if let Some(pos) = args.iter().position(|a| a == "--no-cache") {
        args.remove(pos);
        return true;
    }
    false
}

/// The execution context for a harness binary: carries the trace handle
/// and worker budget, with a fresh content-keyed artifact cache attached
/// unless `no_cache` (bins whose wall-clocks must measure uncached work,
/// like `milp_stats`, pass `true` unconditionally).
#[must_use]
pub fn harness_ctx(trace: &Trace, threads: usize, no_cache: bool) -> ExecCtx {
    let ctx = ExecCtx::cached()
        .with_trace(trace.clone())
        .with_threads(threads);
    if no_cache {
        ctx.without_cache()
    } else {
        ctx
    }
}

/// Finalizes a harness binary's trace: stamps the `total_ns` gauge with
/// the wall-clock since `started` and writes the JSON sink to `path`.
/// No-op when tracing is disabled.
pub fn finish_trace(trace: &Trace, path: Option<&str>, started: Instant) {
    let Some(path) = path else {
        return;
    };
    if !trace.is_enabled() {
        return;
    }
    #[allow(clippy::cast_precision_loss)] // runtimes stay far below 2^53 ns
    trace.gauge("total_ns", started.elapsed().as_nanos() as f64);
    match std::fs::write(path, trace.report().to_json()) {
        Ok(()) => eprintln!("trace written to {path}"),
        Err(e) => eprintln!("warning: cannot write trace to {path}: {e}"),
    }
}

/// A JSON object with `members` in order, for the `BENCH_*.json` writers.
pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// A counter as a JSON number (exact below 2^53).
#[allow(clippy::cast_precision_loss)]
pub fn count(n: impl TryInto<u64>) -> Value {
    Value::Number(n.try_into().unwrap_or(u64::MAX) as f64)
}

/// A duration as a JSON number of seconds.
#[must_use]
pub fn secs(d: Duration) -> Value {
    Value::Number(d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_flag_parsing() {
        let mut args: Vec<String> = ["out.csv", "--threads", "4"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(take_threads_flag(&mut args), 4);
        assert_eq!(args, vec!["out.csv".to_string()]);

        let mut args = vec!["--threads=8".to_string()];
        assert_eq!(take_threads_flag(&mut args), 8);
        assert!(args.is_empty());

        let mut args = vec!["10000".to_string()];
        assert_eq!(take_threads_flag(&mut args), 0);
        assert_eq!(args.len(), 1);

        // A dangling flag is removed, mapping to the default.
        let mut args = vec!["--threads".to_string()];
        assert_eq!(take_threads_flag(&mut args), 0);
        assert!(args.is_empty());
    }

    #[test]
    fn trace_flag_parsing() {
        let mut args: Vec<String> = ["out.csv", "--trace-json", "t.json"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(take_trace_flag(&mut args), Some("t.json".to_string()));
        assert_eq!(args, vec!["out.csv".to_string()]);

        let mut args = vec!["--trace-json=x.json".to_string()];
        assert_eq!(take_trace_flag(&mut args), Some("x.json".to_string()));
        assert!(args.is_empty());

        // Dangling flag: removed, tracing stays off.
        let mut args = vec!["--trace-json".to_string()];
        assert_eq!(take_trace_flag(&mut args), None);
        assert!(args.is_empty());

        let mut args = vec!["plain".to_string()];
        assert_eq!(take_trace_flag(&mut args), None);
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn harness_trace_follows_the_flag() {
        assert!(!harness_trace(None).is_enabled());
        let path = "t.json".to_string();
        assert!(harness_trace(Some(&path)).is_enabled());
    }

    #[test]
    fn value_flag_parsing() {
        let mut args: Vec<String> = ["out.json", "--cache-dir", "/tmp/x"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            take_value_flag(&mut args, "cache-dir"),
            Some("/tmp/x".to_string())
        );
        assert_eq!(args, vec!["out.json".to_string()]);

        let mut args = vec!["--cache-dir=/tmp/y".to_string()];
        assert_eq!(
            take_value_flag(&mut args, "cache-dir"),
            Some("/tmp/y".to_string())
        );
        assert!(args.is_empty());

        // Dangling flag: removed, no value.
        let mut args = vec!["--cache-dir".to_string()];
        assert_eq!(take_value_flag(&mut args, "cache-dir"), None);
        assert!(args.is_empty());

        let mut args = vec!["plain".to_string()];
        assert_eq!(take_value_flag(&mut args, "cache-dir"), None);
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn no_cache_flag_parsing() {
        let mut args: Vec<String> = ["out.csv", "--no-cache"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert!(take_no_cache_flag(&mut args));
        assert_eq!(args, vec!["out.csv".to_string()]);
        assert!(!take_no_cache_flag(&mut args));
    }

    #[test]
    fn harness_ctx_cache_follows_flag() {
        let trace = Trace::disabled();
        assert!(harness_ctx(&trace, 2, false).cache().is_some());
        let ctx = harness_ctx(&trace, 2, true);
        assert!(ctx.cache().is_none());
        assert_eq!(ctx.threads(), 2);
    }

    #[test]
    fn paper_table_covers_all_pairs() {
        for b in Benchmark::ALL {
            for m in ["ORNoC", "CTORing", "XRing", "SRing"] {
                assert!(
                    paper_reference(b.name(), m).is_some(),
                    "missing paper row {b} / {m}"
                );
            }
        }
        assert!(paper_reference("MWD", "nope").is_none());
    }

    #[test]
    fn paper_values_show_sring_winning_on_il_all() {
        // Internal consistency of the transcription: SRing has the lowest
        // il_w^all in every benchmark of the paper's Table I.
        for b in Benchmark::ALL {
            let sring = paper_reference(b.name(), "SRing").unwrap().3;
            for m in ["ORNoC", "CTORing", "XRing"] {
                assert!(sring < paper_reference(b.name(), m).unwrap().3, "{b}/{m}");
            }
        }
    }
}
