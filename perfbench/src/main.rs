//! The SRing benchmark: runs one workload for a given seed and prints its
//! metrics as the last line of standard output.
//!
//! ```text
//! perfbench --workload <table2-milp|cluster-scale|serve-mix> --seed N --seconds S --trace 0|1
//! perfbench --write-reference
//! ```
//!
//! `--trace 0` times the workload and prints the end-to-end metrics;
//! `--trace 1` runs it again split into layers and prints the per-layer
//! metrics, writing its spans to `out/` beside this package. Every design
//! the run produces is checked; a failed check makes the exit code 1.
//! `NOTES.md` beside this package explains the workloads and metrics.

mod calib;
mod check;
mod cold;
mod inputs;
mod serve;
mod spans;
mod stats;

use check::Reference;
use inputs::Workload;
use onoc_trace::json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload's timed run.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_geomean_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run; a layer
/// the workload does not exercise reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("cluster.busy_s", "s"),
        ("cluster.memo_hits", "count"),
        ("cluster.memo_misses", "count"),
        ("cluster.memo_hit_ratio", "ratio"),
        ("cluster.sub_rings", "count"),
        ("layout.busy_s", "s"),
        ("route.busy_s", "s"),
        ("assign.busy_s", "s"),
        ("assign.heuristic_s", "s"),
        ("assign.outside_solver_s", "s"),
        ("milp.solve_s", "s"),
        ("milp.lp_s", "s"),
        ("milp.presolve_s", "s"),
        ("milp.nodes", "count"),
        ("milp.lp_solves", "count"),
        ("milp.pivots", "count"),
        ("milp.refactorizations", "count"),
        ("milp.warm_hit_ratio", "ratio"),
        ("milp.proven_share", "ratio"),
        ("finish.busy_s", "s"),
        ("validate.busy_s", "s"),
        ("sim.busy_s", "s"),
        ("cache.hit_ratio", "ratio"),
        ("cache.entries", "count"),
        ("cache.evictions", "count"),
        ("memo.entries", "count"),
        ("store.writes", "count"),
        ("store.hits", "count"),
        ("store.write_errors", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_owned(), u))
    .collect();
    for part in ["queue", "run", "wire"] {
        for q in ["p50", "p99"] {
            for class in inputs::Class::ALL {
                names.push((format!("served.{part}_ms.{q}.{}", class.name()), "ms"));
            }
        }
    }
    names.extend(
        [
            ("served.req_p50_ms", "ms"),
            ("served.throughput_rps", "1/s"),
            ("served.hit_ratio", "ratio"),
            ("served.rejected", "count"),
            ("served.protocol_errors", "count"),
            ("resynth.run_ms.reweight", "ms"),
            ("resynth.run_ms.structural", "ms"),
            ("trace.overhead_s", "s"),
            ("trace.span_coverage_min", "ratio"),
            ("failed_share", "ratio"),
        ]
        .map(|(n, u)| (n.to_owned(), u)),
    );
    names
}

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_owned()).or_default() += value;
    }

    /// The value of `name`, 0 when it was never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// Derives the hit ratios from the hit and attempt counts added under
    /// `cluster.memo_*` and `milp.warm_*`.
    pub fn set_ratios(&mut self) {
        let (hits, misses) = (
            self.get("cluster.memo_hits"),
            self.get("cluster.memo_misses"),
        );
        self.set("cluster.memo_hit_ratio", ratio(hits, hits + misses));
        let (hits, attempts) = (self.get("milp.warm_hits"), self.get("milp.warm_attempts"));
        self.set("milp.warm_hit_ratio", ratio(hits, attempts));
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Outcome of one run: operations attempted and failed, the problems
/// found, the metrics, and free-form notes for the log.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records one operation's problems; any problem fails the operation.
    pub fn fail(&mut self, problems: Vec<String>) {
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                map.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let get = |flag: &str| {
        map.get(flag)
            .copied()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checked-out git revision, read from `.git` in the working
/// directory without running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(reference)
        .map(|r| r.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where runs keep their scratch files and span files.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_reference() -> Result<(), String> {
    let mut reference = Reference::default();
    for workload in [Workload::Table2Milp, Workload::ClusterScale] {
        for (label, facts) in cold::reference_entries(workload) {
            reference.insert(&label, facts);
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.txt");
    std::fs::write(&path, reference.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<RunResult, String> {
    let reference = Reference::committed()?;
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let (w, seed, seconds) = (args.workload, args.seed, args.seconds);
    if !args.trace {
        return match w {
            Workload::ServeMix => serve::timed(seed, seconds, &out, &reference),
            _ => Ok(cold::timed(w, seed, seconds, &reference)),
        };
    }
    let (mut run, spans) = match w {
        Workload::ServeMix => serve::traced(seed, seconds, &out, &reference)?,
        _ => cold::traced(w, seed, &reference),
    };
    run.metrics.set(
        "failed_share",
        ratio(run.failed as f64, run.attempted as f64),
    );
    let path = out.join(format!("spans-{}-seed{seed}.json", w.name()));
    std::fs::write(&path, spans.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    run.notes.push(format!("spans={}", path.display()));
    Ok(run)
}

/// The result line: the contract's four keys, with the metrics of the
/// run's kind in table order.
fn result_line(run: &RunResult, trace: bool) -> Result<String, String> {
    let table: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END.map(|(n, u)| (n.to_owned(), u)).to_vec()
    };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = match run.metrics.0.get(&name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let entry = Value::Object(vec![
            ("value".into(), Value::Number(value)),
            ("unit".into(), Value::String(unit.to_owned())),
        ]);
        metrics.push((name, entry));
    }
    let correct = run.failed == 0 && run.attempted > 0;
    Ok(Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Number(run.attempted as f64)),
        ("failed".into(), Value::Number(run.failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ])
    .to_json())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--write-reference"] {
        return match write_reference() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <name> --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={nproc} rev={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision()
    );
    let line = run(&args).and_then(|run| {
        for note in &run.notes {
            println!("# {note}");
        }
        for problem in &run.problems {
            eprintln!("check failed: {problem}");
        }
        Ok((result_line(&run, args.trace)?, run.failed == 0))
    });
    match line {
        Ok((line, ok)) => {
            println!("{line}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = onoc_trace::json::parse(text).unwrap();
        let list = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Array(items)) = doc.get(key) else {
                panic!("{key} is a list")
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
        };
        assert_eq!(
            list("end_to_end"),
            owned(END_TO_END.map(|(n, u)| (n.to_owned(), u)).to_vec())
        );
        assert_eq!(list("per_layer"), owned(per_layer()));
        let Some(Value::Array(workloads)) = doc.get("workloads") else {
            panic!("workloads is a list")
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>());
        let ok = args("--workload serve-mix --seed 3 --seconds 5 --trace 1").unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::ServeMix, 3, 5.0, true)
        );
        assert!(args("--workload nope --seed 3 --seconds 5 --trace 0").is_err());
        assert!(args("--workload serve-mix --seed 3 --seconds 5 --trace 2").is_err());
        assert!(args("--workload serve-mix --seed 3 --seconds 0 --trace 0").is_err());
        assert!(args("--workload serve-mix --seed 3 --trace 0").is_err());
        assert!(args("--workload serve-mix --seed").is_err());
    }

    #[test]
    fn a_failed_operation_makes_the_result_incorrect() {
        let mut run = RunResult::default();
        for (name, _) in END_TO_END {
            run.metrics.set(name, 1.5);
        }
        run.attempted = 2;
        run.fail(Vec::new());
        let line = result_line(&run, false).unwrap();
        assert!(line.starts_with(r#"{"correct":true,"attempted":2,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}"#));
        run.fail(vec!["MWD: design hash differs".into()]);
        let line = result_line(&run, false).unwrap();
        assert!(line.starts_with(r#"{"correct":false,"attempted":2,"failed":1,"#));
        run.metrics.0.remove("pass_s");
        assert!(result_line(&run, false).is_err());
    }
}
