//! `sring-served` — the batch synthesis daemon and its control CLI.
//!
//! ```text
//! sring-served serve   [--addr 127.0.0.1:0] [--port-file FILE]
//!                      [--workers N] [--queue-depth N]
//!                      [--cache-capacity N] [--cache-dir DIR]
//!                      [--metrics FILE] [--default-deadline-ms MS]
//! sring-served submit  --addr HOST:PORT
//!                      (--benchmark NAME | --random N,M,SEED | --sleep MS |
//!                       --base NAME --delta SPEC [--delta SPEC ...])
//!                      [--strategy auto|heuristic|milp] [--deadline-ms MS]
//!                      [--trace] [--require-cache-hits N]
//!                      [--repeat N] [--save-as NAME]
//! sring-served stats   --addr HOST:PORT
//! sring-served ping    --addr HOST:PORT
//! sring-served shutdown --addr HOST:PORT
//! ```
//!
//! `serve` prints the bound address on stdout (useful with `:0`) and,
//! with `--port-file`, also writes it to a file so scripts can poll for
//! readiness; it then blocks until a client sends `shutdown`, drains the
//! queue and exits. `submit` runs one job (or, with `--repeat N`, the
//! same job N times over a single reused connection — one TCP connect
//! total, not one per job) and prints each result;
//! `--require-cache-hits N` makes it exit non-zero unless the last job
//! was served with at least N memory-cache hits (used by the CI smoke
//! test to prove cross-request cache sharing). `--save-as NAME` stores
//! the result server-side; a later submit with `--base NAME` and one or
//! more `--delta` edits re-synthesizes incrementally against it. Delta
//! specs: `add:SRC,DST,BW`, `remove:ID`, `retarget:ID,SRC,DST`,
//! `scale:ID,FACTOR` (IDs are stable message ids, nodes are indices).

use onoc_served::proto::{DeltaSpec, JobSpec, Outcome, Response, StrategySpec, Workload};
use onoc_served::server::{Server, ServerConfig};
use onoc_served::Client;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sring-served serve [--addr <host:port>] [--port-file <file>] [--workers <n>] [--queue-depth <n>] [--cache-capacity <n>] [--cache-dir <dir>] [--metrics <file>] [--default-deadline-ms <ms>]\n  sring-served submit --addr <host:port> (--benchmark <name> | --random <nodes>,<messages>,<seed> | --sleep <ms> | --base <name> --delta <spec>...) [--strategy auto|heuristic|milp] [--deadline-ms <ms>] [--trace] [--require-cache-hits <n>] [--repeat <n>] [--save-as <name>]\n    delta specs: add:<src>,<dst>,<bw> | remove:<id> | retarget:<id>,<src>,<dst> | scale:<id>,<factor>\n  sring-served stats --addr <host:port>\n  sring-served ping --addr <host:port>\n  sring-served shutdown --addr <host:port>"
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

    fn value(&self, name: &str) -> Result<Option<&str>, String> {
        match self.flags.iter().rev().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, Some(v))) => Ok(Some(v)),
            Some((_, None)) => Err(format!("--{name} requires a value")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// All values of a repeatable flag, in the order given.
    fn values(&self, name: &str) -> Result<Vec<&str>, String> {
        let mut out = Vec::new();
        for (n, v) in &self.flags {
            if n == name {
                match v {
                    Some(v) => out.push(v.as_str()),
                    None => return Err(format!("--{name} requires a value")),
                }
            }
        }
        Ok(out)
    }
}

fn parse_num<T: std::str::FromStr>(args: &Args, name: &str) -> Result<Option<T>, String> {
    match args.value(name)? {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("bad --{name} `{v}`")),
    }
}

fn run_serve(args: &Args) -> Result<(), CliError> {
    let addr = args.value("addr")?.unwrap_or("127.0.0.1:0");
    let mut config = ServerConfig::default();
    if let Some(workers) = parse_num(args, "workers")? {
        config.workers = workers;
    }
    if let Some(depth) = parse_num(args, "queue-depth")? {
        config.queue_depth = depth;
    }
    if let Some(capacity) = parse_num(args, "cache-capacity")? {
        config.cache_capacity = capacity;
    }
    config.cache_dir = args.value("cache-dir")?.map(Into::into);
    config.metrics_path = args.value("metrics")?.map(Into::into);
    if let Some(ms) = parse_num::<u64>(args, "default-deadline-ms")? {
        config.default_deadline = Some(Duration::from_millis(ms));
    }
    let port_file = args.value("port-file")?.map(str::to_string);

    let server = Server::start(addr, config)
        .map_err(|e| CliError::runtime(format!("cannot start server on {addr}: {e}")))?;
    let local = server.addr();
    println!("listening on {local}");
    if let Some(path) = &port_file {
        // The file appearing (atomically, via rename) is the readiness
        // signal scripts poll for.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, local.to_string())
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
    }
    let stats = server.wait();
    eprintln!(
        "drained: {} accepted, {} completed, {} deadline-exceeded, {} failed, \
         {} rejected (queue), {} rejected (shutdown), {} protocol errors",
        stats.accepted,
        stats.completed,
        stats.deadline_exceeded,
        stats.failed,
        stats.rejected_queue_full,
        stats.rejected_shutdown,
        stats.protocol_errors
    );
    Ok(())
}

fn require_addr(args: &Args) -> Result<&str, CliError> {
    args.value("addr")?
        .ok_or_else(|| CliError::usage("missing --addr <host:port>"))
}

fn connect(args: &Args) -> Result<Client, CliError> {
    let addr = require_addr(args)?;
    Client::connect(addr).map_err(|e| CliError::runtime(format!("cannot connect to {addr}: {e}")))
}

fn parse_workload(args: &Args) -> Result<Workload, CliError> {
    let picks = [
        args.value("benchmark")?.is_some(),
        args.value("random")?.is_some(),
        args.value("sleep")?.is_some(),
        args.value("base")?.is_some(),
    ]
    .iter()
    .filter(|p| **p)
    .count();
    if picks != 1 {
        return Err(CliError::usage(
            "submit needs exactly one of --benchmark, --random, --sleep or --base",
        ));
    }
    if let Some(base) = args.value("base")? {
        let deltas = args
            .values("delta")?
            .iter()
            .map(|spec| spec.parse::<DeltaSpec>().map_err(CliError::usage))
            .collect::<Result<Vec<_>, _>>()?;
        if deltas.is_empty() {
            return Err(CliError::usage("--base needs at least one --delta"));
        }
        return Ok(Workload::Delta {
            base: base.to_string(),
            deltas,
        });
    }
    if let Some(name) = args.value("benchmark")? {
        return Ok(Workload::Benchmark(name.to_string()));
    }
    if let Some(spec) = args.value("random")? {
        let parts: Vec<&str> = spec.split(',').collect();
        let [nodes, messages, seed] = parts.as_slice() else {
            return Err(CliError::usage(format!(
                "bad --random `{spec}` (want <nodes>,<messages>,<seed>)"
            )));
        };
        let parse = |v: &str| -> Result<u64, CliError> {
            v.parse()
                .map_err(|_| CliError::usage(format!("bad --random `{spec}`")))
        };
        return Ok(Workload::Random {
            nodes: parse(nodes)?,
            messages: parse(messages)?,
            seed: parse(seed)?,
        });
    }
    let ms = args
        .value("sleep")?
        .unwrap_or_default()
        .parse()
        .map_err(|_| CliError::usage("bad --sleep value"))?;
    Ok(Workload::Sleep { millis: ms })
}

fn parse_strategy(args: &Args) -> Result<StrategySpec, CliError> {
    match args.value("strategy")? {
        None => Ok(StrategySpec::Auto),
        Some(name) => match name.to_ascii_lowercase().as_str() {
            "auto" => Ok(StrategySpec::Auto),
            "heuristic" => Ok(StrategySpec::Heuristic),
            "milp" => Ok(StrategySpec::Milp),
            _ => Err(CliError::usage(format!("unknown strategy `{name}`"))),
        },
    }
}

fn run_submit(args: &Args) -> Result<(), CliError> {
    let mut spec = JobSpec::new(parse_workload(args)?);
    spec.strategy = parse_strategy(args)?;
    spec.collect_trace = args.has("trace");
    spec.save_as = args.value("save-as")?.map(str::to_string);
    if let Some(ms) = parse_num::<u64>(args, "deadline-ms")? {
        spec.deadline = Some(Duration::from_millis(ms));
    }
    let required_hits: Option<u64> = parse_num(args, "require-cache-hits")?;
    let repeat: u64 = parse_num(args, "repeat")?.unwrap_or(1);
    if repeat == 0 {
        return Err(CliError::usage("--repeat must be at least 1"));
    }

    // One connection for the whole batch: `Client` reuses its stream
    // across requests, so N repeats cost one TCP connect, not N.
    let mut client = connect(args)?;
    for iteration in 0..repeat {
        let response = client
            .submit(spec.clone())
            .map_err(|e| CliError::runtime(e.to_string()))?;
        let result = match response {
            Response::Job(result) => result,
            Response::Rejected(reason) => {
                return Err(CliError::runtime(format!("rejected: {reason}")))
            }
            Response::Error(message) => {
                return Err(CliError::runtime(format!("server error: {message}")))
            }
            other => return Err(CliError::runtime(format!("unexpected response: {other:?}"))),
        };
        match &result.outcome {
            Outcome::Completed(summary) => println!(
                "job {} completed: {} → {} wavelengths, {} sub-rings, {} messages",
                result.job_id,
                summary.workload,
                summary.wavelengths,
                summary.sub_rings,
                summary.messages
            ),
            Outcome::DeadlineExceeded { overdue_ns } => println!(
                "job {} deadline exceeded (overdue {:.3} ms)",
                result.job_id,
                *overdue_ns as f64 / 1e6
            ),
            Outcome::Failed(reason) => println!("job {} failed: {reason}", result.job_id),
        }
        println!(
            "  queued {:.3} ms, ran {:.3} ms, cache {}/{} hits",
            result.queue_ns as f64 / 1e6,
            result.run_ns as f64 / 1e6,
            result.cache_hits,
            result.cache_hits + result.cache_misses
        );
        if let Some(trace) = &result.trace_json {
            println!("{trace}");
        }
        if !matches!(result.outcome, Outcome::Completed(_)) {
            return Err(CliError::runtime("job did not complete".to_string()));
        }
        // The cache-hit floor applies to the last job of the batch: with
        // --repeat the earlier iterations warm the shared cache.
        if let Some(required) = required_hits.filter(|_| iteration + 1 == repeat) {
            if result.cache_hits < required {
                return Err(CliError::runtime(format!(
                    "expected ≥{required} cache hits, got {}",
                    result.cache_hits
                )));
            }
        }
    }
    Ok(())
}

fn run_stats(args: &Args) -> Result<(), CliError> {
    let stats = connect(args)?
        .stats()
        .map_err(|e| CliError::runtime(e.to_string()))?;
    println!(
        "workers {}, queued {}\naccepted {}, completed {}, deadline-exceeded {}, failed {}\nrejected: {} queue-full, {} shutting-down; protocol errors {}\ncache: {} hits / {} gets ({:.1}% hit rate), {} entries, {} evictions\ndisk: {} hits, {} misses, {} writes",
        stats.workers,
        stats.queued,
        stats.accepted,
        stats.completed,
        stats.deadline_exceeded,
        stats.failed,
        stats.rejected_queue_full,
        stats.rejected_shutdown,
        stats.protocol_errors,
        stats.cache_hits,
        stats.cache_gets,
        stats.cache_hit_rate() * 100.0,
        stats.cache_entries,
        stats.cache_evictions,
        stats.disk_hits,
        stats.disk_misses,
        stats.disk_writes
    );
    Ok(())
}

fn run_ping(args: &Args) -> Result<(), CliError> {
    connect(args)?
        .ping()
        .map_err(|e| CliError::runtime(e.to_string()))?;
    println!("pong");
    Ok(())
}

fn run_shutdown(args: &Args) -> Result<(), CliError> {
    connect(args)?
        .shutdown()
        .map_err(|e| CliError::runtime(e.to_string()))?;
    println!("shutting down");
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        return usage();
    };
    let Some(args) = Args::parse(rest) else {
        return usage();
    };
    let outcome = match command.as_str() {
        "serve" => run_serve(&args),
        "submit" => run_submit(&args),
        "stats" => run_stats(&args),
        "ping" => run_ping(&args),
        "shutdown" => run_shutdown(&args),
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
