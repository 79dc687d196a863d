//! Load generator for the `sring-served` batch synthesis daemon: replays
//! thousands of mixed benchmark requests against an in-process server at
//! configurable concurrency and writes throughput, p50/p95/p99 latency
//! and the shared-cache hit rate to `BENCH_served.json`.
//!
//! ```text
//! served_load [out.json] [--requests N] [--concurrency N] [--workers N]
//! ```
//!
//! Three phases:
//!
//! 1. **Warmup** — one request per tracked benchmark (MWD, VOPD, MPEG,
//!    8PM-24) populates the server's shared artifact cache.
//! 2. **Measured** — `--requests` (default 1200) submissions round-robin
//!    over the tracked mix from `--concurrency` (default 8) client
//!    connections, each timed end-to-end through the wire protocol.
//! 3. **Overflow** — a deliberately tiny second server (one worker,
//!    queue depth 2) is slammed with 16 concurrent slow jobs to prove
//!    overload produces explicit `REJECTED` responses, not buffering.
//!
//! Exits non-zero when any measured request fails, when a single protocol
//! error is recorded, when the post-warmup cache hit rate falls below
//! 50%, or when the overflow phase fails to draw a rejection — which
//! makes the binary double as a CI check of the daemon's steady state.

use onoc_bench::{count, object, take_value_flag};
use onoc_served::proto::{JobSpec, Outcome, RejectReason, Response, Workload};
use onoc_served::{Client, Server, ServerConfig};
use onoc_trace::json::Value;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The request mix (the paper's three multimedia applications plus the
/// smallest processor-memory instance).
const MIX: [&str; 4] = ["MWD", "VOPD", "MPEG", "8PM-24"];

/// Required steady-state shared-cache hit rate after warmup.
const MIN_HIT_RATE: f64 = 0.50;

/// Latencies in seconds plus the index of the slowest request.
struct Measured {
    latencies: Vec<f64>,
    wall_s: f64,
}

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs the measured phase: `requests` submissions round-robin over the
/// mix, from `concurrency` independent connections.
fn run_load(
    addr: std::net::SocketAddr,
    requests: usize,
    concurrency: usize,
) -> Result<Measured, String> {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|_| {
                let next = &next;
                // onoc-lint: allow(L3, reason = "load-generator clients; bounded by --concurrency and joined in-scope")
                scope.spawn(move || -> Result<Vec<f64>, String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    let mut latencies = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= requests {
                            return Ok(latencies);
                        }
                        let spec = JobSpec::new(Workload::Benchmark(MIX[i % MIX.len()].into()));
                        let sent = Instant::now();
                        let response = client.submit(spec).map_err(|e| e.to_string())?;
                        latencies.push(sent.elapsed().as_secs_f64());
                        match response {
                            Response::Job(result) => {
                                if !matches!(result.outcome, Outcome::Completed(_)) {
                                    return Err(format!(
                                        "request {i} did not complete: {:?}",
                                        result.outcome
                                    ));
                                }
                            }
                            other => return Err(format!("request {i}: {other:?}")),
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<_, String>>()
    })?;
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Measured {
        latencies: per_thread.into_iter().flatten().collect(),
        wall_s,
    })
}

/// Slams a one-worker, depth-2 server with 16 concurrent slow jobs and
/// returns `(rejected, answered)`.
fn run_overflow() -> Result<(usize, usize), String> {
    let mut server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_depth: 2,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("cannot start overflow server: {e}"))?;
    let addr = server.addr();
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16)
            .map(|_| {
                // onoc-lint: allow(L3, reason = "overload probe clients; 16 threads joined in-scope")
                scope.spawn(move || -> Result<Response, String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    client
                        .submit(JobSpec::new(Workload::Sleep { millis: 150 }))
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "overflow thread panicked".to_string())?
            })
            .collect::<Result<_, String>>()
    })?;
    let stats = server.shutdown();
    if stats.protocol_errors > 0 {
        return Err(format!(
            "{} protocol errors during the overflow phase",
            stats.protocol_errors
        ));
    }
    let rejected = responses
        .iter()
        .filter(|r| matches!(r, Response::Rejected(RejectReason::QueueFull { .. })))
        .count();
    Ok((rejected, responses.len()))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let requests: usize = take_value_flag(&mut raw, "requests")
        .map(|v| v.parse().map_err(|_| format!("bad --requests `{v}`")))
        .transpose()?
        .unwrap_or(1200);
    let concurrency: usize = take_value_flag(&mut raw, "concurrency")
        .map(|v| v.parse().map_err(|_| format!("bad --concurrency `{v}`")))
        .transpose()?
        .unwrap_or(8)
        .max(1);
    let workers: usize = take_value_flag(&mut raw, "workers")
        .map(|v| v.parse().map_err(|_| format!("bad --workers `{v}`")))
        .transpose()?
        .unwrap_or(0);
    let out_path = raw
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_served.json".to_string());

    let mut server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            queue_depth: requests.max(64), // the bench measures latency, not admission
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.addr();

    // Phase 1: warm the shared cache with one request per mix entry.
    let mut warm_client = Client::connect(addr).map_err(|e| e.to_string())?;
    for name in MIX {
        let response = warm_client
            .submit(JobSpec::new(Workload::Benchmark(name.into())))
            .map_err(|e| e.to_string())?;
        if !matches!(&response, Response::Job(r) if matches!(r.outcome, Outcome::Completed(_))) {
            return Err(format!("warmup {name}: {response:?}"));
        }
    }
    let warm_stats = warm_client.stats().map_err(|e| e.to_string())?;

    // Phase 2: the measured load.
    let measured = run_load(addr, requests, concurrency)?;
    let end_stats = warm_client.stats().map_err(|e| e.to_string())?;
    drop(warm_client);
    let final_stats = server.shutdown();

    let mut sorted = measured.latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let done = sorted.len();
    if done != requests {
        return Err(format!("measured {done} of {requests} requests"));
    }
    let mean_s = sorted.iter().sum::<f64>() / done as f64;
    let (p50, p95, p99) = (
        percentile(&sorted, 50.0),
        percentile(&sorted, 95.0),
        percentile(&sorted, 99.0),
    );
    let max_s = sorted.last().copied().unwrap_or(0.0);
    let throughput = done as f64 / measured.wall_s.max(1e-12);

    // Steady-state cache behaviour: only the measured phase's lookups.
    let gets = end_stats.cache_gets - warm_stats.cache_gets;
    let hits = end_stats.cache_hits - warm_stats.cache_hits;
    let hit_rate = hits as f64 / (gets as f64).max(1.0);

    // Phase 3: overload must reject, explicitly.
    let (rejected, overflow_total) = run_overflow()?;

    println!(
        "served_load — {done} requests over {} benchmarks, {concurrency} connections, {} workers",
        MIX.len(),
        final_stats.workers
    );
    println!(
        "throughput: {throughput:.1} req/s (wall {:.3} s)",
        measured.wall_s
    );
    println!(
        "latency: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, mean {:.3} ms, max {:.3} ms",
        p50 * 1e3,
        p95 * 1e3,
        p99 * 1e3,
        mean_s * 1e3,
        max_s * 1e3
    );
    println!(
        "cache: {hits}/{gets} steady-state hits ({:.1}% hit rate), {} entries",
        hit_rate * 100.0,
        final_stats.cache_entries
    );
    println!("overflow: {rejected}/{overflow_total} rejected by the depth-2 queue");

    let latency = [
        ("p50", p50),
        ("p95", p95),
        ("p99", p99),
        ("mean", mean_s),
        ("max", max_s),
    ];
    let mut json = object([
        ("requests", count(done)),
        ("concurrency", count(concurrency)),
        ("workers", count(final_stats.workers)),
        (
            "mix",
            Value::Array(MIX.map(|b| Value::String(b.into())).into()),
        ),
        ("wall_s", Value::Number(measured.wall_s)),
        ("throughput_rps", Value::Number(throughput)),
        (
            "latency_s",
            object(latency.map(|(k, v)| (k, Value::Number(v)))),
        ),
        (
            "cache",
            object([
                ("steady_hits", count(hits)),
                ("steady_gets", count(gets)),
                ("steady_hit_rate", Value::Number(hit_rate)),
                ("entries", count(final_stats.cache_entries)),
            ]),
        ),
        (
            "server",
            object([
                ("accepted", count(final_stats.accepted)),
                ("completed", count(final_stats.completed)),
                ("protocol_errors", count(final_stats.protocol_errors)),
            ]),
        ),
        (
            "overflow",
            object([
                ("submitted", count(overflow_total)),
                ("rejected", count(rejected)),
            ]),
        ),
    ])
    .to_json();
    json.push('\n');
    std::fs::write(&out_path, json).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("stats written to {out_path}");

    if final_stats.protocol_errors > 0 {
        return Err(format!(
            "{} protocol errors during the measured load",
            final_stats.protocol_errors
        ));
    }
    if hit_rate < MIN_HIT_RATE {
        return Err(format!(
            "steady-state hit rate {:.1}% below the {:.0}% floor",
            hit_rate * 100.0,
            MIN_HIT_RATE * 100.0
        ));
    }
    if rejected == 0 {
        return Err("the overflow phase produced no queue-full rejections".to_string());
    }
    Ok(())
}
