//! `serve-mix`: an in-process `sring-served` with a disk cache, driven in
//! a closed loop by two client connections with a seeded mix of hits,
//! delta jobs and misses. Every reply is checked afterwards against an
//! in-process synthesis of the same input, outside the timed window.
//!
//! The window is served by a sequence of fresh daemons, each answering
//! [`EPOCH`] requests. Every miss and every retargeting delta adds about
//! 1,450 entries to the daemon's shared memo tier, which holds 65,536;
//! once it is full, each insert scans the whole tier to pick its victim
//! and a miss costs about ten times as much. At this mix a daemon fills
//! the tier after about 280 requests, so an epoch of 200 keeps every
//! measured request on the same side of that cliff.

use crate::calib::Gauge;
use crate::check::{check_design, Facts, Reference};
use crate::inputs::{request, request_graph, Class, Planned, DELTA_BASE, HIT_BENCHMARKS, ROUND};
use crate::spans::Spans;
use crate::stats::{geomean, median, percentiles};
use crate::{ratio, Metrics, RunResult};
use onoc_ctx::ExecCtx;
use onoc_graph::benchmarks::Benchmark;
use onoc_graph::CommGraph;
use onoc_served::proto::{JobResult, JobSpec, JobSummary, Outcome, Response, Workload as Job};
use onoc_served::{Client, Server, ServerConfig, ServerStats};
use onoc_trace::report::TraceReport;
use sring_core::SringSynthesizer;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop client connections (the reference box has two cores).
const CLIENTS: usize = 2;
/// Requests answered by each daemon: two whole rounds.
const EPOCH: u64 = 2 * ROUND as u64;
/// Gauge slices run before every daemon start and every round, and once
/// more at the end.
const GAUGE_SLICES: usize = 12;

/// One answered (or failed) request.
struct Sample {
    index: u64,
    planned: Planned,
    /// Seconds from send to reply.
    latency: f64,
    /// Seconds from the start of its epoch's serving to the reply.
    done_at: f64,
    /// The host's slowdown around its round, set once the run ends.
    slowdown: f64,
    reply: Result<JobResult, String>,
}

impl Sample {
    fn summary(&self) -> Option<&JobSummary> {
        match &self.reply {
            Ok(JobResult {
                outcome: Outcome::Completed(summary),
                ..
            }) => Some(summary),
            _ => None,
        }
    }
}

/// One round of requests served in one go, with the gauge slices run
/// right before it (ending at `mark`) and right after it (from `mark`).
struct Round {
    wall_s: f64,
    mark: usize,
    complete: bool,
    /// The host's slowdown over those slices, set once the run ends.
    slowdown: f64,
}

/// One daemon's share of the window.
struct Epoch {
    first: u64,
    samples: Vec<Sample>,
    rounds: Vec<Round>,
    /// Server start plus warm-up, and the gauge mark right after it.
    setup_s: f64,
    setup_mark: usize,
    setup_slowdown: f64,
    /// From the first send to the last reply.
    serving_s: f64,
    /// Server counters after warm-up and after the last reply.
    before: ServerStats,
    after: ServerStats,
    /// Peak resident set size of the process once this epoch served.
    peak_rss_mb: f64,
}

/// Submits `jobs` from [`CLIENTS`] connections; every one must complete.
fn submit_all(addr: SocketAddr, jobs: Vec<JobSpec>) -> Result<(), String> {
    let jobs = Mutex::new(jobs);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    loop {
                        let Some(job) = jobs.lock().expect("no panics holding the lock").pop()
                        else {
                            return Ok(());
                        };
                        match client.submit(job) {
                            Ok(Response::Job(JobResult {
                                outcome: Outcome::Completed(_),
                                ..
                            })) => {}
                            other => return Err(format!("warm-up job failed: {other:?}")),
                        }
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .try_for_each(|c| c.join().expect("warm-up clients do not panic"))
    })
}

/// A running server with its disk cache directory.
struct Served {
    server: Server,
    dir: PathBuf,
}

impl Served {
    /// Starts a server on a fresh cache directory, warms the hit set and
    /// saves the delta base.
    fn start(root: &Path, n: u64) -> Result<Served, String> {
        let dir = root.join(format!("serve-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let config = ServerConfig {
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let server =
            Server::start("127.0.0.1:0", config).map_err(|e| format!("server start: {e}"))?;
        let served = Served { server, dir };
        let warm = HIT_BENCHMARKS
            .into_iter()
            .map(|b| {
                let mut job = JobSpec::new(Job::Benchmark(b.name().to_owned()));
                if b == Benchmark::Mwd {
                    job.save_as = Some(DELTA_BASE.to_owned());
                }
                job
            })
            .collect();
        match submit_all(served.server.addr(), warm) {
            Ok(()) => Ok(served),
            Err(e) => {
                served.stop();
                Err(e)
            }
        }
    }

    fn stop(mut self) -> ServerStats {
        let stats = self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
        stats
    }
}

/// Serves requests `first..` from fresh daemons, [`EPOCH`] each, until
/// `seconds` have passed, set-ups included (at least one epoch). An epoch
/// that has started serves all its requests, unless it alone takes
/// `seconds`. The gauge runs before every daemon start and every round,
/// and once more at the end; each round and set-up is then assigned the
/// slowdown over the slices right around it.
fn serve(
    root: &Path,
    seed: u64,
    first: u64,
    seconds: f64,
    traced: bool,
    gauge: &mut Gauge,
) -> Result<Vec<Epoch>, String> {
    let mut epochs = Vec::new();
    let mut next = first;
    let window = Instant::now();
    while epochs.is_empty() || window.elapsed().as_secs_f64() < seconds {
        gauge.sample(GAUGE_SLICES);
        let started = Instant::now();
        let served = Served::start(root, next)?;
        let setup_s = started.elapsed().as_secs_f64();
        let setup_mark = gauge.len();
        let before = served.server.stats();
        let serving = Instant::now();
        let (mut samples, mut rounds) = (Vec::new(), Vec::new());
        for first in (next..next + EPOCH).step_by(ROUND) {
            gauge.sample(GAUGE_SLICES);
            let started = Instant::now();
            let round = drive(
                served.server.addr(),
                seed,
                first..first + ROUND as u64,
                serving,
                seconds,
                traced,
            );
            rounds.push(Round {
                wall_s: started.elapsed().as_secs_f64(),
                mark: gauge.len(),
                complete: round.len() == ROUND,
                slowdown: 1.0,
            });
            samples.extend(round);
        }
        let peak_rss_mb = crate::peak_rss_mb().unwrap_or(f64::NAN);
        let after = served.stop();
        let serving_s = samples.iter().map(|s| s.done_at).fold(0.0, f64::max);
        epochs.push(Epoch {
            first: next,
            samples,
            rounds,
            setup_s,
            setup_mark,
            setup_slowdown: 1.0,
            serving_s,
            before,
            after,
            peak_rss_mb,
        });
        next += EPOCH;
    }
    gauge.sample(GAUGE_SLICES);
    for e in &mut epochs {
        e.setup_slowdown = gauge.slowdown_around(e.setup_mark, GAUGE_SLICES);
        for r in &mut e.rounds {
            r.slowdown = gauge.slowdown_around(r.mark, GAUGE_SLICES);
        }
        for s in &mut e.samples {
            s.slowdown = e.rounds[((s.index - e.first) / ROUND as u64) as usize].slowdown;
        }
    }
    Ok(epochs)
}

/// Drives the closed loop over the request indices `range` until
/// `seconds` after `window`, the start of the epoch's serving.
fn drive(
    addr: SocketAddr,
    seed: u64,
    range: std::ops::Range<u64>,
    window: Instant,
    seconds: f64,
    traced: bool,
) -> Vec<Sample> {
    let base = Benchmark::Mwd.graph();
    let next = AtomicU64::new(range.start);
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("the daemon accepts connections");
                while window.elapsed().as_secs_f64() < seconds {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= range.end {
                        break;
                    }
                    let planned = request(seed, index, &base);
                    let mut job = planned.job.clone();
                    job.collect_trace = traced;
                    let sent = Instant::now();
                    let response = client.submit(job);
                    let latency = sent.elapsed().as_secs_f64();
                    let done_at = window.elapsed().as_secs_f64();
                    let (reply, broken) = match response {
                        Ok(Response::Job(result)) => (Ok(result), false),
                        Ok(other) => (Err(format!("unexpected response {other:?}")), false),
                        Err(e) => (Err(format!("client error: {e}")), true),
                    };
                    samples
                        .lock()
                        .expect("no client panics holding the lock")
                        .push(Sample {
                            index,
                            planned,
                            latency,
                            done_at,
                            slowdown: 1.0,
                            reply,
                        });
                    if broken {
                        break;
                    }
                }
            });
        }
    });
    let mut samples = samples.into_inner().expect("clients joined");
    samples.sort_by_key(|s| s.index);
    samples
}

/// The in-process answer to one distinct input.
struct Expected {
    summary: JobSummary,
    problems: Vec<String>,
    facts: Facts,
    milp_ran: bool,
    validate: Duration,
    sim: Duration,
}

/// Synthesizes every distinct input in-process on two threads and checks
/// every design; a warmed benchmark is also compared with the committed
/// reference. Each epoch's inputs share one cached context of their own,
/// independent of the daemon's, whose memo stays below capacity as the
/// daemon's did.
fn expected(epochs: &[Epoch], reference: &Reference) -> BTreeMap<String, Expected> {
    let base = Benchmark::Mwd.graph();
    let synth = SringSynthesizer::new();
    let solve = |key: &String, job: &JobSpec, ctx: &ExecCtx| -> Expected {
        let app: CommGraph = request_graph(job, &base);
        let report = synth
            .synthesize_detailed_ctx(&app, ctx)
            .expect("a planned input synthesizes");
        let (mut problems, times) = check_design(key, &app, &report);
        let facts = Facts::of(&report);
        if let Job::Benchmark(name) = &job.workload {
            problems.extend(reference.compare(name, &facts, false));
        }
        Expected {
            summary: JobSummary {
                workload: app.name().to_owned(),
                wavelengths: report.assignment.wavelength_count as u64,
                sub_rings: report.clustering.sub_ring_count() as u64,
                messages: app.message_count() as u64,
            },
            problems,
            facts,
            milp_ran: report.assignment.solver_stats.is_some(),
            validate: times.validate,
            sim: times.sim,
        }
    };
    let mut expected = BTreeMap::new();
    for epoch in epochs {
        let mut inputs: Vec<(String, &JobSpec)> = Vec::new();
        for s in &epoch.samples {
            let key = input_key(&s.planned.job);
            if !expected.contains_key(&key) && !inputs.iter().any(|(k, _)| *k == key) {
                inputs.push((key, &s.planned.job));
            }
        }
        let ctx = ExecCtx::cached();
        let chunk = inputs.len().div_ceil(CLIENTS).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .chunks(chunk)
                .map(|part| {
                    let (solve, ctx) = (&solve, &ctx);
                    scope.spawn(move || {
                        part.iter()
                            .map(|(key, job)| (key.clone(), solve(key, job, ctx)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                expected.extend(h.join().expect("checker threads do not panic"));
            }
        });
    }
    expected
}

/// Identifies one distinct input of the request stream.
fn input_key(job: &JobSpec) -> String {
    format!("{:?}", job.workload)
}

/// Compares every reply with the in-process answer to its input and
/// counts each request that failed, was refused or disagrees. Returns the
/// in-process answers for the per-layer numbers.
fn verify(
    epochs: &[Epoch],
    reference: &Reference,
    run: &mut RunResult,
) -> BTreeMap<String, Expected> {
    let expected = expected(epochs, reference);
    for e in expected.values() {
        run.problems.extend(e.problems.iter().cloned());
    }
    for s in epochs.iter().flat_map(|e| &e.samples) {
        run.attempted += 1;
        let e = &expected[&input_key(&s.planned.job)];
        let problem = match (&s.reply, s.summary()) {
            (Err(e), _) => Some(format!("request {}: {e}", s.index)),
            (Ok(r), None) => Some(format!("request {}: {:?}", s.index, r.outcome)),
            (Ok(_), Some(got)) if *got != e.summary => Some(format!(
                "request {}: reply {got:?} != in-process {:?}",
                s.index, e.summary
            )),
            _ if !e.problems.is_empty() => {
                Some(format!("request {}: its design failed a check", s.index))
            }
            _ => None,
        };
        run.fail(problem.into_iter().collect());
    }
    expected
}

/// The end-to-end metrics of a sequence of epochs; returns the number of
/// latency samples. With `corrected`, every time is corrected by the
/// host's slowdown around its round or set-up (see [`crate::calib`]).
fn end_to_end(m: &mut Metrics, epochs: &[Epoch], corrected: bool) -> usize {
    let k = |slowdown: f64| {
        if corrected {
            Gauge::correction(slowdown)
        } else {
            1.0
        }
    };
    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for s in epochs.iter().flat_map(|e| &e.samples) {
        if s.summary().is_some() {
            let ms = s.latency * 1e3 / k(s.slowdown);
            by_class.entry(s.planned.class).or_default().push(ms);
        }
    }
    let ms: Vec<f64> = by_class.values().flatten().copied().collect();
    let class_medians: Vec<f64> = by_class.values().filter_map(|v| median(v)).collect();
    let rounds: Vec<f64> = epochs
        .iter()
        .flat_map(|e| &e.rounds)
        .filter(|r| r.complete)
        .map(|r| r.wall_s / k(r.slowdown))
        .collect();
    let serving_s: f64 = epochs
        .iter()
        .flat_map(|e| &e.rounds)
        .map(|r| r.wall_s / k(r.slowdown))
        .sum();
    let setups: Vec<f64> = epochs
        .iter()
        .map(|e| e.setup_s / k(e.setup_slowdown))
        .collect();
    let p = percentiles(&ms).expect("requests completed");
    m.set("setup_s", median(&setups).expect("one epoch ran"));
    // A window too short for one whole round falls back to its mean rate.
    m.set(
        "pass_s",
        median(&rounds).unwrap_or(serving_s * ROUND as f64 / ms.len() as f64),
    );
    m.set("op_geomean_ms", geomean(&class_medians).unwrap_or(f64::NAN));
    m.set("op_p99_ms", p.p99);
    m.set("req_p50_ms", p.p50);
    m.set("throughput_rps", ms.len() as f64 / serving_s);
    p.samples
}

/// The timed run.
pub fn timed(
    seed: u64,
    seconds: f64,
    root: &Path,
    reference: &Reference,
) -> Result<RunResult, String> {
    let mut gauge = Gauge::new();
    let epochs = serve(root, seed, 0, seconds, false, &mut gauge)?;
    let mut run = RunResult::default();
    // Later daemons reuse what earlier ones freed, as the allocator sees
    // fit; the first one's peak is the one that repeats from run to run.
    run.metrics.set("peak_rss_mb", epochs[0].peak_rss_mb);
    verify(&epochs, reference, &mut run);
    let n = end_to_end(&mut run.metrics, &epochs, true);
    let mut raw = Metrics::default();
    end_to_end(&mut raw, &epochs, false);
    run.notes.push(format!(
        "epochs={} latency_samples={n} slowdown={} gauge_slices={} uncorrected={:?}",
        epochs.len(),
        gauge.slowdown(),
        gauge.len(),
        raw.0
    ));
    Ok(run)
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The traced run: epochs for half the window untraced, then epochs for
/// half with every job's trace returned. Client-side spans `request`,
/// with the server's `queue` and `run` intervals as children (placed
/// assuming no inbound wire time), go to the span file.
pub fn traced(
    seed: u64,
    seconds: f64,
    root: &Path,
    reference: &Reference,
) -> Result<(RunResult, Spans), String> {
    let mut spans = Spans::new();
    // The traced run's own slowdown is not applied: its per-layer times
    // are wall times, and the overhead compares two halves of one run.
    let mut gauge = Gauge::new();
    let plain = serve(root, seed, 0, seconds / 2.0, false, &mut gauge)?;
    let first = plain.last().map_or(0, |e| e.first + EPOCH);
    let traced_origin = spans.now();
    let traced = serve(root, seed, first, seconds / 2.0, true, &mut gauge)?;
    let epochs: Vec<Epoch> = plain.into_iter().chain(traced).collect();
    let (plain, traced) = epochs.split_at(epochs.iter().take_while(|e| e.first < first).count());

    let mut run = RunResult::default();
    let expected = verify(&epochs, reference, &mut run);
    let (mut untraced_m, mut traced_m) = (Metrics::default(), Metrics::default());
    end_to_end(&mut untraced_m, plain, false);
    end_to_end(&mut traced_m, traced, false);
    let m = &mut run.metrics;
    m.set(
        "trace.overhead_s",
        traced_m.get("pass_s") - untraced_m.get("pass_s"),
    );
    m.set("served.req_p50_ms", untraced_m.get("req_p50_ms"));
    m.set("served.throughput_rps", untraced_m.get("throughput_rps"));

    // Queue, run and wire time per class, from the untraced half (a
    // returned trace would inflate the wire time).
    let mut split: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let (mut reweight, mut structural) = (Vec::new(), Vec::new());
    for s in plain.iter().flat_map(|e| &e.samples) {
        let (Ok(r), Some(_)) = (&s.reply, s.summary()) else {
            continue;
        };
        let class = s.planned.class.name();
        let (queue, run_ms) = (ns_ms(r.queue_ns), ns_ms(r.run_ns));
        split.entry(("queue", class)).or_default().push(queue);
        split.entry(("run", class)).or_default().push(run_ms);
        split
            .entry(("wire", class))
            .or_default()
            .push(s.latency * 1e3 - queue - run_ms);
        if s.planned.class == Class::Delta {
            if s.planned.structural {
                &mut structural
            } else {
                &mut reweight
            }
            .push(run_ms);
        }
    }
    for part in ["queue", "run", "wire"] {
        for class in Class::ALL {
            let p = split
                .get(&(part, class.name()))
                .and_then(|v| percentiles(v));
            for (q, v) in [("p50", p.map(|p| p.p50)), ("p99", p.map(|p| p.p99))] {
                m.set(
                    &format!("served.{part}_ms.{q}.{}", class.name()),
                    v.unwrap_or(0.0),
                );
            }
        }
    }
    m.set("resynth.run_ms.reweight", median(&reweight).unwrap_or(0.0));
    m.set(
        "resynth.run_ms.structural",
        median(&structural).unwrap_or(0.0),
    );

    // Server counters over every epoch's measured requests.
    let mut t = Metrics::default();
    for e in &epochs {
        let (b, a) = (&e.before, &e.after);
        t.add("cache.hits", (a.cache_hits - b.cache_hits) as f64);
        t.add("cache.gets", (a.cache_gets - b.cache_gets) as f64);
        t.add(
            "served.rejected",
            (a.rejected_queue_full + a.rejected_shutdown) as f64,
        );
        t.add(
            "served.rejected",
            -((b.rejected_queue_full + b.rejected_shutdown) as f64),
        );
        t.add(
            "served.protocol_errors",
            (a.protocol_errors - b.protocol_errors) as f64,
        );
        t.add(
            "cache.evictions",
            (a.cache_evictions - b.cache_evictions) as f64,
        );
        t.add("store.writes", (a.disk_writes - b.disk_writes) as f64);
        t.add("store.hits", (a.disk_hits - b.disk_hits) as f64);
        t.set(
            "cache.entries",
            t.get("cache.entries").max(a.cache_entries as f64),
        );
    }
    let hit_ratio = ratio(t.get("cache.hits"), t.get("cache.gets"));
    t.set("served.hit_ratio", hit_ratio);
    t.set("cache.hit_ratio", hit_ratio);

    // Stage time and counters the server returned with each traced job.
    let (mut memo_entries, mut write_errors, mut coverage_min) = (0.0f64, 0.0f64, f64::INFINITY);
    let mut epoch_origin = traced_origin;
    for e in traced {
        for s in &e.samples {
            let Ok(JobResult {
                trace_json: Some(json),
                queue_ns,
                run_ns,
                ..
            }) = &s.reply
            else {
                continue;
            };
            let report = TraceReport::from_json(json).map_err(|e| format!("job trace: {e}"))?;
            let phase = |path: &str| report.phase(path).map_or(0.0, |p| p.total.as_secs_f64());
            let counter = |name: &str| report.counter(name).unwrap_or(0) as f64;
            // The solver's own timers are folded in beside the `milp` span,
            // which also covers the model build.
            let milp = |p: &str| phase(&format!("synth/assign/milp/{p}"));
            let solve = milp("presolve") + milp("lp/dual") + milp("lp/primal") + milp("branching");
            t.add("cluster.busy_s", phase("synth/cluster"));
            t.add("layout.busy_s", phase("synth/layout"));
            t.add("route.busy_s", phase("synth/route"));
            t.add("assign.busy_s", phase("synth/assign"));
            t.add("assign.heuristic_s", phase("synth/assign/heuristic"));
            t.add("assign.outside_solver_s", phase("synth/assign") - solve);
            t.add(
                "finish.busy_s",
                phase("synth/pdn") + phase("synth/validate"),
            );
            t.add("milp.solve_s", solve);
            t.add("milp.lp_s", milp("lp/dual") + milp("lp/primal"));
            t.add("milp.presolve_s", milp("presolve"));
            t.add("milp.nodes", counter("milp/nodes_explored"));
            t.add("milp.lp_solves", counter("milp/lp_solves"));
            t.add(
                "milp.pivots",
                counter("milp/primal_pivots") + counter("milp/dual_pivots"),
            );
            t.add("milp.refactorizations", counter("milp/refactorizations"));
            t.add("milp.warm_hits", counter("milp/warm_start_hits"));
            t.add("milp.warm_attempts", counter("milp/warm_start_attempts"));
            for unit in ["cluster_grow", "cluster_refine", "cluster_inter"] {
                t.add("cluster.memo_hits", counter(&format!("memo/{unit}/hits")));
                t.add(
                    "cluster.memo_misses",
                    counter(&format!("memo/{unit}/misses")),
                );
            }
            if counter("cache/cluster/misses") > 0.0 {
                t.add(
                    "cluster.sub_rings",
                    s.summary().map_or(0.0, |x| x.sub_rings as f64),
                );
            }
            memo_entries = memo_entries.max(report.gauge("memo/entries").unwrap_or(0.0));
            write_errors = write_errors.max(report.gauge("cache/disk_write_errors").unwrap_or(0.0));
            let synth = phase("synth");
            if synth >= 1e-3 {
                coverage_min =
                    coverage_min.min(report.children_total("synth").as_secs_f64() / synth);
            }

            let start = epoch_origin + Duration::from_secs_f64((s.done_at - s.latency).max(0.0));
            let id = s.index.to_string();
            let req = spans.record(
                "request",
                &id,
                None,
                start,
                Duration::from_secs_f64(s.latency),
            );
            let queue = Duration::from_nanos(*queue_ns);
            spans.record("queue", &id, Some(req), start, queue);
            spans.record(
                "run",
                &id,
                Some(req),
                start + queue,
                Duration::from_nanos(*run_ns),
            );
        }
        epoch_origin += Duration::from_secs_f64(e.setup_s + e.serving_s);
    }
    let (mut milp_runs, mut milp_proven) = (0.0, 0.0);
    for e in expected.values() {
        if e.milp_ran {
            milp_runs += 1.0;
            milp_proven += f64::from(u8::from(e.facts.proven_optimal));
        }
        t.add("validate.busy_s", e.validate.as_secs_f64());
        t.add("sim.busy_s", e.sim.as_secs_f64());
    }
    t.set_ratios();
    t.set("milp.proven_share", ratio(milp_proven, milp_runs));
    t.set("memo.entries", memo_entries);
    t.set("store.write_errors", write_errors);
    t.set(
        "trace.span_coverage_min",
        if coverage_min.is_finite() {
            coverage_min
        } else {
            0.0
        },
    );
    run.metrics.merge(t);
    run.notes.push(format!(
        "untraced_epochs={} traced_epochs={} untraced_pass_s={} traced_pass_s={}",
        plain.len(),
        traced.len(),
        untraced_m.get("pass_s"),
        traced_m.get("pass_s")
    ));
    Ok((run, spans))
}
