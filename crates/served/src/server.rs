//! The `sring-served` server: accept loop, bounded worker pool, shared
//! artifact cache, admission control and graceful drain.
//!
//! # Architecture
//!
//! ```text
//! accept thread ──► connection thread (per client)
//!                        │  read frame → decode Request
//!                        │  Job: admission check ──► bounded queue
//!                        │        (full → REJECTED)      │
//!                        │  ◄── JobResult via channel ◄──┤
//!                        ▼                               ▼
//!                   write frame                   worker pool (N threads)
//!                                                 one ExecCtx per job:
//!                                                 shared cache + store,
//!                                                 per-job trace, deadline
//! ```
//!
//! Admission control is a hard bound on *queued* jobs: a request that
//! arrives while `queue_depth` jobs are already pending is answered with
//! an explicit [`Response::Rejected`] instead of being buffered, so
//! overload degrades to fast rejections rather than unbounded memory
//! growth. Deadlines are enforced at three points: at admission (the
//! deadline clock starts when the job is accepted), when a worker pops
//! the job (a job whose deadline lapsed while queued never starts), and
//! between pipeline stages via `ExecCtx::check_deadline`.
//!
//! Shutdown is a drain: the flag flips, the accept loop is woken and
//! exits, new jobs are rejected with `ShuttingDown`, workers finish the
//! queued and in-flight jobs (every waiting client still gets its
//! result), and only then do the threads join.

use crate::proto::{
    read_frame, write_message, DeltaSpec, FrameError, JobResult, JobSpec, JobSummary, Outcome,
    RejectReason, Request, Response, ServerStats, StrategySpec, Workload, DEFAULT_MAX_FRAME,
};
use onoc_ctx::{resolve_threads, ArtifactCache, ArtifactStore, ExecCtx};
use onoc_graph::benchmarks::{Benchmark, DEFAULT_PITCH};
use onoc_graph::synth::random_app;
use onoc_graph::CommGraph;
use onoc_store::DiskStore;
use onoc_trace::{json::Value, lock_or_recover, Trace};
use sring_core::resynth::ResynthError;
use sring_core::{
    AssignmentStrategy, MilpOptions, SringConfig, SringError, SringReport, SringSynthesizer,
};
use std::collections::{HashMap, VecDeque};
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a blocked connection read wakes to poll the shutdown flag.
const READ_TICK: Duration = Duration::from_millis(250);

/// Configuration of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Maximum *queued* (not yet running) jobs; the admission bound.
    pub queue_depth: usize,
    /// Capacity of the shared in-memory artifact cache.
    pub cache_capacity: usize,
    /// Directory for a persistent `DiskStore` tier behind the cache.
    pub cache_dir: Option<PathBuf>,
    /// Deadline applied to jobs that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Upper bound on request/response frame payloads.
    pub max_frame: u32,
    /// Append one JSON metrics record per finished job to this file.
    pub metrics_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_depth: 64,
            cache_capacity: ArtifactCache::DEFAULT_CAPACITY,
            cache_dir: None,
            default_deadline: None,
            max_frame: DEFAULT_MAX_FRAME,
            metrics_path: None,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    accepted: u64,
    completed: u64,
    rejected_queue_full: u64,
    rejected_shutdown: u64,
    deadline_exceeded: u64,
    failed: u64,
    protocol_errors: u64,
}

struct QueuedJob {
    id: u64,
    spec: JobSpec,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply: mpsc::Sender<JobResult>,
}

/// A synthesis result saved under a name, serving as the base of later
/// `Delta` jobs.
struct SavedResult {
    graph: CommGraph,
    report: SringReport,
    strategy: StrategySpec,
}

/// Named results kept for `Delta` jobs, with FIFO eviction beyond the cap.
#[derive(Default)]
struct ResultRegistry {
    by_name: HashMap<String, Arc<SavedResult>>,
    order: VecDeque<String>,
}

/// Upper bound on saved named results: each holds a full graph + report,
/// so the registry is kept small and evicts oldest-first.
const MAX_SAVED_RESULTS: usize = 64;

impl ResultRegistry {
    fn save(&mut self, name: &str, result: Arc<SavedResult>) {
        if self.by_name.insert(name.to_owned(), result).is_none() {
            self.order.push_back(name.to_owned());
            while self.order.len() > MAX_SAVED_RESULTS {
                if let Some(evicted) = self.order.pop_front() {
                    self.by_name.remove(&evicted);
                }
            }
        }
    }

    fn get(&self, name: &str) -> Option<Arc<SavedResult>> {
        self.by_name.get(name).cloned()
    }
}

struct Shared {
    config: ServerConfig,
    addr: SocketAddr,
    cache: Arc<ArtifactCache>,
    /// Shared per-sub-ring memo tier: what makes `Delta` jobs incremental
    /// across requests (clean sub-rings replay from here).
    memo: Arc<ArtifactCache>,
    store: Option<Arc<dyn ArtifactStore>>,
    results: Mutex<ResultRegistry>,
    queue: Mutex<VecDeque<QueuedJob>>,
    job_ready: Condvar,
    shutdown: AtomicBool,
    counters: Mutex<Counters>,
    job_seq: AtomicU64,
    metrics: Option<Mutex<std::fs::File>>,
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already draining
        }
        // Wake every worker blocked on an empty queue so they can observe
        // the flag and exit once the queue drains.
        self.job_ready.notify_all();
        // Wake the accept loop with a throwaway connection; `accept` has
        // no timeout, so without this nudge it would block until the next
        // real client.
        drop(TcpStream::connect(self.addr));
    }

    fn count(&self, f: impl FnOnce(&mut Counters)) {
        f(&mut lock_or_recover(&self.counters));
    }

    fn stats(&self) -> ServerStats {
        let counters = lock_or_recover(&self.counters);
        let cache = self.cache.stats();
        let disk = self.store.as_ref().map(|s| s.stats()).unwrap_or_default();
        ServerStats {
            accepted: counters.accepted,
            completed: counters.completed,
            rejected_queue_full: counters.rejected_queue_full,
            rejected_shutdown: counters.rejected_shutdown,
            deadline_exceeded: counters.deadline_exceeded,
            failed: counters.failed,
            protocol_errors: counters.protocol_errors,
            queued: lock_or_recover(&self.queue).len() as u64,
            workers: resolve_threads(self.config.workers) as u64,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_gets: cache.gets,
            cache_evictions: cache.evictions,
            cache_entries: cache.entries as u64,
            disk_hits: disk.hits,
            disk_misses: disk.misses,
            disk_writes: disk.writes,
        }
    }

    /// Appends one JSON metrics record for a finished job; best-effort.
    fn emit_metrics(&self, workload: &str, result: &JobResult, trace_json: Option<&str>) {
        let Some(metrics) = &self.metrics else {
            return;
        };
        let record = Value::Object(vec![
            ("job".into(), Value::Number(result.job_id as f64)),
            ("workload".into(), Value::String(workload.to_owned())),
            (
                "outcome".into(),
                Value::String(result.outcome.label().to_owned()),
            ),
            ("queue_ns".into(), Value::Number(result.queue_ns as f64)),
            ("run_ns".into(), Value::Number(result.run_ns as f64)),
            ("cache_hits".into(), Value::Number(result.cache_hits as f64)),
            (
                "cache_misses".into(),
                Value::Number(result.cache_misses as f64),
            ),
        ]);
        let mut line = record.to_json();
        if let Some(trace) = trace_json {
            // Splice the already-serialized trace report in as a raw
            // member; it is valid JSON by construction.
            line.truncate(line.len() - 1);
            line.push_str(",\"trace\":");
            line.push_str(trace);
            line.push('}');
        }
        line.push('\n');
        let mut file = lock_or_recover(metrics);
        // Metrics are diagnostics: a full disk must not fail the job.
        let _ = file.write_all(line.as_bytes());
    }
}

/// A running server; dropping it drains and joins every thread.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
    drained: bool,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept loop and worker pool.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener or opening the cache
    /// directory / metrics file.
    pub fn start(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let store: Option<Arc<dyn ArtifactStore>> = match &config.cache_dir {
            Some(dir) => Some(Arc::new(DiskStore::open(dir.clone())?)),
            None => None,
        };
        let metrics = match &config.metrics_path {
            Some(path) => Some(Mutex::new(
                OpenOptions::new().create(true).append(true).open(path)?,
            )),
            None => None,
        };
        let cache = Arc::new(ArtifactCache::new(config.cache_capacity));
        let memo = Arc::new(ArtifactCache::new(ExecCtx::MEMO_CAPACITY));
        let worker_count = resolve_threads(config.workers);
        let shared = Arc::new(Shared {
            config,
            addr: local,
            cache,
            memo,
            store,
            results: Mutex::new(ResultRegistry::default()),
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Mutex::new(Counters::default()),
            job_seq: AtomicU64::new(0),
            metrics,
        });

        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                #[expect(clippy::disallowed_methods, reason = "the served worker pool is the ctx-budget-driven thread owner of this crate")]
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let connections = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            #[expect(
                clippy::disallowed_methods,
                reason = "server accept loop; lifecycle is owned by Server::shutdown"
            )]
            std::thread::spawn(move || accept_loop(&listener, &shared, &connections))
        };

        Ok(Server {
            shared,
            accept: Some(accept),
            workers,
            connections,
            drained: false,
        })
    }

    /// The bound address (with the actual port when `:0` was requested).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A stats snapshot.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Begins a graceful drain, waits for queued and in-flight jobs to
    /// finish, joins every thread and returns the final stats.
    pub fn shutdown(&mut self) -> ServerStats {
        self.shared.begin_shutdown();
        self.drain();
        self.shared.stats()
    }

    /// Blocks until a client requests shutdown (or the process is asked
    /// to stop some other way), then drains and returns the final stats.
    pub fn wait(mut self) -> ServerStats {
        // The accept loop exits only when the shutdown flag flips.
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.drain();
        self.shared.stats()
    }

    fn drain(&mut self) {
        if self.drained {
            return;
        }
        self.drained = true;
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Workers first: they finish every queued job, which unblocks the
        // connection threads waiting on reply channels.
        self.shared.job_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let handles: Vec<_> = lock_or_recover(&self.connections).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        self.drain();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "one thread per accepted connection; joined by Server::drain"
                )]
                let handle = std::thread::spawn(move || serve_connection(&shared, stream));
                lock_or_recover(connections).push(handle);
            }
            Err(_) => {
                // Transient accept failure (e.g. EMFILE); keep serving.
                continue;
            }
        }
    }
}

fn serve_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let _ = stream.set_nodelay(true);
    let max_frame = shared.config.max_frame;
    loop {
        let payload = match read_frame(&mut stream, max_frame) {
            Ok(payload) => payload,
            Err(FrameError::Idle) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(FrameError::Closed) => break,
            Err(
                err @ (FrameError::BadMagic(_)
                | FrameError::UnsupportedVersion(_)
                | FrameError::Oversized { .. }),
            ) => {
                // The stream is intact enough to answer, but framing is
                // lost: report the violation and close.
                shared.count(|c| c.protocol_errors += 1);
                let _ = write_message(&mut stream, &Response::Error(err.to_string()), max_frame);
                break;
            }
            Err(FrameError::Truncated { .. } | FrameError::Io(_)) => {
                shared.count(|c| c.protocol_errors += 1);
                break;
            }
        };
        let request = match onoc_store::Persist::from_store_bytes(&payload) {
            Ok(request) => request,
            Err(e) => {
                // Framing is intact, only this payload is malformed:
                // answer with an error and keep the connection.
                shared.count(|c| c.protocol_errors += 1);
                let response = Response::Error(format!("undecodable request: {e}"));
                if write_message(&mut stream, &response, max_frame).is_err() {
                    break;
                }
                continue;
            }
        };
        let (response, close_after) = match request {
            Request::Ping => (Response::Pong, false),
            Request::Stats => (Response::Stats(shared.stats()), false),
            Request::Shutdown => {
                shared.begin_shutdown();
                (Response::ShuttingDown, false)
            }
            Request::Job(spec) => (handle_job(shared, spec), false),
        };
        if write_message(&mut stream, &response, max_frame).is_err() {
            // The client went away (possibly mid-job); the job itself, if
            // any, already ran to completion on the worker.
            break;
        }
        if close_after {
            break;
        }
    }
}

/// Admits one job (or rejects it) and waits for its result.
fn handle_job(shared: &Arc<Shared>, spec: JobSpec) -> Response {
    let (tx, rx) = mpsc::channel();
    {
        let mut queue = lock_or_recover(&shared.queue);
        // Checked under the queue lock: workers only exit after observing
        // the flag with an empty queue *while holding this lock*, so a
        // push that wins the lock against the flag still finds a live
        // worker — a job can never be queued after the pool drained.
        if shared.shutdown.load(Ordering::SeqCst) {
            drop(queue);
            shared.count(|c| c.rejected_shutdown += 1);
            return Response::Rejected(RejectReason::ShuttingDown);
        }
        if queue.len() >= shared.config.queue_depth {
            drop(queue);
            shared.count(|c| c.rejected_queue_full += 1);
            return Response::Rejected(RejectReason::QueueFull {
                depth: shared.config.queue_depth as u64,
            });
        }
        let id = shared.job_seq.fetch_add(1, Ordering::Relaxed);
        #[expect(
            clippy::disallowed_methods,
            reason = "admission timestamp anchoring the per-request deadline and queue-latency metric"
        )]
        let now = Instant::now();
        let deadline = spec
            .deadline
            .or(shared.config.default_deadline)
            .map(|d| now + d);
        queue.push_back(QueuedJob {
            id,
            spec,
            enqueued: now,
            deadline,
            reply: tx,
        });
    }
    shared.count(|c| c.accepted += 1);
    shared.job_ready.notify_one();
    match rx.recv() {
        Ok(result) => Response::Job(result),
        Err(_) => Response::Error("worker pool terminated before the job finished".into()),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = lock_or_recover(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .job_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else {
            break; // drained and shutting down
        };
        let workload = job.spec.workload.label();
        let result = run_job(shared, job);
        match &result.0.outcome {
            Outcome::Completed(_) => shared.count(|c| c.completed += 1),
            Outcome::DeadlineExceeded { .. } => shared.count(|c| c.deadline_exceeded += 1),
            Outcome::Failed(_) => shared.count(|c| c.failed += 1),
        }
        let (job_result, reply, trace_json) = result;
        shared.emit_metrics(&workload, &job_result, trace_json.as_deref());
        // A send error means the client disconnected mid-job; the work is
        // done either way and the counters above already recorded it.
        let _ = reply.send(job_result);
    }
}

/// Executes one job, returning the result, the reply channel and the full
/// trace JSON (for the metrics sink even when the client did not ask for
/// it in the response).
fn run_job(
    shared: &Arc<Shared>,
    job: QueuedJob,
) -> (JobResult, mpsc::Sender<JobResult>, Option<String>) {
    #[expect(
        clippy::disallowed_methods,
        reason = "queue-latency measurement for the job's metrics record"
    )]
    let started = Instant::now();
    let queue_ns =
        u64::try_from(started.duration_since(job.enqueued).as_nanos()).unwrap_or(u64::MAX);

    // Per-job context: shared cache/store, private trace, single-threaded
    // pipeline (parallelism comes from the pool, not from within jobs).
    let trace = Trace::new();
    let mut ctx = ExecCtx::default()
        .with_trace(trace.clone())
        .with_cache(Arc::clone(&shared.cache))
        .with_memo(Arc::clone(&shared.memo))
        .with_threads(1);
    if let Some(deadline) = job.deadline {
        ctx = ctx.with_deadline(deadline);
    }
    if let Some(store) = &shared.store {
        ctx = ctx.with_store(Arc::clone(store));
    }

    // A job whose deadline lapsed while it sat in the queue never starts;
    // `check_deadline` also guards every stage boundary inside.
    let outcome = match ctx.check_deadline() {
        Err(e) => Outcome::DeadlineExceeded {
            overdue_ns: u64::try_from(e.overdue.as_nanos()).unwrap_or(u64::MAX),
        },
        Ok(()) => execute_workload(shared, &job.spec, &ctx),
    };

    let run_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let report = trace.report();
    let trace_json = report.to_json();
    let result = JobResult {
        job_id: job.id,
        outcome,
        queue_ns,
        run_ns,
        cache_hits: report.counter("cache/hits").unwrap_or(0),
        cache_misses: report.counter("cache/misses").unwrap_or(0),
        trace_json: job.spec.collect_trace.then(|| trace_json.clone()),
    };
    (result, job.reply, Some(trace_json))
}

fn execute_workload(shared: &Arc<Shared>, spec: &JobSpec, ctx: &ExecCtx) -> Outcome {
    match &spec.workload {
        Workload::Sleep { millis } => run_sleep(*millis, ctx),
        Workload::Benchmark(name) => match benchmark_by_name(name) {
            Some(benchmark) => run_synthesis(shared, &benchmark.graph(), spec.strategy, spec, ctx),
            None => Outcome::Failed(format!(
                "unknown benchmark {name:?} (expected one of {})",
                Benchmark::ALL.map(Benchmark::name).join(", ")
            )),
        },
        Workload::Random {
            nodes,
            messages,
            seed,
        } => {
            let (nodes, messages) = (*nodes as usize, *messages as usize);
            if nodes < 2 || messages == 0 || messages > nodes.saturating_mul(nodes - 1) {
                return Outcome::Failed(format!(
                    "invalid synthetic workload: {nodes} nodes / {messages} messages \
                     (need nodes ≥ 2 and 1 ≤ messages ≤ nodes·(nodes−1))"
                ));
            }
            run_synthesis(
                shared,
                &random_app(nodes, messages, *seed, DEFAULT_PITCH),
                spec.strategy,
                spec,
                ctx,
            )
        }
        Workload::Delta { base, deltas } => run_delta(shared, base, deltas, spec, ctx),
    }
}

fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
}

fn run_sleep(millis: u64, ctx: &ExecCtx) -> Outcome {
    const SLICE: Duration = Duration::from_millis(5);
    let total = Duration::from_millis(millis);
    let mut slept = Duration::ZERO;
    while slept < total {
        if let Err(e) = ctx.check_deadline() {
            return Outcome::DeadlineExceeded {
                overdue_ns: u64::try_from(e.overdue.as_nanos()).unwrap_or(u64::MAX),
            };
        }
        let step = SLICE.min(total - slept);
        std::thread::sleep(step);
        slept += step;
    }
    Outcome::Completed(JobSummary {
        workload: format!("sleep-{millis}ms"),
        wavelengths: 0,
        sub_rings: 0,
        messages: 0,
    })
}

fn synthesizer_for(strategy: StrategySpec) -> SringSynthesizer {
    let strategy = match strategy {
        StrategySpec::Auto => AssignmentStrategy::default(),
        StrategySpec::Heuristic => AssignmentStrategy::Heuristic,
        StrategySpec::Milp => AssignmentStrategy::Milp(MilpOptions::default()),
    };
    SringSynthesizer::with_config(SringConfig {
        strategy,
        ..SringConfig::default()
    })
}

fn summarize(app: &CommGraph, report: &SringReport) -> JobSummary {
    JobSummary {
        workload: app.name().to_owned(),
        wavelengths: report.assignment.wavelength_count as u64,
        sub_rings: report.clustering.sub_ring_count() as u64,
        messages: app.message_count() as u64,
    }
}

/// Saves a finished result under the job's `save_as` name, if any.
fn maybe_save(shared: &Arc<Shared>, spec: &JobSpec, graph: &CommGraph, report: &SringReport) {
    if let Some(name) = &spec.save_as {
        lock_or_recover(&shared.results).save(
            name,
            Arc::new(SavedResult {
                graph: graph.clone(),
                report: report.clone(),
                strategy: spec.strategy,
            }),
        );
    }
}

fn run_synthesis(
    shared: &Arc<Shared>,
    app: &CommGraph,
    strategy: StrategySpec,
    spec: &JobSpec,
    ctx: &ExecCtx,
) -> Outcome {
    let synth = synthesizer_for(strategy);
    match synth.synthesize_detailed_ctx(app, ctx) {
        Ok(report) => {
            let summary = summarize(app, &report);
            maybe_save(shared, spec, app, &report);
            Outcome::Completed(summary)
        }
        Err(SringError::Deadline(e)) => Outcome::DeadlineExceeded {
            overdue_ns: u64::try_from(e.overdue.as_nanos()).unwrap_or(u64::MAX),
        },
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// Runs a `Delta` job: incremental re-synthesis against a saved base
/// result. The edit is applied with `resynthesize` — byte-identical to a
/// from-scratch run, with clean sub-rings served from the shared memo
/// tier. The base's own strategy is used unless the job overrides it; the
/// edited result replaces (or is saved under) `save_as`, so edit chains
/// compose: each Delta job can name the previous one as its base.
fn run_delta(
    shared: &Arc<Shared>,
    base: &str,
    deltas: &[DeltaSpec],
    spec: &JobSpec,
    ctx: &ExecCtx,
) -> Outcome {
    let Some(saved) = lock_or_recover(&shared.results).get(base) else {
        return Outcome::Failed(format!(
            "unknown base result {base:?} (save one with a job's save_as field first)"
        ));
    };
    // `Auto` means "inherit the base's strategy": an edit chain should
    // not silently switch solvers mid-way.
    let strategy = match spec.strategy {
        StrategySpec::Auto => saved.strategy,
        other => other,
    };
    let synth = synthesizer_for(strategy);
    let comm: Vec<_> = deltas.iter().map(DeltaSpec::to_comm).collect();
    match synth.resynthesize(&saved.graph, &saved.report, &comm, ctx) {
        Ok(result) => {
            let summary = summarize(&result.graph, &result.report);
            maybe_save(shared, spec, &result.graph, &result.report);
            Outcome::Completed(summary)
        }
        Err(ResynthError::Delta { index, source }) => {
            Outcome::Failed(format!("delta {index} failed to apply: {source}"))
        }
        Err(ResynthError::Synth(SringError::Deadline(e))) => Outcome::DeadlineExceeded {
            overdue_ns: u64::try_from(e.overdue.as_nanos()).unwrap_or(u64::MAX),
        },
        Err(ResynthError::Synth(e)) => Outcome::Failed(e.to_string()),
    }
}
