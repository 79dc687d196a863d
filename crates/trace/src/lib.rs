//! `onoc-trace` — std-only structured tracing and metrics for the SRing
//! pipeline.
//!
//! The synthesis pipeline spans many layers (clustering, layout routing,
//! the MILP branch-and-bound with its warm-started dual simplex, the
//! photonic/PDN analysis, the eval harness's sampling shards) and several
//! of them run on worker threads. This crate gives every layer one
//! vocabulary to answer "where did the milliseconds go":
//!
//! * **Spans** — RAII guards ([`Trace::span`]) that time a scope and
//!   record it under a hierarchical slash-path (`"synth/assign/milp"`).
//!   Nesting is tracked per thread; worker threads that did not inherit a
//!   parent span anchor themselves with an absolute path via
//!   [`Trace::span_at`].
//! * **Counters** ([`Trace::incr`]) — monotonic event counts (nodes
//!   explored, samples drawn). Aggregation is additive and
//!   order-independent, so totals are identical for any thread count
//!   when the underlying work is deterministic.
//! * **Gauges** ([`Trace::gauge`]) — last-write-wins measurements
//!   (warm-start hit rate, total runtime).
//!
//! All state lives in a registry behind `Arc<Mutex<..>>`; a [`Trace`] is
//! a cheaply cloneable handle. The default handle is *disabled* — every
//! operation on it is a no-op costing one branch — so instrumented
//! library code pays nothing unless a caller opts in:
//!
//! ```
//! use onoc_trace::Trace;
//!
//! let trace = Trace::new();
//! {
//!     let _outer = trace.span("synth");
//!     let _inner = trace.span("cluster"); // records as "synth/cluster"
//!     trace.incr("clusters_formed", 4);
//! }
//! let report = trace.report();
//! assert_eq!(report.phase("synth/cluster").unwrap().calls, 1);
//! assert_eq!(report.counter("clusters_formed"), Some(4));
//! // Two sinks: `report.render()` (human) and `report.to_json()` (machine).
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![expect(clippy::disallowed_types, reason = "audited lock layer, DESIGN.md §12")]

pub mod json;
pub mod report;

pub use report::{PhaseStat, TraceReport};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks `mutex`, recovering the guard when the lock was poisoned by a
/// panicking thread.
///
/// The shared registries in this workspace (trace registry, artifact
/// cache bookkeeping) hold additive counters and last-write-wins values:
/// a panic on *another* thread mid-update cannot leave them in a state
/// that is unsafe to read, only possibly missing that thread's final
/// contribution. Propagating the poison instead would turn one worker
/// panic into a cascade — and [`Span`] records from `Drop`, where a
/// second panic during unwind aborts the process. Recovering is therefore
/// the correct policy for these registries; code that genuinely cannot
/// trust post-panic state should keep using a typed poison error instead
/// (see `onoc-ctx`'s `CacheError::Poisoned`).
pub fn lock_or_recover<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The aggregated metrics store shared by all clones of a [`Trace`].
#[derive(Default)]
struct Registry {
    phases: BTreeMap<String, PhaseStat>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

thread_local! {
    /// The calling thread's stack of open span paths (each element is a
    /// *full* path). Thread-local rather than registry state so span
    /// nesting on concurrent workers cannot interleave.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// A cloneable, thread-safe handle to a trace registry.
///
/// `Trace::default()` is the disabled handle: spans, counters and gauges
/// become no-ops, and [`Trace::report`] returns an empty report. Library
/// code takes `&Trace` unconditionally and lets the caller decide.
#[derive(Clone, Default)]
pub struct Trace {
    registry: Option<Arc<Mutex<Registry>>>,
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Trace {
    /// A live trace with an empty registry.
    #[must_use]
    pub fn new() -> Trace {
        Trace {
            registry: Some(Arc::new(Mutex::new(Registry::default()))),
        }
    }

    /// The disabled handle (same as `Trace::default()`).
    #[must_use]
    pub fn disabled() -> Trace {
        Trace::default()
    }

    /// [`Trace::new`] when `on`, otherwise disabled.
    #[must_use]
    pub fn enabled_if(on: bool) -> Trace {
        if on {
            Trace::new()
        } else {
            Trace::disabled()
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Opens a span named `name`, nested under the calling thread's
    /// innermost open span (if any). The span records its wall-clock
    /// into the registry when the returned guard drops.
    #[must_use = "a span only measures the lifetime of its guard"]
    pub fn span(&self, name: &str) -> Span {
        self.span_impl(name, false)
    }

    /// Opens a span at an *absolute* path, ignoring the calling thread's
    /// current nesting. This is how worker threads attribute their work
    /// to the right place in the tree: a thread spawned inside
    /// `"fig8_sampler"` has an empty span stack of its own, so it opens
    /// `span_at("fig8_sampler/shard")` explicitly. Further [`Trace::span`]
    /// calls on the same thread nest under it as usual.
    #[must_use = "a span only measures the lifetime of its guard"]
    pub fn span_at(&self, path: &str) -> Span {
        self.span_impl(path, true)
    }

    fn span_impl(&self, name: &str, absolute: bool) -> Span {
        if self.registry.is_none() {
            return Span {
                trace: Trace::disabled(),
                path: String::new(),
                depth: 0,
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the trace layer owns the clock: span and stopwatch start times"
                )]
                start: Instant::now(),
            };
        }
        let (path, depth) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) if !absolute => format!("{parent}/{name}"),
                _ => name.to_string(),
            };
            stack.push(path.clone());
            (path, stack.len())
        });
        Span {
            trace: self.clone(),
            path,
            depth,
            #[expect(
                clippy::disallowed_methods,
                reason = "the trace layer owns the clock: span and stopwatch start times"
            )]
            start: Instant::now(),
        }
    }

    /// Adds `elapsed` (over `calls` calls) to the phase at `path`,
    /// resolved relative to the calling thread's innermost open span.
    /// This is the non-RAII entry point for timings measured elsewhere —
    /// e.g. folding the MILP solver's internal phase timers into the
    /// tree after the solve returns.
    pub fn add_time(&self, path: &str, elapsed: Duration, calls: u64) {
        let Some(registry) = &self.registry else {
            return;
        };
        let full = SPAN_STACK.with(|stack| match stack.borrow().last() {
            Some(parent) => format!("{parent}/{path}"),
            None => path.to_string(),
        });
        record(registry, &full, elapsed, calls);
    }

    /// Starts a [`Stopwatch`] that reads the clock only when this handle
    /// is enabled, for timing scattered work that no single span covers
    /// and folding the total in once with [`Trace::add_time`].
    #[must_use]
    pub fn stopwatch(&self) -> Stopwatch {
        #[expect(
            clippy::disallowed_methods,
            reason = "the trace layer owns the clock: span and stopwatch start times"
        )]
        Stopwatch(self.registry.as_ref().map(|_| Instant::now()))
    }

    /// Adds `delta` to the counter named `name` (flat namespace — not
    /// affected by span nesting, so totals aggregate identically no
    /// matter which thread or span recorded them).
    pub fn incr(&self, name: &str, delta: u64) {
        if let Some(registry) = &self.registry {
            update(&mut lock_or_recover(registry).counters, name, |c| {
                *c += delta
            });
        }
    }

    /// Sets the gauge named `name` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(registry) = &self.registry {
            update(&mut lock_or_recover(registry).gauges, name, |g| *g = value);
        }
    }

    /// Snapshots everything recorded so far. A disabled trace returns an
    /// empty report.
    #[must_use]
    pub fn report(&self) -> TraceReport {
        match &self.registry {
            None => TraceReport::default(),
            Some(registry) => {
                let registry = lock_or_recover(registry);
                TraceReport {
                    phases: registry.phases.clone(),
                    counters: registry.counters.clone(),
                    gauges: registry.gauges.clone(),
                }
            }
        }
    }
}

fn record(registry: &Mutex<Registry>, path: &str, elapsed: Duration, calls: u64) {
    update(&mut lock_or_recover(registry).phases, path, |stat| {
        stat.calls += calls;
        stat.total += elapsed;
        stat.max = stat.max.max(elapsed);
    });
}

/// Applies `f` to the registry entry under `name` (a counter, gauge or
/// phase), inserted as the default on first use. Only that first insert
/// allocates the owned key.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(value) => f(value),
        None => f(map.entry(name.to_owned()).or_default()),
    }
}

/// A running timer from [`Trace::stopwatch`]; on a disabled trace it
/// never reads the clock and always reads zero.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Time since the stopwatch started; zero on a disabled trace.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.0.map_or(Duration::ZERO, |start| start.elapsed())
    }
}

/// RAII guard for one timed scope; see [`Trace::span`].
#[derive(Debug)]
pub struct Span {
    trace: Trace,
    path: String,
    /// Stack depth at creation (1-based); 0 marks a disabled no-op span
    /// that never pushed onto the thread-local stack.
    depth: usize,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.depth == 0 {
            return;
        }
        let elapsed = self.start.elapsed();
        // Truncate rather than pop: if an enclosed span guard leaked past
        // this one (drop order abuse), the stack still recovers to this
        // span's parent instead of drifting permanently.
        SPAN_STACK.with(|stack| stack.borrow_mut().truncate(self.depth - 1));
        // `self.path` is already fully resolved — bypass the relative
        // resolution `add_time` applies.
        if let Some(registry) = &self.trace.registry {
            record(registry, &self.path, elapsed, 1);
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests drive the registry from several threads"
)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_trace_is_a_no_op() {
        let trace = Trace::disabled();
        assert!(!trace.is_enabled());
        let _span = trace.span("phase");
        trace.incr("events", 3);
        trace.gauge("g", 1.0);
        trace.add_time("p", Duration::from_millis(1), 1);
        assert_eq!(trace.stopwatch().elapsed(), Duration::ZERO);
        let report = trace.report();
        assert!(report.phases.is_empty());
        assert!(report.counters.is_empty());
        assert!(report.gauges.is_empty());
    }

    #[test]
    fn spans_nest_per_thread() {
        let trace = Trace::new();
        {
            let _a = trace.span("a");
            {
                let _b = trace.span("b");
                let _c = trace.span("c");
            }
            let _d = trace.span("d");
        }
        let report = trace.report();
        let paths: Vec<&str> = report.phases.keys().map(String::as_str).collect();
        assert_eq!(paths, ["a", "a/b", "a/b/c", "a/d"]);
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let trace = Trace::new();
        {
            let _a = trace.span("a");
        }
        {
            let _b = trace.span("b");
        }
        let report = trace.report();
        assert!(report.phase("a").is_some());
        assert!(report.phase("b").is_some());
        assert!(report.phase("a/b").is_none());
    }

    #[test]
    fn span_at_is_absolute_and_nestable() {
        let trace = Trace::new();
        {
            let _outer = trace.span("outer");
            let _anchored = trace.span_at("pool/worker");
            let _inner = trace.span("lp");
        }
        let report = trace.report();
        assert!(report.phase("pool/worker").is_some());
        assert!(report.phase("pool/worker/lp").is_some());
        assert!(report.phase("outer/pool/worker").is_none());
    }

    #[test]
    fn parent_time_covers_children() {
        let trace = Trace::new();
        {
            let _p = trace.span("p");
            {
                let _c = trace.span("c");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let report = trace.report();
        let parent = report.phase("p").unwrap().total;
        let child = report.phase("p/c").unwrap().total;
        assert!(parent >= child, "{parent:?} < {child:?}");
        assert!(child >= Duration::from_millis(2));
    }

    #[test]
    fn repeated_spans_aggregate() {
        let trace = Trace::new();
        for _ in 0..5 {
            let _s = trace.span("phase");
        }
        let stat = *trace.report().phase("phase").unwrap();
        assert_eq!(stat.calls, 5);
        assert!(stat.max <= stat.total);
    }

    #[test]
    fn counters_and_gauges_record() {
        let trace = Trace::new();
        trace.incr("events", 2);
        trace.incr("events", 3);
        trace.gauge("rate", 0.25);
        trace.gauge("rate", 0.75);
        let report = trace.report();
        assert_eq!(report.counter("events"), Some(5));
        assert_eq!(report.gauge("rate"), Some(0.75));
    }

    #[test]
    fn add_time_resolves_relative_to_open_span() {
        let trace = Trace::new();
        {
            let _s = trace.span("assign");
            trace.add_time("milp/presolve", Duration::from_micros(10), 1);
        }
        trace.add_time("loose", Duration::from_micros(5), 2);
        let report = trace.report();
        assert_eq!(report.phase("assign/milp/presolve").unwrap().calls, 1);
        assert_eq!(report.phase("loose").unwrap().calls, 2);
    }

    #[test]
    fn clones_share_one_registry() {
        let trace = Trace::new();
        let clone = trace.clone();
        clone.incr("shared", 1);
        trace.incr("shared", 1);
        assert_eq!(trace.report().counter("shared"), Some(2));
    }

    #[test]
    fn lock_or_recover_survives_poison() {
        let shared = Arc::new(Mutex::new(7u32));
        let poisoner = Arc::clone(&shared);
        std::thread::spawn(move || {
            let _guard = poisoner.lock().expect("first lock cannot be poisoned");
            panic!("poison the mutex");
        })
        .join()
        .expect_err("poisoner must panic");
        assert!(shared.lock().is_err(), "mutex must actually be poisoned");
        let mut guard = lock_or_recover(&shared);
        assert_eq!(*guard, 7, "poisoned state is still readable");
        *guard += 1;
        drop(guard);
        assert_eq!(*lock_or_recover(&shared), 8);
    }

    #[test]
    fn trace_records_survive_a_worker_panic() {
        // A worker that panics while other clones of the trace keep
        // recording must not take the registry down with it: recording
        // happens in `Span::drop`, where a poisoned-lock panic during
        // unwind would abort the process.
        let trace = Trace::new();
        trace.incr("before", 1);
        let worker = trace.clone();
        std::thread::spawn(move || {
            let _span = worker.span_at("worker/doomed");
            panic!("worker dies with an open span");
        })
        .join()
        .expect_err("worker must panic");
        trace.incr("after", 1);
        let report = trace.report();
        assert_eq!(report.counter("before"), Some(1));
        assert_eq!(report.counter("after"), Some(1));
        // The doomed span still recorded on unwind.
        assert_eq!(report.phase("worker/doomed").unwrap().calls, 1);
    }

    #[test]
    fn aggregation_across_threads_is_thread_count_invariant() {
        // The same 64 units of work, split over 1 / 2 / 8 threads, must
        // produce identical counters and identical span call counts.
        let run = |threads: usize| -> TraceReport {
            let trace = Trace::new();
            let units: Vec<usize> = (0..64).collect();
            std::thread::scope(|scope| {
                for chunk in units.chunks(units.len().div_ceil(threads)) {
                    let trace = &trace;
                    scope.spawn(move || {
                        for &unit in chunk {
                            let _span = trace.span_at("pool/worker");
                            trace.incr("units_done", 1);
                            trace.incr("weight", unit as u64);
                        }
                    });
                }
            });
            trace.report()
        };
        let reference = run(1);
        for threads in [2, 8] {
            let report = run(threads);
            assert_eq!(report.counters, reference.counters, "threads = {threads}");
            assert_eq!(
                report.phase("pool/worker").unwrap().calls,
                reference.phase("pool/worker").unwrap().calls,
                "threads = {threads}"
            );
        }
        assert_eq!(reference.counter("units_done"), Some(64));
        assert_eq!(reference.counter("weight"), Some((0..64).sum::<u64>()));
    }
}
