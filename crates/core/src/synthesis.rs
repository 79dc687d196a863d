//! The end-to-end SRing synthesis pipeline: clustering → physical
//! implementation → wavelength assignment → router design.

use crate::assignment::{AssignError, Assignment, AssignmentStrategy};
use crate::cluster::{ClusterError, Clustering, ClusteringConfig};
use crate::stages::{run_stage, AssignStage, ClusterStage, LayoutStage, RouteStage};
use onoc_ctx::{CacheError, DeadlineExceeded, ExecCtx};
use onoc_graph::{CommGraph, NodeId};
use onoc_photonics::{DesignError, PdnDesign, PdnStyle, RouterDesign};
use onoc_units::TechnologyParameters;
use std::collections::BTreeSet;
use std::fmt;
use std::time::{Duration, Instant};

/// Configuration of the SRing synthesizer.
#[derive(Debug, Clone)]
pub struct SringConfig {
    /// Clustering (sub-ring construction) parameters.
    pub clustering: ClusteringConfig,
    /// Wavelength-assignment strategy (heuristic / MILP / auto).
    pub strategy: AssignmentStrategy,
    /// Technology parameters for the loss model.
    pub tech: TechnologyParameters,
    /// Congestion-aware route choice: a same-cluster message whose
    /// endpoints both lie on the inter-cluster sub-ring may ride the inter
    /// ring instead of its cluster ring when that lowers the peak channel
    /// load. Every node still has at most two senders (its intra and inter
    /// ones), so SRing's resource bound is preserved; disable for a
    /// strictly paper-literal route assignment.
    pub flexible_routing: bool,
}

impl Default for SringConfig {
    fn default() -> Self {
        SringConfig {
            clustering: ClusteringConfig::default(),
            strategy: AssignmentStrategy::default(),
            tech: TechnologyParameters::default(),
            flexible_routing: true,
        }
    }
}

/// The SRing synthesizer: produces an application-specific multi-sub-ring
/// WR-ONoC router from a communication graph.
///
/// # Examples
///
/// ```
/// use sring_core::SringSynthesizer;
/// use onoc_graph::benchmarks;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = SringSynthesizer::new().synthesize(&benchmarks::mwd())?;
/// assert!(design.sub_ring_count() >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SringSynthesizer {
    config: SringConfig,
}

/// Everything the evaluation harness wants to know about one synthesis run.
#[derive(Debug, Clone)]
pub struct SringReport {
    /// The synthesized router.
    pub design: RouterDesign,
    /// The clustering solution (sub-rings, `L_max`).
    pub clustering: Clustering,
    /// The wavelength assignment outcome.
    pub assignment: Assignment,
    /// Wall-clock time of the whole pipeline (the paper's Table II).
    pub runtime: Duration,
}

/// Error from SRing synthesis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SringError {
    /// Clustering failed.
    Cluster(ClusterError),
    /// Wavelength assignment failed.
    Assign(AssignError),
    /// The assembled design failed validation (an internal invariant).
    Design(DesignError),
    /// The artifact cache failed (a worker panic poisoned its lock).
    Cache(CacheError),
    /// The context's wall-clock deadline expired before the pipeline
    /// finished: either it was already past at entry (fail-fast, nothing
    /// ran) or it lapsed between stages (the next stage never started).
    Deadline(DeadlineExceeded),
}

impl fmt::Display for SringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SringError::Cluster(e) => write!(f, "clustering failed: {e}"),
            SringError::Assign(e) => write!(f, "wavelength assignment failed: {e}"),
            SringError::Design(e) => write!(f, "design validation failed: {e}"),
            SringError::Cache(e) => write!(f, "artifact cache failed: {e}"),
            SringError::Deadline(e) => write!(f, "synthesis aborted: {e}"),
        }
    }
}

impl std::error::Error for SringError {}

impl From<ClusterError> for SringError {
    fn from(e: ClusterError) -> Self {
        match e {
            // Budget expiry keeps its uniform top-level type no matter
            // which stage noticed it.
            ClusterError::Deadline(d) => SringError::Deadline(d),
            other => SringError::Cluster(other),
        }
    }
}
impl From<AssignError> for SringError {
    fn from(e: AssignError) -> Self {
        match e {
            AssignError::Deadline(d) => SringError::Deadline(d),
            other => SringError::Assign(other),
        }
    }
}
impl From<DesignError> for SringError {
    fn from(e: DesignError) -> Self {
        SringError::Design(e)
    }
}
impl From<CacheError> for SringError {
    fn from(e: CacheError) -> Self {
        SringError::Cache(e)
    }
}
impl From<DeadlineExceeded> for SringError {
    fn from(e: DeadlineExceeded) -> Self {
        SringError::Deadline(e)
    }
}

impl SringSynthesizer {
    /// A synthesizer with default configuration (auto assignment strategy,
    /// paper-calibrated technology parameters).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A synthesizer with explicit configuration.
    #[must_use]
    pub fn with_config(config: SringConfig) -> Self {
        SringSynthesizer { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SringConfig {
        &self.config
    }

    /// Synthesizes a router design for `app` on a fresh
    /// [`ExecCtx::cached`], so clustering serves its construction units
    /// from a memo tier across the `L_max` search.
    ///
    /// # Errors
    ///
    /// See [`SringError`]; an application without messages is the only
    /// realistic failure.
    pub fn synthesize(&self, app: &CommGraph) -> Result<RouterDesign, SringError> {
        Ok(self.synthesize_detailed(app)?.design)
    }

    /// Synthesizes a router design and reports every intermediate result,
    /// on a fresh [`ExecCtx::cached`] as [`SringSynthesizer::synthesize`].
    ///
    /// # Errors
    ///
    /// See [`SringError`].
    pub fn synthesize_detailed(&self, app: &CommGraph) -> Result<SringReport, SringError> {
        self.synthesize_detailed_ctx(app, &ExecCtx::cached())
    }

    /// [`SringSynthesizer::synthesize`] through an explicit execution
    /// context.
    ///
    /// # Errors
    ///
    /// See [`SringError`].
    pub fn synthesize_ctx(
        &self,
        app: &CommGraph,
        ctx: &ExecCtx,
    ) -> Result<RouterDesign, SringError> {
        Ok(self.synthesize_detailed_ctx(app, ctx)?.design)
    }

    /// [`SringSynthesizer::synthesize_detailed`] through an explicit
    /// [`ExecCtx`]: the pipeline runs as the stage graph
    /// `cluster → layout → route → assign → pdn → validate` (see
    /// [`crate::stages`]).
    ///
    /// * Tracing: every stage runs under a span (`synth/cluster`,
    ///   `synth/layout`, `synth/route`, `synth/assign` with the MILP
    ///   sub-phases beneath it, `synth/pdn`, `synth/validate`) of the
    ///   context's trace, and headline results land as counters/gauges.
    /// * Caching: with a cache attached, the `cluster`, `layout`, `route`
    ///   and `assign` artifacts are reused across runs whose content keys
    ///   match; `ExecCtx::default()` (no cache) recomputes everything.
    /// * Deadline: a context deadline clamps the MILP time budget (which
    ///   also marks the `assign` stage uncacheable for that run), and it
    ///   is *checked between stages*: an already-expired deadline fails
    ///   fast with [`SringError::Deadline`] before anything runs, and a
    ///   deadline that lapses mid-pipeline aborts before the next stage
    ///   starts (see [`run_stage`]).
    ///
    /// # Errors
    ///
    /// See [`SringError`].
    pub fn synthesize_detailed_ctx(
        &self,
        app: &CommGraph,
        ctx: &ExecCtx,
    ) -> Result<SringReport, SringError> {
        // Fail fast: a deadline that is already past at construction must
        // not run the full pipeline only to have its result discarded.
        ctx.check_deadline()?;
        // onoc-lint: allow(L4, reason = "report-level runtime measurement returned in SringReport; not a trace span")
        let start = Instant::now();
        let trace = ctx.trace();
        let span_synth = trace.span("synth");

        let clustering = run_stage(
            ctx,
            &ClusterStage {
                app,
                config: &self.config,
            },
        )?;
        let layout = run_stage(
            ctx,
            &LayoutStage {
                app,
                config: &self.config,
                clustering: &clustering,
            },
        )?;
        let route = run_stage(
            ctx,
            &RouteStage {
                app,
                config: &self.config,
                clustering: &clustering,
                layout: &layout,
            },
        )?;
        let assignment = run_stage(
            ctx,
            &AssignStage {
                app,
                config: &self.config,
                route: &route,
                cacheable: ctx.deadline().is_none(),
            },
        )?;

        // --- PDN (construction of ref. [22]) and final assembly. ---
        // Uncached: the assembled design embeds every upstream artifact,
        // so caching it would only duplicate the assign entry. Still
        // deadline-guarded: assembly/validation is cheap but not free, and
        // a caller whose budget lapsed during `assign` wants the typed
        // abort, not a late result.
        ctx.check_deadline()?;
        let span_pdn = trace.span("pdn");
        let mut signal_paths = route.signal_paths.clone();
        for (p, &w) in signal_paths.iter_mut().zip(&assignment.wavelengths) {
            p.wavelength = w;
        }
        let sender_nodes: BTreeSet<NodeId> = signal_paths.iter().map(|p| p.src).collect();
        let pdn = PdnDesign::new(
            PdnStyle::SharedTree,
            assignment.node_splitter.clone(),
            sender_nodes.len(),
        );
        let design = RouterDesign::new(
            "SRing",
            app.name(),
            layout.layout.clone(),
            signal_paths,
            pdn,
        )?;
        drop(span_pdn);

        let span_validate = trace.span("validate");
        design.validate_against(app)?;
        drop(span_validate);
        drop(span_synth);

        trace.incr("synth/runs", 1);
        trace.incr("synth/messages", app.message_count() as u64);
        trace.gauge("synth/wavelengths", assignment.wavelength_count as f64);
        trace.gauge("synth/sub_rings", clustering.sub_ring_count() as f64);
        ctx.publish_cache_stats();
        Ok(SringReport {
            design,
            clustering: (*clustering).clone(),
            assignment: (*assignment).clone(),
            runtime: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::MilpOptions;
    use onoc_graph::benchmarks;

    fn heuristic_synth() -> SringSynthesizer {
        SringSynthesizer::with_config(SringConfig {
            strategy: AssignmentStrategy::Heuristic,
            ..SringConfig::default()
        })
    }

    /// One heuristic synthesis per benchmark, shared across tests.
    fn reports() -> &'static Vec<(benchmarks::Benchmark, SringReport)> {
        static CACHE: std::sync::OnceLock<Vec<(benchmarks::Benchmark, SringReport)>> =
            std::sync::OnceLock::new();
        CACHE.get_or_init(|| {
            benchmarks::Benchmark::ALL
                .into_iter()
                .map(|b| {
                    (
                        b,
                        heuristic_synth()
                            .synthesize_detailed(&b.graph())
                            .expect("synthesizes"),
                    )
                })
                .collect()
        })
    }

    #[test]
    fn synthesizes_every_benchmark() {
        for (b, report) in reports() {
            let app = b.graph();
            report.design.validate_against(&app).unwrap();
            assert_eq!(report.design.paths().len(), app.message_count(), "{b}");
            assert!(report.design.sub_ring_count() >= 1, "{b}");
        }
    }

    #[test]
    fn mwd_with_milp_avoids_node_splitters() {
        let app = benchmarks::mwd();
        let synth = SringSynthesizer::with_config(SringConfig {
            strategy: AssignmentStrategy::Milp(MilpOptions::default()),
            ..SringConfig::default()
        });
        let report = synth.synthesize_detailed(&app).unwrap();
        // Paper Table I: SRing reaches #sp_w = 4 on MWD, i.e. the tree
        // levels only — no node-level splitters on the worst path.
        let analysis = report.design.analyze(&TechnologyParameters::default());
        assert!(analysis.max_splitters_passed <= 4);
    }

    #[test]
    fn at_most_two_senders_per_node() {
        for (b, report) in reports() {
            let app = b.graph();
            let senders = report.design.senders();
            for v in app.node_ids() {
                let count = senders.iter().filter(|(n, _)| *n == v).count();
                assert!(count <= 2, "{b}: node {v} has {count} senders");
            }
        }
    }

    #[test]
    fn detailed_report_is_consistent() {
        let app = benchmarks::vopd();
        let report = heuristic_synth().synthesize_detailed(&app).unwrap();
        assert_eq!(
            report.design.wavelength_count(),
            report.assignment.wavelength_count
        );
        assert_eq!(
            report.design.sub_ring_count(),
            report.clustering.sub_ring_count()
        );
        assert!(report.runtime.as_nanos() > 0);
    }

    #[test]
    fn longest_design_path_matches_clustering() {
        let app = benchmarks::mwd();
        let report = heuristic_synth().synthesize_detailed(&app).unwrap();
        let analysis = report.design.analyze(&TechnologyParameters::default());
        assert!((analysis.longest_path.0 - report.clustering.longest_path.0).abs() < 1e-9);
    }

    #[test]
    fn pre_expired_deadline_fails_fast_with_a_typed_error() {
        // Regression: an already-expired deadline used to run the whole
        // pipeline (the deadline only clamped the MILP budget), returning
        // a result the caller was going to discard. It must fail fast
        // before any stage executes.
        let app = benchmarks::mwd();
        let ctx =
            onoc_ctx::ExecCtx::cached().with_deadline(Instant::now() - Duration::from_millis(1));
        let err = heuristic_synth()
            .synthesize_detailed_ctx(&app, &ctx)
            .unwrap_err();
        assert!(
            matches!(err, SringError::Deadline(_)),
            "expected a typed deadline error, got {err:?}"
        );
        assert!(err.to_string().contains("deadline exceeded"));
        // Nothing ran: the cache never saw a single lookup.
        let stats = ctx.cache_stats().unwrap();
        assert_eq!(stats.gets, 0, "fail-fast must not start any stage");
    }

    #[test]
    fn empty_app_fails_cleanly() {
        let app = CommGraph::builder()
            .node("a", onoc_graph::Point::new(0.0, 0.0))
            .build()
            .unwrap();
        let err = heuristic_synth().synthesize(&app).unwrap_err();
        assert_eq!(err, SringError::Cluster(ClusterError::NoMessages));
        assert!(err.to_string().contains("clustering failed"));
    }
}
