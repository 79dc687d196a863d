//! The explicit stage graph of the SRing synthesis pipeline.
//!
//! The former monolithic synthesis routine is decomposed into typed stages
//! — `cluster → layout → route → assign` — each a [`Stage`] with a
//! deterministic [`ContentKey`] over exactly the inputs its output depends
//! on. [`run_stage`] drives one stage through the [`ExecCtx`]: it opens
//! the stage's trace span, consults the context's artifact cache, and only
//! on a miss executes the stage and stores the result. The cheap terminal
//! steps (PDN construction and design validation) stay inline in
//! [`SringSynthesizer::synthesize_detailed_ctx`](crate::SringSynthesizer::synthesize_detailed_ctx)
//! because their outputs embed the whole design and caching them would
//! duplicate the assign artifact.
//!
//! # Key derivation
//!
//! Stage keys are *semantic*: each hashes only what the stage's output
//! actually depends on, so edits that cannot change a stage's result reuse
//! its cached artifact.
//!
//! * `cluster` and `layout` depend on the application *topology* —
//!   [`CommGraph::topology_hash`]: node positions and message endpoints,
//!   not names or bandwidths — plus the clustering configuration.
//! * `route` additionally depends on the routing flexibility flag and the
//!   technology parameters (path losses are baked into the artifact).
//! * `assign` is keyed by the *assignment problem content* — node count,
//!   splitter loss, and the exact [`AssignPath`] list — plus the strategy,
//!   including every MILP option; two runs differing only in solver limits
//!   never share an assignment, while two applications whose routed paths
//!   coincide do.
//!
//! Below the whole-stage keys, the `layout` and `route` stages decompose
//! into per-sub-ring units served from the context's memo tier
//! ([`ExecCtx::memo_get`]): each sub-ring's waveguide and candidate set is
//! keyed by exactly the slice of the clustering it depends on, so an edit
//! that leaves some sub-rings untouched recomputes only the dirty ones.
//! A memo hit replays exactly what recomputation would produce, keeping
//! incremental results bit-identical to from-scratch runs.
//!
//! The wall-clock deadline of the context is deliberately *not* part of
//! any key: a deadline-clamped assign stage is marked uncacheable instead,
//! so a rushed result is never replayed in an unhurried run.

use crate::assignment::{
    assign_ctx, AssignPath, Assignment, AssignmentProblem, AssignmentStrategy, MilpOptions,
};
use crate::cluster::{cluster_ctx, Cluster, Clustering, ClusteringConfig};
use crate::synthesis::{SringConfig, SringError};
use onoc_ctx::{ContentHash, ContentHasher, ContentKey, ExecCtx};
use onoc_graph::{CommGraph, Message, NodeId};
use onoc_layout::{Cycle, Layout, RoutedWaveguide, WaveguideId};
use onoc_photonics::{insertion_loss, PathGeometry, SignalPath};
use onoc_store::Persist;
use std::sync::Arc;

impl ContentHash for ClusteringConfig {
    fn content_hash(&self, hasher: &mut ContentHasher) {
        let ClusteringConfig { tree_height } = self;
        tree_height.content_hash(hasher);
    }
}

impl ContentHash for MilpOptions {
    fn content_hash(&self, hasher: &mut ContentHasher) {
        let MilpOptions { time_limit } = self;
        time_limit.content_hash(hasher);
    }
}

impl ContentHash for AssignmentStrategy {
    fn content_hash(&self, hasher: &mut ContentHasher) {
        match self {
            AssignmentStrategy::Heuristic => hasher.write_u8(0),
            AssignmentStrategy::Milp(opts) => {
                hasher.write_u8(1);
                opts.content_hash(hasher);
            }
            AssignmentStrategy::Auto {
                milp_max_paths,
                options,
            } => {
                hasher.write_u8(2);
                milp_max_paths.content_hash(hasher);
                options.content_hash(hasher);
            }
        }
    }
}

impl ContentHash for AssignPath {
    fn content_hash(&self, hasher: &mut ContentHasher) {
        let AssignPath {
            src,
            is_inter,
            loss,
            channels,
        } = self;
        src.content_hash(hasher);
        is_inter.content_hash(hasher);
        hasher.write_f64(loss.0);
        hasher.write_usize(channels.len());
        for &(wg, seg) in channels {
            hasher.write_usize(wg);
            hasher.write_usize(seg);
        }
    }
}

fn hash_cluster_inputs(hasher: &mut ContentHasher, app: &CommGraph, config: &SringConfig) {
    app.topology_hash(hasher);
    config.clustering.content_hash(hasher);
}

fn hash_route_inputs(hasher: &mut ContentHasher, app: &CommGraph, config: &SringConfig) {
    hash_cluster_inputs(hasher, app, config);
    config.flexible_routing.content_hash(hasher);
    config.tech.content_hash(hasher);
}

/// The content key of the `cluster` and `layout` stages: application graph
/// plus clustering configuration.
#[must_use]
pub fn cluster_key(app: &CommGraph, config: &SringConfig) -> ContentKey {
    let mut hasher = ContentHasher::new();
    hash_cluster_inputs(&mut hasher, app, config);
    hasher.finish()
}

/// The content key of the `route` stage: cluster inputs plus the routing
/// flexibility flag and the technology parameters.
#[must_use]
pub fn route_key(app: &CommGraph, config: &SringConfig) -> ContentKey {
    let mut hasher = ContentHasher::new();
    hash_route_inputs(&mut hasher, app, config);
    hasher.finish()
}

/// The conservative assignment key: route inputs plus the complete
/// assignment strategy (including MILP limits). [`AssignStage`] itself
/// uses the finer problem-content key (see [`assign_problem_key`]), which
/// additionally lets two applications with coinciding routed paths share
/// an assignment; this coarser key remains a correct over-approximation.
#[must_use]
pub fn assign_key(app: &CommGraph, config: &SringConfig) -> ContentKey {
    let mut hasher = ContentHasher::new();
    hash_route_inputs(&mut hasher, app, config);
    config.strategy.content_hash(&mut hasher);
    hasher.finish()
}

/// The content key the `assign` stage actually runs under: the assignment
/// problem itself (node count, splitter loss, the exact routed-path list)
/// plus the strategy. Everything upstream — graph, clustering, layout —
/// only matters through the paths it produced.
#[must_use]
pub fn assign_problem_key(
    node_count: usize,
    splitter_loss: f64,
    assign_paths: &[AssignPath],
    strategy: &AssignmentStrategy,
) -> ContentKey {
    let mut hasher = ContentHasher::new();
    hasher.write_usize(node_count);
    hasher.write_f64(splitter_loss);
    hasher.write_usize(assign_paths.len());
    for p in assign_paths {
        p.content_hash(&mut hasher);
    }
    strategy.content_hash(&mut hasher);
    hasher.finish()
}

/// Output of the `layout` stage: the routed floorplan plus the waveguide
/// handles of every sub-ring.
#[derive(Debug, Clone)]
pub struct LayoutArtifact {
    /// The floorplan with every sub-ring routed rectilinearly.
    pub layout: Layout,
    /// Waveguide of each cluster's intra ring (`None` for singletons),
    /// indexed like `Clustering::clusters`.
    pub intra_wg: Vec<Option<WaveguideId>>,
    /// Waveguide of the inter-cluster ring, when one exists.
    pub inter_wg: Option<WaveguideId>,
}

/// Output of the `route` stage: the chosen signal path per message (with a
/// placeholder wavelength λ₀) and the derived assignment inputs.
#[derive(Debug, Clone)]
pub struct RouteArtifact {
    /// One path per message, in message-id order; wavelengths are assigned
    /// by the `assign` stage.
    pub signal_paths: Vec<SignalPath>,
    /// The loss/conflict view of the same paths for the assigner.
    pub assign_paths: Vec<AssignPath>,
}

/// One typed unit of the synthesis pipeline.
///
/// A stage names itself (the name doubles as its trace span and its cache
/// namespace), derives a deterministic content key over its inputs, and
/// computes its output. [`run_stage`] supplies the caching and tracing
/// around it.
pub trait Stage {
    /// The artifact this stage produces.
    type Output: Send + Sync + 'static;

    /// Stage name: trace span under the enclosing pipeline span, and cache
    /// namespace.
    fn name(&self) -> &'static str;

    /// Deterministic key over every input the output depends on.
    fn content_key(&self) -> ContentKey;

    /// Whether the artifact may be served from / stored into the cache.
    /// Stages whose effective inputs are perturbed at run time (e.g. a
    /// deadline-clamped solver budget) report `false`.
    fn cacheable(&self) -> bool {
        true
    }

    /// Computes the artifact.
    ///
    /// # Errors
    ///
    /// Stage-specific; see [`SringError`].
    fn run(&self, ctx: &ExecCtx) -> Result<Self::Output, SringError>;
}

/// Runs one stage through the context: opens its trace span, consults the
/// in-memory artifact cache, then the persistent store, and executes the
/// stage only when both tiers miss. Computed and disk-loaded artifacts
/// are written through to the tiers above them, so a warm disk store
/// repopulates the memory cache and a fresh computation lands in both.
///
/// A disk payload that passes the store's checksum but fails the typed
/// [`Persist`] decode (schema drift without a format-version bump) is
/// counted on the `cache/disk_decode_errors` trace counter and treated as
/// a miss — never trusted, never fatal.
///
/// The context's deadline is checked *before* any work (including cache
/// lookups): a deadline that expired while the previous stage ran aborts
/// the pipeline here with [`SringError::Deadline`], instead of silently
/// starting the next stage and only being noticed by a deadline-aware
/// solver deep inside `assign`.
///
/// # Errors
///
/// Propagates the stage's own error, [`SringError::Deadline`] when the
/// context's deadline has passed, or [`SringError::Cache`] when the
/// artifact cache lock was poisoned.
pub fn run_stage<S: Stage>(ctx: &ExecCtx, stage: &S) -> Result<Arc<S::Output>, SringError>
where
    S::Output: Persist,
{
    ctx.check_deadline()?;
    let _span = ctx.trace().span(stage.name());
    if !stage.cacheable() {
        return Ok(Arc::new(stage.run(ctx)?));
    }
    let key = stage.content_key();
    if let Some(hit) = ctx.cache_get::<S::Output>(stage.name(), key)? {
        return Ok(hit);
    }
    if let Some(store) = ctx.store() {
        if let Some(payload) = store.load(stage.name(), key) {
            match S::Output::from_store_bytes(&payload) {
                Ok(output) => return Ok(ctx.cache_put(stage.name(), key, output)?),
                Err(_) => ctx.trace().incr("cache/disk_decode_errors", 1),
            }
        }
    }
    let output = stage.run(ctx)?;
    if let Some(store) = ctx.store() {
        store.save(stage.name(), key, &output.to_store_bytes());
    }
    Ok(ctx.cache_put(stage.name(), key, output)?)
}

/// The `cluster` stage: sub-ring construction (paper Sec. III-A).
#[derive(Debug)]
pub struct ClusterStage<'a> {
    /// The application graph.
    pub app: &'a CommGraph,
    /// The synthesizer configuration.
    pub config: &'a SringConfig,
}

impl Stage for ClusterStage<'_> {
    type Output = Clustering;

    fn name(&self) -> &'static str {
        "cluster"
    }

    fn content_key(&self) -> ContentKey {
        cluster_key(self.app, self.config)
    }

    fn run(&self, ctx: &ExecCtx) -> Result<Clustering, SringError> {
        Ok(cluster_ctx(self.app, &self.config.clustering, ctx)?)
    }
}

/// Feeds one sub-ring's visiting order into a layout prefix hasher.
fn hash_cycle(cycle: &Cycle, hasher: &mut ContentHasher) {
    hasher.write_usize(cycle.len());
    for &v in cycle.nodes() {
        hasher.write_usize(v.index());
    }
}

/// The content hash of a fully routed floorplan: every node position plus
/// every sub-ring cycle in routing order (intra rings by cluster index,
/// then the inter ring), with explicit present/absent markers. The routed
/// geometry — including every crossing — is a deterministic function of
/// exactly these inputs.
fn layout_content_key(app: &CommGraph, clustering: &Clustering) -> ContentKey {
    let mut hasher = ContentHasher::new();
    for v in app.node_ids() {
        let p = app.position(v);
        hasher.write_f64(p.x);
        hasher.write_f64(p.y);
    }
    hasher.write_usize(clustering.clusters.len());
    for Cluster { ring, .. } in &clustering.clusters {
        match ring {
            Some(r) => {
                hasher.write_u8(1);
                hash_cycle(r, &mut hasher);
            }
            None => hasher.write_u8(0),
        }
    }
    match &clustering.inter_ring {
        Some(r) => {
            hasher.write_u8(1);
            hash_cycle(r, &mut hasher);
        }
        None => hasher.write_u8(0),
    }
    hasher.finish()
}

/// The `layout` stage: rectilinear routing of every sub-ring on the
/// floorplan (paper Sec. III-A-3).
#[derive(Debug)]
pub struct LayoutStage<'a> {
    /// The application graph.
    pub app: &'a CommGraph,
    /// The synthesizer configuration.
    pub config: &'a SringConfig,
    /// The clustering artifact to realize.
    pub clustering: &'a Clustering,
}

impl Stage for LayoutStage<'_> {
    type Output = LayoutArtifact;

    fn name(&self) -> &'static str {
        "layout"
    }

    fn content_key(&self) -> ContentKey {
        // The clustering is a deterministic function of the same inputs,
        // so the cluster key identifies the layout as well.
        cluster_key(self.app, self.config)
    }

    fn run(&self, ctx: &ExecCtx) -> Result<LayoutArtifact, SringError> {
        let positions: Vec<_> = self.app.node_ids().map(|v| self.app.position(v)).collect();
        let mut layout = Layout::new(positions);

        // Per-ring memo under *prefix* keys: `route_cycle` picks each
        // L-shape orientation by minimizing crossings against everything
        // routed before it, so ring k's waveguide is a pure function of
        // the positions plus cycles 0..=k in routing order. The running
        // hasher accumulates exactly that prefix; a hit replays the stored
        // waveguide via `push_waveguide`, leaving the layout bit-identical
        // to recomputation.
        let mut prefix = ContentHasher::new();
        for v in self.app.node_ids() {
            let p = self.app.position(v);
            prefix.write_f64(p.x);
            prefix.write_f64(p.y);
        }
        let mut route_ring = |layout: &mut Layout, cycle: &Cycle| -> WaveguideId {
            hash_cycle(cycle, &mut prefix);
            let key = prefix.finish();
            if let Ok(hit) = ctx.memo_get("layout_ring", key, |w: &Arc<RoutedWaveguide>| {
                Some(RoutedWaveguide::clone(w))
            }) {
                return layout.push_waveguide(hit);
            }
            let wg = layout.route_cycle(cycle);
            ctx.memo_put("layout_ring", key, layout.waveguide(wg).clone());
            wg
        };

        let mut intra_wg: Vec<Option<WaveguideId>> =
            Vec::with_capacity(self.clustering.clusters.len());
        for Cluster { ring, .. } in &self.clustering.clusters {
            intra_wg.push(ring.as_ref().map(|r| route_ring(&mut layout, r)));
        }
        let inter_wg = self
            .clustering
            .inter_ring
            .as_ref()
            .map(|r| route_ring(&mut layout, r));
        Ok(LayoutArtifact {
            layout,
            intra_wg,
            inter_wg,
        })
    }
}

/// The `route` stage: per-message route choice and signal-path
/// construction, including the congestion-aware flexible routing pass.
#[derive(Debug)]
pub struct RouteStage<'a> {
    /// The application graph.
    pub app: &'a CommGraph,
    /// The synthesizer configuration.
    pub config: &'a SringConfig,
    /// The clustering artifact.
    pub clustering: &'a Clustering,
    /// The layout artifact.
    pub layout: &'a LayoutArtifact,
}

/// A candidate route for one message during greedy selection.
#[derive(Clone)]
struct Candidate {
    wg: WaveguideId,
    occupancy: Vec<(WaveguideId, usize)>,
    geometry: PathGeometry,
    is_inter: bool,
}

impl RouteStage<'_> {
    /// The candidate routes of the messages `indices`, homed on cluster
    /// `home`'s intra ring, or on the inter ring for `None`.
    fn build_unit(&self, indices: &[usize], home: Option<usize>) -> Vec<Vec<Candidate>> {
        let messages = self.app.messages();
        indices
            .iter()
            .map(|&i| self.candidates(&messages[i], home))
            .collect()
    }

    /// The candidate routes of `msg`: its home ring's route, plus (with
    /// flexible routing) the inter ring's whenever both endpoints of an
    /// intra-homed message lie on it.
    fn candidates(&self, msg: &Message, home: Option<usize>) -> Vec<Candidate> {
        let layout = &self.layout.layout;
        let inter_wg = self.layout.inter_wg;
        let inter_ring = self.clustering.inter_ring.as_ref();
        let mut options = Vec::with_capacity(2);
        let Some(c) = home else {
            #[expect(
                clippy::expect_used,
                reason = "cross-cluster messages imply a routed inter ring"
            )]
            let wg = inter_wg.expect("cross-cluster messages imply an inter ring");
            #[expect(
                clippy::expect_used,
                reason = "cross-cluster messages imply an inter ring"
            )]
            let ring = inter_ring.expect("cross-cluster messages imply an inter ring");
            options.push(build_candidate(layout, wg, ring, msg.src, msg.dst, true));
            return options;
        };
        #[expect(
            clippy::expect_used,
            reason = "same-cluster messages imply a multi-node, ringed cluster"
        )]
        let ring = self.clustering.clusters[c]
            .ring
            .as_ref()
            .expect("a same-cluster message implies a multi-node cluster");
        #[expect(
            clippy::expect_used,
            reason = "the rings of multi-node clusters are all routed"
        )]
        let wg = self.layout.intra_wg[c].expect("multi-node clusters are routed");
        options.push(build_candidate(layout, wg, ring, msg.src, msg.dst, false));
        if let (true, Some(wg), Some(ring)) = (self.config.flexible_routing, inter_wg, inter_ring) {
            if ring.contains(msg.src) && ring.contains(msg.dst) {
                options.push(build_candidate(layout, wg, ring, msg.src, msg.dst, true));
            }
        }
        options
    }
}

/// The candidate route of `src → dst` along `cycle`, which `layout` routes
/// as waveguide `wg`.
fn build_candidate(
    layout: &Layout,
    wg: WaveguideId,
    cycle: &Cycle,
    src: NodeId,
    dst: NodeId,
    is_inter: bool,
) -> Candidate {
    #[expect(
        clippy::expect_used,
        reason = "candidates are built only on rings that hold both message endpoints"
    )]
    let range = cycle
        .path_segments(src, dst)
        .expect("message endpoints lie on the chosen ring");
    let routed = layout.waveguide(wg);
    let mut geometry = PathGeometry::new();
    let mut occupancy = Vec::with_capacity(range.len());
    for seg in range.iter() {
        let g = routed.segment(seg);
        geometry.length += g.length;
        geometry.bends += g.bends;
        occupancy.push((wg, seg));
    }
    geometry.crossings = layout.path_crossings(wg, &range);
    Candidate {
        wg,
        occupancy,
        geometry,
        is_inter,
    }
}

impl Stage for RouteStage<'_> {
    type Output = RouteArtifact;

    fn name(&self) -> &'static str {
        "route"
    }

    fn content_key(&self) -> ContentKey {
        route_key(self.app, self.config)
    }

    fn run(&self, ctx: &ExecCtx) -> Result<RouteArtifact, SringError> {
        let app = self.app;
        let clustering = self.clustering;

        // Messages grouped by home sub-ring: same-cluster messages belong
        // to their cluster's intra ring, cross-cluster messages to the
        // inter ring. Each group is one memo unit.
        let messages = app.messages();
        let mut intra_homed: Vec<Vec<usize>> = vec![Vec::new(); clustering.clusters.len()];
        let mut inter_homed: Vec<usize> = Vec::new();
        for (i, msg) in messages.iter().enumerate() {
            if clustering.same_cluster(msg.src, msg.dst) {
                intra_homed[clustering.cluster_of[msg.src.index()]].push(i);
            } else {
                inter_homed.push(i);
            }
        }

        // Candidate construction for one home ring's messages. Every
        // candidate's crossing count consults the whole routed floorplan,
        // so the unit key is the full layout content hash plus the ring
        // tag, the homed messages' endpoints (dense order), and the
        // flexibility flag — technology is deliberately excluded: losses
        // are computed from the geometry after selection.
        let layout_key = layout_content_key(app, clustering);
        let unit_key = |tag: u8, ring_idx: usize, indices: &[usize]| -> ContentKey {
            let mut hasher = ContentHasher::new();
            hasher.write_u64(layout_key.0[0]);
            hasher.write_u64(layout_key.0[1]);
            hasher.write_u8(tag);
            hasher.write_usize(ring_idx);
            hasher.write_u8(u8::from(self.config.flexible_routing));
            hasher.write_usize(indices.len());
            for &i in indices {
                hasher.write_usize(messages[i].src.index());
                hasher.write_usize(messages[i].dst.index());
            }
            hasher.finish()
        };
        let unit_memo = |indices: &[usize],
                         home: Option<usize>,
                         tag: u8,
                         ring_idx: usize|
         -> Vec<Vec<Candidate>> {
            let key = unit_key(tag, ring_idx, indices);
            if let Ok(hit) = ctx.memo_get("route_ring", key, |u: &Arc<Vec<Vec<Candidate>>>| {
                Some(Vec::clone(u))
            }) {
                return hit;
            }
            let unit = self.build_unit(indices, home);
            ctx.memo_put("route_ring", key, unit.clone());
            unit
        };

        let mut candidates: Vec<Vec<Candidate>> = vec![Vec::new(); app.message_count()];
        for (c, indices) in intra_homed.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let unit = unit_memo(indices, Some(c), 0, c);
            for (&i, options) in indices.iter().zip(unit) {
                candidates[i] = options;
            }
        }
        if !inter_homed.is_empty() {
            let unit = unit_memo(&inter_homed, None, 1, 0);
            for (&i, options) in inter_homed.iter().zip(unit) {
                candidates[i] = options;
            }
        }

        // Greedy route selection: forced routes first, then flexible ones
        // (longest first) choosing the option with the lower resulting peak
        // channel load, ties to the shorter route.
        let mut load: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        let mut chosen: Vec<Option<usize>> = vec![None; candidates.len()];
        let commit =
            |cand: &Candidate, load: &mut std::collections::HashMap<(usize, usize), usize>| {
                for &(wg, seg) in &cand.occupancy {
                    *load.entry((wg.index(), seg)).or_insert(0) += 1;
                }
            };
        for (i, options) in candidates.iter().enumerate() {
            if options.len() == 1 {
                commit(&options[0], &mut load);
                chosen[i] = Some(0);
            }
        }
        let mut flexible: Vec<usize> = (0..candidates.len())
            .filter(|&i| chosen[i].is_none())
            .collect();
        flexible.sort_by(|&a, &b| {
            candidates[b][0]
                .geometry
                .length
                .total_cmp(&candidates[a][0].geometry.length)
                .then(a.cmp(&b))
        });
        for i in flexible {
            #[expect(
                clippy::expect_used,
                reason = "every message has at least one candidate"
            )]
            let best = candidates[i]
                .iter()
                .enumerate()
                .min_by(|(_, x), (_, y)| {
                    let peak = |c: &Candidate| {
                        c.occupancy
                            .iter()
                            .map(|&(wg, seg)| {
                                load.get(&(wg.index(), seg)).copied().unwrap_or(0) + 1
                            })
                            .max()
                            .unwrap_or(1)
                    };
                    peak(x)
                        .cmp(&peak(y))
                        .then(x.geometry.length.0.total_cmp(&y.geometry.length.0))
                })
                .map(|(k, _)| k)
                .expect("every message has at least one candidate");
            commit(&candidates[i][best], &mut load);
            chosen[i] = Some(best);
        }

        let mut signal_paths = Vec::with_capacity(app.message_count());
        let mut assign_paths = Vec::with_capacity(app.message_count());
        for (i, id) in app.message_ids().enumerate() {
            let msg = app.message(id);
            #[expect(clippy::expect_used, reason = "the loops above route every message")]
            let cand = &candidates[i][chosen[i].expect("all messages routed")];
            let loss = insertion_loss(&cand.geometry, &self.config.tech);
            assign_paths.push(AssignPath {
                src: msg.src,
                is_inter: cand.is_inter,
                loss,
                channels: cand
                    .occupancy
                    .iter()
                    .map(|&(w, s)| (w.index(), s))
                    .collect(),
            });
            signal_paths.push(SignalPath {
                message: id,
                src: msg.src,
                dst: msg.dst,
                waveguide: cand.wg,
                occupancy: cand.occupancy.clone(),
                geometry: cand.geometry,
                wavelength: onoc_units::Wavelength(0), // set after assignment
            });
        }

        Ok(RouteArtifact {
            signal_paths,
            assign_paths,
        })
    }
}

/// The `assign` stage: wavelength assignment (paper Sec. III-B) over the
/// routed paths.
#[derive(Debug)]
pub struct AssignStage<'a> {
    /// The application graph.
    pub app: &'a CommGraph,
    /// The synthesizer configuration.
    pub config: &'a SringConfig,
    /// The route artifact whose paths are assigned.
    pub route: &'a RouteArtifact,
    /// `false` when the context carries a deadline: the solver budget is
    /// then clamped at run time, so the result must not be cached or
    /// served from cache.
    pub cacheable: bool,
}

impl Stage for AssignStage<'_> {
    type Output = Assignment;

    fn name(&self) -> &'static str {
        "assign"
    }

    fn content_key(&self) -> ContentKey {
        assign_problem_key(
            self.app.node_count(),
            self.config.tech.splitter_loss().0,
            &self.route.assign_paths,
            &self.config.strategy,
        )
    }

    fn cacheable(&self) -> bool {
        self.cacheable
    }

    fn run(&self, ctx: &ExecCtx) -> Result<Assignment, SringError> {
        let problem = AssignmentProblem::new(
            self.app.node_count(),
            self.route.assign_paths.clone(),
            self.config.tech.splitter_loss(),
        );
        Ok(assign_ctx(&problem, &self.config.strategy, ctx)?)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests set deadlines relative to the wall clock"
)]
mod tests {
    use super::*;
    use onoc_graph::benchmarks;

    fn config() -> SringConfig {
        SringConfig {
            strategy: AssignmentStrategy::Heuristic,
            ..SringConfig::default()
        }
    }

    #[test]
    fn keys_are_deterministic_and_layered() {
        let app = benchmarks::mwd();
        let cfg = config();
        assert_eq!(cluster_key(&app, &cfg), cluster_key(&app, &cfg));
        assert_eq!(route_key(&app, &cfg), route_key(&app, &cfg));
        assert_eq!(assign_key(&app, &cfg), assign_key(&app, &cfg));
        // The three layers never alias each other.
        assert_ne!(cluster_key(&app, &cfg), route_key(&app, &cfg));
        assert_ne!(route_key(&app, &cfg), assign_key(&app, &cfg));
    }

    #[test]
    fn strategy_only_perturbs_the_assign_key() {
        let app = benchmarks::mwd();
        let heuristic = config();
        let milp = SringConfig {
            strategy: AssignmentStrategy::Milp(MilpOptions::default()),
            ..SringConfig::default()
        };
        assert_eq!(cluster_key(&app, &heuristic), cluster_key(&app, &milp));
        assert_eq!(route_key(&app, &heuristic), route_key(&app, &milp));
        assert_ne!(assign_key(&app, &heuristic), assign_key(&app, &milp));
    }

    #[test]
    fn milp_limits_perturb_the_assign_key() {
        let app = benchmarks::mwd();
        let short = SringConfig {
            strategy: AssignmentStrategy::Milp(MilpOptions {
                time_limit: std::time::Duration::from_millis(10),
            }),
            ..SringConfig::default()
        };
        let long = SringConfig {
            strategy: AssignmentStrategy::Milp(MilpOptions::default()),
            ..SringConfig::default()
        };
        assert_ne!(assign_key(&app, &short), assign_key(&app, &long));
    }

    #[test]
    fn tech_perturbs_route_but_not_cluster_key() {
        let app = benchmarks::mwd();
        let base = config();
        let lossier = SringConfig {
            tech: onoc_units::TechnologyParameters {
                crossing_loss: onoc_units::Decibels(0.08),
                ..onoc_units::TechnologyParameters::default()
            },
            ..config()
        };
        assert_eq!(cluster_key(&app, &base), cluster_key(&app, &lossier));
        assert_ne!(route_key(&app, &base), route_key(&app, &lossier));
    }

    #[test]
    fn cluster_stage_roundtrips_through_the_cache() {
        let app = benchmarks::mwd();
        let cfg = config();
        let ctx = ExecCtx::cached();
        let stage = ClusterStage {
            app: &app,
            config: &cfg,
        };
        let first = run_stage(&ctx, &stage).unwrap();
        let second = run_stage(&ctx, &stage).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "second run must be a hit");
        let stats = ctx.cache_stats().unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn uncacheable_stage_bypasses_the_cache() {
        let app = benchmarks::mwd();
        let cfg = config();
        let ctx = ExecCtx::cached();
        let cluster_artifact = run_stage(
            &ctx,
            &ClusterStage {
                app: &app,
                config: &cfg,
            },
        )
        .unwrap();
        let layout = run_stage(
            &ctx,
            &LayoutStage {
                app: &app,
                config: &cfg,
                clustering: &cluster_artifact,
            },
        )
        .unwrap();
        let route = run_stage(
            &ctx,
            &RouteStage {
                app: &app,
                config: &cfg,
                clustering: &cluster_artifact,
                layout: &layout,
            },
        )
        .unwrap();
        let stats_before = ctx.cache_stats().unwrap();
        let stage = AssignStage {
            app: &app,
            config: &cfg,
            route: &route,
            cacheable: false,
        };
        let a = run_stage(&ctx, &stage).unwrap();
        let b = run_stage(&ctx, &stage).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "uncacheable stages recompute");
        let stats_after = ctx.cache_stats().unwrap();
        assert_eq!(stats_before.hits, stats_after.hits);
        assert_eq!(stats_before.misses, stats_after.misses);
        assert_eq!(*a, *b, "recomputation is still deterministic");
    }

    #[test]
    fn deadline_expiring_between_stages_aborts_before_the_next_stage() {
        // Regression: the deadline used to be consulted only *inside*
        // `assign` (as a solver-budget clamp), so a deadline that lapsed
        // after `cluster` would happily run `layout` and `route` to
        // completion. `run_stage` now aborts before starting a stage.
        let app = benchmarks::mwd();
        let cfg = config();
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(500);
        let ctx = ExecCtx::cached().with_deadline(deadline);
        let clustering = run_stage(
            &ctx,
            &ClusterStage {
                app: &app,
                config: &cfg,
            },
        )
        .expect("cluster finishes well within the deadline");
        std::thread::sleep(std::time::Duration::from_millis(600));
        let stats_before = ctx.cache_stats().unwrap();
        let err = run_stage(
            &ctx,
            &LayoutStage {
                app: &app,
                config: &cfg,
                clustering: &clustering,
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, SringError::Deadline(_)),
            "expected a typed deadline abort, got {err:?}"
        );
        // The abort happens before any work — not even a cache lookup ran.
        let stats_after = ctx.cache_stats().unwrap();
        assert_eq!(stats_before.gets, stats_after.gets);
    }

    #[test]
    fn stage_pipeline_matches_by_content() {
        // Two independent contexts sharing one cache: the second pipeline
        // run hits on every cacheable stage.
        let app = benchmarks::vopd();
        let cfg = config();
        let cache = Arc::new(onoc_ctx::ArtifactCache::default());
        let run = || -> Assignment {
            let ctx = ExecCtx::default().with_cache(cache.clone());
            let clustering = run_stage(
                &ctx,
                &ClusterStage {
                    app: &app,
                    config: &cfg,
                },
            )
            .unwrap();
            let layout = run_stage(
                &ctx,
                &LayoutStage {
                    app: &app,
                    config: &cfg,
                    clustering: &clustering,
                },
            )
            .unwrap();
            let route = run_stage(
                &ctx,
                &RouteStage {
                    app: &app,
                    config: &cfg,
                    clustering: &clustering,
                    layout: &layout,
                },
            )
            .unwrap();
            let assignment = run_stage(
                &ctx,
                &AssignStage {
                    app: &app,
                    config: &cfg,
                    route: &route,
                    cacheable: true,
                },
            )
            .unwrap();
            (*assignment).clone()
        };
        let first = run();
        let second = run();
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!(stats.hits, 4, "all four stages hit on the second run");
        assert_eq!(stats.misses, 4);
    }
}
