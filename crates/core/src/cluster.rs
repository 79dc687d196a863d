//! The sub-ring construction (clustering) algorithm of SRing
//! (paper Sec. III-A, Figs. 4–5).
//!
//! Nodes are grouped by communication requirement and physical proximity;
//! each cluster gets an *intra-cluster* sub-ring, and at most one
//! *inter-cluster* sub-ring connects all nodes with cross-cluster traffic —
//! so every node has at most two senders. The maximum permissible signal
//! path length `L_max` is minimized by a balanced binary search over
//! `[d₁, d₂]`, where `d₁` is the largest Manhattan distance between
//! communicating nodes and `d₂` the longest signal path of a conventional
//! all-node ring.

use onoc_ctx::{ContentHash, ContentHasher, ContentKey, DeadlineExceeded, ExecCtx};
use onoc_graph::{CommGraph, NodeId};
use onoc_layout::ring_order::tour_order;
use onoc_layout::Cycle;
use onoc_units::Millimeters;
use std::collections::BTreeSet;
use std::fmt;

/// Tuning knobs of the clustering algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringConfig {
    /// Height `h` of the balanced binary search tree over candidate
    /// `L_max` values: the tree holds `2^h − 1` equidistant candidates
    /// (paper footnote *b*). All candidates are evaluated, so `h` trades
    /// resolution against runtime.
    pub tree_height: u32,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        ClusteringConfig { tree_height: 4 }
    }
}

/// One cluster: its members and (for clusters of two or more nodes) the
/// intra-cluster sub-ring in its chosen transmission direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Member nodes, in discovery order.
    pub members: Vec<NodeId>,
    /// The intra-cluster sub-ring; `None` for singleton clusters, whose
    /// only traffic is inter-cluster.
    pub ring: Option<Cycle>,
}

/// The outcome of the clustering algorithm: the valid solution with the
/// smallest `L_max`.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// The clusters, each with its intra-cluster sub-ring.
    pub clusters: Vec<Cluster>,
    /// The inter-cluster sub-ring over all nodes with cross-cluster
    /// traffic; `None` when every message is intra-cluster.
    pub inter_ring: Option<Cycle>,
    /// The `L_max` bound the solution was accepted under.
    pub l_max: Millimeters,
    /// The longest signal path actually realized.
    pub longest_path: Millimeters,
    /// Cluster index of each node.
    pub cluster_of: Vec<usize>,
}

impl Clustering {
    /// Number of sub-rings (intra rings plus the inter ring).
    #[must_use]
    pub fn sub_ring_count(&self) -> usize {
        self.clusters.iter().filter(|c| c.ring.is_some()).count()
            + usize::from(self.inter_ring.is_some())
    }

    /// `true` when `a` and `b` belong to the same cluster.
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the clustered graph.
    #[must_use]
    pub fn same_cluster(&self, a: NodeId, b: NodeId) -> bool {
        self.cluster_of[a.index()] == self.cluster_of[b.index()]
    }

    /// The maximum number of signal paths overlapping on any single
    /// waveguide segment when `graph`'s messages are routed on this
    /// solution's sub-rings. This is a lower bound on the wavelength count
    /// any assignment can reach, so the `L_max` search uses it to break
    /// ties between equally short solutions.
    ///
    /// # Panics
    ///
    /// Panics if the solution was not built for `graph`.
    #[must_use]
    pub fn max_channel_congestion(&self, graph: &CommGraph) -> usize {
        let mut worst = 0usize;
        let ring_of = |m: &onoc_graph::Message| -> Option<&Cycle> {
            if self.same_cluster(m.src, m.dst) {
                self.clusters[self.cluster_of[m.src.index()]].ring.as_ref()
            } else {
                self.inter_ring.as_ref()
            }
        };
        // Count per (ring identity, segment) occupancy.
        let mut rings: Vec<&Cycle> = self
            .clusters
            .iter()
            .filter_map(|c| c.ring.as_ref())
            .collect();
        if let Some(r) = &self.inter_ring {
            rings.push(r);
        }
        for ring in rings {
            let mut load = vec![0usize; ring.len()];
            for m in graph.messages() {
                if ring_of(m).is_some_and(|r| std::ptr::eq(r, ring)) {
                    if let Some(range) = ring.path_segments(m.src, m.dst) {
                        for seg in range.iter() {
                            load[seg] += 1;
                            worst = worst.max(load[seg]);
                        }
                    }
                }
            }
        }
        worst
    }
}

/// Error from [`cluster`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// The application has no messages, so there is nothing to construct.
    NoMessages,
    /// Every clustering attempt — including the unbounded fallback —
    /// produced an empty cluster set.
    EmptyCluster,
    /// A sub-ring could not be constructed or refined because a cycle
    /// invariant was violated (an internal bug surfaced as a typed error
    /// instead of a panic).
    InvalidCycle(&'static str),
    /// The execution deadline expired mid-pass.
    Deadline(DeadlineExceeded),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoMessages => write!(f, "application has no messages"),
            ClusterError::EmptyCluster => {
                write!(f, "no clustering attempt produced a non-empty cluster set")
            }
            ClusterError::InvalidCycle(what) => {
                write!(f, "sub-ring cycle invariant violated: {what}")
            }
            ClusterError::Deadline(e) => write!(f, "clustering {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<DeadlineExceeded> for ClusterError {
    fn from(e: DeadlineExceeded) -> Self {
        ClusterError::Deadline(e)
    }
}

/// The longest signal path of a conventional ring router connecting all
/// nodes sequentially with clockwise and counter-clockwise waveguides
/// (each message taking the shorter direction).
///
/// Returns zero for graphs with fewer than two nodes or no messages.
#[must_use]
pub fn conventional_upper_bound(graph: &CommGraph) -> Millimeters {
    if graph.node_count() < 2 || graph.message_count() == 0 {
        return Millimeters(0.0);
    }
    let positions: Vec<_> = graph.node_ids().map(|n| graph.position(n)).collect();
    let order = tour_order(&positions);
    // The guard above makes both constructions infallible; degrade to the
    // documented zero bound instead of panicking if that ever changes.
    let Ok(ring) = Cycle::new(order) else {
        return Millimeters(0.0);
    };
    let rev = ring.reversed();
    let dist = |a: NodeId, b: NodeId| graph.manhattan(a, b).0;
    let mut worst = 0.0f64;
    for m in graph.messages() {
        let (Some(fwd), Some(bwd)) = (
            ring.path_length(m.src, m.dst, dist),
            rev.path_length(m.src, m.dst, dist),
        ) else {
            continue;
        };
        worst = worst.max(fwd.min(bwd));
    }
    Millimeters(worst)
}

/// The longest signal path if all nodes were connected sequentially on a
/// *single* directed ring (the best of the two orientations) — the upper
/// search bound `d₂`. Sub-rings carry signals in one direction only, so
/// this is the bound a degenerate one-cluster solution can always realize;
/// it guarantees the `L_max` search space contains a valid solution.
#[must_use]
pub fn one_way_upper_bound(graph: &CommGraph) -> Millimeters {
    one_way_bound(graph, &mut RingEval::new(graph))
}

fn one_way_bound(graph: &CommGraph, ev: &mut RingEval) -> Millimeters {
    if graph.node_count() < 2 || graph.message_count() == 0 {
        return Millimeters(0.0);
    }
    let positions: Vec<_> = graph.node_ids().map(|n| graph.position(n)).collect();
    let order = tour_order(&positions);
    let Ok(ring) = Cycle::new(order) else {
        return Millimeters(0.0);
    };
    let msgs: Vec<(NodeId, NodeId)> = graph.messages().iter().map(|m| (m.src, m.dst)).collect();
    ev.load(ring.nodes());
    Millimeters(ev.orientation(&msgs).1)
}

/// Runs the full clustering algorithm (paper Fig. 4) and returns the valid
/// solution with the smallest `L_max`.
///
/// # Errors
///
/// Returns [`ClusterError::NoMessages`] for an application without
/// messages. Any application with messages admits a solution: if no
/// candidate `L_max` in `[d₁, d₂]` validates, the algorithm falls back to
/// an unbounded run, which always succeeds.
pub fn cluster(graph: &CommGraph, config: &ClusteringConfig) -> Result<Clustering, ClusterError> {
    cluster_ctx(graph, config, &ExecCtx::new())
}

/// [`cluster`] with an execution context. When `ctx` carries a memo tier
/// ([`ExecCtx::memo`]), the pure sub-ring construction units — greedy
/// cluster growth, cycle refinement, and inter-ring growth — are
/// content-keyed by exactly the input slice each depends on and served
/// from the memo on repeat invocations. A memo hit returns precisely what
/// recomputation would, so results are bit-identical with or without the
/// memo; this is what makes incremental re-synthesis fast without a
/// separate (and potentially divergent) incremental algorithm.
///
/// # Errors
///
/// Same contract as [`cluster`].
pub fn cluster_ctx(
    graph: &CommGraph,
    config: &ClusteringConfig,
    ctx: &ExecCtx,
) -> Result<Clustering, ClusterError> {
    if graph.message_count() == 0 {
        return Err(ClusterError::NoMessages);
    }
    let mut ev = RingEval::new(graph);
    let result = search_l_max(graph, config, ctx, &mut ev);
    ctx.trace().incr("cluster/ring_evals", ev.evals);
    result
}

/// The `L_max` search of [`cluster_ctx`], on one shared evaluator.
fn search_l_max(
    graph: &CommGraph,
    config: &ClusteringConfig,
    ctx: &ExecCtx,
    ev: &mut RingEval,
) -> Result<Clustering, ClusterError> {
    let d1 = graph.max_communicating_distance().0;
    let d2 = one_way_bound(graph, ev).0.max(d1);
    let count = (1usize << config.tree_height) - 1;
    let candidate = |k: usize| {
        if count == 1 {
            (d1 + d2) / 2.0
        } else {
            d1 + (d2 - d1) * k as f64 / (count - 1) as f64
        }
    };

    // Balanced binary search over the candidate L_max values: a valid
    // clustering sends the search left (smaller L_max), an invalid one
    // right (paper Fig. 4). Among all valid candidates encountered, the
    // one with the smallest *realized* longest signal path is kept (ties:
    // smaller L_max) — with a greedy construction, validity is not
    // perfectly monotone in L_max, so the realized length is the honest
    // selection key.
    let mut best: Option<(Clustering, f64)> = None;
    let consider = |solution: Clustering, best: &mut Option<(Clustering, f64)>| {
        let score = power_proxy(&solution, graph);
        let better = match best {
            None => true,
            Some((b, bs)) => {
                score < *bs - 1e-12
                    || ((score - *bs).abs() <= 1e-12
                        && (solution.longest_path.0 < b.longest_path.0 - 1e-12
                            || ((solution.longest_path.0 - b.longest_path.0).abs() <= 1e-12
                                && solution.l_max.0 < b.l_max.0)))
            }
        };
        if better {
            *best = Some((solution, score));
        }
    };
    // The paper descends the tree (h clustering runs); because the greedy
    // construction makes validity only approximately monotone in L_max,
    // this implementation evaluates every tree node (2^h − 1 equidistant
    // candidates) and keeps the best — exhaustive over the same candidate
    // set, immune to a single misleading branch decision.
    for k in 0..count {
        if let Some(solution) = cluster_under(graph, candidate(k), ctx, ev)? {
            consider(solution, &mut best);
        }
    }
    if best.is_none() {
        if let Some(solution) = cluster_under(graph, f64::INFINITY, ctx, ev)? {
            consider(solution, &mut best);
        }
    }
    best.map(|(c, _)| c).ok_or(ClusterError::EmptyCluster)
}

/// A proxy for the total laser power a clustering solution will need:
/// the channel congestion lower-bounds the wavelength count, and every
/// wavelength's laser power grows exponentially (in dB) with the longest
/// path it may carry. The `L_max` search uses this to rank valid
/// solutions: for low-density applications it coincides with minimizing
/// the longest path; for dense ones it prefers splitting traffic across
/// sub-rings over a marginally shorter but heavily congested ring.
fn power_proxy(solution: &Clustering, graph: &CommGraph) -> f64 {
    let congestion = solution.max_channel_congestion(graph).max(1) as f64;
    congestion * 10f64.powf(solution.longest_path.0 / 10.0)
}

/// Attempts clustering under a fixed `L_max`; `None` when the
/// inter-cluster sub-ring cannot satisfy the bound from any initial vertex.
/// [`cluster`] drives this over the binary-searched `L_max` candidates;
/// calling it directly is useful for ablation studies.
///
/// Two cluster-selection criteria are tried — preferring the largest grown
/// cluster (fewer inter-cluster nodes) and preferring the tightest one
/// (shortest longest path) — and the valid solution with the shorter
/// realized longest path wins.
#[must_use]
pub fn cluster_with_l_max(graph: &CommGraph, l_max: f64) -> Option<Clustering> {
    try_cluster_with_l_max(graph, l_max).ok().flatten()
}

/// [`cluster_with_l_max`] with internal invariant violations surfaced as
/// typed [`ClusterError`]s instead of being swallowed (or, historically,
/// panicking). `Ok(None)` still means "no valid clustering under this
/// bound".
///
/// # Errors
///
/// [`ClusterError::InvalidCycle`] when a sub-ring construction or
/// refinement step violates a cycle invariant.
pub fn try_cluster_with_l_max(
    graph: &CommGraph,
    l_max: f64,
) -> Result<Option<Clustering>, ClusterError> {
    try_cluster_with_l_max_ctx(graph, l_max, &ExecCtx::new())
}

/// [`try_cluster_with_l_max`] with an execution context whose memo tier
/// (if any) serves the pure construction units; see [`cluster_ctx`].
///
/// # Errors
///
/// Same contract as [`try_cluster_with_l_max`].
pub fn try_cluster_with_l_max_ctx(
    graph: &CommGraph,
    l_max: f64,
    ctx: &ExecCtx,
) -> Result<Option<Clustering>, ClusterError> {
    let mut ev = RingEval::new(graph);
    let result = cluster_under(graph, l_max, ctx, &mut ev);
    ctx.trace().incr("cluster/ring_evals", ev.evals);
    result
}

/// [`try_cluster_with_l_max_ctx`] on a caller-owned evaluator.
fn cluster_under(
    graph: &CommGraph,
    l_max: f64,
    ctx: &ExecCtx,
    ev: &mut RingEval,
) -> Result<Option<Clustering>, ClusterError> {
    let n = graph.node_count();
    // Candidate passes: two selection criteria × several cluster-size
    // caps. Uncapped growth minimizes the inter ring; capped growth keeps
    // clusters small enough that traffic spreads over several sub-rings,
    // which is what bounds wavelength usage on dense applications.
    let caps = [n, n.div_ceil(2), n.div_ceil(3), n.div_ceil(4)];
    let mut best: Option<(Clustering, (f64, f64))> = None;
    for criterion in [
        SelectionCriterion::LargestFirst,
        SelectionCriterion::TightestFirst,
    ] {
        // A cap at or above the largest cluster the uncapped pass grows
        // cannot change the outcome; track it to skip redundant passes.
        let mut binding_size = usize::MAX;
        for cap in caps {
            if cap < 2 || cap >= binding_size {
                continue;
            }
            if let Some(c) = cluster_pass(graph, l_max, criterion, cap, ctx, ev)? {
                let max_cluster = c
                    .clusters
                    .iter()
                    .map(|cl| cl.members.len())
                    .max()
                    .unwrap_or(0);
                if max_cluster < cap {
                    binding_size = binding_size.min(max_cluster.max(2));
                }
                let key = (power_proxy(&c, graph), c.longest_path.0);
                let better = match &best {
                    None => true,
                    Some((_, bk)) => {
                        key.0 < bk.0 - 1e-12
                            || ((key.0 - bk.0).abs() <= 1e-12 && key.1 < bk.1 - 1e-12)
                    }
                };
                if better {
                    best = Some((c, key));
                }
            }
        }
    }
    Ok(best.map(|(c, _)| c))
}

/// How the best grown cluster is chosen among the candidate initial
/// vertices of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SelectionCriterion {
    /// Prefer more members (ties: shorter longest path).
    LargestFirst,
    /// Prefer a shorter longest path (ties: more members).
    TightestFirst,
}

/// Appends `v` and its position — the identity *and* geometry a
/// construction unit sees for one node.
fn hash_node(graph: &CommGraph, v: NodeId, hasher: &mut ContentHasher) {
    hasher.write_usize(v.index());
    graph.position(v).content_hash(hasher);
}

/// Memo key for [`grow_intra`]: the growth is a pure function of the
/// initial vertex, the unclustered set (with positions), the messages
/// restricted to that set (its neighbor, affinity, and path evaluations
/// never look outside it), and the `(l_max, size_cap)` bounds.
fn grow_key(
    graph: &CommGraph,
    initial: NodeId,
    unclustered: &BTreeSet<NodeId>,
    l_max: f64,
    size_cap: usize,
) -> ContentKey {
    let mut hasher = ContentHasher::new();
    hasher.write_usize(initial.index());
    hasher.write_f64(l_max);
    hasher.write_usize(size_cap);
    hasher.write_usize(unclustered.len());
    for &v in unclustered {
        hash_node(graph, v, &mut hasher);
    }
    for m in graph.messages() {
        if unclustered.contains(&m.src) && unclustered.contains(&m.dst) {
            hasher.write_usize(m.src.index());
            hasher.write_usize(m.dst.index());
        }
    }
    hasher.finish()
}

/// Memo key for [`improve_cycle`]: the refinement depends on the cycle's
/// visiting order, the message list it scores (in order, with endpoint
/// positions), and the bound.
fn refine_key(
    graph: &CommGraph,
    cycle: &Cycle,
    messages: &[(NodeId, NodeId)],
    l_max: f64,
) -> ContentKey {
    let mut hasher = ContentHasher::new();
    hasher.write_f64(l_max);
    hasher.write_usize(cycle.len());
    for &v in cycle.nodes() {
        hash_node(graph, v, &mut hasher);
    }
    hasher.write_usize(messages.len());
    for &(s, d) in messages {
        hash_node(graph, s, &mut hasher);
        hash_node(graph, d, &mut hasher);
    }
    hasher.finish()
}

/// Memo key for [`grow_inter`]: the initial vertex, the full `v_inter`
/// list (with positions), the cross-cluster messages, and the bound.
fn inter_key(
    graph: &CommGraph,
    initial: NodeId,
    v_inter: &[NodeId],
    inter_messages: &[(NodeId, NodeId)],
    l_max: f64,
) -> ContentKey {
    let mut hasher = ContentHasher::new();
    hasher.write_usize(initial.index());
    hasher.write_f64(l_max);
    hasher.write_usize(v_inter.len());
    for &v in v_inter {
        hash_node(graph, v, &mut hasher);
    }
    hasher.write_usize(inter_messages.len());
    for &(s, d) in inter_messages {
        hash_node(graph, s, &mut hasher);
        hash_node(graph, d, &mut hasher);
    }
    hasher.finish()
}

fn cluster_pass(
    graph: &CommGraph,
    l_max: f64,
    criterion: SelectionCriterion,
    size_cap: usize,
    ctx: &ExecCtx,
    ev: &mut RingEval,
) -> Result<Option<Clustering>, ClusterError> {
    let n = graph.node_count();

    // Memo-served wrappers for the three pure construction units. A hit
    // returns exactly what the wrapped computation would, so the pass is
    // bit-identical with or without a memo tier on `ctx`. Each miss is
    // timed under its own span (`grow`, `refine`, `inter`); a deadline
    // error returns before the put, so it is never memoized.
    let grow_memo = |ev: &mut RingEval,
                     initial: NodeId,
                     unclustered: &BTreeSet<NodeId>|
     -> Result<Option<GrownCluster>, ClusterError> {
        let key = grow_key(graph, initial, unclustered, l_max, size_cap);
        if let Some(hit) = ctx.memo_get::<Option<GrownCluster>>("cluster_grow", key) {
            return Ok((*hit).clone());
        }
        let grown = {
            let _span = ctx.trace().span("grow");
            grow_intra(graph, ev, initial, unclustered, l_max, size_cap)?
        };
        ctx.memo_put("cluster_grow", key, grown.clone());
        Ok(grown)
    };
    let refine_memo = |ev: &mut RingEval,
                       cycle: &Cycle,
                       messages: &[(NodeId, NodeId)]|
     -> Result<(Cycle, f64), ClusterError> {
        let key = refine_key(graph, cycle, messages, l_max);
        if let Some(hit) = ctx.memo_get::<(Cycle, f64)>("cluster_refine", key) {
            return Ok((*hit).clone());
        }
        let refined = {
            let _span = ctx.trace().span("refine");
            improve_cycle(ev, cycle, messages, l_max, ctx)?
        };
        ctx.memo_put("cluster_refine", key, refined.clone());
        Ok(refined)
    };
    let inter_memo = |ev: &mut RingEval,
                      initial: NodeId,
                      v_inter: &[NodeId],
                      inter_messages: &[(NodeId, NodeId)],
                      bound: f64|
     -> Result<Option<(Cycle, f64)>, ClusterError> {
        let key = inter_key(graph, initial, v_inter, inter_messages, bound);
        if let Some(hit) = ctx.memo_get::<Option<(Cycle, f64)>>("cluster_inter", key) {
            return Ok((*hit).clone());
        }
        let grown = {
            let _span = ctx.trace().span("inter");
            grow_inter(ev, initial, v_inter, inter_messages, bound)?
        };
        ctx.memo_put("cluster_inter", key, grown.clone());
        Ok(grown)
    };

    // --- Intra-cluster construction. ---
    let mut unclustered: BTreeSet<NodeId> = graph.node_ids().collect();
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut cluster_of = vec![usize::MAX; n];
    let mut longest_overall = 0.0f64;

    // Growth results are cached across rounds: a grown cluster changes
    // only if one of its absorbed members has since been claimed by
    // another cluster (a maximal greedy absorbs every valid candidate, so
    // removing never-absorbed nodes cannot alter its decisions).
    let mut cache: std::collections::BTreeMap<NodeId, Option<GrownCluster>> =
        std::collections::BTreeMap::new();
    while !unclustered.is_empty() {
        // Grow a cluster from every possible initial vertex. Under the
        // L_max cap every grown cluster keeps its signal paths short, so
        // the selection prefers the *largest* cluster (more intra-cluster
        // traffic means a smaller inter ring) and breaks ties toward the
        // shortest longest signal path. The minimization of path lengths
        // happens through the binary search over L_max itself.
        let mut best: Option<(f64, usize, GrownCluster)> = None;
        for &initial in &unclustered {
            // One growth per initial vertex: the cancellation point of a
            // budgeted run.
            ctx.check_deadline()?;
            let entry = match cache.entry(initial) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(grow_memo(ev, initial, &unclustered)?)
                }
            };
            if let Some(grown) = entry.clone() {
                let key = (grown.longest, grown.members.len());
                let better = match &best {
                    None => true,
                    Some((bl, bm, _)) => match criterion {
                        SelectionCriterion::LargestFirst => {
                            key.1 > *bm || (key.1 == *bm && key.0 < *bl - 1e-12)
                        }
                        SelectionCriterion::TightestFirst => {
                            key.0 < *bl - 1e-12 || ((key.0 - *bl).abs() <= 1e-12 && key.1 > *bm)
                        }
                    },
                };
                if better {
                    best = Some((key.0, key.1, grown));
                }
            }
        }
        match best {
            Some((longest, _, grown)) => {
                // Refine only the winning cluster's ring order (the greedy
                // grows rings for every candidate initial vertex; refining
                // them all would be wasted work).
                let (ring, longest) = match grown.ring {
                    Some(ring) => {
                        let member_set: BTreeSet<NodeId> = grown.members.iter().copied().collect();
                        let msgs: Vec<(NodeId, NodeId)> = graph
                            .messages()
                            .iter()
                            .filter(|m| member_set.contains(&m.src) && member_set.contains(&m.dst))
                            .map(|m| (m.src, m.dst))
                            .collect();
                        let (refined, refined_longest) = refine_memo(ev, &ring, &msgs)?;
                        (Some(refined), refined_longest)
                    }
                    None => (None, longest),
                };
                longest_overall = longest_overall.max(longest);
                let idx = clusters.len();
                for &m in &grown.members {
                    unclustered.remove(&m);
                    cluster_of[m.index()] = idx;
                }
                let claimed: BTreeSet<NodeId> = grown.members.iter().copied().collect();
                cache.retain(|initial, cached| {
                    !claimed.contains(initial)
                        && cached
                            .as_ref()
                            .is_none_or(|g| !g.members.iter().any(|m| claimed.contains(m)))
                });
                clusters.push(Cluster {
                    members: grown.members,
                    ring,
                });
            }
            None => {
                // No unclustered vertex can pair up: the rest become
                // singleton clusters (inter-cluster traffic only).
                for &v in &unclustered {
                    cluster_of[v.index()] = clusters.len();
                    clusters.push(Cluster {
                        members: vec![v],
                        ring: None,
                    });
                }
                unclustered.clear();
            }
        }
    }

    // --- Inter-cluster construction. ---
    let v_inter: Vec<NodeId> = graph
        .node_ids()
        .filter(|&v| {
            graph
                .neighbors(v)
                .iter()
                .any(|&w| cluster_of[v.index()] != cluster_of[w.index()])
        })
        .collect();
    let inter_messages: Vec<(NodeId, NodeId)> = graph
        .messages()
        .iter()
        .filter(|m| cluster_of[m.src.index()] != cluster_of[m.dst.index()])
        .map(|m| (m.src, m.dst))
        .collect();

    let inter_ring = if v_inter.is_empty() {
        None
    } else {
        debug_assert!(
            v_inter.len() >= 2,
            "cross-cluster messages have two endpoints"
        );
        // Bounded growth first (the paper's construction), from every
        // initial vertex; the best raw ring is refined once at the end.
        let mut best: Option<(f64, Cycle)> = None;
        for &initial in &v_inter {
            ctx.check_deadline()?;
            if let Some((cycle, longest)) =
                inter_memo(ev, initial, &v_inter, &inter_messages, l_max)?
            {
                let better = match &best {
                    None => true,
                    Some((bl, _)) => longest < *bl - 1e-12,
                };
                if better {
                    best = Some((longest, cycle));
                }
            }
        }
        // Fallback: when no bounded growth succeeds, grow unrestricted
        // from every initial vertex and refine the few best raw rings —
        // refinement can pull them under the bound.
        if best.is_none() {
            let mut raw: Vec<(f64, Cycle)> = Vec::with_capacity(v_inter.len());
            for &initial in &v_inter {
                ctx.check_deadline()?;
                if let Some((c, l)) =
                    inter_memo(ev, initial, &v_inter, &inter_messages, f64::INFINITY)?
                {
                    raw.push((l, c));
                }
            }
            raw.sort_by(|a, b| a.0.total_cmp(&b.0));
            for (_, cycle) in raw.into_iter().take(3) {
                let (refined, longest) = refine_memo(ev, &cycle, &inter_messages)?;
                if longest <= l_max + 1e-12 {
                    let better = match &best {
                        None => true,
                        Some((bl, _)) => longest < *bl - 1e-12,
                    };
                    if better {
                        best = Some((longest, refined));
                    }
                }
            }
        }
        // No initial vertex at all → the whole clustering solution is
        // invalid (paper Sec. III-A-2).
        let Some((_, cycle)) = best else {
            return Ok(None);
        };
        let (cycle, longest) = refine_memo(ev, &cycle, &inter_messages)?;
        if longest > l_max + 1e-12 {
            return Ok(None);
        }
        longest_overall = longest_overall.max(longest);
        Some(cycle)
    };

    Ok(Some(Clustering {
        clusters,
        inter_ring,
        l_max: Millimeters(l_max),
        longest_path: Millimeters(longest_overall),
        cluster_of,
    }))
}

/// Marks a node that is not on the order loaded into a [`RingEval`].
const ABSENT: usize = usize::MAX;

/// The path-length evaluator behind every sub-ring construction unit.
///
/// It holds a dense table of the graph's Manhattan distances, built once
/// per clustering run, and scratch buffers for one *loaded* visiting
/// order: the position of each node and the length of each segment. A
/// forward path adds the stored segment lengths from the source's
/// position onward, a reverse path from the segment before it backward.
/// Either way the additions run in travel order, exactly as
/// [`Cycle::path_length`] makes them on the cycle and on its
/// [`Cycle::reversed`] twin, so every length is bit-identical to theirs.
/// The reverse walk reads the forward segment lengths, which is exact
/// because the Manhattan distance is bitwise symmetric. Once the buffers
/// have grown, loading and scoring an order allocate nothing.
struct RingEval {
    /// Node count of the graph; the distance table is `n × n`.
    n: usize,
    /// `dist[a * n + b]` = Manhattan distance from `a` to `b`.
    dist: Vec<f64>,
    /// Position of each node in the loaded order, or [`ABSENT`].
    pos: Vec<usize>,
    /// The loaded order (kept to reset `pos` on the next load).
    order: Vec<NodeId>,
    /// `seg[i]` = length of segment `i` of the loaded order.
    seg: Vec<f64>,
    /// Congestion difference array over the loaded order's segments.
    diff: Vec<isize>,
    /// Orders evaluated so far (the `cluster/ring_evals` counter).
    evals: u64,
}

impl RingEval {
    fn new(graph: &CommGraph) -> Self {
        let n = graph.node_count();
        let mut dist = Vec::with_capacity(n * n);
        for a in graph.node_ids() {
            dist.extend(graph.node_ids().map(|b| graph.manhattan(a, b).0));
        }
        RingEval {
            n,
            dist,
            pos: vec![ABSENT; n],
            order: Vec::new(),
            seg: Vec::new(),
            diff: Vec::new(),
            evals: 0,
        }
    }

    /// Manhattan distance between two nodes of the graph.
    fn d(&self, a: NodeId, b: NodeId) -> f64 {
        self.dist[a.index() * self.n + b.index()]
    }

    /// Makes `order` (at least two distinct nodes) the ring under
    /// evaluation.
    fn load(&mut self, order: &[NodeId]) {
        for &v in &self.order {
            self.pos[v.index()] = ABSENT;
        }
        self.order.clear();
        self.order.extend_from_slice(order);
        self.seg.clear();
        for (k, &v) in order.iter().enumerate() {
            self.pos[v.index()] = k;
            let next = order[(k + 1) % order.len()];
            self.seg.push(self.d(v, next));
        }
        self.evals += 1;
    }

    /// Positions of a message's endpoints on the loaded order; `None`
    /// when either is off the ring.
    fn ends(&self, s: NodeId, d: NodeId) -> Option<(usize, usize)> {
        let (i, j) = (self.pos[s.index()], self.pos[d.index()]);
        (i != ABSENT && j != ABSENT).then_some((i, j))
    }

    /// Forward path length from position `i` to position `j != i`.
    fn forward(&self, i: usize, j: usize) -> f64 {
        if i < j {
            self.seg[i..j].iter().sum()
        } else {
            self.seg[i..].iter().chain(&self.seg[..j]).sum()
        }
    }

    /// Reverse path length from position `i` to position `j != i`.
    fn backward(&self, i: usize, j: usize) -> f64 {
        if j < i {
            self.seg[j..i].iter().rev().sum()
        } else {
            self.seg[..i]
                .iter()
                .rev()
                .chain(self.seg[j..].iter().rev())
                .sum()
        }
    }

    /// The better transmission direction of the loaded order for
    /// `messages` (messages off the ring are skipped): whether it is the
    /// reverse one (only when shorter by more than 1e-12), and its
    /// longest path. A message from a node to itself counts as ∞.
    fn orientation(&self, messages: &[(NodeId, NodeId)]) -> (bool, f64) {
        let (mut fwd, mut rev) = (0.0f64, 0.0f64);
        for &(s, d) in messages {
            let Some((i, j)) = self.ends(s, d) else {
                continue;
            };
            let (f, r) = if i == j {
                (f64::INFINITY, f64::INFINITY)
            } else {
                (self.forward(i, j), self.backward(i, j))
            };
            fwd = fwd.max(f);
            rev = rev.max(r);
        }
        if rev < fwd - 1e-12 {
            (true, rev)
        } else {
            (false, fwd)
        }
    }

    /// The refinement score of the loaded order in its better direction:
    /// `(congestion × 10^(longest/10), longest, total)`, with `total` the
    /// summed path length of the on-ring messages and `congestion` the
    /// most of them sharing one segment. `None` when a message runs from
    /// an on-ring node to itself.
    fn score(&mut self, messages: &[(NodeId, NodeId)]) -> Option<(f64, f64, f64)> {
        let len = self.seg.len();
        self.diff.clear();
        self.diff.resize(len, 0);
        let (mut fwd, mut rev) = (0.0f64, 0.0f64);
        let (mut total_fwd, mut total_rev) = (0.0f64, 0.0f64);
        let mut on_ring = 0isize;
        for &(s, d) in messages {
            let Some((i, j)) = self.ends(s, d) else {
                continue;
            };
            if i == j {
                return None;
            }
            let (f, r) = (self.forward(i, j), self.backward(i, j));
            fwd = fwd.max(f);
            rev = rev.max(r);
            total_fwd += f;
            total_rev += r;
            on_ring += 1;
            // The forward path covers segments i..j (cyclically).
            self.diff[i] += 1;
            self.diff[j] -= 1;
            if j < i {
                self.diff[0] += 1;
            }
        }
        let reversed = rev < fwd - 1e-12;
        let (longest, total) = if reversed {
            (rev, total_rev)
        } else {
            (fwd, total_fwd)
        };
        // The reverse path of a message covers exactly the segments its
        // forward path leaves out, so reverse loads are `on_ring` minus
        // forward loads.
        let (mut low, mut high, mut load) = (isize::MAX, 0isize, 0isize);
        for &step in &self.diff {
            load += step;
            low = low.min(load);
            high = high.max(load);
        }
        let congestion = if reversed { on_ring - low } else { high };
        let proxy = congestion.max(1) as f64 * 10f64.powf(longest / 10.0);
        Some((proxy, longest, total))
    }
}

/// The insertion positions worth evaluating when absorbing `x` into the
/// ring `order`: the `k` segments with the smallest rectilinear detour
/// `d(a, x) + d(x, b) − d(a, b)`, ranked by detour and then index, left in
/// `out` as `(detour, segment)`. Inserting into a distant segment can only
/// lengthen paths, so the greedy restricts its evaluation to the
/// geometrically sensible positions.
fn candidate_segments(
    order: &[NodeId],
    x: NodeId,
    dist: &impl Fn(NodeId, NodeId) -> f64,
    k: usize,
    out: &mut Vec<(f64, usize)>,
) {
    let len = order.len();
    out.clear();
    out.extend((0..len).map(|i| {
        let (a, b) = (order[i], order[(i + 1) % len]);
        (dist(a, x) + dist(x, b) - dist(a, b), i)
    }));
    out.sort_unstable_by(|p, q| p.0.total_cmp(&q.0).then(p.1.cmp(&q.1)));
    out.truncate(k.max(1));
}

#[derive(Clone)]
struct GrownCluster {
    members: Vec<NodeId>,
    ring: Option<Cycle>,
    longest: f64,
}

/// Local-search refinement of a sub-ring's visiting order: single-node
/// relocations and 2-opt reversals are accepted while they reduce the
/// `(longest signal path, total signal path length)` score, with the
/// transmission direction re-optimized per trial. Greedy absorption fixes
/// the member set; this pass only improves the order — a refinement on top
/// of the paper's construction that never worsens the solution.
fn improve_cycle(
    ev: &mut RingEval,
    cycle: &Cycle,
    messages: &[(NodeId, NodeId)],
    l_max: f64,
    ctx: &ExecCtx,
) -> Result<(Cycle, f64), ClusterError> {
    // Score: the same laser-power proxy the L_max search uses —
    // congestion × 10^(longest/10) — then longest, then total path
    // length. Moves may trade a slightly longer worst path (still within
    // L_max) for materially lower congestion.
    let better = |a: (f64, f64, f64), b: (f64, f64, f64)| {
        // A move must keep the L_max bound (or strictly shrink an already
        // violating longest path, for the unrestricted fallback).
        if a.1 > l_max + 1e-12 && a.1 >= b.1 - 1e-12 {
            return false;
        }
        a.0 < b.0 - 1e-12
            || ((a.0 - b.0).abs() <= 1e-12
                && (a.1 < b.1 - 1e-12 || ((a.1 - b.1).abs() <= 1e-12 && a.2 < b.2 - 1e-12)))
    };

    let mut order = cycle.nodes().to_vec();
    let n = order.len();
    ev.load(&order);
    let mut current = ev.score(messages).ok_or(ClusterError::InvalidCycle(
        "refinement input cycle is not scorable",
    ))?;
    let mut trial = Vec::with_capacity(n);
    let mut accept = |trial: &mut Vec<NodeId>, order: &mut Vec<NodeId>, current: &mut _| {
        ev.load(trial);
        match ev.score(messages) {
            Some(s) if better(s, *current) => {
                std::mem::swap(order, trial);
                *current = s;
                true
            }
            _ => false,
        }
    };
    if n >= 4 {
        let mut improved = true;
        while improved {
            ctx.check_deadline()?;
            improved = false;
            for i in 0..n {
                for j in 0..n {
                    if j == i {
                        continue;
                    }
                    let node = order[i];
                    trial.clear();
                    trial.extend_from_slice(&order);
                    trial.remove(i);
                    trial.insert(if j > i { j - 1 } else { j }, node);
                    improved |= accept(&mut trial, &mut order, &mut current);
                }
            }
            for i in 0..n - 1 {
                for j in i + 1..n {
                    trial.clear();
                    trial.extend_from_slice(&order);
                    trial[i..=j].reverse();
                    improved |= accept(&mut trial, &mut order, &mut current);
                }
            }
        }
    }
    ev.load(&order);
    let (reversed, longest) = ev.orientation(messages);
    if reversed {
        order.reverse();
    }
    let refined = Cycle::new(order)
        .map_err(|_| ClusterError::InvalidCycle("refined order is not a permutation"))?;
    Ok((refined, longest))
}

/// Grows one intra-cluster sub-ring from `initial` (paper Sec. III-A-1).
/// Returns `None` only when `initial` cannot even form the two-node initial
/// cluster within `l_max`; a vertex with no unclustered communication
/// partner yields a singleton.
fn grow_intra(
    graph: &CommGraph,
    ev: &mut RingEval,
    initial: NodeId,
    unclustered: &BTreeSet<NodeId>,
    l_max: f64,
    size_cap: usize,
) -> Result<Option<GrownCluster>, ClusterError> {
    // Initial cluster: the nearest unclustered communication partner.
    let nearest = graph
        .neighbors(initial)
        .iter()
        .copied()
        .filter(|w| unclustered.contains(w))
        .min_by(|&a, &b| {
            ev.d(initial, a)
                .total_cmp(&ev.d(initial, b))
                .then(a.cmp(&b))
        });
    let Some(first) = nearest else {
        return Ok(Some(GrownCluster {
            members: vec![initial],
            ring: None,
            longest: 0.0,
        }));
    };
    if ev.d(initial, first) > l_max {
        return Ok(None);
    }

    let n = graph.node_count();
    let mut members = vec![initial, first];
    let mut in_cluster = vec![false; n];
    in_cluster[initial.index()] = true;
    in_cluster[first.index()] = true;
    // The intra-cluster messages of `in_cluster`, in graph order.
    let intra_messages = |in_cluster: &[bool], out: &mut Vec<(NodeId, NodeId)>| {
        out.clear();
        out.extend(
            graph
                .messages()
                .iter()
                .filter(|m| in_cluster[m.src.index()] && in_cluster[m.dst.index()])
                .map(|m| (m.src, m.dst)),
        );
    };
    let mut msgs = Vec::new();
    intra_messages(&in_cluster, &mut msgs);
    // The ring stays un-oriented until the first absorption.
    let mut ring = members.clone();
    ev.load(&ring);
    let mut longest = ev.orientation(&msgs).1;

    let mut is_candidate = vec![false; n];
    let (mut segs, mut trial) = (Vec::new(), Vec::new());
    // onoc-lint: allow(L9, reason = "bounded: every round absorbs one node or breaks on an empty candidate set, capped at size_cap")
    while members.len() < size_cap {
        // Candidates: unvisited communication partners of any member.
        is_candidate.fill(false);
        for &m in &members {
            for &w in graph.neighbors(m) {
                if unclustered.contains(&w) && !in_cluster[w.index()] {
                    is_candidate[w.index()] = true;
                }
            }
        }
        // Absorb the valid candidate whose best insertion point yields the
        // smallest longest signal path; ties go to the candidate with the
        // most messages into the cluster (communication affinity), which
        // keeps subsystems together. Only the winner's ring is built.
        let mut best: Option<(f64, usize, NodeId, usize, bool)> = None;
        for x in graph.node_ids().filter(|x| is_candidate[x.index()]) {
            let aff = graph
                .messages()
                .iter()
                .filter(|m| {
                    (m.src == x && in_cluster[m.dst.index()])
                        || (m.dst == x && in_cluster[m.src.index()])
                })
                .count();
            in_cluster[x.index()] = true;
            intra_messages(&in_cluster, &mut msgs);
            in_cluster[x.index()] = false;
            candidate_segments(&ring, x, &|a, b| ev.d(a, b), 8, &mut segs);
            for &(_, seg) in &segs {
                trial.clear();
                trial.extend_from_slice(&ring);
                trial.insert(seg + 1, x);
                ev.load(&trial);
                let (reversed, l) = ev.orientation(&msgs);
                if l <= l_max + 1e-12 {
                    let better = match &best {
                        None => true,
                        Some((bl, ba, bx, _, _)) => {
                            l < *bl - 1e-12
                                || ((l - *bl).abs() <= 1e-12
                                    && (aff > *ba || (aff == *ba && x < *bx)))
                        }
                    };
                    if better {
                        best = Some((l, aff, x, seg, reversed));
                    }
                }
            }
        }
        let Some((l, _, x, seg, reversed)) = best else {
            break;
        };
        members.push(x);
        in_cluster[x.index()] = true;
        ring.insert(seg + 1, x);
        if reversed {
            ring.reverse();
        }
        longest = l;
    }

    let ring =
        Cycle::new(ring).map_err(|_| ClusterError::InvalidCycle("grown ring repeats a node"))?;
    Ok(Some(GrownCluster {
        members,
        ring: Some(ring),
        longest,
    }))
}

/// Grows the inter-cluster sub-ring from `initial`: it must absorb *all*
/// of `v_inter` while keeping every cross-cluster signal path within
/// `l_max` (paper Sec. III-A-2).
fn grow_inter(
    ev: &mut RingEval,
    initial: NodeId,
    v_inter: &[NodeId],
    inter_messages: &[(NodeId, NodeId)],
    l_max: f64,
) -> Result<Option<(Cycle, f64)>, ClusterError> {
    let Some(nearest) = v_inter
        .iter()
        .copied()
        .filter(|&v| v != initial)
        .min_by(|&a, &b| {
            ev.d(initial, a)
                .total_cmp(&ev.d(initial, b))
                .then(a.cmp(&b))
        })
    else {
        return Ok(None);
    };
    let mut ring = vec![initial, nearest];
    let mut remaining: BTreeSet<NodeId> = v_inter
        .iter()
        .copied()
        .filter(|&v| v != initial && v != nearest)
        .collect();
    ev.load(&ring);
    let mut longest = ev.orientation(inter_messages).1;
    if longest > l_max + 1e-12 {
        return Ok(None);
    }

    let (mut segs, mut trial) = (Vec::new(), Vec::new());
    // onoc-lint: allow(L9, reason = "bounded: every round inserts one remaining node onto the ring or returns infeasible")
    while !remaining.is_empty() {
        let mut best: Option<(f64, NodeId, usize, bool)> = None;
        for &x in &remaining {
            candidate_segments(&ring, x, &|a, b| ev.d(a, b), 8, &mut segs);
            for &(_, seg) in &segs {
                trial.clear();
                trial.extend_from_slice(&ring);
                trial.insert(seg + 1, x);
                ev.load(&trial);
                let (reversed, l) = ev.orientation(inter_messages);
                if l <= l_max + 1e-12 {
                    let better = match &best {
                        None => true,
                        Some((bl, bx, _, _)) => {
                            l < *bl - 1e-12 || ((l - *bl).abs() <= 1e-12 && x < *bx)
                        }
                    };
                    if better {
                        best = Some((l, x, seg, reversed));
                    }
                }
            }
        }
        let Some((l, x, seg, reversed)) = best else {
            return Ok(None);
        };
        remaining.remove(&x);
        ring.insert(seg + 1, x);
        if reversed {
            ring.reverse();
        }
        longest = l;
    }
    if longest > l_max + 1e-12 {
        return Ok(None);
    }
    let ring =
        Cycle::new(ring).map_err(|_| ClusterError::InvalidCycle("grown ring repeats a node"))?;
    Ok(Some((ring, longest)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_graph::benchmarks;
    use std::sync::OnceLock;

    fn config() -> ClusteringConfig {
        ClusteringConfig::default()
    }

    /// One clustering run per benchmark, shared across the tests below.
    fn clustered() -> &'static Vec<(benchmarks::Benchmark, Clustering)> {
        static CACHE: OnceLock<Vec<(benchmarks::Benchmark, Clustering)>> = OnceLock::new();
        CACHE.get_or_init(|| {
            benchmarks::Benchmark::ALL
                .into_iter()
                .map(|b| (b, cluster(&b.graph(), &config()).expect("clusters")))
                .collect()
        })
    }

    /// The path evaluation the clustering units ran before [`RingEval`],
    /// kept as the oracle it must match bit for bit: a cycle's longest
    /// directed path in its better direction, with that orientation.
    fn best_orientation(
        cycle: &Cycle,
        messages: &[(NodeId, NodeId)],
        dist: &impl Fn(NodeId, NodeId) -> f64,
    ) -> (Cycle, f64) {
        let fwd = longest_on(cycle, messages, dist);
        let rev_cycle = cycle.reversed();
        let rev = longest_on(&rev_cycle, messages, dist);
        if rev < fwd - 1e-12 {
            (rev_cycle, rev)
        } else {
            (cycle.clone(), fwd)
        }
    }

    fn longest_on(
        cycle: &Cycle,
        messages: &[(NodeId, NodeId)],
        dist: &impl Fn(NodeId, NodeId) -> f64,
    ) -> f64 {
        messages
            .iter()
            .filter(|(s, d)| cycle.contains(*s) && cycle.contains(*d))
            .map(|(s, d)| cycle.path_length(*s, *d, dist).unwrap_or(f64::INFINITY))
            .fold(0.0, f64::max)
    }

    /// The refinement score as `improve_cycle` computed it on `Cycle`s.
    fn oracle_score(
        order: &[NodeId],
        messages: &[(NodeId, NodeId)],
        dist: &impl Fn(NodeId, NodeId) -> f64,
    ) -> Option<(f64, f64, f64)> {
        let c = Cycle::new(order.to_vec()).ok()?;
        let (oriented, longest) = best_orientation(&c, messages, dist);
        let mut total = 0.0f64;
        let mut load = vec![0usize; oriented.len()];
        let mut congestion = 0usize;
        for (s, d) in messages {
            if !(oriented.contains(*s) && oriented.contains(*d)) {
                continue;
            }
            total += oriented.path_length(*s, *d, dist)?;
            for seg in oriented.path_segments(*s, *d)?.iter() {
                load[seg] += 1;
                congestion = congestion.max(load[seg]);
            }
        }
        let proxy = congestion.max(1) as f64 * 10f64.powf(longest / 10.0);
        Some((proxy, longest, total))
    }

    /// Every bit of a clustering the later stages consume: `L_max`, the
    /// realized longest path, each cluster's members and ring order, and
    /// the inter ring's order.
    fn fingerprint(c: &Clustering) -> String {
        let ids = |v: &[NodeId]| {
            v.iter()
                .map(|n| n.index().to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut s = format!(
            "l_max={:016x} longest={:016x}",
            c.l_max.0.to_bits(),
            c.longest_path.0.to_bits()
        );
        for cl in &c.clusters {
            s += &format!(" [{}", ids(&cl.members));
            if let Some(r) = &cl.ring {
                s += &format!(" ring {}", ids(r.nodes()));
            }
            s += "]";
        }
        if let Some(r) = &c.inter_ring {
            s += &format!(" inter {}", ids(r.nodes()));
        }
        s
    }

    #[test]
    fn benchmark_clusterings_are_pinned() {
        let pinned = [
            "l_max=3fe8f5c28f5c28f6 longest=3fe8f5c28f5c28f6 \
             [0,1,2,7,3,5,4,9,8,6 ring 1,2,7,3,5,4,9,8,6,0] [10,11 ring 10,11] inter 10,7,9,11,6",
            "l_max=4006e147ae147ae1 longest=4006e147ae147ae2 \
             [0,1,2,3,5,6,7,8,9,13,15,14,12,4 ring 1,2,3,5,6,7,8,9,13,4,15,14,12,0] \
             [10,11 ring 10,11] inter 0,10,14,11,9,6",
            "l_max=3ff9d9f7390d2a6b longest=3ff8f5c28f5c28f6 \
             [0,1,4,2,5,3,7 ring 1,2,3,7,5,4,0] [6] [8] [9] [10] [11] inter 4,8,9,10,11,5",
            "l_max=4012924924924923 longest=4011ae147ae147ae \
             [7,23,6,4,2,0,8,1,15,22,3,16,25 ring 7,22,8,25,15,16,0,1,2,3,4,6,23] \
             [18,19,20,21,24,11,9,10,13,14,12 ring 13,14,24,18,9,10,19,20,21,12,11] [5] [17] \
             inter 5,6,16,17,18,9,21,23,25,15,8,22,4",
            "l_max=3fe98de5ab277f45 longest=3fe8f5c28f5c28f6 \
             [0,1,5,4 ring 0,4,5,1] [2,3,7,6 ring 2,6,7,3] inter 1,5,6,2",
            "l_max=3ffd1eb851eb851f longest=3ffd1eb851eb851f \
             [0,1,5,4 ring 0,4,5,1] [2,3,7,6 ring 2,6,7,3] inter 0,4,5,7,6,2,3,1",
            "l_max=3ffd1eb851eb851f longest=3ffd1eb851eb851f \
             [3,2,6,7 ring 3,7,6,2] [0,1,4,5 ring 0,4,5,1] inter 3,7,6,5,4,0,1,2",
        ];
        assert_eq!(clustered().len(), pinned.len());
        for ((b, c), want) in clustered().iter().zip(pinned) {
            assert_eq!(fingerprint(c), want, "{b}");
        }
    }

    #[test]
    fn random_scale_clusterings_are_pinned() {
        // The two fixed random graphs of the cluster-scale workload.
        let pinned = [
            (
                270_323_651_342_412u64,
                "l_max=4009d9f7390d2a6b longest=4004cccccccccccd \
                 [1,9,14,6,2,7,4,3,5,15,11 ring 9,15,14,6,11,2,4,7,3,1,5] \
                 [0,8,10,12,13 ring 0,12,13,10,8] inter 0,12,15,11,6,1,2,10,13,5,8,4,9,14",
            ),
            (
                90_997_721_425_380,
                "l_max=400e02ecfb9c8694 longest=4008f5c28f5c28f6 \
                 [1,2,6,14,7,5,13,8,12,4,10,0,3 ring 1,10,12,13,5,8,0,4,14,6,7,2,3] \
                 [11,15 ring 11,15] [9] inter 4,12,13,14,7,15,9,11,3,2,6",
            ),
        ];
        for (seed, want) in pinned {
            let g = onoc_graph::synth::random_app(16, 40, seed, benchmarks::DEFAULT_PITCH);
            assert_eq!(
                fingerprint(&cluster(&g, &config()).unwrap()),
                want,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn memo_misses_are_traced_and_evaluations_counted() {
        let trace = onoc_trace::Trace::new();
        let ctx = ExecCtx::cached().with_trace(trace.clone());
        let g = benchmarks::mwd();
        assert_eq!(cluster_ctx(&g, &config(), &ctx), cluster(&g, &config()));
        let report = trace.report();
        for (phase, unit) in [
            ("grow", "cluster_grow"),
            ("refine", "cluster_refine"),
            ("inter", "cluster_inter"),
        ] {
            let misses = report.counter(&format!("memo/{unit}/misses"));
            assert!(misses.is_some_and(|m| m > 0), "{unit} never missed");
            assert_eq!(
                report.phase(phase).map(|p| p.calls),
                misses,
                "one {phase} span per {unit} miss"
            );
        }
        assert!(report.counter("cluster/ring_evals").is_some_and(|n| n > 0));
    }

    #[test]
    fn candidate_segments_ranks_nan_detours_last_and_deterministically() {
        // Regression for the onoc-lint L2 bug class: the detour sort uses
        // `total_cmp`, so a NaN distance (e.g. a poisoned coordinate)
        // ranks after every finite detour instead of comparing Equal to
        // everything and shuffling the candidate order.
        let ring = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let dist = |a: NodeId, b: NodeId| {
            if a == NodeId(3) || b == NodeId(3) {
                f64::NAN
            } else {
                (a.index() as f64 - b.index() as f64).abs()
            }
        };
        let (mut first, mut again) = (Vec::new(), Vec::new());
        candidate_segments(&ring, NodeId(9), &dist, 2, &mut first);
        candidate_segments(&ring, NodeId(9), &dist, 2, &mut again);
        assert_eq!(first.len(), 2);
        for (&(p, i), &(q, j)) in first.iter().zip(&again) {
            assert_eq!((p.to_bits(), i), (q.to_bits(), j));
            let (a, b) = (ring[i], ring[(i + 1) % ring.len()]);
            assert!(
                a != NodeId(3) && b != NodeId(3),
                "NaN detours must never outrank finite ones"
            );
        }
    }

    #[test]
    fn empty_application_rejected() {
        let g = CommGraph::builder()
            .node("a", onoc_graph::Point::new(0.0, 0.0))
            .build()
            .unwrap();
        assert_eq!(cluster(&g, &config()), Err(ClusterError::NoMessages));
    }

    #[test]
    fn two_node_application() {
        let g = CommGraph::builder()
            .node("a", onoc_graph::Point::new(0.0, 0.0))
            .node("b", onoc_graph::Point::new(1.0, 0.0))
            .message(NodeId(0), NodeId(1))
            .build()
            .unwrap();
        let c = cluster(&g, &config()).unwrap();
        assert_eq!(c.clusters.len(), 1);
        assert!(c.inter_ring.is_none());
        assert_eq!(c.longest_path, Millimeters(1.0));
        assert!(c.same_cluster(NodeId(0), NodeId(1)));
        assert_eq!(c.sub_ring_count(), 1);
    }

    #[test]
    fn every_node_is_clustered_exactly_once() {
        for (b, c) in clustered() {
            let g = b.graph();
            let mut seen = BTreeSet::new();
            for cl in &c.clusters {
                for &m in &cl.members {
                    assert!(seen.insert(m), "{b}: node {m} in two clusters");
                }
            }
            assert_eq!(seen.len(), g.node_count(), "{b}: all nodes clustered");
            for v in g.node_ids() {
                assert!(c.cluster_of[v.index()] < c.clusters.len());
            }
        }
    }

    #[test]
    fn cluster_rings_contain_exactly_their_members() {
        for (_b, c) in clustered() {
            for cl in &c.clusters {
                match &cl.ring {
                    Some(ring) => {
                        assert_eq!(ring.len(), cl.members.len());
                        for &m in &cl.members {
                            assert!(ring.contains(m));
                        }
                    }
                    None => assert_eq!(cl.members.len(), 1),
                }
            }
        }
    }

    #[test]
    fn inter_ring_covers_all_cross_cluster_nodes() {
        for (b, c) in clustered() {
            let g = b.graph();
            let crossing: BTreeSet<NodeId> = g
                .messages()
                .iter()
                .filter(|m| !c.same_cluster(m.src, m.dst))
                .flat_map(|m| [m.src, m.dst])
                .collect();
            match &c.inter_ring {
                Some(ring) => {
                    for v in crossing {
                        assert!(ring.contains(v), "{b}: inter ring misses {v}");
                    }
                }
                None => assert!(crossing.is_empty(), "{b}: crossing messages need a ring"),
            }
        }
    }

    #[test]
    fn longest_path_within_l_max() {
        for (b, c) in clustered() {
            assert!(
                c.longest_path.0 <= c.l_max.0 + 1e-9,
                "{b}: longest {} exceeds L_max {}",
                c.longest_path,
                c.l_max
            );
        }
    }

    #[test]
    fn l_max_bounds_are_respected() {
        for (b, c) in clustered() {
            let g = b.graph();
            let d1 = g.max_communicating_distance();
            let d2 = conventional_upper_bound(&g);
            assert!(d1.0 <= d2.0 + 1e-9, "{b}: d1 ≤ d2");
            assert!(c.l_max.0 >= d1.0 - 1e-9, "{b}: L_max ≥ d1");
        }
    }

    #[test]
    fn sub_rings_shorten_the_worst_path() {
        // The headline effect: for MWD, clustering beats the conventional
        // ring on the worst signal path (paper: 0.4 mm vs 1.8 mm for ORNoC).
        let g = benchmarks::mwd();
        let c = cluster(&g, &config()).unwrap();
        let conventional = conventional_upper_bound(&g);
        assert!(
            c.longest_path.0 < conventional.0,
            "clustered {} should beat conventional {}",
            c.longest_path,
            conventional
        );
    }

    #[test]
    fn dsp_example_forms_clusters() {
        let g = benchmarks::dsp_example();
        let c = cluster(&g, &config()).unwrap();
        assert!(c.sub_ring_count() >= 1);
        assert!(c.longest_path.0 <= c.l_max.0 + 1e-9);
    }

    mod properties {
        use super::*;
        use onoc_graph::synth;
        use onoc_units::Millimeters;
        use proptest::prelude::*;

        /// Nodes of the evaluator property's graph.
        const EVAL_NODES: usize = 24;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn prop_evaluator_matches_the_cycle_oracle_bit_for_bit(
                coords in proptest::collection::vec(-7.0f64..7.0, 2 * EVAL_NODES),
                keys in proptest::collection::vec(0u64..1_000_000, EVAL_NODES),
                len in 3usize..21,
                pairs in proptest::collection::vec((0usize..EVAL_NODES, 1usize..EVAL_NODES), 0..40),
                self_message in 0usize..4,
            ) {
                // Off-grid positions, so that no reassociation of the
                // path sums could go unnoticed.
                let mut builder = CommGraph::builder();
                for (v, xy) in coords.chunks(2).enumerate() {
                    builder = builder.node(format!("n{v}"), onoc_graph::Point::new(xy[0], xy[1]));
                }
                let g = builder.build().unwrap();
                let mut nodes: Vec<NodeId> = g.node_ids().collect();
                nodes.sort_by_key(|v| (keys[v.index()], *v));
                let order = &nodes[..len];
                // Some endpoints fall off the ring; a quarter of the cases
                // carry a message from a ring node to itself.
                let mut messages: Vec<(NodeId, NodeId)> = pairs
                    .iter()
                    .map(|&(s, off)| (NodeId(s), NodeId((s + off) % EVAL_NODES)))
                    .collect();
                if self_message == 0 {
                    messages.push((order[len / 2], order[len / 2]));
                }
                let dist = |a: NodeId, b: NodeId| g.manhattan(a, b).0;
                let cycle = Cycle::new(order.to_vec()).unwrap();

                let mut ev = RingEval::new(&g);
                ev.load(order);
                let (reversed, longest) = ev.orientation(&messages);
                let (oriented, oracle_longest) = best_orientation(&cycle, &messages, &dist);
                prop_assert_eq!(reversed, oriented != cycle);
                prop_assert_eq!(longest.to_bits(), oracle_longest.to_bits());
                let bits = |s: Option<(f64, f64, f64)>| {
                    s.map(|(p, l, t)| (p.to_bits(), l.to_bits(), t.to_bits()))
                };
                prop_assert_eq!(
                    bits(ev.score(&messages)),
                    bits(oracle_score(order, &messages, &dist))
                );
            }

        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[test]
            fn prop_random_apps_cluster_validly(
                nodes in 4usize..10,
                extra in 0usize..12,
                seed in 0u64..1000,
            ) {
                let messages = (nodes - 1).min(nodes * (nodes - 1)) + extra.min(nodes);
                let messages = messages.min(nodes * (nodes - 1));
                let app = synth::random_app(nodes, messages, seed, Millimeters(0.3));
                let c = cluster(&app, &ClusteringConfig { tree_height: 3 }).unwrap();
                // Partition property.
                let mut seen = BTreeSet::new();
                for cl in &c.clusters {
                    for &m in &cl.members {
                        prop_assert!(seen.insert(m));
                    }
                }
                prop_assert_eq!(seen.len(), app.node_count());
                // Every message is servable: same cluster with a ring, or
                // both endpoints on the inter ring.
                for m in app.messages() {
                    if c.same_cluster(m.src, m.dst) {
                        let cl = &c.clusters[c.cluster_of[m.src.index()]];
                        prop_assert!(cl.ring.is_some());
                    } else {
                        let ring = c.inter_ring.as_ref().expect("inter ring exists");
                        prop_assert!(ring.contains(m.src) && ring.contains(m.dst));
                    }
                }
                // The realized longest path respects both the accepted
                // L_max and the universal one-way upper bound.
                prop_assert!(c.longest_path.0 <= c.l_max.0 + 1e-9);
                prop_assert!(c.longest_path.0 <= one_way_upper_bound(&app).0 + 1e-9);
            }

            #[test]
            fn prop_pipelines_cluster_without_inter_traffic_explosion(
                stages in 4usize..14,
            ) {
                let app = synth::pipeline(stages, Millimeters(0.3));
                let c = cluster(&app, &ClusteringConfig::default()).unwrap();
                // A pipeline is one connected communication component; the
                // congestion of the solution can never exceed the message
                // count and must be at least 1.
                let congestion = c.max_channel_congestion(&app);
                prop_assert!(congestion >= 1);
                prop_assert!(congestion <= app.message_count());
            }
        }
    }

    #[test]
    fn higher_tree_resolution_never_worsens_l_max() {
        let g = benchmarks::vopd();
        let coarse = cluster(&g, &ClusteringConfig { tree_height: 3 }).unwrap();
        let fine = cluster(&g, &ClusteringConfig { tree_height: 8 }).unwrap();
        assert!(fine.l_max.0 <= coarse.l_max.0 + 1e-9);
    }
}
