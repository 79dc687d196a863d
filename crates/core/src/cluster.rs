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
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs of the clustering algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringConfig {
    /// Height `h` of the balanced binary search tree over candidate
    /// `L_max` values: the tree holds `2^h − 1` equidistant candidates
    /// (paper footnote *b*). All candidates are evaluated, but with a
    /// memo tier ([`cluster_ctx`]) a candidate does not cost a full
    /// clustering run: each construction unit is served at every bound
    /// its recorded interval admits, so a candidate recomputes only the
    /// units whose bound tests come out differently under it.
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

/// The outcome of the clustering algorithm: the valid solution the
/// `L_max` search ranks best (see [`cluster`]).
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
    Millimeters(ev.unbounded_orientation(&msgs).1)
}

/// Runs the full clustering algorithm (paper Fig. 4) and returns the best
/// valid solution over all candidate `L_max` values: the one with the
/// smallest laser-power proxy (channel congestion × 10^(longest/10)),
/// ties broken by the shorter realized longest path and then the smaller
/// `L_max`.
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
/// from the memo on repeat invocations, under every `L_max` candidate
/// their recorded bound interval admits. A memo hit returns precisely what
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
    ev.record(ctx);
    result
}

/// The `2^h − 1` equidistant candidate `L_max` values over `[d₁, d₂]`.
fn l_max_candidates(graph: &CommGraph, config: &ClusteringConfig, ev: &mut RingEval) -> Vec<f64> {
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
    (0..count).map(candidate).collect()
}

/// The `L_max` search of [`cluster_ctx`], on one shared evaluator.
fn search_l_max(
    graph: &CommGraph,
    config: &ClusteringConfig,
    ctx: &ExecCtx,
    ev: &mut RingEval,
) -> Result<Clustering, ClusterError> {
    // Balanced binary search over the candidate L_max values: a valid
    // clustering sends the search left (smaller L_max), an invalid one
    // right (paper Fig. 4). Among all valid candidates encountered, the
    // one with the smallest power proxy is kept (ties: the shorter
    // *realized* longest signal path, then the smaller L_max) — with a
    // greedy construction, validity is not perfectly monotone in L_max,
    // so what the solution realizes, not its bound, is the honest
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
    for l_max in l_max_candidates(graph, config, ev) {
        if let Some(solution) = cluster_under(graph, l_max, ctx, ev)? {
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
/// (shortest longest path) — each under several cluster-size caps, and
/// the valid solution with the smallest laser-power proxy wins (ties: the
/// shorter realized longest path).
#[must_use]
pub fn cluster_with_l_max(graph: &CommGraph, l_max: f64) -> Option<Clustering> {
    try_cluster_with_l_max(graph, l_max).ok().flatten()
}

/// [`cluster_with_l_max`] with internal invariant violations surfaced as
/// typed [`ClusterError`]s instead of being swallowed (or, historically,
/// panicking). Selection is the same: the smallest laser-power proxy,
/// ties broken by the shorter realized longest path. `Ok(None)` still
/// means "no valid clustering under this bound".
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
    ev.record(ctx);
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

/// Memo key for [`grow_intra`]: the growth is a pure function of the
/// initial vertex, the unclustered set (with positions), the messages
/// restricted to that set (its neighbor, affinity, and path evaluations
/// never look outside it), the size cap and the `l_max` bound. The bound
/// is left out of the key: it selects among the entry's intervals (see
/// [`memoized`]).
fn grow_key(
    graph: &CommGraph,
    ev: &mut RingEval,
    initial: NodeId,
    unclustered: &BTreeSet<NodeId>,
    size_cap: usize,
) -> ContentKey {
    let mut key = KeyFold::new();
    key.word(initial.index() as u64);
    key.word(size_cap as u64);
    key.word(unclustered.len() as u64);
    for &v in unclustered {
        key.node(ev, v);
        ev.inside[v.index()] = true;
    }
    for m in graph.messages() {
        if ev.inside[m.src.index()] && ev.inside[m.dst.index()] {
            key.word(m.src.index() as u64);
            key.word(m.dst.index() as u64);
        }
    }
    for &v in unclustered {
        ev.inside[v.index()] = false;
    }
    key.finish()
}

/// Memo key for [`improve_cycle`]: the refinement depends on the cycle's
/// visiting order, the message list it scores (in order, with endpoint
/// positions), and the bound, which is left out as in [`grow_key`].
fn refine_key(ev: &RingEval, cycle: &Cycle, messages: &[(NodeId, NodeId)]) -> ContentKey {
    let mut key = KeyFold::new();
    key.word(cycle.len() as u64);
    for &v in cycle.nodes() {
        key.node(ev, v);
    }
    key.messages(ev, messages);
    key.finish()
}

/// Memo key for [`grow_inter`]: the initial vertex, the full `v_inter`
/// list (with positions), the cross-cluster messages, and the bound,
/// which is left out as in [`grow_key`].
fn inter_key(
    ev: &RingEval,
    initial: NodeId,
    v_inter: &[NodeId],
    inter_messages: &[(NodeId, NodeId)],
) -> ContentKey {
    let mut key = KeyFold::new();
    key.word(initial.index() as u64);
    key.word(v_inter.len() as u64);
    for &v in v_inter {
        key.node(ev, v);
    }
    key.messages(ev, inter_messages);
    key.finish()
}

/// The word-at-a-time 128-bit hasher behind the memo keys. Each lane
/// absorbs a word as `h = m(h ^ w)`, where `m` (an odd multiply, then an
/// xor-shift) is a bijection, so two streams that differ in exactly one
/// word always differ in both lanes. A node enters as the two words of
/// its per-run digest ([`RingEval::digests`]), so a key costs O(unit)
/// word folds however large the graph. Memo keys live only in the
/// in-memory memo tier; nothing persisted is keyed this way.
struct KeyFold {
    lo: u64,
    hi: u64,
}

impl KeyFold {
    fn new() -> Self {
        KeyFold {
            lo: 0x243f_6a88_85a3_08d3,
            hi: 0x1319_8a2e_0370_7344,
        }
    }

    fn word(&mut self, w: u64) {
        let lo = (self.lo ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.lo = lo ^ (lo >> 29);
        let hi = (self.hi ^ w).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        self.hi = hi ^ (hi >> 31);
    }

    /// Folds `v`: its index and position, as its digest.
    fn node(&mut self, ev: &RingEval, v: NodeId) {
        let [a, b] = ev.digests[v.index()].0;
        self.word(a);
        self.word(b);
    }

    /// Folds a message list: its length, then both endpoints of each
    /// message in order.
    fn messages(&mut self, ev: &RingEval, messages: &[(NodeId, NodeId)]) {
        self.word(messages.len() as u64);
        for &(s, d) in messages {
            self.node(ev, s);
            self.node(ev, d);
        }
    }

    fn finish(&self) -> ContentKey {
        ContentKey([self.lo, self.hi])
    }
}

/// The three memoized construction units of a clustering pass.
#[derive(Debug, Clone, Copy)]
enum MemoUnit {
    Grow,
    Refine,
    Inter,
}

impl MemoUnit {
    const ALL: [MemoUnit; 3] = [MemoUnit::Grow, MemoUnit::Refine, MemoUnit::Inter];

    /// The unit's name in the memo tier and its `memo/{unit}/...`
    /// counters.
    fn name(self) -> &'static str {
        match self {
            MemoUnit::Grow => "cluster_grow",
            MemoUnit::Refine => "cluster_refine",
            MemoUnit::Inter => "cluster_inter",
        }
    }

    /// The span a miss recomputes the unit under.
    fn phase(self) -> &'static str {
        match self {
            MemoUnit::Grow => "grow",
            MemoUnit::Refine => "refine",
            MemoUnit::Inter => "inter",
        }
    }
}

/// Serves one pure construction unit from the memo tier of `ctx`, or runs
/// `compute` under a span named `phase` and stores its result. `compute`
/// gets the unit's key, under which a growth unit keeps its round log for
/// the rest of the run ([`Replay`]).
///
/// A unit's result depends on its `bound` (`L_max`) only through the
/// bound tests it runs, so `compute` narrows an [`Exact`] interval to the
/// bounds under which every one of those tests comes out as it did under
/// `bound`. The entry under `(unit, key())` — a key without the bound —
/// holds a short list of `(interval, result)` pairs, and a lookup hits
/// only when a stored interval admits its bound. A hit therefore returns
/// exactly what recomputation would, so a pass is bit-identical with or
/// without a memo tier; an error (a deadline) returns before the put, so
/// it is never memoized. Keying, lookup and put are timed into
/// [`RingEval::memo_time`] when tracing is on, since no unit span covers
/// them, and each lookup is tallied in [`RingEval::lookups`]; both reach
/// the trace once per run ([`RingEval::record`]).
///
/// Extending a list reads it and stores a longer copy, so two workers
/// sharing the memo tier can race and lose one of the two appended pairs.
/// That costs one later miss and never a wrong hit: every stored pair is
/// exact on its own.
fn memoized<T: Clone + Send + Sync + 'static>(
    ctx: &ExecCtx,
    ev: &mut RingEval,
    unit: MemoUnit,
    bound: f64,
    key: impl FnOnce(&mut RingEval) -> ContentKey,
    compute: impl FnOnce(&mut RingEval, ContentKey, &mut Exact) -> Result<T, ClusterError>,
) -> Result<T, ClusterError> {
    let watch = ctx.trace().stopwatch();
    let key = key(ev);
    let found = ctx.memo_select(unit.name(), key, |list: &Arc<Vec<(Exact, T)>>| {
        let admitted = list.iter().find(|(exact, _)| exact.admits(bound));
        admitted.map(|(_, hit)| hit.clone())
    });
    ev.lookups[unit as usize][usize::from(found.is_err())] += 1;
    ev.memo_time += watch.elapsed();
    let stored = match found {
        Ok(hit) => return Ok(hit),
        Err(stored) => stored,
    };
    let mut exact = Exact::ALL;
    let value = {
        let _span = ctx.trace().span(unit.phase());
        compute(ev, key, &mut exact)?
    };
    debug_assert!(exact.admits(bound), "{exact:?} must admit {bound}");
    let watch = ctx.trace().stopwatch();
    let mut list = stored.map_or_else(Vec::new, |list| Vec::clone(&list));
    list.push((exact, value.clone()));
    ctx.memo_put(unit.name(), key, list);
    ev.memo_time += watch.elapsed();
    Ok(value)
}

/// The closed interval `[lo, hi]` of bounds under which every bound test a
/// construction unit ran comes out as it did under the caller's bound.
/// Each test has the form `x <= bound + slack` (a failure is the same test
/// coming out false), and floating-point addition is monotone, so the
/// bounds that pass it are exactly those at or above [`least_bound`]. A
/// NaN `x` fails under every bound and leaves the interval as it is
/// (`f64::max`/`min` ignore NaN).
#[derive(Debug, Clone, Copy)]
struct Exact {
    lo: f64,
    hi: f64,
}

impl Exact {
    /// No test run yet: every bound, `∞` included.
    const ALL: Exact = Exact {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    fn admits(self, bound: f64) -> bool {
        self.lo <= bound && bound <= self.hi
    }

    /// Records that the test `x <= bound + slack` held.
    fn held(&mut self, x: f64, slack: f64) {
        self.lo = self.lo.max(least_bound(x, slack));
    }

    /// Records that the test `x <= bound + slack` failed.
    fn failed(&mut self, x: f64, slack: f64) {
        self.hi = self.hi.min(least_bound(x, slack).next_down());
    }

    /// Narrows to the bounds `other` admits too.
    fn meet(&mut self, other: Exact) {
        self.lo = self.lo.max(other.lo);
        self.hi = self.hi.min(other.hi);
    }
}

/// The smallest bound `b` with `x <= b + slack` in floating point; `x`
/// itself when it is not finite (only `b = ∞` passes `x = ∞`).
fn least_bound(x: f64, slack: f64) -> f64 {
    if !x.is_finite() {
        return x;
    }
    let mut b = x - slack;
    while x > b + slack {
        b = b.next_up();
    }
    while x <= b.next_down() + slack {
        b = b.next_down();
    }
    b
}

/// The bound tests of one greedy absorption round of [`grow_intra`] or
/// [`grow_inter`], and the cutoff at which the evaluator may abandon a
/// trial: past it, a trial fails the bound or loses to the best so far.
struct Round {
    l_max: f64,
    cutoff: f64,
    /// The largest longest path of a trial that was ever the round's best.
    led: Option<f64>,
    /// The smallest longest path, or abandonment bound, of a trial that
    /// failed the bound.
    failed: Option<f64>,
}

impl Round {
    fn new(l_max: f64) -> Self {
        Round {
            l_max,
            cutoff: l_max + 1e-12,
            led: None,
            failed: None,
        }
    }

    /// The better direction and longest path of the evaluator's candidate
    /// inserted after base position `p` ([`RingEval::insertion`]) when it
    /// keeps the bound; `None` when it fails the bound or was abandoned.
    fn trial(&mut self, ev: &mut RingEval, p: usize) -> Option<(bool, f64)> {
        let l = match ev.insertion(p, self.cutoff) {
            Ok((reversed, l)) if l <= self.l_max + 1e-12 => return Some((reversed, l)),
            Ok((_, l)) | Err(l) => l,
        };
        // An abandoned trial's longest path is at least `l`; one abandoned
        // at or below the bound lost to the best so far instead.
        if l > self.l_max + 1e-12 {
            self.failed = Some(self.failed.map_or(l, |f| f.min(l)));
        }
        None
    }

    /// Makes a trial of longest path `l` the round's best.
    fn lead(&mut self, l: f64) {
        self.led = Some(self.led.map_or(l, |m| m.max(l)));
        self.cutoff = (self.l_max + 1e-12).min(loses_above(l));
    }

    /// Narrows `exact` to the bounds under which the round ends as it did.
    /// Under a smaller bound only trials that never led can drop out, so
    /// the fold is unchanged while every leader keeps the bound. Under a
    /// larger one the failed trials come in: they cannot win when the
    /// bound clears every leader by a relative margin of 1e-9 (DESIGN.md
    /// §16), and otherwise the bound must stay below the smallest of them.
    fn close(self, exact: &mut Exact) {
        if let Some(led) = self.led {
            exact.held(led, 1e-12);
        }
        let clears = self
            .led
            .is_some_and(|led| self.l_max + 1e-12 > (led + 1e-12) * (1.0 + 1e-9));
        if let (false, Some(failed)) = (clears, self.failed) {
            exact.failed(failed, 1e-12);
        }
    }
}

/// A greedy round's absorption in [`grow_intra`] or [`grow_inter`]: the
/// node, the base segment it went after, whether the ring was then
/// reversed, and the longest path after the round.
type Absorption = (NodeId, usize, bool, f64);

/// The leading rounds of one growth unit's run that every bound in
/// `[lo, hi]` decides as that run did, kept for the rest of the clustering
/// run under the unit's memo key ([`RingEval::logs`]).
struct RoundLog {
    lo: f64,
    hi: f64,
    /// The longest path after the last round.
    longest: f64,
    /// Each round's node, and the segment it went after times two, plus
    /// one if the ring was then reversed.
    rounds: Box<[[u16; 2]]>,
}

/// A growth unit's round log while it runs: the rounds of the key's
/// earlier log, replayed without evaluation when the bound is in that
/// log's `[lo, hi]`, then the rounds this run computes.
///
/// Round `r` starts from the state rounds `0..r` left, so every bound in
/// the interval the run had narrowed to through round `r` makes the same
/// decisions in rounds `0..=r`. That interval's upper end only falls from
/// round to round, and its lower end only rises, up to the run's final
/// `lo`. A log therefore keeps the leading rounds that share the first
/// round's upper end `hi`, with the final `lo`. A resumed unit's interval
/// is that `[lo, hi]` met with the intervals of the rounds it computes, so
/// it stays exact.
struct Replay {
    key: ContentKey,
    earlier: Option<RoundLog>,
    /// Rounds of `earlier` the bound admits: all of them or none.
    admitted: usize,
    replayed: usize,
    /// This run's absorptions so far, with the interval's upper end after
    /// each.
    rounds: Vec<(Absorption, f64)>,
}

impl Replay {
    /// Takes the log of `key` out of `ev` and, when `bound` is in its
    /// interval, narrows `exact` to it.
    fn start(ev: &mut RingEval, key: ContentKey, bound: f64, exact: &mut Exact) -> Self {
        let earlier = ev.logs.remove(&key);
        let admitted = match &earlier {
            Some(log) if log.lo <= bound && bound <= log.hi => {
                exact.meet(Exact {
                    lo: log.lo,
                    hi: log.hi,
                });
                log.rounds.len()
            }
            _ => 0,
        };
        Replay {
            key,
            earlier,
            admitted,
            replayed: 0,
            rounds: Vec::new(),
        }
    }

    /// The next admitted round of the earlier log, if any is left, with
    /// the longest path after that log's last round.
    fn next(&mut self, ev: &mut RingEval) -> Option<Absorption> {
        let log = self
            .earlier
            .as_ref()
            .filter(|_| self.replayed < self.admitted)?;
        let [x, at] = log.rounds[self.replayed];
        let round = (
            NodeId(usize::from(x)),
            usize::from(at >> 1),
            at & 1 == 1,
            log.longest,
        );
        self.rounds.push((round, log.hi));
        self.replayed += 1;
        ev.replayed += 1;
        Some(round)
    }

    /// Logs a computed round, `hi` being the interval's upper end after it.
    /// A round that absorbed nothing is the unit's last, which no log
    /// keeps.
    fn record(&mut self, absorbed: Option<Absorption>, hi: f64) {
        if let Some(round) = absorbed {
            self.rounds.push((round, hi));
        }
    }

    /// Leaves this run's log in `ev`, or the earlier log when this one is
    /// empty. The log holds the leading rounds that share the first
    /// round's upper end, and only if that exceeds the final `exact.hi`:
    /// with a memo tier the unit's entry admits `exact`, so a later miss
    /// under a bound of at least `exact.lo` is above `exact.hi`, and a
    /// round whose upper end is `exact.hi` (the last one always is) could
    /// never replay. A run ending at `hi = ∞` logs nothing.
    fn finish(self, ev: &mut RingEval, exact: Exact) {
        let first = self.rounds.first().map_or(exact.hi, |&(_, hi)| hi);
        let kept = &self.rounds[..self.rounds.partition_point(|&(_, hi)| hi == first)];
        let encode = |&((x, seg, reversed, _), _): &(Absorption, f64)| {
            let at = 2 * seg + usize::from(reversed);
            Some([u16::try_from(x.index()).ok()?, u16::try_from(at).ok()?])
        };
        let fresh = match kept.last() {
            Some(&((_, _, _, longest), _)) if first > exact.hi => kept
                .iter()
                .map(encode)
                .collect::<Option<_>>()
                .map(|rounds| RoundLog {
                    lo: exact.lo,
                    hi: first,
                    longest,
                    rounds,
                }),
            _ => None,
        };
        if let Some(log) = fresh.or(self.earlier) {
            ev.logs.insert(self.key, log);
        }
    }
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

    // Memo-served wrappers for the three pure construction units; see
    // [`memoized`].
    let grow_memo = |ev: &mut RingEval, initial: NodeId, unclustered: &BTreeSet<NodeId>| {
        memoized(
            ctx,
            ev,
            MemoUnit::Grow,
            l_max,
            |ev| grow_key(graph, ev, initial, unclustered, size_cap),
            |ev, key, exact| {
                grow_intra(graph, ev, key, initial, unclustered, l_max, size_cap, exact)
            },
        )
    };
    let refine_memo = |ev: &mut RingEval, cycle: &Cycle, messages: &[(NodeId, NodeId)]| {
        memoized(
            ctx,
            ev,
            MemoUnit::Refine,
            l_max,
            |ev| refine_key(ev, cycle, messages),
            |ev, _, exact| improve_cycle(ev, cycle, messages, l_max, ctx, exact),
        )
    };
    let inter_memo = |ev: &mut RingEval,
                      initial: NodeId,
                      v_inter: &[NodeId],
                      inter_messages: &[(NodeId, NodeId)],
                      bound: f64| {
        memoized(
            ctx,
            ev,
            MemoUnit::Inter,
            bound,
            |ev| inter_key(ev, initial, v_inter, inter_messages),
            |ev, key, exact| grow_inter(ev, key, initial, v_inter, inter_messages, bound, exact),
        )
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
///
/// Growth trials (one node inserted into a ring) are scored against a
/// *base* ring instead, set once per greedy round ([`RingEval::set_base`]):
/// its folds of the first `k` segments from each position, in both
/// directions, are tabled, and a trial path reuses the fold of the part
/// before the insertion and adds the rest in travel order. A left fold
/// that extends a cached left fold makes the same additions in the same
/// order, so [`RingEval::insertion`] is bit-identical to loading the trial
/// order and calling [`RingEval::orientation`].
///
/// Every scorer takes a bound from the caller and abandons a trial as soon
/// as the messages walked so far prove it cannot pass the caller's test
/// (see [`RingEval::orientation`] and [`RingEval::score`]). A trial that
/// is not abandoned makes the same additions in the same order as an
/// unbounded walk, so its result is bit-identical; an unbounded walk
/// passes `f64::INFINITY`.
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
    /// End positions of the on-ring messages [`RingEval::score`] walks.
    msg_ends: Vec<(usize, usize)>,
    /// The base ring's segment lengths twice over, so that a walk of up
    /// to `l` segments from any position needs no wrap.
    twice: Vec<f64>,
    /// `ahead[i * l + k]` = the fold of the first `k < l` base segments
    /// from position `i` onward, `seg[i] + seg[i + 1] + …`.
    ahead: Vec<f64>,
    /// `behind[i * l + k]` = the fold of the first `k < l` base segments
    /// before position `i`, walking backward: `seg[i − 1] + seg[i − 2] + …`.
    behind: Vec<f64>,
    /// The growth unit's message list ([`RingEval::set_messages`]).
    messages: Vec<(NodeId, NodeId)>,
    /// `incident[incident_at[v]..incident_at[v + 1]]` = the indices into
    /// `messages` of the messages at node `v`, ascending.
    incident_at: Vec<usize>,
    incident: Vec<usize>,
    /// Indices into `messages` of those with both ends on the base ring,
    /// ascending.
    on_base: Vec<usize>,
    /// The node [`RingEval::insertion`] inserts into the base ring.
    x: NodeId,
    /// End positions of the messages with both ends on the base ring or
    /// `x`, in message order; position `l` (the base length) stands for `x`.
    x_ends: Vec<(usize, usize)>,
    /// The round logs of this run's growth units, by memo key.
    logs: BTreeMap<ContentKey, RoundLog>,
    /// Growth rounds replayed from a log (`cluster/rounds_replayed`).
    replayed: u64,
    /// Orders evaluated so far (the `cluster/ring_evals` counter).
    evals: u64,
    /// Evaluations abandoned on their bound (`cluster/ring_evals_cut`).
    cut: u64,
    /// Per-node memo key digests: a [`ContentHasher`] over the node's
    /// index and canonicalised position.
    digests: Vec<ContentKey>,
    /// Scratch membership marks for [`grow_key`]; all `false` between
    /// calls.
    inside: Vec<bool>,
    /// Memo `[hits, misses]` per [`MemoUnit`], reported once per run.
    lookups: [[u64; 2]; 3],
    /// Time spent keying, looking up and storing memo entries; counted
    /// only when tracing is on (the `memo` phase of the clustering span).
    memo_time: Duration,
}

impl RingEval {
    fn new(graph: &CommGraph) -> Self {
        let n = graph.node_count();
        let mut dist = Vec::with_capacity(n * n);
        for a in graph.node_ids() {
            dist.extend(graph.node_ids().map(|b| graph.manhattan(a, b).0));
        }
        let digest = |v: NodeId| {
            let mut hasher = ContentHasher::new();
            hasher.write_usize(v.index());
            graph.position(v).content_hash(&mut hasher);
            hasher.finish()
        };
        RingEval {
            n,
            dist,
            pos: vec![ABSENT; n],
            order: Vec::new(),
            seg: Vec::new(),
            diff: Vec::new(),
            msg_ends: Vec::new(),
            twice: Vec::new(),
            ahead: Vec::new(),
            behind: Vec::new(),
            messages: Vec::new(),
            incident_at: Vec::new(),
            incident: Vec::new(),
            on_base: Vec::new(),
            x: NodeId(0),
            x_ends: Vec::new(),
            logs: BTreeMap::new(),
            replayed: 0,
            evals: 0,
            cut: 0,
            digests: graph.node_ids().map(digest).collect(),
            inside: vec![false; n],
            lookups: [[0; 2]; 3],
            memo_time: Duration::ZERO,
        }
    }

    /// Folds the run's tallies into the trace of `ctx`.
    fn record(&self, ctx: &ExecCtx) {
        let trace = ctx.trace();
        trace.incr("cluster/ring_evals", self.evals);
        trace.incr("cluster/ring_evals_cut", self.cut);
        trace.incr("cluster/rounds_replayed", self.replayed);
        trace.add_time("memo", self.memo_time, 1);
        for unit in MemoUnit::ALL {
            let [hits, misses] = self.lookups[unit as usize];
            ctx.count_memo_lookups(unit.name(), hits, misses);
        }
    }

    /// Manhattan distance between two nodes of the graph.
    fn d(&self, a: NodeId, b: NodeId) -> f64 {
        self.dist[a.index() * self.n + b.index()]
    }

    /// Makes `order` (at least two distinct nodes) the ring under
    /// evaluation.
    fn load(&mut self, order: &[NodeId]) {
        self.place(order);
        self.evals += 1;
    }

    /// Fills the position and segment buffers for `order`.
    fn place(&mut self, order: &[NodeId]) {
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
    }

    /// Makes `messages` the list that [`RingEval::set_base`] and
    /// [`RingEval::candidate`] draw from, and tables the messages at each
    /// node (a message from a node to itself once).
    fn set_messages(&mut self, messages: &[(NodeId, NodeId)]) {
        self.messages.clear();
        self.messages.extend_from_slice(messages);
        let at = &mut self.incident_at;
        at.clear();
        at.resize(self.n + 1, 0);
        for &(s, d) in messages {
            at[s.index()] += 1;
            if d != s {
                at[d.index()] += 1;
            }
        }
        let mut total = 0;
        for count in at.iter_mut() {
            total += *count;
            *count = total;
        }
        // `at[v]` is the end of `v`'s list; filling backward leaves it at
        // the start, with each list ascending.
        self.incident.clear();
        self.incident.resize(total, 0);
        for (k, &(s, d)) in messages.iter().enumerate().rev() {
            at[s.index()] -= 1;
            self.incident[at[s.index()]] = k;
            if d != s {
                at[d.index()] -= 1;
                self.incident[at[d.index()]] = k;
            }
        }
    }

    /// Makes `ring` (at least two distinct nodes) the base that
    /// [`RingEval::insertion`] inserts into, tables its folds and lists
    /// the messages of [`RingEval::set_messages`] with both ends on it.
    /// Not an evaluation: only the trials are counted.
    fn set_base(&mut self, ring: &[NodeId]) {
        self.place(ring);
        let pos = &self.pos;
        self.on_base.clear();
        self.on_base.extend((0..self.messages.len()).filter(|&k| {
            let (s, d) = self.messages[k];
            pos[s.index()] != ABSENT && pos[d.index()] != ABSENT
        }));
        let l = ring.len();
        self.twice.clear();
        self.twice.extend_from_slice(&self.seg);
        self.twice.extend_from_slice(&self.seg);
        for table in [&mut self.ahead, &mut self.behind] {
            table.clear();
            table.resize(l * l, empty_sum());
        }
        for i in 0..l {
            for k in 1..l {
                self.ahead[i * l + k] = self.ahead[i * l + k - 1] + self.twice[i + k - 1];
                self.behind[i * l + k] = self.behind[i * l + k - 1] + self.twice[i + l - k];
            }
        }
    }

    /// Makes `x` (a node off the base ring) the node the next trials
    /// insert, and lists the ends of the messages with both ends on the
    /// base ring or `x`, in message order: exactly the messages that
    /// [`RingEval::orientation`] would not skip on a trial order. They are
    /// the base ring's messages merged with those at `x`. Returns how
    /// many of them join `x` to the base ring.
    fn candidate(&mut self, x: NodeId) -> usize {
        debug_assert_eq!(self.pos[x.index()], ABSENT, "{x} is on the base ring");
        let (l, pos, messages) = (self.seg.len(), &self.pos, &self.messages);
        let ends = |k: usize| {
            let (s, d) = messages[k];
            let at = |v: NodeId| if v == x { l } else { pos[v.index()] };
            (at(s), at(d))
        };
        let at_x = &self.incident[self.incident_at[x.index()]..self.incident_at[x.index() + 1]];
        let mut at_x = at_x
            .iter()
            .copied()
            .filter(|&k| {
                let (i, j) = ends(k);
                i != ABSENT && j != ABSENT
            })
            .peekable();
        let mut on_base = self.on_base.iter().copied().peekable();
        let merged = std::iter::from_fn(|| match (on_base.peek(), at_x.peek()) {
            (Some(b), Some(a)) if a < b => at_x.next(),
            (Some(_), _) => on_base.next(),
            (None, _) => at_x.next(),
        });
        self.x = x;
        self.x_ends.clear();
        self.x_ends.extend(merged.map(ends));
        self.x_ends
            .iter()
            .filter(|&&(i, j)| (i == l) != (j == l))
            .count()
    }

    /// [`RingEval::orientation`] of the candidate's messages on the base
    /// ring with the candidate inserted after position `p`, bit for bit,
    /// counters included, without loading that order.
    fn insertion(&mut self, p: usize, cutoff: f64) -> Result<(bool, f64), f64> {
        self.evals += 1;
        let l = self.seg.len();
        let next = if p + 1 == l { 0 } else { p + 1 };
        let a = self.d(self.order[p], self.x);
        let b = self.d(self.x, self.order[next]);
        let paths = self
            .x_ends
            .iter()
            .map(|&(i, j)| self.inserted(i, j, p, a, b));
        let out = longest_paths(paths, cutoff);
        self.cut += u64::from(out.is_err());
        out
    }

    /// Forward and reverse lengths from position `i` to position `j` of
    /// the base ring with `x` (position `l`) inserted after position `p`,
    /// where `a = d(base[p], x)` and `b = d(x, base[p + 1])`. A path adds
    /// in travel order: a tabled fold up to the insertion, then `a` and `b`
    /// (forward) or `b` and `a` (reverse), then the segments after it.
    fn inserted(&self, i: usize, j: usize, p: usize, a: f64, b: f64) -> (f64, f64) {
        let l = self.seg.len();
        // Segments from position `from` forward to position `to`.
        let steps = |from: usize, to: usize| if to >= from { to - from } else { to + l - from };
        // The `c` segments after the insertion, forward and backward.
        let tail = |acc: f64, c: usize| self.twice[p + 1..p + 1 + c].iter().fold(acc, |s, g| s + g);
        let tail_back = |acc: f64, c: usize| {
            self.twice[p + l - c..p + l]
                .iter()
                .rev()
                .fold(acc, |s, g| s + g)
        };
        if i == j {
            (f64::INFINITY, f64::INFINITY)
        } else if i == l {
            (
                tail(empty_sum() + b, steps(p + 1, j)),
                tail_back(empty_sum() + a, steps(j, p)),
            )
        } else if j == l {
            (
                self.ahead[i * l + steps(i, p)] + a,
                self.behind[i * l + steps(p + 1, i)] + b,
            )
        } else {
            // `k` segments on the base ring, the first `t` of them before
            // segment `p`: the path crosses the insertion when `t < k`.
            let (k, t) = (steps(i, j), steps(i, p));
            let f = if t < k {
                tail(self.ahead[i * l + t] + a + b, k - t - 1)
            } else {
                self.ahead[i * l + k]
            };
            let (k, t) = (steps(j, i), steps(p + 1, i));
            let r = if t < k {
                tail_back(self.behind[i * l + t] + b + a, k - t - 1)
            } else {
                self.behind[i * l + k]
            };
            (f, r)
        }
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
    ///
    /// `Err` once `min(fwd, rev)` of the running maxima exceeds
    /// `cutoff`, carrying that minimum: whichever direction wins, its
    /// longest path is at least that, so the result would exceed `cutoff`
    /// too.
    fn orientation(
        &mut self,
        messages: &[(NodeId, NodeId)],
        cutoff: f64,
    ) -> Result<(bool, f64), f64> {
        let paths = messages.iter().filter_map(|&(s, d)| {
            let (i, j) = self.ends(s, d)?;
            Some(if i == j {
                (f64::INFINITY, f64::INFINITY)
            } else {
                (self.forward(i, j), self.backward(i, j))
            })
        });
        let out = longest_paths(paths, cutoff);
        self.cut += u64::from(out.is_err());
        out
    }

    /// [`RingEval::orientation`] with no bound, so never abandoned.
    fn unbounded_orientation(&mut self, messages: &[(NodeId, NodeId)]) -> (bool, f64) {
        self.orientation(messages, f64::INFINITY)
            .unwrap_or((false, f64::INFINITY))
    }

    /// The refinement score of the loaded order in its better direction:
    /// `(congestion × 10^(longest/10), longest, total)`, with `total` the
    /// summed path length of the on-ring messages and `congestion` the
    /// most of them sharing one segment. `None` when a message runs from
    /// an on-ring node to itself.
    ///
    /// Also `None` once the score provably exceeds `cap + 1e-12`, so that
    /// it cannot beat a current score of `cap`. A first sweep, free of
    /// lengths, finds each message's ends and both directions'
    /// congestions, whose minimum `cong_lb` bounds the proxy's factor
    /// whichever direction wins. The lengths are then summed, and the
    /// walk stops when `min(fwd, rev)` of the running maxima exceeds the
    /// length at which `cong_lb × 10^(length/10)` reaches `cap + 1e-12`
    /// plus a relative margin of 1e-9, far above any rounding of the
    /// `log10` here or the `powf` of the proxy.
    fn score(&mut self, messages: &[(NodeId, NodeId)], cap: f64) -> Option<(f64, f64, f64)> {
        let len = self.seg.len();
        self.diff.clear();
        self.diff.resize(len, 0);
        self.msg_ends.clear();
        for &(s, d) in messages {
            let Some((i, j)) = self.ends(s, d) else {
                continue;
            };
            if i == j {
                return None;
            }
            self.msg_ends.push((i, j));
            // The forward path covers segments i..j (cyclically).
            self.diff[i] += 1;
            self.diff[j] -= 1;
            if j < i {
                self.diff[0] += 1;
            }
        }
        // The reverse path of a message covers exactly the segments its
        // forward path leaves out, so reverse loads are `on_ring` minus
        // forward loads.
        let on_ring = self.msg_ends.len() as isize;
        let (mut low, mut high, mut load) = (isize::MAX, 0isize, 0isize);
        for &step in &self.diff {
            load += step;
            low = low.min(load);
            high = high.max(load);
        }
        let cong_lb = high.min(on_ring - low).max(1) as f64;
        let cutoff = 10.0 * ((cap + 1e-12) * (1.0 + 1e-9) / cong_lb).log10();

        let (mut fwd, mut rev) = (0.0f64, 0.0f64);
        let (mut total_fwd, mut total_rev) = (0.0f64, 0.0f64);
        let mut abandoned = false;
        for &(i, j) in &self.msg_ends {
            let (f, r) = (self.forward(i, j), self.backward(i, j));
            fwd = fwd.max(f);
            rev = rev.max(r);
            total_fwd += f;
            total_rev += r;
            if fwd.min(rev) > cutoff {
                abandoned = true;
                break;
            }
        }
        if abandoned {
            self.cut += 1;
            return None;
        }
        let reversed = rev < fwd - 1e-12;
        let (longest, total) = if reversed {
            (rev, total_rev)
        } else {
            (fwd, total_fwd)
        };
        let congestion = if reversed { on_ring - low } else { high };
        let proxy = congestion.max(1) as f64 * 10f64.powf(longest / 10.0);
        Some((proxy, longest, total))
    }
}

/// The better direction of a ring for its on-ring messages' `(forward,
/// reverse)` path lengths, in message order: whether it is the reverse one
/// (only when shorter by more than 1e-12), and its longest path. `Err`
/// once `min(fwd, rev)` of the running maxima exceeds `cutoff`, carrying
/// that minimum; the remaining lengths are then never computed.
fn longest_paths(paths: impl Iterator<Item = (f64, f64)>, cutoff: f64) -> Result<(bool, f64), f64> {
    let (mut fwd, mut rev) = (0.0f64, 0.0f64);
    for (f, r) in paths {
        fwd = fwd.max(f);
        rev = rev.max(r);
        if fwd.min(rev) > cutoff {
            return Err(fwd.min(rev));
        }
    }
    Ok(if rev < fwd - 1e-12 {
        (true, rev)
    } else {
        (false, fwd)
    })
}

/// The value `Iterator::<f64>::sum` starts from, so that a fold the
/// evaluator tables or extends adds exactly what that sum adds.
fn empty_sum() -> f64 {
    std::iter::empty::<&f64>().sum()
}

/// The largest `c` with `c - base <= 1e-12` in floating point. Rounding
/// is monotone, so every `y > c` has `y - base > 1e-12`: a trial whose
/// longest path passes `c` can neither beat nor tie a best of `base`
/// under the greedy's 1e-12 rules. `∞` (no bound) for `base = ∞`.
fn loses_above(base: f64) -> f64 {
    let mut c = base + 1e-12;
    while c - base > 1e-12 {
        c = c.next_down();
    }
    while c.next_up() - base <= 1e-12 {
        c = c.next_up();
    }
    c
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
    // A total order (indices differ), so selecting the `k` smallest and
    // sorting them gives what a full sort's first `k` would.
    let rank = |p: &(f64, usize), q: &(f64, usize)| p.0.total_cmp(&q.0).then(p.1.cmp(&q.1));
    let k = k.max(1);
    if len > k {
        out.select_nth_unstable_by(k - 1, rank);
        out.truncate(k);
    }
    out.sort_unstable_by(rank);
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
    exact: &mut Exact,
) -> Result<(Cycle, f64), ClusterError> {
    // Score: the same laser-power proxy the L_max search uses —
    // congestion × 10^(longest/10) — then longest, then total path
    // length. Moves may trade a slightly longer worst path (still within
    // L_max) for materially lower congestion.
    let scores_better = |a: (f64, f64, f64), b: (f64, f64, f64)| {
        a.0 < b.0 - 1e-12
            || ((a.0 - b.0).abs() <= 1e-12
                && (a.1 < b.1 - 1e-12 || ((a.1 - b.1).abs() <= 1e-12 && a.2 < b.2 - 1e-12)))
    };
    // A move must also keep the L_max bound (or strictly shrink an already
    // violating longest path, for the unrestricted fallback). This is the
    // one bound test, so it is recorded in `exact`.
    let mut better = |a: (f64, f64, f64), b: (f64, f64, f64)| {
        if !scores_better(a, b) {
            return false;
        }
        if a.1 >= b.1 - 1e-12 {
            if a.1 > l_max + 1e-12 {
                exact.failed(a.1, 1e-12);
                return false;
            }
            exact.held(a.1, 1e-12);
        }
        true
    };

    let mut order = cycle.nodes().to_vec();
    let n = order.len();
    ev.load(&order);
    let mut current = ev
        .score(messages, f64::INFINITY)
        .ok_or(ClusterError::InvalidCycle(
            "refinement input cycle is not scorable",
        ))?;
    let mut trial = Vec::with_capacity(n);
    // A trial scored above `current.0 + 1e-12` fails `better`, so the
    // evaluator may abandon it early.
    let mut accept =
        |trial: &mut Vec<NodeId>, order: &mut Vec<NodeId>, current: &mut (f64, f64, f64)| {
            ev.load(trial);
            match ev.score(messages, current.0) {
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
    let (reversed, longest) = ev.unbounded_orientation(messages);
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
/// partner yields a singleton. `key` is the unit's memo key, under which
/// its round log is kept ([`Replay`]).
#[allow(clippy::too_many_arguments)] // the unit's inputs, its key and its interval
fn grow_intra(
    graph: &CommGraph,
    ev: &mut RingEval,
    key: ContentKey,
    initial: NodeId,
    unclustered: &BTreeSet<NodeId>,
    l_max: f64,
    size_cap: usize,
    exact: &mut Exact,
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
    let d = ev.d(initial, first);
    if d > l_max {
        exact.failed(d, 0.0);
        return Ok(None);
    }
    exact.held(d, 0.0);

    let n = graph.node_count();
    let mut members = vec![initial, first];
    let mut in_cluster = vec![false; n];
    in_cluster[initial.index()] = true;
    in_cluster[first.index()] = true;
    // Every message of the graph: a ring's walk skips those with an end
    // off it, so only the cluster's own are ever walked.
    let messages: Vec<(NodeId, NodeId)> = graph.messages().iter().map(|m| (m.src, m.dst)).collect();
    // The ring stays un-oriented until the first absorption.
    let mut ring = members.clone();
    ev.load(&ring);
    let mut longest = ev.unbounded_orientation(&messages).1;
    ev.set_messages(&messages);

    let mut is_candidate = vec![false; n];
    let mut segs = Vec::new();
    let mut log = Replay::start(ev, key, l_max, exact);
    // Bounded: every round absorbs one node or breaks on an empty
    // candidate set, capped at size_cap.
    while members.len() < size_cap {
        let absorbed = match log.next(ev) {
            replayed @ Some(_) => replayed,
            None => {
                ev.set_base(&ring);
                // Candidates: unvisited communication partners of any member.
                is_candidate.fill(false);
                for &m in &members {
                    for &w in graph.neighbors(m) {
                        if unclustered.contains(&w) && !in_cluster[w.index()] {
                            is_candidate[w.index()] = true;
                        }
                    }
                }
                // Absorb the valid candidate whose best insertion point
                // yields the smallest longest signal path; ties go to the
                // candidate with the most messages into the cluster
                // (communication affinity), which keeps subsystems
                // together. Only the winner's ring is built.
                let mut best: Option<(f64, usize, NodeId, usize, bool)> = None;
                let mut round = Round::new(l_max);
                for x in graph.node_ids().filter(|x| is_candidate[x.index()]) {
                    let aff = ev.candidate(x);
                    candidate_segments(&ring, x, &|a, b| ev.d(a, b), 8, &mut segs);
                    for &(_, seg) in &segs {
                        let Some((reversed, l)) = round.trial(ev, seg) else {
                            continue;
                        };
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
                            round.lead(l);
                        }
                    }
                }
                round.close(exact);
                let absorbed = best.map(|(l, _, x, seg, reversed)| (x, seg, reversed, l));
                log.record(absorbed, exact.hi);
                absorbed
            }
        };
        let Some((x, seg, reversed, l)) = absorbed else {
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
    log.finish(ev, *exact);

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
/// `l_max` (paper Sec. III-A-2). `key` is as for [`grow_intra`].
fn grow_inter(
    ev: &mut RingEval,
    key: ContentKey,
    initial: NodeId,
    v_inter: &[NodeId],
    inter_messages: &[(NodeId, NodeId)],
    l_max: f64,
    exact: &mut Exact,
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
    // An abandoned walk's bound exceeds the cutoff, so it fails too.
    let (Ok((_, mut longest)) | Err(mut longest)) = ev.orientation(inter_messages, l_max + 1e-12);
    if longest > l_max + 1e-12 {
        exact.failed(longest, 1e-12);
        return Ok(None);
    }
    exact.held(longest, 1e-12);
    // Most inter messages have an end off the trial ring: a candidate's
    // trials walk only the rest.
    ev.set_messages(inter_messages);

    let mut segs = Vec::new();
    let mut log = Replay::start(ev, key, l_max, exact);
    // Bounded: every round inserts one remaining node onto the ring or
    // returns infeasible.
    while !remaining.is_empty() {
        let absorbed = match log.next(ev) {
            replayed @ Some(_) => replayed,
            None => {
                ev.set_base(&ring);
                let mut best: Option<(f64, NodeId, usize, bool)> = None;
                let mut round = Round::new(l_max);
                for &x in &remaining {
                    ev.candidate(x);
                    candidate_segments(&ring, x, &|a, b| ev.d(a, b), 8, &mut segs);
                    for &(_, seg) in &segs {
                        let Some((reversed, l)) = round.trial(ev, seg) else {
                            continue;
                        };
                        let better = match &best {
                            None => true,
                            Some((bl, bx, _, _)) => {
                                l < *bl - 1e-12 || ((l - *bl).abs() <= 1e-12 && x < *bx)
                            }
                        };
                        if better {
                            best = Some((l, x, seg, reversed));
                            round.lead(l);
                        }
                    }
                }
                round.close(exact);
                let absorbed = best.map(|(l, x, seg, reversed)| (x, seg, reversed, l));
                log.record(absorbed, exact.hi);
                absorbed
            }
        };
        let Some((x, seg, reversed, l)) = absorbed else {
            log.finish(ev, *exact);
            return Ok(None);
        };
        remaining.remove(&x);
        ring.insert(seg + 1, x);
        if reversed {
            ring.reverse();
        }
        longest = l;
    }
    log.finish(ev, *exact);
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
        let evals = report.counter("cluster/ring_evals").unwrap_or(0);
        let cut = report.counter("cluster/ring_evals_cut").unwrap_or(0);
        assert!(0 < cut && cut <= evals, "{cut} of {evals} evaluations cut");
        assert_eq!(report.phase("memo").map(|p| p.calls), Some(1));

        // D26's interval misses resume from the rounds an earlier bound
        // logged.
        let trace = onoc_trace::Trace::new();
        let ctx = ExecCtx::cached().with_trace(trace.clone());
        cluster_ctx(&benchmarks::d26(), &config(), &ctx).unwrap();
        let replayed = trace.report().counter("cluster/rounds_replayed");
        assert!(
            replayed.is_some_and(|r| r > 0),
            "{replayed:?} rounds replayed"
        );
    }

    #[test]
    fn memo_lookups_are_pinned() {
        // `memo/cluster_{grow,refine,inter}/{hits,misses}` of one
        // memo-backed run, in `MemoUnit::ALL` order: a key change that
        // merged or split memo entries would move them.
        let pinned = [
            (
                benchmarks::Benchmark::Mwd,
                [(1_929, 178), (409, 22), (701, 97)],
            ),
            (
                benchmarks::Benchmark::Pm8x32,
                [(1_241, 91), (591, 21), (1_588, 112)],
            ),
        ];
        for (b, want) in pinned {
            let trace = onoc_trace::Trace::new();
            let ctx = ExecCtx::cached().with_trace(trace.clone());
            cluster_ctx(&b.graph(), &config(), &ctx).unwrap();
            let report = trace.report();
            let count = |unit: MemoUnit, outcome: &str| {
                report
                    .counter(&format!("memo/{}/{outcome}", unit.name()))
                    .unwrap_or(0)
            };
            let got = MemoUnit::ALL.map(|unit| (count(unit, "hits"), count(unit, "misses")));
            assert_eq!(got, want, "{b}");
            let (hits, misses) = want
                .iter()
                .fold((0, 0), |(h, m), &(uh, um)| (h + uh, m + um));
            assert_eq!(report.counter("memo/hits"), Some(hits), "{b}");
            assert_eq!(report.counter("memo/misses"), Some(misses), "{b}");
        }
    }

    /// `g` rebuilt node by node, with `moved` (if any) at a new position
    /// and the messages `extra` appended.
    fn rebuilt(
        g: &CommGraph,
        moved: Option<(NodeId, onoc_graph::Point)>,
        extra: &[(NodeId, NodeId)],
    ) -> CommGraph {
        let mut b = CommGraph::builder().name(g.name());
        for v in g.node_ids() {
            let at = moved
                .filter(|&(m, _)| m == v)
                .map_or(g.position(v), |(_, p)| p);
            b = b.node(g.node_name(v), at);
        }
        for m in g
            .messages()
            .iter()
            .map(|m| (m.src, m.dst))
            .chain(extra.iter().copied())
        {
            b = b.message(m.0, m.1);
        }
        b.build().unwrap()
    }

    #[test]
    fn memo_keys_cover_exactly_their_unit() {
        let g = benchmarks::mwd();
        let n = g.node_count();
        let unit: BTreeSet<NodeId> = (0..6).map(NodeId).collect();
        let grow = |g: &CommGraph| grow_key(g, &mut RingEval::new(g), NodeId(0), &unit, n);
        let base = grow(&g);
        assert_eq!(grow(&rebuilt(&g, None, &[])), base);
        assert_ne!(
            grow_key(&g, &mut RingEval::new(&g), NodeId(1), &unit, n),
            base
        );
        assert_ne!(
            grow_key(&g, &mut RingEval::new(&g), NodeId(0), &unit, n - 1),
            base
        );

        // Moving a node of U changes the key; moving one outside it does not.
        let shifted = |v: usize| {
            let p = g.position(NodeId(v));
            Some((NodeId(v), onoc_graph::Point { x: p.x + 0.5, ..p }))
        };
        assert_ne!(grow(&rebuilt(&g, shifted(3), &[])), base);
        assert_eq!(grow(&rebuilt(&g, shifted(9), &[])), base);

        // A message with an endpoint outside U leaves the key as it is; a
        // new one inside U changes it.
        let absent = |inside_dst: bool| {
            let dsts: Vec<NodeId> = g
                .node_ids()
                .filter(|v| unit.contains(v) == inside_dst)
                .collect();
            let taken =
                |s: NodeId, d: NodeId| g.messages().iter().any(|m| (m.src, m.dst) == (s, d));
            unit.iter()
                .flat_map(|&s| dsts.iter().map(move |&d| (s, d)))
                .find(|&(s, d)| s != d && !taken(s, d))
                .unwrap()
        };
        assert_eq!(grow(&rebuilt(&g, None, &[absent(false)])), base);
        assert_ne!(grow(&rebuilt(&g, None, &[absent(true)])), base);

        // Reversing a cycle changes the refinement key.
        let ev = RingEval::new(&g);
        let cycle = Cycle::new(unit.iter().copied().collect()).unwrap();
        let on: Vec<(NodeId, NodeId)> = g
            .messages()
            .iter()
            .map(|m| (m.src, m.dst))
            .filter(|(s, d)| unit.contains(s) && unit.contains(d))
            .collect();
        assert!(!on.is_empty());
        let refine = refine_key(&ev, &cycle, &on);
        assert_ne!(refine_key(&ev, &cycle.reversed(), &on), refine);
        let nodes: Vec<NodeId> = unit.iter().copied().collect();
        let inter = inter_key(&ev, NodeId(0), &nodes, &on);
        assert_ne!(inter, refine, "the keys hash different inputs");

        // The same unit in MWD after a retarget outside U keys the same.
        let (id, s, d) = g
            .message_ids()
            .map(|id| (id, g.message(id)))
            .find(|(_, m)| !unit.contains(&m.src) && !unit.contains(&m.dst))
            .map(|(id, m)| (g.stable_id(id), m.dst, m.src))
            .unwrap();
        let retargeted = g
            .apply_delta(&onoc_graph::CommDelta::Retarget { id, src: s, dst: d })
            .unwrap();
        assert_ne!(retargeted.messages(), g.messages());
        let ev2 = RingEval::new(&retargeted);
        assert_eq!(grow(&retargeted), base);
        assert_eq!(refine_key(&ev2, &cycle, &on), refine);
        assert_eq!(inter_key(&ev2, NodeId(0), &nodes, &on), inter);
    }

    #[test]
    fn ring_evaluations_are_pinned() {
        // The number of orders the search loads on a memo-backed run, as
        // `sring-cli synth` clusters. Pruning abandons evaluations but
        // never skips one, a unit is recomputed exactly when no stored
        // interval admits its bound, and it replays exactly the logged
        // rounds the bound admits, so any change here means the search,
        // the intervals or the round logs changed.
        let pinned = [10_899, 41_486, 22_435, 989_165, 4_113, 8_845, 7_174];
        assert_eq!(clustered().len(), pinned.len());
        for ((b, plain), want) in clustered().iter().zip(pinned) {
            let trace = onoc_trace::Trace::new();
            let ctx = ExecCtx::cached().with_trace(trace.clone());
            assert_eq!(cluster_ctx(&b.graph(), &config(), &ctx).as_ref(), Ok(plain));
            assert_eq!(
                trace.report().counter("cluster/ring_evals"),
                Some(want),
                "{b}"
            );
        }
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
                let (reversed, longest) = ev.unbounded_orientation(&messages);
                let (oriented, oracle_longest) = best_orientation(&cycle, &messages, &dist);
                prop_assert_eq!(reversed, oriented != cycle);
                prop_assert_eq!(longest.to_bits(), oracle_longest.to_bits());
                let bits = |s: Option<(f64, f64, f64)>| {
                    s.map(|(p, l, t)| (p.to_bits(), l.to_bits(), t.to_bits()))
                };
                prop_assert_eq!(
                    bits(ev.score(&messages, f64::INFINITY)),
                    bits(oracle_score(order, &messages, &dist))
                );
            }

            #[test]
            fn prop_bounded_evaluation_is_exact(
                coords in proptest::collection::vec(-7.0f64..7.0, 2 * EVAL_NODES),
                keys in proptest::collection::vec(0u64..1_000_000, EVAL_NODES),
                len in 3usize..21,
                pairs in proptest::collection::vec((0usize..EVAL_NODES, 1usize..EVAL_NODES), 0..40),
                self_message in 0usize..8,
                scale in 0.25f64..4.0,
            ) {
                let mut builder = CommGraph::builder();
                for (v, xy) in coords.chunks(2).enumerate() {
                    builder = builder.node(format!("n{v}"), onoc_graph::Point::new(xy[0], xy[1]));
                }
                let g = builder.build().unwrap();
                let mut nodes: Vec<NodeId> = g.node_ids().collect();
                nodes.sort_by_key(|v| (keys[v.index()], *v));
                let order = &nodes[..len];
                let mut messages: Vec<(NodeId, NodeId)> = pairs
                    .iter()
                    .map(|&(s, off)| (NodeId(s), NodeId((s + off) % EVAL_NODES)))
                    .collect();
                if self_message == 0 {
                    messages.push((order[len / 2], order[len / 2]));
                }
                let mut ev = RingEval::new(&g);
                ev.load(order);
                let bits = |s: Option<(f64, f64, f64)>| {
                    s.map(|(p, l, t)| (p.to_bits(), l.to_bits(), t.to_bits()))
                };

                // Orientation: the unbounded bits, or `Err` only when the
                // unbounded longest path exceeds the cutoff, carrying a
                // bound between the two.
                let free = ev.orientation(&messages, f64::INFINITY);
                let (_, longest) = free.expect("an unbounded walk is never abandoned");
                for cutoff in [longest, longest.next_up(), longest.next_down(), longest * scale] {
                    match ev.orientation(&messages, cutoff) {
                        Ok(o) => prop_assert_eq!(
                            Ok((o.0, o.1.to_bits())),
                            free.map(|f| (f.0, f.1.to_bits()))
                        ),
                        Err(at_least) => prop_assert!(
                            cutoff < at_least && at_least <= longest,
                            "{longest} cut at {cutoff} with bound {at_least}"
                        ),
                    }
                }
                // The greedy's cutoff against a best: past it, every
                // length loses by more than 1e-12; at it, none does.
                let c = loses_above(longest);
                if longest.is_finite() {
                    prop_assert!(c - longest <= 1e-12);
                    prop_assert!(c.next_up() - longest > 1e-12);
                } else {
                    prop_assert_eq!(c, f64::INFINITY);
                }

                // Score: the unbounded triple's bits, or `None` only when
                // the unbounded result is `None` or loses to a current
                // score of `cap` by more than 1e-12.
                let free = ev.score(&messages, f64::INFINITY);
                let proxy = free.map_or(1.0, |f| f.0);
                for cap in [proxy, proxy.next_up(), proxy.next_down(), proxy * scale] {
                    let bounded = ev.score(&messages, cap);
                    match (bounded, free) {
                        (None, Some(f)) => prop_assert!(f.0 - cap > 1e-12, "{} cut at {cap}", f.0),
                        _ => prop_assert_eq!(bits(bounded), bits(free)),
                    }
                }
            }

            #[test]
            fn prop_insertion_trials_match_a_loaded_trial_bit_for_bit(
                coords in proptest::collection::vec(-7.0f64..7.0, 2 * EVAL_NODES),
                keys in proptest::collection::vec(0u64..1_000_000, EVAL_NODES),
                len in 2usize..13,
                pairs in proptest::collection::vec((0usize..64, 0usize..64), 0..30),
                self_message in 0usize..8,
            ) {
                let mut builder = CommGraph::builder();
                for (v, xy) in coords.chunks(2).enumerate() {
                    builder = builder.node(format!("n{v}"), onoc_graph::Point::new(xy[0], xy[1]));
                }
                let g = builder.build().unwrap();
                let mut nodes: Vec<NodeId> = g.node_ids().collect();
                nodes.sort_by_key(|v| (keys[v.index()], *v));
                // The base ring, the inserted node `x`, and two nodes off
                // both: message ends are drawn from all of them, never
                // equal; a self-message is added apart.
                let (ring, x) = (&nodes[..len], nodes[len]);
                let drawn = &nodes[..len + 3];
                let m = drawn.len();
                let mut messages: Vec<(NodeId, NodeId)> = pairs
                    .iter()
                    .map(|&(s, off)| (drawn[s % m], drawn[(s % m + 1 + off % (m - 1)) % m]))
                    .collect();
                match self_message {
                    0 => messages.push((x, x)),
                    1 => messages.push((ring[len / 2], ring[len / 2])),
                    2 => messages.push((drawn[len + 1], drawn[len + 1])),
                    _ => {}
                }

                let mut ev = RingEval::new(&g);
                let mut oracle = RingEval::new(&g);
                ev.set_messages(&messages);
                ev.set_base(ring);
                ev.candidate(x);
                let bits = |r: Result<(bool, f64), f64>| {
                    r.map(|(o, l)| (o, l.to_bits())).map_err(f64::to_bits)
                };
                for p in 0..len {
                    let mut trial = ring.to_vec();
                    trial.insert(p + 1, x);
                    oracle.load(&trial);
                    let (_, exact) = oracle.unbounded_orientation(&messages);
                    for cutoff in [f64::INFINITY, exact, exact.next_up(), exact.next_down()] {
                        let (evals, cut) = (ev.evals, ev.cut);
                        let got = ev.insertion(p, cutoff);
                        let (oracle_evals, oracle_cut) = (oracle.evals, oracle.cut);
                        oracle.load(&trial);
                        let want = oracle.orientation(&messages, cutoff);
                        prop_assert_eq!(bits(got), bits(want), "p {} cutoff {}", p, cutoff);
                        prop_assert_eq!(
                            (ev.evals - evals, ev.cut - cut),
                            (oracle.evals - oracle_evals, oracle.cut - oracle_cut)
                        );
                    }
                }
            }

        }

        /// One memoized construction unit with inputs fixed independently
        /// of the bound, as the exactness property runs it.
        enum Unit {
            Grow(NodeId, BTreeSet<NodeId>, usize),
            Refine(Cycle, Vec<(NodeId, NodeId)>),
            Inter(NodeId, Vec<NodeId>, Vec<(NodeId, NodeId)>),
        }

        impl Unit {
            /// The unit's result under `bound` as bits, with its interval.
            /// A growth unit runs under its memo key, so it resumes from
            /// the round log an earlier run of it left in `ev`.
            fn run(&self, g: &CommGraph, ev: &mut RingEval, bound: f64) -> (String, Exact) {
                let ids = |v: &[NodeId]| v.iter().map(|n| n.index()).collect::<Vec<_>>();
                let ring = |c: &Cycle, l: f64| format!("{:?} {:x}", ids(c.nodes()), l.to_bits());
                let mut exact = Exact::ALL;
                let ctx = ExecCtx::new();
                let bits = match self {
                    Unit::Grow(initial, unclustered, cap) => {
                        let key = grow_key(g, ev, *initial, unclustered, *cap);
                        grow_intra(g, ev, key, *initial, unclustered, bound, *cap, &mut exact)
                            .unwrap()
                            .map(|c| {
                                let r = c.ring.map(|r| ids(r.nodes()));
                                format!("{:?} {r:?} {:x}", ids(&c.members), c.longest.to_bits())
                            })
                    }
                    Unit::Refine(cycle, msgs) => {
                        let (c, l) =
                            improve_cycle(ev, cycle, msgs, bound, &ctx, &mut exact).unwrap();
                        Some(ring(&c, l))
                    }
                    Unit::Inter(initial, v_inter, msgs) => {
                        let key = inter_key(ev, *initial, v_inter, msgs);
                        grow_inter(ev, key, *initial, v_inter, msgs, bound, &mut exact)
                            .unwrap()
                            .map(|(c, l)| ring(&c, l))
                    }
                };
                (format!("{bits:?}"), exact)
            }
        }

        /// The units the exactness property checks on `g`: growth from
        /// every vertex over all nodes (two size caps) and over `subset`,
        /// inter-ring growth from every communicating vertex, and the
        /// refinement of a few unbounded rings.
        fn units(g: &CommGraph, ev: &mut RingEval, subset: &BTreeSet<NodeId>) -> Vec<Unit> {
            let n = g.node_count();
            let all: BTreeSet<NodeId> = g.node_ids().collect();
            let msgs: Vec<(NodeId, NodeId)> = g.messages().iter().map(|m| (m.src, m.dst)).collect();
            let v_inter: Vec<NodeId> = g
                .node_ids()
                .filter(|&v| !g.neighbors(v).is_empty())
                .collect();
            let mut units = Vec::new();
            for v in g.node_ids() {
                units.push(Unit::Grow(v, all.clone(), n));
                units.push(Unit::Grow(v, all.clone(), n.div_ceil(3)));
                if subset.contains(&v) {
                    units.push(Unit::Grow(v, subset.clone(), n));
                }
            }
            for &v in &v_inter {
                units.push(Unit::Inter(v, v_inter.clone(), msgs.clone()));
            }
            let mut exact = Exact::ALL;
            for v in g.node_ids().step_by(5) {
                let key = grow_key(g, ev, v, &all, n);
                if let Ok(Some(GrownCluster {
                    members,
                    ring: Some(ring),
                    ..
                })) = grow_intra(g, ev, key, v, &all, f64::INFINITY, n, &mut exact)
                {
                    let on: Vec<(NodeId, NodeId)> = msgs
                        .iter()
                        .copied()
                        .filter(|(s, d)| members.contains(s) && members.contains(d))
                        .collect();
                    units.push(Unit::Refine(ring, on));
                }
            }
            let key = inter_key(ev, v_inter[0], &v_inter, &msgs);
            if let Ok(Some((ring, _))) = grow_inter(
                ev,
                key,
                v_inter[0],
                &v_inter,
                &msgs,
                f64::INFINITY,
                &mut exact,
            ) {
                units.push(Unit::Refine(ring, msgs.clone()));
            }
            units
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_unit_intervals_are_exact(
                nodes in 6usize..17,
                density in 0usize..3,
                seed in 0u64..1_000_000,
                mask in 0u64..u64::MAX,
                first in 0usize..1_000,
                then in 0usize..1_000,
                other in 0usize..1_000,
            ) {
                // Whenever a unit's interval under bound `a` admits bound
                // `b`, the unit recomputed under `b` gives the same bits.
                // `a` is a candidate L_max, or an end of an interval
                // recorded under one (or a neighbouring float), where
                // path lengths sit right at the bound's thresholds; `b`
                // is each of the interval's own ends, and a draw from the
                // same pool.
                let messages = (nodes * (2 + density)).min(nodes * (nodes - 1));
                let g = synth::random_app(nodes, messages, seed, Millimeters(0.3));
                let subset: BTreeSet<NodeId> =
                    g.node_ids().filter(|v| mask >> (v.index() % 64) & 1 == 1).collect();
                let mut ev = RingEval::new(&g);
                let units = units(&g, &mut ev, &subset);
                let mut pool = l_max_candidates(&g, &ClusteringConfig::default(), &mut ev);
                pool.push(f64::INFINITY);
                let a0 = pool[first % pool.len()];
                for unit in &units {
                    let (_, e) = unit.run(&g, &mut ev, a0);
                    for end in [e.lo, e.hi] {
                        pool.extend([end, end.next_up(), end.next_down()]);
                    }
                }
                let a = pool[then % pool.len()];
                let b = pool[other % pool.len()];
                for unit in &units {
                    let (bits, e) = unit.run(&g, &mut ev, a);
                    prop_assert!(e.admits(a), "{e:?} must admit its own bound {a}");
                    for b in [e.lo, e.hi, b] {
                        if e.admits(b) {
                            let (again, _) = unit.run(&g, &mut ev, b);
                            prop_assert_eq!(&again, &bits, "bound {} admitted by {:?} from {}", b, e, a);
                        }
                    }
                }
            }

            #[test]
            fn prop_resumed_growth_matches_a_cold_run(
                nodes in 6usize..17,
                density in 0usize..3,
                seed in 0u64..1_000_000,
                mask in 0u64..u64::MAX,
                first in 0usize..1_000,
                then in 0usize..1_000,
                other in 0usize..1_000,
            ) {
                // A growth unit run under bound `a` logs its rounds; run
                // again under `b` on the same evaluator, it resumes from
                // them. It must give the bits a fresh evaluator gives
                // under `b`, with an interval that admits `b` and whose
                // ends give those bits too. `a` and one `b` are drawn as
                // in `prop_unit_intervals_are_exact`; the other `b`s sit
                // just past either end of the interval under `a` (above
                // it, a resumed unit replays its logged prefix; below it,
                // nothing), and at `∞`.
                let messages = (nodes * (2 + density)).min(nodes * (nodes - 1));
                let g = synth::random_app(nodes, messages, seed, Millimeters(0.3));
                let subset: BTreeSet<NodeId> =
                    g.node_ids().filter(|v| mask >> (v.index() % 64) & 1 == 1).collect();
                let fresh = || RingEval::new(&g);
                let mut units = units(&g, &mut fresh(), &subset);
                units.retain(|unit| !matches!(unit, Unit::Refine(..)));
                let mut pool = l_max_candidates(&g, &ClusteringConfig::default(), &mut fresh());
                pool.push(f64::INFINITY);
                let a0 = pool[first % pool.len()];
                for unit in &units {
                    let (_, e) = unit.run(&g, &mut fresh(), a0);
                    for end in [e.lo, e.hi] {
                        pool.extend([end, end.next_up(), end.next_down()]);
                    }
                }
                let a = pool[then % pool.len()];
                let drawn = pool[other % pool.len()];
                for unit in &units {
                    let (_, ea) = unit.run(&g, &mut fresh(), a);
                    for b in [drawn, ea.hi.next_up(), ea.lo.next_down(), f64::INFINITY] {
                        let mut ev = fresh();
                        unit.run(&g, &mut ev, a);
                        let (resumed, e) = unit.run(&g, &mut ev, b);
                        let (cold, _) = unit.run(&g, &mut fresh(), b);
                        prop_assert_eq!(&resumed, &cold, "bound {} resumed from {}", b, a);
                        prop_assert!(e.admits(b), "{e:?} must admit {b}, resumed from {a}");
                        for end in [e.lo, e.hi] {
                            let (at_end, _) = unit.run(&g, &mut fresh(), end);
                            prop_assert_eq!(&at_end, &cold, "end {} of {:?}, bound {} from {}", end, e, b, a);
                        }
                    }
                }
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
