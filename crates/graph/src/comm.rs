//! The communication-requirement graph consumed by every synthesis method.

use crate::node::{NodeId, Point};
use onoc_units::Millimeters;
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a directed message (a required sender→receiver channel).
///
/// Messages are dense indices `0..m` into their owning [`CommGraph`]. The
/// paper's `#M` column counts these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MessageId(pub usize);

// Ordered by hand: a derived `PartialOrd` calls `partial_cmp`, which
// clippy's L2 entry disallows (DESIGN.md §12).
impl Ord for MessageId {
    #[inline]
    fn cmp(&self, other: &MessageId) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for MessageId {
    #[inline]
    fn partial_cmp(&self, other: &MessageId) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl MessageId {
    /// The dense index of this message.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Stable identifier of a message: assigned once (at build time or when a
/// delta adds the message) and never reused, so it survives edits that
/// shift the dense [`MessageId`] indices. Deltas address messages by their
/// stable id; everything content-addressed (hashing, caching) ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StableMessageId(pub u64);

// Ordered by hand: a derived `PartialOrd` calls `partial_cmp`, which
// clippy's L2 entry disallows (DESIGN.md §12).
impl Ord for StableMessageId {
    #[inline]
    fn cmp(&self, other: &StableMessageId) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for StableMessageId {
    #[inline]
    fn partial_cmp(&self, other: &StableMessageId) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for StableMessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A required point-to-point communication: `src` must be able to transmit
/// to `dst` on a dedicated, collision-free signal path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Message {
    /// The sending node.
    pub src: NodeId,
    /// The receiving node.
    pub dst: NodeId,
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.src, self.dst)
    }
}

/// A communication-requirement graph: named, placed nodes plus the directed
/// messages the application needs. This is the graph `G = (V, E)` of the
/// paper's Sec. III-A (the paper's `E` is the undirected projection of the
/// message set, available via [`CommGraph::undirected_edges`]).
///
/// # Examples
///
/// ```
/// use onoc_graph::{CommGraph, Point};
///
/// # fn main() -> Result<(), onoc_graph::BuildGraphError> {
/// let g = CommGraph::builder()
///     .node("a", Point::new(0.0, 0.0))
///     .node("b", Point::new(1.0, 0.0))
///     .message_by_name("a", "b")
///     .build()?;
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.neighbors(onoc_graph::NodeId(0)), &[onoc_graph::NodeId(1)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CommGraph {
    name: String,
    node_names: Vec<String>,
    positions: Vec<Point>,
    pub(crate) messages: Vec<Message>,
    /// Relative bandwidth demand per message (parallel to `messages`,
    /// default `1.0`). Finite and strictly positive.
    pub(crate) bandwidths: Vec<f64>,
    /// Stable handle per message (parallel to `messages`); see
    /// [`StableMessageId`].
    pub(crate) stable_ids: Vec<u64>,
    /// The next stable id to hand out; monotone, never reused.
    pub(crate) next_stable: u64,
    /// Undirected adjacency: `adjacency[v]` lists every node that exchanges
    /// at least one message with `v`, sorted ascending.
    pub(crate) adjacency: Vec<Vec<NodeId>>,
}

impl CommGraph {
    /// Starts building a graph. See [`CommGraphBuilder`].
    #[must_use]
    pub fn builder() -> CommGraphBuilder {
        CommGraphBuilder::new()
    }

    /// The human-readable benchmark name (e.g. `"MWD"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes (`#N` of Table I).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of directed messages (`#M` of Table I).
    #[must_use]
    pub fn message_count(&self) -> usize {
        self.messages.len()
    }

    /// All node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len()).map(NodeId)
    }

    /// The placement of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this graph.
    #[must_use]
    pub fn position(&self, node: NodeId) -> Point {
        self.positions[node.0]
    }

    /// The name of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this graph.
    #[must_use]
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0]
    }

    /// Looks a node up by name.
    #[must_use]
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.node_names.iter().position(|n| n == name).map(NodeId)
    }

    /// The directed messages, in id order.
    #[must_use]
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// The message with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this graph.
    #[must_use]
    pub fn message(&self, id: MessageId) -> Message {
        self.messages[id.0]
    }

    /// All message ids in index order.
    pub fn message_ids(&self) -> impl Iterator<Item = MessageId> + '_ {
        (0..self.messages.len()).map(MessageId)
    }

    /// The relative bandwidth demand of a message (default `1.0`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this graph.
    #[must_use]
    pub fn bandwidth(&self, id: MessageId) -> f64 {
        self.bandwidths[id.0]
    }

    /// Per-message bandwidth demands, in id order.
    #[must_use]
    pub fn bandwidths(&self) -> &[f64] {
        &self.bandwidths
    }

    /// The stable handle of a message; see [`StableMessageId`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this graph.
    #[must_use]
    pub fn stable_id(&self, id: MessageId) -> StableMessageId {
        StableMessageId(self.stable_ids[id.0])
    }

    /// Resolves a stable handle back to the current dense [`MessageId`];
    /// `None` if the message has been removed (or never existed).
    #[must_use]
    pub fn message_by_stable(&self, stable: StableMessageId) -> Option<MessageId> {
        self.stable_ids
            .iter()
            .position(|&s| s == stable.0)
            .map(MessageId)
    }

    /// Recomputes the undirected adjacency lists from the message set.
    /// Called after construction and after every structural delta.
    pub(crate) fn rebuild_adjacency(&mut self) {
        let n = self.positions.len();
        let mut adjacency = vec![BTreeSet::new(); n];
        for m in &self.messages {
            adjacency[m.src.0].insert(m.dst);
            adjacency[m.dst.0].insert(m.src);
        }
        self.adjacency = adjacency
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect();
    }

    /// The communication partners of `node` (undirected), sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this graph.
    #[must_use]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.0]
    }

    /// The undirected projection of the message set: every unordered pair of
    /// nodes that exchanges at least one message. This is the edge set `E` of
    /// the paper's clustering graph.
    #[must_use]
    pub fn undirected_edges(&self) -> BTreeSet<(NodeId, NodeId)> {
        self.messages
            .iter()
            .map(|m| {
                if m.src <= m.dst {
                    (m.src, m.dst)
                } else {
                    (m.dst, m.src)
                }
            })
            .collect()
    }

    /// Manhattan distance between two placed nodes.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range for this graph.
    #[must_use]
    pub fn manhattan(&self, a: NodeId, b: NodeId) -> Millimeters {
        self.position(a).manhattan(self.position(b))
    }

    /// The maximum Manhattan distance over all communicating pairs: the
    /// lower end `d₁` of the paper's `L_max` search interval.
    ///
    /// Returns `Millimeters(0.0)` when the graph has no messages.
    #[must_use]
    pub fn max_communicating_distance(&self) -> Millimeters {
        self.messages
            .iter()
            .map(|m| self.manhattan(m.src, m.dst))
            .fold(Millimeters(0.0), Millimeters::max)
    }

    /// The communication density `#M / #N` the paper uses to discuss
    /// wavelength usage.
    ///
    /// Returns `0.0` for an empty graph.
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.positions.is_empty() {
            0.0
        } else {
            self.messages.len() as f64 / self.positions.len() as f64
        }
    }

    /// The bounding box of the placement as `(min, max)` corner points.
    ///
    /// Returns two origin points when the graph has no nodes.
    #[must_use]
    pub fn bounding_box(&self) -> (Point, Point) {
        if self.positions.is_empty() {
            return (Point::default(), Point::default());
        }
        let mut min = self.positions[0];
        let mut max = self.positions[0];
        for p in &self.positions {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        (min, max)
    }
}

impl fmt::Display for CommGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (#N = {}, #M = {})",
            self.name,
            self.node_count(),
            self.message_count()
        )
    }
}

/// Incremental builder for [`CommGraph`].
///
/// Nodes are added first (each gets the next dense [`NodeId`]); messages can
/// reference nodes by id or by name. [`CommGraphBuilder::build`] validates
/// the whole graph.
#[derive(Debug, Clone, Default)]
pub struct CommGraphBuilder {
    name: String,
    node_names: Vec<String>,
    positions: Vec<Point>,
    messages: Vec<Message>,
    bandwidths: Vec<f64>,
    pending_named: Vec<(String, String)>,
}

impl CommGraphBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the benchmark name.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Adds a node with the given name and position, assigning the next id.
    #[must_use]
    pub fn node(mut self, name: impl Into<String>, position: Point) -> Self {
        self.node_names.push(name.into());
        self.positions.push(position);
        self
    }

    /// Adds a directed message between node ids with the default bandwidth
    /// demand of `1.0`.
    #[must_use]
    pub fn message(self, src: NodeId, dst: NodeId) -> Self {
        self.message_weighted(src, dst, 1.0)
    }

    /// Adds a directed message between node ids with an explicit relative
    /// bandwidth demand (validated at [`CommGraphBuilder::build`] time:
    /// finite and strictly positive).
    #[must_use]
    pub fn message_weighted(mut self, src: NodeId, dst: NodeId, bandwidth: f64) -> Self {
        self.messages.push(Message { src, dst });
        self.bandwidths.push(bandwidth);
        self
    }

    /// Adds a directed message between named nodes; resolved at
    /// [`CommGraphBuilder::build`] time.
    #[must_use]
    pub fn message_by_name(mut self, src: impl Into<String>, dst: impl Into<String>) -> Self {
        self.pending_named.push((src.into(), dst.into()));
        self
    }

    /// Finishes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`BuildGraphError`] if a message references an unknown node,
    /// a message is a self-loop, two nodes share a name, two nodes share a
    /// position, or the same directed message appears twice.
    pub fn build(mut self) -> Result<CommGraph, BuildGraphError> {
        // Resolve named messages.
        let pending = std::mem::take(&mut self.pending_named);
        for (src, dst) in pending {
            let s = self
                .node_names
                .iter()
                .position(|n| *n == src)
                .ok_or_else(|| BuildGraphError::UnknownNode(src.clone()))?;
            let d = self
                .node_names
                .iter()
                .position(|n| *n == dst)
                .ok_or_else(|| BuildGraphError::UnknownNode(dst.clone()))?;
            self.messages.push(Message {
                src: NodeId(s),
                dst: NodeId(d),
            });
            self.bandwidths.push(1.0);
        }

        let n = self.positions.len();
        let mut seen_names = BTreeSet::new();
        for name in &self.node_names {
            if !seen_names.insert(name.clone()) {
                return Err(BuildGraphError::DuplicateNodeName(name.clone()));
            }
        }
        for (i, a) in self.positions.iter().enumerate() {
            for b in &self.positions[i + 1..] {
                if a.manhattan(*b).0 < 1e-12 {
                    return Err(BuildGraphError::OverlappingNodes(NodeId(i)));
                }
            }
        }
        let mut seen_msgs = BTreeSet::new();
        for m in &self.messages {
            if m.src.0 >= n {
                return Err(BuildGraphError::NodeOutOfRange(m.src));
            }
            if m.dst.0 >= n {
                return Err(BuildGraphError::NodeOutOfRange(m.dst));
            }
            if m.src == m.dst {
                return Err(BuildGraphError::SelfLoop(m.src));
            }
            if !seen_msgs.insert((m.src, m.dst)) {
                return Err(BuildGraphError::DuplicateMessage(*m));
            }
        }
        for (i, &bw) in self.bandwidths.iter().enumerate() {
            if !(bw.is_finite() && bw > 0.0) {
                return Err(BuildGraphError::InvalidBandwidth(MessageId(i), bw));
            }
        }

        let message_count = self.messages.len() as u64;
        let mut graph = CommGraph {
            name: if self.name.is_empty() {
                "unnamed".to_string()
            } else {
                self.name
            },
            node_names: self.node_names,
            positions: self.positions,
            messages: self.messages,
            bandwidths: self.bandwidths,
            stable_ids: (0..message_count).collect(),
            next_stable: message_count,
            adjacency: Vec::new(),
        };
        graph.rebuild_adjacency();
        Ok(graph)
    }
}

/// Error building a [`CommGraph`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BuildGraphError {
    /// A named message referenced a node name that was never added.
    UnknownNode(String),
    /// A message referenced a node id beyond the node count.
    NodeOutOfRange(NodeId),
    /// A node would have to send a message to itself.
    SelfLoop(NodeId),
    /// The same directed message was added twice.
    DuplicateMessage(Message),
    /// Two nodes share a name.
    DuplicateNodeName(String),
    /// Two nodes share a physical position.
    OverlappingNodes(NodeId),
    /// A message's bandwidth demand is not finite and strictly positive.
    InvalidBandwidth(MessageId, f64),
}

impl fmt::Display for BuildGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildGraphError::UnknownNode(n) => write!(f, "unknown node name `{n}`"),
            BuildGraphError::NodeOutOfRange(n) => write!(f, "node id {n} out of range"),
            BuildGraphError::SelfLoop(n) => write!(f, "self-loop message at node {n}"),
            BuildGraphError::DuplicateMessage(m) => write!(f, "duplicate message {m}"),
            BuildGraphError::DuplicateNodeName(n) => write!(f, "duplicate node name `{n}`"),
            BuildGraphError::OverlappingNodes(n) => {
                write!(f, "node {n} overlaps another node's position")
            }
            BuildGraphError::InvalidBandwidth(m, bw) => {
                write!(f, "message {m} has invalid bandwidth {bw}")
            }
        }
    }
}

impl std::error::Error for BuildGraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_graph() -> CommGraph {
        CommGraph::builder()
            .name("t")
            .node("a", Point::new(0.0, 0.0))
            .node("b", Point::new(1.0, 2.0))
            .message(NodeId(0), NodeId(1))
            .build()
            .expect("valid graph")
    }

    #[test]
    fn counts_and_lookup() {
        let g = two_node_graph();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.message_count(), 1);
        assert_eq!(g.node_by_name("b"), Some(NodeId(1)));
        assert_eq!(g.node_by_name("zz"), None);
        assert_eq!(g.node_name(NodeId(0)), "a");
        assert_eq!(
            g.message(MessageId(0)),
            Message {
                src: NodeId(0),
                dst: NodeId(1)
            }
        );
    }

    #[test]
    fn adjacency_is_undirected_and_sorted() {
        let g = CommGraph::builder()
            .node("a", Point::new(0.0, 0.0))
            .node("b", Point::new(1.0, 0.0))
            .node("c", Point::new(2.0, 0.0))
            .message(NodeId(2), NodeId(0))
            .message(NodeId(0), NodeId(1))
            .build()
            .unwrap();
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.neighbors(NodeId(1)), &[NodeId(0)]);
        assert_eq!(g.neighbors(NodeId(2)), &[NodeId(0)]);
    }

    #[test]
    fn undirected_edges_merge_directions() {
        let g = CommGraph::builder()
            .node("a", Point::new(0.0, 0.0))
            .node("b", Point::new(1.0, 0.0))
            .message(NodeId(0), NodeId(1))
            .message(NodeId(1), NodeId(0))
            .build()
            .unwrap();
        assert_eq!(g.undirected_edges().len(), 1);
        assert_eq!(g.message_count(), 2);
    }

    #[test]
    fn max_communicating_distance_ignores_non_communicating() {
        let g = CommGraph::builder()
            .node("a", Point::new(0.0, 0.0))
            .node("b", Point::new(1.0, 0.0))
            .node("far", Point::new(100.0, 100.0))
            .message(NodeId(0), NodeId(1))
            .build()
            .unwrap();
        assert_eq!(g.max_communicating_distance(), Millimeters(1.0));
    }

    #[test]
    fn density_and_bbox() {
        let g = two_node_graph();
        assert!((g.density() - 0.5).abs() < 1e-12);
        let (min, max) = g.bounding_box();
        assert_eq!((min.x, min.y), (0.0, 0.0));
        assert_eq!((max.x, max.y), (1.0, 2.0));
    }

    #[test]
    fn named_messages_resolve() {
        let g = CommGraph::builder()
            .node("x", Point::new(0.0, 0.0))
            .node("y", Point::new(1.0, 0.0))
            .message_by_name("x", "y")
            .build()
            .unwrap();
        assert_eq!(
            g.messages()[0],
            Message {
                src: NodeId(0),
                dst: NodeId(1)
            }
        );
    }

    #[test]
    fn rejects_unknown_name() {
        let err = CommGraph::builder()
            .node("x", Point::new(0.0, 0.0))
            .message_by_name("x", "nope")
            .build()
            .unwrap_err();
        assert_eq!(err, BuildGraphError::UnknownNode("nope".into()));
    }

    #[test]
    fn rejects_self_loop() {
        let err = CommGraph::builder()
            .node("x", Point::new(0.0, 0.0))
            .message(NodeId(0), NodeId(0))
            .build()
            .unwrap_err();
        assert_eq!(err, BuildGraphError::SelfLoop(NodeId(0)));
    }

    #[test]
    fn rejects_out_of_range() {
        let err = CommGraph::builder()
            .node("x", Point::new(0.0, 0.0))
            .message(NodeId(0), NodeId(3))
            .build()
            .unwrap_err();
        assert_eq!(err, BuildGraphError::NodeOutOfRange(NodeId(3)));
    }

    #[test]
    fn rejects_duplicate_message() {
        let err = CommGraph::builder()
            .node("x", Point::new(0.0, 0.0))
            .node("y", Point::new(1.0, 0.0))
            .message(NodeId(0), NodeId(1))
            .message(NodeId(0), NodeId(1))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildGraphError::DuplicateMessage(_)));
    }

    #[test]
    fn rejects_duplicate_name_and_overlap() {
        let err = CommGraph::builder()
            .node("x", Point::new(0.0, 0.0))
            .node("x", Point::new(1.0, 0.0))
            .build()
            .unwrap_err();
        assert_eq!(err, BuildGraphError::DuplicateNodeName("x".into()));

        let err = CommGraph::builder()
            .node("x", Point::new(0.0, 0.0))
            .node("y", Point::new(0.0, 0.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildGraphError::OverlappingNodes(_)));
    }

    #[test]
    fn display_summary() {
        let g = two_node_graph();
        assert_eq!(g.to_string(), "t (#N = 2, #M = 1)");
        assert_eq!(MessageId(3).to_string(), "m3");
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = CommGraph::builder().build().unwrap();
        assert_eq!(g.density(), 0.0);
        assert_eq!(g.max_communicating_distance(), Millimeters(0.0));
        assert_eq!(g.name(), "unnamed");
    }
}
