//! Synthetic application generators for scalability studies and testing.
//!
//! The paper evaluates on seven fixed benchmarks; downstream users of a
//! synthesis tool also want to know how it scales. This module generates
//! families of applications with controlled size and structure:
//! pipelines, hub-and-spoke (accelerator-style), neighbour meshes, and
//! seeded random graphs. All generators are deterministic.

use crate::comm::CommGraph;
use crate::node::NodeId;
use crate::placement::GridPlacement;
use onoc_units::Millimeters;

/// A feed-forward pipeline of `stages` nodes snaking over a near-square
/// grid, with a feedback message from the last stage to the first.
///
/// # Panics
///
/// Panics if `stages < 2` or `pitch` is not positive.
///
/// # Examples
///
/// ```
/// use onoc_graph::synth::pipeline;
/// use onoc_units::Millimeters;
///
/// let app = pipeline(6, Millimeters(0.3));
/// assert_eq!(app.node_count(), 6);
/// assert_eq!(app.message_count(), 6); // 5 chain hops + feedback
/// ```
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "the fn's asserts admit only distinct nodes and distinct, non-self-loop messages"
)]
pub fn pipeline(stages: usize, pitch: Millimeters) -> CommGraph {
    assert!(stages >= 2, "a pipeline needs at least two stages");
    let cols = (stages as f64).sqrt().ceil() as usize;
    let rows = stages.div_ceil(cols);
    let grid = GridPlacement::new(cols, rows, pitch);
    let order = grid.serpentine_order();
    let mut b = CommGraph::builder().name(format!("pipeline-{stages}"));
    for (i, &(c, r)) in order.iter().take(stages).enumerate() {
        b = b.node(format!("s{i}"), grid.position(c, r));
    }
    for i in 0..stages - 1 {
        b = b.message(NodeId(i), NodeId(i + 1));
    }
    b = b.message(NodeId(stages - 1), NodeId(0));
    b.build().expect("pipeline is valid")
}

/// A hub-and-spoke application: one controller exchanging messages with
/// `spokes` workers arranged around it on a grid.
///
/// # Panics
///
/// Panics if `spokes == 0` or `pitch` is not positive.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "the fn's asserts admit only distinct nodes and distinct, non-self-loop messages"
)]
pub fn hub_spoke(spokes: usize, pitch: Millimeters) -> CommGraph {
    assert!(spokes >= 1, "hub-and-spoke needs at least one spoke");
    let n = spokes + 1;
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    let grid = GridPlacement::new(cols, rows, pitch);
    // Put the hub on the most central tile.
    let centre = (cols / 2, rows / 2);
    let mut tiles: Vec<(usize, usize)> = grid
        .serpentine_order()
        .into_iter()
        .filter(|&t| t != centre)
        .take(spokes)
        .collect();
    tiles.insert(0, centre);
    let mut b = CommGraph::builder().name(format!("hub-{spokes}"));
    for (i, &(c, r)) in tiles.iter().enumerate() {
        let name = if i == 0 {
            "hub".to_string()
        } else {
            format!("w{i}")
        };
        b = b.node(name, grid.position(c, r));
    }
    for i in 1..=spokes {
        b = b
            .message(NodeId(0), NodeId(i))
            .message(NodeId(i), NodeId(0));
    }
    b.build().expect("hub-and-spoke is valid")
}

/// A `cols × rows` mesh where every node sends to its right and upper
/// neighbour (local, feed-forward traffic).
///
/// # Panics
///
/// Panics if the grid has fewer than two tiles or `pitch` is not positive.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "the fn's asserts admit only distinct nodes and distinct, non-self-loop messages"
)]
pub fn neighbor_mesh(cols: usize, rows: usize, pitch: Millimeters) -> CommGraph {
    assert!(cols * rows >= 2, "mesh needs at least two nodes");
    let grid = GridPlacement::new(cols, rows, pitch);
    let mut b = CommGraph::builder().name(format!("mesh-{cols}x{rows}"));
    for r in 0..rows {
        for c in 0..cols {
            b = b.node(format!("m{c}_{r}"), grid.position(c, r));
        }
    }
    let id = |c: usize, r: usize| NodeId(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b = b.message(id(c, r), id(c + 1, r));
            }
            if r + 1 < rows {
                b = b.message(id(c, r), id(c, r + 1));
            }
        }
    }
    b.build().expect("mesh is valid")
}

/// A seeded random application: `nodes` on a near-square grid with
/// `messages` distinct directed messages. Identical inputs give identical
/// graphs.
///
/// # Panics
///
/// Panics if `nodes < 2`, `pitch` is not positive, or `messages` exceeds
/// the `nodes·(nodes−1)` distinct directed pairs.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "the fn's asserts admit only distinct nodes and distinct, non-self-loop messages"
)]
pub fn random_app(nodes: usize, messages: usize, seed: u64, pitch: Millimeters) -> CommGraph {
    assert!(nodes >= 2, "random app needs at least two nodes");
    assert!(
        messages <= nodes * (nodes - 1),
        "more messages than distinct directed pairs"
    );
    let cols = (nodes as f64).sqrt().ceil() as usize;
    let rows = nodes.div_ceil(cols);
    let grid = GridPlacement::new(cols, rows, pitch);
    let mut b = CommGraph::builder().name(format!("random-{nodes}n{messages}m"));
    for i in 0..nodes {
        let (c, r) = (i % cols, i / cols);
        b = b.node(format!("r{i}"), grid.position(c, r));
    }
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize
    };
    let mut pairs = std::collections::BTreeSet::new();
    while pairs.len() < messages {
        let s = next() % nodes;
        let d = next() % nodes;
        if s != d {
            pairs.insert((s, d));
        }
    }
    for (s, d) in pairs {
        b = b.message(NodeId(s), NodeId(d));
    }
    b.build().expect("random app is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    const PITCH: Millimeters = Millimeters(0.26);

    #[test]
    fn pipeline_shape() {
        let app = pipeline(10, PITCH);
        assert_eq!(app.node_count(), 10);
        assert_eq!(app.message_count(), 10);
        // Consecutive stages are physically adjacent along the serpentine.
        for m in app.messages().iter().take(9) {
            assert!(app.manhattan(m.src, m.dst).0 <= PITCH.0 + 1e-9);
        }
    }

    #[test]
    fn hub_spoke_shape() {
        let app = hub_spoke(6, PITCH);
        assert_eq!(app.node_count(), 7);
        assert_eq!(app.message_count(), 12);
        let hub = app.node_by_name("hub").unwrap();
        assert_eq!(app.neighbors(hub).len(), 6);
    }

    #[test]
    fn mesh_shape() {
        let app = neighbor_mesh(3, 3, PITCH);
        assert_eq!(app.node_count(), 9);
        // 2 edges per row × 3 rows + 2 per column × 3 columns = 12.
        assert_eq!(app.message_count(), 12);
        for m in app.messages() {
            assert!(app.manhattan(m.src, m.dst).0 <= PITCH.0 + 1e-9);
        }
    }

    #[test]
    fn random_app_is_deterministic() {
        let a = random_app(8, 14, 42, PITCH);
        let b = random_app(8, 14, 42, PITCH);
        assert_eq!(a, b);
        let c = random_app(8, 14, 43, PITCH);
        assert_ne!(a, c);
        assert_eq!(a.node_count(), 8);
        assert_eq!(a.message_count(), 14);
    }

    #[test]
    #[should_panic(expected = "distinct directed pairs")]
    fn random_app_rejects_impossible_density() {
        let _ = random_app(3, 7, 0, PITCH);
    }

    #[test]
    fn generated_apps_synthesize_cleanly() {
        // Smoke-check through the public graph invariants only (the full
        // synthesis round-trip lives in the integration tests).
        for app in [
            pipeline(7, PITCH),
            hub_spoke(5, PITCH),
            neighbor_mesh(4, 2, PITCH),
            random_app(9, 16, 7, PITCH),
        ] {
            assert!(app.message_count() > 0);
            assert!(app.max_communicating_distance().0 > 0.0);
        }
    }
}
