//! Node orderings for conventional ring routers.
//!
//! A conventional ring router connects *all* nodes sequentially
//! (paper Fig. 2(b)). On a physical floorplan the sensible sequence is a
//! short rectilinear tour; this module builds one with a nearest-neighbour
//! construction refined by 2-opt, both in Manhattan metric. The same tour is
//! the paper's upper bound `d₂` for the `L_max` search and the node order of
//! the ORNoC baseline.

use onoc_graph::{NodeId, Point};
use onoc_units::Millimeters;

/// Builds a closed visiting order over all `positions` that is short in
/// Manhattan length: nearest-neighbour from node 0, improved by 2-opt until
/// a local optimum.
///
/// Deterministic: ties break toward lower node ids.
///
/// # Examples
///
/// ```
/// use onoc_graph::Point;
/// use onoc_layout::ring_order::tour_order;
///
/// // A 2×2 grid: the tour must visit the four corners without crossing.
/// let order = tour_order(&[
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(0.0, 1.0),
///     Point::new(1.0, 1.0),
/// ]);
/// assert_eq!(order.len(), 4);
/// ```
#[must_use]
pub fn tour_order(positions: &[Point]) -> Vec<NodeId> {
    let n = positions.len();
    if n == 0 {
        return Vec::new();
    }
    // Nearest-neighbour construction.
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut current = 0usize;
    used[0] = true;
    order.push(NodeId(0));
    for _ in 1..n {
        let mut best: Option<(usize, f64)> = None;
        for (j, &u) in used.iter().enumerate() {
            if u {
                continue;
            }
            let d = positions[current].manhattan(positions[j]).0;
            let better = match best {
                None => true,
                Some((_, bd)) => d < bd - 1e-12,
            };
            if better {
                best = Some((j, d));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the loop runs n-1 times, so an unused node remains on each pass"
        )]
        let (j, _) = best.expect("an unused node remains");
        used[j] = true;
        order.push(NodeId(j));
        current = j;
    }
    two_opt(&mut order, positions);
    order
}

/// Total Manhattan length of the closed tour.
#[must_use]
pub fn tour_length(order: &[NodeId], positions: &[Point]) -> Millimeters {
    let n = order.len();
    if n < 2 {
        return Millimeters(0.0);
    }
    Millimeters(
        (0..n)
            .map(|i| {
                positions[order[i].index()]
                    .manhattan(positions[order[(i + 1) % n].index()])
                    .0
            })
            .sum(),
    )
}

/// In-place 2-opt improvement of a closed tour in Manhattan metric, to a
/// local optimum.
pub fn two_opt(order: &mut [NodeId], positions: &[Point]) {
    let n = order.len();
    if n < 4 {
        return;
    }
    let dist = |a: NodeId, b: NodeId| positions[a.index()].manhattan(positions[b.index()]).0;
    let mut improved = true;
    while improved {
        improved = false;
        for i in 0..n - 1 {
            for j in i + 2..n {
                // Reversing order[i+1..=j] replaces edges (i, i+1) and
                // (j, j+1) with (i, j) and (i+1, j+1).
                if i == 0 && j == n - 1 {
                    continue; // same edge pair
                }
                let a = order[i];
                let b = order[i + 1];
                let c = order[j];
                let d = order[(j + 1) % n];
                let delta = dist(a, c) + dist(b, d) - dist(a, b) - dist(c, d);
                if delta < -1e-9 {
                    order[i + 1..=j].reverse();
                    improved = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(cols: usize, rows: usize) -> Vec<Point> {
        (0..rows)
            .flat_map(|r| (0..cols).map(move |c| Point::new(c as f64, r as f64)))
            .collect()
    }

    #[test]
    fn tour_visits_each_node_once() {
        let positions = grid(4, 3);
        let order = tour_order(&positions);
        assert_eq!(order.len(), 12);
        let mut seen: Vec<_> = order.iter().map(|n| n.index()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn tour_on_grid_is_near_optimal() {
        // The optimal closed tour over a 4×3 unit grid has length 12
        // (a boustrophedon plus return).
        let positions = grid(4, 3);
        let order = tour_order(&positions);
        let len = tour_length(&order, &positions).0;
        assert!(len <= 14.0 + 1e-9, "tour length {len} too long");
    }

    #[test]
    fn two_opt_fixes_a_crossing() {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ];
        // Deliberately crossed order 0-1-2-3.
        let mut order: Vec<NodeId> = (0..4).map(NodeId).collect();
        two_opt(&mut order, &positions);
        let len = tour_length(&order, &positions).0;
        assert!(
            (len - 4.0).abs() < 1e-9,
            "expected optimal square tour, got {len}"
        );
    }

    #[test]
    fn small_inputs() {
        assert!(tour_order(&[]).is_empty());
        assert_eq!(tour_order(&[Point::new(0.0, 0.0)]).len(), 1);
        let two = tour_order(&[Point::new(0.0, 0.0), Point::new(2.0, 0.0)]);
        assert_eq!(two.len(), 2);
        assert_eq!(
            tour_length(&two, &[Point::new(0.0, 0.0), Point::new(2.0, 0.0)]),
            Millimeters(4.0)
        );
        assert_eq!(
            tour_length(&[NodeId(0)], &[Point::new(0.0, 0.0)]),
            Millimeters(0.0)
        );
    }
}
