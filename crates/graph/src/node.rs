//! Node identifiers and physical positions.

use onoc_units::Millimeters;
use std::fmt;

/// Identifier of a network node (a processing element, memory or IP core).
///
/// Nodes are dense indices `0..n` into their owning
/// [`CommGraph`](crate::CommGraph).
///
/// # Examples
///
/// ```
/// use onoc_graph::NodeId;
/// let a = NodeId(0);
/// assert_eq!(a.index(), 0);
/// assert_eq!(format!("{a}"), "n0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NodeId(pub usize);

// Ordered by hand: a derived `PartialOrd` calls `partial_cmp`, which
// clippy's L2 entry disallows (DESIGN.md §12).
impl Ord for NodeId {
    #[inline]
    fn cmp(&self, other: &NodeId) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for NodeId {
    #[inline]
    fn partial_cmp(&self, other: &NodeId) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl NodeId {
    /// The dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

/// A position on the chip floorplan, in millimetres.
///
/// The clustering algorithm reasons in Manhattan distance because sub-ring
/// waveguides are later routed rectilinearly (horizontally or vertically) —
/// see footnote *a* of the paper.
///
/// # Examples
///
/// ```
/// use onoc_graph::Point;
/// use onoc_units::Millimeters;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(0.7, 0.35);
/// assert_eq!(a.manhattan(b), Millimeters(0.7 + 0.35));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in millimetres.
    pub x: f64,
    /// Vertical coordinate in millimetres.
    pub y: f64,
}

impl Point {
    /// Creates a point from millimetre coordinates.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Manhattan (rectilinear) distance to `other`.
    #[must_use]
    pub fn manhattan(self, other: Point) -> Millimeters {
        Millimeters((self.x - other.x).abs() + (self.y - other.y).abs())
    }

    /// Euclidean distance to `other`; used only for reporting, never for
    /// routing decisions.
    #[must_use]
    pub fn euclidean(self, other: Point) -> Millimeters {
        Millimeters(((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt())
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn manhattan_distance_axis_aligned() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(1.0, 5.0);
        assert_eq!(a.manhattan(b), Millimeters(3.0));
    }

    #[test]
    fn manhattan_is_symmetric() {
        let a = Point::new(0.3, -1.0);
        let b = Point::new(-0.7, 2.0);
        assert_eq!(a.manhattan(b), b.manhattan(a));
    }

    #[test]
    fn euclidean_never_exceeds_manhattan() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!(a.euclidean(b).0 <= a.manhattan(b).0 + 1e-12);
        assert_eq!(a.euclidean(b), Millimeters(5.0));
    }

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId::from(5).to_string(), "n5");
        assert_eq!(NodeId(5).index(), 5);
    }

    proptest! {
        #[test]
        fn prop_manhattan_triangle_inequality(
            ax in -10.0f64..10.0, ay in -10.0f64..10.0,
            bx in -10.0f64..10.0, by in -10.0f64..10.0,
            cx in -10.0f64..10.0, cy in -10.0f64..10.0,
        ) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            prop_assert!(a.manhattan(c).0 <= a.manhattan(b).0 + b.manhattan(c).0 + 1e-9);
        }

        #[test]
        fn prop_manhattan_zero_iff_same(ax in -10.0f64..10.0, ay in -10.0f64..10.0) {
            let a = Point::new(ax, ay);
            prop_assert_eq!(a.manhattan(a).0, 0.0);
        }
    }
}
