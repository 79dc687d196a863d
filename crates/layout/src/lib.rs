//! Rectilinear waveguide routing and geometric accounting for optical ring
//! routers.
//!
//! Ring routers owe their popularity to trivial physical implementation:
//! every waveguide is a closed loop visiting its nodes in order, and every
//! node-to-node connection is routed horizontally or vertically (paper
//! Sec. III-A-3). This crate provides that substrate:
//!
//! * [`Cycle`] — the logical closed visiting order of a (sub-)ring, with
//!   directed signal-path queries,
//! * [`Span`] — an axis-aligned waveguide piece, with exact crossing tests,
//! * [`Layout::route_cycle`]/[`Layout`] — L-shaped rectilinear routing with greedy
//!   crossing minimization, plus chip-level crossing and bend accounting.
//!
//! # Examples
//!
//! ```
//! use onoc_graph::{NodeId, Point};
//! use onoc_layout::{Cycle, Layout};
//!
//! # fn main() -> Result<(), onoc_layout::BuildCycleError> {
//! let positions = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(1.0, 0.0),
//!     Point::new(1.0, 1.0),
//! ];
//! let ring = Cycle::new(vec![NodeId(0), NodeId(1), NodeId(2)])?;
//! let mut layout = Layout::new(positions);
//! let wg = layout.route_cycle(&ring);
//! assert_eq!(layout.total_crossings(), 0);
//! # let _ = wg;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]

pub mod cycle;
pub mod geometry;
pub mod ring_order;
pub mod route;
pub mod svg;

pub use cycle::{BuildCycleError, Cycle, SegmentRange};
pub use geometry::{Orientation, Span};
pub use route::{Layout, RoutedWaveguide, SegmentGeometry, WaveguideId};
