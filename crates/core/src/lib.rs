//! SRing: sub-ring construction and MILP wavelength assignment for
//! application-specific wavelength-routed optical NoC ring routers.
//!
//! This crate implements the primary contribution of the paper *SRing: A
//! Sub-Ring Construction Method for Application-Specific Wavelength-Routed
//! Optical NoCs* (DATE 2025):
//!
//! * [`cluster()`](cluster::cluster) — the clustering algorithm of Sec. III-A: nodes are
//!   grouped by communication requirement and physical proximity, each
//!   cluster gets an intra-cluster sub-ring built by *absorption*, one
//!   optional inter-cluster sub-ring serves cross-cluster traffic, and the
//!   maximum permissible path length `L_max` is minimized by a balanced
//!   binary search,
//! * [`assignment`] — the wavelength-assignment MILP of Sec. III-B
//!   (Eqs. 1–8) with a greedy/local-search heuristic for warm starts and
//!   large instances,
//! * [`synthesis`] — the [`SringSynthesizer`] pipeline that routes the
//!   sub-rings on the floorplan, assigns wavelengths and emits a validated
//!   [`RouterDesign`](onoc_photonics::RouterDesign).
//!
//! # Examples
//!
//! ```
//! use sring_core::SringSynthesizer;
//! use onoc_graph::benchmarks;
//! use onoc_units::TechnologyParameters;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let app = benchmarks::mwd();
//! let report = SringSynthesizer::new().synthesize_detailed(&app)?;
//! let analysis = report.design.analyze(&TechnologyParameters::default());
//! println!(
//!     "L = {:.1}, #wl = {}, #sp_w = {}",
//!     analysis.longest_path, analysis.wavelength_count, analysis.max_splitters_passed
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod cluster;
pub mod depmap;
pub mod persist;
pub mod resynth;
pub mod stages;
pub mod synthesis;

pub use assignment::{
    assign, assign_ctx, AssignPath, Assignment, AssignmentProblem, AssignmentStrategy, MilpOptions,
};
pub use cluster::{
    cluster, cluster_ctx, try_cluster_with_l_max, try_cluster_with_l_max_ctx, ClusterError,
    Clustering, ClusteringConfig,
};
pub use depmap::{dirty_rings, home_ring, DirtyStats, RingRef};
pub use resynth::{design_bytes, ResynthError, ResynthReport};
pub use stages::{
    assign_key, assign_problem_key, cluster_key, route_key, run_stage, AssignStage, ClusterStage,
    LayoutArtifact, LayoutStage, RouteArtifact, RouteStage, Stage,
};
pub use synthesis::{SringConfig, SringError, SringReport, SringSynthesizer};
