//! SRing — application-specific wavelength-routed optical NoC ring routers
//! with sub-rings.
//!
//! This is the façade crate of the SRing reproduction (DATE 2025, Zheng et
//! al.). It re-exports every subsystem so examples and downstream users can
//! depend on a single crate:
//!
//! * [`units`] — physical quantities and technology parameters,
//! * [`graph`] — communication graphs and the seven paper benchmarks,
//! * [`layout`] — rectilinear waveguide routing and crossing/bend accounting,
//! * [`photonics`] — insertion-loss, PDN and laser-power models,
//! * [`milp`] — the from-scratch MILP solver replacing Gurobi,
//! * [`trace`] — std-only hierarchical tracing/metrics (spans, counters,
//!   gauges) with text and JSON sinks,
//! * [`ctx`] — the unified execution context threaded through every
//!   pipeline entry point: trace handle, content-addressed artifact
//!   cache, deadline and thread budget,
//! * [`store`] — the persistent on-disk artifact tier: a versioned,
//!   checksummed interchange format, the disk cache behind the in-memory
//!   one, and portable export/import archives,
//! * [`baselines`] — ORNoC, CTORing and XRing,
//! * [`core`] — the SRing synthesis pipeline itself,
//! * [`eval`] — the harness that regenerates every table and figure,
//! * [`simulation`] — functional transmission simulation (collision
//!   checking, latency, throughput),
//! * [`served`] — the `sring-served` batch synthesis daemon: wire
//!   protocol, bounded worker pool with a shared artifact cache,
//!   admission control and a blocking client.
//!
//! # Quickstart
//!
//! ```
//! use sring::core::SringSynthesizer;
//! use sring::graph::benchmarks;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let app = benchmarks::mwd();
//! let router = SringSynthesizer::new().synthesize(&app)?;
//! println!("{} sub-rings, {} wavelengths", router.sub_ring_count(), router.wavelength_count());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]

pub use milp_solver as milp;
pub use onoc_baselines as baselines;
pub use onoc_ctx as ctx;
pub use onoc_eval as eval;
pub use onoc_graph as graph;
pub use onoc_layout as layout;
pub use onoc_photonics as photonics;
pub use onoc_served as served;
pub use onoc_sim as simulation;
pub use onoc_store as store;
pub use onoc_trace as trace;
pub use onoc_units as units;
pub use sring_core as core;
