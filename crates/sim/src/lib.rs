//! Functional transmission simulation for WR-ONoC router designs.
//!
//! A wavelength-routed network reserves every signal path at design time;
//! whether it *works* is then a static property — but a property worth
//! checking independently of the synthesis code that claimed it. This
//! crate replays concrete transmissions over a
//! [`RouterDesign`](onoc_photonics::RouterDesign) and verifies, from first
//! principles, that no two concurrent transmissions ever drive the same
//! wavelength on the same waveguide segment:
//!
//! * [`timing`] — propagation latency at the paper's 10.45 ps/mm figure,
//!   serialization at the configured data rate, per-message and worst-case
//!   latency reports,
//! * [`sim`] — transmission schedules, the collision checker (with a
//!   wavelength-override hook for fault injection), delivery and
//!   throughput accounting.
//!
//! # Examples
//!
//! ```
//! use onoc_graph::benchmarks;
//! use onoc_sim::{simulate, SimConfig, TransmissionSchedule};
//! use onoc_units::TechnologyParameters;
//! use sring_core::SringSynthesizer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let app = benchmarks::mwd();
//! let design = SringSynthesizer::new().synthesize(&app)?;
//! let schedule = TransmissionSchedule::all_at_once(&design, 1024);
//! let report = simulate(&design, &schedule, &SimConfig::default());
//! assert_eq!(report.collisions, 0);
//! assert_eq!(report.delivered, app.message_count());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]

pub mod sim;
pub mod timing;

pub use sim::{simulate, simulate_with_wavelengths, SimConfig, SimReport, TransmissionSchedule};
pub use timing::{latency_report, LatencyReport, MessageLatency};
