//! State-of-the-art WR-ONoC ring-router baselines: ORNoC, CTORing and
//! XRing.
//!
//! The SRing paper compares against three prior ring design methods, all
//! re-implemented here from their published descriptions (the SRing
//! authors did the same in C++; see `DESIGN.md` §6 for the exact
//! interpretation used per method):
//!
//! * [`ornoc`] — ORNoC (Le Beux et al., DATE 2011): all nodes connected
//!   sequentially in physical-tour order on two counter-propagating ring
//!   waveguides; per-direction first-fit wavelength allocation.
//! * [`ctoring`] — CTORing (Ortín-Obón et al., ASP-DAC 2017): the same
//!   two-ring structure, but with an application-tailored node order and an
//!   improved wavelength assignment that tries both directions to avoid
//!   opening new wavelengths.
//! * [`xring`] — XRing (Zheng et al., DATE 2023): OSE chord shortcuts that
//!   cut the longest signal paths, removal of redundant senders, aggressive
//!   wavelength sharing, and its own hierarchical PDN.
//!
//! A crossbar-style [`lambda_router`] is included as well, so the paper's
//! Fig. 1 ring-vs-crossbar contrast can be measured rather than assumed.
//!
//! All of them produce the shared
//! [`RouterDesign`](onoc_photonics::RouterDesign) representation, so the
//! evaluation harness treats them uniformly with SRing.
//!
//! # Examples
//!
//! ```
//! use onoc_baselines::{ornoc, ctoring, xring};
//! use onoc_graph::benchmarks;
//! use onoc_units::TechnologyParameters;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let app = benchmarks::mwd();
//! let tech = TechnologyParameters::default();
//! let a = ornoc::synthesize(&app, &tech)?;
//! let b = ctoring::synthesize(&app, &tech)?;
//! let c = xring::synthesize(&app, &tech)?;
//! let worst = |d: &onoc_photonics::RouterDesign| d.analyze(&tech).longest_path;
//! // CTORing's tailored order never loses to ORNoC's physical order.
//! assert!(worst(&b) <= worst(&a));
//! // XRing's shortcuts never lose to CTORing.
//! assert!(worst(&c) <= worst(&b));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]

pub mod common;
pub mod ctoring;
pub mod lambda_router;
pub mod ornoc;
pub mod xring;

pub use common::BaselineError;
