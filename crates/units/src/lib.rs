//! Physical quantities and silicon-photonics technology parameters for
//! wavelength-routed optical networks-on-chip (WR-ONoCs).
//!
//! This crate is the bottom-most substrate of the SRing reproduction. It
//! provides:
//!
//! * strongly-typed physical quantities ([`Millimeters`], [`Decibels`],
//!   [`Dbm`], [`Milliwatts`]) so that lengths, losses and powers cannot be
//!   accidentally mixed,
//! * the [`TechnologyParameters`] record holding every loss coefficient and
//!   laser constant used by the loss/power models, with defaults calibrated
//!   to the SRing paper (see `DESIGN.md` §4),
//! * wavelength identifiers ([`Wavelength`]) for WDM channel bookkeeping.
//!
//! # Examples
//!
//! ```
//! use onoc_units::{Millimeters, Decibels, TechnologyParameters};
//!
//! let tech = TechnologyParameters::default();
//! let path = Millimeters(1.8);
//! let loss = tech.terminal_loss + Decibels(tech.propagation_loss_per_mm.0 * path.0);
//! assert!(loss > Decibels(3.4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]

pub mod content;
pub mod quantity;
pub mod tech;
pub mod wavelength;

pub use quantity::{Dbm, Decibels, Millimeters, Milliwatts};
pub use tech::TechnologyParameters;
pub use wavelength::Wavelength;
