//! Insertion-loss, power-distribution-network (PDN) and laser-power models
//! for WR-ONoC ring routers.
//!
//! This crate defines the common output format of every synthesis method —
//! the [`RouterDesign`] — and the physical models that turn a design into
//! the paper's performance numbers:
//!
//! * [`loss`] — per-signal-path insertion loss `L_s` (paper Sec. II-B),
//! * [`pdn`] — the splitter-tree power-distribution network and the
//!   `#sp_w` metric (paper Sec. II-A and Eq. 4–5),
//! * [`laser`] — per-wavelength worst-case loss `il_λ^max`, `il_w^all`, and
//!   the total laser power of Fig. 7,
//! * [`design`] — [`RouterDesign`] with structural validation (every
//!   message served, no wavelength collision on any shared waveguide
//!   segment) and the full Table I analysis,
//! * [`crosstalk`] — first-order incoherent crosstalk and SNR analysis
//!   (MRR leakage + crossing leakage), quantifying the paper's argument
//!   that ring routers keep crosstalk benign.
//!
//! # Examples
//!
//! See [`design::RouterDesign`] for an end-to-end example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]

pub mod crosstalk;
pub mod design;
pub mod laser;
pub mod loss;
pub mod pdn;
pub mod report;

pub use crosstalk::{analyze_crosstalk, CrosstalkReport, PathCrosstalk};
pub use design::{DesignError, RouterAnalysis, RouterDesign, SignalPath, WavelengthReport};
pub use laser::laser_power_for_loss;
pub use loss::{insertion_loss, PathGeometry};
pub use pdn::{PdnDesign, PdnStyle};
pub use report::render_report;
