//! `onoc-served`: a long-running batch synthesis daemon for SRing.
//!
//! The crate has three layers:
//!
//! - [`proto`] — the length-prefixed wire protocol: frame codec plus the
//!   [`Request`]/[`Response`] message
//!   types, serialized with the `onoc-store` byte codec.
//! - [`server`] — the daemon itself: accept loop, bounded worker pool
//!   driven by the `ExecCtx` thread budget, one shared `ArtifactCache`
//!   (plus optional `DiskStore` tier) across all requests, per-request
//!   deadlines, queue-depth admission control with explicit rejections,
//!   graceful drain on shutdown, and a per-job JSON metrics stream.
//! - [`client`] — a minimal blocking client used by the `sring-served`
//!   CLI, the load generator and the integration tests.
//!
//! Everything is `std`-only; concurrency is plain threads, channels and
//! condition variables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![expect(clippy::disallowed_types, reason = "audited lock layer, DESIGN.md §12")]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use proto::{
    DeltaSpec, JobResult, JobSpec, JobSummary, Outcome, RejectReason, Request, Response,
    ServerStats, StrategySpec, Workload,
};
pub use server::{Server, ServerConfig};
