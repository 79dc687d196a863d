//! Incremental re-synthesis on communication-graph deltas.
//!
//! [`SringSynthesizer::resynthesize`] takes the previous run's graph and
//! report plus an edit sequence ([`CommDelta`]) and synthesizes the edited
//! application, recomputing only what the edits dirtied. The reuse
//! machinery is entirely the content-addressed artifact tiers of
//! [`crate::stages`]:
//!
//! * Whole stages whose semantic key is unchanged (e.g. every stage under
//!   a pure bandwidth re-weighting, or the assign stage when the edited
//!   graph routes onto the same path set) are served from the artifact
//!   cache.
//! * Inside a dirtied stage, per-sub-ring memo units (`cluster_grow`,
//!   `cluster_refine`, `cluster_inter`, `layout_ring`, `route_ring`) serve
//!   the clean sub-rings from the memo tier, so only the rings whose input
//!   slice actually changed are recomputed.
//!
//! **Bit-identity guarantee.** The default path runs *exactly* the
//! from-scratch pipeline — reuse happens only through content-keyed
//! lookups whose hits are byte-identical to what recomputation would
//! produce. Therefore `resynthesize(prev, deltas)` equals
//! `synthesize(apply_deltas(prev_graph, deltas))` byte for byte, always.
//! Nothing from the previous run reaches the assignment MILP except
//! through those lookups, so among tied optima it returns the same vector
//! a cold run would.

use crate::depmap::{dirty_rings, DirtyStats};
use crate::synthesis::{SringError, SringReport, SringSynthesizer};
use onoc_ctx::ExecCtx;
use onoc_graph::{CommDelta, CommGraph, DeltaError, NodeId};
use onoc_photonics::RouterDesign;
use onoc_store::Encoder;
use std::fmt;

/// Outcome of one incremental re-synthesis.
#[derive(Debug, Clone)]
pub struct ResynthReport {
    /// The full synthesis report for the edited application.
    pub report: SringReport,
    /// The edited graph the report was synthesized for.
    pub graph: CommGraph,
    /// Which sub-rings of the *previous* design the edits dirtied
    /// (predictor; see [`crate::depmap`]).
    pub dirty: DirtyStats,
}

/// Error from [`SringSynthesizer::resynthesize`].
#[derive(Debug)]
pub enum ResynthError {
    /// Delta `index` of the sequence failed to apply; nothing ran.
    Delta {
        /// Position of the failing edit in the sequence.
        index: usize,
        /// Why it failed.
        source: DeltaError,
    },
    /// The edited graph failed to synthesize.
    Synth(SringError),
}

impl fmt::Display for ResynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResynthError::Delta { index, source } => {
                write!(f, "delta {index} failed to apply: {source}")
            }
            ResynthError::Synth(e) => write!(f, "re-synthesis failed: {e}"),
        }
    }
}

impl std::error::Error for ResynthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResynthError::Delta { source, .. } => Some(source),
            ResynthError::Synth(e) => Some(e),
        }
    }
}

impl From<SringError> for ResynthError {
    fn from(e: SringError) -> Self {
        ResynthError::Synth(e)
    }
}

impl SringSynthesizer {
    /// Re-synthesizes after an edit sequence, reusing every artifact the
    /// edits left clean. Byte-identical to synthesizing the edited graph
    /// from scratch (see module docs); reuse requires a context with the
    /// cache and memo tiers attached ([`ExecCtx::cached`]) that already
    /// saw the previous run — with a cold context this is simply a full
    /// synthesis.
    ///
    /// # Errors
    ///
    /// [`ResynthError::Delta`] when an edit fails to apply (the sequence
    /// is atomic: nothing is synthesized), [`ResynthError::Synth`] when
    /// the edited application fails to synthesize.
    pub fn resynthesize(
        &self,
        prev_graph: &CommGraph,
        prev: &SringReport,
        deltas: &[CommDelta],
        ctx: &ExecCtx,
    ) -> Result<ResynthReport, ResynthError> {
        let edited = prev_graph
            .apply_deltas(deltas)
            .map_err(|(index, source)| ResynthError::Delta { index, source })?;
        let dirty = dirty_rings(&prev.clustering, prev_graph, deltas);

        let trace = ctx.trace();
        trace.incr("resynth/runs", 1);
        trace.incr("resynth/deltas", deltas.len() as u64);
        trace.gauge("resynth/dirty_rings", dirty.dirty.len() as f64);
        trace.gauge("resynth/dirty_fraction", dirty.dirty_fraction());

        let report = self.synthesize_detailed_ctx(&edited, ctx)?;
        Ok(ResynthReport {
            report,
            graph: edited,
            dirty,
        })
    }
}

/// Canonical byte serialization of a [`RouterDesign`], for byte-for-byte
/// identity checks between incremental and from-scratch synthesis.
///
/// Every field that determines the design is written with exact bit
/// patterns (floats as IEEE-754 bits): names, node positions, each
/// waveguide's visiting order / closedness / derived geometry guards,
/// every signal path with its occupancy, geometry and wavelength, and the
/// PDN. Two designs serialize to equal byte strings iff the synthesis
/// pipelines that produced them made identical choices at every stage.
#[must_use]
pub fn design_bytes(design: &RouterDesign) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_str(design.method());
    enc.put_str(design.app_name());

    let layout = design.layout();
    enc.put_usize(layout.positions().len());
    for p in layout.positions() {
        enc.put_f64(p.x);
        enc.put_f64(p.y);
    }
    enc.put_usize(layout.waveguide_count());
    for wg in layout.waveguides() {
        enc.put_usize(wg.nodes().len());
        for n in wg.nodes() {
            enc.put_usize(n.index());
        }
        enc.put_bool(wg.is_closed());
        // Derived geometry, bit-exact: redundant given the deterministic
        // router, but it makes the byte string self-evidently cover the
        // physical design.
        enc.put_usize(wg.segment_count());
        for i in 0..wg.segment_count() {
            let seg = wg.segment(i);
            enc.put_f64(seg.length.0);
            enc.put_usize(seg.bends);
        }
    }

    enc.put_usize(design.paths().len());
    for p in design.paths() {
        enc.put_usize(p.message.index());
        enc.put_usize(p.src.index());
        enc.put_usize(p.dst.index());
        enc.put_usize(p.waveguide.index());
        enc.put_usize(p.occupancy.len());
        for (wg, seg) in &p.occupancy {
            enc.put_usize(wg.index());
            enc.put_usize(*seg);
        }
        enc.put_f64(p.geometry.length.0);
        enc.put_usize(p.geometry.bends);
        enc.put_usize(p.geometry.crossings);
        enc.put_usize(p.geometry.mrr_through_hops);
        enc.put_usize(p.geometry.mrr_drop_hops);
        enc.put_usize(p.wavelength.index());
    }

    let pdn = design.pdn();
    enc.put_u8(match pdn.style() {
        onoc_photonics::PdnStyle::SharedTree => 0,
        onoc_photonics::PdnStyle::XRingHierarchical => 1,
    });
    enc.put_usize(pdn.active_sender_nodes());
    enc.put_usize(layout.positions().len());
    for v in 0..layout.positions().len() {
        enc.put_bool(pdn.has_node_splitter(NodeId(v)));
    }
    enc.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::AssignmentStrategy;
    use crate::synthesis::SringConfig;
    use onoc_graph::benchmarks;

    fn synth() -> SringSynthesizer {
        SringSynthesizer::with_config(SringConfig {
            strategy: AssignmentStrategy::Heuristic,
            ..SringConfig::default()
        })
    }

    fn retarget_of_first_message(app: &CommGraph) -> CommDelta {
        let id = app.message_ids().next().expect("has messages");
        let m = app.message(id);
        let dst = app
            .node_ids()
            .find(|&v| {
                v != m.src
                    && v != m.dst
                    && !app
                        .messages()
                        .iter()
                        .any(|msg| msg.src == m.src && msg.dst == v)
            })
            .expect("a fresh destination");
        CommDelta::Retarget {
            id: app.stable_id(id),
            src: m.src,
            dst,
        }
    }

    #[test]
    fn resynthesize_is_byte_identical_to_from_scratch() {
        let app = benchmarks::mwd();
        let s = synth();
        let ctx = ExecCtx::cached();
        let prev = s.synthesize_detailed_ctx(&app, &ctx).unwrap();

        let delta = retarget_of_first_message(&app);
        let incr = s.resynthesize(&app, &prev, &[delta], &ctx).unwrap();

        // From scratch, in a cold context: no reuse at all.
        let edited = app.apply_delta(&delta).unwrap();
        let cold = s.synthesize_detailed(&edited).unwrap();

        assert_eq!(
            design_bytes(&incr.report.design),
            design_bytes(&cold.design)
        );
        assert_eq!(incr.report.assignment, cold.assignment);
        assert_eq!(incr.report.clustering, cold.clustering);
        assert_eq!(incr.graph.message_count(), edited.message_count());
    }

    #[test]
    fn failing_delta_is_atomic_and_typed() {
        let app = benchmarks::mwd();
        let s = synth();
        let ctx = ExecCtx::cached();
        let prev = s.synthesize_detailed_ctx(&app, &ctx).unwrap();
        let v = app.node_ids().next().unwrap();
        let err = s
            .resynthesize(
                &app,
                &prev,
                &[
                    retarget_of_first_message(&app),
                    CommDelta::AddMessage {
                        src: v,
                        dst: v,
                        bandwidth: 1.0,
                    },
                ],
                &ctx,
            )
            .unwrap_err();
        match err {
            ResynthError::Delta { index, .. } => assert_eq!(index, 1),
            other => panic!("expected a delta error, got {other}"),
        }
    }

    #[test]
    fn bandwidth_edit_reuses_every_stage() {
        let app = benchmarks::mwd();
        let s = synth();
        let ctx = ExecCtx::cached();
        let prev = s.synthesize_detailed_ctx(&app, &ctx).unwrap();

        let id = app.stable_id(app.message_ids().next().unwrap());
        let incr = s
            .resynthesize(
                &app,
                &prev,
                &[CommDelta::ScaleBandwidth { id, factor: 4.0 }],
                &ctx,
            )
            .unwrap();

        // Bandwidth feeds no stage: the design is unchanged...
        assert_eq!(
            design_bytes(&incr.report.design),
            design_bytes(&prev.design)
        );
        assert!(incr.dirty.dirty.is_empty());
        // ...and all four stage artifacts came from the cache.
        let stats = ctx.cache_stats().expect("cached ctx");
        assert!(
            stats.hits >= 4,
            "expected cluster/layout/route/assign hits, got {stats:?}"
        );
    }
}
