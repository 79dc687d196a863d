//! [`Persist`] implementations for the four stage artifacts, making every
//! cacheable stage storable in the on-disk artifact tier.
//!
//! Two encoding styles are used:
//!
//! * **Value encoding** for [`Clustering`], [`RouteArtifact`] and
//!   [`Assignment`]: every field is written out and read back verbatim
//!   (floats by exact bit pattern, so replayed pipelines stay
//!   bit-identical).
//! * **Reconstructive encoding** for [`LayoutArtifact`]: the
//!   [`onoc_layout::Layout`] holds derived geometry (spans,
//!   crossing-minimized L-shape orientations), so only its *inputs* are
//!   persisted — node positions plus each waveguide's visiting order and
//!   closedness — and `restore` replays the deterministic router. Two
//!   replay guards (total crossings and total length, bit-exact) are
//!   stored alongside; if the routing algorithm ever changes without a
//!   format-version bump, the guard trips and the record is treated as
//!   undecodable instead of silently yielding a different floorplan.
//!
//! Every `restore` validates cross-field invariants (node indices inside
//! the placement, waveguide handles inside the layout) before touching
//! APIs that would panic on malformed input: a corrupted payload that
//! slipped past the record checksum must surface as a [`DecodeError`],
//! never as a panic.

use crate::assignment::{AssignPath, Assignment};
use crate::cluster::{Cluster, Clustering};
use crate::stages::{LayoutArtifact, RouteArtifact};
use milp_solver::SolveStats;
use onoc_graph::{MessageId, NodeId, Point};
use onoc_layout::{Cycle, Layout, WaveguideId};
use onoc_photonics::{PathGeometry, SignalPath};
use onoc_store::{DecodeError, Decoder, Encoder, Persist};
use onoc_units::{Decibels, Millimeters, Wavelength};

fn put_nodes(enc: &mut Encoder, nodes: &[NodeId]) {
    enc.put_usize(nodes.len());
    for n in nodes {
        enc.put_usize(n.index());
    }
}

fn take_nodes(dec: &mut Decoder<'_>) -> Result<Vec<NodeId>, DecodeError> {
    let len = dec.take_len(8)?;
    let mut nodes = Vec::with_capacity(len);
    for _ in 0..len {
        nodes.push(NodeId(dec.take_usize()?));
    }
    Ok(nodes)
}

fn take_cycle(dec: &mut Decoder<'_>) -> Result<Cycle, DecodeError> {
    let at = dec.position();
    let nodes = take_nodes(dec)?;
    Cycle::new(nodes).map_err(|e| DecodeError {
        message: format!("invalid cycle: {e}"),
        offset: at,
    })
}

fn put_opt_cycle(enc: &mut Encoder, cycle: Option<&Cycle>) {
    match cycle {
        None => enc.put_u8(0),
        Some(c) => {
            enc.put_u8(1);
            put_nodes(enc, c.nodes());
        }
    }
}

fn take_opt_cycle(dec: &mut Decoder<'_>) -> Result<Option<Cycle>, DecodeError> {
    match dec.take_u8()? {
        0 => Ok(None),
        1 => Ok(Some(take_cycle(dec)?)),
        b => Err(dec.error(format!("invalid cycle tag {b:#04x}"))),
    }
}

impl Persist for Clustering {
    fn persist(&self, enc: &mut Encoder) {
        let Clustering {
            clusters,
            inter_ring,
            l_max,
            longest_path,
            cluster_of,
        } = self;
        enc.put_usize(clusters.len());
        for Cluster { members, ring } in clusters {
            put_nodes(enc, members);
            put_opt_cycle(enc, ring.as_ref());
        }
        put_opt_cycle(enc, inter_ring.as_ref());
        enc.put_f64(l_max.0);
        enc.put_f64(longest_path.0);
        cluster_of.persist(enc);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let cluster_count = dec.take_len(1)?;
        let mut clusters = Vec::with_capacity(cluster_count);
        for _ in 0..cluster_count {
            let members = take_nodes(dec)?;
            let ring = take_opt_cycle(dec)?;
            clusters.push(Cluster { members, ring });
        }
        let inter_ring = take_opt_cycle(dec)?;
        let l_max = Millimeters(dec.take_f64()?);
        let longest_path = Millimeters(dec.take_f64()?);
        let cluster_of = Vec::<usize>::restore(dec)?;
        for (node, &c) in cluster_of.iter().enumerate() {
            if c >= clusters.len() {
                return Err(dec.error(format!(
                    "node {node} maps to cluster {c} of {}",
                    clusters.len()
                )));
            }
        }
        Ok(Clustering {
            clusters,
            inter_ring,
            l_max,
            longest_path,
            cluster_of,
        })
    }
}

fn put_opt_wg(enc: &mut Encoder, wg: Option<WaveguideId>) {
    match wg {
        None => enc.put_u8(0),
        Some(w) => {
            enc.put_u8(1);
            enc.put_usize(w.index());
        }
    }
}

fn take_opt_wg(
    dec: &mut Decoder<'_>,
    waveguide_count: usize,
) -> Result<Option<WaveguideId>, DecodeError> {
    match dec.take_u8()? {
        0 => Ok(None),
        1 => {
            let w = dec.take_usize()?;
            if w >= waveguide_count {
                return Err(dec.error(format!(
                    "waveguide handle {w} out of range ({waveguide_count} routed)"
                )));
            }
            Ok(Some(WaveguideId(w)))
        }
        b => Err(dec.error(format!("invalid waveguide tag {b:#04x}"))),
    }
}

impl Persist for LayoutArtifact {
    fn persist(&self, enc: &mut Encoder) {
        let LayoutArtifact {
            layout,
            intra_wg,
            inter_wg,
        } = self;
        let positions = layout.positions();
        enc.put_usize(positions.len());
        for p in positions {
            enc.put_f64(p.x);
            enc.put_f64(p.y);
        }
        enc.put_usize(layout.waveguide_count());
        for wg in layout.waveguides() {
            enc.put_bool(wg.is_closed());
            put_nodes(enc, wg.nodes());
        }
        // Replay guards: the derived geometry is recomputed on restore, and
        // must come out exactly as it went in.
        enc.put_usize(layout.total_crossings());
        enc.put_f64(layout.total_length().0);
        enc.put_usize(intra_wg.len());
        for wg in intra_wg {
            put_opt_wg(enc, *wg);
        }
        put_opt_wg(enc, *inter_wg);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let node_count = dec.take_len(16)?;
        let mut positions = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let x = dec.take_f64()?;
            let y = dec.take_f64()?;
            positions.push(Point::new(x, y));
        }
        let mut layout = Layout::new(positions);
        let waveguide_count = dec.take_len(1)?;
        for _ in 0..waveguide_count {
            let closed = dec.take_bool()?;
            let at = dec.position();
            let nodes = take_nodes(dec)?;
            if let Some(bad) = nodes.iter().find(|n| n.index() >= node_count) {
                return Err(DecodeError {
                    message: format!("waveguide visits node {bad} outside the placement"),
                    offset: at,
                });
            }
            if closed {
                let cycle = Cycle::new(nodes).map_err(|e| DecodeError {
                    message: format!("invalid ring: {e}"),
                    offset: at,
                })?;
                layout.route_cycle(&cycle);
            } else {
                // `route_open_path` panics on these; reject them as
                // corruption first.
                let distinct: std::collections::BTreeSet<_> = nodes.iter().collect();
                if nodes.len() < 2 || distinct.len() != nodes.len() {
                    return Err(DecodeError {
                        message: "invalid open waveguide path".to_string(),
                        offset: at,
                    });
                }
                layout.route_open_path(&nodes);
            }
        }
        let expected_crossings = dec.take_usize()?;
        let expected_length = dec.take_f64()?;
        if layout.total_crossings() != expected_crossings
            || layout.total_length().0.to_bits() != expected_length.to_bits()
        {
            return Err(dec.error(
                "layout replay diverged from the persisted geometry (routing \
                 algorithm changed without a format version bump?)",
            ));
        }
        let intra_count = dec.take_len(1)?;
        let mut intra_wg = Vec::with_capacity(intra_count);
        for _ in 0..intra_count {
            intra_wg.push(take_opt_wg(dec, waveguide_count)?);
        }
        let inter_wg = take_opt_wg(dec, waveguide_count)?;
        Ok(LayoutArtifact {
            layout,
            intra_wg,
            inter_wg,
        })
    }
}

fn put_geometry(enc: &mut Encoder, g: &PathGeometry) {
    let PathGeometry {
        length,
        bends,
        crossings,
        mrr_through_hops,
        mrr_drop_hops,
    } = g;
    enc.put_f64(length.0);
    enc.put_usize(*bends);
    enc.put_usize(*crossings);
    enc.put_usize(*mrr_through_hops);
    enc.put_usize(*mrr_drop_hops);
}

fn take_geometry(dec: &mut Decoder<'_>) -> Result<PathGeometry, DecodeError> {
    Ok(PathGeometry {
        length: Millimeters(dec.take_f64()?),
        bends: dec.take_usize()?,
        crossings: dec.take_usize()?,
        mrr_through_hops: dec.take_usize()?,
        mrr_drop_hops: dec.take_usize()?,
    })
}

impl Persist for RouteArtifact {
    fn persist(&self, enc: &mut Encoder) {
        let RouteArtifact {
            signal_paths,
            assign_paths,
        } = self;
        enc.put_usize(signal_paths.len());
        for p in signal_paths {
            let SignalPath {
                message,
                src,
                dst,
                waveguide,
                occupancy,
                geometry,
                wavelength,
            } = p;
            enc.put_usize(message.index());
            enc.put_usize(src.index());
            enc.put_usize(dst.index());
            enc.put_usize(waveguide.index());
            enc.put_usize(occupancy.len());
            for (wg, seg) in occupancy {
                enc.put_usize(wg.index());
                enc.put_usize(*seg);
            }
            put_geometry(enc, geometry);
            enc.put_usize(wavelength.0);
        }
        enc.put_usize(assign_paths.len());
        for p in assign_paths {
            let AssignPath {
                src,
                is_inter,
                loss,
                channels,
            } = p;
            enc.put_usize(src.index());
            enc.put_bool(*is_inter);
            enc.put_f64(loss.0);
            channels.persist(enc);
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let signal_count = dec.take_len(1)?;
        let mut signal_paths = Vec::with_capacity(signal_count);
        for _ in 0..signal_count {
            let message = MessageId(dec.take_usize()?);
            let src = NodeId(dec.take_usize()?);
            let dst = NodeId(dec.take_usize()?);
            let waveguide = WaveguideId(dec.take_usize()?);
            let occ_len = dec.take_len(16)?;
            let mut occupancy = Vec::with_capacity(occ_len);
            for _ in 0..occ_len {
                let wg = WaveguideId(dec.take_usize()?);
                let seg = dec.take_usize()?;
                occupancy.push((wg, seg));
            }
            let geometry = take_geometry(dec)?;
            let wavelength = Wavelength(dec.take_usize()?);
            signal_paths.push(SignalPath {
                message,
                src,
                dst,
                waveguide,
                occupancy,
                geometry,
                wavelength,
            });
        }
        let assign_count = dec.take_len(1)?;
        let mut assign_paths = Vec::with_capacity(assign_count);
        for _ in 0..assign_count {
            let src = NodeId(dec.take_usize()?);
            let is_inter = dec.take_bool()?;
            let loss = Decibels(dec.take_f64()?);
            let channels = Vec::<(usize, usize)>::restore(dec)?;
            assign_paths.push(AssignPath {
                src,
                is_inter,
                loss,
                channels,
            });
        }
        Ok(RouteArtifact {
            signal_paths,
            assign_paths,
        })
    }
}

fn put_solve_stats(enc: &mut Encoder, s: &SolveStats) {
    let SolveStats {
        nodes_explored,
        lp_solves,
        lp_reused,
        primal_pivots,
        dual_pivots,
        phase1_solves,
        warm_start_attempts,
        warm_start_hits,
        presolve_cols_removed,
        refactorizations,
        eta_updates,
        max_eta_chain,
        max_fill_in,
        nodes_by_depth,
        time_in_dual,
        time_in_primal,
        presolve_time,
        solve_time,
    } = s;
    enc.put_usize(*nodes_explored);
    enc.put_usize(*lp_solves);
    enc.put_usize(*lp_reused);
    enc.put_usize(*primal_pivots);
    enc.put_usize(*dual_pivots);
    enc.put_usize(*phase1_solves);
    enc.put_usize(*warm_start_attempts);
    enc.put_usize(*warm_start_hits);
    enc.put_usize(*presolve_cols_removed);
    enc.put_usize(*refactorizations);
    enc.put_usize(*eta_updates);
    enc.put_usize(*max_eta_chain);
    enc.put_usize(*max_fill_in);
    nodes_by_depth.persist(enc);
    time_in_dual.persist(enc);
    time_in_primal.persist(enc);
    presolve_time.persist(enc);
    solve_time.persist(enc);
}

fn take_solve_stats(dec: &mut Decoder<'_>) -> Result<SolveStats, DecodeError> {
    Ok(SolveStats {
        nodes_explored: dec.take_usize()?,
        lp_solves: dec.take_usize()?,
        lp_reused: dec.take_usize()?,
        primal_pivots: dec.take_usize()?,
        dual_pivots: dec.take_usize()?,
        phase1_solves: dec.take_usize()?,
        warm_start_attempts: dec.take_usize()?,
        warm_start_hits: dec.take_usize()?,
        presolve_cols_removed: dec.take_usize()?,
        refactorizations: dec.take_usize()?,
        eta_updates: dec.take_usize()?,
        max_eta_chain: dec.take_usize()?,
        max_fill_in: dec.take_usize()?,
        nodes_by_depth: Vec::<usize>::restore(dec)?,
        time_in_dual: std::time::Duration::restore(dec)?,
        time_in_primal: std::time::Duration::restore(dec)?,
        presolve_time: std::time::Duration::restore(dec)?,
        solve_time: std::time::Duration::restore(dec)?,
    })
}

impl Persist for Assignment {
    fn persist(&self, enc: &mut Encoder) {
        let Assignment {
            wavelengths,
            node_splitter,
            wavelength_count,
            objective,
            proven_optimal,
            solver_stats,
        } = self;
        enc.put_usize(wavelengths.len());
        for w in wavelengths {
            enc.put_usize(w.0);
        }
        node_splitter.persist(enc);
        enc.put_usize(*wavelength_count);
        enc.put_f64(*objective);
        enc.put_bool(*proven_optimal);
        match solver_stats {
            None => enc.put_u8(0),
            Some(s) => {
                enc.put_u8(1);
                put_solve_stats(enc, s);
            }
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let wl_count = dec.take_len(8)?;
        let mut wavelengths = Vec::with_capacity(wl_count);
        for _ in 0..wl_count {
            wavelengths.push(Wavelength(dec.take_usize()?));
        }
        let node_splitter = Vec::<bool>::restore(dec)?;
        let wavelength_count = dec.take_usize()?;
        let objective = dec.take_f64()?;
        let proven_optimal = dec.take_bool()?;
        let solver_stats = match dec.take_u8()? {
            0 => None,
            1 => Some(take_solve_stats(dec)?),
            b => return Err(dec.error(format!("invalid solver-stats tag {b:#04x}"))),
        };
        Ok(Assignment {
            wavelengths,
            node_splitter,
            wavelength_count,
            objective,
            proven_optimal,
            solver_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::{run_stage, AssignStage, ClusterStage, LayoutStage, RouteStage};
    use crate::synthesis::SringConfig;
    use crate::AssignmentStrategy;
    use onoc_ctx::ExecCtx;
    use onoc_graph::benchmarks;

    fn config() -> SringConfig {
        SringConfig {
            strategy: AssignmentStrategy::Heuristic,
            ..SringConfig::default()
        }
    }

    /// Canonical-bytes round trip: the encoding is total and canonical, so
    /// `persist → restore → persist` must reproduce the exact bytes.
    fn assert_bytes_roundtrip<T: Persist>(value: &T) -> T {
        let bytes = value.to_store_bytes();
        let back = T::from_store_bytes(&bytes).unwrap();
        assert_eq!(
            back.to_store_bytes(),
            bytes,
            "re-encoding must be identical"
        );
        back
    }

    fn artifacts() -> (Clustering, LayoutArtifact, RouteArtifact, Assignment) {
        let app = benchmarks::mwd();
        let cfg = config();
        let ctx = ExecCtx::default();
        let clustering = run_stage(
            &ctx,
            &ClusterStage {
                app: &app,
                config: &cfg,
            },
        )
        .unwrap();
        let layout = run_stage(
            &ctx,
            &LayoutStage {
                app: &app,
                config: &cfg,
                clustering: &clustering,
            },
        )
        .unwrap();
        let route = run_stage(
            &ctx,
            &RouteStage {
                app: &app,
                config: &cfg,
                clustering: &clustering,
                layout: &layout,
            },
        )
        .unwrap();
        let assignment = run_stage(
            &ctx,
            &AssignStage {
                app: &app,
                config: &cfg,
                route: &route,
                cacheable: true,
            },
        )
        .unwrap();
        (
            (*clustering).clone(),
            (*layout).clone(),
            (*route).clone(),
            (*assignment).clone(),
        )
    }

    #[test]
    fn clustering_round_trips() {
        let (clustering, ..) = artifacts();
        let back = assert_bytes_roundtrip(&clustering);
        assert_eq!(back, clustering);
    }

    #[test]
    fn layout_artifact_round_trips_by_replay() {
        let (_, layout, ..) = artifacts();
        let back = assert_bytes_roundtrip(&layout);
        assert_eq!(back.intra_wg, layout.intra_wg);
        assert_eq!(back.inter_wg, layout.inter_wg);
        assert_eq!(back.layout.positions(), layout.layout.positions());
        assert_eq!(back.layout.waveguides(), layout.layout.waveguides());
        assert_eq!(
            back.layout.total_crossings(),
            layout.layout.total_crossings()
        );
    }

    #[test]
    fn route_artifact_round_trips() {
        let (_, _, route, _) = artifacts();
        let back = assert_bytes_roundtrip(&route);
        assert_eq!(back.signal_paths, route.signal_paths);
        assert_eq!(back.assign_paths, route.assign_paths);
    }

    #[test]
    fn assignment_round_trips() {
        let (.., assignment) = artifacts();
        let back = assert_bytes_roundtrip(&assignment);
        assert_eq!(back, assignment);
    }

    #[test]
    fn milp_assignment_with_solver_stats_round_trips() {
        let app = benchmarks::mwd();
        let cfg = SringConfig {
            strategy: AssignmentStrategy::Milp(crate::MilpOptions::default()),
            ..SringConfig::default()
        };
        let ctx = ExecCtx::default();
        let clustering = run_stage(
            &ctx,
            &ClusterStage {
                app: &app,
                config: &cfg,
            },
        )
        .unwrap();
        let layout = run_stage(
            &ctx,
            &LayoutStage {
                app: &app,
                config: &cfg,
                clustering: &clustering,
            },
        )
        .unwrap();
        let route = run_stage(
            &ctx,
            &RouteStage {
                app: &app,
                config: &cfg,
                clustering: &clustering,
                layout: &layout,
            },
        )
        .unwrap();
        let assignment = run_stage(
            &ctx,
            &AssignStage {
                app: &app,
                config: &cfg,
                route: &route,
                cacheable: true,
            },
        )
        .unwrap();
        assert!(
            assignment.solver_stats.is_some(),
            "MILP run should carry solver stats"
        );
        let back = assert_bytes_roundtrip(&*assignment);
        assert_eq!(back, *assignment);
    }

    #[test]
    fn corrupted_artifact_payloads_are_rejected_not_panicking() {
        // Any single-byte corruption of a persisted artifact must surface
        // as a DecodeError (the framing checksum normally catches these
        // first; this exercises the Persist layer's own validation).
        let (clustering, layout, route, assignment) = artifacts();
        let payloads = [
            clustering.to_store_bytes(),
            layout.to_store_bytes(),
            route.to_store_bytes(),
            assignment.to_store_bytes(),
        ];
        for (which, bytes) in payloads.iter().enumerate() {
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] = bad[i].wrapping_add(1);
                // Must not panic; decoded-but-different is acceptable only
                // if it still re-encodes (no invariant was broken).
                match which {
                    0 => {
                        let _ = Clustering::from_store_bytes(&bad);
                    }
                    1 => {
                        let _ = LayoutArtifact::from_store_bytes(&bad);
                    }
                    2 => {
                        let _ = RouteArtifact::from_store_bytes(&bad);
                    }
                    _ => {
                        let _ = Assignment::from_store_bytes(&bad);
                    }
                }
            }
        }
    }

    #[test]
    fn truncated_artifact_payloads_are_rejected() {
        let (clustering, ..) = artifacts();
        let bytes = clustering.to_store_bytes();
        for len in 0..bytes.len() {
            assert!(
                Clustering::from_store_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }
}
