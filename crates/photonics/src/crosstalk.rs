//! First-order crosstalk and signal-to-noise analysis for WR-ONoC router
//! designs.
//!
//! The paper (Sec. II-B) notes that crosstalk is a minor concern for ring
//! routers — crosstalk is generated chiefly at MRRs and waveguide
//! crossings, and ring routers avoid OSEs and crossings — while it is a
//! first-class problem for crossbars and OSE-based designs like XRing
//! (whose own paper is "crosstalk-aware"). This module makes that
//! argument quantitative with the standard first-order incoherent model
//! (in the spirit of ref. \[24\]):
//!
//! * **Receiver-MRR leakage** — every signal that passes a receiver's
//!   drop MRR on its way along the waveguide leaks a fraction of its
//!   power into the detector: the adjacent WDM channel is suppressed by
//!   [`mrr_adjacent_suppression`](onoc_units::TechnologyParameters::mrr_adjacent_suppression),
//!   farther channels by
//!   [`mrr_far_suppression`](onoc_units::TechnologyParameters::mrr_far_suppression).
//! * **Crossing leakage** — at every waveguide crossing a fraction
//!   (suppressed by
//!   [`crossing_suppression`](onoc_units::TechnologyParameters::crossing_suppression))
//!   of the crossing signal couples into the victim waveguide; if it
//!   shares the victim's wavelength it reaches the victim's detector.
//!
//! Crosstalk contributions add linearly (incoherent worst case); the
//! signal-to-noise ratio of a path is its received signal power over the
//! accumulated crosstalk power at its detector.

use crate::design::RouterDesign;
use crate::loss::insertion_loss;
use crate::pdn::PdnDesign;
use onoc_graph::MessageId;
use onoc_units::{Decibels, TechnologyParameters};
use std::collections::HashMap;

/// Crosstalk analysis of one signal path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathCrosstalk {
    /// The message whose path this is.
    pub message: MessageId,
    /// Received signal power at the detector, dBm.
    pub signal_dbm: f64,
    /// Accumulated crosstalk power at the detector, dBm
    /// (`-inf` if no interferer reaches it).
    pub crosstalk_dbm: f64,
    /// Signal-to-noise ratio in dB (`+inf` if no interferer).
    pub snr: Decibels,
    /// Number of interfering contributions summed.
    pub interferer_count: usize,
}

/// Whole-design crosstalk report.
#[derive(Debug, Clone, PartialEq)]
pub struct CrosstalkReport {
    /// Per-path details, in message order.
    pub paths: Vec<PathCrosstalk>,
    /// The worst (smallest) SNR over all paths.
    pub worst_snr: Decibels,
    /// Total interfering contributions across the design.
    pub total_interferers: usize,
}

/// Runs the crosstalk analysis on a design.
///
/// Each path's launched power is the laser power its wavelength was sized
/// for (worst-case loss of that wavelength including the PDN), attenuated
/// by the path's own insertion loss; interferers are attenuated the same
/// way plus the relevant suppression.
#[must_use]
pub fn analyze_crosstalk(design: &RouterDesign, tech: &TechnologyParameters) -> CrosstalkReport {
    let analysis = design.analyze(tech);
    // Optical launch power per wavelength (dBm), before the PDN: the
    // electrical figure divided by the wall-plug efficiency is not optical,
    // so recompute the optical level directly.
    let mut launch_dbm: HashMap<usize, f64> = HashMap::new();
    for w in &analysis.per_wavelength {
        let optical = tech.detector_sensitivity + w.worst_loss_with_pdn;
        launch_dbm.insert(w.wavelength.index(), optical.0);
    }

    // Received signal level of each path (dBm): launch − PDN − L_s.
    let pdn: &PdnDesign = design.pdn();
    let received: Vec<f64> = design
        .paths()
        .iter()
        .map(|p| {
            launch_dbm[&p.wavelength.index()]
                - pdn.pdn_loss(p.src, tech).0
                - insertion_loss(&p.geometry, tech).0
        })
        .collect();

    // Crossing identity map: (waveguide, segment) → crossing partners.
    let mut crossing_partners: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
    for ((a_wg, a_seg), (b_wg, b_seg)) in design.layout().crossing_pairs() {
        crossing_partners
            .entry((a_wg.index(), a_seg))
            .or_default()
            .push((b_wg.index(), b_seg));
        crossing_partners
            .entry((b_wg.index(), b_seg))
            .or_default()
            .push((a_wg.index(), a_seg));
    }

    let mut paths_report = Vec::with_capacity(design.paths().len());
    let mut total_interferers = 0usize;
    let mut worst_snr = Decibels(f64::INFINITY);

    for (i, victim) in design.paths().iter().enumerate() {
        // The victim's detector sits at the end of its last occupied
        // channel.
        #[expect(
            clippy::expect_used,
            reason = "validation rejects designs with an empty path occupancy"
        )]
        let last_channel = *victim
            .occupancy
            .last()
            .expect("occupancy validated non-empty");
        let mut noise_mw = 0.0f64;
        let mut interferers = 0usize;

        for (j, aggressor) in design.paths().iter().enumerate() {
            if i == j {
                continue;
            }
            // 1. Receiver-MRR leakage: the aggressor passes the victim's
            //    receiver if it occupies the victim's final channel.
            let passes_receiver = aggressor
                .occupancy
                .iter()
                .any(|&(wg, seg)| (wg, seg) == last_channel);
            if passes_receiver {
                let delta = victim
                    .wavelength
                    .index()
                    .abs_diff(aggressor.wavelength.index());
                let suppression = if delta <= 1 {
                    tech.mrr_adjacent_suppression
                } else {
                    tech.mrr_far_suppression
                };
                noise_mw += 10f64.powf((received[j] - suppression.0) / 10.0);
                interferers += 1;
            }
            // 2. Crossing leakage: a same-wavelength aggressor on a channel
            //    that crosses any of the victim's channels couples straight
            //    into the victim's waveguide and reaches its detector.
            if aggressor.wavelength == victim.wavelength {
                let couples = victim.occupancy.iter().any(|&(v_wg, v_seg)| {
                    crossing_partners
                        .get(&(v_wg.index(), v_seg))
                        .is_some_and(|partners| {
                            aggressor
                                .occupancy
                                .iter()
                                .any(|&(a_wg, a_seg)| partners.contains(&(a_wg.index(), a_seg)))
                        })
                });
                if couples {
                    noise_mw += 10f64.powf((received[j] - tech.crossing_suppression.0) / 10.0);
                    interferers += 1;
                }
            }
        }

        let crosstalk_dbm = if noise_mw > 0.0 {
            10.0 * noise_mw.log10()
        } else {
            f64::NEG_INFINITY
        };
        let snr = Decibels(received[i] - crosstalk_dbm);
        worst_snr = worst_snr.min(snr);
        total_interferers += interferers;
        paths_report.push(PathCrosstalk {
            message: victim.message,
            signal_dbm: received[i],
            crosstalk_dbm,
            snr,
            interferer_count: interferers,
        });
    }

    CrosstalkReport {
        paths: paths_report,
        worst_snr,
        total_interferers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_graph::{MessageId, NodeId, Point};
    use onoc_layout::{Cycle, Layout, WaveguideId};
    use onoc_photonics_test_helpers::*;

    // Local helpers (no external crate): build small designs by hand.
    mod onoc_photonics_test_helpers {
        pub use crate::design::SignalPath;
        pub use crate::loss::PathGeometry;
        pub use crate::pdn::PdnStyle;
        pub use onoc_units::{Millimeters, Wavelength};
    }

    fn tech() -> TechnologyParameters {
        TechnologyParameters::default()
    }

    fn path(
        message: usize,
        src: usize,
        dst: usize,
        wg: WaveguideId,
        segs: &[usize],
        wl: usize,
    ) -> SignalPath {
        SignalPath {
            message: MessageId(message),
            src: NodeId(src),
            dst: NodeId(dst),
            waveguide: wg,
            occupancy: segs.iter().map(|&s| (wg, s)).collect(),
            geometry: PathGeometry {
                length: Millimeters(1.0),
                ..Default::default()
            },
            wavelength: Wavelength(wl),
        }
    }

    fn ring_layout(n: usize) -> (Layout, WaveguideId) {
        let positions: Vec<Point> = (0..n)
            .map(|i| {
                // A rectangle: half the nodes on the bottom edge, half on top.
                let half = n.div_ceil(2);
                if i < half {
                    Point::new(i as f64, 0.0)
                } else {
                    Point::new((n - 1 - i) as f64, 1.0)
                }
            })
            .collect();
        let mut layout = Layout::new(positions);
        let ring = Cycle::new((0..n).map(NodeId).collect()).unwrap();
        let wg = layout.route_cycle(&ring);
        (layout, wg)
    }

    #[test]
    fn lone_path_has_infinite_snr() {
        let (layout, wg) = ring_layout(4);
        let design = RouterDesign::new(
            "t",
            "app",
            layout,
            vec![path(0, 0, 1, wg, &[0], 0)],
            PdnDesign::new(PdnStyle::SharedTree, vec![false; 4], 1),
        )
        .unwrap();
        let report = analyze_crosstalk(&design, &tech());
        assert_eq!(report.total_interferers, 0);
        assert!(report.worst_snr.0.is_infinite());
        assert!(report.paths[0].crosstalk_dbm.is_infinite());
    }

    #[test]
    fn passing_signal_leaks_into_receiver() {
        let (layout, wg) = ring_layout(4);
        // Path A: 0→2 over segments 0,1. Path B: 1→2 over segment 1 (same
        // final channel as A → each passes the other's receiver region).
        let design = RouterDesign::new(
            "t",
            "app",
            layout,
            vec![path(0, 0, 2, wg, &[0, 1], 0), path(1, 1, 2, wg, &[1], 1)],
            PdnDesign::new(PdnStyle::SharedTree, vec![false; 4], 2),
        )
        .unwrap();
        let report = analyze_crosstalk(&design, &tech());
        assert!(report.total_interferers >= 2);
        assert!(report.worst_snr.0.is_finite());
        // Adjacent-channel suppression bounds the SNR from below.
        assert!(report.worst_snr.0 > 10.0, "SNR {}", report.worst_snr);
    }

    #[test]
    fn farther_channels_leak_less() {
        let (layout, wg) = ring_layout(6);
        let build = |wl_b: usize| {
            let (layout, wg2) = (layout.clone(), wg);
            RouterDesign::new(
                "t",
                "app",
                layout,
                vec![
                    path(0, 0, 2, wg2, &[0, 1], 0),
                    path(1, 1, 2, wg2, &[1], wl_b),
                ],
                PdnDesign::new(PdnStyle::SharedTree, vec![false; 6], 2),
            )
            .unwrap()
        };
        let near = analyze_crosstalk(&build(1), &tech());
        let far = analyze_crosstalk(&build(3), &tech());
        assert!(
            far.paths[0].snr.0 > near.paths[0].snr.0,
            "far-channel SNR {} should beat adjacent {}",
            far.paths[0].snr,
            near.paths[0].snr
        );
    }

    #[test]
    fn better_mrr_suppression_improves_snr() {
        let (layout, wg) = ring_layout(4);
        let design = RouterDesign::new(
            "t",
            "app",
            layout,
            vec![path(0, 0, 2, wg, &[0, 1], 0), path(1, 1, 2, wg, &[1], 1)],
            PdnDesign::new(PdnStyle::SharedTree, vec![false; 4], 2),
        )
        .unwrap();
        let base = analyze_crosstalk(&design, &tech());
        let better = TechnologyParameters {
            mrr_adjacent_suppression: Decibels(35.0),
            ..tech()
        };
        let improved = analyze_crosstalk(&design, &better);
        assert!(improved.worst_snr.0 > base.worst_snr.0);
    }

    #[test]
    fn crossing_couples_same_wavelength_signals() {
        // Two open waveguides crossing at the origin, same wavelength.
        let mut layout = Layout::new(vec![
            Point::new(-1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, -1.0),
            Point::new(0.0, 1.0),
        ]);
        let h = layout.route_open_path(&[NodeId(0), NodeId(1)]);
        let v = layout.route_open_path(&[NodeId(2), NodeId(3)]);
        let mut pa = path(0, 0, 1, h, &[0], 0);
        pa.occupancy = vec![(h, 0)];
        let mut pb = path(1, 2, 3, v, &[0], 0);
        pb.occupancy = vec![(v, 0)];
        let design = RouterDesign::new(
            "t",
            "app",
            layout,
            vec![pa, pb],
            PdnDesign::new(PdnStyle::SharedTree, vec![false; 4], 2),
        )
        .unwrap();
        let report = analyze_crosstalk(&design, &tech());
        assert_eq!(report.total_interferers, 2, "both directions couple");
        assert!(report.worst_snr.0.is_finite());
    }
}
