//! End-to-end integration tests: every synthesis method, on every paper
//! benchmark, produces a structurally valid design whose analysis is
//! internally consistent.

use std::sync::OnceLock;

use sring::eval::methods::Method;
use sring::graph::benchmarks::Benchmark;
use sring::photonics::{RouterAnalysis, RouterDesign};
use sring::units::{Decibels, TechnologyParameters};

fn tech() -> TechnologyParameters {
    TechnologyParameters::default()
}

/// One synthesis sweep shared by every test in this file: every method on
/// every benchmark, with the design and its analysis.
fn sweep() -> &'static Vec<(Benchmark, &'static str, RouterDesign, RouterAnalysis)> {
    static SWEEP: OnceLock<Vec<(Benchmark, &'static str, RouterDesign, RouterAnalysis)>> =
        OnceLock::new();
    SWEEP.get_or_init(|| {
        let mut rows = Vec::new();
        for b in Benchmark::ALL {
            let app = b.graph();
            for m in Method::standard() {
                let design = m
                    .synthesize(&app, &tech())
                    .unwrap_or_else(|e| panic!("{} on {b}: {e}", m.name()));
                let analysis = design.analyze(&tech());
                rows.push((b, m.name(), design, analysis));
            }
        }
        rows
    })
}

#[test]
fn flexible_route_selection_is_run_to_run_deterministic() {
    // Regression for the L2 bug class (clippy's `PartialOrd::partial_cmp`
    // entry): the greedy route selection in the route stage orders
    // flexible messages by geometric length and breaks peak-load ties by
    // length, both via `total_cmp`.
    // Two independent synthesis runs must choose bit-identical designs —
    // under the old `partial_cmp(..).unwrap_or(Equal)` comparators a NaN
    // length would have made this ordering pivot-sequence-dependent.
    use sring::core::{AssignmentStrategy, SringConfig, SringSynthesizer};
    for b in Benchmark::ALL {
        let app = b.graph();
        let synth = SringSynthesizer::with_config(SringConfig {
            strategy: AssignmentStrategy::Heuristic,
            ..SringConfig::default()
        });
        let first = synth.synthesize(&app).expect("synthesizes");
        let second = synth.synthesize(&app).expect("synthesizes");
        let t = tech();
        assert_eq!(
            format!("{:?}", first.analyze(&t)),
            format!("{:?}", second.analyze(&t)),
            "{b}: repeated synthesis must be bit-identical"
        );
    }
}

#[test]
fn every_method_serves_every_benchmark() {
    for (b, name, design, _) in sweep() {
        let app = b.graph();
        design
            .validate_against(&app)
            .unwrap_or_else(|e| panic!("{name} on {b}: {e}"));
        assert_eq!(design.paths().len(), app.message_count());
    }
}

#[test]
fn analysis_invariants_hold_for_all_designs() {
    for (b, name, _, a) in sweep() {
        let app = b.graph();
        // Loss including the PDN is never below the loss without it.
        assert!(
            a.worst_loss_with_pdn >= a.worst_insertion_loss,
            "{b}/{name}"
        );
        // The wavelength count matches the distinct wavelengths of the
        // per-wavelength reports, and path counts add up.
        assert_eq!(a.wavelength_count, a.per_wavelength.len());
        let paths: usize = a.per_wavelength.iter().map(|w| w.path_count).sum();
        assert_eq!(paths, app.message_count(), "{b}/{name}");
        // Total power is the sum of per-wavelength powers.
        let sum: f64 = a.per_wavelength.iter().map(|w| w.laser_power.0).sum();
        assert!((a.total_laser_power.0 - sum).abs() < 1e-9);
        // The worst per-wavelength loss equals the design-wide worst.
        let worst = a
            .per_wavelength
            .iter()
            .map(|w| w.worst_loss_with_pdn)
            .fold(Decibels(0.0), Decibels::max);
        assert!((worst.0 - a.worst_loss_with_pdn.0).abs() < 1e-9);
    }
}

#[test]
fn sring_structural_guarantees() {
    for b in Benchmark::ALL {
        let app = b.graph();
        let report = sring::core::SringSynthesizer::new()
            .synthesize_detailed(&app)
            .expect("synthesizes");
        // At most two senders per node (one intra, one inter).
        let senders = report.design.senders();
        for v in app.node_ids() {
            assert!(
                senders.iter().filter(|(n, _)| *n == v).count() <= 2,
                "{b}: node {v}"
            );
        }
        // The realized longest path respects the accepted L_max.
        assert!(report.clustering.longest_path.0 <= report.clustering.l_max.0 + 1e-9);
        // The assignment is collision-free by construction (validated in
        // RouterDesign::new), and b_sp flags match the wavelengths.
        let a = report.design.analyze(&tech());
        assert!(a.max_splitters_passed >= report.design.pdn().tree_levels());
    }
}

#[test]
fn paper_shape_splitters_and_power() {
    // The reproduction's headline shape (see EXPERIMENTS.md): SRing has
    // the smallest worst-case splitter count on every benchmark, and
    // XRing the largest (its hierarchical PDN), as in the paper's Table I.
    for b in Benchmark::ALL {
        let rows: Vec<_> = sweep()
            .iter()
            .filter(|(bb, ..)| *bb == b)
            .map(|(_, _, _, a)| a)
            .collect();
        let sring = rows
            .iter()
            .find(|r| r.method == "SRing")
            .expect("SRing row");
        let xring = rows
            .iter()
            .find(|r| r.method == "XRing")
            .expect("XRing row");
        for r in &rows {
            assert!(
                sring.max_splitters_passed <= r.max_splitters_passed,
                "{b}: SRing #sp_w {} vs {} {}",
                sring.max_splitters_passed,
                r.method,
                r.max_splitters_passed
            );
            assert!(xring.max_splitters_passed >= r.max_splitters_passed, "{b}");
        }
    }
}

#[test]
fn power_ranking_on_multimedia_benchmarks() {
    // On the low-density multimedia systems the paper's headline holds
    // exactly: SRing has the minimum total laser power.
    for b in [Benchmark::Mwd, Benchmark::Vopd, Benchmark::Mpeg] {
        let rows: Vec<_> = sweep()
            .iter()
            .filter(|(bb, ..)| *bb == b)
            .map(|(_, _, _, a)| a)
            .collect();
        let sring = rows
            .iter()
            .find(|r| r.method == "SRing")
            .expect("SRing row");
        for r in &rows {
            assert!(
                sring.total_laser_power.0 <= r.total_laser_power.0 + 1e-9,
                "{b}: SRing {} vs {} {}",
                sring.total_laser_power,
                r.method,
                r.total_laser_power
            );
        }
    }
}

#[test]
fn technology_scaling_is_monotone() {
    // Doubling the propagation loss can only worsen every loss metric.
    let app = Benchmark::Mwd.graph();
    let design = Method::Sring(Default::default())
        .synthesize(&app, &tech())
        .expect("synthesizes");
    let base = design.analyze(&tech());
    let lossy = TechnologyParameters {
        propagation_loss_per_mm: Decibels(2.0),
        ..tech()
    };
    let worse = design.analyze(&lossy);
    assert!(worse.worst_insertion_loss > base.worst_insertion_loss);
    assert!(worse.total_laser_power.0 > base.total_laser_power.0);
    assert_eq!(worse.max_splitters_passed, base.max_splitters_passed);
}
