//! Transmission schedules and the first-principles collision checker.
//!
//! The checker knows nothing about how the design was synthesized: it
//! takes concrete transmission intervals, expands each into the
//! `(waveguide, segment, wavelength)` channels the signal drives while it
//! is on the air, and reports any overlap — an independent witness that
//! the wavelength routing is collision-free (paper Eq. 2), usable for
//! fault injection via [`simulate_with_wavelengths`].

use crate::timing::PROPAGATION_DELAY_PS_PER_MM;
use onoc_graph::MessageId;
use onoc_photonics::RouterDesign;
use onoc_units::Wavelength;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Transceiver data rate in gigabits per second.
    pub data_rate_gbps: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            data_rate_gbps: 10.0,
        }
    }
}

/// One planned transmission: a message, its start time and payload size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transmission {
    /// Which message transmits.
    pub message: MessageId,
    /// Start time in picoseconds.
    pub start_ps: f64,
    /// Payload size in bits.
    pub bits: usize,
}

/// A set of planned transmissions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TransmissionSchedule {
    transmissions: Vec<Transmission>,
}

impl TransmissionSchedule {
    /// An empty schedule.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a transmission.
    pub fn push(&mut self, transmission: Transmission) -> &mut Self {
        self.transmissions.push(transmission);
        self
    }

    /// The planned transmissions.
    #[must_use]
    pub fn transmissions(&self) -> &[Transmission] {
        &self.transmissions
    }

    /// Every message of `design` transmits `bits` starting at t = 0 — the
    /// worst case for collisions, since all reserved paths are live
    /// simultaneously.
    #[must_use]
    pub fn all_at_once(design: &RouterDesign, bits: usize) -> Self {
        let transmissions = design
            .paths()
            .iter()
            .map(|p| Transmission {
                message: p.message,
                start_ps: 0.0,
                bits,
            })
            .collect();
        TransmissionSchedule { transmissions }
    }

    /// Every message transmits `bits`, staggered `gap_ps` apart in message
    /// order.
    #[must_use]
    pub fn staggered(design: &RouterDesign, bits: usize, gap_ps: f64) -> Self {
        let transmissions = design
            .paths()
            .iter()
            .enumerate()
            .map(|(i, p)| Transmission {
                message: p.message,
                start_ps: i as f64 * gap_ps,
                bits,
            })
            .collect();
        TransmissionSchedule { transmissions }
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Transmissions delivered without collision.
    pub delivered: usize,
    /// Channel-interval overlaps detected (0 for any valid design).
    pub collisions: usize,
    /// The colliding message pairs, if any, each as `(lower, higher)`
    /// and sorted, so equal inputs give an equal report.
    pub collision_pairs: Vec<(MessageId, MessageId)>,
    /// Arrival time of the last bit of the last delivery, picoseconds.
    pub makespan_ps: f64,
    /// Aggregate goodput over the makespan, gigabits per second
    /// (0 when nothing was transmitted).
    pub goodput_gbps: f64,
}

/// Simulates `schedule` over `design` with the design's own wavelength
/// assignment.
///
/// # Panics
///
/// Panics if the schedule references a message the design does not serve
/// or the data rate is not positive.
#[must_use]
pub fn simulate(
    design: &RouterDesign,
    schedule: &TransmissionSchedule,
    config: &SimConfig,
) -> SimReport {
    let wavelengths: Vec<Wavelength> = design.paths().iter().map(|p| p.wavelength).collect();
    simulate_with_wavelengths(design, schedule, config, &wavelengths)
}

/// Simulates with an overriding wavelength vector (indexed like
/// `design.paths()`), for what-if analysis and fault injection: pass a
/// deliberately broken assignment and watch the checker catch it.
///
/// # Panics
///
/// Panics if `wavelengths.len()` differs from the design's path count, the
/// schedule references an unknown message, or the data rate is not
/// positive.
#[must_use]
pub fn simulate_with_wavelengths(
    design: &RouterDesign,
    schedule: &TransmissionSchedule,
    config: &SimConfig,
    wavelengths: &[Wavelength],
) -> SimReport {
    assert!(config.data_rate_gbps > 0.0, "data rate must be positive");
    assert_eq!(
        wavelengths.len(),
        design.paths().len(),
        "one wavelength per design path"
    );
    let ps_per_bit = 1000.0 / config.data_rate_gbps;
    let by_message: HashMap<MessageId, usize> = design
        .paths()
        .iter()
        .enumerate()
        .map(|(i, p)| (p.message, i))
        .collect();

    // Expand each transmission into per-channel occupancy intervals. A
    // signal drives a segment from the moment its first bit reaches the
    // segment until the last bit leaves it; the conservative (and simple)
    // over-approximation used here charges the whole path for the whole
    // on-air interval.
    struct Interval {
        message: MessageId,
        channel: (usize, usize),
        wavelength: Wavelength,
        start: f64,
        end: f64,
    }
    let mut intervals = Vec::new();
    let mut makespan = 0.0f64;
    for t in schedule.transmissions() {
        let idx = *by_message
            .get(&t.message)
            .unwrap_or_else(|| panic!("schedule references unknown message {}", t.message));
        let path = &design.paths()[idx];
        let on_air = t.bits as f64 * ps_per_bit;
        let flight = path.geometry.length.0 * PROPAGATION_DELAY_PS_PER_MM;
        let end = t.start_ps + on_air + flight;
        makespan = makespan.max(end);
        for &(wg, seg) in &path.occupancy {
            intervals.push(Interval {
                message: t.message,
                channel: (wg.index(), seg),
                wavelength: wavelengths[idx],
                start: t.start_ps,
                end,
            });
        }
    }

    // Collision: same channel, same wavelength, overlapping interval,
    // different messages.
    let mut collision_pairs = BTreeSet::new();
    let mut colliding: BTreeSet<MessageId> = BTreeSet::new();
    let mut by_channel: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (i, iv) in intervals.iter().enumerate() {
        by_channel.entry(iv.channel).or_default().push(i);
    }
    for users in by_channel.values() {
        for (ai, &a) in users.iter().enumerate() {
            for &b in &users[ai + 1..] {
                let (x, y) = (&intervals[a], &intervals[b]);
                if x.message != y.message
                    && x.wavelength == y.wavelength
                    && x.start < y.end
                    && y.start < x.end
                {
                    let pair = if x.message <= y.message {
                        (x.message, y.message)
                    } else {
                        (y.message, x.message)
                    };
                    collision_pairs.insert(pair);
                    colliding.insert(x.message);
                    colliding.insert(y.message);
                }
            }
        }
    }

    let attempted = schedule.transmissions().len();
    let delivered = schedule
        .transmissions()
        .iter()
        .filter(|t| !colliding.contains(&t.message))
        .count();
    let total_bits: usize = schedule
        .transmissions()
        .iter()
        .filter(|t| !colliding.contains(&t.message))
        .map(|t| t.bits)
        .sum();
    let goodput_gbps = if makespan > 0.0 {
        total_bits as f64 * 1000.0 / makespan
    } else {
        0.0
    };
    let _ = attempted;

    SimReport {
        delivered,
        collisions: collision_pairs.len(),
        collision_pairs: collision_pairs.into_iter().collect(),
        makespan_ps: makespan,
        goodput_gbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_graph::benchmarks;
    use onoc_units::TechnologyParameters;

    fn designs() -> Vec<RouterDesign> {
        let app = benchmarks::mwd();
        let tech = TechnologyParameters::default();
        vec![
            onoc_baselines::ornoc::synthesize(&app, &tech).expect("ornoc"),
            onoc_baselines::ctoring::synthesize(&app, &tech).expect("ctoring"),
            onoc_baselines::xring::synthesize(&app, &tech).expect("xring"),
            sring_core::SringSynthesizer::with_config(sring_core::SringConfig {
                strategy: sring_core::AssignmentStrategy::Heuristic,
                ..Default::default()
            })
            .synthesize(&app)
            .expect("sring"),
        ]
    }

    #[test]
    fn all_valid_designs_deliver_everything_simultaneously() {
        for design in designs() {
            let schedule = TransmissionSchedule::all_at_once(&design, 4096);
            let report = simulate(&design, &schedule, &SimConfig::default());
            assert_eq!(report.collisions, 0, "{}", design.method());
            assert_eq!(report.delivered, design.paths().len());
            assert!(report.goodput_gbps > 0.0);
            assert!(report.makespan_ps > 0.0);
        }
    }

    #[test]
    fn fault_injection_is_caught() {
        let design = &designs()[0];
        // Force every path onto wavelength 0: paths sharing any segment
        // must now collide under a simultaneous schedule.
        let broken = vec![Wavelength(0); design.paths().len()];
        let schedule = TransmissionSchedule::all_at_once(design, 4096);
        let report = simulate_with_wavelengths(design, &schedule, &SimConfig::default(), &broken);
        assert!(report.collisions > 0, "sabotage must be detected");
        assert!(report.delivered < design.paths().len());
        assert!(!report.collision_pairs.is_empty());
    }

    #[test]
    fn collision_pairs_come_out_sorted_and_stable() {
        let design = &designs()[0];
        let broken = vec![Wavelength(0); design.paths().len()];
        let schedule = TransmissionSchedule::all_at_once(design, 4096);
        // On one wavelength at once, every channel two paths share collides.
        let mut users: BTreeMap<_, usize> = BTreeMap::new();
        for path in design.paths() {
            for &channel in &path.occupancy {
                *users.entry(channel).or_default() += 1;
            }
        }
        let shared = users.values().filter(|&&n| n >= 2).count();
        assert!(shared >= 6, "collisions on only {shared} channels");
        let run = || simulate_with_wavelengths(design, &schedule, &SimConfig::default(), &broken);
        let first = run();
        let pairs = &first.collision_pairs;
        assert!(pairs.len() > 1);
        assert!(pairs.iter().all(|(a, b)| a < b), "{pairs:?}");
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "{pairs:?}");
        for _ in 0..8 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn staggering_past_the_makespan_avoids_injected_collisions() {
        let design = &designs()[0];
        let broken = vec![Wavelength(0); design.paths().len()];
        // A generous stagger: each transmission finishes (serialization +
        // flight) before the next starts, so even a single shared
        // wavelength never collides in time.
        let bits = 128;
        let gap = bits as f64 * 100.0 + 10_000.0;
        let schedule = TransmissionSchedule::staggered(design, bits, gap);
        let report = simulate_with_wavelengths(design, &schedule, &SimConfig::default(), &broken);
        assert_eq!(report.collisions, 0);
        assert_eq!(report.delivered, design.paths().len());
    }

    #[test]
    fn goodput_scales_with_concurrency() {
        let design = &designs()[3]; // SRing
        let simultaneous = simulate(
            design,
            &TransmissionSchedule::all_at_once(design, 4096),
            &SimConfig::default(),
        );
        let serialized = simulate(
            design,
            &TransmissionSchedule::staggered(design, 4096, 500_000.0),
            &SimConfig::default(),
        );
        assert!(simultaneous.goodput_gbps > serialized.goodput_gbps);
    }

    #[test]
    fn empty_schedule_is_trivially_clean() {
        let design = &designs()[0];
        let report = simulate(design, &TransmissionSchedule::new(), &SimConfig::default());
        assert_eq!(report.delivered, 0);
        assert_eq!(report.collisions, 0);
        assert_eq!(report.goodput_gbps, 0.0);
    }

    #[test]
    fn schedule_builder_accumulates() {
        let mut s = TransmissionSchedule::new();
        s.push(Transmission {
            message: MessageId(0),
            start_ps: 0.0,
            bits: 8,
        })
        .push(Transmission {
            message: MessageId(1),
            start_ps: 5.0,
            bits: 8,
        });
        assert_eq!(s.transmissions().len(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown message")]
    fn unknown_message_panics() {
        let design = &designs()[0];
        let mut s = TransmissionSchedule::new();
        s.push(Transmission {
            message: MessageId(999),
            start_ps: 0.0,
            bits: 8,
        });
        let _ = simulate(design, &s, &SimConfig::default());
    }
}
