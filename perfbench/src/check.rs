//! Output checks: every design the benchmark produces is validated,
//! simulated and, where the committed reference knows it, compared field
//! by field.

use onoc_ctx::ContentHasher;
use onoc_graph::CommGraph;
use onoc_sim::{simulate, SimConfig, TransmissionSchedule};
use sring_core::{design_bytes, SringReport};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Payload bits per message in the all-at-once simulation.
const SIM_BITS: usize = 512;

/// What the reference records about one design.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    /// Hex content hash of `design_bytes`.
    pub hash: String,
    pub wavelengths: usize,
    pub objective: f64,
    pub proven_optimal: bool,
}

impl Facts {
    pub fn of(report: &SringReport) -> Facts {
        let mut hasher = ContentHasher::new();
        hasher.write_bytes(&design_bytes(&report.design));
        let key = hasher.finish();
        Facts {
            hash: format!("{:016x}{:016x}", key.0[0], key.0[1]),
            wavelengths: report.assignment.wavelength_count,
            objective: report.assignment.objective,
            proven_optimal: report.assignment.proven_optimal,
        }
    }
}

/// The committed per-design reference, one line per design:
/// `label hash wavelengths objective proven`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference(BTreeMap<String, Facts>);

impl Reference {
    /// The reference committed beside the benchmark.
    pub fn committed() -> Result<Reference, String> {
        Reference::parse(include_str!("../reference.txt"))
    }

    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("reference line {}: {line:?}", n + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [label, hash, wavelengths, objective, proven] = fields[..] else {
                return Err(bad());
            };
            let facts = Facts {
                hash: hash.to_owned(),
                wavelengths: wavelengths.parse().map_err(|_| bad())?,
                objective: objective.parse().map_err(|_| bad())?,
                proven_optimal: proven.parse().map_err(|_| bad())?,
            };
            entries.insert(label.to_owned(), facts);
        }
        Ok(Reference(entries))
    }

    pub fn render(&self) -> String {
        let mut out =
            String::from("# label design_bytes_hash wavelengths objective proven_optimal\n");
        for (label, f) in &self.0 {
            out.push_str(&format!(
                "{label} {} {} {:?} {}\n",
                f.hash, f.wavelengths, f.objective, f.proven_optimal
            ));
        }
        out
    }

    pub fn insert(&mut self, label: &str, facts: Facts) {
        self.0.insert(label.to_owned(), facts);
    }

    /// Differences between `facts` and the entry for `label`; a missing
    /// entry is a difference only when `required`.
    pub fn compare(&self, label: &str, facts: &Facts, required: bool) -> Vec<String> {
        let Some(want) = self.0.get(label) else {
            return if required {
                vec![format!("{label}: no reference entry")]
            } else {
                Vec::new()
            };
        };
        let mut problems = Vec::new();
        if want.hash != facts.hash {
            problems.push(format!(
                "{label}: design hash {} != reference {}",
                facts.hash, want.hash
            ));
        }
        if want.wavelengths != facts.wavelengths {
            problems.push(format!(
                "{label}: #wl {} != reference {}",
                facts.wavelengths, want.wavelengths
            ));
        }
        if want.objective.to_bits() != facts.objective.to_bits() {
            problems.push(format!(
                "{label}: objective {:?} != reference {:?}",
                facts.objective, want.objective
            ));
        }
        if want.proven_optimal != facts.proven_optimal {
            problems.push(format!(
                "{label}: proven_optimal {} != reference {}",
                facts.proven_optimal, want.proven_optimal
            ));
        }
        problems
    }
}

/// Time spent in the two checks of one design.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckTimes {
    pub validate: Duration,
    pub sim: Duration,
}

/// Checks one synthesized design: it validates against its application,
/// the all-at-once simulation delivers every message without a collision,
/// and a MILP run ended proven optimal (an unproven result depends on
/// machine speed). Returns the problems found and the time each check
/// took.
pub fn check_design(
    label: &str,
    app: &CommGraph,
    report: &SringReport,
) -> (Vec<String>, CheckTimes) {
    let mut problems = Vec::new();
    let started = Instant::now();
    if let Err(e) = report.design.validate_against(app) {
        problems.push(format!("{label}: validate_against failed: {e}"));
    }
    let validate = started.elapsed();

    let started = Instant::now();
    let schedule = TransmissionSchedule::all_at_once(&report.design, SIM_BITS);
    let sim = simulate(&report.design, &schedule, &SimConfig::default());
    if sim.collisions != 0 || sim.delivered != app.message_count() {
        problems.push(format!(
            "{label}: simulation delivered {}/{} with {} collisions",
            sim.delivered,
            app.message_count(),
            sim.collisions
        ));
    }
    let sim_time = started.elapsed();

    if report.assignment.solver_stats.is_some() && !report.assignment.proven_optimal {
        problems.push(format!("{label}: MILP ended without proving optimality"));
    }
    (
        problems,
        CheckTimes {
            validate,
            sim: sim_time,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_graph::benchmarks::Benchmark;
    use sring_core::SringSynthesizer;

    fn mwd() -> (CommGraph, SringReport) {
        let app = Benchmark::Mwd.graph();
        let report = SringSynthesizer::new().synthesize_detailed(&app).unwrap();
        (app, report)
    }

    #[test]
    fn a_sound_design_passes_every_check_and_round_trips_the_reference() {
        let (app, report) = mwd();
        let (problems, _) = check_design("MWD", &app, &report);
        assert!(problems.is_empty(), "{problems:?}");
        let mut reference = Reference::default();
        reference.insert("MWD", Facts::of(&report));
        let parsed = Reference::parse(&reference.render()).unwrap();
        assert_eq!(parsed, reference);
        assert!(parsed.compare("MWD", &Facts::of(&report), true).is_empty());
    }

    #[test]
    fn a_tampered_reference_is_counted_as_a_failure() {
        let (_, report) = mwd();
        let facts = Facts::of(&report);
        let tamper = |edit: &dyn Fn(&mut Facts)| {
            let mut wrong = facts.clone();
            edit(&mut wrong);
            let mut reference = Reference::default();
            reference.insert("MWD", wrong);
            reference.compare("MWD", &facts, true)
        };
        assert_eq!(tamper(&|f| f.hash.replace_range(0..1, "x")).len(), 1);
        assert_eq!(tamper(&|f| f.wavelengths += 1).len(), 1);
        assert_eq!(tamper(&|f| f.objective += 1e-9).len(), 1);
        assert_eq!(tamper(&|f| f.proven_optimal = !f.proven_optimal).len(), 1);
        // A design the reference does not know fails only when required.
        let empty = Reference::default();
        assert_eq!(empty.compare("MWD", &facts, true).len(), 1);
        assert!(empty.compare("MWD", &facts, false).is_empty());
    }

    #[test]
    fn the_committed_reference_parses_and_rejects_malformed_lines() {
        let committed = Reference::committed().unwrap();
        assert!(committed.0.contains_key("MWD"));
        assert!(Reference::parse("MWD abc 4 1.0").is_err());
        assert!(Reference::parse("MWD abc four 1.0 true").is_err());
    }
}
