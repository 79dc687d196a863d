//! Seeded inputs of every workload.
//!
//! Everything the program under test receives is generated here. The
//! `--seed` argument orders the cold designs and places the `serve-mix`
//! requests: the class order of every round, the hit benchmarks, and so
//! which request gets which edit and which fresh application. The work
//! itself (the random graphs of `cluster-scale`, the edits and the fresh
//! applications) comes from fixed sequences, so that a run's cost does
//! not depend on the seed. The same seed always yields the same inputs.

use onoc_graph::benchmarks::{Benchmark, DEFAULT_PITCH};
use onoc_graph::synth::random_app;
use onoc_graph::{CommDelta, CommGraph, MessageId};
use onoc_served::proto::{DeltaSpec, JobSpec, Workload as Job};

/// The seed the committed reference was recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// Largest instance `AssignmentStrategy::Auto` still sends to the MILP; the
/// random graphs stay above it so that only the heuristic runs on them.
const AUTO_MILP_MAX_PATHS: usize = 30;

/// `cluster-scale`'s random graphs: 16 nodes, 40 messages (about 2 s of
/// clustering each; 24/60 already takes 14-17 s).
const SCALE_RANDOM: (usize, usize) = (16, 40);
/// Random graphs in `cluster-scale`, the same ones in every run: the
/// clustering time of a `random_app(16, 40)` graph ranges from 1.8 to
/// 3.1 s over seeds, so graphs drawn per seed would move a pass by a
/// fifth. The seed permutes the designs, as in `table2-milp`.
const SCALE_RANDOM_PER_PASS: usize = 2;

/// `serve-mix` misses: 8-node apps with 31-40 messages.
const MISS_NODES: u64 = 8;
const MISS_MESSAGES: std::ops::RangeInclusive<u64> = 31..=40;
/// The `serve-mix` misses and delta edits come from fixed sequences, the
/// same for every seed; the seed places them in the stream. A miss takes
/// 160-260 ms depending on its graph and a delta's cost depends on its
/// edits, and a run serves only about fifty misses and 150 deltas, so
/// drawing them per seed made one seed's run up to a fifth slower than
/// another's.
const SEQUENCE_SEED: u64 = 0x5EED_F00D_2E55;

/// `serve-mix` requests come in rounds of this many, each with exactly
/// [`ROUND_MIX`] requests of each kind in seeded order.
pub const ROUND: usize = 100;
/// Per round: hits, reweighting deltas (bandwidth scales only),
/// retargeting deltas (at least one `Retarget`) and misses. Fixing the
/// retarget share, rather than drawing it per edit, keeps the work and
/// memo growth of a round the same from seed to seed.
pub const ROUND_MIX: [(Class, bool, usize); 4] = [
    (Class::Hit, false, 80),
    (Class::Delta, false, 6),
    (Class::Delta, true, 9),
    (Class::Miss, false, 5),
];

/// The benchmarks `serve-mix` warms during set-up and then replays as hits.
pub const HIT_BENCHMARKS: [Benchmark; 4] = [
    Benchmark::Mwd,
    Benchmark::Pm8x24,
    Benchmark::Pm8x32,
    Benchmark::Pm8x44,
];
/// Server-side name of the saved MWD result that delta jobs edit.
pub const DELTA_BASE: &str = "mwd-base";

/// The workloads the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold synthesis of the four Table II designs the MILP solves.
    Table2Milp,
    /// Cold synthesis of the designs only the heuristic assigns.
    ClusterScale,
    /// A mixed closed-loop request stream against the daemon.
    ServeMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Table2Milp,
        Workload::ClusterScale,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Milp => "table2-milp",
            Workload::ClusterScale => "cluster-scale",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A small deterministic generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The SplitMix64 finalizer: a bijection on `u64`.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// Stream tags keep the generators of different purposes independent.
const STREAM_ORDER: u64 = 1;
const STREAM_SCALE: u64 = 2;
const STREAM_ROUND: u64 = 3;
const STREAM_REQUEST: u64 = 4;
const STREAM_MISS: u64 = 5;
const STREAM_EDIT: u64 = 6;

/// One design of a cold workload.
#[derive(Debug, Clone)]
pub struct Design {
    /// Stable name, also the key of the committed reference.
    pub label: String,
    pub graph: CommGraph,
}

impl Design {
    fn benchmark(b: Benchmark) -> Design {
        Design {
            label: b.name().to_owned(),
            graph: b.graph(),
        }
    }
}

/// The designs of a cold workload, in seeded order.
pub fn cold_designs(workload: Workload, seed: u64) -> Vec<Design> {
    let mut designs: Vec<Design> = match workload {
        Workload::Table2Milp => [
            Benchmark::Mwd,
            Benchmark::Vopd,
            Benchmark::Mpeg,
            Benchmark::Pm8x24,
        ]
        .into_iter()
        .map(Design::benchmark)
        .collect(),
        Workload::ClusterScale => {
            let mut designs: Vec<Design> = [Benchmark::D26, Benchmark::Pm8x32, Benchmark::Pm8x44]
                .into_iter()
                .map(Design::benchmark)
                .collect();
            let mut rng = Rng::new(SEQUENCE_SEED, STREAM_SCALE);
            let (nodes, messages) = SCALE_RANDOM;
            debug_assert!(messages > AUTO_MILP_MAX_PATHS);
            for _ in 0..SCALE_RANDOM_PER_PASS {
                let graph_seed = rng.next_u64() >> 16;
                designs.push(Design {
                    label: format!("random-{nodes}n{messages}m-s{graph_seed}"),
                    graph: random_app(nodes, messages, graph_seed, DEFAULT_PITCH),
                });
            }
            designs
        }
        Workload::ServeMix => Vec::new(),
    };
    Rng::new(seed, STREAM_ORDER).shuffle(&mut designs);
    designs
}

/// The class of one `serve-mix` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A benchmark warmed during set-up: every stage is a cache hit.
    Hit,
    /// 1-2 edits against the saved MWD base.
    Delta,
    /// A fresh random application.
    Miss,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Hit, Class::Delta, Class::Miss];

    pub fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Delta => "delta",
            Class::Miss => "miss",
        }
    }
}

/// One planned `serve-mix` request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub class: Class,
    pub job: JobSpec,
    /// Whether a delta edits the topology (a `Retarget`), not only
    /// bandwidths.
    pub structural: bool,
}

/// The order of round `round`: exactly [`ROUND_MIX`] of each kind of
/// request (class, retargeting), shuffled by the seed.
pub fn round_slots(seed: u64, round: u64) -> Vec<(Class, bool)> {
    let mut slots: Vec<(Class, bool)> = ROUND_MIX
        .into_iter()
        .flat_map(|(class, structural, count)| std::iter::repeat_n((class, structural), count))
        .collect();
    Rng::new(seed, STREAM_ROUND ^ (round << 8)).shuffle(&mut slots);
    slots
}

/// Requests of one kind (class, retargeting) per `serve-mix` round.
fn per_round(kind: (Class, bool)) -> u64 {
    ROUND_MIX
        .iter()
        .filter(|&&(class, structural, _)| (class, structural) == kind)
        .map(|&(.., count)| count as u64)
        .sum()
}

/// Request `index` of the `serve-mix` stream for `seed`.
pub fn request(seed: u64, index: u64, base: &CommGraph) -> Planned {
    let (round, slot) = (index / ROUND as u64, (index % ROUND as u64) as usize);
    let slots = round_slots(seed, round);
    let (class, structural) = slots[slot];
    // The request is the `ordinal`-th of its kind in the run.
    let earlier = slots[..slot]
        .iter()
        .filter(|&&kind| kind == (class, structural))
        .count();
    let ordinal = round * per_round((class, structural)) + earlier as u64;
    let mut rng = Rng::new(seed, STREAM_REQUEST ^ (index << 8));
    let workload = match class {
        Class::Hit => {
            let b = HIT_BENCHMARKS[rng.below(HIT_BENCHMARKS.len())];
            Job::Benchmark(b.name().to_owned())
        }
        Class::Delta => {
            let stream = STREAM_EDIT ^ u64::from(structural) ^ (ordinal << 8);
            Job::Delta {
                base: DELTA_BASE.to_owned(),
                deltas: delta_edits(base, &mut Rng::new(SEQUENCE_SEED, stream), structural),
            }
        }
        Class::Miss => {
            let mut fresh = Rng::new(SEQUENCE_SEED, STREAM_MISS ^ (ordinal << 8));
            let messages = MISS_MESSAGES.start() + fresh.next_u64() % 10;
            debug_assert!(messages as usize > AUTO_MILP_MAX_PATHS);
            Job::Random {
                nodes: MISS_NODES,
                messages,
                // `mix` is a bijection, so every miss of a run gets its own
                // graph seed: a miss is never answered from the cache.
                seed: mix(SEQUENCE_SEED ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            }
        }
    };
    Planned {
        class,
        job: JobSpec::new(workload),
        structural,
    }
}

/// 1-2 seeded edits against `base`, each checked to apply cleanly after
/// the ones before it: bandwidth scales only, or (`structural`) a
/// retarget first and then a scale or another retarget.
fn delta_edits(base: &CommGraph, rng: &mut Rng, structural: bool) -> Vec<DeltaSpec> {
    let count = 1 + rng.below(2);
    let mut graph = base.clone();
    let mut edits = Vec::with_capacity(count);
    while edits.len() < count {
        let id = graph.stable_id(MessageId(rng.below(graph.message_count())));
        let retarget = structural && (edits.is_empty() || rng.below(2) == 0);
        let spec = if !retarget {
            DeltaSpec::Scale {
                id: id.0,
                factor: [0.5, 1.5, 2.0, 3.0][rng.below(4)],
            }
        } else {
            let n = graph.node_count();
            DeltaSpec::Retarget {
                id: id.0,
                src: rng.below(n) as u64,
                dst: rng.below(n) as u64,
            }
        };
        // A self-loop or duplicate retarget is redrawn.
        if let Ok(edited) = graph.apply_delta(&spec.to_comm()) {
            graph = edited;
            edits.push(spec);
        }
    }
    edits
}

/// The graph a planned request synthesizes, for the in-process check.
pub fn request_graph(job: &JobSpec, base: &CommGraph) -> CommGraph {
    match &job.workload {
        Job::Benchmark(name) => HIT_BENCHMARKS
            .into_iter()
            .find(|b| b.name() == name)
            .expect("hits name a warmed benchmark")
            .graph(),
        Job::Delta { deltas, .. } => {
            let edits: Vec<CommDelta> = deltas.iter().map(DeltaSpec::to_comm).collect();
            base.apply_deltas(&edits)
                .expect("planned edits apply to the base")
        }
        Job::Random {
            nodes,
            messages,
            seed,
        } => random_app(*nodes as usize, *messages as usize, *seed, DEFAULT_PITCH),
        Job::Sleep { .. } => unreachable!("the plan never sleeps"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> CommGraph {
        Benchmark::Mwd.graph()
    }

    fn plan(seed: u64, n: u64) -> Vec<Planned> {
        let base = base();
        (0..n).map(|i| request(seed, i, &base)).collect()
    }

    fn labels(designs: &[Design]) -> Vec<String> {
        designs.iter().map(|d| d.label.clone()).collect()
    }

    #[test]
    fn the_same_seed_gives_identical_inputs() {
        for w in [Workload::Table2Milp, Workload::ClusterScale] {
            let a = cold_designs(w, 7);
            let b = cold_designs(w, 7);
            assert_eq!(labels(&a), labels(&b));
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.graph.messages(), y.graph.messages());
            }
        }
        assert_eq!(plan(7, 300), plan(7, 300));
    }

    #[test]
    fn a_different_seed_gives_different_inputs() {
        assert_ne!(
            labels(&cold_designs(Workload::ClusterScale, 1)),
            labels(&cold_designs(Workload::ClusterScale, 2))
        );
        assert_ne!(plan(1, 300), plan(2, 300));
        // Table II designs are fixed; the seed only permutes them.
        let mut a = labels(&cold_designs(Workload::Table2Milp, 1));
        let mut b = labels(&cold_designs(Workload::Table2Milp, 2));
        assert_ne!(a, b);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn only_table2_designs_are_small_enough_for_the_milp() {
        for d in cold_designs(Workload::ClusterScale, 3) {
            assert!(d.graph.message_count() > AUTO_MILP_MAX_PATHS, "{}", d.label);
        }
        for d in cold_designs(Workload::Table2Milp, 3) {
            assert!(
                d.graph.message_count() <= AUTO_MILP_MAX_PATHS,
                "{}",
                d.label
            );
        }
    }

    #[test]
    fn serve_mix_class_proportions_follow_the_seed() {
        for seed in [1, 2, 99] {
            let planned = plan(seed, 3 * ROUND as u64);
            for round in planned.chunks(ROUND) {
                for (class, structural, want) in ROUND_MIX {
                    let got = round
                        .iter()
                        .filter(|p| (p.class, p.structural) == (class, structural))
                        .count();
                    assert_eq!(got, want, "seed {seed}: {class:?} {structural}");
                }
            }
        }
        let order =
            |seed| -> Vec<Class> { plan(seed, ROUND as u64).iter().map(|p| p.class).collect() };
        assert_ne!(order(1), order(2));
        assert_ne!(round_slots(1, 0), round_slots(1, 1));
    }

    #[test]
    fn misses_and_edits_come_from_sequences_the_seed_only_places() {
        let kinds = |seed| -> Vec<String> {
            let mut jobs: Vec<String> = plan(seed, 3 * ROUND as u64)
                .iter()
                .filter(|p| p.class != Class::Hit)
                .map(|p| format!("{:?}", p.job.workload))
                .collect();
            jobs.sort();
            jobs
        };
        assert_eq!(kinds(1), kinds(2));
        let labels_sorted = |seed| {
            let mut l = labels(&cold_designs(Workload::ClusterScale, seed));
            l.sort();
            l
        };
        assert_eq!(labels_sorted(1), labels_sorted(2));
    }

    #[test]
    fn planned_requests_are_valid_and_misses_are_fresh() {
        let base = base();
        let planned = plan(5, 4 * ROUND as u64);
        let mut miss_seeds = std::collections::BTreeSet::new();
        for p in &planned {
            let graph = request_graph(&p.job, &base);
            assert!(graph.message_count() > 0);
            match &p.job.workload {
                Job::Delta { deltas, .. } => {
                    assert!((1..=2).contains(&deltas.len()));
                    let retargets = deltas
                        .iter()
                        .any(|d| matches!(d, DeltaSpec::Retarget { .. }));
                    assert_eq!(retargets, p.structural);
                }
                Job::Random { seed, messages, .. } => {
                    assert!(MISS_MESSAGES.contains(messages));
                    assert!(miss_seeds.insert(*seed), "a miss repeated");
                }
                _ => {}
            }
        }
    }
}
