//! The random-solution design-space sampler of the paper's Fig. 8
//! (Sec. IV-B, footnote f).
//!
//! Each sample randomly clusters the nodes, sequentially connects the
//! nodes of every cluster into a sub-ring, connects all nodes with
//! cross-cluster traffic into a random-order inter ring, and assigns every
//! signal path a uniformly random wavelength from a fixed pool. A sample
//! is *feasible* iff no two signal paths that overlap on a waveguide
//! segment share a wavelength. The paper draws 100 000 samples and finds
//! feasible ones only for MWD (≈7 %) and VOPD (<1 %) — demonstrating how
//! hard the design space is for blind search compared to SRing.

//!
//! # Parallelism and determinism
//!
//! The sample budget is split over [`SHARD_COUNT`] *fixed* shards, each
//! with its own [`SmallRng`] seeded deterministically from
//! `(config.seed, shard index)`. Shards — not threads — own the random
//! streams, so the sampler returns bit-identical statistics for any
//! [`RandomSolutionConfig::threads`] value; the thread count only decides
//! how many shards run concurrently.

use crate::par::run_indexed;
use onoc_ctx::ExecCtx;
use onoc_graph::{CommGraph, NodeId};
use onoc_layout::Cycle;
use onoc_photonics::{insertion_loss, PathGeometry};
use onoc_units::{Decibels, Millimeters, TechnologyParameters};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Number of independent RNG shards the sample budget is split over.
/// Fixed (rather than derived from the thread count) so the drawn sample
/// set is a pure function of the seed.
pub const SHARD_COUNT: usize = 64;

/// Sampler parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomSolutionConfig {
    /// Number of random solutions to draw (the paper uses 100 000).
    pub samples: usize,
    /// Size of the wavelength pool each path draws from uniformly.
    pub pool_size: usize,
    /// RNG seed, for reproducible figures.
    pub seed: u64,
    /// Worker threads (`0` = one per available core). Does not affect the
    /// drawn samples, only wall-clock time.
    pub threads: usize,
}

impl Default for RandomSolutionConfig {
    fn default() -> Self {
        RandomSolutionConfig {
            samples: 100_000,
            pool_size: 8,
            seed: 0xC0FFEE,
            threads: 1,
        }
    }
}

impl RandomSolutionConfig {
    /// The configuration used for the paper's Fig. 8 protocol on `app`:
    /// 100 000 samples drawing wavelengths from the trivially sufficient
    /// pool of one channel per message. With this pool the feasibility
    /// rates land where the paper reports them — a few percent for MWD,
    /// under one percent for VOPD, none for D26.
    #[must_use]
    pub fn for_app(app: &CommGraph) -> Self {
        RandomSolutionConfig {
            pool_size: app.message_count().max(1),
            ..RandomSolutionConfig::default()
        }
    }
}

/// Metrics of one feasible random solution.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomOutcome {
    /// Wavelengths actually used (`#wl` of Fig. 8(a)).
    pub wavelength_count: usize,
    /// Worst-case insertion loss excluding PDN (`il_w` of Fig. 8(b)).
    pub worst_loss: Decibels,
    /// Longest signal path of the solution.
    pub longest_path: Millimeters,
}

/// Aggregate sampler result.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomSolutionStats {
    /// Samples drawn.
    pub attempted: usize,
    /// The feasible solutions' metrics.
    pub feasible: Vec<RandomOutcome>,
}

impl RandomSolutionStats {
    /// Fraction of feasible samples.
    #[must_use]
    pub fn feasibility_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.feasible.len() as f64 / self.attempted as f64
        }
    }
}

/// Draws `config.samples` random solutions for `app` and evaluates the
/// feasible ones.
///
/// Loss evaluation uses the path length and per-segment bends; waveguide
/// crossings between randomly drawn rings are not laid out and therefore
/// not charged (their contribution is ≤ a few hundredths of a dB and
/// identical in spirit for every sample).
#[must_use]
pub fn sample_random_solutions(
    app: &CommGraph,
    tech: &TechnologyParameters,
    config: &RandomSolutionConfig,
) -> RandomSolutionStats {
    sample_random_solutions_ctx(app, tech, config, &ExecCtx::default())
}

/// [`sample_random_solutions`] through an explicit execution context: the
/// sampler runs under a `fig8_sampler` span with one aggregated
/// `fig8_sampler/shard` phase (per-shard wall-clock; `calls` = shards
/// actually drawn), plus `eval/samples_attempted` /
/// `eval/samples_feasible` counters. Because shards — not threads — own
/// the random streams, the counters and the shard call count are
/// identical for every thread count. A nonzero
/// [`RandomSolutionConfig::threads`] takes precedence over
/// [`ExecCtx::threads`] for the worker count.
#[must_use]
pub fn sample_random_solutions_ctx(
    app: &CommGraph,
    tech: &TechnologyParameters,
    config: &RandomSolutionConfig,
    ctx: &ExecCtx,
) -> RandomSolutionStats {
    let trace = ctx.trace();
    let n = app.node_count();
    if n < 2 || app.message_count() == 0 || config.pool_size == 0 {
        return RandomSolutionStats {
            attempted: 0,
            feasible: Vec::new(),
        };
    }
    let _span = trace.span_at("fig8_sampler");

    let threads = if config.threads != 0 {
        config.threads
    } else {
        ctx.threads()
    };
    // Fixed shard sizes: the first `samples % SHARD_COUNT` shards get one
    // extra sample, independent of the thread count.
    let base = config.samples / SHARD_COUNT;
    let extra = config.samples % SHARD_COUNT;
    let shards = run_indexed(SHARD_COUNT, threads, |shard| {
        // Absolute path: worker threads have no span stack of their own.
        let _shard_span = trace.span_at("fig8_sampler/shard");
        let mut rng = SmallRng::seed_from_u64(shard_seed(config.seed, shard));
        let count = base + usize::from(shard < extra);
        let mut found = Vec::new();
        for _ in 0..count {
            if let Some(outcome) = draw_one(app, tech, config.pool_size, &mut rng) {
                found.push(outcome);
            }
        }
        found
    });
    let stats = RandomSolutionStats {
        attempted: config.samples,
        feasible: shards.into_iter().flatten().collect(),
    };
    trace.incr("eval/samples_attempted", stats.attempted as u64);
    trace.incr("eval/samples_feasible", stats.feasible.len() as u64);
    stats
}

/// Decorrelates per-shard streams (SplitMix64-style odd-constant mix).
fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn draw_one(
    app: &CommGraph,
    tech: &TechnologyParameters,
    pool_size: usize,
    rng: &mut SmallRng,
) -> Option<RandomOutcome> {
    let n = app.node_count();
    let dist = |a: NodeId, b: NodeId| app.manhattan(a, b).0;

    // Random ordered partition of a shuffled node sequence.
    let mut order: Vec<NodeId> = app.node_ids().collect();
    order.shuffle(rng);
    let k = rng.gen_range(1..=(n / 2).max(1));
    let mut cuts: BTreeSet<usize> = BTreeSet::new();
    while cuts.len() < k - 1 {
        cuts.insert(rng.gen_range(1..n));
    }
    let mut clusters: Vec<Vec<NodeId>> = Vec::with_capacity(k);
    let mut start = 0usize;
    for &cut in cuts.iter().chain(std::iter::once(&n)) {
        clusters.push(order[start..cut].to_vec());
        start = cut;
    }
    let mut cluster_of = vec![0usize; n];
    for (ci, members) in clusters.iter().enumerate() {
        for &m in members {
            cluster_of[m.index()] = ci;
        }
    }

    // Sub-rings: sequential connection in the random order.
    #[expect(clippy::expect_used, reason = "cluster members are distinct nodes")]
    let intra_rings: Vec<Option<Cycle>> = clusters
        .iter()
        .map(|members| {
            (members.len() >= 2).then(|| Cycle::new(members.clone()).expect("distinct members"))
        })
        .collect();
    let v_inter: Vec<NodeId> = order
        .iter()
        .copied()
        .filter(|&v| {
            app.neighbors(v)
                .iter()
                .any(|&w| cluster_of[v.index()] != cluster_of[w.index()])
        })
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "v_inter filters a permutation of the nodes, so its nodes are distinct"
    )]
    let inter_ring = (v_inter.len() >= 2).then(|| Cycle::new(v_inter).expect("distinct nodes"));

    // Signal paths with random wavelengths. Ring id: cluster index for
    // intra rings, `clusters.len()` for the inter ring.
    struct RandomPath {
        ring: usize,
        range: onoc_layout::SegmentRange,
        wavelength: usize,
        geometry: PathGeometry,
    }
    let mut paths = Vec::with_capacity(app.message_count());
    for m in app.messages() {
        let (ring_id, cycle) = if cluster_of[m.src.index()] == cluster_of[m.dst.index()] {
            let c = cluster_of[m.src.index()];
            (c, intra_rings[c].as_ref()?)
        } else {
            (clusters.len(), inter_ring.as_ref()?)
        };
        let range = cycle.path_segments(m.src, m.dst)?;
        let mut geometry = PathGeometry::new();
        for seg in range.iter() {
            let (a, b) = cycle.segment(seg);
            geometry.length += Millimeters(dist(a, b));
            let (pa, pb) = (app.position(a), app.position(b));
            if (pa.x - pb.x).abs() > 1e-9 && (pa.y - pb.y).abs() > 1e-9 {
                geometry.bends += 1;
            }
        }
        paths.push(RandomPath {
            ring: ring_id,
            range,
            wavelength: rng.gen_range(0..pool_size),
            geometry,
        });
    }

    // Feasibility: overlapping same-ring paths must differ in wavelength.
    for i in 0..paths.len() {
        for j in i + 1..paths.len() {
            if paths[i].ring == paths[j].ring
                && paths[i].wavelength == paths[j].wavelength
                && paths[i].range.overlaps(&paths[j].range)
            {
                return None;
            }
        }
    }

    let used: BTreeSet<usize> = paths.iter().map(|p| p.wavelength).collect();
    let worst_loss = paths
        .iter()
        .map(|p| insertion_loss(&p.geometry, tech))
        .fold(Decibels(0.0), Decibels::max);
    let longest = paths
        .iter()
        .map(|p| p.geometry.length)
        .fold(Millimeters(0.0), Millimeters::max);
    Some(RandomOutcome {
        wavelength_count: used.len(),
        worst_loss,
        longest_path: longest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_graph::benchmarks;

    fn tech() -> TechnologyParameters {
        TechnologyParameters::default()
    }

    fn config(samples: usize) -> RandomSolutionConfig {
        RandomSolutionConfig {
            samples,
            ..RandomSolutionConfig::default()
        }
    }

    #[test]
    fn sampler_is_deterministic_per_seed() {
        let app = benchmarks::mwd();
        let a = sample_random_solutions(&app, &tech(), &config(500));
        let b = sample_random_solutions(&app, &tech(), &config(500));
        assert_eq!(a, b);
    }

    #[test]
    fn sampler_is_thread_count_invariant() {
        // The shards, not the threads, own the RNG streams: 1, 2 and 8
        // workers must produce bit-identical statistics, including the
        // order of the feasible outcomes.
        let app = benchmarks::mwd();
        let reference = sample_random_solutions(&app, &tech(), &config(2_000));
        assert!(!reference.feasible.is_empty());
        for threads in [2, 8] {
            let cfg = RandomSolutionConfig {
                threads,
                ..config(2_000)
            };
            assert_eq!(
                sample_random_solutions(&app, &tech(), &cfg),
                reference,
                "{threads} threads diverged from serial"
            );
        }
    }

    #[test]
    fn shard_split_covers_every_sample() {
        // A budget not divisible by the shard count must still draw
        // exactly `samples` attempts.
        let app = benchmarks::mwd();
        let stats = sample_random_solutions(&app, &tech(), &config(1_003));
        assert_eq!(stats.attempted, 1_003);
    }

    #[test]
    fn mwd_admits_some_feasible_solutions() {
        let app = benchmarks::mwd();
        let stats = sample_random_solutions(&app, &tech(), &config(2_000));
        assert_eq!(stats.attempted, 2_000);
        assert!(
            !stats.feasible.is_empty(),
            "MWD should admit feasible random solutions (paper: ≈7 %)"
        );
        assert!(stats.feasibility_rate() < 0.9, "blind search must be hard");
    }

    #[test]
    fn vopd_is_harder_than_mwd() {
        let t = tech();
        let mwd = sample_random_solutions(&benchmarks::mwd(), &t, &config(2_000));
        let vopd = sample_random_solutions(&benchmarks::vopd(), &t, &config(2_000));
        assert!(
            vopd.feasibility_rate() <= mwd.feasibility_rate(),
            "VOPD {} vs MWD {}",
            vopd.feasibility_rate(),
            mwd.feasibility_rate()
        );
    }

    #[test]
    fn feasible_outcomes_are_sane() {
        let app = benchmarks::mwd();
        let stats = sample_random_solutions(&app, &tech(), &config(2_000));
        for o in &stats.feasible {
            assert!(o.wavelength_count >= 1);
            assert!(o.wavelength_count <= RandomSolutionConfig::default().pool_size);
            assert!(o.worst_loss.0 > 0.0);
            assert!(o.longest_path.0 > 0.0);
        }
    }

    #[test]
    fn degenerate_inputs_yield_no_samples() {
        let empty = CommGraph::builder()
            .node("a", onoc_graph::Point::new(0.0, 0.0))
            .node("b", onoc_graph::Point::new(1.0, 0.0))
            .build()
            .unwrap();
        let stats = sample_random_solutions(&empty, &tech(), &config(100));
        assert_eq!(stats.attempted, 0);
        assert_eq!(stats.feasibility_rate(), 0.0);
    }
}
