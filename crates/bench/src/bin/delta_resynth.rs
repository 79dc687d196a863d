//! Incremental re-synthesis benchmark: single-message edits on
//! MWD/VOPD/MPEG, each resolved twice — incrementally via
//! `resynthesize` against a warm shared context, and from scratch with a
//! cold `synthesize` — and the wall-clocks, speedups and dirty-sub-ring
//! fractions written to `BENCH_delta.json` so the delta layer's perf
//! trajectory is tracked across PRs.
//!
//! ```text
//! delta_resynth [out.json] [--threads N]
//! ```
//!
//! Every edit's incremental design is checked byte-for-byte against the
//! from-scratch one, so the binary doubles as a bit-identity smoke test.
//! Exits non-zero when any design diverges or when a benchmark's
//! aggregate incremental-vs-full speedup falls below the 5× floor —
//! `ci/check.sh` runs it in that role.
//!
//! The edit mix models an interactive tuning session — the workload the
//! delta layer exists for: twelve bandwidth re-weights (which change no
//! sub-ring topology and are served entirely from cached artifacts)
//! interleaved with four structural edits (two retargets, one add, one
//! remove, which recompute their dirty sub-rings). Each edit is applied
//! independently against the same baseline, the way a designer explores
//! alternatives from a common starting point. The JSON reports the
//! re-weight and structural speedups separately alongside the aggregate,
//! so the mix never hides the cost of the structural path.

use onoc_bench::{count, harness_tech, object, take_threads_flag};
use onoc_ctx::ExecCtx;
use onoc_graph::benchmarks::Benchmark;
use onoc_graph::{CommDelta, CommGraph, MessageId, NodeId};
use onoc_trace::json::Value;
use sring_core::{design_bytes, AssignmentStrategy, SringConfig, SringSynthesizer};
use std::process::ExitCode;
use std::time::Instant;

/// The benchmarks swept (the paper's three headline applications).
const TRACKED: [Benchmark; 3] = [Benchmark::Mwd, Benchmark::Vopd, Benchmark::Mpeg];

/// Required full-over-incremental wall-clock advantage per benchmark.
const MIN_SPEEDUP: f64 = 5.0;

/// Deterministic 64-bit LCG so the edit mix is stable across runs.
struct Lcg(u64);

impl Lcg {
    fn pick(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n.max(1)
    }
}

fn has_message(graph: &CommGraph, src: NodeId, dst: NodeId) -> bool {
    graph
        .messages()
        .iter()
        .any(|m| m.src == src && m.dst == dst)
}

/// A free `src -> dst` slot that is not a self-loop, by deterministic
/// search from a random starting point.
fn free_slot(graph: &CommGraph, rng: &mut Lcg) -> Option<(NodeId, NodeId)> {
    let n = graph.node_count();
    let start = rng.pick(n * n);
    for k in 0..n * n {
        let flat = (start + k) % (n * n);
        let (src, dst) = (NodeId(flat / n), NodeId(flat % n));
        if src != dst && !has_message(graph, src, dst) {
            return Some((src, dst));
        }
    }
    None
}

/// The single-message edit mix for one benchmark: twelve bandwidth
/// re-weights, two retargets, one add, one remove.
fn edit_mix(graph: &CommGraph, rng: &mut Lcg) -> Vec<CommDelta> {
    let m = graph.message_count();
    let mut edits = Vec::new();
    for i in 0..12 {
        let id = graph.stable_id(MessageId(rng.pick(m)));
        let factor = [0.5, 1.5, 2.0, 3.0][i % 4];
        edits.push(CommDelta::ScaleBandwidth { id, factor });
    }
    for _ in 0..2 {
        if let Some((src, dst)) = free_slot(graph, rng) {
            let id = graph.stable_id(MessageId(rng.pick(m)));
            edits.push(CommDelta::Retarget { id, src, dst });
        }
    }
    if let Some((src, dst)) = free_slot(graph, rng) {
        edits.push(CommDelta::AddMessage {
            src,
            dst,
            bandwidth: 1.0,
        });
    }
    edits.push(CommDelta::RemoveMessage {
        id: graph.stable_id(MessageId(rng.pick(m))),
    });
    edits
}

/// Whether an edit changes sub-ring topology (everything except a
/// bandwidth re-weight does).
fn is_structural(edit: &CommDelta) -> bool {
    !matches!(edit, CommDelta::ScaleBandwidth { .. })
}

/// Incremental/full wall-clock pair for one slice of the edit mix.
#[derive(Default)]
struct Clocks {
    incremental_s: f64,
    full_s: f64,
}

impl Clocks {
    fn speedup(&self) -> f64 {
        self.full_s / self.incremental_s.max(1e-12)
    }
}

/// Per-benchmark aggregates over the edit mix.
struct Row {
    name: &'static str,
    edits: usize,
    total: Clocks,
    reweight: Clocks,
    structural: Clocks,
    mean_dirty_fraction: f64,
    bit_identical: bool,
}

fn run_benchmark(
    bench: Benchmark,
    synth: &SringSynthesizer,
    threads: usize,
) -> Result<Row, String> {
    let graph = bench.graph();
    let ctx = ExecCtx::cached().with_threads(threads);
    let baseline = synth
        .synthesize_detailed_ctx(&graph, &ctx)
        .map_err(|e| format!("{}: baseline failed: {e}", bench.name()))?;

    let mut rng = Lcg(0x5EED ^ graph.node_count() as u64);
    let edits = edit_mix(&graph, &mut rng);
    let (mut total, mut reweight, mut structural) =
        (Clocks::default(), Clocks::default(), Clocks::default());
    let mut dirty_sum = 0.0;
    let mut bit_identical = true;

    for edit in &edits {
        let started = Instant::now();
        let result = synth
            .resynthesize(&graph, &baseline, std::slice::from_ref(edit), &ctx)
            .map_err(|e| format!("{}: {edit}: {e}", bench.name()))?;
        let incremental_s = started.elapsed().as_secs_f64();
        dirty_sum += result.dirty.dirty_fraction();

        let cold = ExecCtx::new().with_threads(threads);
        let started = Instant::now();
        let scratch = synth
            .synthesize_detailed_ctx(&result.graph, &cold)
            .map_err(|e| format!("{}: {edit} (scratch): {e}", bench.name()))?;
        let full_s = started.elapsed().as_secs_f64();

        let slice = if is_structural(edit) {
            &mut structural
        } else {
            &mut reweight
        };
        slice.incremental_s += incremental_s;
        slice.full_s += full_s;
        total.incremental_s += incremental_s;
        total.full_s += full_s;

        if design_bytes(&result.report.design) != design_bytes(&scratch.design) {
            eprintln!(
                "error: {}: {edit}: incremental design diverged from from-scratch",
                bench.name()
            );
            bit_identical = false;
        }
    }

    Ok(Row {
        name: bench.name(),
        edits: edits.len(),
        total,
        reweight,
        structural,
        mean_dirty_fraction: dirty_sum / edits.len().max(1) as f64,
        bit_identical,
    })
}

fn json_doc(rows: &[Row]) -> Value {
    let row = |r: &Row| {
        object([
            ("name", Value::String(r.name.to_owned())),
            ("edits", count(r.edits)),
            ("incremental_s", Value::Number(r.total.incremental_s)),
            ("full_s", Value::Number(r.total.full_s)),
            ("speedup", Value::Number(r.total.speedup())),
            ("reweight_speedup", Value::Number(r.reweight.speedup())),
            ("structural_speedup", Value::Number(r.structural.speedup())),
            ("mean_dirty_fraction", Value::Number(r.mean_dirty_fraction)),
            ("bit_identical", Value::Bool(r.bit_identical)),
        ])
    };
    let min = rows
        .iter()
        .map(|r| r.total.speedup())
        .fold(f64::INFINITY, f64::min);
    object([
        ("benchmarks", Value::Array(rows.iter().map(row).collect())),
        ("min_speedup", Value::Number(min)),
        ("speedup_floor", Value::Number(MIN_SPEEDUP)),
    ])
}

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let threads = take_threads_flag(&mut raw);
    let out_path = raw
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_delta.json".to_string());

    let synth = SringSynthesizer::with_config(SringConfig {
        strategy: AssignmentStrategy::Heuristic,
        tech: harness_tech(),
        ..SringConfig::default()
    });

    let mut rows = Vec::new();
    for bench in TRACKED {
        match run_benchmark(bench, &synth, threads) {
            Ok(row) => {
                println!(
                    "{:<6} {} edits: incremental {:.4} s, full {:.4} s, {:.1}x \
                     (re-weight {:.1}x, structural {:.1}x), mean dirty {:.1}%{}",
                    row.name,
                    row.edits,
                    row.total.incremental_s,
                    row.total.full_s,
                    row.total.speedup(),
                    row.reweight.speedup(),
                    row.structural.speedup(),
                    row.mean_dirty_fraction * 100.0,
                    if row.bit_identical {
                        ""
                    } else {
                        "  [DIVERGED]"
                    }
                );
                rows.push(row);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut doc = json_doc(&rows).to_json();
    doc.push('\n');
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    let mut failed = false;
    for row in &rows {
        if !row.bit_identical {
            failed = true;
        }
        if row.total.speedup() < MIN_SPEEDUP {
            eprintln!(
                "error: {}: speedup {:.2}x below the {MIN_SPEEDUP:.0}x floor",
                row.name,
                row.total.speedup()
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
