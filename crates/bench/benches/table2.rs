//! Criterion timings behind Table II: the full SRing pipeline per
//! benchmark. D26 runs in the `table2` binary (its multi-second pipeline
//! would dominate the Criterion budget).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use onoc_graph::benchmarks::Benchmark;
use sring_core::SringSynthesizer;

fn bench_sring_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2/sring_pipeline");
    group.sample_size(10);
    let synth = SringSynthesizer::new();
    for b in [
        Benchmark::Mwd,
        Benchmark::Vopd,
        Benchmark::Mpeg,
        Benchmark::Pm8x24,
        Benchmark::Pm8x32,
        Benchmark::Pm8x44,
    ] {
        let app = b.graph();
        group.bench_with_input(
            BenchmarkId::from_parameter(b.name()),
            &app,
            |bencher, app| {
                bencher.iter(|| synth.synthesize_detailed(app).expect("synthesizes"));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sring_pipeline);
criterion_main!(benches);
