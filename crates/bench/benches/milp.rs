//! Micro-benchmarks of the MILP substrate: pure LP solves and small
//! branch-and-bound searches of the shapes the wavelength assignment
//! produces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use milp_solver::simplex::{solve_lp, LpProblem, LpRow};
use milp_solver::{Model, Sense, SolveOptions};

/// A transportation-style LP with `n` variables and `2·√n` constraints.
fn lp_instance(n: usize) -> LpProblem {
    let k = (n as f64).sqrt() as usize;
    let mut rows = Vec::new();
    for i in 0..k {
        let coeffs: Vec<(usize, f64)> = (0..n)
            .filter(|j| j % k == i)
            .map(|j| (j, 1.0 + (j % 3) as f64))
            .collect();
        rows.push(LpRow {
            coeffs,
            sense: Sense::Le,
            rhs: 10.0 + i as f64,
        });
        let coeffs: Vec<(usize, f64)> = (0..n).filter(|j| j / k == i).map(|j| (j, 1.0)).collect();
        rows.push(LpRow {
            coeffs,
            sense: Sense::Ge,
            rhs: 1.0,
        });
    }
    LpProblem {
        cost: (0..n).map(|j| 1.0 + (j % 5) as f64).collect(),
        lower: vec![0.0; n],
        upper: vec![5.0; n],
        rows,
    }
}

/// A path-coloring MILP of `paths` binaries per `colors` wavelengths —
/// the structural core of the paper's Eqs. 1–2.
fn coloring_model(paths: usize, colors: usize) -> Model {
    let mut m = Model::new();
    let b: Vec<Vec<_>> = (0..paths)
        .map(|s| {
            (0..colors)
                .map(|l| m.add_binary(format!("b_{s}_{l}")))
                .collect()
        })
        .collect();
    for bs in &b {
        let sum: Vec<_> = bs.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(sum, Sense::Eq, 1.0).expect("valid");
    }
    for s in 0..paths.saturating_sub(1) {
        for (&bs, &bn) in b[s].iter().zip(&b[s + 1]) {
            m.add_constraint([(bs, 1.0), (bn, 1.0)], Sense::Le, 1.0)
                .expect("valid");
        }
    }
    let obj: Vec<_> = (0..paths).map(|s| (b[s][colors - 1], 1.0)).collect();
    m.set_objective(obj);
    m
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("milp/simplex");
    for n in [25usize, 100, 400] {
        let p = lp_instance(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &p, |bencher, p| {
            bencher.iter(|| solve_lp(p, &[], &[]));
        });
    }
    group.finish();
}

fn bench_branch_and_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("milp/branch_and_bound");
    group.sample_size(10);
    for (paths, colors) in [(8usize, 3usize), (14, 4), (20, 4)] {
        let m = coloring_model(paths, colors);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{paths}x{colors}")),
            &m,
            |bencher, m| {
                bencher.iter(|| m.solve(&SolveOptions::default()).expect("solves"));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simplex, bench_branch_and_bound);
criterion_main!(benches);
