//! Ablation (DESIGN.md §6): parallel vs sequential statement evaluation
//! for wildcard statements fanning out over many same-named tables
//! (SalesInfo4 at scale).
//!
//! Note: the evaluation fans out with `std::thread::scope` over
//! `available_parallelism()` shards. On a single-CPU host (as in the CI
//! container that produced EXPERIMENTS.md) the parallel path degenerates
//! to one shard and measures pure spawning overhead (~2–5%); the ablation
//! is meaningful on multi-core machines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tabular_algebra::{parser::parse, run_governed_traced, Budget, EvalLimits};
use tabular_core::fixtures;

fn bench(c: &mut Criterion) {
    let program = parse(
        "*1 <- TRANSPOSE(*1)
         *1 <- CLEANUP[by {*} on {_}](*1)",
    )
    .unwrap();
    let parallel = Budget::from_limits(&EvalLimits {
        parallel_threshold: 4,
        ..EvalLimits::default()
    });
    let sequential = Budget::from_limits(&EvalLimits {
        parallel_threshold: usize::MAX,
        ..EvalLimits::default()
    });

    let mut g = c.benchmark_group("ablation/parallel_eval");
    for &(parts, regions) in &[(32usize, 64usize), (64, 256), (64, 1024)] {
        let db = fixtures::make_sales_info4(parts, regions);
        let label = format!("{}tables", db.len());
        g.bench_with_input(BenchmarkId::new("sequential", &label), &db, |b, db| {
            b.iter(|| run_governed_traced(&program, db, &sequential).unwrap().0);
        });
        g.bench_with_input(BenchmarkId::new("parallel", &label), &db, |b, db| {
            b.iter(|| run_governed_traced(&program, db, &parallel).unwrap().0);
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
