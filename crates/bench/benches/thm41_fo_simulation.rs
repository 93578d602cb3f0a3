//! Theorem 4.1: `FO + while + new` programs run directly vs compiled to
//! tabular algebra — the cost of the simulation, on transitive closure
//! over chains (iteration-bound) and random graphs (join-bound).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tabular_algebra::{Budget, EvalLimits, WhileStrategy};
use tabular_bench::{chain_edges, random_edges};
use tabular_relational::compile::{compile, run_compiled};
use tabular_relational::program::transitive_closure_program;
use tabular_relational::relation::RelDatabase;

fn bench(c: &mut Criterion) {
    let program = transitive_closure_program();
    let budget = Budget::default();
    let naive_budget = Budget::from_limits(&EvalLimits {
        while_strategy: WhileStrategy::Naive,
        ..EvalLimits::default()
    });

    let mut g = c.benchmark_group("thm41/tc_chain");
    for &len in &[8usize, 16, 32] {
        let db = RelDatabase::from_relations([chain_edges(len)]);
        g.bench_with_input(BenchmarkId::new("fo_direct", len), &db, |b, db| {
            b.iter(|| program.run(db, 100_000).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("via_ta", len), &db, |b, db| {
            b.iter(|| run_compiled(&program, db, &["TC"], &budget).unwrap());
        });
        // The compiled loop under the naive `while` strategy isolates how
        // much of the simulation overhead the delta engine removes.
        g.bench_with_input(BenchmarkId::new("via_ta_naive", len), &db, |b, db| {
            b.iter(|| run_compiled(&program, db, &["TC"], &naive_budget).unwrap());
        });
    }
    g.finish();

    let mut g = c.benchmark_group("thm41/tc_random");
    for &(n, m) in &[(16usize, 24usize), (32, 48)] {
        let db = RelDatabase::from_relations([random_edges(n, m, 42)]);
        let label = format!("{n}n{m}e");
        g.bench_with_input(BenchmarkId::new("fo_direct", &label), &db, |b, db| {
            b.iter(|| program.run(db, 100_000).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("via_ta", &label), &db, |b, db| {
            b.iter(|| run_compiled(&program, db, &["TC"], &budget).unwrap());
        });
    }
    g.finish();

    c.bench_function("thm41/compile_only", |b| {
        b.iter(|| compile(&program));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
