//! Theorem 4.5: SchemaLog_d evaluation — native semi-naive vs the
//! TA-translated pipeline, on a restructuring program over scaled sales
//! data.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tabular_algebra::{Budget, EvalLimits, WhileStrategy};
use tabular_bench::sales_quads;
use tabular_schemalog::{
    eval::{eval, SlLimits, Strategy},
    parser::parse,
    translate::{run_fo, run_translated},
};

fn bench(c: &mut Criterion) {
    let program = parse(
        "R[T : part -> P, sold -> S] :-
            sales[T : region -> R], sales[T : part -> P], sales[T : sold -> S].",
    )
    .unwrap();
    let limits = SlLimits::default();

    let mut g = c.benchmark_group("thm45/split_program");
    for &(p, r) in &[(4usize, 4usize), (8, 6), (16, 8)] {
        let quads = sales_quads(p, r);
        let label = format!("{p}x{r}");
        g.bench_with_input(BenchmarkId::new("native", &label), &quads, |b, q| {
            b.iter(|| eval(&program, q, Strategy::SemiNaive, &limits).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("via_fo", &label), &quads, |b, q| {
            b.iter(|| run_fo(&program, q, 100_000).unwrap());
        });
        if p <= 8 {
            // The TA path interprets the whole reduction; keep it small.
            // Both `while` strategies run so the translated pipeline's
            // delta payoff shows up next to the native evaluator.
            g.bench_with_input(BenchmarkId::new("via_ta", &label), &quads, |b, q| {
                b.iter(|| run_translated(&program, q, &Budget::default()).unwrap());
            });
            let naive = Budget::from_limits(&EvalLimits {
                while_strategy: WhileStrategy::Naive,
                ..EvalLimits::default()
            });
            g.bench_with_input(BenchmarkId::new("via_ta_naive", &label), &quads, |b, q| {
                b.iter(|| run_translated(&program, q, &naive).unwrap());
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
