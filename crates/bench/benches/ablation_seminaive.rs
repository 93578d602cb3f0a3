//! Ablation (DESIGN.md §6): incremental vs naive fixpoints on recursive
//! transitive closure, on both engines that iterate to one — the
//! SchemaLog evaluator (semi-naive vs naive) and the TA interpreter's
//! `while` loop (delta vs naive). The crossover grows with iteration
//! depth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tabular_algebra::{run_governed_traced, Budget, EvalLimits, TraceLevel, WhileStrategy};
use tabular_bench::{ta_chain_db, ta_tc_program};
use tabular_relational::relation::{RelDatabase, Relation};
use tabular_schemalog::{
    eval::{eval, SlLimits, Strategy},
    parser::parse,
    quads::QuadDb,
};

/// A chain graph as a lowercase-named relation (the surface syntax reads
/// bare uppercase tokens as variables).
fn chain(len: usize) -> Relation {
    let mut e = Relation::new("edge", &["from", "to"], &[]);
    for i in 0..len {
        e.insert(vec![
            tabular_core::Symbol::value(&format!("n{i}")),
            tabular_core::Symbol::value(&format!("n{}", i + 1)),
        ])
        .expect("arity");
    }
    e
}

fn bench(c: &mut Criterion) {
    let program = parse(
        "tc[T : from -> X, to -> Y] :- edge[T : from -> X, to -> Y].
         tc[T : from -> X, to -> Z] :- tc[T : from -> X, to -> Y],
                                       edge[U : from -> Y, to -> Z].",
    )
    .unwrap();
    let limits = SlLimits::default();

    let mut g = c.benchmark_group("ablation/seminaive_tc");
    for &len in &[8usize, 16, 24] {
        let quads = QuadDb::from_relations(&RelDatabase::from_relations([chain(len)]));
        g.bench_with_input(BenchmarkId::new("seminaive", len), &quads, |b, q| {
            b.iter(|| eval(&program, q, Strategy::SemiNaive, &limits).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("naive", len), &quads, |b, q| {
            b.iter(|| eval(&program, q, Strategy::Naive, &limits).unwrap());
        });
    }
    g.finish();

    // The same ablation one level up: the TA interpreter's `while` loop
    // on the Theorem 4.1 transitive-closure program. `Delta` skips the
    // loop-invariant statements and recomputes the product/selection/
    // projection chain incrementally over the appended `TC` rows.
    let ta_program = ta_tc_program();
    let strategy_budget = |s| {
        Budget::from_limits(&EvalLimits {
            while_strategy: s,
            ..EvalLimits::default()
        })
    };
    let (delta, naive) = (
        strategy_budget(WhileStrategy::Delta),
        strategy_budget(WhileStrategy::Naive),
    );
    let mut g = c.benchmark_group("ablation/delta_while_tc");
    for &len in &[8usize, 16, 24] {
        let db = ta_chain_db(len);
        g.bench_with_input(BenchmarkId::new("delta", len), &db, |b, db| {
            b.iter(|| run_governed_traced(&ta_program, db, &delta).unwrap().0);
        });
        g.bench_with_input(BenchmarkId::new("naive", len), &db, |b, db| {
            b.iter(|| run_governed_traced(&ta_program, db, &naive).unwrap().0);
        });
        // Tracing-overhead ablation on the same workload: `Off` removes
        // all timing from the statement path and must stay within noise
        // (<5%) of the default `Counters` delta rows above; `Spans` adds
        // the ring-buffer span layer.
        for (label, level) in [
            ("trace_off", TraceLevel::Off),
            ("trace_spans", TraceLevel::Spans),
        ] {
            let l = Budget::from_limits(&EvalLimits {
                trace: level,
                ..EvalLimits::default()
            });
            g.bench_with_input(BenchmarkId::new(label, len), &db, |b, db| {
                b.iter(|| run_governed_traced(&ta_program, db, &l).unwrap().0);
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
