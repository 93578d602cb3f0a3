//! Figure 1: restructuring between the SalesInfo representations, swept
//! over (parts × regions) sizes. The paper's claim is expressiveness; the
//! bench measures what each restructuring program costs as the data
//! grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tabular_algebra::{parser::parse, run_governed_traced, Budget};
use tabular_bench::SWEEP;
use tabular_core::{fixtures, Database};

fn bench(c: &mut Criterion) {
    let budget = Budget::default();
    let to_info2 = parse(
        "Sales <- GROUP[by {Region} on {Sold}](Sales)
         Sales <- CLEANUP[by {Part} on {_}](Sales)
         Sales <- PURGE[on {Sold} by {Region}](Sales)",
    )
    .unwrap();
    let to_info4 = parse("Sales <- SPLIT[on {Region}](Sales)").unwrap();
    let from_info4 = parse(
        "Sales <- COLLAPSE[by {Region}](Sales)
         Sales <- PURGE[on {*} by {}](Sales)
         Sales <- CLEANUP[by {*} on {_}](Sales)",
    )
    .unwrap();

    let mut g = c.benchmark_group("fig1/info1_to_info2");
    for &(p, r) in SWEEP {
        let db = Database::from_tables([fixtures::make_sales_relation(p, r)]);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{p}x{r}")),
            &db,
            |b, db| {
                b.iter(|| run_governed_traced(&to_info2, db, &budget).unwrap().0);
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("fig1/info1_to_info4");
    for &(p, r) in SWEEP {
        let db = Database::from_tables([fixtures::make_sales_relation(p, r)]);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{p}x{r}")),
            &db,
            |b, db| {
                b.iter(|| run_governed_traced(&to_info4, db, &budget).unwrap().0);
            },
        );
    }
    g.finish();

    // Collapse's tabular union grows one column block per table; keep the
    // region counts modest.
    let mut g = c.benchmark_group("fig1/info4_to_info1");
    for &(p, r) in &[(4usize, 4usize), (16, 8), (64, 12)] {
        let db = fixtures::make_sales_info4(p, r);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{p}x{r}")),
            &db,
            |b, db| {
                b.iter(|| run_governed_traced(&from_info4, db, &budget).unwrap().0);
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
