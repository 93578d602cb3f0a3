//! §4.3 OLAP: the algebraic pivot/unpivot (TA programs) against the
//! hand-coded baselines — quantifying the cost of the algebra's
//! generality (interpreter, generic subsumption machinery) relative to a
//! purpose-built implementation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tabular_algebra::Budget;
use tabular_bench::SWEEP;
use tabular_core::{fixtures, Symbol};
use tabular_olap::baseline::{pivot_direct, unpivot_direct};
use tabular_olap::{pivot, unpivot, Agg, Cube};

fn bench(c: &mut Criterion) {
    let region = Symbol::name("Region");
    let sold = Symbol::name("Sold");
    let budget = Budget::default();

    let mut g = c.benchmark_group("olap/pivot");
    for &(p, r) in SWEEP {
        let rel = fixtures::make_sales_relation(p, r);
        let label = format!("{p}x{r}");
        g.bench_with_input(BenchmarkId::new("ta_program", &label), &rel, |b, rel| {
            b.iter(|| pivot(rel, region, sold, &budget).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("baseline", &label), &rel, |b, rel| {
            b.iter(|| pivot_direct(rel, region, sold).unwrap());
        });
    }
    g.finish();

    let mut g = c.benchmark_group("olap/unpivot");
    for &(p, r) in SWEEP {
        let cross = fixtures::make_sales_info2(p, r);
        let label = format!("{p}x{r}");
        g.bench_with_input(BenchmarkId::new("ta_program", &label), &cross, |b, t| {
            b.iter(|| unpivot(t, sold, region, &budget).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("baseline", &label), &cross, |b, t| {
            b.iter(|| unpivot_direct(t, sold, region).unwrap());
        });
    }
    g.finish();

    // Cube construction + full roll-up cascade.
    let mut g = c.benchmark_group("olap/cube");
    for &(p, r) in SWEEP {
        let rel = fixtures::make_sales_relation(p, r);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{p}x{r}")),
            &rel,
            |b, rel| {
                b.iter(|| {
                    let cube =
                        Cube::from_table(rel, &[region, Symbol::name("Part")], sold, Agg::Sum)
                            .unwrap();
                    cube.grand_total(Agg::Sum)
                });
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
