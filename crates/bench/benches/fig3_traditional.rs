//! Figure 3: the traditional operations (union, difference, Cartesian
//! product) and classical union, swept over input cardinalities, plus
//! the weak-equality row tests (selections, misaligned difference and
//! intersection) at the largest cardinality.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tabular_algebra::ops;
use tabular_core::{fixtures, Symbol};

fn bench(c: &mut Criterion) {
    let name = Symbol::name("T");
    for &rows in &[64usize, 256, 1024] {
        let a = fixtures::make_sales_relation(rows / 4, 8);
        let b = fixtures::make_sales_relation(rows / 4, 8);
        let mut g = c.benchmark_group(format!("fig3/{rows}"));
        g.bench_function(BenchmarkId::new("union", rows), |bch| {
            bch.iter(|| ops::union(&a, &b, name));
        });
        g.bench_function(BenchmarkId::new("difference", rows), |bch| {
            bch.iter(|| ops::difference(&a, &b, name));
        });
        g.bench_function(BenchmarkId::new("classical_union", rows), |bch| {
            bch.iter(|| ops::classical_union(&a, &b, name));
        });
        g.finish();
    }
    // The weak-equality row tests at the largest size: the selections,
    // and difference and intersection against σ with its columns
    // reversed, a misaligned scheme whose rows match through their keys.
    let rows = 1024;
    let a = fixtures::make_sales_relation(rows / 4, 8);
    let b = fixtures::make_sales_relation(rows / 4, 8).select_cols(&[3, 2, 1]);
    let (region, sold) = (Symbol::name("Region"), Symbol::name("Sold"));
    let some_region = Symbol::value(&fixtures::region_name(3));
    let mut g = c.benchmark_group(format!("fig3/{rows}"));
    g.bench_function(BenchmarkId::new("select", rows), |bch| {
        bch.iter(|| ops::select(&a, region, sold, name));
    });
    g.bench_function(BenchmarkId::new("select_const", rows), |bch| {
        bch.iter(|| ops::select_const(&a, region, some_region, name));
    });
    g.bench_function(BenchmarkId::new("difference_misaligned", rows), |bch| {
        bch.iter(|| ops::difference(&a, &b, name));
    });
    g.bench_function(BenchmarkId::new("intersect_misaligned", rows), |bch| {
        bch.iter(|| ops::intersect(&a, &b, name));
    });
    g.finish();
    // Product is quadratic; sweep smaller sizes.
    let mut g = c.benchmark_group("fig3/product");
    for &rows in &[16usize, 64, 128] {
        let a = fixtures::make_sales_relation(rows / 4, 8);
        let b = fixtures::make_sales_relation(rows / 4, 8);
        g.bench_with_input(BenchmarkId::from_parameter(rows), &(a, b), |bch, (a, b)| {
            bch.iter(|| ops::product(a, b, name));
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
