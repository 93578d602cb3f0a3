//! Figure 4: the GROUP operation, swept over input height. The grouped
//! table has one copy of the grouped attributes per data row — Θ(m²)
//! cells — so the sweep also documents the quadratic blow-up the paper's
//! uneconomical intermediate representation implies. The last group
//! times transposition and PURGE on the pivot-shaped intermediate of a
//! row-attributed upload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tabular_algebra::ops;
use tabular_core::{fixtures, Symbol, SymbolSet};

fn bench(c: &mut Criterion) {
    let by = SymbolSet::from_iter([Symbol::name("Region")]);
    let on = SymbolSet::from_iter([Symbol::name("Sold")]);
    let name = Symbol::name("G");
    let mut g = c.benchmark_group("fig4/group");
    for &(p, r) in &[(4usize, 4usize), (8, 8), (16, 16), (32, 32)] {
        let rel = fixtures::make_sales_relation(p, r);
        g.throughput(Throughput::Elements(rel.height() as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("rows={}", rel.height())),
            &rel,
            |b, rel| {
                b.iter(|| ops::group(rel, &by, &on, name));
            },
        );
    }
    g.finish();

    // The full §3.4 chain amortizes the blow-up away again.
    let mut g = c.benchmark_group("fig4/group_cleanup_purge");
    for &(p, r) in &[(4usize, 4usize), (8, 8), (16, 16), (32, 32)] {
        let rel = fixtures::make_sales_relation(p, r);
        let keys = SymbolSet::from_iter([Symbol::name("Part")]);
        let null = SymbolSet::from_iter([tabular_core::Symbol::Null]);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("rows={}", rel.height())),
            &rel,
            |b, rel| {
                b.iter(|| {
                    let grouped = ops::group(rel, &by, &on, name);
                    let cleaned = ops::cleanup(&grouped, &keys, &null, name);
                    ops::purge(&cleaned, &on, &by, name)
                });
            },
        );
    }
    g.finish();

    // The pivot's intermediate as the service meets it: rows uploaded
    // with row attributes (`r0`, `r1`, …), which the clean-up on ⊥ leaves
    // alone, so the grouped table stays about (parts·regions)² cells —
    // 289×289 at 72 parts × 4 regions. The sweeps above use ⊥ row
    // attributes, which the clean-up collapses first.
    let mut csv = String::from("Sales,Region,Part,Sold\n");
    for row in 0..72 * 4 {
        let (p, r) = (row / 4, row % 4);
        csv.push_str(&format!("r{row},region{r},part{p},{}\n", 100 + row));
    }
    let rel = tabular_core::io::from_csv(&csv).expect("well-formed CSV");
    let keys = SymbolSet::from_iter([Symbol::name("Part")]);
    let null = SymbolSet::from_iter([Symbol::Null]);
    let grouped = ops::group(&rel, &by, &on, name);
    let pivoted = ops::cleanup(&grouped, &keys, &null, name);
    let label = format!("{}x{}", pivoted.height(), pivoted.width());
    let mut g = c.benchmark_group("fig4/pivot_intermediate");
    g.bench_with_input(BenchmarkId::new("transpose", &label), &pivoted, |b, t| {
        b.iter(|| t.transpose())
    });
    g.bench_with_input(BenchmarkId::new("purge", &label), &pivoted, |b, t| {
        b.iter(|| ops::purge(t, &on, &by, name))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
