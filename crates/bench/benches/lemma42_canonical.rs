//! Lemmas 4.2/4.3: canonical-representation encode/decode round trips at
//! scale, and the generated TA program `P_Rep` against the native encoder
//! (the interpreted-vs-native ablation for the encoding).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tabular_algebra::{run_governed_traced, Budget};
use tabular_bench::SWEEP;
use tabular_canonical::{decode, encode, encode_program, EncodeScheme};
use tabular_core::{fixtures, Database, Symbol};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("lemma42/encode");
    for &(p, r) in SWEEP {
        let db = Database::from_tables([fixtures::make_sales_relation(p, r)]);
        g.throughput(Throughput::Elements(db.cell_count() as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{p}x{r}")),
            &db,
            |b, db| {
                b.iter(|| encode(db));
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("lemma43/decode");
    for &(p, r) in SWEEP {
        let db = Database::from_tables([fixtures::make_sales_relation(p, r)]);
        let rep = encode(&db);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{p}x{r}")),
            &rep,
            |b, rep| {
                b.iter(|| decode(rep).unwrap());
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("lemma42/round_trip");
    for &(p, r) in SWEEP {
        let db = Database::from_tables([fixtures::make_sales_relation(p, r)]);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{p}x{r}")),
            &db,
            |b, db| {
                b.iter(|| decode(&encode(db)).unwrap());
            },
        );
    }
    g.finish();

    // P_Rep as an interpreted TA program (smaller sweep: the program
    // multiplies constants per attribute and unions quadruple blocks).
    let scheme = EncodeScheme::new(&[("Sales", &["Part", "Region", "Sold"])]);
    let program = encode_program(&scheme).unwrap();
    let outputs = [Symbol::name("Data"), Symbol::name("Map")];
    let budget = Budget::default();
    let mut g = c.benchmark_group("lemma42/ta_program");
    for &(p, r) in &[(4usize, 4usize), (16, 8), (32, 12)] {
        let db = Database::from_tables([fixtures::make_sales_relation(p, r)]);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{p}x{r}")),
            &db,
            |b, db| {
                b.iter(|| {
                    let mut out = run_governed_traced(&program, db, &budget).unwrap().0;
                    out.retain(|t| outputs.contains(&t.name()));
                    out
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
