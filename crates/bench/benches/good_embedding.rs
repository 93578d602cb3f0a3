//! Contribution (4): GOOD programs natively vs compiled through the
//! tabular algebra, on scaled random object bases.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabular_algebra::Budget;
use tabular_core::Symbol;
use tabular_good::{
    compile::run_via_ta,
    graph::Graph,
    ops::{GoodOp, GoodProgram},
    pattern::Pattern,
};

/// A random bipartite paper/author object base.
fn library(papers: usize, authors: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new();
    let author_ids: Vec<Symbol> = (0..authors)
        .map(|_| g.add_node(Symbol::name("Author")))
        .collect();
    for _ in 0..papers {
        let p = g.add_node(Symbol::name("Paper"));
        for _ in 0..2 {
            let a = author_ids[rng.gen_range(0..authors)];
            g.add_edge(p, Symbol::name("by"), a);
        }
    }
    g
}

fn coauthor_program() -> GoodProgram {
    GoodProgram::new().op(GoodOp::EdgeAddition {
        pattern: Pattern::new()
            .node(0, "Author")
            .node(1, "Author")
            .node(2, "Paper")
            .edge(2, "by", 0)
            .edge(2, "by", 1),
        label: Symbol::name("coauthor"),
        from: 0,
        to: 1,
    })
}

fn bench(c: &mut Criterion) {
    let program = coauthor_program();
    let budget = Budget::default();
    let mut g = c.benchmark_group("good/coauthor");
    for &(p, a) in &[(16usize, 8usize), (48, 16), (96, 24)] {
        let graph = library(p, a, 11);
        let label = format!("{p}p{a}a");
        g.bench_with_input(BenchmarkId::new("native", &label), &graph, |b, gr| {
            b.iter(|| program.run(gr, 100).unwrap());
        });
        // The compiled path materializes the pattern join as Cartesian
        // products before selecting (the FO encoding), so it is bounded
        // to the smallest size — the measured cost of the constructive
        // embedding, recorded as-is in EXPERIMENTS.md.
        if p <= 16 {
            g.bench_with_input(BenchmarkId::new("via_ta", &label), &graph, |b, gr| {
                b.iter(|| run_via_ta(&program, gr, &budget).unwrap());
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
