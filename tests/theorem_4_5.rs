//! **Theorem 4.5** at the integration level: SchemaLog_d programs agree
//! between the native stratified evaluator and the tabular algebra
//! translation, across querying, restructuring, negation, recursion, and
//! randomized inputs.

mod common;

use tables_paradigm::prelude::*;
use tables_paradigm::schemalog::{
    eval::{eval, SlLimits, Strategy},
    parser::parse as sl_parse,
    quads::QuadDb,
    translate::{run_fo, run_translated},
};

fn agree(src: &str, input: &QuadDb) {
    let p = sl_parse(src).expect("parses");
    let native = eval(&p, input, Strategy::SemiNaive, &SlLimits::default()).expect("native");
    let naive = eval(&p, input, Strategy::Naive, &SlLimits::default()).expect("naive");
    assert_eq!(native.len(), naive.len(), "semi-naive vs naive");
    let (via_ta, _, _) = run_translated(&p, input, &Budget::default()).expect("TA");
    assert_eq!(native.len(), via_ta.len(), "native vs TA sizes");
    for q in native.iter() {
        assert!(via_ta.contains(q), "TA path missing {q:?}");
    }
}

fn sales_db() -> QuadDb {
    QuadDb::from_relations(&RelDatabase::from_relations([
        Relation::new(
            "sales",
            &["part", "region"],
            &[
                &["nuts", "east"],
                &["nuts", "west"],
                &["bolts", "east"],
                &["screws", "north"],
            ],
        ),
        Relation::new("hot", &["region"], &[&["east"]]),
    ]))
}

#[test]
fn querying_and_restructuring_programs() {
    // Join with a second relation.
    agree(
        "hotsales[T : part -> P] :-
            sales[T : part -> P], sales[T : region -> R], hot[U : region -> R].",
        &sales_db(),
    );
    // Attribute-variable restructuring (metadata as data).
    agree("attrs[T : name -> A] :- sales[T : A -> V].", &sales_db());
    // Dynamic heads: relation-per-region (the SchemaLog SPLIT).
    agree(
        "R[T : part -> P] :- sales[T : region -> R], sales[T : part -> P].",
        &sales_db(),
    );
    // Attribute transposition: swap attr and value roles.
    agree("swapped[T : V -> A] :- sales[T : A -> V].", &sales_db());
}

#[test]
fn negation_recursion_and_builtins() {
    agree(
        "
        cold[T : part -> P] :- sales[T : part -> P], not hot[U : region -> R2],
                               sales[T : region -> R2].
        ",
        &sales_db(),
    );
    agree(
        "
        different[T : part -> P] :- sales[T : part -> P], sales[T : region -> R], P != R.
        ",
        &sales_db(),
    );
    let edges = QuadDb::from_relations(&RelDatabase::from_relations([Relation::new(
        "edge",
        &["from", "to"],
        &[&["a", "b"], &["b", "c"], &["c", "a"]],
    )]));
    agree(
        "
        tc[T : from -> X, to -> Y] :- edge[T : from -> X, to -> Y].
        tc[T : from -> X, to -> Z] :- tc[T : from -> X, to -> Y],
                                      edge[U : from -> Y, to -> Z].
        ",
        &edges,
    );
}

#[test]
fn randomized_inputs() {
    let mut runner = proptest::test_runner::TestRunner::new(proptest::test_runner::Config {
        cases: 12,
        ..Default::default()
    });
    runner
        .run(&common::arb_rel_database(), |db| {
            let quads = QuadDb::from_relations(&db);
            agree(
                "
                out[T : a -> X] :- R[T : A -> X], S[U : B2 -> X].
                flip[T : A2 -> V] :- R[T : A2 -> V].
                ",
                &quads,
            );
            Ok(())
        })
        .unwrap();
}

#[test]
fn fo_and_ta_layers_agree() {
    // The two halves of the reduction (rules → FO, FO → TA) individually
    // preserve semantics.
    let p = sl_parse("R[T : part -> P] :- sales[T : region -> R], sales[T : part -> P].").unwrap();
    let input = sales_db();
    let via_fo = run_fo(&p, &input, 10_000).unwrap();
    let (via_ta, _, _) = run_translated(&p, &input, &Budget::default()).unwrap();
    assert_eq!(via_fo.len(), via_ta.len());
    for q in via_fo.iter() {
        assert!(via_ta.contains(q));
    }
}

#[test]
fn outputs_reassemble_into_relations() {
    let p = sl_parse(
        "report[T : part -> P, region -> R] :-
            sales[T : part -> P], sales[T : region -> R].",
    )
    .unwrap();
    let out = eval(&p, &sales_db(), Strategy::SemiNaive, &SlLimits::default()).unwrap();
    let rels = out.to_relations(&[Symbol::name("report")]);
    let report = rels.get_str("report").unwrap();
    assert_eq!(report.len(), 4);
    assert_eq!(report.arity(), 2);
}

/// The paper's framing: SchemaLog_d restructures *between* the Figure 1
/// representations. Flatten a SalesInfo2-shaped database (regions as data
/// in a header relation) into SalesInfo1 shape.
#[test]
fn schemalog_expresses_figure1_restructurings() {
    // Per-region relations (SalesInfo4 shape, lowercase) → one relation.
    let db = RelDatabase::from_relations([
        Relation::new(
            "east",
            &["part", "sold"],
            &[&["nuts", "50"], &["bolts", "70"]],
        ),
        Relation::new("west", &["part", "sold"], &[&["nuts", "60"]]),
        // Relation *names* are stored as name-sorted symbols (`n:` tag):
        // SchemaLog's first-class names made explicit in the two-sorted
        // symbol universe.
        Relation::new("regions", &["name"], &[&["n:east"], &["n:west"]]),
    ]);
    let quads = QuadDb::from_relations(&db);
    let src = "
        sales[T : part -> P, region -> R, sold -> S] :-
            regions[U : name -> R], R[T : part -> P], R[T : sold -> S].
    ";
    agree(src, &quads);
    let p = sl_parse(src).unwrap();
    let out = eval(&p, &quads, Strategy::SemiNaive, &SlLimits::default()).unwrap();
    let sales = out.to_relations(&[Symbol::name("sales")]);
    assert_eq!(sales.get_str("sales").unwrap().len(), 3);
}
