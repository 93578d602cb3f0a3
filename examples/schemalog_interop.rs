//! SchemaLog_d in action (paper §4.2 / Theorem 4.5): querying *and*
//! restructuring with relation and attribute names as first-class
//! citizens, evaluated natively and — equivalently — through the tabular
//! algebra.
//!
//! ```sh
//! cargo run --example schemalog_interop
//! ```

use tables_paradigm::prelude::*;
use tables_paradigm::schemalog::{
    eval::{eval, SlLimits, Strategy},
    parser::parse as sl_parse,
    quads::QuadDb,
    translate::run_translated,
};

fn main() {
    let db = RelDatabase::from_relations([
        Relation::new(
            "sales",
            &["part", "region", "sold"],
            &[
                &["nuts", "east", "50"],
                &["nuts", "west", "60"],
                &["screws", "north", "60"],
                &["bolts", "east", "70"],
                &["bolts", "north", "40"],
            ],
        ),
        Relation::new("watchlist", &["part"], &[&["bolts"]]),
    ]);
    let quads = QuadDb::from_relations(&db);
    println!(
        "Input: {} relations, {} quadruple facts",
        db.relations().len(),
        quads.len()
    );

    // A program mixing querying (joins, negation, built-ins) with
    // SchemaLog's signature restructuring: a *variable* head relation
    // creates one relation per region — the logic-programming counterpart
    // of the paper's SPLIT (SalesInfo4).
    let src = "
        -- strong sales: at least 60 sold, not on the watchlist
        strong[T : part -> P, sold -> S] :-
            sales[T : part -> P], sales[T : sold -> S], S >= 60,
            not watchlist[U : part -> P].

        -- restructure: one relation per region, named by the region value
        R[T : part -> P, sold -> S] :-
            sales[T : region -> R], sales[T : part -> P], sales[T : sold -> S].
    ";
    let program = sl_parse(src).expect("program parses");
    println!("Program:\n{src}");

    let out = eval(&program, &quads, Strategy::SemiNaive, &SlLimits::default())
        .expect("evaluation succeeds");

    let strong = out.to_relations(&[Symbol::name("strong")]);
    println!("strong (native evaluation):");
    print_relation(strong.get_str("strong").unwrap());

    // The dynamically-created per-region relations are named by *values*.
    for region in ["east", "west", "north"] {
        let rels = out.to_relations(&[Symbol::value(region)]);
        let rel = rels.get(Symbol::value(region)).unwrap();
        println!("relation {region:?} ({} tuples):", rel.len());
        print_relation(rel);
    }

    // ------------------------------------------------------------------
    // Theorem 4.5: the program runs through the tabular algebra — order
    // built-ins included, via the materialized Ord relation.
    // ------------------------------------------------------------------
    let ta_fragment = sl_parse(
        "
        eastern[T : part -> P, sold -> S] :-
            sales[T : region -> v:east], sales[T : part -> P], sales[T : sold -> S],
            S >= 50, not watchlist[U : part -> P].
        ",
    )
    .unwrap();
    let native = eval(
        &ta_fragment,
        &quads,
        Strategy::SemiNaive,
        &SlLimits::default(),
    )
    .unwrap();
    let (via_ta, _, _) = run_translated(&ta_fragment, &quads, &Budget::default())
        .expect("translation + TA run succeed");
    let native_rel = native.to_relations(&[Symbol::name("eastern")]);
    let ta_rel = via_ta.to_relations(&[Symbol::name("eastern")]);
    assert!(
        native_rel
            .get_str("eastern")
            .unwrap()
            .equiv(ta_rel.get_str("eastern").unwrap()),
        "Theorem 4.5: TA path must agree with native evaluation"
    );
    println!("eastern — native and TA-translated evaluations agree ✓");
    print_relation(ta_rel.get_str("eastern").unwrap());
}

fn print_relation(r: &Relation) {
    println!("{}", r.to_table());
}
