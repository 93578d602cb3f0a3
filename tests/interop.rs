//! Cross-layer integration: the same data flowing through every substrate
//! of the repository — relational, tabular, canonical, SchemaLog, GOOD,
//! OLAP — with the invariants that tie them together.

mod common;

use tables_paradigm::canonical::{decode, encode};
use tables_paradigm::good::{embed, graph::Graph};
use tables_paradigm::prelude::*;
use tables_paradigm::schemalog::quads::QuadDb;

/// Relational → quads → relational → tabular → Rep → tabular: a grand
/// round trip across three encodings.
#[test]
fn grand_round_trip() {
    let rel_db = RelDatabase::from_relations([
        Relation::new(
            "sales",
            &["part", "region", "sold"],
            &[
                &["nuts", "east", "50"],
                &["bolts", "east", "70"],
                &["nuts", "west", "60"],
            ],
        ),
        Relation::new("hot", &["region"], &[&["east"]]),
    ]);

    // Through the quad view.
    let quads = QuadDb::from_relations(&rel_db);
    let back = quads.to_relations(&[Symbol::name("sales"), Symbol::name("hot")]);
    assert!(back.equiv(&rel_db));

    // Through the tabular embedding and the canonical representation.
    let tabular = rel_db.to_tabular();
    let rep = encode(&tabular);
    let decoded = decode(&rep).unwrap();
    assert!(decoded.equiv(&tabular));
    let rel_again =
        RelDatabase::from_tabular(&decoded, &[Symbol::name("sales"), Symbol::name("hot")]).unwrap();
    assert!(rel_again.equiv(&rel_db));
}

/// The GOOD embedding is itself a tabular database; encode it canonically
/// and come back.
#[test]
fn good_graph_through_the_canonical_representation() {
    let mut g = Graph::new();
    let a = g.add_node(Symbol::name("Person"));
    let b = g.add_node(Symbol::name("Person"));
    g.add_edge(a, Symbol::name("knows"), b);
    let db = embed::to_tabular(&g);
    let back = decode(&encode(&db)).unwrap();
    assert!(back.equiv(&db));
    let graph_again = embed::from_tabular(&back).unwrap();
    assert!(g.equiv(&graph_again));
}

/// CSV is a faithful interchange format for every Figure 1 table,
/// including through the CLI's conventions.
#[test]
fn csv_interchange_for_all_fixtures() {
    use tables_paradigm::core::io::{from_csv, to_csv};
    for db in [
        fixtures::sales_info1_full(),
        fixtures::sales_info2_full(),
        fixtures::sales_info3_full(),
        fixtures::sales_info4_full(),
    ] {
        let round: Database = db
            .tables()
            .iter()
            .map(|t| from_csv(&to_csv(t)).expect("csv round trip"))
            .collect();
        assert!(round.equiv(&db));
    }
}

/// An OLAP pivot computed four ways produces the same cross-tab: the TA
/// program, the hand-coded baseline, the §3.4 textual program, and a
/// federated run.
#[test]
fn pivot_four_ways() {
    use tables_paradigm::algebra::federation::Federation;
    use tables_paradigm::olap::baseline::pivot_direct;
    let rel = fixtures::make_sales_relation(9, 5);
    let budget = Budget::default();

    let via_olap = pivot(&rel, Symbol::name("Region"), Symbol::name("Sold"), &budget).unwrap();
    let via_baseline = pivot_direct(&rel, Symbol::name("Region"), Symbol::name("Sold")).unwrap();

    let program = parse(
        "Sales <- GROUP[by {Region} on {Sold}](Sales)
         Sales <- CLEANUP[by {Part} on {_}](Sales)
         Sales <- PURGE[on {Sold} by {Region}](Sales)",
    )
    .unwrap();
    let db = Database::from_tables([rel.clone()]);
    let via_text = run_governed_traced(&program, &db, &budget).unwrap().0;
    let via_text = via_text.table_str("Sales").unwrap();

    let mut fed = Federation::new();
    fed.insert("branch", db.clone());
    let fed_program = parse(
        "branch.Sales <- GROUP[by {Region} on {Sold}](branch.Sales)
         branch.Sales <- CLEANUP[by {Part} on {_}](branch.Sales)
         branch.Sales <- PURGE[on {Sold} by {Region}](branch.Sales)",
    )
    .unwrap();
    let (fed_out, _, _) = fed.run_program(&fed_program, "main", &budget).unwrap();
    let via_fed = fed_out
        .member("branch")
        .unwrap()
        .table_str("Sales")
        .unwrap();

    assert!(via_olap.equiv(&via_baseline));
    assert!(via_olap.equiv(via_text));
    assert!(via_olap.equiv(via_fed));
}

/// The SchemaLog split and the tabular SPLIT produce the same partition of
/// the data (SchemaLog's dynamic heads vs the algebra's SPLIT).
#[test]
fn schemalog_split_matches_ta_split() {
    use tables_paradigm::schemalog::{
        eval::{eval, SlLimits, Strategy},
        parser::parse as sl_parse,
    };
    let rel_db = RelDatabase::from_relations([Relation::new(
        "sales",
        &["part", "region", "sold"],
        &[
            &["nuts", "east", "50"],
            &["bolts", "east", "70"],
            &["nuts", "west", "60"],
        ],
    )]);
    let quads = QuadDb::from_relations(&rel_db);
    let p = sl_parse(
        "R[T : part -> P, sold -> S] :-
            sales[T : region -> R], sales[T : part -> P], sales[T : sold -> S].",
    )
    .unwrap();
    let out = eval(&p, &quads, Strategy::SemiNaive, &SlLimits::default()).unwrap();
    let east = out.to_relations(&[Symbol::value("east")]);
    let east_rel = east.get(Symbol::value("east")).unwrap();
    assert_eq!(east_rel.len(), 2); // nuts, bolts

    // TA SPLIT over the embedded table gives the same east rows.
    let tabular = rel_db.to_tabular();
    let split = parse("sales <- SPLIT[on {region}](sales)").unwrap();
    let split_out = run_governed_traced(&split, &tabular, &Budget::default())
        .unwrap()
        .0;
    let east_table = split_out
        .tables_named(Symbol::name("sales"))
        .into_iter()
        .find(|t| t.get(1, 1) == Symbol::value("east"))
        .expect("east table");
    // Header row + two data rows.
    assert_eq!(east_table.height(), 3);
}
