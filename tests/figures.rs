//! Integration tests regenerating every figure of the paper from the
//! public API (experiment ids Fig. 1 – Fig. 5 in DESIGN.md).

use tables_paradigm::algebra::ops;
use tables_paradigm::prelude::*;

fn budget() -> Budget {
    Budget::default()
}

// ----------------------------------------------------------------------
// Figure 1
// ----------------------------------------------------------------------

/// The §3.4 chain turns the relational representation into the per-region
/// cross-tab.
#[test]
fn fig1_info1_to_info2() {
    let p = parse(
        "Sales <- GROUP[by {Region} on {Sold}](Sales)
         Sales <- CLEANUP[by {Part} on {_}](Sales)
         Sales <- PURGE[on {Sold} by {Region}](Sales)",
    )
    .unwrap();
    let out = run_governed_traced(&p, &fixtures::sales_info1(), &budget())
        .unwrap()
        .0;
    assert!(out.equiv(&fixtures::sales_info2()));
}

/// Merge plus the ⊥-elimination derivation inverts the cross-tab.
#[test]
fn fig1_info2_to_info1() {
    let p = parse(
        "Flat  <- MERGE[on {Sold} by {Region}](Sales)
         Keys  <- PROJECT[{* \\ Sold}](Flat)
         VCol  <- PROJECT[{Sold}](Flat)
         VCol  <- DIFFERENCE(VCol, VCol)
         Pad   <- UNION(Keys, VCol)
         Flat  <- DIFFERENCE(Flat, Pad)
         Out   <- CLEANUP[by {*} on {_}](Flat)",
    )
    .unwrap();
    let out = run_governed_traced(&p, &fixtures::sales_info2(), &budget())
        .unwrap()
        .0;
    let flat = out.table_str("Out").unwrap();
    let rel = fixtures::sales_relation();
    assert_eq!(flat.height(), rel.height());
    for i in 1..=rel.height() {
        let want = [rel.get(i, 1), rel.get(i, 2), rel.get(i, 3)];
        assert!(
            (1..=flat.height()).any(|k| flat.data_row(k) == want),
            "missing tuple {want:?}"
        );
    }
}

/// Split produces the one-table-per-region database.
#[test]
fn fig1_info1_to_info4() {
    let p = parse("Sales <- SPLIT[on {Region}](Sales)").unwrap();
    let out = run_governed_traced(&p, &fixtures::sales_info1(), &budget())
        .unwrap()
        .0;
    assert!(out.equiv(&fixtures::sales_info4()));
}

/// Collapse plus redundancy removal inverts the split.
#[test]
fn fig1_info4_to_info1() {
    let p = parse(
        "Sales <- COLLAPSE[by {Region}](Sales)
         Sales <- PURGE[on {*} by {}](Sales)
         Sales <- CLEANUP[by {*} on {_}](Sales)",
    )
    .unwrap();
    let out = run_governed_traced(&p, &fixtures::sales_info4(), &budget())
        .unwrap()
        .0;
    let t = out.table_str("Sales").unwrap();
    assert_eq!(t.height(), fixtures::sales_relation().height());
    assert_eq!(t.width(), 3);
}

/// SalesInfo2 → SalesInfo4: cross-tab to per-region tables, staying inside
/// the algebra (unpivot, then split).
#[test]
fn fig1_info2_to_info4() {
    let info2 = fixtures::sales_info2();
    let flat = unpivot(
        info2.table_str("Sales").unwrap(),
        Symbol::name("Sold"),
        Symbol::name("Region"),
        &budget(),
    )
    .unwrap();
    let p = parse("Sales <- SPLIT[on {Region}](Sales)").unwrap();
    let out = run_governed_traced(&p, &Database::from_tables([flat]), &budget())
        .unwrap()
        .0;
    assert!(out.equiv(&fixtures::sales_info4()));
}

/// SalesInfo4 → SalesInfo2: per-region tables to cross-tab.
#[test]
fn fig1_info4_to_info2() {
    let p = parse(
        "Sales <- COLLAPSE[by {Region}](Sales)
         Sales <- PURGE[on {*} by {}](Sales)
         Sales <- CLEANUP[by {*} on {_}](Sales)
         Sales <- GROUP[by {Region} on {Sold}](Sales)
         Sales <- CLEANUP[by {Part} on {_}](Sales)
         Sales <- PURGE[on {Sold} by {Region}](Sales)",
    )
    .unwrap();
    let out = run_governed_traced(&p, &fixtures::sales_info4(), &budget())
        .unwrap()
        .0;
    assert!(
        out.equiv(&fixtures::sales_info2()),
        "got:\n{out}\nexpected:\n{}",
        fixtures::sales_info2()
    );
}

/// SalesInfo3 → SalesInfo1: row/column names are *data*, so the generic
/// route is the Theorem 4.4 normal form (`matrix_to_relation`); with it,
/// every representation of Figure 1 reaches every other.
#[test]
fn fig1_info3_to_info1() {
    use tables_paradigm::canonical::normal_form::matrix_to_relation;
    let out = matrix_to_relation("Sales", "Region", "Part", "Sold")
        .apply(&fixtures::sales_info3(), 1000)
        .unwrap();
    assert!(out.equiv(&fixtures::sales_info1()));
}

/// SalesInfo1 → SalesInfo3, also via the normal form (the inverse of
/// `fig1_info3_to_info1`).
#[test]
fn fig1_info1_to_info3() {
    use tables_paradigm::canonical::normal_form::relation_to_matrix;
    let out = relation_to_matrix("Sales", "Region", "Part", "Sold")
        .apply(&fixtures::sales_info1(), 1000)
        .unwrap();
    assert!(out.equiv(&fixtures::sales_info3()));
}

/// The cube view reproduces SalesInfo3, and totals absorb as in the
/// regular-outline parts of Figure 1.
#[test]
fn fig1_info3_and_summaries() {
    let cube = Cube::from_table(
        &fixtures::sales_relation(),
        &[Symbol::name("Region"), Symbol::name("Part")],
        Symbol::name("Sold"),
        Agg::Sum,
    )
    .unwrap();
    let info3 = fixtures::sales_info3();
    assert!(cube
        .to_table_2d()
        .unwrap()
        .equiv(info3.table_str("Sales").unwrap()));

    // Summary relations of SalesInfo1-full.
    let full = fixtures::sales_info1_full();
    let parts = summarize(
        &fixtures::sales_relation(),
        &[Symbol::name("Part")],
        Symbol::name("Sold"),
        Agg::Sum,
        "TotalPartSales",
        "Total",
    )
    .unwrap();
    assert!(parts.equiv(full.table_str("TotalPartSales").unwrap()));
    assert_eq!(
        grand_total(&fixtures::sales_relation(), Symbol::name("Sold"), Agg::Sum).unwrap(),
        Some(420.0)
    );
}

// ----------------------------------------------------------------------
// Figure 2
// ----------------------------------------------------------------------

#[test]
fn fig2_table_regions() {
    let info2 = fixtures::sales_info2();
    let t = info2.table_str("Sales").unwrap();
    assert_eq!(t.name(), Symbol::name("Sales"));
    assert_eq!(t.col_attrs()[0], Symbol::name("Part"));
    assert_eq!(t.row_attr(1), Symbol::name("Region"));
    assert_eq!(t.get(2, 2), Symbol::value("50"));
}

// ----------------------------------------------------------------------
// Figure 3
// ----------------------------------------------------------------------

#[test]
fn fig3_union_difference_product() {
    let r = Table::relational("R", &["A", "B"], &[&["1", "2"], &["3", "4"]]);
    let s = Table::relational("S", &["B", "C"], &[&["2", "9"]]);
    let u = ops::union(&r, &s, Symbol::name("U"));
    assert_eq!((u.height(), u.width()), (3, 4));
    // Padding is ⊥, attributes concatenate.
    assert_eq!(
        u.col_attrs(),
        &[
            Symbol::name("A"),
            Symbol::name("B"),
            Symbol::name("B"),
            Symbol::name("C")
        ]
    );
    let d = ops::difference(&r, &r, Symbol::name("D"));
    assert_eq!(d.height(), 0);
    let p = ops::product(&r, &s, Symbol::name("P"));
    assert_eq!((p.height(), p.width()), (2, 4));
}

// ----------------------------------------------------------------------
// Figures 4 and 5 — exact golden tables
// ----------------------------------------------------------------------

#[test]
fn fig4_group_exact() {
    let p = parse("Sales <- GROUP[by {Region} on {Sold}](Sales)").unwrap();
    let out = run_governed_traced(&p, &fixtures::sales_info1(), &budget())
        .unwrap()
        .0;
    assert_eq!(
        out.table_str("Sales").unwrap(),
        &fixtures::figure4_grouped()
    );
}

#[test]
fn fig5_merge_exact() {
    let p = parse("Sales <- MERGE[on {Sold} by {Region}](Sales)").unwrap();
    let out = run_governed_traced(&p, &fixtures::sales_info2(), &budget())
        .unwrap()
        .0;
    assert_eq!(out.table_str("Sales").unwrap(), &fixtures::figure5_merged());
}

/// The §3.4 narrative in full: clean-up groups the Figure 4 result per
/// part, purge recovers SalesInfo2, and merging Figure 4's output is the
/// "even more uneconomical" representation.
#[test]
fn fig4_fig5_narrative() {
    let db = Database::from_tables([fixtures::figure4_grouped()]);
    let p = parse(
        "Sales <- CLEANUP[by {Part} on {_}](Sales)
         Sales <- PURGE[on {Sold} by {Region}](Sales)",
    )
    .unwrap();
    let out = run_governed_traced(&p, &db, &budget()).unwrap().0;
    assert!(out.equiv(&fixtures::sales_info2()));

    let merge_grouped = parse("Sales <- MERGE[on {Sold} by {Region}](Sales)").unwrap();
    let db2 = Database::from_tables([fixtures::figure4_grouped()]);
    let out2 = run_governed_traced(&merge_grouped, &db2, &budget())
        .unwrap()
        .0;
    assert_eq!(out2.table_str("Sales").unwrap().height(), 64);
}
