//! Regenerate every figure of the paper and check it against the stored
//! expectation — the per-figure index of EXPERIMENTS.md in executable
//! form.
//!
//! ```sh
//! cargo run --example figures
//! ```

use tables_paradigm::prelude::*;

fn check(label: &str, ok: bool) {
    println!("{} {label}", if ok { "✓" } else { "✗" });
    assert!(ok, "{label} failed");
}

fn main() {
    // ------------------------------------------------------------------
    // Figure 1: the four sales databases, bold and full versions.
    // ------------------------------------------------------------------
    println!("=== Figure 1 ===");
    for (name, db) in [
        ("SalesInfo1", fixtures::sales_info1_full()),
        ("SalesInfo2", fixtures::sales_info2_full()),
        ("SalesInfo3", fixtures::sales_info3_full()),
        ("SalesInfo4", fixtures::sales_info4_full()),
    ] {
        println!("\n--- {name} ---\n{db}");
    }

    // The four representations carry the same information: each derived
    // from SalesInfo1 by a tabular algebra program / cube view.
    let info1 = fixtures::sales_info1();
    let p2 = parse(
        "Sales <- GROUP[by {Region} on {Sold}](Sales)
         Sales <- CLEANUP[by {Part} on {_}](Sales)
         Sales <- PURGE[on {Sold} by {Region}](Sales)",
    )
    .unwrap();
    check(
        "Figure 1: SalesInfo1 → SalesInfo2 by TA program",
        run_governed_traced(&p2, &info1, &Budget::default())
            .unwrap()
            .0
            .equiv(&fixtures::sales_info2()),
    );
    let p4 = parse("Sales <- SPLIT[on {Region}](Sales)").unwrap();
    check(
        "Figure 1: SalesInfo1 → SalesInfo4 by TA program",
        run_governed_traced(&p4, &info1, &Budget::default())
            .unwrap()
            .0
            .equiv(&fixtures::sales_info4()),
    );
    let cube = Cube::from_table(
        &fixtures::sales_relation(),
        &[Symbol::name("Region"), Symbol::name("Part")],
        Symbol::name("Sold"),
        Agg::Sum,
    )
    .unwrap();
    check(
        "Figure 1: SalesInfo1 → SalesInfo3 via the 2-d cube view",
        cube.to_table_2d()
            .unwrap()
            .equiv(fixtures::sales_info3().table_str("Sales").unwrap()),
    );
    {
        use tables_paradigm::canonical::normal_form::{matrix_to_relation, relation_to_matrix};
        check(
            "Figure 1: SalesInfo3 → SalesInfo1 via the Theorem 4.4 normal form",
            matrix_to_relation("Sales", "Region", "Part", "Sold")
                .apply(&fixtures::sales_info3(), 1000)
                .unwrap()
                .equiv(&fixtures::sales_info1()),
        );
        check(
            "Figure 1: SalesInfo1 → SalesInfo3 via the Theorem 4.4 normal form",
            relation_to_matrix("Sales", "Region", "Part", "Sold")
                .apply(&fixtures::sales_info1(), 1000)
                .unwrap()
                .equiv(&fixtures::sales_info3()),
        );
    }
    check(
        "Figure 1: summary data absorbed into SalesInfo2",
        add_totals(
            fixtures::sales_info2().table_str("Sales").unwrap(),
            &[Symbol::name("Region")],
            &[Symbol::name("Part")],
            Agg::Sum,
        )
        .unwrap()
        .equiv(fixtures::sales_info2_full().table_str("Sales").unwrap()),
    );

    // ------------------------------------------------------------------
    // Figure 2: the four regions of a table.
    // ------------------------------------------------------------------
    println!("\n=== Figure 2 ===");
    let t = fixtures::sales_relation();
    check(
        "Figure 2: τ₀⁰ is the table name",
        t.name() == Symbol::name("Sales"),
    );
    check(
        "Figure 2: τ₀^(>0) are the column attributes",
        t.col_attrs()
            == [
                Symbol::name("Part"),
                Symbol::name("Region"),
                Symbol::name("Sold"),
            ],
    );
    check(
        "Figure 2: τ_(>0)⁰ are the row attributes (⊥ here)",
        t.row_attrs().iter().all(|a| a.is_null()),
    );
    check(
        "Figure 2: τ_>^> are the data entries",
        t.get(1, 3) == Symbol::value("50"),
    );

    // ------------------------------------------------------------------
    // Figure 3: union, difference, Cartesian product.
    // ------------------------------------------------------------------
    println!("\n=== Figure 3 ===");
    let r = Table::relational("R", &["A", "B"], &[&["1", "2"], &["3", "4"]]);
    let s = Table::relational("S", &["A", "B"], &[&["1", "2"], &["5", "6"]]);
    let u = tables_paradigm::algebra::ops::union(&r, &s, Symbol::name("T"));
    println!("R ∪ S (tabular union pads with ⊥):\n{u}");
    check(
        "Figure 3: union concatenates column blocks",
        u.width() == 4 && u.height() == 4,
    );
    let d = tables_paradigm::algebra::ops::difference(&r, &s, Symbol::name("T"));
    check("Figure 3: difference", d.height() == 1);
    let x = tables_paradigm::algebra::ops::product(&r, &s, Symbol::name("T"));
    check("Figure 3: product", x.height() == 4 && x.width() == 4);

    // ------------------------------------------------------------------
    // Figure 4: GROUP by Region on Sold.
    // ------------------------------------------------------------------
    println!("\n=== Figure 4 ===");
    let grouped = tables_paradigm::algebra::ops::group(
        &fixtures::sales_relation(),
        &SymbolSet::from_iter([Symbol::name("Region")]),
        &SymbolSet::from_iter([Symbol::name("Sold")]),
        Symbol::name("Sales"),
    );
    println!("{grouped}");
    check(
        "Figure 4: exact grouped table",
        grouped == fixtures::figure4_grouped(),
    );

    // ------------------------------------------------------------------
    // Figure 5: MERGE on Sold by Region.
    // ------------------------------------------------------------------
    println!("\n=== Figure 5 ===");
    let info2 = fixtures::sales_info2();
    let merged = tables_paradigm::algebra::ops::merge(
        info2.table_str("Sales").unwrap(),
        &SymbolSet::from_iter([Symbol::name("Sold")]),
        &SymbolSet::from_iter([Symbol::name("Region")]),
        Symbol::name("Sales"),
    );
    println!("{merged}");
    check(
        "Figure 5: exact merged table",
        merged == fixtures::figure5_merged(),
    );

    println!("\nAll figures regenerated and verified ✓");
}
