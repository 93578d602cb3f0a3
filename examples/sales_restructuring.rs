//! The paper's headline demonstration (Figure 1 and §1): the same sales
//! data in four tabular representations, with tabular algebra programs
//! restructuring between them — "it is possible to restructure the data
//! from any of the representations SalesInfo2–SalesInfo4 in Figure 1 to
//! any other".
//!
//! ```sh
//! cargo run --example sales_restructuring
//! ```

use tables_paradigm::prelude::*;

fn main() {
    let info1 = fixtures::sales_info1();
    let info2 = fixtures::sales_info2();
    let info4 = fixtures::sales_info4();

    println!("SalesInfo1 — the relational representation:\n{info1}");

    // ------------------------------------------------------------------
    // SalesInfo1 → SalesInfo2: the §3.4 walk-through
    //   GROUP by Region on Sold; CLEAN-UP by Part on ⊥; PURGE on Sold by Region
    // ------------------------------------------------------------------
    let to_info2 = parse(
        "
        Sales <- GROUP[by {Region} on {Sold}](Sales)
        Sales <- CLEANUP[by {Part} on {_}](Sales)
        Sales <- PURGE[on {Sold} by {Region}](Sales)
        ",
    )
    .unwrap();
    let got2 = run_governed_traced(&to_info2, &info1, &Budget::default())
        .unwrap()
        .0;
    println!("SalesInfo1 → SalesInfo2 (group, clean-up, purge):\n{got2}");
    assert!(got2.equiv(&info2), "must reproduce the bold SalesInfo2");

    // ------------------------------------------------------------------
    // SalesInfo2 → SalesInfo1: Figure 5's merge, then ⊥-row elimination
    // via the paper's projection/union/difference derivation.
    // ------------------------------------------------------------------
    let to_info1 = parse(
        "
        Flat  <- MERGE[on {Sold} by {Region}](Sales)
        Keys  <- PROJECT[{* \\ Sold}](Flat)
        VCol  <- PROJECT[{Sold}](Flat)
        VCol  <- DIFFERENCE(VCol, VCol)
        Pad   <- UNION(Keys, VCol)
        Flat  <- DIFFERENCE(Flat, Pad)
        Sales <- CLEANUP[by {*} on {_}](Flat)
        ",
    )
    .unwrap();
    let mut got1 = run_governed_traced(&to_info1, &info2, &Budget::default())
        .unwrap()
        .0;
    got1.retain(|t| t.name() == Symbol::name("Sales"));
    println!("SalesInfo2 → SalesInfo1 (merge, ⊥-elimination, clean-up):\n{got1}");
    let back = got1.table_str("Sales").unwrap();
    let rel = fixtures::sales_relation();
    assert_eq!(back.height(), rel.height());

    // ------------------------------------------------------------------
    // SalesInfo1 → SalesInfo4: SPLIT on Region.
    // ------------------------------------------------------------------
    let to_info4 = parse("Sales <- SPLIT[on {Region}](Sales)").unwrap();
    let got4 = run_governed_traced(&to_info4, &info1, &Budget::default())
        .unwrap()
        .0;
    println!(
        "SalesInfo1 → SalesInfo4 (split): {} tables named Sales",
        got4.len()
    );
    println!("{got4}");
    assert!(got4.equiv(&info4));

    // ------------------------------------------------------------------
    // SalesInfo4 → SalesInfo1: COLLAPSE by Region, then redundancy removal.
    // ------------------------------------------------------------------
    let to_info1_from4 = parse(
        "
        Sales <- COLLAPSE[by {Region}](Sales)
        Sales <- PURGE[on {*} by {}](Sales)
        Sales <- CLEANUP[by {*} on {_}](Sales)
        ",
    )
    .unwrap();
    let got1b = run_governed_traced(&to_info1_from4, &info4, &Budget::default())
        .unwrap()
        .0;
    let collapsed = got1b.table_str("Sales").unwrap();
    println!("SalesInfo4 → relational form (collapse, purge, clean-up):\n{collapsed}");
    assert_eq!(collapsed.height(), rel.height());

    // ------------------------------------------------------------------
    // SalesInfo3: the 2-dimensional cube view (data as attributes).
    // ------------------------------------------------------------------
    let cube = Cube::from_table(
        &rel,
        &[Symbol::name("Region"), Symbol::name("Part")],
        Symbol::name("Sold"),
        Agg::Sum,
    )
    .unwrap();
    let info3_table = cube.to_table_2d().unwrap();
    println!("SalesInfo3 — the cube view (row/column names are data):\n{info3_table}");
    let info3 = fixtures::sales_info3();
    assert!(info3_table.equiv(info3.table_str("Sales").unwrap()));

    // ------------------------------------------------------------------
    // Absorbing summary data (the regular-outline parts of Figure 1).
    // ------------------------------------------------------------------
    let with_totals = add_totals(
        got2.table_str("Sales").unwrap(),
        &[Symbol::name("Region")],
        &[Symbol::name("Part")],
        Agg::Sum,
    )
    .unwrap();
    println!("SalesInfo2 with absorbed OLAP summaries:\n{with_totals}");
    let full2 = fixtures::sales_info2_full();
    assert!(with_totals.equiv(full2.table_str("Sales").unwrap()));

    println!("All restructurings verified against Figure 1 ✓");
}
