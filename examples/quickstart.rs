//! Quickstart: build tables, run tabular algebra statements, and print the
//! results.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use tables_paradigm::prelude::*;

fn main() {
    // A table is a matrix with a name, column attributes, row attributes,
    // and data entries (paper §2, Figure 2). Relational tables are the
    // special case with ⊥ row attributes.
    let sales = Table::relational(
        "Sales",
        &["Part", "Region", "Sold"],
        &[
            &["nuts", "east", "50"],
            &["nuts", "west", "60"],
            &["bolts", "east", "70"],
        ],
    );
    println!("A relational table:\n{sales}");

    let db = Database::from_tables([sales]);

    // Tabular algebra programs are sequences of assignment statements; the
    // textual syntax mirrors the paper's notation.
    let program = parse(
        "
        -- restructure: one Sold column per region (cf. SalesInfo2)
        Cross <- GROUP[by {Region} on {Sold}](Sales)
        Cross <- CLEANUP[by {Part} on {_}](Cross)
        Cross <- PURGE[on {Sold} by {Region}](Cross)

        -- query: parts sold in the east
        East  <- SELECTCONST[Region = v:east](Sales)
        East  <- PROJECT[{Part}](East)
        ",
    )
    .expect("program parses");

    let out = run_governed_traced(&program, &db, &Budget::default())
        .expect("program runs")
        .0;

    println!(
        "Cross-tab (GROUP + CLEAN-UP + PURGE):\n{}",
        out.table_str("Cross").expect("Cross produced")
    );
    println!(
        "Parts sold in the east:\n{}",
        out.table_str("East").expect("East produced")
    );

    // The same cross-tab via the OLAP layer's one-call pivot.
    let mut pivoted = pivot(
        db.table_str("Sales").unwrap(),
        Symbol::name("Region"),
        Symbol::name("Sold"),
        &Budget::default(),
    )
    .expect("pivot runs");
    pivoted.set_name(Symbol::name("Cross"));
    assert!(pivoted.equiv(out.table_str("Cross").unwrap()));
    println!("olap::pivot agrees with the hand-written program ✓");
}
