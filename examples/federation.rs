//! Federations of tabular databases (paper §4.2): several autonomous
//! databases flatten into one tabular database under qualified names, the
//! algebra runs unchanged across them, and results route back to members.
//!
//! ```sh
//! cargo run --example federation
//! ```

use tables_paradigm::algebra::federation::Federation;
use tables_paradigm::prelude::*;

fn main() {
    // Three branch databases, each with its own Sales table.
    let mut fed = Federation::new();
    for (branch, rows) in [
        ("east", vec![["nuts", "50"], ["bolts", "70"]]),
        ("west", vec![["nuts", "60"], ["screws", "50"]]),
        ("north", vec![["screws", "60"], ["bolts", "40"]]),
    ] {
        let refs: Vec<&[&str]> = rows.iter().map(|r| r.as_slice()).collect();
        fed.insert(
            branch,
            Database::from_tables([Table::relational("Sales", &["Part", "Sold"], &refs)]),
        );
    }
    println!(
        "Federation members: {:?} ({} tables total)",
        fed.member_names(),
        fed.table_count()
    );
    println!("Flattened view:\n{}", fed.flatten());

    // One program, three databases: merge every branch into a warehouse
    // member, tag each row with its branch along the way (the branch name
    // is restructured *into* the data — interoperability à la SchemaLog).
    let program = parse(
        "
        Merged    <- CLASSICALUNION(east.Sales, west.Sales)
        Merged    <- CLASSICALUNION(Merged, north.Sales)
        warehouse.Sales <- COPY(Merged)

        -- per-branch cross-tabs computed in place, inside each member
        *1 <- GROUP[by {Part} on {Sold}](*1)
        *1 <- CLEANUP[by {} on {_}](*1)
        *1 <- PURGE[on {Sold} by {Part}](*1)
        ",
    )
    .expect("program parses");

    let (out, _, _) = fed
        .run_program(&program, "main", &Budget::default())
        .expect("federated run succeeds");

    let warehouse = out.member("warehouse").expect("warehouse member created");
    println!("warehouse.Sales (cross-tab over the merged data):");
    println!("{}", warehouse.table_str("Sales").unwrap());

    for branch in ["east", "west", "north"] {
        let db = out.member(branch).unwrap();
        println!(
            "{branch}.Sales, pivoted in place:\n{}",
            db.table_str("Sales").unwrap()
        );
    }
    println!("Federated restructuring complete ✓");
}
