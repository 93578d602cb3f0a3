//! The paper's running example: the four sales databases of Figure 1 and
//! the expected outputs of Figures 4 and 5, plus deterministic scaled
//! generators used by the benchmark harness.
//!
//! Each `SalesInfo` database exists in two versions:
//!
//! * the **bold** version (the parts outlined in bold in Figure 1): the raw
//!   sales data;
//! * the **full** version, which additionally absorbs the OLAP summary data
//!   (per-part totals, per-region totals, grand total) shown in regular
//!   outline.
//!
//! One OCR note: the `north` row of `SalesInfo3` is garbled in the
//! available scan; we reconstruct it as `(⊥, 60, 40, 100)` — the unique
//! assignment consistent with the base relation (`screws/north/60`,
//! `bolts/north/40`) and the printed row total `100`.

use crate::database::Database;
use crate::symbol::Symbol;
use crate::table::Table;

/// The raw sales relation of `SalesInfo1` (bold part of Figure 1):
/// `Sales(Part, Region, Sold)` with eight tuples.
pub fn sales_relation() -> Table {
    Table::relational(
        "Sales",
        &["Part", "Region", "Sold"],
        &[
            &["nuts", "east", "50"],
            &["nuts", "west", "60"],
            &["nuts", "south", "40"],
            &["screws", "west", "50"],
            &["screws", "north", "60"],
            &["screws", "south", "50"],
            &["bolts", "east", "70"],
            &["bolts", "north", "40"],
        ],
    )
}

/// `SalesInfo1`, bold part: the relational representation.
pub fn sales_info1() -> Database {
    Database::from_tables([sales_relation()])
}

/// `SalesInfo1`, full: relational representation plus the three summary
/// relations (`TotalPartSales`, `TotalRegionSales`, `GrandTotal`).
pub fn sales_info1_full() -> Database {
    Database::from_tables([
        sales_relation(),
        Table::relational(
            "TotalPartSales",
            &["Part", "Total"],
            &[&["nuts", "150"], &["screws", "160"], &["bolts", "110"]],
        ),
        Table::relational(
            "TotalRegionSales",
            &["Region", "Total"],
            &[
                &["east", "120"],
                &["west", "110"],
                &["north", "100"],
                &["south", "90"],
            ],
        ),
        Table::relational("GrandTotal", &["Total"], &[&["420"]]),
    ])
}

/// `SalesInfo2`, bold part: sales organized per region; four columns all
/// named `Sold`, a `Region` header row naming each column's region.
pub fn sales_info2() -> Database {
    let t = Table::from_grid(&[
        &["Sales", "Part", "Sold", "Sold", "Sold", "Sold"],
        &["Region", "_", "east", "west", "north", "south"],
        &["_", "nuts", "50", "60", "_", "40"],
        &["_", "screws", "_", "50", "60", "50"],
        &["_", "bolts", "70", "_", "40", "_"],
    ])
    .unwrap();
    Database::from_tables([t])
}

/// `SalesInfo2`, full: the bold table extended with the `Total` summary
/// column (also headed `Sold`, region entry the *name* `Total`) and the
/// `Total` summary row.
pub fn sales_info2_full() -> Database {
    let t = Table::from_grid(&[
        &["Sales", "Part", "Sold", "Sold", "Sold", "Sold", "Sold"],
        &["Region", "_", "east", "west", "north", "south", "n:Total"],
        &["_", "nuts", "50", "60", "_", "40", "150"],
        &["_", "screws", "_", "50", "60", "50", "160"],
        &["_", "bolts", "70", "_", "40", "_", "110"],
        &["Total", "_", "120", "110", "100", "90", "420"],
    ])
    .unwrap();
    Database::from_tables([t])
}

/// `SalesInfo3`, bold part: parts as column attributes, regions as row
/// attributes — row and column names are *data* (values).
pub fn sales_info3() -> Database {
    let t = Table::from_grid(&[
        &["Sales", "v:nuts", "v:screws", "v:bolts"],
        &["v:east", "50", "_", "70"],
        &["v:west", "60", "50", "_"],
        &["v:north", "_", "60", "40"],
        &["v:south", "40", "50", "_"],
    ])
    .unwrap();
    Database::from_tables([t])
}

/// `SalesInfo3`, full: with the `Total` summary row and column (attribute
/// positions hold the *name* `Total`).
pub fn sales_info3_full() -> Database {
    let t = Table::from_grid(&[
        &["Sales", "v:nuts", "v:screws", "v:bolts", "n:Total"],
        &["v:east", "50", "_", "70", "120"],
        &["v:west", "60", "50", "_", "110"],
        &["v:north", "_", "60", "40", "100"],
        &["v:south", "40", "50", "_", "90"],
        &["n:Total", "150", "160", "110", "420"],
    ])
    .unwrap();
    Database::from_tables([t])
}

fn info4_table(region: &str, rows: &[(&str, &str)], total: Option<&str>) -> Table {
    let mut grid: Vec<Vec<String>> = vec![
        vec!["Sales".into(), "Part".into(), "Sold".into()],
        vec![
            "Region".into(),
            format!("v:{region}"),
            format!("v:{region}"),
        ],
    ];
    for (part, sold) in rows {
        grid.push(vec!["_".into(), (*part).into(), (*sold).into()]);
    }
    if let Some(tot) = total {
        grid.push(vec!["Total".into(), "_".into(), (*tot).into()]);
    }
    let borrowed: Vec<Vec<&str>> = grid
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    let slices: Vec<&[&str]> = borrowed.iter().map(Vec::as_slice).collect();
    Table::from_grid(&slices).unwrap()
}

/// `SalesInfo4`, bold part: one `Sales` table per region — all four tables
/// share the name `Sales`; their number depends on the instance.
pub fn sales_info4() -> Database {
    Database::from_tables([
        info4_table("east", &[("nuts", "50"), ("bolts", "70")], None),
        info4_table("west", &[("nuts", "60"), ("screws", "50")], None),
        info4_table("north", &[("screws", "60"), ("bolts", "40")], None),
        info4_table("south", &[("nuts", "40"), ("screws", "50")], None),
    ])
}

/// `SalesInfo4`, full: each regional table gains its `Total` row, and a
/// fifth `Sales` table (region entry the name `Total`) holds the per-part
/// totals and the grand total.
pub fn sales_info4_full() -> Database {
    let totals = Table::from_grid(&[
        &["Sales", "Part", "Sold"],
        &["Region", "n:Total", "n:Total"],
        &["_", "nuts", "150"],
        &["_", "screws", "160"],
        &["_", "bolts", "110"],
        &["Total", "_", "420"],
    ])
    .unwrap();
    Database::from_tables([
        info4_table("east", &[("nuts", "50"), ("bolts", "70")], Some("120")),
        info4_table("west", &[("nuts", "60"), ("screws", "50")], Some("110")),
        info4_table("north", &[("screws", "60"), ("bolts", "40")], Some("100")),
        info4_table("south", &[("nuts", "40"), ("screws", "50")], Some("90")),
        totals,
    ])
}

/// The exact output of Figure 4 (bottom):
/// `Sales ← GROUP by Region on Sold (Sales)` applied to [`sales_relation`].
///
/// The attribute row keeps `Part` and gains one `Sold` per original data
/// row; the first data row (row attribute `Region`) transposes the original
/// `Region` column; original row `i` contributes its `Sold` entry under the
/// `i`-th `Sold` copy, everything else ⊥.
pub fn figure4_grouped() -> Table {
    Table::from_grid(&[
        &[
            "Sales", "Part", "Sold", "Sold", "Sold", "Sold", "Sold", "Sold", "Sold", "Sold",
        ],
        &[
            "Region", "_", "east", "west", "south", "west", "north", "south", "east", "north",
        ],
        &["_", "nuts", "50", "_", "_", "_", "_", "_", "_", "_"],
        &["_", "nuts", "_", "60", "_", "_", "_", "_", "_", "_"],
        &["_", "nuts", "_", "_", "40", "_", "_", "_", "_", "_"],
        &["_", "screws", "_", "_", "_", "50", "_", "_", "_", "_"],
        &["_", "screws", "_", "_", "_", "_", "60", "_", "_", "_"],
        &["_", "screws", "_", "_", "_", "_", "_", "50", "_", "_"],
        &["_", "bolts", "_", "_", "_", "_", "_", "_", "70", "_"],
        &["_", "bolts", "_", "_", "_", "_", "_", "_", "_", "40"],
    ])
    .unwrap()
}

/// The exact output of Figure 5:
/// `Sales ← MERGE on Sold by Region (Sales)` applied to the bold
/// `SalesInfo2` table — the "uneconomical" relational representation with
/// one row per (part, region) pair, ⊥ where no sale occurred.
pub fn figure5_merged() -> Table {
    Table::from_grid(&[
        &["Sales", "Part", "Region", "Sold"],
        &["_", "nuts", "east", "50"],
        &["_", "nuts", "west", "60"],
        &["_", "nuts", "north", "_"],
        &["_", "nuts", "south", "40"],
        &["_", "screws", "east", "_"],
        &["_", "screws", "west", "50"],
        &["_", "screws", "north", "60"],
        &["_", "screws", "south", "50"],
        &["_", "bolts", "east", "70"],
        &["_", "bolts", "west", "_"],
        &["_", "bolts", "north", "40"],
        &["_", "bolts", "south", "_"],
    ])
    .unwrap()
}

// ----------------------------------------------------------------------
// Scaled generators (deterministic; the benchmark harness sweeps these)
// ----------------------------------------------------------------------

/// Deterministic "sold" figure for a (part, region) pair; `None` encodes a
/// missing sale. Roughly 3/4 of the pairs have a sale, mimicking the ~70%
/// density of the paper's example.
fn sold_amount(p: usize, r: usize) -> Option<u64> {
    // A small mixing function keeps the pattern irregular but reproducible.
    let h = (p as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(r as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    if h.is_multiple_of(4) {
        None
    } else {
        Some(10 + h % 90)
    }
}

/// Name of the `i`-th synthetic part.
pub fn part_name(i: usize) -> String {
    format!("part{i:04}")
}

/// Name of the `i`-th synthetic region.
pub fn region_name(i: usize) -> String {
    format!("region{i:04}")
}

/// A scaled `SalesInfo1`-shaped relation: one row per (part, region) pair
/// that has a sale.
pub fn make_sales_relation(parts: usize, regions: usize) -> Table {
    let attrs = [
        Symbol::name("Part"),
        Symbol::name("Region"),
        Symbol::name("Sold"),
    ];
    let mut rows = Vec::new();
    for p in 0..parts {
        for r in 0..regions {
            if let Some(s) = sold_amount(p, r) {
                rows.push(vec![
                    Symbol::value(&part_name(p)),
                    Symbol::value(&region_name(r)),
                    Symbol::value(&s.to_string()),
                ]);
            }
        }
    }
    Table::relational_syms(Symbol::name("Sales"), &attrs, &rows)
}

/// A scaled `SalesInfo2`-shaped cross-tab: one `Sold` column per region.
pub fn make_sales_info2(parts: usize, regions: usize) -> Table {
    let mut t = Table::new(Symbol::name("Sales"), parts + 1, regions + 1);
    t.set(0, 1, Symbol::name("Part"));
    for r in 0..regions {
        t.set(0, r + 2, Symbol::name("Sold"));
    }
    t.set(1, 0, Symbol::name("Region"));
    for r in 0..regions {
        t.set(1, r + 2, Symbol::value(&region_name(r)));
    }
    for p in 0..parts {
        t.set(p + 2, 1, Symbol::value(&part_name(p)));
        for r in 0..regions {
            if let Some(s) = sold_amount(p, r) {
                t.set(p + 2, r + 2, Symbol::value(&s.to_string()));
            }
        }
    }
    t
}

/// A scaled `SalesInfo4`-shaped database: one `Sales` table per region.
pub fn make_sales_info4(parts: usize, regions: usize) -> Database {
    let mut db = Database::new();
    for r in 0..regions {
        let region = Symbol::value(&region_name(r));
        let mut t = Table::new(Symbol::name("Sales"), 1, 2);
        t.set(0, 1, Symbol::name("Part"));
        t.set(0, 2, Symbol::name("Sold"));
        t.set(1, 0, Symbol::name("Region"));
        t.set(1, 1, region);
        t.set(1, 2, region);
        for p in 0..parts {
            if let Some(s) = sold_amount(p, r) {
                t.push_row(&[
                    Symbol::Null,
                    Symbol::value(&part_name(p)),
                    Symbol::value(&s.to_string()),
                ]);
            }
        }
        db.insert(t);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_dimensions() {
        assert_eq!(sales_relation().height(), 8);
        assert_eq!(sales_relation().width(), 3);
        assert!(sales_relation().is_relational());

        let info2 = sales_info2();
        let t = info2.table_str("Sales").unwrap();
        assert_eq!(t.width(), 5);
        assert_eq!(t.height(), 4);
        assert_eq!(t.cols_named(Symbol::name("Sold")).len(), 4);

        assert_eq!(sales_info4().len(), 4);
        assert_eq!(sales_info4_full().len(), 5);
    }

    #[test]
    fn info2_region_row_names_the_columns() {
        let info2 = sales_info2();
        let t = info2.table_str("Sales").unwrap();
        assert_eq!(t.get(1, 0), Symbol::name("Region"));
        assert_eq!(t.get(1, 2), Symbol::value("east"));
        assert!(t.get(1, 1).is_null());
    }

    #[test]
    fn info3_attributes_are_data() {
        let info3 = sales_info3();
        let t = info3.table_str("Sales").unwrap();
        assert!(t.col_attrs().iter().all(|a| a.is_value()));
        assert!(t.row_attrs().iter().all(|a| a.is_value()));
        // nuts/east = 50
        assert_eq!(t.get(1, 1), Symbol::value("50"));
    }

    #[test]
    fn full_versions_absorb_summaries() {
        let t2 = sales_info2_full();
        let t = t2.table_str("Sales").unwrap();
        assert_eq!(t.width(), 6);
        assert_eq!(t.height(), 5);
        // Grand total sits at the intersection of the Total row and column.
        assert_eq!(t.get(5, 6), Symbol::value("420"));
        assert_eq!(sales_info1_full().len(), 4);
        let t3 = sales_info3_full();
        assert_eq!(
            t3.table_str("Sales").unwrap().get(5, 4),
            Symbol::value("420")
        );
    }

    #[test]
    fn figure4_shape() {
        let g = figure4_grouped();
        assert_eq!(g.width(), 9); // Part + 8 × Sold
        assert_eq!(g.height(), 9); // Region row + 8 data rows
        assert_eq!(g.get(1, 0), Symbol::name("Region"));
        assert_eq!(g.cols_named(Symbol::name("Sold")).len(), 8);
        // Row i carries exactly one non-null Sold entry, in column i+1.
        for i in 2..=9 {
            let nonnull: Vec<usize> = (2..=9).filter(|&j| !g.get(i, j).is_null()).collect();
            assert_eq!(nonnull, vec![i], "row {i}");
        }
    }

    #[test]
    fn figure5_is_total_cross_product() {
        let m = figure5_merged();
        assert_eq!(m.height(), 12); // 3 parts × 4 regions
        assert_eq!(m.width(), 3);
        assert_eq!(
            m.col_attrs(),
            &[
                Symbol::name("Part"),
                Symbol::name("Region"),
                Symbol::name("Sold")
            ]
        );
    }

    #[test]
    fn generators_are_consistent_with_each_other() {
        let (p, r) = (5, 4);
        let rel = make_sales_relation(p, r);
        let info2 = make_sales_info2(p, r);
        let info4 = make_sales_info4(p, r);
        assert_eq!(info2.height(), p + 1);
        assert_eq!(info2.width(), r + 1);
        assert_eq!(info4.len(), r);
        // Every relational row appears as a non-null cell of info2.
        for i in 1..=rel.height() {
            let part = rel.get(i, 1);
            let region = rel.get(i, 2);
            let sold = rel.get(i, 3);
            let pi = (2..=info2.height())
                .find(|&x| info2.get(x, 1) == part)
                .unwrap();
            let rj = (2..=info2.width())
                .find(|&j| info2.get(1, j) == region)
                .unwrap();
            assert_eq!(info2.get(pi, rj), sold);
        }
        // Total sale count matches between rel and info4.
        let info4_rows: usize = info4.tables().iter().map(|t| t.height() - 1).sum();
        assert_eq!(info4_rows, rel.height());
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(make_sales_relation(7, 3), make_sales_relation(7, 3));
    }
}
