//! An OLAP session on a synthetic sales workload (paper §4.3): cube
//! construction, roll-ups, slicing, classification, and a pivoted report
//! with absorbed totals — all grounded in the tabular model.
//!
//! ```sh
//! cargo run --example olap_report
//! ```

use tables_paradigm::prelude::*;

fn main() {
    // A deterministic scaled-up SalesInfo1: 12 parts × 6 regions, ~75%
    // of the pairs have a sale.
    let facts = fixtures::make_sales_relation(12, 6);
    println!(
        "Fact table: {} rows over attributes {:?}",
        facts.height(),
        facts
            .col_attrs()
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
    );

    // ------------------------------------------------------------------
    // Cube + roll-ups.
    // ------------------------------------------------------------------
    let cube = Cube::from_table(
        &facts,
        &[Symbol::name("Region"), Symbol::name("Part")],
        Symbol::name("Sold"),
        Agg::Sum,
    )
    .unwrap();
    println!(
        "Cube: {} × {} cells",
        cube.dims()[0].members.len(),
        cube.dims()[1].members.len()
    );

    let by_region = cube.rollup(1, Agg::Sum);
    println!("\nSales per region (roll-up over parts):");
    for (i, region) in by_region.dims()[0].members.iter().enumerate() {
        let total = by_region.get(&[i]).unwrap_or(0.0);
        println!("  {region:<12} {total:>8}");
    }
    println!("Grand total: {}", cube.grand_total(Agg::Sum).unwrap_or(0.0));

    // Summaries as relations (the SalesInfo1 summary tables).
    let per_part = summarize(
        &facts,
        &[Symbol::name("Part")],
        Symbol::name("Sold"),
        Agg::Sum,
        "TotalPartSales",
        "Total",
    )
    .unwrap();
    println!("\nTotalPartSales ({} rows), first rows:", per_part.height());
    let preview = per_part.retain_rows(|i| i <= 3);
    println!("{preview}");

    // ------------------------------------------------------------------
    // Classification (the paper's announced future-work operation).
    // ------------------------------------------------------------------
    let classifier = tabular_olap::Classifier::quantiles(
        &facts,
        Symbol::name("Sold"),
        3,
        &["low", "mid", "high"],
    )
    .unwrap();
    let classified = tabular_olap::classify::classify_table(
        &facts,
        Symbol::name("Sold"),
        &classifier,
        Symbol::name("Band"),
    )
    .unwrap();

    // ------------------------------------------------------------------
    // The pivoted report: parts × regions cross-tab with totals, computed
    // by a tabular algebra program.
    // ------------------------------------------------------------------
    let cross = pivot(
        &facts,
        Symbol::name("Region"),
        Symbol::name("Sold"),
        &Budget::default(),
    )
    .unwrap();
    let report = add_totals(
        &cross,
        &[Symbol::name("Region")],
        &[Symbol::name("Part")],
        Agg::Sum,
    )
    .unwrap();
    println!("Cross-tab report with totals (first columns):");
    let slim = report.select_cols(&(1..=report.width().min(6)).collect::<Vec<_>>());
    println!("{slim}");

    // Cross-check: the report's grand total equals the cube's.
    let corner = report.get(report.height(), report.width());
    let expected = cube.grand_total(Agg::Sum).unwrap();
    assert_eq!(corner, Symbol::value(&format!("{}", expected as i64)));

    // Band × region cross-tab over the classified data.
    let band_cross = pivot(
        &classified.select_cols(&[2, 3, 4]), // Region, Sold, Band
        Symbol::name("Band"),
        Symbol::name("Sold"),
        &Budget::default(),
    )
    .unwrap();
    println!("Bands cross-tab (region rows preserved implicitly):\n{band_cross}");

    println!("OLAP report complete; totals verified against the cube ✓");
}
