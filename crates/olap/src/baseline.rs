//! Hand-coded pivot/unpivot baselines.
//!
//! The paper's claim for §4.3 is *expressiveness*: the tabular algebra can
//! serve as the restructuring language for OLAP. These purpose-built
//! implementations compute the same mappings directly on the matrix
//! representation; the `olap_pivot` benchmark compares them against the
//! algebraic [`crate::pivot`](mod@crate::pivot) programs to quantify what the generality
//! costs (ablation, DESIGN.md §6).

use crate::error::{OlapError, Result};
use tabular_core::{Symbol, Table};

/// Direct pivot: cross-tab `t` with one column per distinct `col_attr`
/// value, cells from `val_attr`, one row per distinct combination of the
/// remaining attributes. Produces the same shape as
/// [`crate::pivot::pivot`] (header row named by `col_attr`, all cross-tab
/// columns named `val_attr`).
pub fn pivot_direct(t: &Table, col_attr: Symbol, val_attr: Symbol) -> Result<Table> {
    let col_src = *t
        .cols_named(col_attr)
        .first()
        .ok_or(OlapError::MissingAttribute(col_attr))?;
    let val_src = *t
        .cols_named(val_attr)
        .first()
        .ok_or(OlapError::MissingAttribute(val_attr))?;
    let key_cols: Vec<usize> = (1..=t.width())
        .filter(|&j| j != col_src && j != val_src)
        .collect();

    // Distinct column members and row keys, in first-appearance order.
    let mut members: Vec<Symbol> = Vec::new();
    let mut keys: Vec<Vec<Symbol>> = Vec::new();
    for i in 1..=t.height() {
        let m = t.get(i, col_src);
        if !members.contains(&m) {
            members.push(m);
        }
        let key: Vec<Symbol> = key_cols.iter().map(|&j| t.get(i, j)).collect();
        if !keys.contains(&key) {
            keys.push(key);
        }
    }

    let width = key_cols.len() + members.len();
    let mut out = Table::new(t.name(), 0, width);
    for (k, &j) in key_cols.iter().enumerate() {
        out.set(0, k + 1, t.col_attr(j));
    }
    for k in 0..members.len() {
        out.set(0, key_cols.len() + k + 1, val_attr);
    }
    // Header row naming the members.
    let mut header = vec![Symbol::Null; width + 1];
    header[0] = col_attr;
    for (k, &m) in members.iter().enumerate() {
        header[key_cols.len() + k + 1] = m;
    }
    out.push_row(header);
    // One row per key.
    let mut grid: Vec<Vec<Symbol>> = keys
        .iter()
        .map(|key| {
            let mut row = vec![Symbol::Null; width + 1];
            for (k, v) in key.iter().enumerate() {
                row[k + 1] = *v;
            }
            row
        })
        .collect();
    for i in 1..=t.height() {
        let key: Vec<Symbol> = key_cols.iter().map(|&j| t.get(i, j)).collect();
        let r = keys.iter().position(|k| *k == key).expect("key collected");
        let c = members
            .iter()
            .position(|&m| m == t.get(i, col_src))
            .expect("member collected");
        grid[r][key_cols.len() + c + 1] = t.get(i, val_src);
    }
    for row in grid {
        out.push_row(row);
    }
    Ok(out)
}

/// Direct unpivot: inverse of [`pivot_direct`] — emit one row per non-⊥
/// cross-tab cell, with the header row's member under a new `col_attr`
/// column.
pub fn unpivot_direct(t: &Table, val_attr: Symbol, col_attr: Symbol) -> Result<Table> {
    let header_row = (1..=t.height())
        .find(|&i| t.get(i, 0) == col_attr)
        .ok_or(OlapError::MissingAttribute(col_attr))?;
    let val_cols: Vec<usize> = t.cols_named(val_attr);
    if val_cols.is_empty() {
        return Err(OlapError::MissingAttribute(val_attr));
    }
    let key_cols: Vec<usize> = (1..=t.width()).filter(|j| !val_cols.contains(j)).collect();

    let attrs: Vec<Symbol> = key_cols
        .iter()
        .map(|&j| t.col_attr(j))
        .chain([col_attr, val_attr])
        .collect();
    let mut rows: Vec<Vec<Symbol>> = Vec::new();
    for i in 1..=t.height() {
        if i == header_row {
            continue;
        }
        for &j in &val_cols {
            let v = t.get(i, j);
            if v.is_null() {
                continue;
            }
            let mut row: Vec<Symbol> = key_cols.iter().map(|&k| t.get(i, k)).collect();
            row.push(t.get(header_row, j));
            row.push(v);
            if !rows.contains(&row) {
                rows.push(row);
            }
        }
    }
    Ok(Table::relational_syms(t.name(), &attrs, &rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pivot::{pivot, unpivot};
    use tabular_algebra::Budget;
    use tabular_core::fixtures;

    fn nm(s: &str) -> Symbol {
        Symbol::name(s)
    }

    #[test]
    fn direct_pivot_matches_sales_info2() {
        let out = pivot_direct(&fixtures::sales_relation(), nm("Region"), nm("Sold")).unwrap();
        let info2 = fixtures::sales_info2();
        assert!(out.equiv(info2.table_str("Sales").unwrap()));
    }

    #[test]
    fn direct_and_algebraic_pivot_agree() {
        for (p, r) in [(4, 3), (12, 9)] {
            let rel = fixtures::make_sales_relation(p, r);
            let direct = pivot_direct(&rel, nm("Region"), nm("Sold")).unwrap();
            let algebraic = pivot(&rel, nm("Region"), nm("Sold"), &Budget::default()).unwrap();
            assert!(direct.equiv(&algebraic), "{p}×{r}");
        }
    }

    #[test]
    fn direct_and_algebraic_unpivot_agree() {
        let cross = fixtures::make_sales_info2(10, 6);
        let direct = unpivot_direct(&cross, nm("Sold"), nm("Region")).unwrap();
        let algebraic = unpivot(&cross, nm("Sold"), nm("Region"), &Budget::default()).unwrap();
        assert_eq!(direct.height(), algebraic.height());
        for i in 1..=direct.height() {
            let row: Vec<Symbol> = direct.data_row(i).to_vec();
            assert!(
                (1..=algebraic.height()).any(|k| {
                    let a = algebraic.data_row(k);
                    // Column order differs (keys…, col, val) vs merge
                    // order; compare as sets of the same three entries.
                    row.iter().all(|s| a.contains(s))
                }),
                "row {row:?} missing"
            );
        }
    }

    #[test]
    fn direct_round_trip() {
        let rel = fixtures::make_sales_relation(8, 5);
        let cross = pivot_direct(&rel, nm("Region"), nm("Sold")).unwrap();
        let back = unpivot_direct(&cross, nm("Sold"), nm("Region")).unwrap();
        assert_eq!(back.height(), rel.height());
    }

    #[test]
    fn unpivot_requires_header_row() {
        let rel = fixtures::sales_relation();
        assert!(matches!(
            unpivot_direct(&rel, nm("Sold"), nm("Region")),
            Err(OlapError::MissingAttribute(_))
        ));
    }
}
