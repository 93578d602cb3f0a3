//! The restructuring operations (paper §3.2): **group** / **merge** and
//! **split** / **collapse**, two pairs of mutual inverses (up to the
//! redundancy-removal operations of §3.4).
//!
//! The extended abstract defines these by worked example (Figures 4 and 5,
//! SalesInfo4) and defers the formal definitions to the unavailable
//! technical report; the generalizations implemented here reproduce every
//! example exactly and are validated by the inverse-pair property tests.

use super::row_index::RowIndex;
use crate::error::{AlgebraError, Result};
use tabular_core::{Symbol, SymbolSet, Table};

/// `T ← GROUP by 𝒜 on ℬ (R)` (Figure 4).
///
/// * `by` — the grouping attributes (e.g. `Region`);
/// * `on` — the grouped attributes (e.g. `Sold`).
///
/// The attribute row keeps the columns outside `by ∪ on` and gains one copy
/// of the `on`-columns' attributes per data row of `ρ`. For each attribute
/// `a ∈ by` (taking the leftmost column named `a` when repeated) a header
/// row with row attribute `a` is added, carrying `ρᵢ(a)` under the `i`-th
/// copy block. Original data row `i` contributes its `on`-entries under
/// copy block `i`, everything else ⊥.
pub fn group(r: &Table, by: &SymbolSet, on: &SymbolSet, name: Symbol) -> Table {
    let grouped = by.union(on);
    let c_cols = r.cols_not_in(&grouped);
    let b_cols = r.cols_in(on);
    let m = r.height();
    let width = c_cols.len() + m * b_cols.len();

    // One header row per grouping attribute, leftmost occurrence first.
    let mut seen = SymbolSet::new();
    let mut headers = Vec::new();
    for j in r.cols_in(by) {
        let a = r.col_attr(j);
        if !seen.contains(a) {
            seen.insert(a);
            headers.push((a, j));
        }
    }

    // The whole output in one row-major buffer.
    let blank = |n: usize| std::iter::repeat_n(Symbol::Null, n);
    let mut cells = Vec::with_capacity((headers.len() + m + 1) * (width + 1));
    // Attribute row: C attributes, then m copies of the on-attributes.
    cells.push(name);
    cells.extend(c_cols.iter().map(|&j| r.col_attr(j)));
    for _ in 0..m {
        cells.extend(b_cols.iter().map(|&j| r.col_attr(j)));
    }
    // Header rows: ρᵢ(a) repeated across copy block i.
    for &(a, j) in &headers {
        cells.push(a);
        cells.extend(blank(c_cols.len()));
        for i in 1..=m {
            cells.extend(std::iter::repeat_n(r.get(i, j), b_cols.len()));
        }
    }
    // Data rows: C entries plus the on-entries in this row's own block.
    for i in 1..=m {
        let row = r.storage_row(i);
        cells.push(row[0]);
        cells.extend(c_cols.iter().map(|&j| row[j]));
        cells.extend(blank((i - 1) * b_cols.len()));
        cells.extend(b_cols.iter().map(|&j| row[j]));
        cells.extend(blank((m - i) * b_cols.len()));
    }
    Table::from_parts(headers.len() + m, width, cells)
}

/// `T ← MERGE on ℬ by 𝒜 (R)` (Figure 5) — the inverse of grouping.
///
/// * `on` — the data attributes to merge (e.g. `Sold`);
/// * `by` — the *row* attributes of the header rows naming the copies
///   (e.g. `Region`).
///
/// The `on`-columns are grouped into *blocks* by their header tuples (their
/// entries in the `by`-rows). Each data row of `ρ` outside the header rows
/// produces, per block, rows carrying: its non-`on` entries, the block's
/// header tuple under new columns named by the header rows' row
/// attributes, and the block's `on`-entries under one column per distinct
/// `on`-attribute. Blocks containing several columns with the *same*
/// attribute (as arises when merging a grouped table, Figure 4 → Figure 5
/// discussion) emit one row per repetition, which is what makes the result
/// "even more uneconomical" yet information-preserving.
pub fn merge(r: &Table, on: &SymbolSet, by: &SymbolSet, name: Symbol) -> Table {
    let a_rows = r.rows_in(by);
    let b_cols = r.cols_in(on);
    let c_cols = r.cols_not_in(on);

    // Distinct on-attributes in order of first occurrence, and each
    // on-column's position among them.
    let mut b_attrs: Vec<Symbol> = Vec::new();
    let attr_of: Vec<usize> = b_cols
        .iter()
        .map(|&j| {
            let a = r.col_attr(j);
            b_attrs.iter().position(|&b| b == a).unwrap_or_else(|| {
                b_attrs.push(a);
                b_attrs.len() - 1
            })
        })
        .collect();

    // Group the on-columns into blocks by header tuple, in order of first
    // occurrence; within a block, bucket the columns per on-attribute.
    let mut headers = RowIndex::new(a_rows.len(), b_cols.len());
    let mut header = Vec::with_capacity(a_rows.len());
    let mut blocks: Vec<Vec<Vec<usize>>> = Vec::new();
    for (&j, &k) in b_cols.iter().zip(&attr_of) {
        header.clear();
        header.extend(a_rows.iter().map(|&i| r.get(i, j)));
        let (b, added) = headers.insert(&header);
        if added {
            blocks.push(vec![Vec::new(); b_attrs.len()]);
        }
        blocks[b][k].push(j);
    }
    let reps: Vec<usize> = blocks
        .iter()
        .map(|per_attr| per_attr.iter().map(Vec::len).max().unwrap_or(0).max(1))
        .collect();

    let data_rows = r.rows_not_in(by);
    let width = c_cols.len() + a_rows.len() + b_attrs.len();
    let height = data_rows.len() * reps.iter().sum::<usize>();
    let mut cells = Vec::with_capacity((height + 1) * (width + 1));
    cells.push(name);
    cells.extend(c_cols.iter().map(|&j| r.col_attr(j)));
    cells.extend(a_rows.iter().map(|&i| r.get(i, 0)));
    cells.extend_from_slice(&b_attrs);
    for &i in &data_rows {
        for (b, per_attr) in blocks.iter().enumerate() {
            for rep in 0..reps[b] {
                cells.push(r.get(i, 0));
                cells.extend(c_cols.iter().map(|&j| r.get(i, j)));
                cells.extend_from_slice(headers.row(b));
                cells.extend(
                    per_attr
                        .iter()
                        .map(|cols| cols.get(rep).map_or(Symbol::Null, |&j| r.get(i, j))),
                );
            }
        }
    }
    Table::from_parts(height, width, cells)
}

/// `T ← SPLIT on 𝒜 (R)`: one table per distinct combination of values
/// under the `on`-columns (SalesInfo4 in Figure 1).
///
/// Each output table drops the `on`-columns, gains one header row per
/// `on`-column — row attribute the column's *attribute name*, every entry
/// the combination's value — and keeps the matching data rows projected
/// onto the remaining columns. All outputs carry the name `name`; their
/// number depends on the instance.
pub fn split(r: &Table, on: &SymbolSet, name: Symbol) -> Vec<Table> {
    let a_cols = r.cols_in(on);
    let rest = r.cols_not_in(on);
    let stride = rest.len() + 1;

    // One buffer per combination, in first-occurrence order: the header
    // rows are written when the combination first appears, each data row
    // is appended to its combination's buffer, and the height is counted
    // alongside.
    let mut combos = RowIndex::new(a_cols.len(), r.height());
    let mut outputs: Vec<(usize, Vec<Symbol>)> = Vec::new();
    let mut key: Vec<Symbol> = Vec::with_capacity(a_cols.len());
    for i in 1..=r.height() {
        key.clear();
        key.extend(a_cols.iter().map(|&j| r.get(i, j)));
        let (g, added) = combos.insert(&key);
        if added {
            let mut cells = Vec::with_capacity((a_cols.len() + 2) * stride);
            cells.push(name);
            cells.extend(rest.iter().map(|&j| r.col_attr(j)));
            for (&j, &v) in a_cols.iter().zip(&key) {
                cells.push(r.col_attr(j));
                cells.extend(std::iter::repeat_n(v, rest.len()));
            }
            outputs.push((a_cols.len(), cells));
        }
        let (height, cells) = &mut outputs[g];
        cells.push(r.get(i, 0));
        cells.extend(rest.iter().map(|&j| r.get(i, j)));
        *height += 1;
    }
    outputs
        .into_iter()
        .map(|(height, cells)| Table::from_parts(height, rest.len(), cells))
        .collect()
}

/// `T ← COLLAPSE by 𝒜 (R)` — the inverse of splitting (paper §3.2): every
/// table named `R` is merged *on all the attributes of its scheme* by `𝒜`,
/// and the results are combined by tabular union (§3.1). The redundancy
/// left by the union (one column block per input table) is removed by
/// purge + clean-up, per the paper's discussion.
pub fn collapse(tables: &[&Table], by: &SymbolSet, name: Symbol) -> Table {
    let mut acc: Option<Table> = None;
    for t in tables {
        let merged = merge(t, &t.scheme(), by, name);
        acc = Some(match acc {
            None => merged,
            Some(prev) => super::traditional::union(&prev, &merged, name),
        });
    }
    acc.unwrap_or_else(|| Table::new(name, 0, 0))
}

/// Guard used by `set-new` (and reusable by other combinatorial ops): fail
/// with [`AlgebraError::LimitExceeded`] rather than materializing more than
/// `limit` rows.
pub fn check_rows(what: &'static str, attempted: usize, limit: usize) -> Result<()> {
    if attempted > limit {
        Err(AlgebraError::LimitExceeded {
            what,
            limit,
            attempted,
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular_core::fixtures;

    fn nm(x: &str) -> Symbol {
        Symbol::name(x)
    }

    fn set(xs: &[&str]) -> SymbolSet {
        SymbolSet::from_iter(xs.iter().map(|x| nm(x)))
    }

    #[test]
    fn group_reproduces_figure_4_exactly() {
        let out = group(
            &fixtures::sales_relation(),
            &set(&["Region"]),
            &set(&["Sold"]),
            nm("Sales"),
        );
        assert_eq!(out, fixtures::figure4_grouped());
    }

    #[test]
    fn merge_reproduces_figure_5_exactly() {
        let info2 = fixtures::sales_info2();
        let out = merge(
            info2.table_str("Sales").unwrap(),
            &set(&["Sold"]),
            &set(&["Region"]),
            nm("Sales"),
        );
        assert_eq!(out, fixtures::figure5_merged());
    }

    #[test]
    fn merge_of_grouped_table_is_uneconomical_but_complete() {
        // Paper: applying the merge to Figure 4 (bottom) "yields a
        // representation of the table top, but which is even more
        // uneconomical".
        let out = merge(
            &fixtures::figure4_grouped(),
            &set(&["Sold"]),
            &set(&["Region"]),
            nm("Sales"),
        );
        // 8 data rows × 4 region blocks × 2 repetitions.
        assert_eq!(out.height(), 64);
        // Every original tuple appears.
        let rel = fixtures::sales_relation();
        for i in 1..=rel.height() {
            let want: Vec<Symbol> = vec![Symbol::Null, rel.get(i, 1), rel.get(i, 2), rel.get(i, 3)];
            assert!(
                (1..=out.height()).any(|k| out.storage_row(k) == want.as_slice()),
                "missing tuple {want:?}"
            );
        }
    }

    #[test]
    fn split_reproduces_sales_info4() {
        let outs = split(&fixtures::sales_relation(), &set(&["Region"]), nm("Sales"));
        let got = tabular_core::Database::from_tables(outs);
        assert!(
            got.equiv(&fixtures::sales_info4()),
            "split mismatch:\n{got}"
        );
    }

    #[test]
    fn split_groups_duplicate_combinations() {
        let t = Table::relational("R", &["A", "B"], &[&["x", "1"], &["y", "2"], &["x", "3"]]);
        let outs = split(&t, &set(&["A"]), nm("R"));
        assert_eq!(outs.len(), 2);
        let x_table = outs
            .iter()
            .find(|o| o.get(1, 1) == Symbol::value("x"))
            .unwrap();
        assert_eq!(x_table.height(), 3); // header + 2 data rows
    }

    #[test]
    fn split_on_multiple_attributes() {
        let t = fixtures::sales_relation();
        let outs = split(&t, &set(&["Part", "Region"]), nm("Sales"));
        assert_eq!(outs.len(), 8); // all (part, region) pairs distinct
        let first = &outs[0];
        assert_eq!(first.height(), 3); // two header rows + one data row
        assert_eq!(first.width(), 1); // only Sold remains
        assert_eq!(first.get(1, 0), nm("Part"));
        assert_eq!(first.get(2, 0), nm("Region"));
    }

    #[test]
    fn collapse_inverts_split_up_to_redundancy() {
        use crate::ops::redundancy::{cleanup, purge};
        let rel = fixtures::sales_relation();
        let parts = split(&rel, &set(&["Region"]), nm("Sales"));
        let refs: Vec<&Table> = parts.iter().collect();
        let collapsed = collapse(&refs, &SymbolSet::from_iter([nm("Region")]), nm("Sales"));
        // Remove the union redundancy: purge the per-table column blocks
        // (grouping columns by attribute alone: empty `by`), then clean up
        // duplicate rows.
        let all_attrs = collapsed.scheme();
        let purged = purge(&collapsed, &all_attrs, &SymbolSet::new(), nm("Sales"));
        let cleaned = cleanup(&purged, &purged.scheme(), &purged.row_scheme(), nm("Sales"));
        // Same tuples as the original relation (column order may differ:
        // Region lands after Part/Sold blocks are merged).
        assert_eq!(cleaned.height(), rel.height());
        for i in 1..=rel.height() {
            let tuple: Vec<Symbol> = (1..=3).map(|j| rel.get(i, j)).collect();
            assert!(
                (1..=cleaned.height()).any(|k| {
                    let row: SymbolSet = cleaned.data_row(k).iter().copied().collect();
                    tuple.iter().all(|s| row.contains(*s))
                }),
                "tuple {tuple:?} missing from collapsed result\n{cleaned}"
            );
        }
    }

    #[test]
    fn group_with_empty_by_set_still_replicates() {
        let rel = Table::relational("R", &["A", "B"], &[&["1", "2"], &["3", "4"]]);
        let g = group(&rel, &SymbolSet::new(), &set(&["B"]), nm("T"));
        // No header rows, A column + 2 copies of B.
        assert_eq!(g.width(), 3);
        assert_eq!(g.height(), 2);
    }

    #[test]
    fn group_on_missing_attribute_degenerates_gracefully() {
        let rel = Table::relational("R", &["A"], &[&["1"]]);
        let g = group(&rel, &set(&["Z"]), &set(&["Y"]), nm("T"));
        assert_eq!(g.width(), 1); // just A
        assert_eq!(g.height(), 1); // the single data row, no header rows
    }

    #[test]
    fn merge_with_no_header_rows_keeps_single_block() {
        let rel = Table::relational("R", &["A", "B"], &[&["1", "2"]]);
        let m = merge(&rel, &set(&["B"]), &set(&["Region"]), nm("T"));
        // No header rows → all B columns share the empty header tuple.
        assert_eq!(m.width(), 2); // A + B
        assert_eq!(m.height(), 1);
        assert_eq!(m.get(1, 2), Symbol::value("2"));
    }

    #[test]
    fn check_rows_guard() {
        assert!(check_rows("x", 5, 10).is_ok());
        assert!(check_rows("x", 11, 10).is_err());
    }
}
