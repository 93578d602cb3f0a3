//! Dual operations (paper §3.3): "For each of the operations defined in
//! the tabular algebra, it is now possible to express in the tabular
//! algebra a dual operation obtained by interchanging the roles of rows
//! and columns" — realized uniformly as `transpose ∘ op ∘ transpose`.
//!
//! The duals are genuine additions to the user-facing algebra: column
//! selection, column projection, column-wise grouping, etc., all derived
//! rather than primitive, exactly as the paper prescribes.

use tabular_core::{Symbol, SymbolSet, Table};

/// Lift a table-to-table operation to its row/column dual.
pub fn dualize(r: &Table, name: Symbol, op: impl FnOnce(&Table) -> Table) -> Table {
    let flipped = r.transpose();
    let mut out = op(&flipped).transpose();
    out.set_name(name);
    out
}

/// Column selection: keep the data *columns* `j` with `ρʲ(a) ≗ ρʲ(b)`,
/// where `a`, `b` range over row attributes — the dual of
/// [`select`](super::select).
pub fn col_select(r: &Table, a: Symbol, b: Symbol, name: Symbol) -> Table {
    dualize(r, name, |t| super::select(t, a, b, name))
}

/// Column projection: keep the data rows whose row attribute lies in
/// `attrs` — the dual of [`project`](super::project).
pub fn col_project(r: &Table, attrs: &SymbolSet, name: Symbol) -> Table {
    dualize(r, name, |t| super::project(t, attrs, name))
}

/// Column-wise grouping — the dual of [`group`](super::group): groups
/// *columns* by the values in the rows named `by`, replicating the rows
/// named `on`.
pub fn col_group(r: &Table, by: &SymbolSet, on: &SymbolSet, name: Symbol) -> Table {
    dualize(r, name, |t| super::group(t, by, on, name))
}

/// Column-wise merging — the dual of [`merge`](super::merge).
pub fn col_merge(r: &Table, on: &SymbolSet, by: &SymbolSet, name: Symbol) -> Table {
    dualize(r, name, |t| super::merge(t, on, by, name))
}

/// Column-wise splitting — the dual of [`split`](super::split): one table
/// per distinct combination of entries in the rows named `on`.
pub fn col_split(r: &Table, on: &SymbolSet, name: Symbol) -> Vec<Table> {
    let flipped = r.transpose();
    super::split(&flipped, on, name)
        .into_iter()
        .map(|t| {
            let mut out = t.transpose();
            out.set_name(name);
            out
        })
        .collect()
}

/// Column-wise constant selection — the dual of
/// [`select_const`](super::select_const).
pub fn col_select_const(r: &Table, a: Symbol, v: Symbol, name: Symbol) -> Table {
    dualize(r, name, |t| super::select_const(t, a, v, name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use tabular_core::fixtures;

    fn nm(s: &str) -> Symbol {
        Symbol::name(s)
    }

    fn set(xs: &[&str]) -> SymbolSet {
        SymbolSet::from_iter(xs.iter().map(|x| nm(x)))
    }

    #[test]
    fn col_project_keeps_named_rows() {
        let info2 = fixtures::sales_info2();
        let t = info2.table_str("Sales").unwrap();
        // Keep only the Region header row.
        let out = col_project(t, &set(&["Region"]), nm("T"));
        assert_eq!(out.height(), 1);
        assert_eq!(out.width(), t.width());
        assert_eq!(out.get(1, 0), nm("Region"));
        assert_eq!(out.get(1, 2), Symbol::value("east"));
    }

    #[test]
    fn col_select_compares_rows() {
        let t = Table::from_grid(&[
            &["T", "A", "B", "C"],
            &["x", "1", "2", "3"],
            &["y", "1", "5", "3"],
        ])
        .unwrap();
        // Columns where the x-entry weakly equals the y-entry: A and C.
        let out = col_select(&t, nm("x"), nm("y"), nm("T"));
        assert_eq!(out.width(), 2);
        assert_eq!(out.col_attrs(), &[nm("A"), nm("C")]);
        assert_eq!(out.height(), 2);
    }

    #[test]
    fn col_select_const_picks_columns_by_entry() {
        let info2 = fixtures::sales_info2();
        let t = info2.table_str("Sales").unwrap();
        // Columns whose Region-row entry is east: exactly one Sold column.
        let out = col_select_const(t, nm("Region"), Symbol::value("east"), nm("T"));
        assert_eq!(out.width(), 1);
        assert_eq!(out.col_attr(1), nm("Sold"));
        assert_eq!(out.get(1, 1), Symbol::value("east"));
    }

    #[test]
    fn col_group_is_the_transposed_group() {
        let rel = fixtures::sales_relation().transpose();
        let by = set(&["Region"]);
        let on = set(&["Sold"]);
        let direct = col_group(&rel, &by, &on, nm("G"));
        let via = ops::group(&rel.transpose(), &by, &on, nm("G")).transpose();
        let mut via = via;
        via.set_name(nm("G"));
        assert_eq!(direct, via);
        // And it reproduces the transposed Figure 4.
        assert!(direct.equiv(&fixtures::figure4_grouped().transpose()));
    }

    #[test]
    fn col_merge_inverts_col_group_content() {
        let info2t = {
            let db = fixtures::sales_info2();
            db.table_str("Sales").unwrap().transpose()
        };
        let out = col_merge(&info2t, &set(&["Sold"]), &set(&["Region"]), nm("M"));
        assert!(out.equiv(&fixtures::figure5_merged().transpose()));
    }

    #[test]
    fn col_split_partitions_columns() {
        let t = fixtures::sales_relation().transpose();
        // Split on the Part *row*: the transposed analogue of SPLIT.
        let parts = col_split(&t, &set(&["Part"]), nm("S"));
        assert_eq!(parts.len(), 3); // nuts, screws, bolts
        for p in &parts {
            // The Part row is split away; Region and Sold rows remain, and
            // the split's header row arrives as a header *column*.
            assert_eq!(p.height(), 2);
            assert_eq!(p.col_attr(1), nm("Part"));
        }
    }

    #[test]
    fn dualize_composes_with_identity() {
        let t = fixtures::sales_relation();
        let out = dualize(&t, t.name(), |x| x.clone());
        assert_eq!(out, t);
    }
}
