//! Redundancy removal (paper §3.4): **clean-up** and its dual **purge**.
//!
//! `CLEAN-UP by 𝒜 on ℬ (R)` merges groups of data rows that agree on their
//! `𝒜`-subtuple (their entries under the columns named in `𝒜`) and whose
//! row attribute lies in `ℬ`, whenever all rows of a group are subsumed by
//! a common tuple; the group is then replaced by the *least* such tuple.
//! Clean-up generalizes duplicate-row elimination; purge is its
//! column-wise dual: by the duality principle (§3.3) it *is*
//! `transpose ∘ clean-up ∘ transpose`, but it is computed column-natively
//! (one row-major scan, no transposed copy), and the duality is the
//! oracle that pins it (`purge_is_the_transposed_cleanup` in the property
//! suite), not the execution plan. Classical union, union → purge →
//! clean-up, inherits the single scan.
//!
//! Deterministic refinement (documented in DESIGN.md): the least common
//! subsuming tuple is computed as the componentwise informational join
//! (⊥ ⊔ v = v); if any component has two distinct non-⊥ entries the group
//! has no join and the original rows are retained, exactly as the paper
//! prescribes for groups without a common subsumer. Groups are keyed by
//! (row attribute, 𝒜-subtuple), so rows with different row attributes are
//! never merged.

use tabular_core::{Symbol, SymbolSet, Table};

/// `T ← CLEAN-UP by 𝒜 on ℬ (R)`. `by` names grouping *column* attributes,
/// `on` names participating *row* attributes (⊥ included via
/// `SymbolSet::from_iter([Symbol::Null])`).
#[allow(clippy::needless_range_loop)] // rows are addressed by table index throughout
pub fn cleanup(r: &Table, by: &SymbolSet, on: &SymbolSet, name: Symbol) -> Table {
    let by_cols = r.cols_in(by);

    // Group participating rows by (row attribute, 𝒜-subtuple); remember
    // the position of each group's first member so replacement is stable.
    struct Group {
        first_row: usize,
        rows: Vec<usize>,
    }
    let mut keys: std::collections::HashMap<Vec<Symbol>, usize> = std::collections::HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    let mut group_of_row: Vec<Option<usize>> = vec![None; r.height() + 1];

    for i in 1..=r.height() {
        if !on.contains(r.get(i, 0)) {
            continue;
        }
        let mut key = Vec::with_capacity(by_cols.len() + 1);
        key.push(r.get(i, 0));
        key.extend(by_cols.iter().map(|&j| r.get(i, j)));
        let g = match keys.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let g = *e.get();
                groups[g].rows.push(i);
                g
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                groups.push(Group {
                    first_row: i,
                    rows: vec![i],
                });
                *e.insert(groups.len() - 1)
            }
        };
        group_of_row[i] = Some(g);
    }

    // Componentwise join per group of two or more rows (`None`: the
    // group keeps its rows, a singleton or one without a join).
    let joined: Vec<Option<Vec<Symbol>>> = groups
        .iter()
        .map(|g| {
            if g.rows.len() < 2 {
                return None;
            }
            let mut acc = r.storage_row(g.rows[0]).to_vec();
            for &i in &g.rows[1..] {
                for (a, &b) in acc.iter_mut().zip(r.storage_row(i)) {
                    match a.join(b) {
                        Some(j) => *a = j,
                        None => return None,
                    }
                }
            }
            Some(acc)
        })
        .collect();

    if joined.iter().all(Option::is_none) {
        return renamed(r, name);
    }

    let mut header = r.storage_row(0).to_vec();
    header[0] = name;
    let mut t = Table::from_parts(0, r.width(), header);
    t.append_rows(|rows| {
        for i in 1..=r.height() {
            match group_of_row[i] {
                None => rows.push_row(r.storage_row(i)),
                Some(g) => match &joined[g] {
                    // Merged group: emit the join at the first member's slot.
                    Some(join) => {
                        if groups[g].first_row == i {
                            rows.push_row(join);
                        }
                    }
                    // No common subsumer: retain the original rows.
                    None => rows.push_row(r.storage_row(i)),
                },
            }
        }
    });
    t
}

/// `T ← PURGE on ℬ by 𝒜 (R)` — the dual of clean-up (paper §3.4), merging
/// *columns* instead of rows: columns whose attribute lies in `on` and
/// that agree on their entries in the rows whose row attribute lies in
/// `by` are replaced by their join when it exists.
///
/// Column-native: the result is exactly `transpose ∘ clean-up ∘
/// transpose` (the duality of §3.3, which the property suite keeps as
/// the oracle), computed without materializing either transposed copy.
/// Participating columns are grouped by (column attribute, entries in
/// the `by` rows); the groups with more than one member are joined
/// componentwise in one row-major scan; each merged column is emitted at
/// its first member's position, and a group whose join conflicts keeps
/// its original columns.
pub fn purge(r: &Table, on: &SymbolSet, by: &SymbolSet, name: Symbol) -> Table {
    let cols = r.cols_in(on);
    let by_rows = r.rows_in(by);

    // Each participating column's key, flat: its attribute, then its
    // entries in the `by` rows.
    let k = by_rows.len() + 1;
    let keys: Vec<Symbol> = cols
        .iter()
        .flat_map(|&j| {
            std::iter::once(r.col_attr(j)).chain(by_rows.iter().map(move |&i| r.get(i, j)))
        })
        .collect();
    let mut group_of_key: std::collections::HashMap<&[Symbol], usize> =
        std::collections::HashMap::with_capacity(cols.len());
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (c, key) in keys.chunks_exact(k).enumerate() {
        let g = *group_of_key.entry(key).or_insert_with(|| {
            members.push(Vec::new());
            members.len() - 1
        });
        members[g].push(cols[c]);
    }

    // Join every multi-member group in one row-major scan: `acc` holds
    // one accumulator column per merging group, row-major.
    let merging: Vec<&Vec<usize>> = members.iter().filter(|m| m.len() > 1).collect();
    let slots = merging.len();
    let mut slot_of_col: Vec<Option<usize>> = vec![None; r.width() + 1];
    for (m, cols) in merging.iter().enumerate() {
        for &j in cols.iter() {
            slot_of_col[j] = Some(m);
        }
    }
    let scan: Vec<(usize, usize)> = (1..=r.width())
        .filter_map(|j| slot_of_col[j].map(|m| (j, m)))
        .collect();
    let mut acc = vec![Symbol::Null; (r.height() + 1) * slots];
    let mut joins = vec![true; slots];
    for i in 0..=r.height() {
        let row = r.storage_row(i);
        let acc_row = &mut acc[i * slots..(i + 1) * slots];
        for &(j, m) in &scan {
            // `Symbol::join`, with ⊥ (most cells of a grouped table)
            // skipped first.
            let cell = row[j];
            if cell.is_null() {
                continue;
            }
            let slot = &mut acc_row[m];
            if slot.is_null() {
                *slot = cell;
            } else if *slot != cell {
                joins[m] = false;
            }
        }
    }

    if !joins.contains(&true) {
        return renamed(r, name);
    }

    // Output columns: untouched and conflicting columns as they are, a
    // merged group once, at its first member.
    enum Src {
        Col(usize),
        Merged(usize),
    }
    let out: Vec<Src> = (1..=r.width())
        .filter_map(|j| match slot_of_col[j] {
            Some(m) if joins[m] => (merging[m][0] == j).then_some(Src::Merged(m)),
            _ => Some(Src::Col(j)),
        })
        .collect();
    let mut cells = Vec::with_capacity((r.height() + 1) * (out.len() + 1));
    for i in 0..=r.height() {
        let row = r.storage_row(i);
        cells.push(if i == 0 { name } else { row[0] });
        cells.extend(out.iter().map(|src| match *src {
            Src::Col(j) => row[j],
            Src::Merged(m) => acc[i * slots + m],
        }));
    }
    Table::from_parts(r.height(), out.len(), cells)
}

/// `r` under `name`, for a redundancy removal that merges nothing: the
/// result shares `r`'s cell buffer unless the name differs.
fn renamed(r: &Table, name: Symbol) -> Table {
    let mut t = r.clone();
    if t.name() != name {
        t.set_name(name);
    }
    t
}

/// Classical (duplicate-free, scheme-respecting) union of two tables
/// representing union-compatible relations: tabular union, then purge to
/// eliminate the redundant column block, then clean-up to eliminate
/// duplicate rows (paper §3.4, last paragraph).
pub fn classical_union(r: &Table, s: &Table, name: Symbol) -> Table {
    let u = super::traditional::union(r, s, name);
    let purged = purge(&u, &u.scheme(), &SymbolSet::new(), name);
    cleanup(&purged, &purged.scheme(), &purged.row_scheme(), name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::restructure::group;
    use tabular_core::fixtures;

    fn nm(x: &str) -> Symbol {
        Symbol::name(x)
    }

    fn set(xs: &[&str]) -> SymbolSet {
        SymbolSet::from_iter(xs.iter().map(|x| nm(x)))
    }

    fn null_set() -> SymbolSet {
        SymbolSet::from_iter([Symbol::Null])
    }

    /// The paper's §3.4 walk-through: clean-up by Part on ⊥ applied to the
    /// Figure 4 result groups the information per part into one row each;
    /// purge on Sold by Region then recovers the bold SalesInfo2 table.
    #[test]
    fn cleanup_then_purge_recovers_sales_info2() {
        let grouped = fixtures::figure4_grouped();
        let cleaned = cleanup(&grouped, &set(&["Part"]), &null_set(), nm("Sales"));
        // Region header row + one row per part.
        assert_eq!(cleaned.height(), 4);
        let purged = purge(&cleaned, &set(&["Sold"]), &set(&["Region"]), nm("Sales"));
        let info2 = fixtures::sales_info2();
        let expected = info2.table_str("Sales").unwrap();
        assert!(
            purged.equiv(expected),
            "purge mismatch:\n{purged}\nexpected:\n{expected}"
        );
    }

    #[test]
    fn cleanup_is_duplicate_elimination_on_relations() {
        let t = Table::relational("R", &["A", "B"], &[&["1", "2"], &["1", "2"], &["3", "4"]]);
        let c = cleanup(&t, &t.scheme(), &null_set(), nm("R"));
        assert_eq!(c.height(), 2);
    }

    #[test]
    fn cleanup_retains_groups_without_common_subsumer() {
        // Two rows agree on A but conflict on B: no join, keep both.
        let t = Table::from_grid(&[&["R", "A", "B"], &["_", "1", "2"], &["_", "1", "3"]]).unwrap();
        let c = cleanup(&t, &set(&["A"]), &null_set(), nm("R"));
        assert_eq!(c.height(), 2);
    }

    #[test]
    fn cleanup_joins_complementary_rows() {
        let t = Table::from_grid(&[
            &["R", "A", "B", "C"],
            &["_", "1", "2", "_"],
            &["_", "1", "_", "3"],
        ])
        .unwrap();
        let c = cleanup(&t, &set(&["A"]), &null_set(), nm("R"));
        assert_eq!(c.height(), 1);
        assert_eq!(
            c.data_row(1),
            &[Symbol::value("1"), Symbol::value("2"), Symbol::value("3")]
        );
    }

    #[test]
    fn cleanup_leaves_rows_outside_on_untouched() {
        let grouped = fixtures::figure4_grouped();
        let cleaned = cleanup(&grouped, &set(&["Part"]), &null_set(), nm("Sales"));
        // The Region header row (row attribute Region ∉ {⊥}) survives as-is.
        assert_eq!(cleaned.get(1, 0), nm("Region"));
        assert_eq!(cleaned.get(1, 2), Symbol::value("east"));
    }

    #[test]
    fn cleanup_never_merges_across_row_attributes() {
        let t = Table::from_grid(&[&["R", "A", "B"], &["x", "1", "2"], &["y", "1", "_"]]).unwrap();
        let c = cleanup(
            &t,
            &set(&["A"]),
            &SymbolSet::from_iter([nm("x"), nm("y")]),
            nm("R"),
        );
        assert_eq!(c.height(), 2);
    }

    #[test]
    fn cleanup_is_idempotent() {
        let grouped = group(
            &fixtures::sales_relation(),
            &set(&["Region"]),
            &set(&["Sold"]),
            nm("Sales"),
        );
        let once = cleanup(&grouped, &set(&["Part"]), &null_set(), nm("Sales"));
        let twice = cleanup(&once, &set(&["Part"]), &null_set(), nm("Sales"));
        assert_eq!(once, twice);
    }

    #[test]
    fn merged_row_subsumes_every_group_member() {
        let grouped = fixtures::figure4_grouped();
        let cleaned = cleanup(&grouped, &set(&["Part"]), &null_set(), nm("Sales"));
        for i in 1..=grouped.height() {
            if grouped.get(i, 0) != Symbol::Null {
                continue;
            }
            assert!(
                (1..=cleaned.height()).any(|k| grouped.row_subsumed_by(i, &cleaned, k)),
                "row {i} of the input is not subsumed in the output"
            );
        }
    }

    #[test]
    fn purge_merges_duplicate_columns_by_attribute() {
        // The union of two one-column tables has two A columns with
        // complementary ⊥ patterns; purging with empty `by` joins them.
        let a = Table::relational("R", &["A"], &[&["1"]]);
        let b = Table::relational("S", &["A"], &[&["2"]]);
        let u = crate::ops::traditional::union(&a, &b, nm("T"));
        assert_eq!(u.width(), 2);
        let p = purge(&u, &u.scheme(), &SymbolSet::new(), nm("T"));
        assert_eq!(p.width(), 1);
        assert_eq!(p.height(), 2);
    }

    #[test]
    fn classical_union_on_relations() {
        let a = Table::relational("R", &["A", "B"], &[&["1", "2"], &["3", "4"]]);
        let b = Table::relational("S", &["A", "B"], &[&["1", "2"], &["5", "6"]]);
        let u = classical_union(&a, &b, nm("T"));
        assert_eq!(u.width(), 2);
        assert_eq!(u.height(), 3);
        assert!(u.is_relational());
    }

    #[test]
    fn classical_union_is_commutative_up_to_permutation() {
        let a = Table::relational("R", &["A"], &[&["1"]]);
        let b = Table::relational("S", &["A"], &[&["2"]]);
        let u1 = classical_union(&a, &b, nm("T"));
        let u2 = classical_union(&b, &a, nm("T"));
        assert!(u1.equiv(&u2));
    }
}
