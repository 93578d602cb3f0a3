//! Redundancy removal (paper §3.4): **clean-up** and its dual **purge**,
//! and classical union built from them.
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
//! suite), not the execution plan. Both find their groups with the
//! algebra's one row index (`ops::row_index`): clean-up keys rows, purge
//! keys columns by their attribute and `by`-entries. Classical union is
//! union → purge → clean-up, except on operands with the same
//! pairwise-distinct column attributes, where it is first-occurrence
//! deduplication of storage rows ([`classical_union`] gives the argument).
//!
//! Deterministic refinement (documented in DESIGN.md): the least common
//! subsuming tuple is computed as the componentwise informational join
//! (⊥ ⊔ v = v); if any component has two distinct non-⊥ entries the group
//! has no join and the original rows are retained, exactly as the paper
//! prescribes for groups without a common subsumer. Groups are keyed by
//! (row attribute, 𝒜-subtuple), so rows with different row attributes are
//! never merged.

use super::row_index::RowIndex;
use super::traditional::{aligned_distinct_schemes, union};
use tabular_core::{Symbol, SymbolSet, Table};

/// `T ← CLEAN-UP by 𝒜 on ℬ (R)`. `by` names grouping *column* attributes,
/// `on` names participating *row* attributes (⊥ included via
/// `SymbolSet::from_iter([Symbol::Null])`).
pub fn cleanup(r: &Table, by: &SymbolSet, on: &SymbolSet, name: Symbol) -> Table {
    let (group_of, groups) = cleanup_groups(r, &r.cols_in(by), on);
    let mut size = vec![0usize; groups];
    for &g in &group_of {
        size[g] += 1;
    }
    if size.iter().all(|&n| n < 2) {
        return renamed(r, name);
    }
    // One accumulator row per group of two or more rows: a copy of its
    // first member, joined componentwise with the others; a conflict
    // leaves the group's rows as they are.
    let mut slot = vec![None; groups];
    let mut slots = 0;
    for (g, &n) in size.iter().enumerate() {
        if n > 1 {
            slot[g] = Some(slots);
            slots += 1;
        }
    }
    let stride = r.width() + 1;
    let mut acc = vec![Symbol::Null; slots * stride];
    let mut joins = vec![true; slots];
    let mut started = 0;
    for (i, &g) in (1..).zip(&group_of) {
        let first = g == started;
        started += usize::from(first);
        let Some(m) = slot[g] else { continue };
        let acc = &mut acc[m * stride..(m + 1) * stride];
        if first {
            acc.copy_from_slice(r.storage_row(i));
            continue;
        }
        // `Symbol::join`, with equal cells (mostly ⊥ in a grouped table)
        // passed over first.
        for (a, &b) in acc.iter_mut().zip(r.storage_row(i)) {
            if *a != b {
                if a.is_null() {
                    *a = b;
                } else if !b.is_null() {
                    joins[m] = false;
                }
            }
        }
    }
    if !joins.contains(&true) {
        return renamed(r, name);
    }

    let mut t = r.select_rows(&[]);
    t.set_name(name);
    let mut started = 0;
    t.append_rows(|rows| {
        for (i, &g) in (1..).zip(&group_of) {
            let first = g == started;
            started += usize::from(first);
            match slot[g] {
                // Merged group: emit the join at the first member's slot.
                Some(m) if joins[m] => {
                    if first {
                        rows.push_row(&acc[m * stride..(m + 1) * stride]);
                    }
                }
                _ => rows.push_row(r.storage_row(i)),
            }
        }
    });
    t
}

/// Clean-up's grouping, shared with the fused restructure: each data row
/// whose row attribute lies in `on` is keyed by (row attribute, entries
/// under `by_cols`); every other row is a group of its own. Returns the
/// group of each data row (row `i` at `i - 1`) and the number of groups.
/// Groups are numbered by first member, so a row is the first of its group
/// exactly when its group number equals the number of groups seen before.
pub(crate) fn cleanup_groups(r: &Table, by_cols: &[usize], on: &SymbolSet) -> (Vec<usize>, usize) {
    let mut keys = RowIndex::new(by_cols.len() + 1, r.height());
    let mut key = Vec::with_capacity(by_cols.len() + 1);
    let mut group_of_key = Vec::with_capacity(r.height());
    let mut groups = 0;
    let group_of = (1..=r.height())
        .map(|i| {
            let attr = r.get(i, 0);
            let g = if on.contains(attr) {
                key.clear();
                key.push(attr);
                key.extend(by_cols.iter().map(|&j| r.get(i, j)));
                let (id, added) = keys.insert(&key);
                if added {
                    group_of_key.push(groups);
                }
                group_of_key[id]
            } else {
                groups
            };
            groups += usize::from(g == groups);
            g
        })
        .collect();
    (group_of, groups)
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

    // Group the participating columns by their attribute and their
    // entries in the `by` rows, in the order of their first members.
    let mut keys = RowIndex::new(by_rows.len() + 1, cols.len());
    let mut key = Vec::with_capacity(by_rows.len() + 1);
    let mut members: Vec<Vec<usize>> = Vec::new();
    for &j in &cols {
        key.clear();
        key.push(r.col_attr(j));
        key.extend(by_rows.iter().map(|&i| r.get(i, j)));
        let (g, added) = keys.insert(&key);
        if added {
            members.push(Vec::new());
        }
        members[g].push(j);
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
///
/// When both operands carry the same pairwise-distinct column attributes
/// (`aligned_distinct_schemes`; row attributes and data may be anything,
/// ⊥ included), the result is the first occurrence of each storage row of
/// `r` and then of `s`, computed without the staged pipeline. Why: the
/// tabular union holds two columns per attribute, one per operand, and
/// every row has ⊥ in the other operand's copy. Purge by ∅ groups columns
/// on their attribute alone, so each group is one such pair, and the pair
/// always joins: in every row at least one of the two entries is ⊥. Purge
/// therefore leaves the rows of `r`, then those of `s`, each with its own
/// row attribute and data, ⊥ included, under `r`'s attribute row. Clean-up
/// by the whole scheme on every row attribute then groups rows on their
/// whole storage row, comparing ⊥ as a plain symbol, so a group is a set
/// of identical storage rows, merged into its first member. Two rows with
/// equal data and different row attributes both stay.
pub fn classical_union(r: &Table, s: &Table, name: Symbol) -> Table {
    if !aligned_distinct_schemes(r, s) {
        let u = union(r, s, name);
        let purged = purge(&u, &u.scheme(), &SymbolSet::new(), name);
        return cleanup(&purged, &purged.scheme(), &purged.row_scheme(), name);
    }
    let left = RowIndex::of_rows(r);
    let right = union_new_rows(&left, s);
    let mut cells = Vec::with_capacity((1 + left.len() + right.len()) * (r.width() + 1));
    cells.push(name);
    cells.extend_from_slice(r.col_attrs());
    cells.extend_from_slice(left.rows());
    cells.extend_from_slice(right.rows());
    Table::from_parts(left.len() + right.len(), r.width(), cells)
}

/// The rows the row-set kernel of [`classical_union`] adds after an
/// operand whose distinct storage rows `r` holds: each storage row of `s`
/// that `r` lacks, once, in first-occurrence order.
pub(crate) fn union_new_rows(r: &RowIndex, s: &Table) -> RowIndex {
    let mut fresh = RowIndex::new(r.stride(), s.height());
    for k in 1..=s.height() {
        let row = s.storage_row(k);
        if !r.contains(row) {
            fresh.insert(row);
        }
    }
    fresh
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
    fn uploads_take_the_row_set_kernel() {
        // A CSV upload carries its row attributes in the first column;
        // neither they nor ⊥ data keep a union off the row-set kernel,
        // repeated column attributes do. Either way the result is the
        // staged pipeline's.
        let staged = |r: &Table, s: &Table| {
            let u = crate::ops::traditional::union(r, s, nm("T"));
            let p = purge(&u, &u.scheme(), &SymbolSet::new(), nm("T"));
            cleanup(&p, &p.scheme(), &p.row_scheme(), nm("T"))
        };
        let upload = tabular_core::io::from_csv("E,A,B\ne0,x,y\ne1,x,y\n_,y,z\ne0,x,y\n").unwrap();
        let holes = tabular_core::io::from_csv("E,A,B\ne0,x,_\ne1,x,y\n").unwrap();
        let repeated = tabular_core::io::from_csv("E,A,A\ne0,x,y\n").unwrap();
        for (r, s) in [(&upload, &holes), (&holes, &upload), (&upload, &upload)] {
            assert!(aligned_distinct_schemes(r, s));
            assert_eq!(classical_union(r, s, nm("T")), staged(r, s));
        }
        assert_eq!(classical_union(&upload, &holes, nm("T")).height(), 4);
        assert!(!aligned_distinct_schemes(&repeated, &repeated));
        assert_eq!(
            classical_union(&repeated, &repeated, nm("T")),
            staged(&repeated, &repeated)
        );
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
