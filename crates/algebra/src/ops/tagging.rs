//! Tagging operations (paper §3.5): **tuple-new** and **set-new**, the
//! value-creating operations needed for completeness, inspired by their
//! counterparts in `FO + new + while`.

use crate::error::Result;
use crate::ops::restructure::check_rows;
use tabular_core::{Symbol, Table};

/// `T ← TUPLENEW_A(R)`: add a column named `a` holding a distinct fresh
/// value for every data row of `ρ`. Fresh values are chosen outside every
/// symbol seen so far (non-deterministically in the paper; here from the
/// interner's reserved namespace, which realizes the same determinacy-up-
/// to-isomorphism semantics, §4.1 condition (iv)).
pub fn tuple_new(r: &Table, a: Symbol, name: Symbol) -> Table {
    let mut t = r.clone();
    t.set_name(name);
    let mut col = Vec::with_capacity(r.height() + 1);
    col.push(a);
    col.extend((0..r.height()).map(|_| Symbol::fresh_value()));
    t.push_col(col);
    t
}

/// `T ← SETNEW_A(R)`: add a column named `a`; the data rows of the result
/// list, consecutively, every non-empty subset of the data rows of `ρ`,
/// each subset's rows tagged with that subset's own fresh value.
///
/// The result has `m · 2^(m−1)` data rows for input height `m` — this
/// exponential blow-up is the powerset construction that buys completeness
/// (Theorem 4.4). `max_rows` guards against runaway materialization; the
/// semantics are unchanged below the guard.
pub fn set_new(r: &Table, a: Symbol, name: Symbol, max_rows: usize) -> Result<Table> {
    let m = r.height();
    let total: usize = if m == 0 {
        0
    } else if m >= usize::BITS as usize - 1 {
        usize::MAX
    } else {
        m * (1usize << (m - 1))
    };
    check_rows("set-new rows", total, max_rows)?;

    let mut t = Table::new(name, 0, r.width() + 1);
    for j in 1..=r.width() {
        t.set(0, j, r.col_attr(j));
    }
    t.set(0, r.width() + 1, a);

    if m == 0 {
        return Ok(t);
    }
    for subset in 1u64..(1u64 << m) {
        let tag = Symbol::fresh_value();
        for i in 1..=m {
            if subset & (1 << (i - 1)) != 0 {
                let mut row = Vec::with_capacity(r.width() + 2);
                row.extend_from_slice(r.storage_row(i));
                row.push(tag);
                t.push_row(&row);
            }
        }
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular_core::SymbolSet;

    fn nm(x: &str) -> Symbol {
        Symbol::name(x)
    }

    #[test]
    fn tuple_new_adds_distinct_fresh_values() {
        let r = Table::relational("R", &["A"], &[&["1"], &["2"], &["1"]]);
        let t = tuple_new(&r, nm("Id"), nm("T"));
        assert_eq!(t.width(), 2);
        assert_eq!(t.col_attr(2), nm("Id"));
        let ids: SymbolSet = (1..=3).map(|i| t.get(i, 2)).collect();
        assert_eq!(ids.len(), 3, "ids must be pairwise distinct");
        assert!(ids.iter().all(|s| s.is_value()));
        // Original columns untouched.
        assert_eq!(t.get(3, 1), Symbol::value("1"));
    }

    #[test]
    fn tuple_new_ids_fresh_across_invocations() {
        let r = Table::relational("R", &["A"], &[&["1"]]);
        let t1 = tuple_new(&r, nm("Id"), nm("T"));
        let t2 = tuple_new(&r, nm("Id"), nm("T"));
        assert_ne!(t1.get(1, 2), t2.get(1, 2));
    }

    #[test]
    fn set_new_enumerates_all_nonempty_subsets() {
        let r = Table::relational("R", &["A"], &[&["1"], &["2"], &["3"]]);
        let t = set_new(&r, nm("S"), nm("T"), 1 << 20).unwrap();
        // 3 · 2² = 12 rows.
        assert_eq!(t.height(), 12);
        // 7 distinct subset tags.
        let tags: SymbolSet = (1..=t.height()).map(|i| t.get(i, 2)).collect();
        assert_eq!(tags.len(), 7);
        // Tag multiplicities: three singletons, three pairs, one triple.
        let mut sizes: Vec<usize> = tags
            .iter()
            .map(|tag| (1..=t.height()).filter(|&i| t.get(i, 2) == tag).count())
            .collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn set_new_respects_the_row_guard() {
        let r = Table::relational(
            "R",
            &["A"],
            &[&["1"], &["2"], &["3"], &["4"], &["5"], &["6"]],
        );
        // 6·2⁵ = 192 rows > 100.
        assert!(set_new(&r, nm("S"), nm("T"), 100).is_err());
        assert!(set_new(&r, nm("S"), nm("T"), 192).is_ok());
    }

    #[test]
    fn set_new_of_empty_table_is_empty() {
        let r = Table::relational("R", &["A"], &[]);
        let t = set_new(&r, nm("S"), nm("T"), 10).unwrap();
        assert_eq!(t.height(), 0);
        assert_eq!(t.width(), 2);
    }
}
