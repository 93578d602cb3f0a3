//! **Lemma 4.2**: the canonical representation `Rep(D)` of a tabular
//! database — a relational database over the fixed scheme
//!
//! ```text
//! Rep = { Data(Tbl, Row, Col, Val),  Map(Id, Entry) }
//! ```
//!
//! with the functional dependencies `Id → Entry` and `Tbl, Row, Col → Val`,
//! such that a table `ρ` has entries `ρ₀⁰, ρᵢ⁰, ρ₀ʲ, ρᵢʲ` iff there are
//! occurrence identifiers `id₁..id₄` with `(id₁,ρ₀⁰), (id₂,ρᵢ⁰),
//! (id₃,ρ₀ʲ), (id₄,ρᵢʲ) ∈ Map` and `(id₁,id₂,id₃,id₄) ∈ Data`.
//!
//! Every occurrence gets a *unique* id, so tables of variable width encode
//! into fixed-arity relations — the pivot on which the completeness proof
//! of Theorem 4.4 turns.

use tabular_core::{Database, Symbol, Table};
use tabular_relational::relation::{RelDatabase, Relation};

/// Name of the `Data` relation.
pub fn data_name() -> Symbol {
    Symbol::name("Data")
}

/// Name of the `Map` relation.
pub fn map_name() -> Symbol {
    Symbol::name("Map")
}

/// Compute `Rep(D)`.
///
/// Identifiers are fresh values from the interner's reserved namespace —
/// the same mechanism as the tagging operations, realizing the paper's
/// "unique up to the particular choice of occurrence identifiers".
///
/// Degenerate tables (height 0 or width 0) have no data occurrences and
/// therefore no `Data` rows; they are outside the domain of `Rep` exactly
/// as in the paper, where every example table is non-degenerate. See
/// [`crate::decode()`] for the inverse.
pub fn encode(db: &Database) -> RelDatabase {
    let mut data = Relation::empty(
        data_name(),
        vec![
            Symbol::name("Tbl"),
            Symbol::name("Row"),
            Symbol::name("Col"),
            Symbol::name("Val"),
        ],
    )
    .expect("static attrs");
    let mut map = Relation::empty(map_name(), vec![Symbol::name("Id"), Symbol::name("Entry")])
        .expect("static attrs");

    for table in db.tables() {
        encode_table(table, &mut data, &mut map);
    }
    RelDatabase::from_relations([data, map])
}

fn encode_table(table: &Table, data: &mut Relation, map: &mut Relation) {
    let id1 = Symbol::fresh_value();
    map.insert(vec![id1, table.name()]).expect("arity");
    let row_ids: Vec<Symbol> = (1..=table.height())
        .map(|i| {
            let id = Symbol::fresh_value();
            map.insert(vec![id, table.get(i, 0)]).expect("arity");
            id
        })
        .collect();
    let col_ids: Vec<Symbol> = (1..=table.width())
        .map(|j| {
            let id = Symbol::fresh_value();
            map.insert(vec![id, table.col_attr(j)]).expect("arity");
            id
        })
        .collect();
    for i in 1..=table.height() {
        for j in 1..=table.width() {
            let id4 = Symbol::fresh_value();
            map.insert(vec![id4, table.get(i, j)]).expect("arity");
            data.insert(vec![id1, row_ids[i - 1], col_ids[j - 1], id4])
                .expect("arity");
        }
    }
}

/// Check the `Rep` functional dependencies on an encoded database:
/// `Id → Entry` in `Map` and `Tbl, Row, Col → Val` in `Data`. Returns the
/// violated dependency's name if any.
pub fn check_fds(rep: &RelDatabase) -> Option<&'static str> {
    use std::collections::HashMap;
    if let Some(map) = rep.get(map_name()) {
        let mut seen: HashMap<Symbol, Symbol> = HashMap::new();
        for t in map.tuples() {
            if let Some(&prev) = seen.get(&t[0]) {
                if prev != t[1] {
                    return Some("Id -> Entry");
                }
            }
            seen.insert(t[0], t[1]);
        }
    }
    if let Some(data) = rep.get(data_name()) {
        let mut seen: HashMap<(Symbol, Symbol, Symbol), Symbol> = HashMap::new();
        for t in data.tuples() {
            let key = (t[0], t[1], t[2]);
            if let Some(&prev) = seen.get(&key) {
                if prev != t[3] {
                    return Some("Tbl, Row, Col -> Val");
                }
            }
            seen.insert(key, t[3]);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular_core::fixtures;

    #[test]
    fn encode_counts_occurrences() {
        let db = fixtures::sales_info1(); // one 8×3 table
        let rep = encode(&db);
        let data = rep.get(data_name()).unwrap();
        let map = rep.get(map_name()).unwrap();
        assert_eq!(data.len(), 8 * 3);
        // ids: 1 table + 8 rows + 3 cols + 24 cells.
        assert_eq!(map.len(), 1 + 8 + 3 + 24);
    }

    #[test]
    fn encode_satisfies_the_functional_dependencies() {
        for db in [
            fixtures::sales_info1_full(),
            fixtures::sales_info2_full(),
            fixtures::sales_info3_full(),
            fixtures::sales_info4_full(),
        ] {
            assert_eq!(check_fds(&encode(&db)), None);
        }
    }

    #[test]
    fn variable_width_tables_encode_into_fixed_arity() {
        let db = fixtures::sales_info2(); // 5-wide table
        let rep = encode(&db);
        assert_eq!(rep.get(data_name()).unwrap().arity(), 4);
        assert_eq!(rep.get(map_name()).unwrap().arity(), 2);
    }

    #[test]
    fn multiple_same_named_tables_get_distinct_table_ids() {
        let db = fixtures::sales_info4(); // four tables named Sales
        let rep = encode(&db);
        let data = rep.get(data_name()).unwrap();
        let tbl_ids: std::collections::HashSet<Symbol> = data.tuples().map(|t| t[0]).collect();
        assert_eq!(tbl_ids.len(), 4);
    }

    #[test]
    fn null_entries_are_mapped() {
        let db = fixtures::sales_info2();
        let rep = encode(&db);
        let map = rep.get(map_name()).unwrap();
        assert!(map.tuples().any(|t| t[1].is_null()));
    }

    #[test]
    fn fd_checker_flags_violations() {
        let mut data = Relation::new("Data", &["Tbl", "Row", "Col", "Val"], &[]);
        data.insert(vec![
            Symbol::value("t"),
            Symbol::value("r"),
            Symbol::value("c"),
            Symbol::value("v1"),
        ])
        .unwrap();
        data.insert(vec![
            Symbol::value("t"),
            Symbol::value("r"),
            Symbol::value("c"),
            Symbol::value("v2"),
        ])
        .unwrap();
        let rep = RelDatabase::from_relations([data]);
        assert_eq!(check_fds(&rep), Some("Tbl, Row, Col -> Val"));
    }
}
