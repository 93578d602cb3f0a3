//! **Lemma 4.2, executably**: a generator emitting a *tabular algebra
//! program* `P_Rep` that computes (the natural tabular representation of)
//! the canonical representation `{Data, Map}` of a database — the paper's
//! `P^Rep`, "only dependent upon the scheme N".
//!
//! Scope of the demonstration (DESIGN.md §4): the generated program
//! handles databases of *relational-shaped* tables whose attributes are
//! known names — which covers the reduction actually used by the
//! completeness proof, where `P_Rep` is composed with programs over the
//! fixed relational scheme `Rep`. The fully width-polymorphic program of
//! the unavailable technical report (which also encodes tables with data
//! in attribute positions, via data-driven switching) is substituted by
//! the native [`crate::encode()`]; both agree on their common domain, which
//! the tests check via `decode ∘ P_Rep = id`.
//!
//! The construction leans on exactly the derived tricks the paper
//! sketches in §3.3–3.4:
//!
//! * a **one-row table** is obtained by projecting onto no columns and
//!   cleaning up (all rows join);
//! * a **constant table** holding an arbitrary known symbol as *data* is
//!   obtained by naming a scratch table with that symbol and switching on
//!   a fresh tagged value, which drops the name into a data position;
//! * occurrence **identifiers** are minted with tuple-new;
//! * `Data` / `Map` accumulate with classical union (union + purge +
//!   clean-up).

use crate::error::{CanonError, Result};
use tabular_algebra::param::Item;
use tabular_algebra::{OpKind, Param, Program};
use tabular_core::{Symbol, SymbolSet};

/// The shape information `P_Rep` is generated from: one entry per table —
/// its name and its (distinct, named) attributes.
#[derive(Clone, Debug)]
pub struct EncodeScheme {
    /// `(table name, attributes)` pairs.
    pub tables: Vec<(Symbol, Vec<Symbol>)>,
}

impl EncodeScheme {
    /// Build from string names.
    pub fn new(tables: &[(&str, &[&str])]) -> EncodeScheme {
        EncodeScheme {
            tables: tables
                .iter()
                .map(|(n, attrs)| {
                    (
                        Symbol::name(n),
                        attrs.iter().map(|a| Symbol::name(a)).collect(),
                    )
                })
                .collect(),
        }
    }
}

/// Thin wrapper adding nothing over the shared emitter; kept as a local
/// alias so the construction reads like the lemma's proof sketch.
use tabular_algebra::derived::Emitter;

fn attr_set(attrs: &[Symbol]) -> Param {
    Param {
        positive: attrs.iter().map(|&a| Item::Sym(a)).collect(),
        negative: vec![],
    }
}

/// Reserved names of the `Rep` scheme that user tables must avoid.
fn reserved() -> SymbolSet {
    SymbolSet::from_iter(
        ["Data", "Map", "Tbl", "Row", "Col", "Val", "Id", "Entry"]
            .iter()
            .map(|s| Symbol::name(s)),
    )
}

/// Generate `P_Rep` for the given scheme. Preconditions (checked where
/// statically possible, documented otherwise):
///
/// * every listed table is relational-shaped (⊥ row attributes, distinct
///   name attributes matching the scheme) and has at least one row;
/// * no table or attribute name collides with the `Rep` scheme names
///   (`Data`, `Map`, `Tbl`, `Row`, `Col`, `Val`, `Id`, `Entry`).
///
/// Running the program leaves the representation in tables named `Data`
/// and `Map`.
pub fn encode_program(scheme: &EncodeScheme) -> Result<Program> {
    let bad = reserved();
    for (name, attrs) in &scheme.tables {
        if bad.contains(*name) || attrs.iter().any(|a| bad.contains(*a)) {
            return Err(CanonError::UnsupportedShape(format!(
                "table {name}: names colliding with the Rep scheme"
            )));
        }
        let distinct: SymbolSet = attrs.iter().copied().collect();
        if distinct.len() != attrs.len() || attrs.is_empty() {
            return Err(CanonError::UnsupportedShape(format!(
                "table {name}: attributes must be distinct and non-empty"
            )));
        }
    }

    let mut e = Emitter::new();

    // Phase 0: copy every source out of harm's way — constant construction
    // transiently overwrites user-named tables.
    let copies: Vec<Symbol> = scheme
        .tables
        .iter()
        .map(|(name, _)| {
            let s = e.fresh();
            e.assign(s, OpKind::Copy, &[*name]);
            s
        })
        .collect();

    let mut data_acc: Option<Symbol> = None;
    let mut map_acc: Option<Symbol> = None;

    for ((name, attrs), src) in scheme.tables.iter().zip(&copies) {
        let one = e.one_row(*src);

        // Table occurrence id and its Map row.
        let i1 = e.fresh();
        e.assign(
            i1,
            OpKind::TupleNew {
                attr: Param::name("Tbl"),
            },
            &[one],
        );
        let c_name = e.constant(*name, Symbol::name("Entry"), one);
        let i1_id = e.fresh();
        e.assign(
            i1_id,
            OpKind::Rename {
                from: Param::name("Tbl"),
                to: Param::name("Id"),
            },
            &[i1],
        );
        let map_t = e.fresh();
        e.assign(map_t, OpKind::Product, &[i1_id, c_name]);
        map_acc = Some(e.union_into(map_acc, map_t));

        // Row occurrence ids; their Map entries are the ⊥ row attributes,
        // materialized by padding with an empty Entry-attributed table.
        let r1 = e.fresh();
        e.assign(
            r1,
            OpKind::TupleNew {
                attr: Param::name("Row"),
            },
            &[*src],
        );
        let row_ids = e.fresh();
        e.assign(
            row_ids,
            OpKind::Project {
                attrs: Param::name("Row"),
            },
            &[r1],
        );
        let row_ids_id = e.fresh();
        e.assign(
            row_ids_id,
            OpKind::Rename {
                from: Param::name("Row"),
                to: Param::name("Id"),
            },
            &[row_ids],
        );
        let empty_entry = e.fresh();
        e.assign(empty_entry, OpKind::Difference, &[c_name, c_name]);
        let map_rows = e.fresh();
        e.assign(map_rows, OpKind::Union, &[row_ids_id, empty_entry]);
        map_acc = Some(e.union_into(map_acc, map_rows));

        // Per attribute: a column id, its Map row, the cell ids with their
        // Map rows, and the Data quadruples.
        for &a in attrs {
            let cj = e.fresh();
            e.assign(
                cj,
                OpKind::TupleNew {
                    attr: Param::name("Col"),
                },
                &[one],
            );
            let c_attr = e.constant(a, Symbol::name("Entry"), one);
            let cj_id = e.fresh();
            e.assign(
                cj_id,
                OpKind::Rename {
                    from: Param::name("Col"),
                    to: Param::name("Id"),
                },
                &[cj],
            );
            let map_col = e.fresh();
            e.assign(map_col, OpKind::Product, &[cj_id, c_attr]);
            map_acc = Some(e.union_into(map_acc, map_col));

            let dj0 = e.fresh();
            e.assign(
                dj0,
                OpKind::Project {
                    attrs: attr_set(&[Symbol::name("Row"), a]),
                },
                &[r1],
            );
            let dj1 = e.fresh();
            e.assign(
                dj1,
                OpKind::Rename {
                    from: Param::sym(a),
                    to: Param::name("Entry"),
                },
                &[dj0],
            );
            let dj = e.fresh();
            e.assign(
                dj,
                OpKind::TupleNew {
                    attr: Param::name("Val"),
                },
                &[dj1],
            );
            let map_cells0 = e.fresh();
            e.assign(
                map_cells0,
                OpKind::Project {
                    attrs: attr_set(&[Symbol::name("Val"), Symbol::name("Entry")]),
                },
                &[dj],
            );
            let map_cells = e.fresh();
            e.assign(
                map_cells,
                OpKind::Rename {
                    from: Param::name("Val"),
                    to: Param::name("Id"),
                },
                &[map_cells0],
            );
            map_acc = Some(e.union_into(map_acc, map_cells));

            let data0 = e.fresh();
            e.assign(
                data0,
                OpKind::Project {
                    attrs: attr_set(&[Symbol::name("Row"), Symbol::name("Val")]),
                },
                &[dj],
            );
            let data1 = e.fresh();
            e.assign(data1, OpKind::Product, &[data0, cj]);
            let data2 = e.fresh();
            e.assign(data2, OpKind::Product, &[data1, i1]);
            data_acc = Some(e.union_into(data_acc, data2));
        }
    }

    let data_acc = data_acc.ok_or_else(|| {
        CanonError::UnsupportedShape("encode_program needs at least one table".into())
    })?;
    let map_acc = map_acc.expect("map accumulates whenever data does");
    e.assign(Symbol::name("Data"), OpKind::Copy, &[data_acc]);
    e.assign(Symbol::name("Map"), OpKind::Copy, &[map_acc]);

    Ok(e.into_program())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use crate::encode::{check_fds, data_name, map_name};
    use tabular_algebra::{run_governed_traced, Budget};
    use tabular_core::{fixtures, Database};
    use tabular_relational::relation::RelDatabase;

    fn run_encode(scheme: &EncodeScheme, db: &Database) -> RelDatabase {
        let p = encode_program(scheme).unwrap();
        let (out, _, _) = run_governed_traced(&p, db, &Budget::default()).unwrap();
        RelDatabase::from_tabular(&out, &[data_name(), map_name()]).unwrap()
    }

    #[test]
    fn ta_encode_of_sales_relation_decodes_back() {
        let scheme = EncodeScheme::new(&[("Sales", &["Part", "Region", "Sold"])]);
        let db = fixtures::sales_info1();
        let rep = run_encode(&scheme, &db);
        assert_eq!(check_fds(&rep), None);
        let back = decode(&rep).unwrap();
        assert!(back.equiv(&db), "decode(P_Rep(D)) ≠ D:\n{back}\nvs\n{db}");
    }

    #[test]
    fn ta_encode_matches_native_encode_in_size() {
        let scheme = EncodeScheme::new(&[("Sales", &["Part", "Region", "Sold"])]);
        let db = fixtures::sales_info1();
        let rep_ta = run_encode(&scheme, &db);
        let rep_native = crate::encode::encode(&db);
        for name in [data_name(), map_name()] {
            assert_eq!(
                rep_ta.get(name).unwrap().len(),
                rep_native.get(name).unwrap().len(),
                "{name} sizes differ"
            );
        }
    }

    #[test]
    fn ta_encode_handles_multiple_tables() {
        let scheme = EncodeScheme::new(&[
            ("Sales", &["Part", "Region", "Sold"]),
            ("TotalPartSales", &["Part", "Total"]),
            ("TotalRegionSales", &["Region", "Total"]),
            ("GrandTotal", &["Total"]),
        ]);
        let db = fixtures::sales_info1_full();
        let rep = run_encode(&scheme, &db);
        let back = decode(&rep).unwrap();
        assert!(back.equiv(&db));
    }

    #[test]
    fn ta_encode_scales() {
        let rel = fixtures::make_sales_relation(10, 6);
        let db = Database::from_tables([rel]);
        let scheme = EncodeScheme::new(&[("Sales", &["Part", "Region", "Sold"])]);
        let back = decode(&run_encode(&scheme, &db)).unwrap();
        assert!(back.equiv(&db));
    }

    #[test]
    fn scheme_collisions_are_rejected() {
        assert!(matches!(
            encode_program(&EncodeScheme::new(&[("Data", &["A"])])),
            Err(CanonError::UnsupportedShape(_))
        ));
        assert!(matches!(
            encode_program(&EncodeScheme::new(&[("R", &["Id"])])),
            Err(CanonError::UnsupportedShape(_))
        ));
        assert!(matches!(
            encode_program(&EncodeScheme::new(&[("R", &[])])),
            Err(CanonError::UnsupportedShape(_))
        ));
        assert!(matches!(
            encode_program(&EncodeScheme { tables: vec![] }),
            Err(CanonError::UnsupportedShape(_))
        ));
    }

    #[test]
    fn program_depends_only_on_the_scheme() {
        let scheme = EncodeScheme::new(&[("Sales", &["Part", "Region", "Sold"])]);
        let p1 = encode_program(&scheme).unwrap();
        let p2 = encode_program(&scheme).unwrap();
        // Statement count is a function of the scheme alone.
        assert_eq!(p1.len(), p2.len());
    }
}
