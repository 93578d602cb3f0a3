//! **Theorem 4.4** (completeness), executably: every transformation (a
//! generic, permutation-invariant, determinate, constructive database
//! mapping) is computed by a tabular algebra program — via the normal form
//!
//! ```text
//!   P_Rep  ∘  P  ∘  P_Rep⁻¹
//! ```
//!
//! where `P_Rep` encodes the database into its canonical representation,
//! `P` is an `FO + while + new` program over the *fixed* scheme
//! `{Data, Map}`, and `P_Rep⁻¹` decodes the result (paper §4.1, proof of
//! Theorem 4.4).
//!
//! A [`Transformation`] packages the middle program; [`Transformation::apply`]
//! runs the pipeline with the native encoder/decoder, and
//! [`Transformation::apply_via_ta`] runs the middle program *through the
//! tabular algebra* using the Theorem 4.1 compiler — demonstrating that
//! the whole transformation is TA-computable.
//!
//! The shipped transformations show the power of the normal form: they
//! restructure *schema-level* features (table names, the row/column axes,
//! data-as-attributes matrix forms) that no query over the original
//! tables' fixed schemes could touch — [`matrix_to_relation`] and
//! [`relation_to_matrix`] in particular close Figure 1's
//! `SalesInfo3 ↔ SalesInfo1` loop, where the attributes are values and the
//! plain algebra's name-ranging parameters cannot reach them generically.

use crate::decode::decode;
use crate::encode::{data_name, encode, map_name};
use crate::error::Result;
use tabular_algebra::{Budget, EvalLimits};
use tabular_core::Database;
use tabular_relational::compile::run_compiled;
use tabular_relational::expr::RelExpr;
use tabular_relational::program::FoProgram;
use tabular_relational::relation::RelDatabase;

/// A transformation in normal form: an `FO + while + new` program over the
/// canonical representation scheme `{Data(Tbl,Row,Col,Val), Map(Id,Entry)}`.
#[derive(Clone, Debug)]
pub struct Transformation {
    /// Human-readable label.
    pub label: &'static str,
    /// The middle program `P`.
    pub fo: FoProgram,
}

impl Transformation {
    /// Run `decode ∘ P ∘ encode` with the reference FO interpreter.
    pub fn apply(&self, db: &Database, max_while_iters: usize) -> Result<Database> {
        let rep = encode(db);
        let out = self.fo.run(&rep, max_while_iters)?;
        let data = out
            .get(data_name())
            .ok_or(crate::error::CanonError::MissingRelation(data_name()))?;
        let map = out
            .get(map_name())
            .ok_or(crate::error::CanonError::MissingRelation(map_name()))?;
        decode(&RelDatabase::from_relations([data.clone(), map.clone()]))
    }

    /// Run the same pipeline with the middle program compiled to tabular
    /// algebra (Theorem 4.1): the transformation is then computed by an
    /// actual TA program over the representation.
    pub fn apply_via_ta(&self, db: &Database, limits: &EvalLimits) -> Result<Database> {
        let rep = encode(db);
        let (out, _, _) = run_compiled(
            &self.fo,
            &rep,
            &["Data", "Map"],
            &Budget::from_limits(limits),
        )?;
        decode(&out)
    }
}

/// Transformation: rename every table called `from` to `to`.
///
/// Over `Rep` this is a one-liner on `Map`, touching exactly the ids that
/// occur in `Data.Tbl` — a *schema* renaming, inexpressible as a query over
/// the original tables.
pub fn rename_tables(from: &str, to: &str) -> Transformation {
    // TblIds   := ρ_{Id←Tbl} π_Tbl(Data)
    // Affected := π_{Id,Entry} σ_{Id=Id2}(Map × ρ_{Id2←Id}(TblIds)) with Entry = from
    // Map      := (Map \ Affected) ∪ (π_Id(Affected) × {Entry: to})
    let tbl_ids = RelExpr::rel("Data").project(&["Tbl"]).rename("Tbl", "Id2");
    let affected = RelExpr::rel("Map")
        .times(tbl_ids)
        .select("Id", "Id2")
        .select_const("Entry", &format!("n:{from}"))
        .project(&["Id", "Entry"]);
    let renamed = RelExpr::rel("Affected")
        .project(&["Id"])
        .times(RelExpr::constant("Entry", &format!("n:{to}")));
    Transformation {
        label: "rename-tables",
        fo: FoProgram::new().assign("Affected", affected).assign(
            "Map",
            RelExpr::rel("Map")
                .minus(RelExpr::rel("Affected"))
                .union(renamed),
        ),
    }
}

/// Transformation: transpose *every* table of the database — swap the row
/// and column axes wholesale by exchanging `Data.Row` and `Data.Col`.
pub fn transpose_all() -> Transformation {
    Transformation {
        label: "transpose-all",
        fo: FoProgram::new().assign(
            "Data",
            RelExpr::rel("Data")
                .rename("Row", "Tmp")
                .rename("Col", "Row")
                .rename("Tmp", "Col"),
        ),
    }
}

/// Transformation: turn a 2-dimensional *matrix table* — row and column
/// names as data, like the bold `SalesInfo3` of Figure 1 — into its
/// relational form (`SalesInfo1`), with one row per non-⊥ cell.
///
/// This is the restructuring the plain algebra cannot reach generically
/// (the matrix's attributes are *values*, and operation parameters range
/// over names), and therefore the flagship use of the Theorem 4.4 normal
/// form: over `Rep`, the row attributes, column attributes, and cells are
/// all ordinary data, and the output table is assembled with `new`.
///
/// `src` names the matrix table; `row_attr`/`col_attr`/`val_attr` name the
/// output columns receiving the matrix's row names, column names, and
/// cell values (`Region`/`Part`/`Sold` for SalesInfo3 — note the matrix's
/// *columns* are parts).
///
/// The middle program uses a ⊥ constant (for the output's row
/// attributes), which the Theorem 4.1 compiler does not materialize
/// (names can be switched into data; ⊥ cannot become a table name), so
/// this transformation runs through [`Transformation::apply`] — the
/// reference pipeline — rather than `apply_via_ta`.
pub fn matrix_to_relation(
    src: &str,
    row_attr: &str,
    col_attr: &str,
    val_attr: &str,
) -> Transformation {
    // Data(Tbl, Row, Col, Val), Map(Id, Entry); all joins are
    // product+select+project.
    let src_tbl = RelExpr::rel("Data")
        .times(RelExpr::rel("Map").rename("Id", "I").rename("Entry", "E"))
        .select("Tbl", "I")
        .select_const("E", &format!("n:{src}"))
        .project(&["Tbl"]);
    let d = RelExpr::rel("Data")
        .times(RelExpr::rel("SrcTbl").rename("Tbl", "Tbl2"))
        .select("Tbl", "Tbl2")
        .project(&["Tbl", "Row", "Col", "Val"]);
    let dv = RelExpr::rel("D")
        .times(RelExpr::rel("Map").rename("Id", "I").rename("Entry", "VE"))
        .select("Val", "I")
        .project(&["Row", "Col", "VE"]);
    let dk = dv.clone().minus(dv.select_const("VE", "_"));
    let with_row = RelExpr::rel("DK")
        .times(RelExpr::rel("Map").rename("Id", "I").rename("Entry", "RE"))
        .select("Row", "I")
        .project(&["Row", "Col", "VE", "RE"]);
    let with_col = RelExpr::rel("P0")
        .times(RelExpr::rel("Map").rename("Id", "I").rename("Entry", "CE"))
        .select("Col", "I")
        .project(&["Row", "Col", "VE", "RE", "CE"]);

    // New column ids need a one-row seed; π over no attributes of the
    // (non-empty) pair relation provides it.
    let one = RelExpr::rel("P4").project(&[]);

    let cross = |ids: &str, val: &str, col: &str| {
        RelExpr::rel("P4")
            .project(&["NRow", ids])
            .rename(ids, "Val")
            .rename("NRow", "Row")
            .times(RelExpr::rel("T1").rename("NTbl", "Tbl"))
            .times(RelExpr::rel(col).rename(val, "Col"))
            .project(&["Tbl", "Row", "Col", "Val"])
    };
    let new_data = cross("VPart", "CP", "C1")
        .union(cross("VRegion", "CR", "C2"))
        .union(cross("VSold", "CS", "C3"));

    let map_of = |idrel: &str, idattr: &str, entry: RelExpr| {
        RelExpr::rel(idrel)
            .rename(idattr, "Id")
            .project(&["Id"])
            .times(entry)
            .project(&["Id", "Entry"])
    };
    let name_const = |n: &str| RelExpr::constant("Entry", &format!("n:{n}"));
    let new_map = map_of("T1", "NTbl", name_const(src))
        .union(map_of("C1", "CP", name_const(col_attr)))
        .union(map_of("C2", "CR", name_const(row_attr)))
        .union(map_of("C3", "CS", name_const(val_attr)))
        .union(map_of("P4", "NRow", RelExpr::constant("Entry", "_")))
        .union(
            RelExpr::rel("P4")
                .project(&["VPart", "CE"])
                .rename("VPart", "Id")
                .rename("CE", "Entry"),
        )
        .union(
            RelExpr::rel("P4")
                .project(&["VRegion", "RE"])
                .rename("VRegion", "Id")
                .rename("RE", "Entry"),
        )
        .union(
            RelExpr::rel("P4")
                .project(&["VSold", "VE"])
                .rename("VSold", "Id")
                .rename("VE", "Entry"),
        );

    Transformation {
        label: "matrix-to-relation",
        fo: FoProgram::new()
            .assign("SrcTbl", src_tbl)
            .assign("D", d)
            .assign("DK", dk)
            .assign("P0", with_row)
            .assign("P1", with_col)
            .new_ids("P2", "P1", "NRow")
            .new_ids("P3", "P2", "VPart")
            .new_ids("P3b", "P3", "VRegion")
            .new_ids("P4", "P3b", "VSold")
            .assign("One", one)
            .new_ids("T1", "One", "NTbl")
            .new_ids("C1", "One", "CP")
            .new_ids("C2", "One", "CR")
            .new_ids("C3", "One", "CS")
            .assign("Data", new_data)
            .assign("Map", new_map),
    }
}

/// The inverse of [`matrix_to_relation`]: turn a relational table into the
/// 2-dimensional matrix form (`SalesInfo1` → `SalesInfo3`), with the
/// `row_attr` values becoming row names, the `col_attr` values column
/// names, and the `val_attr` values the cells. Missing (row, column)
/// combinations become ⊥ cells, since tables are total mappings.
///
/// Like [`matrix_to_relation`], the program needs a ⊥ constant (for the
/// missing cells), so it runs through [`Transformation::apply`].
pub fn relation_to_matrix(
    src: &str,
    row_attr: &str,
    col_attr: &str,
    val_attr: &str,
) -> Transformation {
    // The column ids of src's three columns, located through Map.
    let col_of = |attr: &str| {
        RelExpr::rel("D")
            .times(RelExpr::rel("Map").rename("Id", "I").rename("Entry", "E"))
            .select("Col", "I")
            .select_const("E", &format!("n:{attr}"))
            .project(&["Col"])
    };
    // Per-row entry under one column: (Row, <out>).
    let entry_of = |colrel: &str, out: &str| {
        RelExpr::rel("D")
            .times(RelExpr::rel(colrel).rename("Col", "C2"))
            .select("Col", "C2")
            .times(RelExpr::rel("Map").rename("Id", "I").rename("Entry", out))
            .select("Val", "I")
            .project(&["Row", out])
    };
    let src_tbl = RelExpr::rel("Data")
        .times(RelExpr::rel("Map").rename("Id", "I").rename("Entry", "E"))
        .select("Tbl", "I")
        .select_const("E", &format!("n:{src}"))
        .project(&["Tbl"]);
    let d = RelExpr::rel("Data")
        .times(RelExpr::rel("SrcTbl").rename("Tbl", "Tbl2"))
        .select("Tbl", "Tbl2")
        .project(&["Tbl", "Row", "Col", "Val"]);

    let tuples = RelExpr::rel("RowsOf")
        .times(RelExpr::rel("ColsOf").rename("Row", "R2"))
        .select("Row", "R2")
        .times(RelExpr::rel("ValsOf").rename("Row", "R3"))
        .select("Row", "R3")
        .project(&["RE", "PE", "SE"]);

    let grid = RelExpr::rel("NewRows").times(RelExpr::rel("NewCols"));
    let present = RelExpr::rel("Grid")
        .times(
            RelExpr::rel("Tuples")
                .rename("RE", "RE2")
                .rename("PE", "PE2"),
        )
        .select("RE", "RE2")
        .select("PE", "PE2")
        .project(&["RE", "NR", "PE", "NC", "SE"]);
    let missing =
        RelExpr::rel("Grid").minus(RelExpr::rel("Present").project(&["RE", "NR", "PE", "NC"]));

    let data_rows = |src_rel: &str| {
        RelExpr::rel(src_rel)
            .project(&["NR", "NC", "NV"])
            .rename("NR", "Row")
            .rename("NC", "Col")
            .rename("NV", "Val")
            .times(RelExpr::rel("T1").rename("NT", "Tbl"))
            .project(&["Tbl", "Row", "Col", "Val"])
    };
    let new_data = data_rows("PresentV").union(data_rows("MissingV"));

    let new_map = RelExpr::rel("T1")
        .rename("NT", "Id")
        .times(RelExpr::constant("Entry", &format!("n:{src}")))
        .project(&["Id", "Entry"])
        .union(
            RelExpr::rel("NewRows")
                .rename("NR", "Id")
                .rename("RE", "Entry")
                .project(&["Id", "Entry"]),
        )
        .union(
            RelExpr::rel("NewCols")
                .rename("NC", "Id")
                .rename("PE", "Entry")
                .project(&["Id", "Entry"]),
        )
        .union(
            RelExpr::rel("PresentV")
                .project(&["NV", "SE"])
                .rename("NV", "Id")
                .rename("SE", "Entry"),
        )
        .union(
            RelExpr::rel("MissingV")
                .project(&["NV"])
                .rename("NV", "Id")
                .times(RelExpr::constant("Entry", "_")),
        );

    Transformation {
        label: "relation-to-matrix",
        fo: FoProgram::new()
            .assign("SrcTbl", src_tbl)
            .assign("D", d)
            .assign("RowCol", col_of(row_attr))
            .assign("ColCol", col_of(col_attr))
            .assign("ValCol", col_of(val_attr))
            .assign("RowsOf", entry_of("RowCol", "RE"))
            .assign("ColsOf", entry_of("ColCol", "PE"))
            .assign("ValsOf", entry_of("ValCol", "SE"))
            .assign("Tuples", tuples)
            .assign("Regions", RelExpr::rel("Tuples").project(&["RE"]))
            .new_ids("NewRows", "Regions", "NR")
            .assign("Parts", RelExpr::rel("Tuples").project(&["PE"]))
            .new_ids("NewCols", "Parts", "NC")
            .assign("Grid", grid)
            .assign("Present", present)
            .assign("MissingG", missing)
            .new_ids("PresentV", "Present", "NV")
            .new_ids("MissingV", "MissingG", "NV")
            .assign("One", RelExpr::rel("Grid").project(&[]))
            .new_ids("T1", "One", "NT")
            .assign("Data", new_data)
            .assign("Map", new_map),
    }
}

/// Transformation: delete every table named `name` (its `Data` quadruples
/// are removed; dangling `Map` rows are harmless for decoding but are
/// removed as well, keeping the representation tight).
pub fn drop_tables(name: &str) -> Transformation {
    let tbl_ids_named = RelExpr::rel("Map")
        .select_const("Entry", &format!("n:{name}"))
        .project(&["Id"])
        .rename("Id", "Tbl");
    let dead = RelExpr::rel("Data")
        .times(tbl_ids_named.rename("Tbl", "Tbl2"))
        .select("Tbl", "Tbl2")
        .project(&["Tbl", "Row", "Col", "Val"]);
    // Map rows still referenced by the surviving Data.
    let live_ids = RelExpr::rel("Data")
        .project(&["Tbl"])
        .rename("Tbl", "Id")
        .union(RelExpr::rel("Data").project(&["Row"]).rename("Row", "Id"))
        .union(RelExpr::rel("Data").project(&["Col"]).rename("Col", "Id"))
        .union(RelExpr::rel("Data").project(&["Val"]).rename("Val", "Id"));
    Transformation {
        label: "drop-tables",
        fo: FoProgram::new()
            .assign("Dead", dead)
            .assign("Data", RelExpr::rel("Data").minus(RelExpr::rel("Dead")))
            .assign("Live", live_ids)
            .assign(
                "Map",
                RelExpr::rel("Map")
                    .times(RelExpr::rel("Live").rename("Id", "Id2"))
                    .select("Id", "Id2")
                    .project(&["Id", "Entry"]),
            ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular_core::fixtures;
    use tabular_core::Symbol;

    #[test]
    fn rename_tables_renames_only_table_names() {
        let db = fixtures::sales_info1_full();
        let out = rename_tables("Sales", "Orders").apply(&db, 1000).unwrap();
        assert!(out.table_str("Sales").is_none());
        let renamed = out.table_str("Orders").unwrap();
        let original = db.table_str("Sales").unwrap();
        let mut expected = original.clone();
        expected.set_name(Symbol::name("Orders"));
        assert!(renamed.equiv(&expected));
        // Other tables untouched.
        assert!(out.table_str("GrandTotal").is_some());
        assert_eq!(out.len(), db.len());
    }

    #[test]
    fn transpose_all_matches_per_table_transposition() {
        let db = fixtures::sales_info2_full();
        let out = transpose_all().apply(&db, 1000).unwrap();
        let expected = Database::from_tables(db.tables().iter().map(|t| t.transpose()));
        assert!(out.equiv(&expected), "got:\n{out}\nexpected:\n{expected}");
    }

    #[test]
    fn transpose_all_is_an_involution() {
        let db = fixtures::sales_info3();
        let t = transpose_all();
        let twice = t.apply(&t.apply(&db, 1000).unwrap(), 1000).unwrap();
        assert!(twice.equiv(&db));
    }

    #[test]
    fn drop_tables_removes_a_name_group() {
        let db = fixtures::sales_info4_full(); // five tables named Sales
        let out = drop_tables("Sales").apply(&db, 1000);
        // All tables are named Sales: dropping them leaves an empty Data —
        // decode then yields an empty database, but Data/Map must exist.
        let out = out.unwrap();
        assert!(out.is_empty());

        let db2 = fixtures::sales_info1_full();
        let out2 = drop_tables("GrandTotal").apply(&db2, 1000).unwrap();
        assert_eq!(out2.len(), db2.len() - 1);
        assert!(out2.table_str("GrandTotal").is_none());
        assert!(out2.table_str("Sales").is_some());
    }

    #[test]
    fn matrix_to_relation_turns_info3_into_info1() {
        // The Figure 1 claim closed: SalesInfo3 (row/column names are
        // data) restructures into SalesInfo1 via the normal form.
        let db = fixtures::sales_info3();
        let t = matrix_to_relation("Sales", "Region", "Part", "Sold");
        let out = t.apply(&db, 1000).unwrap();
        assert!(
            out.equiv(&fixtures::sales_info1()),
            "got:\n{out}\nexpected:\n{}",
            fixtures::sales_info1()
        );
    }

    #[test]
    fn relation_to_matrix_turns_info1_into_info3() {
        let db = fixtures::sales_info1();
        let t = relation_to_matrix("Sales", "Region", "Part", "Sold");
        let out = t.apply(&db, 1000).unwrap();
        assert!(
            out.equiv(&fixtures::sales_info3()),
            "got:\n{out}\nexpected:\n{}",
            fixtures::sales_info3()
        );
    }

    #[test]
    fn matrix_and_relation_transformations_are_mutually_inverse() {
        let db = fixtures::sales_info3();
        let to_rel = matrix_to_relation("Sales", "Region", "Part", "Sold");
        let to_mat = relation_to_matrix("Sales", "Region", "Part", "Sold");
        let round = to_mat
            .apply(&to_rel.apply(&db, 1000).unwrap(), 1000)
            .unwrap();
        assert!(round.equiv(&db));
        let db1 = fixtures::sales_info1();
        let round1 = to_rel
            .apply(&to_mat.apply(&db1, 1000).unwrap(), 1000)
            .unwrap();
        assert!(round1.equiv(&db1));
    }

    #[test]
    fn matrix_to_relation_keeps_only_nonnull_cells() {
        let db = fixtures::sales_info3();
        let t = matrix_to_relation("Sales", "Region", "Part", "Sold");
        let out = t.apply(&db, 1000).unwrap();
        let table = out.table_str("Sales").unwrap();
        // 8 non-⊥ cells in the bold SalesInfo3 (the 4 ⊥ cells drop out).
        assert_eq!(table.height(), 8);
        assert!(table.is_relational());
    }

    #[test]
    fn normal_form_runs_through_tabular_algebra_too() {
        // Theorem 4.4's pipeline with the Theorem 4.1 compiler in the
        // middle: the transformation is computed by a real TA program.
        let db = fixtures::sales_info1();
        let t = rename_tables("Sales", "Orders");
        let native = t.apply(&db, 1000).unwrap();
        let via_ta = t.apply_via_ta(&db, &EvalLimits::default()).unwrap();
        assert!(
            native.equiv(&via_ta),
            "native:\n{native}\nvia TA:\n{via_ta}"
        );
    }

    #[test]
    fn transpose_all_via_ta() {
        let db = fixtures::sales_info1();
        let t = transpose_all();
        let native = t.apply(&db, 1000).unwrap();
        let via_ta = t.apply_via_ta(&db, &EvalLimits::default()).unwrap();
        assert!(native.equiv(&via_ta));
    }
}
