//! Pivot and unpivot, *as tabular algebra programs* — §4.3's claim made
//! concrete: "tabular algebra can be used as a fundamental querying and
//! restructuring language for OLAP technology".
//!
//! * [`pivot_program`] turns a relational fact table into a cross-tab
//!   (`SalesInfo1` → bold `SalesInfo2`) with the exact operation chain the
//!   paper walks through: `GROUP by C on V`, `CLEAN-UP by rest on ⊥`,
//!   `PURGE on V by C`.
//! * [`unpivot_program`] is the inverse (`SalesInfo2` → `SalesInfo1`):
//!   `MERGE on V by C`, then the paper's ⊥-row elimination "simulated
//!   using projection, transposition, and difference", then duplicate
//!   elimination.
//!
//! A hand-coded [`crate::baseline`] implements the same two mappings
//! directly; the benchmark harness compares them to quantify the cost of
//! the algebraic generality.

use crate::error::Result;
use tabular_algebra::param::Item;
use tabular_algebra::{derived::Emitter, Budget, OpKind, Param, Program};
use tabular_core::{Database, Symbol, SymbolSet, Table};

fn param_of(syms: &[Symbol]) -> Param {
    Param {
        positive: syms.iter().map(|&s| Item::Sym(s)).collect(),
        negative: vec![],
    }
}

/// The TA program pivoting table `src`: one cross-tab column per distinct
/// value under `col_attr`, cell values from `val_attr`, rows keyed by the
/// remaining attributes `keys`. The result is named `target`.
pub fn pivot_program(
    src: Symbol,
    col_attr: Symbol,
    val_attr: Symbol,
    keys: &[Symbol],
    target: Symbol,
) -> Program {
    let mut e = Emitter::new();
    let g = e.fresh();
    e.assign(
        g,
        OpKind::Group {
            by: Param::sym(col_attr),
            on: Param::sym(val_attr),
        },
        &[src],
    );
    let c = e.fresh();
    e.assign(
        c,
        OpKind::CleanUp {
            by: param_of(keys),
            on: Param::null(),
        },
        &[g],
    );
    e.assign(
        target,
        OpKind::Purge {
            on: Param::sym(val_attr),
            by: Param::sym(col_attr),
        },
        &[c],
    );
    e.into_program()
}

/// The TA program unpivoting a cross-tab `src` (header rows named by
/// `col_attr`, data columns named `val_attr`) back into a relational
/// table named `target`:
///
/// 1. `MERGE on val by col` (Figure 5);
/// 2. remove the rows whose `val` entry is ⊥, via the paper's
///    projection + union + difference derivation: a row with ⊥ under
///    `val` mutually subsumes its own projection padded back with an
///    empty `val` column, and tabular difference removes exactly those;
/// 3. `CLEAN-UP by * on ⊥` to eliminate duplicates introduced by
///    merging repeated columns.
pub fn unpivot_program(src: Symbol, val_attr: Symbol, col_attr: Symbol, target: Symbol) -> Program {
    let mut e = Emitter::new();
    let m = e.fresh();
    e.assign(
        m,
        OpKind::Merge {
            on: Param::sym(val_attr),
            by: Param::sym(col_attr),
        },
        &[src],
    );
    // ⊥-row elimination: U = PROJECT[* \ val](M) ∪ (empty val column);
    // rows of M that are ⊥ under val mutually subsume a row of U.
    let proj = e.fresh();
    e.assign(
        proj,
        OpKind::Project {
            attrs: Param::star().minus(Param::sym(val_attr)),
        },
        &[m],
    );
    let only_val = e.fresh();
    e.assign(
        only_val,
        OpKind::Project {
            attrs: Param::sym(val_attr),
        },
        &[m],
    );
    let empty_val = e.fresh();
    e.assign(empty_val, OpKind::Difference, &[only_val, only_val]);
    let padded = e.fresh();
    e.assign(padded, OpKind::Union, &[proj, empty_val]);
    let pruned = e.fresh();
    e.assign(pruned, OpKind::Difference, &[m, padded]);
    e.assign(
        target,
        OpKind::CleanUp {
            by: Param::star(),
            on: Param::null(),
        },
        &[pruned],
    );
    e.into_program()
}

/// Run [`pivot_program`] on a single table under `budget`, returning the
/// cross-tab. The underlying TA run honors the budget's deadline,
/// run-cell allowance, and cancellation token (a trip surfaces as the
/// algebra's `BudgetExceeded` error).
pub fn pivot(t: &Table, col_attr: Symbol, val_attr: Symbol, budget: &Budget) -> Result<Table> {
    let keys: Vec<Symbol> = {
        let drop: SymbolSet = [col_attr, val_attr].into_iter().collect();
        t.scheme().minus(&drop).iter().collect()
    };
    let target = Symbol::fresh_name();
    // Run the full cost-based planner pipeline: the GROUP → CLEAN-UP →
    // PURGE chain fuses into the single-pass restructuring kernel, and
    // dead-assignment elimination protects the reserved `target` name
    // because it is the program's final assignment.
    let p = pivot_program(t.name(), col_attr, val_attr, &keys, target);
    let db = Database::from_tables([t.clone()]);
    let (out, ..) = tabular_algebra::run_planned_governed_traced(&p, &db, budget)?;
    let mut result = out
        .table(target)
        .expect("pivot program produces its target")
        .clone();
    result.set_name(t.name());
    Ok(result)
}

/// Run [`unpivot_program`] on a single table under `budget`, returning
/// the relational form (see [`pivot`]).
pub fn unpivot(t: &Table, val_attr: Symbol, col_attr: Symbol, budget: &Budget) -> Result<Table> {
    let target = Symbol::fresh_name();
    let p = unpivot_program(t.name(), val_attr, col_attr, target);
    let db = Database::from_tables([t.clone()]);
    let (out, ..) = tabular_algebra::run_governed_traced(&p, &db, budget)?;
    let mut result = out
        .table(target)
        .expect("unpivot program produces its target")
        .clone();
    result.set_name(t.name());
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular_algebra::Rule;
    use tabular_core::fixtures;

    fn nm(s: &str) -> Symbol {
        Symbol::name(s)
    }

    fn budget() -> Budget {
        Budget::default()
    }

    /// Regression for the PR 6 workaround: the pivot program's final
    /// assignment targets a *reserved* name, and the full optimizer
    /// pipeline used to dead-eliminate it (pivot had to call
    /// `fuse_restructure` directly). The planner's dead-code rule now
    /// protects the program's final assignment, so the full pipeline
    /// keeps the target and still fuses the restructuring chain.
    #[test]
    fn full_pipeline_preserves_reserved_pivot_target() {
        let t = fixtures::sales_relation();
        let target = Symbol::fresh_name();
        let p = pivot_program(t.name(), nm("Region"), nm("Sold"), &[nm("Part")], target);
        let opt = tabular_algebra::plan_with_rules(
            &p,
            None,
            &[
                Rule::ForwardCopy,
                Rule::FuseJoin,
                Rule::FuseRestructure,
                Rule::EliminateDead,
            ],
        )
        .0;
        assert!(
            !opt.statements.is_empty(),
            "optimizer must not drop the reserved-target program"
        );
        let tabular_algebra::program::Statement::Assign(last) = opt.statements.last().unwrap()
        else {
            panic!("assignment expected");
        };
        assert_eq!(last.target, tabular_algebra::Param::sym(target));
        assert!(
            opt.statements.iter().any(|s| matches!(
                s,
                tabular_algebra::program::Statement::Assign(a)
                    if matches!(a.op, OpKind::FusedRestructure(_))
            )),
            "restructuring chain still fuses: {opt:?}"
        );
    }

    #[test]
    fn pivot_produces_sales_info2() {
        let out = pivot(
            &fixtures::sales_relation(),
            nm("Region"),
            nm("Sold"),
            &budget(),
        )
        .unwrap();
        let info2 = fixtures::sales_info2();
        let expected = info2.table_str("Sales").unwrap();
        assert!(out.equiv(expected), "pivot:\n{out}\nexpected:\n{expected}");
    }

    #[test]
    fn unpivot_recovers_sales_info1() {
        let info2 = fixtures::sales_info2();
        let out = unpivot(
            info2.table_str("Sales").unwrap(),
            nm("Sold"),
            nm("Region"),
            &budget(),
        )
        .unwrap();
        // Same tuples as the base relation; column order is
        // (Part, Region, Sold) here as in Figure 5.
        let rel = fixtures::sales_relation();
        assert_eq!(out.height(), rel.height());
        for i in 1..=rel.height() {
            let want = [rel.get(i, 1), rel.get(i, 2), rel.get(i, 3)];
            assert!(
                (1..=out.height()).any(|k| out.data_row(k) == want),
                "missing tuple {want:?}\n{out}"
            );
        }
    }

    #[test]
    fn pivot_then_unpivot_is_identity_on_tuples() {
        for (parts, regions) in [(3, 4), (10, 7), (25, 16)] {
            let rel = fixtures::make_sales_relation(parts, regions);
            let pivoted = pivot(&rel, nm("Region"), nm("Sold"), &budget()).unwrap();
            assert_eq!(pivoted.height(), parts + 1);
            let back = unpivot(&pivoted, nm("Sold"), nm("Region"), &budget()).unwrap();
            assert_eq!(back.height(), rel.height(), "{parts}×{regions}");
        }
    }

    #[test]
    fn unpivot_matches_figure5_after_null_removal() {
        // Figure 5 minus its ⊥ rows is exactly the unpivot result.
        let fig5 = fixtures::figure5_merged();
        let nonnull = fig5.retain_rows(|i| !fig5.get(i, 3).is_null());
        let info2 = fixtures::sales_info2();
        let out = unpivot(
            info2.table_str("Sales").unwrap(),
            nm("Sold"),
            nm("Region"),
            &budget(),
        )
        .unwrap();
        assert!(out.equiv(&nonnull));
    }
}
