//! Genericity (§4.1, condition (i)): tabular algebra operations commute
//! with every permutation of `S` that is the identity on names and ⊥ —
//! they may distinguish individual names, never individual values.

mod common;

use common::{arb_database, arb_table};
use proptest::prelude::*;
use tables_paradigm::algebra::ops;
use tables_paradigm::prelude::*;

/// A value permutation: injectively re-spell every value, fix names and ⊥.
fn permute(s: Symbol) -> Symbol {
    match s {
        Symbol::Value(_) => Symbol::value(&format!("π{}", s.text().expect("value has text"))),
        other => other,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unary_operations_are_generic(t in arb_table()) {
        // Operation parameters range over *names* (and ⊥): genericity
        // fixes names, so value-sorted attributes — legal in tables, per
        // SalesInfo3 — are data and would be permuted along, not held
        // fixed in a parameter list.
        let by: SymbolSet = t.scheme().iter().filter(|s| !s.is_value()).collect();
        let on: SymbolSet = t.row_scheme().iter().filter(|s| !s.is_value()).collect();
        let name = Symbol::name("Out");

        type UnaryOp<'a> = (&'a str, Box<dyn Fn(&Table) -> Table>);
        let cases: Vec<UnaryOp> = vec![
            ("transpose", Box::new(move |x: &Table| ops::transpose(x, name))),
            ("project", {
                let by = by.clone();
                Box::new(move |x: &Table| ops::project(x, &by, name))
            }),
            ("cleanup", {
                let (by, on) = (by.clone(), on.clone());
                Box::new(move |x: &Table| ops::cleanup(x, &by, &on, name))
            }),
            ("purge", {
                let (by, on) = (by.clone(), on.clone());
                Box::new(move |x: &Table| ops::purge(x, &by, &on, name))
            }),
            ("group", {
                let by = by.clone();
                Box::new(move |x: &Table| ops::group(x, &by, &SymbolSet::new(), name))
            }),
            ("merge", {
                let (by, on) = (by.clone(), on.clone());
                Box::new(move |x: &Table| ops::merge(x, &by, &on, name))
            }),
        ];
        for (label, op) in cases {
            let op_then_pi = op(&t).map_symbols(permute);
            let pi_then_op = op(&t.map_symbols(permute));
            prop_assert_eq!(
                &op_then_pi, &pi_then_op,
                "{} is not generic:\n{}\nvs\n{}", label, op_then_pi, pi_then_op
            );
        }
    }

    #[test]
    fn binary_operations_are_generic(a in arb_table(), b in arb_table()) {
        let name = Symbol::name("Out");
        type BinaryOp<'a> = (&'a str, fn(&Table, &Table, Symbol) -> Table);
        let cases: Vec<BinaryOp> = vec![
            ("union", ops::union),
            ("difference", ops::difference),
            ("intersect", ops::intersect),
            ("product", ops::product),
            ("classical_union", ops::classical_union),
        ];
        for (label, op) in cases {
            let op_then_pi = op(&a, &b, name).map_symbols(permute);
            let pi_then_op = op(&a.map_symbols(permute), &b.map_symbols(permute), name);
            prop_assert_eq!(&op_then_pi, &pi_then_op, "{} is not generic", label);
        }
    }

    #[test]
    fn split_is_generic(t in arb_table()) {
        let on: SymbolSet = t.scheme().iter().filter(|s| !s.is_value()).collect();
        let name = Symbol::name("Out");
        let op_then_pi: Vec<Table> = ops::split(&t, &on, name)
            .into_iter()
            .map(|x| x.map_symbols(permute))
            .collect();
        let pi_then_op = ops::split(&t.map_symbols(permute), &on, name);
        prop_assert_eq!(op_then_pi, pi_then_op);
    }

    #[test]
    fn whole_programs_are_generic(db in arb_database()) {
        // A representative program using wildcards over all tables.
        let program = tables_paradigm::algebra::parser::parse(
            "*1 <- TRANSPOSE(*1)
             *1 <- CLEANUP[by {*} on {_}](*1)",
        ).expect("parses");
        let limits = EvalLimits::default();
        let run_then_pi = run_governed_traced(&program, &db, &Budget::from_limits(&limits))
            .expect("runs").0
            .map_symbols(permute);
        let pi_then_run = run_governed_traced(&program, &db.map_symbols(permute), &Budget::from_limits(&limits)).expect("runs").0;
        prop_assert!(run_then_pi.equiv(&pi_then_run));
    }

    #[test]
    fn switch_is_generic_per_entry(t in arb_table()) {
        // Switching on value v before permuting equals switching on π(v)
        // after permuting — the data parameter is permuted along.
        let name = Symbol::name("Out");
        for i in 1..=t.height() {
            for j in 1..=t.width() {
                let v = t.get(i, j);
                let lhs = ops::switch(&t, v, name).map_symbols(permute);
                let rhs = ops::switch(&t.map_symbols(permute), permute(v), name);
                prop_assert_eq!(&lhs, &rhs);
            }
        }
    }
}

/// Tagging operations are generic only up to the *choice* of new values
/// (condition (iv), determinacy) — checked by comparing shapes and the
/// non-fresh content.
#[test]
fn tagging_is_generic_up_to_fresh_choice() {
    let t = fixtures::sales_relation();
    let name = Symbol::name("Out");
    let a = ops::tuple_new(&t, Symbol::name("Id"), name).map_symbols(permute);
    let b = ops::tuple_new(&t.map_symbols(permute), Symbol::name("Id"), name);
    assert_eq!((a.height(), a.width()), (b.height(), b.width()));
    // Everything except the fresh column agrees.
    let a_body = a.select_cols(&(1..a.width()).collect::<Vec<_>>());
    let b_body = b.select_cols(&(1..b.width()).collect::<Vec<_>>());
    assert_eq!(a_body, b_body);
}
