//! **Theorem 4.1** at the integration level: `FO + while + new` programs
//! agree between the reference interpreter and the compiled tabular
//! algebra program, on fixed workloads and on randomized inputs.

mod common;

use tables_paradigm::prelude::*;
use tables_paradigm::relational::compile::run_compiled;
use tables_paradigm::relational::program::transitive_closure_program;

fn agree(p: &FoProgram, db: &RelDatabase, outputs: &[&str]) {
    let direct = p.run(db, 10_000).expect("direct run");
    let (via_ta, _, _) = run_compiled(p, db, outputs, &Budget::default()).expect("TA run");
    for out in outputs {
        assert!(
            direct
                .get_str(out)
                .expect("direct output")
                .equiv(via_ta.get_str(out).expect("TA output")),
            "output {out} differs"
        );
    }
}

#[test]
fn algebra_operations_agree_on_randomized_inputs() {
    type NamedProgram = (&'static str, fn() -> FoProgram);
    let programs: Vec<NamedProgram> = vec![
        ("union", || {
            FoProgram::new().assign("Out", RelExpr::rel("R").union(RelExpr::rel("S")))
        }),
        ("difference", || {
            FoProgram::new().assign("Out", RelExpr::rel("R").minus(RelExpr::rel("S")))
        }),
        ("join", || {
            FoProgram::new().assign(
                "Out",
                RelExpr::rel("R")
                    .times(RelExpr::rel("S").rename("A", "C").rename("B", "D"))
                    .select("B", "C")
                    .project(&["A", "D"]),
            )
        }),
        ("composition", || {
            FoProgram::new()
                .assign("T1", RelExpr::rel("R").project(&["A"]))
                .assign("T2", RelExpr::rel("S").project(&["A"]))
                .assign("Out", RelExpr::rel("T1").minus(RelExpr::rel("T2")))
        }),
        ("self-join-select", || {
            FoProgram::new().assign("Out", RelExpr::rel("R").select("A", "B"))
        }),
    ];

    let mut runner = proptest::test_runner::TestRunner::new(proptest::test_runner::Config {
        cases: 24,
        ..Default::default()
    });
    runner
        .run(&common::arb_rel_database(), |db| {
            for (_name, mk) in &programs {
                agree(&mk(), &db, &["Out"]);
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn transitive_closure_agrees_on_random_graphs() {
    let edges = proptest::collection::vec((0u8..5, 0u8..5), 0..10);
    let mut runner = proptest::test_runner::TestRunner::new(proptest::test_runner::Config {
        cases: 16,
        ..Default::default()
    });
    runner
        .run(&edges, |pairs| {
            let mut e = Relation::new("E", &["From", "To"], &[]);
            for (a, b) in pairs {
                e.insert(vec![
                    Symbol::value(&format!("n{a}")),
                    Symbol::value(&format!("n{b}")),
                ])
                .expect("arity");
            }
            let db = RelDatabase::from_relations([e]);
            agree(&transitive_closure_program(), &db, &["TC"]);
            Ok(())
        })
        .unwrap();
}

#[test]
fn transitive_closure_on_known_graphs() {
    // A chain, a cycle, and a diamond.
    let cases: Vec<(&[(&str, &str)], usize)> = vec![
        (&[("a", "b"), ("b", "c"), ("c", "d")], 6),
        (&[("a", "b"), ("b", "a")], 4),
        (&[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], 5),
    ];
    for (edges, expected) in cases {
        let mut e = Relation::new("E", &["From", "To"], &[]);
        for (a, b) in edges {
            e.insert(vec![Symbol::value(a), Symbol::value(b)]).unwrap();
        }
        let db = RelDatabase::from_relations([e]);
        let direct = transitive_closure_program().run(&db, 1000).unwrap();
        assert_eq!(direct.get_str("TC").unwrap().len(), expected);
        agree(&transitive_closure_program(), &db, &["TC"]);
    }
}

#[test]
fn new_values_agree_up_to_isomorphism() {
    use tables_paradigm::relational::canonicalize_fresh;
    let db = RelDatabase::from_relations([Relation::new(
        "R",
        &["A", "B"],
        &[&["1", "2"], &["3", "4"], &["5", "6"]],
    )]);
    let p = FoProgram::new()
        .new_ids("Tagged", "R", "Id")
        .assign("Out", RelExpr::rel("Tagged").project(&["A", "Id"]));
    let direct = canonicalize_fresh(&p.run(&db, 100).unwrap());
    let via_ta = canonicalize_fresh(
        &run_compiled(&p, &db, &["Out"], &Budget::default())
            .unwrap()
            .0,
    );
    assert!(direct
        .get_str("Out")
        .unwrap()
        .equiv(via_ta.get_str("Out").unwrap()));
}

#[test]
fn while_program_with_data_dependent_iteration_count() {
    // Strip one "layer" per iteration: delete tuples whose A appears as a
    // B elsewhere, until fixpoint. Iteration count depends on the data.
    let peel = FoProgram::new()
        .assign("Cur", RelExpr::rel("R"))
        .assign("Blocked", {
            // Tuples (A,B) with A occurring in some B column.
            RelExpr::rel("Cur")
                .times(RelExpr::rel("Cur").rename("A", "A2").rename("B", "B2"))
                .select("A", "B2")
                .project(&["A", "B"])
        })
        .assign("Delta", RelExpr::rel("Blocked"))
        .while_nonempty(
            "Delta",
            FoProgram::new()
                .assign("Cur", RelExpr::rel("Cur").minus(RelExpr::rel("Blocked")))
                .assign("Blocked", {
                    RelExpr::rel("Cur")
                        .times(RelExpr::rel("Cur").rename("A", "A2").rename("B", "B2"))
                        .select("A", "B2")
                        .project(&["A", "B"])
                })
                .assign("Delta", RelExpr::rel("Blocked")),
        );
    let db = RelDatabase::from_relations([Relation::new(
        "R",
        &["A", "B"],
        &[&["1", "2"], &["2", "3"], &["3", "4"], &["9", "9"]],
    )]);
    agree(&peel, &db, &["Cur"]);
}
