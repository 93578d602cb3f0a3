//! **Theorem 4.1** at the integration level: `FO + while + new` programs
//! agree between the reference interpreter and the compiled tabular
//! algebra program, on fixed workloads and on randomized inputs, and the
//! compiled program leaves the same store under every `while` strategy,
//! planned or not.

mod common;

use tables_paradigm::algebra::EvalStats;
use tables_paradigm::core::interner;
use tables_paradigm::prelude::*;
use tables_paradigm::relational::canonicalize_fresh;
use tables_paradigm::relational::compile::{compile, run_compiled};
use tables_paradigm::relational::program::{transitive_closure_program, FoStatement};

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

type NamedProgram = (&'static str, fn() -> FoProgram);

/// One program per algebra operation, and a composition, over `R(A, B)`
/// and `S(A, B)`, each writing `Out`.
fn operation_programs() -> Vec<NamedProgram> {
    vec![
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
    ]
}

/// Run `check` on 24 random databases over `R(A, B)` and `S(A, B)`.
fn on_random_databases(check: impl Fn(&RelDatabase)) {
    let mut runner = proptest::test_runner::TestRunner::new(proptest::test_runner::Config {
        cases: 24,
        ..Default::default()
    });
    runner
        .run(&common::arb_rel_database(), |db| {
            check(&db);
            Ok(())
        })
        .unwrap();
}

/// Run `check` on 16 random graphs `E(From, To)` over five nodes.
fn on_random_graphs(check: impl Fn(&RelDatabase)) {
    let edges = proptest::collection::vec((0u8..5, 0u8..5), 0..10);
    let mut runner = proptest::test_runner::TestRunner::new(proptest::test_runner::Config {
        cases: 16,
        ..Default::default()
    });
    runner
        .run(&edges, |pairs| {
            let pairs: Vec<(String, String)> = pairs
                .into_iter()
                .map(|(a, b)| (format!("n{a}"), format!("n{b}")))
                .collect();
            check(&graph(&pairs));
            Ok(())
        })
        .unwrap();
}

/// The edge relation `E(From, To)` of a graph.
fn graph(edges: &[(impl AsRef<str>, impl AsRef<str>)]) -> RelDatabase {
    let mut e = Relation::new("E", &["From", "To"], &[]);
    for (a, b) in edges {
        e.insert(vec![Symbol::value(a.as_ref()), Symbol::value(b.as_ref())])
            .expect("arity");
    }
    RelDatabase::from_relations([e])
}

#[test]
fn algebra_operations_agree_on_randomized_inputs() {
    on_random_databases(|db| {
        for (_name, mk) in operation_programs() {
            agree(&mk(), db, &["Out"]);
        }
    });
}

#[test]
fn transitive_closure_agrees_on_random_graphs() {
    on_random_graphs(|db| agree(&transitive_closure_program(), db, &["TC"]));
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
        let db = graph(edges);
        let direct = transitive_closure_program().run(&db, 1000).unwrap();
        assert_eq!(direct.get_str("TC").unwrap().len(), expected);
        agree(&transitive_closure_program(), &db, &["TC"]);
    }
}

/// Tag every `R`-tuple with a fresh id, then project the ids out.
fn tagging_program() -> FoProgram {
    FoProgram::new()
        .new_ids("Tagged", "R", "Id")
        .assign("Out", RelExpr::rel("Tagged").project(&["A", "Id"]))
}

fn tagging_db() -> RelDatabase {
    RelDatabase::from_relations([Relation::new(
        "R",
        &["A", "B"],
        &[&["1", "2"], &["3", "4"], &["5", "6"]],
    )])
}

#[test]
fn new_values_agree_up_to_isomorphism() {
    let (p, db) = (tagging_program(), tagging_db());
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

/// Strip one "layer" per iteration: delete tuples whose A appears as a
/// B elsewhere, until fixpoint. Iteration count depends on the data.
fn peel_program() -> FoProgram {
    FoProgram::new()
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
        )
}

fn peel_db() -> RelDatabase {
    RelDatabase::from_relations([Relation::new(
        "R",
        &["A", "B"],
        &[&["1", "2"], &["2", "3"], &["3", "4"], &["9", "9"]],
    )])
}

#[test]
fn while_program_with_data_dependent_iteration_count() {
    agree(&peel_program(), &peel_db(), &["Cur"]);
}

/// How a compiled program runs: naive iteration, the delta engine, or the
/// delta engine over the planned program.
#[derive(Clone, Copy, Debug)]
enum Run {
    Naive,
    Delta,
    Planned,
}

fn run_as(compiled: &Program, db: &Database, how: Run) -> (Database, EvalStats) {
    let strategy = match how {
        Run::Naive => WhileStrategy::Naive,
        Run::Delta | Run::Planned => WhileStrategy::Delta,
    };
    let budget = Budget::from_limits(&EvalLimits {
        while_strategy: strategy,
        ..EvalLimits::default()
    });
    let run = match how {
        Run::Planned => run_planned_governed_traced(compiled, db, &budget)
            .map(|(out, stats, _, _)| (out, stats)),
        Run::Naive | Run::Delta => {
            run_governed_traced(compiled, db, &budget).map(|(out, stats, _)| (out, stats))
        }
    };
    run.unwrap_or_else(|e| panic!("{how:?} run of\n{compiled:?}\nfailed: {e}"))
}

/// The tables a program can name, exactly as stored, store order
/// included. Reserved-namespace scratch tables are left out: the planner
/// fuses some of them away.
fn visible_tables(db: &Database) -> Vec<Table> {
    db.tables()
        .iter()
        .filter(|t| !t.name().text().is_some_and(interner::is_reserved))
        .cloned()
        .collect()
}

fn creates_values(stmts: &[FoStatement]) -> bool {
    stmts.iter().any(|s| match s {
        FoStatement::Assign { .. } => false,
        FoStatement::New { .. } => true,
        FoStatement::While { body, .. } => creates_values(body),
    })
}

/// Theorem 4.1 across strategies: `p` agrees with its compilation, and
/// the compiled program leaves the same store under Naive, Delta and
/// Delta + plan — every table, store order included, under Naive and
/// Delta, and every visible table under Delta + plan. A program that
/// creates values is compared on its outputs up to the choice of the
/// new values. Returns the stats of the Delta and the planned runs.
fn agree_across_strategies(
    p: &FoProgram,
    db: &RelDatabase,
    outputs: &[&str],
) -> (EvalStats, EvalStats) {
    let compiled = compile(p);
    let tabular = db.to_tabular();
    let [(naive, _), (delta, delta_stats), (planned, planned_stats)] =
        [Run::Naive, Run::Delta, Run::Planned].map(|how| run_as(&compiled, &tabular, how));
    if creates_values(&p.statements) {
        let direct = canonicalize_fresh(&p.run(db, 10_000).expect("direct run"));
        let names: Vec<Symbol> = outputs.iter().map(|n| Symbol::name(n)).collect();
        for (how, out) in [
            (Run::Naive, &naive),
            (Run::Delta, &delta),
            (Run::Planned, &planned),
        ] {
            let got = RelDatabase::from_tabular(out, &names).expect("outputs");
            let got = canonicalize_fresh(&got);
            for out in outputs {
                let (want, got) = (direct.get_str(out), got.get_str(out));
                assert!(
                    want.zip(got).is_some_and(|(w, g)| w.equiv(g)),
                    "{how:?}: output {out} differs from direct evaluation"
                );
            }
        }
    } else {
        agree(p, db, outputs);
        assert_eq!(naive.tables(), delta.tables(), "Delta differs from Naive");
        assert_eq!(
            visible_tables(&naive),
            visible_tables(&planned),
            "Delta + plan differs from Naive"
        );
    }
    (delta_stats, planned_stats)
}

/// The Theorem 4.1 oracle: compiled = direct, and Naive = Delta = Delta +
/// plan on the compiled program, for the compiled closure over a fixed
/// chain and every randomized generator above. On the chain, the
/// closure's union `TC ← CLASSICALUNION(TC, Delta)` extends `TC`
/// incrementally, planned or not.
#[test]
fn compiled_programs_agree_across_strategies() {
    let chain: Vec<(String, String)> = (0..12)
        .map(|i| (format!("n{i}"), format!("n{}", i + 1)))
        .collect();
    let (delta, planned) =
        agree_across_strategies(&transitive_closure_program(), &graph(&chain), &["TC"]);
    for (how, stats) in [(Run::Delta, delta), (Run::Planned, planned)] {
        assert!(
            stats
                .incremental_op_counts
                .get("CLASSICALUNION")
                .is_some_and(|&n| n > 0),
            "{how:?}: the compiled closure's union ran no incremental arm: {:?}",
            stats.incremental_op_counts
        );
    }
    on_random_databases(|db| {
        for (_name, mk) in operation_programs() {
            agree_across_strategies(&mk(), db, &["Out"]);
        }
    });
    on_random_graphs(|db| {
        agree_across_strategies(&transitive_closure_program(), db, &["TC"]);
    });
    agree_across_strategies(&tagging_program(), &tagging_db(), &["Out"]);
    agree_across_strategies(&peel_program(), &peel_db(), &["Cur"]);
}
