//! **Theorem 4.1**: the language `FO + while + new` can be simulated
//! within the tabular algebra.
//!
//! The compiler realizes the theorem constructively: every `FO + while +
//! new` program is translated, statement by statement, into a tabular
//! algebra [`Program`] over the natural tabular representation of the
//! relational database (relations ↦ tables with ⊥ row attributes):
//!
//! * classical union   ↦ tabular union + purge + clean-up (paper §3.4);
//! * difference        ↦ tabular difference (classical on relational
//!   tables, since mutual subsumption coincides with tuple equality);
//! * product, σ, π, ρ  ↦ their tabular counterparts, with a clean-up after
//!   projection to restore set semantics;
//! * `new`             ↦ tuple-new;
//! * `while`           ↦ the TA `while` construct.
//!
//! Each expression compiles into its destination: a stored relation is
//! read where it stands, the outermost operation of an assignment writes
//! the assigned relation, and only sub-expressions get reserved-namespace
//! scratch tables. So `TC := TC ∪ Delta` compiles to the one statement
//! `TC ← CLASSICALUNION(TC, Delta)`. [`run_compiled`] reads back only the
//! requested output relations.

use crate::error::Result;
use crate::expr::RelExpr;
use crate::program::{FoProgram, FoStatement};
use crate::relation::RelDatabase;
use tabular_algebra::derived::Emitter;
use tabular_algebra::param::Item;
use tabular_algebra::{Budget, EvalStats, OpKind, Param, Program, Trace};
use tabular_core::Symbol;

/// Compiler state: a statement emitter with scratch names.
struct Compiler {
    e: Emitter,
    anchor: Option<Symbol>,
}

impl Compiler {
    fn fresh(&mut self) -> Symbol {
        self.e.fresh()
    }

    /// Emit `dest ← op(args)`, or into a fresh scratch name when there is
    /// no destination; returns the name written.
    fn put(&mut self, dest: Option<Symbol>, op: OpKind, args: &[Symbol]) -> Symbol {
        let target = dest.unwrap_or_else(|| self.fresh());
        self.e.assign(target, op, args);
        target
    }

    /// A value already held by `name`, delivered to `dest`: a copy when
    /// there is a destination, `name` itself otherwise.
    fn deliver(&mut self, name: Symbol, dest: Option<Symbol>) -> Symbol {
        match dest {
            Some(_) => self.put(dest, OpKind::Copy, &[name]),
            None => name,
        }
    }

    /// Compile an expression into `dest`, or, without one, wherever its
    /// value is cheapest to hold: a stored relation where it stands, any
    /// other value in a fresh scratch table. Only the expression's
    /// outermost operation writes `dest`, after every operand is read.
    /// Returns the name holding the value.
    fn compile_expr(&mut self, expr: &RelExpr, dest: Option<Symbol>) -> Symbol {
        match expr {
            RelExpr::Rel(name) => self.deliver(*name, dest),
            RelExpr::Const { attr, value } => {
                // Constants are materialized with the §3.3 switch trick
                // (see `tabular_algebra::derived::Emitter::constant`),
                // anchored on a one-row table derived from the anchor
                // relation. The construction transiently *names* a table
                // the constant symbol; if that collides with a stored
                // relation, the relation is saved and restored around the
                // construction, so every read in place emitted after it
                // sees the relation again. With an empty anchor the
                // constant compiles to the empty relation — TA cannot
                // create occurrences out of nothing.
                let c = match self.anchor {
                    Some(anchor) => {
                        let one = self.e.one_row(anchor);
                        let saved = self.put(None, OpKind::Copy, &[*value]);
                        let c = self.e.constant(*value, *attr, one);
                        self.e.assign(*value, OpKind::Copy, &[saved]);
                        c
                    }
                    // No stored relation to bootstrap from: the constant
                    // compiles to an absent table; reading the output
                    // will report the missing relation.
                    None => self.fresh(),
                };
                self.deliver(c, dest)
            }
            RelExpr::Union(l, r) => self.binary(OpKind::ClassicalUnion, l, r, dest),
            RelExpr::Difference(l, r) => self.binary(OpKind::Difference, l, r, dest),
            RelExpr::Product(l, r) => self.binary(OpKind::Product, l, r, dest),
            RelExpr::Select { expr, a, b } => {
                let s = self.compile_expr(expr, None);
                let op = OpKind::Select {
                    a: Param::sym(*a),
                    b: Param::sym(*b),
                };
                self.put(dest, op, &[s])
            }
            RelExpr::SelectConst { expr, a, v } => {
                let s = self.compile_expr(expr, None);
                let op = OpKind::SelectConst {
                    a: Param::sym(*a),
                    v: Param::sym(*v),
                };
                self.put(dest, op, &[s])
            }
            RelExpr::Project { expr, attrs } => {
                let attrs = Param {
                    positive: attrs.iter().map(|a| Item::Sym(*a)).collect(),
                    negative: vec![],
                };
                self.project(expr, attrs, dest)
            }
            RelExpr::ProjectAway { expr, attrs } => {
                let attrs = Param {
                    positive: vec![Item::Star(0)],
                    negative: attrs.iter().map(|a| Item::Sym(*a)).collect(),
                };
                self.project(expr, attrs, dest)
            }
            RelExpr::Rename { expr, from, to } => {
                let s = self.compile_expr(expr, None);
                let op = OpKind::Rename {
                    from: Param::sym(*from),
                    to: Param::sym(*to),
                };
                self.put(dest, op, &[s])
            }
        }
    }

    fn binary(&mut self, op: OpKind, l: &RelExpr, r: &RelExpr, dest: Option<Symbol>) -> Symbol {
        let (sl, sr) = (self.compile_expr(l, None), self.compile_expr(r, None));
        self.put(dest, op, &[sl, sr])
    }

    /// Projection may create duplicate rows; clean-up restores set
    /// semantics (clean-up generalizes duplicate elimination, paper §3.4).
    fn project(&mut self, expr: &RelExpr, attrs: Param, dest: Option<Symbol>) -> Symbol {
        let s = self.compile_expr(expr, None);
        let projected = self.put(None, OpKind::Project { attrs }, &[s]);
        let cleanup = OpKind::CleanUp {
            by: Param::star(),
            on: Param::null(),
        };
        self.put(dest, cleanup, &[projected])
    }

    fn compile_statements(&mut self, stmts: &[FoStatement]) {
        for stmt in stmts {
            match stmt {
                FoStatement::Assign { target, expr } => {
                    self.compile_expr(expr, Some(*target));
                }
                FoStatement::New {
                    target,
                    source,
                    attr,
                } => {
                    self.e.assign(
                        *target,
                        OpKind::TupleNew {
                            attr: Param::sym(*attr),
                        },
                        &[*source],
                    );
                }
                FoStatement::While { cond, body } => {
                    // Move the emitter into a scope where the body compiles
                    // into the loop; the shared counter keeps scratch names
                    // unique across nesting levels.
                    let anchor = self.anchor;
                    self.e.while_nonempty(*cond, |inner_emitter| {
                        let mut inner = Compiler {
                            e: std::mem::take(inner_emitter),
                            anchor,
                        };
                        inner.compile_statements(body);
                        *inner_emitter = inner.e;
                    });
                }
            }
        }
    }
}

/// Compile an `FO + while + new` program into an equivalent tabular
/// algebra program (Theorem 4.1).
pub fn compile(p: &FoProgram) -> Program {
    // The anchor for constant construction: the first stored relation the
    // program reads (constants need *some* non-empty table to bootstrap a
    // row from; see the Const arm above).
    let mut anchors = Vec::new();
    collect_inputs(&p.statements, &mut anchors);
    let mut c = Compiler {
        e: Emitter::new(),
        anchor: anchors.first().copied(),
    };
    c.compile_statements(&p.statements);
    c.e.into_program()
}

fn collect_inputs(stmts: &[FoStatement], out: &mut Vec<Symbol>) {
    for stmt in stmts {
        match stmt {
            FoStatement::Assign { expr, .. } => expr.inputs(out),
            FoStatement::New { source, .. } => {
                if !out.contains(source) {
                    out.push(*source);
                }
            }
            FoStatement::While { body, .. } => collect_inputs(body, out),
        }
    }
}

/// Run an `FO + while + new` program *through the tabular algebra* under
/// `budget`: embed the database, run the compiled program, and read the
/// requested output relations back. Also returns the tabular evaluator's
/// statistics and structured trace (spans describe the *compiled* TA
/// statements, so the breakdown shows what the Theorem 4.1 simulation
/// actually paid for each source-level construct). A budget trip surfaces
/// as [`tabular_algebra::AlgebraError::BudgetExceeded`] carrying the
/// partial stats and trace of the compiled run.
pub fn run_compiled(
    p: &FoProgram,
    db: &RelDatabase,
    outputs: &[&str],
    budget: &Budget,
) -> Result<(RelDatabase, EvalStats, Trace)> {
    let compiled = compile(p);
    let tabular = db.to_tabular();
    let (result, stats, trace) = tabular_algebra::run_governed_traced(&compiled, &tabular, budget)?;
    let names: Vec<Symbol> = outputs.iter().map(|n| Symbol::name(n)).collect();
    Ok((RelDatabase::from_tabular(&result, &names)?, stats, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{canonicalize_fresh, transitive_closure_program};
    use crate::relation::Relation;
    use tabular_algebra::{plan_with_rules, run_planned_governed_traced, EvalLimits, Rule};

    fn budget() -> Budget {
        Budget::default()
    }

    /// Check Theorem 4.1 on one program: direct evaluation and evaluation
    /// through the compiled tabular program agree on the outputs.
    fn simulate_and_compare(p: &FoProgram, db: &RelDatabase, outputs: &[&str]) {
        let direct = p.run(db, 10_000).unwrap();
        let (via_ta, _, _) = run_compiled(p, db, outputs, &budget()).unwrap();
        for out in outputs {
            let d = direct.get_str(out).unwrap();
            let t = via_ta.get_str(out).unwrap();
            assert!(
                d.equiv(t),
                "output {out} differs\ndirect:\n{d:?}\nvia TA:\n{t:?}"
            );
        }
    }

    fn sample_db() -> RelDatabase {
        RelDatabase::from_relations([
            Relation::new("R", &["A", "B"], &[&["1", "2"], &["2", "2"], &["3", "4"]]),
            Relation::new("S", &["A", "B"], &[&["1", "2"], &["5", "6"]]),
        ])
    }

    #[test]
    fn simulates_union_difference() {
        let p = FoProgram::new()
            .assign("U", RelExpr::rel("R").union(RelExpr::rel("S")))
            .assign("D", RelExpr::rel("R").minus(RelExpr::rel("S")));
        simulate_and_compare(&p, &sample_db(), &["U", "D"]);
    }

    #[test]
    fn simulates_product_select_project_rename() {
        let p = FoProgram::new().assign(
            "J",
            RelExpr::rel("R")
                .times(RelExpr::rel("S").rename("A", "C").rename("B", "D"))
                .select("B", "D")
                .project(&["A", "C"]),
        );
        simulate_and_compare(&p, &sample_db(), &["J"]);
    }

    #[test]
    fn simulates_select_const() {
        let p = FoProgram::new().assign("C", RelExpr::rel("R").select_const("B", "2"));
        simulate_and_compare(&p, &sample_db(), &["C"]);
    }

    #[test]
    fn simulates_projection_with_duplicates() {
        // π_B(R) has duplicates pre-dedup; the compiled clean-up must
        // restore set semantics.
        let p = FoProgram::new().assign("P", RelExpr::rel("R").project(&["B"]));
        simulate_and_compare(&p, &sample_db(), &["P"]);
    }

    #[test]
    fn simulates_transitive_closure_with_while() {
        let db = RelDatabase::from_relations([Relation::new(
            "E",
            &["From", "To"],
            &[&["a", "b"], &["b", "c"], &["c", "d"], &["d", "a"]],
        )]);
        simulate_and_compare(&transitive_closure_program(), &db, &["TC"]);
        // A cycle: TC is the full 4×4 square.
        let direct = transitive_closure_program().run(&db, 100).unwrap();
        assert_eq!(direct.get_str("TC").unwrap().len(), 16);
    }

    #[test]
    fn simulates_new_up_to_fresh_choice() {
        let db = RelDatabase::from_relations([Relation::new("R", &["A"], &[&["1"], &["2"]])]);
        let p = FoProgram::new().new_ids("T", "R", "Id");
        let direct = canonicalize_fresh(&p.run(&db, 100).unwrap());
        let via_ta = canonicalize_fresh(&run_compiled(&p, &db, &["T"], &budget()).unwrap().0);
        assert!(direct
            .get_str("T")
            .unwrap()
            .equiv(via_ta.get_str("T").unwrap()));
    }

    #[test]
    fn simulates_constants() {
        // Tag every R-tuple with a constant marker column.
        let p = FoProgram::new().assign(
            "M",
            RelExpr::rel("R").times(RelExpr::constant("Mark", "yes")),
        );
        simulate_and_compare(&p, &sample_db(), &["M"]);
    }

    #[test]
    fn simulates_name_constant_colliding_with_a_relation() {
        // The constant's transient scratch table is named like the stored
        // relation S; the compiled program must save and restore S. `Both`
        // reads S in place before the constant (through the rename) and
        // after it (the outer product), so both reads must see S itself.
        let p = FoProgram::new()
            .assign(
                "M",
                RelExpr::rel("R").times(RelExpr::constant("Mark", "n:S")),
            )
            .assign("Check", RelExpr::rel("S"))
            .assign(
                "Both",
                RelExpr::rel("S")
                    .rename("A", "A2")
                    .rename("B", "B2")
                    .times(RelExpr::constant("Mark", "n:S"))
                    .times(RelExpr::rel("S")),
            );
        simulate_and_compare(&p, &sample_db(), &["M", "Check", "Both"]);
    }

    #[test]
    fn compiled_program_is_structural() {
        // Compilation does not look at data: the same program compiles to
        // the same number of statements regardless of the database.
        let p = transitive_closure_program();
        let c1 = compile(&p);
        let c2 = compile(&p);
        assert_eq!(c1.len(), c2.len());
        assert!(c1.len() >= 10);
    }

    /// Every expression compiles into its destination, so the closure's
    /// loop body stages no copies and ends in the union the delta
    /// engine extends incrementally.
    #[test]
    fn compiled_closure_body_holds_no_copy() {
        let compiled = compile(&transitive_closure_program());
        let Some(tabular_algebra::Statement::While { body, .. }) = compiled.statements.last()
        else {
            panic!("the closure ends in its loop: {compiled:?}");
        };
        assert_eq!(body.len(), 10, "{body:?}");
        let ops: Vec<&OpKind> = body
            .iter()
            .map(|s| match s {
                tabular_algebra::Statement::Assign(a) => &a.op,
                tabular_algebra::Statement::While { .. } => panic!("no nested loop"),
            })
            .collect();
        assert!(!ops.iter().any(|op| matches!(op, OpKind::Copy)), "{body:?}");
        let tabular_algebra::Statement::Assign(last) = &body[9] else {
            unreachable!("checked above");
        };
        assert!(matches!(last.op, OpKind::ClassicalUnion));
        assert_eq!(last.target, Param::name("TC"));
        assert_eq!(last.args, vec![Param::name("TC"), Param::name("Delta")]);
    }

    #[test]
    fn planned_run_agrees_with_direct_and_rewrites_compiled_scratch() {
        // Transitive closure compiles into a PRODUCT-into-scratch +
        // SELECT pair — a shape the planner rewrites. The planned run
        // must agree with direct FO evaluation and report at least one
        // rewrite.
        let program = transitive_closure_program();
        let db = RelDatabase::from_relations([Relation::new(
            "E",
            &["From", "To"],
            &[&["a", "b"], &["b", "c"], &["c", "d"]],
        )]);
        let direct = program.run(&db, 1000).unwrap();
        let (result, stats, _, report) =
            run_planned_governed_traced(&compile(&program), &db.to_tabular(), &budget()).unwrap();
        let planned = RelDatabase::from_tabular(&result, &[Symbol::name("TC")]).unwrap();
        assert!(direct
            .get_str("TC")
            .unwrap()
            .equiv(planned.get_str("TC").unwrap()));
        assert!(report.rules_applied() >= 1, "compiled scratch rewrites");
        assert_eq!(stats.plan_rules_applied, report.rules_applied());
        assert_eq!(stats.plans_rewritten, report.statements_rewritten);
    }

    #[test]
    fn optimizer_shrinks_compiled_programs_and_preserves_outputs() {
        let program = transitive_closure_program();
        let compiled = compile(&program);
        let optimized = plan_with_rules(
            &compiled,
            None,
            &[Rule::FuseJoin, Rule::FuseRestructure, Rule::EliminateDead],
        )
        .0;
        assert!(
            optimized.len() < compiled.len(),
            "optimizer should fuse the compiled join: {} vs {}",
            optimized.len(),
            compiled.len()
        );
        // The loop body's σ_{Mid=Mid2}(TC' × E') compiles to a PRODUCT into
        // single-use scratch followed by the SELECT, so the optimizer must
        // rewrite the pair into the fused hash-join operator — and since
        // that is the only product the compiler emits, none may survive.
        fn count(stmts: &[tabular_algebra::Statement], pred: fn(&OpKind) -> bool) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    tabular_algebra::Statement::Assign(a) => usize::from(pred(&a.op)),
                    tabular_algebra::Statement::While { body, .. } => count(body, pred),
                })
                .sum()
        }
        let fused = count(&optimized.statements, |op| {
            matches!(op, OpKind::FusedJoin { .. })
        });
        let products = count(&optimized.statements, |op| matches!(op, OpKind::Product));
        assert!(fused >= 1, "compiled TC's SELECT ∘ PRODUCT should fuse");
        assert_eq!(products, 0, "no unfused PRODUCT should survive");
        let db = RelDatabase::from_relations([Relation::new(
            "E",
            &["From", "To"],
            &[&["a", "b"], &["b", "c"]],
        )]);
        let direct = program.run(&db, 1000).unwrap();
        let tabular = db.to_tabular();
        let (result, _, _) =
            tabular_algebra::run_governed_traced(&optimized, &tabular, &budget()).unwrap();
        let via_opt =
            RelDatabase::from_tabular(&result, &[tabular_core::Symbol::name("TC")]).unwrap();
        assert!(direct
            .get_str("TC")
            .unwrap()
            .equiv(via_opt.get_str("TC").unwrap()));
    }

    #[test]
    fn traced_compilation_exposes_per_op_breakdown() {
        let db = RelDatabase::from_relations([Relation::new(
            "E",
            &["From", "To"],
            &[&["a", "b"], &["b", "c"], &["c", "d"]],
        )]);
        let traced = EvalLimits {
            trace: tabular_algebra::TraceLevel::Spans,
            ..EvalLimits::default()
        };
        let (out, stats, trace) = run_compiled(
            &transitive_closure_program(),
            &db,
            &["TC"],
            &Budget::from_limits(&traced),
        )
        .unwrap();
        assert!(out.get_str("TC").is_some());
        assert_eq!(trace.per_op_micros(), stats.op_micros);
        // The Theorem 4.1 compilation of TC runs products and differences
        // inside the loop; the trace must show them.
        assert!(stats.op_counts.contains_key("PRODUCT"));
        assert!(trace.spans().any(|s| s.op == "PRODUCT"));
    }

    #[test]
    fn empty_input_relations_work() {
        let db = RelDatabase::from_relations([Relation::new("E", &["From", "To"], &[])]);
        simulate_and_compare(&transitive_closure_program(), &db, &["TC"]);
    }
}
