//! The language `FO + while + new` (paper §3.5 / §4.1, citing Van den
//! Bussche et al. \[3\]): relational algebra assignments, an iteration
//! construct, and tuple-level object creation. This is the source language
//! of the Theorem 4.1 simulation and the engine behind the canonical-
//! representation normal form of Theorem 4.4.

use crate::error::{RelError, Result};
use crate::expr::RelExpr;
use crate::relation::{RelDatabase, Relation};
use tabular_core::{interner, Symbol};

/// A statement of `FO + while + new`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FoStatement {
    /// `T := expr`.
    Assign {
        /// Result relation name.
        target: Symbol,
        /// Right-hand side.
        expr: RelExpr,
    },
    /// `T := new_attr(source)`: extend `source` with a fresh value per
    /// tuple under a new attribute (object creation).
    New {
        /// Result relation name.
        target: Symbol,
        /// Source relation name.
        source: Symbol,
        /// New attribute.
        attr: Symbol,
    },
    /// `while cond ≠ ∅ do body od`.
    While {
        /// Loop condition: a relation name.
        cond: Symbol,
        /// Loop body.
        body: Vec<FoStatement>,
    },
}

/// An `FO + while + new` program.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FoProgram {
    /// Statements, executed in order.
    pub statements: Vec<FoStatement>,
}

impl FoProgram {
    /// Empty program.
    pub fn new() -> FoProgram {
        FoProgram::default()
    }

    /// Builder: assignment.
    pub fn assign(mut self, target: &str, expr: RelExpr) -> FoProgram {
        self.statements.push(FoStatement::Assign {
            target: Symbol::name(target),
            expr,
        });
        self
    }

    /// Builder: object creation.
    pub fn new_ids(mut self, target: &str, source: &str, attr: &str) -> FoProgram {
        self.statements.push(FoStatement::New {
            target: Symbol::name(target),
            source: Symbol::name(source),
            attr: Symbol::name(attr),
        });
        self
    }

    /// Builder: while loop.
    pub fn while_nonempty(mut self, cond: &str, body: FoProgram) -> FoProgram {
        self.statements.push(FoStatement::While {
            cond: Symbol::name(cond),
            body: body.statements,
        });
        self
    }

    /// Builder: the inflationary fixpoint of `rules` into `acc`. One step
    /// `derived := rules; delta := derived − acc; acc := acc ∪ delta` runs
    /// once, then again while `delta ≠ ∅`. `derived` and `delta` name the
    /// step's scratch relations.
    pub fn fixpoint(self, acc: &str, rules: RelExpr, derived: &str, delta: &str) -> FoProgram {
        let step = |p: FoProgram| {
            p.assign(derived, rules.clone())
                .assign(delta, RelExpr::rel(derived).minus(RelExpr::rel(acc)))
                .assign(acc, RelExpr::rel(acc).union(RelExpr::rel(delta)))
        };
        let body = step(FoProgram::new());
        step(self).while_nonempty(delta, body)
    }

    /// Run the program directly on a relational database (the reference
    /// semantics). `max_while_iters` bounds every loop.
    pub fn run(&self, db: &RelDatabase, max_while_iters: usize) -> Result<RelDatabase> {
        let mut state = db.clone();
        run_statements(&self.statements, &mut state, max_while_iters)?;
        Ok(state)
    }
}

fn run_statements(stmts: &[FoStatement], db: &mut RelDatabase, max_iters: usize) -> Result<()> {
    for stmt in stmts {
        match stmt {
            FoStatement::Assign { target, expr } => {
                let rel = expr.eval(db)?.with_name(*target);
                db.set(rel);
            }
            FoStatement::New {
                target,
                source,
                attr,
            } => {
                let src = db
                    .get(*source)
                    .ok_or(RelError::MissingRelation(*source))?
                    .clone();
                let mut attrs = src.attrs().to_vec();
                attrs.push(*attr);
                let mut out = Relation::empty(*target, attrs)?;
                for t in src.tuples() {
                    let mut row = t.clone();
                    row.push(Symbol::fresh_value());
                    out.insert(row)?;
                }
                db.set(out);
            }
            FoStatement::While { cond, body } => {
                let mut iters = 0usize;
                while db.get(*cond).is_some_and(|r| !r.is_empty()) {
                    iters += 1;
                    if iters > max_iters {
                        return Err(RelError::WhileLimit(max_iters));
                    }
                    run_statements(body, db, max_iters)?;
                }
            }
        }
    }
    Ok(())
}

/// Replace the machine-generated fresh values of a database by
/// position-canonical placeholders, so that two runs of a program with
/// `new` statements can be compared for equality *up to the choice of new
/// values* — the paper's determinacy condition (§4.1, condition (iv)).
///
/// Tuples are ordered by their non-fresh content; fresh values are then
/// numbered in order of first appearance. This yields a true canonical
/// form whenever tuples are distinguishable by their non-fresh parts
/// (which holds for tagging-style programs, where ids are attached to
/// existing tuples).
pub fn canonicalize_fresh(db: &RelDatabase) -> RelDatabase {
    let mut out = RelDatabase::new();
    for rel in db.relations() {
        let rel = rel.canonical();
        // Sort tuples by fresh-masked content.
        let masked = |t: &[Symbol]| -> Vec<Option<Symbol>> {
            t.iter()
                .map(|&s| match s.text() {
                    Some(text) if interner::is_reserved(text) => None,
                    _ => Some(s),
                })
                .collect()
        };
        let mut tuples: Vec<Vec<Symbol>> = rel.tuples().cloned().collect();
        tuples.sort_by(|a, b| {
            let (ma, mb) = (masked(a), masked(b));
            ma.iter()
                .zip(&mb)
                .map(|(x, y)| cmp_opt(*x, *y))
                .find(|c| *c != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut mapping: Vec<(Symbol, Symbol)> = Vec::new();
        let mut renumber = |s: Symbol| -> Symbol {
            match s.text() {
                Some(text) if interner::is_reserved(text) => {
                    if let Some((_, to)) = mapping.iter().find(|(from, _)| *from == s) {
                        *to
                    } else {
                        let to = Symbol::value(&format!("§{}", mapping.len()));
                        mapping.push((s, to));
                        to
                    }
                }
                _ => s,
            }
        };
        let mut canon = Relation::empty(rel.name(), rel.attrs().to_vec()).expect("attrs ok");
        for t in tuples {
            canon
                .insert(t.into_iter().map(&mut renumber).collect())
                .expect("arity preserved");
        }
        out.set(canon);
    }
    out
}

fn cmp_opt(a: Option<Symbol>, b: Option<Symbol>) -> std::cmp::Ordering {
    match (a, b) {
        (None, None) => std::cmp::Ordering::Equal,
        (None, Some(_)) => std::cmp::Ordering::Less,
        (Some(_), None) => std::cmp::Ordering::Greater,
        (Some(x), Some(y)) => x.canonical_cmp(y),
    }
}

/// The classic `FO + while` example: the transitive closure of an edge
/// relation `E(From, To)`, left in `TC(From, To)`. Used across tests and
/// benches as a canonical iterative workload.
pub fn transitive_closure_program() -> FoProgram {
    // TC := E
    // Delta := E
    // while Delta ≠ ∅ do
    //   Next  := π_{From,To}( σ_{To=Mid'} hmm — composed via rename/join )
    //   Step  := π_{From,To}(σ_{Mid=Mid2}(ρ(TC) × ρ(E)))
    //   Delta := Step \ TC
    //   TC    := TC ∪ Delta
    // od
    let step = RelExpr::rel("TC")
        .rename("To", "Mid")
        .times(RelExpr::rel("E").rename("From", "Mid2").rename("To", "To2"))
        .select("Mid", "Mid2")
        .project(&["From", "To2"])
        .rename("To2", "To");
    FoProgram::new()
        .assign("TC", RelExpr::rel("E"))
        .assign("Delta", RelExpr::rel("E"))
        .while_nonempty(
            "Delta",
            FoProgram::new()
                .assign("Step", step)
                .assign("Delta", RelExpr::rel("Step").minus(RelExpr::rel("TC")))
                .assign("TC", RelExpr::rel("TC").union(RelExpr::rel("Delta"))),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_and_while_compute_transitive_closure() {
        let db = RelDatabase::from_relations([Relation::new(
            "E",
            &["From", "To"],
            &[&["a", "b"], &["b", "c"], &["c", "d"]],
        )]);
        let out = transitive_closure_program().run(&db, 100).unwrap();
        let tc = out.get_str("TC").unwrap();
        assert_eq!(tc.len(), 6); // ab bc cd ac bd ad
        assert!(tc.contains(&[Symbol::value("a"), Symbol::value("d")]));
        assert!(!tc.contains(&[Symbol::value("d"), Symbol::value("a")]));
    }

    #[test]
    fn while_limit_guards_divergence() {
        // Body never empties the condition relation.
        let db = RelDatabase::from_relations([Relation::new("R", &["A"], &[&["1"]])]);
        let p =
            FoProgram::new().while_nonempty("R", FoProgram::new().assign("R", RelExpr::rel("R")));
        assert!(matches!(p.run(&db, 10), Err(RelError::WhileLimit(10))));
    }

    #[test]
    fn new_creates_distinct_ids_per_tuple() {
        let db = RelDatabase::from_relations([Relation::new("R", &["A"], &[&["1"], &["2"]])]);
        let p = FoProgram::new().new_ids("T", "R", "Id");
        let out = p.run(&db, 10).unwrap();
        let t = out.get_str("T").unwrap();
        assert_eq!(t.arity(), 2);
        assert_eq!(t.len(), 2);
        let ids: Vec<Symbol> = t.tuples().map(|tup| tup[1]).collect();
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn canonicalize_fresh_makes_runs_comparable() {
        let db = RelDatabase::from_relations([Relation::new("R", &["A"], &[&["1"], &["2"]])]);
        let p = FoProgram::new().new_ids("T", "R", "Id");
        let run1 = canonicalize_fresh(&p.run(&db, 10).unwrap());
        let run2 = canonicalize_fresh(&p.run(&db, 10).unwrap());
        assert!(run1.equiv(&run2));
    }

    #[test]
    fn canonicalize_fresh_keeps_ordinary_values() {
        let db = RelDatabase::from_relations([Relation::new("R", &["A"], &[&["1"]])]);
        let c = canonicalize_fresh(&db);
        assert!(c.get_str("R").unwrap().contains(&[Symbol::value("1")]));
    }
}
