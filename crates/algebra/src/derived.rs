//! Derived constructions: reusable tabular algebra program snippets built
//! from the primitive operations, in the spirit of the paper's derivations
//! (§3.3–3.4: duals via transposition, constant selection via switch,
//! classical union via purge + clean-up).
//!
//! The [`Emitter`] is a small statement builder handing out scratch table
//! names from the reserved namespace; the constructions here are used by
//! the Theorem 4.1 compiler (`tabular-relational`) and the Lemma 4.2
//! program generator (`tabular-canonical`).

use crate::param::Param;
use crate::program::{Assignment, OpKind, Program, Statement};
use tabular_core::Symbol;

/// A builder for tabular algebra statement sequences with fresh scratch
/// names.
#[derive(Default)]
pub struct Emitter {
    stmts: Vec<Statement>,
    counter: u32,
}

impl Emitter {
    /// Empty emitter.
    pub fn new() -> Emitter {
        Emitter::default()
    }

    /// A scratch table name from the reserved namespace, unique within
    /// this emitter.
    pub fn fresh(&mut self) -> Symbol {
        self.counter += 1;
        Symbol::name(&format!("\u{1F}t{}", self.counter))
    }

    /// Append `target ← op(args)`.
    pub fn assign(&mut self, target: Symbol, op: OpKind, args: &[Symbol]) {
        self.stmts.push(Statement::Assign(Assignment {
            target: Param::sym(target),
            op,
            args: args.iter().copied().map(Param::sym).collect(),
        }));
    }

    /// Append a raw statement.
    pub fn push(&mut self, stmt: Statement) {
        self.stmts.push(stmt);
    }

    /// Wrap previously-emitted statements: `while cond do body end` where
    /// `body` is built by the closure on a nested emitter sharing this
    /// emitter's name counter.
    pub fn while_nonempty(&mut self, cond: Symbol, body: impl FnOnce(&mut Emitter)) {
        let mut inner = Emitter {
            stmts: Vec::new(),
            counter: self.counter,
        };
        body(&mut inner);
        self.counter = inner.counter;
        self.stmts.push(Statement::While {
            cond: Param::sym(cond),
            body: inner.stmts,
        });
    }

    /// Derived: a zero-width, one-row table from any table with at least
    /// one ⊥-attributed data row — `PROJECT[{}]` keeps the rows and drops
    /// every column, after which all rows join under
    /// `CLEANUP[by {} on {_}]`.
    pub fn one_row(&mut self, src: Symbol) -> Symbol {
        let w1 = self.fresh();
        self.assign(
            w1,
            OpKind::Project {
                attrs: Param::default(),
            },
            &[src],
        );
        let w2 = self.fresh();
        self.assign(
            w2,
            OpKind::CleanUp {
                by: Param::default(),
                on: Param::null(),
            },
            &[w1],
        );
        w2
    }

    /// Derived: a 1×1 table whose single data entry is the *known symbol*
    /// `sym`, under column attribute `attr`, with ⊥ row attribute.
    ///
    /// Construction (§3.3): name a scratch table `sym`, tag it with one
    /// fresh value via tuple-new, and switch on that value — the switch
    /// swaps the fresh value into the name position (where it is
    /// overwritten by the next target) and drops the name `sym` into a
    /// data position. Transposition + renaming then normalize attributes.
    ///
    /// Note: the statement targeting `sym` transiently *replaces* any
    /// table named `sym`; copy user tables aside first.
    ///
    /// The construction is guarded: when `one_row` is empty (its source
    /// relation had no rows, so there is no occurrence to switch on), the
    /// whole chain is skipped and the returned name stays absent, which
    /// downstream operations read as the empty relation. Without the
    /// guard, SWITCH on the empty scratch table is a singleton-entry
    /// error, not an empty result.
    pub fn constant(&mut self, sym: Symbol, attr: Symbol, one_row: Symbol) -> Symbol {
        let guard = self.fresh();
        self.assign(guard, OpKind::Copy, &[one_row]);
        let mut result = None;
        self.while_nonempty(guard, |e| {
            let tmp_attr = e.fresh();
            e.assign(
                sym,
                OpKind::TupleNew {
                    attr: Param::sym(tmp_attr),
                },
                &[one_row],
            );
            let y = e.fresh();
            e.assign(
                y,
                OpKind::Switch {
                    entry: Param::pair(Param::null(), Param::sym(tmp_attr)),
                },
                &[sym],
            );
            let z = e.fresh();
            e.assign(
                z,
                OpKind::Rename {
                    from: Param::null(),
                    to: Param::sym(attr),
                },
                &[y],
            );
            let z2 = e.fresh();
            e.assign(z2, OpKind::Transpose, &[z]);
            let z3 = e.fresh();
            e.assign(
                z3,
                OpKind::Rename {
                    from: Param::sym(tmp_attr),
                    to: Param::null(),
                },
                &[z2],
            );
            let c = e.fresh();
            e.assign(c, OpKind::Transpose, &[z3]);
            // Exit the run-once guard loop.
            e.assign(guard, OpKind::Difference, &[guard, guard]);
            result = Some(c);
        });
        result.expect("guard body always emits the constant chain")
    }

    /// Fold a table into an accumulator with classical union.
    pub fn union_into(&mut self, acc: Option<Symbol>, next: Symbol) -> Symbol {
        match acc {
            None => next,
            Some(prev) => {
                let u = self.fresh();
                self.assign(u, OpKind::ClassicalUnion, &[prev, next]);
                u
            }
        }
    }

    /// Number of statements emitted so far.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// True if nothing emitted.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Finish, yielding the program.
    pub fn into_program(self) -> Program {
        Program {
            statements: self.stmts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::run_governed_traced;
    use crate::governor::Budget;
    use tabular_core::{Database, Symbol, Table};

    #[test]
    fn one_row_reduces_any_relational_table() {
        let mut e = Emitter::new();
        let src = Symbol::name("R");
        let one = e.one_row(src);
        let db = Database::from_tables([Table::relational("R", &["A"], &[&["1"], &["2"], &["3"]])]);
        let out = run_governed_traced(&e.into_program(), &db, &Budget::default())
            .unwrap()
            .0;
        let t = out.table(one).unwrap();
        assert_eq!(t.height(), 1);
        assert_eq!(t.width(), 0);
        assert!(t.get(1, 0).is_null());
    }

    #[test]
    fn constant_materializes_a_known_symbol_as_data() {
        let mut e = Emitter::new();
        let one = e.one_row(Symbol::name("R"));
        let c = e.constant(Symbol::name("Widget"), Symbol::name("Entry"), one);
        let db = Database::from_tables([Table::relational("R", &["A"], &[&["1"]])]);
        let out = run_governed_traced(&e.into_program(), &db, &Budget::default())
            .unwrap()
            .0;
        let t = out.table(c).unwrap();
        assert_eq!(t.height(), 1);
        assert_eq!(t.width(), 1);
        assert_eq!(t.col_attr(1), Symbol::name("Entry"));
        assert!(t.get(1, 0).is_null());
        assert_eq!(t.get(1, 1), Symbol::name("Widget"));
    }

    #[test]
    fn constant_overwrites_and_requires_prior_copies() {
        // The documented hazard: the constant's scratch table replaces any
        // user table with that name.
        let mut e = Emitter::new();
        let one = e.one_row(Symbol::name("R"));
        let _c = e.constant(Symbol::name("R"), Symbol::name("Entry"), one);
        let db = Database::from_tables([Table::relational("R", &["A"], &[&["1"]])]);
        let out = run_governed_traced(&e.into_program(), &db, &Budget::default())
            .unwrap()
            .0;
        // R is gone (replaced transiently, then left behind by the switch
        // statement's rename of the result).
        assert!(
            out.table_str("R").is_none()
                || out.table_str("R").unwrap().width() != 1
                || out.table_str("R").unwrap().col_attr(1) != Symbol::name("A")
        );
    }

    #[test]
    fn while_wrapper_nests() {
        let mut e = Emitter::new();
        let t = Symbol::name("T");
        e.while_nonempty(t, |inner| {
            inner.assign(t, OpKind::Difference, &[t, t]);
        });
        let p = e.into_program();
        assert_eq!(p.len(), 2);
        let db = Database::from_tables([Table::relational("T", &["A"], &[&["1"]])]);
        let out = run_governed_traced(&p, &db, &Budget::default()).unwrap().0;
        assert_eq!(out.table_str("T").unwrap().height(), 0);
    }

    #[test]
    fn union_into_folds() {
        let mut e = Emitter::new();
        let a = Symbol::name("A");
        let b = Symbol::name("B");
        let acc = e.union_into(None, a);
        assert_eq!(acc, a);
        let acc = e.union_into(Some(acc), b);
        assert_ne!(acc, a);
        assert_eq!(e.len(), 1);
    }
}
