//! Relational algebra expressions — the FO core of `FO + while + new`
//! (Van den Bussche, Van Gucht, Andries & Gyssens, cited as \[3\] in the
//! paper), with a direct evaluator used as the reference semantics for the
//! Theorem 4.1 compiler.

use crate::error::{RelError, Result};
use crate::relation::{RelDatabase, Relation};
use tabular_core::Symbol;

/// A relational algebra expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RelExpr {
    /// A stored relation.
    Rel(Symbol),
    /// A constant singleton relation `{(value)}` over one attribute.
    /// Constants over *names* keep queries generic (names are fixed by the
    /// genericity permutations, §4.1); value constants are the standard
    /// constants of FO queries.
    Const {
        /// The single attribute.
        attr: Symbol,
        /// The single value.
        value: Symbol,
    },
    /// Set union (union-compatible operands).
    Union(Box<RelExpr>, Box<RelExpr>),
    /// Set difference (union-compatible operands).
    Difference(Box<RelExpr>, Box<RelExpr>),
    /// Cartesian product (disjoint attribute sets).
    Product(Box<RelExpr>, Box<RelExpr>),
    /// `σ_{a=b}`.
    Select {
        /// Operand.
        expr: Box<RelExpr>,
        /// Left attribute.
        a: Symbol,
        /// Right attribute.
        b: Symbol,
    },
    /// `σ_{a=v}` for a constant `v`.
    SelectConst {
        /// Operand.
        expr: Box<RelExpr>,
        /// Attribute.
        a: Symbol,
        /// Constant value.
        v: Symbol,
    },
    /// `π_attrs` (attribute order gives the output header; duplicates
    /// eliminated by set semantics).
    Project {
        /// Operand.
        expr: Box<RelExpr>,
        /// Output attributes.
        attrs: Vec<Symbol>,
    },
    /// `π̄_attrs`: project *away* the listed attributes, keeping the rest
    /// in order (complement projection; compiles to `PROJECT[{* \ …}]`).
    ProjectAway {
        /// Operand.
        expr: Box<RelExpr>,
        /// Attributes to drop.
        attrs: Vec<Symbol>,
    },
    /// `ρ_{to←from}`.
    Rename {
        /// Operand.
        expr: Box<RelExpr>,
        /// Attribute to rename.
        from: Symbol,
        /// New attribute name.
        to: Symbol,
    },
}

impl RelExpr {
    /// Shorthand: stored relation by string name.
    pub fn rel(name: &str) -> RelExpr {
        RelExpr::Rel(Symbol::name(name))
    }

    /// Shorthand: a constant singleton relation (cell syntax for the
    /// value: bare = value, `n:x` = name, `_` = ⊥).
    pub fn constant(attr: &str, value: &str) -> RelExpr {
        RelExpr::Const {
            attr: Symbol::name(attr),
            value: tabular_core::symbol::parse_cell(value, Symbol::value),
        }
    }

    /// Builder: union.
    pub fn union(self, other: RelExpr) -> RelExpr {
        RelExpr::Union(Box::new(self), Box::new(other))
    }

    /// Builder: difference.
    pub fn minus(self, other: RelExpr) -> RelExpr {
        RelExpr::Difference(Box::new(self), Box::new(other))
    }

    /// Builder: product.
    pub fn times(self, other: RelExpr) -> RelExpr {
        RelExpr::Product(Box::new(self), Box::new(other))
    }

    /// Builder: selection `a = b`.
    pub fn select(self, a: &str, b: &str) -> RelExpr {
        RelExpr::Select {
            expr: Box::new(self),
            a: Symbol::name(a),
            b: Symbol::name(b),
        }
    }

    /// Builder: selection `a = v` for a constant (cell syntax: bare =
    /// value, `n:x` = name, `_` = ⊥).
    pub fn select_const(self, a: &str, v: &str) -> RelExpr {
        RelExpr::SelectConst {
            expr: Box::new(self),
            a: Symbol::name(a),
            v: tabular_core::symbol::parse_cell(v, Symbol::value),
        }
    }

    /// Builder: projection.
    pub fn project(self, attrs: &[&str]) -> RelExpr {
        RelExpr::Project {
            expr: Box::new(self),
            attrs: attrs.iter().map(|a| Symbol::name(a)).collect(),
        }
    }

    /// Builder: complement projection.
    pub fn project_away(self, attrs: &[&str]) -> RelExpr {
        RelExpr::ProjectAway {
            expr: Box::new(self),
            attrs: attrs.iter().map(|a| Symbol::name(a)).collect(),
        }
    }

    /// Builder: rename.
    pub fn rename(self, from: &str, to: &str) -> RelExpr {
        RelExpr::Rename {
            expr: Box::new(self),
            from: Symbol::name(from),
            to: Symbol::name(to),
        }
    }

    /// Evaluate the expression against a database. The result is unnamed
    /// (carries a scratch name); callers name it on assignment.
    pub fn eval(&self, db: &RelDatabase) -> Result<Relation> {
        let scratch = Symbol::name("\u{1F}expr-result");
        match self {
            RelExpr::Rel(name) => db
                .get(*name)
                .cloned()
                .ok_or(RelError::MissingRelation(*name)),
            RelExpr::Const { attr, value } => {
                let mut out = Relation::empty(scratch, vec![*attr])?;
                out.insert(vec![*value])?;
                Ok(out)
            }
            RelExpr::Union(l, r) => {
                let (l, r) = (l.eval(db)?, r.eval(db)?);
                let r = align(&l, r)?;
                let mut out = Relation::empty(scratch, l.attrs().to_vec())?;
                for t in l.tuples().chain(r.tuples()) {
                    out.insert(t.clone())?;
                }
                Ok(out)
            }
            RelExpr::Difference(l, r) => {
                let (l, r) = (l.eval(db)?, r.eval(db)?);
                let r = align(&l, r)?;
                let mut out = Relation::empty(scratch, l.attrs().to_vec())?;
                for t in l.tuples() {
                    if !r.contains(t) {
                        out.insert(t.clone())?;
                    }
                }
                Ok(out)
            }
            RelExpr::Product(l, r) => {
                let (l, r) = (l.eval(db)?, r.eval(db)?);
                for a in l.attrs() {
                    if r.attrs().contains(a) {
                        return Err(RelError::ProductAttributeClash(*a));
                    }
                }
                let attrs: Vec<Symbol> = l.attrs().iter().chain(r.attrs()).copied().collect();
                let mut out = Relation::empty(scratch, attrs)?;
                for lt in l.tuples() {
                    for rt in r.tuples() {
                        out.insert(lt.iter().chain(rt).copied().collect())?;
                    }
                }
                Ok(out)
            }
            RelExpr::Select { expr, a, b } => {
                let rel = expr.eval(db)?;
                let (ia, ib) = (rel.attr_index(*a)?, rel.attr_index(*b)?);
                let mut out = Relation::empty(scratch, rel.attrs().to_vec())?;
                for t in rel.tuples() {
                    if t[ia] == t[ib] {
                        out.insert(t.clone())?;
                    }
                }
                Ok(out)
            }
            RelExpr::SelectConst { expr, a, v } => {
                let rel = expr.eval(db)?;
                let ia = rel.attr_index(*a)?;
                let mut out = Relation::empty(scratch, rel.attrs().to_vec())?;
                for t in rel.tuples() {
                    if t[ia] == *v {
                        out.insert(t.clone())?;
                    }
                }
                Ok(out)
            }
            RelExpr::Project { expr, attrs } => {
                let rel = expr.eval(db)?;
                let idx: Vec<usize> = attrs
                    .iter()
                    .map(|&a| rel.attr_index(a))
                    .collect::<Result<_>>()?;
                let mut out = Relation::empty(scratch, attrs.clone())?;
                for t in rel.tuples() {
                    out.insert(idx.iter().map(|&i| t[i]).collect())?;
                }
                Ok(out)
            }
            RelExpr::ProjectAway { expr, attrs } => {
                let rel = expr.eval(db)?;
                let keep: Vec<Symbol> = rel
                    .attrs()
                    .iter()
                    .copied()
                    .filter(|a| !attrs.contains(a))
                    .collect();
                let idx: Vec<usize> = keep
                    .iter()
                    .map(|&a| rel.attr_index(a))
                    .collect::<Result<_>>()?;
                let mut out = Relation::empty(scratch, keep)?;
                for t in rel.tuples() {
                    out.insert(idx.iter().map(|&i| t[i]).collect())?;
                }
                Ok(out)
            }
            RelExpr::Rename { expr, from, to } => {
                let rel = expr.eval(db)?;
                rel.attr_index(*from)?;
                let attrs: Vec<Symbol> = rel
                    .attrs()
                    .iter()
                    .map(|&a| if a == *from { *to } else { a })
                    .collect();
                let mut out = Relation::empty(scratch, attrs)?;
                for t in rel.tuples() {
                    out.insert(t.clone())?;
                }
                Ok(out)
            }
        }
    }

    /// Stored relation names the expression reads.
    pub fn inputs(&self, out: &mut Vec<Symbol>) {
        match self {
            RelExpr::Rel(n) => {
                if !out.contains(n) {
                    out.push(*n);
                }
            }
            RelExpr::Const { .. } => {}
            RelExpr::Union(l, r) | RelExpr::Difference(l, r) | RelExpr::Product(l, r) => {
                l.inputs(out);
                r.inputs(out);
            }
            RelExpr::Select { expr, .. }
            | RelExpr::SelectConst { expr, .. }
            | RelExpr::Project { expr, .. }
            | RelExpr::ProjectAway { expr, .. }
            | RelExpr::Rename { expr, .. } => expr.inputs(out),
        }
    }
}

/// Align `r`'s columns with `l`'s header for union/difference; errors if
/// the headers are not the same attribute set.
fn align(l: &Relation, r: Relation) -> Result<Relation> {
    if l.attrs() == r.attrs() {
        return Ok(r);
    }
    let idx: Vec<usize> = l
        .attrs()
        .iter()
        .map(|&a| r.attr_index(a).map_err(|_| RelError::NotUnionCompatible))
        .collect::<Result<_>>()?;
    if idx.len() != r.arity() {
        return Err(RelError::NotUnionCompatible);
    }
    let mut out = Relation::empty(r.name(), l.attrs().to_vec())?;
    for t in r.tuples() {
        out.insert(idx.iter().map(|&i| t[i]).collect())?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> RelDatabase {
        RelDatabase::from_relations([
            Relation::new("R", &["A", "B"], &[&["1", "2"], &["2", "2"], &["3", "4"]]),
            Relation::new("S", &["A", "B"], &[&["1", "2"], &["5", "6"]]),
        ])
    }

    #[test]
    fn union_and_difference() {
        let u = RelExpr::rel("R")
            .union(RelExpr::rel("S"))
            .eval(&db())
            .unwrap();
        assert_eq!(u.len(), 4);
        let d = RelExpr::rel("R")
            .minus(RelExpr::rel("S"))
            .eval(&db())
            .unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn union_aligns_permuted_headers() {
        let mut db = db();
        db.set(Relation::new("P", &["B", "A"], &[&["2", "1"], &["9", "8"]]));
        let u = RelExpr::rel("R")
            .union(RelExpr::rel("P"))
            .eval(&db)
            .unwrap();
        // (1,2) collapses with R's (1,2); (8,9) is new.
        assert_eq!(u.len(), 4);
        assert!(u.contains(&[Symbol::value("8"), Symbol::value("9")]));
    }

    #[test]
    fn union_rejects_incompatible() {
        let mut db = db();
        db.set(Relation::new("Q", &["X"], &[&["1"]]));
        assert!(matches!(
            RelExpr::rel("R").union(RelExpr::rel("Q")).eval(&db),
            Err(RelError::NotUnionCompatible)
        ));
    }

    #[test]
    fn product_requires_disjoint_attrs() {
        assert!(matches!(
            RelExpr::rel("R").times(RelExpr::rel("S")).eval(&db()),
            Err(RelError::ProductAttributeClash(_))
        ));
        let p = RelExpr::rel("R")
            .times(RelExpr::rel("S").rename("A", "C").rename("B", "D"))
            .eval(&db())
            .unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.arity(), 4);
    }

    #[test]
    fn select_and_select_const() {
        let s = RelExpr::rel("R").select("A", "B").eval(&db()).unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.contains(&[Symbol::value("2"), Symbol::value("2")]));
        let c = RelExpr::rel("R")
            .select_const("B", "2")
            .eval(&db())
            .unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn project_dedupes_and_reorders() {
        let p = RelExpr::rel("R").project(&["B"]).eval(&db()).unwrap();
        assert_eq!(p.len(), 2); // {2, 4}
        let swapped = RelExpr::rel("R").project(&["B", "A"]).eval(&db()).unwrap();
        assert!(swapped.contains(&[Symbol::value("2"), Symbol::value("1")]));
    }

    #[test]
    fn rename_changes_header_only() {
        let r = RelExpr::rel("R").rename("A", "X").eval(&db()).unwrap();
        assert_eq!(r.attrs()[0], Symbol::name("X"));
        assert_eq!(r.len(), 3);
        assert!(RelExpr::rel("R").rename("Z", "X").eval(&db()).is_err());
    }

    #[test]
    fn missing_relation_and_attribute_errors() {
        assert!(matches!(
            RelExpr::rel("Nope").eval(&db()),
            Err(RelError::MissingRelation(_))
        ));
        assert!(RelExpr::rel("R").project(&["Z"]).eval(&db()).is_err());
    }

    #[test]
    fn inputs_are_collected_once() {
        let e = RelExpr::rel("R").union(RelExpr::rel("R").minus(RelExpr::rel("S")));
        let mut ins = Vec::new();
        e.inputs(&mut ins);
        assert_eq!(ins, vec![Symbol::name("R"), Symbol::name("S")]);
    }
}
