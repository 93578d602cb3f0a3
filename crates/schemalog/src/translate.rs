//! **Theorem 4.5**: every SchemaLog_d program has an equivalent tabular
//! algebra program.
//!
//! The translation follows the reduction structure of the paper's proof:
//! the SchemaLog database is its quadruple view — a single fixed-arity
//! relation `Quad(Rel, Tid, Attr, Val)`, the same shape as the canonical
//! representation of §4.1 — over which each rule becomes a relational
//! algebra expression (joins via product + select, constants via constant
//! selection, negation via difference), recursion becomes `while`, and
//! the whole `FO + while` program is then compiled into tabular algebra by
//! the Theorem 4.1 compiler.
//!
//! Scope: equality built-ins (`=`, `!=`) translate directly. The order
//! built-ins (`<`, `<=`, …) are interpreted predicates outside FO over
//! uninterpreted symbols; they translate *given the order as data* — the
//! standard datalog move — via an explicit strict-order relation
//! `Ord(Lo, Hi)` over the active domain, which [`order_relation`]
//! materializes and [`run_translated`] supplies automatically when the
//! program needs it. [`translate`] (without the order relation) rejects
//! order built-ins with [`SlError::Untranslatable`].

use crate::ast::{Atom, CmpOp, Literal, Rule, SlProgram, Term};
use crate::error::{Result, SlError};
use crate::quads::QuadDb;
use crate::stratify::stratify;
use std::collections::HashMap;
use tabular_core::{Istr, Symbol};
use tabular_relational::expr::RelExpr;
use tabular_relational::program::FoProgram;
use tabular_relational::relation::RelDatabase;

/// The name of the quad relation in the FO/TA pipeline.
pub fn quad_rel() -> Symbol {
    Symbol::name("Quad")
}

const SLOTS: [&str; 4] = ["Rel", "Tid", "Attr", "Val"];

fn var_col(v: Istr) -> String {
    format!("\u{1F}v{}", v.index())
}

fn atom_col(i: usize, k: usize) -> String {
    format!("\u{1F}q{i}x{k}")
}

fn sym_to_cell(s: Symbol) -> String {
    match s {
        Symbol::Null => "_".to_owned(),
        Symbol::Name(i) => format!("n:{}", i.as_str()),
        Symbol::Value(i) => format!("v:{}", i.as_str()),
    }
}

/// Static safety check: head, negated, and comparison variables must occur
/// in a positive body atom.
pub fn check_safety(program: &SlProgram) -> Result<()> {
    for (ri, rule) in program.rules.iter().enumerate() {
        let mut bound: Vec<Istr> = Vec::new();
        for lit in &rule.body {
            if let Literal::Pos(a) = lit {
                bound.extend(a.vars());
            }
        }
        let check = |t: Term| -> Result<()> {
            match t {
                Term::Var(v) if !bound.contains(&v) => Err(SlError::Unsafe { var: v, rule: ri }),
                _ => Ok(()),
            }
        };
        for h in &rule.head {
            for t in h.terms() {
                check(t)?;
            }
        }
        // Negated atoms may carry unbound variables — they are read as
        // existentially quantified under the negation (¬∃U …) — so only
        // comparison terms need a binding.
        for lit in &rule.body {
            if let Literal::Cmp { lhs, rhs, .. } = lit {
                check(*lhs)?;
                check(*rhs)?;
            }
        }
    }
    Ok(())
}

/// Translate one rule body into a relational expression over `Quad` whose
/// columns are the rule's variables (column names from the reserved
/// namespace), deduplicated.
fn body_expr(
    rule: &Rule,
    rule_idx: usize,
    with_order: bool,
) -> Result<(RelExpr, HashMap<Istr, String>)> {
    let pos_atoms: Vec<(usize, &Atom)> = rule
        .body
        .iter()
        .enumerate()
        .filter_map(|(i, l)| match l {
            Literal::Pos(a) => Some((i, a)),
            _ => None,
        })
        .collect();

    // First-occurrence column of each variable, and the per-atom exprs.
    let mut first: HashMap<Istr, String> = HashMap::new();
    let mut equalities: Vec<(String, String)> = Vec::new();
    let mut joined: Option<RelExpr> = None;

    for (i, atom) in &pos_atoms {
        let mut e = RelExpr::Rel(quad_rel());
        for (k, slot) in SLOTS.iter().enumerate() {
            e = e.rename(slot, &atom_col(*i, k));
        }
        for (k, t) in atom.terms().into_iter().enumerate() {
            let col = atom_col(*i, k);
            match t {
                Term::Const(c) => {
                    e = e.select_const(&col, &sym_to_cell(c));
                }
                Term::Var(v) => match first.get(&v) {
                    None => {
                        first.insert(v, col);
                    }
                    Some(prev) => equalities.push((prev.clone(), col)),
                },
            }
        }
        joined = Some(match joined {
            None => e,
            Some(prev) => prev.times(e),
        });
    }

    let mut e = match joined {
        Some(e) => e,
        // Fact: no positive atoms. Ground heads are handled by the caller;
        // represent the body as a single nullary "true" via a projection
        // of Quad onto nothing — but FO relations need ≥0 attrs; a
        // zero-attribute relation with one tuple is awkward, so facts are
        // special-cased in `rule_expr`.
        None => {
            return Ok((RelExpr::Rel(quad_rel()), first));
        }
    };
    for (a, b) in &equalities {
        e = e.select(a, b);
    }

    // Comparisons and negation.
    for lit in &rule.body {
        match lit {
            Literal::Pos(_) => {}
            Literal::Cmp { op, lhs, rhs } => {
                let col_of = |t: &Term| -> Result<ColOrConst> {
                    match t {
                        Term::Const(c) => Ok(ColOrConst::Const(*c)),
                        Term::Var(v) => first.get(v).map(|c| ColOrConst::Col(c.clone())).ok_or(
                            SlError::Unsafe {
                                var: *v,
                                rule: rule_idx,
                            },
                        ),
                    }
                };
                let (l, r) = (col_of(lhs)?, col_of(rhs)?);
                e = match op {
                    CmpOp::Eq => apply_eq(e, &l, &r),
                    CmpOp::Ne => {
                        let matched = apply_eq(e.clone(), &l, &r);
                        e.minus(matched)
                    }
                    CmpOp::Lt | CmpOp::Gt | CmpOp::Le | CmpOp::Ge => {
                        if !with_order {
                            return Err(SlError::Untranslatable(format!(
                                "order built-in {} needs the Ord relation; use                                  translate_with_order / run_translated",
                                op.text()
                            )));
                        }
                        // a < b  ⇔ (a, b) ∈ Ord;  a ≤ b  ⇔  a < b ∨ a = b,
                        // expressed as union of the two selections.
                        let (lo, hi, or_equal) = match op {
                            CmpOp::Lt => (&l, &r, false),
                            CmpOp::Gt => (&r, &l, false),
                            CmpOp::Le => (&l, &r, true),
                            CmpOp::Ge => (&r, &l, true),
                            _ => unreachable!(),
                        };
                        let strict = apply_ord(e.clone(), lo, hi, rule_idx)?;
                        if or_equal {
                            strict.union(apply_eq(e, &l, &r))
                        } else {
                            strict
                        }
                    }
                };
            }
            Literal::Neg(atom) => {
                // Anti-join: E \ π_{cols(E)}(σ_match(E × Quad')).
                let qi = rule.body.len() + 100; // column namespace for the probe
                let mut probe = RelExpr::Rel(quad_rel());
                for (k, slot) in SLOTS.iter().enumerate() {
                    probe = probe.rename(slot, &atom_col(qi, k));
                }
                let mut matched = e.clone().times(probe);
                // Variables unbound by the positive body are existential
                // within the negated atom; repeated occurrences inside the
                // atom still force equality between probe columns.
                let mut local: HashMap<Istr, String> = HashMap::new();
                for (k, t) in atom.terms().into_iter().enumerate() {
                    let col = atom_col(qi, k);
                    match t {
                        Term::Const(c) => matched = matched.select_const(&col, &sym_to_cell(c)),
                        Term::Var(v) => {
                            if let Some(bound) = first.get(&v) {
                                matched = matched.select(bound, &col);
                            } else if let Some(prev) = local.get(&v) {
                                matched = matched.select(prev, &col);
                            } else {
                                local.insert(v, col);
                            }
                        }
                    }
                }
                let keep: Vec<String> = all_cols(&pos_atoms);
                let keep_refs: Vec<&str> = keep.iter().map(String::as_str).collect();
                e = e.minus(matched.project(&keep_refs));
            }
        }
    }
    Ok((e, first))
}

enum ColOrConst {
    Col(String),
    Const(Symbol),
}

fn apply_eq(e: RelExpr, l: &ColOrConst, r: &ColOrConst) -> RelExpr {
    match (l, r) {
        (ColOrConst::Col(a), ColOrConst::Col(b)) => e.select(a, b),
        (ColOrConst::Col(a), ColOrConst::Const(c)) | (ColOrConst::Const(c), ColOrConst::Col(a)) => {
            e.select_const(a, &sym_to_cell(*c))
        }
        (ColOrConst::Const(a), ColOrConst::Const(b)) => {
            if a == b {
                e
            } else {
                e.clone().minus(e)
            }
        }
    }
}

/// Join against the strict-order relation `Ord(Lo, Hi)`: keep the rows of
/// `e` whose `lo`/`hi` sides stand in the order. Constant sides join too
/// (they are rows of `Ord` like any other).
fn apply_ord(e: RelExpr, lo: &ColOrConst, hi: &ColOrConst, rule_idx: usize) -> Result<RelExpr> {
    let _ = rule_idx;
    let probe = RelExpr::rel("Ord")
        .rename("Lo", "\u{1F}ordlo")
        .rename("Hi", "\u{1F}ordhi");
    let mut matched = e.clone().times(probe);
    matched = match lo {
        ColOrConst::Col(c) => matched.select(c, "\u{1F}ordlo"),
        ColOrConst::Const(k) => matched.select_const("\u{1F}ordlo", &sym_to_cell(*k)),
    };
    matched = match hi {
        ColOrConst::Col(c) => matched.select(c, "\u{1F}ordhi"),
        ColOrConst::Const(k) => matched.select_const("\u{1F}ordhi", &sym_to_cell(*k)),
    };
    // Project back to e's columns: everything except the probe columns.
    // e's columns are exactly the positive atoms' columns, which the
    // caller tracks; rather than thread them through, drop the probe
    // columns by name.
    Ok(matched.project_away(&["\u{1F}ordlo", "\u{1F}ordhi"]))
}

fn all_cols(pos_atoms: &[(usize, &Atom)]) -> Vec<String> {
    pos_atoms
        .iter()
        .flat_map(|(i, _)| (0..4).map(move |k| atom_col(*i, k)))
        .collect()
}

/// Translate one rule into an expression deriving its head quads (columns
/// `Rel, Tid, Attr, Val`), or `None` for ground facts handled separately.
fn rule_expr(rule: &Rule, rule_idx: usize, with_order: bool) -> Result<RelExpr> {
    let has_pos = rule.body.iter().any(|l| matches!(l, Literal::Pos(_)));
    if !has_pos {
        // Ground fact(s): a product of four constants per head atom.
        let mut acc: Option<RelExpr> = None;
        for h in &rule.head {
            let mut e: Option<RelExpr> = None;
            for (slot, t) in SLOTS.iter().zip(h.terms()) {
                let Term::Const(c) = t else {
                    return Err(SlError::Unsafe {
                        var: match t {
                            Term::Var(v) => v,
                            Term::Const(_) => unreachable!(),
                        },
                        rule: rule_idx,
                    });
                };
                let konst = RelExpr::Const {
                    attr: Symbol::name(slot),
                    value: c,
                };
                e = Some(match e {
                    None => konst,
                    Some(prev) => prev.times(konst),
                });
            }
            let e = e.expect("four slots");
            acc = Some(match acc {
                None => e,
                Some(prev) => prev.union(e),
            });
        }
        return Ok(acc.expect("at least one head atom"));
    }

    let (base, first) = body_expr(rule, rule_idx, with_order)?;
    // Project the body onto the distinct head variables, renamed to their
    // variable columns.
    let head_vars: Vec<Istr> = {
        let mut out = Vec::new();
        for h in &rule.head {
            for v in h.vars() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    };
    let mut projected = base.clone();
    for &v in &head_vars {
        let col = first.get(&v).ok_or(SlError::Unsafe {
            var: v,
            rule: rule_idx,
        })?;
        projected = projected.rename(col, &var_col(v));
    }
    let var_cols: Vec<String> = head_vars.iter().map(|&v| var_col(v)).collect();
    let var_refs: Vec<&str> = var_cols.iter().map(String::as_str).collect();
    let projected = projected.project(&var_refs);

    // Build each head atom's quads from the projected variables.
    let mut acc: Option<RelExpr> = None;
    for h in &rule.head {
        let mut e = projected.clone();
        let mut used: HashMap<Istr, usize> = HashMap::new();
        for (slot, t) in SLOTS.iter().zip(h.terms()) {
            match t {
                Term::Const(c) => {
                    e = e.times(RelExpr::Const {
                        attr: Symbol::name(slot),
                        value: c,
                    });
                }
                Term::Var(v) => {
                    let n = used.entry(v).or_insert(0);
                    *n += 1;
                    if *n == 1 {
                        // First use: rename the variable column into the
                        // slot at the end (after all slots are placed).
                        continue;
                    }
                    // Re-use: duplicate the column with a self-join.
                    let dup = projected
                        .clone()
                        .project(&[&var_col(v)])
                        .rename(&var_col(v), slot);
                    e = e.times(dup).select(slot, &var_col(v));
                }
            }
        }
        // Rename first-use variables into their slots, then project into
        // (Rel, Tid, Attr, Val) order.
        let mut seen: Vec<Istr> = Vec::new();
        for (slot, t) in SLOTS.iter().zip(h.terms()) {
            if let Term::Var(v) = t {
                if !seen.contains(&v) {
                    seen.push(v);
                    e = e.rename(&var_col(v), slot);
                }
            }
        }
        let e = e.project(&SLOTS);
        acc = Some(match acc {
            None => e,
            Some(prev) => prev.union(e),
        });
    }
    Ok(acc.expect("at least one head atom"))
}

/// Translate a whole SchemaLog_d program into an `FO + while + new`
/// program over the relation `Quad(Rel, Tid, Attr, Val)`: strata run in
/// order, each iterating its rules naively to a fixpoint.
pub fn translate(program: &SlProgram) -> Result<FoProgram> {
    translate_inner(program, false)
}

/// Like [`translate`], additionally allowing order built-ins, which
/// compile to joins against the strict-order relation `Ord(Lo, Hi)` (see
/// [`order_relation`]). The resulting program expects `Ord` among its
/// input relations.
pub fn translate_with_order(program: &SlProgram) -> Result<FoProgram> {
    translate_inner(program, true)
}

fn translate_inner(program: &SlProgram, with_order: bool) -> Result<FoProgram> {
    check_safety(program)?;
    let strata = stratify(program)?;

    let mut fo = FoProgram::new();
    for s in 0..strata.count {
        let rules: Vec<(usize, &Rule)> = program
            .rules
            .iter()
            .enumerate()
            .filter(|(i, _)| strata.rule_stratum[*i] == s)
            .collect();
        if rules.is_empty() {
            continue;
        }
        let mut union: Option<RelExpr> = None;
        for (ri, rule) in &rules {
            let e = rule_expr(rule, *ri, with_order)?;
            union = Some(match union {
                None => e,
                Some(prev) => prev.union(e),
            });
        }
        let union = union.expect("non-empty stratum");
        let delta = format!("\u{1F}delta{s}");
        let derived = format!("\u{1F}derived{s}");
        fo = fo.fixpoint("Quad", union, &derived, &delta);
    }
    Ok(fo)
}

/// True if the program uses an order built-in (`<`, `≤`, `>`, `≥`).
pub fn uses_order(program: &SlProgram) -> bool {
    program.rules.iter().any(|r| {
        r.body.iter().any(|l| {
            matches!(
                l,
                Literal::Cmp {
                    op: CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge,
                    ..
                }
            )
        })
    })
}

/// Materialize the strict order over the active domain of `input` as the
/// relation `Ord(Lo, Hi)` — the explicit-order input that makes order
/// built-ins first-order (and hence TA-) expressible. Uses the same
/// numeric-aware comparison as the native evaluator's built-ins.
pub fn order_relation(input: &QuadDb) -> tabular_relational::relation::Relation {
    use tabular_relational::relation::Relation;
    let mut domain: Vec<Symbol> = Vec::new();
    for q in input.iter() {
        for &s in q {
            if !domain.contains(&s) {
                domain.push(s);
            }
        }
    }
    let mut ord = Relation::empty(
        Symbol::name("Ord"),
        vec![Symbol::name("Lo"), Symbol::name("Hi")],
    )
    .expect("static attrs");
    for &a in &domain {
        for &b in &domain {
            if CmpOp::Lt.eval(a, b) {
                ord.insert(vec![a, b]).expect("arity 2");
            }
        }
    }
    ord
}

/// Lower a SchemaLog_d program and its input to `FO + while`: the quad
/// view becomes the `Quad` relation (plus the materialized `Ord` relation
/// when the program uses order built-ins) and the program translates with
/// [`translate`] or [`translate_with_order`].
fn lower(program: &SlProgram, input: &QuadDb) -> Result<(FoProgram, RelDatabase)> {
    let ordered = uses_order(program);
    let fo = if ordered {
        translate_with_order(program)?
    } else {
        translate(program)?
    };
    let mut relations = vec![input.to_relation(quad_rel())];
    if ordered {
        relations.push(order_relation(input));
    }
    Ok((fo, RelDatabase::from_relations(relations)))
}

/// Read the final quads back out of the lowered program's result.
fn read_quads(out: &RelDatabase) -> Result<QuadDb> {
    let quad =
        out.get(quad_rel())
            .ok_or(SlError::Rel(tabular_relational::RelError::MissingRelation(
                quad_rel(),
            )))?;
    Ok(QuadDb::from_relation(quad))
}

/// Run a SchemaLog_d program *through the tabular algebra* under
/// `budget`: the program is lowered to `FO + while` and then to TA
/// (Theorem 4.1), the TA interpreter runs it, and the final quads are read
/// back. Also returns the TA evaluator's statistics and structured trace
/// for the translated program — the observability path through the whole
/// SchemaLog_d → FO → TA stack. A diverging or oversized program trips
/// [`tabular_algebra::AlgebraError::BudgetExceeded`] with the partial
/// stats and trace of the translated run.
pub fn run_translated(
    program: &SlProgram,
    input: &QuadDb,
    budget: &tabular_algebra::Budget,
) -> Result<(QuadDb, tabular_algebra::EvalStats, tabular_algebra::Trace)> {
    let (fo, db) = lower(program, input)?;
    let (out, stats, trace) =
        tabular_relational::compile::run_compiled(&fo, &db, &["Quad"], budget)?;
    Ok((read_quads(&out)?, stats, trace))
}

/// Run the same translation but stop at the FO layer (reference point for
/// the TA path; useful in benches to separate translation cost from TA
/// interpretation cost).
pub fn run_fo(program: &SlProgram, input: &QuadDb, max_iters: usize) -> Result<QuadDb> {
    let (fo, db) = lower(program, input)?;
    read_quads(&fo.run(&db, max_iters)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, SlLimits, Strategy};
    use crate::parser::parse;
    use tabular_algebra::{Budget, EvalLimits};
    use tabular_relational::relation::Relation;

    fn sales_quads() -> QuadDb {
        QuadDb::from_relations(&RelDatabase::from_relations([Relation::new(
            "sales",
            &["part", "region"],
            &[&["nuts", "east"], &["bolts", "east"], &["nuts", "west"]],
        )]))
    }

    fn assert_paths_agree(src: &str, input: &QuadDb) {
        let p = parse(src).unwrap();
        let native = eval(&p, input, Strategy::SemiNaive, &SlLimits::default()).unwrap();
        let via_fo = run_fo(&p, input, 10_000).unwrap();
        assert_eq!(native.len(), via_fo.len(), "native vs FO sizes differ");
        for q in native.iter() {
            assert!(via_fo.contains(q), "FO path missing {q:?}");
        }
        let (via_ta, _, _) = run_translated(&p, input, &Budget::default()).unwrap();
        assert_eq!(native.len(), via_ta.len(), "native vs TA sizes differ");
        for q in native.iter() {
            assert!(via_ta.contains(q), "TA path missing {q:?}");
        }
    }

    #[test]
    fn traced_translation_reports_ta_spans() {
        let p = parse("parts[T : part -> P] :- sales[T : part -> P].").unwrap();
        let traced = EvalLimits {
            trace: tabular_algebra::TraceLevel::Spans,
            ..EvalLimits::default()
        };
        let (out, stats, trace) =
            run_translated(&p, &sales_quads(), &Budget::from_limits(&traced)).unwrap();
        let (plain, _, _) = run_translated(&p, &sales_quads(), &Budget::default()).unwrap();
        assert_eq!(out.len(), plain.len(), "tracing must not change results");
        assert!(!trace.is_empty(), "translated TA statements produce spans");
        assert_eq!(trace.per_op_micros(), stats.op_micros);
        assert!(stats.while_iterations > 0, "the fixpoint loop was traced");
    }

    #[test]
    fn planned_translation_agrees_and_reports_rewrites() {
        let p = parse("pr[T : pair -> P] :- sales[T : part -> P], sales[T : region -> v:east].")
            .unwrap();
        let input = sales_quads();
        let budget = Budget::default();
        let (fo, db) = lower(&p, &input).unwrap();
        let (result, stats, _, report) = tabular_algebra::run_planned_governed_traced(
            &tabular_relational::compile(&fo),
            &db.to_tabular(),
            &budget,
        )
        .unwrap();
        let out = read_quads(&RelDatabase::from_tabular(&result, &[quad_rel()]).unwrap()).unwrap();
        let (plain, _, _) = run_translated(&p, &input, &budget).unwrap();
        assert_eq!(out.len(), plain.len(), "planning must not change results");
        for q in plain.iter() {
            assert!(out.contains(q), "planned path missing {q:?}");
        }
        // The join rule compiles to scratch PRODUCT + SELECT shapes the
        // planner rewrites, and the stats counters mirror the report.
        assert!(report.rules_applied() >= 1, "translated joins rewrite");
        assert_eq!(stats.plan_rules_applied, report.rules_applied());
    }

    #[test]
    fn translates_simple_projection() {
        assert_paths_agree(
            "parts[T : part -> P] :- sales[T : part -> P].",
            &sales_quads(),
        );
    }

    #[test]
    fn translates_joins_on_shared_tids() {
        assert_paths_agree(
            "pr[T : pair -> P] :- sales[T : part -> P], sales[T : region -> v:east].",
            &sales_quads(),
        );
    }

    #[test]
    fn translates_variable_attributes() {
        // Metadata as data: copy every quad under a new relation.
        assert_paths_agree("flat[T : A -> V] :- sales[T : A -> V].", &sales_quads());
    }

    #[test]
    fn translates_dynamic_heads() {
        // Relations named by data — the SchemaLog SPLIT.
        assert_paths_agree(
            "P[T : region -> R] :- sales[T : part -> P], sales[T : region -> R].",
            &sales_quads(),
        );
    }

    #[test]
    fn translates_negation() {
        assert_paths_agree(
            "
            eastern[T : part -> P] :- sales[T : part -> P], sales[T : region -> v:east].
            lonely[T : part -> P] :- sales[T : part -> P], not eastern[T : part -> P].
            ",
            &sales_quads(),
        );
    }

    #[test]
    fn translates_equality_builtins() {
        assert_paths_agree(
            "same[T : part -> P] :- sales[T : part -> P], sales[T : region -> R], P != R.",
            &sales_quads(),
        );
    }

    #[test]
    fn translates_facts() {
        assert_paths_agree(
            "
            marker[v:t0 : kind -> special].
            out[T : part -> P] :- sales[T : part -> P], marker[U : kind -> special].
            ",
            &sales_quads(),
        );
    }

    #[test]
    fn translates_recursion() {
        let edges = QuadDb::from_relations(&RelDatabase::from_relations([Relation::new(
            "edge",
            &["from", "to"],
            &[&["a", "b"], &["b", "c"]],
        )]));
        assert_paths_agree(
            "
            tc[T : from -> X, to -> Y] :- edge[T : from -> X, to -> Y].
            tc[T : from -> X, to -> Z] :- tc[T : from -> X, to -> Y],
                                          edge[U : from -> Y, to -> Z].
            ",
            &edges,
        );
    }

    #[test]
    fn translates_repeated_head_variables() {
        // The same variable in two head slots exercises the self-join
        // duplication.
        assert_paths_agree("loopy[T : P -> P] :- sales[T : part -> P].", &sales_quads());
    }

    #[test]
    fn translates_existential_negation() {
        // The tid of the negated atom is unbound: ¬∃U watchlist[U: …].
        let mut q = sales_quads();
        let extra = QuadDb::from_relations(&RelDatabase::from_relations([Relation::new(
            "watchlist",
            &["part"],
            &[&["bolts"]],
        )]));
        for quad in extra.iter() {
            q.insert(*quad);
        }
        assert_paths_agree(
            "clear[T : part -> P] :- sales[T : part -> P], not watchlist[U : part -> P].",
            &q,
        );
    }

    #[test]
    fn order_builtins_need_the_order_relation() {
        let p = parse("ans[T : a -> S] :- sales[T : part -> S], S >= v:m.").unwrap();
        assert!(matches!(translate(&p), Err(SlError::Untranslatable(_))));
        assert!(translate_with_order(&p).is_ok());
    }

    #[test]
    fn translates_order_builtins_with_the_order_relation() {
        // Numeric sales data, so the order built-in has real work to do.
        let q = QuadDb::from_relations(&RelDatabase::from_relations([Relation::new(
            "sales",
            &["part", "sold"],
            &[
                &["nuts", "50"],
                &["bolts", "70"],
                &["screws", "9"],
                &["washers", "70"],
            ],
        )]));
        assert_paths_agree(
            "big[T : part -> P] :- sales[T : part -> P], sales[T : sold -> S], S >= 50.",
            &q,
        );
        assert_paths_agree(
            "small[T : part -> P] :- sales[T : part -> P], sales[T : sold -> S], S < 50.",
            &q,
        );
        // Two-sided comparison across tuples.
        assert_paths_agree(
            "beats[T : part -> P] :- sales[T : part -> P], sales[T : sold -> S],
                                     sales[U : sold -> S2], S > S2.",
            &q,
        );
    }

    #[test]
    fn order_relation_is_a_strict_order() {
        let q = sales_quads();
        let ord = order_relation(&q);
        // Irreflexive and antisymmetric.
        for t in ord.tuples() {
            assert_ne!(t[0], t[1]);
            assert!(!ord.contains(&[t[1], t[0]]));
        }
    }

    #[test]
    fn unsafe_heads_are_rejected_statically() {
        let p = parse("ans[T : a -> X] :- sales[T : part -> P].").unwrap();
        assert!(matches!(translate(&p), Err(SlError::Unsafe { .. })));
    }
}
