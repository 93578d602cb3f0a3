//! Compiling GOOD programs into the tabular algebra — the executable
//! content of contribution (4): "every GOOD query can be expressed in the
//! tabular algebra".
//!
//! The route mirrors the paper's other embeddings: the object base is its
//! tabular embedding `{Node(Id,Label), Edge(Src,Lab,Dst)}`; a pattern is a
//! conjunctive query over those relations; each operation becomes an
//! `FO + while + new` fragment (node addition uses `new`, deletions use
//! difference); and the whole program is handed to the Theorem 4.1
//! compiler.
//!
//! Compiled fragment: node/edge addition, node/edge deletion, and
//! fixpoint loops whose bodies consist of edge additions (the
//! transitive-closure pattern). Abstraction needs set-creation (the
//! tabular algebra's `set-new`) and stays native —
//! [`GoodError::Untranslatable`] documents the boundary, exactly as
//! DESIGN.md §4 records it.
//!
//! One further semantic note: native node addition carries GOOD's
//! no-duplicate guard (skip when an equally-labeled node with the same
//! wiring exists), which also collapses *symmetric* wirings such as
//! `{member→a, member→b}` vs `{member→b, member→a}`. The compiled
//! fragment creates one node per distinct ordered key image; the two
//! agree whenever wirings determine the key (e.g. per-edge-label
//! distinct targets), which the tests pin down.

use crate::embed::{from_tabular, to_tabular};
use crate::error::{GoodError, Result};
use crate::graph::Graph;
use crate::ops::{GoodOp, GoodProgram, GoodStatement};
use crate::pattern::Pattern;
use std::collections::HashMap;
use tabular_algebra::Budget;
use tabular_core::Symbol;
use tabular_relational::compile::run_compiled;
use tabular_relational::expr::RelExpr;
use tabular_relational::program::FoProgram;
use tabular_relational::relation::RelDatabase;

fn var_col(v: u32) -> String {
    format!("\u{1F}g{v}")
}

fn cell(sym: Symbol) -> String {
    match sym {
        Symbol::Null => "_".to_owned(),
        Symbol::Name(i) => format!("n:{}", i.as_str()),
        Symbol::Value(i) => format!("v:{}", i.as_str()),
    }
}

/// Translate a pattern into a relational expression whose columns are the
/// pattern variables (named via [`var_col`]).
fn pattern_expr(p: &Pattern) -> Result<RelExpr> {
    let mut first: HashMap<u32, String> = HashMap::new();
    let mut equalities: Vec<(String, String)> = Vec::new();
    let mut joined: Option<RelExpr> = None;
    let push = |e: RelExpr, joined: &mut Option<RelExpr>| {
        *joined = Some(match joined.take() {
            None => e,
            Some(prev) => prev.times(e),
        });
    };

    for (i, pn) in p.nodes.iter().enumerate() {
        let id_col = format!("\u{1F}n{i}id");
        let lab_col = format!("\u{1F}n{i}lab");
        let e = RelExpr::rel("Node")
            .rename("Id", &id_col)
            .rename("Label", &lab_col)
            .select_const(&lab_col, &cell(pn.label));
        push(e, &mut joined);
        match first.get(&pn.var) {
            None => {
                first.insert(pn.var, id_col);
            }
            Some(prev) => equalities.push((prev.clone(), id_col)),
        }
    }
    for (k, &(u, lab, w)) in p.edges.iter().enumerate() {
        let s_col = format!("\u{1F}e{k}s");
        let l_col = format!("\u{1F}e{k}l");
        let d_col = format!("\u{1F}e{k}d");
        let e = RelExpr::rel("Edge")
            .rename("Src", &s_col)
            .rename("Lab", &l_col)
            .rename("Dst", &d_col)
            .select_const(&l_col, &cell(lab));
        push(e, &mut joined);
        for (v, col) in [(u, s_col), (w, d_col)] {
            match first.get(&v) {
                None => return Err(GoodError::UnknownVariable(v)),
                Some(prev) => equalities.push((prev.clone(), col)),
            }
        }
    }
    let mut e = joined.ok_or_else(|| {
        GoodError::Untranslatable("empty patterns have no tabular footprint".into())
    })?;
    for (a, b) in &equalities {
        e = e.select(a, b);
    }
    // Project down to the variable columns.
    for (&v, col) in &first {
        e = e.rename(col, &var_col(v));
    }
    let cols: Vec<String> = first.keys().map(|&v| var_col(v)).collect();
    let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    Ok(e.project(&refs))
}

/// The `Edge`-tuples an edge-addition derives, as an expression.
fn ea_expr(pattern: &Pattern, label: Symbol, from: u32, to: u32) -> Result<RelExpr> {
    for v in [from, to] {
        if !pattern.vars().contains(&v) {
            return Err(GoodError::UnknownVariable(v));
        }
    }
    let matches = pattern_expr(pattern)?;
    let base = if from == to {
        // Duplicate the single column via a self-join.
        let dup = matches
            .clone()
            .project(&[&var_col(from)])
            .rename(&var_col(from), "Dst");
        matches
            .times(dup)
            .select(&var_col(from), "Dst")
            .rename(&var_col(from), "Src")
    } else {
        matches
            .rename(&var_col(from), "Src")
            .rename(&var_col(to), "Dst")
    };
    Ok(base
        .times(RelExpr::Const {
            attr: Symbol::name("Lab"),
            value: label,
        })
        .project(&["Src", "Lab", "Dst"]))
}

fn compile_statements(stmts: &[GoodStatement], fo: &mut FoProgram, n: &mut u32) -> Result<()> {
    for stmt in stmts {
        match stmt {
            GoodStatement::Op(op) => compile_op(op, fo, n)?,
            GoodStatement::Loop(body) => {
                // Compiled fragment: bodies of edge additions only — the
                // monotone case, where the loop is a plain fixpoint.
                let mut exprs: Vec<RelExpr> = Vec::new();
                for s in body {
                    match s {
                        GoodStatement::Op(GoodOp::EdgeAddition {
                            pattern,
                            label,
                            from,
                            to,
                        }) => exprs.push(ea_expr(pattern, *label, *from, *to)?),
                        _ => {
                            return Err(GoodError::Untranslatable(
                                "loops compile only with edge-addition bodies".into(),
                            ))
                        }
                    }
                }
                let union = exprs
                    .into_iter()
                    .reduce(RelExpr::union)
                    .ok_or_else(|| GoodError::Untranslatable("empty loop body".into()))?;
                *n += 1;
                let derived = format!("\u{1F}gder{n}");
                let delta = format!("\u{1F}gdelta{n}");
                let step = |p: FoProgram| {
                    p.assign(&derived, union.clone())
                        .assign(&delta, RelExpr::rel(&derived).minus(RelExpr::rel("Edge")))
                        .assign("Edge", RelExpr::rel("Edge").union(RelExpr::rel(&delta)))
                };
                let mut program = std::mem::take(fo);
                program = step(program);
                let body_fo = step(FoProgram::new());
                *fo = program.while_nonempty(&delta, body_fo);
            }
        }
    }
    Ok(())
}

fn compile_op(op: &GoodOp, fo: &mut FoProgram, n: &mut u32) -> Result<()> {
    let program = std::mem::take(fo);
    *fo = match op {
        GoodOp::EdgeAddition {
            pattern,
            label,
            from,
            to,
        } => {
            let new_edges = ea_expr(pattern, *label, *from, *to)?;
            program.assign("Edge", RelExpr::rel("Edge").union(new_edges))
        }
        GoodOp::EdgeDeletion {
            pattern,
            from,
            label,
            to,
        } => {
            let dead = ea_expr(pattern, *label, *from, *to)?;
            program.assign("Edge", RelExpr::rel("Edge").minus(dead))
        }
        GoodOp::NodeDeletion { pattern, target } => {
            if !pattern.vars().contains(target) {
                return Err(GoodError::UnknownVariable(*target));
            }
            let doomed = pattern_expr(pattern)?
                .project(&[&var_col(*target)])
                .rename(&var_col(*target), "Doom");
            *n += 1;
            let doom = format!("\u{1F}gdoom{n}");
            let dead_nodes = RelExpr::rel("Node")
                .times(RelExpr::rel(&doom))
                .select("Id", "Doom")
                .project(&["Id", "Label"]);
            let dead_src = RelExpr::rel("Edge")
                .times(RelExpr::rel(&doom))
                .select("Src", "Doom")
                .project(&["Src", "Lab", "Dst"]);
            let dead_dst = RelExpr::rel("Edge")
                .times(RelExpr::rel(&doom))
                .select("Dst", "Doom")
                .project(&["Src", "Lab", "Dst"]);
            program
                .assign(&doom, doomed)
                .assign("Node", RelExpr::rel("Node").minus(dead_nodes))
                .assign("Edge", RelExpr::rel("Edge").minus(dead_src.union(dead_dst)))
        }
        GoodOp::NodeAddition {
            pattern,
            label,
            edges,
            key,
        } => {
            let key_vars: Vec<u32> = if key.is_empty() {
                let mut vs: Vec<u32> = edges.iter().map(|&(_, v)| v).collect();
                vs.sort_unstable();
                vs.dedup();
                vs
            } else {
                key.clone()
            };
            for v in edges
                .iter()
                .map(|&(_, v)| v)
                .chain(key_vars.iter().copied())
            {
                if !pattern.vars().contains(&v) {
                    return Err(GoodError::UnknownVariable(v));
                }
            }
            let key_cols: Vec<String> = key_vars.iter().map(|&v| var_col(v)).collect();
            let key_refs: Vec<&str> = key_cols.iter().map(String::as_str).collect();
            let keyed = pattern_expr(pattern)?.project(&key_refs);
            *n += 1;
            let keys_rel = format!("\u{1F}gkeys{n}");
            let tagged = format!("\u{1F}gtagged{n}");
            let mut p = program.assign(&keys_rel, keyed);
            p = p.new_ids(&tagged, &keys_rel, "NewId");
            // New nodes.
            let new_nodes = RelExpr::rel(&tagged)
                .project(&["NewId"])
                .rename("NewId", "Id")
                .times(RelExpr::Const {
                    attr: Symbol::name("Label"),
                    value: *label,
                })
                .project(&["Id", "Label"]);
            p = p.assign("Node", RelExpr::rel("Node").union(new_nodes));
            // New edges per specification.
            for &(lab, v) in edges {
                let new_edges = RelExpr::rel(&tagged)
                    .project(&["NewId", &var_col(v)])
                    .rename("NewId", "Src")
                    .rename(&var_col(v), "Dst")
                    .times(RelExpr::Const {
                        attr: Symbol::name("Lab"),
                        value: lab,
                    })
                    .project(&["Src", "Lab", "Dst"]);
                p = p.assign("Edge", RelExpr::rel("Edge").union(new_edges));
            }
            p
        }
        GoodOp::Abstraction { .. } => {
            return Err(GoodError::Untranslatable(
                "abstraction needs set-creation (TA's set-new); use the native evaluator".into(),
            ))
        }
    };
    Ok(())
}

/// Compile a GOOD program into `FO + while + new` over the `Node`/`Edge`
/// embedding. See the module docs for the compiled fragment.
pub fn compile_good(p: &GoodProgram) -> Result<FoProgram> {
    let mut fo = FoProgram::new();
    let mut n = 0u32;
    compile_statements(&p.statements, &mut fo, &mut n)?;
    Ok(fo)
}

/// The graph's `Node`/`Edge` embedding, read as relations.
fn embed(g: &Graph) -> Result<RelDatabase> {
    Ok(RelDatabase::from_tabular(
        &to_tabular(g),
        &[Symbol::name("Node"), Symbol::name("Edge")],
    )?)
}

/// Run a GOOD program *through the tabular algebra* under `budget`: embed
/// the graph, compile to FO (this module) and then to TA (Theorem 4.1),
/// run the TA interpreter, and decode the resulting object base. The
/// compiled TA run honors the budget's deadline, run-cell allowance, and
/// cancellation token.
pub fn run_via_ta(p: &GoodProgram, g: &Graph, budget: &Budget) -> Result<Graph> {
    let fo = compile_good(p)?;
    let (out, _, _) = run_compiled(&fo, &embed(g)?, &["Node", "Edge"], budget)?;
    from_tabular(&out.to_tabular())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular_algebra::run_planned_governed_traced;

    fn nm(s: &str) -> Symbol {
        Symbol::name(s)
    }

    fn family() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node(nm("Person"));
        let b = g.add_node(nm("Person"));
        let c = g.add_node(nm("Person"));
        g.add_edge(a, nm("parent"), b);
        g.add_edge(b, nm("parent"), c);
        g
    }

    fn agree(p: &GoodProgram, g: &Graph) {
        let native = p.run(g, 1000).expect("native run");
        let via_ta = run_via_ta(p, g, &Budget::default()).expect("TA run");
        assert!(
            native.equiv(&via_ta),
            "native ({} nodes, {} edges) vs TA ({} nodes, {} edges)",
            native.node_count(),
            native.edge_count(),
            via_ta.node_count(),
            via_ta.edge_count()
        );
    }

    #[test]
    fn edge_addition_agrees() {
        let p = GoodProgram::new().op(GoodOp::EdgeAddition {
            pattern: Pattern::new()
                .node(0, "Person")
                .node(1, "Person")
                .node(2, "Person")
                .edge(0, "parent", 1)
                .edge(1, "parent", 2),
            label: nm("grandparent"),
            from: 0,
            to: 2,
        });
        agree(&p, &family());
    }

    #[test]
    fn planned_run_agrees_and_rewrites_pattern_joins() {
        // A two-edge pattern compiles to a chain of scratch products;
        // the planned path must agree with the native run and report
        // planner rewrites on those shapes.
        let p = GoodProgram::new().op(GoodOp::EdgeAddition {
            pattern: Pattern::new()
                .node(0, "Person")
                .node(1, "Person")
                .node(2, "Person")
                .edge(0, "parent", 1)
                .edge(1, "parent", 2),
            label: nm("grandparent"),
            from: 0,
            to: 2,
        });
        let g = family();
        let native = p.run(&g, 1000).expect("native run");
        let budget = Budget::default();
        let compiled = tabular_relational::compile(&compile_good(&p).unwrap());
        let (result, _, _, report) =
            run_planned_governed_traced(&compiled, &embed(&g).unwrap().to_tabular(), &budget)
                .expect("planned TA run");
        let out = RelDatabase::from_tabular(&result, &[nm("Node"), nm("Edge")]).unwrap();
        let planned = from_tabular(&out.to_tabular()).unwrap();
        assert!(native.equiv(&planned), "planned TA path diverged");
        assert!(report.rules_applied() >= 1, "pattern joins rewrite");
    }

    #[test]
    fn edge_deletion_agrees() {
        let p = GoodProgram::new().op(GoodOp::EdgeDeletion {
            pattern: Pattern::new()
                .node(0, "Person")
                .node(1, "Person")
                .edge(0, "parent", 1),
            from: 0,
            label: nm("parent"),
            to: 1,
        });
        agree(&p, &family());
    }

    #[test]
    fn node_deletion_agrees() {
        let p = GoodProgram::new().op(GoodOp::NodeDeletion {
            pattern: Pattern::new()
                .node(0, "Person")
                .node(1, "Person")
                .node(2, "Person")
                .edge(0, "parent", 1)
                .edge(1, "parent", 2),
            target: 1,
        });
        agree(&p, &family());
    }

    #[test]
    fn node_addition_agrees_up_to_iso() {
        let p = GoodProgram::new().op(GoodOp::NodeAddition {
            pattern: Pattern::new()
                .node(0, "Person")
                .node(1, "Person")
                .edge(0, "parent", 1),
            label: nm("Parenthood"),
            edges: vec![(nm("of"), 0), (nm("child"), 1)],
            key: vec![],
        });
        agree(&p, &family());
    }

    #[test]
    fn self_edge_addition_agrees() {
        let p = GoodProgram::new().op(GoodOp::EdgeAddition {
            pattern: Pattern::new().node(0, "Person"),
            label: nm("selfie"),
            from: 0,
            to: 0,
        });
        agree(&p, &family());
    }

    #[test]
    fn fixpoint_loop_agrees_on_transitive_closure() {
        let seed = GoodOp::EdgeAddition {
            pattern: Pattern::new()
                .node(0, "Person")
                .node(1, "Person")
                .edge(0, "parent", 1),
            label: nm("ancestor"),
            from: 0,
            to: 1,
        };
        let extend = GoodOp::EdgeAddition {
            pattern: Pattern::new()
                .node(0, "Person")
                .node(1, "Person")
                .node(2, "Person")
                .edge(0, "ancestor", 1)
                .edge(1, "ancestor", 2),
            label: nm("ancestor"),
            from: 0,
            to: 2,
        };
        let p = GoodProgram::new()
            .op(seed)
            .fixpoint(GoodProgram::new().op(extend));
        agree(&p, &family());
    }

    #[test]
    fn sequenced_operations_agree() {
        // Derive grandparent edges, then delete the middle generation.
        let p = GoodProgram::new()
            .op(GoodOp::EdgeAddition {
                pattern: Pattern::new()
                    .node(0, "Person")
                    .node(1, "Person")
                    .node(2, "Person")
                    .edge(0, "parent", 1)
                    .edge(1, "parent", 2),
                label: nm("grandparent"),
                from: 0,
                to: 2,
            })
            .op(GoodOp::NodeDeletion {
                pattern: Pattern::new()
                    .node(0, "Person")
                    .node(1, "Person")
                    .node(2, "Person")
                    .edge(0, "parent", 1)
                    .edge(1, "parent", 2),
                target: 1,
            });
        agree(&p, &family());
    }

    #[test]
    fn abstraction_is_outside_the_compiled_fragment() {
        let p = GoodProgram::new().op(GoodOp::Abstraction {
            node_label: nm("Paper"),
            via: nm("about"),
            label: nm("Area"),
            link: nm("contains"),
        });
        assert!(matches!(
            compile_good(&p),
            Err(GoodError::Untranslatable(_))
        ));
    }

    #[test]
    fn loops_with_non_ea_bodies_are_rejected() {
        let p = GoodProgram::new().fixpoint(GoodProgram::new().op(GoodOp::NodeDeletion {
            pattern: Pattern::new().node(0, "Person"),
            target: 0,
        }));
        assert!(matches!(
            compile_good(&p),
            Err(GoodError::Untranslatable(_))
        ));
    }
}
