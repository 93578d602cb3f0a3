//! Pretty-printer for tabular algebra programs: the inverse of
//! [`crate::parser::parse`]. `parse(render(p)) == p` for every program
//! (checked by tests and by a proptest over random programs).
//!
//! Also renders evaluation traces ([`render_trace`]) as an
//! `EXPLAIN ANALYZE`-style tree.

use crate::obs::trace::{DeltaDecision, Span, SpanKind, Trace};
use crate::param::{Item, Param};
use crate::program::{Assignment, OpKind, Program, Statement};
use std::fmt::Write;
use tabular_core::Symbol;

fn ident_ok(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '.')
        && s != "_"
        && !s.eq_ignore_ascii_case("while")
        && !s.eq_ignore_ascii_case("do")
        && !s.eq_ignore_ascii_case("end")
        && !s.eq_ignore_ascii_case("by")
        && !s.eq_ignore_ascii_case("on")
        // FUSEDRESTRUCTURE clause keywords: a bare identifier spelled like
        // one of these inside its bracket list would be taken as the next
        // clause, so such names always render quoted.
        && !s.eq_ignore_ascii_case("group")
        && !s.eq_ignore_ascii_case("cleanup")
        && !s.eq_ignore_ascii_case("purge")
}

fn render_symbol(s: Symbol, out: &mut String) {
    match s {
        Symbol::Null => out.push('_'),
        Symbol::Name(i) => {
            let text = i.as_str();
            if ident_ok(text) {
                out.push_str(text);
            } else {
                write!(
                    out,
                    "n:\"{}\"",
                    text.replace('\\', "\\\\").replace('"', "\\\"")
                )
                .unwrap();
            }
        }
        Symbol::Value(i) => {
            let text = i.as_str();
            if ident_ok(text) {
                write!(out, "v:{text}").unwrap();
            } else {
                write!(
                    out,
                    "v:\"{}\"",
                    text.replace('\\', "\\\\").replace('"', "\\\"")
                )
                .unwrap();
            }
        }
    }
}

fn render_item(item: &Item, out: &mut String) {
    match item {
        Item::Null => out.push('_'),
        Item::Sym(s) => render_symbol(*s, out),
        Item::Star(0) => out.push('*'),
        Item::Star(k) => write!(out, "*{k}").unwrap(),
        Item::Pair(r, c) => {
            out.push('(');
            render_param(r, out);
            out.push_str(", ");
            render_param(c, out);
            out.push(')');
        }
    }
}

/// Render a parameter in the concrete syntax.
pub fn render_param(p: &Param, out: &mut String) {
    let braced = p.positive.len() != 1 || (!p.negative.is_empty() && p.negative.len() > 1);
    if braced {
        out.push('{');
    }
    for (k, item) in p.positive.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        render_item(item, out);
    }
    if !p.negative.is_empty() {
        out.push_str(" \\ ");
        for (k, item) in p.negative.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            render_item(item, out);
        }
    }
    if braced {
        out.push('}');
    }
}

fn render_op(op: &OpKind, out: &mut String) {
    out.push_str(op.keyword());
    match op {
        OpKind::Rename { from, to } => {
            out.push('[');
            render_param(from, out);
            out.push_str(" -> ");
            render_param(to, out);
            out.push(']');
        }
        OpKind::Project { attrs } => {
            out.push('[');
            render_param(attrs, out);
            out.push(']');
        }
        OpKind::Select { a, b } | OpKind::FusedJoin { a, b } => {
            out.push('[');
            render_param(a, out);
            out.push_str(" = ");
            render_param(b, out);
            out.push(']');
        }
        OpKind::SelectConst { a, v } => {
            out.push('[');
            render_param(a, out);
            out.push_str(" = ");
            render_param(v, out);
            out.push(']');
        }
        OpKind::Group { by, on } => {
            out.push_str("[by ");
            render_param(by, out);
            out.push_str(" on ");
            render_param(on, out);
            out.push(']');
        }
        OpKind::Merge { on, by } => {
            out.push_str("[on ");
            render_param(on, out);
            out.push_str(" by ");
            render_param(by, out);
            out.push(']');
        }
        OpKind::Split { on } => {
            out.push_str("[on ");
            render_param(on, out);
            out.push(']');
        }
        OpKind::Collapse { by } => {
            out.push_str("[by ");
            render_param(by, out);
            out.push(']');
        }
        OpKind::Switch { entry } => {
            out.push('[');
            render_param(entry, out);
            out.push(']');
        }
        OpKind::CleanUp { by, on } => {
            out.push_str("[by ");
            render_param(by, out);
            out.push_str(" on ");
            render_param(on, out);
            out.push(']');
        }
        OpKind::Purge { on, by } => {
            out.push_str("[on ");
            render_param(on, out);
            out.push_str(" by ");
            render_param(by, out);
            out.push(']');
        }
        OpKind::FusedRestructure(chain) => {
            out.push_str("[group by ");
            render_param(&chain.group_by, out);
            out.push_str(" on ");
            render_param(&chain.group_on, out);
            out.push_str(" cleanup by ");
            render_param(&chain.cleanup_by, out);
            out.push_str(" on ");
            render_param(&chain.cleanup_on, out);
            if let Some((on, by)) = &chain.purge {
                out.push_str(" purge on ");
                render_param(on, out);
                out.push_str(" by ");
                render_param(by, out);
            }
            out.push(']');
        }
        OpKind::TupleNew { attr } | OpKind::SetNew { attr } => {
            out.push('[');
            render_param(attr, out);
            out.push(']');
        }
        OpKind::Union
        | OpKind::Difference
        | OpKind::Intersect
        | OpKind::Product
        | OpKind::Transpose
        | OpKind::Copy
        | OpKind::ClassicalUnion => {}
    }
}

fn render_statement(stmt: &Statement, indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
    match stmt {
        Statement::Assign(Assignment { target, op, args }) => {
            render_param(target, out);
            out.push_str(" <- ");
            render_op(op, out);
            out.push('(');
            for (k, a) in args.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                render_param(a, out);
            }
            out.push_str(")\n");
        }
        Statement::While { cond, body } => {
            out.push_str("while ");
            render_param(cond, out);
            out.push_str(" do\n");
            for s in body {
                render_statement(s, indent + 1, out);
            }
            for _ in 0..indent {
                out.push_str("  ");
            }
            out.push_str("end\n");
        }
    }
}

/// Render a program in the concrete syntax accepted by
/// [`crate::parser::parse`].
pub fn render(p: &Program) -> String {
    let mut out = String::new();
    for stmt in &p.statements {
        render_statement(stmt, 0, &mut out);
    }
    out
}

/// Render a planner decision report as an `EXPLAIN`-style listing: one
/// line per rewrite decision with the rule, the rewritten site, what was
/// decided, and the cost model's cell estimates where it had statistics.
///
/// ```text
/// plan: 2 rule applications, 5 statements rewritten
///   [reorder-joins] Out: re-associated 3-way product chain as L ⋈ (M ⋈ N) (est 817 → 90 cells)
///   [eliminate-dead] program: dropped 1 dead scratch assignments
/// ```
pub fn render_plan(report: &crate::plan::PlanReport) -> String {
    let mut out = String::new();
    if report.decisions.is_empty() {
        out.push_str("plan: no rewrites\n");
        return out;
    }
    writeln!(
        out,
        "plan: {} rule applications, {} statements rewritten",
        report.rules_applied(),
        report.statements_rewritten
    )
    .unwrap();
    for d in &report.decisions {
        write!(out, "  [{}] {}: {}", d.rule.name(), d.site, d.detail).unwrap();
        match (d.before_cells, d.after_cells) {
            (Some(b), Some(a)) => write!(out, " (est {b} → {a} cells)").unwrap(),
            (Some(b), None) => write!(out, " (est {b} cells before)").unwrap(),
            _ => {}
        }
        out.push('\n');
    }
    out
}

/// Render a trace as a human-readable `EXPLAIN ANALYZE`-style tree: one
/// line per span, children indented under parents, annotated with the
/// statement-level figures — how many argument combinations matched, the
/// cells read and produced, the wall time, and the delta decision. Each
/// line maps to one §3 statement execution (or `while` iteration, or
/// shard job).
///
/// ```text
/// while #1 [42 µs]
///   PRODUCT matched=1 in=36 out=48 [17 µs]
///     shard 0 tables=1 [9 µs]
///   SELECT matched=1 in=48 out=12 [4 µs]
///   COPY (delta-skipped, 1 tables cached)
/// ```
pub fn render_trace(trace: &Trace) -> String {
    let mut out = String::new();
    if trace.dropped() > 0 {
        writeln!(
            out,
            "... {} earlier spans dropped (ring capacity {})",
            trace.dropped(),
            Trace::CAPACITY
        )
        .unwrap();
    }
    // Spans complete children-first (a statement's span closes before its
    // iteration's); rebuild the tree from parent ids and emit it in
    // start order — parents first, children in completion order.
    let spans: Vec<&Span> = trace.spans().collect();
    let index_of: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent.and_then(|p| index_of.get(&p)) {
            Some(&p) => children[p].push(i),
            // Parent missing (evicted by the ring) ⇒ treat as a root.
            None => roots.push(i),
        }
    }
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        render_trace_line(spans[i], depth, &mut out);
        for &c in children[i].iter().rev() {
            stack.push((c, depth + 1));
        }
    }
    out
}

fn render_trace_line(s: &Span, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    match s.kind {
        SpanKind::WhileIter => {
            if s.decision == DeltaDecision::Aborted {
                writeln!(out, "while #{} ← budget tripped", s.iteration.unwrap_or(0)).unwrap();
            } else {
                writeln!(out, "while #{} [{} µs]", s.iteration.unwrap_or(0), s.micros).unwrap();
            }
        }
        SpanKind::Shard => {
            writeln!(
                out,
                "shard {} tables={} [{} µs]",
                s.shard.unwrap_or(0),
                s.matched,
                s.micros
            )
            .unwrap();
        }
        SpanKind::Partition => {
            writeln!(
                out,
                "partition {} rows={} [{} µs]",
                s.shard.unwrap_or(0),
                s.matched,
                s.micros
            )
            .unwrap();
        }
        SpanKind::Plan => {
            if s.input_cells == 0 && s.output_cells == 0 {
                writeln!(out, "plan [{}]", s.op).unwrap();
            } else {
                writeln!(
                    out,
                    "plan [{}] est {} → {} cells",
                    s.op, s.input_cells, s.output_cells
                )
                .unwrap();
            }
        }
        SpanKind::Assign => {
            // Join-fusion decision, e.g. `FUSEDJOIN (fused-join)` — shows
            // why a FUSEDJOIN statement did or did not run the hash path.
            let fusion = s.fusion.map(|f| format!(" ({f})")).unwrap_or_default();
            match s.decision {
                DeltaDecision::DeltaSkipped => {
                    writeln!(out, "{} (delta-skipped, {} tables cached)", s.op, s.matched).unwrap();
                }
                DeltaDecision::Aborted => {
                    writeln!(
                        out,
                        "{}{} matched={} in={} out={} ← budget tripped",
                        s.op, fusion, s.matched, s.input_cells, s.output_cells
                    )
                    .unwrap();
                }
                _ => {
                    let cow = if s.cow_copies > 0 {
                        format!(" cow={}", s.cow_copies)
                    } else {
                        String::new()
                    };
                    writeln!(
                        out,
                        "{}{} matched={} in={} out={}{} [{} µs]",
                        s.op, fusion, s.matched, s.input_cells, s.output_cells, cow, s.micros
                    )
                    .unwrap();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn round_trip(src: &str) {
        let p = parse(src).unwrap();
        let rendered = render(&p);
        let p2 = parse(&rendered).unwrap_or_else(|e| panic!("re-parse of {rendered:?}: {e}"));
        assert_eq!(p, p2, "round trip changed program; rendered:\n{rendered}");
    }

    #[test]
    fn round_trips_all_operations() {
        round_trip(
            r#"
            T <- UNION(R, S)
            T <- DIFFERENCE(R, S)
            T <- INTERSECT(R, S)
            T <- PRODUCT(R, S)
            T <- CLASSICALUNION(R, S)
            T <- RENAME[A -> B](R)
            T <- PROJECT[{A, B}](R)
            T <- SELECT[A = B](R)
            T <- FUSEDJOIN[A = B](R, S)
            T <- SELECTCONST[A = v:50](R)
            T <- GROUP[by {Region} on {Sold}](R)
            T <- MERGE[on {Sold} by {Region}](R)
            T <- SPLIT[on {Region}](R)
            T <- COLLAPSE[by {Region}](R)
            T <- TRANSPOSE(R)
            T <- SWITCH[v:east](R)
            T <- CLEANUP[by {Part} on {_}](R)
            T <- PURGE[on {Sold} by {Region}](R)
            T <- FUSEDRESTRUCTURE[group by {Region} on {Sold} cleanup by {Part} on {_} purge on {Sold} by {Region}](R)
            T <- FUSEDRESTRUCTURE[group by {Region} on {Sold} cleanup by {Part} on {_}](R)
            T <- TUPLENEW[Id](R)
            T <- SETNEW[Tag](R)
            T <- COPY(R)
        "#,
        );
    }

    #[test]
    fn render_plan_lists_decisions_with_cell_estimates() {
        use crate::plan;
        use crate::program::{OpKind, Program};
        use tabular_core::{Database, Symbol, Table};

        // A scratch PRODUCT consumed once by a SELECT whose attributes
        // split across the operands: the planner fuses it into a hash
        // join and, with catalog statistics, prices the decision.
        let s = Symbol::fresh_name();
        let p = Program::new()
            .assign(
                Param::sym(s),
                OpKind::Product,
                vec![Param::name("R"), Param::name("T")],
            )
            .assign(
                Param::name("Out"),
                OpKind::Select {
                    a: Param::name("A"),
                    b: Param::name("C"),
                },
                vec![Param::sym(s)],
            );
        let db = Database::from_tables([
            Table::relational("R", &["A", "B"], &[&["1", "x"], &["2", "y"]]),
            Table::relational("T", &["C", "D"], &[&["1", "u"]]),
        ]);
        let (_, report) = plan::plan(&p, &db);
        let text = render_plan(&report);
        assert!(text.contains("statements rewritten"), "{text}");
        assert!(text.contains("[fuse-join] Out:"), "{text}");
        assert!(text.contains("cells)"), "estimates rendered: {text}");
        assert_eq!(
            render_plan(&plan::PlanReport::default()),
            "plan: no rewrites\n"
        );
    }

    #[test]
    fn round_trips_loops_wildcards_pairs() {
        round_trip(
            r#"
            while Work do
              *1 <- PROJECT[{* \ Region}](*1)
              T <- SWITCH[(Region, Sold)](R)
            end
        "#,
        );
    }

    #[test]
    fn round_trips_awkward_symbols() {
        round_trip(r#"T <- SWITCH[v:"east west"](R)"#);
        round_trip(r#"T <- SWITCH[n:"has \"quotes\""](R)"#);
        round_trip(r#"T <- SELECTCONST[A = v:"50"](R)"#);
        // Clause keywords used as attribute names must render quoted, or a
        // re-parse would read them as the next FUSEDRESTRUCTURE clause.
        round_trip(
            r#"T <- FUSEDRESTRUCTURE[group by n:"purge" on {Sold} cleanup by n:"group" on n:"cleanup"](R)"#,
        );
    }

    #[test]
    fn render_trace_nests_statements_under_iterations() {
        use crate::eval::{run_governed_traced, EvalLimits};
        use crate::governor::Budget;
        use crate::obs::trace::TraceLevel;
        use tabular_core::{Database, Table};

        let p = parse(
            "while W do
               S <- CLASSICALUNION(S, W)
               W <- DIFFERENCE(S, S)
             end",
        )
        .unwrap();
        let db = Database::from_tables([
            Table::relational("W", &["A"], &[&["1"]]),
            Table::relational("S", &["A"], &[&["0"]]),
        ]);
        let limits = EvalLimits {
            trace: TraceLevel::Spans,
            ..EvalLimits::default()
        };
        let (_, _, trace) = run_governed_traced(&p, &db, &Budget::from_limits(&limits)).unwrap();
        let text = render_trace(&trace);
        assert!(text.contains("while #1"), "iteration line:\n{text}");
        // Body statements are indented one level under their iteration.
        assert!(
            text.contains("\n  CLASSICALUNION matched=") || text.contains("\n  CLASSICALUNION ("),
            "nested statement line:\n{text}"
        );
    }

    #[test]
    fn renders_keyword_collisions_quoted() {
        // A table named "while" must render quoted, not bare.
        let p = Program::new().assign(Param::name("while"), OpKind::Copy, vec![Param::name("end")]);
        let rendered = render(&p);
        let p2 = parse(&rendered).unwrap();
        assert_eq!(p, p2);
    }
}
