//! Differential test oracle for the TA interpreter's evaluation
//! strategies (DESIGN.md, "Delta-driven `while` evaluation").
//!
//! Random ground `while` programs are run under every combination of
//! `WhileStrategy::{Naive, Delta}` and `parallel_threshold ∈ {1, ∞}`
//! (always-sharded vs never-sharded), plus both strategies with
//! `trace = Spans` so the span-recording path stays exercised (its
//! per-op totals must reconcile with `EvalStats`, and logical production
//! accounting must agree between strategies). All configurations must
//! agree:
//! either every run fails with the same error, or every run produces the
//! same database *up to fresh-tag isomorphism* — programs containing
//! `TUPLENEW` mint different tag symbols on every run, so outputs are
//! compared after renumbering machine-generated symbols into a canonical
//! form (the database-level analogue of
//! `tabular_relational::canonicalize_fresh`).
//!
//! Programs deliberately include name groups (`SPLIT`), non-monotone
//! operations (`DIFFERENCE`, `TRANSPOSE`), loop-invariant statements
//! (skipping candidates), accumulator growth (`CLASSICALUNION` — the
//! append-incremental path), nested loops (delta → naive fallback), and
//! diverging loops (identical `LimitExceeded` errors).

mod common;

use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::HashMap;
use tables_paradigm::algebra::Statement;
use tables_paradigm::core::interner;
use tables_paradigm::prelude::*;

// ----------------------------------------------------------------------
// Equality up to fresh-tag isomorphism
// ----------------------------------------------------------------------

fn is_fresh(s: Symbol) -> bool {
    s.text().is_some_and(interner::is_reserved)
}

/// Compare two storage rows with fresh symbols masked out (fresh sorts
/// before everything, so rows differing only in tags tie).
fn cmp_masked(a: &[Symbol], b: &[Symbol]) -> Ordering {
    for (&x, &y) in a.iter().zip(b) {
        let c = match (is_fresh(x), is_fresh(y)) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => x.canonical_cmp(y),
        };
        if c != Ordering::Equal {
            return c;
        }
    }
    a.len().cmp(&b.len())
}

/// Renumber machine-generated fresh symbols (tags from `TUPLENEW` /
/// `SETNEW`) into position-canonical placeholders, then canonicalize.
/// Rows and tables are ordered by their fresh-masked content first, so
/// the numbering does not depend on which run minted which tag. Like
/// `tabular_relational::canonicalize_fresh`, this is a true canonical
/// form whenever rows are distinguishable by their non-fresh parts, which
/// holds for tagging-style programs.
fn canonicalize_fresh(db: &Database) -> Database {
    let mut tables: Vec<Table> = db
        .tables()
        .iter()
        .map(|t| {
            let mut idx: Vec<usize> = (1..=t.height()).collect();
            idx.sort_by(|&i, &k| cmp_masked(t.storage_row(i), t.storage_row(k)));
            t.select_rows(&idx)
        })
        .collect();
    tables.sort_by(|a, b| {
        a.name()
            .canonical_cmp(b.name())
            .then_with(|| a.height().cmp(&b.height()))
            .then_with(|| a.width().cmp(&b.width()))
            .then_with(|| {
                (0..=a.height())
                    .map(|i| cmp_masked(a.storage_row(i), b.storage_row(i)))
                    .find(|c| *c != Ordering::Equal)
                    .unwrap_or(Ordering::Equal)
            })
    });
    let mut mapping: HashMap<Symbol, Symbol> = HashMap::new();
    let mut renumber = |s: Symbol| -> Symbol {
        if !is_fresh(s) {
            return s;
        }
        let n = mapping.len();
        *mapping.entry(s).or_insert_with(|| {
            let text = format!("fresh#{n}");
            if s.is_name() {
                Symbol::name(&text)
            } else {
                Symbol::value(&text)
            }
        })
    };
    let renumbered: Vec<Table> = tables
        .iter()
        .map(|t| t.map_symbols(&mut renumber))
        .collect();
    Database::from_tables(renumbered).canonicalize()
}

// ----------------------------------------------------------------------
// Program generation
// ----------------------------------------------------------------------

const TARGETS: [&str; 5] = ["R", "S", "T", "U", "V"];
const SOURCES: [&str; 6] = ["R", "S", "T", "U", "V", "W"];
const ATTRS: [&str; 4] = ["A", "B", "C", "D"];

/// One random ground assignment, as concrete syntax. Covers the
/// traditional, restructuring, transposition, redundancy, and tagging
/// layers; every parameter is a literal name or value, so loop bodies
/// stay eligible for delta evaluation (except when `TUPLENEW` lands in
/// them, which is the fallback case the oracle also wants to hit).
fn arb_stmt() -> impl Strategy<Value = String> {
    (
        0usize..17,
        0usize..5,
        0usize..6,
        0usize..6,
        0usize..4,
        0usize..4,
    )
        .prop_map(|(op, t, x, y, a, b)| {
            let (t, x, y) = (TARGETS[t], SOURCES[x], SOURCES[y]);
            let (a, b) = (ATTRS[a], ATTRS[b]);
            match op {
                0 => format!("{t} <- UNION({x}, {y})"),
                1 => format!("{t} <- DIFFERENCE({x}, {y})"),
                2 => format!("{t} <- INTERSECT({x}, {y})"),
                3 => format!("{t} <- PRODUCT({x}, {y})"),
                4 => format!("{t} <- COPY({x})"),
                5 => format!("{t} <- CLASSICALUNION({x}, {y})"),
                6 => format!("{t} <- SELECT[{a} = {b}]({x})"),
                7 => format!("{t} <- SELECTCONST[{a} = v:v{y}]({x})"),
                8 => format!("{t} <- PROJECT[{{{a}, {b}}}]({x})"),
                9 => format!("{t} <- RENAME[{a} -> {b}]({x})"),
                10 => format!("{t} <- TRANSPOSE({x})"),
                11 => format!("{t} <- CLEANUP[by {{{a}}} on {{{b}}}]({x})"),
                12 => format!("{t} <- PURGE[on {{{a}}} by {{{b}}}]({x})"),
                13 => format!("{t} <- GROUP[by {{{a}}} on {{{b}}}]({x})"),
                14 => format!("{t} <- MERGE[on {{{a}}} by {{{b}}}]({x})"),
                15 => format!("{t} <- SPLIT[on {{{a}}}]({x})"),
                _ => format!("{t} <- TUPLENEW[Tg]({x})"),
            }
        })
}

/// A whole program: prologue, a `while W` loop whose body is a mix of
/// generated statements, optionally a nested inner loop (forcing the
/// naive fallback), and a countdown making the loop run `steps + 1`
/// iterations — or no countdown at all (`steps == 0` with `diverge`),
/// leaving termination to `max_while_iters`.
fn arb_program() -> impl Strategy<Value = String> {
    let stmts = |n| proptest::collection::vec(arb_stmt(), n);
    (
        stmts(0..3usize),
        stmts(1..6usize),
        stmts(0..3usize),
        0usize..4,
        0usize..8,
        stmts(0..2usize),
    )
        .prop_map(|(prologue, body, inner, steps, chaos, epilogue)| {
            let mut lines = prologue;
            lines.push("while W do".into());
            lines.extend(body);
            if !inner.is_empty() {
                lines.push("while X do".into());
                lines.extend(inner);
                lines.push("X <- DIFFERENCE(X, X)".into());
                lines.push("end".into());
            }
            let diverge = chaos == 0;
            if !diverge {
                for i in (1..=steps).rev() {
                    let prev = if i == steps {
                        "Wend".to_string()
                    } else {
                        format!("Wcnt{}", i + 1)
                    };
                    lines.push(format!("Wcnt{i} <- COPY({prev})"));
                }
                let first = if steps == 0 {
                    "Wend".into()
                } else {
                    "Wcnt1".to_string()
                };
                lines.push(format!("W <- COPY({first})"));
                lines.push("Wend <- DIFFERENCE(Wend, Wend)".into());
            }
            lines.push("end".into());
            lines.extend(epilogue);
            lines.join("\n")
        })
}

/// A small input database: two relational tables sharing attribute `B`,
/// two more overlapping tables, an empty one, and the loop counters.
fn arb_input() -> impl Strategy<Value = Database> {
    let rel = |max: usize| proptest::collection::vec((0usize..4, 0usize..4), 0..max);
    (rel(6), rel(6), rel(4), rel(4)).prop_map(|(r, s, t, u)| {
        let table = |name: &str, attrs: [&str; 2], rows: &[(usize, usize)]| {
            let tuples: Vec<Vec<Symbol>> = rows
                .iter()
                .map(|(a, b)| {
                    vec![
                        Symbol::value(&format!("v{a}")),
                        Symbol::value(&format!("v{b}")),
                    ]
                })
                .collect();
            Table::relational_syms(
                Symbol::name(name),
                &[Symbol::name(attrs[0]), Symbol::name(attrs[1])],
                &tuples,
            )
        };
        let counter = |name: &str| Table::relational(name, &["K"], &[&["go"]]);
        Database::from_tables([
            table("R", ["A", "B"], &r),
            table("S", ["B", "C"], &s),
            table("T", ["C", "D"], &t),
            table("U", ["A", "C"], &u),
            Table::relational("V", &["D"], &[]),
            counter("W"),
            counter("X"),
            counter("Wend"),
            counter("Wcnt1"),
            counter("Wcnt2"),
            counter("Wcnt3"),
        ])
    })
}

// ----------------------------------------------------------------------
// The oracle
// ----------------------------------------------------------------------

fn limits(strategy: WhileStrategy, parallel_threshold: usize) -> EvalLimits {
    EvalLimits {
        max_while_iters: 6,
        max_cells: 20_000,
        max_tables: 64,
        while_strategy: strategy,
        parallel_threshold,
        ..EvalLimits::default()
    }
}

fn spans(strategy: WhileStrategy) -> EvalLimits {
    EvalLimits {
        trace: TraceLevel::Spans,
        ..limits(strategy, usize::MAX)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strategies_and_sharding_agree(src in arb_program(), db in arb_input()) {
        let program = parse(&src).unwrap_or_else(|e| {
            panic!("generated program must parse: {e}\n{src}")
        });
        let configs = [
            limits(WhileStrategy::Naive, usize::MAX),
            limits(WhileStrategy::Naive, 1),
            limits(WhileStrategy::Delta, usize::MAX),
            limits(WhileStrategy::Delta, 1),
            spans(WhileStrategy::Naive),
            spans(WhileStrategy::Delta),
        ];
        let baseline = run_governed_traced(&program, &db, &Budget::from_limits(&configs[0]));
        let canon_base = baseline.as_ref().map(|(out, _, _)| canonicalize_fresh(out));
        let base_stats = baseline.as_ref().ok().map(|(_, stats, _)| stats);
        for cfg in &configs[1..] {
            let traced = run_governed_traced(&program, &db, &Budget::from_limits(cfg));
            match (&canon_base, &traced) {
                (Ok(expect), Ok((got, stats, trace))) => {
                    let got = canonicalize_fresh(got);
                    prop_assert!(
                        *expect == got,
                        "outputs diverge under {:?}/threshold {}\nprogram:\n{}\nbaseline:\n{}\ngot:\n{}",
                        cfg.while_strategy, cfg.parallel_threshold, src, expect, got
                    );
                    // Unplanned runs must never report planner activity
                    // (the counters are stamped only by the planned
                    // entry points).
                    prop_assert_eq!(stats.plans_rewritten, 0);
                    prop_assert_eq!(stats.plan_rules_applied, 0);
                    // Logical production accounting agrees across
                    // strategies: delta skips charge their memoized
                    // output shape.
                    if let Some(base) = base_stats {
                        prop_assert_eq!(
                            base.tables_produced, stats.tables_produced,
                            "tables_produced diverges under {:?}/threshold {} for program:\n{}",
                            cfg.while_strategy, cfg.parallel_threshold, src
                        );
                        prop_assert_eq!(
                            base.max_table_cells, stats.max_table_cells,
                            "max_table_cells diverges under {:?}/threshold {} for program:\n{}",
                            cfg.while_strategy, cfg.parallel_threshold, src
                        );
                    }
                    // Complete span traces reconcile exactly with stats.
                    if cfg.trace == TraceLevel::Spans && trace.dropped() == 0 {
                        prop_assert_eq!(
                            trace.per_op_micros(), stats.op_micros.clone(),
                            "trace/stats mismatch under {:?} for program:\n{}",
                            cfg.while_strategy, src
                        );
                    }
                }
                (Err(expect), Err(got)) => {
                    prop_assert_eq!(
                        expect.to_string(),
                        got.to_string(),
                        "errors diverge under {:?}/threshold {} for program:\n{}",
                        cfg.while_strategy, cfg.parallel_threshold, src
                    );
                }
                (Ok(_), Err(got)) => {
                    return Err(TestCaseError::fail(format!(
                        "baseline succeeded but {:?}/threshold {} failed with {got}\nprogram:\n{}",
                        cfg.while_strategy, cfg.parallel_threshold, src
                    )));
                }
                (Err(expect), Ok(_)) => {
                    return Err(TestCaseError::fail(format!(
                        "baseline failed with {expect} but {:?}/threshold {} succeeded\nprogram:\n{}",
                        cfg.while_strategy, cfg.parallel_threshold, src
                    )));
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// The fusion oracle: join fusion on ≡ off
// ----------------------------------------------------------------------

/// A `SELECT[a = b]` over a `PRODUCT` staged through single-use
/// reserved-namespace scratch — the exact shape the planner's `fuse-join` rule rewrites
/// into `FUSEDJOIN`. `n` keeps scratch names unique across splices.
fn fusable_chain(n: usize, t: &str, x: &str, y: &str, a: &str, b: &str) -> Vec<Statement> {
    use tables_paradigm::algebra::Assignment;
    let scratch = Param::sym(Symbol::name(&format!("\u{1F}fo{n}")));
    vec![
        Statement::Assign(Assignment {
            target: scratch.clone(),
            op: OpKind::Product,
            args: vec![Param::name(x), Param::name(y)],
        }),
        Statement::Assign(Assignment {
            target: Param::name(t),
            op: OpKind::Select {
                a: Param::name(a),
                b: Param::name(b),
            },
            args: vec![scratch],
        }),
    ]
}

/// Drop reserved-namespace scratch tables: the unfused program
/// materializes its staged products there, the fused one never creates
/// them, so only the visible tables are comparable.
fn visible(db: &Database) -> Database {
    Database::from_tables(
        db.tables()
            .iter()
            .filter(|t| !is_fresh(t.name()))
            .cloned()
            .collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The fusion oracle: applying the optimizer's join-fusion rewrite
    /// must not change any visible output under any strategy or shard
    /// configuration. Random programs get SELECT-over-scratch-PRODUCT
    /// chains spliced into the prologue (always executed) and the loop
    /// body (delta-incremental path); whether each chain's attributes
    /// make the hash kernel applicable or force the definitional
    /// fallback varies with the drawn operands — both must agree with
    /// the unfused program. The comparison is asymmetric on resource
    /// trips by design: fusion never materializes the staged product,
    /// so a fused run may succeed where the unfused baseline exhausts
    /// `max_cells`/`max_tables` — that asymmetry is the optimization.
    #[test]
    fn fusion_on_and_off_agree(
        src in arb_program(),
        db in arb_input(),
        (t1, x1, y1) in (0usize..5, 0usize..6, 0usize..6),
        (a1, b1) in (0usize..4, 0usize..4),
        (t2, x2, y2) in (0usize..5, 0usize..6, 0usize..6),
        (a2, b2) in (0usize..4, 0usize..4),
    ) {

        let mut program = parse(&src).unwrap_or_else(|e| {
            panic!("generated program must parse: {e}\n{src}")
        });
        let head = fusable_chain(0, TARGETS[t1], SOURCES[x1], SOURCES[y1], ATTRS[a1], ATTRS[b1]);
        program.statements.splice(0..0, head);
        if let Some(Statement::While { body, .. }) = program
            .statements
            .iter_mut()
            .find(|s| matches!(s, Statement::While { .. }))
        {
            let inner =
                fusable_chain(1, TARGETS[t2], SOURCES[x2], SOURCES[y2], ATTRS[a2], ATTRS[b2]);
            body.splice(0..0, inner);
        }
        let fused = plan_with_rules(&program, None, &[Rule::FuseJoin]).0;
        fn count_fused(stmts: &[Statement]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Statement::Assign(a) => {
                        usize::from(matches!(a.op, OpKind::FusedJoin { .. }))
                    }
                    Statement::While { body, .. } => count_fused(body),
                })
                .sum()
        }
        prop_assert!(count_fused(&fused.statements) >= 1, "spliced chains must fuse");

        let configs = [
            limits(WhileStrategy::Naive, usize::MAX),
            limits(WhileStrategy::Naive, 1),
            limits(WhileStrategy::Delta, usize::MAX),
            limits(WhileStrategy::Delta, 1),
        ];
        let baseline = run_governed_traced(&program, &db, &Budget::from_limits(&configs[0]));
        let Ok((base_out, _, _)) = &baseline else {
            // Unfused baseline tripped a resource limit; fused runs may
            // legitimately proceed further, so there is nothing to pin.
            return Ok(());
        };
        let expect = canonicalize_fresh(&visible(base_out));
        for cfg in &configs {
            let (got, stats, _) = run_governed_traced(&fused, &db, &Budget::from_limits(cfg)).unwrap_or_else(|e| {
                panic!(
                    "fused run failed where unfused baseline succeeded \
                     under {:?}/threshold {}: {e}\nprogram:\n{src}",
                    cfg.while_strategy, cfg.parallel_threshold
                )
            });
            prop_assert!(
                expect == canonicalize_fresh(&visible(&got)),
                "fused output diverges under {:?}/threshold {}\nprogram:\n{}",
                cfg.while_strategy, cfg.parallel_threshold, src
            );
            // The prologue chain always executes, so every fused run
            // decides the kernel-vs-fallback question at least once.
            prop_assert!(
                stats.join_fused + stats.join_unfused >= 1,
                "fused run recorded no fusion decision under {:?}/threshold {}",
                cfg.while_strategy, cfg.parallel_threshold
            );
        }
        // And the unfused program itself still agrees across strategies
        // on the spliced shape (the pre-existing oracle covers generated
        // programs; this covers the scratch-staged chains).
        for cfg in &configs[1..] {
            if let Ok((got, _, _)) = run_governed_traced(&program, &db, &Budget::from_limits(cfg)) {
                prop_assert!(
                    expect == canonicalize_fresh(&visible(&got)),
                    "unfused output diverges under {:?}/threshold {}\nprogram:\n{}",
                    cfg.while_strategy, cfg.parallel_threshold, src
                );
            }
        }
    }
}

// ----------------------------------------------------------------------
// The partitioning oracle: partition-parallel joins on ≡ off
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The partitioning oracle: the partition-parallel join kernel must
    /// be *byte-identical* to the serial kernel — not merely equivalent —
    /// under every strategy and shard configuration. The same fused
    /// program (scratch-staged join chains spliced into the prologue and
    /// the loop body, then the `fuse-join` rule) runs under Naive/Delta ×
    /// serial/sharded × `partition_threshold ∈ {∞, 1}`; because only the
    /// limits differ, every run must produce the same database (up to
    /// fresh-tag renumbering for `TUPLENEW` programs) or fail with the
    /// same error — partitioning materializes exactly the tables the
    /// serial kernel does, so even `LimitExceeded` trips must agree.
    #[test]
    fn partitioning_on_and_off_agree(
        src in arb_program(),
        db in arb_input(),
        (t1, x1, y1) in (0usize..5, 0usize..6, 0usize..6),
        (a1, b1) in (0usize..4, 0usize..4),
        (t2, x2, y2) in (0usize..5, 0usize..6, 0usize..6),
        (a2, b2) in (0usize..4, 0usize..4),
    ) {

        let mut program = parse(&src).unwrap_or_else(|e| {
            panic!("generated program must parse: {e}\n{src}")
        });
        let head = fusable_chain(2, TARGETS[t1], SOURCES[x1], SOURCES[y1], ATTRS[a1], ATTRS[b1]);
        program.statements.splice(0..0, head);
        if let Some(Statement::While { body, .. }) = program
            .statements
            .iter_mut()
            .find(|s| matches!(s, Statement::While { .. }))
        {
            let inner =
                fusable_chain(3, TARGETS[t2], SOURCES[x2], SOURCES[y2], ATTRS[a2], ATTRS[b2]);
            body.splice(0..0, inner);
        }
        let fused = plan_with_rules(&program, None, &[Rule::FuseJoin]).0;

        let mut configs = Vec::new();
        for strategy in [WhileStrategy::Naive, WhileStrategy::Delta] {
            for parallel in [usize::MAX, 1] {
                for partition in [usize::MAX, 1] {
                    configs.push(EvalLimits {
                        partition_threshold: partition,
                        threads: 2,
                        ..limits(strategy, parallel)
                    });
                }
            }
        }
        // Baseline: Naive, serial, partitioning off.
        let baseline = run_governed_traced(&fused, &db, &Budget::from_limits(&configs[0]));
        let expect = baseline.as_ref().ok().map(|(out, _, _)| canonicalize_fresh(&visible(out)));
        for cfg in &configs[1..] {
            let label = format!(
                "{:?}/threshold {}/partition {}",
                cfg.while_strategy, cfg.parallel_threshold, cfg.partition_threshold
            );
            match (&baseline, run_governed_traced(&fused, &db, &Budget::from_limits(cfg))) {
                (Ok(_), Ok((got, stats, _))) => {
                    prop_assert!(
                        *expect.as_ref().unwrap() == canonicalize_fresh(&visible(&got)),
                        "partitioned output diverges under {}\nprogram:\n{}",
                        label, src
                    );
                    if cfg.partition_threshold == usize::MAX {
                        prop_assert_eq!(
                            stats.partitioned_joins, 0,
                            "partitioning engaged though disabled under {}", label
                        );
                    }
                }
                (Err(expect), Err(got)) => {
                    prop_assert_eq!(
                        expect.to_string(),
                        got.to_string(),
                        "errors diverge under {} for program:\n{}",
                        label, src
                    );
                }
                (Ok(_), Err(got)) => {
                    return Err(TestCaseError::fail(format!(
                        "baseline succeeded but {label} failed with {got}\nprogram:\n{src}"
                    )));
                }
                (Err(expect), Ok(_)) => {
                    return Err(TestCaseError::fail(format!(
                        "baseline failed with {expect} but {label} succeeded\nprogram:\n{src}"
                    )));
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// The restructuring oracle: restructure fusion on ≡ off
// ----------------------------------------------------------------------

/// A `GROUP → CLEANUP (→ PURGE)` chain staged through single-use
/// reserved-namespace scratches — the exact shape the `fuse-restructure` rule
/// rewrites into `FUSEDRESTRUCTURE`. `n` keeps scratch names unique
/// across splices.
#[allow(clippy::too_many_arguments)]
fn restructure_chain(
    n: usize,
    t: &str,
    x: &str,
    by: &str,
    on: &str,
    key: &str,
    cleanup_on_null: bool,
    with_purge: bool,
) -> Vec<Statement> {
    use tables_paradigm::algebra::Assignment;
    let grouped = Param::sym(Symbol::name(&format!("\u{1F}fr{n}a")));
    let cleanup_on = if cleanup_on_null {
        Param::null()
    } else {
        Param::name(key)
    };
    let mut stmts = vec![Statement::Assign(Assignment {
        target: grouped.clone(),
        op: OpKind::Group {
            by: Param::name(by),
            on: Param::name(on),
        },
        args: vec![Param::name(x)],
    })];
    let cleanup = |target: Param, arg: Param| {
        Statement::Assign(Assignment {
            target,
            op: OpKind::CleanUp {
                by: Param::name(key),
                on: cleanup_on.clone(),
            },
            args: vec![arg],
        })
    };
    if with_purge {
        let cleaned = Param::sym(Symbol::name(&format!("\u{1F}fr{n}b")));
        stmts.push(cleanup(cleaned.clone(), grouped));
        stmts.push(Statement::Assign(Assignment {
            target: Param::name(t),
            op: OpKind::Purge {
                on: Param::name(on),
                by: Param::name(by),
            },
            args: vec![cleaned],
        }));
    } else {
        stmts.push(cleanup(Param::name(t), grouped));
    }
    stmts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The restructuring oracle: applying the optimizer's
    /// restructure-fusion rewrite must not change any visible output
    /// under any strategy or shard configuration. Random programs get
    /// GROUP → CLEANUP (→ PURGE) chains spliced into the prologue
    /// (always executed) and the loop body (full re-evaluation inside
    /// the delta engine); whether each chain's shape lets the
    /// single-pass kernel apply or forces the staged fallback varies
    /// with the drawn attributes — both must agree with the unfused
    /// program. Like the join oracle, the comparison is asymmetric on
    /// resource trips: fusion never materializes the quadratic grouped
    /// intermediate, so a fused run may succeed where the unfused
    /// baseline exhausts `max_cells`/`max_tables`.
    #[test]
    fn restructure_fusion_on_and_off_agree(
        src in arb_program(),
        db in arb_input(),
        (t1, x1, by1, on1, k1) in (0usize..5, 0usize..6, 0usize..4, 0usize..4, 0usize..4),
        (t2, x2, by2, on2, k2) in (0usize..5, 0usize..6, 0usize..4, 0usize..4, 0usize..4),
        (shape1, shape2) in (0usize..4, 0usize..4),
    ) {

        let (null1, purge1) = (shape1 & 1 == 0, shape1 & 2 == 0);
        let (null2, purge2) = (shape2 & 1 == 0, shape2 & 2 == 0);

        let mut program = parse(&src).unwrap_or_else(|e| {
            panic!("generated program must parse: {e}\n{src}")
        });
        let head = restructure_chain(
            0, TARGETS[t1], SOURCES[x1], ATTRS[by1], ATTRS[on1], ATTRS[k1], null1, purge1,
        );
        program.statements.splice(0..0, head);
        if let Some(Statement::While { body, .. }) = program
            .statements
            .iter_mut()
            .find(|s| matches!(s, Statement::While { .. }))
        {
            let inner = restructure_chain(
                1, TARGETS[t2], SOURCES[x2], ATTRS[by2], ATTRS[on2], ATTRS[k2], null2, purge2,
            );
            body.splice(0..0, inner);
        }
        let fused = plan_with_rules(&program, None, &[Rule::FuseRestructure]).0;
        fn count_fused(stmts: &[Statement]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Statement::Assign(a) => {
                        usize::from(matches!(a.op, OpKind::FusedRestructure { .. }))
                    }
                    Statement::While { body, .. } => count_fused(body),
                })
                .sum()
        }
        prop_assert!(count_fused(&fused.statements) >= 1, "spliced chains must fuse");

        let configs = [
            limits(WhileStrategy::Naive, usize::MAX),
            limits(WhileStrategy::Naive, 1),
            limits(WhileStrategy::Delta, usize::MAX),
            limits(WhileStrategy::Delta, 1),
        ];
        let baseline = run_governed_traced(&program, &db, &Budget::from_limits(&configs[0]));
        let Ok((base_out, _, _)) = &baseline else {
            // Unfused baseline tripped a resource limit; fused runs may
            // legitimately proceed further, so there is nothing to pin.
            return Ok(());
        };
        let expect = canonicalize_fresh(&visible(base_out));
        for cfg in &configs {
            let (got, stats, _) = run_governed_traced(&fused, &db, &Budget::from_limits(cfg)).unwrap_or_else(|e| {
                panic!(
                    "fused run failed where unfused baseline succeeded \
                     under {:?}/threshold {}: {e}\nprogram:\n{src}",
                    cfg.while_strategy, cfg.parallel_threshold
                )
            });
            prop_assert!(
                expect == canonicalize_fresh(&visible(&got)),
                "fused output diverges under {:?}/threshold {}\nprogram:\n{}",
                cfg.while_strategy, cfg.parallel_threshold, src
            );
            // The prologue chain always executes, so every fused run
            // decides the kernel-vs-fallback question at least once.
            prop_assert!(
                stats.restructure_fused + stats.restructure_unfused >= 1,
                "fused run recorded no restructure decision under {:?}/threshold {}",
                cfg.while_strategy, cfg.parallel_threshold
            );
        }
        // And the unfused program itself still agrees across strategies
        // on the spliced shape.
        for cfg in &configs[1..] {
            if let Ok((got, _, _)) = run_governed_traced(&program, &db, &Budget::from_limits(cfg)) {
                prop_assert!(
                    expect == canonicalize_fresh(&visible(&got)),
                    "unfused output diverges under {:?}/threshold {}\nprogram:\n{}",
                    cfg.while_strategy, cfg.parallel_threshold, src
                );
            }
        }
    }
}

// ----------------------------------------------------------------------
// The planner oracle: full cost-based planning on ≡ off
// ----------------------------------------------------------------------

/// A left-deep 3-way product chain staged through single-use
/// reserved-namespace scratches, closed by a ground `SELECT` — the shape
/// the planner's join-reordering rule rewrites when statistics prove a
/// cheaper order. `n` keeps scratch names unique across splices.
fn reorder_chain(
    n: usize,
    t: &str,
    l1: &str,
    l2: &str,
    l3: &str,
    a: &str,
    b: &str,
) -> Vec<Statement> {
    use tables_paradigm::algebra::Assignment;
    let s1 = Param::sym(Symbol::name(&format!("\u{1F}ro{n}a")));
    let s2 = Param::sym(Symbol::name(&format!("\u{1F}ro{n}b")));
    vec![
        Statement::Assign(Assignment {
            target: s1.clone(),
            op: OpKind::Product,
            args: vec![Param::name(l1), Param::name(l2)],
        }),
        Statement::Assign(Assignment {
            target: s2.clone(),
            op: OpKind::Product,
            args: vec![s1, Param::name(l3)],
        }),
        Statement::Assign(Assignment {
            target: Param::name(t),
            op: OpKind::Select {
                a: Param::name(a),
                b: Param::name(b),
            },
            args: vec![s2],
        }),
    ]
}

/// A resource trip: outcomes the planner is allowed to *shift* (fusing
/// and reordering change which intermediates materialize, so one side
/// may exhaust `max_cells`/`max_tables` where the other proceeds).
fn is_resource_trip(e: &tables_paradigm::algebra::AlgebraError) -> bool {
    use tables_paradigm::algebra::AlgebraError;
    matches!(
        e,
        AlgebraError::LimitExceeded { .. } | AlgebraError::BudgetExceeded { .. }
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The planner oracle: running a program through the full cost-based
    /// planner (`run_planned_governed_traced` = statistics catalog + every rule in
    /// `ALL_RULES`) must agree with the unplanned run on every visible
    /// table, under Naive/Delta × serial/sharded. Random programs get a
    /// fusable SELECT-over-PRODUCT chain *and* a 3-way reorderable
    /// product chain spliced into the prologue (always executed, exact
    /// store statistics available) and the loop body (statistics
    /// invalidated by the loop — the planner must stay conservative
    /// there). Errors must match exactly, except that a resource trip on
    /// one side tolerates the other side proceeding: planning changes
    /// which intermediates materialize, in either direction (fusion
    /// skips the staged product; reordering mints different
    /// intermediates). Planning is deterministic, so the decision
    /// counters must agree across every configuration.
    #[test]
    fn planner_on_and_off_agree(
        src in arb_program(),
        db in arb_input(),
        ((t1, x1, y1), (a1, b1)) in (
            (0usize..5, 0usize..6, 0usize..6),
            (0usize..4, 0usize..4),
        ),
        (t2, l1, l2, l3) in (0usize..5, 0usize..6, 0usize..6, 0usize..6),
        (a2, b2) in (0usize..4, 0usize..4),
        (t3, x3, y3, a3, b3) in (0usize..5, 0usize..6, 0usize..6, 0usize..4, 0usize..4),
    ) {
        let mut program = parse(&src).unwrap_or_else(|e| {
            panic!("generated program must parse: {e}\n{src}")
        });
        let mut head = fusable_chain(4, TARGETS[t1], SOURCES[x1], SOURCES[y1], ATTRS[a1], ATTRS[b1]);
        head.extend(reorder_chain(
            0, TARGETS[t2], SOURCES[l1], SOURCES[l2], SOURCES[l3], ATTRS[a2], ATTRS[b2],
        ));
        program.statements.splice(0..0, head);
        if let Some(Statement::While { body, .. }) = program
            .statements
            .iter_mut()
            .find(|s| matches!(s, Statement::While { .. }))
        {
            let inner =
                fusable_chain(5, TARGETS[t3], SOURCES[x3], SOURCES[y3], ATTRS[a3], ATTRS[b3]);
            body.splice(0..0, inner);
        }

        let configs = [
            limits(WhileStrategy::Naive, usize::MAX),
            limits(WhileStrategy::Naive, 1),
            limits(WhileStrategy::Delta, usize::MAX),
            limits(WhileStrategy::Delta, 1),
        ];
        let baseline = run_governed_traced(&program, &db, &Budget::from_limits(&configs[0]));
        let expect = baseline.as_ref().ok().map(|(out, _, _)| canonicalize_fresh(&visible(out)));
        let mut counters: Option<(usize, usize)> = None;
        for cfg in &configs {
            let label = format!("{:?}/threshold {}", cfg.while_strategy, cfg.parallel_threshold);
            let planned = run_planned_governed_traced(&program, &db, &Budget::from_limits(cfg));
            match (&baseline, &planned) {
                (Ok(_), Ok((got, stats, _, _))) => {
                    prop_assert!(
                        *expect.as_ref().unwrap() == canonicalize_fresh(&visible(got)),
                        "planned output diverges under {}\nprogram:\n{}",
                        label, src
                    );
                    // The prologue chains always see exact store
                    // statistics, so the planner decides something on
                    // every run — and deterministically.
                    prop_assert!(
                        stats.plan_rules_applied >= 1,
                        "planner recorded no decision under {} for program:\n{}",
                        label, src
                    );
                    match counters {
                        None => counters = Some((stats.plans_rewritten, stats.plan_rules_applied)),
                        Some(c) => prop_assert_eq!(
                            c,
                            (stats.plans_rewritten, stats.plan_rules_applied),
                            "plan counters diverge under {} for program:\n{}",
                            label, src
                        ),
                    }
                }
                (Err(e1), Err(e2)) => {
                    prop_assert!(
                        e1.to_string() == e2.to_string()
                            || (is_resource_trip(e1) && is_resource_trip(e2)),
                        "errors diverge under {}: baseline {e1}, planned {e2}\nprogram:\n{}",
                        label, src
                    );
                }
                (Ok(_), Err(e)) | (Err(e), Ok(_)) => {
                    prop_assert!(
                        is_resource_trip(e),
                        "non-resource outcome diverges under {}: {e}\nprogram:\n{}",
                        label, src
                    );
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Per-rule soundness: every rule alone preserves semantics
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each planner rule, applied *alone* with the statistics catalog,
    /// preserves the visible semantics of the program — the rule-level
    /// refinement of `planner_on_and_off_agree` (which only checks the
    /// composed pipeline, where a later rule could mask an earlier
    /// rule's bug).
    #[test]
    fn each_planner_rule_preserves_semantics(
        src in arb_program(),
        db in arb_input(),
        (t1, x1, y1) in (0usize..5, 0usize..6, 0usize..6),
        (a1, b1) in (0usize..4, 0usize..4),
        (t2, l1, l2, l3) in (0usize..5, 0usize..6, 0usize..6, 0usize..6),
        (a2, b2) in (0usize..4, 0usize..4),
    ) {
        use tables_paradigm::algebra::{plan_with_rules, ALL_RULES};

        let mut program = parse(&src).unwrap_or_else(|e| {
            panic!("generated program must parse: {e}\n{src}")
        });
        let mut head = fusable_chain(6, TARGETS[t1], SOURCES[x1], SOURCES[y1], ATTRS[a1], ATTRS[b1]);
        head.extend(reorder_chain(
            1, TARGETS[t2], SOURCES[l1], SOURCES[l2], SOURCES[l3], ATTRS[a2], ATTRS[b2],
        ));
        program.statements.splice(0..0, head);

        let cfg = limits(WhileStrategy::Naive, usize::MAX);
        let baseline = run_governed_traced(&program, &db, &Budget::from_limits(&cfg));
        let Ok((base_out, _, _)) = &baseline else {
            return Ok(());
        };
        let expect = canonicalize_fresh(&visible(base_out));
        for rule in ALL_RULES {
            let (rewritten, _) = plan_with_rules(&program, Some(&db), &[rule]);
            match run_governed_traced(&rewritten, &db, &Budget::from_limits(&cfg)) {
                Ok((got, _, _)) => prop_assert!(
                    expect == canonicalize_fresh(&visible(&got)),
                    "rule {:?} changed visible output\nprogram:\n{}",
                    rule, src
                ),
                // A single rule may shift which intermediates
                // materialize (e.g. pushdown mints per-branch scratch
                // selects), so a resource trip is tolerated; any other
                // error is a soundness bug.
                Err(e) => prop_assert!(
                    is_resource_trip(&e),
                    "rule {:?} failed where the original succeeded: {e}\nprogram:\n{}",
                    rule, src
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The budget oracle: same program, same cell budget → same trip
    /// point across every strategy and shard configuration. Run-cell
    /// charges land once per statement on the evaluating thread, so the
    /// cumulative spend at the trip — reported in the error string — is
    /// deterministic even when the work itself is sharded; the partial
    /// stats carried by the trip agree for the same reason. (Deadline
    /// and cancellation trips are inherently timing-dependent and are
    /// excluded: this oracle governs the cell budget only.)
    #[test]
    fn budget_trip_points_agree_across_strategies(src in arb_program(), db in arb_input()) {
        use tables_paradigm::algebra::AlgebraError;

        let program = parse(&src).unwrap_or_else(|e| {
            panic!("generated program must parse: {e}\n{src}")
        });
        let configs = [
            limits(WhileStrategy::Naive, usize::MAX),
            limits(WhileStrategy::Naive, 1),
            limits(WhileStrategy::Delta, usize::MAX),
            limits(WhileStrategy::Delta, 1),
        ];
        let budgets: Vec<Budget> = configs
            .iter()
            .map(|l| Budget::from_limits(l).with_cell_budget(800))
            .collect();
        let baseline = run_governed_traced(&program, &db, &budgets[0]);
        let canon_base = baseline.as_ref().map(|(out, _, _)| canonicalize_fresh(out));
        for (cfg, budget) in configs[1..].iter().zip(&budgets[1..]) {
            let got = run_governed_traced(&program, &db, budget);
            match (&baseline, &got) {
                (Ok(_), Ok((out, _, _))) => {
                    let expect = canon_base.as_ref().ok().unwrap();
                    let out = canonicalize_fresh(out);
                    prop_assert!(
                        *expect == out,
                        "budgeted outputs diverge under {:?}/threshold {}\nprogram:\n{}",
                        cfg.while_strategy, cfg.parallel_threshold, src
                    );
                }
                (Err(e1), Err(e2)) => {
                    prop_assert_eq!(
                        e1.to_string(),
                        e2.to_string(),
                        "trip points diverge under {:?}/threshold {} for program:\n{}",
                        cfg.while_strategy, cfg.parallel_threshold, src
                    );
                    if let (
                        AlgebraError::BudgetExceeded { partial: p1, .. },
                        AlgebraError::BudgetExceeded { partial: p2, .. },
                    ) = (e1, e2)
                    {
                        prop_assert_eq!(
                            (p1.stats.while_iterations, p1.stats.tables_produced, p1.stats.max_table_cells),
                            (p2.stats.while_iterations, p2.stats.tables_produced, p2.stats.max_table_cells),
                            "partial stats diverge at the trip under {:?}/threshold {} for program:\n{}",
                            cfg.while_strategy, cfg.parallel_threshold, src
                        );
                    }
                }
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "budgeted outcomes diverge under {:?}/threshold {}: baseline ok={}, got ok={}\nprogram:\n{}",
                        cfg.while_strategy, cfg.parallel_threshold, a.is_ok(), b.is_ok(), src
                    )));
                }
            }
        }
    }
}

/// The oracle's comparison itself must identify two independent runs of a
/// tagging program (fresh tags differ, structure does not).
#[test]
fn fresh_canonicalization_identifies_independent_taggings() {
    let db = Database::from_tables([Table::relational(
        "R",
        &["A", "B"],
        &[&["1", "x"], &["2", "y"]],
    )]);
    let p = parse("T <- TUPLENEW[Tag](R)").unwrap();
    let l = limits(WhileStrategy::Naive, usize::MAX);
    let run1 = run_governed_traced(&p, &db, &Budget::from_limits(&l))
        .unwrap()
        .0;
    let run2 = run_governed_traced(&p, &db, &Budget::from_limits(&l))
        .unwrap()
        .0;
    assert_ne!(run1.canonicalize(), run2.canonicalize(), "tags must differ");
    assert_eq!(canonicalize_fresh(&run1), canonicalize_fresh(&run2));
}

/// And it must still distinguish genuinely different databases.
#[test]
fn fresh_canonicalization_is_not_trivial() {
    let a = Database::from_tables([Table::relational("R", &["A"], &[&["1"]])]);
    let b = Database::from_tables([Table::relational("R", &["A"], &[&["2"]])]);
    assert_ne!(canonicalize_fresh(&a), canonicalize_fresh(&b));
}
