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
use tables_paradigm::algebra::pool::Executor;
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

/// A small input database: two tables sharing attribute `B`, two more
/// overlapping tables, an empty one, and the loop counters. The four
/// data tables are shaped like CSV uploads: each row's attribute is ⊥ or
/// one of `e1..e3`, and a table may end with a *twin* of its first row
/// (equal data, another row attribute) and an exact duplicate of it, so
/// an accumulator can start out holding a duplicate storage row.
fn arb_input() -> impl Strategy<Value = Database> {
    let rel = |max: usize| {
        (
            proptest::collection::vec((0usize..4, 0usize..4, 0usize..4), 0..max),
            0u8..4,
        )
    };
    (rel(6), rel(6), rel(4), rel(4)).prop_map(|(r, s, t, u)| {
        let table =
            |name: &str, attrs: [&str; 2], (rows, extra): &(Vec<(usize, usize, usize)>, u8)| {
                let mut rows = rows.clone();
                if let Some(&(a, b, k)) = rows.first() {
                    if extra & 1 != 0 {
                        rows.push((a, b, k + 1));
                    }
                    if extra & 2 != 0 {
                        rows.push((a, b, k));
                    }
                }
                let mut cells = vec![
                    Symbol::name(name),
                    Symbol::name(attrs[0]),
                    Symbol::name(attrs[1]),
                ];
                for &(a, b, k) in &rows {
                    cells.push(match k % 4 {
                        0 => Symbol::Null,
                        k => Symbol::name(&format!("e{k}")),
                    });
                    cells.push(Symbol::value(&format!("v{a}")));
                    cells.push(Symbol::value(&format!("v{b}")));
                }
                Table::from_parts(rows.len(), 2, cells)
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

/// Transitive closure over `R` (the service's `tc` class): `TC` grows by
/// `CLASSICALUNION(TC, Frontier)` every iteration, the append-incremental
/// union under the delta strategy.
const CLOSURE_SRC: &str = "TC <- COPY(R)
Frontier <- COPY(R)
while Frontier do
  RTC <- RENAME[A -> A0](TC)
  RTC <- RENAME[B -> B0](RTC)
  Matched <- FUSEDJOIN[B0 = A](RTC, R)
  Step <- PROJECT[{A0, B}](Matched)
  Step <- RENAME[A0 -> A](Step)
  Frontier <- DIFFERENCE(Step, TC)
  TC <- CLASSICALUNION(TC, Frontier)
end";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The incremental union over upload-shaped tables: a closure whose
    /// edges carry row attributes, twins (equal data, another row
    /// attribute) and duplicate rows must come out the same under every
    /// strategy and shard configuration. Its frontier rows keep the row
    /// attribute of the path they extend, so the accumulator meets rows
    /// whose data it already holds under another row attribute, which
    /// the union must keep.
    #[test]
    fn closure_over_uploads_agrees(db in arb_input()) {
        let program = parse(CLOSURE_SRC).expect("closure program parses");
        let configs = [
            limits(WhileStrategy::Naive, usize::MAX),
            limits(WhileStrategy::Naive, 1),
            limits(WhileStrategy::Delta, usize::MAX),
            limits(WhileStrategy::Delta, 1),
        ]
        .map(|l| EvalLimits { max_while_iters: 16, ..l });
        let run = |cfg: &EvalLimits| {
            run_governed_traced(&program, &db, &Budget::from_limits(cfg))
                .map(|(out, _, _)| canonicalize_fresh(&out))
                .map_err(|e| e.to_string())
        };
        let baseline = run(&configs[0]);
        prop_assert!(baseline.is_ok(), "closure over a 4-node graph converges: {:?}", baseline);
        for cfg in &configs[1..] {
            prop_assert_eq!(
                &run(cfg),
                &baseline,
                "closure diverges under {:?}/threshold {}",
                cfg.while_strategy, cfg.parallel_threshold
            );
        }
    }
}

/// Closure bodies for the semi-naive oracle: `(prologue, pre, mid,
/// post)` statements spliced into the closure of [`semi_naive_src`].
/// Variant 0 is the plain closure, where the delta engine's row indexes
/// stay current; every other variant breaks the append lineage they
/// rely on.
const SEMI_NAIVE_VARIANTS: [[&str; 4]; 8] = [
    ["", "", "", ""],
    // `TC` replaced by a reordering: same rows, frontier first.
    ["", "", "", "TC <- CLASSICALUNION(Frontier, TC)"],
    // `TC` replaced by a difference in the second iteration, and read
    // by a `DIFFERENCE` right after: its index is stale by then.
    [
        "Drop <- DIFFERENCE(R, R)\nOnce <- COPY(R)",
        "",
        "",
        "TC <- DIFFERENCE(TC, Drop)\n  Check <- DIFFERENCE(R, TC)\n  Drop <- COPY(Once)\n  Once <- DIFFERENCE(Once, Once)",
    ],
    // Two unions into `TC` in one iteration.
    ["", "Half <- SELECTCONST[A = v:v1](Step)\n  TC <- CLASSICALUNION(TC, Half)", "", ""],
    // `DIFFERENCE` reads `TC` before and after the union.
    ["", "", "", "Fresh <- DIFFERENCE(Step, TC)"],
    // Misaligned attributes: `Flip` grows by appends but its column
    // attributes differ from `Step`'s.
    ["", "", "", "Flip <- RENAME[A -> C](TC)\n  Mis <- DIFFERENCE(Step, Flip)"],
    // ⊥ data reaching `TC` through its own union, in the second
    // iteration's frontier.
    [
        "Ha <- PROJECT[{A}](U)\nHb <- PROJECT[{B}](S)\nHoley <- UNION(Ha, Hb)\nLate <- DIFFERENCE(Holey, Holey)\nOnce <- COPY(Holey)",
        "",
        "Frontier <- CLASSICALUNION(Frontier, Late)",
        "Late <- COPY(Once)\n  Once <- DIFFERENCE(Once, Once)",
    ],
    // Readers of the growing `TC` after its union, one per append arm:
    // selections, a product with `T` (which the loop never writes), a
    // copy and a projection all extend their outputs by `TC`'s new rows.
    [
        "",
        "",
        "",
        "Sel <- SELECT[A = B](TC)\n  Hit <- SELECTCONST[A = v:v1](TC)\n  Pairs <- PRODUCT(TC, T)\n  Mirror <- COPY(TC)\n  Heads <- PROJECT[{A}](TC)",
    ],
];

/// [`CLOSURE_SRC`] with one of [`SEMI_NAIVE_VARIANTS`] spliced in.
fn semi_naive_src(variant: usize) -> String {
    let [prologue, pre, mid, post] = SEMI_NAIVE_VARIANTS[variant];
    format!(
        "{prologue}
TC <- COPY(R)
Frontier <- COPY(R)
while Frontier do
  RTC <- RENAME[A -> A0](TC)
  RTC <- RENAME[B -> B0](RTC)
  Matched <- FUSEDJOIN[B0 = A](RTC, R)
  Step <- PROJECT[{{A0, B}}](Matched)
  Step <- RENAME[A0 -> A](Step)
  {pre}
  Frontier <- DIFFERENCE(Step, TC)
  {mid}
  TC <- CLASSICALUNION(TC, Frontier)
  {post}
end"
    )
}

/// Every table of `db`, exactly as stored: table, row and column order
/// all count.
fn exact_tables(db: &Database) -> Vec<Table> {
    db.tables().to_vec()
}

/// The delta engine's incremental arms, by operation keyword, that
/// [`semi_naive_agrees`] must reach: every append arm (`RENAME`/`COPY`,
/// `PRODUCT`/`FUSEDJOIN`, the selections, `PROJECT`, `CLASSICALUNION`)
/// and the incremental `DIFFERENCE`.
const SEMI_NAIVE_ARMS: [&str; 9] = [
    "CLASSICALUNION",
    "COPY",
    "DIFFERENCE",
    "FUSEDJOIN",
    "PRODUCT",
    "PROJECT",
    "RENAME",
    "SELECT",
    "SELECTCONST",
];

/// Semi-naive evaluation: the delta engine's incremental union and
/// incremental `DIFFERENCE` (row indexes kept along append lineage)
/// must leave exactly the store naive re-evaluation leaves, table and
/// row order included, on closure-shaped bodies over upload-shaped
/// inputs, with or without ⊥ data in the edges, and when the body
/// breaks the lineage the indexes follow. On the plain closure the
/// incremental arms must actually run once the loop iterates again.
/// After the random cases, every variant runs on one fixed chain, and
/// there every arm of [`SEMI_NAIVE_ARMS`] must run at least once
/// (`EvalStats::incremental_op_counts`), whatever the cases drawn. The
/// cases are drawn as `proptest!` would draw them for this test's name.
#[test]
fn semi_naive_agrees() {
    let mut runner = TestRunner::named(
        ProptestConfig::with_cases(192),
        concat!(module_path!(), "::semi_naive_agrees"),
    );
    let cases = (arb_input(), 0..SEMI_NAIVE_VARIANTS.len(), 0u8..2);
    runner
        .run(&cases, |(db, variant, holes)| {
            semi_naive_case(db, variant, holes == 1).map(|_| ())
        })
        .unwrap();
    let table = |grid: &[[&str; 3]]| {
        let grid: Vec<&[&str]> = grid.iter().map(|r| &r[..]).collect();
        Table::from_grid(&grid).expect("fixed input table")
    };
    let db = Database::from_tables([
        table(&[
            ["R", "A", "B"],
            ["_", "v0", "v1"],
            ["_", "v1", "v2"],
            ["_", "v2", "v3"],
            ["e1", "v2", "v3"],
        ]),
        table(&[["S", "B", "C"], ["_", "v1", "v0"]]),
        table(&[["T", "C", "D"], ["_", "v0", "v1"], ["e2", "v2", "v2"]]),
        table(&[["U", "A", "C"], ["_", "v3", "v1"]]),
        Table::relational("V", &["D"], &[]),
        Table::relational("W", &["K"], &[&["go"]]),
    ]);
    let mut reached = std::collections::BTreeMap::<&str, usize>::new();
    for variant in 0..SEMI_NAIVE_VARIANTS.len() {
        for holes in [false, true] {
            let counts = semi_naive_case(db.clone(), variant, holes)
                .unwrap_or_else(|e| panic!("fixed chain, variant {variant}: {e}"));
            for (op, n) in counts {
                *reached.entry(op).or_default() += n;
            }
        }
    }
    for arm in SEMI_NAIVE_ARMS {
        assert!(
            reached.get(arm).is_some_and(|&n| n > 0),
            "the fixed chain reached no incremental {arm} arm: {reached:?}"
        );
    }
}

/// One case of [`semi_naive_agrees`]: run closure variant `variant` over
/// `db` (with `R`'s first `B` entry made ⊥ when `holes`) under each
/// strategy and shard configuration, check the stores agree, and return
/// the incremental arms the delta runs took, by keyword.
fn semi_naive_case(
    db: Database,
    variant: usize,
    holes: bool,
) -> Result<std::collections::BTreeMap<&'static str, usize>, TestCaseError> {
    let db = if holes {
        Database::from_tables(db.tables().iter().map(|t| {
            let mut t = t.clone();
            if t.name() == Symbol::name("R") && t.height() > 0 {
                t.set(1, 2, Symbol::Null);
            }
            t
        }))
    } else {
        db
    };
    let src = semi_naive_src(variant);
    let program = parse(&src).expect("closure variant parses");
    let configs = [
        limits(WhileStrategy::Naive, usize::MAX),
        limits(WhileStrategy::Naive, 1),
        limits(WhileStrategy::Delta, usize::MAX),
        limits(WhileStrategy::Delta, 1),
    ]
    .map(|l| EvalLimits {
        max_while_iters: 16,
        ..l
    });
    let run = |cfg: &EvalLimits| {
        run_governed_traced(&program, &db, &Budget::from_limits(cfg))
            .map(|(out, stats, _)| (exact_tables(&out), stats))
            .map_err(|e| e.to_string())
    };
    let baseline = run(&configs[0]).map(|(tables, _)| tables);
    let mut reached = std::collections::BTreeMap::new();
    for cfg in &configs[1..] {
        let got = run(cfg);
        if let Ok((_, stats)) = &got {
            let incremental = stats.while_delta_incremental;
            prop_assert_eq!(
                stats.incremental_op_counts.values().sum::<usize>(),
                incremental
            );
            if cfg.while_strategy == WhileStrategy::Naive {
                prop_assert_eq!(incremental, 0);
            } else if variant == 0 && !holes && stats.while_iterations > 1 {
                prop_assert!(incremental > 0, "the plain closure ran no incremental arm");
            }
            for (&op, &n) in &stats.incremental_op_counts {
                *reached.entry(op).or_default() += n;
            }
        }
        prop_assert_eq!(
            &got.map(|(tables, _)| tables),
            &baseline,
            "variant {} (holes: {}) diverges under {:?}/threshold {}\nprogram:\n{}",
            variant,
            holes,
            cfg.while_strategy,
            cfg.parallel_threshold,
            src
        );
    }
    Ok(reached)
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

/// Parse `src` and splice `head` into its prologue and `body` into its
/// first loop's body.
fn spliced(src: &str, head: Vec<Statement>, body: Vec<Statement>) -> Program {
    let mut program =
        parse(src).unwrap_or_else(|e| panic!("generated program must parse: {e}\n{src}"));
    program.statements.splice(0..0, head);
    if let Some(Statement::While { body: b, .. }) = program
        .statements
        .iter_mut()
        .find(|s| matches!(s, Statement::While { .. }))
    {
        b.splice(0..0, body);
    }
    program
}

/// The fixed program the reach floors run: an unread reserved-name
/// assignment, then a loop that runs twice.
const FIXED_SRC: &str = "\"\u{1F}unread\" <- COPY(R)
while W do
V <- PROJECT[{D}](T)
W <- COPY(Wend)
Wend <- DIFFERENCE(Wend, Wend)
end";

/// The fixed input the reach floors run on: `arb_input`'s tables with
/// fixed rows, plus the paper's `Sales`, which pivots.
fn fixed_input() -> Database {
    let counter = |name: &str| Table::relational(name, &["K"], &[&["go"]]);
    Database::from_tables([
        Table::relational(
            "R",
            &["A", "B"],
            &[&["v0", "v1"], &["v1", "v2"], &["v2", "v3"], &["v3", "v0"]],
        ),
        Table::relational(
            "S",
            &["B", "C"],
            &[&["v1", "v0"], &["v2", "v1"], &["v3", "v2"]],
        ),
        Table::relational(
            "T",
            &["C", "D"],
            &[&["v0", "v1"], &["v1", "v2"], &["v2", "v3"]],
        ),
        Table::relational("U", &["A", "C"], &[&["v3", "v1"]]),
        Table::relational("V", &["D"], &[]),
        counter("W"),
        counter("X"),
        counter("Wend"),
        fixtures::sales_relation(),
    ])
}

/// The fusion oracle: applying the optimizer's join-fusion rewrite must
/// not change any visible output under any strategy or shard
/// configuration. Random programs get SELECT-over-scratch-PRODUCT chains
/// spliced into the prologue (always executed) and the loop body
/// (delta-incremental path); whether each chain's attributes make the
/// hash kernel applicable or force the definitional fallback varies
/// with the drawn operands — both must agree with the unfused program.
/// The comparison is asymmetric on resource trips by design: fusion
/// never materializes the staged product, so a fused run may succeed
/// where the unfused baseline exhausts `max_cells`/`max_tables` — that
/// asymmetry is the optimization. After the random cases, chains whose
/// attributes split across their operands run over [`fixed_input`], and
/// there the hash kernel must run (`EvalStats::join_fused`), whatever
/// the cases drawn. The cases are drawn as `proptest!` would draw them
/// for this test's name.
#[test]
fn fusion_on_and_off_agree() {
    let mut runner = TestRunner::named(
        ProptestConfig::with_cases(128),
        concat!(module_path!(), "::fusion_on_and_off_agree"),
    );
    let cases = (
        arb_program(),
        arb_input(),
        (0usize..5, 0usize..6, 0usize..6),
        (0usize..4, 0usize..4),
        (0usize..5, 0usize..6, 0usize..6),
        (0usize..4, 0usize..4),
    );
    runner
        .run(
            &cases,
            |(src, db, (t1, x1, y1), (a1, b1), (t2, x2, y2), (a2, b2))| {
                let head = fusable_chain(
                    0,
                    TARGETS[t1],
                    SOURCES[x1],
                    SOURCES[y1],
                    ATTRS[a1],
                    ATTRS[b1],
                );
                let inner = fusable_chain(
                    1,
                    TARGETS[t2],
                    SOURCES[x2],
                    SOURCES[y2],
                    ATTRS[a2],
                    ATTRS[b2],
                );
                fusion_case(&src, &spliced(&src, head, inner), &db).map(|_| ())
            },
        )
        .unwrap();
    let program = spliced(
        FIXED_SRC,
        fusable_chain(0, "Joined", "R", "S", "A", "C"),
        fusable_chain(1, "Looped", "R", "T", "A", "C"),
    );
    let fused = fusion_case(FIXED_SRC, &program, &fixed_input())
        .unwrap_or_else(|e| panic!("fixed program: {e}"));
    assert!(fused > 0, "the fixed program ran no fused join kernel");
}

/// One case of [`fusion_on_and_off_agree`]: fuse `program`'s joins, run
/// it fused and unfused under each strategy and shard configuration,
/// check the visible outputs agree, and return how often the fused runs
/// took the hash kernel.
fn fusion_case(src: &str, program: &Program, db: &Database) -> Result<usize, TestCaseError> {
    let fused = plan_with_rules(program, None, &[Rule::FuseJoin]).0;
    fn count_fused(stmts: &[Statement]) -> usize {
        stmts
            .iter()
            .map(|s| match s {
                Statement::Assign(a) => usize::from(matches!(a.op, OpKind::FusedJoin { .. })),
                Statement::While { body, .. } => count_fused(body),
            })
            .sum()
    }
    prop_assert!(
        count_fused(&fused.statements) >= 1,
        "spliced chains must fuse"
    );

    let configs = [
        limits(WhileStrategy::Naive, usize::MAX),
        limits(WhileStrategy::Naive, 1),
        limits(WhileStrategy::Delta, usize::MAX),
        limits(WhileStrategy::Delta, 1),
    ];
    let baseline = run_governed_traced(program, db, &Budget::from_limits(&configs[0]));
    let Ok((base_out, _, _)) = &baseline else {
        // Unfused baseline tripped a resource limit; fused runs may
        // legitimately proceed further, so there is nothing to pin.
        return Ok(0);
    };
    let expect = canonicalize_fresh(&visible(base_out));
    let mut join_fused = 0;
    for cfg in &configs {
        let (got, stats, _) = run_governed_traced(&fused, db, &Budget::from_limits(cfg))
            .unwrap_or_else(|e| {
                panic!(
                    "fused run failed where unfused baseline succeeded \
                     under {:?}/threshold {}: {e}\nprogram:\n{src}",
                    cfg.while_strategy, cfg.parallel_threshold
                )
            });
        prop_assert!(
            expect == canonicalize_fresh(&visible(&got)),
            "fused output diverges under {:?}/threshold {}\nprogram:\n{}",
            cfg.while_strategy,
            cfg.parallel_threshold,
            src
        );
        // The prologue chain always executes, so every fused run
        // decides the kernel-vs-fallback question at least once.
        prop_assert!(
            stats.join_fused + stats.join_unfused >= 1,
            "fused run recorded no fusion decision under {:?}/threshold {}",
            cfg.while_strategy,
            cfg.parallel_threshold
        );
        join_fused += stats.join_fused;
    }
    // And the unfused program itself still agrees across strategies
    // on the spliced shape (the pre-existing oracle covers generated
    // programs; this covers the scratch-staged chains).
    for cfg in &configs[1..] {
        if let Ok((got, _, _)) = run_governed_traced(program, db, &Budget::from_limits(cfg)) {
            prop_assert!(
                expect == canonicalize_fresh(&visible(&got)),
                "unfused output diverges under {:?}/threshold {}\nprogram:\n{}",
                cfg.while_strategy,
                cfg.parallel_threshold,
                src
            );
        }
    }
    Ok(join_fused)
}

// ----------------------------------------------------------------------
// The partitioning oracle: partition-parallel joins on ≡ off
// ----------------------------------------------------------------------

/// The partitioning oracle: the partition-parallel join kernel must be
/// *byte-identical* to the serial kernel — not merely equivalent — under
/// every strategy and shard configuration. The same fused program
/// (scratch-staged join chains spliced into the prologue and the loop
/// body, then the `fuse-join` rule) runs under Naive/Delta ×
/// serial/sharded × `partition_threshold ∈ {∞, 1}`; because only the
/// limits differ, every run must produce the same database (up to
/// fresh-tag renumbering for `TUPLENEW` programs) or fail with the same
/// error — partitioning materializes exactly the tables the serial
/// kernel does, so even `LimitExceeded` trips must agree. After the
/// random cases, chains whose attributes split across their operands
/// run over [`fixed_input`], and there some join must run partitioned
/// (`EvalStats::partitioned_joins`), whatever the cases drawn. The cases
/// are drawn as `proptest!` would draw them for this test's name.
#[test]
fn partitioning_on_and_off_agree() {
    let mut runner = TestRunner::named(
        ProptestConfig::with_cases(128),
        concat!(module_path!(), "::partitioning_on_and_off_agree"),
    );
    let cases = (
        arb_program(),
        arb_input(),
        (0usize..5, 0usize..6, 0usize..6),
        (0usize..4, 0usize..4),
        (0usize..5, 0usize..6, 0usize..6),
        (0usize..4, 0usize..4),
    );
    runner
        .run(
            &cases,
            |(src, db, (t1, x1, y1), (a1, b1), (t2, x2, y2), (a2, b2))| {
                let head = fusable_chain(
                    2,
                    TARGETS[t1],
                    SOURCES[x1],
                    SOURCES[y1],
                    ATTRS[a1],
                    ATTRS[b1],
                );
                let inner = fusable_chain(
                    3,
                    TARGETS[t2],
                    SOURCES[x2],
                    SOURCES[y2],
                    ATTRS[a2],
                    ATTRS[b2],
                );
                partitioning_case(&src, &spliced(&src, head, inner), &db).map(|_| ())
            },
        )
        .unwrap();
    let program = spliced(
        FIXED_SRC,
        fusable_chain(2, "Joined", "R", "S", "A", "C"),
        fusable_chain(3, "Looped", "R", "T", "A", "C"),
    );
    let partitioned = partitioning_case(FIXED_SRC, &program, &fixed_input())
        .unwrap_or_else(|e| panic!("fixed program: {e}"));
    assert!(partitioned > 0, "the fixed program ran no partitioned join");
}

/// One case of [`partitioning_on_and_off_agree`]: fuse `program`'s
/// joins, run it under each strategy, shard and partition configuration,
/// check every run agrees with the serial baseline, and return how many
/// joins ran partitioned.
fn partitioning_case(src: &str, program: &Program, db: &Database) -> Result<usize, TestCaseError> {
    let fused = plan_with_rules(program, None, &[Rule::FuseJoin]).0;

    let mut configs = Vec::new();
    for strategy in [WhileStrategy::Naive, WhileStrategy::Delta] {
        for parallel in [usize::MAX, 1] {
            for partition in [usize::MAX, 1] {
                configs.push(EvalLimits {
                    partition_threshold: partition,
                    ..limits(strategy, parallel)
                });
            }
        }
    }
    // Baseline: Naive, serial, partitioning off.
    let two_threads = Executor::new(2);
    let budget = |cfg: &EvalLimits| Budget {
        executor: two_threads.clone(),
        ..Budget::from_limits(cfg)
    };
    let baseline = run_governed_traced(&fused, db, &budget(&configs[0]));
    let expect = baseline
        .as_ref()
        .ok()
        .map(|(out, _, _)| canonicalize_fresh(&visible(out)));
    let mut partitioned = 0;
    for cfg in &configs[1..] {
        let label = format!(
            "{:?}/threshold {}/partition {}",
            cfg.while_strategy, cfg.parallel_threshold, cfg.partition_threshold
        );
        match (&baseline, run_governed_traced(&fused, db, &budget(cfg))) {
            (Ok(_), Ok((got, stats, _))) => {
                prop_assert!(
                    *expect.as_ref().unwrap() == canonicalize_fresh(&visible(&got)),
                    "partitioned output diverges under {}\nprogram:\n{}",
                    label,
                    src
                );
                if cfg.partition_threshold == usize::MAX {
                    prop_assert_eq!(
                        stats.partitioned_joins,
                        0,
                        "partitioning engaged though disabled under {}",
                        label
                    );
                }
                partitioned += stats.partitioned_joins;
            }
            (Err(expect), Err(got)) => {
                prop_assert_eq!(
                    expect.to_string(),
                    got.to_string(),
                    "errors diverge under {} for program:\n{}",
                    label,
                    src
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
    Ok(partitioned)
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

/// The restructuring oracle: applying the optimizer's restructure-fusion
/// rewrite must not change any visible output under any strategy or
/// shard configuration. Random programs get GROUP → CLEANUP (→ PURGE)
/// chains spliced into the prologue (always executed) and the loop body
/// (full re-evaluation inside the delta engine); whether each chain's
/// shape lets the single-pass kernel apply or forces the staged fallback
/// varies with the drawn attributes — both must agree with the unfused
/// program. Like the join oracle, the comparison is asymmetric on
/// resource trips: fusion never materializes the quadratic grouped
/// intermediate, so a fused run may succeed where the unfused baseline
/// exhausts `max_cells`/`max_tables`. After the random cases, the
/// paper's pivot of `Sales` runs over [`fixed_input`], and there the
/// single-pass kernel must run (`EvalStats::restructure_fused`), whatever
/// the cases drawn. The cases are drawn as `proptest!` would draw them
/// for this test's name.
#[test]
fn restructure_fusion_on_and_off_agree() {
    let mut runner = TestRunner::named(
        ProptestConfig::with_cases(128),
        concat!(module_path!(), "::restructure_fusion_on_and_off_agree"),
    );
    let chain = (0usize..5, 0usize..6, 0usize..4, 0usize..4, 0usize..4);
    let cases = (
        arb_program(),
        arb_input(),
        chain.clone(),
        chain,
        (0usize..4, 0usize..4),
    );
    runner
        .run(
            &cases,
            |(src, db, (t1, x1, by1, on1, k1), (t2, x2, by2, on2, k2), (shape1, shape2))| {
                let (null1, purge1) = (shape1 & 1 == 0, shape1 & 2 == 0);
                let (null2, purge2) = (shape2 & 1 == 0, shape2 & 2 == 0);
                let head = restructure_chain(
                    0,
                    TARGETS[t1],
                    SOURCES[x1],
                    ATTRS[by1],
                    ATTRS[on1],
                    ATTRS[k1],
                    null1,
                    purge1,
                );
                let inner = restructure_chain(
                    1,
                    TARGETS[t2],
                    SOURCES[x2],
                    ATTRS[by2],
                    ATTRS[on2],
                    ATTRS[k2],
                    null2,
                    purge2,
                );
                restructure_case(&src, &spliced(&src, head, inner), &db).map(|_| ())
            },
        )
        .unwrap();
    let pivot = |n, t| restructure_chain(n, t, "Sales", "Region", "Sold", "Part", true, true);
    let program = spliced(FIXED_SRC, pivot(0, "Pivot"), pivot(1, "Looped"));
    let fused = restructure_case(FIXED_SRC, &program, &fixed_input())
        .unwrap_or_else(|e| panic!("fixed program: {e}"));
    assert!(
        fused > 0,
        "the fixed program ran no fused restructure kernel"
    );
}

/// One case of [`restructure_fusion_on_and_off_agree`]: fuse `program`'s
/// restructuring chains, run it fused and unfused under each strategy
/// and shard configuration, check the visible outputs agree, and return
/// how often the fused runs took the single-pass kernel.
fn restructure_case(src: &str, program: &Program, db: &Database) -> Result<usize, TestCaseError> {
    let fused = plan_with_rules(program, None, &[Rule::FuseRestructure]).0;
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
    prop_assert!(
        count_fused(&fused.statements) >= 1,
        "spliced chains must fuse"
    );

    let configs = [
        limits(WhileStrategy::Naive, usize::MAX),
        limits(WhileStrategy::Naive, 1),
        limits(WhileStrategy::Delta, usize::MAX),
        limits(WhileStrategy::Delta, 1),
    ];
    let baseline = run_governed_traced(program, db, &Budget::from_limits(&configs[0]));
    let Ok((base_out, _, _)) = &baseline else {
        // Unfused baseline tripped a resource limit; fused runs may
        // legitimately proceed further, so there is nothing to pin.
        return Ok(0);
    };
    let expect = canonicalize_fresh(&visible(base_out));
    let mut restructure_fused = 0;
    for cfg in &configs {
        let (got, stats, _) = run_governed_traced(&fused, db, &Budget::from_limits(cfg))
            .unwrap_or_else(|e| {
                panic!(
                    "fused run failed where unfused baseline succeeded \
                     under {:?}/threshold {}: {e}\nprogram:\n{src}",
                    cfg.while_strategy, cfg.parallel_threshold
                )
            });
        prop_assert!(
            expect == canonicalize_fresh(&visible(&got)),
            "fused output diverges under {:?}/threshold {}\nprogram:\n{}",
            cfg.while_strategy,
            cfg.parallel_threshold,
            src
        );
        // The prologue chain always executes, so every fused run
        // decides the kernel-vs-fallback question at least once.
        prop_assert!(
            stats.restructure_fused + stats.restructure_unfused >= 1,
            "fused run recorded no restructure decision under {:?}/threshold {}",
            cfg.while_strategy,
            cfg.parallel_threshold
        );
        restructure_fused += stats.restructure_fused;
    }
    // And the unfused program itself still agrees across strategies
    // on the spliced shape.
    for cfg in &configs[1..] {
        if let Ok((got, _, _)) = run_governed_traced(program, db, &Budget::from_limits(cfg)) {
            prop_assert!(
                expect == canonicalize_fresh(&visible(&got)),
                "unfused output diverges under {:?}/threshold {}\nprogram:\n{}",
                cfg.while_strategy,
                cfg.parallel_threshold,
                src
            );
        }
    }
    Ok(restructure_fused)
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

/// Splice a fusable chain with scratch `\u{1F}fo{n}` into the body of the
/// program's first loop. With `read_after`, also copy that scratch into
/// the visible table `Kept` right after the loop: the chain's scratch is
/// then read outside the body, so it is not single-use and no rule may
/// rewrite it away.
fn splice_into_loop(program: &mut Program, chain: Vec<Statement>, n: usize, read_after: bool) {
    use tables_paradigm::algebra::Assignment;
    let Some(w) = program
        .statements
        .iter()
        .position(|s| matches!(s, Statement::While { .. }))
    else {
        return;
    };
    if let Statement::While { body, .. } = &mut program.statements[w] {
        body.splice(0..0, chain);
    }
    if read_after {
        let read = Statement::Assign(Assignment {
            target: Param::name("Kept"),
            op: OpKind::Copy,
            args: vec![Param::sym(Symbol::name(&format!("\u{1F}fo{n}")))],
        });
        program.statements.insert(w + 1, read);
    }
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
    /// there); in a third of the cases the body chain's scratch is also
    /// read after the loop, so it is not single-use. Errors must match
    /// exactly, except that a resource trip on one side tolerates the
    /// other side proceeding: planning changes
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
        (t3, x3, y3, a3, b3, keep) in
            (0usize..5, 0usize..6, 0usize..6, 0usize..4, 0usize..4, 0usize..3),
    ) {
        let mut program = parse(&src).unwrap_or_else(|e| {
            panic!("generated program must parse: {e}\n{src}")
        });
        let mut head = fusable_chain(4, TARGETS[t1], SOURCES[x1], SOURCES[y1], ATTRS[a1], ATTRS[b1]);
        head.extend(reorder_chain(
            0, TARGETS[t2], SOURCES[l1], SOURCES[l2], SOURCES[l3], ATTRS[a2], ATTRS[b2],
        ));
        program.statements.splice(0..0, head);
        let inner = fusable_chain(5, TARGETS[t3], SOURCES[x3], SOURCES[y3], ATTRS[a3], ATTRS[b3]);
        splice_into_loop(&mut program, inner, 5, keep == 0);

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

/// Each planner rule, applied *alone* with the statistics catalog,
/// preserves the visible semantics of the program — the rule-level
/// refinement of `planner_on_and_off_agree` (which only checks the
/// composed pipeline, where a later rule could mask an earlier rule's
/// bug). Programs get a fusable and a reorderable chain in the prologue
/// and a fusable chain in the loop body, whose scratch is sometimes also
/// read after the loop. After the random cases, every rule runs alone on
/// one fixed program over [`fixed_input`] — [`FIXED_SRC`]'s unread
/// scratch, a fusable chain, a reorder chain that statistics prove
/// cheaper re-bracketed, the paper's pivot of `Sales`, and a fusable
/// chain in the loop — and there each rule must record at least one
/// decision and keep the visible output, whatever the cases drawn. The
/// cases are drawn as `proptest!` would draw them for this test's name.
#[test]
fn each_planner_rule_preserves_semantics() {
    let mut runner = TestRunner::named(
        ProptestConfig::with_cases(64),
        concat!(module_path!(), "::each_planner_rule_preserves_semantics"),
    );
    let cases = (
        arb_program(),
        arb_input(),
        (0usize..5, 0usize..6, 0usize..6),
        (0usize..5, 0usize..6, 0usize..6, 0usize..6),
        ((0usize..4, 0usize..4), (0usize..4, 0usize..4)),
        (
            0usize..5,
            0usize..6,
            0usize..6,
            0usize..4,
            0usize..4,
            0usize..3,
        ),
    );
    runner
        .run(
            &cases,
            |(src, db, (t1, x1, y1), (t2, l1, l2, l3), ((a1, b1), (a2, b2)), inner)| {
                let (t3, x3, y3, a3, b3, keep) = inner;
                let mut head = fusable_chain(
                    6,
                    TARGETS[t1],
                    SOURCES[x1],
                    SOURCES[y1],
                    ATTRS[a1],
                    ATTRS[b1],
                );
                head.extend(reorder_chain(
                    1,
                    TARGETS[t2],
                    SOURCES[l1],
                    SOURCES[l2],
                    SOURCES[l3],
                    ATTRS[a2],
                    ATTRS[b2],
                ));
                let mut program = spliced(&src, head, vec![]);
                let inner = fusable_chain(
                    5,
                    TARGETS[t3],
                    SOURCES[x3],
                    SOURCES[y3],
                    ATTRS[a3],
                    ATTRS[b3],
                );
                splice_into_loop(&mut program, inner, 5, keep == 0);
                each_rule_case(&src, &program, &db).map(|_| ())
            },
        )
        .unwrap();
    let mut head = fusable_chain(6, "Joined", "R", "S", "A", "C");
    head.extend(reorder_chain(1, "Chained", "R", "T", "W", "A", "C"));
    head.extend(restructure_chain(
        2, "Pivot", "Sales", "Region", "Sold", "Part", true, true,
    ));
    let inner = fusable_chain(5, "Looped", "R", "T", "A", "C");
    let program = spliced(FIXED_SRC, head, inner);
    let decisions = each_rule_case(FIXED_SRC, &program, &fixed_input())
        .unwrap_or_else(|e| panic!("fixed program: {e}"))
        .expect("the fixed program runs");
    for (rule, n) in ALL_RULES.iter().zip(decisions) {
        assert!(n > 0, "{rule:?} recorded no decision on the fixed program");
    }
}

/// One case of [`each_planner_rule_preserves_semantics`]: plan `program`
/// with each rule of `ALL_RULES` alone, check each rewritten program
/// keeps the visible output, and return each rule's decision count, in
/// `ALL_RULES` order (`None` when the unplanned run fails).
fn each_rule_case(
    src: &str,
    program: &Program,
    db: &Database,
) -> Result<Option<Vec<usize>>, TestCaseError> {
    let cfg = limits(WhileStrategy::Naive, usize::MAX);
    let baseline = run_governed_traced(program, db, &Budget::from_limits(&cfg));
    let Ok((base_out, _, _)) = &baseline else {
        return Ok(None);
    };
    let expect = canonicalize_fresh(&visible(base_out));
    let mut decisions = Vec::new();
    for rule in ALL_RULES {
        let (rewritten, report) = plan_with_rules(program, Some(db), &[rule]);
        decisions.push(report.rules_applied());
        match run_governed_traced(&rewritten, db, &Budget::from_limits(&cfg)) {
            Ok((got, _, _)) => prop_assert!(
                expect == canonicalize_fresh(&visible(&got)),
                "rule {:?} changed visible output\nprogram:\n{}",
                rule,
                src
            ),
            // A single rule may shift which intermediates
            // materialize (e.g. pushdown mints per-branch scratch
            // selects), so a resource trip is tolerated; any other
            // error is a soundness bug.
            Err(e) => prop_assert!(
                is_resource_trip(&e),
                "rule {:?} failed where the original succeeded: {e}\nprogram:\n{}",
                rule,
                src
            ),
        }
    }
    Ok(Some(decisions))
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
