//! Integration tests for the resource governor: deadlines, run-cell
//! budgets, and cooperative cancellation (DESIGN.md, "Resource
//! governance").
//!
//! The contract under test: on any budget trip, evaluation degrades
//! gracefully — the returned `BudgetExceeded` error carries the partial
//! `EvalStats` and partial `Trace` collected up to the trip, with the
//! interrupted span drained as `aborted` — and the cell-budget trip
//! point is deterministic for a given program and budget across every
//! evaluation strategy (naive/delta × serial/sharded) and through every
//! stacked path (federation, the Theorem 4.1 compiled path, the
//! SchemaLog translated path, the OLAP helpers).

use std::time::Duration;

use tables_paradigm::algebra::{
    governor, parser::parse, AlgebraError, Budget, CancelToken, EvalLimits, Federation, PartialRun,
    TraceLevel, WhileStrategy,
};
use tables_paradigm::core::{Database, Symbol, Table};
use tables_paradigm::prelude::{run_governed_traced, Trace};

/// The four strategy × sharding configurations every budget behavior
/// must agree on. Threshold 2 forces the shard pool on tiny statements.
const CONFIGS: [(WhileStrategy, usize); 4] = [
    (WhileStrategy::Naive, usize::MAX),
    (WhileStrategy::Naive, 2),
    (WhileStrategy::Delta, usize::MAX),
    (WhileStrategy::Delta, 2),
];

fn limits(strategy: WhileStrategy, threshold: usize) -> EvalLimits {
    EvalLimits {
        while_strategy: strategy,
        parallel_threshold: threshold,
        trace: TraceLevel::Spans,
        ..EvalLimits::default()
    }
}

/// A loop that spins forever without growing: the swap keeps `A`
/// changing every iteration, so the delta strategy can never skip the
/// body, and no count or cell limit is approached — only the governor
/// can stop it.
fn spin_program() -> tables_paradigm::prelude::Program {
    parse(
        "while W do
           T <- COPY(A)
           A <- COPY(B)
           B <- COPY(T)
         end",
    )
    .unwrap()
}

fn spin_database() -> Database {
    Database::from_tables([
        Table::relational("A", &["X"], &[&["a"]]),
        Table::relational("B", &["X"], &[&["b"]]),
        Table::relational("W", &["K"], &[&["go"]]),
    ])
}

/// A loop whose work table doubles in rows (and widens) every
/// iteration: production grows geometrically, so a cell budget trips it
/// after a handful of deterministic iterations.
fn grow_program() -> tables_paradigm::prelude::Program {
    parse("while W do W <- PRODUCT(W, G) end").unwrap()
}

fn grow_database() -> Database {
    Database::from_tables([
        Table::relational("W", &["A"], &[&["w"]]),
        Table::relational("G", &["B"], &[&["x"], &["y"]]),
    ])
}

fn unwrap_trip(err: AlgebraError) -> (&'static str, usize, usize, Box<PartialRun>) {
    match err {
        AlgebraError::BudgetExceeded {
            resource,
            spent,
            limit,
            partial,
        } => (resource, spent, limit, partial),
        other => panic!("expected BudgetExceeded, got {other}"),
    }
}

// ---------------------------------------------------------------------
// A hand-written JSON well-formedness validator (no serde_json in the
// offline vendor set): validates the complete grammar of
// `Trace::to_json` output — objects, arrays, strings with escapes,
// numbers, and the literals.
// ---------------------------------------------------------------------

fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_literal(b, pos, b"true"),
        Some(b'f') => parse_literal(b, pos, b"false"),
        Some(b'n') => parse_literal(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        other => Err(format!("unexpected {other:?} at byte {pos}")),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            other => return Err(format!("expected ',' or '}}', got {other:?} at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            other => return Err(format!("expected ',' or ']', got {other:?} at byte {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {pos}"));
                            }
                            *pos += 1;
                        }
                    }
                    other => return Err(format!("bad escape {other:?} at byte {pos}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
    }
    if *pos == start || (*pos == start + 1 && b[start] == b'-') {
        return Err(format!("empty number at byte {start}"));
    }
    Ok(())
}

/// The partial-trace contract: non-empty, well-formed JSON, and the
/// interrupted work is marked `aborted`.
fn assert_partial_trace(trace: &Trace, context: &str) {
    assert!(!trace.is_empty(), "{context}: partial trace is empty");
    validate_json(&trace.to_json())
        .unwrap_or_else(|e| panic!("{context}: partial trace JSON malformed: {e}"));
    assert!(
        trace
            .spans()
            .any(|s| s.decision == tables_paradigm::algebra::DeltaDecision::Aborted),
        "{context}: no aborted span marks the trip"
    );
}

// ---------------------------------------------------------------------
// Planner × governor: charges follow the planned shapes
// ---------------------------------------------------------------------

/// A pessimal 3-way product chain: evaluated as written, the first
/// product materializes |L|·|M| rows and trips a cell budget; the
/// cost-based planner re-brackets it through the 1-row table `N` and fuses
/// the closing selection, so the planned run fits the same budget. This
/// pins the integration contract: governor charges land on the *planned*
/// statement shapes, not the source program's.
#[test]
fn planner_fits_a_pessimal_join_chain_into_a_budget_that_trips_unplanned() {
    use tables_paradigm::algebra::{Assignment, OpKind, Statement};
    use tables_paradigm::prelude::{run_planned_governed_traced, Param, Program};

    let rel = |name: &str, attrs: &[&str], rows: Vec<[String; 2]>| {
        let borrowed: Vec<Vec<&str>> = rows.iter().map(|r| vec![&*r[0], &*r[1]]).collect();
        let slices: Vec<&[&str]> = borrowed.iter().map(|r| &r[..]).collect();
        Table::relational(name, attrs, &slices)
    };
    let db = Database::from_tables([
        rel(
            "L",
            &["A", "X"],
            (0..8).map(|i| [format!("v{i}"), format!("x{i}")]).collect(),
        ),
        rel(
            "M",
            &["B", "Y"],
            (4..12)
                .map(|i| [format!("v{i}"), format!("y{i}")])
                .collect(),
        ),
        Table::relational("N", &["C"], &[&["n"]]),
    ]);
    let s1 = Param::sym(Symbol::name("\u{1F}gv0a"));
    let s2 = Param::sym(Symbol::name("\u{1F}gv0b"));
    let program = Program {
        statements: vec![
            Statement::Assign(Assignment {
                target: s1.clone(),
                op: OpKind::Product,
                args: vec![Param::name("L"), Param::name("M")],
            }),
            Statement::Assign(Assignment {
                target: s2.clone(),
                op: OpKind::Product,
                args: vec![s1, Param::name("N")],
            }),
            Statement::Assign(Assignment {
                target: Param::name("Out"),
                op: OpKind::Select {
                    a: Param::name("A"),
                    b: Param::name("B"),
                },
                args: vec![s2],
            }),
        ],
    };
    // |L×M| = 64 rows × 4 cols = 325 cells: over budget as written.
    let budget = Budget::from_limits(&EvalLimits::default()).with_cell_budget(250);
    let (resource, _, _, _) = unwrap_trip(run_governed_traced(&program, &db, &budget).unwrap_err());
    assert_eq!(resource, governor::RESOURCE_RUN_CELLS);
    let out = run_planned_governed_traced(&program, &db, &budget)
        .expect("planned chain fits the budget the source program trips")
        .0;
    let t = out.table_str("Out").expect("planned run produces Out");
    // A-values v4..v7 meet B-values: 4 joined rows survive the selection.
    assert_eq!(t.height(), 4);
}

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

#[test]
fn precancelled_token_stops_before_any_iteration() {
    for (strategy, threshold) in CONFIGS {
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::from_limits(&limits(strategy, threshold)).with_cancel(token);
        let err = run_governed_traced(&spin_program(), &spin_database(), &budget).unwrap_err();
        assert_eq!(err.to_string(), "evaluation cancelled cooperatively");
        let (resource, _, _, partial) = unwrap_trip(err);
        assert_eq!(resource, governor::RESOURCE_CANCELLED);
        assert_eq!(
            partial.stats.while_iterations, 0,
            "{strategy:?}/{threshold}: a pre-cancelled run performs no iterations"
        );
    }
}

#[test]
fn cross_thread_cancel_stops_a_diverging_loop() {
    // `max_while_iters: usize::MAX` removes every count limit: only the
    // token can stop this loop, so there is no racing error to flake on.
    for (strategy, threshold) in CONFIGS {
        let mut lim = limits(strategy, threshold);
        lim.max_while_iters = usize::MAX;
        let token = CancelToken::new();
        let budget = Budget::from_limits(&lim).with_cancel(token.clone());
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            token.cancel();
        });
        let err = run_governed_traced(&spin_program(), &spin_database(), &budget).unwrap_err();
        canceller.join().unwrap();
        let (resource, _, _, partial) = unwrap_trip(err);
        assert_eq!(resource, governor::RESOURCE_CANCELLED);
        assert!(
            partial.stats.while_iterations > 0,
            "{strategy:?}/{threshold}: the loop ran until the cancel"
        );
        assert_partial_trace(&partial.trace, &format!("{strategy:?}/{threshold} cancel"));
    }
}

// ---------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------

#[test]
fn deadline_trips_a_diverging_loop_with_partial_state() {
    let mut lim = limits(WhileStrategy::Delta, usize::MAX);
    lim.max_while_iters = usize::MAX;
    let budget = Budget::from_limits(&lim).with_deadline(Duration::from_millis(30));
    let err = run_governed_traced(&spin_program(), &spin_database(), &budget).unwrap_err();
    let msg = err.to_string();
    let (resource, spent, limit, partial) = unwrap_trip(err);
    assert_eq!(resource, governor::RESOURCE_DEADLINE);
    assert_eq!(limit, 30);
    assert!(spent >= 30, "spent {spent}ms is at least the 30ms deadline");
    assert!(msg.contains("wall-clock deadline"), "{msg}");
    assert!(partial.stats.while_iterations > 0);
    assert_partial_trace(&partial.trace, "deadline");
}

// ---------------------------------------------------------------------
// Cell budget: deterministic trips, on every path
// ---------------------------------------------------------------------

#[test]
fn cell_budget_trip_point_is_deterministic_across_strategies() {
    let mut reports: Vec<(String, usize, usize, usize)> = Vec::new();
    for (strategy, threshold) in CONFIGS {
        let budget = Budget::from_limits(&limits(strategy, threshold)).with_cell_budget(500);
        let err = run_governed_traced(&grow_program(), &grow_database(), &budget).unwrap_err();
        let msg = err.to_string();
        let (resource, _, _, partial) = unwrap_trip(err);
        assert_eq!(resource, governor::RESOURCE_RUN_CELLS);
        assert_partial_trace(
            &partial.trace,
            &format!("{strategy:?}/{threshold} cell budget"),
        );
        reports.push((
            msg,
            partial.stats.while_iterations,
            partial.stats.tables_produced,
            partial.stats.max_table_cells,
        ));
    }
    let first = &reports[0];
    for r in &reports[1..] {
        assert_eq!(
            r, first,
            "same program, same budget: same trip point across strategies"
        );
    }
}

#[test]
fn cell_budget_trips_the_federated_path() {
    let mut fed = Federation::new();
    fed.insert("site", grow_database());
    let program = parse("while site.W do site.W <- PRODUCT(site.W, site.G) end").unwrap();
    let budget =
        Budget::from_limits(&limits(WhileStrategy::Delta, usize::MAX)).with_cell_budget(500);
    let err = fed.run_program(&program, "main", &budget).unwrap_err();
    let (resource, _, _, partial) = unwrap_trip(err);
    assert_eq!(resource, governor::RESOURCE_RUN_CELLS);
    assert!(partial.stats.while_iterations > 0);
    assert_partial_trace(&partial.trace, "federated");
}

#[test]
fn federation_split_divides_the_budget_and_cancels_siblings_on_trip() {
    let mut fed = Federation::new();
    fed.insert("east", grow_database());
    fed.insert("west", grow_database());
    let budget =
        Budget::from_limits(&limits(WhileStrategy::Naive, usize::MAX)).with_cell_budget(600);
    let err = fed.run_each(&grow_program(), &budget).unwrap_err();
    let (resource, _, limit, _) = unwrap_trip(err);
    assert_eq!(resource, governor::RESOURCE_RUN_CELLS);
    assert_eq!(limit, 300, "each of the 2 sites gets half the cell budget");
    assert!(
        budget.cancel.is_cancelled(),
        "the first trip cancels the shared token"
    );

    // An untripped split run completes normally.
    let mut fed = Federation::new();
    fed.insert("east", spin_database());
    fed.insert("west", spin_database());
    let p = parse("T <- COPY(A)").unwrap();
    let out = fed.run_each(&p, &Budget::default()).unwrap();
    assert!(out.member("east").unwrap().table_str("T").is_some());
    assert!(out.member("west").unwrap().table_str("T").is_some());
}

#[test]
fn cell_budget_trips_the_compiled_theorem41_path() {
    use tables_paradigm::relational::{compile::run_compiled, RelDatabase, Relation};

    let db = RelDatabase::from_relations([Relation::new(
        "E",
        &["From", "To"],
        &[&["a", "b"], &["b", "c"], &["c", "d"], &["d", "a"]],
    )]);
    let p = tables_paradigm::relational::program::transitive_closure_program();
    let budget =
        Budget::from_limits(&limits(WhileStrategy::Delta, usize::MAX)).with_cell_budget(400);
    let err = run_compiled(&p, &db, &["TC"], &budget).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("run cell budget"),
        "compiled path surfaces the trip: {msg}"
    );
    // The same run with an unlimited budget succeeds.
    let unlimited = Budget::from_limits(&limits(WhileStrategy::Delta, usize::MAX));
    let (out, stats, _) = run_compiled(&p, &db, &["TC"], &unlimited).unwrap();
    assert_eq!(out.get_str("TC").unwrap().len(), 16);
    assert!(stats.while_iterations > 0);
}

#[test]
fn cell_budget_trips_the_schemalog_translated_path() {
    use tables_paradigm::relational::{RelDatabase, Relation};
    use tables_paradigm::schemalog::{quads::QuadDb, translate::run_translated};

    let input = QuadDb::from_relations(&RelDatabase::from_relations([Relation::new(
        "edge",
        &["from", "to"],
        &[&["a", "b"], &["b", "c"], &["c", "d"], &["d", "a"]],
    )]));
    let src = "path[T : from -> F, to -> X] :- edge[T : from -> F, to -> X].
               path[T : from -> F, to -> X] :- path[T : from -> F, to -> Y], edge[T : from -> Y, to -> X].";
    let p = tables_paradigm::schemalog::parser::parse(src).unwrap();
    let budget =
        Budget::from_limits(&limits(WhileStrategy::Delta, usize::MAX)).with_cell_budget(2_000);
    let err = run_translated(&p, &input, &budget).unwrap_err();
    assert!(
        err.to_string().contains("run cell budget"),
        "SchemaLog path surfaces the trip: {err}"
    );
    // Sanity: ungoverned translation of the same program succeeds.
    let (out, _, _) = run_translated(
        &p,
        &input,
        &Budget::from_limits(&limits(WhileStrategy::Delta, usize::MAX)),
    )
    .unwrap();
    assert!(!out.is_empty());
}

#[test]
fn cell_budget_trips_the_olap_pivot_path() {
    use tables_paradigm::core::fixtures;
    use tables_paradigm::olap::pivot;

    let rel = fixtures::sales_relation();
    let budget = Budget::default().with_cell_budget(1);
    let err = pivot(&rel, Symbol::name("Region"), Symbol::name("Sold"), &budget).unwrap_err();
    assert!(
        err.to_string().contains("run cell budget"),
        "OLAP path surfaces the trip: {err}"
    );
    // The governed helper with an unlimited budget matches the plain one.
    let plain = pivot(
        &rel,
        Symbol::name("Region"),
        Symbol::name("Sold"),
        &Budget::default(),
    )
    .unwrap();
    let governed = pivot(
        &rel,
        Symbol::name("Region"),
        Symbol::name("Sold"),
        &Budget::default(),
    )
    .unwrap();
    assert!(plain.equiv(&governed));
}

#[test]
fn cell_budget_between_fused_output_and_staged_intermediate_separates_the_paths() {
    use tables_paradigm::core::fixtures;
    use tables_paradigm::prelude::{plan_with_rules, Rule};

    // A 16×8 pivot: the staged chain materializes a ≈16,900-cell grouped
    // intermediate, while the fused kernel's largest table is the
    // ≈180-cell cross-tab. A run-cell budget of 2,000 sits squarely
    // between the two, so it *must* trip the staged program and *must
    // not* trip the fused one — the budget separation is exactly the
    // intermediate the kernel never builds.
    let rel = fixtures::make_sales_relation(16, 8);
    let target = Symbol::fresh_name();
    let staged = tables_paradigm::olap::pivot::pivot_program(
        rel.name(),
        Symbol::name("Region"),
        Symbol::name("Sold"),
        &[Symbol::name("Part")],
        target,
    );
    let fused = plan_with_rules(&staged, None, &[Rule::FuseRestructure]).0;
    let db = Database::from_tables([rel]);

    let mut trips: Vec<(String, usize, usize)> = Vec::new();
    let mut outputs: Vec<Table> = Vec::new();
    for (strategy, threshold) in CONFIGS {
        let budget = Budget::from_limits(&limits(strategy, threshold)).with_cell_budget(2_000);

        let err = run_governed_traced(&staged, &db, &budget).unwrap_err();
        let msg = err.to_string();
        let (resource, _, _, partial) = unwrap_trip(err);
        assert_eq!(
            resource,
            governor::RESOURCE_RUN_CELLS,
            "{strategy:?}/{threshold}: the staged chain exhausts the budget"
        );
        assert_partial_trace(
            &partial.trace,
            &format!("{strategy:?}/{threshold} staged pivot"),
        );
        trips.push((
            msg,
            partial.stats.tables_produced,
            partial.stats.max_table_cells,
        ));

        let (out, stats, _) = run_governed_traced(&fused, &db, &budget).unwrap_or_else(|e| {
            panic!("{strategy:?}/{threshold}: the fused pivot fits the budget, got {e}")
        });
        assert!(
            stats.restructure_fused >= 1,
            "{strategy:?}/{threshold}: the single-pass kernel ran"
        );
        assert_eq!(
            stats.restructure_unfused, 0,
            "{strategy:?}/{threshold}: no staged fallback under the budget"
        );
        outputs.push(out.table(target).expect("fused pivot output").clone());
    }

    // Same program, same budget: the staged trip point is deterministic
    // across every strategy × sharding configuration…
    let first = &trips[0];
    for t in &trips[1..] {
        assert_eq!(t, first, "staged trip stats agree across configurations");
    }
    // …and every fused run produced the same cross-tab.
    for out in &outputs[1..] {
        assert_eq!(
            out, &outputs[0],
            "fused outputs agree across configurations"
        );
    }
}

// ---------------------------------------------------------------------
// Trip, raise, re-run: the limit audit of satellite 3
// ---------------------------------------------------------------------

#[test]
fn trip_raise_rerun_keeps_naive_and_delta_in_agreement() {
    // A terminating loop: W halves toward empty... simplest is the grow
    // program bounded by iteration count, which both strategies agree on.
    let program = grow_program();
    let db = grow_database();

    // First: trip a tight cell budget on both strategies.
    for strategy in [WhileStrategy::Naive, WhileStrategy::Delta] {
        let mut lim = limits(strategy, usize::MAX);
        lim.max_while_iters = 5;
        let tight = Budget::from_limits(&lim).with_cell_budget(100);
        let err = run_governed_traced(&program, &db, &tight).unwrap_err();
        assert!(matches!(err, AlgebraError::BudgetExceeded { .. }));
    }

    // Then: raise the budget so the run completes (the iteration limit
    // now ends the loop as a plain LimitExceeded in both strategies) and
    // assert the strategies still agree — a tripped run must not leave
    // state behind that skews a later evaluation.
    let mut outcomes = Vec::new();
    for strategy in [WhileStrategy::Naive, WhileStrategy::Delta] {
        let mut lim = limits(strategy, usize::MAX);
        lim.max_while_iters = 5;
        let roomy = Budget::from_limits(&lim).with_cell_budget(1_000_000);
        let err = run_governed_traced(&program, &db, &roomy).unwrap_err();
        outcomes.push(err.to_string());
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "Naive and Delta agree after the raise"
    );
    assert!(outcomes[0].contains("while"), "{}", outcomes[0]);

    // And a genuinely terminating program agrees on its output.
    let term = parse(
        "while W do
           Out <- PRODUCT(Out, G)
           W <- DIFFERENCE(W, W)
         end",
    )
    .unwrap();
    let tdb = Database::from_tables([
        Table::relational("W", &["K"], &[&["go"]]),
        Table::relational("Out", &["A"], &[&["o"]]),
        Table::relational("G", &["B"], &[&["x"], &["y"]]),
    ]);
    let mut finals = Vec::new();
    for strategy in [WhileStrategy::Naive, WhileStrategy::Delta] {
        let tight = Budget::from_limits(&limits(strategy, usize::MAX)).with_cell_budget(10);
        assert!(
            run_governed_traced(&term, &tdb, &tight).is_err(),
            "tight budget trips"
        );
        let roomy = Budget::from_limits(&limits(strategy, usize::MAX));
        let (out, _, _) = run_governed_traced(&term, &tdb, &roomy).unwrap();
        finals.push(out);
    }
    assert!(
        finals[0]
            .table_str("Out")
            .unwrap()
            .equiv(finals[1].table_str("Out").unwrap()),
        "strategies agree on the re-run output"
    );
}

// ---------------------------------------------------------------------
// Trips landing on the delta engine's partial-state paths: these used
// to sit next to `expect`/`unreachable!` sites; a trip must surface as
// a clean `BudgetExceeded`, never a panic, on every engine path.
// ---------------------------------------------------------------------

/// A chain graph `n0 → … → n_len` as a tabular database `E[A, B]`.
fn chain_db(len: usize) -> Database {
    let rows: Vec<[String; 2]> = (0..len)
        .map(|i| [format!("n{i}"), format!("n{}", i + 1)])
        .collect();
    let borrowed: Vec<Vec<&str>> = rows.iter().map(|r| vec![&*r[0], &*r[1]]).collect();
    let slices: Vec<&[&str]> = borrowed.iter().map(|r| &r[..]).collect();
    Database::from_tables([Table::relational("E", &["A", "B"], &slices)])
}

/// Transitive closure over `E` with the fused hash-join kernel in the
/// loop body — the workload whose delta evaluation takes the
/// incremental in-place append path.
fn tc_fused_program() -> tables_paradigm::prelude::Program {
    parse(
        "TC <- COPY(E)
         Frontier <- COPY(E)
         while Frontier do
           EStep <- COPY(E)
           RTC <- RENAME[A -> A0](TC)
           RTC <- RENAME[B -> B0](RTC)
           Matched <- FUSEDJOIN[B0 = A](RTC, EStep)
           Step <- PROJECT[{A0, B}](Matched)
           Step <- RENAME[A0 -> A](Step)
           Frontier <- DIFFERENCE(Step, TC)
           TC <- CLASSICALUNION(TC, Frontier)
         end",
    )
    .unwrap()
}

/// The delta engine's incremental *partitioned in-place append* commits
/// through `Database::update_named` with the governor charging per
/// partition — the engine path with the most partial state in flight
/// when a budget trips. The trip must land after incremental appends
/// have begun and still degrade into a clean partial report.
#[test]
fn cell_budget_trips_inside_the_delta_incremental_partitioned_append() {
    let db = chain_db(24);
    let mut lim = limits(WhileStrategy::Delta, usize::MAX);
    lim.max_while_iters = usize::MAX;
    lim.partition_threshold = 1; // force the partitioned kernel throughout
                                 // Generous enough for several iterations (so append lineage exists),
                                 // tight enough to trip well before the 24-chain closure completes.
    let budget = Budget::from_limits(&lim).with_cell_budget(20_000);
    let err = run_governed_traced(&tc_fused_program(), &db, &budget).unwrap_err();
    let (resource, _, _, partial) = unwrap_trip(err);
    assert_eq!(resource, governor::RESOURCE_RUN_CELLS);
    assert!(
        partial.stats.while_iterations >= 2,
        "the trip lands mid-loop: {} iterations",
        partial.stats.while_iterations
    );
    assert!(partial.stats.join_fused >= 1, "the fused kernel ran");
    assert!(
        partial.stats.partitioned_joins >= 1,
        "the partitioned kernel ran before the trip"
    );
    assert_partial_trace(&partial.trace, "delta incremental append");

    // The same program under an unlimited budget completes — a tripped
    // run leaves no process-wide state that poisons a retry.
    let unlimited = Budget::from_limits(&lim);
    let (out, stats, _) = run_governed_traced(&tc_fused_program(), &db, &unlimited).unwrap();
    assert_eq!(
        out.table_str("TC").unwrap().height(),
        24 * 25 / 2,
        "chain closure size"
    );
    assert!(stats.partitioned_joins >= 1);
}

/// After the first iteration every body statement delta-skips, and each
/// skip still charges the memoized production (keeping the trip point
/// identical to naive re-execution) — so the budget trips *during a
/// skip*, a path that touches the statement memos without executing
/// anything. It must degrade cleanly, and at the same point as naive.
#[test]
fn cell_budget_trips_on_the_delta_skip_charge_path() {
    let program = parse("while W do T <- PRODUCT(A, B) end").unwrap();
    let db = Database::from_tables([
        Table::relational("W", &["K"], &[&["go"]]),
        Table::relational("A", &["A1"], &[&["a"], &["b"], &["c"], &["d"]]),
        Table::relational("B", &["B1"], &[&["x"], &["y"], &["z"], &["w"]]),
    ]);
    // PRODUCT(A, B): 16 rows × 2 cols = 17·3 = 51 cells per iteration,
    // executed once then skip-charged; 180 cells admits 3 charges and
    // trips on the 4th — during the third consecutive skip.
    let mut msgs = Vec::new();
    for strategy in [WhileStrategy::Delta, WhileStrategy::Naive] {
        let mut lim = limits(strategy, usize::MAX);
        lim.max_while_iters = usize::MAX;
        let budget = Budget::from_limits(&lim).with_cell_budget(180);
        let err = run_governed_traced(&program, &db, &budget).unwrap_err();
        let msg = err.to_string();
        let (resource, spent, _, partial) = unwrap_trip(err);
        assert_eq!(resource, governor::RESOURCE_RUN_CELLS);
        assert_eq!(
            spent, 204,
            "{strategy:?}: trip on the fourth 51-cell charge"
        );
        if strategy == WhileStrategy::Delta {
            assert!(
                partial.stats.while_delta_skipped >= 2,
                "the trip interrupted a skip, not an execution"
            );
        }
        assert_partial_trace(&partial.trace, &format!("{strategy:?} skip charge"));
        msgs.push(msg);
    }
    assert_eq!(msgs[0], msgs[1], "skip charges keep the naive trip point");
}

// ---------------------------------------------------------------------
// Two sessions, one CancelToken: the multi-tenant server cancels all of
// a client's concurrent runs through a single shared token. Each run
// owns its metrics registry, so each partial trace must contain exactly
// its own spans, drained exactly once (`Metrics::abort_open`).
// ---------------------------------------------------------------------

#[test]
fn two_sessions_sharing_a_token_drain_only_their_own_spans() {
    let token = CancelToken::new();
    // Distinguishable workloads: session A spins on COPY, session B on
    // TRANSPOSE, so a span drained into the wrong trace is visible.
    let run_session = |program: tables_paradigm::prelude::Program, token: CancelToken| {
        std::thread::spawn(move || {
            let mut lim = limits(WhileStrategy::Delta, usize::MAX);
            lim.max_while_iters = usize::MAX;
            let budget = Budget::from_limits(&lim).with_cancel(token);
            run_governed_traced(&program, &spin_database(), &budget)
        })
    };
    let a = run_session(spin_program(), token.clone());
    let b = run_session(
        parse(
            "while W do
               T <- TRANSPOSE(A)
               A <- TRANSPOSE(B)
               B <- TRANSPOSE(T)
             end",
        )
        .unwrap(),
        token.clone(),
    );
    std::thread::sleep(Duration::from_millis(40));
    token.cancel();

    let allowed: [(&str, &[&str]); 2] = [("A", &["COPY", "while"]), ("B", &["TRANSPOSE", "while"])];
    for (handle, (session, ops)) in [a, b].into_iter().zip(allowed) {
        let err = handle.join().unwrap().unwrap_err();
        let (resource, _, _, partial) = unwrap_trip(err);
        assert_eq!(
            resource,
            governor::RESOURCE_CANCELLED,
            "session {session}: the shared token stopped the run"
        );
        assert!(
            partial.stats.while_iterations > 0,
            "session {session} ran until the cancel"
        );
        assert_partial_trace(&partial.trace, &format!("session {session}"));
        let mut seen = std::collections::HashSet::new();
        for span in partial.trace.spans() {
            assert!(
                ops.contains(&span.op) || span.op == "shard",
                "session {session}: foreign span {:?} in this session's trace",
                span.op
            );
            assert!(
                seen.insert(span.id),
                "session {session}: span {} drained twice",
                span.id
            );
        }
    }
}

// ---------------------------------------------------------------------
// The validator validates (and rejects garbage)
// ---------------------------------------------------------------------

#[test]
fn json_validator_accepts_traces_and_rejects_garbage() {
    assert!(validate_json("{\"dropped\":0,\"spans\":[]}").is_ok());
    assert!(validate_json("{\"a\":[1,-2.5e3,null,true,\"x\\n\\u0041\"]}").is_ok());
    assert!(validate_json("{\"a\":1,}").is_err());
    assert!(validate_json("{\"a\" 1}").is_err());
    assert!(validate_json("[1,2").is_err());
    assert!(validate_json("{} trailing").is_err());
    assert!(validate_json("\"unterminated").is_err());
}
