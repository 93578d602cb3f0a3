//! Robustness suites: parsers and decoders must never panic on arbitrary
//! input — they return typed errors — and evaluation limits must hold
//! under adversarial programs.

mod common;

use proptest::prelude::*;
use tables_paradigm::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tabular algebra parser returns Ok or Err, never panics, on
    /// arbitrary strings over its alphabet.
    #[test]
    fn ta_parser_never_panics(src in "[A-Za-z0-9_<\\-\\(\\)\\[\\]\\{\\},\\\\*:=\" \n]{0,80}") {
        let _ = tables_paradigm::algebra::parser::parse(&src);
    }

    /// Same for the SchemaLog parser.
    #[test]
    fn schemalog_parser_never_panics(src in "[A-Za-z0-9_\\[\\]:>\\-,\\.=!< \n]{0,80}") {
        let _ = tables_paradigm::schemalog::parser::parse(&src);
    }

    /// Same for the CSV reader.
    #[test]
    fn csv_reader_never_panics(src in "[A-Za-z0-9_,\"\n:]{0,120}") {
        let _ = tables_paradigm::core::io::from_csv(&src);
    }

    /// Whatever the TA parser accepts, the pretty-printer round-trips.
    #[test]
    fn accepted_programs_round_trip(src in "[A-Za-z <\\-\\(\\)\\[\\]\\{\\},]{0,60}") {
        if let Ok(p) = tables_paradigm::algebra::parser::parse(&src) {
            let rendered = tables_paradigm::algebra::pretty::render(&p);
            let p2 = tables_paradigm::algebra::parser::parse(&rendered)
                .expect("rendered output must re-parse");
            prop_assert_eq!(p, p2);
        }
    }

    /// Decoding a random "canonical representation" either succeeds or
    /// reports a typed error — never panics.
    #[test]
    fn decode_never_panics(
        data in proptest::collection::vec((0u8..6, 0u8..6, 0u8..6, 0u8..6), 0..12),
        map in proptest::collection::vec((0u8..6, 0u8..8), 0..12),
    ) {
        let mut d = Relation::new("Data", &["Tbl", "Row", "Col", "Val"], &[]);
        for (a, b, c, v) in data {
            let _ = d.insert(vec![
                Symbol::value(&format!("i{a}")),
                Symbol::value(&format!("i{b}")),
                Symbol::value(&format!("i{c}")),
                Symbol::value(&format!("i{v}")),
            ]);
        }
        let mut m = Relation::new("Map", &["Id", "Entry"], &[]);
        for (id, e) in map {
            let _ = m.insert(vec![
                Symbol::value(&format!("i{id}")),
                Symbol::value(&format!("e{e}")),
            ]);
        }
        let rep = RelDatabase::from_relations([d, m]);
        let _ = tables_paradigm::canonical::decode(&rep);
    }
}

/// Adversarial interpreter programs hit limits, not stack overflows or
/// unbounded memory.
#[test]
fn interpreter_limits_hold() {
    use tables_paradigm::algebra::parser::parse;
    let db = Database::from_tables([Table::relational("R", &["A"], &[&["1"], &["2"]])]);
    let tight = EvalLimits {
        max_while_iters: 3,
        max_setnew_rows: 16,
        max_tables: 8,
        max_cells: 1000,
        ..EvalLimits::default()
    };

    // Diverging while.
    let p = parse("while R do R <- COPY(R) end").unwrap();
    assert!(run_governed_traced(&p, &db, &Budget::from_limits(&tight)).is_err());

    // Exponential set-new beyond the row budget.
    let big = Database::from_tables([Table::relational(
        "R",
        &["A"],
        &[&["1"], &["2"], &["3"], &["4"], &["5"], &["6"], &["7"]],
    )]);
    let p = parse("T <- SETNEW[Tag](R)").unwrap();
    assert!(run_governed_traced(&p, &big, &Budget::from_limits(&tight)).is_err());

    // Doubling widths through repeated self-products exceed max_cells.
    let p = parse(
        "T <- PRODUCT(R, R)
         T <- PRODUCT(T, T)
         T <- PRODUCT(T, T)
         T <- PRODUCT(T, T)
         T <- PRODUCT(T, T)",
    )
    .unwrap();
    assert!(run_governed_traced(&p, &db, &Budget::from_limits(&tight)).is_err());

    // Split flooding the table budget. (The table keeps a second column:
    // splitting a one-column table produces zero-width tables that are
    // all identical and collapse under set semantics.)
    let wide = Database::from_tables([Table::relational(
        "R",
        &["A", "B"],
        &[
            &["1", "x"],
            &["2", "x"],
            &["3", "x"],
            &["4", "x"],
            &["5", "x"],
            &["6", "x"],
            &["7", "x"],
            &["8", "x"],
            &["9", "x"],
        ],
    )]);
    let p = parse("T <- SPLIT[on {A}](R)").unwrap();
    assert!(run_governed_traced(&p, &wide, &Budget::from_limits(&tight)).is_err());
}

/// The delta `while` strategy enforces the same limits as the naive one —
/// the same typed error, with the same numbers, at the same point — under
/// both serial and fully-sharded execution.
#[test]
fn delta_limits_match_naive_across_shard_configs() {
    use tables_paradigm::algebra::parser::parse;

    let limits = |strategy, parallel_threshold| EvalLimits {
        max_while_iters: 3,
        max_cells: 200,
        while_strategy: strategy,
        parallel_threshold,
        ..EvalLimits::default()
    };
    let configs = [
        (WhileStrategy::Naive, usize::MAX),
        (WhileStrategy::Naive, 1),
        (WhileStrategy::Delta, usize::MAX),
        (WhileStrategy::Delta, 1),
    ];

    // A delta-safe diverging body: `R` never changes, so the delta engine
    // skips the statement on every pass after the first — iterations must
    // still count toward `max_while_iters`.
    let db = Database::from_tables([Table::relational("R", &["A"], &[&["1"], &["2"]])]);
    let p = parse("while R do R <- COPY(R) end").unwrap();
    let errs: Vec<String> = configs
        .iter()
        .map(|&(s, t)| {
            run_governed_traced(&p, &db, &Budget::from_limits(&limits(s, t)))
                .unwrap_err()
                .to_string()
        })
        .collect();
    assert!(errs[0].contains("while iterations"), "{}", errs[0]);
    assert!(errs[0].contains("> 3"), "{}", errs[0]);
    assert!(errs.iter().all(|e| e == &errs[0]), "{errs:?}");

    // A delta-safe body whose table doubles in width every iteration:
    // the cell budget must trip mid-loop, identically everywhere.
    let p = parse("while R do R <- PRODUCT(R, R) end").unwrap();
    let errs: Vec<String> = configs
        .iter()
        .map(|&(s, t)| {
            run_governed_traced(&p, &db, &Budget::from_limits(&limits(s, t)))
                .unwrap_err()
                .to_string()
        })
        .collect();
    assert!(errs[0].contains("cells per table"), "{}", errs[0]);
    assert!(errs[0].contains("> 200"), "{}", errs[0]);
    assert!(errs.iter().all(|e| e == &errs[0]), "{errs:?}");

    // Table-count flooding inside a loop: SPLIT is delta-safe, and the
    // `max_tables` check must fire mid-loop under the shard pool too.
    let wide = Database::from_tables([Table::relational(
        "R",
        &["A", "B"],
        &[
            &["1", "x"],
            &["2", "x"],
            &["3", "x"],
            &["4", "x"],
            &["5", "x"],
            &["6", "x"],
            &["7", "x"],
            &["8", "x"],
            &["9", "x"],
        ],
    )]);
    let tight_tables = |strategy, parallel_threshold| EvalLimits {
        max_tables: 8,
        while_strategy: strategy,
        parallel_threshold,
        ..limits(strategy, parallel_threshold)
    };
    let p = parse("while R do T <- SPLIT[on {A}](R) end").unwrap();
    let errs: Vec<String> = configs
        .iter()
        .map(|&(s, t)| {
            run_governed_traced(&p, &wide, &Budget::from_limits(&tight_tables(s, t)))
                .unwrap_err()
                .to_string()
        })
        .collect();
    assert!(errs[0].contains("tables in database"), "{}", errs[0]);
    assert!(errs.iter().all(|e| e == &errs[0]), "{errs:?}");
}

/// Errors surface as typed values with useful messages end to end.
#[test]
fn error_messages_are_actionable() {
    use tables_paradigm::algebra::parser::parse;
    let db = fixtures::sales_info1();
    // A non-singleton parameter.
    let p = parse("T <- RENAME[{Part, Region} -> X](Sales)").unwrap();
    let err = run_governed_traced(&p, &db, &Budget::default()).unwrap_err();
    assert!(err.to_string().contains("exactly one symbol"), "{err}");

    // Arity mismatch reported with the operation name.
    let bad = Program::new().assign(Param::name("T"), OpKind::Union, vec![Param::name("Sales")]);
    let err = run_governed_traced(&bad, &db, &Budget::default()).unwrap_err();
    assert!(err.to_string().contains("UNION"), "{err}");
}
