//! The experiment report: regenerates every figure and construction of
//! the paper, verifies it, and prints one row per experiment — the data
//! behind EXPERIMENTS.md.
//!
//! ```sh
//! cargo run -p tabular-bench --bin report --release
//! ```

use std::time::Instant;
use tabular_algebra::{
    parser::parse, run_governed_traced, run_planned_governed_traced, Budget, EvalLimits,
    TraceLevel, WhileStrategy,
};
use tabular_canonical::{check_fds, decode, encode, encode_program, EncodeScheme};
use tabular_core::{fixtures, Symbol, SymbolSet};
use tabular_olap::baseline::pivot_direct;
use tabular_olap::{add_totals, pivot, Agg, Cube};
use tabular_relational::compile::run_compiled;
use tabular_relational::program::transitive_closure_program;
use tabular_relational::relation::RelDatabase;
use tabular_schemalog::{
    eval::{eval, SlLimits, Strategy},
    parser::parse as sl_parse,
    translate::run_translated,
};

struct Row {
    id: &'static str,
    what: String,
    outcome: String,
    micros: u128,
}

/// The join-fusion head-to-head, summarized for `BENCH_6.json`.
struct FusionSummary {
    unfused_us: u128,
    fused_us: u128,
    kernel_runs: usize,
    product_cells: usize,
    join_cells: usize,
}

/// The restructuring-fusion head-to-head at 128×32, summarized for
/// `BENCH_6.json`.
struct RestructureSummary {
    staged_us: u128,
    fused_us: u128,
    kernel_runs: usize,
    /// Cells of the grouped intermediate the staged pipeline materializes.
    cells_staged: usize,
    /// Peak table of the fused run (the cross-tab itself).
    cells_fused_peak: usize,
    /// End-to-end fused `pivot` vs the hand-written baseline.
    overhead_x: f64,
}

/// The partition-parallel join measurement, pinned in `BENCH_7.json`.
///
/// The serial and partitioned kernels produce byte-identical output, so
/// the interesting numbers are wall times. On a 1-core host the
/// partitioned *wall* is pure overhead; the honest parallel figure is a
/// critical-path projection from per-shard busy times measured inside
/// the jobs (a 1-thread pool serializes the shards, so
/// `wall − Σ busy` is exactly the serial prelude: header, index build,
/// exact reserve, governor charges). All samples are best-of-3: on a
/// single-vCPU host a stolen time slice inflates any one sample by
/// tens of milliseconds, and the minimum is the closest to true cost.
struct PartitionSummary {
    probe_rows: usize,
    build_rows: usize,
    out_rows: usize,
    shards: usize,
    host_cores: usize,
    serial_us: u128,
    partitioned_wall_us: u128,
    shard_busy_us: Vec<u128>,
    prelude_us: u128,
    /// `prelude + max(shard busy)`: the 8-core wall-clock projection.
    critical_path_us: u128,
    /// `serial_us / critical_path_us`.
    speedup_8core: f64,
}

/// The cost-based planner head-to-head on a pessimal 3-way product
/// chain, pinned in `BENCH_8.json`.
///
/// The source program stages PRODUCT(L, M) — the two big tables — and
/// only then brings in the 1-row N and filters on A = B. The planner
/// re-brackets the chain as L × (M × N) and fuses the terminal
/// selection into a hash join, so the quadratic intermediate is never
/// materialized. `planned_us` is the full `run_planned_governed_traced`
/// entry point — statistics, rewrites, lowering, and evaluation — so the
/// speedup is end-to-end honest.
struct PlanSummary {
    left_rows: usize,
    right_rows: usize,
    tiny_rows: usize,
    out_rows: usize,
    unplanned_us: u128,
    planned_us: u128,
    /// `unplanned_us / planned_us`.
    speedup: f64,
    rules_applied: usize,
    statements_rewritten: usize,
    /// Σ output cells of PRODUCT spans in the unplanned trace.
    unplanned_product_cells: usize,
    /// Σ output cells of PRODUCT spans in the planned trace.
    planned_product_cells: usize,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_micros())
}

fn main() {
    let limits = EvalLimits::default();
    let budget = Budget::from_limits(&limits);
    let mut rows: Vec<Row> = Vec::new();

    // ------------------------------------------------------------------
    // Figure 1
    // ------------------------------------------------------------------
    {
        let p = parse(
            "Sales <- GROUP[by {Region} on {Sold}](Sales)
             Sales <- CLEANUP[by {Part} on {_}](Sales)
             Sales <- PURGE[on {Sold} by {Region}](Sales)",
        )
        .unwrap();
        let ((out, ..), us) =
            timed(|| run_governed_traced(&p, &fixtures::sales_info1(), &budget).unwrap());
        rows.push(Row {
            id: "Fig.1",
            what: "SalesInfo1 → SalesInfo2 (group, clean-up, purge)".into(),
            outcome: verdict(out.equiv(&fixtures::sales_info2())),
            micros: us,
        });
    }
    {
        let p = parse("Sales <- SPLIT[on {Region}](Sales)").unwrap();
        let ((out, ..), us) =
            timed(|| run_governed_traced(&p, &fixtures::sales_info1(), &budget).unwrap());
        rows.push(Row {
            id: "Fig.1",
            what: "SalesInfo1 → SalesInfo4 (split)".into(),
            outcome: verdict(out.equiv(&fixtures::sales_info4())),
            micros: us,
        });
    }
    {
        let (cube, us) = timed(|| {
            Cube::from_table(
                &fixtures::sales_relation(),
                &[Symbol::name("Region"), Symbol::name("Part")],
                Symbol::name("Sold"),
                Agg::Sum,
            )
            .unwrap()
        });
        let info3 = fixtures::sales_info3();
        rows.push(Row {
            id: "Fig.1",
            what: "SalesInfo1 → SalesInfo3 (2-d cube view)".into(),
            outcome: verdict(
                cube.to_table_2d()
                    .unwrap()
                    .equiv(info3.table_str("Sales").unwrap()),
            ),
            micros: us,
        });
    }
    {
        let bold = fixtures::sales_info2();
        let (out, us) = timed(|| {
            add_totals(
                bold.table_str("Sales").unwrap(),
                &[Symbol::name("Region")],
                &[Symbol::name("Part")],
                Agg::Sum,
            )
            .unwrap()
        });
        let full = fixtures::sales_info2_full();
        rows.push(Row {
            id: "Fig.1",
            what: "summary absorption (420 grand total)".into(),
            outcome: verdict(out.equiv(full.table_str("Sales").unwrap())),
            micros: us,
        });
    }

    // ------------------------------------------------------------------
    // Figures 4 and 5 — exact golden tables
    // ------------------------------------------------------------------
    {
        let p = parse("Sales <- GROUP[by {Region} on {Sold}](Sales)").unwrap();
        let ((out, ..), us) =
            timed(|| run_governed_traced(&p, &fixtures::sales_info1(), &budget).unwrap());
        rows.push(Row {
            id: "Fig.4",
            what: "GROUP by Region on Sold — exact table".into(),
            outcome: verdict(out.table_str("Sales").unwrap() == &fixtures::figure4_grouped()),
            micros: us,
        });
    }
    {
        let p = parse("Sales <- MERGE[on {Sold} by {Region}](Sales)").unwrap();
        let ((out, ..), us) =
            timed(|| run_governed_traced(&p, &fixtures::sales_info2(), &budget).unwrap());
        rows.push(Row {
            id: "Fig.5",
            what: "MERGE on Sold by Region — exact table".into(),
            outcome: verdict(out.table_str("Sales").unwrap() == &fixtures::figure5_merged()),
            micros: us,
        });
    }

    // ------------------------------------------------------------------
    // Theorem 4.1: FO + while + new simulated in TA
    // ------------------------------------------------------------------
    {
        let db = RelDatabase::from_relations([tabular_bench::chain_edges(12)]);
        let program = transitive_closure_program();
        let direct = program.run(&db, 100_000).unwrap();
        let ((), us) = timed(|| {
            let (via_ta, _, _) = run_compiled(&program, &db, &["TC"], &budget).unwrap();
            assert!(direct
                .get_str("TC")
                .unwrap()
                .equiv(via_ta.get_str("TC").unwrap()));
        });
        rows.push(Row {
            id: "Thm4.1",
            what: format!(
                "transitive closure, 12-chain: FO direct = compiled TA ({} tuples)",
                direct.get_str("TC").unwrap().len()
            ),
            outcome: verdict(true),
            micros: us,
        });
    }

    // The delta `while` strategy on the same closure, head to head with
    // naive re-execution (the TA-side ablation behind
    // `ablation/delta_while_tc`).
    {
        let p = tabular_bench::ta_tc_program();
        let db = tabular_bench::ta_chain_db(24);
        let naive = Budget::from_limits(&EvalLimits {
            while_strategy: WhileStrategy::Naive,
            ..EvalLimits::default()
        });
        let ((out_naive, ..), us_naive) = timed(|| run_governed_traced(&p, &db, &naive).unwrap());
        let ((out_delta, stats, _), us_delta) =
            timed(|| run_governed_traced(&p, &db, &budget).unwrap());
        let ok = out_naive.table_str("TC").unwrap() == out_delta.table_str("TC").unwrap()
            && stats.while_fallback_naive == 0
            && stats.while_delta_skipped > 0;
        rows.push(Row {
            id: "Thm4.1",
            what: format!(
                "TC 24-chain: delta while {us_delta}µs vs naive {us_naive}µs ({} stmts skipped)",
                stats.while_delta_skipped
            ),
            outcome: verdict(ok),
            micros: us_delta,
        });
    }

    // The optimizer's join fusion on the same closure: the loop's
    // SELECT-over-PRODUCT pipeline vs the FUSEDJOIN hash kernel, both
    // under the default (delta) strategy. Span traces expose how many
    // cells the staged products materialize and the fused join avoids.
    let fusion: FusionSummary;
    {
        let unfused = tabular_bench::ta_tc_program();
        let fused = tabular_bench::ta_tc_fused_program();
        let db = tabular_bench::ta_chain_db(24);
        let median_of = |f: &dyn Fn() -> u128| {
            let mut samples: Vec<u128> = (0..9).map(|_| f()).collect();
            samples.sort_unstable();
            samples[samples.len() / 2]
        };
        let us_unfused =
            median_of(&|| timed(|| run_governed_traced(&unfused, &db, &budget).unwrap()).1);
        let us_fused =
            median_of(&|| timed(|| run_governed_traced(&fused, &db, &budget).unwrap()).1);
        let spans = Budget::from_limits(&EvalLimits {
            trace: TraceLevel::Spans,
            ..EvalLimits::default()
        });
        let (out_u, _, trace_u) = run_governed_traced(&unfused, &db, &spans).unwrap();
        let (out_f, stats_f, trace_f) = run_governed_traced(&fused, &db, &spans).unwrap();
        let product_cells: usize = trace_u
            .spans()
            .filter(|s| s.op == "PRODUCT")
            .map(|s| s.output_cells)
            .sum();
        let join_cells: usize = trace_f
            .spans()
            .filter(|s| s.op == "FUSEDJOIN")
            .map(|s| s.output_cells)
            .sum();
        let same = out_u.table_str("TC").unwrap() == out_f.table_str("TC").unwrap();
        let speedup = us_unfused as f64 / us_fused.max(1) as f64;
        rows.push(Row {
            id: "join_fused",
            what: format!(
                "TC 24-chain fused hash join: {us_fused}µs, {} kernel runs, {join_cells} cells out",
                stats_f.join_fused
            ),
            outcome: verdict(same && stats_f.join_fused > 0 && stats_f.join_unfused == 0),
            micros: us_fused,
        });
        rows.push(Row {
            id: "join_unfused",
            what: format!(
                "TC 24-chain unfused SELECT∘PRODUCT: {us_unfused}µs, \
                 {product_cells} product cells staged ({speedup:.1}× vs fused)"
            ),
            outcome: verdict(same && product_cells > join_cells),
            micros: us_unfused,
        });
        fusion = FusionSummary {
            unfused_us: us_unfused,
            fused_us: us_fused,
            kernel_runs: stats_f.join_fused,
            product_cells,
            join_cells,
        };
    }

    // The tracing layer on the same closure: spans on, the per-op trace
    // totals must reconcile exactly with EvalStats (no double counting),
    // and the Off level must cost roughly nothing relative to Counters.
    {
        let p = tabular_bench::ta_tc_program();
        let db = tabular_bench::ta_chain_db(24);
        let spans = Budget::from_limits(&EvalLimits {
            trace: TraceLevel::Spans,
            ..EvalLimits::default()
        });
        let ((_, stats, trace), us_spans) = timed(|| run_governed_traced(&p, &db, &spans).unwrap());
        let reconciled = trace.dropped() == 0 && trace.per_op_micros() == stats.op_micros;
        let op_sum: u128 = stats.op_micros.values().sum();
        let decisions = trace.decision_counts();
        rows.push(Row {
            id: "Obs",
            what: format!(
                "TC 24-chain trace: {} spans, decisions {:?}, op Σ {op_sum}µs ≤ total {}µs",
                trace.len(),
                decisions,
                stats.total_micros
            ),
            outcome: verdict(reconciled && op_sum <= stats.total_micros),
            micros: us_spans,
        });

        let off_limits = EvalLimits {
            trace: TraceLevel::Off,
            ..EvalLimits::default()
        };
        // Median of repeated runs: single runs of a sub-10ms workload are
        // too noisy to compare levels.
        let median = |l: &EvalLimits| {
            let budget = Budget::from_limits(l);
            let mut samples: Vec<u128> = (0..9)
                .map(|_| timed(|| run_governed_traced(&p, &db, &budget).unwrap()).1)
                .collect();
            samples.sort_unstable();
            samples[samples.len() / 2]
        };
        let us_off = median(&off_limits);
        let us_counters = median(&EvalLimits::default());
        rows.push(Row {
            id: "Obs",
            what: format!(
                "TC 24-chain tracing overhead: off {us_off}µs, counters {us_counters}µs, \
                 spans {us_spans}µs"
            ),
            outcome: verdict(us_off > 0),
            micros: us_off,
        });
    }

    // ------------------------------------------------------------------
    // Resource governor (DESIGN.md "Resource governance"): an armed but
    // never-tripping budget must cost noise next to the ungoverned run —
    // polling is two atomic/branch reads per statement boundary — and a
    // tight cell budget must trip with the partial stats attached.
    // ------------------------------------------------------------------
    {
        let p = tabular_bench::ta_tc_program();
        let db = tabular_bench::ta_chain_db(24);
        let median_of = |f: &dyn Fn() -> u128| {
            let mut samples: Vec<u128> = (0..9).map(|_| f()).collect();
            samples.sort_unstable();
            samples[samples.len() / 2]
        };
        let base = Budget::default();
        let us_plain = median_of(&|| timed(|| run_governed_traced(&p, &db, &base).unwrap()).1);
        let armed = Budget::default()
            .with_deadline(std::time::Duration::from_secs(3600))
            .with_cell_budget(usize::MAX);
        let us_governed = median_of(&|| timed(|| run_governed_traced(&p, &db, &armed).unwrap()).1);
        let same = run_governed_traced(&p, &db, &base)
            .unwrap()
            .0
            .table_str("TC")
            .unwrap()
            == run_governed_traced(&p, &db, &armed)
                .unwrap()
                .0
                .table_str("TC")
                .unwrap();
        rows.push(Row {
            id: "Governor",
            what: format!(
                "TC 24-chain governor overhead: ungoverned {us_plain}µs, \
                 deadline+cells armed {us_governed}µs"
            ),
            outcome: verdict(same),
            micros: us_governed,
        });

        let tight = Budget::default().with_cell_budget(500);
        let (trip, us_trip) = timed(|| run_governed_traced(&p, &db, &tight).unwrap_err());
        let tripped = match &trip {
            tabular_algebra::AlgebraError::BudgetExceeded { partial, .. } => {
                partial.stats.tables_produced > 0
            }
            _ => false,
        };
        rows.push(Row {
            id: "Governor",
            what: format!("TC 24-chain, 500-cell budget: {trip}"),
            outcome: verdict(tripped),
            micros: us_trip,
        });
    }

    // ------------------------------------------------------------------
    // Storage engine: structural sharing (DESIGN.md "Storage engine")
    // ------------------------------------------------------------------
    {
        // Insert-dedup throughput: 10k distinct tables into one store
        // (fingerprint-set membership, O(1) expected per insert), then
        // the same 10k again — every duplicate rejected without growing
        // the store.
        let values: Vec<String> = (0..10_000).map(|i| format!("v{i}")).collect();
        let tables: Vec<tabular_core::Table> = values
            .iter()
            .map(|v| tabular_core::Table::relational("T", &["A"], &[&[v.as_str()]]))
            .collect();
        let (mut db, us_insert) = timed(|| {
            let mut db = tabular_core::Database::new();
            for t in &tables {
                db.insert(t.clone());
            }
            db
        });
        let (fresh, us_dedup) = timed(|| tables.iter().filter(|t| db.insert((*t).clone())).count());
        rows.push(Row {
            id: "storage",
            what: format!(
                "insert 10k distinct tables {us_insert}µs, re-insert all (dedup) {us_dedup}µs"
            ),
            outcome: verdict(db.len() == 10_000 && fresh == 0),
            micros: us_insert,
        });
    }
    {
        // Snapshot cost: 10k O(1) handle snapshots of a 64-table store
        // vs a single deep rebuild of the same store (what every
        // `while` iteration paid before structural sharing).
        let db = tabular_bench::ta_chain_db(24);
        let big = {
            let mut big = tabular_core::Database::new();
            for round in 0..64 {
                for t in db.tables() {
                    let mut t = t.clone();
                    t.set_name(Symbol::name(&format!("{}_{round}", t.name())));
                    big.insert(t);
                }
            }
            big
        };
        let (snaps, us_snap) = timed(|| (0..10_000).map(|_| big.snapshot()).collect::<Vec<_>>());
        let (deep, us_deep) = timed(|| {
            tabular_core::Database::from_tables(big.tables().iter().map(|t| t.map_symbols(|s| s)))
        });
        let shared = snaps
            .last()
            .is_some_and(|s| s.tables()[0].shares_cells_with(&big.tables()[0]));
        let unshared = !deep.tables()[0].shares_cells_with(&big.tables()[0]);
        rows.push(Row {
            id: "storage",
            what: format!(
                "10k snapshots of {}-table store {us_snap}µs vs one deep rebuild {us_deep}µs",
                big.len()
            ),
            outcome: verdict(shared && unshared),
            micros: us_snap,
        });
    }

    // ------------------------------------------------------------------
    // Lemmas 4.2/4.3
    // ------------------------------------------------------------------
    {
        let db = fixtures::sales_info4_full();
        let (ok, us) = timed(|| {
            let rep = encode(&db);
            check_fds(&rep).is_none() && decode(&rep).unwrap().equiv(&db)
        });
        rows.push(Row {
            id: "Lem4.2/4.3",
            what: "Rep round-trip on SalesInfo4-full (5 tables)".into(),
            outcome: verdict(ok),
            micros: us,
        });
    }
    {
        let scheme = EncodeScheme::new(&[("Sales", &["Part", "Region", "Sold"])]);
        let program = encode_program(&scheme).unwrap();
        let db = fixtures::sales_info1();
        let (ok, us) = timed(|| {
            let (out, _, _) = run_governed_traced(&program, &db, &budget).unwrap();
            let rep = RelDatabase::from_tabular(&out, &[Symbol::name("Data"), Symbol::name("Map")])
                .unwrap();
            decode(&rep).unwrap().equiv(&db)
        });
        rows.push(Row {
            id: "Lem4.2",
            what: format!("P_Rep as a TA program ({} statements)", program.len()),
            outcome: verdict(ok),
            micros: us,
        });
    }

    // ------------------------------------------------------------------
    // Theorem 4.4: normal-form transformations
    // ------------------------------------------------------------------
    {
        use tabular_canonical::normal_form::{rename_tables, transpose_all};
        let db = fixtures::sales_info1();
        for t in [rename_tables("Sales", "Orders"), transpose_all()] {
            let (ok, us) = timed(|| {
                let native = t.apply(&db, 1000).unwrap();
                let via_ta = t.apply_via_ta(&db, &limits).unwrap();
                native.equiv(&via_ta)
            });
            rows.push(Row {
                id: "Thm4.4",
                what: format!("normal form '{}': native = via TA", t.label),
                outcome: verdict(ok),
                micros: us,
            });
        }
    }

    {
        use tabular_canonical::normal_form::{matrix_to_relation, relation_to_matrix};
        let (ok, us) = timed(|| {
            let to_rel = matrix_to_relation("Sales", "Region", "Part", "Sold");
            let to_mat = relation_to_matrix("Sales", "Region", "Part", "Sold");
            to_rel
                .apply(&fixtures::sales_info3(), 1000)
                .unwrap()
                .equiv(&fixtures::sales_info1())
                && to_mat
                    .apply(&fixtures::sales_info1(), 1000)
                    .unwrap()
                    .equiv(&fixtures::sales_info3())
        });
        rows.push(Row {
            id: "Thm4.4",
            what: "SalesInfo3 ↔ SalesInfo1 via Rep (data-as-attributes both ways)".into(),
            outcome: verdict(ok),
            micros: us,
        });
    }

    // ------------------------------------------------------------------
    // Theorem 4.5: SchemaLog_d embedded in TA
    // ------------------------------------------------------------------
    {
        let quads = tabular_bench::sales_quads(4, 4);
        let p = sl_parse(
            "R[T : part -> P, sold -> S] :-
                sales[T : region -> R], sales[T : part -> P], sales[T : sold -> S].",
        )
        .unwrap();
        let (ok, us) = timed(|| {
            let native = eval(&p, &quads, Strategy::SemiNaive, &SlLimits::default()).unwrap();
            let (via_ta, _, _) = run_translated(&p, &quads, &budget).unwrap();
            native.len() == via_ta.len() && native.iter().all(|q| via_ta.contains(q))
        });
        rows.push(Row {
            id: "Thm4.5",
            what: "SchemaLog split-by-region: native = translated TA".into(),
            outcome: verdict(ok),
            micros: us,
        });
    }

    // ------------------------------------------------------------------
    // §4.3: TA as the OLAP restructuring language (scaling spot-check).
    // The `pivot` path now runs through `optimize::fuse_restructure`, so
    // the TA column measures the fused kernel; the staged pipeline (the
    // pre-fusion chain) is timed head-to-head at every size.
    // ------------------------------------------------------------------
    let restructure: RestructureSummary;
    {
        let mut summary = None;
        let median_of = |f: &dyn Fn() -> u128| {
            let mut samples: Vec<u128> = (0..9).map(|_| f()).collect();
            samples.sort_unstable();
            samples[samples.len() / 2]
        };
        for &(p, r) in &[(16usize, 8usize), (64, 16), (128, 32)] {
            let rel = fixtures::make_sales_relation(p, r);
            let (ta, us_ta) = timed(|| {
                pivot(&rel, Symbol::name("Region"), Symbol::name("Sold"), &budget).unwrap()
            });
            let (base, us_base) =
                timed(|| pivot_direct(&rel, Symbol::name("Region"), Symbol::name("Sold")).unwrap());
            let overhead = us_ta as f64 / us_base.max(1) as f64;
            rows.push(Row {
                id: "§4.3",
                what: format!(
                    "pivot {p}×{r}: TA program {us_ta}µs vs baseline {us_base}µs \
                     ({overhead:.1}× overhead)"
                ),
                outcome: verdict(ta.equiv(&base)),
                micros: us_ta,
            });

            // Staged vs fused as whole TA programs over the same database.
            let keys = [Symbol::name("Part")];
            let staged_p = tabular_olap::pivot_program(
                rel.name(),
                Symbol::name("Region"),
                Symbol::name("Sold"),
                &keys,
                Symbol::name("Pivoted"),
            );
            let fused_p = tabular_algebra::plan_with_rules(
                &staged_p,
                None,
                &[tabular_algebra::Rule::FuseRestructure],
            )
            .0;
            let db = tabular_core::Database::from_tables([rel.clone()]);
            let us_staged =
                median_of(&|| timed(|| run_governed_traced(&staged_p, &db, &budget).unwrap()).1);
            let us_fused =
                median_of(&|| timed(|| run_governed_traced(&fused_p, &db, &budget).unwrap()).1);
            let (out_s, stats_s, _) = run_governed_traced(&staged_p, &db, &budget).unwrap();
            let (out_f, stats_f, _) = run_governed_traced(&fused_p, &db, &budget).unwrap();
            let same = out_s.table_str("Pivoted").unwrap() == out_f.table_str("Pivoted").unwrap();
            let speedup = us_staged as f64 / us_fused.max(1) as f64;
            rows.push(Row {
                id: "restructure",
                what: format!(
                    "pivot {p}×{r} staged {us_staged}µs vs fused kernel {us_fused}µs \
                     ({speedup:.1}×, peak {} → {} cells)",
                    stats_s.max_table_cells, stats_f.max_table_cells
                ),
                outcome: verdict(
                    same && stats_f.restructure_fused > 0 && stats_f.restructure_unfused == 0,
                ),
                micros: us_fused,
            });
            if (p, r) == (128, 32) {
                let by = SymbolSet::from_iter([Symbol::name("Region")]);
                let on = SymbolSet::from_iter([Symbol::name("Sold")]);
                summary = Some(RestructureSummary {
                    staged_us: us_staged,
                    fused_us: us_fused,
                    kernel_runs: stats_f.restructure_fused,
                    cells_staged: tabular_algebra::ops::grouped_cells(&rel, &by, &on),
                    cells_fused_peak: stats_f.max_table_cells,
                    overhead_x: overhead,
                });
            }
        }
        restructure = summary.expect("the 128×32 size ran");
    }

    // Contribution (4): GOOD embedded in the tabular model.
    {
        use tabular_good::{
            compile::run_via_ta,
            graph::Graph,
            ops::{GoodOp, GoodProgram},
            pattern::Pattern,
        };
        let mut g = Graph::new();
        let a = g.add_node(Symbol::name("Person"));
        let b = g.add_node(Symbol::name("Person"));
        let c = g.add_node(Symbol::name("Person"));
        g.add_edge(a, Symbol::name("parent"), b);
        g.add_edge(b, Symbol::name("parent"), c);
        let program = GoodProgram::new().op(GoodOp::EdgeAddition {
            pattern: Pattern::new()
                .node(0, "Person")
                .node(1, "Person")
                .node(2, "Person")
                .edge(0, "parent", 1)
                .edge(1, "parent", 2),
            label: Symbol::name("grandparent"),
            from: 0,
            to: 2,
        });
        let (ok, us) = timed(|| {
            let native = program.run(&g, 100).unwrap();
            let via_ta = run_via_ta(&program, &g, &budget).unwrap();
            native.equiv(&via_ta)
        });
        rows.push(Row {
            id: "Contrib.4",
            what: "GOOD grandparent derivation: native = TA-compiled (isomorphic)".into(),
            outcome: verdict(ok),
            micros: us,
        });
    }

    // Where does the TA pivot's time go? The interpreter's statistics
    // decompose the 128×32 run per operation.
    {
        let rel = fixtures::make_sales_relation(64, 16);
        let keys = [Symbol::name("Part")];
        let program = tabular_olap::pivot_program(
            rel.name(),
            Symbol::name("Region"),
            Symbol::name("Sold"),
            &keys,
            Symbol::name("Pivoted"),
        );
        let db = tabular_core::Database::from_tables([rel]);
        let (_, stats, _) = tabular_algebra::run_governed_traced(&program, &db, &budget).unwrap();
        let hottest = stats.hottest();
        let breakdown: Vec<String> = hottest
            .iter()
            .map(|(op, us, _)| format!("{op} {us}µs"))
            .collect();
        rows.push(Row {
            id: "§4.3",
            what: format!(
                "pivot 64×16 op breakdown: {} (peak table {} cells)",
                breakdown.join(", "),
                stats.max_table_cells
            ),
            outcome: verdict(!hottest.is_empty()),
            micros: hottest.iter().map(|(_, us, _)| us).sum(),
        });
    }

    // ------------------------------------------------------------------
    // Partition-parallel join: a 1M-row probe against a 10k-row build
    // through the fused hash kernel, serial vs hash-partitioned across
    // 8 shards. Output is byte-identical by construction; the pinned
    // claim is the speedup. Per-shard busy time is measured inside each
    // job, so running the 8 shards on a deliberately 1-thread pool
    // serializes them and isolates the serial prelude (index build +
    // exact resize + charges) as `wall − Σ busy`; the 8-core projection
    // is then `prelude + max(shard busy)`.
    // ------------------------------------------------------------------
    let partition: PartitionSummary;
    {
        use tabular_algebra::ops::{self as aops, JoinCols};
        use tabular_algebra::pool::ShardPool;

        const PROBE_ROWS: usize = 1_000_000;
        const BUILD_ROWS: usize = 10_000;
        const SHARDS: usize = 8;

        let keys: Vec<Symbol> = (0..BUILD_ROWS)
            .map(|j| Symbol::value(&format!("k{j}")))
            .collect();
        let payload = Symbol::value("p");
        let probe_rows: Vec<Vec<Symbol>> = (0..PROBE_ROWS)
            .map(|i| vec![payload, keys[i % BUILD_ROWS]])
            .collect();
        let build_rows: Vec<Vec<Symbol>> = keys.iter().map(|&k| vec![k, payload]).collect();
        let probe = tabular_core::Table::relational_syms(
            Symbol::name("L"),
            &[Symbol::name("A"), Symbol::name("B")],
            &probe_rows,
        );
        let build = tabular_core::Table::relational_syms(
            Symbol::name("R"),
            &[Symbol::name("C"), Symbol::name("D")],
            &build_rows,
        );
        drop((probe_rows, build_rows));
        let cols = JoinCols { left: 2, right: 1 };
        let name = Symbol::name("T");

        // Best-of-3 throughout this section: on a single-vCPU host a
        // descheduled thread inflates any wall-clock sample by tens of
        // milliseconds, so the minimum — not the median — is the sample
        // closest to the true cost.
        let best_of = |f: &dyn Fn() -> u128| (0..3).map(|_| f()).min().unwrap();
        let serial_us = best_of(&|| timed(|| aops::join(&probe, &build, cols, name)).1);
        let serial = aops::join(&probe, &build, cols, name);

        let pool = ShardPool::new(1); // serialize shards to isolate busy times
        let mut runs: Vec<(u128, Vec<aops::PartitionShard>, tabular_core::Table)> = (0..3)
            .map(|_| {
                let ((out, report), wall) = timed(|| {
                    aops::join_partitioned(
                        &probe,
                        &build,
                        cols,
                        name,
                        &pool,
                        SHARDS,
                        &|| Ok(()),
                        &mut |_| Ok(()),
                    )
                    .unwrap()
                });
                (wall, report, out)
            })
            .collect();
        // Keep the run whose projected critical path (prelude + slowest
        // shard) is smallest — one stolen time slice during any single
        // shard's busy window would otherwise dominate the projection.
        let critical = |(wall, report, _): &(u128, Vec<aops::PartitionShard>, _)| {
            let busy_total: u128 = report.iter().map(|p| p.wall_micros).sum();
            let busy_max = report.iter().map(|p| p.wall_micros).max().unwrap_or(0);
            wall.saturating_sub(busy_total) + busy_max
        };
        let best = (0..runs.len()).min_by_key(|&i| critical(&runs[i])).unwrap();
        let (partitioned_wall_us, report, out) = runs.swap_remove(best);

        let shard_busy_us: Vec<u128> = report.iter().map(|p| p.wall_micros).collect();
        let busy_total: u128 = shard_busy_us.iter().sum();
        let busy_max: u128 = shard_busy_us.iter().copied().max().unwrap_or(0);
        let prelude_us = partitioned_wall_us.saturating_sub(busy_total);
        let critical_path_us = (prelude_us + busy_max).max(1);
        let speedup_8core = serial_us as f64 / critical_path_us as f64;
        let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

        let same = out == serial;
        rows.push(Row {
            id: "partition",
            what: format!(
                "join 1M×10k, 8 shards: serial {serial_us}µs, critical path \
                 {critical_path_us}µs (prelude {prelude_us}µs + max shard {busy_max}µs) \
                 → {speedup_8core:.1}× on 8 cores"
            ),
            outcome: verdict(same && speedup_8core >= 3.0),
            micros: critical_path_us,
        });
        partition = PartitionSummary {
            probe_rows: PROBE_ROWS,
            build_rows: BUILD_ROWS,
            out_rows: out.height(),
            shards: report.len(),
            host_cores,
            serial_us,
            partitioned_wall_us,
            shard_busy_us,
            prelude_us,
            critical_path_us,
            speedup_8core,
        };
    }

    // ------------------------------------------------------------------
    // Cost-based planner: join ordering on a pessimal 3-way chain. The
    // source program materializes the 400×400 product first; the planner
    // joins the 1-row table to M first and fuses the terminal selection
    // into a hash join, never building the quadratic intermediate.
    // ------------------------------------------------------------------
    let plan_bench: PlanSummary;
    {
        use tabular_algebra::{Assignment, OpKind, Param, Program, Statement};

        const SIDE: usize = 400;
        let rel2 = |name: &str, a0: &str, a1: &str, rows: Vec<[String; 2]>| {
            let syms: Vec<Vec<Symbol>> = rows
                .iter()
                .map(|r| vec![Symbol::value(&r[0]), Symbol::value(&r[1])])
                .collect();
            tabular_core::Table::relational_syms(
                Symbol::name(name),
                &[Symbol::name(a0), Symbol::name(a1)],
                &syms,
            )
        };
        let db = tabular_core::Database::from_tables([
            rel2(
                "L",
                "A",
                "X",
                (0..SIDE)
                    .map(|i| [format!("v{i}"), format!("x{i}")])
                    .collect(),
            ),
            rel2(
                "M",
                "B",
                "Y",
                (SIDE / 2..SIDE / 2 + SIDE)
                    .map(|i| [format!("v{i}"), format!("y{i}")])
                    .collect(),
            ),
            tabular_core::Table::relational("N", &["C"], &[&["n"]]),
        ]);
        let s1 = Param::sym(Symbol::name("\u{1F}bp0a"));
        let s2 = Param::sym(Symbol::name("\u{1F}bp0b"));
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

        // Best-of-3 for the same reason as the partition section: the
        // minimum is the sample closest to true cost under vCPU steal.
        let best_of = |f: &dyn Fn() -> u128| (0..3).map(|_| f()).min().unwrap();
        let unplanned_us =
            best_of(&|| timed(|| run_governed_traced(&program, &db, &budget).unwrap()).1);
        let planned_us =
            best_of(&|| timed(|| run_planned_governed_traced(&program, &db, &budget).unwrap()).1);

        let spans = Budget::from_limits(&EvalLimits {
            trace: TraceLevel::Spans,
            ..EvalLimits::default()
        });
        let (out_u, _, trace_u) = run_governed_traced(&program, &db, &spans).unwrap();
        let (out_p, stats_p, trace_p, _) =
            run_planned_governed_traced(&program, &db, &spans).unwrap();
        let product_cells = |trace: &tabular_algebra::Trace| -> usize {
            trace
                .spans()
                .filter(|s| s.op == "PRODUCT")
                .map(|s| s.output_cells)
                .sum()
        };
        let unplanned_product_cells = product_cells(&trace_u);
        let planned_product_cells = product_cells(&trace_p);
        let out = out_p.table_str("Out").unwrap();
        let same = out.equiv(out_u.table_str("Out").unwrap());
        let speedup = unplanned_us as f64 / planned_us.max(1) as f64;
        rows.push(Row {
            id: "plan",
            what: format!(
                "3-way join order {SIDE}×{SIDE}×1: unplanned {unplanned_us}µs \
                 ({unplanned_product_cells} product cells), planned {planned_us}µs \
                 ({planned_product_cells} cells) → {speedup:.1}×"
            ),
            outcome: verdict(
                same && speedup >= 2.0
                    && stats_p.plan_rules_applied >= 1
                    && planned_product_cells < unplanned_product_cells,
            ),
            micros: planned_us,
        });
        plan_bench = PlanSummary {
            left_rows: SIDE,
            right_rows: SIDE,
            tiny_rows: 1,
            out_rows: out.height(),
            unplanned_us,
            planned_us,
            speedup,
            rules_applied: stats_p.plan_rules_applied,
            statements_rewritten: stats_p.plans_rewritten,
            unplanned_product_cells,
            planned_product_cells,
        };
    }

    // Sanity footer: the set-new blow-up measured once (guarded).
    {
        let t = tabular_core::Table::relational("R", &["A"], &[&["1"], &["2"], &["3"], &["4"]]);
        let (out, us) = timed(|| {
            tabular_algebra::ops::set_new(&t, Symbol::name("S"), Symbol::name("T"), 1 << 20)
                .unwrap()
        });
        rows.push(Row {
            id: "§3.5",
            what: format!("set-new on 4 rows: {} rows (m·2^(m−1))", out.height()),
            outcome: verdict(out.height() == 32),
            micros: us,
        });
    }

    // ------------------------------------------------------------------
    // Print
    // ------------------------------------------------------------------
    println!(
        "{:<11} {:<72} {:<9} {:>10}",
        "experiment", "construction", "outcome", "time (µs)"
    );
    println!("{}", "-".repeat(106));
    for row in &rows {
        println!(
            "{:<11} {:<72} {:<9} {:>10}",
            row.id, row.what, row.outcome, row.micros
        );
    }
    let failed = rows.iter().filter(|r| r.outcome != "verified").count();
    println!("{}", "-".repeat(106));
    println!(
        "{} experiments, {} verified, {} failed",
        rows.len(),
        rows.len() - failed,
        failed
    );
    // Machine-readable artifact: every row plus the join-fusion summary.
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"id\": {}, \"what\": {}, \"outcome\": {}, \"micros\": {}}}",
                json_str(r.id),
                json_str(&r.what),
                json_str(&r.outcome),
                r.micros
            )
        })
        .collect();
    let speedup = fusion.unfused_us as f64 / fusion.fused_us.max(1) as f64;
    let restructure_speedup = restructure.staged_us as f64 / restructure.fused_us.max(1) as f64;
    let json = format!(
        "{{\n  \"bench\": \"tc_chain_24\",\n  \"fusion\": {{\"unfused_us\": {}, \
         \"fused_us\": {}, \"speedup\": {:.2}, \"kernel_runs\": {}, \
         \"product_cells_staged\": {}, \"join_cells_out\": {}, \"cells_avoided\": {}}},\n  \
         \"restructure\": {{\"bench\": \"pivot_128x32\", \"staged_us\": {}, \
         \"fused_us\": {}, \"speedup\": {:.2}, \"kernel_runs\": {}, \
         \"cells_staged\": {}, \"cells_fused_peak\": {}, \"cells_avoided\": {}, \
         \"pivot_overhead_vs_baseline\": {:.2}}},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        fusion.unfused_us,
        fusion.fused_us,
        speedup,
        fusion.kernel_runs,
        fusion.product_cells,
        fusion.join_cells,
        fusion.product_cells.saturating_sub(fusion.join_cells),
        restructure.staged_us,
        restructure.fused_us,
        restructure_speedup,
        restructure.kernel_runs,
        restructure.cells_staged,
        restructure.cells_fused_peak,
        restructure
            .cells_staged
            .saturating_sub(restructure.cells_fused_peak),
        restructure.overhead_x,
        json_rows.join(",\n")
    );
    if let Err(e) = std::fs::write("BENCH_6.json", &json) {
        eprintln!("could not write BENCH_6.json: {e}");
    } else {
        println!(
            "wrote BENCH_6.json (join {speedup:.1}×, restructure {restructure_speedup:.1}× \
             fused speedup, pivot 128×32 at {:.1}× of baseline)",
            restructure.overhead_x
        );
    }
    // Partition-parallel join artifact: its own file so the claim (and
    // the measurement method) stay pinned independently of BENCH_6.
    let shard_json: Vec<String> = partition
        .shard_busy_us
        .iter()
        .map(u128::to_string)
        .collect();
    let json7 = format!(
        "{{\n  \"bench\": \"partitioned_join_1m_x_10k\",\n  \
         \"probe_rows\": {},\n  \"build_rows\": {},\n  \"out_rows\": {},\n  \
         \"shards\": {},\n  \"host_cores\": {},\n  \
         \"serial_us\": {},\n  \"partitioned_wall_1thread_us\": {},\n  \
         \"shard_busy_us\": [{}],\n  \"prelude_us\": {},\n  \
         \"critical_path_us\": {},\n  \"speedup_8core\": {:.2},\n  \
         \"method\": \"per-shard busy times measured inside jobs on a \
         1-thread pool (shards serialized); prelude = wall - sum(busy) = \
         index build + exact reserve + charges; 8-core projection = \
         prelude + max(shard busy); best-of-3 runs to filter vCPU steal; \
         output asserted byte-identical to the serial kernel\"\n}}\n",
        partition.probe_rows,
        partition.build_rows,
        partition.out_rows,
        partition.shards,
        partition.host_cores,
        partition.serial_us,
        partition.partitioned_wall_us,
        shard_json.join(", "),
        partition.prelude_us,
        partition.critical_path_us,
        partition.speedup_8core,
    );
    if let Err(e) = std::fs::write("BENCH_7.json", &json7) {
        eprintln!("could not write BENCH_7.json: {e}");
    } else {
        println!(
            "wrote BENCH_7.json (partitioned join {:.1}× projected on 8 cores, \
             prelude {}µs, critical path {}µs)",
            partition.speedup_8core, partition.prelude_us, partition.critical_path_us
        );
    }
    // Cost-based planner artifact: pins the join-ordering claim (and the
    // measurement method) independently of the other bench files.
    let json8 = format!(
        "{{\n  \"bench\": \"plan_join_order_3way\",\n  \
         \"left_rows\": {},\n  \"right_rows\": {},\n  \"tiny_rows\": {},\n  \
         \"out_rows\": {},\n  \
         \"unplanned_us\": {},\n  \"planned_us\": {},\n  \"speedup\": {:.2},\n  \
         \"plan_rules_applied\": {},\n  \"statements_rewritten\": {},\n  \
         \"unplanned_product_cells\": {},\n  \"planned_product_cells\": {},\n  \
         \"cells_avoided\": {},\n  \
         \"method\": \"pessimal source order PRODUCT(L,M) then PRODUCT(.,N) then \
         SELECT[A=B]; planned side is the full run_planned_governed_traced entry point \
         (statistics + rewrites + lowering + evaluation); best-of-3 wall times \
         to filter vCPU steal; outputs asserted equivalent; product cells from \
         span traces\"\n}}\n",
        plan_bench.left_rows,
        plan_bench.right_rows,
        plan_bench.tiny_rows,
        plan_bench.out_rows,
        plan_bench.unplanned_us,
        plan_bench.planned_us,
        plan_bench.speedup,
        plan_bench.rules_applied,
        plan_bench.statements_rewritten,
        plan_bench.unplanned_product_cells,
        plan_bench.planned_product_cells,
        plan_bench
            .unplanned_product_cells
            .saturating_sub(plan_bench.planned_product_cells),
    );
    if let Err(e) = std::fs::write("BENCH_8.json", &json8) {
        eprintln!("could not write BENCH_8.json: {e}");
    } else {
        println!(
            "wrote BENCH_8.json (planner {:.1}× on the 3-way chain, {} product \
             cells avoided, {} rule applications)",
            plan_bench.speedup,
            plan_bench
                .unplanned_product_cells
                .saturating_sub(plan_bench.planned_product_cells),
            plan_bench.rules_applied
        );
    }
    assert_eq!(failed, 0, "experiment regressions");
    let _ = SymbolSet::new(); // keep the prelude import exercised
}

fn verdict(ok: bool) -> String {
    if ok { "verified" } else { "FAILED" }.to_string()
}

/// Minimal JSON string quoting (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
