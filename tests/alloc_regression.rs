//! Allocation regression for the structurally shared storage engine.
//!
//! Snapshots are the engine's whole reason to exist: the evaluator takes
//! one per run and the delta `while` strategy leans on handle sharing
//! every iteration, so a regression that silently reintroduces deep
//! copies would erase the engine's advantage without failing any
//! functional test. Two guards here:
//!
//! 1. A counting `#[global_allocator]` proves `Database::snapshot` hits
//!    the allocator **zero** times, no matter how large the database.
//! 2. The process-wide copy-on-write counter
//!    (`tabular_core::stats::cow_copies`) proves a delta `while` run
//!    whose body statements stop writing never materializes a cell
//!    buffer: snapshots stay handle-only when nobody writes.
//!
//! This file deliberately holds a single `#[test]`: both guards read
//! process-global counters, and a sibling test running on another thread
//! would perturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use tables_paradigm::core::stats;
use tables_paradigm::prelude::*;

/// Counts allocator hits (and bytes requested) while armed; delegates to
/// the system allocator.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A database big enough that any deep copy would be unmissable: 32
/// tables of 200×4 cells each.
fn big_database() -> Database {
    Database::from_tables((0..32).map(|t| {
        let rows: Vec<Vec<String>> = (0..200)
            .map(|i| (0..4).map(|j| format!("v{t}_{i}_{j}")).collect())
            .collect();
        let rows: Vec<Vec<&str>> = rows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let rows: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
        let table = Table::relational(&format!("T{t}"), &["A", "B", "C", "D"], &rows);
        table.fingerprint(); // warm the cache so snapshots share it
        table
    }))
}

#[test]
fn snapshots_allocate_nothing_and_copy_no_cell_buffers() {
    // ------------------------------------------------------------------
    // Guard 1: snapshots never touch the allocator.
    // ------------------------------------------------------------------
    let db = big_database();
    const SNAPSHOTS: usize = 256;
    let mut snaps: Vec<Database> = Vec::with_capacity(SNAPSHOTS);

    let snap_base = stats::snapshots();
    let cow_base = stats::cow_copies();
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..SNAPSHOTS {
        snaps.push(db.snapshot());
    }
    ARMED.store(false, Ordering::SeqCst);

    assert_eq!(
        ALLOCS.load(Ordering::SeqCst),
        0,
        "Database::snapshot must be allocation-free"
    );
    assert_eq!(stats::snapshots() - snap_base, SNAPSHOTS as u64);
    assert_eq!(
        stats::cow_copies(),
        cow_base,
        "snapshots must not materialize cell buffers"
    );
    for snap in &snaps {
        assert!(snap.tables()[0].shares_cells_with(&db.tables()[0]));
    }
    drop(snaps);

    // ------------------------------------------------------------------
    // Guard 2: a `while` body that never writes copies no cell buffers,
    // however many iterations the loop spins. `T` is pre-seeded with
    // exactly what the body recomputes, so from iteration 2 on the delta
    // strategy skips the statement outright and the loop diverges into
    // the iteration limit — 50 iterations of snapshot-backed reads with
    // zero copy-on-write materializations.
    // ------------------------------------------------------------------
    let r = Table::relational("R", &["A", "B"], &[&["1", "x"], &["2", "y"]]);
    let s = Table::relational("S", &["C"], &[&["1"]]);
    let seeded_t = Table::relational("T", &["A", "B", "C"], &[&["1", "x", "1"], &["2", "y", "1"]]);
    let program = parse("while W do T <- PRODUCT(R, S) end").unwrap();
    let input = Database::from_tables([
        r.clone(),
        s.clone(),
        seeded_t,
        Table::relational("W", &["K"], &[&["go"]]),
    ]);
    let limits = EvalLimits {
        while_strategy: WhileStrategy::Delta,
        max_while_iters: 50,
        ..EvalLimits::default()
    };
    let cow_before = stats::cow_copies();
    let err = run_governed_traced(&program, &input, &Budget::from_limits(&limits)).unwrap_err();
    assert!(
        err.to_string().contains("while"),
        "the non-writing loop diverges into the iteration limit, got: {err}"
    );
    assert_eq!(
        stats::cow_copies(),
        cow_before,
        "a non-writing while body must not trigger copy-on-write"
    );

    // ------------------------------------------------------------------
    // Guard 3: the same holds for a terminating run with observable
    // skips — every operation in this body builds its output buffer
    // fresh, so the whole run (snapshots, delta skips, commits) performs
    // zero copy-on-write materializations.
    // ------------------------------------------------------------------
    let program = parse(
        "while W do
           T <- PRODUCT(R, S)
           W <- DIFFERENCE(W2, X)
           W2 <- DIFFERENCE(W3, X)
           W3 <- DIFFERENCE(W3, W3)
         end",
    )
    .unwrap();
    let input = Database::from_tables([
        r,
        s,
        Table::relational("X", &["K"], &[&["other"]]),
        Table::relational("W", &["K"], &[&["go"]]),
        Table::relational("W2", &["K"], &[&["go"]]),
        Table::relational("W3", &["K"], &[&["go"]]),
    ]);
    let limits = EvalLimits {
        while_strategy: WhileStrategy::Delta,
        ..EvalLimits::default()
    };
    let (out, run_stats, _) =
        run_governed_traced(&program, &input, &Budget::from_limits(&limits)).unwrap();

    assert!(run_stats.snapshots >= 1, "the run snapshots its input");
    assert!(
        run_stats.while_delta_skipped > 0,
        "quiet body statements are delta-skipped"
    );
    assert_eq!(
        run_stats.cow_copies, 0,
        "fresh-building operations never trigger copy-on-write"
    );
    // The run left the caller's database untouched.
    assert_eq!(input.table_str("W").unwrap().height(), 1);
    assert_eq!(out.table_str("W").unwrap().height(), 0);

    // ------------------------------------------------------------------
    // Guard 4: a PRODUCT whose output would blow the cell limit by
    // ~1000× fails on the *pre-size estimate* — before the output buffer
    // reaches the allocator. Two 1000-row operands make a 1,000,001 ×
    // 5-cell product (≈5M cells ≥ 40 MB of symbols) against a 5,000-cell
    // limit; the bytes allocated while armed must stay orders of
    // magnitude below that buffer.
    // ------------------------------------------------------------------
    let rows: Vec<Vec<String>> = (0..1000)
        .map(|i| vec![format!("a{i}"), format!("b{i}")])
        .collect();
    let rows: Vec<Vec<&str>> = rows
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    let rows: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
    let big_l = Table::relational("L", &["A", "B"], &rows);
    let big_r = Table::relational("R", &["C", "D"], &rows);
    let input = Database::from_tables([big_l, big_r]);
    let program = parse("P <- PRODUCT(L, R)").unwrap();
    let limits = EvalLimits {
        max_cells: 5_000,
        ..EvalLimits::default()
    };

    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let err = run_governed_traced(&program, &input, &Budget::from_limits(&limits)).unwrap_err();
    ARMED.store(false, Ordering::SeqCst);

    let msg = err.to_string();
    assert!(
        msg.contains("cells per table"),
        "oversized product must trip the cell limit, got: {msg}"
    );
    let bytes = BYTES.load(Ordering::SeqCst);
    assert!(
        bytes < 1 << 20,
        "the rejected product buffer must never reach the allocator \
         (allocated {bytes} bytes while armed)"
    );

    // ------------------------------------------------------------------
    // Guard 5: the fused join never materializes the intermediate
    // product. The same two 1000-row operands joined on a key pair
    // produce 1000 matching rows; unfused, SELECT-over-PRODUCT would
    // stage a 1,000,000-row, ≈40 MB intermediate. Peak allocation while
    // armed must stay O(|R| + |S| + |output|) — under 1 MB — and the
    // run must *succeed* under the default cell limit the staged
    // product would obliterate.
    // ------------------------------------------------------------------
    let key_rows: Vec<Vec<String>> = (0..1000)
        .map(|i| vec![format!("a{i}"), format!("k{i}")])
        .collect();
    let key_rows: Vec<Vec<&str>> = key_rows
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    let key_rows: Vec<&[&str]> = key_rows.iter().map(Vec::as_slice).collect();
    let join_l = Table::relational("L", &["A", "B"], &key_rows);
    let join_r = Table::relational("R", &["C", "D"], &key_rows);
    let input = Database::from_tables([join_l, join_r]);
    let program = parse("T <- FUSEDJOIN[B = D](L, R)").unwrap();
    let limits = EvalLimits::default();

    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = run_governed_traced(&program, &input, &Budget::from_limits(&limits))
        .unwrap()
        .0;
    ARMED.store(false, Ordering::SeqCst);

    assert_eq!(
        out.table_str("T").unwrap().height(),
        1000,
        "the key columns pair up one-to-one"
    );
    let bytes = BYTES.load(Ordering::SeqCst);
    assert!(
        bytes < 1 << 20,
        "fused join peak allocation must be O(|R| + |S| + |output|), \
         not O(|R|·|S|) (allocated {bytes} bytes while armed)"
    );

    // ------------------------------------------------------------------
    // Guard 6: renaming an attribute that does not occur, under the
    // table's own name, is a pure handle clone — zero allocations and
    // zero copy-on-write materializations.
    // ------------------------------------------------------------------
    let q = Table::relational("Q", &["A", "B"], &[&["1", "x"], &["2", "y"]]);
    let (absent, to, q_name) = (Symbol::name("Z"), Symbol::name("Z2"), q.name());
    let cow_before = stats::cow_copies();
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let renamed = tables_paradigm::algebra::ops::rename(&q, absent, to, q_name);
    ARMED.store(false, Ordering::SeqCst);
    assert_eq!(
        ALLOCS.load(Ordering::SeqCst),
        0,
        "renaming an absent attribute in place must be allocation-free"
    );
    assert_eq!(
        stats::cow_copies(),
        cow_before,
        "renaming an absent attribute in place must not copy the cell buffer"
    );
    assert!(renamed.shares_cells_with(&q));

    // ------------------------------------------------------------------
    // Guard 7: the fused restructuring kernel never materializes the
    // grouped intermediate. Pivoting a 128×32 fact table stages a
    // ≈9.4M-cell grouped table (≥75 MB of symbols) through GROUP →
    // CLEAN-UP → PURGE; the fused kernel goes straight to the ≈4.4K-cell
    // cross-tab, so its allocation while armed must stay a small
    // constant multiple of the output. The staged program's allocation
    // is measured alongside for contrast: the gap *is* the intermediate.
    // ------------------------------------------------------------------
    let rel = fixtures::make_sales_relation(128, 32);
    let (col, val) = (Symbol::name("Region"), Symbol::name("Sold"));

    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let fused_out = pivot(&rel, col, val, &Budget::default()).unwrap();
    ARMED.store(false, Ordering::SeqCst);
    let fused_bytes = BYTES.load(Ordering::SeqCst);

    assert_eq!(fused_out.height(), 129, "one cross-tab row per part");
    assert_eq!(fused_out.width(), 33, "one cross-tab column per region");
    assert!(
        fused_bytes < 4 << 20,
        "fused pivot allocation must be O(|input| + |output|), not \
         O(|grouped intermediate|) (allocated {fused_bytes} bytes while armed)"
    );

    let target = Symbol::fresh_name();
    let staged_program = tables_paradigm::olap::pivot::pivot_program(
        rel.name(),
        col,
        val,
        &[Symbol::name("Part")],
        target,
    );
    let staged_input = Database::from_tables([rel]);
    let staged_limits = EvalLimits {
        max_cells: usize::MAX,
        ..EvalLimits::default()
    };

    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let staged_out = run_governed_traced(
        &staged_program,
        &staged_input,
        &Budget::from_limits(&staged_limits),
    )
    .unwrap()
    .0;
    ARMED.store(false, Ordering::SeqCst);
    let staged_bytes = BYTES.load(Ordering::SeqCst);

    assert!(
        staged_out.table(target).unwrap().equiv(&fused_out),
        "staged and fused pivots agree on the cross-tab"
    );
    assert!(
        staged_bytes > 16 * fused_bytes,
        "the staged pipeline materializes the grouped intermediate the \
         kernel avoids (staged {staged_bytes} vs fused {fused_bytes} bytes)"
    );

    // ------------------------------------------------------------------
    // Guard 8: partitioning a join must not raise peak allocation. The
    // serial kernel grows its output geometrically row by row (the
    // counting allocator sees every realloc growth delta, which sum to
    // roughly the final capacity); the partitioned kernel pre-counts
    // matches per shard and reserves the extension exactly once before
    // scattering, so with the pool spawned *before* arming, its armed
    // byte count must come in at or below the serial run's.
    // ------------------------------------------------------------------
    use tables_paradigm::algebra::ops;
    use tables_paradigm::algebra::pool::ShardPool;

    let probe_rows: Vec<Vec<String>> = (0..60_000)
        .map(|i| vec![format!("p{i}"), format!("k{}", i % 1000)])
        .collect();
    let probe_rows: Vec<Vec<&str>> = probe_rows
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    let probe_rows: Vec<&[&str]> = probe_rows.iter().map(Vec::as_slice).collect();
    let probe = Table::relational("L", &["A", "B"], &probe_rows);
    let build_rows: Vec<Vec<String>> = (0..1000)
        .map(|j| vec![format!("k{j}"), format!("s{j}")])
        .collect();
    let build_rows: Vec<Vec<&str>> = build_rows
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    let build_rows: Vec<&[&str]> = build_rows.iter().map(Vec::as_slice).collect();
    let build = Table::relational("R", &["C", "D"], &build_rows);
    let cols = ops::JoinCols { left: 2, right: 1 };
    let pool = ShardPool::new(4); // threads up and idle before arming

    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let serial = ops::join(&probe, &build, cols, Symbol::name("T"));
    ARMED.store(false, Ordering::SeqCst);
    let serial_bytes = BYTES.load(Ordering::SeqCst);

    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let (partitioned, _report) = ops::join_partitioned(
        &probe,
        &build,
        cols,
        Symbol::name("T"),
        &pool,
        4,
        &|| Ok(()),
        &mut |_| Ok(()),
    )
    .unwrap();
    ARMED.store(false, Ordering::SeqCst);
    let partitioned_bytes = BYTES.load(Ordering::SeqCst);

    assert_eq!(partitioned, serial, "partitioned join output must match");
    assert!(
        partitioned_bytes <= serial_bytes,
        "partitioning must not raise peak allocation: the exact pre-sized \
         resize should undercut serial geometric growth (partitioned \
         {partitioned_bytes} vs serial {serial_bytes} bytes)"
    );
}
