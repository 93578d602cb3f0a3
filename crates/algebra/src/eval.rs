//! The tabular algebra interpreter (paper §3.6).
//!
//! Statements execute consecutively against the database. An assignment
//! statement runs its operation once for every combination of tables whose
//! names match its argument parameters (all tables for unary operations,
//! all ordered pairs for binary ones, the whole name-group at once for
//! `COLLAPSE`); the results, named by the target parameter, then *replace*
//! the tables previously carrying those names. The replace semantics is
//! the standard assignment reading and is what makes `while R ≠ ∅` able to
//! terminate; the paper's remark that the database "is augmented during
//! the computation" refers to the set of *names* growing as scratch tables
//! are produced.
//!
//! [`EvalLimits`] bounds `while` iterations and `set-new` materialization,
//! so programs fail cleanly instead of diverging; the limits are
//! engineering guards, not semantics (DESIGN.md §4).

use crate::error::{AlgebraError, Result};
use crate::governor::{Budget, Governor, PartialRun};
use crate::obs::metrics::Metrics;
use crate::obs::trace::{DeltaDecision, SpanKind, Trace, TraceLevel};
use crate::ops;
use crate::param::{denote_set, denote_single, denote_target, match_name, Bindings};
use crate::pool::LazyPool;
use crate::program::{Assignment, OpKind, Program, Statement};
use std::collections::BTreeMap;
use std::time::Instant;
use tabular_core::{Database, Symbol, SymbolSet, Table};

/// How `while` loops are evaluated (DESIGN.md, "Delta-driven `while`
/// evaluation").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WhileStrategy {
    /// Re-run every body statement on every iteration — the paper's
    /// operational reading, taken literally.
    Naive,
    /// Track which table names changed between iterations and skip body
    /// statements whose inputs (and own output) are untouched since their
    /// last execution; recompute append-grown products, selections, and
    /// projections incrementally. Falls back to [`WhileStrategy::Naive`]
    /// per loop when the body is not provably delta-safe (see
    /// `delta::body_is_delta_safe`). Results are identical to naive
    /// evaluation: skipping is exact, not merely fixpoint-safe.
    #[default]
    Delta,
}

/// Resource bounds for program evaluation.
#[derive(Clone, Copy, Debug)]
pub struct EvalLimits {
    /// Maximum iterations of any single `while` loop.
    pub max_while_iters: usize,
    /// Maximum rows `set-new` may materialize.
    pub max_setnew_rows: usize,
    /// Maximum number of tables in the database.
    pub max_tables: usize,
    /// Maximum cells in any produced table.
    pub max_cells: usize,
    /// Evaluate a statement's per-table applications on multiple threads
    /// once at least this many tables match (`matches >= threshold`,
    /// inclusive — pinned by a boundary test; thresholds below 2 are
    /// clamped to 2, since a single matching table leaves nothing to fan
    /// out). `usize::MAX` disables parallelism. Operations are pure, so
    /// the only visible difference is the choice of fresh tag values —
    /// determinacy up to isomorphism, as in §4.1 condition (iv).
    pub parallel_threshold: usize,
    /// Partition a `FUSEDJOIN` (or its delta-incremental append) across
    /// the shard pool once the probe side has at least this many rows
    /// (`probe rows >= threshold`, inclusive; a threshold of 0 behaves
    /// as 1, since an empty probe has nothing to partition). The
    /// partitioned kernel is byte-identical to the serial one — pinned
    /// by the `partitioning_on_and_off_agree` oracle — so the gate is
    /// purely a cost choice. `usize::MAX` disables partitioning.
    pub partition_threshold: usize,
    /// Worker threads in the run's shard pool: both the per-statement
    /// table fan-out and partitioned joins draw from this one pool. `0`
    /// (the default) detects `available_parallelism` at first use. Set
    /// it explicitly when multiplexing many governed runs in one
    /// process, so N concurrent runs don't spawn N × core-count
    /// threads.
    pub threads: usize,
    /// `while` loop evaluation strategy.
    pub while_strategy: WhileStrategy,
    /// Observability level: `Off` (no timing), `Counters` (per-op stats,
    /// the default), or `Spans` (stats plus the structured trace
    /// returned by [`run_governed_traced`]).
    pub trace: TraceLevel,
}

impl Default for EvalLimits {
    fn default() -> Self {
        EvalLimits {
            max_while_iters: 10_000,
            max_setnew_rows: 1 << 20,
            max_tables: 100_000,
            max_cells: 1 << 28,
            parallel_threshold: 64,
            partition_threshold: 1 << 16,
            threads: 0,
            while_strategy: WhileStrategy::default(),
            trace: TraceLevel::default(),
        }
    }
}

/// Execution statistics returned by [`run_governed_traced`]: how often each
/// operation ran, the wall time it took, and the shape of what it
/// produced — the observability hook behind the benchmark analyses in
/// EXPERIMENTS.md.
#[derive(Clone, Debug, Default)]
pub struct EvalStats {
    /// Assignment executions per operation keyword (delta-skipped
    /// statements are not executions and are not counted here).
    pub op_counts: BTreeMap<&'static str, usize>,
    /// Wall time per operation keyword, in microseconds. Each statement
    /// is timed exactly once — body statements of a `while` are timed by
    /// the body pass only, never additionally by the enclosing loop — so
    /// the values sum to at most [`EvalStats::total_micros`] (pinned by
    /// a regression test on a 3-deep nested program). Empty at
    /// [`TraceLevel::Off`].
    pub op_micros: BTreeMap<&'static str, u128>,
    /// Wall time of the whole run, in microseconds.
    pub total_micros: u128,
    /// Total `while` loop iterations.
    pub while_iterations: usize,
    /// Tables produced across all statements (before set-dedup). The
    /// delta `while` strategy accounts skipped statements by the shape
    /// of their memoized output — what naive re-execution would have
    /// reproduced — so this figure agrees between
    /// [`WhileStrategy::Naive`] and [`WhileStrategy::Delta`].
    pub tables_produced: usize,
    /// Largest table produced, in cells.
    pub max_table_cells: usize,
    /// Jobs dispatched to the shard pool (statements whose matches
    /// reached [`EvalLimits::parallel_threshold`]).
    pub shard_jobs: usize,
    /// `FUSEDJOIN` evaluations (naive or delta-incremental) that ran the
    /// partition-parallel kernel because the probe side reached
    /// [`EvalLimits::partition_threshold`].
    pub partitioned_joins: usize,
    /// Partitions fanned out across all partitioned joins (each join
    /// contributes its shard count, clamped to its probe rows).
    pub partition_shards: usize,
    /// Body statements skipped by the delta `while` strategy because
    /// neither their inputs nor their own output changed since their last
    /// execution.
    pub while_delta_skipped: usize,
    /// `while` loop executions that requested the delta strategy but fell
    /// back to naive re-evaluation (body not provably delta-safe).
    pub while_fallback_naive: usize,
    /// `FUSEDJOIN` argument pairs evaluated by the hash-join kernel
    /// (naive and delta-incremental executions both count; delta skips do
    /// not, mirroring `op_counts`).
    pub join_fused: usize,
    /// `FUSEDJOIN` argument pairs that failed the fusion applicability
    /// check and ran the unfused product-then-select pipeline.
    pub join_unfused: usize,
    /// `FUSEDRESTRUCTURE` argument tables evaluated by the single-pass
    /// restructuring kernel (naive and delta executions both count; delta
    /// skips do not, mirroring `op_counts`).
    pub restructure_fused: usize,
    /// `FUSEDRESTRUCTURE` argument tables that failed the fusion
    /// applicability check and ran the staged
    /// `GROUP → CLEAN-UP (→ PURGE)` pipeline.
    pub restructure_unfused: usize,
    /// Per-iteration dirty-set sizes (number of names whose contents
    /// changed during the iteration) across all delta-evaluated loops, in
    /// execution order.
    pub delta_dirty_sizes: Vec<usize>,
    /// Database snapshots (O(1) handle clones) taken during the run,
    /// including the run's own initial snapshot of the input. Measured by
    /// differencing the process-wide [`tabular_core::stats`] counters, so
    /// concurrent evaluations in one process may bleed into each other's
    /// figures; exact when the process runs one evaluation at a time.
    pub snapshots: u64,
    /// Table cell buffers materialized by copy-on-write during the run —
    /// mutations of tables whose buffers were shared with a snapshot.
    /// Same measurement caveat as [`EvalStats::snapshots`].
    pub cow_copies: u64,
    /// Statements of the submitted program removed, replaced, or moved by
    /// the cost-based planner before execution (set by
    /// [`run_planned_governed_traced`]; 0 on unplanned runs).
    /// Deterministic in the program and catalog, so Naive and Delta agree.
    pub plans_rewritten: usize,
    /// Planner rule applications recorded while planning the submitted
    /// program ([`crate::plan::PlanReport::rules_applied`]; 0 on
    /// unplanned runs). Deterministic like [`EvalStats::plans_rewritten`].
    pub plan_rules_applied: usize,
}

impl EvalStats {
    /// Operations sorted by descending total time.
    pub fn hottest(&self) -> Vec<(&'static str, u128, usize)> {
        let mut rows: Vec<(&'static str, u128, usize)> = self
            .op_micros
            .iter()
            .map(|(&k, &us)| (k, us, self.op_counts.get(k).copied().unwrap_or(0)))
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows
    }
}

/// Evaluate a program against a database under a [`Budget`]: the static
/// [`EvalLimits`] plus a wall-clock deadline, a cumulative cell budget,
/// and cooperative cancellation. Returns the final database (input tables
/// plus every table produced, with overwritten names replaced), the
/// per-operation statistics, and the structured trace (empty unless
/// `limits.trace` is [`TraceLevel::Spans`]; see [`crate::obs`] for the
/// span schema and [`crate::pretty::render_trace`] for the
/// `EXPLAIN ANALYZE`-style view). On a budget trip the returned
/// [`AlgebraError::BudgetExceeded`] carries the partial stats and trace
/// (see [`crate::governor`]). For an ungoverned run pass
/// [`Budget::from_limits`]; to keep only the named outputs of a
/// transformation (paper §3.6), [`Database::retain`] the result.
pub fn run_governed_traced(
    program: &Program,
    db: &Database,
    budget: &Budget,
) -> Result<(Database, EvalStats, Trace)> {
    let limits = &budget.limits;
    let gov = Governor::new(budget);
    let snapshots_base = tabular_core::stats::snapshots();
    let cow_base = tabular_core::stats::cow_copies();
    let mut state = db.snapshot();
    let mut metrics = Metrics::new(limits.trace);
    let mut pool = LazyPool::new(limits.threads);
    let start = Instant::now();
    let cx = Exec { limits, gov: &gov };
    let outcome = run_statements(&program.statements, &mut state, cx, &mut metrics, &mut pool);
    metrics.stats.total_micros = start.elapsed().as_micros();
    metrics.stats.snapshots = tabular_core::stats::snapshots().saturating_sub(snapshots_base);
    metrics.stats.cow_copies = tabular_core::stats::cow_copies().saturating_sub(cow_base);
    match outcome {
        Ok(()) => {
            let (stats, trace) = metrics.into_parts();
            Ok((state, stats, trace))
        }
        Err(AlgebraError::BudgetExceeded {
            resource,
            spent,
            limit,
            ..
        }) => {
            // Degrade gracefully: drain the spans the trip left open as
            // `aborted` (innermost first — the tripped span leads) and
            // hand the partial stats and trace back on the error.
            metrics.abort_open();
            let (stats, trace) = metrics.into_parts();
            Err(AlgebraError::BudgetExceeded {
                resource,
                spent,
                limit,
                partial: Box::new(PartialRun { stats, trace }),
            })
        }
        Err(err) => Err(err),
    }
}

/// Like [`run_governed_traced`], but the program is first planned against
/// the database with the cost-based planner ([`crate::plan::plan`]).
/// Semantically identical up to fresh-tag renumbering (oracle-checked by
/// `planner_on_and_off_agree`). Also returns the planner's decision
/// report (for EXPLAIN rendering — see [`crate::pretty::render_plan`]).
/// The planner counters are stamped into the statistics on success *and*
/// into the partial statistics carried by a budget trip.
pub fn run_planned_governed_traced(
    program: &Program,
    db: &Database,
    budget: &Budget,
) -> Result<(Database, EvalStats, Trace, crate::plan::PlanReport)> {
    let (planned, report) = crate::plan::plan(program, db);
    let stamp = |stats: &mut EvalStats| {
        stats.plans_rewritten = report.statements_rewritten;
        stats.plan_rules_applied = report.rules_applied();
    };
    let spans = budget.limits.trace == crate::obs::TraceLevel::Spans;
    match run_governed_traced(&planned, db, budget) {
        Ok((state, mut stats, mut trace)) => {
            stamp(&mut stats);
            if spans {
                prepend_plan_spans(&mut trace, &report);
            }
            Ok((state, stats, trace, report))
        }
        Err(AlgebraError::BudgetExceeded {
            resource,
            spent,
            limit,
            mut partial,
        }) => {
            stamp(&mut partial.stats);
            if spans {
                prepend_plan_spans(&mut partial.trace, &report);
            }
            Err(AlgebraError::BudgetExceeded {
                resource,
                spent,
                limit,
                partial,
            })
        }
        Err(err) => Err(err),
    }
}

/// Place one [`crate::obs::SpanKind::Plan`] span per planner decision at
/// the front of the trace, so EXPLAIN trees lead with what the planner
/// rewrote. Ids continue past the evaluation spans' (uniqueness is what
/// the tree builder needs, not ordering).
fn prepend_plan_spans(trace: &mut Trace, report: &crate::plan::PlanReport) {
    use crate::obs::trace::{DeltaDecision, Span, SpanKind};
    let base = trace.spans().map(|s| s.id).max().unwrap_or(0);
    let est = |v: Option<u128>| v.map_or(0, |c| usize::try_from(c).unwrap_or(usize::MAX));
    for (k, d) in report.decisions.iter().enumerate().rev() {
        trace.prepend(Span {
            id: base + 1 + k as u64,
            parent: None,
            kind: SpanKind::Plan,
            op: d.rule.name(),
            matched: 0,
            input_cells: est(d.before_cells),
            output_cells: est(d.after_cells),
            micros: 0,
            cow_copies: 0,
            decision: DeltaDecision::Executed,
            fusion: None,
            shard: None,
            iteration: None,
        });
    }
}

/// The evaluation context threaded through the interpreter: the static
/// limits plus the run's governor. `Copy` so it passes by value through
/// the recursion, and `Send + Sync` (shared references to `Sync` state)
/// so shard-pool jobs can poll the governor mid-fan-out.
#[derive(Clone, Copy)]
pub(crate) struct Exec<'a> {
    pub(crate) limits: &'a EvalLimits,
    pub(crate) gov: &'a Governor,
}

pub(crate) fn run_statements(
    stmts: &[Statement],
    db: &mut Database,
    cx: Exec<'_>,
    metrics: &mut Metrics,
    pool: &mut LazyPool,
) -> Result<()> {
    for stmt in stmts {
        // Statement boundaries are the governor's polling granularity:
        // aborting here leaves a state a statement prefix explains.
        cx.gov.poll()?;
        match stmt {
            Statement::Assign(a) => run_timed_assignment(a, db, cx, metrics, pool)?,
            Statement::While { cond, body } => {
                let name = denote_target(cond, &Bindings::new())
                    .map_err(|_| AlgebraError::BadWhileCondition)?;
                let delta = cx.limits.while_strategy == WhileStrategy::Delta;
                if delta && crate::delta::body_is_delta_safe(body) {
                    crate::delta::run_delta_while(name, body, db, cx, metrics, pool)?;
                    continue;
                }
                let decision = if delta {
                    metrics.stats.while_fallback_naive += 1;
                    DeltaDecision::FallbackNaive
                } else {
                    DeltaDecision::Executed
                };
                let mut iters = 0usize;
                while db.tables_named_iter(name).any(|t| t.height() > 0) {
                    iters += 1;
                    metrics.stats.while_iterations += 1;
                    if iters > cx.limits.max_while_iters {
                        return Err(AlgebraError::LimitExceeded {
                            what: "while iterations",
                            limit: cx.limits.max_while_iters,
                            attempted: iters,
                        });
                    }
                    metrics.begin(SpanKind::WhileIter, "while", Some(iters));
                    // Poll with the iteration span open, so a trip here
                    // is drained as an aborted `while #N` span.
                    cx.gov.poll()?;
                    let start = metrics.timer();
                    let outcome = run_statements(body, db, cx, metrics, pool);
                    if matches!(outcome, Err(AlgebraError::BudgetExceeded { .. })) {
                        // Leave the iteration span open: the abort drain
                        // (`Metrics::abort_open`) marks it `aborted`.
                        return outcome;
                    }
                    metrics.end(Metrics::elapsed(start).unwrap_or(0), decision);
                    outcome?;
                }
            }
        }
    }
    Ok(())
}

/// Execute one assignment with its span and per-op accounting. The
/// single `elapsed` reading here is the *only* place a statement is
/// timed — it feeds both `EvalStats::op_micros` and the statement's
/// span, so the two sinks reconcile exactly and nothing is counted
/// twice.
pub(crate) fn run_timed_assignment(
    a: &Assignment,
    db: &mut Database,
    cx: Exec<'_>,
    metrics: &mut Metrics,
    pool: &mut LazyPool,
) -> Result<()> {
    metrics.begin(SpanKind::Assign, a.op.keyword(), None);
    let start = metrics.timer();
    let outcome = run_assignment(a, db, cx, metrics, pool);
    if matches!(outcome, Err(AlgebraError::BudgetExceeded { .. })) {
        // An interrupted statement is not an execution: leave its span
        // open for the abort drain and record no op count or timing, so
        // partial stats agree across strategies at the trip point.
        return outcome;
    }
    let micros = Metrics::elapsed(start);
    metrics.record_op(a.op.keyword(), micros);
    metrics.end(micros.unwrap_or(0), DeltaDecision::Executed);
    outcome
}

fn run_assignment(
    a: &Assignment,
    db: &mut Database,
    cx: Exec<'_>,
    metrics: &mut Metrics,
    pool: &mut LazyPool,
) -> Result<()> {
    let results = compute_results(a, db, cx, metrics, pool)?;
    check_results(&results, cx, metrics)?;
    replace_results(results, db);
    check_table_count(db, cx.limits)
}

/// Cells of a table under the limit convention of `max_cells`: the data
/// matrix plus its attribute row and column.
pub(crate) fn table_cells(t: &Table) -> usize {
    (t.height() + 1) * (t.width() + 1)
}

/// Restructure-fusion outcomes tallied away from the metrics registry:
/// `apply_unary` runs inside shard-pool jobs without `Metrics` access, so
/// each job accumulates locally and the evaluating thread merges the
/// counts (and notes the span's fusion decision) after the scoped join.
#[derive(Clone, Copy, Default)]
pub(crate) struct FusionCounts {
    pub(crate) restructure_fused: usize,
    pub(crate) restructure_unfused: usize,
}

impl FusionCounts {
    fn absorb(&mut self, other: FusionCounts) {
        self.restructure_fused += other.restructure_fused;
        self.restructure_unfused += other.restructure_unfused;
    }
}

/// Evaluate an assignment against the (pre-statement) database, returning
/// the produced tables without committing them. Annotates the open span
/// (if any) with the matched-combination count and input cells, and
/// records one child span per shard-pool job.
pub(crate) fn compute_results(
    a: &Assignment,
    db: &Database,
    cx: Exec<'_>,
    metrics: &mut Metrics,
    pool: &mut LazyPool,
) -> Result<Vec<Table>> {
    let limits = cx.limits;
    let arity = a.op.arity();
    if a.args.len() != arity {
        return Err(AlgebraError::Arity {
            op: a.op.keyword(),
            expected: arity,
            got: a.args.len(),
        });
    }

    // Collect results over all matching argument combinations, reading the
    // pre-statement state throughout.
    let mut results: Vec<Table> = Vec::new();
    let mut combos = 0usize;
    let mut input_cells = 0usize;
    let mut fusion = FusionCounts::default();

    match &a.op {
        // COLLAPSE consumes every matching table of one name collectively.
        OpKind::Collapse { by } => {
            let mut names_done: SymbolSet = SymbolSet::new();
            for t in db.tables() {
                let Some(bindings) = match_name(&a.args[0], t.name(), &Bindings::new()) else {
                    continue;
                };
                if names_done.contains(t.name()) {
                    continue;
                }
                names_done.insert(t.name());
                let group: Vec<&Table> = db.tables_named_iter(t.name()).collect();
                combos += 1;
                input_cells += group.iter().map(|g| table_cells(g)).sum::<usize>();
                let target = denote_target(&a.target, &bindings)?;
                let by_set = denote_set(by, t, &bindings);
                results.push(ops::collapse(&group, &by_set, target));
            }
        }
        _ if arity == 1 => {
            // Gather the matching tables first so the work can fan out.
            let mut work: Vec<(&Table, Bindings, Symbol)> = Vec::new();
            for t in db.tables() {
                let Some(bindings) = match_name(&a.args[0], t.name(), &Bindings::new()) else {
                    continue;
                };
                let target = denote_target(&a.target, &bindings)?;
                work.push((t, bindings, target));
            }
            combos = work.len();
            input_cells = work.iter().map(|(t, _, _)| table_cells(t)).sum();
            if work.len() >= limits.parallel_threshold.max(2) {
                // Purely functional per-table applications: shard across
                // the run's persistent worker pool, then splice results
                // back in input order. Each job clocks its own wall time
                // into its slot so the evaluating thread can record shard
                // spans without cross-thread metrics.
                let shards = pool.get().threads().min(work.len());
                let chunk = work.len().div_ceil(shards);
                let chunks: Vec<&[(&Table, Bindings, Symbol)]> = work.chunks(chunk).collect();
                // Per-shard result slot: (tables, fusion counters, the
                // job's wall time in microseconds — the unit
                // `Metrics::shard_span` records into the trace).
                type ShardWallMicros = u128;
                type ShardSlot = Option<(Result<Vec<Table>>, FusionCounts, ShardWallMicros)>;
                let mut slots: Vec<ShardSlot> = vec![None; chunks.len()];
                let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
                    .iter()
                    .zip(slots.iter_mut())
                    .map(|(slice, slot)| {
                        let slice = *slice;
                        let op = &a.op;
                        Box::new(move || {
                            let start = Instant::now();
                            let mut local = Vec::new();
                            let mut counts = FusionCounts::default();
                            let out = slice
                                .iter()
                                .try_for_each(|(t, bindings, target)| {
                                    // Poll between tables so a sharded
                                    // statement stops mid-fan-out.
                                    cx.gov.poll()?;
                                    apply_unary(
                                        op,
                                        t,
                                        *target,
                                        bindings,
                                        limits,
                                        &mut local,
                                        &mut counts,
                                    )
                                })
                                .map(|()| local);
                            *slot = Some((out, counts, start.elapsed().as_micros()));
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                pool.get().scoped(jobs);
                metrics.stats.shard_jobs += chunks.len();
                for (shard, (slot, slice)) in slots.into_iter().zip(&chunks).enumerate() {
                    // Every job writes its slot before the scoped join
                    // returns; if one didn't (a pool bug — e.g. a job
                    // lost to a governor trip racing the join), fail the
                    // run, not the process.
                    let Some((out, counts, micros)) = slot else {
                        return Err(AlgebraError::Internal {
                            what: "a shard job finished without reporting a result",
                        });
                    };
                    fusion.absorb(counts);
                    metrics.shard_span(shard, slice.len(), micros);
                    results.extend(out?);
                }
            } else {
                for (t, bindings, target) in &work {
                    cx.gov.poll()?;
                    apply_unary(
                        &a.op,
                        t,
                        *target,
                        bindings,
                        limits,
                        &mut results,
                        &mut fusion,
                    )?;
                }
            }
        }
        _ => {
            for t1 in db.tables() {
                let Some(b1) = match_name(&a.args[0], t1.name(), &Bindings::new()) else {
                    continue;
                };
                for t2 in db.tables() {
                    let Some(b2) = match_name(&a.args[1], t2.name(), &b1) else {
                        continue;
                    };
                    combos += 1;
                    input_cells += table_cells(t1) + table_cells(t2);
                    let target = denote_target(&a.target, &b2)?;
                    if matches!(a.op, OpKind::Product) {
                        presize_product(t1, t2, limits)?;
                    }
                    let out = match &a.op {
                        OpKind::Union => ops::union(t1, t2, target),
                        OpKind::Difference => ops::difference(t1, t2, target),
                        OpKind::Intersect => ops::intersect(t1, t2, target),
                        OpKind::Product => ops::product(t1, t2, target),
                        OpKind::FusedJoin { a: pa, b: pb } => {
                            eval_fused_join(t1, t2, pa, pb, target, &b2, cx, metrics, pool)?
                        }
                        OpKind::ClassicalUnion => ops::classical_union(t1, t2, target),
                        _ => unreachable!("binary dispatch"),
                    };
                    results.push(out);
                }
            }
        }
    }

    if fusion.restructure_fused > 0 {
        metrics.stats.restructure_fused += fusion.restructure_fused;
        metrics.note_fusion("fused-restructure");
    }
    if fusion.restructure_unfused > 0 {
        metrics.stats.restructure_unfused += fusion.restructure_unfused;
        metrics.note_fusion("fallback-unfused");
    }
    metrics.note_matched(combos, input_cells);
    Ok(results)
}

/// Pre-size the only super-linear materializations (`PRODUCT`, and the
/// unfused fallback of `FUSEDJOIN`): a product is exactly one output row
/// per row pair, so its cell count is known before any allocation.
/// Failing here (with the same values the post-materialization check in
/// [`check_results`] would report) keeps a blown `max_cells` from ever
/// reaching the allocator.
fn presize_product(t1: &Table, t2: &Table, limits: &EvalLimits) -> Result<()> {
    let cells = t1
        .height()
        .saturating_mul(t2.height())
        .saturating_add(1)
        .saturating_mul(t1.width() + t2.width() + 1);
    if cells > limits.max_cells {
        return Err(AlgebraError::LimitExceeded {
            what: "cells per table",
            limit: limits.max_cells,
            attempted: cells,
        });
    }
    Ok(())
}

/// Evaluate one `FUSEDJOIN[A=B](R, S)` argument pair. The operation is
/// *defined* as `SELECT[A=B](PRODUCT(R, S))`; when both attributes are
/// rigid symbols resolving to exactly one column on opposite operands
/// ([`ops::fusable_join_cols`]), the hash-join kernel produces the
/// identical table without materializing the product — so the governor's
/// cell charge (in [`check_results`]) reflects the actual join output,
/// not the product pre-size, and only the fallback path needs the
/// [`presize_product`] guard.
#[allow(clippy::too_many_arguments)]
fn eval_fused_join(
    t1: &Table,
    t2: &Table,
    pa: &crate::param::Param,
    pb: &crate::param::Param,
    target: Symbol,
    bindings: &Bindings,
    cx: Exec<'_>,
    metrics: &mut Metrics,
    pool: &mut LazyPool,
) -> Result<Table> {
    let limits = cx.limits;
    if let (Some(a), Some(b)) = (pa.as_ground(), pb.as_ground()) {
        if let Some(cols) = ops::fusable_join_cols(t1, t2, a, b) {
            metrics.stats.join_fused += 1;
            metrics.note_fusion("fused-join");
            if t1.height() >= limits.partition_threshold.max(1) {
                // Partition-parallel kernel: byte-identical output, but
                // the governor is charged per-partition *during* the
                // join (admission before the buffer grows), so record
                // what was already charged and let `check_results`
                // charge only the remainder — cumulative charges stay
                // identical to the serial path.
                let pool = pool.get();
                let gov = cx.gov;
                let mut precharged = 0usize;
                let (out, report) = ops::join_partitioned(
                    t1,
                    t2,
                    cols,
                    target,
                    pool,
                    pool.threads(),
                    &|| gov.poll(),
                    &mut |cells| {
                        gov.charge_cells(cells)?;
                        precharged += cells;
                        Ok(())
                    },
                )?;
                metrics.note_partitioned(&report);
                metrics.precharge(precharged);
                return Ok(out);
            }
            return Ok(ops::join(t1, t2, cols, target));
        }
    }
    metrics.stats.join_unfused += 1;
    metrics.note_fusion("fallback-unfused");
    presize_product(t1, t2, limits)?;
    let prod = ops::product(t1, t2, target);
    let a = denote_single(pa, &prod, bindings, "FUSEDJOIN left")?;
    let b = denote_single(pb, &prod, bindings, "FUSEDJOIN right")?;
    Ok(ops::select(&prod, a, b, target))
}

/// Pre-size the grouped intermediate a `FUSEDRESTRUCTURE` fallback is
/// about to materialize — `GROUP` output is `(m + headers + 1) ×
/// (|𝒞| + m·|ℬ| + 1)` cells, known before any allocation — so a blown
/// `max_cells` fails exactly as the staged `GROUP` statement would,
/// without the buffer ever reaching the allocator.
fn presize_group(
    t: &Table,
    group_by: &SymbolSet,
    group_on: &SymbolSet,
    limits: &EvalLimits,
) -> Result<()> {
    let cells = ops::grouped_cells(t, group_by, group_on);
    if cells > limits.max_cells {
        return Err(AlgebraError::LimitExceeded {
            what: "cells per table",
            limit: limits.max_cells,
            attempted: cells,
        });
    }
    Ok(())
}

/// Evaluate one `FUSEDRESTRUCTURE` argument table. The operation is
/// *defined* as the staged `GROUP → CLEAN-UP (→ PURGE)` pipeline; when
/// the clean-up and purge parameters are rigid (table-independent — the
/// intermediate they would denote against is never built) the single-pass
/// kernel is attempted, and whenever it applies it produces the identical
/// table without the grouped intermediate — so the governor's cell charge
/// (in [`check_results`]) reflects the actual fused output, and only the
/// fallback needs the [`presize_group`] guard.
fn eval_fused_restructure(
    op: &OpKind,
    t: &Table,
    target: Symbol,
    bindings: &Bindings,
    limits: &EvalLimits,
    fusion: &mut FusionCounts,
) -> Result<Table> {
    let OpKind::FusedRestructure(chain) = op else {
        unreachable!("fused-restructure dispatch");
    };
    let crate::program::RestructureChain {
        group_by,
        group_on,
        cleanup_by,
        cleanup_on,
        purge,
    } = chain.as_ref();
    // The GROUP parameters denote against the input either way; rigidity
    // is only required of the stages whose table is never materialized.
    let g_by = denote_set(group_by, t, bindings);
    let g_on = denote_set(group_on, t, bindings);
    let rigid = cleanup_by.is_rigid()
        && cleanup_on.is_rigid()
        && purge
            .as_ref()
            .is_none_or(|(on, by)| on.is_rigid() && by.is_rigid());
    if rigid {
        let spec = ops::RestructureSpec {
            group_by: g_by.clone(),
            group_on: g_on.clone(),
            cleanup_by: cleanup_by.rigid_set(),
            cleanup_on: cleanup_on.rigid_set(),
            purge: purge
                .as_ref()
                .map(|(on, by)| (on.rigid_set(), by.rigid_set())),
        };
        if let Some(out) = ops::fused_restructure(t, &spec, target) {
            fusion.restructure_fused += 1;
            return Ok(out);
        }
    }
    fusion.restructure_unfused += 1;
    presize_group(t, &g_by, &g_on, limits)?;
    let grouped = ops::group(t, &g_by, &g_on, target);
    let c_by = denote_set(cleanup_by, &grouped, bindings);
    let c_on = denote_set(cleanup_on, &grouped, bindings);
    let cleaned = ops::cleanup(&grouped, &c_by, &c_on, target);
    match purge {
        Some((on, by)) => {
            let p_on = denote_set(on, &cleaned, bindings);
            let p_by = denote_set(by, &cleaned, bindings);
            Ok(ops::purge(&cleaned, &p_on, &p_by, target))
        }
        None => Ok(cleaned),
    }
}

/// Record shape statistics for produced tables, enforce the per-table
/// cell limit, and charge the statement's total production against the
/// run cell budget. Charging happens once per statement on the
/// evaluating thread, after the per-table checks, so the cumulative
/// total — and therefore the budget trip point — is deterministic
/// across strategies and shard configurations. Cells a partitioned join
/// already charged mid-statement (its per-partition admission control)
/// are subtracted here, so the statement's cumulative charge is
/// identical with partitioning on or off.
pub(crate) fn check_results(results: &[Table], cx: Exec<'_>, metrics: &mut Metrics) -> Result<()> {
    metrics.stats.tables_produced += results.len();
    let mut total = 0usize;
    for t in results {
        let cells = table_cells(t);
        total += cells;
        metrics.stats.max_table_cells = metrics.stats.max_table_cells.max(cells);
        if cells > cx.limits.max_cells {
            return Err(AlgebraError::LimitExceeded {
                what: "cells per table",
                limit: cx.limits.max_cells,
                attempted: cells,
            });
        }
    }
    let precharged = metrics.take_precharged();
    cx.gov.charge_cells(total.saturating_sub(precharged))?;
    metrics.note_output(total);
    Ok(())
}

/// The [`check_results`] accounting for a result the delta strategy
/// commits in place instead of materializing: one table of `cells` total
/// cells. Charging the full (not delta) size keeps `tables_produced`,
/// `max_table_cells`, and the run cell budget in agreement with naive
/// re-execution.
pub(crate) fn check_virtual_result(
    cells: usize,
    cx: Exec<'_>,
    metrics: &mut Metrics,
) -> Result<()> {
    metrics.stats.tables_produced += 1;
    metrics.stats.max_table_cells = metrics.stats.max_table_cells.max(cells);
    if cells > cx.limits.max_cells {
        return Err(AlgebraError::LimitExceeded {
            what: "cells per table",
            limit: cx.limits.max_cells,
            attempted: cells,
        });
    }
    cx.gov.charge_cells(cells)?;
    metrics.note_output(cells);
    Ok(())
}

/// Replace: drop existing tables carrying any produced name, then insert
/// the results (set semantics collapses exact duplicates).
pub(crate) fn replace_results(results: Vec<Table>, db: &mut Database) {
    let produced: SymbolSet = results.iter().map(|t| t.name()).collect();
    db.retain(|t| !produced.contains(t.name()));
    for t in results {
        db.insert(t);
    }
}

/// Enforce the database-size limit after a replacement.
pub(crate) fn check_table_count(db: &Database, limits: &EvalLimits) -> Result<()> {
    if db.len() > limits.max_tables {
        return Err(AlgebraError::LimitExceeded {
            what: "tables in database",
            limit: limits.max_tables,
            attempted: db.len(),
        });
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn apply_unary(
    op: &OpKind,
    t: &Table,
    target: Symbol,
    bindings: &Bindings,
    limits: &EvalLimits,
    results: &mut Vec<Table>,
    fusion: &mut FusionCounts,
) -> Result<()> {
    match op {
        OpKind::Rename { from, to } => {
            let from = denote_single(from, t, bindings, "RENAME from")?;
            let to = denote_single(to, t, bindings, "RENAME to")?;
            results.push(ops::rename(t, from, to, target));
        }
        OpKind::Project { attrs } => {
            let set = denote_set(attrs, t, bindings);
            results.push(ops::project(t, &set, target));
        }
        OpKind::Select { a, b } => {
            let a = denote_single(a, t, bindings, "SELECT left")?;
            let b = denote_single(b, t, bindings, "SELECT right")?;
            results.push(ops::select(t, a, b, target));
        }
        OpKind::SelectConst { a, v } => {
            let a = denote_single(a, t, bindings, "SELECTCONST attribute")?;
            let v = denote_single(v, t, bindings, "SELECTCONST constant")?;
            results.push(ops::select_const(t, a, v, target));
        }
        OpKind::Group { by, on } => {
            let by = denote_set(by, t, bindings);
            let on = denote_set(on, t, bindings);
            results.push(ops::group(t, &by, &on, target));
        }
        OpKind::Merge { on, by } => {
            let on = denote_set(on, t, bindings);
            let by = denote_set(by, t, bindings);
            results.push(ops::merge(t, &on, &by, target));
        }
        OpKind::Split { on } => {
            let on = denote_set(on, t, bindings);
            results.extend(ops::split(t, &on, target));
        }
        OpKind::Transpose => results.push(ops::transpose(t, target)),
        OpKind::Switch { entry } => {
            let v = denote_single(entry, t, bindings, "SWITCH entry")?;
            results.push(ops::switch(t, v, target));
        }
        OpKind::CleanUp { by, on } => {
            let by = denote_set(by, t, bindings);
            let on = denote_set(on, t, bindings);
            results.push(ops::cleanup(t, &by, &on, target));
        }
        OpKind::Purge { on, by } => {
            let on = denote_set(on, t, bindings);
            let by = denote_set(by, t, bindings);
            results.push(ops::purge(t, &on, &by, target));
        }
        OpKind::TupleNew { attr } => {
            let attr = denote_single(attr, t, bindings, "TUPLENEW attribute")?;
            results.push(ops::tuple_new(t, attr, target));
        }
        OpKind::SetNew { attr } => {
            let attr = denote_single(attr, t, bindings, "SETNEW attribute")?;
            results.push(ops::set_new(t, attr, target, limits.max_setnew_rows)?);
        }
        OpKind::FusedRestructure { .. } => {
            results.push(eval_fused_restructure(
                op, t, target, bindings, limits, fusion,
            )?);
        }
        OpKind::Copy => results.push(ops::copy(t, target)),
        OpKind::Union
        | OpKind::Difference
        | OpKind::Intersect
        | OpKind::Product
        | OpKind::FusedJoin { .. }
        | OpKind::ClassicalUnion
        | OpKind::Collapse { .. } => unreachable!("unary dispatch"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use tabular_core::fixtures;

    fn nm(x: &str) -> Symbol {
        Symbol::name(x)
    }

    fn budget() -> Budget {
        Budget::default()
    }

    #[test]
    fn planned_traced_run_leads_with_plan_spans() {
        use crate::obs::SpanKind;
        // A scratch PRODUCT consumed once by a SELECT: the planner fuses
        // it, and the traced run's span tree starts with the decision.
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
        let limits = EvalLimits {
            trace: TraceLevel::Spans,
            ..EvalLimits::default()
        };
        let (out, stats, trace, _) =
            run_planned_governed_traced(&p, &db, &Budget::from_limits(&limits)).unwrap();
        assert!(out.table_str("Out").is_some());
        assert_eq!(stats.plan_rules_applied, 1);
        assert_eq!(stats.plans_rewritten, 2);
        let first = trace.spans().next().expect("trace nonempty");
        assert_eq!(first.kind, SpanKind::Plan);
        assert_eq!(first.op, "fuse-join");
        assert!(first.input_cells > first.output_cells, "estimates carried");
        // Plan spans are roots and never double-count into the per-op
        // reconciliation, which only sums assignment spans.
        assert_eq!(first.parent, None);
        assert!(!trace.per_op_micros().contains_key("fuse-join"));
        // Ids stay unique across the prepended spans.
        let mut ids: Vec<u64> = trace.spans().map(|sp| sp.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.len());
    }

    #[test]
    fn group_statement_reproduces_figure_4() {
        // Sales ← GROUP by Region on Sold (Sales): self-assignment replaces
        // the Sales table.
        let p = Program::new().assign(
            Param::name("Sales"),
            OpKind::Group {
                by: Param::names(&["Region"]),
                on: Param::names(&["Sold"]),
            },
            vec![Param::name("Sales")],
        );
        let out = run_governed_traced(&p, &fixtures::sales_info1(), &budget())
            .unwrap()
            .0;
        assert_eq!(out.len(), 1);
        assert_eq!(
            out.table_str("Sales").unwrap(),
            &fixtures::figure4_grouped()
        );
    }

    #[test]
    fn split_statement_produces_multiple_tables_one_name() {
        let p = Program::new().assign(
            Param::name("Sales"),
            OpKind::Split {
                on: Param::names(&["Region"]),
            },
            vec![Param::name("Sales")],
        );
        let out = run_governed_traced(&p, &fixtures::sales_info1(), &budget())
            .unwrap()
            .0;
        assert_eq!(out.tables_named(nm("Sales")).len(), 4);
        assert!(out.equiv(&fixtures::sales_info4()));
    }

    #[test]
    fn collapse_statement_consumes_the_whole_name_group() {
        let p = Program::new().assign(
            Param::name("C"),
            OpKind::Collapse {
                by: Param::names(&["Region"]),
            },
            vec![Param::name("Sales")],
        );
        let out = run_governed_traced(&p, &fixtures::sales_info4(), &budget())
            .unwrap()
            .0;
        let c = out.table_str("C").unwrap();
        // One column block (Region, Part, Sold) per input table.
        assert_eq!(c.width(), 12);
        // One row per data row of each input table.
        assert_eq!(c.height(), 8);
    }

    #[test]
    fn wildcard_statement_runs_over_every_table() {
        // *₁ ← TRANSPOSE(*₁): transpose every table in place.
        let p = Program::new().assign(Param::star_k(1), OpKind::Transpose, vec![Param::star_k(1)]);
        let db = fixtures::sales_info1_full();
        let out = run_governed_traced(&p, &db, &budget()).unwrap().0;
        assert_eq!(out.len(), db.len());
        for t in db.tables() {
            let flipped = out
                .tables_named(t.name())
                .into_iter()
                .find(|x| x.height() == t.width())
                .expect("transposed table present");
            assert_eq!(&flipped.transpose(), t);
        }
    }

    #[test]
    fn binary_statement_pairs_tables() {
        let db = Database::from_tables([
            Table::relational("R", &["A"], &[&["1"]]),
            Table::relational("S", &["A"], &[&["2"]]),
        ]);
        let p = Program::new().assign(
            Param::name("T"),
            OpKind::ClassicalUnion,
            vec![Param::name("R"), Param::name("S")],
        );
        let out = run_governed_traced(&p, &db, &budget()).unwrap().0;
        let t = out.table_str("T").unwrap();
        assert_eq!(t.height(), 2);
        assert_eq!(t.width(), 1);
    }

    #[test]
    fn assignment_replaces_previous_tables_of_that_name() {
        let db = Database::from_tables([
            Table::relational("R", &["A"], &[&["1"]]),
            Table::relational("T", &["Old"], &[&["x"]]),
        ]);
        let p = Program::new().assign(Param::name("T"), OpKind::Copy, vec![Param::name("R")]);
        let out = run_governed_traced(&p, &db, &budget()).unwrap().0;
        let t = out.table_str("T").unwrap();
        assert_eq!(t.col_attrs(), &[nm("A")]);
    }

    #[test]
    fn while_loop_runs_until_empty() {
        // Repeatedly subtract one specific row set until T is empty:
        // T ← DIFFERENCE(T, T) empties in one pass; count via a loop that
        // projects first to prove the body executes.
        let db = Database::from_tables([Table::relational("T", &["A"], &[&["1"], &["2"]])]);
        let body = Program::new().assign(
            Param::name("T"),
            OpKind::Difference,
            vec![Param::name("T"), Param::name("T")],
        );
        let p = Program::new().while_nonempty(Param::name("T"), body);
        let out = run_governed_traced(&p, &db, &budget()).unwrap().0;
        assert_eq!(out.table_str("T").unwrap().height(), 0);
    }

    #[test]
    fn while_loop_diverging_hits_limit() {
        let db = Database::from_tables([Table::relational("T", &["A"], &[&["1"]])]);
        let body = Program::new().assign(Param::name("T"), OpKind::Copy, vec![Param::name("T")]);
        let p = Program::new().while_nonempty(Param::name("T"), body);
        let small = EvalLimits {
            max_while_iters: 5,
            ..EvalLimits::default()
        };
        assert!(matches!(
            run_governed_traced(&p, &db, &Budget::from_limits(&small)),
            Err(AlgebraError::LimitExceeded { .. })
        ));
    }

    #[test]
    fn while_on_missing_table_is_skipped() {
        let db = Database::new();
        let p = Program::new().while_nonempty(
            Param::name("Nope"),
            Program::new().assign(Param::name("X"), OpKind::Copy, vec![Param::name("Nope")]),
        );
        let out = run_governed_traced(&p, &db, &budget()).unwrap().0;
        assert!(out.is_empty());
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let p = Program::new().assign(Param::name("T"), OpKind::Union, vec![Param::name("R")]);
        assert!(matches!(
            run_governed_traced(&p, &Database::new(), &budget()),
            Err(AlgebraError::Arity { .. })
        ));
    }

    #[test]
    fn retain_projects_named_results() {
        let db = fixtures::sales_info1();
        let p = Program::new()
            .assign(
                Param::name("Scratch"),
                OpKind::Copy,
                vec![Param::name("Sales")],
            )
            .assign(
                Param::name("Out"),
                OpKind::Copy,
                vec![Param::name("Scratch")],
            );
        let mut out = run_governed_traced(&p, &db, &budget()).unwrap().0;
        out.retain(|t| t.name() == nm("Out"));
        assert_eq!(out.len(), 1);
        assert!(out.table_str("Out").is_some());
    }

    #[test]
    fn parallel_and_sequential_evaluation_agree() {
        // A database with many same-named tables (SalesInfo4 at scale) and
        // a wildcard statement fanning out over all of them.
        let db = fixtures::make_sales_info4(12, 100);
        let p = crate::parser::parse(
            "*1 <- TRANSPOSE(*1)
             *1 <- CLEANUP[by {*} on {_}](*1)",
        )
        .unwrap();
        let parallel = EvalLimits {
            parallel_threshold: 4,
            ..EvalLimits::default()
        };
        let sequential = EvalLimits {
            parallel_threshold: usize::MAX,
            ..EvalLimits::default()
        };
        let a = run_governed_traced(&p, &db, &Budget::from_limits(&parallel))
            .unwrap()
            .0;
        let b = run_governed_traced(&p, &db, &Budget::from_limits(&sequential))
            .unwrap()
            .0;
        assert_eq!(a.len(), b.len());
        assert!(a.equiv(&b));
    }

    #[test]
    fn parallel_evaluation_propagates_errors() {
        let db = fixtures::make_sales_info4(12, 100);
        // SETNEW on every table would blow the row budget; the error must
        // surface from worker threads.
        let p = crate::parser::parse("*1 <- SETNEW[Tag](*1)").unwrap();
        let limits = EvalLimits {
            parallel_threshold: 4,
            max_setnew_rows: 8,
            ..EvalLimits::default()
        };
        assert!(matches!(
            run_governed_traced(&p, &db, &Budget::from_limits(&limits)),
            Err(AlgebraError::LimitExceeded { .. })
        ));
    }

    #[test]
    fn stats_record_ops_loops_and_shapes() {
        let p = crate::parser::parse(
            "Sales <- GROUP[by {Region} on {Sold}](Sales)
             Sales <- CLEANUP[by {Part} on {_}](Sales)
             while Work do Work <- DIFFERENCE(Work, Work) end",
        )
        .unwrap();
        let mut db = fixtures::sales_info1();
        db.insert(Table::relational("Work", &["A"], &[&["1"]]));
        let (_, stats, _) = run_governed_traced(&p, &db, &budget()).unwrap();
        assert_eq!(stats.op_counts.get("GROUP"), Some(&1));
        assert_eq!(stats.op_counts.get("CLEANUP"), Some(&1));
        assert_eq!(stats.op_counts.get("DIFFERENCE"), Some(&1));
        assert_eq!(stats.while_iterations, 1);
        assert!(stats.tables_produced >= 3);
        // The grouped intermediate dominates: 10 × 10 cells.
        assert_eq!(stats.max_table_cells, 100);
        let hottest = stats.hottest();
        assert_eq!(hottest.len(), 3);
    }

    #[test]
    fn op_micros_sum_to_at_most_total_wall_time() {
        // A 3-deep nested while program: were body statements timed both
        // by the body pass and by enclosing-loop accounting, the inner
        // statements would be charged once per nesting level and the
        // per-op total would exceed the wall clock.
        let p = crate::parser::parse(
            "while A do
               X <- COPY(Seed)
               while B do
                 Y <- PRODUCT(Seed, Seed)
                 while C do
                   Z <- GROUP[by {K} on {V}](Seed)
                   C <- DIFFERENCE(C, C)
                 end
                 C <- COPY(CSeed)
                 B <- DIFFERENCE(B, B)
               end
               B <- COPY(BSeed)
               A <- DIFFERENCE(A, A)
             end",
        )
        .unwrap();
        let db = Database::from_tables([
            Table::relational("Seed", &["K", "V"], &[&["a", "1"], &["b", "2"]]),
            Table::relational("A", &["X"], &[&["go"]]),
            Table::relational("B", &["X"], &[&["go"]]),
            Table::relational("C", &["X"], &[&["go"]]),
            Table::relational("BSeed", &["X"], &[&["go"]]),
            Table::relational("CSeed", &["X"], &[&["go"]]),
        ]);
        for strategy in [WhileStrategy::Naive, WhileStrategy::Delta] {
            let l = EvalLimits {
                while_strategy: strategy,
                ..EvalLimits::default()
            };
            let (_, stats, _) = run_governed_traced(&p, &db, &Budget::from_limits(&l)).unwrap();
            let op_sum: u128 = stats.op_micros.values().sum();
            assert!(
                op_sum <= stats.total_micros,
                "{strategy:?}: per-op micros {op_sum} exceed total {}",
                stats.total_micros
            );
            assert!(stats.while_iterations >= 3, "all three loops iterated");
        }
    }

    #[test]
    fn trace_per_op_totals_reconcile_with_stats() {
        let p = crate::parser::parse(
            "Sales <- GROUP[by {Region} on {Sold}](Sales)
             while Work do Work <- DIFFERENCE(Work, Work) end",
        )
        .unwrap();
        let mut db = fixtures::sales_info1();
        db.insert(Table::relational("Work", &["A"], &[&["1"]]));
        let l = EvalLimits {
            trace: TraceLevel::Spans,
            ..EvalLimits::default()
        };
        let (_, stats, trace) = run_governed_traced(&p, &db, &Budget::from_limits(&l)).unwrap();
        assert_eq!(trace.dropped(), 0);
        assert_eq!(
            trace.per_op_micros(),
            stats.op_micros,
            "span micros are the same measurements as op_micros"
        );
        let json = trace.to_json();
        assert!(json.contains("\"op\":\"GROUP\""));
    }

    #[test]
    fn trace_off_records_no_timing_at_all() {
        let p = crate::parser::parse("T <- COPY(Sales)").unwrap();
        let l = EvalLimits {
            trace: TraceLevel::Off,
            ..EvalLimits::default()
        };
        let (_, stats, trace) =
            run_governed_traced(&p, &fixtures::sales_info1(), &Budget::from_limits(&l)).unwrap();
        assert!(trace.is_empty());
        assert!(stats.op_micros.is_empty());
        assert_eq!(stats.op_counts.get("COPY"), Some(&1));
    }

    #[test]
    fn parallel_threshold_boundary_is_inclusive() {
        // Exactly `threshold` matching tables must fan out (the doc says
        // "once at least this many tables match"); one fewer must not.
        let threshold = 4;
        let mk = |n: usize| {
            Database::from_tables(
                (0..n).map(|i| Table::relational(&format!("T{i}"), &["A"], &[&["v"]])),
            )
        };
        let p = crate::parser::parse("*1 <- TRANSPOSE(*1)").unwrap();
        let l = EvalLimits {
            parallel_threshold: threshold,
            ..EvalLimits::default()
        };
        let (_, at, _) = run_governed_traced(&p, &mk(threshold), &Budget::from_limits(&l)).unwrap();
        assert!(
            at.shard_jobs > 0,
            "exactly threshold matches dispatch to the pool"
        );
        let (_, below, _) =
            run_governed_traced(&p, &mk(threshold - 1), &Budget::from_limits(&l)).unwrap();
        assert_eq!(below.shard_jobs, 0, "threshold - 1 matches stay serial");
    }

    #[test]
    fn parallel_threshold_is_floored_at_two() {
        // Pin for the `.max(2)` clamp in `compute_results` (and its doc
        // on `EvalLimits::parallel_threshold`): thresholds of 0 and 1
        // behave as 2, because a single matching table leaves nothing to
        // fan out — it must stay serial, while two matches dispatch.
        let mk = |n: usize| {
            Database::from_tables(
                (0..n).map(|i| Table::relational(&format!("T{i}"), &["A"], &[&["v"]])),
            )
        };
        let p = crate::parser::parse("*1 <- TRANSPOSE(*1)").unwrap();
        for threshold in [0, 1] {
            let l = EvalLimits {
                parallel_threshold: threshold,
                ..EvalLimits::default()
            };
            let (_, one, _) = run_governed_traced(&p, &mk(1), &Budget::from_limits(&l)).unwrap();
            assert_eq!(
                one.shard_jobs, 0,
                "threshold {threshold}: a single match stays serial"
            );
            let (_, two, _) = run_governed_traced(&p, &mk(2), &Budget::from_limits(&l)).unwrap();
            assert!(
                two.shard_jobs > 0,
                "threshold {threshold}: two matches fan out"
            );
        }
    }

    #[test]
    fn thread_limit_one_evaluates_sharded_statements_correctly() {
        // `threads: 1` still takes the sharded code path (jobs dispatch
        // to the pool) but with a single worker — the pool honors the
        // knob instead of spawning `available_parallelism` threads.
        let db = Database::from_tables(
            (0..6).map(|i| Table::relational(&format!("T{i}"), &["A"], &[&["v"]])),
        );
        let p = crate::parser::parse("*1 <- TRANSPOSE(*1)").unwrap();
        let (reference, base, _) = run_governed_traced(&p, &db, &Budget::default()).unwrap();
        assert_eq!(base.shard_jobs, 0, "6 < default threshold stays serial");
        let l = EvalLimits {
            parallel_threshold: 2,
            threads: 1,
            ..EvalLimits::default()
        };
        let (out, stats, _) = run_governed_traced(&p, &db, &Budget::from_limits(&l)).unwrap();
        assert!(stats.shard_jobs > 0, "sharded path taken: {stats:?}");
        assert!(out.equiv(&reference));
    }

    #[test]
    fn partitioned_fused_join_is_byte_identical_with_equal_charges() {
        let table = |name: &str, attrs: [&str; 2], rows: Vec<[String; 2]>| {
            let rows: Vec<Vec<&str>> = rows
                .iter()
                .map(|r| r.iter().map(String::as_str).collect())
                .collect();
            let rows: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
            Table::relational(name, &attrs, &rows)
        };
        // Duplicate keys on both sides so partitions carry uneven match
        // counts; 12 probe rows so `partition_threshold: 1` engages.
        let db = Database::from_tables([
            table(
                "R",
                ["A", "B"],
                (0..12)
                    .map(|i| [format!("v{i}"), format!("k{}", i % 5)])
                    .collect(),
            ),
            table(
                "S",
                ["C", "D"],
                (0..7)
                    .map(|i| [format!("k{}", i % 3), format!("w{i}")])
                    .collect(),
            ),
        ]);
        let p = crate::parser::parse("T <- FUSEDJOIN[B = C](R, S)").unwrap();
        let serial_limits = EvalLimits {
            trace: TraceLevel::Spans,
            ..EvalLimits::default()
        };
        let part_limits = EvalLimits {
            partition_threshold: 1,
            threads: 2,
            trace: TraceLevel::Spans,
            ..EvalLimits::default()
        };
        let (reference, ref_stats, _) =
            run_governed_traced(&p, &db, &Budget::from_limits(&serial_limits)).unwrap();
        let (out, stats, trace) =
            run_governed_traced(&p, &db, &Budget::from_limits(&part_limits)).unwrap();
        let t = reference.table_str("T").unwrap();
        assert_eq!(t, out.table_str("T").unwrap(), "byte-identical output");
        assert_eq!(ref_stats.partitioned_joins, 0);
        assert_eq!(stats.partitioned_joins, 1);
        assert!(stats.partition_shards >= 1);
        // One Partition span per shard, carrying the fan-out: partition
        // indices and per-partition output rows that sum to the join's.
        let partitions: Vec<_> = trace
            .spans()
            .filter(|s| s.kind == SpanKind::Partition)
            .collect();
        assert_eq!(partitions.len(), stats.partition_shards);
        assert!(partitions.iter().all(|s| s.shard.is_some()));
        assert_eq!(
            partitions.iter().map(|s| s.matched).sum::<usize>(),
            t.height()
        );
        // The cumulative governor charge is identical with partitioning
        // on or off: a budget of exactly the produced cells passes both
        // ways, one cell less trips both ways (per-partition charges
        // plus the remainder equal the serial statement charge).
        let t_cells = (t.height() + 1) * (t.width() + 1);
        for l in [&serial_limits, &part_limits] {
            let ok = Budget::from_limits(l).with_cell_budget(t_cells);
            run_governed_traced(&p, &db, &ok).unwrap();
            let trip = Budget::from_limits(l).with_cell_budget(t_cells - 1);
            let err = run_governed_traced(&p, &db, &trip).unwrap_err();
            assert!(matches!(err, AlgebraError::BudgetExceeded { .. }), "{err}");
        }
    }

    #[test]
    fn statement_reads_pre_state_consistently() {
        // Sales ← SPLIT on Region (Sales) with self-target must not feed
        // its own outputs back into the iteration.
        let p = Program::new().assign(
            Param::name("Sales"),
            OpKind::Split {
                on: Param::names(&["Region"]),
            },
            vec![Param::name("Sales")],
        );
        let once = run_governed_traced(&p, &fixtures::sales_info1(), &budget())
            .unwrap()
            .0;
        assert_eq!(once.tables_named(nm("Sales")).len(), 4);
    }
}
