//! Delta-driven `while` evaluation (DESIGN.md, "Delta-driven `while`
//! evaluation").
//!
//! A `while` body that passes [`body_is_delta_safe`] is a
//! straight line of *ground* assignments over *pure, deterministic*
//! operations: each statement's read set (its argument names) and write
//! set (its target name) are known statically, and re-running it against
//! unchanged inputs reproduces its previous output exactly. That licenses
//! two refinements over naive re-evaluation, neither of which changes the
//! result:
//!
//! * **statement skipping** — every table name's *version* is the
//!   fingerprint of its current table group, folded from the per-table
//!   content fingerprints the storage layer caches (so versions are read
//!   in O(group size) without re-hashing any cells). A statement whose
//!   argument versions are unchanged since its last execution, and whose
//!   own output is still in place (its target's version is the one it
//!   produced), is skipped outright. This is exact, not merely
//!   fixpoint-safe: by purity, re-execution would replace the target with
//!   an identical group. (Fingerprints are 64-bit, so exactness is modulo
//!   a vanishing collision probability; the differential oracle referees.)
//! * **append-incremental recomputation** — fixpoint loops grow their
//!   accumulator by appending rows (classical union keeps old rows as a
//!   prefix and appends the genuinely new ones). When a name's group is a
//!   single table that extends its previous version by appended rows, a
//!   product with an unchanged right operand, a selection, or a projection
//!   reading it need only process the new rows — and since the target's
//!   cached output is a uniquely owned table in the store, the new rows
//!   are pushed into it *in place* ([`Database::update_named`]), turning
//!   the per-iteration cost of the hot product/select chain from
//!   `O(|R|·|S|)` into `O(|ΔR|·|S|)` with no per-iteration copy of the
//!   accumulated output.
//! * **row indexes along append lineage** — the accumulator of a
//!   self-accumulating `CLASSICALUNION` and the right operand of a
//!   `DIFFERENCE` that grows by appends get an [`ops::RowIndex`] of their
//!   storage rows, built once and then extended by each append's new
//!   rows. The union's arm asks [`ops::redundancy::union_new_rows`] for
//!   the delta's rows the index lacks, and `DIFFERENCE`'s arm filters only
//!   its cached output and its left operand's new rows through
//!   [`ops::traditional::difference_rows`], so a closure iteration costs
//!   the new rows, not the closure so far (semi-naive evaluation). Both
//!   arms call the row-set kernels the operations themselves run; this
//!   module only decides which index is current.
//!
//! Append lineage, row indexes and per-statement memos live only for the
//! duration of one `while` loop execution; re-entering a loop starts
//! fresh.

use crate::error::{AlgebraError, Result};
use crate::eval::{
    charge_production, check_results, check_table_count, compute_results, run_statement,
    table_cells, Exec,
};
use crate::obs::metrics::Metrics;
use crate::ops;
use crate::plan::read_set;
use crate::program::{Assignment, OpKind, Statement};
use std::collections::{HashMap, HashSet};
use tabular_core::{Database, Symbol, SymbolSet, Table};

/// True when a `while` body is eligible for delta-driven evaluation
/// (see [`crate::eval::WhileStrategy`]).
///
/// The delta engine skips a statement when none of its inputs changed
/// since its last execution, which is sound exactly when re-execution
/// would be a no-op. That requires:
///
/// * **ground parameters throughout** — targets, arguments, and nested
///   conditions all denote fixed names (reuses the same `read_set`
///   machinery as the planner), so each statement's read and write
///   sets are known statically;
/// * **no fresh tagging** — `TUPLENEW` / `SETNEW` invent new tags on
///   every execution, so skipping a re-run changes the result (the
///   paper's determinacy-up-to-tag-isomorphism, §3.5, does not survive
///   accumulation across iterations);
/// * **no nested loops** — an inner `while` is not a pure function of
///   its read set's versions (its own iteration count varies), so only
///   straight-line bodies qualify.
///
/// Everything else in the algebra is a pure, deterministic function of
/// its arguments, so this is broader than a monotone-operations
/// whitelist: even non-monotone bodies (difference, transpose, switch)
/// are delta-safe, because skipping is keyed on *versions*, not on
/// growth.
pub(crate) fn body_is_delta_safe(body: &[Statement]) -> bool {
    let mut reads = SymbolSet::new();
    if read_set(body, &mut reads).is_none() {
        return false;
    }
    body.iter().all(|s| match s {
        Statement::While { .. } => false,
        Statement::Assign(a) => !matches!(a.op, OpKind::TupleNew { .. } | OpKind::SetNew { .. }),
    })
}

/// How a committed assignment changed its target's table group.
enum Change {
    /// The produced group equals the existing one; the database is left
    /// untouched (replacing with an identical group is a no-op under set
    /// semantics).
    Unchanged,
    /// Single table extended by appended rows: identical header, old
    /// storage rows a prefix of the new ones.
    Append {
        /// Height of the previous table (new rows start at `base + 1`).
        base_height: usize,
    },
    /// Any other change.
    Replaced,
}

/// Append lineage for one name: group version (fingerprint) `from` became
/// `to` by appending rows after `base_height`.
struct AppendInfo {
    from: u64,
    to: u64,
    base_height: usize,
}

/// What a statement saw and produced the last time it executed. The
/// produced-shape fields let a skip charge the statement's (identical)
/// logical production to `EvalStats`, keeping `tables_produced` and
/// `max_table_cells` in agreement with naive re-execution, which counts
/// the same results afresh every iteration.
struct StmtMemo {
    read_versions: Vec<u64>,
    target_version: u64,
    /// Handle on the statement's own previous output when it was a single
    /// table — an O(1) clone under the shared storage engine, which is
    /// what lets append-incremental recomputation survive *double
    /// buffering* (a later statement overwriting the same target, as in
    /// `RTC ← RENAME(TC); RTC ← RENAME(RTC)` chains): the plan extends
    /// this cached table, not whatever currently sits under the name.
    cached_output: Option<Table>,
    /// Tables the statement produced last time it ran.
    produced_tables: usize,
    /// Total cells of those tables (the `max_cells` convention).
    produced_cells: usize,
    /// Largest single table, in cells.
    produced_max_cells: usize,
}

/// A row index of one name's single table, valid for exactly one group
/// version of that name. [`DeltaState`] keeps it current along append
/// lineage: an append extends it by the appended rows, any other change
/// to the name drops it. The index owns copies of its rows; a handle on
/// the table's buffer would make every in-place append to that table a
/// copy-on-write copy.
struct LineageIndex {
    /// The group version the index describes.
    version: u64,
    /// Rows of the indexed table covered so far, duplicates included.
    height: usize,
    rows: ops::RowIndex,
}

/// What the delta engine remembers across the iterations of one `while`
/// loop execution: append lineage and row indexes per name, and one memo
/// per body statement. The loop driver in `eval` holds it for the loop's
/// duration.
pub(crate) struct DeltaState {
    appends: HashMap<Symbol, AppendInfo>,
    indexes: HashMap<Symbol, LineageIndex>,
    memos: Vec<Option<StmtMemo>>,
}

impl DeltaState {
    pub(crate) fn new(body_len: usize) -> DeltaState {
        DeltaState {
            appends: HashMap::new(),
            indexes: HashMap::new(),
            memos: (0..body_len).map(|_| None).collect(),
        }
    }

    /// The previous height of argument `slot`, whose current table is
    /// `t`, when its group went from the version `memo` last read to the
    /// current one purely by appending rows; `t`'s full height when the
    /// version is unchanged (no delta rows to process).
    fn append_base(
        &self,
        memo: &StmtMemo,
        reads: &[Symbol],
        read_versions: &[u64],
        slot: usize,
        t: &Table,
    ) -> Option<usize> {
        let last_seen = memo.read_versions[slot];
        if read_versions[slot] == last_seen {
            return Some(t.height());
        }
        let info = self.appends.get(&reads[slot])?;
        (info.from == last_seen && info.to == read_versions[slot]).then_some(info.base_height)
    }

    /// Record that `name` became `t` by appending rows to its version
    /// `info.from`, and extend its row index by those rows when the index
    /// describes that version (dropping it otherwise).
    fn record_append(&mut self, name: Symbol, info: AppendInfo, t: &Table) {
        match self.indexes.get_mut(&name) {
            Some(index)
                if index.version == info.from
                    && index.height == info.base_height
                    && index.rows.stride() == t.width() + 1 =>
            {
                index.rows.extend(t, info.base_height + 1);
                index.height = t.height();
                index.version = info.to;
            }
            _ => {
                self.indexes.remove(&name);
            }
        }
        self.appends.insert(name, info);
    }

    /// Drop the lineage and the row index of `name`: it was replaced, or
    /// a statement writing it failed.
    fn forget(&mut self, name: Symbol) {
        self.appends.remove(&name);
        self.indexes.remove(&name);
    }

    /// The row index of `name` if it describes `version`.
    fn index(&self, name: Symbol, version: u64) -> Option<&LineageIndex> {
        self.indexes.get(&name).filter(|ix| ix.version == version)
    }

    /// Build the row index that an arm of this statement probes, when it
    /// is missing: the accumulator of a self-accumulating
    /// `CLASSICALUNION`, and the right operand of a `DIFFERENCE` whose
    /// last change was an append. Built once, the index then follows
    /// the name's appends ([`DeltaState::record_append`]); names that are
    /// replaced rather than grown never get one.
    fn prepare_index(
        &mut self,
        idx: usize,
        a: &Assignment,
        reads: &[Symbol],
        read_versions: &[u64],
        db: &Database,
    ) {
        let slot = match a.op {
            OpKind::ClassicalUnion
                if self.memos[idx]
                    .as_ref()
                    .is_some_and(|m| m.target_version == read_versions[0]) =>
            {
                0
            }
            OpKind::Difference
                if self
                    .appends
                    .get(&reads[1])
                    .is_some_and(|info| info.to == read_versions[1]) =>
            {
                1
            }
            _ => return,
        };
        let (name, version) = (reads[slot], read_versions[slot]);
        if self.index(name, version).is_none() {
            if let Some(t) = single(db, name) {
                let index = LineageIndex {
                    version,
                    height: t.height(),
                    rows: ops::RowIndex::of_rows(t),
                };
                self.indexes.insert(name, index);
            }
        }
    }
}

/// The table named `name` when it is the only one of its name.
fn single(db: &Database, name: Symbol) -> Option<&Table> {
    let mut it = db.tables_named_iter(name);
    let t = it.next()?;
    it.next().is_none().then_some(t)
}

/// The version of a name: an order-dependent fold of the cached
/// per-table fingerprints of its current group (plus the group size).
/// Reading a version never hashes cells — [`Table::fingerprint`] is
/// cached on each handle — and equal group contents always give equal
/// versions, so a name that flips back to an earlier state re-enables
/// skipping, which monotone counters could not.
fn group_version(db: &Database, name: Symbol) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut count: u64 = 0;
    for t in db.tables_named_iter(name) {
        h ^= t.fingerprint();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        count += 1;
    }
    h ^ count
}

/// One pass over the body of a delta `while` loop: the per-iteration
/// policy the loop driver (`eval::run_while`) runs when the body passes
/// [`body_is_delta_safe`].
pub(crate) fn run_delta_iteration(
    st: &mut DeltaState,
    body: &[Statement],
    db: &mut Database,
    cx: Exec<'_>,
    metrics: &mut Metrics,
) -> Result<()> {
    let mut dirty: HashSet<Symbol> = HashSet::new();
    for (idx, stmt) in body.iter().enumerate() {
        // Poll before the skip check so even all-skip iterations stop at
        // statement granularity.
        cx.gov.poll()?;
        // `plan_delta` admits only ground assignments into delta bodies;
        // these checks are reachable mid-run (including while a governed
        // run is winding down from a trip with partial state), so a
        // violated invariant fails the run instead of panicking the
        // process.
        let Statement::Assign(a) = stmt else {
            return Err(AlgebraError::Internal {
                what: "delta-safe body contained a non-assignment",
            });
        };
        let kw = a.op.keyword();
        let Some(target) = a.target.as_ground() else {
            return Err(AlgebraError::Internal {
                what: "delta-safe body target is not ground",
            });
        };
        let reads: Vec<Symbol> = a
            .args
            .iter()
            .map(|p| {
                p.as_ground().ok_or(AlgebraError::Internal {
                    what: "delta-safe body argument is not ground",
                })
            })
            .collect::<Result<_>>()?;
        let read_versions: Vec<u64> = reads.iter().map(|&n| group_version(db, n)).collect();
        let skip = st.memos[idx].as_ref().filter(|memo| {
            memo.read_versions == read_versions && group_version(db, target) == memo.target_version
        });
        if let Some(memo) = skip {
            // Skipped, but the statement's logical production still
            // counts: naive re-execution would have reproduced the
            // memoized results and counted them again. The same goes for
            // the run cell budget — charging the memoized size keeps the
            // trip point identical to naive evaluation.
            let (tables, cells, max_cells) = (
                memo.produced_tables,
                memo.produced_cells,
                memo.produced_max_cells,
            );
            run_statement(kw, true, metrics, |m| {
                m.note_matched(tables, 0);
                charge_production(tables, cells, max_cells, cx, m)?;
                m.stats.while_delta_skipped += 1;
                Ok(())
            })?;
            continue;
        }
        let changed = run_statement(kw, false, metrics, |m| {
            let outcome = run_body_statement(st, idx, a, target, reads, read_versions, db, cx, m);
            if outcome.is_err() {
                // A failed statement must leave no bookkeeping claiming
                // its output is current: a retry with larger limits would
                // otherwise delta-skip against a stale memo (or extend
                // stale append lineage) and disagree with naive
                // re-evaluation.
                st.memos[idx] = None;
                st.forget(target);
            }
            outcome
        })?;
        if changed {
            dirty.insert(target);
        }
    }
    metrics.stats.delta_dirty_sizes.push(dirty.len());
    Ok(())
}

/// Execute one body statement (incrementally when possible), commit its
/// results only if they differ from the current group, and update
/// lineage and the statement's memo. Returns whether the target's group
/// changed.
#[allow(clippy::too_many_arguments)] // internal plumbing of the delta loop
fn run_body_statement(
    st: &mut DeltaState,
    idx: usize,
    a: &Assignment,
    target: Symbol,
    reads: Vec<Symbol>,
    read_versions: Vec<u64>,
    db: &mut Database,
    cx: Exec<'_>,
    metrics: &mut Metrics,
) -> Result<bool> {
    let old_version = group_version(db, target);
    st.prepare_index(idx, a, &reads, &read_versions, db);

    // Append-incremental fast path: extend the statement's cached output
    // by exactly the delta rows. When the cached table is still in place
    // under the target name, the commit happens *in place* with zero
    // buffer copies; when a later statement double-buffered over it, the
    // cached handle (sole owner by then) is extended and swapped back in.
    if let Some(inc) = plan_incremental(st, idx, a, &reads, &read_versions, db, cx) {
        let inc = inc?;
        if matches!(inc.plan, IncPlan::Join { .. }) {
            // The incremental plan is the hash-join kernel probing only
            // the delta rows: record the fusion decision exactly as the
            // naive path does.
            metrics.stats.join_fused += 1;
            metrics.note_fusion("fused-join");
        }
        // The commit happens in place instead of materializing: account
        // the one full-size table naive re-execution would produce.
        let cells = inc.out_cells_after;
        charge_production(1, cells, cells, cx, metrics)?;
        // `plan_incremental` only returns a plan when the memo and its
        // cached output exist; a budget trip in `charge_production`
        // above returns before these are touched, but if the invariant
        // ever breaks on this partial-state path it must fail the run,
        // not the process.
        let Some(memo) = st.memos[idx].as_mut() else {
            return Err(AlgebraError::Internal {
                what: "incremental plan without a statement memo",
            });
        };
        let from_version = memo.target_version;
        let Some(cached) = memo.cached_output.take() else {
            return Err(AlgebraError::Internal {
                what: "incremental plan without a cached output",
            });
        };
        let in_place = old_version == from_version;
        let base_height = inc.base_height;
        let (changed, new_output) = if inc.new_rows == 0 {
            if in_place {
                (false, cached)
            } else {
                // The correct output equals the cached table, but a later
                // writer replaced the target since: put the cached handle
                // back (an O(1) insert, no cells move).
                db.replace(vec![cached.clone()]);
                (true, cached)
            }
        } else if in_place {
            // The cached output is the target's sole table. Drop our
            // handle first so the store's copy is uniquely owned and the
            // append materializes no copy. `update_named`'s closure
            // returns `()`, so the fallible (possibly partitioned) apply
            // reports through a captured slot.
            drop(cached);
            let mut applied = Ok(Vec::new());
            let committed = db.update_named(target, |out| applied = inc.plan.apply(out, cx));
            debug_assert!(committed, "in-place target is a unique table");
            metrics.note_partitioned(&applied?);
            // `update_named` committed above (debug-asserted); if the
            // target vanished anyway, fail the run rather than panic —
            // this path runs under the governor with partial state.
            let Some(out) = db.tables_named_iter(target).next() else {
                return Err(AlgebraError::Internal {
                    what: "in-place append target vanished from the store",
                });
            };
            let out = out.clone();
            (true, out)
        } else {
            let mut out = cached;
            let report = inc.plan.apply(&mut out, cx)?;
            metrics.note_partitioned(&report);
            // Fingerprint before cloning, so the memo's handle carries
            // the fold that the next append continues.
            out.fingerprint();
            db.replace(vec![out.clone()]);
            (true, out)
        };
        let final_version = if changed {
            let v = group_version(db, target);
            let info = AppendInfo {
                from: from_version,
                to: v,
                base_height,
            };
            st.record_append(target, info, &new_output);
            v
        } else {
            old_version
        };
        st.memos[idx] = Some(StmtMemo {
            read_versions,
            target_version: final_version,
            cached_output: Some(new_output),
            produced_tables: 1,
            produced_cells: inc.out_cells_after,
            produced_max_cells: inc.out_cells_after,
        });
        metrics.stats.while_delta_incremental += 1;
        return Ok(changed);
    }

    let difference = incremental_difference(st, idx, a, target, &reads, &read_versions, db);
    let incremental = difference.is_some();
    let results = match difference {
        Some((out, input_cells)) => {
            metrics.note_matched(1, input_cells);
            vec![out]
        }
        None => compute_results(a, db, cx, metrics)?,
    };
    check_results(&results, cx, metrics)?;
    let produced_tables = results.len();
    let produced_cells = results.iter().map(table_cells).sum();
    let produced_max_cells = results.iter().map(table_cells).max().unwrap_or(0);

    // An empty result set (no argument combination matched) leaves the
    // database untouched, exactly as `Database::replace` does.
    let change = if results.is_empty() {
        Change::Unchanged
    } else {
        classify_change(&db.tables_named(target), &results)
    };
    // Keep a handle on a single-table output for future incremental
    // plans; cloning shares the cell buffer, so this is O(1). The
    // fingerprint is taken first (the insert below needs it anyway) so
    // that the cached handle carries the fold its appends continue.
    let cached_output = (results.len() == 1).then(|| {
        results[0].fingerprint();
        results[0].clone()
    });

    let changed = !matches!(change, Change::Unchanged);
    if changed {
        db.replace(results);
        check_table_count(db, cx.limits)?;
        let new_version = group_version(db, target);
        match (change, single(db, target)) {
            (Change::Append { base_height }, Some(t)) => {
                let info = AppendInfo {
                    from: old_version,
                    to: new_version,
                    base_height,
                };
                st.record_append(target, info, t);
            }
            _ => st.forget(target),
        }
    }
    st.memos[idx] = Some(StmtMemo {
        read_versions,
        target_version: group_version(db, target),
        cached_output,
        produced_tables,
        produced_cells,
        produced_max_cells,
    });
    if incremental {
        metrics.stats.while_delta_incremental += 1;
    }
    Ok(changed)
}

/// Compare the produced tables against the target's current group. The
/// produced list is deduplicated first, mirroring the database's set
/// semantics on insert. Comparisons filter through the cached content
/// fingerprints before confirming exactly, so the (common) changed case
/// is decided without re-reading cells.
fn classify_change(old: &[&Table], new: &[Table]) -> Change {
    let same = |a: &Table, b: &Table| a.fingerprint() == b.fingerprint() && a == b;
    let mut new_set: Vec<&Table> = Vec::new();
    for t in new {
        if !new_set.iter().any(|u| same(u, t)) {
            new_set.push(t);
        }
    }
    if old.len() == new_set.len() && new_set.iter().all(|t| old.iter().any(|o| same(o, t))) {
        return Change::Unchanged;
    }
    if let ([o], [n]) = (old, new_set.as_slice()) {
        if n.width() == o.width()
            && n.height() >= o.height()
            && (0..=o.height()).all(|i| n.storage_row(i) == o.storage_row(i))
        {
            return Change::Append {
                base_height: o.height(),
            };
        }
    }
    Change::Replaced
}

/// How to extend the cached output (see [`plan_incremental`]). Operand
/// handles held by a plan are O(1) clones sharing the store's buffers —
/// and because they are taken *before* the commit mutates the database,
/// a statement reading its own target still sees the pre-statement rows.
enum IncPlan {
    /// Append `r`'s rows after `base` crossed with all of `s`.
    Product { r: Table, s: Table, base: usize },
    /// Scatter a join whose appended probe rows [`plan_incremental`]
    /// already counted — the fused-join mirror of [`IncPlan::Product`],
    /// appending only the matching pairs. `partitioned` when those rows
    /// reached the partition threshold.
    Join {
        probe: ops::JoinProbe,
        partitioned: bool,
    },
    /// Append `r`'s raw storage rows after `base` (rename and copy leave
    /// data rows untouched — only the attribute row differs, and that is
    /// already in the cached output).
    TailRows { r: Table, base: usize },
    /// Append these already-computed storage rows, concatenated.
    Rows(Vec<Symbol>),
}

impl IncPlan {
    /// Commit the plan into the cached output. A `Join` only scatters:
    /// its probe was counted (and its index built) by
    /// [`plan_incremental`], and the whole output was admitted by
    /// `charge_production` before `apply` runs, so the scatter polls the
    /// governor but charges nothing. Returns the join's per-range report
    /// when its delta reached [`crate::EvalLimits::partition_threshold`]
    /// probe rows, and an empty one for every other path.
    fn apply(self, out: &mut Table, cx: Exec<'_>) -> Result<Vec<ops::PartitionShard>> {
        match self {
            IncPlan::Product { r, s, base } => ops::product_append(out, &r, base + 1, &s),
            IncPlan::Join { probe, partitioned } => {
                let report = probe.scatter(out, cx.pool, &|| cx.gov.poll())?;
                if partitioned {
                    return Ok(report);
                }
            }
            IncPlan::TailRows { r, base } => out.append_rows(|rows| {
                rows.reserve_rows(r.height() - base);
                for i in base + 1..=r.height() {
                    rows.push_row(r.storage_row(i));
                }
            }),
            IncPlan::Rows(new_rows) => {
                let stride = out.width() + 1;
                out.append_rows(|rows| {
                    rows.reserve_rows(new_rows.len() / stride);
                    for row in new_rows.chunks_exact(stride) {
                        rows.push_row(row);
                    }
                });
            }
        }
        Ok(Vec::new())
    }
}

/// An append-incremental step, planned but not yet committed.
struct Incremental {
    plan: IncPlan,
    /// Rows the plan will append (0 means the output is unchanged).
    new_rows: usize,
    /// Height of the cached output before the step.
    base_height: usize,
    /// Cells of the full output table after the step (the `max_cells`
    /// convention) — what naive re-execution would have produced and what
    /// the statement's stats must charge.
    out_cells_after: usize,
}

/// Attempt to plan append-incremental recomputation: when the statement
/// has its previous single-table output cached and its input grew only by
/// appended rows (left operand only, for products — appended right rows
/// would interleave), the new output is the cached one plus the rows
/// contributed by the input's delta. Planning only reads; the caller
/// commits. Width guards are defensive: under valid append lineage the
/// input's attribute row — hence every derived shape — is unchanged. A
/// join's count pass polls the governor, so planning can fail.
fn plan_incremental(
    st: &DeltaState,
    idx: usize,
    a: &Assignment,
    reads: &[Symbol],
    read_versions: &[u64],
    db: &Database,
    cx: Exec<'_>,
) -> Option<Result<Incremental>> {
    let memo = st.memos[idx].as_ref()?;
    let out_old = memo.cached_output.as_ref()?;
    let base_height = out_old.height();
    let out_width = out_old.width();
    let single = |name: Symbol| single(db, name);
    let base_of = |t: &Table| st.append_base(memo, reads, read_versions, 0, t);

    let (plan, new_rows) = match &a.op {
        OpKind::Product => {
            if read_versions[1] != memo.read_versions[1] {
                return None;
            }
            let r = single(reads[0])?;
            let s = single(reads[1])?;
            if out_width != r.width() + s.width() {
                return None;
            }
            let base = base_of(r)?;
            let new_rows = (r.height() - base) * s.height();
            (
                IncPlan::Product {
                    r: r.clone(),
                    s: s.clone(),
                    base,
                },
                new_rows,
            )
        }
        OpKind::FusedJoin { a: pa, b: pb } if pa.is_rigid() && pb.is_rigid() => {
            // Mirror of the Product arm: grown left operand, unchanged
            // right operand (appended right rows would interleave with the
            // left-major output order). The fusion columns are re-resolved
            // against the current operands; a pair the kernel cannot fuse
            // plans nothing and falls through to `compute_results`, whose
            // fallback runs the unfused pipeline.
            if read_versions[1] != memo.read_versions[1] {
                return None;
            }
            let sa = pa.as_ground()?;
            let sb = pb.as_ground()?;
            let r = single(reads[0])?;
            let s = single(reads[1])?;
            if out_width != r.width() + s.width() {
                return None;
            }
            let cols = ops::fusable_join_cols(r, s, sa, sb)?;
            let base = base_of(r)?;
            // Count the matches now so the governor charge
            // (`out_cells_after`) reflects the actual join output before
            // any row materializes; `apply` only scatters.
            let fanout = crate::eval::join_fanout(cx, r.height() - base);
            let poll = || cx.gov.poll();
            let counted =
                ops::JoinProbe::count(r, base + 1, s, cols, cx.pool, fanout.unwrap_or(1), &poll);
            let probe = match counted {
                Ok(probe) => probe,
                Err(e) => return Some(Err(e)),
            };
            let new_rows = probe.rows();
            (
                IncPlan::Join {
                    probe,
                    partitioned: fanout.is_some(),
                },
                new_rows,
            )
        }
        OpKind::Rename { from, to } if from.is_rigid() && to.is_rigid() => {
            from.as_ground()?;
            to.as_ground()?;
            let r = single(reads[0])?;
            if out_width != r.width() {
                return None;
            }
            let base = base_of(r)?;
            (IncPlan::TailRows { r: r.clone(), base }, r.height() - base)
        }
        OpKind::Copy => {
            let r = single(reads[0])?;
            if out_width != r.width() {
                return None;
            }
            let base = base_of(r)?;
            (IncPlan::TailRows { r: r.clone(), base }, r.height() - base)
        }
        OpKind::ClassicalUnion => {
            // The self-accumulation pattern `TC ← TC ∪ Δ`: the left
            // operand must be exactly this statement's previous output
            // (by version), without repeated rows (the union would merge
            // them), and both operands must be where classical union is
            // its row-set kernel. The step then appends the rows of `Δ`
            // the accumulator's index lacks: O(|Δ|) instead of the full
            // union → purge → clean-up pipeline.
            if read_versions[0] != memo.target_version {
                return None;
            }
            let acc = st.index(reads[0], read_versions[0])?;
            let s = single(reads[1])?;
            if acc.rows.len() != acc.height
                || !ops::traditional::aligned_distinct_schemes(out_old, s)
            {
                return None;
            }
            let fresh = ops::redundancy::union_new_rows(&acc.rows, s);
            let new_rows = fresh.len();
            (IncPlan::Rows(fresh.into_rows()), new_rows)
        }
        OpKind::Select { a: pa, b: pb } if pa.is_rigid() && pb.is_rigid() => {
            let (sa, sb) = (pa.as_ground()?, pb.as_ground()?);
            let r = single(reads[0])?;
            if out_width != r.width() {
                return None;
            }
            kept_rows(r, base_of(r)?, |i| {
                ops::traditional::select_keeps(r, i, sa, sb)
            })
        }
        OpKind::SelectConst { a: pa, v: pv } if pa.is_rigid() && pv.is_rigid() => {
            let (sa, sv) = (pa.as_ground()?, pv.as_ground()?);
            let r = single(reads[0])?;
            if out_width != r.width() {
                return None;
            }
            kept_rows(r, base_of(r)?, |i| {
                ops::traditional::select_const_keeps(r, i, sa, sv)
            })
        }
        OpKind::Project { attrs } if attrs.is_rigid() => {
            let r = single(reads[0])?;
            let cols = r.cols_in(&attrs.rigid_set());
            if out_width != cols.len() {
                return None;
            }
            let base = base_of(r)?;
            let new_rows = r.height() - base;
            let mut rows = Vec::with_capacity(new_rows * (cols.len() + 1));
            for i in base + 1..=r.height() {
                rows.push(r.get(i, 0));
                rows.extend(cols.iter().map(|&j| r.get(i, j)));
            }
            (IncPlan::Rows(rows), new_rows)
        }
        _ => return None,
    };
    Some(Ok(Incremental {
        plan,
        new_rows,
        base_height,
        out_cells_after: (base_height + new_rows + 1) * (out_width + 1),
    }))
}

/// The rows of `r` after `base` that pass a selection's row test, as an
/// append plan and its row count.
fn kept_rows(r: &Table, base: usize, keep: impl Fn(usize) -> bool) -> (IncPlan, usize) {
    let mut rows = Vec::new();
    let mut n = 0;
    for i in (base + 1..=r.height()).filter(|&i| keep(i)) {
        rows.extend_from_slice(r.storage_row(i));
        n += 1;
    }
    (IncPlan::Rows(rows), n)
}

/// `DIFFERENCE(R, S)` against the row index of `S`, with the input
/// cells of both operands for the statement's span. Applies when both
/// operands are single tables with the same pairwise-distinct column
/// attributes, where [`ops::difference`] matches whole storage rows
/// through [`ops::traditional::difference_rows`], and `S` has a current
/// index ([`DeltaState::prepare_index`]); otherwise `None`, and the
/// statement runs [`ops::difference`].
///
/// When the statement's previous output is cached and since then `R`
/// and `S` each grew by appends or stayed unchanged, the output is the
/// cached rows not in `S`, followed by `R`'s appended rows not in `S`.
/// Difference is a row-wise filter, "keep a row of `R` not matched by
/// any row of `S`", so with `R = R₀ · ΔR` the output is
/// `(R₀ \ S) · (ΔR \ S)` in `R`'s row order, which is
/// [`ops::difference`]'s order. And `S ⊇ S₀` gives
/// `R₀ \ S = (R₀ \ S₀) \ S`: the cached rows are filtered again,
/// since rows appended to `S` may match them. Otherwise all of `R` is
/// filtered against the index. Both cost one probe per filtered row,
/// not a hash of `S`.
fn incremental_difference(
    st: &DeltaState,
    idx: usize,
    a: &Assignment,
    target: Symbol,
    reads: &[Symbol],
    read_versions: &[u64],
    db: &Database,
) -> Option<(Table, usize)> {
    if !matches!(a.op, OpKind::Difference) {
        return None;
    }
    let r = single(db, reads[0])?;
    let s = single(db, reads[1])?;
    if !ops::traditional::aligned_distinct_schemes(r, s) {
        return None;
    }
    let index = &st.index(reads[1], read_versions[1])?.rows;
    // The cached output and the first of `R`'s rows not yet filtered
    // into it, when both operands only grew since it was computed.
    let cached = st.memos[idx].as_ref().and_then(|memo| {
        let out = memo.cached_output.as_ref()?;
        st.append_base(memo, reads, read_versions, 1, s)?;
        let base = st.append_base(memo, reads, read_versions, 0, r)?;
        (out.width() == r.width()).then_some((out, base + 1))
    });
    let mut out = r.select_rows(&[]);
    out.set_name(target);
    let first_new = match cached {
        Some((cached, first_new)) => {
            ops::traditional::difference_rows(&mut out, cached, 1, index);
            first_new
        }
        None => 1,
    };
    ops::traditional::difference_rows(&mut out, r, first_new, index);
    Some((out, table_cells(r) + table_cells(s)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{run_governed_traced, EvalLimits, WhileStrategy};
    use crate::governor::Budget;
    use crate::parser::parse;

    fn limits(strategy: WhileStrategy) -> EvalLimits {
        EvalLimits {
            while_strategy: strategy,
            ..EvalLimits::default()
        }
    }

    /// Transitive closure over a chain graph, written the way the Theorem
    /// 4.1 compiler writes fixpoints: full recompute of the step relation
    /// each iteration. `EStep` is loop-invariant, so it should execute
    /// once and be skipped thereafter.
    fn tc_program() -> crate::program::Program {
        parse(
            "TC <- COPY(E)
             Delta <- COPY(E)
             while Delta do
               EStep <- COPY(E)
               RTC <- RENAME[A -> A0](TC)
               RTC <- RENAME[B -> B0](RTC)
               Joined <- PRODUCT(RTC, EStep)
               Matched <- SELECT[B0 = A](Joined)
               Step <- PROJECT[{A0, B}](Matched)
               Step <- RENAME[A0 -> A](Step)
               Delta <- DIFFERENCE(Step, TC)
               TC <- CLASSICALUNION(TC, Delta)
             end",
        )
        .unwrap()
    }

    fn chain(n: usize) -> Database {
        let rows: Vec<[String; 2]> = (0..n)
            .map(|i| [format!("n{i}"), format!("n{}", i + 1)])
            .collect();
        let rows: Vec<Vec<&str>> = rows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let rows: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
        Database::from_tables([Table::relational("E", &["A", "B"], &rows)])
    }

    /// [`tc_program`] with the product/select chain written as the fused
    /// join the optimizer would produce.
    fn fused_tc_program() -> crate::program::Program {
        parse(
            "TC <- COPY(E)
             Delta <- COPY(E)
             while Delta do
               EStep <- COPY(E)
               RTC <- RENAME[A -> A0](TC)
               RTC <- RENAME[B -> B0](RTC)
               Matched <- FUSEDJOIN[B0 = A](RTC, EStep)
               Step <- PROJECT[{A0, B}](Matched)
               Step <- RENAME[A0 -> A](Step)
               Delta <- DIFFERENCE(Step, TC)
               TC <- CLASSICALUNION(TC, Delta)
             end",
        )
        .unwrap()
    }

    #[test]
    fn fused_join_closure_agrees_with_unfused_on_both_strategies() {
        let db = chain(8);
        let (reference, _, _) = run_governed_traced(
            &tc_program(),
            &db,
            &Budget::from_limits(&limits(WhileStrategy::Naive)),
        )
        .unwrap();
        for strategy in [WhileStrategy::Naive, WhileStrategy::Delta] {
            let (out, stats, _) = run_governed_traced(
                &fused_tc_program(),
                &db,
                &Budget::from_limits(&limits(strategy)),
            )
            .unwrap();
            assert_eq!(
                reference.table_str("TC").unwrap(),
                out.table_str("TC").unwrap(),
                "{strategy:?} fused closure differs from the unfused pipeline"
            );
            assert!(stats.join_fused > 0, "{strategy:?} never fused: {stats:?}");
            assert_eq!(stats.join_unfused, 0, "{strategy:?} fell back: {stats:?}");
        }
        // The delta strategy must take the incremental join path, not
        // re-probe from scratch: the fused statement re-executes each
        // iteration (its left operand grows), yet the join stays fused.
        let (_, stats, _) = run_governed_traced(
            &fused_tc_program(),
            &db,
            &Budget::from_limits(&limits(WhileStrategy::Delta)),
        )
        .unwrap();
        assert!(stats.while_delta_skipped > 0);
        assert_eq!(
            stats.join_fused as u64,
            stats.op_counts.get("FUSEDJOIN").map_or(0, |&c| c as u64),
            "every executed FUSEDJOIN pair fused"
        );
    }

    #[test]
    fn partitioned_incremental_joins_agree_with_serial_delta() {
        // With `partition_threshold: 1` every fused join partitions: the
        // first (naive) execution through `eval_fused_join` and every
        // later `IncPlan::Join` append through the partitioned delta
        // path. The closure must stay byte-identical and the stats must
        // agree with the serial delta run except for the partition
        // counters themselves.
        let db = chain(8);
        let serial = limits(WhileStrategy::Delta);
        let part = EvalLimits {
            partition_threshold: 1,
            ..serial
        };
        let part = Budget {
            executor: crate::pool::Executor::new(2),
            ..Budget::from_limits(&part)
        };
        let (reference, ref_stats, _) =
            run_governed_traced(&fused_tc_program(), &db, &Budget::from_limits(&serial)).unwrap();
        let (out, stats, _) = run_governed_traced(&fused_tc_program(), &db, &part).unwrap();
        assert_eq!(
            reference.table_str("TC").unwrap(),
            out.table_str("TC").unwrap()
        );
        assert_eq!(ref_stats.partitioned_joins, 0);
        assert!(
            stats.partitioned_joins >= 2,
            "first naive join plus incremental appends partition: {stats:?}"
        );
        assert!(stats.partition_shards >= stats.partitioned_joins);
        assert_eq!(stats.join_fused, ref_stats.join_fused);
        assert_eq!(stats.tables_produced, ref_stats.tables_produced);
        assert_eq!(stats.while_delta_skipped, ref_stats.while_delta_skipped);
    }

    #[test]
    fn delta_and_naive_agree_on_transitive_closure() {
        let p = tc_program();
        let db = chain(8);
        let (naive, _, _) =
            run_governed_traced(&p, &db, &Budget::from_limits(&limits(WhileStrategy::Naive)))
                .unwrap();
        let (delta, stats, _) =
            run_governed_traced(&p, &db, &Budget::from_limits(&limits(WhileStrategy::Delta)))
                .unwrap();
        assert_eq!(
            naive.table_str("TC").unwrap(),
            delta.table_str("TC").unwrap()
        );
        // The chain of 8 edges closes to 9·8/2 = 36 pairs.
        assert_eq!(delta.table_str("TC").unwrap().height(), 36);
        assert_eq!(stats.while_fallback_naive, 0);
        assert!(
            stats.while_delta_skipped > 0,
            "the loop-invariant EStep copy skips after its first run"
        );
        assert!(!stats.delta_dirty_sizes.is_empty());
        // Until the loop exits, every iteration changes at least `Delta`.
        assert!(stats.delta_dirty_sizes.iter().all(|&d| d >= 1));
    }

    #[test]
    fn stats_agree_between_naive_and_delta_on_delta_safe_programs() {
        // The delta strategy skips statements and recomputes others
        // incrementally, but its *logical* production accounting must
        // match naive re-execution: skipped statements charge their
        // memoized output shape.
        let p = tc_program();
        let db = chain(8);
        let (_, naive, _) =
            run_governed_traced(&p, &db, &Budget::from_limits(&limits(WhileStrategy::Naive)))
                .unwrap();
        let (_, delta, _) =
            run_governed_traced(&p, &db, &Budget::from_limits(&limits(WhileStrategy::Delta)))
                .unwrap();
        assert!(delta.while_delta_skipped > 0, "skips actually exercised");
        assert_eq!(naive.while_iterations, delta.while_iterations);
        assert_eq!(
            naive.tables_produced, delta.tables_produced,
            "skipped statements must charge their memoized production"
        );
        assert_eq!(naive.max_table_cells, delta.max_table_cells);
        // Executions differ (that is the point of skipping), but every
        // operation naive ran is present in the delta counts.
        for op in naive.op_counts.keys() {
            assert!(delta.op_counts.contains_key(op), "{op} missing from delta");
        }
    }

    #[test]
    fn traced_delta_run_labels_skips_and_iterations() {
        use crate::obs::trace::{DeltaDecision, SpanKind, TraceLevel};

        let p = tc_program();
        let db = chain(8);
        let l = EvalLimits {
            while_strategy: WhileStrategy::Delta,
            trace: TraceLevel::Spans,
            ..EvalLimits::default()
        };
        let (_, stats, trace) = run_governed_traced(&p, &db, &Budget::from_limits(&l)).unwrap();
        assert_eq!(trace.dropped(), 0);
        // Spans reconcile with stats: same per-op wall time (skips are 0),
        // and one delta-skipped span per counted skip.
        assert_eq!(trace.per_op_micros(), stats.op_micros);
        let skipped = trace
            .spans()
            .filter(|s| s.decision == DeltaDecision::DeltaSkipped)
            .count();
        assert_eq!(skipped, stats.while_delta_skipped);
        let iters = trace
            .spans()
            .filter(|s| s.kind == SpanKind::WhileIter)
            .count();
        assert_eq!(iters, stats.while_iterations);
        // Every body-statement span sits under an iteration span.
        let iter_ids: std::collections::HashSet<u64> = trace
            .spans()
            .filter(|s| s.kind == SpanKind::WhileIter)
            .map(|s| s.id)
            .collect();
        for s in trace.spans().filter(|s| s.kind == SpanKind::Assign) {
            if let Some(p) = s.parent {
                assert!(iter_ids.contains(&p), "assign span parents an iteration");
            }
        }
    }

    #[test]
    fn fresh_tagging_bodies_fall_back_to_naive() {
        let p = parse(
            "while W do
               T <- TUPLENEW[Tag](W)
               W <- DIFFERENCE(W, W)
             end",
        )
        .unwrap();
        let db = Database::from_tables([Table::relational("W", &["A"], &[&["1"]])]);
        let (_, stats, _) =
            run_governed_traced(&p, &db, &Budget::from_limits(&limits(WhileStrategy::Delta)))
                .unwrap();
        assert_eq!(stats.while_fallback_naive, 1);
        assert_eq!(stats.while_delta_skipped, 0);
    }

    #[test]
    fn convergence_loop_stops_after_stabilizing() {
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
        let (out, stats, _) =
            run_governed_traced(&p, &db, &Budget::from_limits(&limits(WhileStrategy::Delta)))
                .unwrap();
        assert_eq!(out.table_str("S").unwrap().height(), 2);
        assert_eq!(out.table_str("W").unwrap().height(), 0);
        assert_eq!(stats.while_fallback_naive, 0);
    }

    #[test]
    fn incremental_product_matches_full_recompute() {
        // R grows by an appended row in iteration 1, so iteration 2 takes
        // the append-incremental path for P, Q, and V; by iteration 3 those
        // statements are skipped outright. The W → W2 → W3 countdown keeps
        // the loop alive for exactly three iterations.
        let p = parse(
            "while W do
               P <- PRODUCT(R, S)
               Q <- SELECT[A = C](P)
               V <- PROJECT[{B}](Q)
               G <- PRODUCT(W, W)
               N <- DIFFERENCE(G, G)
               R <- CLASSICALUNION(R, Extra)
               W <- COPY(W2)
               W2 <- COPY(W3)
               W3 <- DIFFERENCE(W3, W3)
             end",
        )
        .unwrap();
        let mk = || {
            Database::from_tables([
                Table::relational("R", &["A", "B"], &[&["1", "x"]]),
                Table::relational("S", &["C", "D"], &[&["1", "u"], &["2", "v"]]),
                Table::relational("Extra", &["A", "B"], &[&["2", "y"]]),
                Table::relational("W", &["K"], &[&["go"]]),
                Table::relational("W2", &["K"], &[&["go2"]]),
                Table::relational("W3", &["K"], &[&["go3"]]),
            ])
        };
        let (naive, _, _) = run_governed_traced(
            &p,
            &mk(),
            &Budget::from_limits(&limits(WhileStrategy::Naive)),
        )
        .unwrap();
        let (delta, stats, _) = run_governed_traced(
            &p,
            &mk(),
            &Budget::from_limits(&limits(WhileStrategy::Delta)),
        )
        .unwrap();
        assert_eq!(stats.delta_dirty_sizes.len(), 3, "three iterations");
        assert!(stats.while_delta_skipped > 0);
        for name in ["P", "Q", "V", "R", "W", "W2", "W3", "G", "N"] {
            assert_eq!(
                naive.table_str(name).unwrap(),
                delta.table_str(name).unwrap(),
                "{name} differs between strategies"
            );
        }
    }

    #[test]
    fn incremental_union_dedups_against_the_accumulator() {
        // `S ← S ∪ Mix` with Mix holding one row already in S and one
        // fresh row: the incremental union must drop the duplicate, both
        // on the first absorption and on the later no-op iterations.
        let p = parse(
            "while W do
               S <- CLASSICALUNION(S, Mix)
               W <- COPY(W2)
               W2 <- COPY(W3)
               W3 <- DIFFERENCE(W3, W3)
             end",
        )
        .unwrap();
        let mk = || {
            Database::from_tables([
                Table::relational("S", &["A"], &[&["1"]]),
                Table::relational("Mix", &["A"], &[&["1"], &["2"]]),
                Table::relational("W", &["K"], &[&["go"]]),
                Table::relational("W2", &["K"], &[&["go2"]]),
                Table::relational("W3", &["K"], &[&["go3"]]),
            ])
        };
        let (naive, _, _) = run_governed_traced(
            &p,
            &mk(),
            &Budget::from_limits(&limits(WhileStrategy::Naive)),
        )
        .unwrap();
        let (delta, stats, _) = run_governed_traced(
            &p,
            &mk(),
            &Budget::from_limits(&limits(WhileStrategy::Delta)),
        )
        .unwrap();
        assert_eq!(stats.while_fallback_naive, 0);
        assert_eq!(naive.table_str("S").unwrap(), delta.table_str("S").unwrap());
        assert_eq!(delta.table_str("S").unwrap().height(), 2);
    }

    #[test]
    fn incremental_union_absorbs_null_data() {
        // `S ← S ∪ Mix` over four iterations: Mix brings a plain row
        // (naive first run), another plain row (the incremental arm
        // builds S's row index), a ⊥-holding row `(x, ⊥)`, then `(x, y)`,
        // which `(x, ⊥)` subsumes but does not equal. Classical union
        // keeps both (clean-up compares ⊥ as a plain symbol), so the
        // incremental arm runs in iterations 2 to 4 and still agrees
        // with naive evaluation.
        let p = parse(
            "while W do
               S <- CLASSICALUNION(S, Mix)
               Mix <- COPY(M2)
               M2 <- COPY(M3)
               M3 <- COPY(M4)
               W <- COPY(W2)
               W2 <- COPY(W3)
               W3 <- COPY(W4)
               W4 <- DIFFERENCE(W4, W4)
             end",
        )
        .unwrap();
        let mk = || {
            Database::from_tables([
                Table::relational("S", &["A", "B"], &[&["1", "2"]]),
                Table::relational("Mix", &["A", "B"], &[&["a", "b"]]),
                Table::relational("M2", &["A", "B"], &[&["c", "d"]]),
                Table::relational("M3", &["A", "B"], &[&["x", "_"]]),
                Table::relational("M4", &["A", "B"], &[&["x", "y"]]),
                Table::relational("W", &["K"], &[&["go"]]),
                Table::relational("W2", &["K"], &[&["go2"]]),
                Table::relational("W3", &["K"], &[&["go3"]]),
                Table::relational("W4", &["K"], &[&["go4"]]),
            ])
        };
        let (naive, _, _) = run_governed_traced(
            &p,
            &mk(),
            &Budget::from_limits(&limits(WhileStrategy::Naive)),
        )
        .unwrap();
        let (delta, stats, _) = run_governed_traced(
            &p,
            &mk(),
            &Budget::from_limits(&limits(WhileStrategy::Delta)),
        )
        .unwrap();
        assert_eq!(stats.while_iterations, 4);
        assert_eq!(naive.table_str("S").unwrap(), delta.table_str("S").unwrap());
        assert_eq!(delta.table_str("S").unwrap().height(), 5);
        // No other statement has an incremental arm here (every COPY
        // source is replaced, not appended to).
        assert_eq!(stats.while_delta_incremental, 3, "{stats:?}");
    }

    #[test]
    fn fingerprint_versions_re_skip_after_a_flip_flop() {
        // S is overwritten with the same content every iteration (COPY of
        // an invariant source). Content-keyed versions recognize the
        // no-op; the reader of S skips from iteration 2 on.
        let p = parse(
            "while W do
               S <- COPY(Src)
               P <- PRODUCT(S, S)
               W <- COPY(W2)
               W2 <- COPY(W3)
               W3 <- DIFFERENCE(W3, W3)
             end",
        )
        .unwrap();
        let db = Database::from_tables([
            Table::relational("Src", &["A"], &[&["1"]]),
            Table::relational("W", &["K"], &[&["go"]]),
            Table::relational("W2", &["K"], &[&["go2"]]),
            Table::relational("W3", &["K"], &[&["go3"]]),
        ]);
        let (out, stats, _) =
            run_governed_traced(&p, &db, &Budget::from_limits(&limits(WhileStrategy::Delta)))
                .unwrap();
        assert_eq!(out.table_str("P").unwrap().height(), 1);
        // Three iterations; S and P both skip in iterations 2 and 3.
        assert!(stats.while_delta_skipped >= 4, "{stats:?}");
    }

    #[test]
    fn incremental_append_commits_in_place_without_copying() {
        // A pure accumulation loop: TC's product chain grows by appended
        // rows each iteration. The in-place commit must not clone the
        // cached outputs, so the per-iteration CoW copies stay bounded by
        // the handful of replace-committed tables, not the product size.
        let p = tc_program();
        let db = chain(8);
        let (_, stats, _) =
            run_governed_traced(&p, &db, &Budget::from_limits(&limits(WhileStrategy::Delta)))
                .unwrap();
        // The run snapshots once up front; every other snapshot/CoW event
        // would indicate an accidental deep copy on the hot path. We
        // assert the loose process-wide bound only (parallel tests share
        // the counters): the incremental path exercised above must not
        // scale CoW copies with iterations × product cells.
        assert!(stats.snapshots >= 1);
    }
}
