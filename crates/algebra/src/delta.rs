//! Delta-driven `while` evaluation (DESIGN.md, "Delta-driven `while`
//! evaluation").
//!
//! A `while` body that passes [`body_is_delta_safe`] is a straight line
//! of *ground* assignments over *pure, deterministic* operations: each
//! statement's read set (its argument names) and write set (its target
//! name) are known statically, and re-running it against unchanged
//! inputs reproduces its previous output exactly. [`run_delta_iteration`]
//! takes every statement through the same three stages, none of which
//! changes the result of naive re-evaluation:
//!
//! * **skip** — every table name's *version* is the fingerprint of its
//!   current table group, folded from the per-table content fingerprints
//!   the storage layer caches (so versions are read in O(group size)
//!   without re-hashing any cells). A statement whose argument versions
//!   are unchanged since its last execution, and whose own output is
//!   still in place, is skipped: by purity, re-execution would replace
//!   the target with an identical group. (Fingerprints are 64-bit, so
//!   exactness is modulo a vanishing collision probability; the
//!   differential oracle referees.)
//! * **plan** — one planning function chooses the statement's step. An
//!   *append* step extends the statement's cached output by the rows its
//!   input's appended rows contribute: fixpoint loops grow their
//!   accumulators by appends, so a product or fused join with an
//!   unchanged right operand, a selection, a projection, a rename or a
//!   copy reading one, and a classical union absorbing new rows into its
//!   own accumulator, cost the new rows, not the whole input. A *fresh*
//!   step computes new results: through the incremental `DIFFERENCE`,
//!   which filters only its cached output and its left operand's new rows
//!   against the row index of its grown right operand, or through
//!   `eval::compute_results`. Every row either step adds comes from a
//!   row-range kernel that the operation's own evaluation runs
//!   (`ops::product_append`, `ops::JoinProbe`, and in `ops::traditional`
//!   and `ops::redundancy` the selection, projection, row-copy, union and
//!   difference kernels). This module builds no rows of its own.
//! * **commit** — one commit settles the step. It puts the output in the
//!   store: an append goes *in place* into the target's uniquely owned
//!   table ([`Database::update_named`]), or onto the cached handle when a
//!   later statement overwrote the target, so no per-iteration copy of
//!   the accumulated output is made; fresh results go through
//!   [`Database::replace`]. It then records the target's lineage and row
//!   index, writes the statement's memo, and counts incremental steps.
//!
//! A name's lineage says whether its current group grew from the previous
//! one by appended rows. It also keeps the row index that the union and
//! `DIFFERENCE` probe: built once, then extended by each append's rows.
//! Lineage and memos live only for one `while` loop execution;
//! re-entering a loop starts fresh.

use crate::error::{AlgebraError, Result};
use crate::eval::{
    charge_production, check_results, check_table_count, compute_results, join_fanout,
    run_statement, table_cells, Exec,
};
use crate::obs::metrics::Metrics;
use crate::ops;
use crate::ops::traditional::{aligned_distinct_schemes, difference_rows};
use crate::plan::read_set;
use crate::program::{Assignment, OpKind, Statement};
use std::collections::HashMap;
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

/// How fresh results change their target's table group.
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
    /// what lets append steps survive *double buffering* (a later
    /// statement overwriting the same target, as in
    /// `RTC ← RENAME(TC); RTC ← RENAME(RTC)` chains): the step extends
    /// this cached table, not whatever currently sits under the name.
    cached_output: Option<Table>,
    /// Tables the statement produced last time it ran.
    produced_tables: usize,
    /// Total cells of those tables (the `max_cells` convention).
    produced_cells: usize,
    /// Largest single table, in cells.
    produced_max_cells: usize,
}

/// What the engine knows of one name's table group, valid for exactly
/// one group version of that name.
struct Lineage {
    /// The group version this entry describes.
    version: u64,
    /// When that version is a single table extending the name's previous
    /// version by appended rows: the previous version and its height.
    grew_from: Option<(u64, usize)>,
    /// A row index of every row of the single table at `version`. Built
    /// the first time an arm probes it, extended by each append, dropped
    /// by any other change. The index owns copies of its rows: a handle on
    /// the table's buffer would make every in-place append to that table a
    /// copy-on-write copy.
    index: Option<ops::RowIndex>,
}

impl Lineage {
    fn new(version: u64, grew_from: Option<(u64, usize)>) -> Lineage {
        Lineage {
            version,
            grew_from,
            index: None,
        }
    }
}

/// What the delta engine remembers across the iterations of one `while`
/// loop execution: lineage per name and one memo per body statement. The
/// loop driver in `eval` holds it for the loop's duration.
pub(crate) struct DeltaState {
    names: HashMap<Symbol, Lineage>,
    memos: Vec<Option<StmtMemo>>,
}

impl DeltaState {
    pub(crate) fn new(body_len: usize) -> DeltaState {
        DeltaState {
            names: HashMap::new(),
            memos: (0..body_len).map(|_| None).collect(),
        }
    }

    /// Record that `name` now holds the group `version`, its single table
    /// `t` when it has one, grown by appended rows from the version and
    /// height in `grew_from` when that is set. A row index follows an
    /// append onto the version it describes; any other change drops it.
    fn record(
        &mut self,
        name: Symbol,
        version: u64,
        grew_from: Option<(u64, usize)>,
        t: Option<&Table>,
    ) {
        let mut entry = Lineage::new(version, grew_from);
        if let (Some(old), Some((from, base)), Some(t)) = (self.names.remove(&name), grew_from, t) {
            entry.index = old.index.filter(|_| old.version == from).map(|mut index| {
                index.extend(t, base + 1);
                index
            });
        }
        self.names.insert(name, entry);
    }
}

/// The first row of `t`, the current table of argument `slot`, that the
/// statement memoized in `memo` has not read: past the end when the
/// argument's version is the one `memo` read, the first appended row
/// when its group has since grown from that version by appends only, and
/// `None` otherwise.
fn first_unseen(
    names: &HashMap<Symbol, Lineage>,
    memo: &StmtMemo,
    reads: &[Symbol],
    versions: &[u64],
    slot: usize,
    t: &Table,
) -> Option<usize> {
    let seen = memo.read_versions[slot];
    if versions[slot] == seen {
        return Some(t.height() + 1);
    }
    let lineage = names.get(&reads[slot])?;
    match lineage.grew_from {
        Some((from, base)) if from == seen && lineage.version == versions[slot] => Some(base + 1),
        _ => None,
    }
}

/// The row index of `t`, the single table `name` holds at `version`: the
/// one its lineage keeps, or one built now. With `grown_only`, a name
/// whose last change was not an append gets none: an index pays for
/// itself on a name that keeps growing, not on one replaced every
/// iteration.
fn row_index<'a>(
    names: &'a mut HashMap<Symbol, Lineage>,
    name: Symbol,
    version: u64,
    t: &Table,
    grown_only: bool,
) -> Option<&'a ops::RowIndex> {
    let lineage = names
        .entry(name)
        .or_insert_with(|| Lineage::new(version, None));
    if lineage.version != version {
        *lineage = Lineage::new(version, None);
    }
    if lineage.index.is_none() && !(grown_only && lineage.grew_from.is_none()) {
        lineage.index = Some(ops::RowIndex::of_rows(t));
    }
    lineage.index.as_ref()
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
        run_statement(kw, false, metrics, |m| {
            let outcome = plan_step(st, idx, a, target, &reads, &read_versions, db, cx, m)
                .and_then(|step| commit(st, idx, kw, target, read_versions, step, db, cx, m));
            if outcome.is_err() {
                // A failed statement must leave no bookkeeping claiming
                // its output is current: a retry with larger limits would
                // otherwise delta-skip against a stale memo (or extend
                // stale append lineage) and disagree with naive
                // re-evaluation.
                st.memos[idx] = None;
                st.names.remove(&target);
            }
            outcome
        })?;
    }
    Ok(())
}

/// One body statement's step, as [`plan_step`] chose it.
enum Step {
    /// Extend the statement's cached output by `rows` rows from `source`.
    Append { source: Source, rows: usize },
    /// Replace the target's group with `results`; `incremental` when the
    /// incremental `DIFFERENCE` computed them.
    Fresh {
        results: Vec<Table>,
        incremental: bool,
    },
}

/// Where an append step's rows come from: a row-range kernel of the
/// operation's own evaluation, run over the input rows the cached output
/// has not seen. Operand handles are O(1) clones sharing the store's
/// buffers, taken before the commit touches the store, so a statement
/// reading its own target still sees the pre-statement rows.
enum Source {
    /// `PRODUCT`: `r`'s rows from `from` on, crossed with all of `s`.
    Product { r: Table, s: Table, from: usize },
    /// `FUSEDJOIN`: the matches of `r`'s new rows, counted while planning;
    /// `partitioned` when those rows reached the partition threshold.
    Join {
        probe: Box<ops::JoinProbe>,
        partitioned: bool,
    },
    /// `RENAME`, `COPY`: `r`'s storage rows from `from` on, unchanged (only
    /// the attribute row differs, and the cached output already has it).
    Tail { r: Table, from: usize },
    /// Selections: the storage rows `rows` of `r`.
    Rows { r: Table, rows: Vec<usize> },
    /// `PROJECT` and classical union: storage rows already built by the
    /// operation's kernel, laid end to end.
    Cells(Vec<Symbol>),
}

impl Source {
    /// Append the rows to `out`. A join only scatters: its matches were
    /// counted (and its index built) while planning, and the commit
    /// admitted the whole output first, so the scatter polls the governor
    /// but charges nothing. Returns the join's per-range report when its
    /// new rows reached [`crate::EvalLimits::partition_threshold`], and an
    /// empty one for every other source.
    fn append_to(self, out: &mut Table, cx: Exec<'_>) -> Result<Vec<ops::PartitionShard>> {
        match self {
            Source::Product { r, s, from } => ops::product_append(out, &r, from, &s),
            Source::Join { probe, partitioned } => {
                let report = probe.scatter(out, cx.pool, &|| cx.gov.poll())?;
                if partitioned {
                    return Ok(report);
                }
            }
            Source::Tail { r, from } => ops::traditional::push_rows(out, &r, from..=r.height()),
            Source::Rows { r, rows } => ops::traditional::push_rows(out, &r, rows),
            Source::Cells(cells) => ops::traditional::push_cells(out, &cells),
        }
        Ok(Vec::new())
    }
}

/// Choose one body statement's step: the incremental one when
/// [`incremental_step`] finds one, else fresh results from
/// `compute_results`.
#[allow(clippy::too_many_arguments)] // internal plumbing of the delta loop
fn plan_step(
    st: &mut DeltaState,
    idx: usize,
    a: &Assignment,
    target: Symbol,
    reads: &[Symbol],
    versions: &[u64],
    db: &Database,
    cx: Exec<'_>,
    metrics: &mut Metrics,
) -> Result<Step> {
    match incremental_step(st, idx, a, target, reads, versions, db, cx, metrics) {
        Some(step) => step,
        None => Ok(Step::Fresh {
            results: compute_results(a, db, cx, metrics)?,
            incremental: false,
        }),
    }
}

/// The incremental step of one body statement, if it has one.
///
/// `DIFFERENCE(R, S)` over single tables with the same pairwise-distinct
/// column attributes, where [`ops::difference`] matches whole storage
/// rows, filters against the row index of `S` when `S` grew by appends.
/// When the statement's previous output is cached and since then `R` and
/// `S` each grew by appends or stayed unchanged, the output is the cached
/// rows not in `S`, followed by `R`'s appended rows not in `S`.
/// Difference is a row-wise filter, "keep a row of `R` not matched by any
/// row of `S`", so with `R = R₀ · ΔR` the output is `(R₀ \ S) · (ΔR \ S)`
/// in `R`'s row order, which is [`ops::difference`]'s order. And
/// `S ⊇ S₀` gives `R₀ \ S = (R₀ \ S₀) \ S`: the cached rows are filtered
/// again, since rows appended to `S` may match them. Otherwise all of `R`
/// is filtered against the index. Both cost one probe per filtered row,
/// not a hash of `S`.
///
/// Every other arm appends: the statement has its previous single-table
/// output cached, and its input grew only by appended rows since (the
/// left operand only, for products and joins: appended right rows would
/// interleave with the left-major output order), so the new output is
/// the cached one plus the rows the input's new rows contribute. Width
/// guards are defensive: under valid append lineage the input's
/// attribute row, hence every derived shape, is unchanged.
///
/// Planning reads the store and never writes it. A join's count pass
/// polls the governor, so planning can fail.
#[allow(clippy::too_many_arguments)] // internal plumbing of the delta loop
fn incremental_step(
    st: &mut DeltaState,
    idx: usize,
    a: &Assignment,
    target: Symbol,
    reads: &[Symbol],
    versions: &[u64],
    db: &Database,
    cx: Exec<'_>,
    metrics: &mut Metrics,
) -> Option<Result<Step>> {
    let DeltaState { names, memos } = st;
    let single = |slot: usize| single(db, reads[slot]);
    if let OpKind::Difference = a.op {
        let (r, s) = (single(0)?, single(1)?);
        if !aligned_distinct_schemes(r, s) {
            return None;
        }
        // The cached output and the first of `R`'s rows not yet filtered
        // into it, when both operands only grew since it was computed.
        let cached = memos[idx].as_ref().and_then(|memo| {
            let out = memo.cached_output.as_ref()?;
            first_unseen(names, memo, reads, versions, 1, s)?;
            let from = first_unseen(names, memo, reads, versions, 0, r)?;
            (out.width() == r.width()).then_some((out, from))
        });
        let index = row_index(names, reads[1], versions[1], s, true)?;
        let mut out = r.select_rows(&[]);
        out.set_name(target);
        let from = cached.map_or(1, |(cached, from)| {
            difference_rows(&mut out, cached, 1, index);
            from
        });
        difference_rows(&mut out, r, from, index);
        metrics.note_matched(1, table_cells(r) + table_cells(s));
        return Some(Ok(Step::Fresh {
            results: vec![out],
            incremental: true,
        }));
    }

    let memo = memos[idx].as_ref()?;
    let out = memo.cached_output.as_ref()?;
    let fits = |width: usize| (width == out.width()).then_some(());
    let unseen = |slot: usize, t: &Table| first_unseen(names, memo, reads, versions, slot, t);
    let (source, rows) = match &a.op {
        OpKind::Product | OpKind::FusedJoin { .. } => {
            if versions[1] != memo.read_versions[1] {
                return None;
            }
            let (r, s) = (single(0)?, single(1)?);
            fits(r.width() + s.width())?;
            let from = unseen(0, r)?;
            match &a.op {
                OpKind::FusedJoin { a: pa, b: pb } => {
                    // The fusion columns are re-resolved against the current
                    // operands; a pair the kernel cannot fuse plans nothing and
                    // falls through to `compute_results`, whose fallback runs the
                    // unfused pipeline. The count runs now, so that the commit
                    // charges the actual join output before any row
                    // materializes.
                    let cols = ops::fusable_join_cols(r, s, pa.as_ground()?, pb.as_ground()?)?;
                    let fanout = join_fanout(cx, r.height() + 1 - from);
                    let poll = || cx.gov.poll();
                    let probe = match ops::JoinProbe::count(
                        r,
                        from,
                        s,
                        cols,
                        cx.pool,
                        fanout.unwrap_or(1),
                        &poll,
                    ) {
                        Ok(probe) => probe,
                        Err(e) => return Some(Err(e)),
                    };
                    // The step is the hash-join kernel over the new rows: record
                    // the fusion decision exactly as the fresh evaluation does.
                    metrics.stats.join_fused += 1;
                    metrics.note_fusion("fused-join");
                    let rows = probe.rows();
                    let probe = Box::new(probe);
                    let partitioned = fanout.is_some();
                    (Source::Join { probe, partitioned }, rows)
                }
                _ => {
                    let rows = (r.height() + 1 - from) * s.height();
                    let (r, s) = (r.clone(), s.clone());
                    (Source::Product { r, s, from }, rows)
                }
            }
        }
        OpKind::Copy | OpKind::Rename { .. } => {
            if let OpKind::Rename { from, to } = &a.op {
                from.as_ground()?;
                to.as_ground()?;
            }
            let r = single(0)?;
            fits(r.width())?;
            let from = unseen(0, r)?;
            let rows = r.height() + 1 - from;
            (Source::Tail { r: r.clone(), from }, rows)
        }
        OpKind::Select { a: pa, b: pb } | OpKind::SelectConst { a: pa, v: pb } => {
            let (x, y) = (pa.as_ground()?, pb.as_ground()?);
            let r = single(0)?;
            fits(r.width())?;
            let from = unseen(0, r)?;
            let rows = if let OpKind::Select { .. } = a.op {
                ops::traditional::select_matches(r, from, x, y)
            } else {
                ops::traditional::select_const_matches(r, from, x, y)
            };
            let n = rows.len();
            (Source::Rows { r: r.clone(), rows }, n)
        }
        OpKind::Project { attrs } if attrs.is_rigid() => {
            let r = single(0)?;
            let cols = r.cols_in(&attrs.rigid_set());
            fits(cols.len())?;
            let from = unseen(0, r)?;
            let rows = r.height() + 1 - from;
            let mut cells = Vec::with_capacity(rows * (cols.len() + 1));
            ops::traditional::projected_rows(r, &cols, from, &mut cells);
            (Source::Cells(cells), rows)
        }
        OpKind::ClassicalUnion => {
            // The self-accumulation pattern `TC ← TC ∪ Δ`: the left
            // operand must be exactly this statement's previous output
            // (by version), without repeated rows (the union would merge
            // them), and both operands must be where classical union is
            // its row-set kernel. The step then appends the rows of `Δ`
            // the accumulator's index lacks: O(|Δ|) instead of the full
            // union → purge → clean-up pipeline.
            if versions[0] != memo.target_version {
                return None;
            }
            let acc = row_index(names, reads[0], versions[0], out, false)?;
            let s = single(1)?;
            if acc.len() != out.height() || !aligned_distinct_schemes(out, s) {
                return None;
            }
            let fresh = ops::redundancy::union_new_rows(acc, s);
            let rows = fresh.len();
            (Source::Cells(fresh.into_rows()), rows)
        }
        _ => return None,
    };
    Some(Ok(Step::Append { source, rows }))
}

/// Settle one body statement's step: commit it to the store, record the
/// target's lineage, write the statement's memo, and count an
/// incremental step under its keyword `kw`.
#[allow(clippy::too_many_arguments)] // internal plumbing of the delta loop
fn commit(
    st: &mut DeltaState,
    idx: usize,
    kw: &'static str,
    target: Symbol,
    read_versions: Vec<u64>,
    step: Step,
    db: &mut Database,
    cx: Exec<'_>,
    metrics: &mut Metrics,
) -> Result<()> {
    let old_version = group_version(db, target);
    let incremental = !matches!(
        step,
        Step::Fresh {
            incremental: false,
            ..
        }
    );
    let (changed, grew_from, cached_output, produced) = match step {
        Step::Append { source, rows } => {
            // `incremental_step` plans an append only when the memo and
            // its cached output exist; if that ever breaks on this
            // partial-state path it must fail the run, not the process.
            let Some((from_version, mut out)) = st.memos[idx]
                .as_mut()
                .and_then(|memo| Some((memo.target_version, memo.cached_output.take()?)))
            else {
                return Err(AlgebraError::Internal {
                    what: "append step without a cached output",
                });
            };
            // The step extends a table instead of materializing one:
            // account the one full-size table naive re-execution would
            // produce.
            let base = out.height();
            let cells = (base + rows + 1) * (out.width() + 1);
            charge_production(1, cells, cells, cx, metrics)?;
            let in_place = old_version == from_version;
            if in_place {
                // The cached output is the target's sole table. Drop our
                // handle first so the store's copy is uniquely owned and
                // the append copies nothing. `update_named`'s closure
                // returns `()`, so the fallible (possibly partitioned)
                // append reports through a captured slot.
                drop(out);
                if rows > 0 {
                    let mut appended = Ok(Vec::new());
                    let committed = db.update_named(target, |t| appended = source.append_to(t, cx));
                    debug_assert!(committed, "in-place target is a unique table");
                    metrics.note_partitioned(&appended?);
                }
                let Some(t) = single(db, target) else {
                    return Err(AlgebraError::Internal {
                        what: "in-place append target vanished from the store",
                    });
                };
                out = t.clone();
            } else {
                // A later statement overwrote the target: extend the
                // cached handle and put it back, an O(1) insert. Its
                // fingerprint is taken before the clone, so the memo's
                // handle carries the fold the next append continues.
                if rows > 0 {
                    metrics.note_partitioned(&source.append_to(&mut out, cx)?);
                }
                out.fingerprint();
                db.replace(vec![out.clone()]);
            }
            let changed = !in_place || rows > 0;
            (
                changed,
                Some((from_version, base)),
                Some(out),
                (1, cells, cells),
            )
        }
        Step::Fresh { results, .. } => {
            check_results(&results, cx, metrics)?;
            let cells = results.iter().map(table_cells);
            let produced = (results.len(), cells.clone().sum(), cells.max().unwrap_or(0));
            // An empty result set (no argument combination matched)
            // leaves the database untouched, exactly as
            // `Database::replace` does.
            let change = if results.is_empty() {
                Change::Unchanged
            } else {
                classify_change(&db.tables_named(target), &results)
            };
            // Keep a handle on a single-table output for future append
            // steps; cloning shares the cell buffer, so this is O(1). The
            // fingerprint is taken first (the insert below needs it
            // anyway) so that the cached handle carries the fold its
            // appends continue.
            let cached_output = (results.len() == 1).then(|| {
                results[0].fingerprint();
                results[0].clone()
            });
            let grew_from = match change {
                Change::Append { base_height } => Some((old_version, base_height)),
                Change::Unchanged | Change::Replaced => None,
            };
            let changed = !matches!(change, Change::Unchanged);
            if changed {
                db.replace(results);
                check_table_count(db, cx.limits)?;
            }
            (changed, grew_from, cached_output, produced)
        }
    };
    let version = group_version(db, target);
    if changed {
        let t = cached_output.as_ref().or_else(|| single(db, target));
        st.record(target, version, grew_from, t);
    }
    let (produced_tables, produced_cells, produced_max_cells) = produced;
    st.memos[idx] = Some(StmtMemo {
        read_versions,
        target_version: version,
        cached_output,
        produced_tables,
        produced_cells,
        produced_max_cells,
    });
    if incremental {
        metrics.note_incremental(kw);
    }
    Ok(())
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
        // later `Source::Join` append through the partitioned delta
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
        // One `incremental` span per statement an incremental arm ran.
        assert!(stats.while_delta_incremental > 0, "{stats:?}");
        assert_eq!(
            trace.decision_counts().get("incremental"),
            Some(&stats.while_delta_incremental)
        );
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
        assert_eq!(stats.while_iterations, 3, "three iterations");
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
}
