//! Fused hash join: `SELECT_{A=B}(PRODUCT(R, S))` without the product.
//!
//! The paper expresses joins as a Cartesian product followed by a weak
//! selection, and the relational compiler (Theorem 4.1) emits exactly that
//! chain — materializing `O(|ρ|·|σ|)` rows only to discard almost all of
//! them. When the two selection attributes each resolve to exactly one
//! column on opposite operands, the per-row entry sets are singletons and
//! weak equality degenerates to plain symbol equality (`{⊥} ≗ {⊥}` holds,
//! `{⊥} ≗ {v}` does not), so the selection can be pushed into the product
//! as a classical hash join: build a map from `σ`'s key column, probe with
//! `ρ`'s, and emit only the matching product rows. Output rows are
//! byte-identical to the unfused pipeline, in the same left-major order.
//!
//! [`fusable_join_cols`] is the applicability check; anything outside it
//! (repeated attributes, attributes spanning one operand, `A = A`) must
//! fall back to the unfused `product` + `select` pipeline, because weak
//! equality then compares entry *sets* spanning both operands.

use std::collections::HashMap;
use std::time::Instant;

use crate::error::Result;
use crate::pool::Executor;
use tabular_core::{Symbol, Table};

/// Resolved key columns for a fusable join: `left` is a data-column index
/// of `ρ`, `right` of `σ` (both 1-based), normalized so the probe side is
/// always the left operand regardless of which of `A`/`B` landed on it
/// (weak equality is symmetric).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JoinCols {
    /// Key column in the left (probe) operand.
    pub left: usize,
    /// Key column in the right (build) operand.
    pub right: usize,
}

/// Decide whether `SELECT_{A=B}` over `PRODUCT(R, S)` can run as a hash
/// join, and if so on which columns.
///
/// Fusion requires `a` to occur as a column attribute exactly once across
/// the combined columns of `ρ` and `σ`, likewise `b`, and the two
/// occurrences to sit on *opposite* operands. Then each product row's
/// entry set under either attribute is the singleton holding that one
/// cell, and weak set equality is symbol equality. Everything else —
/// repeated attributes (entry sets spanning both operands), both
/// attributes on one operand, an attribute absent from both, or `a = b`
/// (a tautological selection, not a join) — returns `None`.
pub fn fusable_join_cols(r: &Table, s: &Table, a: Symbol, b: Symbol) -> Option<JoinCols> {
    if a == b {
        return None;
    }
    let (ra, sa) = (r.cols_named(a), s.cols_named(a));
    let (rb, sb) = (r.cols_named(b), s.cols_named(b));
    match (ra.len(), sa.len(), rb.len(), sb.len()) {
        (1, 0, 0, 1) => Some(JoinCols {
            left: ra[0],
            right: sb[0],
        }),
        (0, 1, 1, 0) => Some(JoinCols {
            left: rb[0],
            right: sa[0],
        }),
        _ => None,
    }
}

/// `T ← FUSEDJOIN_{A=B}(R, S)`: the fused evaluation of
/// `SELECT_{A=B}(PRODUCT(R, S))` on columns resolved by
/// [`fusable_join_cols`]. Output equals the unfused pipeline exactly
/// (header, row order, row attributes) but peak allocation is
/// `O(|ρ| + |σ| + |output|)`.
pub fn join(r: &Table, s: &Table, cols: JoinCols, name: Symbol) -> Table {
    let width = r.width() + s.width();
    let mut t = Table::new(name, 0, width);
    for j in 1..=r.width() {
        t.set(0, j, r.col_attr(j));
    }
    for j in 1..=s.width() {
        t.set(0, r.width() + j, s.col_attr(j));
    }
    join_append(&mut t, r, 1, s, cols);
    t
}

/// Append to `acc` the joined rows `ρᵢ × σₖ` with matching keys, for every
/// `i ≥ from_row`, in the left-major order [`join`] (and `product`) use.
/// Returns the number of rows appended.
///
/// This is the incremental step of the delta `while` strategy, mirroring
/// [`product_append`](crate::ops::product_append): when `ρ` has only grown
/// by appended rows and `σ` is unchanged, probing the new rows alone
/// produces exactly the join's new output.
pub fn join_append(
    acc: &mut Table,
    r: &Table,
    from_row: usize,
    s: &Table,
    cols: JoinCols,
) -> usize {
    debug_assert_eq!(
        acc.width(),
        r.width() + s.width(),
        "join_append width mismatch"
    );
    if from_row > r.height() {
        return 0;
    }
    let index = build_index(s, cols.right);
    acc.append_rows(|rows| {
        let mut appended = 0;
        for i in from_row..=r.height() {
            let Some(matches) = index.get(&r.get(i, cols.left)) else {
                continue;
            };
            for &k in matches {
                let attr = r.get(i, 0).join(s.get(k, 0)).unwrap_or_else(|| r.get(i, 0));
                rows.push_row_parts(attr, r.data_row(i), s.data_row(k));
            }
            appended += matches.len();
        }
        appended
    })
}

/// Probe rows processed between governor polls inside a partition, so a
/// cancellation or deadline trip is observed promptly even when one
/// partition is large.
const POLL_STRIDE: usize = 4096;

/// Per-shard observability from a partitioned join: how many output rows
/// the shard produced and how long its jobs ran (probe-count plus scatter
/// passes, wall time in microseconds on the worker that ran them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionShard {
    /// Output rows this shard wrote.
    pub rows: usize,
    /// Wall time of the shard's count + scatter jobs, in microseconds.
    pub wall_micros: u128,
}

/// Partition-parallel [`join`]: split the probe side `ρ` into `shards`
/// contiguous row ranges, build **one** shared hash index of `σ`, probe
/// the ranges in parallel on `pool`, and splice the per-range outputs
/// back in exact left-major order. The output is **byte-identical** to
/// [`join`] — same header, same row order, same row attributes — because
/// range `p` writes precisely the rows the serial loop would have
/// emitted for probe rows in that range, into the exact offsets a prefix
/// sum over the per-range match counts assigns.
///
/// `poll` is called between `POLL_STRIDE`-row chunks on every worker
/// (cooperative cancellation / deadline checks); `charge` is called once
/// per partition with the data cells that partition is about to
/// materialize, *before* the output buffer grows — the governor's
/// admission control, per-partition as PRs 5–6 charged per statement.
/// The first error in shard order wins, so trips are deterministic.
///
/// Returns the joined table and one [`PartitionShard`] per range.
#[allow(clippy::too_many_arguments)]
pub fn join_partitioned(
    r: &Table,
    s: &Table,
    cols: JoinCols,
    name: Symbol,
    pool: &Executor,
    shards: usize,
    poll: &(dyn Fn() -> Result<()> + Sync),
    charge: &mut dyn FnMut(usize) -> Result<()>,
) -> Result<(Table, Vec<PartitionShard>)> {
    let width = r.width() + s.width();
    let mut t = Table::new(name, 0, width);
    for j in 1..=r.width() {
        t.set(0, j, r.col_attr(j));
    }
    for j in 1..=s.width() {
        t.set(0, r.width() + j, s.col_attr(j));
    }
    let report = join_append_partitioned(&mut t, r, 1, s, cols, pool, shards, poll, charge)?;
    Ok((t, report))
}

/// Partition-parallel [`join_append`]: the incremental delta step, run
/// across `pool` exactly like [`join_partitioned`] (which is this
/// function starting from probe row 1 on a fresh header). Appends, for
/// every probe row `i ≥ from_row`, the joined rows in serial left-major
/// order, byte-identical to [`join_append`].
///
/// Two passes per shard over its probe range: count matches (so a prefix
/// sum can pre-size the output buffer exactly and hand each shard a
/// disjoint `&mut` window), then scatter the rows. On error the
/// accumulator may hold a partially written (⊥-padded) extension; every
/// caller aborts the run and discards the database on `Err`, so no
/// partially joined table is ever observable.
#[allow(clippy::too_many_arguments)]
pub fn join_append_partitioned(
    acc: &mut Table,
    r: &Table,
    from_row: usize,
    s: &Table,
    cols: JoinCols,
    pool: &Executor,
    shards: usize,
    poll: &(dyn Fn() -> Result<()> + Sync),
    charge: &mut dyn FnMut(usize) -> Result<()>,
) -> Result<Vec<PartitionShard>> {
    debug_assert_eq!(
        acc.width(),
        r.width() + s.width(),
        "join_append width mismatch"
    );
    if from_row > r.height() {
        return Ok(Vec::new());
    }
    let index = build_index(s, cols.right);
    let probe_rows = r.height() + 1 - from_row;
    let shards = shards.clamp(1, probe_rows);
    let per_shard = probe_rows.div_ceil(shards);
    let ranges: Vec<(usize, usize)> = (0..shards)
        .map(|p| {
            let lo = from_row + p * per_shard;
            (lo, (lo + per_shard).min(r.height() + 1))
        })
        .take_while(|&(lo, hi)| lo < hi)
        .collect();

    // Pass 1: count matches per range, in parallel. Each shard re-probes
    // in pass 2 rather than buffering match lists: re-probing costs a
    // second scan of the shared index, but keeps the kernel's allocation
    // at exactly the output size — partitioning must never raise peak
    // memory over the serial kernel (alloc-regression guard 8).
    let mut counts: Vec<Option<(Result<usize>, u128)>> = vec![None; ranges.len()];
    {
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = counts
            .iter_mut()
            .zip(&ranges)
            .map(|(slot, &(lo, hi))| {
                let index = &index;
                Box::new(move || {
                    let start = Instant::now();
                    let mut n = 0usize;
                    let mut out = Ok(());
                    for i in lo..hi {
                        if (i - lo) % POLL_STRIDE == 0 {
                            if let Err(e) = poll() {
                                out = Err(e);
                                break;
                            }
                        }
                        n += index.get(&r.get(i, cols.left)).map_or(0, Vec::len);
                    }
                    *slot = Some((out.map(|()| n), start.elapsed().as_micros()));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scoped(jobs);
    }
    let mut shard_rows = Vec::with_capacity(ranges.len());
    let mut shard_micros = Vec::with_capacity(ranges.len());
    for slot in counts {
        let (n, micros) = slot.expect("partition count job did not run");
        shard_rows.push(n?);
        shard_micros.push(micros);
    }

    // Admission control before the buffer grows: charge each partition's
    // data cells in shard order on the evaluating thread.
    let row_width = acc.width() + 1;
    for &rows in &shard_rows {
        charge(rows * row_width)?;
    }

    // Pass 2: one exact-size extension, then scatter in parallel into
    // disjoint per-shard row windows. Offsets come from the prefix sum of
    // the pass-1 counts, so shard p's window starts exactly where the
    // serial loop would have been when reaching probe row `ranges[p].0`.
    // The extension is handed out uninitialized — prefilling it with ⊥
    // would serially memset the exact bytes the shards are about to
    // write in parallel, and on a 1M-row join that memset alone rivals a
    // shard's whole scatter.
    let total_rows: usize = shard_rows.iter().sum();
    let mut writes: Vec<Option<(Result<()>, u128)>> = vec![None; ranges.len()];
    // SAFETY: `scoped` drains every submitted job before returning, and
    // each job either writes its entire window (pass 1 counted exactly
    // `rows` matches for its range, and `r`/`s`/`index` are unchanged
    // between passes) or, after an error mid-range, ⊥-fills the window's
    // remainder before returning — so the whole extension is initialized
    // when the closure completes.
    unsafe {
        acc.append_rows_uninit(total_rows, |fresh| {
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ranges.len());
            let mut rest = fresh;
            for ((slot, &(lo, hi)), &rows) in writes.iter_mut().zip(&ranges).zip(&shard_rows) {
                let (mine, tail) = rest.split_at_mut(rows * row_width);
                rest = tail;
                let index = &index;
                jobs.push(Box::new(move || {
                    let start = Instant::now();
                    let mut off = 0usize;
                    let mut out = Ok(());
                    'scatter: for i in lo..hi {
                        if (i - lo) % POLL_STRIDE == 0 {
                            if let Err(e) = poll() {
                                out = Err(e);
                                break 'scatter;
                            }
                        }
                        let Some(matches) = index.get(&r.get(i, cols.left)) else {
                            continue;
                        };
                        for &k in matches {
                            let attr = r.get(i, 0).join(s.get(k, 0)).unwrap_or_else(|| r.get(i, 0));
                            let dst = &mut mine[off..off + row_width];
                            dst[0].write(attr);
                            for (d, &v) in dst[1..].iter_mut().zip(r.data_row(i)) {
                                d.write(v);
                            }
                            for (d, &v) in dst[r.width() + 1..].iter_mut().zip(s.data_row(k)) {
                                d.write(v);
                            }
                            off += row_width;
                        }
                    }
                    debug_assert!(out.is_err() || off == rows * row_width);
                    // Initialization guarantee on the error path: the
                    // run is aborting, but the buffer must still hold
                    // only valid symbols when the extension commits.
                    for cell in &mut mine[off..] {
                        cell.write(Symbol::Null);
                    }
                    *slot = Some((out, start.elapsed().as_micros()));
                }));
            }
            pool.scoped(jobs);
        });
    }
    let mut report = Vec::with_capacity(ranges.len());
    for ((slot, rows), probe_micros) in writes.into_iter().zip(shard_rows).zip(shard_micros) {
        let (outcome, micros) = slot.expect("partition scatter job did not run");
        outcome?;
        report.push(PartitionShard {
            rows,
            wall_micros: probe_micros + micros,
        });
    }
    Ok(report)
}

/// Count the rows [`join_append`] would append, without appending. Used by
/// the delta planner to size the output (and charge the governor) before
/// committing to the incremental plan.
pub fn count_join_matches(r: &Table, from_row: usize, s: &Table, cols: JoinCols) -> usize {
    if from_row > r.height() {
        return 0;
    }
    let index = build_index(s, cols.right);
    (from_row..=r.height())
        .map(|i| index.get(&r.get(i, cols.left)).map_or(0, Vec::len))
        .sum()
}

/// Hash the build side's key column: key symbol → ascending row indices.
/// ⊥ keys are indexed like any other symbol, so ⊥ joins exactly ⊥ — the
/// singleton-weak-equality semantics the fusion precondition guarantees.
fn build_index(s: &Table, key_col: usize) -> HashMap<Symbol, Vec<usize>> {
    let mut index: HashMap<Symbol, Vec<usize>> = HashMap::new();
    for k in 1..=s.height() {
        index.entry(s.get(k, key_col)).or_default().push(k);
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{product, select};

    fn nm(x: &str) -> Symbol {
        Symbol::name(x)
    }

    fn unfused(r: &Table, s: &Table, a: Symbol, b: Symbol, name: Symbol) -> Table {
        select(&product(r, s, nm("scratch")), a, b, name)
    }

    #[test]
    fn fusable_requires_singleton_columns_on_opposite_operands() {
        let r = Table::relational("R", &["A", "B"], &[&["1", "2"]]);
        let s = Table::relational("S", &["C", "D"], &[&["2", "3"]]);
        assert_eq!(
            fusable_join_cols(&r, &s, nm("B"), nm("C")),
            Some(JoinCols { left: 2, right: 1 })
        );
        // Swapped attribute roles normalize to the same columns.
        assert_eq!(
            fusable_join_cols(&r, &s, nm("C"), nm("B")),
            Some(JoinCols { left: 2, right: 1 })
        );
        // Both attributes on one operand: not a join.
        assert_eq!(fusable_join_cols(&r, &s, nm("A"), nm("B")), None);
        // Absent attribute.
        assert_eq!(fusable_join_cols(&r, &s, nm("B"), nm("Z")), None);
        // A = A is a tautology, not a join.
        assert_eq!(fusable_join_cols(&r, &s, nm("B"), nm("B")), None);
        // Repeated attribute across operands: entry sets span both.
        let s2 = Table::relational("S", &["B", "C"], &[&["2", "3"]]);
        assert_eq!(fusable_join_cols(&r, &s2, nm("B"), nm("C")), None);
    }

    #[test]
    fn join_matches_unfused_pipeline_exactly() {
        let r = Table::relational(
            "R",
            &["A", "B"],
            &[&["1", "2"], &["3", "2"], &["5", "6"], &["7", "8"]],
        );
        let s = Table::relational(
            "S",
            &["C", "D"],
            &[&["2", "x"], &["2", "y"], &["8", "z"], &["9", "w"]],
        );
        let cols = fusable_join_cols(&r, &s, nm("B"), nm("C")).unwrap();
        let fused = join(&r, &s, cols, nm("T"));
        let reference = unfused(&r, &s, nm("B"), nm("C"), nm("T"));
        assert_eq!(fused, reference);
        assert_eq!(fused.height(), 5); // 2×{x,y} twice + 8×z once
    }

    #[test]
    fn null_keys_join_only_null_keys() {
        // {⊥} ≗ {⊥} holds but {⊥} ≗ {v} does not: ⊥ is its own key.
        let r = Table::from_grid(&[&["R", "A"], &["_", "_"], &["_", "v"]]).unwrap();
        let s = Table::from_grid(&[&["S", "B"], &["_", "_"], &["_", "w"]]).unwrap();
        let cols = fusable_join_cols(&r, &s, nm("A"), nm("B")).unwrap();
        let fused = join(&r, &s, cols, nm("T"));
        assert_eq!(fused, unfused(&r, &s, nm("A"), nm("B"), nm("T")));
        assert_eq!(fused.height(), 1); // only ⊥ ⋈ ⊥
    }

    #[test]
    fn join_append_from_row_matches_tail_of_full_join() {
        let r = Table::relational("R", &["A"], &[&["1"], &["2"], &["1"]]);
        let s = Table::relational("S", &["B"], &[&["1"], &["2"], &["1"]]);
        let cols = fusable_join_cols(&r, &s, nm("A"), nm("B")).unwrap();
        let full = join(&r, &s, cols, nm("T"));
        // Rebuild incrementally: first two probe rows, then the third.
        let r_prefix = r.retain_rows(|i| i <= 2);
        let mut acc = join(&r_prefix, &s, cols, nm("T"));
        let added = join_append(&mut acc, &r, 3, &s, cols);
        assert_eq!(acc, full);
        assert_eq!(added, 2);
        assert_eq!(count_join_matches(&r, 3, &s, cols), 2);
        assert_eq!(count_join_matches(&r, 1, &s, cols), full.height());
        assert_eq!(count_join_matches(&r, 4, &s, cols), 0);
    }

    #[test]
    fn join_partitioned_is_byte_identical_for_every_shard_count() {
        // Messy probe: ⊥ keys, duplicate keys, rows with no match, row
        // attributes that exercise the informational join.
        let r = Table::from_grid(&[
            &["R", "A", "X"],
            &["p", "1", "a"],
            &["_", "_", "b"],
            &["_", "2", "c"],
            &["q", "1", "d"],
            &["_", "9", "e"],
            &["_", "2", "f"],
            &["_", "1", "g"],
        ])
        .unwrap();
        let s = Table::from_grid(&[
            &["S", "B", "Y"],
            &["_", "1", "u"],
            &["r", "2", "v"],
            &["_", "_", "w"],
            &["_", "1", "x"],
        ])
        .unwrap();
        let cols = fusable_join_cols(&r, &s, nm("A"), nm("B")).unwrap();
        let serial = join(&r, &s, cols, nm("T"));
        assert_eq!(serial, unfused(&r, &s, nm("A"), nm("B"), nm("T")));
        let pool = Executor::new(2);
        for shards in [1, 2, 3, 7, 8, 64] {
            let mut charged = 0usize;
            let (part, report) = join_partitioned(
                &r,
                &s,
                cols,
                nm("T"),
                &pool,
                shards,
                &|| Ok(()),
                &mut |cells| {
                    charged += cells;
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(part, serial, "shards={shards}");
            // Shard count clamps to the probe height; reported rows sum
            // to the output and charges cover exactly the data cells.
            assert_eq!(report.len(), shards.min(r.height()));
            let rows: usize = report.iter().map(|sh| sh.rows).sum();
            assert_eq!(rows, serial.height());
            assert_eq!(charged, serial.height() * (serial.width() + 1));
        }
    }

    #[test]
    fn join_append_partitioned_matches_serial_tail() {
        let r = Table::relational("R", &["A"], &[&["1"], &["2"], &["1"], &["2"], &["3"]]);
        let s = Table::relational("S", &["B"], &[&["1"], &["2"], &["1"]]);
        let cols = fusable_join_cols(&r, &s, nm("A"), nm("B")).unwrap();
        let full = join(&r, &s, cols, nm("T"));
        let r_prefix = r.retain_rows(|i| i <= 2);
        let pool = Executor::new(2);
        let mut acc = join(&r_prefix, &s, cols, nm("T"));
        let report =
            join_append_partitioned(&mut acc, &r, 3, &s, cols, &pool, 4, &|| Ok(()), &mut |_| {
                Ok(())
            })
            .unwrap();
        assert_eq!(acc, full);
        assert_eq!(report.len(), 3); // 3 probe rows, shard count clamped
        assert_eq!(
            report.iter().map(|sh| sh.rows).sum::<usize>(),
            count_join_matches(&r, 3, &s, cols)
        );
        // Empty tail: no shards, no rows, accumulator untouched.
        let report =
            join_append_partitioned(&mut acc, &r, 6, &s, cols, &pool, 4, &|| Ok(()), &mut |_| {
                Ok(())
            })
            .unwrap();
        assert!(report.is_empty());
        assert_eq!(acc, full);
    }

    #[test]
    fn join_partitioned_propagates_poll_and_charge_errors() {
        use crate::error::AlgebraError;
        let r = Table::relational("R", &["A"], &[&["1"], &["2"]]);
        let s = Table::relational("S", &["B"], &[&["1"], &["2"]]);
        let cols = fusable_join_cols(&r, &s, nm("A"), nm("B")).unwrap();
        let pool = Executor::new(2);
        let trip = || {
            Err(AlgebraError::LimitExceeded {
                what: "test poll",
                limit: 0,
                attempted: 1,
            })
        };
        let err =
            join_partitioned(&r, &s, cols, nm("T"), &pool, 2, &trip, &mut |_| Ok(())).unwrap_err();
        assert!(matches!(err, AlgebraError::LimitExceeded { what, .. } if what == "test poll"));
        // A charge refusal aborts before the output buffer grows.
        let err = join_partitioned(&r, &s, cols, nm("T"), &pool, 2, &|| Ok(()), &mut |_| {
            Err(AlgebraError::LimitExceeded {
                what: "test charge",
                limit: 0,
                attempted: 1,
            })
        })
        .unwrap_err();
        assert!(matches!(err, AlgebraError::LimitExceeded { what, .. } if what == "test charge"));
    }

    #[test]
    fn join_preserves_row_attributes_via_informational_join() {
        let r = Table::from_grid(&[&["R", "A"], &["p", "1"], &["_", "2"]]).unwrap();
        let s = Table::from_grid(&[&["S", "B"], &["q", "1"], &["p", "2"]]).unwrap();
        let cols = fusable_join_cols(&r, &s, nm("A"), nm("B")).unwrap();
        let fused = join(&r, &s, cols, nm("T"));
        assert_eq!(fused, unfused(&r, &s, nm("A"), nm("B"), nm("T")));
        // p ⋈ q has no join: the left row attribute wins (left-biased rule).
        assert_eq!(fused.get(1, 0), nm("p"));
        // ⊥ absorbs: the 2-row pair carries the right side's p.
        assert_eq!(fused.get(2, 0), nm("p"));
    }
}
