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
//!
//! There is one kernel, in two passes. [`JoinProbe::count`] indexes
//! `σ`'s key column once, on the algebra's one row index, and counts the
//! matches of each contiguous range of probe rows; the caller reads the
//! total ([`JoinProbe::rows`]) and may refuse it before any output
//! exists. [`JoinProbe::scatter`] then appends the rows into one
//! exact-size extension, each range writing its own window. A fresh join scatters from probe row 1 into the
//! product's header ([`product_header`](crate::ops::product_header));
//! the delta engine's incremental step scatters the appended probe rows
//! into its cached output. With one range both
//! passes run on the calling thread; with more they fan out on the
//! executor, and the output is the same bytes either way, because
//! ranges are contiguous and windows are placed by prefix sums.

use std::time::Instant;

use super::row_index::RowIndex;
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

/// Probe rows processed between governor polls inside a range, so a
/// cancellation or deadline trip is observed promptly even when one
/// range is large.
const POLL_STRIDE: usize = 4096;

/// Per-range observability of a join: how many output rows the range
/// produced and how long its count and scatter jobs ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionShard {
    /// Output rows this range wrote.
    pub rows: usize,
    /// Wall time of the range's count + scatter jobs, in microseconds.
    pub wall_micros: u128,
}

/// One contiguous range of probe rows `lo..hi`, with its match count and
/// the wall time of its count job.
struct ProbeRange {
    lo: usize,
    hi: usize,
    rows: usize,
    micros: u128,
}

/// A counted join: the key index of the build side `σ`, and the matches
/// of each probe range of `ρ`. Nothing of the output exists yet, so the
/// caller can admit or refuse [`JoinProbe::rows`] before
/// [`JoinProbe::scatter`] writes them. The operands are held as handles
/// (O(1) clones sharing the store's buffers), so a counted probe can
/// outlive the borrow it was counted from.
pub struct JoinProbe {
    r: Table,
    s: Table,
    cols: JoinCols,
    index: KeyIndex,
    ranges: Vec<ProbeRange>,
}

impl JoinProbe {
    /// The count pass of `FUSEDJOIN_{A=B}(ρ, σ)` for the probe rows
    /// `from_row..=ρ.height()`: build the index of `σ`'s key column once,
    /// split the probe rows into at most `shards` contiguous ranges, and
    /// count each range's matches on `pool` (one range runs on the
    /// calling thread). `poll` is called every 4 096 rows of each range;
    /// the first error in range order wins.
    pub fn count(
        r: &Table,
        from_row: usize,
        s: &Table,
        cols: JoinCols,
        pool: &Executor,
        shards: usize,
        poll: &(dyn Fn() -> Result<()> + Sync),
    ) -> Result<JoinProbe> {
        let index = KeyIndex::build(s, cols.right);
        let end = r.height() + 1;
        let per_range = end.saturating_sub(from_row).div_ceil(shards.max(1)).max(1);
        let spans = (from_row..end)
            .step_by(per_range)
            .map(|lo| (lo, (lo + per_range).min(end)));
        let counted = pool.map(spans, |(lo, hi)| {
            let start = Instant::now();
            let rows = (lo..hi).try_fold(0, |n, i| {
                if (i - lo) % POLL_STRIDE == 0 {
                    poll()?;
                }
                Ok(n + index.rows(r.get(i, cols.left)).len())
            })?;
            let micros = start.elapsed().as_micros();
            Ok(ProbeRange {
                lo,
                hi,
                rows,
                micros,
            })
        });
        Ok(JoinProbe {
            r: r.clone(),
            s: s.clone(),
            cols,
            index,
            ranges: counted.into_iter().collect::<Result<_>>()?,
        })
    }

    /// Output rows the scatter pass will append.
    pub fn rows(&self) -> usize {
        self.ranges.iter().map(|p| p.rows).sum()
    }

    /// The scatter pass: append to `acc` the joined rows `ρᵢ × σₖ` with
    /// matching keys for every counted probe row, in the left-major order
    /// (and with the left-biased row-attribute join) of `product`. The
    /// output grows by one extension of exactly [`JoinProbe::rows`] rows;
    /// each range writes its own window, on `pool` when there are
    /// several. Returns one [`PartitionShard`] per range.
    ///
    /// On error `acc` may hold a ⊥-padded extension; every caller aborts
    /// the run and discards the database on `Err`, so no partially
    /// joined table is ever observable.
    pub fn scatter(
        self,
        acc: &mut Table,
        pool: &Executor,
        poll: &(dyn Fn() -> Result<()> + Sync),
    ) -> Result<Vec<PartitionShard>> {
        let JoinProbe {
            r,
            s,
            cols,
            index,
            ranges,
        } = &self;
        debug_assert_eq!(acc.width(), r.width() + s.width(), "join width mismatch");
        let row_width = acc.width() + 1;
        let total = self.rows();
        // SAFETY: `map` returns only after every job has run, and each job
        // either writes its entire window (the count pass counted exactly
        // `rows` matches for its range over the same operands and index)
        // or, after an error mid-range, ⊥-fills the window's remainder —
        // so the whole extension is initialized when the closure returns.
        // A panicking job is resumed by `map` before the extension
        // commits, which leaves `acc` unchanged.
        let outcomes = unsafe {
            acc.append_rows_uninit(total, |fresh| {
                let mut rest = fresh;
                let windows = ranges.iter().map(|range| {
                    let (mine, tail) =
                        std::mem::take(&mut rest).split_at_mut(range.rows * row_width);
                    rest = tail;
                    (range, mine)
                });
                pool.map(windows, |(range, mine)| {
                    let start = Instant::now();
                    let mut rows = mine.chunks_exact_mut(row_width);
                    let out = (range.lo..range.hi).try_for_each(|i| {
                        if (i - range.lo) % POLL_STRIDE == 0 {
                            poll()?;
                        }
                        for &k in index.rows(r.get(i, cols.left)) {
                            let attr = r.get(i, 0).join(s.get(k, 0)).unwrap_or_else(|| r.get(i, 0));
                            let dst = rows.next().expect("the count pass sized the window");
                            dst[0].write(attr);
                            for (d, &v) in dst[1..].iter_mut().zip(r.data_row(i)) {
                                d.write(v);
                            }
                            for (d, &v) in dst[r.width() + 1..].iter_mut().zip(s.data_row(k)) {
                                d.write(v);
                            }
                        }
                        Ok(())
                    });
                    debug_assert!(out.is_err() || rows.len() == 0);
                    for cell in rows.flatten() {
                        cell.write(Symbol::Null);
                    }
                    out.map(|()| PartitionShard {
                        rows: range.rows,
                        wall_micros: range.micros + start.elapsed().as_micros(),
                    })
                })
            })
        };
        outcomes.into_iter().collect()
    }
}

/// The build side's key column, indexed: each distinct key is a
/// [`RowIndex`] id (rows of one symbol), and its build rows, ascending,
/// are `rows[starts[id]..starts[id + 1]]`. ⊥ is a key like any other
/// symbol, so ⊥ joins exactly ⊥ — the singleton-weak-equality semantics
/// the fusion precondition guarantees.
struct KeyIndex {
    keys: RowIndex,
    starts: Vec<usize>,
    rows: Vec<usize>,
}

impl KeyIndex {
    fn build(s: &Table, key_col: usize) -> KeyIndex {
        let mut keys = RowIndex::new(1, s.height());
        let ids: Vec<usize> = (1..=s.height())
            .map(|k| keys.insert(&[s.get(k, key_col)]).0)
            .collect();
        // Counting sort of the build rows by key id: a prefix sum of the
        // counts places each key's run, and filling in row order keeps
        // every run ascending.
        let mut starts = vec![0; keys.len() + 1];
        for &id in &ids {
            starts[id + 1] += 1;
        }
        for id in 1..starts.len() {
            starts[id] += starts[id - 1];
        }
        let mut next = starts.clone();
        let mut rows = vec![0; ids.len()];
        for (k, &id) in (1..).zip(&ids) {
            rows[next[id]] = k;
            next[id] += 1;
        }
        KeyIndex { keys, starts, rows }
    }

    /// The build rows whose key is `key`, ascending.
    fn rows(&self, key: Symbol) -> &[usize] {
        self.keys
            .id(&[key])
            .map_or(&[], |id| &self.rows[self.starts[id]..self.starts[id + 1]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{product, product_header, select};

    fn nm(x: &str) -> Symbol {
        Symbol::name(x)
    }

    fn unfused(r: &Table, s: &Table, a: Symbol, b: Symbol, name: Symbol) -> Table {
        select(&product(r, s, nm("scratch")), a, b, name)
    }

    /// A fresh join: the header plus a scatter from probe row 1.
    fn join_on(
        r: &Table,
        s: &Table,
        cols: JoinCols,
        pool: &Executor,
        shards: usize,
    ) -> (Table, Vec<PartitionShard>) {
        let probe = JoinProbe::count(r, 1, s, cols, pool, shards, &|| Ok(())).unwrap();
        let mut t = product_header(r, s, nm("T"));
        let report = probe.scatter(&mut t, pool, &|| Ok(())).unwrap();
        (t, report)
    }

    fn join(r: &Table, s: &Table, cols: JoinCols) -> Table {
        join_on(r, s, cols, &Executor::new(1), 1).0
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
        let fused = join(&r, &s, cols);
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
        let fused = join(&r, &s, cols);
        assert_eq!(fused, unfused(&r, &s, nm("A"), nm("B"), nm("T")));
        assert_eq!(fused.height(), 1); // only ⊥ ⋈ ⊥
    }

    #[test]
    fn scatter_from_row_matches_tail_of_full_join() {
        let r = Table::relational("R", &["A"], &[&["1"], &["2"], &["1"], &["2"], &["3"]]);
        let s = Table::relational("S", &["B"], &[&["1"], &["2"], &["1"]]);
        let cols = fusable_join_cols(&r, &s, nm("A"), nm("B")).unwrap();
        let full = join(&r, &s, cols);
        let r_prefix = r.retain_rows(|i| i <= 2);
        let pool = Executor::new(2);
        for shards in [1, 4] {
            // Rebuild incrementally: the first two probe rows, then the rest.
            let mut acc = join(&r_prefix, &s, cols);
            let probe = JoinProbe::count(&r, 3, &s, cols, &pool, shards, &|| Ok(())).unwrap();
            assert_eq!(probe.rows(), 3);
            let report = probe.scatter(&mut acc, &pool, &|| Ok(())).unwrap();
            assert_eq!(acc, full, "shards={shards}");
            // 3 probe rows: the range count is clamped to them.
            assert_eq!(report.len(), shards.min(3));
            assert_eq!(report.iter().map(|sh| sh.rows).sum::<usize>(), 3);
            // Empty tail: no ranges, no rows, accumulator untouched.
            let probe = JoinProbe::count(&r, 6, &s, cols, &pool, shards, &|| Ok(())).unwrap();
            assert_eq!(probe.rows(), 0);
            assert!(probe
                .scatter(&mut acc, &pool, &|| Ok(()))
                .unwrap()
                .is_empty());
            assert_eq!(acc, full);
        }
    }

    #[test]
    fn every_shard_count_is_byte_identical() {
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
        let serial = join(&r, &s, cols);
        assert_eq!(serial, unfused(&r, &s, nm("A"), nm("B"), nm("T")));
        let pool = Executor::new(2);
        for shards in [1, 2, 3, 7, 8, 64] {
            let (part, report) = join_on(&r, &s, cols, &pool, shards);
            assert_eq!(part, serial, "shards={shards}");
            // The range count clamps to the probe height; reported rows
            // sum to the output.
            assert_eq!(report.len(), shards.min(r.height()));
            let rows: usize = report.iter().map(|sh| sh.rows).sum();
            assert_eq!(rows, serial.height());
        }
    }

    #[test]
    fn both_passes_propagate_poll_errors() {
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
        let is_trip = |e: AlgebraError| matches!(e, AlgebraError::LimitExceeded { what, .. } if what == "test poll");
        let Err(err) = JoinProbe::count(&r, 1, &s, cols, &pool, 2, &trip) else {
            panic!("the count pass must fail on a poll error");
        };
        assert!(is_trip(err));
        let probe = JoinProbe::count(&r, 1, &s, cols, &pool, 2, &|| Ok(())).unwrap();
        let mut t = product_header(&r, &s, nm("T"));
        assert!(is_trip(probe.scatter(&mut t, &pool, &trip).unwrap_err()));
        // The extension committed ⊥-padded: every cell is initialized.
        assert_eq!(t.height(), 2);
        assert!(t.data_row(1).iter().all(|c| c.is_null()));
    }

    #[test]
    fn join_preserves_row_attributes_via_informational_join() {
        let r = Table::from_grid(&[&["R", "A"], &["p", "1"], &["_", "2"]]).unwrap();
        let s = Table::from_grid(&[&["S", "B"], &["q", "1"], &["p", "2"]]).unwrap();
        let cols = fusable_join_cols(&r, &s, nm("A"), nm("B")).unwrap();
        let fused = join(&r, &s, cols);
        assert_eq!(fused, unfused(&r, &s, nm("A"), nm("B"), nm("T")));
        // p ⋈ q has no join: the left row attribute wins (left-biased rule).
        assert_eq!(fused.get(1, 0), nm("p"));
        // ⊥ absorbs: the 2-row pair carries the right side's p.
        assert_eq!(fused.get(2, 0), nm("p"));
    }
}
