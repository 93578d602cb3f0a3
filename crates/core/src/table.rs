//! Tables: total mappings `{0..m} × {0..n} → S` (paper §2, Figure 2).
//!
//! A table of *height* `m` and *width* `n` is stored as a dense row-major
//! `(m+1) × (n+1)` matrix of [`Symbol`]s. Four regions are distinguished
//! (Figure 2):
//!
//! ```text
//!            col 0        cols 1..=n
//!  row 0     τ₀⁰ name     τ₀^(>0)  column attributes
//!  rows 1..  τ_(>0)⁰      τ_>^>    data entries
//!            row attrs
//! ```
//!
//! Unlike relations, rows *and* columns may carry (possibly repeated,
//! possibly absent) attributes, data may occur in attribute positions, and
//! the width of a table is per-instance, not per-scheme.
//!
//! ## Storage
//!
//! A `Table` is a cheap *handle*: the cell matrix lives behind an
//! [`Arc`], so cloning a table (and, one level up, snapshotting a
//! [`Database`](crate::Database)) copies a pointer, not the buffer.
//! Mutation goes through [`Arc::make_mut`] — the buffer is copied lazily,
//! only when it is actually shared (copy-on-write; materializations are
//! counted in [`crate::stats::cow_copies`]). Each handle also caches a
//! 64-bit content [`fingerprint`](Table::fingerprint), computed on first
//! demand and invalidated by mutation, which the database's dedup index
//! and the delta evaluator's version tracking key on.

use crate::error::CoreError;
use crate::symbol::{parse_cell, Symbol};
use crate::weak::SymbolSet;
use std::sync::{Arc, OnceLock};

/// A table of the tabular database model. See the module docs.
///
/// Cloning is O(1): the cell buffer is [`Arc`]-shared and copied only on
/// mutation (copy-on-write). The derived `Clone` also carries the cached
/// fingerprint, so clones of a fingerprinted table stay fingerprinted.
#[derive(Clone, Debug)]
pub struct Table {
    height: usize,
    width: usize,
    cells: Arc<Vec<Symbol>>,
    /// Cached content fingerprint; set on first demand, cleared by any
    /// mutation. Cloned together with the handle.
    fp: OnceLock<u64>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        if self.height != other.height || self.width != other.width {
            return false;
        }
        // Structurally shared handles are equal without looking at cells.
        if Arc::ptr_eq(&self.cells, &other.cells) {
            return true;
        }
        // Already-computed fingerprints give a cheap negative.
        if let (Some(a), Some(b)) = (self.fp.get(), other.fp.get()) {
            if a != b {
                return false;
            }
        }
        self.cells == other.cells
    }
}

impl Eq for Table {}

impl std::hash::Hash for Table {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.height.hash(state);
        self.width.hash(state);
        self.cells.hash(state);
    }
}

impl Table {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// A table of the given height (data rows) and width (data columns),
    /// with the given name and every other cell ⊥.
    pub fn new(name: Symbol, height: usize, width: usize) -> Table {
        let mut cells = vec![Symbol::Null; (height + 1) * (width + 1)];
        cells[0] = name;
        Table::from_parts(height, width, cells)
    }

    /// Wrap a freshly built cell buffer in a handle (no fingerprint yet).
    fn from_parts(height: usize, width: usize, cells: Vec<Symbol>) -> Table {
        debug_assert_eq!(cells.len(), (height + 1) * (width + 1));
        Table {
            height,
            width,
            cells: Arc::new(cells),
            fp: OnceLock::new(),
        }
    }

    /// Mutable access to the cell buffer: invalidates the cached
    /// fingerprint and materializes a private copy iff the buffer is
    /// shared (counted in [`crate::stats::cow_copies`]).
    fn cells_mut(&mut self) -> &mut Vec<Symbol> {
        self.fp.take();
        if Arc::get_mut(&mut self.cells).is_none() {
            crate::stats::record_cow_copy();
        }
        Arc::make_mut(&mut self.cells)
    }

    /// Replace the cell buffer wholesale (structural rebuilds like
    /// [`Table::push_col`]); not a copy-on-write event.
    fn replace_cells(&mut self, cells: Vec<Symbol>) {
        self.fp.take();
        self.cells = Arc::new(cells);
    }

    /// The 64-bit content fingerprint: an FNV-1a-style hash over the
    /// dimensions and every cell, computed once and cached until the next
    /// mutation. Symbols hash by their interner index, which is stable for
    /// the lifetime of the process (fingerprints are *not* stable across
    /// processes and never serialized). Equal tables have equal
    /// fingerprints; the converse holds only modulo 64-bit collisions, so
    /// exact code paths (dedup, set semantics) use the fingerprint as a
    /// filter and confirm with `==`.
    pub fn fingerprint(&self) -> u64 {
        *self.fp.get_or_init(|| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut mix = |x: u64| {
                h ^= x;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            };
            mix(self.height as u64);
            mix(self.width as u64);
            for &s in self.cells.iter() {
                mix(match s {
                    Symbol::Null => 0,
                    Symbol::Name(i) => 1 | (u64::from(i.index()) << 2),
                    Symbol::Value(i) => 2 | (u64::from(i.index()) << 2),
                });
            }
            h
        })
    }

    /// True if the two handles share one cell buffer (no copy has
    /// materialized between them). Diagnostic; equality of content is
    /// `==`.
    pub fn shares_cells_with(&self, other: &Table) -> bool {
        Arc::ptr_eq(&self.cells, &other.cells)
    }

    /// Build a table from a grid of cells in the cell syntax of
    /// [`parse_cell`]: row 0 is `name, column attributes…`; column 0 of
    /// later rows is the row attribute. Attribute positions default to
    /// names, data positions to values; `n:`/`v:` prefixes override, `_`
    /// is ⊥.
    ///
    /// ```
    /// # use tabular_core::Table;
    /// let t = Table::from_grid(&[
    ///     &["Sales", "Part", "Sold"],
    ///     &["_",     "nuts", "50"],
    /// ]).unwrap();
    /// assert_eq!(t.height(), 1);
    /// assert_eq!(t.width(), 2);
    /// ```
    pub fn from_grid(grid: &[&[&str]]) -> Result<Table, CoreError> {
        if grid.is_empty() || grid[0].is_empty() {
            return Err(CoreError::EmptyGrid);
        }
        let ncols = grid[0].len();
        for (i, row) in grid.iter().enumerate() {
            if row.len() != ncols {
                return Err(CoreError::RaggedGrid {
                    row: i,
                    got: row.len(),
                    expected: ncols,
                });
            }
        }
        let height = grid.len() - 1;
        let width = ncols - 1;
        let mut cells = Vec::with_capacity(grid.len() * ncols);
        for (i, row) in grid.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                if crate::interner::is_reserved(cell) {
                    return Err(CoreError::ReservedSymbol((*cell).to_owned()));
                }
                let default: fn(&str) -> Symbol = if i == 0 || j == 0 {
                    Symbol::name
                } else {
                    Symbol::value
                };
                cells.push(parse_cell(cell, default));
            }
        }
        Ok(Table::from_parts(height, width, cells))
    }

    /// Convenience constructor for a *relational* table: named columns,
    /// ⊥ row attributes, all data entries values. This is the natural
    /// embedding of a relation into the tabular model (paper §1,
    /// SalesInfo1; §4.1 canonical representation).
    pub fn relational(name: &str, attrs: &[&str], rows: &[&[&str]]) -> Table {
        let mut t = Table::new(Symbol::name(name), rows.len(), attrs.len());
        for (j, a) in attrs.iter().enumerate() {
            t.set(0, j + 1, Symbol::name(a));
        }
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), attrs.len(), "relational row {i} arity mismatch");
            for (j, cell) in row.iter().enumerate() {
                t.set(i + 1, j + 1, parse_cell(cell, Symbol::value));
            }
        }
        t
    }

    /// Like [`Table::relational`] but with already-built symbols.
    pub fn relational_syms(name: Symbol, attrs: &[Symbol], rows: &[Vec<Symbol>]) -> Table {
        let mut t = Table::new(name, rows.len(), attrs.len());
        for (j, a) in attrs.iter().enumerate() {
            t.set(0, j + 1, *a);
        }
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), attrs.len(), "relational row {i} arity mismatch");
            for (j, cell) in row.iter().enumerate() {
                t.set(i + 1, j + 1, *cell);
            }
        }
        t
    }

    // ------------------------------------------------------------------
    // Dimensions & cell access
    // ------------------------------------------------------------------

    /// Height `m`: the number of data rows (row indices are `0..=m`).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Width `n`: the number of data columns (column indices are `0..=n`).
    pub fn width(&self) -> usize {
        self.width
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        i * (self.width + 1) + j
    }

    /// The entry `τᵢ^j`. Panics on out-of-bounds (indices are internal).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Symbol {
        assert!(
            i <= self.height && j <= self.width,
            "get({i},{j}) out of bounds"
        );
        self.cells[self.idx(i, j)]
    }

    /// Checked variant of [`Table::get`].
    pub fn try_get(&self, i: usize, j: usize) -> Result<Symbol, CoreError> {
        if i <= self.height && j <= self.width {
            Ok(self.cells[self.idx(i, j)])
        } else {
            Err(CoreError::OutOfBounds {
                row: i,
                col: j,
                height: self.height,
                width: self.width,
            })
        }
    }

    /// Overwrite the entry `τᵢ^j`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, s: Symbol) {
        assert!(
            i <= self.height && j <= self.width,
            "set({i},{j}) out of bounds"
        );
        let ix = self.idx(i, j);
        self.cells_mut()[ix] = s;
    }

    // ------------------------------------------------------------------
    // Regions (Figure 2)
    // ------------------------------------------------------------------

    /// The table name `τ₀⁰`.
    pub fn name(&self) -> Symbol {
        self.cells[0]
    }

    /// Rename the table.
    pub fn set_name(&mut self, name: Symbol) {
        self.cells_mut()[0] = name;
    }

    /// The column attributes `τ₀^(>0)` (length = width).
    pub fn col_attrs(&self) -> &[Symbol] {
        &self.cells[1..=self.width]
    }

    /// The column attribute of data column `j ∈ 1..=width`.
    pub fn col_attr(&self, j: usize) -> Symbol {
        assert!((1..=self.width).contains(&j));
        self.cells[j]
    }

    /// The row attributes `τ_(>0)⁰` (length = height).
    pub fn row_attrs(&self) -> Vec<Symbol> {
        (1..=self.height).map(|i| self.get(i, 0)).collect()
    }

    /// The row attribute of data row `i ∈ 1..=height`.
    pub fn row_attr(&self, i: usize) -> Symbol {
        assert!((1..=self.height).contains(&i));
        self.get(i, 0)
    }

    /// The data entries of row `i` (columns `1..=width`).
    pub fn data_row(&self, i: usize) -> &[Symbol] {
        assert!((1..=self.height).contains(&i));
        let start = self.idx(i, 1);
        &self.cells[start..start + self.width]
    }

    /// The full storage row `i` (row attribute followed by data entries).
    pub fn storage_row(&self, i: usize) -> &[Symbol] {
        let start = self.idx(i, 0);
        &self.cells[start..start + self.width + 1]
    }

    /// The full storage column `j` (attribute followed by data entries).
    pub fn storage_col(&self, j: usize) -> Vec<Symbol> {
        (0..=self.height).map(|i| self.get(i, j)).collect()
    }

    /// The set of column attributes, as a set (the table's *scheme*).
    pub fn scheme(&self) -> SymbolSet {
        SymbolSet::from_iter(self.col_attrs().iter().copied())
    }

    /// The set of row attributes.
    pub fn row_scheme(&self) -> SymbolSet {
        SymbolSet::from_iter((1..=self.height).map(|i| self.get(i, 0)))
    }

    /// Every symbol occurring anywhere in the table (incl. attributes and
    /// the name), ⊥ included.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.cells.iter().copied()
    }

    /// True if the table has the *shape* of a relation: pairwise-distinct
    /// name column attributes and all row attributes ⊥. Data entries may
    /// be any symbol — in the SchemaLog data model and the canonical
    /// representation (paper §4), names, values, and ⊥ are all first-class
    /// relation entries.
    pub fn is_relational(&self) -> bool {
        let attrs = self.col_attrs();
        let distinct: SymbolSet = attrs.iter().copied().collect();
        if distinct.len() != attrs.len() || !attrs.iter().all(|a| a.is_name()) {
            return false;
        }
        (1..=self.height).all(|i| self.get(i, 0).is_null())
    }

    // ------------------------------------------------------------------
    // Multi-occurrence attribute access & subsumption (paper §2)
    // ------------------------------------------------------------------

    /// Data columns whose attribute is `a` (indices into `1..=width`).
    pub fn cols_named(&self, a: Symbol) -> Vec<usize> {
        (1..=self.width)
            .filter(|&j| self.col_attr(j) == a)
            .collect()
    }

    /// Data columns whose attribute is in `set`.
    pub fn cols_in(&self, set: &SymbolSet) -> Vec<usize> {
        (1..=self.width)
            .filter(|&j| set.contains(self.col_attr(j)))
            .collect()
    }

    /// Data columns whose attribute is *not* in `set`.
    pub fn cols_not_in(&self, set: &SymbolSet) -> Vec<usize> {
        (1..=self.width)
            .filter(|&j| !set.contains(self.col_attr(j)))
            .collect()
    }

    /// Data rows whose row attribute is in `set`.
    pub fn rows_in(&self, set: &SymbolSet) -> Vec<usize> {
        (1..=self.height)
            .filter(|&i| set.contains(self.get(i, 0)))
            .collect()
    }

    /// Data rows whose row attribute is *not* in `set`.
    pub fn rows_not_in(&self, set: &SymbolSet) -> Vec<usize> {
        (1..=self.height)
            .filter(|&i| !set.contains(self.get(i, 0)))
            .collect()
    }

    /// `ρᵢ(a)`: the set of data entries of row `i` appearing in columns
    /// named `a`.
    pub fn row_entries_named(&self, i: usize, a: Symbol) -> SymbolSet {
        SymbolSet::from_iter(
            (1..=self.width)
                .filter(|&j| self.col_attr(j) == a)
                .map(|j| self.get(i, j)),
        )
    }

    /// Column-dual of [`Table::row_entries_named`]: entries of column `j`
    /// in rows whose row attribute is `a`.
    pub fn col_entries_named(&self, j: usize, a: Symbol) -> SymbolSet {
        SymbolSet::from_iter(
            (1..=self.height)
                .filter(|&i| self.get(i, 0) == a)
                .map(|i| self.get(i, j)),
        )
    }

    /// Row subsumption `ρᵢ ⊑ σₖ`: for every column attribute `a` of either
    /// table, `ρᵢ(a) ≼ σₖ(a)` (paper §2).
    pub fn row_subsumed_by(&self, i: usize, other: &Table, k: usize) -> bool {
        let attrs = self.scheme().union(&other.scheme());
        let ok = attrs.iter().all(|a| {
            self.row_entries_named(i, a)
                .weakly_contained_in(&other.row_entries_named(k, a))
        });
        ok
    }

    /// Mutual row subsumption `ρᵢ ≋ σₖ`.
    pub fn rows_subsume_each_other(&self, i: usize, other: &Table, k: usize) -> bool {
        self.row_subsumed_by(i, other, k) && other.row_subsumed_by(k, self, i)
    }

    /// Column subsumption (the row notion under transposition).
    pub fn col_subsumed_by(&self, j: usize, other: &Table, l: usize) -> bool {
        let attrs = self.row_scheme().union(&other.row_scheme());
        let ok = attrs.iter().all(|a| {
            self.col_entries_named(j, a)
                .weakly_contained_in(&other.col_entries_named(l, a))
        });
        ok
    }

    // ------------------------------------------------------------------
    // Structural editing
    // ------------------------------------------------------------------

    /// Append a data row: `row[0]` is the row attribute, `row[1..]` the
    /// data entries. Length must be `width + 1`.
    pub fn push_row(&mut self, row: Vec<Symbol>) {
        assert_eq!(row.len(), self.width + 1, "push_row arity mismatch");
        self.cells_mut().extend(row);
        self.height += 1;
    }

    /// Append a data row given as a slice (row attribute first), avoiding
    /// the caller-side `Vec` of [`Table::push_row`].
    pub fn push_row_slice(&mut self, row: &[Symbol]) {
        assert_eq!(row.len(), self.width + 1, "push_row arity mismatch");
        self.cells_mut().extend_from_slice(row);
        self.height += 1;
    }

    /// Append a batch of data rows through a [`RowAppender`], paying the
    /// copy-on-write materialization, fingerprint invalidation, and
    /// shared-buffer check **once** for the whole batch instead of once
    /// per row. The row-building loops of the algebra (products, unions,
    /// clean-ups) run through this; per-row [`Table::push_row`] costs an
    /// atomic uniqueness check on every call, which is measurable at
    /// product scale.
    pub fn append_rows<R>(&mut self, f: impl FnOnce(&mut RowAppender<'_>) -> R) -> R {
        let width = self.width;
        let cells = self.cells_mut();
        let mut appender = RowAppender {
            cells,
            width,
            added: 0,
        };
        let out = f(&mut appender);
        let added = appender.added;
        self.height += added;
        out
    }

    /// Append `rows` data rows in a single exact-size extension and hand
    /// the *uninitialized* fresh storage to `f` as one mutable slice of
    /// `rows * (width + 1)` [`MaybeUninit`](std::mem::MaybeUninit) cells — each consecutive
    /// `width + 1` chunk is one storage row, attribute first. Splitting
    /// the slice into disjoint row ranges (`split_at_mut`) lets
    /// independent workers write their ranges in parallel. Unlike
    /// [`Table::append_rows`], which grows the buffer geometrically as
    /// rows arrive, this pays the copy-on-write materialization and
    /// exactly one allocation up front — and, unlike a ⊥-prefilled
    /// `resize`, never serially memsets storage the caller is about to
    /// overwrite anyway (on large joins that memset *is* the serial
    /// prelude). The new length is committed only after `f` returns, so
    /// a panicking `f` leaves the table's contents unchanged.
    ///
    /// # Safety
    ///
    /// `f` must initialize **every** cell of the slice before returning
    /// normally; returning with any cell uninitialized commits
    /// uninitialized memory as table contents, which is undefined
    /// behavior.
    pub unsafe fn append_rows_uninit<R>(
        &mut self,
        rows: usize,
        f: impl FnOnce(&mut [std::mem::MaybeUninit<Symbol>]) -> R,
    ) -> R {
        let n = rows * (self.width + 1);
        let cells = self.cells_mut();
        let start = cells.len();
        cells.reserve_exact(n);
        let out = f(&mut cells.spare_capacity_mut()[..n]);
        // SAFETY: the capacity holds `start + n` cells and the contract
        // requires `f` to have initialized all `n` new ones.
        unsafe { cells.set_len(start + n) };
        self.height += rows;
        out
    }

    /// Append a data column: `col[0]` is the column attribute, `col[1..]`
    /// the entries top to bottom. Length must be `height + 1`.
    pub fn push_col(&mut self, col: Vec<Symbol>) {
        assert_eq!(col.len(), self.height + 1, "push_col arity mismatch");
        let old_w = self.width + 1;
        let mut cells = Vec::with_capacity((self.height + 1) * (old_w + 1));
        for (i, &extra) in col.iter().enumerate() {
            cells.extend_from_slice(&self.cells[i * old_w..(i + 1) * old_w]);
            cells.push(extra);
        }
        self.replace_cells(cells);
        self.width += 1;
    }

    /// Keep only the data rows at the given indices (in the given order;
    /// repetitions allowed). Row 0 is always kept.
    pub fn select_rows(&self, rows: &[usize]) -> Table {
        let mut cells = Vec::with_capacity((rows.len() + 1) * (self.width + 1));
        cells.extend_from_slice(self.storage_row(0));
        for &i in rows {
            assert!((1..=self.height).contains(&i));
            cells.extend_from_slice(self.storage_row(i));
        }
        Table::from_parts(rows.len(), self.width, cells)
    }

    /// Keep only the data columns at the given indices (in the given order;
    /// repetitions allowed). Column 0 is always kept.
    pub fn select_cols(&self, cols: &[usize]) -> Table {
        let mut cells = Vec::with_capacity((self.height + 1) * (cols.len() + 1));
        for i in 0..=self.height {
            cells.push(self.get(i, 0));
            for &j in cols {
                assert!((1..=self.width).contains(&j));
                cells.push(self.get(i, j));
            }
        }
        Table::from_parts(self.height, cols.len(), cells)
    }

    /// Keep data rows satisfying `pred` (called with the row index).
    pub fn retain_rows(&self, mut pred: impl FnMut(usize) -> bool) -> Table {
        let keep: Vec<usize> = (1..=self.height).filter(|&i| pred(i)).collect();
        self.select_rows(&keep)
    }

    /// Swap data-or-attribute rows `i` and `k` (either may be 0).
    pub fn swap_rows(&mut self, i: usize, k: usize) {
        assert!(i <= self.height && k <= self.height);
        if i == k {
            return;
        }
        for j in 0..=self.width {
            let (a, b) = (self.get(i, j), self.get(k, j));
            self.set(i, j, b);
            self.set(k, j, a);
        }
    }

    /// Swap columns `j` and `l` (either may be 0).
    pub fn swap_cols(&mut self, j: usize, l: usize) {
        assert!(j <= self.width && l <= self.width);
        if j == l {
            return;
        }
        for i in 0..=self.height {
            let (a, b) = (self.get(i, j), self.get(i, l));
            self.set(i, j, b);
            self.set(i, l, a);
        }
    }

    /// Matrix transposition: rows become columns (paper §3.3). The table
    /// name stays at (0,0); column attributes become row attributes and
    /// vice versa.
    pub fn transpose(&self) -> Table {
        let mut t = Table::new(self.name(), self.width, self.height);
        for i in 0..=self.height {
            for j in 0..=self.width {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Apply `f` to every cell (used by tests for genericity morphisms).
    pub fn map_symbols(&self, mut f: impl FnMut(Symbol) -> Symbol) -> Table {
        Table::from_parts(
            self.height,
            self.width,
            self.cells.iter().map(|&s| f(s)).collect(),
        )
    }

    // ------------------------------------------------------------------
    // Permutation-invariant comparison
    // ------------------------------------------------------------------

    /// A normal form under permutations of the non-attribute rows and
    /// non-attribute columns: repeatedly sort data columns by their full
    /// storage column and data rows by their full storage row, until a
    /// fixpoint. Deterministic; for tables whose attributes or data break
    /// ties (all tables in this repository and all the paper's examples)
    /// the fixpoint is a true canonical representative of the permutation
    /// class.
    pub fn canonicalize(&self) -> Table {
        let mut t = self.clone();
        for _ in 0..8 {
            let before = t.clone();
            // Sort data columns by (attribute, entries top-to-bottom).
            let mut cols: Vec<usize> = (1..=t.width).collect();
            cols.sort_by(|&a, &b| cmp_syms(&t.storage_col(a), &t.storage_col(b)));
            t = t.select_cols(&cols);
            // Sort data rows by full row content.
            let mut rows: Vec<usize> = (1..=t.height).collect();
            rows.sort_by(|&a, &b| cmp_syms(t.storage_row(a), t.storage_row(b)));
            t = t.select_rows(&rows);
            if t == before {
                break;
            }
        }
        t
    }

    /// Equality up to permutations of non-attribute rows and columns — the
    /// paper's notion of when two tables are "identical" (§4.1,
    /// condition (ii) of transformations).
    ///
    /// Fast path: the sort-fixpoint normal forms coincide. When they do
    /// not — which can only happen for tables with several
    /// indistinguishable columns, where the fixpoint is not confluent — an
    /// exact backtracking search over column matchings decides the
    /// question (grouped by column signature, so the search only branches
    /// among genuinely ambiguous columns).
    pub fn equiv(&self, other: &Table) -> bool {
        if self.height != other.height || self.width != other.width {
            return false;
        }
        if self.canonicalize() == other.canonicalize() {
            return true;
        }
        self.equiv_exact(other)
    }

    /// Exact permutation matching: find a bijection between data columns
    /// (respecting per-column content multisets) under which the row
    /// multisets agree.
    fn equiv_exact(&self, other: &Table) -> bool {
        // Column signature: (attribute, sorted entries). A valid column
        // bijection can only match equal signatures.
        let sig = |t: &Table, j: usize| -> Vec<Symbol> {
            let mut s = t.storage_col(j);
            s[1..].sort();
            s
        };
        let mine: Vec<Vec<Symbol>> = (1..=self.width).map(|j| sig(self, j)).collect();
        let theirs: Vec<Vec<Symbol>> = (1..=other.width).map(|j| sig(other, j)).collect();
        {
            let mut a = mine.clone();
            let mut b = theirs.clone();
            a.sort();
            b.sort();
            if a != b {
                return false;
            }
        }
        // Row attributes must agree as a multiset.
        {
            let mut a = self.row_attrs();
            let mut b = other.row_attrs();
            a.sort();
            b.sort();
            if a != b {
                return false;
            }
        }

        fn rows_match(a: &Table, b: &Table, perm: &[usize]) -> bool {
            let project = |t: &Table, order: &[usize]| -> Vec<Vec<Symbol>> {
                let mut rows: Vec<Vec<Symbol>> = (1..=t.height())
                    .map(|i| {
                        let mut row = vec![t.get(i, 0)];
                        row.extend(order.iter().map(|&j| t.get(i, j)));
                        row
                    })
                    .collect();
                rows.sort();
                rows
            };
            let identity: Vec<usize> = (1..=a.width()).collect();
            project(a, &identity) == project(b, perm)
        }

        fn search(
            a: &Table,
            b: &Table,
            mine: &[Vec<Symbol>],
            theirs: &[Vec<Symbol>],
            perm: &mut Vec<usize>,
            used: &mut Vec<bool>,
            budget: &mut usize,
        ) -> bool {
            if *budget == 0 {
                return false;
            }
            *budget -= 1;
            let k = perm.len();
            if k == mine.len() {
                return rows_match(a, b, perm);
            }
            for j in 0..theirs.len() {
                if used[j] || theirs[j] != mine[k] {
                    continue;
                }
                used[j] = true;
                perm.push(j + 1);
                if search(a, b, mine, theirs, perm, used, budget) {
                    return true;
                }
                perm.pop();
                used[j] = false;
            }
            false
        }

        let mut perm = Vec::with_capacity(self.width);
        let mut used = vec![false; self.width];
        // The budget bounds pathological inputs (many identical columns);
        // within it the answer is exact, beyond it we conservatively
        // report inequality.
        let mut budget = 1_000_000usize;
        search(
            self,
            other,
            &mine,
            &theirs,
            &mut perm,
            &mut used,
            &mut budget,
        )
    }

    /// Remove exactly-duplicate data rows (keeping first occurrences).
    /// This is *not* a paper operation (clean-up is); it is a convenience
    /// for building fixtures and baselines.
    pub fn dedup_rows(&self) -> Table {
        let mut seen = std::collections::HashSet::new();
        self.retain_rows(|i| seen.insert(self.storage_row(i).to_vec()))
    }
}

/// Writer handle for one [`Table::append_rows`] batch: the cell buffer is
/// already uniquely owned, so each push is a plain `Vec` extend. Rows are
/// arity-checked exactly as [`Table::push_row`] checks them; the table's
/// height is updated when the batch closes.
pub struct RowAppender<'a> {
    cells: &'a mut Vec<Symbol>,
    width: usize,
    added: usize,
}

impl RowAppender<'_> {
    /// Reserve buffer space for `rows` further data rows.
    pub fn reserve_rows(&mut self, rows: usize) {
        self.cells.reserve(rows * (self.width + 1));
    }

    /// Append one data row (row attribute first, then the entries).
    pub fn push_row(&mut self, row: &[Symbol]) {
        assert_eq!(row.len(), self.width + 1, "push_row arity mismatch");
        self.cells.extend_from_slice(row);
        self.added += 1;
    }

    /// Append the data row `attr · left · right` without materializing it
    /// first — the shape every product row has.
    pub fn push_row_parts(&mut self, attr: Symbol, left: &[Symbol], right: &[Symbol]) {
        assert_eq!(
            1 + left.len() + right.len(),
            self.width + 1,
            "push_row arity mismatch"
        );
        self.cells.push(attr);
        self.cells.extend_from_slice(left);
        self.cells.extend_from_slice(right);
        self.added += 1;
    }

    /// Append one data row from an iterator of its `width + 1` symbols.
    pub fn push_row_iter(&mut self, row: impl IntoIterator<Item = Symbol>) {
        let before = self.cells.len();
        self.cells.extend(row);
        assert_eq!(
            self.cells.len() - before,
            self.width + 1,
            "push_row arity mismatch"
        );
        self.added += 1;
    }
}

fn cmp_syms(a: &[Symbol], b: &[Symbol]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let c = x.canonical_cmp(*y);
        if c != std::cmp::Ordering::Equal {
            return c;
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales() -> Table {
        Table::relational(
            "Sales",
            &["Part", "Region", "Sold"],
            &[
                &["nuts", "east", "50"],
                &["nuts", "west", "60"],
                &["bolts", "east", "70"],
            ],
        )
    }

    #[test]
    fn regions_match_figure_2() {
        let t = sales();
        assert_eq!(t.name(), Symbol::name("Sales"));
        assert_eq!(
            t.col_attrs(),
            &[
                Symbol::name("Part"),
                Symbol::name("Region"),
                Symbol::name("Sold")
            ]
        );
        assert!(t.row_attrs().iter().all(|a| a.is_null()));
        assert_eq!(t.get(1, 3), Symbol::value("50"));
        assert_eq!(t.height(), 3);
        assert_eq!(t.width(), 3);
    }

    #[test]
    fn append_rows_uninit_extends_exactly_and_matches_push_row() {
        let mut a = sales();
        let mut b = sales();
        let row = [
            Symbol::Null,
            Symbol::value("nuts"),
            Symbol::value("east"),
            Symbol::value("80"),
        ];
        b.push_row_slice(&row);
        b.push_row_slice(&row);
        // SAFETY: the closure writes every cell of the extension.
        unsafe {
            a.append_rows_uninit(2, |fresh| {
                assert_eq!(fresh.len(), 2 * (3 + 1));
                for (cell, &v) in fresh.iter_mut().zip(row.iter().cycle()) {
                    cell.write(v);
                }
            });
        }
        assert_eq!(a, b);
        assert_eq!(a.height(), 5);
        // SAFETY: zero rows — an empty slice is trivially initialized.
        unsafe {
            a.append_rows_uninit(0, |fresh| assert!(fresh.is_empty()));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn from_grid_positional_defaults() {
        let t = Table::from_grid(&[
            &["Sales", "Part", "Sold"],
            &["Region", "_", "east"],
            &["_", "nuts", "50"],
        ])
        .unwrap();
        // Row/column attributes default to names, data to values.
        assert_eq!(t.get(1, 0), Symbol::name("Region"));
        assert_eq!(t.get(1, 2), Symbol::value("east"));
        assert_eq!(t.get(2, 1), Symbol::value("nuts"));
        assert!(t.get(1, 1).is_null());
    }

    #[test]
    fn from_grid_rejects_ragged_and_empty() {
        assert_eq!(
            Table::from_grid(&[&["T", "A"], &["x"]]),
            Err(CoreError::RaggedGrid {
                row: 1,
                got: 1,
                expected: 2
            })
        );
        assert_eq!(Table::from_grid(&[]), Err(CoreError::EmptyGrid));
    }

    #[test]
    fn from_grid_rejects_reserved_prefix() {
        let reserved = "\u{1F}x".to_string();
        let r: &[&str] = &["T", &reserved];
        assert!(matches!(
            Table::from_grid(&[r, &["_", "y"]]),
            Err(CoreError::ReservedSymbol(_))
        ));
    }

    #[test]
    fn transpose_is_an_involution() {
        let t =
            Table::from_grid(&[&["T", "A", "B"], &["r1", "1", "2"], &["r2", "3", "4"]]).unwrap();
        assert_eq!(t.transpose().transpose(), t);
        let tt = t.transpose();
        assert_eq!(tt.height(), t.width());
        assert_eq!(tt.width(), t.height());
        assert_eq!(tt.col_attrs().to_vec(), t.row_attrs());
        assert_eq!(tt.name(), t.name());
        assert_eq!(tt.get(1, 2), t.get(2, 1));
    }

    #[test]
    fn multi_occurrence_row_entries() {
        // Two columns both named Sold, as in SalesInfo2 (Figure 1).
        let t = Table::from_grid(&[
            &["Sales", "Part", "Sold", "Sold"],
            &["_", "nuts", "50", "_"],
        ])
        .unwrap();
        let sold = Symbol::name("Sold");
        let entries = t.row_entries_named(1, sold);
        assert!(entries.contains(Symbol::value("50")));
        assert!(entries.contains(Symbol::Null));
        assert_eq!(t.cols_named(sold), vec![2, 3]);
    }

    #[test]
    fn subsumption_moves_values_between_same_named_columns() {
        let a = Table::from_grid(&[&["T", "X", "X"], &["_", "1", "_"]]).unwrap();
        let b = Table::from_grid(&[&["T", "X", "X"], &["_", "_", "1"]]).unwrap();
        // ρ₁(X) = {1, ⊥} in both: they subsume each other.
        assert!(a.rows_subsume_each_other(1, &b, 1));
    }

    #[test]
    fn subsumption_is_a_preorder() {
        let less = Table::from_grid(&[&["T", "A", "B"], &["_", "1", "_"]]).unwrap();
        let more = Table::from_grid(&[&["T", "A", "B"], &["_", "1", "2"]]).unwrap();
        assert!(less.row_subsumed_by(1, &more, 1));
        assert!(!more.row_subsumed_by(1, &less, 1));
        assert!(less.row_subsumed_by(1, &less, 1));
    }

    #[test]
    fn subsumption_respects_foreign_attributes() {
        // A row with a value under attribute C cannot be subsumed by a row
        // of a table that has no C column.
        let a = Table::from_grid(&[&["T", "C"], &["_", "9"]]).unwrap();
        let b = Table::from_grid(&[&["T", "A"], &["_", "9"]]).unwrap();
        assert!(!a.row_subsumed_by(1, &b, 1));
    }

    #[test]
    fn push_and_select() {
        let mut t = sales();
        t.push_row(vec![
            Symbol::Null,
            Symbol::value("screws"),
            Symbol::value("north"),
            Symbol::value("60"),
        ]);
        assert_eq!(t.height(), 4);
        t.push_col(vec![
            Symbol::name("Year"),
            Symbol::value("96"),
            Symbol::value("96"),
            Symbol::value("96"),
            Symbol::value("96"),
        ]);
        assert_eq!(t.width(), 4);
        assert_eq!(t.col_attr(4), Symbol::name("Year"));
        assert_eq!(t.get(4, 4), Symbol::value("96"));

        let proj = t.select_cols(&[1, 4]);
        assert_eq!(proj.width(), 2);
        assert_eq!(
            proj.col_attrs(),
            &[Symbol::name("Part"), Symbol::name("Year")]
        );

        let sel = t.retain_rows(|i| t.get(i, 2) == Symbol::value("east"));
        assert_eq!(sel.height(), 2);
    }

    #[test]
    fn swap_rows_and_cols() {
        let mut t = sales();
        let r1 = t.storage_row(1).to_vec();
        let r3 = t.storage_row(3).to_vec();
        t.swap_rows(1, 3);
        assert_eq!(t.storage_row(1), &r3[..]);
        assert_eq!(t.storage_row(3), &r1[..]);
        let c1 = t.storage_col(1);
        let c2 = t.storage_col(2);
        t.swap_cols(1, 2);
        assert_eq!(t.storage_col(1), c2);
        assert_eq!(t.storage_col(2), c1);
    }

    #[test]
    fn equiv_ignores_row_and_column_order() {
        let t = sales();
        let permuted = t.select_rows(&[3, 1, 2]).select_cols(&[3, 1, 2]);
        assert_ne!(t, permuted);
        assert!(t.equiv(&permuted));
        assert!(!t.equiv(&t.retain_rows(|i| i > 1)));
    }

    #[test]
    fn equiv_distinguishes_different_content() {
        let a = Table::relational("T", &["A"], &[&["1"], &["2"]]);
        let b = Table::relational("T", &["A"], &[&["1"], &["3"]]);
        assert!(!a.equiv(&b));
    }

    #[test]
    fn is_relational_checks() {
        assert!(sales().is_relational());
        let mut t = sales();
        t.set(1, 0, Symbol::name("Region"));
        assert!(!t.is_relational());
        let dup = Table::from_grid(&[&["T", "A", "A"], &["_", "1", "2"]]).unwrap();
        assert!(!dup.is_relational());
    }

    #[test]
    fn dedup_rows_keeps_first() {
        let t = Table::relational("T", &["A"], &[&["1"], &["1"], &["2"]]);
        let d = t.dedup_rows();
        assert_eq!(d.height(), 2);
    }

    #[test]
    fn try_get_bounds() {
        let t = sales();
        assert!(t.try_get(0, 0).is_ok());
        assert!(t.try_get(4, 0).is_err());
    }

    #[test]
    fn clone_shares_cells_until_mutation() {
        let t = sales();
        let mut c = t.clone();
        assert!(t.shares_cells_with(&c));
        assert_eq!(t, c);
        c.set(1, 1, Symbol::value("washers"));
        assert!(!t.shares_cells_with(&c));
        assert_ne!(t, c);
        assert_eq!(t.get(1, 1), Symbol::value("nuts"));
    }

    #[test]
    fn mutating_a_uniquely_owned_table_does_not_reallocate() {
        let mut t = sales();
        let before = std::sync::Arc::as_ptr(&t.cells);
        t.set(1, 1, Symbol::value("washers"));
        assert_eq!(std::sync::Arc::as_ptr(&t.cells), before);
    }

    #[test]
    fn mutating_a_shared_table_counts_a_cow_copy() {
        let t = sales();
        let mut c = t.clone();
        let before = crate::stats::cow_copies();
        c.set(1, 1, Symbol::value("washers"));
        assert!(crate::stats::cow_copies() > before);
    }

    #[test]
    fn fingerprint_caches_and_invalidates() {
        let t = sales();
        let f = t.fingerprint();
        assert_eq!(t.fingerprint(), f);
        // The cache travels with the clone…
        assert_eq!(t.clone().fingerprint(), f);
        // …and mutation invalidates it.
        let mut m = t.clone();
        m.set(1, 1, Symbol::value("x"));
        assert_ne!(m.fingerprint(), f);
        // Restoring the content restores the fingerprint.
        m.set(1, 1, Symbol::value("nuts"));
        assert_eq!(m.fingerprint(), f);
        assert_eq!(m, t);
    }

    #[test]
    fn fingerprint_agrees_across_independent_builds() {
        let a = sales();
        let b = sales();
        assert!(!a.shares_cells_with(&b));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_distinguishes_shape_and_content() {
        let a = Table::relational("T", &["A"], &[&["1"]]);
        let b = Table::relational("T", &["A"], &[&["2"]]);
        let c = Table::relational("U", &["A"], &[&["1"]]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn push_row_slice_matches_push_row() {
        let mut a = sales();
        let mut b = sales();
        let row = vec![
            Symbol::Null,
            Symbol::value("screws"),
            Symbol::value("north"),
            Symbol::value("60"),
        ];
        a.push_row(row.clone());
        b.push_row_slice(&row);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_table_edge_cases() {
        let t = Table::new(Symbol::name("E"), 0, 0);
        assert_eq!(t.height(), 0);
        assert_eq!(t.width(), 0);
        assert!(t.col_attrs().is_empty());
        assert!(t.row_attrs().is_empty());
        assert_eq!(t.canonicalize(), t);
        assert!(t.equiv(&t));
        assert!(t.is_relational());
    }
}
