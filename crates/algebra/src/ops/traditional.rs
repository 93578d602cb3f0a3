//! The traditional operations (paper §3.1, Figure 3): union, difference,
//! Cartesian product, renaming, projection, and selection — the relational
//! algebra operations adapted to tables.
//!
//! Union and difference are defined so that they *always exist*, whatever
//! the schemes of the operands; the classical versions are recovered by
//! composing with the redundancy-removal operations (§3.4), see
//! [`classical_union`](crate::ops::classical_union).

use super::row_index::RowIndex;
use tabular_core::{Symbol, SymbolSet, Table};

/// Tabular union `T ← R ∪ S` (Figure 3, left).
///
/// The result's columns are the columns of `ρ` followed by the columns of
/// `σ`; every data row of `ρ` is padded with ⊥ under `σ`'s columns and vice
/// versa, so the operation is defined for arbitrary (even
/// scheme-incompatible) operands. Composing with purge and clean-up yields
/// classical union on union-compatible relations.
pub fn union(r: &Table, s: &Table, name: Symbol) -> Table {
    let width = r.width() + s.width();
    let mut t = Table::new(name, 0, width);
    for j in 1..=r.width() {
        t.set(0, j, r.col_attr(j));
    }
    for j in 1..=s.width() {
        t.set(0, r.width() + j, s.col_attr(j));
    }
    t.append_rows(|rows| {
        rows.reserve_rows(r.height() + s.height());
        for i in 1..=r.height() {
            rows.push_row_iter(
                r.storage_row(i)
                    .iter()
                    .copied()
                    .chain(std::iter::repeat_n(Symbol::Null, s.width())),
            );
        }
        for k in 1..=s.height() {
            rows.push_row_iter(
                std::iter::once(s.get(k, 0))
                    .chain(std::iter::repeat_n(Symbol::Null, r.width()))
                    .chain(s.data_row(k).iter().copied()),
            );
        }
    });
    t
}

/// Tabular difference `T ← R \ S` (Figure 3, middle).
///
/// Keeps the data rows of `ρ` that are not *matched* by any data row of
/// `σ`, where `ρᵢ` matches `σₖ` iff the row attributes are equal and the
/// rows mutually subsume each other (`ρᵢ ≋ σₖ`). On relational tables this
/// is exactly classical difference; on general tables it is always defined.
///
/// Matching probes a row index of `σ` in `O(|ρ| + |σ|)` instead of
/// comparing every pair of rows. When the operands have identical
/// column-attribute sequences with pairwise-distinct attributes, the
/// per-attribute entry sets are singletons and mutual subsumption
/// degenerates to plain storage-row equality (⊥ included: `{⊥} ≗ {v}`
/// fails in one direction exactly when `⊥ ≠ v`), so the index holds the
/// storage rows themselves. This is the shape every compiled relational
/// program produces, and the hot path of `while` fixpoints such as
/// transitive closure. Otherwise the index holds each row's `MatchKeys`
/// key, which decides the match whatever the two schemes are.
pub fn difference(r: &Table, s: &Table, name: Symbol) -> Table {
    if aligned_distinct_schemes(r, s) {
        let mut t = r.select_rows(&[]);
        t.set_name(name);
        difference_rows(&mut t, r, 1, &RowIndex::of_rows(s));
        return t;
    }
    let mut keys = MatchKeys::new(r, s);
    let theirs = keys.index(s, 1..=s.height());
    let mut t = r.retain_rows(|i| !theirs.contains(keys.of(r, i)));
    t.set_name(name);
    t
}

/// The aligned path of [`difference`], a row at a time: append to `out`
/// the storage rows `from..=r.height()` of `r` that `s` does not hold.
pub(crate) fn difference_rows(out: &mut Table, r: &Table, from: usize, s: &RowIndex) {
    out.append_rows(|rows| {
        for i in from..=r.height() {
            if !s.contains(r.storage_row(i)) {
                rows.push_row(r.storage_row(i));
            }
        }
    });
}

/// True when both tables carry the same column-attribute sequence and the
/// attributes are pairwise distinct — the precondition for reducing row
/// matching (mutual subsumption + row-attribute equality) to storage-row
/// equality.
pub(crate) fn aligned_distinct_schemes(r: &Table, s: &Table) -> bool {
    r.width() == s.width() && r.col_attrs() == s.col_attrs() && r.scheme().len() == r.width()
}

/// Intersection, defined from difference in the usual way:
/// `R ∩ S = R \ (R \ S)`.
///
/// Evaluated from a single match bitmap instead of two [`difference`]
/// calls: the first difference's whole contribution is *which* rows of
/// `ρ` are matched by `σ`, so that pass probes a row index of `σ` once
/// (its storage rows under `aligned_distinct_schemes`, its
/// `MatchKeys` otherwise), and the second pass — removing rows matched
/// by some row of `ρ \ σ` — probes an index of the unmatched subset the
/// bitmap already names. Results are identical to the two-difference
/// derivation.
pub fn intersect(r: &Table, s: &Table, name: Symbol) -> Table {
    // Pass 1: matched[i-1] ⇔ some row of σ matches ρᵢ (the bitmap the
    // first difference would have complemented).
    let mut keys = MatchKeys::new(r, s);
    let matched: Vec<bool> = if aligned_distinct_schemes(r, s) {
        let rows = RowIndex::of_rows(s);
        (1..=r.height())
            .map(|i| rows.contains(r.storage_row(i)))
            .collect()
    } else {
        let theirs = keys.index(s, 1..=s.height());
        (1..=r.height())
            .map(|i| theirs.contains(keys.of(r, i)))
            .collect()
    };
    // Pass 2: ρᵢ survives unless some *unmatched* row of ρ (a row of
    // ρ \ σ) matches it — which removes the unmatched rows themselves
    // (every row matches itself) and any matched row that mutually
    // subsumes an unmatched one. Within ρ the operand schemes trivially
    // align, so pairwise-distinct attributes alone enable storage rows;
    // otherwise the keys of pass 1 serve, their stride covering `ρ`.
    let unmatched = (1..=r.height()).filter(|&j| !matched[j - 1]);
    if r.scheme().len() == r.width() {
        let mut removed = RowIndex::new(r.width() + 1, r.height());
        for j in unmatched {
            removed.insert(r.storage_row(j));
        }
        let mut t = r.select_rows(&[]);
        t.set_name(name);
        difference_rows(&mut t, r, 1, &removed);
        return t;
    }
    let removed = keys.index(r, unmatched);
    let mut t = r.retain_rows(|i| !removed.contains(keys.of(r, i)));
    t.set_name(name);
    t
}

/// The row keys that decide a match of [`difference`] and [`intersect`]
/// between rows of two tables with any schemes: `ρᵢ` and `σₖ` match iff
/// their keys are equal (DESIGN.md, "Weak equality without sets").
///
/// A row's key is its row attribute, then its non-⊥ `(attribute,
/// entry)` pairs, sorted and deduplicated, padded with `(⊥, ⊥)` — never
/// a real pair — to a stride of `1 + 2·max(width ρ, width σ)`. Both
/// buffers live for the whole call, so keying a row allocates nothing.
struct MatchKeys {
    stride: usize,
    pairs: Vec<(Symbol, Symbol)>,
    key: Vec<Symbol>,
}

impl MatchKeys {
    /// Keys for matching rows of `r` against rows of `s` (or of `r`).
    fn new(r: &Table, s: &Table) -> MatchKeys {
        MatchKeys {
            stride: 1 + 2 * r.width().max(s.width()),
            pairs: Vec::new(),
            key: Vec::new(),
        }
    }

    /// The key of data row `i` of `t`.
    fn of(&mut self, t: &Table, i: usize) -> &[Symbol] {
        let row = t.storage_row(i);
        self.pairs.clear();
        self.pairs.extend(
            t.col_attrs()
                .iter()
                .zip(&row[1..])
                .filter(|(_, e)| !e.is_null())
                .map(|(&a, &e)| (a, e)),
        );
        self.pairs.sort_unstable();
        self.pairs.dedup();
        self.key.clear();
        self.key.push(row[0]);
        self.key
            .extend(self.pairs.iter().flat_map(|&(a, e)| [a, e]));
        self.key.resize(self.stride, Symbol::Null);
        &self.key
    }

    /// An index of the keys of `t`'s data rows `rows`.
    fn index(&mut self, t: &Table, rows: impl Iterator<Item = usize>) -> RowIndex {
        let mut index = RowIndex::new(self.stride, t.height());
        for i in rows {
            index.insert(self.of(t, i));
        }
        index
    }
}

/// Cartesian product `T ← R × S` (Figure 3, right).
///
/// One data row per pair of data rows; columns of `ρ` followed by columns
/// of `σ`. The combined row attribute is the informational join of the two
/// row attributes when it exists (⊥ absorbs), and `ρ`'s row attribute
/// otherwise — the left-biased resolution is documented in DESIGN.md since
/// the extended abstract's diagram does not pin it down.
pub fn product(r: &Table, s: &Table, name: Symbol) -> Table {
    let mut t = product_header(r, s, name);
    product_append(&mut t, r, 1, s);
    t
}

/// The attribute row of `R × S`, named `name` and holding no data rows:
/// the column attributes of `ρ`, then those of `σ`.
pub fn product_header(r: &Table, s: &Table, name: Symbol) -> Table {
    let mut t = Table::new(name, 0, r.width() + s.width());
    for (j, &a) in r.col_attrs().iter().chain(s.col_attrs()).enumerate() {
        t.set(0, j + 1, a);
    }
    t
}

/// Append to `acc` the product rows `ρᵢ × σₖ` for every `i ≥ from_row` (in
/// the same left-major order [`product`] uses). This is the incremental
/// step of the delta `while` strategy: when `ρ` has only grown by appended
/// rows since the product was last computed and `σ` is unchanged, the new
/// product is the cached output plus exactly these rows.
pub fn product_append(acc: &mut Table, r: &Table, from_row: usize, s: &Table) {
    debug_assert_eq!(
        acc.width(),
        r.width() + s.width(),
        "product_append width mismatch"
    );
    if from_row > r.height() {
        return;
    }
    acc.append_rows(|rows| {
        rows.reserve_rows((r.height() + 1 - from_row) * s.height());
        for i in from_row..=r.height() {
            for k in 1..=s.height() {
                let attr = r.get(i, 0).join(s.get(k, 0)).unwrap_or_else(|| r.get(i, 0));
                rows.push_row_parts(attr, r.data_row(i), s.data_row(k));
            }
        }
    });
}

/// Renaming `T ← RENAME_{B←A}(R)`: every column attribute equal to `a`
/// becomes `b`.
pub fn rename(r: &Table, a: Symbol, b: Symbol, name: Symbol) -> Table {
    // When no attribute-row cell changes (attribute absent, or `a = b`)
    // and the name already matches, the result *is* the input: return the
    // handle clone without touching the shared cell buffer — any write
    // (including `set_name` with the same symbol) would materialize a
    // copy-on-write duplicate of the whole buffer. Pinned by an
    // alloc-regression guard. Self-renames of this shape are common in
    // double-buffered fixpoint bodies (`RTC ← RENAME[B←B](RTC)`).
    let rewrites = a != b && r.col_attrs().contains(&a);
    if !rewrites && r.name() == name {
        return r.clone();
    }
    let mut t = r.clone();
    t.set_name(name);
    if rewrites {
        for j in 1..=t.width() {
            if t.col_attr(j) == a {
                t.set(0, j, b);
            }
        }
    }
    t
}

/// Copy a table under a new name (derived: `RENAME_{A←A}`).
pub fn copy(r: &Table, name: Symbol) -> Table {
    let mut t = r.clone();
    t.set_name(name);
    t
}

/// Projection `T ← PROJECT_𝒜(R)`: keep the data columns whose attribute
/// lies in `attrs` (in original order; repeated attributes keep all their
/// columns).
pub fn project(r: &Table, attrs: &SymbolSet, name: Symbol) -> Table {
    let cols = r.cols_in(attrs);
    let mut cells = Vec::with_capacity((r.height() + 1) * (cols.len() + 1));
    cells.push(name);
    cells.extend(cols.iter().map(|&j| r.col_attr(j)));
    projected_rows(r, &cols, 1, &mut cells);
    Table::from_parts(r.height(), cols.len(), cells)
}

/// The row kernel of [`project`]: push onto `cells` the columns `cols`
/// of `r`'s data rows `from..=r.height()`, each after its row attribute.
pub(crate) fn projected_rows(r: &Table, cols: &[usize], from: usize, cells: &mut Vec<Symbol>) {
    for i in from..=r.height() {
        let row = r.storage_row(i);
        cells.push(row[0]);
        cells.extend(cols.iter().map(|&j| row[j]));
    }
}

/// Selection `T ← SELECT_{A=B}(R)`: keep the data rows `i` for which
/// `ρᵢ(a) ≗ ρᵢ(b)` — *weak* equality of the entry sets under the two
/// attributes (paper §3.1: "weak equality is used instead of classical
/// equality in the definition of selection").
pub fn select(r: &Table, a: Symbol, b: Symbol, name: Symbol) -> Table {
    let mut t = r.select_rows(&select_matches(r, 1, a, b));
    t.set_name(name);
    t
}

/// The row test of [`select`] over `r`'s data rows `from..=r.height()`:
/// the rows with `ρᵢ(a) ≗ ρᵢ(b)`, in order.
///
/// The columns of `a` and `b` are resolved once; a row matches when every
/// non-⊥ cell under one attribute occurs under the other. For singletons
/// this is one comparison and a ⊥ check: `{⊥} ≗ {v}` fails exactly when
/// `v ≠ ⊥`.
pub fn select_matches(r: &Table, from: usize, a: Symbol, b: Symbol) -> Vec<usize> {
    let (ca, cb) = (r.cols_named(a), r.cols_named(b));
    let within = |row: &[Symbol], xs: &[usize], ys: &[usize]| {
        xs.iter()
            .all(|&j| row[j].is_null() || ys.iter().any(|&l| row[l] == row[j]))
    };
    (from..=r.height())
        .filter(|&i| {
            let row = r.storage_row(i);
            within(row, &ca, &cb) && within(row, &cb, &ca)
        })
        .collect()
}

/// Constant selection `T ← σ_{A=v}(R)`: keep the data rows having `v`
/// among their entries under attribute `a`. The paper derives this from
/// switching (§3.3), but only where `v` occurs once in the table (see
/// DESIGN.md, "Constant selection via switch"); it is provided directly.
pub fn select_const(r: &Table, a: Symbol, v: Symbol, name: Symbol) -> Table {
    let mut t = r.select_rows(&select_const_matches(r, 1, a, v));
    t.set_name(name);
    t
}

/// The row test of [`select_const`] over `r`'s data rows
/// `from..=r.height()`: the rows with `v ∈ ρᵢ(a)`, in order — those with
/// `v` in one of `a`'s columns, resolved once. `v` may be ⊥; an absent
/// attribute matches no row.
pub fn select_const_matches(r: &Table, from: usize, a: Symbol, v: Symbol) -> Vec<usize> {
    let cols = r.cols_named(a);
    (from..=r.height())
        .filter(|&i| {
            let row = r.storage_row(i);
            cols.iter().any(|&j| row[j] == v)
        })
        .collect()
}

/// Append to `out` the storage rows `rows` of `r`, in that order.
pub(crate) fn push_rows(out: &mut Table, r: &Table, rows: impl IntoIterator<Item = usize>) {
    let rows = rows.into_iter();
    out.append_rows(|out| {
        out.reserve_rows(rows.size_hint().0);
        for i in rows {
            out.push_row(r.storage_row(i));
        }
    });
}

/// Append to `out` the storage rows laid end to end in `cells`.
pub(crate) fn push_cells(out: &mut Table, cells: &[Symbol]) {
    let stride = out.width() + 1;
    out.append_rows(|rows| {
        rows.reserve_rows(cells.len() / stride);
        for row in cells.chunks_exact(stride) {
            rows.push_row(row);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r() -> Table {
        Table::relational("R", &["A", "B"], &[&["1", "2"], &["3", "4"]])
    }

    fn s() -> Table {
        Table::relational("S", &["A", "B"], &[&["1", "2"], &["5", "6"]])
    }

    fn nm(x: &str) -> Symbol {
        Symbol::name(x)
    }

    #[test]
    fn union_concatenates_columns_and_pads() {
        let t = union(&r(), &s(), nm("T"));
        assert_eq!(t.width(), 4);
        assert_eq!(t.height(), 4);
        assert_eq!(t.name(), nm("T"));
        // Row from R: data under first block, ⊥ under second.
        assert_eq!(t.get(1, 1), Symbol::value("1"));
        assert!(t.get(1, 3).is_null());
        // Row from S: ⊥ under first block.
        assert!(t.get(3, 1).is_null());
        assert_eq!(t.get(3, 3), Symbol::value("1"));
    }

    #[test]
    fn union_works_on_incompatible_schemes() {
        let a = Table::relational("R", &["A"], &[&["1"]]);
        let b = Table::relational("S", &["X", "Y"], &[&["2", "3"]]);
        let t = union(&a, &b, nm("T"));
        assert_eq!(t.width(), 3);
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn difference_is_classical_on_relations() {
        let t = difference(&r(), &s(), nm("T"));
        assert_eq!(t.height(), 1);
        assert_eq!(t.get(1, 1), Symbol::value("3"));
        // R \ R = empty.
        assert_eq!(difference(&r(), &r(), nm("T")).height(), 0);
    }

    #[test]
    fn difference_matches_up_to_subsumption_equivalence() {
        // Rows that mutually subsume (same entry sets under same-named
        // columns) are removed even when column order differs.
        let a = Table::from_grid(&[&["R", "X", "X"], &["_", "1", "_"]]).unwrap();
        let b = Table::from_grid(&[&["S", "X", "X"], &["_", "_", "1"]]).unwrap();
        assert_eq!(difference(&a, &b, nm("T")).height(), 0);
    }

    #[test]
    fn difference_respects_row_attributes() {
        let a = Table::from_grid(&[&["R", "X"], &["east", "1"]]).unwrap();
        let b = Table::from_grid(&[&["S", "X"], &["west", "1"]]).unwrap();
        assert_eq!(difference(&a, &b, nm("T")).height(), 1);
    }

    #[test]
    fn intersect_from_difference() {
        let t = intersect(&r(), &s(), nm("T"));
        assert_eq!(t.height(), 1);
        assert_eq!(t.get(1, 1), Symbol::value("1"));
        assert_eq!(t.name(), nm("T"));
    }

    #[test]
    fn product_pairs_all_rows() {
        let t = product(&r(), &s(), nm("T"));
        assert_eq!(t.height(), 4);
        assert_eq!(t.width(), 4);
        assert_eq!(t.get(1, 1), Symbol::value("1"));
        assert_eq!(t.get(1, 3), Symbol::value("1"));
        assert_eq!(t.get(2, 3), Symbol::value("5"));
    }

    #[test]
    fn product_joins_row_attributes() {
        let a = Table::from_grid(&[&["R", "X"], &["east", "1"]]).unwrap();
        let b = Table::from_grid(&[&["S", "Y"], &["_", "2"]]).unwrap();
        let t = product(&a, &b, nm("T"));
        assert_eq!(t.get(1, 0), Symbol::name("east"));
        // Conflicting attributes resolve left.
        let c = Table::from_grid(&[&["S", "Y"], &["west", "2"]]).unwrap();
        let t2 = product(&a, &c, nm("T"));
        assert_eq!(t2.get(1, 0), Symbol::name("east"));
    }

    #[test]
    fn product_with_empty_operand_is_empty() {
        let empty = Table::relational("S", &["Y"], &[]);
        assert_eq!(product(&r(), &empty, nm("T")).height(), 0);
    }

    #[test]
    fn rename_renames_all_occurrences() {
        let dup = Table::from_grid(&[&["R", "A", "A", "B"], &["_", "1", "2", "3"]]).unwrap();
        let t = rename(&dup, nm("A"), nm("C"), nm("T"));
        assert_eq!(t.col_attrs(), &[nm("C"), nm("C"), nm("B")]);
    }

    #[test]
    fn project_keeps_selected_columns_in_order() {
        let t = project(&r(), &SymbolSet::from_iter([nm("B")]), nm("T"));
        assert_eq!(t.width(), 1);
        assert_eq!(t.col_attrs(), &[nm("B")]);
        assert_eq!(t.get(1, 1), Symbol::value("2"));
    }

    #[test]
    fn project_keeps_repeated_attributes() {
        let dup = Table::from_grid(&[&["R", "A", "B", "A"], &["_", "1", "2", "3"]]).unwrap();
        let t = project(&dup, &SymbolSet::from_iter([nm("A")]), nm("T"));
        assert_eq!(t.width(), 2);
        assert_eq!(t.get(1, 2), Symbol::value("3"));
    }

    #[test]
    fn select_uses_weak_equality() {
        let tab = Table::from_grid(&[
            &["R", "A", "B"],
            &["_", "1", "1"],
            &["_", "1", "2"],
            &["_", "1", "_"], // ⊥ under B: {1} ≗ {⊥}? no — {1}\⊥ ⊄ ∅
        ])
        .unwrap();
        let t = select(&tab, nm("A"), nm("B"), nm("T"));
        assert_eq!(t.height(), 1);
        assert_eq!(t.get(1, 1), Symbol::value("1"));
    }

    #[test]
    fn select_on_all_null_entries_is_weakly_equal() {
        let tab = Table::from_grid(&[&["R", "A", "B"], &["_", "_", "_"]]).unwrap();
        let t = select(&tab, nm("A"), nm("B"), nm("T"));
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn select_const_exact_membership() {
        let tab = Table::from_grid(&[&["R", "A"], &["_", "1"], &["_", "2"], &["_", "_"]]).unwrap();
        let t = select_const(&tab, nm("A"), Symbol::value("1"), nm("T"));
        assert_eq!(t.height(), 1);
        // Selecting ⊥ finds the all-null row.
        let t2 = select_const(&tab, nm("A"), Symbol::Null, nm("T"));
        assert_eq!(t2.height(), 1);
        assert!(t2.get(1, 1).is_null());
    }

    #[test]
    fn switch_anchors_only_a_unique_occurrence() {
        use crate::ops::switch;
        // The §3.3 derivation of constant selection: with a unique
        // occurrence, switch moves v's row into the attribute row, where
        // it can anchor the selection…
        let unique = Table::relational("R", &["A", "B"], &[&["1", "2"], &["3", "4"]]);
        let sw = switch(&unique, Symbol::value("3"), nm("S"));
        assert_eq!(sw.get(0, 2), Symbol::value("4"), "v's row became row 0");
        // …but with a repeated occurrence, switch degenerates to a mere
        // rename (the derivation cannot proceed), while constant
        // selection still keeps every matching row.
        let dup = Table::relational("R", &["A", "B"], &[&["1", "2"], &["1", "4"]]);
        let sw = switch(&dup, Symbol::value("1"), nm("S"));
        let mut renamed = dup.clone();
        renamed.set_name(nm("S"));
        assert_eq!(sw, renamed, "no unique occurrence: switch only renames");
        assert_eq!(
            select_const(&dup, nm("A"), Symbol::value("1"), nm("T")).height(),
            2
        );
    }

    #[test]
    fn intersect_matches_the_two_difference_derivation() {
        // On messy operands (mismatched schemes, repeated attributes, ⊥)
        // the single-bitmap evaluation must reproduce R \ (R \ S) through
        // the subsumption path…
        let a = Table::from_grid(&[
            &["R", "A", "A", "B"],
            &["_", "1", "1", "2"],
            &["x", "1", "_", "2"],
            &["_", "3", "3", "_"],
        ])
        .unwrap();
        let b = Table::from_grid(&[
            &["S", "A", "B"],
            &["_", "1", "2"],
            &["x", "1", "2"],
            &["_", "9", "9"],
        ])
        .unwrap();
        let derived = difference(&a, &difference(&a, &b, nm("T")), nm("T"));
        assert_eq!(intersect(&a, &b, nm("T")), derived);
        // …and through the hash path on aligned distinct schemes.
        let derived = difference(&r(), &difference(&r(), &s(), nm("T")), nm("T"));
        assert_eq!(intersect(&r(), &s(), nm("T")), derived);
        assert_eq!(intersect(&r(), &s(), nm("T")).height(), 1);
    }

    #[test]
    fn rename_of_absent_attribute_in_place_is_a_handle_clone() {
        let t = r();
        let out = rename(&t, nm("Z"), nm("Z2"), t.name());
        assert_eq!(out, t);
        assert!(out.shares_cells_with(&t), "no write, no CoW");
        // a == b writes nothing either.
        let out = rename(&t, nm("A"), nm("A"), t.name());
        assert!(out.shares_cells_with(&t));
        // A different target name still forces the name write…
        let named = rename(&t, nm("Z"), nm("Z2"), nm("T"));
        assert_eq!(named.name(), nm("T"));
        assert!(!named.shares_cells_with(&t));
        // …and a present attribute still rewrites the attribute row.
        let renamed = rename(&t, nm("A"), nm("C"), t.name());
        assert_eq!(renamed.col_attrs(), &[nm("C"), nm("B")]);
    }
}
