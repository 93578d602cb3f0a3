//! The one row index of the algebra.
//!
//! Clean-up, purge, split, merge, the fused restructure, difference,
//! intersection, classical union and the hash join each decide which rows
//! (or columns, read through their key cells) carry the same key.
//! [`RowIndex`] makes that decision for all of them, and the delta
//! `while` engine keeps one per accumulator along append lineage and
//! probes it through the same operations.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use tabular_core::{Symbol, Table};

/// A set of symbol rows of one length (the stride), each numbered by its
/// first occurrence. The index owns copies of its rows in one flat arena,
/// in that order; rows with equal hashes are chained through `next`, so
/// inserting a row allocates nothing of its own.
pub(crate) struct RowIndex {
    stride: usize,
    /// The distinct rows, concatenated in first-occurrence order.
    rows: Vec<Symbol>,
    /// Row hash → the last distinct row inserted with that hash.
    heads: HashMap<u64, usize, BuildHasherDefault<PreHashed>>,
    /// Per distinct row, the previous row with the same hash, or
    /// [`NO_ROW`].
    next: Vec<usize>,
}

const NO_ROW: usize = usize::MAX;

impl RowIndex {
    /// An empty index of rows of `stride` symbols, sized for `rows` rows.
    pub(crate) fn new(stride: usize, rows: usize) -> RowIndex {
        RowIndex {
            stride,
            rows: Vec::with_capacity(rows * stride),
            heads: HashMap::with_capacity_and_hasher(rows, Default::default()),
            next: Vec::with_capacity(rows),
        }
    }

    /// An index of the storage rows (row attribute included) of `t`.
    pub(crate) fn of_rows(t: &Table) -> RowIndex {
        let mut index = RowIndex::new(t.width() + 1, t.height());
        index.extend(t, 1);
        index
    }

    /// Insert the storage rows `from..=t.height()` of `t`.
    pub(crate) fn extend(&mut self, t: &Table, from: usize) {
        for i in from..=t.height() {
            self.insert(t.storage_row(i));
        }
    }

    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// The number of distinct rows.
    pub(crate) fn len(&self) -> usize {
        self.next.len()
    }

    /// The distinct row with id `id`.
    pub(crate) fn row(&self, id: usize) -> &[Symbol] {
        &self.rows[id * self.stride..(id + 1) * self.stride]
    }

    /// Every distinct row, concatenated in id order.
    pub(crate) fn rows(&self) -> &[Symbol] {
        &self.rows
    }

    /// Every distinct row, concatenated in id order, without a copy.
    pub(crate) fn into_rows(self) -> Vec<Symbol> {
        self.rows
    }

    /// The id of `row`, if the index holds it.
    pub(crate) fn id(&self, row: &[Symbol]) -> Option<usize> {
        self.find(row_hash(row), row)
    }

    pub(crate) fn contains(&self, row: &[Symbol]) -> bool {
        self.id(row).is_some()
    }

    fn find(&self, hash: u64, row: &[Symbol]) -> Option<usize> {
        let mut at = self.heads.get(&hash).copied().unwrap_or(NO_ROW);
        while at != NO_ROW {
            if self.row(at) == row {
                return Some(at);
            }
            at = self.next[at];
        }
        None
    }

    /// The id of `row`, which is added unless present, and whether it was
    /// added. Ids count distinct rows in first-occurrence order.
    pub(crate) fn insert(&mut self, row: &[Symbol]) -> (usize, bool) {
        debug_assert_eq!(row.len(), self.stride, "row index stride mismatch");
        let hash = row_hash(row);
        if let Some(id) = self.find(hash, row) {
            return (id, false);
        }
        let id = self.next.len();
        self.rows.extend_from_slice(row);
        let prev = self.heads.insert(hash, id).unwrap_or(NO_ROW);
        self.next.push(prev);
        (id, true)
    }
}

/// A well-mixed 64-bit hash of a row: a multiply-rotate fold of the
/// cells' [`Symbol::code`]s, finished by MurmurHash3's `fmix64` so that
/// both the bucket bits and the control bits of the hash table vary.
fn row_hash(row: &[Symbol]) -> u64 {
    let mut h: u64 = 0;
    for s in row {
        h = (h.rotate_left(5) ^ s.code()).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The hasher of [`RowIndex::heads`], whose keys are already
/// [`row_hash`]es: it passes them through.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: &str) -> Symbol {
        Symbol::value(x)
    }

    #[test]
    fn ids_count_first_occurrences() {
        let mut index = RowIndex::new(2, 0);
        assert_eq!(index.insert(&[v("a"), Symbol::Null]), (0, true));
        assert_eq!(index.insert(&[v("b"), v("a")]), (1, true));
        assert_eq!(index.insert(&[v("a"), Symbol::Null]), (0, false));
        assert_eq!(index.len(), 2);
        assert_eq!(index.row(1), &[v("b"), v("a")]);
        assert_eq!(index.rows(), &[v("a"), Symbol::Null, v("b"), v("a")]);
        assert!(!index.contains(&[v("a"), v("b")]));
        assert_eq!(index.id(&[v("b"), v("a")]), Some(1));
        assert_eq!(index.id(&[v("a"), v("b")]), None);
    }

    #[test]
    fn empty_rows_are_one_key() {
        let mut index = RowIndex::new(0, 3);
        assert_eq!(index.insert(&[]), (0, true));
        assert_eq!(index.insert(&[]), (0, false));
        assert_eq!(index.len(), 1);
    }
}
