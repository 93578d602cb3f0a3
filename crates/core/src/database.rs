//! Tabular databases: sets of tables (paper §2).
//!
//! Several tables may share one name — the number of `Sales` tables in
//! `SalesInfo4` (Figure 1) depends on the instance — so a database is a
//! *set of tables*, not a name-indexed map. Exact duplicates are collapsed
//! (set semantics); tables equal only up to row/column permutation are kept
//! distinct until [`Database::canonicalize`] is applied.
//!
//! ## Storage
//!
//! A `Database` is a handle over an [`Arc`]-shared `TableStore`: the
//! insertion-ordered table vector plus two secondary indexes — name →
//! indices (serving [`Database::tables_named`] in O(matches)) and
//! fingerprint → indices (serving [`Database::insert`]'s duplicate check
//! in O(1) expected; the fingerprint is a filter, exact `==` confirms, so
//! set semantics never depend on hash collisions). Cloning a database —
//! [`Database::snapshot`] — copies one pointer. Mutating a shared
//! database copies the store (table *handles* and indexes, never cell
//! buffers) via [`Arc::make_mut`]; both events are counted in
//! [`crate::stats`].

use crate::symbol::Symbol;
use crate::table::Table;
use crate::weak::SymbolSet;
use std::collections::HashMap;
use std::sync::Arc;

/// The shared storage behind [`Database`] handles: insertion-ordered
/// tables plus name and fingerprint indexes (see the module docs).
#[derive(Debug, Default)]
struct TableStore {
    tables: Vec<Table>,
    /// name → indices into `tables`, ascending (insertion order).
    by_name: HashMap<Symbol, Vec<u32>>,
    /// fingerprint → indices into `tables`; candidates for dedup, always
    /// confirmed by exact equality.
    by_fp: HashMap<u64, Vec<u32>>,
}

impl Clone for TableStore {
    fn clone(&self) -> TableStore {
        crate::stats::record_store_copy();
        TableStore {
            tables: self.tables.clone(),
            by_name: self.by_name.clone(),
            by_fp: self.by_fp.clone(),
        }
    }
}

impl TableStore {
    fn from_tables(tables: Vec<Table>) -> TableStore {
        let mut store = TableStore {
            tables,
            by_name: HashMap::new(),
            by_fp: HashMap::new(),
        };
        store.reindex();
        store
    }

    /// Rebuild both indexes from the table vector (used after removals,
    /// where shifting every index is no cheaper than rebuilding).
    fn reindex(&mut self) {
        self.by_name.clear();
        self.by_fp.clear();
        for (ix, t) in self.tables.iter().enumerate() {
            let ix = ix as u32;
            self.by_name.entry(t.name()).or_default().push(ix);
            self.by_fp.entry(t.fingerprint()).or_default().push(ix);
        }
    }
}

/// A set of [`Table`]s.
///
/// Cloning is an O(1) snapshot: handles share the store until one of them
/// mutates (see the module docs).
#[derive(Debug, Default)]
pub struct Database {
    store: Arc<TableStore>,
}

impl Clone for Database {
    fn clone(&self) -> Database {
        crate::stats::record_snapshot();
        Database {
            store: Arc::clone(&self.store),
        }
    }
}

impl PartialEq for Database {
    fn eq(&self, other: &Database) -> bool {
        Arc::ptr_eq(&self.store, &other.store) || self.store.tables == other.store.tables
    }
}

impl Eq for Database {}

impl Database {
    /// The empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Build from tables, collapsing exact duplicates.
    pub fn from_tables<I: IntoIterator<Item = Table>>(tables: I) -> Database {
        let mut db = Database::new();
        for t in tables {
            db.insert(t);
        }
        db
    }

    /// Wrap an already-deduplicated table vector without re-checking set
    /// membership (internal constructor for bulk rebuilds).
    fn from_vec(tables: Vec<Table>) -> Database {
        Database {
            store: Arc::new(TableStore::from_tables(tables)),
        }
    }

    /// An O(1) snapshot: a new handle sharing this database's storage.
    /// Mutations on either handle copy table *handles* (copy-on-write),
    /// never cell buffers, so snapshots are always isolated from later
    /// writes. Identical to `clone`, named for intent at call sites.
    pub fn snapshot(&self) -> Database {
        self.clone()
    }

    /// The store, uniquely owned: copies it first iff currently shared.
    fn store_mut(&mut self) -> &mut TableStore {
        Arc::make_mut(&mut self.store)
    }

    /// Insert a table (no-op if an identical table is already present).
    /// Returns `true` if the table was new. O(1) expected: the duplicate
    /// check probes the fingerprint index and compares only
    /// fingerprint-equal candidates exactly.
    pub fn insert(&mut self, table: Table) -> bool {
        let fp = table.fingerprint();
        if let Some(candidates) = self.store.by_fp.get(&fp) {
            if candidates
                .iter()
                .any(|&ix| self.store.tables[ix as usize] == table)
            {
                return false;
            }
        }
        let store = self.store_mut();
        let ix = u32::try_from(store.tables.len()).expect("database overflow: > 4G tables");
        store.by_name.entry(table.name()).or_default().push(ix);
        store.by_fp.entry(fp).or_default().push(ix);
        store.tables.push(table);
        true
    }

    /// All tables, in insertion order.
    pub fn tables(&self) -> &[Table] {
        &self.store.tables
    }

    /// All tables with the given name, in insertion order.
    pub fn tables_named(&self, name: Symbol) -> Vec<&Table> {
        self.tables_named_iter(name).collect()
    }

    /// Iterator variant of [`Database::tables_named`]: serves from the
    /// name index without allocating.
    pub fn tables_named_iter(&self, name: Symbol) -> impl Iterator<Item = &Table> + '_ {
        self.store
            .by_name
            .get(&name)
            .into_iter()
            .flatten()
            .map(|&ix| &self.store.tables[ix as usize])
    }

    /// The unique table with the given name; `None` if there are zero or
    /// several.
    pub fn table(&self, name: Symbol) -> Option<&Table> {
        match self.store.by_name.get(&name)?.as_slice() {
            [ix] => Some(&self.store.tables[*ix as usize]),
            _ => None,
        }
    }

    /// Shorthand: the unique table named `name`, by string.
    pub fn table_str(&self, name: &str) -> Option<&Table> {
        self.table(Symbol::name(name))
    }

    /// Mutate the unique table named `name` in place, without copying the
    /// rest of the store. The closure must preserve the table's name
    /// (debug-asserted); since a table's name is part of its content and
    /// `name` has exactly one table, the mutation cannot create a
    /// duplicate, so set semantics are preserved. Returns `false` (and
    /// does not run the closure) if there are zero or several tables with
    /// the name.
    ///
    /// This is the delta evaluator's append path: pushing rows into a
    /// uniquely owned table amortizes to O(rows appended) instead of the
    /// O(table) remove-and-reinsert round trip.
    pub fn update_named(&mut self, name: Symbol, f: impl FnOnce(&mut Table)) -> bool {
        let ix = match self.store.by_name.get(&name).map(Vec::as_slice) {
            Some(&[ix]) => ix as usize,
            _ => return false,
        };
        let old_fp = self.store.tables[ix].fingerprint();
        let store = self.store_mut();
        let t = &mut store.tables[ix];
        f(t);
        debug_assert_eq!(t.name(), name, "update_named must preserve the table name");
        let new_fp = t.fingerprint();
        if new_fp != old_fp {
            if let Some(v) = store.by_fp.get_mut(&old_fp) {
                v.retain(|&i| i as usize != ix);
                if v.is_empty() {
                    store.by_fp.remove(&old_fp);
                }
            }
            store.by_fp.entry(new_fp).or_default().push(ix as u32);
        }
        true
    }

    /// Remove all tables with the given name; returns how many were
    /// removed.
    pub fn remove_named(&mut self, name: Symbol) -> usize {
        let matches = self.store.by_name.get(&name).map_or(0, Vec::len);
        if matches == 0 {
            return 0;
        }
        let store = self.store_mut();
        store.tables.retain(|t| t.name() != name);
        store.reindex();
        matches
    }

    /// Keep only tables satisfying the predicate.
    pub fn retain(&mut self, pred: impl FnMut(&Table) -> bool) {
        let store = self.store_mut();
        let before = store.tables.len();
        store.tables.retain(pred);
        if store.tables.len() != before {
            store.reindex();
        }
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.store.tables.len()
    }

    /// True if no tables.
    pub fn is_empty(&self) -> bool {
        self.store.tables.is_empty()
    }

    /// The set of table names occurring in the database. Any finite
    /// superset of this is a *scheme* for the database (paper §4.1).
    pub fn names(&self) -> SymbolSet {
        SymbolSet::from_iter(self.store.by_name.keys().copied())
    }

    /// `|D|`: the set of all symbols occurring in the database (⊥
    /// excluded, as the paper's morphisms always fix ⊥).
    pub fn symbols(&self) -> SymbolSet {
        SymbolSet::from_iter(
            self.store
                .tables
                .iter()
                .flat_map(|t| t.symbols())
                .filter(|s| !s.is_null()),
        )
    }

    /// Insert all tables of `other`.
    pub fn absorb(&mut self, other: Database) {
        if self.is_empty() {
            *self = other;
            return;
        }
        for t in other.store.tables.iter() {
            self.insert(t.clone());
        }
    }

    /// Canonicalize every table, sort the set, and collapse duplicates:
    /// a normal form for the paper's equality "up to permutations of the
    /// non-attribute rows and columns" (§4.1).
    pub fn canonicalize(&self) -> Database {
        let mut tables: Vec<Table> = self.store.tables.iter().map(Table::canonicalize).collect();
        tables.sort_by(|a, b| {
            a.name()
                .canonical_cmp(b.name())
                .then_with(|| a.height().cmp(&b.height()))
                .then_with(|| a.width().cmp(&b.width()))
                .then_with(|| cmp_tables(a, b))
        });
        tables.dedup();
        Database::from_vec(tables)
    }

    /// Equality up to per-table row/column permutations and table order.
    pub fn equiv(&self, other: &Database) -> bool {
        self.canonicalize() == other.canonicalize()
    }

    /// Apply `f` to every symbol of every table (used to realize the
    /// morphisms of §4.1 in tests). Preserves table count and order (no
    /// dedup, matching the historical behavior even when `f` identifies
    /// two tables).
    pub fn map_symbols(&self, mut f: impl FnMut(Symbol) -> Symbol) -> Database {
        Database::from_vec(
            self.store
                .tables
                .iter()
                .map(|t| t.map_symbols(&mut f))
                .collect(),
        )
    }

    /// Total number of cells across all tables (a size measure for
    /// benchmarks).
    pub fn cell_count(&self) -> usize {
        self.store
            .tables
            .iter()
            .map(|t| (t.height() + 1) * (t.width() + 1))
            .sum()
    }
}

fn cmp_tables(a: &Table, b: &Table) -> std::cmp::Ordering {
    for i in 0..=a.height().min(b.height()) {
        for (x, y) in a.storage_row(i).iter().zip(b.storage_row(i)) {
            let c = x.canonical_cmp(*y);
            if c != std::cmp::Ordering::Equal {
                return c;
            }
        }
    }
    std::cmp::Ordering::Equal
}

impl FromIterator<Table> for Database {
    fn from_iter<I: IntoIterator<Item = Table>>(iter: I) -> Database {
        Database::from_tables(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(name: &str, val: &str) -> Table {
        Table::relational(name, &["A"], &[&[val]])
    }

    #[test]
    fn set_semantics_collapse_exact_duplicates() {
        let mut db = Database::new();
        assert!(db.insert(t("R", "1")));
        assert!(!db.insert(t("R", "1")));
        assert!(db.insert(t("R", "2")));
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn multiple_tables_may_share_a_name() {
        let db = Database::from_tables([t("Sales", "1"), t("Sales", "2"), t("Other", "3")]);
        assert_eq!(db.tables_named(Symbol::name("Sales")).len(), 2);
        assert!(db.table(Symbol::name("Sales")).is_none());
        assert!(db.table_str("Other").is_some());
    }

    #[test]
    fn tables_named_preserves_insertion_order() {
        let db = Database::from_tables([t("R", "2"), t("S", "x"), t("R", "1"), t("R", "3")]);
        let vals: Vec<Symbol> = db
            .tables_named_iter(Symbol::name("R"))
            .map(|tab| tab.get(1, 1))
            .collect();
        assert_eq!(
            vals,
            vec![Symbol::value("2"), Symbol::value("1"), Symbol::value("3")]
        );
        assert_eq!(db.tables_named(Symbol::name("R")).len(), 3);
        assert_eq!(db.tables_named_iter(Symbol::name("Z")).count(), 0);
    }

    #[test]
    fn names_and_symbols() {
        let db = Database::from_tables([t("R", "1"), t("S", "2")]);
        let names = db.names();
        assert!(names.contains(Symbol::name("R")));
        assert!(names.contains(Symbol::name("S")));
        assert_eq!(names.len(), 2);
        let syms = db.symbols();
        assert!(syms.contains(Symbol::value("1")));
        assert!(syms.contains(Symbol::name("A")));
        assert!(!syms.contains(Symbol::Null));
    }

    #[test]
    fn equiv_up_to_permutation_and_order() {
        let a = Table::relational("R", &["A", "B"], &[&["1", "2"], &["3", "4"]]);
        let a_perm = a.select_rows(&[2, 1]);
        let db1 = Database::from_tables([a, t("S", "x")]);
        let db2 = Database::from_tables([t("S", "x"), a_perm]);
        assert!(db1.equiv(&db2));
        assert!(!db1.equiv(&Database::from_tables([t("S", "x")])));
    }

    #[test]
    fn canonicalize_collapses_permuted_duplicates() {
        let a = Table::relational("R", &["A"], &[&["1"], &["2"]]);
        let b = a.select_rows(&[2, 1]);
        let db = Database::from_tables([a, b]);
        assert_eq!(db.len(), 2);
        assert_eq!(db.canonicalize().len(), 1);
    }

    #[test]
    fn remove_and_retain() {
        let mut db = Database::from_tables([t("R", "1"), t("R", "2"), t("S", "3")]);
        assert_eq!(db.remove_named(Symbol::name("R")), 2);
        assert_eq!(db.len(), 1);
        db.retain(|tab| tab.name() != Symbol::name("S"));
        assert!(db.is_empty());
        assert_eq!(db.remove_named(Symbol::name("R")), 0);
    }

    #[test]
    fn indexes_survive_removal() {
        let mut db = Database::from_tables([t("R", "1"), t("S", "2"), t("R", "3"), t("T", "4")]);
        db.remove_named(Symbol::name("S"));
        assert_eq!(db.tables_named(Symbol::name("R")).len(), 2);
        assert_eq!(
            db.table(Symbol::name("T")).unwrap().get(1, 1),
            Symbol::value("4")
        );
        // Dedup still works against the reindexed store.
        assert!(!db.insert(t("R", "3")));
        assert!(db.insert(t("S", "2")));
    }

    #[test]
    fn absorb_unions_table_sets() {
        let mut a = Database::from_tables([t("R", "1")]);
        a.absorb(Database::from_tables([t("R", "1"), t("S", "2")]));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn cell_count_counts_attribute_cells() {
        let db = Database::from_tables([t("R", "1")]);
        // 1 data row + attr row, 1 data col + attr col: 2×2 = 4.
        assert_eq!(db.cell_count(), 4);
    }

    #[test]
    fn snapshots_share_the_store_until_mutation() {
        let db = Database::from_tables([t("R", "1"), t("S", "2")]);
        let mut snap = db.snapshot();
        assert_eq!(snap, db);
        assert!(snap.tables()[0].shares_cells_with(&db.tables()[0]));
        snap.insert(t("T", "3"));
        assert_eq!(db.len(), 2);
        assert_eq!(snap.len(), 3);
        // The copied store duplicated handles, not buffers.
        assert!(snap.tables()[0].shares_cells_with(&db.tables()[0]));
    }

    #[test]
    fn snapshot_isolated_from_update_named() {
        let db = Database::from_tables([t("R", "1"), t("S", "2")]);
        let mut snap = db.snapshot();
        assert!(snap.update_named(Symbol::name("R"), |tab| {
            tab.push_row(vec![Symbol::Null, Symbol::value("9")]);
        }));
        assert_eq!(db.table_str("R").unwrap().height(), 1);
        assert_eq!(snap.table_str("R").unwrap().height(), 2);
        // Untouched tables still share buffers with the original.
        assert!(snap
            .table_str("S")
            .unwrap()
            .shares_cells_with(db.table_str("S").unwrap()));
    }

    #[test]
    fn update_named_requires_a_unique_table() {
        let mut db = Database::from_tables([t("R", "1"), t("R", "2"), t("S", "3")]);
        assert!(!db.update_named(Symbol::name("R"), |_| unreachable!()));
        assert!(!db.update_named(Symbol::name("Z"), |_| unreachable!()));
        assert!(db.update_named(Symbol::name("S"), |tab| {
            tab.set(1, 1, Symbol::value("4"));
        }));
        // The fingerprint index followed the mutation: the old content
        // re-inserts as new, the new content dedups.
        assert!(db.insert(t("S", "3")));
        assert!(!db.insert(t("S", "4")));
    }

    #[test]
    fn insert_dedup_scales_to_10k_tables() {
        let start = std::time::Instant::now();
        let mut db = Database::new();
        for i in 0..10_000 {
            assert!(db.insert(t("R", &i.to_string())), "table {i} is distinct");
        }
        for i in 0..10_000 {
            assert!(
                !db.insert(t("R", &i.to_string())),
                "table {i} is a duplicate"
            );
        }
        assert_eq!(db.len(), 10_000);
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "20k inserts took {elapsed:?}; dedup must not be linear in the database"
        );
    }
}
