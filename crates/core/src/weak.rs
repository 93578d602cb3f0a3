//! Weak containment, weak equality, and symbol sets (paper §2).
//!
//! The presence of ⊥ requires an adapted notion of equality: for symbol
//! sets `A, B ⊆ S`,
//!
//! * `A ≼ B` (*weakly contained*)  iff  `A \ {⊥} ⊆ B \ {⊥}`;
//! * `A ≗ B` (*weakly equal*)      iff  `A ≼ B` and `B ≼ A`.
//!
//! These are the comparisons underlying row/column subsumption and the
//! selection operation of the tabular algebra.

use crate::symbol::Symbol;

/// A finite set of symbols, stored sorted and deduplicated.
///
/// Used for the multi-occurrence semantics of attributes: `ρᵢ(a)` — the set
/// of data entries of row `i` under all columns named `a` — is a
/// `SymbolSet`, as are attribute-set parameters of algebra operations.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct SymbolSet {
    items: Vec<Symbol>,
}

impl SymbolSet {
    /// The empty set.
    pub fn new() -> SymbolSet {
        SymbolSet::default()
    }

    /// Singleton set.
    pub fn singleton(s: Symbol) -> SymbolSet {
        SymbolSet { items: vec![s] }
    }

    /// Insert a symbol.
    pub fn insert(&mut self, s: Symbol) {
        if let Err(pos) = self.items.binary_search(&s) {
            self.items.insert(pos, s);
        }
    }

    /// Membership test (O(log n)).
    pub fn contains(&self, s: Symbol) -> bool {
        self.items.binary_search(&s).is_ok()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.items.iter().copied()
    }

    /// Set union.
    pub fn union(&self, other: &SymbolSet) -> SymbolSet {
        SymbolSet::from_iter(self.iter().chain(other.iter()))
    }

    /// Set difference `self \ other`.
    pub fn minus(&self, other: &SymbolSet) -> SymbolSet {
        SymbolSet {
            items: self.iter().filter(|s| !other.contains(*s)).collect(),
        }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &SymbolSet) -> SymbolSet {
        SymbolSet {
            items: self.iter().filter(|s| other.contains(*s)).collect(),
        }
    }

    /// Weak containment `self ≼ other`: every non-⊥ element of `self` is in
    /// `other`.
    pub fn weakly_contained_in(&self, other: &SymbolSet) -> bool {
        self.iter()
            .filter(|s| !s.is_null())
            .all(|s| other.contains(s))
    }

    /// Weak equality `self ≗ other`.
    pub fn weakly_equal(&self, other: &SymbolSet) -> bool {
        self.weakly_contained_in(other) && other.weakly_contained_in(self)
    }
}

impl FromIterator<Symbol> for SymbolSet {
    /// Build from any iterator, sorting and deduplicating.
    fn from_iter<I: IntoIterator<Item = Symbol>>(iter: I) -> SymbolSet {
        let mut items: Vec<Symbol> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        SymbolSet { items }
    }
}

impl<'a> IntoIterator for &'a SymbolSet {
    type Item = Symbol;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Symbol>>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Symbol {
        Symbol::value(s)
    }

    #[test]
    fn weak_containment_ignores_null() {
        let a = SymbolSet::from_iter([Symbol::Null, v("x")]);
        let b = SymbolSet::from_iter([v("x"), v("y")]);
        assert!(a.weakly_contained_in(&b));
        assert!(!b.weakly_contained_in(&a));
    }

    #[test]
    fn weak_equality_is_equality_modulo_null() {
        let a = SymbolSet::from_iter([Symbol::Null, v("x"), v("y")]);
        let b = SymbolSet::from_iter([v("y"), v("x")]);
        assert!(a.weakly_equal(&b));
        let c = SymbolSet::from_iter([v("x")]);
        assert!(!a.weakly_equal(&c));
    }

    #[test]
    fn weak_equality_is_an_equivalence() {
        // Reflexive, symmetric, transitive on representatives modulo ⊥.
        let sets = [
            SymbolSet::from_iter([v("a"), Symbol::Null]),
            SymbolSet::from_iter([v("a")]),
            SymbolSet::from_iter([v("a"), v("a"), Symbol::Null]),
        ];
        for s in &sets {
            assert!(s.weakly_equal(s));
        }
        assert!(sets[0].weakly_equal(&sets[1]));
        assert!(sets[1].weakly_equal(&sets[2]));
        assert!(sets[0].weakly_equal(&sets[2]));
    }

    #[test]
    fn empty_and_null_only_sets_are_weakly_equal() {
        let empty = SymbolSet::new();
        let nulls = SymbolSet::from_iter([Symbol::Null]);
        assert!(empty.weakly_equal(&nulls));
    }

    #[test]
    fn set_ops() {
        let a = SymbolSet::from_iter([v("x"), v("y")]);
        let b = SymbolSet::from_iter([v("y"), v("z")]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.minus(&b), SymbolSet::singleton(v("x")));
        assert_eq!(a.intersect(&b), SymbolSet::singleton(v("y")));
        assert!(a.contains(v("x")));
        assert!(!a.contains(v("z")));
    }

    #[test]
    fn insert_keeps_sorted_dedup() {
        let mut s = SymbolSet::new();
        s.insert(v("b"));
        s.insert(v("a"));
        s.insert(v("b"));
        assert_eq!(s.len(), 2);
        let items: Vec<_> = s.iter().collect();
        assert!(items.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn name_value_sorts_never_weakly_equal() {
        let a = SymbolSet::singleton(Symbol::name("east"));
        let b = SymbolSet::singleton(Symbol::value("east"));
        assert!(!a.weakly_equal(&b));
    }
}
