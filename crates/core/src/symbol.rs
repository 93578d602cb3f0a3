//! Symbols: the universe `S = N ∪ V ∪ {⊥}` of the tabular model (paper §2).
//!
//! * **Names** (`N`) generalize relation and attribute names. Algebra
//!   operations are allowed to distinguish individual names.
//! * **Values** (`V`) are data. For genericity (paper §4.1, condition (i)),
//!   operations never branch on individual values — they may only copy,
//!   compare for (weak) equality, and tag them.
//! * **⊥** is the *inapplicable null*, used wherever a table has no entry.
//!
//! In the paper's figures names are set in typewriter font; here the sort is
//! carried in the enum tag. The same spelling may exist both as a name and
//! as a value (`Symbol::name("east") != Symbol::value("east")`), exactly as
//! two fonts distinguish them on paper.

use crate::interner::{self, Istr};
use std::cmp::Ordering;
use std::fmt;

/// A symbol of the tabular model: a name, a value, or the inapplicable
/// null ⊥.
/// The derived `Ord` (names < values < ⊥, then interning order) is an
/// arbitrary total order used for set storage; the *canonical* order used
/// for normal forms is [`Symbol::canonical_cmp`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Symbol {
    /// A name (relation/attribute-style identifier); sort `N`.
    Name(Istr),
    /// A value (data); sort `V`.
    Value(Istr),
    /// The inapplicable null ⊥.
    Null,
}

impl Symbol {
    /// Intern `s` as a name.
    pub fn name(s: &str) -> Symbol {
        Symbol::Name(interner::intern(s))
    }

    /// Intern `s` as a value.
    pub fn value(s: &str) -> Symbol {
        Symbol::Value(interner::intern(s))
    }

    /// A fresh value never seen before (backs `tuple-new` / `set-new`).
    pub fn fresh_value() -> Symbol {
        Symbol::Value(interner::fresh("v"))
    }

    /// A fresh name never seen before (used for scratch table names).
    pub fn fresh_name() -> Symbol {
        Symbol::Name(interner::fresh("n"))
    }

    /// True for ⊥.
    pub fn is_null(self) -> bool {
        matches!(self, Symbol::Null)
    }

    /// True for names.
    pub fn is_name(self) -> bool {
        matches!(self, Symbol::Name(_))
    }

    /// True for values.
    pub fn is_value(self) -> bool {
        matches!(self, Symbol::Value(_))
    }

    /// The underlying string, or `None` for ⊥.
    #[inline]
    pub fn text(self) -> Option<&'static str> {
        self.istr().map(Istr::as_str)
    }

    /// A distinct integer per symbol, valid for the process lifetime: the
    /// sort in the low two bits (⊥ is 0), the interner index above.
    /// Content hashes (table fingerprints, row indexes) fold it instead
    /// of hashing the enum, which is what makes them process-local.
    pub fn code(self) -> u64 {
        match self {
            Symbol::Null => 0,
            Symbol::Name(i) => 1 | (u64::from(i.index()) << 2),
            Symbol::Value(i) => 2 | (u64::from(i.index()) << 2),
        }
    }

    /// The interned handle of a name or value, or `None` for ⊥.
    pub fn istr(self) -> Option<Istr> {
        match self {
            Symbol::Name(i) | Symbol::Value(i) => Some(i),
            Symbol::Null => None,
        }
    }

    /// *Weak equality* on individual symbols: `a ≐ b` iff `a = b` or either
    /// is ⊥. This is the entry-level analogue of the paper's weak equality
    /// on sets and is what selection uses to compare entries.
    pub fn weak_eq(self, other: Symbol) -> bool {
        self.is_null() || other.is_null() || self == other
    }

    /// Informational join: `⊥ ⊔ x = x`, `x ⊔ x = x`, conflicting non-null
    /// symbols have no join. This is the "least common tuple" combinator of
    /// the clean-up operation (paper §3.4).
    pub fn join(self, other: Symbol) -> Option<Symbol> {
        match (self, other) {
            (Symbol::Null, x) | (x, Symbol::Null) => Some(x),
            (a, b) if a == b => Some(a),
            _ => None,
        }
    }

    /// True if `self` carries no more information than `other`
    /// (`⊥ ⊑ x`, `x ⊑ x`).
    pub fn subsumed_by(self, other: Symbol) -> bool {
        self.is_null() || self == other
    }

    /// A total order used for canonicalization (sorting rows/columns into a
    /// normal form). ⊥ sorts first, then names, then values; within a sort,
    /// lexicographic on the string. The order is *not* part of the model —
    /// tables are permutation-invariant — it only pins down a canonical
    /// representative of each permutation class.
    pub fn canonical_cmp(self, other: Symbol) -> Ordering {
        fn rank(s: Symbol) -> u8 {
            match s {
                Symbol::Null => 0,
                Symbol::Name(_) => 1,
                Symbol::Value(_) => 2,
            }
        }
        rank(self)
            .cmp(&rank(other))
            .then_with(|| match (self, other) {
                (Symbol::Name(a), Symbol::Name(b)) | (Symbol::Value(a), Symbol::Value(b)) => {
                    a.as_str().cmp(b.as_str())
                }
                _ => Ordering::Equal,
            })
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Symbol::Name(i) => write!(f, "n:{}", i.as_str()),
            Symbol::Value(i) => write!(f, "v:{}", i.as_str()),
            Symbol::Null => f.write_str("⊥"),
        }
    }
}

/// Names and values render bare, ⊥ renders as the bottom glyph. The sorts
/// are distinguishable via `Debug` / the grid cell syntax, not via
/// `Display`, mirroring how the paper distinguishes them by font.
impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Symbol::Name(i) | Symbol::Value(i) => f.write_str(i.as_str()),
            Symbol::Null => f.write_str("⊥"),
        }
    }
}

/// Parse the grid cell syntax used by [`crate::Table::from_grid`] and
/// the CSV cells of [`crate::io`]:
///
/// * `"_"` or `"⊥"` → ⊥
/// * `"n:xyz"` → the name `xyz`
/// * `"v:xyz"` → the value `xyz`
/// * anything else → `default_sort` applied to the whole cell
///
/// `default_sort` is `Symbol::name` in attribute positions and
/// `Symbol::value` in data positions, matching the paper's convention that
/// attribute positions *usually* hold names and data positions *usually*
/// hold values, while still allowing either (SalesInfo3 in Figure 1 puts
/// data in attribute positions; Figure 4 puts the name `Region` in a data
/// position).
pub fn parse_cell(cell: &str, default_sort: fn(&str) -> Symbol) -> Symbol {
    match cell {
        "_" | "⊥" => Symbol::Null,
        _ => {
            if let Some(rest) = cell.strip_prefix("n:") {
                Symbol::name(rest)
            } else if let Some(rest) = cell.strip_prefix("v:") {
                Symbol::value(rest)
            } else {
                default_sort(cell)
            }
        }
    }
}

/// The sort tag (`""`, `"n:"` or `"v:"`) that precedes `text`, the text
/// of `sym` (`"_"` for ⊥), in the grid cell syntax: the one tag decision
/// of the CSV cell writer of [`crate::io`], so that the written cell
/// round-trips through [`parse_cell`] with the positional default. A
/// symbol is tagged when its sort differs from the positional default or
/// its text would read as ⊥ or as a tag.
pub fn cell_tag(sym: Symbol, text: &str, default_is_name: bool) -> &'static str {
    match sym {
        Symbol::Null => "",
        Symbol::Name(_) if default_is_name && !needs_tag(text) => "",
        Symbol::Name(_) => "n:",
        Symbol::Value(_) if !default_is_name && !needs_tag(text) => "",
        Symbol::Value(_) => "v:",
    }
}

fn needs_tag(s: &str) -> bool {
    s == "_" || s == "⊥" || s.starts_with("n:") || s.starts_with("v:")
}

/// An uninterned symbol representation, shipped solely for the
/// `ablation_interner` benchmark (DESIGN.md §6): identical semantics, but
/// strings are heap-allocated `Arc<str>`s compared bytewise.
pub mod uninterned {
    use std::sync::Arc;

    /// Uninterned analogue of [`super::Symbol`].
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    pub enum USymbol {
        /// A name.
        Name(Arc<str>),
        /// A value.
        Value(Arc<str>),
        /// ⊥.
        Null,
    }

    impl USymbol {
        /// Convert from the interned representation.
        pub fn from_symbol(s: super::Symbol) -> USymbol {
            match s {
                super::Symbol::Name(i) => USymbol::Name(Arc::from(i.as_str())),
                super::Symbol::Value(i) => USymbol::Value(Arc::from(i.as_str())),
                super::Symbol::Null => USymbol::Null,
            }
        }

        /// Weak equality, mirroring [`super::Symbol::weak_eq`].
        pub fn weak_eq(&self, other: &USymbol) -> bool {
            matches!(self, USymbol::Null) || matches!(other, USymbol::Null) || self == other
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell as the CSV writer spells it: the tag, then the text.
    fn render(sym: Symbol, default_is_name: bool) -> String {
        let text = sym.text().unwrap_or("_");
        format!("{}{text}", cell_tag(sym, text, default_is_name))
    }

    #[test]
    fn sorts_are_distinct() {
        assert_ne!(Symbol::name("east"), Symbol::value("east"));
        assert!(Symbol::name("east").is_name());
        assert!(Symbol::value("east").is_value());
        assert!(Symbol::Null.is_null());
    }

    #[test]
    fn weak_eq_treats_null_as_wildcard() {
        let a = Symbol::value("50");
        assert!(a.weak_eq(a));
        assert!(a.weak_eq(Symbol::Null));
        assert!(Symbol::Null.weak_eq(a));
        assert!(!a.weak_eq(Symbol::value("60")));
        assert!(!Symbol::name("Sold").weak_eq(Symbol::value("Sold")));
    }

    #[test]
    fn join_is_least_upper_bound() {
        let v = Symbol::value("50");
        assert_eq!(Symbol::Null.join(v), Some(v));
        assert_eq!(v.join(Symbol::Null), Some(v));
        assert_eq!(v.join(v), Some(v));
        assert_eq!(v.join(Symbol::value("60")), None);
        assert_eq!(Symbol::Null.join(Symbol::Null), Some(Symbol::Null));
    }

    #[test]
    fn subsumption_ordering() {
        let v = Symbol::value("50");
        assert!(Symbol::Null.subsumed_by(v));
        assert!(v.subsumed_by(v));
        assert!(!v.subsumed_by(Symbol::Null));
        assert!(!v.subsumed_by(Symbol::value("60")));
    }

    #[test]
    fn canonical_order_is_total_and_stable() {
        let mut syms = vec![
            Symbol::value("b"),
            Symbol::name("b"),
            Symbol::Null,
            Symbol::value("a"),
            Symbol::name("a"),
        ];
        syms.sort_by(|a, b| a.canonical_cmp(*b));
        assert_eq!(
            syms,
            vec![
                Symbol::Null,
                Symbol::name("a"),
                Symbol::name("b"),
                Symbol::value("a"),
                Symbol::value("b"),
            ]
        );
    }

    #[test]
    fn cell_syntax_round_trips() {
        for (cell, default_name) in [
            ("Part", true),
            ("50", false),
            ("_", true),
            ("n:east", false),
            ("v:Sold", true),
        ] {
            let sort: fn(&str) -> Symbol = if default_name {
                Symbol::name
            } else {
                Symbol::value
            };
            let sym = parse_cell(cell, sort);
            let rendered = render(sym, default_name);
            assert_eq!(parse_cell(&rendered, sort), sym, "cell {cell:?}");
        }
    }

    #[test]
    fn cell_syntax_handles_literal_underscore_value() {
        // A value spelled "_" must render tagged to avoid being read as ⊥.
        let sym = Symbol::value("_");
        let rendered = render(sym, false);
        assert_eq!(rendered, "v:_");
        assert_eq!(parse_cell(&rendered, Symbol::value), sym);
    }

    #[test]
    fn fresh_values_are_values_and_distinct() {
        let a = Symbol::fresh_value();
        let b = Symbol::fresh_value();
        assert!(a.is_value());
        assert_ne!(a, b);
    }

    #[test]
    fn display_renders_bottom_glyph() {
        assert_eq!(Symbol::Null.to_string(), "⊥");
        assert_eq!(Symbol::name("Sales").to_string(), "Sales");
    }
}
