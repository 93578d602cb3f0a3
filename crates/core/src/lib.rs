//! # tabular-core
//!
//! The **tabular database model** of Gyssens, Lakshmanan & Subramanian,
//! *Tables as a Paradigm for Querying and Restructuring* (PODS 1996), §2:
//!
//! * [`Symbol`] — the universe `S = N ∪ V ∪ {⊥}` of names, values, and the
//!   inapplicable null, backed by a global [`interner`];
//! * [`Table`] — a total mapping `{0..m} × {0..n} → S` with the four
//!   regions of Figure 2 (name, column attributes, row attributes, data);
//! * [`Database`] — a set of tables (several may share one name);
//! * [`SymbolSet`] with *weak containment / equality* (`A ≼ B` iff
//!   `A\{⊥} ⊆ B\{⊥}`) and row/column *subsumption*;
//! * [`fixtures`] — the paper's Figure 1 sales databases, the expected
//!   outputs of Figures 4 and 5, and scaled deterministic generators.
//!
//! The algebra itself lives in the `tabular-algebra` crate; this crate is
//! purely the data model.
//!
//! ## Quick example
//!
//! ```
//! use tabular_core::{Table, Symbol};
//!
//! let sales = Table::relational(
//!     "Sales",
//!     &["Part", "Region", "Sold"],
//!     &[&["nuts", "east", "50"], &["bolts", "east", "70"]],
//! );
//! assert_eq!(sales.name(), Symbol::name("Sales"));
//! assert_eq!(sales.get(2, 3), Symbol::value("70"));
//! println!("{sales}");
//! ```

#![warn(missing_docs)]

pub mod database;
pub mod display;
pub mod error;
pub mod fixtures;
pub mod interner;
pub mod io;
pub mod stats;
pub mod symbol;
pub mod table;
pub mod weak;

pub use database::Database;
pub use error::CoreError;
pub use interner::Istr;
pub use symbol::Symbol;
pub use table::{RowAppender, Table};
pub use weak::SymbolSet;
