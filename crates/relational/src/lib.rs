//! # tabular-relational
//!
//! The relational substrate of the PODS 1996 reproduction:
//!
//! * [`relation`] — named-attribute, set-semantics relations and
//!   relational databases, with the natural embedding into the tabular
//!   model (relations ↦ tables with ⊥ row attributes);
//! * [`expr`] — relational algebra expressions with a reference
//!   evaluator (the FO core);
//! * [`program`] — the language `FO + while + new` (assignments,
//!   iteration, object creation), the source language of Theorem 4.1;
//! * [`compile`](mod@compile) — the **Theorem 4.1** compiler: every `FO + while + new`
//!   program is translated into an equivalent tabular algebra program.
//!
//! ```
//! use tabular_relational::{expr::RelExpr, program::FoProgram, relation::{RelDatabase, Relation}};
//! use tabular_relational::compile::run_compiled;
//! use tabular_algebra::Budget;
//!
//! let db = RelDatabase::from_relations([Relation::new("R", &["A"], &[&["1"], &["2"]])]);
//! let p = FoProgram::new().assign("Out", RelExpr::rel("R").select_const("A", "1"));
//! let direct = p.run(&db, 100).unwrap();
//! let (via_ta, _stats, _trace) = run_compiled(&p, &db, &["Out"], &Budget::default()).unwrap();
//! assert!(direct.get_str("Out").unwrap().equiv(via_ta.get_str("Out").unwrap()));
//! ```

#![warn(missing_docs)]

pub mod compile;
pub mod error;
pub mod expr;
pub mod program;
pub mod relation;

pub use compile::{compile, run_compiled};
pub use error::RelError;
pub use expr::RelExpr;
pub use program::{canonicalize_fresh, FoProgram, FoStatement};
pub use relation::{RelDatabase, Relation};
