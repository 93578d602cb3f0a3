//! # tabular-schemalog
//!
//! **SchemaLog_d** (paper §4.2): the single-database fragment of
//! SchemaLog (Lakshmanan, Sadri & Subramanian), whose atoms
//! `rel[tid : attr → value]` treat relation names, attribute names, and
//! tuple ids as first-class citizens — and its embedding into the tabular
//! algebra (**Theorem 4.5**).
//!
//! * [`ast`] / [`parser`] — terms, atoms, rules, and a textual syntax;
//! * [`quads`] — the quadruple view `Quad(Rel, Tid, Attr, Val)` of a
//!   relational database (the shape shared with the paper's canonical
//!   representation);
//! * [`stratify`] / [`eval`](mod@eval) — stratified bottom-up evaluation, naive and
//!   semi-naive;
//! * [`translate`](mod@translate) — the Theorem 4.5 pipeline: rules → relational algebra
//!   over `Quad` → `FO + while` → (Theorem 4.1) → tabular algebra.
//!
//! ```
//! use tabular_schemalog::{parser::parse, eval::{eval, Strategy, SlLimits}, quads::QuadDb};
//! use tabular_relational::relation::{RelDatabase, Relation};
//!
//! let db = RelDatabase::from_relations([
//!     Relation::new("sales", &["part", "sold"], &[&["nuts", "50"], &["bolts", "70"]]),
//! ]);
//! let q = QuadDb::from_relations(&db);
//! let p = parse("big[T : part -> P] :- sales[T : part -> P], sales[T : sold -> S], S >= 60.").unwrap();
//! let out = eval(&p, &q, Strategy::SemiNaive, &SlLimits::default()).unwrap();
//! let rels = out.to_relations(&[tabular_core::Symbol::name("big")]);
//! assert_eq!(rels.get_str("big").unwrap().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod eval;
pub mod parser;
pub mod pretty;
pub mod quads;
pub mod stratify;
pub mod translate;

pub use ast::{Atom, CmpOp, Literal, Rule, SlProgram, Term};
pub use error::SlError;
pub use eval::{eval, SlLimits, Strategy};
pub use parser::parse;
pub use quads::{Quad, QuadDb};
pub use translate::{order_relation, run_translated, translate, translate_with_order};
