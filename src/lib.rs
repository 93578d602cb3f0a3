//! # tables-paradigm
//!
//! A full reproduction of Gyssens, Lakshmanan & Subramanian,
//! *Tables as a Paradigm for Querying and Restructuring* (PODS 1996), as a
//! Rust workspace. This umbrella crate re-exports the member crates:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`core`] (`tabular-core`) | the tabular database model: symbols, tables, weak equality, subsumption, the Figure 1 fixtures |
//! | [`algebra`] (`tabular-algebra`) | the tabular algebra: all operations of §3, the parameter language, programs with `while`, interpreter, textual syntax |
//! | [`relational`] (`tabular-relational`) | relations, relational algebra, `FO + while + new`, and the **Theorem 4.1** compiler into TA |
//! | [`canonical`] (`tabular-canonical`) | the canonical representation (**Lemmas 4.2/4.3**) and the **Theorem 4.4** completeness normal form |
//! | [`schemalog`] (`tabular-schemalog`) | SchemaLog_d and its embedding into TA (**Theorem 4.5**) |
//! | [`olap`] (`tabular-olap`) | the OLAP layer of §4.3: cubes, algebraic pivot/unpivot, summarization, classification |
//! | [`good`] (`tabular-good`) | the GOOD graph-object model and its embedding into TA (contribution 4) |
//!
//! ## Quickstart
//!
//! ```
//! use tables_paradigm::prelude::*;
//!
//! // The paper's running example: the relational sales data (SalesInfo1).
//! let db = fixtures::sales_info1();
//!
//! // Figure 4: Sales ← GROUP by Region on Sold (Sales).
//! let program = parse("Sales <- GROUP[by {Region} on {Sold}](Sales)").unwrap();
//! let out = run_governed_traced(&program, &db, &Budget::default()).unwrap().0;
//! assert_eq!(out.table_str("Sales").unwrap(), &fixtures::figure4_grouped());
//! ```

pub use tabular_algebra as algebra;
pub use tabular_canonical as canonical;
pub use tabular_core as core;
pub use tabular_good as good;
pub use tabular_olap as olap;
pub use tabular_relational as relational;
pub use tabular_schemalog as schemalog;

/// Convenient single import for examples and downstream users.
pub mod prelude {
    pub use tabular_algebra::{
        parser::parse, plan, plan_with_rules, pretty::render, pretty::render_plan,
        pretty::render_trace, run_governed_traced, run_planned_governed_traced, Budget,
        CancelToken, EvalLimits, OpKind, Param, PlanReport, Program, RestructureChain, Rule, Trace,
        TraceLevel, WhileStrategy, ALL_RULES,
    };
    pub use tabular_canonical::{decode, encode, encode_program, EncodeScheme, Transformation};
    pub use tabular_core::{fixtures, Database, Symbol, SymbolSet, Table};
    pub use tabular_olap::{add_totals, grand_total, pivot, summarize, unpivot, Agg, Cube};
    pub use tabular_relational::{FoProgram, RelDatabase, RelExpr, Relation};
    pub use tabular_schemalog as schemalog;
}
