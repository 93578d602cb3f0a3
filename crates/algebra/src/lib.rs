//! # tabular-algebra
//!
//! The **tabular algebra** (TA) of Gyssens, Lakshmanan & Subramanian,
//! *Tables as a Paradigm for Querying and Restructuring* (PODS 1996), §3:
//! a language for querying and restructuring tabular databases that is
//! complete for the generic, constructive database transformations
//! (Theorem 4.4).
//!
//! Three layers:
//!
//! * [`ops`] — every operation of §3 as a pure function on tables:
//!   traditional (union, difference, ×, rename, project, select),
//!   restructuring (group, merge, split, collapse), transposition
//!   (transpose, switch), redundancy removal (clean-up, purge), and
//!   tagging (tuple-new, set-new);
//! * [`program`] + [`param`] — assignment statements
//!   `T ← op(params)(args)` with the paper's parameter language
//!   (wildcards, negative lists, entry-addressing pairs) and `while`
//!   loops;
//! * [`eval`] — the interpreter, and [`parser`] — a textual concrete
//!   syntax with a [`pretty`] printer.
//!
//! ## Example: Figure 4 of the paper
//!
//! ```
//! use tabular_algebra::{param::Param, program::{OpKind, Program}, run_governed_traced, Budget};
//! use tabular_core::fixtures;
//!
//! let program = Program::new().assign(
//!     Param::name("Sales"),
//!     OpKind::Group { by: Param::names(&["Region"]), on: Param::names(&["Sold"]) },
//!     vec![Param::name("Sales")],
//! );
//! let (out, _stats, _trace) =
//!     run_governed_traced(&program, &fixtures::sales_info1(), &Budget::default()).unwrap();
//! assert_eq!(out.table_str("Sales").unwrap(), &fixtures::figure4_grouped());
//! ```

#![warn(missing_docs)]

mod delta;
pub mod derived;
pub mod error;
pub mod eval;
pub mod federation;
pub mod governor;
pub mod obs;
pub mod ops;
pub mod param;
pub mod parser;
pub mod plan;
pub mod pool;
pub mod pretty;
pub mod program;

pub use error::AlgebraError;
pub use eval::{
    run_governed_traced, run_planned_governed_traced, EvalLimits, EvalStats, WhileStrategy,
};
pub use federation::Federation;
pub use governor::{Budget, CancelToken, PartialRun};
pub use obs::{DeltaDecision, Span, SpanKind, Trace, TraceLevel};
pub use param::Param;
pub use plan::{plan, plan_with_rules, Catalog, PlanReport, Rule, ALL_RULES};
pub use program::{Assignment, OpKind, Program, RestructureChain, Statement};
