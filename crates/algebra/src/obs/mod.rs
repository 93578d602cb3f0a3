//! Observability for the tabular algebra interpreter: structured
//! evaluation tracing and the metrics registry.
//!
//! The paper's while-programs make evaluation cost opaque — one
//! statement fans out over every name-matching table, and the delta
//! `while` strategy skips work invisibly. This module makes both
//! observable:
//!
//! * [`trace`] — [`TraceLevel`], [`Span`], and the bounded [`Trace`]
//!   ring buffer with JSON export ([`Trace::to_json`]); the human
//!   `EXPLAIN ANALYZE`-style rendering lives in
//!   [`crate::pretty::render_trace`].
//! * [`metrics`] — the crate-internal registry threaded through the
//!   evaluator, replacing the ad-hoc counter updates previously
//!   scattered across `eval.rs` and `delta.rs`.
//!
//! Entry point: `EvalLimits { trace: TraceLevel::Spans, .. }` with
//! [`crate::eval::run_governed_traced`].

pub mod metrics;
pub mod trace;

pub use trace::{DeltaDecision, Span, SpanKind, Trace, TraceLevel};
