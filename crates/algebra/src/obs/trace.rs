//! Structured evaluation spans (DESIGN.md, "Tracing and metrics").
//!
//! A [`Span`] records one unit of interpreter work — an assignment
//! execution, a `while` iteration, or a shard job — with enough
//! structure to answer "where did the time go and why": the operation
//! keyword, how many argument combinations matched, the cells read and
//! produced, the wall time, and the delta-strategy decision
//! (`executed | incremental | delta-skipped | fallback-naive | aborted`).
//! Spans form a tree via parent ids (iterations parent the statements of
//! their body pass, statements parent their shard jobs) and collect into
//! a [`Trace`] — a bounded ring buffer, so tracing a diverging loop cannot
//! exhaust memory: once [`Trace::CAPACITY`] spans are held, the oldest are
//! dropped and counted in [`Trace::dropped`].
//!
//! Tracing is gated by [`TraceLevel`] on `EvalLimits::trace`:
//!
//! * [`TraceLevel::Counters`] — per-op counts and wall time in
//!   `EvalStats`, no spans. This is the default.
//! * [`TraceLevel::Spans`] — counters plus the span ring buffer.
//!
//! Every span is built by `Span::new`; the recorders fill in the
//! measurements they own.
//!
//! A span's `micros` is the *same measurement* that feeds
//! `EvalStats::op_micros`, so per-op totals over a complete trace
//! reconcile exactly with the stats (tested; see
//! [`Trace::per_op_micros`]).

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write;

/// How much observability the interpreter records (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Per-operation counts and wall time in `EvalStats`, no spans.
    #[default]
    Counters,
    /// Counters plus structured spans in a bounded ring buffer.
    Spans,
}

/// What kind of work a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One assignment statement execution (or delta skip).
    Assign,
    /// One `while` loop iteration (its body statements are children).
    WhileIter,
    /// One shard job of a parallel statement (child of the
    /// statement's span).
    Shard,
    /// One partition of a partition-parallel join (child of the
    /// statement's span); `matched` carries the partition's output rows
    /// and `shard` its partition index, recording the fan-out of a
    /// single large join across the executor.
    Partition,
    /// One planner rewrite decision, prepended to the trace by the
    /// `run_planned_governed_traced` so EXPLAIN output shows what the
    /// cost-based planner did before evaluation began. `op` carries the
    /// rule name; `input_cells`/`output_cells` carry the cost model's
    /// before/after cell estimates (0 when the rule had no statistics);
    /// wall time is 0 (planning is not evaluation work, so these spans
    /// never perturb the span/stats reconciliation, which only sums
    /// [`SpanKind::Assign`] spans).
    Plan,
}

impl SpanKind {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            SpanKind::Assign => "assign",
            SpanKind::WhileIter => "while-iter",
            SpanKind::Shard => "shard",
            SpanKind::Partition => "partition",
            SpanKind::Plan => "plan",
        }
    }
}

/// The delta-strategy decision a span records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaDecision {
    /// The work ran by fresh evaluation.
    Executed,
    /// One of the delta engine's incremental arms ran the statement: an
    /// append onto its cached output, or the incremental `DIFFERENCE`
    /// (each counted in `EvalStats::while_delta_incremental`).
    Incremental,
    /// The delta strategy proved re-execution a no-op and skipped it;
    /// `matched`/`output_cells` carry the memoized shape of what naive
    /// re-execution would have reproduced.
    DeltaSkipped,
    /// A `while` loop that requested the delta strategy but fell back to
    /// naive re-evaluation (body not provably delta-safe).
    FallbackNaive,
    /// The span was still open when a budget trip aborted the run: this
    /// is the work the governor interrupted (see `crate::governor`).
    /// Aborted spans record no wall time; their annotations are whatever
    /// the work had noted before the trip.
    Aborted,
}

impl DeltaDecision {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            DeltaDecision::Executed => "executed",
            DeltaDecision::Incremental => "incremental",
            DeltaDecision::DeltaSkipped => "delta-skipped",
            DeltaDecision::FallbackNaive => "fallback-naive",
            DeltaDecision::Aborted => "aborted",
        }
    }
}

/// One traced unit of interpreter work.
#[derive(Clone, Debug)]
pub struct Span {
    /// Sequence id, unique within the run (1-based, in completion order
    /// of allocation).
    pub id: u64,
    /// Id of the enclosing span, if any (iteration → statement → shard).
    pub parent: Option<u64>,
    /// What kind of work this span covers.
    pub kind: SpanKind,
    /// Operation keyword for assignments; `"while"` for iterations,
    /// `"shard"` for shard jobs, `"partition"` for partitioned-join
    /// partitions.
    pub op: &'static str,
    /// Matched argument combinations (assignments), tables handled
    /// (shard jobs), output rows written (partitions), or 0
    /// (iterations).
    pub matched: usize,
    /// Total cells of the matched input tables (only populated at
    /// [`TraceLevel::Spans`]; the cell convention matches the
    /// `max_cells` limit: `(height + 1) · (width + 1)`).
    pub input_cells: usize,
    /// Total cells of the produced tables.
    pub output_cells: usize,
    /// Wall time, µs — the same measurement that feeds
    /// `EvalStats::op_micros`.
    pub micros: u128,
    /// Table cell-buffer copies that materialized under copy-on-write
    /// while this span was open (inclusive of child spans; measured by
    /// differencing the process-wide [`tabular_core::stats`] counter, so
    /// concurrent evaluations can bleed in). 0 for shard and partition
    /// spans; a delta skip copies nothing, so its span reads 0 barring
    /// that bleed.
    pub cow_copies: u64,
    /// Delta-strategy decision.
    pub decision: DeltaDecision,
    /// Join-fusion decision for `FUSEDJOIN` assignment spans:
    /// `"fused-join"` when the hash-join kernel ran, `"fallback-unfused"`
    /// when the applicability check failed on some argument pair and the
    /// statement ran the product-then-select pipeline (mixed outcomes
    /// across pairs record the fallback, the conservative reading).
    /// `None` for every other span.
    pub fusion: Option<&'static str>,
    /// Shard id for [`SpanKind::Shard`] spans; partition index for
    /// [`SpanKind::Partition`] spans.
    pub shard: Option<usize>,
    /// 1-based iteration number for [`SpanKind::WhileIter`] spans.
    pub iteration: Option<usize>,
}

impl Span {
    /// A span of `kind` with every measurement zero and decision
    /// [`DeltaDecision::Executed`] — the one place spans are built; the
    /// recorders set the fields their work measured.
    pub(crate) fn new(id: u64, parent: Option<u64>, kind: SpanKind, op: &'static str) -> Span {
        Span {
            id,
            parent,
            kind,
            op,
            matched: 0,
            input_cells: 0,
            output_cells: 0,
            micros: 0,
            cow_copies: 0,
            decision: DeltaDecision::Executed,
            fusion: None,
            shard: None,
            iteration: None,
        }
    }
}

/// A bounded ring buffer of completed [`Span`]s.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    spans: VecDeque<Span>,
    dropped: usize,
}

impl Trace {
    /// Maximum spans held; the oldest are dropped beyond this.
    pub const CAPACITY: usize = 16_384;

    /// Empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Append a completed span, evicting the oldest at capacity.
    pub(crate) fn push(&mut self, span: Span) {
        if self.spans.len() == Self::CAPACITY {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(span);
    }

    /// Insert a span at the *front* of the buffer — used to place planner
    /// decision spans before the evaluation spans they shaped. At
    /// capacity the span is counted dropped instead (evicting the newest
    /// evaluation span to make room would be worse).
    pub(crate) fn prepend(&mut self, span: Span) {
        if self.spans.len() == Self::CAPACITY {
            self.dropped += 1;
            return;
        }
        self.spans.push_front(span);
    }

    /// The held spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no spans were recorded (e.g. at
    /// [`TraceLevel::Counters`]).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans evicted by the ring bound (0 for traces that fit).
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Wall time per operation keyword summed over *assignment* spans —
    /// the reconciliation view against `EvalStats::op_micros`. On a
    /// complete trace (`dropped() == 0`) the two agree exactly, because
    /// both sides are fed by the same per-statement measurement;
    /// delta-skipped statements contribute their recorded 0 µs.
    pub fn per_op_micros(&self) -> BTreeMap<&'static str, u128> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            if s.kind == SpanKind::Assign {
                *out.entry(s.op).or_default() += s.micros;
            }
        }
        out
    }

    /// Executions per decision, over assignment spans.
    pub fn decision_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            if s.kind == SpanKind::Assign {
                *out.entry(s.decision.as_str()).or_default() += 1;
            }
        }
        out
    }

    /// Export as a JSON object: `{"dropped": N, "spans": [...]}` with one
    /// flat object per span (tree structure via `parent` ids). The
    /// encoding is hand-rolled — span fields are numbers and fixed
    /// keywords, so no generic serializer is needed.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 128);
        write!(out, "{{\"dropped\":{},\"spans\":[", self.dropped).unwrap();
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"id\":{},\"parent\":{},\"kind\":\"{}\",\"op\":\"{}\",\
                 \"matched\":{},\"input_cells\":{},\"output_cells\":{},\
                 \"micros\":{},\"cow_copies\":{},\"decision\":\"{}\",\
                 \"fusion\":{},\"shard\":{},\"iteration\":{}}}",
                s.id,
                opt_json(s.parent),
                s.kind.as_str(),
                escape_json(s.op),
                s.matched,
                s.input_cells,
                s.output_cells,
                s.micros,
                s.cow_copies,
                s.decision.as_str(),
                opt_json_str(s.fusion),
                opt_json(s.shard),
                opt_json(s.iteration),
            )
            .unwrap();
        }
        out.push_str("]}");
        out
    }
}

fn opt_json<T: std::fmt::Display>(v: Option<T>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "null".to_owned(),
    }
}

fn opt_json_str(v: Option<&str>) -> String {
    match v {
        Some(x) => format!("\"{}\"", escape_json(x)),
        None => "null".to_owned(),
    }
}

fn escape_json(s: &str) -> String {
    // Operation keywords are ASCII identifiers; escape defensively anyway.
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, op: &'static str, micros: u128) -> Span {
        Span {
            id,
            parent: None,
            kind: SpanKind::Assign,
            op,
            matched: 1,
            input_cells: 4,
            output_cells: 4,
            micros,
            cow_copies: 0,
            decision: DeltaDecision::Executed,
            fusion: None,
            shard: None,
            iteration: None,
        }
    }

    #[test]
    fn ring_buffer_bounds_and_counts_drops() {
        let mut t = Trace::new();
        for i in 0..(Trace::CAPACITY + 10) {
            t.push(span(i as u64, "COPY", 1));
        }
        assert_eq!(t.len(), Trace::CAPACITY);
        assert_eq!(t.dropped(), 10);
        // Oldest evicted: the first held span is id 10.
        assert_eq!(t.spans().next().unwrap().id, 10);
    }

    #[test]
    fn per_op_totals_sum_assignment_spans_only() {
        let mut t = Trace::new();
        t.push(span(1, "PRODUCT", 5));
        t.push(span(2, "PRODUCT", 7));
        let mut w = span(3, "while", 100);
        w.kind = SpanKind::WhileIter;
        t.push(w);
        assert_eq!(t.per_op_micros().get("PRODUCT"), Some(&12));
        assert_eq!(t.per_op_micros().get("while"), None);
    }

    #[test]
    fn json_export_is_well_formed() {
        let mut t = Trace::new();
        let mut s = span(1, "SELECT", 9);
        s.shard = Some(2);
        s.iteration = None;
        t.push(s);
        let mut f = span(2, "FUSEDJOIN", 3);
        f.fusion = Some("fused-join");
        t.push(f);
        let json = t.to_json();
        assert!(json.starts_with("{\"dropped\":0,\"spans\":["));
        assert!(json.contains("\"op\":\"SELECT\""));
        assert!(json.contains("\"fusion\":null"));
        assert!(json.contains("\"fusion\":\"fused-join\""));
        assert!(json.contains("\"shard\":2"));
        assert!(json.contains("\"iteration\":null"));
        assert!(json.contains("\"decision\":\"executed\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn levels_are_ordered() {
        assert!(TraceLevel::Counters < TraceLevel::Spans);
        assert_eq!(TraceLevel::default(), TraceLevel::Counters);
    }
}
