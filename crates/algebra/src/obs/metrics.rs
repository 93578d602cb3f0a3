//! The metrics registry: the single sink for everything the interpreter
//! counts, times, or traces.
//!
//! Before this module, `eval.rs` and `delta.rs` each updated raw
//! `EvalStats` fields inline and the shard jobs reported nothing; the
//! `Metrics` registry centralizes that bookkeeping behind one API so
//! counter semantics (what counts as an "execution", how skipped
//! statements are accounted) live in one place, and so the span layer of
//! [`crate::obs::trace`] can piggyback on the very same measurements —
//! which is what makes per-op span totals reconcile *exactly* with
//! `EvalStats::op_micros` (no double counting: each statement is timed
//! once and the one reading feeds both sinks).
//!
//! The registry is deliberately single-threaded: shard jobs return their
//! own wall time with their results and the evaluating thread records
//! the spans after the fan-out, so no synchronization is
//! needed on the hot path. At the default [`TraceLevel::Counters`] the
//! span calls return at once, so one clock reading per executed
//! statement is all the timing layer costs.

use crate::eval::EvalStats;
use crate::obs::trace::{DeltaDecision, Span, SpanKind, Trace, TraceLevel};
use std::time::Instant;

/// A span begun but not yet completed; lives on the registry's stack so
/// nested work (iteration → statement → shard) links parents correctly
/// and so helpers like `compute_results` can annotate the span currently
/// open without threading a handle through every call.
struct Pending {
    span: Span,
    /// Process-wide CoW-copy total when the span opened; closing
    /// differences against it so the span shows how many cell buffers its
    /// work (child spans included) actually materialized.
    cow_base: u64,
}

impl Pending {
    /// Close with `decision`; closing as `Executed` keeps a decision the
    /// work noted while the span was open ([`Metrics::note_incremental`]).
    fn close(mut self, micros: u128, decision: DeltaDecision) -> Span {
        self.span.micros = micros;
        if decision != DeltaDecision::Executed {
            self.span.decision = decision;
        }
        self.span.cow_copies = tabular_core::stats::cow_copies().saturating_sub(self.cow_base);
        self.span
    }
}

/// Single sink for interpreter statistics and spans (see module docs).
pub(crate) struct Metrics {
    /// The public counters, exactly as `run_governed_traced` returns them.
    pub(crate) stats: EvalStats,
    spans: bool,
    trace: Trace,
    stack: Vec<Pending>,
    next_id: u64,
    /// Cells the current statement's fused joins already charged against
    /// the governor (admission between the kernel's count and scatter
    /// passes); `charge_production` takes this and charges only the
    /// remainder.
    precharged_cells: usize,
}

impl Metrics {
    pub(crate) fn new(level: TraceLevel) -> Metrics {
        Metrics {
            stats: EvalStats::default(),
            spans: level == TraceLevel::Spans,
            trace: Trace::new(),
            stack: Vec::new(),
            next_id: 0,
            precharged_cells: 0,
        }
    }

    /// Note cells a fused join charged mid-statement, so the
    /// statement-level charge can subtract them.
    pub(crate) fn precharge(&mut self, cells: usize) {
        self.precharged_cells += cells;
    }

    /// Take (and reset) the cells precharged during the current
    /// statement.
    pub(crate) fn take_precharged(&mut self) -> usize {
        std::mem::take(&mut self.precharged_cells)
    }

    /// Account one join whose probe reached the partition threshold:
    /// bump the stats counters and record one partition span per probe
    /// range under the open statement span. A no-op on an empty report
    /// (a delta step that did not reach the threshold, or no join).
    pub(crate) fn note_partitioned(&mut self, report: &[crate::ops::PartitionShard]) {
        if report.is_empty() {
            return;
        }
        self.stats.partitioned_joins += 1;
        self.stats.partition_shards += report.len();
        for (shard, p) in report.iter().enumerate() {
            self.leaf_span(SpanKind::Partition, shard, p.rows, p.wall_micros);
        }
    }

    /// A timestamp for per-op timing.
    pub(crate) fn timer() -> Instant {
        Instant::now()
    }

    /// Elapsed µs of a [`Metrics::timer`] timestamp.
    pub(crate) fn elapsed(start: Instant) -> u128 {
        start.elapsed().as_micros()
    }

    /// Count one execution of `op` and add its wall time.
    pub(crate) fn record_op(&mut self, op: &'static str, micros: u128) {
        *self.stats.op_counts.entry(op).or_default() += 1;
        *self.stats.op_micros.entry(op).or_default() += micros;
    }

    fn alloc_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn open_id(&self) -> Option<u64> {
        self.stack.last().map(|p| p.span.id)
    }

    /// Open a span (no-op below [`TraceLevel::Spans`]). Every `begin`
    /// must be paired with an [`Metrics::end`] on the success path;
    /// spans left open by error propagation are simply not recorded —
    /// except on a budget trip, where [`Metrics::abort_open`] drains
    /// them into the partial trace as `aborted` spans.
    pub(crate) fn begin(&mut self, kind: SpanKind, op: &'static str, iteration: Option<usize>) {
        if !self.spans {
            return;
        }
        let mut span = Span::new(self.alloc_id(), self.open_id(), kind, op);
        span.iteration = iteration;
        self.stack.push(Pending {
            span,
            cow_base: tabular_core::stats::cow_copies(),
        });
    }

    /// Annotate the open span with its matched argument combinations and
    /// the total cells of the matched inputs.
    pub(crate) fn note_matched(&mut self, combos: usize, input_cells: usize) {
        if let Some(p) = self.stack.last_mut() {
            p.span.matched = combos;
            p.span.input_cells = input_cells;
        }
    }

    /// Annotate the open span with the total cells it produced.
    pub(crate) fn note_output(&mut self, cells: usize) {
        if let Some(p) = self.stack.last_mut() {
            p.span.output_cells += cells;
        }
    }

    /// Annotate the open span with a join-fusion decision. A fallback on
    /// any argument pair sticks: once `"fallback-unfused"` is noted the
    /// span keeps it even if other pairs fused, so a mixed statement is
    /// reported conservatively.
    pub(crate) fn note_fusion(&mut self, decision: &'static str) {
        if let Some(p) = self.stack.last_mut() {
            if p.span.fusion != Some("fallback-unfused") {
                p.span.fusion = Some(decision);
            }
        }
    }

    /// Count a statement that one of the delta engine's incremental arms
    /// ran under its keyword `kw`, and mark its open span `incremental`.
    pub(crate) fn note_incremental(&mut self, kw: &'static str) {
        self.stats.while_delta_incremental += 1;
        *self.stats.incremental_op_counts.entry(kw).or_default() += 1;
        if let Some(p) = self.stack.last_mut() {
            p.span.decision = DeltaDecision::Incremental;
        }
    }

    /// Close the innermost open span with its wall time and decision.
    pub(crate) fn end(&mut self, micros: u128, decision: DeltaDecision) {
        if let Some(p) = self.stack.pop() {
            self.trace.push(p.close(micros, decision));
        }
    }

    /// Record a completed leaf under the open statement span: a shard job
    /// ([`SpanKind::Shard`], `matched` tables handled) or one partition
    /// of a partitioned join ([`SpanKind::Partition`], `matched` output
    /// rows). `wall_micros` is the work's own wall time in microseconds,
    /// measured on the worker that ran it.
    pub(crate) fn leaf_span(
        &mut self,
        kind: SpanKind,
        shard: usize,
        matched: usize,
        wall_micros: u128,
    ) {
        if !self.spans {
            return;
        }
        let mut span = Span::new(self.alloc_id(), self.open_id(), kind, kind.as_str());
        span.matched = matched;
        span.micros = wall_micros;
        span.shard = Some(shard);
        self.trace.push(span);
    }

    /// Drain every still-open span into the trace as `aborted`,
    /// innermost first — so the first aborted span in the trace is the
    /// exact unit of work a budget trip interrupted, with its enclosing
    /// statement and iteration spans following. Aborted spans carry the
    /// annotations noted before the trip and no wall time (their timing
    /// never completed; recording a partial reading would break the
    /// span/stats reconciliation invariant).
    pub(crate) fn abort_open(&mut self) {
        while let Some(p) = self.stack.pop() {
            self.trace.push(p.close(0, DeltaDecision::Aborted));
        }
    }

    /// Decompose into the public stats and the collected trace.
    pub(crate) fn into_parts(self) -> (EvalStats, Trace) {
        (self.stats, self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_time_without_spans() {
        let mut m = Metrics::new(TraceLevel::Counters);
        m.record_op("COPY", 3);
        let (stats, trace) = m.into_parts();
        assert!(trace.is_empty());
        assert_eq!(stats.op_micros.get("COPY"), Some(&3));
    }

    #[test]
    fn abort_open_drains_innermost_first() {
        let mut m = Metrics::new(TraceLevel::Spans);
        m.begin(SpanKind::WhileIter, "while", Some(3));
        m.begin(SpanKind::Assign, "PRODUCT", None);
        m.note_matched(1, 10);
        m.abort_open();
        let (_, trace) = m.into_parts();
        let spans: Vec<_> = trace.spans().collect();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.decision == DeltaDecision::Aborted));
        assert_eq!(spans[0].op, "PRODUCT", "innermost drained first");
        assert_eq!(spans[0].matched, 1);
        assert_eq!(spans[1].iteration, Some(3));
    }

    #[test]
    fn spans_nest_via_the_stack() {
        let mut m = Metrics::new(TraceLevel::Spans);
        m.begin(SpanKind::WhileIter, "while", Some(1));
        m.begin(SpanKind::Assign, "PRODUCT", None);
        m.note_matched(2, 10);
        m.note_output(6);
        m.leaf_span(SpanKind::Shard, 0, 1, 2);
        m.leaf_span(SpanKind::Partition, 1, 5, 3);
        m.end(7, DeltaDecision::Executed);
        m.begin(SpanKind::Assign, "SELECT", None);
        m.note_matched(1, 0);
        m.note_output(4);
        m.end(0, DeltaDecision::DeltaSkipped);
        m.end(20, DeltaDecision::Executed);
        let (_, trace) = m.into_parts();
        let spans: Vec<_> = trace.spans().collect();
        assert_eq!(spans.len(), 5);
        let shard = spans.iter().find(|s| s.kind == SpanKind::Shard).unwrap();
        let product = spans.iter().find(|s| s.op == "PRODUCT").unwrap();
        let skipped = spans.iter().find(|s| s.op == "SELECT").unwrap();
        let iter = spans
            .iter()
            .find(|s| s.kind == SpanKind::WhileIter)
            .unwrap();
        // `Span::micros` is wall time in MICROseconds on every span kind:
        // the value handed to `leaf_span` lands
        // unscaled in the span's µs field (the jobs store
        // `elapsed().as_micros()`, not nanoseconds — regression for a
        // comment that claimed "wall ns").
        assert_eq!(shard.micros, 2);
        let partition = spans
            .iter()
            .find(|s| s.kind == SpanKind::Partition)
            .unwrap();
        assert_eq!(partition.micros, 3);
        assert_eq!(partition.parent, Some(product.id));
        assert_eq!(partition.matched, 5, "partition spans carry row counts");
        assert_eq!(partition.shard, Some(1));
        assert_eq!(shard.parent, Some(product.id));
        assert_eq!(product.parent, Some(iter.id));
        assert_eq!(skipped.parent, Some(iter.id));
        assert_eq!(skipped.decision, DeltaDecision::DeltaSkipped);
        assert_eq!(product.matched, 2);
        assert_eq!(product.output_cells, 6);
        assert_eq!(iter.iteration, Some(1));
    }
}
