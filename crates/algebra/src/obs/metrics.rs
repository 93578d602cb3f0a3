//! The metrics registry: the single sink for everything the interpreter
//! counts, times, or traces.
//!
//! Before this module, `eval.rs` and `delta.rs` each updated raw
//! `EvalStats` fields inline and the shard pool reported nothing; the
//! `Metrics` registry centralizes that bookkeeping behind one API so
//! counter semantics (what counts as an "execution", how skipped
//! statements are accounted) live in one place, and so the span layer of
//! [`crate::obs::trace`] can piggyback on the very same measurements —
//! which is what makes per-op span totals reconcile *exactly* with
//! `EvalStats::op_micros` (no double counting: each statement is timed
//! once and the one reading feeds both sinks).
//!
//! The registry is deliberately single-threaded: shard jobs measure
//! their own wall time into their result slots and the evaluating thread
//! records the spans after the scoped join, so no synchronization is
//! needed on the hot path and `TraceLevel::Off` costs only a branch.

use crate::eval::EvalStats;
use crate::obs::trace::{DeltaDecision, Span, SpanKind, Trace, TraceLevel};
use std::time::Instant;

/// A span begun but not yet completed; lives on the registry's stack so
/// nested work (iteration → statement → shard) links parents correctly
/// and so helpers like `compute_results` can annotate the span currently
/// open without threading a handle through every call.
struct Pending {
    id: u64,
    parent: Option<u64>,
    kind: SpanKind,
    op: &'static str,
    matched: usize,
    input_cells: usize,
    output_cells: usize,
    fusion: Option<&'static str>,
    iteration: Option<usize>,
    /// Process-wide CoW-copy total when the span opened; `end` differences
    /// against it so the span shows how many cell buffers its work (child
    /// spans included) actually materialized.
    cow_base: u64,
}

/// Single sink for interpreter statistics and spans (see module docs).
pub(crate) struct Metrics {
    /// The public counters, exactly as `run_governed_traced` returns them.
    pub(crate) stats: EvalStats,
    level: TraceLevel,
    trace: Trace,
    stack: Vec<Pending>,
    next_id: u64,
    /// Cells the current statement's partitioned joins already charged
    /// against the governor (per-partition admission control);
    /// `check_results` takes this and charges only the remainder.
    precharged_cells: usize,
}

impl Metrics {
    pub(crate) fn new(level: TraceLevel) -> Metrics {
        Metrics {
            stats: EvalStats::default(),
            level,
            trace: Trace::new(),
            stack: Vec::new(),
            next_id: 0,
            precharged_cells: 0,
        }
    }

    /// Note cells a partitioned join charged mid-statement, so the
    /// statement-level charge in `check_results` can subtract them.
    pub(crate) fn precharge(&mut self, cells: usize) {
        self.precharged_cells += cells;
    }

    /// Take (and reset) the cells precharged during the current
    /// statement.
    pub(crate) fn take_precharged(&mut self) -> usize {
        std::mem::take(&mut self.precharged_cells)
    }

    /// Account one partitioned join: bump the stats counters and record
    /// one partition span per shard under the open statement span. A
    /// no-op on an empty report (the join took the serial path).
    pub(crate) fn note_partitioned(&mut self, report: &[crate::ops::PartitionShard]) {
        if report.is_empty() {
            return;
        }
        self.stats.partitioned_joins += 1;
        self.stats.partition_shards += report.len();
        for (shard, p) in report.iter().enumerate() {
            self.partition_span(shard, p.rows, p.wall_micros);
        }
    }

    /// True when spans are being recorded.
    pub(crate) fn spans_enabled(&self) -> bool {
        self.level == TraceLevel::Spans
    }

    /// A timestamp for per-op timing, unless the level is `Off`.
    pub(crate) fn timer(&self) -> Option<Instant> {
        (self.level >= TraceLevel::Counters).then(Instant::now)
    }

    /// Elapsed µs of a [`Metrics::timer`] timestamp.
    pub(crate) fn elapsed(start: Option<Instant>) -> Option<u128> {
        start.map(|s| s.elapsed().as_micros())
    }

    /// Count one execution of `op`; add its wall time when timed.
    pub(crate) fn record_op(&mut self, op: &'static str, micros: Option<u128>) {
        *self.stats.op_counts.entry(op).or_default() += 1;
        if let Some(us) = micros {
            *self.stats.op_micros.entry(op).or_default() += us;
        }
    }

    fn alloc_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Open a span (no-op below [`TraceLevel::Spans`]). Every `begin`
    /// must be paired with an [`Metrics::end`] on the success path;
    /// spans left open by error propagation are simply not recorded —
    /// except on a budget trip, where [`Metrics::abort_open`] drains
    /// them into the partial trace as `aborted` spans.
    pub(crate) fn begin(&mut self, kind: SpanKind, op: &'static str, iteration: Option<usize>) {
        if !self.spans_enabled() {
            return;
        }
        let parent = self.stack.last().map(|p| p.id);
        let id = self.alloc_id();
        self.stack.push(Pending {
            id,
            parent,
            kind,
            op,
            matched: 0,
            input_cells: 0,
            output_cells: 0,
            fusion: None,
            iteration,
            cow_base: tabular_core::stats::cow_copies(),
        });
    }

    /// Annotate the open span with its matched argument combinations and
    /// the total cells of the matched inputs.
    pub(crate) fn note_matched(&mut self, combos: usize, input_cells: usize) {
        if let Some(p) = self.stack.last_mut() {
            p.matched = combos;
            p.input_cells = input_cells;
        }
    }

    /// Annotate the open span with the total cells it produced.
    pub(crate) fn note_output(&mut self, cells: usize) {
        if let Some(p) = self.stack.last_mut() {
            p.output_cells += cells;
        }
    }

    /// Annotate the open span with a join-fusion decision. A fallback on
    /// any argument pair sticks: once `"fallback-unfused"` is noted the
    /// span keeps it even if other pairs fused, so a mixed statement is
    /// reported conservatively.
    pub(crate) fn note_fusion(&mut self, decision: &'static str) {
        if let Some(p) = self.stack.last_mut() {
            if p.fusion != Some("fallback-unfused") {
                p.fusion = Some(decision);
            }
        }
    }

    /// Close the innermost open span with its wall time and decision.
    pub(crate) fn end(&mut self, micros: u128, decision: DeltaDecision) {
        if !self.spans_enabled() {
            return;
        }
        let Some(p) = self.stack.pop() else {
            return;
        };
        self.trace.push(Span {
            id: p.id,
            parent: p.parent,
            kind: p.kind,
            op: p.op,
            matched: p.matched,
            input_cells: p.input_cells,
            output_cells: p.output_cells,
            micros,
            cow_copies: tabular_core::stats::cow_copies().saturating_sub(p.cow_base),
            decision,
            fusion: p.fusion,
            shard: None,
            iteration: p.iteration,
        });
    }

    /// Record a completed shard-pool job as a leaf under the open
    /// statement span. `wall_micros` is the job's own wall time in
    /// microseconds, measured on the worker that ran it.
    pub(crate) fn shard_span(&mut self, shard: usize, tables: usize, wall_micros: u128) {
        if !self.spans_enabled() {
            return;
        }
        let parent = self.stack.last().map(|p| p.id);
        let id = self.alloc_id();
        self.trace.push(Span {
            id,
            parent,
            kind: SpanKind::Shard,
            op: "shard",
            matched: tables,
            input_cells: 0,
            output_cells: 0,
            micros: wall_micros,
            cow_copies: 0,
            decision: DeltaDecision::Executed,
            fusion: None,
            shard: Some(shard),
            iteration: None,
        });
    }

    /// Record one partition of a partitioned join as a leaf under the
    /// open statement span: `rows` output rows written, `wall_micros`
    /// the partition's count + scatter jobs' wall time in microseconds.
    pub(crate) fn partition_span(&mut self, shard: usize, rows: usize, wall_micros: u128) {
        if !self.spans_enabled() {
            return;
        }
        let parent = self.stack.last().map(|p| p.id);
        let id = self.alloc_id();
        self.trace.push(Span {
            id,
            parent,
            kind: SpanKind::Partition,
            op: "partition",
            matched: rows,
            input_cells: 0,
            output_cells: 0,
            micros: wall_micros,
            cow_copies: 0,
            decision: DeltaDecision::Executed,
            fusion: None,
            shard: Some(shard),
            iteration: None,
        });
    }

    /// Record a delta-skipped statement as a zero-time leaf span carrying
    /// the memoized shape of what naive re-execution would reproduce.
    pub(crate) fn skip_span(&mut self, op: &'static str, tables: usize, output_cells: usize) {
        if !self.spans_enabled() {
            return;
        }
        let parent = self.stack.last().map(|p| p.id);
        let id = self.alloc_id();
        self.trace.push(Span {
            id,
            parent,
            kind: SpanKind::Assign,
            op,
            matched: tables,
            input_cells: 0,
            output_cells,
            micros: 0,
            cow_copies: 0,
            decision: DeltaDecision::DeltaSkipped,
            fusion: None,
            shard: None,
            iteration: None,
        });
    }

    /// Drain every still-open span into the trace as `aborted`,
    /// innermost first — so the first aborted span in the trace is the
    /// exact unit of work a budget trip interrupted, with its enclosing
    /// statement and iteration spans following. Aborted spans carry the
    /// annotations noted before the trip and no wall time (their timing
    /// never completed; recording a partial reading would break the
    /// span/stats reconciliation invariant).
    pub(crate) fn abort_open(&mut self) {
        if !self.spans_enabled() {
            return;
        }
        while let Some(p) = self.stack.pop() {
            self.trace.push(Span {
                id: p.id,
                parent: p.parent,
                kind: p.kind,
                op: p.op,
                matched: p.matched,
                input_cells: p.input_cells,
                output_cells: p.output_cells,
                micros: 0,
                cow_copies: tabular_core::stats::cow_copies().saturating_sub(p.cow_base),
                decision: DeltaDecision::Aborted,
                fusion: p.fusion,
                shard: None,
                iteration: p.iteration,
            });
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
    fn off_records_no_spans_and_no_timers() {
        let mut m = Metrics::new(TraceLevel::Off);
        assert!(m.timer().is_none());
        m.begin(SpanKind::Assign, "COPY", None);
        m.note_matched(1, 4);
        m.end(5, DeltaDecision::Executed);
        m.record_op("COPY", None);
        let (stats, trace) = m.into_parts();
        assert!(trace.is_empty());
        assert_eq!(stats.op_counts.get("COPY"), Some(&1));
        assert!(stats.op_micros.is_empty());
    }

    #[test]
    fn counters_time_without_spans() {
        let mut m = Metrics::new(TraceLevel::Counters);
        assert!(m.timer().is_some());
        m.record_op("COPY", Some(3));
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
        m.shard_span(0, 1, 2);
        m.partition_span(1, 5, 3);
        m.end(7, DeltaDecision::Executed);
        m.skip_span("SELECT", 1, 4);
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
        // the value handed to `shard_span`/`partition_span` lands
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
