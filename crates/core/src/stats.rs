//! Process-wide storage-engine counter.
//!
//! The structurally shared store ([`crate::Table`], [`crate::Database`])
//! makes one event interesting that a deep-copy store has no use for:
//! materializing a table's cell buffer under copy-on-write (a *CoW
//! copy*). This counter is the ground truth that the evaluator's
//! `EvalStats::cow_copies`, the traced spans and the
//! allocation-regression test read: it is a global monotonic total, so
//! callers measure a region of interest by differencing
//! (`let before = cow_copies(); …; cow_copies() - before`).
//!
//! The counter is a `Relaxed` atomic — it orders nothing and costs one
//! uncontended RMW per event, which only fires on the cold (copying)
//! path anyway.

use std::sync::atomic::{AtomicU64, Ordering};

static COW_COPIES: AtomicU64 = AtomicU64::new(0);

/// Total table cell buffers materialized by copy-on-write: mutations of
/// a table whose cells were shared with at least one other handle.
pub fn cow_copies() -> u64 {
    COW_COPIES.load(Ordering::Relaxed)
}

pub(crate) fn record_cow_copy() {
    COW_COPIES.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic() {
        let c0 = cow_copies();
        record_cow_copy();
        assert!(cow_copies() > c0);
    }
}
