//! A counting global allocator: exact bytes allocated and the peak of
//! live bytes, for the per-request allocation figures of the replay.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: u64) {
    ALLOCATED.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: u64) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are statistics that publish no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrink(layout.size() as u64);
            grow(new_size as u64);
        }
        p
    }
}

/// Counter readings at the start of a measured region.
pub struct Mark {
    allocated: u64,
    live: u64,
}

/// Start measuring: resets the peak to the current live bytes.
pub fn mark() -> Mark {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    Mark {
        allocated: ALLOCATED.load(Relaxed),
        live,
    }
}

impl Mark {
    /// `(bytes allocated, peak live bytes above the start)` since `mark`.
    pub fn read(&self) -> (u64, u64) {
        (
            ALLOCATED.load(Relaxed) - self.allocated,
            PEAK.load(Relaxed).saturating_sub(self.live),
        )
    }
}
