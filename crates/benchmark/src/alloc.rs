//! A counting allocator for the `*.allocs_*` per-layer metrics.
//!
//! It wraps the system allocator and counts only while the runtime flag
//! is on, which the harness sets under `--trace` alone: with the flag
//! off the cost is one relaxed load per allocation, on every commit
//! alike, so end-to-end numbers stay comparable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
// Statistics only: they publish no other data, so relaxed is enough.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see alloc).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's obligation and passes through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off (process-wide, all threads).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Allocation calls counted so far.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, because the flag and the counters are process-wide and
    // cargo runs tests of one binary on parallel threads.
    #[test]
    fn counts_only_while_enabled() {
        set_enabled(false);
        let before = count();
        std::hint::black_box(vec![0u8; 4096]);
        // Other test threads allocate too, but nothing counts while off.
        assert_eq!(count(), before);
        set_enabled(true);
        std::hint::black_box(vec![0u8; 4096]);
        set_enabled(false);
        assert!(count() > before, "an allocation went uncounted");
    }
}
