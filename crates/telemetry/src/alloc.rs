//! The tracking global allocator and the scoped resource ledger.
//!
//! The paper's MRC-style model (and our `--memory-budget` spill
//! machinery) treats per-machine memory as *the* defining constraint of
//! a valid MapReduce algorithm — yet a budget is only a promise unless
//! something measures what a run actually allocates. This module makes
//! the measurement ambient: a [`TrackingAllocator`] wraps the system
//! allocator behind `#[global_allocator]`, so every binary linking this
//! crate counts live bytes, the all-time peak, cumulative allocated
//! bytes and allocation calls in four relaxed atomics — cheap enough to
//! leave on unconditionally, and incapable of changing allocation
//! behaviour (outputs stay bit-identical).
//!
//! On top of the raw counters, a [`LedgerScope`] carves the global
//! stream into attributable windows: opening a scope snapshots the
//! counters and restarts a windowed high-water mark; closing it yields
//! a [`MemDelta`] — the scope's own peak, its growth over the live size
//! at open, and the bytes/calls allocated inside it. Scopes nest: a
//! child's peak propagates into its parent's window on close, so for
//! sequentially nested scopes (the driver → job → phase span tree) the
//! invariants `child peak ≤ parent peak` and `Σ child allocated ≤
//! parent allocated` hold exactly. Under truly concurrent scopes the
//! window is shared and the attribution becomes approximate (never
//! unsafe, never negative) — good enough for the span tree, which opens
//! task scopes from a sequential driver loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes currently allocated and not yet freed.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// All-time high-water mark of [`LIVE_BYTES`].
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
/// Cumulative bytes ever handed out (never decremented).
static TOTAL_ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Cumulative allocation calls (alloc, alloc_zeroed, realloc).
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
/// Windowed high-water mark for the innermost open [`LedgerScope`]:
/// swapped down to the current live size on open, max-merged back into
/// the enclosing window on close.
static REGION_PEAK: AtomicU64 = AtomicU64::new(0);

/// A `System`-backed allocator that maintains the module's counters.
/// Installed as the process-wide `#[global_allocator]` below.
pub struct TrackingAllocator;

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

/// Counts an allocation of `size` bytes. The live gauge moves first and
/// the turnover after it, released; a [`LedgerScope`] reads the turnover
/// before the live gauge, so an allocation whose growth its live reading
/// missed has its bytes counted in the window too. (On x86 these
/// orderings cost nothing over relaxed ones.)
#[inline]
fn on_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    count_turnover(size, live);
}

/// The turnover half of an allocation whose growth has already moved
/// the live gauge to `live`.
#[inline]
fn count_turnover(size: usize, live: u64) {
    TOTAL_ALLOCATED.fetch_add(size as u64, Ordering::Release);
    ALLOC_COUNT.fetch_add(1, Ordering::Release);
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    REGION_PEAK.fetch_max(live, Ordering::Release);
}

#[inline]
fn on_dealloc(size: usize) {
    LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            // A realloc retires the old block and allocates the new one;
            // only the net growth moves the live gauge, but the full new
            // size counts as turnover.
            if new_size >= layout.size() {
                let grown = (new_size - layout.size()) as u64;
                let live = LIVE_BYTES.fetch_add(grown, Ordering::Relaxed) + grown;
                count_turnover(new_size, live);
            } else {
                TOTAL_ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
                ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
                LIVE_BYTES.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
            }
        }
        new_ptr
    }
}

/// A point-in-time copy of the allocator's process-wide counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Bytes currently allocated and not yet freed.
    pub live_bytes: u64,
    /// All-time high-water mark of `live_bytes`.
    pub peak_bytes: u64,
    /// Cumulative bytes ever allocated.
    pub total_allocated: u64,
    /// Cumulative allocation calls.
    pub allocs: u64,
}

/// Reads the allocator's counters (relaxed loads; consistent enough for
/// telemetry, not a synchronization point). Another thread may have
/// raised the live gauge and not yet the peak, so the peak read is
/// lifted to the live size read before it: a peak below a live size the
/// heap reached would be no peak.
pub fn mem_stats() -> MemStats {
    let live_bytes = LIVE_BYTES.load(Ordering::Relaxed);
    MemStats {
        live_bytes,
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed).max(live_bytes),
        total_allocated: TOTAL_ALLOCATED.load(Ordering::Relaxed),
        allocs: ALLOC_COUNT.load(Ordering::Relaxed),
    }
}

/// What one [`LedgerScope`] observed between open and close.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemDelta {
    /// The highest live size observed while the scope was open
    /// (absolute bytes, ≥ the live size at open).
    pub peak_bytes: u64,
    /// `peak_bytes` minus the live size at open: how far above its
    /// starting point the scope pushed the heap.
    pub peak_delta: u64,
    /// Bytes allocated while the scope was open.
    pub allocated: u64,
    /// Allocation calls made while the scope was open.
    pub allocs: u64,
}

/// A window over the allocator's counters, opened at a span boundary
/// and closed at the matching end — the "resource ledger" every
/// recorder span carries.
#[derive(Debug)]
pub struct LedgerScope {
    live_at_open: u64,
    total_at_open: u64,
    allocs_at_open: u64,
    /// The enclosing window's high-water mark, saved so close() can
    /// restore (and propagate into) it.
    outer_region_peak: u64,
}

impl LedgerScope {
    /// Snapshots the counters and restarts the windowed peak at the
    /// current live size.
    pub fn open() -> Self {
        // Turnover before the live gauge: see `on_alloc`.
        let total_at_open = TOTAL_ALLOCATED.load(Ordering::Acquire);
        let allocs_at_open = ALLOC_COUNT.load(Ordering::Acquire);
        let live = LIVE_BYTES.load(Ordering::Relaxed);
        let outer = REGION_PEAK.swap(live, Ordering::Relaxed);
        Self {
            live_at_open: live,
            total_at_open,
            allocs_at_open,
            outer_region_peak: outer,
        }
    }

    /// Closes the window: reads this scope's peak, folds it back into
    /// the enclosing window (so a parent's peak is never below its
    /// children's), and returns the attribution.
    pub fn close(self) -> MemDelta {
        // Acquired, so the turnover read below covers the peak read here.
        let scope_peak = REGION_PEAK.load(Ordering::Acquire).max(self.live_at_open);
        REGION_PEAK.fetch_max(self.outer_region_peak.max(scope_peak), Ordering::Relaxed);
        MemDelta {
            peak_bytes: scope_peak,
            peak_delta: scope_peak.saturating_sub(self.live_at_open),
            allocated: TOTAL_ALLOCATED
                .load(Ordering::Relaxed)
                .saturating_sub(self.total_at_open),
            allocs: ALLOC_COUNT
                .load(Ordering::Relaxed)
                .saturating_sub(self.allocs_at_open),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_move_the_counters() {
        let before = mem_stats();
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        let after = mem_stats();
        assert!(after.total_allocated >= before.total_allocated + (1 << 16));
        assert!(after.allocs > before.allocs);
        // The peak gauge trails the live gauge monotonically.
        assert!(after.peak_bytes >= after.live_bytes);
        drop(v);
        // Cumulative counters never move backwards.
        let freed = mem_stats();
        assert!(freed.total_allocated >= after.total_allocated);
        assert!(freed.peak_bytes >= after.peak_bytes);
    }

    #[test]
    fn a_snapshot_never_shows_live_above_peak() {
        // Another thread sets a new peak with nearly every allocation
        // while this one takes snapshots, so snapshots land between its
        // raising the live gauge and raising the peak.
        let done = std::sync::atomic::AtomicBool::new(false);
        let torn = std::thread::scope(|s| {
            s.spawn(|| {
                let held: Vec<Box<u64>> = (0..200_000).map(Box::new).collect();
                done.store(true, Ordering::Relaxed);
                drop(held);
            });
            let mut torn = None;
            while !done.load(Ordering::Relaxed) {
                let m = mem_stats();
                if m.peak_bytes < m.live_bytes {
                    torn.get_or_insert(m);
                }
            }
            torn
        });
        assert_eq!(torn, None);
    }

    #[test]
    fn scope_attributes_its_own_allocations() {
        // Other test threads share the global counters, so assert only
        // invariants that hold under concurrent allocation: our own
        // turnover is a lower bound, and live growth never exceeds the
        // bytes allocated inside the window.
        let scope = LedgerScope::open();
        let v: Vec<u8> = vec![0; 1 << 18];
        let held = v.len() as u64;
        drop(v);
        let delta = scope.close();
        assert!(delta.allocated >= held, "{delta:?}");
        assert!(delta.allocs >= 1, "{delta:?}");
        assert!(delta.peak_delta <= delta.allocated, "{delta:?}");
        assert!(delta.peak_bytes >= delta.peak_delta, "{delta:?}");
    }

    #[test]
    fn nested_scope_peak_propagates_to_the_parent() {
        let parent = LedgerScope::open();
        let child = LedgerScope::open();
        let v: Vec<u8> = vec![0; 1 << 18];
        drop(v);
        let child_delta = child.close();
        let parent_delta = parent.close();
        assert!(
            child_delta.peak_bytes <= parent_delta.peak_bytes,
            "child {child_delta:?} parent {parent_delta:?}"
        );
        assert!(child_delta.allocated <= parent_delta.allocated);
        assert!(child_delta.allocs <= parent_delta.allocs);
    }

    #[test]
    fn idle_scope_growth_is_bounded_by_its_turnover() {
        let scope = LedgerScope::open();
        let delta = scope.close();
        // We allocated nothing, so any window growth came from other
        // threads — and live growth is always bounded by the bytes
        // allocated inside the window.
        assert!(delta.peak_delta <= delta.allocated, "{delta:?}");
        // peak_bytes is the absolute live size, never below the open
        // point even when nothing was allocated.
        assert!(delta.peak_bytes > 0);
    }
}
