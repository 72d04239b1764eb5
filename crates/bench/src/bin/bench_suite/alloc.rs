//! Bin-local counting allocator for the `alloc.*` per-layer metrics.
//!
//! One relaxed counter pair behind an enabled flag. The flag stays off
//! during end-to-end timing, so the only cost there is one relaxed load
//! per allocation; the traced run switches it on around the replay and
//! the shadow-pipeline spans it wants counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus the counter pair.
pub struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn note(size: usize) {
    // Statistics only: the counters publish no other data.
    if ENABLED.load(Relaxed) {
        COUNT.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch counting on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// `(allocations, bytes)` counted so far while enabled.
pub fn snapshot() -> (u64, u64) {
    (COUNT.load(Relaxed), BYTES.load(Relaxed))
}

/// Run `f` with counting on; returns its result and the
/// `(allocations, bytes)` it caused. Restores the previous flag, so
/// counted regions nest.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let was = ENABLED.swap(true, Relaxed);
    let (c0, b0) = snapshot();
    let r = f();
    let (c1, b1) = snapshot();
    ENABLED.store(was, Relaxed);
    (r, c1 - c0, b1 - b0)
}
