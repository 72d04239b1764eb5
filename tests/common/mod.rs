//! A counting global allocator shared by the allocation tests. Each
//! test binary installs it itself (`#[global_allocator]`) and holds
//! exactly one `#[test]`, so no sibling test allocates on another
//! thread while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Pass-through `System` wrapper that counts allocation events while
/// armed. Deallocations are free to happen (dropping warm state is
/// not the property under test); `alloc`/`realloc`/`alloc_zeroed`
/// are the per-packet cost the tests bound.
pub struct CountingAlloc;

pub static ARMED: AtomicBool = AtomicBool::new(false);
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }
}
