//! A counting global allocator shared by the allocation tests. Each
//! test binary installs it itself (`#[global_allocator]`) and holds
//! exactly one `#[test]`, so no sibling test allocates on another
//! thread while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Pass-through `System` wrapper that counts allocation events, and
/// the bytes they asked for, while armed. Deallocations are free to
/// happen (dropping warm state is not the property under test);
/// `alloc`/`realloc`/`alloc_zeroed` are the per-packet cost the tests
/// bound.
pub struct CountingAlloc;

pub static ARMED: AtomicBool = AtomicBool::new(false);
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
#[allow(dead_code)] // not every test binary bounds bytes
pub static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
}
