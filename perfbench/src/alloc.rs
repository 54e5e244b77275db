//! A counting global allocator. Counting is off by default, so untraced
//! runs pay one relaxed load per allocation; traced runs switch it on
//! around the simulator calls whose allocations they attribute.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus an allocation counter.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

fn bump() {
    // Relaxed: both atomics are statistics that publish no other data.
    if ON.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` with counting on and returns its result plus the number of
/// allocations (including reallocations) made meanwhile, on any thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = COUNT.load(Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    let out = f();
    ON.store(false, Ordering::Relaxed);
    (out, COUNT.load(Ordering::Relaxed) - before)
}
