//! A counting global allocator for the allocation-accounting tests.
//!
//! A target installs it by including this file as a module
//! (`#[path = "support/counting_alloc.rs"] mod counting_alloc;`); each
//! integration-test target is its own process, so only those binaries
//! count. Counting is **per thread** (a `const`-initialised
//! `thread_local`, so the counter itself never allocates): the harness
//! runs tests on sibling threads, and only the measuring thread's
//! allocator traffic belongs to the path under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, with every allocator entry counted on the calling thread.
struct CountingAllocator;

thread_local! {
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY (of the impl, not `unsafe` blocks): pure delegation to `System`
// plus a thread-local counter bump — no allocator state of our own, and a
// const-initialised TLS cell cannot recurse into the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        EVENTS.with(|events| events.set(events.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        EVENTS.with(|events| events.set(events.get() + 1));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        EVENTS.with(|events| events.set(events.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Allocator events (allocs + deallocs + reallocs) performed by **this
/// thread** while running `f`.
pub fn allocator_events<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = EVENTS.with(Cell::get);
    let result = f();
    let after = EVENTS.with(Cell::get);
    (after - before, result)
}
